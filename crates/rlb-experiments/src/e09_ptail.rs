//! E9 — Lemma 4.8: the tail of P-queue arrivals over an interval.
//!
//! Lemma 4.8: for any `P_j` and any within-phase interval of length `ℓ`,
//! `Pr[Σ arrivals ≥ gℓ/4] ≤ e^{−ℓ}`. This is the engine of the DCR
//! average-latency proof (Proposition 4.9). We instrument a delayed
//! cuckoo run, record arrivals into class `P` per (server, step), and
//! measure the empirical exceedance frequency for a range of `ℓ`,
//! comparing against `e^{−ℓ}`.

use crate::common::{self, PolicyKind, Scenario};
use crate::{Check, Findings};
use rlb_core::{Decision, Observer, SimConfig};
use rlb_metrics::table::{fmt_rate, fmt_u};
use rlb_metrics::Table;
use rlb_workloads::RepeatedSet;

/// Records arrivals to queue class P (= 1) per server per step.
struct PArrivals {
    m: usize,
    current: Vec<u16>,
    per_step: Vec<Vec<u16>>,
}

impl Observer for PArrivals {
    fn on_route(&mut self, _step: u64, _chunk: u32, decision: Decision) {
        if let Decision::Route { server, class: 1 } = decision {
            self.current[server as usize] += 1;
        }
    }

    fn on_step_end(&mut self, _step: u64, _view: &rlb_core::ClusterView<'_>) {
        self.per_step
            .push(std::mem::replace(&mut self.current, vec![0; self.m]));
    }
}

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let m = if quick { 256 } else { 1024 };
    let steps = common::step_count(quick);
    let g = 16u32;
    let config = SimConfig::dcr_theorem(m, g, 4).with_seed(0xe9);
    let workload = RepeatedSet::first_k(common::m32(m), 17);
    let mut obs = PArrivals {
        m,
        current: vec![0; m],
        per_step: Vec::with_capacity(steps as usize),
    };
    Scenario::new(config, PolicyKind::DelayedCuckoo, workload)
        .observer(&mut obs)
        .run(steps);

    // For each window length l we report the exceedance probability at
    // several thresholds tau = c*l. The lemma's threshold is g*l/4 = 4l,
    // which Lemma 4.2 makes *deterministically* unreachable (per-step
    // arrivals are capped at 3 + stash spill) — the interesting tail is
    // how fast Pr[sum >= c*l] decays as c approaches that cap.
    let mut table = Table::new(
        format!("P-queue interval arrival tail (m = {m}, g = {g}; lemma threshold g*l/4 = 4l)"),
        &[
            "l",
            "Pr[>=1.5l]",
            "Pr[>=2l]",
            "Pr[>=3l]",
            "Pr[>=4l]",
            "e^-l",
            "windows",
        ],
    );
    let lens = [1usize, 2, 3, 4, 6, 8];
    let taus = [1.5f64, 2.0, 3.0, 4.0];
    // measured[(l idx)][(tau idx)] = probability
    let mut measured: Vec<(usize, Vec<f64>, u64)> = Vec::new();
    let t = obs.per_step.len();
    for &l in &lens {
        if l > t {
            continue;
        }
        let thresholds: Vec<usize> = taus
            .iter()
            .map(|&c| (c * l as f64).ceil() as usize)
            .collect();
        let mut exceed = vec![0u64; taus.len()];
        let mut windows = 0u64;
        for server in 0..m {
            let mut window_sum: usize = (0..l).map(|s| obs.per_step[s][server] as usize).sum();
            for start in 0..=(t - l) {
                windows += 1;
                for (e, &th) in exceed.iter_mut().zip(thresholds.iter()) {
                    if window_sum >= th {
                        *e += 1;
                    }
                }
                if start + l < t {
                    window_sum += obs.per_step[start + l][server] as usize;
                    window_sum -= obs.per_step[start][server] as usize;
                }
            }
        }
        let probs: Vec<f64> = exceed.iter().map(|&e| e as f64 / windows as f64).collect();
        let bound = (-(l as f64)).exp();
        table.row(vec![
            fmt_u(l as u64),
            fmt_rate(probs[0]),
            fmt_rate(probs[1]),
            fmt_rate(probs[2]),
            fmt_rate(probs[3]),
            fmt_rate(bound),
            fmt_u(windows),
        ]);
        measured.push((l, probs, windows));
    }
    table.note("windows slide over all steps; the lemma's bound applies within phases");

    let lemma_bound_holds = measured
        .iter()
        .all(|(l, p, _)| p[3] <= (-(*l as f64)).exp().max(1e-6) * 3.0 + 1e-9);
    let decays_in_tau = measured
        .iter()
        .all(|(_, p, _)| p.windows(2).all(|w| w[1] <= w[0] + 1e-9));
    let heavy_thresholds_decay_in_l = {
        // At tau = 2l the exceedance should fall steeply with l (the
        // Chernoff behaviour the lemma's proof uses).
        let first = measured.first().map(|(_, p, _)| p[1]).unwrap_or(0.0);
        let last = measured.last().map(|(_, p, _)| p[1]).unwrap_or(0.0);
        last <= first * 0.5 + 1e-6
    };
    let checks = vec![
        Check::new(
            "the lemma's g*l/4 threshold is respected within e^{-l} (x3 slack)",
            lemma_bound_holds,
            measured
                .iter()
                .map(|(l, p, _)| format!("l={l}: {:.2e} vs {:.2e}", p[3], (-(*l as f64)).exp()))
                .collect::<Vec<_>>()
                .join(", "),
        ),
        Check::new(
            "exceedance decays in the threshold multiplier at every l",
            decays_in_tau,
            "monotone across tau in {1.5, 2, 3, 4}".to_string(),
        ),
        Check::new(
            "above-mean thresholds decay steeply with window length (Chernoff shape)",
            heavy_thresholds_decay_in_l,
            format!(
                "Pr[>=2l]: l={} gives {:.2e}, l={} gives {:.2e}",
                measured.first().map(|(l, _, _)| *l).unwrap_or(0),
                measured.first().map(|(_, p, _)| p[1]).unwrap_or(0.0),
                measured.last().map(|(l, _, _)| *l).unwrap_or(0),
                measured.last().map(|(_, p, _)| p[1]).unwrap_or(0.0)
            ),
        ),
    ];
    (vec![table], checks)
}
