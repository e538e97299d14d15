//! E6 — Theorem 5.1 / Vöcking's lower bound: one-step max load.
//!
//! Theorem 5.1 reinterprets Vöcking's classical result: in a single time
//! step of `m` requests to random chunks, *any* online `d`-choice
//! strategy sends `Ω(log log m)` requests to some server — so queues of
//! size `o(log log m)` must reject. This experiment throws one step of
//! balls at the balls-and-bins substrate with four strategies and tracks
//! how the max load scales with `m`:
//!
//! * one-choice grows like `log m / log log m` (fast),
//! * greedy-2 / greedy-4 / always-go-left hug `log log m` (extremely
//!   slow — the floor no strategy can beat).

use crate::ballsbins::{single_round_max_load, AlwaysGoLeft, GreedyD, OneChoice};
use crate::common;
use crate::{Check, Findings};
use rlb_hash::Pcg64;
use rlb_metrics::table::{fmt_f, fmt_u};
use rlb_metrics::Table;

/// Runs the experiment.
pub fn run(quick: bool) -> Findings {
    let trials = if quick { 3 } else { 9 };
    let ms: Vec<usize> = if quick {
        vec![1 << 10, 1 << 14]
    } else {
        vec![1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18]
    };
    let mut table = Table::new(
        "One-step max load of online strategies (m balls into m bins, mean over trials)",
        &[
            "m",
            "one-choice",
            "pred-1c",
            "greedy-2",
            "pred-2c",
            "greedy-4",
            "go-left-2",
            "loglog(m)",
        ],
    );
    // rows[i] = (m, [mean max load per strategy]); each m is an
    // independent pool job, assembled in sweep order below.
    let computed = rlb_pool::global().map(ms.clone(), move |&m| {
        let outcomes = rlb_pool::global().map_indexed(trials, move |i| {
            let mut rng = Pcg64::new(0xe6 + i as u64, m as u64);
            [
                single_round_max_load(&OneChoice, m, m, &mut rng) as f64,
                single_round_max_load(&GreedyD::new(2), m, m, &mut rng) as f64,
                single_round_max_load(&GreedyD::new(4), m, m, &mut rng) as f64,
                single_round_max_load(&AlwaysGoLeft::new(2), m, m, &mut rng) as f64,
            ]
        });
        let mut mean = [0.0f64; 4];
        for o in &outcomes {
            for (dst, v) in mean.iter_mut().zip(o.iter()) {
                *dst += v / trials as f64;
            }
        }
        (m, mean)
    });
    let mut rows: Vec<(usize, [f64; 4])> = Vec::new();
    for (m, mean) in computed {
        table.row(vec![
            fmt_u(m as u64),
            fmt_f(mean[0], 2),
            fmt_u(crate::theory::predicted_one_choice_max(m) as u64),
            fmt_f(mean[1], 2),
            fmt_f(crate::theory::predicted_two_choice_max(m), 2),
            fmt_f(mean[2], 2),
            fmt_f(mean[3], 2),
            fmt_f(common::loglog2(m), 2),
        ]);
        rows.push((m, mean));
    }
    table.note("Theorem 5.1: every online d-choice strategy has max load >= Omega(log log m)");

    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    let theory_close = rows.iter().all(|&(m, s)| {
        let pred1 = crate::theory::predicted_one_choice_max(m) as f64;
        let pred2 = crate::theory::predicted_two_choice_max(m);
        (s[0] - pred1).abs() <= 2.0 && (s[1] - pred2).abs() <= 2.0
    });
    let checks = vec![
        Check::new(
            "measured max loads track the closed-form predictions (+-2)",
            theory_close,
            rows.iter()
                .map(|&(m, s)| {
                    format!(
                        "m={m}: 1c {:.1} vs {}, 2c {:.1} vs {:.1}",
                        s[0],
                        crate::theory::predicted_one_choice_max(m),
                        s[1],
                        crate::theory::predicted_two_choice_max(m)
                    )
                })
                .collect::<Vec<_>>()
                .join("; "),
        ),
        Check::new(
            "one-choice max load clearly exceeds every d-choice strategy",
            last.1[0] > last.1[1] + 2.0 && last.1[0] > last.1[3] + 2.0,
            format!(
                "at m={}: one-choice {:.1} vs greedy-2 {:.1}",
                last.0, last.1[0], last.1[1]
            ),
        ),
        Check::new(
            "d-choice max load grows at most additively over the sweep (loglog-style)",
            last.1[1] - first.1[1] <= 3.0 && last.1[3] - first.1[3] <= 3.0,
            format!(
                "greedy-2: {:.1} -> {:.1}; go-left: {:.1} -> {:.1}",
                first.1[1], last.1[1], first.1[3], last.1[3]
            ),
        ),
        Check::new(
            "the Omega(log log m) floor: no d-choice strategy beats ~loglog m by much",
            rows.iter().all(|&(m, s)| {
                let floor = common::loglog2(m);
                s[1] >= floor * 0.5 && s[2] >= 1.0 && s[3] >= floor * 0.5
            }),
            "max load >= loglog(m)/2 at every m for greedy-2 and go-left".to_string(),
        ),
        Check::new(
            "more choices help (greedy-4 <= greedy-2)",
            rows.iter().all(|&(_, s)| s[2] <= s[1] + 0.5),
            format!(
                "at m={}: greedy-4 {:.1} vs greedy-2 {:.1}",
                last.0, last.1[2], last.1[1]
            ),
        ),
    ];
    (vec![table], checks)
}
