//! The repo benchmark: six workloads across engine, wire path and
//! daemon, driven only through the workspace crates' public functions.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! benchmark --quick
//! benchmark --agree N
//! ```
//!
//! Every (workload, round) is measured in a fresh child process of this
//! same binary; rounds are interleaved across workloads and pooled.
//! README.md has the metric definitions and the reasoning.

#![forbid(unsafe_code)]

mod child;
mod engine;
mod estimate;
mod host;
mod metrics;
mod serve;
mod spans;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use rlb_json::Json;

use child::{ChildArgs, ChildResult};
use engine::Engine;
use metrics::{Bound, END_TO_END, PER_LAYER, WORKLOADS};
use serve::Serve;

/// Seconds of timed windows per workload and run (`run_seconds`).
pub const DEFAULT_SECONDS: u64 = 15;
/// Rounds a run's windows are pooled over, each in a fresh process.
const ROUNDS: u32 = 5;
/// Cold set-up repetitions per round (30 pooled), spread over the run
/// with the rounds so that some fall into undisturbed moments.
const SETUP_REPS: u32 = 6;
/// `--quick`: one round, a short budget, every check on, bounds off.
const QUICK_BUDGET_MS: u64 = 500;
const QUICK_SETUP_REPS: u32 = 2;
/// A set-up shorter than this has the wrong warm-up length.
const MIN_SETUP_S: f64 = 0.020;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    quick: bool,
    agree: Option<u32>,
    child: Option<ChildArgs>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] | --quick | --agree N\n\
         workloads: {}",
        names.join(" ")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        agree: None,
        child: None,
    };
    let (mut round, mut budget_ms, mut setup_reps, mut child_of) = (0, 0, SETUP_REPS, None);
    let mut i = 0;
    let number = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        v.and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{flag} needs a whole number\n{}", usage()))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        i += 2;
        match flag {
            "--workload" | "--child" => {
                let name = value.ok_or_else(|| format!("{flag} needs a name\n{}", usage()))?;
                if !WORKLOADS.iter().any(|w| w.0 == name) {
                    return Err(format!("unknown workload {name:?}\n{}", usage()));
                }
                if flag == "--child" {
                    child_of = Some(name.clone());
                } else {
                    o.workload = Some(name.clone());
                }
            }
            "--seed" => o.seed = number(flag, value)?,
            "--seconds" => o.seconds = number(flag, value)?.max(1),
            "--agree" => o.agree = Some(number(flag, value)?.max(2) as u32),
            "--round" => round = number(flag, value)? as u32,
            "--budget-ms" => budget_ms = number(flag, value)?,
            "--setup-reps" => setup_reps = number(flag, value)? as u32,
            "--trace" => match value.map(String::as_str) {
                Some("0") => o.traced = false,
                Some("1") => o.traced = true,
                _ => {
                    o.traced = true;
                    i -= 1;
                }
            },
            "--quick" => {
                o.quick = true;
                i -= 1;
            }
            _ => return Err(format!("unknown argument {flag:?}\n{}", usage())),
        }
    }
    o.child = child_of.map(|workload| ChildArgs {
        workload,
        seed: o.seed,
        round,
        budget_ms,
        setup_reps,
        traced: o.traced,
    });
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|o| match (&o.child, o.agree) {
        (Some(child), _) => run_child(child),
        (None, Some(n)) => agree(&o, n),
        (None, None) => report(&o),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------

fn run_child(args: &ChildArgs) -> Result<ExitCode, String> {
    let mut result = match (Engine::parse(&args.workload), Serve::parse(&args.workload)) {
        (Some(engine), _) => engine::run(engine, args),
        (_, Some(serve)) => serve::run(serve, args),
        _ => Err(format!("unknown workload {:?}", args.workload)),
    }?;
    if args.traced {
        result
            .layers
            .push(("meanfield.solve_fixpoint_ms".into(), meanfield_ms()));
    }
    println!("{}", rlb_json::to_string(&result));
    Ok(ExitCode::SUCCESS)
}

/// rlb-meanfield sits on no request's path; one informational number:
/// the median of five fixed-point solves at m = 10⁸.
fn meanfield_ms() -> f64 {
    let config = rlb_meanfield::MfConfig::baseline(100_000_000);
    let options = rlb_meanfield::SolveOptions::default();
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(rlb_meanfield::solve_fixpoint(&config, &options));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    estimate::median(&times)
}

// ---------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------

/// One workload's numbers from one run (all rounds pooled).
struct Summary {
    /// The five end-to-end metrics, in `END_TO_END` order.
    end_to_end: [f64; 5],
    attempted: u64,
    failed: u64,
    windows: usize,
    /// Per-layer metrics, median over rounds (traced runs only).
    layers: BTreeMap<String, f64>,
}

struct RunPlan<'a> {
    workloads: Vec<&'a str>,
    seed: u64,
    budget_ms: u64,
    rounds: u32,
    setup_reps: u32,
    traced: bool,
}

fn spawn_child(args: &ChildArgs) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--child", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--round", &args.round.to_string()])
        .args(["--budget-ms", &args.budget_ms.to_string()])
        .args(["--setup-reps", &args.setup_reps.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} round {} failed its checks ({})",
            args.workload, args.round, output.status
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().unwrap_or_default();
    rlb_json::from_str(line).map_err(|e| {
        format!(
            "{} round {}: bad child output: {e}",
            args.workload, args.round
        )
    })
}

/// Runs every (workload, round) of the plan, rounds interleaved across
/// workloads (`A B C … A B C …`), and pools each workload's rounds.
fn run_plan(plan: &RunPlan<'_>) -> Result<BTreeMap<String, Summary>, String> {
    let mut results: BTreeMap<&str, Vec<ChildResult>> = BTreeMap::new();
    for round in 0..plan.rounds {
        for &workload in &plan.workloads {
            let r = spawn_child(&ChildArgs {
                workload: workload.to_string(),
                seed: plan.seed,
                round,
                budget_ms: plan.budget_ms,
                setup_reps: plan.setup_reps,
                traced: plan.traced,
            })?;
            results.entry(workload).or_default().push(r);
        }
    }
    results
        .into_iter()
        .map(|(w, rounds)| Ok((w.to_string(), summarize(w, &rounds)?)))
        .collect()
}

fn summarize(workload: &str, rounds: &[ChildResult]) -> Result<Summary, String> {
    let windows = ChildResult::pooled_windows(rounds);
    let setups: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.setup_ns.iter().map(|&ns| ns as f64 / 1e9))
        .collect();
    let hwm_kb = rounds.iter().map(|r| r.hwm_kb).max().unwrap_or(0);
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    if attempted == 0 {
        return Err(format!("{workload}: no request was attempted"));
    }
    // Every round ran the same seed: on a deterministic workload its
    // simulated-time quality must repeat exactly.
    let first = rounds[0].quality;
    if metrics::is_deterministic(workload) && rounds.iter().any(|r| r.quality != first) {
        let all: Vec<_> = rounds.iter().map(|r| r.quality).collect();
        return Err(format!(
            "{workload}: rounds of one seed disagree on quality: {all:?}"
        ));
    }
    let p99s: Vec<f64> = rounds
        .iter()
        .map(|r| r.quality.p99_latency_steps as f64)
        .collect();

    let mut layers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (name, value) in rounds.iter().flat_map(|r| r.layers.iter()) {
        layers.entry(name.clone()).or_default().push(*value);
    }
    // Over the quality segment, so that it is a function of the seed
    // (on `serve-tcp` the segment is every window).
    let fail_ratio = rounds.iter().map(|r| r.quality.failed).sum::<u64>() as f64
        / rounds
            .iter()
            .map(|r| r.quality.attempted)
            .sum::<u64>()
            .max(1) as f64;
    let p99 = estimate::quantile(&p99s, 0.5).round();
    let mut layers: BTreeMap<String, f64> = layers
        .into_iter()
        .map(|(name, values)| (name, estimate::median(&values)))
        .collect();
    if !layers.is_empty() {
        layers.insert("driver.fail_ratio".into(), fail_ratio);
        layers.insert("driver.p99_latency_steps".into(), p99);
    }
    Ok(Summary {
        end_to_end: [
            1e9 / estimate::floor_ns_per_req(&windows),
            estimate::floor(&setups),
            hwm_kb as f64 / 1024.0,
            fail_ratio,
            p99,
        ],
        attempted,
        failed,
        windows: windows.len(),
        layers,
    })
}

fn stamp(o: &Options, plan: &RunPlan<'_>) -> Json {
    let mut fields = host::stamp();
    // Per workload: (window size, quality windows). The window unit is
    // steps on engine workloads, ticks on pipes, responses on TCP.
    let sizes = |pick: fn((u64, usize)) -> u64| {
        Json::Obj(
            WORKLOADS
                .iter()
                .map(|w| {
                    let size = match (Engine::parse(w.0), Serve::parse(w.0)) {
                        (Some(e), _) => (e.spec().window_steps, e.spec().quality_windows),
                        (_, Some(s)) => (
                            s.spec().window_ticks.max(s.spec().window_responses),
                            s.spec().quality_windows,
                        ),
                        _ => (0, 0),
                    };
                    (w.0.to_string(), Json::UInt(pick(size).into()))
                })
                .collect(),
        )
    };
    fields.extend([
        ("seed".to_string(), Json::UInt(o.seed.into())),
        (
            "seconds_per_workload".into(),
            Json::Float(plan.budget_ms as f64 * f64::from(plan.rounds) / 1e3),
        ),
        ("rounds".into(), Json::UInt(plan.rounds.into())),
        (
            "setup_reps_per_round".into(),
            Json::UInt(plan.setup_reps.into()),
        ),
        (
            "route_sample_every".into(),
            Json::UInt(engine::ROUTE_SAMPLE_EVERY.into()),
        ),
        (
            "floor_rank".into(),
            Json::UInt(estimate::FLOOR_RANK as u128),
        ),
        ("window_size".into(), sizes(|s| s.0)),
        ("quality_windows".into(), sizes(|s| s.1 as u64)),
    ]);
    Json::Obj(fields)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Float(value)),
        ("unit".into(), Json::Str(unit.into())),
    ])
}

/// The result object of one workload: with tracing off the bounded
/// end-to-end metrics, with tracing on every per-layer metric.
fn result_json(s: &Summary, traced: bool) -> Json {
    let metrics: Vec<(String, Json)> = if traced {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                (
                    name.to_string(),
                    metric(s.layers.get(name).copied().unwrap_or(0.0), unit),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(s.end_to_end)
            .filter(|(m, _)| matches!(m.bound, Bound::Share(_)))
            .map(|(m, v)| (m.name.to_string(), metric(v, m.unit)))
            .collect()
    };
    Json::Obj(vec![
        ("correct".into(), Json::Bool(true)),
        ("attempted".into(), Json::UInt(s.attempted.into())),
        ("failed".into(), Json::UInt(s.failed.into())),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// The plain, `--trace` and `--quick` modes: one run, a table for
/// people, and the machine-readable result as the last line.
fn report(o: &Options) -> Result<ExitCode, String> {
    let workloads: Vec<&str> = match &o.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let plan = if o.quick {
        RunPlan {
            workloads,
            seed: o.seed,
            budget_ms: QUICK_BUDGET_MS,
            rounds: 1,
            setup_reps: QUICK_SETUP_REPS,
            traced: o.traced,
        }
    } else {
        RunPlan {
            workloads,
            seed: o.seed,
            budget_ms: o.seconds * 1000 / u64::from(ROUNDS),
            rounds: ROUNDS,
            setup_reps: SETUP_REPS,
            traced: o.traced,
        }
    };
    println!("stamp {}", rlb_json::to_string(&stamp(o, &plan)));
    let summaries = run_plan(&plan)?;
    for w in &plan.workloads {
        let s = &summaries[*w];
        println!(
            "{w}: {} windows, {} requests attempted, {} failed",
            s.windows, s.attempted, s.failed
        );
        // End-to-end numbers are only taken with tracing off: a traced
        // child also holds its spans, and times a third of the budget.
        for (m, v) in END_TO_END.iter().zip(s.end_to_end).filter(|_| !o.traced) {
            println!("  {:<40} {:>16.6} {}", m.name, v, m.unit);
        }
        for &(name, unit, _) in PER_LAYER.iter().filter(|_| o.traced) {
            println!(
                "  {:<40} {:>16.4} {}",
                name,
                s.layers.get(name).copied().unwrap_or(0.0),
                unit
            );
        }
        if !o.traced && s.end_to_end[1] < MIN_SETUP_S {
            eprintln!(
                "benchmark: {w}: setup_s {:.4} is under {MIN_SETUP_S}: its warm-up is too short",
                s.end_to_end[1]
            );
        }
    }
    let last = match &o.workload {
        Some(w) => result_json(&summaries[w.as_str()], o.traced),
        None => Json::Obj(
            plan.workloads
                .iter()
                .map(|w| (w.to_string(), result_json(&summaries[*w], o.traced)))
                .collect(),
        ),
    };
    println!("{}", rlb_json::to_string(&last));
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// --agree
// ---------------------------------------------------------------------

/// Whether two sets' medians of one metric agree within its bound, and
/// the gap as it is judged (relative for shares, absolute otherwise).
fn judge(bound: Bound, deterministic: bool, a: f64, b: f64) -> (f64, bool) {
    match bound {
        Bound::Share(limit) => {
            let gap = if a == 0.0 { 0.0 } else { (b - a).abs() / a };
            (gap, gap <= limit)
        }
        Bound::ExactOr(_) if deterministic => ((b - a).abs(), a == b),
        Bound::ExactOr(limit) => ((b - a).abs(), (b - a).abs() <= limit),
    }
}

/// Two sets of `n` full runs of the same code on the same seeds; prints
/// both sets' medians per workload × metric with the gap against the
/// bound, and exits 1 on a breach.
fn agree(o: &Options, n: u32) -> Result<ExitCode, String> {
    let plan = |seed| RunPlan {
        workloads: WORKLOADS.iter().map(|w| w.0).collect(),
        seed,
        budget_ms: o.seconds * 1000 / u64::from(ROUNDS),
        rounds: ROUNDS,
        setup_reps: SETUP_REPS,
        traced: false,
    };
    // values[set][workload][metric] = one value per run
    let mut values: [BTreeMap<String, Vec<Vec<f64>>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    for set in &mut values {
        for run in 0..n {
            let started = Instant::now();
            for (w, s) in run_plan(&plan(o.seed + u64::from(run)))? {
                let per_metric = set
                    .entry(w)
                    .or_insert_with(|| vec![Vec::new(); END_TO_END.len()]);
                for (slot, v) in per_metric.iter_mut().zip(s.end_to_end) {
                    slot.push(v);
                }
            }
            eprintln!(
                "benchmark: agree run {} took {:.0} s",
                run + 1,
                started.elapsed().as_secs_f64()
            );
        }
    }
    let mut breaches = 0u32;
    let mut rows = Vec::new();
    for (w, _) in WORKLOADS {
        for (i, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[0][w][i], &values[1][w][i]);
            let (ma, mb) = (estimate::median(a), estimate::median(b));
            let (gap, ok) = judge(m.bound, metrics::is_deterministic(w), ma, mb);
            breaches += u32::from(!ok);
            let limit = match m.bound {
                Bound::Share(l) => l,
                Bound::ExactOr(_) if metrics::is_deterministic(w) => 0.0,
                Bound::ExactOr(l) => l,
            };
            println!(
                "{w:<18} {:<18} a={ma:<14.6} b={mb:<14.6} gap={gap:.4} bound={limit} spread_a={:.4} spread_b={:.4} {}",
                m.name,
                estimate::iqr_share(a),
                estimate::iqr_share(b),
                if ok { "ok" } else { "BREACH" }
            );
            rows.push(Json::Obj(vec![
                ("workload".into(), Json::Str(w.into())),
                ("metric".into(), Json::Str(m.name.into())),
                ("unit".into(), Json::Str(m.unit.into())),
                (
                    "better".into(),
                    Json::Str(
                        if m.higher_is_better {
                            "higher"
                        } else {
                            "lower"
                        }
                        .into(),
                    ),
                ),
                ("median_a".into(), Json::Float(ma)),
                ("median_b".into(), Json::Float(mb)),
                ("gap".into(), Json::Float(gap)),
                ("bound".into(), Json::Float(limit)),
                (
                    "relative".into(),
                    Json::Bool(matches!(m.bound, Bound::Share(_))),
                ),
                ("iqr_share_a".into(), Json::Float(estimate::iqr_share(a))),
                ("iqr_share_b".into(), Json::Float(estimate::iqr_share(b))),
                ("ok".into(), Json::Bool(ok)),
            ]));
        }
    }
    let doc = Json::Obj(vec![
        ("stamp".into(), stamp(o, &plan(o.seed))),
        ("runs_per_set".into(), Json::UInt(n.into())),
        ("breaches".into(), Json::UInt(breaches.into())),
        ("rows".into(), Json::Arr(rows)),
    ]);
    println!("{}", rlb_json::to_string_pretty(&doc));
    Ok(if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use child::Quality;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let o = parse(&args("--workload serve-tcp --seed 7 --seconds 9 --trace 1")).unwrap();
        assert_eq!(o.workload.as_deref(), Some("serve-tcp"));
        assert_eq!((o.seed, o.seconds, o.traced), (7, 9, true));
        let o = parse(&args("--trace 0 --seed 3")).unwrap();
        assert!(!o.traced && o.seed == 3 && o.workload.is_none());
        let o = parse(&args("--trace --quick")).unwrap();
        assert!(o.traced && o.quick);
        assert_eq!(parse(&args("--agree 5")).unwrap().agree, Some(5));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed x")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
        let c = parse(&args(
            "--child engine-dcr --seed 2 --round 1 --budget-ms 300 --setup-reps 4 --trace 0",
        ))
        .unwrap()
        .child
        .unwrap();
        assert_eq!(
            (
                c.workload.as_str(),
                c.seed,
                c.round,
                c.budget_ms,
                c.setup_reps
            ),
            ("engine-dcr", 2, 1, 300, 4)
        );
    }

    fn round(windows: Vec<(u64, u64)>, setup_ms: &[u64], quality: Quality) -> ChildResult {
        let windows = windows
            .into_iter()
            .map(|(ns, reqs)| estimate::Window { ns, reqs })
            .collect();
        ChildResult {
            workload: "engine-dense".into(),
            setup_ns: setup_ms.iter().map(|ms| ms * 1_000_000).collect(),
            windows,
            hwm_kb: 2048,
            attempted: 1000,
            failed: 0,
            quality,
            ..ChildResult::default()
        }
    }

    #[test]
    fn rounds_pool_into_one_summary() {
        let q = Quality {
            attempted: 10,
            failed: 0,
            p99_latency_steps: 2,
        };
        let a = round(vec![(1000, 10); 9], &[30, 31], q);
        let mut b = round(vec![(5000, 10)], &[29, 90], q);
        b.hwm_kb = 4096;
        let s = summarize("engine-dense", &[a.clone(), b.clone()]).unwrap();
        assert_eq!(s.windows, 10);
        assert_eq!(s.end_to_end[0], 1e7, "the floor window cost, not the mean");
        assert!(
            (s.end_to_end[1] - 0.029).abs() < 1e-9,
            "the floor of four set-ups"
        );
        assert_eq!(s.end_to_end[2], 4.0, "max VmHWM over children");
        assert_eq!((s.end_to_end[3], s.end_to_end[4]), (0.0, 2.0));
        assert_eq!((s.attempted, s.failed), (2000, 0));

        // A deterministic workload whose rounds disagree is not correct.
        b.quality.p99_latency_steps = 3;
        assert!(summarize("engine-dense", &[a.clone(), b.clone()]).is_err());
        assert!(summarize("serve-tcp", &[a, b]).is_ok());
    }

    #[test]
    fn agreement_is_relative_for_shares_and_exact_for_quality() {
        assert!(judge(Bound::Share(0.10), true, 100.0, 109.0).1);
        assert!(!judge(Bound::Share(0.10), true, 100.0, 111.0).1);
        assert!(!judge(Bound::Share(0.10), true, 100.0, 89.0).1);
        assert!(judge(Bound::ExactOr(1.0), true, 2.0, 2.0).1);
        assert!(!judge(Bound::ExactOr(1.0), true, 2.0, 3.0).1);
        assert!(judge(Bound::ExactOr(1.0), false, 2.0, 3.0).1);
        assert!(!judge(Bound::ExactOr(0.001), false, 0.0, 0.002).1);
    }

    #[test]
    fn contract_output_has_exactly_the_listed_metrics() {
        let s = Summary {
            end_to_end: [1e6, 0.03, 12.5, 0.0, 2.0],
            attempted: 10,
            failed: 0,
            windows: 1,
            layers: BTreeMap::from([("core.run_ns_per_req".to_string(), 42.0)]),
        };
        let plain = result_json(&s, false);
        let names: Vec<&str> = match plain.get("metrics") {
            Some(Json::Obj(f)) => f.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("no metrics"),
        };
        assert_eq!(names, ["req_per_s", "setup_s", "peak_rss_mb"]);
        assert_eq!(plain.get("correct"), Some(&Json::Bool(true)));
        let traced = result_json(&s, true);
        let Some(Json::Obj(fields)) = traced.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(fields.len(), PER_LAYER.len());
        let run = traced
            .get("metrics")
            .and_then(|m| m.get("core.run_ns_per_req"))
            .unwrap();
        assert_eq!(run.get("value").and_then(Json::as_f64), Some(42.0));
        assert_eq!(run.get("unit").and_then(Json::as_str), Some("ns"));
    }
}
