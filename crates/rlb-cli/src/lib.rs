//! Library backing the `rlb-sim` command-line simulator.
//!
//! Everything the binary does — argument parsing, policy dispatch, run
//! execution, report rendering — lives here so it can be unit-tested;
//! `main.rs` is a thin shell.
//!
//! ```text
//! rlb-sim [OPTIONS]
//!
//!   --policy NAME        greedy | delayed-cuckoo | one-choice |
//!                        uniform-random | round-robin | step-isolated
//!                        (default greedy)
//!   --servers M          cluster size (default 1024)
//!   --chunks N           chunk universe (default 4*M)
//!   --replication D      replicas per chunk (default 2)
//!   --rate G             requests processed per server per step (default 16)
//!   --queue Q            queue capacity (default 16)
//!   --steps T            steps to simulate (default 200)
//!   --seed S             master seed (default 0)
//!   --workload SPEC      repeated:K | fresh:K | partial:P,K |
//!                        zipf:ALPHA,K |
//!                        phased:W,K,T | burst:B,T,LB,LT (default repeated:M)
//!   --flush T            flush queues every T steps (default never)
//!   --interleaved        use sub-step (interleaved) draining
//!   --json               emit the full report as JSON
//!
//! rlb-sim bench --meanfield [--out PATH]
//!
//!   Times mean-field steady-state solves across m plus the
//!   solver-vs-engine comparison at m = 65536, writes the results to
//!   PATH (default BENCH_meanfield.json), and exits 1 if the recorded
//!   speedup drops below the committed 100x floor.
//!
//! rlb-sim fastforward [--m M] [--rate G] [--queue Q | --uncapped K]
//!                     [--lambda X | --per-step N] [--replication D]
//!                     [--policy NAME] [--mode fixpoint|ode]
//!                     [--phases L:T,...] [--damping A] [--tolerance T]
//!                     [--max-iters N] [--euler-dt DT] [--json]
//!
//!   Solves the mean-field fluid model instead of simulating servers:
//!   steady-state rejection/latency/backlog for m up to 10^8 in
//!   milliseconds (see `rlb-meanfield`). Exits 1 if the solve did not
//!   converge.
//!
//! rlb-sim trace [RUN OPTIONS] [--out PATH]
//!
//!   Runs the scenario with the JSONL trace sink attached, writes the
//!   event stream to PATH (default trace.jsonl), then re-parses the
//!   persisted file through the aggregator and prints the per-class
//!   latency summary table alongside the usual report.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod aggregate;
mod bench;
pub(crate) mod fastforward;
mod flags;
pub(crate) mod serve_load;

pub use fastforward::{
    parse_fastforward_args, run_fastforward, solve_fastforward, FastForwardOptions,
};
pub use serve_load::{parse_serve_load_args, run_load, run_serve, ServeLoadOptions, Side};

use flags::{unknown, Flags};
use rlb_core::policies::{with_policy, PolicyVisitor};
use rlb_core::trace::{parse_jsonl, JsonlSink};
use rlb_core::{DrainMode, NoopSink, Policy, RunReport, SimConfig, Simulation, TraceSink};
use rlb_workloads::{Trace, WorkloadSpec};

/// Xor-ed into the seed of policies that draw random numbers, for every
/// run and daemon this crate starts (see `with_policy`).
pub(crate) const RNG_SALT: u64 = 0xa7;

/// A fully parsed invocation.
#[derive(Debug, Clone, PartialEq)]
// threaded through `parse_args` -> `run` by callers. lint:allow(dead-pub)
pub struct CliOptions {
    /// Policy name (validated at run time).
    pub policy: String,
    /// Simulation configuration.
    pub config: SimConfig,
    /// Steps to run.
    pub steps: u64,
    /// Workload description.
    pub workload: WorkloadSpec,
    /// Emit JSON instead of the text report.
    pub json: bool,
    /// Write the generated request trace to this file (JSON).
    pub record_trace: Option<String>,
    /// Replay a previously recorded trace instead of generating one.
    pub replay_trace: Option<String>,
}

impl Default for CliOptions {
    fn default() -> Self {
        let m = 1024;
        Self {
            policy: "greedy".into(),
            config: SimConfig {
                num_servers: m,
                num_chunks: 4 * m,
                replication: 2,
                process_rate: 16,
                queue_capacity: 16,
                flush_interval: None,
                drain_mode: DrainMode::EndOfStep,
                seed: 0,
                safety_check_every: Some(1),
            },
            steps: 200,
            workload: WorkloadSpec::Repeated { k: m as u32 },
            json: false,
            record_trace: None,
            replay_trace: None,
        }
    }
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
/// Returns a usage-style message on malformed input.
pub fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    let mut chunks_set = false;
    let mut workload_arg: Option<&str> = None;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        if flags.engine_flag(arg, &mut opts.config, &mut opts.policy, &mut chunks_set)? {
            continue;
        }
        match arg {
            "--config" => {
                let path = flags.value(arg)?;
                let json = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read config {path:?}: {e}"))?;
                opts.config =
                    rlb_json::from_str(&json).map_err(|e| format!("bad config {path:?}: {e}"))?;
                chunks_set = true;
            }
            "--steps" => opts.steps = flags.num(arg)?,
            "--flush" => opts.config.flush_interval = Some(flags.positive(arg)?),
            "--workload" => workload_arg = Some(flags.value(arg)?),
            "--record-trace" => opts.record_trace = Some(flags.value(arg)?.to_string()),
            "--replay-trace" => opts.replay_trace = Some(flags.value(arg)?.to_string()),
            "--interleaved" => opts.config.drain_mode = DrainMode::Interleaved,
            "--json" => opts.json = true,
            other => return Err(unknown("", other)),
        }
    }
    if !chunks_set {
        opts.config.num_chunks = 4 * opts.config.num_servers;
    }
    let default_universe = opts.config.num_chunks as u64;
    opts.workload = match workload_arg {
        Some(s) => WorkloadSpec::parse_cli(s, default_universe)?,
        None => WorkloadSpec::Repeated {
            k: opts.config.num_servers as u32,
        },
    };
    if opts.workload.universe() > opts.config.num_chunks as u64 {
        return Err(format!(
            "workload universe {} exceeds --chunks {}",
            opts.workload.universe(),
            opts.config.num_chunks
        ));
    }
    opts.config.validate()?;
    Ok(opts)
}

/// Runs the described simulation.
///
/// # Errors
/// Returns a message for an unknown policy name, a policy/config
/// mismatch, per-chunk state the allocator refuses, or queues whose
/// ring pool could pass 2³² slots, all caught before the run.
pub fn run(opts: &CliOptions) -> Result<RunReport, String> {
    run_with_sink(opts, NoopSink).map(|(report, _)| report)
}

/// Runs the described simulation with a trace sink attached, returning
/// the report and the sink. `run` is this with [`NoopSink`] (which
/// compiles the emission sites out entirely).
///
/// # Errors
/// As [`run`].
pub fn run_with_sink<S: TraceSink>(opts: &CliOptions, sink: S) -> Result<(RunReport, S), String> {
    let config = &opts.config;
    let steps = opts.steps;
    // Resolve the request source: a recorded trace, or a generator
    // (optionally materialized to a trace so it can be archived).
    let trace: Option<Trace> = match (&opts.replay_trace, &opts.record_trace) {
        (Some(path), _) => {
            let json = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read trace {path:?}: {e}"))?;
            Some(Trace::from_json(&json).map_err(|e| format!("bad trace {path:?}: {e}"))?)
        }
        (None, Some(path)) => {
            let mut generator = opts.workload.build(config.seed ^ 0x5eed);
            let t = Trace::record(generator.as_mut(), steps);
            std::fs::write(path, t.to_json())
                .map_err(|e| format!("cannot write trace {path:?}: {e}"))?;
            Some(t)
        }
        (None, None) => None,
    };
    let mut workload: Box<dyn rlb_core::Workload + '_> = match &trace {
        Some(t) => {
            // Validate the trace against the chunk universe up front.
            for i in 0..t.len() {
                if let Some(&c) = t.step(i).iter().max() {
                    if c as usize >= config.num_chunks {
                        return Err(format!(
                            "trace step {i} references chunk {c} >= --chunks {}",
                            config.num_chunks
                        ));
                    }
                }
            }
            Box::new(t.replayer())
        }
        None => opts.workload.build(config.seed ^ 0x5eed),
    };
    /// Runs the scenario under whichever policy the name stood for.
    struct Drive<'a, S> {
        config: SimConfig,
        sink: S,
        workload: &'a mut dyn rlb_core::Workload,
        steps: u64,
    }
    impl<S: TraceSink> PolicyVisitor for Drive<'_, S> {
        type Out = Result<(RunReport, S), String>;
        fn visit<P: Policy>(self, policy: P) -> Self::Out {
            let mut sim = Simulation::try_new(self.config, policy)?.with_sink(self.sink);
            sim.run(self.workload, self.steps);
            Ok(sim.finish_traced())
        }
    }
    let drive = Drive {
        config: config.clone(),
        sink,
        workload: workload.as_mut(),
        steps,
    };
    with_policy(&opts.policy, config, RNG_SALT, drive)?
}

/// Runs the `trace` subcommand: the scenario described by the usual run
/// options, with the JSONL sink attached. The stream is written to
/// `--out PATH` (default `trace.jsonl`), then the *persisted file* is
/// parsed back and folded through the aggregator — so every invocation
/// exercises the full serialize → persist → parse → aggregate path —
/// and the per-class latency summary is appended to the report text.
///
/// # Errors
/// Returns a message on malformed arguments, an unwritable output path,
/// or a persisted stream that fails to re-parse or disagrees with the
/// engine's own report (both would be bugs, not user errors).
pub fn run_trace(args: &[String]) -> Result<String, String> {
    let mut out_path = "trace.jsonl".to_string();
    let mut run_args: Vec<String> = Vec::new();
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        if arg == "--out" {
            out_path = flags.operand(arg, "a path")?.to_string();
        } else {
            run_args.push(arg.to_string());
        }
    }
    let opts = parse_args(&run_args)?;
    let (report, sink) = run_with_sink(&opts, JsonlSink::new())?;
    std::fs::write(&out_path, sink.as_str())
        .map_err(|e| format!("cannot write {out_path:?}: {e}"))?;

    let persisted = std::fs::read_to_string(&out_path)
        .map_err(|e| format!("cannot re-read {out_path:?}: {e}"))?;
    let events =
        parse_jsonl(&persisted).map_err(|e| format!("persisted trace does not re-parse: {e}"))?;
    let mut agg = aggregate::Aggregator::default();
    for ev in &events {
        agg.ingest(ev);
    }
    if agg.completed() != report.completed || agg.enqueues() != report.accepted {
        return Err(format!(
            "trace disagrees with report: completed {} vs {}, enqueued {} vs {}",
            agg.completed(),
            report.completed,
            agg.enqueues(),
            report.accepted
        ));
    }

    use std::fmt::Write as _;
    let mut out = render_text(&opts, &report);
    out.push_str(&agg.summary_table().render());
    let _ = writeln!(
        out,
        "wrote {} events ({} bytes) to {}",
        events.len(),
        persisted.len(),
        out_path
    );
    Ok(out)
}

/// Renders a run report as the human-readable text block.
pub fn render_text(opts: &CliOptions, report: &RunReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "policy {} | m={} n={} d={} g={} q={} | {} steps | workload {:?}",
        opts.policy,
        opts.config.num_servers,
        opts.config.num_chunks,
        opts.config.replication,
        opts.config.process_rate,
        opts.config.queue_capacity,
        report.steps,
        opts.workload,
    );
    let _ = writeln!(out, "arrived            {}", report.arrived);
    let _ = writeln!(
        out,
        "rejection rate     {:.3e}  (policy {}, table {}, overflow {}, flush {}, down {})",
        report.rejection_rate,
        report.rejected_policy,
        report.rejected_table,
        report.rejected_overflow,
        report.rejected_flush,
        report.rejected_down
    );
    let _ = writeln!(
        out,
        "latency steps      avg {:.3}  p99 {}  max {}",
        report.avg_latency, report.p99_latency, report.max_latency
    );
    let _ = writeln!(
        out,
        "backlog            mean {:.3}  max {}  within-step peak {}",
        report.mean_backlog, report.max_backlog, report.peak_backlog
    );
    let _ = writeln!(
        out,
        "safety (Def 3.2)   {}/{} samples violated  worst ratio {:.3}",
        report.safety_violations, report.safety_samples, report.worst_safety_ratio
    );
    out
}

/// Runs the `lint` subcommand: the workspace's self-hosted static
/// analysis (`rlb-lint`) over every `crates/*/src` file, with
/// `crates/*/{tests,examples}`, the root package's
/// `{src,tests,examples}` and `benchmark/src` as reference material.
/// Its one per-file rule, `lossy-cast`, covers the file list in its
/// catalog row; panics and wrapping arithmetic on the request path are
/// clippy's (each covered file's `#![deny]`). Returns the rendered
/// report and whether the workspace is clean; the binary exits nonzero
/// on any finding.
///
/// Arguments (after the `lint` subcommand): `--root PATH` (default
/// `.`), the workspace root containing `crates/`; `--json [PATH]`
/// renders the machine-readable report — to stdout when no path
/// follows, otherwise to the file at PATH (the human-readable summary
/// stays on stdout); `--rule NAME` (repeatable) keeps only findings of
/// the named rule(s) — the exit status then reflects just those rules.
///
/// # Errors
/// Returns a message on malformed arguments, an unknown `--rule` name
/// (listing the known rules), an unreadable tree, or an unwritable
/// `--json` path (findings are reported in the summary, not as
/// errors).
pub fn run_lint(args: &[String]) -> Result<(String, bool), String> {
    let mut root = ".".to_string();
    let mut json: Option<Option<String>> = None;
    let mut rules: Vec<String> = Vec::new();
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        match arg {
            "--root" => root = flags.operand(arg, "a path")?.to_string(),
            "--json" => json = Some(flags.optional_operand().map(str::to_string)),
            "--rule" => {
                let name = flags.operand(arg, "a rule name")?;
                let known = rlb_lint::rules::all_rule_names();
                if !known.contains(&name) {
                    return Err(format!(
                        "unknown rule {name:?}; known rules: {}",
                        known.join(", ")
                    ));
                }
                rules.push(name.to_string());
            }
            other => return Err(unknown("lint ", other)),
        }
    }
    let mut report = rlb_lint::lint_workspace(std::path::Path::new(&root))?;
    if !rules.is_empty() {
        report
            .findings
            .retain(|f| rules.iter().any(|r| r == f.rule));
    }
    let out = match json {
        Some(Some(path)) => {
            std::fs::write(&path, report.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            report.render()
        }
        Some(None) => report.to_json(),
        None => report.render(),
    };
    Ok((out, report.is_clean()))
}

/// Runs the wall-clock gate behind `rlb-sim bench --meanfield` and
/// writes its results as JSON. Returns a human-readable summary plus
/// whether the gate passed; the binary exits nonzero on a gate failure
/// so CI can run the gate directly.
///
/// Arguments (after the `bench` subcommand): the mode and `--out PATH`
/// (default: the committed `BENCH_meanfield.json`).
///
/// # Errors
/// Returns a message on malformed arguments — a `bench` that names no
/// mode included — or an unwritable output path.
pub fn run_bench(args: &[String]) -> Result<(String, bool), String> {
    let meanfield = args.iter().any(|a| a == "--meanfield");
    let scope = if meanfield {
        "bench --meanfield "
    } else {
        "bench "
    };
    let mut out_path = "BENCH_meanfield.json".to_string();
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        match arg {
            "--meanfield" => {}
            "--out" => out_path = flags.operand(arg, "a path")?.to_string(),
            other => return Err(unknown(scope, other)),
        }
    }
    // With no mode the flags were still read, so a typo is named first.
    if meanfield {
        run_meanfield_bench(out_path)
    } else {
        Err("bench requires a mode: --meanfield".into())
    }
}

/// Runs the mean-field speedup gate (`rlb-sim bench --meanfield`):
/// times steady-state solves across `m` plus the solver-vs-engine
/// comparison at `m = 65536`, writes `BENCH_meanfield.json`, and fails
/// (exit 1) if the recorded speedup drops below the committed 100x
/// floor.
///
/// Arguments: `--out PATH` (default `BENCH_meanfield.json`).
///
/// # Errors
/// Returns a message on an unwritable output path.
fn run_meanfield_bench(out_path: String) -> Result<(String, bool), String> {
    let report = bench::run_gate();
    let json = rlb_json::to_string_pretty(&report);
    std::fs::write(&out_path, &json).map_err(|e| format!("cannot write {out_path:?}: {e}"))?;
    use std::fmt::Write as _;
    let mut summary = String::new();
    for r in &report.results {
        let engine = if r.engine_steps > 0 {
            format!(
                "  engine {:>9.2} ms/{} steps  {:>8.0}x speedup",
                r.engine_nanos as f64 / 1e6,
                r.engine_steps,
                r.speedup
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            summary,
            "{:<20} depth {:>3}  solver {:>8.3} ms ({} iters){engine}",
            r.name,
            r.depth,
            r.solver_nanos as f64 / 1e6,
            r.iterations
        );
    }
    let passed = report.gate_passes();
    let verdict = if passed { "PASS" } else { "FAIL" };
    let _ = writeln!(
        summary,
        "meanfield gate: {:.0}x solver-vs-engine at m={} vs floor {:.0}x -> {verdict}",
        report.speedup,
        bench::SPEEDUP_M,
        report.gate_min_speedup
    );
    let _ = writeln!(summary, "wrote {out_path}");
    Ok((summary, passed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    #[test]
    fn defaults_parse_and_run() {
        let opts = parse_args(&[]).unwrap();
        assert_eq!(opts.policy, "greedy");
        assert_eq!(opts.config.num_servers, 1024);
    }

    #[test]
    fn full_option_set_parses() {
        let opts = parse_args(&args(
            "--policy dcr --servers 128 --replication 2 --rate 16 --queue 8 \
             --steps 50 --seed 7 --workload zipf:0.9,64 --interleaved --json",
        ))
        .unwrap();
        assert_eq!(opts.policy, "dcr");
        assert_eq!(opts.config.num_servers, 128);
        assert_eq!(opts.config.num_chunks, 512, "chunks default to 4m");
        assert_eq!(opts.config.drain_mode, DrainMode::Interleaved);
        assert!(opts.json);
        assert_eq!(
            opts.workload,
            WorkloadSpec::Zipf {
                universe: 512,
                per_step: 64,
                alpha: 0.9
            }
        );
    }

    #[test]
    fn bad_input_is_rejected() {
        assert!(parse_args(&args("--bogus")).is_err());
        assert!(parse_args(&args("--servers")).is_err());
        assert!(parse_args(&args("--servers abc")).is_err());
        assert!(parse_args(&args("--workload nope:1")).is_err());
        // Workload universe larger than the chunk space.
        assert!(parse_args(&args("--servers 8 --chunks 4 --workload repeated:100")).is_err());
    }

    #[test]
    fn numeric_errors_echo_the_offending_value() {
        // Regression: the old parse errors were static strings
        // ("--servers: not a number"), swallowing the input that failed.
        for (flag, bad) in [
            ("--servers", "1O24"),
            ("--chunks", "4k"),
            ("--replication", "two"),
            ("--rate", "16x"),
            ("--queue", "-1"),
            ("--steps", "10e3"),
            ("--seed", "0x2a"),
            ("--flush", "never"),
        ] {
            let err = parse_args(&args(&format!("{flag} {bad}"))).unwrap_err();
            assert!(err.contains(flag), "{flag}: error names the flag: {err}");
            assert!(err.contains(bad), "{flag}: error echoes {bad:?}: {err}");
        }
    }

    #[test]
    fn zero_values_are_rejected_at_parse_time() {
        // Regression: `--servers 0`, `--chunks 0`, and `--queue 0` used
        // to sail through parsing and only die in config validation
        // with a message naming the config field, not the flag typed.
        for flag in [
            "--servers",
            "--chunks",
            "--replication",
            "--rate",
            "--queue",
            "--flush",
        ] {
            let err = parse_args(&args(&format!("{flag} 0"))).unwrap_err();
            assert!(err.contains(flag), "{flag}: error names the flag: {err}");
            assert!(
                err.contains("positive") && err.contains('0'),
                "{flag}: error states the constraint and echoes the value: {err}"
            );
        }
        // Zero is fine where it is meaningful.
        assert!(parse_args(&args("--seed 0")).is_ok());
        assert!(parse_args(&args("--steps 0")).is_ok());
    }

    #[test]
    fn end_to_end_run_all_policies() {
        for policy in rlb_core::policies::POLICY_NAMES {
            let opts = parse_args(&args(&format!(
                "--policy {policy} --servers 64 --steps 20 --workload repeated:64"
            )))
            .unwrap();
            let report = run(&opts).unwrap_or_else(|e| panic!("{policy}: {e}"));
            report.check_conservation().unwrap();
            assert_eq!(report.steps, 20);
            let text = render_text(&opts, &report);
            assert!(text.contains("rejection rate"));
        }
    }

    #[test]
    fn unknown_policy_is_an_error() {
        let mut opts = parse_args(&[]).unwrap();
        opts.policy = "wat".into();
        assert!(run(&opts).is_err());
    }

    #[test]
    fn dcr_requires_d2() {
        let opts =
            parse_args(&args("--policy dcr --servers 32 --replication 3 --steps 5")).unwrap();
        assert!(run(&opts).is_err());
    }

    #[test]
    fn json_report_is_valid() {
        let opts = parse_args(&args("--servers 32 --steps 10")).unwrap();
        let report = run(&opts).unwrap();
        let json = rlb_json::to_string(&report);
        let value = rlb_json::Json::parse(&json).unwrap();
        assert!(value.get("rejection_rate").is_some());
    }

    #[test]
    fn lint_rejects_unknown_rule_names_listing_the_known_ones() {
        // The unknown name is rejected before any filesystem work, and
        // the message lists every valid rule (the binary exits 2 on
        // this Err, same as any malformed option).
        let err = run_lint(&args("--rule no-such-rule")).unwrap_err();
        assert!(err.contains("unknown rule \"no-such-rule\""), "{err}");
        for rule in rlb_lint::rules::all_rule_names() {
            assert!(err.contains(rule), "rule {rule} missing from: {err}");
        }
        assert!(run_lint(&args("--rule")).is_err(), "bare --rule must fail");
    }

    #[test]
    fn lint_rule_filter_keeps_only_the_named_rules() {
        let dir = std::env::temp_dir().join("rlb_cli_lint_rule_test");
        let src_dir = dir.join("crates/seeded/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(
            src_dir.join("lib.rs"),
            "pub fn nobody_calls_this() -> u32 {\n    1\n}\n",
        )
        .unwrap();
        let root = dir.to_str().unwrap().to_string();
        // Unfiltered: the dead-pub finding makes the run dirty.
        let (out, clean) = run_lint(&["--root".to_string(), root.clone()]).unwrap();
        assert!(!clean && out.contains("dead-pub"), "{out}");
        // Filtered to a rule with no findings: clean, nothing listed.
        let (out, clean) = run_lint(&[
            "--root".to_string(),
            root.clone(),
            "--rule".to_string(),
            "lossy-cast".to_string(),
        ])
        .unwrap();
        assert!(clean && !out.contains("dead-pub"), "{out}");
        // Filtered to the firing rule (repeated flag exercises the
        // repeatable path): still dirty.
        let (out, clean) = run_lint(&[
            "--root".to_string(),
            root,
            "--rule".to_string(),
            "lossy-cast".to_string(),
            "--rule".to_string(),
            "dead-pub".to_string(),
        ])
        .unwrap();
        assert!(!clean && out.contains("dead-pub"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;

    #[test]
    fn record_then_replay_reproduces_the_run() {
        let dir = std::env::temp_dir().join("rlb_cli_trace_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("trace.json");
        let path_str = path.to_str().unwrap().to_string();

        let mut rec_opts = parse_args(
            &[
                "--servers",
                "64",
                "--steps",
                "25",
                "--workload",
                "fresh:64",
                "--record-trace",
                &path_str,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        rec_opts.policy = "greedy".into();
        let recorded = run(&rec_opts).unwrap();

        let replay_opts = parse_args(
            &[
                "--servers",
                "64",
                "--steps",
                "25",
                "--replay-trace",
                &path_str,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        let replayed = run(&replay_opts).unwrap();
        assert_eq!(recorded.arrived, replayed.arrived);
        assert_eq!(recorded.accepted, replayed.accepted);
        assert_eq!(recorded.completed, replayed.completed);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_of_missing_file_errors() {
        let mut opts = parse_args(&[]).unwrap();
        opts.replay_trace = Some("/nonexistent/definitely/missing.json".into());
        assert!(run(&opts).is_err());
    }

    #[test]
    fn config_file_is_loaded() {
        let dir = std::env::temp_dir().join("rlb_cli_cfg_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("cfg.json");
        let cfg = rlb_core::SimConfig::baseline(48).with_seed(9);
        std::fs::write(&path, rlb_json::to_string(&cfg)).unwrap();
        let opts = parse_args(
            &["--config", path.to_str().unwrap(), "--steps", "5"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(opts.config.num_servers, 48);
        assert_eq!(opts.config.seed, 9);
        let report = run(&opts).unwrap();
        assert_eq!(report.steps, 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_subcommand_round_trips_through_the_file() {
        let dir = std::env::temp_dir().join("rlb_cli_trace_sub_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("out.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let summary = run_trace(
            &[
                "--policy",
                "dcr",
                "--servers",
                "128",
                "--steps",
                "60",
                "--rate",
                "8",
                "--workload",
                "repeated:128",
                "--out",
                &path_str,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(summary.contains("trace summary"), "{summary}");
        assert!(summary.contains("rejection rate"), "{summary}");
        assert!(summary.contains(&path_str), "{summary}");
        let persisted = std::fs::read_to_string(&path).unwrap();
        let events = parse_jsonl(&persisted).unwrap();
        assert!(!events.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let opts = parse_args(
            &["--servers", "64", "--steps", "30", "--flush", "10"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let untraced = run(&opts).unwrap();
        let (traced, sink) = run_with_sink(&opts, JsonlSink::new()).unwrap();
        assert_eq!(
            rlb_json::to_string(&traced),
            rlb_json::to_string(&untraced),
            "tracing must not perturb the run"
        );
        assert!(sink.lines() > 0);
    }

    #[test]
    fn replay_rejects_out_of_universe_trace() {
        let dir = std::env::temp_dir().join("rlb_cli_trace_test2");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("bad.json");
        let mut t = Trace::new();
        t.push_step(vec![999_999]);
        std::fs::write(&path, t.to_json()).unwrap();
        let mut opts = parse_args(
            &["--servers", "8", "--steps", "2"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        opts.replay_trace = Some(path.to_str().unwrap().to_string());
        assert!(run(&opts).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
