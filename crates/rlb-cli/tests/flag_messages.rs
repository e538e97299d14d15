//! The flag cursor's message shapes, read back through every parser
//! that pulls from it: one wording per shape whichever subcommand the
//! flag belongs to. Exact strings, because scripts match on them.

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

type Parser = fn(&[String]) -> Option<String>;
const RUN: Parser = |a| rlb_cli::parse_args(a).err();
const FASTFORWARD: Parser = |a| rlb_cli::parse_fastforward_args(a).err();
const SERVE: Parser = |a| rlb_cli::parse_serve_load_args(rlb_cli::Side::Serve, a).err();
const LOAD: Parser = |a| rlb_cli::parse_serve_load_args(rlb_cli::Side::Load, a).err();
const TRACE: Parser = |a| rlb_cli::run_trace(a).err();
const LINT: Parser = |a| rlb_cli::run_lint(a).err();
const BENCH: Parser = |a| rlb_cli::run_bench(a).err();

#[rustfmt::skip]
const CASES: &[(Parser, &str, &str)] = &[
    // Missing operand.
    (RUN, "--servers", "--servers requires a value"),
    (FASTFORWARD, "--lambda", "--lambda requires a value"),
    (SERVE, "--listen", "--listen requires a value"),
    (TRACE, "--out", "--out requires a path"),
    (LINT, "--rule", "--rule requires a rule name"),
    (BENCH, "--meanfield --out", "--out requires a path"),
    // Not a number.
    (RUN, "--steps 10e3", "--steps: not a number: \"10e3\""),
    (FASTFORWARD, "--damping nope", "--damping: not a number: \"nope\""),
    (LOAD, "--put-ratio x", "--put-ratio: not a number: \"x\""),
    // Zero where a positive count is needed.
    (RUN, "--flush 0", "--flush: must be positive, got \"0\""),
    (FASTFORWARD, "--m 0", "--m: must be positive, got \"0\""),
    (SERVE, "--servers 0", "--servers: must be positive, got \"0\""),
    // Float outside its range (non-finite values included).
    (FASTFORWARD, "--damping 1.5", "--damping: must be in (0, 1], got \"1.5\""),
    (FASTFORWARD, "--damping nan", "--damping: must be in (0, 1], got \"nan\""),
    (FASTFORWARD, "--tolerance inf", "--tolerance: must be positive, got \"inf\""),
    (FASTFORWARD, "--lambda -1", "--lambda: must be finite and >= 0, got \"-1\""),
    // A `--workload` / `--popularity` field outside what the generator
    // behind it asserts: counts are integers, not floats cast to one.
    (RUN, "--workload repeated:-5", "--workload: k must be an integer >= 1, got \"-5\""),
    (RUN, "--workload repeated:3.9", "--workload: k must be an integer >= 1, got \"3.9\""),
    (RUN, "--workload fresh:nan", "--workload: per_step must be an integer >= 1, got \"nan\""),
    (RUN, "--workload fresh:1e30", "--workload: per_step must be an integer >= 1, got \"1e30\""),
    (RUN, "--workload zipf:0.9,-4", "--workload: per_step must be an integer >= 1, got \"-4\""),
    (RUN, "--workload burst:8,4,0,0", "--workload: burst_len must be an integer >= 1, got \"0\""),
    (RUN, "--workload phased:0,4,5", "--workload: sets must be an integer >= 1, got \"0\""),
    (RUN, "--workload partial:2.5,16", "--workload: p must be a number in [0, 1], got \"2.5\""),
    (RUN, "--workload fresh:100 --chunks 64", "--workload: per_step must be at most the universe of 64 chunks, got \"100\""),
    (RUN, "--workload nope:1", "--workload: expected repeated:K | fresh:N | partial:P,N | zipf:ALPHA,N | phased:SETS,K,STEPS | burst:N,TROUGH,LEN,TROUGH_LEN, got \"nope:1\""),
    (SERVE, "--sim-clock --popularity zipf:-3,100", "--popularity: must be finite and >= 0, got \"-3\""),
    (LOAD, "--sim-clock --popularity phased:4294967296,4294967296,1,10", "--popularity: W * K must be at most the universe U, got \"phased:4294967296,4294967296,1,10\""),
    (LOAD, "--sim-clock --popularity phased:4,8,1,31", "--popularity: W * K must be at most the universe U, got \"phased:4,8,1,31\""),
    (LOAD, "--sim-clock --popularity phased:2,3,1,10000000000", "--popularity: universe must be at most 2^32 keys, got \"phased:2,3,1,10000000000\""),
    (SERVE, "--sim-clock --popularity zipf:1.1,4294967297", "--popularity: universe must be at most 2^32 keys, got \"zipf:1.1,4294967297\""),
    // A universe whose chunk ids do not fit the engine's u32, refused
    // before anything is built.
    (RUN, "--chunks 4294967297", "num_chunks must be at most 2^32 (chunk ids are u32), got 4294967297"),
    (SERVE, "--sim-clock --chunks 4294967297", "num_chunks must be at most 2^32 (chunk ids are u32), got 4294967297"),
    // An argument no arm takes.
    (RUN, "--bogus", "unknown option \"--bogus\""),
    (TRACE, "--bogus", "unknown option \"--bogus\""),
    (FASTFORWARD, "--bogus", "unknown fastforward option \"--bogus\""),
    (SERVE, "--bogus", "unknown serve/load option \"--bogus\""),
    (LINT, "--bogus", "unknown lint option \"--bogus\""),
    (BENCH, "--bogus", "unknown bench option \"--bogus\""),
    (BENCH, "--meanfield --quick", "unknown bench --meanfield option \"--quick\""),
    // A flag the live mode would drop: the other side's, or the
    // co-simulation's. (`--seed` belongs to both sides.)
    (SERVE, "--requests 10", "--requests: live `serve` does not read this load flag; it takes effect only with --sim-clock"),
    (SERVE, "--listen 127.0.0.1:0 --mode closed:4", "--mode: live `serve` does not read this load flag; it takes effect only with --sim-clock"),
    (LOAD, "--servers 16 --gate 8", "--servers: live `load` does not read this serve flag; it takes effect only with --sim-clock"),
    (LOAD, "--max-requests 5", "--max-requests: live `load` does not read this serve flag; it takes effect only with --sim-clock"),
    (SERVE, "--ticks 8", "--ticks: live `serve` does not read this co-simulation flag; it takes effect only with --sim-clock"),
    (LOAD, "--seed 3 --transcript", "--transcript: live `load` does not read this co-simulation flag; it takes effect only with --sim-clock"),
    // A flag neither side reads any more: sim-clock is serial, the
    // daemon is one thread and the load generator runs a thread a client.
    (SERVE, "--jobs 2", "unknown serve/load option \"--jobs\""),
    // Rules whose pass is gone: the workspace takes no lock, so no
    // pass orders locks; clippy checks determinism (clippy.toml); wire
    // lengths are capped inside proto.rs's cursor, so no pass taints
    // them; trace events are built inside `TraceSink::emit` alone, so
    // no rule checks their guards; the panic and arithmetic rules cover
    // a list of files, so no root manifest can rot; and those two rules
    // are clippy's now (`indexing_slicing`, `arithmetic_side_effects`
    // and the panic lints, denied file by file).
    (LINT, "--rule lock-order", "unknown rule \"lock-order\"; known rules: lossy-cast, dead-pub, unused-suppression"),
    (LINT, "--rule determinism-flow", "unknown rule \"determinism-flow\"; known rules: lossy-cast, dead-pub, unused-suppression"),
    (LINT, "--rule untrusted-input", "unknown rule \"untrusted-input\"; known rules: lossy-cast, dead-pub, unused-suppression"),
    (LINT, "--rule trace-guard", "unknown rule \"trace-guard\"; known rules: lossy-cast, dead-pub, unused-suppression"),
    (LINT, "--rule lint-roots", "unknown rule \"lint-roots\"; known rules: lossy-cast, dead-pub, unused-suppression"),
    (LINT, "--rule panic-path", "unknown rule \"panic-path\"; known rules: lossy-cast, dead-pub, unused-suppression"),
    (LINT, "--rule unchecked-arith", "unknown rule \"unchecked-arith\"; known rules: lossy-cast, dead-pub, unused-suppression"),
    // A subcommand with nothing selected to run.
    (BENCH, "", "bench requires a mode: --meanfield"),
];

#[test]
fn each_message_shape_has_one_wording() {
    for (parser, line, want) in CASES {
        assert_eq!(parser(&args(line)).as_deref(), Some(*want), "{line}");
    }
}

#[test]
fn engine_flags_mean_the_same_to_run_and_to_serve() {
    let line = args("--policy dcr --servers 32 --rate 4 --queue 8 --seed 9");
    let run = rlb_cli::parse_args(&line).unwrap();
    let serve = rlb_cli::parse_serve_load_args(rlb_cli::Side::Serve, &line).unwrap();
    assert_eq!((run.policy.as_str(), serve.policy.as_str()), ("dcr", "dcr"));
    for config in [&run.config, &serve.engine] {
        assert_eq!((config.num_servers, config.num_chunks), (32, 128));
        assert_eq!((config.process_rate, config.queue_capacity), (4, 8));
        assert_eq!(config.seed, 9);
    }
    // An explicit universe wins over 4 * servers, in either order.
    for line in ["--chunks 64 --servers 32", "--servers 32 --chunks 64"] {
        let serve = |a: &[String]| rlb_cli::parse_serve_load_args(rlb_cli::Side::Serve, a);
        assert_eq!(
            rlb_cli::parse_args(&args(line)).unwrap().config.num_chunks,
            64
        );
        assert_eq!(serve(&args(line)).unwrap().engine.num_chunks, 64);
    }
}

#[test]
fn live_modes_take_their_own_flags_and_sim_clock_takes_both_sides() {
    use rlb_cli::{parse_serve_load_args as parse, Side};
    // The CI daemon smoke's two command lines.
    let serve = "--listen 127.0.0.1:7317 --servers 16 --max-requests 20000";
    let load =
        "--connect 127.0.0.1:7317 --clients 4 --requests 5000 --mode closed:16 --max-seconds 60";
    assert!(parse(Side::Serve, &args(serve)).is_ok());
    assert!(parse(Side::Load, &args(load)).is_ok());
    for side in [Side::Serve, Side::Load] {
        // Under --sim-clock either subcommand runs both sides, wherever
        // the switch sits on the line.
        for line in [
            format!("--sim-clock {serve} {load} --ticks 8 --transcript"),
            format!("{load} --ticks 8 {serve} --sim-clock"),
        ] {
            assert!(parse(side, &args(&line)).is_ok(), "{line}");
        }
    }
}

#[test]
fn lint_json_takes_a_path_only_when_one_follows() {
    let dir = std::env::temp_dir().join("rlb_cli_lint_json_test");
    std::fs::create_dir_all(dir.join("crates/empty/src")).unwrap();
    std::fs::write(dir.join("crates/empty/src/lib.rs"), "fn f() {}\n").unwrap();
    let (root, report) = (dir.to_str().unwrap(), dir.join("report.json"));
    // `--json` then another flag, and `--json` last: JSON on stdout.
    for line in [
        format!("--json --root {root}"),
        format!("--root {root} --json"),
    ] {
        let (out, clean) = rlb_cli::run_lint(&args(&line)).unwrap();
        assert!(clean && out.starts_with('{'), "{line}: {out}");
    }
    // `--json PATH`: JSON in the file, the text summary on stdout.
    let line = format!("--root {root} --json {}", report.display());
    let (out, _) = rlb_cli::run_lint(&args(&line)).unwrap();
    assert!(out.starts_with("rlb-lint: "), "{out}");
    assert!(std::fs::read_to_string(&report).unwrap().starts_with('{'));
    let _ = std::fs::remove_dir_all(&dir);
}
