//! `rlb-sim`: command-line front end (see `rlb_cli` for the options).

/// Text and exit code of one invocation (0 ok, 1 the run or its gate
/// failed, 2 usage error): `Ok` text is for stdout, `Err` text for
/// stderr after "error: ".
type Outcome = Result<(String, i32), (String, i32)>;

/// A subcommand whose only failure is a usage error.
fn plain(result: Result<String, String>) -> Outcome {
    result.map(|text| (text, 0)).map_err(|e| (e, 2))
}

/// A subcommand that also reports a verdict (gate passed, tree clean,
/// solve converged): a bad verdict still prints, and exits 1.
fn gated(result: Result<(String, bool), String>) -> Outcome {
    result
        .map(|(text, passed)| (text, i32::from(!passed)))
        .map_err(|e| (e, 2))
}

/// A subcommand whose failure names its own exit code (a usage error
/// or a run that could not go on).
fn coded(result: Result<String, (String, i32)>) -> Outcome {
    result.map(|text| (text, 0))
}

/// Runs one subcommand on the arguments after its name.
type Runner = fn(&[String]) -> Outcome;

const SUBCOMMANDS: [(&str, Runner); 6] = [
    ("bench", |args| gated(rlb_cli::run_bench(args))),
    ("lint", |args| gated(rlb_cli::run_lint(args))),
    ("fastforward", |args| gated(rlb_cli::run_fastforward(args))),
    ("trace", |args| plain(rlb_cli::run_trace(args))),
    ("serve", |args| coded(rlb_cli::run_serve(args))),
    ("load", |args| coded(rlb_cli::run_load(args))),
];

/// No subcommand: run the simulation the flags describe.
fn simulate(args: &[String]) -> Outcome {
    let opts =
        rlb_cli::parse_args(args).map_err(|e| (format!("{e}\n(run with --help for usage)"), 2))?;
    let report = rlb_cli::run(&opts).map_err(|e| (e, 1))?;
    Ok(if opts.json {
        (rlb_json::to_string_pretty(&report) + "\n", 0)
    } else {
        (rlb_cli::render_text(&opts, &report), 0)
    })
}

const USAGE: &str = "rlb-sim: simulate a load-balanced distributed KV store\n\n\
     options:\n\
     \x20 --policy NAME     greedy | delayed-cuckoo | one-choice | uniform-random | round-robin | step-isolated\n\
     \x20 --servers M       cluster size (default 1024)\n\
     \x20 --chunks N        chunk universe (default 4*M)\n\
     \x20 --replication D   replicas per chunk (default 2)\n\
     \x20 --rate G          per-server processing rate (default 16)\n\
     \x20 --queue Q         queue capacity (default 16)\n\
     \x20 --steps T         steps (default 200)\n\
     \x20 --seed S          master seed (default 0)\n\
     \x20 --workload SPEC   repeated:K | fresh:K | partial:P,K | zipf:A,K | phased:W,K,T | burst:B,T,LB,LT\n\
     \x20 --flush T         flush every T steps\n\
     \x20 --interleaved     sub-step draining\n\
     \x20 --json            JSON report\n\n\
     subcommands:\n\
     \x20 bench --meanfield [--out PATH]\n\
     \x20                   mean-field solver wall-time plus the solver-vs-engine\n\
     \x20                   speedup gate at m=65536 (100x floor, BENCH_meanfield.json)\n\
     \x20 fastforward [--m M] [--rate G] [--queue Q | --uncapped K]\n\
     \x20             [--lambda X | --per-step N] [--replication D] [--policy NAME]\n\
     \x20             [--mode fixpoint|ode] [--phases L:T,...] [--damping A]\n\
     \x20             [--tolerance T] [--max-iters N] [--euler-dt DT] [--json]\n\
     \x20                   solve the mean-field fluid model instead of simulating\n\
     \x20                   servers: steady state for m up to 10^8 in milliseconds;\n\
     \x20                   exits 1 if the solve did not converge\n\
     \x20 trace [RUN OPTIONS] [--out PATH]\n\
     \x20                   run with the JSONL trace sink, write trace.jsonl, print the\n\
     \x20                   per-class latency summary derived from the persisted trace\n\
     \x20 serve [--listen ADDR] [--sim-clock] [--policy NAME] [--servers M]\n\
     \x20       [--gate L] [--max-requests N] [load flags in --sim-clock]\n\
     \x20                   run the KV serving daemon over TCP; with --sim-clock run the\n\
     \x20                   deterministic virtual-time serve+load co-simulation instead\n\
     \x20                   ([--ticks T] [--transcript]); a live serve or load given a\n\
     \x20                   flag only the other or the co-simulation reads exits 2\n\
     \x20 load [--connect ADDR] [--sim-clock] [--clients C] [--requests N]\n\
     \x20      [--mode open:R|closed:K] [--popularity uniform:U|zipf:A,U|phased:W,K,T,U]\n\
     \x20      [--put-ratio F] [--tenants T] [--tick-micros U] [--max-seconds S]\n\
     \x20      [serve flags in --sim-clock]\n\
     \x20                   drive a running server and report latency/rejection rates;\n\
     \x20                   with --sim-clock run the same co-simulation as serve\n\
     \x20 lint [--root PATH] [--json [PATH]] [--rule NAME]...\n\
     \x20                   run the workspace's static-analysis pass (rlb-lint) over\n\
     \x20                   crates/*/src (per-file rule: lossy-cast; dead-pub,\n\
     \x20                   dead-suppression detection; determinism, and panics and\n\
     \x20                   wrapping arithmetic on the request path, are clippy's,\n\
     \x20                   see clippy.toml and each file's #![deny]);\n\
     \x20                   --json emits a machine-readable report (to stdout, or to\n\
     \x20                   PATH with the text summary kept on stdout); --rule keeps\n\
     \x20                   only findings of the named rule(s), repeatable;\n\
     \x20                   exits nonzero on any unsuppressed finding";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.iter().any(|a| a == "--help" || a == "-h") {
        Ok((format!("{USAGE}\n"), 0))
    } else {
        let subcommand = args
            .first()
            .and_then(|first| SUBCOMMANDS.iter().find(|(name, _)| name == first));
        match subcommand {
            Some((_, run)) => run(&args[1..]),
            None => simulate(&args),
        }
    };
    let code = match outcome {
        Ok((text, code)) => {
            print!("{text}");
            code
        }
        Err((e, code)) => {
            eprintln!("error: {e}");
            code
        }
    };
    std::process::exit(code);
}
