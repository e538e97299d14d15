//! The `serve` and `load` subcommands: the serving layer's CLI.
//!
//! `rlb-sim serve` binds a TCP listener and runs the live daemon
//! ([`rlb_serve::serve`]); `rlb-sim load` drives a running server over
//! TCP ([`rlb_load::run_live`]). Both accept `--sim-clock`, which runs
//! the *same server core and client state machines* as a virtual-time
//! co-simulation over framed pipes ([`rlb_load::co_simulate`]) — no
//! sockets, no wall clock, byte-identical output for a fixed seed (the
//! property `rlb-load`'s golden test pins).

use crate::flags::{parse_float, parse_positive, unknown, Flags};
use rlb_core::policies::{with_policy, PolicyVisitor};
use rlb_core::{Policy, SimConfig};
use rlb_load::{co_simulate, run_live, Client, ClientConfig, LiveSpec, Mode, Popularity, SimSpec};
use rlb_serve::{serve, ServeConfig, ServeOptions, ServeOutcome, ServerCore};

/// Which subcommand a command line belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `rlb-sim serve`.
    Serve,
    /// `rlb-sim load`.
    Load,
}

/// Flags only the daemon reads when live.
const SERVE_FLAGS: [&str; 9] = [
    "--policy",
    "--servers",
    "--chunks",
    "--replication",
    "--rate",
    "--queue",
    "--listen",
    "--gate",
    "--max-requests",
];
/// Flags only the load generator reads when live.
const LOAD_FLAGS: [&str; 9] = [
    "--connect",
    "--clients",
    "--requests",
    "--mode",
    "--popularity",
    "--put-ratio",
    "--tenants",
    "--tick-micros",
    "--max-seconds",
];
/// Flags only the co-simulation reads.
const SIM_FLAGS: [&str; 2] = ["--ticks", "--transcript"];

/// Parsed options shared by `serve` and `load` (the union: `--sim-clock`
/// runs the co-simulation, which needs both the engine and the load
/// shape; a live mode rejects the flags it would not read).
#[derive(Debug, Clone)]
// return type of `parse_serve_load_args`. lint:allow(dead-pub)
pub struct ServeLoadOptions {
    /// Run the virtual-time co-simulation instead of touching TCP.
    pub sim_clock: bool,
    /// Listen address (`serve`) e.g. `127.0.0.1:7070`.
    pub listen: String,
    /// Connect address (`load`).
    pub connect: String,
    /// Routing policy name (same names as the top-level simulator).
    pub policy: String,
    /// Engine configuration (servers/chunks/replication/rate/queue/seed).
    pub engine: SimConfig,
    /// Admission gate limit; `None` = capacity-scaled default.
    pub gate: Option<u64>,
    /// Live serve: stop after this many responses.
    pub max_requests: Option<u64>,
    /// Number of load clients.
    pub clients: usize,
    /// Requests per client.
    pub requests: u64,
    /// Issuing discipline.
    pub mode: Mode,
    /// Key popularity shape.
    pub popularity: Popularity,
    /// Fraction of requests that are puts.
    pub put_ratio: f64,
    /// Tenants to spread clients over (client `i` runs as `i % tenants`).
    pub tenants: u16,
    /// Master seed (client `i` derives its own stream from it).
    pub seed: u64,
    /// Sim-clock: ticks in the issue window.
    pub ticks: u64,
    /// Sim-clock: include the per-frame transcript in the output.
    pub transcript: bool,
    /// Live load: wall microseconds per open-loop tick.
    pub tick_micros: u64,
    /// Live load: abort after this many wall seconds.
    pub max_seconds: u64,
}

impl Default for ServeLoadOptions {
    fn default() -> Self {
        let servers = 64;
        Self {
            sim_clock: false,
            listen: "127.0.0.1:7070".into(),
            connect: "127.0.0.1:7070".into(),
            policy: "greedy".into(),
            engine: SimConfig::baseline(servers),
            gate: None,
            max_requests: None,
            clients: 4,
            requests: 256,
            mode: Mode::Closed { concurrency: 8 },
            popularity: Popularity::Zipf {
                alpha: 1.1,
                universe: 1024,
            },
            put_ratio: 0.25,
            tenants: 2,
            seed: 0,
            ticks: 64,
            transcript: false,
            tick_micros: 1000,
            max_seconds: 30,
        }
    }
}

/// Parses `open:RATE` / `closed:K`.
fn parse_mode(spec: &str) -> Result<Mode, String> {
    let err = || format!("--mode: expected open:RATE or closed:K, got {spec:?}");
    let (kind, arg) = spec.split_once(':').ok_or_else(err)?;
    match kind {
        "open" => {
            let rate: f64 = arg.parse().map_err(|_| err())?;
            if !(rate.is_finite() && rate > 0.0) {
                return Err(format!("--mode: open rate must be positive, got {arg:?}"));
            }
            Ok(Mode::Open { rate })
        }
        "closed" => {
            let concurrency: u32 = arg.parse().map_err(|_| err())?;
            if concurrency == 0 {
                return Err(format!(
                    "--mode: closed window must be positive, got {arg:?}"
                ));
            }
            Ok(Mode::Closed { concurrency })
        }
        _ => Err(err()),
    }
}

/// Parses `uniform:U` / `zipf:ALPHA,U` / `phased:W,K,T,U`.
fn parse_popularity(spec: &str) -> Result<Popularity, String> {
    let err = || {
        format!("--popularity: expected uniform:U | zipf:ALPHA,U | phased:W,K,T,U, got {spec:?}")
    };
    // Zipf aliases and phased working sets hold keys as u32s.
    let at_most_u32 = |universe: u64| {
        if universe > 1 << 32 {
            Err(format!(
                "--popularity: universe must be at most 2^32 keys, got {spec:?}"
            ))
        } else {
            Ok(())
        }
    };
    let (kind, args) = spec.split_once(':').ok_or_else(err)?;
    let parts: Vec<&str> = args.split(',').collect();
    match (kind, parts.as_slice()) {
        ("uniform", [u]) => Ok(Popularity::Uniform {
            universe: parse_positive("--popularity", u)?,
        }),
        ("zipf", [alpha, u]) => {
            let alpha = parse_float("--popularity", alpha, "finite and >= 0", |a| a >= 0.0)?;
            let universe: usize = parse_positive("--popularity", u)?;
            at_most_u32(universe as u64)?;
            Ok(Popularity::Zipf { alpha, universe })
        }
        ("phased", [w, k, t, u]) => {
            let sets: usize = parse_positive("--popularity", w)?;
            let set_size: usize = parse_positive("--popularity", k)?;
            let ticks_per_phase = parse_positive("--popularity", t)?;
            let universe: u64 = parse_positive("--popularity", u)?;
            at_most_u32(universe)?;
            if sets
                .checked_mul(set_size)
                .is_none_or(|n| n as u64 > universe)
            {
                return Err(format!(
                    "--popularity: W * K must be at most the universe U, got {spec:?}"
                ));
            }
            Ok(Popularity::Phased {
                sets,
                set_size,
                ticks_per_phase,
                universe,
            })
        }
        _ => Err(err()),
    }
}

/// Parses the shared serve/load flag set for `side`'s command line.
/// Without `--sim-clock` each side reads only its own flags (plus
/// `--seed`), so one it would silently drop — the other
/// side's, or the co-simulation's — is an error naming it.
///
/// # Errors
/// Returns a usage-style message on malformed input.
pub fn parse_serve_load_args(side: Side, args: &[String]) -> Result<ServeLoadOptions, String> {
    let mut opts = ServeLoadOptions::default();
    let mut chunks_set = false;
    let (this_side, other_side, foreign) = match side {
        Side::Serve => ("serve", "load", &LOAD_FLAGS),
        Side::Load => ("load", "serve", &SERVE_FLAGS),
    };
    let mut unread: Option<(&str, &str)> = None;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        if foreign.contains(&arg) {
            unread.get_or_insert((arg, other_side));
        } else if SIM_FLAGS.contains(&arg) {
            unread.get_or_insert((arg, "co-simulation"));
        }
        if flags.engine_flag(arg, &mut opts.engine, &mut opts.policy, &mut chunks_set)? {
            continue;
        }
        match arg {
            "--sim-clock" => opts.sim_clock = true,
            "--listen" => opts.listen = flags.value(arg)?.to_string(),
            "--connect" => opts.connect = flags.value(arg)?.to_string(),
            "--gate" => opts.gate = Some(flags.positive(arg)?),
            "--max-requests" => opts.max_requests = Some(flags.positive(arg)?),
            "--clients" => opts.clients = flags.positive(arg)?,
            "--requests" => opts.requests = flags.positive(arg)?,
            "--mode" => opts.mode = parse_mode(flags.value(arg)?)?,
            "--popularity" => opts.popularity = parse_popularity(flags.value(arg)?)?,
            "--put-ratio" => {
                let r: f64 = flags.num(arg)?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("--put-ratio: must be in [0,1], got {r}"));
                }
                opts.put_ratio = r;
            }
            "--tenants" => opts.tenants = flags.positive(arg)?,
            "--ticks" => opts.ticks = flags.positive(arg)?,
            "--transcript" => opts.transcript = true,
            "--tick-micros" => opts.tick_micros = flags.positive(arg)?,
            "--max-seconds" => opts.max_seconds = flags.positive(arg)?,
            other => return Err(unknown("serve/load ", other)),
        }
    }
    if let (false, Some((flag, owner))) = (opts.sim_clock, unread) {
        return Err(format!(
            "{flag}: live `{this_side}` does not read this {owner} flag; it takes effect only with --sim-clock"
        ));
    }
    if !chunks_set {
        opts.engine.num_chunks = 4 * opts.engine.num_servers;
    }
    opts.engine.validate()?;
    opts.seed = opts.engine.seed;
    Ok(opts)
}

impl ServeLoadOptions {
    fn serve_config(&self) -> ServeConfig {
        let default = ServeConfig::for_engine(self.engine.clone());
        ServeConfig {
            gate_limit: self.gate.unwrap_or(default.gate_limit),
            ..default
        }
    }

    /// Builds the client fleet the load side runs (used by both the
    /// sim-clock co-simulation and the live generator).
    fn client_configs(&self) -> Vec<ClientConfig> {
        (0..self.clients)
            .map(|i| ClientConfig {
                tenant: (i as u16) % self.tenants.max(1),
                mode: self.mode.clone(),
                popularity: self.popularity.clone(),
                put_ratio: self.put_ratio,
                total_requests: self.requests,
                seed: self.seed ^ rlb_hash::mix::fmix64(0x10ad ^ i as u64),
            })
            .collect()
    }
}

/// Runs the sim-clock co-simulation and renders its deterministic text.
fn run_sim_clock(opts: &ServeLoadOptions) -> Result<String, String> {
    struct CoSim {
        cfg: ServeConfig,
        clients: Vec<Client>,
        spec: SimSpec,
    }
    impl PolicyVisitor for CoSim {
        type Out = Result<String, String>;
        fn visit<P: Policy>(self, policy: P) -> Self::Out {
            let core = ServerCore::try_new(self.cfg, policy)?;
            Ok(co_simulate(core, self.clients, &self.spec).text)
        }
    }
    let co_sim = CoSim {
        cfg: opts.serve_config(),
        clients: opts.client_configs().into_iter().map(Client::new).collect(),
        spec: SimSpec {
            ticks: opts.ticks,
            transcript: opts.transcript,
        },
    };
    with_policy(&opts.policy, &opts.engine, crate::RNG_SALT, co_sim)?
}

/// Runs the `serve` subcommand. Live mode binds `--listen` and serves
/// until `--max-requests` responses have been sent (without it, until
/// the process is killed); `--sim-clock` runs the co-simulation and
/// prints its deterministic transcript/report instead.
///
/// # Errors
/// Returns a message and the exit code that goes with it: 2 on
/// malformed arguments; 1 on an unbindable listen address, a
/// policy/config mismatch, or per-chunk state the allocator refuses.
pub fn run_serve(args: &[String]) -> Result<String, (String, i32)> {
    let opts = parse_serve_load_args(Side::Serve, args).map_err(|e| (e, 2))?;
    if opts.sim_clock {
        return run_sim_clock(&opts).map_err(|e| (e, 1));
    }
    let listener = std::net::TcpListener::bind(&opts.listen)
        .map_err(|e| (format!("cannot bind {}: {e}", opts.listen), 1))?;
    let addr = listener
        .local_addr()
        .map_err(|e| (format!("local_addr: {e}"), 1))?;
    eprintln!("rlb-serve: listening on {addr} (policy {})", opts.policy);
    let serve_opts = ServeOptions {
        max_requests: opts.max_requests,
        ..Default::default()
    };
    struct Live<'a> {
        cfg: ServeConfig,
        listener: std::net::TcpListener,
        opts: &'a ServeOptions,
    }
    impl PolicyVisitor for Live<'_> {
        type Out = Result<ServeOutcome, String>;
        fn visit<P: Policy>(self, policy: P) -> Self::Out {
            let core = ServerCore::try_new(self.cfg, policy)?;
            serve(self.listener, core, self.opts).map_err(|e| format!("serve: {e}"))
        }
    }
    let live = Live {
        cfg: opts.serve_config(),
        listener,
        opts: &serve_opts,
    };
    let outcome = with_policy(&opts.policy, &opts.engine, crate::RNG_SALT, live)
        .and_then(|served| served)
        .map_err(|e| (e, 1))?;
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "served {} responses over {} sessions",
        outcome.responses, outcome.sessions
    );
    out.push_str(&outcome.summary);
    Ok(out)
}

/// Runs the `load` subcommand. Live mode connects every client to
/// `--connect` and reports wall-clock latency (unit: tens of
/// microseconds); `--sim-clock` runs the co-simulation instead.
///
/// # Errors
/// Returns a message and the exit code that goes with it: 2 on
/// malformed arguments; 1 on a policy/config mismatch or if any client
/// failed to run cleanly (partial results are still reported first).
pub fn run_load(args: &[String]) -> Result<String, (String, i32)> {
    let opts = parse_serve_load_args(Side::Load, args).map_err(|e| (e, 2))?;
    if opts.sim_clock {
        return run_sim_clock(&opts).map_err(|e| (e, 1));
    }
    let spec = LiveSpec {
        addr: opts.connect.clone(),
        tick_micros: opts.tick_micros,
        max_seconds: opts.max_seconds,
    };
    let results = run_live(opts.client_configs(), &spec);
    let report = rlb_load::aggregate(&results);
    let mut out = report.render("10us");
    let mut failed = 0;
    for (i, r) in results.iter().enumerate() {
        if let Some(e) = r.failure() {
            use std::fmt::Write as _;
            let _ = writeln!(out, "client {i}: {e}");
            failed += 1;
        }
    }
    if failed > 0 {
        print!("{out}");
        return Err((format!("{failed} of {} clients failed", results.len()), 1));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    #[test]
    fn defaults_parse() {
        let opts = parse_serve_load_args(Side::Serve, &[]).unwrap();
        assert!(!opts.sim_clock);
        assert_eq!(opts.policy, "greedy");
        assert_eq!(opts.engine.num_servers, 64);
        assert_eq!(opts.engine.num_chunks, 256);
    }

    #[test]
    fn full_flag_set_parses() {
        let opts = parse_serve_load_args(
            Side::Serve,
            &args(
                "--sim-clock --policy dcr --servers 32 --rate 8 --queue 8 --seed 9 \
                 --gate 100 --clients 3 --requests 50 --mode open:1.5 \
                 --popularity phased:4,8,10,512 --put-ratio 0.5 --tenants 3 \
                 --ticks 40 --transcript",
            ),
        )
        .unwrap();
        assert!(opts.sim_clock && opts.transcript);
        assert_eq!(opts.engine.num_chunks, 128, "chunks default to 4m");
        assert_eq!(opts.gate, Some(100));
        assert_eq!(opts.mode, Mode::Open { rate: 1.5 });
        assert_eq!(
            opts.popularity,
            Popularity::Phased {
                sets: 4,
                set_size: 8,
                ticks_per_phase: 10,
                universe: 512
            }
        );
        assert_eq!(opts.seed, 9, "master seed follows the engine seed");
    }

    #[test]
    fn bad_input_is_rejected() {
        for bad in [
            "--bogus",
            "--servers 0",
            "--mode sometimes:3",
            "--mode open:-1",
            "--mode closed:0",
            "--popularity zipf:1.1",
            "--popularity phased:1,2,3",
            "--put-ratio 1.5",
        ] {
            for side in [Side::Serve, Side::Load] {
                let line = format!("--sim-clock {bad}");
                assert!(parse_serve_load_args(side, &args(&line)).is_err(), "{bad}");
            }
        }
        // The bounds are inclusive: W * K = U, and U = 2^32.
        for good in [
            "phased:4,8,1,32",
            "phased:2,3,1,4294967296",
            "zipf:1.1,4294967296",
        ] {
            let line = format!("--sim-clock --popularity {good}");
            assert!(
                parse_serve_load_args(Side::Load, &args(&line)).is_ok(),
                "{good}"
            );
        }
    }

    #[test]
    fn client_fleet_spreads_tenants_and_seeds() {
        let line = args("--clients 4 --tenants 2 --seed 5");
        let mut opts = parse_serve_load_args(Side::Load, &line).unwrap();
        opts.requests = 10;
        let cfgs = opts.client_configs();
        assert_eq!(cfgs.len(), 4);
        assert_eq!(
            cfgs.iter().map(|c| c.tenant).collect::<Vec<_>>(),
            vec![0, 1, 0, 1]
        );
        let mut seeds: Vec<u64> = cfgs.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "every client gets a distinct seed");
    }

    #[test]
    fn sim_clock_serve_runs_all_policies_deterministically() {
        for policy in rlb_core::policies::POLICY_NAMES {
            let line = args(&format!(
                "--sim-clock --policy {policy} --servers 16 --clients 2 \
                 --requests 20 --ticks 16"
            ));
            let a = run_serve(&line).unwrap_or_else(|e| panic!("{policy}: {e:?}"));
            let b = run_serve(&line).unwrap_or_else(|e| panic!("{policy}: {e:?}"));
            assert_eq!(a, b, "{policy}: sim-clock output differs run to run");
            assert!(a.contains("clients: sent="), "{policy}:\n{a}");
            assert!(a.contains("server: replies="), "{policy}:\n{a}");
        }
    }

    #[test]
    fn sim_clock_load_matches_sim_clock_serve() {
        let flags = "--sim-clock --servers 16 --clients 2 --requests 15 --ticks 12";
        let via_serve = run_serve(&args(flags)).unwrap();
        let via_load = run_load(&args(flags)).unwrap();
        assert_eq!(via_serve, via_load, "both subcommands run the same co-sim");
    }

    #[test]
    fn the_default_gate_admits_a_full_window_at_one_request_a_server() {
        // 16 servers at rate 1 gate 64 requests: one closed-loop window
        // of 64 is always admitted, and a smaller gate turns some away.
        let out = run_serve(&args(
            "--sim-clock --servers 16 --rate 1 --queue 16 --mode closed:64 \
             --requests 5000 --ticks 400 --clients 1",
        ))
        .unwrap();
        assert!(out.contains("server: replies=5000 rejects=0 "), "{out}");
    }

    #[test]
    fn dcr_requires_d2() {
        let (err, code) = run_serve(&args("--sim-clock --policy dcr --replication 3")).unwrap_err();
        assert!(err.contains("replication 2"), "{err}");
        assert_eq!(code, 1);
    }
}
