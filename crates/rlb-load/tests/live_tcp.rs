//! Live TCP smoke: a real server on a real socket, driven by the real
//! load generator, with **exact** accounting equality between the two
//! sides — every response frame the clients count must appear in the
//! server's per-tenant summary under the same cause, and vice versa,
//! whether the run ends because the load is served or because the
//! server stops early and turns the rest away.
//!
//! The default run completes 100k requests (the CI smoke contract);
//! set `RLB_SMOKE_REQUESTS` to scale it down for constrained machines.

use rlb_core::policies::Greedy;
use rlb_core::SimConfig;
use rlb_load::{run_live, ClientConfig, LiveClientResult, LiveSpec, LoadReport, Mode, Popularity};
use rlb_pool::Pool;
use rlb_serve::proto::REJECT_CAUSES;
use rlb_serve::{serve_blocking, ServeConfig, ServeOptions, ServeOutcome, ServerCore};

const CLIENTS: usize = 8;
const TENANTS: u16 = 4;

/// One tenant's response frames: id, replies, rejects by cause.
type TenantCounts = (u16, u64, [u64; REJECT_CAUSES.len()]);

/// Parses `tenant {id}: replies={r} rejects={j} {cause}={n}...` lines out
/// of the server's stable summary text.
fn parse_tenant_lines(summary: &str) -> Vec<TenantCounts> {
    let mut out = Vec::new();
    for line in summary.lines() {
        let Some(rest) = line.strip_prefix("tenant ") else {
            continue;
        };
        let (id, rest) = rest.split_once(':').expect("tenant line shape");
        let mut replies = None;
        let mut rejects = None;
        let mut by_cause = [0u64; REJECT_CAUSES.len()];
        for tok in rest.split_whitespace() {
            let (name, n) = tok.split_once('=').expect("name=count field");
            let n: u64 = n.parse().expect("count");
            match name {
                "replies" => replies = Some(n),
                "rejects" => rejects = Some(n),
                cause => {
                    let i = REJECT_CAUSES.iter().position(|c| c.name() == cause);
                    by_cause[i.expect("a reject cause name")] = n;
                }
            }
        }
        assert_eq!(rejects, Some(by_cause.iter().sum()), "{line}");
        out.push((
            id.parse().expect("tenant id"),
            replies.expect("replies field"),
            by_cause,
        ));
    }
    out
}

/// Asserts that the response frames the clients received, summed per
/// tenant, are the server's summary lines, cause by cause.
fn assert_both_sides_agree(outcome: &ServeOutcome, results: &[LiveClientResult]) {
    let client_side: Vec<TenantCounts> = (0..TENANTS)
        .map(|t| {
            let of_tenant = results.iter().map(|r| &r.client);
            let report = LoadReport::from_clients(of_tenant.filter(|c| c.tenant() == t));
            (t, report.replies, report.rejects_by_cause)
        })
        .collect();
    assert_eq!(
        parse_tenant_lines(&outcome.summary),
        client_side,
        "per-tenant accounting diverged\nserver summary:\n{}",
        outcome.summary
    );
}

/// Runs a daemon that stops after `max_requests` responses against 8
/// closed-loop clients offering `per_client` requests each.
fn serve_and_load(
    config: ServeConfig,
    per_client: u64,
    max_requests: u64,
) -> (ServeOutcome, Vec<LiveClientResult>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();

    let server = std::thread::spawn(move || {
        let core = ServerCore::new(config, Greedy::new());
        let opts = ServeOptions {
            max_requests: Some(max_requests),
            ..Default::default()
        };
        let pool = Pool::new(4);
        serve_blocking(listener, core, &opts, &pool).expect("serve")
    });

    let configs: Vec<ClientConfig> = (0..CLIENTS)
        .map(|i| ClientConfig {
            tenant: (i as u16) % TENANTS,
            mode: Mode::Closed { concurrency: 16 },
            popularity: Popularity::Zipf {
                alpha: 1.0,
                universe: 512,
            },
            put_ratio: 0.25,
            total_requests: per_client,
            seed: 0xbeef + i as u64,
        })
        .collect();
    let spec = LiveSpec {
        addr,
        tick_micros: 200,
        max_seconds: 120,
    };
    let pool = Pool::new(CLIENTS);
    let results = run_live(configs, &spec, &pool);
    (server.join().expect("server thread"), results)
}

fn smoke_requests_per_client() -> u64 {
    std::env::var("RLB_SMOKE_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000)
        / CLIENTS as u64
}

#[test]
fn live_tcp_round_trip_accounts_exactly() {
    let per_client = smoke_requests_per_client();
    let total = per_client * CLIENTS as u64;
    let config = ServeConfig::baseline(16, 0xacce55);
    let (outcome, results) = serve_and_load(config, per_client, total);

    // Client side: clean finishes, every request answered.
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.error, None, "client {i} failed");
        assert!(r.client.done(), "client {i} left requests outstanding");
    }
    let report = rlb_load::aggregate(&results);
    assert_eq!(report.sent, total, "generator issued the full run");
    assert_eq!(
        report.replies + report.rejects(),
        total,
        "every request resolved"
    );

    // The two sides agree exactly: response totals...
    assert_eq!(
        outcome.responses, total,
        "server-side response count != generator-side"
    );
    assert_eq!(outcome.sessions, CLIENTS as u64, "one session per client");

    // ...and per-tenant accounting, down to each reject's cause.
    assert_both_sides_agree(&outcome, &results);

    // Latency histogram actually measured something real.
    assert!(report.latency.count() > 0);
    assert!(report.latency.max().unwrap() >= 1, "nonzero wall latency");
}

/// The server stops at half the offered load, with replies still queued:
/// 16 servers at one request a tick face 128 outstanding requests, so the
/// gate (64) turns some away and a reply waits several ticks. Requests
/// that arrive while those drain are answered `Reject{Shutdown}`; the
/// rest of the load finds the connection closed.
/// How many fall on which side is timing — but every frame the server
/// sent is in its summary, tenant by tenant and cause by cause.
#[test]
fn an_early_stop_is_accounted_exactly_too() {
    let per_client = smoke_requests_per_client();
    let total = per_client * CLIENTS as u64;
    let config = ServeConfig::for_engine(SimConfig::explicit(16, 2, 1, 16).with_seed(0xacce55));
    let (outcome, results) = serve_and_load(config, per_client, total / 2);

    assert_both_sides_agree(&outcome, &results);
    let report = rlb_load::aggregate(&results);
    assert!(outcome.responses >= total / 2, "the stop was reached");
    assert_eq!(outcome.responses, report.replies + report.rejects());
}
