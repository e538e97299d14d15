//! Live TCP smoke: a real server on a real socket, driven by the real
//! load generator, with **exact** accounting equality between the two
//! sides — every response frame the clients count must appear in the
//! server's per-tenant summary under the same cause, and vice versa,
//! whether the run ends because the load is served or because the
//! server stops early and turns the rest away.
//!
//! The default run completes 100k requests (the CI smoke contract);
//! set `RLB_SMOKE_REQUESTS` to scale it down for constrained machines.
//!
//! The accept path is pinned here too: the daemon accepts its own
//! connections inside a pass, so a backlog made before the first pass
//! is adopted whole, a stop raised with work in flight closes the
//! listener before anything else, and no accept thread exists.
//!
//! So is the readiness wait every pass opens with: an idle daemon
//! answers on the first byte instead of after a nap, a client that
//! stops sending and reads late still gets every reply its requests
//! earned, because a session with unsent bytes is written to whenever
//! its socket drains, and a retired session leaves the wait, so the
//! daemon outlives more connections than it may hold descriptors. A
//! session's id is never reused, so replies scheduled for a client that
//! hung up are counted but reach no client accepted after it. The load
//! generator's open loop waits the same way and still sends each tick's
//! arrivals when the tick falls due.

#![expect(
    clippy::disallowed_methods,
    reason = "a live run needs real sockets, a server thread, wall-clock deadlines and naps"
)]

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rlb_core::policies::Greedy;
use rlb_core::SimConfig;
use rlb_load::{
    run_live, Client, ClientConfig, LiveClientResult, LiveSpec, LoadReport, Mode, Popularity,
};
use rlb_serve::proto::{MAX_VALUE_LEN, REJECT_CAUSES};
use rlb_serve::{
    serve, Frame, FrameReader, ReadStatus, RejectCause, ServeConfig, ServeOptions, ServeOutcome,
    ServerCore, TcpSession,
};

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

/// Starts a daemon on its own thread, on a fresh loopback port.
fn spawn_daemon(config: ServeConfig, opts: ServeOptions) -> (String, JoinHandle<ServeOutcome>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = std::thread::spawn(move || {
        let core = ServerCore::new(config, Greedy::new());
        serve(listener, core, &opts).expect("serve")
    });
    (addr, server)
}

/// The 8 closed-loop clients every load in this file offers.
fn client_configs(per_client: u64) -> Vec<ClientConfig> {
    (0..CLIENTS)
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
        .collect()
}

/// Runs a daemon that stops after `max_requests` responses against 8
/// closed-loop clients offering `per_client` requests each.
fn serve_and_load(
    config: ServeConfig,
    per_client: u64,
    max_requests: u64,
) -> (ServeOutcome, Vec<LiveClientResult>) {
    let opts = ServeOptions {
        max_requests: Some(max_requests),
        ..Default::default()
    };
    let (addr, server) = spawn_daemon(config, opts);
    let spec = LiveSpec {
        addr,
        tick_micros: 200,
        max_seconds: 120,
    };
    let results = run_live(client_configs(per_client), &spec);
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

    // A client the stop cut off says how many requests it left
    // unanswered, and those are all of the unanswered ones.
    let mut unanswered = 0;
    for r in results.iter().filter(|r| !r.client.done()) {
        let n = r.client.outstanding();
        let line = r.failure().expect("an unfinished client failed");
        assert!(line.ends_with(&format!(" ({n} unanswered)")), "{line}");
        unanswered += n as u64;
    }
    assert_eq!(unanswered, report.sent - outcome.responses);
}

/// Connections made before the daemon's first pass wait in the kernel's
/// backlog; that pass accepts until `WouldBlock`, so all of them are
/// adopted at once. With `shutdown` already raised the first accept
/// sweep is also the last (the listener is dropped at the end of the
/// pass), and the daemon needs no thread but the test's own.
#[test]
fn a_backlog_made_before_the_first_pass_is_adopted_whole() {
    const BACKLOG: usize = 32;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let streams: Vec<TcpStream> = (0..BACKLOG)
        .map(|i| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let get = Frame::Get {
                req_id: 1,
                tenant: i as u16 % TENANTS,
                key: vec![i as u8; 8],
            };
            stream.write_all(&get.to_bytes()).expect("write");
            stream
        })
        .collect();

    let core = ServerCore::new(ServeConfig::baseline(16, 0xacce55), Greedy::new());
    let opts = ServeOptions::default();
    opts.shutdown.store(true, Ordering::Relaxed);
    let outcome = serve(listener, core, &opts).expect("serve");

    assert_eq!(outcome.sessions, BACKLOG as u64, "the whole backlog");
    assert_eq!(outcome.responses, BACKLOG as u64, "one answer each");
    for stream in streams {
        let mut session = TcpSession::new(stream).expect("session");
        let (frames, err, status) = session.read_frames();
        assert_eq!(err, None);
        assert_eq!(status, ReadStatus::Eof, "the daemon returned");
        assert!(
            matches!(
                frames[..],
                [Frame::Reply { req_id: 1, .. } | Frame::Reject { req_id: 1, .. }]
            ),
            "exactly one answer, got {frames:?}"
        );
    }
}

/// A connection attempted once the daemon has stopped accepting is
/// never served: refused, or taken by the kernel and reset, with no
/// frame read either way.
fn assert_never_served(addr: &str) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    let _ = stream.write_all(&Frame::Ping { nonce: 7 }.to_bytes());
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut buf = [0u8; 64];
    match stream.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("a connection made after the stop read {n} bytes"),
    }
}

/// `shutdown` raised with requests outstanding (up to 16 a client) and
/// replies still queued (one request a server a tick, as in the
/// early-stop case): the clients are driven by hand on this thread so
/// the flag goes up at a known point — past a quarter of the load, in
/// an iteration that leaves some request unanswered — and they keep
/// offering load until the daemon hangs up.
/// Every frame it sent is in its summary, and the first sign of the
/// stop a client can see — a `Reject{Shutdown}`, or the hang-up — comes
/// after the listener is gone.
#[test]
fn a_stop_with_work_in_flight_answers_what_it_admitted_and_accepts_no_more() {
    let per_client = smoke_requests_per_client();
    let stop_after = per_client * CLIENTS as u64 / 4;
    let config = ServeConfig::for_engine(SimConfig::explicit(16, 2, 1, 16).with_seed(0xacce55));
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServeOptions {
        max_requests: None,
        shutdown: Arc::clone(&shutdown),
    };
    let (addr, server) = spawn_daemon(config, opts);

    let mut clients: Vec<(Client, TcpSession, bool)> = client_configs(per_client)
        .into_iter()
        .map(|cfg| {
            let stream = TcpStream::connect(&addr).expect("connect");
            let session = TcpSession::new(stream).expect("session");
            (Client::new(cfg), session, true)
        })
        .collect();
    let mut probed = false;
    while clients.iter().any(|(_, _, open)| *open) {
        let mut stop_seen = false;
        let mut idle = true;
        for (client, session, open) in clients.iter_mut().filter(|(_, _, open)| *open) {
            let mut frames = Vec::new();
            client.on_tick(0, &mut frames);
            frames.iter().for_each(|f| session.queue(f));
            let written = session.flush().is_ok();
            let (got, err, status) = session.read_frames();
            assert_eq!(err, None);
            for frame in &got {
                client.on_frame(0, frame);
                stop_seen |= matches!(
                    frame,
                    Frame::Reject {
                        cause: RejectCause::Shutdown,
                        ..
                    }
                );
            }
            idle &= frames.is_empty() && got.is_empty();
            *open = written && status == ReadStatus::Open && !client.done();
            stop_seen |= !*open && !client.done();
        }
        let (sent, responses) = clients.iter().fold((0, 0), |(sent, responses), (c, _, _)| {
            (sent + c.sent(), responses + c.responses())
        });
        if responses >= stop_after && sent > responses {
            shutdown.store(true, Ordering::Relaxed);
        }
        if stop_seen && !probed {
            assert_never_served(&addr);
            probed = true;
        }
        if idle {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    let outcome = server.join().expect("server thread");
    assert!(probed, "a connection was attempted during the drain");

    let results: Vec<LiveClientResult> = clients
        .into_iter()
        .map(|(client, _, _)| LiveClientResult {
            client,
            error: None,
        })
        .collect();
    assert_both_sides_agree(&outcome, &results);
    let report = rlb_load::aggregate(&results);
    assert!(outcome.responses >= stop_after, "the stop was reached");
    assert_eq!(outcome.responses, report.replies + report.rejects());
    assert_eq!(
        outcome.sessions, CLIENTS as u64,
        "the late connection was never adopted"
    );
}

/// The daemon is the thread that called `serve` and nothing else: it
/// spawns no thread at all, and in particular none named like the old
/// acceptor (`comm` is the thread name cut to 15 bytes). Other tests
/// share this process, so the check is by name rather than by count; CI
/// counts the threads of a real `serve` process.
#[cfg(target_os = "linux")]
#[test]
fn a_serving_daemon_has_no_accept_thread() {
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServeOptions {
        max_requests: None,
        shutdown: Arc::clone(&shutdown),
    };
    let (addr, server) = spawn_daemon(ServeConfig::baseline(16, 0xacce55), opts);

    // A ping answered: the daemon is inside its pass loop.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let bytes = Frame::Ping { nonce: 7 }.to_bytes();
    stream.write_all(&bytes).expect("write");
    let mut echo = vec![0u8; bytes.len()];
    stream.read_exact(&mut echo).expect("echo");
    assert_eq!(echo, bytes);

    let names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .collect();
    shutdown.store(true, Ordering::Relaxed);
    let outcome = server.join().expect("server thread");

    assert!(!names.is_empty(), "read some thread names");
    assert!(
        !names.iter().any(|name| name.starts_with("rlb-serve-acc")),
        "an accept thread is running: {names:?}"
    );
    assert_eq!(outcome.sessions, 1);
}

/// A daemon that serves until the returned flag is raised.
fn spawn_until_stopped(config: ServeConfig) -> (String, JoinHandle<ServeOutcome>, Arc<AtomicBool>) {
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServeOptions {
        max_requests: None,
        shutdown: Arc::clone(&shutdown),
    };
    let (addr, server) = spawn_daemon(config, opts);
    (addr, server, shutdown)
}

/// Reads frames off a blocking stream until `n` have arrived, or until
/// a read times out or finds the connection closed; returns what came.
fn read_up_to(stream: &mut TcpStream, reader: &mut FrameReader, n: usize) -> Vec<Frame> {
    let mut got = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    while got.len() < n {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(k) => {
                reader.push(&buf[..k]);
                let (frames, err) = reader.drain();
                assert_eq!(err, None);
                got.extend(frames);
            }
        }
    }
    got
}

/// One connection pipelines far more replies than two socket buffers
/// hold — 3 000 `Get`s of a 4 KiB value, 12 MiB — and only starts
/// reading half a second after its last request. Whatever the daemon
/// could not write meanwhile waits in the session's outbox, and the
/// client sends nothing more to prompt a write: the daemon must flush
/// that outbox because the socket drained, not because new frames
/// came. (Before the readiness wait, a session was flushed only in a
/// pass that produced frames for it, and about 940 replies arrived.)
#[test]
fn a_slow_reader_gets_every_reply_once_it_reads() {
    const GETS: u32 = 3_000;
    let config = ServeConfig {
        gate_limit: 1 << 20,
        ..ServeConfig::baseline(16, 0xacce55)
    };
    let (addr, server, shutdown) = spawn_until_stopped(config);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    let mut reader = FrameReader::new();
    let key = b"slow-reader".to_vec();

    let put = Frame::Put {
        req_id: 1,
        tenant: 0,
        key: key.clone(),
        value: vec![7; MAX_VALUE_LEN],
    };
    stream.write_all(&put.to_bytes()).expect("write put");
    let stored = read_up_to(&mut stream, &mut reader, 1);
    assert!(
        matches!(stored[..], [Frame::Reply { req_id: 1, .. }]),
        "{stored:?}"
    );

    let mut gets = Vec::new();
    for req_id in 2..GETS + 2 {
        let get = Frame::Get {
            req_id,
            tenant: 0,
            key: key.clone(),
        };
        get.encode(&mut gets);
    }
    stream.write_all(&gets).expect("write gets");
    std::thread::sleep(Duration::from_millis(500));
    let replies = read_up_to(&mut stream, &mut reader, GETS as usize);
    assert_eq!(
        replies.len(),
        GETS as usize,
        "replies stranded in the outbox"
    );
    for (frame, want) in replies.iter().zip(2..) {
        assert!(
            matches!(frame, Frame::Reply { req_id, value, .. }
                if *req_id == want && value.len() == MAX_VALUE_LEN),
            "reply {want}: {frame:?}"
        );
    }

    shutdown.store(true, Ordering::Relaxed);
    let outcome = server.join().expect("server thread");
    assert_eq!(outcome.responses, u64::from(GETS) + 1);
}

/// An idle daemon answers the first byte it is sent, not the first
/// byte after a nap: 400 sequential pings, each sent once the daemon
/// has gone idle after the last, must read a median round trip under
/// 150 µs. On two CPUs the daemon that slept 200 µs after an idle pass
/// read a median of 273–280 µs here, the waiting one 20–22 µs. A
/// one-CPU run (`taskset -c 0`) cannot tell the two apart — 16 µs and
/// 8–9 µs: there the daemon's next pass runs only once the client
/// blocks on its read, by which time the next ping is already in the
/// socket, so it never naps with one waiting — and this test passes
/// either way.
#[test]
fn an_idle_daemon_answers_on_the_first_byte() {
    const PINGS: usize = 400;
    let (addr, server, shutdown) = spawn_until_stopped(ServeConfig::baseline(16, 0xacce55));
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut rtts = Vec::with_capacity(PINGS);
    for nonce in 0..PINGS as u64 {
        let bytes = Frame::Ping { nonce }.to_bytes();
        let mut echo = vec![0u8; bytes.len()];
        let sent = Instant::now();
        stream.write_all(&bytes).expect("write");
        stream.read_exact(&mut echo).expect("echo");
        rtts.push(sent.elapsed());
        assert_eq!(echo, bytes);
    }
    shutdown.store(true, Ordering::Relaxed);
    server.join().expect("server thread");

    rtts.sort();
    let p50 = rtts[PINGS / 2];
    assert!(
        p50 < Duration::from_micros(150),
        "median ping round trip {p50:?} (p10 {:?}, p90 {:?})",
        rtts[PINGS / 10],
        rtts[PINGS * 9 / 10]
    );
}

/// More connections than this process may hold descriptors, bounded so
/// the test stays a few seconds long and within the ephemeral ports.
const MAX_SEQUENTIAL_CONNECTIONS: u64 = 25_000;

/// The soft `RLIMIT_NOFILE`, read from `/proc/self/limits`.
#[cfg(target_os = "linux")]
fn soft_descriptor_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    let soft = line
        .strip_prefix("Max open files")?
        .split_whitespace()
        .next()?;
    soft.parse().ok()
}

/// A retired session must not cost the daemon a descriptor's worth of
/// anything: `poll` fails once asked for more entries than the process
/// may have descriptors, so a wait that kept an entry per slot ever
/// used would end the daemon after that many short connections, even
/// with one open at a time. Here the connections come and go one by
/// one — a ping answered on each, then closed — past the soft limit,
/// and a fresh connection must still be answered. (A daemon that polled
/// every slot failed its wait with `EINVAL` at the 20 000-descriptor
/// limit it was run under, and reset the connection in flight. When the limit is
/// above `MAX_SEQUENTIAL_CONNECTIONS` the test makes that many and says
/// so; CI runs the suite under `ulimit -Sn 1024` once.)
#[cfg(target_os = "linux")]
#[test]
fn a_daemon_outlives_more_connections_than_it_may_hold_descriptors() {
    let limit = soft_descriptor_limit().expect("soft descriptor limit");
    let connections = (limit + 16).min(MAX_SEQUENTIAL_CONNECTIONS);
    if connections <= limit {
        eprintln!("soft descriptor limit {limit}: made only {connections} connections");
    }
    let (addr, server, shutdown) = spawn_until_stopped(ServeConfig::baseline(16, 0xacce55));
    let ping = |nonce: u64| {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let bytes = Frame::Ping { nonce }.to_bytes();
        let mut echo = vec![0u8; bytes.len()];
        stream.write_all(&bytes).expect("write");
        stream.read_exact(&mut echo).expect("echo");
        assert_eq!(echo, bytes, "connection {nonce}");
    };
    for nonce in 0..=connections {
        ping(nonce);
    }
    shutdown.store(true, Ordering::Relaxed);
    let outcome = server.join().expect("server thread");
    assert_eq!(outcome.sessions, connections + 1);
}

/// A client that hangs up with replies still scheduled leaves them to a
/// session that is gone: the core answers and counts them all the same,
/// and the daemon drops them rather than hand them to whichever session
/// it accepts next. At one request a server a tick, 64 `Get`s over 16
/// servers wait several ticks for their replies; the first client of
/// each round pipelines them (tenant 0, `req_id`s from `0x4000_0000`)
/// and closes at once, and a second client connects straight after and
/// runs a closed loop of its own (tenant 1, `req_id`s from 1). Every
/// frame the second client reads must answer one of its own requests,
/// and the server's ledger must hold an answer to every request the
/// first client sent — one reply or reject each — beside exactly what
/// the second clients counted.
#[test]
fn replies_for_a_client_that_hung_up_reach_no_later_client() {
    const ROUNDS: u32 = 20;
    const ORPHANS: u32 = 64;
    let config = ServeConfig::for_engine(SimConfig::explicit(16, 2, 1, 16).with_seed(0xacce55));
    let (addr, server, shutdown) = spawn_until_stopped(config);

    let mut later = Vec::new();
    for round in 0..ROUNDS {
        let mut gets = Vec::new();
        for i in 0..ORPHANS {
            let get = Frame::Get {
                req_id: 0x4000_0000 + i,
                tenant: 0,
                key: (round * ORPHANS + i).to_le_bytes().to_vec(),
            };
            get.encode(&mut gets);
        }
        let mut gone = TcpStream::connect(&addr).expect("connect");
        gone.write_all(&gets).expect("write");
        drop(gone);

        let mut client = Client::new(ClientConfig {
            tenant: 1,
            mode: Mode::Closed { concurrency: 16 },
            popularity: Popularity::Uniform { universe: 64 },
            put_ratio: 0.0,
            total_requests: 32,
            seed: u64::from(round),
        });
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut session = TcpSession::new(stream).expect("session");
        while !client.done() {
            let mut frames = Vec::new();
            client.on_tick(0, &mut frames);
            frames.iter().for_each(|f| session.queue(f));
            session.flush().expect("write");
            let (got, err, status) = session.read_frames();
            assert_eq!((err, status), (None, ReadStatus::Open), "round {round}");
            for frame in &got {
                assert!(
                    client.on_frame(0, frame),
                    "round {round}: a frame answering none of this client's requests: {frame:?}"
                );
            }
            if frames.is_empty() && got.is_empty() {
                session.wait(Duration::from_millis(1)).expect("wait");
            }
        }
        later.push(LiveClientResult {
            client,
            error: None,
        });
    }
    shutdown.store(true, Ordering::Relaxed);
    let outcome = server.join().expect("server thread");

    let lines = parse_tenant_lines(&outcome.summary);
    let (orphaned, counted) = lines.split_first().expect("tenant lines");
    assert_eq!(
        (orphaned.0, orphaned.1 + orphaned.2.iter().sum::<u64>()),
        (0, u64::from(ROUNDS * ORPHANS)),
        "every orphaned request answered and counted\n{}",
        outcome.summary
    );
    let b = rlb_load::aggregate(&later);
    assert_eq!(counted, [(1, b.replies, b.rejects_by_cause)]);
    assert_eq!(outcome.sessions, 2 * u64::from(ROUNDS));
}

/// An open loop issues each tick's arrivals when the tick falls due,
/// not in a burst up to a millisecond later: the wait counts whole
/// milliseconds, so within one of the next tick the client naps in
/// 50 µs steps instead. One client offers 2 000 requests at 0.5 a
/// 200 µs tick to a server on this thread that answers each at once and
/// stamps when it arrived. Replaying the same client's arrivals tick by
/// tick gives when each was due; after removing the best-case offset,
/// the median request must arrive under 250 µs behind schedule, and
/// every one of them must arrive. (A client that rounded its wait up to
/// the next millisecond read a median of 515 µs here, p90 973 µs; this
/// one reads 55–72 µs, p90 64–95 µs, on two CPUs and on one.)
#[test]
fn an_open_loop_issues_each_tick_when_it_falls_due() {
    const TICK_MICROS: u64 = 200;
    const REQUESTS: u64 = 2_000;
    let cfg = ClientConfig {
        tenant: 0,
        mode: Mode::Open { rate: 0.5 },
        popularity: Popularity::Uniform { universe: 16 },
        put_ratio: 0.0,
        total_requests: REQUESTS,
        seed: 0x0be7,
    };

    // Which tick each request is due in, in the order they are sent.
    let mut model = Client::new(cfg.clone());
    let mut due_tick = Vec::new();
    for tick in 0.. {
        let mut frames = Vec::new();
        model.on_tick(0, &mut frames);
        due_tick.extend(frames.iter().map(|_| tick));
        if model.sent() == REQUESTS {
            break;
        }
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let recorder = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = FrameReader::new();
        let mut arrived = Vec::new();
        let mut buf = vec![0u8; 64 * 1024];
        while let Ok(n @ 1..) = stream.read(&mut buf) {
            let at = Instant::now();
            reader.push(&buf[..n]);
            let (frames, err) = reader.drain();
            assert_eq!(err, None);
            let mut replies = Vec::new();
            for frame in frames {
                if let Frame::Get { req_id, .. } | Frame::Put { req_id, .. } = frame {
                    arrived.push(at);
                    let reply = Frame::Reply {
                        req_id,
                        latency: 0,
                        value: Vec::new(),
                    };
                    reply.encode(&mut replies);
                }
            }
            stream.write_all(&replies).expect("reply");
        }
        arrived
    });
    let spec = LiveSpec {
        addr,
        tick_micros: TICK_MICROS,
        max_seconds: 30,
    };
    let results = run_live(vec![cfg], &spec);
    assert_eq!(results[0].error, None);
    assert_eq!(results[0].client.sent(), REQUESTS);
    drop(results);
    let arrived = recorder.join().expect("recorder thread");
    assert_eq!(arrived.len(), due_tick.len(), "every request arrived");

    // Arrival minus due time, both from the first request's, in µs.
    let behind: Vec<i64> = arrived
        .iter()
        .zip(&due_tick)
        .map(|(at, tick)| {
            let since_first = at.duration_since(arrived[0]).as_micros() as i64;
            since_first - ((tick - due_tick[0]) * TICK_MICROS) as i64
        })
        .collect();
    let best = *behind.iter().min().expect("arrivals");
    let mut late: Vec<i64> = behind.iter().map(|b| b - best).collect();
    late.sort_unstable();
    let p50 = late[late.len() / 2];
    assert!(
        p50 < 250,
        "median arrival {p50} µs behind its tick (p90 {} µs, max {} µs)",
        late[late.len() * 9 / 10],
        late[late.len() - 1]
    );
}
