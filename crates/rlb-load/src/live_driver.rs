//! Live TCP load driver.
//!
//! Every client runs at once, as one job of a pool sized to the
//! clients, owning one blocking-connect, non-blocking-read TCP
//! connection (reusing [`TcpSession`]'s framing and write buffering).
//! A pass that moved nothing waits on that one socket through the
//! daemon's own readiness wait ([`TcpSession::wait`]) —
//! until data arrives in a closed loop, in an open one also until the
//! whole milliseconds before the next tick have passed — instead of
//! napping. Within a millisecond of its tick an open loop naps 50 µs at
//! a time, since the wait counts whole milliseconds and rounding up
//! would issue several ticks' arrivals late and together.
//! The [`Client`] state machine is the same one the sim driver uses —
//! here its clock is wall microseconds, so the latency histogram
//! reports real service time. Wall-clock reads are confined to
//! [`WallClock`], the one sanctioned nondeterminism in this crate (a
//! live benchmark measures real time by definition).

use std::net::TcpStream;
use std::time::Duration;

use rlb_pool::Pool;
use rlb_serve::wire::{ReadStatus, TcpSession};

use crate::client::{Client, ClientConfig, Mode};
use crate::report::LoadReport;

/// An open loop's nap when its next tick is due within the wait's 1 ms
/// resolution: a reply that lands meanwhile is read at most this late.
const SUB_MS_NAP: Duration = Duration::from_micros(50);

/// Live run parameters.
#[derive(Debug, Clone)]
pub struct LiveSpec {
    /// Server address, e.g. `127.0.0.1:7070`.
    pub addr: String,
    /// Wall microseconds per open-loop tick (Poisson rates are per
    /// tick, so rate 2.0 with 1000µs ticks targets 2000 req/s).
    pub tick_micros: u64,
    /// Abort the run after this many wall seconds.
    pub max_seconds: u64,
}

/// Outcome of one live client.
pub struct LiveClientResult {
    /// The finished client state machine (counters + latency).
    pub client: Client,
    /// Why the client stopped, `None` for a clean finish.
    pub error: Option<String>,
}

impl LiveClientResult {
    /// The line `rlb-sim load` prints for a failed client: why it
    /// stopped and how many of its requests were still unanswered.
    /// `None` for a clean finish.
    pub fn failure(&self) -> Option<String> {
        let why = self.error.as_ref()?;
        Some(format!("{why} ({} unanswered)", self.client.outstanding()))
    }
}

/// Monotonic microsecond clock for live latency measurement.
struct WallClock {
    start: std::time::Instant,
}

impl WallClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "a live benchmark measures real elapsed time by design; \
                  every deterministic path uses virtual ticks instead"
    )]
    fn start() -> Self {
        Self {
            start: std::time::Instant::now(),
        }
    }

    fn micros(&self) -> u64 {
        self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Tens of microseconds — the unit the client clock runs in, so
    /// the exact dense latency histogram stays compact even for
    /// multi-second outliers.
    fn decimicros(&self) -> u64 {
        self.micros() / 10
    }
}

/// Runs every client against `spec.addr` at once, on a pool with one
/// executor a client, and returns their results in client order.
pub fn run_live(configs: Vec<ClientConfig>, spec: &LiveSpec) -> Vec<LiveClientResult> {
    Pool::new(configs.len()).map(configs, |cfg| run_live_client(cfg.clone(), spec))
}

/// Aggregates live results into the standard report (latency unit:
/// tens of microseconds — see [`WallClock`]).
pub fn aggregate(results: &[LiveClientResult]) -> LoadReport {
    LoadReport::from_clients(results.iter().map(|r| &r.client))
}

fn run_live_client(cfg: ClientConfig, spec: &LiveSpec) -> LiveClientResult {
    let mut client = Client::new(cfg);
    let session = match TcpStream::connect(&spec.addr).and_then(TcpSession::new) {
        Ok(s) => s,
        Err(e) => {
            return LiveClientResult {
                client,
                error: Some(format!("connect {}: {e}", spec.addr)),
            }
        }
    };
    let mut session = session;
    let clock = WallClock::start();
    let deadline = spec.max_seconds.saturating_mul(1_000_000);
    let open_loop = matches!(client.mode(), Mode::Open { .. });
    let mut next_tick_at: u64 = 0;
    let mut error = None;

    loop {
        let now = clock.micros();
        if now >= deadline {
            error = Some(format!("deadline after {}s", spec.max_seconds));
            break;
        }

        // Issue: open loop advances one Poisson tick per tick_micros;
        // closed loop refills its window on every pass.
        let mut frames = Vec::new();
        if open_loop {
            #[expect(clippy::arithmetic_side_effects, reason = "micros fit a u64")]
            while next_tick_at <= now {
                client.on_tick(clock.decimicros(), &mut frames);
                next_tick_at += spec.tick_micros.max(1);
            }
        } else {
            client.on_tick(clock.decimicros(), &mut frames);
        }
        let sent_any = !frames.is_empty();
        for f in &frames {
            session.queue(f);
        }
        if let Err(e) = session.flush() {
            error = Some(format!("write: {e}"));
            break;
        }

        // Receive.
        let (got, decode_err, status) = session.read_frames();
        let received_any = !got.is_empty();
        let recv_at = clock.decimicros();
        for f in &got {
            client.on_frame(recv_at, f);
        }
        if let Some(e) = decode_err {
            error = Some(format!("decode: {e}"));
            break;
        }

        if client.done() {
            break;
        }
        match status {
            ReadStatus::Open => {}
            ReadStatus::Eof => {
                error = Some("server closed the connection".into());
                break;
            }
            ReadStatus::Broken => {
                error = Some("connection broken".into());
                break;
            }
        }
        if !sent_any && !received_any {
            // Nothing moved: wait on the socket for a reply (or room
            // for unsent bytes), never past the deadline. The wait
            // counts whole milliseconds, so an open loop waits only the
            // whole milliseconds left before its next tick, and naps
            // through the last one in `SUB_MS_NAP` steps.
            let until = if open_loop {
                next_tick_at.min(deadline)
            } else {
                deadline
            };
            let left = until.saturating_sub(clock.micros());
            #[expect(clippy::arithmetic_side_effects, reason = "left % 1_000 <= left")]
            let wait = if open_loop { left - left % 1_000 } else { left };
            #[expect(
                clippy::disallowed_methods,
                reason = "poll counts whole milliseconds: a sub-millisecond wait for an open loop's tick is a nap"
            )]
            if wait == 0 {
                std::thread::sleep(SUB_MS_NAP.min(Duration::from_micros(left)));
            } else if let Err(e) = session.wait(Duration::from_micros(wait)) {
                error = Some(format!("wait: {e}"));
                break;
            }
        }
    }

    LiveClientResult { client, error }
}
