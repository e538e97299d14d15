//! The live TCP server: accept thread + reactor loop.
//!
//! Threading model (the model-checked part is the hand-off):
//!
//! ```text
//!   accept thread ──insert──▶ SessionRegistry ──drain──▶ reactor thread
//!        │                        (rlb-sync                  │
//!   TcpListener                Mutex + Condvar)         per-pass fan-out
//!   (non-blocking)                                           ▼
//!                                                  rlb-pool workers
//!                                              (session I/O: read/decode
//!                                               + encode/write, one lock
//!                                               per session)
//! ```
//!
//! The reactor owns the [`ServerCore`] and runs a pass loop: drain new
//! sessions, fan session socket reads out over the pool, feed decoded
//! frames to the core **serially in session order** (this is the only
//! shared-state mutation, so behavior is independent of worker count),
//! tick the engine, fan the response writes back out over the pool, and
//! sleep briefly only when a pass did no work. Shutdown closes the
//! registry first (the model-checked protocol in `registry.rs`), then
//! drains every admitted request to a reply or reject before returning.

use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use rlb_core::Policy;
use rlb_pool::Pool;
use rlb_sync::{Arc, AtomicBool, Mutex, Ordering};

use crate::core::{ServerCore, SessionId};
use crate::proto::{Frame, RejectCause};
use crate::registry::SessionRegistry;
use crate::wire::{ReadStatus, TcpSession};

/// Knobs for one serve run.
pub struct ServeOptions {
    /// Stop after this many responses (replies + rejects, not pings)
    /// have been emitted. `None` serves until `shutdown` is raised.
    pub max_requests: Option<u64>,
    /// Cooperative shutdown flag (e.g. raised by a signal handler or a
    /// test harness).
    pub shutdown: Arc<AtomicBool>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            max_requests: None,
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// Final accounting from a serve run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Responses emitted (replies + rejects).
    pub responses: u64,
    /// Sessions accepted over the run's lifetime.
    pub sessions: u64,
    /// The core's stable accounting summary ([`ServerCore::render_summary`]).
    pub summary: String,
}

/// Result of one pool-side session read pass.
struct ReadResult {
    sid: SessionId,
    frames: Vec<Frame>,
    malformed: bool,
    closed: bool,
}

/// Serves `listener` until shutdown, blocking the calling thread.
///
/// # Errors
/// Propagates listener configuration errors; per-session socket errors
/// just drop that session.
pub fn serve_blocking<P: Policy>(
    listener: TcpListener,
    mut core: ServerCore<P>,
    opts: &ServeOptions,
    pool: &Pool,
) -> std::io::Result<ServeOutcome> {
    listener.set_nonblocking(true)?;
    let registry: Arc<SessionRegistry<TcpStream>> = Arc::new(SessionRegistry::new());

    // The accept loop is the one hand-rolled thread in this crate: it
    // blocks on kernel accepts, which no pool job may do (a stalled
    // job would starve the executor). Spawned through rlb_sync so the
    // registry hand-off it drives stays on model-checkable primitives.
    let acceptor = {
        let registry = Arc::clone(&registry);
        // Dedicated accept thread: pool jobs must not block on the
        // kernel, and rlb_sync::thread keeps the spawn on the
        // switchable shim layer. lint:allow(raw-sync)
        rlb_sync::thread::Builder::new()
            .name("rlb-serve-accept".into())
            .spawn(move || accept_loop(&listener, &registry))
            .expect("spawn accept thread")
    };

    let mut sessions: Vec<Option<Arc<Mutex<TcpSession>>>> = Vec::new();
    let mut accepted: u64 = 0;
    let mut draining = false;

    loop {
        let mut worked = false;

        // 1. Adopt newly accepted connections.
        for stream in registry.drain() {
            match TcpSession::new(stream) {
                Ok(session) => {
                    sessions.push(Some(Arc::new(Mutex::new(session))));
                    accepted += 1;
                    worked = true;
                }
                Err(_) => continue,
            }
        }

        // 2. Fan socket reads + frame decode out over the pool.
        let live: Vec<(SessionId, Arc<Mutex<TcpSession>>)> = sessions
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|arc| (i as SessionId, Arc::clone(arc))))
            .collect();
        let reads: Vec<ReadResult> = pool.map(live, |(sid, session)| {
            let mut s = session.lock().expect("session lock");
            let (frames, err, status) = s.read_frames();
            ReadResult {
                sid: *sid,
                frames,
                malformed: err.is_some(),
                closed: status != ReadStatus::Open,
            }
        });

        // 3. Serial core pass, in session order: the single place
        //    shared state mutates, so worker count cannot reorder it.
        //    Responses collect per session, indexed by session id.
        let mut outgoing: Vec<Vec<Frame>> = vec![Vec::new(); sessions.len()];
        let mut dead: Vec<SessionId> = Vec::new();
        for read in reads {
            let to_session = &mut outgoing[read.sid as usize];
            for frame in read.frames {
                worked = true;
                if !draining {
                    to_session.extend(core.on_frame(read.sid, frame));
                } else if let Frame::Get { req_id, tenant, .. }
                | Frame::Put { req_id, tenant, .. } = frame
                {
                    // Past shutdown: every new request is turned away.
                    to_session.push(core.reject(tenant, req_id, RejectCause::Shutdown));
                }
            }
            if read.malformed {
                to_session.push(core.reject(0, 0, RejectCause::Malformed));
                dead.push(read.sid);
            } else if read.closed {
                dead.push(read.sid);
            }
        }

        // 4. Advance the engine one tick and route its responses.
        if !core.drained() {
            worked = true;
            for (sid, frame) in core.tick() {
                outgoing[sid as usize].push(frame);
            }
        }

        // 5. Fan encode + socket writes back out over the pool.
        let writes: Vec<(SessionId, Arc<Mutex<TcpSession>>, Vec<Frame>)> = outgoing
            .into_iter()
            .zip(&sessions)
            .enumerate()
            .filter_map(|(sid, (frames, session))| match session {
                Some(session) if !frames.is_empty() => {
                    Some((sid as SessionId, Arc::clone(session), frames))
                }
                _ => None,
            })
            .collect();
        let failed: Vec<Option<SessionId>> = pool.map(writes, |(sid, session, frames)| {
            let mut s = session.lock().expect("session lock");
            for frame in frames {
                s.queue(frame);
            }
            match s.flush() {
                Ok(_) => None,
                Err(_) => Some(*sid),
            }
        });
        for sid in failed.into_iter().flatten() {
            dead.push(sid);
        }

        // 6. Retire sessions whose peer is gone, once their outbox has
        //    drained (or their socket is already broken).
        for sid in dead {
            let slot = &mut sessions[sid as usize];
            let done = match slot.as_ref() {
                Some(arc) => {
                    let mut s = arc.lock().expect("session lock");
                    s.poisoned() || s.unsent() == 0 || s.flush().is_err()
                }
                None => false,
            };
            if done {
                *slot = None;
            }
        }

        // 7. Shutdown protocol: close the registry, stop admitting,
        //    drain, exit.
        let stop_requested = opts.shutdown.load(Ordering::Relaxed)
            || opts.max_requests.is_some_and(|n| core.responses() >= n);
        if stop_requested && !draining {
            registry.shutdown();
            draining = true;
        }
        if draining && core.drained() {
            let all_flushed = sessions.iter().flatten().all(|arc| {
                let mut s = arc.lock().expect("session lock");
                s.flush().unwrap_or(true)
            });
            if all_flushed {
                break;
            }
        }

        if !worked {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    // Let the acceptor observe the closed registry and exit.
    registry.shutdown();
    let _ = acceptor.join();

    Ok(ServeOutcome {
        responses: core.responses(),
        sessions: accepted,
        summary: core.render_summary(),
    })
}

/// Accept-thread body: poll the non-blocking listener, hand streams to
/// the registry, exit when the registry closes.
fn accept_loop(listener: &TcpListener, registry: &SessionRegistry<TcpStream>) {
    loop {
        if registry.is_closed() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if registry.insert(stream).is_err() {
                    // Closed between the check and the insert: the
                    // stream is returned and dropped (connection reset
                    // for the client, which is what shutdown means).
                    return;
                }
            }
            // Nothing to accept yet (`WouldBlock`) or an accept that
            // failed for one connection: poll again after a pause.
            Err(_) => std::thread::sleep(Duration::from_micros(200)),
        }
    }
}
