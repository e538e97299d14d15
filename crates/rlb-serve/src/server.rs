//! The live TCP server: one reactor loop, on the calling thread.
//!
//! Threading model:
//!
//! ```text
//!   TcpListener ──accept until WouldBlock──▶ reactor (the caller's thread)
//!   (non-blocking)                                │
//!                                          per-pass fan-out
//!                                                 ▼
//!                                         rlb-pool workers
//!                                     (session I/O: read/decode
//!                                      + encode/write, one lock
//!                                      per session)
//! ```
//!
//! The reactor owns the listener and the [`ServerCore`] and runs a pass
//! loop: accept what the kernel has queued, fan session socket reads
//! out over the pool, feed decoded frames to the core **serially in
//! session order** (this is the only shared-state mutation, so behavior
//! is independent of worker count), tick the engine, fan the response
//! writes back out over the pool, and sleep briefly only when a pass did
//! no work. [`serve_blocking`] spawns nothing: with a one-worker pool
//! (which runs its jobs inline) the daemon is one thread. Shutdown is
//! stop accepting (the listener is dropped, so a later connect is
//! refused), then drain every admitted request to a reply or reject,
//! then flush, then return.

use std::net::TcpListener;
use std::time::Duration;

use rlb_core::Policy;
use rlb_pool::Pool;
use rlb_sync::{Arc, AtomicBool, Mutex, Ordering};

use crate::core::{ServerCore, SessionId};
use crate::proto::{Frame, RejectCause};
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
    // `None` once draining starts: dropping the listener is what
    // refuses a connect made during the drain.
    let mut listener = Some(listener);

    let mut sessions: Vec<Option<Arc<Mutex<TcpSession>>>> = Vec::new();
    let mut accepted: u64 = 0;

    loop {
        let mut worked = false;
        let draining = listener.is_none();

        // 1. Adopt what the kernel has accepted, until `WouldBlock` (or
        //    an accept that failed for one connection: the next pass
        //    retries it).
        while let Some(Ok((stream, _))) = listener.as_ref().map(TcpListener::accept) {
            if let Ok(session) = TcpSession::new(stream) {
                sessions.push(Some(Arc::new(Mutex::new(session))));
                accepted += 1;
                worked = true;
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

        // 7. Shutdown protocol: stop accepting, stop admitting, drain,
        //    flush, exit.
        let stop_requested = opts.shutdown.load(Ordering::Relaxed)
            || opts.max_requests.is_some_and(|n| core.responses() >= n);
        if stop_requested {
            listener = None;
        }
        if listener.is_none() && core.drained() {
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

    Ok(ServeOutcome {
        responses: core.responses(),
        sessions: accepted,
        summary: core.render_summary(),
    })
}
