//! The live TCP server: one reactor loop, on the calling thread.
//!
//! Threading model:
//!
//! ```text
//!   TcpListener ──┐
//!   sessions ─────┴─▶ wait_ready (one poll(2)) ──▶ reactor (the caller's thread)
//!                                                       │
//!                                                per-pass fan-out
//!                                                       ▼
//!                                               rlb-pool workers
//!                                           (session I/O: read/decode
//!                                            + encode/write, one lock
//!                                            per session)
//! ```
//!
//! The reactor owns the listener and the [`ServerCore`] and runs a pass
//! loop. Every pass opens with one readiness wait (`wait_ready`) over
//! the listener and every live session — each asks for input, and for
//! output while its outbox holds unsent bytes; a retired session has no
//! entry — that does not block at all after a pass that did work and
//! blocks at most `IDLE_WAIT` (1 ms, `poll`'s smallest non-zero
//! timeout) after one that did not: a busy daemon never naps, an idle
//! one wakes on the first byte, and a drained one reads `shutdown` at
//! least once a millisecond. The pass then follows what the wait
//! found: accept only if the listener is readable (after a failed
//! accept — out of descriptors, say — the next wait leaves the
//! listener out and the pass after it accepts regardless, so an idle
//! daemon out of descriptors retries once a millisecond instead of
//! spinning), fan socket reads out over the pool for the sessions
//! found readable (and any accepted in this pass), feed decoded frames
//! to the core **serially in session order** (this is the only shared-state
//! mutation, so behavior is independent of worker count), tick the
//! engine, and fan the response writes back out over the pool — to
//! every session with new frames *or* unsent bytes, so a reader that
//! fell behind is written to whenever its socket drains, whether or not
//! it sends again. [`serve_blocking`] spawns nothing: with a one-worker
//! pool (which runs its jobs inline) the daemon is one thread.
//! Shutdown is stop accepting (the listener is dropped, so a later
//! connect is refused), then drain every admitted request to a reply
//! or reject, then flush, then return.

use std::io::ErrorKind;
use std::net::TcpListener;
use std::time::Duration;

use rlb_core::Policy;
use rlb_pool::Pool;
use rlb_sync::{Arc, AtomicBool, Mutex, Ordering};

use crate::core::{ServerCore, SessionId};
use crate::proto::{Frame, RejectCause};
use crate::wire::{wait_ready, ReadStatus, Readiness, TcpSession};

/// The longest a pass that found nothing to do lets the next wait
/// block: `poll`'s smallest non-zero timeout, and so the longest a
/// drained daemon goes without reading its shutdown flag.
const IDLE_WAIT: Duration = Duration::from_millis(1);

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
/// Propagates listener configuration errors and a failed readiness
/// wait; per-session socket errors just drop that session.
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

    // Indexed by session id; a retired session's slot stays `None`, so
    // an id is never reused.
    let mut sessions: Vec<Option<Arc<Mutex<TcpSession>>>> = Vec::new();
    let mut accepted: u64 = 0;
    // The wait's entries: one a live session, whose id is `polled`'s
    // entry at the same index, then the listener's while it is open and
    // its last accept did not fail. Retired slots are left out: `poll`
    // fails once asked for more entries than the process may have
    // descriptors, and the slots only grow.
    let mut ready: Vec<Readiness> = Vec::new();
    let mut polled: Vec<SessionId> = Vec::new();
    let mut idle = false;
    // Set when an accept failed (e.g. out of descriptors): the listener
    // stays readable, so the next wait leaves it out — or an idle
    // daemon would spin on it — and the pass after it accepts blind.
    let mut accept_failed = false;

    loop {
        // 0. Wait until a socket is ready: not at all after a pass that
        //    did work, at most `IDLE_WAIT` after one that did not.
        ready.clear();
        polled.clear();
        for (sid, session) in sessions.iter().enumerate() {
            if let Some(session) = session {
                ready.push(session.lock().expect("session lock").readiness());
                polled.push(sid as SessionId);
            }
        }
        let listener_entry = listener
            .as_ref()
            .filter(|_| !accept_failed)
            .map(Readiness::listener);
        ready.extend(listener_entry);
        wait_ready(&mut ready, if idle { IDLE_WAIT } else { Duration::ZERO })?;
        let incoming = match listener_entry {
            Some(_) => ready.pop().is_some_and(|l| l.readable()),
            None => listener.is_some(),
        };
        let mut worked = false;
        let draining = listener.is_none();

        // 1. Adopt what the kernel has accepted, until `WouldBlock` or
        //    an accept fails.
        let first_new = sessions.len();
        accept_failed = false;
        while let Some(accept) = listener
            .as_ref()
            .filter(|_| incoming && !accept_failed)
            .map(TcpListener::accept)
        {
            match accept {
                Ok((stream, _)) => {
                    if let Ok(session) = TcpSession::new(stream) {
                        sessions.push(Some(Arc::new(Mutex::new(session))));
                        accepted += 1;
                        worked = true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => accept_failed = true,
            }
        }

        // 2. Fan socket reads + frame decode out over the pool: the
        //    sessions the wait found readable, and those accepted in
        //    this pass, which it has not seen.
        let readable = polled
            .iter()
            .zip(&ready)
            .filter(|(_, entry)| entry.readable())
            .map(|(sid, _)| *sid as usize);
        let live: Vec<(SessionId, Arc<Mutex<TcpSession>>)> = readable
            .chain(first_new..sessions.len())
            .filter_map(|i| {
                sessions[i]
                    .as_ref()
                    .map(|arc| (i as SessionId, Arc::clone(arc)))
            })
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
        //    Responses collect per session, indexed by session id;
        //    `due` marks the sessions step 5 visits with or without new
        //    frames — those that owe bytes, and those whose peer closed
        //    (to be retired once nothing is left to send; a malformed
        //    stream always has its reject to send).
        let mut outgoing: Vec<Vec<Frame>> = vec![Vec::new(); sessions.len()];
        let mut due: Vec<bool> = vec![false; sessions.len()];
        for (sid, entry) in polled.iter().zip(&ready) {
            due[*sid as usize] = entry.wants_write();
        }
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
            }
            due[read.sid as usize] |= read.closed;
        }

        // 4. Advance the engine one tick and route its responses.
        if !core.drained() {
            worked = true;
            for (sid, frame) in core.tick() {
                outgoing[sid as usize].push(frame);
            }
        }

        // 5. Fan encode + socket writes back out over the pool, and say
        //    which sessions are over: a write failed, or their input
        //    ended and their outbox is flushed.
        let writes: Vec<(SessionId, Arc<Mutex<TcpSession>>, Vec<Frame>)> = outgoing
            .into_iter()
            .zip(due)
            .zip(&sessions)
            .enumerate()
            .filter_map(|(sid, ((frames, due), session))| match session {
                Some(session) if due || !frames.is_empty() => {
                    Some((sid as SessionId, Arc::clone(session), frames))
                }
                _ => None,
            })
            .collect();
        let over: Vec<Option<SessionId>> = pool.map(writes, |(sid, session, frames)| {
            let mut s = session.lock().expect("session lock");
            for frame in frames {
                s.queue(frame);
            }
            let over = match s.flush() {
                Ok(flushed) => s.finished(flushed),
                Err(_) => true,
            };
            over.then_some(*sid)
        });

        // 6. Retire them.
        for sid in over.into_iter().flatten() {
            sessions[sid as usize] = None;
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

        idle = !worked;
    }

    Ok(ServeOutcome {
        responses: core.responses(),
        sessions: accepted,
        summary: core.render_summary(),
    })
}
