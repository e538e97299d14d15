//! The live TCP server — one reactor loop, on the calling thread — and
//! the server pass it shares with the sim-clock co-simulation.
//!
//! Threading model:
//!
//! ```text
//!   TcpListener ──┐
//!   sessions ─────┴─▶ wait_ready (one poll(2)) ──▶ reactor (the caller's thread):
//!                                                  accept, read + decode, core,
//!                                                  tick, encode + write
//! ```
//!
//! The reactor owns the listener, the [`ServerCore`] and every session
//! outright, and runs a pass loop. Every pass opens with one readiness
//! wait (`wait_ready`) over the listener and every live session — each
//! asks for input, and for output while its outbox holds unsent bytes —
//! that does not block at all after a pass that did work and blocks at
//! most `IDLE_WAIT` (1 ms, `poll`'s smallest non-zero timeout) after one
//! that did not: a busy daemon never naps, an idle one wakes on the
//! first byte, and a drained one reads `shutdown` at least once a
//! millisecond. The pass then follows what the wait found: accept only
//! if the listener is readable (after a failed accept — out of
//! descriptors, say — the next wait leaves the listener out and the
//! pass after it accepts regardless, so an idle daemon out of
//! descriptors retries once a millisecond instead of spinning); then run
//! [`pass`]: read the sessions found readable (and any accepted in this
//! pass), feeding their frames to the core in session order and each
//! response straight into its session's outbox; tick the engine and
//! route its responses the same way; then flush every session that owes
//! bytes or whose input ended, so a reader that fell behind is written
//! to whenever its socket drains, whether or not it sends again, and
//! retire the ones that are over.
//!
//! [`pass`] is generic over the session's stream: `rlb-load`'s
//! `co_simulate` runs it over in-memory pipes, so the `--sim-clock`
//! transcripts cover this session code too. The two callers differ in
//! two arguments of [`pass`], not in a second body.
//!
//! Sessions live in one map keyed by their accept serial, which is
//! never reused: the map iterates in accept order, and a reply the core
//! scheduled for a session that has since gone finds no entry and is
//! dropped (the core has counted it), never reaching a later session.
//! After 2³² accepts the serials are spent, and the listener is treated
//! like one whose accept keeps failing: it leaves the wait for good,
//! while the live sessions are served on. A pass costs its live
//! sessions, not every connection ever accepted. [`serve`] spawns
//! nothing: the daemon is one thread.
//! Shutdown is stop accepting (the listener is dropped, so a later
//! connect is refused), then drain every admitted request to a reply
//! or reject, then flush, then return.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::time::Duration;

use rlb_core::Policy;
use rlb_sync::{Arc, AtomicBool, Ordering};

use crate::core::{ServerCore, SessionId};
use crate::proto::{Frame, RejectCause};
use crate::wire::{wait_ready, Readiness, Session, TcpSession};

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

/// Serves `listener` until shutdown, blocking the calling thread.
///
/// # Errors
/// Propagates listener configuration errors and a failed readiness
/// wait; per-session socket errors just drop that session.
pub fn serve<P: Policy>(
    listener: TcpListener,
    mut core: ServerCore<P>,
    opts: &ServeOptions,
) -> std::io::Result<ServeOutcome> {
    listener.set_nonblocking(true)?;
    // `None` once draining starts: dropping the listener is what
    // refuses a connect made during the drain.
    let mut listener = Some(listener);

    // Keyed by accept serial, in accept order; a retired session's key
    // is never handed out again.
    let mut sessions: BTreeMap<SessionId, TcpSession> = BTreeMap::new();
    // The next accept's serial; `None` once all 2³² are spent.
    let mut next_sid: Option<SessionId> = Some(0);
    // The wait's entries: one a live session, in `sessions`' order,
    // then the listener's while it is open and accepting has not
    // failed.
    let mut ready: Vec<Readiness> = Vec::new();
    let mut idle = false;
    // Set when an accept failed (e.g. out of descriptors): the listener
    // stays readable, so the next wait leaves it out — or an idle
    // daemon would spin on it — and the pass after it accepts blind.
    // Spent serials set it for good.
    let mut accept_failed = false;

    loop {
        // 0. Wait until a socket is ready: not at all after a pass that
        //    did work, at most `IDLE_WAIT` after one that did not.
        ready.clear();
        ready.extend(sessions.values().map(TcpSession::readiness));
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

        // 1. Adopt what the kernel has accepted, until `WouldBlock`, an
        //    accept fails, or the serials run out.
        accept_failed = next_sid.is_none();
        while let Some(accept) = listener
            .as_ref()
            .filter(|_| incoming && !accept_failed)
            .map(TcpListener::accept)
        {
            match accept {
                Ok((stream, _)) => {
                    if let (Some(sid), Ok(session)) = (next_sid, TcpSession::new(stream)) {
                        sessions.insert(sid, session);
                        next_sid = sid.checked_add(1);
                        accept_failed = next_sid.is_none();
                        worked = true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => accept_failed = true,
            }
        }

        // 2. The server pass, over the sessions the wait found readable
        //    and those accepted in this pass, which it has not seen
        //    (they sort last, past the wait's entries). A drained core
        //    does not tick, or an idle daemon would never wait.
        let mut polled = ready.iter();
        let readable = || polled.next().is_none_or(Readiness::readable);
        worked |= pass(&mut sessions, &mut core, readable, draining, false);

        // 3. Shutdown protocol: stop accepting, stop admitting, drain,
        //    flush, exit.
        let stop_requested = opts.shutdown.load(Ordering::Relaxed)
            || opts.max_requests.is_some_and(|n| core.responses() >= n);
        if stop_requested {
            listener = None;
        }
        if listener.is_none()
            && core.drained()
            && sessions.values_mut().all(|s| s.flush().unwrap_or(true))
        {
            break;
        }

        idle = !worked;
    }

    Ok(ServeOutcome {
        responses: core.responses(),
        sessions: next_sid.map_or(1 << 32, u64::from),
        summary: core.render_summary(),
    })
}

/// One server pass over `sessions`, as [`serve`] and `rlb-load`'s
/// co-simulation both run it. Says whether it read a frame or ticked.
///
/// 1. Read each session `readable` names (it is asked once a session,
///    in key order); feed its frames to the core, each answer straight
///    into its outbox, or while `draining` answer each request
///    `Reject{Shutdown}`. A session whose bytes stop decoding gets one
///    `Malformed` reject.
/// 2. Tick the core, unless it is drained and `tick_drained` is false,
///    and queue each response in its session's outbox; one for a
///    session that has gone is dropped (the core has counted it).
/// 3. Flush every session that owes bytes or whose input ended, and
///    retire the ones that are over.
pub fn pass<S: Read + Write, P: Policy>(
    sessions: &mut BTreeMap<SessionId, Session<S>>,
    core: &mut ServerCore<P>,
    mut readable: impl FnMut() -> bool,
    draining: bool,
    tick_drained: bool,
) -> bool {
    let mut worked = false;
    for (&sid, session) in sessions.iter_mut() {
        if !readable() {
            continue;
        }
        let (frames, err, _) = session.read_frames();
        for frame in frames {
            worked = true;
            if !draining {
                #[expect(clippy::disallowed_methods, reason = "this is the one server loop")]
                if let Some(response) = core.on_frame(sid, frame) {
                    session.queue(&response);
                }
            } else if let Frame::Get { req_id, tenant, .. } | Frame::Put { req_id, tenant, .. } =
                frame
            {
                // Past shutdown: every new request is turned away.
                session.queue(&core.reject(tenant, req_id, RejectCause::Shutdown));
            }
        }
        if err.is_some() {
            session.queue(&core.reject(0, 0, RejectCause::Malformed));
        }
    }

    if tick_drained || !core.drained() {
        worked = true;
        #[expect(clippy::disallowed_methods, reason = "this is the one server loop")]
        for (sid, frame) in core.tick() {
            if let Some(session) = sessions.get_mut(&sid) {
                session.queue(&frame);
            }
        }
    }

    sessions.retain(|_, session| !session.flush_is_over());
    worked
}
