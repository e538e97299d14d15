//! Virtual-time serve+load co-simulation over framed pipes.
//!
//! One driver thread owns the server core, every client, and a framed
//! pipe per session, with a [`Session`] on each end of it. Each virtual
//! tick runs a fixed phase order:
//!
//! 1. **deliver** — each client's session reads last tick's response
//!    bytes; the client records their latencies (client order);
//! 2. **issue** — each client issues this tick's requests, which its
//!    session encodes and writes into its pipe (client order);
//! 3. **serve** — the daemon's own server pass ([`pass`]) over the
//!    server ends: each session's frames go to
//!    [`ServerCore::on_frame`] (session order),
//!    [`ServerCore::tick`] commits the engine step, and every session's
//!    responses are encoded and flushed back. The pass ticks a drained
//!    core too: a virtual tick passes whether or not work is queued.
//!
//! Every phase is a plain serial loop over a fixed order, so the
//! transcript and report are a function of the seeds alone, which
//! `tests/sim_golden.rs` pins against a committed golden.

use std::collections::BTreeMap;

use rlb_core::Policy;
use rlb_serve::pipe::{pipe, PipeEnd};
use rlb_serve::proto::fmt_frame;
use rlb_serve::{pass, ServerCore, Session};

use crate::client::Client;
use crate::report::LoadReport;

/// Sim run parameters.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// Ticks during which clients issue requests; after this window the
    /// driver only drains.
    pub ticks: u64,
    /// Record a per-frame transcript (`t=.. c<i> >/< frame`) in the
    /// output text.
    pub transcript: bool,
}

/// Result of one co-simulation.
// return type of `co_simulate`. lint:allow(dead-pub)
pub struct SimOutput {
    /// Stable text: optional transcript lines, then the client report,
    /// then the server summary. This exact string is the golden.
    pub text: String,
    /// Structured client-side aggregate.
    pub report: LoadReport,
    /// Ticks actually executed (issue window + drain).
    pub ticks_run: u64,
}

/// Extra drain ticks after the issue window before the driver gives up
/// on undrained work (it never triggers for healthy configurations;
/// the bound keeps a bugged run from spinning forever).
const DRAIN_CAP: u64 = 1000;

/// Runs the co-simulation to completion.
pub fn co_simulate<P: Policy>(
    mut core: ServerCore<P>,
    mut clients: Vec<Client>,
    spec: &SimSpec,
) -> SimOutput {
    // Client `i` is session `i` on the server side.
    let (mut ends, mut sessions): (Vec<Session<PipeEnd>>, BTreeMap<u32, Session<PipeEnd>>) =
        (0u32..)
            .zip(&clients)
            .map(|(sid, _)| {
                let (near, far) = pipe();
                (Session::over(near), (sid, Session::over(far)))
            })
            .unzip();

    let mut text = String::new();
    let mut t: u64 = 0;
    loop {
        // Phase 1: deliver last tick's responses to the clients.
        for (i, (client, end)) in clients.iter_mut().zip(&mut ends).enumerate() {
            let (frames, err, _) = end.read_frames();
            debug_assert!(err.is_none(), "the server pass wrote a bad frame: {err:?}");
            for frame in &frames {
                if spec.transcript {
                    text.push_str(&format!("t={t} c{i} < {}\n", fmt_frame(frame)));
                }
                client.on_frame(t, frame);
            }
        }

        // Termination: issue window over, everything answered, nothing
        // buffered anywhere.
        let issuing = t < spec.ticks;
        let all_done = clients.iter().all(Client::done);
        if !issuing && all_done && core.drained() {
            break;
        }
        if t >= spec.ticks.saturating_add(DRAIN_CAP) {
            text.push_str("drain cap hit: undrained work remains\n");
            break;
        }

        // Phase 2: clients issue; bytes move in client order. A pipe
        // takes every byte it is given while its other end lives, so
        // the flush empties the outbox.
        if issuing {
            for (i, (client, end)) in clients.iter_mut().zip(&mut ends).enumerate() {
                let mut frames = Vec::new();
                client.on_tick(t, &mut frames);
                for frame in &frames {
                    if spec.transcript {
                        text.push_str(&format!("t={t} c{i} > {}\n", fmt_frame(frame)));
                    }
                    end.queue(frame);
                }
                let flushed = end.flush();
                debug_assert!(matches!(flushed, Ok(true)), "{flushed:?}");
            }
        }

        // Phase 3: the daemon's server pass over every session; the sim
        // never drains, and ticks whether or not the core is drained.
        pass(&mut sessions, &mut core, || true, false, true);

        t = t.saturating_add(1);
    }

    let report = LoadReport::from_clients(&clients);
    text.push_str(&report.render("ticks"));
    text.push_str(&core.render_summary());
    SimOutput {
        text,
        report,
        ticks_run: t,
    }
}
