//! Virtual-time serve+load co-simulation over framed pipes.
//!
//! One driver thread owns the server core, every client, and a framed
//! pipe per session. Each virtual tick runs a fixed phase order:
//!
//! 1. **deliver** — move last tick's response bytes to each client,
//!    decode, record latencies (client order);
//! 2. **issue** — each client issues this tick's requests, which are
//!    encoded and moved into its pipe (client order);
//! 3. **serve** — each session's bytes are decoded and its frames fed
//!    to [`ServerCore::on_frame`] (session order);
//!    [`ServerCore::tick`] commits the engine step; every session's
//!    responses are encoded and written back.
//!
//! Every phase is a plain serial loop over a fixed order, so the
//! transcript and report are a function of the seeds alone, which
//! `tests/sim_golden.rs` pins against a committed golden.

use rlb_core::Policy;
use rlb_serve::pipe::{pipe, PipeEnd};
use rlb_serve::proto::{fmt_frame, Frame, FrameReader};
use rlb_serve::ServerCore;

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
    let n = clients.len();
    let (client_ends, server_ends): (Vec<PipeEnd>, Vec<PipeEnd>) = (0..n).map(|_| pipe()).unzip();

    let mut text = String::new();
    let mut t: u64 = 0;
    loop {
        // Phase 1: deliver last tick's responses to the clients.
        for (i, (client, end)) in clients.iter_mut().zip(&client_ends).enumerate() {
            for frame in &decode_batch(&end.take_bytes()) {
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
        if t >= spec.ticks + DRAIN_CAP {
            text.push_str("drain cap hit: undrained work remains\n");
            break;
        }

        // Phase 2: clients issue; bytes move in client order.
        if issuing {
            for (i, (client, end)) in clients.iter_mut().zip(&client_ends).enumerate() {
                let mut frames = Vec::new();
                client.on_tick(t, &mut frames);
                if spec.transcript {
                    for frame in &frames {
                        text.push_str(&format!("t={t} c{i} > {}\n", fmt_frame(frame)));
                    }
                }
                end.send_bytes(&encode_batch(&frames));
            }
        }

        // Phase 3: server pass — the core takes each session's frames
        // in session order, then ticks.
        let mut responses: Vec<Vec<Frame>> = vec![Vec::new(); n];
        for (i, end) in server_ends.iter().enumerate() {
            let sid = u32::try_from(i).unwrap_or(u32::MAX);
            for frame in decode_batch(&end.take_bytes()) {
                responses[i].extend(core.on_frame(sid, frame));
            }
        }
        for (sid, frame) in core.tick() {
            responses[sid as usize].push(frame);
        }
        for (end, frames) in server_ends.iter().zip(&responses) {
            end.send_bytes(&encode_batch(frames));
        }

        t += 1;
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

/// Encodes a frame batch.
fn encode_batch(frames: &[Frame]) -> Vec<u8> {
    let mut out = Vec::new();
    for f in frames {
        f.encode(&mut out);
    }
    out
}

/// Decodes a byte batch that is known to hold whole frames (both ends
/// of a sim pipe only ever write complete frames).
fn decode_batch(bytes: &[u8]) -> Vec<Frame> {
    let mut reader = FrameReader::new();
    reader.push(bytes);
    let (frames, err) = reader.drain();
    debug_assert!(err.is_none(), "sim pipes carry whole valid frames: {err:?}");
    debug_assert_eq!(reader.pending(), 0, "partial frame in a sim batch");
    frames
}
