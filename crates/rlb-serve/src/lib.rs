//! # rlb-serve — the serving layer
//!
//! Turns the simulated cluster into something that answers requests
//! over a wire: a length-prefixed binary get/put protocol
//! ([`proto`]), non-blocking TCP and in-memory framed-pipe transports
//! ([`wire`], [`pipe`]), and a transport-agnostic daemon core
//! ([`core`]) that stages client requests, routes every distinct chunk
//! with the paper's policies against live replica backlogs, applies
//! admission control from a bounded in-flight gate, and schedules
//! replies behind the chosen replica's queue.
//!
//! The live daemon ([`server::serve_blocking`]) is one loop on the
//! calling thread that opens every pass with one readiness wait over
//! its listener and sessions (`wire::wait_ready`): it accepts its own
//! connections, fans session I/O out to rlb-pool workers and spawns
//! nothing, so no protocol in this crate is shared between threads; the
//! core, gate included, is single-owner state behind `&mut self`. The
//! same core runs under `rlb-load`'s virtual-time driver over framed
//! pipes, which is what lets CI pin byte-identical transcripts — see
//! `ARCHITECTURE.md` § "Serving layer".
//!
//! The crate denies `unsafe` code; the one exemption is the `poll(2)`
//! call inside `wait_ready`, whose `SAFETY:` comment says why it holds.

#![deny(unsafe_code)]

pub mod core;
mod gate;
pub mod pipe;
pub mod proto;
pub mod server;
pub mod wire;

pub use crate::core::{key_to_u64, ServeConfig, ServerCore};
pub use crate::pipe::{pipe, PipeEnd};
pub use crate::proto::{fmt_frame, DecodeError, Frame, FrameReader, RejectCause};
pub use crate::server::{serve_blocking, ServeOptions, ServeOutcome};
pub use crate::wire::{ReadStatus, TcpSession};
