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
//! The live daemon ([`server::serve_blocking`]) multiplexes sessions
//! onto rlb-pool workers. The one protocol two threads share — the
//! accept thread handing sessions to the reactor, shutdown included —
//! is [`registry`], built on rlb-sync primitives so `tests/model.rs`
//! can explore it exhaustively with rlb-check; the core, gate included,
//! is single-owner state behind `&mut self`. The same core runs under
//! `rlb-load`'s virtual-time driver over framed pipes, which is what
//! lets CI pin byte-identical transcripts — see `ARCHITECTURE.md`
//! § "Serving layer".

#![forbid(unsafe_code)]

pub mod core;
mod gate;
pub mod pipe;
pub mod proto;
pub mod registry;
pub mod server;
pub mod wire;

pub use crate::core::{key_to_u64, ServeConfig, ServerCore};
pub use crate::pipe::{pipe, PipeEnd};
pub use crate::proto::{fmt_frame, DecodeError, Frame, FrameReader, RejectCause};
pub use crate::registry::SessionRegistry;
pub use crate::server::{serve_blocking, ServeOptions, ServeOutcome};
pub use crate::wire::{ReadStatus, TcpSession};
