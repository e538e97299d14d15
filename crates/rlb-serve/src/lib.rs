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
//! The live daemon ([`server::serve`]) is one loop on the calling
//! thread that opens every pass with one readiness wait over its
//! listener and sessions (`wire::wait_ready`): it accepts its own
//! connections, owns every session outright, does all socket I/O and
//! codec work itself and spawns nothing, so no protocol in this crate is
//! shared between threads; the core, gate included, is single-owner
//! state behind `&mut self`. The rest of each pass is
//! [`server::pass`], which `rlb-load`'s virtual-time driver runs too,
//! over [`wire::Session`]s on framed pipes: the byte-identical
//! transcripts CI pins cover the core and the session code alike — see
//! `ARCHITECTURE.md` § "Serving layer".
//!
//! The crate denies `unsafe` code; the one exemption is the `poll(2)`
//! call inside `wait_ready`, whose `SAFETY:` comment says why it holds.

#![deny(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects
)]

pub mod core;
mod gate;
pub mod pipe;
pub mod proto;
pub mod server;
pub mod wire;

pub use crate::core::{key_to_u64, ServeConfig, ServerCore};
pub use crate::pipe::{pipe, PipeEnd};
pub use crate::proto::{fmt_frame, DecodeError, Frame, FrameReader, RejectCause};
pub use crate::server::{pass, serve, ServeOptions, ServeOutcome};
pub use crate::wire::{ReadStatus, Session, TcpSession};

/// [`serve`] under its former name, with the pool the daemon no longer
/// uses; `_pool` is ignored.
///
/// # Errors
/// As [`serve`].
#[doc(hidden)]
pub fn serve_blocking<P: rlb_core::Policy>(
    listener: std::net::TcpListener,
    core: ServerCore<P>,
    opts: &ServeOptions,
    _pool: &rlb_pool::Pool,
) -> std::io::Result<ServeOutcome> {
    serve(listener, core, opts)
}
