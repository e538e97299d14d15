//! Non-blocking session transport, and the one readiness wait.
//!
//! One [`Session`] wraps one client connection over any non-blocking
//! byte stream: a TCP socket in the daemon and its live clients
//! ([`TcpSession`]), a [`PipeEnd`](crate::pipe::PipeEnd) under
//! `--sim-clock`. A read takes everything the stream has buffered into a
//! session-owned inbox first, and the session's [`FrameReader`] then
//! decodes it there, keeping only the bytes of a frame the read ended
//! inside; writes push from a session-owned outbox and keep whatever
//! did not fit for the next flush. The server pass in `server.rs`
//! therefore never blocks on any single client — a slow or stalled peer
//! just accumulates outbox bytes until it drains or is dropped — and it
//! runs the same session code on either transport.
//!
//! Where the reactor does block is `wait_ready`: one `poll(2)` over a
//! slice of `Readiness` entries, each a socket asked for input, for
//! output while its outbox holds unsent bytes, or for both; a client
//! waits on its one session the same way ([`TcpSession::wait`]). The
//! reactor passes a zero timeout after a pass that did work and 1 ms
//! after one that did not; a non-zero timeout is rounded up to whole
//! milliseconds, `poll`'s unit, so it never turns into a spin. It is
//! the crate's only `unsafe` code: `poll` is declared `extern "C"`
//! against the libc std already links, inside that one `#[cfg(unix)]`
//! function, which carries the crate's one exemption from
//! `deny(unsafe_code)`. On other targets the same function reports
//! every entry ready and sleeps out the timeout, capped at 1 ms, so
//! there is no second reactor.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use crate::proto::{DecodeError, Frame, FrameReader};

/// `poll(2)`'s event bits; the same values on every unix.
const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
/// Reported whether asked for or not: a read or write will not block,
/// it will fail (or read EOF).
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;
const POLLNVAL: i16 = 0x20;

/// One socket's entry in a [`wait_ready`] call: what it is asked for,
/// and, after the wait, what the kernel found. Laid out as `struct
/// pollfd`, so a slice of these is what `poll(2)` reads and writes.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct Readiness {
    fd: i32,
    events: i16,
    revents: i16,
}

impl Readiness {
    /// A listener, asked whether a connection is waiting.
    pub(crate) fn listener(listener: &TcpListener) -> Self {
        Self {
            fd: raw_fd(listener),
            events: POLLIN,
            revents: 0,
        }
    }

    /// The last wait found input (or EOF, or an error) to read.
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

#[cfg(unix)]
fn raw_fd(socket: &impl std::os::fd::AsRawFd) -> i32 {
    socket.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_: &T) -> i32 {
    -1
}

/// Blocks until an entry of `entries` is ready or `timeout` has passed,
/// and records in each what was found; a zero timeout only looks. A
/// non-zero timeout is rounded up to `poll`'s whole milliseconds, so
/// that it never becomes a spin. A wait cut short by a signal returns
/// `Ok` with nothing ready.
///
/// # Errors
/// What `poll(2)` reports (out of kernel memory; more entries than the
/// process may have descriptors).
#[cfg(unix)]
#[allow(unsafe_code)]
pub(crate) fn wait_ready(entries: &mut [Readiness], timeout: Duration) -> std::io::Result<()> {
    use std::os::raw::c_int;
    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;
    unsafe extern "C" {
        fn poll(fds: *mut Readiness, nfds: Nfds, timeout: c_int) -> c_int;
    }

    let nfds = Nfds::try_from(entries.len()).map_err(|_| ErrorKind::InvalidInput)?;
    let millis = timeout.as_nanos().div_ceil(1_000_000);
    let millis = c_int::try_from(millis).unwrap_or(c_int::MAX);
    for entry in entries.iter_mut() {
        entry.revents = 0;
    }
    // SAFETY: `Readiness` is `#[repr(C)]` with the fields of `struct
    // pollfd` in its order and widths (`int`, `short`, `short`), and
    // `entries` is a live, exclusively borrowed slice of exactly `nfds`
    // of them, so the kernel reads and writes only memory we own for
    // the length of the call; nothing else aliases it meanwhile.
    let found = unsafe { poll(entries.as_mut_ptr(), nfds, millis) };
    if found >= 0 {
        return Ok(());
    }
    let err = std::io::Error::last_os_error();
    match err.kind() {
        ErrorKind::Interrupted => Ok(()),
        _ => Err(err),
    }
}

/// Off unix there is no `poll` here: every entry is reported ready for
/// what it asked and the timeout is slept out, but for at most 1 ms —
/// the reactor's idle wait — since a sleep cannot end on a byte and a
/// client passes timeouts as long as its whole run. So there the
/// reactor reads every session each pass and naps after an idle one.
/// (No non-unix target is installed where this is developed: this arm
/// has not been compiled.)
#[cfg(not(unix))]
pub(crate) fn wait_ready(entries: &mut [Readiness], timeout: Duration) -> std::io::Result<()> {
    for entry in entries.iter_mut() {
        entry.revents = entry.events;
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "no poll off unix: the reactor's idle wait is a nap"
    )]
    if !timeout.is_zero() {
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
    }
    Ok(())
}

/// What a read pass learned about the connection.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadStatus {
    /// Connection still live (possibly zero new bytes).
    Open,
    /// Peer closed its write half cleanly (EOF).
    Eof,
    /// Socket error; the session is dead.
    Broken,
}

/// One client connection with framing and write buffering, over a
/// stream whose reads and writes return `WouldBlock` instead of
/// blocking.
pub struct Session<S> {
    stream: S,
    /// One read's bytes; emptied by every read, kept for its capacity.
    inbox: Vec<u8>,
    reader: FrameReader,
    outbox: Vec<u8>,
    /// Prefix of `outbox` already written to the socket.
    sent: usize,
    /// Set once a decode error has been observed; the session takes no
    /// further input.
    poisoned: bool,
    /// Set once a read has found EOF or a socket error: the session no
    /// longer asks a wait for input (a closed socket is always
    /// readable, so asking would make every wait return at once).
    input_ended: bool,
}

/// A session over an accepted (or, for a client, connected) TCP stream.
pub type TcpSession = Session<TcpStream>;

impl TcpSession {
    /// Wraps an accepted stream, switching it to non-blocking mode.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        // Latency over batching: frames are small and the reactor
        // already batches per pass. Best effort — not all platforms
        // honor it.
        let _ = stream.set_nodelay(true);
        Ok(Self::over(stream))
    }

    /// Blocks until this session has input to read or room for its
    /// unsent bytes, or until `timeout` has passed ([`wait_ready`] on
    /// its one entry): what a client waits on when a pass moved nothing.
    ///
    /// # Errors
    /// What the wait reports.
    pub fn wait(&self, timeout: Duration) -> std::io::Result<()> {
        wait_ready(&mut [self.readiness()], timeout)
    }

    /// This session's entry for [`wait_ready`]: input while any can
    /// still come, output while the outbox holds unsent bytes.
    pub(crate) fn readiness(&self) -> Readiness {
        let mut events = 0;
        if !(self.poisoned || self.input_ended) {
            events |= POLLIN;
        }
        if self.sent < self.outbox.len() {
            events |= POLLOUT;
        }
        Readiness {
            fd: raw_fd(&self.stream),
            events,
            revents: 0,
        }
    }
}

impl<S: Read + Write> Session<S> {
    /// Wraps a stream that is already non-blocking.
    pub fn over(stream: S) -> Self {
        Self {
            stream,
            inbox: Vec::new(),
            reader: FrameReader::new(),
            outbox: Vec::new(),
            sent: 0,
            poisoned: false,
            input_ended: false,
        }
    }

    /// Drains the stream's receive buffer and decodes complete frames.
    ///
    /// Returns the decoded frames, the first decode error if the stream
    /// is corrupt (the session is poisoned and reads nothing further),
    /// and the connection status.
    pub fn read_frames(&mut self) -> (Vec<Frame>, Option<DecodeError>, ReadStatus) {
        if self.poisoned {
            return (Vec::new(), None, ReadStatus::Open);
        }
        // Drain the socket before decoding any of it: decoding between
        // reads stretches the read over bytes the peer is still sending.
        // `read_to_end` keeps what it read before `WouldBlock` or an
        // error, and retries `Interrupted`.
        let status = match self.stream.read_to_end(&mut self.inbox) {
            Ok(_) => ReadStatus::Eof,
            Err(e) if e.kind() == ErrorKind::WouldBlock => ReadStatus::Open,
            Err(_) => ReadStatus::Broken,
        };
        self.reader.push(&self.inbox);
        self.inbox.clear();
        self.input_ended |= status != ReadStatus::Open;
        let (frames, err) = self.reader.drain();
        if err.is_some() {
            self.poisoned = true;
        }
        (frames, err, status)
    }

    /// Queues a frame for sending (no stream I/O until [`flush`]).
    ///
    /// [`flush`]: Session::flush
    pub fn queue(&mut self, frame: &Frame) {
        frame.encode(&mut self.outbox);
    }

    /// Writes as much of the outbox as the stream will take without
    /// blocking. `Ok(true)` means fully drained; `Err` means the
    /// connection is dead.
    pub fn flush(&mut self) -> Result<bool, std::io::Error> {
        #[expect(
            clippy::indexing_slicing,
            clippy::arithmetic_side_effects,
            reason = "sent < outbox.len() in the loop; a write takes at most the bytes it is given"
        )]
        while self.sent < self.outbox.len() {
            match self.stream.write(&self.outbox[self.sent..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.outbox.clear();
        self.sent = 0;
        Ok(true)
    }

    /// Flushes a session that owes bytes or whose input has ended, and
    /// says whether it can be dropped: a write failed, or its input is
    /// over (a decode error, or EOF / a socket error with the outbox
    /// flushed), so nothing more will come from it or reach it. A
    /// session that owes nothing and still reads is left alone.
    pub(crate) fn flush_is_over(&mut self) -> bool {
        if self.sent == self.outbox.len() && !(self.input_ended || self.poisoned) {
            return false;
        }
        match self.flush() {
            Ok(flushed) => self.poisoned || (self.input_ended && flushed),
            Err(_) => true,
        }
    }
}
