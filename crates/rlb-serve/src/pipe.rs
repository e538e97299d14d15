//! In-memory framed-pipe transport for `--sim-clock` mode.
//!
//! A [`pipe`] is a duplex pair of endpoints exchanging raw protocol
//! bytes through shared buffers — the same byte stream TCP would carry,
//! minus the kernel. A [`PipeEnd`] is a std `Read + Write` stream with a
//! non-blocking socket's manners: a read of an empty lane is
//! `WouldBlock` while the other end lives and end of stream once it is
//! dropped, and a write after that is `BrokenPipe`; so a
//! [`Session`](crate::wire::Session) runs over it exactly as over TCP.
//! The sim driver owns both ends of every pipe and runs each side's
//! sessions at virtual-tick boundaries, so a serve+load co-simulation
//! is a deterministic function of its seeds: no socket timing, no
//! scheduler, no wall clock.
//!
//! Both ends live on the one driver thread, so a lane is a plain
//! [`Cell`]: a send takes the lane's bytes out, appends, and puts them
//! back, and a take leaves an empty lane behind. There is no lock to
//! take or poison, and a [`PipeEnd`] is not `Send`.

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

use std::cell::Cell;
use std::io::{ErrorKind, Read, Write};
use std::rc::Rc;

struct Duplex {
    /// Bytes flowing a → b.
    ab: Cell<Vec<u8>>,
    /// Bytes flowing b → a.
    ba: Cell<Vec<u8>>,
}

/// One endpoint of an in-memory duplex byte pipe.
pub struct PipeEnd {
    duplex: Rc<Duplex>,
    /// True for the `a` side (writes into `ab`, reads from `ba`).
    is_a: bool,
}

/// Creates a connected endpoint pair.
pub fn pipe() -> (PipeEnd, PipeEnd) {
    let duplex = Rc::new(Duplex {
        ab: Cell::default(),
        ba: Cell::default(),
    });
    (
        PipeEnd {
            duplex: Rc::clone(&duplex),
            is_a: true,
        },
        PipeEnd {
            duplex,
            is_a: false,
        },
    )
}

impl PipeEnd {
    fn tx(&self) -> &Cell<Vec<u8>> {
        if self.is_a {
            &self.duplex.ab
        } else {
            &self.duplex.ba
        }
    }

    fn rx(&self) -> &Cell<Vec<u8>> {
        if self.is_a {
            &self.duplex.ba
        } else {
            &self.duplex.ab
        }
    }

    /// The other end has been dropped: nothing more will arrive, and
    /// nothing sent will be read.
    fn peer_gone(&self) -> bool {
        Rc::strong_count(&self.duplex) == 1
    }

    /// Appends pre-encoded frame bytes to the outgoing lane.
    pub fn send_bytes(&self, bytes: &[u8]) {
        let lane = self.tx();
        let mut buf = lane.take();
        buf.extend_from_slice(bytes);
        lane.set(buf);
    }

    /// Drains the incoming lane's raw bytes without decoding.
    pub fn take_bytes(&self) -> Vec<u8> {
        self.rx().take()
    }
}

impl Read for PipeEnd {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let lane = self.rx();
        let mut bytes = lane.take();
        let n = bytes.as_slice().read(buf)?;
        bytes.drain(..n);
        lane.set(bytes);
        if n == 0 && !buf.is_empty() && !self.peer_gone() {
            return Err(ErrorKind::WouldBlock.into());
        }
        Ok(n)
    }
}

impl Write for PipeEnd {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.peer_gone() {
            return Err(ErrorKind::BrokenPipe.into());
        }
        self.send_bytes(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_cross_the_pipe_both_ways_in_order() {
        let (a, b) = pipe();
        a.send_bytes(b"one");
        a.send_bytes(b"two");
        assert_eq!(b.take_bytes(), b"onetwo", "sends append in order");
        b.send_bytes(b"back");
        assert_eq!(a.take_bytes(), b"back");
    }

    #[test]
    fn take_empties_the_lane_and_lanes_are_independent() {
        let (a, b) = pipe();
        a.send_bytes(b"x");
        assert!(
            a.take_bytes().is_empty(),
            "an end never reads its own bytes"
        );
        assert_eq!(b.take_bytes(), b"x");
        assert!(b.take_bytes().is_empty(), "taken bytes are gone");
    }

    #[test]
    fn an_end_reads_and_writes_like_a_nonblocking_socket() {
        let (mut a, mut b) = pipe();
        let mut buf = [0; 4];
        let kind = |r: std::io::Result<usize>| r.unwrap_err().kind();
        assert_eq!(kind(b.read(&mut buf)), ErrorKind::WouldBlock, "empty lane");
        a.write_all(b"hello").unwrap();
        assert_eq!(b.read(&mut buf).unwrap(), 4, "a read takes what fits");
        assert_eq!(&buf, b"hell");
        drop(a);
        assert_eq!(b.read(&mut buf).unwrap(), 1, "what was sent still arrives");
        assert_eq!(b.read(&mut buf).unwrap(), 0, "then the stream ends");
        assert_eq!(kind(b.write(b"x")), ErrorKind::BrokenPipe);
    }
}
