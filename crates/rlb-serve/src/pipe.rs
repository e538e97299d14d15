//! In-memory framed-pipe transport for `--sim-clock` mode.
//!
//! A [`pipe`] is a duplex pair of endpoints exchanging raw protocol
//! bytes through shared buffers — the same byte stream TCP would carry,
//! minus the kernel. The sim driver owns both ends of every pipe and
//! moves bytes at virtual-tick boundaries, so a serve+load co-simulation
//! is a deterministic function of its seeds: no socket timing, no
//! scheduler, no wall clock.
//!
//! Both ends live on the one driver thread, so a lane is a plain
//! [`Cell`]: a send takes the lane's bytes out, appends, and puts them
//! back, and a take leaves an empty lane behind. There is no lock to
//! take or poison, and a [`PipeEnd`] is not `Send`.

use std::cell::Cell;
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

    /// Appends pre-encoded frame bytes to the outgoing lane (the sim
    /// driver encodes a batch of frames, then moves its bytes at once).
    pub fn send_bytes(&self, bytes: &[u8]) {
        let lane = self.tx();
        let mut buf = lane.take();
        buf.extend_from_slice(bytes);
        lane.set(buf);
    }

    /// Drains the incoming lane's raw bytes without decoding (the sim
    /// driver decodes them as one batch).
    pub fn take_bytes(&self) -> Vec<u8> {
        self.rx().take()
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
}
