//! In-memory framed-pipe transport for `--sim-clock` mode.
//!
//! A [`pipe`] is a duplex pair of endpoints exchanging raw protocol
//! bytes through shared buffers — the same byte stream TCP would carry,
//! minus the kernel. The sim driver owns both ends of every pipe and
//! moves bytes at virtual-tick boundaries, so a serve+load co-simulation
//! is a deterministic function of its seeds: no socket timing, no
//! scheduler, no wall clock.
//!
//! All access is from the one driver thread, so nothing here needs a
//! lock; the lanes sit behind `rlb_sync` mutexes only because
//! [`PipeEnd`] (its `&self` sends and takes included) is a type the
//! repository's benchmark names and drives, so its shape is kept.

use rlb_sync::{Arc, Mutex};

struct Duplex {
    /// Bytes flowing a → b.
    ab: Mutex<Vec<u8>>,
    /// Bytes flowing b → a.
    ba: Mutex<Vec<u8>>,
}

/// One endpoint of an in-memory duplex byte pipe.
pub struct PipeEnd {
    duplex: Arc<Duplex>,
    /// True for the `a` side (writes into `ab`, reads from `ba`).
    is_a: bool,
}

/// Creates a connected endpoint pair.
pub fn pipe() -> (PipeEnd, PipeEnd) {
    let duplex = Arc::new(Duplex {
        ab: Mutex::new(Vec::new()),
        ba: Mutex::new(Vec::new()),
    });
    (
        PipeEnd {
            duplex: Arc::clone(&duplex),
            is_a: true,
        },
        PipeEnd {
            duplex,
            is_a: false,
        },
    )
}

impl PipeEnd {
    fn tx(&self) -> &Mutex<Vec<u8>> {
        if self.is_a {
            &self.duplex.ab
        } else {
            &self.duplex.ba
        }
    }

    fn rx(&self) -> &Mutex<Vec<u8>> {
        if self.is_a {
            &self.duplex.ba
        } else {
            &self.duplex.ab
        }
    }

    /// Appends pre-encoded frame bytes to the outgoing lane (the sim
    /// driver encodes a batch of frames, then moves its bytes at once).
    pub fn send_bytes(&self, bytes: &[u8]) {
        let mut lane = self.tx().lock().expect("pipe lane lock");
        lane.extend_from_slice(bytes);
    }

    /// Drains the incoming lane's raw bytes without decoding (the sim
    /// driver decodes them as one batch).
    pub fn take_bytes(&self) -> Vec<u8> {
        let mut lane = self.rx().lock().expect("pipe lane lock");
        std::mem::take(&mut *lane)
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
