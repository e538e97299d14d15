//! Server-outage injection.
//!
//! The paper's model assumes servers never fail, but replication
//! (`d ≥ 2`) is precisely what makes a real deployment survive failures:
//! while one replica's server is down, requests flow to the other. This
//! module adds a deterministic outage schedule to the simulator so the
//! reproduction doubles as a failure-injection harness (experiment E15):
//!
//! * a **down** server accepts no requests (routing to it is rejected
//!   with [`crate::RejectReason::ServerDown`]) and does not drain — its
//!   queued requests wait out the outage (a crash-recover model where
//!   the queue is durable; a crash-stop variant is obtained by flushing);
//! * liveness is visible to policies through
//!   [`crate::ClusterView::is_up`], modelling a standard failure
//!   detector.

/// One planned outage: `server` is down for steps in `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// Affected server.
    pub server: u32,
    /// First step of the outage (inclusive).
    pub from: u64,
    /// First step after the outage (exclusive).
    pub until: u64,
}

/// A deterministic schedule of server outages.
///
/// ```
/// use rlb_core::OutageSchedule;
///
/// let mut s = OutageSchedule::none();
/// s.push(3, 10, 20); // server 3 down for steps 10..20
/// assert!(s.is_up(3, 9));
/// assert!(!s.is_up(3, 15));
/// assert!(s.is_up(3, 20));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutageSchedule {
    outages: Vec<Outage>,
}

impl OutageSchedule {
    /// An empty schedule (no failures).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a schedule from explicit outages.
    ///
    /// # Panics
    /// Panics if any outage has `from >= until`.
    pub fn new(outages: Vec<Outage>) -> Self {
        for o in &outages {
            assert!(o.from < o.until, "outage window must be non-empty: {o:?}");
        }
        Self { outages }
    }

    /// Adds an outage.
    ///
    /// # Panics
    /// Panics if `from >= until`.
    pub fn push(&mut self, server: u32, from: u64, until: u64) {
        assert!(from < until, "outage window must be non-empty");
        self.outages.push(Outage {
            server,
            from,
            until,
        });
    }

    /// Takes down servers `0..count` for `[from, until)` — a correlated
    /// rack-style failure used by experiment E15.
    pub fn mass_failure(count: u32, from: u64, until: u64) -> Self {
        let mut s = Self::none();
        for server in 0..count {
            s.push(server, from, until);
        }
        s
    }

    /// Whether any outage is scheduled.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
    }

    /// Largest server id referenced by the schedule, if any.
    pub(crate) fn max_server(&self) -> Option<u32> {
        self.outages.iter().map(|o| o.server).max()
    }

    /// Number of scheduled outages.
    pub fn len(&self) -> usize {
        self.outages.len()
    }

    /// Recomputes the per-server liveness mask for `step` into `up`
    /// (`true` = serving). `up.len()` must cover every referenced server.
    pub fn fill_up_mask(&self, step: u64, up: &mut [bool]) {
        up.fill(true);
        for o in &self.outages {
            if step >= o.from && step < o.until {
                if let Some(slot) = up.get_mut(o.server as usize) {
                    *slot = false;
                }
            }
        }
    }

    /// Whether `server` is up at `step`.
    pub fn is_up(&self, server: u32, step: u64) -> bool {
        !self
            .outages
            .iter()
            .any(|o| o.server == server && step >= o.from && step < o.until)
    }
}

rlb_json::json_struct!(Outage {
    server,
    from,
    until
});
rlb_json::json_struct!(OutageSchedule { outages });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_all_up() {
        let s = OutageSchedule::none();
        assert!(s.is_empty());
        let mut up = vec![false; 4];
        s.fill_up_mask(10, &mut up);
        assert!(up.iter().all(|&u| u));
        assert!(s.is_up(3, 0));
    }

    #[test]
    fn outage_window_is_half_open() {
        let mut s = OutageSchedule::none();
        s.push(2, 5, 8);
        assert!(s.is_up(2, 4));
        assert!(!s.is_up(2, 5));
        assert!(!s.is_up(2, 7));
        assert!(s.is_up(2, 8));
        assert!(s.is_up(1, 6));
    }

    #[test]
    fn mask_matches_point_queries() {
        let s = OutageSchedule::new(vec![
            Outage {
                server: 0,
                from: 0,
                until: 3,
            },
            Outage {
                server: 2,
                from: 2,
                until: 4,
            },
        ]);
        let mut up = vec![true; 3];
        for step in 0..6 {
            s.fill_up_mask(step, &mut up);
            for server in 0..3u32 {
                assert_eq!(
                    up[server as usize],
                    s.is_up(server, step),
                    "s{server}@{step}"
                );
            }
        }
    }

    #[test]
    fn mass_failure_covers_prefix() {
        let s = OutageSchedule::mass_failure(3, 1, 2);
        assert_eq!(s.len(), 3);
        assert!(!s.is_up(0, 1));
        assert!(!s.is_up(2, 1));
        assert!(s.is_up(3, 1));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_panics() {
        let mut s = OutageSchedule::none();
        s.push(0, 5, 5);
    }
}
