//! Backlog-distribution snapshots and the safe-distribution checker.
//!
//! Definition 3.2 of the paper: a backlog distribution over `m` servers is
//! **safe** if for all `1 ≤ j ≤ log m`, at most `m / 2^j` servers have
//! backlog strictly greater than `j`. The greedy analysis (Lemma 3.4)
//! shows the system stays safe at every sub-step with high probability;
//! experiment E2 verifies this empirically via [`BacklogSnapshot::safety`].

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

/// A snapshot of the per-server backlog distribution at an instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BacklogSnapshot {
    /// `tail[j]` = number of servers with backlog **strictly greater**
    /// than `j`, for `j = 0..tail.len()`.
    tail: Vec<u64>,
    /// Total number of servers.
    num_servers: u64,
    /// Sum of all backlogs.
    total_backlog: u64,
    /// Maximum backlog.
    max_backlog: u64,
}

impl BacklogSnapshot {
    /// Builds a snapshot from per-server backlog values.
    ///
    /// # Panics
    /// Panics if `backlogs` is empty.
    pub fn from_backlogs(backlogs: &[u64]) -> Self {
        assert!(!backlogs.is_empty(), "need at least one server");
        let max_backlog = backlogs.iter().copied().max().unwrap_or(0);
        let len = usize::try_from(max_backlog)
            .unwrap_or(usize::MAX)
            .saturating_add(1);
        // counts[v] = number of servers with backlog exactly v.
        let mut counts = vec![0u64; len];
        let mut total_backlog = 0u64;
        for &b in backlogs {
            if let Some(slot) = counts.get_mut(usize::try_from(b).unwrap_or(usize::MAX)) {
                *slot = slot.saturating_add(1);
            }
            total_backlog = total_backlog.saturating_add(b);
        }
        // tail[j] = #servers with backlog > j: suffix-sum counts from
        // the top down (tail[v] holds what was summed *above* v).
        let mut tail = vec![0u64; len];
        let mut running = 0u64;
        for (t, &c) in tail.iter_mut().zip(counts.iter()).rev() {
            *t = running;
            running = running.saturating_add(c);
        }
        Self {
            tail,
            num_servers: backlogs.len() as u64,
            total_backlog,
            max_backlog,
        }
    }

    /// Number of servers with backlog strictly greater than `j`.
    #[inline]
    pub fn servers_above(&self, j: u64) -> u64 {
        self.tail.get(j as usize).copied().unwrap_or(0)
    }

    /// Total number of servers.
    #[inline]
    pub fn num_servers(&self) -> u64 {
        self.num_servers
    }

    /// Mean backlog across servers.
    pub fn mean_backlog(&self) -> f64 {
        self.total_backlog as f64 / self.num_servers as f64
    }

    /// Maximum backlog.
    #[inline]
    pub fn max_backlog(&self) -> u64 {
        self.max_backlog
    }

    /// Total queued requests across the cluster.
    #[inline]
    pub fn total_backlog(&self) -> u64 {
        self.total_backlog
    }

    /// Checks Definition 3.2 against this snapshot.
    ///
    /// `slack` multiplies the allowed bound: the definition is checked as
    /// `#(backlog > j) ≤ slack * m / 2^j`. The paper's definition is
    /// `slack = 1.0`; experiments also report the minimal slack at which
    /// the snapshot passes, a sharper empirical quantity.
    pub fn safety(&self, slack: f64) -> SafeDistributionReport {
        let m = self.num_servers as f64;
        let j_max = (m.log2().floor() as u64).max(1);
        let mut worst_ratio = 0.0f64;
        let mut first_violation = None;
        for j in 1..=j_max {
            let above = self.servers_above(j) as f64;
            let bound = m / 2f64.powi(j as i32);
            let ratio = if bound > 0.0 {
                // f64 division: cannot panic.
                above / bound
            } else {
                f64::INFINITY
            };
            if ratio > worst_ratio {
                worst_ratio = ratio;
            }
            // f64 multiply: no wrap semantics.
            if above > slack * bound && first_violation.is_none() {
                first_violation = Some(j);
            }
        }
        SafeDistributionReport {
            safe: first_violation.is_none(),
            first_violation_level: first_violation,
            worst_ratio,
        }
    }
}

/// Outcome of a safe-distribution check (Definition 3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
// return type of `BacklogSnapshot::safety`. lint:allow(dead-pub)
pub struct SafeDistributionReport {
    /// Whether the snapshot satisfied the (slack-scaled) definition.
    pub safe: bool,
    /// Smallest level `j` at which the bound was violated, if any.
    pub first_violation_level: Option<u64>,
    /// `max_j  #(backlog > j) / (m / 2^j)` — the minimal slack needed to
    /// pass. `≤ 1.0` means safe per the paper's exact definition.
    pub worst_ratio: f64,
}

rlb_json::json_struct!(BacklogSnapshot {
    tail,
    num_servers,
    total_backlog,
    max_backlog
});
rlb_json::json_struct!(SafeDistributionReport {
    safe,
    first_violation_level,
    worst_ratio
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_counts_match_naive() {
        let backlogs = [0u64, 1, 1, 2, 5, 5, 9];
        let s = BacklogSnapshot::from_backlogs(&backlogs);
        for j in 0..12u64 {
            let naive = backlogs.iter().filter(|&&b| b > j).count() as u64;
            assert_eq!(s.servers_above(j), naive, "j = {j}");
        }
        assert_eq!(s.max_backlog(), 9);
        assert_eq!(s.total_backlog(), 23);
        assert!((s.mean_backlog() - 23.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn all_zero_backlogs_are_safe() {
        let s = BacklogSnapshot::from_backlogs(&vec![0u64; 64]);
        let r = s.safety(1.0);
        assert!(r.safe);
        assert_eq!(r.worst_ratio, 0.0);
        assert_eq!(r.first_violation_level, None);
    }

    #[test]
    fn geometric_tail_is_exactly_safe() {
        // m = 64 servers; construct backlogs so #(>j) = m/2^j exactly:
        // 32 servers with backlog 1, 16 with 2, 8 with 3, 4 with 4,
        // 2 with 5, 1 with 6, 1 with 7 -> #(>0)=64 (allowed: j starts at 1).
        let mut backlogs = Vec::new();
        backlogs.extend(std::iter::repeat_n(1u64, 32));
        backlogs.extend(std::iter::repeat_n(2u64, 16));
        backlogs.extend(std::iter::repeat_n(3u64, 8));
        backlogs.extend(std::iter::repeat_n(4u64, 4));
        backlogs.extend(std::iter::repeat_n(5u64, 2));
        backlogs.push(6);
        backlogs.push(7);
        assert_eq!(backlogs.len(), 64);
        let s = BacklogSnapshot::from_backlogs(&backlogs);
        // #(>1) = 32 = 64/2, #(>2) = 16 = 64/4, ... all exactly at bound.
        let r = s.safety(1.0);
        assert!(r.safe, "report: {r:?}");
        assert!((r.worst_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn concentrated_load_is_unsafe() {
        // Half the servers with huge backlog violates every level.
        let mut backlogs = vec![0u64; 32];
        backlogs.extend(std::iter::repeat_n(20u64, 32));
        let s = BacklogSnapshot::from_backlogs(&backlogs);
        let r = s.safety(1.0);
        assert!(!r.safe);
        // #(>2) = 32 > 64/4 = 16, and #(>1)=32 > 64/2=32 is false (equal),
        // so first violation is at level 2.
        assert_eq!(r.first_violation_level, Some(2));
        assert!(r.worst_ratio > 1.0);
    }

    #[test]
    fn slack_loosens_the_check() {
        let mut backlogs = vec![0u64; 48];
        backlogs.extend(std::iter::repeat_n(3u64, 16));
        let s = BacklogSnapshot::from_backlogs(&backlogs);
        // #(>2) = 16 = 64/4 -> safe at slack 1; #(>1) = 16 <= 32 ok.
        assert!(s.safety(1.0).safe);
        // Make it unsafe: more deep servers.
        let mut backlogs = vec![0u64; 32];
        backlogs.extend(std::iter::repeat_n(4u64, 32));
        let s = BacklogSnapshot::from_backlogs(&backlogs);
        assert!(!s.safety(1.0).safe);
        assert!(s.safety(100.0).safe);
    }

    #[test]
    #[should_panic(expected = "need at least one server")]
    fn empty_backlogs_panics() {
        let _ = BacklogSnapshot::from_backlogs(&[]);
    }
}
