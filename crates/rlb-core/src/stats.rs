//! Run statistics: the paper's optimization criteria, measured.
//!
//! [`RunStats`] accumulates exact counters during a simulation and
//! finalizes into a [`RunReport`] computing the rejection rate
//! (Definition 2.1), average/maximum latency (Definition 2.2), backlog
//! statistics, and safe-distribution compliance (Definition 3.2).

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

use crate::policy::RejectReason;
use rlb_metrics::{BacklogSnapshot, Histogram, KahanSum, RunningMean, TimeSeries};

/// Mutable statistics accumulated during a run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Requests presented to the policy.
    pub arrived: u64,
    /// Requests enqueued.
    pub accepted: u64,
    /// Rejections by cause, indexed by [`RejectReason`] discriminant.
    pub rejected: [u64; crate::policy::NUM_REJECT_REASONS],
    /// Requests fully processed (dequeued).
    pub completed: u64,
    /// Latency (completion step − arrival step) of completed requests.
    pub latency: Histogram,
    /// Latency histograms split by the queue class the request was
    /// served from (e.g. DCR's Q/P/Q'/P'). Sized lazily on first use.
    pub latency_by_class: Vec<Histogram>,
    /// Mean backlog per sampled step.
    pub backlog_series: TimeSeries,
    /// Number of safety checks performed.
    pub safety_samples: u64,
    /// Number of safety checks that violated Definition 3.2 (slack 1).
    pub safety_violations: u64,
    /// Largest `worst_ratio` over all safety checks (minimal slack
    /// needed for every sampled snapshot to be safe).
    pub worst_safety_ratio: f64,
    /// Maximum per-server backlog ever observed at a sample point.
    pub max_backlog: u64,
    /// Maximum per-server backlog observed at *enqueue time* (within a
    /// step, before the drain) — the quantity the queue capacity `q`
    /// actually bounds.
    pub peak_backlog: u32,
    /// Compensated running mean of per-sample mean backlogs. Long
    /// validation runs sample every step; a plain `sum += mean` drifts
    /// at those scales (see `rlb_metrics::KahanSum`).
    backlog_mean: RunningMean,
    /// Per-level compensated sums of tail occupancy: `tail_sums[j]`
    /// accumulates the fraction of servers with backlog `>= j + 1`
    /// over sampled snapshots.
    tail_sums: Vec<KahanSum>,
}

impl Default for RunStats {
    fn default() -> Self {
        Self::new()
    }
}

impl RunStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self {
            arrived: 0,
            accepted: 0,
            rejected: [0; crate::policy::NUM_REJECT_REASONS],
            completed: 0,
            latency: Histogram::new(),
            latency_by_class: Vec::new(),
            backlog_series: TimeSeries::new(512),
            safety_samples: 0,
            safety_violations: 0,
            worst_safety_ratio: 0.0,
            max_backlog: 0,
            peak_backlog: 0,
            backlog_mean: RunningMean::new(),
            tail_sums: Vec::new(),
        }
    }

    /// Records the backlog of a server right after an enqueue.
    #[inline]
    pub(crate) fn record_enqueue_backlog(&mut self, backlog: u32) {
        if backlog > self.peak_backlog {
            self.peak_backlog = backlog;
        }
    }

    /// Records a rejection.
    #[inline]
    pub fn record_reject(&mut self, reason: RejectReason) {
        if let Some(slot) = self.rejected.get_mut(reason as usize) {
            *slot = slot.saturating_add(1);
        }
    }

    /// Records `n` completed requests served from queue `class`, all
    /// sharing the same latency (the drain folds its per-latency counts
    /// into one histogram update each).
    ///
    /// The per-class vector sizes lazily on first use (the serialized
    /// report only carries classes that completed work), with the growth
    /// branch kept out of the inlined path.
    #[inline]
    pub(crate) fn record_completion_in_class_n(&mut self, class: usize, latency: u64, n: u64) {
        if self.latency_by_class.len() <= class {
            self.grow_latency_classes(class);
        }
        if let Some(h) = self.latency_by_class.get_mut(class) {
            h.record_n(latency, n);
        }
        self.completed = self.completed.saturating_add(n);
        self.latency.record_n(latency, n);
    }

    /// Cold growth path for [`RunStats::record_completion_in_class_n`]:
    /// runs at most once per class over a whole run.
    #[cold]
    #[inline(never)]
    fn grow_latency_classes(&mut self, class: usize) {
        self.latency_by_class
            .resize_with(class.saturating_add(1), Histogram::new);
    }

    /// Ingests a backlog snapshot (called at sampling points).
    pub fn record_snapshot(&mut self, snapshot: &BacklogSnapshot) {
        self.safety_samples = self.safety_samples.saturating_add(1);
        let report = snapshot.safety(1.0);
        if !report.safe {
            self.safety_violations = self.safety_violations.saturating_add(1);
        }
        if report.worst_ratio > self.worst_safety_ratio {
            self.worst_safety_ratio = report.worst_ratio;
        }
        self.max_backlog = self.max_backlog.max(snapshot.max_backlog());
        let mean = snapshot.mean_backlog();
        self.backlog_mean.add(mean);
        self.backlog_series.push(mean);
        // Accumulate the tail-occupancy fractions: level j covers
        // servers with backlog >= j + 1. Levels this snapshot does not
        // reach contribute an exact zero via `servers_above`.
        let levels = usize::try_from(snapshot.max_backlog()).unwrap_or(usize::MAX);
        if self.tail_sums.len() < levels {
            self.tail_sums.resize_with(levels, KahanSum::new);
        }
        let m = snapshot.num_servers() as f64;
        for (j, slot) in self.tail_sums.iter_mut().enumerate() {
            slot.add(snapshot.servers_above(j as u64) as f64 / m);
        }
    }

    /// Total rejections across causes.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.iter().sum()
    }

    /// Finalizes into an immutable report.
    #[expect(clippy::indexing_slicing, reason = "one slot per RejectReason")]
    pub fn finish(self, steps: u64, in_flight: u64) -> RunReport {
        let rejected_total = self.rejected_total();
        RunReport {
            steps,
            arrived: self.arrived,
            accepted: self.accepted,
            rejected_policy: self.rejected[RejectReason::Policy as usize],
            rejected_table: self.rejected[RejectReason::TableFailed as usize],
            rejected_overflow: self.rejected[RejectReason::Overflow as usize],
            rejected_flush: self.rejected[RejectReason::Flush as usize],
            rejected_down: self.rejected[RejectReason::ServerDown as usize],
            rejected_total,
            completed: self.completed,
            in_flight,
            rejection_rate: if self.arrived > 0 {
                rejected_total as f64 / self.arrived as f64
            } else {
                0.0
            },
            avg_latency: self.latency.mean().unwrap_or(0.0),
            p99_latency: self.latency.quantile(0.99).unwrap_or(0),
            max_latency: self.latency.max().unwrap_or(0),
            latency: self.latency,
            latency_by_class: self.latency_by_class,
            mean_backlog: self.backlog_mean.mean().unwrap_or(0.0),
            backlog_tail: {
                let samples = self.backlog_mean.count();
                if samples == 0 {
                    Vec::new()
                } else {
                    let n = samples as f64;
                    let mut tail = Vec::with_capacity(self.tail_sums.len().saturating_add(1));
                    // Every server trivially has backlog >= 0.
                    tail.push(1.0);
                    tail.extend(
                        self.tail_sums
                            .iter()
                            // Float division: n is f64.
                            .map(|s| (s.value() / n).clamp(0.0, 1.0)),
                    );
                    tail
                }
            },
            max_backlog: self.max_backlog,
            peak_backlog: self.peak_backlog,
            safety_samples: self.safety_samples,
            safety_violations: self.safety_violations,
            worst_safety_ratio: self.worst_safety_ratio,
            backlog_series: self.backlog_series,
        }
    }
}

/// Immutable summary of a finished run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Steps simulated.
    pub steps: u64,
    /// Requests presented.
    pub arrived: u64,
    /// Requests enqueued.
    pub accepted: u64,
    /// Rejections: policy declined.
    pub rejected_policy: u64,
    /// Rejections: delayed-cuckoo table failure.
    pub rejected_table: u64,
    /// Rejections: engine-level queue overflow.
    pub rejected_overflow: u64,
    /// Rejections: periodic flush (and phase-migration overflow).
    pub rejected_flush: u64,
    /// Rejections: target server down (outage schedule).
    pub rejected_down: u64,
    /// All rejections.
    pub rejected_total: u64,
    /// Requests fully processed.
    pub completed: u64,
    /// Requests still queued at the end of the run.
    pub in_flight: u64,
    /// Definition 2.1: `rejected / arrived`.
    pub rejection_rate: f64,
    /// Definition 2.2: mean latency of completed requests (steps).
    pub avg_latency: f64,
    /// 99th-percentile latency.
    pub p99_latency: u64,
    /// Maximum latency of any completed request.
    pub max_latency: u64,
    /// The full latency histogram.
    pub latency: Histogram,
    /// Per-queue-class latency histograms (empty when the policy uses a
    /// single class or no request completed).
    pub latency_by_class: Vec<Histogram>,
    /// Mean of per-sample mean backlogs.
    pub mean_backlog: f64,
    /// Time-averaged tail occupancy over sampled snapshots:
    /// `backlog_tail[k]` is the mean fraction of servers with backlog
    /// `>= k` (`backlog_tail[0]` is 1.0 by construction; empty when no
    /// snapshot was sampled). This is the discrete counterpart of the
    /// mean-field solver's state vector `s[k]` and the quantity the
    /// solver-vs-engine cross-validation compares.
    pub backlog_tail: Vec<f64>,
    /// Largest per-server backlog at any sample point.
    pub max_backlog: u64,
    /// Largest per-server backlog at any enqueue (within-step peak; this
    /// is what the queue capacity `q` bounds).
    pub peak_backlog: u32,
    /// Safety checks performed (Definition 3.2).
    pub safety_samples: u64,
    /// Safety checks violated at slack 1.
    pub safety_violations: u64,
    /// Minimal slack at which all sampled snapshots are safe.
    pub worst_safety_ratio: f64,
    /// Mean-backlog time series (downsampled).
    pub backlog_series: TimeSeries,
}

impl RunReport {
    /// Conservation check: every arrived request is accounted for.
    /// Returns an error naming the broken identity.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "request counts: no sum passes twice the arrivals"
    )]
    pub fn check_conservation(&self) -> Result<(), String> {
        let routing_rejections = self.rejected_policy
            + self.rejected_table
            + self.rejected_overflow
            + self.rejected_down;
        if self.accepted + routing_rejections != self.arrived {
            return Err(format!(
                "arrived {} != accepted {} + routing rejections {}",
                self.arrived, self.accepted, routing_rejections
            ));
        }
        // Flushed requests were accepted first, then dropped.
        if self.completed + self.in_flight + self.rejected_flush != self.accepted {
            return Err(format!(
                "accepted {} != completed {} + in_flight {} + flushed {}",
                self.accepted, self.completed, self.in_flight, self.rejected_flush
            ));
        }
        Ok(())
    }
}

rlb_json::json_struct!(RunReport {
    steps,
    arrived,
    accepted,
    rejected_policy,
    rejected_table,
    rejected_overflow,
    rejected_flush,
    rejected_down,
    rejected_total,
    completed,
    in_flight,
    rejection_rate,
    avg_latency,
    p99_latency,
    max_latency,
    latency,
    latency_by_class,
    mean_backlog,
    backlog_tail,
    max_backlog,
    peak_backlog,
    safety_samples,
    safety_violations,
    worst_safety_ratio,
    backlog_series,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_rates() {
        let mut s = RunStats::new();
        s.arrived = 10;
        s.accepted = 8;
        s.record_reject(RejectReason::Policy);
        s.record_reject(RejectReason::Overflow);
        s.record_completion_in_class_n(0, 3, 1);
        s.record_completion_in_class_n(0, 5, 1);
        let r = s.finish(4, 6);
        assert_eq!(r.rejected_total, 2);
        assert!((r.rejection_rate - 0.2).abs() < 1e-12);
        assert_eq!(r.avg_latency, 4.0);
        assert_eq!(r.max_latency, 5);
        r.check_conservation().unwrap();
    }

    #[test]
    fn conservation_detects_mismatch() {
        let mut s = RunStats::new();
        s.arrived = 5;
        s.accepted = 5;
        let r = s.finish(1, 0); // 5 accepted, 0 completed, 0 in flight
        assert!(r.check_conservation().is_err());
    }

    #[test]
    fn snapshot_ingestion_tracks_safety() {
        let mut s = RunStats::new();
        let safe = BacklogSnapshot::from_backlogs(&[0u64; 16]);
        s.record_snapshot(&safe);
        let mut bad = vec![0u64; 8];
        bad.extend(std::iter::repeat_n(30u64, 8));
        let unsafe_snap = BacklogSnapshot::from_backlogs(&bad);
        s.record_snapshot(&unsafe_snap);
        assert_eq!(s.safety_samples, 2);
        assert_eq!(s.safety_violations, 1);
        assert!(s.worst_safety_ratio > 1.0);
        assert_eq!(s.max_backlog, 30);
    }

    #[test]
    fn backlog_tail_is_the_time_averaged_occupancy() {
        let mut s = RunStats::new();
        // Two snapshots over 4 servers: backlogs (0,1,2,2) then (0,0,0,2).
        s.record_snapshot(&BacklogSnapshot::from_backlogs(&[0, 1, 2, 2]));
        s.record_snapshot(&BacklogSnapshot::from_backlogs(&[0, 0, 0, 2]));
        let r = s.finish(2, 0);
        // tail[0] = 1; tail[1] = (3/4 + 1/4)/2 = 0.5; tail[2] = (2/4 + 1/4)/2.
        assert_eq!(r.backlog_tail.len(), 3);
        assert!((r.backlog_tail[0] - 1.0).abs() < 1e-12);
        assert!((r.backlog_tail[1] - 0.5).abs() < 1e-12);
        assert!((r.backlog_tail[2] - 0.375).abs() < 1e-12);
        // Monotone non-increasing, as a tail vector must be.
        assert!(r.backlog_tail.windows(2).all(|w| w[1] <= w[0] + 1e-12));
        // Mean backlog agrees with the tail-vector identity Σ_{k>=1} s[k].
        let tail_mean: f64 = r.backlog_tail.iter().skip(1).sum();
        assert!((r.mean_backlog - tail_mean).abs() < 1e-12);
    }

    #[test]
    fn backlog_tail_is_empty_without_snapshots() {
        let r = RunStats::new().finish(5, 0);
        assert!(r.backlog_tail.is_empty());
    }

    #[test]
    fn empty_run_report_is_clean() {
        let r = RunStats::new().finish(0, 0);
        assert_eq!(r.rejection_rate, 0.0);
        assert_eq!(r.avg_latency, 0.0);
        r.check_conservation().unwrap();
    }
}
