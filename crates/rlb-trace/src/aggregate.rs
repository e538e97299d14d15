//! Folding an event stream back into metrics.

use rlb_core::{latency_steps, TraceCause, TraceEvent};
use rlb_metrics::table::{fmt_f, fmt_u};
use rlb_metrics::{Histogram, Table, TimeSeries};

/// Number of [`TraceCause`] variants (array index space for counters).
const NUM_CAUSES: usize = 5;

/// Queue-class labels, matching experiment E18's convention for DCR
/// (greedy has a single class, labelled `Q`).
const CLASS_NAMES: [&str; 4] = ["Q", "P", "Q'", "P'"];

fn cause_label(cause: TraceCause) -> &'static str {
    match cause {
        TraceCause::Shed => "shed",
        TraceCause::Table => "table",
        TraceCause::Overflow => "overflow",
        TraceCause::Flush => "flush",
        TraceCause::Outage => "outage",
    }
}

const ALL_CAUSES: [TraceCause; NUM_CAUSES] = [
    TraceCause::Shed,
    TraceCause::Table,
    TraceCause::Overflow,
    TraceCause::Flush,
    TraceCause::Outage,
];

/// Folds events into `rlb-metrics` histograms and time series.
///
/// This reconstructs the per-class latency anatomy that the engine's
/// own [`rlb_core::RunReport`] records — but from the event stream
/// alone, so the same numbers are derivable from a persisted JSONL
/// trace of any run (see experiment E18 for the in-engine version).
///
/// Completion latency comes from [`TraceEvent::Drain`]
/// ([`latency_steps`] per drained request, the engine's own spelling, so
/// the two agree across step 2³² too); enqueue-time backlog from
/// [`TraceEvent::Enqueue`]; rejection counts from
/// [`TraceEvent::Reject`] plus flush and phase-roll drop counters.
#[derive(Debug, Clone)]
pub struct Aggregator {
    latency: Histogram,
    latency_by_class: Vec<Histogram>,
    enqueue_backlog: Histogram,
    backlog_series: TimeSeries,
    rejects: [u64; NUM_CAUSES],
    routes: u64,
    enqueues: u64,
    flushes: u64,
    flush_dropped: u64,
    phase_rolls: u64,
    phase_dropped: u64,
    outage_begins: u64,
    outage_ends: u64,
    tenant_ops: u64,
    tenant_coalesced: u64,
    events: u64,
    max_step: u64,
}

impl Default for Aggregator {
    fn default() -> Self {
        Self::new()
    }
}

impl Aggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self {
            latency: Histogram::new(),
            latency_by_class: Vec::new(),
            enqueue_backlog: Histogram::new(),
            backlog_series: TimeSeries::new(512),
            rejects: [0; NUM_CAUSES],
            routes: 0,
            enqueues: 0,
            flushes: 0,
            flush_dropped: 0,
            phase_rolls: 0,
            phase_dropped: 0,
            outage_begins: 0,
            outage_ends: 0,
            tenant_ops: 0,
            tenant_coalesced: 0,
            events: 0,
            max_step: 0,
        }
    }

    /// Folds one event of a parsed stream in.
    pub fn ingest(&mut self, event: &TraceEvent) {
        self.events += 1;
        self.max_step = self.max_step.max(event.step());
        match event {
            TraceEvent::Route { .. } => self.routes += 1,
            TraceEvent::Enqueue { backlog, .. } => {
                self.enqueues += 1;
                self.enqueue_backlog.record(u64::from(*backlog));
                self.backlog_series.push(f64::from(*backlog));
            }
            TraceEvent::Reject { cause, .. } => {
                self.rejects[*cause as usize] += 1;
            }
            TraceEvent::Drain {
                step,
                class,
                arrivals,
                ..
            } => {
                let class = usize::from(*class);
                if self.latency_by_class.len() <= class {
                    self.latency_by_class.resize_with(class + 1, Histogram::new);
                }
                for &arrival in arrivals {
                    let latency = latency_steps(*step, arrival);
                    self.latency.record(latency);
                    self.latency_by_class[class].record(latency);
                }
            }
            TraceEvent::Flush { dropped, .. } => {
                self.flushes += 1;
                self.flush_dropped += dropped;
            }
            TraceEvent::PhaseRoll { dropped, .. } => {
                self.phase_rolls += 1;
                self.phase_dropped += dropped;
            }
            TraceEvent::OutageBegin { .. } => self.outage_begins += 1,
            TraceEvent::OutageEnd { .. } => self.outage_ends += 1,
            TraceEvent::TenantOp { coalesced, .. } => {
                self.tenant_ops += 1;
                if *coalesced {
                    self.tenant_coalesced += 1;
                }
            }
        }
    }

    /// Total completed requests (drained entries).
    pub fn completed(&self) -> u64 {
        self.latency.count()
    }

    /// Completion latency over all classes.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Completion latency per queue class.
    pub fn latency_by_class(&self) -> &[Histogram] {
        &self.latency_by_class
    }

    /// Per-server backlog observed at each enqueue.
    pub fn enqueue_backlog(&self) -> &Histogram {
        &self.enqueue_backlog
    }

    /// Backlog-at-enqueue as a (downsampled) series over enqueues.
    pub fn backlog_series(&self) -> &TimeSeries {
        &self.backlog_series
    }

    /// Routing-time rejections recorded for `cause`.
    pub fn rejects(&self, cause: TraceCause) -> u64 {
        self.rejects[cause as usize]
    }

    /// All routing-time rejections plus flush and phase-roll drops.
    pub fn rejected_total(&self) -> u64 {
        self.rejects.iter().sum::<u64>() + self.flush_dropped + self.phase_dropped
    }

    /// Routing decisions that chose a server.
    pub fn routes(&self) -> u64 {
        self.routes
    }

    /// Successful enqueues.
    pub fn enqueues(&self) -> u64 {
        self.enqueues
    }

    /// Requests dropped by periodic flushes.
    pub fn flush_dropped(&self) -> u64 {
        self.flush_dropped
    }

    /// Phase-boundary class migrations observed.
    pub fn phase_rolls(&self) -> u64 {
        self.phase_rolls
    }

    /// `(down, up)` outage transitions observed.
    pub fn outage_transitions(&self) -> (u64, u64) {
        (self.outage_begins, self.outage_ends)
    }

    /// `(total, coalesced)` KV-layer tenant operations observed.
    pub fn tenant_ops(&self) -> (u64, u64) {
        (self.tenant_ops, self.tenant_coalesced)
    }

    /// Total events folded in.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Largest step seen in any event.
    pub fn max_step(&self) -> u64 {
        self.max_step
    }

    /// Renders the per-class latency anatomy in experiment E18's table
    /// layout, with traffic counters as footnotes.
    pub fn summary_table(&self) -> Table {
        let mut table = Table::new(
            "trace summary: latency by queue class",
            &[
                "class",
                "completed",
                "share",
                "avg-lat",
                "p99-lat",
                "max-lat",
            ],
        );
        let completed = self.completed();
        for (c, hist) in self.latency_by_class.iter().enumerate() {
            let name = CLASS_NAMES
                .get(c)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("c{c}"));
            table.row(vec![
                name,
                fmt_u(hist.count()),
                fmt_f(hist.count() as f64 / completed.max(1) as f64, 3),
                fmt_f(hist.mean().unwrap_or(0.0), 2),
                fmt_u(hist.quantile(0.99).unwrap_or(0)),
                fmt_u(hist.max().unwrap_or(0)),
            ]);
        }
        table.note(format!(
            "events {}  routes {}  enqueues {}  completed {}  steps 0..={}",
            self.events, self.routes, self.enqueues, completed, self.max_step
        ));
        let rejects: Vec<String> = ALL_CAUSES
            .iter()
            .map(|&c| format!("{} {}", cause_label(c), self.rejects(c)))
            .collect();
        table.note(format!(
            "rejects: {}  flush-dropped {}  phase-dropped {}",
            rejects.join("  "),
            self.flush_dropped,
            self.phase_dropped
        ));
        if self.phase_rolls + self.outage_begins + self.tenant_ops > 0 {
            table.note(format!(
                "phase-rolls {}  outages {}/{}  tenant-ops {} ({} coalesced)",
                self.phase_rolls,
                self.outage_begins,
                self.outage_ends,
                self.tenant_ops,
                self.tenant_coalesced
            ));
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_each_event_kind() {
        let mut agg = Aggregator::new();
        agg.ingest(&TraceEvent::Route {
            step: 1,
            chunk: 0,
            server: 0,
            class: 0,
            candidates: vec![0, 1],
            backlogs: vec![0, 0],
        });
        agg.ingest(&TraceEvent::Enqueue {
            step: 1,
            server: 0,
            class: 0,
            backlog: 3,
        });
        agg.ingest(&TraceEvent::Reject {
            step: 1,
            chunk: 2,
            cause: TraceCause::Overflow,
        });
        agg.ingest(&TraceEvent::Drain {
            step: 4,
            server: 0,
            class: 1,
            arrivals: vec![1, 2],
        });
        agg.ingest(&TraceEvent::Flush {
            step: 5,
            dropped: 2,
        });
        agg.ingest(&TraceEvent::PhaseRoll {
            step: 6,
            from: 0,
            to: 2,
            dropped: 1,
        });
        agg.ingest(&TraceEvent::OutageBegin { step: 7, server: 3 });
        agg.ingest(&TraceEvent::OutageEnd { step: 8, server: 3 });
        agg.ingest(&TraceEvent::TenantOp {
            step: 8,
            tenant: 0,
            key: 1,
            chunk: 1,
            coalesced: true,
        });

        assert_eq!(agg.events(), 9);
        assert_eq!(agg.routes(), 1);
        assert_eq!(agg.enqueues(), 1);
        assert_eq!(agg.enqueue_backlog().max(), Some(3));
        assert_eq!(agg.completed(), 2);
        assert_eq!(agg.latency().mean(), Some(2.5));
        assert_eq!(agg.latency_by_class().len(), 2);
        assert_eq!(agg.latency_by_class()[1].count(), 2);
        assert_eq!(agg.rejects(TraceCause::Overflow), 1);
        assert_eq!(agg.rejected_total(), 1 + 2 + 1);
        assert_eq!(agg.flush_dropped(), 2);
        assert_eq!(agg.phase_rolls(), 1);
        assert_eq!(agg.outage_transitions(), (1, 1));
        assert_eq!(agg.tenant_ops(), (1, 1));
        assert_eq!(agg.max_step(), 8);

        let rendered = agg.summary_table().render();
        assert!(rendered.contains("Q"), "{rendered}");
        assert!(rendered.contains("flush-dropped 2"), "{rendered}");
        assert!(rendered.contains("phase-rolls 1"), "{rendered}");
    }

    #[test]
    fn latency_is_read_modulo_two_to_the_32() {
        // `arrivals` carry the low 32 bits of the arrival step, so from
        // step 2^32 on a plain `step - arrival` in u64 is off by a
        // multiple of 2^32 (the second event read ~2^33 and ~2^32).
        let mut agg = Aggregator::new();
        agg.ingest(&TraceEvent::Drain {
            step: 1 << 32,
            server: 0,
            class: 0,
            arrivals: vec![u32::MAX, u32::MAX - 1],
        });
        agg.ingest(&TraceEvent::Drain {
            step: (1 << 33) + 1,
            server: 0,
            class: 0,
            arrivals: vec![u32::MAX, 0],
        });
        assert_eq!(agg.completed(), 4);
        assert_eq!(agg.latency().max(), Some(2));
        assert_eq!(agg.latency().mean(), Some(1.5));
    }

    #[test]
    fn empty_summary_renders() {
        let agg = Aggregator::new();
        assert_eq!(agg.completed(), 0);
        let rendered = agg.summary_table().render();
        assert!(rendered.contains("rejects"), "{rendered}");
    }
}
