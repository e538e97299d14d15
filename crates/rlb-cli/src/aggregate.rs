//! Folding a trace event stream back into metrics: the per-class
//! latency summary `rlb-sim trace` prints from the persisted file.

use rlb_core::{latency_steps, TraceCause, TraceEvent};
use rlb_metrics::table::{fmt_f, fmt_u};
use rlb_metrics::{Histogram, Table};

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

/// Folds events into `rlb-metrics` histograms.
///
/// This reconstructs the per-class latency anatomy that the engine's
/// own [`rlb_core::RunReport`] records — but from the event stream
/// alone, so the same numbers are derivable from a persisted JSONL
/// trace of any run (see experiment E18 for the in-engine version).
///
/// Completion latency comes from [`TraceEvent::Drain`]
/// ([`latency_steps`] per drained request, the engine's own spelling, so
/// the two agree across step 2³² too); rejection counts from
/// [`TraceEvent::Reject`] plus flush and phase-roll drop counters.
#[derive(Debug, Default)]
pub(crate) struct Aggregator {
    latency: Histogram,
    latency_by_class: Vec<Histogram>,
    rejects: [u64; NUM_CAUSES],
    routes: u64,
    enqueues: u64,
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

impl Aggregator {
    /// Folds one event of a parsed stream in.
    pub(crate) fn ingest(&mut self, event: &TraceEvent) {
        self.events += 1;
        self.max_step = self.max_step.max(event.step());
        match event {
            TraceEvent::Route { .. } => self.routes += 1,
            TraceEvent::Enqueue { .. } => self.enqueues += 1,
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
            TraceEvent::Flush { dropped, .. } => self.flush_dropped += dropped,
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
    pub(crate) fn completed(&self) -> u64 {
        self.latency.count()
    }

    /// Successful enqueues.
    pub(crate) fn enqueues(&self) -> u64 {
        self.enqueues
    }

    /// Renders the per-class latency anatomy in experiment E18's table
    /// layout, with traffic counters as footnotes.
    pub(crate) fn summary_table(&self) -> Table {
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
            .map(|&c| format!("{} {}", cause_label(c), self.rejects[c as usize]))
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
    use rlb_core::policies::DelayedCuckoo;
    use rlb_core::trace::{parse_jsonl, JsonlSink};
    use rlb_core::{SimConfig, Simulation, Workload};
    use rlb_workloads::RepeatedSet;

    #[test]
    fn folds_each_event_kind() {
        let mut agg = Aggregator::default();
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

        assert_eq!(agg.events, 9);
        assert_eq!(agg.routes, 1);
        assert_eq!(agg.enqueues(), 1);
        assert_eq!(agg.completed(), 2);
        assert_eq!(agg.latency.mean(), Some(2.5));
        assert_eq!(agg.latency_by_class.len(), 2);
        assert_eq!(agg.latency_by_class[1].count(), 2);
        assert_eq!(agg.rejects[TraceCause::Overflow as usize], 1);
        assert_eq!(agg.flush_dropped, 2);
        assert_eq!(agg.phase_dropped, 1);
        assert_eq!(agg.phase_rolls, 1);
        assert_eq!((agg.outage_begins, agg.outage_ends), (1, 1));
        assert_eq!((agg.tenant_ops, agg.tenant_coalesced), (1, 1));
        assert_eq!(agg.max_step, 8);

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
        let mut agg = Aggregator::default();
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
        assert_eq!(agg.latency.max(), Some(2));
        assert_eq!(agg.latency.mean(), Some(1.5));
    }

    #[test]
    fn empty_summary_renders() {
        let agg = Aggregator::default();
        assert_eq!(agg.completed(), 0);
        let rendered = agg.summary_table().render();
        assert!(rendered.contains("rejects"), "{rendered}");
    }

    fn hist_pairs(h: &Histogram) -> Vec<(u64, u64)> {
        h.iter().collect()
    }

    /// The acceptance check for the trace route: the aggregator fed the
    /// persisted JSONL stream of a DCR repeated-set run — the route
    /// `rlb-sim trace` takes — must reproduce the engine's own
    /// per-class latency anatomy (experiment E18's table) exactly.
    #[test]
    fn aggregator_reproduces_e18_class_latency_anatomy() {
        // E18's quick configuration: DCR on a repeated set, so the table
        // (P) class dominates completions; g = 8 (rather than the theorem
        // regime's 16) slows drains enough that the carry classes Q'/P'
        // see traffic too.
        let m = 512;
        let config = SimConfig::dcr_theorem(m, 8, 4).with_seed(0xe18 + 8);
        let policy = DelayedCuckoo::new(&config);
        let mut workload = RepeatedSet::first_k(m as u32, 29);

        let mut sim = Simulation::new(config, policy).with_sink(JsonlSink::new());
        sim.run(&mut workload as &mut dyn Workload, 400);
        let (report, jsonl) = sim.finish_traced();

        report.check_conservation().unwrap();
        assert!(report.completed > 0, "run must complete requests");

        let events = parse_jsonl(jsonl.as_str()).unwrap();
        assert_eq!(events.len() as u64, jsonl.lines());
        let mut agg = Aggregator::default();
        for ev in &events {
            agg.ingest(ev);
        }
        assert_eq!(agg.events, jsonl.lines());

        // Traffic counters line up with the engine's aggregate report:
        // every rejection is a routing-time reject or a flush or
        // phase-roll drop.
        assert_eq!(agg.enqueues(), report.accepted);
        assert_eq!(agg.completed(), report.completed);
        let rejected = agg.rejects.iter().sum::<u64>() + agg.flush_dropped + agg.phase_dropped;
        assert_eq!(rejected, report.rejected_total);
        assert_eq!(agg.flush_dropped, report.rejected_flush);

        // The per-class latency anatomy — E18's table — matches the
        // engine's own histograms sample for sample.
        assert_eq!(
            agg.latency_by_class.len(),
            report.latency_by_class.len(),
            "same set of queue classes"
        );
        for (c, (ours, theirs)) in agg
            .latency_by_class
            .iter()
            .zip(report.latency_by_class.iter())
            .enumerate()
        {
            assert_eq!(hist_pairs(ours), hist_pairs(theirs), "class {c}");
            assert_eq!(ours.mean(), theirs.mean(), "class {c} mean");
            assert_eq!(ours.quantile(0.99), theirs.quantile(0.99), "class {c} p99");
            assert_eq!(ours.max(), theirs.max(), "class {c} max");
        }
        assert_eq!(hist_pairs(&agg.latency), hist_pairs(&report.latency));

        // The repeated set routes mostly through the table class (P).
        let total = agg.completed().max(1);
        let p_share = agg
            .latency_by_class
            .get(1)
            .map(|h| h.count() as f64 / total as f64)
            .unwrap_or(0.0);
        assert!(p_share > 0.5, "P share {p_share:.2}");

        // The rendered summary labels every class the engine reported,
        // under E18's naming.
        let rendered = agg.summary_table().render();
        let names = ["Q", "P", "Q'", "P'"];
        for name in &names[..agg.latency_by_class.len().min(names.len())] {
            assert!(rendered.contains(name), "{rendered}");
        }
    }
}
