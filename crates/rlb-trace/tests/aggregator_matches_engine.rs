//! The acceptance check for the trace subsystem: an [`Aggregator`] fed
//! the persisted JSONL stream of a DCR repeated-set run — the route
//! `rlb-sim trace` takes — must reproduce the engine's own per-class
//! latency anatomy (experiment E18's table) exactly.

use rlb_core::policies::DelayedCuckoo;
use rlb_core::{SimConfig, Simulation, Workload};
use rlb_metrics::Histogram;
use rlb_trace::{parse_jsonl, Aggregator, JsonlSink};
use rlb_workloads::RepeatedSet;

fn hist_pairs(h: &Histogram) -> Vec<(u64, u64)> {
    h.iter().collect()
}

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
    let mut agg = Aggregator::new();
    for ev in &events {
        agg.ingest(ev);
    }
    assert_eq!(agg.events(), jsonl.lines());

    // Traffic counters line up with the engine's aggregate report.
    assert_eq!(agg.enqueues(), report.accepted);
    assert_eq!(agg.completed(), report.completed);
    assert_eq!(agg.rejected_total(), report.rejected_total);
    assert_eq!(agg.flush_dropped(), report.rejected_flush);

    // The per-class latency anatomy — E18's table — matches the
    // engine's own histograms sample for sample.
    assert_eq!(
        agg.latency_by_class().len(),
        report.latency_by_class.len(),
        "same set of queue classes"
    );
    for (c, (ours, theirs)) in agg
        .latency_by_class()
        .iter()
        .zip(report.latency_by_class.iter())
        .enumerate()
    {
        assert_eq!(hist_pairs(ours), hist_pairs(theirs), "class {c}");
        assert_eq!(ours.mean(), theirs.mean(), "class {c} mean");
        assert_eq!(ours.quantile(0.99), theirs.quantile(0.99), "class {c} p99");
        assert_eq!(ours.max(), theirs.max(), "class {c} max");
    }
    assert_eq!(hist_pairs(agg.latency()), hist_pairs(&report.latency));

    // The repeated set routes mostly through the table class (P).
    let total = agg.completed().max(1);
    let p_share = agg
        .latency_by_class()
        .get(1)
        .map(|h| h.count() as f64 / total as f64)
        .unwrap_or(0.0);
    assert!(p_share > 0.5, "P share {p_share:.2}");

    // The rendered summary labels every class the engine reported,
    // under E18's naming.
    let rendered = agg.summary_table().render();
    let names = ["Q", "P", "Q'", "P'"];
    for name in &names[..agg.latency_by_class().len().min(names.len())] {
        assert!(rendered.contains(name), "{rendered}");
    }
}
