//! Golden-trace determinism: tracing must not perturb the engine's
//! determinism, and per-trial JSONL streams spliced in index order
//! yield a byte-identical trace document no matter how many worker
//! threads ran the trials.

use rlb_core::policies::Greedy;
use rlb_core::trace::{parse_jsonl, JsonlSink};
use rlb_core::{SimConfig, TraceEvent};
use rlb_hash::mix::fmix64;
use rlb_kv::KvCluster;
use rlb_pool::Pool;

/// One traced trial: a multi-tenant key workload on a greedy cluster,
/// fully drained, returning summary counters plus the JSONL stream.
fn traced_trial(index: usize) -> ((u64, u64, u64), String) {
    let config = SimConfig::baseline(32).with_seed(0x901d + index as u64);
    let mut kv = KvCluster::new(config, Greedy::new()).with_sink(JsonlSink::new());
    for step in 0..25u64 {
        for key in 0..48u64 {
            kv.get_for((key % 3) as u16, key * 5 + step);
        }
        kv.commit_step();
    }
    kv.idle(12);
    let (report, sink) = kv.finish_traced();
    report.check_conservation().unwrap();
    (
        (report.accepted, report.completed, report.rejected_total),
        sink.into_string(),
    )
}

/// The digest of the six-trial JSONL document, captured from commit
/// 7c46991 and re-captured once when the placement became a hash of the
/// chunk id: it pins every `TenantOp` and engine event byte for byte.
const BASELINE_DIGEST: u64 = 0xb8f16f64840d4747;

fn digest(text: &str) -> u64 {
    text.bytes()
        .fold(text.len() as u64, |h, b| fmix64(h ^ u64::from(b)))
}

/// Runs the traced trials on a private pool of `threads` executors (so
/// they exist whatever the machine) and splices the streams in trial
/// order; each stream is self-terminated (`JsonlSink` ends lines in
/// `\n`).
fn traced_trials(trials: usize, threads: usize) -> (Vec<(u64, u64, u64)>, String) {
    let outcomes = Pool::new(threads).map_indexed(trials, traced_trial);
    let jsonl = outcomes.iter().map(|(_, stream)| stream.as_str()).collect();
    let values = outcomes.into_iter().map(|(value, _)| value).collect();
    (values, jsonl)
}

#[test]
fn golden_trace_is_byte_identical_across_thread_counts() {
    let trials = 6;
    let (baseline_values, baseline_jsonl) = traced_trials(trials, 1);
    assert_eq!(baseline_values.len(), trials);
    assert_eq!(
        digest(&baseline_jsonl),
        BASELINE_DIGEST,
        "trace document {:#018x} moved",
        digest(&baseline_jsonl)
    );
    for threads in [2, 8] {
        let (values, jsonl) = traced_trials(trials, threads);
        assert_eq!(
            values, baseline_values,
            "values differ at {threads} threads"
        );
        assert_eq!(jsonl, baseline_jsonl, "trace differs at {threads} threads");
    }

    // The spliced document is valid JSONL and contains both KV-layer
    // and engine-layer events.
    let events = parse_jsonl(&baseline_jsonl).unwrap();
    assert_eq!(events.len(), baseline_jsonl.lines().count());
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::TenantOp { .. })));
    assert!(events.iter().any(|e| matches!(e, TraceEvent::Route { .. })));
    assert!(events.iter().any(|e| matches!(e, TraceEvent::Drain { .. })));
}

#[test]
fn tenant_ops_carry_coalescing_and_interleave_with_engine_events() {
    let config = SimConfig::baseline(16).with_seed(5);
    let mut kv = KvCluster::new(config, Greedy::new()).with_sink(JsonlSink::new());
    // Two keys of one chunk, so the second `get` coalesces.
    let dir = *kv.directory();
    let (first, chunk) = (1u64, dir.chunk_of(1));
    let second = (2..).find(|&key| dir.chunk_of(key) == chunk).unwrap();
    assert_eq!(kv.get_for(7, first), kv.get_for(8, second));
    kv.commit_step();

    let events = parse_jsonl(kv.sink().as_str()).unwrap();
    let ops: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::TenantOp { .. }))
        .collect();
    assert_eq!(ops.len(), 2);
    assert_eq!(
        *ops[0],
        TraceEvent::TenantOp {
            step: 0,
            tenant: 7,
            key: first,
            chunk,
            coalesced: false,
        }
    );
    assert_eq!(
        *ops[1],
        TraceEvent::TenantOp {
            step: 0,
            tenant: 8,
            key: second,
            chunk,
            coalesced: true,
        }
    );

    // Key ops precede the routing of the step they belong to.
    let first_route = events
        .iter()
        .position(|e| matches!(e, TraceEvent::Route { .. }))
        .expect("commit routed a chunk");
    let last_op = events
        .iter()
        .rposition(|e| matches!(e, TraceEvent::TenantOp { .. }))
        .unwrap();
    assert!(last_op < first_route, "tenant ops precede routing");
}
