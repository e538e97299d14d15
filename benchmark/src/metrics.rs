//! The benchmark's vocabulary: workload and metric names, units and
//! bounds. `BENCHMARK.json` must say the same; a unit test holds the
//! two together.

/// How far a metric may worsen before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the reference median.
    Share(f64),
    /// Must repeat exactly on the deterministic workloads; on
    /// `serve-tcp`, within this absolute distance.
    ExactOr(f64),
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Bound,
}

/// The five end-to-end metrics every workload reports. The first three
/// are host time and memory, bounded as a share of the median, and are
/// the `end_to_end` list of `BENCHMARK.json`. The last two are
/// simulated-time quality: they are zero or small integers, which a
/// share of a median cannot bound, so they are gated exactly instead
/// (inside every run, across its rounds, and by `--agree`).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: Bound::Share(0.25),
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: Bound::Share(0.25),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: Bound::Share(0.08),
    },
    EndToEnd {
        name: "fail_ratio",
        unit: "ratio",
        higher_is_better: false,
        bound: Bound::ExactOr(0.001),
    },
    EndToEnd {
        name: "p99_latency_steps",
        unit: "steps",
        higher_is_better: false,
        bound: Bound::ExactOr(1.0),
    },
];

/// Workloads in round order, each with the reason it exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "engine-dense",
        "Greedy, m=16384 (L2-resident), m repeated chunks a step, end-of-step drain: route, enqueue and the dense drain do the work",
    ),
    (
        "engine-sparse",
        "Greedy, m=262144 (24 MB, outside L2), m/64 fresh chunks a step, 16 interleaved sub-steps: occupancy lists, sparse drain, Floyd sampling, cold placement lookups",
    ),
    (
        "engine-dcr",
        "DelayedCuckoo, m=16384: the same QueueArray with four classes, migrate_class at phase rolls and a cuckoo table built every step",
    ),
    (
        "serve-pipe-small",
        "8 closed-loop clients x 64 over framed pipes, all Get, 8-byte keys: per-frame codec, on_frame, tick and client bookkeeping; no sockets, deterministic",
    ),
    (
        "serve-pipe-large",
        "same driver, 50% Put with 4 KiB values read back by the Gets: encode/decode copies, the BTreeMap store and reply clones carry the time",
    ),
    (
        "serve-tcp",
        "serve_blocking on one thread, one closed-loop client x 1024 over loopback TCP: adds accept, registry, reactor, Pool::map and syscalls",
    ),
];

/// Workloads whose simulated-time quality is a function of the seed.
pub fn is_deterministic(workload: &str) -> bool {
    workload != "serve-tcp"
}

/// Per-layer metrics, `(name, unit, higher_is_better)`; layer = crate.
/// A metric a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str, bool); 56] = [
    ("hash.placement_build_ns_per_chunk", "ns", false),
    ("hash.zipf_build_ns_per_key", "ns", false),
    ("hash.replicas_lookup_ns", "ns", false),
    ("workloads.next_step_ns_per_req", "ns", false),
    ("workloads.chunks_emitted", "count", true),
    ("core.run_ns_per_req", "ns", false),
    ("core.policy_route_ns_per_req", "ns", false),
    ("core.policy_step_hooks_ns_per_step", "ns", false),
    ("core.self_ns_per_req", "ns", false),
    ("core.queue_enqueue_ns", "ns", false),
    ("core.queue_drain_ns_per_completion", "ns", false),
    ("core.queue_drain_ns_per_substep", "ns", false),
    ("core.queue_migrate_ns_per_roll", "ns", false),
    ("core.finish_ns", "ns", false),
    ("core.enqueues", "count", true),
    ("core.rejects", "count", false),
    ("core.drain_events", "count", false),
    ("core.phase_rolls", "count", false),
    ("core.peak_backlog", "count", false),
    ("metrics.hist_record_ns", "ns", false),
    ("kv.get_for_ns_per_req", "ns", false),
    ("kv.commit_step_ns_per_step", "ns", false),
    ("kv.coalesce_ratio", "ratio", false),
    ("serve.encode_ns_per_frame", "ns", false),
    ("serve.decode_ns_per_frame", "ns", false),
    ("serve.bytes_per_frame", "B", false),
    ("serve.on_frame_ns_per_req", "ns", false),
    ("serve.tick_ns_per_req", "ns", false),
    ("serve.tick_ns_per_tick", "ns", false),
    ("serve.reqs_per_tick", "count", true),
    ("serve.pipe_xfer_ns_per_batch", "ns", false),
    ("serve.gate_rejects", "count", false),
    ("serve.replies", "count", true),
    ("serve.rejects", "count", false),
    ("serve.tcp_flush_ns_per_call", "ns", false),
    ("serve.tcp_read_ns_per_call", "ns", false),
    ("serve.tcp_frames_per_read", "count", true),
    ("serve.tcp_empty_read_ratio", "ratio", false),
    ("serve.daemon_cpu_us_per_req", "us", false),
    ("serve.daemon_ticks", "count", false),
    ("load.on_tick_ns_per_req", "ns", false),
    ("load.key_pick_ns", "ns", false),
    ("load.on_frame_ns_per_resp", "ns", false),
    ("load.rtt_p50_us", "us", false),
    ("load.rtt_p99_us", "us", false),
    ("load.idle_sleeps", "count", false),
    ("pool.map_ns_per_call", "ns", false),
    ("meanfield.solve_fixpoint_ms", "ms", false),
    ("driver.req_per_s_p50", "1/s", true),
    ("driver.window_p50_over_p10", "ratio", false),
    ("driver.windows", "count", true),
    ("driver.cpu_us_per_req", "us", false),
    ("driver.trace_overhead_ratio", "ratio", false),
    ("driver.unattributed_share", "ratio", false),
    ("driver.fail_ratio", "ratio", false),
    ("driver.p99_latency_steps", "steps", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_json::Json;

    /// `BENCHMARK.json` and these tables are one vocabulary.
    #[test]
    fn benchmark_json_says_the_same() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(names("workloads"), workloads);
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, &(name, unit, higher)) in layers.iter().zip(&PER_LAYER) {
            let field = |key: &str| entry.get(key).and_then(Json::as_str);
            let better = if higher { "higher" } else { "lower" };
            assert_eq!(
                (field("name"), field("unit"), field("better")),
                (Some(name), Some(unit), Some(better))
            );
        }

        let bounded: Vec<&EndToEnd> = END_TO_END
            .iter()
            .filter(|m| matches!(m.bound, Bound::Share(_)))
            .collect();
        let listed = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), bounded.len());
        for (entry, m) in listed.iter().zip(bounded) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64).map(Bound::Share),
                Some(m.bound)
            );
        }
        let seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert_eq!(seconds, crate::DEFAULT_SECONDS);
        assert_eq!(names("per_layer").len(), PER_LAYER.len());
        let mut unique = names("per_layer");
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), PER_LAYER.len(), "metric names are used once");
    }
}
