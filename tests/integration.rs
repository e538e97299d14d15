//! Cross-crate integration tests: workloads → simulator → metrics → KV.

use reappearance_lb::core::policies::{DelayedCuckoo, Greedy, OneChoice, UniformRandom};
use reappearance_lb::core::{DrainMode, RunReport, SimConfig, Simulation, Workload};
use reappearance_lb::kv::KvCluster;
use reappearance_lb::pool::Pool;
use reappearance_lb::workloads::{FreshRandom, PartialRepeat, RepeatedSet, Trace, ZipfDistinct};

fn base(m: usize, seed: u64) -> SimConfig {
    SimConfig {
        num_servers: m,
        num_chunks: 4 * m,
        replication: 2,
        process_rate: 8,
        queue_capacity: 10,
        flush_interval: None,
        drain_mode: DrainMode::EndOfStep,
        seed,
        safety_check_every: Some(1),
    }
}

fn run_greedy(config: SimConfig, workload: &mut dyn Workload, steps: u64) -> RunReport {
    let mut sim = Simulation::new(config, Greedy::new());
    sim.run(workload, steps);
    sim.finish()
}

#[test]
fn every_workload_generator_drives_the_engine() {
    let m = 128usize;
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(RepeatedSet::first_k(m as u32, 1)),
        Box::new(FreshRandom::new(4 * m as u64, m, 2)),
        Box::new(PartialRepeat::new(4 * m as u64, m, 0.5, 3)),
        Box::new(ZipfDistinct::new(4 * m, m / 2, 1.0, 4)),
    ];
    for (i, mut w) in workloads.into_iter().enumerate() {
        let report = run_greedy(base(m, i as u64), w.as_mut(), 50);
        report.check_conservation().unwrap();
        assert_eq!(report.steps, 50);
        assert!(report.arrived > 0);
        assert!(
            report.rejection_rate < 0.05,
            "workload {i}: rate {}",
            report.rejection_rate
        );
    }
}

#[test]
fn trace_replay_gives_identical_results_for_identical_policies() {
    let m = 64usize;
    let mut source = PartialRepeat::new(4 * m as u64, m, 0.7, 9);
    let trace = Trace::record(&mut source, 40);
    let run = |seed: u64| {
        let mut replay = trace.replayer();
        run_greedy(base(m, seed), &mut replay, 40)
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.accepted, b.accepted);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.rejected_total, b.rejected_total);
    // Different placement seed changes the outcome in general.
    let c = run(6);
    assert_eq!(a.arrived, c.arrived);
}

#[test]
fn same_trace_can_compare_policies_fairly() {
    let m = 256usize;
    let mut source = RepeatedSet::first_k(m as u32, 11);
    let trace = Trace::record(&mut source, 60);
    let config = base(m, 3);

    let greedy = {
        let mut replay = trace.replayer();
        let mut sim = Simulation::new(config.clone(), Greedy::new());
        sim.run(&mut replay, 60);
        sim.finish()
    };
    let one = {
        let mut replay = trace.replayer();
        let mut cfg = config.clone();
        cfg.process_rate = 2;
        let mut sim = Simulation::new(cfg, OneChoice::new());
        sim.run(&mut replay, 60);
        sim.finish()
    };
    let random = {
        let mut replay = trace.replayer();
        let mut sim = Simulation::new(config, UniformRandom::new(77));
        sim.run(&mut replay, 60);
        sim.finish()
    };
    greedy.check_conservation().unwrap();
    one.check_conservation().unwrap();
    random.check_conservation().unwrap();
    assert!(greedy.rejection_rate <= random.rejection_rate + 1e-9);
    assert!(greedy.rejection_rate < one.rejection_rate + 1e-9);
}

#[test]
fn dcr_handles_full_load_repeated_traffic_at_scale() {
    let m = 512usize;
    let config = SimConfig::dcr_theorem(m, 16, 4).with_seed(13);
    let policy = DelayedCuckoo::new(&config);
    let mut sim = Simulation::new(config, policy);
    let mut workload = RepeatedSet::first_k(m as u32, 21);
    sim.run(&mut workload, 120);
    let diag = sim.policy().diagnostics();
    // Phase length 8 at m = 512: the 15 phase-final steps of 120 build
    // no table.
    assert_eq!(diag.tables_built, 105);
    assert_eq!(diag.table_failure_rejects, 0);
    let report = sim.finish();
    report.check_conservation().unwrap();
    assert_eq!(report.rejected_total, 0);
    assert!(report.avg_latency < 3.0);
}

#[test]
fn kv_cluster_end_to_end_with_zipf_keys() {
    let m = 128usize;
    let config = SimConfig::dcr_theorem(m, 16, 4).with_seed(31);
    let policy = DelayedCuckoo::new(&config);
    let mut kv = KvCluster::new(config, policy);
    use reappearance_lb::hash::{sample::ZipfSampler, Pcg64};
    let zipf = ZipfSampler::new(10_000, 1.0);
    let mut rng = Pcg64::new(8, 8);
    for _ in 0..80 {
        for _ in 0..m {
            kv.get(zipf.sample(&mut rng));
        }
        kv.commit_step();
    }
    kv.idle(16);
    let report = kv.finish();
    report.check_conservation().unwrap();
    assert_eq!(report.in_flight, 0);
    assert!(report.rejection_rate < 0.01);
}

#[test]
fn parallel_trials_match_serial_execution() {
    let run_one = |i: usize| {
        let m = 96;
        let mut w = FreshRandom::new(4 * m as u64, m, i as u64);
        let r = run_greedy(base(m, i as u64), &mut w, 30);
        (r.accepted, r.completed)
    };
    let serial: Vec<_> = (0..6).map(run_one).collect();
    let parallel = Pool::new(4).map_indexed(6, run_one);
    assert_eq!(serial, parallel);
}

#[test]
fn flushes_show_up_only_in_flush_bucket() {
    let m = 64usize;
    let mut cfg = base(m, 17);
    cfg.process_rate = 1;
    cfg.flush_interval = Some(10);
    let mut w = RepeatedSet::first_k(m as u32, 19);
    let report = run_greedy(cfg, &mut w, 50);
    report.check_conservation().unwrap();
    assert!(report.rejected_flush > 0);
}

#[test]
fn safety_reporting_flows_to_run_report() {
    let m = 256usize;
    let mut w = RepeatedSet::first_k(m as u32, 23);
    let report = run_greedy(base(m, 29), &mut w, 60);
    assert_eq!(report.safety_samples, 60);
    // Greedy at this load keeps the distribution comfortably safe.
    assert_eq!(report.safety_violations, 0);
    assert!(report.worst_safety_ratio <= 1.0);
}
