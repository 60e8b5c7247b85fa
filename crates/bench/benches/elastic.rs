//! `ts-elastic` acceptance bench: dynamic membership under training load.
//!
//! Two questions, timed on the same exact single-tree job:
//!
//! 1. **Join speedup** — a 2-worker cluster that doubles to 4 workers
//!    mid-run (scripted `FaultPlan::with_worker_join`) vs the static
//!    2-worker cluster, with the static 4-worker cluster as the ceiling.
//!    The joiners handshake, receive column replicas incrementally, and
//!    start taking plans while training continues.
//!
//! 2. **Preemption overhead** — a 4-worker cluster that loses one worker
//!    mid-run, either *gracefully* (scripted preemption: the victim drains,
//!    hands its columns off inside the grace window, departs with Goodbye)
//!    or *by crash* (silent death, the master's suspicion timer, §VI
//!    revoke-and-recover). Both runs use the same fast detection settings
//!    so the comparison isolates drain-vs-recovery, not detection latency.
//!
//! Models are bit-identical across every configuration — membership churn
//! never changes `mix_seed`-derived randomness (core/tests/faults.rs
//! asserts that); this bench only times the membership machinery.

use std::time::Duration;
use treeserver::{ClusterConfig, FaultPlan, JobSpec};
use ts_bench::*;
use ts_datatable::synth::{generate, SynthSpec};

/// Modeled ns per row-attribute touch — heavy so the timed region is
/// dominated by modeled compute, which the extra workers can absorb.
const ELASTIC_WORK_NS: u64 = 1_200;

fn main() {
    print_header(
        "ts-elastic: mid-run join speedup and preemption vs crash recovery",
        &format!("this bench overrides compute to {ELASTIC_WORK_NS} ns/unit"),
    );
    let mut report = BenchReport::new("elastic");

    let train = generate(&SynthSpec {
        rows: (16_000.0 * env_scale()) as usize,
        numeric: 5,
        categorical: 2,
        cat_cardinality: 5,
        noise: 0.05,
        concept_depth: 5,
        seed: 0xE1A5,
        ..Default::default()
    });
    let (train, test) = train.train_test_split(0.8, 7);
    let task = train.schema().task;
    let spec = || JobSpec::decision_tree(task).with_dmax(10);

    let cfg_for = |workers: usize, faults: Option<FaultPlan>| -> ClusterConfig {
        let mut cfg = ts_config(train.n_rows(), workers, 4);
        cfg.work_ns_per_unit = ELASTIC_WORK_NS;
        // A 50 ms suspicion timer so the crash row pays realistic detection
        // latency, not the test-friendly 500 ms default; the graceful rows
        // never use it.
        cfg.heartbeat_interval = Duration::from_millis(5);
        cfg.heartbeat_miss_threshold = 10;
        cfg.faults = faults;
        cfg
    };

    println!(
        "{:<34} {:>10} {:>10} {:>10}",
        "Configuration", "rows", "secs", "metric"
    );
    // Warm-up against allocator/page-cache cold starts, then best-of-2.
    let _ = run_treeserver(&train, &test, cfg_for(4, None), spec());
    let mut run = |name: &str, cfg: ClusterConfig| -> f64 {
        let a = run_treeserver(&train, &test, cfg.clone(), spec());
        let b = run_treeserver(&train, &test, cfg, spec());
        let r = if a.secs <= b.secs { a } else { b };
        println!(
            "{:<34} {:>10} {:>10.3} {:>10}",
            name,
            train.n_rows(),
            r.secs,
            fmt_metric(task, r.metric)
        );
        report.push_run(name, train.n_rows(), 1, &r);
        r.secs
    };

    // -- 1. join speedup -------------------------------------------------
    let static2 = run("join/static_2_workers", cfg_for(2, None));
    let elastic = run(
        "join/2_workers_plus_2_joiners",
        cfg_for(
            2,
            Some(FaultPlan::new(0xE1A5).with_worker_join(Duration::from_millis(10), 2)),
        ),
    );
    let static4 = run("join/static_4_workers", cfg_for(4, None));

    // -- 2. preemption overhead vs crash recovery ------------------------
    let clean = run("preempt/no_fault_4_workers", cfg_for(4, None));
    let graceful = run(
        "preempt/graceful_drain",
        cfg_for(
            4,
            Some(FaultPlan::new(0xE1A5).with_preemption(
                Duration::from_millis(10),
                4,
                Duration::from_secs(30),
            )),
        ),
    );
    let crash = run(
        "preempt/crash_recovery",
        cfg_for(4, Some(FaultPlan::new(0xE1A5).with_crash_at_delegation(3))),
    );

    println!(
        "\njoin: doubling mid-run = {:.2}x over static half size \
         (static full size would be {:.2}x)",
        static2 / elastic.max(1e-9),
        static2 / static4.max(1e-9),
    );
    println!(
        "preempt: graceful drain costs {:+.0}% over fault-free; \
         crash recovery costs {:+.0}%",
        (graceful / clean.max(1e-9) - 1.0) * 100.0,
        (crash / clean.max(1e-9) - 1.0) * 100.0,
    );
    report.write();
}
