//! `ts-sched` acceptance bench: work stealing under skewed worker load.
//!
//! Trains the same exact single-tree job on a uniform cluster and on one
//! where one worker's modeled compute is 4× slower than its peers (a
//! straggler machine), and reports how much of the straggler's slowdown the
//! scheduler lets through.
//!
//! The dataset is deliberately narrow (few columns) with a heavy modeled
//! cost per row-attribute touch, so the timed region is dominated by the
//! *modeled* compute — which overlaps across comper threads even on a
//! small host — rather than by real split kernels serializing on the CPU.
//!
//! Shape to reproduce: the cluster's capacity drops from 4 to 3.25 worker
//! units, so a scheduler that wasted nothing would slow down by 4 / 3.25 =
//! 1.23×; one that handed the straggler a full quarter of the work would
//! slow down by 4×. Idle fast workers draining the straggler's deque keep
//! the measured ratio near the first bound (`docs/SCHEDULING.md` quotes
//! the single-deque scheduler this one replaced for comparison). The models
//! are bit-identical either way — that is `sched_equiv.rs`'s job, this
//! bench only times the scheduler.

use treeserver::{ClusterConfig, JobSpec};
use ts_bench::*;
use ts_datatable::synth::{generate, SynthSpec};

/// The straggler's slowdown factor relative to its peers.
const SKEW: f64 = 4.0;

/// Modeled ns per row-attribute touch — heavy on purpose (see module doc).
const SCHED_WORK_NS: u64 = 1_500;

fn main() {
    print_header(
        "ts-sched: work stealing under skewed load",
        &format!(
            "4 workers x 4 compers; straggler {SKEW}x slower; \
             this bench overrides compute to {SCHED_WORK_NS} ns/unit"
        ),
    );
    let mut report = BenchReport::new("sched");

    let train = generate(&SynthSpec {
        rows: (20_000.0 * env_scale()) as usize,
        numeric: 5,
        categorical: 2,
        cat_cardinality: 5,
        noise: 0.05,
        concept_depth: 5,
        seed: 0xBEEF,
        ..Default::default()
    });
    let (train, test) = train.train_test_split(0.8, 7);
    let task = train.schema().task;
    let spec = || JobSpec::decision_tree(task).with_dmax(10);

    let base_cfg = || {
        let mut cfg = ts_config(train.n_rows(), 4, 4);
        cfg.work_ns_per_unit = SCHED_WORK_NS;
        cfg
    };
    let skewed = |mut cfg: ClusterConfig| {
        cfg.work_scale = vec![SKEW, 1.0, 1.0, 1.0];
        cfg
    };

    println!(
        "{:<28} {:>10} {:>10} {:>10}",
        "Cluster", "rows", "secs", "metric"
    );
    // Warm up allocator/page cache once so the first timed row is not a
    // cold-start outlier, then keep the best of 2 reps per config.
    let _ = run_treeserver(&train, &test, base_cfg(), spec());
    let mut run = |name: &str, cfg: ClusterConfig| -> f64 {
        let a = run_treeserver(&train, &test, cfg.clone(), spec());
        let b = run_treeserver(&train, &test, cfg, spec());
        let r = if a.secs <= b.secs { a } else { b };
        println!(
            "{:<28} {:>10} {:>10.3} {:>10}",
            name,
            train.n_rows(),
            r.secs,
            fmt_metric(task, r.metric)
        );
        report.push_run(name, train.n_rows(), 1, &r);
        r.secs
    };

    let uniform = run("uniform", base_cfg());
    let skewed = run("skewed", skewed(base_cfg()));

    // Three workers at full speed plus one at 1/SKEW of it.
    let ideal = 4.0 / (3.0 + 1.0 / SKEW);
    println!(
        "\nskewed/uniform = {:.2}x (capacity bound {ideal:.2}x)",
        skewed / uniform.max(1e-9),
    );
    report.write();
}
