//! Histogram-splitter differential suite (`Splitter::Histogram`,
//! docs/HISTOGRAM.md).
//!
//! The exact engine is the accuracy oracle: histogram training trades a
//! bounded accuracy loss for a leaner split plane. These tests pin down
//!
//! 1. per-path determinism — same seed, same config → byte-identical
//!    models, on uniform and skewed (stealing) clusters, under mid-run
//!    joins, and across history (a fingerprint pinned from the parent of
//!    the commit that deleted the single-deque scheduler);
//! 2. the lossy divergence bound against the exact oracle at the default
//!    bin budget; and
//! 3. the wire-byte win the mode exists for, measured by the split-plane
//!    counters (`ClusterReport::split_bytes_sent` / `hist_bytes_sent`).

use std::time::Duration;
use treeserver::{Cluster, ClusterConfig, FaultPlan, JobSpec, Splitter};
use ts_datatable::metrics::accuracy;
use ts_datatable::synth::{generate, SynthSpec};
use ts_datatable::{DataTable, Task};
use ts_splits::Impurity;

const HIST: Splitter = Splitter::Histogram {
    bins: 64,
    vote_k: 2,
};

/// Data/fault seed, overridable by the CI `hist-matrix` (`TS_SEED`).
fn env_seed(default: u64) -> u64 {
    std::env::var("TS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A Covtype-shaped table: many classes make the per-shard `NodeStats`
/// payloads heavy, which is exactly the regime the histogram plane wins in.
fn covtype_like(seed: u64) -> DataTable {
    generate(&SynthSpec {
        rows: 16_000,
        numeric: 8,
        categorical: 2,
        cat_cardinality: 6,
        task: Task::Classification { n_classes: 7 },
        noise: 0.05,
        concept_depth: 6,
        seed,
        ..Default::default()
    })
}

fn cfg(splitter: Splitter) -> ClusterConfig {
    ClusterConfig {
        n_workers: 8,
        splitter,
        // Keep the upper tree on the distributed column path: the splitter
        // modes only differ there (subtree tasks always train exact).
        tau_d: 400,
        ..ClusterConfig::default()
    }
}

fn train_tree(cfg: ClusterConfig, t: &DataTable) -> ts_tree::DecisionTreeModel {
    let cluster = Cluster::launch(cfg, t);
    let model = cluster
        .train(JobSpec::decision_tree(t.schema().task).with_dmax(8))
        .into_tree();
    cluster.shutdown();
    model.canonicalize()
}

#[test]
fn same_seed_replay_is_byte_identical_per_path() {
    let t = covtype_like(env_seed(11));
    for splitter in [Splitter::Exact, HIST] {
        let a = train_tree(cfg(splitter), &t);
        let b = train_tree(cfg(splitter), &t);
        assert_eq!(a, b, "{splitter:?}: same-seed replay diverged");
    }
}

#[test]
fn hist_accuracy_tracks_the_exact_oracle() {
    for seed in [env_seed(11), 42] {
        let t = covtype_like(seed);
        let labels = t.labels().as_class().expect("classification table");
        let exact = train_tree(cfg(Splitter::Exact), &t);
        let hist = train_tree(cfg(HIST), &t);
        let acc_exact = accuracy(&exact.predict_labels(&t), labels);
        let acc_hist = accuracy(&hist.predict_labels(&t), labels);
        assert!(
            acc_exact - acc_hist <= 0.05,
            "seed {seed}: histogram accuracy {acc_hist:.4} diverged more than \
             0.05 from the exact oracle's {acc_exact:.4}"
        );
    }
}

#[test]
fn hist_models_are_steal_invariant() {
    // Work stealing changes who computes a task, never what it computes:
    // nominations fold arrival-order-independently on the master and the
    // election is totally ordered, so the model must not move.
    let t = covtype_like(7);
    let base = train_tree(cfg(HIST), &t);
    let mut scfg = cfg(HIST);
    scfg.work_ns_per_unit = 5;
    scfg.work_scale = vec![3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
    let stolen = train_tree(scfg, &t);
    assert_eq!(stolen, base, "stealing changed a histogram-trained model");
    assert_eq!(
        tscheck::fnv1a(&base.to_json()),
        SINGLE_DEQUE_FINGERPRINT,
        "the model moved away from the single-deque scheduler's"
    );
}

/// FNV-1a over the canonical model's JSON, as printed for this test's
/// uniform cluster by commit 5339513 running its single-deque scheduler —
/// the last commit that had one. Not to be regenerated from the code under
/// test.
const SINGLE_DEQUE_FINGERPRINT: u64 = 18_221_085_991_014_566_300;

#[test]
fn hist_models_survive_mid_run_joins_unchanged() {
    // A joiner receives columns by migration and must rebuild the same bin
    // indices the launch roster built at load (`install_columns`); per-attr
    // gains — and therefore the election — are holder-independent.
    let t = covtype_like(3);
    let base = train_tree(cfg(HIST), &t);
    let mut jcfg = cfg(HIST);
    jcfg.work_ns_per_unit = 500; // long enough for the join to land mid-run
    jcfg.faults =
        Some(FaultPlan::new(env_seed(0xB135)).with_worker_join(Duration::from_millis(8), 1));
    let joined = train_tree(jcfg, &t);
    assert_eq!(joined, base, "a mid-run join changed a histogram model");
}

#[test]
fn hist_mode_at_least_halves_split_plane_bytes() {
    let t = covtype_like(5);
    let run = |splitter: Splitter| {
        let mut c = cfg(splitter);
        c.obs = treeserver::obs::ObsConfig::enabled();
        let cluster = Cluster::launch(c, &t);
        let _ = cluster
            .train(JobSpec::decision_tree(t.schema().task).with_dmax(8))
            .into_tree();
        cluster.shutdown()
    };
    let exact = run(Splitter::Exact);
    let hist = run(HIST);
    assert!(exact.split_bytes_sent > 0, "exact counter never moved");
    assert_eq!(exact.hist_bytes_sent, 0, "exact mode sent hist frames");
    assert!(hist.hist_bytes_sent > 0, "hist counter never moved");
    assert_eq!(hist.split_bytes_sent, 0, "hist mode sent full results");
    assert!(
        hist.hist_bytes_sent * 2 <= exact.split_bytes_sent,
        "histogram split plane is not >= 2x leaner: hist {} B vs exact {} B",
        hist.hist_bytes_sent,
        exact.split_bytes_sent
    );
}

/// The histogram kernels beyond the 7-class Gini job above: every impurity,
/// both label types, both bin-id widths, categorical columns and missing
/// values. FNV-1a over the canonical model's JSON, as printed by commit
/// 04bb51a — the last one whose kernels counted rows into one `ClassCounts`
/// per slot and routed the node for every column. Not to be regenerated from
/// the code under test.
#[test]
fn hist_models_keep_the_fingerprints_of_the_per_slot_class_counts() {
    let wide = Splitter::Histogram {
        bins: 300, // more than 256 slots: `u16` bin ids
        vote_k: 2,
    };
    let regression = generate(&SynthSpec {
        rows: 12_000,
        numeric: 6,
        categorical: 3,
        cat_cardinality: 6,
        task: Task::Regression,
        noise: 0.05,
        concept_depth: 6,
        seed: 13,
        ..Default::default()
    });
    let three_class = generate(&SynthSpec {
        rows: 12_000,
        numeric: 5,
        categorical: 3,
        cat_cardinality: 9,
        task: Task::Classification { n_classes: 3 },
        missing_rate: 0.05,
        noise: 0.05,
        concept_depth: 6,
        seed: 17,
        ..Default::default()
    });
    let covtype = covtype_like(7);
    let cases = [
        ("entropy", &covtype, HIST, Some(Impurity::Entropy), ENTROPY),
        ("variance", &regression, HIST, None, VARIANCE),
        ("3 classes", &three_class, HIST, None, THREE_CLASS),
        ("300 bins", &covtype, wide, None, WIDE_IDS),
    ];
    for (name, table, splitter, impurity, pinned) in cases {
        let mut job = JobSpec::decision_tree(table.schema().task).with_dmax(8);
        if let Some(impurity) = impurity {
            job = job.with_impurity(impurity);
        }
        let cluster = Cluster::launch(cfg(splitter), table);
        let model = cluster.train(job).into_tree().canonicalize();
        cluster.shutdown();
        assert!(model.n_nodes() > 15, "{name}: the job grew no tree to pin");
        assert_eq!(tscheck::fnv1a(&model.to_json()), pinned, "{name}");
    }
}

const ENTROPY: u64 = 14_587_479_489_878_793_741;
const VARIANCE: u64 = 16_442_303_561_131_723_637;
const THREE_CLASS: u64 = 16_941_523_784_851_449_909;
const WIDE_IDS: u64 = 10_824_584_490_525_278_837;
