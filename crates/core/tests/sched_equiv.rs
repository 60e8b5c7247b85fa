//! Scheduler-equivalence golden suite (`ts-sched`): work stealing is a
//! *scheduling* change, so the models it produces must not depend on it,
//! over the same golden seed × dataset matrix as
//! `golden.rs`.
//!
//! Exact training is scheduling-order-invariant by construction (every
//! random choice derives from the stable root-path id), so exact trees are
//! compared with the local trainer — `golden.rs`'s oracle — under every
//! knob combination. Extra-trees forests have no local oracle and depend on
//! *which* tasks run as subtree-tasks — the τ_D boundary — so they are
//! compared between a uniform and a skewed cluster under static τ (stealing
//! changes who runs a task, never which kind of task it is) and with a
//! fingerprint pinned from the single-deque scheduler this one replaced.

use treeserver::{Cluster, ClusterConfig, JobSpec};
use ts_datatable::synth::{generate, SynthSpec};
use ts_datatable::{DataTable, Task};
use ts_tree::{train_tree, TrainParams};

const SEEDS: [u64; 3] = [11, 42, 977];

fn datasets(seed: u64) -> [DataTable; 2] {
    [
        generate(&SynthSpec {
            rows: 12_000,
            numeric: 5,
            categorical: 2,
            cat_cardinality: 5,
            noise: 0.05,
            concept_depth: 5,
            seed,
            ..Default::default()
        }),
        generate(&SynthSpec {
            rows: 12_000,
            numeric: 4,
            categorical: 1,
            task: Task::Regression,
            seed,
            ..Default::default()
        }),
    ]
}

/// Trains one decision tree under `cfg` and returns the canonical model.
fn train_dt(cfg: ClusterConfig, t: &DataTable) -> ts_tree::DecisionTreeModel {
    let cluster = Cluster::launch(cfg, t);
    let model = cluster
        .train(JobSpec::decision_tree(t.schema().task).with_dmax(8))
        .into_tree();
    cluster.shutdown();
    model.canonicalize()
}

/// The exact single-machine trainer on the same job: the oracle.
fn local_dt(t: &DataTable) -> ts_tree::DecisionTreeModel {
    let params = TrainParams {
        dmax: 8,
        ..TrainParams::for_task(t.schema().task)
    };
    train_tree(t, &(0..t.n_attrs()).collect::<Vec<_>>(), &params, 0).canonicalize()
}

/// Mildly heterogeneous workers: worker 1 runs at a third of the speed of
/// its peers, so stealing genuinely happens while the model must not
/// notice.
fn steal_cfg() -> ClusterConfig {
    ClusterConfig {
        work_ns_per_unit: 5,
        work_scale: vec![3.0, 1.0, 1.0, 1.0],
        ..ClusterConfig::default()
    }
}

#[test]
fn stealing_produces_bit_identical_trees() {
    for seed in SEEDS {
        for t in datasets(seed) {
            let baseline = local_dt(&t);
            let stolen = train_dt(steal_cfg(), &t);
            assert_eq!(
                stolen,
                baseline,
                "seed {seed}, task {:?}: stealing changed the model",
                t.schema().task
            );
        }
    }
}

#[test]
fn stealing_preserves_extra_trees_forests_under_static_tau() {
    // Extra-trees randomness derives from stable path ids, but which arm
    // (column vs subtree) draws it depends on τ_D — so this comparison is
    // only valid with τ static.
    let t = datasets(SEEDS[0]).into_iter().next().unwrap();
    let spec = || {
        JobSpec::extra_trees(t.schema().task, 6)
            .with_dmax(6)
            .with_seed(7)
    };
    let base_cluster = Cluster::launch(ClusterConfig::default(), &t);
    let baseline = base_cluster.train(spec()).into_forest();
    base_cluster.shutdown();
    let steal_cluster = Cluster::launch(steal_cfg(), &t);
    let stolen = steal_cluster.train(spec()).into_forest();
    steal_cluster.shutdown();
    let canon = |f: ts_tree::ForestModel| -> Vec<ts_tree::DecisionTreeModel> {
        f.trees.iter().map(|m| m.canonicalize()).collect()
    };
    let (stolen, baseline) = (canon(stolen), canon(baseline));
    assert_eq!(stolen, baseline, "stealing changed an extra-trees forest");
    let json: String = baseline.iter().map(|m| m.to_json()).collect();
    assert_eq!(
        tscheck::fnv1a(&json),
        SINGLE_DEQUE_FINGERPRINT,
        "the forest moved away from the single-deque scheduler's"
    );
}

/// FNV-1a over the concatenated JSON of the canonical trees, as printed
/// for this test's uniform cluster by commit 5339513 running its
/// single-deque scheduler — the last commit that had one. Not to be
/// regenerated from the code under test.
const SINGLE_DEQUE_FINGERPRINT: u64 = 16_691_585_054_867_170_655;
