//! Golden distributed-vs-local equivalence harness: with the paper's
//! *default* thresholds (`τ_D = 10,000`, `τ_dfs = 80,000`) the cluster must
//! reproduce the single-machine exact trainer bit-for-bit. The datasets are
//! sized above `τ_D` so the root genuinely runs as sharded column-tasks and
//! the frontier later crosses into subtree-task territory — the τ boundary
//! the equivalence guarantee has to survive.

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

#[test]
fn default_thresholds_match_local_trainer_across_seeds() {
    let cfg = ClusterConfig::default();
    assert_eq!(cfg.tau_d, 10_000, "test assumes the paper's default τ_D");
    assert_eq!(
        cfg.tau_dfs, 80_000,
        "test assumes the paper's default τ_dfs"
    );
    for seed in SEEDS {
        for t in datasets(seed) {
            let params = TrainParams {
                dmax: 8,
                ..TrainParams::for_task(t.schema().task)
            };
            let reference = train_tree(&t, &(0..t.n_attrs()).collect::<Vec<_>>(), &params, 0);
            let cluster = Cluster::launch(ClusterConfig::default(), &t);
            let model = cluster
                .train(JobSpec::decision_tree(t.schema().task).with_dmax(8))
                .into_tree();
            cluster.shutdown();
            assert_eq!(
                model.canonicalize(),
                reference.canonicalize(),
                "seed {seed}, task {:?}: cluster diverged from the exact trainer",
                t.schema().task
            );
        }
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The suite's two tables plus a four-class one with a tenth of its cells
/// missing, so the missing-row routing of the column-task kernels is pinned
/// too.
fn column_task_tables(seed: u64) -> [DataTable; 3] {
    let [class, reg] = datasets(seed);
    let class_missing = generate(&SynthSpec {
        rows: 12_000,
        numeric: 5,
        categorical: 2,
        cat_cardinality: 5,
        task: Task::Classification { n_classes: 4 },
        missing_rate: 0.1,
        noise: 0.1,
        concept_depth: 5,
        seed,
        ..Default::default()
    });
    [class, reg, class_missing]
}

/// With `τ_D = 50` every node of a depth-8 tree over 12 000 rows that is
/// large enough to split is a column-task, so the worker's exact kernels —
/// not `train_subtree` — choose nearly all of the model's splits.
fn column_task_fingerprint(t: &DataTable, impurity: Option<ts_splits::Impurity>) -> u64 {
    let cfg = ClusterConfig {
        tau_d: 50,
        ..ClusterConfig::default()
    };
    let mut job = JobSpec::decision_tree(t.schema().task).with_dmax(8);
    if let Some(imp) = impurity {
        job = job.with_impurity(imp);
    }
    let cluster = Cluster::launch(cfg, t);
    let model = cluster.train(job).into_tree();
    cluster.shutdown();
    assert!(model.n_nodes() > 100, "{} nodes", model.n_nodes());
    fnv1a64(model.canonicalize().to_json().as_bytes())
}

// Printed by these tests run against commit ab733cd — the last one whose
// column-tasks filtered the whole presorted column through a row bitmap or
// gathered and re-sorted the node, and scored every boundary with the float
// O(classes) Gini. They are not to be regenerated from the code under test.
// Per seed of `SEEDS`: [classification, regression, classification with
// missing values].
const COLUMN_TASK_FINGERPRINTS: [[u64; 3]; 3] = [
    [
        1_894_268_899_178_939_225,
        6_977_099_103_826_072_985,
        1_877_313_051_840_659_004,
    ],
    [
        4_633_814_809_131_556_874,
        15_613_812_079_056_238_039,
        7_651_239_814_517_066_431,
    ],
    [
        17_817_063_905_813_459_836,
        2_191_756_326_786_550_977,
        7_545_778_115_629_110_028,
    ],
];
const COLUMN_TASK_ENTROPY_FINGERPRINTS: [u64; 3] = [
    6_976_795_768_252_770_692,
    3_059_111_178_473_250_534,
    9_255_765_512_062_453_753,
];

#[test]
fn column_task_trees_keep_the_bytes_of_the_parent_kernels() {
    let got = SEEDS.map(|seed| column_task_tables(seed).map(|t| column_task_fingerprint(&t, None)));
    assert_eq!(got, COLUMN_TASK_FINGERPRINTS, "{got:?}");
}

#[test]
fn column_task_entropy_trees_keep_the_bytes_of_the_parent_kernels() {
    let got = SEEDS.map(|seed| {
        let [_, _, class_missing] = column_task_tables(seed);
        column_task_fingerprint(&class_missing, Some(ts_splits::Impurity::Entropy))
    });
    assert_eq!(got, COLUMN_TASK_ENTROPY_FINGERPRINTS, "{got:?}");
}
