//! Engine edge cases: degenerate datasets, extreme thresholds, tiny
//! clusters — anything that can make the task machinery trip over itself.

use treeserver::{Cluster, ClusterConfig, JobResult, JobSpec, RecoveryError};
use ts_datatable::synth::{generate, SynthSpec};
use ts_datatable::{AttrMeta, Column, DataTable, Labels, Schema, Task};
use ts_splits::Impurity;

fn tiny_cfg() -> ClusterConfig {
    ClusterConfig {
        n_workers: 2,
        compers_per_worker: 1,
        replication: 1,
        tau_d: 4,
        tau_dfs: 16,
        ..Default::default()
    }
}

#[test]
fn constant_columns_make_a_single_leaf() {
    let t = DataTable::new(
        Schema::new(
            vec![AttrMeta::numeric("a"), AttrMeta::categorical("b", 3)],
            Task::Classification { n_classes: 2 },
        ),
        vec![
            Column::Numeric(vec![7.0; 40]),
            Column::Categorical(vec![1; 40]),
        ],
        Labels::Class((0..40).map(|i| i % 2).collect()),
    );
    let cluster = Cluster::launch(tiny_cfg(), &t);
    let m = cluster
        .train(JobSpec::decision_tree(t.schema().task))
        .into_tree();
    cluster.shutdown();
    assert_eq!(m.n_nodes(), 1, "no column can split");
    assert_eq!(m.nodes[0].n_rows, 40);
}

#[test]
fn pure_labels_make_a_single_leaf() {
    let t = DataTable::new(
        Schema::new(
            vec![AttrMeta::numeric("a")],
            Task::Classification { n_classes: 2 },
        ),
        vec![Column::Numeric((0..30).map(f64::from).collect())],
        Labels::Class(vec![1; 30]),
    );
    let cluster = Cluster::launch(tiny_cfg(), &t);
    let m = cluster
        .train(JobSpec::decision_tree(t.schema().task))
        .into_tree();
    cluster.shutdown();
    assert_eq!(m.n_nodes(), 1);
    assert_eq!(m.nodes[0].prediction.label(), 1);
}

#[test]
fn two_row_table_trains() {
    let t = DataTable::new(
        Schema::new(vec![AttrMeta::numeric("a")], Task::Regression),
        vec![Column::Numeric(vec![1.0, 2.0])],
        Labels::Real(vec![10.0, 20.0]),
    );
    let cluster = Cluster::launch(tiny_cfg(), &t);
    let m = cluster
        .train(JobSpec::decision_tree(Task::Regression))
        .into_tree();
    cluster.shutdown();
    assert_eq!(m.n_nodes(), 3, "one split, two leaves");
}

#[test]
fn dmax_zero_is_a_prior_only_model() {
    let t = generate(&SynthSpec {
        rows: 500,
        numeric: 3,
        seed: 1,
        ..Default::default()
    });
    let cluster = Cluster::launch(tiny_cfg(), &t);
    let m = cluster
        .train(JobSpec::decision_tree(t.schema().task).with_dmax(0))
        .into_tree();
    cluster.shutdown();
    assert_eq!(m.n_nodes(), 1);
}

#[test]
fn tau_leaf_larger_than_table_is_a_single_leaf() {
    let t = generate(&SynthSpec {
        rows: 200,
        numeric: 3,
        seed: 2,
        ..Default::default()
    });
    let cluster = Cluster::launch(tiny_cfg(), &t);
    let m = cluster
        .train(JobSpec::decision_tree(t.schema().task).with_tau_leaf(10_000))
        .into_tree();
    cluster.shutdown();
    assert_eq!(m.n_nodes(), 1);
}

#[test]
fn single_attribute_single_worker() {
    let t = generate(&SynthSpec {
        rows: 800,
        numeric: 1,
        concept_depth: 3,
        seed: 3,
        ..Default::default()
    });
    let cfg = ClusterConfig {
        n_workers: 1,
        compers_per_worker: 1,
        replication: 1,
        tau_d: 50,
        tau_dfs: 200,
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, &t);
    let m = cluster
        .train(JobSpec::decision_tree(t.schema().task))
        .into_tree();
    cluster.shutdown();
    assert!(m.n_nodes() > 1);
}

#[test]
fn more_workers_than_attributes() {
    let t = generate(&SynthSpec {
        rows: 1_000,
        numeric: 2,
        seed: 4,
        ..Default::default()
    });
    let cfg = ClusterConfig {
        n_workers: 6,
        compers_per_worker: 1,
        replication: 2,
        tau_d: 100,
        tau_dfs: 400,
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, &t);
    let m = cluster
        .train(JobSpec::decision_tree(t.schema().task))
        .into_tree();
    cluster.shutdown();
    assert!(m.n_nodes() >= 1);
}

#[test]
fn full_replication_still_trains_exactly() {
    let t = generate(&SynthSpec {
        rows: 900,
        numeric: 4,
        seed: 5,
        ..Default::default()
    });
    let cfg = ClusterConfig {
        n_workers: 3,
        compers_per_worker: 2,
        replication: 3, // every worker holds every column
        tau_d: 100,
        tau_dfs: 400,
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, &t);
    let m = cluster
        .train(JobSpec::decision_tree(t.schema().task))
        .into_tree();
    cluster.shutdown();
    let reference = ts_tree::train_tree(
        &t,
        &[0, 1, 2, 3],
        &ts_tree::TrainParams::for_task(t.schema().task),
        0,
    );
    assert_eq!(m.canonicalize(), reference.canonicalize());
}

#[test]
fn forest_larger_than_pool_completes() {
    let t = generate(&SynthSpec {
        rows: 400,
        numeric: 4,
        seed: 6,
        ..Default::default()
    });
    let cfg = ClusterConfig {
        n_pool: 2,
        ..tiny_cfg()
    };
    let cluster = Cluster::launch(cfg, &t);
    let f = cluster
        .train(JobSpec::random_forest(t.schema().task, 9).with_seed(1))
        .into_forest();
    cluster.shutdown();
    assert_eq!(f.n_trees(), 9);
}

#[test]
fn all_missing_column_is_skipped() {
    let t = DataTable::new(
        Schema::new(
            vec![AttrMeta::numeric("gone"), AttrMeta::numeric("ok")],
            Task::Classification { n_classes: 2 },
        ),
        vec![
            Column::Numeric(vec![f64::NAN; 60]),
            Column::Numeric((0..60).map(f64::from).collect()),
        ],
        Labels::Class((0..60).map(|i| u32::from(i >= 30)).collect()),
    );
    let cluster = Cluster::launch(tiny_cfg(), &t);
    let m = cluster
        .train(JobSpec::decision_tree(t.schema().task))
        .into_tree();
    cluster.shutdown();
    // The split must be on the usable column and fit perfectly.
    let (info, _, _) = m.nodes[0].split.as_ref().expect("splits on 'ok'");
    assert_eq!(info.attr, 1);
    assert!(m.n_leaves() >= 2);
}

#[test]
fn many_concurrent_small_jobs() {
    let t = generate(&SynthSpec {
        rows: 300,
        numeric: 3,
        seed: 7,
        ..Default::default()
    });
    let cluster = Cluster::launch(tiny_cfg(), &t);
    let handles: Vec<_> = (0..8)
        .map(|i| cluster.submit(JobSpec::decision_tree(t.schema().task).with_seed(i)))
        .collect();
    let models: Vec<_> = handles
        .into_iter()
        .map(|h| cluster.wait(h).into_tree())
        .collect();
    cluster.shutdown();
    // Identical specs => identical exact models, regardless of interleaving.
    for m in &models[1..] {
        assert_eq!(m.canonicalize(), models[0].canonicalize());
    }
}

#[test]
fn completed_trees_are_flushed_to_the_model_dir() {
    let dir = std::env::temp_dir().join(format!("ts-flush-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let t = generate(&SynthSpec {
        rows: 400,
        numeric: 3,
        seed: 8,
        ..Default::default()
    });
    let cfg = ClusterConfig {
        model_dir: Some(dir.clone()),
        ..tiny_cfg()
    };
    let cluster = Cluster::launch(cfg, &t);
    let f = cluster
        .train(JobSpec::random_forest(t.schema().task, 3).with_seed(1))
        .into_forest();
    cluster.shutdown();
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 3, "one JSON per completed tree");
    // Each flushed file parses back into one of the forest's trees.
    for p in files {
        let loaded =
            ts_tree::DecisionTreeModel::from_json(&std::fs::read_to_string(p).unwrap()).unwrap();
        assert!(f.trees.contains(&loaded));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn entropy_impurity_trains_and_differs_from_gini_only_in_splits() {
    // The paper's Fig. 2 submits jobs with either Gini or entropy; both must
    // flow through the engine and match their local-trainer counterparts.
    let t = generate(&SynthSpec {
        rows: 1_000,
        numeric: 4,
        seed: 9,
        ..Default::default()
    });
    let cluster = Cluster::launch(tiny_cfg(), &t);
    let m = cluster
        .train(JobSpec::decision_tree(t.schema().task).with_impurity(ts_splits::Impurity::Entropy))
        .into_tree();
    cluster.shutdown();
    let reference = ts_tree::train_tree(
        &t,
        &[0, 1, 2, 3],
        &ts_tree::TrainParams {
            impurity: ts_splits::Impurity::Entropy,
            ..ts_tree::TrainParams::for_task(t.schema().task)
        },
        0,
    );
    assert_eq!(m.canonicalize(), reference.canonicalize());
}

#[test]
fn extra_trees_survive_column_less_workers() {
    // Regression: with more workers than attribute replicas, some workers
    // hold no columns; extra-trees node resampling must never land on them
    // (it used to, collapsing most trees into single leaves).
    let t = generate(&SynthSpec {
        rows: 600,
        numeric: 2,
        concept_depth: 3,
        seed: 4,
        ..Default::default()
    });
    let cfg = ClusterConfig {
        n_workers: 6,
        compers_per_worker: 1,
        replication: 1,
        tau_d: 50,
        tau_dfs: 200,
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, &t);
    let f = cluster
        .train(JobSpec::extra_trees(t.schema().task, 8).with_seed(1))
        .into_forest();
    cluster.shutdown();
    for (i, tree) in f.trees.iter().enumerate() {
        assert!(tree.n_nodes() > 1, "tree {i} degenerated to a single leaf");
    }
}

/// Variance is not defined on class labels. The master refuses such a job
/// when it is submitted — up to commit 1ca5a9f a comper panicked on its
/// first column-task and `train` never returned — and the cluster goes on
/// to train a valid job and shuts down.
#[test]
fn variance_on_class_labels_fails_the_job_not_the_cluster() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let task = Task::Classification { n_classes: 3 };
        let t = generate(&SynthSpec {
            rows: 300,
            numeric: 3,
            categorical: 1,
            task,
            seed: 41,
            ..Default::default()
        });
        let cluster = Cluster::launch(tiny_cfg(), &t);
        let started = std::time::Instant::now();
        let refused = cluster.train(JobSpec::decision_tree(task).with_impurity(Impurity::Variance));
        let took = started.elapsed();
        let tree = cluster.train(JobSpec::decision_tree(task)).into_tree();
        cluster.shutdown();
        let _ = done_tx.send((refused, took, tree));
    });
    let (refused, took, tree) = done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the mismatched job or the shutdown after it hung");
    match refused {
        JobResult::Failed(RecoveryError::ImpurityMismatch { impurity, task }) => {
            assert_eq!(impurity, Impurity::Variance);
            assert_eq!(task, Task::Classification { n_classes: 3 });
        }
        other => panic!("expected an impurity mismatch, got {other:?}"),
    }
    assert!(
        took < std::time::Duration::from_secs(1),
        "refusal took {took:?}"
    );
    assert!(
        tree.n_nodes() > 1,
        "the cluster trains a valid job afterwards"
    );
}

/// A forest of zero trees has nothing that could complete it: up to commit
/// 1a63857 `train` waited for it forever. The master refuses it when it is
/// submitted, and the cluster goes on to train a valid job.
#[test]
fn a_job_of_no_trees_fails_the_job_not_the_cluster() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let task = Task::Classification { n_classes: 2 };
        let t = generate(&SynthSpec {
            rows: 300,
            numeric: 3,
            task,
            seed: 43,
            ..Default::default()
        });
        let cluster = Cluster::launch(tiny_cfg(), &t);
        let refused = cluster.train(JobSpec::random_forest(task, 0));
        let forest = cluster.train(JobSpec::random_forest(task, 2)).into_forest();
        cluster.shutdown();
        let _ = done_tx.send((refused, forest));
    });
    let (refused, forest) = done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the job of no trees or the shutdown after it hung");
    assert!(
        matches!(refused, JobResult::Failed(RecoveryError::NoTrees)),
        "expected a refusal, got {refused:?}"
    );
    assert_eq!(
        forest.trees.len(),
        2,
        "the cluster trains a valid job afterwards"
    );
}
