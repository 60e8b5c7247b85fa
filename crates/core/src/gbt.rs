//! Gradient-boosted trees on the TreeServer engine.
//!
//! The paper's tree-scheduling discussion (§III) distinguishes bagging
//! (trees independent — trained concurrently in the pool) from boosting,
//! where "the next layer of trees can only be scheduled for training when
//! all trees in the previous layer is fully constructed". The paper's own
//! deep-forest pipeline realises such dependencies at the *client*: each
//! dependent stage is submitted as a TreeServer job once its prerequisites
//! finish (§VII). This module applies the same pattern to classic gradient
//! boosting:
//!
//! 1. round `t`: submit a single-regression-tree job fitted to the current
//!    pseudo-targets (negative gradients) and wait for it;
//! 2. update the margins with the shrunk tree predictions;
//! 3. broadcast the next round's pseudo-targets to every worker with
//!    [`crate::Cluster::update_labels`] — `Y` is replicated on all machines,
//!    so re-labelling is a column broadcast, accounted like any transfer;
//! 4. repeat.
//!
//! Each individual tree still trains with full TreeServer parallelism
//! (column-tasks + subtree-tasks across all workers); only the *rounds* are
//! sequential — exactly the dependency structure that makes boosting slower
//! than bagging in the paper's Table II(c).

use crate::cluster::Cluster;
use crate::config::ClusterConfig;
use crate::job::JobSpec;
use ts_datatable::{DataTable, Labels, Task};
use ts_splits::Impurity;
use ts_tree::{CompiledEnsemble, DecisionTreeModel, Rows, ServeOptions};
use tsjson::{Deserialize, Serialize};

/// Loss to optimise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GbtObjective {
    /// Squared error (regression tables).
    SquaredError,
    /// Binary logistic loss (2-class tables).
    Logistic,
}

/// Boosting hyperparameters.
#[derive(Debug, Clone)]
pub struct GbtConfig {
    /// Boosting rounds (= trees).
    pub n_rounds: usize,
    /// Shrinkage `η` applied to each tree's contribution.
    pub eta: f64,
    /// Maximum depth per tree (boosted trees are shallow; 5 by default).
    pub dmax: u32,
    /// Leaf threshold per tree.
    pub tau_leaf: u64,
    /// The loss.
    pub objective: GbtObjective,
    /// Seed (reserved for future subsampling; trees are deterministic).
    pub seed: u64,
}

impl GbtConfig {
    /// Defaults for a task: squared error for regression tables, logistic
    /// for 2-class classification.
    ///
    /// # Panics
    /// Panics for multi-class tables (not supported by this extension).
    pub fn for_task(task: Task) -> GbtConfig {
        let objective = match task {
            Task::Regression => GbtObjective::SquaredError,
            Task::Classification { n_classes: 2 } => GbtObjective::Logistic,
            Task::Classification { n_classes } => {
                panic!("GBT on the engine supports 2 classes, got {n_classes}")
            }
        };
        GbtConfig {
            n_rounds: 50,
            eta: 0.1,
            dmax: 5,
            tau_leaf: 10,
            objective,
            seed: 0,
        }
    }

    /// Builder: rounds.
    pub fn with_rounds(mut self, n: usize) -> Self {
        self.n_rounds = n;
        self
    }

    /// Builder: shrinkage.
    pub fn with_eta(mut self, eta: f64) -> Self {
        self.eta = eta;
        self
    }

    /// Builder: depth.
    pub fn with_dmax(mut self, dmax: u32) -> Self {
        self.dmax = dmax;
        self
    }
}

/// A boosted additive model: `margin(x) = base + η · Σ tree_t(x)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbtModel {
    /// The regression trees, in round order.
    pub trees: Vec<DecisionTreeModel>,
    /// Constant base margin (prior).
    pub base: f64,
    /// Shrinkage.
    pub eta: f64,
    /// The loss the model was trained for.
    pub objective: GbtObjective,
}

impl GbtModel {
    /// Raw margins for every row, on the compiled batched path. Per row the
    /// accumulation order is tree order, the same sequence of f64 additions
    /// as the reference loop, so the result is bit-identical to
    /// [`predict_margins_reference`](Self::predict_margins_reference).
    pub fn predict_margins(&self, table: &DataTable) -> Vec<f64> {
        CompiledEnsemble::additive(&self.trees, self.base, self.eta).values(
            table,
            Rows::all(table),
            &ServeOptions::default(),
        )
    }

    /// Reference per-row traversal for [`predict_margins`](Self::predict_margins).
    pub fn predict_margins_reference(&self, table: &DataTable) -> Vec<f64> {
        let mut m = vec![self.base; table.n_rows()];
        for t in &self.trees {
            for (row, margin) in m.iter_mut().enumerate() {
                *margin += self.eta * t.predict_row(table, row, u32::MAX).value();
            }
        }
        m
    }

    /// Regression predictions (= margins).
    pub fn predict_values(&self, table: &DataTable) -> Vec<f64> {
        assert_eq!(self.objective, GbtObjective::SquaredError);
        self.predict_margins(table)
    }

    /// Class predictions (logistic: margin > 0).
    pub fn predict_labels(&self, table: &DataTable) -> Vec<u32> {
        assert_eq!(self.objective, GbtObjective::Logistic);
        self.predict_margins(table)
            .into_iter()
            .map(|m| u32::from(m > 0.0))
            .collect()
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

/// Trains a boosted model on a fresh cluster over `table`.
///
/// The cluster is launched with a *regression* view of the table (the first
/// round's pseudo-targets as `Y`), so every round's tree is a regression
/// tree; the original labels stay at the client for gradient computation.
pub fn train_gbt(cluster_cfg: ClusterConfig, table: &DataTable, cfg: GbtConfig) -> GbtModel {
    // Launch over a regression view so every round's tree is a regression
    // tree from the start; the view's labels are immediately replaced by
    // round 0's pseudo-targets inside train_gbt_on.
    let boosted_view = regression_view(table, vec![0.0; table.n_rows()]);
    let cluster = Cluster::launch(cluster_cfg, &boosted_view);
    let model = train_gbt_on(&cluster, table, cfg);
    cluster.shutdown();
    model
}

/// Like [`train_gbt`], but on an existing cluster the caller owns — useful
/// for training several boosted models without re-loading columns, or for
/// injecting faults mid-boosting in tests. The cluster must have been
/// launched over (a label-view of) `table` and be quiescent.
pub fn train_gbt_on(cluster: &Cluster, table: &DataTable, cfg: GbtConfig) -> GbtModel {
    assert!(cfg.n_rounds >= 1, "need at least one round");
    let n = table.n_rows();

    // Base margin and gradient function per objective.
    let (base, targets): (f64, Vec<f64>) = match (cfg.objective, table.labels()) {
        (GbtObjective::SquaredError, Labels::Real(ys)) => {
            let mean = ys.iter().sum::<f64>() / n as f64;
            (mean, ys.clone())
        }
        (GbtObjective::Logistic, Labels::Class(ys)) => {
            assert!(ys.iter().all(|&y| y < 2), "logistic needs 0/1 labels");
            (0.0, ys.iter().map(|&y| y as f64).collect())
        }
        _ => panic!("objective does not match the table's label kind"),
    };
    let pseudo = |margins: &[f64]| -> Vec<f64> {
        match cfg.objective {
            // -∂L/∂m for squared error: the residual.
            GbtObjective::SquaredError => targets.iter().zip(margins).map(|(y, m)| y - m).collect(),
            // -∂L/∂m for logistic: y - sigmoid(m).
            GbtObjective::Logistic => targets
                .iter()
                .zip(margins)
                .map(|(y, m)| y - 1.0 / (1.0 + (-m).exp()))
                .collect(),
        }
    };

    let mut margins = vec![base; n];
    // Round 0's pseudo-targets replace whatever labels the cluster was
    // launched with.
    cluster.update_labels(&Labels::Real(pseudo(&margins)));

    let tree_spec = || {
        JobSpec::decision_tree(Task::Regression)
            .with_impurity(Impurity::Variance)
            .with_dmax(cfg.dmax)
            .with_tau_leaf(cfg.tau_leaf)
            .with_seed(cfg.seed)
    };

    let mut trees = Vec::with_capacity(cfg.n_rounds);
    for round in 0..cfg.n_rounds {
        obs_event!(
            cluster.stats(),
            0,
            ts_obs::Event::GbtRound {
                round: round as u32
            }
        );
        let tree = cluster.train(tree_spec()).into_tree();
        // Batched margin update; same per-row addition as the per-row walk,
        // so gradients (and hence the whole model) are unchanged.
        CompiledEnsemble::additive(std::slice::from_ref(&tree), base, cfg.eta).add_margins(
            table,
            Rows::all(table),
            &ServeOptions::default(),
            &mut margins,
        );
        trees.push(tree);
        if round + 1 < cfg.n_rounds {
            // The boosting dependency: the next round's targets exist only
            // now. Broadcast them to every worker.
            cluster.update_labels(&Labels::Real(pseudo(&margins)));
        }
    }
    GbtModel {
        trees,
        base,
        eta: cfg.eta,
        objective: cfg.objective,
    }
}

/// The regression view: the same column storage, residuals as `Y`. Public
/// so callers that launch their own cluster (e.g. the CLI, which needs the
/// cluster handle for reports and trace export) can prepare the launch
/// table the same way [`train_gbt`] does.
///
/// # Panics
/// Panics unless there is one residual per row.
pub fn regression_view(table: &DataTable, residuals: Vec<f64>) -> DataTable {
    match table.relabel(Task::Regression, Labels::Real(residuals)) {
        Ok(view) => view,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_datatable::metrics::{accuracy, rmse};
    use ts_datatable::synth::{generate, SynthSpec};

    fn cfg() -> ClusterConfig {
        ClusterConfig {
            n_workers: 3,
            compers_per_worker: 2,
            tau_d: 300,
            tau_dfs: 1_200,
            ..Default::default()
        }
    }

    #[test]
    fn gbt_regression_beats_mean_and_improves_with_rounds() {
        let t = generate(&SynthSpec {
            rows: 2_000,
            numeric: 5,
            task: Task::Regression,
            noise: 0.05,
            concept_depth: 4,
            seed: 11,
            ..Default::default()
        });
        let (tr, te) = t.train_test_split(0.8, 1);
        let truth = te.labels().as_real().unwrap();
        let mean = truth.iter().sum::<f64>() / truth.len() as f64;
        let base_rmse = rmse(&vec![mean; truth.len()], truth);

        let short = train_gbt(
            cfg(),
            &tr,
            GbtConfig::for_task(Task::Regression)
                .with_rounds(3)
                .with_eta(0.3),
        );
        let long = train_gbt(
            cfg(),
            &tr,
            GbtConfig::for_task(Task::Regression)
                .with_rounds(30)
                .with_eta(0.3),
        );
        let r_short = rmse(&short.predict_values(&te), truth);
        let r_long = rmse(&long.predict_values(&te), truth);
        assert!(
            r_short < base_rmse,
            "3 rounds {r_short} vs mean {base_rmse}"
        );
        assert!(
            r_long < r_short,
            "boosting must improve: {r_short} -> {r_long}"
        );
        assert_eq!(long.n_trees(), 30);
    }

    #[test]
    fn gbt_logistic_classifies() {
        let t = generate(&SynthSpec {
            rows: 2_000,
            numeric: 5,
            noise: 0.05,
            concept_depth: 4,
            seed: 13,
            ..Default::default()
        });
        let (tr, te) = t.train_test_split(0.8, 2);
        let model = train_gbt(
            cfg(),
            &tr,
            GbtConfig::for_task(tr.schema().task)
                .with_rounds(25)
                .with_eta(0.3),
        );
        let acc = accuracy(&model.predict_labels(&te), te.labels().as_class().unwrap());
        assert!(acc > 0.8, "gbt accuracy {acc}");
    }

    #[test]
    fn gbt_is_deterministic() {
        let t = generate(&SynthSpec {
            rows: 800,
            numeric: 4,
            task: Task::Regression,
            seed: 17,
            ..Default::default()
        });
        let run = || {
            train_gbt(
                cfg(),
                &t,
                GbtConfig::for_task(Task::Regression).with_rounds(5),
            )
        };
        assert_eq!(run(), run(), "exact trees + fixed gradients => same model");
    }

    #[test]
    fn gbt_model_serde_roundtrip() {
        let t = generate(&SynthSpec {
            rows: 400,
            numeric: 3,
            task: Task::Regression,
            seed: 19,
            ..Default::default()
        });
        let m = train_gbt(
            cfg(),
            &t,
            GbtConfig::for_task(Task::Regression).with_rounds(2),
        );
        let j = tsjson::to_string(&m).unwrap();
        let back: GbtModel = tsjson::from_str(&j).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn gbt_survives_worker_crash_between_rounds() {
        let t = generate(&SynthSpec {
            rows: 1_200,
            numeric: 4,
            task: Task::Regression,
            seed: 23,
            ..Default::default()
        });
        let view = super::regression_view(&t, vec![0.0; t.n_rows()]);
        let cluster = Cluster::launch(cfg(), &view);
        // First a short boosted model, then a crash, then another: both
        // must complete and the post-crash model must match a clean run
        // (exactness is fault-independent).
        let before = train_gbt_on(
            &cluster,
            &t,
            GbtConfig::for_task(Task::Regression).with_rounds(3),
        );
        cluster.kill_worker(2);
        let after = train_gbt_on(
            &cluster,
            &t,
            GbtConfig::for_task(Task::Regression).with_rounds(3),
        );
        cluster.shutdown();
        assert_eq!(before, after);
    }

    /// FNV-1a 64 of the JSON of 5-round models (trees already canonical), as
    /// printed by commit 1ca5a9f — the last one before the boundary scan was
    /// rewritten. Boosting rounds depend on each other, so one ulp in one
    /// leaf moves every later tree: these pin all five. Not to be
    /// regenerated from the code under test.
    const SQUARED_ERROR_FINGERPRINT: u64 = 0xe14e_86b5_1909_2335;
    const LOGISTIC_FINGERPRINT: u64 = 0x83b7_681e_888a_a6c7;

    #[test]
    fn five_round_models_keep_the_bytes_of_the_two_sided_scan() {
        for (task, seed, want) in [
            (Task::Regression, 31, SQUARED_ERROR_FINGERPRINT),
            (
                Task::Classification { n_classes: 2 },
                37,
                LOGISTIC_FINGERPRINT,
            ),
        ] {
            let t = generate(&SynthSpec {
                rows: 1_500,
                numeric: 5,
                categorical: 2,
                cat_cardinality: 6,
                missing_rate: 0.02,
                task,
                noise: 0.05,
                concept_depth: 4,
                seed,
                ..Default::default()
            });
            let m = train_gbt(cfg(), &t, GbtConfig::for_task(task).with_rounds(5));
            let got = tscheck::fnv1a(&tsjson::to_string(&m).unwrap());
            assert_eq!(got, want, "{task:?}: got {got:#018x}");
        }
    }

    #[test]
    #[should_panic(expected = "supports 2 classes")]
    fn gbt_rejects_multiclass() {
        GbtConfig::for_task(Task::Classification { n_classes: 5 });
    }

    #[test]
    fn compiled_margins_match_reference_bitwise() {
        let t = generate(&SynthSpec {
            rows: 900,
            numeric: 4,
            categorical: 2,
            task: Task::Regression,
            seed: 29,
            ..Default::default()
        });
        let m = train_gbt(
            cfg(),
            &t,
            GbtConfig::for_task(Task::Regression).with_rounds(6),
        );
        let fast = m.predict_margins(&t);
        let slow = m.predict_margins_reference(&t);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn a_mid_run_join_keeps_the_boosted_model() {
        // Every round relabels the cluster. A joiner admitted after some
        // rounds must train on the current round's targets, not on the
        // labels the cluster was launched with.
        let t = generate(&SynthSpec {
            rows: 3_000,
            numeric: 5,
            task: Task::Regression,
            seed: 41,
            ..Default::default()
        });
        let run = |faults: Option<ts_netsim::FaultPlan>| {
            let cluster_cfg = ClusterConfig {
                n_workers: 2,
                work_ns_per_unit: 500,
                faults,
                ..cfg()
            };
            let boost = GbtConfig::for_task(Task::Regression).with_rounds(8);
            train_gbt(cluster_cfg, &t, boost)
        };
        let static_model = run(None);
        for at_ms in [5, 20, 60] {
            let at = std::time::Duration::from_millis(at_ms);
            let plan = ts_netsim::FaultPlan::new(1).with_worker_join(at, 2);
            assert_eq!(run(Some(plan)), static_model, "join at {at_ms} ms");
        }
    }
}
