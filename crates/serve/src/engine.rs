//! The batched serving engine: a compiled model, its serving options, and
//! optional metrics recording.
//!
//! [`CompiledModel`] is the serving-side counterpart to the three training
//! artefacts — [`DecisionTreeModel`], [`ForestModel`], [`GbtModel`]. It
//! holds their [`CompiledEnsemble`] (`ts_tree::compiled`: every member
//! tree flattened once, the one block loop and the ensemble rules; see
//! docs/SERVING.md) and adds what serving needs on top: the
//! [`ServeOptions`] its calls run with, the GBT loss that decides what a
//! boosted model's label is, and a [`ServeStats`] sink that times every
//! call. The results are **bit-for-bit identical** to the per-row
//! reference walk for any block size and thread count
//! (`tests/compiled_equiv.rs` enforces this).

use std::sync::Arc;
use std::time::Instant;
use treeserver::{GbtModel, GbtObjective};
use ts_datatable::{DataTable, Task};
use ts_tree::{CompiledEnsemble, CompiledTree, DecisionTreeModel, ForestModel, Rows, ServeOptions};

use crate::stats::ServeStats;

/// A model compiled for batched serving.
pub struct CompiledModel {
    ensemble: CompiledEnsemble,
    /// A boosted model's loss, which decides its labels; `None` for a tree
    /// or a forest.
    objective: Option<GbtObjective>,
    opts: ServeOptions,
    stats: Option<Arc<ServeStats>>,
}

impl CompiledModel {
    fn new(ensemble: CompiledEnsemble, objective: Option<GbtObjective>) -> CompiledModel {
        CompiledModel {
            ensemble,
            objective,
            opts: ServeOptions::default(),
            stats: None,
        }
    }

    /// Compiles a single decision tree.
    pub fn from_tree(model: &DecisionTreeModel) -> CompiledModel {
        Self::new(CompiledEnsemble::single(model), None)
    }

    /// Compiles every member of a bagged forest.
    pub fn from_forest(model: &ForestModel) -> CompiledModel {
        Self::new(CompiledEnsemble::bagged(&model.trees, model.task), None)
    }

    /// Compiles a boosted additive model.
    pub fn from_gbt(model: &GbtModel) -> CompiledModel {
        Self::new(
            CompiledEnsemble::additive(&model.trees, model.base, model.eta),
            Some(model.objective),
        )
    }

    /// Builder: serving options.
    pub fn with_options(mut self, opts: ServeOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Builder: attach a metrics sink; every predict call records a batch.
    pub fn with_stats(mut self, stats: Arc<ServeStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The prediction task.
    pub fn task(&self) -> Task {
        match self.objective {
            None => self.ensemble.task(),
            Some(GbtObjective::SquaredError) => Task::Regression,
            Some(GbtObjective::Logistic) => Task::Classification { n_classes: 2 },
        }
    }

    /// Number of compiled member trees.
    pub fn n_trees(&self) -> usize {
        self.ensemble.trees().len()
    }

    /// Total compiled nodes across all member trees.
    pub fn n_nodes(&self) -> usize {
        self.ensemble
            .trees()
            .iter()
            .map(CompiledTree::n_nodes)
            .sum()
    }

    /// Class labels for every row. Defined for classification trees and
    /// forests and for logistic boosted models (`margin > 0`).
    pub fn predict_labels(&self, table: &DataTable) -> Vec<u32> {
        self.predict_labels_rows(table, Rows::all(table))
    }

    /// [`Self::predict_labels`] of `rows` of `table`, in `rows`' order —
    /// what scoring `table.select_rows(ids)` returns, without building
    /// that table: a request batch is imaged from the rows where they lie.
    pub fn predict_labels_rows(&self, table: &DataTable, rows: Rows<'_>) -> Vec<u32> {
        self.timed(rows, |m| match m.objective {
            None => m.ensemble.labels(table, rows, &m.opts),
            Some(objective) => {
                assert_eq!(
                    objective,
                    GbtObjective::Logistic,
                    "labels from a squared-error boosted model"
                );
                m.ensemble
                    .values(table, rows, &m.opts)
                    .into_iter()
                    .map(|v| u32::from(v > 0.0))
                    .collect()
            }
        })
    }

    /// Regression values for every row. Defined for regression trees and
    /// forests and squared-error boosted models.
    pub fn predict_values(&self, table: &DataTable) -> Vec<f64> {
        self.predict_values_rows(table, Rows::all(table))
    }

    /// [`Self::predict_values`] of `rows` of `table`, in `rows`' order.
    pub fn predict_values_rows(&self, table: &DataTable, rows: Rows<'_>) -> Vec<f64> {
        assert_ne!(
            self.objective,
            Some(GbtObjective::Logistic),
            "values from a logistic boosted model"
        );
        self.timed(rows, |m| m.ensemble.values(table, rows, &m.opts))
    }

    /// Per-row class PMFs, row-major in one flat `n_rows * n_classes`
    /// buffer. A single tree reports its terminal node's PMF; a forest the
    /// average over member trees.
    pub fn predict_pmf_flat(&self, table: &DataTable) -> Vec<f32> {
        self.predict_pmf_flat_rows(table, Rows::all(table))
    }

    /// [`Self::predict_pmf_flat`] of `rows` of `table`, in `rows`' order.
    pub fn predict_pmf_flat_rows(&self, table: &DataTable, rows: Rows<'_>) -> Vec<f32> {
        self.timed(rows, |m| m.ensemble.pmf(table, rows, &m.opts))
    }

    /// Per-row class PMFs as one `Vec` per row.
    pub fn predict_pmf(&self, table: &DataTable) -> Vec<Vec<f32>> {
        let k = self
            .task()
            .n_classes()
            .expect("PMF prediction requires a classification model") as usize;
        self.predict_pmf_flat(table)
            .chunks(k.max(1))
            .map(<[f32]>::to_vec)
            .collect()
    }

    /// Raw boosted margins (`base + η · Σ tree(x)`); additive models only.
    pub fn predict_margins(&self, table: &DataTable) -> Vec<f64> {
        self.predict_margins_rows(table, Rows::all(table))
    }

    /// [`Self::predict_margins`] of `rows` of `table`, in `rows`' order.
    pub fn predict_margins_rows(&self, table: &DataTable, rows: Rows<'_>) -> Vec<f64> {
        assert!(
            self.objective.is_some(),
            "margins are only defined for boosted models"
        );
        self.timed(rows, |m| m.ensemble.values(table, rows, &m.opts))
    }

    /// Times `f` and records one batch into the attached stats, if any.
    fn timed<T>(&self, rows: Rows<'_>, f: impl FnOnce(&Self) -> T) -> T {
        let start = Instant::now();
        let out = f(self);
        if let Some(stats) = &self.stats {
            stats.record_batch(rows.len(), start.elapsed());
        }
        out
    }
}
