//! Bagged forests: prediction by PMF averaging.
//!
//! In the paper's deep forest, "a forest for k-class classification returns
//! a k-dimensional vector computed as the average of the class PMF vectors
//! returned by all its trees" (§VII). `ForestModel` implements exactly that,
//! plus plain label/value prediction for the evaluation tables.

use crate::compiled::{CompiledEnsemble, Rows, ServeOptions};
use crate::model::{DecisionTreeModel, Prediction};
use ts_datatable::{DataTable, Task};
use tsjson::{Deserialize, Serialize};

/// A bag of independently-trained trees over one task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForestModel {
    /// The member trees.
    pub trees: Vec<DecisionTreeModel>,
    /// The prediction task.
    pub task: Task,
}

impl ForestModel {
    /// Builds a forest, validating that every tree matches the task.
    ///
    /// A zero-tree forest is allowed (it can also arise from
    /// deserialisation): its predictions are the task's uninformed prior —
    /// a uniform PMF / label 0 for classification, 0.0 for regression.
    ///
    /// # Panics
    /// Panics if a member has a different task.
    pub fn new(trees: Vec<DecisionTreeModel>, task: Task) -> Self {
        for t in &trees {
            assert_eq!(t.task, task, "tree task mismatch");
        }
        ForestModel { trees, task }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// PMF width for classification forests.
    fn n_classes(&self) -> usize {
        self.task
            .n_classes()
            .expect("PMF prediction requires a classification forest") as usize
    }

    /// The averaged PMF vector for one row (classification forests). This
    /// is the per-row reference path; the whole-table methods below run
    /// [`CompiledEnsemble`] and are bit-identical to it.
    pub fn predict_pmf_row(&self, table: &DataTable, row: usize) -> Vec<f32> {
        let k = self.n_classes();
        if self.trees.is_empty() {
            return uniform_pmf(k);
        }
        let mut acc = vec![0f32; k];
        for t in &self.trees {
            let p = t.predict_row(table, row, u32::MAX);
            match p {
                Prediction::Class { pmf, .. } => {
                    for (a, b) in acc.iter_mut().zip(pmf) {
                        *a += b;
                    }
                }
                Prediction::Real(_) => unreachable!("task checked at construction"),
            }
        }
        let inv = 1.0 / self.trees.len() as f32;
        for a in &mut acc {
            *a *= inv;
        }
        acc
    }

    /// Averaged PMFs for every row — deep forest's re-representation
    /// output — on the compiled batched path.
    pub fn predict_pmf(&self, table: &DataTable) -> Vec<Vec<f32>> {
        let k = self.n_classes();
        let flat = self.predict_pmf_flat(table);
        flat.chunks(k.max(1)).map(<[f32]>::to_vec).collect()
    }

    /// Averaged PMFs for every row, row-major in one flat buffer
    /// (`n_rows * n_classes`); the allocation-friendly form the deep-forest
    /// feature extraction builds on.
    pub fn predict_pmf_flat(&self, table: &DataTable) -> Vec<f32> {
        self.compiled()
            .pmf(table, Rows::all(table), &ServeOptions::default())
    }

    /// Majority-vote labels from the averaged PMFs (ties toward the smaller
    /// class id), on the compiled batched path.
    pub fn predict_labels(&self, table: &DataTable) -> Vec<u32> {
        self.compiled()
            .labels(table, Rows::all(table), &ServeOptions::default())
    }

    /// Mean of per-tree regression predictions for every row, on the
    /// compiled batched path.
    pub fn predict_values(&self, table: &DataTable) -> Vec<f64> {
        self.compiled()
            .values(table, Rows::all(table), &ServeOptions::default())
    }

    fn compiled(&self) -> CompiledEnsemble {
        CompiledEnsemble::bagged(&self.trees, self.task)
    }

    /// Reference traversal for [`predict_pmf`](Self::predict_pmf): one
    /// [`predict_pmf_row`](Self::predict_pmf_row) per row.
    pub fn predict_pmf_reference(&self, table: &DataTable) -> Vec<Vec<f32>> {
        (0..table.n_rows())
            .map(|r| self.predict_pmf_row(table, r))
            .collect()
    }

    /// Reference traversal for [`predict_labels`](Self::predict_labels).
    pub fn predict_labels_reference(&self, table: &DataTable) -> Vec<u32> {
        (0..table.n_rows())
            .map(|r| {
                let pmf = self.predict_pmf_row(table, r);
                argmax(&pmf)
            })
            .collect()
    }

    /// Reference traversal for [`predict_values`](Self::predict_values).
    pub fn predict_values_reference(&self, table: &DataTable) -> Vec<f64> {
        if self.trees.is_empty() {
            return vec![0.0; table.n_rows()];
        }
        (0..table.n_rows())
            .map(|r| {
                self.trees
                    .iter()
                    .map(|t| t.predict_row(table, r, u32::MAX).value())
                    .sum::<f64>()
                    / self.trees.len() as f64
            })
            .collect()
    }

    /// Mean gain-based feature importance across the member trees (each
    /// tree's importances are normalised first, so every tree votes with
    /// equal weight).
    pub fn feature_importance(&self, n_attrs: usize) -> Vec<f64> {
        let mut acc = vec![0.0; n_attrs];
        for t in &self.trees {
            for (a, v) in acc.iter_mut().zip(t.feature_importance(n_attrs)) {
                *a += v;
            }
        }
        let inv = 1.0 / self.trees.len() as f64;
        for a in &mut acc {
            *a *= inv;
        }
        acc
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        tsjson::to_string(self).expect("forest serialisation cannot fail")
    }

    /// Deserialises from JSON.
    pub fn from_json(s: &str) -> Result<Self, tsjson::Error> {
        tsjson::from_str(s)
    }
}

/// The uninformed prior a zero-tree classification forest predicts with.
pub(crate) fn uniform_pmf(k: usize) -> Vec<f32> {
    if k == 0 {
        return Vec::new();
    }
    vec![1.0 / k as f32; k]
}

/// Index of the maximum entry, ties toward the smaller index.
pub fn argmax(xs: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train_tree, TrainParams};
    use ts_datatable::metrics::accuracy;
    use ts_datatable::synth::{generate, SynthSpec};

    fn forest_on(rows: usize, n_trees: usize, seed: u64) -> (ForestModel, ts_datatable::DataTable) {
        let t = generate(&SynthSpec {
            rows,
            numeric: 6,
            categorical: 0,
            noise: 0.03,
            concept_depth: 4,
            seed,
            ..Default::default()
        });
        let params = TrainParams::for_task(t.schema().task);
        // Vary the candidate subsets like a random forest (|C| = sqrt(m)).
        let trees: Vec<_> = (0..n_trees)
            .map(|i| {
                let c = vec![i % 6, (i + 2) % 6];
                train_tree(&t, &c, &params, i as u64)
            })
            .collect();
        (ForestModel::new(trees, t.schema().task), t)
    }

    #[test]
    fn pmf_is_normalised_average() {
        let (f, t) = forest_on(800, 5, 3);
        let pmf = f.predict_pmf_row(&t, 0);
        assert_eq!(pmf.len(), 2);
        let sum: f32 = pmf.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "pmf sums to {sum}");
    }

    #[test]
    fn forest_beats_or_matches_nothing_degenerate() {
        let (f, t) = forest_on(2_000, 9, 5);
        let acc = accuracy(&f.predict_labels(&t), t.labels().as_class().unwrap());
        assert!(acc > 0.7, "forest training accuracy {acc}");
    }

    #[test]
    fn argmax_ties_toward_smaller_index() {
        assert_eq!(argmax(&[0.5, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.9, 0.9]), 1);
        assert_eq!(argmax(&[1.0]), 0);
    }

    #[test]
    fn regression_forest_averages_trees() {
        let t = generate(&SynthSpec {
            rows: 1_000,
            numeric: 4,
            task: ts_datatable::Task::Regression,
            seed: 8,
            ..Default::default()
        });
        let params = TrainParams::for_task(ts_datatable::Task::Regression);
        let trees: Vec<_> = (0..3)
            .map(|i| train_tree(&t, &[i, (i + 1) % 4], &params, i as u64))
            .collect();
        let single_preds: Vec<Vec<f64>> = trees.iter().map(|tr| tr.predict_values(&t)).collect();
        let f = ForestModel::new(trees, ts_datatable::Task::Regression);
        let avg = f.predict_values(&t);
        for r in [0usize, 13, 999] {
            let manual = (single_preds[0][r] + single_preds[1][r] + single_preds[2][r]) / 3.0;
            assert!((avg[r] - manual).abs() < 1e-12);
        }
    }

    #[test]
    fn json_roundtrip() {
        let (f, _) = forest_on(300, 2, 1);
        let j = f.to_json();
        let back = ForestModel::from_json(&j).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn zero_tree_forest_is_well_defined() {
        let t = generate(&SynthSpec {
            rows: 7,
            numeric: 2,
            seed: 11,
            ..Default::default()
        });
        let f = ForestModel::new(vec![], t.schema().task);
        assert_eq!(f.n_trees(), 0);
        assert_eq!(f.predict_labels(&t), vec![0; 7]);
        assert_eq!(f.predict_labels_reference(&t), vec![0; 7]);
        for pmf in f.predict_pmf(&t) {
            assert_eq!(pmf, vec![0.5, 0.5]);
        }
        let reg = ForestModel::new(vec![], ts_datatable::Task::Regression);
        assert_eq!(reg.predict_values(&t), vec![0.0; 7]);
        assert_eq!(reg.predict_values_reference(&t), vec![0.0; 7]);
    }

    #[test]
    fn compiled_forest_paths_match_reference_bitwise() {
        let (f, t) = forest_on(600, 7, 21);
        assert_eq!(f.predict_labels(&t), f.predict_labels_reference(&t));
        let fast = f.predict_pmf(&t);
        let slow = f.predict_pmf_reference(&t);
        for (a, b) in fast.iter().zip(&slow) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
