//! The single-threaded exact recursive trainer.
//!
//! This is the code a subtree-task runs on its key worker: given the
//! materialised `Dx` ([`LocalDataset`]), build the entire subtree `∆x` with
//! no further communication (paper §III). It uses exactly the same scan
//! cores ([`ts_splits::sorted`]) and the same cross-column comparison as
//! the distributed column-task path, so the engine's trees are bit-identical
//! to single-machine training — the exactness guarantee the paper
//! distinguishes TreeServer from PLANET/MLlib by.
//!
//! A node gets its sorted sequence one way: the dataset's presorted orders
//! are derived from its ranks once per subtree into a [`NodeOrders`], every
//! node owns a contiguous segment of each order, and choosing a split
//! stable-partitions the node's segments into its children's — `O(rows)`
//! per column per tree level, no per-node sort and no pass over rows
//! outside the node (docs/PERF.md).
//!
//! A node's rows are touched once per column and once more to be handed to
//! its children; whatever else is known about the node is handed over, not
//! recomputed (docs/PERF.md, "What a node costs besides its scan"):
//!
//! - only the root counts its labels. Every other node's statistics are the
//!   `left` / `right` of the split that made it — class counts read off the
//!   scan, regression sums routed in ascending row order, either way the
//!   bits a recount of the node's rows gives (debug builds make the recount
//!   and compare) — and the scans of the node's columns start from them;
//! - a split whose children are both leaves by the trainer's own rule
//!   (`dmax` reached, at most `tau_leaf` rows, pure) pushes two leaves from
//!   those statistics and partitions nothing: no row of a leaf is read again.

use crate::dataset::LocalDataset;
use crate::model::{DecisionTreeModel, Node, Prediction, SplitInfo};
use std::ops::Range;
use ts_datatable::{AttrType, Task};
use ts_splits::condition::partition_rows_buf;
use ts_splits::exact::{ColumnSplit, SplitCandidate};
use ts_splits::impurity::{Impurity, LabelView, NodeStats};
use ts_splits::random::random_split_for_column;
use ts_splits::sorted::{
    best_split_in, distinct_categories_at, ColumnRef, NodeOrders, NodeRows, Segments,
};
use tsrand::rngs::StdRng;
use tsrand::seq::SliceRandom;
use tsrand::SeedableRng;

/// How splits are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainMode {
    /// Greedy exact splits over all candidate columns (decision trees,
    /// random forests — the column subset is baked into the dataset).
    Exact,
    /// Completely-random trees (Appendix F): one column resampled per node,
    /// a random threshold/category — structure driven by the seed.
    ExtraTrees,
}

/// Training hyperparameters shared by the local trainer and the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainParams {
    /// Impurity function (Gini/entropy for classification, variance for
    /// regression).
    pub impurity: Impurity,
    /// Maximum node depth; nodes at `depth >= dmax` become leaves. Use
    /// `u32::MAX` for unbounded (the paper's CF stage uses `dmax = ∞`).
    pub dmax: u32,
    /// A node with `|Dx| <= tau_leaf` becomes a leaf.
    pub tau_leaf: u64,
    /// Split-selection mode.
    pub mode: TrainMode,
}

impl Default for TrainParams {
    fn default() -> Self {
        TrainParams {
            impurity: Impurity::Gini,
            dmax: 10,
            tau_leaf: 1,
            mode: TrainMode::Exact,
        }
    }
}

impl TrainParams {
    /// Default parameters for a task, matching the paper's experiment setup
    /// (`dmax = 10`, `tau_leaf = 1`, Gini for classification, variance for
    /// regression).
    pub fn for_task(task: Task) -> TrainParams {
        TrainParams {
            impurity: if task.is_classification() {
                Impurity::Gini
            } else {
                Impurity::Variance
            },
            ..Default::default()
        }
    }
}

/// Converts node label statistics into the node's stored prediction.
pub fn prediction_from_stats(stats: &NodeStats) -> Prediction {
    match stats {
        NodeStats::Class(c) => {
            let (label, pmf) = c.prediction();
            Prediction::Class { label, pmf }
        }
        NodeStats::Reg(a) => Prediction::Real(a.mean()),
    }
}

/// Trains a whole tree over `table`, restricted to the `candidates` columns
/// (the per-tree sampled `C`; pass `0..m` for a plain decision tree).
pub fn train_tree(
    table: &ts_datatable::DataTable,
    candidates: &[usize],
    params: &TrainParams,
    seed: u64,
) -> DecisionTreeModel {
    let data = LocalDataset::from_table(table, candidates);
    train_subtree(&data, params, 0, seed)
}

/// Trains the subtree over a materialised dataset whose root sits at
/// absolute depth `base_depth` in the enclosing tree. Node depths in the
/// returned model are relative to the subtree root ([`DecisionTreeModel::graft`]
/// re-bases them).
pub fn train_subtree(
    data: &LocalDataset,
    params: &TrainParams,
    base_depth: u32,
    seed: u64,
) -> DecisionTreeModel {
    assert!(data.n_rows() > 0, "cannot train on an empty dataset");
    let mut rng = StdRng::seed_from_u64(seed);
    let n_classes = data.task.n_classes().unwrap_or(0);
    // Random splits draw their thresholds from the rng, not from a sorted
    // order: extra-trees get an order over no columns.
    let indexes: &[_] = match params.mode {
        TrainMode::Exact => &data.sorted,
        TrainMode::ExtraTrees => &[],
    };
    let orders = NodeOrders::new(indexes.iter().map(|index| index.as_ref()), data.n_rows());
    let root = orders.root();
    let mut builder = Builder {
        data,
        params,
        base_depth,
        nodes: Vec::new(),
        rng: &mut rng,
        view: LabelView::of(&data.labels, n_classes),
        orders,
    };
    let all: Vec<u32> = (0..data.n_rows() as u32).collect();
    // The one count of the subtree: every other node's statistics come with
    // the split that created it.
    let stats = NodeStats::from_view(builder.view);
    builder.build(all, root, stats, 0);
    DecisionTreeModel::new(builder.nodes, data.task)
}

struct Builder<'a> {
    data: &'a LocalDataset,
    params: &'a TrainParams,
    base_depth: u32,
    nodes: Vec<Node>,
    rng: &'a mut StdRng,
    /// Full-dataset label view; per-node stats are accumulated through it by
    /// position, which avoids the per-node label gather of the legacy path.
    view: LabelView<'a>,
    /// The node-partitioned presorted orders: read-only during a node's
    /// column loop, partitioned once its split is chosen.
    orders: NodeOrders,
}

impl Builder<'_> {
    /// Whether a node with these statistics at relative depth `depth` is a
    /// leaf whatever its columns hold — the rule the master applies to a
    /// column-task's children too.
    fn must_leaf(&self, stats: &NodeStats, depth: u32) -> bool {
        self.base_depth.saturating_add(depth) >= self.params.dmax
            || stats.n() <= self.params.tau_leaf
            || stats.is_pure()
    }

    /// Pushes a leaf with these statistics; returns its arena index.
    fn leaf(&mut self, stats: &NodeStats, depth: u32) -> usize {
        let leaf = Node::leaf(prediction_from_stats(stats), stats.n(), depth);
        self.nodes.push(leaf);
        self.nodes.len() - 1
    }

    /// The statistics of `positions`, counted: what a node's inherited
    /// statistics are checked against in debug builds.
    fn recount(&self, positions: &[u32]) -> NodeStats {
        NodeRows::Subset(positions).stats(self.view)
    }

    /// Builds the node over `positions` (ascending row positions within the
    /// dataset), which owns the segments `segs` of the presorted orders and
    /// has the label statistics `stats`, at relative depth `depth`; returns
    /// its arena index.
    fn build(
        &mut self,
        positions: Vec<u32>,
        segs: Segments,
        stats: NodeStats,
        depth: u32,
    ) -> usize {
        debug_assert_eq!(
            stats,
            self.recount(&positions),
            "a node's inherited statistics must equal a recount of its rows"
        );
        let chosen = if self.must_leaf(&stats, depth) {
            None
        } else {
            self.choose_split(&positions, &segs, &stats)
        };
        // Pre-order arena: the node, then its left subtree, then its right.
        let id = self.leaf(&stats, depth);
        let Some((col_idx, split)) = chosen else {
            return id;
        };

        let seen = match self.data.types[col_idx] {
            AttrType::Categorical { n_values } => {
                Some(if positions.len() == self.data.n_rows() {
                    // Root-sized node: the distinct set cached at dataset
                    // construction is exactly "seen in Dx".
                    self.data.sorted[col_idx].distinct().to_vec()
                } else {
                    let codes = self.data.columns[col_idx]
                        .as_categorical()
                        .expect("categorical attribute stores categorical codes");
                    distinct_categories_at(codes, NodeRows::Subset(&positions), n_values)
                })
            }
            AttrType::Numeric => None,
        };
        let column = &self.data.columns[col_idx];
        let (l, r) = if self.must_leaf(&split.left, depth + 1)
            && self.must_leaf(&split.right, depth + 1)
        {
            // Nothing below reads the children's rows or segments: they are
            // their statistics, which the split came with.
            debug_assert!(
                {
                    let (left, right) = partition_rows_buf(column, &positions, &split);
                    self.recount(&left) == split.left && self.recount(&right) == split.right
                },
                "a split's child statistics must equal a recount of the child's rows"
            );
            (
                self.leaf(&split.left, depth + 1),
                self.leaf(&split.right, depth + 1),
            )
        } else {
            let (left_positions, right_positions) = partition_rows_buf(column, &positions, &split);
            debug_assert_eq!(left_positions.len() as u64, split.n_left());
            debug_assert_eq!(right_positions.len() as u64, split.n_right());
            let (left_segs, right_segs) = self.orders.split(&segs, &left_positions);
            drop((positions, segs));
            (
                self.build(left_positions, left_segs, split.left, depth + 1),
                self.build(right_positions, right_segs, split.right, depth + 1),
            )
        };
        let info = SplitInfo {
            attr: self.data.attrs[col_idx],
            test: split.test,
            gain: split.gain,
            missing_left: split.missing_left,
            seen,
        };
        self.nodes[id].split = Some((info, l, r));
        id
    }

    /// Picks the split for a node; returns `(local column index, split)` or
    /// `None` when no column can split.
    fn choose_split(
        &mut self,
        positions: &[u32],
        segs: &[Range<usize>],
        stats: &NodeStats,
    ) -> Option<(usize, ColumnSplit)> {
        match self.params.mode {
            TrainMode::Exact => {
                let data = self.data;
                let view = self.view;
                let imp = self.params.impurity;
                let orders = &self.orders;
                let node = if positions.len() == data.n_rows() {
                    NodeRows::All(data.n_rows())
                } else {
                    NodeRows::Subset(positions)
                };

                let col = |i: usize| {
                    ColumnRef::of_column(&data.columns[i], &data.sorted[i], data.types[i])
                };

                // Fold in column order: the strict total order every
                // trainer and the column-tasks share.
                let mut best: Option<(usize, SplitCandidate)> = None;
                for i in 0..data.n_cols() {
                    let candidate =
                        best_split_in(col(i), orders.segment(i, segs), node, stats, view, imp);
                    let Some(s) = candidate else { continue };
                    let wins = match &best {
                        None => true,
                        Some((bi, bs)) => SplitCandidate::challenger_wins(
                            &s,
                            self.data.attrs[i],
                            bs,
                            self.data.attrs[*bi],
                        ),
                    };
                    if wins {
                        best = Some((i, s));
                    }
                }
                // Regression children are summed here, once, for the winner.
                best.map(|(i, s)| (i, s.finish(col(i), node, view)))
            }
            TrainMode::ExtraTrees => {
                // Resample columns in random order until one can split; a
                // column with a constant value in Dx cannot. Random splits
                // work on the node's gathered values (their thresholds come
                // from the rng, not from a sorted order).
                let labels_sub = self.data.labels.gather(positions);
                let n_classes = self.data.task.n_classes().unwrap_or(0);
                let view = LabelView::of(&labels_sub, n_classes);
                let mut order: Vec<usize> = (0..self.data.n_cols()).collect();
                order.shuffle(self.rng);
                for i in order {
                    let sub = self.data.columns[i].gather(positions);
                    if let Some(s) = random_split_for_column(&sub, view, self.rng) {
                        return Some((i, s));
                    }
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_datatable::metrics::accuracy;
    use ts_datatable::synth::{generate, SynthSpec};
    use ts_datatable::Task;

    fn learnable_table(rows: usize, seed: u64) -> ts_datatable::DataTable {
        generate(&SynthSpec {
            rows,
            numeric: 5,
            categorical: 2,
            cat_cardinality: 6,
            noise: 0.02,
            concept_depth: 4,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn exact_tree_fits_training_data_well() {
        let t = learnable_table(2_000, 3);
        let params = TrainParams {
            dmax: 12,
            ..TrainParams::for_task(t.schema().task)
        };
        let model = train_tree(&t, &(0..t.n_attrs()).collect::<Vec<_>>(), &params, 0);
        let acc = accuracy(&model.predict_labels(&t), t.labels().as_class().unwrap());
        assert!(acc > 0.9, "training accuracy {acc}");
    }

    #[test]
    fn exact_tree_generalises_above_majority_baseline() {
        let t = learnable_table(4_000, 5);
        let (tr, te) = t.train_test_split(0.75, 1);
        let params = TrainParams::for_task(t.schema().task);
        let model = train_tree(&tr, &(0..tr.n_attrs()).collect::<Vec<_>>(), &params, 0);
        let acc = accuracy(&model.predict_labels(&te), te.labels().as_class().unwrap());
        // Majority baseline for a 2-class planted concept sits near 0.5-0.7.
        assert!(acc > 0.75, "test accuracy {acc}");
    }

    #[test]
    fn dmax_zero_yields_single_leaf() {
        let t = learnable_table(100, 1);
        let params = TrainParams {
            dmax: 0,
            ..Default::default()
        };
        let model = train_tree(&t, &[0, 1], &params, 0);
        assert_eq!(model.n_nodes(), 1);
        assert!(model.nodes[0].is_leaf());
    }

    #[test]
    fn dmax_bounds_depth() {
        let t = learnable_table(2_000, 2);
        for dmax in [1, 3, 6] {
            let params = TrainParams {
                dmax,
                ..Default::default()
            };
            let model = train_tree(&t, &(0..t.n_attrs()).collect::<Vec<_>>(), &params, 0);
            assert!(
                model.max_depth() <= dmax,
                "depth {} > dmax {dmax}",
                model.max_depth()
            );
        }
    }

    #[test]
    fn tau_leaf_prunes_small_nodes() {
        let t = learnable_table(1_000, 2);
        let params = TrainParams {
            tau_leaf: 100,
            dmax: 20,
            ..Default::default()
        };
        let model = train_tree(&t, &(0..t.n_attrs()).collect::<Vec<_>>(), &params, 0);
        for n in &model.nodes {
            if !n.is_leaf() {
                assert!(n.n_rows > 100, "internal node with {} rows", n.n_rows);
            }
        }
    }

    #[test]
    fn exact_training_never_gathers_or_sorts_a_node() {
        // No test of this crate runs a kernel that ticks the gather counter,
        // so it must stand still across the call; every numeric search of
        // the tree ticks the presorted one.
        let t = learnable_table(3_000, 13);
        let c: Vec<usize> = (0..t.n_attrs()).collect();
        let before = ts_splits::kernel_counters();
        let model = train_tree(&t, &c, &TrainParams::for_task(t.schema().task), 0);
        let after = ts_splits::kernel_counters();
        assert_eq!(after.numeric_gather_scans, before.numeric_gather_scans);
        let searched = (model.n_nodes() - model.n_leaves()) as u64 * 5;
        assert!(after.numeric_sorted_scans - before.numeric_sorted_scans >= searched);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let t = learnable_table(1_500, 9);
        let params = TrainParams::for_task(t.schema().task);
        let c: Vec<usize> = (0..t.n_attrs()).collect();
        let a = train_tree(&t, &c, &params, 0);
        let b = train_tree(&t, &c, &params, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn candidate_restriction_is_respected() {
        let t = learnable_table(1_000, 4);
        let model = train_tree(&t, &[2, 4], &TrainParams::default(), 0);
        for n in &model.nodes {
            if let Some((info, _, _)) = &n.split {
                assert!([2, 4].contains(&info.attr));
            }
        }
    }

    #[test]
    fn subtree_base_depth_respects_dmax() {
        let t = learnable_table(1_000, 6);
        let data = LocalDataset::from_table(&t, &[0, 1, 2]);
        let params = TrainParams {
            dmax: 5,
            ..Default::default()
        };
        let model = train_subtree(&data, &params, 3, 0);
        // Absolute depth cap 5 minus base 3 leaves at most 2 relative levels.
        assert!(model.max_depth() <= 2);
    }

    #[test]
    fn node_counters_partition_parent() {
        let t = learnable_table(2_000, 8);
        let model = train_tree(
            &t,
            &(0..t.n_attrs()).collect::<Vec<_>>(),
            &TrainParams::default(),
            0,
        );
        for n in &model.nodes {
            if let Some((_, l, r)) = &n.split {
                assert_eq!(
                    model.nodes[*l].n_rows + model.nodes[*r].n_rows,
                    n.n_rows,
                    "children must partition the parent rows"
                );
            }
        }
    }

    #[test]
    fn regression_tree_reduces_rmse() {
        let t = generate(&SynthSpec {
            rows: 3_000,
            numeric: 6,
            categorical: 1,
            task: Task::Regression,
            noise: 0.05,
            concept_depth: 4,
            seed: 12,
            ..Default::default()
        });
        let (tr, te) = t.train_test_split(0.8, 2);
        let params = TrainParams::for_task(Task::Regression);
        let model = train_tree(&tr, &(0..tr.n_attrs()).collect::<Vec<_>>(), &params, 0);
        let pred = model.predict_values(&te);
        let truth = te.labels().as_real().unwrap();
        let rmse = ts_datatable::metrics::rmse(&pred, truth);
        // Mean-only baseline.
        let mean = truth.iter().sum::<f64>() / truth.len() as f64;
        let base: Vec<f64> = vec![mean; truth.len()];
        let base_rmse = ts_datatable::metrics::rmse(&base, truth);
        assert!(
            rmse < base_rmse * 0.7,
            "rmse {rmse} vs baseline {base_rmse}"
        );
    }

    #[test]
    fn extra_trees_build_and_vary_with_seed() {
        let t = learnable_table(1_000, 7);
        let params = TrainParams {
            mode: TrainMode::ExtraTrees,
            ..Default::default()
        };
        let c: Vec<usize> = (0..t.n_attrs()).collect();
        let a = train_tree(&t, &c, &params, 1);
        let b = train_tree(&t, &c, &params, 2);
        let a2 = train_tree(&t, &c, &params, 1);
        assert_eq!(a, a2, "same seed, same tree");
        assert_ne!(a, b, "different seeds should differ");
        assert!(a.n_nodes() > 3);
    }

    #[test]
    fn missing_values_train_without_panic() {
        let t = generate(&SynthSpec {
            rows: 1_000,
            numeric: 4,
            categorical: 2,
            missing_rate: 0.15,
            seed: 3,
            ..Default::default()
        });
        let model = train_tree(
            &t,
            &(0..t.n_attrs()).collect::<Vec<_>>(),
            &TrainParams::default(),
            0,
        );
        assert!(model.n_nodes() >= 1);
        // Prediction over the same (missing-laden) table must not panic.
        let _ = model.predict_labels(&t);
    }

    #[test]
    fn pure_dataset_is_single_leaf() {
        use ts_datatable::{AttrMeta, Column, Labels, Schema};
        let t = ts_datatable::DataTable::new(
            Schema::new(
                vec![AttrMeta::numeric("a")],
                Task::Classification { n_classes: 2 },
            ),
            vec![Column::Numeric(vec![1.0, 2.0, 3.0])],
            Labels::Class(vec![1, 1, 1]),
        );
        let model = train_tree(&t, &[0], &TrainParams::default(), 0);
        assert_eq!(model.n_nodes(), 1);
        assert_eq!(model.nodes[0].prediction.label(), 1);
    }
}
