//! The batched serving engine: compiled multi-tree models, block-parallel
//! evaluation, and optional metrics recording.
//!
//! [`CompiledModel`] is the serving-side counterpart to the three training
//! artefacts — [`DecisionTreeModel`], [`ForestModel`], [`GbtModel`] — with
//! every member tree flattened once into a [`CompiledTree`]
//! (structure-of-arrays node layout, contiguous categorical-set pool and
//! payload buffers; see `ts_tree::compiled` and docs/SERVING.md). Scoring
//! splits the table into row blocks and fans the blocks out over `tspar`;
//! rows are independent, and inside each row the per-tree fold order and
//! arithmetic expressions are exactly the reference traversal's, so the
//! results are **bit-for-bit identical** to the per-row walk for any block
//! size and thread count (`tests/compiled_equiv.rs` enforces this).

use std::sync::Arc;
use std::time::Instant;
use treeserver::{GbtModel, GbtObjective};
use ts_datatable::{DataTable, Task};
use ts_tree::compiled::add_pmf_rows;
use ts_tree::forest::argmax;
use ts_tree::{CompiledTree, DecisionTreeModel, ForestModel, Rows, TableView};

use crate::stats::ServeStats;

/// How the member trees combine into predictions.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Combine {
    /// One tree: its own node payloads are the prediction.
    Single,
    /// Bagged forest: average PMFs (classification) or means (regression).
    Bagged,
    /// Boosted additive model: `base + η · Σ tree(x)`.
    Additive {
        base: f64,
        eta: f64,
        objective: GbtObjective,
    },
}

/// Serving knobs. The defaults serve whole tables single-threaded in
/// 2048-row blocks ([`ts_tree::compiled::DEFAULT_BLOCK_ROWS`]) with no
/// depth cap.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Rows per evaluation block. Each block's terminal-node ids should
    /// stay cache-resident; 1024–8192 is a good range.
    pub block_rows: usize,
    /// `tspar` thread count for the block fan-out; `0` = machine
    /// parallelism, `1` = sequential.
    pub threads: usize,
    /// Appendix-D depth cap applied during traversal (`u32::MAX` = none).
    pub max_depth: u32,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            block_rows: ts_tree::compiled::DEFAULT_BLOCK_ROWS,
            threads: 1,
            max_depth: u32::MAX,
        }
    }
}

impl ServeOptions {
    /// Builder: block size.
    pub fn with_block_rows(mut self, block_rows: usize) -> Self {
        self.block_rows = block_rows;
        self
    }

    /// Builder: thread count (0 = machine parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder: depth cap.
    pub fn with_max_depth(mut self, max_depth: u32) -> Self {
        self.max_depth = max_depth;
        self
    }
}

/// A model compiled for batched serving.
pub struct CompiledModel {
    trees: Vec<CompiledTree>,
    combine: Combine,
    task: Task,
    opts: ServeOptions,
    stats: Option<Arc<ServeStats>>,
}

impl CompiledModel {
    /// Compiles a single decision tree.
    pub fn from_tree(model: &DecisionTreeModel) -> CompiledModel {
        CompiledModel {
            trees: vec![CompiledTree::compile(model)],
            combine: Combine::Single,
            task: model.task,
            opts: ServeOptions::default(),
            stats: None,
        }
    }

    /// Compiles every member of a bagged forest.
    pub fn from_forest(model: &ForestModel) -> CompiledModel {
        CompiledModel {
            trees: model.trees.iter().map(CompiledTree::compile).collect(),
            combine: Combine::Bagged,
            task: model.task,
            opts: ServeOptions::default(),
            stats: None,
        }
    }

    /// Compiles a boosted additive model.
    pub fn from_gbt(model: &GbtModel) -> CompiledModel {
        CompiledModel {
            trees: model.trees.iter().map(CompiledTree::compile).collect(),
            combine: Combine::Additive {
                base: model.base,
                eta: model.eta,
                objective: model.objective,
            },
            task: match model.objective {
                GbtObjective::SquaredError => Task::Regression,
                GbtObjective::Logistic => Task::Classification { n_classes: 2 },
            },
            opts: ServeOptions::default(),
            stats: None,
        }
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
        self.task
    }

    /// Number of compiled member trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Total compiled nodes across all member trees.
    pub fn n_nodes(&self) -> usize {
        self.trees.iter().map(CompiledTree::n_nodes).sum()
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
        self.timed(rows, |m| match m.combine {
            Combine::Single => {
                m.fold_blocks(table, rows, 1, 0u32, |tree| write_payload(tree.labels()))
            }
            Combine::Bagged => {
                let k = m.n_classes();
                m.pmf_blocks(table, rows)
                    .chunks(k.max(1))
                    .map(argmax)
                    .collect()
            }
            Combine::Additive { objective, .. } => {
                assert_eq!(
                    objective,
                    GbtObjective::Logistic,
                    "labels from a squared-error boosted model"
                );
                m.margin_blocks(table, rows)
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
        self.timed(rows, |m| match m.combine {
            Combine::Single => {
                m.fold_blocks(table, rows, 1, 0f64, |tree| write_payload(tree.values()))
            }
            Combine::Bagged => {
                if m.trees.is_empty() {
                    return vec![0.0; rows.len()];
                }
                let n_trees = m.trees.len() as f64;
                let mut acc = m.value_sum_blocks(table, rows);
                for a in &mut acc {
                    *a /= n_trees;
                }
                acc
            }
            Combine::Additive { objective, .. } => {
                assert_eq!(
                    objective,
                    GbtObjective::SquaredError,
                    "values from a logistic boosted model"
                );
                m.margin_blocks(table, rows)
            }
        })
    }

    /// Per-row class PMFs, row-major in one flat `n_rows * n_classes`
    /// buffer. A single tree reports its terminal node's PMF; a forest the
    /// average over member trees.
    pub fn predict_pmf_flat(&self, table: &DataTable) -> Vec<f32> {
        self.predict_pmf_flat_rows(table, Rows::all(table))
    }

    /// [`Self::predict_pmf_flat`] of `rows` of `table`, in `rows`' order.
    pub fn predict_pmf_flat_rows(&self, table: &DataTable, rows: Rows<'_>) -> Vec<f32> {
        self.timed(rows, |m| match m.combine {
            Combine::Single => {
                let k = m.n_classes();
                m.fold_blocks(table, rows, k, 0f32, |tree| {
                    let (k, pmf) = tree.pmf_rows();
                    move |nodes, out| {
                        for (dst, &n) in out.chunks_exact_mut(k).zip(nodes) {
                            dst.copy_from_slice(&pmf[n as usize * k..(n as usize + 1) * k]);
                        }
                    }
                })
            }
            Combine::Bagged => m.pmf_blocks(table, rows),
            Combine::Additive { .. } => panic!("PMFs from a boosted model"),
        })
    }

    /// Per-row class PMFs as one `Vec` per row.
    pub fn predict_pmf(&self, table: &DataTable) -> Vec<Vec<f32>> {
        let k = self.n_classes();
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
            matches!(self.combine, Combine::Additive { .. }),
            "margins are only defined for boosted models"
        );
        self.timed(rows, |m| m.margin_blocks(table, rows))
    }

    /// PMF width; panics on regression models.
    fn n_classes(&self) -> usize {
        self.task
            .n_classes()
            .expect("PMF prediction requires a classification model") as usize
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

    /// The one block loop every `predict_*` runs, over the `rows` of
    /// `table` the call scores. Row blocks fan out over `tspar`; each
    /// worker owns a contiguous span of whole blocks of one preallocated
    /// `width`-per-row accumulator seeded with `init` — no per-block
    /// `Vec`s and no concatenation copy — and reuses one
    /// [`BlockImage`](ts_tree::compiled::BlockImage) and one node buffer
    /// across them, both sized by the rows it scores (a block is never
    /// wider than the call): nothing a call allocates or touches grows
    /// with `block_rows`, with the model, or with the table the rows are
    /// picked from. For each block the image is filled once, then every
    /// member tree walks it and folds its terminal node ids into the
    /// block's slice, in tree order — the reference fold order. `fold_of`
    /// is called once per tree per block and returns that tree's fold, so
    /// whatever the fold reads of the tree (its payload slice, its width)
    /// is resolved there, not once per row. (A single tree is the
    /// one-member case: its "fold" writes the node's payload.)
    fn fold_blocks<'t, A, F>(
        &'t self,
        table: &DataTable,
        rows: Rows<'_>,
        width: usize,
        init: A,
        fold_of: impl Fn(&'t CompiledTree) -> F + Sync,
    ) -> Vec<A>
    where
        A: Clone + Send,
        F: FnMut(&[u32], &mut [A]),
    {
        let view = TableView::of(table);
        let mut out = vec![init; rows.len() * width];
        if out.is_empty() {
            return out;
        }
        // Never wider than the call: a one-row call sets up one row.
        let block = self.opts.block_rows.clamp(1, rows.len());
        let n_blocks = rows.len().div_ceil(block);
        // The worker count is resolved here, once, and handed to `tspar`
        // resolved: `threads: 0` asks the OS (`available_parallelism`
        // reads cgroup files, ≈ 11 µs), and only a call with more than
        // one block has any use for the answer.
        let threads = match self.opts.threads {
            _ if n_blocks == 1 => 1,
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        }
        .min(n_blocks);
        let span = n_blocks.div_ceil(threads) * block;
        let mut spans: Vec<&mut [A]> = out.chunks_mut(span * width).collect();
        tspar::par_for_each_mut(&mut spans, threads, |s, chunk| {
            let mut nodes = vec![0u32; block];
            let mut img = view.image();
            let mut first = s * span;
            for blk in chunk.chunks_mut(block * width) {
                let len = blk.len() / width;
                img.fill(rows.slice(first, len));
                for tree in &self.trees {
                    tree.terminal_nodes_into(&img, self.opts.max_depth, &mut nodes[..len]);
                    fold_of(tree)(&nodes[..len], blk);
                }
                first += len;
            }
        });
        drop(spans);
        out
    }

    /// Averaged forest PMFs, row-major. A zero-tree forest serves the
    /// uninformed uniform prior, matching `ForestModel::predict_pmf`.
    fn pmf_blocks(&self, table: &DataTable, rows: Rows<'_>) -> Vec<f32> {
        let k = self.n_classes();
        if self.trees.is_empty() {
            let p = if k == 0 { 0.0 } else { 1.0 / k as f32 };
            return vec![p; rows.len() * k];
        }
        let inv = 1.0 / self.trees.len() as f32;
        // Sum of member-tree PMFs per row, then the average.
        let mut acc = self.fold_blocks(table, rows, k, 0f32, |tree| {
            let (k, pmf) = tree.pmf_rows();
            move |nodes, acc| add_pmf_rows(k, pmf, nodes, acc)
        });
        for a in &mut acc {
            *a *= inv;
        }
        acc
    }

    /// Sum of member-tree values per row.
    fn value_sum_blocks(&self, table: &DataTable, rows: Rows<'_>) -> Vec<f64> {
        self.fold_blocks(table, rows, 1, 0f64, |tree| {
            let values = tree.values();
            move |nodes, acc| {
                for (a, &node) in acc.iter_mut().zip(nodes) {
                    *a += values[node as usize];
                }
            }
        })
    }

    /// Boosted margins per row.
    fn margin_blocks(&self, table: &DataTable, rows: Rows<'_>) -> Vec<f64> {
        let Combine::Additive { base, eta, .. } = self.combine else {
            unreachable!("caller checked the combine kind");
        };
        self.fold_blocks(table, rows, 1, base, |tree| {
            let values = tree.values();
            move |nodes, acc| {
                for (a, &node) in acc.iter_mut().zip(nodes) {
                    *a += eta * values[node as usize];
                }
            }
        })
    }
}

/// A single tree's "fold": each row's output is its terminal node's entry
/// of `payload` (written, not added — `0.0 + v` is not `v` for `-0.0`).
fn write_payload<T: Copy>(payload: &[T]) -> impl FnMut(&[u32], &mut [T]) + '_ {
    move |nodes, out| {
        for (o, &n) in out.iter_mut().zip(nodes) {
            *o = payload[n as usize];
        }
    }
}
