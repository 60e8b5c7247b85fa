//! Split-finding kernels for TreeServer.
//!
//! This crate implements Appendix B of the paper — the per-column algorithms
//! that find the best split-condition of a single attribute over the rows
//! `Dx` of a tree node — plus the approximate machinery used by the
//! baselines.
//!
//! # Three scan cores, one label parameter
//!
//! Every kernel is written once, generic over the label type —
//! [`impurity::LabelAgg`], the incremental aggregate implemented by
//! `ClassCounts` (Gini, entropy) and `RegAgg` (variance), or for the numeric
//! boundary scan the per-impurity scan state `impurity::BoundaryScan` —
//! and monomorphised. Each split family has exactly one scan:
//!
//! | core | what it scans | instantiated by |
//! |---|---|---|
//! | 1. boundary scan (`exact::scan_boundaries`) | a node's present `(value, label)` pairs in `(value, row)` order, `O(1)` incremental impurity per boundary (*Case 1*): one label moved left per row, a gain and a comparison per boundary, the threshold and the class counts for the winner only — Gini exactly, on the left side's running integers with the right side read off `ΣR² = ΣT² + ΣL² − 2 ΣTL` | the one numeric kernel `sorted::numeric_split`, whose sequence comes from rank selection on the resident index ([`sorted::best_split_at`], engine column-tasks; finished at once by [`sorted::best_numeric_split_at`]), from a node's own segment of a [`sorted::NodeOrders`] ([`sorted::best_split_in`]; subtree trainer, Yggdrasil) or from gather + sort ([`exact::best_numeric_split`], the reference) |
//! | 2. bin prefix scan (`hist::best_bin_boundary`) | a histogram's bins as slot views (`[u64]` class counts or a `RegAgg`), one candidate per bin edge, nothing allocated: the right side's impurity is read off the total and the running left | `hist::best_hist_split_at` (the `--splitter hist` engine: rows counted into one flat pooled histogram, `hist[bin * n_classes + y] += 1`; finished at once by [`hist::best_hist_split_numeric_at`]) and [`histogram::NumericHistogram::best_split`] (PLANET, over `ClassCounts::counts`) |
//! | 3. per-category accumulation (`sorted::visit_rows`) | a node's rows into a slot per category — class labels into the same flat histogram, missing rows in its trailing slot — feeding the selectors `exact::best_one_vs_rest` (*Case 3*, over `[u64]` slot views) and `exact::best_breiman_prefix` (*Case 2*) | [`sorted::best_cat_split_classification_at`] / [`sorted::best_cat_split_regression_at`] and their `NodeRows::All` wrappers in [`exact`]; the selectors alone also serve [`histogram::best_cat_from_class_stats`] / [`histogram::best_cat_from_reg_stats`] |
//!
//! Children are assembled in one of two ways, by label type: class counts
//! are integers, so every class kernel reads them off what chose the split —
//! the boundary scan (`exact::split_from_children`) or the histogram's slots
//! (`exact::split_from_slots`, shared with the merged-statistics selectors
//! of [`histogram`]) — and passes over the node's rows once; regression sums
//! are floats, so they are accumulated over the node's rows in ascending row
//! order (`sorted::route_children`) — by [`SplitCandidate::finish`], which a
//! trainer calls once per node for the column that won its fold and a
//! histogram worker once per election, not once per column.
//!
//! # Modules
//!
//! - [`impurity`]: the impurity functions, `LabelAgg` and its two
//!   aggregates, `NodeStats`.
//! - [`sorted`]: the sorted-column split engine — `NodeRows`, the
//!   thread-local scratch arena, the numeric kernel with its rank selection
//!   and the `_at` entries of the column-tasks, and `NodeOrders` (the
//!   presorted orders, inverted from the ranks and partitioned by node) with
//!   `best_split_in`, the entry the whole-subtree trainers call
//!   (docs/PERF.md).
//! - [`exact`]: `ColumnSplit`, `SplitCandidate`, core 1 and the categorical
//!   selectors, plus the *gathered* kernels. Those take a column already
//!   gathered over the node's rows and are thin `NodeRows::All` calls into
//!   [`sorted`]; they stay public because the oracle suites and
//!   `micro_splits` use them as the reference the engine is compared
//!   against.
//! - [`hist`]: core 2 and the distributed histogram split engine over
//!   load-time `BinnedColumn` indices (docs/HISTOGRAM.md).
//! - [`histogram`]: the mergeable PLANET/MLlib statistics (`maxBins`).
//! - [`condition`]: the split-condition type shared by every trainer, and
//!   row partitioning (how a delegate worker splits `Ix` into `Ixl`/`Ixr`).
//! - [`sketch`]: a mergeable weighted quantile sketch — the XGBoost
//!   approximation.
//! - [`random`]: the completely-random splits used by extra-trees
//!   (Appendix F).
//!
//! All kernels are deterministic, with explicit total-order tie-breaking, so
//! the distributed engine and the single-threaded trainer produce *identical*
//! trees — the invariant behind the paper's "exact training" claim and this
//! repo's strongest integration test.

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod condition;
pub mod exact;
pub mod hist;
pub mod histogram;
pub mod impurity;
pub mod random;
pub mod sketch;
pub mod sorted;

pub use condition::{partition_rows, partition_rows_buf, SplitTest};
pub use exact::{best_split_for_column, ColumnSplit, SplitCandidate};
pub use hist::{best_hist_split_at, top_k_candidates, HistCandidate, HistColumnRef};
pub use impurity::{Impurity, LabelView, NodeStats};
pub use sorted::{
    best_split_at, best_split_in, kernel_counters, ColumnRef, KernelCounters, NodeOrders, NodeRows,
    RowBitmap,
};
