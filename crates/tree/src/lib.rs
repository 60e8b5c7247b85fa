//! Decision-tree models and the local exact trainer.
//!
//! This crate holds everything about a *single* tree that is independent of
//! the distributed engine:
//!
//! - [`model`]: the arena-based [`DecisionTreeModel`] with a prediction
//!   stored at **every** node (not just leaves), enabling the paper's
//!   Appendix D features — stop-at-any-depth prediction, and graceful
//!   handling of missing values and categorical values unseen during
//!   training;
//! - [`dataset`]: [`LocalDataset`], the columns a subtree-task trains on —
//!   its worker's held columns, shared, and the ones it gathers or pulls
//!   off other workers;
//! - [`trainer`]: the single-threaded exact recursive trainer. The
//!   distributed engine calls this for every subtree-task, and uses the same
//!   split kernels for column-tasks, so a TreeServer cluster and this
//!   trainer produce **identical** trees — the "exact training" guarantee;
//! - [`forest`]: bagged forests ([`ForestModel`]) whose prediction averages
//!   per-tree PMF vectors (classification) or means (regression), exactly
//!   the k-D re-representation deep forest consumes;
//! - [`compiled`]: the flat structure-of-arrays compilation of a tree, the
//!   batched evaluator over it, and [`CompiledEnsemble`] — the one block
//!   loop and the three ensemble rules (one tree, bagged mean, boosted
//!   sum). Every whole-table prediction method, GBT training's margin
//!   update and `ts-serve` run through it (bit-identically — see
//!   docs/SERVING.md); the per-row `predict_with`/`predict_row` walk stays
//!   the reference traversal, and `ts-serve` adds serving options, the
//!   GBT loss and latency metrics on top.

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod compiled;
pub mod dataset;
pub mod forest;
pub mod model;
pub mod trainer;

pub use compiled::{ColView, CompiledEnsemble, CompiledTree, Rows, ServeOptions, TableView};
pub use dataset::LocalDataset;
pub use forest::ForestModel;
pub use model::{graft_nodes, DecisionTreeModel, Node, Prediction, SplitInfo};
pub use trainer::{train_subtree, train_tree, TrainMode, TrainParams};
