//! Columnar data tables for TreeServer.
//!
//! This crate is the data substrate of the TreeServer reproduction (ICDE 2022,
//! *Distributed Task-Based Training of Tree Models*). It provides:
//!
//! - a column-major [`DataTable`] with numeric and categorical attributes,
//!   explicit missing values and a separate target column ([`Labels`]),
//! - schema types ([`Schema`], [`AttrMeta`], [`AttrType`], [`Task`]),
//! - per-column load-time indices: presorted row ranks ([`sorted`]) for the
//!   exact split engine and quantized bin ids ([`binned`]) for the histogram
//!   split path,
//! - a small CSV reader/writer with schema inference ([`csv`]),
//! - seeded synthetic dataset generators matching the *shapes* of the paper's
//!   evaluation datasets ([`synth`]), and
//! - evaluation metrics (accuracy, RMSE) in [`metrics`].
//!
//! The table is column-major on purpose: TreeServer partitions data among
//! machines **by columns**, so the natural unit of storage and of network
//! transfer is a column (or a gathered slice of one).

pub mod binned;
pub mod column;
pub mod csv;
pub mod cv;
pub mod metrics;
pub mod schema;
pub mod sorted;
pub mod synth;
pub mod table;

pub use binned::{BinCuts, BinIds, BinnedColumn};
pub use column::{Column, Value, MISSING_CAT};
pub use schema::{AttrMeta, AttrType, Schema, Task};
pub use sorted::{SortedColumn, MISSING_RANK};
pub use table::{DataTable, Labels, SharedColumn, TableError};
