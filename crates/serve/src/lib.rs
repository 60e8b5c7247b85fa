//! ts-serve: the compiled batched inference engine.
//!
//! Training produces three artefact kinds — a single
//! [`DecisionTreeModel`](ts_tree::DecisionTreeModel), a bagged
//! [`ForestModel`](ts_tree::ForestModel), and a boosted
//! [`GbtModel`](treeserver::GbtModel). This crate compiles any of them into
//! a [`CompiledModel`]: every member tree flattened once into the
//! structure-of-arrays layout of [`ts_tree::compiled`], scored over whole
//! tables in cache-friendly row blocks, optionally fanned out over `tspar`
//! threads, with batch latency/throughput recorded into a [`ServeStats`]
//! metrics registry.
//!
//! The engine is **bit-for-bit identical** to the reference per-row
//! traversal for every model kind, depth cap, block size, and thread count;
//! `tests/compiled_equiv.rs` is the differential property suite that keeps
//! it that way. See `docs/SERVING.md` for the layout and the traversal
//! algorithm.

pub mod engine;
pub mod stats;

pub use engine::CompiledModel;
pub use stats::{BatchSpan, ServeStats};
pub use ts_tree::Rows;
pub use ts_tree::ServeOptions;
