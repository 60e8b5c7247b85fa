//! # TreeServer — distributed task-based training of tree models
//!
//! A Rust reproduction of *Distributed Task-Based Training of Tree Models*
//! (ICDE 2022): a master–workers system that trains decision trees and tree
//! ensembles **exactly** (no histogram approximation) by
//!
//! - partitioning the data table among workers **by columns** (target `Y`
//!   replicated everywhere, each column on `k = 2` workers),
//! - decomposing tree construction into node-centric **column-tasks** (find
//!   a column's exact best split of `Dx`) and **subtree-tasks** (pull the
//!   whole `Dx` when `|Dx| <= τ_D` and build `∆x` locally, CPU-bound),
//! - scheduling tasks through a **hybrid breadth-first/depth-first** plan
//!   deque so CPU-bound subtree-tasks appear early and overlap with
//!   communication, and
//! - keeping every task's row set `Ix` on a **delegate worker** instead of
//!   relaying it through the master (§V), which removes the master's
//!   outbound bottleneck.
//!
//! The cluster is simulated in-process (real threads per machine, typed
//! channels, byte accounting and a bandwidth/latency model — see
//! `ts-netsim` and DESIGN.md §2), which preserves the paper's communication
//! behaviour at laptop scale.
//!
//! ## Quick start
//!
//! ```
//! use treeserver::{Cluster, ClusterConfig, JobSpec};
//! use ts_datatable::synth::{generate, SynthSpec};
//!
//! let table = generate(&SynthSpec { rows: 2_000, ..Default::default() });
//! let cluster = Cluster::launch(ClusterConfig::default(), &table);
//! let model = cluster.train(JobSpec::decision_tree(table.schema().task)).into_tree();
//! assert!(model.n_nodes() >= 1);
//! cluster.shutdown();
//! ```
//!
//! The engine guarantee worth testing against: a cluster of any shape
//! produces **the same tree** as the single-threaded exact trainer in
//! `ts-tree` — scheduling only changes *when* work happens, never *what* is
//! computed.

/// Records a task-lifecycle event on a machine's ring.
///
/// `$stats` is a `&NetStats` (everything in the engine already holds one),
/// `$node` the observing machine id, and `$event` a `ts_obs::Event`
/// expression. This is a recorder lookup (`OnceLock` load) and, only when
/// one was attached at launch, an event record: the event expression is
/// not evaluated when tracing is off.
#[macro_export]
macro_rules! obs_event {
    ($stats:expr, $node:expr, $event:expr) => {
        if let Some(__rec) = $stats.recorder() {
            __rec.record($node as u32, $event);
        }
    };
}

pub use ts_obs as obs;

pub mod assign;
pub mod cluster;
pub mod config;
pub mod gbt;
pub mod ids;
pub mod job;
pub mod master;
pub mod messages;
mod post;
pub mod recovery;
pub mod sched;
pub mod worker;

pub use cluster::{Cluster, ClusterReport};
pub use config::{ClusterConfig, Splitter};
pub use gbt::{train_gbt, train_gbt_on, GbtConfig, GbtModel, GbtObjective};
pub use ids::{ParentRef, RowSet, Side, TaskId, TreeId};
pub use job::{JobHandle, JobKind, JobResult, JobSpec};
pub use recovery::{AttrId, RecoveryError};
pub use sched::{PlanQueue, StealInfo};
pub use ts_netsim::{FaultPlan, NetModel};
