//! Structured recovery errors: graceful degradation instead of panics.
//!
//! When a worker dies, the master tries to repair the cluster (§VI:
//! revoke in-flight trees, re-replicate the dead worker's columns,
//! restart). Repair can be *impossible* — the dead worker held the last
//! replica of a column, no live worker can receive a new replica, or no
//! workers remain at all. Those used to be `panic!`/`assert!` sites deep
//! inside the master; they now surface as a [`RecoveryError`] that fails
//! every pending job cleanly with a diagnosable report, leaving the
//! process (and any co-hosted clusters) alive.
//!
//! A *graceful* departure (`ts-elastic` drain after an announced
//! preemption, see `docs/ELASTICITY.md`) never constructs these errors:
//! the leaver hands its columns off before it goes, so there is nothing to
//! recover. Only a drain that blows its grace window escalates into the
//! crash path — and can then fail with one of these.

use std::fmt;
use ts_datatable::Task;
use ts_netsim::NodeId;
use ts_splits::Impurity;

/// Column index into the schema (same index space as `ColumnMap`).
pub type AttrId = usize;

/// Why crash recovery could not restore a trainable cluster.
///
/// Returned by `Master::handle_worker_crash` and carried to callers via
/// `JobResult::Failed`. Every variant names the resource that was lost so
/// the report is actionable (raise `replication`, add workers, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// Worker `dead` held the *last* replica of column `attr`: the data is
    /// gone and no re-replication source exists. Raising
    /// `ClusterConfig::replication` prevents this.
    ColumnLost {
        /// The column whose final replica vanished.
        attr: AttrId,
        /// The worker whose loss took it.
        dead: NodeId,
    },
    /// The crashed worker was the last live worker; there is nobody left
    /// to run tasks on.
    NoWorkersLeft {
        /// The final worker to go.
        dead: NodeId,
    },
    /// A column needs a new replica but every live worker already holds
    /// it (replication >= live workers after the crash).
    NoReplicationTarget {
        /// The column that could not be re-replicated.
        attr: AttrId,
    },
    /// Not a lost resource but a job no worker could compute: its impurity
    /// function is not defined on the loaded table's labels (variance on
    /// class labels). `Master::submit` refuses it before anything is
    /// dispatched; the cluster stays healthy.
    ImpurityMismatch {
        /// The job's impurity function.
        impurity: Impurity,
        /// The task of the table the cluster holds.
        task: Task,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RecoveryError::ColumnLost { attr, dead } => write!(
                f,
                "column {attr} lost its last replica when worker {dead} died \
                 (raise replication to survive this failure)"
            ),
            RecoveryError::NoWorkersLeft { dead } => {
                write!(f, "worker {dead} was the last live worker; no workers left")
            }
            RecoveryError::NoReplicationTarget { attr } => write!(
                f,
                "no live worker can accept a new replica of column {attr} \
                 (replication exceeds live workers)"
            ),
            RecoveryError::ImpurityMismatch { impurity, task } => write!(
                f,
                "impurity {impurity:?} is not defined on the labels of the loaded table ({task:?})"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_lost_resource() {
        let e = RecoveryError::ColumnLost { attr: 7, dead: 3 };
        let s = e.to_string();
        assert!(s.contains("column 7"), "{s}");
        assert!(s.contains("worker 3"), "{s}");
        assert!(RecoveryError::NoWorkersLeft { dead: 1 }
            .to_string()
            .contains("no workers left"));
        assert!(RecoveryError::NoReplicationTarget { attr: 2 }
            .to_string()
            .contains("column 2"));
    }

    #[test]
    fn error_is_cloneable_and_comparable() {
        let e = RecoveryError::NoWorkersLeft { dead: 4 };
        assert_eq!(e.clone(), e);
        let _: &dyn std::error::Error = &e;
    }
}
