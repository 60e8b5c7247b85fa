//! Identifiers and small shared types of the engine.

use std::sync::Arc;
use ts_datatable::Column;
use ts_datatable::ValuesBuf;
use ts_netsim::NodeId;
use tsjson::{Deserialize, Serialize};

/// Globally-unique task id (`tx` in the paper). Allocated by the master.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u64);

/// Globally-unique tree id across all jobs (`tid` in Appendix C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TreeId(pub u64);

/// Which child of a split a row set belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Side {
    /// The left child (`xl`).
    Left,
    /// The right child (`xr`).
    Right,
}

/// Where a task's row set `Ix` lives (paper §V).
///
/// The master never ships `Ix`; a task instead learns *who to ask*: the
/// delegate worker of its parent task — called the task's **parent worker** —
/// which holds the winning column and split `Ipa(x)` into `Ixl`/`Ixr`.
/// Root tasks have the implicit `Ix = 0..n` that every machine can
/// materialise locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParentRef {
    /// The tree root: `Ix` is all rows.
    Root,
    /// Ask `worker` (the delegate of task `task`) for the `side` half of its
    /// split row set.
    Node {
        /// The parent worker.
        worker: NodeId,
        /// The parent task whose delegate holds `Ipa(x)`.
        task: TaskId,
        /// Which half this task's rows are.
        side: Side,
    },
}

/// A set of row ids, possibly the implicit full range.
///
/// `All` avoids materialising (and transmitting) `0..n` for root tasks.
#[derive(Debug, Clone)]
pub enum RowSet {
    /// All rows `0..n`.
    All,
    /// An explicit sorted list of row ids, shared without copying between
    /// the task table and the delegate table.
    Ids(Arc<Vec<u32>>),
}

impl RowSet {
    /// Number of rows, given the table's total row count `n`.
    pub fn len(&self, n: usize) -> usize {
        match self {
            RowSet::All => n,
            RowSet::Ids(v) => v.len(),
        }
    }

    /// Whether the set is empty (given `n`).
    pub fn is_empty(&self, n: usize) -> bool {
        self.len(n) == 0
    }

    /// This row set as the split kernels take a node's rows.
    pub fn as_node_rows(&self, n: usize) -> ts_splits::NodeRows<'_> {
        match self {
            RowSet::All => ts_splits::NodeRows::All(n),
            RowSet::Ids(v) => ts_splits::NodeRows::Subset(v),
        }
    }

    /// Materialises the ids (allocates for `All`).
    pub fn to_ids(&self, n: usize) -> Arc<Vec<u32>> {
        match self {
            RowSet::All => Arc::new((0..n as u32).collect()),
            RowSet::Ids(v) => Arc::clone(v),
        }
    }

    /// Gathers a column over this row set: over `All`, a copy of its values.
    pub fn gather(&self, col: &Column, n: usize) -> ValuesBuf {
        match self {
            RowSet::All => {
                debug_assert_eq!(col.len(), n);
                match col {
                    Column::Numeric(v) => ValuesBuf::Numeric(v.clone()),
                    Column::Categorical(c) => ValuesBuf::Categorical(c.clone()),
                }
            }
            RowSet::Ids(v) => col.gather(v),
        }
    }

    /// Gathers labels over this row set.
    pub fn gather_labels(&self, labels: &ts_datatable::Labels, n: usize) -> ts_datatable::Labels {
        match self {
            RowSet::All => {
                debug_assert_eq!(labels.len(), n);
                labels.clone()
            }
            RowSet::Ids(v) => labels.gather(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rowset_all_materialises_range() {
        let r = RowSet::All;
        assert_eq!(r.len(5), 5);
        assert_eq!(*r.to_ids(3), vec![0, 1, 2]);
    }

    #[test]
    fn rowset_ids_shares_without_copy() {
        let ids = Arc::new(vec![2u32, 4]);
        let r = RowSet::Ids(Arc::clone(&ids));
        assert_eq!(r.len(100), 2);
        assert!(Arc::ptr_eq(&r.to_ids(100), &ids));
    }

    #[test]
    fn rowset_gather() {
        let col = Column::Numeric(vec![1.0, 2.0, 3.0]);
        assert_eq!(
            RowSet::All.gather(&col, 3),
            ValuesBuf::Numeric(vec![1.0, 2.0, 3.0])
        );
        let r = RowSet::Ids(Arc::new(vec![2, 0]));
        assert_eq!(r.gather(&col, 3), ValuesBuf::Numeric(vec![3.0, 1.0]));
        let codes = Column::Categorical(vec![4, ts_datatable::MISSING_CAT, 0]);
        assert_eq!(
            RowSet::All.gather(&codes, 3),
            ValuesBuf::Categorical(vec![4, ts_datatable::MISSING_CAT, 0])
        );
    }
}
