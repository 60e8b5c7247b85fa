//! `LocalDataset`: the materialised `Dx` a subtree-task trains on.
//!
//! When `|Dx| <= τ_D`, the key worker pulls the candidate columns restricted
//! to `Ix` from the machines holding them plus the `Y`-values it already has
//! locally, and assembles this structure (paper §III/IV). The same structure
//! backs whole-table single-machine training (the fairness experiment).

use std::sync::Arc;
use ts_datatable::{AttrType, DataTable, Labels, SortedColumn, Task, ValuesBuf};

/// A gathered, self-contained slice of the training data: a set of columns
/// (by global attribute id) over one common row set, plus labels.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDataset {
    /// Global attribute id of each local column.
    pub attrs: Vec<usize>,
    /// Attribute type of each local column.
    pub types: Vec<AttrType>,
    /// Gathered values of each local column, all aligned on the same rows.
    pub columns: Vec<ValuesBuf>,
    /// Presorted index of each local column, over positions within the
    /// dataset: built once at construction — or shared with the store the
    /// column was copied from, when the dataset spans all of its rows — and
    /// the source of the trainer's node-partitioned orders (see
    /// `ts_splits::sorted::NodeOrders`).
    pub sorted: Vec<Arc<SortedColumn>>,
    /// Gathered labels, aligned with the columns.
    pub labels: Labels,
    /// The prediction task.
    pub task: Task,
}

impl LocalDataset {
    /// Builds a dataset, validating alignment and presorting every column.
    ///
    /// # Panics
    /// Panics if the parallel vectors disagree in length or any column is
    /// not aligned with the labels.
    pub fn new(
        attrs: Vec<usize>,
        types: Vec<AttrType>,
        columns: Vec<ValuesBuf>,
        labels: Labels,
        task: Task,
    ) -> Self {
        let sorted = columns
            .iter()
            .map(|c| Arc::new(SortedColumn::build_buf(c)))
            .collect();
        Self::with_indexes(attrs, types, columns, sorted, labels, task)
    }

    /// [`LocalDataset::new`] over columns whose presorted indexes already
    /// exist: `sorted[i]` must be the index `SortedColumn::build_buf` would
    /// build for `columns[i]`. A worker whose subtree-task covers every row
    /// passes its resident indexes here instead of sorting the copies again.
    ///
    /// # Panics
    /// Panics if the parallel vectors disagree in length or any column is
    /// not aligned with the labels.
    pub fn with_indexes(
        attrs: Vec<usize>,
        types: Vec<AttrType>,
        columns: Vec<ValuesBuf>,
        sorted: Vec<Arc<SortedColumn>>,
        labels: Labels,
        task: Task,
    ) -> Self {
        assert_eq!(attrs.len(), types.len(), "attrs/types length mismatch");
        assert_eq!(attrs.len(), columns.len(), "attrs/columns length mismatch");
        assert_eq!(attrs.len(), sorted.len(), "attrs/indexes length mismatch");
        let n = labels.len();
        for (i, c) in columns.iter().enumerate() {
            assert_eq!(c.len(), n, "column {i} not aligned with labels");
        }
        LocalDataset {
            attrs,
            types,
            columns,
            sorted,
            labels,
            task,
        }
    }

    /// Builds a dataset over a whole table restricted to `candidates`
    /// (global attribute ids). Used by single-machine training and tests.
    pub fn from_table(table: &DataTable, candidates: &[usize]) -> Self {
        let all_rows: Vec<u32> = (0..table.n_rows() as u32).collect();
        Self::from_table_rows(table, candidates, &all_rows)
    }

    /// Builds a dataset over a row subset of a table.
    pub fn from_table_rows(table: &DataTable, candidates: &[usize], rows: &[u32]) -> Self {
        let attrs = candidates.to_vec();
        let types = candidates
            .iter()
            .map(|&a| table.schema().attr_type(a))
            .collect();
        let columns = candidates.iter().map(|&a| table.gather(a, rows)).collect();
        let labels = table.labels().gather(rows);
        LocalDataset::new(attrs, types, columns, labels, table.schema().task)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of local columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Bytes of the gathered data: column values plus labels. The presorted
    /// indexes (`SortedColumn::payload_bytes` — the rank, 4 per row of a
    /// numeric column, and its step map, a bit per row — where the dataset
    /// built them rather than sharing a store's) and the exact trainer's
    /// working orders
    /// ([`LocalDataset::order_bytes`]) come on top; the engine's task-memory
    /// accounting charges all three.
    pub fn payload_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(ValuesBuf::payload_bytes)
            .sum::<usize>()
            + self.labels.payload_bytes()
    }

    /// Bytes `train_subtree` allocates in `TrainMode::Exact` for its
    /// node-partitioned numeric orders, derived from the ranks: 4 per
    /// present row per numeric column.
    pub fn order_bytes(&self) -> usize {
        self.sorted
            .iter()
            .map(|index| match index.as_ref() {
                SortedColumn::Numeric { present, .. } => present * std::mem::size_of::<u32>(),
                SortedColumn::Categorical { .. } => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_datatable::synth::{generate, SynthSpec};

    #[test]
    fn from_table_gathers_all_rows() {
        let t = generate(&SynthSpec {
            rows: 50,
            numeric: 3,
            categorical: 1,
            ..Default::default()
        });
        let d = LocalDataset::from_table(&t, &[0, 2, 3]);
        assert_eq!(d.n_rows(), 50);
        assert_eq!(d.n_cols(), 3);
        assert_eq!(d.attrs, vec![0, 2, 3]);
        assert_eq!(d.columns[0], t.gather(0, &(0..50).collect::<Vec<_>>()));
    }

    #[test]
    fn from_table_rows_subset() {
        let t = generate(&SynthSpec {
            rows: 20,
            numeric: 2,
            ..Default::default()
        });
        let d = LocalDataset::from_table_rows(&t, &[1], &[3, 7, 11]);
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.columns[0], t.gather(1, &[3, 7, 11]));
        assert_eq!(d.labels, t.labels().gather(&[3, 7, 11]));
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_column_panics() {
        LocalDataset::new(
            vec![0],
            vec![AttrType::Numeric],
            vec![ValuesBuf::Numeric(vec![1.0, 2.0])],
            Labels::Real(vec![1.0]),
            Task::Regression,
        );
    }

    #[test]
    fn payload_bytes_counts_columns_and_labels() {
        let d = LocalDataset::new(
            vec![0],
            vec![AttrType::Numeric],
            vec![ValuesBuf::Numeric(vec![1.0, 2.0])],
            Labels::Real(vec![1.0, 2.0]),
            Task::Regression,
        );
        assert_eq!(d.payload_bytes(), 16 + 16);
    }

    #[test]
    fn order_bytes_count_present_rows_of_numeric_columns() {
        let d = LocalDataset::new(
            vec![0, 1],
            vec![AttrType::Numeric, AttrType::Categorical { n_values: 3 }],
            vec![
                ValuesBuf::Numeric(vec![1.0, f64::NAN, 2.0]),
                ValuesBuf::Categorical(vec![0, 1, 2]),
            ],
            Labels::Real(vec![1.0, 2.0, 3.0]),
            Task::Regression,
        );
        assert_eq!(d.order_bytes(), 2 * 4);
    }

    #[test]
    fn with_indexes_shares_the_given_indexes() {
        let values = ValuesBuf::Numeric(vec![3.0, 1.0, 2.0]);
        let index = Arc::new(SortedColumn::build_buf(&values));
        let d = LocalDataset::with_indexes(
            vec![4],
            vec![AttrType::Numeric],
            vec![values],
            vec![Arc::clone(&index)],
            Labels::Real(vec![1.0, 2.0, 3.0]),
            Task::Regression,
        );
        assert!(Arc::ptr_eq(&d.sorted[0], &index));
        let rebuilt = LocalDataset::new(
            d.attrs.clone(),
            d.types.clone(),
            d.columns.clone(),
            d.labels.clone(),
            d.task,
        );
        assert_eq!(d, rebuilt);
    }
}
