//! `LocalDataset`: the `Dx` a subtree-task trains on.
//!
//! When `|Dx| <= τ_D`, the key worker pulls the candidate columns it lacks,
//! restricted to `Ix`, from the machines holding them, plus the `Y`-values
//! it already has locally, and assembles this structure (paper §III/IV).
//! A column it holds enters as it is held when `Ix` is every row: the
//! dataset shares the column and its presorted index instead of copying
//! them. The same structure backs whole-table single-machine training (the
//! fairness experiment), sharing the table's columns.

use std::sync::Arc;
use ts_datatable::{AttrType, DataTable, Labels, SharedColumn, SortedColumn, Task};

/// A self-contained slice of the training data: a set of columns (by global
/// attribute id) over one common row set, plus labels.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDataset {
    /// Global attribute id of each local column.
    pub attrs: Vec<usize>,
    /// Attribute type of each local column.
    pub types: Vec<AttrType>,
    /// Values of each local column, all aligned on the same rows: a handle
    /// on the store's column when the dataset spans all of its rows, the
    /// column gathered over the dataset's rows otherwise.
    pub columns: Vec<SharedColumn>,
    /// Presorted index of each local column, over positions within the
    /// dataset: built once at construction — or shared with the store the
    /// column is shared with — and the source of the trainer's
    /// node-partitioned orders (see `ts_splits::sorted::NodeOrders`).
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
        columns: Vec<SharedColumn>,
        labels: Labels,
        task: Task,
    ) -> Self {
        let sorted = columns
            .iter()
            .map(|c| Arc::new(SortedColumn::build(c)))
            .collect();
        Self::with_indexes(attrs, types, columns, sorted, labels, task)
    }

    /// [`LocalDataset::new`] over columns whose presorted indexes already
    /// exist: `sorted[i]` must be the index `SortedColumn::build` would
    /// build for `columns[i]`. A worker whose subtree-task covers every row
    /// passes its resident columns and indexes here.
    ///
    /// # Panics
    /// Panics if the parallel vectors disagree in length or any column is
    /// not aligned with the labels.
    pub fn with_indexes(
        attrs: Vec<usize>,
        types: Vec<AttrType>,
        columns: Vec<SharedColumn>,
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
    /// (global attribute ids), sharing the table's column storage. Used by
    /// single-machine training and tests.
    pub fn from_table(table: &DataTable, candidates: &[usize]) -> Self {
        let columns = candidates.iter().map(|&a| table.shared_column(a)).collect();
        Self::of_table(table, candidates, columns, table.labels().clone())
    }

    /// Builds a dataset over a row subset of a table, gathering its columns.
    pub fn from_table_rows(table: &DataTable, candidates: &[usize], rows: &[u32]) -> Self {
        let columns = (candidates.iter())
            .map(|&a| SharedColumn::owned(table.gather(a, rows)))
            .collect();
        Self::of_table(table, candidates, columns, table.labels().gather(rows))
    }

    /// A dataset of `table`'s `candidates` over these columns and labels.
    fn of_table(
        table: &DataTable,
        candidates: &[usize],
        columns: Vec<SharedColumn>,
        labels: Labels,
    ) -> Self {
        let types = (candidates.iter())
            .map(|&a| table.schema().attr_type(a))
            .collect();
        LocalDataset::new(
            candidates.to_vec(),
            types,
            columns,
            labels,
            table.schema().task,
        )
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of local columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
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
    use ts_datatable::Column;

    fn owned(column: Column) -> SharedColumn {
        SharedColumn::owned(column)
    }

    fn values_ptr(column: &Column) -> *const u8 {
        match column {
            Column::Numeric(v) => v.as_ptr().cast(),
            Column::Categorical(c) => c.as_ptr().cast(),
        }
    }

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
        assert_eq!(*d.columns[0], t.gather(0, &(0..50).collect::<Vec<_>>()));
    }

    #[test]
    fn from_table_shares_the_tables_column_storage() {
        let t = generate(&SynthSpec {
            rows: 40,
            numeric: 2,
            categorical: 2,
            ..Default::default()
        });
        let d = LocalDataset::from_table(&t, &[3, 0, 2]);
        for (column, &a) in d.columns.iter().zip(&d.attrs) {
            assert_eq!(
                values_ptr(column),
                values_ptr(t.column(a)),
                "the dataset copied column {a}"
            );
        }
        // Its indexes are the ones a dataset over copies builds.
        let rows: Vec<u32> = (0..40).collect();
        assert_eq!(d, LocalDataset::from_table_rows(&t, &[3, 0, 2], &rows));
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
        assert_eq!(*d.columns[0], t.gather(1, &[3, 7, 11]));
        assert_eq!(d.labels, t.labels().gather(&[3, 7, 11]));
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_column_panics() {
        LocalDataset::new(
            vec![0],
            vec![AttrType::Numeric],
            vec![owned(Column::Numeric(vec![1.0, 2.0]))],
            Labels::Real(vec![1.0]),
            Task::Regression,
        );
    }

    #[test]
    fn order_bytes_count_present_rows_of_numeric_columns() {
        let d = LocalDataset::new(
            vec![0, 1],
            vec![AttrType::Numeric, AttrType::Categorical { n_values: 3 }],
            vec![
                owned(Column::Numeric(vec![1.0, f64::NAN, 2.0])),
                owned(Column::Categorical(vec![0, 1, 2])),
            ],
            Labels::Real(vec![1.0, 2.0, 3.0]),
            Task::Regression,
        );
        assert_eq!(d.order_bytes(), 2 * 4);
    }

    #[test]
    fn with_indexes_shares_the_given_indexes() {
        let values = owned(Column::Numeric(vec![3.0, 1.0, 2.0]));
        let index = Arc::new(SortedColumn::build(&values));
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
