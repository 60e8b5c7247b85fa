//! The column-major data table and its target labels.

use crate::column::{Column, Value, MISSING_CAT};
use crate::schema::{AttrType, Schema, Task};
use std::sync::Arc;
use tsjson::{Deserialize, Serialize};

/// The target column `Y`.
///
/// Kept separately from the attribute columns because TreeServer replicates
/// `Y` on **every** machine (paper §III: impurity scores at each node are
/// evaluated from the `Y`-values of `Dx`), while attribute columns are
/// partitioned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Labels {
    /// Class labels `0..n_classes` for classification.
    Class(Vec<u32>),
    /// Real-valued targets for regression.
    Real(Vec<f64>),
}

impl Labels {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Labels::Class(v) => v.len(),
            Labels::Real(v) => v.len(),
        }
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gathers labels for the given row ids, preserving order.
    pub fn gather(&self, rows: &[u32]) -> Labels {
        match self {
            Labels::Class(v) => Labels::Class(rows.iter().map(|&r| v[r as usize]).collect()),
            Labels::Real(v) => Labels::Real(rows.iter().map(|&r| v[r as usize]).collect()),
        }
    }

    /// Class labels slice, if classification.
    pub fn as_class(&self) -> Option<&[u32]> {
        match self {
            Labels::Class(v) => Some(v),
            Labels::Real(_) => None,
        }
    }

    /// Real targets slice, if regression.
    pub fn as_real(&self) -> Option<&[f64]> {
        match self {
            Labels::Real(v) => Some(v),
            Labels::Class(_) => None,
        }
    }

    /// Payload size in bytes.
    pub fn payload_bytes(&self) -> usize {
        match self {
            Labels::Class(v) => v.len() * std::mem::size_of::<u32>(),
            Labels::Real(v) => v.len() * std::mem::size_of::<f64>(),
        }
    }
}

/// A column-major data table: schema, attribute columns, and the target.
///
/// Invariants: `columns.len() == schema.n_attrs()`, every column and the
/// labels have exactly `n_rows` entries, the label representation matches
/// `schema.task`, and each column's storage kind matches its declared
/// [`AttrType`]. [`DataTable::try_new`] checks all of these.
///
/// Columns and labels live in shared, immutable storage: a clone, a
/// [`DataTable::relabel`] view and every [`SharedColumn`] handed out read
/// the same bytes, so a cluster launched over a table holds it by reference
/// rather than by copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataTable {
    schema: Schema,
    columns: Arc<Vec<Column>>,
    labels: Arc<Labels>,
    n_rows: usize,
}

/// One attribute column of shared column storage: the storage's `Arc` and
/// the column's index in it, dereferencing to the [`Column`]. A table's
/// column handed to a worker is the table's own bytes; a column that is
/// made elsewhere (received, loaded) is wrapped as storage of one.
#[derive(Clone)]
pub struct SharedColumn {
    columns: Arc<Vec<Column>>,
    index: usize,
}

impl SharedColumn {
    /// Wraps a column nobody else holds.
    pub fn owned(column: Column) -> SharedColumn {
        SharedColumn {
            columns: Arc::new(vec![column]),
            index: 0,
        }
    }
}

impl std::ops::Deref for SharedColumn {
    type Target = Column;

    fn deref(&self) -> &Column {
        &self.columns[self.index]
    }
}

impl std::fmt::Debug for SharedColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// Equality is by value, as the table's: two handles on different storage
/// holding the same values are equal.
impl PartialEq for SharedColumn {
    fn eq(&self, other: &SharedColumn) -> bool {
        **self == **other
    }
}

/// Why columns and labels do not make a [`DataTable`] under a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The number of columns is not the schema's number of attributes.
    ColumnCount {
        /// Columns given.
        found: usize,
        /// Attributes the schema declares.
        expected: usize,
    },
    /// A column's length is not the labels'.
    ColumnLength {
        /// The column's attribute id.
        attr: usize,
        /// Its length.
        found: usize,
        /// The number of labels.
        expected: usize,
    },
    /// A column's storage kind is not its attribute's declared type.
    ColumnKind {
        /// The column's attribute id.
        attr: usize,
    },
    /// A categorical code outside its attribute's domain.
    CategoryCode {
        /// The column's attribute id.
        attr: usize,
        /// The offending code.
        code: u32,
        /// The attribute's domain size.
        n_values: u32,
    },
    /// A class label outside the task's classes.
    ClassLabel {
        /// The offending label.
        label: u32,
        /// The task's class count.
        n_classes: u32,
    },
    /// The label representation is not the one the schema's task takes.
    LabelKind,
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TableError::ColumnCount { found, expected } => {
                write!(
                    f,
                    "column count must match schema: {found} columns for {expected} attributes"
                )
            }
            TableError::ColumnLength {
                attr,
                found,
                expected,
            } => write!(
                f,
                "column {attr} length mismatch: {found} values for {expected} labels"
            ),
            TableError::ColumnKind { attr } => {
                write!(f, "column {attr} storage kind does not match schema type")
            }
            TableError::CategoryCode {
                attr,
                code,
                n_values,
            } => write!(
                f,
                "column {attr} has a category code outside 0..{n_values}: {code}"
            ),
            TableError::ClassLabel { label, n_classes } => {
                write!(f, "class label outside 0..{n_classes}: {label}")
            }
            TableError::LabelKind => write!(f, "label kind does not match schema task"),
        }
    }
}

impl std::error::Error for TableError {}

impl DataTable {
    /// Builds a table from parts the program made itself.
    ///
    /// # Panics
    /// Panics where [`DataTable::try_new`] returns an error.
    pub fn new(schema: Schema, columns: Vec<Column>, labels: Labels) -> Self {
        match Self::try_new(schema, columns, labels) {
            Ok(table) => table,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds a table, validating all structural invariants: how data from
    /// outside the program (a file, a socket) becomes a table.
    ///
    /// Fails if column counts/lengths/types or the label kind are
    /// inconsistent with the schema, or a categorical code or class label
    /// lies outside the schema's domain. The split kernels rely on the last
    /// two without checking: they count a row at `slot * n_classes + label`
    /// of a flat histogram, where an out-of-range code or label is not an
    /// index out of bounds but a count in somebody else's slot.
    pub fn try_new(
        schema: Schema,
        columns: Vec<Column>,
        labels: Labels,
    ) -> Result<Self, TableError> {
        validate(&schema, &columns, &labels)?;
        Ok(DataTable {
            schema,
            columns: Arc::new(columns),
            n_rows: labels.len(),
            labels: Arc::new(labels),
        })
    }

    /// This table's columns under new labels for a new task: the column
    /// storage is shared, not copied, and the result is validated like
    /// [`DataTable::try_new`]'s.
    pub fn relabel(&self, task: Task, labels: Labels) -> Result<DataTable, TableError> {
        let schema = Schema::new(self.schema.attrs.clone(), task);
        validate(&schema, &self.columns, &labels)?;
        Ok(DataTable {
            schema,
            columns: Arc::clone(&self.columns),
            n_rows: labels.len(),
            labels: Arc::new(labels),
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows `n`.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes `m` (excluding the target).
    pub fn n_attrs(&self) -> usize {
        self.schema.n_attrs()
    }

    /// The attribute column with id `attr`.
    pub fn column(&self, attr: usize) -> &Column {
        &self.columns[attr]
    }

    /// The attribute column with id `attr` as a handle on this table's
    /// storage, for a holder that outlives the borrow.
    pub fn shared_column(&self, attr: usize) -> SharedColumn {
        assert!(attr < self.columns.len(), "attribute {attr} out of range");
        SharedColumn {
            columns: Arc::clone(&self.columns),
            index: attr,
        }
    }

    /// All attribute columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The target labels.
    pub fn labels(&self) -> &Labels {
        &self.labels
    }

    /// The target labels as a handle on this table's storage.
    pub fn shared_labels(&self) -> Arc<Labels> {
        Arc::clone(&self.labels)
    }

    /// The value of attribute `attr` in row `row`.
    pub fn value(&self, row: usize, attr: usize) -> Value {
        self.columns[attr].value(row)
    }

    /// Gathers a row subset of one column.
    pub fn gather(&self, attr: usize, rows: &[u32]) -> Column {
        self.columns[attr].gather(rows)
    }

    /// Returns a new table containing only the given rows (in order).
    pub fn select_rows(&self, rows: &[u32]) -> DataTable {
        let columns = self.columns.iter().map(|c| c.gather(rows)).collect();
        DataTable::new(self.schema.clone(), columns, self.labels.gather(rows))
    }

    /// Splits the table into `(train, test)` with the first
    /// `ceil(train_frac * n)` of a seeded shuffle going to train.
    ///
    /// # Panics
    /// Panics unless `0.0 < train_frac < 1.0`.
    pub fn train_test_split(&self, train_frac: f64, seed: u64) -> (DataTable, DataTable) {
        assert!(
            train_frac > 0.0 && train_frac < 1.0,
            "train_frac must be in (0, 1)"
        );
        use tsrand::seq::SliceRandom;
        use tsrand::SeedableRng;
        let mut rng = tsrand::rngs::StdRng::seed_from_u64(seed);
        let mut ids: Vec<u32> = (0..self.n_rows as u32).collect();
        ids.shuffle(&mut rng);
        let n_train = ((self.n_rows as f64) * train_frac).ceil() as usize;
        let n_train = n_train.clamp(1, self.n_rows - 1);
        let (train_ids, test_ids) = ids.split_at(n_train);
        (self.select_rows(train_ids), self.select_rows(test_ids))
    }

    /// Total payload bytes of all attribute columns plus labels.
    pub fn payload_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(Column::payload_bytes)
            .sum::<usize>()
            + self.labels.payload_bytes()
    }
}

/// The structural invariants of a [`DataTable`] (see [`DataTable::try_new`]).
fn validate(schema: &Schema, columns: &[Column], labels: &Labels) -> Result<(), TableError> {
    if columns.len() != schema.n_attrs() {
        return Err(TableError::ColumnCount {
            found: columns.len(),
            expected: schema.n_attrs(),
        });
    }
    let n_rows = labels.len();
    for (attr, c) in columns.iter().enumerate() {
        if c.len() != n_rows {
            return Err(TableError::ColumnLength {
                attr,
                found: c.len(),
                expected: n_rows,
            });
        }
        match (c, schema.attr_type(attr)) {
            (Column::Numeric(_), AttrType::Numeric) => {}
            (Column::Categorical(v), AttrType::Categorical { n_values }) => {
                if let Some(&code) = v.iter().find(|&&c| c >= n_values && c != MISSING_CAT) {
                    return Err(TableError::CategoryCode {
                        attr,
                        code,
                        n_values,
                    });
                }
            }
            _ => return Err(TableError::ColumnKind { attr }),
        }
    }
    match (labels, schema.task) {
        (Labels::Class(v), Task::Classification { n_classes }) => {
            if let Some(&label) = v.iter().find(|&&y| y >= n_classes) {
                return Err(TableError::ClassLabel { label, n_classes });
            }
        }
        (Labels::Real(_), Task::Regression) => {}
        _ => return Err(TableError::LabelKind),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrMeta;

    fn small_table() -> DataTable {
        // The paper's Fig. 1 customer table (Age, Education, HomeOwner, Income -> Default).
        let schema = Schema::new(
            vec![
                AttrMeta::numeric("Age"),
                AttrMeta::categorical("Education", 5),
                AttrMeta::categorical("HomeOwner", 2),
                AttrMeta::numeric("Income"),
            ],
            Task::Classification { n_classes: 2 },
        );
        // Education codes: 0 Primary, 1 Secondary, 2 Bachelor, 3 Master, 4 PhD.
        let columns = vec![
            Column::Numeric(vec![
                24.0, 28.0, 44.0, 32.0, 36.0, 48.0, 37.0, 42.0, 54.0, 47.0,
            ]),
            Column::Categorical(vec![2, 3, 2, 1, 4, 2, 1, 2, 1, 4]),
            Column::Categorical(vec![0, 1, 1, 1, 0, 1, 0, 0, 0, 1]),
            Column::Numeric(vec![
                5000.0, 7500.0, 5500.0, 6000.0, 10000.0, 6500.0, 3000.0, 6000.0, 4000.0, 8000.0,
            ]),
        ];
        let labels = Labels::Class(vec![0, 0, 0, 1, 0, 0, 1, 0, 1, 0]);
        DataTable::new(schema, columns, labels)
    }

    #[test]
    fn fig1_table_shape() {
        let t = small_table();
        assert_eq!(t.n_rows(), 10);
        assert_eq!(t.n_attrs(), 4);
        assert_eq!(t.value(0, 0), Value::Num(24.0));
        assert_eq!(t.value(4, 1), Value::Cat(4));
    }

    #[test]
    fn select_rows_matches_paper_node_x2() {
        // Node x2 of Fig. 1(b) holds rows {1,2,4,5,7} (1-based) = ids {0,1,3,4,6}.
        let t = small_table();
        let sub = t.select_rows(&[0, 1, 3, 4, 6]);
        assert_eq!(sub.n_rows(), 5);
        assert_eq!(sub.labels(), &Labels::Class(vec![0, 0, 1, 0, 1]));
        assert_eq!(sub.value(2, 0), Value::Num(32.0)); // original row 4's Age
    }

    #[test]
    fn train_test_split_partitions_rows() {
        let t = small_table();
        let (tr, te) = t.train_test_split(0.7, 42);
        assert_eq!(tr.n_rows() + te.n_rows(), t.n_rows());
        assert_eq!(tr.n_rows(), 7);
    }

    #[test]
    fn train_test_split_is_seed_deterministic() {
        let t = small_table();
        let (a, _) = t.train_test_split(0.5, 7);
        let (b, _) = t.train_test_split(0.5, 7);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn mismatched_column_count_panics() {
        let schema = Schema::new(vec![AttrMeta::numeric("a")], Task::Regression);
        DataTable::new(schema, vec![], Labels::Real(vec![1.0]));
    }

    #[test]
    #[should_panic(expected = "storage kind")]
    fn mismatched_column_kind_panics() {
        let schema = Schema::new(vec![AttrMeta::numeric("a")], Task::Regression);
        DataTable::new(
            schema,
            vec![Column::Categorical(vec![0])],
            Labels::Real(vec![1.0]),
        );
    }

    #[test]
    #[should_panic(expected = "category code outside 0..3")]
    fn out_of_range_category_code_panics() {
        let schema = Schema::new(vec![AttrMeta::categorical("c", 3)], Task::Regression);
        DataTable::new(
            schema,
            vec![Column::Categorical(vec![0, MISSING_CAT, 3])],
            Labels::Real(vec![1.0, 2.0, 3.0]),
        );
    }

    #[test]
    #[should_panic(expected = "class label outside 0..2")]
    fn out_of_range_class_label_panics() {
        let schema = Schema::new(
            vec![AttrMeta::numeric("a")],
            Task::Classification { n_classes: 2 },
        );
        DataTable::new(
            schema,
            vec![Column::Numeric(vec![0.0, 1.0])],
            Labels::Class(vec![1, 2]),
        );
    }

    #[test]
    #[should_panic(expected = "label kind")]
    fn mismatched_labels_panic() {
        let schema = Schema::new(vec![AttrMeta::numeric("a")], Task::Regression);
        DataTable::new(
            schema,
            vec![Column::Numeric(vec![0.0])],
            Labels::Class(vec![0]),
        );
    }

    /// `small_table()` as JSON when the table owned its vectors outright.
    const FIG1_JSON: &str = concat!(
        r#"{"schema":{"attrs":[{"name":"Age","ty":"Numeric"},"#,
        r#"{"name":"Education","ty":{"Categorical":{"n_values":5}}},"#,
        r#"{"name":"HomeOwner","ty":{"Categorical":{"n_values":2}}},"#,
        r#"{"name":"Income","ty":"Numeric"}],"task":{"Classification":{"n_classes":2}}},"#,
        r#""columns":[{"Numeric":[24.0,28.0,44.0,32.0,36.0,48.0,37.0,42.0,54.0,47.0]},"#,
        r#"{"Categorical":[2,3,2,1,4,2,1,2,1,4]},{"Categorical":[0,1,1,1,0,1,0,0,0,1]},"#,
        r#"{"Numeric":[5000.0,7500.0,5500.0,6000.0,10000.0,6500.0,3000.0,6000.0,4000.0,8000.0]}],"#,
        r#""labels":{"Class":[0,0,0,1,0,0,1,0,1,0]},"n_rows":10}"#,
    );

    /// The first numeric column's values, by address.
    fn age_ptr(t: &DataTable) -> *const f64 {
        t.column(0).as_numeric().expect("numeric").as_ptr()
    }

    #[test]
    fn clone_and_shared_handles_read_the_tables_storage() {
        let t = small_table();
        let c = t.clone();
        assert_eq!(c, t);
        assert_eq!(age_ptr(&c), age_ptr(&t), "a clone copied the columns");
        assert!(Arc::ptr_eq(&c.shared_labels(), &t.shared_labels()));
        let age = t.shared_column(0);
        assert_eq!(age.as_numeric().expect("numeric").as_ptr(), age_ptr(&t));
        assert_eq!(*t.shared_column(1), *t.column(1));
        let owned = SharedColumn::owned(Column::Numeric(vec![1.0]));
        assert_eq!(*owned, Column::Numeric(vec![1.0]));
        // Handles compare and print as the column they read.
        assert_eq!(owned, SharedColumn::owned(Column::Numeric(vec![1.0])));
        assert_ne!(owned, SharedColumn::owned(Column::Numeric(vec![2.0])));
        assert_eq!(format!("{age:?}"), format!("{:?}", t.column(0)));
    }

    #[test]
    fn serde_round_trip_keeps_the_json_and_equality() {
        let t = small_table();
        let json = tsjson::to_string(&t).expect("table serializes");
        // The shared storage serialises as the plain vectors it holds: the
        // JSON of a table whose fields were the vectors themselves.
        assert_eq!(json, FIG1_JSON);
        let back: DataTable = tsjson::from_str(&json).expect("table deserializes");
        assert_eq!(back, t);
        assert_ne!(age_ptr(&back), age_ptr(&t), "equality is by value");
    }

    #[test]
    fn relabel_shares_the_columns_and_validates_the_labels() {
        let t = small_table();
        let targets: Vec<f64> = (0..10).map(f64::from).collect();
        let view = t
            .relabel(Task::Regression, Labels::Real(targets.clone()))
            .expect("valid view");
        assert_eq!(age_ptr(&view), age_ptr(&t), "relabel copied the columns");
        assert_eq!(view.schema().task, Task::Regression);
        assert_eq!(view.schema().attrs, t.schema().attrs);
        assert_eq!(view.labels(), &Labels::Real(targets));
        assert_eq!(
            t.relabel(Task::Regression, Labels::Class(vec![0; 10])),
            Err(TableError::LabelKind)
        );
        assert_eq!(
            t.relabel(Task::Regression, Labels::Real(vec![0.0; 9])),
            Err(TableError::ColumnLength {
                attr: 0,
                found: 10,
                expected: 9
            })
        );
        let three = Task::Classification { n_classes: 3 };
        assert_eq!(
            t.relabel(three, Labels::Class(vec![3; 10])),
            Err(TableError::ClassLabel {
                label: 3,
                n_classes: 3
            })
        );
    }

    #[test]
    fn labels_gather_and_accessors() {
        let l = Labels::Class(vec![0, 1, 2]);
        assert_eq!(l.gather(&[2, 0]), Labels::Class(vec![2, 0]));
        assert_eq!(l.as_class(), Some(&[0u32, 1, 2][..]));
        assert!(l.as_real().is_none());
        let r = Labels::Real(vec![0.5]);
        assert!(r.as_class().is_none());
        assert_eq!(r.payload_bytes(), 8);
    }
}
