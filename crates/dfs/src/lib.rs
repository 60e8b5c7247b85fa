//! A simulated distributed file system with the paper's data layout.
//!
//! TreeServer requires a dedicated `put` program so that, on HDFS, each
//! data column is stored as a loadable unit; to keep file counts small and
//! to also serve the row-partitioned jobs of the deep-forest pipeline, the
//! final layout groups **columns into column-groups and rows into
//! row-groups**, one file per (column-group, row-group) cell (paper §VII,
//! Fig. 13).
//!
//! This crate reproduces that layout over a local directory. The HDFS
//! property the paper's discussion hinges on — *connection time dominates
//! small reads* — is modelled by an explicit per-file-open
//! [`DfsConfig::connection_cost`] plus an open-file counter, so the
//! file-count trade-off the layout exists to solve is measurable in tests
//! and benches.
//!
//! Layout on disk for a dataset `name` with `G` column-groups and `R`
//! row-groups:
//!
//! ```text
//! <root>/<name>/meta.json            # schema, task, group sizes
//! <root>/<name>/cg<g>_rg<r>.bin      # columns of group g, rows of group r
//! <root>/<name>/labels_rg<r>.bin     # target values, rows of group r
//! ```

mod format;

pub use format::FormatError;

use format::{read_columns, read_labels, write_columns, write_labels};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use ts_datatable::{Column, DataTable, Labels, Schema, TableError};
use tsjson::{Deserialize, Serialize};

/// Configuration of the simulated DFS.
#[derive(Debug, Clone)]
pub struct DfsConfig {
    /// Directory that plays the role of the HDFS namespace.
    pub root: PathBuf,
    /// Cost charged (slept) on every file open, modelling HDFS connection
    /// setup. `Duration::ZERO` disables pacing but opens are still counted.
    pub connection_cost: Duration,
}

impl DfsConfig {
    /// A DFS rooted at `root` with no connection pacing.
    pub fn local(root: impl Into<PathBuf>) -> DfsConfig {
        DfsConfig {
            root: root.into(),
            connection_cost: Duration::ZERO,
        }
    }
}

/// Dataset metadata persisted next to the data files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DfsTableMeta {
    /// The table schema.
    pub schema: Schema,
    /// Total rows.
    pub n_rows: usize,
    /// Columns per column-group (the last group may be smaller).
    pub col_group_size: usize,
    /// Rows per row-group (the last group may be smaller).
    pub row_group_size: usize,
}

impl DfsTableMeta {
    /// Number of column-groups `G`.
    pub fn n_col_groups(&self) -> usize {
        div_ceil(self.schema.n_attrs(), self.col_group_size)
    }

    /// Number of row-groups `R`.
    pub fn n_row_groups(&self) -> usize {
        div_ceil(self.n_rows, self.row_group_size)
    }

    /// The global attribute ids in column-group `g`.
    pub fn col_group_attrs(&self, g: usize) -> std::ops::Range<usize> {
        let start = g * self.col_group_size;
        start..(start + self.col_group_size).min(self.schema.n_attrs())
    }

    /// The global row ids in row-group `r`.
    pub fn row_group_rows(&self, r: usize) -> std::ops::Range<usize> {
        let start = r * self.row_group_size;
        start..(start + self.row_group_size).min(self.n_rows)
    }
}

fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// Errors from DFS operations.
#[derive(Debug)]
pub enum DfsError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// Corrupt or mismatched file contents.
    Format(FormatError),
    /// Metadata JSON failed to parse.
    Meta(tsjson::Error),
    /// The files parse, but their contents are not a table under the
    /// dataset's schema.
    Table(TableError),
}

impl std::fmt::Display for DfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DfsError::Io(e) => write!(f, "dfs io error: {e}"),
            DfsError::Format(e) => write!(f, "dfs format error: {e}"),
            DfsError::Meta(e) => write!(f, "dfs metadata error: {e}"),
            DfsError::Table(e) => write!(f, "dfs dataset does not match its schema: {e}"),
        }
    }
}

impl std::error::Error for DfsError {}

impl From<io::Error> for DfsError {
    fn from(e: io::Error) -> Self {
        DfsError::Io(e)
    }
}

impl From<FormatError> for DfsError {
    fn from(e: FormatError) -> Self {
        DfsError::Format(e)
    }
}

impl From<TableError> for DfsError {
    fn from(e: TableError) -> Self {
        DfsError::Table(e)
    }
}

/// Handle to the simulated DFS namespace.
#[derive(Debug, Clone)]
pub struct Dfs {
    config: DfsConfig,
    opens: Arc<AtomicU64>,
}

impl Dfs {
    /// Opens (creating if needed) the namespace directory.
    pub fn new(config: DfsConfig) -> Result<Dfs, DfsError> {
        std::fs::create_dir_all(&config.root)?;
        Ok(Dfs {
            config,
            opens: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Total file opens charged so far (put + load).
    pub fn files_opened(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    fn dataset_dir(&self, name: &str) -> PathBuf {
        self.config.root.join(name)
    }

    fn charge_open(&self) {
        self.opens.fetch_add(1, Ordering::Relaxed);
        if !self.config.connection_cost.is_zero() {
            std::thread::sleep(self.config.connection_cost);
        }
    }

    /// The dedicated "put" program: uploads `table` as the grouped layout.
    ///
    /// Memory behaviour mirrors the paper's streaming put: data is written
    /// one (column-group, row-group) cell at a time, so peak extra memory is
    /// one cell, not the table.
    pub fn put_table(
        &self,
        name: &str,
        table: &DataTable,
        col_group_size: usize,
        row_group_size: usize,
    ) -> Result<DfsTableMeta, DfsError> {
        assert!(
            col_group_size > 0 && row_group_size > 0,
            "group sizes must be positive"
        );
        let meta = DfsTableMeta {
            schema: table.schema().clone(),
            n_rows: table.n_rows(),
            col_group_size,
            row_group_size,
        };
        let dir = self.dataset_dir(name);
        std::fs::create_dir_all(&dir)?;
        self.charge_open();
        std::fs::write(
            dir.join("meta.json"),
            tsjson::to_vec_pretty(&meta).map_err(DfsError::Meta)?,
        )?;
        for r in 0..meta.n_row_groups() {
            let rows: Vec<u32> = meta.row_group_rows(r).map(|x| x as u32).collect();
            for g in 0..meta.n_col_groups() {
                let cols: Vec<Column> = meta
                    .col_group_attrs(g)
                    .map(|a| table.gather(a, &rows))
                    .collect();
                self.charge_open();
                std::fs::write(dir.join(format!("cg{g}_rg{r}.bin")), write_columns(&cols))?;
            }
            self.charge_open();
            std::fs::write(
                dir.join(format!("labels_rg{r}.bin")),
                write_labels(&table.labels().gather(&rows)),
            )?;
        }
        Ok(meta)
    }

    /// Opens a dataset for reading.
    pub fn open(&self, name: &str) -> Result<DfsTable, DfsError> {
        let dir = self.dataset_dir(name);
        self.charge_open();
        let meta: DfsTableMeta =
            tsjson::from_slice(&std::fs::read(dir.join("meta.json"))?).map_err(DfsError::Meta)?;
        Ok(DfsTable {
            dfs: self.clone(),
            dir,
            meta,
        })
    }
}

/// A readable dataset in the DFS.
#[derive(Debug, Clone)]
pub struct DfsTable {
    dfs: Dfs,
    dir: PathBuf,
    meta: DfsTableMeta,
}

impl DfsTable {
    /// The dataset metadata.
    pub fn meta(&self) -> &DfsTableMeta {
        &self.meta
    }

    fn read_cell(&self, g: usize, r: usize) -> Result<Vec<Column>, DfsError> {
        self.dfs.charge_open();
        let bytes = std::fs::read(self.dir.join(format!("cg{g}_rg{r}.bin")))?;
        Ok(read_columns(&bytes)?)
    }

    /// Loads an entire column-group (all its columns, all rows) by reading
    /// the `R` files in that column — what a TreeServer worker does at job
    /// start (paper Fig. 13, "load a column-group by reading files in the
    /// same column").
    pub fn load_column_group(&self, g: usize) -> Result<Vec<Column>, DfsError> {
        assert!(g < self.meta.n_col_groups(), "column-group out of range");
        let n_cols = self.meta.col_group_attrs(g).len();
        let mut acc: Vec<Column> = Vec::with_capacity(n_cols);
        for r in 0..self.meta.n_row_groups() {
            let cell = self.read_cell(g, r)?;
            if r == 0 {
                acc = cell;
            } else {
                for (a, c) in acc.iter_mut().zip(cell) {
                    append_column(a, c)?;
                }
            }
        }
        Ok(acc)
    }

    /// Loads one row-group across all column-groups (full rows) — what the
    /// deep-forest row-parallel jobs do ("load its partition of rows by
    /// reading files in the same row").
    pub fn load_row_group(&self, r: usize) -> Result<Vec<Column>, DfsError> {
        assert!(r < self.meta.n_row_groups(), "row-group out of range");
        let mut cols = Vec::with_capacity(self.meta.schema.n_attrs());
        for g in 0..self.meta.n_col_groups() {
            cols.extend(self.read_cell(g, r)?);
        }
        Ok(cols)
    }

    /// Loads the full label column (every machine holds `Y` in its entirety).
    pub fn load_labels(&self) -> Result<Labels, DfsError> {
        let mut acc: Option<Labels> = None;
        for r in 0..self.meta.n_row_groups() {
            let l = self.load_labels_row_group(r)?;
            acc = Some(match acc {
                None => l,
                Some(a) => append_labels(a, l)?,
            });
        }
        Ok(acc.expect("dataset has at least one row-group"))
    }

    /// Loads the labels of one row-group.
    pub fn load_labels_row_group(&self, r: usize) -> Result<Labels, DfsError> {
        self.dfs.charge_open();
        let bytes = std::fs::read(self.dir.join(format!("labels_rg{r}.bin")))?;
        Ok(read_labels(&bytes)?)
    }

    /// Reconstructs the whole table (tests, small jobs). Files whose contents
    /// disagree with the schema — a column of the wrong kind or length, a
    /// categorical code or class label outside its domain — are an error
    /// here, where they enter, not a panic or a miscount in a kernel.
    pub fn load_all(&self) -> Result<DataTable, DfsError> {
        let mut cols: Vec<Column> = Vec::with_capacity(self.meta.schema.n_attrs());
        for g in 0..self.meta.n_col_groups() {
            cols.extend(self.load_column_group(g)?);
        }
        let labels = self.load_labels()?;
        Ok(DataTable::try_new(self.meta.schema.clone(), cols, labels)?)
    }
}

fn append_column(acc: &mut Column, more: Column) -> Result<(), FormatError> {
    match (acc, more) {
        (Column::Numeric(a), Column::Numeric(b)) => a.extend(b),
        (Column::Categorical(a), Column::Categorical(b)) => a.extend(b),
        _ => return Err(FormatError::KindChanged),
    }
    Ok(())
}

fn append_labels(acc: Labels, more: Labels) -> Result<Labels, FormatError> {
    match (acc, more) {
        (Labels::Class(mut a), Labels::Class(b)) => {
            a.extend(b);
            Ok(Labels::Class(a))
        }
        (Labels::Real(mut a), Labels::Real(b)) => {
            a.extend(b);
            Ok(Labels::Real(a))
        }
        _ => Err(FormatError::KindChanged),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_datatable::synth::{generate, SynthSpec};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ts-dfs-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_table() -> DataTable {
        generate(&SynthSpec {
            rows: 103,
            numeric: 5,
            categorical: 3,
            missing_rate: 0.1,
            seed: 7,
            ..Default::default()
        })
    }

    #[test]
    fn put_then_load_all_roundtrips() {
        let dfs = Dfs::new(DfsConfig::local(tmpdir("roundtrip"))).unwrap();
        let t = sample_table();
        dfs.put_table("d", &t, 3, 40).unwrap();
        let loaded = dfs.open("d").unwrap().load_all().unwrap();
        // NaN != NaN, so compare payload bytes and a missing-count census
        // instead of PartialEq on the raw tables.
        assert_eq!(loaded.n_rows(), t.n_rows());
        assert_eq!(loaded.schema(), t.schema());
        for a in 0..t.n_attrs() {
            assert_eq!(
                loaded.column(a).n_missing(),
                t.column(a).n_missing(),
                "col {a}"
            );
            match (t.column(a), loaded.column(a)) {
                (Column::Categorical(x), Column::Categorical(y)) => assert_eq!(x, y),
                (Column::Numeric(x), Column::Numeric(y)) => {
                    assert!(x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()));
                }
                _ => panic!("kind changed"),
            }
        }
        assert_eq!(loaded.labels(), t.labels());
    }

    #[test]
    fn group_geometry() {
        let meta = DfsTableMeta {
            schema: sample_table().schema().clone(), // 8 attrs
            n_rows: 103,
            col_group_size: 3,
            row_group_size: 40,
        };
        assert_eq!(meta.n_col_groups(), 3);
        assert_eq!(meta.n_row_groups(), 3);
        assert_eq!(meta.col_group_attrs(2), 6..8);
        assert_eq!(meta.row_group_rows(2), 80..103);
    }

    #[test]
    fn load_column_group_matches_table_columns() {
        let dfs = Dfs::new(DfsConfig::local(tmpdir("cg"))).unwrap();
        let t = sample_table();
        dfs.put_table("d", &t, 3, 25).unwrap();
        let dt = dfs.open("d").unwrap();
        let cg1 = dt.load_column_group(1).unwrap(); // attrs 3..6
        assert_eq!(cg1.len(), 3);
        assert_eq!(cg1[0].len(), 103);
        if let (Column::Numeric(a), Column::Numeric(b)) = (&cg1[1], t.column(4)) {
            assert!(a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits()));
        } else {
            // attr 4 is numeric in this spec
            panic!("expected numeric column");
        }
    }

    #[test]
    fn load_row_group_returns_full_width_rows() {
        let dfs = Dfs::new(DfsConfig::local(tmpdir("rg"))).unwrap();
        let t = sample_table();
        dfs.put_table("d", &t, 4, 50).unwrap();
        let dt = dfs.open("d").unwrap();
        let rg2 = dt.load_row_group(2).unwrap(); // rows 100..103
        assert_eq!(rg2.len(), t.n_attrs());
        assert!(rg2.iter().all(|c| c.len() == 3));
        let labels = dt.load_labels_row_group(2).unwrap();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn file_open_counting_reflects_grouping() {
        // Fewer, bigger groups -> fewer file opens: the paper's motivation
        // for column-grouping (HDFS connection time dominates small reads).
        let t = sample_table(); // 8 attrs, 103 rows
        let dfs_fine = Dfs::new(DfsConfig::local(tmpdir("fine"))).unwrap();
        dfs_fine.put_table("d", &t, 1, 20).unwrap();
        let before = dfs_fine.files_opened();
        let dt = dfs_fine.open("d").unwrap();
        for g in 0..dt.meta().n_col_groups() {
            dt.load_column_group(g).unwrap();
        }
        let fine_opens = dfs_fine.files_opened() - before;

        let dfs_coarse = Dfs::new(DfsConfig::local(tmpdir("coarse"))).unwrap();
        dfs_coarse.put_table("d", &t, 4, 60).unwrap();
        let before = dfs_coarse.files_opened();
        let dt = dfs_coarse.open("d").unwrap();
        for g in 0..dt.meta().n_col_groups() {
            dt.load_column_group(g).unwrap();
        }
        let coarse_opens = dfs_coarse.files_opened() - before;
        assert!(
            coarse_opens * 4 < fine_opens,
            "coarse {coarse_opens} vs fine {fine_opens}"
        );
    }

    #[test]
    fn connection_cost_paces_opens() {
        let mut cfg = DfsConfig::local(tmpdir("paced"));
        cfg.connection_cost = Duration::from_millis(5);
        let dfs = Dfs::new(cfg).unwrap();
        let t = sample_table();
        let start = std::time::Instant::now();
        dfs.put_table("d", &t, 8, 200).unwrap(); // 1 cg x 1 rg => 3 opens
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn open_missing_dataset_errors() {
        let dfs = Dfs::new(DfsConfig::local(tmpdir("missing"))).unwrap();
        assert!(matches!(dfs.open("nope"), Err(DfsError::Io(_))));
    }

    /// A dataset whose files parse but hold what the schema rules out loads
    /// as an error: one cell (or the labels) of a good dataset is overwritten
    /// per case, through the format's own writers.
    #[test]
    fn a_corrupted_cell_loads_as_an_error_not_a_panic() {
        use ts_datatable::{AttrMeta, Task, MISSING_CAT};
        let schema = Schema::new(
            vec![AttrMeta::numeric("x"), AttrMeta::categorical("c", 3)],
            Task::Classification { n_classes: 2 },
        );
        let good = DataTable::new(
            schema,
            vec![
                Column::Numeric(vec![0.5, f64::NAN, 2.0, 3.5]),
                Column::Categorical(vec![0, 2, MISSING_CAT, 1]),
            ],
            Labels::Class(vec![0, 1, 1, 0]),
        );
        // Two row-groups of two rows, one column-group: files cg0_rg{0,1}.
        let numeric = |v: &[f64]| Column::Numeric(v.to_vec());
        let codes = |c: &[u32]| Column::Categorical(c.to_vec());
        type Check = fn(&DfsError) -> bool;
        let cases: [(&str, &str, Vec<u8>, Check); 6] = [
            (
                "code",
                "cg0_rg1.bin",
                write_columns(&[numeric(&[2.0, 3.5]), codes(&[MISSING_CAT, 3])]),
                |e| {
                    let code = TableError::CategoryCode {
                        attr: 1,
                        code: 3,
                        n_values: 3,
                    };
                    matches!(e, DfsError::Table(t) if *t == code)
                },
            ),
            (
                "label",
                "labels_rg0.bin",
                write_labels(&Labels::Class(vec![0, 2])),
                |e| {
                    let label = TableError::ClassLabel {
                        label: 2,
                        n_classes: 2,
                    };
                    matches!(e, DfsError::Table(t) if *t == label)
                },
            ),
            (
                "kind",
                "cg0_rg0.bin",
                write_columns(&[codes(&[0, 1]), codes(&[0, 2])]),
                |e| matches!(e, DfsError::Format(FormatError::KindChanged)),
            ),
            (
                "short",
                "cg0_rg1.bin",
                write_columns(&[numeric(&[2.0]), codes(&[MISSING_CAT])]),
                |e| matches!(e, DfsError::Table(TableError::ColumnLength { attr: 0, .. })),
            ),
            (
                "narrow",
                "cg0_rg0.bin",
                write_columns(&[numeric(&[0.5, f64::NAN])]),
                |e| matches!(e, DfsError::Table(TableError::ColumnCount { found: 1, .. })),
            ),
            (
                "targets",
                "labels_rg1.bin",
                write_labels(&Labels::Real(vec![1.0, 0.0])),
                |e| matches!(e, DfsError::Format(FormatError::KindChanged)),
            ),
        ];
        for (tag, file, bytes, is_expected) in cases {
            let root = tmpdir(&format!("corrupt-{tag}"));
            let dfs = Dfs::new(DfsConfig::local(&root)).unwrap();
            dfs.put_table("d", &good, 2, 2).unwrap();
            assert!(dfs.open("d").unwrap().load_all().is_ok());
            std::fs::write(root.join("d").join(file), bytes).unwrap();
            let err = dfs.open("d").unwrap().load_all().unwrap_err();
            assert!(is_expected(&err), "{tag}: {err}");
        }
        // One row-group, so the wrong kind meets the schema, not a sibling.
        let root = tmpdir("corrupt-schema-kind");
        let dfs = Dfs::new(DfsConfig::local(&root)).unwrap();
        dfs.put_table("d", &good, 2, 4).unwrap();
        let all_codes = write_columns(&[codes(&[0, 1, 0, 1]), codes(&[0, 2, 1, 1])]);
        std::fs::write(root.join("d").join("cg0_rg0.bin"), all_codes).unwrap();
        let err = dfs.open("d").unwrap().load_all().unwrap_err();
        assert!(
            matches!(err, DfsError::Table(TableError::ColumnKind { attr: 0 })),
            "{err}"
        );
    }

    #[test]
    fn regression_labels_roundtrip() {
        let dfs = Dfs::new(DfsConfig::local(tmpdir("reg"))).unwrap();
        let t = generate(&SynthSpec {
            rows: 37,
            numeric: 2,
            task: ts_datatable::Task::Regression,
            seed: 1,
            ..Default::default()
        });
        dfs.put_table("d", &t, 2, 10).unwrap();
        let labels = dfs.open("d").unwrap().load_labels().unwrap();
        assert_eq!(&labels, t.labels());
    }
}
