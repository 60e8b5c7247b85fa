//! Split-conditions and row partitioning.
//!
//! A split-condition is either `Ai <= v` for ordinal attributes or
//! `Ai ∈ Sl` for categorical attributes (paper §II). [`partition_rows`] is
//! the operation a *delegate worker* performs when the master confirms its
//! column's condition as the overall best: splitting `Ix` into `Ixl`/`Ixr`
//! with its locally-held column (paper §V). [`partition_rows_buf`] is the
//! subtree trainer's, over the positions of its dataset's column. Both take
//! one [`Column`], whether a table's or one gathered for a task.

use crate::exact::ColumnSplit;
use ts_datatable::{Column, Value, MISSING_CAT};
use tsjson::{Deserialize, Serialize};

/// The test applied at an internal node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SplitTest {
    /// `Ai <= v`: rows with value at most `v` go left.
    NumericLe(f64),
    /// `Ai ∈ Sl`: rows whose code is in the (sorted, deduplicated) set go left.
    CatIn(Vec<u32>),
}

impl SplitTest {
    /// Evaluates the test for one value.
    ///
    /// Returns `None` when the value is missing — the caller decides what a
    /// missing value means (majority-side routing during training,
    /// stop-at-node during prediction; see Appendix D).
    pub fn goes_left(&self, v: Value) -> Option<bool> {
        match (self, v) {
            (SplitTest::NumericLe(t), Value::Num(x)) => Some(x <= *t),
            (SplitTest::CatIn(set), Value::Cat(c)) => Some(set.binary_search(&c).is_ok()),
            (_, Value::Missing) => None,
            // A type mismatch means the model is being applied to the wrong
            // schema; that is a caller bug, not a data condition.
            (SplitTest::NumericLe(_), Value::Cat(_)) => {
                panic!("numeric split applied to categorical value")
            }
            (SplitTest::CatIn(_), Value::Num(_)) => {
                panic!("categorical split applied to numeric value")
            }
        }
    }

    /// Creates a sorted, deduplicated categorical test.
    pub fn cat_in(mut vals: Vec<u32>) -> Self {
        vals.sort_unstable();
        vals.dedup();
        SplitTest::CatIn(vals)
    }

    /// Approximate wire size of the test in bytes (for network accounting).
    pub fn wire_bytes(&self) -> usize {
        match self {
            SplitTest::NumericLe(_) => 9,
            SplitTest::CatIn(s) => 1 + 4 + 4 * s.len(),
        }
    }
}

/// Splits the row ids `ix` into `(left, right)` using `col`'s values and the
/// test, preserving the input order (so sorted `Ix` stays sorted and every
/// machine observes the same canonical order). Missing values go to the side
/// indicated by `missing_left`.
///
/// # Panics
/// Panics when the test's kind is not the column's.
pub fn partition_rows(
    col: &Column,
    ix: &[u32],
    test: &SplitTest,
    missing_left: bool,
) -> (Vec<u32>, Vec<u32>) {
    // The caller holds no child counts: either side may take every row.
    let (mut left, mut right) = partition_cells(col, ix, test, missing_left, [ix.len(); 2]);
    left.shrink_to_fit();
    right.shrink_to_fit();
    (left, right)
}

/// [`partition_rows`] by a finished `split` of the rows `ix` of `values`:
/// the sorted-column trainer partitions a node's positions directly against
/// its dataset's column instead of re-gathering it first, into buffers sized
/// from the split's child counts. Preserves input order, so ascending row
/// sets stay ascending.
///
/// # Panics
/// Panics when the split's kind is not the column's, or when `split` is not
/// a split of `ix` over `values` — more rows on a side than it counted.
pub fn partition_rows_buf(
    values: &Column,
    ix: &[u32],
    split: &ColumnSplit,
) -> (Vec<u32>, Vec<u32>) {
    let sizes = [split.n_left() as usize, split.n_right() as usize];
    partition_cells(values, ix, &split.test, split.missing_left, sizes)
}

/// The row partition behind [`partition_rows`] and [`partition_rows_buf`]:
/// column kind and test are matched here, once, and each row's side is a
/// value — `(x <= t) | (x.is_nan() & missing_left)`, or a lookup in a
/// membership table of the `CatIn` set with one trailing `false` slot that
/// every code above the set's maximum (`MISSING_CAT` among them) clamps to.
fn partition_cells(
    col: &Column,
    ix: &[u32],
    test: &SplitTest,
    missing_left: bool,
    sizes: [usize; 2],
) -> (Vec<u32>, Vec<u32>) {
    match (col, test) {
        (Column::Numeric(xs), SplitTest::NumericLe(t)) => partition_by(ix, sizes, |row| {
            let x = xs[row];
            (x <= *t) | (x.is_nan() & missing_left)
        }),
        (Column::Categorical(codes), SplitTest::CatIn(set)) => {
            let above = set.iter().max().map_or(0, |&max| max as usize + 1);
            let mut in_set = vec![false; above + 1];
            set.iter().for_each(|&code| in_set[code as usize] = true);
            partition_by(ix, sizes, |row| {
                let code = codes[row];
                in_set[(code as usize).min(above)] | ((code == MISSING_CAT) & missing_left)
            })
        }
        (Column::Categorical(_), SplitTest::NumericLe(_)) => {
            panic!("numeric split applied to categorical value")
        }
        (Column::Numeric(_), SplitTest::CatIn(_)) => {
            panic!("categorical split applied to numeric value")
        }
    }
}

/// Stable two-way partition of `ix` by `goes_left(row)` into buffers of
/// `sizes = [left, right]` rows. Every row is written to both destinations
/// and only the cursors depend on its side — the side of a row under a good
/// split is a coin flip, and a mispredicted branch per row costs more than
/// the spare store (as `sorted::stable_partition` does for the segments).
fn partition_by(
    ix: &[u32],
    sizes: [usize; 2],
    goes_left: impl Fn(usize) -> bool,
) -> (Vec<u32>, Vec<u32>) {
    // One slot more than the side's rows: the row after a side's last is
    // still stored there, and then overwritten or cut off.
    let (mut left, mut right) = (vec![0; sizes[0] + 1], vec![0; sizes[1] + 1]);
    let (mut n_left, mut n_right) = (0, 0);
    for &row in ix {
        let side = usize::from(goes_left(row as usize));
        left[n_left] = row;
        right[n_right] = row;
        n_left += side;
        n_right += 1 - side;
    }
    left.truncate(n_left);
    right.truncate(n_right);
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_test_boundaries() {
        let t = SplitTest::NumericLe(40.0);
        assert_eq!(t.goes_left(Value::Num(40.0)), Some(true));
        assert_eq!(t.goes_left(Value::Num(40.0001)), Some(false));
        assert_eq!(t.goes_left(Value::Missing), None);
    }

    #[test]
    fn cat_test_membership() {
        // Fig. 1(b): A2 ∈ {Bachelor, Master, PhD} = codes {2,3,4}.
        let t = SplitTest::cat_in(vec![4, 2, 3, 2]);
        assert_eq!(t, SplitTest::CatIn(vec![2, 3, 4]));
        assert_eq!(t.goes_left(Value::Cat(3)), Some(true));
        assert_eq!(t.goes_left(Value::Cat(1)), Some(false));
        assert_eq!(t.goes_left(Value::Missing), None);
    }

    #[test]
    #[should_panic(expected = "numeric split applied")]
    fn type_mismatch_panics() {
        SplitTest::NumericLe(1.0).goes_left(Value::Cat(0));
    }

    #[test]
    fn partition_preserves_order_and_routes_missing() {
        let col = Column::Numeric(vec![1.0, f64::NAN, 3.0, 2.0, 5.0]);
        let (l, r) = partition_rows(&col, &[0, 1, 2, 3, 4], &SplitTest::NumericLe(2.5), true);
        assert_eq!(l, vec![0, 1, 3]);
        assert_eq!(r, vec![2, 4]);
        let (l2, r2) = partition_rows(&col, &[0, 1, 2, 3, 4], &SplitTest::NumericLe(2.5), false);
        assert_eq!(l2, vec![0, 3]);
        assert_eq!(r2, vec![1, 2, 4]);
    }

    #[test]
    fn partition_subset_of_rows() {
        let col = Column::Categorical(vec![0, 1, 2, 1, MISSING_CAT]);
        let (l, r) = partition_rows(&col, &[4, 2, 1], &SplitTest::cat_in(vec![1]), false);
        assert_eq!(l, vec![1]);
        assert_eq!(r, vec![4, 2]);
    }

    #[test]
    fn wire_bytes_scale_with_set_size() {
        assert_eq!(SplitTest::NumericLe(1.0).wire_bytes(), 9);
        assert_eq!(SplitTest::cat_in(vec![1, 2, 3]).wire_bytes(), 17);
    }
}
