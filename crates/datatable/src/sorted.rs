//! Presorted per-column indices for the sorted-column split engine.
//!
//! The exact numeric kernel's dominant cost is re-sorting a column's values
//! for every node (`O(|Dx| log |Dx|)` per node per candidate column). Paying
//! the sort **once per column** at load time lets every node read its own
//! sorted sequence off the index in `O(|Dx|)` — the structure the exact
//! distributed Random Forest literature builds on (see PAPERS.md) and the
//! hot-path optimization of docs/PERF.md. The index is read-only and shared
//! by every tree and node; it holds the order and its inverse, 8 bytes per
//! row.
//!
//! Determinism contract: the numeric order sorts by `(value, row id)` with
//! `f64::total_cmp`, exactly the order a stable sort of the node's gathered
//! values produces. Because node row sets are always ascending, the node's
//! rows taken in rank order are the *same* sequence the gather+sort
//! reference kernel scans, so both pick byte-identical splits.

use crate::column::{Column, ValuesBuf, MISSING_CAT};

/// The [`SortedColumn::numeric_rank`] of a row whose value is missing.
pub const MISSING_RANK: u32 = u32::MAX;

/// A per-column index built once when a column enters a store (worker column
/// load, `LocalDataset` assembly) and shared by every node's split search.
#[derive(Debug, Clone, PartialEq)]
pub enum SortedColumn {
    /// Numeric column: row ids of all *present* (non-NaN) rows, sorted by
    /// `(value, row id)`. Missing rows are segregated out entirely — the
    /// kernels route them to the majority side after the boundary is chosen.
    Numeric {
        /// Presorted present-row ids.
        order: Vec<u32>,
        /// The inverse of `order` over *every* row: `rank[row]` is the row's
        /// position in `order`, [`MISSING_RANK`] for a missing value. A node
        /// finds where each of its rows sits in the sorted sequence by
        /// reading its own rows' ranks — no pass over the rest of the column.
        rank: Vec<u32>,
    },
    /// Categorical column: the sorted distinct set of present codes. The
    /// one-vs-rest / Breiman kernels need no value order, but the distinct
    /// set ("seen during training", Appendix D) is otherwise recomputed per
    /// node.
    Categorical {
        /// Sorted, deduplicated present category codes.
        distinct: Vec<u32>,
    },
}

/// The present (non-NaN) rows of `values` in `(value, row)` order under
/// `f64::total_cmp`.
///
/// One integer sort instead of a comparison sort that loads two values per
/// comparison: each row becomes a `u64` record — the high 32 bits of its
/// value's place in the total order (sign, exponent, 20 mantissa bits) above
/// its row id — the records are sorted as integers, and only the runs that
/// share a high half, already in row order, are finished by the full
/// `(value, row)` comparison. A run of one value is in order as it stands;
/// a column whose values differ only below the 20th mantissa bit degrades to
/// the comparison sort it always was. Eight bytes per row while it sorts.
pub(crate) fn presorted_rows(values: &[f64]) -> Vec<u32> {
    let high_key = |v: f64| {
        // `total_cmp`'s monotone map of the bits: a negative value has every
        // bit flipped, a positive one its sign bit.
        let bits = v.to_bits();
        let key = bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63));
        key & !u64::from(u32::MAX)
    };
    let mut records: Vec<u64> = values
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_nan())
        .map(|(row, &v)| high_key(v) | row as u64)
        .collect();
    records.sort_unstable();
    for run in records.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
        if run.len() > 1 {
            run.sort_unstable_by(|&a, &b| {
                let (a, b) = (a as u32, b as u32);
                values[a as usize]
                    .total_cmp(&values[b as usize])
                    .then(a.cmp(&b))
            });
        }
    }
    // An order takes 4 bytes a row where its records took 8. The row ids are
    // packed in place, two to a record's place from the front, and the upper
    // half of the buffer released before the order is allocated: building an
    // index holds no more than the finished index does. (Unpacked, the
    // records next to the order read +2.1 % `peak_rss_mb` on a 200 000-row
    // table, docs/PERF.md.)
    let n = records.len();
    for i in 0..n {
        let row = records[i] & u64::from(u32::MAX);
        records[i / 2] = match i % 2 {
            0 => row,
            _ => records[i / 2] | row << 32,
        };
    }
    records.truncate(n.div_ceil(2));
    records.shrink_to_fit();
    (0..n)
        .map(|i| (records[i / 2] >> (i % 2 * 32)) as u32)
        .collect()
}

impl SortedColumn {
    /// Builds the index for a full column.
    pub fn build(col: &Column) -> Self {
        match col {
            Column::Numeric(v) => Self::from_numeric(v),
            Column::Categorical(c) => Self::from_categorical(c),
        }
    }

    /// Builds the index for a gathered buffer (positions play the role of
    /// row ids).
    pub fn build_buf(buf: &ValuesBuf) -> Self {
        match buf {
            ValuesBuf::Numeric(v) => Self::from_numeric(v),
            ValuesBuf::Categorical(c) => Self::from_categorical(c),
        }
    }

    /// Presorted index over a numeric slice.
    pub fn from_numeric(values: &[f64]) -> Self {
        let order = presorted_rows(values);
        let mut rank = vec![MISSING_RANK; values.len()];
        for (position, &r) in order.iter().enumerate() {
            rank[r as usize] = position as u32;
        }
        SortedColumn::Numeric { order, rank }
    }

    /// Distinct-code index over a categorical slice.
    pub fn from_categorical(codes: &[u32]) -> Self {
        let mut distinct: Vec<u32> = codes
            .iter()
            .copied()
            .filter(|&c| c != MISSING_CAT)
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        SortedColumn::Categorical { distinct }
    }

    /// The presorted present-row order of a numeric index.
    ///
    /// # Panics
    /// Panics when called on a categorical index — the caller dispatched on
    /// the wrong attribute type.
    pub fn numeric_order(&self) -> &[u32] {
        match self {
            SortedColumn::Numeric { order, .. } => order,
            SortedColumn::Categorical { .. } => {
                panic!("numeric_order on a categorical sorted index")
            }
        }
    }

    /// Every row's position in [`Self::numeric_order`], [`MISSING_RANK`] for
    /// the rows it leaves out.
    ///
    /// # Panics
    /// Panics when called on a categorical index.
    pub fn numeric_rank(&self) -> &[u32] {
        match self {
            SortedColumn::Numeric { rank, .. } => rank,
            SortedColumn::Categorical { .. } => {
                panic!("numeric_rank on a categorical sorted index")
            }
        }
    }

    /// The cached sorted distinct set of a categorical index.
    ///
    /// # Panics
    /// Panics when called on a numeric index.
    pub fn distinct(&self) -> &[u32] {
        match self {
            SortedColumn::Categorical { distinct } => distinct,
            SortedColumn::Numeric { .. } => panic!("distinct on a numeric sorted index"),
        }
    }

    /// In-memory size of the index payload (for memory accounting).
    pub fn payload_bytes(&self) -> usize {
        match self {
            SortedColumn::Numeric { order, rank } => {
                (order.len() + rank.len()) * std::mem::size_of::<u32>()
            }
            SortedColumn::Categorical { distinct } => distinct.len() * std::mem::size_of::<u32>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_order_sorted_by_value_then_row() {
        let s = SortedColumn::from_numeric(&[3.0, 1.0, 2.0, 1.0]);
        // Value 1.0 appears at rows 1 and 3; the tie breaks by row id.
        assert_eq!(s.numeric_order(), &[1, 3, 2, 0]);
        assert_eq!(s.numeric_rank(), &[3, 0, 2, 1]);
    }

    #[test]
    fn numeric_order_excludes_missing() {
        let s = SortedColumn::from_numeric(&[f64::NAN, 5.0, f64::NAN, 4.0]);
        assert_eq!(s.numeric_order(), &[3, 1]);
        assert_eq!(s.numeric_rank(), &[MISSING_RANK, 1, MISSING_RANK, 0]);
        // The rank spans the missing rows too.
        assert_eq!(s.payload_bytes(), 2 * 4 + 4 * 4);
    }

    #[test]
    fn numeric_order_total_order_on_specials() {
        // total_cmp puts -inf first and +inf last; NaN rows are dropped.
        let s = SortedColumn::from_numeric(&[f64::INFINITY, 0.0, f64::NEG_INFINITY, f64::NAN]);
        assert_eq!(s.numeric_order(), &[2, 1, 0]);
    }

    mod integer_sort {
        use super::*;
        use tscheck::prelude::*;

        /// Values that stress the record's two halves: both zeros, both
        /// infinities, subnormals, NaNs of both signs, neighbours that differ
        /// in the last mantissa bit (same high half: the run is finished by
        /// comparison), a coarse grid (long runs of one value) and a spread.
        fn awkward_value() -> impl Strategy<Value = f64> {
            let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
            prop_oneof![
                6 => -1e6..1e6f64,
                4 => (-8..8i32).prop_map(|q| f64::from(q) / 4.0),
                3 => (0u64..4).prop_map(move |ulps| (0..ulps).fold(1.5, |x, _| next_up(x))),
                2 => (0u64..4).prop_map(move |ulps| -(0..ulps).fold(1.5, |x, _| next_up(x))),
                2 => (0u64..5).prop_map(f64::from_bits),
                1 => (0u64..5).prop_map(|bits| -f64::from_bits(bits)),
                1 => Just(f64::INFINITY),
                1 => Just(f64::NEG_INFINITY),
                1 => Just(f64::NAN),
                1 => Just(-f64::NAN),
            ]
        }

        proptest! {
            /// The integer sort is the comparison sort it replaced.
            #[test]
            fn presorted_rows_are_in_value_then_row_order(
                values in prop_oneof![
                    4 => tscheck::collection::vec(awkward_value(), 0..300),
                    1 => (awkward_value(), 0usize..40).prop_map(|(v, n)| vec![v; n]),
                ]
            ) {
                let mut want: Vec<u32> = (0..values.len() as u32)
                    .filter(|&r| !values[r as usize].is_nan())
                    .collect();
                want.sort_unstable_by(|&a, &b| {
                    values[a as usize].total_cmp(&values[b as usize]).then(a.cmp(&b))
                });
                prop_assert_eq!(presorted_rows(&values), want);
            }
        }
    }

    #[test]
    fn categorical_distinct_sorted_dedup_no_missing() {
        let s = SortedColumn::from_categorical(&[3, 1, 3, MISSING_CAT, 0]);
        assert_eq!(s.distinct(), &[0, 1, 3]);
        let empty = SortedColumn::from_categorical(&[MISSING_CAT]);
        assert!(empty.distinct().is_empty());
    }

    #[test]
    fn build_dispatches_on_column_kind() {
        let num = SortedColumn::build(&Column::Numeric(vec![2.0, 1.0]));
        assert_eq!(num.numeric_order(), &[1, 0]);
        let cat = SortedColumn::build_buf(&ValuesBuf::Categorical(vec![7, 7, 2]));
        assert_eq!(cat.distinct(), &[2, 7]);
    }

    #[test]
    #[should_panic(expected = "categorical sorted index")]
    fn numeric_order_on_categorical_panics() {
        SortedColumn::from_categorical(&[0]).numeric_order();
    }
}
