//! Presorted per-column indices for the sorted-column split engine.
//!
//! The exact numeric kernel's dominant cost is re-sorting a column's values
//! for every node (`O(|Dx| log |Dx|)` per node per candidate column). Paying
//! the sort **once per column** at load time lets every node read its own
//! sorted sequence off the index in `O(|Dx|)` — the structure the exact
//! distributed Random Forest literature builds on (see PAPERS.md) and the
//! hot-path optimization of docs/PERF.md. The index is read-only and shared
//! by every tree and node; it holds every row's rank in the sorted order,
//! 4 bytes per row, and not the order itself: a node selects its rows by
//! rank, and a trainer that partitions the order by node
//! (`ts_splits::sorted::NodeOrders`) derives its private copy by inverting
//! the rank.
//!
//! Determinism contract: the numeric order sorts by `(value, row id)` with
//! `f64::total_cmp`, exactly the order a stable sort of the node's gathered
//! values produces. Because node row sets are always ascending, the node's
//! rows taken in rank order are the *same* sequence the gather+sort
//! reference kernel scans, so both pick byte-identical splits.

use crate::binned::BinnedColumn;
use crate::column::{Column, ValuesBuf, MISSING_CAT};

/// The [`SortedColumn::numeric_rank`] of a row whose value is missing.
pub const MISSING_RANK: u32 = u32::MAX;

/// A per-column index built once when a column enters a store (worker column
/// load, `LocalDataset` assembly) and shared by every node's split search.
#[derive(Debug, Clone, PartialEq)]
pub enum SortedColumn {
    /// Numeric column: where every *present* (non-NaN) row sits in the
    /// `(value, row id)` order of the present rows. Missing rows have no
    /// place — the kernels route them to the majority side after the
    /// boundary is chosen.
    Numeric {
        /// `rank[row]` is the row's position in the order, [`MISSING_RANK`]
        /// for a missing value. A node finds where each of its rows sits in
        /// the sorted sequence by reading its own rows' ranks — no pass over
        /// the rest of the column.
        rank: Vec<u32>,
        /// The number of present rows: the positions `rank` takes are
        /// `0..present`, each once.
        present: usize,
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
/// `f64::total_cmp`, one `u64` record per row whose low 32 bits are the row
/// id ([`record_row`]).
///
/// One integer sort instead of a comparison sort that loads two values per
/// comparison: each row's record holds the high 32 bits of its value's place
/// in the total order (sign, exponent, 20 mantissa bits) above its row id —
/// the records are sorted as integers, and only the runs that share a high
/// half, already in row order, are finished by the full `(value, row)`
/// comparison. A run of one value is in order as it stands; a column whose
/// values differ only below the 20th mantissa bit degrades to the comparison
/// sort it always was. The records are the only order an index build
/// holds: the rank and the bins are both read off them.
pub(crate) fn presorted_records(values: &[f64]) -> Vec<u64> {
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
                let (a, b) = (record_row(a), record_row(b));
                values[a].total_cmp(&values[b]).then(a.cmp(&b))
            });
        }
    }
    records
}

/// The row id of a [`presorted_records`] record.
#[inline]
pub(crate) fn record_row(record: u64) -> usize {
    record as u32 as usize
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
        let rank = vec![MISSING_RANK; values.len()];
        Self::ranked(rank, &presorted_records(values))
    }

    /// [`Self::from_numeric`] and [`BinnedColumn::build`] of one column off
    /// one sort: a store that bins its numeric columns (histogram mode)
    /// indexes and bins each of them with this.
    pub fn from_numeric_binned(values: &[f64], max_bins: usize) -> (Self, BinnedColumn) {
        let rank = vec![MISSING_RANK; values.len()];
        // At most `max_bins` bins: below 256 the ids are `u8`, known now.
        let u8_ids = if max_bins <= u8::MAX as usize {
            Vec::with_capacity(values.len())
        } else {
            Vec::new()
        };
        let records = presorted_records(values);
        let binned = BinnedColumn::from_records(values, &records, max_bins, u8_ids);
        (Self::ranked(rank, &records), binned)
    }

    /// The index whose order is `records`, written into `rank` (every row
    /// [`MISSING_RANK`]). Callers allocate what the index keeps — the rank,
    /// and the bin ids where they can — before they sort: the buffers that
    /// stay before the one that goes. The other way round, the freed records
    /// left holes below what stayed, glibc trimmed the main heap when the
    /// cluster over the table shut down, and a process that then loaded its
    /// next table faulted its pages in anew: `setup_s` read 12 % higher on
    /// `coltask_exact` and up to 20 % on `coltask_hist` (docs/PERF.md).
    fn ranked(mut rank: Vec<u32>, records: &[u64]) -> Self {
        for (position, &record) in records.iter().enumerate() {
            rank[record_row(record)] = position as u32;
        }
        SortedColumn::Numeric {
            rank,
            present: records.len(),
        }
    }

    /// Distinct-code index over a categorical slice, holding the distinct
    /// set at its own size rather than the capacity of every present code.
    pub fn from_categorical(codes: &[u32]) -> Self {
        let mut distinct: Vec<u32> = codes
            .iter()
            .copied()
            .filter(|&c| c != MISSING_CAT)
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        distinct.shrink_to_fit();
        SortedColumn::Categorical { distinct }
    }

    /// Every row's position in the `(value, row)` order of a numeric
    /// index's present rows, [`MISSING_RANK`] for the rows it leaves out.
    ///
    /// # Panics
    /// Panics when called on a categorical index — the caller dispatched on
    /// the wrong attribute type.
    pub fn numeric_rank(&self) -> &[u32] {
        match self {
            SortedColumn::Numeric { rank, .. } => rank,
            SortedColumn::Categorical { .. } => {
                panic!("numeric_rank on a categorical sorted index")
            }
        }
    }

    /// The number of present rows of a numeric index — the length of its
    /// order, whose positions [`Self::numeric_rank`] hands out.
    ///
    /// # Panics
    /// Panics when called on a categorical index.
    pub fn numeric_present(&self) -> usize {
        match self {
            SortedColumn::Numeric { present, .. } => *present,
            SortedColumn::Categorical { .. } => {
                panic!("numeric_present on a categorical sorted index")
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
            SortedColumn::Numeric { rank, .. } => std::mem::size_of_val(rank.as_slice()),
            SortedColumn::Categorical { distinct } => std::mem::size_of_val(distinct.as_slice()),
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
        assert_eq!(s.numeric_rank(), &[3, 0, 2, 1]);
        assert_eq!(s.numeric_present(), 4);
    }

    #[test]
    fn numeric_order_excludes_missing() {
        let s = SortedColumn::from_numeric(&[f64::NAN, 5.0, f64::NAN, 4.0]);
        assert_eq!(s.numeric_rank(), &[MISSING_RANK, 1, MISSING_RANK, 0]);
        assert_eq!(s.numeric_present(), 2);
        // The rank spans the missing rows too, and is all the index holds.
        assert_eq!(s.payload_bytes(), 4 * 4);
    }

    #[test]
    fn numeric_order_total_order_on_specials() {
        // total_cmp puts -inf first and +inf last; NaN rows are dropped.
        let s = SortedColumn::from_numeric(&[f64::INFINITY, 0.0, f64::NEG_INFINITY, f64::NAN]);
        assert_eq!(s.numeric_rank(), &[2, 1, 0, MISSING_RANK]);
        assert_eq!(s.numeric_present(), 3);
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
                let rows: Vec<u32> = presorted_records(&values)
                    .into_iter()
                    .map(|record| record_row(record) as u32)
                    .collect();
                prop_assert_eq!(rows, want);
            }
        }
    }

    #[test]
    fn categorical_distinct_sorted_dedup_no_missing() {
        let s = SortedColumn::from_categorical(&[3, 1, 3, MISSING_CAT, 0]);
        assert_eq!(s.distinct(), &[0, 1, 3]);
        let empty = SortedColumn::from_categorical(&[MISSING_CAT]);
        assert!(empty.distinct().is_empty());
        // 20 000 present codes, five distinct: the index holds five.
        let codes: Vec<u32> = (0..20_000).map(|r| [4, 9, 2, 9, 7, 0][r % 6]).collect();
        let SortedColumn::Categorical { distinct } = SortedColumn::from_categorical(&codes) else {
            panic!("categorical codes make a categorical index")
        };
        assert_eq!(distinct, [0, 2, 4, 7, 9]);
        assert_eq!(distinct.capacity(), distinct.len());
    }

    #[test]
    fn build_dispatches_on_column_kind() {
        let num = SortedColumn::build(&Column::Numeric(vec![2.0, 1.0]));
        assert_eq!(num.numeric_rank(), &[1, 0]);
        let cat = SortedColumn::build_buf(&ValuesBuf::Categorical(vec![7, 7, 2]));
        assert_eq!(cat.distinct(), &[2, 7]);
    }

    #[test]
    #[should_panic(expected = "categorical sorted index")]
    fn numeric_rank_on_categorical_panics() {
        SortedColumn::from_categorical(&[0]).numeric_rank();
    }
}
