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
/// the records are sorted as integers ([`sort_records`]), and only the runs
/// that share a high half, already in row order, are finished by the full
/// `(value, row)` comparison ([`finish_runs`]). A run of one value is in
/// order as it stands; a column whose values differ only below the 20th
/// mantissa bit degrades to the comparison sort it always was. The records
/// are the only order an index build holds: the rank and the bins are both
/// read off them.
pub(crate) fn presorted_records(values: &[f64]) -> Vec<u64> {
    let mut records = Vec::with_capacity(values.len());
    sort_records(values, &mut records);
    finish_runs(values, &mut records, |_, _| {});
    records
}

/// The integer half of [`presorted_records`], into `records`: every present
/// row's record, sorted by its value's high half, then by row.
fn sort_records(values: &[f64], records: &mut Vec<u64>) {
    let high_key = |v: f64| {
        // `total_cmp`'s monotone map of the bits: a negative value has every
        // bit flipped, a positive one its sign bit.
        let bits = v.to_bits();
        let key = bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63));
        key & !u64::from(u32::MAX)
    };
    records.clear();
    records.extend(
        (values.iter().enumerate())
            .filter(|(_, v)| !v.is_nan())
            .map(|(row, &v)| high_key(v) | row as u64),
    );
    records.sort_unstable();
}

/// The comparison half of [`presorted_records`]: sorts each run of
/// `records` that shares a high half by `(value, row)`, and hands `each`
/// every finished record with its position, in order — the rank is written
/// in the same pass.
fn finish_runs(values: &[f64], records: &mut [u64], mut each: impl FnMut(usize, u64)) {
    let mut position = 0;
    for run in records.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
        if run.len() > 1 {
            run.sort_unstable_by(|&a, &b| {
                let (a, b) = (record_row(a), record_row(b));
                values[a].total_cmp(&values[b]).then(a.cmp(&b))
            });
        }
        for &record in run.iter() {
            each(position, record);
            position += 1;
        }
    }
}

/// The codes of `codes` that are not missing.
fn present_codes(codes: &[u32]) -> impl Iterator<Item = u32> + '_ {
    codes.iter().copied().filter(|&c| c != MISSING_CAT)
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
        let rank = Vec::with_capacity(values.len());
        Self::numeric_in(values, rank, &mut Vec::with_capacity(values.len()))
    }

    /// [`Self::from_numeric`] and [`BinnedColumn::build`] of one column off
    /// one sort: a store that bins its numeric columns (histogram mode)
    /// indexes and bins each of them with this.
    pub fn from_numeric_binned(values: &[f64], max_bins: usize) -> (Self, BinnedColumn) {
        let rank = Vec::with_capacity(values.len());
        let u8_ids = Vec::with_capacity(BinnedColumn::u8_ids_len(values.len(), max_bins));
        let mut records = Vec::with_capacity(values.len());
        Self::numeric_binned_in(values, max_bins, rank, u8_ids, &mut records)
    }

    /// [`Self::from_numeric`] into buffers the caller allocated: `rank`
    /// (room for every row) becomes the index's rank, and `records` (room
    /// for every row) holds the sort while it runs and is left for the
    /// caller to reuse or free. Nothing here allocates in proportion to the
    /// rows, so a builder that fills indexes on other threads can allocate
    /// every such buffer on its own.
    ///
    /// Callers allocate what the index keeps — the rank, and the bin ids
    /// where they can — before the records: the buffers that stay before
    /// the one that goes. The other way round, the freed records left holes
    /// below what stayed, glibc trimmed the main heap when the cluster over
    /// the table shut down, and a process that then loaded its next table
    /// faulted its pages in anew: `setup_s` read 12 % higher on
    /// `coltask_exact` and up to 20 % on `coltask_hist` (docs/PERF.md).
    pub fn numeric_in(values: &[f64], rank: Vec<u32>, records: &mut Vec<u64>) -> Self {
        sort_records(values, records);
        Self::ranked(values, rank, records)
    }

    /// [`Self::from_numeric_binned`] into buffers the caller allocated, as
    /// [`Self::numeric_in`]: `u8_ids` becomes the bin ids when they fit a
    /// byte ([`BinnedColumn::u8_ids_len`]). The cuts are read off the
    /// finished records, so the bins are [`BinnedColumn::build`]'s.
    pub fn numeric_binned_in(
        values: &[f64],
        max_bins: usize,
        rank: Vec<u32>,
        u8_ids: Vec<u8>,
        records: &mut Vec<u64>,
    ) -> (Self, BinnedColumn) {
        sort_records(values, records);
        let sorted = Self::ranked(values, rank, records);
        let binned = BinnedColumn::from_records(values, records, max_bins, u8_ids);
        (sorted, binned)
    }

    /// The index whose order is the integer-sorted `records`, finished in
    /// place while `rank` is written.
    fn ranked(values: &[f64], mut rank: Vec<u32>, records: &mut [u64]) -> Self {
        rank.clear();
        rank.resize(values.len(), MISSING_RANK);
        finish_runs(values, records, |position, record| {
            rank[record_row(record)] = position as u32;
        });
        SortedColumn::Numeric {
            rank,
            present: records.len(),
        }
    }

    /// Distinct-code index over a categorical slice, holding the distinct
    /// set at its own size rather than the capacity of every present code.
    pub fn from_categorical(codes: &[u32]) -> Self {
        let scratch_len = Self::categorical_scratch_len(codes);
        Self::categorical_in(codes, &mut Vec::with_capacity(scratch_len))
    }

    /// The room [`Self::categorical_in`] sorts `codes` in: none when every
    /// present code is below the row count, as a table's dictionary codes
    /// are — the distinct set is then read off a bitmap of at most one bit
    /// per row — and every row otherwise.
    pub fn categorical_scratch_len(codes: &[u32]) -> usize {
        match present_codes(codes).max() {
            Some(top) if top as usize >= codes.len() => codes.len(),
            _ => 0,
        }
    }

    /// [`Self::from_categorical`] sorting, when it must, in `scratch`, a
    /// buffer the caller allocated with room for
    /// [`Self::categorical_scratch_len`] codes: only the distinct set is
    /// allocated here.
    pub fn categorical_in(codes: &[u32], scratch: &mut Vec<u64>) -> Self {
        let mut distinct: Vec<u32> = match present_codes(codes).max() {
            None => Vec::new(),
            Some(top) if (top as usize) < codes.len() => {
                let mut seen = vec![0u64; top as usize / 64 + 1];
                for code in present_codes(codes) {
                    seen[code as usize / 64] |= 1 << (code % 64);
                }
                (0..=top)
                    .filter(|&code| seen[code as usize / 64] >> (code % 64) & 1 == 1)
                    .collect()
            }
            Some(_) => {
                scratch.clear();
                scratch.extend(present_codes(codes).map(u64::from));
                scratch.sort_unstable();
                scratch.dedup();
                scratch.iter().map(|&code| code as u32).collect()
            }
        };
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
                prop_assert_eq!(&rows, &want);
                // The rank, written while the runs are finished, is that
                // order's inverse.
                let index = SortedColumn::from_numeric(&values);
                let mut want_rank = vec![MISSING_RANK; values.len()];
                for (position, &row) in want.iter().enumerate() {
                    want_rank[row as usize] = position as u32;
                }
                prop_assert_eq!(index.numeric_rank(), &want_rank[..]);
                prop_assert_eq!(index.numeric_present(), want.len());
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
    fn codes_at_or_above_the_row_count_are_sorted_in_the_callers_scratch() {
        // Below the row count the distinct set comes off a bitmap.
        assert_eq!(
            SortedColumn::categorical_scratch_len(&[2, 0, 2, MISSING_CAT]),
            0
        );
        let codes = [70, 3, MISSING_CAT, 70, 9];
        assert_eq!(SortedColumn::categorical_scratch_len(&codes), codes.len());
        let mut scratch = Vec::with_capacity(codes.len());
        let at = scratch.as_ptr();
        let index = SortedColumn::categorical_in(&codes, &mut scratch);
        assert_eq!(index.distinct(), &[3, 9, 70]);
        assert_eq!(scratch.as_ptr(), at, "the scratch is filled, not regrown");
        assert_eq!(SortedColumn::from_categorical(&codes), index);
    }

    #[test]
    fn a_numeric_index_is_built_in_the_callers_buffers() {
        let values = [2.5, f64::NAN, -1.0, 2.5, 0.0];
        let (rank, ids) = (Vec::with_capacity(5), Vec::with_capacity(5));
        let (rank_at, ids_at) = (rank.as_ptr(), ids.as_ptr());
        let mut records = Vec::with_capacity(5);
        let records_at = records.as_ptr();
        let (sorted, binned) = SortedColumn::numeric_binned_in(&values, 4, rank, ids, &mut records);
        assert_eq!(sorted.numeric_rank().as_ptr(), rank_at);
        let crate::BinIds::U8(kept_ids) = binned.ids() else {
            panic!("four bins are byte ids")
        };
        assert_eq!(kept_ids.as_ptr(), ids_at);
        assert_eq!(records.as_ptr(), records_at, "the records are not regrown");
        assert_eq!(
            (sorted, binned),
            SortedColumn::from_numeric_binned(&values, 4)
        );
        let rank = Vec::with_capacity(5);
        let plain = SortedColumn::numeric_in(&values, rank, &mut records);
        assert_eq!(plain, SortedColumn::from_numeric(&values));
        assert_eq!(plain.numeric_rank(), &[2, MISSING_RANK, 0, 3, 1]);
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
