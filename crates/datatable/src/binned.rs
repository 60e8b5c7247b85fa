//! Quantized bin ids for numeric columns — the histogram split path's
//! load-time index.
//!
//! The histogram split engine (docs/HISTOGRAM.md) never scans a numeric
//! column's values per node: each column is binned **once** when it enters a
//! store, and per-node work becomes an `O(|Ix|)` accumulation of per-bin
//! label aggregates followed by an `O(bins)` boundary scan. This module
//! provides the two pieces of that index:
//!
//! - [`BinCuts`]: candidate thresholds from an equi-depth quantile sweep
//!   (the PLANET/MLlib `maxBins` construction; paper §II, *Related
//!   Systems*), lossless when the column has at most `max_bins` distinct
//!   values, and
//! - [`BinnedColumn`]: the column's values quantized to `u8`/`u16` bin ids
//!   against those cuts, with a reserved trailing bin for missing values.
//!
//! `BinCuts` lives here (rather than in `ts-splits`, where the histogram
//! kernels consume it) because binning is a property of the *stored data*,
//! built alongside [`crate::sorted::SortedColumn`]; `ts-splits` re-exports
//! it for the kernels and baselines.

use crate::sorted::{presorted_records, record_row};
use tsjson::{Deserialize, Serialize};

/// Candidate split thresholds for one numeric attribute.
///
/// `cuts` is strictly increasing; values `v <= cuts[b]` with
/// `v > cuts[b-1]` fall into bin `b`, and values above the last cut fall
/// into the overflow bin `cuts.len()`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinCuts {
    cuts: Vec<f64>,
}

impl BinCuts {
    /// Builds equi-depth cuts from (a sample of) the attribute values,
    /// keeping at most `max_bins - 1` thresholds (so at most `max_bins`
    /// bins), mirroring MLlib's `findSplits`.
    ///
    /// Degenerate inputs are well-defined: an all-missing or constant
    /// column yields **no cuts** — a single overflow bin that swallows
    /// every present value ([`Self::n_bins`] is 1). When the column has at
    /// most `max_bins` distinct present values the cuts are exactly those
    /// distinct values (minus the maximum), so binning is *lossless*: every
    /// exact split boundary is a bin boundary. The quantile sweep only
    /// engages above that, and always deduplicates, so cuts are strictly
    /// increasing for any input.
    pub fn equi_depth(values: &[f64], max_bins: usize) -> BinCuts {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        sorted.sort_unstable_by(f64::total_cmp);
        Self::of_sorted(sorted.len(), |i| sorted[i], max_bins)
    }

    /// [`Self::equi_depth`] of a column whose `n` present values are at hand
    /// in `total_cmp` order, position by position — a sorted copy, or the
    /// column read through its presorted records.
    fn of_sorted(n: usize, sorted: impl Fn(usize) -> f64, max_bins: usize) -> BinCuts {
        assert!(max_bins >= 2, "need at least two bins");
        if n == 0 {
            return BinCuts { cuts: Vec::new() };
        }

        // Lossless fast path: few distinct values. The plain quantile sweep
        // can miss rare values entirely on skewed data (every quantile index
        // lands inside the dominant run), producing no usable cut even
        // though an exact split exists.
        let mut distinct: Vec<f64> = Vec::new();
        for v in (0..n).map(&sorted) {
            if distinct.last().is_none_or(|&last| v > last) {
                distinct.push(v);
            }
            if distinct.len() > max_bins {
                break;
            }
        }
        if distinct.len() <= max_bins {
            distinct.pop(); // splitting at the max sends everything left
            return BinCuts { cuts: distinct };
        }

        let mut cuts = Vec::with_capacity(max_bins - 1);
        for i in 1..max_bins {
            let idx = (i * n) / max_bins;
            if idx == 0 || idx >= n {
                continue;
            }
            let c = sorted(idx - 1);
            if cuts.last().is_none_or(|&last| c > last) && c < sorted(n - 1) {
                cuts.push(c);
            }
        }
        BinCuts { cuts }
    }

    /// Wraps an explicit strictly-increasing threshold vector (tests,
    /// sketch-proposed candidates).
    ///
    /// # Panics
    /// Panics when `cuts` is not strictly increasing or contains NaN.
    pub fn from_cuts(cuts: Vec<f64>) -> BinCuts {
        assert!(
            cuts.windows(2).all(|w| w[0] < w[1]) && cuts.iter().all(|c| !c.is_nan()),
            "cuts must be strictly increasing and NaN-free"
        );
        BinCuts { cuts }
    }

    /// The candidate thresholds.
    pub fn cuts(&self) -> &[f64] {
        &self.cuts
    }

    /// Number of bins (`cuts + 1`; a cut-less column has the single
    /// overflow bin).
    pub fn n_bins(&self) -> usize {
        self.cuts.len() + 1
    }

    /// The bin index of a value: the first bin whose cut is `>= v`.
    pub fn bin_of(&self, v: f64) -> usize {
        debug_assert!(!v.is_nan());
        self.cuts.partition_point(|&c| c < v)
    }

    /// Approximate wire size (what PLANET broadcasts per attribute).
    pub fn wire_bytes(&self) -> usize {
        8 * self.cuts.len() + 8
    }
}

/// A numeric column's values quantized to bin ids, built once at load time.
///
/// Slot layout: ids `0..n_bins()` are the real bins of the column's
/// [`BinCuts`]; the reserved trailing id [`Self::missing_bin`] marks missing
/// (NaN) rows, so histogram kernels need no second lookup into the raw
/// values. Ids are stored as `u8` when they fit (≤ 256 slots — the common
/// `--hist-bins 64` case costs one byte per row) and `u16` otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedColumn {
    cuts: BinCuts,
    ids: BinIds,
}

/// The quantized id payload of a [`BinnedColumn`].
#[derive(Debug, Clone, PartialEq)]
pub enum BinIds {
    /// At most 256 slots (bins + missing).
    U8(Vec<u8>),
    /// Up to 65 536 slots.
    U16(Vec<u16>),
}

impl BinnedColumn {
    /// Bins a full numeric column with fresh equi-depth cuts.
    pub fn build(values: &[f64], max_bins: usize) -> Self {
        Self::from_records(values, &presorted_records(values), max_bins, Vec::new())
    }

    /// The room for `u8` ids that a column of `n_rows` rows binned into at
    /// most `max_bins` bins takes, allocated before it is sorted: every row
    /// when fewer than 256 bins make every id a byte, none otherwise — the
    /// width of wider budgets is known only once the cuts are.
    pub fn u8_ids_len(n_rows: usize, max_bins: usize) -> usize {
        if max_bins <= u8::MAX as usize {
            n_rows
        } else {
            0
        }
    }

    /// [`Self::build`] off the column's presorted `records`, as a store that
    /// also indexes the column has them at hand
    /// ([`crate::SortedColumn::from_numeric_binned`]): the cuts are read off
    /// the records — the same values in the same order as a fresh sort,
    /// hence the same cuts — and the ids assigned by walking them, a bin's
    /// rows being a run of the order. `u8_ids` is where `u8` ids go: a
    /// caller that knows they will fit can allocate it before it sorts
    /// ([`Self::u8_ids_len`]).
    pub(crate) fn from_records(
        values: &[f64],
        records: &[u64],
        max_bins: usize,
        u8_ids: Vec<u8>,
    ) -> Self {
        let value_at = |position: usize| values[record_row(records[position])];
        let cuts = BinCuts::of_sorted(records.len(), value_at, max_bins);
        // Every row starts in the missing slot; `narrow` stores an id.
        fn walk<T: Copy>(
            values: &[f64],
            records: &[u64],
            cuts: &[f64],
            narrow: impl Fn(usize) -> T,
            mut ids: Vec<T>,
        ) -> Vec<T> {
            ids.clear();
            ids.resize(values.len(), narrow(cuts.len() + 1));
            // A bin's rows are a run of positions, found by a binary search
            // per cut: the walk itself reads no value.
            let mut start = 0;
            for bin in 0..=cuts.len() {
                let end = match cuts.get(bin) {
                    Some(&cut) => {
                        let rest = &records[start..];
                        start + rest.partition_point(|&r| values[record_row(r)] <= cut)
                    }
                    None => records.len(),
                };
                for &record in &records[start..end] {
                    ids[record_row(record)] = narrow(bin);
                }
                start = end;
            }
            ids
        }
        let ids = if cuts.n_bins() <= u8::MAX as usize {
            BinIds::U8(walk(values, records, &cuts.cuts, |id| id as u8, u8_ids))
        } else {
            assert!(
                cuts.n_bins() <= u16::MAX as usize,
                "bin count exceeds u16 id range"
            );
            BinIds::U16(walk(
                values,
                records,
                &cuts.cuts,
                |id| id as u16,
                Vec::new(),
            ))
        };
        BinnedColumn { cuts, ids }
    }

    /// Bins a full numeric column against existing cuts.
    ///
    /// # Panics
    /// Panics when the cuts imply more than 65 536 slots (`u16` ids).
    pub fn with_cuts(values: &[f64], cuts: BinCuts) -> Self {
        let slots = cuts.n_bins() + 1; // + reserved missing slot
        let missing = cuts.n_bins();
        let ids = if slots <= (u8::MAX as usize) + 1 {
            BinIds::U8(
                values
                    .iter()
                    .map(|&v| {
                        if v.is_nan() {
                            missing as u8
                        } else {
                            cuts.bin_of(v) as u8
                        }
                    })
                    .collect(),
            )
        } else {
            assert!(
                slots <= (u16::MAX as usize) + 1,
                "bin count exceeds u16 id range"
            );
            BinIds::U16(
                values
                    .iter()
                    .map(|&v| {
                        if v.is_nan() {
                            missing as u16
                        } else {
                            cuts.bin_of(v) as u16
                        }
                    })
                    .collect(),
            )
        };
        BinnedColumn { cuts, ids }
    }

    /// The cuts the ids were quantized against.
    pub fn cuts(&self) -> &BinCuts {
        &self.cuts
    }

    /// Number of real bins (excluding the missing slot).
    pub fn n_bins(&self) -> usize {
        self.cuts.n_bins()
    }

    /// The reserved slot id marking a missing value.
    pub fn missing_bin(&self) -> usize {
        self.cuts.n_bins()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.ids {
            BinIds::U8(v) => v.len(),
            BinIds::U16(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every row's slot id, at the width they are stored in — for a kernel
    /// to match on once, outside its row loop.
    pub fn ids(&self) -> &BinIds {
        &self.ids
    }

    /// The slot id of one row (a real bin, or [`Self::missing_bin`]).
    #[inline]
    pub fn id(&self, row: usize) -> usize {
        match &self.ids {
            BinIds::U8(v) => v[row] as usize,
            BinIds::U16(v) => v[row] as usize,
        }
    }

    /// In-memory size of the id payload plus cuts (for memory accounting).
    pub fn payload_bytes(&self) -> usize {
        let ids = match &self.ids {
            BinIds::U8(v) => v.len(),
            BinIds::U16(v) => v.len() * 2,
        };
        ids + std::mem::size_of_val(self.cuts.cuts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_depth_cuts_are_increasing_and_bounded() {
        let values: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
        let cuts = BinCuts::equi_depth(&values, 32);
        assert!(cuts.cuts().len() <= 31);
        assert!(cuts.cuts().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn equi_depth_few_distinct_values_is_lossless() {
        let values = [1.0, 1.0, 2.0, 2.0, 2.0];
        let cuts = BinCuts::equi_depth(&values, 32);
        assert_eq!(cuts.cuts(), &[1.0]);
        assert_eq!(cuts.n_bins(), 2);
    }

    #[test]
    fn equi_depth_skewed_rare_value_still_gets_a_cut() {
        // One 1.0 among many 2.0s: every quantile index lands inside the
        // 2.0 run, so the plain sweep would find no cut at all.
        let mut values = vec![2.0; 99];
        values.push(1.0);
        let cuts = BinCuts::equi_depth(&values, 32);
        assert_eq!(cuts.cuts(), &[1.0]);
    }

    #[test]
    fn equi_depth_all_missing_is_single_overflow_bin() {
        let cuts = BinCuts::equi_depth(&[f64::NAN, f64::NAN], 8);
        assert!(cuts.cuts().is_empty());
        assert_eq!(cuts.n_bins(), 1);
        assert_eq!(cuts.bin_of(123.0), 0);
    }

    #[test]
    fn equi_depth_constant_column_is_single_bin() {
        let cuts = BinCuts::equi_depth(&[7.0; 50], 32);
        assert!(cuts.cuts().is_empty());
        assert_eq!(cuts.n_bins(), 1);
    }

    #[test]
    fn equi_depth_dedups_heavy_value_runs() {
        // 40 distinct values but half the mass on one value: adjacent
        // quantile indices repeatedly land on 20.0 and must be deduped.
        let mut values: Vec<f64> = (0..40).map(f64::from).collect();
        values.extend(std::iter::repeat_n(20.0, 40));
        let cuts = BinCuts::equi_depth(&values, 8);
        assert!(cuts.cuts().windows(2).all(|w| w[0] < w[1]));
        assert!(!cuts.cuts().is_empty());
    }

    #[test]
    fn from_cuts_validates() {
        let c = BinCuts::from_cuts(vec![1.0, 2.0]);
        assert_eq!(c.n_bins(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_cuts_rejects_unsorted() {
        BinCuts::from_cuts(vec![2.0, 1.0]);
    }

    #[test]
    fn bin_of_respects_boundaries() {
        let cuts = BinCuts::from_cuts(vec![1.0, 5.0]);
        assert_eq!(cuts.bin_of(0.5), 0);
        assert_eq!(cuts.bin_of(1.0), 0);
        assert_eq!(cuts.bin_of(1.5), 1);
        assert_eq!(cuts.bin_of(5.0), 1);
        assert_eq!(cuts.bin_of(9.0), 2);
    }

    #[test]
    fn binned_column_ids_match_bin_of_with_missing_slot() {
        let values = [0.5, 1.0, 3.0, f64::NAN, 9.0];
        let b = BinnedColumn::with_cuts(&values, BinCuts::from_cuts(vec![1.0, 5.0]));
        assert_eq!(b.n_bins(), 3);
        assert_eq!(b.missing_bin(), 3);
        assert_eq!(b.len(), 5);
        assert_eq!(
            (0..5).map(|r| b.id(r)).collect::<Vec<_>>(),
            vec![0, 0, 1, 3, 2]
        );
        assert!(matches!(
            BinnedColumn::with_cuts(&values, BinCuts::from_cuts(vec![1.0])).ids,
            BinIds::U8(_)
        ));
    }

    mod off_the_presorted_order {
        use super::*;
        use crate::SortedColumn;
        use tscheck::prelude::*;

        proptest! {
            /// Cuts read off the presorted order and ids assigned by walking
            /// it are the cuts of a fresh sort and the ids of a binary search
            /// per row — the way `build` worked before it had the order —
            /// whether or not the rank is built off the same sort.
            #[test]
            fn build_bins_as_a_sort_and_a_search_per_row_do(
                values in tscheck::collection::vec(prop_oneof![
                    6 => -50.0..50.0f64,
                    4 => (-6..6i32).prop_map(|q| f64::from(q) / 2.0),
                    1 => Just(0.0f64),
                    1 => Just(-0.0f64),
                    1 => Just(f64::INFINITY),
                    1 => Just(f64::NAN),
                ], 0..600),
                max_bins in prop_oneof![Just(2usize), Just(3), Just(16), Just(64), Just(256), Just(300)],
            ) {
                let searched = BinnedColumn::with_cuts(&values, BinCuts::equi_depth(&values, max_bins));
                prop_assert_eq!(BinnedColumn::build(&values, max_bins), searched.clone());
                // Binned beside the rank, off the one sort, as a store does.
                let (sorted, binned) = SortedColumn::from_numeric_binned(&values, max_bins);
                prop_assert_eq!(binned, searched);
                prop_assert_eq!(sorted, SortedColumn::from_numeric(&values));
            }
        }
    }

    #[test]
    fn binned_column_uses_u16_above_256_slots() {
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        let b = BinnedColumn::build(&values, 1000);
        assert!(matches!(b.ids, BinIds::U16(_)));
        assert_eq!(b.n_bins(), 1000);
        // Lossless: id r equals the rank of value r.
        assert_eq!(b.id(0), 0);
        assert_eq!(b.id(999), 999);
        assert_eq!(b.payload_bytes(), 1000 * 2 + 999 * 8);
    }

    #[test]
    fn binned_column_all_missing() {
        let b = BinnedColumn::build(&[f64::NAN, f64::NAN], 4);
        assert_eq!(b.n_bins(), 1);
        assert_eq!(b.id(0), b.missing_bin());
        assert_eq!(b.id(1), 1);
    }
}
