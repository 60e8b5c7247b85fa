//! Equi-depth histograms — the PLANET/MLlib approximation.
//!
//! PLANET (and Spark MLlib, which adopts it) does not examine every distinct
//! attribute value: it computes approximate equi-depth histograms per
//! attribute and considers **one splitting value per bucket** (paper §II,
//! *Related Systems*; MLlib's `maxBins`, default 32). This module provides:
//!
//! - [`BinCuts`]: candidate thresholds from an equi-depth quantile sweep,
//! - [`NumericHistogram`]: per-bin label aggregates that machines build over
//!   their row partitions and the master merges (this is exactly the object
//!   whose transmission makes PLANET IO-bound), and
//! - per-category statistics for categorical attributes (MLlib aggregates
//!   per-category stats and applies one-vs-rest / Breiman selection).
//!
//! Nothing is scanned here: the merged statistics go through the engine's
//! own cores — the bin prefix scan of [`crate::hist`] and the categorical
//! selectors of [`crate::exact`] — so baseline and engine differ only in how
//! the aggregates were built (`tests/merge_equiv.rs`).

use crate::condition::SplitTest;
use crate::exact::{best_breiman_prefix, best_one_vs_rest, split_from_slots, ColumnSplit};
use crate::hist::best_bin_boundary;
use crate::impurity::{ClassCounts, Impurity, LabelAgg, RegAgg};
use ts_datatable::MISSING_CAT;

// `BinCuts` moved to `ts-datatable` when binning became a load-time column
// index (`BinnedColumn`); re-exported here so kernel-side callers keep their
// import path.
pub use ts_datatable::BinCuts;

/// Per-bin label aggregates for one numeric attribute over one machine's
/// share of a node's rows, generic over the label aggregate (`ClassCounts`
/// or `RegAgg`). Mergeable: the master folds every machine's histogram
/// before selecting the best bucket boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericHistogram<A> {
    /// One aggregate per bin.
    pub bins: Vec<A>,
    /// Rows with a missing attribute value.
    pub missing: A,
}

/// The classification instantiation under the names the property suite
/// (`tests/proptest_kernels.rs`) and the kernel bench call it by.
impl NumericHistogram<ClassCounts> {
    /// [`NumericHistogram::new`] over empty `n_classes`-class counts.
    pub fn new_class(n_bins: usize, n_classes: u32) -> Self {
        Self::new(n_bins, ClassCounts::new(n_classes))
    }

    /// [`NumericHistogram::add`].
    pub fn add_class(&mut self, cuts: &BinCuts, v: f64, y: u32) {
        self.add(cuts, v, y);
    }
}

impl<A: LabelAgg> NumericHistogram<A> {
    /// Creates an empty histogram whose every slot is a copy of `empty`.
    pub fn new(n_bins: usize, empty: A) -> Self {
        NumericHistogram {
            bins: vec![empty.clone(); n_bins],
            missing: empty,
        }
    }

    /// Adds one row.
    pub fn add(&mut self, cuts: &BinCuts, v: f64, y: A::Label) {
        if v.is_nan() {
            self.missing.add(y);
        } else {
            self.bins[cuts.bin_of(v)].add(y);
        }
    }

    /// Merges another machine's histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.bins.len(), other.bins.len(), "bin count mismatch");
        for (x, y) in self.bins.iter_mut().zip(&other.bins) {
            x.merge(y);
        }
        self.missing.merge(&other.missing);
    }

    /// Approximate wire size in bytes (per-bin stats), what one machine sends
    /// to the master for one `(node, attribute)` pair.
    pub fn wire_bytes(&self) -> usize {
        (self.bins.len() + 1) * self.missing.wire_bytes()
    }

    /// Finds the best bucket-boundary split from the (merged) histogram —
    /// PLANET considers exactly one candidate threshold per bucket. The same
    /// prefix scan as the engine's per-node kernel
    /// ([`crate::hist::best_hist_split_numeric_at`]).
    pub fn best_split(&self, cuts: &BinCuts, imp: Impurity) -> Option<ColumnSplit> {
        let cuts = cuts.cuts();
        if cuts.is_empty() {
            return None;
        }
        let (mut left, mut total) = (self.missing.empty_like(), self.missing.empty_like());
        let bins = self.bins.iter().map(A::slot);
        let (gain, b, _) = best_bin_boundary(bins.clone(), cuts.len(), &mut left, &mut total, imp)?;
        let test = SplitTest::NumericLe(cuts[b]);
        let left = bins.take(b + 1);
        Some(split_from_slots(
            test,
            gain,
            left,
            &total,
            self.missing.slot(),
        ))
    }
}

/// Best categorical split from merged per-category statistics (what MLlib
/// computes after aggregating category stats across machines): totals the
/// present categories, lets `select` — one of the exact engine's selectors —
/// pick `(gain, sorted left set)`, and routes `missing` to the larger side.
fn best_cat_from_stats<A: LabelAgg>(
    per_value: &[A],
    missing: &A,
    select: impl FnOnce(&[A], &A) -> Option<(f64, Vec<u32>)>,
) -> Option<ColumnSplit> {
    let mut total = missing.empty_like();
    per_value.iter().for_each(|v| total.merge(v));
    if total.n() < 2 {
        return None;
    }
    let (gain, left_set) = select(per_value, &total)?;
    let left_slots = left_set.iter().map(|&c| per_value[c as usize].slot());
    let test = SplitTest::CatIn(left_set.clone());
    Some(split_from_slots(
        test,
        gain,
        left_slots,
        &total,
        missing.slot(),
    ))
}

/// Best one-vs-rest categorical split from merged per-category class counts.
/// `per_value[c]` holds the class counts of category `c`; `missing` holds the
/// rows with a missing value.
pub fn best_cat_from_class_stats(
    per_value: &[ClassCounts],
    missing: &ClassCounts,
    imp: Impurity,
) -> Option<ColumnSplit> {
    best_cat_from_stats(per_value, missing, |pv, total| {
        best_one_vs_rest(pv.iter().map(ClassCounts::counts), total, imp)
            .map(|(gain, code)| (gain, vec![code]))
    })
}

/// Best Breiman-prefix categorical split from merged per-category regression
/// aggregates.
pub fn best_cat_from_reg_stats(per_value: &[RegAgg], missing: &RegAgg) -> Option<ColumnSplit> {
    best_cat_from_stats(per_value, missing, |pv, total| {
        best_breiman_prefix(pv, total).map(|(gain, left_set, _)| (gain, left_set))
    })
}

/// Per-category aggregates (`per_value`, `missing`) of one machine's rows;
/// every slot starts as a copy of `empty`.
fn cat_stats<A: LabelAgg>(codes: &[u32], ys: &[A::Label], n_values: u32, empty: A) -> (Vec<A>, A) {
    let mut per_value = vec![empty.clone(); n_values as usize];
    let mut missing = empty;
    for (&c, &y) in codes.iter().zip(ys) {
        if c == MISSING_CAT {
            missing.add(y);
        } else {
            per_value[c as usize].add(y);
        }
    }
    (per_value, missing)
}

/// Builds per-category class counts for one machine's rows (to be merged at
/// the master).
pub fn cat_class_stats(
    codes: &[u32],
    ys: &[u32],
    n_values: u32,
    n_classes: u32,
) -> (Vec<ClassCounts>, ClassCounts) {
    cat_stats(codes, ys, n_values, ClassCounts::new(n_classes))
}

/// Builds per-category regression aggregates for one machine's rows.
pub fn cat_reg_stats(codes: &[u32], ys: &[f64], n_values: u32) -> (Vec<RegAgg>, RegAgg) {
    cat_stats(codes, ys, n_values, RegAgg::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{best_cat_split_classification, best_cat_split_regression};

    #[test]
    fn histogram_merge_equals_single_pass() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let ys = [0u32, 0, 0, 1, 1, 1];
        let cuts = BinCuts::equi_depth(&values, 4);
        let mut whole = NumericHistogram::new_class(cuts.n_bins(), 2);
        for (&v, &y) in values.iter().zip(&ys) {
            whole.add_class(&cuts, v, y);
        }
        let mut h1 = NumericHistogram::new_class(cuts.n_bins(), 2);
        let mut h2 = NumericHistogram::new_class(cuts.n_bins(), 2);
        for (&v, &y) in values.iter().zip(&ys).take(3) {
            h1.add_class(&cuts, v, y);
        }
        for (&v, &y) in values.iter().zip(&ys).skip(3) {
            h2.add_class(&cuts, v, y);
        }
        h1.merge(&h2);
        assert_eq!(h1, whole);
    }

    #[test]
    fn histogram_best_split_separates_classes() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<u32> = (0..100).map(|i| if i < 50 { 0 } else { 1 }).collect();
        let cuts = BinCuts::equi_depth(&values, 10);
        let mut h = NumericHistogram::new_class(cuts.n_bins(), 2);
        for (&v, &y) in values.iter().zip(&ys) {
            h.add_class(&cuts, v, y);
        }
        let s = h.best_split(&cuts, Impurity::Gini).unwrap();
        assert_eq!(s.n_left() + s.n_right(), 100);
        // The chosen boundary is one of the 9 candidate cuts, near 50.
        if let SplitTest::NumericLe(t) = s.test {
            assert!((40.0..60.0).contains(&t), "threshold {t}");
        } else {
            panic!("numeric test expected");
        }
    }

    #[test]
    fn histogram_is_coarser_than_exact() {
        // With a boundary at 50 but only ~4 candidate cuts, the histogram's
        // gain can be at most the exact kernel's gain.
        let values: Vec<f64> = (0..200).map(|i| (i as f64) * 0.37).collect();
        let ys: Vec<u32> = (0..200).map(|i| u32::from(i >= 93)).collect();
        let exact = crate::exact::best_numeric_split(
            &values,
            crate::impurity::LabelView::Class(&ys, 2),
            Impurity::Gini,
        )
        .unwrap();
        let cuts = BinCuts::equi_depth(&values, 4);
        let mut h = NumericHistogram::new_class(cuts.n_bins(), 2);
        for (&v, &y) in values.iter().zip(&ys) {
            h.add_class(&cuts, v, y);
        }
        let approx = h.best_split(&cuts, Impurity::Gini).unwrap();
        assert!(approx.gain <= exact.gain + 1e-9);
    }

    #[test]
    fn histogram_reg_split_and_missing() {
        let values = [1.0, 2.0, 3.0, 4.0, f64::NAN];
        let ys = [0.0, 0.0, 10.0, 10.0, 5.0];
        let cuts = BinCuts::equi_depth(&values, 4);
        let mut h = NumericHistogram::new(cuts.n_bins(), RegAgg::default());
        for (&v, &y) in values.iter().zip(&ys) {
            h.add(&cuts, v, y);
        }
        let s = h.best_split(&cuts, Impurity::Variance).unwrap();
        assert_eq!(s.n_left() + s.n_right(), 5, "missing row routed to a child");
    }

    #[test]
    fn cat_stats_kernels_match_exact_kernels() {
        // The stats-based categorical kernels (used by the MLlib baseline)
        // must agree with the exact kernels on identical data.
        use tsrand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let k = 5u32;
            let n = rng.gen_range(5..60);
            let codes: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k)).collect();
            let ys: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..3)).collect();
            let exact = best_cat_split_classification(&codes, k, &ys, 3, Impurity::Gini);
            let (pv, miss) = cat_class_stats(&codes, &ys, k, 3);
            let from_stats = best_cat_from_class_stats(&pv, &miss, Impurity::Gini);
            match (&exact, &from_stats) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.test, b.test);
                    assert!((a.gain - b.gain).abs() < 1e-9);
                }
                (None, None) => {}
                _ => panic!("existence disagrees: {exact:?} vs {from_stats:?}"),
            }

            let yr: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..5.0)).collect();
            let exact_r = best_cat_split_regression(&codes, k, &yr);
            let (pv, miss) = cat_reg_stats(&codes, &yr, k);
            let from_stats_r = best_cat_from_reg_stats(&pv, &miss);
            match (&exact_r, &from_stats_r) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.test, b.test);
                    assert!((a.gain - b.gain).abs() < 1e-9);
                }
                (None, None) => {}
                _ => panic!("regression existence disagrees"),
            }
        }
    }
}
