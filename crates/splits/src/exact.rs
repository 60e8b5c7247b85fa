//! Exact best-split kernels (paper Appendix B): the boundary-scan core, the
//! categorical selectors, and the *gathered* entry points.
//!
//! Each gathered kernel takes one column's values *gathered over the node's
//! rows* (aligned with the equally-gathered labels) and returns the best
//! exact split-condition of that column, or `None` when no condition
//! strictly reduces impurity. They are the `NodeRows::All` case of the `_at`
//! kernels in [`crate::sorted`], which every trainer calls; these wrappers
//! remain as the reference of the oracle suites and the kernel bench.
//!
//! Missing values are excluded from the gain computation and routed to the
//! majority child; the returned child statistics *include* the routed missing
//! rows so node predictions and `|Ixl|`/`|Ixr|` counters (which the paper
//! sends back with every column-task result, §V) are exact.
//!
//! Determinism: every kernel and [`ColumnSplit::challenger_wins`] define a
//! strict total order on candidate splits, so the distributed engine and the
//! single-threaded subtree trainer pick identical splits.

use crate::condition::SplitTest;
use crate::impurity::{ClassCounts, Impurity, LabelAgg, LabelView, NodeStats, RegAgg};
use crate::sorted::{best_cat_split_classification_at, best_cat_split_regression_at, NodeRows};
use ts_datatable::{AttrType, ValuesBuf, MISSING_CAT};
use tsjson::{Deserialize, Serialize};

/// The best split found for one column, with exact child statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnSplit {
    /// The winning test.
    pub test: SplitTest,
    /// Weighted impurity decrease over the non-missing rows (strictly > 0).
    pub gain: f64,
    /// Where rows with a missing value of this attribute are routed.
    pub missing_left: bool,
    /// Label statistics of the left child (missing rows included if routed left).
    pub left: NodeStats,
    /// Label statistics of the right child (missing rows included if routed right).
    pub right: NodeStats,
}

impl ColumnSplit {
    /// Rows routed to the left child, `|Ixl|`.
    pub fn n_left(&self) -> u64 {
        self.left.n()
    }

    /// Rows routed to the right child, `|Ixr|`.
    pub fn n_right(&self) -> u64 {
        self.right.n()
    }

    /// Whether a challenger split on attribute `challenger_attr` beats an
    /// incumbent on `incumbent_attr`.
    ///
    /// The order is: higher gain wins; on exactly-equal gain the smaller
    /// attribute id wins. This is the cross-column comparison the master (or
    /// the local trainer) applies when gathering per-column results, and it
    /// is a strict total order so training is deterministic regardless of
    /// result arrival order.
    pub fn challenger_wins(
        challenger: &ColumnSplit,
        challenger_attr: usize,
        incumbent: &ColumnSplit,
        incumbent_attr: usize,
    ) -> bool {
        match challenger.gain.total_cmp(&incumbent.gain) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => challenger_attr < incumbent_attr,
        }
    }
}

/// Picks the threshold for a boundary between adjacent sorted values `a < b`.
///
/// Uses the midpoint, falling back to `a` when rounding would land on `b`
/// (adjacent floats), so that `x <= thr` always separates `a` from `b`.
pub(crate) fn boundary_threshold(a: f64, b: f64) -> f64 {
    debug_assert!(a < b);
    let mid = a + (b - a) / 2.0;
    if mid < b {
        mid
    } else {
        a
    }
}

/// Exact best `Ai <= v` split for a numeric column (Appendix B, Case 1):
/// sort the present values, then one pass with `O(1)` incremental impurity.
///
/// The gather-sort arm of [`crate::sorted::best_numeric_split_at`] over
/// `NodeRows::All`; kept public as the reference the oracle suites and the
/// benches compare against.
pub fn best_numeric_split(
    values: &[f64],
    labels: LabelView<'_>,
    imp: Impurity,
) -> Option<ColumnSplit> {
    assert_eq!(values.len(), labels.len(), "values/labels length mismatch");
    crate::sorted::gather_sort_split(values, NodeRows::All(values.len()), labels, imp)
}

/// Scan core 1 — one boundary scan over presorted `(value, label index)`
/// pairs with `O(1)` incremental impurity. Returns the best `(gain,
/// threshold, boundary index)` under the strict within-column order, or
/// `None`.
///
/// `present` must be sorted by `(value, index)` under `f64::total_cmp`; the
/// `.1` side indexes `labels` directly. The scan only compares values and
/// accumulates labels, so the gather-sort and presorted-filter paths produce
/// bit-identical gains when fed order-isomorphic sequences (see
/// docs/PERF.md).
pub(crate) fn scan_presorted(
    present: &[(f64, u32)],
    labels: LabelView<'_>,
    imp: Impurity,
) -> Option<(f64, f64, usize)> {
    if present.len() < 2 {
        return None;
    }
    match labels {
        LabelView::Class(ys, k) => crate::sorted::with_class_pair(k, |left, right| {
            scan_boundaries(present, ys, left, right, imp)
        }),
        LabelView::Real(ys) => {
            let (mut left, mut right) = (RegAgg::default(), RegAgg::default());
            scan_boundaries(present, ys, &mut left, &mut right, imp)
        }
    }
}

/// [`scan_presorted`] over one label type; `left` and `right` arrive empty.
fn scan_boundaries<A: LabelAgg>(
    present: &[(f64, u32)],
    ys: &[A::Label],
    left: &mut A,
    right: &mut A,
    imp: Impurity,
) -> Option<(f64, f64, usize)> {
    for &(_, p) in present {
        right.add(ys[p as usize]);
    }
    let total_w = right.weighted_impurity(imp);
    let mut best: Option<(f64, f64, usize)> = None; // (gain, threshold, boundary idx)
    for i in 0..present.len() - 1 {
        left.add(ys[present[i].1 as usize]);
        right.remove(ys[present[i].1 as usize]);
        if present[i].0 < present[i + 1].0 {
            let gain = total_w - left.weighted_impurity(imp) - right.weighted_impurity(imp);
            let thr = boundary_threshold(present[i].0, present[i + 1].0);
            if challenger_gain_wins(gain, thr, &best) {
                best = Some((gain, thr, i));
            }
        }
    }
    best
}

/// Strict within-column order: higher gain, then smaller threshold.
pub(crate) fn challenger_gain_wins(gain: f64, thr: f64, best: &Option<(f64, f64, usize)>) -> bool {
    if gain <= 0.0 || !gain.is_finite() {
        return false;
    }
    match best {
        None => true,
        Some((bg, bt, _)) => match gain.total_cmp(bg) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => thr < *bt,
        },
    }
}

/// Exact best categorical split for classification (Appendix B, Case 3):
/// one-vs-rest — the left set is a single category, `|Sl| = 1`, so only
/// `O(|Si|)` conditions are checked. Ties break toward the smaller code.
/// [`best_cat_split_classification_at`] over `NodeRows::All`.
pub fn best_cat_split_classification(
    codes: &[u32],
    n_values: u32,
    ys: &[u32],
    n_classes: u32,
    imp: Impurity,
) -> Option<ColumnSplit> {
    let node = NodeRows::All(codes.len());
    best_cat_split_classification_at(codes, n_values, node, ys, n_classes, imp)
}

/// One-vs-rest gain loop (Appendix B, Case 3) over per-category class
/// counts: returns the best `(gain, singleton left code)`, ties toward the
/// smaller code. Shared by the exact engine and the merged-stats selector
/// of [`crate::histogram`].
pub(crate) fn best_one_vs_rest(
    per_value: &[ClassCounts],
    total: &ClassCounts,
    imp: Impurity,
) -> Option<(f64, u32)> {
    let total_w = total.weighted_impurity(imp);
    let mut best: Option<(f64, u32)> = None;
    for (code, counts) in per_value.iter().enumerate() {
        if counts.total() == 0 || counts.total() == total.total() {
            continue;
        }
        let rest = total.minus(counts);
        let gain = total_w - counts.weighted_impurity(imp) - rest.weighted_impurity(imp);
        if gain > 0.0
            && best.is_none_or(|(bg, bc)| match gain.total_cmp(&bg) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => (code as u32) < bc,
            })
        {
            best = Some((gain, code as u32));
        }
    }
    best
}

/// Exact best categorical split for regression (Appendix B, Case 2 —
/// Breiman et al.): group rows by category, sort groups by mean `Y`, and the
/// optimal `Sl` is a prefix of that order, found in one pass.
/// [`best_cat_split_regression_at`] over `NodeRows::All`.
pub fn best_cat_split_regression(codes: &[u32], n_values: u32, ys: &[f64]) -> Option<ColumnSplit> {
    best_cat_split_regression_at(codes, n_values, NodeRows::All(codes.len()), ys)
}

/// Breiman prefix scan (Appendix B, Case 2) over per-category regression
/// aggregates: sorts present categories by mean (ties by code), finds the
/// best prefix cut, and returns `(gain, sorted left set, left present
/// count)`. Shared by the exact engine and the merged-stats selector of
/// [`crate::histogram`].
pub(crate) fn best_breiman_prefix(
    per_value: &[RegAgg],
    total: &RegAgg,
) -> Option<(f64, Vec<u32>, u64)> {
    let total_w = total.weighted_impurity();

    // Present categories sorted by mean (ties by code for determinism).
    let mut groups: Vec<(u32, RegAgg)> = per_value
        .iter()
        .enumerate()
        .filter(|(_, a)| a.n > 0)
        .map(|(c, a)| (c as u32, *a))
        .collect();
    if groups.len() < 2 {
        return None;
    }
    groups.sort_unstable_by(|a, b| a.1.mean().total_cmp(&b.1.mean()).then(a.0.cmp(&b.0)));

    let mut left = RegAgg::default();
    let mut right = *total;
    let mut best: Option<(f64, usize)> = None; // (gain, prefix length)
    for (i, (_, agg)) in groups.iter().enumerate().take(groups.len() - 1) {
        left.merge(agg);
        right.remove_agg(agg);
        let gain = total_w - left.weighted_impurity() - right.weighted_impurity();
        if gain > 0.0
            && best.is_none_or(|(bg, bl)| match gain.total_cmp(&bg) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => i + 1 < bl,
            })
        {
            best = Some((gain, i + 1));
        }
    }
    let (gain, prefix) = best?;
    let n_left_present: u64 = groups[..prefix].iter().map(|&(_, a)| a.n).sum();
    let left_set: Vec<u32> = {
        let mut s: Vec<u32> = groups[..prefix].iter().map(|&(c, _)| c).collect();
        s.sort_unstable();
        s
    };
    Some((gain, left_set, n_left_present))
}

impl RegAgg {
    /// Removes a whole previously-merged aggregate (used by the Breiman scan).
    fn remove_agg(&mut self, other: &RegAgg) {
        debug_assert!(self.n >= other.n);
        self.n -= other.n;
        self.sum -= other.sum;
        self.sum_sq -= other.sum_sq;
    }
}

/// Dispatches to the right exact kernel for a gathered column buffer.
///
/// This is the single entry point used both by the distributed column-tasks
/// and by the local subtree trainer, which is what guarantees they find
/// identical splits.
pub fn best_split_for_column(
    values: &ValuesBuf,
    attr_ty: AttrType,
    labels: LabelView<'_>,
    imp: Impurity,
) -> Option<ColumnSplit> {
    match (values, attr_ty) {
        (ValuesBuf::Numeric(v), AttrType::Numeric) => best_numeric_split(v, labels, imp),
        (ValuesBuf::Categorical(c), AttrType::Categorical { n_values }) => match labels {
            LabelView::Class(ys, k) => best_cat_split_classification(c, n_values, ys, k, imp),
            LabelView::Real(ys) => best_cat_split_regression(c, n_values, ys),
        },
        _ => panic!("column buffer kind does not match attribute type"),
    }
}

/// Distinct category codes present in a gathered categorical buffer (the
/// "seen in `Dx` during training" set a split node stores so prediction can
/// detect unseen values; Appendix D).
pub fn distinct_categories(codes: &[u32]) -> Vec<u32> {
    let mut seen: Vec<u32> = codes
        .iter()
        .copied()
        .filter(|&c| c != MISSING_CAT)
        .collect();
    seen.sort_unstable();
    seen.dedup();
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_view(ys: &[u32]) -> LabelView<'_> {
        LabelView::Class(ys, 2)
    }

    #[test]
    fn numeric_split_perfect_separation() {
        let values = [1.0, 2.0, 3.0, 10.0, 11.0, 12.0];
        let ys = [0, 0, 0, 1, 1, 1];
        let s = best_numeric_split(&values, class_view(&ys), Impurity::Gini).unwrap();
        assert_eq!(s.test, SplitTest::NumericLe(6.5));
        assert_eq!(s.n_left(), 3);
        assert_eq!(s.n_right(), 3);
        // Full gini of (3,3) over 6 rows = 6 * 0.5 = 3; children pure.
        assert!((s.gain - 3.0).abs() < 1e-12);
        assert!(s.left.is_pure() && s.right.is_pure());
    }

    #[test]
    fn numeric_split_fig1_age_example() {
        // Fig. 1(b) root: A1 (Age) <= 40 separates {24,28,32,36,37}
        // (labels 0,0,1,0,1) from {44,48,42,54,47} (0,0,0,1,0).
        let ages = [24.0, 28.0, 44.0, 32.0, 36.0, 48.0, 37.0, 42.0, 54.0, 47.0];
        let ys = [0, 0, 0, 1, 0, 0, 1, 0, 1, 0];
        let s = best_numeric_split(&ages, class_view(&ys), Impurity::Gini).unwrap();
        // The exact kernel picks the best boundary; the gain must be
        // positive and children counts must cover all rows.
        assert!(s.gain > 0.0);
        assert_eq!(s.n_left() + s.n_right(), 10);
    }

    #[test]
    fn numeric_split_none_when_constant() {
        let values = [5.0; 4];
        let ys = [0, 1, 0, 1];
        assert!(best_numeric_split(&values, class_view(&ys), Impurity::Gini).is_none());
    }

    #[test]
    fn numeric_split_none_when_pure() {
        let values = [1.0, 2.0, 3.0];
        let ys = [1, 1, 1];
        assert!(best_numeric_split(&values, class_view(&ys), Impurity::Gini).is_none());
    }

    #[test]
    fn numeric_split_single_present_value_is_none() {
        let values = [1.0, f64::NAN, f64::NAN];
        let ys = [0, 1, 0];
        assert!(best_numeric_split(&values, class_view(&ys), Impurity::Gini).is_none());
    }

    #[test]
    fn numeric_split_missing_routed_to_majority_and_counted() {
        let values = [1.0, 2.0, 3.0, 10.0, f64::NAN, f64::NAN];
        let ys = [0, 0, 0, 1, 1, 1];
        let s = best_numeric_split(&values, class_view(&ys), Impurity::Gini).unwrap();
        // Present split is 3 left vs 1 right; missing go left (majority).
        assert!(s.missing_left);
        assert_eq!(s.n_left(), 5);
        assert_eq!(s.n_right(), 1);
    }

    #[test]
    fn numeric_split_regression_variance() {
        let values = [1.0, 2.0, 3.0, 4.0];
        let ys = [10.0, 10.0, 50.0, 50.0];
        let s = best_numeric_split(&values, LabelView::Real(&ys), Impurity::Variance).unwrap();
        assert_eq!(s.test, SplitTest::NumericLe(2.5));
        assert!(s.left.is_pure() && s.right.is_pure());
    }

    #[test]
    fn numeric_adjacent_float_boundary_still_separates() {
        let a = 1.0f64;
        let b = f64::from_bits(a.to_bits() + 1); // next float up
        let values = [a, b];
        let ys = [0u32, 1u32];
        let s = best_numeric_split(&values, class_view(&ys), Impurity::Gini).unwrap();
        if let SplitTest::NumericLe(t) = s.test {
            assert!(a <= t && b > t, "threshold {t} must separate {a} and {b}");
        } else {
            panic!("expected numeric test");
        }
    }

    #[test]
    fn cat_classification_one_vs_rest() {
        // Category 2 is all class 1; others class 0.
        let codes = [0, 1, 2, 2, 0, 1];
        let ys = [0, 0, 1, 1, 0, 0];
        let s = best_cat_split_classification(&codes, 3, &ys, 2, Impurity::Gini).unwrap();
        assert_eq!(s.test, SplitTest::CatIn(vec![2]));
        assert_eq!(s.n_left(), 2);
        assert_eq!(s.n_right(), 4);
        assert!(s.left.is_pure() && s.right.is_pure());
    }

    #[test]
    fn cat_classification_tie_breaks_to_smaller_code() {
        // Codes 0 and 1 are symmetric: either singleton gives the same gain.
        let codes = [0, 0, 1, 1];
        let ys = [0, 0, 1, 1];
        let s = best_cat_split_classification(&codes, 2, &ys, 2, Impurity::Gini).unwrap();
        assert_eq!(s.test, SplitTest::CatIn(vec![0]));
    }

    #[test]
    fn cat_classification_none_when_single_category() {
        let codes = [3, 3, 3];
        let ys = [0, 1, 0];
        assert!(best_cat_split_classification(&codes, 4, &ys, 2, Impurity::Gini).is_none());
    }

    #[test]
    fn cat_regression_breiman_prefix() {
        // Means: code 0 -> 1.0, code 1 -> 100.0, code 2 -> 2.0.
        // Sorted by mean: [0, 2, 1]; best cut isolates code 1.
        let codes = [0, 0, 1, 1, 2, 2];
        let ys = [1.0, 1.0, 100.0, 100.0, 2.0, 2.0];
        let s = best_cat_split_regression(&codes, 3, &ys).unwrap();
        assert_eq!(s.test, SplitTest::CatIn(vec![0, 2]));
        assert_eq!(s.n_left(), 4);
        assert_eq!(s.n_right(), 2);
    }

    #[test]
    fn cat_regression_missing_routed_majority() {
        let codes = [0, 0, 1, MISSING_CAT];
        let ys = [1.0, 1.0, 100.0, 50.0];
        let s = best_cat_split_regression(&codes, 2, &ys).unwrap();
        assert!(s.missing_left);
        assert_eq!(s.n_left(), 3);
    }

    #[test]
    fn breiman_matches_exhaustive_on_small_inputs() {
        // Brute-force all 2^(k-1)-1 proper subsets and confirm Breiman's
        // prefix scan finds a subset with the same (optimal) gain.
        use tsrand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        for _trial in 0..50 {
            let k = rng.gen_range(2..6u32);
            let n = rng.gen_range(4..30usize);
            let codes: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k)).collect();
            let ys: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
            let fast = best_cat_split_regression(&codes, k, &ys);

            // Exhaustive search.
            let mut total = RegAgg::default();
            for &y in &ys {
                total.add(y);
            }
            let total_w = total.weighted_impurity();
            let mut best_gain: Option<f64> = None;
            for mask in 1u32..(1 << k) - 1 {
                let mut l = RegAgg::default();
                let mut r = RegAgg::default();
                for (&c, &y) in codes.iter().zip(&ys) {
                    if mask & (1 << c) != 0 {
                        l.add(y);
                    } else {
                        r.add(y);
                    }
                }
                if l.n == 0 || r.n == 0 {
                    continue;
                }
                let gain = total_w - l.weighted_impurity() - r.weighted_impurity();
                if gain > 0.0 && best_gain.is_none_or(|bg| gain > bg) {
                    best_gain = Some(gain);
                }
            }
            match (fast, best_gain) {
                (Some(f), Some(bg)) => {
                    assert!(
                        (f.gain - bg).abs() < 1e-9 * bg.abs().max(1.0),
                        "breiman gain {} != exhaustive {}",
                        f.gain,
                        bg
                    );
                }
                (None, None) => {}
                (f, bg) => panic!("disagree on existence: fast={f:?} exhaustive={bg:?}"),
            }
        }
    }

    #[test]
    fn dispatch_matches_kernel() {
        let buf = ValuesBuf::Numeric(vec![1.0, 2.0, 3.0, 4.0]);
        let ys = [0u32, 0, 1, 1];
        let via_dispatch =
            best_split_for_column(&buf, AttrType::Numeric, class_view(&ys), Impurity::Gini);
        let direct = best_numeric_split(&[1.0, 2.0, 3.0, 4.0], class_view(&ys), Impurity::Gini);
        assert_eq!(via_dispatch, direct);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn dispatch_kind_mismatch_panics() {
        let buf = ValuesBuf::Numeric(vec![1.0]);
        best_split_for_column(
            &buf,
            AttrType::Categorical { n_values: 2 },
            class_view(&[0]),
            Impurity::Gini,
        );
    }

    #[test]
    fn challenger_order_is_strict() {
        let ys = [0u32, 0, 1, 1];
        let s = best_numeric_split(&[1.0, 2.0, 3.0, 4.0], class_view(&ys), Impurity::Gini).unwrap();
        // Equal gains: smaller attr id wins.
        assert!(ColumnSplit::challenger_wins(&s, 1, &s, 2));
        assert!(!ColumnSplit::challenger_wins(&s, 2, &s, 1));
        assert!(!ColumnSplit::challenger_wins(&s, 2, &s, 2));
    }

    #[test]
    fn distinct_categories_sorted_dedup_no_missing() {
        assert_eq!(
            distinct_categories(&[3, 1, 3, MISSING_CAT, 0]),
            vec![0, 1, 3]
        );
        assert!(distinct_categories(&[MISSING_CAT]).is_empty());
    }
}
