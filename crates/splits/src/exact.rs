//! Exact best-split kernels (paper Appendix B): the boundary-scan core, the
//! categorical selectors, and the *gathered* entry points.
//!
//! Each gathered kernel takes one column's values *gathered over the node's
//! rows* (aligned with the equally-gathered labels) and returns the best
//! exact split-condition of that column, or `None` when no condition
//! strictly reduces impurity. They are the `NodeRows::All` case of the
//! kernels in [`crate::sorted`] that every trainer calls — the numeric one
//! sorting its gathered node where the trainers read a presorted index —
//! and remain as the reference of the oracle suites and the kernel bench.
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
use crate::impurity::{
    BoundarySide, ClassCounts, EntropyCounts, GiniCounts, Impurity, LabelAgg, LabelView, NodeStats,
    RegAgg,
};
use crate::sorted::{
    best_cat_split_classification_at, best_cat_split_regression_at, numeric_split, with_class_pair,
    NodeRows, Sequence,
};
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
/// The gather-and-sort source of the engine's one numeric kernel
/// (`sorted::numeric_split`) over `NodeRows::All`. No trainer calls it; it is
/// public as the reference the oracle suites and the benches compare the
/// presorted engine against.
pub fn best_numeric_split(
    values: &[f64],
    labels: LabelView<'_>,
    imp: Impurity,
) -> Option<ColumnSplit> {
    let node = NodeRows::All(values.len());
    numeric_split(Sequence::GatherSort, values, node, labels, imp)
}

/// Scan core 1 — one boundary scan over a node's present `(value, label)`
/// pairs in `(value, row)` order, with `O(1)` incremental impurity per
/// boundary. Returns the best `(gain, threshold, boundary index)` under the
/// strict within-column order, or `None`; `on_best` sees the left side each
/// time a boundary takes the lead, so the last call holds the side at the
/// returned boundary.
///
/// `left` and `right` arrive empty; on return `left` holds every present row
/// but the last and `right` the last. The scan compares values and
/// accumulates labels in sequence order and nothing else, so any two sources
/// of the same sequence — rank selection, a partitioned segment, a stable
/// sort of the gathered node — produce bit-identical gains (docs/PERF.md).
pub(crate) fn scan_boundaries<S: BoundarySide>(
    present: &[(f64, S::Label)],
    left: &mut S,
    right: &mut S,
    mut on_best: impl FnMut(&S),
) -> Option<(f64, f64, usize)> {
    if present.len() < 2 {
        return None;
    }
    for &(_, y) in present {
        right.add(y);
    }
    let total_w = right.weighted_impurity();
    let mut best: Option<(f64, f64, usize)> = None; // (gain, threshold, boundary idx)
    for (i, pair) in present.windows(2).enumerate() {
        let ((value, y), (next, _)) = (pair[0], pair[1]);
        left.add(y);
        right.remove(y);
        if value < next {
            let gain = total_w - left.weighted_impurity() - right.weighted_impurity();
            let thr = boundary_threshold(value, next);
            if challenger_gain_wins(gain, thr, &best) {
                best = Some((gain, thr, i));
                on_best(left);
            }
        }
    }
    best
}

/// [`scan_boundaries`] over class labels: the best `(gain, threshold)` and
/// the class counts of the present rows on each side of it, `(left, right)`.
/// Counts are integers, so reading them off the scan at the winning boundary
/// equals re-counting the children's rows in any order.
pub(crate) fn scan_class(
    present: &[(f64, u32)],
    n_classes: u32,
    imp: Impurity,
) -> Option<(f64, f64, ClassCounts, ClassCounts)> {
    with_class_pair(n_classes, |below, above| {
        let mut left: Option<ClassCounts> = None;
        let mut keep = |side: &ClassCounts| match &mut left {
            Some(kept) => kept.copy_from(side),
            None => left = Some(side.clone()),
        };
        let (gain, thr, _) = match imp {
            Impurity::Gini => {
                let (mut below, mut above) = (GiniCounts::new(below), GiniCounts::new(above));
                scan_boundaries(present, &mut below, &mut above, |side| keep(side.counts()))
            }
            Impurity::Entropy => {
                let (mut below, mut above) = (EntropyCounts(below), EntropyCounts(above));
                scan_boundaries(present, &mut below, &mut above, |side| keep(side.0))
            }
            Impurity::Variance => panic!("variance impurity applied to class labels"),
        }?;
        let left = left.expect("the scan kept the side of its best boundary");
        below.merge(above);
        let right = below.minus(&left);
        Some((gain, thr, left, right))
    })
}

/// Assembles a split from its children's present rows: the `missing` rows
/// join the larger present side (the left on a tie) and are counted in it.
pub(crate) fn split_from_children<A: LabelAgg>(
    test: SplitTest,
    gain: f64,
    mut left: A,
    mut right: A,
    missing: &A,
) -> ColumnSplit {
    let missing_left = left.n() >= right.n();
    if missing.n() > 0 {
        if missing_left {
            left.merge(missing);
        } else {
            right.merge(missing);
        }
    }
    ColumnSplit {
        test,
        gain,
        missing_left,
        left: left.into(),
        right: right.into(),
    }
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
/// smaller code. `rest` is scratch sized for the same classes. Shared by the
/// exact engine and the merged-stats selector of [`crate::histogram`].
pub(crate) fn best_one_vs_rest(
    per_value: &[ClassCounts],
    total: &ClassCounts,
    rest: &mut ClassCounts,
    imp: Impurity,
) -> Option<(f64, u32)> {
    let total_w = total.weighted_impurity(imp);
    let mut best: Option<(f64, u32)> = None;
    for (code, counts) in per_value.iter().enumerate() {
        if counts.total() == 0 || counts.total() == total.total() {
            continue;
        }
        rest.set_minus(total, counts);
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

    /// Class counts scored the way `ClassCounts::weighted_impurity` scored
    /// them up to commit ab733cd: in `f64`, over every class, per call.
    struct FloatCounts(Vec<u64>, Impurity);

    impl BoundarySide for FloatCounts {
        type Label = u32;
        fn add(&mut self, y: u32) {
            self.0[y as usize] += 1;
        }
        fn remove(&mut self, y: u32) {
            self.0[y as usize] -= 1;
        }
        fn weighted_impurity(&self) -> f64 {
            let total: u64 = self.0.iter().sum();
            let n = total as f64;
            if total == 0 {
                return 0.0;
            }
            match self.1 {
                Impurity::Gini => {
                    let ssq: f64 = self.0.iter().map(|&c| (c as f64) * (c as f64)).sum();
                    n - ssq / n
                }
                Impurity::Entropy => {
                    let sum_clogc: f64 = self
                        .0
                        .iter()
                        .filter(|&&c| c > 0)
                        .map(|&c| (c as f64) * (c as f64).log2())
                        .sum();
                    n * n.log2() - sum_clogc
                }
                Impurity::Variance => unreachable!(),
            }
        }
    }

    /// The boundary scan as commit ab733cd ran it, kept as the oracle of the
    /// core that replaced it: `(value, row)` pairs, every label fetched
    /// through its row id, class impurity recomputed over all classes in
    /// `f64` at every boundary.
    fn float_scan_oracle<S: BoundarySide>(
        present: &[(f64, u32)],
        ys: &[S::Label],
        left: &mut S,
        right: &mut S,
    ) -> Option<(f64, f64, usize)> {
        if present.len() < 2 {
            return None;
        }
        for &(_, p) in present {
            right.add(ys[p as usize]);
        }
        let total_w = right.weighted_impurity();
        let mut best: Option<(f64, f64, usize)> = None;
        for i in 0..present.len() - 1 {
            left.add(ys[present[i].1 as usize]);
            right.remove(ys[present[i].1 as usize]);
            if present[i].0 < present[i + 1].0 {
                let gain = total_w - left.weighted_impurity() - right.weighted_impurity();
                let thr = boundary_threshold(present[i].0, present[i + 1].0);
                if challenger_gain_wins(gain, thr, &best) {
                    best = Some((gain, thr, i));
                }
            }
        }
        best
    }

    fn bits(best: Option<(f64, f64, usize)>) -> Option<(u64, u64, usize)> {
        best.map(|(gain, thr, boundary)| (gain.to_bits(), thr.to_bits(), boundary))
    }

    mod against_the_float_scan {
        use super::*;
        use tscheck::prelude::*;

        const K: u32 = 5;

        /// Continuous values, a coarse grid for long tie runs, both zeros,
        /// both infinities and missing values.
        fn awkward_values(n: usize) -> impl Strategy<Value = Vec<f64>> {
            tscheck::collection::vec(
                prop_oneof![
                    8 => -40.0..40.0f64,
                    6 => (-20..20i32).prop_map(|q| f64::from(q) / 4.0),
                    2 => Just(f64::NAN),
                    1 => Just(f64::INFINITY),
                    1 => Just(f64::NEG_INFINITY),
                    1 => Just(0.0f64),
                    1 => Just(-0.0f64),
                ],
                n,
            )
        }

        /// The column's present rows in `(value, row)` order.
        fn presorted(values: &[f64]) -> Vec<(f64, u32)> {
            let mut present: Vec<(f64, u32)> = values
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.is_nan())
                .map(|(r, &v)| (v, r as u32))
                .collect();
            present.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            present
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

            /// Gini on running integer sums of squares and entropy both pick
            /// the boundary, threshold and gain bits of the float scan, and
            /// the counts handed back are the children's.
            #[test]
            fn class_scan_has_the_bits_of_the_float_scan(
                (values, noise) in (5_000usize..6_000).prop_flat_map(|n| {
                    (awkward_values(n), tscheck::collection::vec(0u32..K, n))
                })
            ) {
                let ys: Vec<u32> = values
                    .iter()
                    .zip(&noise)
                    .map(|(&v, &y)| (y + u32::from(v > 2.5) + u32::from(v > -11.0)) % K)
                    .collect();
                let present = presorted(&values);
                let labelled: Vec<(f64, u32)> =
                    present.iter().map(|&(v, r)| (v, ys[r as usize])).collect();
                for imp in [Impurity::Gini, Impurity::Entropy] {
                    let k = K as usize;
                    let (mut l, mut r) =
                        (FloatCounts(vec![0; k], imp), FloatCounts(vec![0; k], imp));
                    let want = float_scan_oracle(&present, &ys, &mut l, &mut r);
                    prop_assert!(want.is_some());
                    let (gain, thr, left, right) = scan_class(&labelled, K, imp).unwrap();
                    let boundary = left.total() as usize - 1;
                    prop_assert_eq!(bits(Some((gain, thr, boundary))), bits(want), "{:?}", imp);
                    let (below, above) = labelled.split_at(boundary + 1);
                    let count = |side: &[(f64, u32)]| {
                        let mut c = ClassCounts::new(K);
                        side.iter().for_each(|&(_, y)| c.add(y));
                        c
                    };
                    prop_assert_eq!(left, count(below));
                    prop_assert_eq!(right, count(above));
                }
            }

            /// Variance: same float operations in the same order, labels read
            /// from the buffer instead of through the row id.
            #[test]
            fn real_scan_has_the_bits_of_the_float_scan(
                (values, noise) in (5_000usize..6_000).prop_flat_map(|n| {
                    (awkward_values(n), tscheck::collection::vec(-10.0..10.0f64, n))
                })
            ) {
                let ys: Vec<f64> = values
                    .iter()
                    .zip(&noise)
                    .map(|(&v, &y)| if v > 2.5 { y + 6.0 } else { y })
                    .collect();
                let present = presorted(&values);
                let labelled: Vec<(f64, f64)> =
                    present.iter().map(|&(v, r)| (v, ys[r as usize])).collect();
                let (mut l, mut r) = (RegAgg::default(), RegAgg::default());
                let want = float_scan_oracle(&present, &ys, &mut l, &mut r);
                prop_assert!(want.is_some());
                let (mut l, mut r) = (RegAgg::default(), RegAgg::default());
                let got = scan_boundaries(&labelled, &mut l, &mut r, |_| {});
                prop_assert_eq!(bits(got), bits(want));
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
