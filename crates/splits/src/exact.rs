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
//!
//! Work follows need (docs/PERF.md, "What a boundary costs"): a boundary
//! costs a gain and a comparison, a column its winner's class counts (and
//! threshold, where its rows are at hand), and a node one pass for the
//! float children of a regression split and one for the rows of a threshold
//! that rank selection found as two positions — [`SplitCandidate::finish`],
//! on the column that won the node's fold.

use crate::condition::SplitTest;
use crate::impurity::{
    class_weighted, BoundaryScan, ClassCounts, EntropyScan, GiniScan, Impurity, LabelAgg,
    LabelView, NodeStats, RegAgg,
};
use crate::sorted::{
    best_cat_split_classification_at, best_cat_split_regression_at, numeric_split, numeric_value,
    route_children, rows_at, with_class_pair, ColumnRef, GatherSorted, NodeRows, Sequence,
};
use ts_datatable::{AttrType, Column, Value, MISSING_CAT};
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

/// A column's best split as [`crate::sorted::best_split_at`] and
/// [`crate::sorted::best_split_in`] return it: what the fold over a node's
/// columns compares, with the children only where choosing the split had
/// them anyway (integer class counts, read off the scan). Regression
/// children are float sums over the node's rows in ascending row order, a
/// pass only the fold's winner needs: [`SplitCandidate::finish`] makes it.
/// So is a numeric threshold that rank selection found as two positions of
/// the column's order: the rows there are one more pass to find.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitCandidate {
    /// The split; its children are empty while `unrouted`, its threshold
    /// NaN while `between` holds the positions it lies between.
    split: ColumnSplit,
    pub(crate) unrouted: bool,
    between: Option<(u32, u32)>,
}

/// Where a numeric split cuts its column: at a threshold, or between two
/// positions of the column's order, whose rows' values make the threshold.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cut {
    At(f64),
    Between(u32, u32),
}

impl SplitCandidate {
    /// A regression split whose children wait for [`SplitCandidate::finish`].
    pub(crate) fn unrouted(test: SplitTest, gain: f64, missing_left: bool) -> Self {
        let empty = || NodeStats::Reg(RegAgg::default());
        let (left, right) = (empty(), empty());
        SplitCandidate {
            split: ColumnSplit {
                test,
                gain,
                missing_left,
                left,
                right,
            },
            unrouted: true,
            between: None,
        }
    }

    /// The candidate of a numeric column, cutting it at `cut`.
    pub(crate) fn cut(mut self, cut: Cut) -> Self {
        match cut {
            Cut::At(threshold) => self.split.test = SplitTest::NumericLe(threshold),
            Cut::Between(p, q) => self.between = Some((p, q)),
        }
        self
    }

    /// The candidate's impurity gain — all a histogram nomination reads.
    pub fn gain(&self) -> f64 {
        self.split.gain
    }

    /// [`ColumnSplit::challenger_wins`] on candidates, so that folding
    /// candidates and finishing the winner picks the split that folding
    /// finished splits picks.
    pub fn challenger_wins(
        challenger: &SplitCandidate,
        challenger_attr: usize,
        incumbent: &SplitCandidate,
        incumbent_attr: usize,
    ) -> bool {
        let (challenger, incumbent) = (&challenger.split, &incumbent.split);
        ColumnSplit::challenger_wins(challenger, challenger_attr, incumbent, incumbent_attr)
    }

    /// The finished split. `col`, `node` and `labels` are the ones the
    /// candidate was found with; they are read only if the threshold or the
    /// children are still to be found.
    pub fn finish(
        mut self,
        col: ColumnRef<'_>,
        node: NodeRows<'_>,
        labels: LabelView<'_>,
    ) -> ColumnSplit {
        match col {
            // The common case, its column kind decided outside the row loop.
            ColumnRef::Numeric { values, index } => {
                if let Some((p, q)) = self.between.take() {
                    let (below, above) = rows_at(index.numeric_rank(), node, p, q);
                    let threshold = boundary_threshold(values[below], values[above]);
                    self.split.test = SplitTest::NumericLe(threshold);
                }
                self.finish_by(node, labels, |row| numeric_value(values[row]))
            }
            ColumnRef::Categorical { .. } => self.finish_by(node, labels, |row| col.value(row)),
        }
    }

    /// [`SplitCandidate::finish`] reading the column through `value`.
    pub(crate) fn finish_by(
        mut self,
        node: NodeRows<'_>,
        labels: LabelView<'_>,
        value: impl Fn(usize) -> Value,
    ) -> ColumnSplit {
        debug_assert!(self.between.is_none(), "a threshold still to be found");
        if self.unrouted {
            let LabelView::Real(ys) = labels else {
                panic!("class-label kernels count their children");
            };
            let (test, missing_left) = (&self.split.test, self.split.missing_left);
            (self.split.left, self.split.right) =
                route_children(node, ys, RegAgg::default(), missing_left, |row| {
                    test.goes_left(value(row))
                });
        }
        self.split
    }
}

impl From<ColumnSplit> for SplitCandidate {
    fn from(split: ColumnSplit) -> Self {
        let (unrouted, between) = (false, None);
        SplitCandidate {
            split,
            unrouted,
            between,
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
    let stats = NodeStats::from_view(labels);
    let sorted = GatherSorted::new(values, node);
    let best = numeric_split(
        Sequence::GatherSort(&sorted),
        values,
        node,
        &stats,
        labels,
        imp,
    )?;
    Some(best.finish_by(node, labels, |row| numeric_value(values[row])))
}

/// Scan core 1 — one boundary scan over a node's present `(position,
/// label)` pairs in `(value, row)` order, with `O(1)` incremental impurity
/// per boundary. A position is a row's place in an order whose step map is
/// `steps` ([`steps_between`]): two neighbours of the node are a boundary iff
/// their values differ, and the map says so without a value. Returns the best
/// `(gain, boundary index)` — the highest finite positive gain, the earliest
/// boundary among equals — or `None`. `node_w` is the node's
/// `impurity * n`, and `scan` arrives with every label of `present` right of
/// the boundary; it is told to `keep` each boundary that becomes the best,
/// so what it kept last is the winner's.
///
/// Thresholds increase strictly along the scan (`boundary_threshold` lies in
/// `[a, b)` and the next boundary starts at or after `b`), so "higher gain,
/// then smaller threshold" is "strictly higher gain than any boundary
/// before": no tie-break, and the caller computes the threshold for the
/// winner alone, from the values of its two rows.
///
/// The scan reads boundaries and accumulates labels in sequence order and
/// nothing else, so any two sources of the same sequence — rank selection, a
/// partitioned segment, a stable sort of the gathered node — produce
/// bit-identical gains (docs/PERF.md). It reads `O(|present| + n / 64)`
/// words of the map: the positions increase, so each word is passed once.
pub(crate) fn scan_boundaries<S: BoundaryScan>(
    present: &[(u32, S::Label)],
    steps: &[u64],
    node_w: f64,
    mut scan: S,
) -> Option<(f64, usize)> {
    if !node_w.is_finite() {
        // No gain would be finite. With a finite `node_w`, a gain above zero
        // is: the sides are never negative infinity.
        return None;
    }
    let (mut best_gain, mut best_i) = (0.0, None);
    for (i, pair) in present.windows(2).enumerate() {
        let ((position, y), (next, _)) = (pair[0], pair[1]);
        scan.shift(y);
        if steps_between(steps, position, next) {
            let (left_w, right_w) = scan.sides();
            let gain = node_w - left_w - right_w;
            if gain > best_gain {
                (best_gain, best_i) = (gain, Some(i));
                scan.keep();
            }
        }
    }
    Some((best_gain, best_i?))
}

/// Whether positions `p < q` of an order hold different values: whether
/// `steps`, the order's step map (bit `j` set iff the value at `j` is below
/// the one at `j + 1`), has a bit of `p..q` set. Bit `p` decides almost every
/// pair of a node's neighbours — always when they are neighbours in the
/// order too, and whenever `p`'s value is not repeated; only the rest look
/// further.
#[inline(always)]
pub(crate) fn steps_between(steps: &[u64], p: u32, q: u32) -> bool {
    debug_assert!(p < q, "positions of a sequence increase");
    steps[(p >> 6) as usize] >> (p & 63) & 1 != 0 || (q - p > 1 && any_step(steps, p + 1, q))
}

/// Whether `steps` has a bit of `from..to` set (`from < to`).
fn any_step(steps: &[u64], from: u32, to: u32) -> bool {
    let (first, last) = ((from >> 6) as usize, ((to - 1) >> 6) as usize);
    let head = steps[first] & (u64::MAX << (from & 63));
    let tail = u64::MAX >> (63 - ((to - 1) & 63));
    if first == last {
        return head & tail != 0;
    }
    head != 0 || steps[first + 1..last].iter().any(|&w| w != 0) || steps[last] & tail != 0
}

/// [`scan_boundaries`] over class labels: the best `(gain, boundary index)`
/// and the class counts of the present rows on each side of it, `(left,
/// right)`. `node` counts the labels of `present` — handed in, not counted
/// here: the caller has the node's totals from whoever created the node. The
/// left counts are the ones the scan held at the winning boundary and the
/// right ones the rest of `node`; counts are integers, so both equal a
/// recount of the children's rows in any order.
pub(crate) fn scan_class(
    present: &[(u32, u32)],
    steps: &[u64],
    node: &ClassCounts,
    imp: Impurity,
) -> Option<(f64, usize, ClassCounts, ClassCounts)> {
    debug_assert!(
        {
            let mut recount = node.empty_like();
            present.iter().for_each(|&(_, y)| recount.add(y));
            recount == *node
        },
        "the totals handed to the scan must count the node's present rows"
    );
    with_class_pair(node.n_classes() as u32, |left, best| {
        let node_w = node.weighted_impurity(imp);
        let (gain, boundary) = match imp {
            Impurity::Gini => {
                scan_boundaries(present, steps, node_w, GiniScan::new(left, best, node))
            }
            Impurity::Entropy => {
                scan_boundaries(present, steps, node_w, EntropyScan { left, best, node })
            }
            Impurity::Variance => unreachable!("`weighted_impurity` refuses class labels"),
        }?;
        Some((gain, boundary, best.clone(), node.minus(best)))
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

/// Assembles a split from a histogram: the left child's present rows are
/// the sum of `left_slots`, the right child's the rest of `total`, and the
/// `missing` slot joins the larger side ([`split_from_children`]). How every
/// kernel that chose its split on a histogram gets its children — the class
/// kernels of the engine, whose counts are integers and so equal a recount of
/// the child's rows in any order, and the merged statistics of
/// [`crate::histogram`] for both label types.
pub(crate) fn split_from_slots<'a, A: LabelAgg>(
    test: SplitTest,
    gain: f64,
    left_slots: impl Iterator<Item = &'a A::Slot>,
    total: &A,
    missing: &A::Slot,
) -> ColumnSplit
where
    A::Slot: 'a,
{
    let mut left = total.empty_like();
    left_slots.for_each(|slot| left.merge_slot(slot));
    let right = total.minus(&left);
    let mut missing_rows = total.empty_like();
    missing_rows.merge_slot(missing);
    split_from_children(test, gain, left, right, &missing_rows)
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
/// counts, one `[u64]` slot per category: returns the best `(gain, singleton
/// left code)`, ties toward the smaller code. `total` is the sum of the
/// slots. Reads the slots and allocates nothing. Shared by the exact engine
/// (strides of its flat histogram) and the merged-stats selector of
/// [`crate::histogram`] ([`ClassCounts::counts`]).
pub(crate) fn best_one_vs_rest<'a>(
    per_value: impl Iterator<Item = &'a [u64]>,
    total: &ClassCounts,
    imp: Impurity,
) -> Option<(f64, u32)> {
    let total_w = total.weighted_impurity(imp);
    let mut best: Option<(f64, u32)> = None;
    for (code, counts) in per_value.enumerate() {
        let n: u64 = counts.iter().sum();
        if n == 0 || n == total.total() {
            continue;
        }
        let gain = total_w
            - class_weighted(imp, n, counts.iter().copied())
            - total.weighted_impurity_minus(counts, imp);
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

/// Dispatches to the right exact kernel for a column gathered over a node.
///
/// This is the single entry point used both by the distributed column-tasks
/// and by the local subtree trainer, which is what guarantees they find
/// identical splits.
pub fn best_split_for_column(
    values: &Column,
    attr_ty: AttrType,
    labels: LabelView<'_>,
    imp: Impurity,
) -> Option<ColumnSplit> {
    match (values, attr_ty) {
        (Column::Numeric(v), AttrType::Numeric) => best_numeric_split(v, labels, imp),
        (Column::Categorical(c), AttrType::Categorical { n_values }) => match labels {
            LabelView::Class(ys, k) => best_cat_split_classification(c, n_values, ys, k, imp),
            LabelView::Real(ys) => best_cat_split_regression(c, n_values, ys),
        },
        _ => panic!("column kind does not match attribute type"),
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
    use crate::impurity::two_sided::{BoundarySide, GiniCounts};
    use crate::impurity::VarianceScan;

    fn class_view(ys: &[u32]) -> LabelView<'_> {
        LabelView::Class(ys, 2)
    }

    /// The class counts of a run of the scan buffer.
    fn count_of(side: &[(f64, u32)], n_classes: u32) -> ClassCounts {
        let mut c = ClassCounts::new(n_classes);
        side.iter().for_each(|&(_, y)| c.add(y));
        c
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

    /// Strict within-column order: higher gain, then smaller threshold. The
    /// scan itself keeps the first of equal gains and never looks at a
    /// threshold; the oracle keeps this, so that agreeing with it shows the
    /// threshold arm decides nothing.
    fn challenger_gain_wins(gain: f64, thr: f64, best: &Option<(f64, f64, usize)>) -> bool {
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

    /// The boundary scan as commits up to 1ca5a9f ran it, kept as the oracle
    /// of the core that replaced it: both sides maintained, a threshold and
    /// a tie-break at every boundary, `(value, row)` pairs with every label
    /// fetched through its row id. Over [`FloatCounts`] it is the scan of
    /// ab733cd (class impurity recomputed over all classes in `f64` at every
    /// boundary), over [`GiniCounts`] that of 1ca5a9f.
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

    /// A value-keyed scan buffer as the engine numbers it: each pair's place
    /// in the buffer is its position, and the step map is that of the
    /// pairs' values.
    fn by_position<L: Copy>(pairs: &[(f64, L)]) -> (Vec<(u32, L)>, Vec<u64>) {
        let present = (0..).zip(pairs).map(|(p, &(_, y))| (p, y)).collect();
        let mut steps = vec![0u64; pairs.len().div_ceil(64)];
        for (j, pair) in pairs.windows(2).enumerate() {
            steps[j / 64] |= u64::from(pair[0].0 < pair[1].0) << (j % 64);
        }
        (present, steps)
    }

    /// [`scan_class`] over value-keyed pairs in `(value, row)` order, the
    /// winner's threshold read off their values as `numeric_split` reads it
    /// off the winner's rows.
    fn scan_class_by_value(
        pairs: &[(f64, u32)],
        node: &ClassCounts,
        imp: Impurity,
    ) -> Option<(f64, f64, ClassCounts, ClassCounts)> {
        let (present, steps) = by_position(pairs);
        let (gain, i, left, right) = scan_class(&present, &steps, node, imp)?;
        Some((
            gain,
            boundary_threshold(pairs[i].0, pairs[i + 1].0),
            left,
            right,
        ))
    }

    /// The boundary scan under variance, as `numeric_split` runs it.
    fn variance_scan(pairs: &[(f64, f64)]) -> Option<(f64, f64, usize)> {
        let mut targets = RegAgg::default();
        pairs.iter().for_each(|&(_, y)| targets.add(y));
        let node_w = targets.weighted_impurity();
        let (present, steps) = by_position(pairs);
        let (gain, i) = scan_boundaries(&present, &steps, node_w, VarianceScan::new(targets))?;
        Some((gain, boundary_threshold(pairs[i].0, pairs[i + 1].0), i))
    }

    /// `steps_between` is "a bit of `p..q` is set", for every pair of
    /// positions of three words: bit `p` alone, runs of clear bits inside a
    /// word and across one or two word edges, and an empty map.
    #[test]
    fn steps_between_is_any_bit_of_the_range() {
        let maps: [[u64; 3]; 5] = [
            [0, 0, 0],
            [u64::MAX; 3],
            [1 << 63, 0, 1],
            [0x8000_0000_0000_0001, 0, 1 << 40],
            [
                0x0123_4567_89ab_cdef,
                0xfedc_ba98_7654_3210,
                0x0f0f_0f0f_0f0f_0f0f,
            ],
        ];
        for steps in &maps {
            let bit = |j: u32| steps[(j / 64) as usize] >> (j % 64) & 1 == 1;
            for p in 0..192 {
                for q in p + 1..192 {
                    let want = (p..q).any(bit);
                    assert_eq!(steps_between(steps, p, q), want, "{steps:x?} {p}..{q}");
                }
            }
        }
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
                    let count = |side: &[(f64, u32)]| count_of(side, K);
                    let (gain, thr, left, right) =
                        scan_class_by_value(&labelled, &count(&labelled), imp).unwrap();
                    let boundary = left.total() as usize - 1;
                    prop_assert_eq!(bits(Some((gain, thr, boundary))), bits(want), "{:?}", imp);
                    let (below, above) = labelled.split_at(boundary + 1);
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
                let got = variance_scan(&labelled);
                prop_assert_eq!(bits(got), bits(want));
            }
        }

        proptest! {
            /// Small nodes of 2 to 9 classes, where boundaries of exactly
            /// equal gain are common: the one-sided scans pick the boundary,
            /// threshold and gain bits of the two-sided integer scan and of
            /// the float scan — whose tie-break looks at thresholds — and
            /// hand back the children's counts; `None` where they say `None`.
            #[test]
            fn one_sided_scans_have_the_bits_of_the_two_sided_scan(
                (k, values, ys) in (2u32..=9, 0usize..24).prop_flat_map(|(k, n)| {
                    (Just(k), awkward_values(n), tscheck::collection::vec(0..k, n))
                })
            ) {
                let present = presorted(&values);
                let labelled: Vec<(f64, u32)> =
                    present.iter().map(|&(v, r)| (v, ys[r as usize])).collect();
                let count = |side: &[(f64, u32)]| count_of(side, k);
                let (mut l, mut r) = (ClassCounts::new(k), ClassCounts::new(k));
                let two_sided = float_scan_oracle(
                    &present,
                    &ys,
                    &mut GiniCounts::new(&mut l),
                    &mut GiniCounts::new(&mut r),
                );
                for imp in [Impurity::Gini, Impurity::Entropy] {
                    let floats = |imp| FloatCounts(vec![0; k as usize], imp);
                    let want = float_scan_oracle(&present, &ys, &mut floats(imp), &mut floats(imp));
                    if imp == Impurity::Gini {
                        prop_assert_eq!(bits(two_sided), bits(want));
                    }
                    let got = scan_class_by_value(&labelled, &count(&labelled), imp);
                    let found = got.as_ref().map(|(gain, thr, left, _)| {
                        (*gain, *thr, left.total() as usize - 1)
                    });
                    prop_assert_eq!(bits(found), bits(want), "{:?}", imp);
                    if let Some((_, _, left, right)) = got {
                        let (below, above) = labelled.split_at(left.total() as usize);
                        prop_assert_eq!(left, count(below));
                        prop_assert_eq!(right, count(above));
                    }
                }
            }
        }
    }

    #[test]
    fn dispatch_matches_kernel() {
        let buf = Column::Numeric(vec![1.0, 2.0, 3.0, 4.0]);
        let ys = [0u32, 0, 1, 1];
        let via_dispatch =
            best_split_for_column(&buf, AttrType::Numeric, class_view(&ys), Impurity::Gini);
        let direct = best_numeric_split(&[1.0, 2.0, 3.0, 4.0], class_view(&ys), Impurity::Gini);
        assert_eq!(via_dispatch, direct);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn dispatch_kind_mismatch_panics() {
        let buf = Column::Numeric(vec![1.0]);
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
    fn equal_gains_go_to_the_earliest_boundary() {
        // Labels 0 1 0 1 over four distinct values: the first and the last
        // boundary each cut off one pure row, (2 - 0) - (3 - 5/3) against
        // (2 - (3 - 5/3)) - 0 — the same bits — and the middle one gains 0.
        let present = [(1.0, 0u32), (2.0, 1), (3.0, 0), (4.0, 1)];
        for imp in [Impurity::Gini, Impurity::Entropy] {
            let (gain, thr, left, right) =
                scan_class_by_value(&present, &count_of(&present, 2), imp).unwrap();
            assert!(gain > 0.0);
            assert_eq!(
                (thr, left.counts(), right.counts()),
                (1.5, &[1, 0][..], &[1, 2][..])
            );
        }
        let reals = [(1.0, 0.0), (2.0, 1.0), (3.0, 0.0), (4.0, 1.0)];
        let (_, thr, boundary) = variance_scan(&reals).unwrap();
        assert_eq!((thr, boundary), (1.5, 0));
    }

    /// Targets whose sums of squares overflow, or that are not numbers at
    /// all: the scan refuses non-finite gains once, on the node's impurity,
    /// where the two-sided scan tested every boundary — with the same result.
    #[test]
    fn targets_that_overflow_split_as_the_two_sided_scan_splits_them() {
        let (inf, nan, big) = (f64::INFINITY, f64::NAN, 1e200);
        for ys in [
            // Node impurity and every gain +inf: squares overflow, sums cancel.
            [big, -big, big, -big, 1.0],
            [big, -big, big, 3.0, 1.0],
            [1.0, 2.0, 3.0, big, big],
            [1.0, 2.0, 50.0, 60.0, 1e154],
            [inf, 1.0, 2.0, 3.0, 4.0],
            [1.0, 2.0, -inf, 3.0, inf],
            [1.0, nan, 2.0, 30.0, 40.0],
            [1e308, 1e308, -1e308, 5.0, 6.0],
        ] {
            let present: Vec<(f64, u32)> = (0..ys.len()).map(|r| (r as f64, r as u32)).collect();
            let (mut l, mut r) = (RegAgg::default(), RegAgg::default());
            let want = float_scan_oracle(&present, &ys, &mut l, &mut r);
            let labelled: Vec<(f64, f64)> =
                ys.iter().enumerate().map(|(r, &y)| (r as f64, y)).collect();
            let got = variance_scan(&labelled);
            assert_eq!(bits(got), bits(want), "{ys:?}");
        }
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
