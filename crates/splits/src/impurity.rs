//! Impurity functions and incremental label aggregates.
//!
//! The paper evaluates node splits with Gini index or entropy for
//! classification and variance for regression (§II). The aggregates here
//! support `O(1)` add/remove of one label so the sorted-scan kernels find the
//! best threshold in one pass (Appendix B, Case 1).

use ts_datatable::Labels;
use tsjson::{Deserialize, Serialize};

/// The impurity function used to score node splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Impurity {
    /// Gini index `1 - sum_i p_i^2` (classification).
    Gini,
    /// Shannon entropy `-sum_i p_i log2 p_i` (classification).
    Entropy,
    /// Variance of `Y` (regression).
    Variance,
}

/// A borrowed view over the labels of a row set, in gathered order.
#[derive(Debug, Clone, Copy)]
pub enum LabelView<'a> {
    /// Class labels with the total class count of the task.
    Class(&'a [u32], u32),
    /// Real-valued targets.
    Real(&'a [f64]),
}

impl<'a> LabelView<'a> {
    /// Builds a view over a full [`Labels`] column.
    ///
    /// `n_classes` is required for classification (ignored for regression).
    pub fn of(labels: &'a Labels, n_classes: u32) -> Self {
        match labels {
            Labels::Class(v) => LabelView::Class(v, n_classes),
            Labels::Real(v) => LabelView::Real(v),
        }
    }

    /// Number of labels in the view.
    pub fn len(&self) -> usize {
        match self {
            LabelView::Class(v, _) => v.len(),
            LabelView::Real(v) => v.len(),
        }
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An incremental label aggregate over a row set — the one parameter the
/// scan cores of this crate are generic over ([`ClassCounts`] for
/// classification, [`RegAgg`] for regression). Every kernel is written once
/// against this trait and monomorphised per label type.
pub trait LabelAgg: Clone + Into<NodeStats> {
    /// One row's label.
    type Label: Copy;

    /// Adds one label.
    fn add(&mut self, y: Self::Label);
    /// Removes one label previously added.
    fn remove(&mut self, y: Self::Label);
    /// Merges another aggregate into this one.
    fn merge(&mut self, other: &Self);
    /// Returns `self - other` for an `other` contained in `self`.
    fn minus(&self, other: &Self) -> Self;
    /// An empty aggregate of the same shape (class count).
    fn empty_like(&self) -> Self;
    /// Rows aggregated.
    fn n(&self) -> u64;
    /// `impurity * n` under `kind` (regression ignores `kind`: always variance).
    fn weighted_impurity(&self, kind: Impurity) -> f64;
    /// Bytes this aggregate occupies in a modeled histogram transfer.
    fn wire_bytes(&self) -> usize;
}

impl LabelAgg for ClassCounts {
    type Label = u32;

    fn add(&mut self, y: u32) {
        ClassCounts::add(self, y);
    }
    fn remove(&mut self, y: u32) {
        ClassCounts::remove(self, y);
    }
    fn merge(&mut self, other: &Self) {
        ClassCounts::merge(self, other);
    }
    fn minus(&self, other: &Self) -> Self {
        ClassCounts::minus(self, other)
    }
    fn empty_like(&self) -> Self {
        ClassCounts::new(self.counts.len() as u32)
    }
    fn n(&self) -> u64 {
        self.total
    }
    fn weighted_impurity(&self, kind: Impurity) -> f64 {
        ClassCounts::weighted_impurity(self, kind)
    }
    fn wire_bytes(&self) -> usize {
        self.counts.len() * 8
    }
}

impl LabelAgg for RegAgg {
    type Label = f64;

    fn add(&mut self, y: f64) {
        RegAgg::add(self, y);
    }
    fn remove(&mut self, y: f64) {
        RegAgg::remove(self, y);
    }
    fn merge(&mut self, other: &Self) {
        RegAgg::merge(self, other);
    }
    fn minus(&self, other: &Self) -> Self {
        RegAgg {
            n: self.n - other.n,
            sum: self.sum - other.sum,
            sum_sq: self.sum_sq - other.sum_sq,
        }
    }
    fn empty_like(&self) -> Self {
        RegAgg::default()
    }
    fn n(&self) -> u64 {
        self.n
    }
    fn weighted_impurity(&self, _kind: Impurity) -> f64 {
        RegAgg::weighted_impurity(self)
    }
    fn wire_bytes(&self) -> usize {
        24
    }
}

impl From<ClassCounts> for NodeStats {
    fn from(c: ClassCounts) -> Self {
        NodeStats::Class(c)
    }
}

impl From<RegAgg> for NodeStats {
    fn from(a: RegAgg) -> Self {
        NodeStats::Reg(a)
    }
}

/// Incremental class-count aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassCounts {
    counts: Vec<u64>,
    total: u64,
}

impl ClassCounts {
    /// Empty counts for `n_classes` classes.
    pub fn new(n_classes: u32) -> Self {
        ClassCounts {
            counts: vec![0; n_classes as usize],
            total: 0,
        }
    }

    /// Adds one label.
    pub fn add(&mut self, y: u32) {
        self.counts[y as usize] += 1;
        self.total += 1;
    }

    /// Removes one label previously added.
    pub fn remove(&mut self, y: u32) {
        debug_assert!(self.counts[y as usize] > 0);
        self.counts[y as usize] -= 1;
        self.total -= 1;
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &ClassCounts) {
        debug_assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Returns `self - other` elementwise.
    ///
    /// # Panics
    /// Debug-asserts that `other` is contained in `self`.
    pub fn minus(&self, other: &ClassCounts) -> ClassCounts {
        debug_assert_eq!(self.counts.len(), other.counts.len());
        let counts: Vec<u64> = self
            .counts
            .iter()
            .zip(&other.counts)
            .map(|(&a, &b)| {
                debug_assert!(a >= b);
                a - b
            })
            .collect();
        ClassCounts {
            counts,
            total: self.total - other.total,
        }
    }

    /// Resets to the empty state, keeping the allocation (scratch-pool reuse).
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Number of classes this aggregate was sized for.
    pub fn n_classes(&self) -> usize {
        self.counts.len()
    }

    /// Total rows counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-class counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// `impurity * n` — the weighted impurity contribution of this row set.
    ///
    /// Working with the weighted form avoids divisions in the scan loop and
    /// makes gains from different columns directly comparable.
    pub fn weighted_impurity(&self, kind: Impurity) -> f64 {
        let n = self.total as f64;
        if self.total == 0 {
            return 0.0;
        }
        match kind {
            Impurity::Gini => {
                // n * (1 - sum p_i^2) = n - (sum c_i^2)/n
                let ssq: f64 = self.counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
                n - ssq / n
            }
            Impurity::Entropy => {
                // n * (-sum p log2 p) = n log2 n - sum c log2 c
                let sum_clogc: f64 = self
                    .counts
                    .iter()
                    .filter(|&&c| c > 0)
                    .map(|&c| (c as f64) * (c as f64).log2())
                    .sum();
                n * n.log2() - sum_clogc
            }
            Impurity::Variance => panic!("variance impurity applied to class labels"),
        }
    }

    /// Whether all rows share one label (or the set is empty).
    pub fn is_pure(&self) -> bool {
        self.counts.iter().filter(|&&c| c > 0).count() <= 1
    }

    /// The majority label (ties broken toward the smallest label id) and the
    /// probability mass function over classes.
    pub fn prediction(&self) -> (u32, Vec<f32>) {
        let n = self.total.max(1) as f32;
        let pmf: Vec<f32> = self.counts.iter().map(|&c| c as f32 / n).collect();
        let label = self
            .counts
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
            .map(|(i, _)| i as u32)
            .unwrap_or(0);
        (label, pmf)
    }
}

/// Incremental regression aggregate: count, sum and sum of squares.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RegAgg {
    /// Row count.
    pub n: u64,
    /// Sum of targets.
    pub sum: f64,
    /// Sum of squared targets.
    pub sum_sq: f64,
}

impl RegAgg {
    /// Adds one target value.
    pub fn add(&mut self, y: f64) {
        self.n += 1;
        self.sum += y;
        self.sum_sq += y * y;
    }

    /// Removes one previously-added target value.
    pub fn remove(&mut self, y: f64) {
        debug_assert!(self.n > 0);
        self.n -= 1;
        self.sum -= y;
        self.sum_sq -= y * y;
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &RegAgg) {
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    /// Mean target (0 for an empty set).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// `variance * n`, clamped at 0 against floating-point cancellation.
    pub fn weighted_impurity(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        (self.sum_sq - self.sum * self.sum / self.n as f64).max(0.0)
    }
}

/// Label statistics of one node's row set `Dx`: the aggregate needed to
/// compute impurity, detect purity, and produce the node's prediction
/// (which TreeServer stores at *every* node, Appendix D).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeStats {
    /// Classification aggregate.
    Class(ClassCounts),
    /// Regression aggregate.
    Reg(RegAgg),
}

impl NodeStats {
    /// Builds stats over every label in the view.
    pub fn from_view(view: LabelView<'_>) -> Self {
        match view {
            LabelView::Class(ys, k) => {
                let mut c = ClassCounts::new(k);
                for &y in ys {
                    c.add(y);
                }
                NodeStats::Class(c)
            }
            LabelView::Real(ys) => {
                let mut a = RegAgg::default();
                for &y in ys {
                    a.add(y);
                }
                NodeStats::Reg(a)
            }
        }
    }

    /// Builds stats over a subset of positions in the view.
    pub fn from_view_positions(view: LabelView<'_>, pos: impl Iterator<Item = usize>) -> Self {
        match view {
            LabelView::Class(ys, k) => {
                let mut c = ClassCounts::new(k);
                for p in pos {
                    c.add(ys[p]);
                }
                NodeStats::Class(c)
            }
            LabelView::Real(ys) => {
                let mut a = RegAgg::default();
                for p in pos {
                    a.add(ys[p]);
                }
                NodeStats::Reg(a)
            }
        }
    }

    /// Number of rows aggregated.
    pub fn n(&self) -> u64 {
        match self {
            NodeStats::Class(c) => c.total(),
            NodeStats::Reg(a) => a.n,
        }
    }

    /// `impurity * n` under the given impurity function.
    pub fn weighted_impurity(&self, kind: Impurity) -> f64 {
        match self {
            NodeStats::Class(c) => c.weighted_impurity(kind),
            NodeStats::Reg(a) => a.weighted_impurity(),
        }
    }

    /// Whether splitting is pointless: all labels identical (classification)
    /// or zero variance (regression).
    pub fn is_pure(&self) -> bool {
        match self {
            NodeStats::Class(c) => c.is_pure(),
            NodeStats::Reg(a) => a.weighted_impurity() <= 0.0,
        }
    }

    /// Merges another stats value of the same kind.
    ///
    /// # Panics
    /// Panics if the kinds differ.
    pub fn merge(&mut self, other: &NodeStats) {
        match (self, other) {
            (NodeStats::Class(a), NodeStats::Class(b)) => a.merge(b),
            (NodeStats::Reg(a), NodeStats::Reg(b)) => a.merge(b),
            _ => panic!("cannot merge class stats with regression stats"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_weighted_matches_definition() {
        let mut c = ClassCounts::new(2);
        for _ in 0..3 {
            c.add(0);
        }
        c.add(1);
        // p = (3/4, 1/4); gini = 1 - 9/16 - 1/16 = 6/16; weighted = 4 * 6/16 = 1.5
        assert!((c.weighted_impurity(Impurity::Gini) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn entropy_weighted_matches_definition() {
        let mut c = ClassCounts::new(2);
        c.add(0);
        c.add(1);
        // entropy of (1/2,1/2) = 1 bit; weighted = 2.
        assert!((c.weighted_impurity(Impurity::Entropy) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pure_and_empty_counts() {
        let mut c = ClassCounts::new(3);
        assert!(c.is_pure());
        assert_eq!(c.weighted_impurity(Impurity::Gini), 0.0);
        c.add(2);
        c.add(2);
        assert!(c.is_pure());
        assert_eq!(c.weighted_impurity(Impurity::Gini), 0.0);
        c.add(0);
        assert!(!c.is_pure());
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut c = ClassCounts::new(2);
        c.add(0);
        c.add(1);
        c.add(1);
        let w = c.weighted_impurity(Impurity::Gini);
        c.add(0);
        c.remove(0);
        assert!((c.weighted_impurity(Impurity::Gini) - w).abs() < 1e-12);
    }

    #[test]
    fn prediction_majority_with_tie_to_smaller_label() {
        let mut c = ClassCounts::new(3);
        c.add(1);
        c.add(2);
        let (label, pmf) = c.prediction();
        assert_eq!(label, 1, "tie breaks toward smaller label id");
        assert_eq!(pmf, vec![0.0, 0.5, 0.5]);
    }

    #[test]
    fn reg_agg_variance() {
        let mut a = RegAgg::default();
        for y in [1.0, 2.0, 3.0] {
            a.add(y);
        }
        // var = 2/3; weighted = 2.
        assert!((a.weighted_impurity() - 2.0).abs() < 1e-12);
        assert_eq!(a.mean(), 2.0);
        a.remove(3.0);
        assert!((a.weighted_impurity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reg_agg_never_negative() {
        let mut a = RegAgg::default();
        for _ in 0..1000 {
            a.add(1e9);
        }
        assert_eq!(a.weighted_impurity(), 0.0);
    }

    #[test]
    fn node_stats_purity_and_merge() {
        let s1 = NodeStats::from_view(LabelView::Class(&[1, 1, 1], 3));
        assert!(s1.is_pure());
        let mut s2 = NodeStats::from_view(LabelView::Class(&[0], 3));
        s2.merge(&s1);
        assert_eq!(s2.n(), 4);
        assert!(!s2.is_pure());

        let r = NodeStats::from_view(LabelView::Real(&[5.0, 5.0]));
        assert!(r.is_pure());
    }

    #[test]
    fn node_stats_positions_subset() {
        let view = LabelView::Real(&[1.0, 10.0, 100.0]);
        let s = NodeStats::from_view_positions(view, [0, 2].into_iter());
        assert_eq!(s.n(), 2);
        match s {
            NodeStats::Reg(a) => assert_eq!(a.sum, 101.0),
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn node_stats_merge_kind_mismatch_panics() {
        let mut a = NodeStats::from_view(LabelView::Class(&[0], 2));
        let b = NodeStats::from_view(LabelView::Real(&[1.0]));
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "variance impurity")]
    fn variance_on_class_counts_panics() {
        let mut c = ClassCounts::new(2);
        c.add(0);
        c.weighted_impurity(Impurity::Variance);
    }
}
