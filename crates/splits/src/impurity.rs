//! Impurity functions and incremental label aggregates.
//!
//! The paper evaluates node splits with Gini index or entropy for
//! classification and variance for regression (§II). The aggregates here
//! ([`ClassCounts`], [`RegAgg`]) support `O(1)` add/remove of one label; the
//! numeric boundary scan (Appendix B, Case 1) runs on the narrower
//! `BoundaryScan` states built over them — one per impurity function, each
//! keeping only what a boundary's gain needs: `GiniScan` updates the left
//! side's integers and reads the right side off an identity, `EntropyScan`
//! counts the left side and subtracts, `VarianceScan` keeps both float sums
//! because their bits depend on the order of their operations. The class
//! scans start from node totals their caller already holds and keep the left
//! counts of the best boundary so far, so a node's labels are counted once —
//! by whoever created the node — and a column's winner is not recounted.

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
    /// What a histogram holds per slot, and what the scans over slots read:
    /// the per-class counts (`[u64]`, a stride of the flat class histogram
    /// or [`ClassCounts::counts`]), or the regression aggregate itself.
    type Slot: ?Sized;

    /// Adds one label.
    fn add(&mut self, y: Self::Label);
    /// Removes one label previously added.
    fn remove(&mut self, y: Self::Label);
    /// This aggregate as a histogram slot.
    fn slot(&self) -> &Self::Slot;
    /// Merges one histogram slot into this aggregate.
    fn merge_slot(&mut self, slot: &Self::Slot);
    /// Merges another aggregate into this one.
    fn merge(&mut self, other: &Self) {
        self.merge_slot(other.slot());
    }
    /// Returns `self - other` for an `other` contained in `self`.
    fn minus(&self, other: &Self) -> Self;
    /// `impurity * n` under `kind` of this aggregate less the rows of `slot`
    /// — `minus` then `weighted_impurity`, bit for bit, without building the
    /// difference.
    fn weighted_impurity_minus(&self, slot: &Self::Slot, kind: Impurity) -> f64;
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
    type Slot = [u64];

    fn add(&mut self, y: u32) {
        ClassCounts::add(self, y);
    }
    fn remove(&mut self, y: u32) {
        ClassCounts::remove(self, y);
    }
    fn slot(&self) -> &[u64] {
        &self.counts
    }
    fn merge_slot(&mut self, slot: &[u64]) {
        debug_assert_eq!(self.counts.len(), slot.len());
        for (a, b) in self.counts.iter_mut().zip(slot) {
            *a += b;
            self.total += b;
        }
    }
    fn minus(&self, other: &Self) -> Self {
        ClassCounts::minus(self, other)
    }
    fn weighted_impurity_minus(&self, slot: &[u64], kind: Impurity) -> f64 {
        debug_assert_eq!(self.counts.len(), slot.len());
        let rest = self.counts.iter().zip(slot).map(|(a, b)| a - b);
        class_weighted(kind, self.total - slot.iter().sum::<u64>(), rest)
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
    type Slot = RegAgg;

    fn add(&mut self, y: f64) {
        RegAgg::add(self, y);
    }
    fn remove(&mut self, y: f64) {
        RegAgg::remove(self, y);
    }
    fn slot(&self) -> &RegAgg {
        self
    }
    fn merge_slot(&mut self, slot: &RegAgg) {
        RegAgg::merge(self, slot);
    }
    fn minus(&self, other: &Self) -> Self {
        RegAgg {
            n: self.n - other.n,
            sum: self.sum - other.sum,
            sum_sq: self.sum_sq - other.sum_sq,
        }
    }
    fn weighted_impurity_minus(&self, slot: &RegAgg, _kind: Impurity) -> f64 {
        RegAgg::weighted_impurity(&self.minus(slot))
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

/// The state of the numeric boundary scan (`exact::scan_boundaries`) under
/// one impurity function. It starts with every label of the node right of
/// the boundary; `shift` is the scan's per-row cost, `sides` its
/// per-boundary cost and `keep` what a new best boundary costs (docs/PERF.md,
/// "What a boundary costs").
pub(crate) trait BoundaryScan {
    /// One row's label.
    type Label: Copy;

    /// Moves one of the node's labels to the left of the boundary.
    fn shift(&mut self, y: Self::Label);
    /// `impurity * n` left and right of the boundary, neither side empty.
    /// Never NaN or negative infinity, whatever the labels: the scan relies
    /// on a finite node impurity making every positive gain finite.
    fn sides(&self) -> (f64, f64);
    /// The boundary just scored is the best so far: keeps of the left side
    /// whatever the split's children are read from.
    fn keep(&mut self);
}

/// `gini * n` of `n` rows whose class counts square-sum to `sum_sq`:
/// `n * (1 - sum p_i^2) = n - (sum c_i^2) / n`.
///
/// The one definition of weighted Gini in this crate, and an exact one:
/// `sum c_i^2` is an integer no larger than `n^2`, so `u64` holds it for any
/// table with `u32` row ids, and the single `u64 -> f64` conversion here is
/// the only rounding before the division. The float sum of `c_i^2` over the
/// classes that this replaces holds the same integer — every term and every
/// partial sum stays below `2^52` — as long as `n < 2^26`, so below 67
/// million rows per node the two have identical bits whatever the class
/// order; above, this form is the correctly rounded one.
pub(crate) fn gini_weighted(n: u64, sum_sq: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    gini_weighted_of(n as f64, sum_sq)
}

/// [`gini_weighted`] of `n > 0` rows counted in a float (exact below `2^53`).
fn gini_weighted_of(n: f64, sum_sq: u64) -> f64 {
    n - sum_sq as f64 / n
}

/// The right side's `sum (T_c - L_c)^2` from the node's `node_sq = sum
/// T_c^2`, the left side's `left_sq = sum L_c^2` and `cross = sum T_c L_c`.
/// Inputs and result are at most `n^2 < 2^64` for `u32` row ids, but
/// `node_sq + left_sq` and `2 cross` can pass `2^64`: the arithmetic wraps,
/// exact modulo `2^64` and hence exact.
pub(crate) fn right_sum_sq(node_sq: u64, left_sq: u64, cross: u64) -> u64 {
    let twice_cross = cross.wrapping_mul(2);
    node_sq.wrapping_add(left_sq).wrapping_sub(twice_cross)
}

/// Gini scan on the left side alone: with the node's class counts `T` fixed,
/// moving a label `y` left changes `l = L[y]` by one, `sum L_c^2` by
/// `2l + 1` and `sum T_c L_c` by `T[y]`, and the right side is read off
/// those ([`right_sum_sq`]) — integers, so both sides' Gini is exact. Row
/// counts are floats (counting by `1.0` is exact below `2^53`), which spares
/// a boundary two integer conversions.
pub(crate) struct GiniScan<'a> {
    left: &'a mut [u64],
    best: &'a mut ClassCounts,
    node: &'a [u64],
    n_left: f64,
    n: f64,
    node_sq: u64,
    left_sq: u64,
    cross: u64,
}

impl<'a> GiniScan<'a> {
    /// A scan of the node counted in `node`, leaving the left side of its
    /// best boundary in `best`. `left`, empty on entry, is scratch: the scan
    /// writes the left side's counts but not their total to it, so it is to
    /// be `reset` before another use.
    pub(crate) fn new(
        left: &'a mut ClassCounts,
        best: &'a mut ClassCounts,
        node: &'a ClassCounts,
    ) -> Self {
        GiniScan {
            left: &mut left.counts,
            best,
            node: &node.counts,
            n_left: 0.0,
            n: node.total as f64,
            node_sq: node.sum_sq(),
            left_sq: 0,
            cross: 0,
        }
    }
}

impl BoundaryScan for GiniScan<'_> {
    type Label = u32;

    fn shift(&mut self, y: u32) {
        let l = &mut self.left[y as usize];
        self.left_sq += 2 * *l + 1;
        *l += 1;
        self.n_left += 1.0;
        self.cross += self.node[y as usize];
    }
    fn sides(&self) -> (f64, f64) {
        let right_sq = right_sum_sq(self.node_sq, self.left_sq, self.cross);
        let left_w = gini_weighted_of(self.n_left, self.left_sq);
        (left_w, gini_weighted_of(self.n - self.n_left, right_sq))
    }
    fn keep(&mut self) {
        self.best.counts.copy_from_slice(self.left);
        self.best.total = self.n_left as u64;
    }
}

/// Entropy scan: `O(classes)` per boundary (`sum c log2 c` has no exact
/// incremental form) but one count per row — the right side is `node - left`
/// class by class, where a boundary asks. `left` is empty on entry; `best`
/// receives the left side of the best boundary.
pub(crate) struct EntropyScan<'a> {
    pub(crate) left: &'a mut ClassCounts,
    pub(crate) best: &'a mut ClassCounts,
    pub(crate) node: &'a ClassCounts,
}

impl BoundaryScan for EntropyScan<'_> {
    type Label = u32;

    fn shift(&mut self, y: u32) {
        self.left.add(y);
    }
    fn sides(&self) -> (f64, f64) {
        let right = self.node.counts.iter().zip(&self.left.counts);
        let right_w =
            entropy_weighted(self.node.total - self.left.total, right.map(|(t, l)| t - l));
        (self.left.weighted_impurity(Impurity::Entropy), right_w)
    }
    fn keep(&mut self) {
        self.best.counts.copy_from_slice(&self.left.counts);
        self.best.total = self.left.total;
    }
}

/// `impurity * n` of `n` rows with the given class counts — the one place a
/// class impurity is chosen by `kind`, whether the counts are a
/// [`ClassCounts`], a histogram slot or a difference of two.
pub(crate) fn class_weighted(kind: Impurity, n: u64, counts: impl Iterator<Item = u64>) -> f64 {
    match kind {
        Impurity::Gini => gini_weighted(n, counts.map(|c| c * c).sum()),
        Impurity::Entropy => entropy_weighted(n, counts),
        Impurity::Variance => panic!("variance impurity applied to class labels"),
    }
}

/// `entropy * n` of `n` rows with the given class counts:
/// `n * (-sum p log2 p) = n log2 n - sum c log2 c`, summed in class order.
fn entropy_weighted(n: u64, counts: impl Iterator<Item = u64>) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    let c_log_c = |c: u64| (c as f64) * (c as f64).log2();
    n * n.log2() - counts.filter(|&c| c > 0).map(c_log_c).sum::<f64>()
}

/// Variance scan. Float sums depend on the order of their operations, so the
/// right side is not derived from the left: each label is added on the left
/// and removed on the right, as the scan always did. Row counts are floats,
/// as in [`GiniScan`].
pub(crate) struct VarianceScan {
    left: RegAgg,
    right: RegAgg,
    n_left: f64,
    n: f64,
}

impl VarianceScan {
    /// A scan of the node whose targets sum to `node`.
    pub(crate) fn new(node: RegAgg) -> Self {
        let (left, n) = (RegAgg::default(), node.n as f64);
        VarianceScan {
            left,
            right: node,
            n_left: 0.0,
            n,
        }
    }
}

impl BoundaryScan for VarianceScan {
    type Label = f64;

    fn shift(&mut self, y: f64) {
        self.left.add(y);
        self.right.remove(y);
        self.n_left += 1.0;
    }
    fn sides(&self) -> (f64, f64) {
        let (left, right) = (&self.left, &self.right);
        let left_w = variance_weighted_of(self.n_left, left.sum, left.sum_sq);
        let n_right = self.n - self.n_left;
        (
            left_w,
            variance_weighted_of(n_right, right.sum, right.sum_sq),
        )
    }
    /// Nothing: regression children are summed in row order for the node's
    /// winner ([`crate::exact::SplitCandidate::finish`]), not read off the
    /// value-ordered scan.
    fn keep(&mut self) {}
}

/// `variance * n` of `n > 0` targets with the given sums, clamped at 0
/// against floating-point cancellation (and so never NaN).
fn variance_weighted_of(n: f64, sum: f64, sum_sq: f64) -> f64 {
    (sum_sq - sum * sum / n).max(0.0)
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
        let mut out = ClassCounts::new(self.counts.len() as u32);
        out.set_minus(self, other);
        out
    }

    /// Overwrites `self` with `a - b` elementwise, keeping the allocation
    /// (`self` must be sized for the same classes).
    ///
    /// # Panics
    /// Debug-asserts that `b` is contained in `a`.
    pub fn set_minus(&mut self, a: &ClassCounts, b: &ClassCounts) {
        debug_assert_eq!(a.counts.len(), b.counts.len());
        debug_assert_eq!(self.counts.len(), a.counts.len());
        for ((out, &a), &b) in self.counts.iter_mut().zip(&a.counts).zip(&b.counts) {
            debug_assert!(a >= b);
            *out = a - b;
        }
        self.total = a.total - b.total;
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
        class_weighted(kind, self.total, self.counts.iter().copied())
    }

    /// `sum c_i^2` over the classes, exact (see [`gini_weighted`]).
    fn sum_sq(&self) -> u64 {
        self.counts.iter().map(|&c| c * c).sum()
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
        variance_weighted_of(self.n as f64, self.sum, self.sum_sq)
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

/// The boundary scan's state as it was kept up to commit 1ca5a9f — both
/// sides maintained, a label added on one and removed on the other — as the
/// oracle of the one-sided [`BoundaryScan`]s.
#[cfg(test)]
pub(crate) mod two_sided {
    use super::{gini_weighted, ClassCounts, RegAgg};

    /// One side of the two-sided scan: a label aggregate bound to one
    /// impurity function, with `O(1)` add/remove of a label.
    pub(crate) trait BoundarySide {
        /// One row's label.
        type Label: Copy;

        /// Adds one label.
        fn add(&mut self, y: Self::Label);
        /// Removes one label previously added.
        fn remove(&mut self, y: Self::Label);
        /// `impurity * n` of the side.
        fn weighted_impurity(&self) -> f64;
    }

    /// Borrowed [`ClassCounts`] with a running `sum c_i^2`: moving one label
    /// changes one count `c` by one and the sum by `2c + 1`.
    pub(crate) struct GiniCounts<'a> {
        counts: &'a mut ClassCounts,
        sum_sq: u64,
    }

    impl<'a> GiniCounts<'a> {
        /// Wraps `counts`, which may already hold rows.
        pub(crate) fn new(counts: &'a mut ClassCounts) -> Self {
            let sum_sq = counts.sum_sq();
            GiniCounts { counts, sum_sq }
        }

        /// The class counts so far.
        pub(crate) fn counts(&self) -> &ClassCounts {
            self.counts
        }
    }

    impl BoundarySide for GiniCounts<'_> {
        type Label = u32;

        fn add(&mut self, y: u32) {
            let c = &mut self.counts.counts[y as usize];
            self.sum_sq += 2 * *c + 1;
            *c += 1;
            self.counts.total += 1;
        }
        fn remove(&mut self, y: u32) {
            let c = &mut self.counts.counts[y as usize];
            debug_assert!(*c > 0);
            self.sum_sq -= 2 * *c - 1;
            *c -= 1;
            self.counts.total -= 1;
        }
        fn weighted_impurity(&self) -> f64 {
            gini_weighted(self.counts.total, self.sum_sq)
        }
    }

    impl BoundarySide for RegAgg {
        type Label = f64;

        fn add(&mut self, y: f64) {
            RegAgg::add(self, y);
        }
        fn remove(&mut self, y: f64) {
            RegAgg::remove(self, y);
        }
        fn weighted_impurity(&self) -> f64 {
            RegAgg::weighted_impurity(self)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::two_sided::{BoundarySide, GiniCounts};
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

    /// Weighted Gini as this crate computed it up to commit ab733cd: the
    /// squares summed in `f64`, class by class.
    fn float_gini(counts: &[u64]) -> f64 {
        let n = counts.iter().sum::<u64>() as f64;
        let ssq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
        n - ssq / n
    }

    fn counts_of(counts: &[u64]) -> ClassCounts {
        ClassCounts {
            counts: counts.to_vec(),
            total: counts.iter().sum(),
        }
    }

    mod exact_gini {
        use super::*;
        use tscheck::prelude::*;

        proptest! {
            /// Below 2^26 rows the integer sum of squares and the float one
            /// are the same number, so weighted Gini has the same bits —
            /// through `ClassCounts` and through a `GiniCounts` that reached
            /// the counts one label at a time.
            #[test]
            fn integer_gini_has_the_bits_of_the_float_sum(
                counts in (1usize..12).prop_flat_map(|k| {
                    let cap = ((1u64 << 26) - 1) / k as u64;
                    tscheck::collection::vec(
                        prop_oneof![3 => 0..=cap, 2 => 0..=1_000u64, 1 => Just(0u64), 1 => Just(cap)],
                        k,
                    )
                })
            ) {
                let total: u64 = counts.iter().sum();
                prop_assert!(total < 1 << 26);
                if total == 0 {
                    return Ok(());
                }
                let want = float_gini(&counts).to_bits();
                let sum_sq: u64 = counts.iter().map(|&c| c * c).sum();
                prop_assert_eq!(gini_weighted(total, sum_sq).to_bits(), want);
                let mut held = counts_of(&counts);
                prop_assert_eq!(held.weighted_impurity(Impurity::Gini).to_bits(), want);
                // Move a few labels out and back in: the running sum follows.
                let mut running = GiniCounts::new(&mut held);
                let class = counts.iter().position(|&c| c > 0).unwrap() as u32;
                let moved = counts[class as usize].min(3);
                (0..moved).for_each(|_| running.remove(class));
                (0..moved).for_each(|_| running.add(class));
                prop_assert_eq!(running.weighted_impurity().to_bits(), want);
            }
        }
    }

    #[test]
    fn running_gini_follows_every_add_and_remove() {
        let mut counts = ClassCounts::new(3);
        let mut running = GiniCounts::new(&mut counts);
        let mut mirror = vec![0u64; 3];
        for (step, y) in [0u32, 1, 1, 2, 0, 1, 2, 2, 2, 0].into_iter().enumerate() {
            running.add(y);
            mirror[y as usize] += 1;
            if step % 3 == 2 {
                running.remove(y);
                mirror[y as usize] -= 1;
            }
            assert_eq!(
                running.weighted_impurity().to_bits(),
                float_gini(&mirror).to_bits()
            );
            assert_eq!(running.counts().counts(), mirror);
        }
    }

    /// From 2^26 rows per node on, the float sum of squares can round where
    /// the integer one cannot: the two forms of weighted Gini may part in the
    /// last bits, the integer one being the correctly rounded. Models of such
    /// nodes are not byte-comparable with those of commits up to ab733cd.
    #[test]
    fn at_two_to_the_26_rows_the_float_sum_starts_to_round() {
        // Just under the bound: still the same bits.
        let under = [(1u64 << 26) - 4, 1, 1, 1];
        assert_eq!(
            counts_of(&under)
                .weighted_impurity(Impurity::Gini)
                .to_bits(),
            float_gini(&under).to_bits()
        );
        // 2^27 + 3 rows: (2^27)^2 = 2^54 has an ulp of 4, so the float sum
        // drops each of the three 1s while the integer sum keeps all three.
        let over = [1u64 << 27, 1, 1, 1];
        let sum_sq: u64 = over.iter().map(|&c| c * c).sum();
        assert_eq!(sum_sq, (1 << 54) + 3);
        let float_ssq: f64 = over.iter().map(|&c| (c as f64) * (c as f64)).sum();
        assert_eq!(float_ssq, (1u64 << 54) as f64);
        assert_eq!(sum_sq as f64, ((1u64 << 54) + 4) as f64);
        assert_ne!(
            counts_of(&over).weighted_impurity(Impurity::Gini).to_bits(),
            float_gini(&over).to_bits()
        );
    }

    #[test]
    fn set_minus_reuses_the_allocation() {
        let (a, b) = (counts_of(&[5, 3, 2]), counts_of(&[1, 3, 0]));
        let mut out = ClassCounts::new(3);
        out.set_minus(&a, &b);
        assert_eq!(out, counts_of(&[4, 0, 2]));
        assert_eq!(out, a.minus(&b));
    }

    /// The identity the one-sided Gini scan reads its right side from, at
    /// the top of its range: 2^32 - 1 rows, where `node_sq + left_sq` and
    /// `2 cross` both pass 2^64 and the result does not.
    #[test]
    fn right_sum_of_squares_is_exact_through_a_wrapping_intermediate() {
        let n = u64::from(u32::MAX);
        for (node, left) in [
            // Nearly everything in one class, nearly all of it moved left.
            (vec![n - 3, 1, 1, 1], vec![n - 4, 1, 0, 1]),
            (vec![n - 3, 1, 1, 1], vec![1, 0, 0, 0]),
            (vec![n], vec![n - 1]),
            (vec![n / 2, n - n / 2], vec![n / 2, n / 2]),
            (vec![n / 3, n / 3, n - 2 * (n / 3)], vec![n / 3, 7, 0]),
        ] {
            assert_eq!(node.iter().sum::<u64>(), n);
            let sq = |counts: &[u64]| -> u128 {
                counts.iter().map(|&c| u128::from(c) * u128::from(c)).sum()
            };
            let (node_sq, left_sq) = (sq(&node), sq(&left));
            let cross: u128 = node
                .iter()
                .zip(&left)
                .map(|(&t, &l)| u128::from(t) * u128::from(l))
                .sum();
            let right: Vec<u64> = node.iter().zip(&left).map(|(t, l)| t - l).collect();
            let want = sq(&right);
            assert!(want <= u128::from(u64::MAX) && node_sq <= u128::from(u64::MAX));
            let got = right_sum_sq(node_sq as u64, left_sq as u64, cross as u64);
            assert_eq!(u128::from(got), want, "{node:?} - {left:?}");
        }
        // The first case is one where the plain sum would have overflowed.
        let big = (n - 3) * (n - 3);
        assert!(big.checked_add((n - 4) * (n - 4)).is_none());
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
