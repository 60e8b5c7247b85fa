//! The histogram split engine — quantized per-node kernels for the
//! distributed histogram path (docs/HISTOGRAM.md).
//!
//! Where the exact sorted engine ([`crate::sorted`]) scans every present
//! value of a column per node, these kernels walk the node's rows once,
//! accumulating per-*bin* label aggregates against the column's load-time
//! [`BinnedColumn`] index, then scan the `O(bins)` bin boundaries — the
//! LightGBM/PV-Tree structure (Meng et al. 2016; Vasiloudis et al. 2019)
//! layered on this repo's column-partitioned engine.
//!
//! # Determinism contract
//!
//! - Bin accumulation follows the node's **ascending** row order and the
//!   boundary scan breaks ties toward the earliest bin (strict `>`), so a
//!   recomputation over the same rows — e.g. the worker re-scoring the
//!   attribute the master elected after top-k voting — reproduces the
//!   nominated gain bit for bit.
//! - Child statistics are accumulated in ascending row order by the routine
//!   the exact engine uses (`sorted::route_children`), so leaves grown under
//!   a histogram split carry bit-identical predictions to a subtree trainer
//!   continuing from the same partition.
//! - The boundary scan itself (`best_bin_boundary`) is shared with the
//!   mergeable PLANET histogram of [`crate::histogram`]: merged per-machine
//!   statistics and this one-pass kernel choose the same bin
//!   (`splits/tests/merge_equiv.rs`).
//! - When the column has at most `bins` distinct present values, binning is
//!   lossless ([`BinCuts::equi_depth`]) and the chosen boundary separates
//!   exactly the rows the exact kernel separates: same gain (bitwise for
//!   classification), same routing, same child stats. Only the threshold
//!   *representation* differs — the histogram tests `v <= cut` at the bin's
//!   upper edge where the exact kernel uses the midpoint between adjacent
//!   values (`splits/tests/hist_oracle.rs` pins this down).
//!
//! Categorical attributes are already histogram-shaped — the exact
//! one-vs-rest / Breiman kernels aggregate per *category* in `O(|Ix|)` —
//! so the histogram engine reuses them unchanged.

use crate::condition::SplitTest;
use crate::exact::ColumnSplit;
use crate::impurity::{Impurity, LabelAgg, LabelView, RegAgg};
use crate::sorted::{
    best_cat_split_classification_at, best_cat_split_regression_at, route_children, with_cat_class,
    with_cat_reg, with_class_pair, NodeRows,
};
use ts_datatable::{AttrType, BinnedColumn, Column};

/// Scan core 2 — one prefix scan over per-bin aggregates: folds `bins` into
/// `total`, then sweeps the first `n_cuts` bin boundaries with a running
/// `left` and returns the best `(gain, bin, n_left)`, earliest bin on ties.
/// `left` and `total` arrive empty; `total` holds the present-row aggregate
/// on return. Shared by the per-node engine kernel below and the mergeable
/// [`crate::histogram::NumericHistogram`].
pub(crate) fn best_bin_boundary<A: LabelAgg>(
    bins: &[A],
    n_cuts: usize,
    left: &mut A,
    total: &mut A,
    imp: Impurity,
) -> Option<(f64, usize, u64)> {
    for b in bins {
        total.merge(b);
    }
    if total.n() < 2 {
        return None;
    }
    let total_w = total.weighted_impurity(imp);
    let mut best: Option<(f64, usize, u64)> = None;
    for (b, agg) in bins.iter().enumerate().take(n_cuts) {
        left.merge(agg);
        if left.n() == 0 || left.n() == total.n() {
            continue;
        }
        let right = total.minus(left);
        let gain = total_w - left.weighted_impurity(imp) - right.weighted_impurity(imp);
        if gain > 0.0 && best.is_none_or(|(bg, ..)| gain > bg) {
            best = Some((gain, b, left.n()));
        }
    }
    best
}

/// Best bin-boundary split of a binned numeric column over a node's rows.
///
/// One `O(|Ix|)` accumulation into pooled per-bin aggregates (missing rows
/// land in the reserved trailing slot), then the shared `O(bins)` prefix
/// scan over bin boundaries. Semantics mirror the mergeable
/// [`crate::histogram::NumericHistogram::best_split`] baseline: threshold at
/// the bin's upper cut, positive gain only, missing rows routed to the
/// larger present side and included in the returned child stats.
pub fn best_hist_split_numeric_at(
    binned: &BinnedColumn,
    node: NodeRows<'_>,
    labels: LabelView<'_>,
    imp: Impurity,
) -> Option<ColumnSplit> {
    if binned.cuts().cuts().is_empty() {
        return None; // single overflow bin: no boundary to split at
    }
    let n_slots = binned.n_bins() as u32 + 1; // + reserved missing slot
    match labels {
        LabelView::Class(ys, k) => with_cat_class(n_slots, k, |slots, _spare| {
            with_class_pair(k, |left, total| {
                hist_split_at(binned, node, ys, slots, left, total, imp)
            })
        }),
        LabelView::Real(ys) => with_cat_reg(n_slots, |slots, _spare| {
            let (mut left, mut total) = (RegAgg::default(), RegAgg::default());
            hist_split_at(binned, node, ys, slots, &mut left, &mut total, imp)
        }),
    }
}

/// [`best_hist_split_numeric_at`] over one label type; `slots`, `left` and
/// `total` arrive empty.
fn hist_split_at<A: LabelAgg>(
    binned: &BinnedColumn,
    node: NodeRows<'_>,
    ys: &[A::Label],
    slots: &mut [A],
    left: &mut A,
    total: &mut A,
    imp: Impurity,
) -> Option<ColumnSplit> {
    for r in node.iter() {
        slots[binned.id(r as usize)].add(ys[r as usize]);
    }
    let cuts = binned.cuts().cuts();
    let missing_slot = binned.missing_bin();
    let (gain, b, n_left) =
        best_bin_boundary(&slots[..missing_slot], cuts.len(), left, total, imp)?;
    let missing_left = n_left >= total.n() - n_left;
    let (left, right) = route_children(node, ys, total.empty_like(), missing_left, |i| {
        let s = binned.id(i);
        if s == missing_slot {
            None
        } else {
            Some(s <= b)
        }
    });
    Some(ColumnSplit {
        test: SplitTest::NumericLe(cuts[b]),
        gain,
        missing_left,
        left,
        right,
    })
}

/// A borrowed column ready for the histogram engine: numeric attributes go
/// through their [`BinnedColumn`] index, categoricals through the (already
/// histogram-shaped) per-category kernels.
#[derive(Debug, Clone, Copy)]
pub enum HistColumnRef<'a> {
    /// Binned numeric column.
    Numeric {
        /// The column's load-time bin index.
        binned: &'a BinnedColumn,
    },
    /// Categorical codes with the attribute's domain size.
    Categorical {
        /// Full column codes.
        codes: &'a [u32],
        /// Domain size of the attribute.
        n_values: u32,
    },
}

impl<'a> HistColumnRef<'a> {
    /// Pairs a stored [`Column`] with its bin index (worker column store).
    ///
    /// # Panics
    /// Panics when the column kind does not match the attribute type, or a
    /// numeric attribute arrives without its bin index.
    pub fn of_column(col: &'a Column, binned: Option<&'a BinnedColumn>, ty: AttrType) -> Self {
        match (col, ty) {
            (Column::Numeric(_), AttrType::Numeric) => HistColumnRef::Numeric {
                binned: binned.expect("histogram split over a numeric column needs its bin index"),
            },
            (Column::Categorical(c), AttrType::Categorical { n_values }) => {
                HistColumnRef::Categorical { codes: c, n_values }
            }
            _ => panic!("column kind does not match attribute type"),
        }
    }
}

/// Histogram-engine counterpart of [`crate::sorted::best_split_at`]: the
/// single dispatch the distributed workers call in histogram mode.
pub fn best_hist_split_at(
    col: HistColumnRef<'_>,
    node: NodeRows<'_>,
    labels: LabelView<'_>,
    imp: Impurity,
) -> Option<ColumnSplit> {
    match (col, labels) {
        (HistColumnRef::Numeric { binned }, _) => {
            best_hist_split_numeric_at(binned, node, labels, imp)
        }
        (HistColumnRef::Categorical { codes, n_values }, LabelView::Class(ys, k)) => {
            best_cat_split_classification_at(codes, n_values, node, ys, k, imp)
        }
        (HistColumnRef::Categorical { codes, n_values }, LabelView::Real(ys)) => {
            best_cat_split_regression_at(codes, n_values, node, ys)
        }
    }
}

/// Per-node summary stats of a split candidate, as nominated during top-k
/// voting: enough for the master to rank candidates without shipping child
/// stats or category sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistCandidate {
    /// The candidate's attribute id.
    pub attr: usize,
    /// Its impurity gain on this worker's (full) view of the column.
    pub gain: f64,
}

/// Selects the top `vote_k` candidates by `(gain desc, attr asc)` — the
/// per-worker nomination order of PV-Tree voting. Deterministic for any
/// input order; NaN-free by construction (gains come from `ColumnSplit`).
pub fn top_k_candidates(mut cands: Vec<HistCandidate>, vote_k: usize) -> Vec<HistCandidate> {
    cands.sort_unstable_by(|a, b| b.gain.total_cmp(&a.gain).then(a.attr.cmp(&b.attr)));
    cands.truncate(vote_k.max(1));
    cands
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::best_numeric_split;
    use crate::histogram::NumericHistogram;
    use crate::impurity::LabelView;
    use ts_datatable::BinCuts;

    #[test]
    fn numeric_kernel_matches_mergeable_histogram_baseline() {
        let values: Vec<f64> = (0..100).map(|i| (i % 23) as f64).collect();
        let ys: Vec<u32> = (0..100).map(|i| (i % 3) as u32).collect();
        let cuts = BinCuts::equi_depth(&values, 8);
        let mut h = NumericHistogram::new_class(cuts.n_bins(), 3);
        for (&v, &y) in values.iter().zip(&ys) {
            h.add_class(&cuts, v, y);
        }
        let baseline = h.best_split(&cuts, Impurity::Gini);
        let binned = BinnedColumn::with_cuts(&values, cuts);
        let kernel = best_hist_split_numeric_at(
            &binned,
            NodeRows::All(values.len()),
            LabelView::Class(&ys, 3),
            Impurity::Gini,
        );
        match (baseline, kernel) {
            (Some(a), Some(b)) => {
                assert_eq!(a.test, b.test);
                assert_eq!(a.gain.to_bits(), b.gain.to_bits());
                assert_eq!(a.missing_left, b.missing_left);
                assert_eq!(a.left, b.left);
                assert_eq!(a.right, b.right);
            }
            (a, b) => panic!("existence disagrees: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn numeric_kernel_lossless_on_few_distinct_matches_exact_gain() {
        let values = [1.0, 1.0, 2.0, 3.0, 3.0, 3.0, f64::NAN];
        let ys = [0u32, 0, 1, 1, 1, 0, 1];
        let labels = LabelView::Class(&ys, 2);
        let exact = best_numeric_split(&values, labels, Impurity::Gini).unwrap();
        let binned = BinnedColumn::build(&values, 64);
        let hist =
            best_hist_split_numeric_at(&binned, NodeRows::All(7), labels, Impurity::Gini).unwrap();
        assert_eq!(hist.gain.to_bits(), exact.gain.to_bits());
        assert_eq!(hist.missing_left, exact.missing_left);
        assert_eq!(hist.left, exact.left);
        assert_eq!(hist.right, exact.right);
    }

    #[test]
    fn numeric_kernel_subset_recomputation_is_bitwise_stable() {
        let values: Vec<f64> = (0..64).map(|i| ((i * 37) % 64) as f64).collect();
        let ys: Vec<f64> = (0..64).map(|i| (i % 7) as f64).collect();
        let rows: Vec<u32> = (0..64).filter(|i| i % 3 != 0).collect();
        let binned = BinnedColumn::build(&values, 8);
        let a = best_hist_split_numeric_at(
            &binned,
            NodeRows::Subset(&rows),
            LabelView::Real(&ys),
            Impurity::Variance,
        )
        .unwrap();
        let b = best_hist_split_numeric_at(
            &binned,
            NodeRows::Subset(&rows),
            LabelView::Real(&ys),
            Impurity::Variance,
        )
        .unwrap();
        assert_eq!(a.gain.to_bits(), b.gain.to_bits());
        assert_eq!(a.test, b.test);
        assert_eq!(a.left, b.left);
    }

    #[test]
    fn single_bin_column_has_no_split() {
        let binned = BinnedColumn::build(&[5.0; 10], 8);
        assert_eq!(
            best_hist_split_numeric_at(
                &binned,
                NodeRows::All(10),
                LabelView::Class(&[0, 1, 0, 1, 0, 1, 0, 1, 0, 1], 2),
                Impurity::Gini
            ),
            None
        );
    }

    #[test]
    fn top_k_orders_by_gain_then_attr() {
        let cands = vec![
            HistCandidate { attr: 3, gain: 1.0 },
            HistCandidate { attr: 1, gain: 2.0 },
            HistCandidate { attr: 0, gain: 1.0 },
            HistCandidate { attr: 2, gain: 0.5 },
        ];
        let top = top_k_candidates(cands, 3);
        assert_eq!(
            top.iter().map(|c| c.attr).collect::<Vec<_>>(),
            vec![1, 0, 3]
        );
        // vote_k of 0 is clamped to 1 so every shard always nominates.
        assert_eq!(
            top_k_candidates(vec![HistCandidate { attr: 9, gain: 0.1 }], 0).len(),
            1
        );
    }
}
