//! The histogram split engine — quantized per-node kernels for the
//! distributed histogram path (docs/HISTOGRAM.md).
//!
//! Where the exact sorted engine ([`crate::sorted`]) scans every present
//! value of a column per node, these kernels walk the node's rows once,
//! counting each into its *bin* of the column's load-time [`BinnedColumn`]
//! index, then scan the `O(bins)` bin boundaries — the LightGBM/PV-Tree
//! structure (Meng et al. 2016; Vasiloudis et al. 2019) layered on this
//! repo's column-partitioned engine.
//!
//! Class labels are counted into one flat pooled histogram
//! (`sorted::with_class_hist`): `hist[bin * n_classes + y] += 1` per row,
//! the bin-id width matched once outside the loop, missing rows in the
//! reserved trailing slot. The boundary scan reads the bins as `[u64]`
//! strides and allocates nothing, and the children are read off the
//! histogram too — the winning prefix of bins, the rest of the total, the
//! missing slot to the larger side — so a class-label kernel passes over the
//! node's rows exactly once. Regression keeps a `RegAgg` per bin and leaves
//! its float children to [`SplitCandidate::finish`]: a nomination carries a
//! gain, and only the column the master elects is ever finished.
//!
//! # Determinism contract
//!
//! - Bin accumulation follows the node's **ascending** row order and the
//!   boundary scan breaks ties toward the earliest bin (strict `>`), so a
//!   recomputation over the same rows — e.g. the worker re-scoring the
//!   attribute the master elected after top-k voting — reproduces the
//!   nominated gain bit for bit.
//! - Class children are integers read off the histogram, equal to a recount
//!   of the child's rows in any order. Regression children are accumulated
//!   in ascending row order by the routine the exact engine uses
//!   ([`SplitCandidate::finish`] over `sorted::route_children`; the condition
//!   tests `v <= cuts[b]`, so routing by value is routing by bin id), so
//!   leaves grown under a histogram split carry bit-identical predictions to
//!   a subtree trainer continuing from the same partition.
//! - The boundary scan itself (`best_bin_boundary`) is shared with the
//!   mergeable PLANET histogram of [`crate::histogram`], which hands it
//!   `ClassCounts::counts` where the engine hands it strides of its flat
//!   histogram: merged per-machine statistics and this one-pass kernel
//!   choose the same bin (`splits/tests/merge_equiv.rs`).
//! - When the column has at most `bins` distinct present values, binning is
//!   lossless ([`ts_datatable::BinCuts::equi_depth`]) and the chosen boundary
//!   separates exactly the rows the exact kernel separates: same gain
//!   (bitwise for classification), same routing, same child stats. Only the
//!   threshold *representation* differs — the histogram tests `v <= cut` at
//!   the bin's upper edge where the exact kernel uses the midpoint between
//!   adjacent values (`splits/tests/hist_oracle.rs` pins this down).
//!
//! Categorical attributes are already histogram-shaped — the exact
//! one-vs-rest / Breiman kernels aggregate per *category* in `O(|Ix|)`, the
//! class one into the same flat histogram — so the histogram engine reuses
//! them unchanged.

use crate::condition::SplitTest;
use crate::exact::{split_from_slots, ColumnSplit, SplitCandidate};
use crate::impurity::{Impurity, LabelAgg, LabelView, RegAgg};
use crate::sorted::{
    best_cat_split_at, numeric_value, visit_rows, with_cat_reg, with_class_hist, with_class_pair,
    NodeRows,
};
use ts_datatable::{AttrType, BinIds, BinnedColumn, Column, Value};

/// Scan core 2 — one prefix scan over a histogram's bins, each read as a
/// slot view: folds `bins` into `total`, then sweeps the first `n_cuts` bin
/// boundaries with a running `left` and returns the best `(gain, bin,
/// n_left)`, earliest bin on ties. `left` and `total` arrive empty; `total`
/// holds the present-row aggregate on return, `left` has moved past the
/// winner. Allocates nothing: the right side's impurity is read off `total`
/// and `left`. Shared by the per-node engine kernel below and the mergeable
/// [`crate::histogram::NumericHistogram`].
pub(crate) fn best_bin_boundary<'a, A: LabelAgg>(
    bins: impl Iterator<Item = &'a A::Slot> + Clone,
    n_cuts: usize,
    left: &mut A,
    total: &mut A,
    imp: Impurity,
) -> Option<(f64, usize, u64)>
where
    A::Slot: 'a,
{
    bins.clone().for_each(|bin| total.merge_slot(bin));
    if total.n() < 2 {
        return None;
    }
    let total_w = total.weighted_impurity(imp);
    let mut best: Option<(f64, usize, u64)> = None;
    for (b, bin) in bins.enumerate().take(n_cuts) {
        left.merge_slot(bin);
        if left.n() == 0 || left.n() == total.n() {
            continue;
        }
        let right_w = total.weighted_impurity_minus(left.slot(), imp);
        let gain = total_w - left.weighted_impurity(imp) - right_w;
        if gain > 0.0 && best.is_none_or(|(bg, ..)| gain > bg) {
            best = Some((gain, b, left.n()));
        }
    }
    best
}

/// Visits a node's rows of a binned column in ascending order, each with its
/// slot id and label — the id width matched here, once, not per row.
fn visit_binned<L: Copy>(
    binned: &BinnedColumn,
    node: NodeRows<'_>,
    ys: &[L],
    mut put: impl FnMut(usize, L),
) {
    match binned.ids() {
        BinIds::U8(ids) => visit_rows(ids, node, ys, |id, y| put(usize::from(id), y)),
        BinIds::U16(ids) => visit_rows(ids, node, ys, |id, y| put(usize::from(id), y)),
    }
}

/// The histogram numeric kernel: the best bin-boundary split of a binned
/// column over a node's rows, as a nomination needs it.
///
/// One `O(|Ix|)` pass counts the rows into a pooled histogram (missing rows
/// in the reserved trailing slot), then the shared `O(bins)` prefix scan
/// picks the boundary. Class children are the winning prefix of bins and the
/// rest of the total — integers already in the histogram; regression
/// children wait for [`SplitCandidate::finish`], which only the elected
/// column ever gets.
fn hist_numeric_split(
    binned: &BinnedColumn,
    node: NodeRows<'_>,
    labels: LabelView<'_>,
    imp: Impurity,
) -> Option<SplitCandidate> {
    let cuts = binned.cuts().cuts();
    if cuts.is_empty() || node.len() < 2 {
        return None; // a single overflow bin has no boundary, a single row no split
    }
    let n_bins = binned.n_bins();
    let test = |b: usize| SplitTest::NumericLe(cuts[b]);
    match labels {
        LabelView::Class(ys, n_classes) => with_class_hist(n_bins + 1, n_classes, |hist| {
            let k = n_classes as usize;
            visit_binned(binned, node, ys, |slot, y| hist[slot * k + y as usize] += 1);
            let (bins, missing) = hist.split_at(n_bins * k);
            let bins = bins.chunks_exact(k);
            with_class_pair(n_classes, |left, total| {
                let (gain, b, _) = best_bin_boundary(bins.clone(), cuts.len(), left, total, imp)?;
                let left_bins = bins.take(b + 1);
                Some(split_from_slots(test(b), gain, left_bins, &*total, missing).into())
            })
        }),
        LabelView::Real(ys) => with_cat_reg(n_bins as u32 + 1, |slots, _spare| {
            visit_binned(binned, node, ys, |slot, y| slots[slot].add(y));
            let (mut left, mut total) = (RegAgg::default(), RegAgg::default());
            let bins = slots[..n_bins].iter();
            let (gain, b, n_left) =
                best_bin_boundary(bins, cuts.len(), &mut left, &mut total, imp)?;
            let missing_left = n_left >= total.n - n_left;
            Some(SplitCandidate::unrouted(test(b), gain, missing_left))
        }),
    }
}

/// [`best_hist_split_at`] of a binned numeric column, finished at once — the
/// kernel as the oracle suites compare it with the exact one and with the
/// mergeable [`crate::histogram::NumericHistogram::best_split`] baseline:
/// threshold at the bin's upper cut, positive gain only, missing rows routed
/// to the larger present side and included in the returned child stats.
pub fn best_hist_split_numeric_at(
    binned: &BinnedColumn,
    node: NodeRows<'_>,
    labels: LabelView<'_>,
    imp: Impurity,
) -> Option<ColumnSplit> {
    let best = hist_numeric_split(binned, node, labels, imp)?;
    // Routing by `v <= cuts[b]` is routing by bin id: a row stands in for its
    // value with its bin's upper edge, the overflow bin's rows with +inf.
    let cuts = binned.cuts().cuts();
    Some(best.finish_by(node, labels, |row| match binned.id(row) {
        slot if slot == binned.missing_bin() => Value::Missing,
        slot => numeric_value(cuts.get(slot).copied().unwrap_or(f64::INFINITY)),
    }))
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
/// single dispatch the distributed workers call in histogram mode. A
/// nomination reads the candidate's [`SplitCandidate::gain`] and drops it;
/// the worker of the elected column calls again and finishes the candidate
/// against the column's [`crate::sorted::ColumnRef`] — routing by
/// `v <= cuts[b]` is routing by bin id.
pub fn best_hist_split_at(
    col: HistColumnRef<'_>,
    node: NodeRows<'_>,
    labels: LabelView<'_>,
    imp: Impurity,
) -> Option<SplitCandidate> {
    match col {
        HistColumnRef::Numeric { binned } => hist_numeric_split(binned, node, labels, imp),
        HistColumnRef::Categorical { codes, n_values } => {
            best_cat_split_at(codes, n_values, node, labels, imp)
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
    use crate::impurity::NodeStats;
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

    /// The class-label histogram kernels as commits up to 04bb51a ran them,
    /// kept as the oracle of the flat histogram that replaced them: one
    /// `ClassCounts` per slot filled through `BinnedColumn::id`, a
    /// `ClassCounts` built per candidate, and the children summed by routing
    /// the node's rows a second time.
    mod against_the_class_count_slots {
        use super::*;
        use crate::impurity::ClassCounts;
        use crate::sorted::{best_cat_split_classification_at, route_children};
        use ts_datatable::MISSING_CAT;
        use tscheck::prelude::*;

        /// `(slot, gain, missing_left, left, right)`.
        type Chosen = (usize, f64, bool, NodeStats, NodeStats);

        fn numeric_oracle(
            binned: &BinnedColumn,
            node: NodeRows<'_>,
            ys: &[u32],
            k: u32,
            imp: Impurity,
        ) -> Option<Chosen> {
            let mut slots = vec![ClassCounts::new(k); binned.n_bins() + 1];
            for r in node.iter() {
                slots[binned.id(r as usize)].add(ys[r as usize]);
            }
            let missing_slot = binned.missing_bin();
            let mut total = ClassCounts::new(k);
            slots[..missing_slot].iter().for_each(|b| total.merge(b));
            if total.total() < 2 {
                return None;
            }
            let total_w = total.weighted_impurity(imp);
            let mut left = ClassCounts::new(k);
            let mut best: Option<(f64, usize, u64)> = None;
            for (b, bin) in slots.iter().enumerate().take(binned.cuts().cuts().len()) {
                left.merge(bin);
                if left.total() == 0 || left.total() == total.total() {
                    continue;
                }
                let right = total.minus(&left);
                let gain = total_w - left.weighted_impurity(imp) - right.weighted_impurity(imp);
                if gain > 0.0 && best.is_none_or(|(bg, ..)| gain > bg) {
                    best = Some((gain, b, left.total()));
                }
            }
            let (gain, b, n_left) = best?;
            let missing_left = n_left >= total.total() - n_left;
            let (left, right) = route_children(node, ys, ClassCounts::new(k), missing_left, |i| {
                let s = binned.id(i);
                (s != missing_slot).then_some(s <= b)
            });
            Some((b, gain, missing_left, left, right))
        }

        fn categorical_oracle(
            codes: &[u32],
            n_values: u32,
            node: NodeRows<'_>,
            ys: &[u32],
            k: u32,
            imp: Impurity,
        ) -> Option<Chosen> {
            let mut per_value = vec![ClassCounts::new(k); n_values as usize];
            let mut total = ClassCounts::new(k);
            for r in node.iter().map(|r| r as usize) {
                if codes[r] != MISSING_CAT {
                    per_value[codes[r] as usize].add(ys[r]);
                    total.add(ys[r]);
                }
            }
            if total.total() < 2 {
                return None;
            }
            let total_w = total.weighted_impurity(imp);
            let mut rest = ClassCounts::new(k);
            let mut best: Option<(f64, usize)> = None;
            for (code, counts) in per_value.iter().enumerate() {
                if counts.total() == 0 || counts.total() == total.total() {
                    continue;
                }
                rest.set_minus(&total, counts);
                let gain = total_w - counts.weighted_impurity(imp) - rest.weighted_impurity(imp);
                // Ascending codes: a later code wins on a strictly higher gain.
                if gain > 0.0 && best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, code));
                }
            }
            let (gain, code) = best?;
            let n_left = per_value[code].total();
            let missing_left = n_left >= total.total() - n_left;
            let (left, right) = route_children(node, ys, ClassCounts::new(k), missing_left, |i| {
                (codes[i] != MISSING_CAT).then_some(codes[i] as usize == code)
            });
            Some((code, gain, missing_left, left, right))
        }

        fn chosen(
            split: Option<ColumnSplit>,
            slot_of: impl Fn(&SplitTest) -> usize,
        ) -> Option<Chosen> {
            let s = split?;
            Some((slot_of(&s.test), s.gain, s.missing_left, s.left, s.right))
        }

        fn assert_same(
            got: Option<Chosen>,
            want: Option<Chosen>,
            what: &str,
        ) -> Result<(), TestCaseError> {
            let bits = |c: &Option<Chosen>| c.as_ref().map(|c| (c.0, c.1.to_bits(), c.2));
            prop_assert_eq!(bits(&got), bits(&want), "{}", what);
            prop_assert_eq!(
                got.map(|c| (c.3, c.4)),
                want.map(|c| (c.3, c.4)),
                "{}",
                what
            );
            Ok(())
        }

        /// The node shapes of one table: everything, strided subsets, the
        /// empty node, and a one-row node.
        fn nodes(n: usize, stride: usize) -> Vec<Vec<u32>> {
            let rows = |step: usize, from: usize| (from as u32..n as u32).step_by(step).collect();
            vec![
                rows(1, 0),
                rows(stride, 0),
                rows(stride, 1),
                vec![],
                rows(n.max(1), n / 2),
            ]
        }

        /// 2–9 classes, planted on the slot so that gains differ; `pure`
        /// collapses them to one class.
        fn labels(slots: &[usize], noise: &[u32], k: u32, pure: bool) -> Vec<u32> {
            let label =
                |(&s, &y): (&usize, &u32)| if pure { 1 } else { (s as u32 / 2 + y % 2) % k };
            slots.iter().zip(noise).map(label).collect()
        }

        proptest! {
            /// Binned numeric columns of 1–300 bins — `u8` and `u16` ids —
            /// with missing rows: the flat histogram picks the oracle's bin,
            /// gain bits, missing side and both children's counts.
            #[test]
            fn numeric_kernel_has_the_bits_of_the_oracle(
                (values, noise, k, max_bins, stride, pure) in (0usize..700).prop_flat_map(|n| (
                    tscheck::collection::vec(prop_oneof![
                        6 => -40.0..40.0f64,
                        3 => (-9..9i32).prop_map(f64::from),
                        1 => Just(f64::NAN),
                    ], n),
                    tscheck::collection::vec(0u32..9, n),
                    2u32..=9,
                    prop_oneof![Just(2usize), Just(5), Just(64), Just(255), Just(256), Just(300)],
                    2usize..7,
                    prop_oneof![9 => Just(false), 1 => Just(true)],
                ))
            ) {
                let binned = BinnedColumn::build(&values, max_bins);
                let slots: Vec<usize> = (0..values.len()).map(|r| binned.id(r)).collect();
                let ys = labels(&slots, &noise, k, pure);
                let cuts = binned.cuts().cuts();
                let bin_of = |test: &SplitTest| match test {
                    SplitTest::NumericLe(thr) => cuts.iter().position(|c| c == thr).unwrap(),
                    other => panic!("numeric kernel returned {other:?}"),
                };
                for rows in nodes(values.len(), stride) {
                    let node = match rows.len() == values.len() {
                        true => NodeRows::All(rows.len()),
                        false => NodeRows::Subset(&rows),
                    };
                    for imp in [Impurity::Gini, Impurity::Entropy] {
                        let view = LabelView::Class(&ys, k);
                        let got = chosen(best_hist_split_numeric_at(&binned, node, view, imp), bin_of);
                        let want = numeric_oracle(&binned, node, &ys, k, imp);
                        let what = format!("{} bins, {} of {} rows, {imp:?}",
                            binned.n_bins(), rows.len(), values.len());
                        assert_same(got, want, &what)?;
                    }
                }
            }

            /// Categorical columns of 1–70 values with missing rows, through
            /// the same flat histogram: the oracle's category, gain bits,
            /// missing side and children.
            #[test]
            fn categorical_kernel_has_the_bits_of_the_oracle(
                (codes, noise, n_values, k, stride, pure) in (0usize..400, 1u32..=70).prop_flat_map(|(n, n_values)| (
                    tscheck::collection::vec(prop_oneof![
                        8 => 0..n_values,
                        1 => Just(MISSING_CAT),
                    ], n),
                    tscheck::collection::vec(0u32..9, n),
                    Just(n_values),
                    2u32..=9,
                    2usize..7,
                    prop_oneof![9 => Just(false), 1 => Just(true)],
                ))
            ) {
                let slots: Vec<usize> = codes.iter().map(|&c| c.min(n_values) as usize).collect();
                let ys = labels(&slots, &noise, k, pure);
                let code_of = |test: &SplitTest| match test {
                    SplitTest::CatIn(set) if set.len() == 1 => set[0] as usize,
                    other => panic!("one-vs-rest kernel returned {other:?}"),
                };
                for rows in nodes(codes.len(), stride) {
                    let node = match rows.len() == codes.len() {
                        true => NodeRows::All(rows.len()),
                        false => NodeRows::Subset(&rows),
                    };
                    for imp in [Impurity::Gini, Impurity::Entropy] {
                        let split = best_cat_split_classification_at(&codes, n_values, node, &ys, k, imp);
                        let want = categorical_oracle(&codes, n_values, node, &ys, k, imp);
                        let what = format!("{n_values} values, {} of {} rows, {imp:?}",
                            rows.len(), codes.len());
                        assert_same(chosen(split, code_of), want, &what)?;
                    }
                }
            }
        }

        /// Both id widths were in the tables above.
        #[test]
        fn three_hundred_bins_are_u16_ids_and_sixty_four_u8() {
            let values: Vec<f64> = (0..700).map(f64::from).collect();
            assert!(matches!(
                BinnedColumn::build(&values, 300).ids(),
                BinIds::U16(_)
            ));
            assert!(matches!(
                BinnedColumn::build(&values, 64).ids(),
                BinIds::U8(_)
            ));
        }
    }

    /// A regression nomination over two columns routes nothing: neither
    /// candidate carries children, the loser is dropped as it came, and the
    /// elected column's candidate — found again, as `on_hist_fetch` finds it
    /// — finishes against the column's values into the split commits up to
    /// 04bb51a shipped, which routed every column by bin id.
    #[test]
    fn a_nomination_routes_nothing_and_the_elected_column_finishes_by_value() {
        use crate::sorted::{route_children, ColumnRef};
        use ts_datatable::SortedColumn;
        let n = 400usize;
        let signal: Vec<f64> = (0..n)
            .map(|r| {
                if r % 29 == 0 {
                    f64::NAN
                } else {
                    ((r * 37) % 101) as f64
                }
            })
            .collect();
        let noise: Vec<f64> = (0..n).map(|r| ((r * 53) % 17) as f64).collect();
        let ys: Vec<f64> = (0..n)
            .map(|r| if signal[r] > 60.0 { 9.0 } else { 1.0 } + (r % 7) as f64 / 8.0)
            .collect();
        let labels = LabelView::Real(&ys);
        let rows: Vec<u32> = (0..n as u32).filter(|r| r % 3 != 1).collect();
        for node in [NodeRows::All(n), NodeRows::Subset(&rows)] {
            let columns = [&noise, &signal].map(|v| (v, BinnedColumn::build(v, 16)));
            let nominate = |binned| {
                let col = HistColumnRef::Numeric { binned };
                best_hist_split_at(col, node, labels, Impurity::Variance).unwrap()
            };
            let gains: Vec<f64> = columns
                .iter()
                .map(|(_, binned)| {
                    let candidate = nominate(binned);
                    assert!(candidate.unrouted, "a nomination routed the node");
                    candidate.gain()
                })
                .collect();
            assert!(gains[1] > gains[0], "the signal column is elected");
            let (values, binned) = &columns[1];
            let index = SortedColumn::from_numeric(values);
            let col = ColumnRef::Numeric {
                values,
                index: &index,
            };
            let split = nominate(binned).finish(col, node, labels);
            assert_eq!(split.gain.to_bits(), gains[1].to_bits());
            let cuts = binned.cuts().cuts();
            let SplitTest::NumericLe(thr) = split.test else {
                panic!("numeric kernel returned {:?}", split.test)
            };
            let b = cuts.iter().position(|&c| c == thr).unwrap();
            let by_bin = route_children(node, &ys, RegAgg::default(), split.missing_left, |i| {
                let s = binned.id(i);
                (s != binned.missing_bin()).then_some(s <= b)
            });
            assert_eq!((split.left.clone(), split.right.clone()), by_bin);
            assert_eq!(split.n_left() + split.n_right(), node.len() as u64);
            let finished_here =
                best_hist_split_numeric_at(binned, node, labels, Impurity::Variance);
            assert_eq!(Some(split), finished_here);
        }
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
