//! Property-based tests for the split kernels: the invariants that make
//! "exact training" exact, checked over randomised inputs.

use ts_datatable::{Column, MISSING_CAT};
use ts_splits::condition::{partition_rows, partition_rows_buf};
use ts_splits::exact::{best_numeric_split, best_split_for_column, ColumnSplit};
use ts_splits::histogram::{BinCuts, NumericHistogram};
use ts_splits::impurity::{Impurity, LabelView, NodeStats, RegAgg};
use ts_splits::sketch::QuantileSketch;
use ts_splits::SplitTest;
use tscheck::prelude::*;

fn class_data() -> impl Strategy<Value = (Vec<f64>, Vec<u32>)> {
    (2usize..120).prop_flat_map(|n| {
        (
            tscheck::collection::vec(prop_oneof![4 => -50.0..50.0f64, 1 => Just(f64::NAN)], n),
            tscheck::collection::vec(0u32..3, n),
        )
    })
}

/// The row partition as it was written up to commit cc275d2 — a `Value` built
/// and matched per row, a branch into two pushes — kept as the reference of
/// the branch-free one.
fn push_loop_partition(
    col: &Column,
    ix: &[u32],
    test: &SplitTest,
    missing_left: bool,
) -> (Vec<u32>, Vec<u32>) {
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for &r in ix {
        if test
            .goes_left(col.value(r as usize))
            .unwrap_or(missing_left)
        {
            left.push(r);
        } else {
            right.push(r);
        }
    }
    (left, right)
}

/// A column with missing cells and a test of its kind: thresholds inside,
/// at the edge of and outside the values; `CatIn` sets that are empty, that
/// stop below the column's largest code, and that hold every code.
fn column_and_test() -> impl Strategy<Value = (Column, SplitTest)> {
    let numeric = (
        tscheck::collection::vec(
            prop_oneof![6 => -10.0..10.0f64, 2 => (-4..4i32).prop_map(f64::from), 1 => Just(f64::NAN)],
            1..200,
        ),
        prop_oneof![6 => -10.0..10.0f64, 1 => Just(-11.0f64), 1 => Just(11.0f64), 1 => Just(3.0f64)],
    )
        .prop_map(|(xs, t)| (Column::Numeric(xs), SplitTest::NumericLe(t)));
    let categorical = (1u32..12).prop_flat_map(|n_values| {
        (
            tscheck::collection::vec(
                prop_oneof![8 => 0..n_values, 1 => Just(MISSING_CAT)],
                1..200,
            ),
            tscheck::collection::vec(0..n_values, 0..6),
            any::<bool>(),
        )
            .prop_map(move |(codes, set, whole_domain)| {
                let set = if whole_domain {
                    (0..n_values).collect()
                } else {
                    set
                };
                (Column::Categorical(codes), SplitTest::cat_in(set))
            })
    });
    prop_oneof![numeric, categorical]
}

proptest! {
    /// The branch-free partition routes every row as the push loop did, over
    /// the whole column and over a sparse ascending subset, whichever side
    /// missing cells go to — empty sides included — and sized either way:
    /// for any outcome (`partition_rows`) or from a split's child counts
    /// (`partition_rows_buf`).
    #[test]
    fn branch_free_partition_equals_the_push_loop(
        (col, test) in column_and_test(),
        missing_left in any::<bool>(),
        keep in tscheck::collection::vec(any::<bool>(), 200),
    ) {
        let all: Vec<u32> = (0..col.len() as u32).collect();
        let sparse: Vec<u32> = all.iter().copied().filter(|&r| keep[r as usize]).collect();
        for ix in [&all, &sparse, &Vec::new()] {
            let want = push_loop_partition(&col, ix, &test, missing_left);
            prop_assert_eq!(&partition_rows(&col, ix, &test, missing_left), &want);
            let counted = |rows: &[u32]| {
                let n = rows.len() as u64;
                NodeStats::Reg(RegAgg { n, ..RegAgg::default() })
            };
            let split = ColumnSplit {
                test: test.clone(),
                gain: 0.0,
                missing_left,
                left: counted(&want.0),
                right: counted(&want.1),
            };
            prop_assert_eq!(&partition_rows_buf(&col, ix, &split), &want);
        }
    }

    /// The split's child counts partition the rows and gain is positive;
    /// recomputing impurities from the returned children reproduces the gain
    /// over the present rows.
    #[test]
    fn numeric_split_children_partition_rows((values, ys) in class_data()) {
        let view = LabelView::Class(&ys, 3);
        if let Some(s) = best_numeric_split(&values, view, Impurity::Gini) {
            prop_assert!(s.gain > 0.0);
            prop_assert_eq!(s.n_left() + s.n_right(), values.len() as u64);
            // Re-derive child stats by routing every row with the returned
            // test + missing_left, and compare.
            let col = Column::Numeric(values.clone());
            let ix: Vec<u32> = (0..values.len() as u32).collect();
            let (l, r) = partition_rows(&col, &ix, &s.test, s.missing_left);
            prop_assert_eq!(l.len() as u64, s.n_left());
            prop_assert_eq!(r.len() as u64, s.n_right());
            let ls = NodeStats::from_view_positions(view, l.iter().map(|&p| p as usize));
            let rs = NodeStats::from_view_positions(view, r.iter().map(|&p| p as usize));
            prop_assert_eq!(&ls, &s.left);
            prop_assert_eq!(&rs, &s.right);
        }
    }

    /// Exhaustive threshold check: no candidate boundary beats the kernel's
    /// reported gain (exactness of Case 1).
    #[test]
    fn numeric_split_is_optimal((values, ys) in class_data()) {
        let view = LabelView::Class(&ys, 3);
        let best = best_numeric_split(&values, view, Impurity::Gini);
        // Try every present value as a threshold.
        let mut best_brute: f64 = 0.0;
        let present: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        let total = NodeStats::from_view_positions(
            view,
            values.iter().enumerate().filter(|(_, v)| !v.is_nan()).map(|(i, _)| i),
        );
        let total_w = total.weighted_impurity(Impurity::Gini);
        for &thr in &present {
            let lpos: Vec<usize> = values
                .iter()
                .enumerate()
                .filter(|(_, &v)| !v.is_nan() && v <= thr)
                .map(|(i, _)| i)
                .collect();
            let rpos: Vec<usize> = values
                .iter()
                .enumerate()
                .filter(|(_, &v)| !v.is_nan() && v > thr)
                .map(|(i, _)| i)
                .collect();
            if lpos.is_empty() || rpos.is_empty() {
                continue;
            }
            let lw = NodeStats::from_view_positions(view, lpos.into_iter())
                .weighted_impurity(Impurity::Gini);
            let rw = NodeStats::from_view_positions(view, rpos.into_iter())
                .weighted_impurity(Impurity::Gini);
            best_brute = best_brute.max(total_w - lw - rw);
        }
        let kernel_gain = best.map_or(0.0, |s| s.gain);
        prop_assert!(
            (kernel_gain - best_brute).abs() < 1e-9 * best_brute.abs().max(1.0),
            "kernel {} vs brute {}", kernel_gain, best_brute
        );
    }

    /// partition_rows: output is a disjoint, order-preserving cover of input.
    #[test]
    fn partition_rows_covers_input(
        values in tscheck::collection::vec(
            prop_oneof![4 => -10.0..10.0f64, 1 => Just(f64::NAN)], 1..80),
        thr in -10.0..10.0f64,
        missing_left in any::<bool>(),
    ) {
        let col = Column::Numeric(values.clone());
        let ix: Vec<u32> = (0..values.len() as u32).collect();
        let (l, r) = partition_rows(&col, &ix, &SplitTest::NumericLe(thr), missing_left);
        let mut merged: Vec<u32> = l.iter().chain(r.iter()).copied().collect();
        merged.sort_unstable();
        prop_assert_eq!(merged, ix);
        prop_assert!(l.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(r.windows(2).all(|w| w[0] < w[1]));
    }

    /// Histograms are mergeable: building over two partitions and merging
    /// gives the same histogram as one pass.
    #[test]
    fn histogram_merge_associative(
        (values, ys) in class_data(),
        cut_at in 0usize..120,
    ) {
        let cuts = BinCuts::equi_depth(&values, 8);
        let k = cut_at.min(values.len());
        let mut whole = NumericHistogram::new_class(cuts.n_bins(), 3);
        let mut a = NumericHistogram::new_class(cuts.n_bins(), 3);
        let mut b = NumericHistogram::new_class(cuts.n_bins(), 3);
        for (i, (&v, &y)) in values.iter().zip(&ys).enumerate() {
            whole.add_class(&cuts, v, y);
            if i < k { a.add_class(&cuts, v, y) } else { b.add_class(&cuts, v, y) }
        }
        a.merge(&b);
        prop_assert_eq!(a, whole);
    }

    /// The histogram split never beats the exact split (approximation is a
    /// restriction of the candidate set).
    #[test]
    fn histogram_never_beats_exact((values, ys) in class_data()) {
        let view = LabelView::Class(&ys, 3);
        let exact_gain = best_numeric_split(&values, view, Impurity::Gini)
            .map_or(0.0, |s| s.gain);
        let cuts = BinCuts::equi_depth(&values, 8);
        let mut h = NumericHistogram::new_class(cuts.n_bins(), 3);
        for (&v, &y) in values.iter().zip(&ys) {
            h.add_class(&cuts, v, y);
        }
        let approx_gain = h.best_split(&cuts, Impurity::Gini).map_or(0.0, |s| s.gain);
        prop_assert!(approx_gain <= exact_gain + 1e-9,
            "approx {} > exact {}", approx_gain, exact_gain);
    }

    /// Sketch ranks stay within the coarse error budget.
    #[test]
    fn sketch_rank_error_bounded(
        values in tscheck::collection::vec(-1000.0..1000.0f64, 100..2000),
    ) {
        let mut s = QuantileSketch::new(64);
        for &v in &values {
            s.push(v, 1.0);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let n = sorted.len();
        for q in [0.25, 0.5, 0.75] {
            let v = sorted[((q * n as f64) as usize).min(n - 1)];
            let true_rank = sorted.iter().filter(|&&x| x <= v).count() as f64;
            let est = s.rank(v);
            prop_assert!(
                (est - true_rank).abs() <= n as f64 * 0.1 + 2.0,
                "rank {} vs {} (n={})", est, true_rank, n
            );
        }
    }

    /// Regression kernels: same partition/consistency invariant as
    /// classification.
    #[test]
    fn regression_split_children_partition_rows(
        values in tscheck::collection::vec(
            prop_oneof![4 => -50.0..50.0f64, 1 => Just(f64::NAN)], 2..100),
        seed in any::<u64>(),
    ) {
        // Derive ys from values + seed so the label distribution is varied
        // but deterministic.
        let ys: Vec<f64> = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let base = if v.is_nan() { 0.0 } else { *v };
                base + ((seed.wrapping_add(i as u64) % 17) as f64)
            })
            .collect();
        let view = LabelView::Real(&ys);
        if let Some(s) = best_numeric_split(&values, view, Impurity::Variance) {
            prop_assert_eq!(s.n_left() + s.n_right(), values.len() as u64);
            prop_assert!(s.gain > 0.0);
        }
    }

    /// A categorical column's dispatched split partitions its rows as counted.
    #[test]
    fn categorical_split_children_partition_rows(
        codes in tscheck::collection::vec(0u32..6, 2..100),
        ys in tscheck::collection::vec(0u32..3, 100),
    ) {
        let n = codes.len();
        let ys = &ys[..n];
        let col = Column::Categorical(codes.clone());
        let view = LabelView::Class(ys, 3);
        if let Some(s) = best_split_for_column(
            &col,
            ts_datatable::AttrType::Categorical { n_values: 6 },
            view,
            Impurity::Gini,
        ) {
            prop_assert_eq!(s.n_left() + s.n_right(), n as u64);
            let ix: Vec<u32> = (0..n as u32).collect();
            let (l, r) = partition_rows(&col, &ix, &s.test, s.missing_left);
            prop_assert_eq!(l.len() as u64, s.n_left());
            prop_assert_eq!(r.len() as u64, s.n_right());
        }
    }
}
