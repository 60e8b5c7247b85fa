//! The scan cores across their consumers: the mergeable PLANET statistics
//! ([`NumericHistogram`], `cat_class_stats` → `best_cat_from_class_stats`)
//! must pick the split the engine's one-pass kernels pick on the union of
//! the partitions.
//!
//! Both sides run the same monomorphised cores; what differs is how the
//! aggregates are built — per machine and merged, versus one pass in row
//! order. Class counts are integers, so classification must agree bitwise;
//! regression sums associate differently, so gains agree to rounding while
//! the chosen boundary, missing routing and child sizes stay equal.
//!
//! Replay a failure with `TS_SEED=<printed seed> cargo test <test_name>`.

use ts_datatable::{BinnedColumn, MISSING_CAT};
use ts_splits::exact::{best_cat_split_classification, ColumnSplit};
use ts_splits::hist::best_hist_split_numeric_at;
use ts_splits::histogram::{best_cat_from_class_stats, cat_class_stats, NumericHistogram};
use ts_splits::impurity::{ClassCounts, Impurity, LabelAgg, LabelView, RegAgg};
use ts_splits::sorted::NodeRows;
use tscheck::prelude::*;

const N_CLASSES: u32 = 3;
const N_VALUES: u32 = 6;

fn numeric_column() -> impl Strategy<Value = Vec<f64>> {
    (2usize..150).prop_flat_map(|n| {
        tscheck::collection::vec(prop_oneof![4 => -50.0..50.0f64, 1 => Just(f64::NAN)], n)
    })
}

fn categorical_column() -> impl Strategy<Value = Vec<u32>> {
    (2usize..150).prop_flat_map(|n| {
        tscheck::collection::vec(prop_oneof![5 => 0u32..N_VALUES, 1 => Just(MISSING_CAT)], n)
    })
}

/// Builds one histogram per machine over the row partition `row % k` and
/// folds them, the way PLANET's driver does.
fn merged_histogram<A: LabelAgg>(
    binned: &BinnedColumn,
    values: &[f64],
    ys: &[A::Label],
    k: usize,
    empty: A,
) -> NumericHistogram<A> {
    let cuts = binned.cuts();
    let mut parts = vec![NumericHistogram::new(cuts.n_bins(), empty); k];
    for (row, (&v, &y)) in values.iter().zip(ys).enumerate() {
        parts[row % k].add(cuts, v, y);
    }
    let (first, rest) = parts.split_first_mut().expect("k >= 1");
    rest.iter().for_each(|part| first.merge(part));
    first.clone()
}

fn assert_bitwise_equal(merged: &ColumnSplit, one_pass: &ColumnSplit) -> Result<(), TestCaseError> {
    prop_assert_eq!(&merged.test, &one_pass.test);
    prop_assert_eq!(merged.gain.to_bits(), one_pass.gain.to_bits());
    prop_assert_eq!(merged.missing_left, one_pass.missing_left);
    prop_assert_eq!(&merged.left, &one_pass.left);
    prop_assert_eq!(&merged.right, &one_pass.right);
    Ok(())
}

proptest! {
    #[test]
    fn merged_class_histogram_matches_one_pass_kernel_bitwise(
        values in numeric_column(),
        label_seed in tscheck::collection::vec(0u32..N_CLASSES, 150),
        k in 1usize..6,
        bins in 2usize..17,
    ) {
        let ys = &label_seed[..values.len()];
        let binned = BinnedColumn::build(&values, bins);
        let merged = merged_histogram(&binned, &values, ys, k, ClassCounts::new(N_CLASSES))
            .best_split(binned.cuts(), Impurity::Gini);
        let one_pass = best_hist_split_numeric_at(
            &binned,
            NodeRows::All(values.len()),
            LabelView::Class(ys, N_CLASSES),
            Impurity::Gini,
        );
        match (merged, one_pass) {
            (None, None) => {}
            (Some(m), Some(o)) => assert_bitwise_equal(&m, &o)?,
            (m, o) => prop_assert!(false, "existence disagrees: merged {:?} vs one-pass {:?}", m, o),
        }
    }

    #[test]
    fn merged_reg_histogram_matches_one_pass_kernel_to_rounding(
        values in numeric_column(),
        label_seed in tscheck::collection::vec(-50.0..50.0f64, 150),
        k in 1usize..6,
        bins in 2usize..17,
    ) {
        let ys = &label_seed[..values.len()];
        let binned = BinnedColumn::build(&values, bins);
        let merged = merged_histogram(&binned, &values, ys, k, RegAgg::default())
            .best_split(binned.cuts(), Impurity::Variance);
        let one_pass = best_hist_split_numeric_at(
            &binned,
            NodeRows::All(values.len()),
            LabelView::Real(ys),
            Impurity::Variance,
        );
        match (merged, one_pass) {
            (None, None) => {}
            (Some(m), Some(o)) => {
                prop_assert_eq!(&m.test, &o.test);
                prop_assert_eq!(m.missing_left, o.missing_left);
                prop_assert_eq!((m.n_left(), m.n_right()), (o.n_left(), o.n_right()));
                prop_assert!((m.gain - o.gain).abs() <= 1e-9 * o.gain.abs(),
                    "gain diverged: merged {} vs one-pass {}", m.gain, o.gain);
            }
            (m, o) => prop_assert!(false, "existence disagrees: merged {:?} vs one-pass {:?}", m, o),
        }
    }

    #[test]
    fn merged_class_category_stats_match_exact_kernel_bitwise(
        codes in categorical_column(),
        label_seed in tscheck::collection::vec(0u32..N_CLASSES, 150),
        k in 1usize..6,
    ) {
        let ys = &label_seed[..codes.len()];
        let mut per_value = vec![ClassCounts::new(N_CLASSES); N_VALUES as usize];
        let mut missing = ClassCounts::new(N_CLASSES);
        for machine in 0..k {
            let rows = (machine..codes.len()).step_by(k);
            let (part_codes, part_ys): (Vec<u32>, Vec<u32>) = rows.map(|r| (codes[r], ys[r])).unzip();
            let (pv, miss) = cat_class_stats(&part_codes, &part_ys, N_VALUES, N_CLASSES);
            per_value.iter_mut().zip(&pv).for_each(|(into, from)| into.merge(from));
            missing.merge(&miss);
        }
        let merged = best_cat_from_class_stats(&per_value, &missing, Impurity::Gini);
        let exact = best_cat_split_classification(&codes, N_VALUES, ys, N_CLASSES, Impurity::Gini);
        match (merged, exact) {
            (None, None) => {}
            (Some(m), Some(e)) => assert_bitwise_equal(&m, &e)?,
            (m, e) => prop_assert!(false, "existence disagrees: merged {:?} vs exact {:?}", m, e),
        }
    }
}
