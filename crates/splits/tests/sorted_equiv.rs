//! Kernel-equivalence property suite (satellite of the sorted-column split
//! engine): for random columns, labels, and node row subsets, the engine's
//! indexed kernels must pick **byte-identical** splits to the legacy
//! gathered kernels. Gains are compared bitwise: both feed the same
//! integer/float accumulations in the same row order, so there is no
//! tolerance to hide behind. Deterministic edge-case tests cover ties,
//! duplicates, NaN/missing routing, single-distinct, all-missing, and empty
//! subsets, and a sweep takes one column through every node size from the
//! whole column down to one row.

use ts_datatable::{SortedColumn, MISSING_CAT, MISSING_RANK};
use ts_splits::exact::{
    best_cat_split_classification, best_cat_split_regression, best_numeric_split,
    distinct_categories, ColumnSplit,
};
use ts_splits::impurity::{Impurity, LabelView, NodeStats};
use ts_splits::sorted::{
    best_cat_split_classification_at, best_cat_split_regression_at, best_numeric_split_at,
    best_split_at, best_split_in, distinct_categories_at, ColumnRef, NodeOrders, NodeRows,
};
use tscheck::prelude::*;

const K: u32 = 3;
const NV: u32 = 6;

fn ascending_rows(keep: &[bool]) -> Vec<u32> {
    keep.iter()
        .enumerate()
        .filter(|&(_, &k)| k)
        .map(|(i, _)| i as u32)
        .collect()
}

fn gather_f(values: &[f64], rows: &[u32]) -> Vec<f64> {
    rows.iter().map(|&r| values[r as usize]).collect()
}

fn gather_u(values: &[u32], rows: &[u32]) -> Vec<u32> {
    rows.iter().map(|&r| values[r as usize]).collect()
}

/// Splits must agree exactly; when both exist the gain must agree *bitwise*.
fn assert_same_split(
    legacy: &Option<ColumnSplit>,
    sorted: &Option<ColumnSplit>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(legacy, sorted);
    if let (Some(l), Some(s)) = (legacy, sorted) {
        prop_assert_eq!(
            l.gain.to_bits(),
            s.gain.to_bits(),
            "gain must match bitwise"
        );
    }
    Ok(())
}

fn numeric_values(n: usize) -> impl Strategy<Value = Vec<f64>> {
    tscheck::collection::vec(prop_oneof![5 => -40.0..40.0f64, 1 => Just(f64::NAN)], n)
}

fn cat_codes(n: usize) -> impl Strategy<Value = Vec<u32>> {
    tscheck::collection::vec(prop_oneof![5 => 0u32..NV, 1 => Just(MISSING_CAT)], n)
}

fn class_labels(n: usize) -> impl Strategy<Value = Vec<u32>> {
    tscheck::collection::vec(0u32..K, n)
}

fn real_labels(n: usize) -> impl Strategy<Value = Vec<f64>> {
    tscheck::collection::vec(-10.0..10.0f64, n)
}

fn keep_mask(n: usize) -> impl Strategy<Value = Vec<bool>> {
    tscheck::collection::vec(any::<bool>(), n)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Numeric classification over random subsets: the engine equals the
    /// legacy gather kernel, for Gini and entropy.
    #[test]
    fn numeric_class_subset_equivalence(
        (values, ys, keep) in (2usize..120).prop_flat_map(|n| {
            (numeric_values(n), class_labels(n), keep_mask(n))
        })
    ) {
        let rows = ascending_rows(&keep);
        let index = SortedColumn::from_numeric(&values);
        let legacy_view_data = gather_u(&ys, &rows);
        let legacy = best_numeric_split(
            &gather_f(&values, &rows),
            LabelView::Class(&legacy_view_data, K),
            Impurity::Gini,
        );
        for imp in [Impurity::Gini, Impurity::Entropy] {
            let gathered_vals = gather_f(&values, &rows);
            let legacy = if imp == Impurity::Gini {
                legacy.clone()
            } else {
                best_numeric_split(&gathered_vals, LabelView::Class(&legacy_view_data, K), imp)
            };
            let sorted = best_numeric_split_at(
                &values,
                &index,
                NodeRows::Subset(&rows),
                None,
                LabelView::Class(&ys, K),
                imp,
            );
            assert_same_split(&legacy, &sorted)?;
        }
    }

    /// Numeric regression over random subsets, including the whole-column
    /// `NodeRows::All` fast path.
    #[test]
    fn numeric_reg_subset_and_full_equivalence(
        (values, ys, keep) in (2usize..120).prop_flat_map(|n| {
            (numeric_values(n), real_labels(n), keep_mask(n))
        })
    ) {
        let index = SortedColumn::from_numeric(&values);
        let rows = ascending_rows(&keep);
        let gys = gather_f(&ys, &rows);
        let legacy = best_numeric_split(
            &gather_f(&values, &rows),
            LabelView::Real(&gys),
            Impurity::Variance,
        );
        let sorted = best_numeric_split_at(
            &values,
            &index,
            NodeRows::Subset(&rows),
            None,
            LabelView::Real(&ys),
            Impurity::Variance,
        );
        assert_same_split(&legacy, &sorted)?;
        // Full column: All(n) against the legacy kernel on the raw values.
        let full_legacy = best_numeric_split(&values, LabelView::Real(&ys), Impurity::Variance);
        let full_sorted = best_numeric_split_at(
            &values,
            &index,
            NodeRows::All(values.len()),
            None,
            LabelView::Real(&ys),
            Impurity::Variance,
        );
        assert_same_split(&full_legacy, &full_sorted)?;
    }

    /// One-vs-rest categorical classification over random subsets.
    #[test]
    fn cat_class_subset_equivalence(
        (codes, ys, keep) in (2usize..120).prop_flat_map(|n| {
            (cat_codes(n), class_labels(n), keep_mask(n))
        })
    ) {
        let rows = ascending_rows(&keep);
        let gys = gather_u(&ys, &rows);
        for imp in [Impurity::Gini, Impurity::Entropy] {
            let legacy = best_cat_split_classification(
                &gather_u(&codes, &rows),
                NV,
                &gys,
                K,
                imp,
            );
            let sorted =
                best_cat_split_classification_at(&codes, NV, NodeRows::Subset(&rows), &ys, K, imp);
            assert_same_split(&legacy, &sorted)?;
        }
    }

    /// Breiman categorical regression over random subsets: identical
    /// accumulation order makes even the float-sorted group means agree
    /// bitwise.
    #[test]
    fn cat_reg_subset_equivalence(
        (codes, ys, keep) in (2usize..120).prop_flat_map(|n| {
            (cat_codes(n), real_labels(n), keep_mask(n))
        })
    ) {
        let rows = ascending_rows(&keep);
        let gys = gather_f(&ys, &rows);
        let legacy = best_cat_split_regression(&gather_u(&codes, &rows), NV, &gys);
        let sorted = best_cat_split_regression_at(&codes, NV, NodeRows::Subset(&rows), &ys);
        assert_same_split(&legacy, &sorted)?;
    }

    /// The pooled distinct-category scan equals gather + sort + dedup.
    #[test]
    fn distinct_categories_subset_equivalence(
        (codes, keep) in (1usize..120).prop_flat_map(|n| (cat_codes(n), keep_mask(n)))
    ) {
        let rows = ascending_rows(&keep);
        let legacy = distinct_categories(&gather_u(&codes, &rows));
        let sorted = distinct_categories_at(&codes, NodeRows::Subset(&rows), NV);
        prop_assert_eq!(legacy, sorted);
    }

    /// The two engine entry points take the node's class totals from their
    /// caller instead of counting them: with the totals of the node handed
    /// in, rank selection and the node's own segment both return the
    /// gathered reference's candidate — gain bits, threshold, missing side
    /// and both children — for 2 to 9 classes, under Gini and entropy, over
    /// the whole column and a subset, whether none, a twentieth or all of
    /// the node's rows miss the column's value. The values take ties, NaN,
    /// both zeros and both infinities, and the order [`NodeOrders`] derives
    /// from the index's rank is, at the root and in the node's segment, the
    /// stable sort of the node's present rows.
    #[test]
    fn handed_down_totals_equivalence(
        (k, missing, xs, ys, keep) in (2u32..=9, 0usize..3, 2usize..160).prop_flat_map(|(k, missing, n)| {
            let xs = tscheck::collection::vec(
                prop_oneof![
                    12 => -40.0..40.0f64,
                    8 => (-6..6i32).prop_map(f64::from),
                    1 => Just(f64::NAN),
                    1 => Just(0.0),
                    1 => Just(-0.0),
                    1 => Just(f64::INFINITY),
                    1 => Just(f64::NEG_INFINITY),
                ],
                n,
            );
            (Just(k), Just(missing), xs, tscheck::collection::vec(0..k, n), keep_mask(n))
        }),
        holes in tscheck::collection::vec(0u32..20, 160),
    ) {
        let values: Vec<f64> = xs
            .iter()
            .zip(&holes)
            .map(|(&x, &hole)| match missing {
                0 => x,
                1 if hole > 0 => x,
                _ => f64::NAN,
            })
            .collect();
        let index = SortedColumn::from_numeric(&values);
        let col = ColumnRef::Numeric { values: &values, index: &index };
        let labels = LabelView::Class(&ys, k);
        let all: Vec<u32> = (0..values.len() as u32).collect();
        let subset = ascending_rows(&keep);
        for (rows, node) in [
            (&all, NodeRows::All(values.len())),
            (&subset, NodeRows::Subset(&subset)),
        ] {
            let gys = gather_u(&ys, rows);
            let stats = node.stats(labels);
            prop_assert_eq!(&stats, &NodeStats::from_view(LabelView::Class(&gys, k)));
            let mut orders = NodeOrders::new([&index], values.len());
            let stable_sort = |rows: &[u32]| {
                let mut present: Vec<u32> =
                    rows.iter().copied().filter(|&r| !values[r as usize].is_nan()).collect();
                present.sort_by(|&a, &b| values[a as usize].total_cmp(&values[b as usize]));
                present
            };
            prop_assert_eq!(orders.segment(0, &orders.root()), &stable_sort(&all)[..]);
            let (segs, _) = orders.split(&orders.root(), rows);
            prop_assert_eq!(orders.segment(0, &segs), &stable_sort(rows)[..]);
            for imp in [Impurity::Gini, Impurity::Entropy] {
                let reference =
                    best_numeric_split(&gather_f(&values, rows), LabelView::Class(&gys, k), imp);
                prop_assert!(missing < 2 || reference.is_none());
                let at = best_split_at(col, node, &stats, labels, imp)
                    .map(|c| c.finish(col, node, labels));
                assert_same_split(&reference, &at)?;
                let within = best_split_in(col, orders.segment(0, &segs), node, &stats, labels, imp)
                    .map(|c| c.finish(col, node, labels));
                assert_same_split(&reference, &within)?;
            }
        }
    }
}

/// The totals are the caller's word: debug builds check them against the
/// scan buffer, so a caller that hands in another node's counts — here one
/// label moved from class 0 to class 1, the total unchanged — is caught.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "totals handed to the scan")]
fn wrong_totals_trip_the_debug_assertion() {
    let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
    let ys = [0u32, 0, 1, 1, 2, 2];
    let wrong = [1u32, 0, 1, 1, 2, 2];
    let index = SortedColumn::from_numeric(&values);
    let col = ColumnRef::Numeric {
        values: &values,
        index: &index,
    };
    let node = NodeRows::All(values.len());
    let stats = node.stats(LabelView::Class(&wrong, K));
    best_split_at(col, node, &stats, LabelView::Class(&ys, K), Impurity::Gini);
}

/// Runs the engine's numeric kernel over one column/labels/subset triple
/// and asserts it agrees with the legacy gathered kernel.
fn check_numeric_class(values: &[f64], ys: &[u32], rows: &[u32], imp: Impurity) {
    let index = SortedColumn::from_numeric(values);
    let gys: Vec<u32> = rows.iter().map(|&r| ys[r as usize]).collect();
    let legacy = best_numeric_split(&gather_f(values, rows), LabelView::Class(&gys, K), imp);
    let sorted = best_numeric_split_at(
        values,
        &index,
        NodeRows::Subset(rows),
        None,
        LabelView::Class(ys, K),
        imp,
    );
    assert_eq!(legacy, sorted, "engine diverged");
}

#[test]
fn ties_and_duplicates_pick_the_same_boundary() {
    // Heavy duplicates force tie-breaks on both the value ordering (by row
    // id) and the boundary midpoint; both must land on the same split.
    let values = [2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 3.0, 3.0, 2.0, 1.0];
    let ys = [0, 1, 0, 1, 0, 1, 2, 2, 0, 1];
    let rows: Vec<u32> = (0..values.len() as u32).collect();
    check_numeric_class(&values, &ys, &rows, Impurity::Gini);
    check_numeric_class(&values, &ys, &rows[2..8], Impurity::Entropy);
}

#[test]
fn nan_rows_route_identically() {
    // Missing rows are absent from the presorted order but must still be
    // routed (majority side) into the chosen split's child stats.
    let values = [1.0, f64::NAN, 3.0, f64::NAN, 5.0, 2.0, f64::NAN, 4.0];
    let ys = [0, 1, 2, 1, 2, 0, 0, 2];
    let rows: Vec<u32> = (0..values.len() as u32).collect();
    check_numeric_class(&values, &ys, &rows, Impurity::Gini);
    check_numeric_class(&values, &ys, &[1, 3, 6], Impurity::Gini); // all-missing subset
}

#[test]
fn single_distinct_value_yields_no_split() {
    let values = [7.0; 6];
    let ys = [0, 1, 0, 1, 0, 1];
    check_numeric_class(&values, &ys, &[0, 2, 3, 5], Impurity::Gini);
    let index = SortedColumn::from_numeric(&values);
    assert_eq!(
        best_numeric_split_at(
            &values,
            &index,
            NodeRows::All(6),
            None,
            LabelView::Class(&ys, K),
            Impurity::Gini,
        ),
        None
    );
}

#[test]
fn all_missing_column_yields_no_split() {
    let values = [f64::NAN; 5];
    let ys = [0, 1, 2, 0, 1];
    let rows: Vec<u32> = (0..5).collect();
    check_numeric_class(&values, &ys, &rows, Impurity::Gini);
    let codes = [MISSING_CAT; 5];
    assert_eq!(
        best_cat_split_classification_at(
            &codes,
            NV,
            NodeRows::Subset(&rows),
            &ys,
            K,
            Impurity::Gini
        ),
        None
    );
    assert_eq!(
        distinct_categories_at(&codes, NodeRows::Subset(&rows), NV),
        Vec::<u32>::new()
    );
}

#[test]
fn empty_subset_yields_no_split() {
    let values = [1.0, 2.0, 3.0];
    let ys = [0u32, 1, 2];
    check_numeric_class(&values, &ys, &[], Impurity::Gini);
    let codes = [0u32, 1, 2];
    assert_eq!(
        best_cat_split_classification_at(&codes, NV, NodeRows::Subset(&[]), &ys, K, Impurity::Gini),
        None
    );
    let reals = [1.0, 2.0, 3.0];
    assert_eq!(
        best_cat_split_regression_at(&codes, NV, NodeRows::Subset(&[]), &reals),
        None
    );
}

/// One 10 007-row column with ties, a NaN in every eleventh row and an
/// all-NaN stretch, taken through every node size the engine meets — the
/// whole column (as `All` and as a subset), every 2nd … 128th row, two rows,
/// one row, rows that are all missing in the column, and nodes at the last
/// row id and at the top of the presorted order, whose bit sits in the last
/// word of the rank bitmap — under all three impurities.
#[test]
fn node_size_sweep_matches_the_gathered_reference() {
    let n = 10_007usize;
    let values: Vec<f64> = (0..n)
        .map(|r| {
            if r % 11 == 3 || (4_000..4_100).contains(&r) {
                f64::NAN
            } else {
                ((r * 7_919) % 1_013) as f64 / 8.0 - 60.0
            }
        })
        .collect();
    let class: Vec<u32> = (0..n)
        .map(|r| (((r * 31) % 97) as u32 + u32::from(values[r] > 5.0)) % K)
        .collect();
    let real: Vec<f64> = (0..n)
        .map(|r| ((r * 13) % 29) as f64 - if values[r] > -10.0 { 7.5 } else { 0.0 })
        .collect();
    let index = SortedColumn::from_numeric(&values);

    let mut nodes: Vec<Vec<u32>> = (0..8)
        .map(|shift| (0..n as u32).step_by(1 << shift).collect())
        .collect();
    nodes.push(vec![17, 9_000]);
    nodes.push(vec![5_000]);
    nodes.push((4_000..4_100).collect()); // all missing in the column
    nodes.push(vec![3, 4_050, n as u32 - 1]); // one present row, the last id
    nodes.push(vec![n as u32 - 2, n as u32 - 1]);
    // The five rows ranked highest.
    let first = index.numeric_present() as u32 - 5;
    let top: Vec<u32> = (0..n as u32)
        .filter(|&r| {
            let place = index.numeric_rank()[r as usize];
            place != MISSING_RANK && place >= first
        })
        .collect();
    nodes.push(top);

    let check = |node: NodeRows<'_>, rows: &[u32]| {
        let gathered = gather_f(&values, rows);
        let (gclass, greal) = (gather_u(&class, rows), gather_f(&real, rows));
        for imp in [Impurity::Gini, Impurity::Entropy] {
            let legacy = best_numeric_split(&gathered, LabelView::Class(&gclass, K), imp);
            let view = LabelView::Class(&class, K);
            let sorted = best_numeric_split_at(&values, &index, node, None, view, imp);
            assert_eq!(legacy, sorted, "{} rows, {imp:?}", rows.len());
        }
        let legacy = best_numeric_split(&gathered, LabelView::Real(&greal), Impurity::Variance);
        let view = LabelView::Real(&real);
        let sorted = best_numeric_split_at(&values, &index, node, None, view, Impurity::Variance);
        assert_eq!(legacy, sorted, "{} rows, variance", rows.len());
        legacy.is_some()
    };
    assert!(check(NodeRows::All(n), &nodes[0]));
    let mut split = 0;
    for rows in &nodes {
        split += usize::from(check(NodeRows::Subset(rows), rows));
    }
    // The strided nodes, the two-row node and the top-of-order node split;
    // the one-row, one-present-row and all-missing nodes cannot.
    assert!(split >= 9, "{split} of {} nodes split", nodes.len());
}
