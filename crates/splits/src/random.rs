//! Completely-random splits for extra-trees (paper Appendix F).
//!
//! A "completely random decision tree" resamples **one** attribute per node
//! and draws the split value uniformly from `[min, max]` of that attribute's
//! values in `Dx`. Unlike the exact kernels, a random split is accepted even
//! with zero gain — randomness, not greed, drives the structure.

use crate::condition::SplitTest;
use crate::exact::ColumnSplit;
use crate::impurity::{ClassCounts, LabelView, RegAgg};
use crate::sorted::{route_children, NodeRows};
use ts_datatable::{ValuesBuf, MISSING_CAT};
use tsrand::Rng;

/// Draws a random `Ai <= v` split with `v` uniform in `[min, max)` of the
/// present values. Returns `None` when fewer than two distinct present
/// values exist (no threshold can separate anything).
pub fn random_numeric_split<R: Rng>(
    values: &[f64],
    labels: LabelView<'_>,
    rng: &mut R,
) -> Option<ColumnSplit> {
    assert_eq!(values.len(), labels.len(), "values/labels length mismatch");
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        if !v.is_nan() {
            min = min.min(v);
            max = max.max(v);
        }
    }
    // NaN-safe: requires at least two distinct present values.
    if min.partial_cmp(&max) != Some(std::cmp::Ordering::Less) {
        return None;
    }
    let thr = rng.gen_range(min..max);
    let side = |i: usize| (!values[i].is_nan()).then(|| values[i] <= thr);
    build_split(SplitTest::NumericLe(thr), values.len(), side, labels)
}

/// Draws a random one-category split: picks one of the categories present in
/// `Dx` uniformly as the left set. Returns `None` when fewer than two
/// distinct categories are present.
pub fn random_cat_split<R: Rng>(
    codes: &[u32],
    labels: LabelView<'_>,
    rng: &mut R,
) -> Option<ColumnSplit> {
    assert_eq!(codes.len(), labels.len(), "codes/labels length mismatch");
    let present = crate::exact::distinct_categories(codes);
    if present.len() < 2 {
        return None;
    }
    let pick = present[rng.gen_range(0..present.len())];
    let side = |i: usize| (codes[i] != MISSING_CAT).then(|| codes[i] == pick);
    build_split(SplitTest::CatIn(vec![pick]), codes.len(), side, labels)
}

/// Draws a random split for a gathered buffer, dispatching on its kind.
pub fn random_split_for_column<R: Rng>(
    values: &ValuesBuf,
    labels: LabelView<'_>,
    rng: &mut R,
) -> Option<ColumnSplit> {
    match values {
        ValuesBuf::Numeric(v) => random_numeric_split(v, labels, rng),
        ValuesBuf::Categorical(c) => random_cat_split(c, labels, rng),
    }
}

/// Assembles child stats for a fixed test over `n` gathered positions;
/// `side` yields `Some(goes_left)` for a position or `None` for a missing
/// value. The children are accumulated in ascending position order, missing
/// rows where they stand (`route_children`) — the sums a recount of each
/// child's rows gives, to the last bit, like every other kernel's children.
fn build_split(
    test: SplitTest,
    n: usize,
    side: impl Fn(usize) -> Option<bool>,
    labels: LabelView<'_>,
) -> Option<ColumnSplit> {
    let (mut n_left, mut n_right) = (0u64, 0u64);
    for i in 0..n {
        match side(i) {
            Some(true) => n_left += 1,
            Some(false) => n_right += 1,
            None => {}
        }
    }
    if n_left == 0 || n_right == 0 {
        return None;
    }
    let missing_left = n_left >= n_right;
    let node = NodeRows::All(n);
    let (left, right) = match labels {
        LabelView::Class(ys, k) => {
            route_children(node, ys, ClassCounts::new(k), missing_left, side)
        }
        LabelView::Real(ys) => route_children(node, ys, RegAgg::default(), missing_left, side),
    };
    // Gain is not used for selection in extra-trees.
    Some(ColumnSplit {
        test,
        gain: 0.0,
        missing_left,
        left,
        right,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsrand::rngs::StdRng;
    use tsrand::SeedableRng;

    #[test]
    fn random_numeric_split_is_within_range_and_nonempty() {
        let mut rng = StdRng::seed_from_u64(4);
        let values = [1.0, 5.0, 3.0, 9.0];
        let ys = [0u32, 1, 0, 1];
        for _ in 0..50 {
            let s = random_numeric_split(&values, LabelView::Class(&ys, 2), &mut rng).unwrap();
            if let SplitTest::NumericLe(t) = s.test {
                assert!((1.0..9.0).contains(&t));
            } else {
                panic!("numeric expected");
            }
            assert!(s.n_left() >= 1 && s.n_right() >= 1);
            assert_eq!(s.n_left() + s.n_right(), 4);
        }
    }

    #[test]
    fn random_numeric_none_for_constant() {
        let mut rng = StdRng::seed_from_u64(4);
        let values = [2.0, 2.0, 2.0];
        let ys = [0u32, 1, 0];
        assert!(random_numeric_split(&values, LabelView::Class(&ys, 2), &mut rng).is_none());
    }

    #[test]
    fn random_numeric_none_for_all_missing() {
        let mut rng = StdRng::seed_from_u64(4);
        let values = [f64::NAN, f64::NAN];
        let ys = [0u32, 1];
        assert!(random_numeric_split(&values, LabelView::Class(&ys, 2), &mut rng).is_none());
    }

    #[test]
    fn random_cat_split_picks_present_category() {
        let mut rng = StdRng::seed_from_u64(8);
        let codes = [3, 5, 3, 5, 7];
        let ys = [0u32, 1, 0, 1, 0];
        for _ in 0..20 {
            let s = random_cat_split(&codes, LabelView::Class(&ys, 2), &mut rng).unwrap();
            if let SplitTest::CatIn(set) = &s.test {
                assert_eq!(set.len(), 1);
                assert!([3, 5, 7].contains(&set[0]));
            } else {
                panic!("categorical expected");
            }
        }
    }

    #[test]
    fn random_cat_none_for_single_category() {
        let mut rng = StdRng::seed_from_u64(8);
        let codes = [2, 2, 2];
        let ys = [0u32, 1, 0];
        assert!(random_cat_split(&codes, LabelView::Class(&ys, 2), &mut rng).is_none());
    }

    #[test]
    fn random_split_missing_routed_majority() {
        let mut rng = StdRng::seed_from_u64(1);
        let values = [1.0, 2.0, 3.0, f64::NAN];
        let ys = [0.5, 1.5, 2.5, 9.0];
        let s = random_numeric_split(&values, LabelView::Real(&ys), &mut rng).unwrap();
        assert_eq!(s.n_left() + s.n_right(), 4);
    }

    #[test]
    fn dispatch_matches_buffer_kind() {
        let mut rng = StdRng::seed_from_u64(2);
        let buf = ValuesBuf::Categorical(vec![0, 1, 0, 1]);
        let ys = [0u32, 1, 0, 1];
        let s = random_split_for_column(&buf, LabelView::Class(&ys, 2), &mut rng).unwrap();
        assert!(matches!(s.test, SplitTest::CatIn(_)));
    }
}
