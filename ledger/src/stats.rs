//! Order statistics and the least-squares line the ledger reports.

/// The smallest sample: the statistic every gated timing uses, because the
/// sandbox's noise only ever adds time (README, "Sizing study").
pub fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The largest sample.
pub fn worst(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0..=1) by linear interpolation between the two
/// nearest order statistics. Panics on an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let v = sorted(xs);
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = at.floor() as usize;
    let hi = at.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// The median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method) gives them — the rule the driver
/// applies to ten runs, so `selfcheck` and `compare` judge spread the same
/// way. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the spread the driver
/// holds against a metric's bound.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// Ordinary least squares `y = intercept + slope * x`; returns
/// `(intercept, slope)`. Needs two distinct `x`.
pub fn least_squares(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
    let n = xs.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    assert!(sxx > 0.0, "least squares needs two distinct x values");
    let slope = sxy / sxx;
    (my - slope * mx, slope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_worst_median() {
        let xs = [3.0, 1.0, 2.0, 10.0];
        assert_eq!(best(&xs), 1.0);
        assert_eq!(worst(&xs), 10.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_recovers_a_line() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        let ys: Vec<f64> = xs.iter().map(|x| 20.0 + 5.0 * x).collect();
        let (a, b) = least_squares(&xs, &ys);
        assert!((a - 20.0).abs() < 1e-9 && (b - 5.0).abs() < 1e-9);
    }
}
