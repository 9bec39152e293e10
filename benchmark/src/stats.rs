//! Order statistics over a handful of timing samples.

/// The samples sorted ascending (NaN-free input assumed).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match what an outside check computes.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => return None,
        1 => return Some((v[0], v[0])),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the bounds are judged against. Zero for fewer than two samples.
pub fn spread(xs: &[f64]) -> f64 {
    match (quartiles(xs), median(xs)) {
        (Some((q1, q3)), Some(m)) if xs.len() > 1 && m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples above it, as `(percentile, value)`, by the
/// nearest-rank rule. `None` below twenty samples, where even the median
/// has fewer than ten above it.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find_map(|p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((spread(&xs) - 3.0 / 3.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0]), 0.0);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let five: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail_percentile(&five), None, "n = 5 has no tail");
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        // p50 of 11 is rank 6, with 5 beyond: nothing qualifies.
        assert_eq!(tail_percentile(&eleven), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty), Some((50.0, 10.0)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90.0, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99.0, 990.0)));
    }
}
