//! Order statistics used for every reported timing: a median with its
//! quartiles and sample count. No tail percentile is reported because no
//! run of this benchmark has ten samples beyond one.

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The lower quartile by nearest rank: the `n/4`-th smallest of `n`
/// samples (the 3rd of 10, the only one of 1). The statistic for a rep
/// time: interference from the shared host only ever adds time, so the
/// quarter of reps least disturbed repeats far better between samples
/// than the median, without being the single luckiest rep.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "lower quartile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 4]
}

/// First quartile, median and third quartile by the exclusive method —
/// the same cut points Python's `statistics.quantiles(xs, n=4)` returns,
/// which is how the driver judges spread. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn lower_quartile_is_nearest_rank() {
        assert_eq!(lower_quartile(&[7.0]), 7.0);
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&xs), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }
}
