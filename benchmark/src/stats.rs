//! Order statistics for reporting samples.

/// Median of `values`; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads printed here match ones computed with Python
/// from the same samples. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    match s.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (s[0], s[0]),
        len => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile range as a share of the median (0 when the median
/// is 0).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The lowest value, or the highest when higher is better.
pub fn best(values: &[f64], higher_is_better: bool) -> f64 {
    let s = sorted(values);
    let pick = if higher_is_better {
        s.last()
    } else {
        s.first()
    };
    pick.copied().unwrap_or(f64::NAN)
}

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    s[rank(p, s.len()).clamp(1, s.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0).ceil() as usize
}

/// The highest of p99.9, p99, p90 and p50 that still has at least ten
/// samples beyond it, with its value; `None` below 20 samples.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| values.len().saturating_sub(rank(p, values.len())) >= 10)
        .map(|p| (p, percentile(values, p)))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&[1.0; 19]), None);
    }

    #[test]
    fn best_follows_direction() {
        assert_eq!(best(&[3.0, 1.0, 2.0], false), 1.0);
        assert_eq!(best(&[3.0, 1.0, 2.0], true), 3.0);
        assert!(best(&[], true).is_nan());
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }
}
