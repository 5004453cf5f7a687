//! Scalar summary statistics used by the experiment harness.

/// Arithmetic mean of a slice; 0.0 when empty.
///
/// # Example
///
/// ```
/// assert_eq!(reese_stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Percentage change from `baseline` to `value`, signed.
///
/// Returns 0.0 when the baseline is zero. A negative result means
/// `value` is below the baseline — e.g. REESE IPC 1.72 against baseline
/// 2.00 yields −14%.
///
/// # Example
///
/// ```
/// let overhead = reese_stats::percent_delta(2.0, 1.72);
/// assert!((overhead + 14.0).abs() < 1e-9);
/// ```
pub fn percent_delta(baseline: f64, value: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (value - baseline) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_empty() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn percent_delta_signs() {
        assert!(percent_delta(2.0, 1.0) < 0.0);
        assert!(percent_delta(1.0, 2.0) > 0.0);
        assert_eq!(percent_delta(0.0, 1.0), 0.0);
        assert!((percent_delta(2.0, 1.72) + 14.0).abs() < 1e-9);
    }
}
