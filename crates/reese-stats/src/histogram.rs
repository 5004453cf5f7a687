//! Fixed-bucket histograms for distribution statistics.

use std::fmt;

/// A histogram over `u64` samples with unit-width buckets up to a cap.
///
/// Samples at or above the cap land in an overflow bucket. This is used
/// for quantities with small natural ranges: R-stream Queue occupancy,
/// issue-slot usage per cycle, detection latency in cycles, and similar.
///
/// # Example
///
/// ```
/// use reese_stats::Histogram;
///
/// let mut occupancy = Histogram::new("rqueue_occupancy", 32);
/// occupancy.record(0);
/// occupancy.record(5);
/// occupancy.record(5);
/// assert_eq!(occupancy.count(5), 2);
/// assert_eq!(occupancy.samples(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    name: &'static str,
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u128,
    max_seen: u64,
}

impl Histogram {
    /// Creates a histogram with buckets `0..cap` plus an overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(name: &'static str, cap: usize) -> Self {
        assert!(cap > 0, "histogram needs at least one bucket");
        Self {
            name,
            buckets: vec![0; cap],
            overflow: 0,
            total: 0,
            sum: 0,
            max_seen: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        if (value as usize) < self.buckets.len() {
            self.buckets[value as usize] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
        self.sum += value as u128;
        self.max_seen = self.max_seen.max(value);
    }

    /// Records `n` identical samples at once (a no-op when `n == 0`).
    ///
    /// Equivalent to calling [`Histogram::record`] `n` times; used by
    /// the event-driven simulator loop to account for skipped idle
    /// cycles in bulk.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        if (value as usize) < self.buckets.len() {
            self.buckets[value as usize] += n;
        } else {
            self.overflow += n;
        }
        self.total += n;
        self.sum += value as u128 * n as u128;
        self.max_seen = self.max_seen.max(value);
    }

    /// Number of samples that fell exactly in bucket `value`.
    pub fn count(&self, value: u64) -> u64 {
        self.buckets
            .get(value as usize)
            .copied()
            .unwrap_or(self.overflow)
    }

    /// Samples at or above the cap.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of all samples; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest sample recorded; 0 when empty.
    pub fn max(&self) -> u64 {
        self.max_seen
    }

    /// Display name given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Fraction of samples equal to zero (e.g. "cycles with no R issue").
    pub fn fraction_zero(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.buckets[0] as f64 / self.total as f64
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: n={} mean={:.3} max={}",
            self.name,
            self.total,
            self.mean(),
            self.max_seen
        )?;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b > 0 {
                writeln!(f, "  [{i:>4}] {b}")?;
            }
        }
        if self.overflow > 0 {
            writeln!(f, "  [ >= {}] {}", self.buckets.len(), self.overflow)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut h = Histogram::new("h", 4);
        for v in [0, 1, 1, 3, 9] {
            h.record(v);
        }
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.samples(), 5);
        assert_eq!(h.max(), 9);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut bulk = Histogram::new("h", 4);
        let mut one = Histogram::new("h", 4);
        bulk.record_n(2, 3);
        bulk.record_n(9, 2); // overflow bucket
        bulk.record_n(1, 0); // no-op
        for v in [2, 2, 2, 9, 9] {
            one.record(v);
        }
        assert_eq!(bulk, one);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        let h = Histogram::new("h", 2);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.fraction_zero(), 0.0);
    }

    #[test]
    fn mean_matches_samples() {
        let mut h = Histogram::new("h", 16);
        for v in [2, 4, 6] {
            h.record(v);
        }
        assert!((h.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_zero() {
        let mut h = Histogram::new("h", 4);
        h.record(0);
        h.record(0);
        h.record(2);
        assert!((h.fraction_zero() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_cap_panics() {
        Histogram::new("h", 0);
    }

    #[test]
    fn display_nonempty() {
        let mut h = Histogram::new("occ", 4);
        h.record(1);
        let s = h.to_string();
        assert!(s.contains("occ"));
        assert!(s.contains("n=1"));
    }
}
