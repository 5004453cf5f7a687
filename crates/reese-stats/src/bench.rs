//! A tiny, std-only paired micro-benchmark harness.
//!
//! The workspace must build and run with no network access and no
//! external crates, so the guarded `bench_pipeline` and `bench_campaign`
//! binaries time their rows with [`bench_pair`]: two closures with
//! interleaved samples and their paired speedup.
//!
//! # Example
//!
//! ```
//! use reese_stats::bench::bench_pair;
//!
//! let p = bench_pair("sum", 10, "loop", "formula", || (0..1000u64).sum::<u64>(), || 499_500u64);
//! assert_eq!(p.a.samples, 10);
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The timing summary of one benchmark, for callers that persist
/// results (e.g. the `bench_pipeline` binary writing
/// `BENCH_pipeline.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measurement {
    /// Mean wall-clock per iteration across the timed samples.
    pub mean: Duration,
    /// Fastest sample — the least-noisy estimate of the true cost.
    pub min: Duration,
    /// Number of timed samples taken.
    pub samples: usize,
}

/// The result of an interleaved A/B comparison (see [`bench_pair`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairMeasurement {
    /// Timing summary of the first closure.
    pub a: Measurement,
    /// Timing summary of the second closure.
    pub b: Measurement,
    /// Median of the per-sample `a/b` time ratios — how many times
    /// faster `b` is than `a`. Because each ratio divides two
    /// back-to-back timings, slow drift (frequency scaling, a noisy
    /// neighbour on a shared core) cancels instead of biasing one side.
    pub speedup: f64,
}

/// Times two closures of benchmark group `group` with `samples` timed
/// samples each (at least one), interleaved (`a, b, a, b, …`), and
/// reports the median of the per-pair `a/b` ratios.
///
/// Timing all `a` samples minutes before all `b` samples would let
/// clock drift and neighbour load masquerade as a speedup, while
/// adjacent pairs see the same machine conditions.
pub fn bench_pair<OA, OB>(
    group: &str,
    samples: usize,
    id_a: &str,
    id_b: &str,
    mut fa: impl FnMut() -> OA,
    mut fb: impl FnMut() -> OB,
) -> PairMeasurement {
    let samples = samples.max(1);
    // Untimed warm-up of both sides.
    black_box(fa());
    black_box(fb());
    let mut times_a = Vec::with_capacity(samples);
    let mut times_b = Vec::with_capacity(samples);
    let mut ratios = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        black_box(fa());
        let da = start.elapsed();
        let start = Instant::now();
        black_box(fb());
        let db = start.elapsed();
        times_a.push(da);
        times_b.push(db);
        ratios.push(da.as_secs_f64() / db.as_secs_f64());
    }
    ratios.sort_by(|x, y| x.partial_cmp(y).expect("finite timings"));
    let mid = ratios.len() / 2;
    let speedup = if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    };
    let summarise = |times: &[Duration]| Measurement {
        mean: times
            .iter()
            .sum::<Duration>()
            .checked_div(times.len() as u32)
            .unwrap_or_default(),
        min: times.iter().min().copied().unwrap_or_default(),
        samples: times.len(),
    };
    let a = summarise(&times_a);
    let b = summarise(&times_b);
    println!(
        "{group}/{id_a}: mean {:?}, min {:?} over {} samples",
        a.mean, a.min, a.samples
    );
    println!(
        "{group}/{id_b}: mean {:?}, min {:?} over {} samples ({speedup:.2}x vs {id_a}, paired median)",
        b.mean, b.min, b.samples
    );
    PairMeasurement { a, b, speedup }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_samples_interleave_and_summarise() {
        let order = std::cell::RefCell::new(String::new());
        let p = bench_pair(
            "t",
            5,
            "a",
            "b",
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(p.a.samples, 5);
        assert_eq!(p.b.samples, 5);
        assert!(p.speedup.is_finite() && p.speedup > 0.0);
        // Warm-up pair followed by strictly alternating timed pairs.
        assert_eq!(*order.borrow(), "abababababab");
    }
}
