//! A std-only scoped-thread worker pool for deterministic fan-out.
//!
//! Fault campaigns and figure sweeps are embarrassingly parallel: every
//! trial (or kernel×variant cell) is an independent full simulator run.
//! [`par_map_indexed`] fans a slice of work items out over
//! `std::thread::scope` workers and returns the results **in input
//! order**, so any caller that pre-draws its random parameters serially
//! gets output bit-identical to a serial loop — parallelism changes
//! wall-clock time, never results.
//!
//! Every run also returns a [`ParallelStats`] with wall-clock time,
//! per-worker item counts, and per-worker busy time, which the
//! experiment binaries surface as throughput lines.
//!
//! # Example
//!
//! ```
//! use reese_stats::parallel::par_map_indexed;
//!
//! let inputs: Vec<u64> = (0..100).collect();
//! let (serial, _) = par_map_indexed(1, &inputs, |i, &x| x * x + i as u64);
//! let (parallel, stats) = par_map_indexed(4, &inputs, |i, &x| x * x + i as u64);
//! assert_eq!(serial, parallel); // order and values identical
//! assert_eq!(stats.items(), 100);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Returns the default worker count: the host's available parallelism.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// What one worker did during a [`par_map_indexed`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index, `0..jobs`.
    pub worker: usize,
    /// Items this worker processed (units of work, under
    /// [`par_map_weighted`]).
    pub items: u64,
    /// Items this worker claimed one at a time from the shared tail
    /// region — steals that level out stragglers — as opposed to items
    /// handed out in bulk chunks. Always 0 on the serial path.
    pub steals: u64,
    /// Time spent inside the work closure.
    pub busy: Duration,
}

/// Throughput observability for one parallel (or serial) map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelStats {
    /// Workers used (1 = the serial path).
    pub jobs: usize,
    /// End-to-end wall-clock time of the whole map.
    pub wall: Duration,
    /// Per-worker utilization counters, indexed by worker.
    pub workers: Vec<WorkerStats>,
}

impl ParallelStats {
    /// Total items processed across all workers.
    pub fn items(&self) -> u64 {
        self.workers.iter().map(|w| w.items).sum()
    }

    /// Total per-item tail claims (steals) across all workers.
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Items completed per wall-clock second; 0 for an instant run.
    pub fn items_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.items() as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean fraction of the wall-clock the workers spent busy, in
    /// `[0, 1]`; 1.0 means perfect utilization. 0 when nothing ran —
    /// an empty run has no meaningful busy/wall ratio, only timer
    /// noise.
    pub fn utilisation(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 || self.workers.is_empty() || self.items() == 0 {
            return 0.0;
        }
        let busy: f64 = self.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
        (busy / (wall * self.workers.len() as f64)).min(1.0)
    }
}

impl fmt::Display for ParallelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} items in {:.3}s on {} worker{} — {:.0} items/s, {:.0}% utilization",
            self.items(),
            self.wall.as_secs_f64(),
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
            self.items_per_sec(),
            self.utilisation() * 100.0
        )?;
        if self.jobs > 1 {
            write!(f, ", {} tail steals", self.steals())?;
            for w in &self.workers {
                write!(
                    f,
                    "\n  worker {}: {} items ({} stolen), busy {:.3}s",
                    w.worker,
                    w.items,
                    w.steals,
                    w.busy.as_secs_f64()
                )?;
            }
        }
        Ok(())
    }
}

/// Maps `f` over `items` with up to `jobs` scoped worker threads,
/// returning results in input order plus utilization counters.
///
/// `jobs == 1` (or a single item) runs inline on the calling thread —
/// the serial path — with identical results; more jobs only changes
/// timing. Workers steal index *ranges* from a shared atomic cursor —
/// one `fetch_add` per chunk instead of per item — and fall back to
/// per-item stealing over the final chunk's worth of indices so the
/// stragglers self-level.
///
/// # Panics
///
/// Propagates a panic from `f` after all workers stop.
pub fn par_map_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> (Vec<R>, ParallelStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_weighted(jobs, items, |_| 1, f)
}

/// [`par_map_indexed`] over work items that stand for several units of
/// work each: item `i` counts as `weight(&items[i])` units in the
/// returned [`ParallelStats`], and up to `jobs` workers run as long as
/// there are that many units, even when fewer items carry them. A
/// caller that batches its units (a fault campaign scoring every key of
/// one window in one pass) thereby reports the same worker count and
/// throughput as a per-unit map would.
///
/// # Panics
///
/// Propagates a panic from `f` after all workers stop.
pub fn par_map_weighted<T, R, F, W>(
    jobs: usize,
    items: &[T],
    weight: W,
    f: F,
) -> (Vec<R>, ParallelStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    W: Fn(&T) -> u64 + Sync,
{
    let start = Instant::now();
    let units: u64 = items.iter().map(&weight).sum();
    let jobs = jobs
        .max(1)
        .min(usize::try_from(units.max(1)).unwrap_or(usize::MAX));
    if jobs == 1 {
        let t0 = Instant::now();
        let results: Vec<R> = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        let busy = t0.elapsed();
        let stats = ParallelStats {
            jobs: 1,
            wall: start.elapsed(),
            workers: vec![WorkerStats {
                worker: 0,
                items: units,
                steals: 0,
                busy,
            }],
        };
        return (results, stats);
    }

    // Chunked handout: the bulk of the indices is claimed a chunk at a
    // time (one atomic RMW per chunk), while the last `jobs` chunks'
    // worth is claimed item by item so a slow final chunk cannot leave
    // the other workers idle. With few items `bulk` is 0 and this
    // degenerates to pure per-item stealing.
    const CHUNKS_PER_WORKER: usize = 8;
    let chunk = (items.len() / (jobs * CHUNKS_PER_WORKER)).max(1);
    let bulk = items.len() - (chunk * jobs).min(items.len());
    let bulk_cursor = AtomicUsize::new(0);
    let tail_cursor = AtomicUsize::new(bulk);
    let per_worker: Vec<(Vec<(usize, R)>, WorkerStats)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|worker| {
                let bulk_cursor = &bulk_cursor;
                let tail_cursor = &tail_cursor;
                let f = &f;
                let weight = &weight;
                s.spawn(move || {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    let mut busy = Duration::ZERO;
                    let mut steals = 0u64;
                    let mut done = 0u64;
                    let mut work = |i: usize, out: &mut Vec<(usize, R)>| {
                        let t0 = Instant::now();
                        let r = f(i, &items[i]);
                        busy += t0.elapsed();
                        done += weight(&items[i]);
                        out.push((i, r));
                    };
                    loop {
                        let lo = bulk_cursor.fetch_add(chunk, Ordering::Relaxed);
                        if lo >= bulk {
                            break;
                        }
                        for i in lo..(lo + chunk).min(bulk) {
                            work(i, &mut out);
                        }
                    }
                    loop {
                        let i = tail_cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        steals += 1;
                        work(i, &mut out);
                    }
                    let stats = WorkerStats {
                        worker,
                        items: done,
                        steals,
                        busy,
                    };
                    (out, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    // Merge the per-worker results back into input order.
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let mut workers = Vec::with_capacity(jobs);
    for (pairs, stats) in per_worker {
        for (i, r) in pairs {
            debug_assert!(slots[i].is_none(), "index {i} computed twice");
            slots[i] = Some(r);
        }
        workers.push(stats);
    }
    workers.sort_by_key(|w| w.worker);
    let results = slots
        .into_iter()
        .map(|o| o.expect("every index computed exactly once"))
        .collect();
    (
        results,
        ParallelStats {
            jobs,
            wall: start.elapsed(),
            workers,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_map_counts_units_not_items() {
        // Two batches standing for eight units: four workers still run
        // (two find nothing to do), and the stats count units.
        let batches = [vec![1u64, 2, 3], vec![4, 5, 6, 7, 8]];
        for jobs in [1, 4] {
            let (sums, stats) = par_map_weighted(
                jobs,
                &batches,
                |b| b.len() as u64,
                |_, b| b.iter().sum::<u64>(),
            );
            assert_eq!(sums, vec![6, 30]);
            assert_eq!(stats.items(), 8);
            assert_eq!(stats.jobs, jobs);
            assert_eq!(stats.workers.len(), jobs);
        }
        let (_, stats) = par_map_weighted(16, &batches, |b| b.len() as u64, |_, _| ());
        assert_eq!(stats.jobs, 8, "never more workers than units");
    }

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let (out, stats) = par_map_indexed(8, &items, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(stats.items(), 257);
        assert_eq!(stats.workers.len(), 8);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..100).collect();
        let (a, s1) = par_map_indexed(1, &items, |i, &x| x.wrapping_mul(i as u64 + 7));
        let (b, s4) = par_map_indexed(4, &items, |i, &x| x.wrapping_mul(i as u64 + 7));
        assert_eq!(a, b);
        assert_eq!(s1.jobs, 1);
        assert_eq!(s4.jobs, 4);
    }

    #[test]
    fn chunked_handout_covers_every_index_exactly_once() {
        // Sizes chosen to hit the edges of the chunk arithmetic: fewer
        // items than workers, exactly one chunk, a ragged final chunk,
        // and a large bulk region.
        for len in [0usize, 1, 2, 7, 8, 9, 63, 64, 65, 255, 1024, 1025] {
            for jobs in [2usize, 3, 8] {
                let items: Vec<usize> = (0..len).collect();
                let (out, stats) = par_map_indexed(jobs, &items, |i, &x| {
                    assert_eq!(i, x);
                    x
                });
                assert_eq!(out, items, "len {len} jobs {jobs}");
                assert_eq!(stats.items(), len as u64, "len {len} jobs {jobs}");
            }
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let (out, stats) = par_map_indexed::<u8, u8, _>(4, &[], |_, &x| x);
        assert!(out.is_empty());
        assert_eq!(stats.items(), 0);
        assert_eq!(stats.jobs, 1, "no items needs no extra workers");
    }

    #[test]
    fn jobs_capped_to_items() {
        let (_, stats) = par_map_indexed(64, &[1, 2, 3], |_, &x| x);
        assert!(stats.jobs <= 3);
    }

    #[test]
    fn zero_jobs_means_one() {
        let (out, stats) = par_map_indexed(0, &[5u8], |_, &x| x);
        assert_eq!(out, vec![5]);
        assert_eq!(stats.jobs, 1);
    }

    #[test]
    fn every_worker_is_reported_once() {
        let items: Vec<u32> = (0..50).collect();
        let (_, stats) = par_map_indexed(4, &items, |_, &x| x);
        let ids: Vec<usize> = stats.workers.iter().map(|w| w.worker).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(stats.items(), 50);
    }

    #[test]
    fn tail_steals_are_accounted() {
        // Every index past the bulk region is claimed one at a time, so
        // total steals equals the tail size: items - bulk.
        let items: Vec<usize> = (0..257).collect();
        let jobs = 4;
        let (_, stats) = par_map_indexed(jobs, &items, |_, &x| x);
        let chunk = items.len() / (jobs * 8);
        let tail = (chunk * jobs).min(items.len());
        assert_eq!(stats.steals(), tail as u64);
        assert!(stats.to_string().contains("tail steals"));

        let (_, serial) = par_map_indexed(1, &items, |_, &x| x);
        assert_eq!(serial.steals(), 0, "serial path never steals");
    }

    #[test]
    fn display_mentions_throughput() {
        let (_, stats) = par_map_indexed(2, &[1u8, 2, 3, 4], |_, &x| x);
        let s = stats.to_string();
        assert!(s.contains("items"), "{s}");
        assert!(s.contains("utilization"), "{s}");
    }
}
