//! Deterministic statistics utilities shared by the REESE simulators.
//!
//! This crate provides the building blocks every other crate in the
//! workspace uses to summarise distributions, format the ASCII tables
//! printed by the experiment harness, fan work out over a deterministic
//! worker pool, and draw reproducible pseudo-random numbers.
//!
//! All simulators in this workspace must be bit-for-bit deterministic
//! given a configuration and a seed, so randomness flows exclusively
//! through [`SplitMix64`], a tiny, well-studied PRNG implemented here
//! rather than pulled in as a runtime dependency.
//!
//! # Example
//!
//! ```
//! use reese_stats::{Histogram, SplitMix64};
//!
//! let mut occupancy = Histogram::new("rqueue occupancy", 8);
//! for v in [0, 3, 3, 12] {
//!     occupancy.record(v);
//! }
//! assert_eq!(occupancy.count(3), 2);
//! assert_eq!(occupancy.overflow(), 1);
//!
//! let mut rng = SplitMix64::new(42);
//! let a = rng.next_u64();
//! let b = SplitMix64::new(42).next_u64();
//! assert_eq!(a, b); // same seed, same stream
//! ```

pub mod bench;
mod histogram;
pub mod parallel;
mod rng;
mod summary;
mod table;

pub use histogram::Histogram;
pub use parallel::{available_jobs, par_map_indexed, par_map_weighted, ParallelStats, WorkerStats};
pub use rng::SplitMix64;
pub use summary::{mean, percent_delta};
pub use table::Table;
