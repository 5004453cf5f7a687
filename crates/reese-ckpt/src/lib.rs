//! Checkpoint/replay for the REESE simulator: full simulator state as a
//! first-class serializable artifact, and a sharded driver that splits
//! one long simulation across cores.
//!
//! Three layers:
//!
//! - [`Checkpoint`]: a versioned binary snapshot (magic header, CRC-32
//!   trailer, hand-rolled little-endian layout) of the full functional
//!   machine state — architectural registers, PC, the touched memory
//!   pages, printed output, instruction count — plus an optional warm
//!   section carrying cache, TLB, and branch-predictor state.
//! - [`checkpoints_at`]: the fast functional fast-forward executor that
//!   emits checkpoints at instruction boundaries, each carrying the
//!   full-history cache, TLB, and branch-predictor state of the prefix
//!   before it — the same continuous-warm state the campaign sweep
//!   ([`checkpoint_stream_thinned`], [`derive_checkpoint`]) captures.
//! - [`run_sharded`]: the sharded driver. One run is split into K
//!   intervals at checkpoint boundaries; each interval's detailed
//!   timing (baseline, REESE, or duplex) runs on a worker pool; the
//!   per-interval counts are stitched into one [`ShardReport`]
//!   whose [`ShardOracle`] certifies bit-exact functional results and
//!   measures the cycle-count error against a monolithic run.
//!
//! # Example
//!
//! ```
//! use reese_ckpt::{run_sharded, Scheme, ShardOptions};
//! use reese_core::ReeseConfig;
//!
//! let prog = reese_isa::assemble(
//!     "  li t0, 200\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n",
//! )?;
//! let opts = ShardOptions { intervals: 3, jobs: 2, ..ShardOptions::default() };
//! let report = run_sharded(&prog, &ReeseConfig::starting(), Scheme::Reese, &opts)?;
//! assert!(report.oracle.exact());
//! assert_eq!(report.total_instructions, 402);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod checkpoint;
mod fastforward;
mod scheme;
mod shard;
mod wire;

pub use checkpoint::{Checkpoint, CkptError, MAGIC, VERSION};
pub use fastforward::{
    boundaries, checkpoint_stream_thinned, checkpoints_at, derive_checkpoint,
    MAX_RESIDENT_CHECKPOINTS,
};
pub use scheme::Scheme;
pub use shard::{run_sharded, IntervalResult, ShardError, ShardOptions, ShardOracle, ShardReport};
pub use wire::crc32;
