//! Checkpoints for the REESE simulator: full simulator state as a
//! first-class serializable artifact, and the warm functional
//! fast-forward that captures it.
//!
//! Two layers:
//!
//! - [`Checkpoint`]: a versioned binary snapshot (magic header, CRC-32
//!   trailer, hand-rolled little-endian layout) of the full functional
//!   machine state — architectural registers, PC, the touched memory
//!   pages, printed output, instruction count — stamped with the
//!   [`Scheme`] and ISA it was captured under, plus an optional warm
//!   section carrying cache, TLB, and branch-predictor state.
//! - [`checkpoints_at`]: the fast functional fast-forward executor that
//!   emits checkpoints at instruction boundaries, each carrying the
//!   full-history cache, TLB, and branch-predictor state of the prefix
//!   before it — the same continuous-warm state the campaign sweep
//!   ([`checkpoint_stream_thinned`], [`derive_checkpoint`]) captures.
//!
//! The machines that restore from these checkpoints live downstream:
//! `reese-faults` times fault-campaign windows and the sharded
//! single-run driver (`run_sharded`) from them.
//!
//! # Example
//!
//! ```
//! use reese_ckpt::{checkpoints_at, Checkpoint, Scheme};
//! use reese_pipeline::PipelineConfig;
//!
//! let prog = reese_isa::assemble(
//!     "  li t0, 200\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n",
//! )?;
//! let cks = checkpoints_at(&prog, &[0, 201], &PipelineConfig::starting())?;
//! let bytes = cks[1].clone().with_scheme(Scheme::Reese).encode();
//! let ck = Checkpoint::decode_for(&bytes, Scheme::Reese, prog.isa())?;
//! assert_eq!(ck.instructions, 201);
//! assert_eq!(ck.restore(&prog).run(u64::MAX)?.instructions, 402);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod checkpoint;
mod fastforward;
mod scheme;
mod wire;

pub use checkpoint::{Checkpoint, CkptError, MAGIC, VERSION};
pub use fastforward::{
    boundaries, checkpoint_stream_thinned, checkpoints_at, derive_checkpoint,
    MAX_RESIDENT_CHECKPOINTS,
};
pub use scheme::Scheme;
pub use wire::crc32;
