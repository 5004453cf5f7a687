//! Facade crate for the REESE reproduction.
//!
//! REESE (REdundant Execution using Spare Elements — Nickel & Somani,
//! DSN 2001) detects soft errors in a superscalar processor by executing
//! every instruction twice and comparing results before commit, using
//! idle issue slots plus a small number of *spare* functional units to
//! keep the time overhead near zero.
//!
//! This crate re-exports the whole workspace under one roof:
//!
//! * [`isa`] — the mini RISC instruction set, assembler, and program builder
//! * [`cpu`] — the functional (golden) emulator
//! * [`mem`] — flat memory, caches, and TLBs
//! * [`bpred`] — the gshare branch predictor, BTB, and return-address stack
//! * [`pipeline`] — the baseline out-of-order superscalar timing simulator
//! * [`core`] — the REESE time-redundant simulator (the paper's contribution)
//! * [`faults`] — soft-error injection and detection-coverage campaigns
//! * [`workloads`] — SPEC95-integer-like synthetic kernels
//! * [`stats`] — counters, histograms, tables, and the deterministic PRNG
//! * [`trace`] — zero-cost-when-disabled pipetrace and sampled-metrics observability
//! * [`ckpt`] — binary simulator checkpoints and sharded single-run simulation
//!
//! # Quickstart
//!
//! ```
//! use reese::prelude::*;
//!
//! // Build a tiny program.
//! let program = reese::isa::assemble("  li t0, 1000\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n")?;
//!
//! // Run it on the baseline pipeline and on REESE with 2 spare ALUs.
//! let base = PipelineSim::new(PipelineConfig::starting()).run(&program)?;
//! let reese = ReeseSim::new(ReeseConfig::starting().with_spare_int_alus(2)).run(&program)?;
//!
//! // REESE executes everything twice but commits the same instructions.
//! assert_eq!(base.committed_instructions(), reese.committed_instructions());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use reese_bpred as bpred;
pub use reese_ckpt as ckpt;
pub use reese_core as core;
pub use reese_cpu as cpu;
pub use reese_faults as faults;
pub use reese_isa as isa;
pub use reese_mem as mem;
pub use reese_pipeline as pipeline;
pub use reese_stats as stats;
pub use reese_trace as trace;
pub use reese_workloads as workloads;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use reese_ckpt::{run_sharded, Checkpoint, Scheme, ShardOptions};
    pub use reese_core::{DuplexSim, Faults, InjectedFault, ReeseConfig, ReeseSim};
    pub use reese_cpu::Emulator;
    pub use reese_isa::{abi, assemble, Program, ProgramBuilder};
    pub use reese_pipeline::{PipelineConfig, PipelineSim, RunSpec};
    pub use reese_trace::NoopObserver;
    pub use reese_workloads::{Kernel, Suite};
}
