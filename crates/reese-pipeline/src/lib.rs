//! The baseline out-of-order superscalar timing simulator.
//!
//! A Rust re-implementation of the machine the REESE paper modifies:
//! SimpleScalar 2.0's `sim-outorder`. The pipeline is
//! fetch → dispatch → (out-of-order) issue → writeback → (in-order)
//! commit, built around a Register Update Unit ([`Ruu`]), a load/store
//! queue ([`Lsq`]), a pool of functional units ([`FuPool`]), a gshare
//! front end ([`FetchUnit`]), and the Table 1 cache hierarchy.
//!
//! Simulation is execution-driven: the functional emulator runs the
//! correct path and the timing model charges latencies, structural
//! stalls, and branch-misprediction penalties on the dynamic stream.
//!
//! The pipeline itself is written once, as the timing [`Core`]; what a
//! detection mechanism adds on top is a [`Redundancy`] policy. The
//! baseline is the empty policy `()`. The components and the core's
//! state are public because `reese-core` implements the R-stream Queue
//! and dispatch-duplication policies against them.
//!
//! # Example
//!
//! ```
//! use reese_pipeline::{PipelineConfig, PipelineSim};
//!
//! let prog = reese_isa::assemble(
//!     "  li t0, 10\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n",
//! )?;
//! let result = PipelineSim::new(PipelineConfig::starting()).run(&prog)?;
//! assert_eq!(result.committed_instructions(), 22);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod arena;
mod config;
mod dyninst;
mod fetch;
mod fu;
mod lsq;
mod readyring;
mod ruu;
mod sim;
mod stats;
mod timing;
mod wheel;

pub use arena::{InstArena, InstView};
pub use config::{FuCounts, PipelineConfig, SchedulerMode};
pub use dyninst::{DynInst, PredictionInfo, Seq};
pub use fetch::FetchUnit;
pub use fu::FuPool;
pub use lsq::{LoadPlan, Lsq};
pub use readyring::ReadyRing;
pub use ruu::Ruu;
pub use sim::PipelineSim;
pub use stats::{PipelineStats, SimError, SimResult, SimStop};
pub use timing::{emit, same_timing, Core, Redundancy, RunSpec, WarmState};
pub use wheel::EventWheel;
