//! Soft-error fault injection for the REESE reproduction.
//!
//! The paper argues REESE's coverage analytically (§4.2); this crate
//! *measures* it. [`Campaign`] runs Monte-Carlo single-fault injections
//! against the REESE machine and reports detection coverage, detection
//! latency, and recovery cost. [`FaultClass`] encodes the coverage
//! boundary the paper states: result errors in either stream are caught
//! by the P/R comparison; post-compare, cache-cell, and pipeline-control
//! upsets are outside REESE's observation window.
//!
//! Every registered detection scheme sits behind one dispatch,
//! [`DetectionScheme`] ([`schemes::build`]). Campaigns score their
//! anchored windows through it, and so does [`run_sharded`], which
//! splits one long run into checkpoint intervals timed on a worker
//! pool and certifies the stitched result against the monolithic run.
//!
//! # Example
//!
//! ```
//! use reese_core::ReeseConfig;
//! use reese_faults::{Campaign, FaultMix};
//!
//! let prog = reese_isa::assemble(
//!     "  li t0, 30\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n",
//! )?;
//! let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
//!     .trials(5)
//!     .run(&prog)?;
//! assert_eq!(report.coverage(), 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod campaign;
mod engine;
pub mod forensics;
mod model;
mod report;
pub mod schemes;
mod shard;
mod stream;
pub mod telemetry;

pub use campaign::{Campaign, CampaignError};
pub use engine::{window_ceiling, TrialEngine, WindowBaseline, DEFAULT_CKPT_EVERY};
pub use forensics::{explain_trial, Explanation, TrialRef};
pub use model::{FaultClass, FaultMix};
pub use report::{CoverageReport, TrialOutcome, LATENCY_HISTOGRAM_CAP};
pub use schemes::{DetectionScheme, SchemeRun, SchemesReport, Trial};
pub use shard::{run_sharded, IntervalResult, ShardError, ShardOptions, ShardOracle, ShardReport};
pub use stream::trial_id;
