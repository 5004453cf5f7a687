//! REESE: REdundant Execution using Spare Elements.
//!
//! The paper's contribution (Nickel & Somani, DSN 2001): a
//! microarchitectural soft-error detection scheme that executes every
//! instruction twice on the same pipeline. The primary (P) stream runs
//! normally; completed instructions migrate — carrying their operands
//! and results — into the [`RQueue`] (the R-stream Queue) just before
//! commit, are re-executed through idle and *spare* functional units as
//! the redundant (R) stream, and commit only after the two results
//! compare equal. A mismatch flushes the machine and re-executes; a
//! persistent mismatch is reported as a permanent fault.
//!
//! The central experimental question ("how much spare hardware is
//! needed to decrease the fault-tolerance overhead to zero?") is asked
//! by layering [`ReeseConfig`] spares on top of any baseline
//! [`reese_pipeline::PipelineConfig`] and comparing IPC.
//!
//! Both machines here — [`ReeseSim`] and the dispatch-duplication
//! comparison point [`DuplexSim`] — are [`reese_pipeline::Redundancy`]
//! policies on the one timing core, [`reese_pipeline::Core`]. Each has
//! `run(&program)` plus one `simulate(spec, observer)` entry point,
//! where the [`reese_pipeline::RunSpec`] says where the run starts (an
//! emulator, fresh or restored from a checkpoint, plus optional warm
//! state), when it stops, and which faults it injects.
//!
//! # Example
//!
//! ```
//! use reese_core::{Faults, InjectedFault, ReeseConfig, ReeseSim};
//! use reese_pipeline::RunSpec;
//! use reese_trace::NoopObserver;
//!
//! let prog = reese_isa::assemble(
//!     "  li t0, 50\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n",
//! )?;
//! // Inject a transient bit flip into instruction #10's result latch.
//! let sim = ReeseSim::new(ReeseConfig::starting().with_spare_int_alus(2));
//! let faults = [InjectedFault::primary(10, 5)];
//! let spec = RunSpec::new(&prog).faults(Faults::Latch(&faults));
//! let r = sim.simulate(spec, &mut NoopObserver)?;
//! assert_eq!(r.stats.detections, 1); // caught by the P/R comparison
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod config;
mod duplex;
mod fault;
mod rqueue;
mod seqmap;
mod sim;
mod stats;

pub use config::ReeseConfig;
pub use duplex::DuplexSim;
pub use fault::{DetectionEvent, DurationFault, DurationReport, Faults, InjectedFault, Stream};
pub use rqueue::{RQueue, RQueueEntry};
pub use sim::ReeseSim;
pub use stats::{ReeseError, ReeseResult, ReeseStats};

// The scheduler-mode knob lives on the pipeline config; re-export it so
// REESE-level callers can flip it without importing reese-pipeline.
pub use reese_pipeline::SchedulerMode;

// Campaigns and sweeps share one `ReeseSim` across worker threads
// (each run builds its own machine internally); keep the
// simulator and its configuration `Send + Sync` so that fan-out stays
// possible. This fails to compile if a non-shareable field sneaks in.
const _: () = {
    const fn shareable<T: Send + Sync>() {}
    shareable::<ReeseConfig>();
    shareable::<ReeseSim>();
};
