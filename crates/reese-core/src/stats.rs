//! REESE run results and statistics.

use crate::{DetectionEvent, DurationReport};
use reese_pipeline::{PipelineStats, SimResult, SimStop};
use reese_stats::Histogram;
use std::fmt;

/// Statistics specific to the time-redundant machine, on top of the
/// shared [`PipelineStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReeseStats {
    /// The shared pipeline statistics. `pipeline.committed` counts
    /// architecturally committed (primary) instructions, so IPC is
    /// directly comparable with the baseline, exactly as the paper
    /// plots it.
    pub pipeline: PipelineStats,
    /// Redundant executions issued.
    pub r_issued: u64,
    /// Redundant-issue opportunities considered: pending entries inside
    /// the lookahead window examined by the scheduler, whether or not a
    /// functional unit accepted them. Part of result equality, so the
    /// scan and event-driven schedulers must account it identically —
    /// including across bulk-skipped idle cycles.
    pub r_tried: u64,
    /// Considered-but-not-issued redundant opportunities: the window
    /// entry found no idle functional unit this cycle. `r_tried -
    /// r_issued` over the whole run; the paper's "unused hardware"
    /// harvest failing to materialise for a cycle.
    pub r_missed: u64,
    /// Comparisons performed at commit.
    pub comparisons: u64,
    /// Instructions committed without re-execution (partial duplication).
    pub r_skipped: u64,
    /// Mismatches detected.
    pub detections: u64,
    /// Detection flushes performed.
    pub flushes: u64,
    /// Cycles in which the RUU head was ready to migrate but the
    /// R-stream Queue was full.
    pub rqueue_full_stalls: u64,
    /// Per-cycle occupancy of the R-stream Queue.
    pub rqueue_occupancy: Histogram,
    /// Highest occupancy observed.
    pub rqueue_peak: usize,
    /// Cycles in which redundant issue had priority (high-water mode).
    pub r_priority_cycles: u64,
    /// Distribution of P-to-R completion separation in cycles — the
    /// quantity §2's detection guarantee is stated in terms of.
    pub pr_separation: Histogram,
}

impl ReeseStats {
    /// Creates zeroed statistics for a queue of the given capacity.
    pub fn new(rqueue_capacity: usize) -> ReeseStats {
        ReeseStats {
            pipeline: PipelineStats::default(),
            r_issued: 0,
            r_tried: 0,
            r_missed: 0,
            comparisons: 0,
            r_skipped: 0,
            detections: 0,
            flushes: 0,
            rqueue_full_stalls: 0,
            rqueue_occupancy: Histogram::new("rqueue_occupancy", rqueue_capacity + 1),
            rqueue_peak: 0,
            r_priority_cycles: 0,
            pr_separation: Histogram::new("pr_separation", 256),
        }
    }

    /// Committed instructions per cycle (primary stream only, the
    /// paper's metric).
    pub fn ipc(&self) -> f64 {
        self.pipeline.ipc()
    }
}

impl fmt::Display for ReeseStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pipeline)?;
        writeln!(
            f,
            "redundant stream: {} issued ({} tried, {} missed), {} compared, {} skipped; {} detections, {} flushes",
            self.r_issued, self.r_tried, self.r_missed, self.comparisons, self.r_skipped,
            self.detections, self.flushes
        )?;
        writeln!(
            f,
            "R-queue: mean occupancy {:.1}, peak {}, {} full-queue stalls, {} R-priority cycles",
            self.rqueue_occupancy.mean(),
            self.rqueue_peak,
            self.rqueue_full_stalls,
            self.r_priority_cycles
        )?;
        writeln!(
            f,
            "P→R separation: mean {:.1} cycles, max {}",
            self.pr_separation.mean(),
            self.pr_separation.max()
        )
    }
}

/// The result of one REESE simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReeseResult {
    /// Why the run stopped.
    pub stop: SimStop,
    /// Timing and redundancy statistics.
    pub stats: ReeseStats,
    /// Values printed by committed `print` instructions.
    pub output: Vec<i64>,
    /// Exit code from the committed `halt`, if any.
    pub exit_code: Option<u64>,
    /// Digest of the final architectural register state.
    pub state_digest: u64,
    /// Every soft-error detection, in order.
    pub detections: Vec<DetectionEvent>,
    /// What a [`crate::Faults::Duration`] disturbance corrupted; `None`
    /// when the run had none.
    pub duration: Option<DurationReport>,
}

impl ReeseResult {
    /// Combines a timing-core result with the redundancy statistics
    /// and detections gathered alongside it.
    pub(crate) fn assemble(
        base: SimResult,
        mut stats: ReeseStats,
        detections: Vec<DetectionEvent>,
        duration: Option<DurationReport>,
    ) -> ReeseResult {
        stats.pipeline = base.stats;
        ReeseResult {
            stop: base.stop,
            stats,
            output: base.output,
            exit_code: base.exit_code,
            state_digest: base.state_digest,
            detections,
            duration,
        }
    }

    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Committed (primary) instruction count.
    pub fn committed_instructions(&self) -> u64 {
        self.stats.pipeline.committed
    }

    /// Simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.pipeline.cycles
    }
}

/// Errors a REESE run can raise.
#[derive(Debug, Clone, PartialEq)]
pub enum ReeseError {
    /// An underlying simulation error.
    Sim(reese_pipeline::SimError),
    /// The same instruction failed comparison twice in a row: the fault
    /// is not transient. The paper: "the pipeline will have to stop and
    /// notify the user of the error."
    PermanentFault {
        /// Dynamic sequence number of the faulting instruction.
        seq: u64,
        /// Its PC.
        pc: u64,
    },
}

impl fmt::Display for ReeseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReeseError::Sim(e) => write!(f, "{e}"),
            ReeseError::PermanentFault { seq, pc } => {
                write!(
                    f,
                    "permanent fault: instruction #{seq} at {pc:#x} failed comparison twice"
                )
            }
        }
    }
}

impl std::error::Error for ReeseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReeseError::Sim(e) => Some(e),
            ReeseError::PermanentFault { .. } => None,
        }
    }
}

impl From<reese_pipeline::SimError> for ReeseError {
    fn from(e: reese_pipeline::SimError) -> Self {
        ReeseError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_delegates_to_pipeline() {
        let mut s = ReeseStats::new(32);
        s.pipeline.cycles = 100;
        s.pipeline.committed = 120;
        assert!((s.ipc() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn error_display() {
        let e = ReeseError::PermanentFault { seq: 7, pc: 0x1038 };
        let s = e.to_string();
        assert!(s.contains("#7"));
        assert!(s.contains("0x1038"));
    }
}
