//! Simulation results and statistics.

use reese_bpred::BranchStats;
use reese_isa::FuClass;
use reese_mem::HierarchyStats;
use std::fmt;

/// Why a simulation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimStop {
    /// The program's `halt` committed.
    Halted,
    /// The requested committed-instruction budget was reached.
    InstructionLimit,
    /// The configured cycle cap was reached.
    CycleLimit,
}

/// Errors a simulation run can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The program itself misbehaved (wild jump, ran off the text
    /// segment).
    Emulation(reese_cpu::EmuError),
    /// The pipeline made no forward progress for a long time — a
    /// simulator invariant violation, never expected in a correct build.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Emulation(e) => write!(f, "emulation error: {e}"),
            SimError::Deadlock { cycle } => {
                write!(f, "pipeline deadlock detected at cycle {cycle}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Emulation(e) => Some(e),
            SimError::Deadlock { .. } => None,
        }
    }
}

impl From<reese_cpu::EmuError> for SimError {
    fn from(e: reese_cpu::EmuError) -> Self {
        SimError::Emulation(e)
    }
}

/// Timing statistics shared by the baseline and REESE simulators.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed (architecturally retired) instructions.
    pub committed: u64,
    /// Instructions delivered by the front end (replays re-count).
    pub fetched: u64,
    /// Instructions issued to functional units.
    pub issued: u64,
    /// Loads satisfied by store-to-load forwarding.
    pub loads_forwarded: u64,
    /// Dispatch stalls because the RUU was full.
    pub dispatch_stall_ruu_full: u64,
    /// Dispatch stalls because the LSQ was full.
    pub dispatch_stall_lsq_full: u64,
    /// Cycles in which the fetch queue was empty at dispatch.
    pub fetch_queue_empty_cycles: u64,
    /// Branch prediction statistics.
    pub branch: BranchStats,
    /// Cache/TLB statistics.
    pub hierarchy: Option<HierarchyStats>,
    /// Per-class functional-unit utilisation in `[0, 1]`.
    pub fu_utilisation: Vec<(FuClass, f64)>,
}

impl PipelineStats {
    /// Committed instructions per cycle — the paper's headline metric.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// A counter normalised to events per 1000 simulated cycles, so
    /// stall pressure compares across runs of different lengths; 0 for
    /// a zero-cycle run.
    pub fn per_1k_cycles(&self, count: u64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            count as f64 * 1000.0 / self.cycles as f64
        }
    }

    /// Fraction of issue bandwidth left idle (the paper's "idle
    /// capacity"), given the machine width.
    pub fn idle_issue_fraction(&self, width: usize) -> f64 {
        let slots = self.cycles * width as u64;
        if slots == 0 {
            0.0
        } else {
            1.0 - self.issued as f64 / slots as f64
        }
    }
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} instructions in {} cycles (IPC {:.3}); {} fetched, {} issued, {} loads forwarded",
            self.committed,
            self.cycles,
            self.ipc(),
            self.fetched,
            self.issued,
            self.loads_forwarded
        )?;
        writeln!(
            f,
            "stalls: {} RUU-full ({:.2}/1k cycles), {} LSQ-full ({:.2}/1k cycles), \
             {} empty-fetch-queue cycles",
            self.dispatch_stall_ruu_full,
            self.per_1k_cycles(self.dispatch_stall_ruu_full),
            self.dispatch_stall_lsq_full,
            self.per_1k_cycles(self.dispatch_stall_lsq_full),
            self.fetch_queue_empty_cycles
        )?;
        writeln!(
            f,
            "branches: {} lookups, {:.2}% mispredicted; indirect: {} lookups, {} mispredicted",
            self.branch.branch_lookups,
            self.branch.mispredict_rate() * 100.0,
            self.branch.indirect_lookups,
            self.branch.indirect_mispredicts
        )?;
        if let Some(h) = &self.hierarchy {
            writeln!(
                f,
                "caches: L1I {:.2}% miss, L1D {:.2}% miss, L2 {:.2}% miss; TLB misses {}i/{}d",
                h.l1i.miss_rate() * 100.0,
                h.l1d.miss_rate() * 100.0,
                h.l2.miss_rate() * 100.0,
                h.itlb_misses,
                h.dtlb_misses
            )?;
        }
        for (class, util) in &self.fu_utilisation {
            write!(f, "  {class}: {:.0}%", util * 100.0)?;
        }
        writeln!(f)
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Why the run stopped.
    pub stop: SimStop,
    /// Timing statistics.
    pub stats: PipelineStats,
    /// Values printed by committed `print` instructions, in order.
    pub output: Vec<i64>,
    /// Exit code from the committed `halt`, if the program halted.
    pub exit_code: Option<u64>,
    /// Digest of the final architectural register state.
    pub state_digest: u64,
}

impl SimResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Committed instruction count.
    pub fn committed_instructions(&self) -> u64 {
        self.stats.committed
    }

    /// Simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_is_guarded() {
        let s = PipelineStats::default();
        assert_eq!(s.ipc(), 0.0);
        let s = PipelineStats {
            cycles: 100,
            committed: 150,
            ..Default::default()
        };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn idle_fraction() {
        let s = PipelineStats {
            cycles: 10,
            issued: 40,
            ..Default::default()
        };
        assert!((s.idle_issue_fraction(8) - 0.5).abs() < 1e-12);
        assert_eq!(PipelineStats::default().idle_issue_fraction(8), 0.0);
    }

    #[test]
    fn stall_lines_report_rates_per_1k_cycles() {
        let s = PipelineStats {
            cycles: 2000,
            dispatch_stall_ruu_full: 30,
            dispatch_stall_lsq_full: 5,
            ..Default::default()
        };
        assert!((s.per_1k_cycles(s.dispatch_stall_ruu_full) - 15.0).abs() < 1e-12);
        let text = s.to_string();
        assert!(text.contains("30 RUU-full (15.00/1k cycles)"), "{text}");
        assert!(text.contains("5 LSQ-full (2.50/1k cycles)"), "{text}");
        assert_eq!(PipelineStats::default().per_1k_cycles(7), 0.0);
    }

    #[test]
    fn error_display() {
        let e = SimError::Deadlock { cycle: 42 };
        assert!(e.to_string().contains("42"));
    }
}
