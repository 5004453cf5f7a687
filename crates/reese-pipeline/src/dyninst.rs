//! In-flight dynamic instruction records.

use reese_isa::Reg;

/// Monotonically increasing id of a dynamic (fetched) instruction.
pub type Seq = u64;

/// Branch-prediction bookkeeping attached to a fetched instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredictionInfo {
    /// Direction predicted for a conditional branch.
    pub predicted_taken: Option<bool>,
    /// Target predicted for an indirect jump (`None` = no prediction
    /// bookkeeping, `Some(None)` = BTB miss, `Some(Some(t))` = target).
    pub predicted_target: Option<Option<u64>>,
    /// Whether the front end discovered a misprediction when it fetched
    /// this instruction (fetch stalls until the instruction resolves).
    pub mispredicted: bool,
}

/// One instruction in flight in the RUU, in the scan scheduler's
/// array-of-structures layout.
///
/// It holds scheduling state only. The functional record ([`StepInfo`]:
/// operands, result, effective address, next PC) stays in the front
/// end's replay window ([`crate::FetchUnit::record`]) from the
/// emulator's write to retirement; of it the entry keeps the
/// destination register, which the rename map's retire step needs.
///
/// [`StepInfo`]: reese_cpu::StepInfo
#[derive(Debug, Clone)]
pub struct DynInst {
    /// Fetch sequence number (program order).
    pub seq: Seq,
    /// The architectural register the instruction writes, if any.
    pub dest: Option<Reg>,
    /// Unresolved register/LSQ producers this instruction waits on.
    pub pending_deps: u32,
    /// Instructions waiting for this one's result.
    pub consumers: Vec<Seq>,
    /// Whether the instruction has been issued to a functional unit.
    pub issued: bool,
    /// Whether execution has finished (result available).
    pub completed: bool,
    /// Cycle the instruction was dispatched into the RUU.
    pub dispatch_cycle: u64,
    /// Cycle the instruction issued (valid when `issued`).
    pub issue_cycle: u64,
    /// Cycle execution completes (valid when `issued`).
    pub complete_cycle: u64,
}

impl DynInst {
    /// Creates a fresh record at dispatch time.
    pub fn new(seq: Seq, dest: Option<Reg>, dispatch_cycle: u64) -> DynInst {
        DynInst {
            seq,
            dest,
            pending_deps: 0,
            consumers: Vec::new(),
            issued: false,
            completed: false,
            dispatch_cycle,
            issue_cycle: 0,
            complete_cycle: 0,
        }
    }

    /// Whether all operands are available and the instruction can be
    /// considered by the scheduler.
    pub fn ready(&self) -> bool {
        !self.issued && !self.completed && self.pending_deps == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_isa::abi::*;

    #[test]
    fn readiness() {
        let mut d = DynInst::new(0, Some(T0), 0);
        assert!(d.ready());
        d.pending_deps = 1;
        assert!(!d.ready());
        d.pending_deps = 0;
        d.issued = true;
        assert!(!d.ready(), "issued instructions leave the ready pool");
    }
}
