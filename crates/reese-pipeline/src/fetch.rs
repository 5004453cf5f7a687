//! The front end: oracle-driven instruction delivery with branch
//! prediction and a replay window.
//!
//! Simulation is execution-driven (SimpleScalar style): the functional
//! emulator runs the *correct* path, and the front end charges timing
//! penalties when the branch predictor would have gone the other way —
//! fetch simply stalls until the mispredicted instruction resolves, then
//! pays a redirect penalty. Wrong-path instructions are not injected.
//!
//! Every fetched-but-uncommitted instruction stays in a replay window so
//! a REESE error-detection flush can rewind fetch to the faulting
//! instruction without disturbing architectural state.

use crate::{PredictionInfo, Seq};
use reese_bpred::{BranchStats, BranchUnit, PredictorConfig};
use reese_cpu::{EmuError, Emulator, StepInfo};
use reese_isa::{Instr, OpKind, Opcode, Reg};
use reese_mem::MemHierarchy;
use std::collections::VecDeque;

/// One instruction delivered by the front end.
#[derive(Debug, Clone, Copy)]
pub struct Fetched {
    /// Fetch sequence number (program order).
    pub seq: Seq,
    /// Functional record.
    pub info: StepInfo,
    /// Prediction bookkeeping (for resolution at writeback).
    pub pred: PredictionInfo,
}

/// The fetch unit.
///
/// # Example
///
/// ```
/// use reese_bpred::PredictorConfig;
/// use reese_cpu::Emulator;
/// use reese_mem::{HierarchyConfig, MemHierarchy};
/// use reese_pipeline::FetchUnit;
///
/// let prog = reese_isa::assemble("  li t0, 1\n  halt\n")?;
/// let mut hier = MemHierarchy::new(HierarchyConfig::paper());
/// let mut fetch = FetchUnit::new(Emulator::new(&prog), PredictorConfig::paper());
/// let got = fetch.fetch_cycle(1, 8, 16, &mut hier);
/// assert!(got.len() <= 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FetchUnit {
    emulator: Emulator,
    branch: BranchUnit,
    /// Window of fetched-but-uncommitted instructions; `buffer[0]` has
    /// sequence number `base_seq`.
    buffer: VecDeque<StepInfo>,
    base_seq: Seq,
    /// Next buffer index to deliver.
    cursor: usize,
    /// Mispredicted control instruction fetch is stalled on.
    blocked_on: Option<Seq>,
    /// Earliest cycle fetch may run (icache stall / redirect penalty).
    resume_at: u64,
    /// A halt has been delivered and not flushed away.
    delivered_halt: bool,
    /// The emulator has produced its final instruction (halt or error).
    emu_done: bool,
    emu_error: Option<EmuError>,
    total_fetched: u64,
    /// Instruction size of the running program's ISA; return-address
    /// pushes use it to compute the link address (`pc + size`).
    inst_size: u64,
}

impl FetchUnit {
    /// Creates a front end over `emulator`: a fresh one at program
    /// start, or one restored from a checkpoint mid-program. The
    /// emulator must sit exactly at an instruction boundary;
    /// `emulator.instructions()` becomes the next sequence number, so
    /// dynamic numbering continues exactly where a run from program
    /// start would be.
    pub fn new(emulator: Emulator, predictor: PredictorConfig) -> FetchUnit {
        let emu_done = emulator.exit_code().is_some();
        FetchUnit {
            base_seq: emulator.instructions(),
            branch: BranchUnit::new(predictor),
            inst_size: emulator.inst_size(),
            emulator,
            buffer: VecDeque::new(),
            cursor: 0,
            blocked_on: None,
            resume_at: 0,
            delivered_halt: false,
            emu_done,
            emu_error: None,
            total_fetched: 0,
        }
    }

    /// Overwrites the branch unit's dynamic state (checkpoint warm-up).
    pub fn import_branch_state(&mut self, snap: &reese_bpred::BranchSnapshot) {
        self.branch.import_state(snap);
    }

    /// Dynamic instructions the functional emulator has executed, in
    /// global numbering: instruction `seq` has executed iff
    /// `seq < emulated()`. Fetch runs at most `width` emulator steps
    /// per cycle, which is what makes a fork point exact (see
    /// [`crate::Core::run_forked`]).
    pub fn emulated(&self) -> Seq {
        self.emulator.instructions()
    }

    /// Arms an architectural result fault on dynamic instruction `seq`
    /// (see [`Emulator::inject_result_fault`]). It fires only if the
    /// emulator has not executed `seq` yet.
    pub fn inject_result_fault(&mut self, seq: Seq, bit: u8) {
        self.emulator.inject_result_fault(seq, bit);
    }

    /// Sequence number of the next instruction to deliver.
    pub fn next_seq(&self) -> Seq {
        self.base_seq + self.cursor as Seq
    }

    /// Whether fetch is stalled on an unresolved misprediction.
    pub fn is_blocked(&self) -> bool {
        self.blocked_on.is_some()
    }

    /// Whether the front end can never deliver another instruction
    /// (halt delivered, or emulator finished/errored with the window
    /// drained).
    pub fn exhausted(&self) -> bool {
        self.delivered_halt || (self.emu_done && self.cursor == self.buffer.len())
    }

    /// Earliest cycle at or after `now` when fetch could deliver an
    /// instruction, or `None` if it cannot run until some pipeline event
    /// unblocks it (stalled on a misprediction, or out of instructions).
    ///
    /// `Some(now)` means fetch is active *this* cycle; the event-driven
    /// loop uses this to decide whether the clock may jump ahead, and if
    /// so, how far.
    pub fn next_fetch_cycle(&self, now: u64) -> Option<u64> {
        if self.blocked_on.is_some() || self.exhausted() {
            None
        } else {
            Some(self.resume_at.max(now))
        }
    }

    /// The emulator error that terminated instruction supply, if any.
    pub fn error(&self) -> Option<&EmuError> {
        self.emu_error.as_ref()
    }

    /// Total instructions delivered (replays count again).
    pub fn total_fetched(&self) -> u64 {
        self.total_fetched
    }

    /// Branch predictor statistics.
    pub fn branch_stats(&self) -> BranchStats {
        self.branch.stats()
    }

    /// Final register-state digest (valid once the program has halted).
    pub fn state_digest(&self) -> u64 {
        self.emulator.state().digest()
    }

    /// Read-only access to the architectural memory (for tests).
    pub fn memory(&self) -> &reese_mem::Memory {
        self.emulator.memory()
    }

    fn ensure_buffered(&mut self) -> bool {
        if self.cursor < self.buffer.len() {
            return true;
        }
        if self.emu_done {
            return false;
        }
        match self.emulator.step() {
            Ok(info) => {
                if info.halted {
                    self.emu_done = true;
                }
                self.buffer.push_back(info);
                true
            }
            Err(e) => {
                self.emu_error = Some(e);
                self.emu_done = true;
                false
            }
        }
    }

    /// Runs one fetch cycle: delivers up to `min(width, queue_space)`
    /// instructions, consulting the instruction cache and the branch
    /// predictor.
    pub fn fetch_cycle(
        &mut self,
        cycle: u64,
        width: usize,
        queue_space: usize,
        hierarchy: &mut MemHierarchy,
    ) -> Vec<Fetched> {
        let mut out = Vec::new();
        if self.blocked_on.is_some() || self.delivered_halt || cycle < self.resume_at {
            return out;
        }
        let l1i_hit = 2; // accounted inside the fetch pipeline depth
        while out.len() < width.min(queue_space) {
            if !self.ensure_buffered() {
                break;
            }
            let info = self.buffer[self.cursor];
            let latency = hierarchy.access_inst(info.pc);
            if latency > l1i_hit {
                // Instruction-cache miss: stall; the retry will hit.
                self.resume_at = cycle + u64::from(latency);
                break;
            }
            let seq = self.next_seq();
            let (pred, end_group) = self.predict(&info);
            self.cursor += 1;
            self.total_fetched += 1;
            if info.halted {
                self.delivered_halt = true;
            }
            out.push(Fetched { seq, info, pred });
            if pred.mispredicted {
                self.blocked_on = Some(seq);
                break;
            }
            if self.delivered_halt || end_group {
                break;
            }
        }
        out
    }

    /// Consults the predictors for a control instruction; returns the
    /// bookkeeping and whether the fetch group must end (taken control
    /// flow redirects fetch to a new address next cycle).
    fn predict(&mut self, info: &StepInfo) -> (PredictionInfo, bool) {
        let mut pred = PredictionInfo::default();
        let instr: &Instr = &info.instr;
        match instr.op.kind() {
            OpKind::Branch => {
                let predicted = self.branch.predict_branch(info.pc);
                pred.predicted_taken = Some(predicted);
                if predicted != info.taken {
                    pred.mispredicted = true;
                }
                (pred, info.taken)
            }
            OpKind::Jump => {
                if instr.op == Opcode::Jal {
                    if instr.rd == Reg::RA {
                        self.branch.push_return(info.pc + self.inst_size);
                    }
                    // Direct target: computed in decode, one-cycle redirect.
                    (pred, true)
                } else {
                    let is_return = instr.rd.is_zero() && instr.rs1 == Reg::RA;
                    let predicted = if is_return {
                        self.branch.pop_return()
                    } else {
                        self.branch.predict_indirect(info.pc)
                    };
                    pred.predicted_target = Some(predicted);
                    if instr.rd == Reg::RA {
                        self.branch.push_return(info.pc + self.inst_size);
                    }
                    if predicted != Some(info.next_pc) {
                        pred.mispredicted = true;
                    }
                    (pred, true)
                }
            }
            _ => (pred, false),
        }
    }

    /// Called at writeback when a control instruction resolves: trains
    /// the predictors and, if fetch was stalled on it, schedules the
    /// redirect.
    pub fn resolve_control(&mut self, fetched: &Fetched, cycle: u64, mispredict_penalty: u32) {
        let info = &fetched.info;
        if let Some(predicted) = fetched.pred.predicted_taken {
            self.branch.resolve_branch(info.pc, predicted, info.taken);
        }
        if let Some(predicted) = fetched.pred.predicted_target {
            self.branch
                .resolve_indirect(info.pc, predicted, info.next_pc);
        }
        if self.blocked_on == Some(fetched.seq) {
            self.blocked_on = None;
            self.resume_at = cycle + 1 + u64::from(mispredict_penalty);
        }
    }

    /// Notifies that the oldest `n` instructions committed, shrinking
    /// the replay window.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the delivered-but-uncommitted count.
    pub fn on_commit(&mut self, n: usize) {
        assert!(
            n <= self.cursor,
            "committing instructions that were never delivered"
        );
        self.buffer.drain(..n);
        self.base_seq += n as Seq;
        self.cursor -= n;
    }

    /// Rewinds fetch to `seq` (a REESE detection flush): every delivered
    /// instruction at or after `seq` will be delivered again. Fetch
    /// resumes at `resume_cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is outside the replay window.
    pub fn flush_to(&mut self, seq: Seq, resume_cycle: u64) {
        assert!(
            seq >= self.base_seq && seq <= self.next_seq(),
            "flush target {seq} outside replay window [{}, {}]",
            self.base_seq,
            self.next_seq()
        );
        self.cursor = (seq - self.base_seq) as usize;
        self.blocked_on = None;
        self.delivered_halt = false;
        self.resume_at = resume_cycle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_isa::assemble;
    use reese_mem::HierarchyConfig;

    fn hier() -> MemHierarchy {
        MemHierarchy::new(HierarchyConfig::paper())
    }

    fn unit(src: &str) -> FetchUnit {
        FetchUnit::new(
            Emulator::new(&assemble(src).unwrap()),
            PredictorConfig::paper(),
        )
    }

    /// Drains the front end completely, resolving all control.
    fn drain(f: &mut FetchUnit, h: &mut MemHierarchy) -> Vec<Fetched> {
        let mut all = Vec::new();
        for cycle in 1..10_000 {
            let batch = f.fetch_cycle(cycle, 8, 64, h);
            for fi in &batch {
                if fi.info.instr.op.is_control() {
                    f.resolve_control(fi, cycle, 3);
                }
            }
            all.extend(batch);
            if f.exhausted() {
                break;
            }
        }
        all
    }

    #[test]
    fn straight_line_fetch() {
        let mut f = unit("  li t0, 1\n  li t1, 2\n  add t2, t0, t1\n  halt\n");
        let mut h = hier();
        let all = drain(&mut f, &mut h);
        assert_eq!(all.len(), 4);
        assert_eq!(all.last().unwrap().info.instr.op, Opcode::Halt);
        assert!(f.exhausted());
        // Sequence numbers are consecutive from zero.
        let seqs: Vec<Seq> = all.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn taken_branch_ends_fetch_group() {
        // A tight countdown loop: the backward branch is taken 4 times.
        let mut f = unit("  li t0, 5\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n");
        let mut h = hier();
        let all = drain(&mut f, &mut h);
        // 1 li + 5*(addi,bne) + halt = 12 dynamic instructions.
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn misprediction_blocks_until_resolved() {
        let mut f = unit("  li t0, 1\n  beqz t0, skip\n  nop\nskip: halt\n");
        let mut h = hier();
        // beqz is not taken (t0 = 1); a cold gshare predicts not-taken,
        // so this particular branch is *correctly* predicted. Train the
        // opposite first via a taken loop to force a mispredict instead:
        let mut got = Vec::new();
        let mut cycle = 0;
        while !f.exhausted() && cycle < 1000 {
            cycle += 1;
            let batch = f.fetch_cycle(cycle, 8, 64, &mut h);
            if let Some(last) = batch.last() {
                if last.pred.mispredicted {
                    assert!(f.is_blocked());
                    let before = f.fetch_cycle(cycle + 1, 8, 64, &mut h);
                    assert!(before.is_empty(), "no fetch while blocked");
                    f.resolve_control(last, cycle + 1, 3);
                    assert!(!f.is_blocked());
                    // Redirect penalty: nothing until cycle + 1 + 1 + 3.
                    assert!(f.fetch_cycle(cycle + 2, 8, 64, &mut h).is_empty());
                }
            }
            for fi in &batch {
                if fi.info.instr.op.is_control() && !fi.pred.mispredicted {
                    f.resolve_control(fi, cycle, 3);
                }
            }
            got.extend(batch);
        }
        assert!(f.exhausted());
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn replay_window_and_flush() {
        let mut f = unit("  li t0, 1\n  li t1, 2\n  li t2, 3\n  halt\n");
        let mut h = hier();
        let all = drain(&mut f, &mut h);
        assert_eq!(all.len(), 4);
        // Nothing committed yet; rewind to seq 1 and refetch.
        f.flush_to(1, 0);
        assert!(!f.exhausted());
        let replay = drain(&mut f, &mut h);
        assert_eq!(replay.len(), 3);
        assert_eq!(replay[0].seq, 1);
        assert_eq!(replay[0].info.instr.op, Opcode::Li);
        // Functional record identical on replay.
        assert_eq!(replay[0].info, all[1].info);
    }

    #[test]
    fn commit_shrinks_replay_window() {
        let mut f = unit("  li t0, 1\n  li t1, 2\n  halt\n");
        let mut h = hier();
        drain(&mut f, &mut h);
        f.on_commit(2);
        // Flushing to a committed seq is now impossible.
        f.flush_to(2, 0); // seq 2 (halt) still uncommitted: fine
        assert!(!f.exhausted());
    }

    #[test]
    #[should_panic(expected = "outside replay window")]
    fn flush_before_window_panics() {
        let mut f = unit("  li t0, 1\n  li t1, 2\n  halt\n");
        let mut h = hier();
        drain(&mut f, &mut h);
        f.on_commit(2);
        f.flush_to(0, 0);
    }

    #[test]
    fn next_fetch_cycle_tracks_stall_state() {
        let mut f = unit("  li t0, 1\n  li t1, 2\n  halt\n");
        let mut h = hier();
        assert_eq!(f.next_fetch_cycle(1), Some(1));
        drain(&mut f, &mut h);
        // Exhausted: no future cycle will deliver anything.
        assert_eq!(f.next_fetch_cycle(5), None);
        // A flush re-arms fetch at its resume cycle.
        f.flush_to(1, 9);
        assert_eq!(f.next_fetch_cycle(5), Some(9));
        assert_eq!(f.next_fetch_cycle(12), Some(12));
    }

    #[test]
    fn queue_space_respected() {
        let mut f = unit("  li t0, 1\n  li t1, 2\n  li t2, 3\n  halt\n");
        let mut h = hier();
        let got = f.fetch_cycle(1, 8, 2, &mut h);
        assert!(got.len() <= 2);
    }

    #[test]
    fn wild_jump_surfaces_emulator_error() {
        let mut f = unit("  li t0, 0x900000\n  jalr x0, 0(t0)\n  halt\n");
        let mut h = hier();
        let mut all = Vec::new();
        for cycle in 1..100 {
            let batch = f.fetch_cycle(cycle, 8, 64, &mut h);
            for fi in &batch {
                if fi.info.instr.op.is_control() {
                    f.resolve_control(fi, cycle, 3);
                }
            }
            all.extend(batch);
            if f.exhausted() {
                break;
            }
        }
        assert!(f.error().is_some());
        assert_eq!(
            all.len(),
            2,
            "li and jalr only; the wild target is unfetchable"
        );
    }

    #[test]
    fn call_return_uses_ras() {
        let mut f = unit(
            "        .entry main\n\
             f:      ret\n\
             main:   call f\n\
                     halt\n",
        );
        let mut h = hier();
        let all = drain(&mut f, &mut h);
        assert_eq!(all.len(), 3);
        // The `ret` should have been RAS-predicted, not a mispredict.
        let ret = all
            .iter()
            .find(|x| x.info.instr.op == Opcode::Jalr)
            .unwrap();
        assert!(!ret.pred.mispredicted, "RAS must predict the return");
    }
}
