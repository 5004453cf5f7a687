//! The front end: oracle-driven instruction delivery with branch
//! prediction and a replay window.
//!
//! Simulation is execution-driven (SimpleScalar style): the functional
//! emulator runs the *correct* path, and the front end charges timing
//! penalties when the branch predictor would have gone the other way —
//! fetch simply stalls until the mispredicted instruction resolves, then
//! pays a redirect penalty. Wrong-path instructions are not injected.
//!
//! Every executed-but-uncommitted instruction stays in a replay window
//! so a REESE error-detection flush can rewind fetch to the faulting
//! instruction without disturbing architectural state. The window is
//! also the one home of each in-flight instruction's functional record
//! and prediction bookkeeping: the fetch queue is its undispatched
//! tail, and every later stage reads the record by sequence number.

use crate::{PredictionInfo, Seq};
use reese_bpred::{BranchStats, BranchUnit, PredictorConfig};
use reese_cpu::{EmuError, Emulator, StepInfo};
use reese_isa::{OpKind, Opcode, Reg};
use reese_mem::MemHierarchy;
use std::collections::VecDeque;

/// The fetch unit and its replay window.
///
/// The window holds the record of every instruction the emulator has
/// executed and the core has not retired, oldest first. Three cursors
/// split it:
///
/// ```text
/// commit point      dispatch cursor      fetch cursor
///      | dispatched      | fetch queue        | executed, not yet
///      | (RUU, R-queue)  | (delivered)        | delivered (replay)
/// ```
///
/// [`FetchUnit::record`] and [`FetchUnit::pred`] serve every delivered,
/// uncommitted instruction; [`FetchUnit::queue_front`] and
/// [`FetchUnit::dispatch_front`] are the fetch queue's consumer end.
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
/// fetch.fetch_cycle(1, 8, 16, &mut hier);
/// assert!(fetch.queued() <= 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FetchUnit {
    emulator: Emulator,
    branch: BranchUnit,
    /// Functional records from the commit point on; `records[0]` has
    /// sequence number `base_seq`. The emulator appends to it.
    records: VecDeque<StepInfo>,
    /// Prediction bookkeeping of every delivered instruction:
    /// `preds[i]` belongs to `records[i]`, for `i < cursor`.
    preds: VecDeque<PredictionInfo>,
    base_seq: Seq,
    /// Index of the fetch queue's front: the oldest delivered
    /// instruction not yet dispatched.
    dispatched: usize,
    /// Next index to deliver.
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
            records: VecDeque::new(),
            preds: VecDeque::new(),
            dispatched: 0,
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
    #[inline]
    pub fn next_seq(&self) -> Seq {
        self.base_seq + self.cursor as Seq
    }

    /// Sequence number of the oldest uncommitted instruction: the
    /// commit point, and the next one [`FetchUnit::on_commit`] retires.
    #[inline]
    pub fn oldest_seq(&self) -> Seq {
        self.base_seq
    }

    /// The functional record of delivered, uncommitted instruction
    /// `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` has committed or has not been delivered.
    #[inline]
    pub fn record(&self, seq: Seq) -> &StepInfo {
        &self.records[self.delivered_index(seq)]
    }

    /// The prediction bookkeeping of delivered, uncommitted instruction
    /// `seq`.
    ///
    /// # Panics
    ///
    /// As [`FetchUnit::record`].
    #[inline]
    pub fn pred(&self, seq: Seq) -> PredictionInfo {
        self.preds[self.delivered_index(seq)]
    }

    #[inline]
    fn delivered_index(&self, seq: Seq) -> usize {
        // A committed seq wraps to a huge index.
        let i = seq.wrapping_sub(self.base_seq) as usize;
        assert!(
            i < self.cursor,
            "seq {seq} outside the delivered window [{}, {})",
            self.base_seq,
            self.next_seq()
        );
        i
    }

    /// Delivered instructions not yet dispatched: the fetch queue's
    /// occupancy.
    #[inline]
    pub fn queued(&self) -> usize {
        self.cursor - self.dispatched
    }

    /// The fetch queue's front: the oldest delivered instruction not
    /// yet dispatched.
    #[inline]
    pub fn queue_front(&self) -> Option<Seq> {
        (self.dispatched < self.cursor).then(|| self.base_seq + self.dispatched as Seq)
    }

    /// Moves the dispatch cursor past the queue's front, once every
    /// copy of it is in the RUU. Its record stays in the window until
    /// it commits.
    ///
    /// # Panics
    ///
    /// Panics if the fetch queue is empty.
    #[inline]
    pub fn dispatch_front(&mut self) {
        assert!(
            self.dispatched < self.cursor,
            "dispatch from an empty fetch queue"
        );
        self.dispatched += 1;
    }

    /// Whether fetch is stalled on an unresolved misprediction.
    pub fn is_blocked(&self) -> bool {
        self.blocked_on.is_some()
    }

    /// Whether the front end can never deliver another instruction
    /// (halt delivered, or emulator finished/errored with the window
    /// drained).
    pub fn exhausted(&self) -> bool {
        self.delivered_halt || (self.emu_done && self.cursor == self.records.len())
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
        if self.cursor < self.records.len() {
            return true;
        }
        if self.emu_done {
            return false;
        }
        match self.emulator.step_into(&mut self.records) {
            Ok(()) => {
                self.emu_done = self.emulator.exit_code().is_some();
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
    /// instructions onto the fetch queue, consulting the instruction
    /// cache and the branch predictor.
    pub fn fetch_cycle(
        &mut self,
        cycle: u64,
        width: usize,
        queue_space: usize,
        hierarchy: &mut MemHierarchy,
    ) {
        if self.blocked_on.is_some() || self.delivered_halt || cycle < self.resume_at {
            return;
        }
        let l1i_hit = 2; // accounted inside the fetch pipeline depth
        for _ in 0..width.min(queue_space) {
            if !self.ensure_buffered() {
                break;
            }
            let info = &self.records[self.cursor];
            let latency = hierarchy.access_inst(info.pc);
            if latency > l1i_hit {
                // Instruction-cache miss: stall; the retry will hit.
                self.resume_at = cycle + u64::from(latency);
                break;
            }
            let (pred, end_group) = predict(&mut self.branch, self.inst_size, info);
            let seq = self.next_seq();
            if info.halted {
                self.delivered_halt = true;
            }
            self.preds.push_back(pred);
            self.cursor += 1;
            self.total_fetched += 1;
            if pred.mispredicted {
                self.blocked_on = Some(seq);
                break;
            }
            if self.delivered_halt || end_group {
                break;
            }
        }
    }

    /// Called at writeback when control instruction `seq` resolves:
    /// trains the predictors and, if fetch was stalled on it, schedules
    /// the redirect.
    pub fn resolve_control(&mut self, seq: Seq, cycle: u64, mispredict_penalty: u32) {
        let i = self.delivered_index(seq);
        let (info, pred) = (&self.records[i], self.preds[i]);
        if let Some(predicted) = pred.predicted_taken {
            self.branch.resolve_branch(info.pc, predicted, info.taken);
        }
        if let Some(predicted) = pred.predicted_target {
            self.branch
                .resolve_indirect(info.pc, predicted, info.next_pc);
        }
        if self.blocked_on == Some(seq) {
            self.blocked_on = None;
            self.resume_at = cycle + 1 + u64::from(mispredict_penalty);
        }
    }

    /// Notifies that the oldest `n` instructions committed, shrinking
    /// the replay window.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the dispatched-but-uncommitted count.
    pub fn on_commit(&mut self, n: usize) {
        assert!(
            n <= self.dispatched,
            "committing instructions that were never dispatched"
        );
        for _ in 0..n {
            self.records.pop_front();
            self.preds.pop_front();
        }
        self.base_seq += n as Seq;
        self.dispatched -= n;
        self.cursor -= n;
    }

    /// Rewinds fetch to `seq` (a REESE detection flush): every delivered
    /// instruction at or after `seq` leaves the fetch queue and will be
    /// delivered again. Fetch resumes at `resume_cycle`.
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
        self.dispatched = self.dispatched.min(self.cursor);
        self.preds.truncate(self.cursor);
        self.blocked_on = None;
        self.delivered_halt = false;
        self.resume_at = resume_cycle;
    }
}

/// Consults the predictors for a control instruction; returns the
/// bookkeeping and whether the fetch group must end (taken control
/// flow redirects fetch to a new address next cycle).
fn predict(branch: &mut BranchUnit, inst_size: u64, info: &StepInfo) -> (PredictionInfo, bool) {
    let mut pred = PredictionInfo::default();
    let instr = &info.instr;
    match instr.op.kind() {
        OpKind::Branch => {
            let predicted = branch.predict_branch(info.pc);
            pred.predicted_taken = Some(predicted);
            if predicted != info.taken {
                pred.mispredicted = true;
            }
            (pred, info.taken)
        }
        OpKind::Jump => {
            if instr.op == Opcode::Jal {
                if instr.rd == Reg::RA {
                    branch.push_return(info.pc + inst_size);
                }
                // Direct target: computed in decode, one-cycle redirect.
                (pred, true)
            } else {
                let is_return = instr.rd.is_zero() && instr.rs1 == Reg::RA;
                let predicted = if is_return {
                    branch.pop_return()
                } else {
                    branch.predict_indirect(info.pc)
                };
                pred.predicted_target = Some(predicted);
                if instr.rd == Reg::RA {
                    branch.push_return(info.pc + inst_size);
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

    /// One fetch cycle of width 8 with `queue_space` free queue slots;
    /// returns the delivered seqs, which it then dispatches.
    fn fetch_one(
        f: &mut FetchUnit,
        cycle: u64,
        queue_space: usize,
        h: &mut MemHierarchy,
    ) -> Vec<Seq> {
        let first = f.next_seq();
        f.fetch_cycle(cycle, 8, queue_space, h);
        let delivered: Vec<Seq> = (first..f.next_seq()).collect();
        assert_eq!(
            f.queued(),
            delivered.len(),
            "the queue is what was delivered"
        );
        while f.queue_front().is_some() {
            f.dispatch_front();
        }
        delivered
    }

    /// Drains the front end completely, resolving all control.
    fn drain(f: &mut FetchUnit, h: &mut MemHierarchy) -> Vec<Seq> {
        let mut all = Vec::new();
        for cycle in 1..10_000 {
            let batch = fetch_one(f, cycle, 64, h);
            for &seq in &batch {
                if f.record(seq).instr.op.is_control() {
                    f.resolve_control(seq, cycle, 3);
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
        // Sequence numbers are consecutive from zero.
        assert_eq!(all, vec![0, 1, 2, 3]);
        assert_eq!(f.record(3).instr.op, Opcode::Halt);
        assert!(f.exhausted());
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
            let batch = fetch_one(&mut f, cycle, 64, &mut h);
            if let Some(&last) = batch.last() {
                if f.pred(last).mispredicted {
                    assert!(f.is_blocked());
                    let before = fetch_one(&mut f, cycle + 1, 64, &mut h);
                    assert!(before.is_empty(), "no fetch while blocked");
                    f.resolve_control(last, cycle + 1, 3);
                    assert!(!f.is_blocked());
                    // Redirect penalty: nothing until cycle + 1 + 1 + 3.
                    assert!(fetch_one(&mut f, cycle + 2, 64, &mut h).is_empty());
                }
            }
            for &seq in &batch {
                if f.record(seq).instr.op.is_control() && !f.pred(seq).mispredicted {
                    f.resolve_control(seq, cycle, 3);
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
        let before = *f.record(1);
        // Nothing committed yet; rewind to seq 1 and refetch.
        f.flush_to(1, 0);
        assert!(!f.exhausted());
        let replay = drain(&mut f, &mut h);
        assert_eq!(replay, vec![1, 2, 3]);
        assert_eq!(f.record(1).instr.op, Opcode::Li);
        // Functional record identical on replay.
        assert_eq!(*f.record(1), before);
    }

    #[test]
    fn the_window_serves_every_delivered_uncommitted_record_by_seq() {
        // A loop with taken branches (fetch groups end), a call and a
        // return (RAS pushes and pops), loads and stores: 5 iterations
        // of 8 instructions around a 2-instruction leaf.
        let src = "        .entry main\n\
                   leaf:   add a0, a0, t0\n\
                           ret\n\
                   main:   li t0, 5\n\
                   loop:   sd t0, -8(sp)\n\
                           ld t1, -8(sp)\n\
                           call leaf\n\
                           addi t0, t1, -1\n\
                           bnez t0, loop\n\
                           print a0\n\
                           halt\n";
        let prog = assemble(src).unwrap();
        let stream: Vec<StepInfo> = {
            let mut emu = Emulator::new(&prog);
            let mut all = Vec::new();
            while emu.exit_code().is_none() {
                all.push(emu.step().unwrap());
            }
            all
        };
        let mut f = FetchUnit::new(Emulator::new(&prog), PredictorConfig::paper());
        let mut h = hier();
        // Each delivered seq's prediction, as first delivered.
        let mut preds: Vec<Option<PredictionInfo>> = vec![None; stream.len()];
        let check = |f: &FetchUnit, preds: &[Option<PredictionInfo>]| {
            for seq in f.oldest_seq()..f.next_seq() {
                let (info, pred) = (f.record(seq), f.pred(seq));
                assert_eq!(*info, stream[seq as usize], "record of seq {seq}");
                assert_eq!(Some(pred), preds[seq as usize], "pred of seq {seq}");
                // The prediction belongs to this record's instruction.
                let kind = info.instr.op.kind();
                assert_eq!(pred.predicted_taken.is_some(), kind == OpKind::Branch);
                let indirect = info.instr.op == Opcode::Jalr;
                assert_eq!(pred.predicted_target.is_some(), indirect);
            }
        };
        let (mut flushed, mut redelivered) = (false, 0);
        for cycle in 1..1_000 {
            // A narrow queue, so the window keeps undelivered records.
            let first = f.next_seq();
            f.fetch_cycle(cycle, 3, 3 - f.queued(), &mut h);
            for seq in first..f.next_seq() {
                let pred = f.pred(seq);
                if flushed && seq < redelivered {
                    // Re-delivery predicts again from a trained unit;
                    // only the record is the same.
                    preds[seq as usize] = Some(pred);
                }
                preds[seq as usize].get_or_insert(pred);
            }
            check(&f, &preds);
            // Dispatch one, resolve what was dispatched, commit one.
            if f.queue_front().is_some() {
                f.dispatch_front();
            }
            for seq in f.oldest_seq()..f.next_seq() - f.queued() as Seq {
                if f.record(seq).instr.op.is_control() {
                    f.resolve_control(seq, cycle, 1);
                }
            }
            if cycle % 3 == 0 && f.next_seq() - f.queued() as Seq > f.oldest_seq() {
                f.on_commit(1);
            }
            check(&f, &preds);
            if !flushed && f.next_seq() - f.oldest_seq() >= 4 {
                // Rewind to a mid-window seq: everything from it on
                // leaves the window's delivered part and comes again.
                let mid = f.oldest_seq() + 2;
                redelivered = f.next_seq();
                f.flush_to(mid, cycle + 2);
                assert_eq!(f.next_seq(), mid);
                check(&f, &preds);
                flushed = true;
            }
            if f.exhausted() && f.queued() == 0 {
                break;
            }
        }
        assert!(flushed);
        assert_eq!(f.next_seq(), stream.len() as Seq, "every record delivered");
        assert!(
            f.total_fetched() > stream.len() as u64,
            "some were delivered twice"
        );
    }

    #[test]
    #[should_panic(expected = "outside the delivered window")]
    fn an_undelivered_record_is_not_served() {
        let mut f = unit("  li t0, 1\n  li t1, 2\n  halt\n");
        let mut h = hier();
        drain(&mut f, &mut h);
        f.flush_to(1, 0);
        // Seq 1 is still emulated, but no longer delivered.
        f.record(1);
    }

    #[test]
    #[should_panic(expected = "outside the delivered window")]
    fn a_committed_record_is_not_served() {
        let mut f = unit("  li t0, 1\n  li t1, 2\n  halt\n");
        let mut h = hier();
        drain(&mut f, &mut h);
        f.on_commit(1);
        f.record(0);
    }

    #[test]
    fn commit_shrinks_replay_window() {
        let mut f = unit("  li t0, 1\n  li t1, 2\n  halt\n");
        let mut h = hier();
        drain(&mut f, &mut h);
        f.on_commit(2);
        assert_eq!(f.oldest_seq(), 2);
        // Flushing to a committed seq is now impossible.
        f.flush_to(2, 0); // seq 2 (halt) still uncommitted: fine
        assert!(!f.exhausted());
    }

    #[test]
    #[should_panic(expected = "never dispatched")]
    fn committing_past_the_dispatch_cursor_panics() {
        let mut f = unit("  li t0, 1\n  li t1, 2\n  halt\n");
        let mut h = hier();
        for cycle in 1..100 {
            f.fetch_cycle(cycle, 8, 8, &mut h);
        }
        assert_eq!(f.queued(), 3);
        f.dispatch_front();
        f.on_commit(2);
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
        let got = fetch_one(&mut f, 1, 2, &mut h);
        assert!(got.len() <= 2);
    }

    #[test]
    fn wild_jump_surfaces_emulator_error() {
        let mut f = unit("  li t0, 0x900000\n  jalr x0, 0(t0)\n  halt\n");
        let mut h = hier();
        let mut all = Vec::new();
        for cycle in 1..100 {
            let batch = fetch_one(&mut f, cycle, 64, &mut h);
            for &seq in &batch {
                if f.record(seq).instr.op.is_control() {
                    f.resolve_control(seq, cycle, 3);
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
        let ret = *all
            .iter()
            .find(|&&seq| f.record(seq).instr.op == Opcode::Jalr)
            .unwrap();
        assert!(!f.pred(ret).mispredicted, "RAS must predict the return");
    }
}
