//! The Register Update Unit.

use crate::{DynInst, EventWheel, InstArena, InstView, ReadyRing, SchedulerMode, Seq};
use reese_cpu::StepInfo;
use reese_isa::NUM_REGS;
use std::collections::VecDeque;

/// In-flight instruction storage, selected by scheduler mode.
///
/// Scan mode keeps the original array-of-structures `VecDeque<DynInst>`
/// so the full-window rescan keeps measuring the unoptimised
/// implementation; event-driven mode stores the same state in the
/// structure-of-arrays [`InstArena`]. Both expose instructions through
/// [`InstView`], so the machines above are layout-blind.
// One Window exists per machine, so the inline-size gap between the
// variants (the arena's dozen Vec headers vs one deque header) is a few
// hundred one-off bytes; boxing would buy them back by putting a pointer
// chase on every scheduler access.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Window {
    Scan(VecDeque<DynInst>),
    Event(InstArena),
}

/// Iterator over either storage layout without boxing (the per-cycle
/// scan loops call [`Ruu::ready_seqs`]; a heap allocation per call
/// would bill the control arm for the arena's bookkeeping).
enum EitherIter<L, R> {
    Scan(L),
    Event(R),
}

impl<T, L: Iterator<Item = T>, R: Iterator<Item = T>> Iterator for EitherIter<L, R> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            EitherIter::Scan(it) => it.next(),
            EitherIter::Event(it) => it.next(),
        }
    }
}

/// The Register Update Unit: SimpleScalar's combined reorder buffer and
/// reservation stations.
///
/// Instructions dispatch into the tail in program order, issue out of
/// order when their operands resolve, and leave from the head in program
/// order. Register renaming is a last-writer map over the 64-entry
/// architectural register space; wake-up is push-based through per-entry
/// consumer lists. An entry holds scheduling state only: its functional
/// record stays in the front end's replay window
/// ([`crate::FetchUnit::record`]), which the stages read by seq.
///
/// The paper identifies the RUU as the central bottleneck ("an RUU-based
/// microprocessor cannot attain 2 IPC on a regular basis… a high-latency
/// instruction can reach the head of the RUU and cause other
/// instructions to back up behind it"), which is why Figures 3 and 7
/// sweep its size.
#[derive(Debug, Clone)]
pub struct Ruu {
    window: Window,
    head_seq: Seq,
    capacity: usize,
    rename: [Option<Seq>; NUM_REGS as usize],
    /// Sequence numbers whose operands have all resolved but which have
    /// not issued ([`SchedulerMode::EventDriven`] only). Ascending
    /// iteration (a rotated bitmap scan from `head_seq`) is
    /// oldest-first, the same order the [`Ruu::ready_seqs`] scan
    /// produces.
    ready: ReadyRing,
    /// Completion event wheel: issued-but-incomplete instructions keyed
    /// by `(complete_cycle, seq)` ([`SchedulerMode::EventDriven`] only).
    /// All latencies are at least one cycle, so at any writeback every
    /// pending event is for the current or a future cycle — popping the
    /// events due *now* yields them in ascending seq order, identical to
    /// the full-window scan.
    completions: EventWheel,
    /// Scheduler bookkeeping operations performed so far: ReadyRing
    /// inserts/removes plus EventWheel pushes/pops. Stays 0 under
    /// [`SchedulerMode::Scan`], which maintains neither structure — the
    /// metrics sampler reads this to expose the event-driven
    /// scheduler's bookkeeping cost per cycle.
    sched_ops: u64,
    /// Reused wake-up buffer for the arena path (no per-complete
    /// allocation).
    wake_scratch: Vec<Seq>,
}

impl Ruu {
    /// Creates an empty RUU with `capacity` entries and the default
    /// (event-driven) scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Ruu {
        Ruu::with_scheduler(capacity, SchedulerMode::default())
    }

    /// Creates an empty RUU with an explicit scheduler mode. In
    /// [`SchedulerMode::Scan`] the incremental structures are not
    /// maintained at all — and instruction state keeps the original
    /// array-of-structures layout — so that mode measures the original
    /// implementation faithfully.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_scheduler(capacity: usize, mode: SchedulerMode) -> Ruu {
        assert!(capacity > 0, "RUU capacity must be positive");
        let window = match mode {
            SchedulerMode::Scan => Window::Scan(VecDeque::with_capacity(capacity)),
            SchedulerMode::EventDriven => Window::Event(InstArena::new(capacity)),
        };
        Ruu {
            window,
            head_seq: 0,
            capacity,
            rename: [None; NUM_REGS as usize],
            ready: ReadyRing::new(capacity),
            completions: EventWheel::new(),
            sched_ops: 0,
            wake_scratch: Vec::new(),
        }
    }

    /// Scheduler bookkeeping operations (ReadyRing + EventWheel)
    /// performed so far; 0 under [`SchedulerMode::Scan`].
    pub fn sched_ops(&self) -> u64 {
        self.sched_ops
    }

    /// Number of occupied entries.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.window {
            Window::Scan(entries) => entries.len(),
            Window::Event(arena) => arena.len(),
        }
    }

    /// Whether the RUU is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the RUU is full (dispatch must stall).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity
    }

    /// Configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Position of `seq` in a seq-contiguous window starting at
    /// `head_seq` with `len` live entries (free function so the scan
    /// arms can index while the window is mutably borrowed).
    #[inline]
    fn index_in(head_seq: Seq, len: usize, seq: Seq) -> Option<usize> {
        if len == 0 || seq < head_seq {
            return None;
        }
        let idx = (seq - head_seq) as usize;
        (idx < len).then_some(idx)
    }

    #[inline]
    fn index_of(&self, seq: Seq) -> Option<usize> {
        Ruu::index_in(self.head_seq, self.len(), seq)
    }

    /// Looks up an in-flight instruction by sequence number. The
    /// per-cycle probes read single fields through the narrow
    /// accessors below instead.
    pub fn get(&self, seq: Seq) -> Option<InstView> {
        match &self.window {
            Window::Scan(entries) => self.index_of(seq).map(|i| entries[i].view()),
            Window::Event(arena) => arena.view(seq),
        }
    }

    /// The cycle in-flight instruction `seq` completes (0 until it
    /// issues).
    #[inline]
    pub fn complete_cycle(&self, seq: Seq) -> Option<u64> {
        match &self.window {
            Window::Scan(entries) => self.index_of(seq).map(|i| entries[i].complete_cycle),
            Window::Event(arena) => arena.complete_cycle(seq),
        }
    }

    /// Whether `seq` is in flight and has completed.
    #[inline]
    pub fn is_completed(&self, seq: Seq) -> bool {
        match &self.window {
            Window::Scan(entries) => self.index_of(seq).is_some_and(|i| entries[i].completed),
            Window::Event(arena) => arena.contains(seq) && arena.is_completed(seq),
        }
    }

    /// The sequence number of the oldest in-flight instruction, if it
    /// has completed (the commit check).
    #[inline]
    pub fn completed_head(&self) -> Option<Seq> {
        match &self.window {
            Window::Scan(entries) => entries.front().filter(|e| e.completed).map(|e| e.seq),
            Window::Event(arena) => {
                let seq = arena.head_seq();
                (!arena.is_empty() && arena.is_completed(seq)).then_some(seq)
            }
        }
    }

    /// Dispatches the instruction whose functional record is `info`
    /// into the tail, wiring its register dependences through the
    /// rename map. The entry keeps the record's destination register,
    /// not the record.
    ///
    /// # Panics
    ///
    /// Panics if the RUU is full or `seq` is not the next sequence
    /// number in program order.
    #[inline]
    pub fn dispatch(&mut self, seq: Seq, info: &StepInfo, cycle: u64) {
        assert!(!self.is_full(), "dispatch into a full RUU");
        if self.is_empty() {
            self.head_seq = seq;
        }
        let mut producers: [Option<Seq>; 2] = [None, None];
        for (slot, src) in info.instr.sources().enumerate() {
            producers[slot] = self.rename[src.raw() as usize];
        }
        // An instruction reading the same pending producer through both
        // operands waits on it once.
        if producers[0].is_some() && producers[0] == producers[1] {
            producers[1] = None;
        }
        let dest = info.instr.dest();
        match &mut self.window {
            Window::Scan(entries) => {
                if let Some(last) = entries.back() {
                    assert_eq!(seq, last.seq + 1, "dispatch must follow program order");
                }
                let mut inst = DynInst::new(seq, dest, cycle);
                for producer_seq in producers.into_iter().flatten() {
                    if let Some(idx) = Ruu::index_in(self.head_seq, entries.len(), producer_seq) {
                        if !entries[idx].completed {
                            entries[idx].consumers.push(seq);
                            inst.pending_deps += 1;
                        }
                    }
                }
                entries.push_back(inst);
            }
            Window::Event(arena) => {
                arena.dispatch(seq, dest, cycle);
                for producer_seq in producers.into_iter().flatten() {
                    if arena.contains(producer_seq) && !arena.is_completed(producer_seq) {
                        arena.add_consumer(producer_seq, seq);
                        arena.inc_pending(seq);
                    }
                }
                if arena.is_ready(seq) {
                    self.ready.insert(seq);
                    self.sched_ops += 1;
                }
            }
        }
        if let Some(rd) = dest {
            self.rename[rd.raw() as usize] = Some(seq);
        }
    }

    /// Marks `seq` complete and wakes its consumers.
    ///
    /// Consumers that have already left the window (only possible after
    /// a flush) are silently skipped.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not in flight.
    #[inline]
    pub fn complete(&mut self, seq: Seq) {
        match &mut self.window {
            Window::Scan(entries) => {
                let idx = Ruu::index_in(self.head_seq, entries.len(), seq)
                    .expect("completing an instruction not in the RUU");
                entries[idx].completed = true;
                let consumers = std::mem::take(&mut entries[idx].consumers);
                for c in consumers {
                    if let Some(ci) = Ruu::index_in(self.head_seq, entries.len(), c) {
                        debug_assert!(entries[ci].pending_deps > 0);
                        entries[ci].pending_deps -= 1;
                    }
                }
            }
            Window::Event(arena) => {
                assert!(
                    arena.contains(seq),
                    "completing an instruction not in the RUU"
                );
                let mut woken = std::mem::take(&mut self.wake_scratch);
                woken.clear();
                arena.complete_into(seq, &mut woken);
                for &c in &woken {
                    if arena.contains(c) && arena.dec_pending(c) {
                        self.ready.insert(c);
                        self.sched_ops += 1;
                    }
                }
                self.wake_scratch = woken;
            }
        }
    }

    /// Records that `seq` issued this cycle, leaving the ready pool and
    /// scheduling its completion event.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not in flight.
    #[inline]
    pub fn mark_issued(&mut self, seq: Seq, issue_cycle: u64, complete_cycle: u64) {
        match &mut self.window {
            Window::Scan(entries) => {
                let idx = Ruu::index_in(self.head_seq, entries.len(), seq)
                    .expect("issuing a seq not in the RUU");
                let e = &mut entries[idx];
                debug_assert!(e.ready(), "only ready instructions issue");
                e.issued = true;
                e.issue_cycle = issue_cycle;
                e.complete_cycle = complete_cycle;
            }
            Window::Event(arena) => {
                assert!(arena.contains(seq), "issuing a seq not in the RUU");
                arena.mark_issued(seq, issue_cycle, complete_cycle);
                self.ready.remove(seq);
                self.completions.push(complete_cycle, seq);
                self.sched_ops += 2;
            }
        }
    }

    /// Pops the seqs of every scheduled completion due at or before
    /// `now` into `out` (cleared first), in `(complete_cycle, seq)`
    /// order — which, because every latency is at least one cycle, is
    /// ascending seq order within a writeback. Event-driven mode only
    /// (empty under [`SchedulerMode::Scan`]). The caller-owned buffer
    /// keeps the per-cycle writeback loop allocation-free.
    #[inline]
    pub fn take_completions_into(&mut self, now: u64, out: &mut Vec<Seq>) {
        self.completions.take_due_into(now, out);
        self.sched_ops += out.len() as u64;
    }

    /// Cycle of the earliest scheduled completion, if any (event-driven
    /// mode only).
    #[inline]
    pub fn next_completion_cycle(&mut self) -> Option<u64> {
        self.completions.next_cycle()
    }

    /// Whether any instruction is ready to issue (event-driven mode
    /// only; always `false` under [`SchedulerMode::Scan`]).
    #[inline]
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Copies the ready set into `out` (cleared first), oldest first
    /// (event-driven mode only). A copy is required because issuing
    /// mutates the set; the caller-owned buffer keeps the per-cycle
    /// issue loop allocation-free.
    #[inline]
    pub fn ready_into(&self, out: &mut Vec<Seq>) {
        out.clear();
        self.ready.collect_from(self.head_seq, usize::MAX, out);
    }

    /// The oldest in-flight instruction.
    pub fn head(&self) -> Option<InstView> {
        match &self.window {
            Window::Scan(entries) => entries.front().map(DynInst::view),
            Window::Event(arena) => arena.head(),
        }
    }

    /// Removes the head (for commit or migration to the R-stream Queue)
    /// and returns its sequence number. A caller reads the fields it
    /// needs through the accessors first.
    ///
    /// # Panics
    ///
    /// Panics if the RUU is empty or the head has not completed —
    /// callers must check first.
    #[inline]
    pub fn pop_head(&mut self) -> Seq {
        let seq = self.head_seq;
        let dest = match &mut self.window {
            Window::Scan(entries) => {
                let e = entries.pop_front().expect("pop from empty RUU");
                assert!(e.completed, "popping an incomplete head");
                e.dest
            }
            Window::Event(arena) => {
                let dest = arena.dest(seq).expect("pop from empty RUU");
                arena.pop_head();
                dest
            }
        };
        self.head_seq = seq + 1;
        // Retire the rename-map entry if this instruction is still the
        // architecturally last writer.
        if let Some(rd) = dest {
            if self.rename[rd.raw() as usize] == Some(seq) {
                self.rename[rd.raw() as usize] = None;
            }
        }
        seq
    }

    /// Number of contiguous completed instructions starting at
    /// `start_seq`, capped at `max`. Entries are seq-contiguous, so one
    /// forward walk sizes the whole batch the REESE migrate stage can
    /// drain this cycle without re-probing each sequence number.
    pub fn completed_run_len(&self, start_seq: Seq, max: usize) -> usize {
        match &self.window {
            Window::Scan(entries) => {
                let Some(start) = self.index_of(start_seq) else {
                    return 0;
                };
                entries
                    .iter()
                    .skip(start)
                    .take(max)
                    .take_while(|e| e.completed)
                    .count()
            }
            Window::Event(arena) => arena.completed_run_len(start_seq, max),
        }
    }

    /// Sequence numbers of instructions ready to issue, oldest first.
    pub fn ready_seqs(&self) -> impl Iterator<Item = Seq> + '_ {
        match &self.window {
            Window::Scan(entries) => {
                EitherIter::Scan(entries.iter().filter(|e| e.ready()).map(|e| e.seq))
            }
            Window::Event(arena) => {
                EitherIter::Event(arena.iter().filter(|v| v.ready()).map(|v| v.seq))
            }
        }
    }

    /// Iterates over all in-flight instructions, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = InstView> + '_ {
        match &self.window {
            Window::Scan(entries) => EitherIter::Scan(entries.iter().map(DynInst::view)),
            Window::Event(arena) => EitherIter::Event(arena.iter()),
        }
    }

    /// The recorded consumers of `seq`, in dispatch order (empty if the
    /// seq is not resident or has completed). Test/debug accessor — the
    /// hot path never materialises this list.
    pub fn consumers_of(&self, seq: Seq) -> Vec<Seq> {
        match &self.window {
            Window::Scan(entries) => self
                .index_of(seq)
                .map(|i| entries[i].consumers.clone())
                .unwrap_or_default(),
            Window::Event(arena) => arena.consumers_of(seq),
        }
    }

    /// Squashes every in-flight instruction and clears renaming.
    ///
    /// The ready set and the completion wheel are drained too: after a
    /// detection flush the front end re-delivers the *same* sequence
    /// numbers, so a stale event surviving here would fire against an
    /// unrelated re-dispatched instruction.
    pub fn flush_all(&mut self) {
        match &mut self.window {
            Window::Scan(entries) => entries.clear(),
            Window::Event(arena) => arena.clear(),
        }
        self.rename = [None; NUM_REGS as usize];
        self.ready.clear();
        self.completions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_cpu::{step, ArchState};
    use reese_isa::{abi::*, Instr, Opcode};
    use reese_mem::Memory;

    /// Executes a tiny straight-line program and dispatches it into an RUU.
    fn dispatch_chain(ruu: &mut Ruu, instrs: &[Instr]) -> Vec<StepInfo> {
        let mut s = ArchState::new(0x1000);
        let mut m = Memory::new();
        let mut infos = Vec::new();
        for (i, instr) in instrs.iter().enumerate() {
            let info = step(&mut s, instr, &mut m);
            ruu.dispatch(i as Seq, &info, 0);
            infos.push(info);
        }
        infos
    }

    /// Every behavioural test runs against both layouts: the scan-mode
    /// `VecDeque<DynInst>` and the event-driven `InstArena`.
    fn both_layouts(capacity: usize, check: impl Fn(&mut Ruu)) {
        for mode in [SchedulerMode::Scan, SchedulerMode::EventDriven] {
            let mut ruu = Ruu::with_scheduler(capacity, mode);
            check(&mut ruu);
        }
    }

    #[test]
    fn raw_dependence_tracked() {
        both_layouts(8, |ruu| {
            dispatch_chain(
                ruu,
                &[
                    Instr::rri(Opcode::Li, T0, ZERO, 1), // seq 0
                    Instr::rrr(Opcode::Add, T1, T0, T0), // seq 1 depends on 0
                    Instr::rrr(Opcode::Add, T2, T1, T0), // seq 2 depends on 0 and 1
                ],
            );
            assert_eq!(ruu.get(0).unwrap().pending_deps, 0);
            assert_eq!(ruu.get(1).unwrap().pending_deps, 1);
            assert_eq!(ruu.get(2).unwrap().pending_deps, 2);
            assert_eq!(ruu.ready_seqs().collect::<Vec<_>>(), vec![0]);
        });
    }

    #[test]
    fn wakeup_on_complete() {
        both_layouts(8, |ruu| {
            dispatch_chain(
                ruu,
                &[
                    Instr::rri(Opcode::Li, T0, ZERO, 1),
                    Instr::rrr(Opcode::Add, T1, T0, T0),
                ],
            );
            ruu.complete(0);
            assert!(ruu.get(0).unwrap().completed);
            assert_eq!(ruu.get(1).unwrap().pending_deps, 0);
            assert_eq!(ruu.ready_seqs().collect::<Vec<_>>(), vec![1]);
        });
    }

    #[test]
    fn waw_renaming_last_writer_wins() {
        both_layouts(8, |ruu| {
            dispatch_chain(
                ruu,
                &[
                    Instr::rri(Opcode::Li, T0, ZERO, 1),   // seq 0 writes t0
                    Instr::rri(Opcode::Li, T0, ZERO, 2),   // seq 1 rewrites t0
                    Instr::rrr(Opcode::Add, T1, T0, ZERO), // seq 2 must depend on seq 1 only
                ],
            );
            assert_eq!(ruu.get(2).unwrap().pending_deps, 1);
            assert!(ruu.consumers_of(1).contains(&2));
            assert!(ruu.consumers_of(0).is_empty());
        });
    }

    #[test]
    fn completed_producer_creates_no_dependence() {
        both_layouts(8, |ruu| {
            let mut s = ArchState::new(0x1000);
            let mut m = Memory::new();
            let li = Instr::rri(Opcode::Li, T0, ZERO, 5);
            let add = Instr::rrr(Opcode::Add, T1, T0, T0);
            let i0 = step(&mut s, &li, &mut m);
            ruu.dispatch(0, &i0, 0);
            ruu.complete(0);
            let i1 = step(&mut s, &add, &mut m);
            ruu.dispatch(1, &i1, 0);
            assert_eq!(ruu.get(1).unwrap().pending_deps, 0);
        });
    }

    #[test]
    fn pop_head_in_order() {
        both_layouts(8, |ruu| {
            dispatch_chain(
                ruu,
                &[
                    Instr::rri(Opcode::Li, T0, ZERO, 1),
                    Instr::rri(Opcode::Li, T1, ZERO, 2),
                ],
            );
            ruu.complete(0);
            assert_eq!(ruu.pop_head(), 0);
            assert_eq!(ruu.head().unwrap().seq, 1);
            assert_eq!(ruu.len(), 1);
        });
    }

    #[test]
    #[should_panic(expected = "incomplete head")]
    fn pop_incomplete_head_panics() {
        let mut ruu = Ruu::new(8);
        dispatch_chain(&mut ruu, &[Instr::rri(Opcode::Li, T0, ZERO, 1)]);
        ruu.pop_head();
    }

    #[test]
    #[should_panic(expected = "full RUU")]
    fn dispatch_into_full_panics() {
        let mut ruu = Ruu::new(1);
        dispatch_chain(
            &mut ruu,
            &[
                Instr::rri(Opcode::Li, T0, ZERO, 1),
                Instr::rri(Opcode::Li, T1, ZERO, 2),
            ],
        );
    }

    #[test]
    fn flush_clears_everything() {
        both_layouts(8, |ruu| {
            dispatch_chain(
                ruu,
                &[
                    Instr::rri(Opcode::Li, T0, ZERO, 1),
                    Instr::rrr(Opcode::Add, T1, T0, T0),
                ],
            );
            ruu.flush_all();
            assert!(ruu.is_empty());
            // After a flush, re-dispatch from seq 0 with fresh renaming.
            dispatch_chain(ruu, &[Instr::rrr(Opcode::Add, T2, T0, T1)]);
            assert_eq!(
                ruu.get(0).unwrap().pending_deps,
                0,
                "stale renaming must be gone"
            );
        });
    }

    #[test]
    fn rename_entry_cleared_on_pop() {
        both_layouts(8, |ruu| {
            dispatch_chain(ruu, &[Instr::rri(Opcode::Li, T0, ZERO, 1)]);
            ruu.complete(0);
            ruu.pop_head();
            // A later reader of t0 must not depend on the departed writer.
            let mut s = ArchState::new(0x1000);
            let mut m = Memory::new();
            let info = step(&mut s, &Instr::rrr(Opcode::Add, T1, T0, T0), &mut m);
            ruu.dispatch(1, &info, 0);
            assert_eq!(ruu.get(1).unwrap().pending_deps, 0);
        });
    }

    #[test]
    fn ready_set_tracks_dispatch_and_wakeup() {
        let mut ruu = Ruu::new(8);
        dispatch_chain(
            &mut ruu,
            &[
                Instr::rri(Opcode::Li, T0, ZERO, 1), // seq 0: ready at dispatch
                Instr::rrr(Opcode::Add, T1, T0, T0), // seq 1: waits on 0
            ],
        );
        let ready = |ruu: &Ruu| {
            let mut out = vec![99];
            ruu.ready_into(&mut out);
            out
        };
        assert!(ruu.has_ready());
        assert_eq!(ready(&ruu), vec![0]);
        assert_eq!(
            ready(&ruu),
            ruu.ready_seqs().collect::<Vec<_>>(),
            "set and scan must agree"
        );
        ruu.mark_issued(0, 1, 2);
        assert!(!ruu.has_ready(), "issued instructions leave the set");
        ruu.complete(0);
        assert_eq!(ready(&ruu), vec![1], "wake-up inserts consumers");
        assert_eq!(ready(&ruu), ruu.ready_seqs().collect::<Vec<_>>());
    }

    #[test]
    fn completion_wheel_fires_in_cycle_then_seq_order() {
        let mut ruu = Ruu::new(8);
        dispatch_chain(
            &mut ruu,
            &[
                Instr::rri(Opcode::Li, T0, ZERO, 1),
                Instr::rri(Opcode::Li, T1, ZERO, 2),
                Instr::rri(Opcode::Li, T2, ZERO, 3),
            ],
        );
        ruu.mark_issued(2, 1, 2);
        ruu.mark_issued(0, 1, 4);
        ruu.mark_issued(1, 1, 2);
        let due = |ruu: &mut Ruu, now| {
            let mut out = vec![99];
            ruu.take_completions_into(now, &mut out);
            out
        };
        assert_eq!(ruu.next_completion_cycle(), Some(2));
        assert_eq!(due(&mut ruu, 1), Vec::<Seq>::new());
        assert_eq!(due(&mut ruu, 2), vec![1, 2]);
        assert_eq!(ruu.next_completion_cycle(), Some(4));
        assert_eq!(due(&mut ruu, 10), vec![0]);
        assert_eq!(ruu.next_completion_cycle(), None);
    }

    #[test]
    fn flush_drains_ready_set_and_wheel() {
        let mut ruu = Ruu::new(8);
        dispatch_chain(
            &mut ruu,
            &[
                Instr::rri(Opcode::Li, T0, ZERO, 1),
                Instr::rri(Opcode::Li, T1, ZERO, 2),
            ],
        );
        ruu.mark_issued(0, 1, 5);
        assert!(ruu.has_ready());
        assert_eq!(ruu.next_completion_cycle(), Some(5));
        ruu.flush_all();
        assert!(!ruu.has_ready(), "no stale ready seqs after a flush");
        assert_eq!(
            ruu.next_completion_cycle(),
            None,
            "no stale events may fire against re-delivered seqs"
        );
    }

    #[test]
    fn scan_mode_skips_incremental_structures() {
        let mut ruu = Ruu::with_scheduler(8, SchedulerMode::Scan);
        dispatch_chain(&mut ruu, &[Instr::rri(Opcode::Li, T0, ZERO, 1)]);
        assert!(!ruu.has_ready(), "scan mode maintains no ready set");
        assert_eq!(ruu.ready_seqs().collect::<Vec<_>>(), vec![0]);
        ruu.mark_issued(0, 1, 2);
        assert_eq!(ruu.next_completion_cycle(), None, "no wheel in scan mode");
        let e = ruu.get(0).unwrap();
        assert!(e.issued);
        assert_eq!((e.issue_cycle, e.complete_cycle), (1, 2));
    }

    #[test]
    fn get_rejects_departed_and_future_seqs() {
        both_layouts(8, |ruu| {
            dispatch_chain(ruu, &[Instr::rri(Opcode::Li, T0, ZERO, 1)]);
            assert!(ruu.get(0).is_some());
            assert!(ruu.get(1).is_none());
            ruu.complete(0);
            ruu.pop_head();
            assert!(ruu.get(0).is_none());
        });
    }

    #[test]
    fn neither_layout_holds_a_functional_record() {
        // The record and its prediction live once, in the front end's
        // replay window. Both layouts derive `Debug`, so an entry or an
        // arena array that embedded either type again would name it.
        both_layouts(8, |ruu| {
            dispatch_chain(
                ruu,
                &[
                    Instr::rri(Opcode::Li, T0, ZERO, 1),
                    Instr::rrr(Opcode::Add, T1, T0, T0),
                ],
            );
            let text = format!("{ruu:?}");
            assert!(text.contains("pending_deps"), "the entries are printed");
            assert!(!text.contains("StepInfo") && !text.contains("PredictionInfo"));
        });
    }

    #[test]
    fn layouts_agree_under_interleaved_traffic() {
        // Drive both layouts through a seeded interleaving of dispatch,
        // complete, issue, pop and flush, and demand identical views at
        // every step — the arena must be observationally equal to the
        // original array-of-structures window.
        let mut scan = Ruu::with_scheduler(8, SchedulerMode::Scan);
        let mut event = Ruu::with_scheduler(8, SchedulerMode::EventDriven);
        let mut state: u64 = 0xA11CE;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut s = ArchState::new(0x1000);
        let mut m = Memory::new();
        let regs = [T0, T1, T2, T3];
        let mut seq: Seq = 0;
        for round in 0..2_000u64 {
            match next() % 5 {
                0 | 1 => {
                    if !scan.is_full() {
                        let rd = regs[(next() % 4) as usize];
                        let rs = regs[(next() % 4) as usize];
                        let instr = if next() % 2 == 0 {
                            Instr::rri(Opcode::Li, rd, ZERO, seq as i64)
                        } else {
                            Instr::rrr(Opcode::Add, rd, rs, rs)
                        };
                        let info = step(&mut s, &instr, &mut m);
                        scan.dispatch(seq, &info, round);
                        event.dispatch(seq, &info, round);
                        seq += 1;
                    }
                }
                2 => {
                    let ready: Vec<Seq> = scan.ready_seqs().collect();
                    if let Some(&pick) = ready.first() {
                        scan.mark_issued(pick, round, round + 1 + next() % 6);
                        let cc = scan.get(pick).unwrap().complete_cycle;
                        event.mark_issued(pick, round, cc);
                        scan.complete(pick);
                        event.complete(pick);
                    }
                }
                3 => {
                    if scan.head().is_some_and(|e| e.completed) {
                        assert_eq!(scan.head(), event.head());
                        assert_eq!(scan.pop_head(), event.pop_head());
                    }
                }
                _ => {
                    if next() % 29 == 0 {
                        scan.flush_all();
                        event.flush_all();
                        // The front end re-delivers from the squashed head.
                        seq = scan.head_seq.min(seq);
                    }
                }
            }
            assert_eq!(scan.len(), event.len());
            // Every field of every resident entry: seq, the kept
            // destination register, readiness, status and all three
            // cycles.
            assert_eq!(
                scan.iter().collect::<Vec<_>>(),
                event.iter().collect::<Vec<_>>()
            );
            assert_eq!(
                scan.ready_seqs().collect::<Vec<_>>(),
                event.ready_seqs().collect::<Vec<_>>()
            );
            assert_eq!(
                scan.completed_run_len(scan.head_seq, 8),
                event.completed_run_len(scan.head_seq, 8)
            );
            // The narrow accessors read what the whole-record view
            // reads, resident or not, on both layouts.
            for ruu in [&scan, &event] {
                let head = ruu.head().filter(|v| v.completed).map(|v| v.seq);
                assert_eq!(ruu.completed_head(), head);
                for probe in scan.head_seq.saturating_sub(2)..seq + 2 {
                    let view = ruu.get(probe);
                    assert_eq!(view, scan.get(probe), "views agree across layouts");
                    assert_eq!(ruu.complete_cycle(probe), view.map(|v| v.complete_cycle));
                    assert_eq!(ruu.is_completed(probe), view.is_some_and(|v| v.completed));
                }
            }
        }
    }
}
