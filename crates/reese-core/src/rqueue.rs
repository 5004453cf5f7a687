//! The R-stream Queue: the heart of REESE.

use reese_pipeline::{EventWheel, ReadyRing, SchedulerMode, Seq};
use std::collections::VecDeque;

/// One R-stream Queue entry.
///
/// Per the paper (§4.3), an entry "keeps the values of the instruction
/// operands and the result of the operation", so the redundant execution
/// has no data or control dependences: operands come from the entry, the
/// branch direction is already known, and the result comparison needs no
/// register-file read.
///
/// The simulator splits that entry in two. The values the comparison
/// checks, the primary and redundant results, are latched here, where
/// fault injection can corrupt them. The rest of the record (operands,
/// opcode, effective address, pc) is the front end's replay-window
/// record of the same instruction ([`reese_pipeline::FetchUnit::record`]),
/// which stays there until the instruction retires, so the R stream
/// reads it by `seq` instead of carrying a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RQueueEntry {
    /// Dynamic sequence number of the instruction.
    pub seq: Seq,
    /// The latched primary-stream result that will be compared
    /// (fault injection may corrupt this copy).
    pub p_value: u64,
    /// The redundant-stream result (valid once `r_completed`; fault
    /// injection may corrupt it).
    pub r_value: u64,
    /// Whether the redundant execution has been issued.
    pub r_issued: bool,
    /// Whether the redundant execution has completed.
    pub r_completed: bool,
    /// Cycle the redundant execution completes (valid once issued).
    pub r_complete_cycle: u64,
    /// Cycle the primary execution completed (for P↔R separation
    /// statistics and duration-fault windows).
    pub p_complete_cycle: u64,
    /// Cycle the entry entered the queue.
    pub enqueue_cycle: u64,
    /// Entry exempted from re-execution (partial duplication, §7).
    pub skip_r: bool,
}

impl RQueueEntry {
    /// Creates an entry from a completed primary-stream instruction
    /// whose record holds `result`: both latches start at it.
    pub fn new(seq: Seq, result: u64, cycle: u64, skip_r: bool) -> RQueueEntry {
        RQueueEntry {
            seq,
            p_value: result,
            r_value: result,
            r_issued: false,
            r_completed: false,
            r_complete_cycle: 0,
            p_complete_cycle: cycle,
            enqueue_cycle: cycle,
            skip_r,
        }
    }

    /// Overrides the recorded primary-completion cycle.
    pub fn with_p_complete(mut self, cycle: u64) -> RQueueEntry {
        self.p_complete_cycle = cycle;
        self
    }

    /// Whether the entry is ready to be compared and committed.
    pub fn commit_ready(&self) -> bool {
        self.skip_r || self.r_completed
    }

    /// Whether the primary and redundant results agree.
    ///
    /// Skipped entries vacuously match (nothing was recomputed).
    pub fn results_match(&self) -> bool {
        self.skip_r || self.p_value == self.r_value
    }
}

/// The FIFO of completed primary instructions awaiting redundant
/// execution and comparison, sitting between writeback and commit
/// (paper Figure 1).
///
/// # Example
///
/// ```
/// use reese_core::RQueue;
///
/// let q = RQueue::new(32);
/// assert!(q.is_empty());
/// assert_eq!(q.capacity(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct RQueue {
    entries: VecDeque<RQueueEntry>,
    capacity: usize,
    peak_occupancy: usize,
    mode: SchedulerMode,
    /// Seqs awaiting redundant issue (non-skip, not yet issued), kept in
    /// ascending order — the redundant scheduler's FIFO-lookahead order.
    /// [`SchedulerMode::EventDriven`] only.
    pending_r: ReadyRing,
    /// Redundant-completion event wheel keyed by
    /// `(r_complete_cycle, seq)`. [`SchedulerMode::EventDriven`] only.
    completions: EventWheel,
    /// Scheduler bookkeeping operations performed so far: ReadyRing
    /// inserts/removes plus EventWheel pushes/pops, plus front-window
    /// rebuild scans. Stays 0 under [`SchedulerMode::Scan`]; read by
    /// the metrics sampler.
    sched_ops: u64,
    /// Incrementally maintained cache of the oldest
    /// `min(pending, front_limit)` pending seqs, ascending — the
    /// redundant scheduler's lookahead window. Valid only when
    /// `front_valid`; rebuilt lazily from `pending_r` otherwise.
    front_window: Vec<Seq>,
    /// The lookahead limit `front_window` was built for.
    front_limit: usize,
    /// Whether `front_window` currently reflects `pending_r`.
    front_valid: bool,
}

impl RQueue {
    /// Creates an empty queue with the default (event-driven) scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> RQueue {
        RQueue::with_scheduler(capacity, SchedulerMode::default())
    }

    /// Creates an empty queue with an explicit scheduler mode. Under
    /// [`SchedulerMode::Scan`] no incremental structures are maintained
    /// and the simulator falls back to whole-queue scans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_scheduler(capacity: usize, mode: SchedulerMode) -> RQueue {
        assert!(capacity > 0, "R-stream Queue capacity must be positive");
        RQueue {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            peak_occupancy: 0,
            mode,
            pending_r: ReadyRing::new(capacity),
            completions: EventWheel::new(),
            sched_ops: 0,
            front_window: Vec::new(),
            front_limit: 0,
            front_valid: false,
        }
    }

    /// Scheduler bookkeeping operations (ReadyRing + EventWheel)
    /// performed so far; 0 under [`SchedulerMode::Scan`].
    pub fn sched_ops(&self) -> u64 {
        self.sched_ops
    }

    fn event_driven(&self) -> bool {
        self.mode == SchedulerMode::EventDriven
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the queue is full — a full queue blocks the RUU head,
    /// which is the only way REESE can inhibit the primary pipeline
    /// (paper §4.3).
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest occupancy seen so far.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Enqueues a completed primary instruction.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or program order is violated.
    pub fn push(&mut self, entry: RQueueEntry) {
        assert!(!self.is_full(), "push into a full R-stream Queue");
        if let Some(back) = self.entries.back() {
            assert!(
                entry.seq > back.seq,
                "R-stream Queue must fill in program order"
            );
        }
        if self.event_driven() && !entry.skip_r {
            self.pending_r.insert(entry.seq);
            self.sched_ops += 1;
            // A migrating seq is larger than every pending seq, so it
            // belongs in the front window exactly when the window is not
            // yet at its limit (a short window holds *all* pending seqs).
            if self.front_valid && self.front_window.len() < self.front_limit {
                self.front_window.push(entry.seq);
            }
        }
        self.entries.push_back(entry);
        self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
    }

    /// Records that the redundant execution of `seq` issued, leaving
    /// the pending pool and scheduling its completion event.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not resident.
    pub fn mark_r_issued(&mut self, seq: Seq, r_complete_cycle: u64) {
        let event_driven = self.event_driven();
        let entry = self.get_mut(seq).expect("issuing an R seq not in queue");
        debug_assert!(
            !entry.r_issued && !entry.skip_r,
            "only pending entries issue"
        );
        entry.r_issued = true;
        entry.r_complete_cycle = r_complete_cycle;
        if event_driven {
            // When the window holds every pending seq, removal keeps it
            // exact; otherwise a seq beyond the window tail must slide
            // in, which only a rebuild can find — invalidate and let the
            // next lookup rescan once.
            if self.front_valid {
                if self.front_window.len() == self.pending_r.len() {
                    match self.front_window.binary_search(&seq) {
                        Ok(pos) => {
                            self.front_window.remove(pos);
                        }
                        Err(_) => self.front_valid = false,
                    }
                } else {
                    self.front_valid = false;
                }
            }
            self.pending_r.remove(seq);
            self.completions.push(r_complete_cycle, seq);
            self.sched_ops += 2;
        }
    }

    /// Copies the first `limit` seqs awaiting redundant issue into
    /// `out` (cleared first), oldest first — exactly the entries the
    /// FIFO-lookahead scan would consider (event-driven mode only;
    /// empty under [`SchedulerMode::Scan`]). The caller-owned buffer
    /// keeps the per-cycle redundant-issue loop allocation-free.
    ///
    /// Served from the incrementally maintained front window: migration
    /// appends, issue removes, and only an issue that slides the window
    /// (or a flush, or a changed `limit`) forces a rebuild scan of the
    /// pending ring. Steady-state cycles where the window is unchanged
    /// pay a memcpy of at most `limit` seqs instead of a ring scan.
    pub fn pending_r_front_into(&mut self, limit: usize, out: &mut Vec<Seq>) {
        out.clear();
        self.refresh_front_window(limit);
        out.extend_from_slice(&self.front_window);
    }

    /// Rebuilds the cached front window if it is stale or was built for
    /// a different lookahead limit.
    fn refresh_front_window(&mut self, limit: usize) {
        if self.front_valid && self.front_limit == limit {
            return;
        }
        self.front_window.clear();
        self.front_limit = limit;
        self.front_valid = true;
        let Some(front) = self.entries.front() else {
            return;
        };
        self.pending_r
            .collect_from(front.seq, limit, &mut self.front_window);
        // A rebuild costs one ring scan: bill one op per recovered seq
        // (plus one for the scan itself) so the sched-op counter shows
        // how rarely the window must be rebuilt.
        self.sched_ops += self.front_window.len() as u64 + 1;
    }

    /// Whether any entry awaits redundant issue (event-driven mode only).
    pub fn has_pending_r(&self) -> bool {
        !self.pending_r.is_empty()
    }

    /// Pops the seqs of every redundant completion due at or before
    /// `now` into `out` (cleared first), in `(cycle, seq)` order
    /// (event-driven mode only). The caller-owned buffer keeps the
    /// per-cycle writeback loop allocation-free.
    pub fn take_r_completions_into(&mut self, now: u64, out: &mut Vec<Seq>) {
        self.completions.take_due_into(now, out);
        self.sched_ops += out.len() as u64;
    }

    /// Cycle of the earliest scheduled redundant completion, if any
    /// (event-driven mode only).
    pub fn next_r_completion_cycle(&mut self) -> Option<u64> {
        self.completions.next_cycle()
    }

    /// The oldest entry.
    pub fn head(&self) -> Option<&RQueueEntry> {
        self.entries.front()
    }

    /// Removes the oldest entry (after comparison at commit).
    pub fn pop_head(&mut self) -> Option<RQueueEntry> {
        self.entries.pop_front()
    }

    /// Mutable access to an entry by sequence number.
    ///
    /// O(1): migration fills the queue with consecutive sequence
    /// numbers (and a detection flush empties it wholesale), so an
    /// entry's position is `seq - head.seq`. Falls back to `None` —
    /// never a scan — if `seq` is outside the resident range.
    pub fn get_mut(&mut self, seq: Seq) -> Option<&mut RQueueEntry> {
        let front = self.entries.front()?.seq;
        let idx = usize::try_from(seq.checked_sub(front)?).ok()?;
        let entry = self.entries.get_mut(idx)?;
        debug_assert_eq!(entry.seq, seq, "R-stream Queue seqs must be contiguous");
        (entry.seq == seq).then_some(entry)
    }

    /// Iterates entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &RQueueEntry> {
        self.entries.iter()
    }

    /// Mutable iteration, oldest-first (for the redundant scheduler).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut RQueueEntry> {
        self.entries.iter_mut()
    }

    /// Clears the queue (error-detection flush).
    ///
    /// The pending set and the completion wheel are drained too: the
    /// flush rewinds fetch, so the *same* sequence numbers re-enter the
    /// queue later and stale events must never fire against them.
    pub fn flush_all(&mut self) {
        self.entries.clear();
        self.pending_r.clear();
        self.completions.clear();
        // An empty window over an empty pending set is exact, so the
        // cache stays valid across a flush and refills via `push`.
        self.front_window.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_cpu::StepInfo;

    /// The pending front window, through the issue loop's buffer.
    fn front(q: &mut RQueue, limit: usize) -> Vec<Seq> {
        let mut out = vec![99];
        q.pending_r_front_into(limit, &mut out);
        out
    }

    /// The redundant completions due by `now`, through the writeback
    /// loop's buffer.
    fn due(q: &mut RQueue, now: u64) -> Vec<Seq> {
        let mut out = vec![99];
        q.take_r_completions_into(now, &mut out);
        out
    }

    fn entry(seq: Seq) -> RQueueEntry {
        RQueueEntry::new(seq, 7, 0, false)
    }

    #[test]
    fn an_entry_latches_values_and_holds_no_record() {
        let e = RQueueEntry::new(3, 0xbeef, 9, false);
        assert_eq!((e.p_value, e.r_value), (0xbeef, 0xbeef));
        assert_eq!((e.p_complete_cycle, e.enqueue_cycle), (9, 9));
        // The record lives once, in the front end's window; an entry
        // that embedded it again would be larger than the record.
        assert!(std::mem::size_of::<RQueueEntry>() < std::mem::size_of::<StepInfo>());
    }

    #[test]
    fn fifo_order() {
        let mut q = RQueue::new(4);
        q.push(entry(0));
        q.push(entry(1));
        assert_eq!(q.head().unwrap().seq, 0);
        assert_eq!(q.pop_head().unwrap().seq, 0);
        assert_eq!(q.pop_head().unwrap().seq, 1);
        assert!(q.pop_head().is_none());
    }

    #[test]
    fn capacity_and_peak() {
        let mut q = RQueue::new(2);
        q.push(entry(0));
        q.push(entry(1));
        assert!(q.is_full());
        assert_eq!(q.peak_occupancy(), 2);
        q.pop_head();
        assert!(!q.is_full());
        assert_eq!(q.peak_occupancy(), 2, "peak is sticky");
    }

    #[test]
    #[should_panic(expected = "full R-stream Queue")]
    fn overfill_panics() {
        let mut q = RQueue::new(1);
        q.push(entry(0));
        q.push(entry(1));
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_push_panics() {
        let mut q = RQueue::new(4);
        q.push(entry(5));
        q.push(entry(3));
    }

    #[test]
    fn entry_match_semantics() {
        let mut e = entry(0);
        assert!(e.results_match());
        assert!(!e.commit_ready());
        e.r_completed = true;
        assert!(e.commit_ready());
        e.r_value ^= 1 << 13;
        assert!(!e.results_match(), "a flipped bit must be visible");
    }

    #[test]
    fn skipped_entries_commit_without_comparison() {
        let mut e = RQueueEntry::new(0, 7, 0, true);
        assert!(e.commit_ready());
        e.p_value ^= 1; // even a corrupted latch goes unnoticed
        assert!(
            e.results_match(),
            "partial duplication trades coverage for speed"
        );
    }

    #[test]
    fn get_mut_is_positional() {
        let mut q = RQueue::new(4);
        q.push(entry(3));
        q.push(entry(4));
        assert_eq!(q.get_mut(3).unwrap().seq, 3);
        assert_eq!(q.get_mut(4).unwrap().seq, 4);
        assert!(q.get_mut(2).is_none(), "below the resident range");
        assert!(q.get_mut(5).is_none(), "above the resident range");
        q.pop_head();
        assert_eq!(
            q.get_mut(4).unwrap().seq,
            4,
            "positions shift with the head"
        );
        assert!(q.get_mut(3).is_none());
    }

    #[test]
    fn flush_empties_queue() {
        let mut q = RQueue::new(4);
        q.push(entry(0));
        q.flush_all();
        assert!(q.is_empty());
    }

    #[test]
    fn pending_pool_tracks_issue() {
        let mut q = RQueue::new(8);
        q.push(entry(0));
        q.push(entry(1));
        q.push(entry(2));
        assert!(q.has_pending_r());
        assert_eq!(front(&mut q, 2), vec![0, 1]);
        q.mark_r_issued(1, 7);
        assert_eq!(front(&mut q, 8), vec![0, 2]);
        assert_eq!(q.get_mut(1).unwrap().r_complete_cycle, 7);
        assert!(q.get_mut(1).unwrap().r_issued);
    }

    #[test]
    fn skipped_entries_never_pend() {
        let mut q = RQueue::new(4);
        q.push(RQueueEntry::new(0, 7, 0, true));
        assert!(!q.has_pending_r());
        assert_eq!(front(&mut q, 4), Vec::<Seq>::new());
    }

    #[test]
    fn front_window_slides_after_issue() {
        let mut q = RQueue::new(8);
        for seq in 0..6 {
            q.push(entry(seq));
        }
        assert_eq!(front(&mut q, 3), vec![0, 1, 2]);
        q.mark_r_issued(1, 9);
        assert_eq!(
            front(&mut q, 3),
            vec![0, 2, 3],
            "window must slide past the issued seq"
        );
        q.mark_r_issued(0, 9);
        q.mark_r_issued(2, 9);
        assert_eq!(front(&mut q, 3), vec![3, 4, 5]);
        q.mark_r_issued(3, 10);
        q.mark_r_issued(4, 10);
        assert_eq!(
            front(&mut q, 3),
            vec![5],
            "window shrinks as pending dries up"
        );
        q.mark_r_issued(5, 10);
        assert_eq!(front(&mut q, 3), Vec::<Seq>::new());
    }

    #[test]
    fn front_window_refills_incrementally_after_flush() {
        let mut q = RQueue::new(8);
        q.push(entry(0));
        assert_eq!(front(&mut q, 4), vec![0]);
        q.flush_all();
        assert_eq!(front(&mut q, 4), Vec::<Seq>::new());
        // Fetch rewinds after a detection: the same seqs migrate again
        // and must re-enter the window.
        q.push(entry(0));
        q.push(entry(1));
        assert_eq!(front(&mut q, 4), vec![0, 1]);
    }

    #[test]
    fn front_window_tracks_limit_changes() {
        let mut q = RQueue::new(8);
        for seq in 0..5 {
            q.push(entry(seq));
        }
        assert_eq!(front(&mut q, 2), vec![0, 1]);
        assert_eq!(front(&mut q, 4), vec![0, 1, 2, 3]);
        assert_eq!(front(&mut q, 2), vec![0, 1]);
    }

    #[test]
    fn front_window_matches_fresh_scan_under_churn() {
        // SplitMix64-driven push/issue/retire/flush churn: the cached
        // window must always equal a from-scratch FIFO-lookahead scan.
        let mut state: u64 = 0x51ce_b00c_5eed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut q = RQueue::new(16);
        let mut next_seq: Seq = 0;
        for round in 0..5_000 {
            match next() % 8 {
                0..=2 => {
                    if !q.is_full() {
                        q.push(RQueueEntry::new(next_seq, 7, 0, next() % 4 == 0));
                        next_seq += 1;
                    }
                }
                3..=4 => {
                    let pending: Vec<Seq> = q
                        .iter()
                        .filter(|e| !e.r_issued && !e.skip_r)
                        .map(|e| e.seq)
                        .collect();
                    if !pending.is_empty() {
                        let lookahead = pending.len().min(4);
                        let pick = pending[(next() as usize) % lookahead];
                        q.mark_r_issued(pick, 1);
                    }
                }
                5..=6 => {
                    if let Some(head) = q.head().copied() {
                        if head.skip_r || head.r_issued {
                            if let Some(e) = q.get_mut(head.seq) {
                                e.r_completed = e.r_issued;
                            }
                            q.pop_head();
                        }
                    }
                }
                _ => {
                    if next() % 16 == 0 {
                        q.flush_all();
                    }
                }
            }
            let limit = [1usize, 3, 4, 8][(next() as usize) % 4];
            let expected: Vec<Seq> = q
                .iter()
                .filter(|e| !e.r_issued && !e.skip_r)
                .take(limit)
                .map(|e| e.seq)
                .collect();
            assert_eq!(front(&mut q, limit), expected, "round {round}");
        }
    }

    #[test]
    fn r_completion_wheel_order_and_drain() {
        let mut q = RQueue::new(8);
        for seq in 0..3 {
            q.push(entry(seq));
        }
        q.mark_r_issued(2, 4);
        q.mark_r_issued(0, 4);
        q.mark_r_issued(1, 6);
        assert_eq!(q.next_r_completion_cycle(), Some(4));
        assert_eq!(due(&mut q, 3), Vec::<Seq>::new());
        assert_eq!(due(&mut q, 4), vec![0, 2]);
        assert_eq!(due(&mut q, 9), vec![1]);
        assert_eq!(q.next_r_completion_cycle(), None);
    }

    #[test]
    fn flush_drains_pending_and_wheel() {
        let mut q = RQueue::new(8);
        q.push(entry(0));
        q.push(entry(1));
        q.mark_r_issued(0, 9);
        q.flush_all();
        assert!(!q.has_pending_r(), "no stale pending seqs after a flush");
        assert_eq!(
            q.next_r_completion_cycle(),
            None,
            "no stale events may fire against re-migrated seqs"
        );
    }

    #[test]
    fn scan_mode_maintains_no_structures() {
        let mut q = RQueue::with_scheduler(4, SchedulerMode::Scan);
        q.push(entry(0));
        assert!(!q.has_pending_r());
        q.mark_r_issued(0, 5);
        assert_eq!(q.next_r_completion_cycle(), None);
        assert!(q.get_mut(0).unwrap().r_issued);
    }
}
