//! Structure-of-arrays storage for in-flight instructions.
//!
//! The event-driven scheduler's remaining per-cycle cost is memory
//! layout: a `VecDeque<DynInst>` interleaves the four fields the
//! scheduler actually touches every cycle (`pending_deps`, `issued`,
//! `completed`, `complete_cycle`) with the cold fields it touches once,
//! and every dispatch heap-allocates a `Vec<Seq>` consumer list.
//! [`InstArena`] splits that record into parallel arrays indexed
//! directly by `seq & mask` — the same seq→slot mapping the
//! [`crate::ReadyRing`] bitmap already uses — so the hot loops
//! (head-completed probes, completed-run walks, wake-up) touch dense
//! homogeneous arrays, and consumer edges live in a pooled chunked
//! adjacency list that allocates nothing per dispatch once warm. The
//! functional record is not here at all: it stays in the front end's
//! replay window ([`crate::FetchUnit::record`]).
//!
//! # Seq → slot mapping
//!
//! The window is seq-contiguous (`[head_seq, head_seq + len)`) and
//! `len` never exceeds the configured capacity, so with
//! `slots = capacity.next_power_of_two()` the map `seq & (slots - 1)`
//! is injective over any live window: no two in-flight instructions
//! share a slot, and no slot is cleared on retirement — re-dispatching
//! into a slot overwrites every field that will be read.
//!
//! Scan mode ([`crate::SchedulerMode::Scan`]) never builds an arena:
//! it keeps the original `VecDeque<DynInst>` layout so the full-window
//! rescan keeps measuring the unoptimised implementation, exactly as
//! it does for the ready set and the completion wheel.

use crate::{DynInst, Seq};
use reese_isa::Reg;

/// Sentinel for "no chunk" in the consumer pool's u32 index space.
const NONE: u32 = u32::MAX;

/// Consumer seqs per pool chunk. Six seqs plus the length and next-link
/// keep a chunk within one 64-byte line; fan-out above six (rare — most
/// values have one or two readers in flight) links additional chunks.
const CHUNK_CAP: usize = 6;

/// One node of the pooled consumer adjacency list.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    seqs: [Seq; CHUNK_CAP],
    len: u8,
    next: u32,
}

impl Chunk {
    fn empty() -> Chunk {
        Chunk {
            seqs: [0; CHUNK_CAP],
            len: 0,
            next: NONE,
        }
    }
}

/// A pool of consumer-list chunks shared by every slot in the arena.
///
/// Freed chunks (drained at wake-up) go on an intrusive free list and
/// are recycled, so steady-state dispatch performs no heap allocation;
/// a flush returns everything to the pool wholesale.
#[derive(Debug, Clone, Default)]
struct ConsumerPool {
    chunks: Vec<Chunk>,
    free_head: u32,
}

impl ConsumerPool {
    fn new() -> ConsumerPool {
        ConsumerPool {
            chunks: Vec::new(),
            free_head: NONE,
        }
    }

    #[inline]
    fn alloc(&mut self) -> u32 {
        if self.free_head != NONE {
            let idx = self.free_head;
            self.free_head = self.chunks[idx as usize].next;
            self.chunks[idx as usize] = Chunk::empty();
            idx
        } else {
            self.chunks.push(Chunk::empty());
            (self.chunks.len() - 1) as u32
        }
    }

    /// Appends `value` to the list rooted at `head`/`tail` (both `NONE`
    /// for an empty list), in push order.
    #[inline]
    fn push(&mut self, head: &mut u32, tail: &mut u32, value: Seq) {
        if *tail == NONE || self.chunks[*tail as usize].len as usize == CHUNK_CAP {
            let idx = self.alloc();
            if *tail == NONE {
                *head = idx;
            } else {
                self.chunks[*tail as usize].next = idx;
            }
            *tail = idx;
        }
        let chunk = &mut self.chunks[*tail as usize];
        chunk.seqs[chunk.len as usize] = value;
        chunk.len += 1;
    }

    /// Appends the list's seqs to `out` in push order and returns every
    /// chunk to the free list; `head`/`tail` are reset to `NONE`.
    #[inline]
    fn drain(&mut self, head: &mut u32, tail: &mut u32, out: &mut Vec<Seq>) {
        let mut at = *head;
        while at != NONE {
            let chunk = self.chunks[at as usize];
            out.extend_from_slice(&chunk.seqs[..chunk.len as usize]);
            self.chunks[at as usize].next = self.free_head;
            self.free_head = at;
            at = chunk.next;
        }
        *head = NONE;
        *tail = NONE;
    }

    /// Non-destructive read of the list rooted at `head`, in push order.
    fn collect(&self, head: u32, out: &mut Vec<Seq>) {
        let mut at = head;
        while at != NONE {
            let chunk = &self.chunks[at as usize];
            out.extend_from_slice(&chunk.seqs[..chunk.len as usize]);
            at = chunk.next;
        }
    }

    /// Returns every chunk to the allocator in one step (flush path).
    fn clear(&mut self) {
        self.chunks.clear();
        self.free_head = NONE;
    }
}

/// A read-only view of one in-flight instruction's scheduling state,
/// assembled from the arena's parallel arrays (or copied from a
/// [`DynInst`] in scan mode). Field names mirror [`DynInst`] so call
/// sites read identically against either layout. Gathering a view
/// reads every array, so the per-cycle probes use [`crate::Ruu`]'s
/// one-field accessors instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstView {
    /// Fetch sequence number (program order).
    pub seq: Seq,
    /// The architectural register the instruction writes, if any.
    pub dest: Option<Reg>,
    /// Unresolved register/LSQ producers this instruction waits on.
    pub pending_deps: u32,
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

impl InstView {
    /// Whether all operands are available and the instruction can be
    /// considered by the scheduler.
    pub fn ready(&self) -> bool {
        !self.issued && !self.completed && self.pending_deps == 0
    }
}

impl DynInst {
    /// A view of this record with the same shape the arena produces.
    pub fn view(&self) -> InstView {
        InstView {
            seq: self.seq,
            dest: self.dest,
            pending_deps: self.pending_deps,
            issued: self.issued,
            completed: self.completed,
            dispatch_cycle: self.dispatch_cycle,
            issue_cycle: self.issue_cycle,
            complete_cycle: self.complete_cycle,
        }
    }
}

/// Instruction-status flag: issued to a functional unit.
const F_ISSUED: u8 = 1 << 0;
/// Instruction-status flag: execution finished.
const F_COMPLETED: u8 = 1 << 1;

/// Structure-of-arrays store for the in-flight instruction window.
///
/// Hot scheduler fields (`pending_deps`, status flags,
/// `complete_cycle`, consumer-list roots) and cold fields (destination
/// register, dispatch/issue cycles) live in sibling parallel arrays
/// indexed by `seq & mask`; see the module docs for the mapping
/// argument.
#[derive(Debug, Clone)]
pub struct InstArena {
    mask: u64,
    head_seq: Seq,
    len: usize,
    // Hot arrays: touched by per-cycle probes, wake-up and run walks.
    pending_deps: Vec<u32>,
    flags: Vec<u8>,
    complete_cycle: Vec<u64>,
    consumer_head: Vec<u32>,
    consumer_tail: Vec<u32>,
    // Cold arrays: written at dispatch, read at retire and by views.
    dest: Vec<Option<Reg>>,
    dispatch_cycle: Vec<u64>,
    issue_cycle: Vec<u64>,
    pool: ConsumerPool,
}

impl InstArena {
    /// Creates an empty arena able to hold `capacity` in-flight
    /// instructions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> InstArena {
        assert!(capacity > 0, "arena capacity must be positive");
        let slots = capacity.next_power_of_two();
        InstArena {
            mask: (slots - 1) as u64,
            head_seq: 0,
            len: 0,
            pending_deps: vec![0; slots],
            flags: vec![0; slots],
            complete_cycle: vec![0; slots],
            consumer_head: vec![NONE; slots],
            consumer_tail: vec![NONE; slots],
            dest: vec![None; slots],
            dispatch_cycle: vec![0; slots],
            issue_cycle: vec![0; slots],
            pool: ConsumerPool::new(),
        }
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sequence number of the oldest in-flight instruction (the next
    /// one to dispatch when empty).
    #[inline]
    pub fn head_seq(&self) -> Seq {
        self.head_seq
    }

    #[inline]
    fn slot(&self, seq: Seq) -> usize {
        (seq & self.mask) as usize
    }

    /// Whether `seq` is in the live window.
    #[inline]
    pub fn contains(&self, seq: Seq) -> bool {
        seq >= self.head_seq && seq - self.head_seq < self.len as u64
    }

    /// Writes a freshly dispatched instruction into its slot. Register
    /// wiring (consumer edges, pending counts) is layered on by the
    /// caller via [`InstArena::add_consumer`] / [`InstArena::inc_pending`].
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not the next sequence number in program order
    /// (the caller checks fullness against its configured capacity).
    #[inline]
    pub fn dispatch(&mut self, seq: Seq, dest: Option<Reg>, cycle: u64) {
        if self.len == 0 {
            self.head_seq = seq;
        } else {
            assert_eq!(
                seq,
                self.head_seq + self.len as u64,
                "dispatch must follow program order"
            );
        }
        let s = self.slot(seq);
        self.pending_deps[s] = 0;
        self.flags[s] = 0;
        self.complete_cycle[s] = 0;
        debug_assert_eq!(self.consumer_head[s], NONE, "slot leaked consumer chunks");
        self.dest[s] = dest;
        self.dispatch_cycle[s] = cycle;
        self.issue_cycle[s] = 0;
        self.len += 1;
    }

    /// Records a consumer edge: `consumer` waits on `producer`.
    #[inline]
    pub fn add_consumer(&mut self, producer: Seq, consumer: Seq) {
        debug_assert!(self.contains(producer));
        let s = self.slot(producer);
        let (mut head, mut tail) = (self.consumer_head[s], self.consumer_tail[s]);
        self.pool.push(&mut head, &mut tail, consumer);
        self.consumer_head[s] = head;
        self.consumer_tail[s] = tail;
    }

    /// Bumps the unresolved-producer count of `seq`.
    #[inline]
    pub fn inc_pending(&mut self, seq: Seq) {
        let s = self.slot(seq);
        self.pending_deps[s] += 1;
    }

    /// Drops one unresolved producer of `seq`, returning whether the
    /// instruction is now ready to issue.
    #[inline]
    pub fn dec_pending(&mut self, seq: Seq) -> bool {
        let s = self.slot(seq);
        debug_assert!(self.pending_deps[s] > 0);
        self.pending_deps[s] -= 1;
        self.pending_deps[s] == 0 && self.flags[s] == 0
    }

    /// Whether `seq` is ready to issue (unissued, incomplete, no
    /// unresolved producers).
    #[inline]
    pub fn is_ready(&self, seq: Seq) -> bool {
        let s = self.slot(seq);
        self.flags[s] == 0 && self.pending_deps[s] == 0
    }

    /// Whether `seq` has finished executing.
    #[inline]
    pub fn is_completed(&self, seq: Seq) -> bool {
        self.flags[self.slot(seq)] & F_COMPLETED != 0
    }

    /// The destination register of `seq`, if resident.
    #[inline]
    pub fn dest(&self, seq: Seq) -> Option<Option<Reg>> {
        self.contains(seq).then(|| self.dest[self.slot(seq)])
    }

    /// The cycle `seq` completes (0 until it issues), if resident.
    #[inline]
    pub fn complete_cycle(&self, seq: Seq) -> Option<u64> {
        self.contains(seq)
            .then(|| self.complete_cycle[self.slot(seq)])
    }

    /// Marks `seq` complete and moves its consumer list into `out`
    /// (appended in dispatch order); the chunks return to the pool.
    #[inline]
    pub fn complete_into(&mut self, seq: Seq, out: &mut Vec<Seq>) {
        let s = self.slot(seq);
        self.flags[s] |= F_COMPLETED;
        let (mut head, mut tail) = (self.consumer_head[s], self.consumer_tail[s]);
        self.pool.drain(&mut head, &mut tail, out);
        self.consumer_head[s] = head;
        self.consumer_tail[s] = tail;
    }

    /// Records that `seq` issued this cycle.
    #[inline]
    pub fn mark_issued(&mut self, seq: Seq, issue_cycle: u64, complete_cycle: u64) {
        let s = self.slot(seq);
        debug_assert!(
            self.flags[s] == 0 && self.pending_deps[s] == 0,
            "only ready instructions issue"
        );
        self.flags[s] |= F_ISSUED;
        self.issue_cycle[s] = issue_cycle;
        self.complete_cycle[s] = complete_cycle;
    }

    /// A view of the in-flight instruction `seq`, if resident.
    pub fn view(&self, seq: Seq) -> Option<InstView> {
        if !self.contains(seq) {
            return None;
        }
        let s = self.slot(seq);
        Some(InstView {
            seq,
            dest: self.dest[s],
            pending_deps: self.pending_deps[s],
            issued: self.flags[s] & F_ISSUED != 0,
            completed: self.flags[s] & F_COMPLETED != 0,
            dispatch_cycle: self.dispatch_cycle[s],
            issue_cycle: self.issue_cycle[s],
            complete_cycle: self.complete_cycle[s],
        })
    }

    /// The oldest in-flight instruction.
    pub fn head(&self) -> Option<InstView> {
        if self.len == 0 {
            None
        } else {
            self.view(self.head_seq)
        }
    }

    /// Removes the head (its consumer list was already drained at
    /// completion).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or the head has not completed.
    #[inline]
    pub fn pop_head(&mut self) {
        assert!(self.len > 0, "pop from empty RUU");
        let s = self.slot(self.head_seq);
        assert!(
            self.flags[s] & F_COMPLETED != 0,
            "popping an incomplete head"
        );
        self.head_seq += 1;
        self.len -= 1;
    }

    /// Number of contiguous completed instructions starting at
    /// `start_seq`, capped at `max`. A forward walk over the dense flag
    /// array — one byte per probe instead of a `DynInst` stride.
    pub fn completed_run_len(&self, start_seq: Seq, max: usize) -> usize {
        if !self.contains(start_seq) {
            return 0;
        }
        let window = ((self.head_seq + self.len as u64) - start_seq) as usize;
        let mut run = 0;
        while run < max.min(window) {
            if self.flags[self.slot(start_seq + run as u64)] & F_COMPLETED == 0 {
                break;
            }
            run += 1;
        }
        run
    }

    /// Iterates over the live window, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = InstView> + '_ {
        (self.head_seq..self.head_seq + self.len as u64).map(|seq| {
            self.view(seq)
                .expect("window seqs are resident by construction")
        })
    }

    /// The recorded consumers of `seq`, in dispatch order (test/debug
    /// accessor; the hot path drains via [`InstArena::complete_into`]).
    pub fn consumers_of(&self, seq: Seq) -> Vec<Seq> {
        let mut out = Vec::new();
        if self.contains(seq) {
            self.pool
                .collect(self.consumer_head[self.slot(seq)], &mut out);
        }
        out
    }

    /// Squashes the window and returns every consumer chunk to the
    /// pool. Slot contents need no scrubbing — dispatch rewrites every
    /// field it reads — but the list roots must reset because the pool
    /// indices they hold are gone.
    pub fn clear(&mut self) {
        self.len = 0;
        self.pool.clear();
        self.consumer_head.fill(NONE);
        self.consumer_tail.fill(NONE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_isa::abi::*;

    #[test]
    fn slot_mapping_is_injective_over_a_full_window() {
        // Capacity 3 → 4 slots; a full window of 3 live seqs anywhere
        // in the sequence space must land on 3 distinct slots.
        let mut a = InstArena::new(3);
        for base in [0u64, 5, 1021] {
            a.clear();
            for seq in base..base + 3 {
                a.dispatch(seq, Some(T0), 0);
            }
            for seq in base..base + 3 {
                assert_eq!(a.view(seq).unwrap().seq, seq);
                a.complete_into(seq, &mut Vec::new());
            }
            for _ in 0..3 {
                a.pop_head();
            }
        }
    }

    #[test]
    fn consumer_pool_chains_and_recycles_chunks() {
        let mut a = InstArena::new(32);
        a.dispatch(0, Some(T0), 0);
        // Fan-out past one chunk: 2×CHUNK_CAP + 1 consumers.
        let consumers: Vec<Seq> = (1..=2 * CHUNK_CAP as u64 + 1).collect();
        for &c in &consumers {
            a.dispatch(c, Some(T1), 0);
            a.add_consumer(0, c);
            a.inc_pending(c);
        }
        assert_eq!(a.consumers_of(0), consumers);
        let chunks_before = a.pool.chunks.len();
        let mut woken = Vec::new();
        a.complete_into(0, &mut woken);
        assert_eq!(woken, consumers, "wake-up preserves dispatch order");
        assert!(a.consumers_of(0).is_empty());
        // Recycled: building a same-shaped list allocates no new chunk.
        a.pop_head();
        a.dispatch(2 * CHUNK_CAP as u64 + 2, Some(T0), 0);
        for c in &consumers {
            a.add_consumer(2 * CHUNK_CAP as u64 + 2, c + 100);
        }
        assert_eq!(a.pool.chunks.len(), chunks_before, "free list recycles");
    }

    #[test]
    fn clear_resets_list_roots() {
        let mut a = InstArena::new(8);
        a.dispatch(0, Some(T0), 0);
        a.dispatch(1, Some(T1), 0);
        a.add_consumer(0, 1);
        a.clear();
        assert!(a.is_empty());
        // Re-dispatch into the same slots: stale pool roots would trip
        // the leak debug_assert or read freed chunks.
        a.dispatch(0, Some(T0), 0);
        assert!(a.consumers_of(0).is_empty());
    }

    #[test]
    fn completed_run_walk() {
        let mut a = InstArena::new(8);
        for seq in 0..5 {
            a.dispatch(seq, Some(T0), 0);
        }
        for seq in [0u64, 1, 3] {
            a.mark_issued(seq, 1, 2);
            a.complete_into(seq, &mut Vec::new());
        }
        assert_eq!(a.completed_run_len(0, 8), 2);
        assert_eq!(a.completed_run_len(0, 1), 1);
        assert_eq!(a.completed_run_len(2, 8), 0);
        assert_eq!(a.completed_run_len(3, 8), 1);
        assert_eq!(a.completed_run_len(99, 8), 0);
    }
}
