//! A bucketed time wheel for completion events.
//!
//! The event-driven scheduler keeps one pending completion event per
//! issued instruction and asks three things of the container: pop
//! everything due at the current cycle in `(cycle, seq)` order, report
//! the earliest scheduled cycle (for idle-cycle skipping), and clear on
//! a flush. A `BinaryHeap<Reverse<(u64, Seq)>>` does all three but pays
//! a log-depth sift on every push and pop, which at small windows
//! (RUU = 16) is the last remaining per-cycle cost above the plain
//! scan. Event horizons here are tiny — a completion is never scheduled
//! further out than the worst-case memory latency — so a ring of
//! per-cycle buckets indexed by `cycle mod ring_size` makes push an
//! array store and the per-cycle drain a one-slot inspection.
//!
//! Draining advances a cursor; all live events sit in the half-open
//! window `[cursor, cursor + ring_size)`, so each bucket holds events
//! of exactly one cycle and the ring never needs tombstones.
//!
//! # Flat buckets
//!
//! Every bucket is a fixed-size run of one flat `Vec<Seq>` (bucket `s`
//! is `events[s * width ..][.. lens[s]]`), so a push or a drain never
//! allocates, and neither does a clone's first lap. That matters
//! because a fault-injection fork clones the whole core off its
//! window's clean pass: a `Vec<Vec<Seq>>` clone keeps no capacity for
//! its empty buckets, so each fork would re-allocate up to one bucket
//! per cycle of its ring. The wheel is re-laid out (see
//! [`EventWheel::relayout`]) only when a push outruns the ring, which
//! doubles the slot count, or fills its bucket, which doubles every
//! bucket's width — both a handful of times per process at most,
//! driven by configured latencies and issue widths, not by load — and
//! a clone inherits the layout.
//!
//! # Over-span scheduling audit
//!
//! An event scheduled ≥ `ring_size` cycles ahead would alias the slot
//! of a nearer cycle under `cycle & mask` — a long-latency op landing
//! in an occupied bucket would then fire with (and be sorted among)
//! events of a different cycle: silently early and misordered. The
//! guard is the grow loop in [`EventWheel::push`]: it runs *before*
//! the slot index is computed and doubles the ring until
//! `cycle - cursor < ring_size`, restoring the one-cycle-per-bucket
//! invariant. [`EventWheel::relayout`] preserves it for the events
//! already resident: every live cycle lies in `[cursor, cursor +
//! old_size)`, and re-homing bucket `(cursor + d) & old_mask` to
//! `(cursor + d) & new_mask` for `d in 0..old_size` maps distinct live
//! cycles to distinct new slots (the window is no longer than the new
//! ring) while every other slot starts empty. The drain and
//! [`EventWheel::next_cycle`] walk cycle-by-cycle from
//! `cursor.max(hint)`, so they can neither resurrect a drained bucket
//! nor skip a due one. The alias regression is pinned by
//! `over_span_event_into_an_occupied_slot_neither_drops_nor_reorders`
//! below.

use crate::Seq;

/// Initial bucket count: comfortably above the default worst-case
/// access path (TLB miss + L1 + L2 + main memory) so growth is the
/// exception, small enough that a flush-triggered [`EventWheel::clear`]
/// stays cheap.
const INITIAL_SLOTS: usize = 256;

/// Initial bucket width, as a power of two: four events may complete
/// in one cycle before the buckets widen.
const INITIAL_WIDTH_SHIFT: u32 = 2;

/// A set of `(cycle, seq)` completion events, drained in ascending
/// `(cycle, seq)` order, valid while every scheduled cycle is at or
/// after the last drained cycle.
#[derive(Debug, Clone)]
pub struct EventWheel {
    /// One bucket of `1 << shift` seqs per cycle in the live window;
    /// within a bucket, seqs are unordered until the drain sorts them.
    events: Vec<Seq>,
    /// Occupied length of each bucket.
    lens: Vec<u32>,
    mask: u64,
    /// Log2 of the bucket width.
    shift: u32,
    len: usize,
    /// All live events lie in `[cursor, cursor + lens.len())`.
    cursor: u64,
    /// Lower bound on the earliest live event's cycle (exact after
    /// [`EventWheel::next_cycle`] finds one). Lets the drain and the
    /// peek skip empty buckets without rescanning from `cursor`.
    hint: u64,
}

impl Default for EventWheel {
    fn default() -> EventWheel {
        EventWheel::new()
    }
}

impl EventWheel {
    /// Creates an empty wheel.
    pub fn new() -> EventWheel {
        EventWheel {
            events: vec![0; INITIAL_SLOTS << INITIAL_WIDTH_SHIFT],
            lens: vec![0; INITIAL_SLOTS],
            mask: (INITIAL_SLOTS - 1) as u64,
            shift: INITIAL_WIDTH_SHIFT,
            len: 0,
            cursor: 0,
            hint: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether any event is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `seq` to fire at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is before a cycle that has already been
    /// drained — events never fire in the past.
    pub fn push(&mut self, cycle: u64, seq: Seq) {
        assert!(cycle >= self.cursor, "event scheduled in a drained cycle");
        while cycle - self.cursor >= self.lens.len() as u64 {
            self.relayout(self.lens.len() * 2, self.shift);
        }
        let slot = (cycle & self.mask) as usize;
        let n = self.lens[slot] as usize;
        if n == 1 << self.shift {
            self.relayout(self.lens.len(), self.shift + 1);
        }
        self.events[(slot << self.shift) + n] = seq;
        self.lens[slot] += 1;
        self.len += 1;
        if cycle < self.hint {
            self.hint = cycle;
        }
    }

    /// Re-lays the wheel out as `slots` buckets of `1 << shift` seqs,
    /// moving each live bucket to its cycle's new index.
    #[cold]
    fn relayout(&mut self, slots: usize, shift: u32) {
        let mut events = vec![0; slots << shift];
        let mut lens = vec![0; slots];
        let mask = (slots - 1) as u64;
        for d in 0..self.lens.len() as u64 {
            let cycle = self.cursor.wrapping_add(d);
            let from = (cycle & self.mask) as usize;
            let n = self.lens[from] as usize;
            if n != 0 {
                let to = (cycle & mask) as usize;
                events[to << shift..][..n].copy_from_slice(&self.events[from << self.shift..][..n]);
                lens[to] = n as u32;
            }
        }
        self.events = events;
        self.lens = lens;
        self.mask = mask;
        self.shift = shift;
    }

    /// Appends every event due at or before `now` to `out` (cleared
    /// first) in ascending `(cycle, seq)` order, and advances the
    /// drained-cycle cursor to `now + 1`.
    pub fn take_due_into(&mut self, now: u64, out: &mut Vec<Seq>) {
        out.clear();
        if self.len != 0 {
            let mut cycle = self.cursor.max(self.hint);
            while cycle <= now && self.len != 0 {
                let slot = (cycle & self.mask) as usize;
                let n = self.lens[slot] as usize;
                if n != 0 {
                    let bucket = &self.events[slot << self.shift..][..n];
                    // Most due cycles hold one event; copying and
                    // sorting it costs a clean REESE run about 1%.
                    if n == 1 {
                        out.push(bucket[0]);
                    } else {
                        let start = out.len();
                        out.extend_from_slice(bucket);
                        out[start..].sort_unstable();
                    }
                    self.lens[slot] = 0;
                    self.len -= n;
                }
                cycle += 1;
            }
        }
        self.cursor = now + 1;
        self.hint = self.hint.max(self.cursor);
    }

    /// Cycle of the earliest pending event, if any.
    pub fn next_cycle(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mut cycle = self.cursor.max(self.hint);
        loop {
            if self.lens[(cycle & self.mask) as usize] != 0 {
                self.hint = cycle;
                return Some(cycle);
            }
            cycle += 1;
        }
    }

    /// Drops every pending event. The drained-cycle cursor is kept, so
    /// the wheel keeps rejecting past cycles after a flush.
    pub fn clear(&mut self) {
        if self.len != 0 {
            self.lens.fill(0);
            self.len = 0;
        }
        self.hint = self.cursor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The events due by `now`, through the drain's buffer.
    fn due(w: &mut EventWheel, now: u64) -> Vec<Seq> {
        let mut out = vec![99];
        w.take_due_into(now, &mut out);
        out
    }

    #[test]
    fn fires_in_cycle_then_seq_order() {
        let mut w = EventWheel::new();
        w.push(4, 9);
        w.push(2, 7);
        w.push(4, 1);
        w.push(2, 3);
        assert_eq!(w.next_cycle(), Some(2));
        assert_eq!(due(&mut w, 1), Vec::<Seq>::new());
        assert_eq!(due(&mut w, 2), vec![3, 7]);
        assert_eq!(w.next_cycle(), Some(4));
        assert_eq!(due(&mut w, 10), vec![1, 9]);
        assert_eq!(w.next_cycle(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn drain_spanning_many_cycles_stays_sorted() {
        let mut w = EventWheel::new();
        for (cycle, seq) in [(5, 2), (3, 0), (9, 1), (3, 4)] {
            w.push(cycle, seq);
        }
        assert_eq!(due(&mut w, 9), vec![0, 4, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "drained cycle")]
    fn past_push_panics() {
        let mut w = EventWheel::new();
        due(&mut w, 10);
        w.push(10, 0);
    }

    #[test]
    fn grows_past_the_initial_horizon() {
        let mut w = EventWheel::new();
        w.push(1, 0);
        w.push(INITIAL_SLOTS as u64 * 3, 1);
        w.push(2, 2);
        assert_eq!(w.len(), 3);
        assert_eq!(w.next_cycle(), Some(1));
        assert_eq!(due(&mut w, 2), vec![0, 2]);
        assert_eq!(w.next_cycle(), Some(INITIAL_SLOTS as u64 * 3));
        assert_eq!(due(&mut w, u64::MAX - 1), vec![1]);
    }

    #[test]
    fn over_span_event_into_an_occupied_slot_neither_drops_nor_reorders() {
        // A long-latency completion lands a full wheel span (or two)
        // after a near event with the *same* masked slot index. Without
        // the pre-index grow loop the far events would join the near
        // bucket and fire early; with it they must keep their own
        // cycles and ascending order.
        let span = INITIAL_SLOTS as u64;
        let mut w = EventWheel::new();
        w.push(3, 10); // occupies slot 3
        w.push(3 + span, 11); // would alias slot 3 under the old mask
        w.push(3 + 2 * span, 12); // aliases the doubled ring too
        assert_eq!(w.len(), 3);
        assert_eq!(due(&mut w, 3), vec![10], "only the near event is due");
        assert_eq!(w.next_cycle(), Some(3 + span));
        assert_eq!(due(&mut w, 3 + span), vec![11]);
        assert_eq!(w.next_cycle(), Some(3 + 2 * span));
        assert_eq!(due(&mut w, 3 + 2 * span), vec![12]);
        assert!(w.is_empty());

        // Same shape with the far event pushed first, so growth has to
        // re-home an occupied far bucket past a later near push.
        let mut w = EventWheel::new();
        w.push(7, 1);
        w.push(7 + span, 0); // grows; seq 0 younger than the near seq 1
        w.push(7 + span, 2);
        assert_eq!(due(&mut w, 7 + span - 1), vec![1]);
        assert_eq!(due(&mut w, 7 + span), vec![0, 2], "bucket drains sorted");
    }

    #[test]
    fn clear_keeps_the_cursor() {
        let mut w = EventWheel::new();
        w.push(5, 0);
        due(&mut w, 3);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.next_cycle(), None);
        w.push(4, 1); // at the cursor: legal
        assert_eq!(due(&mut w, 4), vec![1]);
    }

    #[test]
    fn matches_a_binary_heap_under_seeded_traffic() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // SplitMix64-driven schedule/drain churn with latencies 1..=120,
        // occasionally far beyond the initial horizon to force growth.
        let mut state: u64 = 0xC0_FFEE;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // Halfway through, the wheel is cloned with events in flight,
        // as a fault-injection fork clones a core; from then on the
        // clone takes the same traffic and must drain the same seqs.
        let mut wheel = EventWheel::new();
        let mut twin: Option<EventWheel> = None;
        let mut heap: BinaryHeap<Reverse<(u64, Seq)>> = BinaryHeap::new();
        let mut now: u64 = 0;
        let mut seq: Seq = 0;
        for round in 0..5_000 {
            if round == 2_500 {
                assert!(!wheel.is_empty(), "the clone must carry live events");
                twin = Some(wheel.clone());
            }
            for _ in 0..next() % 4 {
                let latency = if next() % 64 == 0 {
                    INITIAL_SLOTS as u64 + 1 + next() % 1000
                } else {
                    1 + next() % 120
                };
                wheel.push(now + latency, seq);
                if let Some(twin) = &mut twin {
                    twin.push(now + latency, seq);
                }
                heap.push(Reverse((now + latency, seq)));
                seq += 1;
            }
            let next_cycle = heap.peek().map(|&Reverse((c, _))| c);
            assert_eq!(wheel.next_cycle(), next_cycle);
            now += 1 + next() % 8;
            let mut expected = Vec::new();
            while let Some(&Reverse((c, s))) = heap.peek() {
                if c > now {
                    break;
                }
                heap.pop();
                expected.push(s);
            }
            if let Some(twin) = &mut twin {
                assert_eq!(twin.next_cycle(), next_cycle);
                assert_eq!(due(twin, now), expected, "the clone diverged");
                assert_eq!(twin.len(), heap.len());
            }
            assert_eq!(due(&mut wheel, now), expected);
            assert_eq!(wheel.len(), heap.len());
        }
    }

    #[test]
    fn a_full_bucket_widens_without_losing_or_reordering_events() {
        // More events complete in one cycle than a bucket holds, with
        // neighbouring cycles occupied, before and after a clone.
        let width = 1u64 << INITIAL_WIDTH_SHIFT;
        let mut w = EventWheel::new();
        w.push(5, 100);
        w.push(7, 101);
        for seq in (0..3 * width).rev() {
            w.push(6, seq);
        }
        let mut c = w.clone();
        for w in [&mut w, &mut c] {
            w.push(6, 3 * width);
            assert_eq!(w.len(), 3 * width as usize + 3);
            assert_eq!(due(w, 5), vec![100]);
            assert_eq!(w.next_cycle(), Some(6));
            assert_eq!(due(w, 6), (0..=3 * width).collect::<Vec<_>>());
            assert_eq!(due(w, 7), vec![101]);
            assert!(w.is_empty());
        }
    }
}
