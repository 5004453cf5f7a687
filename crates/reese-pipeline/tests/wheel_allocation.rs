//! The completion wheel allocates nothing for a lap of in-span traffic,
//! neither after construction nor after a clone. A fault-injection
//! fork clones the whole core off its window's clean pass, so a wheel
//! whose clone re-allocated its buckets on first use would charge every
//! fork for the ring it inherits.
//!
//! A counting global allocator sees every allocation in this test
//! binary; the count is per thread, so the harness's own threads do
//! not disturb it.

use reese_pipeline::{EventWheel, Seq};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a const-initialised thread-local, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Latencies of the three events issued each cycle. The longest stays
/// inside the 256-cycle ring, and each cycle receives at most three
/// completions (one per latency), so no push outruns the ring or fills
/// a bucket.
const LATENCIES: [u64; 3] = [1, 97, 255];

/// Cycles per lap: twice around a 256-slot ring, so every bucket is
/// pushed to and drained at least twice.
const LAP: u64 = 512;

/// Runs one lap from `start`: at each cycle, drain what is due, then
/// issue one event per latency. Returns the next cycle and seq.
fn lap(wheel: &mut EventWheel, out: &mut Vec<Seq>, start: u64, mut seq: Seq) -> (u64, Seq) {
    for now in start..start + LAP {
        wheel.take_due_into(now, out);
        assert!(out.windows(2).all(|w| w[0] < w[1]), "drain out of order");
        for latency in LATENCIES {
            wheel.push(now + latency, seq);
            seq += 1;
        }
        wheel.next_cycle().expect("events in flight");
    }
    (start + LAP, seq)
}

#[test]
fn an_in_span_lap_allocates_nothing_after_construction_or_clone() {
    let mut out: Vec<Seq> = Vec::with_capacity(64);
    let mut wheel = EventWheel::new();

    let before = allocations();
    let (now, seq) = lap(&mut wheel, &mut out, 0, 0);
    assert_eq!(allocations() - before, 0, "a new wheel allocated on push");

    let mut clone = wheel.clone();
    let before = allocations();
    let (end, _) = lap(&mut clone, &mut out, now, seq);
    assert_eq!(
        allocations() - before,
        0,
        "a cloned wheel allocated on push"
    );

    // The lap kept its events: each latency leaves that many in
    // flight, and draining far ahead empties the clone.
    assert_eq!(clone.len() as u64, LATENCIES.iter().sum::<u64>());
    clone.take_due_into(end + 1_000, &mut out);
    assert!(clone.is_empty());
}
