//! Seeded flush-during-in-flight-R stress test.
//!
//! A detection mismatch flushes the R-stream Queue while redundant
//! re-executions may still be in flight on the functional units (their
//! completion times live in the R-queue's completion wheel / completion
//! heap). A stale completion entry surviving the flush would mark a
//! *new* post-flush queue entry complete with a *pre-flush* result —
//! silently corrupting the comparison. This test drives many seeded
//! mismatch flushes through both schedulers and replays the trace-event
//! stream to prove the invariant: after a flush, every redundant-stream
//! writeback is matched by a redundant-stream issue that happened after
//! that same flush.

use reese::core::{Faults, InjectedFault, ReeseConfig, ReeseSim, SchedulerMode};
use reese::pipeline::RunSpec;
use reese::stats::SplitMix64;
use reese::trace::{CycleState, Observer, Stage, Stream, TraceEvent};
use reese::workloads::Kernel;
use std::collections::HashSet;

/// An observer that just records every lifecycle event.
struct EventLog {
    events: Vec<TraceEvent>,
}

impl Observer for EventLog {
    const ENABLED: bool = true;

    fn event(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    fn cycle(&mut self, _cycle: u64, _state: &CycleState) {}

    fn idle_skip(&mut self, _from: u64, _to: u64, _state: &CycleState) {}
}

/// Replays the event stream and asserts no redundant writeback lands
/// without a post-flush redundant issue for the same seq. Returns the
/// number of flushes seen so the caller can assert the test actually
/// exercised the path.
fn check_no_stale_r_completions(events: &[TraceEvent]) -> usize {
    let mut in_flight: HashSet<u64> = HashSet::new();
    let mut flushes = 0;
    for ev in events {
        match (ev.stage, ev.stream) {
            (Stage::Flush, _) => {
                // The squash empties the R-queue and the FU pipeline:
                // every in-flight redundant execution dies with it.
                in_flight.clear();
                flushes += 1;
            }
            (Stage::Issue, Stream::Redundant) => {
                assert!(
                    in_flight.insert(ev.seq),
                    "seq {} R-issued twice with no intervening writeback (cycle {})",
                    ev.seq,
                    ev.cycle
                );
            }
            (Stage::Writeback, Stream::Redundant) => {
                assert!(
                    in_flight.remove(&ev.seq),
                    "stale R completion: seq {} wrote back at cycle {} \
                     with no post-flush R issue",
                    ev.seq,
                    ev.cycle
                );
            }
            _ => {}
        }
    }
    flushes
}

fn run_and_check(cfg: ReeseConfig, faults: &[InjectedFault]) -> usize {
    let program = Kernel::Lisp.build(1);
    let mut log = EventLog { events: Vec::new() };
    // Faulty runs may end in a permanent-fault error if the seeded
    // stream hits the same seq twice; the event log is still valid up
    // to that point, so ignore the result itself.
    let _ = ReeseSim::new(cfg).simulate(
        RunSpec::new(&program)
            .limit(50_000)
            .faults(Faults::Latch(faults)),
        &mut log,
    );
    check_no_stale_r_completions(&log.events)
}

/// Draws a seeded batch of redundant-stream faults: each one forces a
/// comparison mismatch, hence a detection flush, at a pseudo-random
/// point in the run.
fn seeded_faults(seed: u64, n: usize, span: u64) -> Vec<InjectedFault> {
    let mut rng = SplitMix64::new(seed);
    let mut seqs = HashSet::new();
    let mut faults = Vec::new();
    while faults.len() < n {
        let seq = rng.range_u64(10, 10 + span);
        let bit = (rng.next_u64() & 63) as u8;
        // Distinct seqs: re-faulting the same seq reads as a permanent
        // fault and stops the machine early.
        if seqs.insert(seq) {
            faults.push(InjectedFault::redundant(seq, bit));
        }
    }
    faults
}

#[test]
fn flushes_leave_no_stale_r_completions_in_either_mode() {
    for mode in [SchedulerMode::Scan, SchedulerMode::EventDriven] {
        for seed in [1u64, 0xFA017, 0xDEAD_BEEF] {
            let faults = seeded_faults(seed, 20, 20_000);
            let flushes = run_and_check(ReeseConfig::starting().with_scheduler(mode), &faults);
            assert!(
                flushes >= 5,
                "seed {seed:#x} under {mode:?} produced only {flushes} flushes — \
                 the stress test is not stressing"
            );
        }
    }
}

#[test]
fn flushes_with_tiny_queue_and_early_removal() {
    // A tiny queue keeps entries migrating right up against the flush
    // point; early removal makes migration destructive, so a stale
    // completion would have nothing to fall back on.
    for mode in [SchedulerMode::Scan, SchedulerMode::EventDriven] {
        let faults = seeded_faults(7, 12, 10_000);
        let cfg = ReeseConfig::starting()
            .with_scheduler(mode)
            .with_rqueue_size(8)
            .with_early_removal(true);
        let flushes = run_and_check(cfg, &faults);
        assert!(flushes >= 3, "{mode:?}: only {flushes} flushes");
    }
}
