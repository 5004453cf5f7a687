//! Property-style snapshot round-trip tests over the whole kernel
//! catalogue, seeded with SplitMix64 so every run exercises the same
//! deterministic cases.
//!
//! The invariant under test is the tentpole guarantee of the checkpoint
//! subsystem: snapshot mid-kernel, serialize, deserialize, restore into
//! a fresh simulator, and the continuation is bit-identical to the
//! uninterrupted run — for every kernel, at arbitrary boundaries.

use reese_ckpt::{checkpoints_at, Checkpoint, CkptError};
use reese_cpu::Emulator;
use reese_pipeline::{PipelineConfig, SchedulerMode};
use reese_stats::SplitMix64;
use reese_workloads::Kernel;

/// Kernel instances small enough that six of them round-trip in a unit
/// test, large enough to touch several memory pages and train the
/// predictors.
const KERNEL_INSTRUCTIONS: u64 = 8_000;

#[test]
fn every_kernel_round_trips_through_a_mid_run_snapshot() {
    let mut rng = SplitMix64::new(0x5EED_C0DE);
    for kernel in Kernel::ALL {
        let prog = kernel.build_for(KERNEL_INSTRUCTIONS);
        let reference = Emulator::new(&prog).run(u64::MAX).unwrap();
        let n = reference.instructions;

        // Three random interior boundaries per kernel.
        for _ in 0..3 {
            let boundary = rng.range_u64(1, n);
            let cks = checkpoints_at(&prog, &[boundary], &PipelineConfig::starting())
                .unwrap_or_else(|e| panic!("{}: fast-forward failed: {e}", kernel.name()));
            let bytes = cks[0].encode();
            let decoded = Checkpoint::decode(&bytes)
                .unwrap_or_else(|e| panic!("{}: decode failed: {e}", kernel.name()));
            assert_eq!(
                decoded,
                cks[0],
                "{}: serialization round trip",
                kernel.name()
            );
            assert_eq!(decoded.instructions, boundary);

            let mut resumed = decoded.restore(&prog);
            let done = resumed.run(u64::MAX).unwrap();
            assert_eq!(done.instructions, n, "{}: instruction count", kernel.name());
            assert_eq!(
                done.state_digest,
                reference.state_digest,
                "{}: architectural state",
                kernel.name()
            );
            assert_eq!(
                resumed.output(),
                reference.output,
                "{}: output",
                kernel.name()
            );
        }
    }
}

#[test]
fn snapshots_are_independent_of_the_scheduler_mode_on_every_kernel() {
    // Fast-forward is functional: it never runs through the scheduler's
    // instruction store (the SoA `InstArena` under `EventDriven`, the
    // AoS deque under `Scan`), so a frame captured under either
    // `SchedulerMode` must be byte-identical, carry the current wire
    // version, and restore to a run that finishes bit-identically.
    let mut rng = SplitMix64::new(0xA2E7A);
    for kernel in Kernel::ALL {
        let prog = kernel.build_for(KERNEL_INSTRUCTIONS);
        let reference = Emulator::new(&prog).run(u64::MAX).unwrap();
        let boundary = rng.range_u64(1, reference.instructions);

        let event_cfg = PipelineConfig::starting().with_scheduler(SchedulerMode::EventDriven);
        let scan_cfg = PipelineConfig::starting().with_scheduler(SchedulerMode::Scan);
        let event = checkpoints_at(&prog, &[boundary], &event_cfg).unwrap();
        let scan = checkpoints_at(&prog, &[boundary], &scan_cfg).unwrap();
        let bytes = event[0].encode();
        assert_eq!(
            bytes,
            scan[0].encode(),
            "{}: frame must not depend on the scheduler mode",
            kernel.name()
        );
        assert_eq!(
            u16::from_le_bytes([bytes[4], bytes[5]]),
            reese_ckpt::VERSION,
            "{}: frames carry the current wire version",
            kernel.name()
        );

        let decoded = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(decoded, event[0], "{}: round trip", kernel.name());
        let mut resumed = decoded.restore(&prog);
        let done = resumed.run(u64::MAX).unwrap();
        assert_eq!(
            (done.instructions, done.state_digest),
            (reference.instructions, reference.state_digest),
            "{}: restored frame resumes bit-identically",
            kernel.name()
        );
        assert_eq!(resumed.output(), reference.output, "{}", kernel.name());
    }
}

#[test]
fn seeded_corruption_is_always_detected() {
    let prog = Kernel::Lisp.build_for(KERNEL_INSTRUCTIONS);
    let cks = checkpoints_at(
        &prog,
        &[KERNEL_INSTRUCTIONS / 2],
        &PipelineConfig::starting(),
    )
    .unwrap();
    let good = cks[0].encode();
    assert!(Checkpoint::decode(&good).is_ok());

    let mut rng = SplitMix64::new(0xBAD_CAFE);
    for trial in 0..200 {
        let mut corrupted = good.clone();
        let pos = rng.index(corrupted.len());
        let bit = rng.range_u64(0, 8) as u8;
        corrupted[pos] ^= 1 << bit;
        let err = Checkpoint::decode(&corrupted).expect_err(&format!(
            "trial {trial}: flip at byte {pos} bit {bit} must be caught"
        ));
        // A single bit flip is always within CRC-32's guarantee, unless
        // it lands in the magic or version fields, which are checked
        // first.
        assert!(
            matches!(
                err,
                CkptError::BadCrc { .. } | CkptError::BadMagic | CkptError::UnsupportedVersion(_)
            ),
            "trial {trial}: unexpected error {err:?}"
        );
    }
}

#[test]
fn seeded_truncation_never_panics() {
    let prog = Kernel::Strings.build_for(KERNEL_INSTRUCTIONS);
    let cks = checkpoints_at(
        &prog,
        &[KERNEL_INSTRUCTIONS / 3],
        &PipelineConfig::starting(),
    )
    .unwrap();
    let good = cks[0].encode();
    let mut rng = SplitMix64::new(0x73_15C47E);
    for _ in 0..100 {
        let cut = rng.index(good.len());
        assert!(Checkpoint::decode(&good[..cut]).is_err());
    }
}
