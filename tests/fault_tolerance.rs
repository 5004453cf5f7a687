//! End-to-end fault-tolerance properties: the coverage REESE promises
//! in §4.2, measured rather than argued.

use reese::ckpt::checkpoints_at;
use reese::core::{DuplexSim, Faults, InjectedFault, ReeseConfig, ReeseError, ReeseSim};
use reese::cpu::Emulator;
use reese::faults::{Campaign, FaultClass, FaultMix};
use reese::pipeline::{PipelineConfig, RunSpec};
use reese::trace::NoopObserver;
use reese::workloads::Kernel;

#[test]
fn every_result_error_is_detected_and_recovered() {
    // One fault per kernel, spread over positions, bits, and streams.
    for (i, kernel) in Kernel::ALL.iter().enumerate() {
        let program = kernel.build(1);
        let sim = ReeseSim::new(ReeseConfig::starting());
        let clean = sim.run(&program).expect("clean run");
        let seq = 100 + 37 * i as u64;
        let bit = (7 * i) as u8 % 64;
        let fault = if i % 2 == 0 {
            InjectedFault::primary(seq, bit)
        } else {
            InjectedFault::redundant(seq, bit)
        };
        let run = sim
            .simulate(
                RunSpec::new(&program).faults(Faults::Latch(&[fault])),
                &mut NoopObserver,
            )
            .expect("faulted run");
        assert_eq!(run.stats.detections, 1, "{kernel}: the flip must be caught");
        assert_eq!(
            run.detections[0].seq, seq,
            "{kernel}: caught at the right instruction"
        );
        assert_eq!(
            run.state_digest, clean.state_digest,
            "{kernel}: state restored"
        );
        assert_eq!(run.output, clean.output, "{kernel}: output unperturbed");
        // One flush's direct cost is small, but the replay perturbs the
        // global branch history, which can swing total cycles slightly
        // in either direction. Only assert the run stays in a tight
        // band around the clean run.
        let band = clean.cycles() / 100 + 200;
        assert!(
            run.cycles().abs_diff(clean.cycles()) <= band,
            "{kernel}: faulted run {} vs clean {} outside the recovery band",
            run.cycles(),
            clean.cycles()
        );
    }
}

#[test]
fn skipped_runs_match_the_emulator_and_catch_later_faults() {
    // From a warm checkpoint at the skip point, both redundant machines
    // commit exactly the remaining instructions with the emulator's
    // output and final state. A fault aimed past the skip point is
    // caught; one aimed inside the skipped prefix never fires.
    let program = Kernel::Database.build(1);
    let skip = 2_000;
    let mut emu = Emulator::new(&program);
    let printed_before = emu.run(skip).expect("prefix").output.len();
    let golden = emu.run(u64::MAX).expect("halts");
    let target = skip + 1_000;
    let faults = [
        InjectedFault::primary(skip / 2, 3),
        InjectedFault::primary(target, 7),
    ];
    let ck = checkpoints_at(&program, &[skip], &PipelineConfig::starting())
        .expect("reaches the skip point")
        .pop()
        .expect("one boundary");
    let spec = || RunSpec::restored(ck.restore(&program), ck.warm.as_ref());
    let reese = ReeseSim::new(ReeseConfig::starting())
        .simulate(spec().faults(Faults::Latch(&faults)), &mut NoopObserver)
        .expect("reese runs");
    let duplex = DuplexSim::new(PipelineConfig::starting())
        .simulate(spec().faults(&faults[..]), &mut NoopObserver)
        .expect("duplex runs");
    for (name, run) in [("reese", reese), ("duplex", duplex)] {
        assert_eq!(
            run.committed_instructions(),
            golden.instructions - skip,
            "{name}"
        );
        assert_eq!(
            run.output,
            golden.output[printed_before..],
            "{name}: output"
        );
        assert_eq!(run.state_digest, golden.state_digest, "{name}: state");
        assert_eq!(
            run.detections.len(),
            1,
            "{name}: only the later fault fires"
        );
        assert_eq!(run.detections[0].seq, target, "{name}");
    }
}

#[test]
fn zero_bit_flips_zero_detections_full_campaign_coverage() {
    let program = Kernel::Compiler.build(1);
    let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
        .trials(30)
        .seed(99)
        .run(&program)
        .expect("campaign");
    assert_eq!(report.detected, 30, "result errors are always caught");
    assert!(report.all_states_clean());
    assert!(report.mean_detection_latency() > 0.0);
}

#[test]
fn uncovered_classes_stay_uncovered() {
    let program = Kernel::Imaging.build(1);
    let report = Campaign::new(ReeseConfig::starting(), FaultMix::broad())
        .trials(50)
        .seed(7)
        .run(&program)
        .expect("campaign");
    for class in [
        FaultClass::PostCompare,
        FaultClass::CacheCell,
        FaultClass::PipelineControl,
    ] {
        let (detected, total) = report.by_class(class);
        assert_eq!(detected, 0, "{class} is outside REESE's observation window");
        assert!(total > 0, "the broad mix must exercise {class}");
    }
    for class in [FaultClass::PrimaryResult, FaultClass::RedundantResult] {
        let (detected, total) = report.by_class(class);
        assert_eq!(detected, total, "{class} must be fully covered");
    }
}

#[test]
fn sticky_faults_are_reported_as_permanent() {
    let program = Kernel::Database.build(1);
    let sim = ReeseSim::new(ReeseConfig::starting());
    let err = sim
        .simulate(
            RunSpec::new(&program).faults(Faults::Latch(&[InjectedFault::permanent(50, 3)])),
            &mut NoopObserver,
        )
        .expect_err("a sticky fault cannot be recovered from");
    match err {
        ReeseError::PermanentFault { seq, .. } => assert_eq!(seq, 50),
        other => panic!("expected PermanentFault, got {other}"),
    }
}

#[test]
fn multiple_transients_each_detected_once() {
    let program = Kernel::Gameplay.build(1);
    let faults = [
        InjectedFault::primary(10, 0),
        InjectedFault::redundant(500, 31),
        InjectedFault::primary(2_000, 63),
    ];
    let run = ReeseSim::new(ReeseConfig::starting())
        .simulate(
            RunSpec::new(&program).faults(Faults::Latch(&faults)),
            &mut NoopObserver,
        )
        .expect("runs");
    assert_eq!(run.stats.detections, 3);
    let seqs: Vec<u64> = run.detections.iter().map(|d| d.seq).collect();
    assert_eq!(
        seqs,
        vec![10, 500, 2_000],
        "detections arrive in program order"
    );
}

#[test]
fn partial_duplication_trades_coverage_for_nothing_worse() {
    let program = Kernel::Lisp.build(1);
    let full = ReeseSim::new(ReeseConfig::starting())
        .run(&program)
        .expect("runs");
    let half = ReeseSim::new(ReeseConfig::starting().with_duplication_period(2))
        .run(&program)
        .expect("runs");
    assert!(
        half.cycles() <= full.cycles(),
        "less re-execution can't be slower"
    );
    assert!(half.stats.r_skipped > 0);
    // A fault on a skipped (odd) instruction silently escapes.
    let escaped = ReeseSim::new(ReeseConfig::starting().with_duplication_period(2))
        .simulate(
            RunSpec::new(&program).faults(Faults::Latch(&[InjectedFault::primary(101, 5)])),
            &mut NoopObserver,
        )
        .expect("runs");
    assert_eq!(
        escaped.stats.detections, 0,
        "odd instructions are unprotected at period 2"
    );
}

#[test]
fn detection_works_in_early_removal_mode_too() {
    let program = Kernel::Strings.build(1);
    let sim = ReeseSim::new(ReeseConfig::starting().with_early_removal(true));
    let clean = sim.run(&program).expect("runs");
    let run = sim
        .simulate(
            RunSpec::new(&program).faults(Faults::Latch(&[InjectedFault::primary(777, 21)])),
            &mut NoopObserver,
        )
        .expect("runs");
    assert_eq!(run.stats.detections, 1);
    assert_eq!(run.state_digest, clean.state_digest);
}

#[test]
fn short_duration_faults_always_detected() {
    use reese::core::DurationFault;
    use reese::isa::FuClass;
    let program = Kernel::Compiler.build(1);
    let sim = ReeseSim::new(ReeseConfig::starting());
    let clean = sim.run(&program).expect("clean");
    // Δt = 1 is far below the machine's minimum P→R separation, so any
    // corruption hits exactly one stream and must be caught.
    let mut affected_any = false;
    for start in (clean.cycles() / 4..clean.cycles() / 2).step_by(997) {
        let fault = DurationFault {
            start_cycle: start,
            duration: 1,
            class: FuClass::IntAlu,
            bit: 5,
        };
        let run = sim
            .simulate(
                RunSpec::new(&program).faults(Faults::Duration(fault)),
                &mut NoopObserver,
            )
            .expect("runs");
        let report = run.duration.expect("a duration run reports");
        assert_eq!(
            report.silent_both, 0,
            "Δt=1 cannot straddle both executions"
        );
        if report.affected() {
            affected_any = true;
            assert!(
                run.stats.detections > 0,
                "a one-stream corruption must be detected"
            );
            assert_eq!(
                run.state_digest, clean.state_digest,
                "recovery restores state"
            );
        }
    }
    assert!(affected_any, "at least one window must hit an instruction");
}

#[test]
fn long_duration_faults_escape_silently() {
    use reese::core::DurationFault;
    use reese::isa::FuClass;
    let program = Kernel::Compiler.build(1);
    let sim = ReeseSim::new(ReeseConfig::starting());
    let clean = sim.run(&program).expect("clean");
    let sep_max = clean.stats.pr_separation.max();
    // A disturbance much longer than the maximum separation corrupts
    // both executions of many instructions identically.
    let fault = DurationFault {
        start_cycle: clean.cycles() / 3,
        duration: sep_max * 4,
        class: FuClass::IntAlu,
        bit: 3,
    };
    match sim.simulate(
        RunSpec::new(&program).faults(Faults::Duration(fault)),
        &mut NoopObserver,
    ) {
        Ok(run) => {
            let report = run.duration.expect("a duration run reports");
            assert!(
                report.silent_both > 0,
                "long faults must produce silent escapes: {report:?}"
            );
        }
        Err(ReeseError::PermanentFault { .. }) => {
            // Also acceptable: the disturbance outlasted the retry and
            // the machine stopped — the paper's notify-the-user case.
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn separation_statistics_are_recorded() {
    let program = Kernel::Strings.build(1);
    let run = ReeseSim::new(ReeseConfig::starting())
        .run(&program)
        .expect("runs");
    let sep = &run.stats.pr_separation;
    assert_eq!(sep.samples(), run.stats.comparisons);
    assert!(sep.mean() > 1.0, "R completion must trail P completion");
}

/// The ISSUE-mandated large parallel campaign: ≥200 trials per kernel
/// on two kernels, fanned over 4 workers, with the §4.2 coverage
/// boundary holding exactly — every result-class fault detected, every
/// post-compare-class fault (by design) missed.
#[test]
fn large_parallel_campaign_respects_coverage_boundary() {
    for (kernel, seed) in [(Kernel::Compiler, 1001), (Kernel::Lisp, 1002)] {
        let program = kernel.build(1);
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::broad())
            .trials(200)
            .seed(seed)
            .jobs(4)
            .run(&program)
            .expect("campaign");
        assert_eq!(report.trials(), 200);
        for class in [FaultClass::PrimaryResult, FaultClass::RedundantResult] {
            let (det, total) = report.by_class(class);
            assert!(
                total > 0,
                "{kernel}: the broad mix must draw {class} trials"
            );
            assert_eq!(det, total, "{kernel}: every {class} fault must be detected");
        }
        for class in [
            FaultClass::PostCompare,
            FaultClass::CacheCell,
            FaultClass::PipelineControl,
        ] {
            let (det, total) = report.by_class(class);
            assert!(
                total > 0,
                "{kernel}: the broad mix must draw {class} trials"
            );
            assert_eq!(
                det, 0,
                "{kernel}: {class} faults are outside REESE's window"
            );
        }
        assert!(
            report.all_states_clean(),
            "{kernel}: recovery restores state"
        );
        let t = report.throughput.as_ref().expect("throughput recorded");
        assert_eq!(t.items(), 200);
        assert_eq!(t.jobs, 4);
    }
}
