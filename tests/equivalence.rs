//! The golden equivalence property: every kernel must produce identical
//! architectural results on the functional emulator, the baseline
//! out-of-order pipeline, and the REESE machine (in both RUU-removal
//! modes) — the timing models may disagree about *when*, never about
//! *what*.

use reese::ckpt::checkpoints_at;
use reese::core::{ReeseConfig, ReeseSim};
use reese::cpu::Emulator;
use reese::pipeline::{PipelineConfig, PipelineSim, RunSpec};
use reese::trace::NoopObserver;
use reese::workloads::Kernel;

#[test]
fn all_kernels_agree_across_all_three_machines() {
    for kernel in Kernel::ALL {
        let program = kernel.build(1);
        let emu = Emulator::new(&program)
            .run(u64::MAX)
            .expect("emulator halts");
        let base = PipelineSim::new(PipelineConfig::starting())
            .run(&program)
            .unwrap_or_else(|e| panic!("{kernel} baseline: {e}"));
        let reese = ReeseSim::new(ReeseConfig::starting())
            .run(&program)
            .unwrap_or_else(|e| panic!("{kernel} REESE: {e}"));
        let reese_early = ReeseSim::new(ReeseConfig::starting().with_early_removal(true))
            .run(&program)
            .unwrap_or_else(|e| panic!("{kernel} REESE/early: {e}"));

        assert_eq!(
            base.committed_instructions(),
            emu.instructions,
            "{kernel}: baseline count"
        );
        assert_eq!(
            reese.committed_instructions(),
            emu.instructions,
            "{kernel}: REESE count"
        );
        assert_eq!(
            reese_early.committed_instructions(),
            emu.instructions,
            "{kernel}: REESE/early count"
        );
        assert_eq!(base.output, emu.output, "{kernel}: baseline output");
        assert_eq!(reese.output, emu.output, "{kernel}: REESE output");
        assert_eq!(
            base.state_digest, emu.state_digest,
            "{kernel}: baseline digest"
        );
        assert_eq!(
            reese.state_digest, emu.state_digest,
            "{kernel}: REESE digest"
        );
        assert_eq!(
            reese_early.state_digest, emu.state_digest,
            "{kernel}: early digest"
        );
    }
}

#[test]
fn reese_compares_every_committed_instruction() {
    for kernel in Kernel::ALL {
        let program = kernel.build(1);
        let r = ReeseSim::new(ReeseConfig::starting())
            .run(&program)
            .expect("runs");
        assert_eq!(
            r.stats.comparisons,
            r.committed_instructions(),
            "{kernel}: full duplication means one comparison per commit"
        );
        assert_eq!(
            r.stats.r_skipped, 0,
            "{kernel}: nothing skipped at period 1"
        );
        assert!(
            r.detections.is_empty(),
            "{kernel}: no faults, no detections"
        );
    }
}

#[test]
fn redundancy_is_never_faster_than_baseline_on_the_same_hardware() {
    for kernel in Kernel::ALL {
        let program = kernel.build(1);
        let base = PipelineSim::new(PipelineConfig::starting())
            .run(&program)
            .expect("runs");
        let reese = ReeseSim::new(ReeseConfig::starting())
            .run(&program)
            .expect("runs");
        assert!(
            reese.cycles() >= base.cycles(),
            "{kernel}: REESE {} cycles < baseline {} cycles",
            reese.cycles(),
            base.cycles()
        );
    }
}

#[test]
fn runs_are_bit_identical_across_repeats() {
    let program = Kernel::Gameplay.build(1);
    let a = ReeseSim::new(ReeseConfig::starting())
        .run(&program)
        .expect("runs");
    let b = ReeseSim::new(ReeseConfig::starting())
        .run(&program)
        .expect("runs");
    assert_eq!(a, b, "simulation must be deterministic");
}

#[test]
fn instruction_limited_runs_agree_on_prefix_behaviour() {
    let program = Kernel::Strings.build(2);
    let base = PipelineSim::new(PipelineConfig::starting())
        .simulate(RunSpec::new(&program).limit(20_000), &mut NoopObserver)
        .expect("runs");
    let reese = ReeseSim::new(ReeseConfig::starting())
        .simulate(RunSpec::new(&program).limit(20_000), &mut NoopObserver)
        .expect("runs");
    assert!(base.committed_instructions() >= 20_000);
    assert!(reese.committed_instructions() >= 20_000);
    // Both machines committed the same program prefix, so any output
    // emitted so far must agree.
    assert_eq!(base.output, reese.output);
}

#[test]
fn fp_workload_agrees_across_machines() {
    let program = reese::workloads::extras::floatmath(1);
    let emu = Emulator::new(&program).run(u64::MAX).expect("halts");
    let base = PipelineSim::new(PipelineConfig::starting())
        .run(&program)
        .expect("runs");
    let reese = ReeseSim::new(ReeseConfig::starting())
        .run(&program)
        .expect("runs");
    assert_eq!(base.state_digest, emu.state_digest);
    assert_eq!(reese.state_digest, emu.state_digest);
    assert_eq!(base.output, emu.output);
    assert_eq!(reese.output, emu.output);
    // The FP units must actually have been used.
    let fp_busy: f64 = base
        .stats
        .fu_utilisation
        .iter()
        .filter(|(c, _)| {
            matches!(
                c,
                reese::isa::FuClass::FpAlu | reese::isa::FuClass::FpMulDiv
            )
        })
        .map(|(_, u)| *u)
        .sum();
    assert!(fp_busy > 0.01, "FP units idle on an FP workload");
}

#[test]
fn warm_skip_preserves_architectural_results() {
    let program = reese::workloads::Kernel::Compiler.build(1);
    let full = PipelineSim::new(PipelineConfig::starting())
        .run(&program)
        .expect("runs");
    let total = full.committed_instructions();
    let skip = total / 2;
    // Timing starts at the continuous-warm checkpoint `reese run --skip`
    // starts from.
    let ck = checkpoints_at(&program, &[skip], &PipelineConfig::starting())
        .expect("reaches the skip point")
        .pop()
        .expect("one boundary");
    let region = PipelineSim::new(PipelineConfig::starting())
        .simulate(
            RunSpec::restored(ck.restore(&program), ck.warm.as_ref()),
            &mut NoopObserver,
        )
        .expect("runs");
    // The timed region commits exactly the remaining instructions and
    // lands on the same final architectural state.
    assert_eq!(region.committed_instructions(), total - skip);
    assert_eq!(region.state_digest, full.state_digest);
    assert!(
        region.cycles() < full.cycles(),
        "skipping work must save cycles"
    );

    let reese_region = ReeseSim::new(ReeseConfig::starting())
        .simulate(
            RunSpec::restored(ck.restore(&program), ck.warm.as_ref()),
            &mut NoopObserver,
        )
        .expect("runs");
    assert_eq!(reese_region.committed_instructions(), total - skip);
    assert_eq!(reese_region.state_digest, full.state_digest);
}

#[test]
fn sorting_workload_agrees_across_machines() {
    // Quicksort's data-dependent control flow is the hardest stress for
    // the replay window and LSQ forwarding paths.
    let program = reese::workloads::extras::sorting(1);
    let emu = Emulator::new(&program).run(u64::MAX).expect("halts");
    let base = PipelineSim::new(PipelineConfig::starting())
        .run(&program)
        .expect("runs");
    let reese = ReeseSim::new(ReeseConfig::starting())
        .run(&program)
        .expect("runs");
    assert_eq!(base.state_digest, emu.state_digest);
    assert_eq!(reese.state_digest, emu.state_digest);
    assert_eq!(base.output, emu.output);
    assert_eq!(reese.output, emu.output);
    assert!(
        base.stats.loads_forwarded > 0,
        "the range stack must forward"
    );
}
