//! Scan vs event-driven scheduler equivalence.
//!
//! The event-driven cycle loop (ready queue + completion wheels + idle
//! skipping) is an implementation change only: on every workload kernel
//! and every machine model it must produce results — including every
//! per-cycle statistic — bit-identical to the per-cycle scan it
//! replaced.

use reese::ckpt::{checkpoints_at, Checkpoint, Scheme};
use reese::core::{DuplexSim, Faults, InjectedFault, ReeseConfig, ReeseSim, SchedulerMode};
use reese::cpu::Emulator;
use reese::faults::schemes::{self, Observers, SchemeStats};
use reese::faults::{Campaign, FaultMix, SchemeRun};
use reese::isa::Program;
use reese::pipeline::{PipelineConfig, PipelineSim, RunSpec};
use reese::trace::{MetricsSeries, NoopObserver, TraceRing, Tracer};
use reese::workloads::Kernel;

fn scan_pipeline() -> PipelineConfig {
    PipelineConfig::starting().with_scheduler(SchedulerMode::Scan)
}

fn event_pipeline() -> PipelineConfig {
    PipelineConfig::starting().with_scheduler(SchedulerMode::EventDriven)
}

#[test]
fn baseline_modes_agree_on_all_kernels() {
    for kernel in Kernel::ALL {
        let program = kernel.build(1);
        let scan = PipelineSim::new(scan_pipeline()).run(&program).unwrap();
        let event = PipelineSim::new(event_pipeline()).run(&program).unwrap();
        assert_eq!(scan, event, "{kernel}: baseline modes diverged");
    }
}

#[test]
fn reese_modes_agree_on_all_kernels() {
    for kernel in Kernel::ALL {
        let program = kernel.build(1);
        let scan = ReeseSim::new(ReeseConfig::starting().with_scheduler(SchedulerMode::Scan))
            .run(&program)
            .unwrap();
        let event =
            ReeseSim::new(ReeseConfig::starting().with_scheduler(SchedulerMode::EventDriven))
                .run(&program)
                .unwrap();
        assert_eq!(scan, event, "{kernel}: REESE modes diverged");
    }
}

#[test]
fn reese_modes_agree_with_spares_and_partial_duplication() {
    // Exercise the R-priority path (tiny queue, low high-water mark) and
    // the skip_r bookkeeping in both modes.
    let program = Kernel::Lisp.build(1);
    for cfg in [
        ReeseConfig::starting().with_spare_int_alus(2),
        ReeseConfig::starting().with_rqueue_size(8),
        ReeseConfig::starting().with_duplication_period(3),
        ReeseConfig::starting().with_early_removal(true),
    ] {
        let scan = ReeseSim::new(cfg.clone().with_scheduler(SchedulerMode::Scan))
            .run(&program)
            .unwrap();
        let event = ReeseSim::new(cfg.clone().with_scheduler(SchedulerMode::EventDriven))
            .run(&program)
            .unwrap();
        assert_eq!(scan, event, "modes diverged on {cfg:?}");
    }
}

#[test]
fn r_issue_accounting_agrees_and_is_exercised() {
    // `r_tried` / `r_missed` used to be metrics-only (machine-local, not
    // part of result equality), so the event scheduler could drift from
    // the scan without any oracle noticing. They now live in
    // `ReeseStats` and must match bit-for-bit — including the bulk
    // accounting performed for skipped idle cycles. A contended machine
    // (narrow pipeline, one spare-less FU pool, big queue) guarantees
    // misses actually occur, so the assertion is not vacuous.
    let program = Kernel::Imaging.build(1);
    let cfg = ReeseConfig::starting().with_rqueue_size(64);
    let scan = ReeseSim::new(cfg.clone().with_scheduler(SchedulerMode::Scan))
        .run(&program)
        .unwrap();
    let event = ReeseSim::new(cfg.with_scheduler(SchedulerMode::EventDriven))
        .run(&program)
        .unwrap();
    assert_eq!(
        (scan.stats.r_tried, scan.stats.r_missed),
        (event.stats.r_tried, event.stats.r_missed),
        "R-issue accounting diverged across modes"
    );
    assert!(scan.stats.r_tried > 0, "workload never exercised R issue");
    assert!(
        scan.stats.r_missed > 0,
        "workload too idle: no missed R-issue opportunities to compare"
    );
    assert_eq!(
        scan.stats.r_tried - scan.stats.r_issued,
        scan.stats.r_missed,
        "tried/issued/missed must stay internally consistent"
    );
    assert_eq!(scan, event);
}

#[test]
fn duplex_modes_agree_on_all_kernels() {
    for kernel in Kernel::ALL {
        let program = kernel.build(1);
        let scan = DuplexSim::new(scan_pipeline()).run(&program).unwrap();
        let event = DuplexSim::new(event_pipeline()).run(&program).unwrap();
        assert_eq!(scan, event, "{kernel}: duplex modes diverged");
    }
}

#[test]
fn skipped_runs_agree_across_modes() {
    // A warm checkpoint starts the timing core mid-program; both
    // redundant machines run from there with faults on both sides of
    // the skip point (the earlier one never fires).
    let program = Kernel::Lisp.build(1);
    let faults = [
        InjectedFault::primary(3_000, 3),
        InjectedFault::primary(6_000, 3),
        InjectedFault::redundant(9_000, 60),
    ];
    let ck = checkpoints_at(&program, &[5_000], &PipelineConfig::starting())
        .unwrap()
        .pop()
        .unwrap();
    let spec = || RunSpec::restored(ck.restore(&program), ck.warm.as_ref()).limit(20_000);
    let duplex = |mode| {
        DuplexSim::new(PipelineConfig::starting().with_scheduler(mode))
            .simulate(spec().faults(&faults[..]), &mut NoopObserver)
            .unwrap()
    };
    let (scan, event) = (
        duplex(SchedulerMode::Scan),
        duplex(SchedulerMode::EventDriven),
    );
    assert_eq!(
        scan, event,
        "duplex with skip and faults diverged across modes"
    );
    assert_eq!(event.stats.detections, 2);
    let reese = |mode| {
        ReeseSim::new(ReeseConfig::starting().with_scheduler(mode))
            .simulate(spec().faults(Faults::Latch(&faults)), &mut NoopObserver)
            .unwrap()
    };
    let (scan, event) = (
        reese(SchedulerMode::Scan),
        reese(SchedulerMode::EventDriven),
    );
    assert_eq!(
        scan, event,
        "REESE with skip and faults diverged across modes"
    );
    assert_eq!(event.stats.detections, 2);
}

#[test]
fn trait_backends_match_direct_simulators_on_all_kernels() {
    // The DetectionScheme refactor must be a pure re-plumbing: the
    // baseline/reese/duplex backends are the same machines the CLI and
    // campaign drove directly before the trait existed, so their clean
    // runs must agree with the direct simulators field for field, in
    // both scheduler modes, on every kernel.
    for mode in [SchedulerMode::Scan, SchedulerMode::EventDriven] {
        let cfg = ReeseConfig::starting().with_scheduler(mode);
        for kernel in Kernel::ALL {
            let program = kernel.build(1);

            let direct = PipelineSim::new(cfg.pipeline.clone())
                .run(&program)
                .unwrap();
            let via = schemes::build(Scheme::Baseline, &cfg)
                .run_limit(&program, u64::MAX)
                .unwrap();
            assert_eq!(
                (via.cycles, via.committed, &via.output, via.state_digest),
                (
                    direct.stats.cycles,
                    direct.stats.committed,
                    &direct.output,
                    direct.state_digest
                ),
                "{kernel}/{mode:?}: baseline trait run diverged"
            );

            let direct = ReeseSim::new(cfg.clone()).run(&program).unwrap();
            let via = schemes::build(Scheme::Reese, &cfg)
                .run_limit(&program, u64::MAX)
                .unwrap();
            assert_eq!(
                (via.cycles, via.committed, &via.output, via.state_digest),
                (
                    direct.cycles(),
                    direct.committed_instructions(),
                    &direct.output,
                    direct.state_digest
                ),
                "{kernel}/{mode:?}: REESE trait run diverged"
            );

            let direct = DuplexSim::new(cfg.pipeline.clone()).run(&program).unwrap();
            let via = schemes::build(Scheme::Duplex, &cfg)
                .run_limit(&program, u64::MAX)
                .unwrap();
            assert_eq!(
                (via.cycles, via.committed, &via.output, via.state_digest),
                (
                    direct.cycles(),
                    direct.committed_instructions(),
                    &direct.output,
                    direct.state_digest
                ),
                "{kernel}/{mode:?}: duplex trait run diverged"
            );

            // The window the sharded driver times: from a mid-run
            // frame, under a budget and a tracer, each backend's clean
            // window is the direct simulator's restored run, tracer
            // included.
            let n = Emulator::new(&program).run(u64::MAX).unwrap().instructions;
            let budget = n / 4;
            let ck = &checkpoints_at(&program, &[n / 2], &cfg.pipeline).unwrap()[0];
            let window = |scheme| {
                let observers = Observers {
                    tracer: Some(tracer()),
                    log: None,
                };
                let w = schemes::build(scheme, &cfg)
                    .run_window_trials(&program, Some(ck), budget, &[], observers)
                    .unwrap();
                (w.clean, parts(w.observers.tracer.unwrap()))
            };
            let mut t = tracer();
            let direct = PipelineSim::new(cfg.pipeline.clone())
                .simulate(window_spec(&program, ck, budget), &mut t)
                .unwrap();
            let (via, observed) = window(Scheme::Baseline);
            assert_eq!(
                via,
                SchemeRun::from(direct),
                "{kernel}/{mode:?}: baseline window diverged"
            );
            assert!(!observed.0.is_empty() && !observed.1.rows.is_empty());
            assert_eq!(
                observed,
                parts(t),
                "{kernel}/{mode:?}: baseline window trace"
            );

            let mut t = tracer();
            let direct = ReeseSim::new(cfg.clone())
                .simulate(window_spec(&program, ck, budget), &mut t)
                .unwrap();
            let (via, observed) = window(Scheme::Reese);
            assert_eq!(
                via,
                SchemeRun::from(direct),
                "{kernel}/{mode:?}: REESE window diverged"
            );
            assert_eq!(observed, parts(t), "{kernel}/{mode:?}: REESE window trace");

            let mut t = tracer();
            let direct = DuplexSim::new(cfg.pipeline.clone())
                .simulate(window_spec(&program, ck, budget), &mut t)
                .unwrap();
            let (via, observed) = window(Scheme::Duplex);
            assert_eq!(
                via,
                SchemeRun::from(direct),
                "{kernel}/{mode:?}: duplex window diverged"
            );
            assert_eq!(observed, parts(t), "{kernel}/{mode:?}: duplex window trace");

            // From the program start, each backend's window is the
            // direct simulator's run from `RunSpec::new`: the run, its
            // statistics, and the tracer's ring and metrics.
            let start = |scheme| {
                let observers = Observers {
                    tracer: Some(tracer()),
                    log: None,
                };
                let w = schemes::build(scheme, &cfg)
                    .run_window_trials(&program, None, budget, &[], observers)
                    .unwrap();
                (w.clean, w.stats, parts(w.observers.tracer.unwrap()))
            };
            let mut t = tracer();
            let direct = PipelineSim::new(cfg.pipeline.clone())
                .simulate(RunSpec::new(&program).limit(budget), &mut t)
                .unwrap();
            let stats = SchemeStats::Pipeline(Box::new(direct.stats.clone()));
            assert_eq!(
                start(Scheme::Baseline),
                (SchemeRun::from(direct), stats, parts(t)),
                "{kernel}/{mode:?}: baseline from the program start"
            );
            let mut t = tracer();
            let direct = ReeseSim::new(cfg.clone())
                .simulate(RunSpec::new(&program).limit(budget), &mut t)
                .unwrap();
            let stats = SchemeStats::Reese(Box::new(direct.stats.clone()));
            assert_eq!(
                start(Scheme::Reese),
                (SchemeRun::from(direct), stats, parts(t)),
                "{kernel}/{mode:?}: REESE from the program start"
            );
            let mut t = tracer();
            let direct = DuplexSim::new(cfg.pipeline.clone())
                .simulate(RunSpec::new(&program).limit(budget), &mut t)
                .unwrap();
            let stats = SchemeStats::Reese(Box::new(direct.stats.clone()));
            assert_eq!(
                start(Scheme::Duplex),
                (SchemeRun::from(direct), stats, parts(t)),
                "{kernel}/{mode:?}: duplex from the program start"
            );
        }
    }
}

/// The restored run of a window: `budget` commits from `ck`.
fn window_spec<'a, F: Default>(
    program: &Program,
    ck: &'a Checkpoint,
    budget: u64,
) -> RunSpec<'a, F> {
    RunSpec::restored(ck.restore(program), ck.warm.as_ref()).limit(budget)
}

fn tracer() -> Tracer {
    Tracer::new().with_interval(1_000)
}

/// A finished tracer's event ring and metrics series.
fn parts(mut t: Tracer) -> (TraceRing, MetricsSeries) {
    t.finish();
    t.into_parts()
}

#[test]
fn campaigns_agree_across_modes_for_every_scheme() {
    // The scheduler mode is a timing-implementation detail; every
    // registered backend (including the ones that run the baseline
    // pipeline under the hood) must report identical campaigns in both.
    let program = Kernel::Strings.build(1);
    for scheme in Scheme::ALL {
        let run = |mode| {
            Campaign::new(
                ReeseConfig::starting().with_scheduler(mode),
                FaultMix::result_errors_only(),
            )
            .scheme(scheme)
            .trials(12)
            .seed(0xFA017)
            .max_instructions(5_000)
            .jobs(2)
            .run(&program)
            .unwrap()
        };
        let scan = run(SchedulerMode::Scan);
        let event = run(SchedulerMode::EventDriven);
        assert_eq!(scan, event, "{scheme}: campaign diverged across modes");
        assert_eq!(
            scan.to_csv(),
            event.to_csv(),
            "{scheme}: serialisation diverged across modes"
        );
    }
}

#[test]
fn fault_campaign_reports_agree_across_modes() {
    // A full injection campaign drives detection flushes at arbitrary
    // points; the per-trial outcomes (detection, latency, recovery
    // cycles, state cleanliness) must be identical in both modes.
    let program = Kernel::Strings.build(1);
    let run = |mode| {
        Campaign::new(
            ReeseConfig::starting().with_scheduler(mode),
            FaultMix::broad(),
        )
        .trials(40)
        .seed(0xFA017)
        .max_instructions(5_000)
        .jobs(2)
        .run(&program)
        .unwrap()
    };
    let scan = run(SchedulerMode::Scan);
    let event = run(SchedulerMode::EventDriven);
    assert_eq!(scan, event, "campaign reports diverged across modes");
    assert!(event.trials() == 40);
}
