//! Tracing must be invisible to the simulation.
//!
//! The `reese-trace` observer hooks are statically dispatched and
//! guarded by `Observer::ENABLED`; attaching a collecting [`Tracer`]
//! must change *nothing* about the simulated machine. Every result —
//! cycles, stats, output, state digest — has to be bit-identical with
//! tracing on and off, across every kernel, every scheme, and both
//! scheduler modes.

use reese::core::{DuplexSim, ReeseConfig, ReeseSim, SchedulerMode};
use reese::pipeline::{PipelineConfig, PipelineSim, RunSpec};
use reese::trace::{NoopObserver, Tracer};
use reese::workloads::Kernel;

/// Per-kernel instruction cap: long enough to exercise stalls, idle
/// skips, and several metrics intervals, short enough for debug builds.
const CAP: u64 = 15_000;

const MODES: [SchedulerMode; 2] = [SchedulerMode::Scan, SchedulerMode::EventDriven];

fn tracer() -> Tracer {
    Tracer::new().with_interval(1_000)
}

#[test]
fn baseline_results_identical_with_tracing_on() {
    for kernel in Kernel::ALL {
        let program = kernel.build(1);
        for mode in MODES {
            let cfg = PipelineConfig::starting().with_scheduler(mode);
            let plain = PipelineSim::new(cfg.clone())
                .simulate(RunSpec::new(&program).limit(CAP), &mut NoopObserver)
                .unwrap();
            let mut t = tracer();
            let traced = PipelineSim::new(cfg)
                .simulate(RunSpec::new(&program).limit(CAP), &mut t)
                .unwrap();
            assert_eq!(plain, traced, "{kernel}/{mode:?}: tracing changed baseline");
            t.finish();
            let (ring, metrics) = t.into_parts();
            assert!(!ring.is_empty(), "{kernel}/{mode:?}: empty trace ring");
            assert!(!metrics.rows.is_empty(), "{kernel}/{mode:?}: no metrics");
        }
    }
}

#[test]
fn reese_results_identical_with_tracing_on() {
    for kernel in Kernel::ALL {
        let program = kernel.build(1);
        for mode in MODES {
            let cfg = ReeseConfig::starting().with_scheduler(mode);
            let plain = ReeseSim::new(cfg.clone())
                .simulate(RunSpec::new(&program).limit(CAP), &mut NoopObserver)
                .unwrap();
            let mut t = tracer();
            let traced = ReeseSim::new(cfg)
                .simulate(RunSpec::new(&program).limit(CAP), &mut t)
                .unwrap();
            assert_eq!(plain, traced, "{kernel}/{mode:?}: tracing changed REESE");
            t.finish();
            let (ring, metrics) = t.into_parts();
            assert!(!ring.is_empty(), "{kernel}/{mode:?}: empty trace ring");
            assert!(!metrics.rows.is_empty(), "{kernel}/{mode:?}: no metrics");
        }
    }
}

#[test]
fn duplex_results_identical_with_tracing_on() {
    for kernel in Kernel::ALL {
        let program = kernel.build(1);
        for mode in MODES {
            let cfg = PipelineConfig::starting().with_scheduler(mode);
            let plain = DuplexSim::new(cfg.clone())
                .simulate(RunSpec::new(&program).limit(CAP), &mut NoopObserver)
                .unwrap();
            let mut t = tracer();
            let traced = DuplexSim::new(cfg)
                .simulate(RunSpec::new(&program).limit(CAP), &mut t)
                .unwrap();
            assert_eq!(plain, traced, "{kernel}/{mode:?}: tracing changed duplex");
            t.finish();
            let (ring, metrics) = t.into_parts();
            assert!(!ring.is_empty(), "{kernel}/{mode:?}: empty trace ring");
            assert!(!metrics.rows.is_empty(), "{kernel}/{mode:?}: no metrics");
        }
    }
}

#[test]
fn reese_traced_run_matches_under_spares_and_partial_duplication() {
    // The R-stream issue hooks live on both the scan and the
    // budget-capped event-driven paths; cover the configurations that
    // steer instructions through them differently.
    let program = Kernel::Lisp.build(1);
    for cfg in [
        ReeseConfig::starting().with_spare_int_alus(2),
        ReeseConfig::starting().with_rqueue_size(8),
        ReeseConfig::starting().with_duplication_period(3),
        ReeseConfig::starting().with_early_removal(true),
    ] {
        let plain = ReeseSim::new(cfg.clone())
            .simulate(RunSpec::new(&program).limit(CAP), &mut NoopObserver)
            .unwrap();
        let mut t = tracer();
        let traced = ReeseSim::new(cfg)
            .simulate(RunSpec::new(&program).limit(CAP), &mut t)
            .unwrap();
        assert_eq!(plain, traced, "tracing changed a tuned REESE run");
    }
}

/// The sampled `sched_ops` counter prices the event-driven machinery:
/// ReadyRing/EventWheel traffic plus R-stream front-window maintenance.
/// Scan mode maintains none of it and must report zero; event mode pays
/// a bounded, amortised-per-instruction cost — not the per-cycle
/// window-rescan cost (`cycles x lookahead`) the incremental front
/// window replaced.
#[test]
fn sched_ops_counter_proves_per_cycle_op_reduction() {
    let program = Kernel::Lisp.build(1);
    let mut totals = [0u64; 2];
    for (slot, mode) in MODES.into_iter().enumerate() {
        let cfg = ReeseConfig::starting().with_scheduler(mode);
        let mut t = tracer();
        let result = ReeseSim::new(cfg)
            .simulate(RunSpec::new(&program).limit(CAP), &mut t)
            .unwrap();
        t.finish();
        let (_, metrics) = t.into_parts();
        totals[slot] = metrics.rows.iter().map(|r| r.sched_ops).sum();
        if mode == SchedulerMode::Scan {
            assert_eq!(
                totals[slot], 0,
                "scan mode maintains no event structures, so it bills no sched-ops"
            );
        } else {
            let insns = result.committed_instructions();
            let cycles = result.stats.pipeline.cycles;
            assert!(totals[slot] > 0, "event mode must bill its bookkeeping");
            // Amortised constant per instruction: push + issue + complete
            // plus ReadyRing traffic and the rare window rebuilds.
            assert!(
                totals[slot] <= 12 * insns,
                "sched-ops {} exceed 12 per committed instruction ({insns})",
                totals[slot]
            );
            // Strictly cheaper than rescanning the lookahead window every
            // cycle, which is what the maintained front window replaced.
            let lookahead = 8;
            assert!(
                totals[slot] < cycles * lookahead,
                "sched-ops {} not below the per-cycle rescan cost {}",
                totals[slot],
                cycles * lookahead
            );
        }
    }
}

/// The schemes that have no sim of their own — MEEK's checker farm and
/// SWIFT's duplicated software stream — reach the observer hooks
/// through the campaign path. Sampling per-interval metrics there must
/// leave every scheme's outcomes bit-identical, or the memoized
/// unobserved fast path and the observed path would disagree.
#[test]
fn campaign_outcomes_identical_with_metrics_sampling_for_every_scheme() {
    use reese::ckpt::Scheme;
    use reese::faults::{Campaign, FaultMix, TrialEngine};
    let program = Kernel::Lisp.build(1);
    let cfg = ReeseConfig::starting();
    for scheme in Scheme::ALL {
        let base = Campaign::new(cfg.clone(), FaultMix::broad())
            .scheme(scheme)
            .trials(8)
            .seed(11)
            .max_instructions(CAP);
        let plain = base.clone().run(&program).unwrap();
        let sampled = base.clone().metrics_interval(500).run(&program).unwrap();
        assert_eq!(
            plain, sampled,
            "{scheme:?}: metrics sampling changed outcomes"
        );
        if plain
            .outcomes
            .iter()
            .any(|o| o.class.detectable_by_design())
        {
            assert!(
                sampled.metrics.is_some(),
                "{scheme:?}: simulated trials produced no pooled metrics"
            );
        }
        // Replay pools each trial's series from its fork's copy of the
        // clean pass's tracer; the Full arm runs every trial from its
        // anchor under a fresh one. The pooled CSV must not tell them
        // apart, on any worker count.
        let csv = sampled.metrics.as_ref().map(|m| m.to_csv());
        for (engine, jobs) in [(TrialEngine::Replay, 2), (TrialEngine::Full, 1)] {
            let other = base
                .clone()
                .metrics_interval(500)
                .engine(engine)
                .jobs(jobs)
                .run(&program)
                .unwrap();
            assert_eq!(other, sampled, "{scheme:?}: {engine} -j {jobs} outcomes");
            assert_eq!(
                other.metrics.as_ref().map(|m| m.to_csv()),
                csv,
                "{scheme:?}: {engine} -j {jobs} pooled metrics"
            );
        }
    }
}

#[test]
fn chrome_trace_export_is_wellformed_json() {
    let mut t = tracer();
    ReeseSim::new(ReeseConfig::starting())
        .simulate(RunSpec::new(&Kernel::Strings.build(1)).limit(CAP), &mut t)
        .unwrap();
    t.finish();
    let (ring, metrics) = t.into_parts();
    let json = ring.to_chrome_json();
    assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\""));
    let mjson = metrics.to_json();
    assert!(mjson.trim_start().starts_with('{') && mjson.trim_end().ends_with('}'));
    assert!(
        metrics.to_csv().lines().count() > 1,
        "CSV has header + rows"
    );
}
