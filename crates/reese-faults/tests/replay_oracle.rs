//! The trial-exactness oracle for checkpoint-anchored replay.
//!
//! `TrialEngine::Full` recomputes every trial from scratch — anchor
//! state re-derived from instruction 0, clean window re-run, nothing
//! shared between trials. `TrialEngine::Replay` reuses the one
//! checkpoint sweep, caches clean-window baselines, and memoizes
//! duplicate fault keys. The two arms must produce identical
//! `TrialOutcome` sequences and byte-identical `CoverageReport`
//! serialisations on every kernel, every fault class, any worker
//! count, with or without interrupt+resume — that identity certifies
//! the entire reuse machinery against the from-scratch computation.

use reese_ckpt::Scheme;
use reese_core::{ReeseConfig, SchedulerMode};
use reese_faults::{Campaign, FaultMix, TrialEngine};
use reese_workloads::Kernel;

const TARGET: u64 = 12_000;

fn campaign(mix: FaultMix, seed: u64) -> Campaign {
    Campaign::new(ReeseConfig::starting(), mix)
        .trials(10)
        .seed(seed)
}

#[test]
fn replay_matches_full_on_every_kernel() {
    for kernel in Kernel::ALL {
        let program = kernel.build_for(TARGET);
        let full = campaign(FaultMix::broad(), 0xA5)
            .engine(TrialEngine::Full)
            .run(&program)
            .unwrap();
        let replay = campaign(FaultMix::broad(), 0xA5)
            .engine(TrialEngine::Replay)
            .jobs(4)
            .run(&program)
            .unwrap();
        assert_eq!(replay, full, "{}", kernel.name());
        assert_eq!(replay.to_json(), full.to_json(), "{}", kernel.name());
        assert_eq!(replay.to_csv(), full.to_csv(), "{}", kernel.name());
    }
}

#[test]
fn replay_matches_full_on_result_only_mix() {
    // Every trial simulates under this mix, so each one crosses the
    // restore/baseline/memo path.
    let program = Kernel::Strings.build_for(TARGET);
    let full = campaign(FaultMix::result_errors_only(), 0x51)
        .engine(TrialEngine::Full)
        .run(&program)
        .unwrap();
    let replay = campaign(FaultMix::result_errors_only(), 0x51)
        .engine(TrialEngine::Replay)
        .run(&program)
        .unwrap();
    assert_eq!(replay, full);
    assert_eq!(replay.to_json(), full.to_json());
}

#[test]
fn replay_matches_full_when_the_sweep_thins() {
    // A small checkpoint interval forces far more boundaries than the
    // sweep keeps resident, so every anchor is derived from a coarse
    // checkpoint — the derivation path must stay invisible.
    let program = Kernel::Imaging.build_for(TARGET);
    let full = campaign(FaultMix::broad(), 0x77)
        .engine(TrialEngine::Full)
        .ckpt_every(64)
        .run(&program)
        .unwrap();
    let replay = campaign(FaultMix::broad(), 0x77)
        .engine(TrialEngine::Replay)
        .ckpt_every(64)
        .jobs(4)
        .run(&program)
        .unwrap();
    assert_eq!(replay, full);
    assert_eq!(replay.to_json(), full.to_json());
}

#[test]
fn replay_matches_full_for_every_scheme() {
    // The anchored-window reuse machinery is scheme-generic: for every
    // registered backend — including the program-transforming software
    // scheme, whose checkpoints index the *prepared* stream — the
    // replay engine must reproduce the from-scratch arm byte for byte.
    let program = Kernel::Strings.build_for(TARGET);
    for scheme in Scheme::ALL {
        let full = campaign(FaultMix::broad(), 0x9E)
            .scheme(scheme)
            .engine(TrialEngine::Full)
            .run(&program)
            .unwrap();
        let replay = campaign(FaultMix::broad(), 0x9E)
            .scheme(scheme)
            .engine(TrialEngine::Replay)
            .jobs(4)
            .run(&program)
            .unwrap();
        assert_eq!(replay, full, "{scheme}");
        assert_eq!(replay.to_json(), full.to_json(), "{scheme}");
        assert_eq!(replay.to_csv(), full.to_csv(), "{scheme}");
    }
}

#[test]
fn replay_worker_count_is_invisible_on_kernels() {
    let program = Kernel::Database.build_for(TARGET);
    let run = |jobs: usize| {
        campaign(FaultMix::broad(), 7)
            .engine(TrialEngine::Replay)
            .jobs(jobs)
            .run(&program)
            .unwrap()
    };
    let serial = run(1);
    assert_eq!(run(4), serial);
}

#[test]
fn interrupted_and_resumed_replay_matches_uninterrupted_full() {
    let dir = std::env::temp_dir().join(format!("reese-oracle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("campaign.jsonl");
    let program = Kernel::Gameplay.build_for(TARGET);

    let full = campaign(FaultMix::broad(), 0xC3)
        .engine(TrialEngine::Full)
        .run(&program)
        .unwrap();
    let partial = campaign(FaultMix::broad(), 0xC3)
        .engine(TrialEngine::Replay)
        .outcomes_jsonl(&log)
        .trial_limit(5)
        .run(&program)
        .unwrap();
    assert_eq!(partial.trials(), 5, "interrupted at half the campaign");
    let resumed = campaign(FaultMix::broad(), 0xC3)
        .engine(TrialEngine::Replay)
        .jobs(2)
        .resume(&log)
        .run(&program)
        .unwrap();
    assert_eq!(resumed, full);
    assert_eq!(resumed.to_json(), full.to_json());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replay_matches_full_with_many_keys_per_window() {
    // Replay scores a window's keys by forking each faulted run from the
    // window's one clean pass. The smallest database kernel runs 4,552
    // instructions (9,943 once SWIFT hardens it), so at a 4,096-
    // instruction interval it has two to five anchored windows, the
    // last run to halt; 20 result-error trials put five keys or more on
    // each on average, so many forks come off one clean machine.
    let program = Kernel::Database.build(1);
    let run = |config: ReeseConfig, scheme: Scheme, engine: TrialEngine| {
        Campaign::new(config, FaultMix::result_errors_only())
            .scheme(scheme)
            .trials(20)
            .seed(0x5EED)
            .engine(engine)
            .ckpt_every(4096)
            .jobs(2)
            .run(&program)
            .unwrap()
    };
    for scheme in Scheme::ALL {
        let full = run(ReeseConfig::starting(), scheme, TrialEngine::Full);
        let replay = run(ReeseConfig::starting(), scheme, TrialEngine::Replay);
        assert_eq!(replay, full, "{scheme}");
        assert_eq!(replay.to_json(), full.to_json(), "{scheme}");
    }
    // Scan clones the array-of-structs window, which the event-driven
    // default never does.
    let scan = ReeseConfig::starting().with_scheduler(SchedulerMode::Scan);
    let full = run(scan.clone(), Scheme::Reese, TrialEngine::Full);
    let replay = run(scan, Scheme::Reese, TrialEngine::Replay);
    assert_eq!(replay, full, "reese under Scan");
    assert_eq!(replay.to_json(), full.to_json(), "reese under Scan");
}

#[test]
fn forks_observe_what_run_trial_observes() {
    // Each fork of `run_window_trials` starts from a clone of the clean
    // pass's observers at its fork point. Observers are passive, so a
    // fork must end holding exactly what `run_trial` records running
    // the same key from the same anchor under the same observer. The
    // smallest database kernel runs 4,552 instructions (9,943 once
    // SWIFT hardens it): one window from instruction 0 stops at its
    // budget, one from 2,048 runs to halt. Each carries a repeated key,
    // a redundant-class key (MEEK's checker-side upset), and for every
    // scheme a key whose faulted run departs from the clean one.
    use reese_ckpt::checkpoints_at;
    use reese_cpu::Emulator;
    use reese_faults::schemes::{self, Observers};
    use reese_faults::{FaultClass, Trial, WindowBaseline};
    use reese_trace::{DeepLog, Tracer};

    let (p, r) = (FaultClass::PrimaryResult, FaultClass::RedundantResult);
    let program = Kernel::Database.build(1);
    let config = ReeseConfig::starting();
    let tracer = || Tracer::new().with_interval(250);
    let finished = |mut t: Tracer| {
        t.finish();
        t.into_parts()
    };
    for scheme in Scheme::ALL {
        let backend = schemes::build(scheme, &config);
        let prepared = backend.prepare(&program).unwrap();
        let len = Emulator::new(&prepared).run(u64::MAX).unwrap().instructions;
        let windows = [
            (
                0,
                3_072,
                vec![
                    (p, 700, 3),
                    (r, 1_200, 17),
                    (p, 700, 3),
                    (p, 900, 0),
                    (p, 2_500, 40),
                ],
            ),
            (
                2_048,
                len,
                vec![
                    (r, len - 400, 9),
                    (p, len - 300, 0),
                    (p, len - 150, 33),
                    (p, len - 150, 33),
                ],
            ),
        ];
        for (anchor, budget, keys) in windows {
            let ck = checkpoints_at(&prepared, &[anchor], &config.pipeline)
                .unwrap()
                .pop()
                .unwrap();
            for (traced, logged) in [(true, true), (true, false), (false, true)] {
                let observers = Observers {
                    tracer: traced.then(tracer),
                    log: logged.then(DeepLog::new),
                };
                let window = backend
                    .run_window_trials(&prepared, &ck, budget, &keys, observers)
                    .unwrap();
                let baseline = WindowBaseline::from(&window.clean);
                for (&(class, seq, bit), forked) in keys.iter().zip(window.trials) {
                    let (outcome, fork) = forked.unwrap();
                    let mut t = traced.then(tracer);
                    let mut log = logged.then(DeepLog::new);
                    let alone = backend
                        .run_trial(Trial {
                            program: &prepared,
                            ck: &ck,
                            baseline: &baseline,
                            class,
                            seq,
                            bit,
                            budget,
                            tracer: t.as_mut(),
                            probe: log.as_mut(),
                        })
                        .unwrap();
                    let key = format!("{scheme} {class} seq {seq} from {anchor}");
                    assert_eq!(outcome, alone, "{key}: outcome");
                    assert_eq!(fork.log, log, "{key}: deep log");
                    assert_eq!(fork.tracer.map(finished), t.map(finished), "{key}: tracer");
                }
            }
        }
    }
}
