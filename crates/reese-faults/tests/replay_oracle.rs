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
