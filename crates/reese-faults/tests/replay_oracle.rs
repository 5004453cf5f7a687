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
    // default never does. Early removal keeps instructions in the
    // R-stream Queue after their RUU entries free, which lets the front
    // end run further ahead of commit.
    let scan = ReeseConfig::starting().with_scheduler(SchedulerMode::Scan);
    let early = ReeseConfig::starting().with_early_removal(true);
    for (config, name) in [(scan, "Scan"), (early, "early removal")] {
        let full = run(config.clone(), Scheme::Reese, TrialEngine::Full);
        let replay = run(config, Scheme::Reese, TrialEngine::Replay);
        assert_eq!(replay, full, "reese under {name}");
        assert_eq!(replay.to_json(), full.to_json(), "reese under {name}");
    }
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

/// How a result fault's stream relates to the clean one over a window,
/// by the distinctions the functional screen in `run_window_trials`
/// draws, decided here from the two streams alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The target writes no register, so the flip is masked at once.
    NoWrite,
    /// Registers and memory rejoin the clean stream.
    Reconverged,
    /// Still different, unseen by the timing core, at the frontier of
    /// a budget-limited window.
    UnseenToFrontier,
    /// Still different, unseen, at the halt: the final registers differ.
    UnseenToHalt,
    /// The registers rejoin while a stored byte still differs, and the
    /// timing core sees the difference later.
    MemoryLingers,
    /// A printed value differs, and no other field the core reads.
    PrintedOnly,
    /// Another field the core reads differs, or a stream fails.
    Forks,
}

impl Kind {
    const ALL: [Kind; 7] = [
        Kind::NoWrite,
        Kind::Reconverged,
        Kind::UnseenToFrontier,
        Kind::UnseenToHalt,
        Kind::MemoryLingers,
        Kind::PrintedOnly,
        Kind::Forks,
    ];

    /// Whether the screen leaves a key of this kind its fork.
    fn forks(self) -> bool {
        matches!(self, Kind::MemoryLingers | Kind::PrintedOnly | Kind::Forks)
    }

    /// Walks a flip of `bit` at the next instruction `walker` executes
    /// against the clean stream, up to `frontier` or the halt. `None`
    /// for a stream still unseen at its end whose registers rejoined
    /// while memory differed: its outcome cannot show the difference.
    fn of(walker: &reese_cpu::Emulator, bit: u8, frontier: u64) -> Option<Kind> {
        use reese_cpu::StepInfo;
        use reese_pipeline::same_timing;
        let seq = walker.instructions();
        let (mut clean, mut faulted) = (walker.clone(), walker.clone());
        faulted.inject_result_fault(seq, bit);
        let (mut printed, mut memory) = (false, false);
        while clean.instructions() < frontier {
            let (Ok(c), Ok(f)) = (clean.step(), faulted.step()) else {
                return Some(Kind::Forks);
            };
            if clean.instructions() == seq + 1 && !c.wrote_rd {
                return Some(Kind::NoWrite);
            }
            let unprinted = |i: &StepInfo| StepInfo {
                printed: None,
                ..*i
            };
            if !same_timing(&unprinted(&c), &unprinted(&f)) {
                return Some(if memory {
                    Kind::MemoryLingers
                } else {
                    Kind::Forks
                });
            }
            printed |= c.printed != f.printed;
            if clean.state() == faulted.state() {
                if clean.memory() == faulted.memory() {
                    return Some(if printed {
                        Kind::PrintedOnly
                    } else {
                        Kind::Reconverged
                    });
                }
                memory = true;
            }
            if c.halted {
                break;
            }
        }
        match (printed, memory, clean.exit_code()) {
            (true, _, _) => Some(Kind::PrintedOnly),
            (false, true, _) => None,
            (false, false, Some(_)) => Some(Kind::UnseenToHalt),
            (false, false, None) => Some(Kind::UnseenToFrontier),
        }
    }
}

#[test]
fn screened_keys_score_as_their_forks() {
    // Baseline, SWIFT and MEEK screen each primary key with the
    // functional emulator and fork a detailed machine only for a key
    // whose faulted stream can change what the timing core sees. Keys
    // are picked here by walking both streams, one of each kind per
    // window where the window has one. Each must score, tracer and
    // deep log included, exactly as `run_trial` from the same anchor:
    // a screened key from the clean pass (with the faulted register
    // digest when its stream reaches the halt), the rest from forks.
    use reese_ckpt::checkpoints_at;
    use reese_cpu::Emulator;
    use reese_faults::schemes::{self, Observers};
    use reese_faults::{FaultClass, Trial, WindowBaseline};
    use reese_trace::{DeepLog, Tracer};

    let database = Kernel::Database.build(1);
    // Squares stored in one loop and read back in another, where each
    // parity steers a branch: a flipped square is stored while every
    // register rejoins the clean stream, and the timing core sees it
    // only when it is loaded again.
    let squares = reese_isa::assemble(
        "  la a0, buf\n  li t0, 0\n  li t1, 64\n\
         fill: mul t2, t0, t0\n  slli t3, t0, 3\n  add t3, a0, t3\n  sd t2, 0(t3)\n\
         \n  addi t0, t0, 1\n  bne t0, t1, fill\n\
         \n  li t0, 0\n  li t4, 0\n\
         sum: slli t3, t0, 3\n  add t3, a0, t3\n  ld t2, 0(t3)\n  andi t5, t2, 1\n\
         \n  beqz t5, even\n  addi t4, t4, 1\n\
         even: addi t0, t0, 1\n  bne t0, t1, sum\n  print t4\n  halt\n\
         .data\nbuf: .space 512\n",
    )
    .unwrap();
    let config = ReeseConfig::starting();
    let tracer = || Tracer::new().with_interval(250);
    let finished = |mut t: Tracer| {
        t.finish();
        t.into_parts()
    };
    let mut found = Vec::new();
    for scheme in [Scheme::Baseline, Scheme::Swift, Scheme::Meek] {
        let backend = schemes::build(scheme, &config);
        let database = backend.prepare(&database).unwrap();
        let squares = backend.prepare(&squares).unwrap();
        let len = Emulator::new(&database).run(u64::MAX).unwrap().instructions;
        // One database window stops at its budget, the other runs to
        // the halt; so does the one window over the squares.
        let windows = [
            (&database, 0, 3_072),
            (&database, len / 2048 * 2048 - 2048, 4_096),
            (&squares, 0, 4_096),
        ];
        for (prepared, anchor, budget) in windows {
            let ck = checkpoints_at(prepared, &[anchor], &config.pipeline)
                .unwrap()
                .pop()
                .unwrap();
            let baseline =
                WindowBaseline::from(&backend.run_window(prepared, &ck, budget).unwrap());
            let run_trial = |seq: u64, bit: u8, observed: bool| {
                let (mut t, mut log) = (observed.then(tracer), observed.then(DeepLog::new));
                let outcome = backend
                    .run_trial(Trial {
                        program: prepared,
                        ck: &ck,
                        baseline: &baseline,
                        class: FaultClass::PrimaryResult,
                        seq,
                        bit,
                        budget,
                        tracer: t.as_mut(),
                        probe: log.as_mut(),
                    })
                    .unwrap();
                (outcome, t, log)
            };
            let frontier = anchor + budget + config.pipeline.fetch_lookahead();
            let mut picked: Vec<(Kind, u64, u8)> = Vec::new();
            let mut walker = ck.restore(prepared);
            while walker.exit_code().is_none() && walker.instructions() < anchor + budget {
                for bit in [0, 7, 31, 62] {
                    let Some(kind) = Kind::of(&walker, bit, frontier) else {
                        continue;
                    };
                    if picked.iter().any(|&(k, _, _)| k == kind) {
                        continue;
                    }
                    // A lingering memory difference, and the registers
                    // left at the halt, must show in the outcome: the
                    // faulted state decides `state_clean` there.
                    let seq = walker.instructions();
                    let decides = matches!(kind, Kind::MemoryLingers | Kind::UnseenToHalt);
                    if decides && run_trial(seq, bit, false).0.state_clean {
                        continue;
                    }
                    picked.push((kind, seq, bit));
                }
                walker.step().unwrap();
            }
            found.extend(picked.iter().map(|&(k, _, _)| (k, scheme)));
            let keys: Vec<_> = picked
                .iter()
                .map(|&(_, seq, bit)| (FaultClass::PrimaryResult, seq, bit))
                .collect();
            let observers = Observers {
                tracer: Some(tracer()),
                log: Some(DeepLog::new()),
            };
            let window = backend
                .run_window_trials(prepared, &ck, budget, &keys, observers)
                .unwrap();
            assert_eq!(
                window.clean.cycles, baseline.cycles,
                "{scheme} from {anchor}"
            );
            for (&(kind, seq, bit), trial) in picked.iter().zip(window.trials) {
                let (outcome, fork) = trial.unwrap();
                let (alone, t, log) = run_trial(seq, bit, true);
                let key = format!("{scheme} {kind:?} seq {seq} bit {bit} from {anchor}");
                assert_eq!(outcome, alone, "{key}: outcome");
                assert_eq!(fork.log, log, "{key}: deep log");
                assert_eq!(fork.tracer.map(finished), t.map(finished), "{key}: tracer");
            }
            // The screen scored every key its kind lets it.
            let screened = picked.iter().filter(|&&(k, _, _)| !k.forks()).count();
            assert_eq!(
                window.screened, screened,
                "{scheme} from {anchor}: {picked:?}"
            );
        }
    }
    for kind in Kind::ALL {
        assert!(
            found.iter().any(|&(k, _)| k == kind),
            "no window had a {kind:?} key"
        );
    }
}
