//! The three detailed-machine backends: the unprotected baseline core,
//! REESE P/R time redundancy, and full spatial duplication.
//!
//! [`ReeseScheme`] and [`DuplexScheme`] are thin adapters over the
//! existing simulators — they inject into the machines' compare
//! latches and read detections back, in exactly the call order the
//! campaign used before the trait existed (the equivalence oracle
//! holds the REESE path to byte-identical outcomes).
//!
//! [`BaselineScheme`] is the control arm: faults are injected
//! *architecturally* ([`reese_cpu::Emulator::inject_result_fault`])
//! into the restored functional state, the plain pipeline times the
//! window, and nothing looks for the corruption. Its coverage is 0% by
//! construction; its `state_clean` column is the silent-data-corruption
//! rate the protected schemes are measured against.

use super::observe::CommitProbe;
use super::screen::{screen, Screened};
use super::{
    judged, DetectionScheme, Faulted, Observers, Pending, SchemeRun, Scored, Trial, WindowObserver,
    WindowTrials,
};
use crate::{FaultClass, TrialOutcome};
use reese_ckpt::{Checkpoint, Scheme};
use reese_core::{DuplexSim, Faults, InjectedFault, ReeseConfig, ReeseResult, ReeseSim};
use reese_cpu::Emulator;
use reese_isa::Program;
use reese_pipeline::{PipelineSim, RunSpec, SimResult};
use reese_trace::{NoopObserver, Pair};

/// The fault-free run of an anchored window: restore from `ck` and
/// stop once `budget` instructions commit.
fn window_spec<'a, F: Default>(
    program: &Program,
    ck: &'a Checkpoint,
    budget: u64,
) -> RunSpec<'a, F> {
    RunSpec::restored(ck.restore(program), ck.warm.as_ref()).limit(budget)
}

/// A faulted window on the plain pipeline: `emu` already carries the
/// trial's architectural fault, and `probe` records the commit stream
/// (plus the faulted seq's first writeback) alongside the trial's own
/// observers.
pub(super) fn probed_window(
    sim: &PipelineSim,
    t: &mut Trial<'_>,
    emu: Emulator,
    probe: &mut CommitProbe,
) -> Result<SimResult, String> {
    let spec = RunSpec::restored(emu, t.ck.warm.as_ref()).limit(t.budget);
    with_observers!(t.tracer.take(), t.probe.take(), |obs| {
        sim.simulate(spec, &mut Pair(probe, obs))
    })
    .map_err(|e| e.to_string())
}

/// One detailed pass over a window on the plain pipeline — the way the
/// single-stream schemes (baseline, MEEK, SWIFT) all run their windows.
/// The functional screen goes first ([`screen`]): the clean run under
/// `obs`, the scheme's commit probe paired with the window's observer,
/// the probe also watching the screened keys' seqs; plus one fork per
/// key the screen leaves, with its architectural fault armed, each
/// starting from copies of both at its fork point, its probe watching
/// the key's seq. `score(key, run, probe)` reduces each fork
/// as soon as it finishes, and each screened key against the clean run
/// and probe once the pass ends: its fork would have repeated the clean
/// pass, probe and observers included, with the faulted register
/// digest if it reached the halt. Returns the clean run, its probe and
/// observer, the keys' pending verdicts, and how many were screened.
pub(super) fn forked_window<O: WindowObserver>(
    sim: &PipelineSim,
    program: &Program,
    ck: &Checkpoint,
    budget: u64,
    keys: &[(FaultClass, u64, u8)],
    mut obs: Pair<CommitProbe, O>,
    score: impl Fn((FaultClass, u64, u8), &SchemeRun, &CommitProbe) -> Scored,
) -> Result<(SchemeRun, CommitProbe, O, Pending<O>, usize), String> {
    let start = ck.restore(program);
    let targets: Vec<(u64, u8)> = keys.iter().map(|&(_, seq, bit)| (seq, bit)).collect();
    let lookahead = sim.config().fetch_lookahead();
    let screened = screen(&start, budget, lookahead, &targets);
    let forks: Vec<usize> = (0..keys.len())
        .filter(|&i| screened[i] == Screened::Fork)
        .collect();
    let faults: Vec<(u64, u8)> = forks.iter().map(|&i| targets[i]).collect();
    for (&(seq, _), s) in targets.iter().zip(&screened) {
        if *s != Screened::Fork {
            obs.0.watch(seq);
        }
    }
    let mut scored: Pending<O> = vec![None; keys.len()];
    let spec = RunSpec::restored(start, ck.warm.as_ref()).limit(budget);
    let clean = sim
        .simulate_forked(
            spec,
            &faults,
            &mut obs,
            |o, seq| o.0.watch(seq),
            |j, r, Pair(probe, fork_obs)| {
                let i = forks[j];
                scored[i] = Some(
                    r.map(|r| (score(keys[i], &SchemeRun::from(r), &probe), fork_obs))
                        .map_err(|e| e.to_string()),
                );
            },
        )
        .map_err(|e| e.to_string())?;
    let Pair(probe, obs) = obs;
    let clean = SchemeRun::from(clean);
    for (i, s) in screened.iter().enumerate() {
        let Screened::Clean { halt_digest } = *s else {
            continue;
        };
        let run = SchemeRun {
            state_digest: halt_digest.unwrap_or(clean.state_digest),
            ..clean.clone()
        };
        scored[i] = Some(Ok((score(keys[i], &run, &probe), obs.clone())));
    }
    let screened = keys.len() - forks.len();
    Ok((clean, probe, obs, scored, screened))
}

/// Scores a single-stream machine's window where nothing checks the
/// result: the architectural fault is injected at `seq`'s execution,
/// enters the machine at its first writeback, and goes architectural at
/// its commit.
fn score_unchecked(key: (FaultClass, u64, u8), r: &SchemeRun, probe: &CommitProbe) -> Scored {
    let (class, seq, bit) = key;
    let committed = probe.commit_cycle(seq);
    Scored {
        outcome: TrialOutcome {
            class,
            seq,
            bit,
            detected: false,
            detection_latency: None,
            extra_cycles: 0,
            state_clean: false,
            inject_cycle: probe.first_writeback(seq).or(committed),
            diverge_cycle: committed,
            detect_cycle: None,
        },
        faulted: Some(Faulted::of(r)),
    }
}

/// Scores a redundant-machine window result exactly as the campaign
/// historically scored REESE trials. Cleanliness is judged at commit
/// granularity against the clean window ([`Scored::against`]):
/// recovery must leave the committed output stream identical.
fn score_redundant(key: (FaultClass, u64, u8), r: ReeseResult) -> Scored {
    let (class, seq, bit) = key;
    let first = r.detections.first();
    Scored {
        outcome: TrialOutcome {
            class,
            seq,
            bit,
            detected: !r.detections.is_empty(),
            detection_latency: first.map(|d| d.latency()),
            extra_cycles: 0,
            state_clean: false,
            inject_cycle: first.map(|d| d.inject_cycle),
            // Compare-before-commit: a detected corruption is squashed
            // in the compare latch and never goes architectural; an
            // undetected latch fault on these machines never fired.
            diverge_cycle: None,
            detect_cycle: first.map(|d| d.detect_cycle),
        },
        faulted: Some(Faulted::of(&SchemeRun::from(r))),
    }
}

/// Scores every key of a window on a redundant machine: `run` is the
/// machine's forked entry, handed one latch fault per key, the clean
/// pass's observer, and a sink for each fork's result and observer.
fn redundant_window<O: WindowObserver, E: std::fmt::Display>(
    keys: &[(FaultClass, u64, u8)],
    mut obs: O,
    run: impl FnOnce(
        &[InjectedFault],
        &mut O,
        &mut dyn FnMut(usize, Result<ReeseResult, E>, O),
    ) -> Result<ReeseResult, E>,
) -> Result<WindowTrials, String> {
    let faults: Vec<InjectedFault> = keys
        .iter()
        .map(|&(class, seq, bit)| latch_fault(class, seq, bit))
        .collect();
    let mut scored: Pending<O> = vec![None; keys.len()];
    let clean = run(&faults, &mut obs, &mut |i, r, fork_obs| {
        scored[i] = Some(
            r.map(|r| (score_redundant(keys[i], r), fork_obs))
                .map_err(|e| e.to_string()),
        );
    })
    .map_err(|e| e.to_string())?;
    Ok(judged(SchemeRun::from(clean), obs, scored, 0))
}

/// The fault a redundant machine latches for a trial key: primary or
/// redundant compare-latch copy, by class.
fn latch_fault(class: FaultClass, seq: u64, bit: u8) -> InjectedFault {
    if class == FaultClass::PrimaryResult {
        InjectedFault::primary(seq, bit)
    } else {
        InjectedFault::redundant(seq, bit)
    }
}

/// The unprotected out-of-order core. No redundancy, no detection:
/// the control arm.
pub(crate) struct BaselineScheme {
    sim: PipelineSim,
}

impl BaselineScheme {
    pub fn new(config: &ReeseConfig) -> BaselineScheme {
        BaselineScheme {
            sim: PipelineSim::new(config.pipeline.clone()),
        }
    }
}

impl DetectionScheme for BaselineScheme {
    fn scheme(&self) -> Scheme {
        Scheme::Baseline
    }

    fn run_limit(&self, program: &Program, max_instructions: u64) -> Result<SchemeRun, String> {
        self.sim
            .simulate(
                RunSpec::new(program).limit(max_instructions),
                &mut NoopObserver,
            )
            .map(SchemeRun::from)
            .map_err(|e| e.to_string())
    }

    fn run_trial(&self, mut t: Trial<'_>) -> Result<TrialOutcome, String> {
        // A single-stream machine has no redundant copy: both result
        // classes degenerate to one architectural result upset.
        let mut emu = t.ck.restore(t.program);
        emu.inject_result_fault(t.seq, t.bit);
        // The probe pins the injection (first writeback of the faulted
        // seq) and divergence (its commit) cycles; nothing detects.
        let mut probe = CommitProbe::watching(t.seq);
        let r = SchemeRun::from(probed_window(&self.sim, &mut t, emu, &mut probe)?);
        Ok(score_unchecked((t.class, t.seq, t.bit), &r, &probe).against(t.baseline))
    }

    fn run_window_trials(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        keys: &[(FaultClass, u64, u8)],
        observers: Observers,
    ) -> Result<WindowTrials, String> {
        with_observers!(observers.tracer, observers.log, |obs| {
            let obs = Pair(CommitProbe::new(), obs);
            let (clean, _, obs, scored, screened) =
                forked_window(&self.sim, program, ck, budget, keys, obs, score_unchecked)?;
            Ok(judged(clean, obs, scored, screened))
        })
    }
}

/// The paper's mechanism: P/R time redundancy on one core.
pub(crate) struct ReeseScheme {
    sim: ReeseSim,
}

impl ReeseScheme {
    pub fn new(config: &ReeseConfig) -> ReeseScheme {
        ReeseScheme {
            sim: ReeseSim::new(config.clone()),
        }
    }
}

impl DetectionScheme for ReeseScheme {
    fn scheme(&self) -> Scheme {
        Scheme::Reese
    }

    fn run_limit(&self, program: &Program, max_instructions: u64) -> Result<SchemeRun, String> {
        self.sim
            .simulate(
                RunSpec::new(program).limit(max_instructions),
                &mut NoopObserver,
            )
            .map(SchemeRun::from)
            .map_err(|e| e.to_string())
    }

    fn run_trial(&self, t: Trial<'_>) -> Result<TrialOutcome, String> {
        let faults = [latch_fault(t.class, t.seq, t.bit)];
        let spec = RunSpec::restored(t.ck.restore(t.program), t.ck.warm.as_ref())
            .limit(t.budget)
            .faults(Faults::Latch(&faults));
        let r = with_observers!(t.tracer, t.probe, |mut obs| {
            self.sim.simulate(spec, &mut obs)
        })
        .map_err(|e| e.to_string())?;
        Ok(score_redundant((t.class, t.seq, t.bit), r).against(t.baseline))
    }

    fn run_window_trials(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        keys: &[(FaultClass, u64, u8)],
        observers: Observers,
    ) -> Result<WindowTrials, String> {
        with_observers!(observers.tracer, observers.log, |obs| {
            redundant_window(keys, obs, |faults, obs, each| {
                let spec = window_spec(program, ck, budget);
                self.sim.simulate_forked(spec, faults, obs, each)
            })
        })
    }
}

/// Full spatial duplication with compare-before-commit.
pub(crate) struct DuplexScheme {
    sim: DuplexSim,
}

impl DuplexScheme {
    pub fn new(config: &ReeseConfig) -> DuplexScheme {
        DuplexScheme {
            sim: DuplexSim::new(config.pipeline.clone()),
        }
    }
}

impl DetectionScheme for DuplexScheme {
    fn scheme(&self) -> Scheme {
        Scheme::Duplex
    }

    fn run_limit(&self, program: &Program, max_instructions: u64) -> Result<SchemeRun, String> {
        self.sim
            .simulate(
                RunSpec::new(program).limit(max_instructions),
                &mut NoopObserver,
            )
            .map(SchemeRun::from)
            .map_err(|e| e.to_string())
    }

    fn run_trial(&self, t: Trial<'_>) -> Result<TrialOutcome, String> {
        let faults = [latch_fault(t.class, t.seq, t.bit)];
        let spec = RunSpec::restored(t.ck.restore(t.program), t.ck.warm.as_ref())
            .limit(t.budget)
            .faults(&faults[..]);
        let r = with_observers!(t.tracer, t.probe, |mut obs| {
            self.sim.simulate(spec, &mut obs)
        })
        .map_err(|e| e.to_string())?;
        Ok(score_redundant((t.class, t.seq, t.bit), r).against(t.baseline))
    }

    fn run_window_trials(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        keys: &[(FaultClass, u64, u8)],
        observers: Observers,
    ) -> Result<WindowTrials, String> {
        with_observers!(observers.tracer, observers.log, |obs| {
            redundant_window(keys, obs, |faults, obs, each| {
                let spec = window_spec(program, ck, budget);
                self.sim.simulate_forked(spec, faults, obs, each)
            })
        })
    }
}
