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
use super::{judged, DetectionScheme, Faulted, Pending, SchemeRun, Scored, Trial, WindowTrials};
use crate::{FaultClass, TrialOutcome};
use reese_ckpt::{Checkpoint, Scheme};
use reese_core::{DuplexSim, Faults, InjectedFault, ReeseConfig, ReeseResult, ReeseSim};
use reese_cpu::Emulator;
use reese_isa::Program;
use reese_pipeline::{PipelineSim, RunSpec, SimResult};
use reese_trace::{DeepLog, NoopObserver, Observer, Pair};

/// The fault-free run of an anchored window: restore from `ck` and
/// stop once `budget` instructions commit.
fn window_spec<'a, F: Default>(
    program: &Program,
    ck: &'a Checkpoint,
    budget: u64,
) -> RunSpec<'a, F> {
    RunSpec::restored(ck.restore(program), ck.warm.as_ref()).limit(budget)
}

/// A clean window on the plain pipeline. The single-stream schemes
/// (baseline, MEEK, SWIFT) all measure their windows this way.
pub(super) fn core_window<O: Observer>(
    sim: &PipelineSim,
    program: &Program,
    ck: &Checkpoint,
    budget: u64,
    obs: &mut O,
) -> Result<SchemeRun, String> {
    sim.simulate(window_spec(program, ck, budget), obs)
        .map(SchemeRun::from)
        .map_err(|e| e.to_string())
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
    with_trial_observers!(t, |obs| sim.simulate(spec, &mut Pair(probe, obs)))
        .map_err(|e| e.to_string())
}

/// One detailed pass over a window on the plain pipeline: the clean run
/// with a commit probe, plus one fork per `(seq, bit)` in `faults` with
/// that architectural fault armed and the fork's probe watching `seq`.
/// `score(i, run, probe)` reduces fork `i` as soon as it finishes.
/// Returns the clean run, its probe, and the forks' pending verdicts.
pub(super) fn forked_window(
    sim: &PipelineSim,
    program: &Program,
    ck: &Checkpoint,
    budget: u64,
    faults: &[(u64, u8)],
    score: impl Fn(usize, &SchemeRun, &CommitProbe) -> Scored,
) -> Result<(SchemeRun, CommitProbe, Pending), String> {
    let mut scored: Pending = vec![None; faults.len()];
    let mut probe = CommitProbe::new();
    let spec = window_spec(program, ck, budget);
    let clean = sim
        .simulate_forked(
            spec,
            faults,
            &mut probe,
            CommitProbe::watch,
            |i, r, fork_probe| {
                scored[i] = Some(
                    r.map(|r| score(i, &SchemeRun::from(r), &fork_probe))
                        .map_err(|e| e.to_string()),
                );
            },
        )
        .map_err(|e| e.to_string())?;
    Ok((SchemeRun::from(clean), probe, scored))
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
            inject_cycle: probe.first_writeback.or(committed),
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
/// machine's forked entry, handed one latch fault per key and a sink
/// for each fork's result.
fn redundant_window<E: std::fmt::Display>(
    keys: &[(FaultClass, u64, u8)],
    run: impl FnOnce(
        &[InjectedFault],
        &mut dyn FnMut(usize, Result<ReeseResult, E>),
    ) -> Result<ReeseResult, E>,
) -> Result<WindowTrials, String> {
    let faults: Vec<InjectedFault> = keys
        .iter()
        .map(|&(class, seq, bit)| latch_fault(class, seq, bit))
        .collect();
    let mut scored: Pending = vec![None; keys.len()];
    let clean = run(&faults, &mut |i, r| {
        scored[i] = Some(
            r.map(|r| score_redundant(keys[i], r))
                .map_err(|e| e.to_string()),
        );
    })
    .map_err(|e| e.to_string())?;
    Ok(judged(&SchemeRun::from(clean), scored))
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

    fn run_window(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
    ) -> Result<SchemeRun, String> {
        core_window(&self.sim, program, ck, budget, &mut NoopObserver)
    }

    fn run_window_observed(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        probe: &mut DeepLog,
    ) -> Result<SchemeRun, String> {
        core_window(&self.sim, program, ck, budget, probe)
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
    ) -> Result<WindowTrials, String> {
        let faults: Vec<(u64, u8)> = keys.iter().map(|&(_, seq, bit)| (seq, bit)).collect();
        let (clean, _, scored) =
            forked_window(&self.sim, program, ck, budget, &faults, |i, r, probe| {
                score_unchecked(keys[i], r, probe)
            })?;
        Ok(judged(&clean, scored))
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

    fn run_window(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
    ) -> Result<SchemeRun, String> {
        let spec = window_spec(program, ck, budget);
        self.sim
            .simulate(spec, &mut NoopObserver)
            .map(SchemeRun::from)
            .map_err(|e| e.to_string())
    }

    fn run_window_observed(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        probe: &mut DeepLog,
    ) -> Result<SchemeRun, String> {
        let spec = window_spec(program, ck, budget);
        self.sim
            .simulate(spec, probe)
            .map(SchemeRun::from)
            .map_err(|e| e.to_string())
    }

    fn run_trial(&self, mut t: Trial<'_>) -> Result<TrialOutcome, String> {
        let faults = [latch_fault(t.class, t.seq, t.bit)];
        let spec = RunSpec::restored(t.ck.restore(t.program), t.ck.warm.as_ref())
            .limit(t.budget)
            .faults(Faults::Latch(&faults));
        let r = with_trial_observers!(t, |obs| self.sim.simulate(spec, obs))
            .map_err(|e| e.to_string())?;
        Ok(score_redundant((t.class, t.seq, t.bit), r).against(t.baseline))
    }

    fn run_window_trials(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        keys: &[(FaultClass, u64, u8)],
    ) -> Result<WindowTrials, String> {
        redundant_window(keys, |faults, each| {
            let spec = window_spec(program, ck, budget);
            self.sim
                .simulate_forked(spec, faults, &mut NoopObserver, |i, r, _| each(i, r))
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

    fn run_window(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
    ) -> Result<SchemeRun, String> {
        let spec = window_spec(program, ck, budget);
        self.sim
            .simulate(spec, &mut NoopObserver)
            .map(SchemeRun::from)
            .map_err(|e| e.to_string())
    }

    fn run_window_observed(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        probe: &mut DeepLog,
    ) -> Result<SchemeRun, String> {
        let spec = window_spec(program, ck, budget);
        self.sim
            .simulate(spec, probe)
            .map(SchemeRun::from)
            .map_err(|e| e.to_string())
    }

    fn run_trial(&self, mut t: Trial<'_>) -> Result<TrialOutcome, String> {
        let faults = [latch_fault(t.class, t.seq, t.bit)];
        let spec = RunSpec::restored(t.ck.restore(t.program), t.ck.warm.as_ref())
            .limit(t.budget)
            .faults(&faults[..]);
        let r = with_trial_observers!(t, |obs| self.sim.simulate(spec, obs))
            .map_err(|e| e.to_string())?;
        Ok(score_redundant((t.class, t.seq, t.bit), r).against(t.baseline))
    }

    fn run_window_trials(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        keys: &[(FaultClass, u64, u8)],
    ) -> Result<WindowTrials, String> {
        redundant_window(keys, |faults, each| {
            let spec = window_spec(program, ck, budget);
            self.sim
                .simulate_forked(spec, faults, &mut NoopObserver, |i, r, _| each(i, r))
        })
    }
}
