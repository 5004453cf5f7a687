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
use super::{DetectionScheme, SchemeRun, Trial};
use crate::engine::output_fnv;
use crate::{FaultClass, TrialOutcome};
use reese_ckpt::{Checkpoint, Scheme};
use reese_core::{DuplexSim, Faults, InjectedFault, ReeseConfig, ReeseResult, ReeseSim};
use reese_cpu::Emulator;
use reese_isa::Program;
use reese_pipeline::{PipelineSim, RunSpec, SimResult};
use reese_trace::{DeepLog, NoopObserver, Observer, Pair};

/// A clean window on the plain pipeline: restore from `ck` and run
/// until `budget` instructions commit. The single-stream schemes
/// (baseline, MEEK, SWIFT) all measure their windows this way.
pub(super) fn core_window<O: Observer>(
    sim: &PipelineSim,
    program: &Program,
    ck: &Checkpoint,
    budget: u64,
    obs: &mut O,
) -> Result<SchemeRun, String> {
    sim.simulate(
        RunSpec::restored(ck.restore(program), ck.warm.as_ref()).limit(budget),
        obs,
    )
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

/// Scores a redundant-machine window result exactly as the campaign
/// historically scored REESE trials.
fn score_redundant(t: &Trial<'_>, r: &ReeseResult) -> TrialOutcome {
    // Commit-granularity cleanliness: recovery must leave the
    // committed output stream identical to the clean window's. The
    // frontier digest is only comparable when the window reached
    // halt — a budget-limited stop leaves the fetch emulator a
    // recovery-dependent distance past the last commit, so there
    // the digest measures speculative fetch depth, not state.
    let state_clean = output_fnv(&r.output) == t.baseline.output_fnv
        && (!t.baseline.halted || r.state_digest == t.baseline.digest);
    let first = r.detections.first();
    TrialOutcome {
        class: t.class,
        seq: t.seq,
        bit: t.bit,
        detected: !r.detections.is_empty(),
        detection_latency: first.map(|d| d.latency()),
        extra_cycles: r.cycles().saturating_sub(t.baseline.cycles),
        state_clean,
        inject_cycle: first.map(|d| d.inject_cycle),
        // Compare-before-commit: a detected corruption is squashed in
        // the compare latch and never goes architectural; an undetected
        // latch fault on these machines never fired at all.
        diverge_cycle: None,
        detect_cycle: first.map(|d| d.detect_cycle),
    }
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
        let r = probed_window(&self.sim, &mut t, emu, &mut probe)?;
        let state_clean = output_fnv(&r.output) == t.baseline.output_fnv
            && (!t.baseline.halted || r.state_digest == t.baseline.digest);
        let committed = probe.commit_cycle(t.seq);
        Ok(TrialOutcome {
            class: t.class,
            seq: t.seq,
            bit: t.bit,
            detected: false,
            detection_latency: None,
            extra_cycles: r.stats.cycles.saturating_sub(t.baseline.cycles),
            state_clean,
            inject_cycle: probe.first_writeback.or(committed),
            diverge_cycle: committed,
            detect_cycle: None,
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

    fn run_window(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
    ) -> Result<SchemeRun, String> {
        let spec = RunSpec::restored(ck.restore(program), ck.warm.as_ref()).limit(budget);
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
        let spec = RunSpec::restored(ck.restore(program), ck.warm.as_ref()).limit(budget);
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
        Ok(score_redundant(&t, &r))
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
        let spec = RunSpec::restored(ck.restore(program), ck.warm.as_ref()).limit(budget);
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
        let spec = RunSpec::restored(ck.restore(program), ck.warm.as_ref()).limit(budget);
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
        Ok(score_redundant(&t, &r))
    }
}
