//! Pluggable soft-error detection backends.
//!
//! The REESE paper evaluates one mechanism; the literature it sits in
//! evaluates several. This module factors everything a detection
//! mechanism contributes to a fault-injection trial — how the program
//! is prepared, which detailed machine times it, and how one injected
//! fault is scored — into the [`DetectionScheme`] trait, so the same
//! [`crate::Campaign`] (serial parameter pre-draw, checkpoint-anchored
//! windows, memoization, resume) measures every backend.
//!
//! Five backends are registered, one per [`Scheme`]:
//!
//! - **baseline** ([`classic::BaselineScheme`]): the unprotected
//!   out-of-order core. Faults are injected *architecturally* and
//!   nothing looks for them — the silent-data-corruption floor every
//!   other scheme is judged against.
//! - **reese** ([`classic::ReeseScheme`]): the paper's P/R time
//!   redundancy, delegating to [`reese_core::ReeseSim`] exactly as the
//!   campaign historically did. Outcomes are bit-identical to the
//!   pre-trait campaign.
//! - **duplex** ([`classic::DuplexScheme`]): full spatial duplication
//!   with compare-before-commit, via [`reese_core::DuplexSim`].
//! - **meek** ([`meek::MeekScheme`]): MEEK-style heterogeneous checker
//!   cores — committed instructions stream through a few small
//!   in-order checker pipelines behind a bounded fan-out queue.
//! - **swift** ([`swift::SwiftScheme`]): Azambuja-style software-only
//!   detection — the *program* is rewritten with duplicated
//!   instructions, shadow registers, and basic-block signature checks;
//!   the unprotected baseline core runs the hardened binary.
//!
//! The trait is deliberately small: a scheme is a way to run a program
//! clean, plus a way to score faults — one alone from its anchor (the
//! from-scratch oracle), or every fault of one anchored window in one
//! detailed pass that forks each faulted run off the clean one. The
//! clean window alone is that pass with no faults.
//! Window planning, anchor capture, baseline sharing, memoization, and
//! report assembly all stay in the campaign, shared by every backend.

/// Evaluates `$run` with `$obs` bound to one observer made of an
/// optional metrics tracer and an optional forensic log — owned by a
/// window, or borrowed from a [`Trial`]: the pair, either alone, or
/// [`NoopObserver`] when neither is present, so an unobserved run
/// compiles to the unobserved simulator.
macro_rules! with_observers {
    ($tracer:expr, $log:expr, |$obs:pat_param| $run:expr) => {
        match ($tracer, $log) {
            (Some(tracer), Some(log)) => {
                let $obs = reese_trace::Pair(tracer, log);
                $run
            }
            (Some(tracer), None) => {
                let $obs = tracer;
                $run
            }
            (None, Some(log)) => {
                let $obs = log;
                $run
            }
            (None, None) => {
                let $obs = reese_trace::NoopObserver;
                $run
            }
        }
    };
}

pub(crate) mod classic;
pub(crate) mod meek;
mod observe;
pub mod report;
mod screen;
pub(crate) mod swift;

use crate::engine::{output_fnv, WindowBaseline};
use crate::{FaultClass, TrialOutcome};
use reese_ckpt::{Checkpoint, Scheme};
use reese_core::{ReeseConfig, ReeseResult};
use reese_isa::Program;
use reese_pipeline::SimResult;
use reese_trace::{DeepLog, NoopObserver, Observer, Pair, Tracer};

pub use report::{EvalOptions, SchemeRow, SchemesReport};
pub use swift::transform as swift_transform;

/// What a clean scheme run produced: the scheme-independent facts a
/// campaign compares trials against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeRun {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed (primary-stream) instructions.
    pub committed: u64,
    /// Values printed by committed `print` instructions, in order.
    pub output: Vec<i64>,
    /// Exit code from the committed `halt`, if the run halted.
    pub exit_code: Option<u64>,
    /// Digest of the final architectural register state.
    pub state_digest: u64,
}

impl From<SimResult> for SchemeRun {
    fn from(r: SimResult) -> SchemeRun {
        SchemeRun {
            cycles: r.stats.cycles,
            committed: r.stats.committed,
            output: r.output,
            exit_code: r.exit_code,
            state_digest: r.state_digest,
        }
    }
}

impl From<ReeseResult> for SchemeRun {
    fn from(r: ReeseResult) -> SchemeRun {
        SchemeRun {
            cycles: r.cycles(),
            committed: r.committed_instructions(),
            output: r.output,
            exit_code: r.exit_code,
            state_digest: r.state_digest,
        }
    }
}

/// A trial's verdict before its clean window is known: every outcome
/// field the faulted run decides by itself, plus — when the verdict is
/// judged against the clean window — the faulted run's cycles, output
/// and state. Each scheme scores through one function returning this,
/// from [`DetectionScheme::run_trial`] and from
/// [`DetectionScheme::run_window_trials`] alike; the latter reduces
/// every fork as soon as it finishes, before the clean run that yields
/// the baseline has reached the window's end.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scored {
    /// The outcome; `extra_cycles` and `state_clean` are filled in by
    /// [`Scored::against`] when `faulted` is set.
    pub outcome: TrialOutcome,
    /// The faulted run, when the clean window judges it.
    pub faulted: Option<Faulted>,
}

/// What a faulted window run leaves for the clean window to judge.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Faulted {
    cycles: u64,
    output_fnv: u64,
    state_digest: u64,
}

impl Faulted {
    pub fn of(r: &SchemeRun) -> Faulted {
        Faulted {
            cycles: r.cycles,
            output_fnv: output_fnv(&r.output),
            state_digest: r.state_digest,
        }
    }
}

impl Scored {
    /// The final outcome against the window's clean baseline: recovery
    /// cost is the cycles beyond the clean run, and the state is clean
    /// when the committed output matches and — if the clean window
    /// reached halt, so the fetch-frontier digest is final state — the
    /// digest matches too (a budget-limited stop leaves the emulator a
    /// recovery-dependent distance past the last commit).
    pub fn against(self, baseline: &WindowBaseline) -> TrialOutcome {
        let mut outcome = self.outcome;
        if let Some(f) = self.faulted {
            outcome.extra_cycles = f.cycles.saturating_sub(baseline.cycles);
            outcome.state_clean = f.output_fnv == baseline.output_fnv
                && (!baseline.halted || f.state_digest == baseline.digest);
        }
        outcome
    }
}

/// A window's optional observers, owned: the metrics tracer and the
/// forensic log that a [`Trial`] borrows. The clean pass of
/// [`DetectionScheme::run_window_trials`] runs under them, and each
/// fork starts from a clone of the clean pass's copy at its fork point,
/// so a fork ends holding what a from-scratch run of its trial records.
#[derive(Debug, Clone, Default)]
pub struct Observers {
    /// Metrics tracer, when a campaign samples per-interval metrics.
    pub tracer: Option<Tracer>,
    /// Deep forensic log, when a trial is being explained.
    pub log: Option<DeepLog>,
}

/// An observer a window runs under: [`NoopObserver`], a tracer, a log,
/// or both paired — one per combination of [`Observers`], clonable for
/// the forks.
pub(crate) trait WindowObserver: Observer + Clone {
    /// Puts this observer's parts back into `observers`.
    fn put(self, observers: &mut Observers);

    /// The observers this one is made of.
    fn into_observers(self) -> Observers {
        let mut observers = Observers::default();
        self.put(&mut observers);
        observers
    }
}

impl WindowObserver for NoopObserver {
    fn put(self, _: &mut Observers) {}
}

impl WindowObserver for Tracer {
    fn put(self, observers: &mut Observers) {
        observers.tracer = Some(self);
    }
}

impl WindowObserver for DeepLog {
    fn put(self, observers: &mut Observers) {
        observers.log = Some(self);
    }
}

impl<A: WindowObserver, B: WindowObserver> WindowObserver for Pair<A, B> {
    fn put(self, observers: &mut Observers) {
        self.0.put(observers);
        self.1.put(observers);
    }
}

/// What [`DetectionScheme::run_window_trials`] returns.
#[derive(Debug, Clone)]
pub struct WindowTrials {
    /// The window's clean pass, which is every key's baseline.
    pub clean: SchemeRun,
    /// The clean pass's observers at the window's end.
    pub observers: Observers,
    /// Per key, in key order: its outcome and its fork's observers, or
    /// that faulted run's failure.
    pub trials: Vec<Result<(TrialOutcome, Observers), String>>,
    /// How many keys the functional screen scored from the clean pass
    /// without a detailed fork (0 on REESE and duplex, whose faults
    /// sit in compare latches).
    pub screened: usize,
}

/// One slot per key of a window, filled with the key's [`Scored`]
/// verdict and its fork's observer (or its faulted run's failure) as
/// its fork finishes.
pub(crate) type Pending<O> = Vec<Option<Result<(Scored, O), String>>>;

/// Assembles [`WindowTrials`] from a window's clean run, its observer,
/// the pending verdicts of its keys in key order, and how many of those
/// were screened.
pub(crate) fn judged<O: WindowObserver>(
    clean: SchemeRun,
    obs: O,
    scored: Pending<O>,
    screened: usize,
) -> WindowTrials {
    let baseline = WindowBaseline::from(&clean);
    let trials = scored
        .into_iter()
        .map(|s| {
            s.expect("every key is scored")
                .map(|(s, o)| (s.against(&baseline), o.into_observers()))
        })
        .collect();
    WindowTrials {
        clean,
        observers: obs.into_observers(),
        trials,
        screened,
    }
}

/// One fault-injection trial, as handed to a scheme: the anchored
/// window (checkpoint plus budget), its clean baseline, and the fault
/// key drawn by the campaign.
pub struct Trial<'a> {
    /// The (prepared) program under test.
    pub program: &'a Program,
    /// Anchor checkpoint the window restores from.
    pub ck: &'a Checkpoint,
    /// Clean reference for the same window.
    pub baseline: &'a WindowBaseline,
    /// Fault class drawn from the campaign mix.
    pub class: FaultClass,
    /// Global dynamic-instruction index the fault targets.
    pub seq: u64,
    /// Bit position (0..64) the fault flips.
    pub bit: u8,
    /// Committed-instruction budget for the window.
    pub budget: u64,
    /// Metrics tracer, when the campaign samples per-interval metrics.
    pub tracer: Option<&'a mut Tracer>,
    /// Deep forensic observer: captures every pipeline event and
    /// per-cycle state of the faulty run. The field stays for
    /// `run_trial` callers such as the benchmark package and the fork
    /// oracle tests; `reese explain` no longer uses it, since it reads
    /// the fork's log from [`DetectionScheme::run_window_trials`].
    pub probe: Option<&'a mut DeepLog>,
}

/// A soft-error detection mechanism, as seen by a fault-injection
/// campaign.
///
/// Implementations must be pure given their construction config: every
/// method is `&self`, and two calls with equal arguments must produce
/// equal results (campaign memoization and the Full/Replay engine
/// oracle both depend on it).
pub trait DetectionScheme: Send + Sync {
    /// Which registered scheme this is.
    fn scheme(&self) -> Scheme;

    /// Prepares a program for this scheme. The identity for hardware
    /// schemes; software-only schemes return the hardened rewrite.
    /// Everything downstream — checkpoints, dynamic length, fault
    /// sequence numbers — is in terms of the *prepared* program.
    fn prepare(&self, program: &Program) -> Result<Program, String> {
        Ok(program.clone())
    }

    /// Clean detailed run from program start, stopping at `halt` or
    /// after `max_instructions` commits. The cycle count defines the
    /// scheme's time overhead, so schemes with off-core checking
    /// account their drain/stall time here.
    fn run_limit(&self, program: &Program, max_instructions: u64) -> Result<SchemeRun, String>;

    /// Clean run over an anchored window: restore from `ck`, run until
    /// `budget` instructions commit (or halt). This is
    /// [`DetectionScheme::run_window_trials`] with no keys and no
    /// observers.
    fn run_window(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
    ) -> Result<SchemeRun, String> {
        self.run_window_trials(program, ck, budget, &[], Observers::default())
            .map(|w| w.clean)
    }

    /// Scores one injected fault over its anchored window, from the
    /// anchor: the from-scratch oracle [`TrialEngine::Full`] uses.
    /// Only called for classes with
    /// [`FaultClass::detectable_by_design`] — the campaign scores the
    /// modeled-undetectable classes itself, identically for every
    /// scheme.
    ///
    /// [`TrialEngine::Full`]: crate::TrialEngine::Full
    fn run_trial(&self, trial: Trial<'_>) -> Result<TrialOutcome, String>;

    /// Scores every fault key `(class, seq, bit)` of one anchored window
    /// in one detailed pass: the clean window from `ck` under `budget`,
    /// plus one faulted run per key forked from it at the last cycle
    /// boundary before the key's target can execute (see
    /// [`reese_pipeline::Core::run_forked`]). The clean pass runs under
    /// `observers`, and each fork starts from a clone of the clean
    /// pass's observers at its fork point. Returns the clean run and
    /// its observers and, in `keys` order, what
    /// [`DetectionScheme::run_trial`] scores for each key against it
    /// with the fork's observers — which hold what `run_trial` under
    /// the same observers records — or that faulted run's failure.
    /// A scheme may score a key from the clean pass without forking
    /// when its fork provably repeats the clean pass (the single-stream
    /// schemes' functional screen), and counts those keys in
    /// [`WindowTrials::screened`]. Keys may repeat and come in any
    /// order; all must be of classes with
    /// [`FaultClass::detectable_by_design`].
    ///
    /// # Errors
    ///
    /// The clean window's failure.
    fn run_window_trials(
        &self,
        program: &Program,
        ck: &Checkpoint,
        budget: u64,
        keys: &[(FaultClass, u64, u8)],
        observers: Observers,
    ) -> Result<WindowTrials, String>;
}

/// Builds the registered backend for a scheme over a REESE
/// configuration (non-REESE schemes use the subset of the config that
/// applies to them: the pipeline core, the flush penalty).
pub fn build(scheme: Scheme, config: &ReeseConfig) -> Box<dyn DetectionScheme> {
    match scheme {
        Scheme::Baseline => Box::new(classic::BaselineScheme::new(config)),
        Scheme::Reese => Box::new(classic::ReeseScheme::new(config)),
        Scheme::Duplex => Box::new(classic::DuplexScheme::new(config)),
        Scheme::Meek => Box::new(meek::MeekScheme::new(config)),
        Scheme::Swift => Box::new(swift::SwiftScheme::new(config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_scheme_builds() {
        let config = ReeseConfig::starting();
        for s in Scheme::ALL {
            let b = build(s, &config);
            assert_eq!(b.scheme(), s);
        }
    }

    #[test]
    fn prepare_is_identity_for_hardware_schemes() {
        let config = ReeseConfig::starting();
        let prog = reese_isa::assemble("  li t0, 3\n  print t0\n  halt\n").unwrap();
        for s in [
            Scheme::Baseline,
            Scheme::Reese,
            Scheme::Duplex,
            Scheme::Meek,
        ] {
            let prepared = build(s, &config).prepare(&prog).unwrap();
            assert_eq!(prepared.text(), prog.text(), "{s} must not rewrite code");
        }
        let hardened = build(Scheme::Swift, &config).prepare(&prog).unwrap();
        assert!(
            hardened.len() > prog.len(),
            "swift must duplicate instructions"
        );
    }
}
