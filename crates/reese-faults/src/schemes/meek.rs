//! MEEK-style heterogeneous checker cores.
//!
//! The big out-of-order core runs the program unmodified; every
//! committed instruction is pushed, in commit order, through a small
//! bank of in-order single-issue checker pipelines behind a bounded
//! fan-out queue. A checker re-executes its instruction and compares
//! against the committed result; a mismatch triggers a rollback to the
//! last verified checkpoint.
//!
//! The checker bank is modeled *analytically* over the observed commit
//! stream rather than simulated per-structure:
//!
//! - [`CHECKERS`] checkers each retire one instruction per cycle.
//! - The fan-out queue holds [`QUEUE_DEPTH`] committed-but-unchecked
//!   instructions. A committed instruction cannot enter the queue
//!   before an older one has vacated its slot (`complete[i - DEPTH]`),
//!   which is exactly stall-on-full backpressure expressed as a
//!   recurrence: when commit outruns the checkers, enqueue times — and
//!   with them the end of verification — slide past the core's own
//!   cycles.
//! - Load values are **forwarded** from the main core to the checkers
//!   (the checkers have no port into the memory hierarchy), so a main-
//!   core fault in a load result is re-used verbatim by the checker
//!   and escapes detection. This is the scheme's honest coverage gap.
//!
//! Clean-run time overhead is the verification tail: the run is done
//! when the last instruction is *checked*, not when it commits.

use super::classic::{forked_window, probed_window};
use super::observe::CommitProbe;
use super::{
    judged, DetectionScheme, Faulted, Observers, SchemeRun, Scored, Trial, WindowObserver,
    WindowTrials,
};
use crate::{FaultClass, TrialOutcome};
use reese_ckpt::{Checkpoint, Scheme};
use reese_core::ReeseConfig;
use reese_isa::{OpKind, Program};
use reese_pipeline::{PipelineSim, RunSpec};
use reese_trace::Pair;

/// Number of small in-order checker cores.
pub const CHECKERS: usize = 2;

/// Capacity of the commit-to-checker fan-out queue, in instructions.
pub const QUEUE_DEPTH: usize = 16;

/// The checker bank, folded over the commit stream one commit at a
/// time: each checker's free cycle and the check completions of the
/// last [`QUEUE_DEPTH`] commits (the queue slots they hold).
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct CheckerBank {
    free: [u64; CHECKERS],
    /// Check completions, indexed by commit number mod `QUEUE_DEPTH`.
    slots: [u64; QUEUE_DEPTH],
    commits: usize,
    last: u64,
}

impl CheckerBank {
    /// Folds in the next commit, at `commit_cycle`, and returns the
    /// cycle its check completes.
    pub fn push(&mut self, commit_cycle: u64) -> u64 {
        // Backpressure: the queue slot frees when the instruction
        // QUEUE_DEPTH places older finishes its check (slots start at
        // 0, so the first QUEUE_DEPTH commits enqueue at once).
        let slot = self.commits % QUEUE_DEPTH;
        let enqueue = commit_cycle.max(self.slots[slot]);
        let (checker, &earliest) = self
            .free
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("CHECKERS > 0");
        let done = enqueue.max(earliest) + 1;
        self.free[checker] = done;
        self.slots[slot] = done;
        self.commits += 1;
        self.last = done;
        done
    }

    /// When the last folded commit's check completes (0 before any).
    pub fn last(&self) -> u64 {
        self.last
    }
}

/// The MEEK-style checker-core backend.
pub(crate) struct MeekScheme {
    sim: PipelineSim,
    /// Modeled rollback cost on detection (re-steer to the last
    /// verified checkpoint), charged on top of the detection latency.
    rollback: u64,
}

impl MeekScheme {
    pub fn new(config: &ReeseConfig) -> MeekScheme {
        MeekScheme {
            sim: PipelineSim::new(config.pipeline.clone()),
            rollback: u64::from(config.flush_penalty),
        }
    }

    /// Whether a main-core result fault at `pc` is visible to a
    /// checker: the instruction must produce a register result, and
    /// load values are forwarded (not re-loaded), so loads escape.
    fn primary_fault_checked(program: &Program, pc: u64) -> bool {
        match program.fetch(pc) {
            Some(ins) => ins.dest().is_some() && ins.op.kind() != OpKind::Load,
            None => false,
        }
    }

    /// Whether a checker-side upset at `pc` is caught: any corrupted
    /// checker copy of a register result (including a forwarded load
    /// value) mismatches the main core's committed result.
    fn checker_fault_checked(program: &Program, pc: u64) -> bool {
        match program.fetch(pc) {
            Some(ins) => ins.dest().is_some(),
            None => false,
        }
    }

    /// Scores a window run: a fault the checkers see is caught at its
    /// check's completion and rolled back; an escape (masked fault, or
    /// a forwarded load value) is judged against the clean window.
    fn score(
        &self,
        program: &Program,
        key: (FaultClass, u64, u8),
        r: &SchemeRun,
        probe: &CommitProbe,
    ) -> Scored {
        let (class, seq, bit) = key;
        let primary = class == FaultClass::PrimaryResult;
        let detected = match (primary, probe.pc_of(seq)) {
            (true, Some(pc)) => Self::primary_fault_checked(program, pc),
            (false, Some(pc)) => Self::checker_fault_checked(program, pc),
            // The fault target never committed in the window (halt
            // landed first): nothing reached the checkers.
            (_, None) => false,
        };
        // A primary fault goes architectural at the faulted seq's
        // commit; a checker-side upset never touches the main core.
        let commit = probe.commit_cycle(seq);
        let mut outcome = TrialOutcome {
            class,
            seq,
            bit,
            detected,
            detection_latency: None,
            extra_cycles: 0,
            state_clean: false,
            inject_cycle: if primary {
                probe.first_writeback(seq).or(commit)
            } else {
                commit
            },
            diverge_cycle: if primary { commit } else { None },
            detect_cycle: None,
        };
        if !detected {
            return Scored {
                outcome,
                faulted: Some(Faulted::of(r)),
            };
        }
        // Caught at check completion; rollback restores the last
        // verified checkpoint, so the architectural state is clean and
        // the cost is the latency plus the rollback penalty.
        let checked = probe
            .checked_cycle(seq)
            .expect("detected fault must be in the commit stream");
        let latency = checked.saturating_sub(commit.expect("checked after its commit"));
        outcome.detection_latency = Some(latency);
        outcome.extra_cycles = latency + self.rollback;
        outcome.state_clean = true;
        outcome.detect_cycle = Some(checked);
        Scored {
            outcome,
            faulted: None,
        }
    }

    /// [`DetectionScheme::run_window_trials`] under one observer. The
    /// clean pass is the window baseline, in core cycles: trial
    /// recovery cost is charged explicitly from the checker model, and
    /// mixing the drain tail into the reference would double-count it.
    /// From the program start the clean run reported is the whole run,
    /// over when its last commit is checked, as in `run_limit`.
    fn window_trials<O: WindowObserver>(
        &self,
        program: &Program,
        from: Option<&Checkpoint>,
        budget: u64,
        keys: &[(FaultClass, u64, u8)],
        obs: O,
    ) -> Result<WindowTrials, String> {
        let primary: Vec<_> = keys
            .iter()
            .copied()
            .filter(|&(class, _, _)| class == FaultClass::PrimaryResult)
            .collect();
        // Checker-side keys are scored from the clean pass, so it
        // watches their seqs.
        let mut probe = CommitProbe::new().checked();
        for &(class, seq, _) in keys {
            if class != FaultClass::PrimaryResult {
                probe.watch(seq);
            }
        }
        let score = |key, r: &SchemeRun, probe: &CommitProbe| self.score(program, key, r, probe);
        let obs = Pair(probe, obs);
        let (clean, stats, probe, obs, forked, screened) =
            forked_window(&self.sim, program, from, budget, &primary, obs, score)?;
        // A checker-side upset never touches the main core, so its
        // faulted run — observers included — is the clean run itself.
        let mut forked = forked.into_iter();
        let scored = keys
            .iter()
            .map(|&key| match key.0 {
                FaultClass::PrimaryResult => forked.next().expect("one fork per primary key"),
                _ => Some(Ok((score(key, &clean, &probe), obs.clone()))),
            })
            .collect();
        let mut w = judged(clean, stats, obs, scored, screened);
        if from.is_none() {
            w.clean.cycles = w.clean.cycles.max(probe.verified_end());
        }
        Ok(w)
    }
}

impl DetectionScheme for MeekScheme {
    fn scheme(&self) -> Scheme {
        Scheme::Meek
    }

    fn run_limit(&self, program: &Program, max_instructions: u64) -> Result<SchemeRun, String> {
        let mut probe = CommitProbe::new().checked();
        let mut run = self
            .sim
            .simulate(RunSpec::new(program).limit(max_instructions), &mut probe)
            .map(SchemeRun::from)
            .map_err(|e| e.to_string())?;
        // The run is over when the last commit has been *checked*.
        run.cycles = run.cycles.max(probe.verified_end());
        Ok(run)
    }

    fn run_trial(&self, mut t: Trial<'_>) -> Result<TrialOutcome, String> {
        // Primary-result faults corrupt the main core architecturally;
        // checker-side (redundant) upsets corrupt only the checker's
        // latched copy, so the main core stays clean.
        let mut emu = t.ck.restore(t.program);
        if t.class == FaultClass::PrimaryResult {
            emu.inject_result_fault(t.seq, t.bit);
        }
        let mut probe = CommitProbe::watching(t.seq).checked();
        let r = SchemeRun::from(probed_window(&self.sim, &mut t, emu, &mut probe)?);
        Ok(self
            .score(t.program, (t.class, t.seq, t.bit), &r, &probe)
            .against(t.baseline))
    }

    fn run_window_trials(
        &self,
        program: &Program,
        from: Option<&Checkpoint>,
        budget: u64,
        keys: &[(FaultClass, u64, u8)],
        observers: Observers,
    ) -> Result<WindowTrials, String> {
        with_observers!(observers.tracer, observers.log, |obs| {
            self.window_trials(program, from, budget, keys, obs)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_trace::{CycleState, Observer, Stage, TraceEvent};

    /// The checker-bank recurrence over a whole recorded commit stream
    /// `(seq, cycle, pc)`: the completion cycle of each commit's check.
    /// Instruction `i` cannot enqueue before instruction
    /// `i - QUEUE_DEPTH` has been checked.
    fn checker_completions(commits: &[(u64, u64, u64)]) -> Vec<u64> {
        let mut complete = Vec::with_capacity(commits.len());
        let mut free = [0u64; CHECKERS];
        for (i, &(_, commit_cycle, _)) in commits.iter().enumerate() {
            let enqueue = if i >= QUEUE_DEPTH {
                commit_cycle.max(complete[i - QUEUE_DEPTH])
            } else {
                commit_cycle
            };
            let (slot, &earliest) = free
                .iter()
                .enumerate()
                .min_by_key(|&(_, &t)| t)
                .expect("CHECKERS > 0");
            let done = enqueue.max(earliest) + 1;
            free[slot] = done;
            complete.push(done);
        }
        complete
    }

    /// The check completions [`CheckerBank`] folds out of `commits`.
    fn folded(commits: &[(u64, u64, u64)]) -> Vec<u64> {
        let mut bank = CheckerBank::default();
        commits
            .iter()
            .map(|&(_, cycle, _)| bank.push(cycle))
            .collect()
    }

    /// Records every commit of a run, in commit order.
    #[derive(Default)]
    struct Commits(Vec<(u64, u64, u64)>);

    impl Observer for Commits {
        const ENABLED: bool = true;

        fn event(&mut self, ev: TraceEvent) {
            if ev.stage == Stage::Commit {
                self.0.push((ev.seq, ev.cycle, ev.pc));
            }
        }

        fn cycle(&mut self, _cycle: u64, _state: &CycleState) {}

        fn idle_skip(&mut self, _from: u64, _to: u64, _state: &CycleState) {}
    }

    #[test]
    fn the_folded_bank_equals_the_recurrence_over_a_recorded_stream() {
        let program = reese_workloads::Kernel::Database.build(1);
        let config = ReeseConfig::starting();
        let sim = PipelineSim::new(config.pipeline.clone());
        // Watch every 97th instruction and the last one.
        let n = 4_000;
        let watched: Vec<u64> = (0..n).step_by(97).chain([n - 1]).collect();
        let mut probe = CommitProbe::new().checked();
        for &seq in &watched {
            probe.watch(seq);
        }
        let mut commits = Commits::default();
        let spec = RunSpec::new(&program).limit(n);
        sim.simulate(spec, &mut Pair(&mut probe, &mut commits))
            .unwrap();
        let stream = commits.0;
        assert_eq!(stream.len() as u64, n);
        let complete = checker_completions(&stream);
        assert_eq!(folded(&stream), complete);
        // Commit is in program order here, so seq i is commit i.
        for &seq in &watched {
            let i = seq as usize;
            assert_eq!(stream[i].0, seq);
            assert_eq!(probe.checked_cycle(seq), Some(complete[i]), "seq {seq}");
            assert_eq!(probe.commit_cycle(seq), Some(stream[i].1));
            assert_eq!(probe.pc_of(seq), Some(stream[i].2));
        }
        assert_eq!(probe.verified_end(), *complete.last().unwrap());
        assert_eq!(probe.last_commit(), Some(stream.last().unwrap().1));
        // The real stream rarely outruns two checkers; squeezed into an
        // eighth of the cycles, it keeps the queue pushing back.
        let squeezed: Vec<_> = stream.iter().map(|&(s, c, pc)| (s, c / 8, pc)).collect();
        let complete = checker_completions(&squeezed);
        assert_eq!(folded(&squeezed), complete);
        let waits = (QUEUE_DEPTH..n as usize)
            .filter(|&i| complete[i - QUEUE_DEPTH] > squeezed[i].1)
            .count();
        assert!(waits > n as usize / 4, "{waits} enqueues waited");
    }

    #[test]
    fn checker_bank_paces_at_one_per_cycle_per_checker() {
        // 4 instructions all committing at cycle 10, 2 checkers: pairs
        // finish at 11, 12.
        let commits: Vec<(u64, u64, u64)> = (0..4).map(|i| (i, 10, 0)).collect();
        assert_eq!(folded(&commits), vec![11, 11, 12, 12]);
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        // A burst far larger than the queue: instruction i cannot even
        // enqueue before instruction i - QUEUE_DEPTH has been checked.
        let n = QUEUE_DEPTH * 3;
        let commits: Vec<(u64, u64, u64)> = (0..n as u64).map(|i| (i, 5, 0)).collect();
        let complete = folded(&commits);
        let last = *complete.last().unwrap();
        // 2 checkers, 1/cycle: the burst drains at ~n/2 cycles.
        assert_eq!(last, 5 + (n as u64).div_ceil(CHECKERS as u64));
        // Every enqueue respected the slot recurrence.
        for i in QUEUE_DEPTH..n {
            assert!(complete[i] > complete[i - QUEUE_DEPTH]);
        }
    }

    #[test]
    fn idle_checkers_finish_next_cycle() {
        let commits = vec![(0, 100, 0), (1, 200, 0)];
        assert_eq!(folded(&commits), vec![101, 201]);
    }
}
