//! The dispatch-duplication baseline (after Franklin, the paper's
//! reference \[24\]).
//!
//! Franklin's scheme duplicates every instruction *at the dynamic
//! scheduler*: both copies occupy window slots, issue like ordinary
//! instructions, and their results are compared at the bottom of the
//! pipeline. There is no R-stream Queue, no carried operands, and no
//! guaranteed cache hits — the redundant copy competes for everything.
//!
//! REESE's §3 argument ("our approach goes a step further than
//! Franklin") is that deferring the redundant execution into a
//! dedicated queue frees window capacity and removes the redundant
//! stream's dependences. [`DuplexSim`] makes that claim measurable:
//! run the same workload on both machines and compare.

use crate::seqmap::SeqTable;
use crate::sim::{fault_table, Checker};
use crate::{InjectedFault, ReeseError, ReeseResult, ReeseStats, Stream};
use reese_isa::Program;
use reese_pipeline::{emit, Core, PipelineConfig, Redundancy, RunSpec, Seq, SimStop};
use reese_trace::{CycleState, NoopObserver, Observer, Stage, Stream as TStream};

/// The dispatch-duplication machine: every fetched instruction enters
/// the RUU twice (redundant copy first, primary copy second, so
/// dependants read the primary), both copies execute, and the pair
/// commits together after an implicit comparison.
///
/// # Example
///
/// ```
/// use reese_core::DuplexSim;
/// use reese_pipeline::PipelineConfig;
///
/// let prog = reese_isa::assemble(
///     "  li t0, 10\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n",
/// )?;
/// let r = DuplexSim::new(PipelineConfig::starting()).run(&prog)?;
/// assert_eq!(r.committed_instructions(), 22);
/// assert_eq!(r.stats.comparisons, 22);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DuplexSim {
    config: PipelineConfig,
}

impl DuplexSim {
    /// Creates the dispatch-duplication machine over a baseline
    /// pipeline configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: PipelineConfig) -> DuplexSim {
        config.validate();
        DuplexSim { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs a program to its `halt`.
    ///
    /// # Errors
    ///
    /// Returns [`ReeseError::Sim`] for program or simulator failures.
    pub fn run(&self, program: &Program) -> Result<ReeseResult, ReeseError> {
        self.simulate(RunSpec::new(program), &mut NoopObserver)
    }

    /// Simulates `spec` — from program start or from a warm checkpoint
    /// — injecting its latch faults, with `obs` receiving per-cycle
    /// state and per-instruction lifecycle events.
    /// A fault targeting dynamic instruction `seq` corrupts one copy's
    /// latched result, so the pair comparison at commit fails: the
    /// machine records a [`crate::DetectionEvent`], flushes, and
    /// re-executes from the faulting instruction — Franklin's
    /// comparison at the bottom of the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`ReeseError::PermanentFault`] if a sticky fault makes
    /// the same comparison fail twice in a row, or [`ReeseError::Sim`]
    /// for program or simulator failures.
    pub fn simulate<O: Observer>(
        &self,
        spec: RunSpec<'_, &[InjectedFault]>,
        obs: &mut O,
    ) -> Result<ReeseResult, ReeseError> {
        let pol = Twin {
            stats: ReeseStats::new(1),
            faults: fault_table(spec.faults),
            check: Checker::default(),
        };
        Core::new(&self.config, spec.emulator, spec.warm, |_| pol).run(spec.max_instructions, obs)
    }

    /// Simulates the fault-free `spec` once and, in the same pass, one
    /// faulted run per fault in `faults`: each forks from the clean
    /// machine just before its target can execute (see
    /// [`Core::run_forked`]) with that one fault installed, exactly as
    /// [`DuplexSim::simulate`] with that fault would run it. `each(i,
    /// result, obs)` receives fork `i` with its copy of the observer.
    /// Returns the clean result.
    ///
    /// # Errors
    ///
    /// See [`DuplexSim::run`]; a fork's own error goes to `each`.
    pub fn simulate_forked<O: Observer + Clone>(
        &self,
        spec: RunSpec<'_>,
        faults: &[InjectedFault],
        obs: &mut O,
        each: impl FnMut(usize, Result<ReeseResult, ReeseError>, O),
    ) -> Result<ReeseResult, ReeseError> {
        let pol = Twin {
            stats: ReeseStats::new(1),
            faults: SeqTable::new(),
            check: Checker::default(),
        };
        let targets: Vec<Seq> = faults.iter().map(|f| f.seq).collect();
        Core::new(&self.config, spec.emulator, spec.warm, |_| pol).run_forked(
            &targets,
            spec.max_instructions,
            obs,
            |i, fork, _| fork.pol.faults = fault_table(&faults[i..=i]),
            each,
        )
    }
}

/// The dispatch-twin policy. Copies are identified by RUU seq parity:
/// the redundant copy of fetched instruction `s` is entry `2s`, the
/// primary `2s + 1`. There is no R-stream Queue, so the queue occupancy
/// and missed-slot counters stay zero.
#[derive(Clone)]
struct Twin {
    stats: ReeseStats,
    /// Pending injected faults keyed by *fetch* seq (the pair index).
    faults: SeqTable<Vec<InjectedFault>>,
    check: Checker,
}

impl Twin {
    /// A pair comparison failed at the RUU head: record the detection
    /// and flush the machine back to the faulting instruction. A
    /// transient fault is consumed (the re-execution compares clean); a
    /// sticky fault fires again and the second consecutive mismatch
    /// stops the machine as a permanent fault.
    fn detect_and_flush<O: Observer>(
        m: &mut Core<'_, Self>,
        seq: Seq,
        pc: u64,
        r_done: u64,
        p_done: u64,
        obs: &mut O,
    ) {
        let list = m.pol.faults.get_mut(seq).expect("pending fault");
        let fault = list[0];
        if !fault.sticky {
            list.remove(0);
        }
        let inject_cycle = match fault.stream {
            Stream::Primary => p_done,
            Stream::Redundant => r_done,
        };
        // The mismatching comparison, then the squash it triggers.
        emit(
            obs,
            m.cycle,
            seq * 2,
            pc,
            Stage::Compare,
            TStream::Redundant,
        );
        emit(
            obs,
            m.cycle,
            seq * 2 + 1,
            pc,
            Stage::Flush,
            TStream::Primary,
        );
        let pol = &mut m.pol;
        if pol
            .check
            .mismatch(&mut pol.stats, seq, pc, m.cycle, inject_cycle)
        {
            // Duplex has no dedicated flush ladder; the recovery squash
            // costs the same front-end refill as a mispredict.
            m.flush_to(seq, m.cfg.mispredict_penalty);
        }
    }
}

impl Redundancy for Twin {
    type Output = ReeseResult;
    type Error = ReeseError;

    const COPIES: usize = 2;

    /// Commits a pair: the redundant copy (even RUU seq) and the primary
    /// copy (odd RUU seq) retire together once both have completed —
    /// the comparison point of Franklin's scheme.
    fn commit_one<O: Observer>(m: &mut Core<'_, Self>, obs: &mut O) -> bool {
        let Some(r_seq) = m.ruu.completed_head() else {
            return false;
        };
        debug_assert_eq!(r_seq % 2, 0, "head of a pair is the redundant copy");
        if !m.ruu.is_completed(r_seq + 1) {
            return false;
        }
        // The comparison point: a pending injected fault corrupted one
        // copy's latched result, so the pair mismatches here.
        let pair_seq = r_seq / 2;
        let p_seq = r_seq + 1;
        // Both copies execute the one record in the front end's window.
        let pc = m.fetch.record(pair_seq).pc;
        if m.pol.faults.get(pair_seq).is_some_and(|l| !l.is_empty()) {
            let r_done = m.ruu.complete_cycle(r_seq).expect("completed");
            let p_done = m.ruu.complete_cycle(p_seq).expect("completed");
            Self::detect_and_flush(m, pair_seq, pc, r_done, p_done, obs);
            return false;
        }
        m.ruu.pop_head();
        m.ruu.pop_head();
        emit(obs, m.cycle, r_seq, pc, Stage::Compare, TStream::Redundant);
        emit(obs, m.cycle, p_seq, pc, Stage::Commit, TStream::Primary);
        m.lsq.remove(r_seq);
        m.lsq.remove(p_seq);
        m.pol.stats.comparisons += 1;
        m.pol.check.matched(pair_seq);
        m.retire()
    }

    fn fatal(&self) -> Option<ReeseError> {
        self.check.fatal()
    }

    fn issued(&mut self, seq: Seq) {
        if seq.is_multiple_of(2) {
            self.stats.r_issued += 1;
        }
    }

    fn observe(&self, state: &mut CycleState) {
        state.r_issued = self.stats.r_issued;
    }

    fn finish(m: Core<'_, Self>, stop: SimStop) -> ReeseResult {
        let (base, pol) = m.into_parts(stop);
        ReeseResult::assemble(base, pol.stats, pol.check.detections, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReeseConfig, ReeseSim, SchedulerMode};
    use reese_isa::assemble;
    use reese_pipeline::PipelineSim;

    const LOOP: &str = "  li t0, 100\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n";

    #[test]
    fn duplex_commits_correct_results() {
        let prog = assemble(LOOP).unwrap();
        let base = PipelineSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        let dup = DuplexSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        assert_eq!(dup.committed_instructions(), base.committed_instructions());
        assert_eq!(dup.state_digest, base.state_digest);
        assert_eq!(dup.output, base.output);
        assert_eq!(dup.stats.comparisons, dup.committed_instructions());
    }

    #[test]
    fn duplex_is_slower_than_baseline() {
        let prog = assemble(LOOP).unwrap();
        let base = PipelineSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        let dup = DuplexSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        assert!(
            dup.cycles() > base.cycles(),
            "two window slots per instruction must cost cycles ({} vs {})",
            dup.cycles(),
            base.cycles()
        );
    }

    #[test]
    fn reese_beats_dispatch_duplication() {
        // The paper's §3 claim: deferring redundancy into the R-stream
        // Queue beats duplicating in the scheduler window.
        let prog = reese_workloads_like_program();
        let dup = DuplexSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        let reese = ReeseSim::new(ReeseConfig::starting()).run(&prog).unwrap();
        assert!(
            reese.ipc() > dup.ipc(),
            "REESE {:.3} must beat dispatch duplication {:.3}",
            reese.ipc(),
            dup.ipc()
        );
    }

    /// A loop with enough mixed work for the window pressure to matter.
    fn reese_workloads_like_program() -> reese_isa::Program {
        assemble(
            "  la a0, buf\n  li s0, 400\n\
             loop: andi t4, s0, 255\n  slli t2, t4, 3\n  add t3, a0, t2\n  ld t0, 0(t3)\n\
             \n  addi t0, t0, 3\n  mul t1, t0, s0\n  xor t5, t5, t1\n  sd t0, 0(t3)\n\
             \n  addi s0, s0, -1\n  bnez s0, loop\n  print t5\n  halt\n\
             \n  .data\nbuf: .space 2048\n",
        )
        .unwrap()
    }

    #[test]
    fn duplex_handles_memory_and_calls() {
        let prog = assemble(
            "        .entry main\n\
             f:      sd a0, -8(sp)\n\
                     ld a1, -8(sp)\n\
                     add a0, a1, a1\n\
                     ret\n\
             main:   li a0, 21\n\
                     call f\n\
                     print a0\n\
                     halt\n",
        )
        .unwrap();
        let r = DuplexSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        assert_eq!(r.output, vec![42]);
    }

    #[test]
    fn duplex_respects_instruction_limit() {
        let prog = assemble("loop: addi t0, t0, 1\n  j loop\n  halt\n").unwrap();
        let r = DuplexSim::new(PipelineConfig::starting())
            .simulate(RunSpec::new(&prog).limit(50), &mut NoopObserver)
            .unwrap();
        assert_eq!(r.stop, SimStop::InstructionLimit);
        assert!(r.committed_instructions() >= 50);
    }

    #[test]
    fn scan_and_event_driven_agree() {
        let prog = reese_workloads_like_program();
        let scan = DuplexSim::new(PipelineConfig::starting().with_scheduler(SchedulerMode::Scan))
            .run(&prog)
            .unwrap();
        let event =
            DuplexSim::new(PipelineConfig::starting().with_scheduler(SchedulerMode::EventDriven))
                .run(&prog)
                .unwrap();
        assert_eq!(scan, event);
    }

    #[test]
    fn transient_fault_is_detected_and_recovered() {
        let prog = assemble(LOOP).unwrap();
        let clean = DuplexSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        let faulted = DuplexSim::new(PipelineConfig::starting())
            .simulate(
                RunSpec::new(&prog).faults(&[InjectedFault::primary(40, 7)][..]),
                &mut NoopObserver,
            )
            .unwrap();
        assert_eq!(faulted.stats.detections, 1);
        assert_eq!(faulted.stats.flushes, 1);
        assert_eq!(faulted.detections.len(), 1);
        assert_eq!(faulted.detections[0].seq, 40);
        // Recovery is architecturally transparent.
        assert_eq!(faulted.output, clean.output);
        assert_eq!(faulted.state_digest, clean.state_digest);
        assert!(
            faulted.cycles() > clean.cycles(),
            "the detection flush must cost cycles"
        );
    }

    #[test]
    fn redundant_stream_fault_is_detected_too() {
        let prog = assemble(LOOP).unwrap();
        let r = DuplexSim::new(PipelineConfig::starting())
            .simulate(
                RunSpec::new(&prog).faults(&[InjectedFault::redundant(10, 3)][..]),
                &mut NoopObserver,
            )
            .unwrap();
        assert_eq!(r.stats.detections, 1);
        assert!(r.detections[0].detect_cycle >= r.detections[0].inject_cycle);
    }

    #[test]
    fn permanent_fault_stops_the_machine() {
        let prog = assemble(LOOP).unwrap();
        let err = DuplexSim::new(PipelineConfig::starting())
            .simulate(
                RunSpec::new(&prog).faults(&[InjectedFault::permanent(15, 2)][..]),
                &mut NoopObserver,
            )
            .unwrap_err();
        assert!(matches!(err, ReeseError::PermanentFault { seq: 15, .. }));
    }

    #[test]
    fn faulted_scan_and_event_driven_agree() {
        let prog = reese_workloads_like_program();
        let faults = [
            InjectedFault::primary(100, 5),
            InjectedFault::redundant(900, 60),
        ];
        let scan = DuplexSim::new(PipelineConfig::starting().with_scheduler(SchedulerMode::Scan))
            .simulate(RunSpec::new(&prog).faults(&faults[..]), &mut NoopObserver)
            .unwrap();
        let event =
            DuplexSim::new(PipelineConfig::starting().with_scheduler(SchedulerMode::EventDriven))
                .simulate(RunSpec::new(&prog).faults(&faults[..]), &mut NoopObserver)
                .unwrap();
        assert_eq!(scan, event);
        assert_eq!(scan.stats.detections, 2);
    }

    #[test]
    fn duplex_determinism() {
        let prog = assemble(LOOP).unwrap();
        let a = DuplexSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        let b = DuplexSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        assert_eq!(a, b);
    }
}
