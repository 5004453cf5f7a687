//! The baseline out-of-order superscalar simulator: the timing core
//! with no redundancy policy.

use crate::timing::{emit, Core, Redundancy, RunSpec};
use crate::{PipelineConfig, Seq, SimError, SimResult, SimStop};
use reese_isa::Program;
use reese_trace::{NoopObserver, Observer, Stage, Stream};

/// The baseline machine: SimpleScalar `sim-outorder` re-imagined in
/// Rust. Fetch → dispatch → out-of-order issue → writeback → in-order
/// commit, with an RUU, an LSQ, a gshare front end, and the paper's
/// Table 1 cache hierarchy.
///
/// # Example
///
/// ```
/// use reese_pipeline::{PipelineConfig, PipelineSim};
///
/// let prog = reese_isa::assemble(
///     "  li t0, 100\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n",
/// )?;
/// let result = PipelineSim::new(PipelineConfig::starting()).run(&prog)?;
/// assert_eq!(result.committed_instructions(), 202);
/// assert!(result.ipc() > 0.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PipelineSim {
    config: PipelineConfig,
}

impl PipelineSim {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid
    /// (see [`PipelineConfig::validate`]).
    pub fn new(config: PipelineConfig) -> PipelineSim {
        config.validate();
        PipelineSim { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs a program to its `halt`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Emulation`] if the program misbehaves and
    /// [`SimError::Deadlock`] on an internal invariant violation.
    pub fn run(&self, program: &Program) -> Result<SimResult, SimError> {
        self.simulate(RunSpec::new(program), &mut NoopObserver)
    }

    /// Simulates `spec` — from program start or from a warm checkpoint
    /// — reporting per-instruction lifecycle events and per-cycle state
    /// to `obs`. Observers are passive: results are bit-identical with
    /// any observer, and with [`NoopObserver`] the hooks compile away.
    ///
    /// # Errors
    ///
    /// See [`PipelineSim::run`].
    pub fn simulate<O: Observer>(
        &self,
        spec: RunSpec<'_>,
        obs: &mut O,
    ) -> Result<SimResult, SimError> {
        Core::new(&self.config, spec.emulator, spec.warm, |_| ()).run(spec.max_instructions, obs)
    }

    /// Simulates the fault-free `spec` once and, in the same pass, one
    /// faulted run per `(seq, bit)` in `faults`: each forks from the
    /// clean machine just before `seq` can execute (see
    /// [`Core::run_forked`]) with bit `bit` of `seq`'s result flipped
    /// architecturally ([`reese_cpu::Emulator::inject_result_fault`]).
    /// `watch(obs, seq)` tells the fork's copy of the observer which
    /// instruction was hit; `each(i, result, obs)` receives fork `i`.
    /// Each fork's result equals [`PipelineSim::simulate`] with the
    /// fault armed on the start emulator. Returns the clean result.
    ///
    /// # Errors
    ///
    /// See [`PipelineSim::run`]; a fork's own error goes to `each`.
    pub fn simulate_forked<O: Observer + Clone>(
        &self,
        spec: RunSpec<'_>,
        faults: &[(Seq, u8)],
        obs: &mut O,
        mut watch: impl FnMut(&mut O, Seq),
        each: impl FnMut(usize, Result<SimResult, SimError>, O),
    ) -> Result<SimResult, SimError> {
        let targets: Vec<Seq> = faults.iter().map(|&(seq, _)| seq).collect();
        Core::new(&self.config, spec.emulator, spec.warm, |_| ()).run_forked(
            &targets,
            spec.max_instructions,
            obs,
            |i, fork, fork_obs| {
                let (seq, bit) = faults[i];
                fork.fetch.inject_result_fault(seq, bit);
                watch(fork_obs, seq);
            },
            each,
        )
    }
}

/// The unprotected baseline: in-order commit straight from the RUU head.
impl Redundancy for () {
    type Output = SimResult;
    type Error = SimError;

    fn commit_one<O: Observer>(m: &mut Core<'_, ()>, obs: &mut O) -> bool {
        if !m.ruu.head().is_some_and(|e| e.completed) {
            return false;
        }
        let e = m.ruu.pop_head();
        m.lsq.remove(e.seq);
        emit(
            obs,
            m.cycle,
            e.seq,
            e.info.pc,
            Stage::Commit,
            Stream::Primary,
        );
        m.retire(&e.info)
    }

    fn finish(m: Core<'_, ()>, stop: SimStop) -> SimResult {
        m.into_parts(stop).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedulerMode;
    use reese_cpu::Emulator;
    use reese_isa::assemble;

    fn run(src: &str) -> SimResult {
        let prog = assemble(src).unwrap();
        PipelineSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap()
    }

    #[test]
    fn trivial_program_halts() {
        let r = run("  li t0, 1\n  halt\n");
        assert_eq!(r.stop, SimStop::Halted);
        assert_eq!(r.committed_instructions(), 2);
        assert!(r.cycles() >= 2);
    }

    #[test]
    fn loop_matches_emulator_instruction_count() {
        let src = "  li t0, 50\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n";
        let prog = assemble(src).unwrap();
        let emu = Emulator::new(&prog).run(10_000).unwrap();
        let sim = PipelineSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        assert_eq!(sim.committed_instructions(), emu.instructions);
        assert_eq!(sim.state_digest, emu.state_digest);
    }

    #[test]
    fn output_collected_at_commit() {
        let r = run("  li a0, 1\n  print a0\n  li a0, 2\n  print a0\n  halt\n");
        assert_eq!(r.output, vec![1, 2]);
        assert_eq!(r.exit_code, Some(2));
    }

    #[test]
    fn dependent_chain_is_serialised() {
        // 20 dependent adds cannot exceed 1 IPC through the adder chain.
        let mut src = String::from("  li t0, 1\n");
        for _ in 0..20 {
            src.push_str("  add t0, t0, t0\n");
        }
        src.push_str("  halt\n");
        let r = run(&src);
        assert!(
            r.cycles() >= 20,
            "dependence chain must serialise, got {} cycles",
            r.cycles()
        );
    }

    #[test]
    fn independent_ops_reach_high_ipc() {
        // A hot loop of independent adds: once the i-cache warms and the
        // loop branch trains, IPC should comfortably exceed 1.5.
        let r = run("  li s0, 200\n\
             loop: addi t0, t0, 1\n  addi t1, t1, 1\n  addi t2, t2, 1\n\
             \n  addi s0, s0, -1\n  bnez s0, loop\n  halt\n");
        assert!(r.ipc() > 1.5, "independent loop IPC {:.2} too low", r.ipc());
    }

    #[test]
    fn cold_straight_line_code_pays_icache_misses() {
        // 400 straight-line instructions never reuse an i-cache line, so
        // IPC is dominated by cold misses — a real effect the hierarchy
        // must charge.
        let mut src = String::from("  li t0, 1\n");
        for _ in 0..100 {
            src.push_str(
                "  addi t0, t0, 1\n  addi t1, t1, 1\n  addi t2, t2, 1\n  addi t3, t3, 1\n",
            );
        }
        src.push_str("  halt\n");
        let r = run(&src);
        assert!(
            r.ipc() < 1.0,
            "cold-code IPC {:.2} suspiciously high",
            r.ipc()
        );
        let h = r.stats.hierarchy.unwrap();
        assert!(h.l1i.misses >= 100, "every line is a cold miss");
    }

    #[test]
    fn memory_program_correct() {
        let r = run(
            "  la a0, arr\n  li t0, 0\n  li t1, 10\n\
             loop: slli t2, t0, 3\n  add t3, a0, t2\n  sd t0, 0(t3)\n  addi t0, t0, 1\n  bne t0, t1, loop\n\
             \n  ld a1, 72(a0)\n  print a1\n  halt\n  .data\narr: .space 80\n",
        );
        assert_eq!(r.output, vec![9]);
    }

    #[test]
    fn store_load_forwarding_counted() {
        let r = run("  li t0, 7\n  sd t0, -8(sp)\n  ld t1, -8(sp)\n  print t1\n  halt\n");
        assert_eq!(r.output, vec![7]);
        assert!(
            r.stats.loads_forwarded >= 1,
            "the reload must forward from the store"
        );
    }

    #[test]
    fn division_stalls_ruu() {
        // Long dependent division chain: low IPC expected.
        let r = run(
            "  li t0, 1000000\n  li t1, 3\n\
             \n  div t2, t0, t1\n  div t2, t2, t1\n  div t2, t2, t1\n  div t2, t2, t1\n  print t2\n  halt\n",
        );
        assert_eq!(r.output, vec![12345]);
        assert!(
            r.cycles() > 80,
            "four dependent 20-cycle divides, got {}",
            r.cycles()
        );
    }

    #[test]
    fn instruction_limit_stops_run() {
        let prog = assemble("loop: addi t0, t0, 1\n  j loop\n  halt\n").unwrap();
        let r = PipelineSim::new(PipelineConfig::starting())
            .simulate(RunSpec::new(&prog).limit(100), &mut NoopObserver)
            .unwrap();
        assert_eq!(r.stop, SimStop::InstructionLimit);
        assert!(r.committed_instructions() >= 100);
    }

    #[test]
    fn cycle_limit_stops_run() {
        let prog = assemble("loop: addi t0, t0, 1\n  j loop\n  halt\n").unwrap();
        let mut cfg = PipelineConfig::starting();
        cfg.max_cycles = 1000;
        let r = PipelineSim::new(cfg).run(&prog).unwrap();
        assert_eq!(r.stop, SimStop::CycleLimit);
        assert_eq!(r.cycles(), 1000);
    }

    #[test]
    fn wild_jump_is_an_error() {
        let prog = assemble("  li t0, 0x900000\n  jalr x0, 0(t0)\n  halt\n").unwrap();
        let err = PipelineSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap_err();
        assert!(matches!(err, SimError::Emulation(_)));
    }

    #[test]
    fn determinism() {
        let src =
            "  li t0, 500\nloop: addi t0, t0, -1\n  mul t1, t0, t0\n  bnez t0, loop\n  halt\n";
        let a = run(src);
        let b = run(src);
        assert_eq!(a, b);
    }

    #[test]
    fn scan_and_event_driven_agree() {
        // The event-driven scheduler is an implementation change only:
        // every statistic must match the per-cycle scan bit for bit.
        let srcs = [
            "  li t0, 200\nloop: addi t0, t0, -1\n  mul t1, t0, t0\n  bnez t0, loop\n  halt\n",
            "  li t0, 9\n  li t1, 3\n  div t2, t0, t1\n  div t2, t2, t1\n  print t2\n  halt\n",
            "  li t0, 7\n  sd t0, -8(sp)\n  ld t1, -8(sp)\n  print t1\n  halt\n",
        ];
        for src in srcs {
            let prog = assemble(src).unwrap();
            let scan =
                PipelineSim::new(PipelineConfig::starting().with_scheduler(SchedulerMode::Scan))
                    .run(&prog)
                    .unwrap();
            let event = PipelineSim::new(
                PipelineConfig::starting().with_scheduler(SchedulerMode::EventDriven),
            )
            .run(&prog)
            .unwrap();
            assert_eq!(scan, event, "modes diverged on {src:?}");
        }
    }

    #[test]
    fn idle_skip_preserves_cycle_limit_semantics() {
        // A long divide chain leaves many cycles with nothing to do;
        // the skipping clock must still stop on the exact same cycle.
        let src = "  li t0, 1000000\n  li t1, 3\n  div t2, t0, t1\n  div t2, t2, t1\n  div t2, t2, t1\n  halt\n";
        let prog = assemble(src).unwrap();
        for limit in [10, 25, 40] {
            let mut scan_cfg = PipelineConfig::starting().with_scheduler(SchedulerMode::Scan);
            scan_cfg.max_cycles = limit;
            let mut event_cfg =
                PipelineConfig::starting().with_scheduler(SchedulerMode::EventDriven);
            event_cfg.max_cycles = limit;
            let a = PipelineSim::new(scan_cfg).run(&prog).unwrap();
            let b = PipelineSim::new(event_cfg).run(&prog).unwrap();
            assert_eq!(a, b, "cycle limit {limit}");
            assert_eq!(b.stop, SimStop::CycleLimit);
        }
    }

    #[test]
    fn stats_populated() {
        let r = run("  li t0, 30\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n");
        assert!(r.stats.fetched >= r.stats.committed);
        assert!(r.stats.issued >= r.stats.committed);
        assert!(r.stats.branch.branch_lookups >= 30);
        assert!(r.stats.hierarchy.is_some());
        assert_eq!(r.stats.fu_utilisation.len(), 5);
    }

    #[test]
    fn subroutine_program() {
        let r = run("        .entry main\n\
             square: mul a0, a0, a0\n\
                     ret\n\
             main:   li a0, 9\n\
                     call square\n\
                     print a0\n\
                     halt\n");
        assert_eq!(r.output, vec![81]);
    }
}
