//! Fast functional fast-forward: run the emulator to chosen instruction
//! boundaries and emit continuous-warm [`Checkpoint`]s.
//!
//! Every entry point drives one loop, `FastForward`: the emulator steps
//! one instruction at a time and each committed instruction also drives
//! a cache hierarchy and branch predictor, from instruction 0 (or from
//! the warm state of the checkpoint a pass resumes from). Every
//! checkpoint past instruction 0 therefore carries the **full history**
//! of the caches, TLBs, and predictor, and a checkpoint at a given
//! boundary is bit-identical whichever entry point captured it. Full
//! history matters to both consumers: a sharded interval starts from the
//! cache and predictor contents the monolithic run had at its boundary,
//! and a replay-anchored fault trial compares cycle-exact deltas against
//! a clean replay from the same state — a large L2 remembers lines from
//! far before any bounded window.
//!
//! The pass is purely functional — no pipeline, no scheduling — so it
//! costs one emulator step, one hierarchy access, and (for control flow)
//! one predictor update per instruction.

use crate::Checkpoint;
use reese_bpred::{BranchStats, BranchUnit};
use reese_cpu::{EmuError, Emulator, StepInfo};
use reese_isa::{OpKind, Opcode, Program, Reg};
use reese_mem::{CacheStats, MemHierarchy};
use reese_pipeline::{PipelineConfig, WarmState};

/// Evenly spaced interval start points: `i * total / intervals` for
/// `i` in `0..intervals`, deduplicated (short programs can collapse
/// adjacent boundaries). Always starts at 0.
pub fn boundaries(total: u64, intervals: usize) -> Vec<u64> {
    let k = intervals.max(1) as u64;
    let mut out: Vec<u64> = (0..k).map(|i| i * total / k).collect();
    out.dedup();
    out
}

/// Runs the program functionally from instruction 0, capturing a
/// continuous-warm [`Checkpoint`] at each of the given instruction
/// `boundaries` (which must be strictly ascending and reachable before
/// the program halts). A checkpoint at boundary 0 carries no warm state;
/// every later one carries the caches, TLBs, and branch predictor as
/// the whole prefix left them, with their statistics scrubbed so a
/// restored interval reports only its own activity.
///
/// With one boundary this is the campaign's from-scratch oracle arm: it
/// shares no state with any cached sweep, so agreement with
/// [`checkpoint_stream_thinned`] and [`derive_checkpoint`] proves the
/// sweep's reuse machinery faithful.
///
/// # Errors
///
/// Returns [`EmuError`] if the program leaves its text segment.
///
/// # Panics
///
/// Panics if `boundaries` is not strictly ascending or extends past the
/// program's halt.
pub fn checkpoints_at(
    program: &Program,
    boundaries: &[u64],
    pipeline: &PipelineConfig,
) -> Result<Vec<Checkpoint>, EmuError> {
    assert!(
        boundaries.windows(2).all(|w| w[0] < w[1]),
        "checkpoint boundaries must be strictly ascending"
    );
    let mut ff = FastForward::new(Emulator::new(program), program, pipeline);
    let mut out = Vec::with_capacity(boundaries.len());
    for &boundary in boundaries {
        ff.reach(boundary)?;
        out.push(ff.capture());
    }
    Ok(out)
}

/// Cap on checkpoints one pass holds resident. Each capture clones the
/// touched pages plus the full cache/TLB/predictor tables, so holding
/// one per boundary of a long program costs memory and capture time
/// without bound. A campaign sweep past this count thins itself (see
/// [`checkpoint_stream_thinned`]) and derives the anchors its trials use
/// afterwards; a sharded run, which holds one checkpoint per interval
/// until it stitches, rejects more intervals than this.
pub const MAX_RESIDENT_CHECKPOINTS: usize = 96;

/// Runs the program functionally to its halt (or to `max_instructions`
/// committed), capturing a continuous-warm [`Checkpoint`] every `every`
/// instructions starting at 0, with a bounded resident set: whenever
/// the sweep would hold more than `max_resident` checkpoints it drops
/// every other one and doubles the capture stride, so an arbitrarily
/// long program costs a bounded number of captures (each capture clones
/// the touched pages plus the full cache/TLB/predictor tables — on long
/// programs that, not the emulation, dominates the sweep).
///
/// The sweep doubles as the campaign's reference pass: the returned
/// length is the program's dynamic length under the same budget
/// `Emulator::run` would apply, so no separate reference emulation is
/// needed. No checkpoint is captured at the halt/budget point itself —
/// a suffix starting there would have nothing to run.
///
/// Returns the kept checkpoints (at instruction `i * stride` for
/// consecutive `i` from 0), the final stride (`every * 2^j` for some
/// `j >= 0`), and the dynamic length. Any finer-grained boundary can be
/// recovered afterwards with [`derive_checkpoint`] from the nearest
/// kept checkpoint at or below it.
///
/// # Errors
///
/// Returns [`EmuError`] if the program leaves its text segment.
///
/// # Panics
///
/// Panics if `every` is 0 or `max_resident < 2`.
pub fn checkpoint_stream_thinned(
    program: &Program,
    every: u64,
    pipeline: &PipelineConfig,
    max_instructions: u64,
    max_resident: usize,
) -> Result<(Vec<Checkpoint>, u64, u64), EmuError> {
    assert!(every > 0, "checkpoint interval must be at least 1");
    assert!(max_resident >= 2, "need at least two resident checkpoints");
    let mut ff = FastForward::new(Emulator::new(program), program, pipeline);
    let mut out: Vec<Checkpoint> = Vec::new();
    let mut stride = every;
    loop {
        let executed = ff.emu.instructions();
        if ff.emu.exit_code().is_some() || executed >= max_instructions {
            break;
        }
        if out.len() == max_resident {
            // Thin: keep the even-indexed checkpoints (still a
            // consecutive grid under the doubled stride).
            let mut i = 0;
            out.retain(|_| {
                i += 1;
                (i - 1) % 2 == 0
            });
            stride *= 2;
        }
        // After a thin the current boundary may fall off the new grid —
        // it would have been a dropped odd slot.
        if executed.is_multiple_of(stride) {
            out.push(ff.capture());
        }
        let next_boundary = (executed / stride + 1) * stride;
        ff.run_to(next_boundary.min(max_instructions))?;
    }
    Ok((out, stride, ff.emu.instructions()))
}

/// Re-derives the continuous-warm checkpoint at `boundary` from an
/// earlier one, bit-identical to what [`checkpoints_at`] or the sweep
/// would have captured there: the base carries the full
/// architectural-plus-warm history of instructions `0..base`, and the
/// snapshots are lossless, so continuing the same emulator and warm
/// structures reproduces the state exactly. This is how a campaign
/// recovers the handful of anchor boundaries its trials actually use
/// from a thinned (coarse-stride) sweep without paying a capture at
/// every fine boundary.
///
/// # Errors
///
/// Returns [`EmuError`] if the program leaves its text segment.
///
/// # Panics
///
/// Panics if `boundary` precedes the base checkpoint or lies beyond the
/// program's halt.
pub fn derive_checkpoint(
    program: &Program,
    base: &Checkpoint,
    boundary: u64,
    pipeline: &PipelineConfig,
) -> Result<Checkpoint, EmuError> {
    assert!(
        boundary >= base.instructions,
        "boundary {boundary} precedes the base checkpoint at {}",
        base.instructions
    );
    if boundary == base.instructions {
        return Ok(base.clone());
    }
    let mut ff = FastForward::new(base.restore(program), program, pipeline);
    if let Some(w) = &base.warm {
        ff.hierarchy.import_state(&w.hierarchy);
        ff.branch.import_state(&w.branch);
    }
    ff.reach(boundary)?;
    Ok(ff.capture())
}

/// The one fast-forward loop: an emulator and the warm structures its
/// committed instructions drive, stepped in lockstep.
struct FastForward {
    emu: Emulator,
    hierarchy: MemHierarchy,
    branch: BranchUnit,
    inst_size: u64,
}

impl FastForward {
    /// Pairs `emu` with cold warm structures for `pipeline`.
    fn new(emu: Emulator, program: &Program, pipeline: &PipelineConfig) -> FastForward {
        FastForward {
            emu,
            hierarchy: MemHierarchy::new(pipeline.hierarchy.clone()),
            branch: BranchUnit::new(pipeline.predictor.clone()),
            inst_size: program.inst_size(),
        }
    }

    /// Steps until `boundary` instructions have committed or the program
    /// halts, whichever comes first.
    fn run_to(&mut self, boundary: u64) -> Result<(), EmuError> {
        while self.emu.instructions() < boundary && self.emu.exit_code().is_none() {
            let info = self.emu.step()?;
            warm_step(&mut self.hierarchy, &mut self.branch, &info, self.inst_size);
        }
        Ok(())
    }

    /// [`FastForward::run_to`] a checkpoint boundary the program must
    /// reach.
    fn reach(&mut self, boundary: u64) -> Result<(), EmuError> {
        self.run_to(boundary)?;
        assert!(
            self.emu.instructions() == boundary,
            "checkpoint boundary {boundary} lies beyond the program's halt"
        );
        Ok(())
    }

    /// Captures the current state; warm state rides along past
    /// instruction 0.
    fn capture(&self) -> Checkpoint {
        let warm = (self.emu.instructions() > 0).then(|| {
            scrubbed(WarmState {
                hierarchy: self.hierarchy.export_state(),
                branch: self.branch.export_state(),
            })
        });
        Checkpoint::capture(&self.emu, warm)
    }
}

/// Drives the warm structures exactly as the detailed machine would for
/// one committed instruction: icache fetch, dcache access, and the
/// front end's predict-then-resolve sequence for control flow.
fn warm_step(
    hierarchy: &mut MemHierarchy,
    branch: &mut BranchUnit,
    info: &StepInfo,
    inst_size: u64,
) {
    hierarchy.access_inst(info.pc);
    if let Some(mem) = info.mem {
        hierarchy.access_data(mem.addr, mem.is_store);
    }
    let instr = &info.instr;
    match instr.op.kind() {
        OpKind::Branch => {
            let predicted = branch.predict_branch(info.pc);
            branch.resolve_branch(info.pc, predicted, info.taken);
        }
        OpKind::Jump => {
            if instr.op == Opcode::Jal {
                if instr.rd == Reg::RA {
                    branch.push_return(info.pc + inst_size);
                }
            } else {
                let is_return = instr.rd.is_zero() && instr.rs1 == Reg::RA;
                let predicted = if is_return {
                    branch.pop_return()
                } else {
                    branch.predict_indirect(info.pc)
                };
                if instr.rd == Reg::RA {
                    branch.push_return(info.pc + inst_size);
                }
                branch.resolve_indirect(info.pc, predicted, info.next_pc);
            }
        }
        _ => {}
    }
}

/// Zeroes the statistics carried inside a warm snapshot, keeping the
/// tactical state (lines, LRU ticks, counters, stacks). A restored
/// interval then reports only the accesses it performs itself.
fn scrubbed(mut warm: WarmState) -> WarmState {
    warm.hierarchy.l1i.stats = CacheStats::default();
    warm.hierarchy.l1d.stats = CacheStats::default();
    warm.hierarchy.l2.stats = CacheStats::default();
    for tlb in [&mut warm.hierarchy.itlb, &mut warm.hierarchy.dtlb] {
        tlb.hits = 0;
        tlb.misses = 0;
    }
    warm.hierarchy.prefetches_issued = 0;
    warm.branch.stats = BranchStats::default();
    warm
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_isa::assemble;

    const PROG: &str = "  li s0, 60\n  la a0, buf\nloop: andi t0, s0, 31\n  slli t1, t0, 3\n  \
                        add t2, a0, t1\n  sd s0, 0(t2)\n  ld t3, 0(t2)\n  addi s0, s0, -1\n  \
                        bnez s0, loop\n  halt\n  .data\nbuf: .space 256\n";

    /// The unthinned sweep: a checkpoint at every multiple of `every`.
    fn stream(prog: &Program, every: u64, max_instructions: u64) -> (Vec<Checkpoint>, u64) {
        let (out, stride, len) = checkpoint_stream_thinned(
            prog,
            every,
            &PipelineConfig::starting(),
            max_instructions,
            usize::MAX,
        )
        .unwrap();
        assert_eq!(stride, every, "an unbounded sweep never thins");
        (out, len)
    }

    #[test]
    fn boundaries_are_even_and_deduplicated() {
        assert_eq!(boundaries(100, 4), vec![0, 25, 50, 75]);
        assert_eq!(boundaries(7, 3), vec![0, 2, 4]);
        assert_eq!(boundaries(2, 8), vec![0, 1]);
        assert_eq!(boundaries(0, 4), vec![0]);
    }

    #[test]
    fn checkpoints_land_on_their_boundaries() {
        let prog = assemble(PROG).unwrap();
        let n = Emulator::new(&prog).run(u64::MAX).unwrap().instructions;
        let bs = boundaries(n, 4);
        let cks = checkpoints_at(&prog, &bs, &PipelineConfig::starting()).unwrap();
        assert_eq!(cks.len(), bs.len());
        for (ck, &b) in cks.iter().zip(&bs) {
            assert_eq!(ck.instructions, b);
            assert_eq!(ck.warm.is_some(), b > 0, "warm state rides past 0");
        }
    }

    #[test]
    fn restored_checkpoint_continues_bit_identically() {
        let prog = assemble(PROG).unwrap();
        let reference = Emulator::new(&prog).run(u64::MAX).unwrap();
        let bs = boundaries(reference.instructions, 3);
        let cks = checkpoints_at(&prog, &bs, &PipelineConfig::starting()).unwrap();
        for ck in &cks {
            let mut emu = ck.restore(&prog);
            let done = emu.run(u64::MAX).unwrap();
            assert_eq!(done.instructions, reference.instructions);
            assert_eq!(done.state_digest, reference.state_digest);
            assert_eq!(emu.output(), reference.output);
        }
    }

    #[test]
    fn warm_state_is_scrubbed_and_trained() {
        let prog = assemble(PROG).unwrap();
        let n = Emulator::new(&prog).run(u64::MAX).unwrap().instructions;
        let bs = boundaries(n, 3);
        let cks = checkpoints_at(&prog, &bs, &PipelineConfig::starting()).unwrap();
        assert!(cks[0].warm.is_none());
        for ck in &cks[1..] {
            let warm = ck.warm.as_ref().expect("warm state present");
            assert!(
                warm.hierarchy.l1d.lines.iter().any(|l| l.valid),
                "fast-forward must have touched the data cache"
            );
            assert_eq!(warm.hierarchy.l1d.stats, CacheStats::default());
            assert_eq!(warm.branch.stats, BranchStats::default());
            assert!(
                warm.branch.dir_words.iter().any(|&w| w != 0),
                "fast-forward must have trained the direction predictor"
            );
        }
    }

    #[test]
    fn checkpoints_at_equals_the_sweep_on_shared_boundaries() {
        // The campaign oracle and the shard driver both depend on this
        // identity: a from-scratch capture equals the sweep's checkpoint
        // at the same boundary, warm state included.
        let prog = assemble(PROG).unwrap();
        let n = Emulator::new(&prog).run(u64::MAX).unwrap().instructions;
        let every = 64;
        let (sweep, len) = stream(&prog, every, u64::MAX);
        assert_eq!(len, n, "the sweep doubles as the reference pass");
        let expected: Vec<u64> = (0..n).step_by(every as usize).collect();
        let got: Vec<u64> = sweep.iter().map(|c| c.instructions).collect();
        assert_eq!(got, expected);
        let batch = checkpoints_at(&prog, &expected, &PipelineConfig::starting()).unwrap();
        assert_eq!(batch, sweep);
        // One boundary at a time gives the same checkpoints.
        for ck in &sweep {
            let single =
                checkpoints_at(&prog, &[ck.instructions], &PipelineConfig::starting()).unwrap();
            assert_eq!(&single[0], ck, "boundary {}", ck.instructions);
        }
        // Full history: a restored sweep checkpoint finishes the program
        // bit-identically.
        let reference = Emulator::new(&prog).run(u64::MAX).unwrap();
        for ck in &sweep {
            let mut emu = ck.restore(&prog);
            let done = emu.run(u64::MAX).unwrap();
            assert_eq!(done.state_digest, reference.state_digest);
        }
    }

    #[test]
    fn thinned_stream_is_a_strided_subset_of_the_plain_stream() {
        let prog = assemble(PROG).unwrap();
        let every = 16;
        let (plain, _) = stream(&prog, every, u64::MAX);
        assert!(plain.len() > 8, "need enough boundaries to force thinning");
        let (thinned, stride, len) =
            checkpoint_stream_thinned(&prog, every, &PipelineConfig::starting(), u64::MAX, 4)
                .unwrap();
        assert!(thinned.len() <= 4);
        assert!(stride > every, "thinning must have engaged");
        assert_eq!(stride % every, 0, "stride doubles from the base interval");
        let n = Emulator::new(&prog).run(u64::MAX).unwrap().instructions;
        assert_eq!(len, n, "the thinned sweep still measures the length");
        let factor = (stride / every) as usize;
        for (i, ck) in thinned.iter().enumerate() {
            assert_eq!(ck.instructions, i as u64 * stride, "consecutive grid");
            assert_eq!(ck, &plain[i * factor], "boundary {}", ck.instructions);
        }
    }

    #[test]
    fn derived_checkpoint_matches_continuous_sweep() {
        // The linchpin of thinned-sweep replay: restoring an earlier
        // sweep checkpoint and warm-stepping forward must reproduce the
        // sweep's own checkpoint at the target boundary, bit for bit.
        let prog = assemble(PROG).unwrap();
        let (sweep, _) = stream(&prog, 48, u64::MAX);
        assert!(sweep.len() > 3, "need several boundaries");
        for (i, base) in sweep.iter().enumerate() {
            for target in &sweep[i..] {
                let derived = derive_checkpoint(
                    &prog,
                    base,
                    target.instructions,
                    &PipelineConfig::starting(),
                )
                .unwrap();
                assert_eq!(
                    &derived, target,
                    "derive {} -> {}",
                    base.instructions, target.instructions
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "precedes the base checkpoint")]
    fn deriving_backwards_panics() {
        let prog = assemble(PROG).unwrap();
        let (sweep, _) = stream(&prog, 48, u64::MAX);
        let _ = derive_checkpoint(&prog, &sweep[1], 0, &PipelineConfig::starting());
    }

    #[test]
    #[should_panic(expected = "beyond the program's halt")]
    fn boundary_past_halt_panics() {
        let prog = assemble("  halt\n").unwrap();
        let _ = checkpoints_at(&prog, &[100], &PipelineConfig::starting());
    }

    #[test]
    fn stream_respects_instruction_budget() {
        let prog = assemble(PROG).unwrap();
        let (sweep, len) = stream(&prog, 32, 100);
        assert_eq!(len, 100);
        assert!(sweep.iter().all(|c| c.instructions < 100));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_stream_interval_panics() {
        let prog = assemble("  halt\n").unwrap();
        let _ = checkpoint_stream_thinned(&prog, 0, &PipelineConfig::starting(), u64::MAX, 2);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unordered_boundaries_panic() {
        let prog = assemble("  halt\n").unwrap();
        let _ = checkpoints_at(&prog, &[5, 3], &PipelineConfig::starting());
    }
}
