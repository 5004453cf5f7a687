//! Azambuja-style software-only detection (SWIFT/EDDI lineage).
//!
//! No hardware changes at all: [`transform`] rewrites the program so
//! the unprotected baseline core detects its own faults.
//!
//! - **Instruction duplication into shadow registers.** Every integer
//!   register the program uses is assigned a *shadow* from the unused
//!   registers. Computation instructions are emitted twice — the
//!   original, then a copy writing the shadow destination with all
//!   sources remapped to shadows — so a transient in either copy makes
//!   the pair diverge.
//! - **Operand checks at synchronization points.** Before every store,
//!   conditional branch, `print`, and `halt`, each (shadowed) operand
//!   is compared against its shadow with a `bne reg, shadow, trap`.
//!   Divergence jumps to a trap handler that halts with
//!   [`SWIFT_TRAP_EXIT`] — the fault engine scores a trial *detected*
//!   iff the run exits with the sentinel.
//! - **Basic-block signatures (CFCSS-lite).** A reserved signature
//!   register is set to the block id at every block leader and checked
//!   before every control transfer, so wild branches land on a stale
//!   signature and trap.
//!
//! Floating-point computation is duplicated the same way into shadow
//! FP registers (FP-heavy kernels would otherwise run essentially
//! unprotected), with divergence caught bit-exactly at `fsd` stores
//! via `fmv.x.d` into two integer scratches — never by `feq`, whose
//! NaN semantics would false-trap on a legitimately NaN pair.
//!
//! Honest coverage gaps, kept deliberately: load *values* are not
//! duplicated (the shadow is a copy of the loaded value, so a fault in
//! the load result propagates to both copies), and a corrupted
//! register that is overwritten before its next check escapes. These
//! are the gaps the software-only rows of the cross-scheme report
//! exist to show.
//!
//! When register pressure leaves too few free registers to shadow
//! everything, the most-frequently-used registers get the available
//! shadows and the rest run unprotected (coverage degrades, semantics
//! are preserved). Programs using `jalr` or a linking `jal` are
//! rejected — the transform supports the kernel suite's direct
//! control flow, not arbitrary call graphs.

use super::classic::{forked_window, probed_window};
use super::observe::CommitProbe;
use super::{judged, DetectionScheme, Faulted, Observers, SchemeRun, Scored, Trial, WindowTrials};
use crate::{FaultClass, TrialOutcome};
use reese_ckpt::{Checkpoint, Scheme};
use reese_core::ReeseConfig;
use reese_isa::{
    Instr, OpKind, Opcode, Program, ProgramBuilder, Reg, DATA_BASE, NUM_FP_REGS, NUM_INT_REGS,
    TEXT_BASE,
};
use reese_pipeline::{PipelineSim, RunSpec};
use reese_trace::{NoopObserver, Pair};

/// Exit code of the software trap handler ("SWFT"). A detected fault
/// halts the machine with this sentinel; the scheme reserves it.
pub const SWIFT_TRAP_EXIT: u64 = 0x5357_4654;

/// Per-register shadow assignment.
struct Shadows {
    /// `map[r] = Some(s)`: integer register `r` is shadowed by `s`.
    map: [Option<Reg>; NUM_INT_REGS as usize],
    /// `fp[f] = Some(s)`: FP register `f` is shadowed by FP `s`.
    fp: [Option<Reg>; NUM_FP_REGS as usize],
    /// Reserved block-signature register.
    sig: Reg,
    /// Reserved scratch register (signature compares, trap exit code).
    tmp: Reg,
    /// Second integer scratch for bit-exact FP compares and FP shadow
    /// sync copies; `None` disables FP protection (the program either
    /// touches no FP state or has no register to spare).
    tmp2: Option<Reg>,
}

impl Shadows {
    fn of(&self, r: Reg) -> Option<Reg> {
        if r.is_fp() {
            self.fp[r.file_index() as usize]
        } else {
            self.map[r.raw() as usize]
        }
    }

    /// Shadow for a *source* operand: `x0` shadows itself.
    fn src(&self, r: Reg) -> Option<Reg> {
        if r.is_zero() {
            Some(Reg::ZERO)
        } else {
            self.of(r)
        }
    }
}

/// Census + assignment: shadow the most-used registers of each file
/// with that file's unused ones, reserving integer registers for the
/// signature and scratches first.
fn assign_shadows(text: &[Instr]) -> Result<Shadows, String> {
    let mut uses = [0u64; NUM_INT_REGS as usize];
    let mut fp_uses = [0u64; NUM_FP_REGS as usize];
    let mut count = |r: Reg| {
        if r.is_fp() {
            fp_uses[r.file_index() as usize] += 1;
        } else if !r.is_zero() {
            uses[r.raw() as usize] += 1;
        }
    };
    for ins in text {
        if let Some(d) = ins.dest() {
            count(d);
        }
        for s in ins.sources() {
            count(s);
        }
    }
    let mut free: Vec<Reg> = (1..NUM_INT_REGS)
        .map(Reg::x)
        .filter(|r| uses[r.raw() as usize] == 0)
        .collect();
    if free.len() < 2 {
        return Err(format!(
            "swift transform needs at least 2 free integer registers, found {}",
            free.len()
        ));
    }
    let sig = free.remove(0);
    let tmp = free.remove(0);
    // FP protection needs a second integer scratch; it is claimed only
    // when the program touches FP state at all, and yields to integer
    // shadowing under pressure (better partial int protection than one
    // more FP compare).
    let fp_used = fp_uses.iter().any(|&u| u > 0);
    let tmp2 = (fp_used && !free.is_empty()).then(|| free.remove(0));
    // Most-used registers claim the remaining shadows (ties break on
    // register index, so the assignment is deterministic).
    let mut ranked: Vec<Reg> = (1..NUM_INT_REGS)
        .map(Reg::x)
        .filter(|r| uses[r.raw() as usize] > 0)
        .collect();
    ranked.sort_by_key(|r| (std::cmp::Reverse(uses[r.raw() as usize]), r.raw()));
    let mut map = [None; NUM_INT_REGS as usize];
    for (r, s) in ranked.into_iter().zip(free) {
        map[r.raw() as usize] = Some(s);
    }
    let mut fp = [None; NUM_FP_REGS as usize];
    if tmp2.is_some() {
        let fp_free: Vec<Reg> = (0..NUM_FP_REGS)
            .map(Reg::f)
            .filter(|r| fp_uses[r.file_index() as usize] == 0)
            .collect();
        let mut fp_ranked: Vec<Reg> = (0..NUM_FP_REGS)
            .map(Reg::f)
            .filter(|r| fp_uses[r.file_index() as usize] > 0)
            .collect();
        fp_ranked.sort_by_key(|r| (std::cmp::Reverse(fp_uses[r.file_index() as usize]), r.raw()));
        for (r, s) in fp_ranked.into_iter().zip(fp_free) {
            fp[r.file_index() as usize] = Some(s);
        }
    }
    Ok(Shadows {
        map,
        fp,
        sig,
        tmp,
        tmp2,
    })
}

/// Rewrites a program with duplicated instructions, shadow registers,
/// operand checks, and basic-block signatures.
///
/// The transformed program is semantically identical to the original
/// on a fault-free machine: same output, same exit code, same memory
/// traffic addresses and values (shadow state lives only in otherwise
/// unused registers).
///
/// # Errors
///
/// Rejects programs with indirect control flow (`jalr`, linking
/// `jal`), branches outside the text segment, non-default segment
/// bases, or fewer than two free integer registers.
pub fn transform(program: &Program) -> Result<Program, String> {
    if program.text_base() != TEXT_BASE || program.data_base() != DATA_BASE {
        return Err("swift transform requires default segment bases".into());
    }
    let text = program.text();
    if text.is_empty() {
        return Err("swift transform: empty program".into());
    }
    let inst_size = program.inst_size();
    let index_of = |pc: u64| -> Result<usize, String> {
        let off = pc.wrapping_sub(TEXT_BASE);
        if !off.is_multiple_of(inst_size) || (off / inst_size) as usize >= text.len() {
            return Err(format!(
                "swift transform: control target {pc:#x} outside text"
            ));
        }
        Ok((off / inst_size) as usize)
    };
    let entry_idx = index_of(program.entry())?;

    // Control-flow survey: reject indirection, collect block leaders.
    let mut leader = vec![false; text.len()];
    leader[0] = true;
    leader[entry_idx] = true;
    for (i, ins) in text.iter().enumerate() {
        match ins.op {
            Opcode::Jalr => return Err("swift transform: jalr unsupported".into()),
            Opcode::Jal if !ins.rd.is_zero() => {
                return Err("swift transform: linking jal unsupported".into())
            }
            _ => {}
        }
        if matches!(ins.op.kind(), OpKind::Branch | OpKind::Jump) {
            let pc = TEXT_BASE + i as u64 * inst_size;
            let tgt = index_of(pc.wrapping_add_signed(ins.imm))?;
            leader[tgt] = true;
            if i + 1 < text.len() {
                leader[i + 1] = true;
            }
        }
    }

    let sh = assign_shadows(text)?;
    let mut b = ProgramBuilder::for_isa(program.isa());
    let labels: Vec<_> = (0..text.len()).map(|i| b.label(&format!("L{i}"))).collect();
    let trap = b.label("swift_trap");

    // `bne r, shadow(r), trap` for a shadowed integer operand.
    macro_rules! check {
        ($r:expr) => {
            let r: Reg = $r;
            if r.is_int() && !r.is_zero() {
                if let Some(s) = sh.of(r) {
                    b.emit_branch(Instr::branch(Opcode::Bne, r, s, 0), trap);
                }
            }
        };
    }

    // Bit-exact divergence check for a shadowed FP operand: move both
    // bit patterns into the integer scratches and compare there (`feq`
    // would false-trap on a legitimately NaN pair).
    macro_rules! fcheck {
        ($r:expr) => {
            let r: Reg = $r;
            if r.is_fp() {
                if let (Some(s), Some(t2)) = (sh.of(r), sh.tmp2) {
                    b.emit(Instr::rrr(Opcode::Fmvfi, sh.tmp, r, Reg::ZERO));
                    b.emit(Instr::rrr(Opcode::Fmvfi, t2, s, Reg::ZERO));
                    b.emit_branch(Instr::branch(Opcode::Bne, sh.tmp, t2, 0), trap);
                }
            }
        };
    }

    // Bit-exact FP shadow sync `s = d` through the integer scratch
    // (the ISA has no FP-to-FP move; an arithmetic identity like
    // `fmin d, d` would canonicalise NaN payloads).
    macro_rules! fsync {
        ($d:expr, $s:expr) => {
            let (d, s): (Reg, Reg) = ($d, $s);
            b.emit(Instr::rrr(Opcode::Fmvfi, sh.tmp, d, Reg::ZERO));
            b.emit(Instr::rrr(Opcode::Fmvif, s, sh.tmp, Reg::ZERO));
        };
    }

    // Prologue: capture the initial value of every shadowed register,
    // then enter at the original entry point.
    let start = b.here("swift_entry");
    b.entry(start);
    for r in (1..NUM_INT_REGS).map(Reg::x) {
        if let Some(s) = sh.of(r) {
            b.emit(Instr::rrr(Opcode::Add, s, r, Reg::ZERO));
        }
    }
    for r in (0..NUM_FP_REGS).map(Reg::f) {
        if let Some(s) = sh.of(r) {
            fsync!(r, s);
        }
    }
    b.emit_branch(
        Instr::rri(Opcode::Jal, Reg::ZERO, Reg::ZERO, 0),
        labels[entry_idx],
    );

    let mut block_id: i64 = 1;
    for (i, ins) in text.iter().enumerate() {
        b.bind(labels[i]);
        if leader[i] {
            block_id = i as i64 + 1;
            b.emit(Instr::rri(Opcode::Li, sh.sig, Reg::ZERO, block_id));
        }
        match ins.op.kind() {
            OpKind::Alu => {
                b.emit(*ins);
                let Some(d) = ins.dest() else { continue };
                let Some(sd) = sh.of(d) else { continue };
                let dup = (|| {
                    Some(Instr {
                        op: ins.op,
                        rd: sd,
                        rs1: if ins.op.reads_rs1() {
                            sh.src(ins.rs1)?
                        } else {
                            ins.rs1
                        },
                        rs2: if ins.op.reads_rs2() {
                            sh.src(ins.rs2)?
                        } else {
                            ins.rs2
                        },
                        imm: ins.imm,
                    })
                })();
                match dup {
                    // True duplication: the shadow recomputes the
                    // result from shadow sources (mixed-file ops like
                    // `fcvt` remap each source through its own file's
                    // shadow).
                    Some(dup) => {
                        b.emit(dup);
                    }
                    // A source is unshadowed: fall back to a sync copy
                    // so later checks of `d` cannot false-positive.
                    None if d.is_fp() => {
                        fsync!(d, sd);
                    }
                    None => {
                        b.emit(Instr::rrr(Opcode::Add, sd, d, Reg::ZERO));
                    }
                };
            }
            OpKind::Load => {
                check!(ins.rs1);
                b.emit(*ins);
                // The loaded value is not independently recomputable:
                // the shadow is a copy, so load results are a known
                // coverage gap.
                if let Some(d) = ins.dest() {
                    if let Some(sd) = sh.of(d) {
                        if d.is_fp() {
                            fsync!(d, sd);
                        } else {
                            b.emit(Instr::rrr(Opcode::Add, sd, d, Reg::ZERO));
                        }
                    }
                }
            }
            OpKind::Store => {
                check!(ins.rs1);
                if ins.op == Opcode::Fsd {
                    fcheck!(ins.rs2);
                } else {
                    check!(ins.rs2);
                }
                b.emit(*ins);
            }
            OpKind::Branch => {
                b.emit(Instr::rri(Opcode::Li, sh.tmp, Reg::ZERO, block_id));
                b.emit_branch(Instr::branch(Opcode::Bne, sh.sig, sh.tmp, 0), trap);
                check!(ins.rs1);
                check!(ins.rs2);
                let pc = TEXT_BASE + i as u64 * inst_size;
                let tgt = index_of(pc.wrapping_add_signed(ins.imm))?;
                b.emit_branch(Instr::branch(ins.op, ins.rs1, ins.rs2, 0), labels[tgt]);
            }
            OpKind::Jump => {
                b.emit(Instr::rri(Opcode::Li, sh.tmp, Reg::ZERO, block_id));
                b.emit_branch(Instr::branch(Opcode::Bne, sh.sig, sh.tmp, 0), trap);
                let pc = TEXT_BASE + i as u64 * inst_size;
                let tgt = index_of(pc.wrapping_add_signed(ins.imm))?;
                b.emit_branch(
                    Instr::rri(Opcode::Jal, Reg::ZERO, Reg::ZERO, 0),
                    labels[tgt],
                );
            }
            OpKind::System => {
                // `halt`, `ecall`, and `ebreak` can end the run, so the
                // block signature must be verified before them just as
                // before a control transfer.
                if matches!(ins.op, Opcode::Halt | Opcode::Ecall | Opcode::Ebreak) {
                    b.emit(Instr::rri(Opcode::Li, sh.tmp, Reg::ZERO, block_id));
                    b.emit_branch(Instr::branch(Opcode::Bne, sh.sig, sh.tmp, 0), trap);
                }
                if matches!(ins.op, Opcode::Halt | Opcode::Print | Opcode::Ecall) {
                    check!(ins.rs1);
                }
                if ins.op == Opcode::Ecall {
                    check!(ins.rs2);
                }
                b.emit(*ins);
            }
        }
    }

    // Trap handler: halt with the reserved sentinel.
    b.bind(trap);
    b.emit(Instr::rri(
        Opcode::Li,
        sh.tmp,
        Reg::ZERO,
        SWIFT_TRAP_EXIT as i64,
    ));
    b.emit(Instr {
        op: Opcode::Halt,
        rd: Reg::ZERO,
        rs1: sh.tmp,
        rs2: Reg::ZERO,
        imm: 0,
    });
    b.bytes(program.data());
    b.build().map_err(|e| format!("swift transform: {e}"))
}

/// The software-only backend: the plain pipeline runs the hardened
/// program; detection is the trap handler's sentinel exit.
pub(crate) struct SwiftScheme {
    sim: PipelineSim,
}

impl SwiftScheme {
    pub fn new(config: &ReeseConfig) -> SwiftScheme {
        SwiftScheme {
            sim: PipelineSim::new(config.pipeline.clone()),
        }
    }
}

impl DetectionScheme for SwiftScheme {
    fn scheme(&self) -> Scheme {
        Scheme::Swift
    }

    fn prepare(&self, program: &Program) -> Result<Program, String> {
        transform(program)
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
        // Single-stream scheme: both result classes are one
        // architectural upset in the (hardened) dynamic stream — the
        // duplicated copies are ordinary instructions, so the draw
        // already lands on originals and duplicates alike.
        let mut emu = t.ck.restore(t.program);
        emu.inject_result_fault(t.seq, t.bit);
        let mut probe = CommitProbe::watching(t.seq);
        let r = SchemeRun::from(probed_window(&self.sim, &mut t, emu, &mut probe)?);
        Ok(score((t.class, t.seq, t.bit), &r, &probe).against(t.baseline))
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
            let obs = Pair(CommitProbe::new(), obs);
            let (clean, stats, _, obs, scored, screened) =
                forked_window(&self.sim, program, from, budget, keys, obs, score)?;
            Ok(judged(clean, stats, obs, scored, screened))
        })
    }
}

/// Scores a window run of the hardened program: detected iff the run
/// exits through the trap handler. Detection halts the run at the trap
/// and repairs nothing (software-only detection has no recovery
/// hardware), so cleanliness is judged honestly against the clean
/// window.
fn score(key: (FaultClass, u64, u8), r: &SchemeRun, probe: &CommitProbe) -> Scored {
    let (class, seq, bit) = key;
    let detected = r.exit_code == Some(SWIFT_TRAP_EXIT);
    let committed = probe.commit_cycle(seq);
    // Latency: from the faulted instruction's commit to the trap
    // handler's halt (the last commit of the window).
    let detect_cycle = if detected { probe.last_commit() } else { None };
    let detection_latency = match (detect_cycle, committed) {
        (Some(end), Some(c)) => Some(end.saturating_sub(c)),
        _ => None,
    };
    Scored {
        outcome: TrialOutcome {
            class,
            seq,
            bit,
            detected,
            detection_latency,
            extra_cycles: 0,
            state_clean: false,
            inject_cycle: probe.first_writeback(seq).or(committed),
            diverge_cycle: committed,
            detect_cycle,
        },
        faulted: Some(Faulted::of(r)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_cpu::{Emulator, StopReason};

    fn exit_code(r: &reese_cpu::RunResult) -> Option<u64> {
        match r.stop {
            StopReason::Halted { exit_code } => Some(exit_code),
            _ => None,
        }
    }

    fn run_output(p: &Program) -> (Vec<i64>, Option<u64>) {
        let mut emu = Emulator::new(p);
        let r = emu.run(2_000_000).unwrap();
        let code = exit_code(&r);
        (r.output, code)
    }

    #[test]
    fn transform_preserves_semantics_on_a_branchy_program() {
        let p = reese_isa::assemble(
            "  li t0, 25\n  li t1, 0\nloop: addi t1, t1, 3\n  addi t0, t0, -1\n  bnez t0, loop\n  print t1\n  li a0, 9\n  halt\n",
        )
        .unwrap();
        let h = transform(&p).unwrap();
        assert!(h.len() > p.len());
        assert_eq!(run_output(&h), run_output(&p));
    }

    #[test]
    fn transform_preserves_memory_semantics() {
        let p = reese_isa::assemble(
            "  la t0, buf\n  li t1, 7\n  sd t1, 0(t0)\n  ld t2, 0(t0)\n  print t2\n  halt\n.data\nbuf: .space 8\n",
        )
        .unwrap();
        let h = transform(&p).unwrap();
        assert_eq!(run_output(&h), run_output(&p));
    }

    #[test]
    fn transform_rejects_indirect_control_flow() {
        let mut b = ProgramBuilder::new();
        b.emit(Instr::rri(Opcode::Jalr, Reg::RA, Reg::x(5), 0));
        let p = b.build().unwrap();
        let err = transform(&p).unwrap_err();
        assert!(err.contains("jalr"), "{err}");
    }

    #[test]
    fn corrupted_register_traps_with_the_sentinel() {
        // Flip a bit in t1 (seq 2 = `addi t1, t1, 3` dup region) and
        // the operand check before `print` must trap.
        let p = reese_isa::assemble("  li t1, 5\n  addi t1, t1, 3\n  print t1\n  halt\n").unwrap();
        let h = transform(&p).unwrap();
        // Find the dynamic index of the original `addi t1` in the
        // hardened stream by running and matching pcs.
        let mut emu = Emulator::new(&h);
        let clean = emu.run(10_000).unwrap();
        assert_eq!(clean.output, vec![8]);
        // Brute-force: injecting at each dynamic instruction, at least
        // one fault must reach the trap handler.
        let dynamic_len = clean.instructions;
        let mut trapped = 0;
        for seq in 0..dynamic_len {
            let mut emu = Emulator::new(&h);
            emu.inject_result_fault(seq, 3);
            let r = emu.run(10_000).unwrap();
            if exit_code(&r) == Some(SWIFT_TRAP_EXIT) {
                trapped += 1;
            }
        }
        assert!(trapped > 0, "no injected fault reached the trap handler");
    }

    #[test]
    fn fp_computation_is_duplicated_and_checked() {
        // Int → float conversion, FP arithmetic, an `fsd` store, and a
        // reload: the transform must both preserve semantics and give
        // FP faults a path to the trap handler.
        let p = reese_isa::assemble(
            "  la t0, buf\n  li t1, 3\n  fcvt.d.l f1, t1\n  fadd f2, f1, f1\n  fmul f2, f2, f1\n  fsd f2, 0(t0)\n  ld t2, 0(t0)\n  print t2\n  halt\n.data\nbuf: .space 8\n",
        )
        .unwrap();
        let h = transform(&p).unwrap();
        assert_eq!(run_output(&h), run_output(&p));
        let mut emu = Emulator::new(&h);
        let clean = emu.run(10_000).unwrap();
        // Brute-force every (dynamic instruction, high bit) upset: the
        // FP duplication must route at least one mantissa corruption
        // to the sentinel, and every run must still terminate.
        let mut trapped = 0;
        for seq in 0..clean.instructions {
            let mut emu = Emulator::new(&h);
            emu.inject_result_fault(seq, 51);
            let r = emu.run(10_000).unwrap();
            if exit_code(&r) == Some(SWIFT_TRAP_EXIT) {
                trapped += 1;
            }
        }
        assert!(trapped > 0, "no FP fault reached the trap handler");
    }

    #[test]
    fn rv32i_programs_transform_with_four_byte_pc_math() {
        let src = "\
  li t0, 25
  li t1, 0
loop:
  addi t1, t1, 3
  addi t0, t0, -1
  bnez t0, loop
  li a7, 1
  mv a0, t1
  ecall
  li a7, 93
  li a0, 9
  ecall
";
        let p = reese_isa::IsaId::Rv32i.frontend().assemble(src).unwrap();
        let h = transform(&p).unwrap();
        assert_eq!(h.isa(), reese_isa::IsaId::Rv32i);
        assert!(h.len() > p.len());
        assert_eq!(run_output(&h), run_output(&p));
        assert_eq!(run_output(&h), (vec![75], Some(9)));
        // Injected faults must still find the trap handler.
        let clean = Emulator::new(&h).run(10_000).unwrap();
        let mut trapped = 0;
        for seq in 0..clean.instructions {
            let mut emu = Emulator::new(&h);
            emu.inject_result_fault(seq, 3);
            let r = emu.run(10_000).unwrap();
            if exit_code(&r) == Some(SWIFT_TRAP_EXIT) {
                trapped += 1;
            }
        }
        assert!(trapped > 0, "no rv32i fault reached the trap handler");
    }

    #[test]
    fn register_pressure_degrades_to_partial_protection() {
        // A program touching most integer registers still transforms;
        // protection is partial but semantics hold.
        let mut src = String::new();
        for i in 5..28 {
            src.push_str(&format!("  li x{i}, {i}\n"));
        }
        src.push_str("  print x27\n  halt\n");
        let p = reese_isa::assemble(&src).unwrap();
        let h = transform(&p).unwrap();
        assert_eq!(run_output(&h), run_output(&p));
    }
}
