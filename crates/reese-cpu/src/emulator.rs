//! The functional emulator: the machine's golden model.

use crate::{step_for, ArchState, StepInfo};
use reese_isa::{Instr, IsaId, Program, STACK_TOP};
use reese_mem::Memory;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Error conditions during emulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// The PC left the text segment (fell off the end, jumped wild).
    PcOutOfText {
        /// The offending PC.
        pc: u64,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::PcOutOfText { pc } => {
                write!(f, "program counter {pc:#x} left the text segment")
            }
        }
    }
}

impl std::error::Error for EmuError {}

/// Why a [`Emulator::run`] call stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A `halt` instruction executed.
    Halted {
        /// The exit code (from the halt's source register).
        exit_code: u64,
    },
    /// The dynamic instruction limit was reached first.
    InstructionLimit,
}

/// Summary of a finished (or limited) functional run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Why execution stopped.
    pub stop: StopReason,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Values emitted by `print` instructions, in order.
    pub output: Vec<i64>,
    /// Digest of the final architectural register state.
    pub state_digest: u64,
}

impl RunResult {
    /// Whether the program ran to a `halt`.
    pub fn halted(&self) -> bool {
        matches!(self.stop, StopReason::Halted { .. })
    }
}

/// The functional (architectural) emulator.
///
/// Executes programs instruction-at-a-time with no timing model. The
/// timing simulators use it as their oracle: every run must produce the
/// same architectural results here and there.
///
/// The program is shared, not owned: a clone (a forked trial, a
/// screened fault key) copies the architectural state and memory but
/// points at the same text, data and symbol table.
///
/// # Example
///
/// ```
/// use reese_cpu::Emulator;
///
/// let prog = reese_isa::assemble(
///     "  li t0, 3\n  li t1, 4\n  mul t2, t0, t1\n  print t2\n  halt\n",
/// )?;
/// let mut emu = Emulator::new(&prog);
/// let result = emu.run(1_000)?;
/// assert!(result.halted());
/// assert_eq!(result.output, vec![12]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Emulator {
    program: Arc<Program>,
    state: ArchState,
    memory: Memory,
    output: Vec<i64>,
    instructions: u64,
    halted: Option<u64>,
    /// Pending architectural result faults: (dynamic instruction index,
    /// bit). Applied once when the matching instruction executes.
    faults: Vec<(u64, u8)>,
}

impl Emulator {
    /// Loads a program: data segment into memory, registers zeroed,
    /// stack pointer at [`STACK_TOP`], PC at the entry point.
    pub fn new(program: &Program) -> Emulator {
        let mut memory = Memory::new();
        memory.load_image(program.data_base(), program.data());
        if let Ok(image) = program.text_image() {
            memory.load_image(program.text_base(), &image);
        }
        let mut state = ArchState::new(program.entry());
        state.write(reese_isa::Reg::SP, STACK_TOP);
        Emulator {
            program: Arc::new(program.clone()),
            state,
            memory,
            output: Vec::new(),
            instructions: 0,
            halted: None,
            faults: Vec::new(),
        }
    }

    /// Rebuilds an emulator mid-run from checkpointed architectural
    /// state: registers + PC, memory image, printed output so far, the
    /// dynamic instruction count, and the halt latch. The program is
    /// not part of the checkpoint — it is the deterministic input that
    /// produced the state.
    pub fn from_parts(
        program: &Program,
        state: ArchState,
        memory: Memory,
        output: Vec<i64>,
        instructions: u64,
        halted: Option<u64>,
    ) -> Emulator {
        Emulator {
            program: Arc::new(program.clone()),
            state,
            memory,
            output,
            instructions,
            halted,
            faults: Vec::new(),
        }
    }

    /// Arms a single-bit architectural fault: when dynamic instruction
    /// `seq` executes, bit `bit` of its destination-register result is
    /// flipped — in the returned [`StepInfo`] *and* in the register
    /// file, so the error propagates through later instructions exactly
    /// as a real particle strike at writeback would. Faults on
    /// instructions that write no register (stores, branches, `print`,
    /// `halt`) are architecturally masked.
    ///
    /// This models the *unprotected* datapath: hardware schemes latch
    /// their compare values upstream of this point, so they inject into
    /// the pipeline model instead.
    pub fn inject_result_fault(&mut self, seq: u64, bit: u8) {
        self.faults.push((seq, bit));
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::PcOutOfText`] if the PC does not point at an
    /// instruction. Stepping an already-halted machine re-executes the
    /// `halt` (a benign no-op).
    pub fn step(&mut self) -> Result<StepInfo, EmuError> {
        self.execute()
    }

    /// Executes one instruction and appends its record to `window`: the
    /// timing core's front end keeps every record it has not retired
    /// there, so the record is written once, where every later stage
    /// reads it. [`Emulator::exit_code`] tells whether it halted.
    ///
    /// # Errors
    ///
    /// As [`Emulator::step`]; `window` is left unchanged.
    #[inline]
    pub fn step_into(&mut self, window: &mut VecDeque<StepInfo>) -> Result<(), EmuError> {
        window.push_back(self.execute()?);
        Ok(())
    }

    /// The one body of [`Emulator::step`] and [`Emulator::step_into`].
    #[inline(always)]
    fn execute(&mut self) -> Result<StepInfo, EmuError> {
        let pc = self.state.pc;
        let instr: Instr = *self.program.fetch(pc).ok_or(EmuError::PcOutOfText { pc })?;
        let seq = self.instructions;
        let mut info = step_for(
            self.program.isa(),
            &mut self.state,
            &instr,
            &mut self.memory,
        );
        if !self.faults.is_empty() {
            let mut i = 0;
            while i < self.faults.len() {
                if self.faults[i].0 == seq {
                    let (_, bit) = self.faults.swap_remove(i);
                    if info.wrote_rd {
                        let flipped = info.result ^ (1u64 << (bit & 63));
                        self.state.write(instr.rd, flipped);
                        info.result = flipped;
                    }
                } else {
                    i += 1;
                }
            }
        }
        self.instructions += 1;
        if let Some(v) = info.printed {
            self.output.push(v);
        }
        if info.halted {
            self.halted = Some(info.result);
        }
        Ok(info)
    }

    /// Runs until `halt` or until `max_instructions` have executed.
    ///
    /// # Errors
    ///
    /// Propagates [`EmuError`] from [`Emulator::step`].
    pub fn run(&mut self, max_instructions: u64) -> Result<RunResult, EmuError> {
        let start = self.instructions;
        while self.halted.is_none() && self.instructions - start < max_instructions {
            self.step()?;
        }
        Ok(RunResult {
            stop: match self.halted {
                Some(exit_code) => StopReason::Halted { exit_code },
                None => StopReason::InstructionLimit,
            },
            instructions: self.instructions,
            output: self.output.clone(),
            state_digest: self.state.digest(),
        })
    }

    /// The ISA the loaded program executes under.
    pub fn isa(&self) -> IsaId {
        self.program.isa()
    }

    /// Size in bytes of one instruction in the loaded program.
    pub fn inst_size(&self) -> u64 {
        self.program.inst_size()
    }

    /// The architectural register state.
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// The architectural memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Dynamic instructions executed so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The exit code, if the machine has halted.
    pub fn exit_code(&self) -> Option<u64> {
        self.halted
    }

    /// Values printed so far.
    pub fn output(&self) -> &[i64] {
        &self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_isa::{abi::*, assemble, ProgramBuilder};

    #[test]
    fn arithmetic_program() {
        let prog = assemble("  li t0, 21\n  add t1, t0, t0\n  print t1\n  halt\n").unwrap();
        let r = Emulator::new(&prog).run(100).unwrap();
        assert!(r.halted());
        assert_eq!(r.output, vec![42]);
        assert_eq!(r.instructions, 4);
    }

    #[test]
    fn loop_counts_dynamic_instructions() {
        let prog =
            assemble("  li t0, 10\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n").unwrap();
        let r = Emulator::new(&prog).run(1_000).unwrap();
        // 1 li + 10*(addi+bne) + halt
        assert_eq!(r.instructions, 22);
    }

    #[test]
    fn instruction_limit_stops_infinite_loop() {
        let prog = assemble("loop: j loop\n  halt\n").unwrap();
        let r = Emulator::new(&prog).run(500).unwrap();
        assert_eq!(r.stop, StopReason::InstructionLimit);
        assert_eq!(r.instructions, 500);
    }

    #[test]
    fn memory_and_data_segment() {
        let prog = assemble(
            "  la a0, arr\n  ld t0, 0(a0)\n  ld t1, 8(a0)\n  add t2, t0, t1\n  sd t2, 16(a0)\n  ld a1, 16(a0)\n  print a1\n  halt\n\
             \n  .data\narr: .dword 30, 12, 0\n",
        )
        .unwrap();
        let mut emu = Emulator::new(&prog);
        let r = emu.run(100).unwrap();
        assert_eq!(r.output, vec![42]);
        assert_eq!(emu.memory().read_u64(prog.symbol("arr").unwrap() + 16), 42);
    }

    #[test]
    fn subroutine_call_and_stack() {
        let prog = assemble(
            "        .entry main\n\
             double: add a0, a0, a0\n\
                     ret\n\
             main:   li a0, 5\n\
                     addi sp, sp, -8\n\
                     sd ra, 0(sp)\n\
                     call double\n\
                     ld ra, 0(sp)\n\
                     addi sp, sp, 8\n\
                     print a0\n\
                     halt\n",
        )
        .unwrap();
        let r = Emulator::new(&prog).run(100).unwrap();
        assert_eq!(r.output, vec![10]);
    }

    #[test]
    fn wild_jump_is_an_error() {
        let prog = assemble("  li t0, 0x400000\n  jalr x0, 0(t0)\n  halt\n").unwrap();
        let mut emu = Emulator::new(&prog);
        emu.step().unwrap();
        emu.step().unwrap();
        assert_eq!(emu.step(), Err(EmuError::PcOutOfText { pc: 0x40_0000 }));
    }

    #[test]
    fn falling_off_the_end_is_an_error() {
        let prog = assemble("  nop\n").unwrap();
        let mut emu = Emulator::new(&prog);
        emu.step().unwrap();
        assert!(matches!(emu.step(), Err(EmuError::PcOutOfText { .. })));
    }

    #[test]
    fn halt_exit_code() {
        let prog = assemble("  li a0, 7\n  halt\n").unwrap();
        let mut emu = Emulator::new(&prog);
        let r = emu.run(10).unwrap();
        assert_eq!(r.stop, StopReason::Halted { exit_code: 7 });
        assert_eq!(emu.exit_code(), Some(7));
    }

    #[test]
    fn stack_pointer_initialised() {
        let prog = assemble("  halt\n").unwrap();
        let emu = Emulator::new(&prog);
        assert_eq!(emu.state().read(SP), STACK_TOP);
    }

    #[test]
    fn builder_program_runs() {
        let mut b = ProgramBuilder::new();
        let buf = b.data_label("buf");
        b.space(64);
        b.la(A1, buf);
        b.li(T0, 8);
        let top = b.here("top");
        b.addi(T0, T0, -1);
        b.slli(T1, T0, 3);
        b.add(T1, A1, T1);
        b.sd(T0, 0, T1);
        b.bnez(T0, top);
        b.ld(A0, 24, A1);
        b.print(A0);
        b.halt();
        let prog = b.build().unwrap();
        let r = Emulator::new(&prog).run(1_000).unwrap();
        assert_eq!(r.output, vec![3]);
    }

    #[test]
    fn injected_result_fault_propagates_architecturally() {
        let src = "  li t0, 21\n  add t1, t0, t0\n  print t1\n  halt\n";
        let prog = assemble(src).unwrap();
        let mut emu = Emulator::new(&prog);
        // Flip bit 3 of the `add` result (seq 1): 42 ^ 8 = 34, and the
        // corrupted value must flow into the print.
        emu.inject_result_fault(1, 3);
        let r = emu.run(100).unwrap();
        assert_eq!(r.output, vec![34]);
        assert_ne!(
            r.state_digest,
            Emulator::new(&prog).run(100).unwrap().state_digest
        );
    }

    #[test]
    fn fault_on_non_writing_instruction_is_masked() {
        let src = "  li t0, 21\n  add t1, t0, t0\n  print t1\n  halt\n";
        let prog = assemble(src).unwrap();
        let mut emu = Emulator::new(&prog);
        // `print` (seq 2) writes no register: architecturally masked.
        emu.inject_result_fault(2, 5);
        let r = emu.run(100).unwrap();
        let clean = Emulator::new(&prog).run(100).unwrap();
        assert_eq!(r, clean);
    }

    #[test]
    fn rv32i_program_runs_with_rv32_semantics() {
        let src = "\
  li t0, 10
  li t1, 0
loop:
  add t1, t1, t0
  addi t0, t0, -1
  bnez t0, loop
  li a7, 1
  mv a0, t1
  ecall
  li a7, 93
  li a0, 0
  ecall
";
        let prog = IsaId::Rv32i.frontend().assemble(src).unwrap();
        assert_eq!(prog.isa(), IsaId::Rv32i);
        let mut emu = Emulator::new(&prog);
        let r = emu.run(1_000).unwrap();
        assert_eq!(r.output, vec![55]);
        assert_eq!(r.stop, StopReason::Halted { exit_code: 0 });
    }

    #[test]
    fn rv32i_overflow_differs_from_native() {
        let src = "\
  li t0, 0x7FFFFFFF
  addi t0, t0, 1
  li a7, 1
  mv a0, t0
  ecall
  li a7, 93
  li a0, 0
  ecall
";
        let prog = IsaId::Rv32i.frontend().assemble(src).unwrap();
        let r = Emulator::new(&prog).run(100).unwrap();
        assert_eq!(r.output, vec![i32::MIN as i64], "32-bit add wraps");
    }

    #[test]
    fn deterministic_digest() {
        let prog = assemble("  li t0, 9\n  mul t1, t0, t0\n  halt\n").unwrap();
        let a = Emulator::new(&prog).run(100).unwrap();
        let b = Emulator::new(&prog).run(100).unwrap();
        assert_eq!(a.state_digest, b.state_digest);
    }
}
