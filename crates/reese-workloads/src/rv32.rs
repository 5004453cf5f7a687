//! RV32I ports of the kernel suite, plus a differential harness.
//!
//! Three kernels from the Table-2 catalogue are ported to RV32I
//! assembler source — the same microarchitectural signatures (byte
//! hashing, pointer chasing, unrolled integer arithmetic), expressed in
//! the base RISC-V integer ISA with the M-subset multiply/divide the
//! frontend accepts. They print a checksum with `ecall` (a7 = 1) and
//! exit with `ecall` (a7 = 93), so the same sources run unchanged under
//! every detection scheme, including the SWIFT software transform.
//!
//! [`differential_check`] is the correctness anchor for the whole RV32I
//! frontend: it runs a program in lockstep on the project emulator
//! ([`reese_cpu::Emulator`] via the decoded [`Program`]) and on
//! [`RefCpu`], a from-the-spec interpreter over the **raw u32 words**
//! of the binary image that shares no decode or execute code with
//! `reese-isa`/`reese-cpu`. Any disagreement in pc, register file,
//! output, or exit code — at any step — is reported with the step
//! index, so an encode, decode, or semantics bug in either stack cannot
//! hide behind a matching final checksum.

use reese_cpu::Emulator;
use reese_isa::{IsaId, Program, STACK_TOP};
use std::collections::BTreeMap;
use std::fmt;

/// The RV32I kernel ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rv32Kernel {
    /// ijpeg-like: unrolled integer arithmetic with multiplies.
    Imaging,
    /// li-like: cons-cell pointer chasing through `.word`-linked cells.
    Lisp,
    /// perl-like: byte scanning and a rolling ×33 hash.
    Strings,
}

impl Rv32Kernel {
    /// All ports, in catalogue order.
    pub const ALL: [Rv32Kernel; 3] = [Rv32Kernel::Imaging, Rv32Kernel::Lisp, Rv32Kernel::Strings];

    /// Short name used in tables and harness output.
    pub fn name(self) -> &'static str {
        match self {
            Rv32Kernel::Imaging => "imaging",
            Rv32Kernel::Lisp => "lisp",
            Rv32Kernel::Strings => "strings",
        }
    }

    /// One-line description for `reese kernels`.
    pub fn description(self) -> &'static str {
        match self {
            Rv32Kernel::Imaging => "unrolled integer arithmetic with multiplies (ijpeg-like)",
            Rv32Kernel::Lisp => "cons-cell pointer chasing over .word-linked cells (li-like)",
            Rv32Kernel::Strings => "byte scanning with a rolling x33 hash (perl-like)",
        }
    }

    /// The RV32I assembler source at an explicit scale (outer passes).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn source(self, scale: u32) -> String {
        assert!(scale > 0, "scale must be positive");
        match self {
            Rv32Kernel::Imaging => format!(
                "\
        .entry main
main:   li s2, 0
        li t6, {scale}
pass:   li t0, 3
        li t1, 5
        li t2, 7
        li t3, 11
        mul t4, t0, t1
        mul t5, t2, t3
        add t4, t4, t5
        slli t5, t4, 3
        sub t5, t5, t4
        xor s2, s2, t5
        add s2, s2, t0
        srai t4, s2, 2
        add s2, s2, t4
        addi t6, t6, -1
        bnez t6, pass
        slli a0, s2, 1
        srli a0, a0, 1
        li a7, 1
        ecall
        li a7, 93
        li a0, 0
        ecall
"
            ),
            Rv32Kernel::Lisp => format!(
                "\
        .entry main
main:   li s2, 0
        li t6, {scale}
pass:   la t0, cell0
chase:  beqz t0, next
        lw t1, 0(t0)
        add s2, s2, t1
        lw t0, 4(t0)
        j chase
next:   addi t6, t6, -1
        bnez t6, pass
        mv a0, s2
        li a7, 1
        ecall
        li a7, 93
        li a0, 0
        ecall

        .data
cell0:  .word 7, cell3
cell1:  .word 11, 0
cell2:  .word 13, cell1
cell3:  .word 5, cell2
"
            ),
            Rv32Kernel::Strings => format!(
                "\
        .entry main
main:   li s2, 0
        li t6, {scale}
outer:  la t0, text
        li t1, 43
scan:   lbu t2, 0(t0)
        slli t3, s2, 5
        add t3, t3, s2
        add s2, t3, t2
        addi t0, t0, 1
        addi t1, t1, -1
        bnez t1, scan
        addi t6, t6, -1
        bnez t6, outer
        slli a0, s2, 1
        srli a0, a0, 1
        li a7, 1
        ecall
        li a7, 93
        li a0, 0
        ecall

        .data
text:   .asciz \"the quick brown fox jumps over the lazy dog\"
"
            ),
        }
    }

    /// Assembles the kernel into an [`IsaId::Rv32i`]-stamped program.
    ///
    /// # Panics
    ///
    /// Panics if the source fails to assemble (a kernel bug).
    pub fn build(self, scale: u32) -> Program {
        IsaId::Rv32i
            .frontend()
            .assemble(&self.source(scale))
            .unwrap_or_else(|e| panic!("rv32i kernel {self} must assemble: {e}"))
    }
}

impl fmt::Display for Rv32Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A from-the-spec RV32I reference interpreter over raw instruction
/// words. It decodes the 32-bit encodings directly — no `reese-isa`
/// decode, no [`reese_cpu::step_rv32`] — so a lockstep run against the
/// project emulator cross-checks both stacks against the architecture
/// manual rather than against each other's source.
pub struct RefCpu {
    regs: [u32; 32],
    pc: u32,
    mem: BTreeMap<u32, u8>,
    words: Vec<u32>,
    text_base: u32,
    output: Vec<i64>,
    exit: Option<u32>,
}

fn sext32(v: u32) -> u64 {
    v as i32 as i64 as u64
}

impl RefCpu {
    /// Loads the program's binary image.
    ///
    /// # Errors
    ///
    /// Returns an error if the program is not RV32I-stamped or its text
    /// fails to encode.
    pub fn new(program: &Program) -> Result<RefCpu, String> {
        if program.isa() != IsaId::Rv32i {
            return Err(format!(
                "reference interpreter needs an rv32i program, got {}",
                program.isa().name()
            ));
        }
        let image = program
            .text_image()
            .map_err(|(i, e)| format!("text word {i}: {e}"))?;
        let words = image
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
            .collect();
        let mut mem = BTreeMap::new();
        for (i, &byte) in program.data().iter().enumerate() {
            if byte != 0 {
                mem.insert(program.data_base() as u32 + i as u32, byte);
            }
        }
        for (i, &byte) in image.iter().enumerate() {
            if byte != 0 {
                mem.insert(program.text_base() as u32 + i as u32, byte);
            }
        }
        let mut regs = [0u32; 32];
        regs[2] = STACK_TOP as u32; // sp
        Ok(RefCpu {
            regs,
            pc: program.entry() as u32,
            mem,
            words,
            text_base: program.text_base() as u32,
            output: Vec::new(),
            exit: None,
        })
    }

    /// Architectural registers, sign-extended to the 64-bit cells the
    /// project emulator uses (for lockstep comparison).
    pub fn reg64(&self, i: usize) -> u64 {
        sext32(self.regs[i])
    }

    /// Current pc, widened the same way.
    pub fn pc64(&self) -> u64 {
        sext32(self.pc)
    }

    /// Values printed so far.
    pub fn output(&self) -> &[i64] {
        &self.output
    }

    /// Exit code, once an exit `ecall` has executed.
    pub fn exit_code(&self) -> Option<u32> {
        self.exit
    }

    fn read_u8(&self, addr: u32) -> u8 {
        self.mem.get(&addr).copied().unwrap_or(0)
    }

    fn read(&self, addr: u32, bytes: u32) -> u32 {
        let mut v = 0u32;
        for i in 0..bytes {
            v |= u32::from(self.read_u8(addr.wrapping_add(i))) << (8 * i);
        }
        v
    }

    fn write(&mut self, addr: u32, bytes: u32, value: u32) {
        for i in 0..bytes {
            self.mem
                .insert(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    fn set(&mut self, rd: u32, value: u32) {
        if rd != 0 {
            self.regs[rd as usize] = value;
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns an error if the pc leaves the text segment or the word
    /// is not a recognised RV32I encoding.
    pub fn step(&mut self) -> Result<(), String> {
        if self.exit.is_some() {
            return Ok(());
        }
        let off = self.pc.wrapping_sub(self.text_base);
        if !off.is_multiple_of(4) || (off / 4) as usize >= self.words.len() {
            return Err(format!("reference pc {:#x} left text", self.pc));
        }
        let w = self.words[(off / 4) as usize];
        let opc = w & 0x7F;
        let rd = (w >> 7) & 0x1F;
        let f3 = (w >> 12) & 0x7;
        let rs1 = ((w >> 15) & 0x1F) as usize;
        let rs2 = ((w >> 20) & 0x1F) as usize;
        let f7 = w >> 25;
        let a = self.regs[rs1];
        let b = self.regs[rs2];
        let i_imm = (w as i32 >> 20) as u32;
        let s_imm = (((w as i32 >> 25) << 5) | ((w as i32 >> 7) & 0x1F)) as u32;
        let b_imm = (((w as i32 >> 31) << 12)
            | (((w as i32 >> 7) & 1) << 11)
            | (((w as i32 >> 25) & 0x3F) << 5)
            | (((w as i32 >> 8) & 0xF) << 1)) as u32;
        let j_imm = (((w as i32 >> 31) << 20)
            | (((w as i32 >> 12) & 0xFF) << 12)
            | (((w as i32 >> 20) & 1) << 11)
            | (((w as i32 >> 21) & 0x3FF) << 1)) as u32;
        let mut next = self.pc.wrapping_add(4);
        match opc {
            0x37 => self.set(rd, w & 0xFFFF_F000),
            0x17 => self.set(rd, self.pc.wrapping_add(w & 0xFFFF_F000)),
            0x6F => {
                self.set(rd, next);
                next = self.pc.wrapping_add(j_imm);
            }
            0x67 if f3 == 0 => {
                let target = a.wrapping_add(i_imm) & !1;
                self.set(rd, next);
                next = target;
            }
            0x63 => {
                let taken = match f3 {
                    0 => a == b,
                    1 => a != b,
                    4 => (a as i32) < (b as i32),
                    5 => (a as i32) >= (b as i32),
                    6 => a < b,
                    7 => a >= b,
                    _ => return Err(format!("branch funct3 {f3}")),
                };
                if taken {
                    next = self.pc.wrapping_add(b_imm);
                }
            }
            0x03 => {
                let addr = a.wrapping_add(i_imm);
                let v = match f3 {
                    0 => self.read(addr, 1) as i8 as i32 as u32,
                    1 => self.read(addr, 2) as i16 as i32 as u32,
                    2 => self.read(addr, 4),
                    4 => self.read(addr, 1),
                    5 => self.read(addr, 2),
                    _ => return Err(format!("load funct3 {f3}")),
                };
                self.set(rd, v);
            }
            0x23 => {
                let addr = a.wrapping_add(s_imm);
                match f3 {
                    0 => self.write(addr, 1, b),
                    1 => self.write(addr, 2, b),
                    2 => self.write(addr, 4, b),
                    _ => return Err(format!("store funct3 {f3}")),
                }
            }
            0x13 => {
                let shamt = (w >> 20) & 0x1F;
                let v = match (f3, f7) {
                    (0, _) => a.wrapping_add(i_imm),
                    (2, _) => u32::from((a as i32) < (i_imm as i32)),
                    (3, _) => u32::from(a < i_imm),
                    (4, _) => a ^ i_imm,
                    (6, _) => a | i_imm,
                    (7, _) => a & i_imm,
                    (1, 0) => a << shamt,
                    (5, 0) => a >> shamt,
                    (5, 0x20) => ((a as i32) >> shamt) as u32,
                    _ => return Err(format!("imm-alu funct3 {f3} funct7 {f7:#x}")),
                };
                self.set(rd, v);
            }
            0x33 => {
                let v = match (f7, f3) {
                    (0, 0) => a.wrapping_add(b),
                    (0x20, 0) => a.wrapping_sub(b),
                    (0, 1) => a << (b & 31),
                    (0, 2) => u32::from((a as i32) < (b as i32)),
                    (0, 3) => u32::from(a < b),
                    (0, 4) => a ^ b,
                    (0, 5) => a >> (b & 31),
                    (0x20, 5) => ((a as i32) >> (b & 31)) as u32,
                    (0, 6) => a | b,
                    (0, 7) => a & b,
                    (1, 0) => a.wrapping_mul(b),
                    (1, 4) => {
                        if b == 0 {
                            u32::MAX
                        } else {
                            (a as i32).wrapping_div(b as i32) as u32
                        }
                    }
                    (1, 5) => a.checked_div(b).unwrap_or(u32::MAX),
                    (1, 6) => {
                        if b == 0 {
                            a
                        } else {
                            (a as i32).wrapping_rem(b as i32) as u32
                        }
                    }
                    (1, 7) => {
                        if b == 0 {
                            a
                        } else {
                            a % b
                        }
                    }
                    _ => return Err(format!("alu funct7 {f7:#x} funct3 {f3}")),
                };
                self.set(rd, v);
            }
            0x0F => {}
            0x73 if w == 0x0000_0073 => {
                let a7 = self.regs[17];
                let a0 = self.regs[10];
                match a7 {
                    1 => self.output.push(a0 as i32 as i64),
                    93 => {
                        self.exit = Some(a0);
                        return Ok(());
                    }
                    _ => {
                        self.exit = Some(a7);
                        return Ok(());
                    }
                }
            }
            0x73 if w == 0x0010_0073 => {
                self.exit = Some(0);
                return Ok(());
            }
            _ => return Err(format!("unrecognised word {w:#010x} at {:#x}", self.pc)),
        }
        self.pc = next;
        Ok(())
    }
}

/// Runs an RV32I program in lockstep on the project emulator and on
/// [`RefCpu`], comparing pc and the full integer register file after
/// every instruction, and output plus exit code at the end. Returns the
/// number of instructions executed.
///
/// # Errors
///
/// Reports the first divergence with its step index, or failure to halt
/// within `max_steps`.
pub fn differential_check(program: &Program, max_steps: u64) -> Result<u64, String> {
    let mut reference = RefCpu::new(program)?;
    let mut emu = Emulator::new(program);
    for step in 0..max_steps {
        if let Some(code) = reference.exit_code() {
            let emu_code = emu
                .exit_code()
                .ok_or_else(|| format!("step {step}: reference exited, emulator did not"))?;
            if emu_code != u64::from(code) {
                return Err(format!(
                    "exit code mismatch: emulator {emu_code}, reference {code}"
                ));
            }
            if emu.output() != reference.output() {
                return Err(format!(
                    "output mismatch: emulator {:?}, reference {:?}",
                    emu.output(),
                    reference.output()
                ));
            }
            return Ok(step);
        }
        if emu.exit_code().is_some() {
            return Err(format!("step {step}: emulator exited, reference did not"));
        }
        let epc = emu.state().pc;
        if epc != reference.pc64() {
            return Err(format!(
                "step {step}: pc mismatch: emulator {epc:#x}, reference {:#x}",
                reference.pc64()
            ));
        }
        for r in 0..32 {
            let ev = emu.state().read(reese_isa::Reg::x(r as u8));
            if ev != reference.reg64(r) {
                return Err(format!(
                    "step {step} (pc {epc:#x}): x{r} mismatch: emulator {ev:#x}, reference {:#x}",
                    reference.reg64(r)
                ));
            }
        }
        emu.step().map_err(|e| format!("step {step}: {e}"))?;
        reference.step().map_err(|e| format!("step {step}: {e}"))?;
    }
    Err(format!("no halt within {max_steps} steps"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rv32_kernels_pass_the_differential_harness() {
        for k in Rv32Kernel::ALL {
            let prog = k.build(3);
            assert_eq!(prog.isa(), IsaId::Rv32i);
            let steps = differential_check(&prog, 1_000_000)
                .unwrap_or_else(|e| panic!("{k}: differential harness failed: {e}"));
            assert!(steps > 10, "{k}: suspiciously short run ({steps} steps)");
        }
    }

    #[test]
    fn kernels_halt_cleanly_and_print_a_checksum() {
        for k in Rv32Kernel::ALL {
            let prog = k.build(2);
            let r = Emulator::new(&prog).run(1_000_000).unwrap();
            assert!(r.halted(), "{k} must halt");
            assert_eq!(r.output.len(), 1, "{k} prints exactly one checksum");
            assert!(r.output[0] >= 0, "{k}: checksum is masked non-negative");
        }
    }

    #[test]
    fn kernel_scale_changes_dynamic_length_not_shape() {
        for k in Rv32Kernel::ALL {
            let short = Emulator::new(&k.build(1)).run(1_000_000).unwrap();
            let long = Emulator::new(&k.build(4)).run(1_000_000).unwrap();
            assert!(
                long.instructions > short.instructions,
                "{k}: scale must add dynamic instructions"
            );
        }
    }

    #[test]
    fn lisp_cells_resolve_forward_word_labels() {
        // cell0 links forward to cell3: the `.word` label fixups must
        // produce a chain summing 7 + 5 + 13 + 11 = 36 per pass.
        let prog = Rv32Kernel::Lisp.build(1);
        let r = Emulator::new(&prog).run(100_000).unwrap();
        assert_eq!(r.output, vec![36]);
    }

    /// FNV-1a over a program's text image, data, entry and symbols.
    fn program_digest(p: &Program) -> u64 {
        let mut bytes = p.text_image().expect("rv32i text encodes");
        bytes.extend_from_slice(&(p.data().len() as u64).to_le_bytes());
        bytes.extend_from_slice(p.data());
        bytes.extend_from_slice(&p.entry().to_le_bytes());
        for (name, addr) in p.symbols() {
            bytes.extend_from_slice(name.as_bytes());
            bytes.extend_from_slice(&addr.to_le_bytes());
        }
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn assembled_ports_keep_their_layout() {
        // Recorded before the RV32I assembler moved onto the shared
        // source layer: the ports and the CI example must keep
        // assembling to the same words, data, entry and symbols.
        let pinned = [
            (Rv32Kernel::Imaging, 1, 0x7cad_1fcf_53b7_5762),
            (Rv32Kernel::Imaging, 1600, 0xe12f_7705_f6e6_dc06),
            (Rv32Kernel::Lisp, 1, 0xa960_5d29_ce27_ef08),
            (Rv32Kernel::Lisp, 1600, 0xe9bf_a6e7_b8ba_72cc),
            (Rv32Kernel::Strings, 1, 0x35f2_a722_0535_ab94),
            (Rv32Kernel::Strings, 1600, 0x1608_b907_6d1a_5d70),
        ];
        for (k, scale, digest) in pinned {
            assert_eq!(program_digest(&k.build(scale)), digest, "{k} x{scale}");
        }
        let checksum = include_str!("../../../examples/rv32i/checksum.s");
        let p = reese_isa::rv32i::assemble(checksum).unwrap();
        assert_eq!(program_digest(&p), 0xc4a1_71c3_efbc_c97d, "checksum.s");
    }

    #[test]
    fn reference_interpreter_rejects_native_programs() {
        let prog = reese_isa::assemble("  halt\n").unwrap();
        assert!(RefCpu::new(&prog).is_err());
    }

    #[test]
    fn differential_harness_catches_a_semantics_divergence() {
        // Hand-build a reference CPU, corrupt one register mid-run, and
        // the harness-style comparison must notice. (Drives the error
        // path the kernel tests never take.)
        let prog = Rv32Kernel::Imaging.build(1);
        let mut reference = RefCpu::new(&prog).unwrap();
        let mut emu = Emulator::new(&prog);
        emu.step().unwrap();
        reference.step().unwrap();
        reference.regs[8] ^= 1; // s0
        let mismatch =
            (0..32).any(|r| emu.state().read(reese_isa::Reg::x(r as u8)) != reference.reg64(r));
        assert!(mismatch, "corruption must be visible to the comparison");
    }
}
