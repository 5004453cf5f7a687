//! Programmatic code generation.
//!
//! [`ProgramBuilder`] is the API the workload kernels are written
//! against: it emits instructions with label-based control flow, manages
//! a data segment, expands the usual pseudo-instructions, and resolves
//! everything into a [`Program`] at the end.

use crate::rv32i::hi_lo;
use crate::{Instr, IsaId, Opcode, Program, Reg, DATA_BASE, TEXT_BASE};
use std::collections::BTreeMap;
use std::fmt;

/// A forward-referenceable code or data position.
///
/// Obtained from [`ProgramBuilder::label`] (code, unbound until
/// [`ProgramBuilder::bind`]) or the data-emission methods (bound
/// immediately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Error produced by [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A label was referenced but never bound to a position.
    UnboundLabel(String),
    /// A resolved address or offset does not fit the 32-bit immediate.
    ImmOverflow { instr_index: usize, value: i64 },
    /// The entry label is bound in the data segment, not to code.
    EntryNotCode(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnboundLabel(n) => write!(f, "label `{n}` was never bound"),
            BuildError::ImmOverflow { instr_index, value } => {
                write!(
                    f,
                    "value {value} at instruction {instr_index} overflows the immediate field"
                )
            }
            BuildError::EntryNotCode(n) => write!(f, "entry label `{n}` is in .data"),
        }
    }
}

impl std::error::Error for BuildError {}

#[derive(Debug, Clone, Copy)]
enum LabelTarget {
    Unbound,
    /// Instruction index in the text segment.
    Code(usize),
    /// Byte offset in the data segment.
    Data(usize),
}

#[derive(Debug, Clone, Copy)]
enum Fixup {
    /// Patch `imm` with `target_addr - instr_addr` (branches, `jal`).
    PcRelative(Label),
    /// Patch `imm` with the label's absolute address (`la` via `li32`).
    Absolute(Label),
    /// Patch `imm` with the `lui` or `addi` half of the label's address
    /// (`la` on RV32I, see [`crate::rv32i::hi_lo`]).
    Hi(Label),
    Lo(Label),
}

/// A label reference inside the data segment (`.word`/`.dword` with a
/// label operand), patched with the label's absolute address at build
/// time — so forward references resolve to final addresses, never to
/// stale offsets.
#[derive(Debug, Clone, Copy)]
struct DataFixup {
    /// Byte offset in the data segment where the address is written.
    offset: usize,
    /// The referenced label.
    label: Label,
    /// Field width in bytes (4 or 8).
    width: usize,
}

/// An incremental builder for [`Program`]s.
///
/// # Example
///
/// ```
/// use reese_isa::{abi::*, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new();
/// let loop_top = b.label("loop");
/// b.li(T0, 10);
/// b.bind(loop_top);
/// b.addi(T0, T0, -1);
/// b.bnez(T0, loop_top);
/// b.halt();
/// let prog = b.build()?;
/// assert_eq!(prog.len(), 4);
/// # Ok::<(), reese_isa::BuildError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    text: Vec<Instr>,
    fixups: Vec<(usize, Fixup)>,
    data_fixups: Vec<DataFixup>,
    labels: Vec<LabelTarget>,
    label_names: Vec<String>,
    named: BTreeMap<String, Label>,
    data: Vec<u8>,
    entry_label: Option<Label>,
    isa: IsaId,
}

impl ProgramBuilder {
    /// Creates an empty builder targeting the native ISA.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Creates an empty builder targeting a specific ISA. Label
    /// addresses and pc-relative fix-ups use that ISA's instruction
    /// size, and the built [`Program`] is stamped with it.
    pub fn for_isa(isa: IsaId) -> ProgramBuilder {
        ProgramBuilder {
            isa,
            ..ProgramBuilder::default()
        }
    }

    /// The ISA this builder targets.
    pub fn isa(&self) -> IsaId {
        self.isa
    }

    fn inst_size(&self) -> u64 {
        self.isa.inst_size()
    }

    // -- labels ----------------------------------------------------------

    /// Declares (or retrieves) a named label, initially unbound.
    pub fn label(&mut self, name: &str) -> Label {
        if let Some(&l) = self.named.get(name) {
            return l;
        }
        let l = Label(self.labels.len());
        self.labels.push(LabelTarget::Unbound);
        self.label_names.push(name.to_string());
        self.named.insert(name.to_string(), l);
        l
    }

    /// Binds a label to the current end of the text segment.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) -> &mut Self {
        match self.labels[label.0] {
            LabelTarget::Unbound => self.labels[label.0] = LabelTarget::Code(self.text.len()),
            _ => panic!("label `{}` bound twice", self.label_names[label.0]),
        }
        self
    }

    /// Declares and immediately binds a code label.
    pub fn here(&mut self, name: &str) -> Label {
        let l = self.label(name);
        self.bind(l);
        l
    }

    /// Whether a label has been bound to a position yet.
    pub fn is_bound(&self, label: Label) -> bool {
        !matches!(self.labels[label.0], LabelTarget::Unbound)
    }

    /// Marks the program entry point (defaults to the first instruction).
    pub fn entry(&mut self, label: Label) -> &mut Self {
        self.entry_label = Some(label);
        self
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    // -- raw emission ------------------------------------------------------

    /// Emits a raw instruction.
    pub fn emit(&mut self, i: Instr) -> &mut Self {
        self.text.push(i);
        self
    }

    /// Emits a raw pc-relative control-flow instruction (branch or
    /// `jal` form) whose immediate is resolved from `target` at build
    /// time. This is the escape hatch for program *transforms* that
    /// rewrite existing instruction streams: the original branch
    /// offsets are invalid after instructions are inserted, so the
    /// rewriter re-emits each control transfer against a label bound
    /// where the original target landed.
    pub fn emit_branch(&mut self, i: Instr, target: Label) -> &mut Self {
        self.emit_fixup(i, Fixup::PcRelative(target))
    }

    fn emit_fixup(&mut self, i: Instr, fixup: Fixup) -> &mut Self {
        self.fixups.push((self.text.len(), fixup));
        self.text.push(i);
        self
    }

    // -- data segment --------------------------------------------------------

    /// Declares a label bound to the current end of the data segment.
    pub fn data_label(&mut self, name: &str) -> Label {
        let l = self.label(name);
        self.bind_data(l);
        l
    }

    /// Binds an existing label to the current end of the data segment.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind_data(&mut self, label: Label) -> &mut Self {
        match self.labels[label.0] {
            LabelTarget::Unbound => self.labels[label.0] = LabelTarget::Data(self.data.len()),
            _ => panic!("label `{}` bound twice", self.label_names[label.0]),
        }
        self
    }

    /// Appends one byte of initialised data.
    pub fn byte(&mut self, v: u8) -> &mut Self {
        self.data.push(v);
        self
    }

    /// Appends raw bytes of initialised data.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.data.extend_from_slice(v);
        self
    }

    /// Appends a little-endian 32-bit word.
    pub fn word(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a little-endian 64-bit word.
    pub fn dword(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a 32-bit word holding a label's address, resolved at
    /// build time (so forward references get the final address).
    pub fn word_label(&mut self, label: Label) -> &mut Self {
        self.data_fixups.push(DataFixup {
            offset: self.data.len(),
            label,
            width: 4,
        });
        self.word(0)
    }

    /// Appends a 64-bit word holding a label's address, resolved at
    /// build time (so forward references get the final address).
    pub fn dword_label(&mut self, label: Label) -> &mut Self {
        self.data_fixups.push(DataFixup {
            offset: self.data.len(),
            label,
            width: 8,
        });
        self.dword(0)
    }

    /// Appends `n` zero bytes.
    pub fn space(&mut self, n: usize) -> &mut Self {
        self.data.resize(self.data.len() + n, 0);
        self
    }

    /// Pads the data segment to an `n`-byte boundary.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn align(&mut self, n: usize) -> &mut Self {
        assert!(n.is_power_of_two(), "alignment must be a power of two");
        self.data.resize(self.data.len().next_multiple_of(n), 0);
        self
    }

    /// Bytes of data emitted so far.
    pub(crate) fn data_len(&self) -> usize {
        self.data.len()
    }

    /// Appends a NUL-terminated string.
    pub fn asciz(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes());
        self.byte(0)
    }

    // -- integer ALU ---------------------------------------------------------

    /// `rd = rs1 + rs2`
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Add, rd, rs1, rs2))
    }
    /// `rd = rs1 - rs2`
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Sub, rd, rs1, rs2))
    }
    /// `rd = rs1 * rs2`
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Mul, rd, rs1, rs2))
    }
    /// `rd = rs1 / rs2` (signed)
    pub fn div(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Div, rd, rs1, rs2))
    }
    /// `rd = rs1 % rs2` (signed)
    pub fn rem(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Rem, rd, rs1, rs2))
    }
    /// `rd = rs1 / rs2` (unsigned)
    pub fn divu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Divu, rd, rs1, rs2))
    }
    /// `rd = rs1 % rs2` (unsigned)
    pub fn remu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Remu, rd, rs1, rs2))
    }
    /// `rd = rs1 & rs2`
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::And, rd, rs1, rs2))
    }
    /// `rd = rs1 | rs2`
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Or, rd, rs1, rs2))
    }
    /// `rd = rs1 ^ rs2`
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Xor, rd, rs1, rs2))
    }
    /// `rd = rs1 << rs2`
    pub fn sll(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Sll, rd, rs1, rs2))
    }
    /// `rd = rs1 >> rs2` (logical)
    pub fn srl(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Srl, rd, rs1, rs2))
    }
    /// `rd = rs1 >> rs2` (arithmetic)
    pub fn sra(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Sra, rd, rs1, rs2))
    }
    /// `rd = (rs1 < rs2) ? 1 : 0` (signed)
    pub fn slt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Slt, rd, rs1, rs2))
    }
    /// `rd = (rs1 < rs2) ? 1 : 0` (unsigned)
    pub fn sltu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Sltu, rd, rs1, rs2))
    }

    /// `rd = rs1 + imm`
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.emit(Instr::rri(Opcode::Addi, rd, rs1, imm))
    }
    /// `rd = rs1 & imm`
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.emit(Instr::rri(Opcode::Andi, rd, rs1, imm))
    }
    /// `rd = rs1 | imm`
    pub fn ori(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.emit(Instr::rri(Opcode::Ori, rd, rs1, imm))
    }
    /// `rd = rs1 ^ imm`
    pub fn xori(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.emit(Instr::rri(Opcode::Xori, rd, rs1, imm))
    }
    /// `rd = rs1 << imm`
    pub fn slli(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.emit(Instr::rri(Opcode::Slli, rd, rs1, imm))
    }
    /// `rd = rs1 >> imm` (logical)
    pub fn srli(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.emit(Instr::rri(Opcode::Srli, rd, rs1, imm))
    }
    /// `rd = rs1 >> imm` (arithmetic)
    pub fn srai(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.emit(Instr::rri(Opcode::Srai, rd, rs1, imm))
    }
    /// `rd = (rs1 < imm) ? 1 : 0` (signed)
    pub fn slti(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.emit(Instr::rri(Opcode::Slti, rd, rs1, imm))
    }

    /// Loads any 64-bit constant (one or two instructions).
    pub fn li(&mut self, rd: Reg, value: i64) -> &mut Self {
        if i32::try_from(value).is_ok() {
            return self.emit(Instr::rri(Opcode::Li, rd, Reg::ZERO, value));
        }
        let lo = value as u32 as i32 as i64; // sign-extended low half
        let hi = (value as u64 >> 32) as u32 as i64;
        self.emit(Instr::rri(Opcode::Li, rd, Reg::ZERO, lo));
        // `lih` keeps rd's low half and overwrites the high half; rs1 is
        // canonicalised to rd so dependence tracking sees the read.
        self.emit(Instr {
            op: Opcode::Lih,
            rd,
            rs1: rd,
            rs2: Reg::ZERO,
            imm: hi,
        })
    }

    /// Loads the address of a label (`la`).
    pub fn la(&mut self, rd: Reg, label: Label) -> &mut Self {
        self.emit_fixup(
            Instr::rri(Opcode::Li, rd, Reg::ZERO, 0),
            Fixup::Absolute(label),
        )
    }

    /// Loads the address of a label as an RV32I `lui`/`addi` pair. It
    /// is always two instructions, whatever the address.
    pub(crate) fn la_hi_lo(&mut self, rd: Reg, label: Label) -> &mut Self {
        self.emit_fixup(Instr::rri(Opcode::Li, rd, Reg::ZERO, 0), Fixup::Hi(label));
        self.emit_fixup(Instr::rri(Opcode::Addi, rd, rd, 0), Fixup::Lo(label))
    }

    // -- memory ---------------------------------------------------------------

    /// `rd = sext(mem8[base + off])`
    pub fn lb(&mut self, rd: Reg, off: i64, base: Reg) -> &mut Self {
        self.emit(Instr::load(Opcode::Lb, rd, base, off))
    }
    /// `rd = zext(mem8[base + off])`
    pub fn lbu(&mut self, rd: Reg, off: i64, base: Reg) -> &mut Self {
        self.emit(Instr::load(Opcode::Lbu, rd, base, off))
    }
    /// `rd = sext(mem16[base + off])`
    pub fn lh(&mut self, rd: Reg, off: i64, base: Reg) -> &mut Self {
        self.emit(Instr::load(Opcode::Lh, rd, base, off))
    }
    /// `rd = zext(mem16[base + off])`
    pub fn lhu(&mut self, rd: Reg, off: i64, base: Reg) -> &mut Self {
        self.emit(Instr::load(Opcode::Lhu, rd, base, off))
    }
    /// `rd = sext(mem32[base + off])`
    pub fn lw(&mut self, rd: Reg, off: i64, base: Reg) -> &mut Self {
        self.emit(Instr::load(Opcode::Lw, rd, base, off))
    }
    /// `rd = zext(mem32[base + off])`
    pub fn lwu(&mut self, rd: Reg, off: i64, base: Reg) -> &mut Self {
        self.emit(Instr::load(Opcode::Lwu, rd, base, off))
    }
    /// `rd = mem64[base + off]`
    pub fn ld(&mut self, rd: Reg, off: i64, base: Reg) -> &mut Self {
        self.emit(Instr::load(Opcode::Ld, rd, base, off))
    }
    /// `fd = mem64[base + off]`
    pub fn fld(&mut self, fd: Reg, off: i64, base: Reg) -> &mut Self {
        self.emit(Instr::load(Opcode::Fld, fd, base, off))
    }
    /// `mem8[base + off] = src`
    pub fn sb(&mut self, src: Reg, off: i64, base: Reg) -> &mut Self {
        self.emit(Instr::store(Opcode::Sb, src, base, off))
    }
    /// `mem16[base + off] = src`
    pub fn sh(&mut self, src: Reg, off: i64, base: Reg) -> &mut Self {
        self.emit(Instr::store(Opcode::Sh, src, base, off))
    }
    /// `mem32[base + off] = src`
    pub fn sw(&mut self, src: Reg, off: i64, base: Reg) -> &mut Self {
        self.emit(Instr::store(Opcode::Sw, src, base, off))
    }
    /// `mem64[base + off] = src`
    pub fn sd(&mut self, src: Reg, off: i64, base: Reg) -> &mut Self {
        self.emit(Instr::store(Opcode::Sd, src, base, off))
    }
    /// `mem64[base + off] = fsrc`
    pub fn fsd(&mut self, fsrc: Reg, off: i64, base: Reg) -> &mut Self {
        self.emit(Instr::store(Opcode::Fsd, fsrc, base, off))
    }

    // -- control flow -----------------------------------------------------------

    /// Branch to `target` if `rs1 == rs2`.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.emit_fixup(
            Instr::branch(Opcode::Beq, rs1, rs2, 0),
            Fixup::PcRelative(target),
        )
    }
    /// Branch to `target` if `rs1 != rs2`.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.emit_fixup(
            Instr::branch(Opcode::Bne, rs1, rs2, 0),
            Fixup::PcRelative(target),
        )
    }
    /// Branch to `target` if `rs1 < rs2` (signed).
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.emit_fixup(
            Instr::branch(Opcode::Blt, rs1, rs2, 0),
            Fixup::PcRelative(target),
        )
    }
    /// Branch to `target` if `rs1 >= rs2` (signed).
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.emit_fixup(
            Instr::branch(Opcode::Bge, rs1, rs2, 0),
            Fixup::PcRelative(target),
        )
    }
    /// Branch to `target` if `rs1 < rs2` (unsigned).
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.emit_fixup(
            Instr::branch(Opcode::Bltu, rs1, rs2, 0),
            Fixup::PcRelative(target),
        )
    }
    /// Branch to `target` if `rs1 >= rs2` (unsigned).
    pub fn bgeu(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.emit_fixup(
            Instr::branch(Opcode::Bgeu, rs1, rs2, 0),
            Fixup::PcRelative(target),
        )
    }
    /// `rd = pc + 8; pc = target`
    pub fn jal(&mut self, rd: Reg, target: Label) -> &mut Self {
        self.emit_fixup(
            Instr::rri(Opcode::Jal, rd, Reg::ZERO, 0),
            Fixup::PcRelative(target),
        )
    }
    /// `rd = pc + 8; pc = rs1 + imm`
    pub fn jalr(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.emit(Instr::rri(Opcode::Jalr, rd, rs1, imm))
    }

    // -- floating point ------------------------------------------------------------

    /// `fd = fs1 + fs2`
    pub fn fadd(&mut self, fd: Reg, fs1: Reg, fs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Fadd, fd, fs1, fs2))
    }
    /// `fd = fs1 - fs2`
    pub fn fsub(&mut self, fd: Reg, fs1: Reg, fs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Fsub, fd, fs1, fs2))
    }
    /// `fd = fs1 * fs2`
    pub fn fmul(&mut self, fd: Reg, fs1: Reg, fs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Fmul, fd, fs1, fs2))
    }
    /// `fd = fs1 / fs2`
    pub fn fdiv(&mut self, fd: Reg, fs1: Reg, fs2: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Fdiv, fd, fs1, fs2))
    }
    /// `fd = (f64) rs1`
    pub fn fcvtif(&mut self, fd: Reg, rs1: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Fcvtif, fd, rs1, Reg::ZERO))
    }
    /// `rd = (i64) fs1`
    pub fn fcvtfi(&mut self, rd: Reg, fs1: Reg) -> &mut Self {
        self.emit(Instr::rrr(Opcode::Fcvtfi, rd, fs1, Reg::ZERO))
    }

    // -- system ---------------------------------------------------------------------

    /// Stops the machine; the exit code is read from `x10` (`a0`).
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Instr {
            op: Opcode::Halt,
            rs1: Reg::x(10),
            ..Instr::nop()
        })
    }

    /// Appends `rs1` to the machine output log.
    pub fn print(&mut self, rs1: Reg) -> &mut Self {
        self.emit(Instr {
            op: Opcode::Print,
            rs1,
            ..Instr::nop()
        })
    }

    /// Emits a no-op.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Instr::nop())
    }

    // -- pseudo-instructions -----------------------------------------------------------

    /// `rd = rs` (copy).
    pub fn mv(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.addi(rd, rs, 0)
    }
    /// `rd = -rs`
    pub fn neg(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.sub(rd, Reg::ZERO, rs)
    }
    /// `rd = !rs` (bitwise not)
    pub fn not(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.xori(rd, rs, -1)
    }
    /// `rd = (rs == 0) ? 1 : 0`
    pub fn seqz(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.emit(Instr::rri(Opcode::Sltiu, rd, rs, 1))
    }
    /// `rd = (rs != 0) ? 1 : 0`
    pub fn snez(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.sltu(rd, Reg::ZERO, rs)
    }
    /// Branch if `rs == 0`.
    pub fn beqz(&mut self, rs: Reg, target: Label) -> &mut Self {
        self.beq(rs, Reg::ZERO, target)
    }
    /// Branch if `rs != 0`.
    pub fn bnez(&mut self, rs: Reg, target: Label) -> &mut Self {
        self.bne(rs, Reg::ZERO, target)
    }
    /// Branch if `rs < 0`.
    pub fn bltz(&mut self, rs: Reg, target: Label) -> &mut Self {
        self.blt(rs, Reg::ZERO, target)
    }
    /// Branch if `rs >= 0`.
    pub fn bgez(&mut self, rs: Reg, target: Label) -> &mut Self {
        self.bge(rs, Reg::ZERO, target)
    }
    /// Branch if `rs1 <= rs2` (signed).
    pub fn ble(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.bge(rs2, rs1, target)
    }
    /// Branch if `rs1 > rs2` (signed).
    pub fn bgt(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.blt(rs2, rs1, target)
    }
    /// Unconditional jump.
    pub fn j(&mut self, target: Label) -> &mut Self {
        self.jal(Reg::ZERO, target)
    }
    /// Call a subroutine (link in `ra`).
    pub fn call(&mut self, target: Label) -> &mut Self {
        self.jal(Reg::RA, target)
    }
    /// Return from a subroutine (`jalr x0, 0(ra)`).
    pub fn ret(&mut self) -> &mut Self {
        self.jalr(Reg::ZERO, Reg::RA, 0)
    }

    // -- finalisation -------------------------------------------------------------------

    fn label_address(&self, label: Label) -> Result<u64, BuildError> {
        match self.labels[label.0] {
            LabelTarget::Unbound => {
                Err(BuildError::UnboundLabel(self.label_names[label.0].clone()))
            }
            LabelTarget::Code(idx) => Ok(TEXT_BASE + idx as u64 * self.inst_size()),
            LabelTarget::Data(off) => Ok(DATA_BASE + off as u64),
        }
    }

    /// Resolves all fix-ups and produces the final [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnboundLabel`] if any referenced label was
    /// never bound, [`BuildError::ImmOverflow`] if a resolved address
    /// or branch offset exceeds the 32-bit immediate field, or
    /// [`BuildError::EntryNotCode`] if the entry label is a data label.
    pub fn build(mut self) -> Result<Program, BuildError> {
        for &(idx, fixup) in &self.fixups {
            let value = match fixup {
                Fixup::PcRelative(l) => {
                    let target = self.label_address(l)?;
                    let pc = TEXT_BASE + idx as u64 * self.inst_size();
                    target as i64 - pc as i64
                }
                Fixup::Absolute(l) => self.label_address(l)? as i64,
                Fixup::Hi(l) => hi_lo(self.label_address(l)? as i64).0,
                Fixup::Lo(l) => hi_lo(self.label_address(l)? as i64).1,
            };
            if i32::try_from(value).is_err() {
                return Err(BuildError::ImmOverflow {
                    instr_index: idx,
                    value,
                });
            }
            self.text[idx].imm = value;
        }
        for &DataFixup {
            offset,
            label,
            width,
        } in &self.data_fixups
        {
            let addr = self.label_address(label)?;
            if width == 4 && u32::try_from(addr).is_err() {
                return Err(BuildError::ImmOverflow {
                    instr_index: 0,
                    value: addr as i64,
                });
            }
            self.data[offset..offset + width].copy_from_slice(&addr.to_le_bytes()[..width]);
        }
        let entry = match self.entry_label {
            Some(l) if matches!(self.labels[l.0], LabelTarget::Data(_)) => {
                return Err(BuildError::EntryNotCode(self.label_names[l.0].clone()))
            }
            Some(l) => self.label_address(l)?,
            None => TEXT_BASE,
        };
        let mut symbols = BTreeMap::new();
        for (name, &label) in &self.named {
            if let Ok(addr) = self.label_address(label) {
                symbols.insert(name.clone(), addr);
            }
        }
        Ok(
            Program::new(self.text, TEXT_BASE, self.data, DATA_BASE, entry, symbols)
                .with_isa(self.isa),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abi::*;

    #[test]
    fn backward_branch_offset() {
        let mut b = ProgramBuilder::new();
        b.li(T0, 3);
        let top = b.here("top");
        b.addi(T0, T0, -1);
        b.bnez(T0, top);
        b.halt();
        let p = b.build().unwrap();
        // bnez is instruction 2 (addr 0x1010); target instruction 1 (0x1008).
        assert_eq!(p.text()[2].imm, -8);
    }

    #[test]
    fn forward_branch_offset() {
        let mut b = ProgramBuilder::new();
        let done = b.label("done");
        b.beqz(T0, done); // instr 0, addr 0x1000
        b.nop(); // instr 1
        b.bind(done);
        b.halt(); // instr 2, addr 0x1010
        let p = b.build().unwrap();
        assert_eq!(p.text()[0].imm, 16);
    }

    #[test]
    fn unbound_label_is_error() {
        let mut b = ProgramBuilder::new();
        let nowhere = b.label("nowhere");
        b.j(nowhere);
        assert_eq!(b.build(), Err(BuildError::UnboundLabel("nowhere".into())));
    }

    #[test]
    fn li_small_is_one_instruction() {
        let mut b = ProgramBuilder::new();
        b.li(T0, 42);
        assert_eq!(b.len(), 1);
        b.li(T0, -1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn li_large_is_two_instructions() {
        let mut b = ProgramBuilder::new();
        b.li(T0, 0x1234_5678_9ABC_DEF0);
        assert_eq!(b.len(), 2);
        assert_eq!(b.text[0].op, Opcode::Li);
        assert_eq!(b.text[1].op, Opcode::Lih);
        assert_eq!(b.text[1].rs1, T0, "lih must read its own rd");
    }

    #[test]
    fn la_resolves_data_labels() {
        let mut b = ProgramBuilder::new();
        b.space(16);
        let arr = b.data_label("arr");
        b.dword(7);
        b.la(A0, arr);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.text()[0].imm, (DATA_BASE + 16) as i64);
        assert_eq!(p.symbol("arr"), Some(DATA_BASE + 16));
    }

    #[test]
    fn la_resolves_code_labels() {
        let mut b = ProgramBuilder::new();
        let f = b.label("f");
        b.la(A0, f);
        b.halt();
        b.bind(f);
        b.ret();
        let p = b.build().unwrap();
        assert_eq!(p.text()[0].imm, (TEXT_BASE + 16) as i64);
    }

    #[test]
    fn entry_defaults_to_text_base() {
        let mut b = ProgramBuilder::new();
        b.halt();
        assert_eq!(b.build().unwrap().entry(), TEXT_BASE);
    }

    #[test]
    fn explicit_entry() {
        let mut b = ProgramBuilder::new();
        b.nop();
        let main = b.here("main");
        b.halt();
        b.entry(main);
        assert_eq!(b.build().unwrap().entry(), TEXT_BASE + 8);

        let mut b = ProgramBuilder::new();
        let arr = b.data_label("arr");
        b.dword(1);
        b.halt();
        b.entry(arr);
        assert_eq!(b.build(), Err(BuildError::EntryNotCode("arr".into())));
    }

    #[test]
    fn align_and_data_layout() {
        let mut b = ProgramBuilder::new();
        b.byte(1);
        b.align(8);
        let l = b.data_label("x");
        b.dword(5);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.symbol("x"), Some(DATA_BASE + 8));
        assert_eq!(p.data().len(), 16);
        let _ = l;
    }

    #[test]
    fn asciz_terminates() {
        let mut b = ProgramBuilder::new();
        b.asciz("hi");
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.data(), &[b'h', b'i', 0]);
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.here("l");
        b.bind(l);
    }

    #[test]
    fn label_is_idempotent_by_name() {
        let mut b = ProgramBuilder::new();
        let l1 = b.label("same");
        let l2 = b.label("same");
        assert_eq!(l1, l2);
    }

    #[test]
    fn rv32i_builder_uses_four_byte_pc_math() {
        let mut b = ProgramBuilder::for_isa(IsaId::Rv32i);
        b.li(T0, 3);
        let top = b.here("top");
        b.addi(T0, T0, -1);
        b.bnez(T0, top);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.isa(), IsaId::Rv32i);
        // bnez is instruction 2 (addr 0x1008); target instruction 1 (0x1004).
        assert_eq!(p.text()[2].imm, -4);
        assert_eq!(p.symbol("top"), Some(TEXT_BASE + 4));
    }

    #[test]
    fn data_label_fixups_resolve_forward_references() {
        let mut b = ProgramBuilder::new();
        let table = b.data_label("table");
        let fwd = b.label("fwd"); // bound later, after the table
        b.dword_label(fwd);
        b.word_label(table);
        b.halt();
        b.space(4);
        b.bind_data(fwd);
        b.byte(9);
        let p = b.build().unwrap();
        let fwd_addr = DATA_BASE + 8 + 4 + 4; // dword + word + space
        assert_eq!(
            u64::from_le_bytes(p.data()[0..8].try_into().unwrap()),
            fwd_addr
        );
        assert_eq!(
            u64::from(u32::from_le_bytes(p.data()[8..12].try_into().unwrap())),
            DATA_BASE
        );
    }

    #[test]
    fn unbound_data_fixup_is_error() {
        let mut b = ProgramBuilder::new();
        let nowhere = b.label("nowhere");
        b.word_label(nowhere);
        b.halt();
        assert_eq!(b.build(), Err(BuildError::UnboundLabel("nowhere".into())));
    }

    #[test]
    fn pseudo_ops_expand_correctly() {
        let mut b = ProgramBuilder::new();
        b.mv(T0, T1);
        b.neg(T0, T1);
        b.not(T0, T1);
        b.seqz(T0, T1);
        b.snez(T0, T1);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.text()[0].op, Opcode::Addi);
        assert_eq!(p.text()[1].op, Opcode::Sub);
        assert_eq!(p.text()[2].op, Opcode::Xori);
        assert_eq!(p.text()[3].op, Opcode::Sltiu);
        assert_eq!(p.text()[4].op, Opcode::Sltu);
    }
}
