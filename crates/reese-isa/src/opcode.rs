//! The instruction set: opcodes and their static properties.

use std::fmt;

/// Functional-unit class an instruction executes on.
///
/// This is what the REESE evaluation varies: the paper's "spare
/// elements" are extra [`FuClass::IntAlu`] and [`FuClass::IntMulDiv`]
/// instances. Memory instructions occupy a *memory port* rather than a
/// conventional functional unit, mirroring SimpleScalar's read/write
/// ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuClass {
    /// Integer ALU: arithmetic, logic, shifts, compares, branches, jumps.
    IntAlu,
    /// Integer multiplier/divider.
    IntMulDiv,
    /// Floating-point adder (also FP compares, conversions, moves).
    FpAlu,
    /// Floating-point multiplier/divider/square root.
    FpMulDiv,
    /// Memory port (loads and stores).
    MemPort,
}

impl FuClass {
    /// All classes, in display order.
    pub const ALL: [FuClass; 5] = [
        FuClass::IntAlu,
        FuClass::IntMulDiv,
        FuClass::FpAlu,
        FuClass::FpMulDiv,
        FuClass::MemPort,
    ];
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuClass::IntAlu => "int-alu",
            FuClass::IntMulDiv => "int-muldiv",
            FuClass::FpAlu => "fp-alu",
            FuClass::FpMulDiv => "fp-muldiv",
            FuClass::MemPort => "mem-port",
        };
        f.write_str(s)
    }
}

/// Broad behavioural category of an opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Register-to-register or register-immediate computation.
    Alu,
    /// Memory read.
    Load,
    /// Memory write.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump (`jal`, `jalr`).
    Jump,
    /// Environment interaction (`halt`, `print`, …).
    System,
}

/// Width of a memory access in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    B1,
    B2,
    B4,
    B8,
}

impl MemWidth {
    /// Access size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}

macro_rules! opcodes {
    ($( $(#[$meta:meta])* $name:ident = $code:literal => $mnemonic:literal ),+ $(,)?) => {
        /// Every operation in the mini ISA.
        ///
        /// The discriminant values are the stable binary encoding bytes
        /// used by [`crate::encode`]; they must never be reused or
        /// renumbered.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Opcode {
            $( $(#[$meta])* $name = $code ),+
        }

        impl Opcode {
            /// All opcodes, for exhaustive tests and tooling.
            pub const ALL: &'static [Opcode] = &[ $(Opcode::$name),+ ];

            /// Decodes a stable encoding byte back into an opcode.
            pub const fn from_code(code: u8) -> Option<Opcode> {
                match code {
                    $( $code => Some(Opcode::$name), )+
                    _ => None,
                }
            }

            /// The assembler mnemonic.
            pub const fn mnemonic(self) -> &'static str {
                match self {
                    $( Opcode::$name => $mnemonic, )+
                }
            }

            /// Looks an opcode up by its assembler mnemonic.
            pub fn from_mnemonic(m: &str) -> Option<Opcode> {
                match m {
                    $( $mnemonic => Some(Opcode::$name), )+
                    _ => None,
                }
            }
        }
    };
}

opcodes! {
    // -- integer register-register -------------------------------------
    /// `rd = rs1 + rs2`
    Add = 0x01 => "add",
    /// `rd = rs1 - rs2`
    Sub = 0x02 => "sub",
    /// `rd = rs1 * rs2` (low 64 bits)
    Mul = 0x03 => "mul",
    /// `rd = rs1 / rs2` signed; by convention `x / 0 = -1`
    Div = 0x04 => "div",
    /// `rd = rs1 % rs2` signed; by convention `x % 0 = x`
    Rem = 0x05 => "rem",
    /// `rd = rs1 / rs2` unsigned; by convention `x / 0 = u64::MAX`
    Divu = 0x06 => "divu",
    /// `rd = rs1 % rs2` unsigned; by convention `x % 0 = x`
    Remu = 0x07 => "remu",
    /// `rd = rs1 & rs2`
    And = 0x08 => "and",
    /// `rd = rs1 | rs2`
    Or = 0x09 => "or",
    /// `rd = rs1 ^ rs2`
    Xor = 0x0A => "xor",
    /// `rd = rs1 << (rs2 & 63)`
    Sll = 0x0B => "sll",
    /// `rd = rs1 >> (rs2 & 63)` logical
    Srl = 0x0C => "srl",
    /// `rd = rs1 >> (rs2 & 63)` arithmetic
    Sra = 0x0D => "sra",
    /// `rd = (rs1 < rs2) ? 1 : 0` signed
    Slt = 0x0E => "slt",
    /// `rd = (rs1 < rs2) ? 1 : 0` unsigned
    Sltu = 0x0F => "sltu",

    // -- integer register-immediate ------------------------------------
    /// `rd = rs1 + imm`
    Addi = 0x10 => "addi",
    /// `rd = rs1 & imm`
    Andi = 0x11 => "andi",
    /// `rd = rs1 | imm`
    Ori = 0x12 => "ori",
    /// `rd = rs1 ^ imm`
    Xori = 0x13 => "xori",
    /// `rd = rs1 << (imm & 63)`
    Slli = 0x14 => "slli",
    /// `rd = rs1 >> (imm & 63)` logical
    Srli = 0x15 => "srli",
    /// `rd = rs1 >> (imm & 63)` arithmetic
    Srai = 0x16 => "srai",
    /// `rd = (rs1 < imm) ? 1 : 0` signed
    Slti = 0x17 => "slti",
    /// `rd = (rs1 < imm) ? 1 : 0` unsigned
    Sltiu = 0x18 => "sltiu",
    /// `rd = sign_extend(imm32)` — load 32-bit immediate
    Li = 0x19 => "li32",
    /// `rd = (imm32 << 32) | (rd & 0xFFFF_FFFF)` — set high half
    Lih = 0x1A => "lih",
    /// `rd = pc + imm` — pc-relative upper-immediate add (RV32I AUIPC)
    Auipc = 0x1B => "auipc",

    // -- loads ----------------------------------------------------------
    /// `rd = sext(mem8[rs1 + imm])`
    Lb = 0x20 => "lb",
    /// `rd = zext(mem8[rs1 + imm])`
    Lbu = 0x21 => "lbu",
    /// `rd = sext(mem16[rs1 + imm])`
    Lh = 0x22 => "lh",
    /// `rd = zext(mem16[rs1 + imm])`
    Lhu = 0x23 => "lhu",
    /// `rd = sext(mem32[rs1 + imm])`
    Lw = 0x24 => "lw",
    /// `rd = zext(mem32[rs1 + imm])`
    Lwu = 0x25 => "lwu",
    /// `rd = mem64[rs1 + imm]`
    Ld = 0x26 => "ld",
    /// `fd = mem64[rs1 + imm]` (FP load, bit pattern)
    Fld = 0x27 => "fld",

    // -- stores ---------------------------------------------------------
    /// `mem8[rs1 + imm] = rs2`
    Sb = 0x28 => "sb",
    /// `mem16[rs1 + imm] = rs2`
    Sh = 0x29 => "sh",
    /// `mem32[rs1 + imm] = rs2`
    Sw = 0x2A => "sw",
    /// `mem64[rs1 + imm] = rs2`
    Sd = 0x2B => "sd",
    /// `mem64[rs1 + imm] = fs2` (FP store, bit pattern)
    Fsd = 0x2C => "fsd",

    // -- control flow -----------------------------------------------------
    /// branch if `rs1 == rs2` to `pc + imm`
    Beq = 0x30 => "beq",
    /// branch if `rs1 != rs2` to `pc + imm`
    Bne = 0x31 => "bne",
    /// branch if `rs1 < rs2` (signed) to `pc + imm`
    Blt = 0x32 => "blt",
    /// branch if `rs1 >= rs2` (signed) to `pc + imm`
    Bge = 0x33 => "bge",
    /// branch if `rs1 < rs2` (unsigned) to `pc + imm`
    Bltu = 0x34 => "bltu",
    /// branch if `rs1 >= rs2` (unsigned) to `pc + imm`
    Bgeu = 0x35 => "bgeu",
    /// `rd = pc + 8; pc += imm`
    Jal = 0x36 => "jal",
    /// `rd = pc + 8; pc = rs1 + imm`
    Jalr = 0x37 => "jalr",

    // -- floating point ---------------------------------------------------
    /// `fd = fs1 + fs2`
    Fadd = 0x40 => "fadd",
    /// `fd = fs1 - fs2`
    Fsub = 0x41 => "fsub",
    /// `fd = fs1 * fs2`
    Fmul = 0x42 => "fmul",
    /// `fd = fs1 / fs2`
    Fdiv = 0x43 => "fdiv",
    /// `fd = sqrt(fs1)`
    Fsqrt = 0x44 => "fsqrt",
    /// `fd = min(fs1, fs2)`
    Fmin = 0x45 => "fmin",
    /// `fd = max(fs1, fs2)`
    Fmax = 0x46 => "fmax",
    /// `rd = (fs1 == fs2) ? 1 : 0`
    Feq = 0x47 => "feq",
    /// `rd = (fs1 < fs2) ? 1 : 0`
    Flt = 0x48 => "flt",
    /// `rd = (fs1 <= fs2) ? 1 : 0`
    Fle = 0x49 => "fle",
    /// `fd = (f64)(i64)rs1` — int to float
    Fcvtif = 0x4A => "fcvt.d.l",
    /// `rd = (i64)fs1` — float to int, saturating
    Fcvtfi = 0x4B => "fcvt.l.d",
    /// `fd = bits(rs1)` — move int bits into FP register
    Fmvif = 0x4C => "fmv.d.x",
    /// `rd = bits(fs1)` — move FP bits into int register
    Fmvfi = 0x4D => "fmv.x.d",

    // -- system -----------------------------------------------------------
    /// Stop the machine; `rs1` is the exit code register.
    Halt = 0x50 => "halt",
    /// Append the integer value of `rs1` to the machine's output log.
    Print = 0x51 => "print",
    /// No operation.
    Nop = 0x52 => "nop",
    /// Environment call (RV32I ECALL): `rs1` carries the syscall
    /// number (a7), `rs2` its argument (a0). Syscall 1 prints `rs2`,
    /// syscall 93 halts with exit code `rs2`; anything else halts with
    /// exit code `rs1`.
    Ecall = 0x53 => "ecall",
    /// Environment break (RV32I EBREAK): halts the machine.
    Ebreak = 0x54 => "ebreak",
}

impl Opcode {
    /// Behavioural category.
    pub const fn kind(self) -> OpKind {
        use Opcode::*;
        match self {
            Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | Fld => OpKind::Load,
            Sb | Sh | Sw | Sd | Fsd => OpKind::Store,
            Beq | Bne | Blt | Bge | Bltu | Bgeu => OpKind::Branch,
            Jal | Jalr => OpKind::Jump,
            Halt | Print | Nop | Ecall | Ebreak => OpKind::System,
            _ => OpKind::Alu,
        }
    }

    /// Functional-unit class this opcode occupies during execution.
    pub const fn fu_class(self) -> FuClass {
        use Opcode::*;
        match self {
            Mul | Div | Rem | Divu | Remu => FuClass::IntMulDiv,
            Fadd | Fsub | Fmin | Fmax | Feq | Flt | Fle | Fcvtif | Fcvtfi | Fmvif | Fmvfi => {
                FuClass::FpAlu
            }
            Fmul | Fdiv | Fsqrt => FuClass::FpMulDiv,
            Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | Fld | Sb | Sh | Sw | Sd | Fsd => FuClass::MemPort,
            _ => FuClass::IntAlu,
        }
    }

    /// Execution latency in cycles, excluding cache access time for
    /// memory operations (the hierarchy adds that).
    ///
    /// Latencies follow SimpleScalar 2.0 `sim-outorder` defaults.
    pub const fn latency(self) -> u32 {
        use Opcode::*;
        match self {
            Mul => 3,
            Div | Rem | Divu | Remu => 20,
            Fadd | Fsub | Fmin | Fmax | Feq | Flt | Fle | Fcvtif | Fcvtfi => 2,
            Fmul => 4,
            Fdiv => 12,
            Fsqrt => 24,
            _ => 1,
        }
    }

    /// Whether the execution of this opcode is pipelined (a new
    /// instruction can begin on the unit every cycle). Dividers and
    /// square root are not.
    pub const fn pipelined(self) -> bool {
        use Opcode::*;
        !matches!(self, Div | Rem | Divu | Remu | Fdiv | Fsqrt)
    }

    /// Memory access width for loads and stores, `None` otherwise.
    pub const fn mem_width(self) -> Option<MemWidth> {
        use Opcode::*;
        match self {
            Lb | Lbu | Sb => Some(MemWidth::B1),
            Lh | Lhu | Sh => Some(MemWidth::B2),
            Lw | Lwu | Sw => Some(MemWidth::B4),
            Ld | Sd | Fld | Fsd => Some(MemWidth::B8),
            _ => None,
        }
    }

    /// Whether the opcode writes a destination register.
    #[inline]
    pub const fn writes_rd(self) -> bool {
        use Opcode::*;
        !matches!(
            self,
            Sb | Sh
                | Sw
                | Sd
                | Fsd
                | Beq
                | Bne
                | Blt
                | Bge
                | Bltu
                | Bgeu
                | Halt
                | Print
                | Nop
                | Ecall
                | Ebreak
        )
    }

    /// Whether the opcode reads `rs1`.
    #[inline]
    pub const fn reads_rs1(self) -> bool {
        use Opcode::*;
        !matches!(self, Li | Jal | Nop | Auipc | Ebreak)
    }

    /// Whether the opcode reads `rs2`.
    #[inline]
    pub const fn reads_rs2(self) -> bool {
        use Opcode::*;
        matches!(
            self,
            Add | Sub
                | Mul
                | Div
                | Rem
                | Divu
                | Remu
                | And
                | Or
                | Xor
                | Sll
                | Srl
                | Sra
                | Slt
                | Sltu
                | Sb
                | Sh
                | Sw
                | Sd
                | Fsd
                | Beq
                | Bne
                | Blt
                | Bge
                | Bltu
                | Bgeu
                | Fadd
                | Fsub
                | Fmul
                | Fdiv
                | Fmin
                | Fmax
                | Feq
                | Flt
                | Fle
                | Ecall
        )
    }

    /// Whether this is a control-transfer instruction (branch or jump).
    pub const fn is_control(self) -> bool {
        matches!(self.kind(), OpKind::Branch | OpKind::Jump)
    }

    /// Whether this opcode uses the immediate field.
    pub const fn uses_imm(self) -> bool {
        use Opcode::*;
        matches!(
            self,
            Addi | Andi
                | Ori
                | Xori
                | Auipc
                | Slli
                | Srli
                | Srai
                | Slti
                | Sltiu
                | Li
                | Lih
                | Lb
                | Lbu
                | Lh
                | Lhu
                | Lw
                | Lwu
                | Ld
                | Fld
                | Sb
                | Sh
                | Sw
                | Sd
                | Fsd
                | Beq
                | Bne
                | Blt
                | Bge
                | Bltu
                | Bgeu
                | Jal
                | Jalr
        )
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn codes_are_unique_and_round_trip() {
        let mut seen = HashSet::new();
        for &op in Opcode::ALL {
            let code = op as u8;
            assert!(seen.insert(code), "duplicate code {code:#x}");
            assert_eq!(Opcode::from_code(code), Some(op));
        }
        assert_eq!(Opcode::from_code(0x00), None);
        assert_eq!(Opcode::from_code(0xFF), None);
    }

    #[test]
    fn mnemonics_are_unique_and_round_trip() {
        let mut seen = HashSet::new();
        for &op in Opcode::ALL {
            assert!(seen.insert(op.mnemonic()), "dup mnemonic {}", op.mnemonic());
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(Opcode::from_mnemonic("bogus"), None);
    }

    #[test]
    fn loads_and_stores_have_widths() {
        for &op in Opcode::ALL {
            match op.kind() {
                OpKind::Load | OpKind::Store => {
                    assert!(op.mem_width().is_some(), "{op} needs a width");
                    assert_eq!(op.fu_class(), FuClass::MemPort);
                }
                _ => assert!(op.mem_width().is_none(), "{op} must not have a width"),
            }
        }
    }

    #[test]
    fn stores_and_branches_write_no_register() {
        assert!(!Opcode::Sd.writes_rd());
        assert!(!Opcode::Beq.writes_rd());
        assert!(!Opcode::Halt.writes_rd());
        assert!(Opcode::Jal.writes_rd());
        assert!(Opcode::Add.writes_rd());
        assert!(Opcode::Ld.writes_rd());
    }

    #[test]
    fn muldiv_classification() {
        assert_eq!(Opcode::Mul.fu_class(), FuClass::IntMulDiv);
        assert_eq!(Opcode::Div.fu_class(), FuClass::IntMulDiv);
        assert_eq!(Opcode::Add.fu_class(), FuClass::IntAlu);
        assert_eq!(Opcode::Beq.fu_class(), FuClass::IntAlu);
        assert_eq!(Opcode::Fmul.fu_class(), FuClass::FpMulDiv);
        assert_eq!(Opcode::Fadd.fu_class(), FuClass::FpAlu);
    }

    #[test]
    fn latency_sanity() {
        assert_eq!(Opcode::Add.latency(), 1);
        assert_eq!(Opcode::Mul.latency(), 3);
        assert_eq!(Opcode::Div.latency(), 20);
        assert!(!Opcode::Div.pipelined());
        assert!(Opcode::Mul.pipelined());
        assert!(Opcode::Add.pipelined());
    }

    #[test]
    fn lih_reads_its_own_rd_via_rs1() {
        // Lih keeps the low half of rd, so the assembler encodes rs1 = rd
        // and the opcode must report reading rs1.
        assert!(Opcode::Lih.reads_rs1());
        assert!(!Opcode::Li.reads_rs1());
    }

    #[test]
    fn rv32i_system_opcodes_classify() {
        assert_eq!(Opcode::Ecall.kind(), OpKind::System);
        assert_eq!(Opcode::Ebreak.kind(), OpKind::System);
        assert!(!Opcode::Ecall.writes_rd());
        assert!(Opcode::Ecall.reads_rs1() && Opcode::Ecall.reads_rs2());
        assert!(!Opcode::Ebreak.reads_rs1() && !Opcode::Ebreak.reads_rs2());
        assert_eq!(Opcode::Auipc.kind(), OpKind::Alu);
        assert!(Opcode::Auipc.writes_rd() && Opcode::Auipc.uses_imm());
        assert!(!Opcode::Auipc.reads_rs1() && !Opcode::Auipc.reads_rs2());
    }

    #[test]
    fn control_classification() {
        assert!(Opcode::Beq.is_control());
        assert!(Opcode::Jal.is_control());
        assert!(Opcode::Jalr.is_control());
        assert!(!Opcode::Add.is_control());
        assert_eq!(Opcode::Jal.kind(), OpKind::Jump);
        assert_eq!(Opcode::Beq.kind(), OpKind::Branch);
    }
}
