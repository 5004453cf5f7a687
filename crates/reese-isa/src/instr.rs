//! The unified instruction representation.

use crate::{Opcode, Reg};
use std::fmt;

/// A decoded instruction.
///
/// All opcodes share one format: destination, two sources, and a signed
/// immediate. Fields an opcode does not use are ignored by execution and
/// canonicalised to zero by the encoder, so two instructions that behave
/// identically compare equal after an encode/decode round trip.
///
/// Conventions:
/// * stores: `rs1` = base address register, `rs2` = data register
/// * branches: compare `rs1` with `rs2`, target = `pc + imm`
/// * `jal`: target = `pc + imm`; `jalr`: target = `rs1 + imm`
/// * `lih`: `rs1` is encoded equal to `rd` (it keeps `rd`'s low half)
///
/// # Example
///
/// ```
/// use reese_isa::{Instr, Opcode, Reg};
///
/// let add = Instr::rrr(Opcode::Add, Reg::x(1), Reg::x(2), Reg::x(3));
/// assert_eq!(add.to_string(), "add x1, x2, x3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instr {
    /// Operation.
    pub op: Opcode,
    /// Destination register (meaningful iff `op.writes_rd()`).
    pub rd: Reg,
    /// First source register.
    pub rs1: Reg,
    /// Second source register.
    pub rs2: Reg,
    /// Signed immediate; must fit in `i32` for encoding.
    pub imm: i64,
}

impl Instr {
    /// Size of one encoded instruction in bytes.
    pub const SIZE: u64 = 8;

    /// Register-register-register form (`add rd, rs1, rs2`).
    pub const fn rrr(op: Opcode, rd: Reg, rs1: Reg, rs2: Reg) -> Instr {
        Instr {
            op,
            rd,
            rs1,
            rs2,
            imm: 0,
        }
    }

    /// Register-register-immediate form (`addi rd, rs1, imm`).
    pub const fn rri(op: Opcode, rd: Reg, rs1: Reg, imm: i64) -> Instr {
        Instr {
            op,
            rd,
            rs1,
            rs2: Reg::ZERO,
            imm,
        }
    }

    /// Load form (`lw rd, imm(rs1)`).
    pub const fn load(op: Opcode, rd: Reg, base: Reg, imm: i64) -> Instr {
        Instr {
            op,
            rd,
            rs1: base,
            rs2: Reg::ZERO,
            imm,
        }
    }

    /// Store form (`sw rs2, imm(rs1)`).
    pub const fn store(op: Opcode, data: Reg, base: Reg, imm: i64) -> Instr {
        Instr {
            op,
            rd: Reg::ZERO,
            rs1: base,
            rs2: data,
            imm,
        }
    }

    /// Branch form (`beq rs1, rs2, imm`).
    pub const fn branch(op: Opcode, rs1: Reg, rs2: Reg, imm: i64) -> Instr {
        Instr {
            op,
            rd: Reg::ZERO,
            rs1,
            rs2,
            imm,
        }
    }

    /// A canonical no-op.
    pub const fn nop() -> Instr {
        Instr {
            op: Opcode::Nop,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm: 0,
        }
    }

    /// Destination register if the opcode writes one and it is not `x0`.
    #[inline]
    pub fn dest(&self) -> Option<Reg> {
        if self.op.writes_rd() && !self.rd.is_zero() {
            Some(self.rd)
        } else {
            None
        }
    }

    /// Source registers actually read by this instruction.
    #[inline]
    pub fn sources(&self) -> impl Iterator<Item = Reg> {
        let s1 = if self.op.reads_rs1() {
            Some(self.rs1)
        } else {
            None
        };
        let s2 = if self.op.reads_rs2() {
            Some(self.rs2)
        } else {
            None
        };
        s1.into_iter().chain(s2)
    }

    /// Canonicalises unused fields to zero (what the encoder emits).
    pub fn canonical(mut self) -> Instr {
        if !self.op.writes_rd() {
            self.rd = Reg::ZERO;
        }
        if self.op == Opcode::Lih {
            // `lih` always reads its own destination's low half.
            self.rs1 = self.rd;
        } else if self.op == Opcode::Ecall {
            // `ecall` always reads the syscall ABI registers.
            self.rs1 = crate::abi::A7;
            self.rs2 = crate::abi::A0;
        } else if !self.op.reads_rs1() {
            self.rs1 = Reg::ZERO;
        }
        if !self.op.reads_rs2() && self.op != Opcode::Ecall {
            self.rs2 = Reg::ZERO;
        }
        if !self.op.uses_imm() {
            self.imm = 0;
        }
        self
    }
}

impl Default for Instr {
    fn default() -> Self {
        Instr::nop()
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::disasm::fmt_instr(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpKind;

    #[test]
    fn dest_of_x0_writer_is_none() {
        let i = Instr::rri(Opcode::Addi, Reg::ZERO, Reg::x(1), 4);
        assert_eq!(i.dest(), None);
        let i = Instr::rri(Opcode::Addi, Reg::x(3), Reg::x(1), 4);
        assert_eq!(i.dest(), Some(Reg::x(3)));
    }

    #[test]
    fn store_has_no_dest_and_two_sources() {
        let s = Instr::store(Opcode::Sd, Reg::x(7), Reg::x(2), 16);
        assert_eq!(s.dest(), None);
        let srcs: Vec<Reg> = s.sources().collect();
        assert_eq!(srcs, vec![Reg::x(2), Reg::x(7)]);
    }

    #[test]
    fn li_reads_nothing() {
        let i = Instr::rri(Opcode::Li, Reg::x(1), Reg::ZERO, 42);
        assert_eq!(i.sources().count(), 0);
    }

    #[test]
    fn canonical_zeroes_unused_fields() {
        let messy = Instr {
            op: Opcode::Jal,
            rd: Reg::x(1),
            rs1: Reg::x(9),
            rs2: Reg::x(9),
            imm: 16,
        };
        let c = messy.canonical();
        assert_eq!(c.rs1, Reg::ZERO);
        assert_eq!(c.rs2, Reg::ZERO);
        assert_eq!(c.rd, Reg::x(1));
        assert_eq!(c.imm, 16);
    }

    #[test]
    fn nop_is_system() {
        assert_eq!(Instr::nop().op.kind(), OpKind::System);
        assert_eq!(Instr::default(), Instr::nop());
    }
}
