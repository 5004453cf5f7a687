//! RISC-V RV32I (+M) frontend: decode, encode, disassembly, and the
//! RV32I instruction emitter for the shared text assembler.
//!
//! Instructions are 4-byte little-endian words in the standard RISC-V
//! base encoding. Decoding maps each word onto the shared [`Instr`]
//! representation (LUI becomes `Li`, FENCE becomes `Nop`, ECALL/EBREAK
//! keep their own opcodes), so the timing simulators and detection
//! schemes run RV32I programs unchanged. Encoding is the exact inverse
//! for every instruction the base ISA can represent;
//! `decode_word(encode_word(i)) == i.canonical()` holds for all of them.
//!
//! Values are stored sign-extended to 64 bits in the unified register
//! file. Sign extension is strictly monotone from `u32` to `u64` order,
//! so the shared compare/branch logic works for both signed and
//! unsigned 32-bit comparisons.

use crate::asm::Asm;
use crate::{
    AsmError, DecodeError, EncodeError, Instr, IsaId, Opcode, Program, Reg, DATA_BASE, TEXT_BASE,
};

/// Size of one encoded RV32I instruction in bytes.
pub const INST_SIZE: u64 = 4;

// -- immediate extraction -----------------------------------------------

fn imm_u(w: u32) -> i64 {
    i64::from((w & 0xFFFF_F000) as i32)
}

fn imm_i(w: u32) -> i64 {
    i64::from((w as i32) >> 20)
}

fn imm_s(w: u32) -> i64 {
    i64::from(((w as i32) >> 25 << 5) | ((w >> 7) & 31) as i32)
}

fn imm_b(w: u32) -> i64 {
    let imm = ((w >> 31) << 12)
        | (((w >> 7) & 1) << 11)
        | (((w >> 25) & 0x3F) << 5)
        | (((w >> 8) & 0xF) << 1);
    i64::from((imm as i32) << 19 >> 19)
}

fn imm_j(w: u32) -> i64 {
    let imm = ((w >> 31) << 20)
        | (((w >> 12) & 0xFF) << 12)
        | (((w >> 20) & 1) << 11)
        | (((w >> 21) & 0x3FF) << 1);
    i64::from((imm as i32) << 11 >> 11)
}

// -- decode -------------------------------------------------------------

/// Decodes one 32-bit RV32I instruction word.
///
/// # Errors
///
/// Returns [`DecodeError::BadOpcode`] (carrying the low opcode byte) for
/// encodings outside the RV32I base plus the M integer group.
pub fn decode_word(w: u32) -> Result<Instr, DecodeError> {
    use Opcode::*;
    let opc = w & 0x7F;
    let bad = || DecodeError::BadOpcode(opc as u8);
    let rd = Reg::x(((w >> 7) & 31) as u8);
    let rs1 = Reg::x(((w >> 15) & 31) as u8);
    let rs2 = Reg::x(((w >> 20) & 31) as u8);
    let f3 = (w >> 12) & 7;
    let f7 = w >> 25;
    let i = match opc {
        0x37 => Instr::rri(Li, rd, Reg::ZERO, imm_u(w)),
        0x17 => Instr::rri(Auipc, rd, Reg::ZERO, imm_u(w)),
        0x6F => Instr::rri(Jal, rd, Reg::ZERO, imm_j(w)),
        0x67 if f3 == 0 => Instr::rri(Jalr, rd, rs1, imm_i(w)),
        0x63 => {
            let op = match f3 {
                0 => Beq,
                1 => Bne,
                4 => Blt,
                5 => Bge,
                6 => Bltu,
                7 => Bgeu,
                _ => return Err(bad()),
            };
            Instr::branch(op, rs1, rs2, imm_b(w))
        }
        0x03 => {
            let op = match f3 {
                0 => Lb,
                1 => Lh,
                2 => Lw,
                4 => Lbu,
                5 => Lhu,
                _ => return Err(bad()),
            };
            Instr::load(op, rd, rs1, imm_i(w))
        }
        0x23 => {
            let op = match f3 {
                0 => Sb,
                1 => Sh,
                2 => Sw,
                _ => return Err(bad()),
            };
            Instr::store(op, rs2, rs1, imm_s(w))
        }
        0x13 => {
            let shamt = i64::from((w >> 20) & 31);
            match f3 {
                1 if f7 == 0 => Instr::rri(Slli, rd, rs1, shamt),
                5 if f7 == 0 => Instr::rri(Srli, rd, rs1, shamt),
                5 if f7 == 0x20 => Instr::rri(Srai, rd, rs1, shamt),
                1 | 5 => return Err(bad()),
                _ => {
                    let op = match f3 {
                        0 => Addi,
                        2 => Slti,
                        3 => Sltiu,
                        4 => Xori,
                        6 => Ori,
                        _ => Andi,
                    };
                    Instr::rri(op, rd, rs1, imm_i(w))
                }
            }
        }
        0x33 => {
            let op = match (f7, f3) {
                (0, 0) => Add,
                (0x20, 0) => Sub,
                (0, 1) => Sll,
                (0, 2) => Slt,
                (0, 3) => Sltu,
                (0, 4) => Xor,
                (0, 5) => Srl,
                (0x20, 5) => Sra,
                (0, 6) => Or,
                (0, 7) => And,
                (1, 0) => Mul,
                (1, 4) => Div,
                (1, 5) => Divu,
                (1, 6) => Rem,
                (1, 7) => Remu,
                _ => return Err(bad()),
            };
            Instr::rrr(op, rd, rs1, rs2)
        }
        0x0F => Instr::nop(),
        0x73 if w == 0x0000_0073 => Instr {
            op: Ecall,
            ..Instr::nop()
        },
        0x73 if w == 0x0010_0073 => Instr {
            op: Ebreak,
            ..Instr::nop()
        },
        _ => return Err(bad()),
    };
    Ok(i.canonical())
}

// -- encode -------------------------------------------------------------

fn r_word(f7: u32, rs2: u32, rs1: u32, f3: u32, rd: u32, opc: u32) -> u32 {
    (f7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | opc
}

fn i_word(imm: i64, rs1: u32, f3: u32, rd: u32, opc: u32) -> Option<u32> {
    if !(-2048..=2047).contains(&imm) {
        return None;
    }
    Some((((imm as u32) & 0xFFF) << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | opc)
}

fn s_word(imm: i64, rs2: u32, rs1: u32, f3: u32) -> Option<u32> {
    if !(-2048..=2047).contains(&imm) {
        return None;
    }
    let imm = imm as u32;
    Some(
        (((imm >> 5) & 0x7F) << 25)
            | (rs2 << 20)
            | (rs1 << 15)
            | (f3 << 12)
            | ((imm & 31) << 7)
            | 0x23,
    )
}

fn b_word(imm: i64, rs2: u32, rs1: u32, f3: u32) -> Option<u32> {
    if !(-4096..=4094).contains(&imm) || imm % 2 != 0 {
        return None;
    }
    let imm = imm as u32;
    Some(
        (((imm >> 12) & 1) << 31)
            | (((imm >> 5) & 0x3F) << 25)
            | (rs2 << 20)
            | (rs1 << 15)
            | (f3 << 12)
            | (((imm >> 1) & 0xF) << 8)
            | (((imm >> 11) & 1) << 7)
            | 0x63,
    )
}

fn j_word(imm: i64, rd: u32) -> Option<u32> {
    if !(-(1 << 20)..=(1 << 20) - 2).contains(&imm) || imm % 2 != 0 {
        return None;
    }
    let imm = imm as u32;
    Some(
        (((imm >> 20) & 1) << 31)
            | (((imm >> 1) & 0x3FF) << 21)
            | (((imm >> 11) & 1) << 20)
            | (((imm >> 12) & 0xFF) << 12)
            | (rd << 7)
            | 0x6F,
    )
}

fn u_word(imm: i64, rd: u32, opc: u32) -> Option<u32> {
    if imm != i64::from(imm as i32) || imm & 0xFFF != 0 {
        return None;
    }
    Some(((imm as u32) & 0xFFFF_F000) | (rd << 7) | opc)
}

fn shamt_word(f7: u32, imm: i64, rs1: u32, f3: u32, rd: u32) -> Option<u32> {
    if !(0..=31).contains(&imm) {
        return None;
    }
    Some(r_word(f7, imm as u32, rs1, f3, rd, 0x13))
}

/// Encodes one instruction into its 32-bit RV32I word.
///
/// # Errors
///
/// Returns [`EncodeError`] if the opcode has no RV32I encoding (64-bit
/// loads/stores, FP, `halt`, `print`, `lih`), an immediate is out of its
/// field range, or a register operand is not an integer register.
pub fn encode_word(instr: &Instr) -> Result<u32, EncodeError> {
    use Opcode::*;
    let i = instr.canonical();
    let e = EncodeError { imm: i.imm };
    let xr = |r: Reg| {
        if r.is_int() {
            Ok(u32::from(r.raw()))
        } else {
            Err(e)
        }
    };
    let (rd, rs1, rs2) = (xr(i.rd)?, xr(i.rs1)?, xr(i.rs2)?);
    let w = match i.op {
        Li => u_word(i.imm, rd, 0x37),
        Auipc => u_word(i.imm, rd, 0x17),
        Jal => j_word(i.imm, rd),
        Jalr => i_word(i.imm, rs1, 0, rd, 0x67),
        Beq => b_word(i.imm, rs2, rs1, 0),
        Bne => b_word(i.imm, rs2, rs1, 1),
        Blt => b_word(i.imm, rs2, rs1, 4),
        Bge => b_word(i.imm, rs2, rs1, 5),
        Bltu => b_word(i.imm, rs2, rs1, 6),
        Bgeu => b_word(i.imm, rs2, rs1, 7),
        Lb => i_word(i.imm, rs1, 0, rd, 0x03),
        Lh => i_word(i.imm, rs1, 1, rd, 0x03),
        Lw => i_word(i.imm, rs1, 2, rd, 0x03),
        Lbu => i_word(i.imm, rs1, 4, rd, 0x03),
        Lhu => i_word(i.imm, rs1, 5, rd, 0x03),
        Sb => s_word(i.imm, rs2, rs1, 0),
        Sh => s_word(i.imm, rs2, rs1, 1),
        Sw => s_word(i.imm, rs2, rs1, 2),
        Addi => i_word(i.imm, rs1, 0, rd, 0x13),
        Slti => i_word(i.imm, rs1, 2, rd, 0x13),
        Sltiu => i_word(i.imm, rs1, 3, rd, 0x13),
        Xori => i_word(i.imm, rs1, 4, rd, 0x13),
        Ori => i_word(i.imm, rs1, 6, rd, 0x13),
        Andi => i_word(i.imm, rs1, 7, rd, 0x13),
        Slli => shamt_word(0, i.imm, rs1, 1, rd),
        Srli => shamt_word(0, i.imm, rs1, 5, rd),
        Srai => shamt_word(0x20, i.imm, rs1, 5, rd),
        Add => Some(r_word(0, rs2, rs1, 0, rd, 0x33)),
        Sub => Some(r_word(0x20, rs2, rs1, 0, rd, 0x33)),
        Sll => Some(r_word(0, rs2, rs1, 1, rd, 0x33)),
        Slt => Some(r_word(0, rs2, rs1, 2, rd, 0x33)),
        Sltu => Some(r_word(0, rs2, rs1, 3, rd, 0x33)),
        Xor => Some(r_word(0, rs2, rs1, 4, rd, 0x33)),
        Srl => Some(r_word(0, rs2, rs1, 5, rd, 0x33)),
        Sra => Some(r_word(0x20, rs2, rs1, 5, rd, 0x33)),
        Or => Some(r_word(0, rs2, rs1, 6, rd, 0x33)),
        And => Some(r_word(0, rs2, rs1, 7, rd, 0x33)),
        Mul => Some(r_word(1, rs2, rs1, 0, rd, 0x33)),
        Div => Some(r_word(1, rs2, rs1, 4, rd, 0x33)),
        Divu => Some(r_word(1, rs2, rs1, 5, rd, 0x33)),
        Rem => Some(r_word(1, rs2, rs1, 6, rd, 0x33)),
        Remu => Some(r_word(1, rs2, rs1, 7, rd, 0x33)),
        Nop => Some(0x0000_000F),
        Ecall => Some(0x0000_0073),
        Ebreak => Some(0x0010_0073),
        // No RV32I encoding: 64-bit memory ops, FP, and the native
        // system/constant forms.
        Lwu | Ld | Sd | Fld | Fsd | Lih | Halt | Print | Fadd | Fsub | Fmul | Fdiv | Fsqrt
        | Fmin | Fmax | Feq | Flt | Fle | Fcvtif | Fcvtfi | Fmvif | Fmvfi => None,
    };
    w.ok_or(e)
}

/// Decodes a flat little-endian RV32I text image.
///
/// # Errors
///
/// Returns the word index of the first malformed instruction. Trailing
/// bytes that do not fill a word are an error at index `len / 4`.
pub fn decode_text(bytes: &[u8]) -> Result<Vec<Instr>, (usize, DecodeError)> {
    if !bytes.len().is_multiple_of(INST_SIZE as usize) {
        return Err((bytes.len() / INST_SIZE as usize, DecodeError::BadOpcode(0)));
    }
    bytes
        .chunks_exact(INST_SIZE as usize)
        .enumerate()
        .map(|(idx, chunk)| {
            let w = u32::from_le_bytes(chunk.try_into().expect("chunks_exact"));
            decode_word(w).map_err(|e| (idx, e))
        })
        .collect()
}

/// Encodes a text segment into RV32I bytes (little-endian words).
///
/// # Errors
///
/// Returns the index of the first instruction with no RV32I encoding.
pub fn encode_text(text: &[Instr]) -> Result<Vec<u8>, (usize, EncodeError)> {
    let mut out = Vec::with_capacity(text.len() * INST_SIZE as usize);
    for (idx, i) in text.iter().enumerate() {
        let w = encode_word(i).map_err(|e| (idx, e))?;
        out.extend_from_slice(&w.to_le_bytes());
    }
    Ok(out)
}

/// Disassembles an RV32I text segment with 4-byte addresses.
pub fn disassemble_text(text: &[Instr], base: u64) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (idx, i) in text.iter().enumerate() {
        let addr = base + idx as u64 * INST_SIZE;
        let _ = writeln!(out, "{addr:#010x}: {i}");
    }
    out
}

// -- assembler ----------------------------------------------------------

/// Splits `v` into the `lui` upper part and the sign-corrected low 12
/// bits: `lui(hi) + addi(lo)` reconstructs `v` under 32-bit wrap-around.
pub(crate) fn hi_lo(v: i64) -> (i64, i64) {
    let lo = ((v & 0xFFF) ^ 0x800) - 0x800;
    (i64::from((v as i32).wrapping_sub(lo as i32)), lo)
}

fn li_expand(rd: Reg, v: i64) -> Result<Vec<Instr>, String> {
    if v != i64::from(v as i32) {
        return Err(format!("immediate {v} does not fit in 32 bits"));
    }
    if (-2048..=2047).contains(&v) {
        return Ok(vec![Instr::rri(Opcode::Addi, rd, Reg::ZERO, v)]);
    }
    let (hi, lo) = hi_lo(v);
    let lui = Instr::rri(Opcode::Li, rd, Reg::ZERO, hi);
    if lo == 0 {
        Ok(vec![lui])
    } else {
        Ok(vec![lui, Instr::rri(Opcode::Addi, rd, rd, lo)])
    }
}

/// Assembles RV32I source text into a [`Program`] stamped
/// [`IsaId::Rv32i`].
///
/// Supports the real base mnemonics (`lui auipc jal jalr` branches,
/// loads/stores, ALU ops, `mul div divu rem remu`, `fence ecall
/// ebreak`) plus the usual pseudos (`nop li la mv not neg seqz snez
/// beqz bnez bltz bgez bgtz blez ble bgt j jr call ret`), and the same
/// directive set as the native assembler, through the same source
/// layer. There are no `halt`/`print` instructions: programs exit and
/// print through `ecall` (a7 = 93 exits with a0; a7 = 1 prints a0).
///
/// Emitted words are decoded back through [`decode_word`], so the
/// assembler and decoder agree by construction.
///
/// # Errors
///
/// Returns an [`AsmError`] with the offending line and column.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let (p, origin) = crate::asm::assemble_with(IsaId::Rv32i, source, emit)?;
    let text = p
        .text()
        .iter()
        .zip(origin)
        .map(|(i, (line, col, m))| {
            let w = encode_word(i).map_err(|e| AsmError::at(line, col, format!("`{m}`: {e}")))?;
            decode_word(w).map_err(|e| {
                AsmError::at(line, col, format!("internal: `{m}` does not decode: {e}"))
            })
        })
        .collect::<Result<Vec<Instr>, AsmError>>()?;
    let (data, symbols) = (p.data().to_vec(), p.symbols().clone());
    Ok(Program::for_isa(
        IsaId::Rv32i,
        text,
        TEXT_BASE,
        data,
        DATA_BASE,
        p.entry(),
        symbols,
    ))
}

/// The RV32I instruction emitter. Control-flow targets are a label or
/// a numeric offset; every base opcode with an RV32I encoding is
/// assembled by the shared operand code.
fn emit<'a>(a: &mut Asm<'a>, m: &'a str, ops: &[&'a str]) -> Result<(), AsmError> {
    use Opcode::*;
    match m {
        "nop" => {
            a.nops(m, ops, 0)?;
            a.b.addi(Reg::ZERO, Reg::ZERO, 0);
        }
        "fence" => {
            a.nops(m, ops, 0)?;
            a.b.nop();
        }
        "lui" | "auipc" => {
            a.nops(m, ops, 2)?;
            let rd = a.reg(ops[0])?;
            let v = a.imm(ops[1])?;
            if !(-0x8_0000..=0xF_FFFF).contains(&v) {
                return Err(a.err(ops[1], format!("upper immediate {v} out of 20-bit range")));
            }
            let op = if m == "lui" { Li } else { Auipc };
            a.b.emit(Instr::rri(
                op,
                rd,
                Reg::ZERO,
                i64::from(((v as u32) << 12) as i32),
            ));
        }
        "li" => {
            a.nops(m, ops, 2)?;
            let rd = a.reg(ops[0])?;
            let v = a.imm(ops[1])?;
            for i in li_expand(rd, v).map_err(|e| a.err(ops[1], e))? {
                a.b.emit(i);
            }
        }
        "la" => {
            a.nops(m, ops, 2)?;
            let rd = a.reg(ops[0])?;
            let l = a.label(ops[1])?;
            a.b.la_hi_lo(rd, l);
        }
        "j" | "call" => {
            a.nops(m, ops, 1)?;
            let rd = if m == "j" { Reg::ZERO } else { Reg::RA };
            a.branch(Instr::rri(Jal, rd, Reg::ZERO, 0), ops[0])?;
        }
        // One-operand forms link `ra`; two-operand forms are the base
        // instructions.
        "jal" | "jalr" if ops.len() != 2 => {
            if ops.len() != 1 {
                let n = ops.len();
                return Err(a.err(m, format!("`{m}` expects 1 or 2 operands, got {n}")));
            }
            if m == "jal" {
                a.branch(Instr::rri(Jal, Reg::RA, Reg::ZERO, 0), ops[0])?;
            } else {
                let rs = a.reg(ops[0])?;
                a.b.jalr(Reg::RA, rs, 0);
            }
        }
        "beqz" | "bnez" | "bltz" | "bgez" | "bgtz" | "blez" => {
            a.nops(m, ops, 2)?;
            let rs = a.reg(ops[0])?;
            let (op, r1, r2) = match m {
                "beqz" => (Beq, rs, Reg::ZERO),
                "bnez" => (Bne, rs, Reg::ZERO),
                "bltz" => (Blt, rs, Reg::ZERO),
                "bgez" => (Bge, rs, Reg::ZERO),
                "bgtz" => (Blt, Reg::ZERO, rs),
                _ => (Bge, Reg::ZERO, rs),
            };
            a.branch(Instr::branch(op, r1, r2, 0), ops[1])?;
        }
        "ble" | "bgt" => {
            a.nops(m, ops, 3)?;
            let (r1, r2) = (a.reg(ops[0])?, a.reg(ops[1])?);
            let op = if m == "ble" { Bge } else { Blt };
            a.branch(Instr::branch(op, r2, r1, 0), ops[2])?;
        }
        _ => {
            // `li32` is the native spelling of `lui`, and `auipc` takes
            // a 20-bit operand here (above).
            let op = Opcode::from_mnemonic(m)
                .filter(|&op| {
                    !matches!(op, Li | Auipc) && encode_word(&Instr { op, ..Instr::nop() }).is_ok()
                })
                .ok_or_else(|| a.err(m, format!("unknown mnemonic `{m}`")))?;
            a.base(op, m, ops)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abi::*;

    #[test]
    fn classic_addi_vector() {
        // The canonical RISC-V hello-word: addi a0, x0, 10.
        let i = decode_word(0x00A0_0513).unwrap();
        assert_eq!(i, Instr::rri(Opcode::Addi, A0, Reg::ZERO, 10).canonical());
        assert_eq!(encode_word(&i).unwrap(), 0x00A0_0513);
    }

    #[test]
    fn system_words() {
        let ecall = decode_word(0x0000_0073).unwrap();
        assert_eq!(ecall.op, Opcode::Ecall);
        assert_eq!(ecall.rs1, A7);
        assert_eq!(ecall.rs2, A0);
        assert_eq!(encode_word(&ecall).unwrap(), 0x0000_0073);
        let ebreak = decode_word(0x0010_0073).unwrap();
        assert_eq!(ebreak.op, Opcode::Ebreak);
        assert_eq!(encode_word(&ebreak).unwrap(), 0x0010_0073);
        // FENCE decodes to nop and nop encodes to the canonical fence.
        assert_eq!(decode_word(0x0000_000F).unwrap(), Instr::nop());
        assert_eq!(encode_word(&Instr::nop()).unwrap(), 0x0000_000F);
    }

    #[test]
    fn every_encodable_opcode_round_trips() {
        use Opcode::*;
        let samples = vec![
            Instr::rri(Li, T0, Reg::ZERO, -0x7FFF_F000),
            Instr::rri(Auipc, T0, Reg::ZERO, 0x7FFF_F000),
            Instr::rri(Jal, RA, Reg::ZERO, -(1 << 20)),
            Instr::rri(Jalr, RA, T1, 2047),
            Instr::branch(Beq, T0, T1, -4096),
            Instr::branch(Bne, T0, T1, 4094),
            Instr::branch(Blt, T0, T1, -2),
            Instr::branch(Bge, T0, T1, 8),
            Instr::branch(Bltu, T0, T1, 16),
            Instr::branch(Bgeu, T0, T1, -16),
            Instr::load(Lb, T0, SP, -2048),
            Instr::load(Lh, T0, SP, 2047),
            Instr::load(Lw, T0, SP, 0),
            Instr::load(Lbu, T0, SP, 1),
            Instr::load(Lhu, T0, SP, 2),
            Instr::store(Sb, T0, SP, -1),
            Instr::store(Sh, T0, SP, -2048),
            Instr::store(Sw, T0, SP, 2047),
            Instr::rri(Addi, T0, T1, -2048),
            Instr::rri(Slti, T0, T1, 2047),
            Instr::rri(Sltiu, T0, T1, 1),
            Instr::rri(Xori, T0, T1, -1),
            Instr::rri(Ori, T0, T1, 0x55),
            Instr::rri(Andi, T0, T1, 0xF),
            Instr::rri(Slli, T0, T1, 31),
            Instr::rri(Srli, T0, T1, 0),
            Instr::rri(Srai, T0, T1, 1),
            Instr::rrr(Add, T0, T1, T2),
            Instr::rrr(Sub, T0, T1, T2),
            Instr::rrr(Sll, T0, T1, T2),
            Instr::rrr(Slt, T0, T1, T2),
            Instr::rrr(Sltu, T0, T1, T2),
            Instr::rrr(Xor, T0, T1, T2),
            Instr::rrr(Srl, T0, T1, T2),
            Instr::rrr(Sra, T0, T1, T2),
            Instr::rrr(Or, T0, T1, T2),
            Instr::rrr(And, T0, T1, T2),
            Instr::rrr(Mul, T0, T1, T2),
            Instr::rrr(Div, T0, T1, T2),
            Instr::rrr(Divu, T0, T1, T2),
            Instr::rrr(Rem, T0, T1, T2),
            Instr::rrr(Remu, T0, T1, T2),
            Instr::nop(),
            Instr {
                op: Ecall,
                ..Instr::nop()
            },
            Instr {
                op: Ebreak,
                ..Instr::nop()
            },
        ];
        for i in samples {
            let i = i.canonical();
            let w = encode_word(&i).unwrap_or_else(|e| panic!("{}: {e}", i.op));
            assert_eq!(decode_word(w).unwrap(), i, "opcode {}", i.op);
        }
    }

    #[test]
    fn unencodable_instructions_rejected() {
        use Opcode::*;
        for i in [
            Instr::load(Ld, T0, SP, 0),
            Instr::load(Lwu, T0, SP, 0),
            Instr::store(Sd, T0, SP, 0),
            Instr::rri(Lih, T0, T0, 1),
            Instr {
                op: Halt,
                ..Instr::nop()
            },
            Instr {
                op: Print,
                rs1: A0,
                ..Instr::nop()
            },
            Instr::rrr(Fadd, F0, F1, F2),
            // Out-of-field immediates and fp registers in int slots.
            Instr::rri(Addi, T0, T1, 2048),
            Instr::rri(Slli, T0, T1, 32),
            Instr::branch(Beq, T0, T1, 3),
            Instr::rri(Li, T0, Reg::ZERO, 0x1234),
            Instr::rrr(Add, F0, T1, T2),
        ] {
            assert!(encode_word(&i).is_err(), "{} must not encode", i.op);
        }
    }

    #[test]
    fn bad_words_rejected() {
        assert!(decode_word(0).is_err());
        assert!(decode_word(0xFFFF_FFFF).is_err());
        // mulh: opc 0x33, f3=1, f7=1 — outside the supported M subset.
        assert!(decode_word(r_word(1, 3, 2, 1, 1, 0x33)).is_err());
        // ld (RV64-only load, f3=3).
        assert!(decode_word(0x0000_3003).is_err());
        // System word with nonzero fields.
        assert!(decode_word(0x0020_0073).is_err());
    }

    #[test]
    fn text_round_trip_and_ragged() {
        let prog = vec![
            Instr::rri(Opcode::Addi, T0, Reg::ZERO, 10),
            Instr::rrr(Opcode::Add, T1, T0, T0),
            Instr::branch(Opcode::Bne, T1, Reg::ZERO, -4),
            Instr {
                op: Opcode::Ecall,
                ..Instr::nop()
            }
            .canonical(),
        ];
        let bytes = encode_text(&prog).unwrap();
        assert_eq!(bytes.len(), prog.len() * 4);
        assert_eq!(decode_text(&bytes).unwrap(), prog);
        assert!(decode_text(&[1, 2, 3]).is_err());
    }

    #[test]
    fn assembler_countdown_loop() {
        let p = assemble(
            "        li   t0, 5\n\
             loop:   addi t0, t0, -1\n\
                     bnez t0, loop\n\
                     li   a7, 93\n\
                     li   a0, 0\n\
                     ecall\n",
        )
        .unwrap();
        assert_eq!(p.isa(), IsaId::Rv32i);
        assert_eq!(p.len(), 6);
        assert_eq!(p.text()[2].op, Opcode::Bne);
        assert_eq!(p.text()[2].imm, -4);
        assert_eq!(p.symbol("loop"), Some(TEXT_BASE + 4));
        assert_eq!(p.text()[5].op, Opcode::Ecall);
    }

    #[test]
    fn li_and_la_expansion() {
        let p = assemble(
            "        li t1, 0x12345678\n\
                     li t2, -1\n\
                     li t3, 0x7FFFF800\n\
                     la a0, msg\n\
                     ecall\n\
                     .data\n\
             msg:    .asciz \"hi\"\n",
        )
        .unwrap();
        // li 0x12345678 -> lui + addi
        assert_eq!(
            p.text()[0],
            Instr::rri(Opcode::Li, T1, Reg::ZERO, 0x1234_5000)
        );
        assert_eq!(p.text()[1], Instr::rri(Opcode::Addi, T1, T1, 0x678));
        // li -1 -> single addi
        assert_eq!(p.text()[2], Instr::rri(Opcode::Addi, T2, Reg::ZERO, -1));
        // li 0x7FFFF800: hi wraps to -0x80000000, lo = -0x800; the
        // 32-bit executor reconstructs the value by wrap-around.
        assert_eq!(p.text()[3].imm, i64::from(i32::MIN));
        assert_eq!(p.text()[4], Instr::rri(Opcode::Addi, T3, T3, -0x800));
        // la msg: DATA_BASE = 0x100000 -> lui 0x100; addi 0.
        assert_eq!(
            p.text()[5],
            Instr::rri(Opcode::Li, A0, Reg::ZERO, 0x10_0000)
        );
        assert_eq!(p.text()[6], Instr::rri(Opcode::Addi, A0, A0, 0));
        assert_eq!(p.data(), b"hi\0");

        // A sign-corrected low half: `lui` rounds up, `addi` subtracts.
        let p = assemble("  la a0, far\n  ecall\n  .data\n  .space 0x800\nfar:\n").unwrap();
        assert_eq!(
            p.text()[0],
            Instr::rri(Opcode::Li, A0, Reg::ZERO, 0x10_1000)
        );
        assert_eq!(p.text()[1], Instr::rri(Opcode::Addi, A0, A0, -0x800));
    }

    #[test]
    fn word_directive_accepts_forward_labels() {
        let p = assemble(
            "  ecall\n\
             .data\n\
             table: .word tail, 7\n\
             tail:  .byte 1\n",
        )
        .unwrap();
        let tail = p.symbol("tail").unwrap();
        assert_eq!(tail, DATA_BASE + 8);
        assert_eq!(
            u64::from(u32::from_le_bytes(p.data()[0..4].try_into().unwrap())),
            tail
        );
    }

    #[test]
    fn assembler_errors_have_positions() {
        let e = assemble("  nop\n  halt\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 3));
        assert!(e.message.contains("unknown mnemonic"));

        let e = assemble("  fadd f1, f2, f3\n").unwrap_err();
        assert!(e.message.contains("unknown mnemonic"));

        let e = assemble("  add t0, t1, f2\n").unwrap_err();
        assert!(e.message.contains("no fp registers"));

        let e = assemble("  nop\n  j nowhere\n  j nowhere\n").unwrap_err();
        assert!(e.message.contains("never bound"));
        assert_eq!((e.line, e.col), (2, 5));
        let e = assemble("  .entry main\n  ecall\n  .data\n  .word nowhere\n").unwrap_err();
        assert_eq!(
            (e.line, e.col, e.message.as_str()),
            (4, 9, "label `nowhere` was never bound")
        );

        let e = assemble("  .entry msg\n  ecall\n  .data\nmsg: .asciz \"hi\"\n").unwrap_err();
        assert_eq!(
            (e.line, e.col, e.message.as_str()),
            (1, 10, "entry label `msg` is in .data")
        );
        let e = assemble("  .entry end\n  ecall\nend:\n").unwrap_err();
        assert_eq!(
            (e.line, e.col, e.message.as_str()),
            (1, 10, "entry label `end` is past the last instruction")
        );

        // Text counts 4-byte words, so it may grow twice as long as
        // native text before it reaches the data segment.
        let text = |n| "  nop\n".repeat(n) + "  .data\n  .byte 1\n";
        assert_eq!(assemble(&text(261_120)).unwrap().text_end(), DATA_BASE);
        let e = assemble(&text(261_121)).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (0, "the text segment runs into the data segment at 0x100000")
        );

        let e = assemble("  ecall\n  .data\n  .space 99999999999999\n").unwrap_err();
        assert_eq!((e.line, e.col), (3, 10));
        assert!(e.message.contains("past the stack"), "{e}");
        let e = assemble("  ecall\n  .data\n  .byte 1\n  .align 1099511627776\n").unwrap_err();
        assert_eq!((e.line, e.col), (4, 10));
        assert!(e.message.contains("past the stack"), "{e}");

        // Encoding errors surface after layout, at their statement.
        let e = assemble("  nop\n  beq t0, t1, far\n  .data\n  .space 8192\nfar:\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 3));
        assert!(e.message.starts_with("`beq`: "), "{e}");

        let e = assemble("  addi t0, t1, 4096\n").unwrap_err();
        assert!(e.message.contains("not representable"));

        let e = assemble("  li t0, 0x100000000\n").unwrap_err();
        assert!(e.message.contains("does not fit in 32 bits"));
    }

    #[test]
    fn entry_and_pseudo_jumps() {
        let p = assemble(
            "        .entry main\n\
             f:      ret\n\
             main:   call f\n\
                     jal  end\n\
             end:    ecall\n",
        )
        .unwrap();
        assert_eq!(p.entry(), TEXT_BASE + 4);
        assert_eq!(p.text()[1].op, Opcode::Jal);
        assert_eq!(p.text()[1].rd, Reg::RA);
        assert_eq!(p.text()[1].imm, -4);
        // 1-operand jal links ra.
        assert_eq!(p.text()[2].rd, Reg::RA);
        assert_eq!(p.text()[2].imm, 4);
        assert_eq!(p.text()[0], Instr::rri(Opcode::Jalr, Reg::ZERO, Reg::RA, 0));
    }

    #[test]
    fn disassembly_stride_is_four() {
        let text = vec![Instr::nop(), Instr::nop()];
        let s = disassemble_text(&text, 0x1000);
        assert!(s.contains("0x00001000: nop"));
        assert!(s.contains("0x00001004: nop"));
    }

    #[test]
    fn frontend_load_flat_round_trips() {
        let p = assemble("  li t0, 7\n  ecall\n").unwrap();
        let image = p.text_image().unwrap();
        let p2 = IsaId::Rv32i.frontend().load_flat(&image).unwrap();
        assert_eq!(p2.isa(), IsaId::Rv32i);
        assert_eq!(p2.text(), p.text());
    }
}
