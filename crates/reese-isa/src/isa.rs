//! The ISA registry: the single source of truth for instruction-set
//! names, wire ids, and per-ISA frontends.
//!
//! Mirrors the detection-scheme registry in `reese-ckpt`: every
//! consumer — CLI parsing and help text, checkpoint wire frames, the
//! program loader, the workload ports — derives its accepted set from
//! [`IsaId::ALL`], so registering a new frontend here makes it appear
//! everywhere automatically.
//!
//! The execution side of an ISA (what `step` does with a decoded
//! instruction) lives in `reese-cpu`, keyed by the same [`IsaId`]; this
//! module owns everything the simulators need *before* execution:
//! decode, encode, disassembly, assembly, and flat-binary loading.

use crate::{AsmError, DecodeError, EncodeError, Instr, Program};
use std::fmt;

/// An instruction-set architecture the toolchain and simulators speak.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum IsaId {
    /// The in-house 64-bit mini RISC ISA (8-byte instruction words).
    #[default]
    Native,
    /// RISC-V RV32I base integer ISA plus the M-extension integer
    /// multiply/divide group (4-byte instruction words).
    Rv32i,
}

impl IsaId {
    /// All registered ISAs, in registry order.
    pub const ALL: [IsaId; 2] = [IsaId::Native, IsaId::Rv32i];

    /// Stable lower-case name for CLI and JSON.
    pub fn name(self) -> &'static str {
        match self {
            IsaId::Native => "native",
            IsaId::Rv32i => "rv32i",
        }
    }

    /// One-line description for help text and reports.
    pub fn description(self) -> &'static str {
        match self {
            IsaId::Native => "in-house 64-bit mini RISC ISA (8-byte words)",
            IsaId::Rv32i => "RISC-V RV32I + M integer base (4-byte words)",
        }
    }

    /// Parses an [`IsaId::name`].
    pub fn parse(s: &str) -> Option<IsaId> {
        IsaId::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The accepted-name list for CLI error messages, e.g.
    /// `native|rv32i`.
    pub fn expected() -> String {
        IsaId::ALL.map(IsaId::name).join("|")
    }

    /// Stable wire id for the checkpoint format.
    pub fn id(self) -> u8 {
        match self {
            IsaId::Native => 0,
            IsaId::Rv32i => 1,
        }
    }

    /// Inverse of [`IsaId::id`].
    pub fn from_id(id: u8) -> Option<IsaId> {
        IsaId::ALL.into_iter().find(|k| k.id() == id)
    }

    /// Size of one encoded instruction in bytes. Every registered ISA
    /// is fixed-width, so this fully determines pc arithmetic.
    pub const fn inst_size(self) -> u64 {
        match self {
            IsaId::Native => 8,
            IsaId::Rv32i => 4,
        }
    }

    /// Architectural register width in bits. Both ISAs share the
    /// 64-entry unified register file; RV32I values are stored
    /// sign-extended to 64 bits, which preserves signed *and* unsigned
    /// 32-bit comparison order.
    pub const fn xlen(self) -> u32 {
        match self {
            IsaId::Native => 64,
            IsaId::Rv32i => 32,
        }
    }

    /// The static frontend (decode/encode/disassemble/assemble) for
    /// this ISA.
    pub fn frontend(self) -> &'static dyn Isa {
        match self {
            IsaId::Native => &NativeIsa,
            IsaId::Rv32i => &Rv32iIsa,
        }
    }
}

impl fmt::Display for IsaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-ISA toolchain surface: everything needed to turn bytes or
/// source text into a [`Program`] and back.
///
/// Execution semantics (register-file shape, trap behaviour) are keyed
/// off [`Isa::id`] in `reese-cpu`; the trait itself stays object-safe
/// so loaders can dispatch on a runtime-selected ISA.
pub trait Isa: Sync {
    /// Which registry entry this frontend implements.
    fn id(&self) -> IsaId;

    /// Size of one encoded instruction in bytes.
    fn inst_size(&self) -> u64 {
        self.id().inst_size()
    }

    /// Decodes a flat little-endian text image into instructions.
    ///
    /// # Errors
    ///
    /// Returns the word index of the first malformed instruction.
    fn decode_text(&self, bytes: &[u8]) -> Result<Vec<Instr>, (usize, DecodeError)>;

    /// Encodes a text segment into its binary image.
    ///
    /// # Errors
    ///
    /// Returns the instruction index of the first instruction this ISA
    /// cannot represent.
    fn encode_text(&self, text: &[Instr]) -> Result<Vec<u8>, (usize, EncodeError)>;

    /// Disassembles a text segment with addresses, one per line.
    fn disassemble_text(&self, text: &[Instr], base: u64) -> String;

    /// Assembles source text into a program stamped with this ISA.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] with the offending line and column.
    fn assemble(&self, source: &str) -> Result<Program, AsmError>;

    /// Loads a flat binary (a bare text image at the default bases)
    /// into a program stamped with this ISA.
    ///
    /// # Errors
    ///
    /// Returns the word index of the first malformed instruction.
    fn load_flat(&self, bytes: &[u8]) -> Result<Program, (usize, DecodeError)>;
}

/// Frontend for the in-house 64-bit mini ISA.
pub struct NativeIsa;

impl Isa for NativeIsa {
    fn id(&self) -> IsaId {
        IsaId::Native
    }

    fn decode_text(&self, bytes: &[u8]) -> Result<Vec<Instr>, (usize, DecodeError)> {
        crate::decode_text(bytes)
    }

    fn encode_text(&self, text: &[Instr]) -> Result<Vec<u8>, (usize, EncodeError)> {
        crate::encode_text(text)
    }

    fn disassemble_text(&self, text: &[Instr], base: u64) -> String {
        crate::disasm::disassemble_text(text, base)
    }

    fn assemble(&self, source: &str) -> Result<Program, AsmError> {
        crate::assemble(source)
    }

    fn load_flat(&self, bytes: &[u8]) -> Result<Program, (usize, DecodeError)> {
        Ok(Program::from_text(self.decode_text(bytes)?))
    }
}

/// Frontend for the RV32I + M base integer ISA.
pub struct Rv32iIsa;

impl Isa for Rv32iIsa {
    fn id(&self) -> IsaId {
        IsaId::Rv32i
    }

    fn decode_text(&self, bytes: &[u8]) -> Result<Vec<Instr>, (usize, DecodeError)> {
        crate::rv32i::decode_text(bytes)
    }

    fn encode_text(&self, text: &[Instr]) -> Result<Vec<u8>, (usize, EncodeError)> {
        crate::rv32i::encode_text(text)
    }

    fn disassemble_text(&self, text: &[Instr], base: u64) -> String {
        crate::rv32i::disassemble_text(text, base)
    }

    fn assemble(&self, source: &str) -> Result<Program, AsmError> {
        crate::rv32i::assemble(source)
    }

    fn load_flat(&self, bytes: &[u8]) -> Result<Program, (usize, DecodeError)> {
        Ok(Program::from_text(self.decode_text(bytes)?).with_isa(IsaId::Rv32i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for isa in IsaId::ALL {
            assert_eq!(IsaId::parse(isa.name()), Some(isa));
            assert_eq!(IsaId::from_id(isa.id()), Some(isa));
            assert_eq!(isa.frontend().id(), isa);
        }
        assert_eq!(IsaId::parse("pisa"), None);
        assert_eq!(IsaId::from_id(IsaId::ALL.len() as u8), None);
    }

    #[test]
    fn ids_are_dense_and_stable() {
        for (i, isa) in IsaId::ALL.into_iter().enumerate() {
            assert_eq!(isa.id() as usize, i, "wire ids follow registry order");
        }
    }

    #[test]
    fn expected_list_names_every_isa() {
        assert_eq!(IsaId::expected(), "native|rv32i");
    }

    #[test]
    fn geometry() {
        assert_eq!(IsaId::Native.inst_size(), 8);
        assert_eq!(IsaId::Rv32i.inst_size(), 4);
        for isa in IsaId::ALL {
            assert!(isa.inst_size().is_power_of_two(), "Program::fetch shifts");
        }
        assert_eq!(IsaId::Native.xlen(), 64);
        assert_eq!(IsaId::Rv32i.xlen(), 32);
        assert_eq!(IsaId::default(), IsaId::Native);
    }
}
