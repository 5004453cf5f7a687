//! Linked program images.

use crate::{EncodeError, Instr, IsaId};
use std::collections::BTreeMap;

/// Default base address of the text segment.
pub const TEXT_BASE: u64 = 0x1000;
/// Default base address of the data segment.
pub const DATA_BASE: u64 = 0x0010_0000;
/// Default initial stack pointer (grows downward).
pub const STACK_TOP: u64 = 0x7FFF_F000;

/// A fully linked program: text, initialised data, entry point, and a
/// symbol table.
///
/// Programs are produced by the [`crate::ProgramBuilder`] or the text
/// [`crate::assemble`]r, and consumed by the functional emulator and the
/// timing simulators.
///
/// # Example
///
/// ```
/// use reese_isa::{Instr, Opcode, Program, Reg};
///
/// let prog = Program::from_text(vec![
///     Instr::rri(Opcode::Li, Reg::x(1), Reg::ZERO, 7),
///     Instr { op: Opcode::Halt, ..Instr::nop() },
/// ]);
/// assert_eq!(prog.text().len(), 2);
/// assert_eq!(prog.entry(), reese_isa::TEXT_BASE);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    text: Vec<Instr>,
    text_base: u64,
    data: Vec<u8>,
    data_base: u64,
    entry: u64,
    symbols: BTreeMap<String, u64>,
    isa: IsaId,
}

impl Program {
    /// Builds a program from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if the text and data segments overlap, or if `entry` does
    /// not point into the text segment.
    pub fn new(
        text: Vec<Instr>,
        text_base: u64,
        data: Vec<u8>,
        data_base: u64,
        entry: u64,
        symbols: BTreeMap<String, u64>,
    ) -> Program {
        let native = IsaId::Native;
        Program::for_isa(native, text, text_base, data, data_base, entry, symbols)
    }

    /// [`Program::new`] for `isa`: the segment bounds count `isa`'s
    /// instruction size.
    pub(crate) fn for_isa(
        isa: IsaId,
        text: Vec<Instr>,
        text_base: u64,
        data: Vec<u8>,
        data_base: u64,
        entry: u64,
        symbols: BTreeMap<String, u64>,
    ) -> Program {
        let size = isa.inst_size();
        let text_end = text_base + text.len() as u64 * size;
        let data_end = data_base + data.len() as u64;
        let disjoint = text_end <= data_base || data_end <= text_base;
        assert!(
            disjoint || text.is_empty() || data.is_empty(),
            "text and data segments overlap"
        );
        assert!(
            entry >= text_base && entry < text_end.max(text_base + size),
            "entry point {entry:#x} outside text segment"
        );
        Program {
            text,
            text_base,
            data,
            data_base,
            entry,
            symbols,
            isa,
        }
    }

    /// Stamps the program with the ISA it was built for. The stamp
    /// drives pc arithmetic ([`Program::fetch`], [`Program::text_end`]),
    /// the binary image format, and execution semantics downstream.
    pub fn with_isa(mut self, isa: IsaId) -> Program {
        self.isa = isa;
        self
    }

    /// The ISA this program was built for.
    pub fn isa(&self) -> IsaId {
        self.isa
    }

    /// Size in bytes of one instruction in this program's encoding.
    pub fn inst_size(&self) -> u64 {
        self.isa.inst_size()
    }

    /// Wraps a bare instruction sequence at the default bases.
    pub fn from_text(text: Vec<Instr>) -> Program {
        Program::new(
            text,
            TEXT_BASE,
            Vec::new(),
            DATA_BASE,
            TEXT_BASE,
            BTreeMap::new(),
        )
    }

    /// The instruction sequence.
    pub fn text(&self) -> &[Instr] {
        &self.text
    }

    /// Base address of the text segment.
    pub fn text_base(&self) -> u64 {
        self.text_base
    }

    /// One-past-the-end address of the text segment.
    pub fn text_end(&self) -> u64 {
        self.text_base + self.text.len() as u64 * self.inst_size()
    }

    /// The initialised data image.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Base address of the data segment.
    pub fn data_base(&self) -> u64 {
        self.data_base
    }

    /// The entry-point address.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// Symbol table (label → address).
    pub fn symbols(&self) -> &BTreeMap<String, u64> {
        &self.symbols
    }

    /// Address of a named symbol.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Fetches the instruction at an address.
    ///
    /// Returns `None` if the address is outside the text segment or not
    /// instruction-aligned.
    #[inline]
    pub fn fetch(&self, addr: u64) -> Option<&Instr> {
        // Every ISA's instruction size is a power of two.
        let size = self.inst_size();
        let offset = addr.checked_sub(self.text_base)?;
        if offset & (size - 1) != 0 {
            return None;
        }
        self.text.get((offset >> size.trailing_zeros()) as usize)
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Encodes the text segment into its binary image.
    ///
    /// # Errors
    ///
    /// Returns the instruction index and [`EncodeError`] for the first
    /// immediate that does not fit the encoding.
    pub fn text_image(&self) -> Result<Vec<u8>, (usize, EncodeError)> {
        self.isa.frontend().encode_text(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Opcode, Reg};

    fn two_instr_program() -> Program {
        Program::from_text(vec![
            Instr::rri(Opcode::Li, Reg::x(1), Reg::ZERO, 1),
            Instr {
                op: Opcode::Halt,
                ..Instr::nop()
            },
        ])
    }

    #[test]
    fn fetch_by_address() {
        let p = two_instr_program();
        assert_eq!(p.fetch(TEXT_BASE).unwrap().op, Opcode::Li);
        assert_eq!(p.fetch(TEXT_BASE + 8).unwrap().op, Opcode::Halt);
        assert_eq!(p.fetch(TEXT_BASE + 16), None);
        assert_eq!(p.fetch(TEXT_BASE + 4), None, "unaligned");
        assert_eq!(p.fetch(0), None, "below base");
    }

    #[test]
    fn segment_bounds() {
        let p = two_instr_program();
        assert_eq!(p.text_end(), TEXT_BASE + 16);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.data_base(), DATA_BASE);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_segments_panic() {
        Program::new(
            vec![Instr::nop(); 4],
            0x1000,
            vec![0; 64],
            0x1008,
            0x1000,
            BTreeMap::new(),
        );
    }

    #[test]
    #[should_panic(expected = "entry point")]
    fn entry_outside_text_panics() {
        Program::new(
            vec![Instr::nop()],
            0x1000,
            Vec::new(),
            0x2000,
            0x4000,
            BTreeMap::new(),
        );
    }

    #[test]
    fn symbols_lookup() {
        let mut syms = BTreeMap::new();
        syms.insert("main".to_string(), 0x1000);
        let p = Program::new(vec![Instr::nop()], 0x1000, Vec::new(), 0x2000, 0x1000, syms);
        assert_eq!(p.symbol("main"), Some(0x1000));
        assert_eq!(p.symbol("other"), None);
    }

    #[test]
    fn text_image_encodes() {
        let p = two_instr_program();
        assert_eq!(p.text_image().unwrap().len(), 16);
    }

    #[test]
    fn rv32i_stamp_changes_pc_arithmetic() {
        let p = two_instr_program();
        assert_eq!(p.isa(), IsaId::Native);
        let p = p.with_isa(IsaId::Rv32i);
        assert_eq!(p.isa(), IsaId::Rv32i);
        assert_eq!(p.inst_size(), 4);
        assert_eq!(p.text_end(), TEXT_BASE + 8);
        assert_eq!(p.fetch(TEXT_BASE + 4).unwrap().op, Opcode::Halt);
        assert_eq!(p.fetch(TEXT_BASE + 8), None);
        assert_eq!(p.fetch(TEXT_BASE + 2), None, "unaligned");
    }
}
