//! The text assembler: one source layer over [`ProgramBuilder`] for
//! every ISA.
//!
//! [`assemble_with`] handles comments, labels, segments, directives,
//! the data segment, `.entry`, label references and error positions;
//! each ISA supplies only an instruction emitter. [`assemble`] is the
//! native ISA's; [`crate::rv32i::assemble`] is RV32I's.
//!
//! Supported syntax (one statement per line):
//!
//! ```text
//! # comment                      ; '#' or '//' start a comment
//!         .text                  ; switch to the text segment (default)
//! main:   li   a0, 100           ; labels end with ':'
//! loop:   addi a0, a0, -1
//!         bnez a0, loop          ; branch targets: label or numeric offset
//!         sd   a0, 8(sp)         ; memory operands: off(base)
//!         halt
//!         .data                  ; switch to the data segment
//! arr:    .dword 1, 2, 3         ; also .byte .half .word .space .align .asciz
//! msg:    .asciz "hello"
//! ```
//!
//! Native pseudo-instructions: `nop li la mv neg not seqz snez beqz bnez
//! bltz bgez ble bgt j jr call ret halt print`.

use crate::{
    BuildError, Instr, IsaId, Label, OpKind, Opcode, Program, ProgramBuilder, Reg, DATA_BASE,
    STACK_TOP,
};
use std::fmt;

/// Error produced by [`assemble`], with a 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number of the offending statement (0 for link-time
    /// errors with no single source line).
    pub line: usize,
    /// 1-based column of the offending token (0 when the whole line is
    /// at fault or the column is unknown).
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl AsmError {
    pub(crate) fn at(line: usize, col: usize, message: String) -> AsmError {
        AsmError { line, col, message }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(f, "line {}:{}: {}", self.line, self.col, self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for AsmError {}

impl From<BuildError> for AsmError {
    fn from(e: BuildError) -> Self {
        AsmError::at(0, 0, e.to_string())
    }
}

/// 1-based column of `token` within `raw` (0 if `token` is not a
/// subslice of `raw`). Tokens are always subslices of their source
/// line, so this recovers the column without tracking offsets.
fn col_in(raw: &str, token: &str) -> usize {
    let raw_start = raw.as_ptr() as usize;
    let tok_start = token.as_ptr() as usize;
    if tok_start >= raw_start && tok_start + token.len() <= raw_start + raw.len() {
        tok_start - raw_start + 1
    } else {
        0
    }
}

/// Strips a trailing comment (`#`, `//`, or `;`) outside string
/// literals, so `.asciz "a#b"` keeps its hash.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'#' | b';' => return &line[..i],
            b'/' if bytes.get(i + 1) == Some(&b'/') => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Splits a statement at its first whitespace into the mnemonic (or
/// directive) and the rest.
fn split_word(code: &str) -> (&str, &str) {
    match code.find(char::is_whitespace) {
        Some(pos) => (&code[..pos], code[pos..].trim()),
        None => (code, ""),
    }
}

/// A label reference: the label, its name, and the source line and
/// column that named it.
type Ref<'a> = (Label, &'a str, usize, usize);

/// The source statement one instruction came from: its line, the
/// column of its mnemonic, and the mnemonic.
pub(crate) type Origin<'a> = (usize, usize, &'a str);

/// An ISA's instruction emitter: appends one statement, given its
/// mnemonic and comma-separated operands, to [`Asm::b`].
pub(crate) type Emitter<'a> = fn(&mut Asm<'a>, &'a str, &[&'a str]) -> Result<(), AsmError>;

/// The source layer's state while it assembles one program: the
/// builder, the line being read, and where every label reference and
/// instruction came from.
pub(crate) struct Asm<'a> {
    pub(crate) b: ProgramBuilder,
    line: usize,
    raw: &'a str,
    data: bool,
    code_refs: Vec<Ref<'a>>,
    data_refs: Vec<Ref<'a>>,
    entry: Option<Ref<'a>>,
    origin: Vec<Origin<'a>>,
}

/// Assembles source text into a [`Program`] for `isa`, calling
/// `instruction` for every statement that is not a label, a directive
/// or one of the register pseudo-instructions both ISAs share (`mv neg
/// not seqz snez jr ret`). Returns the program and the [`Origin`] of
/// each of its instructions.
///
/// A reference to a label that is never bound is reported where the
/// code first names it, then where the data does, then at `.entry`.
pub(crate) fn assemble_with<'a>(
    isa: IsaId,
    source: &'a str,
    instruction: Emitter<'a>,
) -> Result<(Program, Vec<Origin<'a>>), AsmError> {
    let mut a = Asm {
        b: ProgramBuilder::for_isa(isa),
        line: 0,
        raw: "",
        data: false,
        code_refs: Vec::new(),
        data_refs: Vec::new(),
        entry: None,
        origin: Vec::new(),
    };
    for (lineno, raw) in source.lines().enumerate() {
        (a.line, a.raw) = (lineno + 1, raw);
        let mut code = strip_comment(raw).trim();
        while let Some(colon) = code.find(':') {
            let name = code[..colon].trim();
            if name.is_empty() || !is_ident(name) {
                return Err(a.err(name, format!("bad label `{name}`")));
            }
            let l = a.b.label(name);
            if a.b.is_bound(l) {
                return Err(a.err(name, format!("label `{name}` defined twice")));
            }
            if a.data {
                a.b.bind_data(l);
            } else {
                a.b.bind(l);
            }
            code = code[colon + 1..].trim();
        }
        if code.is_empty() {
            continue;
        }
        let (head, rest) = split_word(code);
        if let Some(name) = head.strip_prefix('.') {
            a.directive(name, rest)?;
            continue;
        }
        if a.data {
            return Err(a.err(code, "instructions are not allowed in .data".to_string()));
        }
        let ops: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };
        if !a.register_pseudo(head, &ops)? {
            instruction(&mut a, head, &ops)?;
        }
        a.origin
            .resize(a.b.len(), (a.line, col_in(raw, head), head));
    }
    let mut refs = a.code_refs.iter().chain(&a.data_refs).chain(&a.entry);
    if let Some(&(_, name, line, col)) = refs.find(|r| !a.b.is_bound(r.0)) {
        let e = BuildError::UnboundLabel(name.to_string());
        return Err(AsmError::at(line, col, e.to_string()));
    }
    let program = a.b.build().map_err(|e| match (&e, a.entry) {
        (BuildError::EntryNotCode(_), Some((_, _, line, col))) => {
            AsmError::at(line, col, e.to_string())
        }
        _ => AsmError::from(e),
    })?;
    Ok((program, a.origin))
}

/// Assembles native source text into a [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] naming the first offending line for syntax
/// errors, unknown mnemonics/registers, malformed operands, unbound
/// labels, or data that would run past [`STACK_TOP`].
///
/// # Example
///
/// ```
/// let prog = reese_isa::assemble(
///     "        li   t0, 5\n\
///      loop:   addi t0, t0, -1\n\
///              bnez t0, loop\n\
///              halt\n",
/// )?;
/// assert_eq!(prog.len(), 4);
/// # Ok::<(), reese_isa::AsmError>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    assemble_with(IsaId::Native, source, parse_instruction).map(|(program, _)| program)
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '.' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('0') => out.push('\0'),
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Splits `off(base)` into its parts.
fn parse_mem_operand(s: &str) -> Option<(i64, Reg)> {
    let open = s.find('(')?;
    let close = s.rfind(')')?;
    if close != s.len() - 1 {
        return None;
    }
    let off_str = s[..open].trim();
    let off = if off_str.is_empty() {
        0
    } else {
        parse_int(off_str)?
    };
    let base = Reg::parse(s[open + 1..close].trim())?;
    Some((off, base))
}

impl<'a> Asm<'a> {
    /// An error at `tok` on the current line.
    pub(crate) fn err(&self, tok: &str, message: String) -> AsmError {
        AsmError::at(self.line, col_in(self.raw, tok), message)
    }

    /// Checks the operand count of mnemonic `m`.
    pub(crate) fn nops(&self, m: &str, ops: &[&str], want: usize) -> Result<(), AsmError> {
        if ops.len() == want {
            Ok(())
        } else {
            let got = ops.len();
            Err(self.err(m, format!("`{m}` expects {want} operands, got {got}")))
        }
    }

    /// Rejects a floating-point register on an ISA without them.
    fn int_only(&self, tok: &str, r: Reg) -> Result<Reg, AsmError> {
        let isa = self.b.isa();
        if r.is_int() || isa == IsaId::Native {
            Ok(r)
        } else {
            Err(self.err(tok, format!("`{tok}`: {isa} has no fp registers")))
        }
    }

    pub(crate) fn reg(&self, tok: &str) -> Result<Reg, AsmError> {
        let r = Reg::parse(tok).ok_or_else(|| self.err(tok, format!("bad register `{tok}`")))?;
        self.int_only(tok, r)
    }

    pub(crate) fn imm(&self, tok: &str) -> Result<i64, AsmError> {
        parse_int(tok).ok_or_else(|| self.err(tok, format!("bad immediate `{tok}`")))
    }

    /// An `off(base)` memory operand.
    pub(crate) fn mem(&self, tok: &str) -> Result<(i64, Reg), AsmError> {
        let (off, base) = parse_mem_operand(tok)
            .ok_or_else(|| self.err(tok, format!("bad memory operand `{tok}`")))?;
        Ok((off, self.int_only(tok, base)?))
    }

    /// A label named by an instruction operand.
    pub(crate) fn label(&mut self, tok: &'a str) -> Result<Label, AsmError> {
        if !is_ident(tok) {
            return Err(self.err(tok, format!("bad label `{tok}`")));
        }
        let l = self.b.label(tok);
        let col = col_in(self.raw, tok);
        self.code_refs.push((l, tok, self.line, col));
        Ok(l)
    }

    /// Emits a branch or `jal` whose target `tok` is a numeric offset
    /// or a label.
    pub(crate) fn branch(&mut self, mut i: Instr, tok: &'a str) -> Result<(), AsmError> {
        if let Some(off) = parse_int(tok) {
            i.imm = off;
            self.b.emit(i);
        } else {
            let l = self.label(tok)?;
            self.b.emit_branch(i, l);
        }
        Ok(())
    }

    /// Emits a base instruction: the loads, stores, branches, jumps,
    /// ALU forms and environment calls both ISAs spell alike.
    pub(crate) fn base(&mut self, op: Opcode, m: &str, ops: &[&'a str]) -> Result<(), AsmError> {
        let i = match op.kind() {
            OpKind::Load => {
                self.nops(m, ops, 2)?;
                let rd = self.reg(ops[0])?;
                let (off, base) = self.mem(ops[1])?;
                Instr::load(op, rd, base, off)
            }
            OpKind::Store => {
                self.nops(m, ops, 2)?;
                let src = self.reg(ops[0])?;
                let (off, base) = self.mem(ops[1])?;
                Instr::store(op, src, base, off)
            }
            OpKind::Branch => {
                self.nops(m, ops, 3)?;
                let (r1, r2) = (self.reg(ops[0])?, self.reg(ops[1])?);
                return self.branch(Instr::branch(op, r1, r2, 0), ops[2]);
            }
            OpKind::Jump => {
                self.nops(m, ops, 2)?;
                let rd = self.reg(ops[0])?;
                if op == Opcode::Jal {
                    return self.branch(Instr::rri(op, rd, Reg::ZERO, 0), ops[1]);
                }
                let (off, base) = self.mem(ops[1])?;
                Instr::rri(op, rd, base, off)
            }
            OpKind::System => {
                self.nops(m, ops, 0)?;
                Instr { op, ..Instr::nop() }.canonical()
            }
            OpKind::Alu if matches!(op, Opcode::Li | Opcode::Lih | Opcode::Auipc) => {
                self.nops(m, ops, 2)?;
                let (rd, imm) = (self.reg(ops[0])?, self.imm(ops[1])?);
                let rs1 = if op == Opcode::Lih { rd } else { Reg::ZERO };
                Instr {
                    op,
                    rd,
                    rs1,
                    rs2: Reg::ZERO,
                    imm,
                }
            }
            OpKind::Alu if op.uses_imm() => {
                self.nops(m, ops, 3)?;
                let (rd, rs1) = (self.reg(ops[0])?, self.reg(ops[1])?);
                Instr::rri(op, rd, rs1, self.imm(ops[2])?)
            }
            OpKind::Alu if op.reads_rs2() => {
                self.nops(m, ops, 3)?;
                let (rd, rs1) = (self.reg(ops[0])?, self.reg(ops[1])?);
                Instr::rrr(op, rd, rs1, self.reg(ops[2])?)
            }
            OpKind::Alu => {
                self.nops(m, ops, 2)?;
                let (rd, rs1) = (self.reg(ops[0])?, self.reg(ops[1])?);
                Instr::rrr(op, rd, rs1, Reg::ZERO)
            }
        };
        self.b.emit(i);
        Ok(())
    }

    /// Emits `mv neg not seqz snez jr ret`, which both ISAs expand the
    /// same way. Returns false for any other mnemonic.
    fn register_pseudo(&mut self, m: &str, ops: &[&str]) -> Result<bool, AsmError> {
        match m {
            "mv" | "neg" | "not" | "seqz" | "snez" => {
                self.nops(m, ops, 2)?;
                let (rd, rs) = (self.reg(ops[0])?, self.reg(ops[1])?);
                match m {
                    "mv" => self.b.mv(rd, rs),
                    "neg" => self.b.neg(rd, rs),
                    "not" => self.b.not(rd, rs),
                    "seqz" => self.b.seqz(rd, rs),
                    _ => self.b.snez(rd, rs),
                };
            }
            "jr" => {
                self.nops(m, ops, 1)?;
                let rs = self.reg(ops[0])?;
                self.b.jalr(Reg::ZERO, rs, 0);
            }
            "ret" => {
                self.nops(m, ops, 0)?;
                self.b.ret();
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Checks that `n` more data bytes stay below [`STACK_TOP`].
    fn fits(&self, tok: &str, n: u64) -> Result<(), AsmError> {
        let end = DATA_BASE + self.b.data_len() as u64;
        if n > STACK_TOP.saturating_sub(end) {
            let message = format!("data segment would run past the stack at {STACK_TOP:#x}");
            return Err(self.err(tok, message));
        }
        Ok(())
    }

    fn directive(&mut self, name: &'a str, args: &'a str) -> Result<(), AsmError> {
        let ints = |args: &str| -> Result<Vec<i64>, AsmError> {
            args.split(',')
                .map(|t| {
                    let t = t.trim();
                    parse_int(t).ok_or_else(|| self.err(t, format!("bad integer `{t}`")))
                })
                .collect()
        };
        match name {
            "text" => self.data = false,
            "data" => self.data = true,
            "globl" | "global" => {} // accepted and ignored
            "entry" => {
                if !is_ident(args) {
                    return Err(self.err(args, format!("bad entry label `{args}`")));
                }
                let l = self.b.label(args);
                self.b.entry(l);
                self.entry = Some((l, args, self.line, col_in(self.raw, args)));
            }
            "byte" => {
                for v in ints(args)? {
                    self.b.byte(v as u8);
                }
            }
            "half" => {
                for v in ints(args)? {
                    self.b.bytes(&(v as u16).to_le_bytes());
                }
            }
            // `.word`/`.dword` accept labels alongside integers; label
            // slots are patched with the final address at build time,
            // so forward references inside data are safe.
            "word" | "dword" => {
                for t in args.split(',').map(str::trim) {
                    if let Some(v) = parse_int(t) {
                        match name {
                            "word" => self.b.word(v as u32),
                            _ => self.b.dword(v as u64),
                        };
                    } else if is_ident(t) {
                        let l = self.b.label(t);
                        self.data_refs.push((l, t, self.line, col_in(self.raw, t)));
                        match name {
                            "word" => self.b.word_label(l),
                            _ => self.b.dword_label(l),
                        };
                    } else {
                        return Err(self.err(t, format!("bad integer or label `{t}`")));
                    }
                }
            }
            "space" => {
                let n =
                    parse_int(args).ok_or_else(|| self.err(args, format!("bad size `{args}`")))?;
                if n < 0 {
                    return Err(self.err(args, "negative .space".to_string()));
                }
                self.fits(args, n as u64)?;
                self.b.space(n as usize);
            }
            "align" => {
                let n = parse_int(args)
                    .ok_or_else(|| self.err(args, format!("bad alignment `{args}`")))?;
                if n <= 0 || !(n as u64).is_power_of_two() {
                    return Err(self.err(
                        args,
                        format!("alignment must be a positive power of two, got {n}"),
                    ));
                }
                let len = self.b.data_len() as u64;
                self.fits(args, len.next_multiple_of(n as u64) - len)?;
                self.b.align(n as usize);
            }
            "asciz" | "string" => {
                let s = args
                    .strip_prefix('"')
                    .and_then(|s| s.strip_suffix('"'))
                    .ok_or_else(|| self.err(args, "expected a quoted string".to_string()))?;
                self.b.asciz(&unescape(s));
            }
            other => return Err(self.err(name, format!("unknown directive `.{other}`"))),
        }
        Ok(())
    }
}

/// The native instruction emitter: the native pseudo-instructions, then
/// every [`Opcode`] by its mnemonic.
fn parse_instruction<'a>(a: &mut Asm<'a>, m: &'a str, ops: &[&'a str]) -> Result<(), AsmError> {
    match m {
        "nop" => {
            a.nops(m, ops, 0)?;
            a.b.nop();
        }
        // `halt` defaults the exit-code register to a0; `halt rs` names
        // it explicitly (the form the disassembler prints).
        "halt" => match ops.len() {
            0 => {
                a.b.halt();
            }
            1 => {
                let rs1 = a.reg(ops[0])?;
                a.b.emit(Instr {
                    op: Opcode::Halt,
                    rs1,
                    ..Instr::nop()
                });
            }
            n => return Err(a.err(m, format!("`halt` expects 0 or 1 operands, got {n}"))),
        },
        "print" => {
            a.nops(m, ops, 1)?;
            let r = a.reg(ops[0])?;
            a.b.print(r);
        }
        "li" => {
            a.nops(m, ops, 2)?;
            let (rd, v) = (a.reg(ops[0])?, a.imm(ops[1])?);
            a.b.li(rd, v);
        }
        "la" => {
            a.nops(m, ops, 2)?;
            let rd = a.reg(ops[0])?;
            let l = a.label(ops[1])?;
            a.b.la(rd, l);
        }
        "j" | "call" => {
            a.nops(m, ops, 1)?;
            let l = a.label(ops[0])?;
            let rd = if m == "j" { Reg::ZERO } else { Reg::RA };
            a.b.jal(rd, l);
        }
        "beqz" | "bnez" | "bltz" | "bgez" => {
            a.nops(m, ops, 2)?;
            let rs = a.reg(ops[0])?;
            let l = a.label(ops[1])?;
            match m {
                "beqz" => a.b.beqz(rs, l),
                "bnez" => a.b.bnez(rs, l),
                "bltz" => a.b.bltz(rs, l),
                _ => a.b.bgez(rs, l),
            };
        }
        "ble" | "bgt" => {
            a.nops(m, ops, 3)?;
            let (r1, r2) = (a.reg(ops[0])?, a.reg(ops[1])?);
            let l = a.label(ops[2])?;
            if m == "ble" {
                a.b.ble(r1, r2, l);
            } else {
                a.b.bgt(r1, r2, l);
            }
        }
        _ => {
            let op = Opcode::from_mnemonic(m)
                .ok_or_else(|| a.err(m, format!("unknown mnemonic `{m}`")))?;
            a.base(op, m, ops)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpKind, TEXT_BASE};

    #[test]
    fn countdown_loop() {
        let p = assemble(
            "        li   t0, 5\n\
             loop:   addi t0, t0, -1\n\
                     bnez t0, loop\n\
                     halt\n",
        )
        .unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.text()[2].op, Opcode::Bne);
        assert_eq!(p.text()[2].imm, -8);
    }

    #[test]
    fn comments_and_blank_lines() {
        let p = assemble("# leading comment\n\n  nop // trailing\n  halt ; also\n").unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn data_segment_and_la() {
        let p = assemble(
            "        la   a0, arr\n\
                     ld   a1, 8(a0)\n\
                     halt\n\
                     .data\n\
             arr:    .dword 10, 20, 30\n",
        )
        .unwrap();
        assert_eq!(p.data().len(), 24);
        assert_eq!(p.symbol("arr"), Some(crate::DATA_BASE));
        assert_eq!(&p.data()[8..16], &20u64.to_le_bytes());
    }

    #[test]
    fn mem_operand_forms() {
        let p = assemble("  lw x5, -4(sp)\n  sw x5, (sp)\n  halt\n").unwrap();
        assert_eq!(p.text()[0].imm, -4);
        assert_eq!(p.text()[1].imm, 0);
        assert_eq!(p.text()[1].rs2, Reg::x(5));
        assert_eq!(p.text()[1].rs1, Reg::SP);
    }

    #[test]
    fn call_ret_and_entry() {
        let p = assemble(
            "        .entry main\n\
             f:      ret\n\
             main:   call f\n\
                     halt\n",
        )
        .unwrap();
        assert_eq!(p.entry(), TEXT_BASE + 8);
        assert_eq!(p.text()[1].op, Opcode::Jal);
        assert_eq!(p.text()[1].rd, Reg::RA);
        assert_eq!(p.text()[1].imm, -8);
    }

    #[test]
    fn numeric_branch_offsets() {
        let p = assemble("  beq x1, x2, 16\n  jal x0, -8\n  halt\n").unwrap();
        assert_eq!(p.text()[0].imm, 16);
        assert_eq!(p.text()[1].imm, -8);
    }

    #[test]
    fn directives_emit_data() {
        let p = assemble(
            "  halt\n  .data\n  .byte 1, 2\n  .half 0x0304\n  .word 5\n  .align 8\n  .space 4\n  .asciz \"a\\n\"\n",
        )
        .unwrap();
        let d = p.data();
        assert_eq!(&d[..2], &[1, 2]);
        assert_eq!(&d[2..4], &[4, 3]);
        assert_eq!(d.len(), 8 + 4 + 3);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("  nop\n  bogus x1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));

        let e = assemble("  addi t0, t0\n").unwrap_err();
        assert!(e.message.contains("expects 3 operands"));

        let e = assemble("  lw t0, t1\n").unwrap_err();
        assert!(e.message.contains("memory operand"));

        let e = assemble("  li t0, zzz\n").unwrap_err();
        assert!(e.message.contains("bad immediate"));

        // Unbound labels name their first reference: code, then data,
        // then `.entry`.
        let e = assemble("  nop\n  j nowhere\n  j nowhere\n").unwrap_err();
        assert!(e.message.contains("never bound"));
        assert_eq!((e.line, e.col), (2, 5));
        let e = assemble("  .entry main\n  halt\n  .data\n  .word nowhere\n").unwrap_err();
        assert_eq!(
            (e.line, e.col, e.message.as_str()),
            (4, 9, "label `nowhere` was never bound")
        );
        let e = assemble("  .entry main\n  halt\n").unwrap_err();
        assert_eq!((e.line, e.col), (1, 10));

        // A data label cannot be the entry point.
        let e = assemble("  .entry arr\n  halt\n  .data\narr: .dword 1\n").unwrap_err();
        assert_eq!(
            (e.line, e.col, e.message.as_str()),
            (1, 10, "entry label `arr` is in .data")
        );

        // The data segment must stay below the stack.
        let e = assemble("  halt\n  .data\n  .space 99999999999999\n").unwrap_err();
        assert_eq!((e.line, e.col), (3, 10));
        assert!(e.message.contains("past the stack"), "{e}");
        let e = assemble("  halt\n  .data\n  .byte 1\n  .align 1099511627776\n").unwrap_err();
        assert_eq!((e.line, e.col), (4, 10));
        assert!(e.message.contains("past the stack"), "{e}");
    }

    #[test]
    fn errors_carry_column_numbers() {
        let e = assemble("  nop\n  bogus x1\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 3));
        assert!(e.to_string().contains("line 2:3:"));

        let e = assemble("  addi t0, zz, 1\n").unwrap_err();
        assert_eq!(e.col, 12);
        assert!(e.message.contains("bad register"));

        let e = assemble("  li t0, zzz\n").unwrap_err();
        assert_eq!(e.col, 10);
    }

    #[test]
    fn comment_markers_inside_strings_are_data() {
        let p = assemble("  halt\n  .data\n  .asciz \"a#b;c//d\"\n").unwrap();
        assert_eq!(p.data(), b"a#b;c//d\0");
    }

    #[test]
    fn word_directives_accept_forward_label_references() {
        // `tail` is bound *after* the table; the table slots must hold
        // its final address, not a stale offset.
        let p = assemble(
            "  halt\n\
             .data\n\
             table: .dword tail, 7\n\
             .word tail, 1\n\
             tail:  .byte 9\n",
        )
        .unwrap();
        let tail = p.symbol("tail").unwrap();
        assert_eq!(tail, crate::DATA_BASE + 8 + 8 + 4 + 4);
        let d = p.data();
        assert_eq!(u64::from_le_bytes(d[0..8].try_into().unwrap()), tail);
        assert_eq!(u64::from_le_bytes(d[8..16].try_into().unwrap()), 7);
        assert_eq!(
            u64::from(u32::from_le_bytes(d[16..20].try_into().unwrap())),
            tail
        );

        let e = assemble("  halt\n  .data\n  .word 1+2\n").unwrap_err();
        assert!(e.message.contains("bad integer or label"));
    }

    #[test]
    fn ecall_and_ebreak_assemble() {
        let p = assemble("  ecall\n  ebreak\n  halt\n").unwrap();
        assert_eq!(p.text()[0].op, Opcode::Ecall);
        assert_eq!(p.text()[0].rs1, crate::abi::A7);
        assert_eq!(p.text()[0].rs2, crate::abi::A0);
        assert_eq!(p.text()[1].op, Opcode::Ebreak);
        let e = assemble("  ecall x1\n").unwrap_err();
        assert!(e.message.contains("expects 0 operands"));
    }

    #[test]
    fn instructions_rejected_in_data() {
        let e = assemble("  .data\n  nop\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn unknown_directive_rejected() {
        let e = assemble("  .wibble\n").unwrap_err();
        assert!(e.message.contains("wibble"));
    }

    #[test]
    fn disassembly_reassembles_identically() {
        // Round-trip every non-pseudo instruction form through
        // disassemble → assemble.
        let src = "        li32 x5, -100\n\
                   lih  x5, 255\n\
                   add  x1, x2, x3\n\
                   mul  x4, x5, x6\n\
                   srai x7, x8, 3\n\
                   ld   x9, 16(x2)\n\
                   sd   x9, -16(x2)\n\
                   beq  x1, x2, 32\n\
                   jal  x1, -16\n\
                   jalr x0, 0(x1)\n\
                   fadd f1, f2, f3\n\
                   fsqrt f4, f5\n\
                   print x10\n\
                   nop\n\
                   halt x10\n";
        let p1 = assemble(src).unwrap();
        let listing: String = p1.text().iter().map(|i| format!("  {i}\n")).collect();
        let p2 = assemble(&listing).unwrap();
        assert_eq!(p1.text(), p2.text());
    }

    #[test]
    fn fp_registers_parse() {
        let p = assemble("  fadd f1, f2, f3\n  fld f1, 0(sp)\n  fsd f1, 8(sp)\n  halt\n").unwrap();
        assert_eq!(p.text()[0].rd, Reg::f(1));
        assert_eq!(p.text()[1].op.kind(), OpKind::Load);
        assert_eq!(p.text()[2].rs2, Reg::f(1));
    }
}
