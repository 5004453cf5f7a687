//! The versioned binary checkpoint: full functional simulator state,
//! plus an optional microarchitectural warm section.
//!
//! # Format (version 4)
//!
//! All integers little-endian. The file is one frame:
//!
//! ```text
//! magic      4 bytes  b"RCKP"
//! version    u16      4
//! flags      u16      bit0 = warm section present, bit1 = halted
//! instructions u64    dynamic instructions executed so far
//! pc         u64
//! regs       u32 count, then count x u64
//! digest     u64      FNV-1a over (regs, pc) — architectural self-check
//! scheme     u8       detection scheme the snapshot was captured under
//! isa        u8       instruction set the program executes under
//! exit_code  u64      only if flags bit1
//! output     u32 count, then count x i64   (values printed so far)
//! pages      u32 count, then count x (u64 page_number, 4096 bytes)
//! warm       only if flags bit0:
//!   l1i, l1d, l2   each: u32 line count, count x (u64 tag, u8 v|d, u64 lru),
//!                  u64 tick, u64 accesses, u64 hits, u64 misses, u64 writebacks
//!   itlb, dtlb     each: u32 count, count x (u64 vpn, u64 lru),
//!                  u64 tick, u64 hits, u64 misses
//!   prefetches     u64
//!   direction      u32 count, count x u64 packed 2-bit counters
//!   btb            u32 count, count x (u8 present, u64 tag, u64 target)
//!   ras            u32 stack len, len x u64, u64 top, u64 depth
//!   branch stats   4 x u64
//! crc        u32      CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! Only touched memory pages are stored, so checkpoint size scales with
//! the program's working set, not the address space.
//!
//! Version 2 added the architectural digest (a semantic complement to
//! the byte-level CRC: it travels with the snapshot into any future
//! container that re-frames the bytes). Version 3 added the capturing
//! [`Scheme`] id so a snapshot cannot be silently restored under a
//! different detection scheme — [`Checkpoint::decode_for`] enforces the
//! match. Version 4 added the [`IsaId`] stamp: functional state is only
//! meaningful under the ISA that produced it (4- vs 8-byte pcs, 32- vs
//! 64-bit register contents), so `decode_for` likewise refuses a frame
//! stamped with a different ISA. Version-3 frames, which predate the
//! stamp, still decode and are treated as [`IsaId::Native`]; version-1
//! and version-2 frames are rejected with
//! [`CkptError::UnsupportedVersion`] rather than read.

use crate::wire::{crc32, Decoder, Encoder};
use crate::Scheme;
use reese_bpred::{BranchSnapshot, BranchStats, RasSnapshot};
use reese_cpu::{ArchState, Emulator};
use reese_isa::{IsaId, Program, NUM_REGS};
use reese_mem::{CacheSnapshot, CacheStats, LineState, Memory, TlbSnapshot, PAGE_SIZE};
use reese_pipeline::WarmState;
use std::fmt;

/// File magic: "Reese ChecKPoint".
pub const MAGIC: [u8; 4] = *b"RCKP";

/// Current format version.
pub const VERSION: u16 = 4;

/// Oldest format version [`Checkpoint::decode`] still reads. Version-3
/// frames lack the ISA byte and decode as [`IsaId::Native`].
pub const MIN_VERSION: u16 = 3;

const FLAG_WARM: u16 = 1 << 0;
const FLAG_HALTED: u16 = 1 << 1;

/// Why a checkpoint failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// The version field names a format this build cannot read.
    UnsupportedVersion(u16),
    /// The data ended before the structure it promised.
    Truncated,
    /// The trailing CRC does not match the content.
    BadCrc {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the content.
        computed: u32,
    },
    /// Structurally well-formed bytes with an impossible value.
    Malformed(&'static str),
    /// The snapshot was captured under a different detection scheme
    /// than the one asking to restore it.
    SchemeMismatch {
        /// Scheme recorded in the frame.
        stored: Scheme,
        /// Scheme the caller is restoring under.
        requested: Scheme,
    },
    /// The snapshot was captured under a different instruction set than
    /// the program it is being restored against.
    IsaMismatch {
        /// ISA recorded in the frame.
        stored: IsaId,
        /// ISA the caller is restoring under.
        requested: IsaId,
    },
    /// A pass was asked to hold more checkpoints at once than
    /// [`crate::MAX_RESIDENT_CHECKPOINTS`] allows.
    TooManyCheckpoints {
        /// Checkpoints asked for.
        requested: usize,
        /// The resident-checkpoint cap.
        cap: usize,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a REESE checkpoint (bad magic)"),
            CkptError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads {VERSION})"
                )
            }
            CkptError::Truncated => write!(f, "checkpoint truncated"),
            CkptError::BadCrc { stored, computed } => write!(
                f,
                "checkpoint CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            CkptError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CkptError::SchemeMismatch { stored, requested } => write!(
                f,
                "checkpoint was captured under scheme `{stored}` but is being restored under `{requested}`"
            ),
            CkptError::IsaMismatch { stored, requested } => write!(
                f,
                "checkpoint was captured under ISA `{}` but is being restored under `{}`",
                stored.name(),
                requested.name()
            ),
            CkptError::TooManyCheckpoints { requested, cap } => write!(
                f,
                "{requested} checkpoints requested, but at most {cap} may be resident at once"
            ),
        }
    }
}

impl std::error::Error for CkptError {}

/// A complete functional snapshot of the simulated machine at an
/// instruction boundary, with optional cache/TLB/branch-predictor warm
/// state for resuming detailed timing simulation.
///
/// The program itself is *not* stored: it is the deterministic input
/// that produced this state, and [`Checkpoint::restore`] takes it as an
/// argument.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Dynamic instructions executed before this boundary.
    pub instructions: u64,
    /// Program counter.
    pub pc: u64,
    /// Architectural integer registers (`x0` stored as 0).
    pub regs: [u64; NUM_REGS as usize],
    /// Exit code, if the machine has already halted.
    pub exit_code: Option<u64>,
    /// Values printed so far.
    pub output: Vec<i64>,
    /// Touched memory pages, sorted by page number.
    pub pages: Vec<(u64, [u8; PAGE_SIZE as usize])>,
    /// Microarchitectural warm state; fast-forward attaches it at every
    /// boundary past instruction 0.
    pub warm: Option<WarmState>,
    /// Detection scheme the snapshot was captured under. The functional
    /// state is scheme-independent, but warm state and downstream
    /// timing are not, so [`Checkpoint::decode_for`] refuses a frame
    /// stamped with a different scheme.
    pub scheme: Scheme,
    /// Instruction set the captured program executes under. Register
    /// contents and the pc are only meaningful per-ISA, so
    /// [`Checkpoint::decode_for`] refuses a frame stamped with a
    /// different ISA.
    pub isa: IsaId,
}

impl Checkpoint {
    /// Captures the emulator's full functional state.
    pub fn capture(emulator: &Emulator, warm: Option<WarmState>) -> Checkpoint {
        Checkpoint {
            instructions: emulator.instructions(),
            pc: emulator.state().pc,
            regs: *emulator.state().regs(),
            exit_code: emulator.exit_code(),
            output: emulator.output().to_vec(),
            pages: emulator
                .memory()
                .pages_sorted()
                .into_iter()
                .map(|(n, p)| (n, *p))
                .collect(),
            warm: None,
            scheme: Scheme::Baseline,
            isa: emulator.isa(),
        }
        .with_warm(warm)
    }

    fn with_warm(mut self, warm: Option<WarmState>) -> Checkpoint {
        self.warm = warm;
        self
    }

    /// Stamps the detection scheme this snapshot belongs to.
    pub fn with_scheme(mut self, scheme: Scheme) -> Checkpoint {
        self.scheme = scheme;
        self
    }

    /// Stamps the instruction set this snapshot belongs to. Rarely
    /// needed directly — [`Checkpoint::capture`] copies the stamp from
    /// the emulator's program.
    pub fn with_isa(mut self, isa: IsaId) -> Checkpoint {
        self.isa = isa;
        self
    }

    /// Rebuilds a functional emulator that continues bit-identically
    /// from this boundary. `program` must be the program that produced
    /// the checkpoint.
    pub fn restore(&self, program: &Program) -> Emulator {
        let mut memory = Memory::new();
        for &(page_number, contents) in &self.pages {
            memory.insert_page(page_number, contents);
        }
        Emulator::from_parts(
            program,
            ArchState::from_regs(self.regs, self.pc),
            memory,
            self.output.clone(),
            self.instructions,
            self.exit_code,
        )
    }

    /// FNV-1a digest of the architectural state (registers + PC) this
    /// checkpoint restores to — the same digest [`Emulator::run`]
    /// reports, so a restored run can be checked against the frame.
    pub fn arch_digest(&self) -> u64 {
        ArchState::from_regs(self.regs, self.pc).digest()
    }

    /// Serializes to the version-4 binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_bytes(&MAGIC);
        e.put_u16(VERSION);
        let mut flags = 0u16;
        if self.warm.is_some() {
            flags |= FLAG_WARM;
        }
        if self.exit_code.is_some() {
            flags |= FLAG_HALTED;
        }
        e.put_u16(flags);
        e.put_u64(self.instructions);
        e.put_u64(self.pc);
        e.put_len(self.regs.len());
        for &r in &self.regs {
            e.put_u64(r);
        }
        e.put_u64(self.arch_digest());
        e.put_u8(self.scheme.id());
        e.put_u8(self.isa.id());
        if let Some(code) = self.exit_code {
            e.put_u64(code);
        }
        e.put_len(self.output.len());
        for &v in &self.output {
            e.put_i64(v);
        }
        e.put_len(self.pages.len());
        for (page_number, contents) in &self.pages {
            e.put_u64(*page_number);
            e.put_bytes(contents);
        }
        if let Some(warm) = &self.warm {
            encode_warm(&mut e, warm);
        }
        e.finish_with_crc()
    }

    /// Parses the binary format, validating magic, version, CRC, and
    /// structure. Never panics on hostile input.
    ///
    /// # Errors
    ///
    /// Returns a [`CkptError`] describing the first defect found.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CkptError> {
        if bytes.len() < MAGIC.len() + 2 + 2 + 4 {
            return Err(CkptError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let body = &bytes[..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("len 4"));
        let computed = crc32(body);
        if stored != computed {
            return Err(CkptError::BadCrc { stored, computed });
        }

        let mut d = Decoder::new(&body[4..]);
        let version = d.take_u16()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(CkptError::UnsupportedVersion(version));
        }
        let flags = d.take_u16()?;
        if flags & !(FLAG_WARM | FLAG_HALTED) != 0 {
            return Err(CkptError::Malformed("unknown flag bits"));
        }
        let instructions = d.take_u64()?;
        let pc = d.take_u64()?;
        let nregs = d.take_len(8)?;
        if nregs != NUM_REGS as usize {
            return Err(CkptError::Malformed("register count"));
        }
        let mut regs = [0u64; NUM_REGS as usize];
        for r in &mut regs {
            *r = d.take_u64()?;
        }
        if regs[0] != 0 {
            return Err(CkptError::Malformed("nonzero x0"));
        }
        let digest = d.take_u64()?;
        if digest != ArchState::from_regs(regs, pc).digest() {
            return Err(CkptError::Malformed("architectural digest mismatch"));
        }
        let scheme =
            Scheme::from_id(d.take_u8()?).ok_or(CkptError::Malformed("unknown scheme id"))?;
        let isa = if version >= 4 {
            IsaId::from_id(d.take_u8()?).ok_or(CkptError::Malformed("unknown isa id"))?
        } else {
            IsaId::Native
        };
        let exit_code = if flags & FLAG_HALTED != 0 {
            Some(d.take_u64()?)
        } else {
            None
        };
        let noutput = d.take_len(8)?;
        let mut output = Vec::with_capacity(noutput);
        for _ in 0..noutput {
            output.push(d.take_i64()?);
        }
        let npages = d.take_len(8 + PAGE_SIZE as usize)?;
        let mut pages = Vec::with_capacity(npages);
        let mut last_page = None;
        for _ in 0..npages {
            let page_number = d.take_u64()?;
            if last_page.is_some_and(|p| p >= page_number) {
                return Err(CkptError::Malformed("pages out of order"));
            }
            last_page = Some(page_number);
            let contents: [u8; PAGE_SIZE as usize] = d
                .take_bytes(PAGE_SIZE as usize)?
                .try_into()
                .expect("page size");
            pages.push((page_number, contents));
        }
        let warm = if flags & FLAG_WARM != 0 {
            Some(decode_warm(&mut d)?)
        } else {
            None
        };
        if d.remaining() != 0 {
            return Err(CkptError::Malformed("trailing bytes"));
        }
        Ok(Checkpoint {
            instructions,
            pc,
            regs,
            exit_code,
            output,
            pages,
            warm,
            scheme,
            isa,
        })
    }

    /// Decodes and additionally enforces that the frame was captured
    /// under `scheme` and `isa` — the restore-time half of both stamps.
    ///
    /// # Errors
    ///
    /// Everything [`Checkpoint::decode`] rejects, plus
    /// [`CkptError::SchemeMismatch`] when the stored scheme differs and
    /// [`CkptError::IsaMismatch`] when the stored ISA differs.
    pub fn decode_for(bytes: &[u8], scheme: Scheme, isa: IsaId) -> Result<Checkpoint, CkptError> {
        let ck = Checkpoint::decode(bytes)?;
        if ck.scheme != scheme {
            return Err(CkptError::SchemeMismatch {
                stored: ck.scheme,
                requested: scheme,
            });
        }
        if ck.isa != isa {
            return Err(CkptError::IsaMismatch {
                stored: ck.isa,
                requested: isa,
            });
        }
        Ok(ck)
    }
}

fn encode_cache(e: &mut Encoder, snap: &CacheSnapshot) {
    e.put_len(snap.lines.len());
    for line in &snap.lines {
        e.put_u64(line.tag);
        e.put_u8(u8::from(line.valid) | u8::from(line.dirty) << 1);
        e.put_u64(line.lru);
    }
    e.put_u64(snap.tick);
    e.put_u64(snap.stats.accesses);
    e.put_u64(snap.stats.hits);
    e.put_u64(snap.stats.misses);
    e.put_u64(snap.stats.writebacks);
}

fn decode_cache(d: &mut Decoder<'_>) -> Result<CacheSnapshot, CkptError> {
    let n = d.take_len(17)?;
    let mut lines = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = d.take_u64()?;
        let vd = d.take_u8()?;
        if vd & !0b11 != 0 {
            return Err(CkptError::Malformed("cache line flag bits"));
        }
        let lru = d.take_u64()?;
        lines.push(LineState {
            tag,
            valid: vd & 1 != 0,
            dirty: vd & 2 != 0,
            lru,
        });
    }
    Ok(CacheSnapshot {
        lines,
        tick: d.take_u64()?,
        stats: CacheStats {
            accesses: d.take_u64()?,
            hits: d.take_u64()?,
            misses: d.take_u64()?,
            writebacks: d.take_u64()?,
        },
    })
}

fn encode_tlb(e: &mut Encoder, snap: &TlbSnapshot) {
    e.put_len(snap.entries.len());
    for &(vpn, lru) in &snap.entries {
        e.put_u64(vpn);
        e.put_u64(lru);
    }
    e.put_u64(snap.tick);
    e.put_u64(snap.hits);
    e.put_u64(snap.misses);
}

fn decode_tlb(d: &mut Decoder<'_>) -> Result<TlbSnapshot, CkptError> {
    let n = d.take_len(16)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push((d.take_u64()?, d.take_u64()?));
    }
    Ok(TlbSnapshot {
        entries,
        tick: d.take_u64()?,
        hits: d.take_u64()?,
        misses: d.take_u64()?,
    })
}

fn encode_warm(e: &mut Encoder, warm: &WarmState) {
    encode_cache(e, &warm.hierarchy.l1i);
    encode_cache(e, &warm.hierarchy.l1d);
    encode_cache(e, &warm.hierarchy.l2);
    encode_tlb(e, &warm.hierarchy.itlb);
    encode_tlb(e, &warm.hierarchy.dtlb);
    e.put_u64(warm.hierarchy.prefetches_issued);
    e.put_len(warm.branch.dir_words.len());
    for &w in &warm.branch.dir_words {
        e.put_u64(w);
    }
    e.put_len(warm.branch.btb.len());
    for slot in &warm.branch.btb {
        match slot {
            Some((tag, target)) => {
                e.put_u8(1);
                e.put_u64(*tag);
                e.put_u64(*target);
            }
            None => {
                e.put_u8(0);
                e.put_u64(0);
                e.put_u64(0);
            }
        }
    }
    e.put_len(warm.branch.ras.stack.len());
    for &addr in &warm.branch.ras.stack {
        e.put_u64(addr);
    }
    e.put_u64(warm.branch.ras.top as u64);
    e.put_u64(warm.branch.ras.depth as u64);
    e.put_u64(warm.branch.stats.branch_lookups);
    e.put_u64(warm.branch.stats.branch_mispredicts);
    e.put_u64(warm.branch.stats.indirect_lookups);
    e.put_u64(warm.branch.stats.indirect_mispredicts);
}

fn decode_warm(d: &mut Decoder<'_>) -> Result<WarmState, CkptError> {
    let l1i = decode_cache(d)?;
    let l1d = decode_cache(d)?;
    let l2 = decode_cache(d)?;
    let itlb = decode_tlb(d)?;
    let dtlb = decode_tlb(d)?;
    let prefetches_issued = d.take_u64()?;
    let ndir = d.take_len(8)?;
    let mut dir_words = Vec::with_capacity(ndir);
    for _ in 0..ndir {
        dir_words.push(d.take_u64()?);
    }
    let nbtb = d.take_len(17)?;
    let mut btb = Vec::with_capacity(nbtb);
    for _ in 0..nbtb {
        let present = d.take_u8()?;
        let tag = d.take_u64()?;
        let target = d.take_u64()?;
        btb.push(match present {
            0 => None,
            1 => Some((tag, target)),
            _ => return Err(CkptError::Malformed("BTB presence byte")),
        });
    }
    let nras = d.take_len(8)?;
    let mut stack = Vec::with_capacity(nras);
    for _ in 0..nras {
        stack.push(d.take_u64()?);
    }
    let top = d.take_u64()? as usize;
    let depth = d.take_u64()? as usize;
    if (top >= nras && nras > 0) || depth > nras {
        return Err(CkptError::Malformed("RAS geometry"));
    }
    let stats = BranchStats {
        branch_lookups: d.take_u64()?,
        branch_mispredicts: d.take_u64()?,
        indirect_lookups: d.take_u64()?,
        indirect_mispredicts: d.take_u64()?,
    };
    Ok(WarmState {
        hierarchy: reese_mem::HierarchySnapshot {
            l1i,
            l1d,
            l2,
            itlb,
            dtlb,
            prefetches_issued,
        },
        branch: BranchSnapshot {
            dir_words,
            btb,
            ras: RasSnapshot { stack, top, depth },
            stats,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_isa::assemble;

    const PROG: &str = "  li t0, 25\n  la a0, buf\nloop: sd t0, 0(a0)\n  addi a0, a0, 8\n  \
                        addi t0, t0, -1\n  print t0\n  bnez t0, loop\n  halt\n  .data\nbuf: .space 512\n";

    fn mid_run_emulator() -> (Program, Emulator) {
        let prog = assemble(PROG).unwrap();
        let mut emu = Emulator::new(&prog);
        emu.run(40).unwrap();
        (prog, emu)
    }

    #[test]
    fn capture_restore_is_identity() {
        let (prog, emu) = mid_run_emulator();
        let ck = Checkpoint::capture(&emu, None);
        let restored = ck.restore(&prog);
        assert_eq!(restored.instructions(), emu.instructions());
        assert_eq!(restored.state(), emu.state());
        assert_eq!(restored.output(), emu.output());

        let mut a = emu;
        let mut b = restored;
        let ra = a.run(u64::MAX).unwrap();
        let rb = b.run(u64::MAX).unwrap();
        assert_eq!(ra, rb);
    }

    #[test]
    fn encode_decode_round_trip() {
        let (_, emu) = mid_run_emulator();
        let ck = Checkpoint::capture(&emu, None);
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn encode_decode_round_trip_with_warm_state() {
        let (_, emu) = mid_run_emulator();
        let mut hierarchy = reese_mem::MemHierarchy::new(reese_mem::HierarchyConfig::paper());
        hierarchy.access_inst(0x1000);
        hierarchy.access_data(0x8000, true);
        let mut branch = reese_bpred::BranchUnit::new(reese_bpred::PredictorConfig::default());
        branch.predict_branch(0x1000);
        branch.resolve_branch(0x1000, false, true);
        branch.push_return(0x2008);
        let warm = WarmState {
            hierarchy: hierarchy.export_state(),
            branch: branch.export_state(),
        };
        let ck = Checkpoint::capture(&emu, Some(warm));
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn halted_machine_round_trips() {
        let prog = assemble("  li a0, 7\n  print a0\n  halt\n").unwrap();
        let mut emu = Emulator::new(&prog);
        emu.run(u64::MAX).unwrap();
        let ck = Checkpoint::capture(&emu, None);
        assert_eq!(ck.exit_code, emu.exit_code());
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.restore(&prog).exit_code(), emu.exit_code());
    }

    #[test]
    fn corrupted_crc_is_rejected_not_panicked() {
        let (_, emu) = mid_run_emulator();
        let mut bytes = Checkpoint::capture(&emu, None).encode();
        let n = bytes.len();
        bytes[n / 2] ^= 0x40;
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CkptError::BadCrc { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let (_, emu) = mid_run_emulator();
        let good = Checkpoint::capture(&emu, None).encode();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(Checkpoint::decode(&bad_magic), Err(CkptError::BadMagic));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        // The CRC covers the version field, so refresh the trailer to
        // reach the version check itself.
        let n = bad_version.len();
        let crc = crc32(&bad_version[..n - 4]);
        bad_version[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Checkpoint::decode(&bad_version),
            Err(CkptError::UnsupportedVersion(99))
        );

        assert_eq!(Checkpoint::decode(&good[..6]), Err(CkptError::Truncated));
        assert_eq!(Checkpoint::decode(b""), Err(CkptError::Truncated));
    }

    #[test]
    fn old_version_frames_are_rejected_after_layout_bumps() {
        // v2 added the digest field, v3 the scheme byte; both changed
        // the frame layout, so older blobs must be refused outright
        // rather than misparsed.
        let (_, emu) = mid_run_emulator();
        let good = Checkpoint::capture(&emu, None).encode();
        assert_eq!(
            u16::from_le_bytes([good[4], good[5]]),
            VERSION,
            "current frames carry the bumped version"
        );
        for old in [1u16, 2] {
            let mut bytes = good.clone();
            bytes[4..6].copy_from_slice(&old.to_le_bytes());
            let n = bytes.len();
            let crc = crc32(&bytes[..n - 4]);
            bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                Checkpoint::decode(&bytes),
                Err(CkptError::UnsupportedVersion(old))
            );
        }
    }

    #[test]
    fn scheme_round_trips_and_mismatch_is_rejected() {
        let (_, emu) = mid_run_emulator();
        for scheme in Scheme::ALL {
            let ck = Checkpoint::capture(&emu, None).with_scheme(scheme);
            let bytes = ck.encode();
            let back = Checkpoint::decode(&bytes).unwrap();
            assert_eq!(back.scheme, scheme);
            assert_eq!(
                Checkpoint::decode_for(&bytes, scheme, IsaId::Native).unwrap(),
                ck
            );
            for other in Scheme::ALL.into_iter().filter(|&o| o != scheme) {
                assert_eq!(
                    Checkpoint::decode_for(&bytes, other, IsaId::Native),
                    Err(CkptError::SchemeMismatch {
                        stored: scheme,
                        requested: other,
                    }),
                    "a `{scheme}` snapshot must not restore under `{other}`"
                );
            }
        }
    }

    #[test]
    fn isa_round_trips_per_frontend_and_mismatch_is_rejected() {
        let (_, emu) = mid_run_emulator();
        for isa in IsaId::ALL {
            let ck = Checkpoint::capture(&emu, None).with_isa(isa);
            let bytes = ck.encode();
            let back = Checkpoint::decode(&bytes).unwrap();
            assert_eq!(back.isa, isa);
            assert_eq!(
                Checkpoint::decode_for(&bytes, Scheme::Baseline, isa).unwrap(),
                ck
            );
            for other in IsaId::ALL.into_iter().filter(|&o| o != isa) {
                assert_eq!(
                    Checkpoint::decode_for(&bytes, Scheme::Baseline, other),
                    Err(CkptError::IsaMismatch {
                        stored: isa,
                        requested: other,
                    }),
                    "a `{}` snapshot must not restore under `{}`",
                    isa.name(),
                    other.name()
                );
            }
        }
    }

    #[test]
    fn capture_copies_the_isa_stamp_from_the_program() {
        let src = "  li a7, 93
  li a0, 0
  ecall
";
        let prog = IsaId::Rv32i.frontend().assemble(src).unwrap();
        let mut emu = Emulator::new(&prog);
        emu.step().unwrap();
        let ck = Checkpoint::capture(&emu, None);
        assert_eq!(ck.isa, IsaId::Rv32i);
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(back.isa, IsaId::Rv32i);
        // A restore continues under rv32i semantics: the next li still
        // advances the pc by 4.
        let mut restored = back.restore(&prog);
        restored.step().unwrap();
        assert_eq!(restored.state().pc, prog.entry() + 8);
    }

    #[test]
    fn v3_frames_without_isa_byte_decode_as_native() {
        let (_, emu) = mid_run_emulator();
        let ck = Checkpoint::capture(&emu, None);
        let v4 = ck.encode();
        // Rebuild the frame as a v3 blob: drop the isa byte (offset 549,
        // right after the scheme byte) and stamp version 3.
        let isa_off = 4 + 2 + 2 + 8 + 8 + 4 + 64 * 8 + 8 + 1;
        let mut v3: Vec<u8> = Vec::with_capacity(v4.len() - 1);
        v3.extend_from_slice(&v4[..isa_off]);
        v3.extend_from_slice(&v4[isa_off + 1..v4.len() - 4]);
        v3[4..6].copy_from_slice(&3u16.to_le_bytes());
        let crc = crc32(&v3);
        v3.extend_from_slice(&crc.to_le_bytes());
        let back = Checkpoint::decode(&v3).unwrap();
        assert_eq!(back.isa, IsaId::Native);
        assert_eq!(back, ck);
    }

    #[test]
    fn unknown_isa_id_is_malformed() {
        let (_, emu) = mid_run_emulator();
        let mut bytes = Checkpoint::capture(&emu, None).encode();
        // Isa byte offset: scheme byte at 548, isa right after.
        let off = 4 + 2 + 2 + 8 + 8 + 4 + 64 * 8 + 8 + 1;
        bytes[off] = 0xEE;
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Checkpoint::decode(&bytes),
            Err(CkptError::Malformed("unknown isa id"))
        );
    }

    #[test]
    fn unknown_scheme_id_is_malformed() {
        let (_, emu) = mid_run_emulator();
        let mut bytes = Checkpoint::capture(&emu, None).encode();
        // Scheme byte offset: magic 4 + version 2 + flags 2 +
        // instructions 8 + pc 8 + count 4 + 64 regs + digest 8 = 548.
        let off = 4 + 2 + 2 + 8 + 8 + 4 + 64 * 8 + 8;
        bytes[off] = 0xEE;
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Checkpoint::decode(&bytes),
            Err(CkptError::Malformed("unknown scheme id"))
        );
    }

    #[test]
    fn architectural_digest_catches_corruption_the_crc_misses() {
        // A rewritten frame (valid CRC, altered register) models
        // corruption upstream of serialization — e.g. a buggy tool that
        // re-frames checkpoints. The semantic digest must refuse it.
        let (_, emu) = mid_run_emulator();
        let mut bytes = Checkpoint::capture(&emu, None).encode();
        // regs[1] low byte: magic 4 + version 2 + flags 2 +
        // instructions 8 + pc 8 + count 4 + regs[0] 8 = 36.
        bytes[36] ^= 0xFF;
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Checkpoint::decode(&bytes),
            Err(CkptError::Malformed("architectural digest mismatch"))
        );
    }

    #[test]
    fn truncated_tail_is_rejected() {
        let (_, emu) = mid_run_emulator();
        let bytes = Checkpoint::capture(&emu, None).encode();
        for cut in [bytes.len() - 5, bytes.len() / 2, 13] {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
