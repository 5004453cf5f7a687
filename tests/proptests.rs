//! Randomized-but-deterministic tests over the whole stack: seeded
//! random programs must behave identically on every machine, random
//! faults must always be caught, and the binary encoding must
//! round-trip anything. Every case derives from a fixed SplitMix64
//! stream, so failures reproduce exactly.

use reese::core::{Faults, InjectedFault, ReeseConfig, ReeseSim};
use reese::cpu::Emulator;
use reese::isa::ProgramBuilder;
use reese::isa::{abi, decode, encode, rv32i, Instr, IsaId, Opcode, Reg};
use reese::pipeline::{PipelineConfig, PipelineSim, RunSpec};
use reese::stats::SplitMix64;
use reese::trace::NoopObserver;
use reese::workloads::SyntheticSpec;

fn random_instr_with(op: Opcode, rng: &mut SplitMix64) -> Instr {
    let reg = |rng: &mut SplitMix64| Reg::from_raw((rng.next_u64() & 63) as u8).expect("in range");
    let rd = reg(rng);
    let rs1 = reg(rng);
    let rs2 = reg(rng);
    let imm = i64::from(rng.next_u32() as i32);
    Instr {
        op,
        rd,
        rs1,
        rs2,
        imm,
    }
}

fn random_instr(rng: &mut SplitMix64) -> Instr {
    let op = Opcode::ALL[rng.index(Opcode::ALL.len())];
    random_instr_with(op, rng)
}

/// encode ∘ decode is the identity on canonical instructions.
#[test]
fn encoding_round_trips() {
    let mut rng = SplitMix64::new(0xE0C0DE);
    for _ in 0..256 {
        let instr = random_instr(&mut rng);
        let word = encode(&instr).expect("i32 immediates always encode");
        let back = decode(word).expect("encoder output always decodes");
        assert_eq!(back, instr.canonical());
        // And encoding is stable: re-encoding gives the same word.
        assert_eq!(encode(&back).expect("canonical encodes"), word);
    }
}

/// Every native opcode round-trips through the 8-byte encoder on
/// randomized operands — per-opcode, so a decoder hole on a rarely
/// drawn opcode cannot hide behind uniform sampling.
#[test]
fn every_native_opcode_round_trips() {
    let mut rng = SplitMix64::new(0x0E5A_0001);
    for &op in Opcode::ALL {
        for _ in 0..64 {
            let instr = random_instr_with(op, &mut rng);
            let word = encode(&instr).unwrap_or_else(|e| panic!("{op:?} must encode: {e:?}"));
            let back = decode(word).unwrap_or_else(|e| panic!("{op:?} must decode: {e:?}"));
            assert_eq!(back, instr.canonical(), "{op:?}");
            assert_eq!(encode(&back).expect("canonical encodes"), word, "{op:?}");
        }
    }
}

/// A random instruction with operands drawn from the field ranges the
/// RV32I encoding gives `op`, or `None` for opcodes with no encoding.
fn random_rv32_instr(op: Opcode, rng: &mut SplitMix64) -> Option<Instr> {
    use Opcode::*;
    let x = |rng: &mut SplitMix64| Reg::x((rng.next_u64() & 31) as u8);
    // Signed 12-bit immediate (I- and S-type fields).
    let i12 = |rng: &mut SplitMix64| (rng.next_u64() as i64) % 2048;
    Some(match op {
        // U-type: any 32-bit value with a clear low 12 bits.
        Li | Auipc => {
            let imm = i64::from((rng.next_u32() & 0xFFFF_F000) as i32);
            Instr::rri(op, x(rng), Reg::ZERO, imm)
        }
        // J-type: even 21-bit signed offset.
        Jal => Instr::rri(
            op,
            x(rng),
            Reg::ZERO,
            ((rng.next_u64() as i64) % (1 << 20)) & !1,
        ),
        Jalr => Instr::rri(op, x(rng), x(rng), i12(rng)),
        // B-type: even 13-bit signed offset.
        Beq | Bne | Blt | Bge | Bltu | Bgeu => {
            Instr::branch(op, x(rng), x(rng), ((rng.next_u64() as i64) % 4096) & !1)
        }
        Lb | Lh | Lw | Lbu | Lhu => Instr::load(op, x(rng), x(rng), i12(rng)),
        Sb | Sh | Sw => Instr::store(op, x(rng), x(rng), i12(rng)),
        Slli | Srli | Srai => Instr::rri(op, x(rng), x(rng), (rng.next_u64() & 31) as i64),
        Addi | Slti | Sltiu | Xori | Ori | Andi => Instr::rri(op, x(rng), x(rng), i12(rng)),
        Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And | Mul | Div | Divu | Rem
        | Remu => Instr::rrr(op, x(rng), x(rng), x(rng)),
        Nop => Instr::nop(),
        Ecall | Ebreak => Instr { op, ..Instr::nop() },
        // 64-bit memory ops, FP, and native system/constant forms.
        Lwu | Ld | Sd | Fld | Fsd | Lih | Halt | Print | Fadd | Fsub | Fmul | Fdiv | Fsqrt
        | Fmin | Fmax | Feq | Flt | Fle | Fcvtif | Fcvtfi | Fmvif | Fmvfi => return None,
    })
}

/// Every opcode either round-trips through the 4-byte RV32I encoder on
/// randomized in-range operands, or is rejected as having no encoding —
/// and the split between the two is exhaustive over [`Opcode::ALL`].
#[test]
fn every_rv32i_opcode_round_trips_or_is_rejected() {
    let mut rng = SplitMix64::new(0x0E5A_0002);
    let mut encodable = 0;
    for &op in Opcode::ALL {
        match random_rv32_instr(op, &mut rng) {
            None => {
                let i = random_instr_with(op, &mut rng);
                assert!(
                    rv32i::encode_word(&i).is_err(),
                    "{op:?} has no RV32I encoding and must be rejected"
                );
            }
            Some(_) => {
                encodable += 1;
                for _ in 0..64 {
                    let instr = random_rv32_instr(op, &mut rng).expect("encodable");
                    let word = rv32i::encode_word(&instr)
                        .unwrap_or_else(|e| panic!("{op:?} must encode: {e:?}"));
                    let back = rv32i::decode_word(word)
                        .unwrap_or_else(|e| panic!("{op:?} must decode: {e:?}"));
                    assert_eq!(back, instr.canonical(), "{op:?}");
                    assert_eq!(
                        rv32i::encode_word(&back).expect("canonical encodes"),
                        word,
                        "{op:?}: re-encoding must be stable"
                    );
                }
            }
        }
    }
    // The base set plus the M group: a silent shrink of the encodable
    // set would weaken every other case in this test.
    assert_eq!(encodable, 45, "RV32I+M encodable opcode count");
}

/// One instruction of every encodable opcode, pushed through each ISA
/// frontend: the binary image decodes back to the canonical text, and
/// the disassembly listing carries one correctly-addressed line per
/// instruction.
#[test]
fn frontends_round_trip_and_disassemble_every_opcode() {
    let mut rng = SplitMix64::new(0x0E5A_0003);
    for isa in IsaId::ALL {
        let text: Vec<Instr> = Opcode::ALL
            .iter()
            .filter_map(|&op| match isa {
                IsaId::Native => Some(random_instr_with(op, &mut rng)),
                IsaId::Rv32i => random_rv32_instr(op, &mut rng),
            })
            .collect();
        let frontend = isa.frontend();
        let image = frontend.encode_text(&text).expect("in-range operands");
        assert_eq!(image.len() as u64, text.len() as u64 * isa.inst_size());
        let decoded = frontend
            .decode_text(&image)
            .expect("encoder output decodes");
        let canonical: Vec<Instr> = text.iter().map(|i| i.canonical()).collect();
        assert_eq!(decoded, canonical, "{isa}: binary round trip");
        let listing = frontend.disassemble_text(&text, 0x1000);
        assert_eq!(listing.lines().count(), text.len(), "{isa}");
        for (idx, line) in listing.lines().enumerate() {
            let addr = 0x1000 + idx as u64 * isa.inst_size();
            assert!(
                line.starts_with(&format!("{addr:#010x}:")),
                "{isa}: line {idx} must carry its address: {line}"
            );
        }
    }
}

/// A random but always-terminating program: straight-line ALU/memory
/// ops over a small scratch buffer, wrapped in a bounded countdown loop.
fn random_program(rng: &mut SplitMix64) -> reese::isa::Program {
    SyntheticSpec {
        body_len: 4 + rng.index(36),
        iterations: 1 + rng.next_u32() % 7,
        seed: rng.next_u64(),
        ..SyntheticSpec::balanced()
    }
    .build()
}

/// Random programs: pipeline == emulator == REESE, architecturally.
#[test]
fn machines_agree_on_random_programs() {
    let mut rng = SplitMix64::new(0xA62EE);
    for _ in 0..24 {
        let program = random_program(&mut rng);
        let emu = Emulator::new(&program).run(u64::MAX).expect("halts");
        let base = PipelineSim::new(PipelineConfig::starting())
            .run(&program)
            .expect("runs");
        let reese = ReeseSim::new(ReeseConfig::starting())
            .run(&program)
            .expect("runs");
        assert_eq!(base.state_digest, emu.state_digest);
        assert_eq!(reese.state_digest, emu.state_digest);
        assert_eq!(&base.output, &emu.output);
        assert_eq!(&reese.output, &emu.output);
        assert_eq!(base.committed_instructions(), emu.instructions);
        assert_eq!(reese.committed_instructions(), emu.instructions);
    }
}

/// Any single result-latch bit flip anywhere in a random program is
/// detected, and the machine recovers to the clean state.
#[test]
fn any_result_fault_is_detected() {
    let mut rng = SplitMix64::new(0xFA_0175);
    for _ in 0..24 {
        let program = SyntheticSpec {
            seed: rng.next_u64(),
            iterations: 4,
            ..SyntheticSpec::balanced()
        }
        .build();
        let dynlen = Emulator::new(&program)
            .run(u64::MAX)
            .expect("halts")
            .instructions;
        let seq = rng.range_u64(0, dynlen);
        let bit = (rng.next_u64() & 63) as u8;
        let fault = if rng.chance(0.5) {
            InjectedFault::primary(seq, bit)
        } else {
            InjectedFault::redundant(seq, bit)
        };
        let sim = ReeseSim::new(ReeseConfig::starting());
        let clean = sim.run(&program).expect("clean");
        let run = sim
            .simulate(
                RunSpec::new(&program).faults(Faults::Latch(&[fault])),
                &mut NoopObserver,
            )
            .expect("faulted");
        assert_eq!(run.stats.detections, 1);
        assert_eq!(run.detections[0].seq, seq);
        assert_eq!(run.state_digest, clean.state_digest);
    }
}

/// The R-stream Queue commits in program order: outputs of print
/// instructions appear in the same order as a fully sequential run,
/// whatever the interleaving of the two streams.
#[test]
fn commit_order_is_program_order() {
    for n in 2u32..20 {
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        b.li(abi::T0, i64::from(n));
        b.li(abi::T1, 0);
        b.bind(top);
        b.addi(abi::T1, abi::T1, 1);
        b.print(abi::T1);
        b.addi(abi::T0, abi::T0, -1);
        b.bnez(abi::T0, top);
        b.li(abi::A0, 0);
        b.halt();
        let program = b.build().expect("builds");
        let run = ReeseSim::new(ReeseConfig::starting())
            .run(&program)
            .expect("runs");
        let expected: Vec<i64> = (1..=i64::from(n)).collect();
        assert_eq!(run.output, expected);
    }
}
