//! Timing-model invariants of the baseline pipeline, checked over both
//! hand-built corner cases and seeded randomly generated programs.

use reese_cpu::Emulator;
use reese_isa::{abi::*, assemble, Program, ProgramBuilder};
use reese_pipeline::{PipelineConfig, PipelineSim};

fn straight_line(n: usize) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(T0, 1);
    for _ in 0..n {
        b.addi(T0, T0, 1);
    }
    b.li(A0, 0);
    b.halt();
    b.build().expect("builds")
}

#[test]
fn cycles_lower_bound_width() {
    // N committed instructions on a W-wide machine need ≥ N/W cycles.
    let prog = straight_line(400);
    let r = PipelineSim::new(PipelineConfig::starting())
        .run(&prog)
        .expect("runs");
    let n = r.committed_instructions();
    assert!(
        r.cycles() >= n / 8,
        "{} cycles for {} instructions",
        r.cycles(),
        n
    );
}

#[test]
fn dependent_chain_lower_bound_latency() {
    // A chain of K dependent multiplies cannot finish before 3K cycles.
    let mut b = ProgramBuilder::new();
    b.li(T0, 3);
    for _ in 0..50 {
        b.mul(T0, T0, T0);
    }
    b.li(A0, 0);
    b.halt();
    let r = PipelineSim::new(PipelineConfig::starting())
        .run(&b.build().expect("builds"))
        .expect("runs");
    assert!(
        r.cycles() >= 150,
        "50 dependent 3-cycle multiplies in {} cycles",
        r.cycles()
    );
}

#[test]
fn smaller_ruu_never_faster() {
    let prog = reese_workload();
    let small = PipelineSim::new(PipelineConfig::starting().with_ruu(8).with_lsq(4))
        .run(&prog)
        .expect("runs");
    let big = PipelineSim::new(PipelineConfig::starting().with_ruu(64).with_lsq(32))
        .run(&prog)
        .expect("runs");
    assert!(
        small.cycles() >= big.cycles(),
        "shrinking the window cannot speed things up"
    );
}

#[test]
fn fewer_alus_never_faster() {
    let prog = reese_workload();
    let mut one_alu = PipelineConfig::starting();
    one_alu.fu.int_alu = 1;
    let slow = PipelineSim::new(one_alu).run(&prog).expect("runs");
    let fast = PipelineSim::new(PipelineConfig::starting().with_extra_int_alus(4))
        .run(&prog)
        .expect("runs");
    assert!(slow.cycles() >= fast.cycles());
}

#[test]
fn mispredictions_cost_cycles() {
    // The branch follows the low bit of an xorshift64 generator: no
    // history pattern predicts it, so gshare misses about half the time
    // and every miss pays the redirect penalty.
    let prog = assemble(
        "  li s0, 12345\n  li t0, 400\n\
         loop: slli t1, s0, 13\n  xor s0, s0, t1\n  srli t1, s0, 7\n  xor s0, s0, t1\n\
         \n  slli t1, s0, 17\n  xor s0, s0, t1\n  andi t2, s0, 1\n  beqz t2, skip\n\
         \n  addi t3, t3, 1\n\
         skip: addi t0, t0, -1\n  bnez t0, loop\n  print t3\n  halt\n",
    )
    .unwrap();
    let run = |penalty: u32| {
        let mut cfg = PipelineConfig::starting();
        cfg.mispredict_penalty = penalty;
        PipelineSim::new(cfg).run(&prog).expect("runs")
    };
    let (cheap, dear) = (run(0), run(20));
    let misses = dear.stats.branch.branch_mispredicts;
    assert!(
        dear.stats.branch.mispredict_rate() > 0.2,
        "gshare cannot learn a pseudo-random branch: {} of {} lookups missed",
        misses,
        dear.stats.branch.branch_lookups
    );
    assert!(
        dear.cycles() > cheap.cycles() + 10 * misses,
        "{misses} mispredictions at 20 extra cycles each must cost real cycles ({} vs {})",
        dear.cycles(),
        cheap.cycles()
    );
    assert_eq!(dear.output, cheap.output);
}

fn reese_workload() -> Program {
    assemble(
        "  la a0, buf\n  li s0, 300\n\
         loop: andi t4, s0, 127\n  slli t2, t4, 3\n  add t3, a0, t2\n  ld t0, 0(t3)\n\
         \n  addi t0, t0, 3\n  xor t5, t5, t0\n  sd t0, 0(t3)\n\
         \n  addi s0, s0, -1\n  bnez s0, loop\n  print t5\n  halt\n\
         \n  .data\nbuf: .space 1024\n",
    )
    .unwrap()
}

/// On random programs the pipeline still matches the emulator and
/// respects the width bound.
#[test]
fn random_programs_sound() {
    let mut rng = reese_stats::SplitMix64::new(30);
    for _ in 0..16 {
        let prog = reese_workloads::SyntheticSpec {
            iterations: 1 + rng.next_u32() % 5,
            seed: rng.next_u64(),
            ..reese_workloads::SyntheticSpec::balanced()
        }
        .build();
        let emu = Emulator::new(&prog).run(u64::MAX).expect("halts");
        let sim = PipelineSim::new(PipelineConfig::starting())
            .run(&prog)
            .expect("runs");
        assert_eq!(sim.state_digest, emu.state_digest);
        assert!(sim.cycles() >= emu.instructions / 8);
        assert!(sim.stats.issued >= sim.stats.committed);
        assert!(sim.stats.fetched >= sim.stats.committed);
    }
}

/// Adding cache latency monotonicity: a slower main memory never
/// produces a faster run.
#[test]
fn slower_memory_never_faster() {
    let mut rng = reese_stats::SplitMix64::new(31);
    for _ in 0..16 {
        let prog = reese_workloads::SyntheticSpec {
            iterations: 3,
            seed: rng.next_u64(),
            ..reese_workloads::SyntheticSpec::memory_heavy()
        }
        .build();
        let mut fast_mem = PipelineConfig::starting();
        fast_mem.hierarchy.mem_latency = 5;
        let mut slow_mem = PipelineConfig::starting();
        slow_mem.hierarchy.mem_latency = 200;
        let fast = PipelineSim::new(fast_mem).run(&prog).expect("runs");
        let slow = PipelineSim::new(slow_mem).run(&prog).expect("runs");
        assert!(slow.cycles() >= fast.cycles());
    }
}
