//! Quickstart: assemble a program, run it on the baseline machine and
//! on REESE, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use reese::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A little program in the mini ISA: sum the first 1000 integers.
    let program = assemble(
        "        li   t0, 0          # sum\n\
         \n        li   t1, 1000       # n\n\
         loop:    add  t0, t0, t1\n\
         \n        addi t1, t1, -1\n\
         \n        bnez t1, loop\n\
         \n        print t0\n\
         \n        mv   a0, x0\n\
         \n        halt\n",
    )?;

    // Golden functional run.
    let emu = Emulator::new(&program).run(1_000_000)?;
    println!(
        "functional model: {} instructions, output {:?}",
        emu.instructions, emu.output
    );

    // The paper's Table 1 baseline machine.
    let base = PipelineSim::new(PipelineConfig::starting()).run(&program)?;
    println!(
        "baseline:  {} cycles, IPC {:.3}, output {:?}",
        base.cycles(),
        base.ipc(),
        base.output
    );

    // REESE: every instruction executed twice, results compared before
    // commit — with two spare integer ALUs to absorb the extra work.
    let reese = ReeseSim::new(ReeseConfig::starting().with_spare_int_alus(2)).run(&program)?;
    println!(
        "REESE+2ALU: {} cycles, IPC {:.3}, {} comparisons, output {:?}",
        reese.cycles(),
        reese.ipc(),
        reese.stats.comparisons,
        reese.output
    );

    assert_eq!(base.output, reese.output);
    assert_eq!(base.state_digest, reese.state_digest);
    println!(
        "time-redundancy overhead: {:+.1}% cycles",
        (reese.cycles() as f64 / base.cycles() as f64 - 1.0) * 100.0
    );

    // One run spec drives every machine: a timed region from a warm
    // checkpoint 1000 instructions in, with a transient fault past the
    // skip point, on the dispatch-duplication machine.
    let ck = reese::ckpt::checkpoints_at(&program, &[1_000], &PipelineConfig::starting())?
        .pop()
        .expect("one boundary");
    let faults = [InjectedFault::primary(1_500, 4)];
    let spec = RunSpec::restored(ck.restore(&program), ck.warm.as_ref())
        .limit(1_000)
        .faults(&faults[..]);
    let region = DuplexSim::new(PipelineConfig::starting()).simulate(spec, &mut NoopObserver)?;
    println!(
        "duplex after a 1000-instruction skip: {} instructions in {} cycles, {} detection(s)",
        region.committed_instructions(),
        region.cycles(),
        region.detections.len()
    );

    // Every registered detection scheme, through the one trait the
    // fault campaign drives: prepare (a no-op for hardware schemes, a
    // duplicating rewrite for the software-only one), then a clean run.
    println!("\nall registered schemes on the same program:");
    let config = ReeseConfig::starting();
    for scheme in Scheme::ALL {
        let backend = reese::faults::schemes::build(scheme, &config);
        let prepared = backend.prepare(&program)?;
        let run = backend.run_limit(&prepared, u64::MAX)?;
        assert_eq!(run.output, base.output, "{scheme} changed the program");
        println!(
            "  {:<9} {:>6} cycles ({:+5.1}%), {:>3} static instructions — {}",
            scheme.name(),
            run.cycles,
            (run.cycles as f64 / base.cycles() as f64 - 1.0) * 100.0,
            prepared.len(),
            scheme.description()
        );
    }
    Ok(())
}
