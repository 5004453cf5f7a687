//! Soft-error injection: flip bits in instruction results and watch
//! REESE catch them, recover, and — for a sticky fault — stop the
//! machine.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use reese::ckpt::Scheme;
use reese::core::{Faults, InjectedFault, ReeseConfig, ReeseError, ReeseSim};
use reese::faults::{Campaign, FaultMix};
use reese::pipeline::RunSpec;
use reese::trace::NoopObserver;
use reese::workloads::Kernel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = Kernel::Lisp.build(1);
    let sim = ReeseSim::new(ReeseConfig::starting());

    // 1. A clean run for reference.
    let clean = sim.run(&program)?;
    println!(
        "clean run: {} instructions in {} cycles (IPC {:.3})",
        clean.committed_instructions(),
        clean.cycles(),
        clean.ipc()
    );

    // 2. One transient bit flip in the primary stream's result latch.
    let faults = [InjectedFault::primary(1_000, 13)];
    let hit = sim.simulate(
        RunSpec::new(&program).faults(Faults::Latch(&faults)),
        &mut NoopObserver,
    )?;
    let d = hit.detections[0];
    println!(
        "transient fault on instruction #{} at pc {:#x}: detected after {} cycles, \
         recovery cost {} cycles, architectural state clean: {}",
        d.seq,
        d.pc,
        d.latency(),
        hit.cycles() - clean.cycles(),
        hit.state_digest == clean.state_digest
    );

    // 3. A sticky (permanent) fault: REESE retries once, then reports.
    let sticky = [InjectedFault::permanent(1_000, 13)];
    match sim.simulate(
        RunSpec::new(&program).faults(Faults::Latch(&sticky)),
        &mut NoopObserver,
    ) {
        Err(ReeseError::PermanentFault { seq, pc }) => {
            println!("permanent fault on instruction #{seq} at pc {pc:#x}: machine stopped, user notified");
        }
        other => panic!("expected a permanent-fault report, got {other:?}"),
    }

    // 4. A Monte-Carlo campaign over covered and uncovered fault classes.
    let report = Campaign::new(ReeseConfig::starting(), FaultMix::broad())
        .trials(40)
        .seed(2026)
        .run(&program)?;
    println!("\ncampaign over a broad fault mix:\n{report}");

    // 5. The same campaign machinery measures every registered
    //    detection backend — the campaign builds the scheme from the
    //    registry and scores identical fault draws against each one.
    println!("same fault draws, every registered scheme:");
    for scheme in Scheme::ALL {
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
            .scheme(scheme)
            .trials(40)
            .seed(2026)
            .run(&program)?;
        println!(
            "  {:<9} {:>5.1}% coverage, mean detection latency {:.1} cycles — {}",
            scheme.name(),
            report.coverage() * 100.0,
            report.mean_detection_latency(),
            scheme.description()
        );
    }
    Ok(())
}
