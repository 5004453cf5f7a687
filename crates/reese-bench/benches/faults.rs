//! Fault-injection campaign benches: the detection-coverage experiment
//! at reduced trial counts.

use reese_core::{Faults, InjectedFault, ReeseConfig, ReeseSim};
use reese_faults::{Campaign, FaultMix};
use reese_pipeline::RunSpec;
use reese_stats::bench::Criterion;
use reese_stats::{criterion_group, criterion_main};
use reese_trace::NoopObserver;
use reese_workloads::Kernel;
use std::hint::black_box;

fn bench_faults(c: &mut Criterion) {
    let prog = Kernel::Compiler.build(1);
    let mut g = c.benchmark_group("faults");
    g.sample_size(10);
    g.bench_function("campaign_result_errors_10_trials", |b| {
        let campaign =
            Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only()).trials(10);
        b.iter(|| black_box(campaign.run(&prog).expect("campaign runs")));
    });
    g.bench_function("single_detection_and_recovery", |b| {
        let sim = ReeseSim::new(ReeseConfig::starting());
        let faults = [InjectedFault::primary(500, 7)];
        b.iter(|| {
            black_box(
                sim.simulate(
                    RunSpec::new(&prog).faults(Faults::Latch(&faults)),
                    &mut NoopObserver,
                )
                .expect("runs"),
            )
        });
    });
    g.finish();
}

criterion_group!(benches, bench_faults);
criterion_main!(benches);
