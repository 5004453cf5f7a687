//! The registry of committed results: one named report per
//! `results/NAME.txt`, which the `results` binary regenerates.
//!
//! A report's text holds simulated numbers only, so it is identical
//! for every worker count and byte-reproducible on any host; host time
//! (sweep throughput, trials/s, wall time) goes to stderr.

use crate::{column_means, env_or, ipc_grid, paper_machines, Experiment, Machine, Variant};
use reese_ckpt::Scheme;
use reese_core::{DurationFault, Faults, ReeseConfig, ReeseSim};
use reese_faults::{Campaign, FaultClass, FaultMix};
use reese_isa::FuClass;
use reese_mem::CacheConfig;
use reese_pipeline::{FuCounts, PipelineConfig, RunSpec};
use reese_stats::{mean, percent_delta, SplitMix64, Table};
use reese_trace::NoopObserver;
use reese_workloads::{measure_mix, Kernel, Suite};
use std::time::Instant;

/// How a report renders, by what it simulates.
#[derive(Debug, Clone, Copy)]
pub enum Input {
    /// IPC cells over the shared suite, fanned out on the given number
    /// of workers.
    Suite(fn(&Suite, usize) -> String),
    /// Its own programs on the given number of workers: the
    /// configuration tables and the fault experiments.
    Own(fn(usize) -> String),
}

/// One committed result.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// The report's name, and its file's stem under `results/`.
    pub name: &'static str,
    /// How it renders.
    pub input: Input,
}

impl Report {
    /// Renders the report's text, running its cells on `jobs` workers.
    pub fn render(&self, suite: &Suite, jobs: usize) -> String {
        match self.input {
            Input::Suite(render) => render(suite, jobs),
            Input::Own(render) => render(jobs),
        }
    }
}

/// Every committed result, in the paper's order, then the extensions.
pub const REPORTS: [Report; 13] = [
    Report {
        name: "table1",
        input: Input::Own(|_| table1()),
    },
    Report {
        name: "table2",
        input: Input::Own(|_| table2()),
    },
    Report {
        name: "fig2",
        input: Input::Suite(|suite, jobs| figure(0, suite, jobs)),
    },
    Report {
        name: "fig3",
        input: Input::Suite(|suite, jobs| figure(1, suite, jobs)),
    },
    Report {
        name: "fig4",
        input: Input::Suite(|suite, jobs| figure(2, suite, jobs)),
    },
    Report {
        name: "fig5",
        input: Input::Suite(|suite, jobs| figure(3, suite, jobs)),
    },
    Report {
        name: "fig6",
        input: Input::Suite(fig6),
    },
    Report {
        name: "fig7",
        input: Input::Suite(fig7),
    },
    Report {
        name: "fault_coverage",
        input: Input::Own(fault_coverage),
    },
    Report {
        name: "separation",
        input: Input::Own(|_| separation()),
    },
    Report {
        name: "partial_dup",
        input: Input::Suite(partial_dup),
    },
    Report {
        name: "schemes",
        input: Input::Suite(schemes),
    },
    Report {
        name: "ablation_report",
        input: Input::Suite(ablation_report),
    },
];

/// The reports called `names`, in that order, or every report when
/// `names` is empty.
///
/// # Errors
///
/// An unknown name, with the list of valid ones.
pub fn select(names: &[String]) -> Result<Vec<Report>, String> {
    if names.is_empty() {
        return Ok(REPORTS.to_vec());
    }
    names
        .iter()
        .map(|name| {
            REPORTS
                .iter()
                .find(|r| r.name == name)
                .copied()
                .ok_or_else(|| {
                    let valid: Vec<&str> = REPORTS.iter().map(|r| r.name).collect();
                    format!("unknown report '{name}'; valid: {}", valid.join(", "))
                })
        })
        .collect()
}

/// The suite-average IPC of each machine, from one [`ipc_grid`] sweep.
fn averages(suite: &Suite, machines: &[Machine], jobs: usize) -> Vec<f64> {
    column_means(&ipc_grid(suite, machines, jobs))
}

/// `value`'s signed percentage gap to `base`.
fn gap(base: f64, value: f64) -> String {
    format!("{:+.1}%", percent_delta(base, value))
}

/// Table 1: the simulator's starting configuration.
fn table1() -> String {
    let c = PipelineConfig::starting();
    let h = &c.hierarchy;
    let cache = |c: &CacheConfig| {
        format!(
            "{} KB, {}-way, {}-cycle hit time",
            c.size_bytes / 1024,
            c.assoc,
            c.hit_latency
        )
    };
    let mut t = Table::new(vec!["parameter", "value"]);
    let rows: Vec<(&str, String)> = vec![
        ("Fetch Queue Size", c.fetch_queue_size.to_string()),
        ("Max IPC for Other Pipeline Stages", c.width.to_string()),
        ("RUU Size", c.ruu_size.to_string()),
        ("LSQ Size", c.lsq_size.to_string()),
        ("Registers", "32 GP, 32 FP".to_string()),
        (
            "Functional Units",
            format!(
                "{} IntAdd, {} IntM/D, {} FpAdd, {} FpM/D",
                c.fu.int_alu, c.fu.int_muldiv, c.fu.fp_alu, c.fu.fp_muldiv
            ),
        ),
        ("Memory Ports", c.fu.mem_ports.to_string()),
        ("L1 Data Cache", cache(&h.l1d)),
        ("L2 Data Cache", cache(&h.l2)),
        ("L1 Inst. Cache", cache(&h.l1i)),
        ("L2 Inst. Cache", "Shared w/ D-cache".to_string()),
        (
            "Branch Predictor",
            "gshare, from [26] (McFarling)".to_string(),
        ),
        ("Main Memory Latency", format!("{} cycles", h.mem_latency)),
    ];
    for (k, v) in rows {
        t.row(vec![k.to_string(), v]);
    }
    format!("Table 1 — General simulator options (the starting configuration)\n{t}\n")
}

/// Table 2: benchmark programs and inputs, with the kernels standing in.
fn table2() -> String {
    let mut t = Table::new(vec![
        "benchmark",
        "paper input",
        "our kernel",
        "dynamic mix (at scale 2)",
    ]);
    for k in Kernel::ALL {
        let mix = measure_mix(&k.build(2), 400_000);
        t.row(vec![
            k.paper_benchmark().to_string(),
            k.paper_input().to_string(),
            k.name().to_string(),
            format!(
                "{:.0}% mem, {:.0}% branch, {:.1}% mul/div",
                mix.mem_fraction() * 100.0,
                mix.branch_fraction() * 100.0,
                mix.muldiv_fraction() * 100.0
            ),
        ]);
    }
    format!("Table 2 — Benchmark programs and inputs (SPEC95 integer → synthetic kernels)\n{t}\n")
}

/// Figures 2–5: every benchmark on the `i`th of [`paper_machines`].
/// Figure 5 drops "+2 ALU +1 Mult", as the paper does (its data
/// matched "+2 ALU").
fn figure(i: usize, suite: &Suite, jobs: usize) -> String {
    const TITLES: [&str; 4] = [
        "Figure 2 — Initial comparison between REESE and baseline (Table 1 starting config)",
        "Figure 3 — Comparing REESE and baseline: RUU size = 32 and LSQ size = 16",
        "Figure 4 — IPC for 16-wide datapath",
        "Figure 5 — IPC for additional memory ports (4 ports, 16-wide, RUU=32/LSQ=16)",
    ];
    let (_, base) = paper_machines().swap_remove(i);
    let variants = if i == 3 {
        &Variant::PAPER[..4]
    } else {
        &Variant::PAPER[..]
    };
    let r = Experiment::new(TITLES[i], base)
        .variants(variants)
        .jobs(jobs)
        .run_on(suite);
    format!("{r}\n")
}

/// Figures 6 and 7: the suite-average IPC of baseline, REESE and
/// REESE + 2 spare ALUs on each machine, with the two REESE columns'
/// gaps to the baseline (also returned, column by column).
fn summary(
    suite: &Suite,
    jobs: usize,
    machines: &[(&str, PipelineConfig)],
    spare: &str,
) -> (Table, [Vec<f64>; 2]) {
    let variants = [Variant::PAPER[0], Variant::PAPER[1], Variant::PAPER[3]];
    let cells: Vec<Machine> = machines
        .iter()
        .flat_map(|(_, base)| variants.iter().map(|v| v.machine(base)))
        .collect();
    let mut t = Table::new(vec!["config", "baseline", "REESE", "gap", spare, "gap"]);
    let mut gaps = [Vec::new(), Vec::new()];
    for ((name, _), a) in machines.iter().zip(averages(suite, &cells, jobs).chunks(3)) {
        gaps[0].push(percent_delta(a[0], a[1]));
        gaps[1].push(percent_delta(a[0], a[2]));
        t.row(vec![
            name.to_string(),
            format!("{:.3}", a[0]),
            format!("{:.3}", a[1]),
            gap(a[0], a[1]),
            format!("{:.3}", a[2]),
            gap(a[0], a[2]),
        ]);
    }
    (t, gaps)
}

/// Figure 6: summary of results over the four machines of Figures 2–5.
fn fig6(suite: &Suite, jobs: usize) -> String {
    let (t, [gaps, gaps_spare]) = summary(suite, jobs, &paper_machines(), "R+2ALU");
    format!(
        "Figure 6 — Summary of results (average IPC across the six benchmarks)\n{t}\n\
         average REESE gap across configs: {:+.1}% (paper: -14.0%), with +2 spare ALUs: {:+.1}% (paper: -8.0%)\n",
        mean(&gaps),
        mean(&gaps_spare),
    )
}

/// Figure 7: REESE vs baseline for even more hardware. Series order
/// matches the paper; "extra FUs" doubles every functional-unit class
/// (8 IntALU, 4 IntM/D, …).
fn fig7(suite: &Suite, jobs: usize) -> String {
    let more_fus = FuCounts {
        int_alu: 8,
        int_muldiv: 4,
        fp_alu: 8,
        fp_muldiv: 4,
        mem_ports: 2,
    };
    let ruu = |n| PipelineConfig::starting().with_ruu(n).with_lsq(n / 2);
    let machines = [
        ("RUU=64", ruu(64)),
        ("RUU=64 + extra FUs", ruu(64).with_fu(more_fus)),
        ("RUU=256", ruu(256)),
        ("RUU=256 + extra FUs", ruu(256).with_fu(more_fus)),
    ];
    let (t, _) = summary(suite, jobs, &machines, "REESE+2ALU");
    format!(
        "Figure 7 — REESE vs. baseline for even more hardware\n{t}\n\
         paper: the gap stays ~15% when only the RUU grows, and drops to ~1.5% once extra FUs are present\n"
    )
}

/// Detection coverage (extension): measures what the paper argues
/// analytically in §4.2 — result errors in either stream are detected
/// by the P/R comparison; post-compare, cache-cell, and
/// pipeline-control upsets are not (the campaign scores those classes
/// undetected without simulating them).
fn fault_coverage(jobs: usize) -> String {
    let trials: usize = env_or("REESE_FAULT_TRIALS", 60);
    let mut t = Table::new(vec![
        "kernel",
        "coverage",
        "p-result",
        "r-result",
        "uncovered classes",
        "latency (cyc)",
        "recovery (cyc)",
    ]);
    let wall = Instant::now();
    let mut total_trials = 0;
    for k in Kernel::ALL {
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::broad())
            .trials(trials)
            .seed(0xC0FE + k as u64)
            .jobs(jobs)
            .run(&k.build(1))
            .expect("campaign runs");
        let (pd, pt) = report.by_class(FaultClass::PrimaryResult);
        let (rd, rt) = report.by_class(FaultClass::RedundantResult);
        let uncovered: u64 = [
            FaultClass::PostCompare,
            FaultClass::CacheCell,
            FaultClass::PipelineControl,
        ]
        .iter()
        .map(|&c| report.by_class(c).1)
        .sum();
        if let Some(s) = &report.throughput {
            eprintln!("  {k}: {:.0} trials/s", s.items_per_sec());
        }
        total_trials += report.trials();
        t.row(vec![
            k.name().to_string(),
            format!("{:.1}%", report.coverage() * 100.0),
            format!("{pd}/{pt}"),
            format!("{rd}/{rt}"),
            format!("0/{uncovered}"),
            format!("{:.1}", report.mean_detection_latency()),
            format!("{:.1}", report.mean_recovery_cycles()),
        ]);
        assert!(
            report.all_states_clean(),
            "recovery must preserve architectural state"
        );
    }
    let elapsed = wall.elapsed().as_secs_f64();
    eprintln!(
        "  {total_trials} trials on {jobs} worker(s) in {elapsed:.2}s ({:.0} trials/s overall)",
        total_trials as f64 / elapsed.max(1e-9),
    );
    format!(
        "Fault-injection coverage (broad mix: result errors + uncovered classes), {trials} trials/kernel\n{t}\n\
         expected: 100% of result errors detected; post-compare/cache/control classes undetected by design (§4.2), scored without simulation\n"
    )
}

/// The §2 time-separation experiment (extension): sweep the fault
/// duration Δt and measure how often a disturbance that corrupts
/// results escapes the P/R comparison because *both* executions fell
/// inside the window. The paper argues that "detection of the soft
/// error is only guaranteed if the P-stream and R-stream executions
/// are separated by a time greater than Δt"; this measures the
/// machine's own P→R separation distribution and shows silent escapes
/// appearing exactly when Δt crosses into it. It runs [`ReeseSim`]
/// directly: duration faults and the separation histogram are not
/// part of the scheme interface.
fn separation() -> String {
    let trials: u64 = env_or("REESE_FAULT_TRIALS", 30);
    let prog = Kernel::Compiler.build(1);
    let sim = ReeseSim::new(ReeseConfig::starting());

    let clean = sim.run(&prog).expect("clean run");
    let sep = &clean.stats.pr_separation;
    let total_cycles = clean.cycles();
    let mut t = Table::new(vec![
        "Δt (cycles)",
        "affected runs",
        "corruptions (P/R)",
        "detected",
        "silent escapes",
        "escape rate",
    ]);
    for dt in [1u64, 2, 4, 8, 16, 32, 64, 128] {
        let mut rng = SplitMix64::new(0x5E9A + dt);
        let (mut affected, mut p_c, mut r_c, mut detected, mut silent) = (0u64, 0, 0, 0u64, 0);
        for _ in 0..trials {
            let start = rng.range_u64(total_cycles / 10, total_cycles * 9 / 10);
            let fault = DurationFault {
                start_cycle: start,
                duration: dt,
                class: FuClass::IntAlu,
                bit: 9,
            };
            let spec = RunSpec::new(&prog).faults(Faults::Duration(fault));
            match sim.simulate(spec, &mut NoopObserver) {
                Ok(r) => {
                    let report = r.duration.expect("a duration run reports");
                    if report.affected() {
                        affected += 1;
                    }
                    p_c += report.p_corrupted;
                    r_c += report.r_corrupted;
                    detected += r.stats.detections;
                    silent += report.silent_both;
                }
                Err(_) => {
                    // The disturbance outlasted the retry: reported as a
                    // permanent fault. Count it as detected (the machine
                    // stopped and notified).
                    affected += 1;
                    detected += 1;
                }
            }
        }
        let corruptions = p_c + r_c;
        t.row(vec![
            dt.to_string(),
            format!("{affected}/{trials}"),
            format!("{p_c}/{r_c}"),
            detected.to_string(),
            silent.to_string(),
            if corruptions == 0 {
                "-".into()
            } else {
                format!("{:.0}%", 100.0 * silent as f64 * 2.0 / corruptions as f64)
            },
        ]);
    }
    format!(
        "P→R completion separation on this machine: mean {:.1} cycles, max {} (n = {})\n\n\
         Duration-fault sweep ({trials} trials per Δt, random window placement):\n{t}\n\
         expected: short disturbances (Δt ≪ P→R separation) are always caught; escapes grow once Δt \
         reaches the separation distribution — §2's guarantee, measured\n",
        sep.mean(),
        sep.max(),
        sep.samples(),
    )
}

/// Partial duplication (the paper's §7 future work): re-execute one in
/// k instructions, trading coverage for time. The coverage column is
/// the analytic share of result errors on a re-executed instruction,
/// not a measurement.
fn partial_dup(suite: &Suite, jobs: usize) -> String {
    let periods = [1u64, 2, 4, 8];
    let base = ReeseConfig::starting();
    let mut machines = vec![(Scheme::Baseline, base.clone())];
    machines.extend(periods.map(|k| (Scheme::Reese, base.clone().with_duplication_period(k))));
    let avgs = averages(suite, &machines, jobs);
    let mut t = Table::new(vec![
        "duplication",
        "avg IPC",
        "gap vs baseline",
        "coverage bound (analytic)",
    ]);
    t.row(vec![
        "baseline (none)".into(),
        format!("{:.3}", avgs[0]),
        "+0.0%".into(),
        "0%".into(),
    ]);
    for (k, &ipc) in periods.iter().zip(&avgs[1..]) {
        t.row(vec![
            format!("1 in {k}"),
            format!("{ipc:.3}"),
            gap(avgs[0], ipc),
            format!("{:.0}%", 100.0 / *k as f64),
        ]);
    }
    format!(
        "Partial duplication (§7 future work): re-execute 1 of every k instructions\n{t}\n\
         coverage bound: 1/k, the share of instructions re-executed (analytic, not measured)\n"
    )
}

/// The RUU=32/LSQ=16 machine of Figure 3, on which the scheme
/// comparison and the ablations run.
fn ruu32() -> ReeseConfig {
    ReeseConfig::over(PipelineConfig::starting().with_ruu(32).with_lsq(16))
}

/// Scheme comparison (the paper's §3 argument): plain baseline,
/// Franklin-style dispatch duplication, and REESE with and without
/// spare elements, on the same machine.
fn schemes(suite: &Suite, jobs: usize) -> String {
    let spare = ruu32().with_spare_int_alus(2);
    let rows = [
        ("baseline (no redundancy)", (Scheme::Baseline, ruu32())),
        (
            "dispatch duplication (Franklin [24])",
            (Scheme::Duplex, ruu32()),
        ),
        ("REESE", (Scheme::Reese, ruu32())),
        ("REESE + 2 spare ALUs", (Scheme::Reese, spare.clone())),
        (
            "REESE + early RUU removal + 2 ALUs",
            (Scheme::Reese, spare.with_early_removal(true)),
        ),
    ];
    let machines: Vec<Machine> = rows.iter().map(|(_, m)| m.clone()).collect();
    let avgs = averages(suite, &machines, jobs);
    let mut t = Table::new(vec![
        "scheme",
        "avg IPC",
        "vs baseline",
        "detects soft errors",
    ]);
    for ((name, (scheme, _)), &avg) in rows.iter().zip(&avgs) {
        t.row(vec![
            name.to_string(),
            format!("{avg:.3}"),
            gap(avgs[0], avg),
            match scheme {
                Scheme::Baseline => "no".into(),
                _ => "yes (result errors)".into(),
            },
        ]);
    }
    format!(
        "Redundancy schemes on the RUU=32 machine (paper §3: REESE vs. scheduler duplication)\n{t}\n"
    )
}

/// Ablations: the IPC impact of every REESE design choice DESIGN.md
/// calls out, on the RUU=32 machine over the suite.
fn ablation_report(suite: &Suite, jobs: usize) -> String {
    let mut rows = vec![(
        "baseline (no redundancy)".to_string(),
        (Scheme::Baseline, ruu32()),
    )];
    let mut reese = |name: &str, config| rows.push((name.to_string(), (Scheme::Reese, config)));
    reese("REESE default (held RUU, queue 32, lookahead 8)", ruu32());
    reese("early RUU removal (§4.3)", ruu32().with_early_removal(true));
    for size in [8usize, 16, 64, 128] {
        reese(
            &format!("R-queue size {size}"),
            ruu32().with_rqueue_size(size),
        );
    }
    for lookahead in [1usize, 2, 16] {
        let mut config = ruu32();
        config.r_issue_lookahead = lookahead;
        reese(&format!("R-issue lookahead {lookahead}"), config);
    }
    for hw in [8usize, 16, 31] {
        let mut config = ruu32();
        config.high_water = hw;
        reese(&format!("high-water mark {hw}"), config);
    }
    for period in [2u64, 4] {
        reese(
            &format!("partial duplication 1-in-{period}"),
            ruu32().with_duplication_period(period),
        );
    }
    // Next-line prefetching (off in the paper's Table 1): helps both
    // machines; REESE gains slightly more since its R stream rides the
    // warmed lines.
    let mut prefetch = ruu32();
    prefetch.pipeline.hierarchy = prefetch.pipeline.hierarchy.with_next_line_prefetch();
    reese("REESE + L1D next-line prefetch", prefetch);

    let machines: Vec<Machine> = rows.iter().map(|(_, m)| m.clone()).collect();
    let avgs = averages(suite, &machines, jobs);
    let mut t = Table::new(vec![
        "ablation",
        "avg IPC",
        "vs baseline",
        "vs REESE default",
    ]);
    for ((name, _), &ipc) in rows.iter().zip(&avgs) {
        t.row(vec![
            name.clone(),
            format!("{ipc:.3}"),
            gap(avgs[0], ipc),
            gap(avgs[1], ipc),
        ]);
    }
    format!("REESE design-choice ablations (RUU=32/LSQ=16 machine, suite averages)\n{t}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_reports_are_identical_across_worker_counts_and_hold_no_host_time() {
        let suite = Suite::smoke();
        for report in REPORTS {
            if let Input::Suite(_) = report.input {
                let serial = report.render(&suite, 1);
                assert_eq!(
                    report.render(&suite, 2),
                    serial,
                    "{}: 2 workers must not change the text",
                    report.name
                );
                for host in ["items/s", "busy", "trials/s", "worker"] {
                    assert!(
                        !serial.contains(host),
                        "{}: host-time '{host}' in the text",
                        report.name
                    );
                }
            }
        }
    }

    #[test]
    fn names_select_reports_and_unknown_names_list_the_registry() {
        assert_eq!(select(&[]).unwrap().len(), REPORTS.len());
        let picked = select(&["fig7".into(), "table1".into()]).unwrap();
        let names: Vec<&str> = picked.iter().map(|r| r.name).collect();
        assert_eq!(names, ["fig7", "table1"]);
        let err = select(&["fig2".into(), "fig8".into()]).unwrap_err();
        assert!(err.contains("'fig8'"), "{err}");
        for r in REPORTS {
            assert!(err.contains(r.name), "{err} must name {}", r.name);
        }
    }
}
