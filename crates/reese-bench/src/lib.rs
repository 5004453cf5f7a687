//! Experiment harness regenerating the REESE paper's tables and figures.
//!
//! Every figure in the paper is an IPC bar chart over the six benchmarks
//! plus their average, with five machine variants: the baseline
//! processor and REESE with 0, +1 ALU, +2 ALU, and +2 ALU +1 Mul/Div
//! spare elements. This crate encodes that grid once ([`Experiment`])
//! and each `src/bin/fig*.rs` binary instantiates it with the figure's
//! machine configuration.

use reese_core::{ReeseConfig, ReeseSim};
use reese_pipeline::{PipelineConfig, PipelineSim};
use reese_stats::{mean, par_map_indexed, percent_delta, ParallelStats, Table};
use reese_workloads::{Suite, Workload};
use std::fmt;

/// One machine variant in a figure's bar group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The unmodified baseline processor.
    Baseline,
    /// REESE with `spare_alus` extra integer ALUs and `spare_muls`
    /// extra integer multiplier/dividers.
    Reese {
        /// Spare integer ALUs.
        spare_alus: u32,
        /// Spare integer multiplier/dividers.
        spare_muls: u32,
    },
}

impl Variant {
    /// The five variants of Figures 2–4 (Figure 5 drops the last).
    pub const PAPER: [Variant; 5] = [
        Variant::Baseline,
        Variant::Reese {
            spare_alus: 0,
            spare_muls: 0,
        },
        Variant::Reese {
            spare_alus: 1,
            spare_muls: 0,
        },
        Variant::Reese {
            spare_alus: 2,
            spare_muls: 0,
        },
        Variant::Reese {
            spare_alus: 2,
            spare_muls: 1,
        },
    ];

    /// Column label used in the tables.
    pub fn label(&self) -> String {
        match self {
            Variant::Baseline => "baseline".to_string(),
            Variant::Reese {
                spare_alus: 0,
                spare_muls: 0,
            } => "REESE".to_string(),
            Variant::Reese {
                spare_alus,
                spare_muls: 0,
            } => format!("R+{spare_alus}ALU"),
            Variant::Reese {
                spare_alus,
                spare_muls,
            } => {
                format!("R+{spare_alus}ALU+{spare_muls}Mul")
            }
        }
    }
}

/// Results of one experiment: IPC per (kernel, variant).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment title.
    pub title: String,
    /// Variant labels, column order.
    pub variants: Vec<String>,
    /// Kernel names, row order.
    pub kernels: Vec<String>,
    /// `ipc[row][col]`.
    pub ipc: Vec<Vec<f64>>,
    /// Wall-clock/throughput observability for the sweep (one item per
    /// kernel×variant cell). The IPC grid is bit-identical for any
    /// worker count; this records only how fast it was computed.
    pub throughput: Option<ParallelStats>,
}

impl ExperimentResult {
    /// Column-wise average IPC (the paper's "AV." bars).
    pub fn averages(&self) -> Vec<f64> {
        (0..self.variants.len())
            .map(|c| mean(&self.ipc.iter().map(|row| row[c]).collect::<Vec<_>>()))
            .collect()
    }

    /// Percentage gap of column `col` versus the baseline column 0,
    /// computed on averages (negative = slower than baseline).
    pub fn average_gap(&self, col: usize) -> f64 {
        let avgs = self.averages();
        percent_delta(avgs[0], avgs[col])
    }

    /// Renders the paper-style table: one row per kernel plus "AV.".
    pub fn table(&self) -> Table {
        let mut header = vec!["bench".to_string()];
        header.extend(self.variants.iter().cloned());
        let mut t = Table::new(header);
        for (name, row) in self.kernels.iter().zip(&self.ipc) {
            t.row_f64(name, row, 3);
        }
        t.row_f64("AV.", &self.averages(), 3);
        t
    }

    /// Renders the grid as CSV (kernel rows + the AV. row).
    pub fn csv(&self) -> String {
        self.table().to_csv()
    }

    /// Renders the REESE-vs-baseline gap line printed under each figure.
    pub fn gap_summary(&self) -> String {
        let mut parts = Vec::new();
        for (c, label) in self.variants.iter().enumerate().skip(1) {
            parts.push(format!("{label}: {:+.1}%", self.average_gap(c)));
        }
        parts.join("  ")
    }
}

impl fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        write!(f, "{}", self.table())?;
        writeln!(f, "gap vs baseline (on AV.): {}", self.gap_summary())?;
        if let Some(t) = &self.throughput {
            writeln!(f, "sweep throughput: {t}")?;
        }
        Ok(())
    }
}

/// A paper experiment: a base machine, a set of variants, and the suite.
#[derive(Debug, Clone)]
pub struct Experiment {
    title: String,
    base: PipelineConfig,
    variants: Vec<Variant>,
    target_instructions: u64,
    jobs: usize,
}

impl Experiment {
    /// Creates an experiment over a base machine with the standard
    /// five-variant group. Cells run on [`default_jobs`] workers.
    pub fn new(title: &str, base: PipelineConfig) -> Experiment {
        Experiment {
            title: title.to_string(),
            base,
            variants: Variant::PAPER.to_vec(),
            target_instructions: default_target(),
            jobs: default_jobs(),
        }
    }

    /// Overrides the variant set (Figure 5 drops `R+2ALU+1Mul`).
    pub fn variants(mut self, variants: &[Variant]) -> Experiment {
        self.variants = variants.to_vec();
        self
    }

    /// Overrides the per-kernel dynamic-instruction target.
    pub fn target_instructions(mut self, n: u64) -> Experiment {
        self.target_instructions = n;
        self
    }

    /// Overrides the worker count (1 forces the serial path). The IPC
    /// grid is identical for every value; 0 is treated as 1.
    pub fn jobs(mut self, n: usize) -> Experiment {
        self.jobs = n.max(1);
        self
    }

    /// Runs the experiment over the calibrated suite.
    ///
    /// # Panics
    ///
    /// Panics if any simulation fails — the kernels are known-good, so
    /// a failure is a harness bug worth crashing on.
    pub fn run(&self) -> ExperimentResult {
        let suite = Suite::spec95_like(self.target_instructions);
        self.run_on(&suite)
    }

    /// Runs the experiment on a pre-built suite (reuse across figures).
    ///
    /// The kernel×variant matrix is flattened into independent cells
    /// and fanned out over the configured worker count; each cell is a
    /// full simulator run, and the reassembled grid is identical to the
    /// serial row-major sweep.
    ///
    /// # Panics
    ///
    /// See [`Experiment::run`].
    pub fn run_on(&self, suite: &Suite) -> ExperimentResult {
        let workloads: Vec<&Workload> = suite.iter().collect();
        let cells: Vec<(usize, usize)> = workloads
            .iter()
            .enumerate()
            .flat_map(|(wi, _)| (0..self.variants.len()).map(move |vi| (wi, vi)))
            .collect();
        let (values, throughput) = par_map_indexed(self.jobs, &cells, |_, &(wi, vi)| {
            self.run_cell(workloads[wi], &self.variants[vi])
        });
        let ipc: Vec<Vec<f64>> = values
            .chunks(self.variants.len().max(1))
            .map(<[f64]>::to_vec)
            .collect();
        ExperimentResult {
            title: self.title.clone(),
            variants: self.variants.iter().map(Variant::label).collect(),
            kernels: workloads
                .iter()
                .map(|w| w.kernel.paper_benchmark().to_string())
                .collect(),
            ipc,
            throughput: Some(throughput),
        }
    }

    /// Simulates one kernel on one machine variant and returns its IPC.
    fn run_cell(&self, w: &Workload, v: &Variant) -> f64 {
        match v {
            Variant::Baseline => PipelineSim::new(self.base.clone())
                .run(&w.program)
                .unwrap_or_else(|e| panic!("baseline {} failed: {e}", w.kernel))
                .ipc(),
            Variant::Reese {
                spare_alus,
                spare_muls,
            } => {
                let cfg = ReeseConfig::over(self.base.clone())
                    .with_spare_int_alus(*spare_alus)
                    .with_spare_int_muldivs(*spare_muls);
                ReeseSim::new(cfg)
                    .run(&w.program)
                    .unwrap_or_else(|e| panic!("REESE {} failed: {e}", w.kernel))
                    .ipc()
            }
        }
    }
}

/// Default per-kernel dynamic-instruction budget; override with the
/// `REESE_TARGET_INSNS` environment variable (the paper used 100M per
/// benchmark, which works here too but takes a while).
pub fn default_target() -> u64 {
    std::env::var("REESE_TARGET_INSNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300_000)
}

/// Default worker count for sweeps: the `REESE_JOBS` environment
/// variable when set (0 or unparsable falls through), otherwise the
/// machine's available parallelism.
pub fn default_jobs() -> usize {
    std::env::var("REESE_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(reese_stats::available_jobs)
}

/// Prints an experiment result honouring the `REESE_FORMAT` environment
/// variable: `csv` emits machine-readable CSV, anything else (or unset)
/// the human-readable table plus the gap summary.
pub fn emit(result: &ExperimentResult) {
    match std::env::var("REESE_FORMAT").as_deref() {
        Ok("csv") => print!("{}", result.csv()),
        _ => println!("{result}"),
    }
}

/// The four base machines of Figures 2–5, shared by `fig6`.
pub fn paper_machines() -> Vec<(&'static str, PipelineConfig)> {
    vec![
        ("None (Table 1 starting config)", PipelineConfig::starting()),
        (
            "RUU,LSQ 2X (RUU=32, LSQ=16)",
            PipelineConfig::starting().with_ruu(32).with_lsq(16),
        ),
        (
            "Ex. Q 2X (16-wide datapath)",
            PipelineConfig::starting()
                .with_ruu(32)
                .with_lsq(16)
                .with_width(16),
        ),
        (
            "MemPorts (4 memory ports)",
            PipelineConfig::starting()
                .with_ruu(32)
                .with_lsq(16)
                .with_width(16)
                .with_mem_ports(4),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels() {
        let labels: Vec<String> = Variant::PAPER.iter().map(Variant::label).collect();
        assert_eq!(
            labels,
            vec!["baseline", "REESE", "R+1ALU", "R+2ALU", "R+2ALU+1Mul"]
        );
    }

    #[test]
    fn experiment_smoke() {
        let suite = Suite::smoke();
        let r = Experiment::new("smoke", PipelineConfig::starting())
            .variants(&[
                Variant::Baseline,
                Variant::Reese {
                    spare_alus: 2,
                    spare_muls: 0,
                },
            ])
            .run_on(&suite);
        assert_eq!(r.kernels.len(), 6);
        assert_eq!(r.variants.len(), 2);
        for row in &r.ipc {
            for &v in row {
                assert!(v > 0.0, "IPC must be positive");
            }
        }
        assert_eq!(r.averages().len(), 2);
        let t = r.table();
        assert_eq!(t.len(), 7, "6 kernels + AV.");
        assert!(r.to_string().contains("AV."));
    }

    #[test]
    fn paper_machines_are_valid() {
        for (name, cfg) in paper_machines() {
            cfg.validate();
            assert!(!name.is_empty());
        }
    }
}
