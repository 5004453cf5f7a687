//! Experiment harness regenerating the REESE paper's tables and figures.
//!
//! Every IPC number the harness prints is one cell: a [`Machine`] — a
//! registered detection scheme over a REESE configuration — run clean
//! on one workload through [`DetectionScheme::run_limit`]. [`ipc_grid`]
//! fans a report's cells out in one sweep. Every figure in the paper
//! is an IPC bar chart over the six benchmarks plus their average, with
//! five machine variants: the baseline processor and REESE with 0,
//! +1 ALU, +2 ALU, and +2 ALU +1 Mul/Div spare elements; [`Experiment`]
//! encodes that grid once. [`reports`] is the registry of every
//! committed result, which the `results` binary renders.

pub mod reports;

use reese_ckpt::Scheme;
use reese_core::ReeseConfig;
use reese_faults::{schemes, DetectionScheme};
use reese_pipeline::PipelineConfig;
use reese_stats::{mean, par_map_indexed, percent_delta, Table};
use reese_workloads::Suite;
use std::fmt;

/// One IPC cell's machine: a registered detection scheme over a REESE
/// configuration (the other schemes use its pipeline and flush
/// penalty, as [`schemes::build`] says).
pub type Machine = (Scheme, ReeseConfig);

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

    /// This variant over the base machine `base`.
    pub fn machine(&self, base: &PipelineConfig) -> Machine {
        let config = ReeseConfig::over(base.clone());
        match *self {
            Variant::Baseline => (Scheme::Baseline, config),
            Variant::Reese {
                spare_alus,
                spare_muls,
            } => (
                Scheme::Reese,
                config
                    .with_spare_int_alus(spare_alus)
                    .with_spare_int_muldivs(spare_muls),
            ),
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
}

impl ExperimentResult {
    /// Column-wise average IPC (the paper's "AV." bars).
    pub fn averages(&self) -> Vec<f64> {
        column_means(&self.ipc)
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
        writeln!(f, "gap vs baseline (on AV.): {}", self.gap_summary())
    }
}

/// A paper experiment: a base machine, a set of variants, and the suite.
#[derive(Debug, Clone)]
pub struct Experiment {
    title: String,
    base: PipelineConfig,
    variants: Vec<Variant>,
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
            jobs: default_jobs(),
        }
    }

    /// Overrides the variant set (Figure 5 drops `R+2ALU+1Mul`).
    pub fn variants(mut self, variants: &[Variant]) -> Experiment {
        self.variants = variants.to_vec();
        self
    }

    /// Overrides the worker count (1 forces the serial path). The IPC
    /// grid is identical for every value; 0 is treated as 1.
    pub fn jobs(mut self, n: usize) -> Experiment {
        self.jobs = n.max(1);
        self
    }

    /// Runs the experiment on `suite`: one [`ipc_grid`] sweep of the
    /// kernel×variant matrix.
    ///
    /// # Panics
    ///
    /// See [`ipc_grid`].
    pub fn run_on(&self, suite: &Suite) -> ExperimentResult {
        let machines: Vec<Machine> = self
            .variants
            .iter()
            .map(|v| v.machine(&self.base))
            .collect();
        ExperimentResult {
            title: self.title.clone(),
            variants: self.variants.iter().map(Variant::label).collect(),
            kernels: suite
                .iter()
                .map(|w| w.kernel.paper_benchmark().to_string())
                .collect(),
            ipc: ipc_grid(suite, &machines, self.jobs),
        }
    }
}

/// Runs every machine clean on every workload of `suite`, each cell as
/// the scheme's [`DetectionScheme::run_limit`] to `halt`, in one
/// fan-out over `jobs` workers, and returns `ipc[workload][machine]`.
/// The grid is identical for every worker count; the sweep's host-time
/// counters go to stderr.
///
/// # Panics
///
/// Panics if any run fails — the kernels are known-good, so a failure
/// is a harness bug worth crashing on.
pub fn ipc_grid(suite: &Suite, machines: &[Machine], jobs: usize) -> Vec<Vec<f64>> {
    let built: Vec<Box<dyn DetectionScheme>> = machines
        .iter()
        .map(|(scheme, config)| schemes::build(*scheme, config))
        .collect();
    let workloads = suite.workloads();
    let cells: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|w| (0..machines.len()).map(move |m| (w, m)))
        .collect();
    let (ipc, stats) = par_map_indexed(jobs, &cells, |_, &(w, m)| {
        let run = built[m]
            .run_limit(&workloads[w].program, u64::MAX)
            .unwrap_or_else(|e| panic!("{} on {} failed: {e}", machines[m].0, workloads[w].kernel));
        run.committed as f64 / run.cycles as f64
    });
    eprintln!("  sweep throughput: {stats}");
    ipc.chunks(machines.len().max(1))
        .map(<[f64]>::to_vec)
        .collect()
}

/// The mean of each column of a row-major grid.
fn column_means(grid: &[Vec<f64>]) -> Vec<f64> {
    let cols = grid.first().map_or(0, Vec::len);
    (0..cols)
        .map(|c| mean(&grid.iter().map(|row| row[c]).collect::<Vec<_>>()))
        .collect()
}

/// Default per-kernel dynamic-instruction budget; override with the
/// `REESE_TARGET_INSNS` environment variable (the paper used 100M per
/// benchmark, which works here too but takes a while).
pub fn default_target() -> u64 {
    env_or("REESE_TARGET_INSNS", 300_000)
}

/// Default worker count for sweeps: the `REESE_JOBS` environment
/// variable when set (0 or unparsable falls through), otherwise the
/// machine's available parallelism.
pub fn default_jobs() -> usize {
    match env_or("REESE_JOBS", 0) {
        0 => reese_stats::available_jobs(),
        n => n,
    }
}

/// The environment variable `name` parsed, or `default` when it is
/// unset or does not parse.
fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The four base machines of Figures 2–5, in order; Figure 6 summarises
/// all four.
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
