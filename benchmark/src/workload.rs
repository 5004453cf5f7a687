//! The four workloads: what set-up builds, what one repetition runs,
//! and how its simulated outputs are checked and digested.

use reese_ckpt::Scheme;
use reese_core::ReeseConfig;
use reese_cpu::{Emulator, RunResult, StopReason};
use reese_faults::{schemes, Campaign, CoverageReport, FaultMix, SchemeRun, DEFAULT_CKPT_EVERY};
use reese_isa::Program;
use reese_stats::par_map_indexed;
use reese_workloads::{rv32::Rv32Kernel, Kernel};
use std::collections::HashMap;

/// Worker threads of every timed repetition. The reference host and
/// CI both have two cores, and users run `reese campaign -j 2` there.
pub const JOBS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Few trials on long programs: the reference pass dominates.
    Deep,
    /// Many trials on a short program, under schemes whose verdicts
    /// depend on the microarchitecture.
    Dense,
    /// The same trials under schemes whose verdicts are architectural.
    DenseArch,
    /// Clean detailed runs over the scheme × program × machine grid.
    Sweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Deep,
        Workload::Dense,
        Workload::DenseArch,
        Workload::Sweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Deep => "deep",
            Workload::Dense => "dense",
            Workload::DenseArch => "dense-arch",
            Workload::Sweep => "sweep",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{name}` (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

/// One seeded campaign, built identically by the timed run, the traced
/// rebuild and the tests.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    pub label: String,
    /// Index into [`Setup::programs`].
    pub program: usize,
    pub scheme: Scheme,
    pub mix: FaultMix,
    pub trials: usize,
    pub seed: u64,
    /// Checkpoint interval K.
    pub every: u64,
}

impl CampaignSpec {
    /// The machine every campaign workload runs on.
    pub fn config() -> ReeseConfig {
        ReeseConfig::starting()
    }

    pub fn campaign(&self, jobs: usize) -> Campaign {
        Campaign::new(Self::config(), self.mix)
            .scheme(self.scheme)
            .trials(self.trials)
            .seed(self.seed)
            .ckpt_every(self.every)
            .jobs(jobs)
    }
}

/// One clean detailed run of the sweep.
#[derive(Debug, Clone)]
pub struct SweepCell {
    pub label: String,
    pub program: usize,
    pub scheme: Scheme,
    pub config: ReeseConfig,
}

#[derive(Debug, Clone)]
pub enum Ops {
    Campaigns(Vec<CampaignSpec>),
    Sweep(Vec<SweepCell>),
}

/// A program a workload builds during set-up.
#[derive(Debug, Clone, Copy)]
pub enum ProgramSpec {
    /// A native kernel grown to at least this many instructions.
    Native(Kernel, u64),
    /// An RV32I port at an explicit scale.
    Rv32(Rv32Kernel, u32),
}

impl ProgramSpec {
    pub fn build(self) -> Program {
        match self {
            ProgramSpec::Native(k, n) => k.build_for(n),
            ProgramSpec::Rv32(k, scale) => k.build(scale),
        }
    }
}

/// What a workload runs, before any program is built.
#[derive(Debug, Clone)]
pub struct Plan {
    pub programs: Vec<ProgramSpec>,
    pub ops: Ops,
}

impl Plan {
    pub fn labels(&self) -> Vec<String> {
        match &self.ops {
            Ops::Campaigns(c) => c.iter().map(|s| s.label.clone()).collect(),
            Ops::Sweep(c) => c.iter().map(|s| s.label.clone()).collect(),
        }
    }

    /// Set-up proper: builds every program (`build_for` /
    /// `Rv32Kernel::build`).
    pub fn build(self) -> Setup {
        Setup {
            programs: self.programs.iter().map(|p| p.build()).collect(),
            ops: self.ops,
        }
    }
}

/// Everything a repetition needs before its timed work starts.
pub struct Setup {
    pub programs: Vec<Program>,
    pub ops: Ops,
}

impl Setup {
    /// Number of operations.
    pub fn len(&self) -> usize {
        match &self.ops {
            Ops::Campaigns(c) => c.len(),
            Ops::Sweep(c) => c.len(),
        }
    }
}

/// The programs and the operation list of a workload. The seed reaches
/// every campaign as [`Campaign::seed`]; the sweep has no random input.
pub fn plan(workload: Workload, seed: u64) -> Plan {
    let campaigns = |kernels: &[(Kernel, u64)], schemes: &[Scheme], mix: FaultMix, trials| {
        let mut specs = Vec::new();
        for (program, &(kernel, _)) in kernels.iter().enumerate() {
            for &scheme in schemes {
                specs.push(CampaignSpec {
                    label: format!("{kernel}/{scheme}"),
                    program,
                    scheme,
                    mix,
                    trials,
                    seed,
                    every: DEFAULT_CKPT_EVERY,
                });
            }
        }
        Plan {
            programs: kernels
                .iter()
                .map(|&(k, n)| ProgramSpec::Native(k, n))
                .collect(),
            ops: Ops::Campaigns(specs),
        }
    };
    match workload {
        Workload::Deep => campaigns(
            &[(Kernel::Lisp, 2_000_000), (Kernel::Database, 2_000_000)],
            &[Scheme::Reese],
            FaultMix::broad(),
            200,
        ),
        Workload::Dense => campaigns(
            &[(Kernel::Database, 200_000)],
            &[Scheme::Reese, Scheme::Duplex, Scheme::Meek],
            FaultMix::result_errors_only(),
            2000,
        ),
        Workload::DenseArch => campaigns(
            &[(Kernel::Database, 200_000)],
            &[Scheme::Baseline, Scheme::Swift],
            FaultMix::result_errors_only(),
            2000,
        ),
        Workload::Sweep => {
            let programs = vec![
                ProgramSpec::Native(Kernel::Imaging, 500_000),
                ProgramSpec::Native(Kernel::Lisp, 500_000),
                // About 490k instructions.
                ProgramSpec::Rv32(Rv32Kernel::Strings, 1600),
            ];
            let names = ["imaging", "lisp", "rv32i-strings"];
            let starting = ReeseConfig::starting();
            let wide16 = ReeseConfig::over(
                starting
                    .pipeline
                    .clone()
                    .with_ruu(32)
                    .with_lsq(16)
                    .with_width(16),
            );
            let machines = [("starting", starting), ("wide16", wide16)];
            let mut cells = Vec::new();
            for (program, name) in names.iter().enumerate() {
                for scheme in Scheme::ALL {
                    for (machine, config) in &machines {
                        cells.push(SweepCell {
                            label: format!("{name}/{scheme}/{machine}"),
                            program,
                            scheme,
                            config: config.clone(),
                        });
                    }
                }
            }
            Plan {
                programs,
                ops: Ops::Sweep(cells),
            }
        }
    }
}

/// What one operation produced, before checking.
pub enum Raw {
    Report(CoverageReport),
    Run(SchemeRun),
}

/// A checked operation: its simulated output as text (the bytes the
/// digest covers) and the work it did (trials, or millions of
/// committed instructions).
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    pub text: String,
    pub work: f64,
}

impl Output {
    pub fn digest(&self) -> u64 {
        fnv1a64(self.text.as_bytes())
    }
}

/// Runs every operation of a repetition on `jobs` workers. Campaigns
/// run one after another, each fanned out internally; sweep cells fan
/// out through `par_map_indexed`, as `Experiment::run_on` does.
pub fn run(setup: &Setup, jobs: usize) -> Vec<Result<Raw, String>> {
    let ops: Vec<usize> = (0..setup.len()).collect();
    match &setup.ops {
        Ops::Campaigns(_) => ops.iter().map(|&i| run_op(setup, i, jobs)).collect(),
        Ops::Sweep(_) => par_map_indexed(jobs, &ops, |_, &i| run_op(setup, i, 1)).0,
    }
}

/// Runs operation `i`: a campaign on `jobs` workers, or one sweep cell
/// (the scheme's program preparation, then its clean run to halt).
pub fn run_op(setup: &Setup, i: usize, jobs: usize) -> Result<Raw, String> {
    match &setup.ops {
        Ops::Campaigns(specs) => specs[i]
            .campaign(jobs)
            .run(&setup.programs[specs[i].program])
            .map(Raw::Report)
            .map_err(|e| e.to_string()),
        Ops::Sweep(cells) => {
            let scheme = schemes::build(cells[i].scheme, &cells[i].config);
            let prepared = scheme.prepare(&setup.programs[cells[i].program])?;
            scheme.run_limit(&prepared, u64::MAX).map(Raw::Run)
        }
    }
}

/// Checks each result and renders its digested text. A campaign must
/// report every trial it drew; a sweep cell must print, exit and end in
/// the register state the functional emulator reaches on the same
/// prepared program.
pub fn check(setup: &Setup, raws: Vec<Result<Raw, String>>) -> Vec<Result<Output, String>> {
    let mut golden: HashMap<(usize, bool), Result<RunResult, String>> = HashMap::new();
    raws.into_iter()
        .enumerate()
        .map(|(i, raw)| match (raw?, &setup.ops) {
            (Raw::Report(r), Ops::Campaigns(specs)) => {
                if r.trials() != specs[i].trials {
                    return Err(format!(
                        "{}: {} outcomes for {} trials",
                        specs[i].label,
                        r.trials(),
                        specs[i].trials
                    ));
                }
                Ok(Output {
                    text: r.to_json(),
                    work: r.trials() as f64,
                })
            }
            (Raw::Run(run), Ops::Sweep(cells)) => {
                let c = &cells[i];
                // Only swift rewrites the program, so the golden run is
                // shared by the hardware schemes of one program.
                let want = golden
                    .entry((c.program, c.scheme == Scheme::Swift))
                    .or_insert_with(|| {
                        let scheme = schemes::build(c.scheme, &c.config);
                        let prepared = scheme.prepare(&setup.programs[c.program])?;
                        Emulator::new(&prepared)
                            .run(u64::MAX)
                            .map_err(|e| e.to_string())
                    })
                    .as_ref()
                    .map_err(String::clone)?;
                let exit = match want.stop {
                    StopReason::Halted { exit_code } => Some(exit_code),
                    StopReason::InstructionLimit => None,
                };
                if run.output != want.output
                    || run.exit_code != exit
                    || run.state_digest != want.state_digest
                {
                    return Err(format!(
                        "{}: output, exit code or final state differs from the functional emulator",
                        c.label
                    ));
                }
                Ok(Output {
                    text: format!("{run:?}"),
                    work: run.committed as f64 / 1e6,
                })
            }
            _ => unreachable!("run_op returns the result kind of its workload"),
        })
        .collect()
}

/// FNV-1a, 64-bit: the digest the repository uses for simulated state.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// One digest over a repetition's per-operation digests, in order.
pub fn combined_digest(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a64(&bytes)
}
