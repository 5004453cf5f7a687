//! `reese` — command-line front end for the simulators.
//!
//! ```text
//! reese run <file.s> [options]     simulate an assembly program
//! reese campaign [options]         run a fault-injection campaign
//! reese schemes [options]          rank every detection scheme on the kernel suite
//! reese explain [options]          forensically replay one logged campaign trial
//! reese shard [options]            shard one run across checkpoint intervals
//! reese asm <file.s> -o <file.bin>  assemble a program to a flat binary
//! reese mix <file.s|kernel>        print a program's dynamic instruction mix
//! reese disasm <file.s>            assemble and disassemble a program
//! reese trace <file.s|kernel> [--out f]   capture and profile a trace
//! reese kernels                    list the built-in workload kernels
//! ```
//!
//! Every `--scheme` flag accepts any name from the detection-scheme
//! registry (`baseline|reese|duplex|meek|swift`), or any unambiguous
//! prefix of one.
//!
//! Flag groups. Each subcommand below names the groups it takes, then
//! its own options; any other flag is an `unknown option`.
//!
//! ```text
//! program:
//!   <file>             the program: assembler source, or a `.bin` flat
//!                      text-segment image
//!   --isa native|rv32i ISA frontend for the program (default native;
//!                      unambiguous prefixes work)
//!   --kernel NAME      a built-in kernel instead of a file
//!   --scale N          kernel scale (default 1)
//! machine:
//!   --machine starting|ruu32|wide16|ports4   base configuration (default starting)
//!   --ruu-size N       override the RUU window size (≥ 1)
//!   --lsq-size N       override the LSQ size (≥ 1, ≤ RUU size)
//!   --width N          override the fetch/issue width (≥ 1)
//! spares:
//!   --spare-alus N     extra integer ALUs for REESE
//!   --spare-muls N     extra integer multiplier/dividers for REESE
//! observability:
//!   --trace-out FILE   write a pipetrace (.txt → SimpleScalar-style text,
//!                      anything else → Chrome trace-event JSON for Perfetto)
//!   --metrics-out FILE write per-interval metrics (.json → JSON, else CSV)
//!   --metrics-interval N   sampling interval in cycles (default 10000)
//! ```
//!
//! `--isa` also picks the catalogue `--kernel` names resolve against:
//! the Table 2 suite for `native`, the rv32i ports for `rv32i`.
//!
//! `run` takes program (a file or `--kernel`; there is no default),
//! machine, spares and observability, plus:
//!
//! ```text
//! --scheme emulate|<scheme>   machine model (default baseline)
//! --rqueue N         R-stream Queue size (≥ 1, default 32)
//! --early-removal    enable the §4.3 RUU-removal optimisation
//! --dup-period K     re-execute 1 in K instructions (≥ 1, default 1)
//! --inject SEQ:BIT:p|r   inject a transient fault (repeatable; reese and
//!                    duplex only — a fault aimed before --skip never fires)
//! --max-insns N      stop after N committed instructions
//! --skip N           start timing at instruction N, from a warm checkpoint
//! --stats            print the full statistics block
//! ```
//!
//! `campaign` takes program (default kernel `lisp`), machine, spares
//! and observability: `--trace-out` traces the clean REESE reference
//! run, `--metrics-out` pools metrics across simulated trials. Plus:
//!
//! ```text
//! --scheme <scheme>  detection scheme under test (default reese)
//! --trials N         number of injection trials (default 200)
//! --injections N     alias for --trials
//! --seed S           campaign PRNG seed (default 0xFA017)
//! --mix broad|result fault-class mix (default broad)
//! --max-insns N      per-trial committed-instruction budget
//! -j N, --jobs N     worker threads (default: available parallelism;
//!                    1 forces the serial path — same report either way)
//! --engine full|replay   trial engine (default replay; full is the
//!                    from-scratch oracle arm — byte-identical reports)
//! --ckpt-every K     checkpoint interval in instructions (default 2048)
//! --outcomes-jsonl FILE  stream per-trial outcomes to a campaign log
//! --resume FILE      resume an interrupted campaign from its log
//! --trial-limit N    compute at most N new trials (for staged runs)
//! --out FILE         write the per-trial report to FILE
//!                    (.json → JSON, anything else → CSV)
//! --telemetry-out FILE   stream a JSONL telemetry journal (phase
//!                    timings, worker throughput, memo hit rate, ETA)
//! ```
//!
//! `schemes` takes program without the file (`--kernel` repeats;
//! default: the selected ISA's whole catalogue), machine and
//! observability: the clean REESE run on every evaluated kernel,
//! stitched with cycle offsets. Plus:
//!
//! ```text
//! --target N         calibrate each kernel to ≥ N dynamic instructions
//!                    (native suite only; rv32i ports take --scale)
//! --trials N         injection trials per (scheme, kernel) cell (default 100)
//! --seed S           campaign PRNG seed (default 0xFA017)
//! --mix broad|result fault-class mix (default result)
//! --max-insns N      per-run committed-instruction budget
//! -j N, --jobs N     worker threads (default 1)
//! --engine full|replay   trial engine (default replay)
//! --csv FILE         write the per-cell table as CSV
//! --json FILE        write rows + ranking as JSON
//! --telemetry-out FILE   one JSONL telemetry journal across all
//!                    (scheme, kernel) cells, bracketed by cell_start
//! ```
//!
//! `explain` takes program (default kernel `lisp`), machine, spares and
//! `--trace-out` alone of observability: a Chrome trace-event JSON of
//! the faulty window with inject/diverge/detect markers. Plus:
//!
//! ```text
//! --outcomes FILE    campaign log (--outcomes-jsonl/--resume file) [required]
//! --trial N          address the trial by index in the log
//! --id N             address the trial by stable id (decimal or 0xHEX)
//! --scheme <scheme>  the campaign's detection scheme (default reese)
//! --out FILE         write the forensic timeline text to FILE
//! ```
//!
//! The program, scheme, machine and spares flags must repeat whatever
//! the campaign ran with; `explain` cross-checks them against the log
//! header before simulating and refuses on mismatch.
//!
//! `shard` takes program (default kernel `lisp`), machine and
//! observability, stitched across the intervals. Plus:
//!
//! ```text
//! --intervals K      number of checkpoint intervals (default 4)
//! -j N, --jobs N     worker threads (default: available parallelism)
//! --scheme <scheme>  detection scheme timing the intervals (default reese)
//! --no-verify        skip the monolithic run (no cycle-error oracle)
//! --out FILE         write the shard report as JSON
//! --snapshot FILE    write the first mid-run checkpoint (interval 1's
//!                    frame) to FILE
//! ```
//!
//! `asm`, `mix`, `disasm` and `trace` take the program's file and
//! `--isa`. `mix`, `disasm` and `trace` also take a kernel name as the
//! file; `asm` needs `-o`/`--out FILE`, and `trace` takes `--out FILE`
//! for the captured trace. `kernels` takes nothing.

use reese::ckpt::{self, Checkpoint, Scheme};
use reese::core::{DuplexSim, Faults, InjectedFault, ReeseConfig, ReeseResult, ReeseSim};
use reese::cpu::Emulator;
use reese::faults::schemes::EvalOptions;
use reese::faults::{FaultMix, SchemesReport, ShardOptions, ShardReport, TrialEngine, TrialRef};
use reese::isa::{IsaId, Program};
use reese::pipeline::{PipelineConfig, PipelineSim, RunSpec};
use reese::trace::{MetricsSeries, NoopObserver, Observer, TraceRing, Tracer};
use reese::workloads::rv32::Rv32Kernel;
use reese::workloads::{measure_mix, Kernel};
use std::process::ExitCode;
use Group::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("schemes") => cmd_schemes(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("shard") => cmd_shard(&args[1..]),
        Some("asm") => cmd_asm(&args[1..]),
        Some("mix") => cmd_mix(&args[1..]),
        Some("disasm") => cmd_disasm(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("kernels") => cmd_kernels(&args[1..]),
        _ => {
            eprintln!(
                "usage: reese <run|campaign|schemes|explain|shard|asm|mix|disasm|trace|kernels> [options]  (see --help in source)"
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliError = Box<dyn std::error::Error>;

fn machine(name: &str) -> Result<PipelineConfig, CliError> {
    Ok(match name {
        "starting" => PipelineConfig::starting(),
        "ruu32" => PipelineConfig::starting().with_ruu(32).with_lsq(16),
        "wide16" => PipelineConfig::starting()
            .with_ruu(32)
            .with_lsq(16)
            .with_width(16),
        "ports4" => PipelineConfig::starting()
            .with_ruu(32)
            .with_lsq(16)
            .with_width(16)
            .with_mem_ports(4),
        other => return Err(format!("unknown machine `{other}`").into()),
    })
}

fn kernel_by_name(name: &str) -> Result<Kernel, CliError> {
    Kernel::ALL
        .into_iter()
        .find(|k| k.name() == name || k.paper_benchmark() == name)
        .ok_or_else(|| format!("unknown kernel `{name}` (try `reese kernels`)").into())
}

fn rv32_kernel_by_name(name: &str) -> Result<Rv32Kernel, CliError> {
    Rv32Kernel::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| {
            let names = Rv32Kernel::ALL.map(Rv32Kernel::name);
            format!(
                "no rv32i port of kernel `{name}` (rv32i kernels: {})",
                names.join("|")
            )
            .into()
        })
}

/// Builds a named kernel under the selected ISA: the Table 2 suite for
/// the native ISA, the hand-ported RV32I kernels for rv32i.
fn build_kernel(isa: IsaId, name: &str, scale: u32) -> Result<Program, CliError> {
    match isa {
        IsaId::Native => Ok(kernel_by_name(name)?.build(scale)),
        IsaId::Rv32i => Ok(rv32_kernel_by_name(name)?.build(scale)),
    }
}

/// Loads a program file through the selected ISA frontend: `.bin` files
/// as flat text-segment images, anything else as assembler source.
fn load_file(isa: IsaId, path: &str) -> Result<Program, CliError> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".bin") {
        return isa
            .frontend()
            .load_flat(&bytes)
            .map_err(|(off, e)| format!("{path}: byte offset {off}: {e}").into());
    }
    let source = String::from_utf8(bytes).map_err(|_| {
        format!("{path} is not UTF-8 assembler source (flat binaries need a `.bin` extension)")
    })?;
    Ok(isa.frontend().assemble(&source)?)
}

/// Takes a subcommand's one positional argument (its program),
/// rejecting a second one instead of letting it replace the first.
fn positional(slot: &mut Option<String>, arg: &str) -> Result<(), CliError> {
    match slot {
        Some(first) => Err(format!("more than one program given: `{first}` and `{arg}`").into()),
        None => {
            *slot = Some(arg.to_string());
            Ok(())
        }
    }
}

/// Resolves a user-supplied name against a candidate list, accepting
/// exact names and unique prefixes. All `--scheme` flags funnel through
/// this, so every front end shares one error shape and the accepted set
/// is derived from the registry rather than hand-written per command.
fn resolve<'a>(what: &str, input: &str, names: &[&'a str]) -> Result<&'a str, CliError> {
    if let Some(exact) = names.iter().find(|n| **n == input) {
        return Ok(exact);
    }
    let matches: Vec<&str> = if input.is_empty() {
        Vec::new()
    } else {
        names
            .iter()
            .copied()
            .filter(|n| n.starts_with(input))
            .collect()
    };
    match matches[..] {
        [only] => Ok(only),
        [] => Err(format!("unknown {what} `{input}`, want {}", names.join("|")).into()),
        _ => Err(format!("ambiguous {what} `{input}`: matches {}", matches.join(", ")).into()),
    }
}

/// Parses a detection-scheme name from the registry.
fn parse_scheme(input: &str) -> Result<Scheme, CliError> {
    let names = Scheme::ALL.map(Scheme::name);
    let name = resolve("scheme", input, &names)?;
    Ok(Scheme::parse(name).expect("resolved name is registered"))
}

/// Parses an instruction-set name from the ISA registry, accepting
/// exact names and unique prefixes like `--scheme` does.
fn parse_isa(input: &str) -> Result<IsaId, CliError> {
    let names = IsaId::ALL.map(IsaId::name);
    let name = resolve("isa", input, &names)?;
    Ok(IsaId::parse(name).expect("resolved name is registered"))
}

/// The `run` subcommand's scheme set: the registry plus the functional
/// emulator (which has no timing model and so is not a [`Scheme`]).
fn run_scheme_names() -> Vec<&'static str> {
    let mut names = vec!["emulate"];
    names.extend(Scheme::ALL.map(Scheme::name));
    names
}

fn parse_fault(spec: &str) -> Result<InjectedFault, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 3 {
        return Err(format!("bad fault spec `{spec}`, want SEQ:BIT:p|r").into());
    }
    let seq: u64 = number("--inject", parts[0])?;
    let bit: u8 = number("--inject", parts[1])?;
    Ok(match parts[2] {
        "p" => InjectedFault::primary(seq, bit),
        "r" => InjectedFault::redundant(seq, bit),
        "perm" => InjectedFault::permanent(seq, bit),
        other => return Err(format!("bad stream `{other}`, want p, r, or perm").into()),
    })
}

fn parse_mix(name: &str) -> Result<FaultMix, CliError> {
    match name {
        "broad" => Ok(FaultMix::broad()),
        "result" => Ok(FaultMix::result_errors_only()),
        other => Err(format!("unknown mix `{other}`, want broad|result").into()),
    }
}

/// A flag group that several subcommands share. Each subcommand lists
/// the groups it takes; [`Common::take`] parses them all. The module
/// doc's program and observability groups split here because some
/// subcommands take only part of them: `schemes` takes no file, `asm`,
/// `mix`, `disasm` and `trace` take only the file and `--isa`, and
/// `explain` only `--trace-out`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Group {
    /// The one positional argument: the program file.
    File,
    /// `--isa`.
    Isa,
    /// `--kernel` and `--scale`.
    Kernels,
    /// `--machine`, `--ruu-size`, `--lsq-size` and `--width`.
    Machine,
    /// `--spare-alus` and `--spare-muls`.
    Spares,
    /// `--trace-out`.
    Trace,
    /// `--metrics-out` and `--metrics-interval`.
    Metrics,
}

/// Reads the value of the flag being parsed.
type Value<'v, 'a> = &'v mut dyn FnMut() -> Result<&'a str, CliError>;

/// The one argument loop. Each argument goes to the shared group of
/// `groups` that takes it, else to `own`, the subcommand's own flags,
/// which returns `Ok(false)` for an argument it does not take.
fn parse<'a>(
    args: &'a [String],
    groups: &[Group],
    c: &mut Common,
    mut own: impl FnMut(&'a str, Value<'_, 'a>) -> Result<bool, CliError>,
) -> Result<(), CliError> {
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| CliError::from(format!("`{a}` needs a value")))
        };
        if !(c.take(groups, a, &mut value)? || own(a, &mut value)?) {
            return Err(format!("unknown option `{a}`").into());
        }
    }
    Ok(())
}

/// The shared flag groups' values, and the work every subcommand did
/// around them.
struct Common {
    file: Option<String>,
    isa: IsaId,
    /// Every `--kernel` given: `schemes` ranks them all, the others
    /// take the last.
    kernels: Vec<String>,
    scale: u32,
    base: PipelineConfig,
    spare_alus: u32,
    spare_muls: u32,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    metrics_interval: u64,
}

impl Default for Common {
    fn default() -> Common {
        Common {
            file: None,
            isa: IsaId::Native,
            kernels: Vec::new(),
            scale: 1,
            base: PipelineConfig::starting(),
            spare_alus: 0,
            spare_muls: 0,
            trace_out: None,
            metrics_out: None,
            metrics_interval: Tracer::DEFAULT_INTERVAL,
        }
    }
}

impl Common {
    /// Takes `arg` if one of `groups` has it.
    fn take<'a>(
        &mut self,
        groups: &[Group],
        arg: &'a str,
        value: Value<'_, 'a>,
    ) -> Result<bool, CliError> {
        let has = |g| groups.contains(&g);
        match arg {
            "--isa" if has(Isa) => self.isa = parse_isa(value()?)?,
            "--kernel" if has(Kernels) => self.kernels.push(value()?.to_string()),
            "--scale" if has(Kernels) => self.scale = positive(arg, value()?)?,
            "--machine" if has(Machine) => self.base = machine(value()?)?,
            "--ruu-size" if has(Machine) => self.base.ruu_size = positive(arg, value()?)?,
            "--lsq-size" if has(Machine) => self.base.lsq_size = positive(arg, value()?)?,
            "--width" if has(Machine) => self.base.width = positive(arg, value()?)?,
            "--spare-alus" if has(Spares) => self.spare_alus = number(arg, value()?)?,
            "--spare-muls" if has(Spares) => self.spare_muls = number(arg, value()?)?,
            "--trace-out" if has(Trace) => self.trace_out = Some(value()?.to_string()),
            "--metrics-out" if has(Metrics) => self.metrics_out = Some(value()?.to_string()),
            "--metrics-interval" if has(Metrics) => {
                self.metrics_interval = positive(arg, value()?)?
            }
            file if has(File) && !file.starts_with('-') => positional(&mut self.file, file)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolves the program: the file, or the last `--kernel` (resolved
    /// here, after the loop, so `--kernel` and `--isa` compose in either
    /// order), or else `default_kernel`.
    fn program(&self, default_kernel: Option<&str>) -> Result<Program, CliError> {
        match (&self.file, self.kernels.last()) {
            (Some(_), Some(_)) => Err("give a file or --kernel, not both".into()),
            (Some(path), None) => load_file(self.isa, path),
            (None, kernel) => match kernel.map(String::as_str).or(default_kernel) {
                Some(name) => build_kernel(self.isa, name, self.scale),
                None => Err("give an assembly file or --kernel NAME".into()),
            },
        }
    }

    /// Rejects machine and spare flags the simulators would `assert!`
    /// on, at parse time: an LSQ larger than the RUU window, or spares
    /// whose sum with the machine's units overflows.
    fn check_machine(&self) -> Result<(), CliError> {
        let base = &self.base;
        if base.lsq_size > base.ruu_size {
            return Err(format!(
                "`--lsq-size` ({}) must not exceed the RUU size ({}) — the LSQ tracks a subset of the RUU window",
                base.lsq_size, base.ruu_size
            )
            .into());
        }
        for (flag, units, spares) in [
            ("--spare-alus", base.fu.int_alu, self.spare_alus),
            ("--spare-muls", base.fu.int_muldiv, self.spare_muls),
        ] {
            if units.checked_add(spares).is_none() {
                return Err(format!("`{flag}` value `{spares}` is out of range").into());
            }
        }
        Ok(())
    }

    /// REESE over the machine, with the spare elements added.
    fn config(&self) -> ReeseConfig {
        ReeseConfig::over(self.base.clone())
            .with_spare_int_alus(self.spare_alus)
            .with_spare_int_muldivs(self.spare_muls)
    }

    /// Whether `--trace-out` or `--metrics-out` was given.
    fn observed(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// A collecting tracer when any observability output was requested;
    /// `None` keeps the simulators on the statically-dispatched no-op
    /// path.
    fn tracer(&self) -> Option<Tracer> {
        self.observed()
            .then(|| Tracer::new().with_interval(self.metrics_interval))
    }

    /// Finishes a run's tracer and writes the requested outputs.
    fn flush(&self, tracer: Option<Tracer>) -> Result<(), CliError> {
        let Some(mut t) = tracer else {
            return Ok(());
        };
        t.finish();
        let (ring, metrics) = t.into_parts();
        self.write(&ring, &metrics)
    }

    /// Writes a trace to `--trace-out` and metrics to `--metrics-out`,
    /// each if requested.
    fn write(&self, ring: &TraceRing, metrics: &MetricsSeries) -> Result<(), CliError> {
        if let Some(path) = &self.trace_out {
            write_trace(path, ring)?;
        }
        if let Some(path) = &self.metrics_out {
            write_metrics(path, metrics)?;
        }
        Ok(())
    }
}

struct RunOpts {
    c: Common,
    program: Program,
    scheme: String,
    rqueue: usize,
    early_removal: bool,
    dup_period: u64,
    faults: Vec<InjectedFault>,
    max_insns: u64,
    skip: u64,
    verbose: bool,
}

impl RunOpts {
    /// The checkpoint a `--skip` run starts from: the continuous-warm
    /// one `checkpoints_at` captures, as for sharded intervals and
    /// campaign anchors; `None` without `--skip`.
    fn skip_point(&self) -> Result<Option<Checkpoint>, CliError> {
        if self.skip == 0 {
            return Ok(None);
        }
        let prefix = Emulator::new(&self.program).run(self.skip)?;
        if prefix.halted() {
            return Err(format!(
                "`--skip {}` is at or past the end of the program: it runs {} instructions",
                self.skip, prefix.instructions
            )
            .into());
        }
        Ok(ckpt::checkpoints_at(&self.program, &[self.skip], &self.c.base)?.pop())
    }

    /// The timed run from `start` (the `--skip` checkpoint, else program
    /// start) to `--max-insns`.
    fn spec<'a>(&'a self, start: Option<&'a Checkpoint>) -> RunSpec<'a> {
        match start {
            Some(ck) => RunSpec::restored(ck.restore(&self.program), ck.warm.as_ref()),
            None => RunSpec::new(&self.program),
        }
        .limit(self.max_insns)
    }

    /// The timed run of a redundant scheme (`reese` or `duplex`): the
    /// start point, instruction limit, and injected faults all go into
    /// one run spec, so any combination of them is honoured.
    fn run_redundant<O: Observer>(
        &self,
        start: Option<&Checkpoint>,
        obs: &mut O,
    ) -> Result<ReeseResult, CliError> {
        let spec = self.spec(start);
        let run = if self.scheme == "duplex" {
            DuplexSim::new(self.c.base.clone()).simulate(spec.faults(&self.faults[..]), obs)
        } else {
            let cfg = self
                .c
                .config()
                .with_rqueue_size(self.rqueue)
                .with_early_removal(self.early_removal)
                .with_duplication_period(self.dup_period);
            ReeseSim::new(cfg).simulate(spec.faults(Faults::Latch(&self.faults)), obs)
        };
        Ok(run?)
    }
}

/// Writes a captured pipetrace: `.txt` → compact text, anything else →
/// Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`).
fn write_trace(path: &str, ring: &TraceRing) -> Result<(), CliError> {
    let body = if path.ends_with(".txt") {
        ring.to_pipetrace_text()
    } else {
        ring.to_chrome_json()
    };
    std::fs::write(path, body)?;
    println!(
        "trace written to {path}: {} events ({} dropped)",
        ring.len(),
        ring.dropped()
    );
    Ok(())
}

/// Writes a metrics series: `.json` → JSON, anything else → CSV.
fn write_metrics(path: &str, metrics: &MetricsSeries) -> Result<(), CliError> {
    let body = if path.ends_with(".json") {
        metrics.to_json()
    } else {
        metrics.to_csv()
    };
    std::fs::write(path, body)?;
    println!(
        "metrics written to {path}: {} intervals of {} cycles",
        metrics.rows.len(),
        metrics.interval
    );
    Ok(())
}

/// Parses a flag value that must be a strictly positive integer.
///
/// Zero is rejected here, at parse time, because it would otherwise
/// degrade silently far from the command line: `-j 0` quietly runs on
/// one worker, `--metrics-interval 0` makes the tracer sample every
/// cycle, and `--intervals 0` collapses a sharded run to one interval.
fn positive<T: TryFrom<u64>>(flag: &str, raw: &str) -> Result<T, CliError> {
    let v: u64 = raw
        .parse()
        .map_err(|_| format!("`{flag}` expects a positive integer, got `{raw}`"))?;
    if v == 0 {
        return Err(format!("`{flag}` must be at least 1").into());
    }
    T::try_from(v).map_err(|_| format!("`{flag}` value `{raw}` is out of range").into())
}

/// Parses a numeric flag value, naming the flag and the value when it
/// is not a number of the flag's type.
fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, CliError> {
    raw.parse().map_err(|_| {
        if raw.parse::<i128>().is_ok() {
            format!("`{flag}` value `{raw}` is out of range").into()
        } else {
            format!("`{flag}` expects an integer, got `{raw}`").into()
        }
    })
}

fn parse_run(args: &[String]) -> Result<RunOpts, CliError> {
    let mut o = RunOpts {
        c: Common::default(),
        program: Program::from_text(vec![]),
        scheme: "baseline".into(),
        rqueue: 32,
        early_removal: false,
        dup_period: 1,
        faults: Vec::new(),
        max_insns: u64::MAX,
        skip: 0,
        verbose: false,
    };
    let groups = [File, Isa, Kernels, Machine, Spares, Trace, Metrics];
    parse(args, &groups, &mut o.c, |flag, value| {
        match flag {
            "--scheme" => o.scheme = resolve("scheme", value()?, &run_scheme_names())?.into(),
            "--rqueue" => o.rqueue = positive(flag, value()?)?,
            "--early-removal" => o.early_removal = true,
            "--dup-period" => o.dup_period = positive(flag, value()?)?,
            "--inject" => o.faults.push(parse_fault(value()?)?),
            "--max-insns" => o.max_insns = number(flag, value()?)?,
            "--skip" => o.skip = number(flag, value()?)?,
            "--stats" => o.verbose = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    o.program = o.c.program(None)?;
    o.c.check_machine()?;
    Ok(o)
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let o = parse_run(args)?;
    match o.scheme.as_str() {
        "emulate" => {
            if o.c.observed() {
                return Err("--trace-out/--metrics-out need a timing scheme, not emulate".into());
            }
            if !o.faults.is_empty() || o.skip > 0 {
                return Err("--inject/--skip need a timing scheme, not emulate".into());
            }
            let mut emu = Emulator::new(&o.program);
            let r = emu.run(o.max_insns)?;
            println!(
                "emulated {} instructions, stop: {:?}",
                r.instructions, r.stop
            );
            print_output(&r.output);
        }
        "baseline" => {
            if !o.faults.is_empty() {
                return Err(
                    "`baseline` runs clean here; inject faults with `reese campaign --scheme baseline`"
                        .into(),
                );
            }
            let start = o.skip_point()?;
            let mut tracer = o.c.tracer();
            let sim = PipelineSim::new(o.c.base.clone());
            let spec = o.spec(start.as_ref());
            let r = match &mut tracer {
                Some(t) => sim.simulate(spec, t)?,
                None => sim.simulate(spec, &mut NoopObserver)?,
            };
            println!(
                "baseline: {} instructions in {} cycles — IPC {:.3}",
                r.committed_instructions(),
                r.cycles(),
                r.ipc()
            );
            print_output(&r.output);
            if o.verbose {
                print!("{}", r.stats);
            } else {
                print_pipeline_stats(&r.stats);
            }
            o.c.flush(tracer)?;
        }
        "duplex" | "reese" => {
            let start = o.skip_point()?;
            let mut tracer = o.c.tracer();
            let r = match &mut tracer {
                Some(t) => o.run_redundant(start.as_ref(), t)?,
                None => o.run_redundant(start.as_ref(), &mut NoopObserver)?,
            };
            let label = if o.scheme == "duplex" {
                "dispatch duplication"
            } else {
                "REESE"
            };
            println!(
                "{label}: {} instructions in {} cycles — IPC {:.3}, {} comparisons, {} detections",
                r.committed_instructions(),
                r.cycles(),
                r.ipc(),
                r.stats.comparisons,
                r.stats.detections
            );
            print_detections(&r.detections);
            print_output(&r.output);
            if o.scheme == "reese" {
                if o.verbose {
                    print!("{}", r.stats);
                } else {
                    print_pipeline_stats(&r.stats.pipeline);
                }
            }
            o.c.flush(tracer)?;
        }
        name @ ("meek" | "swift") => {
            let scheme = Scheme::parse(name).expect("registry name");
            if o.c.observed() {
                return Err(
                    format!("--trace-out/--metrics-out are not supported for `{name}`").into(),
                );
            }
            if !o.faults.is_empty() {
                return Err(format!(
                    "`{name}` runs clean here; inject faults with `reese campaign --scheme {name}`"
                )
                .into());
            }
            if o.skip > 0 {
                return Err(format!(
                    "--skip is not supported for `{name}`, which times whole programs; \
                     baseline, reese and duplex take --skip"
                )
                .into());
            }
            let cfg = ReeseConfig::over(o.c.base);
            let backend = reese::faults::schemes::build(scheme, &cfg);
            let prepared = backend.prepare(&o.program)?;
            let r = backend.run_limit(&prepared, o.max_insns)?;
            println!(
                "{name}: {} instructions in {} cycles — IPC {:.3}",
                r.committed,
                r.cycles,
                r.committed as f64 / r.cycles.max(1) as f64
            );
            if prepared.len() != o.program.len() {
                println!(
                    "  transformed program: {} → {} static instructions ({:.2}x)",
                    o.program.len(),
                    prepared.len(),
                    prepared.len() as f64 / o.program.len().max(1) as f64
                );
            }
            print_output(&r.output);
        }
        other => return Err(format!("unknown scheme `{other}`").into()),
    }
    Ok(())
}

struct CampaignOpts {
    c: Common,
    program: Program,
    scheme: Scheme,
    mix: FaultMix,
    trials: usize,
    seed: u64,
    max_insns: u64,
    jobs: usize,
    engine: TrialEngine,
    ckpt_every: u64,
    outcomes_jsonl: Option<String>,
    resume: Option<String>,
    trial_limit: Option<usize>,
    out: Option<String>,
    telemetry_out: Option<String>,
}

fn parse_campaign(args: &[String]) -> Result<CampaignOpts, CliError> {
    let mut o = CampaignOpts {
        c: Common::default(),
        program: Program::from_text(vec![]),
        scheme: Scheme::Reese,
        mix: FaultMix::broad(),
        trials: 200,
        seed: 0xFA017,
        max_insns: u64::MAX,
        jobs: reese::stats::available_jobs(),
        engine: TrialEngine::Replay,
        ckpt_every: reese::faults::DEFAULT_CKPT_EVERY,
        outcomes_jsonl: None,
        resume: None,
        trial_limit: None,
        out: None,
        telemetry_out: None,
    };
    let groups = [File, Isa, Kernels, Machine, Spares, Trace, Metrics];
    parse(args, &groups, &mut o.c, |flag, value| {
        match flag {
            "--trials" | "--injections" => o.trials = number(flag, value()?)?,
            "--scheme" => o.scheme = parse_scheme(value()?)?,
            "--seed" => o.seed = number(flag, value()?)?,
            "--mix" => o.mix = parse_mix(value()?)?,
            "--max-insns" => o.max_insns = number(flag, value()?)?,
            "-j" | "--jobs" => o.jobs = positive(flag, value()?)?,
            "--engine" => o.engine = value()?.parse::<TrialEngine>()?,
            "--ckpt-every" => o.ckpt_every = positive(flag, value()?)?,
            "--outcomes-jsonl" => o.outcomes_jsonl = Some(value()?.into()),
            "--resume" => o.resume = Some(value()?.into()),
            "--trial-limit" => o.trial_limit = Some(positive(flag, value()?)?),
            "--out" => o.out = Some(value()?.into()),
            "--telemetry-out" => o.telemetry_out = Some(value()?.into()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if o.resume.is_some() && o.outcomes_jsonl.is_some() {
        return Err("`--resume` already appends to its log; drop `--outcomes-jsonl`".into());
    }
    o.program = o.c.program(Some("lisp"))?;
    o.c.check_machine()?;
    Ok(o)
}

fn cmd_campaign(args: &[String]) -> Result<(), CliError> {
    let o = parse_campaign(args)?;
    if o.c.trace_out.is_some() && o.scheme != Scheme::Reese {
        return Err(
            "--trace-out traces the clean REESE reference run; it needs --scheme reese".into(),
        );
    }
    let cfg = o.c.config();
    let mut campaign = reese::faults::Campaign::new(cfg.clone(), o.mix)
        .scheme(o.scheme)
        .trials(o.trials)
        .seed(o.seed)
        .max_instructions(o.max_insns)
        .jobs(o.jobs)
        .engine(o.engine)
        .ckpt_every(o.ckpt_every)
        .metrics_interval(if o.c.metrics_out.is_some() {
            o.c.metrics_interval
        } else {
            0
        });
    if let Some(path) = &o.outcomes_jsonl {
        campaign = campaign.outcomes_jsonl(path);
    }
    if let Some(path) = &o.resume {
        campaign = campaign.resume(path);
    }
    if let Some(n) = o.trial_limit {
        campaign = campaign.trial_limit(n);
    }
    if let Some(path) = &o.telemetry_out {
        campaign = campaign.telemetry_out(path);
    }
    let report = campaign.run(&o.program)?;
    print!("{report}");
    if let Some(path) = &o.out {
        let serialised = if path.ends_with(".json") {
            report.to_json()
        } else {
            report.to_csv()
        };
        std::fs::write(path, serialised)?;
        println!("report written to {path}");
    }
    if let Some(path) = &o.c.metrics_out {
        let Some(metrics) = &report.metrics else {
            return Err("campaign produced no metrics (no simulated trials?)".into());
        };
        write_metrics(path, metrics)?;
    }
    if let Some(path) = &o.c.trace_out {
        // The campaign itself runs thousands of short trials; a pipetrace
        // of all of them would be meaningless. Trace the clean (fault-free)
        // reference run instead, which every trial is compared against.
        let mut tracer = Tracer::new().with_interval(o.c.metrics_interval);
        ReeseSim::new(cfg).simulate(RunSpec::new(&o.program).limit(o.max_insns), &mut tracer)?;
        tracer.finish();
        let (ring, _) = tracer.into_parts();
        write_trace(path, &ring)?;
    }
    Ok(())
}

struct SchemesOpts {
    c: Common,
    programs: Vec<(String, Program)>,
    mix: FaultMix,
    eval: EvalOptions,
    csv: Option<String>,
    json: Option<String>,
}

fn parse_schemes(args: &[String]) -> Result<SchemesOpts, CliError> {
    let mut o = SchemesOpts {
        c: Common::default(),
        programs: Vec::new(),
        mix: FaultMix::result_errors_only(),
        eval: EvalOptions::default(),
        csv: None,
        json: None,
    };
    let mut target: Option<u64> = None;
    let groups = [Isa, Kernels, Machine, Trace, Metrics];
    parse(args, &groups, &mut o.c, |flag, value| {
        match flag {
            "--target" => target = Some(positive(flag, value()?)?),
            "--trials" => o.eval.trials = positive(flag, value()?)?,
            "--seed" => o.eval.seed = number(flag, value()?)?,
            "--mix" => o.mix = parse_mix(value()?)?,
            "--max-insns" => o.eval.max_instructions = number(flag, value()?)?,
            "-j" | "--jobs" => o.eval.jobs = positive(flag, value()?)?,
            "--engine" => o.eval.engine = value()?.parse::<TrialEngine>()?,
            "--csv" => o.csv = Some(value()?.into()),
            "--json" => o.json = Some(value()?.into()),
            "--telemetry-out" => o.eval.telemetry_out = Some(value()?.into()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    o.c.check_machine()?;
    let isa = o.c.isa;
    if o.c.scale != 1 && target.is_some() {
        return Err("give --scale or --target, not both".into());
    }
    if target.is_some() && isa != IsaId::Native {
        return Err(
            "--target calibrates the native Table 2 suite; rv32i ports take --scale".into(),
        );
    }
    if o.c.kernels.is_empty() {
        // Default is the whole catalogue for the selected ISA: the
        // Table 2 suite in table order, or every rv32i port.
        o.c.kernels = match isa {
            IsaId::Native => Kernel::ALL.map(|k| k.name().to_string()).to_vec(),
            IsaId::Rv32i => Rv32Kernel::ALL.map(|k| k.name().to_string()).to_vec(),
        };
    }
    o.programs =
        o.c.kernels
            .iter()
            .map(|name| match isa {
                IsaId::Native => {
                    let k = kernel_by_name(name)?;
                    let program = match target {
                        Some(t) => k.build_for(t),
                        None => k.build(o.c.scale),
                    };
                    Ok((k.name().to_string(), program))
                }
                IsaId::Rv32i => {
                    let k = rv32_kernel_by_name(name)?;
                    Ok((k.name().to_string(), k.build(o.c.scale)))
                }
            })
            .collect::<Result<_, CliError>>()?;
    Ok(o)
}

fn cmd_schemes(args: &[String]) -> Result<(), CliError> {
    let o = parse_schemes(args)?;
    let cfg = o.c.config();
    let report = SchemesReport::evaluate(&cfg, &o.mix, &o.programs, &o.eval)?;
    print!("{report}");
    if let Some(path) = &o.csv {
        std::fs::write(path, report.to_csv())?;
        println!("csv written to {path}");
    }
    if let Some(path) = &o.json {
        std::fs::write(path, report.to_json())?;
        println!("json written to {path}");
    }
    if o.c.observed() {
        // As for `campaign --trace-out`: per-trial traces would be
        // noise, so trace the clean REESE reference run — here once per
        // evaluated kernel, stitched end-to-end with cycle offsets.
        let mut ring = TraceRing::new(Tracer::DEFAULT_RING_CAPACITY);
        let mut metrics = MetricsSeries::default();
        let mut offset = 0u64;
        for (name, program) in &o.programs {
            let mut tracer = Tracer::new().with_interval(o.c.metrics_interval);
            let r = ReeseSim::new(cfg.clone()).simulate(
                RunSpec::new(program).limit(o.eval.max_instructions),
                &mut tracer,
            )?;
            tracer.finish();
            let (kernel_ring, kernel_metrics) = tracer.into_parts();
            ring.merge_concat(&kernel_ring, offset);
            metrics.merge_concat(&kernel_metrics, offset);
            offset += r.stats.pipeline.cycles;
            println!(
                "traced clean reese run on {name} ({} cycles)",
                r.stats.pipeline.cycles
            );
        }
        o.c.write(&ring, &metrics)?;
    }
    Ok(())
}

struct ExplainOpts {
    c: Common,
    program: Program,
    scheme: Scheme,
    outcomes: String,
    which: TrialRef,
    out: Option<String>,
}

fn parse_explain(args: &[String]) -> Result<ExplainOpts, CliError> {
    let mut c = Common::default();
    let (mut scheme, mut outcomes, mut which, mut out) = (Scheme::Reese, None, None, None);
    let groups = [File, Isa, Kernels, Machine, Spares, Trace];
    parse(args, &groups, &mut c, |flag, value| {
        match flag {
            "--outcomes" => outcomes = Some(value()?.to_string()),
            "--trial" => which = Some(TrialRef::Index(number(flag, value()?)?)),
            "--id" => {
                let raw = value()?;
                let id = match raw.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).map_err(|_| {
                        format!(
                            "`{flag}` expects a decimal or 0x-prefixed hex integer, got `{raw}`"
                        )
                    })?,
                    None => number(flag, raw)?,
                };
                which = Some(TrialRef::Id(id));
            }
            "--scheme" => scheme = parse_scheme(value()?)?,
            "--out" => out = Some(value()?.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let outcomes = outcomes.ok_or("`explain` needs --outcomes <campaign log>")?;
    let which = which.ok_or("address the trial with --trial <index> or --id <stable id>")?;
    let program = c.program(Some("lisp"))?;
    c.check_machine()?;
    Ok(ExplainOpts {
        c,
        program,
        scheme,
        outcomes,
        which,
        out,
    })
}

fn cmd_explain(args: &[String]) -> Result<(), CliError> {
    let o = parse_explain(args)?;
    let ex = reese::faults::explain_trial(
        &o.c.config(),
        o.scheme,
        &o.program,
        std::path::Path::new(&o.outcomes),
        o.which,
    )?;
    print!("{}", ex.text);
    if let Some(path) = &o.out {
        std::fs::write(path, &ex.text)?;
        println!("forensic timeline written to {path}");
    }
    if let Some(path) = &o.c.trace_out {
        std::fs::write(path, ex.to_chrome_json())?;
        println!("forensic trace written to {path}");
    }
    Ok(())
}

struct ShardCliOpts {
    c: Common,
    program: Program,
    scheme: Scheme,
    shard: ShardOptions,
    out: Option<String>,
    snapshot: Option<String>,
}

fn parse_shard(args: &[String]) -> Result<ShardCliOpts, CliError> {
    let mut o = ShardCliOpts {
        c: Common::default(),
        program: Program::from_text(vec![]),
        scheme: Scheme::Reese,
        shard: ShardOptions::default(),
        out: None,
        snapshot: None,
    };
    let groups = [File, Isa, Kernels, Machine, Trace, Metrics];
    parse(args, &groups, &mut o.c, |flag, value| {
        match flag {
            "--intervals" => o.shard.intervals = positive(flag, value()?)?,
            "-j" | "--jobs" => o.shard.jobs = positive(flag, value()?)?,
            "--no-verify" => o.shard.compare_monolithic = false,
            "--scheme" => o.scheme = parse_scheme(value()?)?,
            "--out" => o.out = Some(value()?.into()),
            "--snapshot" => o.snapshot = Some(value()?.into()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if o.c.observed() {
        o.shard.metrics_interval = o.c.metrics_interval;
    }
    o.program = o.c.program(Some("lisp"))?;
    o.c.check_machine()?;
    Ok(o)
}

fn cmd_shard(args: &[String]) -> Result<(), CliError> {
    let o = parse_shard(args)?;
    let report = reese::faults::run_sharded(&o.program, &o.c.config(), o.scheme, &o.shard)?;

    println!(
        "sharded {} run: {} instructions over {} intervals on {} jobs",
        report.scheme.name(),
        report.total_instructions,
        report.intervals.len(),
        o.shard.jobs
    );
    for (i, iv) in report.intervals.iter().enumerate() {
        println!(
            "  interval {i}: start {:>10}, {:>9} instructions, {:>9} cycles",
            iv.start, iv.instructions, iv.cycles
        );
    }
    println!(
        "stitched: {} cycles — IPC {:.3}; {} checkpoint bytes shipped, pool utilisation {:.0}%",
        report.sharded_cycles,
        report.ipc(),
        report.checkpoint_bytes,
        report.parallel.utilisation() * 100.0
    );
    let oracle = &report.oracle;
    println!(
        "oracle: instructions {}, final state {}, output {}",
        tick(oracle.instructions_match),
        tick(oracle.digest_match),
        tick(oracle.output_match)
    );
    if let (Some(mono), Some(err)) = (oracle.monolithic_cycles, oracle.cycle_error) {
        println!(
            "cycle accuracy: sharded {} vs monolithic {mono} — error {:+.3}%",
            report.sharded_cycles,
            err * 100.0
        );
    }

    if let Some(path) = &o.snapshot {
        std::fs::write(path, &report.snapshot)?;
        let start = report.intervals[usize::from(report.intervals.len() > 1)].start;
        println!("checkpoint at instruction {start} written to {path}");
    }
    if let Some(path) = &o.c.trace_out {
        let Some(ring) = &report.trace else {
            return Err("sharded run produced no trace".into());
        };
        write_trace(path, ring)?;
    }
    if let Some(path) = &o.c.metrics_out {
        let Some(metrics) = &report.metrics else {
            return Err("sharded run produced no metrics".into());
        };
        write_metrics(path, metrics)?;
    }
    if let Some(path) = &o.out {
        std::fs::write(path, shard_report_json(&report))?;
        println!("report written to {path}");
    }
    if !oracle.exact() {
        return Err("sharded run diverged from the monolithic run".into());
    }
    Ok(())
}

fn tick(ok: bool) -> &'static str {
    if ok {
        "exact"
    } else {
        "MISMATCH"
    }
}

fn shard_report_json(r: &ShardReport) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"scheme\": \"{}\",\n", r.scheme.name()));
    s.push_str(&format!(
        "  \"total_instructions\": {},\n  \"sharded_cycles\": {},\n  \"ipc\": {:.6},\n",
        r.total_instructions,
        r.sharded_cycles,
        r.ipc()
    ));
    s.push_str(&format!(
        "  \"checkpoint_bytes\": {},\n  \"intervals\": [\n",
        r.checkpoint_bytes
    ));
    for (i, iv) in r.intervals.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"start\": {}, \"instructions\": {}, \"cycles\": {}}}{}\n",
            iv.start,
            iv.instructions,
            iv.cycles,
            if i + 1 < r.intervals.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    if let Some(m) = &r.metrics {
        s.push_str("  \"metrics\": ");
        s.push_str(m.to_json().trim_end());
        s.push_str(",\n");
    }
    s.push_str("  \"oracle\": {\n");
    s.push_str(&format!(
        "    \"instructions_match\": {},\n    \"digest_match\": {},\n    \"output_match\": {}",
        r.oracle.instructions_match, r.oracle.digest_match, r.oracle.output_match
    ));
    if let (Some(mono), Some(err)) = (r.oracle.monolithic_cycles, r.oracle.cycle_error) {
        s.push_str(&format!(
            ",\n    \"monolithic_cycles\": {mono},\n    \"cycle_error\": {err:.6}"
        ));
    }
    s.push_str("\n  }\n}\n");
    s
}

fn print_detections(detections: &[reese::core::DetectionEvent]) {
    for d in detections {
        println!(
            "  soft error detected: instruction #{} at pc {:#x}, latency {} cycles",
            d.seq,
            d.pc,
            d.latency()
        );
    }
}

fn print_output(output: &[i64]) {
    if !output.is_empty() {
        println!("program output: {output:?}");
    }
}

fn print_pipeline_stats(s: &reese::pipeline::PipelineStats) {
    println!(
        "  branch mispredict rate {:.2}%, idle issue bandwidth {:.0}%",
        s.branch.mispredict_rate() * 100.0,
        s.idle_issue_fraction(8) * 100.0
    );
    if let Some(h) = &s.hierarchy {
        println!(
            "  L1D miss rate {:.2}%, L1I miss rate {:.2}%, L2 miss rate {:.2}%",
            h.l1d.miss_rate() * 100.0,
            h.l1i.miss_rate() * 100.0,
            h.l2.miss_rate() * 100.0
        );
    }
}

/// Parses the arguments `mix`, `disasm` and `trace` share: one program
/// (an assembly file or a kernel name) and `--isa`, plus `--out` when
/// `with_out` is set. Returns the program and the `--out` path.
fn load_source(args: &[String], with_out: bool) -> Result<(Program, Option<String>), CliError> {
    let mut c = Common::default();
    let mut out = None;
    parse(args, &[File, Isa], &mut c, |flag, value| {
        if !(with_out && flag == "--out") {
            return Ok(false);
        }
        out = Some(value()?.to_string());
        Ok(true)
    })?;
    let name = c.file.ok_or("give an assembly file or kernel name")?;
    let program = build_kernel(c.isa, &name, 1).or_else(|_| load_file(c.isa, &name))?;
    Ok((program, out))
}

/// `reese asm <file.s> --isa <isa> -o <file.bin>`: assembles source
/// through the selected ISA frontend and writes the flat text-segment
/// image, the format `load_flat` (and thus `reese run file.bin`)
/// accepts back.
fn cmd_asm(args: &[String]) -> Result<(), CliError> {
    let mut c = Common::default();
    let mut out = None;
    parse(args, &[File, Isa], &mut c, |flag, value| {
        if !matches!(flag, "-o" | "--out") {
            return Ok(false);
        }
        out = Some(value()?);
        Ok(true)
    })?;
    let (isa, path) = (c.isa, c.file.ok_or("give an assembly file")?);
    let out = out.ok_or("give an output path with -o <file.bin>")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let program = isa.frontend().assemble(&text)?;
    if !program.data().is_empty() {
        return Err(format!(
            "{path}: flat binaries carry only the text segment, but this program has {} data bytes",
            program.data().len()
        )
        .into());
    }
    let image = program
        .text_image()
        .map_err(|(idx, _)| format!("{path}: instruction {idx} has no {isa} encoding"))?;
    std::fs::write(out, &image)?;
    println!(
        "{out}: {} {} instructions, {} bytes",
        program.len(),
        isa.name(),
        image.len()
    );
    Ok(())
}

fn cmd_mix(args: &[String]) -> Result<(), CliError> {
    let (program, _) = load_source(args, false)?;
    println!("{}", measure_mix(&program, 10_000_000));
    Ok(())
}

fn cmd_disasm(args: &[String]) -> Result<(), CliError> {
    let (program, _) = load_source(args, false)?;
    print!(
        "{}",
        program
            .isa()
            .frontend()
            .disassemble_text(program.text(), program.text_base())
    );
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    let (program, out) = load_source(args, true)?;
    let trace = reese::cpu::Trace::capture(&program, 10_000_000)?;
    let (branches, taken) = trace.branch_profile();
    println!(
        "{} dynamic instructions; {:.1}% memory; {branches} branches ({:.0}% taken);          data working set {} lines (32 B)",
        trace.len(),
        trace.mem_fraction() * 100.0,
        if branches == 0 { 0.0 } else { taken as f64 / branches as f64 * 100.0 },
        trace.data_working_set(32)
    );
    println!("hottest basic blocks:");
    for (pc, count) in trace.hot_blocks(5) {
        println!("  {pc:#010x}: {count} executions");
    }
    if let Some(path) = out {
        let file = std::fs::File::create(&path)?;
        trace.write_to(std::io::BufWriter::new(file))?;
        println!("trace written to {path}");
    }
    Ok(())
}

fn cmd_kernels(args: &[String]) -> Result<(), CliError> {
    parse(args, &[], &mut Common::default(), |_, _| Ok(false))?;
    println!("built-in kernels (SPEC95 integer stand-ins):");
    for k in Kernel::ALL {
        println!(
            "  {:<9} — stands in for {} ({})",
            k.name(),
            k.paper_benchmark(),
            k.paper_input()
        );
    }
    println!("rv32i kernel ports (select with --isa rv32i):");
    for k in Rv32Kernel::ALL {
        println!("  {:<9} — {}", k.name(), k.description());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machines_parse() {
        for name in ["starting", "ruu32", "wide16", "ports4"] {
            machine(name).expect(name).validate();
        }
        assert!(machine("huge").is_err());
    }

    #[test]
    fn kernels_parse_by_both_names() {
        assert_eq!(kernel_by_name("lisp").unwrap(), Kernel::Lisp);
        assert_eq!(kernel_by_name("li").unwrap(), Kernel::Lisp);
        assert_eq!(kernel_by_name("gcc").unwrap(), Kernel::Compiler);
        assert!(kernel_by_name("nope").is_err());
    }

    #[test]
    fn fault_specs_parse() {
        assert_eq!(
            parse_fault("10:3:p").unwrap(),
            InjectedFault::primary(10, 3)
        );
        assert_eq!(
            parse_fault("10:3:r").unwrap(),
            InjectedFault::redundant(10, 3)
        );
        assert_eq!(
            parse_fault("10:3:perm").unwrap(),
            InjectedFault::permanent(10, 3)
        );
        assert!(parse_fault("10:3").is_err());
        assert!(parse_fault("10:3:x").is_err());
        assert!(parse_fault("a:3:p").is_err());
    }

    #[test]
    fn run_options_parse() {
        let args: Vec<String> = [
            "--kernel",
            "perl",
            "--scheme",
            "reese",
            "--spare-alus",
            "2",
            "--rqueue",
            "64",
            "--early-removal",
            "--dup-period",
            "2",
            "--inject",
            "5:1:p",
            "--max-insns",
            "1000",
            "--skip",
            "10",
            "--stats",
            "--trace-out",
            "t.json",
            "--metrics-out",
            "m.csv",
            "--metrics-interval",
            "500",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let o = parse_run(&args).unwrap();
        assert_eq!(o.scheme, "reese");
        assert_eq!(o.c.spare_alus, 2);
        assert_eq!(o.rqueue, 64);
        assert!(o.early_removal);
        assert_eq!(o.dup_period, 2);
        assert_eq!(o.faults.len(), 1);
        assert_eq!(o.max_insns, 1000);
        assert_eq!(o.skip, 10);
        assert!(o.verbose);
        assert!(!o.program.is_empty());
        assert_eq!(o.c.trace_out.as_deref(), Some("t.json"));
        assert_eq!(o.c.metrics_out.as_deref(), Some("m.csv"));
        assert_eq!(o.c.metrics_interval, 500);
        assert!(o.c.tracer().is_some());
    }

    #[test]
    fn observability_flags_default_off() {
        let args: Vec<String> = ["--kernel", "strings"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let o = parse_run(&args).unwrap();
        assert!(o.c.trace_out.is_none() && o.c.metrics_out.is_none());
        assert_eq!(o.c.metrics_interval, Tracer::DEFAULT_INTERVAL);
        assert!(o.c.tracer().is_none(), "no flags → no tracer → no-op path");
    }

    /// `reese run` on a short lisp window with extra flags, through the
    /// same timed path the CLI prints from.
    fn run_redundant(extra: &[&str]) -> reese::core::ReeseResult {
        let mut args = strings(&["--kernel", "lisp", "--max-insns", "8000"]);
        args.extend(strings(extra));
        let o = parse_run(&args).unwrap();
        let start = o.skip_point().unwrap();
        o.run_redundant(start.as_ref(), &mut NoopObserver).unwrap()
    }

    #[test]
    fn duplex_honours_skip_and_inject() {
        let plain = run_redundant(&["--scheme", "duplex"]);
        let skipped = run_redundant(&["--scheme", "duplex", "--skip", "2000"]);
        assert_ne!(
            plain.cycles(),
            skipped.cycles(),
            "--skip must move the window"
        );
        let hit = run_redundant(&["--scheme", "duplex", "--inject", "3000:3:p"]);
        assert_eq!(hit.detections.len(), 1, "--inject must reach duplex");
        assert_eq!(hit.detections[0].seq, 3000);
    }

    #[test]
    fn skip_and_inject_combine_on_redundant_schemes() {
        for scheme in ["reese", "duplex"] {
            let later = ["--scheme", scheme, "--skip", "2000", "--inject", "3000:3:p"];
            let r = run_redundant(&later);
            assert_eq!(r.detections.len(), 1, "{scheme}: fault past the skip fires");
            assert_eq!(r.detections[0].seq, 3000);
            // A fault inside the skipped prefix never fires.
            let earlier = ["--scheme", scheme, "--skip", "2000", "--inject", "1000:3:p"];
            assert!(run_redundant(&earlier).detections.is_empty(), "{scheme}");
        }
    }

    #[test]
    fn skip_at_or_past_the_end_is_an_error_naming_the_length() {
        // Database at scale 1 runs 4,552 instructions, the last its halt.
        for scheme in ["baseline", "reese", "duplex"] {
            for skip in ["4552", "100000"] {
                let args = strings(&["--kernel", "database", "--scheme", scheme, "--skip", skip]);
                let err = cmd_run(&args).unwrap_err().to_string();
                assert!(
                    err.contains(&format!("`--skip {skip}` is at or past the end"))
                        && err.contains("runs 4552 instructions"),
                    "{scheme}: {err}"
                );
            }
        }
        let args = strings(&["--kernel", "database", "--skip", "4551"]);
        cmd_run(&args).expect("the halt alone is still a run");
    }

    #[test]
    fn baseline_rejects_inject() {
        let args = strings(&[
            "--kernel", "lisp", "--scheme", "baseline", "--inject", "100:3:p",
        ]);
        let err = cmd_run(&args).unwrap_err().to_string();
        assert!(err.contains("runs clean here"), "{err}");
    }

    #[test]
    fn emulate_rejects_inject_and_skip() {
        for extra in [["--inject", "100:3:p"], ["--skip", "100"]] {
            let mut args = strings(&["--kernel", "lisp", "--scheme", "emulate"]);
            args.extend(strings(&extra));
            let err = cmd_run(&args).unwrap_err().to_string();
            assert!(err.contains("need a timing scheme"), "{err}");
        }
    }

    #[test]
    fn meek_and_swift_reject_inject_and_skip_by_name() {
        for scheme in ["meek", "swift"] {
            let run = |extra: [&str; 2]| {
                let mut args = strings(&["--kernel", "lisp", "--scheme", scheme]);
                args.extend(strings(&extra));
                cmd_run(&args).unwrap_err().to_string()
            };
            let err = run(["--inject", "100:3:p"]);
            assert!(
                err.contains(&format!(
                    "inject faults with `reese campaign --scheme {scheme}`"
                )),
                "{err}"
            );
            let err = run(["--skip", "5"]);
            assert!(err.contains("--skip is not supported"), "{err}");
            assert!(err.contains(&format!("`{scheme}`")), "{err}");
            assert!(!err.contains("inject"), "{err}");
        }
    }

    #[test]
    fn shard_metrics_interval_only_applies_with_output() {
        let args: Vec<String> = ["--kernel", "strings", "--metrics-interval", "250"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let o = parse_shard(&args).unwrap();
        assert_eq!(o.shard.metrics_interval, 0, "no output flag → unobserved");
        let args: Vec<String> = [
            "--kernel",
            "strings",
            "--metrics-out",
            "m.csv",
            "--metrics-interval",
            "250",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let o = parse_shard(&args).unwrap();
        assert_eq!(o.shard.metrics_interval, 250);
        assert_eq!(o.c.metrics_out.as_deref(), Some("m.csv"));
    }

    #[test]
    fn campaign_options_parse() {
        let args: Vec<String> = [
            "--kernel",
            "perl",
            "--trials",
            "50",
            "--seed",
            "9",
            "--mix",
            "result",
            "-j",
            "4",
            "--max-insns",
            "5000",
            "--out",
            "report.json",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let o = parse_campaign(&args).unwrap();
        assert_eq!(o.trials, 50);
        assert_eq!(o.seed, 9);
        assert_eq!(o.jobs, 4);
        assert_eq!(o.max_insns, 5000);
        assert_eq!(o.out.as_deref(), Some("report.json"));
        assert!(!o.program.is_empty());
    }

    #[test]
    fn campaign_defaults_to_available_parallelism() {
        let o = parse_campaign(&[]).unwrap();
        assert!(o.jobs >= 1);
        assert_eq!(o.trials, 200);
        assert!(!o.program.is_empty(), "defaults to the lisp kernel");
        assert_eq!(o.engine, reese::faults::TrialEngine::Replay);
        assert_eq!(o.ckpt_every, reese::faults::DEFAULT_CKPT_EVERY);
        assert!(o.outcomes_jsonl.is_none() && o.resume.is_none());
        assert!(o.trial_limit.is_none());
    }

    #[test]
    fn campaign_replay_flags_parse() {
        let o = parse_campaign(
            &[
                "--engine",
                "full",
                "--injections",
                "1000000",
                "--ckpt-every",
                "512",
                "--outcomes-jsonl",
                "log.jsonl",
                "--trial-limit",
                "500",
            ]
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(o.engine, reese::faults::TrialEngine::Full);
        assert_eq!(o.trials, 1_000_000, "--injections aliases --trials");
        assert_eq!(o.ckpt_every, 512);
        assert_eq!(o.outcomes_jsonl.as_deref(), Some("log.jsonl"));
        assert_eq!(o.trial_limit, Some(500));
    }

    #[test]
    fn campaign_scale_grows_the_kernel() {
        let small = parse_campaign(&strings(&["--kernel", "strings"])).unwrap();
        let big = parse_campaign(&strings(&["--kernel", "strings", "--scale", "4"])).unwrap();
        assert_eq!(big.c.scale, 4);
        assert!(big.program.len() >= small.program.len());
        let err = parse_campaign(&strings(&["--scale", "0"]))
            .err()
            .expect("zero scale must be rejected")
            .to_string();
        assert!(
            err.contains("--scale") && err.contains("at least 1"),
            "got: {err}"
        );
    }

    #[test]
    fn campaign_bad_engine_is_rejected_at_parse_time() {
        let err = parse_campaign(&strings(&["--engine", "warp"]))
            .err()
            .expect("unknown engine must be rejected")
            .to_string();
        assert!(err.contains("unknown trial engine `warp`"), "got: {err}");
    }

    #[test]
    fn campaign_zero_ckpt_every_is_rejected_at_parse_time() {
        let err = parse_campaign(&strings(&["--ckpt-every", "0"]))
            .err()
            .expect("zero interval must be rejected")
            .to_string();
        assert!(
            err.contains("--ckpt-every") && err.contains("at least 1"),
            "got: {err}"
        );
        assert!(parse_campaign(&strings(&["--trial-limit", "0"])).is_err());
    }

    #[test]
    fn campaign_resume_excludes_outcomes_jsonl() {
        let err = parse_campaign(&strings(&[
            "--resume",
            "a.jsonl",
            "--outcomes-jsonl",
            "b.jsonl",
        ]))
        .err()
        .expect("conflicting log flags must be rejected")
        .to_string();
        assert!(err.contains("--resume"), "got: {err}");
        // Each alone is fine.
        assert_eq!(
            parse_campaign(&strings(&["--resume", "a.jsonl"]))
                .unwrap()
                .resume
                .as_deref(),
            Some("a.jsonl")
        );
    }

    #[test]
    fn scheme_names_come_from_the_registry() {
        // Every registered scheme parses in every front end that takes
        // one, with no per-command allow-list to fall out of date.
        for s in Scheme::ALL {
            let o = parse_run(&strings(&["--kernel", "strings", "--scheme", s.name()])).unwrap();
            assert_eq!(o.scheme, s.name());
            assert_eq!(
                parse_campaign(&strings(&["--scheme", s.name()]))
                    .unwrap()
                    .scheme,
                s
            );
        }
        let o = parse_run(&strings(&["--kernel", "strings", "--scheme", "emulate"])).unwrap();
        assert_eq!(o.scheme, "emulate");
    }

    #[test]
    fn unknown_scheme_errors_list_the_registry() {
        for parse in [
            parse_run(&strings(&["--kernel", "strings", "--scheme", "tmr"])),
            parse_campaign(&strings(&["--scheme", "tmr"])).map(|_| unreachable!()),
            parse_shard(&strings(&["--scheme", "tmr"])).map(|_| unreachable!()),
        ] {
            let err = parse
                .err()
                .expect("unknown scheme must be rejected")
                .to_string();
            assert!(err.contains("unknown scheme `tmr`"), "got: {err}");
            for s in Scheme::ALL {
                assert!(err.contains(s.name()), "error must offer {s}: {err}");
            }
        }
        // `emulate` is a run-only pseudo-scheme, not a detection scheme.
        assert!(parse_campaign(&strings(&["--scheme", "emulate"])).is_err());
        assert!(parse_shard(&strings(&["--scheme", "emulate"])).is_err());
    }

    #[test]
    fn scheme_prefixes_resolve_when_unambiguous() {
        let o = parse_run(&strings(&["--kernel", "strings", "--scheme", "ree"])).unwrap();
        assert_eq!(o.scheme, "reese");
        assert_eq!(
            parse_campaign(&strings(&["--scheme", "me"]))
                .unwrap()
                .scheme,
            Scheme::Meek
        );
        assert_eq!(
            parse_shard(&strings(&["--scheme", "d"])).unwrap().scheme,
            Scheme::Duplex
        );
    }

    #[test]
    fn ambiguous_names_are_rejected_not_guessed() {
        // The registry's names currently share no prefixes, so drive
        // the resolver directly with a colliding candidate set.
        let err = resolve("scheme", "re", &["reese", "replay"])
            .expect_err("shared prefix must be ambiguous")
            .to_string();
        assert!(err.contains("ambiguous scheme `re`"), "got: {err}");
        assert!(
            err.contains("reese") && err.contains("replay"),
            "got: {err}"
        );
        // The empty string prefixes everything; it must never resolve.
        assert!(resolve("scheme", "", &["reese", "replay"]).is_err());
        // Exact names win even when they prefix a longer candidate.
        assert_eq!(
            resolve("scheme", "reese", &["reese", "reese2"]).unwrap(),
            "reese"
        );
    }

    #[test]
    fn schemes_options_parse() {
        let o = parse_schemes(&strings(&[
            "--kernel", "strings", "--trials", "7", "--seed", "3", "-j", "2", "--engine", "full",
            "--csv", "s.csv", "--json", "s.json",
        ]))
        .unwrap();
        assert_eq!(o.programs.len(), 1);
        assert_eq!(o.programs[0].0, "strings");
        assert_eq!(o.eval.trials, 7);
        assert_eq!(o.eval.seed, 3);
        assert_eq!(o.eval.jobs, 2);
        assert_eq!(o.eval.engine, reese::faults::TrialEngine::Full);
        assert_eq!(o.csv.as_deref(), Some("s.csv"));
        assert_eq!(o.json.as_deref(), Some("s.json"));
        // No kernel filter → the whole suite, in registry order.
        let all = parse_schemes(&[]).unwrap();
        assert_eq!(all.programs.len(), Kernel::ALL.len());
        assert!(parse_schemes(&strings(&["--scale", "2", "--target", "100"])).is_err());
        assert!(parse_schemes(&strings(&["--trials", "0"])).is_err());
    }

    #[test]
    fn observability_flags_parse_on_campaign_and_schemes() {
        let o = parse_campaign(&strings(&["--telemetry-out", "tele.jsonl"])).unwrap();
        assert_eq!(o.telemetry_out.as_deref(), Some("tele.jsonl"));
        let o = parse_schemes(&strings(&[
            "--kernel",
            "lisp",
            "--telemetry-out",
            "tele.jsonl",
            "--trace-out",
            "trace.json",
            "--metrics-out",
            "metrics.csv",
            "--metrics-interval",
            "500",
        ]))
        .unwrap();
        assert_eq!(
            o.eval.telemetry_out.as_deref(),
            Some(std::path::Path::new("tele.jsonl"))
        );
        assert_eq!(o.c.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(o.c.metrics_out.as_deref(), Some("metrics.csv"));
        assert_eq!(o.c.metrics_interval, 500);
        assert!(parse_schemes(&strings(&["--metrics-interval", "0"])).is_err());
    }

    #[test]
    fn explain_options_parse() {
        let o = parse_explain(&strings(&[
            "--outcomes",
            "camp.jsonl",
            "--trial",
            "17",
            "--kernel",
            "database",
            "--scheme",
            "duplex",
            "--out",
            "story.txt",
            "--trace-out",
            "story.json",
        ]))
        .unwrap();
        assert_eq!(o.outcomes, "camp.jsonl");
        assert_eq!(o.which, reese::faults::TrialRef::Index(17));
        assert_eq!(o.scheme, Scheme::Duplex);
        assert_eq!(o.out.as_deref(), Some("story.txt"));
        assert_eq!(o.c.trace_out.as_deref(), Some("story.json"));
        assert!(!o.program.is_empty());
        // Stable ids parse in decimal and hex.
        let o = parse_explain(&strings(&["--outcomes", "c.jsonl", "--id", "0xFA017"])).unwrap();
        assert_eq!(o.which, reese::faults::TrialRef::Id(0xFA017));
        let o = parse_explain(&strings(&["--outcomes", "c.jsonl", "--id", "12345"])).unwrap();
        assert_eq!(o.which, reese::faults::TrialRef::Id(12345));
    }

    #[test]
    fn explain_requires_an_outcomes_log_and_a_trial_address() {
        let err = parse_explain(&strings(&["--trial", "1"]))
            .err()
            .expect("missing --outcomes must be rejected")
            .to_string();
        assert!(err.contains("--outcomes"), "got: {err}");
        let err = parse_explain(&strings(&["--outcomes", "c.jsonl"]))
            .err()
            .expect("missing trial address must be rejected")
            .to_string();
        assert!(
            err.contains("--trial") && err.contains("--id"),
            "got: {err}"
        );
    }

    #[test]
    fn isa_names_come_from_the_registry() {
        // Every registered ISA parses in every front end that loads a
        // program, in either flag order relative to --kernel.
        for isa in IsaId::ALL {
            let kernel = "lisp"; // in both catalogues
            let o = parse_run(&strings(&["--isa", isa.name(), "--kernel", kernel])).unwrap();
            assert_eq!(o.program.isa(), isa);
            let o = parse_run(&strings(&["--kernel", kernel, "--isa", isa.name()])).unwrap();
            assert_eq!(o.program.isa(), isa, "--kernel before --isa must work");
            assert_eq!(
                parse_campaign(&strings(&["--isa", isa.name()]))
                    .unwrap()
                    .program
                    .isa(),
                isa,
                "default kernel must load under the selected ISA"
            );
            assert_eq!(
                parse_shard(&strings(&["--isa", isa.name()]))
                    .unwrap()
                    .program
                    .isa(),
                isa
            );
            let o = parse_explain(&strings(&[
                "--outcomes",
                "c.jsonl",
                "--trial",
                "0",
                "--isa",
                isa.name(),
            ]))
            .unwrap();
            assert_eq!(o.program.isa(), isa);
        }
        // Unambiguous prefixes resolve; unknown names list the registry.
        let o = parse_run(&strings(&["--kernel", "lisp", "--isa", "rv"])).unwrap();
        assert_eq!(o.program.isa(), IsaId::Rv32i);
        let err = parse_run(&strings(&["--kernel", "lisp", "--isa", "arm"]))
            .err()
            .expect("unknown isa must be rejected")
            .to_string();
        assert!(err.contains("unknown isa `arm`"), "got: {err}");
        for isa in IsaId::ALL {
            assert!(err.contains(isa.name()), "error must offer {isa}: {err}");
        }
    }

    #[test]
    fn rv32i_kernels_resolve_against_the_port_catalogue() {
        // `gcc` exists in the Table 2 suite but has no rv32i port; the
        // error names the ports that do exist.
        let err = parse_campaign(&strings(&["--isa", "rv32i", "--kernel", "gcc"]))
            .err()
            .expect("unported kernel must be rejected")
            .to_string();
        assert!(err.contains("no rv32i port"), "got: {err}");
        assert!(err.contains("imaging|lisp|strings"), "got: {err}");
        // The ports themselves load and carry the rv32i stamp.
        for k in Rv32Kernel::ALL {
            let o = parse_campaign(&strings(&["--isa", "rv32i", "--kernel", k.name()])).unwrap();
            assert_eq!(o.program.isa(), IsaId::Rv32i);
            assert_eq!(o.program.inst_size(), 4);
        }
    }

    #[test]
    fn schemes_isa_selects_the_kernel_catalogue() {
        let o = parse_schemes(&strings(&["--isa", "rv32i"])).unwrap();
        assert_eq!(o.programs.len(), Rv32Kernel::ALL.len());
        for (name, program) in &o.programs {
            assert_eq!(program.isa(), IsaId::Rv32i, "kernel {name}");
        }
        // --target calibration only exists for the native suite.
        let err = parse_schemes(&strings(&["--isa", "rv32i", "--target", "100000"]))
            .err()
            .expect("--target under rv32i must be rejected")
            .to_string();
        assert!(
            err.contains("--target") && err.contains("--scale"),
            "got: {err}"
        );
    }

    #[test]
    fn flat_binaries_load_through_the_isa_frontend() {
        let frontend = IsaId::Rv32i.frontend();
        let program = frontend
            .assemble("  li a0, 7\n  li a7, 93\n  ecall\n")
            .unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("reese-cli-test-{}.bin", std::process::id()));
        std::fs::write(&path, program.text_image().unwrap()).unwrap();
        let o = parse_run(&strings(&["--isa", "rv32i", path.to_str().unwrap()])).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(o.program.isa(), IsaId::Rv32i);
        assert_eq!(o.program.text(), program.text());
        // A native loader would mis-chunk the 4-byte words; the flag
        // must reject garbage rather than mis-decode it.
        let path = dir.join(format!("reese-cli-test-native-{}.bin", std::process::id()));
        std::fs::write(&path, [0xFFu8; 8]).unwrap();
        let err = parse_run(&strings(&[path.to_str().unwrap()]))
            .err()
            .expect("garbage flat binary must be rejected")
            .to_string();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("byte offset"), "got: {err}");
    }

    #[test]
    fn asm_writes_a_flat_binary_the_loader_accepts() {
        let dir = std::env::temp_dir();
        let src = dir.join(format!("reese-asm-test-{}.s", std::process::id()));
        let bin = dir.join(format!("reese-asm-test-{}.bin", std::process::id()));
        std::fs::write(&src, "  li a0, 5\n  li a7, 93\n  ecall\n").unwrap();
        cmd_asm(&strings(&[
            src.to_str().unwrap(),
            "--isa",
            "rv32i",
            "-o",
            bin.to_str().unwrap(),
        ]))
        .unwrap();
        let o = parse_run(&strings(&["--isa", "rv32i", bin.to_str().unwrap()]));
        std::fs::remove_file(&src).ok();
        let o = o.unwrap();
        assert_eq!(o.program.isa(), IsaId::Rv32i);
        assert_eq!(o.program.len(), 3);
        // The output path is mandatory — a silent default would make
        // CI scripts guess where the binary landed.
        let err = cmd_asm(&strings(&[bin.to_str().unwrap()]))
            .expect_err("missing -o must be rejected")
            .to_string();
        std::fs::remove_file(&bin).ok();
        assert!(err.contains("-o"), "got: {err}");
    }

    #[test]
    fn missing_program_is_an_error() {
        assert!(parse_run(&[]).is_err());
        let args = vec!["--scheme".to_string(), "reese".to_string()];
        assert!(parse_run(&args).is_err());
    }

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    fn rejected<T>(r: Result<T, CliError>) -> String {
        r.err().expect("arguments must be rejected").to_string()
    }

    #[test]
    fn surplus_and_unknown_arguments_are_rejected() {
        // A second program is an error naming both, not a replacement.
        let two = strings(&["a.s", "b.s"]);
        let explain = strings(&["--outcomes", "log.jsonl", "a.s", "b.s"]);
        for e in [
            rejected(parse_run(&two)),
            rejected(parse_campaign(&two)),
            rejected(parse_explain(&explain)),
            rejected(parse_shard(&two)),
            rejected(load_source(&two, false)),
            rejected(cmd_asm(&strings(&["a.s", "b.s", "-o", "a.bin"]))),
        ] {
            assert_eq!(e, "more than one program given: `a.s` and `b.s`");
        }
        // `run` treats a dash-led argument as a flag, like the others.
        for args in [&["-j", "2", "a.s"][..], &["a.s", "-j", "2"]] {
            assert_eq!(rejected(parse_run(&strings(args))), "unknown option `-j`");
        }
        // `mix`, `disasm` and `trace` take only `--isa` (and `trace`
        // `--out`), each with a value; `kernels` takes nothing.
        let e = rejected(load_source(&strings(&["lisp", "--bogus"]), false));
        assert_eq!(e, "unknown option `--bogus`");
        let e = rejected(load_source(&strings(&["lisp", "--out", "t.bin"]), false));
        assert_eq!(e, "unknown option `--out`");
        let e = rejected(load_source(&strings(&["lisp", "--out"]), true));
        assert_eq!(e, "`--out` needs a value");
        let e = rejected(cmd_asm(&strings(&["a.s", "--out"])));
        assert_eq!(e, "`--out` needs a value");
        let (_, out) = load_source(&strings(&["--out", "t.bin", "lisp"]), true).unwrap();
        assert_eq!(out.as_deref(), Some("t.bin"));
        let e = rejected(load_source(&strings(&["lisp", "--isa"]), false));
        assert_eq!(e, "`--isa` needs a value");
        assert_eq!(
            rejected(cmd_kernels(&strings(&["--isa"]))),
            "unknown option `--isa`"
        );
        assert_eq!(
            rejected(cmd_kernels(&strings(&["lisp"]))),
            "unknown option `lisp`"
        );
    }

    #[test]
    fn each_subcommand_takes_exactly_its_flags() {
        // Every flag the CLI knows, aliases included.
        const FLAGS: [&str; 43] = [
            "--scheme",
            "--isa",
            "--machine",
            "--ruu-size",
            "--lsq-size",
            "--width",
            "--spare-alus",
            "--spare-muls",
            "--rqueue",
            "--early-removal",
            "--dup-period",
            "--inject",
            "--max-insns",
            "--skip",
            "--stats",
            "--kernel",
            "--scale",
            "--trace-out",
            "--metrics-out",
            "--metrics-interval",
            "--trials",
            "--injections",
            "--seed",
            "--mix",
            "-j",
            "--jobs",
            "--engine",
            "--ckpt-every",
            "--outcomes-jsonl",
            "--resume",
            "--trial-limit",
            "--out",
            "--telemetry-out",
            "--target",
            "--csv",
            "--json",
            "--outcomes",
            "--trial",
            "--id",
            "--intervals",
            "--no-verify",
            "--snapshot",
            "-o",
        ];
        type Entry = fn(&[String]) -> Result<(), CliError>;
        // Each entry point with the flags it takes that need a value,
        // the switches it takes, and whether it takes a program `a.s`.
        let table: [(&str, Entry, &str, &str, bool); 9] = [
            (
                "run",
                |a| parse_run(a).map(drop),
                "--scheme --isa --machine --ruu-size --lsq-size --width --spare-alus \
                 --spare-muls --rqueue --dup-period --inject --max-insns --skip --kernel \
                 --scale --trace-out --metrics-out --metrics-interval",
                "--early-removal --stats",
                true,
            ),
            (
                "campaign",
                |a| parse_campaign(a).map(drop),
                "--isa --kernel --scale --machine --ruu-size --lsq-size --width \
                 --spare-alus --spare-muls --trace-out --metrics-out --metrics-interval \
                 --scheme --trials --injections --seed --mix --max-insns -j --jobs \
                 --engine --ckpt-every --outcomes-jsonl --resume --trial-limit --out \
                 --telemetry-out",
                "",
                true,
            ),
            (
                "schemes",
                |a| parse_schemes(a).map(drop),
                "--isa --kernel --scale --machine --ruu-size --lsq-size --width \
                 --trace-out --metrics-out --metrics-interval --target --trials --seed \
                 --mix --max-insns -j --jobs --engine --csv --json --telemetry-out",
                "",
                false,
            ),
            (
                "explain",
                |a| parse_explain(a).map(drop),
                "--isa --kernel --scale --machine --ruu-size --lsq-size --width \
                 --spare-alus --spare-muls --trace-out --outcomes --trial --id --scheme \
                 --out",
                "",
                true,
            ),
            (
                "shard",
                |a| parse_shard(a).map(drop),
                "--isa --kernel --scale --machine --ruu-size --lsq-size --width \
                 --trace-out --metrics-out --metrics-interval --intervals -j --jobs \
                 --scheme --out --snapshot",
                "--no-verify",
                true,
            ),
            (
                "mix, disasm",
                |a| load_source(a, false).map(drop),
                "--isa",
                "",
                true,
            ),
            (
                "trace",
                |a| load_source(a, true).map(drop),
                "--isa --out",
                "",
                true,
            ),
            ("asm", cmd_asm, "--isa -o --out", "", true),
            ("kernels", cmd_kernels, "", "", false),
        ];
        for (name, entry, values, switches, takes_program) in table {
            let takes = |list: &str, flag: &str| list.split_whitespace().any(|f| f == flag);
            for arg in FLAGS.into_iter().chain(["a.s"]) {
                let err = entry(&strings(&[arg]))
                    .err()
                    .map(|e| e.to_string())
                    .unwrap_or_default();
                let needs_value = err.starts_with('`') && err.ends_with("` needs a value");
                let unknown = err == format!("unknown option `{arg}`");
                let expect = if arg == "a.s" {
                    (false, !takes_program)
                } else if takes(values, arg) {
                    (true, false)
                } else {
                    (false, !takes(switches, arg))
                };
                assert_eq!((needs_value, unknown), expect, "{name} `{arg}`: {err}");
            }
        }
    }

    #[test]
    fn zero_metrics_interval_is_rejected_at_parse_time() {
        let err = parse_run(&strings(&[
            "--kernel",
            "strings",
            "--metrics-interval",
            "0",
        ]))
        .err()
        .expect("zero interval must be rejected")
        .to_string();
        assert!(err.contains("--metrics-interval"), "got: {err}");
        assert!(err.contains("at least 1"), "got: {err}");
        assert!(parse_campaign(&strings(&["--metrics-interval", "0"])).is_err());
        assert!(parse_shard(&strings(&["--metrics-interval", "0"])).is_err());
    }

    #[test]
    fn zero_jobs_is_rejected_at_parse_time() {
        for flag in ["-j", "--jobs"] {
            let err = parse_campaign(&strings(&[flag, "0"]))
                .err()
                .expect("zero jobs must be rejected")
                .to_string();
            assert!(err.contains(flag), "got: {err}");
            assert!(parse_shard(&strings(&[flag, "0"])).is_err());
        }
    }

    #[test]
    fn zero_intervals_is_rejected_at_parse_time() {
        let err = parse_shard(&strings(&["--intervals", "0"]))
            .err()
            .expect("zero intervals must be rejected")
            .to_string();
        assert!(
            err.contains("--intervals") && err.contains("at least 1"),
            "got: {err}"
        );
    }

    #[test]
    fn zero_scale_is_rejected_at_parse_time() {
        let args = strings(&["--kernel", "lisp", "--scale", "0"]);
        for err in [
            parse_run(&args).err().map(|e| e.to_string()),
            parse_shard(&args).err().map(|e| e.to_string()),
        ] {
            let err = err.expect("zero scale must be rejected");
            assert!(
                err.contains("--scale") && err.contains("at least 1"),
                "got: {err}"
            );
        }
    }

    #[test]
    fn zero_machine_geometry_is_rejected_at_parse_time() {
        // A zero here used to survive parsing and blow up as an
        // `assert!` inside `Ruu::with_scheduler` / `Lsq::new` /
        // `ReeseConfig::validate`; every front end must reject it, `run`
        // with the flag name.
        for flag in [
            "--ruu-size",
            "--lsq-size",
            "--width",
            "--rqueue",
            "--dup-period",
        ] {
            let err = parse_run(&strings(&["--kernel", "strings", flag, "0"]))
                .err()
                .expect("zero geometry must be rejected")
                .to_string();
            assert!(err.contains(flag), "got: {err}");
            assert!(err.contains("at least 1"), "got: {err}");
            assert!(parse_campaign(&strings(&[flag, "0"])).is_err());
            assert!(parse_shard(&strings(&[flag, "0"])).is_err());
        }
    }

    #[test]
    fn lsq_exceeding_ruu_is_rejected_at_parse_time() {
        let err = parse_run(&strings(&[
            "--kernel",
            "strings",
            "--ruu-size",
            "8",
            "--lsq-size",
            "16",
        ]))
        .err()
        .expect("LSQ > RUU must be rejected")
        .to_string();
        assert!(err.contains("--lsq-size"), "got: {err}");
        assert!(parse_campaign(&strings(&["--ruu-size", "8", "--lsq-size", "16"])).is_err());
        assert!(parse_shard(&strings(&["--ruu-size", "8", "--lsq-size", "16"])).is_err());
        // Valid overrides land in the config.
        let o = parse_run(&strings(&[
            "--kernel",
            "strings",
            "--ruu-size",
            "64",
            "--lsq-size",
            "32",
            "--width",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            (o.c.base.ruu_size, o.c.base.lsq_size, o.c.base.width),
            (64, 32, 4)
        );
    }

    #[test]
    fn non_numeric_flags_are_rejected_at_parse_time_by_name() {
        type Parse = fn(&[String]) -> Result<(), CliError>;
        let run: Parse = |a| parse_run(a).map(drop);
        let campaign: Parse = |a| parse_campaign(a).map(drop);
        let schemes: Parse = |a| parse_schemes(a).map(drop);
        let explain: Parse = |a| parse_explain(a).map(drop);
        let cases: [(Parse, &str, &str); 14] = [
            (campaign, "--trials", "abc"),
            (campaign, "--injections", "1e6"),
            (campaign, "--seed", "-1"),
            (campaign, "--max-insns", "lots"),
            (campaign, "--spare-alus", "two"),
            (run, "--skip", "10k"),
            (run, "--spare-muls", "x"),
            (run, "--inject", "5:x:p"),
            (schemes, "--seed", "0.5"),
            (explain, "--trial", "first"),
            (explain, "--id", "0xZZ"),
            (explain, "--spare-alus", "5000000000"),
            // Spares that overflow the machine's unit count (4 ALUs, 1
            // multiplier/divider) once added to it.
            (campaign, "--spare-alus", "4294967292"),
            (campaign, "--spare-muls", "4294967295"),
        ];
        for (parse, flag, raw) in cases {
            let err = parse(&strings(&[flag, raw]))
                .err()
                .unwrap_or_else(|| panic!("`{flag} {raw}` must be rejected"))
                .to_string();
            assert!(err.contains(flag), "`{flag} {raw}` got: {err}");
            let shown = if flag == "--inject" { "x" } else { raw };
            assert!(
                err.contains(&format!("`{shown}`")),
                "`{flag} {raw}` got: {err}"
            );
        }
        let err = parse_campaign(&strings(&["--trials", "abc"]))
            .err()
            .unwrap()
            .to_string();
        assert_eq!(err, "`--trials` expects an integer, got `abc`");
        let err = parse_explain(&strings(&["--spare-alus", "5000000000"]))
            .err()
            .unwrap()
            .to_string();
        assert_eq!(err, "`--spare-alus` value `5000000000` is out of range");
    }

    #[test]
    fn non_numeric_positive_flags_report_the_flag_name() {
        let err = parse_campaign(&strings(&["--jobs", "many"]))
            .err()
            .expect("non-numeric jobs must be rejected")
            .to_string();
        assert!(err.contains("--jobs") && err.contains("many"), "got: {err}");
        // Valid positive values still parse.
        let o = parse_campaign(&strings(&["--jobs", "3", "--metrics-interval", "1"])).unwrap();
        assert_eq!(o.jobs, 3);
        assert_eq!(o.c.metrics_interval, 1);
    }
}
