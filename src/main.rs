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
//! prefix of one. Likewise every `--isa` flag accepts any name from
//! the ISA registry (`native|rv32i`) and selects which frontend loads
//! the program: assembler source goes through that ISA's assembler,
//! `.bin` files load as flat text-segment images, and `--kernel`
//! names resolve against that ISA's kernel catalogue (the Table 2
//! suite for `native`, the rv32i ports for `rv32i`). `mix`, `disasm`,
//! and `trace` accept `--isa` too.
//!
//! Run options:
//!
//! ```text
//! --scheme emulate|<scheme>   machine model (default baseline)
//! --isa native|rv32i ISA frontend for the program (default native)
//! --machine starting|ruu32|wide16|ports4   base configuration (default starting)
//! --ruu-size N       override the RUU window size (≥ 1)
//! --lsq-size N       override the LSQ size (≥ 1, ≤ RUU size)
//! --width N          override the fetch/issue width (≥ 1)
//! --spare-alus N     extra integer ALUs for REESE
//! --spare-muls N     extra integer multiplier/dividers for REESE
//! --rqueue N         R-stream Queue size (default 32)
//! --early-removal    enable the §4.3 RUU-removal optimisation
//! --dup-period K     re-execute 1 in K instructions (default 1)
//! --inject SEQ:BIT:p|r   inject a transient fault (repeatable; reese and
//!                    duplex only — a fault aimed before --skip never fires)
//! --max-insns N      stop after N committed instructions
//! --skip N           fast-forward N instructions functionally first
//! --stats            print the full statistics block
//! --kernel NAME      run a built-in kernel instead of a file
//! --scale N          kernel scale (default 1)
//! --trace-out FILE   write a pipetrace (.txt → SimpleScalar-style text,
//!                    anything else → Chrome trace-event JSON for Perfetto)
//! --metrics-out FILE write per-interval metrics (.json → JSON, else CSV)
//! --metrics-interval N   sampling interval in cycles (default 10000)
//! ```
//!
//! Campaign options:
//!
//! ```text
//! --kernel NAME | <file.s>   workload (default kernel `lisp`)
//! --scale N          kernel scale (default 1)
//! --isa native|rv32i ISA frontend for the workload (default native)
//! --scheme <scheme>  detection scheme under test (default reese)
//! --trials N         number of injection trials (default 200)
//! --injections N     alias for --trials
//! --seed S           campaign PRNG seed (default 0xFA017)
//! --mix broad|result fault-class mix (default broad)
//! --machine ...      base configuration, as for `run`
//! --spare-alus N / --spare-muls N   REESE spare elements
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
//! --trace-out FILE   pipetrace of the clean reference run
//! --metrics-out FILE per-interval metrics pooled across simulated trials
//! --metrics-interval N   sampling interval in cycles (default 10000)
//! --telemetry-out FILE   stream a JSONL telemetry journal (phase
//!                    timings, worker throughput, memo hit rate, ETA)
//! ```
//!
//! Schemes options:
//!
//! ```text
//! --kernel NAME      restrict to one kernel (repeatable; default: the
//!                    selected ISA's whole catalogue)
//! --scale N          kernel scale (default 1)
//! --isa native|rv32i kernel catalogue to rank on (default native)
//! --target N         calibrate each kernel to ≥ N dynamic instructions
//!                    (native suite only; rv32i ports take --scale)
//! --trials N         injection trials per (scheme, kernel) cell (default 100)
//! --seed S           campaign PRNG seed (default 0xFA017)
//! --mix broad|result fault-class mix (default result)
//! --machine ...      base configuration, as for `run`
//! --max-insns N      per-run committed-instruction budget
//! -j N, --jobs N     worker threads (default 1)
//! --engine full|replay   trial engine (default replay)
//! --csv FILE         write the per-cell table as CSV
//! --json FILE        write rows + ranking as JSON
//! --trace-out FILE   stitched pipetrace of the clean REESE run on
//!                    every evaluated kernel (cycle-offset merged)
//! --metrics-out FILE stitched per-interval metrics of those runs
//! --metrics-interval N   sampling interval in cycles (default 10000)
//! --telemetry-out FILE   one JSONL telemetry journal across all
//!                    (scheme, kernel) cells, bracketed by cell_start
//! ```
//!
//! Explain options:
//!
//! ```text
//! --outcomes FILE    campaign log (--outcomes-jsonl/--resume file) [required]
//! --trial N          address the trial by index in the log
//! --id N             address the trial by stable id (decimal or 0xHEX)
//! --kernel NAME | <file.s>   the campaign's workload (default `lisp`)
//! --scale N          kernel scale (default 1)
//! --isa native|rv32i the campaign's ISA (default native)
//! --scheme <scheme>  the campaign's detection scheme (default reese)
//! --machine ...      base configuration, as for `run`
//! --spare-alus N / --spare-muls N   REESE spare elements
//! --out FILE         write the forensic timeline text to FILE
//! --trace-out FILE   Chrome trace-event JSON of the faulty window with
//!                    inject/diverge/detect markers (Perfetto-loadable)
//! ```
//!
//! The workload, scheme, and machine flags must repeat whatever the
//! campaign ran with; `explain` cross-checks them against the log
//! header before simulating and refuses on mismatch.
//!
//! Shard options:
//!
//! ```text
//! --kernel NAME | <file.s>   workload (default kernel `lisp`)
//! --scale N          kernel scale (default 1)
//! --isa native|rv32i ISA frontend for the workload (default native)
//! --intervals K      number of checkpoint intervals (default 4)
//! -j N, --jobs N     worker threads (default: available parallelism)
//! --scheme <scheme>  interval timing machine (default reese;
//!                    must be shardable: baseline|reese|duplex)
//! --machine ...      base configuration, as for `run`
//! --no-verify        skip the monolithic run (no cycle-error oracle)
//! --out FILE         write the shard report as JSON
//! --snapshot FILE    write the first mid-run checkpoint to FILE
//! --trace-out FILE   stitched pipetrace across the intervals
//! --metrics-out FILE stitched per-interval metrics (.json → JSON, else CSV)
//! --metrics-interval N   sampling interval in cycles (default 10000)
//! ```

use reese::ckpt::{self, Scheme, ShardOptions};
use reese::core::{DuplexSim, Faults, InjectedFault, ReeseConfig, ReeseResult, ReeseSim};
use reese::cpu::Emulator;
use reese::faults::schemes::EvalOptions;
use reese::faults::SchemesReport;
use reese::isa::{IsaId, Program};
use reese::pipeline::{PipelineConfig, PipelineSim, RunSpec};
use reese::trace::{MetricsSeries, NoopObserver, Observer, TraceRing, Tracer};
use reese::workloads::rv32::Rv32Kernel;
use reese::workloads::{measure_mix, Kernel};
use std::process::ExitCode;

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

/// Resolves the program-selection flags shared by every subcommand
/// (positional file, `--kernel`, `--scale`, `--isa`) into a program.
/// Kernel names resolve *after* the argument loop so `--kernel` and
/// `--isa` compose in either order.
fn load_program(
    isa: IsaId,
    file: Option<String>,
    kernel: Option<String>,
    scale: u32,
    default_kernel: Option<&str>,
) -> Result<Program, CliError> {
    match (file, kernel) {
        (Some(_), Some(_)) => Err("give a file or --kernel, not both".into()),
        (Some(path), None) => load_file(isa, &path),
        (None, Some(name)) => build_kernel(isa, &name, scale),
        (None, None) => match default_kernel {
            Some(name) => build_kernel(isa, name, scale),
            None => Err("give an assembly file or --kernel NAME".into()),
        },
    }
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

struct RunOpts {
    program: Program,
    scheme: String,
    base: PipelineConfig,
    spare_alus: u32,
    spare_muls: u32,
    rqueue: usize,
    early_removal: bool,
    dup_period: u64,
    faults: Vec<InjectedFault>,
    max_insns: u64,
    skip: u64,
    verbose: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    metrics_interval: u64,
}

impl RunOpts {
    /// The timed run of a redundant scheme (`reese` or `duplex`): the
    /// fast-forward, instruction limit, and injected faults all go into
    /// one run spec, so any combination of them is honoured.
    fn run_redundant<O: Observer>(&self, obs: &mut O) -> Result<ReeseResult, CliError> {
        let spec = RunSpec::skipping(&self.program, self.skip).limit(self.max_insns);
        let run = if self.scheme == "duplex" {
            DuplexSim::new(self.base.clone()).simulate(spec.faults(&self.faults[..]), obs)
        } else {
            let cfg = ReeseConfig::over(self.base.clone())
                .with_spare_int_alus(self.spare_alus)
                .with_spare_int_muldivs(self.spare_muls)
                .with_rqueue_size(self.rqueue)
                .with_early_removal(self.early_removal)
                .with_duplication_period(self.dup_period);
            ReeseSim::new(cfg).simulate(spec.faults(Faults::Latch(&self.faults)), obs)
        };
        Ok(run?)
    }

    /// A collecting tracer when any observability output was requested;
    /// `None` keeps the simulators on the statically-dispatched no-op
    /// path.
    fn tracer(&self) -> Option<Tracer> {
        (self.trace_out.is_some() || self.metrics_out.is_some())
            .then(|| Tracer::new().with_interval(self.metrics_interval))
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

/// Flushes a finished run's tracer to the requested output files.
fn write_observability(
    tracer: Option<Tracer>,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
) -> Result<(), CliError> {
    let Some(mut t) = tracer else {
        return Ok(());
    };
    t.finish();
    let (ring, metrics) = t.into_parts();
    if let Some(path) = trace_out {
        write_trace(path, &ring)?;
    }
    if let Some(path) = metrics_out {
        write_metrics(path, &metrics)?;
    }
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

/// Rejects inconsistent machine-geometry overrides at parse time, so
/// a bad `--ruu-size`/`--lsq-size` pair surfaces as a CLI error instead
/// of an `assert!` deep inside `PipelineConfig::validate`.
fn check_geometry(base: &PipelineConfig) -> Result<(), CliError> {
    if base.lsq_size > base.ruu_size {
        return Err(format!(
            "`--lsq-size` ({}) must not exceed the RUU size ({}) — the LSQ tracks a subset of the RUU window",
            base.lsq_size, base.ruu_size
        )
        .into());
    }
    Ok(())
}

fn parse_run(args: &[String]) -> Result<RunOpts, CliError> {
    let mut opts = RunOpts {
        program: Program::from_text(vec![]),
        scheme: "baseline".into(),
        base: PipelineConfig::starting(),
        spare_alus: 0,
        spare_muls: 0,
        rqueue: 32,
        early_removal: false,
        dup_period: 1,
        faults: Vec::new(),
        max_insns: u64::MAX,
        skip: 0,
        verbose: false,
        trace_out: None,
        metrics_out: None,
        metrics_interval: Tracer::DEFAULT_INTERVAL,
    };
    let mut file: Option<String> = None;
    let mut kernel: Option<String> = None;
    let mut scale: u32 = 1;
    let mut isa = IsaId::Native;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| format!("`{a}` needs a value").into())
        };
        match a.as_str() {
            "--scheme" => opts.scheme = resolve("scheme", value()?, &run_scheme_names())?.into(),
            "--isa" => isa = parse_isa(value()?)?,
            "--machine" => opts.base = machine(value()?)?,
            "--ruu-size" => opts.base.ruu_size = positive(a, value()?)?,
            "--lsq-size" => opts.base.lsq_size = positive(a, value()?)?,
            "--width" => opts.base.width = positive(a, value()?)?,
            "--spare-alus" => opts.spare_alus = number(a, value()?)?,
            "--spare-muls" => opts.spare_muls = number(a, value()?)?,
            "--rqueue" => opts.rqueue = number(a, value()?)?,
            "--early-removal" => opts.early_removal = true,
            "--dup-period" => opts.dup_period = number(a, value()?)?,
            "--inject" => opts.faults.push(parse_fault(value()?)?),
            "--max-insns" => opts.max_insns = number(a, value()?)?,
            "--skip" => opts.skip = number(a, value()?)?,
            "--stats" => opts.verbose = true,
            "--kernel" => kernel = Some(value()?.clone()),
            "--scale" => scale = positive(a, value()?)?,
            "--trace-out" => opts.trace_out = Some(value()?.clone()),
            "--metrics-out" => opts.metrics_out = Some(value()?.clone()),
            "--metrics-interval" => opts.metrics_interval = positive(a, value()?)?,
            other if !other.starts_with('-') => positional(&mut file, other)?,
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    opts.program = load_program(isa, file, kernel, scale, None)?;
    check_geometry(&opts.base)?;
    Ok(opts)
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let o = parse_run(args)?;
    match o.scheme.as_str() {
        "emulate" => {
            if o.trace_out.is_some() || o.metrics_out.is_some() {
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
            let mut tracer = o.tracer();
            let sim = PipelineSim::new(o.base);
            let spec = RunSpec::skipping(&o.program, o.skip).limit(o.max_insns);
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
            write_observability(tracer, o.trace_out.as_deref(), o.metrics_out.as_deref())?;
        }
        "duplex" | "reese" => {
            let mut tracer = o.tracer();
            let r = match &mut tracer {
                Some(t) => o.run_redundant(t)?,
                None => o.run_redundant(&mut NoopObserver)?,
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
            write_observability(tracer, o.trace_out.as_deref(), o.metrics_out.as_deref())?;
        }
        name @ ("meek" | "swift") => {
            let scheme = Scheme::parse(name).expect("registry name");
            if o.trace_out.is_some() || o.metrics_out.is_some() {
                return Err(
                    format!("--trace-out/--metrics-out are not supported for `{name}`").into(),
                );
            }
            if !o.faults.is_empty() || o.skip > 0 {
                return Err(format!(
                    "`{name}` runs clean here; inject faults with `reese campaign --scheme {name}`"
                )
                .into());
            }
            let cfg = ReeseConfig::over(o.base);
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
    program: Program,
    scale: u32,
    scheme: Scheme,
    mix: reese::faults::FaultMix,
    trials: usize,
    seed: u64,
    base: PipelineConfig,
    spare_alus: u32,
    spare_muls: u32,
    max_insns: u64,
    jobs: usize,
    engine: reese::faults::TrialEngine,
    ckpt_every: u64,
    outcomes_jsonl: Option<String>,
    resume: Option<String>,
    trial_limit: Option<usize>,
    out: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    metrics_interval: u64,
    telemetry_out: Option<String>,
}

fn parse_campaign(args: &[String]) -> Result<CampaignOpts, CliError> {
    let mut opts = CampaignOpts {
        program: Program::from_text(vec![]),
        scale: 1,
        scheme: Scheme::Reese,
        mix: reese::faults::FaultMix::broad(),
        trials: 200,
        seed: 0xFA017,
        base: PipelineConfig::starting(),
        spare_alus: 0,
        spare_muls: 0,
        max_insns: u64::MAX,
        jobs: reese::stats::available_jobs(),
        engine: reese::faults::TrialEngine::Replay,
        ckpt_every: reese::faults::DEFAULT_CKPT_EVERY,
        outcomes_jsonl: None,
        resume: None,
        trial_limit: None,
        out: None,
        trace_out: None,
        metrics_out: None,
        metrics_interval: Tracer::DEFAULT_INTERVAL,
        telemetry_out: None,
    };
    let mut file: Option<String> = None;
    let mut kernel: Option<String> = None;
    let mut isa = IsaId::Native;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| format!("`{a}` needs a value").into())
        };
        match a.as_str() {
            "--trials" | "--injections" => opts.trials = number(a, value()?)?,
            "--isa" => isa = parse_isa(value()?)?,
            "--scale" => opts.scale = positive(a, value()?)?,
            "--scheme" => opts.scheme = parse_scheme(value()?)?,
            "--seed" => opts.seed = number(a, value()?)?,
            "--mix" => {
                opts.mix = match value()?.as_str() {
                    "broad" => reese::faults::FaultMix::broad(),
                    "result" => reese::faults::FaultMix::result_errors_only(),
                    other => return Err(format!("unknown mix `{other}`, want broad|result").into()),
                }
            }
            "--machine" => opts.base = machine(value()?)?,
            "--ruu-size" => opts.base.ruu_size = positive(a, value()?)?,
            "--lsq-size" => opts.base.lsq_size = positive(a, value()?)?,
            "--width" => opts.base.width = positive(a, value()?)?,
            "--spare-alus" => opts.spare_alus = number(a, value()?)?,
            "--spare-muls" => opts.spare_muls = number(a, value()?)?,
            "--max-insns" => opts.max_insns = number(a, value()?)?,
            "-j" | "--jobs" => opts.jobs = positive(a, value()?)?,
            "--engine" => opts.engine = value()?.parse::<reese::faults::TrialEngine>()?,
            "--ckpt-every" => opts.ckpt_every = positive(a, value()?)?,
            "--outcomes-jsonl" => opts.outcomes_jsonl = Some(value()?.clone()),
            "--resume" => opts.resume = Some(value()?.clone()),
            "--trial-limit" => opts.trial_limit = Some(positive(a, value()?)?),
            "--out" => opts.out = Some(value()?.clone()),
            "--trace-out" => opts.trace_out = Some(value()?.clone()),
            "--metrics-out" => opts.metrics_out = Some(value()?.clone()),
            "--metrics-interval" => opts.metrics_interval = positive(a, value()?)?,
            "--telemetry-out" => opts.telemetry_out = Some(value()?.clone()),
            "--kernel" => kernel = Some(value()?.clone()),
            other if !other.starts_with('-') => positional(&mut file, other)?,
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    if opts.resume.is_some() && opts.outcomes_jsonl.is_some() {
        return Err("`--resume` already appends to its log; drop `--outcomes-jsonl`".into());
    }
    opts.program = load_program(isa, file, kernel, opts.scale, Some("lisp"))?;
    check_geometry(&opts.base)?;
    Ok(opts)
}

fn cmd_campaign(args: &[String]) -> Result<(), CliError> {
    let o = parse_campaign(args)?;
    if o.trace_out.is_some() && o.scheme != Scheme::Reese {
        return Err(
            "--trace-out traces the clean REESE reference run; it needs --scheme reese".into(),
        );
    }
    let cfg = ReeseConfig::over(o.base)
        .with_spare_int_alus(o.spare_alus)
        .with_spare_int_muldivs(o.spare_muls);
    let mut campaign = reese::faults::Campaign::new(cfg.clone(), o.mix)
        .scheme(o.scheme)
        .trials(o.trials)
        .seed(o.seed)
        .max_instructions(o.max_insns)
        .jobs(o.jobs)
        .engine(o.engine)
        .ckpt_every(o.ckpt_every)
        .metrics_interval(if o.metrics_out.is_some() {
            o.metrics_interval
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
    if let Some(path) = &o.metrics_out {
        let Some(metrics) = &report.metrics else {
            return Err("campaign produced no metrics (no simulated trials?)".into());
        };
        write_metrics(path, metrics)?;
    }
    if let Some(path) = &o.trace_out {
        // The campaign itself runs thousands of short trials; a pipetrace
        // of all of them would be meaningless. Trace the clean (fault-free)
        // reference run instead, which every trial is compared against.
        let mut tracer = Tracer::new().with_interval(o.metrics_interval);
        ReeseSim::new(cfg).simulate(RunSpec::new(&o.program).limit(o.max_insns), &mut tracer)?;
        tracer.finish();
        let (ring, _) = tracer.into_parts();
        write_trace(path, &ring)?;
    }
    Ok(())
}

struct SchemesOpts {
    programs: Vec<(String, Program)>,
    mix: reese::faults::FaultMix,
    base: PipelineConfig,
    eval: EvalOptions,
    csv: Option<String>,
    json: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    metrics_interval: u64,
}

fn parse_schemes(args: &[String]) -> Result<SchemesOpts, CliError> {
    let mut opts = SchemesOpts {
        programs: Vec::new(),
        mix: reese::faults::FaultMix::result_errors_only(),
        base: PipelineConfig::starting(),
        eval: EvalOptions::default(),
        csv: None,
        json: None,
        trace_out: None,
        metrics_out: None,
        metrics_interval: Tracer::DEFAULT_INTERVAL,
    };
    let mut kernels: Vec<String> = Vec::new();
    let mut scale: u32 = 1;
    let mut target: Option<u64> = None;
    let mut isa = IsaId::Native;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| format!("`{a}` needs a value").into())
        };
        match a.as_str() {
            "--kernel" => kernels.push(value()?.clone()),
            "--isa" => isa = parse_isa(value()?)?,
            "--scale" => scale = positive(a, value()?)?,
            "--target" => target = Some(positive(a, value()?)?),
            "--trials" => opts.eval.trials = positive(a, value()?)?,
            "--seed" => opts.eval.seed = number(a, value()?)?,
            "--mix" => {
                opts.mix = match value()?.as_str() {
                    "broad" => reese::faults::FaultMix::broad(),
                    "result" => reese::faults::FaultMix::result_errors_only(),
                    other => return Err(format!("unknown mix `{other}`, want broad|result").into()),
                }
            }
            "--machine" => opts.base = machine(value()?)?,
            "--ruu-size" => opts.base.ruu_size = positive(a, value()?)?,
            "--lsq-size" => opts.base.lsq_size = positive(a, value()?)?,
            "--width" => opts.base.width = positive(a, value()?)?,
            "--max-insns" => opts.eval.max_instructions = number(a, value()?)?,
            "-j" | "--jobs" => opts.eval.jobs = positive(a, value()?)?,
            "--engine" => opts.eval.engine = value()?.parse::<reese::faults::TrialEngine>()?,
            "--csv" => opts.csv = Some(value()?.clone()),
            "--json" => opts.json = Some(value()?.clone()),
            "--trace-out" => opts.trace_out = Some(value()?.clone()),
            "--metrics-out" => opts.metrics_out = Some(value()?.clone()),
            "--metrics-interval" => opts.metrics_interval = positive(a, value()?)?,
            "--telemetry-out" => opts.eval.telemetry_out = Some(value()?.clone().into()),
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    check_geometry(&opts.base)?;
    if scale != 1 && target.is_some() {
        return Err("give --scale or --target, not both".into());
    }
    if target.is_some() && isa != IsaId::Native {
        return Err(
            "--target calibrates the native Table 2 suite; rv32i ports take --scale".into(),
        );
    }
    if kernels.is_empty() {
        // Default is the whole catalogue for the selected ISA: the
        // Table 2 suite in table order, or every rv32i port.
        kernels = match isa {
            IsaId::Native => Kernel::ALL.map(|k| k.name().to_string()).to_vec(),
            IsaId::Rv32i => Rv32Kernel::ALL.map(|k| k.name().to_string()).to_vec(),
        };
    }
    opts.programs = kernels
        .into_iter()
        .map(|name| match isa {
            IsaId::Native => {
                let k = kernel_by_name(&name)?;
                let program = match target {
                    Some(t) => k.build_for(t),
                    None => k.build(scale),
                };
                Ok((k.name().to_string(), program))
            }
            IsaId::Rv32i => {
                let k = rv32_kernel_by_name(&name)?;
                Ok((k.name().to_string(), k.build(scale)))
            }
        })
        .collect::<Result<_, CliError>>()?;
    Ok(opts)
}

fn cmd_schemes(args: &[String]) -> Result<(), CliError> {
    let o = parse_schemes(args)?;
    let cfg = ReeseConfig::over(o.base);
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
    if o.trace_out.is_some() || o.metrics_out.is_some() {
        // As for `campaign --trace-out`: per-trial traces would be
        // noise, so trace the clean REESE reference run — here once per
        // evaluated kernel, stitched end-to-end with cycle offsets.
        let mut ring = TraceRing::new(Tracer::DEFAULT_RING_CAPACITY);
        let mut metrics = MetricsSeries::default();
        let mut offset = 0u64;
        for (name, program) in &o.programs {
            let mut tracer = Tracer::new().with_interval(o.metrics_interval);
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
        if let Some(path) = &o.trace_out {
            write_trace(path, &ring)?;
        }
        if let Some(path) = &o.metrics_out {
            write_metrics(path, &metrics)?;
        }
    }
    Ok(())
}

struct ExplainOpts {
    program: Program,
    scheme: Scheme,
    base: PipelineConfig,
    spare_alus: u32,
    spare_muls: u32,
    outcomes: String,
    which: reese::faults::TrialRef,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_explain(args: &[String]) -> Result<ExplainOpts, CliError> {
    let mut opts = ExplainOpts {
        program: Program::from_text(vec![]),
        scheme: Scheme::Reese,
        base: PipelineConfig::starting(),
        spare_alus: 0,
        spare_muls: 0,
        outcomes: String::new(),
        which: reese::faults::TrialRef::Index(0),
        out: None,
        trace_out: None,
    };
    let mut file: Option<String> = None;
    let mut kernel: Option<String> = None;
    let mut scale: u32 = 1;
    let mut isa = IsaId::Native;
    let mut which: Option<reese::faults::TrialRef> = None;
    let mut outcomes: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| format!("`{a}` needs a value").into())
        };
        match a.as_str() {
            "--outcomes" => outcomes = Some(value()?.clone()),
            "--isa" => isa = parse_isa(value()?)?,
            "--trial" => {
                which = Some(reese::faults::TrialRef::Index(number(a, value()?)?));
            }
            "--id" => {
                let raw = value()?;
                let id = match raw.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).map_err(|_| {
                        format!("`{a}` expects a decimal or 0x-prefixed hex integer, got `{raw}`")
                    })?,
                    None => number(a, raw)?,
                };
                which = Some(reese::faults::TrialRef::Id(id));
            }
            "--scheme" => opts.scheme = parse_scheme(value()?)?,
            "--machine" => opts.base = machine(value()?)?,
            "--ruu-size" => opts.base.ruu_size = positive(a, value()?)?,
            "--lsq-size" => opts.base.lsq_size = positive(a, value()?)?,
            "--width" => opts.base.width = positive(a, value()?)?,
            "--spare-alus" => opts.spare_alus = number(a, value()?)?,
            "--spare-muls" => opts.spare_muls = number(a, value()?)?,
            "--scale" => scale = positive(a, value()?)?,
            "--kernel" => kernel = Some(value()?.clone()),
            "--out" => opts.out = Some(value()?.clone()),
            "--trace-out" => opts.trace_out = Some(value()?.clone()),
            other if !other.starts_with('-') => positional(&mut file, other)?,
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    opts.outcomes = outcomes.ok_or("`explain` needs --outcomes <campaign log>")?;
    opts.which = which.ok_or("address the trial with --trial <index> or --id <stable id>")?;
    opts.program = load_program(isa, file, kernel, scale, Some("lisp"))?;
    check_geometry(&opts.base)?;
    Ok(opts)
}

fn cmd_explain(args: &[String]) -> Result<(), CliError> {
    let o = parse_explain(args)?;
    let cfg = ReeseConfig::over(o.base)
        .with_spare_int_alus(o.spare_alus)
        .with_spare_int_muldivs(o.spare_muls);
    let ex = reese::faults::explain_trial(
        &cfg,
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
    if let Some(path) = &o.trace_out {
        std::fs::write(path, ex.to_chrome_json())?;
        println!("forensic trace written to {path}");
    }
    Ok(())
}

struct ShardCliOpts {
    program: Program,
    scheme: Scheme,
    base: PipelineConfig,
    shard: ShardOptions,
    out: Option<String>,
    snapshot: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

fn parse_shard(args: &[String]) -> Result<ShardCliOpts, CliError> {
    let mut opts = ShardCliOpts {
        program: Program::from_text(vec![]),
        scheme: Scheme::Reese,
        base: PipelineConfig::starting(),
        shard: ShardOptions::default(),
        out: None,
        snapshot: None,
        trace_out: None,
        metrics_out: None,
    };
    let mut file: Option<String> = None;
    let mut kernel: Option<String> = None;
    let mut scale: u32 = 1;
    let mut isa = IsaId::Native;
    let mut metrics_interval = Tracer::DEFAULT_INTERVAL;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| format!("`{a}` needs a value").into())
        };
        match a.as_str() {
            "--intervals" => opts.shard.intervals = positive(a, value()?)?,
            "--isa" => isa = parse_isa(value()?)?,
            "-j" | "--jobs" => opts.shard.jobs = positive(a, value()?)?,
            "--no-verify" => opts.shard.compare_monolithic = false,
            "--scheme" => {
                let s = parse_scheme(value()?)?;
                if !s.shardable() {
                    let shardable: Vec<&str> = Scheme::ALL
                        .into_iter()
                        .filter(|s| s.shardable())
                        .map(Scheme::name)
                        .collect();
                    return Err(format!(
                        "scheme `{s}` has no interval timing machine; shardable schemes: {}",
                        shardable.join("|")
                    )
                    .into());
                }
                opts.scheme = s;
            }
            "--machine" => opts.base = machine(value()?)?,
            "--ruu-size" => opts.base.ruu_size = positive(a, value()?)?,
            "--lsq-size" => opts.base.lsq_size = positive(a, value()?)?,
            "--width" => opts.base.width = positive(a, value()?)?,
            "--out" => opts.out = Some(value()?.clone()),
            "--snapshot" => opts.snapshot = Some(value()?.clone()),
            "--trace-out" => opts.trace_out = Some(value()?.clone()),
            "--metrics-out" => opts.metrics_out = Some(value()?.clone()),
            "--metrics-interval" => metrics_interval = positive(a, value()?)?,
            "--kernel" => kernel = Some(value()?.clone()),
            "--scale" => scale = positive(a, value()?)?,
            other if !other.starts_with('-') => positional(&mut file, other)?,
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    if opts.trace_out.is_some() || opts.metrics_out.is_some() {
        opts.shard.metrics_interval = metrics_interval;
    }
    opts.program = load_program(isa, file, kernel, scale, Some("lisp"))?;
    check_geometry(&opts.base)?;
    Ok(opts)
}

fn cmd_shard(args: &[String]) -> Result<(), CliError> {
    let o = parse_shard(args)?;
    let config = ReeseConfig::over(o.base);
    let report = ckpt::run_sharded(&o.program, &config, o.scheme, &o.shard)?;

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
        // The first mid-run checkpoint (interval 1's start), regenerated
        // from the same deterministic fast-forward pass.
        let bounds = ckpt::boundaries(report.total_instructions, o.shard.intervals);
        let which = usize::from(bounds.len() > 1);
        let cks = ckpt::checkpoints_at(&o.program, &bounds[which..=which], &config.pipeline)?;
        // Stamp the scheme so a later restore under a different machine
        // is rejected at decode time instead of silently mis-timed.
        let ck = cks
            .into_iter()
            .next()
            .expect("one boundary requested")
            .with_scheme(o.scheme);
        std::fs::write(path, ck.encode())?;
        println!(
            "checkpoint at instruction {} written to {path}",
            ck.instructions
        );
    }
    if let Some(path) = &o.trace_out {
        let Some(ring) = &report.trace else {
            return Err("sharded run produced no trace".into());
        };
        write_trace(path, ring)?;
    }
    if let Some(path) = &o.metrics_out {
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

fn shard_report_json(r: &ckpt::ShardReport) -> String {
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
    let mut isa = IsaId::Native;
    let mut source: Option<String> = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| format!("`{a}` needs a value").into())
        };
        match a.as_str() {
            "--isa" => isa = parse_isa(value()?)?,
            "--out" if with_out => out = Some(value()?.clone()),
            other if !other.starts_with('-') => positional(&mut source, other)?,
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    let Some(name) = source else {
        return Err("give an assembly file or kernel name".into());
    };
    if let Ok(program) = build_kernel(isa, &name, 1) {
        return Ok((program, out));
    }
    Ok((load_file(isa, &name)?, out))
}

/// `reese asm <file.s> --isa <isa> -o <file.bin>`: assembles source
/// through the selected ISA frontend and writes the flat text-segment
/// image, the format `load_flat` (and thus `reese run file.bin`)
/// accepts back.
fn cmd_asm(args: &[String]) -> Result<(), CliError> {
    let mut isa = IsaId::Native;
    let mut source: Option<String> = None;
    let mut out: Option<&String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--isa" => isa = parse_isa(it.next().ok_or("`--isa` needs a value")?)?,
            "-o" | "--out" => out = Some(it.next().ok_or("`-o` needs a value")?),
            other if !other.starts_with('-') => positional(&mut source, other)?,
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    let path = source.ok_or("give an assembly file")?;
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
    if let Some(a) = args.first() {
        return Err(format!("unknown option `{a}`").into());
    }
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
        assert_eq!(o.spare_alus, 2);
        assert_eq!(o.rqueue, 64);
        assert!(o.early_removal);
        assert_eq!(o.dup_period, 2);
        assert_eq!(o.faults.len(), 1);
        assert_eq!(o.max_insns, 1000);
        assert_eq!(o.skip, 10);
        assert!(o.verbose);
        assert!(!o.program.is_empty());
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
        assert_eq!(o.metrics_out.as_deref(), Some("m.csv"));
        assert_eq!(o.metrics_interval, 500);
        assert!(o.tracer().is_some());
    }

    #[test]
    fn observability_flags_default_off() {
        let args: Vec<String> = ["--kernel", "strings"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let o = parse_run(&args).unwrap();
        assert!(o.trace_out.is_none() && o.metrics_out.is_none());
        assert_eq!(o.metrics_interval, Tracer::DEFAULT_INTERVAL);
        assert!(o.tracer().is_none(), "no flags → no tracer → no-op path");
    }

    /// `reese run` on a short lisp window with extra flags, through the
    /// same timed path the CLI prints from.
    fn run_redundant(extra: &[&str]) -> reese::core::ReeseResult {
        let mut args = strings(&["--kernel", "lisp", "--max-insns", "8000"]);
        args.extend(strings(extra));
        parse_run(&args)
            .unwrap()
            .run_redundant(&mut NoopObserver)
            .unwrap()
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
        assert_eq!(o.metrics_out.as_deref(), Some("m.csv"));
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
        assert_eq!(big.scale, 4);
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
    fn shard_rejects_unshardable_schemes() {
        for name in ["meek", "swift"] {
            let err = parse_shard(&strings(&["--scheme", name]))
                .err()
                .expect("no interval machine")
                .to_string();
            assert!(err.contains(name), "got: {err}");
            assert!(err.contains("baseline|reese|duplex"), "got: {err}");
        }
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
        assert_eq!(o.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(o.metrics_out.as_deref(), Some("metrics.csv"));
        assert_eq!(o.metrics_interval, 500);
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
        assert_eq!(o.trace_out.as_deref(), Some("story.json"));
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
        // `assert!` inside `Ruu::with_scheduler` / `Lsq::new`; all
        // three front ends must reject it with the flag name instead.
        for flag in ["--ruu-size", "--lsq-size", "--width"] {
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
            (o.base.ruu_size, o.base.lsq_size, o.base.width),
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
        let cases: [(Parse, &str, &str); 12] = [
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
        assert_eq!(o.metrics_interval, 1);
    }
}
