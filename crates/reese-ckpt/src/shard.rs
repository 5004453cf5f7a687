//! The sharded single-run driver: split one long simulation into K
//! intervals at checkpoint boundaries, simulate each interval's
//! detailed timing on a worker pool, and stitch the per-interval
//! instruction and cycle counts, output, and observations into one
//! report.
//!
//! Functional results (instruction counts, committed architectural
//! state, program output) are *exact* — the emulator continues
//! bit-identically from a restored checkpoint. Cycle counts are close
//! but not exact: each interval restores caches, TLBs, and branch
//! predictor with the full history of the prefix before it (the same
//! continuous-warm checkpoints a fault campaign anchors its trials on)
//! but starts with an empty pipeline, so the stitched cycle total
//! carries a pipeline-fill error per interior boundary that the oracle
//! measures against a monolithic run.
//!
//! Checkpoints cross the worker boundary in their serialized form: each
//! worker decodes the binary frame, restores the emulator, and runs its
//! interval, so every sharded run also exercises the wire format
//! end-to-end.

use crate::{boundaries, checkpoints_at, Checkpoint, CkptError, Scheme, MAX_RESIDENT_CHECKPOINTS};
use reese_core::{DuplexSim, ReeseConfig, ReeseError, ReeseSim};
use reese_cpu::{EmuError, Emulator, StopReason};
use reese_isa::Program;
use reese_pipeline::{PipelineSim, PipelineStats, RunSpec};
use reese_stats::{par_map_indexed, ParallelStats};
use reese_trace::{MetricsSeries, NoopObserver, TraceRing, Tracer};
use std::fmt;

/// Why a sharded run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// The scheme has no per-interval timing machine (see
    /// [`Scheme::shardable`]).
    UnsupportedScheme(Scheme),
    /// The functional reference run failed.
    Emu(EmuError),
    /// The program never halts, so it cannot be split into a finite
    /// number of intervals.
    DidNotHalt,
    /// A checkpoint failed to decode on a worker.
    Ckpt(CkptError),
    /// A detailed interval simulation failed.
    Interval {
        /// Which interval.
        index: usize,
        /// The simulator's error.
        source: ReeseError,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::UnsupportedScheme(s) => {
                write!(f, "scheme `{s}` has no sharded interval machine")
            }
            ShardError::Emu(e) => write!(f, "functional reference run failed: {e}"),
            ShardError::DidNotHalt => write!(f, "program did not halt; cannot shard"),
            ShardError::Ckpt(e) => write!(f, "checkpoint rejected: {e}"),
            ShardError::Interval { index, source } => {
                write!(f, "interval {index} simulation failed: {source}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<EmuError> for ShardError {
    fn from(e: EmuError) -> ShardError {
        ShardError::Emu(e)
    }
}

/// How to shard a run.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Number of intervals K (collapsed if the program is shorter), at
    /// most [`MAX_RESIDENT_CHECKPOINTS`].
    pub intervals: usize,
    /// Worker threads for the interval simulations.
    pub jobs: usize,
    /// Also run the monolithic detailed simulation and measure the
    /// stitched cycle error against it.
    pub compare_monolithic: bool,
    /// Bound on the functional reference pass; a program still running
    /// after this many instructions is treated as non-halting.
    pub max_instructions: u64,
    /// Sampling interval in cycles for the per-interval metrics series
    /// and pipetrace ring. 0 (the default) runs the intervals
    /// unobserved — the zero-cost path.
    pub metrics_interval: u64,
}

impl Default for ShardOptions {
    fn default() -> ShardOptions {
        ShardOptions {
            intervals: 4,
            jobs: reese_stats::available_jobs(),
            compare_monolithic: true,
            max_instructions: u64::MAX,
            metrics_interval: 0,
        }
    }
}

/// One interval's detailed-timing outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalResult {
    /// First dynamic instruction of this interval.
    pub start: u64,
    /// Instructions committed by this interval's detailed run.
    pub instructions: u64,
    /// Cycles this interval's detailed run took.
    pub cycles: u64,
}

/// The exactness/accuracy oracle: functional quantities must match
/// bit-for-bit; cycles are compared against the monolithic run when
/// available.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOracle {
    /// Stitched committed-instruction count equals the functional run's.
    pub instructions_match: bool,
    /// Final architectural state digest equals the functional run's.
    pub digest_match: bool,
    /// Concatenated program output equals the functional run's.
    pub output_match: bool,
    /// Monolithic detailed cycle count, if measured.
    pub monolithic_cycles: Option<u64>,
    /// Relative cycle error of the stitched total vs monolithic:
    /// `(sharded - monolithic) / monolithic`.
    pub cycle_error: Option<f64>,
}

impl ShardOracle {
    /// All functional quantities match bit-for-bit.
    pub fn exact(&self) -> bool {
        self.instructions_match && self.digest_match && self.output_match
    }
}

/// The stitched result of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Which machine simulated the intervals.
    pub scheme: Scheme,
    /// Dynamic instruction count of the whole program.
    pub total_instructions: u64,
    /// Per-interval outcomes, in program order.
    pub intervals: Vec<IntervalResult>,
    /// Sum of per-interval cycle counts.
    pub sharded_cycles: u64,
    /// Concatenated program output.
    pub output: Vec<i64>,
    /// Exit code from the final interval.
    pub exit_code: Option<u64>,
    /// Final architectural state digest, from the final interval.
    pub state_digest: u64,
    /// The exactness/accuracy oracle verdict.
    pub oracle: ShardOracle,
    /// Worker-pool throughput for the interval simulations.
    pub parallel: ParallelStats,
    /// Total size of the serialized checkpoints shipped to workers.
    pub checkpoint_bytes: usize,
    /// Per-interval metrics stitched onto the global cycle axis, when
    /// [`ShardOptions::metrics_interval`] asked for observation.
    pub metrics: Option<MetricsSeries>,
    /// Pipetrace events stitched onto the global cycle axis, when
    /// observation was requested.
    pub trace: Option<TraceRing>,
}

impl ShardReport {
    /// Stitched instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.sharded_cycles == 0 {
            return 0.0;
        }
        self.total_instructions as f64 / self.sharded_cycles as f64
    }
}

/// What one worker sends back: the scheme-independent slice of a
/// detailed run.
struct Outcome {
    instructions: u64,
    cycles: u64,
    output: Vec<i64>,
    exit_code: Option<u64>,
    state_digest: u64,
    metrics: Option<MetricsSeries>,
    trace: Option<TraceRing>,
}

impl Outcome {
    /// The run's committed instruction and cycle counts come from its
    /// timing statistics; observations are attached afterwards.
    fn new(
        stats: &PipelineStats,
        output: Vec<i64>,
        exit_code: Option<u64>,
        state_digest: u64,
    ) -> Outcome {
        Outcome {
            instructions: stats.committed,
            cycles: stats.cycles,
            output,
            exit_code,
            state_digest,
            metrics: None,
            trace: None,
        }
    }
}

/// Splits one run of `program` into `opts.intervals` intervals at
/// checkpoint boundaries, simulates each interval's detailed timing
/// under `scheme` on `opts.jobs` workers, and stitches the results.
///
/// # Errors
///
/// Returns a [`ShardError`] if the program does not halt, a checkpoint
/// fails to decode, or any interval simulation fails.
pub fn run_sharded(
    program: &Program,
    config: &ReeseConfig,
    scheme: Scheme,
    opts: &ShardOptions,
) -> Result<ShardReport, ShardError> {
    if !scheme.shardable() {
        return Err(ShardError::UnsupportedScheme(scheme));
    }
    // Every interval's checkpoint stays resident until the stitch.
    if opts.intervals > MAX_RESIDENT_CHECKPOINTS {
        return Err(ShardError::Ckpt(CkptError::TooManyCheckpoints {
            requested: opts.intervals,
            cap: MAX_RESIDENT_CHECKPOINTS,
        }));
    }

    // Pass 1: the functional reference run. Its instruction count fixes
    // the boundaries; its digest and output are the oracle's ground
    // truth.
    let reference = Emulator::new(program).run(opts.max_instructions)?;
    let StopReason::Halted { .. } = reference.stop else {
        return Err(ShardError::DidNotHalt);
    };
    let total = reference.instructions;

    // Pass 2: fast-forward, emitting one continuous-warm checkpoint per
    // interval start.
    let bounds = boundaries(total, opts.intervals);
    let mut ckpts = checkpoints_at(program, &bounds, &config.pipeline)?;
    for ck in &mut ckpts {
        ck.scheme = scheme;
    }

    // Ship each interval to the pool in serialized form.
    let jobs: Vec<(Vec<u8>, u64)> = ckpts
        .iter()
        .enumerate()
        .map(|(i, ck)| {
            let end = bounds.get(i + 1).copied().unwrap_or(total);
            (ck.encode(), end - bounds[i])
        })
        .collect();
    let checkpoint_bytes = jobs.iter().map(|(bytes, _)| bytes.len()).sum();

    let (results, parallel) = par_map_indexed(opts.jobs, &jobs, |index, (bytes, len)| {
        run_one_interval(program, config, scheme, bytes, *len, opts.metrics_interval).map_err(
            |source| match source {
                IntervalError::Ckpt(e) => ShardError::Ckpt(e),
                IntervalError::Sim(source) => ShardError::Interval { index, source },
            },
        )
    });

    // Stitch, in program order. Each interval's observer ran on a local
    // clock starting at zero, so its rows and events are shifted by the
    // cycles of every interval before it.
    let mut intervals = Vec::with_capacity(results.len());
    let mut output = Vec::new();
    let mut exit_code = None;
    let mut state_digest = 0;
    let mut committed_total = 0u64;
    let mut metrics: Option<MetricsSeries> = None;
    let mut trace: Option<TraceRing> = None;
    let mut cycle_offset = 0u64;
    for (i, result) in results.into_iter().enumerate() {
        let outcome = result?;
        intervals.push(IntervalResult {
            start: bounds[i],
            instructions: outcome.instructions,
            cycles: outcome.cycles,
        });
        committed_total += outcome.instructions;
        output.extend_from_slice(&outcome.output);
        exit_code = outcome.exit_code;
        state_digest = outcome.state_digest;
        if let Some(m) = &outcome.metrics {
            metrics
                .get_or_insert_with(|| MetricsSeries::new(m.interval))
                .merge_concat(m, cycle_offset);
        }
        if let Some(t) = &outcome.trace {
            trace
                .get_or_insert_with(|| TraceRing::new(t.capacity()))
                .merge_concat(t, cycle_offset);
        }
        cycle_offset += outcome.cycles;
    }
    let sharded_cycles = cycle_offset;

    // The oracle: functional exactness always; cycle accuracy when the
    // monolithic detailed run is requested.
    let monolithic_cycles = if opts.compare_monolithic {
        Some(run_monolithic(program, config, scheme)?)
    } else {
        None
    };
    let oracle = ShardOracle {
        instructions_match: committed_total == total,
        digest_match: state_digest == reference.state_digest,
        output_match: output == reference.output,
        monolithic_cycles,
        cycle_error: monolithic_cycles
            .map(|mono| (sharded_cycles as f64 - mono as f64) / mono as f64),
    };

    Ok(ShardReport {
        scheme,
        total_instructions: total,
        intervals,
        sharded_cycles,
        output,
        exit_code,
        state_digest,
        oracle,
        parallel,
        checkpoint_bytes,
        metrics,
        trace,
    })
}

enum IntervalError {
    Ckpt(CkptError),
    Sim(ReeseError),
}

fn run_one_interval(
    program: &Program,
    config: &ReeseConfig,
    scheme: Scheme,
    bytes: &[u8],
    len: u64,
    metrics_interval: u64,
) -> Result<Outcome, IntervalError> {
    let ck = Checkpoint::decode_for(bytes, scheme, program.isa()).map_err(IntervalError::Ckpt)?;
    let emulator = ck.restore(program);
    let warm = ck.warm.as_ref();
    let mut tracer = (metrics_interval > 0).then(|| Tracer::new().with_interval(metrics_interval));
    let mut outcome = match scheme {
        Scheme::Baseline => {
            let sim = PipelineSim::new(config.pipeline.clone());
            let spec = RunSpec::restored(emulator, warm).limit(len);
            match &mut tracer {
                Some(t) => sim.simulate(spec, t),
                None => sim.simulate(spec, &mut NoopObserver),
            }
            .map(|r| Outcome::new(&r.stats, r.output, r.exit_code, r.state_digest))
            .map_err(|e| IntervalError::Sim(ReeseError::Sim(e)))?
        }
        Scheme::Reese => {
            let sim = ReeseSim::new(config.clone());
            let spec = RunSpec::restored(emulator, warm).limit(len);
            match &mut tracer {
                Some(t) => sim.simulate(spec, t),
                None => sim.simulate(spec, &mut NoopObserver),
            }
            .map(|r| Outcome::new(&r.stats.pipeline, r.output, r.exit_code, r.state_digest))
            .map_err(IntervalError::Sim)?
        }
        Scheme::Duplex => {
            let sim = DuplexSim::new(config.pipeline.clone());
            let spec = RunSpec::restored(emulator, warm).limit(len);
            match &mut tracer {
                Some(t) => sim.simulate(spec, t),
                None => sim.simulate(spec, &mut NoopObserver),
            }
            .map(|r| Outcome::new(&r.stats.pipeline, r.output, r.exit_code, r.state_digest))
            .map_err(IntervalError::Sim)?
        }
        // `run_sharded` rejects non-shardable schemes before dispatch.
        Scheme::Meek | Scheme::Swift => unreachable!("non-shardable scheme reached a worker"),
    };
    if let Some(mut t) = tracer {
        t.finish();
        let (ring, metrics) = t.into_parts();
        outcome.trace = Some(ring);
        outcome.metrics = Some(metrics);
    }
    Ok(outcome)
}

fn run_monolithic(
    program: &Program,
    config: &ReeseConfig,
    scheme: Scheme,
) -> Result<u64, ShardError> {
    let err = |source| ShardError::Interval {
        index: usize::MAX,
        source,
    };
    match scheme {
        Scheme::Baseline => PipelineSim::new(config.pipeline.clone())
            .run(program)
            .map(|r| r.stats.cycles)
            .map_err(|e| err(ReeseError::Sim(e))),
        Scheme::Reese => ReeseSim::new(config.clone())
            .run(program)
            .map(|r| r.cycles())
            .map_err(err),
        Scheme::Duplex => DuplexSim::new(config.pipeline.clone())
            .run(program)
            .map(|r| r.cycles())
            .map_err(err),
        Scheme::Meek | Scheme::Swift => Err(ShardError::UnsupportedScheme(scheme)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_isa::assemble;

    fn program() -> Program {
        assemble(
            "  la a0, buf\n  li s0, 300\n\
             loop: andi t4, s0, 63\n  slli t2, t4, 3\n  add t3, a0, t2\n  ld t0, 0(t3)\n\
             \n  addi t0, t0, 3\n  mul t1, t0, s0\n  xor t5, t5, t1\n  sd t0, 0(t3)\n\
             \n  addi s0, s0, -1\n  bnez s0, loop\n  print t5\n  halt\n\
             \n  .data\nbuf: .space 512\n",
        )
        .unwrap()
    }

    fn options(intervals: usize) -> ShardOptions {
        ShardOptions {
            intervals,
            jobs: 2,
            ..ShardOptions::default()
        }
    }

    #[test]
    fn sharded_run_is_functionally_exact_for_every_scheme() {
        let prog = program();
        let config = ReeseConfig::starting();
        for scheme in Scheme::ALL.into_iter().filter(|s| s.shardable()) {
            let report = run_sharded(&prog, &config, scheme, &options(4)).unwrap();
            assert!(
                report.oracle.exact(),
                "{}: {:?}",
                scheme.name(),
                report.oracle
            );
            assert_eq!(report.intervals.len(), 4);
            assert_eq!(
                report.intervals.iter().map(|i| i.instructions).sum::<u64>(),
                report.total_instructions
            );
            assert_eq!(
                report.intervals.iter().map(|i| i.cycles).sum::<u64>(),
                report.sharded_cycles
            );
            assert!(report.checkpoint_bytes > 0);
        }
    }

    #[test]
    fn warm_boundaries_keep_cycle_error_small_for_every_scheme() {
        // Interval checkpoints carry full-history caches and predictor,
        // so the only stitching error left is pipeline fill at each
        // interior boundary.
        let prog = program();
        let config = ReeseConfig::starting();
        for scheme in Scheme::ALL.into_iter().filter(|s| s.shardable()) {
            let report = run_sharded(&prog, &config, scheme, &options(4)).unwrap();
            let err = report.oracle.cycle_error.unwrap();
            assert!(err.abs() < 0.02, "{}: cycle error {err:+.4}", scheme.name());
        }
    }

    #[test]
    fn single_interval_shard_matches_monolithic_cycles_exactly() {
        let prog = program();
        let config = ReeseConfig::starting();
        for scheme in Scheme::ALL.into_iter().filter(|s| s.shardable()) {
            let report = run_sharded(&prog, &config, scheme, &options(1)).unwrap();
            assert!(report.oracle.exact());
            assert_eq!(
                Some(report.sharded_cycles),
                report.oracle.monolithic_cycles,
                "{}: one cold interval from instruction 0 is the monolithic run",
                scheme.name()
            );
            assert_eq!(report.oracle.cycle_error, Some(0.0));
        }
    }

    #[test]
    fn intervals_collapse_on_short_programs() {
        let prog = assemble("  li a0, 1\n  print a0\n  halt\n").unwrap();
        let report = run_sharded(
            &prog,
            &ReeseConfig::starting(),
            Scheme::Baseline,
            &options(16),
        )
        .unwrap();
        assert!(report.oracle.exact());
        assert!(report.intervals.len() <= 3);
        assert_eq!(report.output, vec![1]);
    }

    #[test]
    fn observed_shard_merges_metrics_and_stays_exact() {
        let prog = program();
        let config = ReeseConfig::starting();
        let mut opts = options(4);
        opts.metrics_interval = 500;
        let report = run_sharded(&prog, &config, Scheme::Reese, &opts).unwrap();
        assert!(report.oracle.exact(), "{:?}", report.oracle);

        // Observation must not perturb timing: the stitched cycle count
        // matches the unobserved sharded run exactly.
        let plain = run_sharded(&prog, &config, Scheme::Reese, &options(4)).unwrap();
        assert_eq!(report.sharded_cycles, plain.sharded_cycles);
        assert!(plain.metrics.is_none(), "unobserved run collects nothing");
        assert!(plain.trace.is_none());

        let m = report.metrics.as_ref().expect("metrics collected");
        assert!(!m.rows.is_empty());
        assert_eq!(
            m.totals().committed,
            report.total_instructions,
            "stitched metrics must account for every committed instruction"
        );
        // Rows sit on one global cycle axis, in program order.
        for w in m.rows.windows(2) {
            assert!(w[0].start_cycle <= w[1].start_cycle);
        }
        assert!(m.totals().end_cycle <= report.sharded_cycles + 1);

        let t = report.trace.as_ref().expect("trace collected");
        assert!(!t.is_empty());
    }

    #[test]
    fn non_shardable_schemes_are_rejected_up_front() {
        let prog = program();
        for scheme in Scheme::ALL.into_iter().filter(|s| !s.shardable()) {
            let err =
                run_sharded(&prog, &ReeseConfig::starting(), scheme, &options(2)).unwrap_err();
            assert_eq!(err, ShardError::UnsupportedScheme(scheme));
        }
    }

    #[test]
    fn intervals_beyond_the_resident_cap_are_rejected_up_front() {
        let prog = program();
        let cap = MAX_RESIDENT_CHECKPOINTS;
        let err = run_sharded(
            &prog,
            &ReeseConfig::starting(),
            Scheme::Baseline,
            &options(cap + 1),
        )
        .unwrap_err();
        let want = CkptError::TooManyCheckpoints {
            requested: cap + 1,
            cap,
        };
        assert_eq!(err, ShardError::Ckpt(want));
        assert!(err.to_string().contains("at most 96"), "{err}");
        // The cap itself is allowed (the program collapses it).
        assert!(run_sharded(
            &prog,
            &ReeseConfig::starting(),
            Scheme::Baseline,
            &options(cap)
        )
        .is_ok());
    }

    #[test]
    fn non_halting_program_is_rejected() {
        let prog = assemble("loop: j loop\n  halt\n").unwrap();
        let mut opts = options(2);
        opts.max_instructions = 10_000;
        let err =
            run_sharded(&prog, &ReeseConfig::starting(), Scheme::Baseline, &opts).unwrap_err();
        assert_eq!(err, ShardError::DidNotHalt);
    }
}
