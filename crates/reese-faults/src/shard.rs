//! The sharded single-run driver: split one long simulation into K
//! intervals at checkpoint boundaries, time each interval under a
//! registered detection scheme on a worker pool, and stitch the
//! per-interval instruction and cycle counts, output, and observations
//! into one report.
//!
//! Every interval goes through the one scheme dispatch: the scheme
//! [`schemes::build`] returns prepares the program once, and each
//! interval is its clean window,
//! [`run_window_trials`](schemes::DetectionScheme::run_window_trials)
//! with no keys, from the interval's checkpoint. The monolithic run the
//! oracle measures cycles against is the same call from the
//! instruction-0 checkpoint over the whole run, so a one-interval shard
//! reproduces it exactly, for every scheme. A MEEK window counts core
//! cycles only (the checker tail is charged to whole runs, not
//! windows), so a MEEK shard stitches the baseline's cycles.
//!
//! Functional results (instruction counts, committed architectural
//! state, program output) are *exact* — the emulator continues
//! bit-identically from a restored checkpoint. Cycle counts are close
//! but not exact: each interval restores caches, TLBs, and branch
//! predictor with the full history of the prefix before it (the same
//! continuous-warm checkpoints a fault campaign anchors its trials on)
//! but starts with an empty pipeline, so the stitched cycle total
//! carries a pipeline-fill error per interior boundary that the oracle
//! measures against the monolithic run.
//!
//! Checkpoints cross the worker boundary in their serialized form: each
//! worker decodes the binary frame and runs its interval, so every
//! sharded run also exercises the wire format end-to-end.

use crate::schemes::{self, Observers};
use reese_ckpt::{
    boundaries, checkpoints_at, Checkpoint, CkptError, Scheme, MAX_RESIDENT_CHECKPOINTS,
};
use reese_core::ReeseConfig;
use reese_cpu::{EmuError, Emulator, StopReason};
use reese_isa::Program;
use reese_stats::{par_map_indexed, ParallelStats};
use reese_trace::{MetricsSeries, TraceRing, Tracer};
use std::fmt;

/// Why a sharded run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// The scheme could not prepare the program (SWIFT's transform
    /// refuses indirect control flow).
    Prepare(String),
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
        source: String,
    },
    /// The monolithic run the oracle compares cycles against failed.
    Monolithic(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Prepare(e) => write!(f, "scheme could not prepare the program: {e}"),
            ShardError::Emu(e) => write!(f, "functional reference run failed: {e}"),
            ShardError::DidNotHalt => write!(f, "program did not halt; cannot shard"),
            ShardError::Ckpt(e) => write!(f, "checkpoint rejected: {e}"),
            ShardError::Interval { index, source } => {
                write!(f, "interval {index} simulation failed: {source}")
            }
            ShardError::Monolithic(e) => write!(f, "monolithic simulation failed: {e}"),
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
    /// Which scheme timed the intervals.
    pub scheme: Scheme,
    /// Dynamic instruction count of the whole (prepared) program.
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
    /// The frame shipped for interval 1 (interval 0 when there is only
    /// one): the run's first mid-run checkpoint, stamped with the
    /// scheme.
    pub snapshot: Vec<u8>,
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

/// Splits one run of `program` into `opts.intervals` intervals at
/// checkpoint boundaries, simulates each interval's detailed timing
/// under `scheme` on `opts.jobs` workers, and stitches the results.
///
/// # Errors
///
/// Returns a [`ShardError`] if the scheme cannot prepare the program,
/// the program does not halt, a checkpoint fails to decode, or any
/// interval (or the monolithic) simulation fails.
pub fn run_sharded(
    program: &Program,
    config: &ReeseConfig,
    scheme: Scheme,
    opts: &ShardOptions,
) -> Result<ShardReport, ShardError> {
    // Every interval's checkpoint stays resident until the stitch.
    if opts.intervals > MAX_RESIDENT_CHECKPOINTS {
        return Err(ShardError::Ckpt(CkptError::TooManyCheckpoints {
            requested: opts.intervals,
            cap: MAX_RESIDENT_CHECKPOINTS,
        }));
    }
    let backend = schemes::build(scheme, config);
    let program = &backend.prepare(program).map_err(ShardError::Prepare)?;

    // Pass 1: the functional reference run. Its instruction count fixes
    // the boundaries; its digest and output are the oracle's ground
    // truth.
    let reference = Emulator::new(program).run(opts.max_instructions)?;
    let StopReason::Halted { .. } = reference.stop else {
        return Err(ShardError::DidNotHalt);
    };
    let total = reference.instructions;

    // Pass 2: fast-forward, emitting one continuous-warm checkpoint per
    // interval start, each shipped to the pool in serialized form.
    let bounds = boundaries(total, opts.intervals);
    let ckpts = checkpoints_at(program, &bounds, &config.pipeline)?;
    let mut jobs: Vec<(Vec<u8>, u64)> = ckpts
        .into_iter()
        .enumerate()
        .map(|(i, ck)| {
            let end = bounds.get(i + 1).copied().unwrap_or(total);
            (ck.with_scheme(scheme).encode(), end - bounds[i])
        })
        .collect();
    let checkpoint_bytes = jobs.iter().map(|(bytes, _)| bytes.len()).sum();

    // Each interval is the clean window of its frame, observed on
    // request.
    let decode = |bytes: &[u8]| {
        Checkpoint::decode_for(bytes, scheme, program.isa()).map_err(ShardError::Ckpt)
    };
    let (results, parallel) = par_map_indexed(opts.jobs, &jobs, |index, (bytes, len)| {
        let ck = decode(bytes)?;
        let tracer =
            (opts.metrics_interval > 0).then(|| Tracer::new().with_interval(opts.metrics_interval));
        let observers = Observers { tracer, log: None };
        let w = backend
            .run_window_trials(program, Some(&ck), *len, &[], observers)
            .map_err(|source| ShardError::Interval { index, source })?;
        Ok::<_, ShardError>((w.clean, w.observers.tracer))
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
        let (run, tracer) = result?;
        intervals.push(IntervalResult {
            start: bounds[i],
            instructions: run.committed,
            cycles: run.cycles,
        });
        committed_total += run.committed;
        output.extend_from_slice(&run.output);
        exit_code = run.exit_code;
        state_digest = run.state_digest;
        if let Some(mut t) = tracer {
            t.finish();
            let (t, m) = t.into_parts();
            metrics
                .get_or_insert_with(|| MetricsSeries::new(m.interval))
                .merge_concat(&m, cycle_offset);
            trace
                .get_or_insert_with(|| TraceRing::new(t.capacity()))
                .merge_concat(&t, cycle_offset);
        }
        cycle_offset += run.cycles;
    }
    let sharded_cycles = cycle_offset;

    // The oracle: functional exactness always; cycle accuracy when the
    // monolithic detailed run is requested.
    let monolithic_cycles = if opts.compare_monolithic {
        let ck = decode(&jobs[0].0)?;
        let w = backend
            .run_window_trials(program, Some(&ck), total, &[], Observers::default())
            .map_err(ShardError::Monolithic)?;
        Some(w.clean.cycles)
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
    let snapshot = jobs.swap_remove(usize::from(jobs.len() > 1)).0;

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
        snapshot,
        metrics,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_isa::assemble;
    use reese_workloads::Kernel;

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
        for scheme in Scheme::ALL {
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
        for scheme in Scheme::ALL {
            let report = run_sharded(&prog, &config, scheme, &options(4)).unwrap();
            let err = report.oracle.cycle_error.unwrap();
            assert!(err.abs() < 0.02, "{}: cycle error {err:+.4}", scheme.name());
        }
    }

    #[test]
    fn single_interval_shard_matches_monolithic_cycles_exactly() {
        let prog = program();
        let config = ReeseConfig::starting();
        for scheme in Scheme::ALL {
            let report = run_sharded(&prog, &config, scheme, &options(1)).unwrap();
            assert!(report.oracle.exact());
            assert_eq!(
                Some(report.sharded_cycles),
                report.oracle.monolithic_cycles,
                "{}: one interval from instruction 0 is the monolithic run",
                scheme.name()
            );
            assert_eq!(report.oracle.cycle_error, Some(0.0));
        }
    }

    #[test]
    fn monolithic_cycles_are_the_whole_window_of_every_scheme() {
        // The oracle's reference is the scheme's own clean window over
        // the whole run: the core's cycles, MEEK's without its checker
        // tail, SWIFT's on the hardened program.
        let prog = program();
        let config = ReeseConfig::starting();
        let mono = |scheme| {
            let report = run_sharded(&prog, &config, scheme, &options(2)).unwrap();
            report.oracle.monolithic_cycles.unwrap()
        };
        for scheme in Scheme::ALL {
            let backend = schemes::build(scheme, &config);
            let prepared = backend.prepare(&prog).unwrap();
            let clean = backend.run_limit(&prepared, u64::MAX).unwrap();
            let want = if scheme == Scheme::Meek {
                mono(Scheme::Baseline)
            } else {
                clean.cycles
            };
            assert_eq!(mono(scheme), want, "{scheme}");
        }
    }

    #[test]
    fn snapshot_is_the_first_mid_run_frame() {
        let prog = program();
        let config = ReeseConfig::starting();
        for scheme in Scheme::ALL {
            for k in [1, 2, 4] {
                let report = run_sharded(&prog, &config, scheme, &options(k)).unwrap();
                let ck = Checkpoint::decode_for(&report.snapshot, scheme, prog.isa())
                    .unwrap_or_else(|e| panic!("{scheme} K={k}: {e}"));
                let which = usize::from(report.intervals.len() > 1);
                assert_eq!(ck.instructions, report.intervals[which].start, "{scheme}");
            }
        }
    }

    #[test]
    fn sharded_run_is_exact_on_a_kernel() {
        let prog = Kernel::Compiler.build_for(8_000);
        let config = ReeseConfig::starting();
        for scheme in Scheme::ALL {
            let report = run_sharded(&prog, &config, scheme, &options(4)).unwrap();
            assert!(report.oracle.exact(), "{scheme}: {:?}", report.oracle);
            let err = report.oracle.cycle_error.unwrap();
            assert!(err.abs() < 0.01, "{scheme}: cycle error {err:+.4}");
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
        for scheme in Scheme::ALL {
            let report = run_sharded(&prog, &config, scheme, &opts).unwrap();
            assert!(report.oracle.exact(), "{scheme}: {:?}", report.oracle);

            // Observation must not perturb timing: the stitched cycle
            // count matches the unobserved sharded run exactly.
            let plain = run_sharded(&prog, &config, scheme, &options(4)).unwrap();
            assert_eq!(report.sharded_cycles, plain.sharded_cycles, "{scheme}");
            assert!(plain.metrics.is_none(), "unobserved run collects nothing");
            assert!(plain.trace.is_none());

            let m = report.metrics.as_ref().expect("metrics collected");
            assert!(!m.rows.is_empty());
            assert_eq!(
                m.totals().committed,
                report.total_instructions,
                "{scheme}: stitched metrics must account for every committed instruction"
            );
            // Rows sit on one global cycle axis, in program order.
            for w in m.rows.windows(2) {
                assert!(w[0].start_cycle <= w[1].start_cycle);
            }
            assert!(m.totals().end_cycle <= report.sharded_cycles + 1);

            let t = report.trace.as_ref().expect("trace collected");
            assert!(!t.is_empty());
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

    #[test]
    fn failures_name_their_stage() {
        // SWIFT's transform refuses indirect control flow before any
        // simulation starts; the monolithic run has its own message.
        let prog = assemble("  la t0, end\n  jr t0\nend: halt\n").unwrap();
        let err =
            run_sharded(&prog, &ReeseConfig::starting(), Scheme::Swift, &options(2)).unwrap_err();
        assert!(matches!(err, ShardError::Prepare(_)), "{err:?}");
        let mono = ShardError::Monolithic("boom".into()).to_string();
        assert_eq!(mono, "monolithic simulation failed: boom");
    }
}
