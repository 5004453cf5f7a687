//! Monte-Carlo fault-injection campaigns.

use crate::engine::{boundary_count, plan_window, window_ceiling, TrialWindow};
use crate::schemes::{self, DetectionScheme, Observers, Trial};
use crate::stream::{config_fnv, outcome_line, read_log, LogHeader, LogWriter};
use crate::telemetry::{json_str, Telemetry};
use crate::{CoverageReport, FaultClass, FaultMix, TrialEngine, TrialOutcome, WindowBaseline};
use reese_ckpt::{
    checkpoint_stream_thinned, checkpoints_at, derive_checkpoint, Checkpoint, Scheme,
    MAX_RESIDENT_CHECKPOINTS,
};
use reese_core::ReeseConfig;
use reese_cpu::Emulator;
use reese_isa::Program;
use reese_stats::{par_map_weighted, SplitMix64};
use reese_trace::{MetricsSeries, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;
use std::path::PathBuf;
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Error raised by a campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The workload itself failed to run cleanly (before any injection).
    Workload(String),
    /// A trial produced an unexpected simulator failure.
    Trial {
        /// Index of the failing trial.
        trial: usize,
        /// Description of the failure.
        message: String,
    },
    /// A `--resume` log exists but records a different campaign (or is
    /// corrupt), so its outcomes cannot be reused.
    Resume(String),
    /// Reading or writing a campaign log failed.
    Io(String),
    /// The checkpoint interval is too large for the program: the
    /// ceiling of a window over the whole run, its dynamic length plus
    /// one interval, does not fit in a budget.
    Interval {
        /// The checkpoint interval.
        every: u64,
        /// The program's dynamic length.
        dynamic_len: u64,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Workload(m) => write!(f, "workload failed: {m}"),
            CampaignError::Trial { trial, message } => write!(f, "trial {trial} failed: {message}"),
            CampaignError::Resume(m) => write!(f, "resume log mismatch: {m}"),
            CampaignError::Io(m) => write!(f, "campaign log I/O failed: {m}"),
            CampaignError::Interval { every, dynamic_len } => write!(
                f,
                "checkpoint interval {every} is too large for dynamic length \
                 {dynamic_len}: the final window's ceiling overflows"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

/// A Monte-Carlo soft-error injection campaign.
///
/// Each trial picks a random dynamic instruction, bit position, and
/// fault class from the configured [`FaultMix`], runs the REESE machine
/// with that single fault, and records whether the P/R comparison caught
/// it, the detection latency, and the recovery cost in cycles.
///
/// Classes REESE cannot observe by design ([`FaultClass::PostCompare`],
/// [`FaultClass::CacheCell`], [`FaultClass::PipelineControl`]) are
/// scored as undetected without corrupting anything — they model the
/// coverage boundary the paper states in §4.2.
///
/// Simulated trials are scored over a **checkpoint-anchored window**
/// around the fault (DESIGN.md §10): under the default
/// [`TrialEngine::Replay`] a fault deep in a long workload costs its
/// share of one restore and one detailed pass over its window (every
/// faulted run forks off the window's clean run) instead of a
/// whole-program re-simulation, and identical fault keys are memoized,
/// so campaigns with millions of injections stay tractable. [`TrialEngine::Full`]
/// recomputes every trial from instruction 0 with no shared state and
/// is kept as the oracle arm: both engines must produce byte-identical
/// reports.
///
/// All per-trial parameters are drawn **serially** from the single
/// SplitMix64 stream before any trial runs, so the resulting
/// [`CoverageReport`] compares equal for any worker count —
/// parallelism buys wall-clock time only — and a campaign interrupted
/// and resumed from its [`Campaign::outcomes_jsonl`] log recomputes
/// exactly the missing trials.
///
/// # Example
///
/// ```
/// use reese_core::ReeseConfig;
/// use reese_faults::{Campaign, FaultMix};
///
/// let prog = reese_isa::assemble(
///     "  li t0, 40\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n",
/// )?;
/// let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
///     .trials(10)
///     .seed(7)
///     .jobs(2)
///     .run(&prog)?;
/// assert_eq!(report.detected, 10); // result errors are always caught
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    config: ReeseConfig,
    mix: FaultMix,
    scheme: Scheme,
    trials: usize,
    seed: u64,
    max_instructions: u64,
    jobs: usize,
    metrics_interval: u64,
    engine: TrialEngine,
    ckpt_every: u64,
    outcomes_jsonl: Option<PathBuf>,
    resume: Option<PathBuf>,
    trial_limit: Option<usize>,
    telemetry_out: Option<PathBuf>,
    telemetry: Option<std::sync::Arc<Telemetry>>,
}

impl Campaign {
    /// Creates a campaign over a REESE configuration and fault mix.
    pub fn new(config: ReeseConfig, mix: FaultMix) -> Campaign {
        Campaign {
            config,
            mix,
            scheme: Scheme::Reese,
            trials: 100,
            seed: 0xFA017,
            max_instructions: u64::MAX,
            jobs: 1,
            metrics_interval: 0,
            engine: TrialEngine::Replay,
            ckpt_every: crate::DEFAULT_CKPT_EVERY,
            outcomes_jsonl: None,
            resume: None,
            trial_limit: None,
            telemetry_out: None,
            telemetry: None,
        }
    }

    /// Selects the detection backend under test (default
    /// [`Scheme::Reese`]). The campaign machinery — parameter
    /// pre-draw, anchored windows, memoization, resume — is shared;
    /// only program preparation and trial scoring go through the
    /// scheme (see [`crate::schemes`]).
    pub fn scheme(mut self, scheme: Scheme) -> Campaign {
        self.scheme = scheme;
        self
    }

    /// Sets the number of trials (default 100).
    pub fn trials(mut self, n: usize) -> Campaign {
        self.trials = n;
        self
    }

    /// Sets the PRNG seed (default fixed, campaigns are reproducible).
    pub fn seed(mut self, seed: u64) -> Campaign {
        self.seed = seed;
        self
    }

    /// Caps the per-trial committed-instruction budget.
    pub fn max_instructions(mut self, n: u64) -> Campaign {
        self.max_instructions = n;
        self
    }

    /// Sets the worker-thread count (default 1 = serial). The report is
    /// bit-identical for every value; 0 is treated as 1.
    pub fn jobs(mut self, n: usize) -> Campaign {
        self.jobs = n.max(1);
        self
    }

    /// Samples per-interval metrics every `n` cycles during each
    /// simulated trial and pools them row-by-row into
    /// [`CoverageReport::metrics`]. 0 (the default) disables sampling,
    /// and trials run on the zero-cost unobserved path. Identical fault
    /// keys are memoized either way: a key is simulated once, and each
    /// trial that drew it pools its own copy of the key's series. Trial
    /// outcomes are bit-identical either way.
    pub fn metrics_interval(mut self, n: u64) -> Campaign {
        self.metrics_interval = n;
        self
    }

    /// Selects the trial engine (default [`TrialEngine::Replay`]). Both
    /// engines produce byte-identical reports; `Full` pays the
    /// from-scratch cost per trial and exists as the oracle arm.
    pub fn engine(mut self, engine: TrialEngine) -> Campaign {
        self.engine = engine;
        self
    }

    /// Sets the checkpoint interval K in instructions (default
    /// [`crate::DEFAULT_CKPT_EVERY`]). Smaller K means shorter replay
    /// windows but more checkpoints; the interval shapes the anchored
    /// windows, so it participates in the campaign-log header.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    pub fn ckpt_every(mut self, n: u64) -> Campaign {
        assert!(n >= 1, "checkpoint interval must be at least 1");
        self.ckpt_every = n;
        self
    }

    /// Streams every computed outcome to a JSONL campaign log (header
    /// line plus one line per trial, appended and flushed as trials
    /// complete), creating/truncating the file.
    pub fn outcomes_jsonl(mut self, path: impl Into<PathBuf>) -> Campaign {
        self.outcomes_jsonl = Some(path.into());
        self
    }

    /// Resumes from an existing campaign log: recorded trials are
    /// reused verbatim, only missing ones are computed, and the new
    /// outcomes append to the same file. The final report is
    /// byte-identical to an uninterrupted run. Takes precedence over
    /// [`Campaign::outcomes_jsonl`].
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Campaign {
        self.resume = Some(path.into());
        self
    }

    /// Caps how many *new* trials this invocation computes (in trial
    /// order), leaving the rest for a later [`Campaign::resume`]. The
    /// returned report is partial; `None` (the default) computes all.
    pub fn trial_limit(mut self, n: usize) -> Campaign {
        self.trial_limit = Some(n);
        self
    }

    /// Streams a telemetry journal (phase timings, worker throughput,
    /// memoization hit rate, progress/ETA) to a JSONL file as the
    /// campaign runs (see [`crate::telemetry`]). The journal records
    /// wall-clock observations only — trial outcomes are bit-identical
    /// with or without it.
    pub fn telemetry_out(mut self, path: impl Into<PathBuf>) -> Campaign {
        self.telemetry_out = Some(path.into());
        self
    }

    /// Attaches an already-open shared [`Telemetry`] journal instead of
    /// creating one: several sequential campaigns (the `schemes`
    /// ranking's cells) then interleave their events into one file.
    /// Takes precedence over [`Campaign::telemetry_out`].
    pub fn telemetry(mut self, journal: std::sync::Arc<Telemetry>) -> Campaign {
        self.telemetry = Some(journal);
        self
    }

    /// Runs the campaign.
    ///
    /// Every arm runs one fan-out. Its head item is the clean
    /// whole-program run, which only the report's clean cycles and the
    /// log header's two clean fields depend on: with workers to spare it
    /// starts on its own thread before the reference sweep, and the
    /// worker that claims the head joins it, sleeping while the clean
    /// thread uses its core; serially the head runs it inline. Each
    /// Replay item then derives one anchor from the coarse sweep and
    /// scores every window on it, so a worker holds at most one anchor.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Workload`] if the program cannot run
    /// cleanly, [`CampaignError::Trial`] if a trial fails in an
    /// unexpected way (permanent faults are *expected* only for sticky
    /// injections, which this campaign does not produce),
    /// [`CampaignError::Resume`] if a resume log records a different
    /// campaign, [`CampaignError::Io`] on log file failures, or
    /// [`CampaignError::Interval`] if the checkpoint interval leaves the
    /// final window no representable ceiling.
    pub fn run(&self, program: &Program) -> Result<CoverageReport, CampaignError> {
        let tele = match (&self.telemetry, &self.telemetry_out) {
            (Some(shared), _) => Some(std::sync::Arc::clone(shared)),
            (None, Some(path)) => Some(std::sync::Arc::new(
                Telemetry::create(path).map_err(CampaignError::Io)?,
            )),
            (None, None) => None,
        };
        if let Some(t) = &tele {
            t.reset_progress();
            t.emit(
                "campaign_start",
                &[
                    ("scheme", json_str(self.scheme.name())),
                    ("engine", json_str(&format!("{:?}", self.engine))),
                    ("jobs", self.jobs.to_string()),
                    ("trials", self.trials.to_string()),
                    ("seed", self.seed.to_string()),
                ],
            );
        }
        let scheme = schemes::build(self.scheme, &self.config);
        // Everything downstream — checkpoints, dynamic length, fault
        // sequence numbers — is in terms of the *prepared* program
        // (the identity for every hardware scheme).
        let prepared = scheme.prepare(program).map_err(CampaignError::Workload)?;
        std::thread::scope(|scope| {
            self.run_prepared(scope, scheme.as_ref(), &prepared, tele.as_deref())
        })
    }

    /// [`Campaign::run`] over the prepared program, inside the scope
    /// that the clean run's thread lives in.
    fn run_prepared<'scope, 'env>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        scheme: &'env dyn DetectionScheme,
        program: &'env Program,
        tele: Option<&'env Telemetry>,
    ) -> Result<CoverageReport, CampaignError> {
        let clean = (self.jobs > 1)
            .then(|| scope.spawn(|| scheme.run_limit(program, self.max_instructions)));
        let phase_start = Instant::now();
        let (coarse, stride, dynamic_len) = self.reference_sweep(program)?;
        if dynamic_len == 0 {
            return Err(CampaignError::Workload(
                "program executes no instructions".into(),
            ));
        }
        if window_ceiling(dynamic_len, self.ckpt_every).is_none() {
            return Err(CampaignError::Interval {
                every: self.ckpt_every,
                dynamic_len,
            });
        }
        if let Some(t) = &tele {
            t.emit(
                "reference_done",
                &[
                    ("checkpoints", coarse.len().to_string()),
                    ("stride", stride.to_string()),
                    ("dynamic_len", dynamic_len.to_string()),
                    (
                        "phase_ms",
                        (phase_start.elapsed().as_millis() as u64).to_string(),
                    ),
                ],
            );
        }
        let boundaries = boundary_count(dynamic_len, self.ckpt_every);
        if self.engine == TrialEngine::Replay {
            assert_eq!(
                stride % self.ckpt_every,
                0,
                "sweep stride must stay on the anchor grid"
            );
            assert_eq!(
                coarse.len(),
                boundary_count(dynamic_len, stride),
                "checkpoint sweep disagrees with planned boundary count"
            );
        }

        // Serial parameter pre-draw: the single SplitMix64 stream is
        // consumed in trial order here, before any trial executes, so
        // the fan-out below cannot perturb it and the report compares
        // equal for every worker count.
        let mut rng = SplitMix64::new(self.seed);
        let params: Vec<(FaultClass, u64, u8)> = (0..self.trials)
            .map(|_| {
                let class = self.mix.sample(rng.next_u64());
                let seq = rng.range_u64(0, dynamic_len);
                let bit = (rng.next_u64() & 63) as u8;
                (class, seq, bit)
            })
            .collect();

        // Campaign-log plumbing, before any simulation so I/O errors
        // surface early: a resume log is read and checked in every
        // header field but the clean run's two, which wait for the
        // fan-out; a fresh log is created, its header written then.
        let mut header = self.log_header(dynamic_len);
        let (logged, recorded, mut log) = match (&self.resume, &self.outcomes_jsonl) {
            (Some(path), _) => {
                let (logged, recorded) = read_log(path, Some(&header))?;
                (Some(logged), recorded, Some(LogWriter::append(path)?))
            }
            (None, Some(path)) => (None, BTreeMap::new(), Some(LogWriter::create(path)?)),
            (None, None) => (None, BTreeMap::new(), None),
        };

        // A recorded trial must carry the fault key this campaign drew
        // for it, or resuming would splice in a different fault's
        // outcome.
        for (&trial, o) in &recorded {
            let (class, seq, bit) = params[trial];
            if (o.class, o.seq, o.bit) != (class, seq, bit) {
                return Err(CampaignError::Resume(format!(
                    "trial {trial} records fault {} seq {} bit {} but this campaign \
                     drew {class} seq {seq} bit {bit}",
                    o.class, o.seq, o.bit
                )));
            }
        }

        if let Some(t) = &tele {
            if !recorded.is_empty() {
                t.emit("resume_loaded", &[("recorded", recorded.len().to_string())]);
            }
        }

        // Which trials still need computing, honoring the trial cap.
        let mut todo: Vec<usize> = (0..self.trials)
            .filter(|t| !recorded.contains_key(t))
            .collect();
        if let Some(cap) = self.trial_limit {
            todo.truncate(cap);
        }

        // Distinct fault keys in first-occurrence order: a simulated
        // outcome is a pure function of (class, seq, bit), so the
        // memoized path computes each key once however many trials drew
        // it.
        let mut keys: Vec<(FaultClass, u64, u8)> = Vec::new();
        let mut key_of: HashMap<(FaultClass, u64, u8), usize> = HashMap::new();
        for &t in &todo {
            key_of.entry(params[t]).or_insert_with(|| {
                keys.push(params[t]);
                keys.len() - 1
            });
        }

        if let Some(t) = &tele {
            // Memoization effectiveness: duplicated keys never simulate.
            let hit_rate = if todo.is_empty() {
                0.0
            } else {
                1.0 - keys.len() as f64 / todo.len() as f64
            };
            t.emit(
                "plan",
                &[
                    ("todo", todo.len().to_string()),
                    ("distinct_keys", keys.len().to_string()),
                    ("memo_hit_rate", format!("{hit_rate:.4}")),
                ],
            );
        }

        // The fan-out scores each distinct key once, metrics sampling
        // included: a key's series is a pure function of the key, so
        // each trial pools its own copy below. Replay items are the
        // anchors (keys scored by fiat form one more item); the oracle
        // arm shares nothing, so there every key is an item.
        let items = group_by(&keys, |k, &(class, seq, _)| match self.engine {
            TrialEngine::Replay => class
                .detectable_by_design()
                .then(|| self.window(seq, boundaries, dynamic_len).anchor_idx),
            TrialEngine::Full => Some(k),
        });
        let head = || {
            let start = Instant::now();
            let (run, wait) = match clean {
                Some(thread) => (
                    thread.join().expect("clean reference pass panicked"),
                    start.elapsed(),
                ),
                None => (
                    scheme.run_limit(program, self.max_instructions),
                    Duration::ZERO,
                ),
            };
            if let (Some(t), Ok(run)) = (&tele, &run) {
                t.emit(
                    "clean_done",
                    &[
                        ("clean_cycles", run.cycles.to_string()),
                        ("wait_ms", (wait.as_millis() as u64).to_string()),
                    ],
                );
            }
            run
        };
        let total = keys.len() as u64;
        let tick_every = (total / 16).max(1);
        let (clean, results, throughput) = par_map_weighted(
            self.jobs,
            head,
            &items,
            |(_, group)| group.len() as u64,
            |_, (_, group)| {
                let keys: Vec<_> = group.iter().map(|&k| keys[k]).collect();
                let scored = self.score(
                    scheme,
                    program,
                    (&coarse, stride),
                    boundaries,
                    dynamic_len,
                    &keys,
                );
                if let Some(t) = &tele {
                    group.iter().for_each(|_| t.progress(total, tick_every));
                }
                scored
            },
        );
        let screened: usize = results.iter().map(|&(_, n)| n).sum();

        // The clean run's failure comes first, then its two header
        // fields; the fresh log's header precedes any outcome line.
        let clean = clean.map_err(CampaignError::Workload)?;
        header.clean_cycles = clean.cycles;
        header.clean_digest = clean.state_digest;
        match (&logged, &mut log) {
            (Some(logged), _) => logged
                .expect_matches(&header)
                .map_err(CampaignError::Resume)?,
            (None, Some(log)) => log.line(&header.to_line())?,
            (None, None) => {}
        }

        // Back to key order: the items partition the keys.
        let mut verdicts: Vec<(usize, Verdict)> = items
            .iter()
            .zip(results)
            .flat_map(|((_, group), (scored, _))| group.iter().copied().zip(scored))
            .collect();
        verdicts.sort_unstable_by_key(|&(k, _)| k);
        let verdict = |t: usize| &verdicts[key_of[&params[t]]].1;
        // A failed anchor or clean window fails every trial it serves,
        // so those are reported first; then the first failing trial.
        let failure = todo
            .iter()
            .filter_map(|&t| verdict(t).as_ref().err().map(|e| (t, e)))
            .min_by_key(|(_, (stage, _))| *stage);
        if let Some((trial, (stage, m))) = failure {
            return Err(match stage {
                Stage::Anchor => CampaignError::Workload(format!("anchor derivation failed: {m}")),
                Stage::Window => CampaignError::Workload(format!("clean window failed: {m}")),
                Stage::Trial => CampaignError::Trial {
                    trial,
                    message: m.clone(),
                },
            });
        }
        let mut computed: BTreeMap<usize, TrialOutcome> = BTreeMap::new();
        let mut metrics: Option<MetricsSeries> = None;
        for &t in &todo {
            let Ok((outcome, series)) = verdict(t) else {
                unreachable!("failures returned above")
            };
            computed.insert(t, *outcome);
            // Pooled in trial order, one copy of the key's series per
            // trial.
            if let Some(m) = series {
                match &mut metrics {
                    None => metrics = Some(m.clone()),
                    Some(acc) => acc.merge_pooled(m),
                }
            }
        }

        if let Some(t) = &tele {
            t.trials_done(&throughput, screened);
        }

        // Stream the new outcomes (trial order) before assembling the
        // report, so an interrupted consumer still has them on disk.
        if let Some(log) = &mut log {
            for (&t, o) in &computed {
                log.line(&outcome_line(self.seed, t, o))?;
            }
        }

        let mut all = recorded;
        all.extend(computed);
        let mut report = CoverageReport::new(clean.cycles);
        for o in all.values() {
            report.record(*o);
        }
        report.metrics = metrics;
        report.throughput = Some(throughput);
        if let Some(t) = &tele {
            t.emit(
                "campaign_done",
                &[
                    ("trials", report.trials().to_string()),
                    ("detected", report.detected.to_string()),
                    ("coverage", format!("{:.6}", report.coverage())),
                ],
            );
        }
        Ok(report)
    }

    /// The reference pass. Under `Replay` the checkpoint-capture sweep
    /// *is* the reference pass — one emulator walk yields the dynamic
    /// length and a bounded set of coarse checkpoints (the sweep thins
    /// itself on long programs; the anchors trials actually use are
    /// derived in the fan-out, so capture cost scales with the campaign,
    /// not the program). Under `Full` no state is kept (trials
    /// re-derive their anchors from scratch), so only a plain emulator
    /// run measures the length.
    fn reference_sweep(
        &self,
        program: &Program,
    ) -> Result<(Vec<Checkpoint>, u64, u64), CampaignError> {
        match self.engine {
            TrialEngine::Replay => checkpoint_stream_thinned(
                program,
                self.ckpt_every,
                &self.config.pipeline,
                self.max_instructions,
                MAX_RESIDENT_CHECKPOINTS,
            )
            .map_err(|e| CampaignError::Workload(e.to_string())),
            TrialEngine::Full => {
                let mut emu = Emulator::new(program);
                let r = emu
                    .run(self.max_instructions)
                    .map_err(|e| CampaignError::Workload(e.to_string()))?;
                Ok((Vec::new(), self.ckpt_every, r.instructions))
            }
        }
    }

    /// The anchored window a fault at `seq` is scored over.
    fn window(&self, seq: u64, boundaries: usize, dynamic_len: u64) -> TrialWindow {
        plan_window(
            seq,
            self.ckpt_every,
            boundaries,
            self.max_instructions,
            dynamic_len,
        )
    }

    /// The campaign-log header: everything the outcome sequence is a
    /// pure function of (deliberately excluding the engine, the worker
    /// count, and metrics sampling — none may change outcomes). The
    /// clean run's cycles and digest are left 0 for the caller to fill
    /// in once that run is done.
    fn log_header(&self, dynamic_len: u64) -> LogHeader {
        let mut mix = [0u32; 5];
        for (slot, class) in mix.iter_mut().zip(FaultClass::ALL) {
            *slot = self.mix.weight(class);
        }
        LogHeader {
            seed: self.seed,
            trials: self.trials as u64,
            mix,
            ckpt_every: self.ckpt_every,
            max_instructions: self.max_instructions,
            config_fnv: config_fnv(self.scheme, &self.config),
            dynamic_len,
            clean_cycles: 0,
            clean_digest: 0,
        }
    }

    /// Scores one fan-out item: the keys of one anchor (or of classes
    /// scored by fiat), one verdict per key in `keys` order. The anchor
    /// is derived here — from the coarse sweep `(checkpoints, stride)`
    /// under Replay, from instruction 0 under Full — and dropped on
    /// return. Then each window on it is scored. Under Replay a window
    /// runs its clean machine once and forks one faulted run per key
    /// off it ([`DetectionScheme::run_window_trials`]), the clean pass
    /// doubling as the baseline; under metrics sampling the clean pass
    /// runs under a tracer, and each key's series is its fork's copy.
    /// The oracle arm instead runs the clean window and then each key
    /// from the anchor ([`DetectionScheme::run_trial`]) under its own
    /// tracer; see [`crate::engine`] for the window contract both
    /// share.
    fn score(
        &self,
        scheme: &dyn DetectionScheme,
        program: &Program,
        (coarse, stride): (&[Checkpoint], u64),
        boundaries: usize,
        dynamic_len: u64,
        keys: &[(FaultClass, u64, u8)],
    ) -> (Vec<Verdict>, usize) {
        let (class, seq, _) = keys[0];
        if !class.detectable_by_design() {
            let verdicts = keys.iter().map(|&key| Ok((by_fiat(key), None)));
            return (verdicts.collect(), 0);
        }
        // The oracle arm derives its anchor and clean window per trial,
        // so there their failures are that trial's.
        let stage = |s| match self.engine {
            TrialEngine::Replay => s,
            TrialEngine::Full => Stage::Trial,
        };
        let boundary = self
            .window(seq, boundaries, dynamic_len)
            .anchor(self.ckpt_every);
        let pipeline = &self.config.pipeline;
        let ck = match self.engine {
            TrialEngine::Replay => {
                let base = &coarse[(boundary / stride) as usize];
                derive_checkpoint(program, base, boundary, pipeline)
            }
            TrialEngine::Full => checkpoints_at(program, &[boundary], pipeline)
                .map(|mut cks| cks.pop().expect("one boundary requested")),
        };
        let ck = match ck {
            Ok(ck) => ck,
            Err(e) => {
                let m = e.to_string();
                let verdicts = keys.iter().map(|_| Err((stage(Stage::Anchor), m.clone())));
                return (verdicts.collect(), 0);
            }
        };
        let tracer = || {
            (self.metrics_interval > 0).then(|| Tracer::new().with_interval(self.metrics_interval))
        };
        let series = |mut t: Tracer| {
            t.finish();
            t.into_parts().1
        };
        let mut verdicts: Vec<(usize, Verdict)> = Vec::with_capacity(keys.len());
        let mut screened = 0;
        let windows = group_by(keys, |_, &(_, seq, _)| {
            self.window(seq, boundaries, dynamic_len)
        });
        for (w, members) in windows {
            let group: Vec<_> = members.iter().map(|&k| keys[k]).collect();
            let scored = match self.engine {
                TrialEngine::Replay => {
                    let observers = Observers {
                        tracer: tracer(),
                        log: None,
                    };
                    scheme
                        .run_window_trials(program, Some(&ck), w.budget, &group, observers)
                        .map(|w| {
                            screened += w.screened;
                            w.trials
                                .into_iter()
                                .map(|t| match t {
                                    Ok((outcome, obs)) => Ok((outcome, obs.tracer.map(series))),
                                    Err(m) => Err((Stage::Trial, m)),
                                })
                                .collect()
                        })
                }
                TrialEngine::Full => scheme.run_window(program, &ck, w.budget).map(|clean| {
                    let baseline = WindowBaseline::from(&clean);
                    group
                        .iter()
                        .map(|&(class, seq, bit)| {
                            let mut tracer = tracer();
                            let outcome = scheme
                                .run_trial(Trial {
                                    program,
                                    ck: &ck,
                                    baseline: &baseline,
                                    class,
                                    seq,
                                    bit,
                                    budget: w.budget,
                                    tracer: tracer.as_mut(),
                                    probe: None,
                                })
                                .map_err(|m| (Stage::Trial, m))?;
                            Ok((outcome, tracer.map(series)))
                        })
                        .collect()
                }),
            };
            let scored: Vec<Verdict> = scored.unwrap_or_else(|m| {
                group
                    .iter()
                    .map(|_| Err((stage(Stage::Window), m.clone())))
                    .collect()
            });
            verdicts.extend(members.into_iter().zip(scored));
        }
        verdicts.sort_unstable_by_key(|&(k, _)| k);
        (verdicts.into_iter().map(|(_, v)| v).collect(), screened)
    }
}

/// One member's verdict from the fan-out: its outcome, with its own
/// metrics series when sampled, or where and why it failed.
type Verdict = Result<(TrialOutcome, Option<MetricsSeries>), (Stage, String)>;

/// Where a fan-out member failed, in reporting order: a Replay anchor
/// or clean window fails every trial it serves, ahead of any one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stage {
    Anchor,
    Window,
    Trial,
}

/// Indices of `items` grouped by `key`: each group in index order, the
/// groups in first-occurrence order.
fn group_by<T, K: Copy + Eq + Hash>(
    items: &[T],
    key: impl Fn(usize, &T) -> K,
) -> Vec<(K, Vec<usize>)> {
    let mut groups: Vec<(K, Vec<usize>)> = Vec::new();
    let mut slot: HashMap<K, usize> = HashMap::new();
    for (i, item) in items.iter().enumerate() {
        let k = key(i, item);
        let g = *slot.entry(k).or_insert_with(|| {
            groups.push((k, Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(i);
    }
    groups
}

/// The outcome of a key whose class lies outside every scheme's
/// observation window: scored undetected-by-design, nothing simulated.
fn by_fiat((class, seq, bit): (FaultClass, u64, u8)) -> TrialOutcome {
    TrialOutcome {
        class,
        seq,
        bit,
        detected: false,
        detection_latency: None,
        extra_cycles: 0,
        state_clean: true,
        inject_cycle: None,
        diverge_cycle: None,
        detect_cycle: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_isa::assemble;

    fn loop_prog() -> reese_isa::Program {
        assemble("  li t0, 60\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n").unwrap()
    }

    #[test]
    fn result_errors_fully_detected() {
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
            .trials(25)
            .seed(1)
            .run(&loop_prog())
            .unwrap();
        assert_eq!(report.trials(), 25);
        assert_eq!(report.detected, 25);
        assert!((report.coverage() - 1.0).abs() < 1e-12);
        assert!(report.mean_detection_latency() > 0.0);
        assert!(
            report.all_states_clean(),
            "recovery must restore architectural state"
        );
    }

    #[test]
    fn broad_mix_shows_coverage_boundary() {
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::broad())
            .trials(60)
            .seed(2)
            .run(&loop_prog())
            .unwrap();
        assert!(report.detected > 0, "result errors present");
        assert!(report.detected < 60, "uncovered classes present");
        for c in [
            FaultClass::PostCompare,
            FaultClass::CacheCell,
            FaultClass::PipelineControl,
        ] {
            let (det, total) = report.by_class(c);
            if total > 0 {
                assert_eq!(det, 0, "{c} must be undetectable");
            }
        }
    }

    #[test]
    fn an_interval_with_no_window_ceiling_is_rejected() {
        // The loop's 122 instructions plus an interval this large leave
        // no budget below u64::MAX, the "run to halt" value; both
        // engines refuse before the fan-out.
        for engine in [TrialEngine::Replay, TrialEngine::Full] {
            let err = Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(5)
                .engine(engine)
                .ckpt_every(u64::MAX - 122)
                .run(&loop_prog())
                .unwrap_err();
            let want = CampaignError::Interval {
                every: u64::MAX - 122,
                dynamic_len: 122,
            };
            assert_eq!(err, want, "{engine}");
        }
        let largest = Campaign::new(ReeseConfig::starting(), FaultMix::broad())
            .trials(5)
            .ckpt_every(u64::MAX - 123)
            .run(&loop_prog());
        assert!(largest.is_ok(), "{largest:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(20)
                .seed(42)
                .run(&loop_prog())
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn parallel_report_is_bit_identical_to_serial() {
        let run = |jobs: usize| {
            Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(24)
                .seed(42)
                .jobs(jobs)
                .run(&loop_prog())
                .unwrap()
        };
        let serial = run(1);
        for jobs in [2, 4, 7] {
            assert_eq!(run(jobs), serial, "jobs={jobs} must not change the report");
        }
    }

    #[test]
    fn full_engine_matches_replay_engine() {
        let run = |engine: TrialEngine| {
            Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(20)
                .seed(42)
                .engine(engine)
                .run(&loop_prog())
                .unwrap()
        };
        let full = run(TrialEngine::Full);
        let replay = run(TrialEngine::Replay);
        assert_eq!(full, replay);
        assert_eq!(full.to_json(), replay.to_json());
    }

    #[test]
    fn parallel_run_reports_throughput() {
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
            .trials(8)
            .jobs(4)
            .run(&loop_prog())
            .unwrap();
        let t = report.throughput.expect("throughput recorded");
        assert_eq!(t.items(), 8, "eight distinct fault keys, none memoized");
        assert_eq!(t.jobs, 4);
        assert!(t.items_per_sec() > 0.0);
    }

    #[test]
    fn sampled_campaign_pools_metrics_without_changing_outcomes() {
        let run = |interval: u64| {
            Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
                .trials(6)
                .seed(11)
                .metrics_interval(interval)
                .run(&loop_prog())
                .unwrap()
        };
        let plain = run(0);
        let sampled = run(200);
        assert_eq!(
            sampled, plain,
            "sampling must not perturb trial outcomes (equality ignores metrics)"
        );
        assert!(plain.metrics.is_none());
        let m = sampled.metrics.as_ref().expect("metrics pooled");
        assert!(!m.rows.is_empty());
        // Six simulated trials pooled: the committed total is six times
        // one faulted run's commit count (all trials run the same
        // program to completion).
        assert_eq!(m.totals().committed % 6, 0);
        assert!(m.totals().committed > 0);
    }

    #[test]
    fn sampled_campaigns_pool_a_repeated_keys_series_once_per_trial() {
        // 300 draws over a 10-instruction program repeat keys; each
        // trial still pools its own copy of its key's series.
        let prog =
            assemble("  li t0, 4\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n").unwrap();
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
            .trials(300)
            .seed(5)
            .metrics_interval(50)
            .run(&prog)
            .unwrap();
        let mut keys: Vec<(u64, u8)> = report.outcomes.iter().map(|o| (o.seq, o.bit)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert!(keys.len() < 300, "keys must repeat");
        // Every trial recovers and commits the whole program once.
        let m = report.metrics.expect("metrics pooled");
        assert_eq!(m.totals().committed, 300 * 10);
    }

    #[test]
    fn recovery_costs_cycles() {
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
            .trials(10)
            .seed(3)
            .run(&loop_prog())
            .unwrap();
        assert!(report.mean_recovery_cycles() > 0.0, "a flush is never free");
    }

    #[test]
    fn empty_program_rejected() {
        let prog = assemble("  halt\n").unwrap();
        // One instruction is fine; a zero-trial campaign also fine.
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
            .trials(0)
            .run(&prog)
            .unwrap();
        assert_eq!(report.trials(), 0);
        assert_eq!(report.coverage(), 0.0);
    }

    #[test]
    fn memoization_keeps_duplicate_keys_cheap() {
        // A one-instruction-long program (plus halt) gives few distinct
        // seqs, so a large campaign collapses to few simulated keys.
        let prog =
            assemble("  li t0, 2\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n").unwrap();
        let report = Campaign::new(ReeseConfig::starting(), FaultMix::result_errors_only())
            .trials(5_000)
            .seed(5)
            .run(&prog)
            .unwrap();
        assert_eq!(report.trials(), 5_000);
        let t = report.throughput.expect("throughput recorded");
        // 2 classes x 6 dynamic instructions x 64 bits = 768 keys max.
        assert!(
            t.items() <= 768,
            "{} simulated items for 5000 trials",
            t.items()
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_checkpoint_interval_panics() {
        let _ = Campaign::new(ReeseConfig::starting(), FaultMix::broad()).ckpt_every(0);
    }

    #[test]
    fn outcomes_jsonl_then_resume_is_byte_identical() {
        let dir = std::env::temp_dir().join(format!("reese-campaign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("campaign.jsonl");
        let base = || {
            Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(16)
                .seed(9)
        };
        let whole = base().run(&loop_prog()).unwrap();
        // First half, interrupted via the trial cap...
        let partial = base()
            .outcomes_jsonl(&log)
            .trial_limit(8)
            .run(&loop_prog())
            .unwrap();
        assert_eq!(partial.trials(), 8);
        assert_eq!(partial.outcomes, whole.outcomes[..8]);
        // ...then resumed to completion.
        let resumed = base().resume(&log).run(&loop_prog()).unwrap();
        assert_eq!(resumed, whole);
        assert_eq!(resumed.to_json(), whole.to_json());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_mismatched_seed() {
        let dir = std::env::temp_dir().join(format!("reese-campaign-seed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("campaign.jsonl");
        Campaign::new(ReeseConfig::starting(), FaultMix::broad())
            .trials(4)
            .seed(1)
            .outcomes_jsonl(&log)
            .run(&loop_prog())
            .unwrap();
        let err = Campaign::new(ReeseConfig::starting(), FaultMix::broad())
            .trials(4)
            .seed(2)
            .resume(&log)
            .run(&loop_prog())
            .unwrap_err();
        match err {
            CampaignError::Resume(m) => assert!(m.contains("`seed`"), "{m}"),
            other => panic!("expected Resume error, got {other}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_fault_keys_the_campaign_never_drew() {
        let dir = std::env::temp_dir().join(format!("reese-campaign-key-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("campaign.jsonl");
        let base = || {
            Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(6)
                .seed(3)
        };
        base().outcomes_jsonl(&log).run(&loop_prog()).unwrap();
        let text = std::fs::read_to_string(&log).unwrap();
        let line = text.lines().nth(2).unwrap();
        let field = |key: &str| {
            let rest = &line[line.find(&format!("\"{key}\": ")).unwrap() + key.len() + 4..];
            rest[..rest.find(',').unwrap()].to_string()
        };
        let (class, seq, bit) = (field("class"), field("seq"), field("bit"));
        let class = class.trim_matches('"');
        let edit = |from: String, to: String| {
            let edited = line.replace(&from, &to);
            std::fs::write(&log, text.replacen(line, &edited, 1)).unwrap();
            base()
                .resume(&log)
                .run(&loop_prog())
                .unwrap_err()
                .to_string()
        };

        // An edited seq is a fault this campaign never drew for trial 1.
        let new_seq = (seq.parse::<u64>().unwrap() + 1) % 6;
        let err = edit(format!("\"seq\": {seq},"), format!("\"seq\": {new_seq},"));
        assert_eq!(
            err,
            format!(
                "resume log mismatch: trial 1 records fault {class} seq {new_seq} bit {bit} \
                 but this campaign drew {class} seq {seq} bit {bit}"
            )
        );

        // A bit past 63 would be masked into another fault, so the
        // reader rejects it outright.
        let err = edit(format!("\"bit\": {bit},"), "\"bit\": 200,".to_string());
        assert!(err.contains("line 3: bit 200 out of range"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_damaged_log_lines() {
        let dir =
            std::env::temp_dir().join(format!("reese-campaign-damaged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("campaign.jsonl");
        let base = || {
            Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(16)
                .seed(3)
        };
        base()
            .outcomes_jsonl(&log)
            .trial_limit(12)
            .run(&loop_prog())
            .unwrap();
        let text = std::fs::read_to_string(&log).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Rewrites one line (0-based index into the file), resumes, and
        // returns the error; the log must come back byte for byte.
        let resume = |index: usize, edited: &str| {
            let mut damaged = lines.clone();
            damaged[index] = edited;
            let damaged = damaged.join("\n") + "\n";
            std::fs::write(&log, &damaged).unwrap();
            let err = base().resume(&log).run(&loop_prog()).unwrap_err();
            assert_eq!(std::fs::read_to_string(&log).unwrap(), damaged);
            err
        };

        // A detected trial whose latency is no longer a number.
        let key = "\"detection_latency\": ";
        let (index, line) = lines
            .iter()
            .enumerate()
            .find(|(_, l)| !l.contains(&format!("{key}null")) && l.contains(key))
            .expect("some trial is detected");
        let at = line.find(key).unwrap() + key.len();
        let end = at + line[at..].find(',').unwrap();
        let edited = format!("{}x{}", &line[..at], &line[end..]);
        assert_eq!(
            resume(index, &edited),
            CampaignError::Resume(format!(
                "line {}: `detection_latency` is `x`, not null or an unsigned integer",
                index + 1
            ))
        );

        // Another trial without its id.
        let other = if index == 1 { 2 } else { 1 };
        let line = lines[other];
        let at = line.find("\"id\": ").unwrap();
        let end = at + line[at..].find(", ").unwrap() + 2;
        let edited = format!("{}{}", &line[..at], &line[end..]);
        assert_eq!(
            resume(other, &edited),
            CampaignError::Resume(format!("line {}: outcome is missing `id`", other + 1))
        );

        // A header whose trial count has trailing junk.
        let edited = lines[0].replace("\"trials\": 16,", "\"trials\": 16x,");
        assert_ne!(edited, lines[0]);
        assert_eq!(
            resume(0, &edited),
            CampaignError::Resume("`trials` is `16x`, not an unsigned integer".into())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_different_program() {
        let dir = std::env::temp_dir().join(format!("reese-campaign-prog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("campaign.jsonl");
        let base = || {
            Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(4)
                .seed(1)
        };
        base().outcomes_jsonl(&log).run(&loop_prog()).unwrap();
        let other =
            assemble("  li t0, 10\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n").unwrap();
        let err = base().resume(&log).run(&other).unwrap_err();
        assert!(matches!(err, CampaignError::Resume(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_checks_the_clean_fields_after_the_fan_out() {
        let dir = std::env::temp_dir().join(format!("reese-campaign-clean-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("campaign.jsonl");
        let base = |mix: FaultMix| {
            Campaign::new(ReeseConfig::starting(), mix)
                .trials(8)
                .seed(4)
                .jobs(2)
        };
        base(FaultMix::broad())
            .outcomes_jsonl(&log)
            .trial_limit(4)
            .run(&loop_prog())
            .unwrap();
        let text = std::fs::read_to_string(&log).unwrap();
        let (first, rest) = text.split_once('\n').unwrap();
        let real = LogHeader::parse(first).unwrap();
        // Rewrites the header, resumes, and returns the error; the log
        // must come back byte for byte.
        let resume = |edit: &dyn Fn(&mut LogHeader), mix: FaultMix| {
            let mut h = real;
            edit(&mut h);
            let edited = format!("{}\n{rest}", h.to_line());
            std::fs::write(&log, &edited).unwrap();
            let err = base(mix).resume(&log).run(&loop_prog()).unwrap_err();
            assert_eq!(std::fs::read_to_string(&log).unwrap(), edited);
            err
        };
        let err = resume(&|h| h.clean_digest ^= 1, FaultMix::broad());
        assert_eq!(
            err,
            CampaignError::Resume(format!(
                "`clean_digest` is {} in the log but {} in this campaign",
                real.clean_digest ^ 1,
                real.clean_digest
            ))
        );
        let err = resume(&|h| h.clean_cycles += 1, FaultMix::broad());
        assert_eq!(
            err,
            CampaignError::Resume(format!(
                "`clean_cycles` is {} in the log but {} in this campaign",
                real.clean_cycles + 1,
                real.clean_cycles
            ))
        );
        // Wrong in both `mix` and `clean_cycles`: the mix is checked
        // before the fan-out, the clean fields after it, so `mix` is
        // named.
        let err = resume(&|h| h.clean_cycles += 1, FaultMix::result_errors_only());
        match err {
            CampaignError::Resume(m) => assert!(m.starts_with("`mix` is "), "{m}"),
            other => panic!("expected Resume error, got {other}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn outcome_logs_are_byte_identical_across_jobs() {
        let dir = std::env::temp_dir().join(format!("reese-campaign-jobs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = |jobs: usize| {
            let path = dir.join(format!("j{jobs}.jsonl"));
            Campaign::new(ReeseConfig::starting(), FaultMix::broad())
                .trials(24)
                .seed(12)
                .jobs(jobs)
                .outcomes_jsonl(&path)
                .run(&loop_prog())
                .unwrap();
            std::fs::read_to_string(&path).unwrap()
        };
        let serial = log(1);
        assert!(
            serial.starts_with("{\"reese_campaign_log\": 1, "),
            "{serial}"
        );
        assert_eq!(serial.lines().count(), 25, "header plus one line per trial");
        assert_eq!(log(4), serial);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_events_follow_the_documented_order() {
        let dir = std::env::temp_dir().join(format!("reese-campaign-tele-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let events = |campaign: Campaign| {
            campaign
                .trials(12)
                .seed(6)
                .telemetry_out(&path)
                .run(&loop_prog())
                .unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            text.lines()
                .map(|l| {
                    let rest = &l[l.find("\"event\": \"").unwrap() + 10..];
                    rest[..rest.find('"').unwrap()].to_string()
                })
                .filter(|e| e != "progress")
                .collect::<Vec<_>>()
        };
        let want = [
            "journal_start",
            "campaign_start",
            "reference_done",
            "plan",
            "clean_done",
            "trials_done",
            "campaign_done",
        ];
        for jobs in [1, 2] {
            let base = || Campaign::new(ReeseConfig::starting(), FaultMix::broad()).jobs(jobs);
            assert_eq!(events(base()), want, "default path, jobs={jobs}");
            assert_eq!(
                events(base().metrics_interval(200)),
                want,
                "metrics sampling, jobs={jobs}"
            );
            assert_eq!(
                events(base().engine(TrialEngine::Full)),
                want,
                "full engine, jobs={jobs}"
            );
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let clean = text.lines().find(|l| l.contains("\"clean_done\"")).unwrap();
        assert!(clean.contains("\"clean_cycles\": ") && clean.contains("\"wait_ms\": "));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_missing_file_is_io_error() {
        let err = Campaign::new(ReeseConfig::starting(), FaultMix::broad())
            .trials(4)
            .resume("/nonexistent/campaign.jsonl")
            .run(&loop_prog())
            .unwrap_err();
        assert!(matches!(err, CampaignError::Io(_)), "{err}");
    }
}
