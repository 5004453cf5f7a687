//! Monte-Carlo fault-injection campaigns.

use crate::engine::{boundary_count, clean_window, plan_window, TrialWindow, WindowBaseline};
use crate::schemes::{self, DetectionScheme, Trial};
use crate::stream::{fnv1a64, outcome_line, read_log, LogHeader, LogWriter};
use crate::telemetry::{json_str, Telemetry};
use crate::{CoverageReport, FaultClass, FaultMix, TrialEngine, TrialOutcome};
use reese_ckpt::{
    checkpoint_stream_thinned, checkpoints_at, derive_checkpoint, Checkpoint, Scheme,
    MAX_RESIDENT_CHECKPOINTS,
};
use reese_core::ReeseConfig;
use reese_cpu::Emulator;
use reese_isa::Program;
use reese_stats::{par_map_indexed, par_map_weighted, ParallelStats, SplitMix64};
use reese_trace::{MetricsSeries, Tracer};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::path::PathBuf;

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
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Workload(m) => write!(f, "workload failed: {m}"),
            CampaignError::Trial { trial, message } => write!(f, "trial {trial} failed: {message}"),
            CampaignError::Resume(m) => write!(f, "resume log mismatch: {m}"),
            CampaignError::Io(m) => write!(f, "campaign log I/O failed: {m}"),
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
/// around the fault (see [`crate::engine`]): under the default
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
    /// [`CoverageReport::metrics`]. 0 (the default) disables sampling —
    /// trials run on the zero-cost unobserved path, and identical fault
    /// keys are memoized. Trial outcomes are bit-identical either way.
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
    /// # Errors
    ///
    /// Returns [`CampaignError::Workload`] if the program cannot run
    /// cleanly, [`CampaignError::Trial`] if a trial fails in an
    /// unexpected way (permanent faults are *expected* only for sticky
    /// injections, which this campaign does not produce),
    /// [`CampaignError::Resume`] if a resume log records a different
    /// campaign, or [`CampaignError::Io`] on log file failures.
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
        let program = &prepared;

        let phase_start = std::time::Instant::now();
        // The reference sweep (dynamic length + checkpoints) and the
        // clean detailed run are independent: overlap them when the
        // campaign has workers to spare.
        let (sweep, clean) = if self.jobs > 1 {
            std::thread::scope(|scope| {
                let clean = scope.spawn(|| scheme.run_limit(program, self.max_instructions));
                let sweep = self.reference_sweep(program);
                (sweep, clean.join().expect("clean reference pass panicked"))
            })
        } else {
            (
                self.reference_sweep(program),
                scheme.run_limit(program, self.max_instructions),
            )
        };
        let (coarse, stride, dynamic_len) = sweep?;
        let clean = clean.map_err(CampaignError::Workload)?;
        if dynamic_len == 0 {
            return Err(CampaignError::Workload(
                "program executes no instructions".into(),
            ));
        }
        let clean_cycles = clean.cycles;
        let clean_digest = clean.state_digest;
        if let Some(t) = &tele {
            t.emit(
                "reference_done",
                &[
                    ("checkpoints", coarse.len().to_string()),
                    ("stride", stride.to_string()),
                    ("dynamic_len", dynamic_len.to_string()),
                    ("clean_cycles", clean_cycles.to_string()),
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

        // Campaign-log plumbing: a resume log replays its recorded
        // outcomes after header validation; a fresh log starts with the
        // header line.
        let header = self.log_header(dynamic_len, clean_cycles, clean_digest);
        let (recorded, mut log) = match (&self.resume, &self.outcomes_jsonl) {
            (Some(path), _) => {
                let recorded = read_log(path, &header)?;
                (recorded, Some(LogWriter::append(path)?))
            }
            (None, Some(path)) => (BTreeMap::new(), Some(LogWriter::create(path, &header)?)),
            (None, None) => (BTreeMap::new(), None),
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

        // Recover exactly the anchor checkpoints the distinct keys use
        // from the coarse sweep — the campaign pays a capture per
        // *used* anchor, not per boundary of a long program.
        let phase_start = std::time::Instant::now();
        let anchors =
            self.anchor_checkpoints(program, &coarse, stride, boundaries, dynamic_len, &keys)?;
        drop(coarse);
        if let Some(t) = &tele {
            t.emit(
                "anchors_derived",
                &[
                    ("anchors", anchors.len().to_string()),
                    (
                        "phase_ms",
                        (phase_start.elapsed().as_millis() as u64).to_string(),
                    ),
                ],
            );
        }
        let mut computed: BTreeMap<usize, TrialOutcome> = BTreeMap::new();
        let mut metrics: Option<MetricsSeries> = None;
        let throughput;
        if self.metrics_interval == 0 {
            let total = keys.len() as u64;
            let stride = (total / 16).max(1);
            let tick = || {
                if let Some(t) = &tele {
                    t.progress(total, stride);
                }
            };
            let (results, stats) = match self.engine {
                TrialEngine::Replay => self.window_trials(
                    scheme.as_ref(),
                    program,
                    &anchors,
                    boundaries,
                    dynamic_len,
                    &keys,
                    tick,
                )?,
                TrialEngine::Full => par_map_indexed(self.jobs, &keys, |_, &(class, seq, bit)| {
                    let r = self.trial_outcome(
                        scheme.as_ref(),
                        program,
                        &anchors,
                        &HashMap::new(),
                        boundaries,
                        dynamic_len,
                        class,
                        seq,
                        bit,
                        None,
                    );
                    tick();
                    r
                }),
            };
            throughput = stats;
            for &t in &todo {
                match &results[key_of[&params[t]]] {
                    Ok(o) => {
                        computed.insert(t, *o);
                    }
                    Err(m) => {
                        return Err(CampaignError::Trial {
                            trial: t,
                            message: m.clone(),
                        })
                    }
                }
            }
        } else {
            // Metrics sampling pools one series per simulated *trial*;
            // memoization would collapse duplicate keys and change the
            // pooled totals, so every trial simulates individually, from
            // scratch over its window, against a separately cached
            // clean baseline.
            let phase_start = std::time::Instant::now();
            let baselines = self.window_baselines(
                scheme.as_ref(),
                program,
                &anchors,
                boundaries,
                dynamic_len,
                &keys,
            )?;
            if let (Some(t), TrialEngine::Replay) = (&tele, self.engine) {
                t.emit(
                    "baselines_cached",
                    &[
                        ("windows", baselines.len().to_string()),
                        (
                            "phase_ms",
                            (phase_start.elapsed().as_millis() as u64).to_string(),
                        ),
                    ],
                );
            }
            let total = todo.len() as u64;
            let stride = (total / 16).max(1);
            let (results, stats) = par_map_indexed(self.jobs, &todo, |_, &t| {
                let (class, seq, bit) = params[t];
                let mut tracer = class
                    .detectable_by_design()
                    .then(|| Tracer::new().with_interval(self.metrics_interval));
                let outcome = self
                    .trial_outcome(
                        scheme.as_ref(),
                        program,
                        &anchors,
                        &baselines,
                        boundaries,
                        dynamic_len,
                        class,
                        seq,
                        bit,
                        tracer.as_mut(),
                    )
                    .map_err(|message| CampaignError::Trial { trial: t, message })?;
                let series = tracer.map(|mut t| {
                    t.finish();
                    t.into_parts().1
                });
                if let Some(tl) = &tele {
                    tl.progress(total, stride);
                }
                Ok((outcome, series))
            });
            throughput = stats;
            for (result, &t) in results.into_iter().zip(&todo) {
                let (outcome, series) = result?;
                computed.insert(t, outcome);
                if let Some(m) = series {
                    match &mut metrics {
                        None => metrics = Some(m),
                        Some(acc) => acc.merge_pooled(&m),
                    }
                }
            }
        }

        if let Some(t) = &tele {
            t.trials_done(&throughput);
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
        let mut report = CoverageReport::new(clean_cycles);
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
    /// derived afterwards, so capture cost scales with the campaign,
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

    /// Derives the anchor checkpoints the distinct simulated keys use
    /// from the coarse sweep, on the worker pool. Each distinct anchor
    /// costs at most one coarse-stride warm fast-forward plus one
    /// capture; anchors that land on the coarse grid are reused as-is.
    /// Replay-only: the `Full` arm re-derives anchors from instruction
    /// 0 inside each trial.
    fn anchor_checkpoints(
        &self,
        program: &Program,
        coarse: &[Checkpoint],
        stride: u64,
        boundaries: usize,
        dynamic_len: u64,
        keys: &[(FaultClass, u64, u8)],
    ) -> Result<HashMap<usize, Checkpoint>, CampaignError> {
        if self.engine == TrialEngine::Full {
            return Ok(HashMap::new());
        }
        let mut wanted: Vec<usize> = Vec::new();
        let mut seen = HashSet::new();
        for &(class, seq, _) in keys {
            if class.detectable_by_design() {
                let w = self.window(seq, boundaries, dynamic_len);
                if seen.insert(w.anchor_idx) {
                    wanted.push(w.anchor_idx);
                }
            }
        }
        let (results, _) = par_map_indexed(self.jobs, &wanted, |_, &idx| {
            let boundary = idx as u64 * self.ckpt_every;
            let base = &coarse[(boundary / stride) as usize];
            derive_checkpoint(program, base, boundary, &self.config.pipeline)
                .map_err(|e| e.to_string())
        });
        let mut map = HashMap::with_capacity(wanted.len());
        for (idx, r) in wanted.into_iter().zip(results) {
            let ck =
                r.map_err(|m| CampaignError::Workload(format!("anchor derivation failed: {m}")))?;
            map.insert(idx, ck);
        }
        Ok(map)
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
    /// count, and metrics sampling — none may change outcomes).
    fn log_header(&self, dynamic_len: u64, clean_cycles: u64, clean_digest: u64) -> LogHeader {
        let mut mix = [0u32; 5];
        for (slot, class) in mix.iter_mut().zip(FaultClass::ALL) {
            *slot = self.mix.weight(class);
        }
        // The scheme participates in the config digest (a duplex log
        // must not resume a REESE campaign). The REESE hash stays
        // unsalted so logs from before schemes existed keep resuming.
        let config_fnv = match self.scheme {
            Scheme::Reese => fnv1a64(format!("{:?}", self.config).as_bytes()),
            s => fnv1a64(format!("{}:{:?}", s.name(), self.config).as_bytes()),
        };
        LogHeader {
            seed: self.seed,
            trials: self.trials as u64,
            mix,
            ckpt_every: self.ckpt_every,
            max_instructions: self.max_instructions,
            config_fnv,
            dynamic_len,
            clean_cycles,
            clean_digest,
        }
    }

    /// The default Replay path: scores every distinct key with one
    /// detailed pass per anchored window. The simulated keys are grouped
    /// by window and each window runs its clean machine once, forking
    /// one faulted run per key from it
    /// ([`DetectionScheme::run_window_trials`]); the clean pass is also
    /// the window's baseline, so no separate baseline phase runs. Keys
    /// of classes scored by fiat form one more group. The fan-out counts
    /// each key as one item and `tick` fires once per key, so throughput
    /// and progress read in keys whatever the grouping. Returns one
    /// result per key, in `keys` order.
    #[allow(clippy::too_many_arguments)]
    fn window_trials(
        &self,
        scheme: &dyn DetectionScheme,
        program: &Program,
        anchors: &HashMap<usize, Checkpoint>,
        boundaries: usize,
        dynamic_len: u64,
        keys: &[(FaultClass, u64, u8)],
        tick: impl Fn() + Sync,
    ) -> Result<(Vec<Result<TrialOutcome, String>>, ParallelStats), CampaignError> {
        // Windows in first-occurrence order of their keys.
        let mut groups: Vec<(Option<TrialWindow>, Vec<usize>)> = Vec::new();
        let mut group_of: HashMap<Option<TrialWindow>, usize> = HashMap::new();
        for (k, &(class, seq, _)) in keys.iter().enumerate() {
            let window = class
                .detectable_by_design()
                .then(|| self.window(seq, boundaries, dynamic_len));
            let g = *group_of.entry(window).or_insert_with(|| {
                groups.push((window, Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push(k);
        }
        let (results, stats) = par_map_weighted(
            self.jobs,
            &groups,
            |(_, members)| members.len() as u64,
            |_, (window, members)| {
                let group: Vec<(FaultClass, u64, u8)> = members.iter().map(|&k| keys[k]).collect();
                let r = match window {
                    Some(w) => scheme
                        .run_window_trials(program, &anchors[&w.anchor_idx], w.budget, &group)
                        .map(|(_, outcomes)| outcomes),
                    None => Ok(group.into_iter().map(|key| Ok(by_fiat(key))).collect()),
                };
                members.iter().for_each(|_| tick());
                r
            },
        );
        let mut outcomes: Vec<Option<Result<TrialOutcome, String>>> = vec![None; keys.len()];
        for ((_, members), r) in groups.iter().zip(results) {
            let r = r.map_err(|m| CampaignError::Workload(format!("clean window failed: {m}")))?;
            for (&k, o) in members.iter().zip(r) {
                outcomes[k] = Some(o);
            }
        }
        let outcomes = outcomes
            .into_iter()
            .map(|o| o.expect("every key belongs to one group"))
            .collect();
        Ok((outcomes, stats))
    }

    /// Clean-window baselines for every distinct window the simulated
    /// keys touch, computed on the worker pool before a per-trial
    /// fan-out (the metrics-sampling path). Replay-only: the `Full` arm
    /// recomputes its baseline inside each trial, sharing nothing.
    fn window_baselines(
        &self,
        scheme: &dyn DetectionScheme,
        program: &Program,
        anchors: &HashMap<usize, Checkpoint>,
        boundaries: usize,
        dynamic_len: u64,
        keys: &[(FaultClass, u64, u8)],
    ) -> Result<HashMap<TrialWindow, WindowBaseline>, CampaignError> {
        if self.engine == TrialEngine::Full {
            return Ok(HashMap::new());
        }
        let mut windows: Vec<TrialWindow> = Vec::new();
        let mut seen = HashSet::new();
        for &(class, seq, _) in keys {
            if class.detectable_by_design() {
                let w = self.window(seq, boundaries, dynamic_len);
                if seen.insert(w) {
                    windows.push(w);
                }
            }
        }
        let (results, _) = par_map_indexed(self.jobs, &windows, |_, w| {
            clean_window(scheme, program, &anchors[&w.anchor_idx], w.budget)
        });
        let mut map = HashMap::with_capacity(windows.len());
        for (w, r) in windows.into_iter().zip(results) {
            let baseline =
                r.map_err(|m| CampaignError::Workload(format!("clean window failed: {m}")))?;
            map.insert(w, baseline);
        }
        Ok(map)
    }

    /// Scores one fault key over its anchored window (see
    /// [`crate::engine`] for the window contract shared by both
    /// engines).
    #[allow(clippy::too_many_arguments)]
    fn trial_outcome(
        &self,
        scheme: &dyn DetectionScheme,
        program: &Program,
        anchors: &HashMap<usize, Checkpoint>,
        baselines: &HashMap<TrialWindow, WindowBaseline>,
        boundaries: usize,
        dynamic_len: u64,
        class: FaultClass,
        seq: u64,
        bit: u8,
        tracer: Option<&mut Tracer>,
    ) -> Result<TrialOutcome, String> {
        if !class.detectable_by_design() {
            return Ok(by_fiat((class, seq, bit)));
        }
        let window = self.window(seq, boundaries, dynamic_len);
        let owned;
        let (ck, baseline): (&Checkpoint, WindowBaseline) = match self.engine {
            TrialEngine::Replay => (&anchors[&window.anchor_idx], baselines[&window]),
            TrialEngine::Full => {
                // The oracle arm: re-derive the anchor state from
                // instruction 0 and re-run the clean window, every
                // trial, sharing nothing with any other trial.
                owned = checkpoints_at(
                    program,
                    &[window.anchor(self.ckpt_every)],
                    &self.config.pipeline,
                )
                .map_err(|e| e.to_string())?
                .pop()
                .expect("one boundary requested");
                let baseline = clean_window(scheme, program, &owned, window.budget)?;
                (&owned, baseline)
            }
        };
        scheme.run_trial(Trial {
            program,
            ck,
            baseline: &baseline,
            class,
            seq,
            bit,
            budget: window.budget,
            tracer,
            probe: None,
        })
    }
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
    fn resume_missing_file_is_io_error() {
        let err = Campaign::new(ReeseConfig::starting(), FaultMix::broad())
            .trials(4)
            .resume("/nonexistent/campaign.jsonl")
            .run(&loop_prog())
            .unwrap_err();
        assert!(matches!(err, CampaignError::Io(_)), "{err}");
    }
}
