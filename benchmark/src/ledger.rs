//! The traced run: a campaign (or sweep) rebuilt from the public calls
//! `Campaign::run` makes, with a span around each call, plus
//! micro-timings of the emulator and of checkpoint restore and encode.
//! The per-layer metrics come from these spans.

use crate::stats::{median, percentile};
use crate::workload::{self, CampaignSpec, Ops, Output, Raw, Setup, SweepCell, JOBS};
use reese_ckpt::{checkpoint_stream_thinned, derive_checkpoint, Checkpoint, Scheme};
use reese_cpu::Emulator;
use reese_faults::{
    schemes, CoverageReport, FaultClass, SchemeRun, Trial, TrialOutcome, WindowBaseline,
};
use reese_isa::{IsaId, Program};
use reese_stats::SplitMix64;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The window planner's runway before a fault and drain margin after
/// it, and the campaign's cap on checkpoints resident during its
/// sweep, as in `reese_faults`' private `plan_window` and
/// `MAX_RESIDENT_CHECKPOINTS`. The rebuild test fails if these drift
/// from the library's.
const RUNWAY: u64 = 512;
const MARGIN: u64 = 512;
const MAX_RESIDENT_CHECKPOINTS: usize = 96;

/// One timed call. Spans of one campaign (or sweep cell) share `id`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub id: usize,
    pub scheme: Scheme,
    /// Work counted at the boundary: simulated cycles for `run_limit`,
    /// checkpoints kept for `checkpoint_stream_thinned`, else 0.
    pub count: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Spans kept in memory until the run ends.
pub struct Ledger {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Ledger {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Opens a root span; close it with [`Ledger::end`].
    pub fn begin(&mut self, name: &'static str, id: usize, scheme: Scheme) -> usize {
        let t = self.now();
        self.spans.push(Span {
            name,
            start_s: t,
            end_s: t,
            parent: None,
            id,
            scheme,
            count: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_s = self.now();
    }

    /// Times `f` as a child of `parent`, returning its result and the
    /// new span's index.
    fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> (T, usize) {
        let start_s = self.now();
        let r = f();
        let end_s = self.now();
        let p = &self.spans[parent];
        self.spans.push(Span {
            name,
            start_s,
            end_s,
            parent: Some(parent),
            id: p.id,
            scheme: p.scheme,
            count: 0,
        });
        (r, self.spans.len() - 1)
    }

    /// Each span's duration minus the part its direct children cover
    /// (children of one span never overlap: the rebuild is serial).
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_s();
            }
        }
        own
    }

    /// Self time summed per span name.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *m.entry(s.name).or_insert(0.0) += t;
        }
        m
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The spans as a Chrome trace-event document, which Perfetto
    /// loads: one complete (`X`) event per span, one track per
    /// campaign or sweep cell.
    pub fn trace_json(&self, labels: &[String]) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\": {}, \"cat\": \"layer\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                     \"pid\": 1, \"tid\": {}, \"args\": {{\"span\": {i}, \"parent\": {}, \"id\": {}, \
                     \"op\": {}, \"scheme\": \"{}\", \"count\": {}}}}}",
                    crate::json::quote(s.name),
                    s.start_s * 1e6,
                    s.dur_s() * 1e6,
                    s.id + 1,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.id,
                    crate::json::quote(labels.get(s.id).map_or("", String::as_str)),
                    s.scheme.name(),
                    s.count
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

/// What a rebuilt campaign leaves for the micro-timings and counters.
pub struct Rebuilt {
    pub output: Output,
    pub prepared: Program,
    pub anchors: Vec<Checkpoint>,
    pub simulated_keys: usize,
    pub trials: usize,
}

/// The anchored window of a fault at `seq`: anchor index and budget,
/// as `plan_window` computes it for a campaign without an instruction
/// cap.
fn plan_window(seq: u64, every: u64, boundaries: usize, dynamic_len: u64) -> (usize, u64) {
    let anchor_idx = ((seq.saturating_sub(RUNWAY) / every) as usize).min(boundaries - 1);
    let anchor = anchor_idx as u64 * every;
    let stop_idx = (seq + MARGIN) / every + 1;
    let budget = if (stop_idx as usize) < boundaries {
        stop_idx * every - anchor
    } else {
        dynamic_len - anchor + every
    };
    (anchor_idx, budget)
}

fn window_baseline(r: &SchemeRun) -> WindowBaseline {
    let bytes: Vec<u8> = r.output.iter().flat_map(|v| v.to_le_bytes()).collect();
    WindowBaseline {
        cycles: r.cycles,
        digest: r.state_digest,
        output_fnv: crate::workload::fnv1a64(&bytes),
        halted: r.exit_code.is_some(),
    }
}

/// Rebuilds `Campaign::run` (replay engine, one worker) from public
/// calls, recording a span around each: `prepare`, the checkpoint
/// sweep, the clean run, each anchor derivation, each clean window and
/// each simulated trial. The report must serialise byte-identically to
/// the campaign's own.
pub fn rebuild_campaign(
    ledger: &mut Ledger,
    id: usize,
    program: &Program,
    spec: &CampaignSpec,
) -> Result<Rebuilt, String> {
    let config = CampaignSpec::config();
    let every = spec.every;
    let scheme = schemes::build(spec.scheme, &config);
    let root = ledger.begin("campaign", id, spec.scheme);

    let (prepared, _) = ledger.span("prepare", root, || scheme.prepare(program));
    let prepared = prepared?;
    let (sweep, s) = ledger.span("checkpoint_stream_thinned", root, || {
        checkpoint_stream_thinned(
            &prepared,
            every,
            &config.pipeline,
            u64::MAX,
            MAX_RESIDENT_CHECKPOINTS,
        )
    });
    let (coarse, stride, dynamic_len) = sweep.map_err(|e| e.to_string())?;
    ledger.spans[s].count = coarse.len() as u64;
    let (clean, s) = ledger.span("run_limit", root, || scheme.run_limit(&prepared, u64::MAX));
    let clean = clean?;
    ledger.spans[s].count = clean.cycles;
    if dynamic_len == 0 {
        return Err("program executes no instructions".into());
    }
    let boundaries = ((dynamic_len - 1) / every + 1) as usize;

    let mut rng = SplitMix64::new(spec.seed);
    let params: Vec<(FaultClass, u64, u8)> = (0..spec.trials)
        .map(|_| {
            let class = spec.mix.sample(rng.next_u64());
            let seq = rng.range_u64(0, dynamic_len);
            let bit = (rng.next_u64() & 63) as u8;
            (class, seq, bit)
        })
        .collect();
    let mut keys = Vec::new();
    let mut key_of = HashMap::new();
    for &p in &params {
        key_of.entry(p).or_insert_with(|| {
            keys.push(p);
            keys.len() - 1
        });
    }
    let simulated: Vec<(FaultClass, u64, u8)> = keys
        .iter()
        .copied()
        .filter(|k| k.0.detectable_by_design())
        .collect();

    let mut anchors: HashMap<usize, Checkpoint> = HashMap::new();
    let mut anchor_order = Vec::new();
    for &(_, seq, _) in &simulated {
        let (idx, _) = plan_window(seq, every, boundaries, dynamic_len);
        if anchors.contains_key(&idx) {
            continue;
        }
        let boundary = idx as u64 * every;
        let base = &coarse[(boundary / stride) as usize];
        let (ck, _) = ledger.span("derive_checkpoint", root, || {
            derive_checkpoint(&prepared, base, boundary, &config.pipeline)
        });
        anchors.insert(idx, ck.map_err(|e| e.to_string())?);
        anchor_order.push(idx);
    }
    drop(coarse);

    let mut baselines: HashMap<(usize, u64), WindowBaseline> = HashMap::new();
    for &(_, seq, _) in &simulated {
        let w = plan_window(seq, every, boundaries, dynamic_len);
        if baselines.contains_key(&w) {
            continue;
        }
        let (r, _) = ledger.span("run_window", root, || {
            scheme.run_window(&prepared, &anchors[&w.0], w.1)
        });
        baselines.insert(w, window_baseline(&r?));
    }

    let mut outcomes = Vec::with_capacity(keys.len());
    for &(class, seq, bit) in &keys {
        let outcome = if class.detectable_by_design() {
            let w = plan_window(seq, every, boundaries, dynamic_len);
            let (r, _) = ledger.span("run_trial", root, || {
                scheme.run_trial(Trial {
                    program: &prepared,
                    ck: &anchors[&w.0],
                    baseline: &baselines[&w],
                    class,
                    seq,
                    bit,
                    budget: w.1,
                    tracer: None,
                    probe: None,
                })
            });
            r?
        } else {
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
        };
        outcomes.push(outcome);
    }
    let mut report = CoverageReport::new(clean.cycles);
    for p in &params {
        report.record(outcomes[key_of[p]]);
    }
    ledger.end(root);

    Ok(Rebuilt {
        output: Output {
            text: report.to_json(),
            work: report.trials() as f64,
        },
        prepared,
        anchors: anchor_order
            .into_iter()
            .map(|i| anchors.remove(&i).expect("derived above"))
            .collect(),
        simulated_keys: simulated.len(),
        trials: spec.trials,
    })
}

/// One sweep cell with spans around `prepare` and `run_limit`.
fn trace_cell(
    ledger: &mut Ledger,
    id: usize,
    program: &Program,
    cell: &SweepCell,
) -> Result<Output, String> {
    let root = ledger.begin("cell", id, cell.scheme);
    let scheme = schemes::build(cell.scheme, &cell.config);
    let (prepared, _) = ledger.span("prepare", root, || scheme.prepare(program));
    let prepared = prepared?;
    let (run, s) = ledger.span("run_limit", root, || scheme.run_limit(&prepared, u64::MAX));
    let run = run?;
    ledger.spans[s].count = run.cycles;
    ledger.end(root);
    Ok(Output {
        text: format!("{run:?}"),
        work: run.committed as f64 / 1e6,
    })
}

/// Per-layer numbers of one traced repetition.
pub struct Traced {
    /// Each operation's untraced result at [`JOBS`] workers.
    pub parallel: Vec<Result<Raw, String>>,
    /// Each operation's untraced result at one worker.
    pub serial: Vec<Result<Raw, String>>,
    /// Each operation's traced rebuild.
    pub rebuilt: Vec<Result<Output, String>>,
    pub metrics: Vec<(&'static str, f64)>,
    pub ledger: Ledger,
}

/// Times the workload at [`JOBS`] workers, then runs every operation
/// three times at one worker: untraced, as a traced rebuild, and
/// untraced again, then times the workload at [`JOBS`] workers again.
/// `ledger.serial_s` sums the mean of each operation's two untraced
/// times, taken on either side of its rebuild, and the parallel time is
/// the mean of the two parallel runs around them. The host's speed
/// drifts over seconds, and bracketing keeps that drift out of
/// `ledger.unaccounted_frac` and `stats.parallel_speedup`. Then come
/// the micro-timings and the per-layer metrics.
pub fn trace(setup: &Setup) -> Traced {
    let t = Instant::now();
    let parallel = workload::run(setup, JOBS);
    let parallel_before = t.elapsed().as_secs_f64();
    let mut ledger = Ledger::default();
    let mut campaigns = Vec::new();
    let mut serial = Vec::new();
    let mut rebuilt = Vec::new();
    let mut serial_s = 0.0;
    for id in 0..setup.len() {
        let t = Instant::now();
        serial.push(workload::run_op(setup, id, 1));
        let before = t.elapsed().as_secs_f64();
        rebuilt.push(match &setup.ops {
            Ops::Campaigns(specs) => {
                let spec = &specs[id];
                rebuild_campaign(&mut ledger, id, &setup.programs[spec.program], spec).map(|r| {
                    let out = r.output.clone();
                    campaigns.push(r);
                    out
                })
            }
            Ops::Sweep(cells) => trace_cell(
                &mut ledger,
                id,
                &setup.programs[cells[id].program],
                &cells[id],
            ),
        });
        let t = Instant::now();
        let _ = black_box(workload::run_op(setup, id, 1));
        serial_s += (before + t.elapsed().as_secs_f64()) / 2.0;
    }
    let t = Instant::now();
    let _ = black_box(workload::run(setup, JOBS));
    let parallel_s = (parallel_before + t.elapsed().as_secs_f64()) / 2.0;

    // Micro-timings, outside every span.
    let mut insns = [0u64; 2];
    let mut emu_s = [0f64; 2];
    for p in &setup.programs {
        let mut emu = Emulator::new(p);
        let t = Instant::now();
        let r = emu.run(u64::MAX);
        let secs = t.elapsed().as_secs_f64();
        if let Ok(r) = black_box(r) {
            let isa = usize::from(p.isa() == IsaId::Rv32i);
            insns[isa] += r.instructions;
            emu_s[isa] += secs;
        }
    }
    let (mut restore_us, mut encode_us, mut anchor_kib) = (Vec::new(), Vec::new(), Vec::new());
    for r in &campaigns {
        for ck in &r.anchors {
            let t = Instant::now();
            black_box(ck.restore(&r.prepared));
            restore_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let bytes = black_box(ck.encode());
            encode_us.push(t.elapsed().as_secs_f64() * 1e6);
            anchor_kib.push(bytes.len() as f64 / 1024.0);
        }
    }

    let self_s = ledger.layer_self_s();
    let layer = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let durations = |name: &str| -> Vec<f64> { ledger.named(name).map(Span::dur_s).collect() };
    let count = |name: &str| ledger.named(name).count() as f64;
    let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let per_s = |n: f64, secs: f64| if secs > 0.0 { n / secs } else { 0.0 };
    let cycles_per_s = |scheme: Option<Scheme>| {
        let (mut cycles, mut secs) = (0u64, 0f64);
        for s in ledger.named("run_limit") {
            if scheme.is_none_or(|k| k == s.scheme) {
                cycles += s.count;
                secs += s.dur_s();
            }
        }
        per_s(cycles as f64 / 1e6, secs)
    };
    let trial_us: Vec<f64> = durations("run_trial").iter().map(|d| d * 1e6).collect();
    let layered: f64 = ledger
        .spans
        .iter()
        .filter(|s| s.parent.is_some())
        .map(Span::dur_s)
        .sum();
    let trials: usize = campaigns.iter().map(|r| r.trials).sum();
    let simulated: usize = campaigns.iter().map(|r| r.simulated_keys).sum();

    let mut metrics = vec![
        (
            "cpu.native_minsns_per_s",
            per_s(insns[0] as f64 / 1e6, emu_s[0]),
        ),
        (
            "cpu.rv32i_minsns_per_s",
            per_s(insns[1] as f64 / 1e6, emu_s[1]),
        ),
        ("ckpt.sweep_s", layer("checkpoint_stream_thinned")),
        (
            "ckpt.sweep_checkpoints",
            ledger
                .named("checkpoint_stream_thinned")
                .map(|s| s.count)
                .sum::<u64>() as f64,
        ),
        ("ckpt.derive_s", layer("derive_checkpoint")),
        ("ckpt.derive_count", count("derive_checkpoint")),
        (
            "ckpt.derive_ms_p50",
            p50(&durations("derive_checkpoint")) * 1e3,
        ),
        ("ckpt.restore_us_p50", p50(&restore_us)),
        ("ckpt.encode_us_p50", p50(&encode_us)),
        ("ckpt.anchor_kib_p50", p50(&anchor_kib)),
        ("schemes.prepare_s", layer("prepare")),
        ("schemes.clean_run_s", layer("run_limit")),
        ("schemes.clean_run_mcycles_per_s", cycles_per_s(None)),
        ("schemes.window_s", layer("run_window")),
        ("schemes.window_count", count("run_window")),
        ("schemes.window_us_p50", p50(&durations("run_window")) * 1e6),
        ("schemes.trial_s", layer("run_trial")),
        ("schemes.trial_count", count("run_trial")),
        ("schemes.trial_us_p50", p50(&trial_us)),
        (
            "schemes.trial_us_p90",
            if trial_us.is_empty() {
                0.0
            } else {
                percentile(&trial_us, 90.0)
            },
        ),
    ];
    for s in Scheme::ALL {
        metrics.push((scheme_metric(s), cycles_per_s(Some(s))));
    }
    metrics.extend([
        (
            "faults.simulated_frac",
            if trials == 0 {
                0.0
            } else {
                simulated as f64 / trials as f64
            },
        ),
        ("stats.parallel_speedup", per_s(serial_s, parallel_s)),
        ("ledger.serial_s", serial_s),
        ("ledger.unaccounted_frac", 1.0 - layered / serial_s),
    ]);
    Traced {
        parallel,
        serial,
        rebuilt,
        metrics,
        ledger,
    }
}

fn scheme_metric(s: Scheme) -> &'static str {
    match s {
        Scheme::Baseline => "schemes.baseline.mcycles_per_s",
        Scheme::Reese => "schemes.reese.mcycles_per_s",
        Scheme::Duplex => "schemes.duplex.mcycles_per_s",
        Scheme::Meek => "schemes.meek.mcycles_per_s",
        Scheme::Swift => "schemes.swift.mcycles_per_s",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use reese_faults::FaultMix;
    use reese_workloads::Kernel;

    /// The traced rebuild equals `Campaign::run` byte for byte, on
    /// scaled-down versions of the campaign workloads: the `deep` mix
    /// with a small K so the sweep thins and anchors are derived, and
    /// the `dense` mix, each under all five schemes.
    #[test]
    fn rebuild_matches_campaign_run_for_every_scheme() {
        let programs = [
            Kernel::Lisp.build_for(12_000),
            Kernel::Database.build_for(3_000),
        ];
        for scheme in Scheme::ALL {
            for (program, mix, trials, every) in [
                (0, FaultMix::broad(), 24, 32),
                (1, FaultMix::result_errors_only(), 30, 2048),
            ] {
                let spec = CampaignSpec {
                    label: format!("{scheme}"),
                    program,
                    scheme,
                    mix,
                    trials,
                    seed: 64206,
                    every,
                };
                let want = spec.campaign(1).run(&programs[program]).unwrap().to_json();
                let mut ledger = Ledger::default();
                let got = rebuild_campaign(&mut ledger, 0, &programs[program], &spec).unwrap();
                assert_eq!(got.output.text, want, "{scheme} K={every}");
                if every == 32 {
                    let kept = ledger
                        .named("checkpoint_stream_thinned")
                        .next()
                        .unwrap()
                        .count;
                    assert!(
                        kept <= MAX_RESIDENT_CHECKPOINTS as u64 && kept < 12_000 / 32,
                        "the small-K case must thin the sweep, so anchors are derived"
                    );
                }
            }
        }
    }

    #[test]
    fn self_time_subtracts_children_and_trace_parses() {
        let mut l = Ledger::default();
        let root = l.begin("campaign", 0, Scheme::Reese);
        l.span("run_trial", root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        l.end(root);
        let own = l.self_times();
        assert!((own[0] + own[1] - l.spans[0].dur_s()).abs() < 1e-9);
        assert!(own[1] >= 0.002);
        let doc = Json::parse(&l.trace_json(&["lisp/reese".into()])).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("run_trial"));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
