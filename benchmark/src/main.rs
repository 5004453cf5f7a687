//! Host-time benchmark for REESE fault campaigns and clean simulation
//! sweeps. See `README.md` for the workloads, the metrics and the
//! layer ledger.
//!
//! ```text
//! benchmark [--seed N] [--workload NAME] [--runs N] [--traced]
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//! benchmark compare PARENT.json CHANGE.json
//! ```
//!
//! The first form runs `--runs` rounds over the workloads, prints every
//! metric with its quartiles and writes `target/benchmark/results.json`.
//! The second measures one workload for `S` seconds and prints one JSON
//! object as its last line. The third compares two results files
//! against the bounds in `BENCHMARK.json`.
//!
//! Every repetition runs in a fresh child process (`benchmark child
//! ...`), so each pays cold start as a user's `reese campaign` does;
//! the parent only spawns and waits.

mod json;
mod ledger;
mod stats;
mod workload;

use json::{num, quote, Json};
use stats::{best, median, quartiles, relative_spread, tail_percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{combined_digest, Output, Workload, JOBS};

const DEFAULT_SEED: u64 = 64206;
const DEFAULT_RUNS: usize = 5;

/// The benchmark's definition: workloads, metrics, units and bounds.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics, in report order.
const END_TO_END: [&str; 5] = ["setup_s", "wall_s", "work_per_s", "cpu_s", "peak_rss_mib"];

/// The metrics a `--seconds` run reports as its median repetition.
/// Every other end-to-end metric is a time or a rate and is reported
/// as the run's best repetition: neighbours on a shared host slow a
/// repetition down but never speed it up, and over ten runs the best
/// repetition spread half as wide as the median one. Peak memory does
/// not improve on a quiet host but varies with how the workers
/// interleave, so it takes the median.
const MEDIAN_METRICS: [&str; 1] = ["peak_rss_mib"];

/// Combined simulated-output digests at [`DEFAULT_SEED`]. `sweep` has
/// no random input, so its digest holds for every seed.
const RECORDED_FNV: [(&str, u64); 4] = [
    ("deep", 0xde9d_638e_fb2a_250b),
    ("dense", 0x71ee_5b3b_95bc_d28b),
    ("dense-arch", 0x7c7c_0e4e_2fad_8051),
    ("sweep", 0xc61e_176a_c3a5_c016),
];

/// Repetitions a timed run takes even when `--seconds` is shorter.
const MIN_REPS: usize = 3;

/// Where results and traces go, under the current directory.
const OUT_DIR: &str = "target/benchmark";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => bench(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------- spec

struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: Option<f64>,
}

struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

impl Spec {
    fn load() -> Spec {
        let doc = Json::parse(SPEC).expect("BENCHMARK.json is valid JSON");
        let metrics = |key: &str| -> Vec<Metric> {
            doc.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| Metric {
                    name: m.get("name").and_then(Json::as_str).unwrap_or("").into(),
                    unit: m.get("unit").and_then(Json::as_str).unwrap_or("").into(),
                    higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Spec {
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    fn unit(&self, name: &str) -> &str {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map_or("?", |m| m.unit.as_str())
    }
}

// --------------------------------------------------------------- child

/// One repetition in this process: `child WORKLOAD SEED plain|traced`.
/// Prints one JSON object as its last line.
fn child(args: &[String]) -> Result<ExitCode, String> {
    let start = Instant::now();
    let [name, seed, mode] = args else {
        return Err("usage: benchmark child WORKLOAD SEED plain|traced".into());
    };
    let workload = Workload::parse(name)?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
    let plan = workload::plan(workload, seed);
    let labels = plan.labels();
    let setup = plan.build();
    let setup_s = start.elapsed().as_secs_f64();

    let mut out = String::from("{");
    let ops: Vec<Result<Output, String>> = match mode.as_str() {
        "plain" => {
            let t = Instant::now();
            let raws = workload::run(&setup, JOBS);
            let work_s = t.elapsed().as_secs_f64();
            let wall_s = start.elapsed().as_secs_f64();
            let (cpu_s, peak_rss_mib) = (cpu_seconds()?, peak_rss_mib()?);
            let ops = workload::check(&setup, raws);
            let work: f64 = ops.iter().flatten().map(|o| o.work).sum();
            let _ = write!(
                out,
                "\"setup_s\": {}, \"wall_s\": {}, \"work_s\": {}, \"work\": {}, \"cpu_s\": {}, \"peak_rss_mib\": {}, ",
                num(setup_s),
                num(wall_s),
                num(work_s),
                num(work),
                num(cpu_s),
                num(peak_rss_mib)
            );
            ops
        }
        "traced" => {
            let mut traced = ledger::trace(&setup);
            let parallel = workload::check(&setup, std::mem::take(&mut traced.parallel));
            let serial = workload::check(&setup, std::mem::take(&mut traced.serial));
            let path = format!("{OUT_DIR}/trace-{name}.json");
            std::fs::create_dir_all(OUT_DIR)
                .and_then(|()| std::fs::write(&path, traced.ledger.trace_json(&labels)))
                .map_err(|e| format!("writing {path}: {e}"))?;
            let metrics: Vec<String> = traced
                .metrics
                .iter()
                .map(|(k, v)| format!("{}: {}", quote(k), num(*v)))
                .collect();
            let self_s: Vec<String> = traced
                .ledger
                .layer_self_s()
                .iter()
                .map(|(k, v)| format!("{}: {}", quote(k), num(*v)))
                .collect();
            let _ = write!(
                out,
                "\"metrics\": {{{}}}, \"layer_self_s\": {{{}}}, ",
                metrics.join(", "),
                self_s.join(", ")
            );
            // The rebuild must reproduce the campaign byte for byte, and
            // worker count must not change any output.
            serial
                .into_iter()
                .zip(parallel)
                .zip(traced.rebuilt)
                .map(|((s, p), t)| {
                    let (s, p, t) = (s?, p?, t?);
                    if p != s {
                        Err("output at 2 workers differs from 1 worker".into())
                    } else if t != s {
                        Err("traced rebuild differs from the untraced run".into())
                    } else {
                        Ok(s)
                    }
                })
                .collect()
        }
        other => return Err(format!("unknown child mode `{other}`")),
    };
    let ops: Vec<String> = ops
        .iter()
        .zip(&labels)
        .map(|(op, label)| match op {
            Ok(o) => format!(
                "{{\"label\": {}, \"digest\": \"{:016x}\"}}",
                quote(label),
                o.digest()
            ),
            Err(e) => format!("{{\"label\": {}, \"error\": {}}}", quote(label), quote(e)),
        })
        .collect();
    let _ = write!(out, "\"ops\": [{}]}}", ops.join(", "));
    println!("{out}");
    Ok(ExitCode::SUCCESS)
}

/// User plus system time of this process, all threads included.
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15, in USER_HZ (100) ticks.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => Ok((u + s) / 100.0),
        _ => Err("unreadable /proc/self/stat".into()),
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

// -------------------------------------------------------------- parent

/// Everything the parent keeps about one workload.
struct Tally {
    workload: Workload,
    labels: Vec<String>,
    /// End-to-end samples, one per repetition that reported.
    samples: BTreeMap<String, Vec<f64>>,
    /// Per-layer values and layer self times, one per traced child.
    layers: BTreeMap<String, Vec<f64>>,
    self_s: BTreeMap<String, Vec<f64>>,
    /// Each operation's first digest; every later repetition must
    /// reproduce it.
    reference: Vec<Option<u64>>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Tally {
    fn new(workload: Workload, seed: u64) -> Tally {
        let labels = workload::plan(workload, seed).labels();
        Tally {
            workload,
            reference: vec![None; labels.len()],
            labels,
            samples: BTreeMap::new(),
            layers: BTreeMap::new(),
            self_s: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Spawns one child repetition and folds its report in. Returns
    /// the child's wall time as the parent saw it.
    fn repeat(&mut self, seed: u64, traced: bool) -> f64 {
        let t = Instant::now();
        let report = spawn(self.workload, seed, traced);
        let elapsed = t.elapsed().as_secs_f64();
        let n = self.labels.len();
        self.attempted += n;
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                self.failed += n;
                self.errors.push(e);
                return elapsed;
            }
        };
        let ops = report.get("ops").map(Json::as_arr).unwrap_or_default();
        let digests: Vec<Option<u64>> = (0..n)
            .map(|i| {
                let op = ops.get(i)?;
                if let Some(e) = op.get("error").and_then(Json::as_str) {
                    self.errors.push(format!("{}: {e}", self.labels[i]));
                    return None;
                }
                op.get("digest")
                    .and_then(Json::as_str)
                    .and_then(|d| u64::from_str_radix(d, 16).ok())
            })
            .collect();
        for (i, d) in digests.into_iter().enumerate() {
            match (d, self.reference[i]) {
                (None, _) => self.failed += 1,
                (Some(d), None) => self.reference[i] = Some(d),
                (Some(d), Some(r)) if d != r => {
                    self.failed += 1;
                    self.errors.push(format!(
                        "{}: digest differs from repetition 0",
                        self.labels[i]
                    ));
                }
                _ => {}
            }
        }
        let f = |k: &str| report.get(k).and_then(Json::as_f64);
        if traced {
            for (key, into) in [
                ("metrics", &mut self.layers),
                ("layer_self_s", &mut self.self_s),
            ] {
                for (k, v) in report.get(key).and_then(Json::as_obj).into_iter().flatten() {
                    into.entry(k.clone())
                        .or_default()
                        .push(v.as_f64().unwrap_or(f64::NAN));
                }
            }
        } else if let (Some(setup), Some(wall), Some(work_s), Some(work), Some(cpu), Some(rss)) = (
            f("setup_s"),
            f("wall_s"),
            f("work_s"),
            f("work"),
            f("cpu_s"),
            f("peak_rss_mib"),
        ) {
            for (k, v) in END_TO_END
                .into_iter()
                .zip([setup, wall, work / work_s, cpu, rss])
            {
                self.samples.entry(k.to_string()).or_default().push(v);
            }
        }
        elapsed
    }

    /// The combined digest, once every operation has produced one.
    fn fnv(&self) -> Option<u64> {
        let digests: Option<Vec<u64>> = self.reference.iter().copied().collect();
        digests.map(|d| combined_digest(&d))
    }

    fn recorded_match(&self, seed: u64) -> Option<bool> {
        let name = self.workload.name();
        let (_, recorded) = RECORDED_FNV.iter().find(|(w, _)| *w == name)?;
        (seed == DEFAULT_SEED || self.workload == Workload::Sweep)
            .then(|| self.fnv() == Some(*recorded))
    }
}

/// Runs one child repetition and parses the JSON object on its last
/// stdout line. A crash or unparsable report is an error.
fn spawn(workload: Workload, seed: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "child",
            workload.name(),
            &seed.to_string(),
            if traced { "traced" } else { "plain" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} child exited with {}",
            workload.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{} child printed no report: {e}", workload.name()))
}

struct Options {
    seed: u64,
    workload: Option<Workload>,
    runs: usize,
    /// `--traced` or `--trace 1`: also produce the per-layer numbers
    /// (with `--seconds`: only them).
    trace: bool,
    seconds: Option<f64>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: DEFAULT_SEED,
        workload: None,
        runs: DEFAULT_RUNS,
        trace: false,
        seconds: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{v}`"))
        };
        match flag.as_str() {
            "--seed" => o.seed = number(value()?)?,
            "--workload" => o.workload = Some(Workload::parse(&value()?)?),
            "--runs" => o.runs = number(value()?)?.max(1) as usize,
            "--traced" => o.trace = true,
            "--seconds" => o.seconds = Some(number(value()?)? as f64),
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

fn bench(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_options(args)?;
    let spec = Spec::load();
    if let Some(seconds) = o.seconds {
        let workload = o
            .workload
            .ok_or("--seconds measures one workload: pass --workload")?;
        return Ok(timed(&spec, workload, o.seed, seconds, o.trace));
    }
    let workloads: Vec<Workload> = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut tallies: Vec<Tally> = workloads.iter().map(|&w| Tally::new(w, o.seed)).collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "seed {}, {} rounds, {JOBS} workers per campaign on {cores} available cores",
        o.seed, o.runs
    );
    // Rounds rotate the workload order, so slow periods on a shared
    // host fall on every workload alike.
    for round in 0..o.runs {
        for k in 0..tallies.len() {
            let i = (k + round) % tallies.len();
            tallies[i].repeat(o.seed, false);
        }
    }
    if o.trace {
        for t in &mut tallies {
            t.repeat(o.seed, true);
        }
    }
    let mut failed = 0;
    let mut results = Vec::new();
    for t in &tallies {
        print_tally(&spec, t, o.seed);
        failed += t.failed;
        results.push(format!(
            "{}: {}",
            quote(t.workload.name()),
            tally_json(&spec, t, o.seed)
        ));
    }
    let doc = format!(
        "{{\"seed\": {}, \"runs\": {}, \"jobs\": {JOBS}, \"available_parallelism\": {cores}, \
         \"workloads\": {{\n{}\n}}}}\n",
        o.seed,
        o.runs,
        results.join(",\n")
    );
    let path = format!("{OUT_DIR}/results.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("\nwritten to {path}");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed} operations failed");
        ExitCode::FAILURE
    })
}

/// `--seconds` mode: repetitions of one workload until the time is
/// spent (at least [`MIN_REPS`] untraced, one traced), then one JSON
/// line: per-layer medians, or each end-to-end metric's best
/// repetition (see [`MEDIAN_METRICS`]).
fn timed(spec: &Spec, workload: Workload, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let mut tally = Tally::new(workload, seed);
    let start = Instant::now();
    let min_reps = if traced { 1 } else { MIN_REPS };
    let mut durations = Vec::new();
    loop {
        durations.push(tally.repeat(seed, traced));
        let next = start.elapsed().as_secs_f64() + median(&durations);
        if durations.len() >= min_reps && next > seconds {
            break;
        }
    }
    print_tally(spec, &tally, seed);
    let (metrics, values) = if traced {
        (&spec.per_layer, &tally.layers)
    } else {
        (&spec.end_to_end, &tally.samples)
    };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = values.get(&m.name).map_or(f64::NAN, |v| {
                if traced || MEDIAN_METRICS.contains(&m.name.as_str()) {
                    median(v)
                } else {
                    best(v, m.higher_is_better)
                }
            });
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                num(v),
                quote(&m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_tally(spec: &Spec, t: &Tally, seed: u64) {
    let name = t.workload.name();
    println!(
        "\n{name}: {} operations attempted, {} failed",
        t.attempted, t.failed
    );
    for e in &t.errors {
        println!("  failure: {e}");
    }
    if !t.samples.is_empty() {
        println!(
            "  {:<14} {:<7} {:>3} {:>12} {:>12} {:>12} {:>12}  tail",
            "metric", "unit", "n", "median", "q1", "q3", "best"
        );
    }
    for m in &spec.end_to_end {
        let Some(v) = t.samples.get(&m.name) else {
            continue;
        };
        let (q1, q3) = quartiles(v);
        let tail = tail_percentile(v).map_or("-".into(), |(p, x)| format!("p{p}={x:.6}"));
        println!(
            "  {:<14} {:<7} {:>3} {:>12.6} {:>12.6} {:>12.6} {:>12.6}  {tail}",
            m.name,
            m.unit,
            v.len(),
            median(v),
            q1,
            q3,
            best(v, m.higher_is_better)
        );
    }
    for (k, v) in &t.layers {
        println!("  {k:<34} {:>14.6} {}", median(v), spec.unit(k));
    }
    for (k, v) in &t.self_s {
        println!("  self time {k:<24} {:>14.6} s", median(v));
    }
    let recorded = match t.recorded_match(seed) {
        Some(true) => "matches the recorded value",
        Some(false) => "DIFFERS from the recorded value",
        None => "no recorded value for this seed",
    };
    match t.fnv() {
        Some(d) => println!("  simulated-output FNV {d:016x}: {recorded}"),
        None => println!("  simulated-output FNV unavailable: an operation never succeeded"),
    }
}

fn tally_json(spec: &Spec, t: &Tally, seed: u64) -> String {
    let series = |m: &BTreeMap<String, Vec<f64>>| -> String {
        let items: Vec<String> = m
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), num(median(v))))
            .collect();
        items.join(", ")
    };
    let metrics: Vec<String> = t
        .samples
        .iter()
        .map(|(k, v)| {
            let (q1, q3) = quartiles(v);
            let values: Vec<String> = v.iter().map(|x| num(*x)).collect();
            format!(
                "{}: {{\"unit\": {}, \"samples\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}}",
                quote(k),
                quote(spec.unit(k)),
                v.len(),
                num(median(v)),
                num(q1),
                num(q3),
                values.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"attempted\": {}, \"failed\": {}, \"fnv\": {}, \"recorded_fnv_match\": {}, \
         \"metrics\": {{{}}}, \"per_layer\": {{{}}}, \"layer_self_s\": {{{}}}}}",
        t.attempted,
        t.failed,
        t.fnv().map_or("null".into(), |d| format!("\"{d:016x}\"")),
        t.recorded_match(seed)
            .map_or("null".into(), |m| m.to_string()),
        metrics.join(", "),
        series(&t.layers),
        series(&t.self_s)
    )
}

// ------------------------------------------------------------- compare

/// How a change's samples of one metric read against the parent's:
/// `unresolved` when either side's spread exceeds the bound (unless
/// every change sample beats every parent sample), `worse` past the
/// bound, `better` by more than the parent's own spread.
fn verdict(parent: &[f64], change: &[f64], bound: f64, higher_is_better: bool) -> &'static str {
    // Positive `worse` means the change is worse, as a share of the
    // parent's median.
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let (pm, cm) = (median(parent), median(change));
    let worse = sign * (cm - pm) / pm.abs();
    let all_better = change
        .iter()
        .all(|c| parent.iter().all(|p| sign * (c - p) < 0.0));
    if relative_spread(parent).max(relative_spread(change)) > bound {
        if all_better {
            "better"
        } else {
            "unresolved"
        }
    } else if worse > bound {
        "worse"
    } else if -worse > relative_spread(parent) {
        "better"
    } else {
        "unchanged"
    }
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = args else {
        return Err("usage: benchmark compare PARENT.json CHANGE.json".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (parent, change) = (load(parent)?, load(change)?);
    let spec = Spec::load();
    let values = |doc: &Json, w: &str, m: &str| -> Vec<f64> {
        doc.get("workloads")
            .and_then(|d| d.get(w))
            .and_then(|d| d.get("metrics"))
            .and_then(|d| d.get(m))
            .and_then(|d| d.get("values"))
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_f64)
            .collect()
    };
    println!(
        "{:<11} {:<13} {:>12} {:>9} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "parent", "iqr", "change", "iqr", "bound"
    );
    let mut worse = 0;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (p, c) = (values(&parent, w, &m.name), values(&change, w, &m.name));
            let Some(bound) = m.bound.filter(|_| !p.is_empty() && !c.is_empty()) else {
                continue;
            };
            let iqr = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                q3 - q1
            };
            let v = verdict(&p, &c, bound, m.higher_is_better);
            worse += usize::from(v == "worse");
            println!(
                "{w:<11} {:<13} {:>12.6} {:>9.6} {:>12.6} {:>9.6} {:>6.0}%  {v}",
                m.name,
                median(&p),
                iqr(&p),
                median(&c),
                iqr(&c),
                bound * 100.0
            );
        }
    }
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{CampaignSpec, Ops, Setup};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The per-layer metric names the ledger emits, from a tiny traced
    /// campaign.
    fn ledger_names() -> Vec<&'static str> {
        let setup = Setup {
            programs: vec![reese_isa::assemble(
                "  li t0, 50\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n",
            )
            .unwrap()],
            ops: Ops::Campaigns(vec![CampaignSpec {
                label: "loop/reese".into(),
                program: 0,
                scheme: reese_ckpt::Scheme::Reese,
                mix: reese_faults::FaultMix::broad(),
                trials: 4,
                seed: 1,
                every: 2048,
            }]),
        };
        let traced = ledger::trace(&setup);
        assert!(traced.rebuilt.iter().all(Result::is_ok));
        traced.metrics.iter().map(|(k, _)| *k).collect()
    }

    #[test]
    fn spec_and_binary_list_the_same_names() {
        let spec = Spec::load();
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, workloads);
        let e2e: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(e2e, END_TO_END);
        let layers: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(layers, ledger_names());
        let recorded: Vec<&str> = RECORDED_FNV.iter().map(|(w, _)| *w).collect();
        assert_eq!(recorded, workloads);

        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut all: Vec<&str> = workloads.clone();
        all.extend(&e2e);
        all.extend(&layers);
        for n in &all {
            assert!(valid_name(n), "bad name `{n}`");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "names must be unique");
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        assert!(spec.end_to_end.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Lower is better (a time).
        assert_eq!(verdict(&parent, &[12.0, 12.1, 11.9], 0.1, false), "worse");
        assert_eq!(verdict(&parent, &[8.0, 8.1, 7.9], 0.1, false), "better");
        assert_eq!(
            verdict(&parent, &[10.02, 10.0, 9.98], 0.1, false),
            "unchanged"
        );
        // Higher is better (a throughput): the same move reverses.
        assert_eq!(verdict(&parent, &[12.0, 12.1, 11.9], 0.1, true), "better");
        // Spread wider than the bound.
        let noisy = [5.0, 10.0, 15.0, 20.0];
        assert_eq!(verdict(&parent, &noisy, 0.1, false), "unresolved");
        assert_eq!(verdict(&noisy, &[1.0, 1.1], 0.1, false), "better");
    }
}
