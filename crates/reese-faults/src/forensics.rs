//! Single-trial fault forensics: re-run one logged trial under a deep
//! observer and explain, cycle by cycle, how the fault propagated.
//!
//! A campaign log records *that* a trial was detected (or escaped);
//! this module answers *why*. [`explain_trial`] takes a campaign
//! outcomes log, addresses one trial (by stable id or by index),
//! replays exactly that trial's checkpoint-anchored window twice —
//! clean and with the fault injected — each under a
//! [`reese_trace::DeepLog`], and diffs the two runs to reconstruct the
//! fault-propagation timeline:
//!
//! - the injection point (cycle, corrupted structure, bit),
//! - the first divergent pipeline event and the first divergent
//!   per-cycle machine state (which queue or counter moved first),
//! - the faulted instruction's full lifecycle through the pipeline
//!   (dispatch → issue → writeback → migrate → compare → commit,
//!   including post-flush re-execution),
//! - and the detecting comparison — or the silent-corruption escape.
//!
//! Everything is derived from the deterministic simulators, so the
//! explanation is **byte-identical** for a given log line no matter
//! which engine or worker count produced the log, and no matter how
//! often it is re-run (the CI forensics smoke diffs it against a
//! golden file). The re-run is also an oracle: if the recomputed
//! outcome disagrees with the logged line, `explain` fails loudly
//! rather than narrating a fiction.

use crate::engine::{boundary_count, output_fnv, plan_window};
use crate::schemes::{self, Trial};
use crate::stream::{fnv1a64, read_log, trial_id};
use crate::{CampaignError, FaultClass, TrialOutcome, WindowBaseline};
use reese_ckpt::{checkpoints_at, Scheme};
use reese_core::ReeseConfig;
use reese_cpu::Emulator;
use reese_isa::Program;
use reese_trace::{CycleState, DeepLog, Stage, Stream, TraceEvent, TraceRing};
use std::fmt::Write as _;
use std::path::Path;

/// How `reese explain` addresses a trial in a campaign log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialRef {
    /// By trial index (the `trial` field of the log line).
    Index(usize),
    /// By stable id (`id` field: [`trial_id`] of seed and index).
    Id(u64),
}

/// The reconstructed story of one fault-injection trial.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Trial index in the campaign.
    pub trial: usize,
    /// Stable trial id ([`trial_id`] over the log's seed).
    pub id: u64,
    /// The (verified) outcome of the trial.
    pub outcome: TrialOutcome,
    /// Human-readable propagation timeline. Byte-deterministic.
    pub text: String,
    /// The faulty run's full event stream plus synthesized forensic
    /// markers ([`Stage::Inject`] / [`Stage::Diverge`] /
    /// [`Stage::Detect`]), loadable in Perfetto via
    /// [`Explanation::to_chrome_json`].
    pub trace: TraceRing,
}

impl Explanation {
    /// The trace as Chrome trace-event JSON (Perfetto-loadable).
    pub fn to_chrome_json(&self) -> String {
        self.trace.to_chrome_json()
    }
}

/// The structure a fault class corrupts, for the narrative.
fn struck_structure(class: FaultClass) -> &'static str {
    match class {
        FaultClass::PrimaryResult => "P-stream result latch",
        FaultClass::RedundantResult => "R-stream compare latch",
        FaultClass::PostCompare => "post-compare commit path",
        FaultClass::CacheCell => "cache/memory cell",
        FaultClass::PipelineControl => "pipeline control logic",
    }
}

/// Names the [`CycleState`] fields that differ between two snapshots,
/// in declaration order — the "which structure moved first" diff.
fn state_diff(faulty: &CycleState, clean: &CycleState) -> Vec<String> {
    let mut out = Vec::new();
    let mut field = |name: &str, a: u64, b: u64| {
        if a != b {
            out.push(format!("{name} {b} -> {a}"));
        }
    };
    field("committed", faulty.committed, clean.committed);
    field("issued", faulty.issued, clean.issued);
    field("r_issued", faulty.r_issued, clean.r_issued);
    field("r_missed", faulty.r_missed, clean.r_missed);
    field(
        "ruu_stalls",
        faulty.dispatch_stall_ruu,
        clean.dispatch_stall_ruu,
    );
    field(
        "lsq_stalls",
        faulty.dispatch_stall_lsq,
        clean.dispatch_stall_lsq,
    );
    field("fetch_empty", faulty.fetch_empty, clean.fetch_empty);
    field("sched_ops", faulty.sched_ops, clean.sched_ops);
    field("ruu_occ", faulty.ruu_occ as u64, clean.ruu_occ as u64);
    field("lsq_occ", faulty.lsq_occ as u64, clean.lsq_occ as u64);
    field(
        "rqueue_occ",
        faulty.rqueue_occ as u64,
        clean.rqueue_occ as u64,
    );
    field(
        "fetchq_occ",
        faulty.fetchq_occ as u64,
        clean.fetchq_occ as u64,
    );
    out
}

fn fmt_event(e: &TraceEvent) -> String {
    format!(
        "cycle {:>6}  {}  {:<9} seq {} pc {:#x}",
        e.cycle,
        e.stream.tag(),
        e.stage.name(),
        e.seq,
        e.pc
    )
}

/// Re-run equality against a possibly older log line: the core fields
/// must match exactly; cycle fields recorded as absent (pre-forensics
/// logs) are not held against the re-run.
fn matches_recorded(rerun: &TrialOutcome, rec: &TrialOutcome) -> bool {
    let lenient = |a: Option<u64>, b: Option<u64>| b.is_none() || a == b;
    rerun.class == rec.class
        && rerun.seq == rec.seq
        && rerun.bit == rec.bit
        && rerun.detected == rec.detected
        && rerun.detection_latency == rec.detection_latency
        && rerun.extra_cycles == rec.extra_cycles
        && rerun.state_clean == rec.state_clean
        && lenient(rerun.inject_cycle, rec.inject_cycle)
        && lenient(rerun.diverge_cycle, rec.diverge_cycle)
        && lenient(rerun.detect_cycle, rec.detect_cycle)
}

/// Explains one trial of a recorded campaign: re-runs its anchored
/// window clean and faulted under deep observers and reconstructs the
/// propagation timeline. `config`, `scheme`, and `program` must be the
/// ones the campaign ran with — the log's configuration fingerprint
/// and dynamic length are checked before anything simulates.
///
/// # Errors
///
/// [`CampaignError::Resume`] if the trial is not in the log, the
/// config/scheme/program disagree with the log header, or the re-run
/// fails to reproduce the recorded outcome; [`CampaignError::Trial`]
/// if the simulation itself fails; [`CampaignError::Io`] on file
/// errors.
pub fn explain_trial(
    config: &ReeseConfig,
    scheme: Scheme,
    program: &Program,
    log_path: &Path,
    which: TrialRef,
) -> Result<Explanation, CampaignError> {
    let (header, recorded) = read_log(log_path, None)?;

    // The header's config fingerprint is salted exactly as the
    // campaign salts it (see `Campaign::log_header`).
    let config_fnv = match scheme {
        Scheme::Reese => fnv1a64(format!("{config:?}").as_bytes()),
        s => fnv1a64(format!("{}:{config:?}", s.name()).as_bytes()),
    };
    if config_fnv != header.config_fnv {
        return Err(CampaignError::Resume(format!(
            "config_fnv {config_fnv} for scheme `{scheme}` does not match the \
             log's {} — wrong --scheme or configuration",
            header.config_fnv
        )));
    }

    let (trial, rec) = match which {
        TrialRef::Index(i) => {
            let o = recorded.get(&i).ok_or_else(|| {
                CampaignError::Resume(format!("trial {i} is not recorded in the log"))
            })?;
            (i, *o)
        }
        TrialRef::Id(id) => recorded
            .iter()
            .find(|&(&t, _)| trial_id(header.seed, t) == id)
            .map(|(&t, o)| (t, *o))
            .ok_or_else(|| CampaignError::Resume(format!("no recorded trial carries id {id}")))?,
    };
    let id = trial_id(header.seed, trial);

    let backend = schemes::build(scheme, config);
    let prepared = backend.prepare(program).map_err(CampaignError::Workload)?;
    let program = &prepared;

    // Cheap program check before any detailed simulation: the prepared
    // program's dynamic length must be the one the log recorded.
    let mut emu = Emulator::new(program);
    let r = emu
        .run(header.max_instructions)
        .map_err(|e| CampaignError::Workload(e.to_string()))?;
    if r.instructions != header.dynamic_len {
        return Err(CampaignError::Resume(format!(
            "program executes {} instructions but the log records {} — \
             wrong kernel or --max-instructions",
            r.instructions, header.dynamic_len
        )));
    }

    let mut text = String::new();
    let _ = writeln!(text, "fault forensics: trial {trial} (id {id})");
    let _ = writeln!(text, "scheme: {}", scheme.name());
    let _ = writeln!(
        text,
        "fault: class {} seq {} bit {} ({})",
        rec.class,
        rec.seq,
        rec.bit,
        struck_structure(rec.class)
    );

    if !rec.class.detectable_by_design() {
        // Modeled-undetectable classes never simulate: the campaign
        // scores them analytically, identically for every scheme.
        let _ = writeln!(
            text,
            "verdict: modeled-undetectable ({} faults sit outside every \
             registered scheme's observation window)",
            rec.class
        );
        let _ = writeln!(
            text,
            "nothing was simulated: the campaign scores this class \
             analytically as undetected with clean architectural state \
             (paper section 4.2); there is no propagation to trace."
        );
        return Ok(Explanation {
            trial,
            id,
            outcome: rec,
            text,
            trace: TraceRing::new(1),
        });
    }

    // Rebuild exactly the campaign's window for this fault and anchor
    // it the oracle way: a functional fast-forward to the boundary
    // (bit-equal to the campaign's sweep-derived checkpoints).
    let boundaries = boundary_count(header.dynamic_len, header.ckpt_every);
    let window = plan_window(
        rec.seq,
        header.ckpt_every,
        boundaries,
        header.max_instructions,
        header.dynamic_len,
    );
    let anchor = window.anchor(header.ckpt_every);
    let ck = checkpoints_at(program, &[anchor], &config.pipeline)
        .map_err(|e| CampaignError::Workload(e.to_string()))?
        .pop()
        .expect("one boundary requested");

    let mut clean_log = DeepLog::new();
    let clean_run = backend
        .run_window_observed(program, &ck, window.budget, &mut clean_log)
        .map_err(|m| CampaignError::Trial { trial, message: m })?;
    let baseline = WindowBaseline {
        cycles: clean_run.cycles,
        digest: clean_run.state_digest,
        output_fnv: output_fnv(&clean_run.output),
        halted: clean_run.exit_code.is_some(),
    };

    let mut fault_log = DeepLog::new();
    let rerun = backend
        .run_trial(Trial {
            program,
            ck: &ck,
            baseline: &baseline,
            class: rec.class,
            seq: rec.seq,
            bit: rec.bit,
            budget: window.budget,
            tracer: None,
            probe: Some(&mut fault_log),
        })
        .map_err(|m| CampaignError::Trial { trial, message: m })?;
    if !matches_recorded(&rerun, &rec) {
        return Err(CampaignError::Resume(format!(
            "re-run does not reproduce the logged outcome (logged \
             detected={} latency={:?}, re-run detected={} latency={:?}) — \
             the log was produced by a different program or configuration",
            rec.detected, rec.detection_latency, rerun.detected, rerun.detection_latency
        )));
    }

    let _ = writeln!(
        text,
        "window: anchor @{anchor} (boundary {}), budget {} instructions",
        window.anchor_idx, window.budget
    );
    let _ = writeln!(
        text,
        "window cycles: clean {} faulty {} (+{})",
        baseline.cycles,
        baseline.cycles + rerun.extra_cycles,
        rerun.extra_cycles
    );

    // Injection point. Window-relative cycles: the restored machine
    // counts from 0 at the anchor.
    match rerun.inject_cycle {
        Some(c) => {
            let _ = writeln!(
                text,
                "injection: cycle {c}, bit {} of the {}",
                rec.bit,
                struck_structure(rec.class)
            );
        }
        None => {
            let _ = writeln!(
                text,
                "injection: never fired inside the window (seq {} did not \
                 reach the faulted structure before the window ended)",
                rec.seq
            );
        }
    }

    // First divergent pipeline event.
    let ev_div = fault_log.first_event_divergence(&clean_log);
    match ev_div {
        Some(i) => {
            let _ = writeln!(text, "first divergent event (index {i}):");
            match clean_log.events.get(i) {
                Some(e) => {
                    let _ = writeln!(text, "  clean : {}", fmt_event(e));
                }
                None => {
                    let _ = writeln!(text, "  clean : (stream ended)");
                }
            }
            match fault_log.events.get(i) {
                Some(e) => {
                    let _ = writeln!(text, "  faulty: {}", fmt_event(e));
                }
                None => {
                    let _ = writeln!(text, "  faulty: (stream ended)");
                }
            }
        }
        None => {
            let _ = writeln!(
                text,
                "event streams identical: the corrupt value never changed \
                 any pipeline scheduling decision"
            );
        }
    }

    // First divergent machine state: which structure moved first.
    if let Some(((cycle, faulty_state), clean_state)) = fault_log.first_state_divergence(&clean_log)
    {
        match clean_state {
            Some((_, cs)) => {
                let diffs = state_diff(faulty_state, cs);
                let _ = writeln!(
                    text,
                    "first divergent machine state: cycle {cycle} ({})",
                    diffs.join(", ")
                );
            }
            None => {
                let _ = writeln!(
                    text,
                    "first divergent machine state: cycle {cycle} (faulty run \
                     outlived the clean window)"
                );
            }
        }
    } else {
        let _ = writeln!(
            text,
            "per-cycle machine state identical to the clean window"
        );
    }

    // The faulted instruction's lifecycle (including any post-flush
    // re-execution) — the propagation hops through the machine.
    let hops: Vec<&TraceEvent> = fault_log
        .events
        .iter()
        .filter(|e| e.seq == rec.seq)
        .collect();
    let _ = writeln!(
        text,
        "faulted instruction lifecycle ({} events):",
        hops.len()
    );
    const MAX_HOPS: usize = 48;
    for e in hops.iter().take(MAX_HOPS) {
        let _ = writeln!(text, "  {}", fmt_event(e));
    }
    if hops.len() > MAX_HOPS {
        let _ = writeln!(text, "  ... {} more", hops.len() - MAX_HOPS);
    }

    // Verdict.
    if rerun.detected {
        let _ = writeln!(
            text,
            "verdict: DETECTED at cycle {} (latency {} cycles from \
             injection), recovery cost {} cycles, architectural state {}",
            rerun.detect_cycle.unwrap_or(0),
            rerun.detection_latency.unwrap_or(0),
            rerun.extra_cycles,
            if rerun.state_clean {
                "clean"
            } else {
                "corrupt"
            }
        );
    } else if rerun.state_clean {
        let _ = writeln!(
            text,
            "verdict: UNDETECTED but masked — the corrupt value never \
             reached committed output or final state"
        );
    } else {
        let _ = writeln!(
            text,
            "verdict: SILENT CORRUPTION — undetected and the committed \
             output or final architectural state differs from the clean run"
        );
    }

    // Perfetto trace: the faulty run's events plus forensic markers.
    let pc_of_seq = hops.first().map_or(0, |e| e.pc);
    let mut trace = TraceRing::new(fault_log.events.len() + 3);
    for e in &fault_log.events {
        trace.push(*e);
    }
    if let Some(c) = rerun.inject_cycle {
        trace.push(TraceEvent {
            cycle: c,
            seq: rec.seq,
            pc: pc_of_seq,
            stage: Stage::Inject,
            stream: Stream::Primary,
        });
    }
    if let Some(i) = ev_div {
        if let Some(e) = fault_log.events.get(i).or_else(|| clean_log.events.get(i)) {
            trace.push(TraceEvent {
                cycle: e.cycle,
                seq: e.seq,
                pc: e.pc,
                stage: Stage::Diverge,
                stream: e.stream,
            });
        }
    }
    if let Some(c) = rerun.detect_cycle {
        trace.push(TraceEvent {
            cycle: c,
            seq: rec.seq,
            pc: pc_of_seq,
            stage: Stage::Detect,
            stream: Stream::Primary,
        });
    }

    Ok(Explanation {
        trial,
        id,
        outcome: rerun,
        text,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Campaign, FaultMix};
    use reese_isa::assemble;

    fn loop_prog() -> Program {
        assemble("  li t0, 60\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n").unwrap()
    }

    fn logged_campaign(dir: &std::path::Path, mix: FaultMix) -> std::path::PathBuf {
        let log = dir.join("campaign.jsonl");
        Campaign::new(ReeseConfig::starting(), mix)
            .trials(12)
            .seed(9)
            .outcomes_jsonl(&log)
            .run(&loop_prog())
            .unwrap();
        log
    }

    #[test]
    fn explains_a_detected_trial_with_markers() {
        let dir = std::env::temp_dir().join(format!("reese-forensics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = logged_campaign(&dir, FaultMix::result_errors_only());
        let config = ReeseConfig::starting();
        let ex = explain_trial(
            &config,
            Scheme::Reese,
            &loop_prog(),
            &log,
            TrialRef::Index(0),
        )
        .unwrap();
        assert!(ex.outcome.detected);
        assert!(ex.text.contains("verdict: DETECTED"), "{}", ex.text);
        assert!(ex.text.contains("injection: cycle"), "{}", ex.text);
        assert!(ex.text.contains("first divergent event"), "{}", ex.text);
        let json = ex.to_chrome_json();
        assert!(json.contains("\"inject"), "{json}");
        assert!(json.contains("\"detect"), "{json}");
        // Addressing the same trial by its stable id is identical.
        let by_id = explain_trial(
            &config,
            Scheme::Reese,
            &loop_prog(),
            &log,
            TrialRef::Id(ex.id),
        )
        .unwrap();
        assert_eq!(by_id.text, ex.text);
        assert_eq!(by_id.to_chrome_json(), json);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explains_an_analytic_class_without_simulating() {
        let dir =
            std::env::temp_dir().join(format!("reese-forensics-mixed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = logged_campaign(&dir, FaultMix::broad());
        let config = ReeseConfig::starting();
        let (header, recorded) = read_log(&log, None).unwrap();
        let (&t, _) = recorded
            .iter()
            .find(|(_, o)| !o.class.detectable_by_design())
            .expect("broad mix draws an analytic class in 12 trials");
        let ex = explain_trial(
            &config,
            Scheme::Reese,
            &loop_prog(),
            &log,
            TrialRef::Index(t),
        )
        .unwrap();
        assert!(ex.text.contains("modeled-undetectable"), "{}", ex.text);
        assert!(ex.trace.is_empty());
        assert_eq!(ex.id, trial_id(header.seed, t));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_scheme_is_rejected_before_simulation() {
        let dir =
            std::env::temp_dir().join(format!("reese-forensics-scheme-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = logged_campaign(&dir, FaultMix::result_errors_only());
        let err = explain_trial(
            &ReeseConfig::starting(),
            Scheme::Duplex,
            &loop_prog(),
            &log,
            TrialRef::Index(0),
        )
        .unwrap_err();
        assert!(matches!(err, CampaignError::Resume(_)), "{err}");
        assert!(err.to_string().contains("config_fnv"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_trial_and_id_are_rejected() {
        let dir = std::env::temp_dir().join(format!("reese-forensics-miss-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = logged_campaign(&dir, FaultMix::result_errors_only());
        let config = ReeseConfig::starting();
        let err = explain_trial(
            &config,
            Scheme::Reese,
            &loop_prog(),
            &log,
            TrialRef::Index(99),
        )
        .unwrap_err();
        assert!(err.to_string().contains("not recorded"), "{err}");
        let err = explain_trial(
            &config,
            Scheme::Reese,
            &loop_prog(),
            &log,
            TrialRef::Id(0xBAD),
        )
        .unwrap_err();
        assert!(err.to_string().contains("no recorded trial"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_program_is_rejected_by_dynamic_length() {
        let dir = std::env::temp_dir().join(format!("reese-forensics-prog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = logged_campaign(&dir, FaultMix::result_errors_only());
        let other =
            assemble("  li t0, 10\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n").unwrap();
        let err = explain_trial(
            &ReeseConfig::starting(),
            Scheme::Reese,
            &other,
            &log,
            TrialRef::Index(0),
        )
        .unwrap_err();
        assert!(err.to_string().contains("instructions"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
