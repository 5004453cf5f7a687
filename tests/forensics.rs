//! Forensic explanations must be reproducible evidence, not artifacts
//! of how the campaign happened to run.
//!
//! `reese explain` re-simulates one logged trial and narrates its fault
//! propagation. Because the campaign log is byte-identical across
//! worker counts and across the Full/Replay engines (the replay-oracle
//! suite proves that), the explanation derived from any of those logs
//! must be byte-identical too — text and Perfetto trace alike.

use reese::ckpt::Scheme;
use reese::core::ReeseConfig;
use reese::faults::{explain_trial, Campaign, FaultClass, FaultMix, TrialEngine, TrialRef};
use reese::workloads::Kernel;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reese-forensics-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn explain_is_byte_identical_across_worker_counts_and_engines() {
    // Every scheme, every trial of a result-mix campaign: a MEEK
    // checker-side upset and a SWIFT detection among them.
    let program = Kernel::Database.build(1);
    let cfg = ReeseConfig::starting();
    let dir = scratch("matrix");
    let (mut checker_side, mut swift_detected) = (false, false);
    for scheme in Scheme::ALL {
        let mut explained: Vec<Vec<(String, String)>> = Vec::new();
        for (tag, jobs, engine) in [
            ("replay-j1", 1, TrialEngine::Replay),
            ("replay-j2", 2, TrialEngine::Replay),
            ("full-j1", 1, TrialEngine::Full),
        ] {
            let log = dir.join(format!("{scheme}-{tag}.jsonl"));
            Campaign::new(cfg.clone(), FaultMix::result_errors_only())
                .scheme(scheme)
                .trials(8)
                .seed(3)
                .jobs(jobs)
                .engine(engine)
                .outcomes_jsonl(&log)
                .run(&program)
                .unwrap();
            let runs = (0..8).map(|t| {
                let ex = explain_trial(&cfg, scheme, &program, &log, TrialRef::Index(t)).unwrap();
                let o = ex.outcome;
                if scheme == Scheme::Reese {
                    assert!(o.detected, "{tag}: result-mix trial {t} must detect");
                }
                checker_side |= scheme == Scheme::Meek && o.class == FaultClass::RedundantResult;
                swift_detected |= scheme == Scheme::Swift && o.detected;
                let trace = ex.to_chrome_json();
                (ex.text, trace)
            });
            explained.push(runs.collect());
        }
        assert_eq!(
            explained[0], explained[1],
            "{scheme}: worker count leaked into the explanation"
        );
        assert_eq!(
            explained[0], explained[2],
            "{scheme}: trial engine leaked into the explanation"
        );
    }
    assert!(checker_side, "no MEEK checker-side trial was explained");
    assert!(swift_detected, "no SWIFT detection was explained");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explain_narrates_detection_and_escape() {
    let program = Kernel::Lisp.build(1);
    let cfg = ReeseConfig::starting();
    let dir = scratch("verdicts");

    // REESE catches result-latch upsets: the narrative must carry the
    // injection, the divergence, and the detecting comparison.
    let caught = dir.join("reese.jsonl");
    Campaign::new(cfg.clone(), FaultMix::result_errors_only())
        .trials(6)
        .seed(5)
        .outcomes_jsonl(&caught)
        .run(&program)
        .unwrap();
    let ex = explain_trial(&cfg, Scheme::Reese, &program, &caught, TrialRef::Index(0)).unwrap();
    assert!(ex.text.contains("verdict: DETECTED"), "{}", ex.text);
    assert!(ex.text.contains("injection: cycle"), "{}", ex.text);
    assert!(
        ex.text.contains("faulted instruction lifecycle"),
        "{}",
        ex.text
    );
    let json = ex.to_chrome_json();
    assert!(json.contains("\"inject"), "missing inject marker");
    assert!(json.contains("\"detect"), "missing detect marker");

    // The unprotected baseline lets the same class of fault through:
    // the narrative must flag the escape (or the lucky mask), never a
    // detection.
    let escaped = dir.join("baseline.jsonl");
    Campaign::new(cfg.clone(), FaultMix::result_errors_only())
        .scheme(Scheme::Baseline)
        .trials(6)
        .seed(5)
        .outcomes_jsonl(&escaped)
        .run(&program)
        .unwrap();
    let ex = explain_trial(
        &cfg,
        Scheme::Baseline,
        &program,
        &escaped,
        TrialRef::Index(0),
    )
    .unwrap();
    assert!(!ex.outcome.detected);
    assert!(
        ex.text.contains("SILENT CORRUPTION") || ex.text.contains("masked"),
        "{}",
        ex.text
    );
    assert!(!ex.text.contains("verdict: DETECTED"), "{}", ex.text);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explain_resolves_the_same_trial_by_index_and_stable_id() {
    let program = Kernel::Strings.build(1);
    let cfg = ReeseConfig::starting();
    let dir = scratch("ids");
    let log = dir.join("campaign.jsonl");
    Campaign::new(cfg.clone(), FaultMix::broad())
        .trials(10)
        .seed(21)
        .outcomes_jsonl(&log)
        .run(&program)
        .unwrap();
    for trial in [0usize, 4, 9] {
        let by_index =
            explain_trial(&cfg, Scheme::Reese, &program, &log, TrialRef::Index(trial)).unwrap();
        let by_id = explain_trial(
            &cfg,
            Scheme::Reese,
            &program,
            &log,
            TrialRef::Id(by_index.id),
        )
        .unwrap();
        assert_eq!(by_index.trial, by_id.trial);
        assert_eq!(by_index.text, by_id.text);
        assert_eq!(by_index.to_chrome_json(), by_id.to_chrome_json());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
