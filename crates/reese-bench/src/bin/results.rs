//! Regenerates the committed results: `results [NAME...]` renders each
//! named report of [`reese_bench::reports::REPORTS`] (every one when no
//! name is given) over one shared suite, prints its text on stdout and
//! writes it to `results/NAME.txt`. Host time goes to stderr.
//!
//! Environment: `REESE_TARGET_INSNS` (per-kernel dynamic instructions,
//! default 300000), `REESE_JOBS` (workers), `REESE_FAULT_TRIALS`
//! (trials per kernel or per Δt of the fault experiments).

use reese_bench::{default_jobs, default_target, reports};
use reese_workloads::Suite;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let reports = match reports::select(&names) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("results: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let suite = Suite::spec95_like(default_target());
    let jobs = default_jobs();
    for report in reports {
        eprintln!("{}:", report.name);
        let start = Instant::now();
        let text = report.render(&suite, jobs);
        print!("{text}");
        let path = dir.join(format!("{}.txt", report.name));
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("results: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("  wall time {:.2}s", start.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
