//! Structured campaign telemetry: a JSONL journal of phase timings,
//! worker throughput, and cache effectiveness, written as the campaign
//! runs (`--telemetry-out` on the CLI).
//!
//! The journal answers "where did the time go" for a campaign without
//! touching its outcomes: every event is emitted *around* the
//! simulation phases, never from inside a trial's scoring path, so a
//! campaign with a journal attached is bit-identical to one without.
//! Events carry wall-clock durations and are therefore **not**
//! deterministic — nothing in CI byte-compares a journal; consumers
//! read it with any JSONL tool.
//!
//! Event stream, in emission order:
//!
//! 1. `campaign_start` — scheme, engine, jobs, trials, seed.
//! 2. `reference_done` — checkpoint sweep cost: resident checkpoints,
//!    sweep stride, dynamic length, and the sweep's wall time.
//! 3. `resume_loaded` — recorded trials reused from a resume log.
//! 4. `plan` — todo count, distinct simulated keys, and the
//!    memoization hit rate (`1 - keys/todo`).
//! 5. `clean_done` — the clean whole-program run's cycles, and
//!    `wait_ms`: how long the fan-out's head worker waited to join it
//!    (0 when it finished first, and serially, where the head item runs
//!    it). A nonzero wait means the clean run is still the critical
//!    path. The head item emits it, so on several workers it can fall
//!    among the `progress` events.
//! 6. `progress` (repeated) — trials done / total, trials per second,
//!    and an ETA, sampled from the worker fan-out.
//! 7. `trials_done` — end-to-end fan-out stats: items, wall ms, items
//!    per second, per-worker item/steal counts and busy time (the head
//!    item's time is not busy), and `screened_keys`: the simulated keys
//!    (trials, under metrics sampling) the functional screen scored
//!    from their window's clean pass without a detailed fork — 0 under
//!    the Full engine and on REESE and duplex.
//! 8. `campaign_done` — trials, detected, coverage, total wall ms.

use reese_stats::ParallelStats;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A campaign telemetry journal. Cheap to share across worker threads:
/// the writer is behind a mutex, progress counting is atomic.
#[derive(Debug)]
pub struct Telemetry {
    writer: Mutex<BufWriter<File>>,
    start: Instant,
    done: AtomicU64,
    last_report: AtomicU64,
}

impl Telemetry {
    /// Creates (truncating) the journal and writes its header line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error message on failure.
    pub fn create(path: &Path) -> Result<Telemetry, String> {
        let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let tele = Telemetry {
            writer: Mutex::new(BufWriter::new(file)),
            start: Instant::now(),
            done: AtomicU64::new(0),
            last_report: AtomicU64::new(0),
        };
        tele.emit("journal_start", &[("reese_telemetry", "1".into())]);
        Ok(tele)
    }

    /// Milliseconds since the journal was created.
    fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Writes one event line: `{"event": "...", "elapsed_ms": N, ...}`.
    /// `fields` values must already be rendered as JSON (callers quote
    /// their own strings). Write failures are swallowed: telemetry must
    /// never fail a campaign.
    pub fn emit(&self, event: &str, fields: &[(&str, String)]) {
        let mut line = format!(
            "{{\"event\": \"{event}\", \"elapsed_ms\": {}",
            self.elapsed_ms()
        );
        for (k, v) in fields {
            line.push_str(&format!(", \"{k}\": {v}"));
        }
        line.push_str("}\n");
        if let Ok(mut w) = self.writer.lock() {
            let _ = w.write_all(line.as_bytes());
            let _ = w.flush();
        }
    }

    /// Rewinds the progress counters so a shared journal can cover
    /// several sequential campaigns (the `schemes` ranking runs one per
    /// (scheme, kernel) cell) with per-campaign done/total counts.
    pub fn reset_progress(&self) {
        self.done.store(0, Ordering::Relaxed);
        self.last_report.store(0, Ordering::Relaxed);
    }

    /// Records one completed trial from a worker and emits a `progress`
    /// event at most once per `stride` completions: done/total, the
    /// running trials-per-second rate, and a naive ETA.
    pub fn progress(&self, total: u64, stride: u64) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let stride = stride.max(1);
        // Claim the report slot atomically so exactly one worker emits
        // per stride crossing.
        let slot = done / stride;
        if slot == 0 || self.last_report.fetch_max(slot, Ordering::Relaxed) >= slot {
            return;
        }
        let secs = self.start.elapsed().as_secs_f64();
        let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
        let eta_ms = if rate > 0.0 {
            ((total.saturating_sub(done)) as f64 / rate * 1000.0) as u64
        } else {
            0
        };
        self.emit(
            "progress",
            &[
                ("done", done.to_string()),
                ("total", total.to_string()),
                ("trials_per_sec", format!("{rate:.2}")),
                ("eta_ms", eta_ms.to_string()),
            ],
        );
    }

    /// Emits the end-of-fan-out `trials_done` event from the map's
    /// [`ParallelStats`]: total items, wall time, throughput, and the
    /// per-worker item/steal split, plus the `screened` key count.
    pub fn trials_done(&self, stats: &ParallelStats, screened: usize) {
        let workers: Vec<String> = stats
            .workers
            .iter()
            .map(|w| {
                format!(
                    "{{\"worker\": {}, \"items\": {}, \"steals\": {}, \"busy_ms\": {}}}",
                    w.worker,
                    w.items,
                    w.steals,
                    w.busy.as_millis()
                )
            })
            .collect();
        self.emit(
            "trials_done",
            &[
                ("items", stats.items().to_string()),
                ("wall_ms", (stats.wall.as_millis() as u64).to_string()),
                ("items_per_sec", format!("{:.2}", stats.items_per_sec())),
                ("jobs", stats.jobs.to_string()),
                ("steals", stats.steals().to_string()),
                ("workers", format!("[{}]", workers.join(", "))),
                ("screened_keys", screened.to_string()),
            ],
        );
    }
}

/// Renders a string as a JSON string literal for [`Telemetry::emit`]
/// fields (the journal's strings are all identifier-like; escaping
/// covers the two characters that could break a line).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_lines_are_json_objects() {
        let dir = std::env::temp_dir().join(format!("reese-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let tele = Telemetry::create(&path).unwrap();
        tele.emit(
            "campaign_start",
            &[("scheme", json_str("reese")), ("jobs", "4".into())],
        );
        for _ in 0..10 {
            tele.progress(10, 2);
        }
        drop(tele);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "header + start + progress: {text}");
        assert!(lines[0].contains("\"reese_telemetry\": 1"));
        assert!(lines[1].contains("\"event\": \"campaign_start\""));
        assert!(lines[1].contains("\"scheme\": \"reese\""));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"elapsed_ms\": "), "{line}");
        }
        let progress = lines
            .iter()
            .filter(|l| l.contains("\"event\": \"progress\""))
            .count();
        assert!(progress >= 1, "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_str_escapes_quotes() {
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_str("a\\b"), "\"a\\\\b\"");
    }
}
