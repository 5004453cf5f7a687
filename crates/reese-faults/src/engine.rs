//! Trial engines: per-trial recompute-from-scratch vs checkpoint-
//! anchored replay.
//!
//! Both engines score a simulated trial over the same **anchored
//! window**: the detailed machine starts from the continuous-warm
//! functional state at the checkpoint boundary at-or-before the fault
//! (minus a runway, so the pipeline reaches steady state before the
//! fault fires) and runs to the boundary at-or-after the fault plus a
//! margin (so recovery bubbles drain inside the window). Detection,
//! latency, recovery cost, and state cleanliness are classified from
//! the faulted window against the clean window from the same start
//! state and budget.
//!
//! The window is the *definition* of a trial, not an approximation of
//! one: a whole-program "extra cycles" number for a recovered
//! transient measures the tail of the workload (downstream slack
//! absorbs or amplifies the flush bubble arbitrarily far from the
//! fault), whereas the windowed overhead is a property of the fault
//! itself. When the window covers the whole program — every small
//! program with dynamic length below the checkpoint interval — the
//! anchored trial degenerates to exactly the historical full-run
//! trial.
//!
//! [`TrialEngine::Full`] is the oracle arm: every trial re-derives its
//! anchor state by functionally executing the program from instruction
//! 0 (via [`reese_ckpt::checkpoints_at`]), re-runs its own clean window
//! ([`crate::DetectionScheme::run_window`]) and runs its faulted window
//! from the anchor ([`crate::DetectionScheme::run_trial`]) — no sweep,
//! no caches, no memoization, no fork, no screen, full per-trial cost.
//! [`TrialEngine::Replay`] captures its anchors from one
//! [`reese_ckpt::checkpoint_stream_thinned`] sweep (plus
//! [`reese_ckpt::derive_checkpoint`]), restores once per window, runs
//! each window's clean machine once and forks every faulted trial of
//! that window off it (see
//! [`crate::DetectionScheme::run_window_trials`]) — under metrics
//! sampling too, where each fork carries a clone of the clean pass's
//! tracer — and memoizes outcomes by fault key when not sampling. On
//! the single-stream schemes (baseline, SWIFT, MEEK's primary keys) a
//! functional screen runs first: a key whose faulted stream never
//! changes a field the timing core reads before the window's frontier
//! ([`reese_pipeline::same_timing`]) would fork into a copy of the
//! clean pass, so it is scored from the clean pass with no detailed
//! fork. Outcome and metrics byte-identity between the two arms
//! therefore certifies the entire reuse machinery — checkpoint
//! capture/restore, the screen, the fork and its observers,
//! memoization, parallel fan-out, and resume — against the
//! from-scratch computation.

use crate::schemes::SchemeRun;
use std::fmt;
use std::str::FromStr;

/// Pipeline spin-up distance: the anchor is the checkpoint boundary
/// at-or-before `seq - RUNWAY`, so at least this many instructions
/// commit before the fault can fire (when the fault is not within the
/// first window).
pub(crate) const RUNWAY: u64 = 512;

/// Drain distance: the window stops at the first checkpoint boundary
/// after `seq + MARGIN`, so recovery bubbles settle inside the window.
pub(crate) const MARGIN: u64 = 512;

/// Default checkpoint spacing for campaigns (instructions).
pub const DEFAULT_CKPT_EVERY: u64 = 2048;

/// Which machinery computes each simulated trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialEngine {
    /// Recompute everything from scratch per trial: functional
    /// fast-forward from instruction 0 to the anchor, then a fresh
    /// clean window and the faulted window. The oracle arm — it shares
    /// no state across trials.
    Full,
    /// One checkpoint sweep per campaign; one detailed pass per
    /// anchored window with every trial forked off its clean run,
    /// memoized outcomes. The default arm.
    Replay,
}

impl fmt::Display for TrialEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TrialEngine::Full => "full",
            TrialEngine::Replay => "replay",
        })
    }
}

impl FromStr for TrialEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<TrialEngine, String> {
        match s {
            "full" => Ok(TrialEngine::Full),
            "replay" => Ok(TrialEngine::Replay),
            other => Err(format!(
                "unknown trial engine `{other}` (expected `full` or `replay`)"
            )),
        }
    }
}

/// The anchored window a fault at `seq` is scored over. Identical for
/// both engines by construction: it depends only on (`seq`,
/// checkpoint interval, boundary count, instruction limit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TrialWindow {
    /// Index of the anchor boundary (boundary `i` sits at `i * every`).
    pub anchor_idx: usize,
    /// Committed-instruction budget for the window (`u64::MAX` = run
    /// to halt).
    pub budget: u64,
}

impl TrialWindow {
    /// The anchor boundary in global dynamic-instruction numbering.
    pub fn anchor(&self, every: u64) -> u64 {
        self.anchor_idx as u64 * every
    }
}

/// Number of checkpoint boundaries a sweep captures over a program of
/// `dynamic_len` instructions: boundaries sit at multiples of `every`
/// strictly below the halt.
pub(crate) fn boundary_count(dynamic_len: u64, every: u64) -> usize {
    ((dynamic_len - 1) / every + 1) as usize
}

/// The ceiling of a final window over `tail` clean instructions at
/// interval `every`: the clean tail plus one interval of headroom.
/// `None` when that does not fit below `u64::MAX`, the budget that
/// reads as "run to halt" (saturating would let a runaway faulted
/// stream loop forever). A campaign or log is rejected when the window
/// anchored at instruction 0 (`tail` = the dynamic length) has none,
/// which bounds every other window's.
pub(crate) fn window_ceiling(tail: u64, every: u64) -> Option<u64> {
    tail.checked_add(every).filter(|&c| c < u64::MAX)
}

/// Plans the window for a fault at `seq`. `limit` is the campaign's
/// committed-instruction cap (`u64::MAX` = none); `dynamic_len` is the
/// clean run's committed-instruction count, with a representable
/// [`window_ceiling`] at `every`.
pub(crate) fn plan_window(
    seq: u64,
    every: u64,
    boundaries: usize,
    limit: u64,
    dynamic_len: u64,
) -> TrialWindow {
    let anchor_idx = ((seq.saturating_sub(RUNWAY) / every) as usize).min(boundaries - 1);
    let anchor = anchor_idx as u64 * every;
    let stop_idx = (seq + MARGIN) / every + 1;
    let budget = if (stop_idx as usize) < boundaries {
        stop_idx * every - anchor
    } else {
        // Final window: the clean tail halts after `dynamic_len -
        // anchor` commits, but an architecturally corrupted stream may
        // never halt at all (a flipped loop bound loops forever), so
        // "run to halt" still needs a ceiling. One full checkpoint
        // interval of headroom past the clean halt separates a late
        // halt from a runaway; a run that exhausts it scores as
        // budget-limited and not clean.
        let tail = window_ceiling(dynamic_len - anchor, every)
            .expect("intervals whose ceiling overflows are rejected before planning");
        if limit == u64::MAX {
            tail
        } else {
            tail.min(limit - anchor)
        }
    };
    TrialWindow { anchor_idx, budget }
}

/// Clean-window reference: cycle count, fetch-frontier digest, and
/// committed output of the fault-free run from `ck` under `budget`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowBaseline {
    /// Cycles of the clean window.
    pub cycles: u64,
    /// Fetch-frontier architectural digest at window end.
    pub digest: u64,
    /// FNV-1a over the window's committed output writes.
    pub output_fnv: u64,
    /// The window reached the program's halt (rather than its
    /// instruction budget), so the frontier digest is the final
    /// architectural state and is comparable across runs.
    pub halted: bool,
}

impl From<&SchemeRun> for WindowBaseline {
    fn from(r: &SchemeRun) -> WindowBaseline {
        WindowBaseline {
            cycles: r.cycles,
            digest: r.state_digest,
            output_fnv: output_fnv(&r.output),
            halted: r.exit_code.is_some(),
        }
    }
}

/// FNV-1a over a committed output stream.
pub(crate) fn output_fnv(out: &[i64]) -> u64 {
    let bytes: Vec<u8> = out.iter().flat_map(|v| v.to_le_bytes()).collect();
    crate::stream::fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_names_round_trip() {
        for e in [TrialEngine::Full, TrialEngine::Replay] {
            assert_eq!(e.to_string().parse::<TrialEngine>().unwrap(), e);
        }
        let err = "fast".parse::<TrialEngine>().unwrap_err();
        assert!(err.contains("unknown trial engine `fast`"), "{err}");
    }

    #[test]
    fn boundary_count_matches_sweep_semantics() {
        // Boundaries at multiples of `every` strictly below the halt.
        assert_eq!(boundary_count(1, 2048), 1);
        assert_eq!(boundary_count(2048, 2048), 1);
        assert_eq!(boundary_count(2049, 2048), 2);
        assert_eq!(boundary_count(4096, 2048), 2);
        assert_eq!(boundary_count(4097, 2048), 3);
    }

    #[test]
    fn window_gives_runway_and_margin() {
        // Fault deep in the stream: anchored one boundary back, stopped
        // one boundary past seq + margin.
        let w = plan_window(4500, 2048, 8, u64::MAX, 16_000);
        assert_eq!(w.anchor_idx, 1); // (4500-512)/2048 = 1
        assert_eq!(w.anchor(2048), 2048);
        assert_eq!(w.budget, (2 + 1) * 2048 - 2048); // stop at boundary 3
        assert!(4500 - w.anchor(2048) >= RUNWAY);
    }

    #[test]
    fn window_near_start_anchors_at_zero() {
        let w = plan_window(100, 2048, 8, u64::MAX, 16_000);
        assert_eq!(w.anchor_idx, 0);
        assert_eq!(w.budget, 2048);
    }

    #[test]
    fn window_near_end_runs_to_halt() {
        // Run-to-halt is still bounded: the clean tail plus one
        // interval of headroom, so a corrupted stream that loops
        // forever cannot hang the trial.
        let w = plan_window(15_000, 2048, 8, u64::MAX, 16_000);
        assert_eq!(w.anchor_idx, 7);
        assert_eq!(w.budget, 16_000 - 7 * 2048 + 2048);
    }

    #[test]
    fn window_near_end_respects_instruction_cap() {
        let w = plan_window(15_000, 2048, 8, 16_000, 16_000);
        assert_eq!(w.anchor_idx, 7);
        assert_eq!(w.budget, 16_000 - 7 * 2048);
    }

    #[test]
    fn an_interval_whose_ceiling_overflows_has_none() {
        // The largest final window is the one anchored at 0: the whole
        // run plus one interval, which must fit below u64::MAX.
        assert_eq!(window_ceiling(16_000, 2048), Some(18_048));
        let largest = u64::MAX - 16_001;
        assert_eq!(window_ceiling(16_000, largest), Some(u64::MAX - 1));
        assert_eq!(window_ceiling(16_000, largest + 1), None);
        assert_eq!(window_ceiling(16_000, u64::MAX), None);
    }

    #[test]
    fn small_program_degenerates_to_full_run() {
        // Dynamic length below the interval: one boundary, whole-program
        // window — the historical full-run trial.
        let n = boundary_count(122, DEFAULT_CKPT_EVERY);
        assert_eq!(n, 1);
        let w = plan_window(60, DEFAULT_CKPT_EVERY, n, u64::MAX, 122);
        assert_eq!(w.anchor_idx, 0);
        assert_eq!(w.budget, 122 + DEFAULT_CKPT_EVERY);
    }
}
