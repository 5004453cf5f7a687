//! Predictor properties: totality, learning guarantees, and stats
//! accounting over seeded random branch streams.

use reese_bpred::{BranchUnit, Gshare, PredictorConfig};
use reese_stats::SplitMix64;

/// The branch unit accepts any (pc, outcome) stream without panicking
/// and accounts lookups and mispredicts consistently.
#[test]
fn predictors_are_total() {
    let mut rng = SplitMix64::new(10);
    for _ in 0..64 {
        let len = 1 + rng.index(299);
        let stream: Vec<(u64, bool)> = (0..len)
            .map(|_| (rng.range_u64(0, 1_000_000), rng.chance(0.5)))
            .collect();
        let mut bu = BranchUnit::new(PredictorConfig::paper());
        for &(pc, outcome) in &stream {
            let pc = pc & !7; // instruction aligned
            let p = bu.predict_branch(pc);
            bu.resolve_branch(pc, p, outcome);
        }
        let s = bu.stats();
        assert_eq!(s.branch_lookups, stream.len() as u64);
        assert!(s.branch_mispredicts <= s.branch_lookups);
        assert!((0.0..=1.0).contains(&s.mispredict_rate()));
    }
}

/// Gshare eventually learns a constant-direction branch perfectly.
#[test]
fn constant_branches_are_learned() {
    let mut rng = SplitMix64::new(11);
    for _ in 0..64 {
        let pc = rng.range_u64(0, 1_000_000) & !7;
        let taken = rng.chance(0.5);
        let mut p = Gshare::new(10, 8);
        // Enough updates to saturate the history register and then
        // train the steady-state entry (history length 8 + counter
        // hysteresis).
        for _ in 0..24 {
            p.update(pc, taken);
        }
        assert_eq!(p.predict(pc), taken, "failed to learn pc {pc:#x}");
    }
}

/// The BTB through the BranchUnit interface: after training, a
/// stable indirect target is always predicted.
#[test]
fn stable_indirect_targets_learned() {
    let mut rng = SplitMix64::new(12);
    for _ in 0..64 {
        let pc = rng.range_u64(0, 100_000) & !7;
        let target = rng.range_u64(0, 100_000);
        let mut bu = BranchUnit::new(PredictorConfig::paper());
        let first = bu.predict_indirect(pc);
        bu.resolve_indirect(pc, first, target);
        assert_eq!(bu.predict_indirect(pc), Some(target));
    }
}

/// RAS: any sequence of balanced calls (up to the configured depth)
/// predicts all returns exactly, LIFO.
#[test]
fn balanced_calls_return_correctly() {
    let mut rng = SplitMix64::new(13);
    for _ in 0..64 {
        let n = 1 + rng.index(7);
        let addrs: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 1_000_000)).collect();
        let mut bu = BranchUnit::new(PredictorConfig::paper());
        for &a in &addrs {
            bu.push_return(a);
        }
        for &a in addrs.iter().rev() {
            assert_eq!(bu.pop_return(), Some(a));
        }
        assert_eq!(bu.pop_return(), None);
    }
}

/// Gshare masters a history-correlated pattern that a per-PC two-bit
/// counter gets at most two thirds right (the reason the paper
/// configures it).
#[test]
fn gshare_learns_history_correlated_patterns() {
    // Period-3 pattern T T N: trivial for 8 bits of history.
    let pattern = [true, true, false];
    let mut g = Gshare::new(12, 8);
    let pc = 0x2000;
    let mut ok = 0;
    for i in 0..3000 {
        let outcome = pattern[i % 3];
        if g.predict(pc) == outcome {
            ok += 1;
        }
        g.update(pc, outcome);
    }
    assert!(ok > 2800, "gshare should master the pattern: {ok}");
}
