//! The functional-unit pool and its per-cycle scheduler interface.

use crate::FuCounts;
use reese_isa::{FuClass, Opcode};

/// One functional-unit class: a set of identical units.
#[derive(Debug, Clone)]
struct ClassPool {
    /// Cycle at which each unit can next *accept* an operation.
    next_free: Vec<u64>,
    /// Operations issued to this class (for utilisation stats).
    issued: u64,
    /// Cycles of unit occupancy accumulated (busy time).
    busy_cycles: u64,
}

/// The pool of all functional units.
///
/// Pipelined units accept a new operation every cycle even while older
/// operations are still in flight; non-pipelined units (dividers, square
/// root) are busy for their whole latency. Memory ports are modelled
/// here too, as single-cycle-occupancy units — the cache-access latency
/// itself is charged to the instruction, not the port.
///
/// Utilisation statistics feed the paper's central premise: "30–40% of
/// hardware is unused during any specific cycle", which REESE harvests
/// for the R stream.
///
/// # Example
///
/// ```
/// use reese_isa::{FuClass, Opcode};
/// use reese_pipeline::{FuCounts, FuPool};
///
/// let mut pool = FuPool::new(FuCounts::paper());
/// // Table 1 has exactly one integer multiplier/divider.
/// assert!(pool.try_issue(Opcode::Div, 0));
/// assert!(!pool.try_issue(Opcode::Mul, 0), "divider busy 20 cycles");
/// assert!(pool.try_issue(Opcode::Mul, 20));
/// ```
#[derive(Debug, Clone)]
pub struct FuPool {
    classes: [ClassPool; 5],
    counts: FuCounts,
    /// Per-class minimum of `next_free` — the earliest cycle at which
    /// *some* unit of the class can accept an operation. Maintained on
    /// every issue/flush so availability is one compare instead of a
    /// per-unit scan. A class with zero units holds `u64::MAX`.
    earliest_free: [u64; 5],
}

fn class_index(class: FuClass) -> usize {
    match class {
        FuClass::IntAlu => 0,
        FuClass::IntMulDiv => 1,
        FuClass::FpAlu => 2,
        FuClass::FpMulDiv => 3,
        FuClass::MemPort => 4,
    }
}

impl FuPool {
    /// Creates a pool with the given per-class counts.
    pub fn new(counts: FuCounts) -> FuPool {
        let make = |n: u32| ClassPool {
            next_free: vec![0; n as usize],
            issued: 0,
            busy_cycles: 0,
        };
        let classes = [
            make(counts.int_alu),
            make(counts.int_muldiv),
            make(counts.fp_alu),
            make(counts.fp_muldiv),
            make(counts.mem_ports),
        ];
        let mut earliest_free = [u64::MAX; 5];
        for (e, pool) in earliest_free.iter_mut().zip(&classes) {
            if !pool.next_free.is_empty() {
                *e = 0;
            }
        }
        FuPool {
            classes,
            counts,
            earliest_free,
        }
    }

    /// Tries to issue `op` in cycle `now`; returns whether a unit
    /// accepted it and books the unit if so.
    pub fn try_issue(&mut self, op: Opcode, now: u64) -> bool {
        // Deliberately the original per-unit probe, with no early bail
        // on `earliest_free`: `Scan` mode is the measurement baseline
        // and equivalence oracle, so it must keep the original
        // algorithm's cost profile. The event-driven schedulers get the
        // O(1) bail by gating on [`FuPool::class_free`] at their call
        // sites instead.
        let idx = class_index(op.fu_class());
        let pool = &mut self.classes[idx];
        let Some(unit) = pool.next_free.iter_mut().find(|f| **f <= now) else {
            return false;
        };
        // A pipelined unit, memory ports included, is occupied for one
        // cycle (it can start a new op next cycle); a non-pipelined one
        // for the full latency.
        let occupancy = if op.pipelined() {
            1
        } else {
            u64::from(op.latency())
        };
        *unit = now + occupancy;
        pool.issued += 1;
        pool.busy_cycles += occupancy;
        self.earliest_free[idx] = pool.next_free.iter().copied().min().unwrap_or(u64::MAX);
        true
    }

    /// Tries to issue a memory operation, which needs *two* resources in
    /// the same cycle: an integer ALU for address generation (one
    /// cycle) and a memory port for the cache access. Books both or
    /// neither.
    ///
    /// # Panics
    ///
    /// Debug-panics if `op` is not a memory operation.
    pub fn try_issue_mem(&mut self, op: Opcode, now: u64) -> bool {
        debug_assert_eq!(op.fu_class(), FuClass::MemPort, "{op} is not a memory op");
        // Original per-unit availability scan, as with
        // [`FuPool::try_issue`] — event-driven callers gate on
        // `class_free(IntAlu) && class_free(MemPort)` before probing.
        if self.free_units(FuClass::IntAlu, now) == 0 || self.free_units(FuClass::MemPort, now) == 0
        {
            return false;
        }
        let agen = self.try_issue(Opcode::Add, now);
        let port = self.try_issue(op, now);
        debug_assert!(agen && port, "both units were checked free");
        true
    }

    /// Whether at least one unit of `class` can accept an operation at
    /// cycle `now`. O(1): one compare against the maintained per-class
    /// minimum — this is exactly the success condition of
    /// [`FuPool::try_issue`] for an op of that class.
    pub fn class_free(&self, class: FuClass, now: u64) -> bool {
        self.earliest_free[class_index(class)] <= now
    }

    /// The earliest cycle at which some unit of `class` is free
    /// (`u64::MAX` when the class has no units). The event-driven
    /// scheduler uses this to compute when a blocked redundant stream
    /// can next make progress.
    pub fn earliest_free(&self, class: FuClass) -> u64 {
        self.earliest_free[class_index(class)]
    }

    /// Number of units of `class` free at cycle `now`.
    pub fn free_units(&self, class: FuClass, now: u64) -> u32 {
        self.classes[class_index(class)]
            .next_free
            .iter()
            .filter(|f| **f <= now)
            .count() as u32
    }

    /// Operations issued to `class` so far.
    pub fn issued(&self, class: FuClass) -> u64 {
        self.classes[class_index(class)].issued
    }

    /// Unit-cycles of occupancy accumulated by `class`.
    pub fn busy_cycles(&self, class: FuClass) -> u64 {
        self.classes[class_index(class)].busy_cycles
    }

    /// Unit-cycles of occupancy for every class at once, in
    /// [`FuClass::ALL`] order (the layout the metrics sampler records).
    pub fn busy_by_class(&self) -> [u64; 5] {
        let mut busy = [0u64; 5];
        for (out, &class) in busy.iter_mut().zip(FuClass::ALL.iter()) {
            *out = self.busy_cycles(class);
        }
        busy
    }

    /// Average utilisation of `class` over `cycles` simulated cycles, in
    /// `[0, 1]`.
    pub fn utilisation(&self, class: FuClass, cycles: u64) -> f64 {
        let total = cycles * u64::from(self.counts.count(class));
        if total == 0 {
            0.0
        } else {
            self.busy_cycles(class) as f64 / total as f64
        }
    }

    /// The configured counts.
    pub fn counts(&self) -> FuCounts {
        self.counts
    }

    /// Releases every unit (pipeline flush; in-flight work is squashed).
    pub fn flush(&mut self) {
        for (pool, earliest) in self.classes.iter_mut().zip(&mut self.earliest_free) {
            pool.next_free.fill(0);
            if !pool.next_free.is_empty() {
                *earliest = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_units_accept_every_cycle() {
        let mut p = FuPool::new(FuCounts {
            int_alu: 1,
            ..FuCounts::paper()
        });
        assert!(p.try_issue(Opcode::Add, 0));
        assert!(
            !p.try_issue(Opcode::Add, 0),
            "one unit, one issue per cycle"
        );
        assert!(p.try_issue(Opcode::Add, 1), "pipelined: free next cycle");
    }

    #[test]
    fn nonpipelined_units_block_for_latency() {
        let mut p = FuPool::new(FuCounts::paper());
        assert!(p.try_issue(Opcode::Div, 0));
        for c in 1..20 {
            assert!(!p.try_issue(Opcode::Rem, c), "divider busy at cycle {c}");
        }
        assert!(p.try_issue(Opcode::Rem, 20));
    }

    #[test]
    fn multiplier_is_pipelined() {
        let mut p = FuPool::new(FuCounts::paper());
        assert!(p.try_issue(Opcode::Mul, 0));
        assert!(p.try_issue(Opcode::Mul, 1), "3-cycle latency but pipelined");
    }

    #[test]
    fn classes_do_not_interfere() {
        let mut p = FuPool::new(FuCounts {
            int_alu: 1,
            int_muldiv: 1,
            ..FuCounts::paper()
        });
        assert!(p.try_issue(Opcode::Add, 0));
        assert!(p.try_issue(Opcode::Mul, 0));
        assert!(p.try_issue(Opcode::Ld, 0));
    }

    #[test]
    fn paper_counts_give_four_alu_issues() {
        let mut p = FuPool::new(FuCounts::paper());
        for _ in 0..4 {
            assert!(p.try_issue(Opcode::Add, 5));
        }
        assert!(!p.try_issue(Opcode::Add, 5));
        assert_eq!(p.free_units(FuClass::IntAlu, 5), 0);
        assert_eq!(p.free_units(FuClass::IntAlu, 6), 4);
    }

    #[test]
    fn utilisation_accounting() {
        let mut p = FuPool::new(FuCounts {
            int_alu: 2,
            ..FuCounts::paper()
        });
        p.try_issue(Opcode::Add, 0);
        p.try_issue(Opcode::Add, 0);
        p.try_issue(Opcode::Add, 1);
        // 3 busy unit-cycles over 2 units * 2 cycles.
        assert!((p.utilisation(FuClass::IntAlu, 2) - 0.75).abs() < 1e-12);
        assert_eq!(p.issued(FuClass::IntAlu), 3);
    }

    #[test]
    fn flush_releases_units() {
        let mut p = FuPool::new(FuCounts::paper());
        p.try_issue(Opcode::Div, 0);
        p.flush();
        assert!(p.try_issue(Opcode::Div, 1));
    }

    #[test]
    fn class_free_mirrors_try_issue() {
        // class_free must be exactly try_issue's success condition, at
        // every cycle, so the event-driven scheduler can gate on it.
        let mut p = FuPool::new(FuCounts {
            int_muldiv: 1,
            ..FuCounts::paper()
        });
        assert!(p.class_free(FuClass::IntMulDiv, 0));
        assert!(p.try_issue(Opcode::Div, 0));
        for c in 0..20 {
            assert!(!p.class_free(FuClass::IntMulDiv, c), "divider busy at {c}");
        }
        assert!(p.class_free(FuClass::IntMulDiv, 20));
        assert_eq!(p.earliest_free(FuClass::IntMulDiv), 20);
        p.flush();
        assert!(p.class_free(FuClass::IntMulDiv, 0));
        assert_eq!(p.earliest_free(FuClass::IntMulDiv), 0);
    }

    #[test]
    fn earliest_free_tracks_min_across_units() {
        let mut p = FuPool::new(FuCounts {
            int_alu: 2,
            ..FuCounts::paper()
        });
        assert!(p.try_issue(Opcode::Add, 0));
        assert_eq!(p.earliest_free(FuClass::IntAlu), 0, "second unit idle");
        assert!(p.try_issue(Opcode::Add, 0));
        assert_eq!(p.earliest_free(FuClass::IntAlu), 1, "both booked to 1");
        assert!(!p.class_free(FuClass::IntAlu, 0));
        assert!(p.class_free(FuClass::IntAlu, 1));
    }

    #[test]
    fn mem_port_occupied_one_cycle() {
        let mut p = FuPool::new(FuCounts {
            mem_ports: 1,
            ..FuCounts::paper()
        });
        assert!(p.try_issue(Opcode::Ld, 0));
        assert!(!p.try_issue(Opcode::Sd, 0));
        assert!(p.try_issue(Opcode::Sd, 1));
    }
}
