//! Fault-injection hooks and detection events.
//!
//! REESE's claim is that any transient error that corrupts the *result*
//! of an instruction before the P/R comparison is detected. This module
//! defines the injection interface the simulator honours; the
//! `reese-faults` crate builds Monte-Carlo campaigns on top of it.
//!
//! Injection corrupts only the simulator's *latched* result copies — the
//! P value carried into the R-stream Queue, or the recomputed R value —
//! never the architectural state, which matches the transient-fault
//! model: the re-execution after the detection flush sees clean values.

use reese_pipeline::Seq;

/// Which execution stream a fault corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stream {
    /// The primary execution's latched result.
    Primary,
    /// The redundant execution's recomputed result.
    Redundant,
}

/// A single fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Dynamic instruction (fetch sequence number) to corrupt.
    pub seq: Seq,
    /// Which stream's result latch is hit.
    pub stream: Stream,
    /// Bit to flip in the 64-bit result.
    pub bit: u8,
    /// Transient faults (`false`) fire once and vanish, so the
    /// post-detection re-execution succeeds. Sticky faults (`true`)
    /// re-apply on every replay, modelling a permanent fault that makes
    /// REESE stop the machine.
    pub sticky: bool,
}

impl InjectedFault {
    /// A transient fault flipping `bit` of instruction `seq`'s primary
    /// result.
    pub fn primary(seq: Seq, bit: u8) -> InjectedFault {
        InjectedFault {
            seq,
            stream: Stream::Primary,
            bit: bit & 63,
            sticky: false,
        }
    }

    /// A transient fault flipping `bit` of instruction `seq`'s redundant
    /// result.
    pub fn redundant(seq: Seq, bit: u8) -> InjectedFault {
        InjectedFault {
            seq,
            stream: Stream::Redundant,
            bit: bit & 63,
            sticky: false,
        }
    }

    /// A permanent (sticky) fault on the primary result: the comparison
    /// fails again after the flush and REESE reports a permanent fault.
    pub fn permanent(seq: Seq, bit: u8) -> InjectedFault {
        InjectedFault {
            seq,
            stream: Stream::Primary,
            bit: bit & 63,
            sticky: true,
        }
    }

    /// The XOR mask this fault applies.
    pub fn mask(&self) -> u64 {
        1u64 << (self.bit & 63)
    }
}

/// The faults a REESE run injects: the fault plan of its
/// [`reese_pipeline::RunSpec`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Faults<'a> {
    /// A fault-free run.
    #[default]
    None,
    /// Bit flips in the compare latches of specific dynamic
    /// instructions.
    Latch(&'a [InjectedFault]),
    /// An environmental disturbance; the run's
    /// [`crate::ReeseResult::duration`] reports what it corrupted.
    Duration(DurationFault),
}

/// An environmental disturbance lasting Δt cycles (paper §2).
///
/// While active, the fault flips one result bit of *every* instruction
/// of the matching functional-unit class that completes execution inside
/// the window — in the primary stream, the redundant stream, or both.
/// This is the paper's transient model: "if the cause of a soft error
/// is present for time Δt, then detection of the soft error is only
/// guaranteed if the P-stream and R-stream executions are separated by
/// a time greater than Δt. If the executions are separated by a smaller
/// time period, then both might be susceptible to the same soft error"
/// — in which case both copies are corrupted identically and the
/// comparison passes silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurationFault {
    /// First cycle the disturbance is active.
    pub start_cycle: u64,
    /// Number of cycles it stays active (Δt).
    pub duration: u64,
    /// The functional-unit class it strikes.
    pub class: reese_isa::FuClass,
    /// Result bit it flips.
    pub bit: u8,
}

impl DurationFault {
    /// Whether the disturbance is active at `cycle`.
    pub fn active_at(&self, cycle: u64) -> bool {
        cycle >= self.start_cycle && cycle < self.start_cycle + self.duration
    }

    /// The XOR mask applied to affected results.
    pub fn mask(&self) -> u64 {
        1u64 << (self.bit & 63)
    }
}

/// Outcome accounting for a [`DurationFault`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurationReport {
    /// Instructions whose primary execution was corrupted.
    pub p_corrupted: u64,
    /// Instructions whose redundant execution was corrupted.
    pub r_corrupted: u64,
    /// Instructions corrupted in *both* streams — identical flips, so
    /// the comparison passes and the error escapes silently (the §2
    /// separation hazard).
    pub silent_both: u64,
}

impl DurationReport {
    /// Instructions corrupted in exactly one stream (detectable).
    pub fn detectable(&self) -> u64 {
        self.p_corrupted + self.r_corrupted - 2 * self.silent_both
    }

    /// Whether any corruption happened at all.
    pub fn affected(&self) -> bool {
        self.p_corrupted + self.r_corrupted > 0
    }
}

/// A soft error detected by the P/R comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionEvent {
    /// Dynamic instruction whose comparison failed.
    pub seq: Seq,
    /// PC of that instruction.
    pub pc: u64,
    /// Cycle at which the mismatch was caught.
    pub detect_cycle: u64,
    /// Cycle at which the corrupted value entered the window (the
    /// enqueue of the P value, or the completion of the R execution).
    pub inject_cycle: u64,
}

impl DetectionEvent {
    /// Cycles from corruption to detection.
    pub fn latency(&self) -> u64 {
        self.detect_cycle.saturating_sub(self.inject_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_mask_bits() {
        let f = InjectedFault::primary(10, 65);
        assert_eq!(f.bit, 1);
        assert_eq!(f.mask(), 2);
        assert_eq!(f.stream, Stream::Primary);
        let f = InjectedFault::redundant(10, 63);
        assert_eq!(f.mask(), 1 << 63);
        assert_eq!(f.stream, Stream::Redundant);
    }

    #[test]
    fn detection_latency() {
        let d = DetectionEvent {
            seq: 1,
            pc: 0x1000,
            detect_cycle: 120,
            inject_cycle: 100,
        };
        assert_eq!(d.latency(), 20);
    }
}
