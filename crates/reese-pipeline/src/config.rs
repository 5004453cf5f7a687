//! Pipeline configuration.

use reese_bpred::PredictorConfig;
use reese_isa::FuClass;
use reese_mem::HierarchyConfig;

/// Number of functional units of each class.
///
/// The REESE paper's spare-capacity experiments are sweeps over these
/// counts: the starting configuration is 4 integer ALUs and 1 integer
/// multiplier/divider (same for FP), and spares are added on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuCounts {
    /// Integer ALUs.
    pub int_alu: u32,
    /// Integer multiplier/dividers.
    pub int_muldiv: u32,
    /// FP adders.
    pub fp_alu: u32,
    /// FP multiplier/dividers.
    pub fp_muldiv: u32,
    /// Memory ports.
    pub mem_ports: u32,
}

impl FuCounts {
    /// Table 1 of the paper: 4 IntALU, 1 IntMul/Div, 4 FPALU,
    /// 1 FPMul/Div, 2 memory ports.
    pub fn paper() -> FuCounts {
        FuCounts {
            int_alu: 4,
            int_muldiv: 1,
            fp_alu: 4,
            fp_muldiv: 1,
            mem_ports: 2,
        }
    }

    /// The count for one class.
    pub fn count(&self, class: FuClass) -> u32 {
        match class {
            FuClass::IntAlu => self.int_alu,
            FuClass::IntMulDiv => self.int_muldiv,
            FuClass::FpAlu => self.fp_alu,
            FuClass::FpMulDiv => self.fp_muldiv,
            FuClass::MemPort => self.mem_ports,
        }
    }
}

impl Default for FuCounts {
    fn default() -> Self {
        FuCounts::paper()
    }
}

/// How the cycle loop finds work each cycle.
///
/// Both modes are cycle-accurate and produce bit-identical results; the
/// equivalence suite in the workspace root asserts exactly that. The
/// scan path is retained as the executable specification the
/// event-driven path is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// Re-scan the whole instruction window every cycle (the original
    /// SimpleScalar-style implementation): writeback filters every RUU
    /// entry, issue collects every ready entry, and the clock always
    /// advances one cycle at a time.
    Scan,
    /// Maintain incremental structures instead: a ready set updated at
    /// dispatch/wake-up, a completion event wheel keyed by
    /// `complete_cycle`, and idle-cycle skipping that jumps the clock to
    /// the next scheduled event when the machine is provably quiescent.
    #[default]
    EventDriven,
}

/// Full configuration of the baseline out-of-order pipeline.
///
/// [`PipelineConfig::starting`] reproduces the paper's Table 1 "starting
/// configuration"; the `with_*` builders express every variation the
/// evaluation sweeps (Figures 2–7).
///
/// # Example
///
/// ```
/// use reese_pipeline::PipelineConfig;
///
/// // Figure 3's machine: the starting config with RUU and LSQ doubled.
/// let cfg = PipelineConfig::starting().with_ruu(32).with_lsq(16);
/// assert_eq!(cfg.ruu_size, 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Fetch queue capacity (instructions).
    pub fetch_queue_size: usize,
    /// Machine width: max instructions fetched, dispatched, issued, and
    /// committed per cycle ("Max IPC for other pipeline stages").
    pub width: usize,
    /// Register update unit capacity.
    pub ruu_size: usize,
    /// Load/store queue capacity.
    pub lsq_size: usize,
    /// Functional-unit counts.
    pub fu: FuCounts,
    /// Memory hierarchy configuration.
    pub hierarchy: HierarchyConfig,
    /// Branch predictor configuration.
    pub predictor: PredictorConfig,
    /// Extra front-end refill cycles charged after a branch
    /// misprediction resolves (fetch/decode depth).
    pub mispredict_penalty: u32,
    /// Hard safety cap on simulated cycles (0 = unlimited).
    pub max_cycles: u64,
    /// How the cycle loop finds work (results are identical either way).
    pub scheduler: SchedulerMode,
}

impl PipelineConfig {
    /// The paper's Table 1 starting configuration: fetch queue 16,
    /// width 8, RUU 16, LSQ 8, gshare, paper cache hierarchy.
    pub fn starting() -> PipelineConfig {
        PipelineConfig {
            fetch_queue_size: 16,
            width: 8,
            ruu_size: 16,
            lsq_size: 8,
            fu: FuCounts::paper(),
            hierarchy: HierarchyConfig::paper(),
            predictor: PredictorConfig::paper(),
            mispredict_penalty: 3,
            max_cycles: 0,
            scheduler: SchedulerMode::default(),
        }
    }

    /// Selects the cycle-loop scheduler implementation.
    pub fn with_scheduler(mut self, mode: SchedulerMode) -> PipelineConfig {
        self.scheduler = mode;
        self
    }

    /// Sets the RUU size.
    pub fn with_ruu(mut self, n: usize) -> PipelineConfig {
        self.ruu_size = n;
        self
    }

    /// Sets the LSQ size.
    pub fn with_lsq(mut self, n: usize) -> PipelineConfig {
        self.lsq_size = n;
        self
    }

    /// Sets the machine width (and grows the fetch queue to `2 * width`
    /// if it would otherwise be smaller, as the paper's 16-wide runs do).
    pub fn with_width(mut self, w: usize) -> PipelineConfig {
        self.width = w;
        self.fetch_queue_size = self.fetch_queue_size.max(2 * w);
        self
    }

    /// Sets the number of memory ports (Figure 5 doubles this to 4).
    pub fn with_mem_ports(mut self, n: u32) -> PipelineConfig {
        self.fu.mem_ports = n;
        self
    }

    /// Sets the functional-unit counts.
    pub fn with_fu(mut self, fu: FuCounts) -> PipelineConfig {
        self.fu = fu;
        self
    }

    /// Adds integer ALUs on top of the current count (the paper's
    /// "+1 ALU" / "+2 ALU" spare elements).
    pub fn with_extra_int_alus(mut self, n: u32) -> PipelineConfig {
        self.fu.int_alu += n;
        self
    }

    /// Adds integer multiplier/dividers ("+1 Mult").
    pub fn with_extra_int_muldivs(mut self, n: u32) -> PipelineConfig {
        self.fu.int_muldiv += n;
        self
    }

    /// The most dynamic instructions the front end's emulator can have
    /// executed past the last commit: each sits in the fetch queue or
    /// the RUU, but for one an instruction-cache miss holds back from
    /// delivery. So a baseline run that stops after `n` commits has
    /// executed at most `n + fetch_lookahead()` instructions from its
    /// start, and nothing past that frontier reaches its result. A
    /// redundancy policy that holds instructions outside the RUU adds
    /// its share ([`crate::Redundancy::held`]).
    pub fn fetch_lookahead(&self) -> u64 {
        (self.ruu_size + self.fetch_queue_size + 1) as u64
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics if any capacity is zero or the LSQ exceeds the RUU.
    pub fn validate(&self) {
        assert!(self.width > 0, "width must be positive");
        assert!(self.fetch_queue_size > 0, "fetch queue must be non-empty");
        assert!(self.ruu_size > 0, "RUU must be non-empty");
        assert!(self.lsq_size > 0, "LSQ must be non-empty");
        assert!(
            self.lsq_size <= self.ruu_size,
            "LSQ larger than RUU makes no sense"
        );
        for class in FuClass::ALL {
            assert!(self.fu.count(class) > 0, "need at least one {class} unit");
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::starting()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starting_matches_table1() {
        let c = PipelineConfig::starting();
        assert_eq!(c.fetch_queue_size, 16);
        assert_eq!(c.width, 8);
        assert_eq!(c.ruu_size, 16);
        assert_eq!(c.lsq_size, 8);
        assert_eq!(c.fu.int_alu, 4);
        assert_eq!(c.fu.int_muldiv, 1);
        assert_eq!(c.fu.mem_ports, 2);
        c.validate();
    }

    #[test]
    fn builders_compose() {
        let c = PipelineConfig::starting()
            .with_ruu(32)
            .with_lsq(16)
            .with_width(16)
            .with_mem_ports(4)
            .with_extra_int_alus(2)
            .with_extra_int_muldivs(1);
        assert_eq!(c.ruu_size, 32);
        assert_eq!(c.width, 16);
        assert_eq!(c.fetch_queue_size, 32, "fetch queue grows with width");
        assert_eq!(c.fu.mem_ports, 4);
        assert_eq!(c.fu.int_alu, 6);
        assert_eq!(c.fu.int_muldiv, 2);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "LSQ larger than RUU")]
    fn oversized_lsq_rejected() {
        PipelineConfig::starting()
            .with_ruu(8)
            .with_lsq(16)
            .validate();
    }

    #[test]
    fn scheduler_defaults_to_event_driven() {
        let c = PipelineConfig::starting();
        assert_eq!(c.scheduler, SchedulerMode::EventDriven);
        let c = c.with_scheduler(SchedulerMode::Scan);
        assert_eq!(c.scheduler, SchedulerMode::Scan);
        c.validate();
    }

    #[test]
    fn fu_count_lookup() {
        let fu = FuCounts::paper();
        assert_eq!(fu.count(FuClass::IntAlu), 4);
        assert_eq!(fu.count(FuClass::MemPort), 2);
    }
}
