//! REESE configuration.

use reese_pipeline::{FuCounts, PipelineConfig, SchedulerMode};

/// Configuration of the REESE time-redundant machine.
///
/// Wraps a baseline [`PipelineConfig`] and adds the REESE-specific
/// knobs: the R-stream Queue geometry, the redundant-issue policy, the
/// spare functional units the paper's experiments add, and the partial
/// duplication ratio from the paper's future-work section.
///
/// # Example
///
/// ```
/// use reese_core::ReeseConfig;
///
/// // The paper's "REESE + 2 ALU" variant on the starting machine.
/// let cfg = ReeseConfig::starting().with_spare_int_alus(2);
/// assert_eq!(cfg.pipeline.fu.int_alu, 6);
/// assert_eq!(cfg.rqueue_size, 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReeseConfig {
    /// The underlying pipeline configuration.
    pub pipeline: PipelineConfig,
    /// R-stream Queue capacity; the paper's initial maximum is 32.
    pub rqueue_size: usize,
    /// Occupancy at which redundant issue takes priority over primary
    /// issue, so the queue cannot wedge the pipeline.
    pub high_water: usize,
    /// How many leading un-issued R-queue entries the redundant
    /// scheduler may consider per cycle (a small FIFO lookahead).
    pub r_issue_lookahead: usize,
    /// Re-execute one in `duplication_period` instructions. `1` is the
    /// paper's baseline (full duplication); larger values model the
    /// future-work partial-duplication idea of §7.
    pub duplication_period: u64,
    /// Extra front-end cycles charged after an error-detection flush.
    pub flush_penalty: u32,
    /// Whether completed instructions leave the RUU as they migrate into
    /// the R-stream Queue (§4.3's "remove instructions from the pipeline
    /// before the instructions are ready to commit" — an optimisation
    /// the paper notes "requires additional hardware complexity").
    ///
    /// The default is `false` (RUU entries are held until the comparison
    /// commits), which reproduces the paper's measured overheads; the
    /// `true` setting quantifies how much the proposed optimisation
    /// would buy (see the `ablation_report` binary).
    pub early_removal: bool,
}

impl ReeseConfig {
    /// REESE on the paper's Table 1 starting configuration with a
    /// 32-entry R-stream Queue and full duplication.
    pub fn starting() -> ReeseConfig {
        ReeseConfig::over(PipelineConfig::starting())
    }

    /// REESE layered over an arbitrary baseline machine.
    pub fn over(pipeline: PipelineConfig) -> ReeseConfig {
        let rqueue_size = 32;
        ReeseConfig {
            high_water: rqueue_size - pipeline.width.min(rqueue_size - 1),
            pipeline,
            rqueue_size,
            r_issue_lookahead: 8,
            duplication_period: 1,
            flush_penalty: 3,
            early_removal: false,
        }
    }

    /// Sets the RUU-removal policy (see [`ReeseConfig::early_removal`]).
    pub fn with_early_removal(mut self, on: bool) -> ReeseConfig {
        self.early_removal = on;
        self
    }

    /// Sets the R-stream Queue size (adjusting the high-water mark to
    /// stay `width` entries below the cap).
    pub fn with_rqueue_size(mut self, n: usize) -> ReeseConfig {
        self.rqueue_size = n;
        self.high_water = n.saturating_sub(self.pipeline.width).max(1);
        self
    }

    /// Adds spare integer ALUs (the paper's "+1 ALU" / "+2 ALU").
    pub fn with_spare_int_alus(mut self, n: u32) -> ReeseConfig {
        self.pipeline.fu.int_alu += n;
        self
    }

    /// Adds spare integer multiplier/dividers ("+1 Mult").
    pub fn with_spare_int_muldivs(mut self, n: u32) -> ReeseConfig {
        self.pipeline.fu.int_muldiv += n;
        self
    }

    /// Sets the functional-unit counts outright.
    pub fn with_fu(mut self, fu: FuCounts) -> ReeseConfig {
        self.pipeline.fu = fu;
        self
    }

    /// Sets the partial-duplication period (`1` = every instruction).
    pub fn with_duplication_period(mut self, k: u64) -> ReeseConfig {
        self.duplication_period = k;
        self
    }

    /// Selects the cycle-loop scheduler implementation (results are
    /// bit-identical either way; see
    /// [`reese_pipeline::SchedulerMode`]).
    pub fn with_scheduler(mut self, mode: SchedulerMode) -> ReeseConfig {
        self.pipeline.scheduler = mode;
        self
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline config is invalid, the R-queue is empty or
    /// smaller than the high-water mark, or the duplication period is 0.
    pub fn validate(&self) {
        self.pipeline.validate();
        assert!(self.rqueue_size > 0, "R-stream Queue must be non-empty");
        assert!(
            (1..=self.rqueue_size).contains(&self.high_water),
            "high-water mark must be within the queue"
        );
        assert!(self.r_issue_lookahead > 0, "lookahead must be positive");
        assert!(
            self.duplication_period > 0,
            "duplication period must be positive"
        );
    }
}

impl Default for ReeseConfig {
    fn default() -> Self {
        ReeseConfig::starting()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starting_defaults() {
        let c = ReeseConfig::starting();
        assert_eq!(c.rqueue_size, 32);
        assert_eq!(c.high_water, 24, "width 8 below the cap");
        assert_eq!(c.duplication_period, 1);
        c.validate();
    }

    #[test]
    fn spares_add_to_pipeline_counts() {
        let c = ReeseConfig::starting()
            .with_spare_int_alus(2)
            .with_spare_int_muldivs(1);
        assert_eq!(c.pipeline.fu.int_alu, 6);
        assert_eq!(c.pipeline.fu.int_muldiv, 2);
        c.validate();
    }

    #[test]
    fn rqueue_resize_moves_high_water() {
        let c = ReeseConfig::starting().with_rqueue_size(64);
        assert_eq!(c.rqueue_size, 64);
        assert_eq!(c.high_water, 56);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "duplication period")]
    fn zero_duplication_rejected() {
        ReeseConfig::starting()
            .with_duplication_period(0)
            .validate();
    }

    #[test]
    fn scheduler_knob_reaches_pipeline() {
        let c = ReeseConfig::starting().with_scheduler(SchedulerMode::Scan);
        assert_eq!(c.pipeline.scheduler, SchedulerMode::Scan);
        c.validate();
    }

    #[test]
    fn over_wide_machine() {
        let c = ReeseConfig::over(PipelineConfig::starting().with_width(16));
        c.validate();
        assert_eq!(c.high_water, 16);
    }
}
