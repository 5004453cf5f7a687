//! Campaign results and coverage reports.

use crate::FaultClass;
use reese_stats::{Histogram, ParallelStats};
use reese_trace::MetricsSeries;
use std::collections::BTreeMap;
use std::fmt;

/// Unit-width buckets in a detection-latency histogram; latencies at or
/// above this land in the overflow bucket. REESE-style compare-at-head
/// latencies are tens of cycles, so the distribution body fits easily.
pub const LATENCY_HISTOGRAM_CAP: usize = 256;

/// The outcome of one injection trial.
///
/// The three `*_cycle` fields are **window-relative**: cycle 0 is the
/// first cycle after the trial's anchor checkpoint is restored, so the
/// values are identical under the Full and Replay engines (both run the
/// same anchored window from the same boundary). They are `None` when
/// the quantity was not observable — the faulted instruction never
/// committed inside the window, the scheme squashed the corruption
/// before it reached architectural state, or the trial was scored
/// analytically without simulation (modeled-undetectable classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialOutcome {
    /// The class of fault injected.
    pub class: FaultClass,
    /// Dynamic instruction targeted.
    pub seq: u64,
    /// Bit position flipped.
    pub bit: u8,
    /// Whether the P/R comparison caught it.
    pub detected: bool,
    /// Cycles from corruption to detection, when detected.
    pub detection_latency: Option<u64>,
    /// Extra cycles the run took versus a clean run (recovery cost).
    pub extra_cycles: u64,
    /// Whether the final architectural state matched the clean run.
    pub state_clean: bool,
    /// Window-relative cycle the corrupted value entered the machine.
    pub inject_cycle: Option<u64>,
    /// Window-relative cycle the corruption first became architectural
    /// (the faulted instruction's commit, for schemes that let it
    /// commit before checking).
    pub diverge_cycle: Option<u64>,
    /// Window-relative cycle the detecting comparison (or trap) fired.
    pub detect_cycle: Option<u64>,
}

/// Aggregated results of a fault-injection campaign.
///
/// # Example
///
/// ```
/// use reese_faults::{CoverageReport, FaultClass, TrialOutcome};
///
/// let mut r = CoverageReport::new(1000);
/// r.record(TrialOutcome {
///     class: FaultClass::PrimaryResult,
///     seq: 5,
///     bit: 3,
///     detected: true,
///     detection_latency: Some(12),
///     extra_cycles: 30,
///     state_clean: true,
///     inject_cycle: Some(100),
///     diverge_cycle: None,
///     detect_cycle: Some(112),
/// });
/// assert_eq!(r.coverage(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// All trial outcomes, in order.
    pub outcomes: Vec<TrialOutcome>,
    /// Detected count.
    pub detected: u64,
    /// Cycles of the fault-free reference run.
    pub clean_cycles: u64,
    /// Wall-clock/throughput observability for the campaign run, when
    /// one produced this report. Excluded from equality: two runs of
    /// the same seeded campaign are *the same report* however long they
    /// took or however many workers they used.
    pub throughput: Option<ParallelStats>,
    /// Per-interval metrics pooled row-by-row across every simulated
    /// trial, when the campaign sampled them. Observability only —
    /// excluded from equality like `throughput`.
    pub metrics: Option<MetricsSeries>,
}

/// Equality is over the scientific content (outcomes and reference
/// cycles) only — never over wall-clock observability.
impl PartialEq for CoverageReport {
    fn eq(&self, other: &Self) -> bool {
        self.outcomes == other.outcomes
            && self.detected == other.detected
            && self.clean_cycles == other.clean_cycles
    }
}

impl CoverageReport {
    /// Creates an empty report for a reference run of `clean_cycles`.
    pub fn new(clean_cycles: u64) -> CoverageReport {
        CoverageReport {
            outcomes: Vec::new(),
            detected: 0,
            clean_cycles,
            throughput: None,
            metrics: None,
        }
    }

    /// Records one trial.
    pub fn record(&mut self, outcome: TrialOutcome) {
        if outcome.detected {
            self.detected += 1;
        }
        self.outcomes.push(outcome);
    }

    /// Number of trials recorded.
    pub fn trials(&self) -> usize {
        self.outcomes.len()
    }

    /// Fraction of trials detected, in `[0, 1]`; 0 for an empty report.
    pub fn coverage(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.detected as f64 / self.outcomes.len() as f64
        }
    }

    /// (detected, total) for one fault class.
    pub fn by_class(&self, class: FaultClass) -> (u64, u64) {
        let mut det = 0;
        let mut total = 0;
        for o in &self.outcomes {
            if o.class == class {
                total += 1;
                if o.detected {
                    det += 1;
                }
            }
        }
        (det, total)
    }

    /// Mean detection latency over detected trials; 0 when none.
    pub fn mean_detection_latency(&self) -> f64 {
        let lats: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(|o| o.detection_latency)
            .map(|l| l as f64)
            .collect();
        reese_stats::mean(&lats)
    }

    /// Mean recovery cost in cycles over detected trials; 0 when none.
    pub fn mean_recovery_cycles(&self) -> f64 {
        let costs: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.detected)
            .map(|o| o.extra_cycles as f64)
            .collect();
        reese_stats::mean(&costs)
    }

    /// Whether every trial ended with clean architectural state.
    pub fn all_states_clean(&self) -> bool {
        self.outcomes.iter().all(|o| o.state_clean)
    }

    /// Detection latencies over detected trials, sorted ascending.
    fn sorted_latencies(&self) -> Vec<u64> {
        let mut lats: Vec<u64> = self
            .outcomes
            .iter()
            .filter_map(|o| o.detection_latency)
            .collect();
        lats.sort_unstable();
        lats
    }

    /// The `num/den` quantile of detection latency over detected trials
    /// (nearest-rank on the sorted sample, index `(n-1)*num/den` — the
    /// same integer convention the schemes report has always used for
    /// p90), or `None` when nothing was detected.
    pub fn latency_percentile(&self, num: usize, den: usize) -> Option<u64> {
        let lats = self.sorted_latencies();
        if lats.is_empty() {
            None
        } else {
            Some(lats[(lats.len() - 1) * num / den])
        }
    }

    /// Detection-latency histogram over every detected trial:
    /// unit-width buckets up to [`LATENCY_HISTOGRAM_CAP`] cycles plus
    /// an overflow bucket.
    pub fn latency_histogram(&self) -> Histogram {
        let mut h = Histogram::new("detection_latency", LATENCY_HISTOGRAM_CAP);
        for o in &self.outcomes {
            if let Some(l) = o.detection_latency {
                h.record(l);
            }
        }
        h
    }

    /// Per-fault-class detection-latency histograms, for classes with
    /// at least one detection, in [`FaultClass::ALL`] order. The fault
    /// class is the corrupted-structure axis: each class names the
    /// structure the bit was flipped in (result bus, compare queue,
    /// cache cell, pipeline control).
    pub fn latency_histograms_by_class(&self) -> Vec<(FaultClass, Histogram)> {
        FaultClass::ALL
            .into_iter()
            .filter_map(|class| {
                let mut h = Histogram::new(class.name(), LATENCY_HISTOGRAM_CAP);
                for o in &self.outcomes {
                    if o.class == class {
                        if let Some(l) = o.detection_latency {
                            h.record(l);
                        }
                    }
                }
                (h.samples() > 0).then_some((class, h))
            })
            .collect()
    }

    /// Per-class (detected, total) table.
    pub fn class_table(&self) -> BTreeMap<String, (u64, u64)> {
        let mut t = BTreeMap::new();
        for c in FaultClass::ALL {
            let (d, n) = self.by_class(c);
            if n > 0 {
                t.insert(c.to_string(), (d, n));
            }
        }
        t
    }

    /// Serialises every trial as CSV with a header row: one line per
    /// outcome, in campaign order. Unobserved optional fields
    /// (`detection_latency` and the three window-relative cycle
    /// columns) are empty. Class names contain no commas or quotes, so
    /// no RFC-4180 quoting is ever needed.
    pub fn to_csv(&self) -> String {
        fn opt(v: Option<u64>) -> String {
            v.map_or(String::new(), |v| v.to_string())
        }
        let mut out = String::from(
            "trial,class,seq,bit,detected,detection_latency,extra_cycles,state_clean,inject_cycle,diverge_cycle,detect_cycle\n",
        );
        for (i, o) in self.outcomes.iter().enumerate() {
            out.push_str(&format!(
                "{i},{},{},{},{},{},{},{},{},{},{}\n",
                o.class,
                o.seq,
                o.bit,
                o.detected,
                opt(o.detection_latency),
                o.extra_cycles,
                o.state_clean,
                opt(o.inject_cycle),
                opt(o.diverge_cycle),
                opt(o.detect_cycle)
            ));
        }
        out
    }

    /// Serialises the report — summary aggregates, the per-class table,
    /// and every outcome — as a JSON object. Hand-rolled (the project is
    /// std-only): every value is a number, boolean, null, or a class
    /// name that needs no escaping.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"trials\": {},\n", self.trials()));
        out.push_str(&format!("  \"detected\": {},\n", self.detected));
        out.push_str(&format!("  \"coverage\": {:.6},\n", self.coverage()));
        out.push_str(&format!("  \"clean_cycles\": {},\n", self.clean_cycles));
        out.push_str(&format!(
            "  \"mean_detection_latency\": {:.3},\n",
            self.mean_detection_latency()
        ));
        out.push_str(&format!(
            "  \"mean_recovery_cycles\": {:.3},\n",
            self.mean_recovery_cycles()
        ));
        out.push_str(&format!(
            "  \"all_states_clean\": {},\n",
            self.all_states_clean()
        ));
        let pct = |num, den| {
            self.latency_percentile(num, den)
                .map_or_else(|| "null".to_string(), |v| v.to_string())
        };
        out.push_str(&format!(
            "  \"latency_p50\": {}, \"latency_p90\": {}, \"latency_p99\": {},\n",
            pct(1, 2),
            pct(9, 10),
            pct(99, 100)
        ));
        out.push_str(&format!(
            "  \"latency_histogram\": {},\n",
            histogram_json(&self.latency_histogram())
        ));
        out.push_str("  \"latency_by_class\": {");
        let class_hists: Vec<String> = self
            .latency_histograms_by_class()
            .into_iter()
            .map(|(class, h)| format!("\"{class}\": {}", histogram_json(&h)))
            .collect();
        out.push_str(&class_hists.join(", "));
        out.push_str("},\n");
        out.push_str("  \"by_class\": {");
        let classes: Vec<String> = self
            .class_table()
            .into_iter()
            .map(|(name, (d, n))| format!("\"{name}\": {{\"detected\": {d}, \"total\": {n}}}"))
            .collect();
        out.push_str(&classes.join(", "));
        out.push_str("},\n");
        out.push_str("  \"outcomes\": [\n");
        let rows: Vec<String> = self
            .outcomes
            .iter()
            .map(|o| {
                let opt = |v: Option<u64>| {
                    v.map_or_else(|| "null".to_string(), |v| v.to_string())
                };
                format!(
                    "    {{\"class\": \"{}\", \"seq\": {}, \"bit\": {}, \"detected\": {}, \"detection_latency\": {}, \"extra_cycles\": {}, \"state_clean\": {}, \"inject_cycle\": {}, \"diverge_cycle\": {}, \"detect_cycle\": {}}}",
                    o.class,
                    o.seq,
                    o.bit,
                    o.detected,
                    opt(o.detection_latency),
                    o.extra_cycles,
                    o.state_clean,
                    opt(o.inject_cycle),
                    opt(o.diverge_cycle),
                    opt(o.detect_cycle)
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Serialises a histogram as a compact JSON object with sparse buckets
/// (only non-empty unit buckets appear, keyed by cycle count).
pub(crate) fn histogram_json(h: &Histogram) -> String {
    let mut buckets: Vec<String> = Vec::new();
    for v in 0..LATENCY_HISTOGRAM_CAP as u64 {
        let n = h.count(v);
        if n > 0 {
            buckets.push(format!("\"{v}\": {n}"));
        }
    }
    format!(
        "{{\"samples\": {}, \"mean\": {:.3}, \"max\": {}, \"overflow\": {}, \"buckets\": {{{}}}}}",
        h.samples(),
        h.mean(),
        h.max(),
        h.overflow(),
        buckets.join(", ")
    )
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "coverage: {}/{} ({:.1}%), mean detection latency {:.1} cycles, mean recovery {:.1} cycles",
            self.detected,
            self.trials(),
            self.coverage() * 100.0,
            self.mean_detection_latency(),
            self.mean_recovery_cycles(),
        )?;
        for (name, (d, n)) in self.class_table() {
            writeln!(f, "  {name:<18} {d}/{n}")?;
        }
        if self.detected > 0 {
            let p = |num, den| self.latency_percentile(num, den).unwrap_or(0);
            writeln!(
                f,
                "detection latency CDF: p50 {} / p90 {} / p99 {} / max {} cycles over {} detections",
                p(1, 2),
                p(9, 10),
                p(99, 100),
                self.latency_histogram().max(),
                self.detected
            )?;
        }
        if let Some(t) = &self.throughput {
            writeln!(f, "throughput: {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(class: FaultClass, detected: bool) -> TrialOutcome {
        TrialOutcome {
            class,
            seq: 0,
            bit: 0,
            detected,
            detection_latency: detected.then_some(10),
            extra_cycles: if detected { 20 } else { 0 },
            state_clean: true,
            inject_cycle: detected.then_some(100),
            diverge_cycle: None,
            detect_cycle: detected.then_some(110),
        }
    }

    #[test]
    fn coverage_math() {
        let mut r = CoverageReport::new(100);
        r.record(outcome(FaultClass::PrimaryResult, true));
        r.record(outcome(FaultClass::CacheCell, false));
        assert_eq!(r.trials(), 2);
        assert!((r.coverage() - 0.5).abs() < 1e-12);
        assert_eq!(r.by_class(FaultClass::PrimaryResult), (1, 1));
        assert_eq!(r.by_class(FaultClass::CacheCell), (0, 1));
        assert_eq!(r.by_class(FaultClass::PostCompare), (0, 0));
    }

    #[test]
    fn latency_and_recovery_means() {
        let mut r = CoverageReport::new(100);
        r.record(outcome(FaultClass::PrimaryResult, true));
        r.record(outcome(FaultClass::RedundantResult, true));
        assert!((r.mean_detection_latency() - 10.0).abs() < 1e-12);
        assert!((r.mean_recovery_cycles() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = CoverageReport::new(0);
        assert_eq!(r.coverage(), 0.0);
        assert_eq!(r.mean_detection_latency(), 0.0);
        assert!(r.all_states_clean());
    }

    #[test]
    fn csv_round_trips_fields() {
        let mut r = CoverageReport::new(100);
        r.record(outcome(FaultClass::PrimaryResult, true));
        r.record(outcome(FaultClass::CacheCell, false));
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 trials");
        assert_eq!(
            lines[0],
            "trial,class,seq,bit,detected,detection_latency,extra_cycles,state_clean,inject_cycle,diverge_cycle,detect_cycle"
        );
        assert_eq!(lines[1], "0,p-result,0,0,true,10,20,true,100,,110");
        assert_eq!(lines[2], "1,cache-cell,0,0,false,,0,true,,,");
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let mut r = CoverageReport::new(100);
        r.record(outcome(FaultClass::PrimaryResult, true));
        r.record(outcome(FaultClass::CacheCell, false));
        let json = r.to_json();
        // Balanced braces/brackets (no string values contain them).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"trials\": 2"));
        assert!(json.contains("\"coverage\": 0.500000"));
        assert!(json.contains("\"detection_latency\": null"));
        assert!(json.contains("\"p-result\": {\"detected\": 1, \"total\": 1}"));
        assert!(json.contains("\"inject_cycle\": 100"));
        assert!(json.contains("\"diverge_cycle\": null"));
        assert!(json.contains("\"latency_histogram\": {\"samples\": 1"));
        assert!(json.contains("\"buckets\": {\"10\": 1}"));
        assert!(json.contains("\"latency_p50\": 10"));
    }

    #[test]
    fn latency_histogram_and_percentiles() {
        let mut r = CoverageReport::new(100);
        for lat in [5u64, 5, 7, 300] {
            let mut o = outcome(FaultClass::PrimaryResult, true);
            o.detection_latency = Some(lat);
            r.record(o);
        }
        r.record(outcome(FaultClass::CacheCell, false));
        let h = r.latency_histogram();
        assert_eq!(h.samples(), 4);
        assert_eq!(h.count(5), 2);
        assert_eq!(h.overflow(), 1, "latency 300 overflows the cap");
        assert_eq!(h.max(), 300);
        assert_eq!(r.latency_percentile(1, 2), Some(5));
        assert_eq!(r.latency_percentile(99, 100), Some(7));
        let by_class = r.latency_histograms_by_class();
        assert_eq!(by_class.len(), 1, "only classes with detections");
        assert_eq!(by_class[0].0, FaultClass::PrimaryResult);
        assert_eq!(by_class[0].1.samples(), 4);
        assert!(CoverageReport::new(0).latency_percentile(1, 2).is_none());
    }

    #[test]
    fn empty_report_serialises() {
        let r = CoverageReport::new(0);
        assert_eq!(r.to_csv().lines().count(), 1, "header only");
        assert!(r.to_json().contains("\"outcomes\": [\n\n  ]"));
    }

    #[test]
    fn display_contains_classes() {
        let mut r = CoverageReport::new(100);
        r.record(outcome(FaultClass::PrimaryResult, true));
        let s = r.to_string();
        assert!(s.contains("p-result"));
        assert!(s.contains("100.0%"));
    }
}
