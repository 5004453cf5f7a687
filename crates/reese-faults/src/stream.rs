//! Streaming campaign logs: a JSONL file with one header line
//! identifying the campaign and one line per trial outcome.
//!
//! The log is the bounded-memory spine of large campaigns: each
//! outcome appends as one self-contained line, partial logs are valid
//! (a campaign interrupted after N trials has a header plus N lines),
//! and `--resume` replays the recorded outcomes instead of
//! recomputing them. The header pins everything the outcomes are a
//! pure function of — seed, trial count, fault mix, checkpoint
//! interval, instruction cap, configuration fingerprint, and the
//! reference run's length/cycles/digest — so resuming against the
//! wrong program or settings fails loudly instead of stitching two
//! different campaigns together. The trial *engine* is deliberately
//! not recorded: Full and Replay produce byte-identical outcomes (the
//! oracle contract), so a log written by one arm resumes under the
//! other.

use crate::engine::window_ceiling;
use crate::{CampaignError, FaultClass, TrialOutcome};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

/// FNV-1a over a byte string; fingerprints the campaign configuration.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The header line: every input the trial outcomes are a pure
/// function of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LogHeader {
    pub seed: u64,
    pub trials: u64,
    pub mix: [u32; 5],
    pub ckpt_every: u64,
    pub max_instructions: u64,
    pub config_fnv: u64,
    pub dynamic_len: u64,
    pub clean_cycles: u64,
    pub clean_digest: u64,
}

impl LogHeader {
    pub fn to_line(self) -> String {
        format!(
            "{{\"reese_campaign_log\": 1, \"seed\": {}, \"trials\": {}, \
             \"mix\": [{}, {}, {}, {}, {}], \"ckpt_every\": {}, \
             \"max_instructions\": {}, \"config_fnv\": {}, \
             \"dynamic_len\": {}, \"clean_cycles\": {}, \"clean_digest\": {}}}",
            self.seed,
            self.trials,
            self.mix[0],
            self.mix[1],
            self.mix[2],
            self.mix[3],
            self.mix[4],
            self.ckpt_every,
            self.max_instructions,
            self.config_fnv,
            self.dynamic_len,
            self.clean_cycles,
            self.clean_digest,
        )
    }

    pub fn parse(line: &str) -> Result<LogHeader, String> {
        let version = json_u64(line, "reese_campaign_log")
            .ok_or_else(|| "not a reese campaign log (missing header)".to_string())?;
        if version != 1 {
            return Err(format!("unsupported campaign log version {version}"));
        }
        let field = |key: &str| {
            json_u64(line, key).ok_or_else(|| format!("header is missing field `{key}`"))
        };
        let mix_raw = json_array_u64(line, "mix")
            .ok_or_else(|| "header is missing field `mix`".to_string())?;
        if mix_raw.len() != 5 {
            return Err(format!(
                "header mix has {} weights, expected 5",
                mix_raw.len()
            ));
        }
        let mut mix = [0u32; 5];
        for (slot, &w) in mix.iter_mut().zip(&mix_raw) {
            *slot = u32::try_from(w).map_err(|_| format!("mix weight {w} out of range"))?;
        }
        // Windows are planned in steps of the checkpoint interval.
        let ckpt_every = field("ckpt_every")?;
        if ckpt_every == 0 {
            return Err("header field `ckpt_every` is 0, expected at least 1".into());
        }
        let dynamic_len = field("dynamic_len")?;
        if window_ceiling(dynamic_len, ckpt_every).is_none() {
            return Err(format!(
                "header field `ckpt_every` is {ckpt_every}, too large for dynamic \
                 length {dynamic_len}: the final window's ceiling overflows"
            ));
        }
        Ok(LogHeader {
            seed: field("seed")?,
            trials: field("trials")?,
            mix,
            ckpt_every,
            max_instructions: field("max_instructions")?,
            config_fnv: field("config_fnv")?,
            dynamic_len,
            clean_cycles: field("clean_cycles")?,
            clean_digest: field("clean_digest")?,
        })
    }

    /// Checks a recorded header against the campaign being resumed,
    /// naming the first mismatching field.
    pub fn expect_matches(&self, expected: &LogHeader) -> Result<(), String> {
        let fields: [(&str, u64, u64); 8] = [
            ("seed", self.seed, expected.seed),
            ("trials", self.trials, expected.trials),
            ("ckpt_every", self.ckpt_every, expected.ckpt_every),
            (
                "max_instructions",
                self.max_instructions,
                expected.max_instructions,
            ),
            ("config_fnv", self.config_fnv, expected.config_fnv),
            ("dynamic_len", self.dynamic_len, expected.dynamic_len),
            ("clean_cycles", self.clean_cycles, expected.clean_cycles),
            ("clean_digest", self.clean_digest, expected.clean_digest),
        ];
        for (name, recorded, wanted) in fields {
            if recorded != wanted {
                return Err(format!(
                    "`{name}` is {recorded} in the log but {wanted} in this campaign"
                ));
            }
        }
        if self.mix != expected.mix {
            return Err(format!(
                "`mix` is {:?} in the log but {:?} in this campaign",
                self.mix, expected.mix
            ));
        }
        Ok(())
    }
}

/// The stable, resume-safe identifier of one trial: an FNV-1a over the
/// campaign seed and the trial index. Unlike the bare line position in
/// the log (the old implicit-ordering assumption), the id survives
/// out-of-order appends, interleaved resume runs, and identifies which
/// campaign a line belongs to — `reese explain` addresses a trial by
/// it.
pub fn trial_id(seed: u64, trial: usize) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..].copy_from_slice(&(trial as u64).to_le_bytes());
    fnv1a64(&bytes)
}

/// One outcome as a JSONL line (no trailing newline).
pub(crate) fn outcome_line(seed: u64, trial: usize, o: &TrialOutcome) -> String {
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    format!(
        "{{\"trial\": {trial}, \"id\": {}, \"class\": \"{}\", \"seq\": {}, \"bit\": {}, \
         \"detected\": {}, \"detection_latency\": {}, \
         \"extra_cycles\": {}, \"state_clean\": {}, \
         \"inject_cycle\": {}, \"diverge_cycle\": {}, \"detect_cycle\": {}}}",
        trial_id(seed, trial),
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
}

/// Parses one outcome line back, losslessly. The middle element is the
/// recorded stable id, `None` on logs written before ids existed (the
/// optional-field scanners also treat the cycle fields as absent on
/// such logs).
pub(crate) fn parse_outcome_line(line: &str) -> Result<(usize, Option<u64>, TrialOutcome), String> {
    let field =
        |key: &str| json_u64(line, key).ok_or_else(|| format!("outcome is missing `{key}`"));
    let flag =
        |key: &str| json_bool(line, key).ok_or_else(|| format!("outcome is missing `{key}`"));
    let trial = usize::try_from(field("trial")?).map_err(|_| "trial out of range".to_string())?;
    let class_name =
        json_str(line, "class").ok_or_else(|| "outcome is missing `class`".to_string())?;
    let class = FaultClass::from_name(&class_name)
        .ok_or_else(|| format!("unknown fault class `{class_name}`"))?;
    // Injection flips one of a 64-bit value's bits; a larger bit would
    // be masked to a different fault than the line names.
    let bit = field("bit")?;
    let bit = u8::try_from(bit)
        .ok()
        .filter(|&b| b < 64)
        .ok_or_else(|| format!("bit {bit} out of range 0..64"))?;
    Ok((
        trial,
        json_u64(line, "id"),
        TrialOutcome {
            class,
            seq: field("seq")?,
            bit,
            detected: flag("detected")?,
            detection_latency: json_u64(line, "detection_latency"),
            extra_cycles: field("extra_cycles")?,
            state_clean: flag("state_clean")?,
            inject_cycle: json_u64(line, "inject_cycle"),
            diverge_cycle: json_u64(line, "diverge_cycle"),
            detect_cycle: json_u64(line, "detect_cycle"),
        },
    ))
}

/// Reads a campaign log: its header and its recorded outcomes, keyed by
/// trial index. With `expected` (a resume), the header must match it in
/// every field but the clean run's cycles and digest, which the caller
/// checks with [`LogHeader::expect_matches`] once its clean run is done.
/// Without (the forensics path), the log is its own source of truth for
/// seed, mix, and window geometry. Trial indices and ids are checked
/// against the expected seed and trial count either way.
pub(crate) fn read_log(
    path: &Path,
    expected: Option<&LogHeader>,
) -> Result<(LogHeader, BTreeMap<usize, TrialOutcome>), CampaignError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CampaignError::Io(format!("reading {}: {e}", path.display())))?;
    let mut lines = text.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| CampaignError::Resume(format!("{} is empty", path.display())))?;
    let header = LogHeader::parse(header_line).map_err(CampaignError::Resume)?;
    let expected = match expected {
        Some(e) => LogHeader {
            clean_cycles: header.clean_cycles,
            clean_digest: header.clean_digest,
            ..*e
        },
        None => header,
    };
    header
        .expect_matches(&expected)
        .map_err(CampaignError::Resume)?;
    let mut recorded = BTreeMap::new();
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (trial, id, outcome) = parse_outcome_line(line)
            .map_err(|m| CampaignError::Resume(format!("line {}: {m}", i + 2)))?;
        if trial as u64 >= expected.trials {
            return Err(CampaignError::Resume(format!(
                "line {}: trial {trial} is out of range for {} trials",
                i + 2,
                expected.trials
            )));
        }
        // A fault targets an instruction the clean run executes.
        if outcome.seq >= expected.dynamic_len {
            return Err(CampaignError::Resume(format!(
                "line {}: seq {} is out of range for dynamic length {}",
                i + 2,
                outcome.seq,
                expected.dynamic_len
            )));
        }
        if let Some(id) = id {
            let want = trial_id(expected.seed, trial);
            if id != want {
                return Err(CampaignError::Resume(format!(
                    "line {}: trial {trial} carries id {id} but this campaign's \
                     seed assigns {want} — the line belongs to a different campaign",
                    i + 2
                )));
            }
        }
        if recorded.insert(trial, outcome).is_some() {
            return Err(CampaignError::Resume(format!(
                "line {}: trial {trial} is recorded twice",
                i + 2
            )));
        }
    }
    Ok((header, recorded))
}

/// Per-trial appending writer over a campaign log.
pub(crate) struct LogWriter {
    out: BufWriter<File>,
    path: String,
}

impl LogWriter {
    /// Creates (truncating) a fresh log; the caller writes the header
    /// line first.
    pub fn create(path: &Path) -> Result<LogWriter, CampaignError> {
        let file = File::create(path)
            .map_err(|e| CampaignError::Io(format!("creating {}: {e}", path.display())))?;
        Ok(LogWriter {
            out: BufWriter::new(file),
            path: path.display().to_string(),
        })
    }

    /// Opens an existing log for appending (after [`read_log`]
    /// validated it).
    pub fn append(path: &Path) -> Result<LogWriter, CampaignError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| CampaignError::Io(format!("opening {}: {e}", path.display())))?;
        Ok(LogWriter {
            out: BufWriter::new(file),
            path: path.display().to_string(),
        })
    }

    /// Appends one line and flushes, so an interrupted campaign keeps
    /// every completed trial.
    pub fn line(&mut self, line: &str) -> Result<(), CampaignError> {
        writeln!(self.out, "{line}")
            .and_then(|()| self.out.flush())
            .map_err(|e| CampaignError::Io(format!("writing {}: {e}", self.path)))
    }
}

// ---- Minimal JSON field scanners -----------------------------------
//
// The log is machine-written with a fixed shape (the project is
// std-only), so these scan for `"key":` and read one scalar; they are
// not a general JSON parser.

fn find_value(line: &str, key: &str) -> Option<usize> {
    let mut pat = String::with_capacity(key.len() + 3);
    let _ = write!(pat, "\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    Some(at + line[at..].len() - line[at..].trim_start().len())
}

fn json_u64(line: &str, key: &str) -> Option<u64> {
    let at = find_value(line, key)?;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn json_bool(line: &str, key: &str) -> Option<bool> {
    let at = find_value(line, key)?;
    let rest = &line[at..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

fn json_str(line: &str, key: &str) -> Option<String> {
    let at = find_value(line, key)?;
    let rest = line[at..].strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn json_array_u64(line: &str, key: &str) -> Option<Vec<u64>> {
    let at = find_value(line, key)?;
    let rest = line[at..].strip_prefix('[')?;
    let body = &rest[..rest.find(']')?];
    body.split(',')
        .map(|s| s.trim().parse().ok())
        .collect::<Option<Vec<u64>>>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> LogHeader {
        LogHeader {
            seed: 7,
            trials: 24,
            mix: [4, 4, 1, 2, 1],
            ckpt_every: 2048,
            max_instructions: u64::MAX,
            config_fnv: 0xDEAD_BEEF,
            dynamic_len: 122,
            clean_cycles: 456,
            clean_digest: 789,
        }
    }

    #[test]
    fn header_round_trips() {
        let h = header();
        assert_eq!(LogHeader::parse(&h.to_line()).unwrap(), h);
    }

    #[test]
    fn header_max_u64_round_trips() {
        let h = header();
        let parsed = LogHeader::parse(&h.to_line()).unwrap();
        assert_eq!(parsed.max_instructions, u64::MAX);
    }

    #[test]
    fn header_mismatch_names_the_field() {
        let h = header();
        let other = LogHeader { seed: 9, ..h };
        let err = h.expect_matches(&other).unwrap_err();
        assert!(err.contains("`seed` is 7 in the log but 9"), "{err}");
        let other = LogHeader {
            mix: [1, 1, 0, 0, 0],
            ..h
        };
        assert!(h.expect_matches(&other).unwrap_err().contains("`mix`"));
    }

    #[test]
    fn non_log_header_rejected() {
        let err = LogHeader::parse("{\"trials\": 3}").unwrap_err();
        assert!(err.contains("not a reese campaign log"), "{err}");
        // No window can be planned on a zero checkpoint interval.
        let zero = LogHeader {
            ckpt_every: 0,
            ..header()
        };
        let err = LogHeader::parse(&zero.to_line()).unwrap_err();
        assert!(err.contains("`ckpt_every` is 0"), "{err}");
        // Nor on one whose final window's ceiling overflows.
        let huge = LogHeader {
            ckpt_every: u64::MAX,
            ..header()
        };
        let err = LogHeader::parse(&huge.to_line()).unwrap_err();
        assert!(err.contains("ceiling overflows"), "{err}");
    }

    #[test]
    fn outcome_round_trips() {
        for o in [
            TrialOutcome {
                class: FaultClass::PrimaryResult,
                seq: 5,
                bit: 63,
                detected: true,
                detection_latency: Some(12),
                extra_cycles: 30,
                state_clean: true,
                inject_cycle: Some(40),
                diverge_cycle: None,
                detect_cycle: Some(52),
            },
            TrialOutcome {
                class: FaultClass::CacheCell,
                seq: u64::MAX - 1,
                bit: 0,
                detected: false,
                detection_latency: None,
                extra_cycles: 0,
                state_clean: false,
                inject_cycle: None,
                diverge_cycle: None,
                detect_cycle: None,
            },
        ] {
            let (trial, id, back) = parse_outcome_line(&outcome_line(7, 3, &o)).unwrap();
            assert_eq!(trial, 3);
            assert_eq!(id, Some(trial_id(7, 3)));
            assert_eq!(back, o);
        }
    }

    #[test]
    fn outcome_line_matches_report_json_row_shape() {
        let o = TrialOutcome {
            class: FaultClass::RedundantResult,
            seq: 1,
            bit: 2,
            detected: false,
            detection_latency: None,
            extra_cycles: 0,
            state_clean: true,
            inject_cycle: None,
            diverge_cycle: None,
            detect_cycle: None,
        };
        let line = outcome_line(7, 0, &o);
        assert!(line.contains("\"detection_latency\": null"), "{line}");
        assert!(line.contains("\"class\": \"r-result\""), "{line}");
        assert!(line.contains("\"inject_cycle\": null"), "{line}");
    }

    #[test]
    fn trial_ids_are_stable_and_campaign_specific() {
        assert_eq!(trial_id(7, 3), trial_id(7, 3), "pure function");
        assert_ne!(trial_id(7, 3), trial_id(7, 4), "index-sensitive");
        assert_ne!(trial_id(7, 3), trial_id(8, 3), "seed-sensitive");
    }

    #[test]
    fn pre_id_log_lines_still_parse() {
        // A line written before ids and cycle fields existed.
        let line = "{\"trial\": 2, \"class\": \"p-result\", \"seq\": 9, \"bit\": 1, \
                    \"detected\": true, \"detection_latency\": 4, \
                    \"extra_cycles\": 8, \"state_clean\": true}";
        let (trial, id, o) = parse_outcome_line(line).unwrap();
        assert_eq!(trial, 2);
        assert_eq!(id, None);
        assert_eq!(o.detection_latency, Some(4));
        assert_eq!(o.inject_cycle, None);
    }

    #[test]
    fn garbage_outcome_line_rejected() {
        assert!(parse_outcome_line("{\"trial\": 0}").is_err());
        assert!(parse_outcome_line("not json").is_err());
    }

    #[test]
    fn foreign_id_is_rejected_by_read_log() {
        let h = header();
        let o = TrialOutcome {
            class: FaultClass::PrimaryResult,
            seq: 1,
            bit: 1,
            detected: true,
            detection_latency: Some(3),
            extra_cycles: 5,
            state_clean: true,
            inject_cycle: None,
            diverge_cycle: None,
            detect_cycle: None,
        };
        let dir = std::env::temp_dir().join(format!("reese-id-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        // Line written under a different seed: same trial index, wrong id.
        let foreign = outcome_line(h.seed + 1, 0, &o);
        std::fs::write(&path, format!("{}\n{foreign}\n", h.to_line())).unwrap();
        let err = read_log(&path, Some(&h)).unwrap_err().to_string();
        assert!(err.contains("different campaign"), "{err}");
        // The same line under the right seed reads back fine.
        std::fs::write(
            &path,
            format!("{}\n{}\n", h.to_line(), outcome_line(h.seed, 0, &o)),
        )
        .unwrap();
        let (_, recorded) = read_log(&path, Some(&h)).unwrap();
        assert_eq!(recorded.len(), 1);
        // A fault past the end of the program, with or without a
        // header to check against.
        for seq in [h.dynamic_len, u64::MAX] {
            let line = outcome_line(h.seed, 0, &TrialOutcome { seq, ..o });
            std::fs::write(&path, format!("{}\n{line}\n", h.to_line())).unwrap();
            for expected in [Some(&h), None] {
                let err = read_log(&path, expected).unwrap_err();
                assert!(matches!(err, CampaignError::Resume(_)), "{err}");
                let want = format!("line 2: seq {seq} is out of range for dynamic length 122");
                assert!(err.to_string().contains(&want), "{err}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
