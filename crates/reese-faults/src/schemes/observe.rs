//! Trace probes the off-core schemes attach to the baseline pipeline.

use super::meek::CheckerBank;
use reese_trace::{CycleState, Observer, Stage, TraceEvent};

/// What a probe latches about one watched dynamic instruction.
#[derive(Debug, Clone, Copy, Default)]
struct Watched {
    /// Its first writeback cycle.
    first_writeback: Option<u64>,
    /// Its pc and commit cycle.
    commit: Option<(u64, u64)>,
    /// The cycle the checker bank finished checking it.
    checked: Option<u64>,
}

/// Keeps what the off-core schemes' scorers read of a window's commit
/// stream, and nothing else, so its size does not grow with the
/// window.
///
/// For each dynamic instruction it watches ([`CommitProbe::watch`]) it
/// latches the first writeback cycle (the cycle an architecturally
/// injected fault's corrupt value enters the machine) and the pc and
/// cycle of its commit. It also keeps the window's last commit cycle
/// (the SWIFT scorer's detection point). A probe made
/// [`CommitProbe::checked`] folds every commit through the MEEK
/// checker bank as it arrives, and latches when each watched
/// instruction's check completes.
#[derive(Debug, Clone, Default)]
pub(crate) struct CommitProbe {
    /// Watched seqs in ascending order.
    watched: Vec<(u64, Watched)>,
    last_commit: Option<u64>,
    checkers: Option<CheckerBank>,
}

impl CommitProbe {
    pub fn new() -> CommitProbe {
        CommitProbe::default()
    }

    /// A probe that watches `seq`.
    pub fn watching(seq: u64) -> CommitProbe {
        let mut probe = CommitProbe::new();
        probe.watch(seq);
        probe
    }

    /// This probe, also folding the commit stream through the MEEK
    /// checker bank.
    pub fn checked(self) -> CommitProbe {
        CommitProbe {
            checkers: Some(CheckerBank::default()),
            ..self
        }
    }

    /// Watches `seq` from here on: an instruction that has already
    /// written back or committed is not seen again.
    pub fn watch(&mut self, seq: u64) {
        if let Err(at) = self.watched.binary_search_by_key(&seq, |&(s, _)| s) {
            self.watched.insert(at, (seq, Watched::default()));
        }
    }

    fn get(&self, seq: u64) -> Option<&Watched> {
        self.watched
            .binary_search_by_key(&seq, |&(s, _)| s)
            .ok()
            .map(|at| &self.watched[at].1)
    }

    /// The first writeback cycle of a watched dynamic instruction, if
    /// it wrote back in the observed window.
    pub fn first_writeback(&self, seq: u64) -> Option<u64> {
        self.get(seq).and_then(|w| w.first_writeback)
    }

    /// The commit cycle of a watched dynamic instruction, if it
    /// committed in the observed window.
    pub fn commit_cycle(&self, seq: u64) -> Option<u64> {
        self.get(seq).and_then(|w| w.commit).map(|(_, cycle)| cycle)
    }

    /// The pc of a watched dynamic instruction, if it committed in the
    /// window.
    pub fn pc_of(&self, seq: u64) -> Option<u64> {
        self.get(seq).and_then(|w| w.commit).map(|(pc, _)| pc)
    }

    /// When the checker bank finished checking a watched dynamic
    /// instruction, if it committed in the window (checked probes
    /// only).
    pub fn checked_cycle(&self, seq: u64) -> Option<u64> {
        self.get(seq).and_then(|w| w.checked)
    }

    /// The cycle of the window's last commit.
    pub fn last_commit(&self) -> Option<u64> {
        self.last_commit
    }

    /// When the checker bank finished checking the window's last
    /// commit: 0 with no commits or no checker bank.
    pub fn verified_end(&self) -> u64 {
        self.checkers.map_or(0, |bank| bank.last())
    }
}

impl Observer for CommitProbe {
    const ENABLED: bool = true;

    fn event(&mut self, ev: TraceEvent) {
        match ev.stage {
            Stage::Commit => {
                self.last_commit = Some(ev.cycle);
                let checked = self.checkers.as_mut().map(|bank| bank.push(ev.cycle));
                if let Ok(at) = self.watched.binary_search_by_key(&ev.seq, |&(s, _)| s) {
                    let w = &mut self.watched[at].1;
                    if w.commit.is_none() {
                        w.commit = Some((ev.pc, ev.cycle));
                        w.checked = checked;
                    }
                }
            }
            Stage::Writeback => {
                if let Ok(at) = self.watched.binary_search_by_key(&ev.seq, |&(s, _)| s) {
                    self.watched[at].1.first_writeback.get_or_insert(ev.cycle);
                }
            }
            _ => {}
        }
    }

    fn cycle(&mut self, _cycle: u64, _state: &CycleState) {}

    fn idle_skip(&mut self, _from: u64, _to: u64, _state: &CycleState) {}
}
