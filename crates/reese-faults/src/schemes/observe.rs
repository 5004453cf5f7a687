//! Trace probes the off-core schemes attach to the baseline pipeline.

use reese_trace::{CycleState, Observer, Stage, TraceEvent};

/// Records the commit stream of a window: `(seq, commit cycle, pc)`
/// per committed instruction, in commit order. The MEEK checker model
/// replays this stream through its checker cores; the SWIFT scorer
/// uses it to anchor detection latency at the faulted instruction's
/// commit.
///
/// A probe also latches the first writeback cycle of each dynamic
/// instruction it watches ([`CommitProbe::watch`]) — the cycle an
/// architecturally injected fault's corrupt value enters the machine.
#[derive(Debug, Clone, Default)]
pub(crate) struct CommitProbe {
    pub commits: Vec<(u64, u64, u64)>,
    /// Watched seqs in ascending order, each with its first writeback
    /// cycle once seen.
    watched: Vec<(u64, Option<u64>)>,
}

impl CommitProbe {
    pub fn new() -> CommitProbe {
        CommitProbe::default()
    }

    /// A probe that also latches the first writeback of `seq`.
    pub fn watching(seq: u64) -> CommitProbe {
        let mut probe = CommitProbe::new();
        probe.watch(seq);
        probe
    }

    /// Latches the first writeback of `seq` from here on.
    pub fn watch(&mut self, seq: u64) {
        if let Err(at) = self.watched.binary_search_by_key(&seq, |&(s, _)| s) {
            self.watched.insert(at, (seq, None));
        }
    }

    /// The first writeback cycle of a watched dynamic instruction, if
    /// it wrote back in the observed window.
    pub fn first_writeback(&self, seq: u64) -> Option<u64> {
        self.watched
            .binary_search_by_key(&seq, |&(s, _)| s)
            .ok()
            .and_then(|at| self.watched[at].1)
    }

    /// The commit cycle of a dynamic instruction, if it committed in
    /// the observed window.
    pub fn commit_cycle(&self, seq: u64) -> Option<u64> {
        self.commits
            .iter()
            .find(|&&(s, _, _)| s == seq)
            .map(|&(_, cycle, _)| cycle)
    }

    /// The pc of a dynamic instruction, if it committed in the window.
    pub fn pc_of(&self, seq: u64) -> Option<u64> {
        self.commits
            .iter()
            .find(|&&(s, _, _)| s == seq)
            .map(|&(_, _, pc)| pc)
    }
}

impl Observer for CommitProbe {
    const ENABLED: bool = true;

    fn event(&mut self, ev: TraceEvent) {
        if ev.stage == Stage::Commit {
            self.commits.push((ev.seq, ev.cycle, ev.pc));
        } else if ev.stage == Stage::Writeback {
            if let Ok(at) = self.watched.binary_search_by_key(&ev.seq, |&(s, _)| s) {
                self.watched[at].1.get_or_insert(ev.cycle);
            }
        }
    }

    fn cycle(&mut self, _cycle: u64, _state: &CycleState) {}

    fn idle_skip(&mut self, _from: u64, _to: u64, _state: &CycleState) {}
}
