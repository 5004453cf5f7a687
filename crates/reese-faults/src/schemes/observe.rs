//! Trace probes the off-core schemes attach to the baseline pipeline.

use reese_trace::{CycleState, Observer, Stage, TraceEvent};

/// Records the commit stream of a window: `(seq, commit cycle, pc)`
/// per committed instruction, in commit order. The MEEK checker model
/// replays this stream through its checker cores; the SWIFT scorer
/// uses it to anchor detection latency at the faulted instruction's
/// commit.
///
/// A probe built with [`CommitProbe::watching`] additionally latches
/// the first writeback cycle of one dynamic instruction — the cycle an
/// architecturally injected fault's corrupt value enters the machine.
#[derive(Debug, Clone, Default)]
pub(crate) struct CommitProbe {
    pub commits: Vec<(u64, u64, u64)>,
    watch_seq: Option<u64>,
    pub first_writeback: Option<u64>,
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
        self.watch_seq = Some(seq);
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
        } else if ev.stage == Stage::Writeback
            && self.watch_seq == Some(ev.seq)
            && self.first_writeback.is_none()
        {
            self.first_writeback = Some(ev.cycle);
        }
    }

    fn cycle(&mut self, _cycle: u64, _state: &CycleState) {}

    fn idle_skip(&mut self, _from: u64, _to: u64, _state: &CycleState) {}
}
