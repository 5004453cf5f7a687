//! The functional screen of a single-stream window.
//!
//! An architectural result fault reaches the timing core only through
//! the functional records its front end's emulator yields, and the core
//! reads few of their fields ([`reese_pipeline::same_timing`]). Many
//! flips never change one of those fields before the window ends: the
//! flipped register is overwritten, or it only feeds values that are
//! stored and never read back. Such a key's detailed fork would repeat
//! the clean pass cycle for cycle, so the screen finds them with the
//! functional emulator alone and lets only the rest fork.
//!
//! One clean emulator walks from the anchor. When it reaches a key's
//! target it is cloned and the key's fault is armed on the clone, which
//! then steps in lockstep with the walk until one of three things
//! happens:
//!
//! - **Reconverged:** the register files are equal and no memory byte
//!   differs, so the two streams are the same from here on.
//! - **Visible:** a field the timing core reads differs, or either
//!   stream fails: the key needs its fork.
//! - **Invisible:** the stream reaches the window's frontier — the
//!   most instructions the detailed pass can execute,
//!   [`reese_pipeline::PipelineConfig::fetch_lookahead`] past its
//!   budget — or the program's halt, with no such difference.
//!
//! A key whose target the walk never reaches keeps its fork too.

use reese_cpu::{Emulator, StepInfo};
use reese_pipeline::same_timing;

/// What the screen decided for one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Screened {
    /// Visible, or never reached: the key needs its detailed fork.
    Fork,
    /// Reconverged or invisible: the key's fork would repeat the clean
    /// pass. `halt_digest` is the faulted register digest of an
    /// invisible stream that reached the halt; the others end with the
    /// clean pass's digest.
    Clean { halt_digest: Option<u64> },
}

/// A faulted copy stepping in lockstep with the clean walk.
struct FaultedCopy {
    key: usize,
    emu: Emulator,
    /// Addresses of the memory bytes that differ from the clean stream.
    dirty: Vec<u64>,
}

impl FaultedCopy {
    /// Steps the copy alongside the clean stream's step `c`, which left
    /// the clean emulator at `clean`: the key's verdict, once it has one.
    fn step(&mut self, c: &StepInfo, clean: &Emulator) -> Option<Screened> {
        let Ok(f) = self.emu.step() else {
            return Some(Screened::Fork);
        };
        if !same_timing(c, &f) {
            return Some(Screened::Fork);
        }
        // Both streams stored to the same bytes; each now differs or not.
        if let Some(m) = f.mem.filter(|m| m.is_store) {
            for a in (0..m.width.bytes()).map(|k| m.addr.wrapping_add(k)) {
                let differs = self.emu.memory().read_u8(a) != clean.memory().read_u8(a);
                match self.dirty.iter().position(|&d| d == a) {
                    Some(at) if !differs => {
                        self.dirty.swap_remove(at);
                    }
                    None if differs => self.dirty.push(a),
                    _ => {}
                }
            }
        }
        if self.dirty.is_empty() && self.emu.state() == clean.state() {
            return Some(Screened::Clean { halt_digest: None });
        }
        f.halted.then(|| Screened::Clean {
            halt_digest: Some(self.emu.state().digest()),
        })
    }
}

/// Screens the result faults `(seq, bit)` of one window, walking from
/// the restored anchor `start`, on a machine whose pass stops after
/// `budget` commits with the front end at most `lookahead` instructions
/// further. Returns one verdict per key, in key order.
pub(super) fn screen(
    start: &Emulator,
    budget: u64,
    lookahead: u64,
    keys: &[(u64, u8)],
) -> Vec<Screened> {
    let mut verdicts = vec![Screened::Fork; keys.len()];
    // One past the last instruction the detailed pass can execute; a
    // budget with no ceiling gives the walk none either.
    let frontier = start.instructions().checked_add(budget);
    let Some(frontier) = frontier.and_then(|end| end.checked_add(lookahead)) else {
        return verdicts;
    };
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| keys[i].0);
    let mut pending = order
        .into_iter()
        .skip_while(|&i| keys[i].0 < start.instructions())
        .peekable();
    let mut clean = start.clone();
    let mut live: Vec<FaultedCopy> = Vec::new();
    while clean.instructions() < frontier && clean.exit_code().is_none() {
        while let Some(key) = pending.next_if(|&i| keys[i].0 == clean.instructions()) {
            let mut emu = clean.clone();
            emu.inject_result_fault(keys[key].0, keys[key].1);
            live.push(FaultedCopy {
                key,
                emu,
                dirty: Vec::new(),
            });
        }
        if live.is_empty() && pending.peek().is_none() {
            return verdicts;
        }
        // A failing clean stream leaves every live key its fork.
        let Ok(c) = clean.step() else {
            return verdicts;
        };
        live.retain_mut(|f| match f.step(&c, &clean) {
            Some(v) => {
                verdicts[f.key] = v;
                false
            }
            None => true,
        });
    }
    // The halt settled every live copy; these reached the frontier.
    for f in live {
        verdicts[f.key] = Screened::Clean { halt_digest: None };
    }
    verdicts
}
