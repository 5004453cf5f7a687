//! McFarling's gshare, the branch unit's direction predictor.

use crate::TwoBit;

/// McFarling's gshare: global history XOR-folded into the PC index.
///
/// This is the predictor named in Table 1 of the REESE paper
/// ("gshare, from \[26\]" — McFarling, DEC WRL TN-36). `predict` is
/// called at fetch, `update` at branch resolution with the actual
/// outcome. The global history is updated non-speculatively at
/// `update` time — a standard simulator simplification that slightly
/// pessimises prediction on tight back-to-back branches.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<TwoBit>,
    bits: u32,
    history: u64,
    history_bits: u32,
}

impl Gshare {
    /// Creates a gshare with `2^bits` counters and `history_bits` of
    /// global history.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside 1–28 or `history_bits > bits`.
    pub fn new(bits: u32, history_bits: u32) -> Gshare {
        assert!((1..=28).contains(&bits), "table bits out of range");
        assert!(history_bits <= bits, "history cannot exceed index width");
        Gshare {
            table: vec![TwoBit::default(); 1 << bits],
            bits,
            history: 0,
            history_bits,
        }
    }

    fn idx(&self, pc: u64) -> usize {
        // Instructions are 8 bytes; drop the alignment bits before hashing.
        let pc_bits = (pc >> 3) & ((1 << self.bits) - 1);
        let h = self.history & ((1 << self.history_bits) - 1);
        (pc_bits ^ h) as usize
    }

    /// Predicts whether the branch at `pc` is taken.
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.idx(pc)].taken()
    }

    /// Trains the predictor with the resolved outcome.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let i = self.idx(pc);
        self.table[i].train(taken);
        self.history = (self.history << 1) | u64::from(taken);
    }

    /// Flattens the predictor's state into words for checkpointing: the
    /// two-bit counters packed 32 per word, low bits first, then the
    /// global history.
    pub fn export_words(&self) -> Vec<u64> {
        let mut words = vec![0u64; self.table.len().div_ceil(32)];
        for (i, c) in self.table.iter().enumerate() {
            words[i / 32] |= u64::from(c.state()) << ((i % 32) * 2);
        }
        words.push(self.history);
        words
    }

    /// Restores state produced by [`Gshare::export_words`] on a gshare
    /// of the same geometry.
    ///
    /// # Panics
    ///
    /// Panics on a word-count mismatch.
    pub fn import_words(&mut self, words: &[u64]) {
        let (history, counters) = words.split_last().expect("gshare snapshot has history");
        assert_eq!(
            counters.len(),
            self.table.len().div_ceil(32),
            "counter snapshot size mismatch"
        );
        for (i, c) in self.table.iter_mut().enumerate() {
            *c = TwoBit::from_state(((counters[i / 32] >> ((i % 32) * 2)) & 0b11) as u8);
        }
        self.history = *history;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_learns_alternating_pattern() {
        // A strictly alternating branch defeats a per-PC counter but is
        // easy for global history.
        let mut g = Gshare::new(12, 8);
        let pc = 0x4000;
        let mut correct = 0;
        for i in 0..2000u32 {
            let outcome = i % 2 == 0;
            if g.predict(pc) == outcome {
                correct += 1;
            }
            g.update(pc, outcome);
        }
        assert!(
            correct > 1800,
            "gshare should nail alternation, got {correct}"
        );
    }

    #[test]
    #[should_panic(expected = "history cannot exceed")]
    fn gshare_history_wider_than_index_panics() {
        Gshare::new(4, 8);
    }

    #[test]
    #[should_panic(expected = "table bits out of range")]
    fn zero_bits_panics() {
        Gshare::new(0, 0);
    }
}
