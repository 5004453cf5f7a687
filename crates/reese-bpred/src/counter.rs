//! Saturating two-bit counters, the workhorse of dynamic prediction.

/// A two-bit saturating counter.
///
/// States 0–1 predict not-taken, 2–3 predict taken: the classic FSM of
/// every gshare table entry.
///
/// # Example
///
/// ```
/// use reese_bpred::TwoBit;
///
/// let mut c = TwoBit::weakly_not_taken();
/// assert!(!c.taken());
/// c.train(true);
/// assert!(c.taken()); // one taken outcome flips a weak counter
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TwoBit(u8);

impl TwoBit {
    /// Strongly not-taken (state 0).
    pub const fn strongly_not_taken() -> TwoBit {
        TwoBit(0)
    }

    /// Weakly not-taken (state 1) — the usual initial state.
    pub const fn weakly_not_taken() -> TwoBit {
        TwoBit(1)
    }

    /// Strongly taken (state 3).
    pub const fn strongly_taken() -> TwoBit {
        TwoBit(3)
    }

    /// Current prediction.
    pub const fn taken(self) -> bool {
        self.0 >= 2
    }

    /// Trains toward the actual outcome, saturating at 0 and 3.
    pub fn train(&mut self, taken: bool) {
        if taken {
            if self.0 < 3 {
                self.0 += 1;
            }
        } else if self.0 > 0 {
            self.0 -= 1;
        }
    }

    /// Raw state (0–3), mainly for tests.
    pub const fn state(self) -> u8 {
        self.0
    }

    /// Rebuilds a counter from a raw state, saturating anything above 3
    /// (checkpoint restore).
    pub const fn from_state(state: u8) -> TwoBit {
        TwoBit(if state > 3 { 3 } else { state })
    }
}

impl Default for TwoBit {
    fn default() -> Self {
        TwoBit::weakly_not_taken()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_at_both_ends() {
        let mut c = TwoBit::strongly_taken();
        c.train(true);
        assert_eq!(c.state(), 3);
        let mut c = TwoBit::strongly_not_taken();
        c.train(false);
        assert_eq!(c.state(), 0);
    }

    #[test]
    fn hysteresis() {
        let mut c = TwoBit::strongly_taken();
        c.train(false);
        assert!(
            c.taken(),
            "one not-taken outcome does not flip a strong counter"
        );
        c.train(false);
        assert!(!c.taken());
    }

    #[test]
    fn full_walk() {
        let mut c = TwoBit::strongly_not_taken();
        for expected in [1, 2, 3, 3] {
            c.train(true);
            assert_eq!(c.state(), expected);
        }
    }
}
