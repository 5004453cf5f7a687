//! A small fully-associative TLB timing model.

/// Configuration for a translation lookaside buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlbConfig {
    /// Display name ("itlb", "dtlb").
    pub name: &'static str,
    /// Number of entries.
    pub entries: usize,
    /// Page size in bytes; must be a power of two.
    pub page_bytes: u64,
    /// Extra latency charged on a TLB miss (page-walk cost).
    pub miss_latency: u32,
}

impl TlbConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `page_bytes` is not a power of two.
    pub fn new(
        name: &'static str,
        entries: usize,
        page_bytes: u64,
        miss_latency: u32,
    ) -> TlbConfig {
        assert!(entries > 0, "TLB needs at least one entry");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        TlbConfig {
            name,
            entries,
            page_bytes,
            miss_latency,
        }
    }
}

/// A complete snapshot of a TLB's dynamic state. Entries are stored in
/// their internal (insertion/`swap_remove`) order, which must be
/// preserved for a restored TLB to replay bit-identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TlbSnapshot {
    /// `(virtual page number, lru stamp)` pairs in internal order.
    pub entries: Vec<(u64, u64)>,
    /// The LRU tick counter.
    pub tick: u64,
    /// Hit count.
    pub hits: u64,
    /// Miss count.
    pub misses: u64,
}

/// A fully-associative TLB with true LRU replacement.
///
/// The simulated machine has no real virtual memory — translation is
/// identity — so the TLB exists purely to charge the page-walk latency
/// SimpleScalar charges, which matters for workloads with large
/// footprints.
///
/// # Example
///
/// ```
/// use reese_mem::{Tlb, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig::new("dtlb", 64, 4096, 30));
/// assert_eq!(tlb.access(0x1234), 30); // cold miss pays the walk
/// assert_eq!(tlb.access(0x1FFF), 0);  // same page now hits
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// `log2(page_bytes)`: an address's page number is
    /// `addr >> page_shift`.
    page_shift: u32,
    entries: Vec<(u64, u64)>, // (virtual page number, lru stamp)
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics unless the page size is a power of two: the TLB indexes
    /// with a shift. [`TlbConfig::new`] checks the same, but the
    /// configuration's fields are public.
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(
            config.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            page_shift: config.page_bytes.trailing_zeros(),
            entries: Vec::with_capacity(config.entries),
            config,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `addr`, returning the extra latency (0 on a hit, the
    /// configured miss latency on a miss) and updating LRU state.
    pub fn access(&mut self, addr: u64) -> u32 {
        self.tick += 1;
        let vpn = self.vpn(addr);
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == vpn) {
            e.1 = self.tick;
            self.hits += 1;
            return 0;
        }
        self.misses += 1;
        if self.entries.len() == self.config.entries {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i)
                .expect("non-empty");
            self.entries.swap_remove(lru);
        }
        self.entries.push((vpn, self.tick));
        self.config.miss_latency
    }

    /// The virtual page number of `addr`.
    #[inline]
    fn vpn(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The TLB's configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Exports the full dynamic state for checkpointing.
    pub fn export_state(&self) -> TlbSnapshot {
        TlbSnapshot {
            entries: self.entries.clone(),
            tick: self.tick,
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Restores state exported by [`Tlb::export_state`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot holds more entries than this TLB has.
    pub fn import_state(&mut self, snap: &TlbSnapshot) {
        assert!(
            snap.entries.len() <= self.config.entries,
            "TLB snapshot larger than the TLB"
        );
        self.entries.clear();
        self.entries.extend_from_slice(&snap.entries);
        self.tick = snap.tick;
        self.hits = snap.hits;
        self.misses = snap.misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig::new("t", 2, 4096, 30))
    }

    #[test]
    fn miss_then_hit() {
        let mut t = tiny();
        assert_eq!(t.access(0), 30);
        assert_eq!(t.access(100), 0);
        assert_eq!(t.access(4096), 30);
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn lru_replacement() {
        let mut t = tiny();
        t.access(0); // page 0
        t.access(4096); // page 1
        t.access(0); // touch page 0
        t.access(8192); // page 2 evicts page 1
        assert_eq!(t.access(0), 0, "page 0 still resident");
        assert_eq!(t.access(4096), 30, "page 1 was evicted");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        TlbConfig::new("t", 0, 4096, 30);
    }

    #[test]
    fn shift_indexing_matches_division() {
        let paper = crate::HierarchyConfig::paper();
        let mut shapes = vec![paper.itlb, paper.dtlb];
        shapes.extend((4..=16).map(|bits| TlbConfig::new("t", 8, 1 << bits, 30)));
        let mut rng = reese_stats::SplitMix64::new(64206);
        for cfg in shapes {
            let tlb = Tlb::new(cfg.clone());
            for _ in 0..512 {
                let addr = rng.next_u64() >> rng.index(64);
                assert_eq!(tlb.vpn(addr), addr / cfg.page_bytes, "{cfg:?} at {addr:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "page size must be a power of two")]
    fn a_hand_built_config_is_checked_too() {
        Tlb::new(TlbConfig {
            page_bytes: 3000,
            ..TlbConfig::new("t", 8, 4096, 30)
        });
    }
}
