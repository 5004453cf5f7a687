//! The composed cache hierarchy: L1I + L1D over a shared L2 over DRAM.

use crate::{AccessKind, Cache, CacheConfig, CacheSnapshot, Tlb, TlbConfig, TlbSnapshot};

/// Configuration of the full memory hierarchy.
///
/// [`HierarchyConfig::paper`] reproduces Table 1 of the REESE paper:
/// 32 KB 2-way 2-cycle L1 data and instruction caches over a shared
/// 512 KB 4-way 12-cycle L2, with small TLBs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2 (shared by instructions and data, per the paper).
    pub l2: CacheConfig,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// Main-memory access latency in cycles (charged on an L2 miss).
    pub mem_latency: u32,
    /// Tagged next-line prefetch into L1D: on a demand miss, the
    /// following line is pulled in alongside it (era-appropriate
    /// one-block-lookahead prefetching; off in the paper configuration).
    pub l1d_next_line_prefetch: bool,
}

impl HierarchyConfig {
    /// The configuration from Table 1 of the paper.
    pub fn paper() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::new("l1i", 32 * 1024, 32, 2, 2),
            l1d: CacheConfig::new("l1d", 32 * 1024, 32, 2, 2),
            l2: CacheConfig::new("l2", 512 * 1024, 64, 4, 12),
            itlb: TlbConfig::new("itlb", 64, 4096, 30),
            dtlb: TlbConfig::new("dtlb", 128, 4096, 30),
            mem_latency: 40,
            l1d_next_line_prefetch: false,
        }
    }

    /// Enables tagged next-line prefetching into the L1 data cache.
    pub fn with_next_line_prefetch(mut self) -> HierarchyConfig {
        self.l1d_next_line_prefetch = true;
        self
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::paper()
    }
}

/// Statistics snapshot for the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyStats {
    pub l1i: crate::CacheStats,
    pub l1d: crate::CacheStats,
    pub l2: crate::CacheStats,
    pub itlb_misses: u64,
    pub dtlb_misses: u64,
}

/// A complete snapshot of the hierarchy's dynamic (timing) state:
/// every cache's lines and counters plus both TLBs. Used for warm-start
/// checkpointing; the configuration is not captured — a snapshot may
/// only be restored into a hierarchy of identical geometry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchySnapshot {
    /// L1 instruction cache state.
    pub l1i: CacheSnapshot,
    /// L1 data cache state.
    pub l1d: CacheSnapshot,
    /// Unified L2 state.
    pub l2: CacheSnapshot,
    /// Instruction TLB state.
    pub itlb: TlbSnapshot,
    /// Data TLB state.
    pub dtlb: TlbSnapshot,
    /// Prefetch lines pulled into L1D so far.
    pub prefetches_issued: u64,
}

/// The instantiated memory hierarchy timing model.
///
/// All methods return the *total latency in cycles* of the access,
/// including the L1 hit time; the timing simulators add this to an
/// instruction's execution latency. Data contents live in
/// [`crate::Memory`], which the hierarchy deliberately does not own —
/// functional state and timing state stay separate, as in SimpleScalar.
///
/// Dirty writebacks are tracked statistically but charged no extra
/// latency (they proceed in the background through write buffers).
///
/// # Example
///
/// ```
/// use reese_mem::{HierarchyConfig, MemHierarchy};
///
/// let mut h = MemHierarchy::new(HierarchyConfig::paper());
/// let cold = h.access_data(0x8000, false);
/// let warm = h.access_data(0x8000, false);
/// assert!(cold > warm); // the first touch pays L2 + DRAM
/// assert_eq!(warm, 2);  // then it's an L1 hit
/// ```
#[derive(Debug, Clone)]
pub struct MemHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    mem_latency: u32,
    prefetch_next_line: bool,
    prefetches_issued: u64,
}

impl MemHierarchy {
    /// Builds an empty hierarchy from a configuration.
    pub fn new(config: HierarchyConfig) -> MemHierarchy {
        MemHierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            itlb: Tlb::new(config.itlb),
            dtlb: Tlb::new(config.dtlb),
            mem_latency: config.mem_latency,
            prefetch_next_line: config.l1d_next_line_prefetch,
            prefetches_issued: 0,
        }
    }

    fn miss_path(l2: &mut Cache, addr: u64, kind: AccessKind, mem_latency: u32) -> u32 {
        let r2 = l2.access(addr, kind);
        if r2.hit {
            l2.config().hit_latency
        } else {
            l2.config().hit_latency + mem_latency
        }
    }

    /// One data access (`is_write` selects load vs store), returning its
    /// total latency in cycles.
    pub fn access_data(&mut self, addr: u64, is_write: bool) -> u32 {
        let kind = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let mut latency = self.dtlb.access(addr);
        let r1 = self.l1d.access(addr, kind);
        latency += self.l1d.config().hit_latency;
        if !r1.hit {
            // L2 sees a line fill (a read), regardless of store/load.
            latency += Self::miss_path(&mut self.l2, addr, AccessKind::Read, self.mem_latency);
            if self.prefetch_next_line {
                // Tagged next-line prefetch: pull the following block in
                // behind the demand fill, off the critical path.
                let next = addr + self.l1d.config().line_bytes;
                if !self.l1d.probe(next) {
                    let pf = self.l1d.access(next, AccessKind::Read);
                    let _ = self.l2.access(next, AccessKind::Read);
                    if let Some(victim) = pf.writeback {
                        let _ = self.l2.access(victim, AccessKind::Write);
                    }
                    self.prefetches_issued += 1;
                }
            }
        }
        if let Some(victim) = r1.writeback {
            // Dirty victim is installed into L2 without stalling the pipe.
            let _ = self.l2.access(victim, AccessKind::Write);
        }
        latency
    }

    /// Prefetch lines pulled into L1D so far.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetches_issued
    }

    /// One instruction fetch, returning its total latency in cycles.
    pub fn access_inst(&mut self, addr: u64) -> u32 {
        let mut latency = self.itlb.access(addr);
        let r1 = self.l1i.access(addr, AccessKind::Read);
        latency += self.l1i.config().hit_latency;
        if !r1.hit {
            latency += Self::miss_path(&mut self.l2, addr, AccessKind::Read, self.mem_latency);
        }
        latency
    }

    /// Whether a data address would hit in L1 right now (no state change).
    pub fn probe_data(&self, addr: u64) -> bool {
        self.l1d.probe(addr)
    }

    /// L1 data hit latency (the floor for any data access).
    pub fn l1d_hit_latency(&self) -> u32 {
        self.l1d.config().hit_latency
    }

    /// Snapshot of all statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            itlb_misses: self.itlb.misses(),
            dtlb_misses: self.dtlb.misses(),
        }
    }

    /// Invalidates all caches (machine reset).
    pub fn reset(&mut self) {
        self.l1i.invalidate_all();
        self.l1d.invalidate_all();
        self.l2.invalidate_all();
    }

    /// Exports the full dynamic state for checkpointing.
    pub fn export_state(&self) -> HierarchySnapshot {
        HierarchySnapshot {
            l1i: self.l1i.export_state(),
            l1d: self.l1d.export_state(),
            l2: self.l2.export_state(),
            itlb: self.itlb.export_state(),
            dtlb: self.dtlb.export_state(),
            prefetches_issued: self.prefetches_issued,
        }
    }

    /// Restores state exported by [`MemHierarchy::export_state`].
    ///
    /// # Panics
    ///
    /// Panics if any component snapshot does not match this hierarchy's
    /// geometry.
    pub fn import_state(&mut self, snap: &HierarchySnapshot) {
        self.l1i.import_state(&snap.l1i);
        self.l1d.import_state(&snap.l1d);
        self.l2.import_state(&snap.l2);
        self.itlb.import_state(&snap.itlb);
        self.dtlb.import_state(&snap.dtlb);
        self.prefetches_issued = snap.prefetches_issued;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> MemHierarchy {
        MemHierarchy::new(HierarchyConfig::paper())
    }

    #[test]
    fn cold_access_pays_full_path() {
        let mut h = paper();
        // dtlb miss (30) + l1 (2) + l2 (12) + mem (40)
        assert_eq!(h.access_data(0x4_0000, false), 84);
    }

    #[test]
    fn warm_access_is_l1_hit() {
        let mut h = paper();
        h.access_data(0x4_0000, false);
        assert_eq!(h.access_data(0x4_0000, false), 2);
        assert_eq!(h.access_data(0x4_0010, false), 2, "same 32-byte line");
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = paper();
        // L1D: 512 sets, 2 ways, 32B lines → set stride 16 KiB.
        // Three lines in the same L1 set but all within L2.
        let stride = 512 * 32;
        h.access_data(0, false);
        h.access_data(stride, false);
        h.access_data(2 * stride, false); // evicts line 0 from L1
                                          // Line 0: dtlb hit (same pages already walked? different page —
                                          // 16 KiB stride crosses pages, so allow tlb hit or miss; probe L1 only)
        assert!(!h.probe_data(0));
        let lat = h.access_data(0, false);
        // l1 miss (2) + l2 hit (12), plus possibly a dtlb hit (0).
        assert_eq!(lat, 14);
    }

    #[test]
    fn inst_fetch_separate_from_data() {
        let mut h = paper();
        let _ = h.access_inst(0x1000);
        let s = h.stats();
        assert_eq!(s.l1i.accesses, 1);
        assert_eq!(s.l1d.accesses, 0);
        assert_eq!(h.access_inst(0x1000), 2, "warm fetch");
    }

    #[test]
    fn shared_l2_between_inst_and_data() {
        let mut h = paper();
        h.access_inst(0x9000); // brings line into L2 (and L1I)
                               // Data access to the same line: L1D misses, L2 hits.
        let lat = h.access_data(0x9000, false);
        assert_eq!(lat, 30 + 2 + 12); // dtlb cold + l1d miss + l2 hit
    }

    #[test]
    fn reset_clears_caches() {
        let mut h = paper();
        h.access_data(0x2000, false);
        h.reset();
        assert!(!h.probe_data(0x2000));
    }

    #[test]
    fn next_line_prefetch_warms_sequential_streams() {
        let mut plain = MemHierarchy::new(HierarchyConfig::paper());
        let mut pf = MemHierarchy::new(HierarchyConfig::paper().with_next_line_prefetch());
        // Stream through 64 sequential lines.
        let (mut lat_plain, mut lat_pf) = (0u64, 0u64);
        for line in 0..64u64 {
            let addr = 0x10_0000 + line * 32;
            lat_plain += u64::from(plain.access_data(addr, false));
            lat_pf += u64::from(pf.access_data(addr, false));
        }
        assert!(
            lat_pf < lat_plain,
            "prefetching must help a sequential stream"
        );
        assert!(pf.prefetches_issued() > 0);
        assert_eq!(plain.prefetches_issued(), 0);
    }

    #[test]
    fn prefetch_does_not_change_correct_hit_semantics() {
        let mut h = MemHierarchy::new(HierarchyConfig::paper().with_next_line_prefetch());
        h.access_data(0x9000, false); // miss, prefetches 0x9020
        assert!(h.probe_data(0x9020), "next line resident");
        assert_eq!(
            h.access_data(0x9020, false),
            2,
            "prefetched line is an L1 hit"
        );
    }

    #[test]
    fn stores_allocate_like_loads() {
        let mut h = paper();
        h.access_data(0x7000, true);
        assert_eq!(h.access_data(0x7000, false), 2);
    }
}
