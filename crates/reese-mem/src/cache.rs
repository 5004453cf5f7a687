//! Set-associative cache timing model.

use std::fmt;

/// Geometry and timing of one cache level.
///
/// # Example
///
/// ```
/// use reese_mem::CacheConfig;
///
/// // The paper's L1 data cache: 32 KB, 2-way, 2-cycle hit time.
/// let l1d = CacheConfig::new("l1d", 32 * 1024, 32, 2, 2);
/// assert_eq!(l1d.num_sets(), 512);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Display name ("l1d", "l2", …).
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line (block) size in bytes; must be a power of two.
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u64,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, not a power of two where it must
    /// be, or if `size` is not divisible by `line * assoc`.
    pub fn new(
        name: &'static str,
        size_bytes: u64,
        line_bytes: u64,
        assoc: u64,
        hit_latency: u32,
    ) -> CacheConfig {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(assoc > 0, "associativity must be positive");
        assert!(
            size_bytes.is_multiple_of(line_bytes * assoc) && size_bytes > 0,
            "size must be a positive multiple of line * assoc"
        );
        let sets = size_bytes / (line_bytes * assoc);
        assert!(
            sets.is_power_of_two(),
            "number of sets must be a power of two"
        );
        CacheConfig {
            name,
            size_bytes,
            line_bytes,
            assoc,
            hit_latency,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.assoc)
    }
}

/// Whether an access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Read,
    Write,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was present.
    pub hit: bool,
    /// Block address of a dirty line evicted by this access, if any.
    pub writeback: Option<u64>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// Checkpointable state of one cache line (tag/valid/dirty/LRU — the
/// full replacement-relevant contents of a way).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineState {
    /// Tag bits of the cached block.
    pub tag: u64,
    /// Whether the way holds a block.
    pub valid: bool,
    /// Whether the block has been written since allocation.
    pub dirty: bool,
    /// LRU stamp (compared against the cache's tick counter).
    pub lru: u64,
}

/// A complete, geometry-independent snapshot of a cache's dynamic
/// state: every way of every set (sets in index order, ways in way
/// order), the LRU tick counter, and the accumulated statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// One entry per way, sets-major.
    pub lines: Vec<LineState>,
    /// The LRU tick counter.
    pub tick: u64,
    /// Accumulated statistics.
    pub stats: CacheStats,
}

/// Aggregate access statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub accesses: u64,
    pub hits: u64,
    pub misses: u64,
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; 0 when no accesses were made.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative, write-back, write-allocate cache with true LRU
/// replacement.
///
/// Like SimpleScalar's cache module, this models *timing and contents
/// presence* only; the data itself always lives in
/// [`crate::Memory`]. [`Cache::access`] returns hit/miss plus any dirty
/// eviction so a hierarchy can propagate the miss downward.
///
/// # Example
///
/// ```
/// use reese_mem::{AccessKind, Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new("l1d", 1024, 32, 2, 1));
/// assert!(!c.access(0x0, AccessKind::Read).hit);  // cold miss
/// assert!(c.access(0x4, AccessKind::Read).hit);   // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Every way of every set in one allocation, sets-major: set `s`
    /// is `lines[s * assoc..(s + 1) * assoc]` — the same order as
    /// [`CacheSnapshot::lines`].
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Cache {
        let lines = vec![Line::default(); (config.num_sets() * config.assoc) as usize];
        Cache {
            config,
            lines,
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The ways of set `set_idx`.
    fn set(&self, set_idx: usize) -> &[Line] {
        let ways = self.config.assoc as usize;
        &self.lines[set_idx * ways..(set_idx + 1) * ways]
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn split(&self, addr: u64) -> (u64, usize) {
        let block = addr / self.config.line_bytes;
        let set = (block % self.config.num_sets()) as usize;
        let tag = block / self.config.num_sets();
        (tag, set)
    }

    /// Performs an access, updating contents, LRU state, and statistics.
    ///
    /// On a miss the line is allocated (write-allocate); if the victim is
    /// dirty its block address is returned for the hierarchy to write
    /// back. Writes mark the line dirty.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        self.tick += 1;
        self.stats.accesses += 1;
        let (tag, set_idx) = self.split(addr);
        let num_sets = self.config.num_sets();
        let line_bytes = self.config.line_bytes;
        let ways = self.config.assoc as usize;
        let set = &mut self.lines[set_idx * ways..(set_idx + 1) * ways];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.tick;
            if kind == AccessKind::Write {
                line.dirty = true;
            }
            self.stats.hits += 1;
            return AccessResult {
                hit: true,
                writeback: None,
            };
        }

        self.stats.misses += 1;
        // Choose a victim: an invalid way if one exists, else true LRU.
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru + 1 } else { 0 })
            .map(|(i, _)| i)
            .expect("associativity is positive");
        let victim = set[victim_idx];
        let writeback = if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            // Reconstruct the victim's block address.
            Some((victim.tag * num_sets + set_idx as u64) * line_bytes)
        } else {
            None
        };
        set[victim_idx] = Line {
            tag,
            valid: true,
            dirty: kind == AccessKind::Write,
            lru: self.tick,
        };
        AccessResult {
            hit: false,
            writeback,
        }
    }

    /// Whether `addr` currently hits, without disturbing any state.
    pub fn probe(&self, addr: u64) -> bool {
        let (tag, set_idx) = self.split(addr);
        self.set(set_idx).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates every line and discards dirty data (used on machine
    /// reset; the architectural memory is always authoritative).
    pub fn invalidate_all(&mut self) {
        self.lines.fill(Line::default());
    }

    /// Exports the full dynamic state for checkpointing.
    pub fn export_state(&self) -> CacheSnapshot {
        CacheSnapshot {
            lines: self
                .lines
                .iter()
                .map(|l| LineState {
                    tag: l.tag,
                    valid: l.valid,
                    dirty: l.dirty,
                    lru: l.lru,
                })
                .collect(),
            tick: self.tick,
            stats: self.stats,
        }
    }

    /// Restores state exported by [`Cache::export_state`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's line count does not match this cache's
    /// geometry (sets × ways).
    pub fn import_state(&mut self, snap: &CacheSnapshot) {
        assert_eq!(
            snap.lines.len(),
            self.lines.len(),
            "cache snapshot geometry mismatch"
        );
        for (way, line) in self.lines.iter_mut().zip(&snap.lines) {
            *way = Line {
                tag: line.tag,
                valid: line.valid,
                dirty: line.dirty,
                lru: line.lru,
            };
        }
        self.tick = snap.tick;
        self.stats = snap.stats;
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats;
        write!(
            f,
            "{}: {} accesses, {} hits, {} misses ({:.2}% miss), {} writebacks",
            self.config.name,
            s.accesses,
            s.hits,
            s.misses,
            s.miss_rate() * 100.0,
            s.writebacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets, 2 ways, 16-byte lines.
        Cache::new(CacheConfig::new("t", 128, 16, 2, 1))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x100, AccessKind::Read).hit);
        assert!(c.access(0x100, AccessKind::Read).hit);
        assert!(c.access(0x10F, AccessKind::Read).hit, "same line");
        assert!(!c.access(0x110, AccessKind::Read).hit, "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three distinct lines mapping to set 0 (stride = sets*line = 64).
        c.access(0, AccessKind::Read);
        c.access(64, AccessKind::Read);
        c.access(0, AccessKind::Read); // touch 0 again; 64 is now LRU
        c.access(128, AccessKind::Read); // evicts 64
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(0, AccessKind::Write);
        c.access(64, AccessKind::Read);
        let r = c.access(128, AccessKind::Read); // evicts dirty line 0
        assert_eq!(r.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = small();
        c.access(0, AccessKind::Read);
        c.access(64, AccessKind::Read);
        let r = c.access(128, AccessKind::Read);
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Write); // hit, now dirty
        c.access(64, AccessKind::Read);
        let r = c.access(128, AccessKind::Read);
        assert_eq!(r.writeback, Some(0));
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = small();
        c.access(0, AccessKind::Read);
        let before = c.stats();
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c = small();
        c.access(0, AccessKind::Write);
        c.invalidate_all();
        assert!(!c.probe(0));
    }

    #[test]
    fn writeback_address_reconstruction() {
        let mut c = small();
        // Set index 2: addresses 0x20, 0x60, 0xA0 (block addrs 2, 6, 10).
        c.access(0xA0, AccessKind::Write);
        c.access(0x20, AccessKind::Read);
        let r = c.access(0x60, AccessKind::Read);
        assert_eq!(r.writeback, Some(0xA0));
    }

    #[test]
    fn miss_rate() {
        let mut c = small();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        CacheConfig::new("t", 128, 24, 2, 1);
    }

    #[test]
    fn paper_l1d_geometry() {
        let cfg = CacheConfig::new("l1d", 32 * 1024, 32, 2, 2);
        assert_eq!(cfg.num_sets(), 512);
    }
}
