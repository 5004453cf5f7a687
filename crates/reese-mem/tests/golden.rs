//! The cache against a transparent reference model: an associativity-
//! respecting LRU simulator written the slow, obvious way, driven by
//! seeded random access streams.

use reese_mem::{AccessKind, Cache, CacheConfig, Memory, PAGE_SIZE};
use reese_stats::SplitMix64;
use std::collections::{BTreeMap, VecDeque};

/// The obviously correct reference: per set, an LRU-ordered list of
/// (tag, dirty) pairs.
struct RefCache {
    sets: Vec<VecDeque<(u64, bool)>>,
    line: u64,
    assoc: usize,
}

impl RefCache {
    fn new(cfg: &CacheConfig) -> RefCache {
        RefCache {
            sets: vec![VecDeque::new(); cfg.num_sets() as usize],
            line: cfg.line_bytes,
            assoc: cfg.assoc as usize,
        }
    }

    /// Returns (hit, writeback block address).
    fn access(&mut self, addr: u64, write: bool) -> (bool, Option<u64>) {
        let block = addr / self.line;
        let nsets = self.sets.len() as u64;
        let set = (block % nsets) as usize;
        let tag = block / nsets;
        let line = self.line;
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|&(t, _)| t == tag) {
            let (t, d) = s.remove(pos).expect("position valid");
            s.push_front((t, d || write));
            return (true, None);
        }
        let mut wb = None;
        if s.len() == self.assoc {
            let (vt, vd) = s.pop_back().expect("full set");
            if vd {
                wb = Some((vt * nsets + set as u64) * line);
            }
        }
        s.push_front((tag, write));
        (false, wb)
    }
}

/// Every access sequence produces identical hit/miss/writeback
/// behaviour in the real cache and the reference model.
#[test]
fn cache_matches_reference() {
    let mut rng = SplitMix64::new(20);
    for case in 0..64 {
        let assoc = [1u64, 2, 4][case % 3];
        let len = 1 + rng.index(399);
        let accesses: Vec<(u64, bool)> = (0..len)
            .map(|_| (rng.range_u64(0, 4096), rng.chance(0.5)))
            .collect();
        let cfg = CacheConfig::new("t", 16 * assoc * 32, 32, assoc, 1);
        let mut real = Cache::new(cfg.clone());
        let mut reference = RefCache::new(&cfg);
        for &(addr, write) in &accesses {
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let got = real.access(addr, kind);
            let (hit, wb) = reference.access(addr, write);
            assert_eq!(got.hit, hit, "hit/miss diverged at addr {addr:#x}");
            assert_eq!(got.writeback, wb, "writeback diverged at addr {addr:#x}");
        }
        let s = real.stats();
        assert_eq!(s.accesses, accesses.len() as u64);
        assert_eq!(s.hits + s.misses, s.accesses);
    }
}

/// Memory reads always return the most recent write to each byte.
#[test]
fn memory_is_a_flat_byte_store() {
    let mut rng = SplitMix64::new(21);
    for _ in 0..64 {
        let len = 1 + rng.index(199);
        let writes: Vec<(u64, u8)> = (0..len)
            .map(|_| (rng.range_u64(0, 100_000), rng.next_u64() as u8))
            .collect();
        let mut mem = Memory::new();
        let mut model = std::collections::HashMap::new();
        for &(addr, value) in &writes {
            mem.write_u8(addr, value);
            model.insert(addr, value);
        }
        for (&addr, &value) in &model {
            assert_eq!(mem.read_u8(addr), value);
        }
    }
}

/// Multi-byte accesses agree with byte-by-byte little-endian
/// composition, including across page boundaries.
#[test]
fn wide_accesses_compose_from_bytes() {
    let mut rng = SplitMix64::new(22);
    for _ in 0..256 {
        let addr = rng.range_u64(0, 20_000);
        let value = rng.next_u64();
        let mut mem = Memory::new();
        mem.write_u64(addr, value);
        let mut composed = 0u64;
        for i in (0..8).rev() {
            composed = (composed << 8) | u64::from(mem.read_u8(addr + i));
        }
        assert_eq!(composed, value);
    }
}

/// Main memory the slow, obvious way: one page lookup per byte, page
/// number and offset by division, wrapping past the top of the address
/// space.
#[derive(Default)]
struct RefMemory {
    pages: BTreeMap<u64, Vec<u8>>,
}

impl RefMemory {
    fn read(&self, addr: u64, width: u64) -> u64 {
        (0..width).rev().fold(0, |value, i| {
            let a = addr.wrapping_add(i);
            let byte = self
                .pages
                .get(&(a / PAGE_SIZE))
                .map_or(0, |page| page[(a % PAGE_SIZE) as usize]);
            (value << 8) | u64::from(byte)
        })
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &byte) in bytes.iter().enumerate() {
            let a = addr.wrapping_add(i as u64);
            let page = self
                .pages
                .entry(a / PAGE_SIZE)
                .or_insert_with(|| vec![0; PAGE_SIZE as usize]);
            page[(a % PAGE_SIZE) as usize] = byte;
        }
    }
}

/// Reads and writes of every width agree with the byte-wise reference
/// in value and in the pages they allocate, on page-straddling
/// accesses, at the top of the address space, and for whole images.
#[test]
fn every_width_matches_a_byte_wise_reference() {
    let mut rng = SplitMix64::new(64206);
    for _ in 0..64 {
        let mut mem = Memory::new();
        let mut reference = RefMemory::default();
        for _ in 0..256 {
            let width = [1, 2, 4, 8][rng.index(4)];
            let addr = match rng.index(3) {
                // Within 8 bytes below a page boundary.
                0 => rng.range_u64(1, 5) * PAGE_SIZE - rng.range_u64(1, 9),
                // Within 8 bytes of `u64::MAX`: wide accesses wrap.
                1 => u64::MAX - rng.range_u64(0, 8),
                _ => rng.range_u64(0, 4 * PAGE_SIZE),
            };
            match rng.index(8) {
                0..=3 => assert_eq!(
                    mem.read_uint(addr, width),
                    reference.read(addr, width),
                    "read of {width} bytes at {addr:#x}"
                ),
                4..=6 => {
                    let value = rng.next_u64();
                    mem.write_uint(addr, width, value);
                    reference.write(addr, &value.to_le_bytes()[..width as usize]);
                }
                _ => {
                    let image: Vec<u8> = (0..rng.index(2 * PAGE_SIZE as usize))
                        .map(|_| rng.next_u64() as u8)
                        .collect();
                    mem.load_image(addr, &image);
                    reference.write(addr, &image);
                }
            }
        }
        let pages: Vec<(u64, Vec<u8>)> = mem
            .pages_sorted()
            .into_iter()
            .map(|(n, page)| (n, page.to_vec()))
            .collect();
        let want: Vec<(u64, Vec<u8>)> = reference.pages.into_iter().collect();
        assert_eq!(pages, want);
    }
}
