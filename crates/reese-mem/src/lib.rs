//! Memory system for the REESE simulators.
//!
//! This crate is the counterpart of SimpleScalar's memory and cache
//! modules: a sparse flat [`Memory`] that holds architectural state,
//! and a set-associative [`Cache`] timing model composed into a
//! two-level [`MemHierarchy`] with TLBs. Per-cycle memory-port
//! contention, central to the paper's Figure 5, is modelled by the
//! pipeline's functional-unit pool, where the ports are one unit class.
//!
//! Functional data and timing are deliberately separated: the emulator
//! reads and writes [`Memory`] directly, while the pipeline charges
//! latencies through [`MemHierarchy`].
//!
//! # Example
//!
//! ```
//! use reese_mem::{HierarchyConfig, MemHierarchy, Memory};
//!
//! let mut mem = Memory::new();
//! mem.write_u64(0x8000, 42);
//!
//! let mut timing = MemHierarchy::new(HierarchyConfig::paper());
//! let first = timing.access_data(0x8000, false);
//! let second = timing.access_data(0x8000, false);
//! assert!(first > second);
//! assert_eq!(mem.read_u64(0x8000), 42);
//! ```

mod cache;
mod hierarchy;
mod memory;
mod tlb;

pub use cache::{
    AccessKind, AccessResult, Cache, CacheConfig, CacheSnapshot, CacheStats, LineState,
};
pub use hierarchy::{HierarchyConfig, HierarchySnapshot, HierarchyStats, MemHierarchy};
pub use memory::{Memory, PAGE_SIZE};
pub use tlb::{Tlb, TlbConfig, TlbSnapshot};
