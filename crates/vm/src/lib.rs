//! # riot-vm
//!
//! A virtual-memory paging simulator: the substrate on which the
//! reproduction runs **Plain R**, the baseline of the paper's Figure 1.
//!
//! R assumes all data fits in main memory; when it does not, the operating
//! system's demand paging swaps 8 KiB pages to disk with no knowledge of
//! the program's access pattern, and the program thrashes. The paper
//! measures this with DTrace virtual-memory statistics under a physical
//! memory cap installed via `shmat(SHM_SHARE_MMU)`.
//!
//! [`PagedHeap`] reproduces that mechanism:
//!
//! * every R vector is an *object* spanning whole pages of `f64`s;
//! * a fixed budget of physical *frames* caps residency (the memory cap);
//! * touching a non-resident page is a **page fault**: an LRU victim frame
//!   is evicted (a disk *write* if dirty) and the faulting page is read
//!   back from its swap slot (a disk *read*, unless the page was never
//!   materialized — zero-fill);
//! * objects are reference-counted like R's GC; releasing the last
//!   reference discards the object's pages *without* write-back, exactly
//!   as dead intermediate results die in R.
//!
//! Swap traffic is recorded on a [`riot_storage::IoStats`], so Plain R's
//! paging and the database engines' buffer-pool I/O are measured in the
//! same units (blocks of one page). Each object's swap slots are
//! contiguous, which lets the sequential-vs-random classifier observe what
//! the paper observed: interleaved streaming over several large vectors
//! produces scattered, expensive I/O compared with a database's bulk
//! sequential scans.

#![deny(unsafe_code)]

pub mod heap;

pub use heap::{PagedHeap, VmConfig, VmId, VmStats};

/// Default page size in `f64` elements: 1024 elements = 8 KiB, matching the
/// storage crate's default block size so I/O counts are directly
/// comparable.
pub const DEFAULT_PAGE_ELEMS: usize = 1024;
