//! # riot-storage
//!
//! Out-of-core storage substrate for the RIOT reproduction (CIDR 2009,
//! "RIOT: I/O-Efficient Numerical Computing without SQL").
//!
//! The paper measures every strategy by the number of disk blocks it moves,
//! so this crate provides the one place where all I/O is performed and
//! counted:
//!
//! * [`BlockDevice`] — a fixed-block-size device abstraction with two
//!   implementations: [`MemBlockDevice`] (simulated disk held in memory,
//!   used by the experiment harness so runs are deterministic and fast) and
//!   [`FileBlockDevice`] (a real file, proving the engine genuinely works
//!   out of core).
//! * [`BufferPool`] — a **sharded, thread-safe** pin/unpin buffer manager
//!   that evicts the least recently used unpinned frame, read off each
//!   frame's own state. The pool capacity is the reproduction's analogue of
//!   the paper's `shmat(SHM_SHARE_MMU)` physical-memory cap. Pins hand out
//!   zero-copy RAII guards ([`PinnedFrame`] / [`PinnedFrameMut`]) exposing
//!   the page directly as `&[f64]` / `&mut [f64]`.
//! * [`IoStats`] — shared atomic counters recording block reads/writes and
//!   distinguishing sequential from random accesses, standing in for the
//!   paper's DTrace measurements. [`DiskModel`] converts the counters into
//!   a modeled elapsed time the way Figure 1(b) distinguishes "bulky and
//!   sequential" MySQL I/O from R's random virtual-memory paging.
//! * [`Catalog`] — a tiny extent allocator giving each stored object
//!   (vector, matrix, spill file) a contiguous block range.
//! * Fault tolerance — stackable device wrappers [`RetryDevice`]
//!   (transient-error retry with bounded exponential backoff) and
//!   [`VerifyingDevice`] (per-block checksums turning silent corruption
//!   into typed [`StorageError::Corruption`] errors), plus
//!   [`CatalogStore`], which commits catalog metadata via shadow paging
//!   so a crash at any write boundary recovers a fully-old or fully-new
//!   catalog. With zero injected faults the wrappers are bit-for-bit
//!   neutral to the counted I/O above.
//!
//! ## Concurrency
//!
//! Everything in this crate is `Send + Sync`. The buffer pool is
//! lock-striped: blocks map to shards by id, each shard owns its frames and
//! recency clock behind one mutex, and per-shard hit/miss/write-back
//! counters sum to the totals a sequential pool would report. A pool built
//! with [`BufferPool::new`] has exactly one shard and reproduces the
//! classic sequential pool's eviction order and counted I/O bit-for-bit —
//! that determinism is what keeps the paper's experiment tables
//! reproducible — while [`BufferPool::new_sharded`] enables parallel
//! kernels to pin tiles from many threads without contending on one lock.
//!
//! Device I/O is **overlapped**: miss loads, eviction write-backs, and
//! flushes run with the shard mutex dropped, tracked by an explicit
//! per-frame state machine (see the `pool` module docs for the lifecycle
//! diagram). Concurrent misses of one block coalesce into a single device
//! read; misses of distinct blocks overlap their transfers, because
//! devices take `&self` and synchronize internally
//! ([`BlockDevice::concurrent_io`] advertises genuinely parallel
//! transfers, e.g. `pread`/`pwrite` in [`FileBlockDevice`]). The
//! [`testing`] module ships the fault-injection harness ([`FailpointDevice`])
//! and hang detector ([`Watchdog`]) the interleaving tests are built on.
//!
//! ## Quick start
//!
//! ```
//! use riot_storage::{BufferPool, MemBlockDevice, PoolConfig};
//!
//! let device = MemBlockDevice::new(8192);
//! let pool = BufferPool::new(Box::new(device), PoolConfig {
//!     frames: 64,
//!     ..PoolConfig::default()
//! });
//! let block = pool.allocate_blocks(1).unwrap();
//! {
//!     let mut page = pool.pin_new(block).unwrap(); // &mut [f64], zeroed
//!     page[0] = 42.0;
//! }
//! let page = pool.pin(block).unwrap(); // &[f64], zero-copy
//! assert_eq!(page[0], 42.0);
//! ```

pub mod catalog;
pub mod commit;
pub mod device;
pub mod error;
pub mod file_device;
pub mod governor;
pub mod mem_device;
pub mod pool;
pub mod retry;
pub mod stats;
pub mod testing;
pub mod verify;

pub use catalog::{Catalog, Extent, ObjectHeader, ObjectId, ObjectKind};
pub use commit::CatalogStore;
pub use device::{BlockDevice, BlockId};
pub use error::{ErrorClass, Result, StorageError};
pub use file_device::FileBlockDevice;
pub use governor::{CancelToken, QueryGovernor, ResourceLimits};
pub use mem_device::MemBlockDevice;
pub use pool::{
    BufferPool, PinnedFrame, PinnedFrameMut, PoolConfig, PoolStats, ReplacerKind, PREFETCH_AUTO,
};
pub use retry::{RetryDevice, RetryPolicy, RetryStats};
pub use stats::{DiskModel, InFlight, IoSnapshot, IoStats};
pub use testing::{FailpointDevice, FailpointHandle, Watchdog};
pub use verify::{checksum64, VerifyingDevice};

/// Default block size used throughout the reproduction: 8 KiB = 1024 `f64`
/// elements, matching the paper's Figure 3 setting of `B = 1024` numbers per
/// block.
pub const DEFAULT_BLOCK_SIZE: usize = 8192;

/// Number of `f64` elements that fit in one block of `block_size` bytes.
pub fn elems_per_block(block_size: usize) -> usize {
    block_size / std::mem::size_of::<f64>()
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn elems_per_block_default() {
        assert_eq!(elems_per_block(DEFAULT_BLOCK_SIZE), 1024);
    }

    #[test]
    fn elems_per_block_small() {
        assert_eq!(elems_per_block(64), 8);
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufferPool>();
        assert_send_sync::<IoStats>();
        assert_send_sync::<Catalog>();
    }
}

/// Unit tests of the buffer pool's replacement rule, checked on one shard's
/// frame table: the victim is read off each frame's own state, so there is
/// no separate replacement structure to keep in step with it.
#[cfg(test)]
mod replacer {
    mod tests {
        use crate::pool::{FrameState, ShardMeta};
        use crate::BlockId;

        /// Map `block` into the next free frame, unpinned and most recently
        /// used, as a finished load publishes it.
        fn load(meta: &mut ShardMeta, block: u64) -> usize {
            let frame = meta.free.pop().expect("a free frame");
            meta.claim(frame, BlockId(block), FrameState::Resident, false);
            meta.touch(frame);
            frame
        }

        #[test]
        fn remove_forgets_frames() {
            let mut meta = ShardMeta::new(2);
            let frame = load(&mut meta, 7);
            assert_eq!(meta.victim(), Some(frame));
            assert!(!meta.unmap(frame), "never a prefetch");
            assert_eq!(meta.victim(), None);
            assert!(!meta.map.contains_key(&BlockId(7)));
            assert_eq!(meta.free.len(), 2);
        }

        #[test]
        fn victim_on_empty_policy_is_none() {
            // Free frames are `Resident` and unpinned, but unmapped.
            for frames in [1, 4] {
                assert_eq!(ShardMeta::new(frames).victim(), None, "{frames} frames");
            }
        }
    }
}
