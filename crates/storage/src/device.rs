//! The block-device abstraction all I/O flows through.

use std::fmt;
use std::sync::Arc;

use crate::error::Result;
use crate::stats::IoStats;

/// Identifier of one fixed-size block on a device.
///
/// Block ids are dense: a device with `n` blocks exposes ids `0..n`.
/// Sequentiality accounting (see [`IoStats`]) is defined on consecutive ids,
/// mirroring contiguous placement on a physical disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

impl BlockId {
    /// The block `offset` blocks after this one.
    pub fn offset(self, offset: u64) -> BlockId {
        BlockId(self.0 + offset)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A device that stores fixed-size blocks and counts every transfer.
///
/// Implementations must:
/// * validate buffer lengths against [`BlockDevice::block_size`],
/// * record each successful read/write on the shared [`IoStats`],
/// * zero-fill blocks that were allocated but never written.
///
/// All methods take `&self`: the buffer pool dispatches misses, eviction
/// write-backs, and flushes from many threads *without* an external device
/// lock, so devices own their synchronization. A device with a single
/// internal lock is correct but serializes transfers; devices whose
/// transfers genuinely proceed in parallel for distinct blocks advertise it
/// through [`BlockDevice::concurrent_io`] (see [`crate::FileBlockDevice`]'s
/// positioned-I/O path and [`crate::MemBlockDevice`]'s read-write lock).
pub trait BlockDevice: Send + Sync {
    /// Size of one block in bytes.
    fn block_size(&self) -> usize;

    /// Current device size in blocks: one past the highest allocated id.
    fn num_blocks(&self) -> u64;

    /// Read the block `id` into `buf` (`buf.len() == block_size`).
    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()>;

    /// Write `buf` (`buf.len() == block_size`) to block `id`.
    fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()>;

    /// Allocate `n` contiguous zeroed blocks at the end of the device,
    /// returning the first id.
    ///
    /// Allocation itself performs no I/O: a fresh block only costs a write
    /// when its contents are eventually flushed, exactly like extending a
    /// file does not read the new pages.
    fn allocate(&self, n: u64) -> Result<BlockId>;

    /// Release `n` blocks starting at `start`.
    ///
    /// Devices may reclaim the space. [`crate::MemBlockDevice`] drops the
    /// memory and never reissues an id; [`crate::FileBlockDevice`] shrinks
    /// its file once freed blocks reach its end, and a later `allocate`
    /// reissues those ids, zero-filled. So a block must be freed only once
    /// nothing can read it again (see [`crate::BufferPool::free_blocks`]
    /// and [`crate::CatalogStore::retire`]).
    fn free(&self, start: BlockId, n: u64) -> Result<()>;

    /// The shared traffic counters for this device.
    fn stats(&self) -> Arc<IoStats>;

    /// Concurrent-I/O capability flag: `true` when reads of *distinct*
    /// blocks genuinely overlap in time (positioned I/O or striped state,
    /// rather than one internal lock held across the whole transfer).
    ///
    /// The buffer pool's overlapped miss path is correct either way — this
    /// flag only tells observers (benchmarks, the interleaving tests)
    /// whether wall-clock overlap can be expected from the device itself.
    fn concurrent_io(&self) -> bool {
        false
    }

    /// Persistence flag: `true` when blocks survive the process (a real
    /// file or durable backend), `false` for purely in-memory devices.
    ///
    /// The buffer pool uses this to resolve [`crate::pool::PREFETCH_AUTO`]:
    /// prefetch workers only pay off when a miss actually waits on a
    /// device, so AUTO keeps prefetch disabled over in-memory backends and
    /// enables it for persistent ones.
    fn persistent(&self) -> bool {
        false
    }

    /// Force previously written blocks to stable storage.
    ///
    /// A successful `write_block` only guarantees the data reached the
    /// device's cache; durability claims (pool flush, catalog commit)
    /// require a sync barrier afterwards. The default is a no-op, correct
    /// for devices with no volatile cache ([`crate::MemBlockDevice`]);
    /// [`crate::FileBlockDevice`] issues `fdatasync`. Wrapper devices
    /// forward to their inner device. Syncs are counted on [`IoStats`].
    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// Boxed devices forward every call, so `Box<dyn BlockDevice>` (the pool's
/// own storage) is itself a device and wrappers can stack over it.
impl<D: BlockDevice + ?Sized> BlockDevice for Box<D> {
    fn block_size(&self) -> usize {
        (**self).block_size()
    }
    fn num_blocks(&self) -> u64 {
        (**self).num_blocks()
    }
    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
        (**self).read_block(id, buf)
    }
    fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()> {
        (**self).write_block(id, buf)
    }
    fn allocate(&self, n: u64) -> Result<BlockId> {
        (**self).allocate(n)
    }
    fn free(&self, start: BlockId, n: u64) -> Result<()> {
        (**self).free(start, n)
    }
    fn stats(&self) -> Arc<IoStats> {
        (**self).stats()
    }
    fn concurrent_io(&self) -> bool {
        (**self).concurrent_io()
    }
    fn persistent(&self) -> bool {
        (**self).persistent()
    }
    fn sync(&self) -> Result<()> {
        (**self).sync()
    }
}

/// Shared devices forward too: a crash-recovery test builds one
/// `Arc<MemBlockDevice>`, hands a clone to the "pre-crash" pool, drops that
/// pool (losing its cache, like a crash), and reopens a second pool over
/// the same Arc to observe exactly the blocks that made it to the device.
impl<D: BlockDevice + ?Sized> BlockDevice for Arc<D> {
    fn block_size(&self) -> usize {
        (**self).block_size()
    }
    fn num_blocks(&self) -> u64 {
        (**self).num_blocks()
    }
    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
        (**self).read_block(id, buf)
    }
    fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()> {
        (**self).write_block(id, buf)
    }
    fn allocate(&self, n: u64) -> Result<BlockId> {
        (**self).allocate(n)
    }
    fn free(&self, start: BlockId, n: u64) -> Result<()> {
        (**self).free(start, n)
    }
    fn stats(&self) -> Arc<IoStats> {
        (**self).stats()
    }
    fn concurrent_io(&self) -> bool {
        (**self).concurrent_io()
    }
    fn persistent(&self) -> bool {
        (**self).persistent()
    }
    fn sync(&self) -> Result<()> {
        (**self).sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_id_offset_and_display() {
        let b = BlockId(5);
        assert_eq!(b.offset(3), BlockId(8));
        assert_eq!(format!("{b}"), "#5");
    }

    #[test]
    fn block_id_ordering() {
        assert!(BlockId(1) < BlockId(2));
        assert_eq!(BlockId(7), BlockId(7));
    }

    #[test]
    fn devices_are_object_safe_and_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn BlockDevice>();
    }
}
