//! Crash-consistent catalog persistence via shadow paging.
//!
//! The catalog is the root of every stored object; losing it to a crash
//! mid-update makes all data unreopenable. [`CatalogStore`] therefore
//! never updates metadata in place. A commit:
//!
//! ```text
//!  1. allocate fresh blocks, write the new catalog snapshot into them
//!  2. sync                              (snapshot durable, unreferenced)
//!  3. overwrite the OLDER of two superblock slots with a checksummed,
//!     versioned superblock pointing at the new snapshot
//!  4. sync                              (commit point)
//!  5. free the snapshot that slot previously referenced
//! ```
//!
//! Blocks 0 and 1 of the device are the two superblock slots. Each slot
//! *owns* its snapshot: step 5 only retires the overwritten slot's old
//! snapshot, after the new superblock is durable, so the fallback slot's
//! snapshot is intact at every instant. A crash after any write prefix
//! therefore recovers either the fully-old or the fully-new catalog:
//!
//! * crash in 1–2: superblocks unchanged → old catalog (new blocks leak).
//! * crash in 3 (torn superblock): the slot's self-checksum fails → the
//!   other slot, one version behind, wins → old catalog.
//! * crash in 4–5: highest-version slot is the new one, its snapshot was
//!   synced in 2 → new catalog (the un-freed old snapshot leaks).
//!
//! A slot also owns the extents of objects that its catalog still names
//! but a later commit dropped ([`CatalogStore::retire`]): they are freed
//! in step 5 together with that slot's snapshot, never earlier. So no
//! block that either slot's catalog names is ever freed, and a device
//! that takes freed space back (a [`crate::FileBlockDevice`] shrinks its
//! file once freed blocks reach its end, and then reissues those ids) can
//! never hand a block the fallback catalog references to a new owner.
//! Leaks are bounded: a crash leaks at most one snapshot, plus the
//! extents the fallback slot held, until a recovery that derives free
//! space from the catalog exists.
//!
//! Catalog *data* durability is separate: object contents still flow
//! through the buffer pool and are only durable after
//! `BufferPool::flush_all` (which ends in a sync barrier).

use crate::catalog::{Catalog, Extent};
use crate::device::{BlockDevice, BlockId};
use crate::error::{Result, StorageError};
use crate::verify::checksum64;

/// "RIOTSUP0" — identifies a formatted superblock slot.
const MAGIC: u64 = 0x5249_4F54_5355_5030;

/// Serialized superblock size: 7 little-endian u64s.
const SUPERBLOCK_LEN: usize = 56;

#[derive(Debug, Clone, Copy)]
struct Superblock {
    version: u64,
    cat_start: u64,
    cat_blocks: u64,
    cat_len: u64,
    cat_checksum: u64,
}

impl Superblock {
    fn encode(&self, block_size: usize) -> Vec<u8> {
        let mut buf = vec![0u8; block_size];
        let fields = [
            MAGIC,
            self.version,
            self.cat_start,
            self.cat_blocks,
            self.cat_len,
            self.cat_checksum,
        ];
        for (i, f) in fields.iter().enumerate() {
            buf[i * 8..i * 8 + 8].copy_from_slice(&f.to_le_bytes());
        }
        let self_ck = checksum64(&buf[..48]);
        buf[48..56].copy_from_slice(&self_ck.to_le_bytes());
        buf
    }

    /// Parse and validate a slot; `None` for anything torn, stale-zeroed,
    /// or foreign (recovery treats it as an empty slot, not an error).
    fn decode(buf: &[u8]) -> Option<Superblock> {
        if buf.len() < SUPERBLOCK_LEN {
            return None;
        }
        let f = |i: usize| u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap());
        if f(6) != checksum64(&buf[..48]) || f(0) != MAGIC || f(1) == 0 {
            return None;
        }
        Some(Superblock {
            version: f(1),
            cat_start: f(2),
            cat_blocks: f(3),
            cat_len: f(4),
            cat_checksum: f(5),
        })
    }
}

/// Per-slot recovery state: the committed version this slot holds, the
/// snapshot extent that superblock references, and the dropped objects'
/// extents its catalog still names — all owned by the slot and freed when
/// a commit overwrites it.
#[derive(Debug, Clone, Default)]
struct SlotState {
    /// 0 = slot empty/invalid.
    version: u64,
    snapshot: Option<Extent>,
    retired: Vec<Extent>,
}

/// Crash-consistent persistence for a [`Catalog`] on a [`BlockDevice`].
///
/// The store bypasses the buffer pool on purpose: superblocks and
/// snapshot blocks are exclusively owned here, never pinned as frames, so
/// direct device I/O cannot desynchronize the cache — and a commit must
/// control write ordering (write, sync, flip, sync) in a way pooled
/// frames cannot.
pub struct CatalogStore {
    block_size: usize,
    slots: [SlotState; 2],
}

impl CatalogStore {
    /// Format an **empty** device: claim blocks 0 and 1 as superblock
    /// slots and commit version 1 (an empty catalog).
    pub fn format(dev: &dyn BlockDevice) -> Result<CatalogStore> {
        let block_size = dev.block_size();
        assert!(
            block_size >= SUPERBLOCK_LEN,
            "block size too small for a superblock"
        );
        if dev.num_blocks() != 0 {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "CatalogStore::format requires an empty device",
            )));
        }
        let start = dev.allocate(2)?;
        debug_assert_eq!(start, BlockId(0));
        let sb = Superblock {
            version: 1,
            cat_start: 0,
            cat_blocks: 0,
            cat_len: 0,
            cat_checksum: checksum64(&[]),
        };
        dev.write_block(BlockId(0), &sb.encode(block_size))?;
        dev.sync()?;
        Ok(CatalogStore {
            block_size,
            slots: [
                SlotState {
                    version: 1,
                    ..SlotState::default()
                },
                SlotState::default(),
            ],
        })
    }

    /// Recover from a formatted device: pick the highest-version slot
    /// whose superblock *and* referenced snapshot both validate, falling
    /// back to the other slot otherwise. After a crash at any write
    /// boundary of [`CatalogStore::commit`], this returns either the
    /// pre-commit or the post-commit catalog — never an error, never a
    /// mix. A slot whose snapshot fails to validate opens empty: its
    /// version cannot steer the next commit onto the only valid slot, and
    /// its extent, which may be hostile, is never freed.
    pub fn open(dev: &dyn BlockDevice) -> Result<(CatalogStore, Catalog)> {
        let block_size = dev.block_size();
        let mut parsed = [None, None];
        for (i, p) in parsed.iter_mut().enumerate() {
            let mut buf = vec![0u8; block_size];
            // A slot that cannot be read (corruption, short device) is an
            // invalid slot, not a recovery failure.
            if dev.read_block(BlockId(i as u64), &mut buf).is_ok() {
                *p = Superblock::decode(&buf);
            }
        }
        let mut slots = parsed.map(|p| match p {
            Some(sb) => SlotState {
                version: sb.version,
                snapshot: (sb.cat_blocks > 0).then_some(Extent {
                    start: BlockId(sb.cat_start),
                    blocks: sb.cat_blocks,
                }),
                ..SlotState::default()
            },
            None => SlotState::default(),
        });
        // Try slots in descending version order.
        let mut order = [0usize, 1];
        if slots[1].version > slots[0].version {
            order = [1, 0];
        }
        for i in order {
            let Some(sb) = parsed[i] else { continue };
            let Ok(cat) = Self::read_snapshot(dev, block_size, &sb) else {
                slots[i] = SlotState::default();
                continue;
            };
            // The other slot's snapshot was not read. Keep it (to free at
            // the next commit) only if it lies past the superblocks, inside
            // the device, and clear of everything the recovered catalog and
            // snapshot name: a hostile extent is never freed.
            let other = 1 - i;
            let plausible = |ext: Extent| {
                let Some(end) = ext.start.0.checked_add(ext.blocks) else {
                    return false;
                };
                let overlaps =
                    |e: Extent| e.start.0 < end && ext.start.0 < e.start.0.saturating_add(e.blocks);
                ext.start.0 >= 2
                    && end <= dev.num_blocks()
                    && !cat.extents().chain(slots[i].snapshot).any(overlaps)
            };
            if !slots[other].snapshot.is_some_and(plausible) {
                slots[other].snapshot = None;
            }
            let store = CatalogStore { block_size, slots };
            return Ok((store, cat));
        }
        Err(StorageError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "no valid catalog superblock found",
        )))
    }

    fn read_snapshot(dev: &dyn BlockDevice, block_size: usize, sb: &Superblock) -> Result<Catalog> {
        let cap = sb.cat_blocks.checked_mul(block_size as u64);
        let end = sb.cat_start.checked_add(sb.cat_blocks);
        let cap = match (cap, end) {
            (Some(cap), Some(end)) if sb.cat_len <= cap && end <= dev.num_blocks() => cap,
            _ => {
                return Err(StorageError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "superblock references an impossible snapshot region",
                )))
            }
        };
        let mut bytes = vec![0u8; cap as usize];
        for i in 0..sb.cat_blocks {
            let off = (i * block_size as u64) as usize;
            dev.read_block(BlockId(sb.cat_start + i), &mut bytes[off..off + block_size])?;
        }
        bytes.truncate(sb.cat_len as usize);
        if checksum64(&bytes) != sb.cat_checksum {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "catalog snapshot checksum mismatch",
            )));
        }
        if sb.cat_blocks == 0 {
            // `format` commits version 1 without a snapshot region.
            return Ok(Catalog::new());
        }
        Catalog::decode(&bytes)
    }

    /// Durably commit `cat` (see the module docs for the write protocol).
    ///
    /// On error the device still holds the previous committed catalog and
    /// this store's state is unchanged; the caller's in-memory catalog is
    /// ahead of disk until a later commit succeeds.
    pub fn commit(&mut self, dev: &dyn BlockDevice, cat: &Catalog) -> Result<()> {
        let bytes = cat.encode();
        // Overwrite the OLDER slot: the newer one keeps the current
        // version reachable until the new superblock is durable.
        let target = self.older();
        let new_version = self.slots[0].version.max(self.slots[1].version) + 1;

        let nblocks = bytes.len().div_ceil(self.block_size) as u64;
        let start = dev.allocate(nblocks)?;
        let mut buf = vec![0u8; self.block_size];
        for i in 0..nblocks {
            let off = (i * self.block_size as u64) as usize;
            let end = bytes.len().min(off + self.block_size);
            buf[..end - off].copy_from_slice(&bytes[off..end]);
            buf[end - off..].fill(0);
            dev.write_block(start.offset(i), &buf)?;
        }
        dev.sync()?;

        let sb = Superblock {
            version: new_version,
            cat_start: start.0,
            cat_blocks: nblocks,
            cat_len: bytes.len() as u64,
            cat_checksum: checksum64(&bytes),
        };
        dev.write_block(BlockId(target as u64), &sb.encode(self.block_size))?;
        dev.sync()?;

        // Commit point passed: free what the overwritten slot owned. The
        // *other* slot's snapshot is untouched, so a crash anywhere above
        // still recovers cleanly.
        let old = std::mem::replace(
            &mut self.slots[target],
            SlotState {
                version: new_version,
                snapshot: Some(Extent {
                    start,
                    blocks: nblocks,
                }),
                retired: Vec::new(),
            },
        );
        for ext in old.snapshot.iter().chain(&old.retired) {
            dev.free(ext.start, ext.blocks)?;
        }
        Ok(())
    }

    /// Hand over the extents of objects that the last commit dropped. The
    /// fallback slot's catalog still names them, so they are freed only
    /// when a later commit overwrites that slot (step 5).
    pub fn retire(&mut self, extents: impl IntoIterator<Item = Extent>) {
        let fallback = self.older();
        self.slots[fallback].retired.extend(extents);
    }

    /// The slot holding the older version: the next commit's target.
    fn older(&self) -> usize {
        usize::from(self.slots[0].version > self.slots[1].version)
    }

    /// The committed catalog version (monotonic; 1 after format).
    pub fn version(&self) -> u64 {
        self.slots[0].version.max(self.slots[1].version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem_device::MemBlockDevice;
    use crate::pool::{BufferPool, PoolConfig};
    use std::sync::Arc;

    fn pool_over(dev: Arc<MemBlockDevice>) -> BufferPool {
        BufferPool::new(Box::new(dev), PoolConfig::default())
    }

    #[test]
    fn format_then_open_yields_empty_catalog() {
        let dev = MemBlockDevice::new(64);
        let store = CatalogStore::format(&dev).unwrap();
        assert_eq!(store.version(), 1);
        let (store2, cat) = CatalogStore::open(&dev).unwrap();
        assert_eq!(store2.version(), 1);
        assert!(cat.is_empty());
    }

    #[test]
    fn format_refuses_non_empty_devices() {
        let dev = MemBlockDevice::new(64);
        dev.allocate(1).unwrap();
        assert!(CatalogStore::format(&dev).is_err());
    }

    #[test]
    fn open_refuses_unformatted_devices() {
        let dev = MemBlockDevice::new(64);
        assert!(CatalogStore::open(&dev).is_err());
        dev.allocate(5).unwrap(); // blocks exist but hold zeros
        assert!(CatalogStore::open(&dev).is_err());
    }

    #[test]
    fn commits_round_trip_and_alternate_slots() {
        let dev = Arc::new(MemBlockDevice::new(64));
        let mut store = CatalogStore::format(&*dev).unwrap();
        let pool = pool_over(Arc::clone(&dev));
        let mut cat = Catalog::new();

        let (a, _) = cat.create(&pool, 2, Some("a")).unwrap();
        store.commit(&*dev, &cat).unwrap();
        assert_eq!(store.version(), 2);

        let (_b, _) = cat.create(&pool, 3, Some("b")).unwrap();
        store.commit(&*dev, &cat).unwrap();
        assert_eq!(store.version(), 3);

        let (_, back) = CatalogStore::open(&*dev).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.find_by_name("a"), Some(a));
        assert_eq!(back.segments(a).unwrap(), cat.segments(a).unwrap());
    }

    #[test]
    fn superseded_snapshots_are_retired() {
        let dev = MemBlockDevice::new(64);
        let mut store = CatalogStore::format(&dev).unwrap();
        let cat = Catalog::new();
        for _ in 0..10 {
            store.commit(&dev, &cat).unwrap();
        }
        // Each commit allocates one snapshot block; all but the last two
        // (one per slot) were freed again.
        assert!(
            dev.resident_bytes() <= 4 * 64,
            "snapshot churn stays bounded: {} bytes live",
            dev.resident_bytes()
        );
    }

    #[test]
    fn hostile_snapshot_extents_fall_back_instead_of_panicking() {
        let dev = Arc::new(MemBlockDevice::new(64));
        let mut store = CatalogStore::format(&*dev).unwrap();
        let pool = pool_over(Arc::clone(&dev));
        let mut cat = Catalog::new();
        cat.create(&pool, 1, Some("kept")).unwrap();
        store.commit(&*dev, &cat).unwrap(); // v2 in slot 1

        // Checksummed superblocks in slot 0 whose snapshot region
        // overflows: `cat_blocks * block_size`, then `cat_start + cat_blocks`.
        for (cat_start, cat_blocks) in [(2, u64::MAX / 2), (u64::MAX, 2)] {
            let sb = Superblock {
                version: 9,
                cat_start,
                cat_blocks,
                cat_len: 0,
                cat_checksum: checksum64(&[]),
            };
            dev.write_block(BlockId(0), &sb.encode(64)).unwrap();
            let (mut store, back) = CatalogStore::open(&*dev).unwrap();
            assert!(back.find_by_name("kept").is_some(), "read from v2");
            assert_eq!(store.version(), 2, "the hostile slot counts as empty");

            // The next commit must overwrite the hostile slot, not the only
            // valid one: tear whichever superblock it wrote, and v2 still
            // opens.
            let slots = || {
                let mut bufs = [[0u8; 64]; 2];
                for (i, buf) in bufs.iter_mut().enumerate() {
                    dev.read_block(BlockId(i as u64), buf).unwrap();
                }
                bufs
            };
            let before = slots();
            store.commit(&*dev, &back).unwrap();
            let after = slots();
            let written = (0..2).find(|&i| before[i] != after[i]).unwrap();
            dev.write_block(BlockId(written as u64), &[0xAAu8; 64])
                .unwrap();
            let (reopened, back) = CatalogStore::open(&*dev).unwrap();
            assert_eq!(reopened.version(), 2, "torn commit falls back to v2");
            assert!(back.find_by_name("kept").is_some());
        }
    }

    #[test]
    fn an_unread_slot_never_frees_live_blocks() {
        let dev = Arc::new(MemBlockDevice::new(64));
        let mut store = CatalogStore::format(&*dev).unwrap();
        let pool = pool_over(Arc::clone(&dev));
        let mut cat = Catalog::new();
        let (_, live) = cat.create(&pool, 1, Some("live")).unwrap();
        pool.write_new(live.block(0), |d| d[0] = 5).unwrap();
        pool.flush_all().unwrap();
        store.commit(&*dev, &cat).unwrap(); // v2 in slot 1

        // Slot 0 (v1, not read at open) claims the live object's block as
        // its snapshot; the next commit would free it.
        let sb = Superblock {
            version: 1,
            cat_start: live.start.0,
            cat_blocks: 1,
            cat_len: 0,
            cat_checksum: checksum64(&[]),
        };
        dev.write_block(BlockId(0), &sb.encode(64)).unwrap();
        let (mut store, back) = CatalogStore::open(&*dev).unwrap();
        assert_eq!(store.version(), 2);
        store.commit(&*dev, &back).unwrap();
        let mut buf = [0u8; 64];
        dev.read_block(live.block(0), &mut buf).unwrap();
        assert_eq!(buf[0], 5, "the live block was not freed");
    }

    #[test]
    fn dropped_extents_are_freed_with_the_slot_that_names_them() {
        let dev = Arc::new(MemBlockDevice::new(64));
        let mut store = CatalogStore::format(&*dev).unwrap();
        let pool = pool_over(Arc::clone(&dev));
        let mut cat = Catalog::new();
        let (id, ext) = cat.create(&pool, 2, Some("gone")).unwrap();
        pool.write_new(ext.block(0), |d| d[0] = 7).unwrap();
        pool.flush_all().unwrap();
        store.commit(&*dev, &cat).unwrap(); // v2 names "gone"
        cat.forget_object(id).unwrap();
        store.commit(&*dev, &cat).unwrap(); // v3 does not; v2 is the fallback
        store.retire([ext]);
        let mut buf = [0u8; 64];
        dev.read_block(ext.block(0), &mut buf).unwrap();
        assert_eq!(buf[0], 7, "still named by the fallback slot");
        store.commit(&*dev, &cat).unwrap(); // v4 overwrites the v2 slot
        assert!(dev.read_block(ext.block(0), &mut buf).is_err(), "freed");
    }

    #[test]
    fn torn_superblock_falls_back_to_previous_version() {
        let dev = Arc::new(MemBlockDevice::new(64));
        let mut store = CatalogStore::format(&*dev).unwrap();
        let pool = pool_over(Arc::clone(&dev));
        let mut cat = Catalog::new();
        cat.create(&pool, 1, Some("kept")).unwrap();
        store.commit(&*dev, &cat).unwrap(); // v2 in slot 1
        cat.create(&pool, 1, Some("lost")).unwrap();
        store.commit(&*dev, &cat).unwrap(); // v3 in slot 0

        // Scribble over slot 0's superblock: its checksum now fails.
        dev.write_block(BlockId(0), &[0xAAu8; 64]).unwrap();
        let (store2, back) = CatalogStore::open(&*dev).unwrap();
        assert_eq!(store2.version(), 2, "fell back to the v2 slot");
        assert!(back.find_by_name("kept").is_some());
        assert!(back.find_by_name("lost").is_none());
    }
}
