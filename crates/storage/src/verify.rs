//! Block corruption detection: a checksumming [`BlockDevice`] wrapper.
//!
//! A numerical system that owns its I/O path must not consume bit-flipped
//! or torn blocks as f64 data — a silently corrupted tile poisons every
//! downstream kernel. [`VerifyingDevice`] maintains one 64-bit FNV-1a
//! checksum per data block in a dedicated on-device checksum region,
//! updated on every write and validated on every read; a mismatch raises
//! typed [`StorageError::Corruption`] instead of returning garbage.
//!
//! # Layout: interleaved checksum groups
//!
//! The wrapper virtualizes block ids. With `C = block_size / 8` checksum
//! slots per block, inner (physical) blocks are laid out in groups of
//! `C + 1`: the first block of each group holds the checksums for the `C`
//! data blocks that follow it.
//!
//! ```text
//! physical: | ck₀ | d₀ d₁ … d_{C-1} | ck₁ | d_C … d_{2C-1} | …
//! logical:          0  1 …  C-1            C  …  2C-1
//! ```
//!
//! `physical(L) = (L/C)·(C+1) + 1 + L%C`. Interleaving keeps the layout
//! append-friendly (growing the device never relocates checksums) and
//! makes the logical high-water mark reconstructible from the inner
//! device's size alone, so reopening a device after a crash needs no
//! separate metadata.
//!
//! # Counted-I/O neutrality
//!
//! The wrapper exposes its *own* [`IoStats`] recording **logical** ids:
//! observers (the buffer pool, experiment harnesses) see exactly the
//! traffic they issued — same totals, same sequentiality ledger — while
//! the inner device's stats separately show physical traffic including
//! checksum maintenance. A checksum slot value of `0` means
//! "never written" (computed checksums of 0 are stored as 1), so
//! allocated-but-unwritten blocks still read back as zeros without
//! tripping validation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use riot_trace::{EventKind, Tracer};

use crate::device::{BlockDevice, BlockId};
use crate::error::{Result, StorageError};
use crate::stats::IoStats;

/// 64-bit FNV-1a. Small, dependency-free, and plenty for fault *detection*
/// (we defend against bit rot and torn writes, not adversaries).
pub fn checksum64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct VerifyInner {
    /// Logical bump-allocation high-water mark.
    logical_len: u64,
    /// Write-through cache of checksum blocks, keyed by physical id.
    ck_cache: HashMap<u64, Box<[u8]>>,
}

/// A [`BlockDevice`] wrapper that checksums every block.
///
/// The wrapper owns the inner device's allocator: all allocation must flow
/// through it (stack it directly under the pool, or under a
/// [`crate::RetryDevice`]).
pub struct VerifyingDevice<D: BlockDevice> {
    inner: D,
    /// Checksum slots per checksum block (`block_size / 8`).
    slots: u64,
    stats: Arc<IoStats>,
    corruptions: Arc<AtomicU64>,
    tracer: Arc<Tracer>,
    state: Mutex<VerifyInner>,
}

impl<D: BlockDevice> VerifyingDevice<D> {
    /// Wrap `inner`, adopting any existing contents.
    ///
    /// The logical size is reconstructed from the inner device's block
    /// count, so reopening a previously verified device (e.g. a
    /// [`crate::FileBlockDevice`] after a crash) picks up exactly where it
    /// left off.
    pub fn new(inner: D) -> Self {
        let bs = inner.block_size();
        assert!(
            bs >= 8 && bs.is_multiple_of(8),
            "block size must be a multiple of 8"
        );
        let slots = (bs / 8) as u64;
        let total = inner.num_blocks();
        // Invert the group layout: a complete group of (slots+1) physical
        // blocks carries `slots` logical ones; a partial group's first
        // block is its checksum block.
        let full = total / (slots + 1);
        let rem = total % (slots + 1);
        let logical_len = full * slots + rem.saturating_sub(1);
        VerifyingDevice {
            inner,
            slots,
            stats: IoStats::new_shared(),
            corruptions: Arc::new(AtomicU64::new(0)),
            tracer: Arc::new(Tracer::new()),
            state: Mutex::new(VerifyInner {
                logical_len,
                ck_cache: HashMap::new(),
            }),
        }
    }

    /// Record every checksum mismatch into `tracer` as a typed
    /// [`EventKind::Corruption`] event, alongside the typed error the read
    /// already raises. Share the pool's tracer so corruptions land on the
    /// same timeline as the pins that discovered them.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Checksum mismatches detected so far (shareable observer handle).
    pub fn corruption_count(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.corruptions)
    }

    /// Checksum mismatches detected so far.
    pub fn corruptions_detected(&self) -> u64 {
        self.corruptions.load(Ordering::Relaxed)
    }

    /// Physical (inner-device) id of logical block `l` — for tests that
    /// target fault injection at specific underlying blocks.
    pub fn physical_of(&self, l: BlockId) -> BlockId {
        BlockId((l.0 / self.slots) * (self.slots + 1) + 1 + l.0 % self.slots)
    }

    /// Physical id of the checksum block covering logical block `l`.
    pub fn checksum_block_of(&self, l: BlockId) -> BlockId {
        BlockId((l.0 / self.slots) * (self.slots + 1))
    }

    fn lock(&self) -> MutexGuard<'_, VerifyInner> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn check_bounds(&self, state: &VerifyInner, id: BlockId) -> Result<()> {
        if id.0 >= state.logical_len {
            return Err(StorageError::OutOfBounds {
                block: id,
                num_blocks: state.logical_len,
            });
        }
        Ok(())
    }

    /// The stored checksum for logical block `l`, loading the checksum
    /// block into the cache if needed. Caller holds the state lock.
    fn load_slot(&self, state: &mut VerifyInner, l: BlockId) -> Result<u64> {
        let ck_block = self.checksum_block_of(l);
        let bs = self.inner.block_size();
        if let std::collections::hash_map::Entry::Vacant(e) = state.ck_cache.entry(ck_block.0) {
            let mut buf = vec![0u8; bs].into_boxed_slice();
            self.inner.read_block(ck_block, &mut buf)?;
            e.insert(buf);
        }
        let buf = &state.ck_cache[&ck_block.0];
        let off = (l.0 % self.slots) as usize * 8;
        Ok(u64::from_le_bytes(buf[off..off + 8].try_into().unwrap()))
    }

    /// Set the stored checksum for `l` and write the checksum block
    /// through to the inner device. Caller holds the state lock.
    fn store_slot(&self, state: &mut VerifyInner, l: BlockId, value: u64) -> Result<()> {
        let ck_block = self.checksum_block_of(l);
        self.load_slot(state, l)?; // ensure cached
        let buf = state.ck_cache.get_mut(&ck_block.0).unwrap();
        let off = (l.0 % self.slots) as usize * 8;
        buf[off..off + 8].copy_from_slice(&value.to_le_bytes());
        self.inner
            .write_block(ck_block, state.ck_cache.get(&ck_block.0).unwrap())
    }

    /// Non-zero checksum for `data` (0 is the never-written sentinel).
    fn compute(data: &[u8]) -> u64 {
        match checksum64(data) {
            0 => 1,
            c => c,
        }
    }
}

impl<D: BlockDevice> BlockDevice for VerifyingDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.lock().logical_len
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
        {
            let state = self.lock();
            self.check_bounds(&state, id)?;
        }
        // The data transfer runs without the state lock so reads of
        // distinct blocks overlap like the inner device allows.
        self.inner.read_block(self.physical_of(id), buf)?;
        let mut state = self.lock();
        let stored = self.load_slot(&mut state, id)?;
        if stored != 0 && stored != Self::compute(buf) {
            self.corruptions.fetch_add(1, Ordering::Relaxed);
            self.tracer.record(EventKind::Corruption { block: id.0 });
            return Err(StorageError::Corruption { block: id });
        }
        drop(state);
        self.stats.record_read(id, buf.len());
        Ok(())
    }

    fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()> {
        {
            let state = self.lock();
            self.check_bounds(&state, id)?;
        }
        self.inner.write_block(self.physical_of(id), buf)?;
        // Data landed; now record its checksum. A failure here fails the
        // write — conservatively, the block reads as corrupt until it is
        // successfully rewritten, which beats silently skipping validation.
        let mut state = self.lock();
        self.store_slot(&mut state, id, Self::compute(buf))?;
        drop(state);
        self.stats.record_write(id, buf.len());
        Ok(())
    }

    fn allocate(&self, n: u64) -> Result<BlockId> {
        let mut state = self.lock();
        let start = state.logical_len;
        let new_len = start + n;
        // Grow the inner device far enough to hold the last new logical
        // block (and its group's checksum block).
        let phys_needed = if new_len == 0 {
            0
        } else {
            self.physical_of(BlockId(new_len - 1)).0 + 1
        };
        let have = self.inner.num_blocks();
        if phys_needed > have {
            self.inner.allocate(phys_needed - have)?;
        }
        state.logical_len = new_len;
        Ok(BlockId(start))
    }

    fn free(&self, start: BlockId, n: u64) -> Result<()> {
        let state = self.lock();
        for i in 0..n {
            self.check_bounds(&state, BlockId(start.0 + i))?;
        }
        drop(state);
        // Free each data block's physical backing. Checksum blocks stay:
        // logical ids are never reused, so a stale slot can never validate
        // a new block's contents.
        for i in 0..n {
            self.inner.free(self.physical_of(BlockId(start.0 + i)), 1)?;
        }
        Ok(())
    }

    fn stats(&self) -> Arc<IoStats> {
        // Logical traffic only — checksum maintenance stays off the
        // ledger, keeping the wrapper counted-I/O neutral for observers.
        Arc::clone(&self.stats)
    }

    fn concurrent_io(&self) -> bool {
        self.inner.concurrent_io()
    }

    fn persistent(&self) -> bool {
        self.inner.persistent()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()?;
        // Counted on the logical ledger too, so a stacked pool observes
        // exactly the sync barriers a bare one would.
        self.stats.record_sync();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem_device::MemBlockDevice;

    fn verified() -> VerifyingDevice<MemBlockDevice> {
        VerifyingDevice::new(MemBlockDevice::new(64))
    }

    #[test]
    fn checksum64_is_stable_and_input_sensitive() {
        let a = checksum64(b"hello");
        assert_eq!(a, checksum64(b"hello"));
        assert_ne!(a, checksum64(b"hellp"));
        assert_ne!(checksum64(&[0u8; 64]), checksum64(&[0u8; 63]));
    }

    #[test]
    fn round_trip_validates() {
        let d = verified();
        let b = d.allocate(3).unwrap();
        assert_eq!(b, BlockId(0));
        let mut data = [0u8; 64];
        data[5] = 99;
        d.write_block(b.offset(1), &data).unwrap();
        let mut out = [0u8; 64];
        d.read_block(b.offset(1), &mut out).unwrap();
        assert_eq!(out[5], 99);
    }

    #[test]
    fn unwritten_blocks_read_zero_without_tripping() {
        let d = verified();
        let b = d.allocate(1).unwrap();
        let mut out = [1u8; 64];
        d.read_block(b, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn layout_maps_ids_into_groups() {
        let d = verified(); // 64-byte blocks -> 8 slots per checksum block
        assert_eq!(d.physical_of(BlockId(0)), BlockId(1));
        assert_eq!(d.physical_of(BlockId(7)), BlockId(8));
        assert_eq!(d.physical_of(BlockId(8)), BlockId(10));
        assert_eq!(d.checksum_block_of(BlockId(3)), BlockId(0));
        assert_eq!(d.checksum_block_of(BlockId(8)), BlockId(9));
    }

    #[test]
    fn bit_flip_is_detected_as_typed_corruption() {
        let mem = Arc::new(MemBlockDevice::new(64));
        let d = VerifyingDevice::new(Arc::clone(&mem));
        let b = d.allocate(1).unwrap();
        d.write_block(b, &[42u8; 64]).unwrap();

        // Flip a bit behind the wrapper's back.
        let phys = d.physical_of(b);
        let mut raw = [0u8; 64];
        mem.read_block(phys, &mut raw).unwrap();
        raw[10] ^= 0x04;
        mem.write_block(phys, &raw).unwrap();

        let mut out = [0u8; 64];
        match d.read_block(b, &mut out) {
            Err(StorageError::Corruption { block }) => assert_eq!(block, b),
            other => panic!("expected Corruption, got {other:?}"),
        }

        // Rewriting the block heals it.
        d.write_block(b, &[42u8; 64]).unwrap();
        d.read_block(b, &mut out).unwrap();
        assert_eq!(out[0], 42);
    }

    #[test]
    fn stats_record_logical_traffic_only() {
        let d = verified();
        let b = d.allocate(10).unwrap();
        for i in 0..10 {
            d.write_block(b.offset(i), &[i as u8; 64]).unwrap();
        }
        let mut out = [0u8; 64];
        for i in 0..10 {
            d.read_block(b.offset(i), &mut out).unwrap();
        }
        let snap = d.stats().snapshot();
        assert_eq!((snap.reads, snap.writes), (10, 10));
        // Logical ids 0..10 are consecutive even across the physical gap
        // between groups (logical 7 -> 8 crosses a checksum block).
        assert_eq!(snap.seq_reads, 9);
        assert_eq!(snap.seq_writes, 9);
        // The inner device saw strictly more: checksum-block traffic.
        let inner = d.inner().stats().snapshot();
        assert!(inner.writes > 10, "checksum writes on the inner ledger");
    }

    #[test]
    fn reopen_reconstructs_logical_size() {
        let mem = Arc::new(MemBlockDevice::new(64));
        let d = VerifyingDevice::new(Arc::clone(&mem));
        let b = d.allocate(11).unwrap(); // crosses a group boundary (8 slots)
        d.write_block(b.offset(10), &[5u8; 64]).unwrap();
        drop(d);

        let d2 = VerifyingDevice::new(Arc::clone(&mem));
        assert_eq!(d2.num_blocks(), 11);
        let mut out = [0u8; 64];
        d2.read_block(BlockId(10), &mut out).unwrap();
        assert_eq!(out[0], 5);
        // Allocation continues from the reconstructed high-water mark.
        assert_eq!(d2.allocate(1).unwrap(), BlockId(11));
    }

    #[test]
    fn out_of_bounds_logical_access_fails() {
        let d = verified();
        d.allocate(2).unwrap();
        let mut out = [0u8; 64];
        assert!(matches!(
            d.read_block(BlockId(2), &mut out),
            Err(StorageError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn freed_blocks_fail_reads_and_ids_are_not_reused() {
        let d = verified();
        let b = d.allocate(2).unwrap();
        d.write_block(b, &[1u8; 64]).unwrap();
        d.free(b, 1).unwrap();
        let mut out = [0u8; 64];
        assert!(d.read_block(b, &mut out).is_err());
        assert_eq!(d.allocate(1).unwrap(), BlockId(2));
    }
}
