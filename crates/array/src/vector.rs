//! Out-of-core dense vectors.
//!
//! A [`DenseVector`] stores `len` `f64` elements in consecutive element
//! *slots* across a contiguous block extent. The slot width is normally
//! one element (just the value — "no explicit storage of array indices"),
//! but can be widened to model the strawman's relational `(I, V)`
//! representation whose index column doubles storage and therefore I/O,
//! the overhead the paper blames for RIOT-DB/Strawman losing to thrashing
//! R at small n.
//!
//! Ranged reads and writes are zero-copy against the buffer pool: a pin
//! guard exposes the block's `&[f64]` directly and a single `memcpy` moves
//! each block-run, with no per-access allocation.

use std::sync::Arc;

use riot_storage::{ObjectHeader, ObjectId, ObjectKind, Result, StorageError};

use crate::context::StorageCtx;

/// A dense `f64` vector stored on a buffer pool.
#[derive(Clone)]
pub struct DenseVector {
    ctx: Arc<StorageCtx>,
    object: ObjectId,
    start_block: u64,
    len: usize,
    /// `f64` slots per element (1 = packed values; 2 = strawman `(I, V)`).
    slot_elems: usize,
}

impl DenseVector {
    /// Create a zeroed vector of `len` elements with packed 1-slot elements.
    pub fn create(ctx: &Arc<StorageCtx>, len: usize, name: Option<&str>) -> Result<Self> {
        Self::create_with_slot(ctx, len, 1, name)
    }

    /// Create a vector whose elements occupy two `f64` slots each.
    ///
    /// This models a relational `(I, V)` table: each element drags an
    /// 8-byte index along, doubling the blocks every scan touches.
    pub fn create_wide(ctx: &Arc<StorageCtx>, len: usize, name: Option<&str>) -> Result<Self> {
        Self::create_with_slot(ctx, len, 2, name)
    }

    fn create_with_slot(
        ctx: &Arc<StorageCtx>,
        len: usize,
        slot_elems: usize,
        name: Option<&str>,
    ) -> Result<Self> {
        let epb = ctx.elems_per_block();
        assert!(
            slot_elems >= 1 && epb.is_multiple_of(slot_elems),
            "bad slot width"
        );
        let per_block = epb / slot_elems;
        let blocks = len.div_ceil(per_block).max(1) as u64;
        let (object, extent) = ctx.create_object(blocks, name)?;
        // Header: rows = length, cols = 1; the layout byte records the
        // slot width so a wide (I, V) vector reopens as one.
        ctx.set_object_header(
            object,
            ObjectHeader {
                kind: ObjectKind::DenseVector,
                rows: len as u64,
                cols: 1,
                layout: slot_elems as u8,
                nnz: len as u64,
            },
        )?;
        Ok(DenseVector {
            ctx: Arc::clone(ctx),
            object,
            start_block: extent.start.0,
            len,
            slot_elems,
        })
    }

    /// Reopen a named vector from its catalog header (the vector analogue
    /// of `SparseMatrix::open`).
    pub fn open(ctx: &Arc<StorageCtx>, name: &str) -> Result<Self> {
        let cannot = |reason: &'static str| StorageError::CannotReopen {
            name: name.to_owned(),
            reason,
        };
        let object = ctx
            .find_object(name)
            .ok_or_else(|| cannot("no such object"))?;
        let header = ctx
            .object_header(object)?
            .ok_or_else(|| cannot("object has no header"))?;
        if header.kind != ObjectKind::DenseVector {
            return Err(cannot("object is not a dense vector"));
        }
        let slot_elems = header.layout as usize;
        let epb = ctx.elems_per_block();
        if header.cols != 1
            || header.nnz != header.rows
            || slot_elems == 0
            || !epb.is_multiple_of(slot_elems)
        {
            return Err(cannot("bad vector header"));
        }
        let len = header.rows as usize;
        let per_block = epb / slot_elems;
        let extent = ctx.object_extent(object)?;
        if extent.blocks != len.div_ceil(per_block).max(1) as u64 {
            return Err(cannot("extent disagrees with the length"));
        }
        Ok(DenseVector {
            ctx: Arc::clone(ctx),
            object,
            start_block: extent.start.0,
            len,
            slot_elems,
        })
    }

    /// Create and fill from a slice (costs the vector's write I/O).
    pub fn from_slice(ctx: &Arc<StorageCtx>, data: &[f64], name: Option<&str>) -> Result<Self> {
        let v = Self::create(ctx, data.len(), name)?;
        v.write_range(0, data)?;
        Ok(v)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element slots per block.
    pub fn elems_per_block(&self) -> usize {
        self.ctx.elems_per_block() / self.slot_elems
    }

    /// Blocks occupied by this vector.
    pub fn blocks(&self) -> u64 {
        (self.len.div_ceil(self.elems_per_block()).max(1)) as u64
    }

    /// The storage context this vector lives in.
    pub fn ctx(&self) -> &Arc<StorageCtx> {
        &self.ctx
    }

    /// Catalog object id (for dependency tracking).
    pub fn object(&self) -> ObjectId {
        self.object
    }

    #[inline]
    fn locate(&self, index: usize) -> (u64, usize) {
        let per_block = self.elems_per_block();
        (
            self.start_block + (index / per_block) as u64,
            (index % per_block) * self.slot_elems,
        )
    }

    /// Read one element (random access; one pool hit or one block read).
    pub fn get(&self, index: usize) -> Result<f64> {
        assert!(index < self.len, "vector index {index} out of {}", self.len);
        let (block, off) = self.locate(index);
        let page = self.ctx.pool().pin(riot_storage::BlockId(block))?;
        Ok(page[off])
    }

    /// Read the elements at the 0-based `positions` into `out` (equal
    /// lengths). One pin covers each run of consecutive positions that fall
    /// in one block, and it is dropped before the next block is pinned, so
    /// a read never holds two frames: a range costs one pin per block, a
    /// random probe one pin per element.
    pub fn read_at(&self, positions: &[usize], out: &mut [f64]) -> Result<()> {
        assert_eq!(positions.len(), out.len(), "one output per position");
        let mut page = None;
        for (o, &index) in out.iter_mut().zip(positions) {
            assert!(index < self.len, "vector index {index} out of {}", self.len);
            let (block, off) = self.locate(index);
            let frame = match page.take() {
                Some((b, frame)) if b == block => frame,
                held => {
                    // Unpin the last block before pinning this one.
                    drop(held);
                    self.ctx.pool().pin(riot_storage::BlockId(block))?
                }
            };
            *o = frame[off];
            page = Some((block, frame));
        }
        Ok(())
    }

    /// Write one element.
    pub fn set(&self, index: usize, value: f64) -> Result<()> {
        assert!(index < self.len, "vector index {index} out of {}", self.len);
        let (block, off) = self.locate(index);
        let mut page = self.ctx.pool().pin_mut(riot_storage::BlockId(block))?;
        page[off] = value;
        Ok(())
    }

    /// Hint that elements `[start, start + len)` will be read soon: the
    /// covering blocks go to the buffer pool's background prefetcher, so a
    /// streaming consumer's next window loads while the current one is
    /// processed. Free no-op when the pool's prefetcher is disabled; never
    /// changes counted I/O totals, only when the reads happen.
    pub fn prefetch_range(&self, start: usize, len: usize) {
        if start >= self.len {
            return;
        }
        let len = len.min(self.len - start);
        if len == 0 {
            return;
        }
        let per_block = self.elems_per_block();
        let first = self.start_block + (start / per_block) as u64;
        let last = self.start_block + ((start + len - 1) / per_block) as u64;
        self.ctx
            .pool()
            .prefetch((first..=last).map(riot_storage::BlockId));
    }

    /// Read `out.len()` elements starting at `start`, block at a time.
    pub fn read_range(&self, start: usize, out: &mut [f64]) -> Result<()> {
        assert!(start + out.len() <= self.len, "range out of bounds");
        let per_block = self.elems_per_block();
        let mut i = 0;
        while i < out.len() {
            let idx = start + i;
            let block = self.start_block + (idx / per_block) as u64;
            let off = idx % per_block;
            let take = (per_block - off).min(out.len() - i);
            let page = self.ctx.pool().pin(riot_storage::BlockId(block))?;
            if self.slot_elems == 1 {
                out[i..i + take].copy_from_slice(&page[off..off + take]);
            } else {
                for k in 0..take {
                    out[i + k] = page[(off + k) * self.slot_elems];
                }
            }
            i += take;
        }
        Ok(())
    }

    /// Write `data` into the vector starting at element `start`.
    ///
    /// Blocks that are covered end-to-end are written without being read
    /// first (`pin_new`), so bulk loads cost pure write I/O.
    pub fn write_range(&self, start: usize, data: &[f64]) -> Result<()> {
        assert!(start + data.len() <= self.len, "range out of bounds");
        let per_block = self.elems_per_block();
        let mut i = 0;
        while i < data.len() {
            let idx = start + i;
            let block = riot_storage::BlockId(self.start_block + (idx / per_block) as u64);
            let off = idx % per_block;
            let take = (per_block - off).min(data.len() - i);
            // A block is "fully covered" if this write spans all its slots
            // that belong to the vector.
            let covers_whole_block = off == 0 && (take == per_block || idx + take == self.len);
            let mut page = if covers_whole_block {
                let mut p = self.ctx.pool().pin_new(block)?;
                p.fill(0.0);
                p
            } else {
                self.ctx.pool().pin_mut(block)?
            };
            if self.slot_elems == 1 {
                page[off..off + take].copy_from_slice(&data[i..i + take]);
            } else {
                for k in 0..take {
                    page[(off + k) * self.slot_elems] = data[i + k];
                }
            }
            i += take;
        }
        Ok(())
    }

    /// Materialize the whole vector into memory (tests / small results).
    pub fn to_vec(&self) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.len];
        if self.len > 0 {
            self.read_range(0, &mut out)?;
        }
        Ok(out)
    }

    /// Flush this vector's dirty blocks to the device **in block order**,
    /// producing one bulky sequential write — how a storage engine
    /// persists a freshly built table, and why the paper observes
    /// "MySQL-managed I/Os are mostly bulky and sequential".
    pub fn flush(&self) -> Result<()> {
        for b in 0..self.blocks() {
            self.ctx
                .pool()
                .flush_block(riot_storage::BlockId(self.start_block + b))?;
        }
        Ok(())
    }

    /// Release the vector's storage. The handle must not be used again.
    pub fn free(self) -> Result<()> {
        self.ctx.drop_object(self.object)
    }
}

/// Streaming sequential writer used by pipelined materialization: results
/// are appended chunk by chunk and flushed block by block, producing the
/// bulk sequential write pattern the paper credits MySQL with.
pub struct VectorWriter {
    vec: DenseVector,
    filled: usize,
    buf: Vec<f64>,
}

impl VectorWriter {
    /// Start writing a fresh vector of exactly `len` elements.
    pub fn new(ctx: &Arc<StorageCtx>, len: usize, name: Option<&str>) -> Result<Self> {
        let vec = DenseVector::create(ctx, len, name)?;
        let cap = vec.elems_per_block();
        Ok(VectorWriter {
            vec,
            filled: 0,
            buf: Vec::with_capacity(cap),
        })
    }

    /// Append a chunk of elements.
    pub fn push_chunk(&mut self, chunk: &[f64]) -> Result<()> {
        let per_block = self.vec.elems_per_block();
        let mut rest = chunk;
        while !rest.is_empty() {
            let room = per_block - self.buf.len();
            let take = room.min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() == per_block {
                self.flush_buf()?;
            }
        }
        Ok(())
    }

    fn flush_buf(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.vec.write_range(self.filled, &self.buf)?;
        self.filled += self.buf.len();
        self.buf.clear();
        Ok(())
    }

    /// Elements appended so far.
    pub fn written(&self) -> usize {
        self.filled + self.buf.len()
    }

    /// Flush the tail and return the finished vector.
    ///
    /// Panics if fewer elements than declared were appended.
    pub fn finish(mut self) -> Result<DenseVector> {
        self.flush_buf()?;
        assert_eq!(
            self.filled,
            self.vec.len(),
            "writer finished before the vector was full"
        );
        Ok(self.vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(frames: usize) -> Arc<StorageCtx> {
        StorageCtx::new_mem(64, frames)
    }

    #[test]
    fn element_round_trip() {
        let c = ctx(4);
        let v = DenseVector::create(&c, 20, Some("v")).unwrap();
        v.set(0, 1.0).unwrap();
        v.set(19, -4.5).unwrap();
        assert_eq!(v.get(0).unwrap(), 1.0);
        assert_eq!(v.get(19).unwrap(), -4.5);
        assert_eq!(v.get(7).unwrap(), 0.0);
    }

    #[test]
    fn from_slice_round_trip() {
        let c = ctx(2);
        let data: Vec<f64> = (0..33).map(|i| i as f64 * 1.5).collect();
        let v = DenseVector::from_slice(&c, &data, None).unwrap();
        assert_eq!(v.to_vec().unwrap(), data);
    }

    #[test]
    fn unaligned_range_io() {
        let c = ctx(2);
        let v = DenseVector::create(&c, 30, None).unwrap();
        let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
        v.write_range(5, &data).unwrap();
        let mut out = vec![0.0; 12];
        v.read_range(3, &mut out).unwrap();
        assert_eq!(out[0], 0.0);
        assert_eq!(out[1], 0.0);
        assert_eq!(&out[2..], &data[..10]);
    }

    #[test]
    fn bulk_load_costs_pure_writes() {
        // 64-byte blocks = 8 elems; 64 elements = 8 blocks exactly.
        let c = ctx(2);
        let data: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let before = c.io_snapshot();
        let v = DenseVector::from_slice(&c, &data, None).unwrap();
        c.pool().flush_all().unwrap();
        let delta = c.io_snapshot() - before;
        assert_eq!(delta.reads, 0, "aligned bulk load must not read");
        assert_eq!(delta.writes, v.blocks());
    }

    #[test]
    fn wide_slots_double_the_blocks() {
        let c = ctx(4);
        let packed = DenseVector::create(&c, 32, None).unwrap();
        let wide = DenseVector::create_wide(&c, 32, None).unwrap();
        assert_eq!(packed.blocks() * 2, wide.blocks());
        // Values still round-trip.
        wide.set(31, 9.0).unwrap();
        assert_eq!(wide.get(31).unwrap(), 9.0);
    }

    #[test]
    fn sequential_scan_of_large_vector_is_sequential_io() {
        let c = ctx(2); // tiny pool: everything spills
        let data: Vec<f64> = (0..80).map(|i| i as f64).collect();
        let v = DenseVector::from_slice(&c, &data, None).unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let got = v.to_vec().unwrap();
        assert_eq!(got, data);
        let delta = c.io_snapshot() - before;
        assert_eq!(delta.reads, v.blocks());
        assert!(
            delta.seq_reads >= delta.reads - 1,
            "scan must be sequential"
        );
    }

    #[test]
    fn free_releases_storage() {
        let c = ctx(4);
        let v = DenseVector::create(&c, 10, None).unwrap();
        assert_eq!(c.live_objects(), 1);
        v.free().unwrap();
        assert_eq!(c.live_objects(), 0);
    }

    #[test]
    fn writer_streams_and_finishes() {
        let c = ctx(2);
        let mut w = VectorWriter::new(&c, 25, None).unwrap();
        for chunk in (0..25).map(|i| i as f64).collect::<Vec<_>>().chunks(7) {
            w.push_chunk(chunk).unwrap();
        }
        assert_eq!(w.written(), 25);
        let v = w.finish().unwrap();
        assert_eq!(
            v.to_vec().unwrap(),
            (0..25).map(|i| i as f64).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "finished before")]
    fn writer_rejects_short_finish() {
        let c = ctx(2);
        let mut w = VectorWriter::new(&c, 10, None).unwrap();
        w.push_chunk(&[1.0, 2.0]).unwrap();
        let _ = w.finish();
    }

    #[test]
    fn empty_vector_is_fine() {
        let c = ctx(2);
        let v = DenseVector::create(&c, 0, None).unwrap();
        assert!(v.is_empty());
        assert_eq!(v.to_vec().unwrap(), Vec::<f64>::new());
    }
}
