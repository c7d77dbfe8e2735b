//! A minimal catalog mapping stored objects to block extents.
//!
//! Arrays, spill files, and strawman "tables" each own one extent — or,
//! for **growable** objects whose final size is unknown at creation time
//! (e.g. the SpMM pass-one spill, whose length is the product's nnz), a
//! *sequence* of contiguous extents appended by [`Catalog::extend`]. The
//! catalog exists so engines can account storage per object, free whole
//! objects at once (the RIOT-DB dependency-tracking hook of §4.1 drops
//! views/tables when no longer referenced), and report footprints.

use std::collections::HashMap;

use crate::device::BlockId;
use crate::error::{Result, StorageError};
use crate::pool::BufferPool;

/// Identifier of a catalogued object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

/// A contiguous run of blocks owned by one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First block of the extent.
    pub start: BlockId,
    /// Length in blocks.
    pub blocks: u64,
}

impl Extent {
    /// Block `i` of this extent (bounds-checked in debug builds).
    pub fn block(&self, i: u64) -> BlockId {
        debug_assert!(i < self.blocks, "extent block index out of range");
        self.start.offset(i)
    }
}

/// What kind of array an object stores — the dispatch tag a reopening
/// session needs before it can interpret the extent's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// A packed dense vector.
    DenseVector,
    /// A tiled dense matrix.
    DenseMatrix,
    /// A sparse matrix in the retired layout (a dense tile directory and
    /// one data page per occupied tile). Still decodable, so a catalog
    /// holding one loads and the reopen fails with a typed error instead
    /// of misreading the extent; nothing writes it any more.
    SparseTilePages,
    /// An anonymous spill/scratch stream.
    Spill,
    /// A block-compressed sparse matrix (run directory + packed tile
    /// pages).
    SparseMatrix,
}

impl ObjectKind {
    /// Stable on-disk tag for catalog serialization.
    pub fn code(self) -> u8 {
        match self {
            ObjectKind::DenseVector => 0,
            ObjectKind::DenseMatrix => 1,
            ObjectKind::SparseTilePages => 2,
            ObjectKind::Spill => 3,
            ObjectKind::SparseMatrix => 4,
        }
    }

    /// Inverse of [`ObjectKind::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(ObjectKind::DenseVector),
            1 => Some(ObjectKind::DenseMatrix),
            2 => Some(ObjectKind::SparseTilePages),
            3 => Some(ObjectKind::Spill),
            4 => Some(ObjectKind::SparseMatrix),
            _ => None,
        }
    }
}

/// Catalog-level object header: the metadata needed to reopen a stored
/// array from its name alone — kind, dimensions, layout, and the nnz
/// statistic the optimizer's density rule feeds on. Everything *below*
/// the header (the tile directory, the pages) already lives on disk; the
/// header is the missing hop from "a name in the catalog" to "a typed
/// handle".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectHeader {
    /// What the extent's bytes encode.
    pub kind: ObjectKind,
    /// Rows (vectors: length).
    pub rows: u64,
    /// Columns (vectors: 1).
    pub cols: u64,
    /// Caller-defined layout code (the array layer owns the encoding).
    pub layout: u8,
    /// Stored non-zeros (dense objects: rows x cols).
    pub nnz: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    /// The object's extents in allocation order. Fixed-size objects have
    /// exactly one; growable objects gain one per [`Catalog::extend`].
    segments: Vec<Extent>,
    /// Whether [`Catalog::extend`] is allowed (set by
    /// [`Catalog::alloc_growable`]; fixed-size objects reject growth).
    growable: bool,
    name: Option<String>,
    /// Typed reopen metadata, if the creator registered any.
    header: Option<ObjectHeader>,
}

/// Tracks live objects and their extents on one pool/device.
#[derive(Default)]
pub struct Catalog {
    next: u64,
    objects: HashMap<u64, Entry>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a new object of `blocks` blocks on `pool`.
    pub fn create(
        &mut self,
        pool: &BufferPool,
        blocks: u64,
        name: Option<&str>,
    ) -> Result<(ObjectId, Extent)> {
        let start = pool.allocate_blocks(blocks.max(1))?;
        let extent = Extent {
            start,
            blocks: blocks.max(1),
        };
        let id = ObjectId(self.next);
        self.next += 1;
        self.objects.insert(
            id.0,
            Entry {
                segments: vec![extent],
                growable: false,
                name: name.map(str::to_owned),
                header: None,
            },
        );
        Ok((id, extent))
    }

    /// Allocate a **growable** object: `blocks` blocks now, more later via
    /// [`Catalog::extend`] (fixed-size objects from [`Catalog::create`]
    /// reject growth). The returned extent is the first segment; use
    /// [`Catalog::segments`] to enumerate them all once the object has
    /// grown. This is the allocation mode for objects whose final size is
    /// only known after a producing pass (spill runs).
    pub fn alloc_growable(
        &mut self,
        pool: &BufferPool,
        blocks: u64,
        name: Option<&str>,
    ) -> Result<(ObjectId, Extent)> {
        let (id, extent) = self.create(pool, blocks, name)?;
        self.objects
            .get_mut(&id.0)
            .expect("object just created")
            .growable = true;
        Ok((id, extent))
    }

    /// Grow object `id` by a fresh contiguous run of `blocks` blocks,
    /// returning the new segment. The new blocks need not be adjacent to
    /// the object's existing extents — the object's address space is the
    /// concatenation of its segments in allocation order. Errors with
    /// [`StorageError::NotGrowable`] unless `id` came from
    /// [`Catalog::alloc_growable`].
    pub fn extend(&mut self, pool: &BufferPool, id: ObjectId, blocks: u64) -> Result<Extent> {
        // Validate before allocating so a rejected call leaves both the
        // catalog and the device allocator untouched.
        match self.objects.get(&id.0) {
            None => return Err(StorageError::UnknownObject(id.0)),
            Some(e) if !e.growable => return Err(StorageError::NotGrowable(id.0)),
            Some(_) => {}
        }
        let start = pool.allocate_blocks(blocks.max(1))?;
        let extent = Extent {
            start,
            blocks: blocks.max(1),
        };
        self.objects
            .get_mut(&id.0)
            .expect("presence checked above")
            .segments
            .push(extent);
        Ok(extent)
    }

    /// First (for fixed-size objects: only) extent of `id`.
    pub fn extent(&self, id: ObjectId) -> Result<Extent> {
        self.objects
            .get(&id.0)
            .map(|e| e.segments[0])
            .ok_or(StorageError::UnknownObject(id.0))
    }

    /// All extents of `id`, in allocation order.
    pub fn segments(&self, id: ObjectId) -> Result<Vec<Extent>> {
        self.objects
            .get(&id.0)
            .map(|e| e.segments.clone())
            .ok_or(StorageError::UnknownObject(id.0))
    }

    /// Total blocks across all of `id`'s extents.
    pub fn object_blocks(&self, id: ObjectId) -> Result<u64> {
        self.objects
            .get(&id.0)
            .map(|e| e.segments.iter().map(|s| s.blocks).sum())
            .ok_or(StorageError::UnknownObject(id.0))
    }

    /// Optional debug name of `id`.
    pub fn name(&self, id: ObjectId) -> Option<&str> {
        self.objects.get(&id.0).and_then(|e| e.name.as_deref())
    }

    /// Register reopen metadata for `id` (overwrites any prior header).
    pub fn set_header(&mut self, id: ObjectId, header: ObjectHeader) -> Result<()> {
        self.objects
            .get_mut(&id.0)
            .map(|e| e.header = Some(header))
            .ok_or(StorageError::UnknownObject(id.0))
    }

    /// Reopen metadata of `id`, if its creator registered any.
    pub fn header(&self, id: ObjectId) -> Result<Option<ObjectHeader>> {
        self.objects
            .get(&id.0)
            .map(|e| e.header)
            .ok_or(StorageError::UnknownObject(id.0))
    }

    /// Look a live object up by its exact name. Names are not enforced
    /// unique; with duplicates the lowest object id wins (deterministic:
    /// ids are allocation-ordered).
    pub fn find_by_name(&self, name: &str) -> Option<ObjectId> {
        self.objects
            .iter()
            .filter(|(_, e)| e.name.as_deref() == Some(name))
            .map(|(&raw, _)| raw)
            .min()
            .map(ObjectId)
    }

    /// Remove `id` from the catalog **without** freeing its blocks,
    /// returning its extents. The durable context orders a drop as
    /// "commit the catalog without the object, then free its blocks", so
    /// a crash in between can only leak blocks — never leave a committed
    /// catalog referencing freed ones.
    pub fn forget_object(&mut self, id: ObjectId) -> Result<Vec<Extent>> {
        self.objects
            .remove(&id.0)
            .map(|e| e.segments)
            .ok_or(StorageError::UnknownObject(id.0))
    }

    /// Drop `id`, releasing all of its blocks on `pool`.
    pub fn drop_object(&mut self, pool: &BufferPool, id: ObjectId) -> Result<()> {
        let entry = self
            .objects
            .remove(&id.0)
            .ok_or(StorageError::UnknownObject(id.0))?;
        for seg in &entry.segments {
            pool.free_blocks(seg.start, seg.blocks)?;
        }
        Ok(())
    }

    /// Ids of every live object, ascending.
    pub fn live_ids(&self) -> Vec<ObjectId> {
        let mut ids: Vec<u64> = self.objects.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter().map(ObjectId).collect()
    }

    /// A canonical rendering of the allocation state: every live object
    /// with its name and extents, ascending by id. Two catalogs whose
    /// live allocations are identical — the same objects holding the
    /// same block ranges — render byte-identically, which is how the
    /// leak-free-abort invariant compares the post-abort free list
    /// against the pre-query snapshot.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        let mut ids: Vec<u64> = self.objects.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let e = &self.objects[&id];
            out.push_str(&format!("{id}:{}", e.name.as_deref().unwrap_or("")));
            for seg in &e.segments {
                out.push_str(&format!(" {}+{}", seg.start.0, seg.blocks));
            }
            out.push('\n');
        }
        out
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no objects are live.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Total blocks held by live objects (all segments counted).
    pub fn total_blocks(&self) -> u64 {
        self.objects
            .values()
            .flat_map(|e| e.segments.iter())
            .map(|s| s.blocks)
            .sum()
    }

    /// Serialize the full catalog state deterministically (objects sorted
    /// by id), for the crash-consistent commit path
    /// ([`crate::CatalogStore`]). Two equal catalogs encode to identical
    /// bytes, so snapshot checksums are stable.
    pub fn encode(&self) -> Vec<u8> {
        fn put_u64(out: &mut Vec<u8>, v: u64) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let mut out = Vec::new();
        put_u64(&mut out, self.next);
        put_u64(&mut out, self.objects.len() as u64);
        let mut ids: Vec<u64> = self.objects.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let e = &self.objects[&id];
            put_u64(&mut out, id);
            out.push(e.growable as u8);
            match &e.name {
                Some(n) => {
                    out.push(1);
                    put_u64(&mut out, n.len() as u64);
                    out.extend_from_slice(n.as_bytes());
                }
                None => out.push(0),
            }
            match &e.header {
                Some(h) => {
                    out.push(1);
                    out.push(h.kind.code());
                    put_u64(&mut out, h.rows);
                    put_u64(&mut out, h.cols);
                    out.push(h.layout);
                    put_u64(&mut out, h.nnz);
                }
                None => out.push(0),
            }
            put_u64(&mut out, e.segments.len() as u64);
            for seg in &e.segments {
                put_u64(&mut out, seg.start.0);
                put_u64(&mut out, seg.blocks);
            }
        }
        out
    }

    /// Reconstruct a catalog from [`Catalog::encode`] bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        struct Reader<'a> {
            bytes: &'a [u8],
            pos: usize,
        }
        fn bad(msg: &str) -> StorageError {
            StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("catalog decode: {msg}"),
            ))
        }
        impl Reader<'_> {
            fn take(&mut self, n: usize) -> Result<&[u8]> {
                if self.pos + n > self.bytes.len() {
                    return Err(bad("truncated"));
                }
                let s = &self.bytes[self.pos..self.pos + n];
                self.pos += n;
                Ok(s)
            }
            fn u64(&mut self) -> Result<u64> {
                Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
            }
            fn u8(&mut self) -> Result<u8> {
                Ok(self.take(1)?[0])
            }
        }
        let mut r = Reader { bytes, pos: 0 };
        let next = r.u64()?;
        let count = r.u64()?;
        let mut objects = HashMap::new();
        for _ in 0..count {
            let id = r.u64()?;
            if id >= next {
                return Err(bad("object id beyond allocation mark"));
            }
            let growable = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(bad("bad growable flag")),
            };
            let name = match r.u8()? {
                0 => None,
                1 => {
                    let len = r.u64()? as usize;
                    let raw = r.take(len)?.to_vec();
                    Some(String::from_utf8(raw).map_err(|_| bad("name not UTF-8"))?)
                }
                _ => return Err(bad("bad name flag")),
            };
            let header = match r.u8()? {
                0 => None,
                1 => {
                    let kind =
                        ObjectKind::from_code(r.u8()?).ok_or_else(|| bad("bad object kind"))?;
                    let rows = r.u64()?;
                    let cols = r.u64()?;
                    let layout = r.u8()?;
                    let nnz = r.u64()?;
                    Some(ObjectHeader {
                        kind,
                        rows,
                        cols,
                        layout,
                        nnz,
                    })
                }
                _ => return Err(bad("bad header flag")),
            };
            let nsegs = r.u64()?;
            if nsegs == 0 {
                return Err(bad("object with no segments"));
            }
            let mut segments = Vec::with_capacity(nsegs.min(1024) as usize);
            for _ in 0..nsegs {
                let start = BlockId(r.u64()?);
                let blocks = r.u64()?;
                if blocks == 0 {
                    return Err(bad("zero-length segment"));
                }
                segments.push(Extent { start, blocks });
            }
            if objects
                .insert(
                    id,
                    Entry {
                        segments,
                        growable,
                        name,
                        header,
                    },
                )
                .is_some()
            {
                return Err(bad("duplicate object id"));
            }
        }
        if r.pos != bytes.len() {
            return Err(bad("trailing bytes"));
        }
        Ok(Catalog { next, objects })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem_device::MemBlockDevice;
    use crate::pool::PoolConfig;

    fn pool() -> BufferPool {
        BufferPool::new(Box::new(MemBlockDevice::new(64)), PoolConfig::default())
    }

    #[test]
    fn create_and_lookup() {
        let p = pool();
        let mut cat = Catalog::new();
        let (id, ext) = cat.create(&p, 4, Some("x")).unwrap();
        assert_eq!(ext.blocks, 4);
        assert_eq!(cat.extent(id).unwrap(), ext);
        assert_eq!(cat.name(id), Some("x"));
        assert_eq!(cat.total_blocks(), 4);
    }

    #[test]
    fn extents_do_not_overlap() {
        let p = pool();
        let mut cat = Catalog::new();
        let (_, a) = cat.create(&p, 3, None).unwrap();
        let (_, b) = cat.create(&p, 2, None).unwrap();
        assert!(a.start.0 + a.blocks <= b.start.0);
    }

    #[test]
    fn drop_frees_blocks() {
        let p = pool();
        let mut cat = Catalog::new();
        let (id, ext) = cat.create(&p, 2, None).unwrap();
        p.write_new(ext.block(0), |d| d[0] = 9).unwrap();
        cat.drop_object(&p, id).unwrap();
        assert!(cat.extent(id).is_err());
        assert!(p.read(ext.block(0), |_| ()).is_err());
        assert!(cat.is_empty());
    }

    #[test]
    fn zero_block_request_rounds_up_to_one() {
        let p = pool();
        let mut cat = Catalog::new();
        let (_, ext) = cat.create(&p, 0, None).unwrap();
        assert_eq!(ext.blocks, 1);
    }

    #[test]
    fn unknown_object_errors() {
        let p = pool();
        let mut cat = Catalog::new();
        assert!(cat.extent(ObjectId(42)).is_err());
        assert!(cat.drop_object(&p, ObjectId(42)).is_err());
        assert!(cat.extend(&p, ObjectId(42), 1).is_err());
        assert!(cat.segments(ObjectId(42)).is_err());
        assert!(cat.object_blocks(ObjectId(42)).is_err());
    }

    #[test]
    fn fixed_size_objects_reject_extend() {
        let p = pool();
        let mut cat = Catalog::new();
        let (id, _) = cat.create(&p, 2, None).unwrap();
        assert!(matches!(
            cat.extend(&p, id, 1),
            Err(StorageError::NotGrowable(raw)) if raw == id.0
        ));
        // The rejected call allocated nothing.
        assert_eq!(cat.object_blocks(id).unwrap(), 2);
        assert_eq!(cat.total_blocks(), 2);
    }

    #[test]
    fn growable_object_accumulates_segments() {
        let p = pool();
        let mut cat = Catalog::new();
        let (id, first) = cat.alloc_growable(&p, 2, Some("spill")).unwrap();
        assert_eq!(first.blocks, 2);
        assert_eq!(cat.object_blocks(id).unwrap(), 2);
        let second = cat.extend(&p, id, 3).unwrap();
        let third = cat.extend(&p, id, 1).unwrap();
        let segs = cat.segments(id).unwrap();
        assert_eq!(segs, vec![first, second, third]);
        assert_eq!(cat.object_blocks(id).unwrap(), 6);
        assert_eq!(cat.total_blocks(), 6);
        // extent() still answers with the first segment.
        assert_eq!(cat.extent(id).unwrap(), first);
    }

    #[test]
    fn growable_segments_do_not_overlap_interleaved_objects() {
        let p = pool();
        let mut cat = Catalog::new();
        let (a, _) = cat.alloc_growable(&p, 1, None).unwrap();
        let (b, _) = cat.create(&p, 2, None).unwrap();
        cat.extend(&p, a, 2).unwrap();
        let (c, _) = cat.create(&p, 1, None).unwrap();
        cat.extend(&p, a, 1).unwrap();
        let mut runs: Vec<Extent> = cat.segments(a).unwrap();
        runs.extend(cat.segments(b).unwrap());
        runs.extend(cat.segments(c).unwrap());
        runs.sort_by_key(|e| e.start.0);
        for w in runs.windows(2) {
            assert!(
                w[0].start.0 + w[0].blocks <= w[1].start.0,
                "extents overlap: {w:?}"
            );
        }
    }

    #[test]
    fn drop_frees_every_segment() {
        let p = pool();
        let mut cat = Catalog::new();
        let (id, first) = cat.alloc_growable(&p, 1, None).unwrap();
        let second = cat.extend(&p, id, 2).unwrap();
        p.write_new(first.block(0), |d| d[0] = 1).unwrap();
        p.write_new(second.block(1), |d| d[0] = 2).unwrap();
        cat.drop_object(&p, id).unwrap();
        assert!(cat.segments(id).is_err());
        assert_eq!(cat.total_blocks(), 0);
        // Both segments' blocks were released on the pool.
        assert!(p.read(first.block(0), |_| ()).is_err());
        assert!(p.read(second.block(1), |_| ()).is_err());
    }

    #[test]
    fn headers_register_and_objects_resolve_by_name() {
        let p = pool();
        let mut cat = Catalog::new();
        let (id, _) = cat.create(&p, 2, Some("m")).unwrap();
        assert_eq!(cat.header(id).unwrap(), None, "no header until registered");
        let h = ObjectHeader {
            kind: ObjectKind::SparseMatrix,
            rows: 8,
            cols: 4,
            layout: 2,
            nnz: 5,
        };
        cat.set_header(id, h).unwrap();
        assert_eq!(cat.header(id).unwrap(), Some(h));
        assert_eq!(cat.find_by_name("m"), Some(id));
        assert_eq!(cat.find_by_name("x"), None);
        // Duplicate names: the lowest (earliest) id wins, deterministically.
        let (id2, _) = cat.create(&p, 1, Some("m")).unwrap();
        assert_eq!(cat.find_by_name("m"), Some(id));
        cat.drop_object(&p, id).unwrap();
        assert_eq!(cat.find_by_name("m"), Some(id2));
        // Unknown ids error like every other catalog call.
        assert!(cat.set_header(ObjectId(99), h).is_err());
        assert!(cat.header(ObjectId(99)).is_err());
    }

    #[test]
    fn encode_decode_round_trips_everything() {
        let p = pool();
        let mut cat = Catalog::new();
        let (a, _) = cat.create(&p, 2, Some("m")).unwrap();
        cat.set_header(
            a,
            ObjectHeader {
                kind: ObjectKind::DenseMatrix,
                rows: 8,
                cols: 4,
                layout: 0x21,
                nnz: 32,
            },
        )
        .unwrap();
        let (g, _) = cat.alloc_growable(&p, 1, None).unwrap();
        cat.extend(&p, g, 3).unwrap();
        let (dropped, _) = cat.create(&p, 1, Some("gone")).unwrap();
        cat.drop_object(&p, dropped).unwrap();

        let bytes = cat.encode();
        assert_eq!(bytes, cat.encode(), "encoding is deterministic");
        let back = Catalog::decode(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.find_by_name("m"), Some(a));
        assert_eq!(back.header(a).unwrap(), cat.header(a).unwrap());
        assert_eq!(back.segments(g).unwrap(), cat.segments(g).unwrap());
        assert_eq!(back.total_blocks(), cat.total_blocks());
        // The allocation mark survives: new ids don't collide with dropped.
        let (fresh, _) = {
            let mut back = back;
            back.create(&p, 1, None).unwrap()
        };
        assert!(fresh.0 > dropped.0);
    }

    #[test]
    fn decode_rejects_malformed_bytes() {
        let p = pool();
        let mut cat = Catalog::new();
        cat.create(&p, 2, Some("x")).unwrap();
        let bytes = cat.encode();
        // Truncation at every prefix fails loudly, never panics.
        for cut in 0..bytes.len() {
            assert!(Catalog::decode(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        // Trailing garbage is rejected too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(Catalog::decode(&long).is_err());
        assert!(Catalog::decode(&bytes).is_ok());
    }

    #[test]
    fn zero_block_extend_rounds_up_to_one() {
        let p = pool();
        let mut cat = Catalog::new();
        let (id, _) = cat.alloc_growable(&p, 1, None).unwrap();
        let seg = cat.extend(&p, id, 0).unwrap();
        assert_eq!(seg.blocks, 1);
        assert_eq!(cat.object_blocks(id).unwrap(), 2);
    }
}
