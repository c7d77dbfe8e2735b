//! Shared storage context: one buffer pool + one catalog.
//!
//! Everything an engine stores — input arrays, materialized views,
//! strawman tables, spill runs — lives in a single [`StorageCtx`], so one
//! `IoStats` observes the engine's entire footprint, mirroring how the
//! paper monitors all of MySQL's data and index files together.
//!
//! The context is `Send + Sync`: the pool is internally sharded and the
//! catalog sits behind a mutex, so parallel kernels share one
//! `Arc<StorageCtx>` across worker threads.
//!
//! ## Durable mode
//!
//! A context built with [`StorageCtx::new_durable`] (or recovered with
//! [`StorageCtx::open`]) additionally owns a
//! [`riot_storage::CatalogStore`]: every catalog mutation
//! is committed to the device via shadow paging before the mutating call
//! returns, so after a crash at any write boundary
//! [`StorageCtx::open`] recovers a fully-old or fully-new catalog.
//! Object *contents* become durable at [`StorageCtx::commit`] (flush +
//! sync + catalog commit) — metadata consistency is continuous, data
//! durability is checkpointed. Non-durable contexts skip all of this and
//! are bit-for-bit I/O-neutral with pre-durability builds.

use std::sync::{Arc, Mutex};

use riot_storage::{
    BufferPool, Catalog, CatalogStore, Extent, IoSnapshot, IoStats, MemBlockDevice, ObjectHeader,
    ObjectId, PoolConfig, QueryGovernor, Result,
};

/// A buffer pool plus an object catalog, shared by every array.
pub struct StorageCtx {
    pool: BufferPool,
    catalog: Mutex<Catalog>,
    /// `Some` in durable mode. Lock order: `catalog` before `store`.
    store: Option<Mutex<CatalogStore>>,
    /// The context's query governor (disengaged — one relaxed atomic
    /// load per checkpoint — until limits or a cancel token attach).
    /// Shared with the pool, which consults it on the pin path.
    governor: Arc<QueryGovernor>,
}

/// Build the context's governor and attach it to `pool` so pin waits
/// observe cancellation and pin admission sees `max_pinned_frames`.
fn governed(pool: BufferPool) -> (BufferPool, Arc<QueryGovernor>) {
    let governor = Arc::new(QueryGovernor::new(pool.io_stats()));
    pool.attach_governor(Arc::clone(&governor));
    (pool, governor)
}

impl StorageCtx {
    /// Context over a fresh in-memory simulated device.
    ///
    /// `frames` is the memory cap in blocks; `block_size` is in bytes. The
    /// pool has a single shard, reproducing sequential eviction order
    /// exactly (use [`StorageCtx::new_mem_sharded`] for parallel kernels).
    pub fn new_mem(block_size: usize, frames: usize) -> Arc<Self> {
        Self::new_mem_sharded(block_size, frames, 1)
    }

    /// Context over an in-memory device with a lock-striped pool, for
    /// multi-threaded kernels.
    pub fn new_mem_sharded(block_size: usize, frames: usize, shards: usize) -> Arc<Self> {
        Self::new_mem_opts(
            block_size,
            PoolConfig {
                frames,
                ..PoolConfig::default()
            },
            shards,
        )
    }

    /// Context over an in-memory device with full [`PoolConfig`] control —
    /// the constructor for pools with plan-driven prefetching enabled
    /// (`config.prefetch_depth > 0`; the [`riot_storage::PREFETCH_AUTO`]
    /// default resolves to `0` here because the in-memory device is not
    /// persistent — pass an explicit depth to prefetch over memory).
    pub fn new_mem_opts(block_size: usize, config: PoolConfig, shards: usize) -> Arc<Self> {
        let device = MemBlockDevice::new(block_size);
        let (pool, governor) = governed(BufferPool::new_sharded(Box::new(device), config, shards));
        Arc::new(StorageCtx {
            pool,
            catalog: Mutex::new(Catalog::new()),
            store: None,
            governor,
        })
    }

    /// Context over an arbitrary pool (e.g. one backed by a real file).
    pub fn from_pool(pool: BufferPool) -> Arc<Self> {
        let (pool, governor) = governed(pool);
        Arc::new(StorageCtx {
            pool,
            catalog: Mutex::new(Catalog::new()),
            store: None,
            governor,
        })
    }

    /// **Durable** context over an empty device: formats a
    /// [`CatalogStore`] (superblocks at blocks 0–1) and commits every
    /// catalog mutation from here on. Reopen after a crash or clean
    /// shutdown with [`StorageCtx::open`] over the same device.
    pub fn new_durable(pool: BufferPool) -> Result<Arc<Self>> {
        let store = CatalogStore::format(pool.device())?;
        let (pool, governor) = governed(pool);
        Ok(Arc::new(StorageCtx {
            pool,
            catalog: Mutex::new(Catalog::new()),
            store: Some(Mutex::new(store)),
            governor,
        }))
    }

    /// Recover a durable context from a formatted device, yielding the
    /// last successfully committed catalog (fully-old or fully-new across
    /// any crash boundary — see [`CatalogStore::open`]).
    pub fn open(pool: BufferPool) -> Result<Arc<Self>> {
        let (store, catalog) = CatalogStore::open(pool.device())?;
        let (pool, governor) = governed(pool);
        Ok(Arc::new(StorageCtx {
            pool,
            catalog: Mutex::new(catalog),
            store: Some(Mutex::new(store)),
            governor,
        }))
    }

    /// Whether catalog mutations are being durably committed.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// Committed catalog version (durable contexts only; monotonic).
    pub fn catalog_version(&self) -> Option<u64> {
        self.store.as_ref().map(|s| s.lock().unwrap().version())
    }

    /// Checkpoint everything: flush dirty pages (ends in a device sync
    /// barrier), then durably commit the catalog. After this returns, a
    /// crash loses nothing. No-op beyond the flush on non-durable
    /// contexts.
    pub fn commit(&self) -> Result<()> {
        // Data first, then metadata — the snapshot must never be the only
        // durable reference to contents still sitting dirty in the pool.
        self.pool.flush_all()?;
        let cat = self.catalog.lock().unwrap();
        self.commit_locked(&cat)
    }

    /// Commit the (caller-locked) catalog if this context is durable.
    /// On error the device keeps the previous committed catalog; memory
    /// is ahead of disk until a later commit succeeds.
    fn commit_locked(&self, cat: &Catalog) -> Result<()> {
        match &self.store {
            Some(store) => store.lock().unwrap().commit(self.pool.device(), cat),
            None => Ok(()),
        }
    }

    /// The underlying buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.pool.block_size()
    }

    /// `f64` elements per block.
    pub fn elems_per_block(&self) -> usize {
        riot_storage::elems_per_block(self.pool.block_size())
    }

    /// Allocate a new object of `blocks` blocks.
    pub fn create_object(&self, blocks: u64, name: Option<&str>) -> Result<(ObjectId, Extent)> {
        self.governor.charge_temp_blocks(blocks.max(1))?;
        let mut cat = self.catalog.lock().unwrap();
        let r = cat.create(&self.pool, blocks, name)?;
        self.commit_locked(&cat)?;
        Ok(r)
    }

    /// Allocate a **growable** object of `blocks` initial blocks; grow it
    /// later with [`StorageCtx::extend_object`]. Used for spill runs whose
    /// final size is only known after a producing pass.
    pub fn alloc_growable(&self, blocks: u64, name: Option<&str>) -> Result<(ObjectId, Extent)> {
        self.governor.charge_temp_blocks(blocks.max(1))?;
        let mut cat = self.catalog.lock().unwrap();
        let r = cat.alloc_growable(&self.pool, blocks, name)?;
        self.commit_locked(&cat)?;
        Ok(r)
    }

    /// Grow object `id` by a fresh contiguous run of `blocks` blocks,
    /// returning the new segment (not necessarily adjacent to the old
    /// ones — the object's address space is its segment concatenation).
    pub fn extend_object(&self, id: ObjectId, blocks: u64) -> Result<Extent> {
        self.governor.charge_temp_blocks(blocks.max(1))?;
        let mut cat = self.catalog.lock().unwrap();
        let r = cat.extend(&self.pool, id, blocks)?;
        self.commit_locked(&cat)?;
        Ok(r)
    }

    /// All extents of object `id`, in allocation order.
    pub fn object_segments(&self, id: ObjectId) -> Result<Vec<Extent>> {
        self.catalog.lock().unwrap().segments(id)
    }

    /// First extent of object `id` (fixed-size objects have exactly one).
    pub fn object_extent(&self, id: ObjectId) -> Result<Extent> {
        self.catalog.lock().unwrap().extent(id)
    }

    /// Register reopen metadata for `id` (kind, dims, layout, nnz): the
    /// catalog-level object header a later session resolves a name into a
    /// typed handle through.
    pub fn set_object_header(&self, id: ObjectId, header: ObjectHeader) -> Result<()> {
        let mut cat = self.catalog.lock().unwrap();
        cat.set_header(id, header)?;
        self.commit_locked(&cat)
    }

    /// Reopen metadata of `id`, if its creator registered any.
    pub fn object_header(&self, id: ObjectId) -> Result<Option<ObjectHeader>> {
        self.catalog.lock().unwrap().header(id)
    }

    /// Look a live object up by name (lowest id wins on duplicates).
    pub fn find_object(&self, name: &str) -> Option<ObjectId> {
        self.catalog.lock().unwrap().find_by_name(name)
    }

    /// Drop an object, releasing all of its blocks. In durable mode the
    /// catalog is committed *without* the object and its frames are
    /// dropped at once, but its blocks go to the superblock slot whose
    /// catalog still names it ([`CatalogStore::retire`]) and are freed when
    /// a later commit overwrites that slot — so no catalog a recovery could
    /// pick ever references freed (or reissued) blocks.
    pub fn drop_object(&self, id: ObjectId) -> Result<()> {
        let mut cat = self.catalog.lock().unwrap();
        let Some(store) = &self.store else {
            return cat.drop_object(&self.pool, id);
        };
        let segs = cat.forget_object(id)?;
        self.commit_locked(&cat)?;
        for seg in &segs {
            self.pool.discard_blocks(seg.start, seg.blocks);
        }
        store.lock().unwrap().retire(segs);
        Ok(())
    }

    /// Blocks held by live objects.
    pub fn total_blocks(&self) -> u64 {
        self.catalog.lock().unwrap().total_blocks()
    }

    /// Number of live objects.
    pub fn live_objects(&self) -> usize {
        self.catalog.lock().unwrap().len()
    }

    /// Ids of every live object, ascending (the abort path diffs this
    /// against a query-start snapshot to find half-built outputs).
    pub fn live_object_ids(&self) -> Vec<ObjectId> {
        self.catalog.lock().unwrap().live_ids()
    }

    /// Canonical rendering of the catalog's allocation state (see
    /// [`riot_storage::Catalog::fingerprint`]); byte-equal fingerprints
    /// mean byte-equal free lists.
    pub fn catalog_fingerprint(&self) -> String {
        self.catalog.lock().unwrap().fingerprint()
    }

    /// This context's query governor: attach limits / cancel tokens and
    /// place checkpoints through it. Disengaged (inert) by default.
    pub fn governor(&self) -> &Arc<QueryGovernor> {
        &self.governor
    }

    /// Shared I/O counters of the device.
    pub fn io(&self) -> Arc<IoStats> {
        self.pool.io_stats()
    }

    /// Convenience: current I/O snapshot.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.pool.io_stats().snapshot()
    }

    /// The pool's execution tracer (disabled by default; enable it to
    /// collect typed storage/kernel events — see `riot_trace`).
    pub fn tracer(&self) -> &Arc<riot_trace::Tracer> {
        self.pool.tracer()
    }

    /// Flush and empty the cache (used between measured strategies).
    pub fn clear_cache(&self) -> Result<()> {
        self.pool.clear_cache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_drop_objects() {
        let ctx = StorageCtx::new_mem(64, 8);
        let (id, ext) = ctx.create_object(3, Some("x")).unwrap();
        assert_eq!(ext.blocks, 3);
        assert_eq!(ctx.total_blocks(), 3);
        assert_eq!(ctx.live_objects(), 1);
        ctx.drop_object(id).unwrap();
        assert_eq!(ctx.total_blocks(), 0);
    }

    #[test]
    fn growable_objects_extend_and_free() {
        let ctx = StorageCtx::new_mem(64, 8);
        let (id, first) = ctx.alloc_growable(1, Some("spill")).unwrap();
        let second = ctx.extend_object(id, 2).unwrap();
        assert_eq!(ctx.object_segments(id).unwrap(), vec![first, second]);
        assert_eq!(ctx.total_blocks(), 3);
        ctx.drop_object(id).unwrap();
        assert_eq!(ctx.total_blocks(), 0);
    }

    #[test]
    fn elems_per_block_tracks_block_size() {
        let ctx = StorageCtx::new_mem(512, 4);
        assert_eq!(ctx.elems_per_block(), 64);
    }

    #[test]
    fn io_snapshot_starts_clean() {
        let ctx = StorageCtx::new_mem(64, 8);
        assert_eq!(ctx.io_snapshot().total_blocks(), 0);
    }

    #[test]
    fn context_is_shareable_across_threads() {
        let ctx = StorageCtx::new_mem_sharded(64, 16, 4);
        assert_eq!(ctx.pool().num_shards(), 4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ctx = Arc::clone(&ctx);
                s.spawn(move || {
                    let (_, ext) = ctx.create_object(2, None).unwrap();
                    ctx.pool()
                        .write_new(ext.block(0), |d| d[0] = t as u8)
                        .unwrap();
                });
            }
        });
        assert_eq!(ctx.live_objects(), 4);
        assert_eq!(ctx.total_blocks(), 8);
    }
}
