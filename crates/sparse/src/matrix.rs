//! The out-of-core sparse matrix: tile directory + per-tile pages.

use std::collections::HashMap;
use std::sync::Arc;

use riot_array::{DenseMatrix, MatrixLayout, StorageCtx, TileOrder};
use riot_storage::{
    BlockId, ObjectHeader, ObjectId, ObjectKind, PinnedFrame, Result, StorageError,
};

use crate::csr_capacity;

/// Directory entry for one tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSlot {
    /// Index of the tile's data page, or [`TileSlot::EMPTY`].
    pub page: u32,
    /// Non-zero count of the tile.
    pub nnz: u32,
}

impl TileSlot {
    /// Sentinel page index marking an empty (all-zero) tile.
    pub const EMPTY: u32 = u32::MAX;

    /// True when the tile has no stored page.
    pub fn is_empty(&self) -> bool {
        self.page == Self::EMPTY
    }
}

/// A `rows x cols` sparse matrix stored as block-compressed tiles.
///
/// See the crate docs for the page layout. Handles are cheap clones; the
/// tile directory is cached in the handle behind an `Arc`.
#[derive(Clone)]
pub struct SparseMatrix {
    ctx: Arc<StorageCtx>,
    object: ObjectId,
    start_block: u64,
    rows: usize,
    cols: usize,
    tile_r: usize,
    tile_c: usize,
    layout: MatrixLayout,
    tr: u64,
    tc: u64,
    dir_blocks: u64,
    pages: u64,
    nnz: u64,
    dir: Arc<Vec<TileSlot>>,
}

/// Internal: per-tile COO buckets used while building.
struct TileBuckets {
    tc: u64,
    tile_r: usize,
    tile_c: usize,
    /// Entries per tile (row-major tile order), local (r, c, v), sorted.
    tiles: Vec<Vec<(usize, usize, f64)>>,
}

impl TileBuckets {
    fn new(rows: usize, cols: usize, tile_r: usize, tile_c: usize) -> Self {
        let tr = rows.div_ceil(tile_r) as u64;
        let tc = cols.div_ceil(tile_c) as u64;
        TileBuckets {
            tc,
            tile_r,
            tile_c,
            tiles: vec![Vec::new(); (tr * tc) as usize],
        }
    }

    fn insert(&mut self, r: usize, c: usize, v: f64) {
        let (ti, tj) = (r / self.tile_r, c / self.tile_c);
        let t = ti * self.tc as usize + tj;
        self.tiles[t].push((r % self.tile_r, c % self.tile_c, v));
    }

    fn finish(&mut self) {
        for t in &mut self.tiles {
            t.sort_unstable_by_key(|&(r, c, _)| (r, c));
        }
    }
}

impl SparseMatrix {
    /// Build from COO triplets `(row, col, value)` (0-based). Duplicate
    /// coordinates are summed (R's `sparseMatrix` semantics); explicit and
    /// summed-to-zero entries are dropped.
    pub fn from_triplets(
        ctx: &Arc<StorageCtx>,
        rows: usize,
        cols: usize,
        layout: MatrixLayout,
        triplets: &[(usize, usize, f64)],
        name: Option<&str>,
    ) -> Result<Self> {
        assert!(rows > 0 && cols > 0, "sparse matrices must be non-empty");
        let epb = ctx.elems_per_block();
        let (tile_r, tile_c) = layout.tile_dims(epb);
        // Sum duplicates first so nnz per tile is exact.
        let mut cells: HashMap<(usize, usize), f64> = HashMap::new();
        for &(r, c, v) in triplets {
            assert!(r < rows && c < cols, "triplet ({r}, {c}) out of bounds");
            *cells.entry((r, c)).or_insert(0.0) += v;
        }
        let mut buckets = TileBuckets::new(rows, cols, tile_r, tile_c);
        for ((r, c), v) in cells {
            if v != 0.0 {
                buckets.insert(r, c, v);
            }
        }
        buckets.finish();
        Self::build(ctx, rows, cols, layout, buckets, name)
    }

    /// Compress a stored dense matrix into sparse form, tile by tile.
    ///
    /// Reads each dense tile exactly once; memory use is one tile. The
    /// sparse matrix inherits the dense matrix's tile aspect ratio.
    pub fn from_dense(m: &DenseMatrix, name: Option<&str>) -> Result<Self> {
        let ctx = m.ctx();
        let (rows, cols) = m.shape();
        let (tile_r, tile_c) = m.tile_dims();
        let mut buckets = TileBuckets::new(rows, cols, tile_r, tile_c);
        m.for_each(|r, c, v| {
            if v != 0.0 {
                buckets.insert(r, c, v);
            }
        })?;
        buckets.finish();
        Self::build(ctx, rows, cols, m.layout(), buckets, name)
    }

    /// Allocate a sparse matrix whose per-tile nnz counts are known in
    /// advance (row-major tile order), with data pages left unwritten.
    ///
    /// This is the first phase of the two-pass SpMM kernel: pass one counts
    /// per-output-tile nnz, this call lays out the directory and extent,
    /// and pass two fills each page with [`SparseMatrix::write_tile`].
    pub fn create_with_plan(
        ctx: &Arc<StorageCtx>,
        rows: usize,
        cols: usize,
        layout: MatrixLayout,
        tile_nnz: &[u32],
        name: Option<&str>,
    ) -> Result<Self> {
        assert!(rows > 0 && cols > 0, "sparse matrices must be non-empty");
        let epb = ctx.elems_per_block();
        let (tile_r, tile_c) = layout.tile_dims(epb);
        let tr = rows.div_ceil(tile_r) as u64;
        let tc = cols.div_ceil(tile_c) as u64;
        assert_eq!(tile_nnz.len() as u64, tr * tc, "plan covers the tile grid");
        let mut dir = Vec::with_capacity(tile_nnz.len());
        let mut pages = 0u32;
        let mut nnz = 0u64;
        for &n in tile_nnz {
            if n == 0 {
                dir.push(TileSlot {
                    page: TileSlot::EMPTY,
                    nnz: 0,
                });
            } else {
                dir.push(TileSlot {
                    page: pages,
                    nnz: n,
                });
                pages += 1;
                nnz += u64::from(n);
            }
        }
        Self::allocate(
            ctx,
            Dims {
                rows,
                cols,
                tile_r,
                tile_c,
                layout,
                tr,
                tc,
            },
            dir,
            u64::from(pages),
            nnz,
            name,
        )
    }

    fn build(
        ctx: &Arc<StorageCtx>,
        rows: usize,
        cols: usize,
        layout: MatrixLayout,
        buckets: TileBuckets,
        name: Option<&str>,
    ) -> Result<Self> {
        let tile_nnz: Vec<u32> = buckets.tiles.iter().map(|t| t.len() as u32).collect();
        let m = Self::create_with_plan(ctx, rows, cols, layout, &tile_nnz, name)?;
        for (t, entries) in buckets.tiles.iter().enumerate() {
            if !entries.is_empty() {
                m.write_tile_entries(m.dir[t].page, entries)?;
            }
        }
        Ok(m)
    }

    /// Allocate the extent and persist the directory through the pool.
    fn allocate(
        ctx: &Arc<StorageCtx>,
        d: Dims,
        dir: Vec<TileSlot>,
        pages: u64,
        nnz: u64,
        name: Option<&str>,
    ) -> Result<Self> {
        let epb = ctx.elems_per_block();
        assert!(
            epb >= 2 && epb.is_multiple_of(2),
            "directory entries need an even element count per block"
        );
        let ntiles = (d.tr * d.tc) as usize;
        let dir_blocks = (2 * ntiles).div_ceil(epb).max(1) as u64;
        let (object, extent) = ctx.create_object(dir_blocks + pages, name)?;
        // Catalog-level object header: with it, a later session holding
        // only the name can rebuild this handle from storage alone (see
        // [`SparseMatrix::open`]).
        ctx.set_object_header(
            object,
            ObjectHeader {
                kind: ObjectKind::SparseMatrix,
                rows: d.rows as u64,
                cols: d.cols as u64,
                layout: d.layout.code(),
                nnz,
            },
        )?;
        // Write the directory: 2 slots per tile, zero-padded tail.
        for b in 0..dir_blocks {
            let mut page = ctx.pool().pin_new(extent.start.offset(b))?;
            page.fill(0.0);
            let first = (b as usize * epb) / 2;
            for (k, slot) in dir.iter().enumerate().skip(first).take(epb / 2) {
                let off = 2 * k - b as usize * epb;
                // `take(epb / 2)` bounds k so entries never straddle a
                // block (epb is asserted even above).
                debug_assert!(off + 1 < epb, "directory entry within block");
                page[off] = if slot.is_empty() {
                    -1.0
                } else {
                    f64::from(slot.page)
                };
                page[off + 1] = f64::from(slot.nnz);
            }
        }
        Ok(SparseMatrix {
            ctx: Arc::clone(ctx),
            object,
            start_block: extent.start.0,
            rows: d.rows,
            cols: d.cols,
            tile_r: d.tile_r,
            tile_c: d.tile_c,
            layout: d.layout,
            tr: d.tr,
            tc: d.tc,
            dir_blocks,
            pages,
            nnz,
            dir: Arc::new(dir),
        })
    }

    /// Reopen a named sparse matrix **from storage alone**: resolve
    /// `name` through the catalog, validate its [`ObjectHeader`], derive
    /// the tiling from the header's layout, and re-read the persisted
    /// tile directory through the pool (so the reads are counted). The
    /// rebuilt handle is fully equivalent to the one
    /// [`SparseMatrix::from_triplets`] returned — no in-memory state from
    /// the creating call is consulted.
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
        if header.kind != ObjectKind::SparseMatrix {
            return Err(cannot("object is not a sparse matrix"));
        }
        let layout =
            MatrixLayout::from_code(header.layout).ok_or_else(|| cannot("bad layout code"))?;
        let (rows, cols) = (header.rows as usize, header.cols as usize);
        let epb = ctx.elems_per_block();
        let (tile_r, tile_c) = layout.tile_dims(epb);
        let tr = rows.div_ceil(tile_r) as u64;
        let tc = cols.div_ceil(tile_c) as u64;
        let ntiles = (tr * tc) as usize;
        let dir_blocks = (2 * ntiles).div_ceil(epb).max(1) as u64;
        let extent = ctx.object_extent(object)?;
        let mut handle = SparseMatrix {
            ctx: Arc::clone(ctx),
            object,
            start_block: extent.start.0,
            rows,
            cols,
            tile_r,
            tile_c,
            layout,
            tr,
            tc,
            dir_blocks,
            pages: 0,
            nnz: header.nnz,
            dir: Arc::new(Vec::new()),
        };
        // The on-disk directory is the authority for page slots and
        // per-tile nnz; the header's total cross-checks it.
        let dir = handle.read_dir()?;
        let pages = dir.iter().filter(|s| !s.is_empty()).count() as u64;
        let nnz: u64 = dir.iter().map(|s| u64::from(s.nnz)).sum();
        if nnz != header.nnz || extent.blocks < dir_blocks + pages {
            return Err(cannot("directory disagrees with the header"));
        }
        handle.pages = pages;
        handle.dir = Arc::new(dir);
        Ok(handle)
    }

    /// Matrix dimensions `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Tile dimensions `(tile_rows, tile_cols)` in elements.
    pub fn tile_dims(&self) -> (usize, usize) {
        (self.tile_r, self.tile_c)
    }

    /// Tile grid dimensions `(tiles_down, tiles_across)`.
    pub fn tile_grid(&self) -> (u64, u64) {
        (self.tr, self.tc)
    }

    /// The tile aspect ratio this matrix was created with.
    pub fn layout(&self) -> MatrixLayout {
        self.layout
    }

    /// Total stored non-zeros.
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// Fraction of elements that are non-zero.
    pub fn density(&self) -> f64 {
        self.nnz as f64 / (self.rows * self.cols) as f64
    }

    /// Number of occupied data pages (tiles with at least one non-zero).
    pub fn occupied_pages(&self) -> u64 {
        self.pages
    }

    /// Number of directory blocks at the head of the extent.
    pub fn dir_blocks(&self) -> u64 {
        self.dir_blocks
    }

    /// Total blocks of the extent (directory + data pages).
    pub fn blocks(&self) -> u64 {
        self.dir_blocks + self.pages
    }

    /// Blocks the dense equivalent of this matrix would occupy.
    pub fn dense_blocks(&self) -> u64 {
        self.tr * self.tc
    }

    /// Storage context.
    pub fn ctx(&self) -> &Arc<StorageCtx> {
        &self.ctx
    }

    /// Catalog object id.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Directory entry of tile `(ti, tj)`.
    pub fn slot(&self, ti: u64, tj: u64) -> TileSlot {
        debug_assert!(ti < self.tr && tj < self.tc, "tile out of grid");
        self.dir[(ti * self.tc + tj) as usize]
    }

    fn page_block(&self, slot: u32) -> BlockId {
        BlockId(self.start_block + self.dir_blocks + u64::from(slot))
    }

    /// Block id of the data page backing tile `(ti, tj)`, or `None` for
    /// an empty tile — a directory lookup only (no I/O). The prefetch
    /// windows below are built from this mapping.
    pub fn tile_page_block(&self, ti: u64, tj: u64) -> Option<BlockId> {
        let slot = self.slot(ti, tj);
        (!slot.is_empty()).then(|| self.page_block(slot.page))
    }

    /// Prefetch every occupied page of tile-row `ti`: the next strip of a
    /// tile-row-walking kernel (`spmv`, `spmdm`, `dmspm`) loads in the
    /// background while the current strip computes. Planning is pure
    /// directory-cache lookup; a free no-op when the pool's prefetcher is
    /// disabled.
    pub fn prefetch_tile_row(&self, ti: u64) {
        if ti >= self.tr || self.ctx.pool().prefetch_depth() == 0 {
            return;
        }
        let blocks: Vec<BlockId> = (0..self.tc)
            .filter_map(|tj| self.tile_page_block(ti, tj))
            .collect();
        self.ctx.pool().prefetch(&blocks);
    }

    /// Prefetch every occupied page of tile-column `tj` — the input
    /// window of the transpose's next output tile-row.
    pub fn prefetch_tile_col(&self, tj: u64) {
        if tj >= self.tc || self.ctx.pool().prefetch_depth() == 0 {
            return;
        }
        let blocks: Vec<BlockId> = (0..self.tr)
            .filter_map(|ti| self.tile_page_block(ti, tj))
            .collect();
        self.ctx.pool().prefetch(&blocks);
    }

    /// Pin tile `(ti, tj)` for reading; `None` when the tile is empty (no
    /// page exists, no I/O happens).
    pub fn tile(&self, ti: u64, tj: u64) -> Result<Option<SparseTile<'_>>> {
        let slot = self.slot(ti, tj);
        if slot.is_empty() {
            return Ok(None);
        }
        let page = self.ctx.pool().pin(self.page_block(slot.page))?;
        let cap = csr_capacity(self.ctx.elems_per_block(), self.tile_r);
        Ok(Some(SparseTile {
            page,
            nnz: slot.nnz as usize,
            tile_r: self.tile_r,
            tile_c: self.tile_c,
            csr: slot.nnz as usize <= cap,
        }))
    }

    /// Encode `entries` (local `(r, c, v)`, sorted by `(r, c)`) into the
    /// data page at `slot`.
    fn write_tile_entries(&self, slot: u32, entries: &[(usize, usize, f64)]) -> Result<()> {
        let epb = self.ctx.elems_per_block();
        let cap = csr_capacity(epb, self.tile_r);
        let mut page = self.ctx.pool().pin_new(self.page_block(slot))?;
        page.fill(0.0);
        if entries.len() <= cap {
            // CSR: offsets | cols | values.
            let base_c = self.tile_r + 1;
            let base_v = base_c + entries.len();
            let mut k = 0usize;
            for r in 0..self.tile_r {
                page[r] = k as f64;
                while k < entries.len() && entries[k].0 == r {
                    page[base_c + k] = entries[k].1 as f64;
                    page[base_v + k] = entries[k].2;
                    k += 1;
                }
            }
            page[self.tile_r] = k as f64;
        } else {
            for &(r, c, v) in entries {
                page[r * self.tile_c + c] = v;
            }
        }
        Ok(())
    }

    /// Fill the planned tile `(ti, tj)` from local `(row, col, value)`
    /// entries sorted by `(row, col)` with no duplicates. The entry count
    /// must match the plan given to [`SparseMatrix::create_with_plan`].
    ///
    /// This is the streaming counterpart of [`SparseMatrix::write_tile`]:
    /// producers that already hold the non-zeros (a transposed tile, a
    /// spilled SpMM plan) write them directly instead of scattering into a
    /// dense scratch that is immediately re-scanned.
    pub fn write_tile_entries_at(
        &self,
        ti: u64,
        tj: u64,
        entries: &[(usize, usize, f64)],
    ) -> Result<()> {
        let slot = self.slot(ti, tj);
        assert_eq!(
            entries.len(),
            slot.nnz as usize,
            "tile ({ti}, {tj}) nnz diverged from the plan"
        );
        debug_assert!(
            entries
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "tile entries must be sorted by (row, col) without duplicates"
        );
        debug_assert!(
            entries
                .iter()
                .all(|&(r, c, _)| r < self.tile_r && c < self.tile_c),
            "tile entries out of tile bounds"
        );
        if !entries.is_empty() {
            self.write_tile_entries(slot.page, entries)?;
        }
        Ok(())
    }

    /// Native transpose: build `self` transposed as a new sparse matrix by
    /// streaming the tile directory in transposed order, never
    /// densifying.
    ///
    /// The transposed directory is **derived from the cached directory
    /// alone** — tile `(j, i)` of the output is tile `(i, j)` of the input
    /// with the same nnz — so planning costs zero I/O. Each occupied input
    /// page is then read exactly once (in transposed directory order), its
    /// CSR entries re-sorted per tile, and written to the output page. The
    /// output uses [`MatrixLayout::transposed`], so tiles stay one block
    /// and the mapping stays one-to-one.
    ///
    /// Counted I/O: `occupied_pages` reads + (`occupied_pages` +
    /// `dir_blocks`) writes once flushed — pinned by the kernel tests.
    pub fn transpose(&self, name: Option<&str>) -> Result<SparseMatrix> {
        let layout = self.layout.transposed();
        // Plan in output row-major tile order: out (i', j') <- in (j', i').
        let mut plan = Vec::with_capacity((self.tr * self.tc) as usize);
        for oi in 0..self.tc {
            for oj in 0..self.tr {
                plan.push(self.slot(oj, oi).nnz);
            }
        }
        let out = Self::create_with_plan(&self.ctx, self.cols, self.rows, layout, &plan, name)?;
        debug_assert_eq!(
            out.tile_dims(),
            (self.tile_c, self.tile_r),
            "transposed layout keeps the tile mapping one-to-one"
        );
        let mut entries = Vec::new();
        for oi in 0..out.tr {
            // Declared access pattern: the next output tile-row reads
            // input tile-column `oi + 1`; let it load in the background
            // while this row's pages re-sort.
            if oi + 1 < out.tr {
                self.prefetch_tile_col(oi + 1);
            }
            for oj in 0..out.tc {
                let Some(tile) = self.tile(oj, oi)? else {
                    continue;
                };
                entries.clear();
                tile.for_each(|r, c, v| entries.push((c, r, v)));
                entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
                drop(tile);
                out.write_tile_entries_at(oi, oj, &entries)?;
            }
        }
        Ok(out)
    }

    /// Fill the planned tile `(ti, tj)` from a dense row-major scratch of
    /// `tile_r * tile_c` elements. The scratch's non-zero count must match
    /// the plan given to [`SparseMatrix::create_with_plan`].
    pub fn write_tile(&self, ti: u64, tj: u64, scratch: &[f64]) -> Result<()> {
        assert_eq!(scratch.len(), self.tile_r * self.tile_c, "tile scratch");
        let slot = self.slot(ti, tj);
        let mut entries = Vec::with_capacity(slot.nnz as usize);
        for r in 0..self.tile_r {
            for c in 0..self.tile_c {
                let v = scratch[r * self.tile_c + c];
                if v != 0.0 {
                    entries.push((r, c, v));
                }
            }
        }
        assert_eq!(
            entries.len(),
            slot.nnz as usize,
            "tile ({ti}, {tj}) nnz diverged from the plan"
        );
        if !entries.is_empty() {
            self.write_tile_entries(slot.page, &entries)?;
        }
        Ok(())
    }

    /// Read one element (random access: one directory lookup in memory,
    /// at most one page pin).
    pub fn get(&self, r: usize, c: usize) -> Result<f64> {
        assert!(r < self.rows && c < self.cols, "sparse index out of bounds");
        let (ti, tj) = ((r / self.tile_r) as u64, (c / self.tile_c) as u64);
        match self.tile(ti, tj)? {
            None => Ok(0.0),
            Some(tile) => Ok(tile.get(r % self.tile_r, c % self.tile_c)),
        }
    }

    /// Decompress into a fresh dense matrix with the same tiling. Only
    /// occupied pages are read; empty tiles are written as zeros.
    pub fn to_dense(&self, order: TileOrder, name: Option<&str>) -> Result<DenseMatrix> {
        let out = DenseMatrix::create(&self.ctx, self.rows, self.cols, self.layout, order, name)?;
        let mut scratch = vec![0.0; self.tile_r * self.tile_c];
        for ti in 0..self.tr {
            for tj in 0..self.tc {
                scratch.fill(0.0);
                if let Some(tile) = self.tile(ti, tj)? {
                    tile.for_each(|r, c, v| scratch[r * self.tile_c + c] = v);
                }
                out.write_tile(ti, tj, &scratch)?;
            }
        }
        Ok(out)
    }

    /// Materialize as a row-major `Vec` (tests / small results). Reads
    /// only occupied pages.
    pub fn to_rows(&self) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.rows * self.cols];
        for ti in 0..self.tr {
            for tj in 0..self.tc {
                if let Some(tile) = self.tile(ti, tj)? {
                    let (r0, c0) = (ti as usize * self.tile_r, tj as usize * self.tile_c);
                    tile.for_each(|r, c, v| out[(r0 + r) * self.cols + (c0 + c)] = v);
                }
            }
        }
        Ok(out)
    }

    /// Re-read the tile directory from its on-disk blocks (through the
    /// pool, so the reads are counted). The cached in-handle copy is
    /// written from the same encoding at construction; this method exists
    /// so tests can verify the persisted header and so future sessions
    /// could reopen a matrix from storage alone.
    pub fn read_dir(&self) -> Result<Vec<TileSlot>> {
        let epb = self.ctx.elems_per_block();
        let ntiles = (self.tr * self.tc) as usize;
        let mut out = Vec::with_capacity(ntiles);
        for b in 0..self.dir_blocks {
            let page = self.ctx.pool().pin(BlockId(self.start_block + b))?;
            let first = (b as usize * epb) / 2;
            for k in first..(first + epb / 2).min(ntiles) {
                let off = 2 * k - b as usize * epb;
                let raw = page[off];
                out.push(TileSlot {
                    page: if raw < 0.0 {
                        TileSlot::EMPTY
                    } else {
                        raw as u32
                    },
                    nnz: page[off + 1] as u32,
                });
            }
        }
        Ok(out)
    }

    /// Release the matrix's storage. The handle must not be used again.
    pub fn free(self) -> Result<()> {
        self.ctx.drop_object(self.object)
    }
}

/// Construction-time dimensions bundle (keeps `allocate` under the
/// argument-count lint and the fields named).
struct Dims {
    rows: usize,
    cols: usize,
    tile_r: usize,
    tile_c: usize,
    layout: MatrixLayout,
    tr: u64,
    tc: u64,
}

/// A pinned, decoded view of one occupied tile. The underlying page stays
/// pinned (and the decode is zero-copy off the pinned `&[f64]`) until the
/// view is dropped.
pub struct SparseTile<'p> {
    page: PinnedFrame<'p>,
    nnz: usize,
    tile_r: usize,
    tile_c: usize,
    csr: bool,
}

impl SparseTile<'_> {
    /// Non-zeros stored in this tile.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// True when the tile is stored in CSR form (dense form otherwise).
    pub fn is_csr(&self) -> bool {
        self.csr
    }

    /// Element at local `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.tile_r && c < self.tile_c);
        if self.csr {
            let (start, end) = self.row_bounds(r);
            let base_c = self.tile_r + 1;
            let base_v = base_c + self.nnz;
            for k in start..end {
                if self.page[base_c + k] as usize == c {
                    return self.page[base_v + k];
                }
            }
            0.0
        } else {
            self.page[r * self.tile_c + c]
        }
    }

    fn row_bounds(&self, r: usize) -> (usize, usize) {
        (self.page[r] as usize, self.page[r + 1] as usize)
    }

    /// Visit every stored non-zero as local `(row, col, value)`, in
    /// row-major order.
    pub fn for_each(&self, mut f: impl FnMut(usize, usize, f64)) {
        if self.csr {
            let base_c = self.tile_r + 1;
            let base_v = base_c + self.nnz;
            for r in 0..self.tile_r {
                let (start, end) = self.row_bounds(r);
                for k in start..end {
                    f(r, self.page[base_c + k] as usize, self.page[base_v + k]);
                }
            }
        } else {
            for r in 0..self.tile_r {
                for c in 0..self.tile_c {
                    let v = self.page[r * self.tile_c + c];
                    if v != 0.0 {
                        f(r, c, v);
                    }
                }
            }
        }
    }

    /// Visit the non-zeros of local row `r` as `(col, value)`.
    pub fn for_each_in_row(&self, r: usize, mut f: impl FnMut(usize, f64)) {
        if self.csr {
            let (start, end) = self.row_bounds(r);
            let base_c = self.tile_r + 1;
            let base_v = base_c + self.nnz;
            for k in start..end {
                f(self.page[base_c + k] as usize, self.page[base_v + k]);
            }
        } else {
            for c in 0..self.tile_c {
                let v = self.page[r * self.tile_c + c];
                if v != 0.0 {
                    f(c, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 512-byte blocks = 64 elements = 8x8 square tiles, csr_cap 27.
    fn ctx(frames: usize) -> Arc<StorageCtx> {
        StorageCtx::new_mem(512, frames)
    }

    fn scatter(rows: usize, cols: usize, trips: &[(usize, usize, f64)]) -> Vec<f64> {
        let mut out = vec![0.0; rows * cols];
        for &(r, c, v) in trips {
            out[r * cols + c] += v;
        }
        out
    }

    #[test]
    fn triplets_round_trip() {
        let c = ctx(32);
        let trips = vec![(0, 0, 1.0), (7, 7, 2.0), (19, 3, -4.5), (5, 12, 0.25)];
        let m =
            SparseMatrix::from_triplets(&c, 20, 13, MatrixLayout::Square, &trips, None).unwrap();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.to_rows().unwrap(), scatter(20, 13, &trips));
        assert_eq!(m.get(19, 3).unwrap(), -4.5);
        assert_eq!(m.get(10, 10).unwrap(), 0.0);
    }

    #[test]
    fn duplicates_sum_and_zeros_drop() {
        let c = ctx(16);
        let trips = vec![(1, 1, 2.0), (1, 1, 3.0), (2, 2, 5.0), (2, 2, -5.0)];
        let m = SparseMatrix::from_triplets(&c, 4, 4, MatrixLayout::Square, &trips, None).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(1, 1).unwrap(), 5.0);
        assert_eq!(m.get(2, 2).unwrap(), 0.0);
    }

    #[test]
    fn empty_tiles_have_no_pages() {
        let c = ctx(32);
        // One non-zero: exactly one occupied tile out of a 3x2 grid.
        let m = SparseMatrix::from_triplets(&c, 20, 13, MatrixLayout::Square, &[(9, 9, 1.0)], None)
            .unwrap();
        assert_eq!(m.tile_grid(), (3, 2));
        assert_eq!(m.occupied_pages(), 1);
        assert_eq!(m.dense_blocks(), 6);
        assert_eq!(m.blocks(), m.dir_blocks() + 1);
        assert!(m.tile(0, 0).unwrap().is_none());
        assert!(m.tile(1, 1).unwrap().is_some());
    }

    #[test]
    fn dense_format_kicks_in_above_csr_capacity() {
        let c = ctx(32);
        // Fill one 8x8 tile completely: 64 > csr_cap 27 -> dense page.
        let trips: Vec<(usize, usize, f64)> = (0..8)
            .flat_map(|r| (0..8).map(move |cc| (r, cc, (r * 8 + cc + 1) as f64)))
            .collect();
        let m = SparseMatrix::from_triplets(&c, 8, 8, MatrixLayout::Square, &trips, None).unwrap();
        let tile = m.tile(0, 0).unwrap().unwrap();
        assert!(!tile.is_csr());
        assert_eq!(tile.nnz(), 64);
        assert_eq!(m.to_rows().unwrap(), scatter(8, 8, &trips));
    }

    #[test]
    fn csr_row_iteration() {
        let c = ctx(16);
        let trips = vec![(2, 1, 1.0), (2, 5, 2.0), (2, 7, 3.0), (4, 0, 9.0)];
        let m = SparseMatrix::from_triplets(&c, 8, 8, MatrixLayout::Square, &trips, None).unwrap();
        let tile = m.tile(0, 0).unwrap().unwrap();
        assert!(tile.is_csr());
        let mut row2 = Vec::new();
        tile.for_each_in_row(2, |cc, v| row2.push((cc, v)));
        assert_eq!(row2, vec![(1, 1.0), (5, 2.0), (7, 3.0)]);
        let mut row3 = Vec::new();
        tile.for_each_in_row(3, |cc, v| row3.push((cc, v)));
        assert!(row3.is_empty());
    }

    #[test]
    fn dense_round_trip_both_ways() {
        let c = ctx(64);
        let dense = DenseMatrix::from_fn(
            &c,
            21,
            17,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
            |i, j| {
                if (i * 17 + j) % 9 == 0 {
                    (i + j) as f64 + 1.0
                } else {
                    0.0
                }
            },
        )
        .unwrap();
        let want = dense.to_rows().unwrap();
        let sp = SparseMatrix::from_dense(&dense, None).unwrap();
        assert_eq!(
            sp.nnz() as usize,
            want.iter().filter(|v| **v != 0.0).count()
        );
        assert_eq!(sp.to_rows().unwrap(), want);
        let back = sp.to_dense(TileOrder::RowMajor, None).unwrap();
        assert_eq!(back.to_rows().unwrap(), want);
    }

    #[test]
    fn reading_a_sparse_matrix_touches_only_occupied_pages() {
        let c = ctx(64);
        // 32x32 over 8x8 tiles: 16 tiles; occupy 3 of them.
        let trips = vec![(0, 0, 1.0), (9, 9, 2.0), (25, 30, 3.0)];
        let m =
            SparseMatrix::from_triplets(&c, 32, 32, MatrixLayout::Square, &trips, None).unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let got = m.to_rows().unwrap();
        let delta = c.io_snapshot() - before;
        assert_eq!(got, scatter(32, 32, &trips));
        assert_eq!(delta.reads, m.occupied_pages(), "only occupied pages read");
        assert!(delta.reads < m.dense_blocks());
    }

    #[test]
    fn directory_survives_eviction() {
        // Tiny pool: the directory block is evicted between accesses, but
        // the handle's cached copy keeps addressing consistent and data
        // pages reload correctly from the device.
        let c = ctx(2);
        let trips: Vec<(usize, usize, f64)> =
            (0..16).map(|k| (k, (k * 3) % 16, k as f64 + 1.0)).collect();
        let m =
            SparseMatrix::from_triplets(&c, 16, 16, MatrixLayout::Square, &trips, None).unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        assert_eq!(m.to_rows().unwrap(), scatter(16, 16, &trips));
    }

    #[test]
    fn on_disk_directory_matches_cached() {
        let c = ctx(32);
        let trips = vec![(0, 0, 1.0), (9, 9, 2.0), (25, 30, 3.0)];
        let m =
            SparseMatrix::from_triplets(&c, 32, 32, MatrixLayout::Square, &trips, None).unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let disk = m.read_dir().unwrap();
        assert_eq!(disk.len(), 16);
        for (ti, tj) in (0..4).flat_map(|i| (0..4).map(move |j| (i, j))) {
            assert_eq!(disk[(ti * 4 + tj) as usize], m.slot(ti, tj));
        }
    }

    #[test]
    fn free_releases_storage() {
        let c = ctx(16);
        let m = SparseMatrix::from_triplets(&c, 8, 8, MatrixLayout::Square, &[(0, 0, 1.0)], None)
            .unwrap();
        assert_eq!(c.live_objects(), 1);
        m.free().unwrap();
        assert_eq!(c.live_objects(), 0);
    }

    #[test]
    fn all_zero_matrix_is_just_a_directory() {
        let c = ctx(16);
        let m = SparseMatrix::from_triplets(&c, 30, 30, MatrixLayout::Square, &[], None).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.occupied_pages(), 0);
        assert_eq!(m.to_rows().unwrap(), vec![0.0; 900]);
    }

    #[test]
    fn create_with_plan_then_write_tiles() {
        let c = ctx(16);
        // 2x1 tile grid (16x8 matrix): plan 2 nnz in tile 0, 0 in tile 1.
        let m =
            SparseMatrix::create_with_plan(&c, 16, 8, MatrixLayout::Square, &[2, 0], None).unwrap();
        let mut scratch = vec![0.0; 64];
        scratch[3] = 7.0; // (0, 3)
        scratch[6 * 8 + 2] = -1.0; // (6, 2)
        m.write_tile(0, 0, &scratch).unwrap();
        assert_eq!(m.get(0, 3).unwrap(), 7.0);
        assert_eq!(m.get(6, 2).unwrap(), -1.0);
        assert_eq!(m.get(12, 4).unwrap(), 0.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "nnz diverged")]
    fn write_tile_rejects_plan_mismatch() {
        let c = ctx(16);
        let m = SparseMatrix::create_with_plan(&c, 8, 8, MatrixLayout::Square, &[1], None).unwrap();
        let scratch = vec![0.0; 64]; // zero non-zeros, plan said 1
        m.write_tile(0, 0, &scratch).unwrap();
    }

    #[test]
    fn open_round_trips_from_storage_alone() {
        let c = ctx(64);
        let trips = vec![(0, 0, 1.0), (9, 9, 2.0), (25, 30, 3.0), (31, 0, -4.5)];
        let m = SparseMatrix::from_triplets(&c, 32, 32, MatrixLayout::Square, &trips, Some("m"))
            .unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        // Drop the creating handle: the reopen may consult nothing but the
        // catalog header and the on-disk directory.
        let (want_rows, want_slots) = (m.to_rows().unwrap(), m.read_dir().unwrap());
        drop(m);
        c.clear_cache().unwrap();

        let before = c.io_snapshot();
        let r = SparseMatrix::open(&c, "m").unwrap();
        // Opening reads exactly the persisted directory.
        assert_eq!((c.io_snapshot() - before).reads, r.dir_blocks());
        assert_eq!(r.shape(), (32, 32));
        assert_eq!(r.layout(), MatrixLayout::Square);
        assert_eq!(r.nnz(), 4);
        assert_eq!(r.occupied_pages(), 4);
        assert_eq!(r.read_dir().unwrap(), want_slots);
        assert_eq!(r.to_rows().unwrap(), want_rows);
        assert_eq!(r.get(25, 30).unwrap(), 3.0);
    }

    #[test]
    fn open_round_trips_rectangular_layouts_and_planned_matrices() {
        let c = ctx(64);
        let trips = vec![(0, 0, 1.0), (63, 2, 2.0), (10, 3, 3.0)];
        let m = SparseMatrix::from_triplets(&c, 64, 4, MatrixLayout::ColMajor, &trips, Some("cm"))
            .unwrap();
        let want = m.to_rows().unwrap();
        c.pool().flush_all().unwrap();
        drop(m);
        let r = SparseMatrix::open(&c, "cm").unwrap();
        assert_eq!(r.layout(), MatrixLayout::ColMajor);
        assert_eq!(r.tile_dims(), (64, 1));
        assert_eq!(r.to_rows().unwrap(), want);

        // A planned-then-filled matrix (the SpMM output path) reopens too.
        let p = SparseMatrix::create_with_plan(&c, 16, 8, MatrixLayout::Square, &[2, 0], Some("p"))
            .unwrap();
        p.write_tile_entries_at(0, 0, &[(0, 3, 7.0), (6, 2, -1.0)])
            .unwrap();
        c.pool().flush_all().unwrap();
        drop(p);
        let r = SparseMatrix::open(&c, "p").unwrap();
        assert_eq!(r.nnz(), 2);
        assert_eq!(r.get(6, 2).unwrap(), -1.0);
    }

    #[test]
    fn open_rejects_unknown_names_and_headerless_objects() {
        let c = ctx(16);
        let err = SparseMatrix::open(&c, "nope").err().expect("must fail");
        assert!(err.to_string().contains("no such object"), "{err}");
        // A plain (headerless) object under the name is not reopenable.
        c.create_object(2, Some("raw")).unwrap();
        let err = SparseMatrix::open(&c, "raw").err().expect("must fail");
        assert!(err.to_string().contains("no header"), "{err}");
    }

    fn transpose_ref(rows: usize, cols: usize, m: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = m[r * cols + c];
            }
        }
        out
    }

    #[test]
    fn transpose_matches_dense_reference() {
        let c = ctx(64);
        let trips = vec![(0, 0, 1.0), (7, 12, 2.0), (19, 3, -4.5), (5, 12, 0.25)];
        let m =
            SparseMatrix::from_triplets(&c, 20, 13, MatrixLayout::Square, &trips, None).unwrap();
        let t = m.transpose(None).unwrap();
        assert_eq!(t.shape(), (13, 20));
        assert_eq!(t.nnz(), m.nnz());
        assert_eq!(t.occupied_pages(), m.occupied_pages());
        assert_eq!(
            t.to_rows().unwrap(),
            transpose_ref(20, 13, &m.to_rows().unwrap())
        );
    }

    #[test]
    fn transpose_reads_only_occupied_pages() {
        let c = ctx(64);
        // 32x32 over 8x8 tiles: 16 tiles, 3 occupied.
        let trips = vec![(0, 0, 1.0), (9, 9, 2.0), (25, 30, 3.0)];
        let m =
            SparseMatrix::from_triplets(&c, 32, 32, MatrixLayout::Square, &trips, None).unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let t = m.transpose(None).unwrap();
        c.pool().flush_all().unwrap();
        let delta = c.io_snapshot() - before;
        // Planning is directory-cache only; each occupied input page is
        // read once; writes are the output's pages plus its directory.
        assert_eq!(delta.reads, m.occupied_pages());
        assert_eq!(delta.writes, t.occupied_pages() + t.dir_blocks());
        assert_eq!(
            t.to_rows().unwrap(),
            transpose_ref(32, 32, &m.to_rows().unwrap())
        );
    }

    #[test]
    fn transpose_roundtrips_rectangular_layouts() {
        let c = ctx(64);
        let trips = vec![(0, 0, 1.0), (63, 2, 2.0), (10, 3, 3.0), (31, 1, -7.0)];
        let m =
            SparseMatrix::from_triplets(&c, 64, 4, MatrixLayout::ColMajor, &trips, None).unwrap();
        let t = m.transpose(None).unwrap();
        assert_eq!(t.layout(), MatrixLayout::RowMajor);
        assert_eq!(t.tile_dims(), (1, 64));
        assert_eq!(
            t.to_rows().unwrap(),
            transpose_ref(64, 4, &m.to_rows().unwrap())
        );
        let back = t.transpose(None).unwrap();
        assert_eq!(back.layout(), MatrixLayout::ColMajor);
        assert_eq!(back.to_rows().unwrap(), m.to_rows().unwrap());
    }

    #[test]
    fn transpose_of_dense_format_tiles() {
        let c = ctx(32);
        // A fully-occupied 8x8 tile stores dense; its transpose must too.
        let trips: Vec<(usize, usize, f64)> = (0..8)
            .flat_map(|r| (0..8).map(move |cc| (r, cc, (r * 8 + cc + 1) as f64)))
            .collect();
        let m = SparseMatrix::from_triplets(&c, 8, 8, MatrixLayout::Square, &trips, None).unwrap();
        let t = m.transpose(None).unwrap();
        assert!(!t.tile(0, 0).unwrap().unwrap().is_csr());
        assert_eq!(
            t.to_rows().unwrap(),
            transpose_ref(8, 8, &m.to_rows().unwrap())
        );
    }

    #[test]
    #[should_panic(expected = "nnz diverged")]
    fn write_tile_entries_at_rejects_plan_mismatch() {
        let c = ctx(16);
        let m = SparseMatrix::create_with_plan(&c, 8, 8, MatrixLayout::Square, &[2], None).unwrap();
        m.write_tile_entries_at(0, 0, &[(0, 0, 1.0)]).unwrap();
    }

    #[test]
    fn column_layout_tiles_store_dense() {
        // ColMajor tiles are 64x1: csr_cap is 0, every occupied tile
        // stores the dense form; values still round-trip.
        let c = ctx(32);
        let trips = vec![(0, 0, 1.0), (63, 0, 2.0), (10, 3, 3.0)];
        let m =
            SparseMatrix::from_triplets(&c, 64, 4, MatrixLayout::ColMajor, &trips, None).unwrap();
        assert_eq!(m.tile_dims(), (64, 1));
        assert_eq!(m.to_rows().unwrap(), scatter(64, 4, &trips));
        let t = m.tile(0, 0).unwrap().unwrap();
        assert!(!t.is_csr());
    }
}
