//! The out-of-core sparse matrix: run directory + packed tile pages.

use std::ops::Range;
use std::sync::Arc;

use riot_array::{DenseMatrix, MatrixLayout, StorageCtx, TileOrder};
use riot_storage::{
    BlockId, ObjectHeader, ObjectId, ObjectKind, PinnedFrame, Result, StorageError,
};

use crate::csr_capacity;

/// Directory entry of one occupied tile: where its payload sits. The
/// payload's form and length follow from `nnz` (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSlot {
    /// Tile column within its tile-row.
    pub tj: u32,
    /// Non-zero count of the tile (at least 1).
    pub nnz: u32,
    /// Index of the data page holding the payload.
    pub page: u32,
    /// Element offset of the payload inside that page.
    pub off: u32,
}

/// How a tile's payload is encoded; a function of its nnz alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    /// `nnz` sorted `(row, col, value)` triples.
    Triples,
    /// `tile_r + 1` row offsets, `nnz` column indices, `nnz` values.
    Csr,
    /// `tile_r * tile_c` values, row-major.
    Dense,
}

/// How a `rows x cols` matrix is cut into tiles of `epb`-element blocks:
/// everything addressing, payload sizing and decoding depend on.
#[derive(Debug, Clone, Copy)]
struct Geom {
    rows: usize,
    cols: usize,
    layout: MatrixLayout,
    tile_r: usize,
    tile_c: usize,
    epb: usize,
    /// Tile grid: tiles down, tiles across.
    tr: u64,
    tc: u64,
}

impl Geom {
    fn new(ctx: &StorageCtx, rows: usize, cols: usize, layout: MatrixLayout) -> Self {
        let epb = ctx.elems_per_block();
        let (tile_r, tile_c) = layout.tile_dims(epb);
        Geom {
            rows,
            cols,
            layout,
            tile_r,
            tile_c,
            epb,
            tr: rows.div_ceil(tile_r) as u64,
            tc: cols.div_ceil(tile_c) as u64,
        }
    }

    fn form(&self, nnz: usize) -> Form {
        let cap = csr_capacity(self.epb, self.tile_r);
        if nnz <= cap.min(self.tile_r) {
            Form::Triples
        } else if nnz <= cap {
            Form::Csr
        } else {
            Form::Dense
        }
    }

    /// Payload length in elements; never more than a page.
    fn len(&self, nnz: usize) -> usize {
        match self.form(nnz) {
            Form::Triples => 3 * nnz,
            Form::Csr => self.tile_r + 1 + 2 * nnz,
            Form::Dense => self.tile_r * self.tile_c,
        }
    }
}

/// Greedy page packing: payloads are laid end to end in directory order
/// and one that does not fit the rest of the current page opens the next.
#[derive(Default)]
struct Packer {
    page: u32,
    off: usize,
}

impl Packer {
    fn place(&mut self, len: usize, epb: usize) -> (u32, u32) {
        if self.off + len > epb {
            self.page += 1;
            self.off = 0;
        }
        let at = (self.page, self.off as u32);
        self.off += len;
        at
    }

    fn pages(&self) -> u64 {
        u64::from(self.page) + u64::from(self.off > 0)
    }
}

/// The cached run directory: `slots[row_ptr[ti]..row_ptr[ti + 1]]` are
/// tile-row `ti`'s occupied tiles in `tj` order.
struct Dir {
    row_ptr: Vec<u32>,
    slots: Vec<TileSlot>,
}

/// A `rows x cols` sparse matrix stored as block-compressed tiles.
///
/// See the crate docs for the page layout. Handles are cheap clones; the
/// run directory is cached in the handle behind an `Arc`.
#[derive(Clone)]
pub struct SparseMatrix {
    ctx: Arc<StorageCtx>,
    object: ObjectId,
    start_block: u64,
    geom: Geom,
    dir_blocks: u64,
    pages: u64,
    nnz: u64,
    dir: Arc<Dir>,
}

type Entry = (usize, usize, f64);

/// Cut `cells` (matrix-global coordinates, directory order) at tile
/// boundaries: one slice per occupied tile.
fn split_tiles(cells: &[Entry], tile_r: usize, tile_c: usize) -> impl Iterator<Item = &[Entry]> {
    cells.chunk_by(move |a, b| (a.0 / tile_r, a.1 / tile_c) == (b.0 / tile_r, b.1 / tile_c))
}

impl SparseMatrix {
    /// Build from COO triplets `(row, col, value)` (0-based). Duplicate
    /// coordinates are summed in input order (R's `sparseMatrix`
    /// semantics); explicit and summed-to-zero entries are dropped.
    pub fn from_triplets(
        ctx: &Arc<StorageCtx>,
        rows: usize,
        cols: usize,
        layout: MatrixLayout,
        triplets: &[(usize, usize, f64)],
        name: Option<&str>,
    ) -> Result<Self> {
        let (tile_r, tile_c) = layout.tile_dims(ctx.elems_per_block());
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r}, {c}) out of bounds");
        }
        // Sort an index, not a copy with a copy's worth of merge scratch;
        // stable, so duplicates of one cell stay in input order.
        let mut order: Vec<usize> = (0..triplets.len()).collect();
        order.sort_by_key(|&i| {
            let (r, c, _) = triplets[i];
            (r / tile_r, c / tile_c, r, c)
        });
        let mut cells: Vec<Entry> = order.into_iter().map(|i| triplets[i]).collect();
        cells.dedup_by(|dup, first| {
            let same = (dup.0, dup.1) == (first.0, first.1);
            if same {
                first.2 += dup.2;
            }
            same
        });
        cells.retain(|e| e.2 != 0.0);
        Self::from_sorted(ctx, rows, cols, layout, &cells, name)
    }

    /// Compress a stored dense matrix into sparse form. Reads each dense
    /// tile exactly once, in the directory order the pages are appended
    /// in; the sparse matrix inherits the dense matrix's tile aspect ratio.
    pub fn from_dense(m: &DenseMatrix, name: Option<&str>) -> Result<Self> {
        let (rows, cols) = m.shape();
        let mut cells = Vec::new();
        m.for_each(|r, c, v| {
            if v != 0.0 {
                cells.push((r, c, v));
            }
        })?;
        Self::from_sorted(m.ctx(), rows, cols, m.layout(), &cells, name)
    }

    /// Build from non-zero entries already in directory order (tile-row,
    /// tile column, then row-major inside the tile), no duplicates.
    fn from_sorted(
        ctx: &Arc<StorageCtx>,
        rows: usize,
        cols: usize,
        layout: MatrixLayout,
        cells: &[Entry],
        name: Option<&str>,
    ) -> Result<Self> {
        let (tile_r, tile_c) = layout.tile_dims(ctx.elems_per_block());
        let plan = split_tiles(cells, tile_r, tile_c).map(|t| {
            let (ti, tj) = (t[0].0 / tile_r, t[0].1 / tile_c);
            (ti as u64, tj as u64, t.len() as u32)
        });
        let mut w = Self::create_with_plan(ctx, rows, cols, layout, plan, name)?;
        w.push_sorted(cells)?;
        w.finish()
    }

    /// Allocate a sparse matrix whose occupied tiles `(ti, tj, nnz)` are
    /// known in advance, in directory (row-major tile) order; zero-nnz
    /// entries are skipped. Lays out and persists the run directory, then
    /// hands back the [`TileWriter`] the payloads are appended through in
    /// the same order — how two-pass producers (SpMM, the transpose) size
    /// their output before any page can land.
    pub fn create_with_plan(
        ctx: &Arc<StorageCtx>,
        rows: usize,
        cols: usize,
        layout: MatrixLayout,
        plan: impl IntoIterator<Item = (u64, u64, u32)>,
        name: Option<&str>,
    ) -> Result<TileWriter> {
        assert!(rows > 0 && cols > 0, "sparse matrices must be non-empty");
        let geom = Geom::new(ctx, rows, cols, layout);
        let Geom { epb, tr, tc, .. } = geom;
        let mut packer = Packer::default();
        let mut dir = Dir {
            row_ptr: vec![0; tr as usize + 1],
            slots: Vec::new(),
        };
        let (mut nnz, mut last) = (0u64, None);
        for (ti, tj, n) in plan.into_iter().filter(|p| p.2 > 0) {
            assert!(ti < tr && tj < tc, "planned tile ({ti}, {tj}) out of grid");
            assert!(last < Some((ti, tj)), "plan must be in directory order");
            last = Some((ti, tj));
            let (page, off) = packer.place(geom.len(n as usize), epb);
            dir.slots.push(TileSlot {
                tj: tj as u32,
                nnz: n,
                page,
                off,
            });
            dir.row_ptr[ti as usize + 1] = dir.slots.len() as u32;
            nnz += u64::from(n);
        }
        // Empty tile-rows inherit the running count.
        for ti in 0..tr as usize {
            dir.row_ptr[ti + 1] = dir.row_ptr[ti + 1].max(dir.row_ptr[ti]);
        }
        // The persisted stream: per tile-row, its run length and then
        // (tj, nnz, page, off) per occupied tile.
        let mut stream = Vec::with_capacity(tr as usize + 4 * dir.slots.len());
        for run in dir.row_ptr.windows(2) {
            stream.push(f64::from(run[1] - run[0]));
            for s in &dir.slots[run[0] as usize..run[1] as usize] {
                stream.extend([s.tj, s.nnz, s.page, s.off].map(f64::from));
            }
        }
        let dir_blocks = stream.len().div_ceil(epb) as u64;
        let pages = packer.pages();
        let (object, extent) = ctx.create_object(dir_blocks + pages, name)?;
        // Catalog-level object header: with it, a later session holding
        // only the name can rebuild this handle from storage alone (see
        // [`SparseMatrix::open`]).
        ctx.set_object_header(
            object,
            ObjectHeader {
                kind: ObjectKind::SparseMatrix,
                rows: rows as u64,
                cols: cols as u64,
                layout: layout.code(),
                nnz,
            },
        )?;
        for (b, chunk) in stream.chunks(epb).enumerate() {
            let mut page = ctx.pool().pin_new(extent.block(b as u64))?;
            page[..chunk.len()].copy_from_slice(chunk);
            page[chunk.len()..].fill(0.0);
        }
        Ok(TileWriter {
            m: SparseMatrix {
                ctx: Arc::clone(ctx),
                object,
                start_block: extent.start.0,
                geom,
                dir_blocks,
                pages,
                nnz,
                dir: Arc::new(dir),
            },
            next: 0,
            buf: vec![0.0; epb],
        })
    }

    /// Reopen a named sparse matrix **from storage alone**: resolve
    /// `name` through the catalog, validate its [`ObjectHeader`], derive
    /// the tiling from the header's layout, and re-read the persisted
    /// run directory through the pool (so the reads are counted). The
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
        match header.kind {
            ObjectKind::SparseMatrix => {}
            ObjectKind::SparseTilePages => {
                return Err(cannot(
                    "object uses the retired one-page-per-tile sparse layout; rebuild it",
                ))
            }
            _ => return Err(cannot("object is not a sparse matrix")),
        }
        let layout =
            MatrixLayout::from_code(header.layout).ok_or_else(|| cannot("bad layout code"))?;
        let (rows, cols) = (header.rows as usize, header.cols as usize);
        let geom = Geom::new(ctx, rows, cols, layout);
        let Geom { epb, tr, tc, .. } = geom;
        // Every shape-sized product and the directory's `u32` tile
        // indices must hold before anything is sized by them.
        let grid = u64::from(u32::MAX);
        if rows.checked_mul(cols).is_none() || tr > grid || tc > grid {
            return Err(cannot("bad sparse dimensions"));
        }
        let extent = ctx.object_extent(object)?;
        // Stream the runs back. The on-disk directory is the authority;
        // every value is checked against the grid, the greedy packing and
        // the header before it is trusted.
        let bad = || cannot("directory disagrees with the header");
        let (mut at, mut page) = (0usize, None);
        let mut next = || -> Result<u32> {
            if at % epb == 0 {
                let b = (at / epb) as u64;
                if b >= extent.blocks {
                    return Err(bad());
                }
                page = None;
                page = Some(ctx.pool().pin(extent.block(b))?);
            }
            let v = page.as_ref().expect("pinned above")[at % epb];
            at += 1;
            Ok(v as u32)
        };
        let mut packer = Packer::default();
        let mut dir = Dir {
            row_ptr: vec![0],
            slots: Vec::new(),
        };
        let mut nnz = 0u64;
        for _ in 0..tr {
            let run = u64::from(next()?);
            if run > tc {
                return Err(bad());
            }
            for k in 0..run {
                let slot = TileSlot {
                    tj: next()?,
                    nnz: next()?,
                    page: next()?,
                    off: next()?,
                };
                let ordered = k == 0 || dir.slots.last().is_some_and(|p| p.tj < slot.tj);
                let sized = (1..=geom.tile_r * geom.tile_c).contains(&(slot.nnz as usize));
                if !(ordered && sized && u64::from(slot.tj) < tc)
                    || packer.place(geom.len(slot.nnz as usize), epb) != (slot.page, slot.off)
                {
                    return Err(bad());
                }
                nnz += u64::from(slot.nnz);
                dir.slots.push(slot);
            }
            dir.row_ptr.push(dir.slots.len() as u32);
        }
        let dir_blocks = at.div_ceil(epb) as u64;
        let pages = packer.pages();
        if nnz != header.nnz || extent.blocks < dir_blocks + pages {
            return Err(bad());
        }
        Ok(SparseMatrix {
            ctx: Arc::clone(ctx),
            object,
            start_block: extent.start.0,
            geom,
            dir_blocks,
            pages,
            nnz,
            dir: Arc::new(dir),
        })
    }

    /// Matrix dimensions `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.geom.rows, self.geom.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.geom.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.geom.cols
    }

    /// Tile dimensions `(tile_rows, tile_cols)` in elements.
    pub fn tile_dims(&self) -> (usize, usize) {
        (self.geom.tile_r, self.geom.tile_c)
    }

    /// Tile grid dimensions `(tiles_down, tiles_across)`.
    pub fn tile_grid(&self) -> (u64, u64) {
        (self.geom.tr, self.geom.tc)
    }

    /// The tile aspect ratio this matrix was created with.
    pub fn layout(&self) -> MatrixLayout {
        self.geom.layout
    }

    /// Total stored non-zeros.
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// Fraction of elements that are non-zero.
    pub fn density(&self) -> f64 {
        self.nnz as f64 / (self.geom.rows * self.geom.cols) as f64
    }

    /// Number of data pages (shared by the occupied tiles packed into
    /// them) — what one full scan of the matrix reads.
    pub fn occupied_pages(&self) -> u64 {
        self.pages
    }

    /// Number of tiles holding at least one non-zero.
    pub fn occupied_tiles(&self) -> u64 {
        self.dir.slots.len() as u64
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
        self.geom.tr * self.geom.tc
    }

    /// Storage context.
    pub fn ctx(&self) -> &Arc<StorageCtx> {
        &self.ctx
    }

    /// Catalog object id.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Tile-row `ti`'s run: its occupied tiles in `tj` order. A cached
    /// directory lookup (no I/O); empty past the grid.
    pub fn row(&self, ti: u64) -> &[TileSlot] {
        match self.dir.row_ptr.get(ti as usize..ti as usize + 2) {
            Some(run) => &self.dir.slots[run[0] as usize..run[1] as usize],
            None => &[],
        }
    }

    /// The part of tile-row `ti`'s run inside tile columns `cols`.
    fn run(&self, ti: u64, cols: Range<u64>) -> &[TileSlot] {
        let row = self.row(ti);
        let lo = row.partition_point(|s| u64::from(s.tj) < cols.start);
        let hi = row.partition_point(|s| u64::from(s.tj) < cols.end);
        &row[lo..hi]
    }

    /// Directory entry of tile `(ti, tj)`, or `None` when it is empty.
    pub fn slot(&self, ti: u64, tj: u64) -> Option<TileSlot> {
        self.run(ti, tj..tj + 1).first().copied()
    }

    /// Block id of data page `page` (see [`TileSlot::page`]); the prefetch
    /// windows are built from this mapping.
    pub fn page_block(&self, page: u32) -> BlockId {
        BlockId(self.start_block + self.dir_blocks + u64::from(page))
    }

    fn prefetch_slots(&self, slots: &[TileSlot]) {
        // Pages ascend along a run, so deduplicating neighbours is enough.
        let mut last = None;
        let pages = slots.iter().map(|s| s.page);
        let pages = pages.filter(move |&p| last.replace(p) != Some(p));
        self.ctx.pool().prefetch(pages.map(|p| self.page_block(p)));
    }

    /// Prefetch the pages of tile-row `ti`: the next strip of a
    /// tile-row-walking kernel loads in the background while the current
    /// strip computes. Planning is pure directory-cache lookup; a free
    /// no-op past the grid or when the pool's prefetcher is disabled.
    pub fn prefetch_tile_row(&self, ti: u64) {
        self.prefetch_slots(self.row(ti));
    }

    /// Walk the occupied tiles of tile-row `ti` in `tj` order — the strip
    /// loop every tile-row kernel shares. Each page of the run is pinned
    /// once, however many tiles it holds.
    pub fn tile_row(&self, ti: u64) -> Tiles<'_> {
        self.tiles(ti, 0..self.geom.tc)
    }

    /// A walk over tile `(ti, tj)` alone: yields it, or nothing when the
    /// tile is empty (no page exists, no I/O happens).
    pub fn tile(&self, ti: u64, tj: u64) -> Tiles<'_> {
        self.tiles(ti, tj..tj + 1)
    }

    fn tiles(&self, ti: u64, cols: Range<u64>) -> Tiles<'_> {
        Tiles {
            m: self,
            slots: self.run(ti, cols),
            page: None,
        }
    }

    /// Native transpose: build `self` transposed as a new sparse matrix,
    /// never densifying.
    ///
    /// The transposed plan is **derived from the cached directory alone**
    /// — tile `(j, i)` of the output is tile `(i, j)` of the input with
    /// the same nnz — so planning costs zero I/O. The data pass walks the
    /// input in directory order, re-sorts the entries into output
    /// directory order in memory and appends them. The output uses
    /// [`MatrixLayout::transposed`], so the tile mapping stays one-to-one.
    ///
    /// Counted I/O: `occupied_pages` reads whenever the re-sort buffer
    /// (three elements per non-zero) fits the pool's capacity — otherwise
    /// one input walk per budget-sized band of output tile-rows — and
    /// `blocks()` of the output in writes once flushed.
    pub fn transpose(&self, name: Option<&str>) -> Result<SparseMatrix> {
        let Geom {
            tile_r,
            tile_c,
            epb,
            ..
        } = self.geom;
        let mut plan = Vec::with_capacity(self.dir.slots.len());
        let mut band_nnz = vec![0usize; self.geom.tc as usize];
        for ti in 0..self.geom.tr {
            for s in self.row(ti) {
                plan.push((u64::from(s.tj), ti, s.nnz));
                band_nnz[s.tj as usize] += s.nnz as usize;
            }
        }
        plan.sort_unstable();
        let layout = self.geom.layout.transposed();
        let mut w = Self::create_with_plan(
            &self.ctx,
            self.geom.cols,
            self.geom.rows,
            layout,
            plan,
            name,
        )?;
        let budget = self.ctx.pool().capacity() * epb / 3;
        let mut cells = Vec::new();
        let mut lo = 0;
        while lo < self.geom.tc {
            let (mut hi, mut held) = (lo + 1, band_nnz[lo as usize]);
            while hi < self.geom.tc && held + band_nnz[hi as usize] <= budget {
                held += band_nnz[hi as usize];
                hi += 1;
            }
            cells.clear();
            for ti in 0..self.geom.tr {
                // Declared access pattern: the next tile-row's pages load
                // in the background while this one's entries are copied.
                self.prefetch_slots(self.run(ti + 1, lo..hi));
                let mut tiles = self.tiles(ti, lo..hi);
                while let Some(tile) = tiles.next()? {
                    let (r0, c0) = (ti as usize * tile_r, tile.tj() as usize * tile_c);
                    tile.for_each(|r, c, v| cells.push((c0 + c, r0 + r, v)));
                }
            }
            cells.sort_unstable_by_key(|&(r, c, _)| (r / tile_c, c / tile_r, r, c));
            w.push_sorted(&cells)?;
            lo = hi;
        }
        w.finish()
    }

    /// Read one element (random access: one directory lookup in memory,
    /// at most one page pin).
    pub fn get(&self, r: usize, c: usize) -> Result<f64> {
        assert!(
            r < self.geom.rows && c < self.geom.cols,
            "sparse index out of bounds"
        );
        let Geom { tile_r, tile_c, .. } = self.geom;
        let mut at = self.tile((r / tile_r) as u64, (c / tile_c) as u64);
        Ok(at.next()?.map_or(0.0, |t| t.get(r % tile_r, c % tile_c)))
    }

    /// Decompress into a fresh dense matrix with the same tiling. Only
    /// occupied pages are read; empty tiles are written as zeros.
    pub fn to_dense(&self, order: TileOrder, name: Option<&str>) -> Result<DenseMatrix> {
        let out = DenseMatrix::create(
            &self.ctx,
            self.geom.rows,
            self.geom.cols,
            self.geom.layout,
            order,
            name,
        )?;
        let tile_c = self.geom.tile_c;
        let mut scratch = vec![0.0; self.geom.tile_r * tile_c];
        for ti in 0..self.geom.tr {
            for tj in 0..self.geom.tc {
                scratch.fill(0.0);
                if let Some(tile) = self.tile(ti, tj).next()? {
                    tile.for_each(|r, c, v| scratch[r * tile_c + c] = v);
                }
                out.write_tile(ti, tj, &scratch)?;
            }
        }
        Ok(out)
    }

    /// Materialize as a row-major `Vec` (tests / small results). Reads
    /// only occupied pages.
    pub fn to_rows(&self) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.geom.rows * self.geom.cols];
        for ti in 0..self.geom.tr {
            let mut tiles = self.tile_row(ti);
            while let Some(tile) = tiles.next()? {
                let r0 = ti as usize * self.geom.tile_r;
                let c0 = tile.tj() as usize * self.geom.tile_c;
                tile.for_each(|r, c, v| out[(r0 + r) * self.geom.cols + (c0 + c)] = v);
            }
        }
        Ok(out)
    }

    /// Release the matrix's storage. The handle must not be used again.
    pub fn free(self) -> Result<()> {
        self.ctx.drop_object(self.object)
    }
}

/// The sequential page appender behind every builder: payloads arrive in
/// the directory order fixed by [`SparseMatrix::create_with_plan`], are
/// encoded into an in-memory page, and each page is written exactly once
/// when the next one opens (or at [`TileWriter::finish`]).
pub struct TileWriter {
    m: SparseMatrix,
    /// Index of the next planned tile.
    next: usize,
    /// The page being filled (zero outside the payloads placed so far).
    buf: Vec<f64>,
}

impl TileWriter {
    /// Append the next planned tile from its `(row, col, value)` entries,
    /// sorted by `(row, col)` with no duplicates. Coordinates are reduced
    /// modulo the tile dimensions, so matrix-global and tile-local ones
    /// both work. Panics when the entry count differs from the plan.
    pub fn push(&mut self, entries: &[(usize, usize, f64)]) -> Result<()> {
        let Geom { tile_r, tile_c, .. } = self.m.geom;
        let slot = *self.m.dir.slots.get(self.next).unwrap_or_else(|| {
            panic!(
                "tile {}: nnz diverged from the plan (no such tile)",
                self.next
            )
        });
        let n = slot.nnz as usize;
        assert_eq!(
            entries.len(),
            n,
            "tile {}: nnz diverged from the plan",
            self.next
        );
        debug_assert!(
            entries
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "tile entries must be sorted by (row, col) without duplicates"
        );
        let prev = self.next.checked_sub(1).map(|p| self.m.dir.slots[p].page);
        if let Some(done) = prev.filter(|&p| p != slot.page) {
            self.flush(done)?;
        }
        self.next += 1;
        let local = entries.iter().map(|&(r, c, v)| (r % tile_r, c % tile_c, v));
        let out = &mut self.buf[slot.off as usize..][..self.m.geom.len(n)];
        match self.m.geom.form(n) {
            Form::Triples => {
                for (k, (r, c, v)) in local.enumerate() {
                    out[3 * k..3 * k + 3].copy_from_slice(&[r as f64, c as f64, v]);
                }
            }
            Form::Csr => {
                let (offsets, rest) = out.split_at_mut(tile_r + 1);
                let (cols, vals) = rest.split_at_mut(n);
                for (k, (r, c, v)) in local.enumerate() {
                    offsets[r + 1] = (k + 1) as f64;
                    (cols[k], vals[k]) = (c as f64, v);
                }
                // Rows without entries end where the row before them does.
                for r in 0..tile_r {
                    offsets[r + 1] = offsets[r + 1].max(offsets[r]);
                }
            }
            Form::Dense => {
                for (r, c, v) in local {
                    out[r * tile_c + c] = v;
                }
            }
        }
        Ok(())
    }

    /// [`TileWriter::push`] for a run of tiles: `cells` (matrix-global
    /// coordinates) are in directory order and split at tile boundaries.
    pub fn push_sorted(&mut self, cells: &[(usize, usize, f64)]) -> Result<()> {
        let Geom { tile_r, tile_c, .. } = self.m.geom;
        split_tiles(cells, tile_r, tile_c).try_for_each(|tile| self.push(tile))
    }

    fn flush(&mut self, page: u32) -> Result<()> {
        let mut frame = self.m.ctx.pool().pin_new(self.m.page_block(page))?;
        frame.copy_from_slice(&self.buf);
        self.buf.fill(0.0);
        Ok(())
    }

    /// Write the last page and hand over the finished matrix. Panics when
    /// planned tiles were never pushed.
    pub fn finish(mut self) -> Result<SparseMatrix> {
        assert_eq!(
            self.next,
            self.m.dir.slots.len(),
            "tiles pushed: nnz diverged from the plan"
        );
        if let Some(last) = self.m.dir.slots.last() {
            self.flush(last.page)?;
        }
        Ok(self.m)
    }
}

/// A cursor over a run of occupied tiles (a whole tile-row, a band of it,
/// or one tile), in `tj` order. It keeps the page under the current tile
/// pinned and moves the pin only when the run crosses into the next page,
/// so a walk pins each page once; the views it lends decode zero-copy off
/// the pinned `&[f64]`.
pub struct Tiles<'m> {
    m: &'m SparseMatrix,
    slots: &'m [TileSlot],
    page: Option<(u32, PinnedFrame<'m>)>,
}

impl Tiles<'_> {
    /// The next occupied tile of the run, or `None` at its end.
    #[allow(clippy::should_implement_trait)] // lends from the cursor's pin
    pub fn next(&mut self) -> Result<Option<SparseTile<'_>>> {
        let Some((slot, rest)) = self.slots.split_first() else {
            return Ok(None);
        };
        self.slots = rest;
        if self.page.as_ref().map(|p| p.0) != Some(slot.page) {
            self.page = None; // unpin before pinning: never two frames
            let frame = self.m.ctx.pool().pin(self.m.page_block(slot.page))?;
            self.page = Some((slot.page, frame));
        }
        let (_, frame) = self.page.as_ref().expect("pinned above");
        let nnz = slot.nnz as usize;
        Ok(Some(SparseTile {
            data: &frame[slot.off as usize..][..self.m.geom.len(nnz)],
            tj: u64::from(slot.tj),
            nnz,
            form: self.m.geom.form(nnz),
            tile_r: self.m.geom.tile_r,
            tile_c: self.m.geom.tile_c,
        }))
    }
}

/// A decoded view of one occupied tile, borrowed from the [`Tiles`]
/// cursor that holds its page pinned.
pub struct SparseTile<'p> {
    data: &'p [f64],
    tj: u64,
    nnz: usize,
    form: Form,
    tile_r: usize,
    tile_c: usize,
}

impl SparseTile<'_> {
    /// Tile column of this tile within its tile-row.
    pub fn tj(&self) -> u64 {
        self.tj
    }

    /// Non-zeros stored in this tile.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// True when the tile is stored compressed (triples or CSR) rather
    /// than in the dense form.
    pub fn is_csr(&self) -> bool {
        self.form != Form::Dense
    }

    /// Element at local `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.tile_r && c < self.tile_c);
        let mut found = 0.0;
        self.for_each_in_row(r, |cc, v| {
            if cc == c {
                found = v;
            }
        });
        found
    }

    /// Visit every stored non-zero as local `(row, col, value)`, in
    /// row-major order.
    pub fn for_each(&self, mut f: impl FnMut(usize, usize, f64)) {
        match self.form {
            Form::Triples => {
                for t in self.data.chunks_exact(3) {
                    f(t[0] as usize, t[1] as usize, t[2]);
                }
            }
            _ => {
                for r in 0..self.tile_r {
                    self.for_each_in_row(r, |c, v| f(r, c, v));
                }
            }
        }
    }

    /// Visit the non-zeros of local row `r` as `(col, value)`, in column
    /// order.
    pub fn for_each_in_row(&self, r: usize, mut f: impl FnMut(usize, f64)) {
        match self.form {
            Form::Triples => {
                for t in self.data.chunks_exact(3) {
                    if t[0] as usize == r {
                        f(t[1] as usize, t[2]);
                    }
                }
            }
            Form::Csr => {
                let (start, end) = (self.data[r] as usize, self.data[r + 1] as usize);
                let cols = &self.data[self.tile_r + 1..][..self.nnz];
                let vals = &self.data[self.tile_r + 1 + self.nnz..];
                for k in start..end {
                    f(cols[k] as usize, vals[k]);
                }
            }
            Form::Dense => {
                for (c, &v) in self.data[r * self.tile_c..][..self.tile_c]
                    .iter()
                    .enumerate()
                {
                    if v != 0.0 {
                        f(c, v);
                    }
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

    /// Every run of the directory, tile-row by tile-row.
    fn runs(m: &SparseMatrix) -> Vec<Vec<TileSlot>> {
        (0..m.tile_grid().0).map(|ti| m.row(ti).to_vec()).collect()
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
        assert_eq!((m.occupied_tiles(), m.occupied_pages()), (1, 1));
        assert_eq!(m.dense_blocks(), 6);
        assert_eq!(m.blocks(), m.dir_blocks() + 1);
        assert!(m.tile(0, 0).next().unwrap().is_none());
        assert!(m.tile(1, 1).next().unwrap().is_some());
    }

    #[test]
    fn tiles_share_pages_and_never_straddle_them() {
        let c = ctx(32);
        // 32x32 over 8x8 tiles. Seven three-entry tiles (9 elements each)
        // fill 63 of a page's 64 elements; the eighth opens page 1, where
        // a 21-entry tile (CSR, 9 + 42 = 51 elements) and a 4-entry tile
        // (12) follow: 9 + 51 = 60, and 12 more do not fit -> page 2.
        let mut trips = Vec::new();
        for t in 0..8 {
            let (r0, c0) = (t / 4 * 8, t % 4 * 8);
            trips.extend([(r0, c0, 1.0), (r0 + 1, c0 + 2, 2.0), (r0 + 7, c0 + 7, 3.0)]);
        }
        trips.extend((0..21).map(|k| (16 + k / 3, 8 + k % 3, k as f64 + 1.0)));
        trips.extend((0..4).map(|k| (24 + k, 31 - k, -1.0)));
        let m =
            SparseMatrix::from_triplets(&c, 32, 32, MatrixLayout::Square, &trips, None).unwrap();
        let slots: Vec<(u32, u32)> = runs(&m).concat().iter().map(|s| (s.page, s.off)).collect();
        let first: Vec<(u32, u32)> = (0..7).map(|t| (0, 9 * t)).collect();
        assert_eq!(slots[..7], first[..]);
        assert_eq!(slots[7..], [(1, 0), (1, 9), (2, 0)]);
        assert_eq!((m.occupied_tiles(), m.occupied_pages()), (10, 3));
        // Page 0 is shared by tile-rows 0 and 1.
        assert_eq!(m.row(0).last().unwrap().page, m.row(1)[0].page);
        assert_eq!(m.to_rows().unwrap(), scatter(32, 32, &trips));
    }

    #[test]
    fn dense_format_kicks_in_above_csr_capacity() {
        let c = ctx(32);
        // Fill one 8x8 tile completely: 64 > csr_cap 27 -> dense page.
        let trips: Vec<(usize, usize, f64)> = (0..8)
            .flat_map(|r| (0..8).map(move |cc| (r, cc, (r * 8 + cc + 1) as f64)))
            .collect();
        let m = SparseMatrix::from_triplets(&c, 8, 8, MatrixLayout::Square, &trips, None).unwrap();
        let mut at = m.tile(0, 0);
        let tile = at.next().unwrap().unwrap();
        assert!(!tile.is_csr());
        assert_eq!(tile.nnz(), 64);
        assert_eq!(m.to_rows().unwrap(), scatter(8, 8, &trips));
    }

    #[test]
    fn csr_row_iteration() {
        let c = ctx(16);
        // Four entries store as triples, twelve as CSR: both iterate a
        // row's entries in column order.
        let few = vec![(2, 1, 1.0), (2, 5, 2.0), (2, 7, 3.0), (4, 0, 9.0)];
        let mut many = few.clone();
        many.extend((0..8).map(|k| (6, k, 0.5)));
        for trips in [few, many] {
            let m =
                SparseMatrix::from_triplets(&c, 8, 8, MatrixLayout::Square, &trips, None).unwrap();
            let mut at = m.tile(0, 0);
            let tile = at.next().unwrap().unwrap();
            assert!(tile.is_csr());
            let mut row2 = Vec::new();
            tile.for_each_in_row(2, |cc, v| row2.push((cc, v)));
            assert_eq!(row2, vec![(1, 1.0), (5, 2.0), (7, 3.0)]);
            let mut row3 = Vec::new();
            tile.for_each_in_row(3, |cc, v| row3.push((cc, v)));
            assert!(row3.is_empty());
            let mut all = Vec::new();
            tile.for_each(|r, cc, v| all.push((r, cc, v)));
            assert_eq!(all, trips);
        }
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
        // 32x32 over 8x8 tiles: 16 tiles; the 3 occupied ones share a page.
        let trips = vec![(0, 0, 1.0), (9, 9, 2.0), (25, 30, 3.0)];
        let m =
            SparseMatrix::from_triplets(&c, 32, 32, MatrixLayout::Square, &trips, None).unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let got = m.to_rows().unwrap();
        let delta = c.io_snapshot() - before;
        assert_eq!(got, scatter(32, 32, &trips));
        assert_eq!((m.occupied_tiles(), m.occupied_pages()), (3, 1));
        assert_eq!(delta.reads, m.occupied_pages(), "only occupied pages read");
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
        let m = SparseMatrix::from_triplets(&c, 32, 32, MatrixLayout::Square, &trips, Some("m"))
            .unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let disk = SparseMatrix::open(&c, "m").unwrap();
        assert_eq!(runs(&disk), runs(&m));
        // One run per tile-row, listing occupied tiles only.
        let tiles: Vec<Vec<u32>> = runs(&disk)
            .iter()
            .map(|run| run.iter().map(|s| s.tj).collect())
            .collect();
        assert_eq!(tiles, [vec![0], vec![1], vec![], vec![3]]);
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
        assert_eq!(m.blocks(), m.dir_blocks());
        assert_eq!(m.to_rows().unwrap(), vec![0.0; 900]);
    }

    #[test]
    fn create_with_plan_then_write_tiles() {
        let c = ctx(16);
        // 2x1 tile grid (16x8 matrix): plan 2 nnz in tile 0, 0 in tile 1.
        let plan = [(0, 0, 2), (1, 0, 0)];
        let mut w =
            SparseMatrix::create_with_plan(&c, 16, 8, MatrixLayout::Square, plan, None).unwrap();
        w.push(&[(0, 3, 7.0), (6, 2, -1.0)]).unwrap();
        let m = w.finish().unwrap();
        assert_eq!(m.get(0, 3).unwrap(), 7.0);
        assert_eq!(m.get(6, 2).unwrap(), -1.0);
        assert_eq!(m.get(12, 4).unwrap(), 0.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "nnz diverged")]
    fn write_tile_rejects_plan_mismatch() {
        let c = ctx(16);
        let w = SparseMatrix::create_with_plan(&c, 8, 8, MatrixLayout::Square, [(0, 0, 1)], None)
            .unwrap();
        w.finish().unwrap(); // zero tiles pushed, plan said one
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
        let (want_rows, want_runs) = (m.to_rows().unwrap(), runs(&m));
        drop(m);
        c.clear_cache().unwrap();

        let before = c.io_snapshot();
        let r = SparseMatrix::open(&c, "m").unwrap();
        // Opening reads exactly the persisted directory.
        assert_eq!((c.io_snapshot() - before).reads, r.dir_blocks());
        assert_eq!(r.shape(), (32, 32));
        assert_eq!(r.layout(), MatrixLayout::Square);
        assert_eq!(r.nnz(), 4);
        assert_eq!((r.occupied_tiles(), r.occupied_pages()), (4, 1));
        assert_eq!(runs(&r), want_runs);
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
        let plan = [(0, 0, 2)];
        let mut w =
            SparseMatrix::create_with_plan(&c, 16, 8, MatrixLayout::Square, plan, Some("p"))
                .unwrap();
        w.push(&[(0, 3, 7.0), (6, 2, -1.0)]).unwrap();
        drop(w.finish().unwrap());
        c.pool().flush_all().unwrap();
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

    #[test]
    fn open_rejects_a_directory_that_disagrees_with_the_packing() {
        let c = ctx(16);
        let trips = [(0, 0, 1.0), (0, 9, 2.0), (9, 1, 3.0)];
        let m = SparseMatrix::from_triplets(&c, 16, 16, MatrixLayout::Square, &trips, Some("m"))
            .unwrap();
        // Stream: [2, (0,1,0,0), (1,1,0,3), 1, (0,1,0,6)]. Corrupt, one
        // at a time: a run longer than the grid, a tile column out of
        // order, an in-page offset the packing cannot produce, an nnz
        // neither the packing nor the header carries.
        for (at, v) in [(0, 3.0), (5, 0.0), (8, 7.0), (2, 2.0)] {
            let good = {
                let mut page = c.pool().pin_mut(BlockId(m.start_block)).unwrap();
                std::mem::replace(&mut page[at], v)
            };
            let err = SparseMatrix::open(&c, "m").err().expect("must fail");
            assert!(err.to_string().contains("disagrees"), "slot {at}: {err}");
            c.pool().pin_mut(BlockId(m.start_block)).unwrap()[at] = good;
        }
        assert_eq!(SparseMatrix::open(&c, "m").unwrap().nnz(), 3);
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
        assert_eq!(t.occupied_tiles(), m.occupied_tiles());
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
        // Planning is directory-cache only; each input page is read once;
        // writes are the output's pages plus its directory.
        assert_eq!(delta.reads, m.occupied_pages());
        assert_eq!(delta.writes, t.blocks());
        assert_eq!(
            t.to_rows().unwrap(),
            transpose_ref(32, 32, &m.to_rows().unwrap())
        );
    }

    #[test]
    fn transpose_walks_the_input_once_per_band_when_the_buffer_is_small() {
        // A 2-frame pool budgets 2 * 64 / 3 = 42 entries: 64 non-zeros in
        // 8 tile columns of 8 re-sort as two bands of 5 and 3 columns.
        let c = ctx(2);
        let trips: Vec<(usize, usize, f64)> =
            (0..64).map(|k| (k, (k * 9) % 64, k as f64 + 1.0)).collect();
        let m =
            SparseMatrix::from_triplets(&c, 64, 64, MatrixLayout::Square, &trips, None).unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let t = m.transpose(None).unwrap();
        // Each band reads the pages holding one of its tiles, once.
        let pages_of = |band: std::ops::Range<u32>| {
            let mut pages: Vec<u32> = runs(&m)
                .concat()
                .iter()
                .filter(|s| band.contains(&s.tj))
                .map(|s| s.page)
                .collect();
            pages.dedup();
            pages.len() as u64
        };
        let reads = (c.io_snapshot() - before).reads;
        assert_eq!(reads, pages_of(0..5) + pages_of(5..8));
        assert!(reads > m.occupied_pages());
        assert_eq!(
            t.to_rows().unwrap(),
            transpose_ref(64, 64, &m.to_rows().unwrap())
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
        assert!(!t.tile(0, 0).next().unwrap().unwrap().is_csr());
        assert_eq!(
            t.to_rows().unwrap(),
            transpose_ref(8, 8, &m.to_rows().unwrap())
        );
    }

    #[test]
    #[should_panic(expected = "nnz diverged")]
    fn write_tile_entries_at_rejects_plan_mismatch() {
        let c = ctx(16);
        let mut w =
            SparseMatrix::create_with_plan(&c, 8, 8, MatrixLayout::Square, [(0, 0, 2)], None)
                .unwrap();
        w.push(&[(0, 0, 1.0)]).unwrap();
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
        assert!(!m.tile(0, 0).next().unwrap().unwrap().is_csr());
    }
}
