//! Out-of-core sparse kernels over the block-compressed format.
//!
//! Together with the dense kernels of [`super::matmul`], the family below
//! closes the `{sparse, dense} x {sparse, dense}` product table and the
//! unary transpose, so no combination is forced through a densifying
//! conversion (the §5 argument: format-aware operators, not format
//! conversions, are where the I/O wins live).
//!
//! Every kernel that reads a sparse operand reads it through one strip
//! walker, [`SparseMatrix::tile_row`]: a cursor over a tile-row that pins
//! each of its pages once and lends the decoded tiles in `tj` order. The
//! kernels keep only their inner expression — and the declaration of the
//! next strip ([`SparseMatrix::prefetch_tile_row`], plus the dense
//! rectangles that strip will pull). Occupied tiles share pages, so
//! `occupied_pages` below counts *pages*, typically far fewer than the
//! occupied tiles. Per-kernel counted-I/O contracts (pinned by
//! `tests/sparse_exec.rs`, `tests/prop_sparse.rs` and the unit tests
//! here; page layout in the [`riot_sparse`] crate docs):
//!
//! * [`spmv`] — sparse matrix x dense vector. Walks tile-rows: reads are
//!   `occupied_pages + x.blocks` whenever the pool holds `x` beside a
//!   page (each page is read once even when two tile-rows share it); `y`
//!   streams out whole blocks at a time (each written exactly once, never
//!   read back), so its blocks cost pure writes.
//! * [`dmv`] — the dense reference the sparse path is measured against
//!   (reads every tile of `A` regardless of content).
//! * [`spmdm`] — sparse x dense with **dense accumulator strips**: the
//!   accumulators of one output tile-row live in memory; each occupied
//!   sparse tile pulls the matching block-row of the dense operand, so
//!   skipped sparse tiles skip their dense reads too. Reads of `A` are
//!   `occupied_pages`; every output block is written once, whole. This is
//!   the kernel `a %*% v` reaches from R (`n3 = 1`).
//! * [`dmspm`] — dense x sparse, mirroring [`spmdm`] from the right: the
//!   accumulator strip follows the dense operand's tile-rows, and only
//!   sparse tile-rows with at least one occupied tile pull the matching
//!   rectangle of the dense operand. Reads are `occupied_pages(B)` per
//!   strip that finds them evicted, plus the `A` rectangles matching
//!   occupied `B` tile-rows — a fully empty `B` tile-row costs zero `A`
//!   I/O.
//! * [`sptranspose`] — native sparse transpose. Planning derives the
//!   output directory from the cached input directory (zero I/O); the
//!   data pass reads each input page exactly once, re-sorts the entries
//!   in memory and appends the output pages in order. Total:
//!   `occupied_pages` reads whenever the re-sort buffer fits the pool's
//!   capacity, the output's `blocks()` in writes.
//! * [`spmm`] — sparse x sparse producing a sparse result. The output
//!   extent must be sized before any page can land, so the kernel runs
//!   **two passes** — pass one **spills** each computed tile's entries to
//!   a growable catalog extent ([`SpmmPlan`]), and pass two replays the
//!   spill into the output's page appender instead of recomputing: zero
//!   extra flops, zero re-reads of `A` or `B`. [`spmm_plan`] /
//!   [`spmm_fill`] expose the passes individually so tests can pin
//!   exactly that.
//!
//! The dense results of [`spmdm`] and [`dmspm`] take square tiles, or
//! tall `ColMajor` ones when the result is narrower than a square tile
//! (`product_matrix`): an `n x 1` product is `n / B` blocks, not one
//! block per `sqrt(B)` values.
//!
//! Each kernel takes `threads`: independent strips (or output tiles) are
//! distributed over that many scoped workers, results are bit-identical
//! at every count, and `threads <= 1` runs inline in order — the
//! sequential device sequence. All kernels return `(result, flops)` where
//! flops counts scalar multiplications (for [`sptranspose`], moved
//! non-zeros), so measured I/O and arithmetic can be checked against the
//! cost model like the dense kernels.

use std::sync::{Arc, Condvar, Mutex};

use riot_array::{DenseMatrix, DenseVector, MatrixLayout, StorageCtx, TileOrder, VectorWriter};
use riot_sparse::SparseMatrix;
use riot_storage::{BlockId, ObjectId};

use super::gemm::axpy;
use super::matmul::{prefetch_rect, read_rect, write_rect};
use super::{run_parallel, ExecError, ExecResult};

/// Out-of-core sparse matrix-vector multiply `y = A x`.
///
/// Reads the pages of `A` once each and streams `x` per tile-row; `y`
/// streams out whole blocks at a time as pure write I/O (no
/// read-modify-write of fresh output pages).
///
/// Work items are **output-block groups** of tile-rows distributed over
/// `threads` scoped workers, each owning its accumulator/`x` scratch, so
/// every worker writes whole disjoint blocks of `y`. Results are
/// bit-identical at every thread count (each output element is one
/// worker's ordinary tile-row fold) and — in the in-memory regime — total
/// counted I/O is identical too. `threads <= 1` runs the groups inline in
/// order: the sequential device sequence.
pub fn spmv(
    a: &SparseMatrix,
    x: &DenseVector,
    threads: usize,
    name: Option<&str>,
) -> ExecResult<(DenseVector, u64)> {
    let (rows, cols) = a.shape();
    assert_eq!(x.len(), cols, "spmv operand lengths");
    let (tile_r, tile_c) = a.tile_dims();
    let y = DenseVector::create(a.ctx(), rows, name)?;
    // Tile dims come from the block size, so whole tile-rows pack into
    // whole output blocks: groups never share a block.
    let group = y.elems_per_block();
    debug_assert_eq!(group % tile_r, 0, "tile-rows pack into y blocks");
    let groups: Vec<usize> = (0..rows).step_by(group).collect();

    let run_group = |g0: usize, acc: &mut [f64], xbuf: &mut [f64]| -> ExecResult<u64> {
        a.ctx().governor().checkpoint("sparse.spmv.group")?;
        let g_rows = group.min(rows - g0);
        acc[..g_rows].fill(0.0);
        let mut flops = 0u64;
        for ti in (g0 / tile_r) as u64..(g0 + g_rows).div_ceil(tile_r) as u64 {
            // Next strip's pages load while this one computes.
            a.prefetch_tile_row(ti + 1);
            let strip = &mut acc[ti as usize * tile_r - g0..];
            let mut tiles = a.tile_row(ti);
            while let Some(tile) = tiles.next()? {
                let c0 = tile.tj() as usize * tile_c;
                let take = tile_c.min(cols - c0);
                x.read_range(c0, &mut xbuf[..take])?;
                tile.for_each(|r, c, v| strip[r] += v * xbuf[c]);
                flops += tile.nnz() as u64;
            }
        }
        y.write_range(g0, &acc[..g_rows])?;
        a.ctx().governor().add_flops(flops);
        Ok(flops)
    };

    let flops = run_parallel(
        threads,
        &groups,
        || (vec![0.0; group], vec![0.0; tile_c]),
        |&g0, (acc, xbuf)| run_group(g0, acc, xbuf),
    )?;
    Ok((y, flops))
}

/// Dense reference matrix-vector multiply `y = A x`, tile by tile: the
/// kernel the sparse path is measured against (it must read every tile of
/// `A` regardless of content).
pub fn dmv(a: &DenseMatrix, x: &DenseVector, name: Option<&str>) -> ExecResult<(DenseVector, u64)> {
    let (rows, cols) = a.shape();
    assert_eq!(x.len(), cols, "dmv operand lengths");
    let (tile_r, tile_c) = a.tile_dims();
    let (tr, tc) = a.tile_grid();
    let mut writer = VectorWriter::new(a.ctx(), rows, name)?;
    let mut acc = vec![0.0; tile_r];
    let mut xbuf = vec![0.0; tile_c];
    let mut flops = 0u64;
    for ti in 0..tr {
        a.ctx().governor().checkpoint("sparse.dmv.strip")?;
        let strip_f0 = flops;
        let r0 = ti as usize * tile_r;
        let m = tile_r.min(rows - r0);
        acc[..m].fill(0.0);
        for tj in 0..tc {
            let tile = a.pin_tile(ti, tj)?;
            let c0 = tj as usize * tile_c;
            let take = tile_c.min(cols - c0);
            x.read_range(c0, &mut xbuf[..take])?;
            for r in 0..m {
                let row = &tile[r * tile_c..r * tile_c + take];
                let mut s = 0.0;
                for (rv, xv) in row.iter().zip(&xbuf[..take]) {
                    s += rv * xv;
                }
                acc[r] += s;
            }
            flops += (m * take) as u64;
        }
        writer.push_chunk(&acc[..m])?;
        a.ctx().governor().add_flops(flops - strip_f0);
    }
    Ok((writer.finish()?, flops))
}

/// The `n1 x n3` result of a product with a sparse operand. A result
/// narrower than a square tile takes tall `ColMajor` tiles: an `n x 1`
/// product is `n / B` blocks rather than one nearly empty block per
/// `sqrt(B)` values, and the next multiplication reads it back as such.
fn product_matrix(
    ctx: &Arc<StorageCtx>,
    n1: usize,
    n3: usize,
    name: Option<&str>,
) -> ExecResult<DenseMatrix> {
    let square = MatrixLayout::Square.tile_dims(ctx.elems_per_block());
    let layout = if n3 < square.1 {
        MatrixLayout::ColMajor
    } else {
        MatrixLayout::Square
    };
    Ok(DenseMatrix::create(
        ctx,
        n1,
        n3,
        layout,
        TileOrder::RowMajor,
        name,
    )?)
}

/// Sparse `A` times dense `B`, producing a dense matrix (tiled by
/// `product_matrix`). Each tile-row of `A` accumulates into a dense
/// `tile_r x n3` strip; only occupied `A` tiles pull the matching
/// `tile_c x n3` block-row of `B`.
///
/// Work items are groups of tile-rows covering whole output tile-rows
/// (one tile-row of `A` unless the output's tiles are taller), so every
/// output block is written once, whole, by one worker. Groups are
/// independent, so results are bit-identical at every thread count and —
/// in the in-memory regime — total counted I/O is identical too.
/// `threads <= 1` runs the groups inline in order: the sequential device
/// sequence.
pub fn spmdm(
    a: &SparseMatrix,
    b: &DenseMatrix,
    threads: usize,
    name: Option<&str>,
) -> ExecResult<(DenseMatrix, u64)> {
    let (n1, n2) = a.shape();
    assert_eq!(n2, b.rows(), "spmdm inner dimensions");
    let n3 = b.cols();
    let (tile_r, tile_c) = a.tile_dims();
    let t = product_matrix(a.ctx(), n1, n3, name)?;
    let group = tile_r.max(t.tile_dims().0);
    let groups: Vec<usize> = (0..n1).step_by(group).collect();
    let run_group = |g0: usize, acc: &mut [f64], brow: &mut [f64]| -> ExecResult<u64> {
        let g_rows = group.min(n1 - g0);
        acc[..g_rows * n3].fill(0.0);
        let mut flops = 0u64;
        for ti in (g0 / tile_r) as u64..(g0 + g_rows).div_ceil(tile_r) as u64 {
            a.ctx().governor().checkpoint("sparse.spmdm.strip")?;
            // Declare the next strip: its `A` pages and the matching `B`
            // block-rows load while this strip computes (the bounded
            // prefetch queue caps how much of the window is accepted).
            a.prefetch_tile_row(ti + 1);
            for next in a.row(ti + 1) {
                let k0 = next.tj as usize * tile_c;
                prefetch_rect(b, k0, 0, tile_c.min(n2 - k0), n3);
            }
            let strip = &mut acc[(ti as usize * tile_r - g0) * n3..];
            let mut tiles = a.tile_row(ti);
            while let Some(tile) = tiles.next()? {
                let k0 = tile.tj() as usize * tile_c;
                read_rect(b, k0, 0, tile_c.min(n2 - k0), n3, brow)?;
                tile.for_each(|r, k, v| {
                    axpy(v, &brow[k * n3..][..n3], &mut strip[r * n3..][..n3]);
                });
                flops += tile.nnz() as u64 * n3 as u64;
            }
        }
        write_rect(&t, g0, 0, g_rows, n3, acc)?;
        a.ctx().governor().add_flops(flops);
        Ok(flops)
    };
    let flops = run_parallel(
        threads,
        &groups,
        || (vec![0.0; group * n3], vec![0.0; tile_c * n3]),
        |&g0, (acc, brow)| run_group(g0, acc, brow),
    )?;
    Ok((t, flops))
}

/// Dense `A` times sparse `B`, producing a dense matrix (tiled by
/// `product_matrix`) — the mirror image of [`spmdm`]. Each strip of
/// `A`'s rows accumulates into a dense `strip x n3` buffer; within a
/// strip, a tile-row of `B` with at least one occupied tile pulls the
/// matching `strip x tile_k` rectangle of `A` exactly once, and a fully
/// empty `B` tile-row pulls nothing.
///
/// Strips (one tile-row of `A`, or of the output where its tiles are
/// taller) are distributed over `threads` scoped workers, each owning its
/// accumulator and `A`-rectangle scratch; `B` is read shared. Strips are
/// independent, so results are bit-identical at every thread count and —
/// in the in-memory regime — total counted I/O is identical too.
/// `threads <= 1` runs the strips inline in order: the sequential device
/// sequence.
pub fn dmspm(
    a: &DenseMatrix,
    b: &SparseMatrix,
    threads: usize,
    name: Option<&str>,
) -> ExecResult<(DenseMatrix, u64)> {
    let (n1, n2) = a.shape();
    assert_eq!(n2, b.rows(), "dmspm inner dimensions");
    let n3 = b.cols();
    let (tile_k, tile_c) = b.tile_dims();
    let t = product_matrix(a.ctx(), n1, n3, name)?;
    let strip = a.tile_dims().0.max(t.tile_dims().0);
    let strips: Vec<usize> = (0..n1).step_by(strip).collect();
    let run_strip = |r0: usize, acc: &mut [f64], abuf: &mut [f64]| -> ExecResult<u64> {
        a.ctx().governor().checkpoint("sparse.dmspm.strip")?;
        let m = strip.min(n1 - r0);
        let mut flops = 0u64;
        acc[..m * n3].fill(0.0);
        for tk in 0..b.tile_grid().0 {
            // Next `B` tile-row (and the `A` rectangle it will pull, when
            // occupied) loads while this tile-row computes.
            b.prefetch_tile_row(tk + 1);
            if !b.row(tk + 1).is_empty() {
                let k1 = (tk + 1) as usize * tile_k;
                prefetch_rect(a, r0, k1, m, tile_k.min(n2 - k1));
            }
            let k0 = tk as usize * tile_k;
            let kk = tile_k.min(n2 - k0);
            if !b.row(tk).is_empty() {
                read_rect(a, r0, k0, m, kk, abuf)?;
            }
            let mut tiles = b.tile_row(tk);
            while let Some(tile) = tiles.next()? {
                let c0 = tile.tj() as usize * tile_c;
                tile.for_each(|k, c, v| {
                    let col = c0 + c;
                    for r in 0..m {
                        acc[r * n3 + col] += abuf[r * kk + k] * v;
                    }
                });
                flops += tile.nnz() as u64 * m as u64;
            }
        }
        write_rect(&t, r0, 0, m, n3, acc)?;
        a.ctx().governor().add_flops(flops);
        Ok(flops)
    };
    let flops = run_parallel(
        threads,
        &strips,
        || (vec![0.0; strip * n3], vec![0.0; strip * tile_k]),
        |&r0, (acc, abuf)| run_strip(r0, acc, abuf),
    )?;
    Ok((t, flops))
}

/// Native sparse transpose: `(t(A), moved non-zeros)`.
///
/// A thin counting wrapper over [`SparseMatrix::transpose`] — the result
/// stays sparse and the planning pass derives the output directory from
/// the cached input directory without touching storage. Counted I/O:
/// `occupied_pages` reads (while the re-sort buffer fits the pool's
/// capacity) + the output's `blocks()` in writes.
pub fn sptranspose(a: &SparseMatrix, name: Option<&str>) -> ExecResult<(SparseMatrix, u64)> {
    a.ctx().governor().checkpoint("sparse.transpose")?;
    let t = a.transpose(name)?;
    a.ctx().governor().add_flops(a.nnz());
    Ok((t, a.nnz()))
}

// ---- SpMM: planned pass one, spilled, replayed by pass two -------------
//
// Spill stream format: for each occupied output tile in row-major tile
// order, its entries as three consecutive f64s (local row, local col,
// value), already sorted by (row, col). No per-tile headers: the plan's
// nnz counts delimit the stream.

/// An append-only `f64` stream over a growable catalog object
/// ([`StorageCtx::alloc_growable`] / [`StorageCtx::extend_object`]): the
/// spill of SpMM's pass-one results. Blocks are written through the pool,
/// so spill I/O shows up in the same counters as everything else. The
/// object is released on drop — whether an error unwinds pass one with
/// the spill half written or pass two is done replaying it — so neither
/// failed nor finished plans leak spill storage.
struct Spill {
    ctx: Arc<StorageCtx>,
    object: ObjectId,
    /// Every block of the object, segment by segment, in stream order.
    blocks: Vec<BlockId>,
    /// The current partial block.
    buf: Vec<f64>,
    epb: usize,
    /// Total values pushed.
    len: u64,
}

impl Spill {
    fn new(ctx: &Arc<StorageCtx>, name: &str) -> ExecResult<Self> {
        let (object, extent) = ctx.alloc_growable(1, Some(name))?;
        Ok(Spill {
            ctx: Arc::clone(ctx),
            object,
            blocks: (0..extent.blocks).map(|i| extent.block(i)).collect(),
            buf: Vec::with_capacity(ctx.elems_per_block()),
            epb: ctx.elems_per_block(),
            len: 0,
        })
    }

    fn push(&mut self, v: f64) -> ExecResult<()> {
        self.buf.push(v);
        self.len += 1;
        if self.buf.len() == self.epb {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Write the current block out (the last, partial one too: pass one
    /// calls this once more when it has pushed everything).
    fn flush_block(&mut self) -> ExecResult<()> {
        let used = (self.len as usize - self.buf.len()) / self.epb;
        if used == self.blocks.len() {
            // Grow geometrically (capped) so extension stays O(log n)
            // catalog calls without over-allocating small spills.
            let grow = (self.blocks.len() as u64).clamp(1, 64);
            let seg = self.ctx.extend_object(self.object, grow)?;
            self.blocks.extend((0..seg.blocks).map(|i| seg.block(i)));
        }
        let mut page = self.ctx.pool().pin_new(self.blocks[used])?;
        page[..self.buf.len()].copy_from_slice(&self.buf);
        page[self.buf.len()..].fill(0.0);
        self.buf.clear();
        Ok(())
    }

    /// Blocks a full sequential read touches (allocated-but-unused tail
    /// segments are never read).
    fn data_blocks(&self) -> u64 {
        (self.len as usize).div_ceil(self.epb) as u64
    }
}

impl Drop for Spill {
    fn drop(&mut self) {
        // Best-effort: a failure here only leaks simulated disk.
        let _ = self.ctx.drop_object(self.object);
    }
}

/// Sequential reader over a written [`Spill`], one pinned block at a time.
struct SpillReader<'f> {
    file: &'f Spill,
    at: u64,
    buf: Vec<f64>,
}

impl<'f> SpillReader<'f> {
    fn new(file: &'f Spill) -> Self {
        SpillReader {
            file,
            at: 0,
            buf: Vec::new(),
        }
    }

    fn next(&mut self) -> ExecResult<f64> {
        assert!(self.at < self.file.len, "spill stream over-read");
        let off = (self.at as usize) % self.file.epb;
        if off == 0 {
            let idx = (self.at as usize) / self.file.epb;
            // Sequential read-ahead: the next spill block loads while this
            // one's entries are consumed.
            if ((idx + 1) as u64) < self.file.data_blocks() {
                self.file.ctx.pool().prefetch([self.file.blocks[idx + 1]]);
            }
            let page = self.file.ctx.pool().pin(self.file.blocks[idx])?;
            self.buf.clear();
            self.buf.extend_from_slice(&page[..]);
        }
        self.at += 1;
        Ok(self.buf[off])
    }
}

/// SpMM's pass-one product: the per-output-tile nnz plan **plus** the
/// computed non-zeros themselves, spilled to a growable catalog extent so
/// [`spmm_fill`] replays them instead of recomputing. Holding a plan pins
/// the input handles; dropping it (with or without filling) releases the
/// spill storage.
pub struct SpmmPlan {
    a: SparseMatrix,
    b: SparseMatrix,
    /// Per-output-tile nnz in row-major tile order.
    tile_nnz: Vec<u32>,
    spill: Spill,
    flops: u64,
}

impl SpmmPlan {
    /// Non-zeros of the product (summed over the plan).
    pub fn out_nnz(&self) -> u64 {
        self.tile_nnz.iter().map(|&n| u64::from(n)).sum()
    }

    /// Blocks [`spmm_fill`]'s replay reads from the spill — the *entire*
    /// pass-two read footprint beyond the output extent itself.
    pub fn spill_blocks(&self) -> u64 {
        self.spill.data_blocks()
    }

    /// Scalar multiplications pass one performed.
    pub fn flops(&self) -> u64 {
        self.flops
    }
}

/// SpMM pass one: compute every output tile once (dense accumulator tile
/// in memory), record its nnz in the plan, and spill its sorted entries.
///
/// Output tiles are computed by `threads` scoped workers, each owning its
/// dense accumulator scratch, but their entries are appended to the spill
/// strictly in row-major tile order by the coordinating thread — so the
/// spill stream (and therefore the plan, the filled product, and the
/// spill's block count) is **bit-identical** at every thread count.
/// `threads <= 1` computes the cells inline in order: the sequential
/// device sequence.
pub fn spmm_plan(a: &SparseMatrix, b: &SparseMatrix, threads: usize) -> ExecResult<SpmmPlan> {
    let (_, n2) = a.shape();
    assert_eq!(n2, b.rows(), "spmm inner dimensions");
    let (atr, atc) = a.tile_dims();
    let (btr, btc) = b.tile_dims();
    assert_eq!(
        atc, btr,
        "spmm tile grids must align on the inner dimension"
    );
    assert_eq!(
        atc, btc,
        "spmm output tiling follows A's layout; B's tile width must match"
    );
    let (gtr, _) = a.tile_grid();
    let (_, gtc) = b.tile_grid();
    let cells: Vec<(u64, u64)> = (0..gtr)
        .flat_map(|bi| (0..gtc).map(move |bj| (bi, bj)))
        .collect();

    // Declare one output cell's input pages (pairs where both the A and B
    // tile are occupied — exactly the pages the compute will pin).
    let prefetch_cell = |(bi, bj): (u64, u64)| {
        let pairs = a.row(bi).iter().filter_map(|at| {
            let bt = b.slot(u64::from(at.tj), bj)?;
            Some([a.page_block(at.page), b.page_block(bt.page)])
        });
        a.ctx().pool().prefetch(pairs.flatten());
    };

    // One output tile: accumulate into `scratch`, extract the sorted
    // non-zero entries; returns the cell's flop count.
    let run_cell = |(bi, bj): (u64, u64),
                    scratch: &mut [f64],
                    entries: &mut Vec<(usize, usize, f64)>|
     -> ExecResult<u64> {
        a.ctx().governor().checkpoint("sparse.spmm.cell")?;
        scratch.fill(0.0);
        let mut fl = 0u64;
        let mut a_tiles = a.tile_row(bi);
        while let Some(at) = a_tiles.next()? {
            let mut b_tile = b.tile(at.tj(), bj);
            let Some(bt) = b_tile.next()? else { continue };
            at.for_each(|r, k, va| {
                bt.for_each_in_row(k, |c, vb| {
                    scratch[r * btc + c] += va * vb;
                    fl += 1;
                });
            });
        }
        entries.clear();
        for (i, &v) in scratch.iter().enumerate() {
            if v != 0.0 {
                entries.push((i / btc, i % btc, v));
            }
        }
        a.ctx().governor().add_flops(fl);
        Ok(fl)
    };

    let mut spill = Spill::new(a.ctx(), "spmm-spill")?;
    let mut tile_nnz = Vec::with_capacity(cells.len());
    let mut flops = 0u64;
    let append = |spill: &mut Spill, entries: &[(usize, usize, f64)]| -> ExecResult<()> {
        for &(r, c, v) in entries {
            spill.push(r as f64)?;
            spill.push(c as f64)?;
            spill.push(v)?;
        }
        Ok(())
    };

    if threads <= 1 {
        let mut scratch = vec![0.0; atr * btc];
        let mut entries = Vec::new();
        for (idx, &cell) in cells.iter().enumerate() {
            // The next cell's pages load while this cell computes.
            if idx + 1 < cells.len() {
                prefetch_cell(cells[idx + 1]);
            }
            flops += run_cell(cell, &mut scratch, &mut entries)?;
            append(&mut spill, &entries)?;
            tile_nnz.push(entries.len() as u32);
        }
    } else {
        // One long-lived worker pool for the whole grid: workers claim
        // cells (throttled to a small window past the append frontier, so
        // buffered results stay bounded), and the coordinating thread
        // consumes them strictly in row-major order — the spill stream is
        // byte-identical to the sequential pass. Each worker allocates
        // its scratch exactly once.
        type CellOut = (Vec<(usize, usize, f64)>, u64);
        struct Shared {
            /// Finished-but-unappended cells, indexed by cell number.
            results: Vec<Option<CellOut>>,
            /// Next cell a worker may claim.
            next: usize,
            /// Cells appended to the spill so far (the window base).
            appended: usize,
            failure: Option<ExecError>,
        }
        let window = 2 * threads;
        let shared = Mutex::new(Shared {
            results: (0..cells.len()).map(|_| None).collect(),
            next: 0,
            appended: 0,
            failure: None,
        });
        let ready = Condvar::new();
        let mut append_err: ExecResult<()> = Ok(());
        std::thread::scope(|s| {
            for _ in 0..threads.min(cells.len()) {
                s.spawn(|| {
                    let mut scratch = vec![0.0; atr * btc];
                    loop {
                        let i = {
                            let mut st = shared.lock().unwrap();
                            loop {
                                if st.failure.is_some() || st.next == cells.len() {
                                    return; // done or a sibling failed
                                }
                                if st.next < st.appended + window {
                                    break;
                                }
                                st = ready.wait(st).unwrap();
                            }
                            let i = st.next;
                            st.next += 1;
                            i
                        };
                        // Own-cell window: the pool loads the cell's pages
                        // concurrently while the first pin runs.
                        prefetch_cell(cells[i]);
                        let mut entries = Vec::new();
                        match run_cell(cells[i], &mut scratch, &mut entries) {
                            Ok(fl) => {
                                let mut st = shared.lock().unwrap();
                                st.results[i] = Some((entries, fl));
                                ready.notify_all();
                            }
                            Err(e) => {
                                let mut st = shared.lock().unwrap();
                                st.failure.get_or_insert(e);
                                ready.notify_all();
                                return;
                            }
                        }
                    }
                });
            }
            // Coordinator: append each cell as it becomes ready, in order.
            for i in 0..cells.len() {
                let out = {
                    let mut st = shared.lock().unwrap();
                    loop {
                        if st.failure.is_some() {
                            return; // error surfaces after the scope
                        }
                        if let Some(out) = st.results[i].take() {
                            st.appended = i + 1;
                            ready.notify_all();
                            break out;
                        }
                        st = ready.wait(st).unwrap();
                    }
                };
                let (entries, fl) = out;
                flops += fl;
                if let Err(e) = append(&mut spill, &entries) {
                    append_err = Err(e);
                    let mut st = shared.lock().unwrap();
                    // Stop the workers; the real error returns below.
                    st.failure
                        .get_or_insert(ExecError::Unsupported(String::new()));
                    ready.notify_all();
                    return;
                }
                tile_nnz.push(entries.len() as u32);
            }
        });
        append_err?;
        if let Some(e) = shared.into_inner().unwrap().failure {
            return Err(e);
        }
    }
    if !spill.buf.is_empty() {
        spill.flush_block()?;
    }
    Ok(SpmmPlan {
        a: a.clone(),
        b: b.clone(),
        tile_nnz,
        spill,
        flops,
    })
}

/// SpMM pass two: size the output from the plan, then **replay the
/// spill** — no tile of `A` or `B` is re-read and no multiplication is
/// re-executed. Reads are exactly [`SpmmPlan::spill_blocks`]; the spill
/// is released before returning.
pub fn spmm_fill(plan: SpmmPlan, name: Option<&str>) -> ExecResult<(SparseMatrix, u64)> {
    let (n1, _) = plan.a.shape();
    let n3 = plan.b.cols();
    let (_, gtc) = plan.b.tile_grid();
    let cells = plan.tile_nnz.iter().zip(0u64..);
    let mut out = SparseMatrix::create_with_plan(
        plan.a.ctx(),
        n1,
        n3,
        plan.a.layout(),
        cells.clone().map(|(&nnz, i)| (i / gtc, i % gtc, nnz)),
        name,
    )?;
    let mut reader = SpillReader::new(&plan.spill);
    let mut entries = Vec::new();
    for (&nnz, _) in cells.filter(|c| *c.0 > 0) {
        plan.a.ctx().governor().checkpoint("sparse.spmm.fill")?;
        entries.clear();
        for _ in 0..nnz {
            let r = reader.next()? as usize;
            let c = reader.next()? as usize;
            let v = reader.next()?;
            entries.push((r, c, v));
        }
        out.push(&entries)?;
    }
    debug_assert_eq!(reader.at, plan.spill.len, "spill fully consumed");
    Ok((out.finish()?, plan.flops))
}

/// Sparse x sparse multiply producing a sparse result with `A`'s tiling:
/// [`spmm_plan`] (on `threads` workers) then [`spmm_fill`]. Every
/// multiplication runs exactly once; memory is one dense accumulator tile
/// per worker plus one spill block, and the product is bit-identical at
/// every thread count.
pub fn spmm(
    a: &SparseMatrix,
    b: &SparseMatrix,
    threads: usize,
    name: Option<&str>,
) -> ExecResult<(SparseMatrix, u64)> {
    spmm_fill(spmm_plan(a, b, threads)?, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_array::StorageCtx;
    use std::sync::Arc;

    /// 512-byte blocks: 64 elements, 8x8 square tiles.
    fn ctx(frames: usize) -> Arc<StorageCtx> {
        StorageCtx::new_mem(512, frames)
    }

    fn band_triplets(rows: usize, cols: usize) -> Vec<(usize, usize, f64)> {
        // A banded pattern: occupied only near the (wrapped) diagonal.
        (0..rows)
            .flat_map(|r| {
                [(r, r % cols), (r, (r + 3) % cols)]
                    .into_iter()
                    .map(move |(i, j)| (i, j, (i * cols + j) as f64 * 0.25 + 1.0))
            })
            .collect()
    }

    fn dense_ref_mv(rows: usize, cols: usize, m: &[f64], x: &[f64]) -> Vec<f64> {
        (0..rows)
            .map(|r| (0..cols).map(|c| m[r * cols + c] * x[c]).sum())
            .collect()
    }

    fn assert_close(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-9, "got {g}, want {w}");
        }
    }

    #[test]
    fn spmv_matches_dense_reference() {
        let c = ctx(64);
        let (rows, cols) = (37, 29); // ragged vs 8x8 tiles
        let trips = band_triplets(rows, cols);
        let a = SparseMatrix::from_triplets(&c, rows, cols, MatrixLayout::Square, &trips, None)
            .unwrap();
        let xdata: Vec<f64> = (0..cols).map(|i| (i as f64 * 0.3).sin()).collect();
        let x = DenseVector::from_slice(&c, &xdata, None).unwrap();
        let (y, flops) = spmv(&a, &x, 1, None).unwrap();
        assert_eq!(flops, a.nnz());
        let want = dense_ref_mv(rows, cols, &a.to_rows().unwrap(), &xdata);
        assert_close(&y.to_vec().unwrap(), &want);
    }

    #[test]
    fn spmv_reads_only_occupied_pages() {
        let c = ctx(64);
        let (rows, cols) = (64, 64); // 8x8 grid of 8x8 tiles
        let trips = vec![(0, 0, 1.0), (20, 40, 2.0), (63, 7, 3.0)];
        let a = SparseMatrix::from_triplets(&c, rows, cols, MatrixLayout::Square, &trips, None)
            .unwrap();
        let x = DenseVector::from_slice(&c, &vec![1.0; cols], None).unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let (y, _) = spmv(&a, &x, 1, None).unwrap();
        let delta = c.io_snapshot() - before;
        // 3 occupied pages + at most one x block per occupied tile.
        assert!(
            delta.reads <= a.occupied_pages() + 3,
            "reads {} vs occupied {}",
            delta.reads,
            a.occupied_pages()
        );
        assert!(delta.reads < a.dense_blocks());
        assert_eq!(y.get(0).unwrap(), 1.0);
    }

    #[test]
    fn spmdm_matches_dense_multiply() {
        let c = ctx(128);
        let (n1, n2, n3) = (20, 24, 13);
        let trips = band_triplets(n1, n2);
        let a =
            SparseMatrix::from_triplets(&c, n1, n2, MatrixLayout::Square, &trips, None).unwrap();
        let b = DenseMatrix::from_fn(
            &c,
            n2,
            n3,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
            |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0,
        )
        .unwrap();
        let (t, flops) = spmdm(&a, &b, 1, None).unwrap();
        assert_eq!(flops, a.nnz() * n3 as u64);
        let ad = a.to_rows().unwrap();
        let bd = b.to_rows().unwrap();
        let mut want = vec![0.0; n1 * n3];
        for i in 0..n1 {
            for k in 0..n2 {
                for j in 0..n3 {
                    want[i * n3 + j] += ad[i * n2 + k] * bd[k * n3 + j];
                }
            }
        }
        assert_close(&t.to_rows().unwrap(), &want);
    }

    #[test]
    fn spmm_matches_dense_multiply_and_stays_sparse() {
        let c = ctx(128);
        let (n1, n2, n3) = (24, 16, 24);
        let a = SparseMatrix::from_triplets(
            &c,
            n1,
            n2,
            MatrixLayout::Square,
            &[(0, 0, 2.0), (9, 9, 3.0), (23, 15, -1.0)],
            None,
        )
        .unwrap();
        let b = SparseMatrix::from_triplets(
            &c,
            n2,
            n3,
            MatrixLayout::Square,
            &[(0, 5, 4.0), (9, 9, 5.0), (15, 23, 6.0), (1, 1, 7.0)],
            None,
        )
        .unwrap();
        let (t, _) = spmm(&a, &b, 1, None).unwrap();
        assert_eq!(t.shape(), (n1, n3));
        // Expected: (0,5)=8, (9,9)=15, (23,23)=-6.
        let got = t.to_rows().unwrap();
        let mut want = vec![0.0; n1 * n3];
        want[5] = 8.0;
        want[9 * n3 + 9] = 15.0;
        want[23 * n3 + 23] = -6.0;
        assert_close(&got, &want);
        assert_eq!(t.nnz(), 3);
        // Product of sparse inputs occupies few pages.
        assert!(t.occupied_pages() < t.dense_blocks());
    }

    #[test]
    fn dmspm_matches_dense_multiply() {
        let c = ctx(128);
        let (n1, n2, n3) = (20, 24, 13);
        let a = DenseMatrix::from_fn(
            &c,
            n1,
            n2,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
            |i, j| ((i * 5 + j * 3) % 13) as f64 - 6.0,
        )
        .unwrap();
        let trips = band_triplets(n2, n3);
        let b =
            SparseMatrix::from_triplets(&c, n2, n3, MatrixLayout::Square, &trips, None).unwrap();
        let (t, flops) = dmspm(&a, &b, 1, None).unwrap();
        assert_eq!(flops, b.nnz() * n1 as u64);
        let ad = a.to_rows().unwrap();
        let bd = b.to_rows().unwrap();
        let mut want = vec![0.0; n1 * n3];
        for i in 0..n1 {
            for k in 0..n2 {
                for j in 0..n3 {
                    want[i * n3 + j] += ad[i * n2 + k] * bd[k * n3 + j];
                }
            }
        }
        assert_close(&t.to_rows().unwrap(), &want);
    }

    #[test]
    fn dmspm_skips_dense_reads_for_empty_sparse_tile_rows() {
        let c = ctx(256);
        // A: 16x64 dense (2x8 grid of 8x8 tiles). B: 64x16 sparse with a
        // single occupied tile at tile-row 3: only A's columns 24..32
        // (one tile per strip) may be read.
        let (n1, n2, n3) = (16, 64, 16);
        let a = DenseMatrix::from_fn(
            &c,
            n1,
            n2,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
            |i, j| (i + j) as f64,
        )
        .unwrap();
        let b = SparseMatrix::from_triplets(
            &c,
            n2,
            n3,
            MatrixLayout::Square,
            &[(25, 9, 2.0), (30, 14, -1.0)],
            None,
        )
        .unwrap();
        assert_eq!(b.occupied_pages(), 1);
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let (t, _) = dmspm(&a, &b, 1, None).unwrap();
        let delta = c.io_snapshot() - before;
        // Per output strip (2 strips): 1 B page (cached after the first
        // strip) + 1 A tile. Everything else is skipped.
        let a_tiles_read = 2; // one per strip, at tile-column 3
        assert_eq!(delta.reads, b.occupied_pages() + a_tiles_read);
        // Far below the dense footprint A would cost a dense kernel.
        assert!(delta.reads < a.blocks());
        assert_eq!(t.shape(), (n1, n3));
    }

    #[test]
    fn sptranspose_stays_sparse_with_pinned_io() {
        let c = ctx(64);
        let (rows, cols) = (40, 24);
        let trips = band_triplets(rows, cols);
        let a = SparseMatrix::from_triplets(&c, rows, cols, MatrixLayout::Square, &trips, None)
            .unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let (t, moved) = sptranspose(&a, None).unwrap();
        c.pool().flush_all().unwrap();
        let delta = c.io_snapshot() - before;
        assert_eq!(moved, a.nnz());
        assert_eq!(t.shape(), (cols, rows));
        assert_eq!(t.nnz(), a.nnz());
        assert_eq!(delta.reads, a.occupied_pages(), "reads = occupied pages");
        assert_eq!(
            delta.writes,
            t.occupied_pages() + t.dir_blocks(),
            "writes = output pages + directory"
        );
        // Semantics: t(A)[j][i] == A[i][j].
        let ar = a.to_rows().unwrap();
        let tr = t.to_rows().unwrap();
        for i in 0..rows {
            for j in 0..cols {
                assert_eq!(tr[j * rows + i], ar[i * cols + j]);
            }
        }
    }

    #[test]
    fn spmm_pass_two_replays_the_spill_without_recomputing() {
        let c = ctx(256);
        let (n1, n2, n3) = (32, 32, 32);
        let a = SparseMatrix::from_triplets(
            &c,
            n1,
            n2,
            MatrixLayout::Square,
            &band_triplets(n1, n2),
            None,
        )
        .unwrap();
        let b = SparseMatrix::from_triplets(
            &c,
            n2,
            n3,
            MatrixLayout::Square,
            &band_triplets(n2, n3),
            None,
        )
        .unwrap();
        let plan = spmm_plan(&a, &b, 1).unwrap();
        let pass_one_flops = plan.flops();
        let spill_blocks = plan.spill_blocks();
        assert!(pass_one_flops > 0 && plan.out_nnz() > 0);

        // Pass two from a cold cache: the only reads are the spill replay
        // — no page of A or B is touched again, and no flops accrue.
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let (t, total_flops) = spmm_fill(plan, None).unwrap();
        let delta = c.io_snapshot() - before;
        assert_eq!(total_flops, pass_one_flops, "no recomputation in pass two");
        assert_eq!(delta.reads, spill_blocks, "pass two reads only the spill");
        assert_eq!(t.shape(), (n1, n3));

        // And the result is still the right product.
        let ad = a.to_rows().unwrap();
        let bd = b.to_rows().unwrap();
        let mut want = vec![0.0; n1 * n3];
        for i in 0..n1 {
            for k in 0..n2 {
                for j in 0..n3 {
                    want[i * n3 + j] += ad[i * n2 + k] * bd[k * n3 + j];
                }
            }
        }
        assert_close(&t.to_rows().unwrap(), &want);
    }

    #[test]
    fn spmm_flops_count_each_multiplication_once() {
        let c = ctx(128);
        let (n1, n2, n3) = (24, 16, 24);
        let a = SparseMatrix::from_triplets(
            &c,
            n1,
            n2,
            MatrixLayout::Square,
            &band_triplets(n1, n2),
            None,
        )
        .unwrap();
        let b = SparseMatrix::from_triplets(
            &c,
            n2,
            n3,
            MatrixLayout::Square,
            &band_triplets(n2, n3),
            None,
        )
        .unwrap();
        // Reference: one multiplication per (i, k, j) with both operands
        // non-zero.
        let ad = a.to_rows().unwrap();
        let bd = b.to_rows().unwrap();
        let mut want_flops = 0u64;
        for i in 0..n1 {
            for k in 0..n2 {
                if ad[i * n2 + k] == 0.0 {
                    continue;
                }
                for j in 0..n3 {
                    if bd[k * n3 + j] != 0.0 {
                        want_flops += 1;
                    }
                }
            }
        }
        let (_, flops) = spmm(&a, &b, 1, None).unwrap();
        assert_eq!(flops, want_flops, "each multiplication counted once");
    }

    #[test]
    fn failed_spmm_plan_releases_the_spill() {
        use riot_storage::testing::FailpointDevice;
        use riot_storage::{BufferPool, MemBlockDevice, PoolConfig};

        let device = FailpointDevice::new(Box::new(MemBlockDevice::new(512)));
        let handle = device.handle();
        let c = riot_array::StorageCtx::from_pool(BufferPool::new(
            Box::new(device),
            PoolConfig::default(),
        ));
        let a = SparseMatrix::from_triplets(
            &c,
            16,
            16,
            MatrixLayout::Square,
            &band_triplets(16, 16),
            None,
        )
        .unwrap();
        // Evict everything, then make the first occupied page unreadable:
        // pass one dies mid-stream.
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let first_page = riot_storage::BlockId(a.dir_blocks());
        handle.fail_reads(first_page, 1);
        let live_before = c.live_objects();
        let blocks_before = c.total_blocks();
        assert!(
            spmm_plan(&a, &a, 1).is_err(),
            "injected read error surfaces"
        );
        // The half-written spill did not leak: object count and block
        // footprint are exactly what they were before the attempt.
        assert_eq!(c.live_objects(), live_before);
        assert_eq!(c.total_blocks(), blocks_before);
        // And with the failpoint consumed, the same plan now succeeds.
        let plan = spmm_plan(&a, &a, 1).unwrap();
        assert!(plan.out_nnz() > 0);
    }

    #[test]
    fn spmm_spill_storage_is_released() {
        let c = ctx(128);
        let a = SparseMatrix::from_triplets(
            &c,
            16,
            16,
            MatrixLayout::Square,
            &band_triplets(16, 16),
            None,
        )
        .unwrap();
        let live_before = c.live_objects();
        let (t, _) = spmm(&a, &a, 1, None).unwrap();
        // Only the product object outlives the call: the spill is gone.
        assert_eq!(c.live_objects(), live_before + 1);
        drop(t);
        // Dropping an unfilled plan releases the spill too.
        let plan = spmm_plan(&a, &a, 1).unwrap();
        let live_with_plan = c.live_objects();
        drop(plan);
        assert_eq!(c.live_objects(), live_with_plan - 1);
    }

    #[test]
    fn dmv_matches_spmv_semantics() {
        let c = ctx(64);
        let (rows, cols) = (19, 23);
        let trips = band_triplets(rows, cols);
        let sp = SparseMatrix::from_triplets(&c, rows, cols, MatrixLayout::Square, &trips, None)
            .unwrap();
        let dense = sp.to_dense(TileOrder::RowMajor, None).unwrap();
        let xdata: Vec<f64> = (0..cols).map(|i| i as f64 - 11.0).collect();
        let x = DenseVector::from_slice(&c, &xdata, None).unwrap();
        let (ys, _) = spmv(&sp, &x, 1, None).unwrap();
        let (yd, flops) = dmv(&dense, &x, None).unwrap();
        assert_eq!(flops, (rows * cols) as u64);
        assert_close(&ys.to_vec().unwrap(), &yd.to_vec().unwrap());
    }
}
