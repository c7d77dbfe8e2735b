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
//! * [`spmdm`] — the one sparse x dense product, with the sparse operand
//!   on either [`Side`] and **dense accumulator strips**: the
//!   accumulators of one output strip live in memory and each strip is
//!   written once, whole. `a %*% v` from R is its left side at `n3 = 1`.
//!   - [`Side::Left`] (sparse `A` x dense `B`): a strip walks its own
//!     tile-rows of `A`, and each occupied tile pulls the matching
//!     block-row of `B`, so skipped sparse tiles skip their dense reads
//!     too. Reads are `occupied_pages(A)` plus the `B` block-rows of
//!     occupied tiles — `occupied_pages + v.blocks()` at `n3 = 1`
//!     whenever the pool holds `v` beside a page (a page shared by two
//!     tile-rows is read once).
//!   - [`Side::Right`] (dense `A` x sparse `B`): a strip walks every
//!     tile-row of `B`, and only a tile-row with at least one occupied
//!     tile pulls the matching rectangle of `A`. Reads are
//!     `occupied_pages(B)` per strip that finds them evicted, plus the `A`
//!     rectangles matching occupied `B` tile-rows — a fully empty `B`
//!     tile-row costs zero `A` I/O.
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
//! Each kernel takes `threads`: independent strips (or output tiles) are
//! distributed over that many scoped workers, results are bit-identical
//! at every count, and `threads <= 1` runs inline in order — the
//! sequential device sequence. All kernels return `(result, flops)` where
//! flops counts scalar multiplications (for [`sptranspose`], moved
//! non-zeros), so measured I/O and arithmetic can be checked against the
//! cost model like the dense kernels.

use std::sync::{Arc, OnceLock};

use riot_array::MatrixLayout::{ColMajor, Square};
use riot_array::{DenseMatrix, StorageCtx, TileOrder};
use riot_sparse::SparseMatrix;
use riot_storage::{BlockId, ObjectId};

use super::gemm::axpy;
use super::matmul::{prefetch_rect, read_rect, write_rect};
use super::{run_parallel, ExecResult};

/// Which operand of an [`spmdm`] product is the sparse one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Sparse times dense.
    Left,
    /// Dense times sparse.
    Right,
}

/// The product of a sparse and a dense matrix — `sparse %*% dense` on
/// [`Side::Left`], `dense %*% sparse` on [`Side::Right`] — as a dense
/// matrix. The result takes square tiles, or tall `ColMajor` ones when it
/// is narrower than a square tile: an `n x 1` product is `n / B` blocks
/// rather than one nearly empty block per `sqrt(B)` values, and the next
/// multiplication reads it back as such.
///
/// The output's rows are cut into strips as tall as the tiles of the
/// operand that supplies them (or the output's, where those are taller).
/// A strip accumulates in a dense `strip x n3` buffer and is written
/// once, whole, by one worker. The side decides only:
///
/// * the sparse tile-rows a strip walks — on the left its own, on the
///   right all of them;
/// * the dense rectangle pulled — on the left the `tile_c x n3`
///   block-row matching each occupied sparse tile, on the right the
///   `strip x tile_r` rectangle matching each sparse tile-row with at
///   least one occupied tile (an empty tile-row pulls nothing);
/// * the index order of the update.
///
/// Before a tile-row computes, the next one is declared: its pages, then
/// the rectangles it will pull. Every output element takes its products
/// in ascending inner index and strips are independent, so results are
/// bit-identical at every thread count and — in the in-memory regime —
/// total counted I/O is identical too. `threads <= 1` runs the strips
/// inline in order: the sequential device sequence.
pub fn spmdm(
    sp: &SparseMatrix,
    dense: &DenseMatrix,
    side: Side,
    threads: usize,
    name: Option<&str>,
) -> ExecResult<(DenseMatrix, u64)> {
    let left = side == Side::Left;
    let (tile_r, tile_c) = sp.tile_dims();
    // Per side: the tile edge along the inner index, and the height of
    // the tiles of the operand that supplies the output's rows.
    let ((n1, n2), (inner, n3), tile_k, row_tiles) = match side {
        Side::Left => (sp.shape(), dense.shape(), tile_c, tile_r),
        Side::Right => (dense.shape(), sp.shape(), tile_r, dense.tile_dims().0),
    };
    assert_eq!(n2, inner, "spmdm inner dimensions");
    let square = Square.tile_dims(sp.ctx().elems_per_block());
    let layout = if n3 < square.1 { ColMajor } else { Square };
    let t = DenseMatrix::create(sp.ctx(), n1, n3, layout, TileOrder::RowMajor, name)?;
    let strip = row_tiles.max(t.tile_dims().0);
    let strips: Vec<usize> = (0..n1).step_by(strip).collect();
    let run_strip = |r0: usize, acc: &mut [f64], pulled: &mut [f64]| -> ExecResult<u64> {
        let m = strip.min(n1 - r0);
        acc[..m * n3].fill(0.0);
        let mut flops = 0u64;
        // The dense rectangle `(row, col, rows, cols)` pulled for sparse
        // tile `(ti, tj)`: its block-row on the left, the strip's
        // rectangle matching its tile-row on the right.
        let rect = |ti: u64, tj: u64| {
            let k0 = (if left { tj } else { ti }) as usize * tile_k;
            let kk = tile_k.min(n2 - k0);
            if left {
                (k0, 0, kk, n3)
            } else {
                (r0, k0, m, kk)
            }
        };
        let walk = match side {
            Side::Left => (r0 / tile_r) as u64..(r0 + m).div_ceil(tile_r) as u64,
            Side::Right => 0..sp.tile_grid().0,
        };
        for ti in walk {
            sp.ctx().governor().checkpoint("sparse.spmdm.strip")?;
            // Declare the next tile-row: its pages and the rectangles it
            // will pull load while this one computes (the bounded prefetch
            // queue caps how much of the window is accepted).
            // One rectangle per occupied tile on the left, one per
            // occupied tile-row on the right.
            sp.prefetch_tile_row(ti + 1);
            let pulls = if left { usize::MAX } else { 1 };
            for next in sp.row(ti + 1).iter().take(pulls) {
                let (r, c, h, w) = rect(ti + 1, u64::from(next.tj));
                prefetch_rect(dense, r, c, h, w);
            }
            let pull = |tj, buf: &mut [f64]| {
                let (r, c, h, w) = rect(ti, tj);
                read_rect(dense, r, c, h, w, buf).map(|_| ())
            };
            // The right side pulls before the walk pins this tile-row's
            // pages, the left side after each tile's page; the test
            // `sparse_dense_products_keep_their_device_sequence_and_bits`
            // holds this order.
            if !left && !sp.row(ti).is_empty() {
                pull(0, pulled)?;
            }
            let mut tiles = sp.tile_row(ti);
            while let Some(tile) = tiles.next()? {
                let tj = tile.tj();
                if left {
                    pull(tj, pulled)?;
                    let acc = &mut acc[(ti as usize * tile_r - r0) * n3..];
                    tile.for_each(|r, k, v| {
                        axpy(v, &pulled[k * n3..][..n3], &mut acc[r * n3..][..n3]);
                    });
                } else {
                    let (c0, w) = (tj as usize * tile_c, rect(ti, tj).3);
                    tile.for_each(|k, c, v| {
                        for r in 0..m {
                            acc[r * n3 + c0 + c] += pulled[r * w + k] * v;
                        }
                    });
                }
                flops += tile.nnz() as u64 * if left { n3 } else { m } as u64;
            }
        }
        write_rect(&t, r0, 0, m, n3, acc)?;
        sp.ctx().governor().add_flops(flops);
        Ok(flops)
    };
    let pulled = if left { tile_c * n3 } else { strip * tile_r };
    let flops = run_parallel(
        threads,
        &strips,
        || (vec![0.0; strip * n3], vec![0.0; pulled]),
        |&r0, (acc, buf)| run_strip(r0, acc, buf),
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

/// Output cells per worker in one window of [`spmm_plan`] at `threads > 1`:
/// enough work to amortize the window's thread spawns, few enough that the
/// finished but not yet appended tiles stay a handful per worker.
const CELLS_PER_WORKER: usize = 32;

/// SpMM pass one: compute every output tile once (dense accumulator tile
/// in memory), record its nnz in the plan, and spill its sorted entries.
///
/// Output tiles are computed on the kernels' worker pool (`run_parallel`)
/// in windows of consecutive cells, each worker owning its dense
/// accumulator scratch; a finished window's entries are appended to the
/// spill strictly in row-major tile order — so the spill stream (and
/// therefore the plan, the filled product, and the spill's block count)
/// is **bit-identical** at every thread count. Each window declares the
/// next window's input pages before it computes. At `threads <= 1` a
/// window is one cell: hint the next cell, compute, append — the
/// sequential device sequence.
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
    let prefetch_cell = |&(bi, bj): &(u64, u64)| {
        let pairs = a.row(bi).iter().filter_map(|at| {
            let bt = b.slot(u64::from(at.tj), bj)?;
            Some([a.page_block(at.page), b.page_block(bt.page)])
        });
        a.ctx().pool().prefetch(pairs.flatten());
    };

    // One output tile: accumulate into `scratch`, leave the sorted
    // non-zero entries in `slot`; returns the cell's flop count.
    type Entries = Vec<(usize, usize, f64)>;
    let run_cell = |&((bi, bj), ref slot): &((u64, u64), OnceLock<Entries>),
                    scratch: &mut Vec<f64>|
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
        let nonzero = scratch.iter().enumerate().filter(|(_, &v)| v != 0.0);
        let entries = nonzero.map(|(i, &v)| (i / btc, i % btc, v)).collect();
        slot.set(entries).expect("a cell is computed once");
        a.ctx().governor().add_flops(fl);
        Ok(fl)
    };

    let mut spill = Spill::new(a.ctx(), "spmm-spill")?;
    let mut tile_nnz = Vec::with_capacity(cells.len());
    let mut flops = 0u64;
    // One cell at a time on one thread — hint the next, compute, append;
    // with workers, enough cells per window to amortize its spawns.
    let window = if threads <= 1 {
        1
    } else {
        threads * CELLS_PER_WORKER
    };
    let windows: Vec<&[(u64, u64)]> = cells.chunks(window).collect();
    for (w, window) in windows.iter().enumerate() {
        // The next window's pages load while this one computes.
        if let Some(next) = windows.get(w + 1) {
            next.iter().for_each(prefetch_cell);
        }
        let slots: Vec<_> = window.iter().map(|&cell| (cell, OnceLock::new())).collect();
        flops += run_parallel(threads, &slots, || vec![0.0; atr * btc], run_cell)?;
        for (_, slot) in slots {
            let entries = slot.into_inner().expect("every cell of a finished window");
            for (r, c, v) in &entries {
                spill.push(*r as f64)?;
                spill.push(*c as f64)?;
                spill.push(*v)?;
            }
            tile_nnz.push(entries.len() as u32);
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
    use riot_array::MatrixLayout;
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

    /// `data` as a one-column matrix in tall tiles.
    fn column(c: &Arc<StorageCtx>, data: &[f64]) -> DenseMatrix {
        let (layout, order) = (MatrixLayout::ColMajor, TileOrder::RowMajor);
        DenseMatrix::from_rows(c, data.len(), 1, data, layout, order, None).unwrap()
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
        let x = column(&c, &xdata);
        let (y, flops) = spmdm(&a, &x, Side::Left, 1, None).unwrap();
        assert_eq!(flops, a.nnz());
        let want = dense_ref_mv(rows, cols, &a.to_rows().unwrap(), &xdata);
        assert_close(&y.to_rows().unwrap(), &want);
    }

    #[test]
    fn spmv_reads_only_occupied_pages() {
        let c = ctx(64);
        let (rows, cols) = (64, 64); // 8x8 grid of 8x8 tiles
        let trips = vec![(0, 0, 1.0), (20, 40, 2.0), (63, 7, 3.0)];
        let a = SparseMatrix::from_triplets(&c, rows, cols, MatrixLayout::Square, &trips, None)
            .unwrap();
        let x = column(&c, &vec![1.0; cols]);
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let (y, _) = spmdm(&a, &x, Side::Left, 1, None).unwrap();
        let delta = c.io_snapshot() - before;
        // The one page the 3 occupied tiles share + the one block of x.
        assert_eq!((a.occupied_pages(), x.blocks()), (1, 1));
        assert_eq!(delta.reads, a.occupied_pages() + x.blocks());
        assert!(delta.reads < a.dense_blocks());
        assert_eq!(y.get(0, 0).unwrap(), 1.0);
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
        let (t, flops) = spmdm(&a, &b, Side::Left, 1, None).unwrap();
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
        let (t, flops) = spmdm(&b, &a, Side::Right, 1, None).unwrap();
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
        let (t, _) = spmdm(&b, &a, Side::Right, 1, None).unwrap();
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

    /// SpMM at one thread over a pool of four frames: pass one's spill
    /// blocks evict operand pages while cells are still being computed,
    /// so the order of compute, hint and append is visible on the device.
    /// Every pool event (by block), the counted I/O and the pool counters
    /// are pinned.
    #[test]
    fn spmm_at_one_thread_keeps_its_device_sequence() {
        use riot_storage::{IoSnapshot, PoolStats};
        use riot_trace::EventKind;

        let c = ctx(4);
        let n = 32;
        let trips: Vec<_> = (0..n)
            .flat_map(|r| [0, 3, 9, 17].map(|d| (r, (r + d) % n, (r * n + d) as f64 + 1.0)))
            .collect();
        let a = SparseMatrix::from_triplets(&c, n, n, MatrixLayout::Square, &trips, None).unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let (io0, pool0) = (c.io_snapshot(), c.pool().pool_stats());
        c.tracer().enable();
        let (t, flops) = spmm_fill(spmm_plan(&a, &a, 1).unwrap(), None).unwrap();
        c.tracer().disable();
        let (io, pool) = (c.io_snapshot() - io0, c.pool().pool_stats().delta(&pool0));
        let trace: Vec<String> = (c.tracer().drain().iter())
            .filter_map(|e| match e.kind {
                EventKind::PoolMiss { block } => Some(format!("m{block}")),
                EventKind::PoolEvict { block, dirty } => {
                    Some(format!("e{block}{}", if dirty { "*" } else { "" }))
                }
                EventKind::PoolWriteBack { block } => Some(format!("w{block}")),
                _ => None,
            })
            .collect();
        let trace = trace.join(" ");
        assert_eq!((flops, t.nnz()), (512, 320));
        let want_io = IoSnapshot {
            reads: 88,
            writes: 30,
            seq_reads: 36,
            seq_writes: 28,
            bytes_read: 88 * 512,
            bytes_written: 30 * 512,
            syncs: 0,
        };
        assert_eq!(io, want_io);
        let want_pool = PoolStats {
            hits: 27,
            misses: 121,
            evict_writebacks: 30,
            ..PoolStats::default()
        };
        assert_eq!(pool, want_pool);
        // 64-bit FNV-1a of the rendered sequence: 268 events, from
        // "m2 m3 m5 m7 e2 m9 e3 ..." to "... m41 w39 e39* m42". (The
        // product's last dirty blocks stay in the pool: a flush writes
        // them in no fixed order.)
        let fnv = trace.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        let events = trace.split(' ').count();
        assert_eq!(
            (events, fnv),
            (268, 0x7589_9820_57f5_10e1),
            "sequence moved:\n{trace}"
        );
    }

    /// The sparse-times-dense product on both sides — sparse on the left
    /// at `n3` = 1 and 13, sparse on the right — over a pool of eight
    /// frames, so operand pages and output tiles evict each other mid
    /// strip. The sparse operand has an empty tile-row, which the right
    /// side must skip without touching the dense operand. At one thread
    /// the counted I/O, the pool counters and every pool event are
    /// pinned; at every thread count, the product's bits.
    #[test]
    fn sparse_dense_products_keep_their_device_sequence_and_bits() {
        use riot_storage::{IoSnapshot, PoolStats};
        use riot_trace::EventKind;

        let fnv = |bytes: &mut dyn Iterator<Item = u8>| {
            bytes.fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        // (case, threads) -> (flops, io, pool delta, events, event FNV, bits FNV)
        let run = |case: usize, threads: usize| {
            let c = ctx(8);
            let n = 64; // 8x8 grid of 8x8 tiles; tile-row 2 is empty
            let trips: Vec<_> = (0..n)
                .filter(|r| !(16..24).contains(r))
                .flat_map(|r| [0, 5, 11].map(|d| (r, (r + d) % n, (r * n + d) as f64 * 0.37 + 0.1)))
                .collect();
            let a =
                SparseMatrix::from_triplets(&c, n, n, MatrixLayout::Square, &trips, None).unwrap();
            let dense = |rows, cols, layout| {
                DenseMatrix::from_fn(&c, rows, cols, layout, TileOrder::RowMajor, None, |i, j| {
                    ((i * 7 + j * 3) % 11) as f64 * 0.3 - 1.3
                })
                .unwrap()
            };
            let d = match case {
                0 => dense(n, 1, MatrixLayout::ColMajor),
                1 => dense(n, 13, MatrixLayout::Square),
                _ => dense(20, n, MatrixLayout::Square),
            };
            c.pool().flush_all().unwrap();
            c.clear_cache().unwrap();
            let (io0, pool0) = (c.io_snapshot(), c.pool().pool_stats());
            c.tracer().enable();
            let (t, flops) = match case {
                0 | 1 => spmdm(&a, &d, Side::Left, threads, None),
                _ => spmdm(&a, &d, Side::Right, threads, None),
            }
            .unwrap();
            c.tracer().disable();
            let (io, pool) = (c.io_snapshot() - io0, c.pool().pool_stats().delta(&pool0));
            let trace: Vec<String> = (c.tracer().drain().iter())
                .filter_map(|e| match e.kind {
                    EventKind::PoolMiss { block } => Some(format!("m{block}")),
                    EventKind::PoolEvict { block, dirty } => {
                        Some(format!("e{block}{}", if dirty { "*" } else { "" }))
                    }
                    EventKind::PoolWriteBack { block } => Some(format!("w{block}")),
                    _ => None,
                })
                .collect();
            let trace = trace.join(" ");
            let bits = t.to_rows().unwrap();
            let bits = fnv(&mut bits.iter().flat_map(|v| v.to_bits().to_le_bytes()));
            let events = trace.split(' ').count();
            (flops, io, pool, events, fnv(&mut trace.bytes()), bits)
        };
        let io = |reads: u64, writes: u64, seq_reads: u64, seq_writes: u64| IoSnapshot {
            reads,
            writes,
            seq_reads,
            seq_writes,
            bytes_read: reads * 512,
            bytes_written: writes * 512,
            syncs: 0,
        };
        let pool = |hits: u64, misses: u64, evict_writebacks: u64| PoolStats {
            hits,
            misses,
            evict_writebacks,
            ..PoolStats::default()
        };
        let want = [
            (
                168,
                io(11, 0, 8, 0),
                pool(24, 12, 0),
                16,
                0x08b6_c618_8a2e_2dbf,
                0xe149_4d4e_d0a7_cb9a,
            ),
            (
                2184,
                io(38, 14, 16, 13),
                pool(18, 54, 14),
                114,
                0x75ba_a3d5_cfe8_d8a9,
                0xb573_f4e3_3310_ee82,
            ),
            (
                3360,
                io(51, 16, 9, 15),
                pool(12, 75, 16),
                158,
                0x1f86_4ed8_56f8_19ab,
                0x046a_14d9_1b84_2fa5,
            ),
        ];
        for (case, want) in want.into_iter().enumerate() {
            assert_eq!(run(case, 1), want, "case {case} at one thread");
            for threads in [2, 4] {
                assert_eq!(
                    run(case, threads).5,
                    want.5,
                    "case {case} bits at {threads} threads"
                );
            }
        }
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
}
