//! Out-of-core matrix multiplication kernels.
//!
//! Three kernels mirror the three execution strategies whose I/O costs
//! Figure 3 compares (the fourth, RIOT-DB's relational plan, is modelled
//! analytically in [`crate::cost`] as in the paper):
//!
//! * [`matmul_naive`] — Example 2's element-at-a-time triple loop. Every
//!   element access goes through the buffer pool, so with column layouts
//!   on both operands its measured I/O explodes exactly as §3 predicts.
//! * [`matmul_bnlj`] — §4's block-nested-loop-join-inspired algorithm:
//!   read as many rows of `A` as memory allows, stream `B` once per chunk.
//! * [`matmul_tiled`] — Appendix A's optimal schedule: three `p × p`
//!   square submatrices with `p = √(M/3)`, achieving
//!   Θ(n1·n2·n3/(B·√M)) I/O.
//!
//! All kernels take an explicit memory budget `mem_elems` (the paper's
//! `M`) and return the number of scalar multiplications performed, so
//! measured I/O and flops can be checked against the cost model.
//!
//! Inputs are [`Operand`]s — a stored matrix plus BLAS's `trans` flag —
//! so `t(x) %*% y` reads `x` directly and no transposed copy is stored
//! (ARCHITECTURE.md, "Dense GEMM").
//!
//! ## Parallel execution
//!
//! With `threads > 1`, [`matmul_tiled`] distributes the independent
//! `(bi, bj)` output submatrices over worker threads, and [`matmul_bnlj`]
//! does the same with the row chunks; each worker owns its scratch buffers
//! and pins tiles zero-copy from the shared (ideally sharded) pool. Workers
//! write disjoint output tiles, so results are identical to the sequential
//! kernels, and — when the pool is large enough to hold the operands, the
//! in-memory regime the speedup matters in — total counted I/O is
//! identical too: every operand block is loaded exactly once and every
//! output block written exactly once, in whatever order the workers reach
//! them. `threads = 1` runs inline (no spawn), keeping the sequential
//! schedule's I/O order bit-for-bit deterministic.
//!
//! Rectangle I/O ([`read_rect`] / [`write_rect`]) performs zero per-access
//! heap allocation: a pin guard exposes each tile as `&[f64]` and rows are
//! copied straight between the frame and the caller's scratch.

use riot_array::{DenseMatrix, MatrixLayout, TileOrder};

use super::gemm::{gemm_acc, transpose_into};
use super::{run_parallel, ExecError, ExecResult};
use crate::cost::{panel_side, ChainTree};
use crate::expr::ExprError;
use crate::shape::Shape;

/// Which kernel to use for a multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatMulKernel {
    /// Element-at-a-time triple loop (Example 2).
    Naive,
    /// Row-chunked BNLJ-style algorithm (§4).
    Bnlj,
    /// Square-submatrix optimal schedule (Appendix A).
    SquareTiled,
}

/// One side of a product: a stored matrix read as itself or — `trans` —
/// as its transpose. Rectangle reads through the view pin the tiles the
/// mirrored plain read would and transpose in the copy they make anyway.
#[derive(Clone, Copy)]
pub struct Operand<'a> {
    /// The stored matrix.
    pub mat: &'a DenseMatrix,
    /// Read `mat` transposed.
    pub trans: bool,
}

impl<'a> From<&'a DenseMatrix> for Operand<'a> {
    fn from(mat: &'a DenseMatrix) -> Self {
        Operand { mat, trans: false }
    }
}

impl<'a> Operand<'a> {
    /// `mat` read transposed.
    pub fn t(mat: &'a DenseMatrix) -> Self {
        Operand { mat, trans: true }
    }

    /// Rows of the view.
    pub fn rows(&self) -> usize {
        self.stored(self.mat.shape()).0
    }

    /// Columns of the view.
    pub fn cols(&self) -> usize {
        self.stored(self.mat.shape()).1
    }

    /// One element of the view (random access through the pool).
    pub fn get(&self, row: usize, col: usize) -> ExecResult<f64> {
        let (r, c) = self.stored((row, col));
        Ok(self.mat.get(r, c)?)
    }

    /// A `(row, col)` pair of the view in stored coordinates, or back.
    fn stored(&self, (r, c): (usize, usize)) -> (usize, usize) {
        if self.trans {
            (c, r)
        } else {
            (r, c)
        }
    }
}

/// `t(X) · X` or `X · t(X)`: the same stored matrix under opposite flags,
/// so the product is symmetric and half the output cells determine it.
pub fn is_gram(a: Operand<'_>, b: Operand<'_>) -> bool {
    a.trans != b.trans && a.mat.object() == b.mat.object()
}

/// Multiply with the chosen kernel; returns `(product, flops)`.
pub fn multiply<'a>(
    kernel: MatMulKernel,
    a: impl Into<Operand<'a>>,
    b: impl Into<Operand<'a>>,
    mem_elems: usize,
    name: Option<&str>,
) -> ExecResult<(DenseMatrix, u64)> {
    match kernel {
        MatMulKernel::Naive => matmul_naive(a, b, name),
        MatMulKernel::Bnlj => matmul_bnlj(a, b, mem_elems, 1, name),
        MatMulKernel::SquareTiled => matmul_tiled(a, b, mem_elems, 1, name),
    }
}

/// The error for an `a %*% b` or `solve(a, b)` whose shapes do not fit.
pub(super) fn non_conformable(lhs: (usize, usize), rhs: (usize, usize)) -> ExecError {
    ExecError::Expr(ExprError::MatMulDims {
        lhs: Shape::Matrix(lhs.0, lhs.1),
        rhs: Shape::Matrix(rhs.0, rhs.1),
    })
}

fn check_dims(a: Operand<'_>, b: Operand<'_>) -> ExecResult<()> {
    if a.cols() != b.rows() {
        return Err(non_conformable((a.rows(), a.cols()), (b.rows(), b.cols())));
    }
    Ok(())
}

/// The largest worker count `<= threads` that its own plan keeps busy, and
/// that plan. `plan(t)` sizes the work for `t` workers sharing the memory
/// budget and returns it with its item count: fewer items than workers
/// means each remaining worker can take a bigger share, which only shrinks
/// the item count — so this converges.
fn settle_threads<P>(threads: usize, plan: impl Fn(usize) -> (P, usize)) -> (P, usize) {
    let mut threads = threads.max(1);
    loop {
        let (planned, items) = plan(threads);
        if items >= threads {
            return (planned, threads);
        }
        threads = items;
    }
}

/// Example 2's algorithm: for each output column, walk the rows of `A`.
/// The result uses the same layout family R would produce (column-major).
pub fn matmul_naive<'a>(
    a: impl Into<Operand<'a>>,
    b: impl Into<Operand<'a>>,
    name: Option<&str>,
) -> ExecResult<(DenseMatrix, u64)> {
    let (a, b) = (a.into(), b.into());
    check_dims(a, b)?;
    let (n1, n2, n3) = (a.rows(), a.cols(), b.cols());
    let ctx = a.mat.ctx();
    let t = DenseMatrix::create(
        ctx,
        n1,
        n3,
        MatrixLayout::ColMajor,
        TileOrder::ColMajor,
        name,
    )?;
    for j in 0..n3 {
        ctx.governor().checkpoint("matmul.naive.col")?;
        for i in 0..n1 {
            let mut acc = 0.0;
            for k in 0..n2 {
                acc += a.get(i, k)? * b.get(k, j)?;
            }
            t.set(i, j, acc)?;
        }
        ctx.governor().add_flops((n1 * n2) as u64);
    }
    Ok((t, (n1 * n2 * n3) as u64))
}

/// §4's BNLJ-inspired algorithm: rows of `A` are read in chunks sized so
/// the chunk plus the corresponding rows of `T` fit in `mem_elems`; `B` is
/// scanned once per chunk, column by column.
///
/// The chunk loop is distributed over `threads` workers, each owning its
/// chunk/column scratch. The per-worker memory budget is
/// `mem_elems / threads`, so the total stays within the paper's `M`.
pub fn matmul_bnlj<'a>(
    a: impl Into<Operand<'a>>,
    b: impl Into<Operand<'a>>,
    mem_elems: usize,
    threads: usize,
    name: Option<&str>,
) -> ExecResult<(DenseMatrix, u64)> {
    let (a, b) = (a.into(), b.into());
    check_dims(a, b)?;
    let (n1, n2, n3) = (a.rows(), a.cols(), b.cols());
    let ctx = a.mat.ctx();
    // T inherits a row layout so chunk writes are sequential.
    let t = DenseMatrix::create(
        ctx,
        n1,
        n3,
        MatrixLayout::RowMajor,
        TileOrder::RowMajor,
        name,
    )?;
    let (chunk_rows, threads) = settle_threads(threads, |t| {
        let rows = (mem_elems / t / (n2 + n3)).clamp(1, n1);
        (rows, n1.div_ceil(rows))
    });
    let chunks: Vec<usize> = (0..n1).step_by(chunk_rows).collect();

    // One chunk of A rows, streamed against all of B, into one chunk of T.
    let run_chunk =
        |r0: usize, a_chunk: &mut [f64], t_chunk: &mut [f64], col: &mut [f64]| -> ExecResult<u64> {
            ctx.governor().checkpoint("matmul.bnlj.chunk")?;
            let m = chunk_rows.min(n1 - r0);
            read_rect(a, r0, 0, m, n2, a_chunk)?;
            t_chunk[..m * n3].fill(0.0);
            let mut flops = 0u64;
            for j in 0..n3 {
                // One column ahead of the stream over B.
                if j + 1 < n3 {
                    prefetch_rect(b, 0, j + 1, n2, 1);
                }
                read_rect(b, 0, j, n2, 1, col)?;
                for r in 0..m {
                    let row = &a_chunk[r * n2..(r + 1) * n2];
                    let mut acc = 0.0;
                    for k in 0..n2 {
                        acc += row[k] * col[k];
                    }
                    t_chunk[r * n3 + j] = acc;
                }
                flops += (m * n2) as u64;
            }
            write_rect(&t, r0, 0, m, n3, t_chunk)?;
            ctx.governor().add_flops(flops);
            Ok(flops)
        };

    let flops = run_parallel(
        threads,
        &chunks,
        || {
            (
                vec![0.0; chunk_rows * n2],
                vec![0.0; chunk_rows * n3],
                vec![0.0; n2],
            )
        },
        |&r0, (a_chunk, t_chunk, col)| run_chunk(r0, a_chunk, t_chunk, col),
    )?;
    Ok((t, flops))
}

/// Appendix A's optimal schedule: square `p x p` submatrices with
/// `p = √(M/3)`, multiplied submatrix-by-submatrix. Operands and result
/// should use [`MatrixLayout::Square`] tiles so each submatrix costs
/// `p²/B` blocks, which is what makes the schedule meet the lower bound.
///
/// The outer `(bi, bj)` submatrix loop is distributed over `threads`
/// workers. Each worker owns three `p × p` scratch buffers with
/// `p = √(M / 3·threads)` (tile-aligned), so the combined footprint stays
/// within `mem_elems`; output submatrices are disjoint, making the result
/// identical to the sequential schedule.
///
/// A Gram product ([`is_gram`]) runs the half schedule: only cells
/// `bi <= bj`, a diagonal cell reading one operand strip (the other is its
/// in-memory transpose), an off-diagonal cell written twice — once
/// mirrored through the idle `A` scratch panel.
pub fn matmul_tiled<'a>(
    a: impl Into<Operand<'a>>,
    b: impl Into<Operand<'a>>,
    mem_elems: usize,
    threads: usize,
    name: Option<&str>,
) -> ExecResult<(DenseMatrix, u64)> {
    let (a, b) = (a.into(), b.into());
    check_dims(a, b)?;
    let (n1, n2, n3) = (a.rows(), a.cols(), b.cols());
    let gram = is_gram(a, b);
    let ctx = a.mat.ctx();
    let t = DenseMatrix::create(ctx, n1, n3, MatrixLayout::Square, TileOrder::RowMajor, name)?;
    let (tile_r, tile_c) = t.tile_dims();
    let ((p, cells), threads) = settle_threads(threads, |workers| {
        let p = panel_side(mem_elems as f64 / workers as f64, tile_r.max(tile_c));
        let cells: Vec<(usize, usize)> = (0..n1.div_ceil(p))
            .flat_map(|bi| (0..n3.div_ceil(p)).map(move |bj| (bi, bj)))
            .filter(|&(bi, bj)| !gram || bi <= bj)
            .collect();
        let n = cells.len();
        ((p, cells), n)
    });

    let blocks = |n: usize| n.div_ceil(p);
    // One (bi, bj) output submatrix: accumulate over the bk dimension.
    let run_cell = |bi: usize,
                    bj: usize,
                    asub: &mut [f64],
                    bsub: &mut [f64],
                    tsub: &mut [f64]|
     -> ExecResult<u64> {
        ctx.governor().checkpoint("matmul.tiled.cell")?;
        let (i0, j0) = (bi * p, bj * p);
        let (pi, pj) = (p.min(n1 - i0), p.min(n3 - j0));
        let diagonal = gram && bi == bj;
        tsub[..pi * pj].fill(0.0);
        let mut flops = 0u64;
        for bk in 0..blocks(n2) {
            let k0 = bk * p;
            let pk = p.min(n2 - k0);
            // Declare the next window before blocking on this one: its
            // tiles load in the background while this window computes.
            if bk + 1 < blocks(n2) {
                let k1 = (bk + 1) * p;
                let pk1 = p.min(n2 - k1);
                prefetch_rect(a, i0, k1, pi, pk1);
                if !diagonal {
                    prefetch_rect(b, k1, j0, pk1, pj);
                }
            }
            read_rect(a, i0, k0, pi, pk, asub)?;
            if diagonal {
                transpose_into(asub, pi, pk, bsub);
            } else {
                read_rect(b, k0, j0, pk, pj, bsub)?;
            }
            flops += gemm_acc(tsub, asub, bsub, (pi, pj, pk), 1.0);
        }
        write_rect(&t, i0, j0, pi, pj, tsub)?;
        if gram && !diagonal {
            transpose_into(tsub, pi, pj, asub);
            write_rect(&t, j0, i0, pj, pi, asub)?;
        }
        ctx.governor().add_flops(flops);
        Ok(flops)
    };

    let flops = run_parallel(
        threads,
        &cells,
        || (vec![0.0; p * p], vec![0.0; p * p], vec![0.0; p * p]),
        |&(bi, bj), (asub, bsub, tsub)| run_cell(bi, bj, asub, bsub, tsub),
    )?;
    Ok((t, flops))
}

/// Hint that the `rows x cols` rectangle at `(r0, c0)` of `m` will be
/// read soon: its covering tile blocks go to the buffer pool's background
/// prefetcher. This is how the tiled kernels *declare* their next window
/// (the schedule is known ahead of time — Appendix A's central point), so
/// the window's loads overlap the current window's compute. Free no-op
/// when the pool's prefetcher is disabled; never changes counted I/O
/// totals, only when the reads happen.
pub fn prefetch_rect<'a>(
    m: impl Into<Operand<'a>>,
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
) {
    let v @ Operand { mat: m, .. } = m.into();
    if rows == 0 || cols == 0 {
        return;
    }
    let ((r0, c0), (rows, cols)) = (v.stored((r0, c0)), v.stored((rows, cols)));
    let (tr, tc) = m.tile_dims();
    let (t_row0, t_row1) = (r0 / tr, (r0 + rows - 1) / tr);
    let (t_col0, t_col1) = (c0 / tc, (c0 + cols - 1) / tc);
    m.ctx().pool().prefetch(
        (t_row0..=t_row1)
            .flat_map(|ti| (t_col0..=t_col1).map(move |tj| m.tile_block(ti as u64, tj as u64))),
    );
}

/// Read the `rows x cols` rectangle at `(r0, c0)` of `m` into `buf`
/// (row-major, `buf[i*cols + j]`), tile by tile. Zero-copy on the pool
/// side: each tile is pinned and rows are copied straight out of the
/// frame; no per-call allocation. A transposed [`Operand`] pins exactly
/// the tiles the mirrored plain read would and transposes in the copy.
pub fn read_rect<'a>(
    m: impl Into<Operand<'a>>,
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
    buf: &mut [f64],
) -> ExecResult<()> {
    let v @ Operand { mat: m, .. } = m.into();
    debug_assert!(buf.len() >= rows * cols, "rect buffer too small");
    // The rectangle in stored coordinates; `buf` keeps the view's shape.
    let ((sr0, sc0), (srows, scols)) = (v.stored((r0, c0)), v.stored((rows, cols)));
    let (tr, tc) = m.tile_dims();
    let (t_row0, t_row1) = (sr0 / tr, (sr0 + srows - 1) / tr);
    let (t_col0, t_col1) = (sc0 / tc, (sc0 + scols - 1) / tc);
    for ti in t_row0..=t_row1 {
        for tj in t_col0..=t_col1 {
            let tile = m.pin_tile(ti as u64, tj as u64)?;
            let (base_r, base_c) = (ti * tr, tj * tc);
            let rs = sr0.max(base_r);
            let re = (sr0 + srows).min(base_r + tr).min(m.rows());
            let cs = sc0.max(base_c);
            let ce = (sc0 + scols).min(base_c + tc).min(m.cols());
            for r in rs..re {
                let src = &tile[(r - base_r) * tc + (cs - base_c)..][..ce - cs];
                if v.trans {
                    // Stored row `r` is view column `r - sr0`.
                    for (c, s) in (cs..ce).zip(src) {
                        buf[(c - sc0) * cols + (r - sr0)] = *s;
                    }
                } else {
                    buf[(r - r0) * cols + (cs - c0)..][..ce - cs].copy_from_slice(src);
                }
            }
        }
    }
    Ok(())
}

/// Write the `rows x cols` rectangle at `(r0, c0)` of `m` from `buf`,
/// tile by tile. Tiles fully covered by the rectangle are written without
/// a prior read; partially covered tiles are pinned read-modify-write.
/// Zero-copy on the pool side, no per-call allocation.
pub fn write_rect(
    m: &DenseMatrix,
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
    buf: &[f64],
) -> ExecResult<()> {
    debug_assert!(buf.len() >= rows * cols, "rect buffer too small");
    let (tr, tc) = m.tile_dims();
    let (t_row0, t_row1) = (r0 / tr, (r0 + rows - 1) / tr);
    let (t_col0, t_col1) = (c0 / tc, (c0 + cols - 1) / tc);
    for ti in t_row0..=t_row1 {
        for tj in t_col0..=t_col1 {
            let (base_r, base_c) = (ti * tr, tj * tc);
            let rs = r0.max(base_r);
            let re = (r0 + rows).min(base_r + tr).min(m.rows());
            let cs = c0.max(base_c);
            let ce = (c0 + cols).min(base_c + tc).min(m.cols());
            let covers = rs == base_r
                && cs == base_c
                && re == (base_r + tr).min(m.rows())
                && ce == (base_c + tc).min(m.cols());
            let mut tile = if covers {
                let mut t = m.pin_tile_new(ti as u64, tj as u64)?;
                t.fill(0.0);
                t
            } else {
                m.pin_tile_mut(ti as u64, tj as u64)?
            };
            for r in rs..re {
                let dst = &mut tile[(r - base_r) * tc + (cs - base_c)..][..ce - cs];
                let src = &buf[(r - r0) * cols + (cs - c0)..][..ce - cs];
                dst.copy_from_slice(src);
            }
        }
    }
    Ok(())
}

/// Evaluate a parenthesization over stored matrices with the given kernel,
/// materializing intermediates (square layout) and freeing them as soon as
/// they are consumed — Appendix B's schedule for chains.
pub fn multiply_chain(
    tree: &ChainTree,
    mats: &[DenseMatrix],
    kernel: MatMulKernel,
    mem_elems: usize,
) -> ExecResult<(DenseMatrix, u64)> {
    match tree {
        ChainTree::Leaf(i) => Ok((mats[*i].clone(), 0)),
        ChainTree::Mul(l, r) => {
            let (lm, lf) = multiply_chain(l, mats, kernel, mem_elems)?;
            let (rm, rf) = multiply_chain(r, mats, kernel, mem_elems)?;
            let (out, f) = multiply(kernel, &lm, &rm, mem_elems, None)?;
            // Free intermediates (leaves are borrowed inputs and stay).
            if !matches!(**l, ChainTree::Leaf(_)) {
                lm.free()?;
            }
            if !matches!(**r, ChainTree::Leaf(_)) {
                rm.free()?;
            }
            Ok((out, lf + rf + f))
        }
    }
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

    fn mk(
        ctx: &Arc<StorageCtx>,
        rows: usize,
        cols: usize,
        layout: MatrixLayout,
        f: impl FnMut(usize, usize) -> f64,
    ) -> DenseMatrix {
        let order = match layout {
            MatrixLayout::RowMajor => TileOrder::RowMajor,
            MatrixLayout::ColMajor => TileOrder::ColMajor,
            MatrixLayout::Square => TileOrder::RowMajor,
        };
        DenseMatrix::from_fn(ctx, rows, cols, layout, order, None, f).unwrap()
    }

    fn reference(a: &[f64], b: &[f64], n1: usize, n2: usize, n3: usize) -> Vec<f64> {
        let mut out = vec![0.0; n1 * n3];
        for i in 0..n1 {
            for k in 0..n2 {
                for j in 0..n3 {
                    out[i * n3 + j] += a[i * n2 + k] * b[k * n3 + j];
                }
            }
        }
        out
    }

    fn assert_close(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-9, "got {g}, want {w}");
        }
    }

    #[test]
    fn all_kernels_agree_with_reference() {
        let (n1, n2, n3) = (20, 13, 17); // ragged vs 8x8 tiles
        let av: Vec<f64> = (0..n1 * n2).map(|i| (i as f64).sin()).collect();
        let bv: Vec<f64> = (0..n2 * n3).map(|i| (i as f64).cos()).collect();
        let want = reference(&av, &bv, n1, n2, n3);
        for kernel in [
            MatMulKernel::Naive,
            MatMulKernel::Bnlj,
            MatMulKernel::SquareTiled,
        ] {
            let c = ctx(64);
            let a = mk(&c, n1, n2, MatrixLayout::Square, |i, j| av[i * n2 + j]);
            let b = mk(&c, n2, n3, MatrixLayout::Square, |i, j| bv[i * n3 + j]);
            let (t, flops) = multiply(kernel, &a, &b, 3 * 64, None).unwrap();
            assert_eq!(flops, (n1 * n2 * n3) as u64, "{kernel:?}");
            assert_close(&t.to_rows().unwrap(), &want);
        }
    }

    #[test]
    fn kernels_work_across_layouts() {
        let (n1, n2, n3) = (16, 16, 16);
        let av: Vec<f64> = (0..n1 * n2).map(|i| (i % 11) as f64).collect();
        let bv: Vec<f64> = (0..n2 * n3).map(|i| (i % 7) as f64).collect();
        let want = reference(&av, &bv, n1, n2, n3);
        let c = ctx(64);
        let a = mk(&c, n1, n2, MatrixLayout::RowMajor, |i, j| av[i * n2 + j]);
        let b = mk(&c, n2, n3, MatrixLayout::ColMajor, |i, j| bv[i * n3 + j]);
        for kernel in [
            MatMulKernel::Naive,
            MatMulKernel::Bnlj,
            MatMulKernel::SquareTiled,
        ] {
            let (t, _) = multiply(kernel, &a, &b, 3 * 64, None).unwrap();
            assert_close(&t.to_rows().unwrap(), &want);
        }
    }

    #[test]
    fn parallel_kernels_match_sequential_results_and_io() {
        let (n1, n2, n3) = (40, 33, 25); // ragged shapes
        let av: Vec<f64> = (0..n1 * n2)
            .map(|i| ((i * 13) % 31) as f64 - 15.0)
            .collect();
        let bv: Vec<f64> = (0..n2 * n3).map(|i| ((i * 7) % 23) as f64 - 11.0).collect();
        let want = reference(&av, &bv, n1, n2, n3);

        // Pool large enough to hold everything: the in-memory regime where
        // parallel totals must equal sequential totals exactly.
        let run = |threads: usize| {
            let c = StorageCtx::new_mem_sharded(512, 256, 8);
            let a = mk(&c, n1, n2, MatrixLayout::Square, |i, j| av[i * n2 + j]);
            let b = mk(&c, n2, n3, MatrixLayout::Square, |i, j| bv[i * n3 + j]);
            c.pool().flush_all().unwrap();
            c.clear_cache().unwrap();
            let before = c.io_snapshot();
            let (t, flops) = matmul_tiled(&a, &b, 3 * 4 * 64 * 4, threads, None).unwrap();
            c.pool().flush_all().unwrap();
            let delta = c.io_snapshot() - before;
            (t.to_rows().unwrap(), flops, delta.reads, delta.writes)
        };

        let (seq, seq_flops, seq_reads, seq_writes) = run(1);
        assert_close(&seq, &want);
        for threads in [2, 4] {
            let (par, par_flops, par_reads, par_writes) = run(threads);
            assert_eq!(par, seq, "{threads}-thread result diverged");
            assert_eq!(par_flops, seq_flops);
            assert_eq!(par_reads, seq_reads, "{threads}-thread reads diverged");
            assert_eq!(par_writes, seq_writes, "{threads}-thread writes diverged");
        }

        // BNLJ likewise.
        let run_bnlj = |threads: usize| {
            let c = StorageCtx::new_mem_sharded(512, 256, 8);
            let a = mk(&c, n1, n2, MatrixLayout::RowMajor, |i, j| av[i * n2 + j]);
            let b = mk(&c, n2, n3, MatrixLayout::ColMajor, |i, j| bv[i * n3 + j]);
            c.pool().flush_all().unwrap();
            c.clear_cache().unwrap();
            let before = c.io_snapshot();
            let (t, _) = matmul_bnlj(&a, &b, 8 * (n2 + n3) * 4, threads, None).unwrap();
            c.pool().flush_all().unwrap();
            let delta = c.io_snapshot() - before;
            (t.to_rows().unwrap(), delta.reads, delta.writes)
        };
        let (seq, seq_reads, seq_writes) = run_bnlj(1);
        assert_close(&seq, &want);
        let (par, par_reads, par_writes) = run_bnlj(4);
        assert_eq!(par, seq);
        assert_eq!((par_reads, par_writes), (seq_reads, seq_writes));
    }

    #[test]
    fn tiled_kernel_io_beats_naive_colmajor() {
        // The §3 story, measured: same multiplication, tiny memory; naive
        // over column layouts must move far more blocks than square-tiled
        // over square layouts.
        let n = 32;
        let run = |layout: MatrixLayout, kernel: MatMulKernel| -> u64 {
            let c = ctx(6); // 6 frames: severe pressure
            let a = mk(&c, n, n, layout, |i, j| (i + j) as f64);
            let b = mk(&c, n, n, layout, |i, j| (i * j % 5) as f64);
            c.pool().flush_all().unwrap();
            c.clear_cache().unwrap();
            let before = c.io_snapshot();
            let (t, _) = multiply(kernel, &a, &b, 6 * 64, None).unwrap();
            c.pool().flush_all().unwrap();
            let delta = c.io_snapshot() - before;
            drop(t);
            delta.total_blocks()
        };
        let naive = run(MatrixLayout::ColMajor, MatMulKernel::Naive);
        let tiled = run(MatrixLayout::Square, MatMulKernel::SquareTiled);
        assert!(
            naive > 4 * tiled,
            "naive {naive} should dwarf tiled {tiled}"
        );
    }

    #[test]
    fn bnlj_io_between_naive_and_tiled() {
        let n = 32;
        let run = |layouts: (MatrixLayout, MatrixLayout), kernel: MatMulKernel| -> u64 {
            let c = ctx(6);
            let a = mk(&c, n, n, layouts.0, |i, j| (i + j) as f64);
            let b = mk(&c, n, n, layouts.1, |i, j| (i * 2 + j) as f64);
            c.pool().flush_all().unwrap();
            c.clear_cache().unwrap();
            let before = c.io_snapshot();
            let (t, _) = multiply(kernel, &a, &b, 6 * 64, None).unwrap();
            c.pool().flush_all().unwrap();
            let delta = c.io_snapshot() - before;
            drop(t);
            delta.total_blocks()
        };
        // BNLJ with its favourable layouts (row for A, col for B).
        let bnlj = run(
            (MatrixLayout::RowMajor, MatrixLayout::ColMajor),
            MatMulKernel::Bnlj,
        );
        let naive = run(
            (MatrixLayout::ColMajor, MatrixLayout::ColMajor),
            MatMulKernel::Naive,
        );
        assert!(bnlj < naive, "bnlj {bnlj} < naive {naive}");
    }

    #[test]
    fn chain_execution_matches_reference_and_frees_temps() {
        let c = ctx(64);
        let dims = [12usize, 4, 10, 6];
        let mats: Vec<DenseMatrix> = (0..3)
            .map(|m| {
                mk(&c, dims[m], dims[m + 1], MatrixLayout::Square, |i, j| {
                    ((i * 31 + j * 17 + m * 7) % 13) as f64
                })
            })
            .collect();
        // Reference result.
        let datas: Vec<Vec<f64>> = mats.iter().map(|m| m.to_rows().unwrap()).collect();
        let ab = reference(&datas[0], &datas[1], dims[0], dims[1], dims[2]);
        let abc = reference(&ab, &datas[2], dims[0], dims[2], dims[3]);
        let live_before = c.live_objects();
        for tree in crate::opt::all_orders(3) {
            let (out, flops) =
                multiply_chain(&tree, &mats, MatMulKernel::SquareTiled, 3 * 64).unwrap();
            assert_eq!(flops as f64, tree.flops(&dims), "{}", tree.render());
            assert_close(&out.to_rows().unwrap(), &abc);
            out.free().unwrap();
            assert_eq!(
                c.live_objects(),
                live_before,
                "temps freed: {}",
                tree.render()
            );
        }
    }

    #[test]
    fn tiled_measured_io_matches_cost_model_shape() {
        // Appendix A validation at small scale: measured blocks within 2x
        // of the analytic schedule cost.
        let n = 48; // 6x6 tiles of 8x8
        let mem_elems = 3 * 4 * 64; // p = 16 -> 2x2-tile submatrices
                                    // Tiny pass-through pool: the kernel's explicit submatrix buffers
                                    // are the memory budget, so device I/O equals the schedule.
        let c = ctx(4);
        let a = mk(&c, n, n, MatrixLayout::Square, |i, j| (i + j) as f64);
        let b = mk(&c, n, n, MatrixLayout::Square, |i, j| (i * j % 3) as f64);
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let (t, _) = multiply(MatMulKernel::SquareTiled, &a, &b, mem_elems, None).unwrap();
        c.pool().flush_all().unwrap();
        let delta = c.io_snapshot() - before;
        drop(t);
        let params = crate::cost::CostParams {
            mem_elems: mem_elems as f64,
            block_elems: 64.0,
        };
        let predicted = crate::cost::square_tiled_io(n as f64, n as f64, n as f64, params);
        let measured = delta.total_blocks() as f64;
        assert!(
            measured <= 2.0 * predicted && measured >= predicted / 2.0,
            "measured {measured} vs predicted {predicted:.1}"
        );
    }
}
