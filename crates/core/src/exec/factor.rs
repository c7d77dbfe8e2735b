//! Out-of-core tiled factorizations: Cholesky and triangular solve.
//!
//! RIOT's pitch is I/O-efficient *numerical computing*, and factorization
//! is the hardest pure I/O-scheduling problem the paper's home turf
//! offers: unlike a product, every panel step of a right-looking Cholesky
//! depends on the panels factored before it, so the schedule is a DAG of
//! POTRF → TRSM → SYRK/GEMM tile steps rather than an embarrassingly
//! parallel grid. The kernels here extend `matmul_tiled`'s rectangle
//! discipline to that DAG:
//!
//! * work proceeds panel-by-panel with `p = √(M/3)` (tile-aligned), so
//!   any step holds at most three `p × p` panels in scratch;
//! * every step *declares its next access window* through
//!   [`prefetch_rect`] before blocking on the current one (the PR-5
//!   discipline: prefetch changes *when* reads happen, never *how many*);
//! * the trailing update fans its disjoint output panels over a work
//!   queue of threads with bit-identical results at every thread count;
//! * every `Lᵀ` is `L` as stored under a `trans` flag — `L(j,k)ᵀ` in the
//!   trailing update, `Lᵀ` in the backward solve, the block column in
//!   `potrf`'s own update — and the GEMM's pack or `trsm_left`'s
//!   indexing resolves it, so no transposed copy of a factor is built.
//!   Only the TRSM step's `X · Lᵀ = A` transposes its right-hand side,
//!   to reuse the one left-side solve.
//!
//! The panel side is deliberately **independent of the thread count**:
//! the trailing update accumulates into storage panel-by-panel, so the
//! panel partition fixes the floating-point grouping. Sizing `p` from
//! memory alone keeps the schedule — and therefore both the bits of the
//! result and the counted I/O — identical whether one worker or eight
//! execute it (each worker owns its own 3-panel scratch; callers that
//! need a hard transient-memory cap can pass `mem_elems / threads`).

use riot_array::matrix::DenseMatrix;
use riot_array::{MatrixLayout, TileOrder};

use super::gemm::{self, axpy, gemm_acc, transpose_into};
use super::matmul::{non_conformable, prefetch_rect, read_rect, write_rect, Operand};
use super::{run_parallel, ExecError, ExecResult};
use crate::cost::panel_side;
use crate::expr::ExprError;
use crate::shape::Shape;

/// Column-block width of the in-memory panel kernels: everything to the
/// left of a block reaches it as one [`gemm_acc`] product, only the
/// `NB` in-block columns run through the scalar recurrences.
const NB: usize = 32;

/// In-place lower Cholesky of the leading `t x t` panel of `buf`
/// (row-major, stride `t`). On success the strict upper triangle is
/// zeroed. `panel` and `row0` locate the panel for error reporting.
///
/// Right-looking over [`NB`]-wide column blocks. Every element still
/// receives its subtractions in ascending `k` and its divide after the
/// last one, so the bits are those of the unblocked dot-product loop at
/// any block width.
pub(crate) fn potrf(buf: &mut [f64], t: usize, panel: usize, row0: usize) -> ExecResult<u64> {
    // The block column below the diagonal block.
    let mut col = vec![0.0; NB * t];
    for j0 in (0..t).step_by(NB) {
        let j1 = (j0 + NB).min(t);
        // Factor the block column: in-block `k` only, one pivot at a time,
        // each row taking its update as soon as its multiplier exists.
        let mut lj = [0.0; NB];
        for j in j0..j1 {
            let d = buf[j * t + j];
            // A non-finite pivot (NaN already in the input, or overflow) and
            // a non-positive pivot both mean "not positive definite" —
            // erroring here is what keeps NaNs from silently flowing
            // downstream.
            if !d.is_finite() || d <= 0.0 {
                return Err(ExecError::NotPositiveDefinite {
                    tile: panel,
                    pivot: row0 + j,
                });
            }
            let d = d.sqrt();
            buf[j * t + j] = d;
            buf[j * t + j + 1..(j + 1) * t].fill(0.0);
            for i in j + 1..t {
                let row = &mut buf[i * t..][..j1.min(i + 1)];
                let lij = row[j] / d;
                row[j] = lij;
                if i < j1 {
                    lj[i - j0] = lij;
                }
                axpy(-lij, &lj[j + 1 - j0..row.len() - j0], &mut row[j + 1..]);
            }
        }
        // Trailing update, lower triangle only: each row block takes
        // `A(i, j1..=i) -= L(i, j0..j1) · L(j1..=i, j0..j1)ᵀ` in place.
        // The column is copied out because the update writes `buf`; its
        // transpose is the same copy under the GEMM's flag.
        let (rows, nb) = (t - j1, j1 - j0);
        for (r, dst) in col.chunks_exact_mut(nb).take(rows).enumerate() {
            dst.copy_from_slice(&buf[(j1 + r) * t + j0..][..nb]);
        }
        for r0 in (0..rows).step_by(NB) {
            let r1 = (r0 + NB).min(rows);
            gemm_acc(
                (&mut buf[(j1 + r0) * t + j1..], t),
                (&col[r0 * nb..], nb, false),
                (&col, nb, true),
                (r1 - r0, r1, nb),
                -1.0,
            );
        }
    }
    Ok((t * (t + 1) * (t + 2) / 6) as u64)
}

/// Solve `T · X = B` in place, `b` being `t x cols` and `l` a
/// lower-triangular `t x t` panel (both row-major): `T = L` top-down, or —
/// `upper` — `T = Lᵀ` bottom-up, read from `l` as stored.
///
/// Top-down, each [`NB`]-row block first takes everything above it as one
/// product, which leaves every element's subtractions in ascending `k`.
/// Bottom-up, a row's own block holds its *first* `k`, so pulling the rest
/// into a product would regroup the sum: that sweep stays unblocked (its
/// shapes are matrix-vector wherever it runs).
fn trsm_left(b: &mut [f64], cols: usize, l: &[f64], t: usize, upper: bool) -> u64 {
    let b = &mut b[..t * cols];
    // `T[r, k]` is `l[k][r]` under `upper`.
    let tri = (l, t, upper);
    for step in 0..t {
        let r = if upper { t - 1 - step } else { step };
        let (above, rest) = b.split_at_mut(r * cols);
        let block = r - r % NB;
        if !upper && r == block {
            let (dims, lr) = ((NB.min(t - r), cols, r), (&l[r * t..], t, false));
            gemm_acc((rest, cols), lr, (above, cols, false), dims, -1.0);
        }
        let (row, below) = rest.split_at_mut(cols);
        let (k0, others) = if upper {
            (r + 1, &*below)
        } else {
            (block, &above[block * cols..])
        };
        for (k, xk) in others.chunks_exact(cols).enumerate() {
            axpy(-gemm::at(tri, r, k0 + k), xk, row);
        }
        let d = l[r * t + r];
        for v in row {
            *v /= d;
        }
    }
    (t * (t + 1) / 2 * cols) as u64
}

/// Copy `src` into `dst` panel by panel. With `lower`, only panels on or
/// below the diagonal are read; those above are written as zeros.
fn copy_panels(
    src: &DenseMatrix,
    dst: &DenseMatrix,
    p: usize,
    lower: bool,
    at: &'static str,
) -> ExecResult<()> {
    let (n, m) = src.shape();
    let mut buf = vec![0.0; p * p];
    for i0 in (0..n).step_by(p) {
        src.ctx().governor().checkpoint(at)?;
        let pi = p.min(n - i0);
        for j0 in (0..m).step_by(p) {
            let (pj, j1) = (p.min(m - j0), j0 + p);
            if lower && j0 > i0 {
                buf[..pi * pj].fill(0.0);
            } else {
                // Declare the next copy window before blocking.
                if j1 < m && !(lower && j1 > i0) {
                    prefetch_rect(src, i0, j1, pi, p.min(m - j1));
                }
                read_rect(src, i0, j0, pi, pj, &mut buf)?;
            }
            write_rect(dst, i0, j0, pi, pj, &buf)?;
        }
    }
    Ok(())
}

/// `(out, flops)` — or, on any error (a pivot failure, a device fault, a
/// governance abort at any checkpoint), free the half-built `out` before
/// the error propagates: the leak-free-abort invariant.
fn finish(out: DenseMatrix, flops: ExecResult<u64>) -> ExecResult<(DenseMatrix, u64)> {
    match flops {
        Ok(f) => Ok((out, f)),
        Err(e) => {
            let _ = out.free();
            Err(e)
        }
    }
}

/// The side of a `rows x cols` matrix that has to be square and non-empty.
fn expect_square(rows: usize, cols: usize) -> ExecResult<usize> {
    if rows != cols || rows == 0 {
        return Err(ExecError::Expr(ExprError::Expected {
            what: "non-empty square matrix",
            got: Shape::Matrix(rows, cols),
        }));
    }
    Ok(rows)
}

/// `solve(a, b)` entirely in memory, for engines whose matrices fit there:
/// factor the row-major `n x n` panel `a` in place, then substitute
/// forward and backward through the `n x m` right-hand side `x` — the
/// tiled solve's own steps on a single panel, and their flop count.
pub(crate) fn solve_in_memory(a: &mut [f64], x: &mut [f64], n: usize, m: usize) -> ExecResult<u64> {
    let flops = potrf(a, n, 0, 0)? + trsm_left(x, m, a, n, false);
    Ok(flops + trsm_left(x, m, a, n, true))
}

/// Out-of-core tiled Cholesky factorization: returns the lower-triangular
/// `L` with `L · Lᵀ = A` (strict upper triangle exactly zero) and the
/// flop count.
///
/// Right-looking panel schedule over `p = √(M/3)` square panels:
/// for each diagonal step `k` — POTRF the diagonal panel, TRSM the panel
/// column below it (parallel over rows), then rank-`p` update of the
/// trailing submatrix (parallel over its disjoint panels). Only the lower
/// triangle of `a` is ever read, so a symmetric input needs no transpose
/// pass. Inputs that are not positive definite surface
/// [`ExecError::NotPositiveDefinite`] with the failing panel and global
/// pivot index — NaNs never propagate silently.
///
/// The TRSM and trailing-update steps of each panel are distributed over
/// `threads` workers. The panel partition is fixed by `mem_elems` alone,
/// so results and counted I/O are bit-identical at every thread count.
pub fn chol_tiled(
    a: &DenseMatrix,
    mem_elems: usize,
    threads: usize,
    name: Option<&str>,
) -> ExecResult<(DenseMatrix, u64)> {
    let n = expect_square(a.rows(), a.cols())?;
    let ctx = a.ctx();
    let out = DenseMatrix::create(ctx, n, n, MatrixLayout::Square, TileOrder::RowMajor, name)?;
    let (tile_r, tile_c) = out.tile_dims();
    let p = panel_side(mem_elems as f64, tile_r.max(tile_c));
    let nb = n.div_ceil(p);
    let pw = |i: usize| p.min(n - i * p);
    let threads = threads.max(1);

    // The factor loops run inside one closure so `finish` sees every error.
    let factor = || -> ExecResult<u64> {
        let mut flops = 0u64;
        // Working copy: lower triangle of `a` (diagonal panels whole —
        // their upper entries are scratch until POTRF zeroes them), zeros
        // above.
        copy_panels(a, &out, p, true, "factor.chol.copy")?;

        let mut diag = vec![0.0; p * p];
        for k in 0..nb {
            ctx.governor().checkpoint("factor.chol.panel")?;
            let (k0, pk) = (k * p, pw(k));
            read_rect(&out, k0, k0, pk, pk, &mut diag)?;
            let f = potrf(&mut diag, pk, k, k0)?;
            flops += f;
            ctx.governor().add_flops(f);
            write_rect(&out, k0, k0, pk, pk, &diag)?;
            if k + 1 < nb {
                // The TRSM column is the next window: declare it while the
                // diagonal write-back settles.
                prefetch_rect(&out, k0 + pk, k0, n - (k0 + pk), pk);
            }

            // TRSM: rows below the diagonal panel, disjoint outputs.
            let rows: Vec<usize> = (k + 1..nb).collect();
            flops += run_parallel(
                threads.min(rows.len().max(1)),
                &rows,
                || (vec![0.0; p * p], vec![0.0; p * p]),
                |&i, (buf, xt)| {
                    ctx.governor().checkpoint("factor.chol.trsm")?;
                    let pi = pw(i);
                    // Next window for this row panel: its own
                    // trailing-update read of panel (i, k+1) — already
                    // valid data.
                    if k < i {
                        prefetch_rect(&out, i * p, (k + 1) * p, pi, pw(k + 1));
                    }
                    read_rect(&out, i * p, k0, pi, pk, buf)?;
                    // `X · Lᵀ = A` is `L · Xᵀ = Aᵀ`.
                    transpose_into(buf, pi, pk, xt);
                    let f = trsm_left(xt, pi, &diag, pk, false);
                    transpose_into(xt, pk, pi, buf);
                    write_rect(&out, i * p, k0, pi, pk, buf)?;
                    ctx.governor().add_flops(f);
                    Ok(f)
                },
            )?;

            // Trailing update: every lower-triangle panel of the trailing
            // submatrix gets `A(i,j) -= L(i,k) · L(j,k)ᵀ`. Outputs are
            // disjoint, so the fan-out is bit-identical to the sequential
            // order at any thread count.
            let cells: Vec<(usize, usize)> = (k + 1..nb)
                .flat_map(|i| (k + 1..=i).map(move |j| (i, j)))
                .collect();
            flops += run_parallel(
                threads.min(cells.len().max(1)),
                &cells,
                || (vec![0.0; p * p], vec![0.0; p * p], vec![0.0; p * p]),
                |&(i, j), (li, lj, cij)| {
                    ctx.governor().checkpoint("factor.chol.update")?;
                    let (pi, pj) = (pw(i), pw(j));
                    // Next window: the output panel this step modifies.
                    prefetch_rect(&out, i * p, j * p, pi, pj);
                    let lip = read_rect(&out, i * p, k0, pi, pk, li)?;
                    // L(j,k)ᵀ: on the diagonal, the panel just read under
                    // the opposite flag; off it, a transposed view.
                    let ljp = if i == j {
                        (lip.0, lip.1, true)
                    } else {
                        read_rect(Operand::t(&out), k0, j * p, pk, pj, lj)?
                    };
                    read_rect(&out, i * p, j * p, pi, pj, cij)?;
                    let f = gemm_acc((cij, pj), lip, ljp, (pi, pj, pk), -1.0);
                    write_rect(&out, i * p, j * p, pi, pj, cij)?;
                    ctx.governor().add_flops(f);
                    Ok(f)
                },
            )?;

            if k + 1 < nb {
                // Declare the next diagonal panel before looping back.
                prefetch_rect(&out, (k + 1) * p, (k + 1) * p, pw(k + 1), pw(k + 1));
            }
        }
        Ok(flops)
    };
    let flops = factor();
    finish(out, flops)
}

/// Blocked triangular solve of `L · Lᵀ · X = B` for a lower-triangular
/// `L` (as produced by [`chol_tiled`]): forward substitution then
/// backward substitution, panel by panel. Returns `(X, flops)`.
///
/// Parallelism fans over `B`'s column strips — each strip's solve is an
/// independent recurrence over the row panels, so outputs are disjoint
/// and results identical at every thread count (the strip partition is
/// fixed by `mem_elems` alone, like the Cholesky panels).
pub fn tri_solve(
    l: &DenseMatrix,
    b: &DenseMatrix,
    mem_elems: usize,
    threads: usize,
    name: Option<&str>,
) -> ExecResult<(DenseMatrix, u64)> {
    let n = expect_square(l.rows(), l.cols())?;
    if b.rows() != n || b.cols() == 0 {
        return Err(non_conformable((n, n), b.shape()));
    }
    let m = b.cols();
    let ctx = l.ctx();
    let x = DenseMatrix::create(ctx, n, m, MatrixLayout::Square, TileOrder::RowMajor, name)?;
    let (tile_r, tile_c) = x.tile_dims();
    let p = panel_side(mem_elems as f64, tile_r.max(tile_c));
    let nb = n.div_ceil(p);
    let mb = m.div_ceil(p);
    let pw = |i: usize| p.min(n - i * p);
    let qw = |j: usize| p.min(m - j * p);

    let solve = || -> ExecResult<u64> {
        // X starts as a copy of B; each strip then solves in place.
        copy_panels(b, &x, p, false, "factor.solve.copy")?;
        let strips: Vec<usize> = (0..mb).collect();
        run_parallel(
            threads.max(1).min(mb),
            &strips,
            || (vec![0.0; p * p], vec![0.0; p * p], vec![0.0; p * p]),
            |&s, (lbuf, xb, xk)| {
                let (s0, qs) = (s * p, qw(s));
                let mut f = 0u64;
                // Forward `L · Y = B` over row panels top-down, then
                // backward `Lᵀ · X = Y` bottom-up: one recurrence, over `L`
                // read plain and then through a transposed view.
                for upper in [false, true] {
                    let lv = Operand {
                        mat: l,
                        trans: upper,
                    };
                    for step in 0..nb {
                        ctx.governor().checkpoint("factor.solve.panel")?;
                        let i = if upper { nb - 1 - step } else { step };
                        let (i0, pi) = (i * p, pw(i));
                        read_rect(&x, i0, s0, pi, qs, xb)?;
                        for k in if upper { i + 1..nb } else { 0..i } {
                            let pk = pw(k);
                            // Declare the next panel of this recurrence row.
                            if k + 1 < nb {
                                prefetch_rect(lv, i0, (k + 1) * p, pi, pw(k + 1));
                            }
                            let lp = read_rect(lv, i0, k * p, pi, pk, lbuf)?;
                            read_rect(&x, k * p, s0, pk, qs, xk)?;
                            f += gemm_acc((xb, qs), lp, (xk, qs, false), (pi, qs, pk), -1.0);
                        }
                        // The diagonal panel as stored: `trsm_left` reads
                        // it as `Lᵀ` under `upper`.
                        read_rect(l, i0, i0, pi, pi, lbuf)?;
                        f += trsm_left(xb, qs, lbuf, pi, upper);
                        write_rect(&x, i0, s0, pi, qs, xb)?;
                    }
                }
                ctx.governor().add_flops(f);
                Ok(f)
            },
        )
    };
    let flops = solve();
    finish(x, flops)
}

/// `solve(a, b)` for symmetric positive definite `a`: factor `a = L·Lᵀ`
/// out of core, then triangular-solve both halves. The factor is a
/// transient object, freed before returning. Returns `(X, flops)`.
pub fn cholesky_solve(
    a: &DenseMatrix,
    b: &DenseMatrix,
    mem_elems: usize,
    threads: usize,
    name: Option<&str>,
) -> ExecResult<(DenseMatrix, u64)> {
    let (l, f1) = chol_tiled(a, mem_elems, threads, None)?;
    let solved = tri_solve(&l, b, mem_elems, threads, name);
    l.free()?;
    let (x, f2) = solved?;
    Ok((x, f1 + f2))
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
        n: usize,
        m: usize,
        f: impl FnMut(usize, usize) -> f64,
    ) -> DenseMatrix {
        DenseMatrix::from_fn(
            ctx,
            n,
            m,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
            f,
        )
        .unwrap()
    }

    /// A deterministic symmetric positive definite matrix: diagonally
    /// dominant with bounded off-diagonal entries.
    fn spd(i: usize, j: usize, n: usize) -> f64 {
        if i == j {
            n as f64 + 2.0 + (i % 5) as f64
        } else {
            (((i * 31 + j * 17) % 13) as f64 - 6.0) / 13.0
        }
    }

    fn spd_sym(i: usize, j: usize, n: usize) -> f64 {
        let (a, b) = (i.min(j), i.max(j));
        spd(a, b, n)
    }

    /// Plain in-memory reference Cholesky (row-major lower factor).
    fn reference_chol(a: &[f64], n: usize) -> Vec<f64> {
        let mut l = vec![0.0; n * n];
        for j in 0..n {
            let mut d = a[j * n + j];
            for k in 0..j {
                d -= l[j * n + k] * l[j * n + k];
            }
            let d = d.sqrt();
            l[j * n + j] = d;
            for i in j + 1..n {
                let mut s = a[i * n + j];
                for k in 0..j {
                    s -= l[i * n + k] * l[j * n + k];
                }
                l[i * n + j] = s / d;
            }
        }
        l
    }

    /// The unblocked kernels the level-3 ones replaced, kept as oracles:
    /// per element a dot-product loop in ascending `k`, then the divide.
    fn potrf_unblocked(buf: &mut [f64], t: usize) -> Result<u64, usize> {
        let mut flops = 0u64;
        for j in 0..t {
            let mut d = buf[j * t + j];
            for k in 0..j {
                d -= buf[j * t + k] * buf[j * t + k];
            }
            if !d.is_finite() || d <= 0.0 {
                return Err(j);
            }
            let d = d.sqrt();
            buf[j * t + j] = d;
            for i in j + 1..t {
                let mut s = buf[i * t + j];
                for k in 0..j {
                    s -= buf[i * t + k] * buf[j * t + k];
                }
                buf[i * t + j] = s / d;
                buf[j * t + i] = 0.0;
            }
            flops += ((j + 1) * (t - j)) as u64;
        }
        Ok(flops)
    }

    /// `X · Lᵀ = A` in place, `a` being `rows x t`.
    fn trsm_right_lt_unblocked(a: &mut [f64], rows: usize, l: &[f64], t: usize) {
        for r in 0..rows {
            for j in 0..t {
                let mut s = a[r * t + j];
                for k in 0..j {
                    s -= a[r * t + k] * l[j * t + k];
                }
                a[r * t + j] = s / l[j * t + j];
            }
        }
    }

    fn trsm_left_unblocked(b: &mut [f64], cols: usize, tri: &[f64], t: usize, upper: bool) {
        for step in 0..t {
            let r = if upper { t - 1 - step } else { step };
            for k in if upper { r + 1..t } else { 0..r } {
                let trk = tri[r * t + k];
                for c in 0..cols {
                    b[r * cols + c] -= trk * b[k * cols + c];
                }
            }
            for c in 0..cols {
                b[r * cols + c] /= tri[r * t + r];
            }
        }
    }

    /// A real-valued SPD panel (sums round, so regrouping would show).
    fn spd_real(t: usize) -> Vec<f64> {
        let off = |i: usize, j: usize| ((i * 31 + j * 17) % 23) as f64 / 7.0 - 1.5;
        (0..t * t)
            .map(|at| match (at / t, at % t) {
                (i, j) if i == j => 4.0 * t as f64 + (i % 5) as f64 / 3.0,
                (i, j) => off(i.min(j), i.max(j)),
            })
            .collect()
    }

    fn rhs(rows: usize, cols: usize) -> Vec<f64> {
        (0..rows * cols)
            .map(|at| ((at * 13) % 29) as f64 / 9.0 - 1.3)
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Panel sides ragged against [`NB`] on both sides of 1, 2, 3 and 8
    /// blocks.
    const SIDES: [usize; 6] = [1, 31, 32, 33, 97, 257];

    #[test]
    fn blocked_potrf_is_bitwise_the_unblocked_loop() {
        for t in SIDES {
            let (mut got, mut want) = (spd_real(t), spd_real(t));
            let flops = potrf(&mut got, t, 0, 0).unwrap();
            assert_eq!(Ok(flops), potrf_unblocked(&mut want, t), "t = {t}: flops");
            assert!(bits(&got) == bits(&want), "t = {t}");
        }
    }

    #[test]
    fn blocked_trsm_is_bitwise_the_unblocked_loops() {
        for t in SIDES {
            let mut l = spd_real(t);
            potrf(&mut l, t, 0, 0).unwrap();
            let mut lt = vec![0.0; t * t];
            transpose_into(&l, t, t, &mut lt);
            for n in [1usize, 3, 4, 37] {
                // Both sweeps of `trsm_left` over a `t x n` right-hand side.
                // `trsm_left` reads `l` as stored under both; the oracle
                // reads the triangle it solves with.
                for (tri, upper) in [(&l, false), (&lt, true)] {
                    let (mut got, mut want) = (rhs(t, n), rhs(t, n));
                    let flops = trsm_left(&mut got, n, &l, t, upper);
                    trsm_left_unblocked(&mut want, n, tri, t, upper);
                    assert_eq!(flops, (t * (t + 1) / 2 * n) as u64);
                    assert!(
                        bits(&got) == bits(&want),
                        "t = {t}, cols = {n}, upper = {upper}"
                    );
                }
                // The Cholesky TRSM step: `X · Lᵀ = A` over `n x t` as the
                // top-down sweep between two transposes.
                let (mut got, mut want) = (rhs(n, t), rhs(n, t));
                let mut xt = vec![0.0; t * n];
                transpose_into(&got, n, t, &mut xt);
                trsm_left(&mut xt, n, &l, t, false);
                transpose_into(&xt, t, n, &mut got);
                trsm_right_lt_unblocked(&mut want, n, &l, t);
                assert!(bits(&got) == bits(&want), "t = {t}, rows = {n}: X·Lᵀ = A");
            }
        }
    }

    #[test]
    fn blocked_potrf_fails_at_the_unblocked_pivot() {
        // An indefinite input, a zero pivot, and a NaN in the lower triangle
        // (which reaches the pivot of its row), each in the first, a middle
        // and the last column block.
        let t = 97;
        for at in [0usize, 5, 40, 64, 96] {
            let poison = |a: &mut [f64], case: usize| match case {
                0 => a[at * t + at] = -a[at * t + at],
                1 => a[at * t..][..t].fill(0.0),
                _ => a[at.max(1) * t + at.max(1) - 1] = f64::NAN,
            };
            for case in 0..3 {
                let (mut got, mut want) = (spd_real(t), spd_real(t));
                poison(&mut got, case);
                poison(&mut want, case);
                let pivot = potrf_unblocked(&mut want, t).unwrap_err();
                assert_eq!(pivot, at.max(case / 2), "case {case} at {at}");
                match potrf(&mut got, t, 3, 1000) {
                    Err(ExecError::NotPositiveDefinite { tile: 3, pivot: p }) => {
                        assert_eq!(p, 1000 + pivot, "case {case} at {at}")
                    }
                    other => panic!("case {case} at {at}: {other:?}"),
                }
            }
        }
    }

    fn assert_close(got: &[f64], want: &[f64], tol: f64) {
        assert_eq!(got.len(), want.len());
        for (idx, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() < tol, "elem {idx}: got {g}, want {w}");
        }
    }

    #[test]
    fn chol_reconstructs_input() {
        for n in [1usize, 7, 8, 20, 33] {
            let c = ctx(64);
            let a = mk(&c, n, n, |i, j| spd_sym(i, j, n));
            let (l, _) = chol_tiled(&a, 3 * 64, 1, None).unwrap();
            let lv = l.to_rows().unwrap();
            // Strict upper triangle exactly zero.
            for i in 0..n {
                for j in i + 1..n {
                    assert_eq!(lv[i * n + j], 0.0, "upper ({i},{j}) nonzero");
                }
            }
            // L·Lᵀ ≈ A.
            for i in 0..n {
                for j in 0..n {
                    let mut s = 0.0;
                    for k in 0..n {
                        s += lv[i * n + k] * lv[j * n + k];
                    }
                    assert!(
                        (s - spd_sym(i, j, n)).abs() < 1e-9,
                        "n={n} ({i},{j}): {s} vs {}",
                        spd_sym(i, j, n)
                    );
                }
            }
        }
    }

    #[test]
    fn chol_matches_reference_bitwise_on_tile_aligned_input() {
        // Panels of exactly one tile (p = 8): the tiled schedule performs
        // the same operations as the reference per element group.
        let n = 16;
        let c = ctx(64);
        let av: Vec<f64> = (0..n * n).map(|k| spd_sym(k / n, k % n, n)).collect();
        let a = mk(&c, n, n, |i, j| av[i * n + j]);
        let (l, _) = chol_tiled(&a, 3 * 64, 1, None).unwrap();
        assert_close(&l.to_rows().unwrap(), &reference_chol(&av, n), 1e-10);
    }

    #[test]
    fn chol_reads_only_lower_triangle() {
        // Garbage in the strict upper triangle must not affect the factor.
        let n = 20;
        let c = ctx(64);
        let clean = mk(&c, n, n, |i, j| spd_sym(i, j, n));
        let dirty = mk(
            &c,
            n,
            n,
            |i, j| {
                if j > i {
                    f64::NAN
                } else {
                    spd_sym(i, j, n)
                }
            },
        );
        let (l1, f1) = chol_tiled(&clean, 3 * 64, 1, None).unwrap();
        let (l2, f2) = chol_tiled(&dirty, 3 * 64, 1, None).unwrap();
        assert_eq!(l1.to_rows().unwrap(), l2.to_rows().unwrap());
        assert_eq!(f1, f2);
    }

    #[test]
    fn non_positive_definite_is_a_typed_error() {
        let n = 12;
        let c = ctx(64);
        // Negate one diagonal entry: the factorization must fail at that
        // pivot, not emit NaNs.
        let bad = 10usize;
        let a = mk(&c, n, n, |i, j| {
            let v = spd_sym(i, j, n);
            if i == bad && j == bad {
                -v
            } else {
                v
            }
        });
        match chol_tiled(&a, 3 * 64, 1, None) {
            Err(ExecError::NotPositiveDefinite { tile, pivot }) => {
                assert_eq!(pivot, bad);
                assert_eq!(tile, bad / 8, "panel index of the failing pivot");
            }
            Err(other) => panic!("expected NotPositiveDefinite, got {other}"),
            Ok(_) => panic!("factorization of an indefinite matrix succeeded"),
        }
        // NaN poisoning is caught the same way, at the first poisoned pivot.
        let a = mk(&c, n, n, |i, j| {
            if (i, j) == (3, 3) {
                f64::NAN
            } else {
                spd_sym(i, j, n)
            }
        });
        match chol_tiled(&a, 3 * 64, 1, None) {
            Err(ExecError::NotPositiveDefinite { pivot, .. }) => assert_eq!(pivot, 3),
            Err(other) => panic!("expected NotPositiveDefinite, got {other}"),
            Ok(_) => panic!("factorization of a NaN-poisoned matrix succeeded"),
        }
    }

    #[test]
    fn chol_rejects_degenerate_shapes() {
        let c = ctx(64);
        let rect = mk(&c, 4, 6, |i, j| (i + j) as f64);
        assert!(matches!(
            chol_tiled(&rect, 3 * 64, 1, None),
            Err(ExecError::Expr(ExprError::Expected { .. }))
        ));
    }

    #[test]
    fn solve_recovers_known_solution() {
        for (n, m) in [(1usize, 1usize), (8, 3), (20, 5), (33, 9)] {
            let c = ctx(64);
            let a = mk(&c, n, n, |i, j| spd_sym(i, j, n));
            let xs: Vec<f64> = (0..n * m).map(|k| ((k * 7) % 11) as f64 - 5.0).collect();
            // b = a %*% x, computed densely.
            let av: Vec<f64> = (0..n * n).map(|k| spd_sym(k / n, k % n, n)).collect();
            let mut bv = vec![0.0; n * m];
            for i in 0..n {
                for k in 0..n {
                    for j in 0..m {
                        bv[i * m + j] += av[i * n + k] * xs[k * m + j];
                    }
                }
            }
            let b = mk(&c, n, m, |i, j| bv[i * m + j]);
            let (x, _) = cholesky_solve(&a, &b, 3 * 64, 1, None).unwrap();
            assert_close(&x.to_rows().unwrap(), &xs, 1e-7);
        }
    }

    #[test]
    fn solve_rejects_mismatched_rhs() {
        let c = ctx(64);
        let a = mk(&c, 8, 8, |i, j| spd_sym(i, j, 8));
        let b = mk(&c, 9, 2, |_, _| 1.0);
        assert!(matches!(
            cholesky_solve(&a, &b, 3 * 64, 1, None),
            Err(ExecError::Expr(ExprError::MatMulDims { .. }))
        ));
    }

    #[test]
    fn parallel_matches_sequential_results_and_io() {
        // In-memory regime: parallel schedules must be bit-identical to
        // sequential in results, flops, reads, and writes.
        let n = 40; // 5x5 panels at p = 8
        let run = |threads: usize| {
            let c = StorageCtx::new_mem(512, 256);
            let a = mk(&c, n, n, |i, j| spd_sym(i, j, n));
            let xs: Vec<f64> = (0..n * 3).map(|k| ((k * 5) % 9) as f64 - 4.0).collect();
            let av: Vec<f64> = (0..n * n).map(|k| spd_sym(k / n, k % n, n)).collect();
            let mut bv = vec![0.0; n * 3];
            for i in 0..n {
                for k in 0..n {
                    for j in 0..3 {
                        bv[i * 3 + j] += av[i * n + k] * xs[k * 3 + j];
                    }
                }
            }
            let b = mk(&c, n, 3, |i, j| bv[i * 3 + j]);
            c.pool().flush_all().unwrap();
            c.clear_cache().unwrap();
            let before = c.io_snapshot();
            let (l, lf) = chol_tiled(&a, 3 * 64, threads, None).unwrap();
            let (x, xf) = tri_solve(&l, &b, 3 * 64, threads, None).unwrap();
            c.pool().flush_all().unwrap();
            let delta = c.io_snapshot() - before;
            (
                l.to_rows().unwrap(),
                x.to_rows().unwrap(),
                lf,
                xf,
                delta.reads,
                delta.writes,
            )
        };
        let seq = run(1);
        for threads in [2, 4] {
            let par = run(threads);
            assert_eq!(par.0, seq.0, "{threads}-thread factor diverged");
            assert_eq!(par.1, seq.1, "{threads}-thread solution diverged");
            assert_eq!((par.2, par.3), (seq.2, seq.3), "flops diverged");
            assert_eq!(par.4, seq.4, "{threads}-thread reads diverged");
            assert_eq!(par.5, seq.5, "{threads}-thread writes diverged");
        }
    }

    #[test]
    fn chol_per_panel_read_budget_is_pinned() {
        // Exact counted I/O for the 4x4-panel schedule under a tiny pool:
        // the budget below is the panel schedule's read set, derived once
        // and pinned (one frame table + LRU makes it deterministic).
        let n = 32; // 4x4 single-tile panels (p = 8, one block per panel)
        let c = ctx(4);
        let a = mk(&c, n, n, |i, j| spd_sym(i, j, n));
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let (l, _) = chol_tiled(&a, 3 * 64, 1, None).unwrap();
        c.pool().flush_all().unwrap();
        let delta = c.io_snapshot() - before;
        drop(l);
        let nb = 4u64;
        // Copy-in: the lower triangle of `a`, one block per panel.
        let copy_reads = nb * (nb + 1) / 2;
        // Per step k (b = nb-1-k trailing panels): POTRF re-reads its
        // diagonal panel; TRSM reads each column panel; the update reads
        // its two operand panels and its output panel per trailing cell
        // (i == j reuses the single operand read).
        let mut step_reads = 0u64;
        for k in 0..nb {
            let b = nb - 1 - k;
            step_reads += 1; // POTRF
            step_reads += b; // TRSM column
            for i in 0..b {
                for j in 0..=i {
                    step_reads += if i == j { 2 } else { 3 };
                }
            }
        }
        // The schedule's demand-read set is an upper bound; the 4-frame
        // LRU pool serves some re-touches (e.g. the POTRF re-read right
        // after the copy-in wrote the panel) from cache. The exact count
        // under this deterministic single-threaded schedule is pinned below —
        // any drift means the tile schedule changed.
        assert!(delta.reads <= copy_reads + step_reads, "demand set grew");
        assert_eq!(delta.reads, 30, "pinned per-tile read budget moved");
        // Writes: all 16 panels of the working copy, then one write-back
        // per POTRF/TRSM/update step (dirty blocks flush once).
        let mut step_writes = 0u64;
        for k in 0..nb {
            let b = nb - 1 - k;
            step_writes += 1 + b + b * (b + 1) / 2;
        }
        assert!(delta.writes <= nb * nb + step_writes, "write set grew");
        assert_eq!(delta.writes, 33, "pinned write budget moved");
    }

    #[test]
    fn prefetch_declarations_are_read_count_neutral() {
        // Same factorization, prefetch off vs on: identical read/write
        // totals (prefetch moves reads in time, never adds any).
        let n = 33; // ragged: exercises the partial-panel paths too
        let run = |depth: usize| {
            let c = StorageCtx::new_mem_opts(
                512,
                riot_storage::PoolConfig {
                    frames: 64,
                    prefetch_depth: depth,
                    ..riot_storage::PoolConfig::default()
                },
            );
            let a = mk(&c, n, n, |i, j| spd_sym(i, j, n));
            let b = mk(&c, n, 5, |i, j| (i * 5 + j) as f64);
            c.pool().flush_all().unwrap();
            c.clear_cache().unwrap();
            let before = c.io_snapshot();
            let (x, _) = cholesky_solve(&a, &b, 3 * 64, 1, None).unwrap();
            c.pool().wait_prefetch_idle();
            c.pool().flush_all().unwrap();
            let delta = c.io_snapshot() - before;
            (x.to_rows().unwrap(), delta.reads, delta.writes)
        };
        let (x0, r0, w0) = run(0);
        let (x8, r8, w8) = run(8);
        assert_eq!(x0, x8, "prefetch changed the result");
        assert_eq!(r0, r8, "prefetch changed read counts");
        assert_eq!(w0, w8, "prefetch changed write counts");
    }
}
