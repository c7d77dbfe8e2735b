//! The one in-memory GEMM behind every tiled kernel's inner step: what a
//! schedule does with two operand panels in scratch is always
//! `C += alpha · A · B`. Orientation is decided here and nowhere else:
//! each operand [`Panel`] is a row-major rectangle *as stored* plus BLAS's
//! `trans` flag, and the pack reads either orientation, so `t(x) %*% y`
//! and the factorizations' `L · Lᵀ` steps never build a transposed copy.
//!
//! **One body, one instantiation per instruction set.** [`body`] is safe,
//! generic over its `MR x NR` register block, and written once; [`Gemm`]
//! sizes the block to two vector registers per row at the width of the
//! instruction set it is compiled for, and the crate's shared run-time
//! detection (`crate::isa`, which the tape's chunk kernels use too) runs
//! the widest copy the CPU supports, chosen once per process. Both
//! operands are packed k-major (`A` in `MR`-row slices, `B` in `NR`-column
//! panels), so the inner loop streams contiguous memory whatever the
//! strides and flags of the panels it was handed.
//!
//! **Summation-order contract.** Every `c[i,j]` receives its products in
//! ascending `k`, one rounded multiply and one rounded add each (no FMA
//! contraction, no partial sums): accumulators are loaded from `C` and
//! stored back, so splitting `k` across calls or `KC` chunks never
//! regroups a sum, and lanes never mix. Packing only moves values, so the
//! bits depend on the operand values alone — not on their orientation,
//! not on the register block, and so not on the instruction set or the
//! machine.

use crate::isa::{self, Isa, Kernel};

/// Depth of one packed slice: `KC x MR` of `A` on the stack (at most
/// 4 KiB), `KC x NR` of `B` per panel (at most 16 KiB, L1-resident).
const KC: usize = 128;
/// Columns of `B` packed at a time: bounds the pack scratch at `KC x NC`
/// elements (256 KiB, L2-resident) per worker whatever the panel width.
const NC: usize = 256;

/// `(rows, cols, depth)` of a product: `C` is `pi x pj`, `A` is `pi x pk`,
/// `B` is `pk x pj`.
type Dims = (usize, usize, usize);
/// An operand panel as `(elements, row stride, trans)`: a row-major
/// rectangle as stored, read as itself or — `trans` — as its transpose.
pub(super) type Panel<'a> = (&'a [f64], usize, bool);
/// The row-major panel a product accumulates into, as `(elements, row
/// stride)`.
type PanelMut<'a> = (&'a mut [f64], usize);

/// `y += alpha · x`.
#[inline]
pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// `dst = srcᵀ` for a row-major `rows x cols` panel.
pub(super) fn transpose_into(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    for (c, drow) in dst[..rows * cols].chunks_exact_mut(rows).enumerate() {
        for (r, d) in drow.iter_mut().enumerate() {
            *d = src[r * cols + c];
        }
    }
}

/// `C += alpha · A · B`; returns the multiplications performed. The row
/// strides let a caller update a sub-block of a larger buffer in place:
/// only the `pi x pj` cells of `C` are written.
pub(super) fn gemm_acc(c: PanelMut, a: Panel, b: Panel, dims: Dims, alpha: f64) -> u64 {
    isa::run(Gemm(c, a, b, dims, alpha));
    (dims.0 * dims.1 * dims.2) as u64
}

/// One product, `C += alpha · A · B`, as a [`Kernel`]: `MR x NR` is four
/// rows of two vector registers at the instruction set's width.
struct Gemm<'a>(PanelMut<'a>, Panel<'a>, Panel<'a>, Dims, f64);

impl Kernel for Gemm<'_> {
    type Out = ();

    #[inline(always)]
    fn run(self, isa: Isa) {
        let Gemm(c, a, b, dims, alpha) = self;
        match isa.f64_lanes() {
            2 => body::<4, 4>(c, a, b, dims, alpha),
            4 => body::<4, 8>(c, a, b, dims, alpha),
            _ => body::<4, 16>(c, a, b, dims, alpha),
        }
    }
}

/// Element `(i, k)` of a panel read through its flag.
#[inline(always)]
pub(super) fn at((x, ld, trans): Panel, i: usize, k: usize) -> f64 {
    x[if trans { k * ld + i } else { i * ld + k }]
}

/// The kernel. `#[inline(always)]` so each instruction set's copy of
/// [`Gemm`] compiles its own under its own target features.
#[inline(always)]
fn body<const MR: usize, const NR: usize>(
    (c, ldc): PanelMut,
    a: Panel,
    b: Panel,
    (pi, pj, pk): Dims,
    alpha: f64,
) {
    let mut apack = [[0.0f64; MR]; KC];
    let mut bpack = vec![[0.0f64; NR]; KC.min(pk) * NC.min(pj).div_ceil(NR)];
    for j0 in (0..pj).step_by(NC) {
        let nc = NC.min(pj - j0);
        for k0 in (0..pk).step_by(KC) {
            let kc = KC.min(pk - k0);
            // Pack B's kc x nc block into NR-wide k-major panels. Edges of
            // both packs are padded with zeros: they feed only accumulator
            // cells that are never stored.
            for (p, panel) in bpack.chunks_exact_mut(kc).take(nc.div_ceil(NR)).enumerate() {
                for (k, row) in panel.iter_mut().enumerate() {
                    for (jj, v) in row.iter_mut().enumerate() {
                        let j = p * NR + jj;
                        *v = if j < nc { at(b, k0 + k, j0 + j) } else { 0.0 };
                    }
                }
            }
            for i0 in (0..pi).step_by(MR) {
                let h = MR.min(pi - i0);
                for (k, col) in apack[..kc].iter_mut().enumerate() {
                    for (r, v) in col.iter_mut().enumerate() {
                        *v = if r < h {
                            alpha * at(a, i0 + r, k0 + k)
                        } else {
                            0.0
                        };
                    }
                }
                for (p, bp) in bpack.chunks_exact(kc).take(nc.div_ceil(NR)).enumerate() {
                    let (at, w) = (i0 * ldc + j0 + p * NR, NR.min(nc - p * NR));
                    if h == MR && w == NR {
                        micro(&mut c[at..], ldc, &apack[..kc], bp);
                    } else {
                        // A ragged tile goes through a zero-padded copy.
                        let mut edge = [[0.0f64; NR]; MR];
                        for (r, row) in edge.iter_mut().enumerate().take(h) {
                            row[..w].copy_from_slice(&c[at + r * ldc..][..w]);
                        }
                        micro(edge.as_flattened_mut(), NR, &apack[..kc], bp);
                        for (r, row) in edge.iter().enumerate().take(h) {
                            c[at + r * ldc..][..w].copy_from_slice(&row[..w]);
                        }
                    }
                }
            }
        }
    }
}

/// One full register tile: the `MR x NR` cells at `tile` (row stride `ld`)
/// plus the product of two packed slices. The accumulators are indexed by
/// constants alone, which is what lets the compiler keep them in vector
/// registers for the whole `k` sweep at every register-block shape.
#[inline(always)]
fn micro<const MR: usize, const NR: usize>(
    tile: &mut [f64],
    ld: usize,
    ap: &[[f64; MR]],
    bp: &[[f64; NR]],
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&tile[r * ld..][..NR]);
    }
    for (av, bv) in ap.iter().zip(bp) {
        for r in 0..MR {
            for j in 0..NR {
                acc[r][j] += av[r] * bv[j];
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        tile[r * ld..][..NR].copy_from_slice(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loop the micro-kernel replaced: per row, ascending `k`, axpy,
    /// over plain row-major panels.
    fn reference(
        (c, ldc): PanelMut,
        (a, lda): (&[f64], usize),
        (b, ldb): (&[f64], usize),
        (pi, pj, pk): Dims,
        alpha: f64,
    ) {
        for i in 0..pi {
            for k in 0..pk {
                let aik = alpha * a[i * lda + k];
                for j in 0..pj {
                    c[i * ldc + j] += aik * b[k * ldb + j];
                }
            }
        }
    }

    fn vals(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7919 + seed * 104729) % 1013) as f64 / 1013.0 - 0.5)
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The dense `rows x cols` panel `x` as a caller stores it for `trans`:
    /// as itself, or as its transpose with a row stride three wider than
    /// the transpose needs and `NaN` in the gap.
    fn stored(x: &[f64], rows: usize, cols: usize, trans: bool) -> (Vec<f64>, usize) {
        if !trans {
            return (x.to_vec(), cols);
        }
        let ld = rows + 3;
        let mut s = vec![f64::NAN; cols * ld];
        for (at, &v) in x.iter().enumerate() {
            s[at % cols * ld + at / cols] = v;
        }
        (s, ld)
    }

    const FLAGS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

    /// Every instantiation the host supports against the reference: ragged
    /// against each `MR`/`NR` in use, `KC` and `NC` on every side (down to
    /// `pj = 1` and `pi < MR`), both signs of alpha, each operand stored
    /// plain or transposed, and a second accumulation round on top of the
    /// first (load-from-C). Equal to one reference, the instantiations and
    /// orientations are equal to each other.
    #[test]
    fn gemm_is_bitwise_the_ascending_k_axpy_loop() {
        for &(pi, pj, pk) in &[
            (1, 1, 1),
            (5, 1, 9),
            (3, 3, 200),
            (4, 4, 128),
            (7, 9, 129),
            (3, 17, 5),
            (13, 22, 300),
            (32, 32, 32),
            (9, 257, 130),
            (2, 300, 257),
        ] {
            let dims = (pi, pj, pk);
            let (a, b) = (vals(pi * pk, 1), vals(pk * pj, 2));
            for alpha in [1.0, -1.0] {
                let mut want = vals(pi * pj, 3);
                for _ in 0..2 {
                    reference((&mut want, pj), (&a, pk), (&b, pj), dims, alpha);
                }
                for isa in isa::supported() {
                    for (ta, tb) in FLAGS {
                        let ((sa, lda), (sb, ldb)) =
                            (stored(&a, pi, pk, ta), stored(&b, pk, pj, tb));
                        let mut got = vals(pi * pj, 3);
                        for _ in 0..2 {
                            let (a, b) = ((&sa[..], lda, ta), (&sb[..], ldb, tb));
                            isa.run(Gemm((&mut got, pj), a, b, dims, alpha));
                        }
                        assert!(
                            bits(&got) == bits(&want),
                            "{}: {pi}x{pk} * {pk}x{pj}, alpha {alpha}, trans {ta} {tb}",
                            isa.name()
                        );
                    }
                }
                let mut got = vals(pi * pj, 3);
                let (ap, bp) = ((&a[..], pk, false), (&b[..], pj, false));
                let f = gemm_acc((&mut got, pj), ap, bp, dims, alpha);
                assert_eq!(f, (pi * pj * pk) as u64);
                gemm_acc((&mut got, pj), ap, bp, dims, alpha);
                assert!(bits(&got) == bits(&want), "the selected instantiation");
            }
        }
    }

    /// Row strides wider than the panels on all three operands: an
    /// interior sub-block of `C` is updated, its border is not touched.
    /// A row of `inf` in `A` and a column of `NaN` in `B` sit next to the
    /// zero-padded pack edges (`pi`, `pj` ragged against every block):
    /// `0 · inf` lives in accumulator cells that must never be stored.
    #[test]
    fn strided_sub_block_update_leaves_the_border_and_the_padding_unstored() {
        let same = |g: f64, w: f64| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
        for &(pi, pj, pk) in &[(5, 5, 7), (6, 19, 130), (9, 261, 33), (1, 1, 1)] {
            let (ldc, lda, ldb) = (pj + 3, pk + 2, pj + 5);
            let (mut a, mut b) = (vals((pi + 1) * lda, 5), vals((pk + 1) * ldb, 6));
            a[(pi - 1) * lda + 1..][..pk].fill(f64::INFINITY);
            for k in 0..pk {
                b[k * ldb + 2 + pj - 1] = f64::NAN;
            }
            let c0 = vals((pi + 2) * ldc, 7);
            let mut want = c0.clone();
            let dims = (pi, pj, pk);
            reference(
                (&mut want[ldc + 1..], ldc),
                (&a[1..], lda),
                (&b[2..], ldb),
                dims,
                -1.0,
            );
            for isa in isa::supported() {
                let name = isa.name();
                let mut got = c0.clone();
                isa.run(Gemm(
                    (&mut got[ldc + 1..], ldc),
                    (&a[1..], lda, false),
                    (&b[2..], ldb, false),
                    dims,
                    -1.0,
                ));
                for (at, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    assert!(same(g, w), "{name}: {dims:?} cell {at}: {g} vs {w}");
                    let (i, j) = (at / ldc, at % ldc);
                    let inside = (1..=pi).contains(&i) && (1..=pj).contains(&j);
                    let poisoned = inside && (i == pi || j == pj);
                    assert_eq!(g.is_finite(), !poisoned, "{name}: cell ({i},{j})");
                    if !inside {
                        assert_eq!(g.to_bits(), c0[at].to_bits(), "border cell {at} written");
                    }
                }
            }
        }
    }

    /// The per-ISA in-core table quoted in CHANGES.md: `cargo test --release
    /// -p riot-core --lib gemm_rates -- --ignored --nocapture`. One row per
    /// orientation that a kernel uses: NN, and the transposed pack on
    /// either side (TN: `t(x) %*% x`; NT: `x %*% t(x)` and the factor's
    /// `L · Lᵀ` updates).
    #[test]
    #[ignore = "a measurement, not a check"]
    fn gemm_rates() {
        for n in [256usize, 416] {
            let (a, b, mut c) = (vals(n * n, 1), vals(n * n, 2), vec![0.0; n * n]);
            for isa in isa::supported() {
                for (flags, ta, tb) in [
                    ("NN", false, false),
                    ("TN", true, false),
                    ("NT", false, true),
                ] {
                    let name = format!("{} 4x{} {flags}", isa.name(), 2 * isa.f64_lanes());
                    let best = (0..7)
                        .map(|_| {
                            let t = std::time::Instant::now();
                            let (a, b) = ((&a[..], n, ta), (&b[..], n, tb));
                            isa.run(Gemm((&mut c, n), a, b, (n, n, n), 1.0));
                            t.elapsed().as_secs_f64()
                        })
                        .fold(f64::INFINITY, f64::min);
                    let rate = (n * n * n) as f64 / best / 1e9;
                    println!("{name:<17} {n}^3: {rate:.2} G madd/s");
                }
            }
        }
    }

    #[test]
    fn transpose_into_round_trips() {
        let src = vals(5 * 7, 4);
        let (mut t, mut back) = (vec![0.0; 35], vec![0.0; 35]);
        transpose_into(&src, 5, 7, &mut t);
        assert_eq!(t[3 * 5 + 2], src[2 * 7 + 3]);
        transpose_into(&t, 7, 5, &mut back);
        assert_eq!(back, src);
    }
}
