//! The one in-memory GEMM behind every tiled kernel's inner step: what a
//! schedule does with two row-major panels in scratch is always
//! `C += alpha · A · B`. Transposed uses are resolved before this point —
//! a read through a transposed [`super::matmul::Operand`], or
//! [`transpose_into`] — so one register-blocked kernel serves them all.
//!
//! **One body, one instantiation per instruction set.** [`body`] is safe,
//! generic over its `MR x NR` register block, and written once;
//! [`dispatch`] compiles it at the width each ISA's registers hold and
//! picks the widest the CPU supports, once per process. Both operands are
//! packed k-major (`A` in `MR`-row slices, `B` in `NR`-column panels), so
//! the inner loop streams contiguous memory whatever the row strides of
//! the panels it was handed.
//!
//! **Summation-order contract.** Every `c[i,j]` receives its products in
//! ascending `k`, one rounded multiply and one rounded add each (no FMA
//! contraction, no partial sums): accumulators are loaded from `C` and
//! stored back, so splitting `k` across calls or `KC` chunks never
//! regroups a sum, and lanes never mix. The bits depend on the operand
//! values alone — not on the register block, and so not on the
//! instruction set or the machine.

use std::sync::OnceLock;

/// Depth of one packed slice: `KC x MR` of `A` on the stack (at most
/// 4 KiB), `KC x NR` of `B` per panel (at most 16 KiB, L1-resident).
const KC: usize = 128;
/// Columns of `B` packed at a time: bounds the pack scratch at `KC x NC`
/// elements (256 KiB, L2-resident) per worker whatever the panel width.
const NC: usize = 256;

/// `(rows, cols, depth)` of a product: `C` is `pi x pj`, `A` is `pi x pk`,
/// `B` is `pk x pj`.
type Dims = (usize, usize, usize);
/// A row-major operand panel as `(elements, row stride)`.
type Panel<'a> = (&'a [f64], usize);
/// The panel a product accumulates into.
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

/// `C += alpha · A · B` over dense row-major panels; returns the
/// multiplications performed.
pub(super) fn gemm_acc(c: &mut [f64], a: &[f64], b: &[f64], dims: Dims, alpha: f64) -> u64 {
    gemm_acc_ld((c, dims.1), (a, dims.2), (b, dims.1), dims, alpha)
}

/// [`gemm_acc`] over panels given as `(slice, row stride)`, so a caller can
/// update a sub-block of a larger row-major buffer in place: only the
/// `pi x pj` cells of `C` are written.
pub(super) fn gemm_acc_ld(c: PanelMut, a: Panel, b: Panel, dims: Dims, alpha: f64) -> u64 {
    static WIDEST: OnceLock<dispatch::Kernel> = OnceLock::new();
    let widest = || dispatch::supported().last().expect("baseline is listed").1;
    WIDEST.get_or_init(widest).run(c, a, b, dims, alpha);
    (dims.0 * dims.1 * dims.2) as u64
}

/// The kernel. `#[inline(always)]` so each [`dispatch`] wrapper compiles
/// its own copy under its own target features.
#[inline(always)]
fn body<const MR: usize, const NR: usize>(
    (c, ldc): PanelMut,
    (a, lda): Panel,
    (b, ldb): Panel,
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
            for k in 0..kc {
                let row = &b[(k0 + k) * ldb + j0..][..nc];
                for (p, src) in row.chunks(NR).enumerate() {
                    let dst = &mut bpack[p * kc + k];
                    dst[..src.len()].copy_from_slice(src);
                    dst[src.len()..].fill(0.0);
                }
            }
            for i0 in (0..pi).step_by(MR) {
                let h = MR.min(pi - i0);
                for (k, col) in apack[..kc].iter_mut().enumerate() {
                    for (r, v) in col.iter_mut().enumerate() {
                        *v = if r < h {
                            alpha * a[(i0 + r) * lda + k0 + k]
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

/// Run-time instruction-set selection: the crate's only unsafe code.
#[allow(unsafe_code)]
mod dispatch {
    use super::{body, Dims, Panel, PanelMut};

    type Entry = unsafe fn(PanelMut, Panel, Panel, Dims, f64);

    /// One instantiation of [`body`] that this CPU can run: only
    /// [`supported`] constructs one.
    #[derive(Clone, Copy)]
    pub(super) struct Kernel(Entry);

    impl Kernel {
        pub(super) fn run(self, c: PanelMut, a: Panel, b: Panel, dims: Dims, alpha: f64) {
            // SAFETY: the entry is safe code compiled for one target feature,
            // and `supported` lists it only after detecting that feature
            // (`avx2`, `avx512f`) on the running CPU; the baseline enables
            // none.
            unsafe { (self.0)(c, a, b, dims, alpha) }
        }
    }

    /// Four 256-bit rows of accumulators, two registers each.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn avx2(c: PanelMut, a: Panel, b: Panel, dims: Dims, alpha: f64) {
        body::<4, 8>(c, a, b, dims, alpha)
    }

    /// Four 512-bit rows of accumulators, two registers each.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn avx512(c: PanelMut, a: Panel, b: Panel, dims: Dims, alpha: f64) {
        body::<4, 16>(c, a, b, dims, alpha)
    }

    /// Every instantiation the running CPU supports by name, narrowest
    /// first.
    pub(super) fn supported() -> Vec<(&'static str, Kernel)> {
        let mut list = vec![("baseline 4x4", Kernel(body::<4, 4>))];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                list.push(("avx2 4x8", Kernel(avx2)));
            }
            if is_x86_feature_detected!("avx512f") {
                list.push(("avx512f 4x16", Kernel(avx512)));
            }
        }
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loop the micro-kernel replaced: per row, ascending `k`, axpy.
    fn reference(
        (c, ldc): PanelMut,
        (a, lda): Panel,
        (b, ldb): Panel,
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

    /// Every instantiation the host supports against the reference: ragged
    /// against each `MR`/`NR` in use, `KC` and `NC` on every side (down to
    /// `pj = 1` and `pi < MR`), both signs of alpha, and a second
    /// accumulation round on top of the first (load-from-C). Equal to one
    /// reference, the instantiations are equal to each other.
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
                for (name, kernel) in dispatch::supported() {
                    let mut got = vals(pi * pj, 3);
                    for _ in 0..2 {
                        kernel.run((&mut got, pj), (&a, pk), (&b, pj), dims, alpha);
                    }
                    assert!(
                        bits(&got) == bits(&want),
                        "{name}: {pi}x{pk} * {pk}x{pj}, alpha {alpha}"
                    );
                }
                let mut got = vals(pi * pj, 3);
                let f = gemm_acc(&mut got, &a, &b, dims, alpha);
                assert_eq!(f, (pi * pj * pk) as u64);
                gemm_acc(&mut got, &a, &b, dims, alpha);
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
            for (name, kernel) in dispatch::supported() {
                let mut got = c0.clone();
                kernel.run(
                    (&mut got[ldc + 1..], ldc),
                    (&a[1..], lda),
                    (&b[2..], ldb),
                    dims,
                    -1.0,
                );
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
    /// -p riot-core --lib gemm_rates -- --ignored --nocapture`.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn gemm_rates() {
        for n in [256usize, 416] {
            let (a, b, mut c) = (vals(n * n, 1), vals(n * n, 2), vec![0.0; n * n]);
            for (name, kernel) in dispatch::supported() {
                let best = (0..7)
                    .map(|_| {
                        let t = std::time::Instant::now();
                        kernel.run((&mut c, n), (&a, n), (&b, n), (n, n, n), 1.0);
                        t.elapsed().as_secs_f64()
                    })
                    .fold(f64::INFINITY, f64::min);
                let rate = (n * n * n) as f64 / best / 1e9;
                println!("{name:<14} {n}^3: {rate:.2} G madd/s");
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
