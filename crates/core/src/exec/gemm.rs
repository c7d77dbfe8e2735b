//! The one in-memory GEMM behind every tiled kernel's inner step: what a
//! schedule does with two row-major panels in scratch is always
//! `C += alpha · A · B`. Transposed uses are resolved before this point —
//! a read through a transposed [`super::matmul::Operand`], or
//! [`transpose_into`] — so one register-blocked kernel serves them all.
//!
//! **Summation-order contract.** Every `c[i,j]` receives its products in
//! ascending `k`, one rounded multiply and one rounded add each (no FMA
//! contraction, no partial sums): accumulators are loaded from `C` and
//! stored back, so splitting `k` across calls or `KC` chunks never
//! regroups a sum. The bits depend on the operand values alone.

/// Register block: `MR x NR` accumulators (8 SSE2 registers at 4x4 on
/// baseline x86-64, leaving room for the operand loads).
const MR: usize = 4;
const NR: usize = 4;
/// Depth of one packed `A` slice (`KC x MR`, 4 KiB on the stack); the
/// `KC x pj` slice of `B` it sweeps stays cache-resident meanwhile.
const KC: usize = 128;

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

/// `C += alpha · A · B` over row-major panels (`c`: `pi x pj`, `a`:
/// `pi x pk`, `b`: `pk x pj`); returns the multiplications performed.
pub(super) fn gemm_acc(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    (pi, pj, pk): (usize, usize, usize),
    alpha: f64,
) -> u64 {
    let mut apack = [0.0f64; KC * MR];
    let jfull = pj / NR * NR;
    for k0 in (0..pk).step_by(KC) {
        let kc = KC.min(pk - k0);
        for i0 in (0..pi).step_by(MR) {
            let h = MR.min(pi - i0);
            // Pack alpha · A's MR-row slice k-major. Rows past the edge keep
            // stale values: they feed only accumulator rows never stored.
            for (k, d) in apack.chunks_exact_mut(MR).take(kc).enumerate() {
                for (r, v) in d.iter_mut().enumerate().take(h) {
                    *v = alpha * a[(i0 + r) * pk + k0 + k];
                }
            }
            let ap = &apack[..kc * MR];
            for j0 in (0..jfull).step_by(NR) {
                let mut acc = [[0.0f64; NR]; MR];
                for (r, row) in acc.iter_mut().enumerate().take(h) {
                    row.copy_from_slice(&c[(i0 + r) * pj + j0..][..NR]);
                }
                let bs = &b[k0 * pj + j0..];
                for (k, av) in ap.chunks_exact(MR).enumerate() {
                    let bv = &bs[k * pj..][..NR];
                    for r in 0..MR {
                        for j in 0..NR {
                            acc[r][j] += av[r] * bv[j];
                        }
                    }
                }
                for (r, row) in acc.iter().enumerate().take(h) {
                    c[(i0 + r) * pj + j0..][..NR].copy_from_slice(row);
                }
            }
            // Columns past the last full strip (none, or all of them for
            // matrix-vector shapes): row axpys, same ascending k.
            for r in 0..h {
                let crow = &mut c[(i0 + r) * pj + jfull..][..pj - jfull];
                for (k, av) in ap.chunks_exact(MR).enumerate() {
                    axpy(av[r], &b[(k0 + k) * pj + jfull..][..pj - jfull], crow);
                }
            }
        }
    }
    (pi * pj * pk) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loop the micro-kernel replaced: per row, ascending `k`, axpy.
    fn reference(
        c: &mut [f64],
        a: &[f64],
        b: &[f64],
        (pi, pj, pk): (usize, usize, usize),
        alpha: f64,
    ) {
        for i in 0..pi {
            for k in 0..pk {
                let aik = alpha * a[i * pk + k];
                for j in 0..pj {
                    c[i * pj + j] += aik * b[k * pj + j];
                }
            }
        }
    }

    fn vals(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7919 + seed * 104729) % 1013) as f64 / 1013.0 - 0.5)
            .collect()
    }

    #[test]
    fn gemm_is_bitwise_the_ascending_k_axpy_loop() {
        // Ragged against MR/NR/KC on every side, both signs of alpha, and
        // a second accumulation round on top of the first (load-from-C).
        for &(pi, pj, pk) in &[
            (1, 1, 1),
            (5, 1, 9),
            (3, 3, 200),
            (4, 4, 128),
            (7, 9, 129),
            (13, 22, 300),
            (32, 32, 32),
        ] {
            let (a, b) = (vals(pi * pk, 1), vals(pk * pj, 2));
            for alpha in [1.0, -1.0] {
                let mut want = vals(pi * pj, 3);
                let mut got = want.clone();
                for _ in 0..2 {
                    reference(&mut want, &a, &b, (pi, pj, pk), alpha);
                    let f = gemm_acc(&mut got, &a, &b, (pi, pj, pk), alpha);
                    assert_eq!(f, (pi * pj * pk) as u64);
                }
                let same = want
                    .iter()
                    .zip(&got)
                    .all(|(w, g)| w.to_bits() == g.to_bits());
                assert!(same, "{pi}x{pk} * {pk}x{pj}, alpha {alpha}");
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
