//! The numerical contract of `chol` / `solve` through `Session`, on inputs
//! the integer-valued corpus cannot speak for (ROADMAP 5(a), first slice):
//!
//! * real-valued input, panels smaller than the matrix and ragged against
//!   both the tiles and the in-memory kernels' column blocks: `chol` is
//!   bit-identical across all four engines and `solve` across the three
//!   that run the tiled schedule. Plain R back-substitutes through the
//!   whole matrix at once, which legitimately orders the second sweep's
//!   sums differently — it is held to the residual bound instead;
//! * an ill-conditioned input: backward-error bounds on the *residuals*
//!   (the forward error is the condition number's business, not ours);
//! * every engine charges the flops the kernels count.

use riot_array::MatrixLayout;
use riot_core::{EngineConfig, EngineKind, RMat, Session};

/// The constant of both backward-error bounds: `c · n · ε · scale`.
const C: f64 = 8.0;

/// 512-byte blocks (8x8 tiles); 75 blocks of memory make 40-wide panels.
fn session(kind: EngineKind, mem_blocks: usize) -> Session {
    let mut cfg = EngineConfig::new(kind);
    cfg.block_size = 512;
    cfg.chunk_elems = 64;
    cfg.mem_blocks = mem_blocks;
    Session::new(cfg)
}

fn mat(s: &Session, rows: usize, cols: usize, data: &[f64]) -> RMat {
    s.matrix_from_fn(rows, cols, MatrixLayout::Square, |i, j| data[i * cols + j])
        .unwrap()
}

/// A non-integer Gram matrix, computed here so every engine factors the
/// same bits: `XᵀX + I` for a real-valued `(n + 3) x n` design matrix.
fn gram(n: usize) -> Vec<f64> {
    let x = |i: usize, j: usize| ((i * 37 + j * 101) % 211) as f64 / 97.0 - 1.0;
    let mut g = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let dot: f64 = (0..n + 3).map(|k| x(k, i) * x(k, j)).sum();
            g[i * n + j] = dot + if i == j { 1.0 } else { 0.0 };
            g[j * n + i] = g[i * n + j];
        }
    }
    g
}

/// The Hilbert matrix shifted by 2⁻³⁰: condition number about 2·10⁹.
fn shifted_hilbert(n: usize) -> Vec<f64> {
    let shift = |i, j| if i == j { (2.0f64).powi(-30) } else { 0.0 };
    (0..n * n)
        .map(|at| (at / n, at % n))
        .map(|(i, j)| 1.0 / (i + j + 1) as f64 + shift(i, j))
        .collect()
}

fn rhs(n: usize, m: usize) -> Vec<f64> {
    (0..n * m)
        .map(|at| ((at * 13) % 29) as f64 / 9.0 - 1.3)
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn inf_norm(v: impl Iterator<Item = f64>) -> f64 {
    v.fold(0.0, |m, x| m.max(x.abs()))
}

/// `‖A·x − b‖∞ ≤ C·n·ε·(‖A‖∞‖x‖∞ + ‖b‖∞)` for every column of `x`.
fn assert_solve_residual(a: &[f64], x: &[f64], b: &[f64], (n, m): (usize, usize), what: &str) {
    let a_inf = inf_norm((0..n).map(|i| a[i * n..][..n].iter().map(|v| v.abs()).sum()));
    for col in 0..m {
        let ax_b = (0..n).map(|i| {
            let ax: f64 = (0..n).map(|k| a[i * n + k] * x[k * m + col]).sum();
            ax - b[i * m + col]
        });
        let x_inf = inf_norm((0..n).map(|k| x[k * m + col]));
        let b_inf = inf_norm((0..n).map(|i| b[i * m + col]));
        let bound = C * n as f64 * f64::EPSILON * (a_inf * x_inf + b_inf);
        let resid = inf_norm(ax_b);
        assert!(resid <= bound, "{what} column {col}: {resid:e} > {bound:e}");
    }
}

#[test]
fn real_valued_factors_agree_bit_for_bit_across_engines() {
    let (n, m) = (257, 3);
    let (a, b) = (gram(n), rhs(n, m));
    let run = |kind| {
        let s = session(kind, 75);
        let (am, bm) = (mat(&s, n, n, &a), mat(&s, n, m, &b));
        let (_, _, l) = am.chol().unwrap().collect().unwrap();
        let (_, _, x) = am.solve(&bm).unwrap().collect().unwrap();
        (l, x)
    };
    let (l_riot, x_riot) = run(EngineKind::Riot);
    assert_solve_residual(&a, &x_riot, &b, (n, m), "Riot");
    for kind in [
        EngineKind::PlainR,
        EngineKind::Strawman,
        EngineKind::MatNamed,
    ] {
        let (l, x) = run(kind);
        assert!(
            bits(&l) == bits(&l_riot),
            "{kind:?}: chol differs from Riot"
        );
        if kind == EngineKind::PlainR {
            assert_solve_residual(&a, &x, &b, (n, m), "PlainR");
        } else {
            assert!(
                bits(&x) == bits(&x_riot),
                "{kind:?}: solve differs from Riot"
            );
        }
    }
}

#[test]
fn backward_error_bounds_hold_on_an_ill_conditioned_input() {
    let (n, m) = (96, 2);
    let (a, b) = (shifted_hilbert(n), rhs(n, m));
    let a_frob = a.iter().map(|v| v * v).sum::<f64>().sqrt();
    for kind in EngineKind::all() {
        let s = session(kind, 75);
        let (am, bm) = (mat(&s, n, n, &a), mat(&s, n, m, &b));
        // ‖A − L·Lᵀ‖_F ≤ C·n·ε·‖A‖_F.
        let (_, _, l) = am.chol().unwrap().collect().unwrap();
        let mut err2 = 0.0;
        for i in 0..n {
            for j in 0..n {
                let llt: f64 = (0..n).map(|k| l[i * n + k] * l[j * n + k]).sum();
                err2 += (a[i * n + j] - llt).powi(2);
            }
        }
        let bound = C * n as f64 * f64::EPSILON * a_frob;
        assert!(
            err2.sqrt() <= bound,
            "{kind:?}: {:e} > {bound:e}",
            err2.sqrt()
        );
        let (_, _, x) = am.solve(&bm).unwrap().collect().unwrap();
        assert_solve_residual(&a, &x, &b, (n, m), &format!("{kind:?}"));
    }
}

#[test]
fn every_engine_charges_the_flops_the_kernels_count() {
    // One panel holds the matrix, so all four engines run the same three
    // kernel calls: one multiply-add each, nothing in closed form.
    let (n, m) = (40, 3);
    let (a, b) = (gram(n), rhs(n, m));
    for kind in EngineKind::all() {
        let s = session(kind, 192);
        let (am, bm) = (mat(&s, n, n, &a), mat(&s, n, m, &b));
        let before = s.cpu_ops();
        am.chol().unwrap().collect().unwrap();
        let chol = s.cpu_ops() - before;
        assert_eq!(chol, (n * (n + 1) * (n + 2) / 6) as u64, "{kind:?}: chol");
        am.solve(&bm).unwrap().collect().unwrap();
        let solve = s.cpu_ops() - before - chol;
        assert_eq!(solve, chol + (n * (n + 1) * m) as u64, "{kind:?}: solve");
    }
}
