//! Transpose-free GEMM: operand flags must be invisible in the bits.
//!
//! For ragged shapes x {NN, TN, NT, TT} x all three kernels x threads
//! {1, 4} x prefetch {0, AUTO}: the fused product equals
//! materialize-then-multiply bit for bit, creates exactly one object (the
//! output — no hidden `t(x)`), and writes exactly the output's blocks. A
//! Gram product's half schedule equals the full schedule bit for bit and
//! is bitwise symmetric. The session-level tests pin the same through the
//! forcing point in `policy/executor.rs`.

use std::sync::Arc;

use proptest::prelude::*;
use riot_array::{DenseMatrix, MatrixLayout, StorageCtx, TileOrder};
use riot_core::exec::{is_gram, matmul_bnlj, matmul_naive, matmul_tiled, Operand};
use riot_core::{EngineConfig, EngineKind, Session};
use riot_storage::{PoolConfig, PREFETCH_AUTO};

/// The three dense kernels under test.
#[derive(Debug, Clone, Copy)]
enum MatMulKernel {
    Naive,
    Bnlj,
    SquareTiled,
}

const KERNELS: [MatMulKernel; 3] = [
    MatMulKernel::Naive,
    MatMulKernel::Bnlj,
    MatMulKernel::SquareTiled,
];

/// 512-byte blocks (8x8 tiles) and a pool that holds every operand: the
/// regime the thread- and prefetch-parity contracts are stated for.
fn ctx(prefetch_depth: usize) -> Arc<StorageCtx> {
    let config = PoolConfig {
        frames: 256,
        prefetch_depth,
        ..PoolConfig::default()
    };
    StorageCtx::new_mem_opts(512, config)
}

/// Real-valued entries (sums round, so grouping would show in the bits).
fn mk(ctx: &Arc<StorageCtx>, rows: usize, cols: usize, salt: usize) -> DenseMatrix {
    DenseMatrix::from_fn(
        ctx,
        rows,
        cols,
        MatrixLayout::Square,
        TileOrder::RowMajor,
        None,
        |i, j| ((i * 31 + j * 17 + salt * 7) % 23) as f64 / 7.0 - 1.5,
    )
    .unwrap()
}

fn run(
    kernel: MatMulKernel,
    a: Operand<'_>,
    b: Operand<'_>,
    mem: usize,
    threads: usize,
) -> (DenseMatrix, u64) {
    match kernel {
        MatMulKernel::Naive => matmul_naive(a, b, None),
        MatMulKernel::Bnlj => matmul_bnlj(a, b, mem, threads, None),
        MatMulKernel::SquareTiled => matmul_tiled(a, b, mem, threads, None),
    }
    .unwrap()
}

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.to_rows().unwrap().iter().map(|v| v.to_bits()).collect()
}

/// Run one product cold and audit it: `(bits, flops)` after asserting it
/// created exactly the output object and wrote exactly its blocks.
fn audited(
    c: &Arc<StorageCtx>,
    kernel: MatMulKernel,
    a: Operand<'_>,
    b: Operand<'_>,
    mem: usize,
    threads: usize,
) -> (Vec<u64>, u64) {
    c.pool().flush_all().unwrap();
    c.clear_cache().unwrap();
    let live = c.live_object_ids();
    let before = c.io_snapshot();
    let (t, flops) = run(kernel, a, b, mem, threads);
    c.pool().wait_prefetch_idle();
    c.pool().flush_all().unwrap();
    let io = c.io_snapshot() - before;
    let mut now = c.live_object_ids();
    now.retain(|id| !live.contains(id));
    assert_eq!(now, vec![t.object()], "{kernel:?}: only the output is new");
    assert_eq!(io.writes, t.blocks(), "{kernel:?}: writes == output blocks");
    let out = bits(&t);
    t.free().unwrap();
    (out, flops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_flags_equal_materialized_transposes(
        n1 in 1usize..30,
        n2 in 1usize..30,
        n3 in 1usize..30,
        at in any::<bool>(),
        bt in any::<bool>(),
        panels in 1usize..4,
    ) {
        let mem = 3 * 64 * panels * panels; // p = 8, 16 or 24
        for depth in [0, PREFETCH_AUTO] {
            let c = ctx(depth);
            // Stored so that the *view* is n1 x n2 (resp. n2 x n3).
            let a = if at { mk(&c, n2, n1, 1) } else { mk(&c, n1, n2, 1) };
            let b = if bt { mk(&c, n3, n2, 2) } else { mk(&c, n2, n3, 2) };
            let square = |m: &DenseMatrix| {
                m.transpose(MatrixLayout::Square, TileOrder::RowMajor, None).unwrap()
            };
            let (am, bm) = (square(&a), square(&b));
            let plain_a = if at { &am } else { &a };
            let plain_b = if bt { &bm } else { &b };
            for kernel in KERNELS {
                let (want, _) = audited(&c, kernel, plain_a.into(), plain_b.into(), mem, 1);
                for threads in [1, 4] {
                    let (a, b) = (Operand { mat: &a, trans: at }, Operand { mat: &b, trans: bt });
                    let (got, flops) = audited(&c, kernel, a, b, mem, threads);
                    prop_assert_eq!(flops, (n1 * n2 * n3) as u64);
                    prop_assert!(
                        got == want,
                        "{kernel:?} {n1}x{n2}x{n3} at={at} bt={bt} t{threads} depth {depth}"
                    );
                }
            }
        }
    }

    #[test]
    fn gram_half_schedule_equals_full_schedule_and_is_symmetric(
        rows in 1usize..40,
        cols in 1usize..40,
        tn in any::<bool>(),
        panels in 1usize..4,
    ) {
        let mem = 3 * 64 * panels * panels;
        for depth in [0, PREFETCH_AUTO] {
            let c = ctx(depth);
            let x = mk(&c, rows, cols, 3);
            // Same data under another object id: not a Gram pair to the
            // kernel, so this is the full schedule over equal values.
            let twin = mk(&c, rows, cols, 3);
            let n = if tn { cols } else { rows };
            let l = Operand { mat: &x, trans: tn };
            for kernel in KERNELS {
                let r = Operand { mat: &twin, trans: !tn };
                prop_assert!(!is_gram(l, r));
                let (want, full_flops) = audited(&c, kernel, l, r, mem, 1);
                for threads in [1, 4] {
                    let r = Operand { mat: &x, trans: !tn };
                    prop_assert!(is_gram(l, r));
                    let (got, flops) = audited(&c, kernel, l, r, mem, threads);
                    prop_assert!(got == want, "{kernel:?} gram {rows}x{cols} tn={tn} t{threads}");
                    prop_assert!(flops <= full_flops);
                    for i in 0..n {
                        for j in 0..i {
                            prop_assert_eq!(got[i * n + j], got[j * n + i], "({}, {})", i, j);
                        }
                    }
                }
            }
        }
    }
}

/// One panel holds each operand, so a single in-memory GEMM call sees the
/// whole shape: ragged against every register block in use (4, 8, 16
/// wide), the packed depth (128) and the packed column block (256), down
/// to a matrix-vector product — and equal, bit for bit, to the plain
/// ascending-`k` sum whichever instantiation this machine selected. A row
/// of `inf` in `A` next to the zero-padded pack edge poisons its own
/// output row and nothing else.
#[test]
fn whole_panel_products_are_the_ascending_k_sum() {
    let c = ctx(0);
    let val =
        |i: usize, j: usize, salt: usize| ((i * 31 + j * 17 + salt * 7) % 23) as f64 / 7.0 - 1.5;
    for (n1, n2, n3) in [(5, 9, 1), (3, 130, 17), (9, 130, 261), (2, 257, 300)] {
        let av = |i: usize, k: usize| {
            if i + 1 == n1 {
                f64::INFINITY
            } else {
                val(i, k, 1)
            }
        };
        let (sq, rm) = (MatrixLayout::Square, TileOrder::RowMajor);
        let a = DenseMatrix::from_fn(&c, n1, n2, sq, rm, None, av).unwrap();
        let b = mk(&c, n2, n3, 2);
        let (got, _) = audited(
            &c,
            MatMulKernel::SquareTiled,
            (&a).into(),
            (&b).into(),
            3 * 304 * 304,
            1,
        );
        for i in 0..n1 {
            for j in 0..n3 {
                let want = (0..n2).fold(0.0, |acc, k| acc + av(i, k) * val(k, j, 2));
                let cell = f64::from_bits(got[i * n3 + j]);
                assert_eq!(cell.is_finite(), i + 1 < n1, "{n1}x{n2}x{n3} ({i},{j})");
                if i + 1 < n1 {
                    assert_eq!(cell.to_bits(), want.to_bits(), "{n1}x{n2}x{n3} ({i},{j})");
                }
            }
        }
    }
}

/// The forcing point: `t(x) %*% y`, `x %*% t(y)` and the Gram product each
/// add exactly one catalog object — the result — and say so in the
/// optimizer stats; a `t(x)` forced in its own right still materializes.
#[test]
fn session_products_never_store_a_transpose() {
    for kind in [EngineKind::Riot, EngineKind::MatNamed] {
        let mut cfg = EngineConfig::new(kind);
        cfg.block_size = 512;
        cfg.mem_blocks = 64;
        let s = Session::new(cfg);
        let f = |salt: usize| move |i: usize, j: usize| ((i * 5 + j * 3 + salt) % 11) as f64 / 4.0;
        let x = s
            .matrix_from_fn(21, 13, MatrixLayout::Square, f(0))
            .unwrap();
        let y = s.matrix_from_fn(21, 9, MatrixLayout::Square, f(1)).unwrap();
        let (_, _, xt) = x.t().collect().unwrap(); // forced: one stored t(x)
        let ctx = s.storage_ctx();
        let count = || ctx.live_object_ids().len();

        let base = count();
        let (r, c, tn) = x.t().matmul(&y).collect().unwrap();
        assert_eq!((r, c), (13, 9));
        assert_eq!(count(), base + 1, "{kind:?}: t(x) %*% y");
        assert_eq!(s.last_opt_stats().transposes_fused, 1);
        let (_, _, nt) = y.t().matmul(&x).collect().unwrap();
        assert_eq!(count(), base + 2);
        // (t(x) y) = t(t(y) x), entry for entry.
        for i in 0..13 {
            for j in 0..9 {
                assert_eq!(tn[i * 9 + j].to_bits(), nt[j * 13 + i].to_bits());
            }
        }
        let (_, _, gram) = x.t().matmul(&x).collect().unwrap();
        assert_eq!(count(), base + 3, "{kind:?}: crossprod(x)");
        assert!(s.last_opt_stats().gram_products >= 1);
        // Reference from the collected transpose, ascending k.
        for i in 0..13 {
            for j in 0..13 {
                let mut acc = 0.0;
                for k in 0..21 {
                    acc += xt[i * 21 + k] * xt[j * 21 + k];
                }
                assert_eq!(gram[i * 13 + j].to_bits(), acc.to_bits(), "({i},{j})");
            }
        }
    }
}
