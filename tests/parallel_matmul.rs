//! End-to-end checks of the parallel tiled kernel through the public
//! `riot` facade: identical results and identical counted I/O at any
//! thread count, on both the square-tiled and BNLJ schedules.

use riot::array::{DenseMatrix, MatrixLayout, StorageCtx, TileOrder};
use riot::core::exec::{matmul_bnlj, matmul_tiled};

const N: usize = 160; // 20x20 tiles of 8x8 at 512-byte blocks

fn operands(ctx: &std::sync::Arc<StorageCtx>, layout: MatrixLayout) -> (DenseMatrix, DenseMatrix) {
    let order = match layout {
        MatrixLayout::ColMajor => TileOrder::ColMajor,
        _ => TileOrder::RowMajor,
    };
    let a = DenseMatrix::from_fn(ctx, N, N, layout, order, None, |i, j| {
        ((i * 31 + j * 17) % 19) as f64 - 9.0
    })
    .unwrap();
    let b = DenseMatrix::from_fn(ctx, N, N, layout, order, None, |i, j| {
        ((i * 7 + j * 13) % 17) as f64 - 8.0
    })
    .unwrap();
    (a, b)
}

/// Context big enough to hold both operands plus the product, so totals
/// are cache-shape-independent (the in-memory regime).
fn in_memory_ctx() -> std::sync::Arc<StorageCtx> {
    StorageCtx::new_mem(512, 3 * (N / 8) * (N / 8) + 32)
}

#[test]
fn parallel_tiled_matches_sequential_exactly() {
    let run = |threads: usize| {
        let ctx = in_memory_ctx();
        let (a, b) = operands(&ctx, MatrixLayout::Square);
        ctx.pool().flush_all().unwrap();
        ctx.clear_cache().unwrap();
        let before = ctx.io_snapshot();
        let (t, flops) = matmul_tiled(&a, &b, 3 * 4 * 64, threads, None).unwrap();
        ctx.pool().flush_all().unwrap();
        let delta = ctx.io_snapshot() - before;
        (t.to_rows().unwrap(), flops, delta.reads, delta.writes)
    };

    let (want, flops, reads, writes) = run(1);
    assert_eq!(flops, (N * N * N) as u64);
    for threads in [2, 4, 8] {
        let (got, par_flops, par_reads, par_writes) = run(threads);
        assert_eq!(got, want, "{threads}-thread tiled result diverged");
        assert_eq!(par_flops, flops);
        assert_eq!(
            (par_reads, par_writes),
            (reads, writes),
            "{threads}-thread tiled I/O diverged"
        );
    }
}

#[test]
fn parallel_bnlj_matches_sequential_exactly() {
    let run = |threads: usize| {
        let ctx = in_memory_ctx();
        let (a, b) = operands(&ctx, MatrixLayout::RowMajor);
        ctx.pool().flush_all().unwrap();
        ctx.clear_cache().unwrap();
        let before = ctx.io_snapshot();
        let (t, _) = matmul_bnlj(&a, &b, 16 * 2 * N * 4, threads, None).unwrap();
        ctx.pool().flush_all().unwrap();
        let delta = ctx.io_snapshot() - before;
        (t.to_rows().unwrap(), delta.reads, delta.writes)
    };

    let (want, reads, writes) = run(1);
    for threads in [3, 6] {
        let (got, par_reads, par_writes) = run(threads);
        assert_eq!(got, want, "{threads}-thread bnlj result diverged");
        assert_eq!(
            (par_reads, par_writes),
            (reads, writes),
            "{threads}-thread bnlj I/O diverged"
        );
    }
}
