//! The exec kernels (dense matmul, sparse SpMV — directory pages
//! included) must observe **identical results and identical counted I/O**
//! through the PR-3 overlapped miss path as through a plain device: the
//! state machine in `riot-storage::pool` changes when the shard lock is
//! held around device transfers, never how many transfers happen.
//!
//! Proven by running each kernel twice — once over a bare `MemBlockDevice`
//! and once over the same device wrapped in a latency-injecting
//! `FailpointDevice` (which widens every in-flight window by a few
//! milliseconds, exercising the LoadInFlight/Evicting states on every
//! miss) — and comparing results and `IoStats` exactly.

use std::sync::Arc;
use std::time::Duration;

use riot_array::{DenseMatrix, MatrixLayout, StorageCtx, TileOrder};
use riot_core::exec::{matmul_tiled, spmdm, Side};
use riot_sparse::SparseMatrix;
use riot_storage::testing::FailpointDevice;
use riot_storage::{BufferPool, MemBlockDevice, PoolConfig};

/// A context over a plain mem device, or the same device behind latency
/// failpoints (1 ms per transfer — enough to keep I/O genuinely in flight
/// without slowing the suite).
fn ctx(frames: usize, with_latency: bool) -> Arc<StorageCtx> {
    let inner = Box::new(MemBlockDevice::new(512));
    let device: Box<dyn riot_storage::BlockDevice> = if with_latency {
        let dev = FailpointDevice::new(inner);
        let fp = dev.handle();
        fp.set_read_latency(Duration::from_millis(1));
        fp.set_write_latency(Duration::from_millis(1));
        Box::new(dev)
    } else {
        inner
    };
    StorageCtx::from_pool(BufferPool::new(
        device,
        PoolConfig {
            frames,
            ..PoolConfig::default()
        },
    ))
}

#[test]
fn matmul_counted_io_identical_through_overlapped_path() {
    let n = 24; // 3x3 grid of 8x8 tiles at 512-byte blocks
    let run = |with_latency: bool| {
        let ctx = ctx(6, with_latency); // 6 frames: genuinely out of core
        let a = DenseMatrix::from_fn(
            &ctx,
            n,
            n,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
            |i, j| (i * 31 + j) as f64 * 0.25,
        )
        .unwrap();
        let b = DenseMatrix::from_fn(
            &ctx,
            n,
            n,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
            |i, j| (i as f64) - 0.5 * (j as f64),
        )
        .unwrap();
        ctx.pool().flush_all().unwrap();
        ctx.clear_cache().unwrap();
        let before = ctx.io_snapshot();
        let (t, flops) = matmul_tiled(&a, &b, 3 * 64, 1, None).unwrap();
        let io = ctx.io_snapshot() - before;
        let result = t.to_rows().unwrap();
        (result, flops, io.reads, io.writes)
    };

    let (res_plain, flops_plain, r_plain, w_plain) = run(false);
    let (res_slow, flops_slow, r_slow, w_slow) = run(true);
    assert_eq!(res_plain, res_slow, "results diverged under latency");
    assert_eq!(flops_plain, flops_slow);
    assert_eq!(r_plain, r_slow, "matmul read counts diverged");
    assert_eq!(w_plain, w_slow, "matmul write counts diverged");
    assert!(r_plain > 0 && w_plain > 0, "workload must be out of core");
}

#[test]
fn spmv_counted_io_identical_through_overlapped_path() {
    // Sparse directory pages pin through the same overlapped path as data
    // pages; the counted-I/O contract (reads == occupied pages + x blocks)
    // must hold unchanged with every miss held in flight by latency.
    let (rows, cols) = (64, 64);
    let trips: Vec<(usize, usize, f64)> = (0..rows)
        .step_by(3)
        .flat_map(|i| [(i, (i * 7) % cols, 1.5 + i as f64), (i, i, -2.0)])
        .collect();
    let xdata: Vec<f64> = (0..cols).map(|i| (i as f64 * 0.37).sin()).collect();

    let run = |with_latency: bool| {
        let ctx = ctx(8, with_latency);
        let a = SparseMatrix::from_triplets(&ctx, rows, cols, MatrixLayout::Square, &trips, None)
            .unwrap();
        let (layout, order) = (MatrixLayout::ColMajor, TileOrder::RowMajor);
        let x = DenseMatrix::from_rows(&ctx, cols, 1, &xdata, layout, order, None).unwrap();
        ctx.pool().flush_all().unwrap();
        ctx.clear_cache().unwrap();
        let before = ctx.io_snapshot();
        let (y, _) = spmdm(&a, &x, Side::Left, 1, None).unwrap();
        let io = ctx.io_snapshot() - before;
        (
            y.to_rows().unwrap(),
            a.occupied_pages(),
            io.reads,
            io.writes,
        )
    };

    let (y_plain, pages_plain, r_plain, w_plain) = run(false);
    let (y_slow, pages_slow, r_slow, w_slow) = run(true);
    assert_eq!(y_plain, y_slow, "SpMV results diverged under latency");
    assert_eq!(pages_plain, pages_slow);
    assert_eq!(r_plain, r_slow, "SpMV read counts diverged");
    assert_eq!(w_plain, w_slow, "SpMV write counts diverged");
    assert!(r_plain > 0, "workload must be out of core");
}
