//! Proof that the stack genuinely runs out of core: the same array and
//! pipeline code paths over a real file on disk instead of the simulated
//! device, byte-identical results included.

use riot::array::{DenseMatrix, DenseVector, MatrixLayout, StorageCtx, TileOrder};
use riot::core::exec::matmul_tiled;
use riot::storage::{BufferPool, FileBlockDevice, PoolConfig};

fn file_ctx(frames: usize) -> std::sync::Arc<StorageCtx> {
    let device = FileBlockDevice::temp(512).expect("temp device");
    StorageCtx::from_pool(BufferPool::new(
        Box::new(device),
        PoolConfig {
            frames,
            ..PoolConfig::default()
        },
    ))
}

#[test]
fn vectors_round_trip_through_a_real_file() {
    let ctx = file_ctx(4); // 4 frames over a 200-block file: truly out of core
    let data: Vec<f64> = (0..12_800).map(|i| (i as f64).sin()).collect();
    let v = DenseVector::from_slice(&ctx, &data, Some("on-disk")).unwrap();
    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    assert_eq!(v.to_vec().unwrap(), data);
    // Random access after cache drop hits the file.
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    assert_eq!(v.get(12_799).unwrap(), (12_799f64).sin());
    assert!(ctx.io_snapshot().reads > before.reads);
}

#[test]
fn matmul_runs_against_a_real_file() {
    let ctx = file_ctx(6);
    let n = 24; // 3x3 grid of 8x8 tiles at 512-byte blocks
    let a = DenseMatrix::from_fn(
        &ctx,
        n,
        n,
        MatrixLayout::Square,
        TileOrder::RowMajor,
        None,
        |i, j| (i + 2 * j) as f64,
    )
    .unwrap();
    let b = DenseMatrix::from_fn(
        &ctx,
        n,
        n,
        MatrixLayout::Square,
        TileOrder::RowMajor,
        None,
        |i, j| f64::from(i == j) * 2.0,
    )
    .unwrap();
    let (t, _) = matmul_tiled(&a, &b, 3 * 64, 1, None).unwrap();
    // B = 2I, so T must equal 2A — read back through the file.
    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let got = t.to_rows().unwrap();
    let want: Vec<f64> = (0..n * n)
        .map(|k| 2.0 * ((k / n) + 2 * (k % n)) as f64)
        .collect();
    assert_eq!(got, want);
}

#[test]
fn file_and_mem_devices_count_identical_io() {
    // The simulator's counts are trustworthy because the same workload
    // over a real file produces the same block traffic.
    let run = |ctx: std::sync::Arc<StorageCtx>| -> (u64, u64) {
        let data: Vec<f64> = (0..4096).map(|i| i as f64).collect();
        let v = DenseVector::from_slice(&ctx, &data, None).unwrap();
        ctx.pool().flush_all().unwrap();
        ctx.clear_cache().unwrap();
        let before = ctx.io_snapshot();
        let _ = v.to_vec().unwrap();
        let io = ctx.io_snapshot() - before;
        (io.reads, io.writes)
    };
    let mem = run(StorageCtx::new_mem(512, 4));
    let file = run(file_ctx(4));
    assert_eq!(mem, file, "mem {mem:?} vs file {file:?}");
}
