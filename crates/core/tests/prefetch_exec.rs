//! Plan-driven prefetch through the exec kernels: every kernel declares
//! its next window to the pool, and the declaration must change **when**
//! device reads happen, never **how many** — results and counted I/O are
//! bit-for-bit the no-prefetch run's, with the prefetch counters proving
//! the background path actually carried traffic.
//!
//! Pools here are sized to hold each kernel's working window (the regime
//! the parity contract is stated for); `PoolStats::prefetch_wasted == 0`
//! pins that no background read was thrown away.

use std::sync::Arc;
use std::time::Duration;

use riot_array::{DenseMatrix, DenseVector, MatrixLayout, StorageCtx, TileOrder};
use riot_core::exec::{
    chol_tiled, dmspm, matmul_bnlj, matmul_tiled, spmdm, spmm, spmv, sptranspose,
};
use riot_sparse::SparseMatrix;
use riot_storage::testing::FailpointDevice;
use riot_storage::{BufferPool, IoSnapshot, MemBlockDevice, PoolConfig, PoolStats, ReplacerKind};

/// Prefetch-off pools run the bare device; prefetch-on pools inject 1 ms
/// of read latency, which both exercises the overlapped path for real and
/// guarantees the background workers get scheduled while the pin path
/// sleeps (on a single-core test box the workers would otherwise lose
/// every race, making `prefetch_issued` flaky). Latency never changes
/// counted I/O — `overlap_exec.rs` pins that independently.
fn ctx(frames: usize, prefetch_depth: usize) -> Arc<StorageCtx> {
    let inner = Box::new(MemBlockDevice::new(512));
    let device: Box<dyn riot_storage::BlockDevice> = if prefetch_depth > 0 {
        let dev = FailpointDevice::new(inner);
        dev.handle().set_read_latency(Duration::from_millis(1));
        Box::new(dev)
    } else {
        inner
    };
    StorageCtx::from_pool(BufferPool::new(
        device,
        PoolConfig {
            frames,
            replacer: ReplacerKind::Lru,
            prefetch_depth,
            ..PoolConfig::default()
        },
    ))
}

/// Run `work` over a cold cache at the given prefetch depth; returns the
/// result vector, the I/O delta, and the pool counters.
fn measure<R, F>(frames: usize, depth: usize, work: F) -> (R, IoSnapshot, PoolStats)
where
    F: FnOnce(&Arc<StorageCtx>) -> R,
{
    let c = ctx(frames, depth);
    let out = work(&c);
    c.pool().wait_prefetch_idle();
    c.pool().flush_all().unwrap();
    (out, c.io_snapshot(), c.pool_stats_snapshot())
}

/// Helper trait-ish shim: StorageCtx has no pool_stats wrapper; go
/// through the pool directly.
trait PoolStatsSnapshot {
    fn pool_stats_snapshot(&self) -> PoolStats;
}

impl PoolStatsSnapshot for StorageCtx {
    fn pool_stats_snapshot(&self) -> PoolStats {
        self.pool().pool_stats()
    }
}

fn band(rows: usize, cols: usize) -> Vec<(usize, usize, f64)> {
    (0..rows)
        .flat_map(|r| {
            [(r, r % cols), (r, (r + 5) % cols)]
                .into_iter()
                .map(move |(i, j)| (i, j, (i * cols + j) as f64 * 0.125 + 1.0))
        })
        .collect()
}

/// Assert prefetch-on matches prefetch-off bit-for-bit, and that the
/// prefetcher genuinely carried reads (issued > 0, wasted == 0).
fn assert_parity<R: PartialEq + std::fmt::Debug>(
    kernel: &str,
    off: (R, IoSnapshot, PoolStats),
    on: (R, IoSnapshot, PoolStats),
) {
    assert_eq!(off.0, on.0, "{kernel}: results diverged under prefetch");
    assert_eq!(
        (off.1.reads, off.1.writes),
        (on.1.reads, on.1.writes),
        "{kernel}: prefetch changed I/O totals"
    );
    assert_eq!(
        off.2.prefetch_issued, 0,
        "{kernel}: depth-0 pool prefetched"
    );
    assert!(
        on.2.prefetch_issued > 0,
        "{kernel}: the declared windows never reached the workers"
    );
    assert_eq!(
        on.2.prefetch_wasted, 0,
        "{kernel}: a windowed kernel must not waste prefetches"
    );
    assert_eq!(
        on.2.prefetch_issued + on.2.misses,
        off.2.misses,
        "{kernel}: reads must only move off the pin path, never duplicate"
    );
}

#[test]
fn matmul_kernels_prefetch_parity() {
    let n = 32; // 4x4 grid of 8x8 tiles
    let tiled = |c: &Arc<StorageCtx>| {
        let a = DenseMatrix::from_fn(
            c,
            n,
            n,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
            |i, j| (i * 17 + j) as f64 * 0.5,
        )
        .unwrap();
        let b = DenseMatrix::from_fn(
            c,
            n,
            n,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
            |i, j| (i as f64) - 0.25 * (j as f64),
        )
        .unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let (t, flops) = matmul_tiled(&a, &b, 3 * 4 * 64, None).unwrap();
        (t.to_rows().unwrap(), flops)
    };
    assert_parity("matmul_tiled", measure(64, 0, tiled), measure(64, 4, tiled));

    let bnlj = |c: &Arc<StorageCtx>| {
        let a = DenseMatrix::from_fn(
            c,
            n,
            n,
            MatrixLayout::RowMajor,
            TileOrder::RowMajor,
            None,
            |i, j| (i + 2 * j) as f64,
        )
        .unwrap();
        let b = DenseMatrix::from_fn(
            c,
            n,
            n,
            MatrixLayout::ColMajor,
            TileOrder::ColMajor,
            None,
            |i, j| (i * j % 7) as f64,
        )
        .unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let (t, flops) = matmul_bnlj(&a, &b, 8 * 2 * n, None).unwrap();
        (t.to_rows().unwrap(), flops)
    };
    assert_parity("matmul_bnlj", measure(96, 0, bnlj), measure(96, 4, bnlj));

    // The factorization declares per-panel windows through the same
    // `prefetch_rect`: 2x2 panels of 16x16 over a diagonally dominant A.
    let chol = |c: &Arc<StorageCtx>| {
        let a = DenseMatrix::from_fn(
            c,
            n,
            n,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
            |i, j| {
                if i == j {
                    n as f64
                } else {
                    1.0 / (1 + i + j) as f64
                }
            },
        )
        .unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let (l, flops) = chol_tiled(&a, 3 * 16 * 16, None).unwrap();
        (l.to_rows().unwrap(), flops)
    };
    assert_parity("chol_tiled", measure(64, 0, chol), measure(64, 4, chol));
}

#[test]
fn sparse_kernels_prefetch_parity() {
    let (n1, n2, n3) = (40, 32, 24);
    let trips = band(n1, n2);

    let run_spmv = |c: &Arc<StorageCtx>| {
        let a = SparseMatrix::from_triplets(c, n1, n2, MatrixLayout::Square, &trips, None).unwrap();
        let x = DenseVector::from_slice(
            c,
            &(0..n2).map(|i| (i as f64 * 0.3).sin()).collect::<Vec<_>>(),
            None,
        )
        .unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let (y, flops) = spmv(&a, &x, 1, None).unwrap();
        (y.to_vec().unwrap(), flops)
    };
    assert_parity("spmv", measure(64, 0, run_spmv), measure(64, 4, run_spmv));

    let run_spmdm = |c: &Arc<StorageCtx>| {
        let a = SparseMatrix::from_triplets(c, n1, n2, MatrixLayout::Square, &trips, None).unwrap();
        let b = DenseMatrix::from_fn(
            c,
            n2,
            n3,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
            |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0,
        )
        .unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let (t, flops) = spmdm(&a, &b, 1, None).unwrap();
        (t.to_rows().unwrap(), flops)
    };
    assert_parity(
        "spmdm",
        measure(128, 0, run_spmdm),
        measure(128, 4, run_spmdm),
    );

    let run_dmspm = |c: &Arc<StorageCtx>| {
        let a = DenseMatrix::from_fn(
            c,
            n3,
            n1,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
            |i, j| ((i * 5 + j) % 13) as f64 - 6.0,
        )
        .unwrap();
        let b = SparseMatrix::from_triplets(c, n1, n2, MatrixLayout::Square, &trips, None).unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let (t, flops) = dmspm(&a, &b, 1, None).unwrap();
        (t.to_rows().unwrap(), flops)
    };
    assert_parity(
        "dmspm",
        measure(128, 0, run_dmspm),
        measure(128, 4, run_dmspm),
    );
}

#[test]
fn spmm_and_transpose_prefetch_parity() {
    let n = 32;
    let run_spmm = |c: &Arc<StorageCtx>| {
        let a =
            SparseMatrix::from_triplets(c, n, n, MatrixLayout::Square, &band(n, n), None).unwrap();
        let b =
            SparseMatrix::from_triplets(c, n, n, MatrixLayout::Square, &band(n, n), None).unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let (t, flops) = spmm(&a, &b, 1, None).unwrap();
        (t.to_rows().unwrap(), t.nnz(), flops)
    };
    assert_parity("spmm", measure(256, 0, run_spmm), measure(256, 4, run_spmm));

    let run_t = |c: &Arc<StorageCtx>| {
        let a =
            SparseMatrix::from_triplets(c, n, n, MatrixLayout::Square, &band(n, n), None).unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let (t, moved) = sptranspose(&a, None).unwrap();
        (t.to_rows().unwrap(), moved)
    };
    assert_parity("sptranspose", measure(64, 0, run_t), measure(64, 4, run_t));
}

/// The elementwise pipeline's stored `Scan` declares its next chunk: engine
/// collect parity with `EngineConfig::prefetch_depth` on vs off.
#[test]
fn pipeline_collect_prefetch_parity() {
    use riot_core::{EngineConfig, EngineKind, Session};
    let run = |depth: usize| {
        let mut cfg = EngineConfig::new(EngineKind::Riot);
        cfg.block_size = 512;
        cfg.chunk_elems = 64;
        cfg.mem_blocks = 256;
        cfg.prefetch_depth = depth;
        let s = Session::new(cfg);
        let n = 64 * 30;
        let x = s.vector_from_fn(n, |i| (i as f64 * 0.01).sin()).unwrap();
        let y = s.vector_from_fn(n, |i| (i as f64 * 0.02).cos()).unwrap();
        s.drop_caches().unwrap();
        let io0 = s.io_snapshot();
        let d = ((&x - 1.0).square() + (&y - 2.0).square()).sqrt();
        let out = d.collect().unwrap();
        (out, s.io_snapshot() - io0)
    };
    let (off, off_io) = run(0);
    let (on, on_io) = run(4);
    assert_eq!(off, on, "pipeline results diverged under prefetch");
    assert_eq!(
        (off_io.reads, off_io.writes),
        (on_io.reads, on_io.writes),
        "pipeline prefetch changed I/O totals"
    );
}
