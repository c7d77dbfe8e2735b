//! Parallel sparse kernels: bit-identical outputs and identical
//! counted I/O versus the sequential schedules at threads {1, 2, 4} —
//! the same discipline PR 1 pinned for the parallel dense matmul.
//!
//! Pools are sized to hold each kernel's operands (the
//! in-memory regime, where parallel totals must equal sequential totals
//! exactly); `threads = 1` runs the work items inline in order, which is
//! asserted to be bit-for-bit the classic sequential kernel.

use std::sync::Arc;

use riot_array::{DenseMatrix, MatrixLayout, StorageCtx, TileOrder};
use riot_core::exec::{spmdm, spmm, spmm_fill, spmm_plan, Side};
use riot_core::{EngineConfig, EngineKind, Session};
use riot_sparse::SparseMatrix;
use riot_storage::IoSnapshot;

fn ctx(frames: usize) -> Arc<StorageCtx> {
    StorageCtx::new_mem(512, frames)
}

fn band(rows: usize, cols: usize, stride: usize) -> Vec<(usize, usize, f64)> {
    (0..rows)
        .flat_map(move |r| {
            [(r, r % cols), (r, (r + stride) % cols)]
                .into_iter()
                .map(move |(i, j)| (i, j, ((i * 13 + j * 7) % 29) as f64 * 0.375 - 3.0))
        })
        .collect()
}

#[test]
fn spmv_parallel_matches_sequential_exactly() {
    let (rows, cols) = (136, 120); // ragged vs 8x8 tiles and 64-elem blocks
    let trips = band(rows, cols, 9);
    let xdata: Vec<f64> = (0..cols).map(|i| (i as f64 * 0.21).sin() * 4.0).collect();
    let run = |threads: usize| -> (Vec<f64>, u64, IoSnapshot) {
        let c = ctx(256);
        let a = SparseMatrix::from_triplets(&c, rows, cols, MatrixLayout::Square, &trips, None)
            .unwrap();
        let (layout, order) = (MatrixLayout::ColMajor, TileOrder::RowMajor);
        let x = DenseMatrix::from_rows(&c, cols, 1, &xdata, layout, order, None).unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let (y, flops) = spmdm(&a, &x, Side::Left, threads, None).unwrap();
        c.pool().flush_all().unwrap();
        (y.to_rows().unwrap(), flops, c.io_snapshot() - before)
    };
    let (seq, seq_flops, seq_io) = run(1);
    for threads in [2, 4] {
        let (par, par_flops, par_io) = run(threads);
        assert_eq!(par, seq, "{threads}-thread spmv result diverged");
        assert_eq!(par_flops, seq_flops);
        assert_eq!(
            (par_io.reads, par_io.writes),
            (seq_io.reads, seq_io.writes),
            "{threads}-thread spmv I/O diverged"
        );
    }
}

#[test]
fn spmdm_parallel_matches_sequential_exactly() {
    let (n1, n2, n3) = (72, 64, 40);
    let trips = band(n1, n2, 11);
    let run = |threads: usize| -> (Vec<f64>, u64, IoSnapshot) {
        let c = ctx(512);
        let a =
            SparseMatrix::from_triplets(&c, n1, n2, MatrixLayout::Square, &trips, None).unwrap();
        let b = DenseMatrix::from_fn(
            &c,
            n2,
            n3,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
            |i, j| ((i * 3 + j * 5) % 17) as f64 - 8.0,
        )
        .unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let (t, flops) = spmdm(&a, &b, Side::Left, threads, None).unwrap();
        c.pool().flush_all().unwrap();
        (t.to_rows().unwrap(), flops, c.io_snapshot() - before)
    };
    let (seq, seq_flops, seq_io) = run(1);
    for threads in [2, 4] {
        let (par, par_flops, par_io) = run(threads);
        assert_eq!(par, seq, "{threads}-thread spmdm result diverged");
        assert_eq!(par_flops, seq_flops);
        assert_eq!(
            (par_io.reads, par_io.writes),
            (seq_io.reads, seq_io.writes),
            "{threads}-thread spmdm I/O diverged"
        );
    }
}

#[test]
fn dmspm_parallel_matches_sequential_exactly() {
    let (n1, n2, n3) = (40, 64, 72);
    let trips = band(n2, n3, 13);
    let run = |threads: usize| -> (Vec<f64>, u64, IoSnapshot) {
        let c = ctx(512);
        let a = DenseMatrix::from_fn(
            &c,
            n1,
            n2,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
            |i, j| ((i * 11 + j * 3) % 19) as f64 - 9.0,
        )
        .unwrap();
        let b =
            SparseMatrix::from_triplets(&c, n2, n3, MatrixLayout::Square, &trips, None).unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let (t, flops) = spmdm(&b, &a, Side::Right, threads, None).unwrap();
        c.pool().flush_all().unwrap();
        (t.to_rows().unwrap(), flops, c.io_snapshot() - before)
    };
    let (seq, seq_flops, seq_io) = run(1);
    for threads in [2, 4] {
        let (par, par_flops, par_io) = run(threads);
        assert_eq!(par, seq, "{threads}-thread dmspm result diverged");
        assert_eq!(par_flops, seq_flops);
        assert_eq!(
            (par_io.reads, par_io.writes),
            (seq_io.reads, seq_io.writes),
            "{threads}-thread dmspm I/O diverged"
        );
    }
}

/// SpMM pass one fans output tiles over workers but the spill stream is
/// appended in row-major tile order, so the plan — tile nnz counts, spill
/// block count, flops — and the filled product are bit-identical at every
/// thread count.
#[test]
fn spmm_parallel_plan_and_product_match_sequential_exactly() {
    let (n1, n2, n3) = (48, 40, 48);
    let run = |threads: usize| -> (Vec<f64>, u64, u64, u64, IoSnapshot) {
        let c = ctx(512);
        let a =
            SparseMatrix::from_triplets(&c, n1, n2, MatrixLayout::Square, &band(n1, n2, 7), None)
                .unwrap();
        let b =
            SparseMatrix::from_triplets(&c, n2, n3, MatrixLayout::Square, &band(n2, n3, 5), None)
                .unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let plan = spmm_plan(&a, &b, threads).unwrap();
        let (out_nnz, spill_blocks) = (plan.out_nnz(), plan.spill_blocks());
        let (t, flops) = spmm_fill(plan, None).unwrap();
        c.pool().flush_all().unwrap();
        (
            t.to_rows().unwrap(),
            out_nnz,
            spill_blocks,
            flops,
            c.io_snapshot() - before,
        )
    };
    let (seq, seq_nnz, seq_spill, seq_flops, seq_io) = run(1);
    assert!(seq_nnz > 0 && seq_spill > 0);
    for threads in [2, 4] {
        let (par, par_nnz, par_spill, par_flops, par_io) = run(threads);
        assert_eq!(par, seq, "{threads}-thread spmm product diverged");
        assert_eq!(par_nnz, seq_nnz);
        assert_eq!(
            par_spill, seq_spill,
            "{threads}-thread spill stream diverged"
        );
        assert_eq!(par_flops, seq_flops);
        assert_eq!(
            (par_io.reads, par_io.writes),
            (seq_io.reads, seq_io.writes),
            "{threads}-thread spmm I/O diverged"
        );
    }
}

/// A device error inside a worker surfaces from `spmm_plan`
/// without leaking the spill object or hanging the coordinator.
#[test]
fn parallel_spmm_plan_contains_worker_errors() {
    use riot_storage::testing::FailpointDevice;
    use riot_storage::{BufferPool, MemBlockDevice, PoolConfig};

    let device = FailpointDevice::new(Box::new(MemBlockDevice::new(512)));
    let handle = device.handle();
    let c = StorageCtx::from_pool(BufferPool::new(
        Box::new(device),
        PoolConfig {
            frames: 512,
            ..PoolConfig::default()
        },
    ));
    let a = SparseMatrix::from_triplets(&c, 32, 32, MatrixLayout::Square, &band(32, 32, 3), None)
        .unwrap();
    c.pool().flush_all().unwrap();
    c.clear_cache().unwrap();
    // Make the first occupied page unreadable: some worker dies mid-grid.
    handle.fail_reads(riot_storage::BlockId(a.dir_blocks()), 1);
    let live_before = c.live_objects();
    let blocks_before = c.total_blocks();
    assert!(
        spmm_plan(&a, &a, 4).is_err(),
        "injected read error surfaces from the worker pool"
    );
    assert_eq!(c.live_objects(), live_before, "spill not leaked");
    assert_eq!(c.total_blocks(), blocks_before);
    // With the failpoint consumed, the same parallel plan succeeds.
    let plan = spmm_plan(&a, &a, 4).unwrap();
    assert!(plan.out_nnz() > 0);
}

/// Kernel-level errors still surface cleanly from worker threads.
#[test]
fn parallel_spmm_convenience_matches_dense_reference() {
    let (n1, n2, n3) = (32, 32, 32);
    let c = ctx(512);
    let a = SparseMatrix::from_triplets(&c, n1, n2, MatrixLayout::Square, &band(n1, n2, 3), None)
        .unwrap();
    let b = SparseMatrix::from_triplets(&c, n2, n3, MatrixLayout::Square, &band(n2, n3, 4), None)
        .unwrap();
    let (t, _) = spmm(&a, &b, 4, None).unwrap();
    let ad = a.to_rows().unwrap();
    let bd = b.to_rows().unwrap();
    let mut want = vec![0.0; n1 * n3];
    for i in 0..n1 {
        for k in 0..n2 {
            for j in 0..n3 {
                want[i * n3 + j] += ad[i * n2 + k] * bd[k * n3 + j];
            }
        }
    }
    let got = t.to_rows().unwrap();
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() < 1e-9, "got {g}, want {w}");
    }
}

/// Engine-level wiring: a sparse x dense product through the Riot engine
/// produces identical results (and identical counted I/O in the
/// in-memory regime) at threads {1, 2, 4}.
#[test]
fn engine_sparse_matmul_parity_across_thread_counts() {
    let run = |threads: usize| {
        let mut cfg = EngineConfig::new(EngineKind::Riot);
        cfg.block_size = 512;
        cfg.mem_blocks = 512;
        cfg.threads = threads;
        let s = Session::new(cfg);
        let n = 48;
        let trips = band(n, n, 7);
        let a = s.sparse_matrix(n, n, &trips).unwrap();
        let b = s
            .matrix_from_fn(n, n, MatrixLayout::Square, |i, j| {
                ((i * 5 + j * 3) % 13) as f64 - 6.0
            })
            .unwrap();
        s.drop_caches().unwrap();
        let io0 = s.io_snapshot();
        let (r, c, data) = a.matmul(&b).collect().unwrap();
        assert_eq!((r, c), (n, n));
        (data, s.io_snapshot() - io0)
    };
    let (seq, seq_io) = run(1);
    for threads in [2, 4] {
        let (par, par_io) = run(threads);
        assert_eq!(par, seq, "{threads}-thread engine product diverged");
        assert_eq!(
            (par_io.reads, par_io.writes),
            (seq_io.reads, seq_io.writes),
            "{threads}-thread engine I/O diverged"
        );
    }
}
