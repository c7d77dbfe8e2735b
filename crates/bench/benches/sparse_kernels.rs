//! The full sparse kernel family across densities {0.001, 0.01, 0.1} —
//! SpMV, two-pass SpMM (spilled plan), native transpose, and dense x
//! sparse — plus the tiled-matmul scaling point, the 1/2/4-thread
//! **parallel sparse kernel** rows, and the **prefetch on/off**
//! comparison over a latency-injected device; results land in
//! `BENCH_pr5.json` at the repository root (superseding `BENCH_pr4.json`).
//!
//! The headline figures: the I/O ratio (every sparse kernel touches only
//! occupied pages, so its block reads track `1 - (1-d)^B` of the dense
//! footprint), exact I/O parity across thread counts and prefetch modes,
//! and the prefetch wall-clock win (latency sleeps overlap even on a
//! 1-core box; CPU-bound thread scaling needs real cores).
//!
//! Pass `--test-mode` for a seconds-scale smoke run (CI's bench leg):
//! shrunken shapes, single density, same code paths and assertions.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use riot_array::{DenseMatrix, DenseVector, MatrixLayout, StorageCtx, TileOrder};
use riot_core::exec::{
    dmspm, dmspm_parallel, dmv, matmul_tiled, matmul_tiled_parallel, spmdm_parallel, spmm,
    spmm_parallel, spmv, spmv_parallel, sptranspose,
};
use riot_sparse::SparseMatrix;
use riot_storage::testing::FailpointDevice;
use riot_storage::{BufferPool, PoolConfig, ReplacerKind};

fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test-mode")
}

fn random_triplets(n: usize, density: f64, seed: u64) -> Vec<(usize, usize, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let target = ((n * n) as f64 * density).round() as usize;
    (0..target)
        .map(|_| {
            (
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(-2.0..2.0),
            )
        })
        .collect()
}

struct SpmvRow {
    density: f64,
    occupied: u64,
    dense_blocks: u64,
    sparse_reads: u64,
    dense_reads: u64,
    sparse_secs: f64,
    dense_secs: f64,
}

fn bench_spmv(n: usize, density: f64) -> SpmvRow {
    let ctx = StorageCtx::new_mem(8192, 8192);
    let trips = random_triplets(n, density, 0x5eed + (density * 1e6) as u64);
    let a = SparseMatrix::from_triplets(&ctx, n, n, MatrixLayout::Square, &trips, None).unwrap();
    let dense = a.to_dense(TileOrder::RowMajor, None).unwrap();
    let x = DenseVector::from_slice(&ctx, &vec![1.0; n], None).unwrap();

    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    let t0 = Instant::now();
    let (ys, _) = spmv(&a, &x, None).unwrap();
    let sparse_secs = t0.elapsed().as_secs_f64();
    let sparse_reads = (ctx.io_snapshot() - before).reads;

    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    let t0 = Instant::now();
    let (yd, _) = dmv(&dense, &x, None).unwrap();
    let dense_secs = t0.elapsed().as_secs_f64();
    let dense_reads = (ctx.io_snapshot() - before).reads;

    // Sanity: same product (up to summation-order rounding).
    let (s, d) = (ys.to_vec().unwrap(), yd.to_vec().unwrap());
    assert!(s.iter().zip(&d).all(|(a, b)| (a - b).abs() < 1e-6));

    SpmvRow {
        density,
        occupied: a.occupied_pages(),
        dense_blocks: a.dense_blocks(),
        sparse_reads,
        dense_reads,
        sparse_secs,
        dense_secs,
    }
}

struct SpmmRow {
    density: f64,
    out_nnz: u64,
    out_pages: u64,
    secs: f64,
    reads: u64,
    writes: u64,
}

fn bench_spmm(n: usize, density: f64) -> SpmmRow {
    let ctx = StorageCtx::new_mem(8192, 8192);
    let a = SparseMatrix::from_triplets(
        &ctx,
        n,
        n,
        MatrixLayout::Square,
        &random_triplets(n, density, 11),
        None,
    )
    .unwrap();
    let b = SparseMatrix::from_triplets(
        &ctx,
        n,
        n,
        MatrixLayout::Square,
        &random_triplets(n, density, 13),
        None,
    )
    .unwrap();
    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    let t0 = Instant::now();
    let (t, _) = spmm(&a, &b, None).unwrap();
    let secs = t0.elapsed().as_secs_f64();
    ctx.pool().flush_all().unwrap();
    let delta = ctx.io_snapshot() - before;
    SpmmRow {
        density,
        out_nnz: t.nnz(),
        out_pages: t.occupied_pages(),
        secs,
        reads: delta.reads,
        writes: delta.writes,
    }
}

struct TransposeRow {
    density: f64,
    occupied: u64,
    dense_blocks: u64,
    sparse_reads: u64,
    sparse_writes: u64,
    dense_io: u64,
    sparse_secs: f64,
}

fn bench_transpose(n: usize, density: f64) -> TransposeRow {
    let ctx = StorageCtx::new_mem(8192, 8192);
    let trips = random_triplets(n, density, 0xace + (density * 1e6) as u64);
    let a = SparseMatrix::from_triplets(&ctx, n, n, MatrixLayout::Square, &trips, None).unwrap();

    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    let t0 = Instant::now();
    let (t, _) = sptranspose(&a, None).unwrap();
    let sparse_secs = t0.elapsed().as_secs_f64();
    ctx.pool().flush_all().unwrap();
    let delta = ctx.io_snapshot() - before;

    // Sanity: transpose preserved every non-zero.
    assert_eq!(t.nnz(), a.nnz());
    assert_eq!(t.shape(), (a.cols(), a.rows()));

    // Reference cost a densifying transpose would pay: read + write the
    // dense footprint both ways (decompress, transpose, recompress).
    let dense_io = 4 * a.dense_blocks();
    TransposeRow {
        density,
        occupied: a.occupied_pages(),
        dense_blocks: a.dense_blocks(),
        sparse_reads: delta.reads,
        sparse_writes: delta.writes,
        dense_io,
        sparse_secs,
    }
}

struct DmspmRow {
    density: f64,
    /// Total blocks (reads + flushed writes) the native kernel touched.
    sparse_io: u64,
    /// Total blocks of the densify-then-dense-multiply path, including
    /// the densification pass itself.
    dense_io: u64,
    sparse_secs: f64,
    dense_secs: f64,
}

/// Dense x sparse: the native `dmspm` kernel vs the old fallback
/// (densify the rhs, then run the dense kernel) — cold cache. The
/// fallback's measured window **includes the densification pass**, since
/// that is I/O the old path really paid and `dmspm` does not.
fn bench_dmspm(n: usize, density: f64) -> DmspmRow {
    let ctx = StorageCtx::new_mem(8192, 8192);
    let trips = random_triplets(n, density, 0xd5 + (density * 1e6) as u64);
    let b = SparseMatrix::from_triplets(&ctx, n, n, MatrixLayout::Square, &trips, None).unwrap();
    let a = DenseMatrix::from_fn(
        &ctx,
        n,
        n,
        MatrixLayout::Square,
        TileOrder::RowMajor,
        None,
        |i, j| ((i * 13 + j * 7) % 23) as f64 - 11.0,
    )
    .unwrap();

    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    let t0 = Instant::now();
    let (ts, _) = dmspm(&a, &b, None).unwrap();
    let sparse_secs = t0.elapsed().as_secs_f64();
    ctx.pool().flush_all().unwrap();
    let sparse_io = (ctx.io_snapshot() - before).total_blocks();

    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    let t0 = Instant::now();
    let bd = b.to_dense(TileOrder::RowMajor, None).unwrap();
    let (td, _) = riot_core::exec::multiply(
        riot_core::exec::MatMulKernel::SquareTiled,
        &a,
        &bd,
        1024 * 1024,
        None,
    )
    .unwrap();
    let dense_secs = t0.elapsed().as_secs_f64();
    ctx.pool().flush_all().unwrap();
    let dense_io = (ctx.io_snapshot() - before).total_blocks();

    // Sanity: same product (up to summation-order rounding).
    let (s, d) = (ts.to_rows().unwrap(), td.to_rows().unwrap());
    assert!(s.iter().zip(&d).all(|(a, b)| (a - b).abs() < 1e-6));

    DmspmRow {
        density,
        sparse_io,
        dense_io,
        sparse_secs,
        dense_secs,
    }
}

/// One tiled matmul at `threads` workers; `(secs, reads, writes)`.
fn timed_tiled(n: usize, threads: usize) -> (f64, u64, u64) {
    let blocks_per_matrix = (n * n).div_ceil(1024);
    let ctx = StorageCtx::new_mem_sharded(8192, 3 * blocks_per_matrix + 64, 16);
    let mk = |seed: usize| {
        DenseMatrix::from_fn(
            &ctx,
            n,
            n,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
            move |i, j| ((i * 31 + j * 17 + seed) % 97) as f64 - 48.0,
        )
        .unwrap()
    };
    let a = mk(0);
    let b = mk(7);
    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    let t0 = Instant::now();
    let (_, _) = matmul_tiled_parallel(&a, &b, 3 * 128 * 128, threads, None).unwrap();
    let secs = t0.elapsed().as_secs_f64();
    ctx.pool().flush_all().unwrap();
    let delta = ctx.io_snapshot() - before;
    (secs, delta.reads, delta.writes)
}

struct SparseThreadRow {
    kernel: &'static str,
    threads: usize,
    secs: f64,
}

/// The parallel sparse kernel family at 1/2/4 threads over a striped
/// in-memory pool: asserts bit-identical results and identical counted
/// I/O at every thread count, records wall seconds (meaningful speedups
/// need real cores; the parity assertions hold everywhere).
fn bench_sparse_threads(n: usize) -> Vec<SparseThreadRow> {
    let trips_a = random_triplets(n, 0.05, 21);
    let trips_b = random_triplets(n, 0.05, 22);
    type Runner<'a> = Box<dyn Fn(usize) -> (Vec<f64>, u64, u64, f64) + 'a>;
    let mk_ctx = || StorageCtx::new_mem_sharded(8192, 8192, 16);
    let runners: Vec<(&'static str, Runner)> = vec![
        (
            "spmv",
            Box::new(|threads| {
                let ctx = mk_ctx();
                let a =
                    SparseMatrix::from_triplets(&ctx, n, n, MatrixLayout::Square, &trips_a, None)
                        .unwrap();
                let x = DenseVector::from_slice(&ctx, &vec![1.0; n], None).unwrap();
                ctx.pool().flush_all().unwrap();
                ctx.clear_cache().unwrap();
                let before = ctx.io_snapshot();
                let t0 = Instant::now();
                let (y, _) = spmv_parallel(&a, &x, threads, None).unwrap();
                let secs = t0.elapsed().as_secs_f64();
                ctx.pool().flush_all().unwrap();
                let d = ctx.io_snapshot() - before;
                (y.to_vec().unwrap(), d.reads, d.writes, secs)
            }),
        ),
        (
            "spmdm",
            Box::new(|threads| {
                let ctx = mk_ctx();
                let a =
                    SparseMatrix::from_triplets(&ctx, n, n, MatrixLayout::Square, &trips_a, None)
                        .unwrap();
                let b = DenseMatrix::from_fn(
                    &ctx,
                    n,
                    n,
                    MatrixLayout::Square,
                    TileOrder::RowMajor,
                    None,
                    |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0,
                )
                .unwrap();
                ctx.pool().flush_all().unwrap();
                ctx.clear_cache().unwrap();
                let before = ctx.io_snapshot();
                let t0 = Instant::now();
                let (t, _) = spmdm_parallel(&a, &b, threads, None).unwrap();
                let secs = t0.elapsed().as_secs_f64();
                ctx.pool().flush_all().unwrap();
                let d = ctx.io_snapshot() - before;
                (t.to_rows().unwrap(), d.reads, d.writes, secs)
            }),
        ),
        (
            "dmspm",
            Box::new(|threads| {
                let ctx = mk_ctx();
                let a = DenseMatrix::from_fn(
                    &ctx,
                    n,
                    n,
                    MatrixLayout::Square,
                    TileOrder::RowMajor,
                    None,
                    |i, j| ((i * 13 + j * 7) % 23) as f64 - 11.0,
                )
                .unwrap();
                let b =
                    SparseMatrix::from_triplets(&ctx, n, n, MatrixLayout::Square, &trips_b, None)
                        .unwrap();
                ctx.pool().flush_all().unwrap();
                ctx.clear_cache().unwrap();
                let before = ctx.io_snapshot();
                let t0 = Instant::now();
                let (t, _) = dmspm_parallel(&a, &b, threads, None).unwrap();
                let secs = t0.elapsed().as_secs_f64();
                ctx.pool().flush_all().unwrap();
                let d = ctx.io_snapshot() - before;
                (t.to_rows().unwrap(), d.reads, d.writes, secs)
            }),
        ),
        (
            "spmm",
            Box::new(|threads| {
                let ctx = mk_ctx();
                let a =
                    SparseMatrix::from_triplets(&ctx, n, n, MatrixLayout::Square, &trips_a, None)
                        .unwrap();
                let b =
                    SparseMatrix::from_triplets(&ctx, n, n, MatrixLayout::Square, &trips_b, None)
                        .unwrap();
                ctx.pool().flush_all().unwrap();
                ctx.clear_cache().unwrap();
                let before = ctx.io_snapshot();
                let t0 = Instant::now();
                let (t, _) = spmm_parallel(&a, &b, threads, None).unwrap();
                let secs = t0.elapsed().as_secs_f64();
                ctx.pool().flush_all().unwrap();
                let d = ctx.io_snapshot() - before;
                (t.to_rows().unwrap(), d.reads, d.writes, secs)
            }),
        ),
    ];
    let mut rows = Vec::new();
    for (name, run) in runners {
        let (seq, r0, w0, s1) = run(1);
        println!("  {name}: 1 thread {s1:.4}s ({r0} reads / {w0} writes)");
        rows.push(SparseThreadRow {
            kernel: name,
            threads: 1,
            secs: s1,
        });
        for threads in [2, 4] {
            let (par, r, w, s) = run(threads);
            assert_eq!(par, seq, "{name}@{threads}: result diverged");
            assert_eq!((r, w), (r0, w0), "{name}@{threads}: I/O diverged");
            println!(
                "  {name}: {threads} threads {s:.4}s ({:.2}x), identical result + I/O",
                s1 / s
            );
            rows.push(SparseThreadRow {
                kernel: name,
                threads,
                secs: s,
            });
        }
    }
    rows
}

struct PrefetchRow {
    kernel: &'static str,
    prefetch: bool,
    secs: f64,
    reads: u64,
    prefetch_issued: u64,
}

/// Prefetch on/off over a device with injected per-read latency: counted
/// I/O must be bit-for-bit identical; wall clock shows the overlap win
/// (latency sleeps overlap even on a 1-core box, so this figure is
/// meaningful on CI too).
fn bench_prefetch(n: usize, latency: Duration) -> Vec<PrefetchRow> {
    let mk_ctx = |depth: usize| {
        let dev = FailpointDevice::new(Box::new(riot_storage::MemBlockDevice::new(8192)));
        dev.handle().set_read_latency(latency);
        StorageCtx::from_pool(BufferPool::new(
            Box::new(dev),
            PoolConfig {
                frames: 8192,
                replacer: ReplacerKind::Lru,
                prefetch_depth: depth,
                ..PoolConfig::default()
            },
        ))
    };
    let mut rows = Vec::new();

    let run_spmv = |depth: usize| {
        let ctx = mk_ctx(depth);
        let a = SparseMatrix::from_triplets(
            &ctx,
            n,
            n,
            MatrixLayout::Square,
            &random_triplets(n, 0.02, 31),
            None,
        )
        .unwrap();
        let x = DenseVector::from_slice(&ctx, &vec![1.0; n], None).unwrap();
        ctx.pool().flush_all().unwrap();
        ctx.clear_cache().unwrap();
        let before = ctx.io_snapshot();
        let t0 = Instant::now();
        let (y, _) = spmv(&a, &x, None).unwrap();
        let secs = t0.elapsed().as_secs_f64();
        ctx.pool().wait_prefetch_idle();
        let reads = (ctx.io_snapshot() - before).reads;
        (
            y.to_vec().unwrap(),
            reads,
            secs,
            ctx.pool().pool_stats().prefetch_issued,
        )
    };
    let (d_off, r_off, s_off, _) = run_spmv(0);
    let (d_on, r_on, s_on, issued) = run_spmv(8);
    assert_eq!(d_off, d_on, "prefetch changed the spmv result");
    assert_eq!(r_off, r_on, "prefetch changed spmv read totals");
    println!("  spmv: off {s_off:.4}s, on {s_on:.4}s ({:.2}x), identical {r_off} reads, {issued} prefetched", s_off / s_on);
    rows.push(PrefetchRow {
        kernel: "spmv",
        prefetch: false,
        secs: s_off,
        reads: r_off,
        prefetch_issued: 0,
    });
    rows.push(PrefetchRow {
        kernel: "spmv",
        prefetch: true,
        secs: s_on,
        reads: r_on,
        prefetch_issued: issued,
    });

    let run_tiled = |depth: usize| {
        let ctx = mk_ctx(depth);
        let mk = |seed: usize| {
            DenseMatrix::from_fn(
                &ctx,
                n,
                n,
                MatrixLayout::Square,
                TileOrder::RowMajor,
                None,
                move |i, j| ((i * 31 + j * 17 + seed) % 97) as f64 - 48.0,
            )
            .unwrap()
        };
        let a = mk(0);
        let b = mk(7);
        ctx.pool().flush_all().unwrap();
        ctx.clear_cache().unwrap();
        let before = ctx.io_snapshot();
        let t0 = Instant::now();
        // p = n/4: a 4x4 grid of output submatrices, so every cell walks
        // four bk windows and has three to declare ahead.
        let (t, _) = matmul_tiled(&a, &b, 3 * (n / 4) * (n / 4), None).unwrap();
        let secs = t0.elapsed().as_secs_f64();
        ctx.pool().wait_prefetch_idle();
        ctx.pool().flush_all().unwrap();
        let reads = (ctx.io_snapshot() - before).reads;
        (
            t.to_rows().unwrap(),
            reads,
            secs,
            ctx.pool().pool_stats().prefetch_issued,
        )
    };
    let (d_off, r_off, s_off, _) = run_tiled(0);
    let (d_on, r_on, s_on, issued) = run_tiled(8);
    assert_eq!(d_off, d_on, "prefetch changed the matmul result");
    assert_eq!(r_off, r_on, "prefetch changed matmul read totals");
    println!("  matmul_tiled: off {s_off:.4}s, on {s_on:.4}s ({:.2}x), identical {r_off} reads, {issued} prefetched", s_off / s_on);
    rows.push(PrefetchRow {
        kernel: "matmul_tiled",
        prefetch: false,
        secs: s_off,
        reads: r_off,
        prefetch_issued: 0,
    });
    rows.push(PrefetchRow {
        kernel: "matmul_tiled",
        prefetch: true,
        secs: s_on,
        reads: r_on,
        prefetch_issued: issued,
    });
    rows
}

/// PR-7 artifact row: the sparse kernel family (spmm + sptranspose +
/// spmdm) through `Session`, untraced vs inside `Session::profile`. In
/// `--test-mode` the <5% wall-clock gate is asserted.
fn trace_overhead_report(tm: bool) {
    use riot_core::{EngineConfig, EngineKind, Session};
    let n = if tm { 384 } else { 768 };
    let trips: Vec<(usize, usize, f64)> = (0..n)
        .flat_map(|i| {
            [
                (i, i, 2.0),
                (i, (i * 7 + 3) % n, 0.5),
                (i, (i * 13 + 11) % n, -0.25),
                ((i * 5 + 1) % n, i, 0.75),
            ]
        })
        .collect();
    let row = riot_bench::measure_trace_overhead(
        "sparse_kernels",
        "session spmm + sptranspose + spmdm (RIOT-DB)",
        if tm { 7 } else { 5 },
        || Session::new(EngineConfig::new(EngineKind::Riot)),
        move |s| {
            let sp = s.sparse_matrix(n, n, &trips).unwrap();
            let sq = sp.matmul(&sp).t();
            let d = s
                .matrix_from_fn(n, 8, MatrixLayout::Square, |i, j| (i + j) as f64)
                .unwrap();
            let (_, _, data) = sp.matmul(&d).collect().unwrap();
            sq.nnz().unwrap() + data.iter().map(|v| v.abs() as u64).sum::<u64>()
        },
    );
    println!(
        "\ntracing overhead, {}: disabled {:.4}s, enabled {:.4}s ({:.2}x, {} spans / {} events)",
        row.workload,
        row.disabled_secs,
        row.enabled_secs,
        row.ratio(),
        row.spans,
        row.events
    );
    // A smoke run gates on the ratio and leaves the tracked artifact
    // (full-size numbers) alone.
    if tm {
        row.assert_within_5pct();
    } else {
        riot_bench::write_trace_overhead_rows(&[row]);
    }
}

fn main() {
    let tm = test_mode();
    let n = if tm { 128 } else { 1024 };
    let densities: &[f64] = if tm { &[0.01] } else { &[0.001, 0.01, 0.1] };
    println!("SpMV {n}x{n}, sparse vs dense (cold cache):");
    let mut spmv_rows = Vec::new();
    for &density in densities {
        let row = bench_spmv(n, density);
        println!(
            "  d={density}: sparse {} reads ({}/{} pages, {:.4}s) vs dense {} reads ({:.4}s)",
            row.sparse_reads,
            row.occupied,
            row.dense_blocks,
            row.sparse_secs,
            row.dense_reads,
            row.dense_secs
        );
        spmv_rows.push(row);
    }

    let nm = if tm { 64 } else { 512 };
    println!("\nSpMM {nm}x{nm} (two passes, pass two replays the spilled plan; cold cache):");
    let mut spmm_rows = Vec::new();
    for &density in densities {
        let row = bench_spmm(nm, density);
        println!(
            "  d={density}: {} nnz out in {} pages, {} reads / {} writes, {:.4}s",
            row.out_nnz, row.out_pages, row.reads, row.writes, row.secs
        );
        spmm_rows.push(row);
    }

    println!("\nnative transpose {n}x{n} (cold cache) vs densify-transpose-recompress cost:");
    let mut transpose_rows = Vec::new();
    for &density in densities {
        let row = bench_transpose(n, density);
        println!(
            "  d={density}: {} reads + {} writes ({}/{} pages, {:.4}s) vs ~{} dense blocks",
            row.sparse_reads,
            row.sparse_writes,
            row.occupied,
            row.dense_blocks,
            row.sparse_secs,
            row.dense_io
        );
        transpose_rows.push(row);
    }

    let nd = if tm { 64 } else { 512 };
    println!("\ndense x sparse {nd}x{nd}: dmspm vs densified fallback (cold cache):");
    let mut dmspm_rows = Vec::new();
    for &density in densities {
        let row = bench_dmspm(nd, density);
        println!(
            "  d={density}: dmspm {} blocks ({:.4}s) vs densify+dense {} blocks ({:.4}s)",
            row.sparse_io, row.sparse_secs, row.dense_io, row.dense_secs
        );
        dmspm_rows.push(row);
    }

    // Thread-scaling curve for the tiled matmul (ROADMAP open item).
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let nt = if tm { 128 } else { 512 };
    println!("\ntiled matmul {nt}x{nt} thread scaling (cores available: {cores}):");
    let mut scaling = Vec::new();
    let (seq_secs, seq_reads, seq_writes) = timed_tiled(nt, 1);
    scaling.push((1usize, seq_secs));
    println!("  1 thread: {seq_secs:.4}s, {seq_reads} reads / {seq_writes} writes");
    for &threads in if tm { &[2][..] } else { &[2, 4, 8][..] } {
        let (secs, reads, writes) = timed_tiled(nt, threads);
        assert_eq!((reads, writes), (seq_reads, seq_writes), "I/O diverged");
        println!(
            "  {threads} threads: {secs:.4}s ({:.2}x), identical I/O",
            seq_secs / secs
        );
        scaling.push((threads, secs));
    }

    // PR-5: the parallel sparse kernel family at 1/2/4 threads (parity
    // asserted, seconds recorded).
    let ns = if tm { 96 } else { 512 };
    println!("\nparallel sparse kernels {ns}x{ns} at 1/2/4 threads:");
    let thread_rows = bench_sparse_threads(ns);

    // PR-5: prefetch on/off over a latency-injected device.
    let np = if tm { 96 } else { 512 };
    let latency = Duration::from_micros(if tm { 150 } else { 400 });
    println!("\nplan-driven prefetch {np}x{np} (injected read latency {latency:?}):");
    let prefetch_rows = bench_prefetch(np, latency);

    trace_overhead_report(tm);
    if tm {
        // The smoke run exercised every kernel and parity assertion; its
        // toy numbers must not overwrite the tracked artifact.
        return;
    }

    // Emit the PR-5 artifact (supersedes BENCH_pr4.json, which recorded
    // the same kernel shapes before the parallel sparse kernels and the
    // plan-driven prefetcher existed).
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"sparse_kernels\",\n");
    let _ = writeln!(
        json,
        "  \"n_spmv\": {n}, \"n_spmm\": {nm}, \"n_transpose\": {n}, \
         \"n_dmspm\": {nd}, \"n_matmul\": {nt},"
    );
    let _ = writeln!(
        json,
        "  \"block_size\": 8192, \"cores_available\": {cores},"
    );
    json.push_str("  \"spmv\": [\n");
    for (i, r) in spmv_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"density\": {}, \"occupied_pages\": {}, \"dense_blocks\": {}, \
             \"sparse_reads\": {}, \"dense_reads\": {}, \"sparse_secs\": {:.6}, \
             \"dense_secs\": {:.6} }}{}",
            r.density,
            r.occupied,
            r.dense_blocks,
            r.sparse_reads,
            r.dense_reads,
            r.sparse_secs,
            r.dense_secs,
            if i + 1 < spmv_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"spmm\": [\n");
    for (i, r) in spmm_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"density\": {}, \"out_nnz\": {}, \"out_pages\": {}, \"reads\": {}, \
             \"writes\": {}, \"secs\": {:.6} }}{}",
            r.density,
            r.out_nnz,
            r.out_pages,
            r.reads,
            r.writes,
            r.secs,
            if i + 1 < spmm_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"transpose\": [\n");
    for (i, r) in transpose_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"density\": {}, \"occupied_pages\": {}, \"dense_blocks\": {}, \
             \"sparse_reads\": {}, \"sparse_writes\": {}, \"densify_path_blocks\": {}, \
             \"sparse_secs\": {:.6} }}{}",
            r.density,
            r.occupied,
            r.dense_blocks,
            r.sparse_reads,
            r.sparse_writes,
            r.dense_io,
            r.sparse_secs,
            if i + 1 < transpose_rows.len() {
                ","
            } else {
                ""
            }
        );
    }
    json.push_str("  ],\n  \"dmspm\": [\n");
    for (i, r) in dmspm_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"density\": {}, \"dmspm_io_blocks\": {}, \
             \"densify_fallback_io_blocks\": {}, \
             \"dmspm_secs\": {:.6}, \"densify_fallback_secs\": {:.6} }}{}",
            r.density,
            r.sparse_io,
            r.dense_io,
            r.sparse_secs,
            r.dense_secs,
            if i + 1 < dmspm_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"matmul_thread_scaling\": [\n");
    for (i, (threads, secs)) in scaling.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"threads\": {threads}, \"secs\": {secs:.6} }}{}",
            if i + 1 < scaling.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"sparse_thread_scaling\": [\n");
    for (i, r) in thread_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"kernel\": \"{}\", \"threads\": {}, \"secs\": {:.6} }}{}",
            r.kernel,
            r.threads,
            r.secs,
            if i + 1 < thread_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"prefetch\": [\n");
    for (i, r) in prefetch_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"kernel\": \"{}\", \"prefetch\": {}, \"secs\": {:.6}, \"reads\": {}, \
             \"prefetch_issued\": {} }}{}",
            r.kernel,
            r.prefetch,
            r.secs,
            r.reads,
            r.prefetch_issued,
            if i + 1 < prefetch_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr5.json");
    std::fs::write(path, &json).expect("write BENCH_pr5.json");
    println!("\nwrote {path}");
}
