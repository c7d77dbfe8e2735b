//! The three out-of-core multiplication kernels, wall-clock and I/O, plus
//! the sequential-vs-parallel tiled comparison that seeds the perf
//! trajectory (`BENCH_pr1.json` at the repo root).
//!
//! Wall time here reflects CPU-side work plus simulated-pool overhead;
//! the figure that matters for the paper is the *I/O count* printed at
//! the end, which should rank naive >> BNLJ > square-tiled (Figure 3's
//! measured counterpart at laptop scale). The parallel section verifies
//! the scalability contract: identical result matrices and identical
//! shard-summed I/O at any thread count, with wall-clock improving with
//! physical cores (speedup is recorded, not asserted, because CI boxes
//! may expose a single core).

use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use riot_array::{DenseMatrix, MatrixLayout, StorageCtx, TileOrder};
use riot_core::exec::{matmul_tiled, matmul_tiled_parallel, multiply, MatMulKernel};
use riot_storage::testing::FailpointDevice;
use riot_storage::{BufferPool, MemBlockDevice, PoolConfig, ReplacerKind};

fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test-mode")
}

const N: usize = 64;
const MEM_ELEMS: usize = 3 * 1024; // p = 32 with 8 KiB blocks

fn operands(kernel: MatMulKernel) -> (DenseMatrix, DenseMatrix) {
    // Each kernel gets its favourable layout, as in the paper's setups.
    let ctx = StorageCtx::new_mem(8192, 8);
    let (la, lb) = match kernel {
        MatMulKernel::Naive => (MatrixLayout::ColMajor, MatrixLayout::ColMajor),
        MatMulKernel::Bnlj => (MatrixLayout::RowMajor, MatrixLayout::ColMajor),
        MatMulKernel::SquareTiled => (MatrixLayout::Square, MatrixLayout::Square),
    };
    let order = |l: MatrixLayout| match l {
        MatrixLayout::RowMajor => TileOrder::RowMajor,
        MatrixLayout::ColMajor => TileOrder::ColMajor,
        MatrixLayout::Square => TileOrder::RowMajor,
    };
    let a = DenseMatrix::from_fn(&ctx, N, N, la, order(la), None, |i, j| (i + j) as f64).unwrap();
    let b =
        DenseMatrix::from_fn(&ctx, N, N, lb, order(lb), None, |i, j| (i * j % 7) as f64).unwrap();
    (a, b)
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul/64x64");
    for kernel in [
        MatMulKernel::Naive,
        MatMulKernel::Bnlj,
        MatMulKernel::SquareTiled,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kernel:?}")),
            &kernel,
            |bench, &kernel| {
                let (a, b) = operands(kernel);
                bench.iter(|| {
                    let (t, flops) = multiply(kernel, &a, &b, MEM_ELEMS, None).unwrap();
                    t.free().unwrap();
                    flops
                })
            },
        );
    }
    group.finish();

    // One-shot I/O comparison for EXPERIMENTS.md.
    println!("\nmatmul 64x64 measured I/O (blocks, cold cache):");
    for kernel in [
        MatMulKernel::Naive,
        MatMulKernel::Bnlj,
        MatMulKernel::SquareTiled,
    ] {
        let (a, b) = operands(kernel);
        let ctx = a.ctx().clone();
        ctx.pool().flush_all().unwrap();
        ctx.clear_cache().unwrap();
        let before = ctx.io_snapshot();
        let (t, _) = multiply(kernel, &a, &b, MEM_ELEMS, None).unwrap();
        ctx.pool().flush_all().unwrap();
        let delta = ctx.io_snapshot() - before;
        t.free().unwrap();
        println!("  {kernel:?}: {} blocks", delta.total_blocks());
    }
}

/// One sequential-vs-parallel tiled run at `n x n`; returns
/// `(seconds, reads, writes, result)`.
fn timed_tiled(n: usize, mem_elems: usize, threads: usize) -> (f64, u64, u64, Vec<f64>) {
    // In-memory-backed: a sharded pool big enough to hold a, b, and t, the
    // regime where parallel and sequential I/O totals must coincide.
    let blocks_per_matrix = (n * n).div_ceil(1024);
    let ctx = StorageCtx::new_mem_sharded(8192, 3 * blocks_per_matrix + 64, 16);
    let a = DenseMatrix::from_fn(
        &ctx,
        n,
        n,
        MatrixLayout::Square,
        TileOrder::RowMajor,
        None,
        |i, j| ((i * 31 + j * 17) % 97) as f64 - 48.0,
    )
    .unwrap();
    let b = DenseMatrix::from_fn(
        &ctx,
        n,
        n,
        MatrixLayout::Square,
        TileOrder::RowMajor,
        None,
        |i, j| ((i * 13 + j * 7) % 89) as f64 - 44.0,
    )
    .unwrap();
    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    let start = Instant::now();
    let (t, _) = matmul_tiled_parallel(&a, &b, mem_elems, threads, None).unwrap();
    let secs = start.elapsed().as_secs_f64();
    ctx.pool().flush_all().unwrap();
    let delta = ctx.io_snapshot() - before;
    let result = t.to_rows().unwrap();
    (secs, delta.reads, delta.writes, result)
}

/// Plan-driven prefetch on the tiled kernel over a latency-injected
/// device: counted I/O must be identical with the prefetcher on, and the
/// wall clock shows the declared windows overlapping the injected device
/// latency (sleeps overlap even on a 1-core box).
fn prefetch_report(n: usize, latency: Duration) {
    let run = |depth: usize| {
        let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(8192)));
        dev.handle().set_read_latency(latency);
        let ctx = StorageCtx::from_pool(BufferPool::new(
            Box::new(dev),
            PoolConfig {
                frames: 8192,
                replacer: ReplacerKind::Lru,
                prefetch_depth: depth,
                ..PoolConfig::default()
            },
        ));
        let mk = |seed: usize| {
            DenseMatrix::from_fn(
                &ctx,
                n,
                n,
                MatrixLayout::Square,
                TileOrder::RowMajor,
                None,
                move |i, j| ((i * 29 + j * 13 + seed) % 83) as f64 - 41.0,
            )
            .unwrap()
        };
        let a = mk(0);
        let b = mk(3);
        ctx.pool().flush_all().unwrap();
        ctx.clear_cache().unwrap();
        let before = ctx.io_snapshot();
        let t0 = Instant::now();
        let (t, _) = matmul_tiled(&a, &b, 3 * (n / 4) * (n / 4), None).unwrap();
        let secs = t0.elapsed().as_secs_f64();
        ctx.pool().wait_prefetch_idle();
        ctx.pool().flush_all().unwrap();
        let delta = ctx.io_snapshot() - before;
        (
            t.to_rows().unwrap(),
            delta.reads,
            delta.writes,
            secs,
            ctx.pool().pool_stats().prefetch_issued,
        )
    };
    println!("\nprefetch on/off, tiled matmul {n}x{n} (injected read latency {latency:?}):");
    let (r_off, reads_off, writes_off, s_off, _) = run(0);
    let (r_on, reads_on, writes_on, s_on, issued) = run(8);
    assert_eq!(r_off, r_on, "prefetch changed the result");
    assert_eq!(
        (reads_off, writes_off),
        (reads_on, writes_on),
        "prefetch changed I/O totals"
    );
    println!(
        "  off {s_off:.4}s, on {s_on:.4}s ({:.2}x), identical {reads_off} reads / \
         {writes_off} writes, {issued} background loads",
        s_off / s_on
    );
}

/// The PR-1 perf artifact: sequential vs rayon-style parallel tiled matmul
/// at 1024 x 1024, written to `BENCH_pr1.json` at the repository root.
fn parallel_report() {
    let n = 1024;
    let mem_elems = 3 * 256 * 256; // sequential p = 256 (8x8 tiles of 32x32)
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let threads = cores.clamp(4, 8); // exercise >= 4 workers even on small boxes

    println!("\nparallel tiled matmul {n}x{n} (cores available: {cores})");
    let (seq_secs, seq_reads, seq_writes, seq_result) = timed_tiled(n, mem_elems, 1);
    println!("  1 thread : {seq_secs:.3} s, {seq_reads} reads / {seq_writes} writes");
    let (par_secs, par_reads, par_writes, par_result) = timed_tiled(n, mem_elems, threads);
    println!("  {threads} threads: {par_secs:.3} s, {par_reads} reads / {par_writes} writes");

    let identical_results = seq_result == par_result;
    let identical_io = (seq_reads, seq_writes) == (par_reads, par_writes);
    let speedup = seq_secs / par_secs;
    println!("  speedup {speedup:.2}x, identical results: {identical_results}, identical I/O: {identical_io}");
    assert!(
        identical_results,
        "parallel result diverged from sequential"
    );
    assert!(identical_io, "parallel I/O diverged from sequential");

    let json = format!(
        "{{\n  \"bench\": \"matmul_tiled_parallel\",\n  \"n\": {n},\n  \"block_size\": 8192,\n  \"mem_elems\": {mem_elems},\n  \"cores_available\": {cores},\n  \"threads\": {threads},\n  \"seq_secs\": {seq_secs:.6},\n  \"par_secs\": {par_secs:.6},\n  \"speedup\": {speedup:.4},\n  \"seq_io\": {{ \"reads\": {seq_reads}, \"writes\": {seq_writes} }},\n  \"par_io\": {{ \"reads\": {par_reads}, \"writes\": {par_writes} }},\n  \"identical_results\": {identical_results},\n  \"identical_io\": {identical_io}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr1.json");
    std::fs::write(path, &json).expect("write BENCH_pr1.json");
    println!("  wrote {path}");
}

/// PR-7 artifact row: the same dense-matmul pipeline through `Session`,
/// untraced vs inside `Session::profile` (spans, ring recording, event
/// drain all live). In `--test-mode` the <5% wall-clock gate is asserted.
fn trace_overhead_report(tm: bool) {
    use riot_core::{EngineConfig, EngineKind, Session};
    let n = if tm { 96 } else { 192 };
    let row = riot_bench::measure_trace_overhead(
        "matmul_kernels",
        "session dense matmul + transpose (RIOT-DB)",
        if tm { 7 } else { 5 },
        || Session::new(EngineConfig::new(EngineKind::Riot)),
        move |s| {
            let a = s
                .matrix_from_fn(n, n, MatrixLayout::Square, |i, j| (i + 2 * j) as f64 * 0.25)
                .unwrap();
            let b = s
                .matrix_from_fn(n, n, MatrixLayout::Square, |i, j| ((i * j) % 11) as f64)
                .unwrap();
            let (_, _, data) = a.matmul(&b).t().collect().unwrap();
            data.iter().map(|v| v.abs() as u64).sum()
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

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kernels
);

fn main() {
    if test_mode() {
        // CI's bench smoke leg: a seconds-scale run through the same code
        // paths and parity assertions — criterion sampling and the
        // 1024-size artifact (which would overwrite BENCH_pr1.json with
        // toy numbers) are skipped.
        let (secs, reads, writes, seq) = timed_tiled(128, 3 * 32 * 32, 1);
        let (psecs, preads, pwrites, par) = timed_tiled(128, 3 * 32 * 32, 2);
        assert_eq!(seq, par, "test-mode parallel result diverged");
        assert_eq!((reads, writes), (preads, pwrites));
        println!("test-mode tiled 128x128: 1 thread {secs:.4}s, 2 threads {psecs:.4}s");
        prefetch_report(96, Duration::from_micros(150));
        trace_overhead_report(true);
        return;
    }
    benches();
    parallel_report();
    prefetch_report(512, Duration::from_micros(400));
    trace_overhead_report(false);
}
