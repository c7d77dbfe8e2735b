//! Acceptance tests for the `riot-sparse` subsystem: counted I/O of the
//! out-of-core sparse kernels, the optimizer's density-threshold kernel
//! selection, and engine transparency for sparse programs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use riot_array::{DenseMatrix, DenseVector, MatrixLayout, StorageCtx, TileOrder};
use riot_core::exec::{dmv, spmdm, spmv};
use riot_core::{EngineConfig, EngineKind, OptConfig, Session};
use riot_sparse::SparseMatrix;

/// Random triplets at roughly `density`, deterministic per seed.
fn random_triplets(rows: usize, cols: usize, density: f64, seed: u64) -> Vec<(usize, usize, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let target = ((rows * cols) as f64 * density).round() as usize;
    let mut out = Vec::with_capacity(target);
    for _ in 0..target {
        let r = rng.gen_range(0..rows);
        let c = rng.gen_range(0..cols);
        out.push((r, c, rng.gen_range(-4.0..4.0)));
    }
    out
}

/// The acceptance criterion: out-of-core SpMV on a 0.01-density matrix
/// reads only the occupied sparse pages (plus the streamed vector), which
/// is strictly fewer block reads than the dense equivalent of the same
/// matrix, measured through the same `IoStats`.
#[test]
fn spmv_io_proportional_to_occupied_pages() {
    // 512-byte blocks: 8x8 tiles; 128x128 = 16x16 tile grid = 256 pages
    // dense. At density 0.01 roughly half the tiles are occupied.
    let ctx = StorageCtx::new_mem(512, 512);
    let (rows, cols) = (128, 128);
    let trips = random_triplets(rows, cols, 0.01, 42);
    let a =
        SparseMatrix::from_triplets(&ctx, rows, cols, MatrixLayout::Square, &trips, None).unwrap();
    assert!(a.occupied_pages() > 0);
    assert!(
        a.occupied_pages() < a.dense_blocks(),
        "test needs genuinely sparse occupancy"
    );
    let dense = a.to_dense(TileOrder::RowMajor, None).unwrap();
    let xdata: Vec<f64> = (0..cols).map(|i| (i as f64 * 0.11).cos()).collect();
    let x = DenseVector::from_slice(&ctx, &xdata, None).unwrap();

    // Sparse pass, cold cache.
    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    let (ys, _) = spmv(&a, &x, 1, None).unwrap();
    let sparse_reads = (ctx.io_snapshot() - before).reads;

    // Dense pass, cold cache.
    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    let (yd, _) = dmv(&dense, &x, None).unwrap();
    let dense_reads = (ctx.io_snapshot() - before).reads;

    // Same answer (up to summation-order rounding)...
    assert_close(&ys.to_vec().unwrap(), &yd.to_vec().unwrap());
    // ...but the sparse kernel read only occupied pages + the x blocks,
    // while the dense kernel had to read every tile.
    assert_eq!(sparse_reads, a.occupied_pages() + x.blocks());
    assert_eq!(dense_reads, a.dense_blocks() + x.blocks());
    assert!(
        sparse_reads < dense_reads,
        "sparse {sparse_reads} must beat dense {dense_reads}"
    );

    // The analytic cost model prices the same pass opened cold — the run
    // directory, the packed pages, `x` and the write of `y` — within 25%
    // of the measured blocks (it packs the average tile's payload, the
    // builder packs whole tiles).
    let p = riot_core::CostParams {
        mem_elems: 512.0 * 64.0,
        block_elems: 64.0,
    };
    let predicted = riot_core::cost::spmv_io(rows as f64, cols as f64, a.density(), p);
    let measured = (sparse_reads + a.dir_blocks() + ys.blocks()) as f64;
    assert!(
        (measured - predicted).abs() <= 0.25 * measured,
        "measured {measured} vs predicted {predicted:.1}"
    );
}

/// `sparse_lat`'s smoke shape on 8 KiB blocks — n = 2,048, 8 occupied
/// tiles per tile-row, 4 non-zeros per row. Packed, it stores under 100
/// bytes per non-zero (one page per occupied tile took 1,024), `a %*% v`
/// reads each of its pages once, and the n x 1 result is two tall blocks.
#[test]
fn packed_pages_store_and_scan_the_sparse_lat_shape_compactly() {
    let (n, tile) = (2048usize, 32usize);
    let ctx = StorageCtx::new_mem(8192, 256);
    let mut trips = Vec::new();
    for row in 0..n {
        for k in 0..4 {
            // Tile columns ti + {0, 5, ... 35} (mod 64): 8 per tile-row.
            let q = (row % tile) * 4 + k;
            let tj = (row / tile + 5 * (q % 8)) % (n / tile);
            let col = tj * tile + (row * 7 + k * 3) % tile;
            trips.push((row, col, (1 + (row + k) % 4) as f64));
        }
    }
    let a = SparseMatrix::from_triplets(&ctx, n, n, MatrixLayout::Square, &trips, None).unwrap();
    assert_eq!(a.nnz(), 4 * n as u64);
    assert_eq!(a.occupied_tiles(), 8 * (n / tile) as u64);
    let per_nnz = a.blocks() * 8192 / a.nnz();
    assert!(per_nnz <= 100, "{per_nnz} bytes per non-zero");

    let (layout, order) = (MatrixLayout::Square, TileOrder::RowMajor);
    let v = DenseMatrix::from_fn(&ctx, n, 1, layout, order, None, |i, _| (i % 5) as f64).unwrap();
    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    let (w, _) = spmdm(&a, &v, 1, None).unwrap();
    ctx.pool().flush_all().unwrap();
    let io = ctx.io_snapshot() - before;
    assert_eq!(io.reads, a.occupied_pages() + v.blocks());
    assert_eq!((io.writes, w.blocks()), (2, 2));
    let want = matmul_reference(
        &dense_reference(n, n, &trips),
        &v.to_rows().unwrap(),
        n,
        n,
        1,
    );
    assert_eq!(w.to_rows().unwrap(), want);
}

/// At density 0.001 the saving is close to the full dense footprint.
#[test]
fn spmv_io_scales_down_with_density() {
    let ctx = StorageCtx::new_mem(512, 512);
    let (rows, cols) = (128, 128);
    let trips = random_triplets(rows, cols, 0.001, 7);
    let a =
        SparseMatrix::from_triplets(&ctx, rows, cols, MatrixLayout::Square, &trips, None).unwrap();
    let x = DenseVector::from_slice(&ctx, &vec![1.0; cols], None).unwrap();
    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    spmv(&a, &x, 1, None).unwrap();
    let reads = (ctx.io_snapshot() - before).reads;
    assert!(
        reads * 4 < a.dense_blocks(),
        "0.001 density should read under a quarter of the dense blocks \
         ({reads} vs {})",
        a.dense_blocks()
    );
}

fn dense_reference(rows: usize, cols: usize, trips: &[(usize, usize, f64)]) -> Vec<f64> {
    let mut out = vec![0.0; rows * cols];
    for &(r, c, v) in trips {
        out[r * cols + c] += v;
    }
    out
}

fn matmul_reference(a: &[f64], b: &[f64], n1: usize, n2: usize, n3: usize) -> Vec<f64> {
    let mut out = vec![0.0; n1 * n3];
    for i in 0..n1 {
        for k in 0..n2 {
            for j in 0..n3 {
                out[i * n3 + j] += a[i * n2 + k] * b[k * n3 + j];
            }
        }
    }
    out
}

fn assert_close(got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert!((g - w).abs() < 1e-9, "got {g}, want {w}");
    }
}

/// The optimizer's physical-plan choice: below the density threshold the
/// sparse kernel is kept; above it the operand is densified and the dense
/// kernel runs. Both plans produce the reference result.
#[test]
fn optimizer_selects_kernel_by_density() {
    let n = 32;
    let run = |density: f64| {
        let s = Session::with_engine(EngineKind::Riot);
        let trips = random_triplets(n, n, density, 99);
        let a = s.sparse_matrix(n, n, &trips).unwrap();
        let b = s
            .matrix_from_fn(n, n, MatrixLayout::Square, |i, j| {
                ((i * 5 + j) % 7) as f64 - 3.0
            })
            .unwrap();
        let prod = a.matmul(&b);
        let (r, c, got) = prod.collect().unwrap();
        assert_eq!((r, c), (n, n));
        let ad = dense_reference(n, n, &trips);
        let bd: Vec<f64> = (0..n * n)
            .map(|k| (((k / n) * 5 + k % n) % 7) as f64 - 3.0)
            .collect();
        assert_close(&got, &matmul_reference(&ad, &bd, n, n, n));
        s.last_opt_stats()
    };

    // 1% density: far below the default threshold -> sparse kernel.
    let stats = run(0.01);
    assert!(stats.sparse_kernels >= 1, "sparse kernel chosen: {stats:?}");
    assert_eq!(stats.sparse_densified, 0, "{stats:?}");

    // ~60% density: above the threshold -> densified, dense kernel.
    let stats = run(0.6);
    assert!(stats.sparse_densified >= 1, "densified: {stats:?}");
    assert_eq!(stats.sparse_kernels, 0, "{stats:?}");
}

/// The threshold is configurable; an always-sparse setting keeps even a
/// dense-ish operand on the sparse kernels, and the result is unchanged.
#[test]
fn sparse_threshold_is_tunable() {
    let n = 24;
    let mut cfg = EngineConfig::new(EngineKind::Riot);
    cfg.opt = OptConfig {
        sparse_threshold: 2.0, // never densify
        ..OptConfig::default()
    };
    let s = Session::new(cfg);
    let trips = random_triplets(n, n, 0.5, 3);
    let a = s.sparse_matrix(n, n, &trips).unwrap();
    let b = s
        .matrix_from_fn(n, n, MatrixLayout::Square, |i, j| (i + 2 * j) as f64)
        .unwrap();
    let (_, _, got) = a.matmul(&b).collect().unwrap();
    let ad = dense_reference(n, n, &trips);
    let bd: Vec<f64> = (0..n * n).map(|k| (k / n + 2 * (k % n)) as f64).collect();
    assert_close(&got, &matmul_reference(&ad, &bd, n, n, n));
    let stats = s.last_opt_stats();
    assert!(stats.sparse_kernels >= 1);
    assert_eq!(stats.sparse_densified, 0);
}

/// Transparency: the same sparse program produces identical results under
/// all four engines (eager engines densify at load, like base R without a
/// sparse package).
#[test]
fn sparse_programs_are_engine_transparent() {
    let n = 20;
    let trips = random_triplets(n, n, 0.05, 11);
    let mut outputs = Vec::new();
    for kind in EngineKind::all() {
        let s = Session::with_engine(kind);
        let a = s.sparse_matrix(n, n, &trips).unwrap();
        let b = s
            .matrix_from_fn(
                n,
                n,
                MatrixLayout::Square,
                |i, j| {
                    if i == j {
                        2.0
                    } else {
                        0.0
                    }
                },
            )
            .unwrap();
        let (r, c, data) = a.matmul(&b).collect().unwrap();
        assert_eq!((r, c), (n, n));
        assert_eq!(a.nnz().unwrap(), {
            let d = dense_reference(n, n, &trips);
            d.iter().filter(|v| **v != 0.0).count() as u64
        });
        outputs.push(data);
    }
    for w in outputs.windows(2) {
        assert_close(&w[0], &w[1]);
    }
}

/// The complete kernel family through the frontend: `t(x)` on a sparse
/// matrix below the density threshold stays sparse (the optimizer plans
/// the native transpose; `RewriteStats` pins the decision), and the
/// executed transpose touches only the sparse footprint.
#[test]
fn transpose_stays_sparse_below_threshold() {
    let n = 64;
    let mut cfg = EngineConfig::new(EngineKind::Riot);
    cfg.block_size = 512; // 8x8 tiles, so occupancy stays genuinely sparse
    cfg.mem_blocks = 512;
    let s = Session::new(cfg);
    let trips = random_triplets(n, n, 0.005, 5);
    let a = s.sparse_matrix(n, n, &trips).unwrap();
    let want_nnz = dense_reference(n, n, &trips)
        .iter()
        .filter(|v| **v != 0.0)
        .count() as u64;

    s.drop_caches().unwrap();
    let before = s.io_snapshot();
    let t = a.t();
    // nnz() is a forcing point; a sparse-planned transpose answers it
    // from the transposed handle without ever densifying.
    assert_eq!(t.nnz().unwrap(), want_nnz);
    let delta = s.io_snapshot() - before;
    let stats = s.last_opt_stats();
    assert!(
        stats.sparse_transposes >= 1,
        "native plan chosen: {stats:?}"
    );
    assert_eq!(stats.transpose_densified, 0, "{stats:?}");
    // Far below the dense footprint: a densifying transpose would read
    // and write n^2/64 = 64 blocks each way; the sparse one touches the
    // occupied pages plus directories only.
    let dense_blocks = (n * n / 64) as u64;
    assert!(
        delta.reads + delta.writes < dense_blocks,
        "sparse transpose I/O {delta:?} must undercut the dense footprint \
         {dense_blocks}"
    );

    // And the values are right.
    let (r, c, got) = t.collect().unwrap();
    assert_eq!((r, c), (n, n));
    let ad = dense_reference(n, n, &trips);
    let mut want = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            want[j * n + i] = ad[i * n + j];
        }
    }
    assert_close(&got, &want);
}

/// Above the threshold the optimizer densifies before transposing, and
/// says so in the stats.
#[test]
fn transpose_densifies_above_threshold() {
    let n = 16;
    let s = Session::with_engine(EngineKind::Riot);
    let trips = random_triplets(n, n, 0.6, 17);
    let a = s.sparse_matrix(n, n, &trips).unwrap();
    let (_, _, got) = a.t().collect().unwrap();
    let stats = s.last_opt_stats();
    assert!(stats.transpose_densified >= 1, "{stats:?}");
    assert_eq!(stats.sparse_transposes, 0, "{stats:?}");
    let ad = dense_reference(n, n, &trips);
    let mut want = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            want[j * n + i] = ad[i * n + j];
        }
    }
    assert_close(&got, &want);
}

/// `%*%` dispatches all four `{sparse, dense} x {sparse, dense}` operand
/// combinations to the matching kernel, with identical results — under
/// every engine (the eager ones densify at load, like base R).
#[test]
fn matmul_parity_across_all_format_combinations() {
    let n = 32;
    let ta = random_triplets(n, n, 0.02, 31);
    let tb = random_triplets(n, n, 0.02, 32);
    let want = matmul_reference(
        &dense_reference(n, n, &ta),
        &dense_reference(n, n, &tb),
        n,
        n,
        n,
    );
    for kind in EngineKind::all() {
        for (a_sparse, b_sparse) in [(true, true), (true, false), (false, true), (false, false)] {
            let s = Session::with_engine(kind);
            let a = s.sparse_matrix(n, n, &ta).unwrap();
            let b = s.sparse_matrix(n, n, &tb).unwrap();
            let a = if a_sparse { a } else { a.to_dense().unwrap() };
            let b = if b_sparse { b } else { b.to_dense().unwrap() };
            let (r, c, got) = a.matmul(&b).collect().unwrap();
            assert_eq!((r, c), (n, n));
            assert_close(&got, &want);
        }
    }
}

/// Dense x sparse under Riot keeps the sparse rhs on the native `dmspm`
/// kernel below the threshold: same result as an always-densify plan, but
/// measurably less query I/O — the cost the old fallback silently paid.
#[test]
fn dense_sparse_product_avoids_densification_io() {
    let n = 128;
    let run = |threshold: f64| {
        let mut cfg = EngineConfig::new(EngineKind::Riot);
        cfg.block_size = 512;
        cfg.mem_blocks = 1024;
        cfg.opt = OptConfig {
            sparse_threshold: threshold,
            ..OptConfig::default()
        };
        let s = Session::new(cfg);
        let a = s
            .matrix_from_fn(n, n, MatrixLayout::Square, |i, j| ((i + j) % 5) as f64)
            .unwrap();
        let b = s
            .sparse_matrix(n, n, &random_triplets(n, n, 0.005, 77))
            .unwrap();
        s.drop_caches().unwrap();
        let before = s.io_snapshot();
        let (_, _, got) = a.matmul(&b).collect().unwrap();
        // Flush so the densifying plan's intermediate writes are counted
        // (they are real I/O the dmspm plan never issues).
        s.drop_caches().unwrap();
        let io = (s.io_snapshot() - before).total_blocks();
        (got, io, s.last_opt_stats())
    };
    let (got_sparse, io_sparse, stats_sparse) = run(cost_threshold_default());
    let (got_densify, io_densify, stats_densify) = run(0.0); // always densify
    assert_close(&got_sparse, &got_densify);
    assert!(stats_sparse.sparse_kernels >= 1, "{stats_sparse:?}");
    assert!(stats_densify.sparse_densified >= 1, "{stats_densify:?}");
    assert!(
        io_sparse < io_densify,
        "dmspm plan ({io_sparse} blocks) must undercut the densifying plan \
         ({io_densify} blocks)"
    );
}

fn cost_threshold_default() -> f64 {
    riot_core::cost::SPARSE_DENSITY_THRESHOLD
}

/// Sparse x sparse stays sparse end to end: the product of two
/// low-density operands is collected from a sparse result whose footprint
/// is below the dense one, and conversions round-trip through the
/// deferred Sparsify/Densify operators.
#[test]
fn sparse_chain_and_conversions() {
    let n = 48;
    let s = Session::with_engine(EngineKind::Riot);
    let ta = random_triplets(n, n, 0.01, 21);
    let tb = random_triplets(n, n, 0.01, 22);
    let a = s.sparse_matrix(n, n, &ta).unwrap();
    let b = s.sparse_matrix(n, n, &tb).unwrap();
    let prod = a.matmul(&b);
    let (_, _, got) = prod.collect().unwrap();
    let want = matmul_reference(
        &dense_reference(n, n, &ta),
        &dense_reference(n, n, &tb),
        n,
        n,
        n,
    );
    assert_close(&got, &want);

    // Round-trip conversions preserve contents.
    let back = a.to_dense().unwrap().to_sparse().unwrap();
    let (_, _, a1) = back.collect().unwrap();
    assert_close(&a1, &dense_reference(n, n, &ta));
    // nnz of the deferred conversion matches the source statistic.
    assert_eq!(back.nnz().unwrap(), a.nnz().unwrap());
}
