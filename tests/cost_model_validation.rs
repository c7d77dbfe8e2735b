//! Appendix A validation: the analytic cost model must agree with the
//! kernels' *measured* I/O at laptop scale (the paper's asymptotics made
//! concrete). The square-tiled schedule is deterministic, so its model is
//! held to the exact block count; the continuous BNLJ and naive models
//! ignore boundary tiles and pool caching and keep generous (2x)
//! tolerances, but the *ratios between strategies* must hold tightly. The
//! sparse model prices the packed format's pages and run directory; it is
//! held to the corpus `spmv` full profile within the bound stated there.

use riot::array::{DenseMatrix, MatrixLayout, StorageCtx, TileOrder};
use riot::core::cost::{
    bnlj_io, naive_colmajor_io, sparse_blocks, spmdm_io, square_tiled_io, square_tiled_schedule_io,
    CostParams,
};
use riot::core::exec::{matmul_bnlj, matmul_naive, matmul_tiled, spmdm, ExecResult, Operand, Side};
use riot::core::EngineKind;
use riot::sparse::SparseMatrix;
use riot_bench::corpus::{self, Input};

const BLOCK: usize = 8192; // 1024 elems, 32x32 tiles
const EPB: f64 = 1024.0;

fn mk(ctx: &std::sync::Arc<StorageCtx>, n: usize, layout: MatrixLayout) -> DenseMatrix {
    let order = match layout {
        MatrixLayout::RowMajor => TileOrder::RowMajor,
        MatrixLayout::ColMajor => TileOrder::ColMajor,
        MatrixLayout::Square => TileOrder::RowMajor,
    };
    DenseMatrix::from_fn(ctx, n, n, layout, order, None, |i, j| {
        ((i * 7 + j) % 13) as f64
    })
    .unwrap()
}

/// Measure the kernel's total block I/O with a pass-through pool.
fn measured(
    n: usize,
    layout: MatrixLayout,
    kernel: impl Fn(&DenseMatrix, &DenseMatrix) -> ExecResult<(DenseMatrix, u64)>,
) -> f64 {
    let ctx = StorageCtx::new_mem(BLOCK, 4);
    let a = mk(&ctx, n, layout);
    let b = mk(&ctx, n, layout);
    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    let (t, _) = kernel(&a, &b).unwrap();
    ctx.pool().flush_all().unwrap();
    let io = ctx.io_snapshot() - before;
    t.free().unwrap();
    io.total_blocks() as f64
}

/// `(reads, writes)` of one square-tiled product through a 4-frame
/// pass-through pool, next to the exact model's prediction.
fn tiled_measured_and_model(
    (n1, n2, n3): (usize, usize, usize),
    (at, bt): (bool, bool),
    gram: bool,
    mem: usize,
) -> ((u64, u64), (u64, u64)) {
    let ctx = StorageCtx::new_mem(BLOCK, 4);
    let mk = |rows: usize, cols: usize, trans: bool| {
        let (r, c) = if trans { (cols, rows) } else { (rows, cols) };
        DenseMatrix::from_fn(
            &ctx,
            r,
            c,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
            |i, j| ((i * 7 + j) % 13) as f64,
        )
        .unwrap()
    };
    let a = mk(n1, n2, at);
    let b = if gram { a.clone() } else { mk(n2, n3, bt) };
    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    let ops = (
        Operand { mat: &a, trans: at },
        Operand { mat: &b, trans: bt },
    );
    let (t, _) = matmul_tiled(ops.0, ops.1, mem, 1, None).unwrap();
    ctx.pool().flush_all().unwrap();
    let io = ctx.io_snapshot() - before;
    t.free().unwrap();
    let params = CostParams {
        mem_elems: mem as f64,
        block_elems: EPB,
    };
    (
        (io.reads, io.writes),
        square_tiled_schedule_io(n1, n2, n3, gram, params),
    )
}

#[test]
fn square_tiled_matches_model_exactly() {
    let mem = 3 * 4 * 1024; // p = 64 -> 2x2-tile submatrices
                            // Aligned, ragged against both the tile (32) and the panel (64), and
                            // every flag pair: a transposed read pins the mirrored tiles.
    for dims in [(128, 128, 128), (150, 70, 97), (33, 200, 64)] {
        for flags in [(false, false), (true, false), (false, true), (true, true)] {
            let (got, want) = tiled_measured_and_model(dims, flags, false, mem);
            assert_eq!(got, want, "{dims:?} flags {flags:?}");
        }
    }
}

#[test]
fn gram_half_schedule_matches_model_exactly() {
    let mem = 3 * 4 * 1024;
    // t(X)·X and X·t(X) for a 200x150 X: 3x3 (resp. 4x4) output cells, of
    // which the upper triangle runs and the diagonal reads one strip.
    for (dims, flags) in [
        ((150, 200, 150), (true, false)),
        ((200, 150, 200), (false, true)),
    ] {
        let (got, want) = tiled_measured_and_model(dims, flags, true, mem);
        assert_eq!(got, want, "gram {dims:?}");
        let (full, _) = tiled_measured_and_model(dims, flags, false, mem);
        assert!(got.0 < full.0, "half schedule reads {} < {}", got.0, full.0);
        assert_eq!(got.1, full.1, "same output blocks");
    }
}

/// BNLJ with its favourable layouts (row-major A, column-major B) over
/// 512-byte blocks, where a 128-wide matrix packs rows and columns into
/// whole blocks — the model assumes perfect packing.
fn measured_bnlj_small_blocks(n: usize, mem_elems: usize) -> f64 {
    let ctx = StorageCtx::new_mem(512, 4);
    let a = DenseMatrix::from_fn(
        &ctx,
        n,
        n,
        MatrixLayout::RowMajor,
        TileOrder::RowMajor,
        None,
        |i, j| ((i * 7 + j) % 13) as f64,
    )
    .unwrap();
    let b = DenseMatrix::from_fn(
        &ctx,
        n,
        n,
        MatrixLayout::ColMajor,
        TileOrder::ColMajor,
        None,
        |i, j| ((i * 3 + j) % 11) as f64,
    )
    .unwrap();
    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    let (t, _) = matmul_bnlj(&a, &b, mem_elems, 1, None).unwrap();
    ctx.pool().flush_all().unwrap();
    let io = ctx.io_snapshot() - before;
    t.free().unwrap();
    io.total_blocks() as f64
}

#[test]
fn bnlj_matches_model_within_2x() {
    let n = 128;
    let mem = 16 * 1024; // 64 rows of A + T per pass -> 2 passes
    let got = measured_bnlj_small_blocks(n, mem);
    let want = bnlj_io(
        n as f64,
        n as f64,
        n as f64,
        CostParams {
            mem_elems: mem as f64,
            block_elems: 64.0,
        },
    );
    assert!(
        got <= 2.5 * want && got >= want / 2.5,
        "bnlj measured {got} vs model {want:.0}"
    );
}

#[test]
fn naive_colmajor_is_catastrophic_as_predicted() {
    // The model says naive/col-major costs ~n1*n2*n3 blocks where tiled
    // costs ~2*n^3/(B*p). At n=64 that's a factor of hundreds; measure it.
    let n = 64;
    let mem = 3 * 1024;
    let naive = measured(n, MatrixLayout::ColMajor, |a, b| matmul_naive(a, b, None));
    let tiled = measured(n, MatrixLayout::Square, |a, b| {
        matmul_tiled(a, b, mem, 1, None)
    });
    assert!(
        naive > 20.0 * tiled,
        "naive {naive} must dwarf tiled {tiled}"
    );
    // And the model's prediction of the naive disaster is the right order:
    // every inner-loop element access to col-major A faults.
    let predicted = naive_colmajor_io(
        n as f64,
        n as f64,
        n as f64,
        CostParams {
            mem_elems: mem as f64,
            block_elems: EPB,
        },
    );
    // The tiny pool still catches within-column reuse of B and T, so the
    // measured count sits below the worst-case model; same magnitude side.
    assert!(
        naive > predicted / 100.0,
        "measured naive {naive} vs worst-case model {predicted:.0}"
    );
}

/// Square-tiled over 512-byte blocks (8x8 tiles) for the ratio test.
fn measured_tiled_small_blocks(n: usize, mem_elems: usize) -> f64 {
    let ctx = StorageCtx::new_mem(512, 4);
    let a = DenseMatrix::from_fn(
        &ctx,
        n,
        n,
        MatrixLayout::Square,
        TileOrder::RowMajor,
        None,
        |i, j| ((i * 7 + j) % 13) as f64,
    )
    .unwrap();
    let b = DenseMatrix::from_fn(
        &ctx,
        n,
        n,
        MatrixLayout::Square,
        TileOrder::RowMajor,
        None,
        |i, j| ((i * 3 + j) % 11) as f64,
    )
    .unwrap();
    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    let (t, _) = matmul_tiled(&a, &b, mem_elems, 1, None).unwrap();
    ctx.pool().flush_all().unwrap();
    let io = ctx.io_snapshot() - before;
    t.free().unwrap();
    io.total_blocks() as f64
}

#[test]
fn model_ratio_matches_measured_ratio() {
    // Figure 3's core claim at mini scale: model(bnlj)/model(tiled) should
    // predict measured(bnlj)/measured(tiled) within 3x.
    let n = 128;
    let mem = 3 * 16 * 64; // p = 32 = 4 tiles of 8
    let p = CostParams {
        mem_elems: mem as f64,
        block_elems: 64.0,
    };
    let model_ratio =
        bnlj_io(n as f64, n as f64, n as f64, p) / square_tiled_io(n as f64, n as f64, n as f64, p);
    let meas_ratio = measured_bnlj_small_blocks(n, mem) / measured_tiled_small_blocks(n, mem);
    assert!(
        meas_ratio / model_ratio < 3.0 && model_ratio / meas_ratio < 3.0,
        "model ratio {model_ratio:.2} vs measured ratio {meas_ratio:.2}"
    );
}

/// The sparse model against the corpus `spmv` full profile (n = 768, at
/// most 4 non-zeros per row, 512-byte blocks): one cold `a %*% v` — `a`
/// reopened by name, so its run directory is read too, and the result
/// flushed. The kernel's reads are *equal* to the packed pages plus `v`,
/// and so is the budget the manifest pins for the whole script (later
/// rounds hit the pool). The model prices the average occupied tile's
/// payload where the builder packs whole tiles that may not straddle a
/// page, and draws tile occupancy from the density where the generator's
/// pattern is regular: it must land within **5 %** of the measured pages,
/// directory blocks and total I/O (today: 90 of 92 pages, 110 of 110
/// directory blocks, 308 of 310 blocks in all).
#[test]
fn sparse_model_matches_the_corpus_spmv_full_profile() {
    let w = corpus::workload("spmv");
    let profile = w.manifest.profile("full").expect("spmv has a full profile");
    let inputs = corpus::inputs("spmv", profile);
    let (n, trips) = inputs
        .iter()
        .find_map(|i| match i {
            Input::Sparse(_, n, _, trips) => Some((*n, trips)),
            _ => None,
        })
        .expect("spmv binds a sparse matrix");
    let ctx = StorageCtx::new_mem(profile.block_size, profile.mem_blocks);
    let built =
        SparseMatrix::from_triplets(&ctx, n, n, MatrixLayout::Square, trips, Some("a")).unwrap();
    let (layout, order) = (MatrixLayout::Square, TileOrder::RowMajor);
    let v = DenseMatrix::from_fn(&ctx, n, 1, layout, order, None, |_, _| 1.0).unwrap();
    drop(built);
    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();

    let before = ctx.io_snapshot();
    let a = SparseMatrix::open(&ctx, "a").unwrap();
    let opened = ctx.io_snapshot();
    let (t, _) = spmdm(&a, &v, Side::Left, 1, None).unwrap();
    let kernel_reads = (ctx.io_snapshot() - opened).reads;
    ctx.pool().flush_all().unwrap();
    let io = ctx.io_snapshot() - before;
    assert_eq!((opened - before).reads, a.dir_blocks());
    assert_eq!(kernel_reads, a.occupied_pages() + v.blocks());
    assert_eq!(io.writes, t.blocks());
    let pinned = profile.budget(EngineKind::Riot).expect("riot budget");
    assert_eq!(
        pinned.reads, kernel_reads,
        "the corpus budget is these reads"
    );

    let epb = ctx.elems_per_block() as f64;
    let p = CostParams {
        mem_elems: profile.mem_blocks as f64 * epb,
        block_elems: epb,
    };
    let (pages, dir) = sparse_blocks(n as f64, n as f64, a.density(), p);
    let model = spmdm_io(n as f64, n as f64, 1.0, a.density(), p);
    let within =
        |model: f64, measured: u64| (model - measured as f64).abs() <= 0.05 * measured as f64;
    assert!(
        within(pages, a.occupied_pages()),
        "pages: {pages} vs {}",
        a.occupied_pages()
    );
    assert!(
        within(dir, a.dir_blocks()),
        "directory: {dir} vs {}",
        a.dir_blocks()
    );
    assert!(
        within(model, io.total_blocks()),
        "total: {model} vs {}",
        io.total_blocks()
    );
}
