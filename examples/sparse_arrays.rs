//! The sparse subsystem end to end: an R script builds a sparse matrix,
//! multiplies it, and converts representations — under every engine —
//! then the Session API shows the counted-I/O win of the sparse kernels.
//!
//! Run with: `cargo run --release --example sparse_arrays`

use riot::core::exec::{dmv, spmv};
use riot::sparse::SparseMatrix;
use riot::{EngineConfig, EngineKind, Interpreter};
use riot_array::{DenseVector, MatrixLayout, StorageCtx, TileOrder};

const SCRIPT: &str = r#"
a <- sparse(i, j, v, n, n)
print(nnz(a))
print(nnz(t(a)))
b <- a %*% as.dense(a)
print(nnz(b))
print(nnz(as.sparse(b)))
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("R script with sparse builtins, all four engines:\n");
    let mut outputs = Vec::new();
    for kind in EngineKind::all() {
        let mut interp = Interpreter::new(EngineConfig::new(kind));
        let n = 64usize;
        // A wrapped band: 2 entries per row.
        let mut iv = Vec::new();
        let mut jv = Vec::new();
        let mut vv = Vec::new();
        for r in 0..n {
            for c in [r, (r + 7) % n] {
                iv.push((r + 1) as f64);
                jv.push((c + 1) as f64);
                vv.push((r + c) as f64 * 0.01 + 1.0);
            }
        }
        interp.bind_vector("i", iv.len(), |k| iv[k])?;
        interp.bind_vector("j", jv.len(), |k| jv[k])?;
        interp.bind_vector("v", vv.len(), |k| vv[k])?;
        interp.bind_scalar("n", n as f64);
        let out = interp.run(SCRIPT)?;
        println!("=== {} ===\n{out}", kind.label());
        outputs.push(out);
    }
    // Transparency, asserted: all four engines agree, and the two band
    // diagonals give the known non-zero counts (128 in a and t(a) — the
    // native transpose preserves every stored value).
    for w in outputs.windows(2) {
        assert_eq!(w[0], w[1], "engines must print identical results");
    }
    assert!(
        outputs[0].starts_with("[1] 128\n[1] 128\n"),
        "unexpected nnz output: {}",
        outputs[0]
    );

    // Counted I/O: SpMV reads occupied pages only.
    let ctx = StorageCtx::new_mem(8192, 4096);
    let n = 2048;
    let trips: Vec<(usize, usize, f64)> = (0..n)
        .flat_map(|r| [(r, r, 2.0), (r, (r + 13) % n, -1.0)])
        .collect();
    let a = SparseMatrix::from_triplets(&ctx, n, n, MatrixLayout::Square, &trips, None)?;
    let dense = a.to_dense(TileOrder::RowMajor, None)?;
    let x = DenseVector::from_slice(&ctx, &vec![1.0; n], None)?;

    ctx.pool().flush_all()?;
    ctx.clear_cache()?;
    let before = ctx.io_snapshot();
    spmv(&a, &x, 1, None)?;
    let sparse_reads = (ctx.io_snapshot() - before).reads;

    ctx.pool().flush_all()?;
    ctx.clear_cache()?;
    let before = ctx.io_snapshot();
    dmv(&dense, &x, None)?;
    let dense_reads = (ctx.io_snapshot() - before).reads;

    println!(
        "SpMV on a {n}x{n} band matrix (density {:.4}):",
        a.density()
    );
    println!(
        "  sparse kernel: {sparse_reads} block reads ({} occupied pages of {} dense)",
        a.occupied_pages(),
        a.dense_blocks()
    );
    println!("  dense kernel:  {dense_reads} block reads");
    assert!(sparse_reads < dense_reads);
    println!("\nSame product, a fraction of the I/O — sparse data stored natively.");
    Ok(())
}
