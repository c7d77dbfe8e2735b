//! Example 2 of the paper: `A %*% B %*% C` — layout, algorithm, and
//! multiplication-order optimization for out-of-core matrix chains.
//!
//! The example prints (a) the analytic I/O costs of the paper's four
//! strategies at Figure 3 scale, and (b) a *measured* run at laptop scale
//! showing the DP-chosen order (RIOT-DB) beating program order (MatNamed,
//! which evaluates the chain as written, like R).
//!
//! Run with: `cargo run --release --example matrix_chain`

use riot::core::cost::ChainTree;
use riot::core::opt::optimal_order;
use riot::{CostParams, EngineConfig, EngineKind, MatMulStrategy, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- (a) Analytic, at the paper's scale ----
    let n = 100_000usize;
    let s = 4usize;
    let dims = [n, n / s, n, n];
    let p = CostParams::with_mem_gb(2.0);

    println!(
        "A({}x{}) %*% B({}x{}) %*% C({}x{}), M = 2 GB, B = 1024\n",
        dims[0], dims[1], dims[1], dims[2], dims[2], dims[3]
    );

    let in_order = ChainTree::in_order(3);
    let plan = optimal_order(&dims);
    println!(
        "program order : {}  ({:.3e} multiplications)",
        in_order.render(),
        in_order.flops(&dims)
    );
    println!(
        "optimal order : {}  ({:.3e} multiplications)\n",
        plan.tree.render(),
        plan.flops
    );

    for (label, strategy, tree) in [
        ("RIOT-DB", MatMulStrategy::RiotDb, &in_order),
        ("BNLJ-Inspired", MatMulStrategy::BnljInspired, &in_order),
        ("Square/In-Order", MatMulStrategy::SquareTiled, &in_order),
        ("Square/Opt-Order", MatMulStrategy::SquareTiled, &plan.tree),
    ] {
        println!("{label:<18} {:>14.3e} blocks", tree.io(&dims, strategy, p));
    }

    // ---- (b) Measured, at laptop scale ----
    // MatNamed never optimizes, so it multiplies in program order, as R
    // does; RIOT-DB reorders the chain at the forcing point.
    println!("\nMeasured run (n = 96, skew s = 4, square tiling):");
    let n = 96;
    let s4 = 4;
    let mut runs = Vec::new();
    for kind in [EngineKind::MatNamed, EngineKind::Riot] {
        let mut cfg = EngineConfig::new(kind);
        cfg.block_size = 8192; // 1024 elems, 32x32 tiles
        cfg.mem_blocks = 12;
        let sess = Session::new(cfg);
        let a = sess.matrix_from_fn(n, n / s4, riot::array::MatrixLayout::Square, |i, j| {
            (i + j) as f64
        })?;
        let b = sess.matrix_from_fn(n / s4, n, riot::array::MatrixLayout::Square, |i, j| {
            (i * 2 + j) as f64 * 0.5
        })?;
        let c = sess.matrix_from_fn(n, n, riot::array::MatrixLayout::Square, |i, j| {
            f64::from(i == j)
        })?;
        let before_ops = sess.cpu_ops();
        let abc = a.matmul(&b).matmul(&c);
        let (_, _, data) = abc.collect()?;
        let mults = sess.cpu_ops() - before_ops;
        let checksum: f64 = data.iter().sum();
        println!(
            "  {:<18} multiplications = {mults:>10}  checksum = {checksum:.1}",
            kind.label()
        );
        runs.push((mults, checksum));
    }
    // The claims the output makes, asserted: same product, fewer
    // multiplications, and a checksum matching the direct computation of
    // sum(A %*% B) (C is the identity).
    assert!(
        (runs[0].1 - runs[1].1).abs() < 1e-6 * runs[0].1.abs(),
        "reordering changed the result: {} vs {}",
        runs[0].1,
        runs[1].1
    );
    assert!(
        runs[1].0 < runs[0].0,
        "RIOT-DB's order must cut multiplications ({} vs {})",
        runs[1].0,
        runs[0].0
    );
    let mut want = 0.0;
    for i in 0..n {
        for j in 0..n {
            for k in 0..n / s4 {
                want += (i + k) as f64 * ((k * 2 + j) as f64 * 0.5);
            }
        }
    }
    assert!(
        (runs[0].1 - want).abs() < 1e-6 * want.abs(),
        "checksum {} vs reference {}",
        runs[0].1,
        want
    );
    println!("\nFewer multiplications with RIOT-DB's order, identical checksum.");
    Ok(())
}
