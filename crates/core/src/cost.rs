//! Analytic I/O cost model for out-of-core matrix multiplication.
//!
//! Figure 3 of the paper reports *calculated* I/O costs (in blocks) for
//! four strategies of evaluating `A %*% B %*% C`; this module reproduces
//! those calculations exactly, and the executor's measured I/O is
//! cross-validated against it in `tests/cost_model_validation.rs`.
//!
//! All sizes are in **elements**; costs are returned in **blocks**.
//! `B` = elements per block, `M` = elements of available memory.

/// Memory and block-size parameters of a cost computation.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Available memory `M`, in elements.
    pub mem_elems: f64,
    /// Block capacity `B`, in elements (paper: 1024).
    pub block_elems: f64,
}

impl CostParams {
    /// The paper's Figure 3 setting: memory in gigabytes of `f64`s and
    /// `B = 1024`.
    pub fn with_mem_gb(gb: f64) -> CostParams {
        CostParams {
            mem_elems: gb * 1024.0 * 1024.0 * 1024.0 / 8.0,
            block_elems: 1024.0,
        }
    }
}

/// The four strategies compared in Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatMulStrategy {
    /// RIOT-DB's hash-join + sort + aggregate plan over `(I, J, V)` tables.
    RiotDb,
    /// The block-nested-loop-join-inspired algorithm of §4 (row layout for
    /// the left operand, column for the right).
    BnljInspired,
    /// The Appendix-A square-tiled algorithm (√(M/3)-sided submatrices).
    SquareTiled,
}

/// I/O (blocks) of the naive triple loop of Example 2 when **both**
/// operands use R's default column layout: every access to `A` in row-major
/// order faults a block, giving the paper's "huge Θ(n1·n2·n3)".
pub fn naive_colmajor_io(n1: f64, n2: f64, n3: f64, p: CostParams) -> f64 {
    let b = p.block_elems;
    // Every A element access misses; B columns stream; T written once.
    n1 * n2 * n3 + n2 * n3 / b + n1 * n3 / b
}

/// I/O (blocks) of the same naive loop once `A` is given a row layout:
/// the row scan becomes sequential, reducing cost to Θ(n1·n2·n3 / B).
pub fn naive_rowlayout_io(n1: f64, n2: f64, n3: f64, p: CostParams) -> f64 {
    let b = p.block_elems;
    n1 * n2 * n3 / b + n2 * n3 / b + n1 * n3 / b
}

/// I/O (blocks) of the BNLJ-inspired algorithm: read as many rows of `A`
/// as fit (leaving room for the matching rows of `T` and a block of `B`),
/// scanning `B` once per chunk. Θ(n1·n2·n3·(n2+n3) / (B·M)).
pub fn bnlj_io(n1: f64, n2: f64, n3: f64, p: CostParams) -> f64 {
    let b = p.block_elems;
    // Memory holds m rows of A (m*n2) plus m rows of T (m*n3).
    let m_rows = (p.mem_elems / (n2 + n3)).floor().max(1.0);
    let passes = (n1 / m_rows).ceil();
    n1 * n2 / b + passes * n2 * n3 / b + n1 * n3 / b
}

/// I/O (blocks) of the Appendix-A square-submatrix schedule with
/// `p = √(M/3)`: `(2·p²/B · n2/p + p²/B) · (n1·n3/p²)`, i.e.
/// `2√3·n1·n2·n3/(B·√M) + n1·n3/B` — matching the lower bound. This is
/// the continuous form the optimizer and Figure 3 compare strategies
/// with; [`square_tiled_schedule_io`] counts the same schedule exactly.
pub fn square_tiled_io(n1: f64, n2: f64, n3: f64, p: CostParams) -> f64 {
    let b = p.block_elems;
    let side = (p.mem_elems / 3.0).sqrt();
    // If everything fits, cost degenerates to scanning inputs + output.
    if n1 <= side && n2 <= side && n3 <= side {
        return (n1 * n2 + n2 * n3 + n1 * n3) / b;
    }
    2.0 * n1 * n2 * n3 / (b * side) + n1 * n3 / b
}

/// Submatrix (panel) side of the tiled schedules for a scratch budget of
/// `mem_elems`: `√(M/3)` — three panels is every step's working set —
/// rounded down to whole tiles, at least one. The kernels size their
/// scratch with this very function, so the exact model below and the
/// executed schedule cannot drift apart.
pub fn panel_side(mem_elems: f64, tile_side: usize) -> usize {
    (((mem_elems / 3.0).sqrt() as usize) / tile_side * tile_side).max(tile_side)
}

/// Exact `(reads, writes)` in blocks of the square-tiled kernel's
/// schedule over square-tiled operands, as a pass-through pool counts it
/// (no reuse between panel reads: the kernel's scratch *is* the memory).
///
/// Operand flags do not appear: a transposed read pins the tiles of the
/// mirrored rectangle, the same number. `gram` (`t(X)·X` or `X·t(X)`,
/// `n1 == n3`) is the half schedule: only output cells `bi <= bj` run,
/// and a diagonal cell reads one operand strip — the other side is that
/// strip transposed in memory. Every output block is written once either
/// way. With `side` a whole number of tiles, an extent of `e` elements
/// from a panel boundary spans `⌈e/tile⌉` tiles, so the count below is the
/// schedule, tile for tile — `tests/cost_model_validation.rs` holds the
/// kernel to it with `==`.
pub fn square_tiled_schedule_io(
    n1: usize,
    n2: usize,
    n3: usize,
    gram: bool,
    p: CostParams,
) -> (u64, u64) {
    let tile = p.block_elems.sqrt() as usize;
    let side = panel_side(p.mem_elems, tile);
    let tiles = |n: usize| n.div_ceil(tile) as u64;
    // Tiles spanned by panel `b` of an `n`-long dimension.
    let span = |n: usize, b: usize| tiles(side.min(n - b * side));
    let mut reads = 0;
    for bi in 0..n1.div_ceil(side) {
        for bj in if gram { bi } else { 0 }..n3.div_ceil(side) {
            let b_strip = if gram && bi == bj { 0 } else { span(n3, bj) };
            reads += tiles(n2) * (span(n1, bi) + b_strip);
        }
    }
    (reads, tiles(n1) * tiles(n3))
}

/// I/O (blocks) of RIOT-DB's relational plan: hash join `A ⋈ B` on
/// `A.J = B.I`, then external sort of the n1·n2·n3 joined tuples by
/// `(A.I, B.J)` with aggregation on the final merge.
///
/// Following the paper's footnote 5, index-column storage overhead is
/// excluded (tuples are costed at one value each), which "has no effect on
/// the relative ordering of performance".
pub fn riotdb_matmul_io(n1: f64, n2: f64, n3: f64, p: CostParams) -> f64 {
    let b = p.block_elems;
    let a_blocks = n1 * n2 / b;
    let b_blocks = n2 * n3 / b;
    // Hash join: in-memory if the build side fits, else GRACE (partition
    // both inputs to disk, read back).
    let build = a_blocks.min(b_blocks);
    let join_io = if build * b <= p.mem_elems {
        a_blocks + b_blocks
    } else {
        3.0 * (a_blocks + b_blocks)
    };
    // Sort n1*n2*n3 tuples: run generation writes them, each merge pass
    // reads + writes, the final merge aggregates down to n1*n3.
    let tuples = n1 * n2 * n3;
    let sort_blocks = tuples / b;
    let runs = (tuples / p.mem_elems).ceil().max(1.0);
    let fan_in = (p.mem_elems / b - 1.0).max(2.0);
    let passes = if runs <= 1.0 {
        1.0
    } else {
        runs.log(fan_in).ceil().max(1.0)
    };
    let sort_io = 2.0 * sort_blocks * passes;
    join_io + sort_io + n1 * n3 / b
}

// ---- sparse-format costs (riot-sparse subsystem) -----------------------

/// Expected fraction of tiles holding at least one non-zero when elements
/// are non-zero independently with probability `density` and a tile holds
/// `tile_elems` elements. This is the statistic that converts the
/// catalog's nnz into an I/O estimate: a sparse scan reads only occupied
/// pages.
pub fn occupied_fraction(density: f64, tile_elems: f64) -> f64 {
    (1.0 - (1.0 - density.clamp(0.0, 1.0)).powf(tile_elems)).clamp(0.0, 1.0)
}

/// Expected occupied tiles of an `n1 x n2` matrix at `density` under the
/// square tiling ([`occupied_fraction`] of the tile grid).
fn occupied_tiles(n1: f64, n2: f64, density: f64, p: CostParams) -> f64 {
    let side = p.block_elems.sqrt();
    (n1 / side).ceil() * (n2 / side).ceil() * occupied_fraction(density, p.block_elems)
}

/// Expected `(data pages, directory blocks)` of an `n1 x n2` sparse
/// matrix at `density` in the packed format of `riot-sparse`: occupied
/// tiles share pages, so the pages are the payload elements over the
/// block size, and the run directory holds one count per tile-row plus
/// four values per occupied tile. The payload of the average occupied
/// tile (`nnz / occupied`) is priced in the form that nnz selects:
/// triples up to a tile side of non-zeros, CSR up to its capacity, the
/// dense tile above.
pub fn sparse_blocks(n1: f64, n2: f64, density: f64, p: CostParams) -> (f64, f64) {
    let b = p.block_elems;
    let side = b.sqrt();
    let tile_rows = (n1 / side).ceil();
    let occupied = occupied_tiles(n1, n2, density, p);
    if occupied == 0.0 {
        return (0.0, (tile_rows / b).ceil());
    }
    let per_tile = density.clamp(0.0, 1.0) * n1 * n2 / occupied;
    let payload = if per_tile <= side {
        3.0 * per_tile
    } else if per_tile <= (b - side - 1.0) / 2.0 {
        side + 1.0 + 2.0 * per_tile
    } else {
        b
    };
    (
        (occupied * payload / b).ceil(),
        ((tile_rows + 4.0 * occupied) / b).ceil(),
    )
}

/// I/O (blocks) of out-of-core sparse matrix-vector multiply `y = A x`
/// for an `n1 x n2` matrix at `density`, opened cold: run directory +
/// packed data pages ([`sparse_blocks`]) + `x` (once when it fits in
/// memory, else once per tile-row) + one write of `y`.
pub fn spmv_io(n1: f64, n2: f64, density: f64, p: CostParams) -> f64 {
    let b = p.block_elems;
    let (pages, dir) = sparse_blocks(n1, n2, density, p);
    dir + pages + x_passes(n1, n2, p) * (n2 / b).ceil() + n1 / b
}

/// How often a matrix-vector kernel streams `x`: once when it fits in
/// memory, else once per tile-row.
fn x_passes(n1: f64, n2: f64, p: CostParams) -> f64 {
    if n2 <= p.mem_elems {
        1.0
    } else {
        (n1 / p.block_elems.sqrt()).ceil().max(1.0)
    }
}

/// I/O (blocks) of the dense matrix-vector multiply the sparse kernel is
/// compared against: every tile, plus `x` (as in [`spmv_io`]), plus `y`.
pub fn dmv_io(n1: f64, n2: f64, p: CostParams) -> f64 {
    let b = p.block_elems;
    (n1 * n2 / b).ceil() + x_passes(n1, n2, p) * (n2 / b).ceil() + n1 / b
}

/// I/O (blocks) of sparse `A (n1 x n2, density)` times dense
/// `B (n2 x n3)`, `A` opened cold: run directory + packed data pages of
/// `A` ([`sparse_blocks`]), plus the square-tiled block-rows of `B` —
/// each once when `B` fits in memory, else once per occupied `A` tile —
/// plus the dense output.
pub fn spmdm_io(n1: f64, n2: f64, n3: f64, density: f64, p: CostParams) -> f64 {
    let b = p.block_elems;
    let side = b.sqrt();
    let (pages, dir) = sparse_blocks(n1, n2, density, p);
    let b_row = (n3 / side).ceil();
    let b_rows = if n2 * n3 <= p.mem_elems {
        (n2 / side).ceil()
    } else {
        occupied_tiles(n1, n2, density, p)
    };
    dir + pages + b_rows * b_row + n1 * n3 / b
}

/// Default density threshold for the optimizer's sparse-vs-dense kernel
/// choice. Below it the sparse kernels win on both skipped pages and
/// skipped multiplications; above it page occupancy saturates (see
/// [`occupied_fraction`]) and the dense kernels' sequential scans and
/// tighter inner loops win.
pub const SPARSE_DENSITY_THRESHOLD: f64 = 0.25;

/// I/O (blocks) for multiplying an `n1 x n2` by an `n2 x n3` matrix under
/// `strategy`.
pub fn matmul_io(strategy: MatMulStrategy, n1: f64, n2: f64, n3: f64, p: CostParams) -> f64 {
    match strategy {
        MatMulStrategy::RiotDb => riotdb_matmul_io(n1, n2, n3, p),
        MatMulStrategy::BnljInspired => bnlj_io(n1, n2, n3, p),
        MatMulStrategy::SquareTiled => square_tiled_io(n1, n2, n3, p),
    }
}

/// Number of scalar multiplications for a single product.
pub fn matmul_flops(n1: f64, n2: f64, n3: f64) -> f64 {
    n1 * n2 * n3
}

/// A parenthesization of a matrix chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainTree {
    /// The `i`-th input matrix (0-based).
    Leaf(usize),
    /// Product of two subtrees.
    Mul(Box<ChainTree>, Box<ChainTree>),
}

impl ChainTree {
    /// The left-deep tree `((A1 A2) A3) ...` — program order, what R does.
    pub fn in_order(k: usize) -> ChainTree {
        assert!(k >= 1);
        let mut t = ChainTree::Leaf(0);
        for i in 1..k {
            t = ChainTree::Mul(Box::new(t), Box::new(ChainTree::Leaf(i)));
        }
        t
    }

    /// Render with explicit parentheses, e.g. `((A1 A2) A3)`.
    pub fn render(&self) -> String {
        match self {
            ChainTree::Leaf(i) => format!("A{}", i + 1),
            ChainTree::Mul(l, r) => format!("({} {})", l.render(), r.render()),
        }
    }

    /// `(rows, cols)` of the subtree result given chain dimensions
    /// `dims[i] x dims[i+1]` for matrix `i`.
    pub fn dims(&self, dims: &[usize]) -> (usize, usize) {
        match self {
            ChainTree::Leaf(i) => (dims[*i], dims[*i + 1]),
            ChainTree::Mul(l, r) => (l.dims(dims).0, r.dims(dims).1),
        }
    }

    /// Total scalar multiplications to evaluate the tree.
    pub fn flops(&self, dims: &[usize]) -> f64 {
        match self {
            ChainTree::Leaf(_) => 0.0,
            ChainTree::Mul(l, r) => {
                let (n1, n2) = l.dims(dims);
                let (_, n3) = r.dims(dims);
                l.flops(dims) + r.flops(dims) + matmul_flops(n1 as f64, n2 as f64, n3 as f64)
            }
        }
    }

    /// Total I/O (blocks) to evaluate the tree, charging each
    /// multiplication at `strategy` (intermediates are materialized, as in
    /// Appendix B's optimal schedule).
    pub fn io(&self, dims: &[usize], strategy: MatMulStrategy, p: CostParams) -> f64 {
        match self {
            ChainTree::Leaf(_) => 0.0,
            ChainTree::Mul(l, r) => {
                let (n1, n2) = l.dims(dims);
                let (_, n3) = r.dims(dims);
                l.io(dims, strategy, p)
                    + r.io(dims, strategy, p)
                    + matmul_io(strategy, n1 as f64, n2 as f64, n3 as f64, p)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p2gb() -> CostParams {
        CostParams::with_mem_gb(2.0)
    }

    #[test]
    fn mem_gb_conversion() {
        let p = p2gb();
        assert!((p.mem_elems - 268_435_456.0).abs() < 1.0);
        assert_eq!(p.block_elems, 1024.0);
    }

    #[test]
    fn strategy_ordering_matches_figure_3a() {
        // n = 100000, s = 2, M = 2 GB: the paper's progression
        // RIOT-DB >> BNLJ-Inspired >> Square must hold for the first
        // multiplication A(n x n/s) * B(n/s x n).
        let p = p2gb();
        let (n, s) = (100_000.0, 2.0);
        let riotdb = riotdb_matmul_io(n, n / s, n, p);
        let bnlj = bnlj_io(n, n / s, n, p);
        let square = square_tiled_io(n, n / s, n, p);
        assert!(riotdb > 100.0 * bnlj, "riotdb={riotdb:.3e} bnlj={bnlj:.3e}");
        assert!(bnlj > 2.0 * square, "bnlj={bnlj:.3e} square={square:.3e}");
        // Orders of magnitude as in the figure (~1e12, ~1e8-9, ~1e8).
        assert!(riotdb > 1e11 && riotdb < 1e14);
        assert!(square > 1e7 && square < 1e9);
    }

    #[test]
    fn square_matches_lower_bound_formula() {
        let p = p2gb();
        let (n1, n2, n3) = (100_000.0, 50_000.0, 100_000.0);
        let want = 2.0 * 3.0f64.sqrt() * n1 * n2 * n3 / (p.block_elems * p.mem_elems.sqrt())
            + n1 * n3 / p.block_elems;
        let got = square_tiled_io(n1, n2, n3, p);
        assert!((got - want).abs() / want < 1e-12);
    }

    #[test]
    fn square_degenerates_when_in_memory() {
        let p = CostParams {
            mem_elems: 1e6,
            block_elems: 1024.0,
        };
        // 100x100 matrices fit in sqrt(1e6/3) ~ 577 square: scan-only cost.
        let got = square_tiled_io(100.0, 100.0, 100.0, p);
        assert!((got - 3.0 * 10_000.0 / 1024.0).abs() < 1e-9);
    }

    #[test]
    fn more_memory_reduces_io() {
        let p2 = CostParams::with_mem_gb(2.0);
        let p4 = CostParams::with_mem_gb(4.0);
        let (n1, n2, n3) = (100_000.0, 50_000.0, 100_000.0);
        for strat in [MatMulStrategy::BnljInspired, MatMulStrategy::SquareTiled] {
            assert!(
                matmul_io(strat, n1, n2, n3, p4) < matmul_io(strat, n1, n2, n3, p2),
                "{strat:?}"
            );
        }
        // RIOT-DB's cost is dominated by integral sort passes, which may
        // not change between 2 GB and 4 GB — it must at least not grow.
        assert!(
            matmul_io(MatMulStrategy::RiotDb, n1, n2, n3, p4)
                <= matmul_io(MatMulStrategy::RiotDb, n1, n2, n3, p2)
        );
    }

    #[test]
    fn naive_col_vs_row_layout() {
        let p = p2gb();
        let (n1, n2, n3) = (10_000.0, 10_000.0, 10_000.0);
        let col = naive_colmajor_io(n1, n2, n3, p);
        let row = naive_rowlayout_io(n1, n2, n3, p);
        // Row layout wins by ~B.
        assert!(col / row > 500.0);
    }

    #[test]
    fn occupied_fraction_properties() {
        // Monotone in density, 0 at 0, saturating toward 1.
        assert_eq!(occupied_fraction(0.0, 1024.0), 0.0);
        assert!(occupied_fraction(0.001, 1024.0) < occupied_fraction(0.01, 1024.0));
        // At B = 1024 occupancy saturates well below the kernel threshold:
        // the analytic justification for SPARSE_DENSITY_THRESHOLD.
        assert!(occupied_fraction(0.01, 1024.0) > 0.99);
        // Smaller tiles keep sparsity visible much longer.
        assert!(occupied_fraction(0.01, 64.0) < 0.5);
        assert!(occupied_fraction(1.0, 64.0) <= 1.0);
    }

    #[test]
    fn spmv_cheaper_than_dense_below_saturation() {
        let p = CostParams {
            mem_elems: 1e6,
            block_elems: 64.0,
        };
        let (n1, n2) = (4096.0, 4096.0);
        for d in [0.0001, 0.001, 0.01] {
            assert!(
                spmv_io(n1, n2, d, p) < dmv_io(n1, n2, p),
                "sparse must win at density {d}"
            );
        }
        // Saturated: sparse approaches (and never beats by much) dense +
        // the directory overhead.
        let sat = spmv_io(n1, n2, 0.5, p);
        let dense = dmv_io(n1, n2, p);
        assert!(sat >= dense && sat < 1.1 * dense);
    }

    #[test]
    fn spmdm_io_tracks_occupancy() {
        let p = CostParams {
            mem_elems: 1e6,
            block_elems: 1024.0,
        };
        let (n1, n2, n3) = (10_000.0, 10_000.0, 10_000.0);
        let lo = spmdm_io(n1, n2, n3, 0.0001, p);
        let hi = spmdm_io(n1, n2, n3, 0.5, p);
        assert!(lo < hi);
        // Fully occupied, the sparse plan degenerates to reading every
        // page of A plus a block-row of B per page plus the output.
        let occ_all = n1 * n2 / p.block_elems;
        assert!(hi >= occ_all);
    }

    #[test]
    fn in_order_tree_structure() {
        let t = ChainTree::in_order(3);
        assert_eq!(t.render(), "((A1 A2) A3)");
        assert_eq!(t.dims(&[2, 3, 4, 5]), (2, 5));
    }

    #[test]
    fn chain_flops_example_2() {
        // A(10x20) B(20x30) C(30x40):
        // (AB)C = 10*20*30 + 10*30*40 = 18000
        // A(BC) = 20*30*40 + 10*20*40 = 32000
        let dims = [10, 20, 30, 40];
        let left = ChainTree::in_order(3);
        let right = ChainTree::Mul(
            Box::new(ChainTree::Leaf(0)),
            Box::new(ChainTree::Mul(
                Box::new(ChainTree::Leaf(1)),
                Box::new(ChainTree::Leaf(2)),
            )),
        );
        assert_eq!(left.flops(&dims), 18_000.0);
        assert_eq!(right.flops(&dims), 32_000.0);
    }

    #[test]
    fn skewed_chain_prefers_right_association() {
        // The paper's skew setup: A(n x n/s), B(n/s x n), C(n x n) makes
        // A(BC) cheaper than (AB)C in both flops and I/O.
        let n = 100_000;
        let s = 4;
        let dims = [n, n / s, n, n];
        let left = ChainTree::in_order(3);
        let right = ChainTree::Mul(
            Box::new(ChainTree::Leaf(0)),
            Box::new(ChainTree::Mul(
                Box::new(ChainTree::Leaf(1)),
                Box::new(ChainTree::Leaf(2)),
            )),
        );
        assert!(right.flops(&dims) < left.flops(&dims));
        let p = p2gb();
        assert!(
            right.io(&dims, MatMulStrategy::SquareTiled, p)
                < left.io(&dims, MatMulStrategy::SquareTiled, p)
        );
    }
}
