//! DAG rewrite rules: RIOT's database-style optimizations (§5).
//!
//! The flagship rule is **subscript pushdown** — Figure 2's transformation.
//! For `b <- a^2; b[b>100] <- 100; print(b[1:10])` the selection of the
//! first 10 elements is pushed below the functional update `[]<-` and the
//! squaring, all the way onto `a`, so only 10 elements are ever computed.
//!
//! Rules implemented:
//!
//! * `MaskAssign(d, m, v)  ->  IfElse(m, v, d)` — a masked functional
//!   update *is* an elementwise conditional, which unlocks pushdown
//!   through it.
//! * `Gather(Map(f, x), i)      -> Map(f, Gather(x, i))`
//! * `Gather(Zip(op, a, b), i)  -> Zip(op, push(a), push(b))` where
//!   recycled operands get their indices re-mapped through `((i-1) %% len)+1`
//! * `Gather(IfElse(c,y,n), i)  -> IfElse(push(c), push(y), push(n))`
//! * `Gather(Gather(x, j), i)   -> Gather(x, Gather(j, i))` when every
//!   entry of `j` is known in bounds (a literal, a range, or a subscript
//!   of one)
//! * `Gather(x, 1:len(x))       -> x`
//! * constant folding of scalar subtrees, `x^2 -> square(x)`,
//!   `x*1 -> x`, `x+0 -> x`, `0-x -> -x`, double negation, double
//!   transpose, and scalar-condition `IfElse` selection.
//!
//! Every rule is semantics-preserving, errors included: a subscript's
//! bounds check and truncation are part of its meaning, so **a rewrite may
//! remove a `Gather` only if the subscript check survives elsewhere in the
//! plan** (pushdown keeps it on the full-length operands; composition is
//! limited to subscripts known in bounds; a `Gather` of a `Range` stays,
//! and the executor probes the sequence without I/O). `tests/prop_core.rs`
//! checks rewritten DAGs against the reference evaluator on random
//! programs, out-of-range and fractional subscripts included.

use std::collections::HashMap;

use crate::exec::pipeline::position;
use crate::expr::{BinOp, Node, NodeId, UnOp};
use crate::graph::ExprGraph;
use crate::shape::Shape;

/// Which rule families to apply (ablation switches).
#[derive(Debug, Clone, Copy)]
pub struct OptConfig {
    /// Enable subscript pushdown (Figure 2).
    pub pushdown: bool,
    /// Density at or above which a sparse `MatMul` operand is densified so
    /// the dense kernels run instead (the sparse-vs-dense physical plan
    /// choice, estimated from the catalog's nnz). `0.0` always densifies;
    /// anything above `1.0` always keeps the sparse kernels.
    pub sparse_threshold: f64,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            pushdown: true,
            sparse_threshold: crate::cost::SPARSE_DENSITY_THRESHOLD,
        }
    }
}

/// Counters describing what the optimizer did (reported by the Figure 2
/// harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// `MaskAssign -> IfElse` conversions.
    pub mask_to_ifelse: u64,
    /// Subscripts pushed through an operator.
    pub gathers_pushed: u64,
    /// Constants folded / identities simplified.
    pub folds: u64,
    /// Matrix chains reordered.
    pub chains_reordered: u64,
    /// `MatMul` operands kept sparse (density below the threshold).
    pub sparse_kernels: u64,
    /// `MatMul` operands densified (density at or above the threshold).
    pub sparse_densified: u64,
    /// Transposes of sparse-valued inputs planned on the native sparse
    /// kernel (density below the threshold): `Transpose -> SpTranspose`.
    pub sparse_transposes: u64,
    /// Transposes of sparse-valued inputs densified before transposing
    /// (density at or above the threshold).
    pub transpose_densified: u64,
    /// `solve(crossprod(x), ...)` patterns recognized as normal-equations
    /// solves: the Gram-matrix coefficient certifies positive definiteness
    /// structurally, so the plan commits to the Cholesky kernel (the
    /// inverse is never materialized).
    pub normal_eq_solves: u64,
    /// Dense `Transpose` operands the executor fused into their product as
    /// an operand flag instead of materializing (counted at execution,
    /// after the logical plan is fixed — the plan still shows `t(x)`).
    pub transposes_fused: u64,
    /// Products of one stored matrix with its own transpose run on the
    /// half (upper-triangle) tiled schedule.
    pub gram_products: u64,
    /// Pending aggregates that rode along in the batch of the one that was
    /// observed — members beyond the first, folded in the same pass
    /// (counted at execution, like the two above).
    pub aggregates_batched: u64,
}

/// Rewrite the DAG rooted at `root`, returning the new root.
pub fn rewrite(
    g: &mut ExprGraph,
    root: NodeId,
    cfg: &OptConfig,
    stats: &mut RewriteStats,
) -> NodeId {
    let mut memo: HashMap<NodeId, NodeId> = HashMap::new();
    rw(g, root, cfg, stats, &mut memo)
}

fn rw(
    g: &mut ExprGraph,
    id: NodeId,
    cfg: &OptConfig,
    stats: &mut RewriteStats,
    memo: &mut HashMap<NodeId, NodeId>,
) -> NodeId {
    if let Some(&r) = memo.get(&id) {
        return r;
    }
    if g.node(id).is_leaf() {
        return id;
    }
    // Children first, whatever the operator; then only the operators that
    // have a rule are named.
    let node = g.map_children(id, |g, child| rw(g, child, cfg, stats, memo));
    if let Some(x) = cancelled(g, &node) {
        stats.folds += 1;
        memo.insert(id, x);
        return x;
    }
    let out = match node {
        Node::Map(op, [input]) => build_map(g, op, input, stats),
        Node::Zip(op, [lhs, rhs]) => build_zip(g, op, lhs, rhs, stats),
        Node::IfElse([cond, yes, no]) => build_if_else(g, cond, yes, no, stats),
        Node::Gather([data, index]) if cfg.pushdown => build_gather(g, data, index, cfg, stats),
        Node::MaskAssign([data, mask, value]) => {
            // A masked functional update IS an elementwise conditional;
            // rewriting it as one turns a blocking modification into a
            // deferrable, pushdown-transparent operator (Figure 2).
            stats.mask_to_ifelse += 1;
            build_if_else(g, mask, value, data, stats)
        }
        Node::MatMul(operands) => {
            // Physical-plan choice for sparse operands: keep the sparse
            // kernel only below the density threshold, estimated from the
            // nnz statistic the catalog carries in the source node.
            let operands = operands.map(|x| choose_repr(g, x, cfg, stats));
            g.rebuilt(Node::MatMul(operands))
        }
        // Re-run the physical choice even for a planned `SpTranspose`: the
        // rewritten input may have changed representation.
        Node::Transpose([input]) | Node::SpTranspose([input]) => {
            build_transpose(g, input, cfg, stats)
        }
        Node::Solve([lhs, _]) => {
            // Normal-equations detection: a coefficient of the form
            // t(x) %*% x is a Gram matrix — positive (semi-)definite by
            // construction — so the plan is certified for the Cholesky
            // kernel without materializing an inverse. Hash-consing has
            // already shared the t(x) between `crossprod(x)` and
            // `crossprod(x, y)`, so the rewritten plan computes the
            // transpose once.
            if gram_operand(g, lhs).is_some() {
                stats.normal_eq_solves += 1;
            }
            g.rebuilt(node)
        }
        unchanged => g.rebuilt(unchanged),
    };
    memo.insert(id, out);
    out
}

/// `x` when `node` is `outer(inner(x))` for a pair that undoes itself: the
/// representation conversions (the input of a `Sparsify` is dense-valued
/// by construction, that of a `Densify` sparse-valued), and `t(t(x))`
/// whichever kernel either transpose was planned on — representation does
/// not change the algebra.
fn cancelled(g: &ExprGraph, node: &Node) -> Option<NodeId> {
    use Node::{Densify, SpTranspose, Sparsify, Transpose};
    let &[inner] = node.children() else {
        return None;
    };
    match (node, g.node(inner)) {
        (Densify(_), Sparsify([x]))
        | (Sparsify(_), Densify([x]))
        | (Transpose(_) | SpTranspose(_), Transpose([x]) | SpTranspose([x])) => Some(*x),
        _ => None,
    }
}

/// If `id` is a Gram matrix `t(x) %*% x` (either transpose kernel, seen
/// through representation conversions), return `x`.
fn gram_operand(g: &ExprGraph, id: NodeId) -> Option<NodeId> {
    // Representation conversions preserve the algebraic value.
    let strip = |g: &ExprGraph, mut id: NodeId| loop {
        match *g.node(id) {
            Node::Densify([input]) | Node::Sparsify([input]) => id = input,
            _ => return id,
        }
    };
    let Node::MatMul([lhs, rhs]) = *g.node(strip(g, id)) else {
        return None;
    };
    match *g.node(strip(g, lhs)) {
        Node::Transpose([input]) | Node::SpTranspose([input])
            if strip(g, input) == strip(g, rhs) =>
        {
            Some(input)
        }
        _ => None,
    }
}

/// Statistics of a node the optimizer knows to be sparse-valued, from the
/// catalog-carried nnz: `(rows, cols, nnz)`. Sees through
/// [`Node::SpTranspose`] (same non-zeros, swapped dimensions), so density
/// decisions push through planned transposes.
fn sparse_stats(g: &ExprGraph, id: NodeId) -> Option<(usize, usize, u64)> {
    match *g.node(id) {
        Node::SpMatSource {
            rows, cols, nnz, ..
        } => Some((rows, cols, nnz)),
        Node::SpTranspose([input]) => sparse_stats(g, input).map(|(r, c, n)| (c, r, n)),
        _ => None,
    }
}

/// Decide a `MatMul` operand's physical representation: a sparse-valued
/// operand (source or planned transpose) whose density meets
/// `cfg.sparse_threshold` is densified (the dense kernels' sequential
/// scans win once page occupancy saturates); below the threshold it stays
/// sparse and the executor dispatches the sparse kernels — on *either*
/// side of the product (`spmdm` with the sparse side for sparse x dense
/// and dense x sparse, `spmm` for sparse x sparse).
fn choose_repr(g: &mut ExprGraph, id: NodeId, cfg: &OptConfig, stats: &mut RewriteStats) -> NodeId {
    if let Some((rows, cols, nnz)) = sparse_stats(g, id) {
        let density = nnz as f64 / (rows * cols) as f64;
        if density >= cfg.sparse_threshold {
            stats.sparse_densified += 1;
            return g.rebuilt(Node::Densify([id]));
        }
        stats.sparse_kernels += 1;
    }
    id
}

/// Build a transpose applying the physical-representation choice: a
/// sparse-valued input below the density threshold transposes on the
/// native sparse kernel ([`Node::SpTranspose`], result stays sparse); at
/// or above it, the input densifies first. Anything whose representation
/// the optimizer cannot see keeps the representation-generic
/// [`Node::Transpose`].
fn build_transpose(
    g: &mut ExprGraph,
    input: NodeId,
    cfg: &OptConfig,
    stats: &mut RewriteStats,
) -> NodeId {
    if let Some((rows, cols, nnz)) = sparse_stats(g, input) {
        let density = nnz as f64 / (rows * cols) as f64;
        if density < cfg.sparse_threshold {
            stats.sparse_transposes += 1;
            return g.rebuilt(Node::SpTranspose([input]));
        }
        stats.transpose_densified += 1;
        let dense = g.rebuilt(Node::Densify([input]));
        return g.rebuilt(Node::Transpose([dense]));
    }
    g.rebuilt(Node::Transpose([input]))
}

/// Build `Map(op, input)` applying local simplifications.
fn build_map(g: &mut ExprGraph, op: UnOp, input: NodeId, stats: &mut RewriteStats) -> NodeId {
    // Constant folding.
    if let Node::Scalar(c) = *g.node(input) {
        stats.folds += 1;
        return g.scalar(op.apply(c));
    }
    // Double negation.
    if op == UnOp::Neg {
        if let Node::Map(UnOp::Neg, [inner]) = *g.node(input) {
            stats.folds += 1;
            return inner;
        }
    }
    g.map(op, input)
}

/// Build `Zip(op, lhs, rhs)` applying local simplifications.
fn build_zip(
    g: &mut ExprGraph,
    op: BinOp,
    lhs: NodeId,
    rhs: NodeId,
    stats: &mut RewriteStats,
) -> NodeId {
    if let (Node::Scalar(a), Node::Scalar(b)) = (g.node(lhs), g.node(rhs)) {
        let v = op.apply(*a, *b);
        stats.folds += 1;
        return g.scalar(v);
    }
    if let Node::Scalar(c) = *g.node(rhs) {
        match (op, c) {
            // x ^ 2 -> square(x): the strength reduction that lets the
            // pipeline avoid powf.
            (BinOp::Pow, c) if c == 2.0 => {
                stats.folds += 1;
                return build_map(g, UnOp::Square, lhs, stats);
            }
            (BinOp::Pow, c) if c == 1.0 => {
                stats.folds += 1;
                return lhs;
            }
            (BinOp::Mul, c) if c == 1.0 => {
                stats.folds += 1;
                return lhs;
            }
            (BinOp::Div, c) if c == 1.0 => {
                stats.folds += 1;
                return lhs;
            }
            (BinOp::Add, c) if c == 0.0 => {
                stats.folds += 1;
                return lhs;
            }
            (BinOp::Sub, c) if c == 0.0 => {
                stats.folds += 1;
                return lhs;
            }
            _ => {}
        }
    }
    if let Node::Scalar(c) = *g.node(lhs) {
        match (op, c) {
            (BinOp::Mul, c) if c == 1.0 => {
                stats.folds += 1;
                return rhs;
            }
            (BinOp::Add, c) if c == 0.0 => {
                stats.folds += 1;
                return rhs;
            }
            (BinOp::Sub, c) if c == 0.0 => {
                stats.folds += 1;
                return build_map(g, UnOp::Neg, rhs, stats);
            }
            _ => {}
        }
    }
    g.rebuilt(Node::Zip(op, [lhs, rhs]))
}

/// Build `IfElse(cond, yes, no)` applying scalar-condition selection.
fn build_if_else(
    g: &mut ExprGraph,
    cond: NodeId,
    yes: NodeId,
    no: NodeId,
    stats: &mut RewriteStats,
) -> NodeId {
    if let Node::Scalar(c) = *g.node(cond) {
        let chosen = if c != 0.0 { yes } else { no };
        // Only select the branch if it has the full result shape
        // (otherwise the conditional's broadcast would be lost).
        let full = g
            .shape(cond)
            .broadcast(&g.shape(yes))
            .broadcast(&g.shape(no));
        if g.shape(chosen) == full {
            stats.folds += 1;
            return chosen;
        }
    }
    g.rebuilt(Node::IfElse([cond, yes, no]))
}

/// Build `Gather(data, index)` with pushdown: the heart of Figure 2.
fn build_gather(
    g: &mut ExprGraph,
    data: NodeId,
    index: NodeId,
    cfg: &OptConfig,
    stats: &mut RewriteStats,
) -> NodeId {
    if let Shape::Vector(data_len) = g.shape(data) {
        // Identity: x[1:len(x)] is x.
        if matches!(*g.node(index), Node::Range { start: 1, len } if len == data_len) {
            stats.folds += 1;
            return data;
        }
        // Sources, literals, ranges, SubAssign and matrix ops fall through:
        // the executor probes them directly (or materializes SubAssign),
        // and the subscript keeps its bounds check and truncation.
        match *g.node(data) {
            Node::Map(op, [input]) => {
                stats.gathers_pushed += 1;
                let pushed = push_operand(g, input, index, data_len, cfg, stats);
                return build_map(g, op, pushed, stats);
            }
            Node::Zip(op, operands) => {
                stats.gathers_pushed += 1;
                let [pl, pr] = operands.map(|x| push_operand(g, x, index, data_len, cfg, stats));
                return build_zip(g, op, pl, pr, stats);
            }
            Node::IfElse(operands) => {
                stats.gathers_pushed += 1;
                let [pc, py, pn] =
                    operands.map(|x| push_operand(g, x, index, data_len, cfg, stats));
                return build_if_else(g, pc, py, pn, stats);
            }
            // x[j][i] = x[j[i]] — which stops checking the entries of `j`
            // that `i` does not select, so only for a `j` known in bounds.
            Node::Gather([inner, j]) if in_bounds(g, j, g.shape(inner).len()) => {
                stats.gathers_pushed += 1;
                let ji = build_gather(g, j, index, cfg, stats);
                return build_gather(g, inner, ji, cfg, stats);
            }
            _ => {}
        }
    }
    g.rebuilt(Node::Gather([data, index]))
}

/// True when every element of `id` is known to be a valid subscript of a
/// `len`-element vector: decidable for the small index sets the optimizer
/// can see — literals, ranges, and subscripts of those.
fn in_bounds(g: &ExprGraph, id: NodeId, len: usize) -> bool {
    match g.node(id) {
        Node::Literal(values) => values.iter().all(|&v| position(v, len).is_ok()),
        Node::Range { start, len: k } => *k == 0 || (*start >= 1 && *start as usize + k - 1 <= len),
        Node::Gather([data, _]) => in_bounds(g, *data, len),
        _ => false,
    }
}

/// Push `index` into operand `n` of an elementwise node whose output length
/// is `out_len`, re-mapping indices for recycled (shorter) operands.
fn push_operand(
    g: &mut ExprGraph,
    n: NodeId,
    index: NodeId,
    out_len: usize,
    cfg: &OptConfig,
    stats: &mut RewriteStats,
) -> NodeId {
    match g.shape(n) {
        Shape::Scalar => n,
        Shape::Vector(l) if l == out_len => build_gather(g, n, index, cfg, stats),
        Shape::Vector(l) => {
            // Recycled operand: position p of the output reads element
            // ((p-1) mod l) + 1 of n.
            debug_assert!(l > 0 && out_len.is_multiple_of(l), "recycling invariant");
            let one = g.scalar(1.0);
            let len = g.scalar(l as f64);
            let zero_based = build_zip(g, BinOp::Sub, index, one, stats);
            let wrapped = build_zip(g, BinOp::Mod, zero_based, len, stats);
            let remapped = build_zip(g, BinOp::Add, wrapped, one, stats);
            build_gather(g, n, remapped, cfg, stats)
        }
        _ => build_gather(g, n, index, cfg, stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, MemSources, Value};
    use crate::expr::SourceRef;

    fn no_stats() -> RewriteStats {
        RewriteStats::default()
    }

    #[test]
    fn figure_2_pushdown_shrinks_the_dag() {
        // b <- a^2; b[b>100] <- 100; b[1:10] with a of length 1000.
        let mut g = ExprGraph::new();
        let a = g.vec_source(SourceRef(0), 1000);
        let two = g.scalar(2.0);
        let b = g.zip(BinOp::Pow, a, two).unwrap();
        let hundred = g.scalar(100.0);
        let mask = g.zip(BinOp::Gt, b, hundred).unwrap();
        let b2 = g.mask_assign(b, mask, hundred).unwrap();
        let idx = g.range(1, 10);
        let z = g.gather(b2, idx).unwrap();

        let mut stats = no_stats();
        let opt = rewrite(&mut g, z, &OptConfig::default(), &mut stats);

        assert!(stats.mask_to_ifelse >= 1);
        assert!(stats.gathers_pushed >= 2);
        // After pushdown every non-source node in the optimized DAG is
        // 10 elements or scalar — nothing n-sized is computed.
        for id in g.reachable(&[opt]) {
            match g.node(id) {
                Node::VecSource { .. } => {}
                _ => {
                    let len = g.shape(id).len();
                    assert!(len <= 10, "node {} still {}-sized", g.render(id), len);
                }
            }
        }
    }

    #[test]
    fn figure_2_pushdown_preserves_semantics() {
        let mut g = ExprGraph::new();
        let mut src = MemSources::new();
        let a_data: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        let a_ref = src.add_vector(a_data);
        let a = g.vec_source(a_ref, 50);
        let two = g.scalar(2.0);
        let b = g.zip(BinOp::Pow, a, two).unwrap();
        let hundred = g.scalar(100.0);
        let mask = g.zip(BinOp::Gt, b, hundred).unwrap();
        let b2 = g.mask_assign(b, mask, hundred).unwrap();
        let idx = g.range(1, 10);
        let z = g.gather(b2, idx).unwrap();

        let want = evaluate(&g, z, &src).unwrap();
        let mut stats = no_stats();
        let opt = rewrite(&mut g, z, &OptConfig::default(), &mut stats);
        let got = evaluate(&g, opt, &src).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn pushdown_through_recycled_operand() {
        // (x + c(10, 20))[c(3, 2)] where x has length 6: operand recycling
        // must be re-mapped, not broken.
        let mut g = ExprGraph::new();
        let mut src = MemSources::new();
        let x_ref = src.add_vector(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = g.vec_source(x_ref, 6);
        let lit = g.literal(vec![10.0, 20.0]);
        let sum = g.zip(BinOp::Add, x, lit).unwrap();
        let idx = g.literal(vec![3.0, 2.0]);
        let z = g.gather(sum, idx).unwrap();

        let want = evaluate(&g, z, &src).unwrap();
        assert_eq!(want, Value::vector(vec![13.0, 22.0]));
        let mut stats = no_stats();
        let opt = rewrite(&mut g, z, &OptConfig::default(), &mut stats);
        assert_eq!(evaluate(&g, opt, &src).unwrap(), want);
        assert!(stats.gathers_pushed >= 1);
    }

    #[test]
    fn gather_of_range_matches_the_oracle_errors_included() {
        // A rewrite may remove a Gather only if the subscript check
        // survives elsewhere in the plan: r[i] keeps its bounds check and
        // truncation, directly and through pushdown ((r * 2)[i]).
        let src = MemSources::new();
        let cases: [&[f64]; 6] = [
            &[1.0, 50.0, 100.0],
            &[101.0],
            &[0.0],
            &[-1.0],
            &[2.7, 3.2],
            &[1.5],
        ];
        for idx in cases {
            for doubled in [false, true] {
                let mut g = ExprGraph::new();
                let mut data = g.range(5, 100); // 5..104
                if doubled {
                    let two = g.scalar(2.0);
                    data = g.zip(BinOp::Mul, data, two).unwrap();
                }
                let idx = g.literal(idx.to_vec());
                let z = g.gather(data, idx).unwrap();
                let want = evaluate(&g, z, &src);
                let opt = rewrite(&mut g, z, &OptConfig::default(), &mut no_stats());
                assert_eq!(evaluate(&g, opt, &src), want, "{}", g.render(z));
            }
        }
    }

    #[test]
    fn nested_gathers_compose() {
        let mut g = ExprGraph::new();
        let mut src = MemSources::new();
        let x_ref = src.add_vector(vec![10.0, 20.0, 30.0, 40.0]);
        let x = g.vec_source(x_ref, 4);
        let j = g.literal(vec![4.0, 3.0, 2.0, 1.0]);
        let xi = g.gather(x, j).unwrap();
        let i = g.literal(vec![2.0]);
        let z = g.gather(xi, i).unwrap();
        let want = evaluate(&g, z, &src).unwrap();
        let mut stats = no_stats();
        let opt = rewrite(&mut g, z, &OptConfig::default(), &mut stats);
        assert_eq!(evaluate(&g, opt, &src).unwrap(), want);
    }

    #[test]
    fn full_slice_gather_is_identity() {
        let mut g = ExprGraph::new();
        let x = g.vec_source(SourceRef(0), 8);
        let idx = g.range(1, 8);
        let z = g.gather(x, idx).unwrap();
        let mut stats = no_stats();
        let opt = rewrite(&mut g, z, &OptConfig::default(), &mut stats);
        assert_eq!(opt, x);
    }

    #[test]
    fn constant_folding_and_identities() {
        let mut g = ExprGraph::new();
        let x = g.vec_source(SourceRef(0), 4);
        let mut stats = no_stats();

        // sqrt(16) folds.
        let sixteen = g.scalar(16.0);
        let s = g.map(UnOp::Sqrt, sixteen);
        let opt = rewrite(&mut g, s, &OptConfig::default(), &mut stats);
        assert_eq!(*g.node(opt), Node::Scalar(4.0));

        // x * 1 -> x; x + 0 -> x; x ^ 1 -> x.
        let one = g.scalar(1.0);
        let zero = g.scalar(0.0);
        let m = g.zip(BinOp::Mul, x, one).unwrap();
        let a = g.zip(BinOp::Add, m, zero).unwrap();
        let p = g.zip(BinOp::Pow, a, one).unwrap();
        let opt = rewrite(&mut g, p, &OptConfig::default(), &mut stats);
        assert_eq!(opt, x);

        // 0 - x -> -x.
        let sub = g.zip(BinOp::Sub, zero, x).unwrap();
        let opt = rewrite(&mut g, sub, &OptConfig::default(), &mut stats);
        assert!(matches!(*g.node(opt), Node::Map(UnOp::Neg, _)));
    }

    #[test]
    fn pow_two_strength_reduces() {
        let mut g = ExprGraph::new();
        let x = g.vec_source(SourceRef(0), 4);
        let two = g.scalar(2.0);
        let p = g.zip(BinOp::Pow, x, two).unwrap();
        let mut stats = no_stats();
        let opt = rewrite(&mut g, p, &OptConfig::default(), &mut stats);
        assert!(matches!(*g.node(opt), Node::Map(UnOp::Square, _)));
    }

    #[test]
    fn sparse_transpose_routes_by_density() {
        // Below the threshold: t(sparse) plans the native sparse kernel.
        let mut g = ExprGraph::new();
        let sp = g.sp_mat_source(SourceRef(0), 100, 100, 50); // density 0.005
        let t = g.transpose(sp).unwrap();
        let mut stats = no_stats();
        let opt = rewrite(&mut g, t, &OptConfig::default(), &mut stats);
        assert!(matches!(*g.node(opt), Node::SpTranspose(_)), "stays sparse");
        assert_eq!(stats.sparse_transposes, 1);
        assert_eq!(stats.transpose_densified, 0);

        // At/above the threshold: densify first, then a dense transpose.
        let mut g = ExprGraph::new();
        let sp = g.sp_mat_source(SourceRef(0), 10, 10, 60); // density 0.6
        let t = g.transpose(sp).unwrap();
        let mut stats = no_stats();
        let opt = rewrite(&mut g, t, &OptConfig::default(), &mut stats);
        let Node::Transpose([input]) = *g.node(opt) else {
            panic!("dense transpose expected, got {:?}", g.node(opt));
        };
        assert!(matches!(*g.node(input), Node::Densify(_)));
        assert_eq!(stats.transpose_densified, 1);
        assert_eq!(stats.sparse_transposes, 0);
    }

    #[test]
    fn double_sparse_transpose_cancels() {
        let mut g = ExprGraph::new();
        let sp = g.sp_mat_source(SourceRef(0), 64, 32, 10);
        let t = g.transpose(sp).unwrap();
        let tt = g.transpose(t).unwrap();
        let mut stats = no_stats();
        let opt = rewrite(&mut g, tt, &OptConfig::default(), &mut stats);
        assert_eq!(opt, sp, "t(t(A)) is A even through the sparse plan");
    }

    #[test]
    fn matmul_sees_through_planned_transpose() {
        // t(sparse) %*% dense: the transposed operand's density statistic
        // is visible through SpTranspose, so the product stays on the
        // sparse kernels below the threshold.
        let mut g = ExprGraph::new();
        let sp = g.sp_mat_source(SourceRef(0), 40, 80, 30); // density < 1%
        let t = g.transpose(sp).unwrap(); // 80x40
        let d = g.mat_source(SourceRef(1), 40, 8);
        let prod = g.matmul(t, d).unwrap();
        let mut stats = no_stats();
        let opt = rewrite(&mut g, prod, &OptConfig::default(), &mut stats);
        let Node::MatMul([lhs, _]) = *g.node(opt) else {
            panic!("matmul preserved")
        };
        assert!(matches!(*g.node(lhs), Node::SpTranspose(_)));
        assert_eq!(stats.sparse_transposes, 1);
        assert_eq!(stats.sparse_kernels, 1, "operand stayed sparse: {stats:?}");
        assert_eq!(stats.sparse_densified, 0);
    }

    #[test]
    fn dense_sparse_matmul_routes_by_density_on_the_rhs() {
        let run = |nnz: u64| {
            let mut g = ExprGraph::new();
            let d = g.mat_source(SourceRef(0), 16, 40);
            let sp = g.sp_mat_source(SourceRef(1), 40, 25, nnz);
            let prod = g.matmul(d, sp).unwrap();
            let mut stats = no_stats();
            let opt = rewrite(&mut g, prod, &OptConfig::default(), &mut stats);
            let Node::MatMul([_, rhs]) = *g.node(opt) else {
                panic!("matmul preserved")
            };
            (matches!(*g.node(rhs), Node::SpMatSource { .. }), stats)
        };
        // 1% density: the rhs stays sparse (the executor runs `spmdm` with
        // the sparse side on the right).
        let (sparse_rhs, stats) = run(10);
        assert!(sparse_rhs);
        assert_eq!((stats.sparse_kernels, stats.sparse_densified), (1, 0));
        // 60% density: the rhs densifies.
        let (sparse_rhs, stats) = run(600);
        assert!(!sparse_rhs);
        assert_eq!((stats.sparse_kernels, stats.sparse_densified), (0, 1));
    }

    #[test]
    fn double_transpose_cancels() {
        let mut g = ExprGraph::new();
        let m = g.mat_source(SourceRef(0), 3, 4);
        let t = g.transpose(m).unwrap();
        let tt = g.transpose(t).unwrap();
        let mut stats = no_stats();
        let opt = rewrite(&mut g, tt, &OptConfig::default(), &mut stats);
        assert_eq!(opt, m);
    }

    #[test]
    fn disabled_pushdown_leaves_gather_alone() {
        let mut g = ExprGraph::new();
        let x = g.vec_source(SourceRef(0), 100);
        let two = g.scalar(2.0);
        let sq = g.zip(BinOp::Pow, x, two).unwrap();
        let idx = g.literal(vec![5.0]);
        let z = g.gather(sq, idx).unwrap();
        let cfg = OptConfig {
            pushdown: false,
            ..OptConfig::default()
        };
        let mut stats = no_stats();
        let opt = rewrite(&mut g, z, &cfg, &mut stats);
        assert!(matches!(g.node(opt), Node::Gather(_)));
        assert_eq!(stats.gathers_pushed, 0);
    }

    #[test]
    fn scalar_ifelse_selects_branch() {
        let mut g = ExprGraph::new();
        let x = g.vec_source(SourceRef(0), 4);
        let y = g.vec_source(SourceRef(1), 4);
        let t = g.scalar(1.0);
        let ie = g.if_else(t, x, y).unwrap();
        let mut stats = no_stats();
        let opt = rewrite(&mut g, ie, &OptConfig::default(), &mut stats);
        assert_eq!(opt, x);
    }
}
