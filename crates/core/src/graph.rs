//! The expression graph: an arena of hash-consed nodes with shape
//! inference and reachability utilities.
//!
//! Hash-consing gives common-subexpression elimination for free: building
//! `(x - xs)^2` twice yields the same [`NodeId`], so the executor computes
//! shared work once — the DAG sharing the paper gets from SQL view reuse.

use std::collections::HashMap;
use std::sync::Arc;

use crate::expr::{AggOp, BinOp, ExprError, Node, NodeId, NodeKey, SourceRef, UnOp};
use crate::shape::Shape;

/// **The** shape-rule table: the result shape of `node` over children of
/// the given shapes, or why the operands do not conform. A rule is a
/// function of the operator and its children's shapes only, so it is also
/// what the eager engines check their stored operands against (operand
/// `i` standing in as child `i`) — one specification for all four engines.
pub fn shape_rule(node: &Node, shape: impl Fn(NodeId) -> Shape) -> Result<Shape, ExprError> {
    let expected = |what, got| Err(ExprError::Expected { what, got });
    let mismatch = |op, lhs, rhs| Err(ExprError::ShapeMismatch { lhs, rhs, op });
    let is_vector = |s| matches!(s, Shape::Vector(_));
    Ok(match *node {
        Node::VecSource { len, .. } | Node::Range { len, .. } => Shape::Vector(len),
        Node::MatSource { rows, cols, .. } | Node::SpMatSource { rows, cols, .. } => {
            Shape::Matrix(rows, cols)
        }
        Node::Literal(ref values) => Shape::Vector(values.len()),
        Node::Scalar(_) | Node::Agg(..) => Shape::Scalar,
        Node::Map(_, [input]) => shape(input),
        // R recycling: the shorter length must divide the longer.
        Node::Zip(op, [lhs, rhs]) => {
            let (ls, rs) = (shape(lhs), shape(rhs));
            if !ls.broadcasts_with(&rs) {
                return mismatch(op.name(), ls, rs);
            }
            ls.broadcast(&rs)
        }
        Node::IfElse([cond, yes, no]) => {
            let (cs, ys, ns) = (shape(cond), shape(yes), shape(no));
            if !cs.broadcasts_with(&ys) || !cs.broadcasts_with(&ns) || !ys.broadcasts_with(&ns) {
                return mismatch("ifelse", ys, ns);
            }
            cs.broadcast(&ys).broadcast(&ns)
        }
        Node::Gather([data, index]) => match (shape(data), shape(index)) {
            (ds, _) if !is_vector(ds) => return expected("vector", ds),
            (_, Shape::Vector(n)) => Shape::Vector(n),
            (_, Shape::Scalar) => Shape::Vector(1),
            (_, other) => return expected("index vector", other),
        },
        Node::SubAssign([data, index, value]) => {
            let (ds, is, vs) = (shape(data), shape(index), shape(value));
            if !is_vector(ds) {
                return expected("vector", ds);
            }
            // The value recycles to the index, never the other way: its
            // length divides the index's (a scalar's always does).
            if !is.broadcasts_with(&vs) || (vs != Shape::Scalar && vs.len() > is.len()) {
                return mismatch("[<-", is, vs);
            }
            ds
        }
        Node::MaskAssign([data, mask, value]) => {
            let (ds, ms, vs) = (shape(data), shape(mask), shape(value));
            if !is_vector(ds) {
                return expected("vector", ds);
            }
            if ds != ms && ms != Shape::Scalar {
                return mismatch("[mask<-", ds, ms);
            }
            if !ds.broadcasts_with(&vs) {
                return mismatch("[mask<-", ds, vs);
            }
            ds
        }
        Node::MatMul([lhs, rhs]) => match (shape(lhs), shape(rhs)) {
            (Shape::Matrix(r1, c1), Shape::Matrix(r2, c2)) if c1 == r2 => Shape::Matrix(r1, c2),
            (lhs, rhs) => return Err(ExprError::MatMulDims { lhs, rhs }),
        },
        Node::Transpose([input]) | Node::SpTranspose([input]) => match shape(input) {
            Shape::Matrix(r, c) => Shape::Matrix(c, r),
            got => return expected("matrix", got),
        },
        Node::Densify([input]) | Node::Sparsify([input]) => match shape(input) {
            s @ Shape::Matrix(..) => s,
            got => return expected("matrix", got),
        },
        // Structural only (square, non-empty): positive definiteness is a
        // value property checked at execution time.
        Node::Chol([input]) => match shape(input) {
            s @ Shape::Matrix(r, c) if r == c && r > 0 => s,
            got => return expected("non-empty square matrix", got),
        },
        // `a` square `n x n`, `b` an `n x m` right-hand side.
        Node::Solve([a, b]) => match (shape(a), shape(b)) {
            (Shape::Matrix(n1, n2), Shape::Matrix(r, m))
                if n1 == n2 && n1 > 0 && r == n1 && m > 0 =>
            {
                Shape::Matrix(n1, m)
            }
            (got @ Shape::Matrix(n1, n2), _) if n1 != n2 || n1 == 0 => {
                return expected("non-empty square matrix", got)
            }
            (lhs, rhs) => return Err(ExprError::MatMulDims { lhs, rhs }),
        },
    })
}

/// Arena of expression nodes with structural sharing.
#[derive(Default)]
pub struct ExprGraph {
    nodes: Vec<Node>,
    shapes: Vec<Shape>,
    /// Height of each node over its leaves: what a recursive traversal
    /// of the DAG under it costs in stack.
    depths: Vec<u32>,
    intern: HashMap<NodeKey, NodeId>,
}

impl ExprGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct nodes ever created.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The inferred shape of `id`.
    pub fn shape(&self, id: NodeId) -> Shape {
        self.shapes[id.0 as usize]
    }

    /// Height of `id` over its leaves (0 for a leaf).
    pub fn depth(&self, id: NodeId) -> usize {
        self.depths[id.0 as usize] as usize
    }

    /// Add `node` over existing children: check it against the shape rule
    /// ([`shape_rule`]) and intern it, reusing an existing identical node.
    /// An ill-shaped node is rejected and leaves the graph unchanged.
    pub fn add(&mut self, node: Node) -> Result<NodeId, ExprError> {
        let shape = shape_rule(&node, |id| self.shape(id))?;
        let key = node.key();
        if let Some(&id) = self.intern.get(&key) {
            return Ok(id);
        }
        let id = NodeId(self.nodes.len() as u32);
        let below = node
            .children()
            .iter()
            .map(|&c| self.depths[c.0 as usize] + 1);
        self.depths.push(below.max().unwrap_or(0));
        self.nodes.push(node);
        self.shapes.push(shape);
        self.intern.insert(key, id);
        Ok(id)
    }

    /// [`ExprGraph::add`] for the operators whose rule accepts every
    /// operand: leaves, `Map` and `Agg`.
    fn add_total(&mut self, node: Node) -> NodeId {
        self.add(node)
            .expect("leaves, maps and aggregates are well-shaped over any operand")
    }

    /// Intern `node`, a rewrite of a node of this graph that preserves its
    /// operands' shapes (the optimizer's contract), so the rule holds.
    pub fn rebuilt(&mut self, node: Node) -> NodeId {
        self.add(node).expect("a rewrite preserves operand shapes")
    }

    /// Replace the scalar-shaped node `id` by its value, now that it has
    /// been computed. Nodes are otherwise immutable, and so are the
    /// stored objects under them, so the value is the node's for good:
    /// every DAG holding `id` reads a constant from here on, and building
    /// the same operator over the same children again finds it.
    pub fn settle(&mut self, id: NodeId, value: f64) {
        debug_assert_eq!(self.shape(id), Shape::Scalar, "only a scalar has one value");
        self.nodes[id.0 as usize] = Node::Scalar(value);
        self.depths[id.0 as usize] = 0;
    }

    /// A copy of node `id` with every child replaced by `f(self, child)`,
    /// children visited in evaluation order. The copy is not interned:
    /// the caller decides what it becomes.
    pub fn map_children(
        &mut self,
        id: NodeId,
        mut f: impl FnMut(&mut Self, NodeId) -> NodeId,
    ) -> Node {
        let mut node = self.node(id).clone();
        for i in 0..node.children().len() {
            node.children_mut()[i] = f(self, node.children()[i]);
        }
        node
    }

    // ---- builders: sugar over `add` ------------------------------------

    /// A stored vector of `len` elements.
    pub fn vec_source(&mut self, source: SourceRef, len: usize) -> NodeId {
        self.add_total(Node::VecSource { source, len })
    }

    /// A stored `rows x cols` matrix.
    pub fn mat_source(&mut self, source: SourceRef, rows: usize, cols: usize) -> NodeId {
        self.add_total(Node::MatSource { source, rows, cols })
    }

    /// A stored `rows x cols` block-compressed sparse matrix with `nnz`
    /// stored non-zeros.
    pub fn sp_mat_source(
        &mut self,
        source: SourceRef,
        rows: usize,
        cols: usize,
        nnz: u64,
    ) -> NodeId {
        self.add_total(Node::SpMatSource {
            source,
            rows,
            cols,
            nnz,
        })
    }

    /// A small in-memory literal vector.
    pub fn literal(&mut self, values: Vec<f64>) -> NodeId {
        self.add_total(Node::Literal(Arc::new(values)))
    }

    /// A scalar constant.
    pub fn scalar(&mut self, value: f64) -> NodeId {
        self.add_total(Node::Scalar(value))
    }

    /// The integer sequence `start .. start+len-1` (R's `a:b`).
    pub fn range(&mut self, start: i64, len: usize) -> NodeId {
        self.add_total(Node::Range { start, len })
    }

    /// Unary elementwise map.
    pub fn map(&mut self, op: UnOp, input: NodeId) -> NodeId {
        self.add_total(Node::Map(op, [input]))
    }

    /// Binary elementwise op with R recycling.
    pub fn zip(&mut self, op: BinOp, lhs: NodeId, rhs: NodeId) -> Result<NodeId, ExprError> {
        self.add(Node::Zip(op, [lhs, rhs]))
    }

    /// Elementwise conditional select.
    pub fn if_else(&mut self, cond: NodeId, yes: NodeId, no: NodeId) -> Result<NodeId, ExprError> {
        self.add(Node::IfElse([cond, yes, no]))
    }

    /// Subscript read `data[index]`.
    pub fn gather(&mut self, data: NodeId, index: NodeId) -> Result<NodeId, ExprError> {
        self.add(Node::Gather([data, index]))
    }

    /// Functional update `data[index] <- value`.
    pub fn sub_assign(
        &mut self,
        data: NodeId,
        index: NodeId,
        value: NodeId,
    ) -> Result<NodeId, ExprError> {
        self.add(Node::SubAssign([data, index, value]))
    }

    /// Functional masked update `data[mask] <- value`.
    pub fn mask_assign(
        &mut self,
        data: NodeId,
        mask: NodeId,
        value: NodeId,
    ) -> Result<NodeId, ExprError> {
        self.add(Node::MaskAssign([data, mask, value]))
    }

    /// Matrix multiplication.
    pub fn matmul(&mut self, lhs: NodeId, rhs: NodeId) -> Result<NodeId, ExprError> {
        self.add(Node::MatMul([lhs, rhs]))
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, input: NodeId) -> Result<NodeId, ExprError> {
        self.add(Node::Transpose([input]))
    }

    /// Matrix transpose planned on the sparse kernel (the optimizer's
    /// below-threshold choice for sparse-valued inputs).
    pub fn sp_transpose(&mut self, input: NodeId) -> Result<NodeId, ExprError> {
        self.add(Node::SpTranspose([input]))
    }

    /// Sparse-to-dense conversion of a matrix-valued node.
    pub fn densify(&mut self, input: NodeId) -> Result<NodeId, ExprError> {
        self.add(Node::Densify([input]))
    }

    /// Dense-to-sparse compression of a matrix-valued node.
    pub fn sparsify(&mut self, input: NodeId) -> Result<NodeId, ExprError> {
        self.add(Node::Sparsify([input]))
    }

    /// Scalar reduction.
    pub fn agg(&mut self, op: AggOp, input: NodeId) -> NodeId {
        self.add_total(Node::Agg(op, [input]))
    }

    /// Cholesky factorization of a square matrix-valued node. The shape
    /// check is structural (square, non-empty); positive definiteness is
    /// a value property checked at execution time.
    pub fn chol(&mut self, input: NodeId) -> Result<NodeId, ExprError> {
        self.add(Node::Chol([input]))
    }

    /// Linear solve `solve(a, b)`: `a` square `n x n`, `b` an `n x m`
    /// right-hand side.
    pub fn solve(&mut self, lhs: NodeId, rhs: NodeId) -> Result<NodeId, ExprError> {
        self.add(Node::Solve([lhs, rhs]))
    }

    // ---- analysis ------------------------------------------------------

    /// All nodes reachable from `roots`, in topological (children-first)
    /// order.
    pub fn reachable(&self, roots: &[NodeId]) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        let mut stack: Vec<(NodeId, bool)> = roots.iter().rev().map(|&r| (r, false)).collect();
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                order.push(id);
                continue;
            }
            if seen[id.0 as usize] {
                continue;
            }
            seen[id.0 as usize] = true;
            stack.push((id, true));
            for &child in self.node(id).children().iter().rev() {
                if !seen[child.0 as usize] {
                    stack.push((child, false));
                }
            }
        }
        order
    }

    /// Render `id` as an R-like expression string (cycles impossible:
    /// graphs are acyclic by construction).
    pub fn render(&self, id: NodeId) -> String {
        let r = |id: &NodeId| self.render(*id);
        match self.node(id) {
            Node::VecSource { source, .. } => format!("v{}", source.0),
            Node::MatSource { source, .. } => format!("m{}", source.0),
            Node::SpMatSource { source, .. } => format!("sp{}", source.0),
            Node::Densify([input]) => format!("as.dense({})", r(input)),
            Node::Sparsify([input]) => format!("as.sparse({})", r(input)),
            Node::Literal(v) if v.len() <= 4 => {
                let values: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
                format!("c({})", values.join(","))
            }
            Node::Literal(v) => format!("c(<{} values>)", v.len()),
            Node::Scalar(x) => format!("{x}"),
            Node::Range { start, len } => format!("{}:{}", start, start + *len as i64 - 1),
            Node::Map(UnOp::Neg, [input]) => format!("-{}", r(input)),
            Node::Map(UnOp::Square, [input]) => format!("{}^2", r(input)),
            Node::Map(op, [input]) => format!("{}({})", op.name(), r(input)),
            Node::Zip(op @ (BinOp::Min | BinOp::Max), [lhs, rhs]) => {
                format!("{}({}, {})", op.name(), r(lhs), r(rhs))
            }
            Node::Zip(op, [lhs, rhs]) => format!("({} {} {})", r(lhs), op.name(), r(rhs)),
            Node::IfElse([cond, yes, no]) => {
                format!("ifelse({}, {}, {})", r(cond), r(yes), r(no))
            }
            Node::Gather([data, index]) => format!("{}[{}]", r(data), r(index)),
            Node::SubAssign([data, at, value]) | Node::MaskAssign([data, at, value]) => {
                format!("`[<-`({}, {}, {})", r(data), r(at), r(value))
            }
            Node::MatMul([lhs, rhs]) => format!("({} %*% {})", r(lhs), r(rhs)),
            Node::Transpose([input]) | Node::SpTranspose([input]) => format!("t({})", r(input)),
            Node::Agg(op, [input]) => format!("{}({})", op.name(), r(input)),
            Node::Chol([input]) => format!("chol({})", r(input)),
            Node::Solve([a, b]) => format!("solve({}, {})", r(a), r(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> ExprGraph {
        ExprGraph::new()
    }

    #[test]
    fn hash_consing_dedupes() {
        let mut g = graph();
        let x = g.vec_source(SourceRef(0), 10);
        let a = g.zip(BinOp::Add, x, x).unwrap();
        let b = g.zip(BinOp::Add, x, x).unwrap();
        assert_eq!(a, b);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn keys_carry_the_tag_and_ill_shaped_nodes_are_not_interned() {
        // One node per variant, equal payloads (all zero) and children.
        let [a, b, c] = [NodeId(0), NodeId(1), NodeId(2)];
        let (source, rows, cols) = (SourceRef(0), 0, 0);
        let nodes = [
            Node::VecSource { source, len: 0 },
            Node::MatSource { source, rows, cols },
            Node::SpMatSource {
                source,
                rows,
                cols,
                nnz: 0,
            },
            Node::Literal(Arc::new(vec![])),
            Node::Scalar(0.0),
            Node::Range { start: 0, len: 0 },
            Node::Densify([a]),
            Node::Sparsify([a]),
            Node::Map(UnOp::Neg, [a]),
            Node::Transpose([a]),
            Node::SpTranspose([a]),
            Node::Agg(AggOp::Sum, [a]),
            Node::Chol([a]),
            Node::Zip(BinOp::Add, [a, b]),
            Node::Gather([a, b]),
            Node::MatMul([a, b]),
            Node::Solve([a, b]),
            Node::IfElse([a, b, c]),
            Node::SubAssign([a, b, c]),
            Node::MaskAssign([a, b, c]),
        ];
        for (i, x) in nodes.iter().enumerate() {
            for y in &nodes[i + 1..] {
                assert_ne!(x.key(), y.key(), "{x:?} vs {y:?}");
            }
        }

        let mut g = graph();
        let v5 = g.vec_source(SourceRef(0), 5);
        let v3 = g.vec_source(SourceRef(1), 3);
        let m = g.mat_source(SourceRef(2), 2, 3);
        let v10 = g.vec_source(SourceRef(3), 10);
        // A value recycles to the index's length (a scalar always does).
        assert!(g.add(Node::SubAssign([v10, v10, v5])).is_ok());
        let before = g.len();
        for bad in [
            Node::Zip(BinOp::Add, [v5, v3]),
            Node::IfElse([v5, v3, v5]),
            Node::SubAssign([v5, v3, v5]),
            Node::SubAssign([v10, v5, v10]),
            Node::MaskAssign([v5, v3, v5]),
            Node::Gather([m, v3]),
            Node::MatMul([m, m]),
            Node::Solve([m, m]),
            Node::Chol([m]),
            Node::Transpose([v5]),
            Node::Densify([v5]),
        ] {
            assert!(g.add(bad.clone()).is_err(), "{bad:?}");
        }
        assert_eq!(
            g.len(),
            before,
            "a rejected node leaves the graph unchanged"
        );
    }

    #[test]
    fn shape_inference_through_pipeline() {
        let mut g = graph();
        let x = g.vec_source(SourceRef(0), 8);
        let c = g.scalar(3.0);
        let s = g.zip(BinOp::Sub, x, c).unwrap();
        assert_eq!(g.shape(s), Shape::Vector(8));
        let sq = g.map(UnOp::Square, s);
        assert_eq!(g.shape(sq), Shape::Vector(8));
        let total = g.agg(AggOp::Sum, sq);
        assert_eq!(g.shape(total), Shape::Scalar);
    }

    #[test]
    fn a_settled_scalar_is_its_value_wherever_it_is_held() {
        let mut g = graph();
        let x = g.vec_source(SourceRef(0), 8);
        let total = g.agg(AggOp::Sum, x);
        let centered = g.zip(BinOp::Sub, x, total).unwrap();
        assert_eq!((g.depth(x), g.depth(total), g.depth(centered)), (0, 1, 2));
        g.settle(total, 36.0);
        assert_eq!(*g.node(total), Node::Scalar(36.0));
        assert_eq!(g.depth(total), 0);
        assert_eq!(g.render(centered), "(v0 - 36)");
        // Building the same aggregate again finds the value.
        assert_eq!(g.agg(AggOp::Sum, x), total);
    }

    #[test]
    fn zip_rejects_bad_shapes() {
        let mut g = graph();
        let a = g.vec_source(SourceRef(0), 5);
        let b = g.vec_source(SourceRef(1), 3);
        assert!(g.zip(BinOp::Add, a, b).is_err());
        // Recycling allowed when lengths divide.
        let c = g.vec_source(SourceRef(2), 10);
        assert!(g.zip(BinOp::Add, a, c).is_ok());
    }

    #[test]
    fn matmul_shapes() {
        let mut g = graph();
        let a = g.mat_source(SourceRef(0), 3, 4);
        let b = g.mat_source(SourceRef(1), 4, 5);
        let ab = g.matmul(a, b).unwrap();
        assert_eq!(g.shape(ab), Shape::Matrix(3, 5));
        assert!(g.matmul(b, a).is_err());
        let t = g.transpose(ab).unwrap();
        assert_eq!(g.shape(t), Shape::Matrix(5, 3));
    }

    #[test]
    fn gather_shape_follows_index() {
        let mut g = graph();
        let d = g.vec_source(SourceRef(0), 100);
        let idx = g.literal(vec![1.0, 5.0, 7.0]);
        let z = g.gather(d, idx).unwrap();
        assert_eq!(g.shape(z), Shape::Vector(3));
    }

    #[test]
    fn mask_assign_requires_aligned_mask() {
        let mut g = graph();
        let d = g.vec_source(SourceRef(0), 10);
        let m_bad = g.vec_source(SourceRef(1), 4);
        let hundred = g.scalar(100.0);
        assert!(g.mask_assign(d, m_bad, hundred).is_err());
        let m_ok = g.zip(BinOp::Gt, d, hundred).unwrap();
        let b = g.mask_assign(d, m_ok, hundred).unwrap();
        assert_eq!(g.shape(b), Shape::Vector(10));
    }

    #[test]
    fn reachable_is_topological() {
        let mut g = graph();
        let x = g.vec_source(SourceRef(0), 4);
        let y = g.vec_source(SourceRef(1), 4);
        let s = g.zip(BinOp::Add, x, y).unwrap();
        let q = g.map(UnOp::Sqrt, s);
        let order = g.reachable(&[q]);
        let pos = |id: NodeId| order.iter().position(|&n| n == id).expect("node in order");
        assert!(pos(x) < pos(s));
        assert!(pos(y) < pos(s));
        assert!(pos(s) < pos(q));
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn render_example_1_line() {
        // d <- sqrt((x-xs)^2 + (y-ys)^2): check the pretty printer shape.
        let mut g = graph();
        let x = g.vec_source(SourceRef(0), 4);
        let y = g.vec_source(SourceRef(1), 4);
        let xs = g.scalar(1.0);
        let ys = g.scalar(2.0);
        let dx = g.zip(BinOp::Sub, x, xs).unwrap();
        let dy = g.zip(BinOp::Sub, y, ys).unwrap();
        let dx2 = g.map(UnOp::Square, dx);
        let dy2 = g.map(UnOp::Square, dy);
        let sum = g.zip(BinOp::Add, dx2, dy2).unwrap();
        let d = g.map(UnOp::Sqrt, sum);
        assert_eq!(g.render(d), "sqrt(((v0 - 1)^2 + (v1 - 2)^2))");
    }
}
