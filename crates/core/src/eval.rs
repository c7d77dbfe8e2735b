//! Reference in-memory evaluator.
//!
//! This is the semantic oracle for the whole system: it evaluates an
//! expression DAG with plain `Vec<f64>` arithmetic, no I/O and no
//! cleverness. Every engine (Plain R, Strawman, MatNamed, RIOT) and every
//! optimizer rewrite is property-tested against it — if an optimization
//! changes a result relative to this evaluator, the optimization is wrong.

use std::collections::HashMap;
use std::sync::Arc;

use crate::expr::{ExprError, Node, NodeId, SourceRef};
use crate::graph::ExprGraph;
use crate::shape::Shape;

/// A fully materialized value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A scalar.
    Scalar(f64),
    /// A vector.
    Vector(Arc<Vec<f64>>),
    /// A row-major matrix.
    Matrix {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// Row-major data.
        data: Arc<Vec<f64>>,
    },
}

impl Value {
    /// Build a vector value.
    pub fn vector(v: Vec<f64>) -> Value {
        Value::Vector(Arc::new(v))
    }

    /// Build a matrix value from row-major data.
    pub fn matrix(rows: usize, cols: usize, data: Vec<f64>) -> Value {
        assert_eq!(rows * cols, data.len());
        Value::Matrix {
            rows,
            cols,
            data: Arc::new(data),
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            Value::Scalar(_) => 1,
            Value::Vector(v) => v.len(),
            Value::Matrix { data, .. } => data.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element `i` under R recycling (scalar repeats; vectors cycle).
    pub fn at(&self, i: usize) -> f64 {
        match self {
            Value::Scalar(x) => *x,
            Value::Vector(v) => v[i % v.len()],
            Value::Matrix { data, .. } => data[i % data.len()],
        }
    }

    /// The value as a flat vector (scalars become length-1).
    pub fn to_flat(&self) -> Vec<f64> {
        match self {
            Value::Scalar(x) => vec![*x],
            Value::Vector(v) => v.as_ref().clone(),
            Value::Matrix { data, .. } => data.as_ref().clone(),
        }
    }

    /// Scalar extraction; panics on non-scalars.
    pub fn as_scalar(&self) -> f64 {
        match self {
            Value::Scalar(x) => *x,
            _ => panic!("expected scalar value"),
        }
    }

    /// The shape of this value.
    pub fn shape(&self) -> Shape {
        match self {
            Value::Scalar(_) => Shape::Scalar,
            Value::Vector(v) => Shape::Vector(v.len()),
            Value::Matrix { rows, cols, .. } => Shape::Matrix(*rows, *cols),
        }
    }
}

/// Supplies the contents of stored sources to the evaluator.
pub trait SourceData {
    /// Row-major contents and shape of vector source `s`.
    fn vector(&self, s: SourceRef) -> Vec<f64>;
    /// `(rows, cols, row-major data)` of matrix source `s`.
    fn matrix(&self, s: SourceRef) -> (usize, usize, Vec<f64>);
    /// `(rows, cols, row-major data)` of sparse matrix source `s`. The
    /// evaluator is the dense semantic oracle, so sparse sources
    /// materialize densely here; implementations without sparse data can
    /// keep the default.
    fn sparse(&self, s: SourceRef) -> (usize, usize, Vec<f64>) {
        panic!("no sparse source {} registered", s.0)
    }
}

/// A map-backed [`SourceData`] for tests and small programs.
#[derive(Default)]
pub struct MemSources {
    vectors: HashMap<u32, Vec<f64>>,
    matrices: HashMap<u32, (usize, usize, Vec<f64>)>,
    sparse: HashMap<u32, (usize, usize, Vec<f64>)>,
}

impl MemSources {
    /// Empty source set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a vector, returning its reference.
    pub fn add_vector(&mut self, data: Vec<f64>) -> SourceRef {
        let id = self.next_id();
        self.vectors.insert(id, data);
        SourceRef(id)
    }

    /// Register a row-major matrix, returning its reference.
    pub fn add_matrix(&mut self, rows: usize, cols: usize, data: Vec<f64>) -> SourceRef {
        assert_eq!(rows * cols, data.len());
        let id = self.next_id();
        self.matrices.insert(id, (rows, cols, data));
        SourceRef(id)
    }

    /// Register a sparse matrix from COO triplets, returning its
    /// reference (and the resulting non-zero count, for `SpMatSource`).
    pub fn add_sparse(
        &mut self,
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> (SourceRef, u64) {
        let mut data = vec![0.0; rows * cols];
        for &(r, c, v) in triplets {
            data[r * cols + c] += v;
        }
        let nnz = data.iter().filter(|v| **v != 0.0).count() as u64;
        let id = self.next_id();
        self.sparse.insert(id, (rows, cols, data));
        (SourceRef(id), nnz)
    }

    fn next_id(&self) -> u32 {
        (self.vectors.len() + self.matrices.len() + self.sparse.len()) as u32
    }
}

impl SourceData for MemSources {
    fn vector(&self, s: SourceRef) -> Vec<f64> {
        self.vectors
            .get(&s.0)
            .expect("unknown vector source")
            .clone()
    }

    fn matrix(&self, s: SourceRef) -> (usize, usize, Vec<f64>) {
        self.matrices
            .get(&s.0)
            .expect("unknown matrix source")
            .clone()
    }

    fn sparse(&self, s: SourceRef) -> (usize, usize, Vec<f64>) {
        self.sparse
            .get(&s.0)
            .expect("unknown sparse source")
            .clone()
    }
}

/// Evaluate `root` over `graph`, resolving stored arrays through `sources`.
pub fn evaluate(
    graph: &ExprGraph,
    root: NodeId,
    sources: &dyn SourceData,
) -> Result<Value, ExprError> {
    let mut memo: HashMap<NodeId, Value> = HashMap::new();
    for id in graph.reachable(&[root]) {
        let value = eval_node(graph, id, sources, &memo)?;
        memo.insert(id, value);
    }
    Ok(memo.remove(&root).expect("root evaluated"))
}

fn eval_node(
    graph: &ExprGraph,
    id: NodeId,
    sources: &dyn SourceData,
    memo: &HashMap<NodeId, Value>,
) -> Result<Value, ExprError> {
    let get = |id: &NodeId| memo.get(id).expect("child evaluated before parent");
    Ok(match graph.node(id) {
        Node::VecSource { source, .. } => Value::vector(sources.vector(*source)),
        Node::MatSource { source, .. } => {
            let (rows, cols, data) = sources.matrix(*source);
            Value::matrix(rows, cols, data)
        }
        Node::SpMatSource { source, .. } => {
            let (rows, cols, data) = sources.sparse(*source);
            Value::matrix(rows, cols, data)
        }
        // Representation conversions are identities to the dense oracle.
        Node::Densify([input]) | Node::Sparsify([input]) => get(input).clone(),
        Node::Literal(v) => Value::Vector(Arc::clone(v)),
        Node::Scalar(x) => Value::Scalar(*x),
        Node::Range { start, len } => {
            Value::vector((0..*len).map(|i| (*start + i as i64) as f64).collect())
        }
        Node::Map(op, [input]) => {
            let x = get(input);
            match x {
                Value::Scalar(v) => Value::Scalar(op.apply(*v)),
                Value::Vector(v) => Value::vector(v.iter().map(|&e| op.apply(e)).collect()),
                Value::Matrix { rows, cols, data } => {
                    Value::matrix(*rows, *cols, data.iter().map(|&e| op.apply(e)).collect())
                }
            }
        }
        Node::Zip(op, [lhs, rhs]) => {
            let (a, b) = (get(lhs), get(rhs));
            let out_shape = a.shape().broadcast(&b.shape());
            let n = out_shape.len();
            let data: Vec<f64> = (0..n).map(|i| op.apply(a.at(i), b.at(i))).collect();
            shape_value(out_shape, data)
        }
        Node::IfElse([cond, yes, no]) => {
            let (c, y, n) = (get(cond), get(yes), get(no));
            let out_shape = c.shape().broadcast(&y.shape()).broadcast(&n.shape());
            let data: Vec<f64> = (0..out_shape.len())
                .map(|i| if c.at(i) != 0.0 { y.at(i) } else { n.at(i) })
                .collect();
            shape_value(out_shape, data)
        }
        Node::Gather([data, index]) => {
            let d = get(data);
            let idx = get(index);
            let n = d.len();
            let mut out = Vec::with_capacity(idx.len());
            for k in 0..idx.len() {
                let raw = idx.at(k);
                let i = raw as i64;
                if i < 1 || i as usize > n {
                    return Err(ExprError::IndexOutOfBounds { index: i, len: n });
                }
                out.push(d.at(i as usize - 1));
            }
            Value::vector(out)
        }
        Node::SubAssign([data, index, value]) => {
            let mut out = get(data).to_flat();
            let idx = get(index);
            let val = get(value);
            for k in 0..idx.len() {
                let i = idx.at(k) as i64;
                if i < 1 || i as usize > out.len() {
                    return Err(ExprError::IndexOutOfBounds {
                        index: i,
                        len: out.len(),
                    });
                }
                out[i as usize - 1] = val.at(k);
            }
            Value::vector(out)
        }
        Node::MaskAssign([data, mask, value]) => {
            let mut out = get(data).to_flat();
            let m = get(mask);
            let val = get(value);
            for (i, slot) in out.iter_mut().enumerate() {
                if m.at(i) != 0.0 {
                    *slot = val.at(i);
                }
            }
            Value::vector(out)
        }
        Node::MatMul([lhs, rhs]) => {
            let (a, b) = (get(lhs), get(rhs));
            let (
                Value::Matrix {
                    rows: n1,
                    cols: n2,
                    data: da,
                },
                Value::Matrix {
                    rows: r2,
                    cols: n3,
                    data: db,
                },
            ) = (a, b)
            else {
                return Err(ExprError::Expected {
                    what: "matrix",
                    got: a.shape(),
                });
            };
            assert_eq!(n2, r2, "shape checked at build time");
            let (n1, n2, n3) = (*n1, *n2, *n3);
            let mut out = vec![0.0; n1 * n3];
            for i in 0..n1 {
                for k in 0..n2 {
                    let aik = da[i * n2 + k];
                    for j in 0..n3 {
                        out[i * n3 + j] += aik * db[k * n3 + j];
                    }
                }
            }
            Value::matrix(n1, n3, out)
        }
        // The planned-sparse transpose is the same transpose to the dense
        // oracle — representation is a physical concern.
        Node::Transpose([input]) | Node::SpTranspose([input]) => {
            let x = get(input);
            let Value::Matrix { rows, cols, data } = x else {
                return Err(ExprError::Expected {
                    what: "matrix",
                    got: x.shape(),
                });
            };
            let (r, c) = (*rows, *cols);
            let mut out = vec![0.0; r * c];
            for i in 0..r {
                for j in 0..c {
                    out[j * r + i] = data[i * c + j];
                }
            }
            Value::matrix(c, r, out)
        }
        Node::Agg(op, [input]) => Value::Scalar(op.reduce(&get(input).to_flat())),
        Node::Chol([input]) => {
            let x = get(input);
            let Value::Matrix { rows, data, .. } = x else {
                return Err(ExprError::Expected {
                    what: "matrix",
                    got: x.shape(),
                });
            };
            let n = *rows;
            Value::matrix(n, n, dense_chol(data, n, x.shape())?)
        }
        Node::Solve([lhs, rhs]) => {
            let (a, b) = (get(lhs), get(rhs));
            let (
                Value::Matrix { rows, data: da, .. },
                Value::Matrix {
                    cols: m, data: db, ..
                },
            ) = (a, b)
            else {
                return Err(ExprError::Expected {
                    what: "matrix",
                    got: a.shape(),
                });
            };
            let (n, m) = (*rows, *m);
            let l = dense_chol(da, n, a.shape())?;
            // Forward L·y = b, then backward Lᵀ·x = y, column block at once.
            let mut x = db.to_vec();
            for r in 0..n {
                for k in 0..r {
                    let lrk = l[r * n + k];
                    for c in 0..m {
                        x[r * m + c] -= lrk * x[k * m + c];
                    }
                }
                for c in 0..m {
                    x[r * m + c] /= l[r * n + r];
                }
            }
            for r in (0..n).rev() {
                for k in r + 1..n {
                    let lkr = l[k * n + r];
                    for c in 0..m {
                        x[r * m + c] -= lkr * x[k * m + c];
                    }
                }
                for c in 0..m {
                    x[r * m + c] /= l[r * n + r];
                }
            }
            Value::matrix(n, m, x)
        }
    })
}

/// Dense reference Cholesky: lower-triangular factor of the `n x n`
/// row-major `a` (only the lower triangle is read). Non-positive-definite
/// inputs error rather than yielding NaNs, matching the kernel contract.
fn dense_chol(a: &[f64], n: usize, shape: Shape) -> Result<Vec<f64>, ExprError> {
    let mut l = vec![0.0; n * n];
    for j in 0..n {
        let mut d = a[j * n + j];
        for k in 0..j {
            d -= l[j * n + k] * l[j * n + k];
        }
        if !d.is_finite() || d <= 0.0 {
            return Err(ExprError::Expected {
                what: "positive definite matrix",
                got: shape,
            });
        }
        let d = d.sqrt();
        l[j * n + j] = d;
        for i in j + 1..n {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= l[i * n + k] * l[j * n + k];
            }
            l[i * n + j] = s / d;
        }
    }
    Ok(l)
}

fn shape_value(shape: Shape, data: Vec<f64>) -> Value {
    match shape {
        Shape::Scalar => Value::Scalar(data[0]),
        Shape::Vector(_) => Value::vector(data),
        Shape::Matrix(r, c) => Value::matrix(r, c, data),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggOp, BinOp, UnOp};

    #[test]
    fn example_1_reference_semantics() {
        // d <- sqrt((x-xs)^2+(y-ys)^2) + sqrt((x-xe)^2+(y-ye)^2)
        let mut g = ExprGraph::new();
        let mut src = MemSources::new();
        let xs_data = vec![0.0, 3.0, 6.0];
        let ys_data = vec![0.0, 4.0, 8.0];
        let x = src.add_vector(xs_data);
        let y = src.add_vector(ys_data);
        let xv = g.vec_source(x, 3);
        let yv = g.vec_source(y, 3);
        let (xs, ys, xe, ye) = (0.0, 0.0, 6.0, 8.0);
        let leg = |g: &mut ExprGraph, px: f64, py: f64| {
            let cx = g.scalar(px);
            let cy = g.scalar(py);
            let dx = g.zip(BinOp::Sub, xv, cx).unwrap();
            let dy = g.zip(BinOp::Sub, yv, cy).unwrap();
            let dx2 = g.map(UnOp::Square, dx);
            let dy2 = g.map(UnOp::Square, dy);
            let s = g.zip(BinOp::Add, dx2, dy2).unwrap();
            g.map(UnOp::Sqrt, s)
        };
        let l1 = leg(&mut g, xs, ys);
        let l2 = leg(&mut g, xe, ye);
        let d = g.zip(BinOp::Add, l1, l2).unwrap();
        let got = evaluate(&g, d, &src).unwrap();
        // Point (0,0): 0 + 10; point (3,4): 5 + 5; point (6,8): 10 + 0.
        assert_eq!(got, Value::vector(vec![10.0, 10.0, 10.0]));
    }

    #[test]
    fn gather_is_one_based() {
        let mut g = ExprGraph::new();
        let mut src = MemSources::new();
        let v = src.add_vector(vec![10.0, 20.0, 30.0]);
        let vv = g.vec_source(v, 3);
        let idx = g.literal(vec![3.0, 1.0]);
        let z = g.gather(vv, idx).unwrap();
        assert_eq!(
            evaluate(&g, z, &src).unwrap(),
            Value::vector(vec![30.0, 10.0])
        );
    }

    #[test]
    fn gather_bounds_checked() {
        let mut g = ExprGraph::new();
        let mut src = MemSources::new();
        let v = src.add_vector(vec![1.0]);
        let vv = g.vec_source(v, 1);
        let idx = g.literal(vec![2.0]);
        let z = g.gather(vv, idx).unwrap();
        assert!(matches!(
            evaluate(&g, z, &src),
            Err(ExprError::IndexOutOfBounds { index: 2, len: 1 })
        ));
    }

    #[test]
    fn figure_2_mask_assign() {
        // b <- a^2; b[b>100] <- 100; b[1:10]
        let mut g = ExprGraph::new();
        let mut src = MemSources::new();
        let a_data: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let a = src.add_vector(a_data.clone());
        let av = g.vec_source(a, 20);
        let two = g.scalar(2.0);
        let b = g.zip(BinOp::Pow, av, two).unwrap();
        let hundred = g.scalar(100.0);
        let mask = g.zip(BinOp::Gt, b, hundred).unwrap();
        let b2 = g.mask_assign(b, mask, hundred).unwrap();
        let first10 = g.range(1, 10);
        let z = g.gather(b2, first10).unwrap();
        let want: Vec<f64> = (1..=10).map(|i| ((i * i) as f64).min(100.0)).collect();
        assert_eq!(evaluate(&g, z, &src).unwrap(), Value::vector(want));
    }

    #[test]
    fn sub_assign_replaces_positions() {
        let mut g = ExprGraph::new();
        let src = MemSources::new();
        let d = g.literal(vec![1.0, 2.0, 3.0, 4.0]);
        let idx = g.literal(vec![2.0, 4.0]);
        let val = g.literal(vec![20.0, 40.0]);
        let out = g.sub_assign(d, idx, val).unwrap();
        assert_eq!(
            evaluate(&g, out, &src).unwrap(),
            Value::vector(vec![1.0, 20.0, 3.0, 40.0])
        );
    }

    #[test]
    fn recycling_matches_r() {
        // c(1,2,3,4,5,6) + c(10,20) == c(11,22,13,24,15,26)
        let mut g = ExprGraph::new();
        let src = MemSources::new();
        let a = g.literal(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = g.literal(vec![10.0, 20.0]);
        let s = g.zip(BinOp::Add, a, b).unwrap();
        assert_eq!(
            evaluate(&g, s, &src).unwrap(),
            Value::vector(vec![11.0, 22.0, 13.0, 24.0, 15.0, 26.0])
        );
    }

    #[test]
    fn matmul_and_transpose() {
        let mut g = ExprGraph::new();
        let mut src = MemSources::new();
        let a = src.add_matrix(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = src.add_matrix(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let am = g.mat_source(a, 2, 3);
        let bm = g.mat_source(b, 3, 2);
        let ab = g.matmul(am, bm).unwrap();
        assert_eq!(
            evaluate(&g, ab, &src).unwrap(),
            Value::matrix(2, 2, vec![58.0, 64.0, 139.0, 154.0])
        );
        let t = g.transpose(ab).unwrap();
        assert_eq!(
            evaluate(&g, t, &src).unwrap(),
            Value::matrix(2, 2, vec![58.0, 139.0, 64.0, 154.0])
        );
    }

    #[test]
    fn aggregations() {
        let mut g = ExprGraph::new();
        let src = MemSources::new();
        let v = g.literal(vec![4.0, -2.0, 10.0, 0.0]);
        for (op, want) in [
            (AggOp::Sum, 12.0),
            (AggOp::Mean, 3.0),
            (AggOp::Min, -2.0),
            (AggOp::Max, 10.0),
        ] {
            let a = g.agg(op, v);
            assert_eq!(evaluate(&g, a, &src).unwrap().as_scalar(), want, "{op:?}");
        }
    }

    #[test]
    fn range_values() {
        let mut g = ExprGraph::new();
        let src = MemSources::new();
        let r = g.range(-2, 5);
        assert_eq!(
            evaluate(&g, r, &src).unwrap(),
            Value::vector(vec![-2.0, -1.0, 0.0, 1.0, 2.0])
        );
    }
}
