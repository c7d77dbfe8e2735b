//! The operator surface [`crate::session::Session`] calls: one function
//! per R operator, each dispatching on the engine family exactly once.
//! A DAG node operand means the deferred family and the operator only
//! records a node; anything else goes to the eager family's store loops.

use std::collections::HashMap;
use std::rc::Rc;

use rand::Rng;

use riot_array::{DenseMatrix, DenseVector, MatrixLayout, TileOrder, VectorWriter};
use riot_sparse::SparseMatrix;
use riot_storage::ObjectKind;

use super::eager::{fill, stored};
use super::{MatRepr, MatValue, Runtime, StrawTable, VecRepr};
use crate::exec::{factor, matmul_naive, ExecError, ExecResult};
use crate::expr::{AggOp, BinOp, Node, NodeId, UnOp};
use crate::graph::shape_rule;
use crate::shape::Shape;

impl Runtime {
    // ================= loading =================

    /// Load a vector produced by `f(i)` for `i in 0..len`. A `name`
    /// registers the stored object in the catalog so a later session can
    /// reopen it ([`Runtime::open_vector`]); Plain R has no catalog-backed
    /// storage, so the name is ignored there.
    pub(crate) fn load_vector(
        &mut self,
        len: usize,
        name: Option<&str>,
        f: impl FnMut(usize) -> f64,
    ) -> ExecResult<VecRepr> {
        if !self.deferred() {
            return self.eager_load(len, name, f);
        }
        let mut writer = VectorWriter::new(&self.ctx, len, name)?;
        fill(len, self.chunk(), f, |_, buf| Ok(writer.push_chunk(buf)?))?;
        Ok(self.vec_source(writer.finish()?))
    }

    fn vec_source(&mut self, vec: DenseVector) -> VecRepr {
        let (src, len) = (self.fresh_source(), vec.len());
        self.vec_sources.insert(src.0, vec);
        VecRepr::Node(self.graph.vec_source(src, len))
    }

    fn mat_source(&mut self, mat: MatValue) -> MatRepr {
        let (src, (rows, cols)) = (self.fresh_source(), mat.shape());
        MatRepr::Node(match mat {
            MatValue::Dense(mat) => {
                self.mat_sources.insert(src.0, mat);
                self.graph.mat_source(src, rows, cols)
            }
            // The nnz statistic feeds the optimizer's density estimate.
            MatValue::Sparse(sp) => {
                let nnz = sp.nnz();
                self.sparse_sources.insert(src.0, sp);
                self.graph.sp_mat_source(src, rows, cols, nnz)
            }
        })
    }

    /// Load a matrix produced by `f(row, col)`. A `name` registers the
    /// stored object for reopening; Plain R ignores it (paging heap only).
    pub(crate) fn load_matrix(
        &mut self,
        rows: usize,
        cols: usize,
        layout: MatrixLayout,
        name: Option<&str>,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> ExecResult<MatRepr> {
        if self.deferred() {
            let order = match layout {
                MatrixLayout::ColMajor => TileOrder::ColMajor,
                MatrixLayout::RowMajor | MatrixLayout::Square => TileOrder::RowMajor,
            };
            let mat = DenseMatrix::from_fn(&self.ctx, rows, cols, layout, order, name, f)?;
            return Ok(self.mat_source(MatValue::Dense(mat)));
        }
        if self.on_heap() {
            let m = self.heap_filled(rows, cols, |i| f(i / cols, i % cols));
            return Ok(MatRepr::Vm(m));
        }
        // The Strawman stores what R's column-major layout maps to.
        let (layout, order) = (MatrixLayout::ColMajor, TileOrder::ColMajor);
        let mat = DenseMatrix::from_fn(&self.ctx, rows, cols, layout, order, name, f)?;
        Ok(stored(mat, name.is_none()))
    }

    /// Load a sparse matrix from COO triplets `(row, col, value)`
    /// (0-based; duplicates sum, zeros drop).
    ///
    /// Deferred engines store the block-compressed format and record the
    /// nnz statistic in the source node for the optimizer's density
    /// estimate. The eager engines have no sparse backend — exactly like
    /// base R, where sparsity is a library concept — so they densify at
    /// load and the same program still runs.
    pub(crate) fn load_sparse(
        &mut self,
        rows: usize,
        cols: usize,
        name: Option<&str>,
        triplets: &[(usize, usize, f64)],
    ) -> ExecResult<MatRepr> {
        if self.deferred() {
            let layout = MatrixLayout::Square;
            let sp = SparseMatrix::from_triplets(&self.ctx, rows, cols, layout, triplets, name)?;
            return Ok(self.mat_source(MatValue::Sparse(sp)));
        }
        if self.on_heap() {
            let m = self.heap_filled(rows, cols, |_| 0.0);
            for &(r, c, v) in triplets {
                let cur = self.heap.get(m.id, r * cols + c);
                self.heap.set(m.id, r * cols + c, cur + v);
            }
            return Ok(MatRepr::Vm(m));
        }
        let mut cells: HashMap<(usize, usize), f64> = HashMap::new();
        for &(r, c, v) in triplets {
            *cells.entry((r, c)).or_insert(0.0) += v;
        }
        self.load_matrix(rows, cols, MatrixLayout::ColMajor, name, |i, j| {
            cells.get(&(i, j)).copied().unwrap_or(0.0)
        })
    }

    /// Reopen a named stored vector (written by a `load_vector` with a
    /// name, possibly in a previous session over the same durable
    /// storage). Plain R copies it onto the paging heap — eager semantics,
    /// same as loading fresh; Strawman wraps a borrowed (non-owning)
    /// table; the deferred engines register a source node.
    pub(crate) fn open_vector(&mut self, name: &str) -> ExecResult<VecRepr> {
        let vec = DenseVector::open(&self.ctx, name)?;
        if self.deferred() {
            return Ok(self.vec_source(vec));
        }
        if self.on_heap() {
            return Ok(VecRepr::Vm(self.heap.alloc_from(&vec.to_vec()?)));
        }
        Ok(VecRepr::Table(Rc::new(StrawTable { owned: false, vec })))
    }

    /// Reopen a named stored matrix, dense or sparse (the catalog header's
    /// object kind disambiguates). Eager engines densify sparse objects on
    /// the way in, mirroring `load_sparse`.
    pub(crate) fn open_matrix(&mut self, name: &str) -> ExecResult<MatRepr> {
        let is_sparse = self
            .ctx
            .find_object(name)
            .and_then(|id| self.ctx.object_header(id).ok().flatten())
            .is_some_and(|h| {
                matches!(
                    h.kind,
                    ObjectKind::SparseMatrix | ObjectKind::SparseTilePages
                )
            });
        let opened = if is_sparse {
            MatValue::Sparse(SparseMatrix::open(&self.ctx, name)?)
        } else {
            MatValue::Dense(DenseMatrix::open(&self.ctx, name)?)
        };
        if self.deferred() {
            return Ok(self.mat_source(opened));
        }
        if self.on_heap() {
            let (rows, cols, data) = opened.to_rows()?;
            return Ok(self.heap_mat(rows, cols, &data));
        }
        Ok(match opened {
            MatValue::Dense(mat) => stored(mat, false),
            MatValue::Sparse(sp) => stored(sp.to_dense(TileOrder::ColMajor, None)?, true),
        })
    }

    // ================= the family dispatch =================

    /// One vector operator over `operands`, dispatched on the family once.
    /// Deferred operands record `node` over their DAG nodes (a
    /// scalar-shaped result — arithmetic over aggregates — is registered
    /// as pending). Stored operands are checked against the very same
    /// shape rule, then handed to `eager` with the result length the rule
    /// gives — so an operator accepts the same operands, and produces the
    /// same length, under all four engines. `scalar` names the operand
    /// that is a broadcast scalar, if one is: the eager engines hold it as
    /// a length-1 vector, but it stands in the rule as the scalar it is.
    fn vec_op<const N: usize>(
        &mut self,
        node: impl Fn([NodeId; N]) -> Node,
        operands: [&VecRepr; N],
        scalar: Option<usize>,
        eager: impl FnOnce(&mut Self, usize) -> ExecResult<VecRepr>,
    ) -> ExecResult<VecRepr> {
        if self.deferred() {
            // A scalar that has its value is the constant, whichever node
            // it was observed through — so equal DAGs stay one DAG.
            let ids = operands.map(|v| match *v {
                VecRepr::Node(id) => match *self.graph.node(id) {
                    Node::Scalar(value) => self.graph.scalar(value),
                    _ => id,
                },
                _ => unreachable!("deferred operators take DAG nodes"),
            });
            let id = self.graph.add(node(ids))?;
            if self.graph.shape(id) == Shape::Scalar {
                self.defer(id)?;
            }
            return Ok(VecRepr::Node(id));
        }
        let shapes = std::array::from_fn(|i| match scalar {
            Some(at) if at == i => Shape::Scalar,
            _ => Shape::Vector(self.vec_len(operands[i])),
        });
        eager(self, eager_shape(node, shapes)?.len())
    }

    /// The shape rule of matrix operator `node` over `operands` of either
    /// family, checked before the dispatch.
    fn mat_rule<const N: usize>(
        &self,
        node: fn([NodeId; N]) -> Node,
        operands: [&MatRepr; N],
    ) -> ExecResult<()> {
        let shapes = operands.map(|m| {
            let (rows, cols) = self.mat_shape(m);
            Shape::Matrix(rows, cols)
        });
        eager_shape(node, shapes).map(drop)
    }

    // ================= vector operators =================

    /// Length of a vector value.
    pub(crate) fn vec_len(&self, v: &VecRepr) -> usize {
        match v {
            VecRepr::Node(id) => self.graph.shape(*id).len(),
            VecRepr::Vm(id) => self.heap.len(*id),
            VecRepr::Table(t) => t.vec.len(),
        }
    }

    /// A small in-memory vector value (R's `c(...)`). Deferred engines get
    /// a `Literal` node — the optimizer can then see the values, exactly
    /// like RIOT-DB's optimizer sees the small `S` table of Example 1.
    pub(crate) fn literal(&mut self, values: Vec<f64>) -> ExecResult<VecRepr> {
        if self.deferred() {
            return Ok(VecRepr::Node(self.graph.literal(values)));
        }
        self.from_values(&values)
    }

    /// `sample(n, k)`: k distinct 1-based indices, deterministic per seed.
    pub(crate) fn sample(&mut self, n: usize, k: usize) -> ExecResult<VecRepr> {
        if k > n {
            return Err(ExecError::Unsupported(format!(
                "sampling {k} of {n} without replacement"
            )));
        }
        // Partial Fisher-Yates with a sparse swap map.
        let mut swaps: HashMap<usize, usize> = HashMap::new();
        let mut out = Vec::with_capacity(k);
        for i in 0..k {
            let j = self.rng.gen_range(i..n);
            let vi = *swaps.get(&i).unwrap_or(&i);
            let vj = *swaps.get(&j).unwrap_or(&j);
            swaps.insert(j, vi);
            swaps.insert(i, vj);
            out.push((vj + 1) as f64);
        }
        self.literal(out)
    }

    /// The sequence `start..=end` (R's `start:end`).
    pub(crate) fn range(&mut self, start: i64, end: i64) -> ExecResult<VecRepr> {
        if end < start {
            return Err(ExecError::Unsupported(format!(
                "descending range {start}:{end}"
            )));
        }
        let len = (end - start + 1) as usize;
        if self.deferred() {
            return Ok(VecRepr::Node(self.graph.range(start, len)));
        }
        self.eager_range(start, len)
    }

    /// Elementwise unary map.
    pub(crate) fn unop(&mut self, op: UnOp, input: &VecRepr) -> ExecResult<VecRepr> {
        self.vec_op(
            |c| Node::Map(op, c),
            [input],
            None,
            |rt, n| rt.eager_unop(op, input, n),
        )
    }

    /// Elementwise binary op between two vector values (R recycling).
    pub(crate) fn binop(&mut self, op: BinOp, lhs: &VecRepr, rhs: &VecRepr) -> ExecResult<VecRepr> {
        self.vec_op(
            |c| Node::Zip(op, c),
            [lhs, rhs],
            None,
            |rt, n| rt.eager_binop(op, lhs, rhs, n),
        )
    }

    /// `scalar` as an operand of a vector operator: a `Scalar` node, or a
    /// length-1 stored vector the eager engines recycle.
    fn scalar(&mut self, scalar: f64) -> ExecResult<VecRepr> {
        if self.deferred() {
            return Ok(VecRepr::Node(self.graph.scalar(scalar)));
        }
        self.from_values(&[scalar])
    }

    /// Elementwise binary op against a scalar.
    pub(crate) fn binop_scalar(
        &mut self,
        op: BinOp,
        lhs: &VecRepr,
        scalar: f64,
        scalar_on_left: bool,
    ) -> ExecResult<VecRepr> {
        let s = self.scalar(scalar)?;
        let (sides, at) = if scalar_on_left {
            ([&s, lhs], 0)
        } else {
            ([lhs, &s], 1)
        };
        let out = self.vec_op(
            |c| Node::Zip(op, c),
            sides,
            Some(at),
            |rt, n| rt.eager_binop(op, sides[0], sides[1], n),
        );
        self.release(&s);
        out
    }

    /// Subscript read `data[index]`.
    pub(crate) fn gather(&mut self, data: &VecRepr, index: &VecRepr) -> ExecResult<VecRepr> {
        self.vec_op(Node::Gather, [data, index], None, |rt, k| {
            rt.eager_gather(data, index, k)
        })
    }

    /// Elementwise conditional `ifelse(cond, yes, no)`.
    pub(crate) fn ifelse(
        &mut self,
        cond: &VecRepr,
        yes: &VecRepr,
        no: &VecRepr,
    ) -> ExecResult<VecRepr> {
        self.vec_op(Node::IfElse, [cond, yes, no], None, |rt, n| {
            rt.eager_ifelse(cond, yes, no, n)
        })
    }

    /// Masked functional update `data[mask] <- value`. Eagerly this is
    /// the conditional `ifelse(mask, value, data)`; deferred it stays a
    /// `MaskAssign` node for the optimizer to rewrite.
    pub(crate) fn mask_assign(
        &mut self,
        data: &VecRepr,
        mask: &VecRepr,
        value: &VecRepr,
    ) -> ExecResult<VecRepr> {
        self.vec_op(Node::MaskAssign, [data, mask, value], None, |rt, n| {
            rt.eager_ifelse(mask, value, data, n)
        })
    }

    /// Masked update against a scalar replacement value.
    pub(crate) fn mask_assign_scalar(
        &mut self,
        data: &VecRepr,
        mask: &VecRepr,
        value: f64,
    ) -> ExecResult<VecRepr> {
        let v = self.scalar(value)?;
        let out = self.vec_op(Node::MaskAssign, [data, mask, &v], Some(2), |rt, n| {
            rt.eager_ifelse(mask, &v, data, n)
        });
        self.release(&v);
        out
    }

    /// Functional indexed update `data[index] <- value` (value recycled to
    /// the index length).
    pub(crate) fn sub_assign(
        &mut self,
        data: &VecRepr,
        index: &VecRepr,
        value: &VecRepr,
    ) -> ExecResult<VecRepr> {
        self.vec_op(Node::SubAssign, [data, index, value], None, |rt, n| {
            rt.eager_sub_assign(data, index, value, n)
        })
    }

    /// `op(v)` as a deferred scalar: a handle on the scalar-shaped
    /// aggregate node, registered as pending — nothing runs until its
    /// value is observed. `None` for a stored operand: the eager engines
    /// have nothing to defer, and [`Runtime::aggregate`] computes at once.
    pub(crate) fn defer_aggregate(
        &mut self,
        op: AggOp,
        v: &VecRepr,
    ) -> ExecResult<Option<VecRepr>> {
        let VecRepr::Node(input) = *v else {
            return Ok(None);
        };
        let agg = self.graph.agg(op, input);
        self.defer(agg)?;
        Ok(Some(VecRepr::Node(agg)))
    }

    /// Reduce a vector to a scalar, now: the eager engines compute it, the
    /// deferred ones observe the deferred scalar (streaming, with whatever
    /// else is pending over the same storage, nothing materialized).
    pub(crate) fn aggregate(&mut self, op: AggOp, v: &VecRepr) -> ExecResult<f64> {
        match self.defer_aggregate(op, v)? {
            Some(VecRepr::Node(agg)) => self.scalar_value(agg),
            _ => self.eager_aggregate(op, v),
        }
    }

    /// Fully evaluate a vector value into memory (the `print` forcing
    /// point). Collecting a deferred scalar observes it.
    pub(crate) fn collect(&mut self, v: &VecRepr) -> ExecResult<Vec<f64>> {
        match *v {
            VecRepr::Node(id) if self.graph.shape(id) == Shape::Scalar => {
                Ok(vec![self.scalar_value(id)?])
            }
            VecRepr::Node(id) => self.force_collect(id),
            _ => self.eager_collect(v),
        }
    }

    // ================= matrix operators =================

    /// Matrix shape `(rows, cols)`.
    pub(crate) fn mat_shape(&self, m: &MatRepr) -> (usize, usize) {
        match m {
            MatRepr::Node(id) => match self.graph.shape(*id) {
                Shape::Matrix(r, c) => (r, c),
                _ => unreachable!("matrix nodes have matrix shapes"),
            },
            MatRepr::Vm(m) => (m.rows, m.cols),
            MatRepr::Stored(sm) => sm.mat.shape(),
        }
    }

    /// Matrix transpose.
    pub(crate) fn transpose(&mut self, m: &MatRepr) -> ExecResult<MatRepr> {
        Ok(match m {
            MatRepr::Node(id) => MatRepr::Node(self.graph.transpose(*id)?),
            MatRepr::Vm(m) => self.heap_transpose(*m),
            MatRepr::Stored(sm) => {
                let (layout, order) = (MatrixLayout::ColMajor, TileOrder::ColMajor);
                stored(sm.mat.transpose(layout, order, None)?, true)
            }
        })
    }

    /// Matrix product.
    pub(crate) fn matmul(&mut self, lhs: &MatRepr, rhs: &MatRepr) -> ExecResult<MatRepr> {
        self.mat_rule(Node::MatMul, [lhs, rhs])?;
        match (lhs, rhs) {
            (MatRepr::Node(l), MatRepr::Node(r)) => Ok(MatRepr::Node(self.graph.matmul(*l, *r)?)),
            (MatRepr::Vm(a), MatRepr::Vm(b)) => self.heap_matmul(*a, *b),
            (MatRepr::Stored(a), MatRepr::Stored(b)) => {
                let (t, flops) = matmul_naive(&a.mat, &b.mat, None)?;
                self.count_ops(flops as usize);
                Ok(stored(t, true))
            }
            _ => unreachable!("one engine, one matrix representation"),
        }
    }

    /// Cholesky factorization `chol(a)`: the lower-triangular `L` with
    /// `L · Lᵀ = a`. Deferred engines record a [`Node::Chol`]; the eager
    /// engines factor immediately in their own representation.
    pub(crate) fn mat_chol(&mut self, m: &MatRepr) -> ExecResult<MatRepr> {
        self.mat_rule(Node::Chol, [m])?;
        match m {
            MatRepr::Node(id) => Ok(MatRepr::Node(self.graph.chol(*id)?)),
            MatRepr::Vm(m) => self.heap_chol(*m),
            MatRepr::Stored(sm) => {
                let (l, flops) = factor::chol_tiled(&sm.mat, self.mem_elems(), None)?;
                self.count_ops(flops as usize);
                Ok(stored(l, true))
            }
        }
    }

    /// Linear solve `solve(a, b)` for symmetric positive definite `a` —
    /// always Cholesky-backed; no engine materializes an inverse.
    pub(crate) fn mat_solve(&mut self, a: &MatRepr, b: &MatRepr) -> ExecResult<MatRepr> {
        self.mat_rule(Node::Solve, [a, b])?;
        match (a, b) {
            (MatRepr::Node(l), MatRepr::Node(r)) => Ok(MatRepr::Node(self.graph.solve(*l, *r)?)),
            (MatRepr::Vm(a), MatRepr::Vm(b)) => self.heap_solve(*a, *b),
            (MatRepr::Stored(a), MatRepr::Stored(b)) => {
                let (x, flops) = factor::cholesky_solve(&a.mat, &b.mat, self.mem_elems(), 1, None)?;
                self.count_ops(flops as usize);
                Ok(stored(x, true))
            }
            _ => unreachable!("one engine, one matrix representation"),
        }
    }

    /// Fully evaluate a matrix value to row-major data.
    pub(crate) fn collect_matrix(&mut self, m: &MatRepr) -> ExecResult<(usize, usize, Vec<f64>)> {
        match m {
            MatRepr::Node(id) => self.force("collect_matrix", *id, |rt, root| {
                rt.force_matrix_value(root)?.to_rows()
            }),
            MatRepr::Vm(m) => Ok((m.rows, m.cols, self.heap.to_vec(m.id))),
            MatRepr::Stored(sm) => {
                let (rows, cols) = sm.mat.shape();
                Ok((rows, cols, sm.mat.to_rows()?))
            }
        }
    }

    /// Non-zero count of a matrix value. For a deferred sparse source this
    /// is the catalog statistic (no I/O); anything else is forced —
    /// planned like a collect, so `nnz()` executes the same physical plan
    /// and records the same stats — and counted by streaming it.
    pub(crate) fn mat_nnz(&mut self, m: &MatRepr) -> ExecResult<u64> {
        match m {
            MatRepr::Node(id) => {
                if let Node::SpMatSource { nnz, .. } = self.graph.node(*id) {
                    return Ok(*nnz);
                }
                self.force("nnz", *id, |rt, root| {
                    match rt.force_matrix_value(root)? {
                        MatValue::Sparse(s) => Ok(s.nnz()),
                        MatValue::Dense(d) => rt.dense_nnz(&d),
                    }
                })
            }
            MatRepr::Vm(m) => Ok(self.heap_nnz(*m)),
            MatRepr::Stored(sm) => self.dense_nnz(&sm.mat),
        }
    }

    /// Convert a matrix value to the sparse representation. Deferred
    /// engines defer the conversion as a `Sparsify` node; eager engines
    /// keep their dense representation (like base R, where sparsity lives
    /// in a library the eager engines do not have).
    pub(crate) fn mat_to_sparse(&mut self, m: &MatRepr) -> ExecResult<MatRepr> {
        match m {
            MatRepr::Node(id) => Ok(MatRepr::Node(self.graph.sparsify(*id)?)),
            other => Ok(self.alias_mat(other)),
        }
    }

    /// Convert a matrix value to the dense representation (`Densify` node
    /// under deferred engines; identity on the eager engines).
    pub(crate) fn mat_to_dense(&mut self, m: &MatRepr) -> ExecResult<MatRepr> {
        match m {
            MatRepr::Node(id) => Ok(MatRepr::Node(self.graph.densify(*id)?)),
            other => Ok(self.alias_mat(other)),
        }
    }

    // ================= reference counting (Plain R) =================

    /// Retain an eager value (R assignment aliases).
    pub(crate) fn retain(&mut self, v: &VecRepr) {
        if let VecRepr::Vm(id) = v {
            self.heap.retain(*id);
        }
    }

    /// Release an eager value (R GC of dead intermediates).
    pub(crate) fn release(&mut self, v: &VecRepr) {
        if let VecRepr::Vm(id) = v {
            self.heap.release(*id);
        }
    }

    /// Another handle on the matrix behind `m`, retained like a clone.
    pub(crate) fn alias_mat(&mut self, m: &MatRepr) -> MatRepr {
        if let MatRepr::Vm(m) = m {
            self.heap.retain(m.id);
        }
        m.clone()
    }

    /// Release an eager matrix.
    pub(crate) fn release_mat(&mut self, m: &MatRepr) {
        if let MatRepr::Vm(m) = m {
            self.heap.release(m.id);
        }
    }
}

/// The graph's shape rule applied to operands that are not in the graph:
/// operand `i` stands in as child `i`.
fn eager_shape<const N: usize>(
    node: impl Fn([NodeId; N]) -> Node,
    shapes: [Shape; N],
) -> ExecResult<Shape> {
    let node = node(std::array::from_fn(|i| NodeId(i as u32)));
    Ok(shape_rule(&node, |id| shapes[id.0 as usize])?)
}
