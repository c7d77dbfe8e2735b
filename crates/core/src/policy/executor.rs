//! The executor half of the deferred family: turning a planned DAG into
//! chunk pipelines, partitioned aggregation trees, and matrix kernels.
//! Nothing here knows which engine planned the DAG.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use riot_array::{DenseMatrix, DenseVector, MatrixLayout, TileOrder};
use riot_sparse::SparseMatrix;
use riot_trace::EventKind;

use super::{MatValue, Runtime};
use crate::exec::pipeline::{
    drain_folds, drain_partitioned, drain_to_vec, fold_partitioned, governed, materialize,
    position, Arg, GatherPipe, Pipe, Scan, Source, TapeBuilder,
};
use crate::exec::{factor, matmul, sparse as spkernel, ExecError, ExecResult, Operand};
use crate::expr::{AggOp, Node, NodeId};
use crate::shape::Shape;

impl Runtime {
    // ================= aggregation =================

    /// Run a batch of aggregates — `(op, input)` per sink, every input of
    /// one length — in **one pass**: one tape with a fold sink per member
    /// over the registers they share. k = 1 is the batch of one.
    ///
    /// Each sink folds as it would alone. A sink whose input is longer
    /// than one partition and provably parallel-safe takes the **fixed
    /// partition tree**: the stream is cut at block-aligned boundaries
    /// derived only from its length (never from the thread count), each
    /// partition folds sequentially from `op.init()`, and the partials
    /// combine in partition order — so `sum()` and friends are
    /// **bit-identical across every `EngineConfig::threads` value**. Any
    /// other sink is one sequential fold over the whole stream (the same
    /// value at every thread count, and bit for bit the pre-tree
    /// aggregate, which keeps small results — and the cross-engine
    /// transparency tests built on them — exactly stable). The decision
    /// reads the plan and the length only; which aggregates share the pass
    /// never changes a bit of any of them.
    ///
    /// The partition folds fan out over the worker pool when every sink
    /// takes the tree; otherwise one pipe is pointed at each partition in
    /// turn — identical partials, and the device-I/O sequence of a
    /// sequential drain — with the sequential sinks carrying on across
    /// the partition boundaries.
    pub(super) fn aggregate_batch(&mut self, sinks: &[(AggOp, NodeId)]) -> ExecResult<Vec<f64>> {
        let Some(&(_, first)) = sinks.first() else {
            return Ok(Vec::new());
        };
        let len = self.graph.shape(first).len();
        self.count_ops(len * sinks.len());
        let epb = self.ctx.elems_per_block();
        let align = self.chunk().max(epb).div_ceil(epb) * epb;
        let part = 4 * align;
        let tree: Vec<bool> = sinks
            .iter()
            .map(|&(_, input)| len > part && self.parallel_safe(input, len))
            .collect();
        let partitioned = tree.contains(&true);
        let spans: Vec<(usize, usize)> = if partitioned {
            let starts = (0..len).step_by(part);
            starts.map(|s| (s, part.min(len - s))).collect()
        } else {
            vec![(0, len)]
        };
        let threads = self.cfg.threads.max(1);
        let partials = if threads > 1 && !tree.contains(&false) {
            // One restricted pipe per partition, folded on scoped workers.
            let mut pipes = Vec::new();
            for (start, take) in spans {
                let mut pipe = self.compile_folds(sinks, len)?;
                pipe.restrict(start, take);
                pipes.push(governed(pipe, &self.ctx, "pipeline.agg.part"));
            }
            fold_partitioned(pipes, threads)?
        } else {
            let pipe = self.compile_folds(sinks, len)?;
            let mut pipe = governed(pipe, &self.ctx, "pipeline.agg.chunk");
            let (mut buf, mut partials) = (Vec::new(), Vec::new());
            for (start, take) in spans {
                if partitioned {
                    pipe.restrict(start, take);
                }
                drain_folds(pipe.as_mut(), &mut buf)?;
                partials.push(pipe.folds().to_vec());
                // A tree sink starts its next partition over.
                for ((acc, &(op, _)), &tree) in pipe.folds().iter_mut().zip(sinks).zip(&tree) {
                    if tree {
                        *acc = op.init();
                    }
                }
            }
            partials
        };
        let mut values = Vec::with_capacity(sinks.len());
        for (at, (&(op, _), &tree)) in sinks.iter().zip(&tree).enumerate() {
            // A tree sink combines its partials in partition order; a
            // sequential sink's last reading is its whole fold.
            let from = if tree { 0 } else { partials.len() - 1 };
            let mut acc = partials[from][at];
            for later in &partials[from + 1..] {
                acc = op.fold(acc, later[at]);
            }
            if op == AggOp::Mean && len > 0 {
                acc /= len as f64;
            }
            values.push(acc);
        }
        Ok(values)
    }

    // ================= parallel pipeline =================

    /// True when `id` can be compiled into independently restrictable
    /// partitions whose combined execution is observably identical to the
    /// sequential drain (same elements, same counted I/O, same op count).
    ///
    /// Conservative by design: anything that would run side effects once
    /// per partition-compile (aggregates, scalar folding of non-literal
    /// scalars, recycled operands that drain their short side) falls back
    /// to the sequential path, and so do gathers — their probes touch
    /// blocks shared across partitions, so under out-of-core pressure the
    /// interleaved miss/eviction sequence would diverge from the
    /// sequential one. `SubAssign` is safe because its forced
    /// materialization is memoized (the first compile does the work,
    /// identical to sequential) and then scans like a stored vector.
    fn parallel_safe(&self, root: NodeId, out_len: usize) -> bool {
        let (mut seen, mut stack) = (HashSet::new(), vec![root]);
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue; // a shared node is judged once
            }
            let node = self.graph.node(id);
            match self.graph.shape(id) {
                Shape::Scalar if matches!(node, Node::Scalar(_)) => continue,
                Shape::Vector(l) if l == out_len => {}
                _ => return false, // computed scalar, recycled operand or matrix value
            }
            if self.materialized.contains_key(&id) {
                continue; // compiles to a restrictable stored Scan
            }
            match node {
                Node::VecSource { .. } | Node::Literal(_) | Node::Range { .. } => {}
                Node::SubAssign(_) => {} // forced once, then a stored Scan
                Node::Map(..) | Node::Zip(..) | Node::IfElse(_) | Node::MaskAssign(_) => {
                    stack.extend(node.children());
                }
                _ => return false,
            }
        }
        true
    }

    /// Attempt a partitioned parallel drain of node `id` (`len` elements):
    /// compile one pipe per chunk-aligned span, restrict each to its span,
    /// and drain them on `cfg.threads` scoped workers into one output
    /// buffer. Returns `None` (and performs no partial work the sequential
    /// path would not) when the plan is not parallel-safe.
    pub(super) fn try_parallel_collect(
        &mut self,
        id: NodeId,
        len: usize,
    ) -> ExecResult<Option<Vec<f64>>> {
        let threads = self.cfg.threads;
        // Partition boundaries must be **block-aligned** (in elements):
        // two partitions sharing a boundary block would each pin it, and
        // under eviction pressure the shared block could be device-read
        // twice, breaking I/O parity with the sequential drain. Chunk
        // alignment additionally keeps per-partition streams starting on
        // chunk boundaries when the chunk is block-sized or larger.
        let epb = self.ctx.elems_per_block();
        let align = self.chunk().max(epb).div_ceil(epb) * epb;
        if threads <= 1 || len < 2 * align || !self.parallel_safe(id, len) {
            return Ok(None);
        }
        let per = len.div_ceil(threads).div_ceil(align) * align;
        if per >= len {
            return Ok(None);
        }
        let mut out = vec![0.0; len];
        let mut parts = Vec::new();
        for (k, slice) in out.chunks_mut(per).enumerate() {
            let mut pipe = self.compile(id, len)?;
            pipe.restrict(k * per, slice.len());
            parts.push((governed(pipe, &self.ctx, "pipeline.collect.part"), slice));
        }
        drain_partitioned(parts, threads)?;
        Ok(Some(out))
    }

    // ================= pipeline compilation =================

    /// Compile node `id` into a pipe producing `out_len` elements
    /// (broadcasting scalars and recycling short operands): one tape for
    /// the whole DAG under `id`, one instruction per distinct node.
    pub(super) fn compile(&mut self, id: NodeId, out_len: usize) -> ExecResult<Box<dyn Pipe>> {
        let mut tape = TapeBuilder::new(out_len, self.chunk(), Arc::clone(&self.cpu_ops));
        let root = self.emit(&mut tape, &mut HashMap::new(), id, out_len)?;
        Ok(Box::new(tape.finish(root)))
    }

    /// Compile a batch of aggregates over `len`-element inputs into one
    /// tape that folds into one sink per member, in order: still one
    /// instruction per distinct node, whichever members reach it.
    fn compile_folds(
        &mut self,
        sinks: &[(AggOp, NodeId)],
        len: usize,
    ) -> ExecResult<Box<dyn Pipe>> {
        let mut tape = TapeBuilder::new(len, self.chunk(), Arc::clone(&self.cpu_ops));
        let mut done = HashMap::new();
        for &(op, input) in sinks {
            let input = self.emit(&mut tape, &mut done, input, len)?;
            tape.fold(op, input);
        }
        Ok(Box::new(tape.finish(None)))
    }

    /// Emit node `id` onto `tape`, children first, and return where its
    /// value is: a register, or a constant for a scalar (scalar arithmetic
    /// folds in the builder). `done` memoizes by node, so a shared
    /// subexpression — and anything its compilation forces: a recycled
    /// operand's drain, an indexed update — happens once per tape.
    fn emit(
        &mut self,
        tape: &mut TapeBuilder,
        done: &mut HashMap<NodeId, Arg>,
        id: NodeId,
        out_len: usize,
    ) -> ExecResult<Arg> {
        if let Some(&arg) = done.get(&id) {
            return Ok(arg);
        }
        let chunk = self.chunk();
        let shape = self.graph.shape(id);
        let arg =
            if shape != Shape::Scalar && shape.len() != out_len {
                // Recycled operand: materialize the short side in memory.
                debug_assert!(shape.len() < out_len && out_len.is_multiple_of(shape.len()));
                let data = self.drain(id, shape.len(), "pipeline.cycle.chunk")?;
                tape.pull(Box::new(Scan::cycle(data, out_len, chunk)))
            } else if let Some(source) = self.leaf_source(id) {
                tape.pull(Box::new(Scan::new(source, chunk)))
            } else {
                match self.graph.node(id).clone() {
                    Node::Scalar(c) => Arg::Const(c),
                    // Forcing points give the aggregates under their root
                    // a value before they plan; one met here runs now.
                    Node::Agg(..) => Arg::Const(self.scalar_value(id)?),
                    Node::Map(op, [input]) => {
                        let input = self.emit(tape, done, input, out_len)?;
                        tape.map(op, input)
                    }
                    Node::Zip(op, [lhs, rhs]) => {
                        let lhs = self.emit(tape, done, lhs, out_len)?;
                        let rhs = self.emit(tape, done, rhs, out_len)?;
                        tape.zip(op, lhs, rhs)
                    }
                    // A `MaskAssign` is present when the optimizer is off (MatNamed
                    // or ablation): it executes as the equivalent conditional.
                    Node::IfElse([cond, yes, no]) | Node::MaskAssign([no, cond, yes]) => {
                        match self.emit(tape, done, cond, out_len)? {
                            // A scalar condition picks its arm here.
                            Arg::Const(c) => {
                                self.emit(tape, done, if c != 0.0 { yes } else { no }, out_len)?
                            }
                            cond => {
                                let yes = self.emit(tape, done, yes, out_len)?;
                                let no = self.emit(tape, done, no, out_len)?;
                                tape.if_else(cond, yes, no)
                            }
                        }
                    }
                    // The non-lockstep operators stay pipes of their own, which
                    // the tape pulls from like any other leaf.
                    Node::Gather([data, index]) => {
                        let idx_len = self.graph.shape(index).len();
                        let index = self.compile(index, idx_len)?;
                        let probe = self.compile_probe(data)?;
                        let ops = Arc::clone(&self.cpu_ops);
                        tape.pull(Box::new(GatherPipe::new(index, probe, ops)))
                    }
                    Node::SubAssign([data, index, value]) => {
                        let vec = self.force_subassign(id, data, index, value)?;
                        tape.pull(Box::new(Scan::new(Source::Stored(vec), chunk)))
                    }
                    _ => return Err(ExecError::Unsupported(
                        "matrix values cannot stream through vector pipelines; use collect_matrix"
                            .to_string(),
                    )),
                }
            };
        done.insert(id, arg);
        Ok(arg)
    }

    /// Compile node `id` and drain all `len` elements into memory,
    /// checkpointing under `at`.
    pub(super) fn drain(
        &mut self,
        id: NodeId,
        len: usize,
        at: &'static str,
    ) -> ExecResult<Vec<f64>> {
        drain_to_vec(governed(self.compile(id, len)?, &self.ctx, at))
    }

    /// What node `id` can be read from where it lies: its stored result
    /// when it has one, else the vector a leaf stands for.
    fn leaf_source(&self, id: NodeId) -> Option<Source> {
        if let Some(vec) = self.materialized.get(&id) {
            return Some(Source::Stored(vec.clone()));
        }
        match self.graph.node(id) {
            Node::VecSource { source, .. } => {
                Some(Source::Stored(self.vec_sources[&source.0].clone()))
            }
            Node::Literal(data) => Some(Source::Mem(Arc::clone(data))),
            &Node::Range { start, len } => Some(Source::Range { start, len }),
            _ => None,
        }
    }

    /// Random-access side of a gather: leaves probe directly; anything
    /// else is materialized first (RIOT's "materialization complements
    /// deferred evaluation").
    fn compile_probe(&mut self, id: NodeId) -> ExecResult<Source> {
        match self.leaf_source(id) {
            Some(source) => Ok(source),
            None => Ok(Source::Stored(self.force_vector_to_disk(id)?)),
        }
    }

    /// Materialize `data`, then overwrite positions `index` with `value`.
    fn force_subassign(
        &mut self,
        node_id: NodeId,
        data: NodeId,
        index: NodeId,
        value: NodeId,
    ) -> ExecResult<DenseVector> {
        if let Some(v) = self.materialized.get(&node_id) {
            return Ok(v.clone());
        }
        let len = self.graph.shape(data).len();
        let vec = materialize(self.compile(data, len)?, &self.ctx, None)?;
        let idx_len = self.graph.shape(index).len();
        let idx = self.drain(index, idx_len, "pipeline.collect.chunk")?;
        let vals = self.drain(value, idx_len, "pipeline.collect.chunk")?;
        for (&raw, &val) in idx.iter().zip(&vals) {
            vec.set(position(raw, len)?, val)?;
        }
        self.count_ops(len + idx.len());
        self.materialized.insert(node_id, vec.clone());
        Ok(vec)
    }

    // ================= matrices =================

    /// Run one matrix kernel inside a span named `name`, counting the
    /// scalar operations it reports.
    fn kernel<T>(
        &mut self,
        name: &'static str,
        detail: impl FnOnce(&Self) -> String,
        body: impl FnOnce(&mut Self) -> ExecResult<(T, u64)>,
    ) -> ExecResult<T> {
        self.span(name, detail, |rt| {
            let (out, flops) = body(rt)?;
            rt.count_ops(flops as usize);
            Ok(out)
        })
    }

    /// Materialize a matrix node in whichever physical representation the
    /// plan produces, dispatching `MatMul` to the sparse kernels when an
    /// operand is sparse (the optimizer already densified operands above
    /// the density threshold):
    ///
    /// * sparse x sparse (aligned tiles) -> [`spkernel::spmm`], sparse
    /// * sparse x dense -> [`spkernel::spmdm`], dense accumulator tiles
    /// * dense x sparse -> [`spkernel::dmspm`], dense accumulator strips
    /// * dense x dense -> the configured [`crate::exec::MatMulKernel`]
    ///
    /// and `Transpose`/`SpTranspose` to the native [`spkernel::sptranspose`]
    /// whenever the forced operand is sparse — no combination in the
    /// `{sparse, dense}` product/transpose table densifies implicitly.
    pub(super) fn force_matrix_value(&mut self, id: NodeId) -> ExecResult<MatValue> {
        if let Some(m) = self.mat_materialized.get(&id) {
            return Ok(MatValue::Dense(m.clone()));
        }
        if let Some(s) = self.sparse_materialized.get(&id) {
            return Ok(MatValue::Sparse(s.clone()));
        }
        let (threads, mem) = (self.cfg.threads.max(1), self.mem_elems());
        let out = match self.graph.node(id).clone() {
            Node::MatSource { source, .. } => MatValue::Dense(self.mat_sources[&source.0].clone()),
            Node::SpMatSource { source, .. } => {
                MatValue::Sparse(self.sparse_sources[&source.0].clone())
            }
            Node::Densify([input]) => MatValue::Dense(self.force_dense_value(input)?),
            Node::Sparsify([input]) => match self.force_matrix_value(input)? {
                MatValue::Dense(d) => MatValue::Sparse(SparseMatrix::from_dense(&d, None)?),
                sparse => sparse,
            },
            Node::MatMul([lhs, rhs]) => {
                let (a, at) = self.force_operand(lhs)?;
                let (b, bt) = self.force_operand(rhs)?;
                if let (MatValue::Dense(a), MatValue::Dense(b)) = (&a, &b) {
                    let (a, b) = (Operand { mat: a, trans: at }, Operand { mat: b, trans: bt });
                    MatValue::Dense(self.multiply_dense(a, b)?)
                } else {
                    // The sparse kernels take stored operands: a dense
                    // transpose that meets one is materialized after all.
                    let a = if at { self.force_matrix_value(lhs)? } else { a };
                    let b = if bt { self.force_matrix_value(rhs)? } else { b };
                    self.multiply_values(a, b)?
                }
            }
            // Transpose is representation-generic: whatever representation
            // the input forces to, the result keeps it. `SpTranspose` is
            // the optimizer's explicit below-threshold plan; a plain
            // `Transpose` over a sparse value (e.g. under MatNamed, which
            // never optimizes) reaches the same native kernel.
            Node::Transpose([input]) | Node::SpTranspose([input]) => {
                let value = self.force_matrix_value(input)?;
                let (r, c) = value.shape();
                match value {
                    MatValue::Sparse(s) => MatValue::Sparse(self.kernel(
                        "sptranspose",
                        |_| format!("{r}x{c} nnz={}", s.nnz()),
                        |_| spkernel::sptranspose(&s, None),
                    )?),
                    MatValue::Dense(d) => MatValue::Dense(self.span(
                        "transpose",
                        |_| format!("{r}x{c}"),
                        |_| Ok(d.transpose(MatrixLayout::Square, TileOrder::RowMajor, None)?),
                    )?),
                }
            }
            Node::Chol([input]) => {
                let a = self.force_dense_value(input)?;
                let (r, c) = a.shape();
                MatValue::Dense(self.kernel(
                    "chol",
                    |_| format!("{r}x{c}"),
                    |_| factor::chol_tiled_parallel(&a, mem, threads, None),
                )?)
            }
            Node::Solve([lhs, rhs]) => {
                let a = self.force_dense_value(lhs)?;
                let b = self.force_dense_value(rhs)?;
                let ((r, c), m) = (a.shape(), b.cols());
                MatValue::Dense(self.kernel(
                    "solve",
                    |_| format!("{r}x{c} \\ {r}x{m}"),
                    |_| factor::cholesky_solve(&a, &b, mem, threads, None),
                )?)
            }
            other => {
                return Err(ExecError::Unsupported(format!(
                    "matrix execution of {other:?}"
                )))
            }
        };
        match &out {
            MatValue::Dense(d) => {
                self.mat_materialized.insert(id, d.clone());
            }
            MatValue::Sparse(s) => {
                self.sparse_materialized.insert(id, s.clone());
            }
        }
        Ok(out)
    }

    /// Force one side of a `MatMul`. A `Transpose` of a dense value is not
    /// executed: its *input* is forced and `true` returned, so the product
    /// reads it through a transposed [`Operand`] and `t(x)` never becomes
    /// a stored object on the product's account.
    fn force_operand(&mut self, id: NodeId) -> ExecResult<(MatValue, bool)> {
        if let Node::Transpose([input]) = *self.graph.node(id) {
            if let dense @ MatValue::Dense(_) = self.force_matrix_value(input)? {
                return Ok((dense, true));
            }
        }
        Ok((self.force_matrix_value(id)?, false))
    }

    /// Dense x dense under the configured [`crate::exec::MatMulKernel`],
    /// operand flags and all. Fused transposes and Gram products are
    /// executor-level plan decisions, counted and traced next to the
    /// optimizer's (`RewriteStats`, `Rewrite` events): the profile of a
    /// fused product has no `transpose` span, and these are the lines
    /// saying why.
    fn multiply_dense(&mut self, a: Operand<'_>, b: Operand<'_>) -> ExecResult<DenseMatrix> {
        let gram = matmul::is_gram(a, b);
        let fused = u64::from(a.trans) + u64::from(b.trans);
        self.last_opt_stats.transposes_fused += fused;
        self.last_opt_stats.gram_products += u64::from(gram);
        for (rule, count) in [("transposes_fused", fused), ("gram_products", gram.into())] {
            if count > 0 {
                self.ctx.tracer().record(EventKind::Rewrite { rule, count });
            }
        }
        let detail = |_: &Self| {
            let op = |o: Operand<'_>| {
                let (r, c) = o.mat.shape();
                if o.trans {
                    format!("t({r}x{c})")
                } else {
                    format!("{r}x{c}")
                }
            };
            format!("{} * {}{}", op(a), op(b), if gram { " [gram]" } else { "" })
        };
        let (kernel, mem) = (self.cfg.matmul_kernel, self.mem_elems());
        self.kernel("matmul", detail, |_| {
            matmul::multiply(kernel, a, b, mem, None)
        })
    }

    /// Force a node and densify the result: the factorization kernels are
    /// dense-only (a Cholesky factor of a sparse matrix fills in anyway).
    pub(super) fn force_dense_value(&mut self, id: NodeId) -> ExecResult<DenseMatrix> {
        Ok(match self.force_matrix_value(id)? {
            MatValue::Dense(d) => d,
            MatValue::Sparse(s) => s.to_dense(TileOrder::RowMajor, None)?,
        })
    }

    /// One multiplication over materialized operands, choosing a kernel by
    /// representation. The sparse kernels fan their independent strips /
    /// output tiles out over `EngineConfig::threads` workers (`1`, the
    /// default, is the bit-for-bit sequential schedule).
    fn multiply_values(&mut self, a: MatValue, b: MatValue) -> ExecResult<MatValue> {
        let threads = self.cfg.threads.max(1);
        let ((ar, ac), (_, bc)) = (a.shape(), b.shape());
        let detail = move |_: &Self| format!("{ar}x{ac} * {ac}x{bc}");
        Ok(match (a, b) {
            (MatValue::Dense(a), MatValue::Dense(b)) => {
                MatValue::Dense(self.multiply_dense((&a).into(), (&b).into())?)
            }
            (MatValue::Sparse(a), MatValue::Sparse(b))
                if a.tile_dims() == b.tile_dims() && a.tile_dims().0 == a.tile_dims().1 =>
            {
                MatValue::Sparse(
                    self.kernel("spmm", detail, |_| spkernel::spmm(&a, &b, threads, None))?,
                )
            }
            // Sparse x sparse over mismatched tilings falls back to the
            // sparse x dense kernel on a densified right side.
            (MatValue::Sparse(a), b) => MatValue::Dense(self.kernel("spmdm", detail, |_| {
                let b = match b {
                    MatValue::Dense(b) => b,
                    MatValue::Sparse(b) => b.to_dense(TileOrder::RowMajor, None)?,
                };
                spkernel::spmdm(&a, &b, threads, None)
            })?),
            (MatValue::Dense(a), MatValue::Sparse(b)) => {
                MatValue::Dense(
                    self.kernel("dmspm", detail, |_| spkernel::dmspm(&a, &b, threads, None))?,
                )
            }
        })
    }

    /// Count the non-zeros of a stored dense matrix by streaming its tiles
    /// (in-bounds cells only; boundary padding is ignored).
    pub(super) fn dense_nnz(&mut self, m: &DenseMatrix) -> ExecResult<u64> {
        let mut count = 0u64;
        m.for_each(|_, _, v| count += u64::from(v != 0.0))?;
        self.count_ops(m.rows() * m.cols());
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::eval::{evaluate, MemSources};
    use crate::expr::{BinOp, UnOp};
    use crate::policy::VecRepr;
    use crate::{EngineConfig, EngineKind};

    /// Length of every vector: a ragged number of 16-element chunks, and
    /// past the `4 x chunk` partition size, so aggregates take the tree.
    const N: usize = 203;

    /// A scalar constant or an earlier node (index modulo the node count).
    #[derive(Debug, Clone, Copy)]
    enum Operand {
        Node(u8),
        Scalar(i8),
    }

    /// One interior node of a random DAG. Operands point at *any* earlier
    /// node, so fan-out — one node under many parents — is the common case.
    #[derive(Debug, Clone, Copy)]
    enum Spec {
        Map(UnOp, u8),
        Zip(BinOp, u8, Operand),
        IfElse(u8, Operand, Operand),
    }

    fn operand() -> impl Strategy<Value = Operand> {
        prop_oneof![
            3 => any::<u8>().prop_map(Operand::Node),
            1 => (-3i8..4).prop_map(Operand::Scalar),
        ]
    }

    fn spec() -> impl Strategy<Value = Spec> {
        use {BinOp::*, UnOp::*};
        let unops = [Neg, Sqrt, Abs, Square, Exp, Ln, Not];
        let binops = [
            Add, Sub, Mul, Div, Pow, Mod, Min, Max, Eq, Ne, Lt, Le, Gt, Ge, And, Or,
        ];
        prop_oneof![
            3 => (0..unops.len(), any::<u8>()).prop_map(move |(op, a)| Spec::Map(unops[op], a)),
            6 => (0..binops.len(), any::<u8>(), operand())
                .prop_map(move |(op, a, b)| Spec::Zip(binops[op], a, b)),
            2 => (any::<u8>(), operand(), operand()).prop_map(|(c, y, n)| Spec::IfElse(c, y, n)),
        ]
    }

    /// A runtime holding `x`, `y` and `1:N`, the DAG `specs` describes
    /// over them (every node, the root last), and the oracle's sources.
    fn build(specs: &[Spec], threads: usize) -> (Runtime, Vec<NodeId>, MemSources) {
        let mut cfg = EngineConfig::new(EngineKind::Riot);
        cfg.block_size = 128; // 16 elements
        cfg.chunk_elems = 16;
        cfg.mem_blocks = 64; // holds x and y: counted I/O is thread-invariant
        cfg.threads = threads;
        let mut rt = Runtime::new(cfg);
        let xd: Vec<f64> = (0..N).map(|i| i as f64 * 0.75 - 40.0).collect();
        let yd: Vec<f64> = (0..N).map(|i| ((i * 7) % 11) as f64 - 2.0).collect();
        let mut src = MemSources::new();
        let mut nodes = Vec::new();
        for data in [xd, yd] {
            match rt.load_vector(N, None, |i| data[i]).unwrap() {
                VecRepr::Node(id) => nodes.push(id),
                _ => unreachable!("Riot values are DAG nodes"),
            }
            src.add_vector(data);
        }
        nodes.push(rt.graph.range(1, N));
        for spec in specs {
            let g = &mut rt.graph;
            let at = |i: u8| nodes[i as usize % nodes.len()];
            let mut arg = |o: Operand| match o {
                Operand::Node(i) => at(i),
                Operand::Scalar(c) => g.scalar(f64::from(c)),
            };
            let id = match *spec {
                Spec::Map(op, a) => g.map(op, at(a)),
                Spec::Zip(op, a, b) => {
                    let b = arg(b);
                    g.zip(op, at(a), b).unwrap()
                }
                Spec::IfElse(c, y, n) => {
                    let (y, n) = (arg(y), arg(n));
                    g.if_else(at(c), y, n).unwrap()
                }
            };
            nodes.push(id);
        }
        (rt, nodes, src)
    }

    /// The `(op, node)` sinks `picks` names over `nodes`.
    fn sinks_over(picks: &[(usize, u8)], nodes: &[NodeId]) -> Vec<(AggOp, NodeId)> {
        let ops = [AggOp::Sum, AggOp::Mean, AggOp::Min, AggOp::Max];
        let sink = |&(op, at): &(usize, u8)| (ops[op], nodes[at as usize % nodes.len()]);
        picks.iter().map(sink).collect()
    }

    /// Bit-for-bit, except that any NaN equals any NaN (a vectorized
    /// kernel may propagate a different payload).
    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
    }

    /// A batch whose sinks disagree on the partition tree — a gather is
    /// never parallel-safe — still gives each sink the fold it has alone:
    /// one pipe visits the partitions in turn and the sequential sink
    /// carries on across their boundaries.
    #[test]
    fn a_mixed_batch_keeps_each_sinks_own_fold() {
        for threads in [1, 4] {
            let thirds = Spec::Zip(BinOp::Div, 0, Operand::Scalar(3));
            let (mut rt, nodes, _) = build(&[thirds], threads);
            let (thirds, all) = (nodes[3], nodes[2]);
            let gathered = rt.graph.gather(thirds, all).unwrap();
            assert!(rt.parallel_safe(thirds, N) && !rt.parallel_safe(gathered, N));
            let sinks = [
                (AggOp::Sum, gathered),
                (AggOp::Sum, thirds),
                (AggOp::Mean, nodes[0]),
            ];
            let batch = rt.aggregate_batch(&sinks).unwrap();
            let alone = sinks.map(|sink| rt.aggregate_batch(&[sink]).unwrap()[0]);
            assert!(same_bits(&batch, &alone), "{batch:?} vs {alone:?}");
            // Same values, and the straight fold and the tree really are
            // different sums of them.
            assert_ne!(batch[0].to_bits(), batch[1].to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The tape against the oracle on random DAGs with fan-out: same
        /// bits, one instruction per distinct interior node, restriction
        /// equal to slicing, and the same answers and counters with
        /// threads — streaming, and folding into k sinks at once.
        #[test]
        fn tape_matches_the_oracle_on_random_dags(
            specs in prop::collection::vec(spec(), 1..24),
            picks in prop::collection::vec((0..4usize, any::<u8>()), 1..6),
            start in 0..N,
            take in 0..N,
        ) {
            let (mut rt, nodes, src) = build(&specs, 1);
            let root = *nodes.last().unwrap();
            let want = evaluate(&rt.graph, root, &src).unwrap().to_flat();

            // One full drain: the oracle's bits, and one scalar operation
            // per element of each *distinct* interior node.
            let interior = rt.graph.reachable(&[root]).into_iter().filter(|&id| {
                !rt.graph.node(id).is_leaf() && rt.graph.shape(id) == Shape::Vector(N)
            });
            let interior = interior.count() as u64;
            let pipe = rt.compile(root, N).unwrap();
            prop_assert_eq!(pipe.ops_per_elem(), interior);
            let before = rt.cpu_ops();
            let full = drain_to_vec(pipe).unwrap();
            prop_assert!(same_bits(&full, &want), "{specs:?}: {full:?} vs {want:?}");
            prop_assert_eq!(rt.cpu_ops() - before, interior * N as u64);

            // A restricted tape produces exactly that slice of the stream.
            let take = take.min(N - start);
            let mut pipe = rt.compile(root, N).unwrap();
            pipe.restrict(start, take);
            prop_assert_eq!(pipe.total_len(), take);
            let part = drain_to_vec(pipe).unwrap();
            prop_assert!(same_bits(&part, &full[start..start + take]));

            // A restricted multi-sink tape folds exactly that slice of
            // each sink's stream, in order.
            let sinks = sinks_over(&picks, &nodes);
            let mut want = Vec::new();
            for &(op, node) in &sinks {
                let stream = drain_to_vec(rt.compile(node, N).unwrap()).unwrap();
                let slice = &stream[start..start + take];
                want.push(slice.iter().fold(op.init(), |acc, &v| op.fold(acc, v)));
            }
            let mut pipe = rt.compile_folds(&sinks, N).unwrap();
            pipe.restrict(start, take);
            drain_folds(pipe.as_mut(), &mut Vec::new()).unwrap();
            prop_assert!(same_bits(pipe.folds(), &want), "{sinks:?}");

            // Forcing points at 1 and 4 threads: same values, same scalar
            // work, same counted I/O.
            let runs = [1, 4].map(|threads| {
                let (mut rt, nodes, _) = build(&specs, threads);
                let root = *nodes.last().unwrap();
                rt.drop_caches().unwrap();
                let io = rt.io_snapshot();
                let out = rt.force_collect(root).unwrap();
                let sum = rt.aggregate(AggOp::Sum, &VecRepr::Node(root)).unwrap();
                let io = rt.io_snapshot() - io;
                (out, sum.to_bits(), rt.cpu_ops(), io.reads, io.writes)
            });
            prop_assert!(same_bits(&runs[0].0, &runs[1].0));
            prop_assert!(runs[0].1 == runs[1].1 || (runs[0].0.iter().any(|v| v.is_nan())));
            prop_assert_eq!(&runs[0].2, &runs[1].2);
            prop_assert_eq!((runs[0].3, runs[0].4), (runs[1].3, runs[1].4));

            // One pass with k sinks: each sink's bits are those of its own
            // single-sink pass, at either thread count, and the pass
            // counts every distinct node under the sinks once per element
            // plus one fold per sink.
            let batches = [1, 4].map(|threads| {
                let (mut rt, nodes, _) = build(&specs, threads);
                let sinks = sinks_over(&picks, &nodes);
                let inputs: Vec<NodeId> = sinks.iter().map(|&(_, node)| node).collect();
                let interior = rt.graph.reachable(&inputs).into_iter();
                let interior = interior.filter(|&id| !rt.graph.node(id).is_leaf()).count();
                let before = rt.cpu_ops();
                let batch = rt.aggregate_batch(&sinks).unwrap();
                let counted = rt.cpu_ops() - before;
                assert_eq!(counted, ((interior + sinks.len()) * N) as u64, "{sinks:?}");
                let alone = sinks.iter().map(|&sink| rt.aggregate_batch(&[sink]).unwrap()[0]);
                let alone: Vec<f64> = alone.collect();
                assert!(same_bits(&batch, &alone), "{sinks:?}: {batch:?} vs {alone:?}");
                batch
            });
            prop_assert!(same_bits(&batches[0], &batches[1]));
        }
    }
}
