//! The executor half of the deferred family: turning a planned DAG into
//! chunk pipelines, partitioned aggregation trees, and matrix kernels.
//! Nothing here knows which engine planned the DAG.

use std::sync::Arc;

use riot_array::{DenseMatrix, DenseVector, MatrixLayout, TileOrder};
use riot_sparse::SparseMatrix;
use riot_trace::EventKind;

use super::{MatValue, Runtime};
use crate::exec::pipeline::{
    drain_agg, drain_partitioned, drain_to_vec, fold_partitioned, for_each_chunk, governed,
    materialize, position, GatherPipe, IfElsePipe, MapPipe, Pipe, Probe, Scan, ZipPipe,
};
use crate::exec::{factor, matmul, sparse as spkernel, ExecError, ExecResult, Operand};
use crate::expr::{AggOp, Node, NodeId};
use crate::shape::Shape;

impl Runtime {
    // ================= aggregation =================

    /// Aggregate node `input` with `op` through the **fixed partition
    /// tree**: the stream is cut at block-aligned boundaries derived only
    /// from its length (never from the thread count), each partition
    /// folds sequentially from `op.init()`, and the partials combine in
    /// partition order — so `sum()` and friends are **bit-identical
    /// across every `EngineConfig::threads` value**, while still fanning
    /// the partition folds out over the worker pool.
    ///
    /// Inputs at most one partition long take the classic single-fold
    /// path (bit-for-bit the pre-tree sequential aggregate, which keeps
    /// small results — and the cross-engine transparency tests built on
    /// them — exactly stable); inputs the partitioner cannot prove
    /// parallel-safe fall back to it too (one sequential fold is the same
    /// value at every thread count).
    pub(super) fn aggregate_node(&mut self, op: AggOp, input: NodeId) -> ExecResult<f64> {
        let len = self.graph.shape(input).len();
        self.count_ops(len);
        let epb = self.ctx.elems_per_block();
        let align = self.chunk().max(epb).div_ceil(epb) * epb;
        let part = 4 * align;
        if len <= part || !self.parallel_safe(input, len) {
            let pipe = governed(self.compile(input, len)?, &self.ctx, "pipeline.agg.chunk");
            return drain_agg(pipe, op);
        }
        // Probe restrictability once, so the tree-vs-fallback decision is
        // identical at every thread count (`parallel_safe` is necessary,
        // but `restrict` is the authority; a partially restricted tree
        // must be discarded per the `Pipe::restrict` contract).
        {
            let mut probe = self.compile(input, len)?;
            if !probe.restrict(0, len) {
                let pipe = governed(self.compile(input, len)?, &self.ctx, "pipeline.agg.chunk");
                return drain_agg(pipe, op);
            }
        }
        let spans: Vec<(usize, usize)> = (0..len)
            .step_by(part)
            .map(|s| (s, part.min(len - s)))
            .collect();
        let threads = self.cfg.threads.max(1);
        let partials = if threads <= 1 {
            // One pass over a single pipe with the accumulator reset at
            // partition boundaries: identical partials, and the exact
            // device-I/O sequence of the old sequential drain.
            let mut pipe = governed(self.compile(input, len)?, &self.ctx, "pipeline.agg.chunk");
            let mut partials = Vec::with_capacity(spans.len());
            let mut at = 0usize;
            let mut acc = op.init();
            for_each_chunk(
                |buf| pipe.next_into(buf),
                |mut chunk| {
                    while !chunk.is_empty() {
                        let (s, take) = spans[partials.len()];
                        let (head, rest) = chunk.split_at((s + take - at).min(chunk.len()));
                        acc = head.iter().fold(acc, |a, &v| op.fold(a, v));
                        at += head.len();
                        chunk = rest;
                        if at == s + take {
                            partials.push(acc);
                            acc = op.init();
                        }
                    }
                    Ok(())
                },
            )?;
            debug_assert_eq!(at, len, "aggregation consumed the whole stream");
            partials
        } else {
            // One restricted pipe per span, folded on scoped workers.
            let mut pipes = Vec::with_capacity(spans.len());
            for &(s, take) in &spans {
                let mut pipe = self.compile(input, len)?;
                if !pipe.restrict(s, take) {
                    // Unreachable after the probe for every built-in pipe;
                    // kept graceful for future pipes with span-dependent
                    // restriction.
                    let pipe = governed(self.compile(input, len)?, &self.ctx, "pipeline.agg.chunk");
                    return drain_agg(pipe, op);
                }
                pipes.push(governed(pipe, &self.ctx, "pipeline.agg.part"));
            }
            fold_partitioned(pipes, op, threads)?
        };
        let mut acc = partials[0];
        for &p in &partials[1..] {
            acc = op.fold(acc, p);
        }
        if op == AggOp::Mean && len > 0 {
            acc /= len as f64;
        }
        Ok(acc)
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
    fn parallel_safe(&self, id: NodeId, out_len: usize) -> bool {
        match self.graph.shape(id) {
            Shape::Scalar => return matches!(self.graph.node(id), Node::Scalar(_)),
            Shape::Vector(l) if l == out_len => {}
            _ => return false, // recycled operand or matrix value
        }
        if self.materialized.contains_key(&id) {
            return true; // compiles to a restrictable stored Scan
        }
        match self.graph.node(id) {
            Node::VecSource { .. } | Node::Literal(_) | Node::Range { .. } => true,
            node @ (Node::Map(..) | Node::Zip(..) | Node::IfElse(_) | Node::MaskAssign(_)) => {
                let mut operands = node.children().iter();
                operands.all(|&c| self.parallel_safe(c, out_len))
            }
            Node::SubAssign(_) => true, // forced once, then a stored Scan
            _ => false,
        }
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
        let mut spans = Vec::new();
        let mut start = 0;
        while start < len {
            let take = per.min(len - start);
            spans.push((start, take));
            start += take;
        }
        if spans.len() <= 1 {
            return Ok(None);
        }
        let mut out = vec![0.0; len];
        {
            let mut slices: Vec<&mut [f64]> = Vec::new();
            let mut rest: &mut [f64] = &mut out;
            for &(_, take) in &spans {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
                slices.push(head);
                rest = tail;
            }
            let mut parts: Vec<(Box<dyn Pipe>, &mut [f64])> = Vec::with_capacity(spans.len());
            for (&(s, take), slice) in spans.iter().zip(slices) {
                let mut pipe = self.compile(id, len)?;
                if !pipe.restrict(s, take) {
                    return Ok(None);
                }
                parts.push((governed(pipe, &self.ctx, "pipeline.collect.part"), slice));
            }
            drain_partitioned(parts, threads)?;
        }
        Ok(Some(out))
    }

    // ================= pipeline compilation =================

    /// Compile node `id` into a pipe producing `out_len` elements
    /// (broadcasting scalars and recycling short operands).
    pub(super) fn compile(&mut self, id: NodeId, out_len: usize) -> ExecResult<Box<dyn Pipe>> {
        let shape = self.graph.shape(id);
        let own_len = shape.len();
        if matches!(shape, Shape::Scalar) {
            let value = self.scalar_value(id)?;
            return Ok(Box::new(Scan::constant(value, out_len, self.chunk())));
        }
        if own_len != out_len {
            // Recycled operand: materialize the short side in memory.
            debug_assert!(own_len < out_len && out_len % own_len == 0);
            let data = self.drain(id, own_len, "pipeline.cycle.chunk")?;
            return Ok(Box::new(Scan::cycle(data, out_len, self.chunk())));
        }
        if let Some(vec) = self.materialized.get(&id) {
            return Ok(Box::new(Scan::stored(vec.clone(), self.chunk())));
        }
        let node = self.graph.node(id).clone();
        Ok(match node {
            Node::VecSource { source, .. } => Box::new(Scan::stored(
                self.vec_sources[&source.0].clone(),
                self.chunk(),
            )),
            Node::Literal(data) => Box::new(Scan::literal(data, self.chunk())),
            Node::Range { start, len } => Box::new(Scan::range(start, len, self.chunk())),
            Node::Scalar(_) => unreachable!("scalar shapes are handled above"),
            Node::Map(op, [input]) => {
                let input = self.compile(input, out_len)?;
                Box::new(MapPipe::new(op, input, Arc::clone(&self.cpu_ops)))
            }
            Node::Zip(op, [lhs, rhs]) => {
                let lhs = self.compile(lhs, out_len)?;
                let rhs = self.compile(rhs, out_len)?;
                Box::new(ZipPipe::new(op, lhs, rhs, Arc::clone(&self.cpu_ops)))
            }
            // A `MaskAssign` is present when the optimizer is off (MatNamed
            // or ablation): it executes as the equivalent conditional.
            Node::IfElse([cond, yes, no]) | Node::MaskAssign([no, cond, yes]) => {
                let cond = self.compile(cond, out_len)?;
                let yes = self.compile(yes, out_len)?;
                let no = self.compile(no, out_len)?;
                Box::new(IfElsePipe::new(cond, yes, no, Arc::clone(&self.cpu_ops)))
            }
            Node::Gather([data, index]) => {
                let idx_len = self.graph.shape(index).len();
                let index = self.compile(index, idx_len)?;
                let probe = self.compile_probe(data)?;
                Box::new(GatherPipe::new(index, probe, Arc::clone(&self.cpu_ops)))
            }
            Node::SubAssign([data, index, value]) => {
                let vec = self.force_subassign(id, data, index, value)?;
                Box::new(Scan::stored(vec, self.chunk()))
            }
            Node::MatMul(_)
            | Node::Transpose(_)
            | Node::SpTranspose(_)
            | Node::MatSource { .. }
            | Node::SpMatSource { .. }
            | Node::Densify(_)
            | Node::Sparsify(_)
            | Node::Chol(_)
            | Node::Solve(_) => {
                return Err(ExecError::Unsupported(
                    "matrix values cannot stream through vector pipelines; use collect_matrix"
                        .to_string(),
                ))
            }
            Node::Agg(op, [input]) => {
                let v = self.aggregate_node(op, input)?;
                Box::new(Scan::constant(v, out_len, self.chunk()))
            }
        })
    }

    /// Compile node `id` and drain all `len` elements into memory,
    /// checkpointing under `at`.
    fn drain(&mut self, id: NodeId, len: usize, at: &'static str) -> ExecResult<Vec<f64>> {
        drain_to_vec(governed(self.compile(id, len)?, &self.ctx, at))
    }

    /// Evaluate a scalar-shaped node to its value.
    fn scalar_value(&mut self, id: NodeId) -> ExecResult<f64> {
        match self.graph.node(id).clone() {
            Node::Scalar(c) => Ok(c),
            Node::Agg(op, [input]) => self.aggregate_node(op, input),
            Node::Map(op, [input]) => {
                let x = self.scalar_value(input)?;
                self.count_ops(1);
                Ok(op.apply(x))
            }
            Node::Zip(op, [lhs, rhs]) => {
                let a = self.scalar_value(lhs)?;
                let b = self.scalar_value(rhs)?;
                self.count_ops(1);
                Ok(op.apply(a, b))
            }
            Node::IfElse([cond, yes, no]) => {
                let c = self.scalar_value(cond)?;
                if c != 0.0 {
                    self.scalar_value(yes)
                } else {
                    self.scalar_value(no)
                }
            }
            other => Err(ExecError::Unsupported(format!(
                "scalar evaluation of {other:?}"
            ))),
        }
    }

    /// Random-access side of a gather: leaves probe directly; anything
    /// else is materialized first (RIOT's "materialization complements
    /// deferred evaluation").
    fn compile_probe(&mut self, id: NodeId) -> ExecResult<Probe> {
        if let Some(vec) = self.materialized.get(&id) {
            return Ok(Probe::Stored(vec.clone()));
        }
        match self.graph.node(id).clone() {
            Node::VecSource { source, .. } => {
                Ok(Probe::Stored(self.vec_sources[&source.0].clone()))
            }
            Node::Literal(data) => Ok(Probe::Mem(data)),
            Node::Range { start, len } => Ok(Probe::Range { start, len }),
            _ => {
                let vec = self.force_vector_to_disk(id)?;
                Ok(Probe::Stored(vec))
            }
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
                MatValue::Sparse(self.kernel("spmm", detail, |_| {
                    spkernel::spmm_parallel(&a, &b, threads, None)
                })?)
            }
            // Sparse x sparse over mismatched tilings falls back to the
            // sparse x dense kernel on a densified right side.
            (MatValue::Sparse(a), b) => MatValue::Dense(self.kernel("spmdm", detail, |_| {
                let b = match b {
                    MatValue::Dense(b) => b,
                    MatValue::Sparse(b) => b.to_dense(TileOrder::RowMajor, None)?,
                };
                spkernel::spmdm_parallel(&a, &b, threads, None)
            })?),
            (MatValue::Dense(a), MatValue::Sparse(b)) => {
                MatValue::Dense(self.kernel("dmspm", detail, |_| {
                    spkernel::dmspm_parallel(&a, &b, threads, None)
                })?)
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
