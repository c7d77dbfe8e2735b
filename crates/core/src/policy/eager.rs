//! The eager family (`PlainR`, `Strawman`): every operator computes its
//! result the moment it is called.
//!
//! The vector operators are written once, over a store with two
//! implementations: Plain R's paging heap and the Strawman's `(I,V)`
//! tables. Both engines therefore run the same loops, checkpoint at the
//! same places (`<engine>.<op>.chunk`, once per chunk of every operator)
//! and charge the same scalar operations; they differ in what a block
//! access costs, which is the experiment. Bulk outputs are sealed —
//! flushed to the device in one sequential write, how a database persists
//! a fresh table — while subscript-sized ones (`x[i]`, literals, ranges)
//! stay dirty in the pool.
//!
//! Matrices are the part the paper makes different on purpose: R's j-i-k
//! loop and in-memory LAPACK-style factorization over heap pages (here),
//! against the Strawman's stored tiles, whose out-of-core kernels `ops`
//! calls directly.

use std::rc::Rc;

use riot_array::{DenseMatrix, DenseVector};
use riot_vm::VmId;

use super::{HeapMat, MatRepr, Runtime, StrawMat, StrawTable, VecRepr};
use crate::exec::factor;
use crate::exec::pipeline::position;
use crate::exec::ExecResult;
use crate::expr::{AggOp, BinOp, Src, UnOp};

/// Where an eager vector lives.
enum Slot<'a> {
    Heap(VmId),
    Table(&'a DenseVector),
}

fn slot(v: &VecRepr) -> Slot<'_> {
    match v {
        VecRepr::Vm(id) => Slot::Heap(*id),
        VecRepr::Table(t) => Slot::Table(&t.vec),
        VecRepr::Node(_) => unreachable!("eager operators take stored values"),
    }
}

/// The generator loop of every load: produce `f(0..len)` a chunk at a
/// time and hand each chunk, with its offset, to `sink`.
pub(super) fn fill(
    len: usize,
    chunk: usize,
    mut f: impl FnMut(usize) -> f64,
    mut sink: impl FnMut(usize, &[f64]) -> ExecResult<()>,
) -> ExecResult<()> {
    let mut buf = Vec::with_capacity(chunk);
    for at in (0..len).step_by(chunk) {
        buf.clear();
        for i in at..len.min(at + chunk) {
            buf.push(f(i));
        }
        sink(at, &buf)?;
    }
    Ok(())
}

/// A stored Strawman matrix value; `owned` ones are freed with their last
/// handle (see [`StrawTable::owned`]).
pub(super) fn stored(mat: DenseMatrix, owned: bool) -> MatRepr {
    MatRepr::Stored(Rc::new(StrawMat { owned, mat }))
}

/// The per-chunk checkpoint label of eager operator `$op`.
macro_rules! at {
    ($rt:expr, $op:literal) => {
        if $rt.on_heap() {
            concat!("plainr.", $op, ".chunk")
        } else {
            concat!("strawman.", $op, ".chunk")
        }
    };
}

impl Runtime {
    // ================= the store =================

    /// Which store this engine's values live in: the paging heap
    /// (`PlainR`) or stored tables (`Strawman`).
    pub(super) fn on_heap(&self) -> bool {
        self.cfg.kind == super::EngineKind::PlainR
    }

    /// A zeroed `len`-element vector. A `name` registers a table in the
    /// catalog as a durable resident the session merely references; the
    /// heap has no catalog and ignores it.
    fn alloc(&mut self, len: usize, name: Option<&str>) -> ExecResult<VecRepr> {
        if self.on_heap() {
            // A heap page is a block: R's intermediates count against the
            // temp budget like the Strawman's tables do.
            let pages = len.div_ceil(self.cfg.block_size / 8).max(1);
            self.ctx.governor().charge_temp_blocks(pages as u64)?;
            return Ok(VecRepr::Vm(self.heap.alloc(len)));
        }
        let vec = DenseVector::create_wide(&self.ctx, len, name)?;
        let owned = name.is_none();
        Ok(VecRepr::Table(Rc::new(StrawTable { owned, vec })))
    }

    fn get(&mut self, v: &VecRepr, i: usize) -> ExecResult<f64> {
        Ok(match slot(v) {
            Slot::Heap(id) => self.heap.get(id, i),
            Slot::Table(t) => t.get(i)?,
        })
    }

    fn set(&mut self, v: &VecRepr, i: usize, value: f64) -> ExecResult<()> {
        match slot(v) {
            Slot::Heap(id) => self.heap.set(id, i, value),
            Slot::Table(t) => t.set(i, value)?,
        }
        Ok(())
    }

    fn read_chunk(&mut self, v: &VecRepr, at: usize, out: &mut [f64]) -> ExecResult<()> {
        match slot(v) {
            Slot::Heap(id) => self.heap.read_chunk(id, at, out),
            Slot::Table(t) => t.read_range(at, out)?,
        }
        Ok(())
    }

    fn write_chunk(&mut self, v: &VecRepr, at: usize, data: &[f64]) -> ExecResult<()> {
        match slot(v) {
            Slot::Heap(id) => self.heap.write_chunk(id, at, data),
            Slot::Table(t) => t.write_range(at, data)?,
        }
        Ok(())
    }

    /// Persist a finished bulk output: a table flushes its dirty blocks in
    /// block order; heap pages *are* the state.
    fn seal(&mut self, v: &VecRepr) -> ExecResult<()> {
        if let Slot::Table(t) = slot(v) {
            t.flush()?;
        }
        Ok(())
    }

    /// Allocate a `len`-element output and run `body` over it; if `body`
    /// fails the output is released again, so an aborted operator leaves
    /// nothing behind in either store.
    fn build(
        &mut self,
        len: usize,
        name: Option<&str>,
        body: impl FnOnce(&mut Self, &VecRepr) -> ExecResult<()>,
    ) -> ExecResult<VecRepr> {
        let out = self.alloc(len, name)?;
        match body(self, &out) {
            Ok(()) => Ok(out),
            Err(e) => {
                self.release(&out);
                Err(e)
            }
        }
    }

    /// One governed pass over `0..n`, a chunk at a time: every step
    /// checkpoints under `at` and is charged to the flop budget; a pass
    /// that completes counts `n` scalar operations.
    fn for_chunks(
        &mut self,
        at: &'static str,
        n: usize,
        mut step: impl FnMut(&mut Self, usize, usize) -> ExecResult<()>,
    ) -> ExecResult<()> {
        let chunk = self.chunk();
        for start in (0..n).step_by(chunk) {
            let take = chunk.min(n - start);
            self.ctx.governor().checkpoint(at)?;
            self.ctx.governor().add_flops(take as u64);
            step(self, start, take)?;
        }
        self.count_ops(n);
        Ok(())
    }

    /// Read elements `at..at + out.len()` of `v` recycled to `n` elements:
    /// a chunk read when `v` is full length, element reads otherwise (R's
    /// recycling is rare for large operands).
    fn read_cycled(&mut self, v: &VecRepr, n: usize, at: usize, out: &mut [f64]) -> ExecResult<()> {
        let len = self.vec_len(v);
        if len == n {
            return self.read_chunk(v, at, out);
        }
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.get(v, (at + i) % len)?;
        }
        Ok(())
    }

    // ================= vector operators =================

    /// Load the vector `f(0..len)`.
    pub(super) fn eager_load(
        &mut self,
        len: usize,
        name: Option<&str>,
        f: impl FnMut(usize) -> f64,
    ) -> ExecResult<VecRepr> {
        self.build(len, name, |rt, out| {
            fill(len, rt.chunk(), f, |at, buf| rt.write_chunk(out, at, buf))?;
            rt.seal(out)
        })
    }

    /// The sequence `start, start+1, ...` of `len` elements, generated a
    /// chunk at a time (a range may be far longer than memory).
    pub(super) fn eager_range(&mut self, start: i64, len: usize) -> ExecResult<VecRepr> {
        let next = |i| (start + i as i64) as f64;
        self.build(len, None, |rt, out| {
            fill(len, rt.chunk(), next, |at, buf| {
                rt.write_chunk(out, at, buf)
            })
        })
    }

    /// A small vector holding `values`: literals, samples, and the
    /// length-1 operand of a scalar broadcast.
    pub(super) fn from_values(&mut self, values: &[f64]) -> ExecResult<VecRepr> {
        self.build(values.len(), None, |rt, out| rt.write_chunk(out, 0, values))
    }

    pub(super) fn eager_unop(
        &mut self,
        op: UnOp,
        input: &VecRepr,
        n: usize,
    ) -> ExecResult<VecRepr> {
        let buf = vec![0.0; self.chunk()];
        let (mut src, mut dst) = (buf.clone(), buf);
        self.build(n, None, |rt, out| {
            rt.for_chunks(at!(rt, "unop"), n, |rt, at, take| {
                let (src, dst) = (&mut src[..take], &mut dst[..take]);
                rt.read_chunk(input, at, src)?;
                op.apply_slice(src, dst);
                rt.write_chunk(out, at, dst)
            })?;
            rt.seal(out)
        })
    }

    pub(super) fn eager_binop(
        &mut self,
        op: BinOp,
        lhs: &VecRepr,
        rhs: &VecRepr,
        n: usize,
    ) -> ExecResult<VecRepr> {
        let buf = vec![0.0; self.chunk()];
        let (mut lb, mut rb, mut dst) = (buf.clone(), buf.clone(), buf);
        self.build(n, None, |rt, out| {
            rt.for_chunks(at!(rt, "binop"), n, |rt, at, take| {
                let (lb, rb, dst) = (&mut lb[..take], &mut rb[..take], &mut dst[..take]);
                rt.read_cycled(lhs, n, at, lb)?;
                rt.read_cycled(rhs, n, at, rb)?;
                op.apply_slice(Src::Slice(lb), Src::Slice(rb), dst);
                rt.write_chunk(out, at, dst)
            })?;
            rt.seal(out)
        })
    }

    /// `data[index]` with 1-based subscripts.
    pub(super) fn eager_gather(
        &mut self,
        data: &VecRepr,
        index: &VecRepr,
        k: usize,
    ) -> ExecResult<VecRepr> {
        let dn = self.vec_len(data);
        self.build(k, None, |rt, out| {
            rt.for_chunks(at!(rt, "gather"), k, |rt, at, take| {
                for t in at..at + take {
                    let pos = position(rt.get(index, t)?, dn)?;
                    let v = rt.get(data, pos)?;
                    rt.set(out, t, v)?;
                }
                Ok(())
            })
        })
    }

    /// `out[i] = cond[i] != 0 ? yes[i] : no[i]`, operands recycled; only
    /// the selected branch's element is read.
    pub(super) fn eager_ifelse(
        &mut self,
        cond: &VecRepr,
        yes: &VecRepr,
        no: &VecRepr,
        n: usize,
    ) -> ExecResult<VecRepr> {
        let (cl, yl, nl) = (self.vec_len(cond), self.vec_len(yes), self.vec_len(no));
        let mut buf = vec![0.0; self.chunk()];
        self.build(n, None, |rt, out| {
            rt.for_chunks(at!(rt, "ifelse"), n, |rt, at, take| {
                for (i, b) in buf[..take].iter_mut().enumerate() {
                    let idx = at + i;
                    *b = if rt.get(cond, idx % cl)? != 0.0 {
                        rt.get(yes, idx % yl)?
                    } else {
                        rt.get(no, idx % nl)?
                    };
                }
                rt.write_chunk(out, at, &buf[..take])
            })?;
            rt.seal(out)
        })
    }

    /// `data[index] <- value` as a fresh vector (R duplicates before it
    /// updates): one copy pass, then one scattered write per subscript.
    pub(super) fn eager_sub_assign(
        &mut self,
        data: &VecRepr,
        index: &VecRepr,
        value: &VecRepr,
        n: usize,
    ) -> ExecResult<VecRepr> {
        let (k, vl) = (self.vec_len(index), self.vec_len(value));
        let mut buf = vec![0.0; self.chunk()];
        self.build(n, None, |rt, out| {
            rt.for_chunks(at!(rt, "sub_assign"), n, |rt, at, take| {
                rt.read_chunk(data, at, &mut buf[..take])?;
                rt.write_chunk(out, at, &buf[..take])
            })?;
            rt.for_chunks(at!(rt, "sub_assign"), k, |rt, at, take| {
                for t in at..at + take {
                    let pos = position(rt.get(index, t)?, n)?;
                    let v = rt.get(value, t % vl)?;
                    rt.set(out, pos, v)?;
                }
                Ok(())
            })?;
            rt.seal(out)
        })
    }

    pub(super) fn eager_aggregate(&mut self, op: AggOp, v: &VecRepr) -> ExecResult<f64> {
        let n = self.vec_len(v);
        let mut buf = vec![0.0; self.chunk()];
        let mut acc = op.init();
        self.for_chunks(at!(self, "aggregate"), n, |rt, at, take| {
            rt.read_chunk(v, at, &mut buf[..take])?;
            acc = buf[..take].iter().fold(acc, |a, &x| op.fold(a, x));
            Ok(())
        })?;
        if op == AggOp::Mean && n > 0 {
            acc /= n as f64;
        }
        Ok(acc)
    }

    pub(super) fn eager_collect(&mut self, v: &VecRepr) -> ExecResult<Vec<f64>> {
        let n = self.vec_len(v);
        let mut out = vec![0.0; n];
        self.for_chunks(at!(self, "collect"), n, |rt, at, take| {
            rt.read_chunk(v, at, &mut out[at..at + take])
        })?;
        Ok(out)
    }

    // ================= Plain R matrices: row-major on the heap =================

    /// The heap matrix `f(0..rows * cols)`, row-major.
    pub(super) fn heap_filled(
        &mut self,
        rows: usize,
        cols: usize,
        f: impl FnMut(usize) -> f64,
    ) -> HeapMat {
        let id = self.heap.alloc(rows * cols);
        fill(rows * cols, self.chunk(), f, |at, buf| {
            self.heap.write_chunk(id, at, buf);
            Ok(())
        })
        .expect("heap writes cannot fail");
        HeapMat { id, rows, cols }
    }

    /// A fresh heap matrix holding `data` (row-major).
    pub(super) fn heap_mat(&mut self, rows: usize, cols: usize, data: &[f64]) -> MatRepr {
        let id = self.heap.alloc_from(data);
        MatRepr::Vm(HeapMat { id, rows, cols })
    }

    pub(super) fn heap_transpose(&mut self, m: HeapMat) -> MatRepr {
        let (id, rows, cols) = (self.heap.alloc(m.rows * m.cols), m.cols, m.rows);
        for i in 0..m.rows {
            for j in 0..m.cols {
                let v = self.heap.get(m.id, i * m.cols + j);
                self.heap.set(id, j * m.rows + i, v);
            }
        }
        self.count_ops(rows * cols);
        MatRepr::Vm(HeapMat { id, rows, cols })
    }

    /// R's internal loop (Example 2): j outer, i middle, k inner.
    pub(super) fn heap_matmul(&mut self, a: HeapMat, b: HeapMat) -> ExecResult<MatRepr> {
        let (n1, n2, n3) = (a.rows, a.cols, b.cols);
        let id = self.heap.alloc(n1 * n3);
        let columns = (0..n3).try_for_each(|j| {
            self.ctx.governor().checkpoint("plainr.matmul.col")?;
            for i in 0..n1 {
                let mut acc = 0.0;
                for k in 0..n2 {
                    acc += self.heap.get(a.id, i * n2 + k) * self.heap.get(b.id, k * n3 + j);
                }
                self.heap.set(id, i * n3 + j, acc);
            }
            self.ctx.governor().add_flops((n1 * n2) as u64);
            Ok(())
        });
        if let Err(e) = columns {
            self.heap.release(id);
            return Err(e);
        }
        self.count_ops(n1 * n2 * n3);
        let (rows, cols) = (n1, n3);
        Ok(MatRepr::Vm(HeapMat { id, rows, cols }))
    }

    /// Count `flops` scalar operations, against the flop budget too.
    fn charge(&mut self, flops: u64) {
        self.count_ops(flops as usize);
        self.ctx.governor().add_flops(flops);
    }

    /// In-memory Cholesky, as R's LAPACK call would: the whole matrix is
    /// paged in, factored by the tiled kernel's own diagonal-panel step,
    /// and written back as a new heap object.
    pub(super) fn heap_chol(&mut self, m: HeapMat) -> ExecResult<MatRepr> {
        let n = m.rows;
        self.ctx.governor().checkpoint("plainr.chol")?;
        let mut a = self.heap.to_vec(m.id);
        let flops = factor::potrf(&mut a, n, 0, 0)?;
        self.charge(flops);
        Ok(self.heap_mat(n, n, &a))
    }

    pub(super) fn heap_solve(&mut self, a: HeapMat, b: HeapMat) -> ExecResult<MatRepr> {
        let (n, m) = (a.rows, b.cols);
        self.ctx.governor().checkpoint("plainr.solve")?;
        let mut l = self.heap.to_vec(a.id);
        let mut x = self.heap.to_vec(b.id);
        let flops = factor::solve_in_memory(&mut l, &mut x, n, m)?;
        self.charge(flops);
        Ok(self.heap_mat(n, m, &x))
    }

    pub(super) fn heap_nnz(&mut self, m: HeapMat) -> u64 {
        let len = m.rows * m.cols;
        self.count_ops(len);
        (0..len).filter(|&i| self.heap.get(m.id, i) != 0.0).count() as u64
    }
}
