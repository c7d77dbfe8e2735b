//! The user-facing, R-like API: transparency in action.
//!
//! A [`Session`] plays the role of the R interpreter plus the RIOT
//! package: programs are written once against [`RVec`]/[`RMat`] handles
//! (operator overloading mirrors R's generics dispatch of §4, "Interfacing
//! with R") and run unchanged under any [`EngineKind`]. Under eager
//! engines every operator call computes immediately; under deferred
//! engines it builds DAG nodes, and computation happens at forcing points
//! (`collect`, `sum`, assignment for MatNamed). An aggregate can be left
//! deferred too ([`RVec::deferred`]): aggregates over the same storage
//! then share one pass when the first of them is observed.
//!
//! Every operator has one implementation, the `try_` form returning a
//! typed [`ExecError`]; the unprefixed forms and the arithmetic operator
//! overloads are sugar that panics on the error, for programs that would
//! only `unwrap` it.
//!
//! ```
//! use riot_core::{EngineConfig, EngineKind, Session};
//!
//! let s = Session::new(EngineConfig::new(EngineKind::Riot));
//! let x = s.vector_from_fn(1000, |i| i as f64).unwrap();
//! let d = ((&x - 3.0).square() + 1.0).sqrt();
//! let idx = s.sample(1000, 5).unwrap();
//! let z = d.index(&idx);
//! let values = z.collect().unwrap();
//! assert_eq!(values.len(), 5);
//! ```

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use riot_array::MatrixLayout;
use riot_storage::{CancelToken, DiskModel, IoSnapshot, PoolStats, ResourceLimits};

use crate::exec::{ExecError, ExecResult};
use crate::expr::{AggOp, BinOp, UnOp};
use crate::opt::RewriteStats;
use crate::policy::{EngineConfig, EngineKind, MatRepr, Runtime, VecRepr};
use crate::profile::QueryProfile;

/// An interactive session bound to one engine.
#[derive(Clone)]
pub struct Session {
    rt: Rc<RefCell<Runtime>>,
}

/// The panicking sugar over a `try_` operator.
fn must<T>(what: &str, result: ExecResult<T>) -> T {
    result.unwrap_or_else(|e| panic!("{what} failed: {e}"))
}

impl Session {
    /// Start a session with `cfg`.
    pub fn new(cfg: EngineConfig) -> Self {
        Session {
            rt: Rc::new(RefCell::new(Runtime::new(cfg))),
        }
    }

    /// Shorthand: default configuration for `kind`.
    pub fn with_engine(kind: EngineKind) -> Self {
        Session::new(EngineConfig::new(kind))
    }

    /// Start a session over an existing storage context — typically a
    /// durable one from [`riot_array::StorageCtx::open`], so named objects
    /// written by an earlier session can be [`Session::open_vector`]ed or
    /// [`Session::open_matrix`]ed back. `cfg.block_size` must match the
    /// context's block size.
    pub fn with_ctx(cfg: EngineConfig, ctx: Arc<riot_array::StorageCtx>) -> Self {
        Session {
            rt: Rc::new(RefCell::new(Runtime::with_ctx(cfg, ctx))),
        }
    }

    /// The engine this session runs.
    pub fn kind(&self) -> EngineKind {
        self.rt.borrow().cfg.kind
    }

    // ---- the query bracket ----

    /// The one way an operator or forcing point reaches the engine: borrow
    /// the runtime and run `f` as one governed query (see
    /// [`Session::set_limits`]). Loading inputs is not a query and borrows
    /// the runtime directly.
    fn run<T>(&self, f: impl FnOnce(&mut Runtime) -> ExecResult<T>) -> ExecResult<T> {
        self.rt.borrow_mut().governed(f)
    }

    fn vec(&self, repr: ExecResult<VecRepr>) -> ExecResult<RVec> {
        let (sess, repr) = (self.clone(), repr?);
        Ok(RVec { sess, repr })
    }

    fn mat(&self, repr: ExecResult<MatRepr>) -> ExecResult<RMat> {
        let (sess, repr) = (self.clone(), repr?);
        Ok(RMat { sess, repr })
    }

    // ---- resource governance & cancellation ----

    /// Start a session with `cfg` and `limits` attached: every forcing
    /// point runs as a governed query (see [`Session::set_limits`]).
    pub fn with_limits(cfg: EngineConfig, limits: ResourceLimits) -> Self {
        let s = Session::new(cfg);
        s.set_limits(limits);
        s
    }

    /// Attach per-query resource `limits` and turn governance
    /// checkpoints on. Each forcing point (collect, aggregate, an eager
    /// engine's operator, …) then runs as one governed query: budgets
    /// are measured from the start of that query, and exceeding one —
    /// or a pending cancel — aborts it with a typed
    /// [`ExecError::BudgetExceeded`] / [`ExecError::Cancelled`], leaving
    /// no pinned frames and no leaked storage behind. `ResourceLimits::
    /// none()` engages checkpoint accounting with nothing to trip.
    pub fn set_limits(&self, limits: ResourceLimits) {
        self.storage_ctx().governor().engage(limits);
    }

    /// Detach limits: checkpoints return to the ungoverned fast path
    /// (one relaxed atomic load). A pending cancel stays pending.
    pub fn clear_limits(&self) {
        self.storage_ctx().governor().disengage();
    }

    /// The currently attached limits (all-`None` when disengaged).
    pub fn limits(&self) -> ResourceLimits {
        self.storage_ctx().governor().limits()
    }

    /// A cloneable, `Send` handle that cancels this session's running
    /// query from another thread. With limits attached (even
    /// [`ResourceLimits::none`]), the query aborts at its next kernel
    /// checkpoint; otherwise cancellation is observed at the next
    /// [`Session::interrupt_checkpoint`] (the R interpreter calls that
    /// between statements).
    pub fn cancel_handle(&self) -> CancelToken {
        self.storage_ctx().governor().cancel_token()
    }

    /// Clear a pending cancel so the session can run further queries.
    pub fn reset_cancel(&self) {
        self.storage_ctx().governor().reset_cancel();
    }

    /// Observe a pending cancellation outside any kernel — the
    /// statement-boundary seam: returns [`ExecError::Cancelled`] if a
    /// [`CancelToken`] has fired, `Ok(())` otherwise.
    pub fn interrupt_checkpoint(&self) -> ExecResult<()> {
        if self.storage_ctx().governor().is_cancelled() {
            return Err(ExecError::Cancelled {
                at: "interp.statement",
            });
        }
        Ok(())
    }

    /// The session's storage context (pool, catalog, and governor) —
    /// the leak-audit helpers in [`crate::governance`] snapshot it.
    pub fn storage_ctx(&self) -> Arc<riot_array::StorageCtx> {
        self.rt.borrow().storage_ctx()
    }

    // ---- loading ----

    /// Create a vector from a generator function.
    pub fn vector_from_fn(&self, len: usize, f: impl FnMut(usize) -> f64) -> ExecResult<RVec> {
        self.vec(self.rt.borrow_mut().load_vector(len, None, f))
    }

    /// Create a vector from a generator function, registered in the
    /// catalog under `name` so a later session over the same (durable)
    /// storage can [`Session::open_vector`] it. Plain R has no
    /// catalog-backed storage and ignores the name.
    pub fn vector_from_fn_named(
        &self,
        name: &str,
        len: usize,
        f: impl FnMut(usize) -> f64,
    ) -> ExecResult<RVec> {
        self.vec(self.rt.borrow_mut().load_vector(len, Some(name), f))
    }

    /// Reopen a named stored vector (see [`Session::vector_from_fn_named`]).
    pub fn open_vector(&self, name: &str) -> ExecResult<RVec> {
        self.vec(self.rt.borrow_mut().open_vector(name))
    }

    /// Create a vector from a slice.
    pub fn vector_from_slice(&self, data: &[f64]) -> ExecResult<RVec> {
        self.vector_from_fn(data.len(), |i| data[i])
    }

    /// Create a matrix from a generator function, stored with `layout`.
    pub fn matrix_from_fn(
        &self,
        rows: usize,
        cols: usize,
        layout: MatrixLayout,
        f: impl FnMut(usize, usize) -> f64,
    ) -> ExecResult<RMat> {
        self.mat(
            self.rt
                .borrow_mut()
                .load_matrix(rows, cols, layout, None, f),
        )
    }

    /// Create a matrix from a generator function, registered in the
    /// catalog under `name` for later reopening ([`Session::open_matrix`]).
    pub fn matrix_from_fn_named(
        &self,
        name: &str,
        rows: usize,
        cols: usize,
        layout: MatrixLayout,
        f: impl FnMut(usize, usize) -> f64,
    ) -> ExecResult<RMat> {
        let mut rt = self.rt.borrow_mut();
        self.mat(rt.load_matrix(rows, cols, layout, Some(name), f))
    }

    /// Reopen a named stored matrix, dense or sparse — the catalog
    /// header's object kind decides which physical reader runs.
    pub fn open_matrix(&self, name: &str) -> ExecResult<RMat> {
        self.mat(self.rt.borrow_mut().open_matrix(name))
    }

    /// Create a sparse matrix from COO triplets `(row, col, value)`
    /// (0-based; duplicates sum, explicit zeros drop) — the engine-side
    /// counterpart of R's `Matrix::sparseMatrix`. Deferred engines store
    /// the block-compressed format and let the optimizer pick sparse or
    /// dense kernels from the density; eager engines densify at load, so
    /// the same program runs everywhere.
    pub fn sparse_matrix(
        &self,
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> ExecResult<RMat> {
        self.mat(self.rt.borrow_mut().load_sparse(rows, cols, None, triplets))
    }

    /// [`Session::sparse_matrix`], registered in the catalog under `name`
    /// for later reopening. Eager engines store the densified form; the
    /// reopen path densifies on read instead, so results agree.
    pub fn sparse_matrix_named(
        &self,
        name: &str,
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> ExecResult<RMat> {
        let mut rt = self.rt.borrow_mut();
        self.mat(rt.load_sparse(rows, cols, Some(name), triplets))
    }

    // ---- operators without a vector receiver ----

    /// R's `sample(n, k)`: k distinct indices in `1..=n`.
    pub fn sample(&self, n: usize, k: usize) -> ExecResult<RVec> {
        self.vec(self.run(|rt| rt.sample(n, k)))
    }

    /// A small in-memory vector — R's `c(...)`. Unlike
    /// [`Session::vector_from_slice`] this is *not* a stored source: under
    /// deferred engines the optimizer sees the literal values.
    pub fn literal(&self, values: &[f64]) -> ExecResult<RVec> {
        self.vec(self.run(|rt| rt.literal(values.to_vec())))
    }

    /// R's `start:end` sequence.
    pub fn range(&self, start: i64, end: i64) -> ExecResult<RVec> {
        self.vec(self.run(|rt| rt.range(start, end)))
    }

    /// R's `ifelse(cond, yes, no)` elementwise conditional.
    pub fn ifelse(&self, cond: &RVec, yes: &RVec, no: &RVec) -> ExecResult<RVec> {
        self.vec(self.run(|rt| rt.ifelse(&cond.repr, &yes.repr, &no.repr)))
    }

    /// Bind a name to a vector — R's `name <- value`. Under MatNamed this
    /// is the materialization point; under Riot it is free.
    pub fn assign(&self, _name: &str, v: &RVec) -> ExecResult<RVec> {
        self.vec(self.run(|rt| rt.assign(&v.repr)))
    }

    // ---- counters, profiles, plans ----

    /// Combined I/O so far (buffer pool + paging heap).
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.rt.borrow().io_snapshot()
    }

    /// Flush and empty the buffer-pool cache so the next phase starts
    /// cold (measurement hygiene between load and query).
    pub fn drop_caches(&self) -> ExecResult<()> {
        self.rt.borrow().drop_caches()
    }

    /// Scalar operations so far, over this session's storage context —
    /// like [`Session::io_snapshot`], one counter per context, which every
    /// kernel adds its work to; a profile's flops and the `max_flops`
    /// budget are deltas of it.
    pub fn cpu_ops(&self) -> u64 {
        self.rt.borrow().cpu_ops()
    }

    /// Modeled elapsed time for the session's I/O + CPU (Figure 1(b)).
    pub fn modeled_seconds(&self, model: &DiskModel) -> f64 {
        self.rt.borrow().modeled_seconds(model)
    }

    /// Optimizer statistics from the most recent forcing point.
    pub fn last_opt_stats(&self) -> RewriteStats {
        self.rt.borrow().last_opt_stats
    }

    /// Deferred aggregates built and not yet observed.
    pub fn pending_scalars(&self) -> usize {
        self.rt.borrow().pending.len()
    }

    /// Live objects on the paging heap (Plain R's values; none elsewhere).
    pub(crate) fn heap_objects(&self) -> usize {
        self.rt.borrow().heap.live_objects()
    }

    /// Buffer-pool cache-effectiveness counters so far.
    pub fn pool_stats(&self) -> PoolStats {
        self.rt.borrow().pool_stats()
    }

    /// Profile one region of this session: tracing turns on, `f` runs,
    /// and everything observed — the span tree of forcing points and
    /// kernels, the counted-I/O / flop / pool-counter deltas, every typed
    /// storage event — comes back as a structured [`QueryProfile`].
    ///
    /// The profile's root totals are the *measured* deltas for the region
    /// (identical to bracketing `f` with [`Session::io_snapshot`] /
    /// [`Session::cpu_ops`] yourself), so its accounting always reconciles
    /// with the engine's own counters. If tracing was off before the call
    /// it is off again after; counted I/O is unaffected either way.
    pub fn profile<R>(&self, f: impl FnOnce() -> R) -> (R, QueryProfile) {
        let tracer = Arc::clone(self.rt.borrow().tracer());
        let was_enabled = tracer.is_enabled();
        tracer.enable();
        // Discard anything buffered before the region of interest.
        let _ = tracer.drain();
        let (base, dropped0) = (self.rt.borrow().counters(), tracer.dropped());
        let t0 = Instant::now();
        let out = f();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let events = tracer.drain();
        let (total, pool) = self.rt.borrow().metrics_since(&base);
        if !was_enabled {
            tracer.disable();
        }
        let profile = QueryProfile::assemble(
            self.kind().label().to_string(),
            events,
            total,
            pool,
            wall_ns,
            tracer.dropped() - dropped0,
        );
        (out, profile)
    }

    /// EXPLAIN a deferred vector: the logical plan tree the next forcing
    /// point would execute (under Riot, after running the optimizer).
    /// Eager engines have no deferred plan and say so.
    pub fn explain(&self, v: &RVec) -> String {
        match &v.repr {
            VecRepr::Node(id) => self.rt.borrow_mut().explain(*id),
            _ => format!("<materialized> ({} evaluates eagerly)", self.kind().label()),
        }
    }

    /// EXPLAIN a deferred matrix (see [`Session::explain`]).
    pub fn explain_mat(&self, m: &RMat) -> String {
        match &m.repr {
            MatRepr::Node(id) => self.rt.borrow_mut().explain(*id),
            _ => format!("<materialized> ({} evaluates eagerly)", self.kind().label()),
        }
    }

    /// Render a deferred vector's expression as R-like text.
    pub fn render(&self, v: &RVec) -> String {
        match &v.repr {
            VecRepr::Node(id) => self.rt.borrow().graph.render(*id),
            _ => "<materialized>".to_string(),
        }
    }

    /// Render a deferred vector's expression as the §4.1 SQL view text.
    pub fn sql_view(&self, v: &RVec, view_name: &str) -> String {
        match &v.repr {
            VecRepr::Node(id) => {
                crate::sqlview::render_view(&self.rt.borrow().graph, *id, view_name)
            }
            _ => format!("-- {view_name} is a base table (eager engine)"),
        }
    }
}

/// A vector handle — the reproduction's `dbvector`.
///
/// Cloning is cheap (R-style aliasing): under Plain R it bumps the heap
/// refcount; under Strawman it shares the table; under deferred engines it
/// copies a node id.
pub struct RVec {
    sess: Session,
    pub(crate) repr: VecRepr,
}

impl Clone for RVec {
    fn clone(&self) -> Self {
        self.sess.rt.borrow_mut().retain(&self.repr);
        RVec {
            sess: self.sess.clone(),
            repr: self.repr.clone(),
        }
    }
}

impl Drop for RVec {
    fn drop(&mut self) {
        // Best-effort release; skipped if the runtime is mid-borrow
        // (e.g. unwinding from a panic inside an operation).
        if let Ok(mut rt) = self.sess.rt.try_borrow_mut() {
            rt.release(&self.repr);
        }
    }
}

impl RVec {
    /// One vector-valued operator over this vector, through the bracket.
    fn op(
        &self,
        f: impl FnOnce(&mut Runtime, &VecRepr) -> ExecResult<VecRepr>,
    ) -> ExecResult<RVec> {
        self.sess.vec(self.sess.run(|rt| f(rt, &self.repr)))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.sess.rt.borrow().vec_len(&self.repr)
    }

    /// True for zero-length vectors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Generic elementwise binary op against another vector (the full
    /// [`BinOp`] surface; the arithmetic operators below are sugar).
    pub fn binary(&self, op: BinOp, other: &RVec) -> RVec {
        must("vector operation", self.try_binary(op, other))
    }

    /// [`binary`](Self::binary) with the error surfaced instead of a
    /// panic — what interpreters use so eager-engine governance aborts
    /// (cancellation, budgets) stay typed errors.
    pub fn try_binary(&self, op: BinOp, other: &RVec) -> ExecResult<RVec> {
        self.op(|rt, x| rt.binop(op, x, &other.repr))
    }

    /// Generic elementwise binary op against a scalar. `scalar_left`
    /// selects `c ∘ x` rather than `x ∘ c`.
    pub fn binary_scalar(&self, op: BinOp, c: f64, scalar_left: bool) -> RVec {
        must(
            "vector operation",
            self.try_binary_scalar(op, c, scalar_left),
        )
    }

    /// [`binary_scalar`](Self::binary_scalar), error surfaced.
    pub fn try_binary_scalar(&self, op: BinOp, c: f64, scalar_left: bool) -> ExecResult<RVec> {
        self.op(|rt, x| rt.binop_scalar(op, x, c, scalar_left))
    }

    /// Generic elementwise unary op.
    pub fn unary(&self, op: UnOp) -> RVec {
        must("vector operation", self.try_unary(op))
    }

    /// [`unary`](Self::unary), error surfaced.
    pub fn try_unary(&self, op: UnOp) -> ExecResult<RVec> {
        self.op(|rt, x| rt.unop(op, x))
    }

    /// `sqrt(x)`.
    pub fn sqrt(&self) -> RVec {
        self.unary(UnOp::Sqrt)
    }

    /// `abs(x)`.
    pub fn abs(&self) -> RVec {
        self.unary(UnOp::Abs)
    }

    /// `exp(x)`.
    pub fn exp(&self) -> RVec {
        self.unary(UnOp::Exp)
    }

    /// `log(x)` (natural).
    pub fn ln(&self) -> RVec {
        self.unary(UnOp::Ln)
    }

    /// `x^2`, as R programs spell it.
    pub fn square(&self) -> RVec {
        self.pow(2.0)
    }

    /// `x^p`.
    pub fn pow(&self, p: f64) -> RVec {
        self.binary_scalar(BinOp::Pow, p, false)
    }

    /// Elementwise comparison against a scalar: `x > c` etc.
    pub fn gt(&self, c: f64) -> RVec {
        self.binary_scalar(BinOp::Gt, c, false)
    }

    /// `x < c`.
    pub fn lt(&self, c: f64) -> RVec {
        self.binary_scalar(BinOp::Lt, c, false)
    }

    /// `x >= c`.
    pub fn ge(&self, c: f64) -> RVec {
        self.binary_scalar(BinOp::Ge, c, false)
    }

    /// `x <= c`.
    pub fn le(&self, c: f64) -> RVec {
        self.binary_scalar(BinOp::Le, c, false)
    }

    /// Logical negation: `!x` (0 becomes 1, nonzero becomes 0).
    pub fn not(&self) -> RVec {
        self.unary(UnOp::Not)
    }

    /// Elementwise comparison against another vector.
    pub fn gt_vec(&self, other: &RVec) -> RVec {
        self.binary(BinOp::Gt, other)
    }

    /// `x <= y` elementwise.
    pub fn le_vec(&self, other: &RVec) -> RVec {
        self.binary(BinOp::Le, other)
    }

    /// R's `pmin(x, y)`: elementwise minimum.
    pub fn pmin(&self, other: &RVec) -> RVec {
        self.binary(BinOp::Min, other)
    }

    /// R's `pmax(x, y)`: elementwise maximum.
    pub fn pmax(&self, other: &RVec) -> RVec {
        self.binary(BinOp::Max, other)
    }

    /// Subscript read: `x[idx]` (1-based indices).
    pub fn index(&self, idx: &RVec) -> RVec {
        must("subscript", self.try_index(idx))
    }

    /// [`index`](Self::index), error surfaced.
    pub fn try_index(&self, idx: &RVec) -> ExecResult<RVec> {
        self.op(|rt, x| rt.gather(x, &idx.repr))
    }

    /// Masked update returning the new state: `x[mask] <- value`.
    pub fn mask_assign(&self, mask: &RVec, value: f64) -> RVec {
        must("masked assignment", self.try_mask_assign(mask, value))
    }

    /// [`mask_assign`](Self::mask_assign), error surfaced.
    pub fn try_mask_assign(&self, mask: &RVec, value: f64) -> ExecResult<RVec> {
        self.op(|rt, x| rt.mask_assign_scalar(x, &mask.repr, value))
    }

    /// Masked update with a vector replacement: `x[mask] <- values`.
    pub fn mask_assign_vec(&self, mask: &RVec, values: &RVec) -> RVec {
        must("masked assignment", self.try_mask_assign_vec(mask, values))
    }

    /// [`mask_assign_vec`](Self::mask_assign_vec), error surfaced.
    pub fn try_mask_assign_vec(&self, mask: &RVec, values: &RVec) -> ExecResult<RVec> {
        self.op(|rt, x| rt.mask_assign(x, &mask.repr, &values.repr))
    }

    /// Indexed functional update: `x[idx] <- values` (1-based indices;
    /// `values` recycles to the index length).
    pub fn sub_assign(&self, idx: &RVec, values: &RVec) -> RVec {
        must("indexed assignment", self.try_sub_assign(idx, values))
    }

    /// [`sub_assign`](Self::sub_assign), error surfaced.
    pub fn try_sub_assign(&self, idx: &RVec, values: &RVec) -> ExecResult<RVec> {
        self.op(|rt, x| rt.sub_assign(x, &idx.repr, &values.repr))
    }

    /// `op(x)`, observed — a forcing point.
    pub fn aggregate(&self, op: AggOp) -> ExecResult<f64> {
        self.sess.run(|rt| rt.aggregate(op, &self.repr))
    }

    /// `op(x)` as a **deferred scalar**: a scalar-shaped handle that takes
    /// part in arithmetic like any vector (`&x - &x.deferred(Mean)?`) and
    /// runs only when a value is observed — [`RVec::collect`] on it or on
    /// anything built over it. Every pending aggregate over the same
    /// storage then shares that one pass. `None` under the eager engines,
    /// which have nothing to defer: use [`RVec::aggregate`].
    pub fn deferred(&self, op: AggOp) -> ExecResult<Option<RVec>> {
        let repr = self.sess.run(|rt| rt.defer_aggregate(op, &self.repr))?;
        Ok(repr.map(|repr| RVec {
            sess: self.sess.clone(),
            repr,
        }))
    }

    /// True for a deferred scalar (an aggregate, or arithmetic over
    /// aggregates and constants) — a length-1 value whose number is only
    /// computed when observed.
    pub fn is_scalar(&self) -> bool {
        matches!(self.repr, VecRepr::Node(id)
            if self.sess.rt.borrow().graph.shape(id) == crate::shape::Shape::Scalar)
    }

    /// `sum(x)` — a forcing point.
    pub fn sum(&self) -> ExecResult<f64> {
        self.aggregate(AggOp::Sum)
    }

    /// `mean(x)` — a forcing point.
    pub fn mean(&self) -> ExecResult<f64> {
        self.aggregate(AggOp::Mean)
    }

    /// `min(x)` — a forcing point.
    pub fn min(&self) -> ExecResult<f64> {
        self.aggregate(AggOp::Min)
    }

    /// `max(x)` — a forcing point.
    pub fn max(&self) -> ExecResult<f64> {
        self.aggregate(AggOp::Max)
    }

    /// Force evaluation and return all elements — R's `print`.
    pub fn collect(&self) -> ExecResult<Vec<f64>> {
        self.sess.run(|rt| rt.collect(&self.repr))
    }

    /// EXPLAIN this vector's deferred plan — sugar for
    /// [`Session::explain`].
    pub fn explain(&self) -> String {
        self.sess.explain(self)
    }

    /// The session owning this handle.
    pub fn session(&self) -> &Session {
        &self.sess
    }
}

/// A matrix handle — the reproduction's `dbmatrix`.
pub struct RMat {
    sess: Session,
    pub(crate) repr: MatRepr,
}

impl Clone for RMat {
    fn clone(&self) -> Self {
        let repr = self.sess.rt.borrow_mut().alias_mat(&self.repr);
        RMat {
            sess: self.sess.clone(),
            repr,
        }
    }
}

impl Drop for RMat {
    fn drop(&mut self) {
        if let Ok(mut rt) = self.sess.rt.try_borrow_mut() {
            rt.release_mat(&self.repr);
        }
    }
}

impl RMat {
    /// One matrix-valued operator over this matrix, through the bracket.
    fn op(
        &self,
        f: impl FnOnce(&mut Runtime, &MatRepr) -> ExecResult<MatRepr>,
    ) -> ExecResult<RMat> {
        self.sess.mat(self.sess.run(|rt| f(rt, &self.repr)))
    }

    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.sess.rt.borrow().mat_shape(&self.repr)
    }

    /// `t(m)`: transpose.
    pub fn t(&self) -> RMat {
        must("transpose", self.try_t())
    }

    /// [`t`](Self::t), error surfaced — what interpreters use so
    /// eager-engine governance aborts stay typed errors.
    pub fn try_t(&self) -> ExecResult<RMat> {
        self.op(|rt, m| rt.transpose(m))
    }

    /// `a %*% b`.
    pub fn matmul(&self, rhs: &RMat) -> RMat {
        must("matrix multiplication", self.try_matmul(rhs))
    }

    /// [`matmul`](Self::matmul), error surfaced.
    pub fn try_matmul(&self, rhs: &RMat) -> ExecResult<RMat> {
        self.op(|rt, m| rt.matmul(m, &rhs.repr))
    }

    /// Number of stored non-zeros — `nnz(m)`. For a deferred sparse
    /// source this reads the catalog statistic without touching storage;
    /// anything else is a forcing point that streams the value's tiles.
    pub fn nnz(&self) -> ExecResult<u64> {
        self.sess.run(|rt| rt.mat_nnz(&self.repr))
    }

    /// Cholesky factorization — `chol(a)`: the lower-triangular `L` with
    /// `L %*% t(L) == a` for a symmetric positive definite input. Inputs
    /// that are not positive definite surface a typed error at the forcing
    /// point, never silent NaNs.
    pub fn chol(&self) -> ExecResult<RMat> {
        self.op(|rt, m| rt.mat_chol(m))
    }

    /// Linear solve — `solve(a, b)` for symmetric positive definite `a`.
    /// Always factorization-backed: no engine materializes an inverse.
    pub fn solve(&self, rhs: &RMat) -> ExecResult<RMat> {
        self.op(|rt, m| rt.mat_solve(m, &rhs.repr))
    }

    /// Convert to the block-compressed sparse representation —
    /// `as.sparse(m)`. Deferred under MatNamed/Riot; the eager engines
    /// keep their dense storage (sparsity is a library concept there,
    /// exactly as in base R).
    pub fn to_sparse(&self) -> ExecResult<RMat> {
        self.op(|rt, m| rt.mat_to_sparse(m))
    }

    /// Convert to the dense representation — `as.dense(m)`.
    pub fn to_dense(&self) -> ExecResult<RMat> {
        self.op(|rt, m| rt.mat_to_dense(m))
    }

    /// Force evaluation: `(rows, cols, row-major data)`.
    pub fn collect(&self) -> ExecResult<(usize, usize, Vec<f64>)> {
        self.sess.run(|rt| rt.collect_matrix(&self.repr))
    }

    /// EXPLAIN this matrix's deferred plan — sugar for
    /// [`Session::explain_mat`].
    pub fn explain(&self) -> String {
        self.sess.explain_mat(self)
    }

    /// The session owning this handle.
    pub fn session(&self) -> &Session {
        &self.sess
    }
}

// ---- operator overloading (R generics dispatch) ----

macro_rules! vec_binops {
    ($trait:ident, $method:ident, $op:expr) => {
        impl std::ops::$trait<&RVec> for &RVec {
            type Output = RVec;
            fn $method(self, rhs: &RVec) -> RVec {
                self.binary($op, rhs)
            }
        }

        impl std::ops::$trait<f64> for &RVec {
            type Output = RVec;
            fn $method(self, rhs: f64) -> RVec {
                self.binary_scalar($op, rhs, false)
            }
        }

        impl std::ops::$trait<&RVec> for f64 {
            type Output = RVec;
            fn $method(self, rhs: &RVec) -> RVec {
                rhs.binary_scalar($op, self, true)
            }
        }

        impl std::ops::$trait<RVec> for RVec {
            type Output = RVec;
            fn $method(self, rhs: RVec) -> RVec {
                self.binary($op, &rhs)
            }
        }

        impl std::ops::$trait<f64> for RVec {
            type Output = RVec;
            fn $method(self, rhs: f64) -> RVec {
                self.binary_scalar($op, rhs, false)
            }
        }
    };
}

vec_binops!(Add, add, BinOp::Add);
vec_binops!(Sub, sub, BinOp::Sub);
vec_binops!(Mul, mul, BinOp::Mul);
vec_binops!(Div, div, BinOp::Div);

impl std::ops::Neg for &RVec {
    type Output = RVec;
    fn neg(self) -> RVec {
        self.unary(UnOp::Neg)
    }
}

/// Shorthand for errors surfaced by sessions.
pub type SessionError = ExecError;

#[cfg(test)]
mod tests {
    use super::*;

    fn sessions() -> Vec<Session> {
        EngineKind::all()
            .into_iter()
            .map(Session::with_engine)
            .collect()
    }

    /// A vector the host cannot hold is a typed error under Plain R, not
    /// an allocation abort: the heap reserves its page table fallibly, and
    /// the session carries on. (10^15 elements need a page table of about
    /// 23 PB, beyond any address space, so the refusal is certain.)
    #[test]
    fn plain_r_refuses_an_unallocatable_vector_with_a_typed_error() {
        let s = Session::with_engine(EngineKind::PlainR);
        let len = 1_000_000_000_000_000;
        match s.range(1, len as i64) {
            Err(ExecError::OutOfMemory(e)) => assert_eq!(e.len, len),
            Err(e) => panic!("{e}"),
            Ok(_) => panic!("allocated {len} elements"),
        }
        assert_eq!(s.range(1, 10).unwrap().sum().unwrap(), 55.0);
    }

    #[test]
    fn arithmetic_matches_across_engines() {
        for s in sessions() {
            let x = s.vector_from_fn(100, |i| i as f64).unwrap();
            let y = s.vector_from_fn(100, |i| (i * 2) as f64).unwrap();
            let z = (&x + &y) * 0.5 + 1.0;
            let got = z.collect().unwrap();
            let want: Vec<f64> = (0..100).map(|i| (i as f64 * 3.0) * 0.5 + 1.0).collect();
            assert_eq!(got, want, "engine {:?}", s.kind());
        }
    }

    #[test]
    fn example_1_identical_on_all_engines() {
        let mut outputs = Vec::new();
        for s in sessions() {
            let n = 300;
            let x = s.vector_from_fn(n, |i| (i as f64).sin() * 10.0).unwrap();
            let y = s.vector_from_fn(n, |i| (i as f64).cos() * 10.0).unwrap();
            let (xs, ys, xe, ye) = (0.0, 0.0, 3.0, 4.0);
            let d = ((&x - xs).square() + (&y - ys).square()).sqrt()
                + ((&x - xe).square() + (&y - ye).square()).sqrt();
            let d = s.assign("d", &d).unwrap();
            let sidx = s.sample(n, 17).unwrap();
            let sidx = s.assign("s", &sidx).unwrap();
            let z = d.index(&sidx);
            let z = s.assign("z", &z).unwrap();
            outputs.push(z.collect().unwrap());
        }
        // All four engines share the seed, so the sampled indices agree and
        // the numeric outputs must be identical.
        for w in outputs.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        assert_eq!(outputs[0].len(), 17);
    }

    #[test]
    fn figure_2_program_identical_on_all_engines() {
        let mut outputs = Vec::new();
        for s in sessions() {
            let a = s.vector_from_fn(200, |i| i as f64 * 0.7 - 30.0).unwrap();
            let b = a.square();
            let b = s.assign("b", &b).unwrap();
            let mask = b.gt(100.0);
            let b2 = b.mask_assign(&mask, 100.0);
            let b2 = s.assign("b", &b2).unwrap();
            let first = s.range(1, 10).unwrap();
            let z = b2.index(&first);
            outputs.push(z.collect().unwrap());
        }
        for w in outputs.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        for v in &outputs[0] {
            assert!(*v <= 100.0);
        }
    }

    #[test]
    fn riot_beats_matnamed_beats_strawman_on_io() {
        // The Figure 1 ordering at miniature scale.
        let n = 4096;
        let k = 16;
        let run = |kind: EngineKind| -> u64 {
            let mut cfg = EngineConfig::new(kind);
            cfg.block_size = 512; // 64 elems per block
            cfg.mem_blocks = 32; // tiny memory cap: ~2048 elements
            cfg.chunk_elems = 64;
            let s = Session::new(cfg);
            let x = s.vector_from_fn(n, |i| i as f64).unwrap();
            let y = s.vector_from_fn(n, |i| (n - i) as f64).unwrap();
            let load_io = s.io_snapshot();
            let d = ((&x - 1.0).square() + (&y - 2.0).square()).sqrt()
                + ((&x - 3.0).square() + (&y - 4.0).square()).sqrt();
            let d = s.assign("d", &d).unwrap();
            let idx = s.sample(n, k).unwrap();
            let z = d.index(&idx);
            let out = z.collect().unwrap();
            assert_eq!(out.len(), k);
            (s.io_snapshot() - load_io).total_blocks()
        };
        let strawman = run(EngineKind::Strawman);
        let matnamed = run(EngineKind::MatNamed);
        let riot = run(EngineKind::Riot);
        let plain = run(EngineKind::PlainR);
        assert!(riot < matnamed, "riot {riot} < matnamed {matnamed}");
        assert!(
            matnamed < strawman,
            "matnamed {matnamed} < strawman {strawman}"
        );
        assert!(riot * 10 < plain, "riot {riot} << plain {plain}");
    }

    #[test]
    fn riot_collect_reports_pushdown_stats() {
        let s = Session::with_engine(EngineKind::Riot);
        let a = s.vector_from_fn(500, |i| i as f64).unwrap();
        let b = a.square();
        let mask = b.gt(100.0);
        let b2 = b.mask_assign(&mask, 100.0);
        let idx = s.range(1, 10).unwrap();
        let z = b2.index(&idx);
        z.collect().unwrap();
        let stats = s.last_opt_stats();
        assert!(stats.mask_to_ifelse >= 1);
        assert!(stats.gathers_pushed >= 1);
    }

    /// `last_opt_stats` names one forcing point under both deferred
    /// engines: collecting the same window twice reports the same
    /// statistics, and an EXPLAIN in between — which plans a different
    /// value but forces nothing — changes none of them.
    #[test]
    fn last_opt_stats_report_the_last_forcing_point_only() {
        for kind in [EngineKind::MatNamed, EngineKind::Riot] {
            let s = Session::with_engine(kind);
            let x = s.vector_from_fn(500, |i| i as f64).unwrap();
            let window = x.index(&s.range(2, 50).unwrap());
            let b = x.square();
            let masked = b.mask_assign(&b.gt(100.0), 100.0);
            let pushed = masked.index(&s.range(1, 10).unwrap());
            window.collect().unwrap();
            let first = s.last_opt_stats();
            assert_eq!(first.range_scans, 1, "{kind:?}");
            pushed.explain();
            assert_eq!(s.last_opt_stats(), first, "{kind:?}: after explain");
            window.collect().unwrap();
            assert_eq!(s.last_opt_stats(), first, "{kind:?}: second collect");
        }
    }

    #[test]
    fn aggregates_force_without_materializing() {
        for s in sessions() {
            let x = s.vector_from_fn(1000, |i| i as f64).unwrap();
            let y = (&x * 2.0) + 1.0;
            assert_eq!(
                y.sum().unwrap(),
                (0..1000).map(|i| 2.0 * i as f64 + 1.0).sum()
            );
            assert_eq!(y.min().unwrap(), 1.0);
            assert_eq!(y.max().unwrap(), 1999.0);
            assert!((y.mean().unwrap() - 1000.0).abs() < 1e-9);
        }
    }

    #[test]
    fn matmul_chain_consistent_across_engines() {
        let mut results = Vec::new();
        for kind in EngineKind::all() {
            let mut cfg = EngineConfig::new(kind);
            cfg.block_size = 512;
            cfg.mem_blocks = 64;
            let s = Session::new(cfg);
            let a = s
                .matrix_from_fn(12, 4, MatrixLayout::Square, |i, j| (i + j) as f64)
                .unwrap();
            let b = s
                .matrix_from_fn(4, 12, MatrixLayout::Square, |i, j| (i * j) as f64 * 0.25)
                .unwrap();
            let c = s
                .matrix_from_fn(
                    12,
                    12,
                    MatrixLayout::Square,
                    |i, j| {
                        if i == j {
                            1.0
                        } else {
                            0.0
                        }
                    },
                )
                .unwrap();
            let abc = a.matmul(&b).matmul(&c);
            let (r, ccols, data) = abc.collect().unwrap();
            assert_eq!((r, ccols), (12, 12));
            results.push(data);
        }
        for w in results.windows(2) {
            let close = w[0].iter().zip(&w[1]).all(|(a, b)| (a - b).abs() < 1e-9);
            assert!(close, "engines disagree on matmul chain");
        }
    }

    #[test]
    fn sql_view_rendering_via_session() {
        let s = Session::with_engine(EngineKind::Riot);
        let x = s.vector_from_fn(10, |i| i as f64).unwrap();
        let y = s.vector_from_fn(10, |i| i as f64).unwrap();
        let z = &x + &y;
        let sql = s.sql_view(&z, "E3");
        assert!(sql.contains("CREATE VIEW E3(I,V)"));
        let r = s.render(&z);
        assert!(r.contains('+'), "{r}");
    }

    #[test]
    fn riot_computes_shared_subexpressions_once_per_chunk() {
        // e = f(d) + g(d) with a large shared d: d is one register of the
        // tape, computed once per chunk from one pass over x and y — never
        // recomputed per branch, never written to disk.
        let mut cfg = EngineConfig::new(EngineKind::Riot);
        cfg.block_size = 512;
        cfg.chunk_elems = 64;
        cfg.mem_blocks = 16;
        let s = Session::new(cfg);
        let n = 4096; // 64 blocks per vector, 4x the pool
        let x = s.vector_from_fn(n, |i| i as f64).unwrap();
        let y = s.vector_from_fn(n, |i| (2 * i) as f64).unwrap();
        let d = (&x + &y).sqrt(); // shared, non-leaf, large
        let e = &(&d * 2.0) + &(&d * 3.0);
        let want: f64 = (0..n).map(|i| 5.0 * ((3 * i) as f64).sqrt()).sum();
        s.drop_caches().unwrap();
        let (io, ops) = (s.io_snapshot(), s.cpu_ops());
        let got = e.sum().unwrap();
        assert!((got - want).abs() < 1e-6 * want.abs());
        let io = s.io_snapshot() - io;
        assert_eq!((io.reads, io.writes), (128, 0), "x and y once, no spill");
        // x+y, sqrt, 2d, 3d and their sum — five nodes, not the seven of
        // the expression tree — plus the aggregate's own fold.
        assert_eq!(s.cpu_ops() - ops, 6 * n as u64);
        // The value is the node's from here on: asking again costs nothing.
        s.drop_caches().unwrap();
        let (io, ops) = (s.io_snapshot(), s.cpu_ops());
        assert_eq!(e.sum().unwrap().to_bits(), got.to_bits());
        assert_eq!((s.io_snapshot() - io).reads, 0, "sum(e) twice is one pass");
        assert_eq!(s.cpu_ops(), ops);
    }

    /// Two written-out k-means rounds (k = 2) over `x`, `y`, as the
    /// benchmark's `stream_ooc` script writes them, every aggregate left
    /// deferred where the engine defers; returns the final counts and
    /// centroids, and the counted I/O from a cold pool.
    fn two_kmeans_rounds(kind: EngineKind) -> (Vec<f64>, IoSnapshot) {
        let mut cfg = EngineConfig::new(kind);
        cfg.block_size = 512; // 64 elements
        cfg.chunk_elems = 64;
        cfg.mem_blocks = 64;
        let s = Session::new(cfg);
        let n = 64 * 128; // 128 blocks per vector, 4x the pool together
        let x = s.vector_from_fn(n, |i| ((i * 7) % 23) as f64).unwrap();
        let y = s.vector_from_fn(n, |i| ((i * 5) % 19) as f64).unwrap();
        // An aggregate as the engine gives it: deferred, or its value.
        let reduce = |v: &RVec| match v.deferred(AggOp::Sum).unwrap() {
            Some(pending) => pending,
            None => s.literal(&[v.sum().unwrap()]).unwrap(),
        };
        let named = |name: &str, v: RVec| s.assign(name, &v).unwrap();
        let mut c = [[4.0, 4.0], [16.0, 12.0]].map(|c| c.map(|v| s.literal(&[v]).unwrap()));
        s.drop_caches().unwrap();
        let before = s.io_snapshot();
        let mut counts = Vec::new();
        for _round in 0..2 {
            let [d1, d2] = [0, 1].map(|k| {
                let d = (&x - &c[k][0]).square() + (&y - &c[k][1]).square();
                named("d", d)
            });
            let m = named("m", d1.pmin(&d2));
            let a1 = named("a1", d1.le_vec(&m));
            let a2 = named("a2", d1.gt_vec(&m));
            counts = vec![named("n1", reduce(&a1)), named("n2", reduce(&a2))];
            for (k, a) in [&a1, &a2].into_iter().enumerate() {
                c[k] =
                    [&x, &y].map(|p| named("c", reduce(&(p * a)).binary(BinOp::Div, &counts[k])));
            }
        }
        let scalars = counts.iter().chain(c.iter().flatten());
        let values = scalars.map(|v| v.collect().unwrap()[0]).collect();
        (values, s.io_snapshot() - before)
    }

    #[test]
    fn riot_scans_once_per_kmeans_round() {
        let (want, _) = two_kmeans_rounds(EngineKind::PlainR);
        // Round 2's distances need round 1's centroids, and nothing else
        // needs anything: two scans of x and y (128 blocks each), no more.
        let (got, io) = two_kmeans_rounds(EngineKind::Riot);
        assert_eq!(got, want);
        assert_eq!((io.reads, io.writes), (2 * (128 + 128), 0));
        // MatNamed observes a scalar where it is bound to a name, so
        // nothing is pending when the next one is built: its aggregates
        // scan one at a time, as they always did. Per round, five named
        // vectors each read two and are written, and six aggregates read
        // one stored vector (the counts) or two (the centroid sums).
        let (got, io) = two_kmeans_rounds(EngineKind::MatNamed);
        assert_eq!(got, want);
        let per_round = (5 * 256 + 2 * 128 + 4 * 256, 5 * 128);
        assert_eq!((io.reads, io.writes), (2 * per_round.0, 2 * per_round.1));
    }

    #[test]
    fn a_batch_explains_and_profiles_as_one_node() {
        let s = Session::with_engine(EngineKind::Riot);
        let x = s.vector_from_fn(4096, |i| i as f64).unwrap();
        let w = (&x * 2.0).sqrt();
        let ops = [AggOp::Sum, AggOp::Mean, AggOp::Max];
        let pending = ops.map(|op| w.deferred(op).unwrap().expect("Riot defers"));
        // EXPLAIN: the member's own plan under the batch it would run
        // with — itself first, then the others, oldest first.
        let plan = pending[1].explain();
        let head = "aggregate ×3: mean sum max | v0\nagg mean  -> scalar\n└─ map sqrt";
        assert!(plan.starts_with(head), "{plan}");
        // PROFILE: one span for the batch, one scan of x, and the riders
        // counted where the optimizer's decisions are.
        let (_, profile) = s.profile(|| pending[1].collect().unwrap());
        let tree = profile.render_counts();
        assert!(
            tree.contains("└─ aggregate  ×3: mean sum max | v0  ["),
            "{tree}"
        );
        assert_eq!(tree.matches("aggregate").count(), 1, "{tree}");
        let rode = profile.events.iter().find_map(|e| match e.kind {
            riot_trace::EventKind::Rewrite { rule, count } if rule == "aggregates_batched" => {
                Some(count)
            }
            _ => None,
        });
        assert_eq!((rode, s.last_opt_stats().aggregates_batched), (Some(2), 2));
        // A scalar that has its value explains as the constant it is.
        assert_eq!(s.pending_scalars(), 0);
        assert!(
            pending[0].explain().starts_with("const "),
            "{}",
            pending[0].explain()
        );
    }

    #[test]
    fn a_forgotten_aggregate_still_runs_when_it_is_needed() {
        // A budget of eight elements: the registry holds eight aggregates
        // and forgets the oldest of twelve. Forgotten ones ride in nobody's
        // batch, but their handles — and DAGs over them — still work.
        let mut cfg = EngineConfig::new(EngineKind::Riot);
        (cfg.block_size, cfg.mem_blocks, cfg.chunk_elems) = (64, 1, 8);
        let s = Session::new(cfg);
        let x = s.vector_from_fn(8, |i| i as f64).unwrap();
        let sums: Vec<RVec> = (0..12)
            .map(|k| (&x + k as f64).deferred(AggOp::Sum).unwrap().unwrap())
            .collect();
        assert_eq!(s.pending_scalars(), 8);
        let shifted = &x - &sums[0]; // over a forgotten one
        assert_eq!(shifted.collect().unwrap()[7], 7.0 - 28.0);
        for (k, sum) in sums.iter().enumerate() {
            assert_eq!(sum.collect().unwrap(), [28.0 + 8.0 * k as f64]);
        }
        assert_eq!(s.pending_scalars(), 0);
    }

    #[test]
    fn plain_r_thrashes_when_memory_is_tight() {
        let mut cfg = EngineConfig::new(EngineKind::PlainR);
        cfg.block_size = 512;
        cfg.mem_blocks = 8; // 512 elements of physical memory
        let s = Session::new(cfg);
        let n = 2048;
        let x = s.vector_from_fn(n, |i| i as f64).unwrap();
        let y = s.vector_from_fn(n, |i| i as f64).unwrap();
        let before = s.io_snapshot();
        let d = ((&x - 1.0).square() + (&y - 2.0).square()).sqrt();
        let _ = d.collect().unwrap();
        let delta = s.io_snapshot() - before;
        assert!(
            delta.total_blocks() > 0,
            "eager evaluation beyond memory must page"
        );
    }
}
