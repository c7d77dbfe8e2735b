//! The four evaluation strategies of the paper's experiments (§4.2), as
//! interchangeable engines over one runtime.
//!
//! | Engine      | Evaluation                | Intermediates            | Named objects        |
//! |-------------|---------------------------|--------------------------|----------------------|
//! | `PlainR`    | eager, per operation      | full vectors on a paging heap | refcounted heap objects |
//! | `Strawman`  | eager, per operation      | `(I,V)` tables on disk   | tables kept alive    |
//! | `MatNamed`  | deferred within statement | pipelined (never stored) | materialized to disk |
//! | `Riot`      | fully deferred            | pipelined                | views (just names)   |
//!
//! The same program runs unmodified under each engine — the paper's
//! transparency claim — and every engine reports I/O through the same
//! counters, which is what the Figure 1 harness tabulates.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use riot_array::{DenseMatrix, DenseVector, MatrixLayout, StorageCtx, TileOrder, VectorWriter};
use riot_sparse::SparseMatrix;
use riot_storage::{DiskModel, IoSnapshot, ObjectKind, PoolStats, ReplacerKind};
use riot_trace::{EventKind, Metrics, SpanToken};
use riot_vm::{PagedHeap, VmConfig, VmId};

use crate::exec::pipeline::{
    drain_agg, drain_partitioned, drain_to_vec, fold_partitioned, governed, materialize, ConstScan,
    CycleScan, GatherPipe, IfElsePipe, LiteralScan, MapPipe, Pipe, Probe, RangeScan, VecScan,
    ZipPipe,
};
use crate::exec::{
    factor, matmul, sparse as spkernel, ExecError, ExecResult, MatMulKernel, Operand,
};
use crate::expr::{AggOp, BinOp, ExprError, Node, NodeId, SourceRef, UnOp};
use crate::graph::ExprGraph;
use crate::opt::{optimize, OptConfig, RewriteStats};
use crate::shape::Shape;

/// Which of the paper's four strategies an engine implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Eager evaluation on a demand-paged heap: the thrashing baseline.
    PlainR,
    /// Every operation reads and writes relational-style `(I,V)` tables.
    Strawman,
    /// Deferred views, but every named object is materialized.
    MatNamed,
    /// Full RIOT: deferred across statements, optimized, pipelined.
    Riot,
}

impl EngineKind {
    /// All four engines, in the paper's presentation order.
    pub fn all() -> [EngineKind; 4] {
        [
            EngineKind::PlainR,
            EngineKind::Strawman,
            EngineKind::MatNamed,
            EngineKind::Riot,
        ]
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::PlainR => "Plain R",
            EngineKind::Strawman => "RIOT-DB/Strawman",
            EngineKind::MatNamed => "RIOT-DB/MatNamed",
            EngineKind::Riot => "RIOT-DB",
        }
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Which strategy to run.
    pub kind: EngineKind,
    /// Block (and VM page) size in bytes.
    pub block_size: usize,
    /// Memory cap in blocks — the paper's `shmat` lockdown.
    pub mem_blocks: usize,
    /// Pipeline chunk size in elements.
    pub chunk_elems: usize,
    /// Buffer-pool replacement policy.
    pub replacer: ReplacerKind,
    /// Optimizer switches (only the `Riot` engine optimizes).
    pub opt: OptConfig,
    /// Kernel for deferred matrix multiplication.
    pub matmul_kernel: MatMulKernel,
    /// Worker threads for the elementwise pipeline, the parallel
    /// aggregation drain, and the sparse kernel family at forcing points.
    /// `1` (the default) runs the classic sequential executor, whose I/O
    /// order the cost-model validation pins down bit-for-bit; higher
    /// values fan work out on scoped worker pools with bit-identical
    /// results (and, in the in-memory regime, identical counted I/O).
    pub threads: usize,
    /// Background prefetch workers for the buffer pool
    /// ([`riot_storage::PoolConfig::prefetch_depth`]). `0` (the default)
    /// keeps the demand-paged I/O order bit-for-bit; positive values let
    /// the kernels' declared access patterns overlap device loads with
    /// compute — changing when reads happen, never how many.
    pub prefetch_depth: usize,
    /// RNG seed for `sample()`.
    pub seed: u64,
}

impl EngineConfig {
    /// Sensible defaults for `kind`: 8 KiB blocks, a 4 MiB memory cap,
    /// LRU replacement, all optimizations on, square-tiled matmul.
    pub fn new(kind: EngineKind) -> Self {
        EngineConfig {
            kind,
            block_size: 8192,
            mem_blocks: 512,
            chunk_elems: 1024,
            replacer: ReplacerKind::Lru,
            opt: OptConfig::default(),
            matmul_kernel: MatMulKernel::SquareTiled,
            threads: 1,
            prefetch_depth: 0,
            seed: R_SEED,
        }
    }
}

const R_SEED: u64 = 20090104; // CIDR 2009, January 4.

/// Internal representation of a vector value under some engine.
#[derive(Clone)]
pub(crate) enum VecRepr {
    /// Deferred engines: a DAG node.
    Node(NodeId),
    /// Plain R: a paging-heap object (refcount managed by the runtime).
    Vm(VmId),
    /// Strawman: a stored `(I,V)` table, freed when the last handle drops.
    Table(Rc<StrawTable>),
}

/// Internal representation of a matrix value.
#[derive(Clone)]
pub(crate) enum MatRepr {
    /// Deferred engines: a DAG node.
    Node(NodeId),
    /// Plain R: row-major data on the paging heap.
    Vm {
        /// Heap object.
        id: VmId,
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// Strawman: a stored matrix.
    Stored(Rc<StrawMat>),
}

/// A fully materialized matrix in either physical representation. The
/// executor's matrix forcing returns this so sparse results can stay
/// sparse through a chain of multiplications.
#[derive(Clone)]
pub(crate) enum MatValue {
    /// Dense, tiled storage.
    Dense(DenseMatrix),
    /// Block-compressed sparse storage.
    Sparse(SparseMatrix),
}

/// RAII wrapper freeing a strawman table when the last reference dies —
/// the dependency-tracking hook of §4.1 ("to be able to safely drop
/// views, RIOT-DB must track such dependencies").
pub(crate) struct StrawTable {
    /// Anonymous intermediates are owned (freed on drop); named objects
    /// bound through the corpus harness or reopened from a durable catalog
    /// are borrowed — dropping the handle must not delete durable state.
    pub(crate) owned: bool,
    pub(crate) vec: DenseVector,
}

impl Drop for StrawTable {
    fn drop(&mut self) {
        // Freeing is best-effort: a failure here only leaks simulated disk.
        if self.owned {
            let _ = self.vec.clone().free();
        }
    }
}

/// RAII wrapper for strawman matrices.
pub(crate) struct StrawMat {
    /// See [`StrawTable::owned`].
    pub(crate) owned: bool,
    pub(crate) mat: DenseMatrix,
}

impl Drop for StrawMat {
    fn drop(&mut self) {
        if self.owned {
            let _ = self.mat.clone().free();
        }
    }
}

/// Baselines captured at span open so `span_end` can attribute counter
/// deltas to the span (see [`Runtime::span_begin`]).
struct SpanGuard {
    token: SpanToken,
    io: IoSnapshot,
    ops: u64,
    pool: PoolStats,
}

/// The engine runtime: storage, paging heap, expression graph, caches, and
/// counters. [`crate::session::Session`] wraps this in `Rc<RefCell<..>>`
/// and layers the R-like handle API on top.
pub struct Runtime {
    pub(crate) cfg: EngineConfig,
    pub(crate) graph: ExprGraph,
    pub(crate) ctx: Arc<StorageCtx>,
    pub(crate) heap: PagedHeap,
    pub(crate) vec_sources: HashMap<u32, DenseVector>,
    pub(crate) mat_sources: HashMap<u32, DenseMatrix>,
    pub(crate) sparse_sources: HashMap<u32, SparseMatrix>,
    next_source: u32,
    /// Materialized vector results, keyed by DAG node (MatNamed's named
    /// objects; Riot's spills and shared-subexpression caches).
    pub(crate) materialized: HashMap<NodeId, DenseVector>,
    pub(crate) mat_materialized: HashMap<NodeId, DenseMatrix>,
    pub(crate) sparse_materialized: HashMap<NodeId, SparseMatrix>,
    pub(crate) cpu_ops: Arc<AtomicU64>,
    pub(crate) last_opt_stats: RewriteStats,
    rng: StdRng,
}

impl Runtime {
    /// Build a runtime for `cfg`.
    pub fn new(cfg: EngineConfig) -> Self {
        let ctx = StorageCtx::new_mem_opts(
            cfg.block_size,
            riot_storage::PoolConfig {
                frames: cfg.mem_blocks,
                replacer: cfg.replacer,
                prefetch_depth: cfg.prefetch_depth,
                ..riot_storage::PoolConfig::default()
            },
            1,
        );
        Self::with_ctx(cfg, ctx)
    }

    /// Build a runtime over an existing storage context — the reopen path:
    /// a durable catalog created in one session can be [`StorageCtx::open`]ed
    /// and driven by a fresh runtime, with named objects picked back up via
    /// `Runtime::open_vector`/`Runtime::open_matrix`. The context's block
    /// size must match `cfg.block_size` (object extents are block-addressed).
    pub fn with_ctx(cfg: EngineConfig, ctx: Arc<StorageCtx>) -> Self {
        let heap = PagedHeap::new(VmConfig {
            page_elems: cfg.block_size / 8,
            frames: cfg.mem_blocks,
        });
        // `RIOT_TRACE=1` turns on event collection for the whole runtime
        // (the CI trace leg runs the entire suite this way, proving the
        // enabled path never perturbs counted I/O or results).
        if std::env::var_os("RIOT_TRACE").is_some_and(|v| v != "0" && !v.is_empty()) {
            ctx.tracer().enable();
        }
        // `RIOT_GOVERN=1` engages the governor with empty limits — full
        // checkpoint accounting, nothing to trip — for the whole runtime
        // (the CI governance leg runs the entire suite this way, proving
        // the engaged path never perturbs counted I/O or results).
        if std::env::var_os("RIOT_GOVERN").is_some_and(|v| v != "0" && !v.is_empty()) {
            ctx.governor().engage(riot_storage::ResourceLimits::none());
        }
        Runtime {
            cfg,
            graph: ExprGraph::new(),
            ctx,
            heap,
            vec_sources: HashMap::new(),
            mat_sources: HashMap::new(),
            sparse_sources: HashMap::new(),
            next_source: 0,
            materialized: HashMap::new(),
            mat_materialized: HashMap::new(),
            sparse_materialized: HashMap::new(),
            cpu_ops: Arc::new(AtomicU64::new(0)),
            last_opt_stats: RewriteStats::default(),
            rng: StdRng::seed_from_u64(cfg.seed),
        }
    }

    fn fresh_source(&mut self) -> SourceRef {
        let r = SourceRef(self.next_source);
        self.next_source += 1;
        r
    }

    /// Flush dirty pages and empty the buffer-pool cache, so the next
    /// phase is measured cold — the harness calls this between loading and
    /// querying, like the paper's separate measurement runs. (The Plain R
    /// heap has no disk backing to flush to; its pages *are* the state.)
    pub fn drop_caches(&self) -> ExecResult<()> {
        self.ctx.clear_cache()?;
        Ok(())
    }

    /// Combined I/O across the buffer pool and the paging heap.
    pub fn io_snapshot(&self) -> IoSnapshot {
        let pool = self.ctx.io_snapshot();
        let vm = self.heap.io_stats().snapshot();
        IoSnapshot {
            reads: pool.reads + vm.reads,
            writes: pool.writes + vm.writes,
            seq_reads: pool.seq_reads + vm.seq_reads,
            seq_writes: pool.seq_writes + vm.seq_writes,
            bytes_read: pool.bytes_read + vm.bytes_read,
            bytes_written: pool.bytes_written + vm.bytes_written,
            syncs: pool.syncs + vm.syncs,
        }
    }

    /// Scalar operations performed so far.
    pub fn cpu_ops(&self) -> u64 {
        self.cpu_ops.load(Ordering::Relaxed)
    }

    /// Modeled execution time per Figure 1(b)'s I/O-dominated accounting.
    pub fn modeled_seconds(&self, model: &DiskModel) -> f64 {
        model.modeled_seconds(&self.io_snapshot(), self.cpu_ops())
    }

    fn count_ops(&self, n: usize) {
        self.cpu_ops.fetch_add(n as u64, Ordering::Relaxed);
    }

    // ================= tracing =================

    /// The runtime's tracer (shared with the buffer pool; disabled by
    /// default — one relaxed atomic load per call site when off).
    pub fn tracer(&self) -> &Arc<riot_trace::Tracer> {
        self.ctx.tracer()
    }

    /// Buffer-pool cache-effectiveness counters (hits, misses, evictions,
    /// prefetch traffic) for the session's pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.ctx.pool().pool_stats()
    }

    /// One-call folded storage counters: counted I/O plus pool counters
    /// (retry/corruption counters fold in at the layer that stacked those
    /// wrappers; the default in-memory device has none).
    pub fn storage_report(&self) -> riot_storage::StorageReport {
        self.ctx.storage_report()
    }

    /// EXPLAIN for a deferred node: under Riot the optimizer runs first —
    /// exactly what the forcing point would execute — then the chosen
    /// logical plan renders as a text tree.
    pub fn explain(&mut self, id: NodeId) -> String {
        let mut root = id;
        if self.cfg.kind == EngineKind::Riot {
            let cfg = self.cfg.opt;
            let (r, stats) = optimize(&mut self.graph, root, &cfg);
            self.last_opt_stats = stats;
            root = r;
        }
        crate::profile::render_plan(&self.graph, root)
    }

    /// Run `f` as one governed query. With the governor disengaged (or
    /// when already inside a governed bracket — forcing points nest) this
    /// is a direct call. Engaged, it opens the governor's budget bracket,
    /// snapshots the set of live catalog objects, and — if `f` unwinds
    /// with a governance abort (cancel, budget, pin timeout) — releases
    /// everything the query allocated: queued prefetch windows are
    /// dropped, cache entries backed by query-created objects are purged,
    /// and the objects themselves are freed, restoring the catalog to its
    /// pre-query state (the *leak-free abort* pinned invariant).
    pub(crate) fn governed<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> ExecResult<T>,
    ) -> ExecResult<T> {
        let outer = {
            let gov = self.ctx.governor();
            gov.engaged() && !gov.in_query()
        };
        if !outer {
            return f(self);
        }
        let baseline = self.ctx.live_object_ids();
        self.ctx.governor().begin();
        let result = f(self);
        self.ctx.governor().end();
        if let Err(e) = &result {
            if e.is_governance_abort() {
                self.abort_cleanup(&baseline);
            }
        }
        result
    }

    /// Release everything a governance-aborted query allocated (see
    /// [`Runtime::governed`]). `baseline` is the set of live catalog
    /// objects at query start; anything newer is the aborted query's.
    fn abort_cleanup(&mut self, baseline: &[riot_storage::ObjectId]) {
        // Stop queued prefetch windows first: nothing new should load on
        // behalf of a dead query.
        self.ctx.pool().discard_prefetch_queue();
        let base: std::collections::HashSet<riot_storage::ObjectId> =
            baseline.iter().copied().collect();
        // Purge cache entries whose backing object the aborted query
        // created, so no handle survives to a freed object. Entries over
        // pre-query objects (earlier statements' results) stay valid.
        self.materialized.retain(|_, v| base.contains(&v.object()));
        self.mat_materialized
            .retain(|_, m| base.contains(&m.object()));
        self.sparse_materialized
            .retain(|_, s| base.contains(&s.object()));
        // Free the objects themselves: half-built outputs and spills
        // whose handles were consumed by the unwinding error path.
        for id in self.ctx.live_object_ids() {
            if !base.contains(&id) {
                let _ = self.ctx.drop_object(id);
            }
        }
    }

    /// The runtime's storage context (pool, catalog, and governor).
    pub fn storage_ctx(&self) -> Arc<StorageCtx> {
        Arc::clone(&self.ctx)
    }

    /// Open a measured span: records the span start plus counter
    /// baselines, so [`Runtime::span_end`] can attribute the deltas.
    /// Inert (no snapshots taken) while tracing is disabled.
    fn span_begin(&self, name: &'static str) -> SpanGuard {
        let token = self.ctx.tracer().begin_span(name);
        if !token.is_active() {
            return SpanGuard {
                token,
                io: IoSnapshot::default(),
                ops: 0,
                pool: PoolStats::default(),
            };
        }
        SpanGuard {
            token,
            io: self.io_snapshot(),
            ops: self.cpu_ops(),
            pool: self.ctx.pool().pool_stats(),
        }
    }

    /// Close a measured span with the counter deltas since its open.
    fn span_end(&self, guard: SpanGuard, detail: String) {
        if !guard.token.is_active() {
            return;
        }
        let io = self.io_snapshot() - guard.io;
        let pool = self.ctx.pool().pool_stats().delta(&guard.pool);
        let metrics = Metrics {
            reads: io.reads,
            writes: io.writes,
            seq_reads: io.seq_reads,
            seq_writes: io.seq_writes,
            bytes_read: io.bytes_read,
            bytes_written: io.bytes_written,
            flops: self.cpu_ops() - guard.ops,
            threads: self.cfg.threads.max(1) as u64,
            pool_hits: pool.hits,
            pool_misses: pool.misses,
        };
        self.ctx.tracer().end_span(guard.token, detail, metrics);
    }

    /// Span detail: the node's rendered expression, truncated. Empty
    /// (allocation-free) while tracing is disabled.
    fn detail_of(&self, id: NodeId) -> String {
        if !self.ctx.tracer().is_enabled() {
            return String::new();
        }
        let mut s = self.graph.render(id);
        if s.len() > 120 {
            s.truncate(117);
            s.push_str("...");
        }
        s
    }

    /// Emit the optimizer's decisions for the forcing point that just
    /// optimized `root`: the chosen plan (rendered) and one event per
    /// rewrite rule that fired.
    fn record_opt_events(&self, root: NodeId) {
        let tracer = self.ctx.tracer();
        if !tracer.is_enabled() {
            return;
        }
        tracer.record(EventKind::Plan {
            detail: self.detail_of(root).into_boxed_str(),
        });
        let s = &self.last_opt_stats;
        for (rule, count) in [
            ("mask_to_ifelse", s.mask_to_ifelse),
            ("gathers_pushed", s.gathers_pushed),
            ("folds", s.folds),
            ("chains_reordered", s.chains_reordered),
            ("sparse_kernels", s.sparse_kernels),
            ("sparse_densified", s.sparse_densified),
            ("sparse_transposes", s.sparse_transposes),
            ("transpose_densified", s.transpose_densified),
            ("normal_eq_solves", s.normal_eq_solves),
        ] {
            if count > 0 {
                tracer.record(EventKind::Rewrite { rule, count });
            }
        }
    }

    fn chunk(&self) -> usize {
        self.cfg.chunk_elems
    }

    fn mem_elems(&self) -> usize {
        self.cfg.mem_blocks * (self.cfg.block_size / 8)
    }

    // ================= loading =================

    /// Load a vector produced by `f(i)` for `i in 0..len`. A `name`
    /// registers the stored object in the catalog so a later session can
    /// reopen it ([`Runtime::open_vector`]); Plain R has no catalog-backed
    /// storage, so the name is ignored there.
    pub(crate) fn load_vector(
        &mut self,
        len: usize,
        name: Option<&str>,
        mut f: impl FnMut(usize) -> f64,
    ) -> ExecResult<VecRepr> {
        match self.cfg.kind {
            EngineKind::PlainR => {
                let id = self.heap.alloc(len);
                let chunk = self.chunk();
                let mut buf = Vec::with_capacity(chunk);
                let mut at = 0;
                while at < len {
                    buf.clear();
                    let take = chunk.min(len - at);
                    for i in 0..take {
                        buf.push(f(at + i));
                    }
                    self.heap.write_chunk(id, at, &buf);
                    at += take;
                }
                Ok(VecRepr::Vm(id))
            }
            EngineKind::Strawman => {
                let vec = DenseVector::create_wide(&self.ctx, len, name)?;
                let chunk = self.chunk();
                let mut buf = Vec::with_capacity(chunk);
                let mut at = 0;
                while at < len {
                    buf.clear();
                    let take = chunk.min(len - at);
                    for i in 0..take {
                        buf.push(f(at + i));
                    }
                    vec.write_range(at, &buf)?;
                    at += take;
                }
                vec.flush()?;
                // Named tables are durable catalog residents the session
                // merely references; anonymous intermediates are owned.
                let owned = name.is_none();
                Ok(VecRepr::Table(Rc::new(StrawTable { owned, vec })))
            }
            EngineKind::MatNamed | EngineKind::Riot => {
                let src = self.fresh_source();
                let mut writer = VectorWriter::new(&self.ctx, len, name)?;
                let chunk = self.chunk();
                let mut buf = Vec::with_capacity(chunk);
                let mut at = 0;
                while at < len {
                    buf.clear();
                    let take = chunk.min(len - at);
                    for i in 0..take {
                        buf.push(f(at + i));
                    }
                    writer.push_chunk(&buf)?;
                    at += take;
                }
                self.vec_sources.insert(src.0, writer.finish()?);
                let node = self.graph.vec_source(src, len);
                Ok(VecRepr::Node(node))
            }
        }
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
        match self.cfg.kind {
            EngineKind::PlainR => {
                let id = self.heap.alloc(rows * cols);
                let chunk = self.chunk();
                let mut buf = Vec::with_capacity(chunk);
                let mut at = 0;
                while at < rows * cols {
                    buf.clear();
                    let take = chunk.min(rows * cols - at);
                    for i in 0..take {
                        let idx = at + i;
                        buf.push(f(idx / cols, idx % cols));
                    }
                    self.heap.write_chunk(id, at, &buf);
                    at += take;
                }
                Ok(MatRepr::Vm { id, rows, cols })
            }
            EngineKind::Strawman => {
                let mat = DenseMatrix::from_fn(
                    &self.ctx,
                    rows,
                    cols,
                    MatrixLayout::ColMajor,
                    TileOrder::ColMajor,
                    name,
                    f,
                )?;
                let owned = name.is_none();
                Ok(MatRepr::Stored(Rc::new(StrawMat { owned, mat })))
            }
            EngineKind::MatNamed | EngineKind::Riot => {
                let src = self.fresh_source();
                let order = match layout {
                    MatrixLayout::RowMajor => TileOrder::RowMajor,
                    MatrixLayout::ColMajor => TileOrder::ColMajor,
                    MatrixLayout::Square => TileOrder::RowMajor,
                };
                let mat = DenseMatrix::from_fn(&self.ctx, rows, cols, layout, order, name, f)?;
                self.mat_sources.insert(src.0, mat);
                let node = self.graph.mat_source(src, rows, cols);
                Ok(MatRepr::Node(node))
            }
        }
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
        match self.cfg.kind {
            EngineKind::PlainR => {
                let id = self.heap.alloc(rows * cols);
                let chunk = self.chunk();
                let zeros = vec![0.0; chunk];
                let mut at = 0;
                while at < rows * cols {
                    let take = chunk.min(rows * cols - at);
                    self.heap.write_chunk(id, at, &zeros[..take]);
                    at += take;
                }
                for &(r, c, v) in triplets {
                    let idx = r * cols + c;
                    let cur = self.heap.get(id, idx);
                    self.heap.set(id, idx, cur + v);
                }
                Ok(MatRepr::Vm { id, rows, cols })
            }
            EngineKind::Strawman => {
                let mut cells: HashMap<(usize, usize), f64> = HashMap::new();
                for &(r, c, v) in triplets {
                    *cells.entry((r, c)).or_insert(0.0) += v;
                }
                let mat = DenseMatrix::from_fn(
                    &self.ctx,
                    rows,
                    cols,
                    MatrixLayout::ColMajor,
                    TileOrder::ColMajor,
                    name,
                    |i, j| cells.get(&(i, j)).copied().unwrap_or(0.0),
                )?;
                let owned = name.is_none();
                Ok(MatRepr::Stored(Rc::new(StrawMat { owned, mat })))
            }
            EngineKind::MatNamed | EngineKind::Riot => {
                let src = self.fresh_source();
                let sp = SparseMatrix::from_triplets(
                    &self.ctx,
                    rows,
                    cols,
                    MatrixLayout::Square,
                    triplets,
                    name,
                )?;
                let nnz = sp.nnz();
                self.sparse_sources.insert(src.0, sp);
                Ok(MatRepr::Node(
                    self.graph.sp_mat_source(src, rows, cols, nnz),
                ))
            }
        }
    }

    /// Reopen a named stored vector (written by a `load_vector` with a
    /// name, possibly in a previous session over the same durable
    /// storage). Plain R copies it onto the paging heap — eager semantics,
    /// same as loading fresh; Strawman wraps a borrowed (non-owning)
    /// table; the deferred engines register a source node.
    pub(crate) fn open_vector(&mut self, name: &str) -> ExecResult<VecRepr> {
        let vec = DenseVector::open(&self.ctx, name)?;
        match self.cfg.kind {
            EngineKind::PlainR => {
                let len = vec.len();
                let id = self.heap.alloc(len);
                let chunk = self.chunk();
                let mut buf = vec![0.0; chunk];
                let mut at = 0;
                while at < len {
                    let take = chunk.min(len - at);
                    vec.read_range(at, &mut buf[..take])?;
                    self.heap.write_chunk(id, at, &buf[..take]);
                    at += take;
                }
                Ok(VecRepr::Vm(id))
            }
            EngineKind::Strawman => Ok(VecRepr::Table(Rc::new(StrawTable { owned: false, vec }))),
            EngineKind::MatNamed | EngineKind::Riot => {
                let src = self.fresh_source();
                let len = vec.len();
                self.vec_sources.insert(src.0, vec);
                Ok(VecRepr::Node(self.graph.vec_source(src, len)))
            }
        }
    }

    /// Reopen a named stored matrix, dense or sparse (the catalog header's
    /// object kind disambiguates). Eager engines densify sparse objects on
    /// the way in, mirroring `load_sparse`.
    pub(crate) fn open_matrix(&mut self, name: &str) -> ExecResult<MatRepr> {
        let is_sparse = self
            .ctx
            .find_object(name)
            .and_then(|id| self.ctx.object_header(id).ok().flatten())
            .is_some_and(|h| h.kind == ObjectKind::SparseMatrix);
        if is_sparse {
            let sp = SparseMatrix::open(&self.ctx, name)?;
            let (rows, cols) = sp.shape();
            match self.cfg.kind {
                EngineKind::PlainR => {
                    let data = sp.to_rows()?;
                    let id = self.heap.alloc(rows * cols);
                    let chunk = self.chunk();
                    let mut at = 0;
                    while at < rows * cols {
                        let take = chunk.min(rows * cols - at);
                        self.heap.write_chunk(id, at, &data[at..at + take]);
                        at += take;
                    }
                    Ok(MatRepr::Vm { id, rows, cols })
                }
                EngineKind::Strawman => {
                    let dense = sp.to_dense(TileOrder::ColMajor, None)?;
                    Ok(MatRepr::Stored(Rc::new(StrawMat {
                        owned: true,
                        mat: dense,
                    })))
                }
                EngineKind::MatNamed | EngineKind::Riot => {
                    let src = self.fresh_source();
                    let nnz = sp.nnz();
                    self.sparse_sources.insert(src.0, sp);
                    Ok(MatRepr::Node(
                        self.graph.sp_mat_source(src, rows, cols, nnz),
                    ))
                }
            }
        } else {
            let mat = DenseMatrix::open(&self.ctx, name)?;
            let (rows, cols) = mat.shape();
            match self.cfg.kind {
                EngineKind::PlainR => {
                    let data = mat.to_rows()?;
                    let id = self.heap.alloc(rows * cols);
                    let chunk = self.chunk();
                    let mut at = 0;
                    while at < rows * cols {
                        let take = chunk.min(rows * cols - at);
                        self.heap.write_chunk(id, at, &data[at..at + take]);
                        at += take;
                    }
                    Ok(MatRepr::Vm { id, rows, cols })
                }
                EngineKind::Strawman => {
                    Ok(MatRepr::Stored(Rc::new(StrawMat { owned: false, mat })))
                }
                EngineKind::MatNamed | EngineKind::Riot => {
                    let src = self.fresh_source();
                    self.mat_sources.insert(src.0, mat);
                    Ok(MatRepr::Node(self.graph.mat_source(src, rows, cols)))
                }
            }
        }
    }

    // ================= vector operations =================

    /// Length of a vector value.
    pub(crate) fn vec_len(&self, v: &VecRepr) -> usize {
        match v {
            VecRepr::Node(id) => self.graph.shape(*id).len(),
            VecRepr::Vm(id) => self.heap.len(*id),
            VecRepr::Table(t) => t.vec.len(),
        }
    }

    /// Elementwise binary op between two vector values (R recycling).
    pub(crate) fn binop(&mut self, op: BinOp, lhs: &VecRepr, rhs: &VecRepr) -> ExecResult<VecRepr> {
        self.governed(|rt| rt.binop_ungoverned(op, lhs, rhs))
    }

    fn binop_ungoverned(&mut self, op: BinOp, lhs: &VecRepr, rhs: &VecRepr) -> ExecResult<VecRepr> {
        match self.cfg.kind {
            EngineKind::MatNamed | EngineKind::Riot => {
                let (VecRepr::Node(l), VecRepr::Node(r)) = (lhs, rhs) else {
                    unreachable!("deferred engines hold nodes");
                };
                Ok(VecRepr::Node(self.graph.zip(op, *l, *r)?))
            }
            EngineKind::PlainR => self.plainr_binop(op, lhs, rhs),
            EngineKind::Strawman => self.strawman_binop(op, lhs, rhs),
        }
    }

    /// Elementwise binary op against a scalar.
    pub(crate) fn binop_scalar(
        &mut self,
        op: BinOp,
        lhs: &VecRepr,
        scalar: f64,
        scalar_on_left: bool,
    ) -> ExecResult<VecRepr> {
        self.governed(|rt| rt.binop_scalar_ungoverned(op, lhs, scalar, scalar_on_left))
    }

    fn binop_scalar_ungoverned(
        &mut self,
        op: BinOp,
        lhs: &VecRepr,
        scalar: f64,
        scalar_on_left: bool,
    ) -> ExecResult<VecRepr> {
        match self.cfg.kind {
            EngineKind::MatNamed | EngineKind::Riot => {
                let VecRepr::Node(l) = lhs else {
                    unreachable!()
                };
                let s = self.graph.scalar(scalar);
                let node = if scalar_on_left {
                    self.graph.zip(op, s, *l)?
                } else {
                    self.graph.zip(op, *l, s)?
                };
                Ok(VecRepr::Node(node))
            }
            EngineKind::PlainR => {
                let scalar_repr = self.scalar_vec(scalar);
                let out = if scalar_on_left {
                    self.plainr_binop(op, &scalar_repr, lhs)
                } else {
                    self.plainr_binop(op, lhs, &scalar_repr)
                };
                self.release(&scalar_repr);
                out
            }
            EngineKind::Strawman => {
                let scalar_repr = self.scalar_vec(scalar);
                if scalar_on_left {
                    self.strawman_binop(op, &scalar_repr, lhs)
                } else {
                    self.strawman_binop(op, lhs, &scalar_repr)
                }
            }
        }
    }

    /// A length-1 vector holding `scalar` (eager engines' broadcast aid).
    fn scalar_vec(&mut self, scalar: f64) -> VecRepr {
        match self.cfg.kind {
            EngineKind::PlainR => {
                let id = self.heap.alloc(1);
                self.heap.write_chunk(id, 0, &[scalar]);
                VecRepr::Vm(id)
            }
            EngineKind::Strawman => {
                let vec =
                    DenseVector::create_wide(&self.ctx, 1, None).expect("scalar table allocation");
                vec.write_range(0, &[scalar]).expect("scalar table write");
                VecRepr::Table(Rc::new(StrawTable { owned: true, vec }))
            }
            _ => unreachable!("deferred engines use Scalar nodes"),
        }
    }

    /// Elementwise unary map.
    pub(crate) fn unop(&mut self, op: UnOp, input: &VecRepr) -> ExecResult<VecRepr> {
        self.governed(|rt| rt.unop_ungoverned(op, input))
    }

    fn unop_ungoverned(&mut self, op: UnOp, input: &VecRepr) -> ExecResult<VecRepr> {
        match self.cfg.kind {
            EngineKind::MatNamed | EngineKind::Riot => {
                let VecRepr::Node(i) = input else {
                    unreachable!()
                };
                Ok(VecRepr::Node(self.graph.map(op, *i)))
            }
            EngineKind::PlainR => {
                let n = self.vec_len(input);
                let VecRepr::Vm(src) = input else {
                    unreachable!()
                };
                let src = *src;
                let dst = self.heap.alloc(n);
                let chunk = self.chunk();
                let mut buf = vec![0.0; chunk];
                let mut at = 0;
                while at < n {
                    self.ctx.governor().checkpoint("plainr.unop.chunk")?;
                    let take = chunk.min(n - at);
                    self.ctx.governor().add_flops(take as u64);
                    self.heap.read_chunk(src, at, &mut buf[..take]);
                    for v in &mut buf[..take] {
                        *v = op.apply(*v);
                    }
                    self.heap.write_chunk(dst, at, &buf[..take]);
                    at += take;
                }
                self.count_ops(n);
                Ok(VecRepr::Vm(dst))
            }
            EngineKind::Strawman => {
                let n = self.vec_len(input);
                let VecRepr::Table(t) = input else {
                    unreachable!()
                };
                let out = DenseVector::create_wide(&self.ctx, n, None)?;
                let chunk = self.chunk();
                let mut buf = vec![0.0; chunk];
                let mut at = 0;
                while at < n {
                    self.ctx.governor().checkpoint("strawman.unop.chunk")?;
                    let take = chunk.min(n - at);
                    self.ctx.governor().add_flops(take as u64);
                    t.vec.read_range(at, &mut buf[..take])?;
                    for v in &mut buf[..take] {
                        *v = op.apply(*v);
                    }
                    out.write_range(at, &buf[..take])?;
                    at += take;
                }
                out.flush()?;
                self.count_ops(n);
                Ok(VecRepr::Table(Rc::new(StrawTable {
                    owned: true,
                    vec: out,
                })))
            }
        }
    }

    fn plainr_binop(&mut self, op: BinOp, lhs: &VecRepr, rhs: &VecRepr) -> ExecResult<VecRepr> {
        let (VecRepr::Vm(l), VecRepr::Vm(r)) = (lhs, rhs) else {
            unreachable!()
        };
        let (l, r) = (*l, *r);
        let (ll, rl) = (self.heap.len(l), self.heap.len(r));
        let n = ll.max(rl);
        let dst = self.heap.alloc(n);
        let chunk = self.chunk();
        let mut lb = vec![0.0; chunk];
        let mut rb = vec![0.0; chunk];
        let mut ob = vec![0.0; chunk];
        let mut at = 0;
        while at < n {
            self.ctx.governor().checkpoint("plainr.binop.chunk")?;
            let take = chunk.min(n - at);
            self.ctx.governor().add_flops(take as u64);
            // Aligned fast path; recycled operands fall back to element
            // reads (R's recycling is rare for large operands).
            if ll == n {
                self.heap.read_chunk(l, at, &mut lb[..take]);
            } else {
                for i in 0..take {
                    lb[i] = self.heap.get(l, (at + i) % ll);
                }
            }
            if rl == n {
                self.heap.read_chunk(r, at, &mut rb[..take]);
            } else {
                for i in 0..take {
                    rb[i] = self.heap.get(r, (at + i) % rl);
                }
            }
            for i in 0..take {
                ob[i] = op.apply(lb[i], rb[i]);
            }
            self.heap.write_chunk(dst, at, &ob[..take]);
            at += take;
        }
        self.count_ops(n);
        Ok(VecRepr::Vm(dst))
    }

    fn strawman_binop(&mut self, op: BinOp, lhs: &VecRepr, rhs: &VecRepr) -> ExecResult<VecRepr> {
        let (VecRepr::Table(lt), VecRepr::Table(rt)) = (lhs, rhs) else {
            unreachable!()
        };
        let (ll, rl) = (lt.vec.len(), rt.vec.len());
        let n = ll.max(rl);
        let out = DenseVector::create_wide(&self.ctx, n, None)?;
        let chunk = self.chunk();
        let mut lb = vec![0.0; chunk];
        let mut rb = vec![0.0; chunk];
        let mut at = 0;
        while at < n {
            self.ctx.governor().checkpoint("strawman.binop.chunk")?;
            let take = chunk.min(n - at);
            self.ctx.governor().add_flops(take as u64);
            if ll == n {
                lt.vec.read_range(at, &mut lb[..take])?;
            } else {
                for i in 0..take {
                    lb[i] = lt.vec.get((at + i) % ll)?;
                }
            }
            if rl == n {
                rt.vec.read_range(at, &mut rb[..take])?;
            } else {
                for i in 0..take {
                    rb[i] = rt.vec.get((at + i) % rl)?;
                }
            }
            for i in 0..take {
                lb[i] = op.apply(lb[i], rb[i]);
            }
            out.write_range(at, &lb[..take])?;
            at += take;
        }
        out.flush()?;
        self.count_ops(n);
        Ok(VecRepr::Table(Rc::new(StrawTable {
            owned: true,
            vec: out,
        })))
    }

    /// Subscript read `data[index]`.
    pub(crate) fn gather(&mut self, data: &VecRepr, index: &VecRepr) -> ExecResult<VecRepr> {
        self.governed(|rt| rt.gather_ungoverned(data, index))
    }

    fn gather_ungoverned(&mut self, data: &VecRepr, index: &VecRepr) -> ExecResult<VecRepr> {
        match self.cfg.kind {
            EngineKind::MatNamed | EngineKind::Riot => {
                let (VecRepr::Node(d), VecRepr::Node(i)) = (data, index) else {
                    unreachable!()
                };
                Ok(VecRepr::Node(self.graph.gather(*d, *i)?))
            }
            EngineKind::PlainR => {
                let (VecRepr::Vm(d), VecRepr::Vm(i)) = (data, index) else {
                    unreachable!()
                };
                let (d, i) = (*d, *i);
                let (dn, k) = (self.heap.len(d), self.heap.len(i));
                let dst = self.heap.alloc(k);
                for t in 0..k {
                    let raw = self.heap.get(i, t) as i64;
                    if raw < 1 || raw as usize > dn {
                        return Err(ExecError::Expr(crate::expr::ExprError::IndexOutOfBounds {
                            index: raw,
                            len: dn,
                        }));
                    }
                    let v = self.heap.get(d, raw as usize - 1);
                    self.heap.set(dst, t, v);
                }
                self.count_ops(k);
                Ok(VecRepr::Vm(dst))
            }
            EngineKind::Strawman => {
                let (VecRepr::Table(dt), VecRepr::Table(it)) = (data, index) else {
                    unreachable!()
                };
                let (dn, k) = (dt.vec.len(), it.vec.len());
                let out = DenseVector::create_wide(&self.ctx, k, None)?;
                for t in 0..k {
                    let raw = it.vec.get(t)? as i64;
                    if raw < 1 || raw as usize > dn {
                        return Err(ExecError::Expr(crate::expr::ExprError::IndexOutOfBounds {
                            index: raw,
                            len: dn,
                        }));
                    }
                    out.set(t, dt.vec.get(raw as usize - 1)?)?;
                }
                self.count_ops(k);
                Ok(VecRepr::Table(Rc::new(StrawTable {
                    owned: true,
                    vec: out,
                })))
            }
        }
    }

    /// Masked functional update `data[mask] <- value`.
    pub(crate) fn mask_assign(
        &mut self,
        data: &VecRepr,
        mask: &VecRepr,
        value: &VecRepr,
    ) -> ExecResult<VecRepr> {
        self.governed(|rt| rt.mask_assign_ungoverned(data, mask, value))
    }

    fn mask_assign_ungoverned(
        &mut self,
        data: &VecRepr,
        mask: &VecRepr,
        value: &VecRepr,
    ) -> ExecResult<VecRepr> {
        match self.cfg.kind {
            EngineKind::MatNamed | EngineKind::Riot => {
                let (VecRepr::Node(d), VecRepr::Node(m), VecRepr::Node(v)) = (data, mask, value)
                else {
                    unreachable!()
                };
                Ok(VecRepr::Node(self.graph.mask_assign(*d, *m, *v)?))
            }
            _ => {
                // Eager: out[i] = mask[i] != 0 ? value.at(i) : data[i].
                let cond = mask.clone();
                let sel = self.ifelse_eager(&cond, value, data)?;
                Ok(sel)
            }
        }
    }

    /// Masked update against a scalar replacement value.
    pub(crate) fn mask_assign_scalar(
        &mut self,
        data: &VecRepr,
        mask: &VecRepr,
        value: f64,
    ) -> ExecResult<VecRepr> {
        self.governed(|rt| rt.mask_assign_scalar_ungoverned(data, mask, value))
    }

    fn mask_assign_scalar_ungoverned(
        &mut self,
        data: &VecRepr,
        mask: &VecRepr,
        value: f64,
    ) -> ExecResult<VecRepr> {
        match self.cfg.kind {
            EngineKind::MatNamed | EngineKind::Riot => {
                let (VecRepr::Node(d), VecRepr::Node(m)) = (data, mask) else {
                    unreachable!()
                };
                let v = self.graph.scalar(value);
                Ok(VecRepr::Node(self.graph.mask_assign(*d, *m, v)?))
            }
            _ => {
                let v = self.scalar_vec(value);
                let out = self.mask_assign(data, mask, &v);
                if let VecRepr::Vm(_) = v {
                    self.release(&v);
                }
                out
            }
        }
    }

    /// Eager elementwise conditional used by the eager engines' updates.
    fn ifelse_eager(&mut self, cond: &VecRepr, yes: &VecRepr, no: &VecRepr) -> ExecResult<VecRepr> {
        let n = self.vec_len(no).max(self.vec_len(cond));
        match self.cfg.kind {
            EngineKind::PlainR => {
                let (VecRepr::Vm(c), VecRepr::Vm(y), VecRepr::Vm(nn)) = (cond, yes, no) else {
                    unreachable!()
                };
                let (c, y, nn) = (*c, *y, *nn);
                let (cl, yl, nl) = (self.heap.len(c), self.heap.len(y), self.heap.len(nn));
                let dst = self.heap.alloc(n);
                for i in 0..n {
                    let cv = self.heap.get(c, i % cl);
                    let v = if cv != 0.0 {
                        self.heap.get(y, i % yl)
                    } else {
                        self.heap.get(nn, i % nl)
                    };
                    self.heap.set(dst, i, v);
                }
                self.count_ops(n);
                Ok(VecRepr::Vm(dst))
            }
            EngineKind::Strawman => {
                let (VecRepr::Table(c), VecRepr::Table(y), VecRepr::Table(nn)) = (cond, yes, no)
                else {
                    unreachable!()
                };
                let (cl, yl, nl) = (c.vec.len(), y.vec.len(), nn.vec.len());
                let out = DenseVector::create_wide(&self.ctx, n, None)?;
                let chunk = self.chunk();
                let mut buf = vec![0.0; chunk];
                let mut at = 0;
                while at < n {
                    let take = chunk.min(n - at);
                    for i in 0..take {
                        let idx = at + i;
                        let cv = c.vec.get(idx % cl)?;
                        buf[i] = if cv != 0.0 {
                            y.vec.get(idx % yl)?
                        } else {
                            nn.vec.get(idx % nl)?
                        };
                    }
                    out.write_range(at, &buf[..take])?;
                    at += take;
                }
                out.flush()?;
                self.count_ops(n);
                Ok(VecRepr::Table(Rc::new(StrawTable {
                    owned: true,
                    vec: out,
                })))
            }
            _ => unreachable!(),
        }
    }

    /// A small in-memory vector value (R's `c(...)`). Deferred engines get
    /// a `Literal` node — the optimizer can then see the values, exactly
    /// like RIOT-DB's optimizer sees the small `S` table of Example 1.
    pub(crate) fn literal(&mut self, values: Vec<f64>) -> ExecResult<VecRepr> {
        match self.cfg.kind {
            EngineKind::MatNamed | EngineKind::Riot => {
                Ok(VecRepr::Node(self.graph.literal(values)))
            }
            EngineKind::PlainR => {
                let id = self.heap.alloc(values.len().max(1));
                if !values.is_empty() {
                    self.heap.write_chunk(id, 0, &values);
                }
                Ok(VecRepr::Vm(id))
            }
            EngineKind::Strawman => {
                let vec = DenseVector::create_wide(&self.ctx, values.len(), None)?;
                if !values.is_empty() {
                    vec.write_range(0, &values)?;
                }
                Ok(VecRepr::Table(Rc::new(StrawTable { owned: true, vec })))
            }
        }
    }

    /// Functional indexed update `data[index] <- value` (value recycled to
    /// the index length).
    pub(crate) fn sub_assign(
        &mut self,
        data: &VecRepr,
        index: &VecRepr,
        value: &VecRepr,
    ) -> ExecResult<VecRepr> {
        self.governed(|rt| rt.sub_assign_ungoverned(data, index, value))
    }

    fn sub_assign_ungoverned(
        &mut self,
        data: &VecRepr,
        index: &VecRepr,
        value: &VecRepr,
    ) -> ExecResult<VecRepr> {
        match self.cfg.kind {
            EngineKind::MatNamed | EngineKind::Riot => {
                let (VecRepr::Node(d), VecRepr::Node(i), VecRepr::Node(v)) = (data, index, value)
                else {
                    unreachable!()
                };
                Ok(VecRepr::Node(self.graph.sub_assign(*d, *i, *v)?))
            }
            EngineKind::PlainR => {
                let (VecRepr::Vm(d), VecRepr::Vm(i), VecRepr::Vm(v)) = (data, index, value) else {
                    unreachable!()
                };
                let (d, i, v) = (*d, *i, *v);
                let n = self.heap.len(d);
                let k = self.heap.len(i);
                let vl = self.heap.len(v);
                // Copy-on-write: R duplicates the vector before updating.
                let dst = self.heap.alloc(n);
                let chunk = self.chunk();
                let mut buf = vec![0.0; chunk];
                let mut at = 0;
                while at < n {
                    let take = chunk.min(n - at);
                    self.heap.read_chunk(d, at, &mut buf[..take]);
                    self.heap.write_chunk(dst, at, &buf[..take]);
                    at += take;
                }
                for t in 0..k {
                    let raw = self.heap.get(i, t) as i64;
                    if raw < 1 || raw as usize > n {
                        return Err(ExecError::Expr(crate::expr::ExprError::IndexOutOfBounds {
                            index: raw,
                            len: n,
                        }));
                    }
                    let val = self.heap.get(v, t % vl);
                    self.heap.set(dst, raw as usize - 1, val);
                }
                self.count_ops(n + k);
                Ok(VecRepr::Vm(dst))
            }
            EngineKind::Strawman => {
                let (VecRepr::Table(dt), VecRepr::Table(it), VecRepr::Table(vt)) =
                    (data, index, value)
                else {
                    unreachable!()
                };
                let n = dt.vec.len();
                let k = it.vec.len();
                let vl = vt.vec.len();
                let out = DenseVector::create_wide(&self.ctx, n, None)?;
                let chunk = self.chunk();
                let mut buf = vec![0.0; chunk];
                let mut at = 0;
                while at < n {
                    let take = chunk.min(n - at);
                    dt.vec.read_range(at, &mut buf[..take])?;
                    out.write_range(at, &buf[..take])?;
                    at += take;
                }
                for t in 0..k {
                    let raw = it.vec.get(t)? as i64;
                    if raw < 1 || raw as usize > n {
                        return Err(ExecError::Expr(crate::expr::ExprError::IndexOutOfBounds {
                            index: raw,
                            len: n,
                        }));
                    }
                    out.set(raw as usize - 1, vt.vec.get(t % vl)?)?;
                }
                out.flush()?;
                self.count_ops(n + k);
                Ok(VecRepr::Table(Rc::new(StrawTable {
                    owned: true,
                    vec: out,
                })))
            }
        }
    }

    /// `sample(n, k)`: k distinct 1-based indices, deterministic per seed.
    pub(crate) fn sample(&mut self, n: usize, k: usize) -> ExecResult<VecRepr> {
        assert!(k <= n, "cannot sample {k} from {n} without replacement");
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
        match self.cfg.kind {
            EngineKind::MatNamed | EngineKind::Riot => Ok(VecRepr::Node(self.graph.literal(out))),
            EngineKind::PlainR => {
                let id = self.heap.alloc(k);
                self.heap.write_chunk(id, 0, &out);
                Ok(VecRepr::Vm(id))
            }
            EngineKind::Strawman => {
                let vec = DenseVector::create_wide(&self.ctx, k, None)?;
                vec.write_range(0, &out)?;
                Ok(VecRepr::Table(Rc::new(StrawTable { owned: true, vec })))
            }
        }
    }

    /// The sequence `start..=end` (R's `start:end`).
    pub(crate) fn range(&mut self, start: i64, end: i64) -> ExecResult<VecRepr> {
        assert!(end >= start, "descending ranges not supported");
        let len = (end - start + 1) as usize;
        match self.cfg.kind {
            EngineKind::MatNamed | EngineKind::Riot => {
                Ok(VecRepr::Node(self.graph.range(start, len)))
            }
            EngineKind::PlainR => {
                let id = self.heap.alloc(len);
                let data: Vec<f64> = (0..len).map(|i| (start + i as i64) as f64).collect();
                self.heap.write_chunk(id, 0, &data);
                Ok(VecRepr::Vm(id))
            }
            EngineKind::Strawman => {
                let vec = DenseVector::create_wide(&self.ctx, len, None)?;
                let data: Vec<f64> = (0..len).map(|i| (start + i as i64) as f64).collect();
                vec.write_range(0, &data)?;
                Ok(VecRepr::Table(Rc::new(StrawTable { owned: true, vec })))
            }
        }
    }

    /// Reduce a vector to a scalar (forces evaluation on all engines, but
    /// deferred engines stream without materializing).
    pub(crate) fn aggregate(&mut self, op: AggOp, v: &VecRepr) -> ExecResult<f64> {
        self.governed(|rt| rt.aggregate_ungoverned(op, v))
    }

    fn aggregate_ungoverned(&mut self, op: AggOp, v: &VecRepr) -> ExecResult<f64> {
        match self.cfg.kind {
            EngineKind::MatNamed | EngineKind::Riot => {
                let VecRepr::Node(id) = v else { unreachable!() };
                let span = self.span_begin("aggregate");
                let mut root = self.graph.agg(op, *id);
                if self.cfg.kind == EngineKind::Riot {
                    let (r, stats) = optimize(&mut self.graph, root, &self.cfg.opt.clone());
                    self.last_opt_stats = stats;
                    root = r;
                    self.record_opt_events(root);
                    self.spill_shared(root)?;
                }
                let detail = self.detail_of(root);
                let Node::Agg { op, input } = *self.graph.node(root) else {
                    // Optimizer folded the aggregate to a scalar.
                    if let Node::Scalar(c) = *self.graph.node(root) {
                        self.span_end(span, detail);
                        return Ok(c);
                    }
                    unreachable!("agg root stays an agg");
                };
                let out = self.aggregate_node(op, input);
                self.span_end(span, detail);
                out
            }
            EngineKind::PlainR => {
                let VecRepr::Vm(id) = v else { unreachable!() };
                let id = *id;
                let n = self.heap.len(id);
                let chunk = self.chunk();
                let mut buf = vec![0.0; chunk];
                let mut acc = op.init();
                let mut at = 0;
                while at < n {
                    let take = chunk.min(n - at);
                    self.heap.read_chunk(id, at, &mut buf[..take]);
                    for &x in &buf[..take] {
                        acc = op.fold(acc, x);
                    }
                    at += take;
                }
                if op == AggOp::Mean && n > 0 {
                    acc /= n as f64;
                }
                self.count_ops(n);
                Ok(acc)
            }
            EngineKind::Strawman => {
                let VecRepr::Table(t) = v else { unreachable!() };
                let n = t.vec.len();
                let chunk = self.chunk();
                let mut buf = vec![0.0; chunk];
                let mut acc = op.init();
                let mut at = 0;
                while at < n {
                    self.ctx.governor().checkpoint("strawman.unop.chunk")?;
                    let take = chunk.min(n - at);
                    self.ctx.governor().add_flops(take as u64);
                    t.vec.read_range(at, &mut buf[..take])?;
                    for &x in &buf[..take] {
                        acc = op.fold(acc, x);
                    }
                    at += take;
                }
                if op == AggOp::Mean && n > 0 {
                    acc /= n as f64;
                }
                self.count_ops(n);
                Ok(acc)
            }
        }
    }

    // ================= forcing =================

    /// Bind `name` (engine-specific). For `MatNamed` this materializes the
    /// node to disk — the defining behaviour of that strategy.
    pub(crate) fn assign(&mut self, v: &VecRepr) -> ExecResult<()> {
        if self.cfg.kind == EngineKind::MatNamed {
            if let VecRepr::Node(id) = v {
                self.force_vector_to_disk(*id)?;
            }
        }
        Ok(())
    }

    /// Materialize node `id` to a stored vector (idempotent).
    pub(crate) fn force_vector_to_disk(&mut self, id: NodeId) -> ExecResult<DenseVector> {
        self.governed(|rt| rt.force_vector_to_disk_ungoverned(id))
    }

    fn force_vector_to_disk_ungoverned(&mut self, id: NodeId) -> ExecResult<DenseVector> {
        if let Some(v) = self.materialized.get(&id) {
            return Ok(v.clone());
        }
        // Sources are already on disk.
        if let Node::VecSource { source, .. } = self.graph.node(id) {
            return Ok(self.vec_sources[&source.0].clone());
        }
        let span = self.span_begin("materialize");
        let detail = self.detail_of(id);
        let len = self.graph.shape(id).len();
        let pipe = self.compile(id, len)?;
        let ctx = Arc::clone(&self.ctx);
        let vec = materialize(pipe, &ctx, None)?;
        vec.flush()?;
        self.materialized.insert(id, vec.clone());
        self.span_end(span, detail);
        Ok(vec)
    }

    /// Fully evaluate a vector value into memory (the `print` forcing
    /// point). Riot optimizes the whole reachable DAG here.
    pub(crate) fn collect(&mut self, v: &VecRepr) -> ExecResult<Vec<f64>> {
        self.governed(|rt| rt.collect_ungoverned(v))
    }

    fn collect_ungoverned(&mut self, v: &VecRepr) -> ExecResult<Vec<f64>> {
        match (&self.cfg.kind, v) {
            (EngineKind::PlainR, VecRepr::Vm(id)) => {
                let id = *id;
                self.count_ops(self.heap.len(id));
                Ok(self.heap.to_vec(id))
            }
            (EngineKind::Strawman, VecRepr::Table(t)) => Ok(t.vec.to_vec()?),
            (EngineKind::MatNamed, VecRepr::Node(id)) => {
                let id = *id;
                if let Some(vec) = self.materialized.get(&id) {
                    return Ok(vec.to_vec()?);
                }
                let span = self.span_begin("collect");
                let detail = self.detail_of(id);
                let len = self.graph.shape(id).len();
                self.count_ops(len);
                if let Some(out) = self.try_parallel_collect(id, len)? {
                    self.span_end(span, detail);
                    return Ok(out);
                }
                let pipe = governed(self.compile(id, len)?, &self.ctx, "pipeline.collect.chunk");
                let out = drain_to_vec(pipe)?;
                self.span_end(span, detail);
                Ok(out)
            }
            (EngineKind::Riot, VecRepr::Node(id)) => {
                let span = self.span_begin("collect");
                let cfg = self.cfg.opt;
                let (root, stats) = optimize(&mut self.graph, *id, &cfg);
                self.last_opt_stats = stats;
                self.record_opt_events(root);
                self.spill_shared(root)?;
                let detail = self.detail_of(root);
                let len = self.graph.shape(root).len();
                self.count_ops(len);
                if let Some(out) = self.try_parallel_collect(root, len)? {
                    self.span_end(span, detail);
                    return Ok(out);
                }
                let pipe = governed(
                    self.compile(root, len)?,
                    &self.ctx,
                    "pipeline.collect.chunk",
                );
                let out = drain_to_vec(pipe)?;
                self.span_end(span, detail);
                Ok(out)
            }
            _ => unreachable!("representation matches engine"),
        }
    }

    /// §5's materialization decision: a deferred-only engine would
    /// re-compute a subexpression once per reference, because the pipeline
    /// executes the DAG as a tree. Before compiling, materialize every
    /// non-leaf vector node referenced more than once whose size makes
    /// recomputation more expensive than one write+read pass. Spills land
    /// in the `materialized` cache, so later forcing points reuse them —
    /// "materialization complements deferred evaluation".
    fn spill_shared(&mut self, root: NodeId) -> ExecResult<()> {
        let counts = self.graph.ref_counts(&[root]);
        let threshold = 4 * self.chunk();
        // reachable() is children-first, so inner shared nodes spill
        // before any parent that consumes them is materialized.
        for id in self.graph.reachable(&[root]) {
            if id == root || self.graph.node(id).is_leaf() || self.materialized.contains_key(&id) {
                continue;
            }
            let shared = counts.get(&id).copied().unwrap_or(0) >= 2;
            let big = matches!(self.graph.shape(id), Shape::Vector(n) if n >= threshold);
            if shared && big {
                self.force_vector_to_disk(id)?;
            }
        }
        Ok(())
    }

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
    fn aggregate_node(&mut self, op: AggOp, input: NodeId) -> ExecResult<f64> {
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
            let mut buf = Vec::new();
            let mut at = 0usize;
            let mut acc = op.init();
            loop {
                let n = pipe.next_into(&mut buf)?;
                if n == 0 {
                    break;
                }
                let mut off = 0usize;
                while off < n {
                    let (s, take) = spans[partials.len()];
                    let span_end = s + take;
                    let step = (span_end - at).min(n - off);
                    for &v in &buf[off..off + step] {
                        acc = op.fold(acc, v);
                    }
                    at += step;
                    off += step;
                    if at == span_end {
                        partials.push(acc);
                        acc = op.init();
                    }
                }
            }
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
            return true; // compiles to a restrictable VecScan
        }
        match self.graph.node(id) {
            Node::VecSource { .. } | Node::Literal(_) | Node::Range { .. } => true,
            Node::Map { input, .. } => self.parallel_safe(*input, out_len),
            Node::Zip { lhs, rhs, .. } => {
                self.parallel_safe(*lhs, out_len) && self.parallel_safe(*rhs, out_len)
            }
            Node::IfElse { cond, yes, no } => {
                self.parallel_safe(*cond, out_len)
                    && self.parallel_safe(*yes, out_len)
                    && self.parallel_safe(*no, out_len)
            }
            Node::MaskAssign { data, mask, value } => {
                self.parallel_safe(*data, out_len)
                    && self.parallel_safe(*mask, out_len)
                    && self.parallel_safe(*value, out_len)
            }
            Node::SubAssign { .. } => true, // forced once, then a VecScan
            _ => false,
        }
    }

    /// Attempt a partitioned parallel drain of node `id` (`len` elements):
    /// compile one pipe per chunk-aligned span, restrict each to its span,
    /// and drain them on `cfg.threads` scoped workers into one output
    /// buffer. Returns `None` (and performs no partial work the sequential
    /// path would not) when the plan is not parallel-safe.
    fn try_parallel_collect(&mut self, id: NodeId, len: usize) -> ExecResult<Option<Vec<f64>>> {
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
    pub(crate) fn compile(&mut self, id: NodeId, out_len: usize) -> ExecResult<Box<dyn Pipe>> {
        let shape = self.graph.shape(id);
        let own_len = shape.len();
        if matches!(shape, Shape::Scalar) {
            let value = self.scalar_value(id)?;
            return Ok(Box::new(ConstScan::new(value, out_len, self.chunk())));
        }
        if own_len != out_len {
            // Recycled operand: materialize the short side in memory.
            debug_assert!(own_len < out_len && out_len % own_len == 0);
            let inner = governed(
                self.compile(id, own_len)?,
                &self.ctx,
                "pipeline.cycle.chunk",
            );
            let data = drain_to_vec(inner)?;
            return Ok(Box::new(CycleScan::new(data, out_len, self.chunk())));
        }
        if let Some(vec) = self.materialized.get(&id) {
            return Ok(Box::new(VecScan::new(vec.clone(), self.chunk())));
        }
        let node = self.graph.node(id).clone();
        Ok(match node {
            Node::VecSource { source, .. } => Box::new(VecScan::new(
                self.vec_sources[&source.0].clone(),
                self.chunk(),
            )),
            Node::Literal(data) => Box::new(LiteralScan::new(data, self.chunk())),
            Node::Range { start, len } => Box::new(RangeScan::new(start, len, self.chunk())),
            Node::Scalar(_) => unreachable!("handled above"),
            Node::Map { op, input } => {
                let input = self.compile(input, out_len)?;
                Box::new(MapPipe::new(op, input, Arc::clone(&self.cpu_ops)))
            }
            Node::Zip { op, lhs, rhs } => {
                let lhs = self.compile(lhs, out_len)?;
                let rhs = self.compile(rhs, out_len)?;
                Box::new(ZipPipe::new(op, lhs, rhs, Arc::clone(&self.cpu_ops)))
            }
            Node::IfElse { cond, yes, no } => {
                let cond = self.compile(cond, out_len)?;
                let yes = self.compile(yes, out_len)?;
                let no = self.compile(no, out_len)?;
                Box::new(IfElsePipe::new(cond, yes, no, Arc::clone(&self.cpu_ops)))
            }
            Node::Gather { data, index } => {
                let idx_len = self.graph.shape(index).len();
                let index = self.compile(index, idx_len)?;
                let probe = self.compile_probe(data)?;
                Box::new(GatherPipe::new(index, probe, Arc::clone(&self.cpu_ops)))
            }
            Node::SubAssign { data, index, value } => {
                let vec = self.force_subassign(id, data, index, value)?;
                Box::new(VecScan::new(vec, self.chunk()))
            }
            Node::MaskAssign { data, mask, value } => {
                // Present when the optimizer is off (MatNamed or ablation):
                // execute as the equivalent conditional.
                let cond = self.compile(mask, out_len)?;
                let yes = self.compile(value, out_len)?;
                let no = self.compile(data, out_len)?;
                Box::new(IfElsePipe::new(cond, yes, no, Arc::clone(&self.cpu_ops)))
            }
            Node::MatMul { .. }
            | Node::Transpose { .. }
            | Node::SpTranspose { .. }
            | Node::MatSource { .. }
            | Node::SpMatSource { .. }
            | Node::Densify { .. }
            | Node::Sparsify { .. }
            | Node::Chol { .. }
            | Node::Solve { .. } => {
                return Err(ExecError::Unsupported(
                    "matrix values cannot stream through vector pipelines; use collect_matrix"
                        .to_string(),
                ))
            }
            Node::Agg { op, input } => {
                let v = self.aggregate_node(op, input)?;
                Box::new(ConstScan::new(v, out_len, self.chunk()))
            }
        })
    }

    /// Evaluate a scalar-shaped node to its value.
    fn scalar_value(&mut self, id: NodeId) -> ExecResult<f64> {
        match self.graph.node(id).clone() {
            Node::Scalar(c) => Ok(c),
            Node::Agg { op, input } => self.aggregate_node(op, input),
            Node::Map { op, input } => {
                let x = self.scalar_value(input)?;
                self.count_ops(1);
                Ok(op.apply(x))
            }
            Node::Zip { op, lhs, rhs } => {
                let a = self.scalar_value(lhs)?;
                let b = self.scalar_value(rhs)?;
                self.count_ops(1);
                Ok(op.apply(a, b))
            }
            Node::IfElse { cond, yes, no } => {
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
        self.governed(|rt| rt.force_subassign_ungoverned(node_id, data, index, value))
    }

    fn force_subassign_ungoverned(
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
        let pipe = self.compile(data, len)?;
        let ctx = Arc::clone(&self.ctx);
        let vec = materialize(pipe, &ctx, None)?;
        let idx_len = self.graph.shape(index).len();
        let idx = drain_to_vec(governed(
            self.compile(index, idx_len)?,
            &self.ctx,
            "pipeline.collect.chunk",
        ))?;
        let vals = drain_to_vec(governed(
            self.compile(value, idx_len)?,
            &self.ctx,
            "pipeline.collect.chunk",
        ))?;
        for (k, &raw) in idx.iter().enumerate() {
            let i = raw as i64;
            if i < 1 || i as usize > vec.len() {
                return Err(ExecError::Expr(crate::expr::ExprError::IndexOutOfBounds {
                    index: i,
                    len: vec.len(),
                }));
            }
            vec.set(i as usize - 1, vals[k])?;
        }
        self.count_ops(len + idx.len());
        self.materialized.insert(node_id, vec.clone());
        Ok(vec)
    }

    // ================= matrices =================

    /// Elementwise conditional `ifelse(cond, yes, no)`.
    pub(crate) fn ifelse(
        &mut self,
        cond: &VecRepr,
        yes: &VecRepr,
        no: &VecRepr,
    ) -> ExecResult<VecRepr> {
        self.governed(|rt| rt.ifelse_ungoverned(cond, yes, no))
    }

    fn ifelse_ungoverned(
        &mut self,
        cond: &VecRepr,
        yes: &VecRepr,
        no: &VecRepr,
    ) -> ExecResult<VecRepr> {
        match self.cfg.kind {
            EngineKind::MatNamed | EngineKind::Riot => {
                let (VecRepr::Node(c), VecRepr::Node(y), VecRepr::Node(n)) = (cond, yes, no) else {
                    unreachable!()
                };
                Ok(VecRepr::Node(self.graph.if_else(*c, *y, *n)?))
            }
            _ => self.ifelse_eager(cond, yes, no),
        }
    }

    /// Matrix shape `(rows, cols)`.
    pub(crate) fn mat_shape(&self, m: &MatRepr) -> (usize, usize) {
        match m {
            MatRepr::Node(id) => match self.graph.shape(*id) {
                Shape::Matrix(r, c) => (r, c),
                _ => unreachable!("matrix nodes have matrix shapes"),
            },
            MatRepr::Vm { rows, cols, .. } => (*rows, *cols),
            MatRepr::Stored(sm) => sm.mat.shape(),
        }
    }

    /// Matrix transpose.
    pub(crate) fn transpose(&mut self, m: &MatRepr) -> ExecResult<MatRepr> {
        self.governed(|rt| rt.transpose_ungoverned(m))
    }

    fn transpose_ungoverned(&mut self, m: &MatRepr) -> ExecResult<MatRepr> {
        match self.cfg.kind {
            EngineKind::MatNamed | EngineKind::Riot => {
                let MatRepr::Node(id) = m else { unreachable!() };
                Ok(MatRepr::Node(self.graph.transpose(*id)?))
            }
            EngineKind::PlainR => {
                let MatRepr::Vm { id, rows, cols } = m else {
                    unreachable!()
                };
                let (id, rows, cols) = (*id, *rows, *cols);
                let t = self.heap.alloc(rows * cols);
                for i in 0..rows {
                    for j in 0..cols {
                        let v = self.heap.get(id, i * cols + j);
                        self.heap.set(t, j * rows + i, v);
                    }
                }
                self.count_ops(rows * cols);
                Ok(MatRepr::Vm {
                    id: t,
                    rows: cols,
                    cols: rows,
                })
            }
            EngineKind::Strawman => {
                let MatRepr::Stored(sm) = m else {
                    unreachable!()
                };
                let t = sm
                    .mat
                    .transpose(MatrixLayout::ColMajor, TileOrder::ColMajor, None)?;
                Ok(MatRepr::Stored(Rc::new(StrawMat {
                    owned: true,
                    mat: t,
                })))
            }
        }
    }

    /// Matrix product.
    pub(crate) fn matmul(&mut self, lhs: &MatRepr, rhs: &MatRepr) -> ExecResult<MatRepr> {
        self.governed(|rt| rt.matmul_ungoverned(lhs, rhs))
    }

    fn matmul_ungoverned(&mut self, lhs: &MatRepr, rhs: &MatRepr) -> ExecResult<MatRepr> {
        match self.cfg.kind {
            EngineKind::MatNamed | EngineKind::Riot => {
                let (MatRepr::Node(l), MatRepr::Node(r)) = (lhs, rhs) else {
                    unreachable!()
                };
                Ok(MatRepr::Node(self.graph.matmul(*l, *r)?))
            }
            EngineKind::PlainR => {
                let (
                    MatRepr::Vm {
                        id: a,
                        rows: n1,
                        cols: n2,
                    },
                    MatRepr::Vm {
                        id: b,
                        rows: rb,
                        cols: n3,
                    },
                ) = (lhs, rhs)
                else {
                    unreachable!()
                };
                assert_eq!(n2, rb, "non-conformable matrices");
                let (a, b) = (*a, *b);
                let (n1, n2, n3) = (*n1, *n2, *n3);
                let t = self.heap.alloc(n1 * n3);
                // R's internal loop (Example 2): j outer, i middle, k inner.
                for j in 0..n3 {
                    self.ctx.governor().checkpoint("plainr.matmul.col")?;
                    for i in 0..n1 {
                        let mut acc = 0.0;
                        for k in 0..n2 {
                            acc += self.heap.get(a, i * n2 + k) * self.heap.get(b, k * n3 + j);
                        }
                        self.heap.set(t, i * n3 + j, acc);
                    }
                    self.ctx.governor().add_flops((n1 * n2) as u64);
                }
                self.count_ops(n1 * n2 * n3);
                Ok(MatRepr::Vm {
                    id: t,
                    rows: n1,
                    cols: n3,
                })
            }
            EngineKind::Strawman => {
                let (MatRepr::Stored(a), MatRepr::Stored(b)) = (lhs, rhs) else {
                    unreachable!()
                };
                let (t, flops) = matmul::matmul_naive(&a.mat, &b.mat, None)?;
                self.count_ops(flops as usize);
                Ok(MatRepr::Stored(Rc::new(StrawMat {
                    owned: true,
                    mat: t,
                })))
            }
        }
    }

    /// Cholesky factorization `chol(a)`: the lower-triangular `L` with
    /// `L · Lᵀ = a`. Deferred engines record a [`Node::Chol`]; the eager
    /// engines factor immediately in their own representation.
    pub(crate) fn mat_chol(&mut self, m: &MatRepr) -> ExecResult<MatRepr> {
        self.governed(|rt| rt.mat_chol_ungoverned(m))
    }

    fn mat_chol_ungoverned(&mut self, m: &MatRepr) -> ExecResult<MatRepr> {
        match self.cfg.kind {
            EngineKind::MatNamed | EngineKind::Riot => {
                let MatRepr::Node(id) = m else { unreachable!() };
                Ok(MatRepr::Node(self.graph.chol(*id)?))
            }
            EngineKind::PlainR => {
                let MatRepr::Vm { id, rows, cols } = m else {
                    unreachable!()
                };
                let (id, rows, cols) = (*id, *rows, *cols);
                if rows != cols || rows == 0 {
                    return Err(ExecError::Expr(ExprError::Expected {
                        what: "non-empty square matrix",
                        got: Shape::Matrix(rows, cols),
                    }));
                }
                self.ctx.governor().checkpoint("plainr.chol")?;
                let mut a = self.heap.to_vec(id);
                dense_chol_inplace(&mut a, rows)?;
                self.count_ops(rows * rows * rows / 3 + rows * rows);
                self.ctx
                    .governor()
                    .add_flops((rows * rows * rows / 3 + rows * rows) as u64);
                let t = self.heap.alloc(rows * cols);
                self.heap.write_chunk(t, 0, &a);
                Ok(MatRepr::Vm { id: t, rows, cols })
            }
            EngineKind::Strawman => {
                let MatRepr::Stored(sm) = m else {
                    unreachable!()
                };
                let (l, flops) = factor::chol_tiled(&sm.mat, self.mem_elems(), None)?;
                self.count_ops(flops as usize);
                Ok(MatRepr::Stored(Rc::new(StrawMat {
                    owned: true,
                    mat: l,
                })))
            }
        }
    }

    /// Linear solve `solve(a, b)` for symmetric positive definite `a` —
    /// always Cholesky-backed; no engine materializes an inverse.
    pub(crate) fn mat_solve(&mut self, a: &MatRepr, b: &MatRepr) -> ExecResult<MatRepr> {
        self.governed(|rt| rt.mat_solve_ungoverned(a, b))
    }

    fn mat_solve_ungoverned(&mut self, a: &MatRepr, b: &MatRepr) -> ExecResult<MatRepr> {
        match self.cfg.kind {
            EngineKind::MatNamed | EngineKind::Riot => {
                let (MatRepr::Node(l), MatRepr::Node(r)) = (a, b) else {
                    unreachable!()
                };
                Ok(MatRepr::Node(self.graph.solve(*l, *r)?))
            }
            EngineKind::PlainR => {
                let (
                    MatRepr::Vm {
                        id: ia,
                        rows: n,
                        cols: nc,
                    },
                    MatRepr::Vm {
                        id: ib,
                        rows: br,
                        cols: m,
                    },
                ) = (a, b)
                else {
                    unreachable!()
                };
                let (ia, ib, n, nc, br, m) = (*ia, *ib, *n, *nc, *br, *m);
                if n != nc || n == 0 {
                    return Err(ExecError::Expr(ExprError::Expected {
                        what: "non-empty square matrix",
                        got: Shape::Matrix(n, nc),
                    }));
                }
                if br != n || m == 0 {
                    return Err(ExecError::Expr(ExprError::MatMulDims {
                        lhs: Shape::Matrix(n, nc),
                        rhs: Shape::Matrix(br, m),
                    }));
                }
                self.ctx.governor().checkpoint("plainr.solve")?;
                let mut l = self.heap.to_vec(ia);
                dense_chol_inplace(&mut l, n)?;
                let mut x = self.heap.to_vec(ib);
                dense_cholesky_substitute(&l, &mut x, n, m);
                self.count_ops(n * n * n / 3 + 2 * n * n * m);
                self.ctx
                    .governor()
                    .add_flops((n * n * n / 3 + 2 * n * n * m) as u64);
                let t = self.heap.alloc(n * m);
                self.heap.write_chunk(t, 0, &x);
                Ok(MatRepr::Vm {
                    id: t,
                    rows: n,
                    cols: m,
                })
            }
            EngineKind::Strawman => {
                let (MatRepr::Stored(sa), MatRepr::Stored(sb)) = (a, b) else {
                    unreachable!()
                };
                let (x, flops) =
                    factor::cholesky_solve(&sa.mat, &sb.mat, self.mem_elems(), 1, None)?;
                self.count_ops(flops as usize);
                Ok(MatRepr::Stored(Rc::new(StrawMat {
                    owned: true,
                    mat: x,
                })))
            }
        }
    }

    /// Fully evaluate a matrix value to row-major data.
    pub(crate) fn collect_matrix(&mut self, m: &MatRepr) -> ExecResult<(usize, usize, Vec<f64>)> {
        self.governed(|rt| rt.collect_matrix_ungoverned(m))
    }

    fn collect_matrix_ungoverned(&mut self, m: &MatRepr) -> ExecResult<(usize, usize, Vec<f64>)> {
        match (&self.cfg.kind, m) {
            (EngineKind::PlainR, MatRepr::Vm { id, rows, cols }) => {
                let data = self.heap.to_vec(*id);
                Ok((*rows, *cols, data))
            }
            (EngineKind::Strawman, MatRepr::Stored(sm)) => {
                let (r, c) = sm.mat.shape();
                Ok((r, c, sm.mat.to_rows()?))
            }
            (_, MatRepr::Node(id)) => {
                let span = self.span_begin("collect_matrix");
                let mut root = *id;
                if self.cfg.kind == EngineKind::Riot {
                    let cfg = self.cfg.opt;
                    let (r, stats) = optimize(&mut self.graph, root, &cfg);
                    self.last_opt_stats = stats;
                    root = r;
                    self.record_opt_events(root);
                }
                let detail = self.detail_of(root);
                let out = match self.force_matrix_value(root)? {
                    MatValue::Dense(mat) => {
                        let (r, c) = mat.shape();
                        (r, c, mat.to_rows()?)
                    }
                    MatValue::Sparse(sp) => {
                        let (r, c) = sp.shape();
                        (r, c, sp.to_rows()?)
                    }
                };
                self.span_end(span, detail);
                Ok(out)
            }
            _ => unreachable!("representation matches engine"),
        }
    }

    /// Materialize a matrix node in whichever physical representation the
    /// plan produces, dispatching `MatMul` to the sparse kernels when an
    /// operand is sparse (the optimizer already densified operands above
    /// the density threshold):
    ///
    /// * sparse x sparse (aligned tiles) -> [`spkernel::spmm`], sparse
    /// * sparse x dense -> [`spkernel::spmdm`], dense accumulator tiles
    /// * dense x sparse -> [`spkernel::dmspm`], dense accumulator strips
    /// * dense x dense -> the configured [`MatMulKernel`]
    ///
    /// and `Transpose`/`SpTranspose` to the native [`spkernel::sptranspose`]
    /// whenever the forced operand is sparse — no combination in the
    /// `{sparse, dense}` product/transpose table densifies implicitly.
    pub(crate) fn force_matrix_value(&mut self, id: NodeId) -> ExecResult<MatValue> {
        self.governed(|rt| rt.force_matrix_value_ungoverned(id))
    }

    fn force_matrix_value_ungoverned(&mut self, id: NodeId) -> ExecResult<MatValue> {
        if let Some(m) = self.mat_materialized.get(&id) {
            return Ok(MatValue::Dense(m.clone()));
        }
        if let Some(s) = self.sparse_materialized.get(&id) {
            return Ok(MatValue::Sparse(s.clone()));
        }
        let out = match self.graph.node(id).clone() {
            Node::MatSource { source, .. } => MatValue::Dense(self.mat_sources[&source.0].clone()),
            Node::SpMatSource { source, .. } => {
                MatValue::Sparse(self.sparse_sources[&source.0].clone())
            }
            Node::Densify { input } => match self.force_matrix_value(input)? {
                MatValue::Sparse(s) => MatValue::Dense(s.to_dense(TileOrder::RowMajor, None)?),
                dense => dense,
            },
            Node::Sparsify { input } => match self.force_matrix_value(input)? {
                MatValue::Dense(d) => MatValue::Sparse(SparseMatrix::from_dense(&d, None)?),
                sparse => sparse,
            },
            Node::MatMul { lhs, rhs } => {
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
            Node::Transpose { input } | Node::SpTranspose { input } => {
                match self.force_matrix_value(input)? {
                    MatValue::Sparse(s) => {
                        let span = self.span_begin("sptranspose");
                        let detail = if span.token.is_active() {
                            let (r, c) = s.shape();
                            format!("{r}x{c} nnz={}", s.nnz())
                        } else {
                            String::new()
                        };
                        let (t, moved) = spkernel::sptranspose(&s, None)?;
                        self.count_ops(moved as usize);
                        self.span_end(span, detail);
                        MatValue::Sparse(t)
                    }
                    MatValue::Dense(d) => {
                        let span = self.span_begin("transpose");
                        let detail = if span.token.is_active() {
                            let (r, c) = d.shape();
                            format!("{r}x{c}")
                        } else {
                            String::new()
                        };
                        let t = d.transpose(MatrixLayout::Square, TileOrder::RowMajor, None)?;
                        self.span_end(span, detail);
                        MatValue::Dense(t)
                    }
                }
            }
            Node::Chol { input } => {
                let a = self.force_dense_value(input)?;
                let span = self.span_begin("chol");
                let detail = if span.token.is_active() {
                    let (r, c) = a.shape();
                    format!("{r}x{c}")
                } else {
                    String::new()
                };
                let threads = self.cfg.threads.max(1);
                let (l, flops) = factor::chol_tiled_parallel(&a, self.mem_elems(), threads, None)?;
                self.count_ops(flops as usize);
                self.span_end(span, detail);
                MatValue::Dense(l)
            }
            Node::Solve { lhs, rhs } => {
                let a = self.force_dense_value(lhs)?;
                let b = self.force_dense_value(rhs)?;
                let span = self.span_begin("solve");
                let detail = if span.token.is_active() {
                    let (r, c) = a.shape();
                    let (_, m) = b.shape();
                    format!("{r}x{c} \\ {r}x{m}")
                } else {
                    String::new()
                };
                let threads = self.cfg.threads.max(1);
                let (x, flops) = factor::cholesky_solve(&a, &b, self.mem_elems(), threads, None)?;
                self.count_ops(flops as usize);
                self.span_end(span, detail);
                MatValue::Dense(x)
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
        if let Node::Transpose { input } = *self.graph.node(id) {
            if let dense @ MatValue::Dense(_) = self.force_matrix_value(input)? {
                return Ok((dense, true));
            }
        }
        Ok((self.force_matrix_value(id)?, false))
    }

    /// Dense x dense under the configured [`MatMulKernel`], operand flags
    /// and all. Fused transposes and Gram products are executor-level plan
    /// decisions, counted and traced next to the optimizer's (`RewriteStats`,
    /// `Rewrite` events): the profile of a fused product has no `transpose`
    /// span, and these are the lines saying why.
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
        let span = self.span_begin("matmul");
        let detail = if span.token.is_active() {
            let op = |o: Operand<'_>| {
                let (r, c) = o.mat.shape();
                if o.trans {
                    format!("t({r}x{c})")
                } else {
                    format!("{r}x{c}")
                }
            };
            format!("{} * {}{}", op(a), op(b), if gram { " [gram]" } else { "" })
        } else {
            String::new()
        };
        let (t, flops) = matmul::multiply(self.cfg.matmul_kernel, a, b, self.mem_elems(), None)?;
        self.count_ops(flops as usize);
        self.span_end(span, detail);
        Ok(t)
    }

    /// Force a node and densify the result: the factorization kernels are
    /// dense-only (a Cholesky factor of a sparse matrix fills in anyway).
    fn force_dense_value(&mut self, id: NodeId) -> ExecResult<DenseMatrix> {
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
        Ok(match (a, b) {
            (MatValue::Sparse(a), MatValue::Sparse(b)) => {
                let (atr, atc) = a.tile_dims();
                if (atr, atc) == b.tile_dims() && atr == atc {
                    let span = self.span_begin("spmm");
                    let detail = if span.token.is_active() {
                        let (ar, ac) = a.shape();
                        let (_, bc) = b.shape();
                        format!("{ar}x{ac} * {ac}x{bc}")
                    } else {
                        String::new()
                    };
                    let (t, flops) = spkernel::spmm_parallel(&a, &b, threads, None)?;
                    self.count_ops(flops as usize);
                    self.span_end(span, detail);
                    MatValue::Sparse(t)
                } else {
                    // Mismatched tilings: fall back to the sparse x dense
                    // kernel on a densified right side.
                    let span = self.span_begin("spmdm");
                    let detail = if span.token.is_active() {
                        let (ar, ac) = a.shape();
                        let (_, bc) = b.shape();
                        format!("{ar}x{ac} * {ac}x{bc}")
                    } else {
                        String::new()
                    };
                    let bd = b.to_dense(TileOrder::RowMajor, None)?;
                    let (t, flops) = spkernel::spmdm_parallel(&a, &bd, threads, None)?;
                    self.count_ops(flops as usize);
                    self.span_end(span, detail);
                    MatValue::Dense(t)
                }
            }
            (MatValue::Sparse(a), MatValue::Dense(b)) => {
                let span = self.span_begin("spmdm");
                let detail = if span.token.is_active() {
                    let (ar, ac) = a.shape();
                    let (_, bc) = b.shape();
                    format!("{ar}x{ac} * {ac}x{bc}")
                } else {
                    String::new()
                };
                let (t, flops) = spkernel::spmdm_parallel(&a, &b, threads, None)?;
                self.count_ops(flops as usize);
                self.span_end(span, detail);
                MatValue::Dense(t)
            }
            (MatValue::Dense(a), MatValue::Sparse(b)) => {
                let span = self.span_begin("dmspm");
                let detail = if span.token.is_active() {
                    let (ar, ac) = a.shape();
                    let (_, bc) = b.shape();
                    format!("{ar}x{ac} * {ac}x{bc}")
                } else {
                    String::new()
                };
                let (t, flops) = spkernel::dmspm_parallel(&a, &b, threads, None)?;
                self.count_ops(flops as usize);
                self.span_end(span, detail);
                MatValue::Dense(t)
            }
            (MatValue::Dense(a), MatValue::Dense(b)) => {
                MatValue::Dense(self.multiply_dense((&a).into(), (&b).into())?)
            }
        })
    }

    /// Non-zero count of a matrix value. For a deferred sparse source this
    /// is the catalog statistic (no I/O); anything else is forced and
    /// counted by streaming its tiles.
    pub(crate) fn mat_nnz(&mut self, m: &MatRepr) -> ExecResult<u64> {
        self.governed(|rt| rt.mat_nnz_ungoverned(m))
    }

    fn mat_nnz_ungoverned(&mut self, m: &MatRepr) -> ExecResult<u64> {
        match m {
            MatRepr::Node(id) => {
                if let Node::SpMatSource { nnz, .. } = self.graph.node(*id) {
                    return Ok(*nnz);
                }
                // Forcing point: optimize first under Riot, exactly like
                // collect_matrix, so nnz() executes the same physical
                // plan (and records the same stats) as a collect would.
                let span = self.span_begin("nnz");
                let mut root = *id;
                if self.cfg.kind == EngineKind::Riot {
                    let cfg = self.cfg.opt;
                    let (r, stats) = optimize(&mut self.graph, root, &cfg);
                    self.last_opt_stats = stats;
                    root = r;
                    self.record_opt_events(root);
                }
                let detail = self.detail_of(root);
                let out = match self.force_matrix_value(root)? {
                    MatValue::Sparse(s) => s.nnz(),
                    MatValue::Dense(d) => {
                        let n = count_dense_nnz(&d)?;
                        self.count_ops(d.rows() * d.cols());
                        n
                    }
                };
                self.span_end(span, detail);
                Ok(out)
            }
            MatRepr::Vm { id, rows, cols } => {
                let n = rows * cols;
                let mut count = 0u64;
                for i in 0..n {
                    if self.heap.get(*id, i) != 0.0 {
                        count += 1;
                    }
                }
                self.count_ops(n);
                Ok(count)
            }
            MatRepr::Stored(sm) => {
                let n = count_dense_nnz(&sm.mat)?;
                self.count_ops(sm.mat.rows() * sm.mat.cols());
                Ok(n)
            }
        }
    }

    /// Convert a matrix value to the sparse representation. Deferred
    /// engines defer the conversion as a `Sparsify` node; eager engines
    /// keep their dense representation (like base R, where sparsity lives
    /// in a library the eager engines do not have).
    pub(crate) fn mat_to_sparse(&mut self, m: &MatRepr) -> ExecResult<MatRepr> {
        self.governed(|rt| rt.mat_to_sparse_ungoverned(m))
    }

    fn mat_to_sparse_ungoverned(&mut self, m: &MatRepr) -> ExecResult<MatRepr> {
        match m {
            MatRepr::Node(id) => Ok(MatRepr::Node(self.graph.sparsify(*id)?)),
            other => {
                self.retain_mat(other);
                Ok(other.clone())
            }
        }
    }

    /// Convert a matrix value to the dense representation (`Densify` node
    /// under deferred engines; identity on the eager engines).
    pub(crate) fn mat_to_dense(&mut self, m: &MatRepr) -> ExecResult<MatRepr> {
        self.governed(|rt| rt.mat_to_dense_ungoverned(m))
    }

    fn mat_to_dense_ungoverned(&mut self, m: &MatRepr) -> ExecResult<MatRepr> {
        match m {
            MatRepr::Node(id) => Ok(MatRepr::Node(self.graph.densify(*id)?)),
            other => {
                self.retain_mat(other);
                Ok(other.clone())
            }
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

    /// Retain an eager matrix.
    pub(crate) fn retain_mat(&mut self, m: &MatRepr) {
        if let MatRepr::Vm { id, .. } = m {
            self.heap.retain(*id);
        }
    }

    /// Release an eager matrix.
    pub(crate) fn release_mat(&mut self, m: &MatRepr) {
        if let MatRepr::Vm { id, .. } = m {
            self.heap.release(*id);
        }
    }
}

/// Count the non-zeros of a stored dense matrix by streaming its tiles
/// (in-bounds cells only; boundary padding is ignored).
/// In-place dense lower Cholesky over a row-major `n x n` buffer: the
/// in-memory engines' reference factorization (zeroes the strict upper
/// triangle). The in-memory path has no tile schedule, so a pivot failure
/// reports panel 0 with the global pivot index.
fn dense_chol_inplace(a: &mut [f64], n: usize) -> ExecResult<()> {
    for j in 0..n {
        let mut d = a[j * n + j];
        for k in 0..j {
            d -= a[j * n + k] * a[j * n + k];
        }
        if !d.is_finite() || d <= 0.0 {
            return Err(ExecError::NotPositiveDefinite { tile: 0, pivot: j });
        }
        let d = d.sqrt();
        a[j * n + j] = d;
        for i in j + 1..n {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] = s / d;
        }
        for i in j + 1..n {
            a[j * n + i] = 0.0;
        }
    }
    Ok(())
}

/// Forward then backward substitution of `L · Lᵀ · X = B` in place over a
/// row-major `n x m` right-hand side.
fn dense_cholesky_substitute(l: &[f64], x: &mut [f64], n: usize, m: usize) {
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
}

fn count_dense_nnz(m: &DenseMatrix) -> ExecResult<u64> {
    let mut count = 0u64;
    m.for_each(|_, _, v| {
        if v != 0.0 {
            count += 1;
        }
    })?;
    Ok(count)
}
