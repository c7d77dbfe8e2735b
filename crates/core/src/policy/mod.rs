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
//!
//! Four engines are two **families**, and a value's representation says
//! which one it belongs to: a DAG node is deferred, anything else is
//! stored. Each operator in `ops` dispatches on that once.
//!
//! * **Eager** (`PlainR`, `Strawman`) — `eager`: every vector operator is
//!   written once over a store (`alloc / get / set / read_chunk /
//!   write_chunk / seal`) with two implementations, the paging heap and
//!   the `(I,V)` table. The store is chosen in `Runtime::alloc`; the only
//!   other place the two engines part is the checkpoint label. Matrices
//!   stay apart on purpose: R's j-i-k heap multiply and in-heap Cholesky
//!   against `matmul_naive` and the tiled factorization over stored tiles.
//! * **Deferred** (`MatNamed`, `Riot`) — `deferred`: operators only build
//!   DAG nodes, and the engines differ at two policy points —
//!   `Runtime::optimized` (Riot optimizes the DAG at every forcing
//!   point) and `Runtime::assign` (MatNamed materializes every named
//!   object). An aggregate is deferred like any operator — a
//!   scalar-shaped node, pending until its value is observed, then run in
//!   one pass with every other pending aggregate over the same storage.
//!   `executor` is the half that runs a planned DAG: pipelines,
//!   aggregation trees, matrix kernels.
//!
//! `Runtime::deferred` is the family test for operators that have no
//! operand to look at (loads, literals, `sample`, ranges).

mod deferred;
mod eager;
mod executor;
mod ops;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use riot_array::{DenseMatrix, DenseVector, StorageCtx};
use riot_sparse::SparseMatrix;
use riot_storage::{DiskModel, IoSnapshot, ObjectId, PoolConfig, PoolStats, ReplacerKind};
use riot_trace::Metrics;
use riot_vm::{PagedHeap, VmConfig, VmId};

use crate::exec::{ExecResult, MatMulKernel};
use crate::expr::{NodeId, SourceRef};
use crate::graph::ExprGraph;
use crate::opt::{OptConfig, RewriteStats};

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
    Vm(HeapMat),
    /// Strawman: a stored matrix.
    Stored(Rc<StrawMat>),
}

/// A Plain R matrix: `rows x cols` elements, row-major, in one heap
/// object.
#[derive(Clone, Copy)]
pub(crate) struct HeapMat {
    id: VmId,
    rows: usize,
    cols: usize,
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

impl MatValue {
    fn shape(&self) -> (usize, usize) {
        match self {
            MatValue::Dense(d) => d.shape(),
            MatValue::Sparse(s) => s.shape(),
        }
    }

    /// The value as `(rows, cols, row-major data)`.
    fn to_rows(&self) -> ExecResult<(usize, usize, Vec<f64>)> {
        let (r, c) = self.shape();
        let data = match self {
            MatValue::Dense(d) => d.to_rows()?,
            MatValue::Sparse(s) => s.to_rows()?,
        };
        Ok((r, c, data))
    }
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

/// Counter readings at one instant: what a span, or a profiled region,
/// subtracts from (see [`Runtime::metrics_since`]).
#[derive(Clone, Copy)]
pub(crate) struct Counters {
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
    /// objects; forced `SubAssign`s and computed gather operands).
    pub(crate) materialized: HashMap<NodeId, DenseVector>,
    pub(crate) mat_materialized: HashMap<NodeId, DenseMatrix>,
    pub(crate) sparse_materialized: HashMap<NodeId, SparseMatrix>,
    /// Aggregates built and not yet observed, oldest first: what one
    /// observation can run in one pass. Nothing here snapshots its
    /// operands, and
    /// nothing needs to: no stored object is mutated in place in the
    /// deferred family (`force_subassign` copies, a named value
    /// materializes into a fresh object), so an aggregate that runs late
    /// reads what it would have read when it was built.
    pub(crate) pending: BTreeMap<NodeId, deferred::Pending>,
    pub(crate) cpu_ops: Arc<AtomicU64>,
    pub(crate) last_opt_stats: RewriteStats,
    rng: StdRng,
}

/// A span detail, cut to a line's length (on a character boundary).
fn clipped(mut detail: String) -> String {
    if detail.len() > 120 {
        let cut = (0..=117).rev().find(|&at| detail.is_char_boundary(at));
        detail.truncate(cut.unwrap_or(0));
        detail.push_str("...");
    }
    detail
}

/// `true` when the environment variable `name` is set to anything but
/// `0` or the empty string.
fn env_flag(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| v != "0" && !v.is_empty())
}

impl Runtime {
    /// Build a runtime for `cfg`.
    pub fn new(cfg: EngineConfig) -> Self {
        let ctx = StorageCtx::new_mem_opts(
            cfg.block_size,
            PoolConfig {
                frames: cfg.mem_blocks,
                replacer: cfg.replacer,
                prefetch_depth: cfg.prefetch_depth,
                ..PoolConfig::default()
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
        if env_flag("RIOT_TRACE") {
            ctx.tracer().enable();
        }
        // `RIOT_GOVERN=1` engages the governor with empty limits — full
        // checkpoint accounting, nothing to trip — for the whole runtime
        // (the CI governance leg runs the entire suite this way, proving
        // the engaged path never perturbs counted I/O or results).
        if env_flag("RIOT_GOVERN") {
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
            pending: BTreeMap::new(),
            cpu_ops: Arc::new(AtomicU64::new(0)),
            last_opt_stats: RewriteStats::default(),
            rng: StdRng::seed_from_u64(cfg.seed),
        }
    }

    /// The family test for operators without an operand to look at: do
    /// values of this engine live in the DAG (`MatNamed`, `Riot`) or in a
    /// store (`PlainR`, `Strawman`)?
    fn deferred(&self) -> bool {
        matches!(self.cfg.kind, EngineKind::MatNamed | EngineKind::Riot)
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
        self.ctx.io_snapshot() + self.heap.io_stats().snapshot()
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

    fn chunk(&self) -> usize {
        self.cfg.chunk_elems
    }

    fn mem_elems(&self) -> usize {
        self.cfg.mem_blocks * (self.cfg.block_size / 8)
    }

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

    /// The runtime's storage context (pool, catalog, and governor).
    pub fn storage_ctx(&self) -> Arc<StorageCtx> {
        Arc::clone(&self.ctx)
    }

    /// Read every counter a span or profile attributes.
    pub(crate) fn counters(&self) -> Counters {
        Counters {
            io: self.io_snapshot(),
            ops: self.cpu_ops(),
            pool: self.pool_stats(),
        }
    }

    /// Counter deltas since `base`, as span metrics, plus the full
    /// pool-counter delta the metrics summarize.
    pub(crate) fn metrics_since(&self, base: &Counters) -> (Metrics, PoolStats) {
        let io = self.io_snapshot() - base.io;
        let pool = self.pool_stats().delta(&base.pool);
        let metrics = Metrics {
            reads: io.reads,
            writes: io.writes,
            seq_reads: io.seq_reads,
            seq_writes: io.seq_writes,
            bytes_read: io.bytes_read,
            bytes_written: io.bytes_written,
            flops: self.cpu_ops() - base.ops,
            threads: self.cfg.threads.max(1) as u64,
            pool_hits: pool.hits,
            pool_misses: pool.misses,
        };
        (metrics, pool)
    }

    /// Run `body` inside a measured span named `name`: the span closes —
    /// also when `body` fails — with the counter deltas since it opened
    /// and `detail` (evaluated after `body`, so it may describe what
    /// `body` decided). While tracing is disabled this is a plain call: no
    /// snapshots taken, `detail` never evaluated.
    fn span<T>(
        &mut self,
        name: &'static str,
        detail: impl FnOnce(&Self) -> String,
        body: impl FnOnce(&mut Self) -> ExecResult<T>,
    ) -> ExecResult<T> {
        let token = self.ctx.tracer().begin_span(name);
        if !token.is_active() {
            return body(self);
        }
        let base = self.counters();
        let out = body(self);
        let (metrics, _) = self.metrics_since(&base);
        self.ctx.tracer().end_span(token, detail(self), metrics);
        out
    }

    /// Span detail: the node's rendered expression, truncated.
    fn detail_of(&self, id: NodeId) -> String {
        clipped(self.graph.render(id))
    }

    /// Run `f` as one governed query — the bracket every
    /// [`crate::session::Session`] operation enters through. With the
    /// governor disengaged (or when already inside a governed bracket)
    /// this is a direct call. Engaged, it opens the governor's budget
    /// bracket, snapshots the set of live catalog objects, and — if `f`
    /// unwinds with a governance abort (cancel, budget, pin timeout) —
    /// releases everything the query allocated: queued prefetch windows
    /// are dropped, cache entries backed by query-created objects are
    /// purged, and the objects themselves are freed, restoring the catalog
    /// to its pre-query state (the *leak-free abort* pinned invariant).
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
    fn abort_cleanup(&mut self, baseline: &[ObjectId]) {
        // Stop queued prefetch windows first: nothing new should load on
        // behalf of a dead query.
        self.ctx.pool().discard_prefetch_queue();
        let base: HashSet<ObjectId> = baseline.iter().copied().collect();
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
}
