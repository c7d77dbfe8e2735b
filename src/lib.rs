//! # riot — RIOT: I/O-Efficient Numerical Computing without SQL
//!
//! A full reproduction of the CIDR 2009 paper by Zhang, Herodotou, and
//! Yang, as a Rust workspace:
//!
//! * [`storage`] ([`riot_storage`]) — block devices, buffer pool,
//!   replacement policies, I/O accounting (the DTrace stand-in);
//! * [`vm`] ([`riot_vm`]) — a demand-paging heap simulating R's
//!   virtual-memory thrashing;
//! * [`array`](mod@array) ([`riot_array`]) — tiled out-of-core vectors and matrices
//!   with row/column/square layouts and row/column/Z-order/Hilbert tile
//!   linearization;
//! * [`core`] ([`riot_core`]) — the paper's contribution: a deferred
//!   expression algebra, database-style optimizer (subscript pushdown,
//!   `MaskAssign -> IfElse`, constant folding, matrix-chain DP), a
//!   pipelined executor, out-of-core matmul kernels, the analytic I/O
//!   cost model of Figure 3, and the four evaluation strategies of
//!   Figure 1 behind one R-like [`Session`] API;
//! * [`sparse`] ([`riot_sparse`]) — out-of-core block-compressed sparse
//!   matrices (CSR-within-tile pages over the same buffer pool) with a
//!   native transpose, the closed kernel family
//!   SpMV/SpMM/sparse-x-dense/dense-x-sparse in
//!   [`riot_core::exec::sparse`], and an optimizer that picks sparse or
//!   dense kernels from the catalog's nnz statistic;
//! * [`rlang`] ([`riot_rlang`]) — an interpreter for an R subset: the
//!   same script text runs unmodified under every engine (including the
//!   `sparse(i, j, v, nrow, ncol)`, `nnz`, `as.sparse`, `as.dense`,
//!   `explain`, and `riot.profile` builtins);
//! * [`trace`] ([`riot_trace`]) — zero-dependency structured tracing:
//!   spans and typed events in a lock-free ring, surfaced per query as
//!   [`Session::profile`] / `explain` with EXPLAIN-tree, flat-metrics,
//!   and `chrome://tracing` renderers.
//!
//! ## Quickstart
//!
//! ```
//! use riot::{EngineConfig, EngineKind, Session};
//!
//! // The paper's Example 1, under full RIOT.
//! let s = Session::with_engine(EngineKind::Riot);
//! let n = 10_000;
//! let x = s.vector_from_fn(n, |i| (i as f64).sin()).unwrap();
//! let y = s.vector_from_fn(n, |i| (i as f64).cos()).unwrap();
//! let d = ((&x - 0.0).square() + (&y - 0.0).square()).sqrt()
//!     + ((&x - 3.0).square() + (&y - 4.0).square()).sqrt();
//! let s_idx = s.sample(n, 100).unwrap();
//! let z = d.index(&s_idx);
//! assert_eq!(z.collect().unwrap().len(), 100);
//! // Thanks to pushdown, only ~100 elements of x and y were ever read.
//! ```

pub use riot_array as array;
pub use riot_core as core;
pub use riot_rlang as rlang;
pub use riot_sparse as sparse;
pub use riot_storage as storage;
pub use riot_trace as trace;
pub use riot_vm as vm;

pub use riot_core::{
    CancelToken, CostParams, EngineConfig, EngineKind, MatMulStrategy, OptConfig, QueryProfile,
    RMat, RVec, ResourceLimits, Session,
};
pub use riot_rlang::Interpreter;
pub use riot_storage::{DiskModel, IoSnapshot, PoolStats};
