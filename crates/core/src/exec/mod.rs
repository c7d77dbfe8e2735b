//! Out-of-core execution: chunk pipelines and matrix-multiplication
//! kernels.
//!
//! RIOT-DB leans on the database's iterator-based execution model to
//! pipeline plan operators and avoid materializing intermediate results
//! (§4.1). This module is the native equivalent: a [`Tape`] over
//! pull-based [`Pipe`] leaves produces results one chunk (block's worth)
//! at a time, so a whole elementwise expression — Line (1) of Example 1
//! with its twelve intermediates — runs in a single pass over its inputs
//! with O(chunk) memory.

pub mod factor;
mod gemm;
pub mod matmul;
pub mod pipeline;
pub mod sparse;

pub use factor::{chol_tiled, chol_tiled_parallel, cholesky_solve, tri_solve_parallel};
pub use matmul::{
    is_gram, matmul_bnlj, matmul_bnlj_parallel, matmul_naive, matmul_tiled, matmul_tiled_parallel,
    multiply, multiply_chain, prefetch_rect, read_rect, write_rect, MatMulKernel, Operand,
};
pub use pipeline::{
    drain_partitioned, drain_to_vec, fold_partitioned, governed, materialize, Arg, GatherPipe,
    GovernedPipe, Pipe, Scan, Source, Tape, TapeBuilder,
};
pub use sparse::{dmspm, dmv, spmdm, spmm, spmm_fill, spmm_plan, spmv, sptranspose, SpmmPlan};

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::expr::ExprError;
use riot_storage::StorageError;

/// Unified execution error.
#[derive(Debug)]
pub enum ExecError {
    /// Storage-layer failure.
    Storage(StorageError),
    /// Expression-level failure (shape or subscript).
    Expr(ExprError),
    /// Cholesky pivot failure: the input to `chol`/`solve` was not
    /// positive definite. `tile` is the panel index of the failing
    /// diagonal step; `pivot` the global row/column of the bad pivot.
    NotPositiveDefinite { tile: usize, pivot: usize },
    /// Feature intentionally outside the reproduction's scope.
    Unsupported(String),
    /// The query's cancel token fired; `at` names the governance
    /// checkpoint that observed it (see `riot_storage::QueryGovernor`).
    Cancelled {
        /// Checkpoint label where cancellation was observed.
        at: &'static str,
    },
    /// A `riot_storage::ResourceLimits` budget was exceeded.
    BudgetExceeded {
        /// Which budget tripped (`"reads"`, `"writes"`, `"flops"`,
        /// `"deadline"`, `"pinned_frames"`, `"temp_blocks"`).
        resource: &'static str,
        /// Usage observed when the budget tripped.
        used: u64,
        /// The configured limit.
        limit: u64,
    },
}

impl ExecError {
    /// `true` for governance aborts — cancellation, budget exhaustion,
    /// or a pin-wait timeout. The runtime reacts to these by releasing
    /// everything the query allocated (the leak-free-abort invariant);
    /// other errors report a fault in the query or the device.
    pub fn is_governance_abort(&self) -> bool {
        match self {
            ExecError::Cancelled { .. } | ExecError::BudgetExceeded { .. } => true,
            ExecError::Storage(e) => e.is_governance(),
            _ => false,
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "storage: {e}"),
            ExecError::Expr(e) => write!(f, "expression: {e}"),
            ExecError::NotPositiveDefinite { tile, pivot } => write!(
                f,
                "matrix is not positive definite: leading minor of order {} \
                 (diagonal panel {tile}) has a non-positive pivot",
                pivot + 1
            ),
            ExecError::Unsupported(what) => write!(f, "unsupported: {what}"),
            ExecError::Cancelled { at } => write!(f, "query cancelled at checkpoint '{at}'"),
            ExecError::BudgetExceeded {
                resource,
                used,
                limit,
            } => write!(
                f,
                "resource budget exceeded: {resource} used {used} > limit {limit}"
            ),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Storage(e) => Some(e),
            ExecError::Expr(e) => Some(e),
            ExecError::NotPositiveDefinite { .. } => None,
            ExecError::Unsupported(_) => None,
            ExecError::Cancelled { .. } => None,
            ExecError::BudgetExceeded { .. } => None,
        }
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        // Surface the governance family as first-class exec errors, so
        // `?` through any kernel produces the typed abort the session
        // reports (`PinTimeout` stays a storage error: it is a property
        // of the pool, not of this query's limits).
        match e {
            StorageError::Cancelled { at } => ExecError::Cancelled { at },
            StorageError::BudgetExceeded {
                resource,
                used,
                limit,
            } => ExecError::BudgetExceeded {
                resource,
                used,
                limit,
            },
            e => ExecError::Storage(e),
        }
    }
}

impl From<ExprError> for ExecError {
    fn from(e: ExprError) -> Self {
        ExecError::Expr(e)
    }
}

/// Result alias for execution.
pub type ExecResult<T> = std::result::Result<T, ExecError>;

/// Distribute `items` over `threads` scoped workers pulling from an atomic
/// work queue, each with its own scratch from `make_scratch`; `work`
/// returns a flop count and the total is summed. With `threads <= 1` the
/// items run inline in order (no spawn), keeping sequential kernels'
/// I/O order deterministic. After the first failure remaining items are
/// abandoned and a failing worker's error is returned.
pub(crate) fn run_parallel<I: Sync, S: Send>(
    threads: usize,
    items: &[I],
    make_scratch: impl Fn() -> S + Sync,
    work: impl Fn(&I, &mut S) -> ExecResult<u64> + Sync,
) -> ExecResult<u64> {
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let worker = || -> ExecResult<u64> {
        let mut scratch = make_scratch(); // per worker, allocated once
        let mut flops = 0u64;
        while !failed.load(Ordering::Relaxed) {
            let Some(item) = items.get(next.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            flops += work(item, &mut scratch).inspect_err(|_| {
                failed.store(true, Ordering::Relaxed);
            })?;
        }
        Ok(flops)
    };
    if threads <= 1 {
        return worker();
    }
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("exec worker panicked"))
            .sum()
    })
}
