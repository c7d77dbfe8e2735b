//! Query governance: cancellation, deadlines, and per-query resource
//! budgets.
//!
//! A [`QueryGovernor`] is the single abort authority every layer above
//! the device consults: the buffer pool checks it while waiting for a
//! frame, kernels check it once per tile/chunk at the same seams the
//! tracer marks, and the R interpreter checks it between statements.
//! When nothing is governed — no limits attached, no cancel requested —
//! a checkpoint is **one relaxed atomic load** and nothing else, so the
//! governed and ungoverned code paths perform bit-identical counted I/O
//! (the *neutrality* pinned invariant).
//!
//! The governance family of [`StorageError`]s — `Cancelled`,
//! `BudgetExceeded`, `PinTimeout` — are abort signals, not storage
//! faults: the query unwinds through the ordinary `?` error path,
//! RAII pin guards release their frames, spill writers free their
//! extents, and the runtime's abort cleanup drops any half-built
//! outputs (the *leak-free abort* pinned invariant).
//!
//! ## Shape
//!
//! One governor lives in each storage context for the context's whole
//! life. [`QueryGovernor::engage`] attaches [`ResourceLimits`] and flips
//! the fast-path flag; [`QueryGovernor::begin`] / [`QueryGovernor::end`]
//! bracket one query (one forcing point) and reset the per-query
//! baselines the budgets are measured against. [`CancelToken`]s are
//! cheap cloneable handles to the governor's cancel flag — hand one to
//! another thread and `cancel()` aborts the running query at its next
//! checkpoint.
//!
//! The governor also keeps the context's one flop counter: every kernel
//! adds the scalar work it does with [`QueryGovernor::add_flops`],
//! governed or not, and [`QueryGovernor::flops`] is the monotonic total
//! the runtime's `cpu_ops`, every profile and the cost model read. The
//! flop budget is that counter's delta since `begin`, the way the read
//! and write budgets are deltas of [`IoStats`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Result, StorageError};
use crate::stats::IoStats;

/// Sentinel for "no limit" in the governor's atomic budget slots.
const UNLIMITED: u64 = u64::MAX;

/// A cloneable, `Send + Sync` handle that cancels the query a
/// [`QueryGovernor`] is governing. Cancelling is idempotent and sticky
/// until [`QueryGovernor::reset_cancel`].
#[derive(Clone)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Request cancellation: the governed query observes it at its next
    /// checkpoint and unwinds with [`StorageError::Cancelled`].
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Per-query resource budgets. `None` means unlimited; the default is
/// fully unlimited (attaching it still engages checkpoint accounting,
/// which is how the cancel sweep counts checkpoints without perturbing
/// any budget).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Wall-clock budget per query (per forcing point).
    pub deadline: Option<Duration>,
    /// Counted block reads per query.
    pub max_reads: Option<u64>,
    /// Counted block writes per query.
    pub max_writes: Option<u64>,
    /// Scalar operations (flops) per query.
    pub max_flops: Option<u64>,
    /// Frames the query may hold pinned at once (enforced by the pool
    /// at pin acquisition).
    pub max_pinned_frames: Option<u64>,
    /// Blocks of temporary storage (spills, scratch, materialized
    /// outputs) the query may allocate.
    pub max_temp_blocks: Option<u64>,
}

impl ResourceLimits {
    /// Fully unlimited limits (engaging these costs accounting only).
    pub fn none() -> Self {
        Self::default()
    }

    /// Set the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Set the counted-read budget.
    pub fn with_max_reads(mut self, n: u64) -> Self {
        self.max_reads = Some(n);
        self
    }

    /// Set the counted-write budget.
    pub fn with_max_writes(mut self, n: u64) -> Self {
        self.max_writes = Some(n);
        self
    }

    /// Set the flop budget.
    pub fn with_max_flops(mut self, n: u64) -> Self {
        self.max_flops = Some(n);
        self
    }

    /// Set the pinned-frames budget.
    pub fn with_max_pinned_frames(mut self, n: u64) -> Self {
        self.max_pinned_frames = Some(n);
        self
    }

    /// Set the temp-block budget.
    pub fn with_max_temp_blocks(mut self, n: u64) -> Self {
        self.max_temp_blocks = Some(n);
        self
    }
}

fn opt(v: Option<u64>) -> u64 {
    v.unwrap_or(UNLIMITED)
}

/// The per-context abort authority (see the module docs).
pub struct QueryGovernor {
    /// Fast path: `false` means every checkpoint is one relaxed load.
    engaged: AtomicBool,
    /// Sticky cancel flag, shared with every issued [`CancelToken`].
    cancelled: Arc<AtomicBool>,
    /// Whether a `begin`..`end` query bracket is currently open (temp
    /// blocks allocated outside a query — input loading — are not
    /// charged against `max_temp_blocks`).
    in_query: AtomicBool,
    /// Construction instant; all times below are ms offsets from it.
    t0: Instant,
    /// Configured deadline in ms ([`UNLIMITED`] = none).
    deadline_ms: AtomicU64,
    /// Absolute deadline for the current query, ms after `t0`.
    deadline_at_ms: AtomicU64,
    /// `begin` time of the current query, ms after `t0`.
    begin_ms: AtomicU64,
    max_reads: AtomicU64,
    max_writes: AtomicU64,
    max_flops: AtomicU64,
    max_pinned: AtomicU64,
    max_temp: AtomicU64,
    /// Counted-I/O and flop baselines captured at `begin`.
    base_reads: AtomicU64,
    base_writes: AtomicU64,
    base_flops: AtomicU64,
    /// Scalar operations over the context's life (never reset).
    flops: AtomicU64,
    /// Per-query temp-block accumulator.
    temp_blocks: AtomicU64,
    /// Monotonic count of governed checkpoints (never reset by `begin`,
    /// so a cancel sweep can target the k-th checkpoint of a workload
    /// spanning many forcing points).
    checkpoints: AtomicU64,
    /// Test hook: auto-cancel when `checkpoints` reaches this value.
    cancel_at: AtomicU64,
    /// The device counters read/write budgets are measured against.
    io: Arc<IoStats>,
}

impl QueryGovernor {
    /// A fresh, disengaged governor over `io`'s counters.
    pub fn new(io: Arc<IoStats>) -> Self {
        QueryGovernor {
            engaged: AtomicBool::new(false),
            cancelled: Arc::new(AtomicBool::new(false)),
            in_query: AtomicBool::new(false),
            t0: Instant::now(),
            deadline_ms: AtomicU64::new(UNLIMITED),
            deadline_at_ms: AtomicU64::new(UNLIMITED),
            begin_ms: AtomicU64::new(0),
            max_reads: AtomicU64::new(UNLIMITED),
            max_writes: AtomicU64::new(UNLIMITED),
            max_flops: AtomicU64::new(UNLIMITED),
            max_pinned: AtomicU64::new(UNLIMITED),
            max_temp: AtomicU64::new(UNLIMITED),
            base_reads: AtomicU64::new(0),
            base_writes: AtomicU64::new(0),
            base_flops: AtomicU64::new(0),
            flops: AtomicU64::new(0),
            temp_blocks: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            cancel_at: AtomicU64::new(UNLIMITED),
            io,
        }
    }

    /// Attach `limits` and turn checkpoints on. Until this is called
    /// (or after [`QueryGovernor::disengage`]) the governor is inert.
    pub fn engage(&self, limits: ResourceLimits) {
        self.deadline_ms.store(
            limits
                .deadline
                .map(|d| d.as_millis() as u64)
                .unwrap_or(UNLIMITED),
            Ordering::Relaxed,
        );
        self.max_reads
            .store(opt(limits.max_reads), Ordering::Relaxed);
        self.max_writes
            .store(opt(limits.max_writes), Ordering::Relaxed);
        self.max_flops
            .store(opt(limits.max_flops), Ordering::Relaxed);
        self.max_pinned
            .store(opt(limits.max_pinned_frames), Ordering::Relaxed);
        self.max_temp
            .store(opt(limits.max_temp_blocks), Ordering::Relaxed);
        self.engaged.store(true, Ordering::Relaxed);
    }

    /// Detach all limits and return checkpoints to the one-load fast
    /// path. Does not clear a pending cancel. The stored budgets reset
    /// to unlimited so [`QueryGovernor::limits`] reflects the detach.
    pub fn disengage(&self) {
        self.engaged.store(false, Ordering::Relaxed);
        self.deadline_ms.store(UNLIMITED, Ordering::Relaxed);
        self.max_reads.store(UNLIMITED, Ordering::Relaxed);
        self.max_writes.store(UNLIMITED, Ordering::Relaxed);
        self.max_flops.store(UNLIMITED, Ordering::Relaxed);
        self.max_pinned.store(UNLIMITED, Ordering::Relaxed);
        self.max_temp.store(UNLIMITED, Ordering::Relaxed);
    }

    /// Whether checkpoints are live (limits attached via
    /// [`QueryGovernor::engage`]).
    pub fn engaged(&self) -> bool {
        self.engaged.load(Ordering::Relaxed)
    }

    /// The currently attached limits.
    pub fn limits(&self) -> ResourceLimits {
        let get = |a: &AtomicU64| {
            let v = a.load(Ordering::Relaxed);
            (v != UNLIMITED).then_some(v)
        };
        ResourceLimits {
            deadline: get(&self.deadline_ms).map(Duration::from_millis),
            max_reads: get(&self.max_reads),
            max_writes: get(&self.max_writes),
            max_flops: get(&self.max_flops),
            max_pinned_frames: get(&self.max_pinned),
            max_temp_blocks: get(&self.max_temp),
        }
    }

    /// A cancellation handle for the query this governor governs.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            flag: Arc::clone(&self.cancelled),
        }
    }

    /// Request cancellation directly (equivalent to cancelling a token).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation is pending.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Clear a pending cancel so the session can run further queries
    /// (the cancel sweep re-arms between checkpoints this way).
    pub fn reset_cancel(&self) {
        self.cancelled.store(false, Ordering::Relaxed);
        // Disarm the sweep hook too: the checkpoint counter is monotonic,
        // so a stale `cancel_at` would re-cancel at the next checkpoint.
        self.cancel_at.store(UNLIMITED, Ordering::Relaxed);
    }

    /// Open a query bracket: capture the counted-I/O and flop baselines,
    /// zero the temp-block accumulator, and arm the deadline.
    pub fn begin(&self) {
        let snap = self.io.snapshot();
        self.base_reads.store(snap.reads, Ordering::Relaxed);
        self.base_writes.store(snap.writes, Ordering::Relaxed);
        self.base_flops.store(self.flops(), Ordering::Relaxed);
        self.temp_blocks.store(0, Ordering::Relaxed);
        let now = self.t0.elapsed().as_millis() as u64;
        self.begin_ms.store(now, Ordering::Relaxed);
        let dl = self.deadline_ms.load(Ordering::Relaxed);
        self.deadline_at_ms.store(
            if dl == UNLIMITED {
                UNLIMITED
            } else {
                now.saturating_add(dl)
            },
            Ordering::Relaxed,
        );
        self.in_query.store(true, Ordering::Relaxed);
    }

    /// Close the query bracket opened by [`QueryGovernor::begin`], and
    /// test the read, write and flop budgets once more: a checkpoint
    /// precedes the work it admits, so the last chunk, tile or cell of a
    /// pass is charged after the last checkpoint. This is no checkpoint —
    /// it counts nothing, and a cancel arriving now is moot.
    pub fn end(&self) -> Result<()> {
        self.in_query.store(false, Ordering::Relaxed);
        self.deadline_at_ms.store(UNLIMITED, Ordering::Relaxed);
        if !self.engaged.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.check_counted()
    }

    /// The abort seam every layer calls. Ungoverned: one relaxed atomic
    /// load, nothing else — counted I/O, results, and pool statistics
    /// are bit-identical with the checkpoint compiled out entirely.
    /// Governed: count the checkpoint, then test cancellation, the
    /// deadline, and the read/write/flop budgets, in that order.
    #[inline]
    pub fn checkpoint(&self, at: &'static str) -> Result<()> {
        if !self.engaged.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.checkpoint_governed(at)
    }

    /// Whether a `begin`..`end` query bracket is currently open.
    pub fn in_query(&self) -> bool {
        self.in_query.load(Ordering::Relaxed)
    }

    #[cold]
    fn checkpoint_governed(&self, at: &'static str) -> Result<()> {
        // Outside a query bracket (input loading, cache warm-up) only
        // cancellation is observable: the budgets' baselines belong to
        // the previous query, and such checkpoints don't count toward
        // the sweep's checkpoint numbering.
        if !self.in_query.load(Ordering::Relaxed) {
            if self.cancelled.load(Ordering::Relaxed) {
                return Err(StorageError::Cancelled { at });
            }
            return Ok(());
        }
        let n = self.checkpoints.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= self.cancel_at.load(Ordering::Relaxed) {
            self.cancelled.store(true, Ordering::Relaxed);
        }
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(StorageError::Cancelled { at });
        }
        let dl = self.deadline_at_ms.load(Ordering::Relaxed);
        if dl != UNLIMITED {
            // Whole milliseconds on both sides, so trip once the elapsed
            // time *reaches* the limit: a zero deadline must trip even when
            // the query finishes inside the millisecond it began.
            let now = self.t0.elapsed().as_millis() as u64;
            if now >= dl {
                return Err(StorageError::BudgetExceeded {
                    resource: "deadline",
                    used: now - self.begin_ms.load(Ordering::Relaxed),
                    limit: self.deadline_ms.load(Ordering::Relaxed),
                });
            }
        }
        self.check_counted()
    }

    /// The read, write and flop budgets against their deltas since `begin`.
    fn check_counted(&self) -> Result<()> {
        let max_r = self.max_reads.load(Ordering::Relaxed);
        let max_w = self.max_writes.load(Ordering::Relaxed);
        if max_r != UNLIMITED || max_w != UNLIMITED {
            let snap = self.io.snapshot();
            let used_r = snap.reads - self.base_reads.load(Ordering::Relaxed);
            if used_r > max_r {
                return Err(StorageError::BudgetExceeded {
                    resource: "reads",
                    used: used_r,
                    limit: max_r,
                });
            }
            let used_w = snap.writes - self.base_writes.load(Ordering::Relaxed);
            if used_w > max_w {
                return Err(StorageError::BudgetExceeded {
                    resource: "writes",
                    used: used_w,
                    limit: max_w,
                });
            }
        }
        let max_f = self.max_flops.load(Ordering::Relaxed);
        if max_f != UNLIMITED {
            let used = self.flops() - self.base_flops.load(Ordering::Relaxed);
            if used > max_f {
                return Err(StorageError::BudgetExceeded {
                    resource: "flops",
                    used,
                    limit: max_f,
                });
            }
        }
        Ok(())
    }

    /// Count `n` scalar operations: the one call every site that does
    /// scalar work makes, once per unit of work, governed or not. The
    /// flop budget sees it at the next checkpoint, or where the query
    /// bracket closes.
    #[inline]
    pub fn add_flops(&self, n: u64) {
        self.flops.fetch_add(n, Ordering::Relaxed);
    }

    /// Scalar operations counted over the context's life.
    pub fn flops(&self) -> u64 {
        self.flops.load(Ordering::Relaxed)
    }

    /// Charge `blocks` of temporary allocation against the temp budget,
    /// failing *before* the allocation happens when it would exceed the
    /// limit. Allocations outside a query bracket (input loading) are
    /// never charged.
    pub fn charge_temp_blocks(&self, blocks: u64) -> Result<()> {
        if !self.engaged.load(Ordering::Relaxed) || !self.in_query.load(Ordering::Relaxed) {
            return Ok(());
        }
        let used = self.temp_blocks.fetch_add(blocks, Ordering::Relaxed) + blocks;
        let limit = self.max_temp.load(Ordering::Relaxed);
        if used > limit {
            return Err(StorageError::BudgetExceeded {
                resource: "temp_blocks",
                used,
                limit,
            });
        }
        Ok(())
    }

    /// The pinned-frames budget, if one is attached (the buffer pool
    /// enforces it at pin acquisition).
    pub fn max_pinned_frames(&self) -> Option<u64> {
        let v = self.max_pinned.load(Ordering::Relaxed);
        (v != UNLIMITED).then_some(v)
    }

    /// Governed checkpoints observed so far (monotonic; drives the
    /// cancel-at-every-checkpoint sweep).
    pub fn checkpoints_seen(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Arm the sweep hook: cancel automatically when the checkpoint
    /// counter reaches `n` (1-based). `u64::MAX` disarms.
    pub fn set_cancel_at(&self, n: u64) {
        self.cancel_at.store(n, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for QueryGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryGovernor")
            .field("engaged", &self.engaged())
            .field("cancelled", &self.is_cancelled())
            .field("limits", &self.limits())
            .field("checkpoints", &self.checkpoints_seen())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gov() -> QueryGovernor {
        QueryGovernor::new(Arc::new(IoStats::default()))
    }

    #[test]
    fn ungoverned_checkpoint_is_free_and_ok() {
        let g = gov();
        for _ in 0..1000 {
            g.checkpoint("test").unwrap();
        }
        assert_eq!(g.checkpoints_seen(), 0, "ungoverned checkpoints uncounted");
    }

    #[test]
    fn cancel_token_aborts_at_next_checkpoint() {
        let g = gov();
        g.engage(ResourceLimits::none());
        g.begin();
        g.checkpoint("a").unwrap();
        let token = g.cancel_token();
        token.cancel();
        assert!(token.is_cancelled());
        match g.checkpoint("b") {
            Err(StorageError::Cancelled { at: "b" }) => {}
            other => panic!("expected Cancelled at 'b', got {other:?}"),
        }
        g.reset_cancel();
        g.checkpoint("c").unwrap();
    }

    #[test]
    fn flop_budget_trips_at_checkpoint() {
        let g = gov();
        g.engage(ResourceLimits::none().with_max_flops(100));
        g.begin();
        g.add_flops(60);
        g.checkpoint("x").unwrap();
        g.add_flops(60);
        match g.checkpoint("x") {
            Err(StorageError::BudgetExceeded {
                resource: "flops",
                used: 120,
                limit: 100,
            }) => {}
            other => panic!("expected flops budget, got {other:?}"),
        }
    }

    #[test]
    fn flops_count_always_and_the_budget_is_a_delta_checked_at_end() {
        let g = gov();
        g.add_flops(500); // disengaged work still counts
        assert_eq!(g.flops(), 500);
        g.engage(ResourceLimits::none().with_max_flops(100));
        g.begin();
        g.checkpoint("x").unwrap();
        g.add_flops(100); // the pass's last charge: no checkpoint after it
        g.end().unwrap();
        g.begin();
        g.checkpoint("x").unwrap();
        g.add_flops(101);
        let seen = g.checkpoints_seen();
        assert!(matches!(
            g.end(),
            Err(StorageError::BudgetExceeded {
                resource: "flops",
                used: 101,
                limit: 100,
            })
        ));
        assert_eq!(g.checkpoints_seen(), seen, "closing is no checkpoint");
        assert_eq!(g.flops(), 701);
    }

    #[test]
    fn temp_budget_charges_only_inside_queries() {
        let g = gov();
        g.engage(ResourceLimits::none().with_max_temp_blocks(4));
        g.charge_temp_blocks(100).unwrap(); // outside begin/end: loading
        g.begin();
        g.charge_temp_blocks(3).unwrap();
        assert!(matches!(
            g.charge_temp_blocks(3),
            Err(StorageError::BudgetExceeded {
                resource: "temp_blocks",
                used: 6,
                limit: 4,
            })
        ));
        g.end().unwrap();
        g.begin();
        g.charge_temp_blocks(4).unwrap(); // fresh query, fresh budget
        g.end().unwrap();
    }

    #[test]
    fn deadline_trips_once_elapsed() {
        let g = gov();
        g.engage(ResourceLimits::none().with_deadline(Duration::from_millis(0)));
        g.begin();
        std::thread::sleep(Duration::from_millis(5));
        match g.checkpoint("slow") {
            Err(StorageError::BudgetExceeded {
                resource: "deadline",
                ..
            }) => {}
            other => panic!("expected deadline, got {other:?}"),
        }
    }

    #[test]
    fn cancel_at_hook_fires_on_the_nth_checkpoint() {
        let g = gov();
        g.engage(ResourceLimits::none());
        g.begin();
        g.set_cancel_at(3);
        g.checkpoint("a").unwrap();
        g.checkpoint("b").unwrap();
        assert!(matches!(
            g.checkpoint("c"),
            Err(StorageError::Cancelled { at: "c" })
        ));
        assert_eq!(g.checkpoints_seen(), 3);
    }

    #[test]
    fn limits_round_trip() {
        let g = gov();
        let limits = ResourceLimits::none()
            .with_deadline(Duration::from_millis(500))
            .with_max_reads(10)
            .with_max_writes(20)
            .with_max_flops(30)
            .with_max_pinned_frames(2)
            .with_max_temp_blocks(5);
        g.engage(limits);
        assert_eq!(g.limits(), limits);
        assert_eq!(g.max_pinned_frames(), Some(2));
        g.disengage();
        assert!(!g.engaged());
    }
}
