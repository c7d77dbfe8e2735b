//! Transient-error retry: a composable [`BlockDevice`] wrapper.
//!
//! Remote and commodity backends (ROADMAP direction 2) routinely return
//! *transient* failures — interrupted syscalls, timeouts, dropped
//! connections — that succeed on a re-issue. Without this layer every such
//! blip aborts the numerical kernel that happened to trigger the I/O.
//! [`RetryDevice`] re-issues failed reads and writes under a bounded
//! exponential backoff, classified by [`crate::StorageError::class`]: transient
//! errors retry, permanent errors (bounds, corruption, real device death)
//! surface immediately.
//!
//! The wrapper is *counted-I/O neutral*: it exposes the inner device's
//! [`IoStats`] unchanged, and the inner device only records successful
//! transfers, so with zero faults a pool over `RetryDevice<D>` is
//! bit-for-bit indistinguishable from a pool over `D`. Retry traffic is
//! accounted separately on [`RetryStats`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use riot_trace::{EventKind, Tracer, NO_BLOCK};

use crate::device::{BlockDevice, BlockId};
use crate::error::Result;
use crate::stats::IoStats;

/// Bounded exponential backoff: when and how often to re-issue.
///
/// Retry `k` (1-based) sleeps `base_delay * multiplier^(k-1)` first; the
/// operation gives up once `max_attempts` total attempts were made or the
/// next sleep would push it past `deadline` from the first attempt —
/// whichever comes first. `max_attempts == 1` disables retry entirely.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts including the first (must be ≥ 1).
    pub max_attempts: u32,
    /// Sleep before the first retry.
    pub base_delay: Duration,
    /// Backoff growth factor per retry (≥ 1.0).
    pub multiplier: f64,
    /// Per-operation wall-clock budget measured from the first attempt.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            multiplier: 2.0,
            deadline: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — useful to make the wrapper inert.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff sleep before retry `k` (1-based).
    fn delay(&self, k: u32) -> Duration {
        let factor = self.multiplier.powi(k as i32 - 1);
        self.base_delay.mul_f64(factor.max(1.0))
    }
}

/// Counters for the retry layer's own activity, separate from counted I/O.
#[derive(Debug, Default)]
pub struct RetryStats {
    retried_reads: AtomicU64,
    retried_writes: AtomicU64,
    recovered: AtomicU64,
    gave_up: AtomicU64,
}

impl RetryStats {
    /// Read re-issues (each retry counts once; first attempts don't).
    pub fn retried_reads(&self) -> u64 {
        self.retried_reads.load(Ordering::Relaxed)
    }

    /// Write re-issues.
    pub fn retried_writes(&self) -> u64 {
        self.retried_writes.load(Ordering::Relaxed)
    }

    /// Operations that failed at least once and then succeeded.
    pub fn recovered(&self) -> u64 {
        self.recovered.load(Ordering::Relaxed)
    }

    /// Operations whose transient retries were exhausted (by attempt count
    /// or deadline). Permanent errors surface immediately and are *not*
    /// counted here.
    pub fn gave_up(&self) -> u64 {
        self.gave_up.load(Ordering::Relaxed)
    }
}

/// A [`BlockDevice`] wrapper that retries transient failures with backoff.
///
/// Stacks under the buffer pool (`BufferPool::new(Box::new(RetryDevice::
/// new(inner, policy)), ..)`), so the pool's demand-load, eviction
/// write-back, flush, and background-prefetch paths all ride the retry
/// logic without knowing it exists.
pub struct RetryDevice<D: BlockDevice> {
    inner: D,
    policy: RetryPolicy,
    stats: Arc<RetryStats>,
    tracer: Arc<Tracer>,
}

impl<D: BlockDevice> RetryDevice<D> {
    /// Wrap `inner` with the given policy.
    pub fn new(inner: D, policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "max_attempts must be >= 1");
        assert!(policy.multiplier >= 1.0, "multiplier must be >= 1.0");
        RetryDevice {
            inner,
            policy,
            stats: Arc::new(RetryStats::default()),
            tracer: Arc::new(Tracer::new()),
        }
    }

    /// Record retry activity into `tracer` as typed events
    /// ([`EventKind::RetryRead`] / [`EventKind::RetryWrite`] /
    /// [`EventKind::RetryRecovered`] / [`EventKind::RetryGaveUp`]). Pass
    /// the tracer the buffer pool above will share so retries land on the
    /// same timeline as the pins that triggered them.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// The retry-layer counters (shareable observer handle).
    pub fn retry_stats(&self) -> Arc<RetryStats> {
        Arc::clone(&self.stats)
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Run `op` under the retry policy, bumping `retried` per re-issue.
    /// `block` is [`NO_BLOCK`] for non-block operations (sync barriers).
    fn with_retry<T>(
        &self,
        retried: &AtomicU64,
        is_read: bool,
        block: u64,
        mut op: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let start = Instant::now();
        let mut attempt = 1u32;
        loop {
            match op() {
                Ok(v) => {
                    if attempt > 1 {
                        self.stats.recovered.fetch_add(1, Ordering::Relaxed);
                        self.tracer.record(EventKind::RetryRecovered { block });
                    }
                    return Ok(v);
                }
                Err(e) if !e.is_transient() => return Err(e),
                Err(e) => {
                    let delay = self.policy.delay(attempt);
                    let out_of_attempts = attempt >= self.policy.max_attempts;
                    let out_of_time = start.elapsed() + delay > self.policy.deadline;
                    if out_of_attempts || out_of_time {
                        self.stats.gave_up.fetch_add(1, Ordering::Relaxed);
                        self.tracer.record(EventKind::RetryGaveUp { block });
                        return Err(e);
                    }
                    std::thread::sleep(delay);
                    retried.fetch_add(1, Ordering::Relaxed);
                    self.tracer.record(if is_read {
                        EventKind::RetryRead { block, attempt }
                    } else {
                        EventKind::RetryWrite { block, attempt }
                    });
                    attempt += 1;
                }
            }
        }
    }
}

impl<D: BlockDevice> BlockDevice for RetryDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
        self.with_retry(&self.stats.retried_reads, true, id.0, || {
            self.inner.read_block(id, buf)
        })
    }

    fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()> {
        self.with_retry(&self.stats.retried_writes, false, id.0, || {
            self.inner.write_block(id, buf)
        })
    }

    fn allocate(&self, n: u64) -> Result<BlockId> {
        self.inner.allocate(n)
    }

    fn free(&self, start: BlockId, n: u64) -> Result<()> {
        self.inner.free(start, n)
    }

    fn stats(&self) -> Arc<IoStats> {
        // Counted-I/O neutrality: observers see exactly the inner device's
        // successful transfers, never retry-layer bookkeeping.
        self.inner.stats()
    }

    fn concurrent_io(&self) -> bool {
        self.inner.concurrent_io()
    }

    fn persistent(&self) -> bool {
        self.inner.persistent()
    }

    fn sync(&self) -> Result<()> {
        // Sync barriers retry too: fsync on networked filesystems returns
        // transient errors exactly like writes do.
        self.with_retry(&self.stats.retried_writes, false, NO_BLOCK, || {
            self.inner.sync()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem_device::MemBlockDevice;
    use crate::testing::FailpointDevice;

    fn quick_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_micros(50),
            multiplier: 2.0,
            deadline: Duration::from_secs(5),
        }
    }

    #[test]
    fn transient_read_recovers_and_counts() {
        let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(64)));
        let fp = dev.handle();
        let r = RetryDevice::new(dev, quick_policy());
        let b = r.allocate(1).unwrap();
        r.write_block(b, &[7u8; 64]).unwrap();

        fp.fail_reads_transient(b, 2);
        let mut buf = [0u8; 64];
        r.read_block(b, &mut buf).unwrap();
        assert_eq!(buf[0], 7);

        let rs = r.retry_stats();
        assert_eq!(rs.retried_reads(), 2);
        assert_eq!(rs.recovered(), 1);
        assert_eq!(rs.gave_up(), 0);
        // Counted I/O shows only the successful transfer (the failpoint
        // rejects before the inner device runs).
        assert_eq!(r.stats().snapshot().reads, 1);
    }

    #[test]
    fn permanent_error_surfaces_immediately() {
        let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(64)));
        let fp = dev.handle();
        let r = RetryDevice::new(dev, quick_policy());
        let b = r.allocate(1).unwrap();

        fp.fail_reads(b, 1); // permanent (ErrorKind::Other)
        let mut buf = [0u8; 64];
        assert!(r.read_block(b, &mut buf).is_err());
        let rs = r.retry_stats();
        assert_eq!(rs.retried_reads(), 0, "no retry of a permanent error");
        assert_eq!(rs.gave_up(), 0, "gave_up counts exhausted transients only");
    }

    #[test]
    fn attempts_exhausted_gives_up_with_last_error() {
        let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(64)));
        let fp = dev.handle();
        let r = RetryDevice::new(dev, quick_policy());
        let b = r.allocate(1).unwrap();

        fp.fail_writes_transient(b, 100); // more than max_attempts
        let err = r.write_block(b, &[0u8; 64]).unwrap_err();
        assert!(err.is_transient(), "the last transient error surfaces");
        let rs = r.retry_stats();
        assert_eq!(rs.retried_writes(), 3, "4 attempts = 3 retries");
        assert_eq!(rs.gave_up(), 1);
        assert_eq!(rs.recovered(), 0);
        assert_eq!(r.stats().snapshot().writes, 0, "nothing landed");
    }

    #[test]
    fn deadline_bounds_the_operation() {
        let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(64)));
        let fp = dev.handle();
        let policy = RetryPolicy {
            max_attempts: 1000,
            base_delay: Duration::from_millis(4),
            multiplier: 2.0,
            deadline: Duration::from_millis(10),
        };
        let r = RetryDevice::new(dev, policy);
        let b = r.allocate(1).unwrap();

        fp.fail_reads_transient(b, 1000);
        let start = Instant::now();
        let mut buf = [0u8; 64];
        assert!(r.read_block(b, &mut buf).is_err());
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "deadline cut it short"
        );
        let rs = r.retry_stats();
        assert!(rs.retried_reads() < 10, "far fewer than max_attempts");
        assert_eq!(rs.gave_up(), 1);
    }

    #[test]
    fn backoff_delays_grow_geometrically() {
        let p = RetryPolicy {
            base_delay: Duration::from_millis(1),
            multiplier: 2.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.delay(1), Duration::from_millis(1));
        assert_eq!(p.delay(2), Duration::from_millis(2));
        assert_eq!(p.delay(3), Duration::from_millis(4));
    }

    #[test]
    fn zero_fault_passthrough_is_io_neutral() {
        let r = RetryDevice::new(MemBlockDevice::new(64), RetryPolicy::default());
        let b = r.allocate(2).unwrap();
        r.write_block(b, &[1u8; 64]).unwrap();
        r.write_block(b.offset(1), &[2u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        r.read_block(b, &mut buf).unwrap();
        r.sync().unwrap();

        let snap = r.stats().snapshot();
        assert_eq!((snap.reads, snap.writes), (1, 2));
        assert_eq!(snap.seq_writes, 1, "sequentiality ledger untouched");
        let rs = r.retry_stats();
        assert_eq!(
            (
                rs.retried_reads(),
                rs.retried_writes(),
                rs.recovered(),
                rs.gave_up()
            ),
            (0, 0, 0, 0)
        );
    }
}
