//! I/O accounting: the reproduction's replacement for the paper's DTrace
//! measurements.
//!
//! Every block read or write performed by a [`crate::BlockDevice`] is
//! recorded here. Counters distinguish *sequential* accesses (block id is
//! exactly one past the previous access of the same kind) from *random*
//! ones, because Figure 1(b) of the paper hinges on that distinction:
//! MySQL's "bulky and sequential" I/O costs far less wall time per block
//! than R's scattered virtual-memory paging.
//!
//! Counters are lock-free atomics so devices shared by the buffer pool's
//! threads can record traffic from any of them. Totals are always exact; the
//! sequential/random split is exact for single-stream I/O and a best-effort
//! classification when several threads interleave accesses (physical disks
//! would not see such interleavings as sequential either).

use std::fmt;
use std::ops::{Add, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::device::BlockId;

/// Sentinel for "no previous access recorded".
const NONE: u64 = u64::MAX;

/// Shared, thread-safe I/O counters.
///
/// An `Arc<IoStats>` is handed to a device at construction and can be
/// cloned by anything that wants to observe traffic (the buffer pool,
/// experiment harnesses, tests). Use [`IoStats::snapshot`] before a region
/// of interest and subtract snapshots to get a delta.
#[derive(Debug)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    seq_reads: AtomicU64,
    seq_writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    syncs: AtomicU64,
    last_read: AtomicU64,
    last_write: AtomicU64,
}

impl Default for IoStats {
    fn default() -> Self {
        IoStats {
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            seq_reads: AtomicU64::new(0),
            seq_writes: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            last_read: AtomicU64::new(NONE),
            last_write: AtomicU64::new(NONE),
        }
    }
}

impl IoStats {
    /// Create a fresh, zeroed counter set behind an `Arc`.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record one block read of `bytes` bytes at `block`.
    pub fn record_read(&self, block: BlockId, bytes: usize) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
        let prev = self.last_read.swap(block.0, Ordering::Relaxed);
        if prev != NONE && prev == block.0.wrapping_sub(1) {
            self.seq_reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one block write of `bytes` bytes at `block`.
    pub fn record_write(&self, block: BlockId, bytes: usize) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
        let prev = self.last_write.swap(block.0, Ordering::Relaxed);
        if prev != NONE && prev == block.0.wrapping_sub(1) {
            self.seq_writes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one sync barrier ([`crate::BlockDevice::sync`]).
    pub fn record_sync(&self) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Capture the current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            seq_reads: self.seq_reads.load(Ordering::Relaxed),
            seq_writes: self.seq_writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }

    /// Reset every counter to zero (sequentiality tracking included).
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.seq_reads.store(0, Ordering::Relaxed);
        self.seq_writes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.syncs.store(0, Ordering::Relaxed);
        self.last_read.store(NONE, Ordering::Relaxed);
        self.last_write.store(NONE, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`IoStats`] counters.
///
/// Subtracting two snapshots gives the traffic between them, which is how
/// the experiment harness attributes I/O to a single statement or strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Total block reads.
    pub reads: u64,
    /// Total block writes.
    pub writes: u64,
    /// Reads whose block id was one past the previous read.
    pub seq_reads: u64,
    /// Writes whose block id was one past the previous write.
    pub seq_writes: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Sync barriers issued ([`crate::BlockDevice::sync`]).
    pub syncs: u64,
}

impl IoSnapshot {
    /// Total block transfers (reads + writes).
    pub fn total_blocks(&self) -> u64 {
        self.reads + self.writes
    }

    /// Random (non-sequential) reads.
    pub fn rand_reads(&self) -> u64 {
        self.reads - self.seq_reads
    }

    /// Random (non-sequential) writes.
    pub fn rand_writes(&self) -> u64 {
        self.writes - self.seq_writes
    }

    /// Total megabytes moved, the unit of the paper's Figure 1(a).
    pub fn mb(&self) -> f64 {
        (self.bytes_read + self.bytes_written) as f64 / (1024.0 * 1024.0)
    }
}

impl Add for IoSnapshot {
    type Output = IoSnapshot;

    fn add(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
            seq_reads: self.seq_reads + rhs.seq_reads,
            seq_writes: self.seq_writes + rhs.seq_writes,
            bytes_read: self.bytes_read + rhs.bytes_read,
            bytes_written: self.bytes_written + rhs.bytes_written,
            syncs: self.syncs + rhs.syncs,
        }
    }
}

impl Sub for IoSnapshot {
    type Output = IoSnapshot;

    fn sub(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - rhs.reads,
            writes: self.writes - rhs.writes,
            seq_reads: self.seq_reads - rhs.seq_reads,
            seq_writes: self.seq_writes - rhs.seq_writes,
            bytes_read: self.bytes_read - rhs.bytes_read,
            bytes_written: self.bytes_written - rhs.bytes_written,
            syncs: self.syncs - rhs.syncs,
        }
    }
}

impl fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reads ({} seq) / {} writes ({} seq) / {:.2} MB",
            self.reads,
            self.seq_reads,
            self.writes,
            self.seq_writes,
            self.mb()
        )
    }
}

/// Gauges for device I/O that is *currently in flight* on behalf of the
/// buffer pool — miss loads and (eviction or flush) write-backs running
/// with the pool lock dropped.
///
/// The `peak_*` high-water marks are what the overlap tests assert on: a
/// peak of `k > 1` proves `k` device transfers were genuinely outstanding
/// at once, which a pool that holds a lock across I/O can never produce.
/// Single-threaded, both gauges are always 0 at rest and the peaks never
/// exceed 1.
#[derive(Debug, Default)]
pub struct InFlight {
    loads: AtomicU64,
    writebacks: AtomicU64,
    peak_loads: AtomicU64,
    peak_writebacks: AtomicU64,
}

impl InFlight {
    fn raise(current: &AtomicU64, peak: &AtomicU64) {
        let now = current.fetch_add(1, Ordering::Relaxed) + 1;
        peak.fetch_max(now, Ordering::Relaxed);
    }

    /// A miss load started (device read outstanding).
    pub fn begin_load(&self) {
        Self::raise(&self.loads, &self.peak_loads);
    }

    /// A miss load finished (successfully or not).
    pub fn end_load(&self) {
        self.loads.fetch_sub(1, Ordering::Relaxed);
    }

    /// A write-back started (device write outstanding).
    pub fn begin_writeback(&self) {
        Self::raise(&self.writebacks, &self.peak_writebacks);
    }

    /// A write-back finished (successfully or not).
    pub fn end_writeback(&self) {
        self.writebacks.fetch_sub(1, Ordering::Relaxed);
    }

    /// Device reads currently outstanding.
    pub fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Device writes currently outstanding.
    pub fn writebacks(&self) -> u64 {
        self.writebacks.load(Ordering::Relaxed)
    }

    /// Most loads ever outstanding simultaneously.
    pub fn peak_loads(&self) -> u64 {
        self.peak_loads.load(Ordering::Relaxed)
    }

    /// Most write-backs ever outstanding simultaneously.
    pub fn peak_writebacks(&self) -> u64 {
        self.peak_writebacks.load(Ordering::Relaxed)
    }
}

/// A simple rotating-disk latency model used to convert block counts into
/// the modeled execution time of Figure 1(b).
///
/// Defaults approximate the paper's 2008-era hardware: a sequential 8 KiB
/// transfer at ~100 MB/s costs ~0.08 ms, while a random access pays an
/// ~8 ms seek + rotational delay on top.
#[derive(Debug, Clone, Copy)]
pub struct DiskModel {
    /// Milliseconds per sequential block transfer.
    pub seq_ms: f64,
    /// Milliseconds per random block access (seek + transfer).
    pub rand_ms: f64,
    /// Nanoseconds of CPU cost per scalar operation (used by harnesses that
    /// also track arithmetic work).
    pub cpu_ns_per_op: f64,
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel {
            seq_ms: 0.08,
            rand_ms: 8.0,
            cpu_ns_per_op: 5.0,
        }
    }
}

impl DiskModel {
    /// Modeled time in seconds for the I/O in `snap` plus `cpu_ops`
    /// scalar operations.
    pub fn modeled_seconds(&self, snap: &IoSnapshot, cpu_ops: u64) -> f64 {
        let seq = (snap.seq_reads + snap.seq_writes) as f64;
        let rand = (snap.rand_reads() + snap.rand_writes()) as f64;
        (seq * self.seq_ms + rand * self.rand_ms) / 1000.0
            + cpu_ops as f64 * self.cpu_ns_per_op / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_reads_detected() {
        let s = IoStats::default();
        s.record_read(BlockId(10), 8192);
        s.record_read(BlockId(11), 8192);
        s.record_read(BlockId(12), 8192);
        s.record_read(BlockId(5), 8192);
        let snap = s.snapshot();
        assert_eq!(snap.reads, 4);
        assert_eq!(snap.seq_reads, 2);
        assert_eq!(snap.rand_reads(), 2);
    }

    #[test]
    fn sequential_writes_tracked_independently_of_reads() {
        let s = IoStats::default();
        s.record_read(BlockId(0), 8192);
        s.record_write(BlockId(1), 8192);
        // Write at 1 is NOT sequential: there was no previous write.
        let snap = s.snapshot();
        assert_eq!(snap.seq_writes, 0);
        s.record_write(BlockId(2), 8192);
        assert_eq!(s.snapshot().seq_writes, 1);
    }

    #[test]
    fn block_zero_is_never_sequential_after_reset() {
        // Regression guard for the sentinel encoding: the first access to
        // block 0 must not match the "no previous access" marker.
        let s = IoStats::default();
        s.record_read(BlockId(0), 1);
        assert_eq!(s.snapshot().seq_reads, 0);
    }

    #[test]
    fn snapshot_subtraction_gives_delta() {
        let s = IoStats::default();
        s.record_read(BlockId(0), 100);
        let before = s.snapshot();
        s.record_read(BlockId(1), 100);
        s.record_write(BlockId(2), 200);
        let delta = s.snapshot() - before;
        assert_eq!(delta.reads, 1);
        assert_eq!(delta.writes, 1);
        assert_eq!(delta.bytes_read, 100);
        assert_eq!(delta.bytes_written, 200);
    }

    #[test]
    fn reset_clears_sequentiality_state() {
        let s = IoStats::default();
        s.record_read(BlockId(0), 1);
        s.reset();
        // After reset, block 1 must not look sequential with pre-reset block 0.
        s.record_read(BlockId(1), 1);
        assert_eq!(s.snapshot().seq_reads, 0);
        assert_eq!(s.snapshot().reads, 1);
    }

    #[test]
    fn syncs_are_counted_and_reset() {
        let s = IoStats::default();
        s.record_sync();
        s.record_sync();
        assert_eq!(s.snapshot().syncs, 2);
        let before = s.snapshot();
        s.record_sync();
        assert_eq!((s.snapshot() - before).syncs, 1);
        s.reset();
        assert_eq!(s.snapshot().syncs, 0);
    }

    #[test]
    fn mb_reports_combined_traffic() {
        let snap = IoSnapshot {
            bytes_read: 1024 * 1024,
            bytes_written: 1024 * 1024,
            ..Default::default()
        };
        assert!((snap.mb() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disk_model_charges_random_more() {
        let m = DiskModel::default();
        let seq = IoSnapshot {
            reads: 100,
            seq_reads: 100,
            ..Default::default()
        };
        let rand = IoSnapshot {
            reads: 100,
            seq_reads: 0,
            ..Default::default()
        };
        assert!(m.modeled_seconds(&rand, 0) > 10.0 * m.modeled_seconds(&seq, 0));
    }

    #[test]
    fn in_flight_gauges_track_peaks() {
        let g = InFlight::default();
        assert_eq!((g.loads(), g.peak_loads()), (0, 0));
        g.begin_load();
        g.begin_load();
        assert_eq!((g.loads(), g.peak_loads()), (2, 2));
        g.end_load();
        g.begin_writeback();
        g.end_writeback();
        g.end_load();
        assert_eq!(g.loads(), 0);
        assert_eq!(g.peak_loads(), 2, "peak survives the drain");
        assert_eq!((g.writebacks(), g.peak_writebacks()), (0, 1));
    }

    #[test]
    fn concurrent_totals_are_exact() {
        let s = IoStats::new_shared();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        s.record_read(BlockId(t * 1000 + i), 64);
                        s.record_write(BlockId(t * 1000 + i), 64);
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.reads, 4000);
        assert_eq!(snap.writes, 4000);
        assert_eq!(snap.bytes_read, 4000 * 64);
    }
}
