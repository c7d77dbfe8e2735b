//! Integration tests for the fault-tolerant device stack under a real
//! buffer pool:
//!
//! ```text
//!   BufferPool → RetryDevice → VerifyingDevice → FailpointDevice → Mem
//! ```
//!
//! The retry layer absorbs transient faults, the verifying layer turns
//! bit flips into typed corruption errors, and — the invariant every test
//! here leans on — with **zero injected faults the whole stack is
//! bit-for-bit counted-I/O neutral**: a pool on the stack reports exactly
//! the `IoSnapshot` and `PoolStats` a pool on the bare device would.
//!
//! Failpoints target *physical* block ids (the device the corruption
//! would really hit), so tests map logical ids through the verifier's
//! interleaving: with 64-byte blocks, 8 checksum slots per group.

use riot_storage::{
    BlockDevice, BlockId, BufferPool, FailpointDevice, IoStats, MemBlockDevice, PoolConfig,
    RetryDevice, RetryPolicy, RetryStats, StorageError, VerifyingDevice,
};
use std::sync::Arc;
use std::time::Duration;

const BS: usize = 64;
/// Checksum slots per group at 64-byte blocks (64 / 8).
const SLOTS: u64 = 8;

/// Physical id of logical block `l` under the verifier's interleaving.
fn phys(l: u64) -> BlockId {
    BlockId((l / SLOTS) * (SLOTS + 1) + 1 + l % SLOTS)
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_micros(10),
        multiplier: 2.0,
        deadline: Duration::from_secs(1),
    }
}

struct Stack {
    pool: BufferPool,
    fp: riot_storage::FailpointHandle,
    retry: Arc<RetryStats>,
    /// Physical traffic at the bottom of the stack: every transfer the
    /// verifier later rejects is counted here, not in `pool.io_stats()`.
    raw: Arc<IoStats>,
}

fn stack(frames: usize) -> Stack {
    let mem = MemBlockDevice::new(BS);
    let raw = mem.stats();
    let failpoint = FailpointDevice::new(Box::new(mem));
    let fp = failpoint.handle();
    let retry_dev = RetryDevice::new(VerifyingDevice::new(failpoint), policy());
    let retry = retry_dev.retry_stats();
    let pool = BufferPool::new(
        Box::new(retry_dev),
        PoolConfig {
            frames,
            ..PoolConfig::default()
        },
    );
    Stack {
        pool,
        fp,
        retry,
        raw,
    }
}

fn bare(frames: usize) -> BufferPool {
    BufferPool::new(
        Box::new(MemBlockDevice::new(BS)),
        PoolConfig {
            frames,
            ..PoolConfig::default()
        },
    )
}

/// A workload that exercises misses, hits, evictions, write-backs,
/// flushes (→ sync), and a cold re-scan; returns a value derived from
/// everything read so results can be compared across pools.
fn workload(p: &BufferPool) -> f64 {
    let b = p.allocate_blocks(12).unwrap();
    for i in 0..12 {
        p.write_new(b.offset(i), |d| d[0] = i as u8 + 1).unwrap();
    }
    p.flush_all().unwrap();
    p.clear_cache().unwrap();
    let mut acc = 0.0;
    for i in 0..12 {
        acc += p.read(b.offset(i), |d| d[0] as f64).unwrap();
    }
    // Re-read a few (hits), rewrite one (dirty), flush again.
    acc += p.read(b, |d| d[0] as f64).unwrap();
    p.write(b.offset(3), |d| d[0] = 99).unwrap();
    p.flush_all().unwrap();
    acc + p.read(b.offset(3), |d| d[0] as f64).unwrap()
}

#[test]
fn zero_fault_stack_is_bit_for_bit_io_neutral() {
    let plain = bare(4);
    let s = stack(4);
    assert_eq!(workload(&plain), workload(&s.pool), "same results");
    assert_eq!(
        plain.io_stats().snapshot(),
        s.pool.io_stats().snapshot(),
        "identical counted I/O, sequentiality, and sync barriers"
    );
    assert_eq!(
        plain.pool_stats(),
        s.pool.pool_stats(),
        "identical pool behaviour"
    );
    assert_eq!(s.retry.retried_reads() + s.retry.retried_writes(), 0);
    assert_eq!(
        s.fp.injected_read_errors() + s.fp.injected_write_errors(),
        0
    );
}

#[test]
fn transient_read_faults_are_invisible_to_the_pool() {
    let s = stack(4);
    let b = s.pool.allocate_blocks(2).unwrap();
    s.pool.write_new(b, |d| d[0] = 7).unwrap();
    s.pool.flush_all().unwrap();
    s.pool.clear_cache().unwrap();
    let before = s.pool.io_stats().snapshot();

    s.fp.fail_reads_transient(phys(b.0), 2);
    assert_eq!(s.pool.read(b, |d| d[0]).unwrap(), 7);

    assert_eq!(s.retry.retried_reads(), 2, "two faults, two retries");
    assert_eq!(s.retry.recovered(), 1);
    assert_eq!(s.retry.gave_up(), 0);
    let delta = s.pool.io_stats().snapshot() - before;
    assert_eq!(delta.reads, 1, "the ledger records ONE logical read");
}

#[test]
fn transient_write_faults_on_flush_are_absorbed() {
    let s = stack(4);
    let b = s.pool.allocate_blocks(1).unwrap();
    s.pool.write_new(b, |d| d[0] = 5).unwrap();
    s.fp.fail_writes_transient(phys(b.0), 1);
    s.pool.flush_all().unwrap();
    assert_eq!(s.retry.retried_writes(), 1);
    assert_eq!(s.retry.recovered(), 1);
    s.pool.clear_cache().unwrap();
    assert_eq!(s.pool.read(b, |d| d[0]).unwrap(), 5, "write landed");
}

#[test]
fn exhausted_retries_surface_the_transient_error() {
    let s = stack(4);
    let b = s.pool.allocate_blocks(1).unwrap();
    s.pool.write_new(b, |d| d[0] = 1).unwrap();
    s.pool.flush_all().unwrap();
    s.pool.clear_cache().unwrap();
    s.fp.fail_reads_transient(phys(b.0), 1000);
    let err = s.pool.read(b, |d| d[0]).unwrap_err();
    assert!(
        matches!(&err, StorageError::Io(e) if e.kind() == std::io::ErrorKind::TimedOut),
        "last transient error surfaces: {err}"
    );
    assert_eq!(s.retry.gave_up(), 1);
    assert_eq!(s.retry.retried_reads(), 3, "4 attempts = 3 retries");
}

#[test]
fn single_bit_flip_is_contained_by_the_demand_pin_retry() {
    let s = stack(4);
    let b = s.pool.allocate_blocks(1).unwrap();
    s.pool.write_new(b, |d| d[0] = 42).unwrap();
    s.pool.flush_all().unwrap();
    s.pool.clear_cache().unwrap();
    // One poisoned read: the pool's demand-miss path retries once on a
    // typed corruption error, and the second read is clean.
    s.fp.corrupt_reads(phys(b.0), 1);
    let before = s.raw.snapshot();
    assert_eq!(s.pool.read(b, |d| d[0]).unwrap(), 42);
    assert_eq!(s.fp.injected_corruptions(), 1);
    let delta = s.raw.snapshot() - before;
    assert_eq!(delta.reads, 2, "a corrupt demand load reads twice");
}

#[test]
fn persistent_corruption_surfaces_as_a_typed_error_with_the_logical_id() {
    let s = stack(4);
    let b = s.pool.allocate_blocks(3).unwrap();
    for i in 0..3 {
        s.pool.write_new(b.offset(i), |d| d[0] = i as u8).unwrap();
    }
    s.pool.flush_all().unwrap();
    s.pool.clear_cache().unwrap();
    s.fp.corrupt_reads(phys(b.0 + 1), 100);
    let err = s.pool.read(b.offset(1), |d| d[0]).unwrap_err();
    match err {
        StorageError::Corruption { block } => {
            assert_eq!(block, b.offset(1), "reported in LOGICAL ids")
        }
        other => panic!("expected corruption, got {other}"),
    }
    // The sick block does not poison its neighbours.
    assert_eq!(s.pool.read(b, |d| d[0]).unwrap(), 0);
    assert_eq!(s.pool.read(b.offset(2), |d| d[0]).unwrap(), 2);
}

#[test]
fn corruption_on_prefetch_releases_the_slot_and_demand_pin_recovers() {
    let mem = MemBlockDevice::new(BS);
    let raw = mem.stats();
    let failpoint = FailpointDevice::new(Box::new(mem));
    let fp = failpoint.handle();
    let retry_dev = RetryDevice::new(VerifyingDevice::new(failpoint), policy());
    let pool = BufferPool::new(
        Box::new(retry_dev),
        PoolConfig {
            frames: 8,
            prefetch_depth: 2,
            ..PoolConfig::default()
        },
    );
    let b = pool.allocate_blocks(4).unwrap();
    for i in 0..4 {
        pool.write_new(b.offset(i), |d| d[0] = 10 + i as u8)
            .unwrap();
    }
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    // Poison the next read of block 1, then prefetch it: the background
    // load hits the corruption, drops the slot, and the later demand pin
    // reads a clean copy.
    fp.corrupt_reads(phys(b.0 + 1), 1);
    let before = raw.snapshot();
    pool.prefetch([b.offset(1)]);
    pool.wait_prefetch_idle();
    let delta = raw.snapshot() - before;
    assert_eq!(delta.reads, 1, "a corrupt background load reads once");
    assert_eq!(pool.read(b.offset(1), |d| d[0]).unwrap(), 11);
    assert_eq!(fp.injected_corruptions(), 1);
    let delta = raw.snapshot() - before;
    assert_eq!(delta.reads, 2, "then the demand pin reads a clean copy");
}

#[test]
fn eviction_writeback_rides_the_retry_layer() {
    let s = stack(2);
    let b = s.pool.allocate_blocks(3).unwrap();
    s.pool.write_new(b, |d| d[0] = 1).unwrap();
    s.pool.write_new(b.offset(1), |d| d[0] = 2).unwrap();
    // Evicting block 0 hits one transient write fault; the retry layer
    // absorbs it below the pool, so not even the victim-retry path runs.
    s.fp.fail_writes_transient(phys(b.0), 1);
    s.pool.write_new(b.offset(2), |d| d[0] = 3).unwrap();
    assert_eq!(s.retry.retried_writes(), 1);
    assert_eq!(s.retry.recovered(), 1);
    assert_eq!(s.pool.pool_stats().writeback_retries, 0);
    s.pool.flush_all().unwrap();
    s.pool.clear_cache().unwrap();
    for i in 0..3 {
        assert_eq!(s.pool.read(b.offset(i), |d| d[0]).unwrap(), 1 + i as u8);
    }
}
