//! Fault-injection tests: every device failure mode the pool can hit —
//! failed miss loads, torn transfers, failed eviction write-backs, failed
//! flushes — must leave the pool fully consistent (no leaked frame, no
//! stale mapping, exact stats) and recoverable: eviction write-back
//! failures are absorbed by retrying the victim pass, everything else by
//! the caller simply retrying.

use riot_storage::testing::{FailpointDevice, FailpointHandle};
use riot_storage::{BufferPool, MemBlockDevice, PoolConfig};

fn failpoint_pool(frames: usize) -> (BufferPool, FailpointHandle) {
    let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(64)));
    let fp = dev.handle();
    let pool = BufferPool::new(
        Box::new(dev),
        PoolConfig {
            frames,
            ..PoolConfig::default()
        },
    );
    (pool, fp)
}

#[test]
fn failed_load_releases_slot_and_retry_succeeds() {
    let (pool, fp) = failpoint_pool(2);
    let b = pool.allocate_blocks(1).unwrap();
    pool.write_new(b, |d| d[0] = 42).unwrap();
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    let io_before = pool.io_stats().snapshot();

    fp.fail_reads(b, 1);
    let err = pool.pin(b).unwrap_err();
    assert!(err.to_string().contains("injected read failure"));

    // Slot released: nothing resident, no stale mapping, no device read
    // counted (the injection fired before the inner device ran).
    assert_eq!(pool.resident(), 0);
    let io = pool.io_stats().snapshot() - io_before;
    assert_eq!((io.reads, io.writes), (0, 0));
    let s = pool.pool_stats();
    assert_eq!(s.misses, 2, "setup miss + the failed claim");
    assert_eq!(s.hits, 0);

    // A subsequent pin of the same block simply works.
    assert_eq!(pool.read(b, |d| d[0]).unwrap(), 42);
    assert_eq!((pool.io_stats().snapshot() - io_before).reads, 1);
    assert_eq!(pool.resident(), 1);
}

#[test]
fn failed_load_does_not_leak_the_frame() {
    let (pool, fp) = failpoint_pool(2);
    let b = pool.allocate_blocks(3).unwrap();
    pool.write_new(b, |_| ()).unwrap();
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();

    // Five consecutive failed loads must not consume five frames.
    fp.fail_reads(b, 5);
    for _ in 0..5 {
        assert!(pool.pin(b).is_err());
    }
    // Both frames are still claimable simultaneously.
    let _g1 = pool.pin_new(b.offset(1)).unwrap();
    let _g2 = pool.pin_new(b.offset(2)).unwrap();
    assert_eq!(pool.resident(), 2);
}

#[test]
fn torn_read_is_not_published() {
    let (pool, fp) = failpoint_pool(2);
    let b = pool.allocate_blocks(1).unwrap();
    pool.write_new(b, |d| {
        for (i, x) in d.iter_mut().enumerate() {
            *x = i as u8;
        }
    })
    .unwrap();
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();

    // The device delivers an 8-byte prefix then errors; the pool must not
    // expose the half-filled frame as the block's contents.
    fp.cap_read_transfer(Some(8));
    let err = pool.pin(b).unwrap_err();
    assert!(err.to_string().contains("short read"));
    assert_eq!(pool.resident(), 0, "torn frame not published");

    fp.cap_read_transfer(None);
    let g = pool.pin(b).unwrap();
    for (i, x) in g.as_bytes().iter().enumerate() {
        assert_eq!(*x, i as u8, "byte {i} after recovery");
    }
}

#[test]
fn eviction_writeback_failure_is_absorbed_by_victim_retry() {
    let (pool, fp) = failpoint_pool(2);
    let b = pool.allocate_blocks(4).unwrap();
    pool.write_new(b, |d| d[0] = 1).unwrap();
    pool.write_new(b.offset(1), |d| d[0] = 2).unwrap();

    // Evicting for a third page picks dirty LRU block 0; fail that write.
    // The pool absorbs the failure — block 0 stays resident and dirty —
    // and the retried victim pass writes back block 1 instead, so the pin
    // succeeds and the caller never sees the fault.
    fp.fail_writes(b, 1);
    pool.write_new(b.offset(2), |d| d[0] = 3).unwrap();
    assert_eq!(fp.injected_write_errors(), 1);
    let s = pool.pool_stats();
    assert_eq!(s.writeback_retries, 1, "one absorbed write-back failure");
    assert_eq!(s.evict_writebacks, 1, "block 1's successful write-back");
    assert_eq!(pool.io_stats().snapshot().writes, 1);

    // The shard is not poisoned: the failed victim kept its data and its
    // dirty bit, and ordinary traffic continues.
    assert_eq!(pool.read(b, |d| d[0]).unwrap(), 1, "victim data intact");
    assert_eq!(pool.read(b.offset(1), |d| d[0]).unwrap(), 2);
    // The deferred write-back lands on the next flush (failpoint spent).
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    assert_eq!(pool.read(b, |d| d[0]).unwrap(), 1, "round-trips after all");
}

#[test]
fn dead_device_writeback_error_still_surfaces() {
    let (pool, fp) = failpoint_pool(2);
    let b = pool.allocate_blocks(3).unwrap();
    pool.write_new(b, |d| d[0] = 1).unwrap();
    pool.write_new(b.offset(1), |d| d[0] = 2).unwrap();

    // Every victim's write fails: the bounded retry gives up instead of
    // spinning, and no data is lost.
    fp.fail_writes(b, 100);
    fp.fail_writes(b.offset(1), 100);
    let err = pool.pin_new(b.offset(2)).unwrap_err();
    assert!(err.to_string().contains("injected write failure"));
    assert!(pool.pool_stats().writeback_retries >= 1);
    assert_eq!(pool.pool_stats().evict_writebacks, 0);
    assert_eq!(pool.io_stats().snapshot().writes, 0);
    assert_eq!(pool.resident(), 2);
    assert_eq!(pool.read(b, |d| d[0]).unwrap(), 1);
    assert_eq!(pool.read(b.offset(1), |d| d[0]).unwrap(), 2);
}

#[test]
fn flush_all_error_keeps_frame_dirty_for_retry() {
    let (pool, fp) = failpoint_pool(4);
    let b = pool.allocate_blocks(2).unwrap();
    pool.write_new(b, |d| d[0] = 7).unwrap();
    pool.write_new(b.offset(1), |d| d[0] = 8).unwrap();

    fp.fail_writes(b, 1);
    let err = pool.flush_all().unwrap_err();
    assert!(err.to_string().contains("injected write failure"));
    assert_eq!(pool.io_stats().snapshot().writes, 0, "nothing landed");

    // The frame stayed dirty, so a retry flushes both blocks.
    pool.flush_all().unwrap();
    assert_eq!(pool.io_stats().snapshot().writes, 2);
    pool.clear_cache().unwrap();
    assert_eq!(pool.read(b, |d| d[0]).unwrap(), 7);
    assert_eq!(pool.read(b.offset(1), |d| d[0]).unwrap(), 8);
}

#[test]
fn clear_cache_error_surfaces_without_dropping_data() {
    let (pool, fp) = failpoint_pool(4);
    let b = pool.allocate_blocks(1).unwrap();
    pool.write_new(b, |d| d[0] = 9).unwrap();

    fp.fail_writes(b, 1);
    assert!(pool.clear_cache().is_err());
    // The dirty frame was not dropped on the floor.
    assert_eq!(pool.resident(), 1);
    assert_eq!(pool.read(b, |d| d[0]).unwrap(), 9);

    pool.clear_cache().unwrap();
    assert_eq!(pool.resident(), 0);
    assert_eq!(pool.read(b, |d| d[0]).unwrap(), 9);
}

/// A scripted mixed-failure scenario with every counter pinned exactly at
/// the end — the stats ledger stays truthful through errors.
#[test]
fn stats_stay_exact_through_mixed_failures() {
    let (pool, fp) = failpoint_pool(2);
    let b = pool.allocate_blocks(3).unwrap();

    pool.write_new(b, |d| d[0] = 1).unwrap(); // miss 1
    pool.write_new(b.offset(1), |d| d[0] = 2).unwrap(); // miss 2
    pool.flush_all().unwrap(); // writes 1,2
    pool.clear_cache().unwrap();

    fp.fail_reads(b, 1);
    assert!(pool.pin(b).is_err()); // miss 3 (failed load)
    assert_eq!(pool.read(b, |d| d[0]).unwrap(), 1); // miss 4, read 1
    assert_eq!(pool.read(b, |d| d[0]).unwrap(), 1); // hit 1
    assert_eq!(pool.read(b.offset(1), |d| d[0]).unwrap(), 2); // miss 5, read 2

    fp.fail_writes(b, 1);
    // Block 0 is clean (freshly loaded), so pinning a third block evicts
    // it without a write — the failpoint stays un-tripped.
    pool.write_new(b.offset(2), |d| d[0] = 3).unwrap(); // miss 6
    assert_eq!(fp.injected_write_errors(), 0);

    let s = pool.pool_stats();
    assert_eq!(s.misses, 6);
    assert_eq!(s.hits, 1);
    assert_eq!(s.evict_writebacks, 0, "clean eviction wrote nothing");
    assert_eq!(s.coalesced_loads, 0, "single-threaded never coalesces");
    let io = pool.io_stats().snapshot();
    assert_eq!(io.reads, 2);
    assert_eq!(io.writes, 2);
    assert_eq!(fp.injected_read_errors(), 1);
}

/// A pool with background prefetch workers over the failpoint device.
fn prefetching_failpoint_pool(frames: usize, depth: usize) -> (BufferPool, FailpointHandle) {
    let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(64)));
    let fp = dev.handle();
    let pool = BufferPool::new(
        Box::new(dev),
        PoolConfig {
            frames,
            prefetch_depth: depth,
            ..PoolConfig::default()
        },
    );
    (pool, fp)
}

/// Prefetch failure containment: a failed background load releases its
/// claimed slot (no leaked frame, no stale mapping), poisons nothing, and
/// the next pin of the block simply retries on the device.
#[test]
fn failed_prefetch_releases_slot_and_next_pin_retries() {
    let (pool, fp) = prefetching_failpoint_pool(2, 1);
    let b = pool.allocate_blocks(2).unwrap();
    pool.write_new(b, |d| d[0] = 42).unwrap();
    pool.write_new(b.offset(1), |d| d[0] = 43).unwrap();
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    let io0 = pool.io_stats().snapshot();

    fp.fail_reads(b, 1);
    pool.prefetch(&[b]);
    pool.wait_prefetch_idle();

    // Slot released: nothing resident, nothing counted on the device (the
    // injection fired before the inner device ran), nothing poisoned —
    // and critically, no pin anywhere observed an error.
    assert_eq!(pool.resident(), 0);
    let io = pool.io_stats().snapshot() - io0;
    assert_eq!((io.reads, io.writes), (0, 0));
    assert_eq!(fp.injected_read_errors(), 1);
    let s = pool.pool_stats();
    assert_eq!(s.prefetch_issued, 1, "the failed load was still issued");
    assert_eq!((s.prefetch_hits, s.prefetch_wasted), (0, 0));

    // The next pin retries on the device and succeeds; both frames remain
    // claimable (the failed claim leaked nothing).
    assert_eq!(pool.read(b, |d| d[0]).unwrap(), 42);
    assert_eq!(pool.read(b.offset(1), |d| d[0]).unwrap(), 43);
    assert_eq!((pool.io_stats().snapshot() - io0).reads, 2);
    assert_eq!(pool.resident(), 2);
}

/// A torn background read (short transfer mid-"DMA") must never publish
/// the partially filled frame: the slot releases and a later pin reloads
/// the full block.
#[test]
fn torn_prefetch_read_is_not_published() {
    let (pool, fp) = prefetching_failpoint_pool(2, 1);
    let b = pool.allocate_blocks(1).unwrap();
    pool.write_new(b, |d| {
        for (i, x) in d.iter_mut().enumerate() {
            *x = 100 + i as u8;
        }
    })
    .unwrap();
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();

    fp.cap_read_transfer(Some(8));
    pool.prefetch(&[b]);
    pool.wait_prefetch_idle();
    assert_eq!(pool.resident(), 0, "torn frame not published");

    fp.cap_read_transfer(None);
    pool.read(b, |d| {
        for (i, &x) in d.iter().enumerate() {
            assert_eq!(x, 100 + i as u8, "full block reloaded");
        }
    })
    .unwrap();
}

/// Mixed batch: one poisoned hint among healthy ones affects only its own
/// block — the healthy prefetches land and hit, the failed one retries on
/// demand, and every counter stays exact.
#[test]
fn mixed_prefetch_failures_contain_to_their_block() {
    let (pool, fp) = prefetching_failpoint_pool(4, 2);
    let b = pool.allocate_blocks(3).unwrap();
    for i in 0..3 {
        pool.write_new(b.offset(i), |d| d[0] = 10 + i as u8)
            .unwrap();
    }
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    let io0 = pool.io_stats().snapshot();

    fp.fail_reads(b.offset(1), 1);
    pool.prefetch(&[b, b.offset(1), b.offset(2)]);
    pool.wait_prefetch_idle();
    assert_eq!(pool.resident(), 2, "the two healthy prefetches landed");

    for i in 0..3 {
        assert_eq!(pool.read(b.offset(i), |d| d[0]).unwrap(), 10 + i as u8);
    }
    let s = pool.pool_stats();
    assert_eq!(s.prefetch_issued, 3);
    assert_eq!(s.prefetch_hits, 2);
    assert_eq!(s.prefetch_wasted, 0);
    // 3 blocks, 3 successful reads total: 2 background + 1 demand retry.
    assert_eq!((pool.io_stats().snapshot() - io0).reads, 3);
    assert_eq!(fp.injected_read_errors(), 1);
}
