//! Deterministic-interleaving tests for the overlapped-I/O buffer pool:
//! barrier-scheduled threads plus injected device latency pin down the
//! single-flight and overlap guarantees that unsynchronized stress tests
//! can only hope to hit.
//!
//! Every test arms a [`Watchdog`]: a lost condvar wake-up in the pool
//! would otherwise hang the test runner silently, and CI's single-thread
//! leg exists precisely to shake those out.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use riot_storage::testing::{FailpointDevice, FailpointHandle, Watchdog};
use riot_storage::{BufferPool, MemBlockDevice, PoolConfig};

const WATCHDOG: Duration = Duration::from_secs(60);

fn failpoint_pool(frames: usize) -> (Arc<BufferPool>, FailpointHandle) {
    let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(64)));
    let fp = dev.handle();
    let pool = BufferPool::new(
        Box::new(dev),
        PoolConfig {
            frames,
            ..PoolConfig::default()
        },
    );
    (Arc::new(pool), fp)
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// N concurrent misses of one block cost exactly one device read: the
/// first arrival claims the load, the rest wait on the `LoadInFlight`
/// entry and come back as hits.
#[test]
fn single_flight_coalesces_concurrent_misses() {
    let _wd = Watchdog::arm("single_flight_coalesces_concurrent_misses", WATCHDOG);
    let (pool, fp) = failpoint_pool(4);
    let b = pool.allocate_blocks(1).unwrap();
    pool.write_new(b, |d| d[0] = 77).unwrap();
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    let io_before = pool.io_stats().snapshot();
    let stats_before = pool.pool_stats();

    // A slow load keeps the in-flight window wide open for the waiters.
    fp.set_read_latency(Duration::from_millis(80));
    let barrier = Barrier::new(4);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                let g = pool.pin(b).unwrap();
                assert_eq!(g.as_bytes()[0], 77);
            });
        }
    });

    let io = pool.io_stats().snapshot() - io_before;
    assert_eq!(io.reads, 1, "single-flight: one device read for 4 misses");
    assert_eq!(io.writes, 0);
    let stats = pool.pool_stats();
    assert_eq!(stats.misses - stats_before.misses, 1);
    assert_eq!(stats.hits - stats_before.hits, 3);
    // The waiters arrived inside an 80 ms load window; at least one (in
    // practice all three) parked on the in-flight entry.
    assert!(
        (1..=3).contains(&(stats.coalesced_loads - stats_before.coalesced_loads)),
        "coalesced_loads = {}",
        stats.coalesced_loads - stats_before.coalesced_loads
    );
}

/// K threads missing K distinct blocks with injected latency L finish in
/// well under K*L wall-clock: the loads overlap because no lock is held
/// across the device reads. Gated to machines with ≥ 2 cores per the
/// acceptance criterion (single-core containers still overlap the sleeps,
/// but the timing claim is only guaranteed with real parallelism).
#[test]
fn distinct_block_misses_overlap() {
    if cores() < 2 {
        eprintln!(
            "skipping distinct_block_misses_overlap: {} core(s)",
            cores()
        );
        return;
    }
    let _wd = Watchdog::arm("distinct_block_misses_overlap", WATCHDOG);
    const K: u64 = 4;
    const LATENCY: Duration = Duration::from_millis(150);

    let (pool, fp) = failpoint_pool(8);
    let b = pool.allocate_blocks(K).unwrap();
    for i in 0..K {
        pool.write_new(b.offset(i), |d| d[0] = i as u8).unwrap();
    }
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    let io_before = pool.io_stats().snapshot();

    fp.set_read_latency(LATENCY);
    let barrier = Arc::new(Barrier::new(K as usize + 1));
    let elapsed = std::thread::scope(|s| {
        for i in 0..K {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                barrier.wait();
                let g = pool.pin(b.offset(i)).unwrap();
                assert_eq!(g.as_bytes()[0], i as u8);
            });
        }
        barrier.wait();
        // The scope joins all workers when this closure returns, so the
        // elapsed time below spans barrier-release to last-load-done.
        Instant::now()
    })
    .elapsed();

    let io = pool.io_stats().snapshot() - io_before;
    assert_eq!(io.reads, K, "every distinct block read exactly once");
    let budget = LATENCY.mul_f64(K as f64 * 0.6);
    assert!(
        elapsed < budget,
        "K distinct misses took {elapsed:?}; serial would be {:?}, budget {budget:?}",
        LATENCY * K as u32,
    );
    assert!(
        pool.in_flight().peak_loads() >= 2,
        "loads never overlapped (peak {})",
        pool.in_flight().peak_loads()
    );
    assert!(pool.device_concurrent_io());
}

/// While a dirty victim's write-back is in flight, pins of *other* blocks
/// proceed immediately — the pool lock is not held
/// across the device write. (Runs on one core too: the victim writer is
/// asleep in injected latency, not holding the CPU.)
#[test]
fn other_blocks_do_not_wait_on_victim_writeback() {
    let _wd = Watchdog::arm("other_blocks_do_not_wait_on_victim_writeback", WATCHDOG);
    const WRITE_LATENCY: Duration = Duration::from_millis(200);

    let (pool, fp) = failpoint_pool(2);
    let b = pool.allocate_blocks(3).unwrap();
    pool.write_new(b, |d| d[0] = 10).unwrap(); // LRU, dirty: the victim
    pool.write_new(b.offset(1), |d| d[0] = 11).unwrap(); // stays resident
    fp.set_write_latency(WRITE_LATENCY);

    let started = Arc::new(Barrier::new(2));
    std::thread::scope(|s| {
        {
            let pool = Arc::clone(&pool);
            let started = Arc::clone(&started);
            s.spawn(move || {
                started.wait();
                // Evicts dirty block 0: ~200 ms inside the device write,
                // pool lock dropped throughout.
                let mut g = pool.pin_new(b.offset(2)).unwrap();
                g[0] = 12.0;
            });
        }
        let pool = Arc::clone(&pool);
        let started = Arc::clone(&started);
        s.spawn(move || {
            started.wait();
            // Give the evictor a moment to enter its write-back window...
            std::thread::sleep(Duration::from_millis(40));
            // ...then hammer the pool's *other* resident block. Every pin
            // is a hit and must not queue behind the victim's 200 ms write.
            let t0 = Instant::now();
            for _ in 0..20 {
                let g = pool.pin(b.offset(1)).unwrap();
                assert_eq!(g.as_bytes()[0], 11);
            }
            let spent = t0.elapsed();
            assert!(
                spent < Duration::from_millis(120),
                "hits on another block stalled {spent:?} behind an in-flight write-back"
            );
        });
    });

    assert_eq!(pool.pool_stats().evict_writebacks, 1);
    // The victim's pins, by contrast, waited the eviction out and re-read
    // its (correctly written-back) contents from the device. (This re-load
    // evicts dirty block 1 in turn, hence the counter check above first.)
    fp.set_write_latency(Duration::ZERO);
    assert_eq!(pool.read(b, |d| d[0]).unwrap(), 10);
}

/// A failed single-flight load wakes its waiters cleanly: the claimant
/// surfaces the injected error, exactly one waiter re-claims and loads,
/// the rest land as hits. One injected failure, one successful device
/// read, no hung threads, no leaked frames.
#[test]
fn failed_single_flight_load_wakes_waiters() {
    let _wd = Watchdog::arm("failed_single_flight_load_wakes_waiters", WATCHDOG);
    let (pool, fp) = failpoint_pool(4);
    let b = pool.allocate_blocks(1).unwrap();
    pool.write_new(b, |d| d[0] = 55).unwrap();
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    let io_before = pool.io_stats().snapshot();

    fp.set_read_latency(Duration::from_millis(60));
    fp.fail_reads(b, 1);
    let barrier = Barrier::new(4);
    let errors: u32 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    match pool.pin(b) {
                        Ok(g) => {
                            assert_eq!(g.as_bytes()[0], 55);
                            0u32
                        }
                        Err(e) => {
                            assert!(e.to_string().contains("injected read failure"));
                            1u32
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    assert_eq!(errors, 1, "exactly the claiming thread sees the failure");
    assert_eq!(fp.injected_read_errors(), 1);
    let io = pool.io_stats().snapshot() - io_before;
    assert_eq!(io.reads, 1, "one successful re-load after the failure");
    assert_eq!(pool.resident(), 1);
    // The slot was never leaked: the pool still reaches full capacity.
    let c = pool.allocate_blocks(4).unwrap();
    let _g1 = pool.pin_new(c).unwrap();
    let _g2 = pool.pin_new(c.offset(1)).unwrap();
    let _g3 = pool.pin_new(c.offset(2)).unwrap();
}

/// Freeing a block whose frame a concurrent eviction is writing back
/// waits the I/O out instead of panicking: the victim choice is internal
/// to the pool, so callers cannot avoid this race.
#[test]
fn free_blocks_waits_out_in_flight_eviction() {
    let _wd = Watchdog::arm("free_blocks_waits_out_in_flight_eviction", WATCHDOG);
    let (pool, fp) = failpoint_pool(2);
    let b = pool.allocate_blocks(3).unwrap();
    pool.write_new(b, |d| d[0] = 10).unwrap(); // LRU, dirty: the victim
    pool.write_new(b.offset(1), |d| d[0] = 11).unwrap();
    fp.set_write_latency(Duration::from_millis(150));

    std::thread::scope(|s| {
        {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                // Evicts block 0: the frame sits in Evicting for ~150 ms.
                pool.write_new(b.offset(2), |d| d[0] = 12).unwrap();
            });
        }
        let pool = Arc::clone(&pool);
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            // Lands mid-eviction: waits for the write-back to finish
            // (which unmaps the block), then frees it on the device.
            pool.free_blocks(b, 1).unwrap();
        });
    });

    assert_eq!(pool.resident(), 2, "blocks 1 and 2 remain");
    assert!(pool.pin(b).is_err(), "freed block rejects pins");
    assert_eq!(pool.read(b.offset(1), |d| d[0]).unwrap(), 11);
    assert_eq!(pool.read(b.offset(2), |d| d[0]).unwrap(), 12);
}

/// Barrier-scheduled writers and readers mixing hits, misses, and
/// evictions under injected latency: a catch-all interleaving shake-out
/// with exact conservation checks at the end.
#[test]
fn mixed_latency_traffic_conserves_counters() {
    let _wd = Watchdog::arm("mixed_latency_traffic_conserves_counters", WATCHDOG);
    const THREADS: u64 = 4;
    const BLOCKS: u64 = 12;
    const ROUNDS: u64 = 6;

    let (pool, fp) = failpoint_pool(6);
    let base = pool.allocate_blocks(BLOCKS).unwrap();
    for i in 0..BLOCKS {
        pool.write_new(base.offset(i), |d| d[0] = i as u8).unwrap();
    }
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    fp.set_read_latency(Duration::from_millis(3));
    fp.set_write_latency(Duration::from_millis(3));

    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = Arc::clone(&pool);
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    for i in 0..BLOCKS {
                        let blk = base.offset((i * 5 + t + round) % BLOCKS);
                        let g = pool.pin(blk).unwrap();
                        assert_eq!(g.as_bytes()[0], (blk.0 - base.0) as u8);
                    }
                }
            });
        }
    });

    let stats = pool.pool_stats();
    assert_eq!(
        stats.hits + stats.misses,
        THREADS * BLOCKS * ROUNDS + BLOCKS,
        "every pin classified exactly once (workload + setup)"
    );
    let g = pool.in_flight();
    assert_eq!((g.loads(), g.writebacks()), (0, 0), "gauges drained");
}
