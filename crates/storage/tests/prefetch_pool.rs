//! Plan-driven prefetch: counted-I/O parity, single-flight interaction,
//! and genuine wall-clock overlap under injected device latency.
//!
//! The contract under test is the one the exec kernels build on: handing
//! the pool a window of block hints changes **when** device reads happen
//! (off the pin path, onto background workers, overlapping compute and
//! each other) but never **how many** — for a workload whose window is
//! pinned before pool pressure evicts it, read/write totals are
//! bit-for-bit the no-prefetch totals.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use riot_storage::testing::{FailpointDevice, FailpointHandle, Watchdog};
use riot_storage::{
    BlockId, BufferPool, FileBlockDevice, IoSnapshot, MemBlockDevice, PoolConfig, StorageError,
};

const WATCHDOG: Duration = Duration::from_secs(60);

fn failpoint_pool(
    frames: usize,
    depth: usize,
    shards: usize,
) -> (Arc<BufferPool>, FailpointHandle) {
    let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(64)));
    let fp = dev.handle();
    let pool = BufferPool::new_sharded(
        Box::new(dev),
        PoolConfig {
            frames,
            prefetch_depth: depth,
            ..PoolConfig::default()
        },
        shards,
    );
    (Arc::new(pool), fp)
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A windowed scan: `blocks` many distinct blocks pinned in order, with
/// the next `window` blocks prefetched ahead of each pin (the kernel
/// discipline). Returns the I/O delta.
fn windowed_scan(pool: &BufferPool, start: BlockId, blocks: u64, window: u64) -> IoSnapshot {
    let before = pool.io_stats().snapshot();
    for i in 0..blocks {
        if window > 0 {
            let ahead: Vec<BlockId> = (i + 1..(i + 1 + window).min(blocks))
                .map(|j| start.offset(j))
                .collect();
            pool.prefetch(ahead.iter().copied());
        }
        pool.read(start.offset(i), |_| ()).unwrap();
    }
    pool.io_stats().snapshot() - before
}

/// The headline parity pin: the same windowed workload with prefetch off
/// (depth 0), on (single shard), and on over a striped pool performs
/// bit-for-bit identical device reads and writes.
#[test]
fn windowed_scan_io_totals_match_no_prefetch_exactly() {
    let _wd = Watchdog::arm(
        "windowed_scan_io_totals_match_no_prefetch_exactly",
        WATCHDOG,
    );
    let run = |depth: usize, shards: usize| -> (IoSnapshot, u64, u64) {
        let (pool, _fp) = failpoint_pool(32, depth, shards);
        let start = pool.allocate_blocks(16).unwrap();
        for i in 0..16 {
            pool.write_new(start.offset(i), |d| d[0] = i as u8).unwrap();
        }
        pool.flush_all().unwrap();
        pool.clear_cache().unwrap();
        let delta = windowed_scan(&pool, start, 16, 4);
        pool.wait_prefetch_idle();
        let s = pool.pool_stats();
        (delta, s.prefetch_issued, s.prefetch_wasted)
    };
    let (off, off_issued, _) = run(0, 1);
    assert_eq!(off.reads, 16);
    assert_eq!(off_issued, 0);
    for (depth, shards) in [(2, 1), (4, 1), (4, 4)] {
        let (on, issued, wasted) = run(depth, shards);
        assert_eq!(
            (on.reads, on.writes),
            (off.reads, off.writes),
            "depth {depth}/shards {shards}: prefetch changed I/O totals"
        );
        assert_eq!(wasted, 0, "a fully pinned window wastes nothing");
        // Some reads moved onto the workers (scheduling-dependent how
        // many — a pin can outrun the queue — but misses + issued must
        // cover every block exactly once).
        let s = issued; // reads by workers
        assert!(s <= 16);
    }
}

/// Every prefetched block is accounted exactly once: hits + wasted +
/// still-resident-unused equals issued, across a workload that pins some
/// prefetched blocks and evicts others.
#[test]
fn prefetch_accounting_is_exhaustive() {
    let _wd = Watchdog::arm("prefetch_accounting_is_exhaustive", WATCHDOG);
    let (pool, _fp) = failpoint_pool(4, 2, 1);
    let b = pool.allocate_blocks(8).unwrap();
    for i in 0..8 {
        pool.write_new(b.offset(i), |d| d[0] = i as u8).unwrap();
    }
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();

    // Prefetch 4 (fills the pool), pin 2 of them, then churn through the
    // other 4 blocks to evict the unpinned prefetches.
    pool.prefetch([b, b.offset(1), b.offset(2), b.offset(3)]);
    pool.wait_prefetch_idle();
    assert_eq!(pool.pool_stats().prefetch_issued, 4);
    pool.read(b, |_| ()).unwrap();
    pool.read(b.offset(1), |_| ()).unwrap();
    for i in 4..8 {
        pool.read(b.offset(i), |_| ()).unwrap();
    }
    let s = pool.pool_stats();
    assert_eq!(s.prefetch_hits, 2);
    assert_eq!(s.prefetch_wasted, 2, "the two unpinned prefetches evicted");
    assert_eq!(
        s.prefetch_issued,
        s.prefetch_hits + s.prefetch_wasted,
        "every issued prefetch resolved"
    );
}

/// A hint still queued for a block that is freed meanwhile, and cut off
/// the end of the device file, is dropped when a worker reaches it: no
/// error surfaces, no frame is mapped, and the block stays gone.
#[test]
fn a_queued_hint_for_a_truncated_block_is_dropped() {
    let _wd = Watchdog::arm("a_queued_hint_for_a_truncated_block_is_dropped", WATCHDOG);
    let dev = FailpointDevice::new(Box::new(FileBlockDevice::temp(64).unwrap()));
    let fp = dev.handle();
    let pool = BufferPool::new(
        Box::new(dev),
        PoolConfig {
            frames: 4,
            prefetch_depth: 1,
            ..PoolConfig::default()
        },
    );
    let b = pool.allocate_blocks(2).unwrap();
    let tail = b.offset(1);
    for i in 0..2 {
        pool.write_new(b.offset(i), |d| d[0] = i as u8 + 1).unwrap();
    }
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    let io0 = pool.io_stats().snapshot();

    // The one worker sleeps inside the load of `b`, so the hint for the
    // tail block waits in the queue while that block is freed.
    fp.set_read_latency(Duration::from_millis(100));
    pool.prefetch([b]);
    while pool.resident() == 0 {
        std::thread::yield_now();
    }
    pool.prefetch([tail]);
    pool.free_blocks(tail, 1).unwrap();
    assert_eq!(pool.device().num_blocks(), 1, "the file lost its tail");
    pool.wait_prefetch_idle();
    fp.set_read_latency(Duration::ZERO);

    assert_eq!(pool.resident(), 1, "only the first hint mapped a frame");
    assert_eq!((pool.io_stats().snapshot() - io0).reads, 1);
    assert!(matches!(
        pool.pin(tail),
        Err(StorageError::OutOfBounds { .. })
    ));
    assert_eq!(pool.read(b, |d| d[0]).unwrap(), 1);
}

/// A hint for a freed block that sits below a live one (a hole, so the
/// file keeps its old bytes) loads those bytes into a frame. Once the tail
/// above it is freed too, the file shrinks and the id is reissued: the new
/// owner reads zeros, never the frame the late load left behind.
#[test]
fn a_late_prefetch_never_leaks_into_a_reissued_id() {
    let _wd = Watchdog::arm("a_late_prefetch_never_leaks_into_a_reissued_id", WATCHDOG);
    let dev = FailpointDevice::new(Box::new(FileBlockDevice::temp(64).unwrap()));
    let fp = dev.handle();
    let pool = BufferPool::new(
        Box::new(dev),
        PoolConfig {
            frames: 4,
            prefetch_depth: 1,
            ..PoolConfig::default()
        },
    );
    let b = pool.allocate_blocks(3).unwrap();
    let (hole, top) = (b.offset(1), b.offset(2));
    for i in 0..3 {
        pool.write_new(b.offset(i), |d| d[0] = 0xEE).unwrap();
    }
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();

    fp.set_read_latency(Duration::from_millis(100));
    pool.prefetch([b]);
    while pool.resident() == 0 {
        std::thread::yield_now();
    }
    pool.prefetch([hole]);
    pool.free_blocks(hole, 1).unwrap();
    pool.wait_prefetch_idle();
    fp.set_read_latency(Duration::ZERO);
    assert_eq!(pool.resident(), 2, "the late load mapped the freed hole");

    pool.free_blocks(top, 1).unwrap();
    assert_eq!(pool.allocate_blocks(2).unwrap(), hole, "the id is reissued");
    assert_eq!(
        pool.read(hole, |d| d[0]).unwrap(),
        0,
        "a fresh block reads zeros"
    );
}

/// Barrier-scheduled single flight against a background prefetch: N
/// threads pin a block whose prefetch load is held open by injected
/// latency — exactly one device read happens, and exactly one pin counts
/// the prefetch hit.
#[test]
fn concurrent_pins_of_one_inflight_prefetch_coalesce() {
    let _wd = Watchdog::arm(
        "concurrent_pins_of_one_inflight_prefetch_coalesce",
        WATCHDOG,
    );
    let (pool, fp) = failpoint_pool(4, 1, 1);
    let b = pool.allocate_blocks(1).unwrap();
    pool.write_new(b, |d| d[0] = 77).unwrap();
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    let io0 = pool.io_stats().snapshot();

    fp.set_read_latency(Duration::from_millis(80));
    pool.prefetch([b]);
    // Wait until the claim is visible (the block maps while LoadInFlight).
    while pool.resident() == 0 {
        std::thread::yield_now();
    }
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
    let io = pool.io_stats().snapshot() - io0;
    assert_eq!(io.reads, 1, "one background read served all four pins");
    let s = pool.pool_stats();
    assert_eq!(s.prefetch_issued, 1);
    assert_eq!(s.prefetch_hits, 1, "exactly one pin accounts the hit");
    assert_eq!(s.hits, 4, "all four pins were cache hits");
}

/// The acceptance-criterion overlap bound: K distinct-block loads with
/// injected latency L complete in well under the serial K·L when declared
/// to the prefetcher up front. Gated to >= 2 cores — on a single-core
/// box the workers cannot genuinely overlap.
#[test]
fn prefetched_window_beats_serial_wall_clock() {
    if cores() < 2 {
        eprintln!("skipping: needs >= 2 cores for genuine overlap");
        return;
    }
    let _wd = Watchdog::arm("prefetched_window_beats_serial_wall_clock", WATCHDOG);
    const K: u64 = 6;
    let latency = Duration::from_millis(40);
    let serial = latency * K as u32; // K demand misses, one at a time

    let (pool, fp) = failpoint_pool(16, 8, 4);
    assert!(pool.device_concurrent_io());
    let start = pool.allocate_blocks(K).unwrap();
    for i in 0..K {
        pool.write_new(start.offset(i), |d| d[0] = i as u8).unwrap();
    }
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    let io0 = pool.io_stats().snapshot();

    fp.set_read_latency(latency);
    let t0 = Instant::now();
    let window: Vec<BlockId> = (0..K).map(|i| start.offset(i)).collect();
    pool.prefetch(window.iter().copied());
    for i in 0..K {
        assert_eq!(pool.read(start.offset(i), |d| d[0]).unwrap(), i as u8);
    }
    let elapsed = t0.elapsed();

    // Exact counted I/O even while racing the workers…
    assert_eq!((pool.io_stats().snapshot() - io0).reads, K);
    // …and genuinely overlapped: comfortably under 0.6 of the serial
    // wall-clock (6 × 40 ms = 240 ms serial; 8 workers ≈ one 40 ms wave).
    assert!(
        elapsed < serial.mul_f64(0.6),
        "prefetched scan took {elapsed:?}, serial bound {serial:?}"
    );
    // The in-flight gauges prove real concurrency, not lucky timing.
    assert!(
        pool.in_flight().peak_loads() >= 2,
        "peak loads {} never overlapped",
        pool.in_flight().peak_loads()
    );
}

/// Prefetching must never deadlock with demand misses competing for the
/// same shard: hammer a small striped pool from four threads, each
/// declaring a window then pinning it.
#[test]
fn prefetch_and_demand_pins_interleave_safely() {
    let _wd = Watchdog::arm("prefetch_and_demand_pins_interleave_safely", WATCHDOG);
    let (pool, _fp) = failpoint_pool(8, 2, 2);
    let start = pool.allocate_blocks(32).unwrap();
    for i in 0..32 {
        pool.write_new(start.offset(i), |d| d[0] = i as u8).unwrap();
    }
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                for round in 0..50u64 {
                    let i = (t * 7 + round) % 32;
                    let window: Vec<BlockId> =
                        (i..(i + 3).min(32)).map(|j| start.offset(j)).collect();
                    pool.prefetch(window.iter().copied());
                    assert_eq!(pool.read(start.offset(i), |d| d[0]).unwrap(), i as u8);
                }
            });
        }
    });
    pool.wait_prefetch_idle();
    // Gauges drain; nothing leaked.
    assert_eq!(pool.in_flight().loads(), 0);
    assert_eq!(pool.in_flight().writebacks(), 0);
}
