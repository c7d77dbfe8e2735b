//! Concurrency tests for the buffer pool: no lost write-backs under
//! multi-threaded pin/unpin/evict pressure, and counters that reconcile
//! with every pin taken.

use std::sync::Arc;

use riot_storage::{BlockId, BufferPool, MemBlockDevice, PoolConfig};

fn pool(frames: usize) -> BufferPool {
    BufferPool::new(
        Box::new(MemBlockDevice::new(64)),
        PoolConfig {
            frames,
            ..PoolConfig::default()
        },
    )
}

/// Multi-threaded pin/unpin/evict stress: each thread owns a disjoint set
/// of blocks far larger than its share of the pool, and hammers them with
/// read-modify-write cycles. Constant eviction pressure forces dirty
/// write-backs and reloads on every thread; at the end, every block must
/// hold exactly the value its owner last wrote — any lost write-back or
/// torn page shows up as a mismatch.
#[test]
fn stress_no_lost_writebacks_under_eviction() {
    const THREADS: u64 = 4;
    const BLOCKS_PER_THREAD: u64 = 32;
    const ROUNDS: u64 = 50;

    // 32 frames vs 128 live blocks: heavy eviction. Each worker holds one
    // pin at a time, so the pool cannot be transiently exhausted.
    let pool = Arc::new(pool(32));
    let base = pool.allocate_blocks(THREADS * BLOCKS_PER_THREAD).unwrap();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                let my = |i: u64| base.offset(t * BLOCKS_PER_THREAD + i);
                for i in 0..BLOCKS_PER_THREAD {
                    let mut g = pool.pin_new(my(i)).unwrap();
                    g[0] = (t * 1000) as f64;
                    g[1] = i as f64;
                }
                for round in 1..=ROUNDS {
                    for i in 0..BLOCKS_PER_THREAD {
                        let mut g = pool.pin_mut(my(i)).unwrap();
                        // The value must be whatever this thread wrote last,
                        // no matter how many evictions happened in between.
                        assert_eq!(
                            g[0],
                            (t * 1000 + round - 1) as f64,
                            "thread {t} block {i} lost a write before round {round}"
                        );
                        assert_eq!(g[1], i as f64);
                        g[0] = (t * 1000 + round) as f64;
                    }
                }
            });
        }
    });

    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    // Verify from the device through a cold cache.
    for t in 0..THREADS {
        for i in 0..BLOCKS_PER_THREAD {
            let g = pool.pin(base.offset(t * BLOCKS_PER_THREAD + i)).unwrap();
            assert_eq!(g[0], (t * 1000 + ROUNDS) as f64);
            assert_eq!(g[1], i as f64);
        }
    }

    // Accounting reconciles: every pin was either a hit or a miss.
    let pins = THREADS * BLOCKS_PER_THREAD * (ROUNDS + 1) // worker pins
        + THREADS * BLOCKS_PER_THREAD; // verification pins
    let s = pool.pool_stats();
    assert_eq!(s.hits + s.misses, pins);
    // Under this much pressure the pool must both hit and evict.
    assert!(s.misses > 0 && s.evict_writebacks > 0);
}

/// Many threads pinning the same blocks read-only must all see the same
/// stable contents while eviction churns the rest of the pool.
#[test]
fn stress_shared_readers_with_churn() {
    let pool = Arc::new(pool(8));
    let hot = pool.allocate_blocks(4).unwrap();
    let cold = pool.allocate_blocks(64).unwrap();
    for i in 0..4 {
        pool.write_new(hot.offset(i), |d| d[0] = 100 + i as u8)
            .unwrap();
    }

    std::thread::scope(|s| {
        // Readers verify hot blocks.
        for _ in 0..3 {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                for _ in 0..300 {
                    for i in 0..4 {
                        let g = pool.pin(hot.offset(i)).unwrap();
                        assert_eq!(g.as_bytes()[0], 100 + i as u8);
                    }
                }
            });
        }
        // A churner floods the pool with cold blocks, forcing eviction.
        let pool = Arc::clone(&pool);
        s.spawn(move || {
            for round in 0..20 {
                for i in 0..64 {
                    pool.write(cold.offset(i), |d| d[1] = round).unwrap();
                }
            }
        });
    });

    for i in 0..64 {
        assert_eq!(pool.read(cold.offset(i), |d| d[1]).unwrap(), 19);
    }
}

/// Exclusive and shared pins from racing threads never overlap: writers
/// increment a counter in the page, readers only ever observe settled
/// values written under exclusive pins.
#[test]
fn exclusive_pins_exclude_readers() {
    let pool = Arc::new(pool(4));
    let b = pool.allocate_blocks(1).unwrap();
    pool.write_new(b, |d| d[0] = 0).unwrap();

    std::thread::scope(|s| {
        for _ in 0..2 {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                for _ in 0..500 {
                    let mut g = pool.pin_mut(b).unwrap();
                    // Torn-state probe: double-write then fix up; readers
                    // must never observe the intermediate value.
                    let v = g[0];
                    g[0] = -1.0;
                    g[0] = v + 1.0;
                }
            });
        }
        for _ in 0..2 {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                for _ in 0..500 {
                    let g = pool.pin(b).unwrap();
                    let v = g[0];
                    assert!(v >= 0.0 && v == v.trunc(), "observed torn value {v}");
                }
            });
        }
    });

    let g = pool.pin(BlockId(b.0)).unwrap();
    assert_eq!(g[0], 1000.0);
}
