//! Property tests for the overlapped-I/O pool (PR 3): random
//! pin/pin_mut/unpin/alloc/free workloads against an in-memory oracle,
//! run at threads ∈ {1, 4}.
//!
//! Under eviction churn (tiny pool), data equality holds and the hit/miss
//! ledger balances exactly.

use proptest::prelude::*;
use riot_storage::{BlockId, BufferPool, MemBlockDevice, PoolConfig, PoolStats};
use std::collections::HashMap;
use std::sync::Arc;

const BS: usize = 64;

#[derive(Debug, Clone)]
enum Op {
    /// Allocate one block and fill it (pin_new) with `value`.
    Alloc(u8),
    /// Exclusive pin (pin_mut) of live block `idx % live`, overwrite with
    /// `value`.
    Write(u8, u8),
    /// Two nested shared pins of live block `idx % live`; check contents.
    Read(u8),
    /// Free live block `idx % live` (and probe that pinning it now fails).
    Free(u8),
    /// Flush every dirty frame.
    Flush,
    /// Flush + drop the whole cache.
    ClearCache,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<u8>().prop_map(Op::Alloc),
        4 => (any::<u8>(), any::<u8>()).prop_map(|(i, v)| Op::Write(i, v)),
        4 => any::<u8>().prop_map(Op::Read),
        1 => any::<u8>().prop_map(Op::Free),
        1 => Just(Op::Flush),
        1 => Just(Op::ClearCache),
    ]
}

/// Replay `ops` single-threaded against a pool of `frames` frames,
/// checking every read against the oracle as it goes and every live block
/// in a final sweep. Returns the pool counters from before that sweep.
fn run_ops(ops: &[Op], frames: usize) -> PoolStats {
    let pool = BufferPool::new(
        Box::new(MemBlockDevice::new(BS)),
        PoolConfig {
            frames,
            ..PoolConfig::default()
        },
    );
    // Oracle: live block id -> fill value (blocks are written uniformly).
    let mut oracle: HashMap<u64, f64> = HashMap::new();
    let mut live: Vec<BlockId> = Vec::new();
    for op in ops {
        match *op {
            Op::Alloc(v) => {
                let b = pool.allocate_blocks(1).unwrap();
                let mut g = pool.pin_new(b).unwrap();
                g.fill(f64::from(v));
                drop(g);
                oracle.insert(b.0, f64::from(v));
                live.push(b);
            }
            Op::Write(i, v) => {
                if live.is_empty() {
                    continue;
                }
                let b = live[i as usize % live.len()];
                let mut g = pool.pin_mut(b).unwrap();
                g.fill(f64::from(v));
                drop(g);
                oracle.insert(b.0, f64::from(v));
            }
            Op::Read(i) => {
                if live.is_empty() {
                    continue;
                }
                let b = live[i as usize % live.len()];
                let g1 = pool.pin(b).unwrap();
                let g2 = pool.pin(b).unwrap();
                let want = oracle[&b.0];
                prop_assert!(g1.iter().all(|&x| x == want), "block {b} diverged");
                prop_assert_eq!(g1[0], g2[0]);
                prop_assert!(g1.pins() >= 2);
            }
            Op::Free(i) => {
                if live.is_empty() {
                    continue;
                }
                let b = live.swap_remove(i as usize % live.len());
                pool.free_blocks(b, 1).unwrap();
                oracle.remove(&b.0);
                // A freed block must reject pins from then on (the failed
                // claim counts one miss; see `pin_ledger`).
                prop_assert!(pool.pin(b).is_err());
            }
            Op::Flush => pool.flush_all().unwrap(),
            Op::ClearCache => pool.clear_cache().unwrap(),
        }
    }
    let stats = pool.pool_stats();
    // Final sweep: every live block still holds its oracle value.
    for (&id, &want) in &oracle {
        let g = pool.pin(BlockId(id)).unwrap();
        prop_assert!(g.iter().all(|&x| x == want), "final sweep: block {id}");
    }
    stats
}

/// How many hit-or-miss classifications `run_ops` produces for `ops`:
/// Alloc = 1 pin, Write = 1, Read = 2, Free = 1 failed claim (a counted
/// miss); ops on an empty live set are skipped and count nothing. Mirrors
/// `run_ops`' own skip logic exactly (liveness depends only on op order).
fn pin_ledger(ops: &[Op]) -> u64 {
    let mut live: u64 = 0;
    let mut pins = 0u64;
    for op in ops {
        match op {
            Op::Alloc(_) => {
                live += 1;
                pins += 1;
            }
            Op::Write(..) if live > 0 => pins += 1,
            Op::Read(_) if live > 0 => pins += 2,
            Op::Free(_) if live > 0 => {
                live -= 1;
                pins += 1; // probe pin: claims a load, then fails
            }
            _ => {}
        }
    }
    pins
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Eviction-churn regime: a tiny pool forces constant write-backs and
    /// reloads; data equality must survive, and the classification ledger
    /// balances exactly.
    #[test]
    fn data_equality_survives_eviction_churn(
        ops in prop::collection::vec(op_strategy(), 1..100),
        frames in 4usize..8,
    ) {
        let stats = run_ops(&ops, frames);
        prop_assert_eq!(stats.hits + stats.misses, pin_ledger(&ops));
    }

    /// Threaded regime: 4 workers over disjoint block ranges, eviction
    /// churn. Every worker verifies its own reads as it
    /// goes; the final sweep checks the device contents against the
    /// per-worker oracles, and the pin ledger must balance exactly.
    #[test]
    fn threaded_workloads_match_oracle(
        seed in any::<u64>(),
    ) {
        const THREADS: u64 = 4;
        const BLOCKS_PER_THREAD: u64 = 8;
        const OPS_PER_THREAD: u64 = 120;

        // 16 frames is more than there are concurrently-pinned blocks
        // (one per thread), so transient exhaustion is impossible while 32
        // live blocks still force steady eviction churn.
        let pool = Arc::new(BufferPool::new(
            Box::new(MemBlockDevice::new(BS)),
            PoolConfig { frames: 16, ..PoolConfig::default() },
        ));
        let base = pool.allocate_blocks(THREADS * BLOCKS_PER_THREAD).unwrap();
        let models: Vec<Vec<f64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS).map(|t| {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    let mut rng = proptest::TestRng::deterministic(seed, t);
                    let mut model = vec![0.0f64; BLOCKS_PER_THREAD as usize];
                    let my = |i: u64| base.offset(t * BLOCKS_PER_THREAD + i);
                    for i in 0..BLOCKS_PER_THREAD {
                        let mut g = pool.pin_new(my(i)).unwrap();
                        let v = (t * 100 + i) as f64;
                        g.fill(v);
                        model[i as usize] = v;
                    }
                    for _ in 0..OPS_PER_THREAD {
                        let i = rng.below(BLOCKS_PER_THREAD);
                        if rng.below(2) == 0 {
                            let v = rng.below(1000) as f64;
                            let mut g = pool.pin_mut(my(i)).unwrap();
                            assert!(
                                g.iter().all(|&x| x == model[i as usize]),
                                "thread {t} block {i}: lost update"
                            );
                            g.fill(v);
                            model[i as usize] = v;
                        } else {
                            let g = pool.pin(my(i)).unwrap();
                            assert!(
                                g.iter().all(|&x| x == model[i as usize]),
                                "thread {t} block {i}: stale read"
                            );
                        }
                    }
                    model
                })
            }).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Ledger balances: every pin was classified exactly once.
        let s = pool.pool_stats();
        prop_assert_eq!(
            s.hits + s.misses,
            THREADS * (BLOCKS_PER_THREAD + OPS_PER_THREAD),
        );

        // Through a cold cache, the device holds exactly the models.
        pool.flush_all().unwrap();
        pool.clear_cache().unwrap();
        for (t, model) in models.iter().enumerate() {
            for (i, &want) in model.iter().enumerate() {
                let b = base.offset(t as u64 * BLOCKS_PER_THREAD + i as u64);
                let g = pool.pin(b).unwrap();
                prop_assert!(
                    g.iter().all(|&x| x == want),
                    "thread {} block {} diverged on device", t, i
                );
            }
        }
    }
}
