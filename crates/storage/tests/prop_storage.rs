//! Property-based tests for the storage substrate.
//!
//! These guard the invariants listed in DESIGN.md §7: the pool must behave
//! exactly like the raw device (read-your-writes through arbitrary access
//! sequences), pinned pages must never be evicted, and the cache counters
//! must reconcile.

use proptest::prelude::*;
use riot_storage::{BufferPool, MemBlockDevice, PoolConfig};
use std::collections::HashMap;

const BS: usize = 64;

#[derive(Debug, Clone)]
enum Op {
    /// Write `value` to byte 0 of block `idx % allocated`.
    Write(u8, u8),
    /// Read block `idx % allocated` and check against the model.
    Read(u8),
    /// Flush everything.
    Flush,
    /// Drop the whole cache.
    ClearCache,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), any::<u8>()).prop_map(|(i, v)| Op::Write(i, v)),
        4 => any::<u8>().prop_map(Op::Read),
        1 => Just(Op::Flush),
        1 => Just(Op::ClearCache),
    ]
}

proptest! {
    /// Under any interleaving of reads, writes, flushes, and cache drops —
    /// with any pool size — the pool serves the same bytes a perfect
    /// in-memory model would.
    #[test]
    fn pool_is_transparent(
        ops in prop::collection::vec(op_strategy(), 1..120),
        frames in 1usize..9,
        nblocks in 1u64..24,
    ) {
        let pool = BufferPool::new(
            Box::new(MemBlockDevice::new(BS)),
            PoolConfig { frames, ..PoolConfig::default() },
        );
        let start = pool.allocate_blocks(nblocks).unwrap();
        let mut model: HashMap<u64, u8> = HashMap::new();

        for op in ops {
            match op {
                Op::Write(i, v) => {
                    let b = start.offset(u64::from(i) % nblocks);
                    pool.write(b, |d| d[0] = v).unwrap();
                    model.insert(b.0, v);
                }
                Op::Read(i) => {
                    let b = start.offset(u64::from(i) % nblocks);
                    let got = pool.read(b, |d| d[0]).unwrap();
                    let want = model.get(&b.0).copied().unwrap_or(0);
                    prop_assert_eq!(got, want, "block {}", b.0);
                }
                Op::Flush => pool.flush_all().unwrap(),
                Op::ClearCache => pool.clear_cache().unwrap(),
            }
            prop_assert!(pool.resident() <= frames, "resident exceeds capacity");
        }

        // Final sweep: every block readable and correct.
        for i in 0..nblocks {
            let b = start.offset(i);
            let got = pool.read(b, |d| d[0]).unwrap();
            let want = model.get(&b.0).copied().unwrap_or(0);
            prop_assert_eq!(got, want);
        }
    }

    /// hits + misses equals the number of pin requests.
    #[test]
    fn hit_miss_accounting(
        accesses in prop::collection::vec(any::<u8>(), 1..200),
        frames in 1usize..8,
    ) {
        let pool = BufferPool::new(
            Box::new(MemBlockDevice::new(BS)),
            PoolConfig { frames, ..PoolConfig::default() },
        );
        let start = pool.allocate_blocks(16).unwrap();
        for &a in &accesses {
            pool.write(start.offset(u64::from(a) % 16), |d| d[1] = a).unwrap();
        }
        let s = pool.pool_stats();
        prop_assert_eq!(s.hits + s.misses, accesses.len() as u64);
    }

    /// Pinned pages are never evicted even under maximal pressure, and the
    /// pool errors (rather than evicting a pinned page) when every frame is
    /// pinned.
    #[test]
    fn pinned_pages_survive(
        frames in 2usize..6,
        pressure in 1u64..40,
    ) {
        let pool = BufferPool::new(
            Box::new(MemBlockDevice::new(BS)),
            PoolConfig { frames, ..PoolConfig::default() },
        );
        let start = pool.allocate_blocks(pressure + 2).unwrap();
        let mut sentinel = pool.pin_new(start).unwrap();
        sentinel.as_bytes_mut()[0] = 0xEE;
        for i in 0..pressure {
            pool.write_new(start.offset(1 + i), |d| d[0] = i as u8).unwrap();
        }
        prop_assert_eq!(sentinel.as_bytes_mut()[0], 0xEE);
    }

    /// After flush_all, the device alone (bypassing the pool) holds exactly
    /// the logical contents.
    #[test]
    fn flush_makes_device_authoritative(
        writes in prop::collection::vec((any::<u8>(), any::<u8>()), 1..60),
        frames in 1usize..6,
    ) {
        let device = MemBlockDevice::new(BS);
        let nblocks = 12u64;
        let pool = BufferPool::new(Box::new(device), PoolConfig {
            frames, ..PoolConfig::default()
        });
        let start = pool.allocate_blocks(nblocks).unwrap();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (i, v) in writes {
            let b = start.offset(u64::from(i) % nblocks);
            pool.write(b, |d| d[0] = v).unwrap();
            model.insert(b.0, v);
        }
        pool.flush_all().unwrap();
        pool.clear_cache().unwrap();
        // ...then every read must be served from the device and match.
        for i in 0..nblocks {
            let b = start.offset(i);
            let got = pool.read(b, |d| d[0]).unwrap();
            prop_assert_eq!(got, model.get(&b.0).copied().unwrap_or(0));
        }
    }
}
