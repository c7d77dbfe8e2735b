//! Crash-at-every-write-prefix recovery matrix for [`CatalogStore`].
//!
//! Each case shares one `Arc<MemBlockDevice>` between a pre-crash world
//! (wrapped in a [`FailpointDevice`] whose `crash_after_writes(n)` admits
//! exactly `n` more writes, then rejects writes *and* syncs — a
//! crash-stop) and a post-crash world that reopens the bare memory device
//! as a fresh process would. For every admitted-write prefix `n`, the
//! recovered catalog must be **fully-old or fully-new** — never partial,
//! never an error — and previously committed object data must still read
//! back.

use riot_storage::{
    BlockDevice, BufferPool, Catalog, CatalogStore, FailpointDevice, MemBlockDevice, PoolConfig,
    VerifyingDevice,
};
use std::sync::Arc;

const BS: usize = 64;

fn pool_over(dev: Box<dyn BlockDevice>) -> BufferPool {
    BufferPool::new(
        dev,
        PoolConfig {
            frames: 8,
            ..PoolConfig::default()
        },
    )
}

/// One matrix cell: admit `budget` writes during the second commit, crash,
/// recover from the shared device. Returns (commit succeeded, recovered
/// names, recovered version) plus asserts the invariants common to every
/// cell.
fn crash_cell(budget: u64) -> (bool, bool, u64) {
    let mem = Arc::new(MemBlockDevice::new(BS));
    let fpd = FailpointDevice::new(Box::new(Arc::clone(&mem)));
    let fp = fpd.handle();
    let pool = pool_over(Box::new(fpd));

    // Pre-crash: format, build object "a" (with data), commit it (v2).
    let mut store = CatalogStore::format(pool.device()).unwrap();
    let mut cat = Catalog::new();
    let (_, ext_a) = cat.create(&pool, 1, Some("a")).unwrap();
    pool.write_new(ext_a.block(0), |d| d[0] = 0xA1).unwrap();
    pool.flush_all().unwrap();
    store.commit(pool.device(), &cat).unwrap();

    // Crash phase: a second commit (with a name long enough to spread the
    // snapshot over several 64-byte blocks) under a write budget.
    fp.crash_after_writes(budget);
    cat.create(&pool, 1, Some("b-with-a-rather-long-name"))
        .unwrap();
    let committed = store.commit(pool.device(), &cat).is_ok();

    // Post-crash: reopen the bare device, as a new process would.
    let (store2, recovered) =
        CatalogStore::open(&*mem).expect("recovery must never fail at a crash boundary");
    let has_a = recovered.find_by_name("a").is_some();
    let has_b = recovered
        .find_by_name("b-with-a-rather-long-name")
        .is_some();
    assert!(has_a, "budget {budget}: committed object lost");
    if has_b {
        assert_eq!(store2.version(), 3, "budget {budget}");
        assert_eq!(recovered.len(), 2, "budget {budget}: fully-new or nothing");
    } else {
        assert_eq!(store2.version(), 2, "budget {budget}");
        assert_eq!(recovered.len(), 1, "budget {budget}: fully-old or nothing");
    }
    // Object a's extent survived verbatim, and its data reads back.
    let ra = recovered.find_by_name("a").unwrap();
    assert_eq!(recovered.extent(ra).unwrap(), ext_a, "budget {budget}");
    let mut buf = vec![0u8; BS];
    mem.read_block(ext_a.block(0), &mut buf).unwrap();
    assert_eq!(buf[0], 0xA1, "budget {budget}: committed data lost");
    (committed, has_b, store2.version())
}

#[test]
fn crash_at_every_write_prefix_recovers_old_or_new() {
    let mut saw_old = false;
    let mut saw_new_after_crash = false;
    let mut succeeded_at = None;
    for budget in 0..32 {
        let (committed, has_b, _) = crash_cell(budget);
        if committed {
            assert!(has_b, "a successful commit must be visible");
            succeeded_at = Some(budget);
            break;
        }
        if has_b {
            // Crashed after the commit point (e.g. on the trailing sync):
            // the new catalog is already durable.
            saw_new_after_crash = true;
        } else {
            saw_old = true;
        }
    }
    let budget = succeeded_at.expect("commit should fit in 32 writes");
    assert!(saw_old, "matrix never exercised an early crash");
    assert!(
        saw_new_after_crash,
        "matrix never exercised a crash past the commit point"
    );
    // Budgets beyond the successful run change nothing.
    let (committed, has_b, version) = crash_cell(budget + 8);
    assert!(committed && has_b && version == 3);
}

#[test]
fn recovery_is_a_valid_base_for_further_commits() {
    for budget in 0..6 {
        let mem = Arc::new(MemBlockDevice::new(BS));
        let fpd = FailpointDevice::new(Box::new(Arc::clone(&mem)));
        let fp = fpd.handle();
        let pool = pool_over(Box::new(fpd));
        let mut store = CatalogStore::format(pool.device()).unwrap();
        let mut cat = Catalog::new();
        cat.create(&pool, 1, Some("a")).unwrap();
        store.commit(pool.device(), &cat).unwrap();
        fp.crash_after_writes(budget);
        cat.create(&pool, 1, Some("b")).unwrap();
        let _ = store.commit(pool.device(), &cat);

        // Recover, then keep working on a clean pool over the same device.
        let (mut store2, mut recovered) = CatalogStore::open(&*mem).unwrap();
        let pool2 = pool_over(Box::new(Arc::clone(&mem)));
        recovered.create(&pool2, 1, Some("c")).unwrap();
        store2
            .commit(pool2.device(), &recovered)
            .expect("budget {budget}: post-recovery commit");
        let (_, fin) = CatalogStore::open(&*mem).unwrap();
        assert!(fin.find_by_name("a").is_some(), "budget {budget}");
        assert!(fin.find_by_name("c").is_some(), "budget {budget}");
    }
}

/// The same matrix through a [`VerifyingDevice`]: the crash-stop now sits
/// *below* the checksum layer, so a torn logical write (data block
/// admitted, checksum update rejected) surfaces as corruption on reopen —
/// which superblock recovery must treat as an invalid slot, not an error.
#[test]
fn crash_matrix_holds_below_the_checksum_layer() {
    let mut outcomes = std::collections::BTreeSet::new();
    for budget in 0..48 {
        let mem = Arc::new(MemBlockDevice::new(BS));
        let fpd = FailpointDevice::new(Box::new(Arc::clone(&mem)));
        let fp = fpd.handle();
        let pool = pool_over(Box::new(VerifyingDevice::new(fpd)));
        let mut store = CatalogStore::format(pool.device()).unwrap();
        let mut cat = Catalog::new();
        let (_, ext_a) = cat.create(&pool, 1, Some("a")).unwrap();
        pool.write_new(ext_a.block(0), |d| d[0] = 0x5A).unwrap();
        pool.flush_all().unwrap();
        store.commit(pool.device(), &cat).unwrap();

        fp.crash_after_writes(budget);
        cat.create(&pool, 1, Some("b")).unwrap();
        let committed = store.commit(pool.device(), &cat).is_ok();

        // Post-crash: a fresh verifying view over the bare device.
        let vdev = VerifyingDevice::new(Arc::clone(&mem));
        let (store2, recovered) =
            CatalogStore::open(&vdev).expect("recovery must never fail at a crash boundary");
        let has_b = recovered.find_by_name("b").is_some();
        assert!(recovered.find_by_name("a").is_some(), "budget {budget}");
        assert_eq!(
            store2.version(),
            if has_b { 3 } else { 2 },
            "budget {budget}"
        );
        if committed {
            assert!(has_b, "budget {budget}: successful commit visible");
        }
        // Committed data still reads back *with its checksum validating*.
        let ra = recovered.find_by_name("a").unwrap();
        let mut buf = vec![0u8; BS];
        vdev.read_block(recovered.extent(ra).unwrap().block(0), &mut buf)
            .unwrap();
        assert_eq!(buf[0], 0x5A, "budget {budget}");
        outcomes.insert((committed, has_b));
        if committed {
            break;
        }
    }
    assert!(outcomes.contains(&(false, false)), "no early-crash cell");
    assert!(outcomes.contains(&(true, true)), "no successful cell");
}
