//! Durable-context integration tests: dense arrays that survive a
//! process boundary (clean shutdown) and a crash-stop at arbitrary write
//! prefixes (the catalog recovers fully-old or fully-new; objects whose
//! creation spans commits either reopen fully or fail *cleanly*).

use riot_array::context::StorageCtx;
use riot_array::linear::TileOrder;
use riot_array::matrix::{DenseMatrix, MatrixLayout};
use riot_array::vector::DenseVector;
use riot_storage::{
    BlockDevice, BufferPool, FailpointDevice, MemBlockDevice, PoolConfig, StorageError,
};
use std::sync::Arc;

const BS: usize = 512; // 64 elements/block -> 8x8 square tiles

fn pool_over(dev: Box<dyn BlockDevice>) -> BufferPool {
    BufferPool::new(
        dev,
        PoolConfig {
            frames: 32,
            ..PoolConfig::default()
        },
    )
}

#[test]
fn dense_arrays_reopen_within_a_session() {
    // Satellite check independent of durability: headers registered at
    // creation let a *non-durable* context resolve names too.
    let ctx = StorageCtx::new_mem(BS, 16);
    let data: Vec<f64> = (0..13 * 9).map(|i| i as f64).collect();
    DenseMatrix::from_rows(
        &ctx,
        13,
        9,
        &data,
        MatrixLayout::Square,
        TileOrder::Hilbert,
        Some("m"),
    )
    .unwrap();
    let v = DenseVector::from_slice(&ctx, &[1.0, 2.0, 3.0], Some("v")).unwrap();
    drop(v);

    let m = DenseMatrix::open(&ctx, "m").unwrap();
    assert_eq!(m.shape(), (13, 9));
    assert_eq!(m.layout(), MatrixLayout::Square);
    assert_eq!(m.order(), TileOrder::Hilbert);
    assert_eq!(m.to_rows().unwrap(), data);
    assert_eq!(
        DenseVector::open(&ctx, "v").unwrap().to_vec().unwrap(),
        [1.0, 2.0, 3.0]
    );
}

#[test]
fn open_rejects_unknown_names_and_kind_mismatches() {
    let ctx = StorageCtx::new_mem(BS, 16);
    DenseVector::from_slice(&ctx, &[4.0], Some("v")).unwrap();
    assert!(matches!(
        DenseMatrix::open(&ctx, "nope"),
        Err(StorageError::CannotReopen { .. })
    ));
    assert!(matches!(
        DenseMatrix::open(&ctx, "v"),
        Err(StorageError::CannotReopen { reason, .. }) if reason.contains("not a dense matrix")
    ));
    assert!(matches!(
        DenseVector::open(&ctx, "nope"),
        Err(StorageError::CannotReopen { .. })
    ));
}

#[test]
fn durable_context_survives_a_clean_restart() {
    let mem = Arc::new(MemBlockDevice::new(BS));
    let data: Vec<f64> = (0..20 * 11).map(|i| (i as f64).sin()).collect();
    {
        let ctx = StorageCtx::new_durable(pool_over(Box::new(Arc::clone(&mem)))).unwrap();
        assert!(ctx.is_durable());
        DenseMatrix::from_rows(
            &ctx,
            20,
            11,
            &data,
            MatrixLayout::RowMajor,
            TileOrder::RowMajor,
            Some("m"),
        )
        .unwrap();
        DenseVector::from_slice(&ctx, &[9.0, 8.0, 7.0], Some("v")).unwrap();
        ctx.commit().unwrap(); // flush data + commit catalog
    } // "process exit": every handle dropped

    let ctx = StorageCtx::open(pool_over(Box::new(Arc::clone(&mem)))).unwrap();
    assert!(ctx.is_durable());
    let m = DenseMatrix::open(&ctx, "m").unwrap();
    assert_eq!(m.to_rows().unwrap(), data);
    let v = DenseVector::open(&ctx, "v").unwrap();
    assert_eq!(v.to_vec().unwrap(), [9.0, 8.0, 7.0]);
    // The reopened context keeps committing durably.
    v.free().unwrap();
    let ctx2 = StorageCtx::open(pool_over(Box::new(Arc::clone(&mem)))).unwrap();
    assert!(DenseVector::open(&ctx2, "v").is_err(), "drop was committed");
    assert!(DenseMatrix::open(&ctx2, "m").is_ok());
}

#[test]
fn every_catalog_mutation_is_committed_without_an_explicit_checkpoint() {
    let mem = Arc::new(MemBlockDevice::new(BS));
    let ctx = StorageCtx::new_durable(pool_over(Box::new(Arc::clone(&mem)))).unwrap();
    let v0 = ctx.catalog_version().unwrap();
    ctx.create_object(2, Some("raw")).unwrap();
    assert!(ctx.catalog_version().unwrap() > v0, "create auto-commits");
    // No ctx.commit() — metadata must already be durable (data is not).
    let ctx2 = StorageCtx::open(pool_over(Box::new(Arc::clone(&mem)))).unwrap();
    assert!(ctx2.find_object("raw").is_some());
}

#[test]
fn ctx_crash_matrix_recovers_a_valid_catalog_at_every_prefix() {
    let mut clean_failures = 0;
    let mut full_successes = 0;
    for budget in 0..64 {
        let mem = Arc::new(MemBlockDevice::new(BS));
        let fpd = FailpointDevice::new(Box::new(Arc::clone(&mem)));
        let fp = fpd.handle();
        let ctx = StorageCtx::new_durable(pool_over(Box::new(fpd))).unwrap();
        let v = DenseVector::from_slice(&ctx, &[5.0, 6.0], Some("v")).unwrap();
        ctx.commit().unwrap();
        drop(v);

        fp.crash_after_writes(budget);
        let created = DenseMatrix::from_rows(
            &ctx,
            8,
            8,
            &vec![1.5; 64],
            MatrixLayout::Square,
            TileOrder::RowMajor,
            Some("m"),
        )
        .and_then(|_| ctx.commit())
        .is_ok();

        // Post-crash world over the bare device.
        let ctx2 = StorageCtx::open(pool_over(Box::new(Arc::clone(&mem))))
            .expect("catalog recovery must never fail");
        // The pre-crash checkpointed vector is always intact, data included.
        let v = DenseVector::open(&ctx2, "v").unwrap();
        assert_eq!(v.to_vec().unwrap(), [5.0, 6.0], "budget {budget}");
        // The in-flight matrix either reopens fully or fails cleanly —
        // a half-created object never opens as a broken handle.
        match DenseMatrix::open(&ctx2, "m") {
            Ok(m) => {
                assert_eq!(m.shape(), (8, 8), "budget {budget}");
                if created {
                    assert_eq!(m.to_rows().unwrap(), vec![1.5; 64], "budget {budget}");
                    full_successes += 1;
                }
            }
            Err(StorageError::CannotReopen { .. }) => clean_failures += 1,
            Err(other) => panic!("budget {budget}: unexpected error {other}"),
        }
        if created {
            break;
        }
    }
    assert!(
        clean_failures > 0,
        "matrix never exercised a mid-create crash"
    );
    assert_eq!(full_successes, 1, "the un-crashed run must round-trip");
}

#[test]
fn open_refuses_an_unformatted_device() {
    let mem = Arc::new(MemBlockDevice::new(BS));
    assert!(StorageCtx::open(pool_over(Box::new(mem))).is_err());
}
