//! Sparse matrices over a durable context: reopen by name after a clean
//! restart and after a crash-stop, riding the catalog commit protocol the
//! storage layer proves in its own crash matrix.

use riot_array::context::StorageCtx;
use riot_array::matrix::MatrixLayout;
use riot_sparse::SparseMatrix;
use riot_storage::{
    BlockDevice, BufferPool, FailpointDevice, MemBlockDevice, ObjectHeader, ObjectKind, PoolConfig,
    StorageError,
};
use std::sync::Arc;

const BS: usize = 512;

fn pool_over(dev: Box<dyn BlockDevice>) -> BufferPool {
    BufferPool::new(
        dev,
        PoolConfig {
            frames: 32,
            ..PoolConfig::default()
        },
    )
}

fn triplets() -> Vec<(usize, usize, f64)> {
    vec![
        (0, 0, 1.0),
        (3, 7, -2.5),
        (12, 2, 4.0),
        (19, 19, 0.5),
        (7, 13, 3.25),
    ]
}

#[test]
fn sparse_matrix_survives_a_clean_restart() {
    let mem = Arc::new(MemBlockDevice::new(BS));
    {
        let ctx = StorageCtx::new_durable(pool_over(Box::new(Arc::clone(&mem)))).unwrap();
        SparseMatrix::from_triplets(&ctx, 20, 20, MatrixLayout::Square, &triplets(), Some("s"))
            .unwrap();
        ctx.commit().unwrap();
    }
    let ctx = StorageCtx::open(pool_over(Box::new(Arc::clone(&mem)))).unwrap();
    let s = SparseMatrix::open(&ctx, "s").unwrap();
    assert_eq!(s.shape(), (20, 20));
    assert_eq!(s.nnz(), triplets().len() as u64);
    for (r, c, v) in triplets() {
        assert_eq!(s.get(r, c).unwrap(), v);
    }
    assert_eq!(s.get(10, 10).unwrap(), 0.0);
}

/// A store written before page packing holds sparse matrices under
/// `ObjectKind` code 2 (a dense tile directory, one page per occupied
/// tile). The catalog still loads; the reopen is refused with a typed
/// error naming the old layout instead of misreading the extent.
#[test]
fn pre_packing_sparse_objects_are_refused_by_name() {
    assert_eq!(ObjectKind::from_code(2), Some(ObjectKind::SparseTilePages));
    let mem = Arc::new(MemBlockDevice::new(BS));
    {
        let ctx = StorageCtx::new_durable(pool_over(Box::new(Arc::clone(&mem)))).unwrap();
        // The old header over the old extent: 1 directory block + 5 pages.
        let (id, _) = ctx.create_object(6, Some("old")).unwrap();
        ctx.set_object_header(
            id,
            ObjectHeader {
                kind: ObjectKind::SparseTilePages,
                rows: 20,
                cols: 20,
                layout: MatrixLayout::Square.code(),
                nnz: 5,
            },
        )
        .unwrap();
        ctx.commit().unwrap();
    }
    let ctx = StorageCtx::open(pool_over(Box::new(Arc::clone(&mem)))).unwrap();
    match SparseMatrix::open(&ctx, "old") {
        Err(StorageError::CannotReopen { name, reason }) => {
            assert_eq!(name, "old");
            assert!(reason.contains("one-page-per-tile"), "{reason}");
        }
        other => panic!("expected CannotReopen, got {:?}", other.map(|m| m.shape())),
    }
}

#[test]
fn sparse_reopen_after_a_crash_is_all_or_nothing() {
    for budget in [0, 3, 7, 11, 200] {
        let mem = Arc::new(MemBlockDevice::new(BS));
        let fpd = FailpointDevice::new(Box::new(Arc::clone(&mem)));
        let fp = fpd.handle();
        let ctx = StorageCtx::new_durable(pool_over(Box::new(fpd))).unwrap();

        fp.crash_after_writes(budget);
        let created =
            SparseMatrix::from_triplets(&ctx, 20, 20, MatrixLayout::Square, &triplets(), Some("s"))
                .and_then(|_| ctx.commit())
                .is_ok();

        let ctx2 = StorageCtx::open(pool_over(Box::new(Arc::clone(&mem))))
            .expect("catalog recovery must never fail");
        match SparseMatrix::open(&ctx2, "s") {
            Ok(s) => {
                if created {
                    // Checkpointed: every triplet reads back.
                    for (r, c, v) in triplets() {
                        assert_eq!(s.get(r, c).unwrap(), v, "budget {budget}");
                    }
                } else {
                    // Metadata consistency is continuous but page data is
                    // only durable at the checkpoint: a pre-checkpoint
                    // crash may reopen a structurally valid matrix whose
                    // unflushed pages read back as stale values — reads
                    // must stay well-formed, values are unspecified.
                    for (r, c, _) in triplets() {
                        s.get(r, c).unwrap();
                    }
                }
            }
            Err(e) => assert!(
                !created,
                "budget {budget}: committed matrix failed to reopen: {e}"
            ),
        }
    }
}

/// A header whose width makes `rows * cols` overflow, or whose tile grid
/// outgrows the directory's 32-bit tile indices, is refused at `open` —
/// before anything sized by it is allocated. (Only `open` is called: a
/// matrix that claims such a shape must never reach `to_dense`.)
#[test]
fn open_refuses_a_hostile_width() {
    let (rows, cols) = (20u64, 20u64);
    for (rows, cols) in [(rows, u64::MAX), (u64::MAX / 8, cols + 1), (rows, 1 << 36)] {
        let ctx = StorageCtx::new_mem(BS, 32);
        let s =
            SparseMatrix::from_triplets(&ctx, 20, 20, MatrixLayout::Square, &triplets(), Some("s"))
                .unwrap();
        let mut header = ctx.object_header(s.object()).unwrap().unwrap();
        (header.rows, header.cols) = (rows, cols);
        ctx.set_object_header(s.object(), header).unwrap();
        match SparseMatrix::open(&ctx, "s") {
            Err(StorageError::CannotReopen { reason, .. }) => {
                assert_eq!(reason, "bad sparse dimensions", "{rows} x {cols}")
            }
            other => panic!(
                "{rows} x {cols}: expected CannotReopen, got {:?}",
                other.map(|m| m.shape())
            ),
        }
    }
}
