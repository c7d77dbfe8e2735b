//! Property tests for the block-compressed sparse format: construction,
//! round-trips, and random access agree with a dense reference scatter
//! across random shapes and densities — and, deterministically, across
//! every seam page packing creates (`packing_seams_round_trip`).

use std::sync::Arc;

use proptest::prelude::*;
use riot_array::{DenseMatrix, MatrixLayout, StorageCtx, TileOrder};
use riot_sparse::{SparseMatrix, TileSlot};

fn ctx() -> Arc<StorageCtx> {
    // 512-byte blocks: 64 elements, 8x8 square tiles.
    StorageCtx::new_mem(512, 256)
}

/// `(rows, cols, triplets)` with shapes in 1..40 and density up to ~0.5.
fn sparse_case() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..40, 1usize..40, 0usize..800, any::<u64>()).prop_map(|(rows, cols, raw, seed)| {
        // Derive triplets deterministically from the seed so every case
        // replays; density = raw / (rows*cols), capped at ~0.5.
        let target = raw.min(rows * cols / 2);
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let trips: Vec<(usize, usize, f64)> = (0..target)
            .map(|_| {
                let r = (next() % rows as u64) as usize;
                let c = (next() % cols as u64) as usize;
                let v = (next() % 1000) as f64 / 100.0 - 5.0;
                (r, c, v)
            })
            .collect();
        (rows, cols, trips)
    })
}

fn scatter(rows: usize, cols: usize, trips: &[(usize, usize, f64)]) -> Vec<f64> {
    let mut out = vec![0.0; rows * cols];
    for &(r, c, v) in trips {
        out[r * cols + c] += v;
    }
    out
}

/// Every run of the directory, tile-row by tile-row.
fn runs(m: &SparseMatrix) -> Vec<Vec<TileSlot>> {
    (0..m.tile_grid().0).map(|ti| m.row(ti).to_vec()).collect()
}

fn transposed(rows: usize, cols: usize, m: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = m[r * cols + c];
        }
    }
    out
}

/// Triplets of a `rows x 38` matrix (8x8 tiles: triples up to 8
/// non-zeros, CSR up to 27, dense above; the last tile column is 6 wide)
/// laid out to hit every seam of the packed format. `fill(ti, tj, n)`
/// occupies the first `n` in-bounds cells of tile `(ti, tj)`.
fn seam_triplets() -> Vec<(usize, usize, f64)> {
    let mut trips = Vec::new();
    let mut fill = |ti: usize, tj: usize, n: usize| {
        let w = 8.min(38 - 8 * tj);
        for k in 0..n {
            let v = (trips.len() + 1) as f64 * if k % 2 == 0 { 0.25 } else { -0.5 };
            trips.push((8 * ti + k / w, 8 * tj + k % w, v));
        }
    };
    // Tile-row 0 stays empty. Tile-row 1: CSR (31 elements) + triples
    // (24) + triples (9) fill page 0 to the last element; two more
    // entries open page 1, and the dense-form tile after them takes
    // page 2 whole.
    fill(1, 0, 11);
    fill(1, 1, 8);
    fill(1, 2, 3);
    fill(1, 3, 2);
    fill(1, 4, 30);
    // Tile-row 2 stays empty. Tile-rows 3, 4 and 5 share page 3; tile
    // (5, 4) sits in the ragged corner when the matrix has 45 rows.
    fill(3, 0, 1);
    fill(3, 2, 10);
    fill(4, 1, 5);
    fill(5, 4, 2);
    trips
}

/// `(page, offset)` of every occupied tile of the seam matrix, in
/// directory order.
const SEAM_SLOTS: [(u32, u32); 9] = [
    (0, 0),
    (0, 31),
    (0, 55),
    (1, 0),
    (2, 0),
    (3, 0),
    (3, 3),
    (3, 32),
    (3, 47),
];

/// The seams packing creates: a tile that exactly fills the rest of its
/// page, a dense-form tile between two packed ones, a page shared by
/// tile-rows, empty tile-rows at the start, in the middle and (at 53
/// rows) at the end, a ragged last tile-row and tile column — checked
/// through `get` on every cell and round-trips through `transpose`,
/// `to_dense`, `from_dense` and a reopen from storage.
#[test]
fn packing_seams_round_trip() {
    let trips = seam_triplets();
    for rows in [45, 53] {
        let cols = 38;
        let c = ctx();
        let m =
            SparseMatrix::from_triplets(&c, rows, cols, MatrixLayout::Square, &trips, Some("m"))
                .unwrap();
        let slots: Vec<(u32, u32)> = runs(&m).concat().iter().map(|s| (s.page, s.off)).collect();
        assert_eq!(slots, SEAM_SLOTS);
        assert_eq!((m.occupied_tiles(), m.occupied_pages()), (9, 4));
        let empty: Vec<u64> = (0..m.tile_grid().0)
            .filter(|&ti| m.row(ti).is_empty())
            .collect();
        assert_eq!(
            empty,
            if rows == 45 {
                vec![0, 2]
            } else {
                vec![0, 2, 6]
            }
        );

        let want = scatter(rows, cols, &trips);
        assert_eq!(m.to_rows().unwrap(), want);
        for r in 0..rows {
            for cc in 0..cols {
                assert_eq!(m.get(r, cc).unwrap(), want[r * cols + cc], "({r}, {cc})");
            }
        }

        let t = m.transpose(None).unwrap();
        assert_eq!(t.to_rows().unwrap(), transposed(rows, cols, &want));
        let back = t.transpose(None).unwrap();
        assert_eq!(back.to_rows().unwrap(), want);
        assert_eq!(runs(&back), runs(&m), "t(t(A)) packs exactly like A");

        let dense = m.to_dense(TileOrder::RowMajor, None).unwrap();
        assert_eq!(dense.to_rows().unwrap(), want);
        let again = SparseMatrix::from_dense(&dense, None).unwrap();
        assert_eq!(
            runs(&again),
            runs(&m),
            "from_dense packs exactly like from_triplets"
        );
        assert_eq!(again.to_rows().unwrap(), want);

        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let reopened = SparseMatrix::open(&c, "m").unwrap();
        assert_eq!(runs(&reopened), runs(&m));
        assert_eq!(reopened.to_rows().unwrap(), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn triplets_match_dense_scatter(case in sparse_case()) {
        let (rows, cols, trips) = case;
        let c = ctx();
        let m = SparseMatrix::from_triplets(&c, rows, cols, MatrixLayout::Square, &trips, None)
            .unwrap();
        let want = scatter(rows, cols, &trips);
        prop_assert_eq!(m.to_rows().unwrap(), want.clone());
        prop_assert_eq!(m.nnz() as usize, want.iter().filter(|v| **v != 0.0).count());
        // Random access agrees at a few probed cells.
        for &(r, cc, _) in trips.iter().take(5) {
            prop_assert_eq!(m.get(r, cc).unwrap(), want[r * cols + cc]);
        }
    }

    #[test]
    fn dense_sparse_roundtrip(case in sparse_case()) {
        let (rows, cols, trips) = case;
        let c = ctx();
        let want = scatter(rows, cols, &trips);
        let dense = DenseMatrix::from_rows(
            &c, rows, cols, &want, MatrixLayout::Square, TileOrder::RowMajor, None,
        ).unwrap();
        let sp = SparseMatrix::from_dense(&dense, None).unwrap();
        prop_assert_eq!(sp.to_rows().unwrap(), want.clone());
        let back = sp.to_dense(TileOrder::RowMajor, None).unwrap();
        prop_assert_eq!(back.to_rows().unwrap(), want);
        prop_assert!(sp.occupied_pages() <= sp.dense_blocks());
    }

    #[test]
    fn persisted_directory_roundtrips(case in sparse_case()) {
        let (rows, cols, trips) = case;
        let c = ctx();
        let m = SparseMatrix::from_triplets(&c, rows, cols, MatrixLayout::Square, &trips, Some("m"))
            .unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let disk = SparseMatrix::open(&c, "m").unwrap();
        prop_assert_eq!((c.io_snapshot() - before).reads, m.dir_blocks());
        prop_assert_eq!(runs(&disk), runs(&m));
        // The runs list exactly the tiles that hold a non-zero.
        let want = scatter(rows, cols, &trips);
        let (tr, tc) = m.tile_grid();
        for ti in 0..tr {
            for tj in 0..tc {
                let occupied = (0..rows).any(|r| (0..cols).any(|cc| {
                    (r / 8, cc / 8) == (ti as usize, tj as usize) && want[r * cols + cc] != 0.0
                }));
                prop_assert_eq!(disk.slot(ti, tj).is_some(), occupied);
            }
        }
    }
}
