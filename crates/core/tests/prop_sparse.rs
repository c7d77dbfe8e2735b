//! Property tests for the sparse kernels and the optimizer's sparse
//! rules: every kernel in the `{sparse, dense} x {sparse, dense}` product
//! table agrees with the dense reference across random shapes/densities,
//! `t(t(A)) == A` through the native transpose, and the density-threshold
//! rewrites (multiply *and* transpose) preserve semantics against the
//! dense evaluation oracle. `kernels_agree_across_packing_seams` drives the
//! same kernels over a matrix built to hit every seam page packing
//! creates.

use std::sync::Arc;

use proptest::prelude::*;
use riot_array::{DenseMatrix, MatrixLayout, StorageCtx, TileOrder};
use riot_core::exec::{matmul_tiled, spmdm, spmm, Side};
use riot_core::{evaluate, optimize, ExprGraph, MemSources, OptConfig, Value};
use riot_sparse::SparseMatrix;

fn ctx() -> Arc<StorageCtx> {
    StorageCtx::new_mem(512, 256)
}

/// `(rows, cols, triplets)` with shapes in 1..48 and density up to ~0.4.
fn sparse_case() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..48, 1usize..48, 0usize..700, any::<u64>()).prop_map(|(rows, cols, raw, seed)| {
        let target = raw.min(rows * cols * 2 / 5);
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
                let v = (next() % 900) as f64 / 100.0 - 4.5;
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

/// `data` as a one-column matrix in tall tiles.
fn column(c: &Arc<StorageCtx>, data: &[f64]) -> DenseMatrix {
    let (layout, order) = (MatrixLayout::ColMajor, TileOrder::RowMajor);
    DenseMatrix::from_rows(c, data.len(), 1, data, layout, order, None).unwrap()
}

fn close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
}

fn matmul_ref(a: &[f64], b: &[f64], n1: usize, n2: usize, n3: usize) -> Vec<f64> {
    let mut out = vec![0.0; n1 * n3];
    for i in 0..n1 {
        for k in 0..n2 {
            for j in 0..n3 {
                out[i * n3 + j] += a[i * n2 + k] * b[k * n3 + j];
            }
        }
    }
    out
}

/// Triplets of a `rows x 38` matrix (8x8 tiles: triples up to 8
/// non-zeros, CSR up to 27, dense above; the last tile column is 6 wide)
/// laid out to hit every seam of the packed format — the matrix
/// `riot-sparse`'s `packing_seams_round_trip` pins slot by slot: page 0
/// filled to its last element by a CSR and two triples tiles, a
/// dense-form tile on a page of its own between packed ones, page 3
/// shared by tile-rows 3 to 5, tile-rows 0 and 2 (and 6, at 53 rows)
/// empty, and tile (5, 4) in the ragged corner at 45 rows.
fn seam_triplets() -> Vec<(usize, usize, f64)> {
    let mut trips = Vec::new();
    let mut fill = |ti: usize, tj: usize, n: usize| {
        let w = 8.min(38 - 8 * tj);
        for k in 0..n {
            let v = (trips.len() + 1) as f64 * if k % 2 == 0 { 0.25 } else { -0.5 };
            trips.push((8 * ti + k / w, 8 * tj + k % w, v));
        }
    };
    for (ti, tj, n) in [
        (1, 0, 11),
        (1, 1, 8),
        (1, 2, 3),
        (1, 3, 2),
        (1, 4, 30),
        (3, 0, 1),
        (3, 2, 10),
        (4, 1, 5),
        (5, 4, 2),
    ] {
        fill(ti, tj, n);
    }
    trips
}

/// Every kernel of the product table, the native transpose and the
/// sparse result of `spmm` agree with the dense reference on the seam
/// matrix, at one and at four threads, and a cold `a %*% x` still reads
/// each shared page once.
#[test]
fn kernels_agree_across_packing_seams() {
    let trips = seam_triplets();
    for (rows, threads) in [(45, 1), (53, 1), (45, 4)] {
        let cols = 38;
        let c = ctx();
        let a = SparseMatrix::from_triplets(&c, rows, cols, MatrixLayout::Square, &trips, None)
            .unwrap();
        assert_eq!((a.occupied_tiles(), a.occupied_pages()), (9, 4));
        let ad = scatter(rows, cols, &trips);

        let xdata: Vec<f64> = (0..cols).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let x = column(&c, &xdata);
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let (y, flops) = spmdm(&a, &x, Side::Left, threads, None).unwrap();
        assert_eq!(
            (c.io_snapshot() - before).reads,
            a.occupied_pages() + x.blocks()
        );
        assert_eq!(flops, a.nnz());
        assert!(close(
            &y.to_rows().unwrap(),
            &matmul_ref(&ad, &xdata, rows, cols, 1)
        ));

        // A (rows x 38) times t(A) (38 x rows), the right side in every
        // format: spmm keeps the product sparse, and it round-trips
        // through to_dense / from_dense and back through the transpose.
        let at = a.transpose(None).unwrap();
        let atd = at.to_dense(TileOrder::RowMajor, None).unwrap();
        let want = matmul_ref(&ad, &atd.to_rows().unwrap(), rows, cols, rows);
        let (ss, _) = spmm(&a, &at, threads, None).unwrap();
        let (sd, _) = spmdm(&a, &atd, Side::Left, threads, None).unwrap();
        let da = a.to_dense(TileOrder::RowMajor, None).unwrap();
        let (ds, _) = spmdm(&at, &da, Side::Right, threads, None).unwrap();
        assert_close(&ss.to_rows().unwrap(), &want);
        assert_close(&sd.to_rows().unwrap(), &want);
        assert_close(&ds.to_rows().unwrap(), &want);
        let ssd = ss.to_dense(TileOrder::RowMajor, None).unwrap();
        let again = SparseMatrix::from_dense(&ssd, None).unwrap();
        assert_eq!(again.to_rows().unwrap(), ss.to_rows().unwrap());
        // A t(A) is symmetric: its transpose is itself.
        let sst = ss.transpose(None).unwrap();
        assert_close(&sst.to_rows().unwrap(), &want);

        // A thin right side (3 columns) takes the tall-tile result path.
        let bdata: Vec<f64> = (0..cols * 3).map(|k| ((k * 3) % 7) as f64 - 3.0).collect();
        let (layout, order) = (MatrixLayout::Square, TileOrder::RowMajor);
        let b = DenseMatrix::from_rows(&c, cols, 3, &bdata, layout, order, None).unwrap();
        let (thin, _) = spmdm(&a, &b, Side::Left, threads, None).unwrap();
        assert_eq!(thin.layout(), MatrixLayout::ColMajor);
        assert_close(
            &thin.to_rows().unwrap(),
            &matmul_ref(&ad, &bdata, rows, cols, 3),
        );
    }
}

fn assert_close(got: &[f64], want: &[f64]) {
    assert!(close(got, want), "got {got:?}\nwant {want:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn spmv_agrees_with_dense_kernel(case in sparse_case()) {
        let (rows, cols, trips) = case;
        let c = ctx();
        let sp = SparseMatrix::from_triplets(&c, rows, cols, MatrixLayout::Square, &trips, None)
            .unwrap();
        let dense = sp.to_dense(TileOrder::RowMajor, None).unwrap();
        let xdata: Vec<f64> = (0..cols).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let x = column(&c, &xdata);
        let (ys, sflops) = spmdm(&sp, &x, Side::Left, 1, None).unwrap();
        let (yd, _) = matmul_tiled(&dense, &x, 3 * 64, 1, None).unwrap();
        prop_assert!(close(&ys.to_rows().unwrap(), &yd.to_rows().unwrap()));
        prop_assert_eq!(sflops, sp.nnz());
    }

    #[test]
    fn spmdm_agrees_with_reference(case in sparse_case()) {
        let (n1, n2, trips) = case;
        let n3 = 5;
        let c = ctx();
        let sp = SparseMatrix::from_triplets(&c, n1, n2, MatrixLayout::Square, &trips, None)
            .unwrap();
        let bdata: Vec<f64> = (0..n2 * n3).map(|k| ((k * 3) % 7) as f64 - 3.0).collect();
        let b = DenseMatrix::from_rows(
            &c, n2, n3, &bdata, MatrixLayout::Square, TileOrder::RowMajor, None,
        ).unwrap();
        let (t, _) = spmdm(&sp, &b, Side::Left, 1, None).unwrap();
        let ad = scatter(n1, n2, &trips);
        let mut want = vec![0.0; n1 * n3];
        for i in 0..n1 {
            for k in 0..n2 {
                for j in 0..n3 {
                    want[i * n3 + j] += ad[i * n2 + k] * bdata[k * n3 + j];
                }
            }
        }
        prop_assert!(close(&t.to_rows().unwrap(), &want));
    }

    #[test]
    fn transpose_roundtrips(case in sparse_case()) {
        // t(t(A)) == A through the native kernel, and t(A) itself matches
        // the scattered reference transposed.
        let (rows, cols, trips) = case;
        let c = ctx();
        let sp = SparseMatrix::from_triplets(&c, rows, cols, MatrixLayout::Square, &trips, None)
            .unwrap();
        let t = sp.transpose(None).unwrap();
        prop_assert_eq!(t.shape(), (cols, rows));
        prop_assert_eq!(t.nnz(), sp.nnz());
        let ad = scatter(rows, cols, &trips);
        let mut want_t = vec![0.0; rows * cols];
        for r in 0..rows {
            for cc in 0..cols {
                want_t[cc * rows + r] = ad[r * cols + cc];
            }
        }
        prop_assert!(close(&t.to_rows().unwrap(), &want_t));
        let back = t.transpose(None).unwrap();
        prop_assert_eq!(back.shape(), (rows, cols));
        prop_assert!(close(&back.to_rows().unwrap(), &ad));
    }

    #[test]
    fn product_parity_across_all_format_combinations(
        a_case in sparse_case(),
        b_raw in 0usize..700,
        b_seed in any::<u64>(),
        n3 in 1usize..24,
    ) {
        // A %*% B computed by spmm, spmdm on either side and the dense
        // reference agrees whatever the operand formats.
        let (n1, n2, ta) = a_case;
        let tb = {
            let target = b_raw.min(n2 * n3 * 2 / 5);
            let mut s = b_seed | 1;
            let mut next = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
            (0..target).map(|_| {
                let r = (next() % n2 as u64) as usize;
                let c = (next() % n3 as u64) as usize;
                (r, c, (next() % 900) as f64 / 100.0 - 4.5)
            }).collect::<Vec<_>>()
        };
        let c = ctx();
        let sa = SparseMatrix::from_triplets(&c, n1, n2, MatrixLayout::Square, &ta, None).unwrap();
        let sb = SparseMatrix::from_triplets(&c, n2, n3, MatrixLayout::Square, &tb, None).unwrap();
        let da = sa.to_dense(TileOrder::RowMajor, None).unwrap();
        let db = sb.to_dense(TileOrder::RowMajor, None).unwrap();

        let ad = scatter(n1, n2, &ta);
        let bd = scatter(n2, n3, &tb);
        let mut want = vec![0.0; n1 * n3];
        for i in 0..n1 {
            for k in 0..n2 {
                for j in 0..n3 {
                    want[i * n3 + j] += ad[i * n2 + k] * bd[k * n3 + j];
                }
            }
        }

        let (ss, _) = spmm(&sa, &sb, 1, None).unwrap();       // sparse x sparse
        let (sd, _) = spmdm(&sa, &db, Side::Left, 1, None).unwrap();  // sparse x dense
        let (ds, _) = spmdm(&sb, &da, Side::Right, 1, None).unwrap(); // dense  x sparse
        prop_assert!(close(&ss.to_rows().unwrap(), &want));
        prop_assert!(close(&sd.to_rows().unwrap(), &want));
        prop_assert!(close(&ds.to_rows().unwrap(), &want));
    }

    #[test]
    fn transpose_rewrites_preserve_semantics(case in sparse_case(), threshold in 0.0f64..1.2) {
        // Whichever side of the threshold t(A) lands on (native sparse
        // transpose or densify-then-transpose), the optimized DAG must
        // evaluate to the same value as the unoptimized one.
        let (rows, cols, trips) = case;
        let mut g = ExprGraph::new();
        let mut src = MemSources::new();
        let (a_ref, nnz) = src.add_sparse(rows, cols, &trips);
        let a = g.sp_mat_source(a_ref, rows, cols, nnz);
        let t = g.transpose(a).unwrap();
        let want = evaluate(&g, t, &src).unwrap();
        let cfg = OptConfig { sparse_threshold: threshold, ..OptConfig::default() };
        let (opt, stats) = optimize(&mut g, t, &cfg);
        let got = evaluate(&g, opt, &src).unwrap();
        let (Value::Matrix { data: dg, .. }, Value::Matrix { data: dw, .. }) = (&got, &want)
        else { panic!("matrix values expected") };
        prop_assert!(close(dg, dw));
        // Exactly one physical decision was made for the transpose.
        prop_assert_eq!(stats.sparse_transposes + stats.transpose_densified, 1);
    }

    #[test]
    fn sparse_rewrites_preserve_semantics(case in sparse_case(), threshold in 0.0f64..1.2) {
        // Whatever kernel the density threshold picks, the optimized DAG
        // must evaluate to the same value as the unoptimized one under
        // the dense oracle.
        let (rows, cols, trips) = case;
        let mut g = ExprGraph::new();
        let mut src = MemSources::new();
        let (a_ref, nnz) = src.add_sparse(rows, cols, &trips);
        let bdata: Vec<f64> = (0..cols * 3).map(|k| (k % 5) as f64 - 2.0).collect();
        let b_ref = src.add_matrix(cols, 3, bdata);
        let a = g.sp_mat_source(a_ref, rows, cols, nnz);
        let b = g.mat_source(b_ref, cols, 3);
        let prod = g.matmul(a, b).unwrap();
        let want = evaluate(&g, prod, &src).unwrap();
        let cfg = OptConfig { sparse_threshold: threshold, ..OptConfig::default() };
        let (opt, stats) = optimize(&mut g, prod, &cfg);
        let got = evaluate(&g, opt, &src).unwrap();
        let (Value::Matrix { data: dg, .. }, Value::Matrix { data: dw, .. }) = (&got, &want)
        else { panic!("matrix values expected") };
        prop_assert!(close(dg, dw));
        // Exactly one decision was made for the sparse operand.
        prop_assert_eq!(stats.sparse_kernels + stats.sparse_densified, 1);
    }
}
