//! Out-of-core dense matrices with controllable tiling and linearization.
//!
//! A matrix is partitioned into rectangular tiles of exactly one disk block
//! each ([`MatrixLayout`] fixes the aspect ratio); tiles are placed on disk
//! in the order chosen by a [`TileOrder`]. Elements inside a tile are
//! row-major. Boundary tiles are padded to the full block, which keeps tile
//! addressing purely arithmetic — the ChunkyStore property of not storing
//! array indices.
//!
//! Tile access is zero-copy: [`DenseMatrix::pin_tile`] and friends hand
//! out the buffer pool's pin guards, whose `&[f64]` view *is* the tile
//! (elements are stored native-endian, one tile per block). Handles are
//! `Send + Sync`, so parallel kernels clone a matrix handle per worker and
//! pin disjoint tiles concurrently.

use std::sync::Arc;

use riot_storage::{
    BlockId, ObjectHeader, ObjectId, ObjectKind, PinnedFrame, PinnedFrameMut, Result, StorageError,
};

use crate::context::StorageCtx;
use crate::linear::{Linearizer, TileOrder};

/// Pack a matrix layout and tile order into an object header's layout
/// byte (layout in the low nibble, order in the high one).
pub(crate) fn pack_layout(layout: MatrixLayout, order: TileOrder) -> u8 {
    layout.code() | (order.code() << 4)
}

/// Tile aspect ratio for a matrix whose block holds `epb` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatrixLayout {
    /// 1 × epb tiles: each block holds a run of one row (R stores matrices
    /// column-major; this is the transposed-favourable layout).
    RowMajor,
    /// epb × 1 tiles: each block holds a run of one column (R's default).
    ColMajor,
    /// √epb × √epb tiles: the square tiling of area B from Appendix A.
    Square,
}

impl MatrixLayout {
    /// The layout whose tiles are this layout's tiles transposed: a
    /// transposed matrix stored with it keeps a one-to-one tile mapping
    /// (`out tile (j, i)` = `in tile (i, j)` transposed).
    pub fn transposed(self) -> MatrixLayout {
        match self {
            MatrixLayout::RowMajor => MatrixLayout::ColMajor,
            MatrixLayout::ColMajor => MatrixLayout::RowMajor,
            MatrixLayout::Square => MatrixLayout::Square,
        }
    }

    /// Stable one-byte encoding for catalog object headers.
    pub fn code(self) -> u8 {
        match self {
            MatrixLayout::RowMajor => 0,
            MatrixLayout::ColMajor => 1,
            MatrixLayout::Square => 2,
        }
    }

    /// Decode a [`MatrixLayout::code`] value.
    pub fn from_code(code: u8) -> Option<MatrixLayout> {
        match code {
            0 => Some(MatrixLayout::RowMajor),
            1 => Some(MatrixLayout::ColMajor),
            2 => Some(MatrixLayout::Square),
            _ => None,
        }
    }

    /// Tile dimensions `(rows, cols)` in elements for `epb` elements/block.
    pub fn tile_dims(self, epb: usize) -> (usize, usize) {
        match self {
            MatrixLayout::RowMajor => (1, epb),
            MatrixLayout::ColMajor => (epb, 1),
            MatrixLayout::Square => {
                let s = (epb as f64).sqrt() as usize;
                assert_eq!(s * s, epb, "block element count must be a perfect square");
                (s, s)
            }
        }
    }
}

/// A dense `rows x cols` matrix of `f64` stored as one tile per block.
#[derive(Clone)]
pub struct DenseMatrix {
    ctx: Arc<StorageCtx>,
    object: ObjectId,
    start_block: u64,
    rows: usize,
    cols: usize,
    tile_r: usize,
    tile_c: usize,
    layout: MatrixLayout,
    lin: Arc<Linearizer>,
}

impl DenseMatrix {
    /// Create a zeroed matrix with the given layout and tile order.
    pub fn create(
        ctx: &Arc<StorageCtx>,
        rows: usize,
        cols: usize,
        layout: MatrixLayout,
        order: TileOrder,
        name: Option<&str>,
    ) -> Result<Self> {
        assert!(rows > 0 && cols > 0, "matrices must be non-empty");
        let epb = ctx.elems_per_block();
        let (tile_r, tile_c) = layout.tile_dims(epb);
        let tr = rows.div_ceil(tile_r) as u64;
        let tc = cols.div_ceil(tile_c) as u64;
        let (object, extent) = ctx.create_object(tr * tc, name)?;
        ctx.set_object_header(
            object,
            ObjectHeader {
                kind: ObjectKind::DenseMatrix,
                rows: rows as u64,
                cols: cols as u64,
                layout: pack_layout(layout, order),
                nnz: (rows * cols) as u64,
            },
        )?;
        Ok(DenseMatrix {
            ctx: Arc::clone(ctx),
            object,
            start_block: extent.start.0,
            rows,
            cols,
            tile_r,
            tile_c,
            layout,
            lin: Arc::new(Linearizer::new(order, tr, tc)),
        })
    }

    /// Reopen a named matrix from its catalog header (the dense analogue
    /// of `SparseMatrix::open`): resolves the name, checks the kind, and
    /// rebuilds the tiling from the recorded dimensions and layout byte.
    pub fn open(ctx: &Arc<StorageCtx>, name: &str) -> Result<Self> {
        let cannot = |reason: &'static str| StorageError::CannotReopen {
            name: name.to_owned(),
            reason,
        };
        let object = ctx
            .find_object(name)
            .ok_or_else(|| cannot("no such object"))?;
        let header = ctx
            .object_header(object)?
            .ok_or_else(|| cannot("object has no header"))?;
        if header.kind != ObjectKind::DenseMatrix {
            return Err(cannot("object is not a dense matrix"));
        }
        let layout = MatrixLayout::from_code(header.layout & 0x0F)
            .ok_or_else(|| cannot("bad layout code"))?;
        let order = TileOrder::from_code(header.layout >> 4)
            .ok_or_else(|| cannot("bad tile-order code"))?;
        let (rows, cols) = (header.rows as usize, header.cols as usize);
        if rows == 0 || cols == 0 || header.nnz != (rows * cols) as u64 {
            return Err(cannot("bad dense dimensions"));
        }
        let epb = ctx.elems_per_block();
        let (tile_r, tile_c) = layout.tile_dims(epb);
        let tr = rows.div_ceil(tile_r) as u64;
        let tc = cols.div_ceil(tile_c) as u64;
        let extent = ctx.object_extent(object)?;
        if extent.blocks != tr * tc {
            return Err(cannot("extent disagrees with the tiling"));
        }
        Ok(DenseMatrix {
            ctx: Arc::clone(ctx),
            object,
            start_block: extent.start.0,
            rows,
            cols,
            tile_r,
            tile_c,
            layout,
            lin: Arc::new(Linearizer::new(order, tr, tc)),
        })
    }

    /// Create and fill from a row-major slice of `rows * cols` values.
    pub fn from_rows(
        ctx: &Arc<StorageCtx>,
        rows: usize,
        cols: usize,
        data: &[f64],
        layout: MatrixLayout,
        order: TileOrder,
        name: Option<&str>,
    ) -> Result<Self> {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        let m = Self::create(ctx, rows, cols, layout, order, name)?;
        for ti in 0..m.tile_grid().0 {
            for tj in 0..m.tile_grid().1 {
                let mut tile = m.pin_tile_new(ti, tj)?;
                tile.fill(0.0);
                let (r0, c0) = (ti as usize * m.tile_r, tj as usize * m.tile_c);
                for r in 0..m.tile_r.min(rows - r0) {
                    for c in 0..m.tile_c.min(cols - c0) {
                        tile[r * m.tile_c + c] = data[(r0 + r) * cols + (c0 + c)];
                    }
                }
            }
        }
        Ok(m)
    }

    /// Create filling each element from `f(row, col)` tile by tile.
    pub fn from_fn(
        ctx: &Arc<StorageCtx>,
        rows: usize,
        cols: usize,
        layout: MatrixLayout,
        order: TileOrder,
        name: Option<&str>,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Result<Self> {
        let m = Self::create(ctx, rows, cols, layout, order, name)?;
        let (tg_r, tg_c) = m.tile_grid();
        for ti in 0..tg_r {
            for tj in 0..tg_c {
                let mut tile = m.pin_tile_new(ti, tj)?;
                tile.fill(0.0);
                let (r0, c0) = (ti as usize * m.tile_r, tj as usize * m.tile_c);
                for r in 0..m.tile_r.min(rows - r0) {
                    for c in 0..m.tile_c.min(cols - c0) {
                        tile[r * m.tile_c + c] = f(r0 + r, c0 + c);
                    }
                }
            }
        }
        Ok(m)
    }

    /// Matrix dimensions `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Tile dimensions `(tile_rows, tile_cols)` in elements.
    pub fn tile_dims(&self) -> (usize, usize) {
        (self.tile_r, self.tile_c)
    }

    /// Tile grid dimensions `(tiles_down, tiles_across)`.
    pub fn tile_grid(&self) -> (u64, u64) {
        self.lin.grid()
    }

    /// The layout this matrix was created with.
    pub fn layout(&self) -> MatrixLayout {
        self.layout
    }

    /// The tile ordering on disk.
    pub fn order(&self) -> TileOrder {
        self.lin.order()
    }

    /// Storage context.
    pub fn ctx(&self) -> &Arc<StorageCtx> {
        &self.ctx
    }

    /// Catalog object id.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Total blocks occupied.
    pub fn blocks(&self) -> u64 {
        let (tr, tc) = self.lin.grid();
        tr * tc
    }

    /// Device block holding tile `(ti, tj)`.
    pub fn tile_block(&self, ti: u64, tj: u64) -> BlockId {
        BlockId(self.start_block + self.lin.pos(ti, tj))
    }

    /// Pin tile `(ti, tj)` for reading: the guard's `&[f64]` is the tile's
    /// row-major contents, zero-copy. Boundary padding reads as 0.
    pub fn pin_tile(&self, ti: u64, tj: u64) -> Result<PinnedFrame<'_>> {
        self.ctx.pool().pin(self.tile_block(ti, tj))
    }

    /// Pin tile `(ti, tj)` for exclusive read-modify-write access.
    pub fn pin_tile_mut(&self, ti: u64, tj: u64) -> Result<PinnedFrameMut<'_>> {
        self.ctx.pool().pin_mut(self.tile_block(ti, tj))
    }

    /// Pin tile `(ti, tj)` for a full overwrite, skipping the device read.
    /// The caller must fill every element it cares about (contents start
    /// unspecified: zeroed on first use, stale on re-pin).
    pub fn pin_tile_new(&self, ti: u64, tj: u64) -> Result<PinnedFrameMut<'_>> {
        self.ctx.pool().pin_new(self.tile_block(ti, tj))
    }

    /// Read one element (random access).
    pub fn get(&self, row: usize, col: usize) -> Result<f64> {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        let (ti, tj) = (row / self.tile_r, col / self.tile_c);
        let off = (row % self.tile_r) * self.tile_c + (col % self.tile_c);
        let tile = self.pin_tile(ti as u64, tj as u64)?;
        Ok(tile[off])
    }

    /// Write one element.
    pub fn set(&self, row: usize, col: usize, value: f64) -> Result<()> {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        let (ti, tj) = (row / self.tile_r, col / self.tile_c);
        let off = (row % self.tile_r) * self.tile_c + (col % self.tile_c);
        let mut tile = self.pin_tile_mut(ti as u64, tj as u64)?;
        tile[off] = value;
        Ok(())
    }

    /// Read tile `(ti, tj)` into `buf` (`tile_r * tile_c` elements,
    /// row-major; boundary padding reads as 0).
    pub fn read_tile(&self, ti: u64, tj: u64, buf: &mut [f64]) -> Result<()> {
        assert_eq!(buf.len(), self.tile_r * self.tile_c, "tile buffer size");
        let tile = self.pin_tile(ti, tj)?;
        buf.copy_from_slice(&tile);
        Ok(())
    }

    /// Overwrite tile `(ti, tj)` from `buf` without reading it first.
    pub fn write_tile(&self, ti: u64, tj: u64, buf: &[f64]) -> Result<()> {
        assert_eq!(buf.len(), self.tile_r * self.tile_c, "tile buffer size");
        let mut tile = self.pin_tile_new(ti, tj)?;
        tile.copy_from_slice(buf);
        Ok(())
    }

    /// Read-modify-write a tile in place through a closure over the
    /// row-major tile contents (zero-copy: the slice is the pinned frame).
    pub fn update_tile(&self, ti: u64, tj: u64, f: impl FnOnce(&mut [f64])) -> Result<()> {
        let mut tile = self.pin_tile_mut(ti, tj)?;
        f(&mut tile);
        Ok(())
    }

    /// Visit every in-bounds element as `(row, col, value)`, tile by tile
    /// in row-major tile order (boundary padding is skipped). One pass of
    /// tile pins; memory stays O(1).
    pub fn for_each(&self, mut f: impl FnMut(usize, usize, f64)) -> Result<()> {
        let (tg_r, tg_c) = self.tile_grid();
        for ti in 0..tg_r {
            for tj in 0..tg_c {
                let tile = self.pin_tile(ti, tj)?;
                let (r0, c0) = (ti as usize * self.tile_r, tj as usize * self.tile_c);
                for r in 0..self.tile_r.min(self.rows - r0) {
                    for c in 0..self.tile_c.min(self.cols - c0) {
                        f(r0 + r, c0 + c, tile[r * self.tile_c + c]);
                    }
                }
            }
        }
        Ok(())
    }

    /// Materialize the matrix as a row-major `Vec` (tests / small results).
    pub fn to_rows(&self) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.rows * self.cols];
        let (tg_r, tg_c) = self.tile_grid();
        for ti in 0..tg_r {
            for tj in 0..tg_c {
                let tile = self.pin_tile(ti, tj)?;
                let (r0, c0) = (ti as usize * self.tile_r, tj as usize * self.tile_c);
                for r in 0..self.tile_r.min(self.rows - r0) {
                    for c in 0..self.tile_c.min(self.cols - c0) {
                        out[(r0 + r) * self.cols + (c0 + c)] = tile[r * self.tile_c + c];
                    }
                }
            }
        }
        Ok(out)
    }

    /// Copy this matrix into a new one with a different layout/order:
    /// the "dynamically changing data layout" operation of §5.
    pub fn relayout(
        &self,
        layout: MatrixLayout,
        order: TileOrder,
        name: Option<&str>,
    ) -> Result<DenseMatrix> {
        let dst = DenseMatrix::create(&self.ctx, self.rows, self.cols, layout, order, name)?;
        self.copy_into(&dst, false)?;
        Ok(dst)
    }

    /// Out-of-core transpose into a new matrix with the given layout.
    pub fn transpose(
        &self,
        layout: MatrixLayout,
        order: TileOrder,
        name: Option<&str>,
    ) -> Result<DenseMatrix> {
        let dst = DenseMatrix::create(&self.ctx, self.cols, self.rows, layout, order, name)?;
        self.copy_into(&dst, true)?;
        Ok(dst)
    }

    /// Fill `dst` with this matrix (`trans`: its transpose), walking
    /// destination tiles. When the tilings correspond one-to-one — same
    /// layout, or the [`MatrixLayout::transposed`] one under `trans` —
    /// each destination tile is its source tile copied (transposed)
    /// frame-to-frame: every source block is pinned, hence read, exactly
    /// once. Any other pair gathers element by element, one pool access
    /// each, whose I/O under memory pressure is Figure 1's point — the
    /// eager engines' budgets pin it, so it stays as it is.
    fn copy_into(&self, dst: &DenseMatrix, trans: bool) -> Result<()> {
        let src_layout = if trans {
            self.layout.transposed()
        } else {
            self.layout
        };
        let tilewise = dst.layout == src_layout;
        let (tg_r, tg_c) = dst.tile_grid();
        for ti in 0..tg_r {
            for tj in 0..tg_c {
                let mut buf = dst.pin_tile_new(ti, tj)?;
                buf.fill(0.0);
                let (r0, c0) = (ti as usize * dst.tile_r, tj as usize * dst.tile_c);
                let (h, w) = (dst.tile_r.min(dst.rows - r0), dst.tile_c.min(dst.cols - c0));
                // Where destination element (0, 0) of this tile comes from.
                let (sr0, sc0) = if trans { (c0, r0) } else { (r0, c0) };
                let src = if tilewise {
                    Some(self.pin_tile((sr0 / self.tile_r) as u64, (sc0 / self.tile_c) as u64)?)
                } else {
                    None
                };
                for r in 0..h {
                    for c in 0..w {
                        let (sr, sc) = if trans { (c, r) } else { (r, c) };
                        buf[r * dst.tile_c + c] = match &src {
                            Some(tile) => tile[sr * self.tile_c + sc],
                            None => self.get(sr0 + sr, sc0 + sc)?,
                        };
                    }
                }
            }
        }
        Ok(())
    }

    /// Release the matrix's storage. The handle must not be used again.
    pub fn free(self) -> Result<()> {
        self.ctx.drop_object(self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 512-byte blocks = 64 elements = 8x8 square tiles.
    fn ctx(frames: usize) -> Arc<StorageCtx> {
        StorageCtx::new_mem(512, frames)
    }

    fn fill_seq(rows: usize, cols: usize) -> Vec<f64> {
        (0..rows * cols).map(|i| i as f64).collect()
    }

    #[test]
    fn layout_tile_dims() {
        assert_eq!(MatrixLayout::RowMajor.tile_dims(64), (1, 64));
        assert_eq!(MatrixLayout::ColMajor.tile_dims(64), (64, 1));
        assert_eq!(MatrixLayout::Square.tile_dims(64), (8, 8));
    }

    #[test]
    fn round_trip_all_layouts_and_orders() {
        let c = ctx(64);
        let data = fill_seq(20, 13); // ragged vs 8x8 tiles
        for layout in [
            MatrixLayout::RowMajor,
            MatrixLayout::ColMajor,
            MatrixLayout::Square,
        ] {
            for order in [
                TileOrder::RowMajor,
                TileOrder::ColMajor,
                TileOrder::ZOrder,
                TileOrder::Hilbert,
            ] {
                let m = DenseMatrix::from_rows(&c, 20, 13, &data, layout, order, None).unwrap();
                assert_eq!(m.to_rows().unwrap(), data, "{layout:?}/{order:?}");
                m.free().unwrap();
            }
        }
    }

    #[test]
    fn element_access() {
        let c = ctx(16);
        let m = DenseMatrix::create(&c, 10, 10, MatrixLayout::Square, TileOrder::RowMajor, None)
            .unwrap();
        m.set(9, 9, 3.25).unwrap();
        m.set(0, 9, -1.0).unwrap();
        assert_eq!(m.get(9, 9).unwrap(), 3.25);
        assert_eq!(m.get(0, 9).unwrap(), -1.0);
        assert_eq!(m.get(5, 5).unwrap(), 0.0);
    }

    #[test]
    fn pinned_tile_is_zero_copy_view() {
        let c = ctx(16);
        let m =
            DenseMatrix::create(&c, 8, 8, MatrixLayout::Square, TileOrder::RowMajor, None).unwrap();
        m.set(3, 5, 7.5).unwrap();
        let tile = m.pin_tile(0, 0).unwrap();
        assert_eq!(tile.len(), 64);
        assert_eq!(tile[3 * 8 + 5], 7.5);
    }

    #[test]
    fn block_count_matches_tiling() {
        let c = ctx(16);
        // 20x13 with 8x8 tiles: 3x2 grid = 6 blocks.
        let m = DenseMatrix::create(&c, 20, 13, MatrixLayout::Square, TileOrder::RowMajor, None)
            .unwrap();
        assert_eq!(m.blocks(), 6);
        // Column layout: 64x1 tiles -> 1x13 grid = 13 blocks.
        let m2 = DenseMatrix::create(
            &c,
            20,
            13,
            MatrixLayout::ColMajor,
            TileOrder::ColMajor,
            None,
        )
        .unwrap();
        assert_eq!(m2.blocks(), 13);
    }

    #[test]
    fn from_fn_matches_from_rows() {
        let c = ctx(32);
        let data = fill_seq(9, 17);
        let a = DenseMatrix::from_rows(
            &c,
            9,
            17,
            &data,
            MatrixLayout::Square,
            TileOrder::ZOrder,
            None,
        )
        .unwrap();
        let b = DenseMatrix::from_fn(
            &c,
            9,
            17,
            MatrixLayout::Square,
            TileOrder::ZOrder,
            None,
            |r, cidx| (r * 17 + cidx) as f64,
        )
        .unwrap();
        assert_eq!(a.to_rows().unwrap(), b.to_rows().unwrap());
    }

    #[test]
    fn update_tile_accumulates() {
        let c = ctx(16);
        let m =
            DenseMatrix::create(&c, 8, 8, MatrixLayout::Square, TileOrder::RowMajor, None).unwrap();
        m.update_tile(0, 0, |t| t.iter_mut().for_each(|x| *x += 1.0))
            .unwrap();
        m.update_tile(0, 0, |t| t.iter_mut().for_each(|x| *x += 2.0))
            .unwrap();
        assert_eq!(m.get(3, 3).unwrap(), 3.0);
    }

    #[test]
    fn transpose_round_trip() {
        let c = ctx(64);
        let data = fill_seq(11, 7);
        let m = DenseMatrix::from_rows(
            &c,
            11,
            7,
            &data,
            MatrixLayout::Square,
            TileOrder::RowMajor,
            None,
        )
        .unwrap();
        let t = m
            .transpose(MatrixLayout::Square, TileOrder::RowMajor, None)
            .unwrap();
        assert_eq!(t.shape(), (7, 11));
        assert_eq!(t.get(3, 10).unwrap(), m.get(10, 3).unwrap());
        let tt = t
            .transpose(MatrixLayout::Square, TileOrder::RowMajor, None)
            .unwrap();
        assert_eq!(tt.to_rows().unwrap(), data);
    }

    #[test]
    fn relayout_preserves_contents() {
        let c = ctx(64);
        let data = fill_seq(10, 10);
        let m = DenseMatrix::from_rows(
            &c,
            10,
            10,
            &data,
            MatrixLayout::ColMajor,
            TileOrder::ColMajor,
            None,
        )
        .unwrap();
        let m2 = m
            .relayout(MatrixLayout::Square, TileOrder::Hilbert, None)
            .unwrap();
        assert_eq!(m2.to_rows().unwrap(), data);
    }

    const LAYOUTS: [MatrixLayout; 3] = [
        MatrixLayout::RowMajor,
        MatrixLayout::ColMajor,
        MatrixLayout::Square,
    ];

    #[test]
    fn relayout_and_transpose_round_trip_every_layout_pair() {
        // Ragged against every tile shape (1x64, 64x1, 8x8), so both the
        // tile-wise and the element-wise walk meet partial tiles.
        for (rows, cols) in [(11, 70), (67, 5), (1, 9)] {
            let c = ctx(64);
            let data = fill_seq(rows, cols);
            let want_t: Vec<f64> = (0..rows * cols)
                .map(|i| data[(i % rows) * cols + i / rows])
                .collect();
            for from in LAYOUTS {
                let m =
                    DenseMatrix::from_rows(&c, rows, cols, &data, from, TileOrder::ColMajor, None)
                        .unwrap();
                for to in LAYOUTS {
                    let r = m.relayout(to, TileOrder::Hilbert, None).unwrap();
                    assert_eq!(r.to_rows().unwrap(), data, "{from:?} -> {to:?}");
                    let t = m.transpose(to, TileOrder::RowMajor, None).unwrap();
                    assert_eq!(t.shape(), (cols, rows));
                    assert_eq!(t.to_rows().unwrap(), want_t, "t: {from:?} -> {to:?}");
                    r.free().unwrap();
                    t.free().unwrap();
                }
                m.free().unwrap();
            }
        }
    }

    #[test]
    fn tilewise_copies_read_each_source_block_exactly_once() {
        // Two frames: one destination tile plus one source tile is all the
        // tile-wise walk ever holds, so reads == source blocks even with
        // no cache to speak of. The element walk re-reads under the same
        // pressure (ColMajor -> ColMajor transpose, Strawman's case).
        let (rows, cols) = (67, 21);
        let reads_of = |from: MatrixLayout, to: MatrixLayout, trans: bool| {
            let c = ctx(2);
            let m =
                DenseMatrix::from_fn(&c, rows, cols, from, TileOrder::RowMajor, None, |i, j| {
                    (i * cols + j) as f64
                })
                .unwrap();
            c.pool().flush_all().unwrap();
            c.clear_cache().unwrap();
            let before = c.io_snapshot();
            let out = if trans {
                m.transpose(to, TileOrder::RowMajor, None)
            } else {
                m.relayout(to, TileOrder::ZOrder, None)
            }
            .unwrap();
            c.pool().flush_all().unwrap();
            let io = c.io_snapshot() - before;
            assert_eq!(io.writes, out.blocks(), "{from:?} -> {to:?}");
            (io.reads, m.blocks())
        };
        for from in LAYOUTS {
            let (reads, blocks) = reads_of(from, from.transposed(), true);
            assert_eq!(reads, blocks, "transpose {from:?}");
            let (reads, blocks) = reads_of(from, from, false);
            assert_eq!(reads, blocks, "relayout {from:?}");
        }
        let (reads, blocks) = reads_of(MatrixLayout::ColMajor, MatrixLayout::ColMajor, true);
        assert!(
            reads > blocks,
            "element walk: {reads} reads of {blocks} blocks"
        );
    }

    #[test]
    fn row_scan_in_row_layout_is_sequential() {
        // Row-major tiles + row-major order: scanning rows touches blocks
        // in strictly increasing order.
        let c = ctx(2);
        let rows = 16;
        let cols = 128; // 2 tiles per row at 64 elems/tile
        let m = DenseMatrix::from_fn(
            &c,
            rows,
            cols,
            MatrixLayout::RowMajor,
            TileOrder::RowMajor,
            None,
            |r, cidx| (r + cidx) as f64,
        )
        .unwrap();
        c.pool().flush_all().unwrap();
        c.clear_cache().unwrap();
        let before = c.io_snapshot();
        let mut tile = vec![0.0; 64];
        let (tg_r, tg_c) = m.tile_grid();
        for ti in 0..tg_r {
            for tj in 0..tg_c {
                m.read_tile(ti, tj, &mut tile).unwrap();
            }
        }
        let delta = c.io_snapshot() - before;
        assert_eq!(delta.reads, m.blocks());
        assert!(delta.seq_reads >= delta.reads - 1);
    }

    #[test]
    fn concurrent_tile_writers_on_disjoint_tiles() {
        let c = StorageCtx::new_mem_sharded(512, 32, 4);
        let m = DenseMatrix::create(&c, 32, 32, MatrixLayout::Square, TileOrder::RowMajor, None)
            .unwrap();
        std::thread::scope(|s| {
            for ti in 0..4u64 {
                let m = m.clone();
                s.spawn(move || {
                    for tj in 0..4u64 {
                        let mut tile = m.pin_tile_new(ti, tj).unwrap();
                        tile.fill((ti * 4 + tj) as f64);
                    }
                });
            }
        });
        for ti in 0..4 {
            for tj in 0..4 {
                assert_eq!(
                    m.get(ti as usize * 8, tj as usize * 8).unwrap(),
                    (ti * 4 + tj) as f64
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let c = ctx(8);
        let m =
            DenseMatrix::create(&c, 4, 4, MatrixLayout::Square, TileOrder::RowMajor, None).unwrap();
        let _ = m.get(4, 0);
    }
}
