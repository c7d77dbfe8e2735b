//! # riot-sparse
//!
//! Out-of-core **block-compressed sparse matrices** for the RIOT
//! reproduction. The paper (CIDR 2009, §5) argues that an I/O-efficient
//! numerical system must support sparse data natively instead of forcing a
//! dense linearization through the buffer pool; this crate is that storage
//! format, layered on the same [`riot_storage::BufferPool`] and
//! zero-copy pin guards the dense arrays use, so every sparse access is
//! I/O-accounted by the same counters.
//!
//! ## On-disk layout
//!
//! A sparse matrix reuses the dense tiling ([`riot_array::MatrixLayout`]
//! fixes the tile aspect ratio, one tile = at most one block), but **only
//! occupied tiles are stored, and they share pages**: their payloads are
//! packed greedily, in row-major tile order, into the data pages. A tile
//! never straddles a page; a tile-row may. The object's contiguous block
//! extent is:
//!
//! ```text
//! +--------------------+----------------------------------------------+
//! | directory blocks   | data pages (payloads packed end to end)      |
//! +--------------------+----------------------------------------------+
//!
//! directory: one run per tile-row, as a stream of f64 across the blocks
//!   [ k = occupied tiles of the row | k x (tj, nnz, page, offset) ]
//!
//! payload, triples form (nnz <= min(tile_r, csr_cap)):
//!   [ nnz x (row, col, value), sorted by (row, col) ]
//!
//! payload, CSR form (nnz <= csr_cap = (B - (tile_r+1)) / 2):
//!   [ row_offsets: tile_r+1 | col_indices: nnz | values: nnz ]
//!
//! payload, dense form (nnz > csr_cap):
//!   [ tile_r * tile_c values, row-major ]       (a full page of its own)
//! ```
//!
//! `B` is the block capacity in `f64` elements. Counts, indices and
//! offsets are stored as `f64` (exact for integers below 2^53). The form
//! of a payload is *not* flagged in the page: it is derived from the
//! directory's `nnz`, so every stored element is payload. A tile with a
//! handful of entries costs three elements each — at `tile_r` entries the
//! CSR row offsets stop being the larger part — and tiles denser than
//! `csr_cap` fall back to the dense form, which always fits because one
//! dense tile is exactly one block. The directory lists occupied tiles
//! only, so both it and the pages scale with the non-zeros, not with the
//! tile grid: 65,536 non-zeros spread four to a tile over a 512 x 512
//! grid of 8 KiB tiles take 192 pages and 61 directory blocks, where one
//! page per occupied tile took 15,360 and 512.
//!
//! A format is a decision the catalog records: packed matrices carry
//! [`riot_storage::ObjectKind::SparseMatrix`], and
//! [`SparseMatrix::open`] refuses the retired one-page-per-tile objects
//! (`SparseTilePages`) with a typed error instead of misreading them.
//!
//! ## Handles
//!
//! [`SparseMatrix`] handles are cheap `Send + Sync` clones sharing one
//! [`riot_array::StorageCtx`]; the directory is written through the pool at
//! construction and cached in the handle (`Arc`), so tile addressing costs
//! no further I/O. Reads go through [`Tiles`], a cursor over a run of
//! occupied tiles that pins each page of the run once and lends decoded
//! [`SparseTile`] views straight off the pinned `&[f64]`:
//! [`SparseMatrix::tile_row`] is the strip loop every tile-row kernel
//! shares, [`SparseMatrix::tile`] the one-tile case.
//!
//! ## Builders and their counted-I/O contracts
//!
//! Every builder feeds one sequential page appender ([`TileWriter`]) in
//! directory order, so each block of the extent is written exactly once.
//!
//! | builder | reads | writes (once flushed) |
//! |---|---|---|
//! | [`SparseMatrix::from_triplets`] (sorts the triplets) | 0 | `blocks()` |
//! | [`SparseMatrix::from_dense`] | every dense tile, once | `blocks()` |
//! | [`SparseMatrix::create_with_plan`] + [`TileWriter::push`] | 0 | `blocks()` (`dir_blocks` at creation) |
//! | [`SparseMatrix::transpose`] | `occupied_pages`, once each, while the re-sort buffer fits the pool's capacity | `blocks()` of the output |
//!
//! [`SparseMatrix::transpose`] is the **native transpose**: the output
//! plan is derived from the cached input directory (tile `(j, i)` of the
//! output is tile `(i, j)` of the input with the same nnz), so planning
//! costs zero I/O; the data pass walks the input pages in order, re-sorts
//! the entries in memory and appends — the matrix is never densified.
//! Two-pass producers (SpMM in `riot-core`) size their output with
//! [`SparseMatrix::create_with_plan`] and append each tile's sorted
//! entries with [`TileWriter::push`] (the replay path for plans spilled
//! to a growable catalog extent).

#![deny(unsafe_code)]

pub mod matrix;

pub use matrix::{SparseMatrix, SparseTile, TileSlot, TileWriter, Tiles};

/// CSR capacity of one data page: the largest nnz for which the CSR form
/// (`tile_r + 1` offsets + `nnz` column indices + `nnz` values) fits in a
/// block of `epb` elements. Tiles above this store the dense form; tiles
/// of at most `tile_r` entries (and within this capacity) store triples.
pub fn csr_capacity(epb: usize, tile_r: usize) -> usize {
    epb.saturating_sub(tile_r + 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_capacity_square_tiles() {
        // 512-byte blocks: 64 elements, 8x8 tiles -> (64 - 9) / 2 = 27.
        assert_eq!(csr_capacity(64, 8), 27);
        // 8 KiB blocks: 1024 elements, 32x32 tiles -> (1024 - 33) / 2.
        assert_eq!(csr_capacity(1024, 32), 495);
    }

    #[test]
    fn csr_capacity_degenerates_for_tall_tiles() {
        // Column tiles (epb x 1): offsets alone exceed the page; every
        // occupied tile stores dense.
        assert_eq!(csr_capacity(64, 64), 0);
    }
}
