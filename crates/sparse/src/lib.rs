//! # riot-sparse
//!
//! Out-of-core **block-compressed sparse matrices** for the RIOT
//! reproduction. The paper (CIDR 2009, §5) argues that an I/O-efficient
//! numerical system must support sparse data natively instead of forcing a
//! dense linearization through the buffer pool; this crate is that storage
//! format, layered on the same sharded [`riot_storage::BufferPool`] and
//! zero-copy pin guards the dense arrays use, so every sparse access is
//! I/O-accounted by the same counters.
//!
//! ## On-disk layout
//!
//! A sparse matrix reuses the dense tiling ([`riot_array::MatrixLayout`]
//! fixes the tile aspect ratio, one tile = at most one block), but **only
//! occupied tiles get a data page**. The object's contiguous block extent
//! is:
//!
//! ```text
//! +--------------------+----------------------------------------------+
//! | directory blocks   | data pages (one per occupied tile)           |
//! +--------------------+----------------------------------------------+
//!
//! directory: 2 f64 slots per tile, in row-major tile order
//!   dir[2t]   = data-page slot of tile t, or -1.0 when the tile is empty
//!   dir[2t+1] = nnz of tile t
//!
//! data page, CSR form (nnz <= csr_cap = (B - (tile_r+1)) / 2):
//!   [ row_offsets: tile_r+1 | col_indices: nnz | values: nnz | pad ]
//!
//! data page, dense form (nnz > csr_cap):
//!   [ tile_r * tile_c values, row-major ]                (exactly fits)
//! ```
//!
//! `B` is the block capacity in `f64` elements. Offsets and column
//! indices are stored as `f64` (exact for integers below 2^53). The
//! format per page is *not* flagged in the page: it is derived from the
//! directory's `nnz` against `csr_cap`, so a CSR page spends every slot on
//! payload. Tiles denser than `csr_cap` fall back to the dense form, which
//! always fits because one dense tile is exactly one block.
//!
//! The density break-even is visible in the layout itself: a matrix at
//! density `d` occupies roughly `ntiles · (1 - (1-d)^(tile elems))` data
//! pages, so a 0.01-density matrix with 64-element tiles stores ~47% of
//! the dense footprint and a 0.001-density one ~6%, and every kernel scan
//! reads only those pages — the property the counted-I/O tests pin down.
//!
//! ## Handles
//!
//! [`SparseMatrix`] handles are cheap `Send + Sync` clones sharing one
//! [`riot_array::StorageCtx`]; the directory is written through the pool at
//! construction and cached in the handle (`Arc`), so tile addressing costs
//! no further I/O. Tile reads pin the underlying page zero-copy and decode
//! the CSR views straight from the pinned `&[f64]`.
//!
//! ## Builders and their counted-I/O contracts
//!
//! | builder | reads | writes (once flushed) |
//! |---|---|---|
//! | [`SparseMatrix::from_triplets`] | 0 | `occupied_pages + dir_blocks` |
//! | [`SparseMatrix::from_dense`] | every dense tile, once | `occupied_pages + dir_blocks` |
//! | [`SparseMatrix::create_with_plan`] | 0 | `dir_blocks` (pages land via the `write_tile*` calls) |
//! | [`SparseMatrix::transpose`] | `occupied_pages`, once each | `occupied_pages + dir_blocks` |
//!
//! [`SparseMatrix::transpose`] is the **native transpose**: the output
//! directory is derived from the cached input directory (tile `(j, i)` of
//! the output is tile `(i, j)` of the input with the same nnz), so
//! planning costs zero I/O, and the data pass streams the occupied pages
//! in transposed directory order — the matrix is never densified. Two-pass
//! producers (SpMM in `riot-core`) size their output with
//! [`SparseMatrix::create_with_plan`] and fill pages either from a dense
//! scratch ([`SparseMatrix::write_tile`]) or directly from sorted entries
//! ([`SparseMatrix::write_tile_entries_at`], the replay path for plans
//! spilled to a growable catalog extent).

#![deny(unsafe_code)]

pub mod matrix;

pub use matrix::{SparseMatrix, SparseTile, TileSlot};

/// CSR capacity of one data page: the largest nnz for which the CSR form
/// (`tile_r + 1` offsets + `nnz` column indices + `nnz` values) fits in a
/// block of `epb` elements. Tiles above this store the dense form.
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
