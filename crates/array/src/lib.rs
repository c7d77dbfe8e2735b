//! # riot-array
//!
//! Out-of-core dense vectors and matrices: the reproduction of the array
//! storage layer RIOT's §5 designs after ASAP's ChunkyStore.
//!
//! Key properties the paper calls for:
//!
//! * **No explicit storage of array indices.** Elements are placed by
//!   arithmetic on the array's shape; a stored vector costs exactly
//!   `len · 8` bytes (contrast the strawman's relational `(I, V)` tables,
//!   modelled here by a configurable slot width — see
//!   [`DenseVector::create_wide`]).
//! * **Flexible tiling.** A matrix is partitioned into rectangular tiles,
//!   one tile per disk block; the aspect ratio is controllable.
//!   [`MatrixLayout::RowMajor`] / [`MatrixLayout::ColMajor`] are the "long
//!   and skinny" tilings R's built-in layouts correspond to, while
//!   [`MatrixLayout::Square`] gives the √B × √B tiles the optimal
//!   multiplication algorithm of Appendix A requires.
//! * **Linearization options.** The order tiles are laid out on disk is
//!   separately controllable ([`TileOrder`]), including the Z-order and
//!   Hilbert space-filling curves the paper proposes for arrays whose
//!   access patterns are not known in advance.
//!
//! All storage flows through a [`riot_storage::BufferPool`], so every array
//! operation is automatically I/O-accounted. Element and tile access is
//! **zero-copy**: pages pin as `&[f64]` slices straight out of the pool
//! (elements are stored native-endian), and array handles are
//! `Send + Sync` clones sharing one [`StorageCtx`], so parallel kernels
//! work on disjoint tiles from many threads.

#![deny(unsafe_code)]

pub mod context;
pub mod linear;
pub mod matrix;
pub mod vector;

pub use context::StorageCtx;
pub use linear::{Linearizer, TileOrder};
pub use matrix::{DenseMatrix, MatrixLayout};
pub use vector::{DenseVector, VectorWriter};

#[cfg(test)]
mod send_sync_tests {
    use super::*;

    #[test]
    fn array_handles_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StorageCtx>();
        assert_send_sync::<DenseMatrix>();
        assert_send_sync::<DenseVector>();
    }
}
