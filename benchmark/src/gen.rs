//! Seeded, stateless input generators.
//!
//! Every element is a pure function of `(seed, stream, index)`, so the
//! harness can hand the engine a generator closure at ingest time and
//! later regenerate any element for verification without ever holding an
//! input array in memory (the harness's own footprint must not hide the
//! engine's in `peak_rss_mb`). `--seed` reaches these functions and
//! nothing else.

/// SplitMix64 finalizer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64 pseudo-random bits for element `i` of `stream` under `seed`.
pub fn bits(seed: u64, stream: u64, i: u64) -> u64 {
    let s = mix64(seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    mix64(s ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// Uniform in `[0, 1)` with 53 random bits.
pub fn unit(seed: u64, stream: u64, i: u64) -> f64 {
    (bits(seed, stream, i) >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform integer in `0..n`.
pub fn below(seed: u64, stream: u64, i: u64, n: u64) -> u64 {
    bits(seed, stream, i) % n
}

/// A seeded permutation of `0..n` (Fisher-Yates), for sparsity patterns
/// whose occupied-tile *count* must not depend on the seed.
pub fn permutation(seed: u64, stream: u64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = below(seed, stream, i as u64, i as u64 + 1) as usize;
        p.swap(i, j);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_values_and_seeds_differ() {
        assert_eq!(bits(7, 1, 42), bits(7, 1, 42));
        assert_ne!(bits(7, 1, 42), bits(8, 1, 42));
        assert_ne!(bits(7, 1, 42), bits(7, 2, 42));
        let u = unit(3, 0, 9);
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(11, 0, 100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }
}
