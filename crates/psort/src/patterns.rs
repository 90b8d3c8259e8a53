//! Key-pattern generators for the paper's gather-scatter study (§5.4).
//!
//! The paper processes 10⁹ doubles under three patterns: *contiguous*
//! (unique keys in sorted order — the coalesced ideal), *repeated* (10⁷
//! unique keys × 100 — high atomic contention), and a *5-point stencil*
//! access applied on top of the repeated keys. The generators here produce
//! the same structures at any scale, deterministically.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The paper's duplication factor: "each key repeated 100 times".
pub const PAPER_REPEATS: usize = 100;

/// The paper's element count: one billion doubles.
pub const PAPER_ELEMENTS: usize = 1_000_000_000;

/// Unique keys `0..n` in ascending order.
pub fn contiguous_keys(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

/// `unique` distinct keys, each `repeats` times, in a deterministic random
/// interleave (the pre-sort state of the paper's repeated pattern).
pub fn repeated_keys(unique: usize, repeats: usize, seed: u64) -> Vec<u32> {
    let mut keys = Vec::with_capacity(unique * repeats);
    for _ in 0..repeats {
        keys.extend(0..unique as u32);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    keys.shuffle(&mut rng);
    keys
}

/// The paper's 5-point stencil offsets over a `width`-wide 2-D index
/// space: self, ±1 (x neighbors), ±width (y neighbors).
pub fn five_point_stencil(width: usize) -> [i64; 5] {
    let w = width as i64;
    [0, -1, 1, -w, w]
}

/// Uniformly random cell assignments for `n` particles over `cells`
/// cells — the unsorted particle population used by Fig 9 ("sorting
/// disabled") and as the random baseline of Fig 7.
pub fn random_cells(n: usize, cells: usize, seed: u64) -> Vec<u32> {
    assert!(cells >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    use rand::Rng;
    (0..n).map(|_| rng.gen_range(0..cells as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_is_identity_sequence() {
        let k = contiguous_keys(5);
        assert_eq!(k, vec![0, 1, 2, 3, 4]);
        assert!(contiguous_keys(0).is_empty());
    }

    #[test]
    fn repeated_has_exact_multiplicities() {
        let k = repeated_keys(10, 7, 1);
        assert_eq!(k.len(), 70);
        for key in 0..10u32 {
            assert_eq!(k.iter().filter(|&&x| x == key).count(), 7);
        }
    }

    #[test]
    fn repeated_is_shuffled_but_deterministic() {
        let a = repeated_keys(50, 4, 99);
        let b = repeated_keys(50, 4, 99);
        let c = repeated_keys(50, 4, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // not already sorted
        assert!(a.windows(2).any(|w| w[0] > w[1]));
    }

    #[test]
    fn stencil_shape() {
        assert_eq!(five_point_stencil(100), [0, -1, 1, -100, 100]);
    }

    #[test]
    fn random_cells_in_range_and_covering() {
        let cells = random_cells(10_000, 64, 5);
        assert!(cells.iter().all(|&c| c < 64));
        let distinct: std::collections::HashSet<u32> = cells.iter().copied().collect();
        assert_eq!(distinct.len(), 64, "10k draws should hit all 64 cells");
    }

    #[test]
    fn paper_key_counts() {
        assert_eq!(PAPER_ELEMENTS / PAPER_REPEATS, 10_000_000, "paper: 10M unique keys");
    }
}
