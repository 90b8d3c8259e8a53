//! Structural verifiers for the sorted orders.
//!
//! These encode, as checkable predicates, exactly the properties the paper
//! claims for each order — used by unit, property, and integration tests.

use pk::sort::histogram;

/// Minimum and maximum of a nonempty key slice.
fn min_max_keys(keys: &[u32]) -> (u64, u64) {
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    for &k in keys {
        lo = lo.min(k as u64);
        hi = hi.max(k as u64);
    }
    (lo, hi)
}

/// True when `keys` is ascending (standard classification).
pub fn is_standard_order(keys: &[u32]) -> bool {
    keys.windows(2).all(|w| w[0] <= w[1])
}

/// True when `keys` is in strided order: replaying Algorithm 1's key
/// rewrite over the sequence yields a strictly increasing rewritten-key
/// stream. Equivalent to the paper's "repeating and strictly monotonically
/// increasing sequences" with the *p*-th occurrence of every key in the
/// *p*-th sweep.
pub fn is_strided_order(keys: &[u32]) -> bool {
    if keys.len() <= 1 {
        return true;
    }
    let (min_k, max_k) = min_max_keys(keys);
    let range = max_k - min_k + 1;
    let mut seen = vec![0u64; range as usize];
    let mut prev: Option<u64> = None;
    for &k in keys {
        let id = k as u64 - min_k;
        let ord = seen[id as usize];
        seen[id as usize] += 1;
        let rewritten = id + ord * range;
        if let Some(p) = prev {
            if rewritten <= p {
                return false;
            }
        }
        prev = Some(rewritten);
    }
    true
}

/// True when `keys` is in tiled strided order for the given `tile` size:
/// replaying Algorithm 2's rewrite (with the in-tile offset) yields a
/// strictly increasing rewritten-key stream.
pub fn is_tiled_strided_order(keys: &[u32], tile: usize) -> bool {
    if keys.len() <= 1 {
        return true;
    }
    let tile = tile.max(1) as u64;
    let (min_k, max_k) = min_max_keys(keys);
    let counts = histogram(keys, min_k, max_k);
    let max_r = counts.iter().copied().max().unwrap_or(0) as u64;
    let chunk_sz = tile * max_r;
    let range = max_k - min_k + 1;
    let mut seen = vec![0u64; range as usize];
    let mut prev: Option<u64> = None;
    for &k in keys {
        let id = k as u64 - min_k;
        let t = seen[id as usize];
        seen[id as usize] += 1;
        let rewritten = (id / tile) * chunk_sz + t * tile + (id % tile);
        if let Some(p) = prev {
            if rewritten <= p {
                return false;
            }
        }
        prev = Some(rewritten);
    }
    true
}

/// Assert that `(keys, vals)` is a permutation of the original pairs,
/// where `vals` carries original indices: `keys[i] == orig[vals[i]]` and
/// `vals` is a permutation of `0..n`.
///
/// # Panics
/// Panics with a description when the invariant is violated.
pub fn assert_same_pairs(orig: &[u32], keys: &[u32], vals: &[usize]) {
    assert_eq!(orig.len(), keys.len());
    assert_eq!(keys.len(), vals.len());
    let mut seen = vec![false; vals.len()];
    for (i, &v) in vals.iter().enumerate() {
        assert!(!seen[v], "index {v} appears twice");
        seen[v] = true;
        assert_eq!(keys[i], orig[v], "pair broken at output position {i}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_order_predicate() {
        assert!(is_standard_order(&[1, 1, 2, 3]));
        assert!(!is_standard_order(&[2, 1]));
        assert!(is_standard_order(&[]));
    }

    #[test]
    fn strided_order_accepts_canonical_form() {
        // sweeps: [0,1,2] [0,1,2] [0,2]
        assert!(is_strided_order(&[0, 1, 2, 0, 1, 2, 0, 2]));
        assert!(is_strided_order(&[5])); // singleton
        assert!(is_strided_order(&[])); // empty
        assert!(is_strided_order(&[0, 1, 2, 3])); // unique keys ascending
    }

    #[test]
    fn strided_order_rejects_standard_form() {
        // standard order of duplicated keys is NOT strided
        assert!(!is_strided_order(&[0, 0, 1, 1]));
        // descending isn't either
        assert!(!is_strided_order(&[2, 1, 0]));
        // a sweep that repeats a key before finishing the cycle
        assert!(!is_strided_order(&[0, 1, 0, 1, 2, 2]));
    }

    #[test]
    fn tiled_order_accepts_tiles_and_rejects_strided_when_tiled_expected() {
        // tile=2, keys {0,1}x2 then {2,3}x2
        assert!(is_tiled_strided_order(&[0, 1, 0, 1, 2, 3, 2, 3], 2));
        // plain strided order breaks the chunk grouping
        assert!(!is_tiled_strided_order(&[0, 1, 2, 3, 0, 1, 2, 3], 2));
        // tile covering everything: strided order is valid
        assert!(is_tiled_strided_order(&[0, 1, 2, 3, 0, 1, 2, 3], 4));
    }

    #[test]
    fn assert_same_pairs_accepts_valid_permutation() {
        let orig = vec![7u32, 8, 7];
        let keys = vec![7u32, 7, 8];
        let vals = vec![0usize, 2, 1];
        assert_same_pairs(&orig, &keys, &vals);
    }

    #[test]
    #[should_panic(expected = "pair broken")]
    fn assert_same_pairs_rejects_broken_pairs() {
        let orig = vec![7u32, 8];
        assert_same_pairs(&orig, &[8, 8], &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn assert_same_pairs_rejects_duplicate_indices() {
        let orig = vec![7u32, 7];
        assert_same_pairs(&orig, &[7, 7], &[0, 0]);
    }
}
