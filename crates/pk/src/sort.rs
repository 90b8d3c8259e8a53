//! Sorting primitives: the stable argsort every sort in the workspace goes
//! through and the gather that applies its permutation (together the
//! `Kokkos::Experimental::sort_by_key` analog), plus the `min_max` and
//! histogram helpers the paper's sorting algorithms (Algorithms 1 and 2)
//! are built on.
//!
//! All sorts here are **stable**: the paper's strided orders rely on
//! duplicate keys keeping a deterministic relative order so that the
//! rewritten keys (which encode the duplicate ordinal) reconstruct exactly
//! the intended sequence.

use crate::reduce::{MinMax, Scalar};
use crate::space::ExecSpace;

/// Stable comparison argsort: returns the permutation `perm` such that
/// `keys[perm[0]] <= keys[perm[1]] <= ...`, with equal keys in original
/// order. The reference the chooser ([`argsort`]) is tested against, and
/// its arm for sparse keys.
pub fn sort_permutation<K: Ord>(keys: &[K]) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..keys.len()).collect();
    perm.sort_by_key(|&i| &keys[i]);
    perm
}

/// Key range, as a multiple of the element count, up to which
/// [`argsort`] counts instead of comparing.
const COUNTING_SORT_MAX_RANGE_FACTOR: u64 = 8;

/// The stable argsort every sort in the workspace goes through: writes
/// into `perm` (cleared first, its capacity kept) the permutation
/// [`sort_permutation`] returns, as `u32` indices, by an O(n + range)
/// counting sort when the keys span at most 8 n values (cell indices,
/// and the strided orders' rewritten keys) and by the comparison sort
/// otherwise. Both arms are stable, so the result does not depend on the
/// choice. The counting arm's buckets (4 B per key value in range) live
/// for the call only.
///
/// # Panics
/// Panics if `keys` holds more than `u32::MAX` elements.
pub fn argsort<K>(keys: &[K], perm: &mut Vec<u32>)
where
    K: Copy + Ord + Into<u64>,
{
    let n = keys.len();
    assert!(u32::try_from(n).is_ok(), "argsort: {n} keys overflow a u32 permutation");
    perm.clear();
    let Some((min, max)) = keys.iter().fold(None, |mm: Option<(u64, u64)>, &k| {
        let k = k.into();
        Some(mm.map_or((k, k), |(lo, hi)| (lo.min(k), hi.max(k))))
    }) else {
        return;
    };
    if max - min >= COUNTING_SORT_MAX_RANGE_FACTOR.saturating_mul(n as u64) {
        perm.extend(0..n as u32);
        perm.sort_by_key(|&i| keys[i as usize]);
        return;
    }
    // counts[b + 1] = keys in bucket b, then prefix sums: counts[b] is
    // the output cursor of bucket b (at most n, so a u32)
    let mut counts = vec![0u32; (max - min) as usize + 2];
    for &k in keys {
        counts[(k.into() - min) as usize + 1] += 1;
    }
    for b in 1..counts.len() {
        counts[b] += counts[b - 1];
    }
    perm.resize(n, 0);
    for (i, &k) in keys.iter().enumerate() {
        let cursor = &mut counts[(k.into() - min) as usize];
        perm[*cursor as usize] = i as u32;
        *cursor += 1;
    }
}

/// Gather `values` through `perm`: `out[i] = values[perm[i]]`.
pub fn apply_permutation<T: Clone>(perm: &[u32], values: &[T]) -> Vec<T> {
    assert_eq!(perm.len(), values.len(), "permutation length mismatch");
    perm.iter().map(|&i| values[i as usize].clone()).collect()
}

/// Parallel min/max of a slice (`Kokkos::MinMax` reduction).
///
/// Returns `None` for an empty slice.
pub fn min_max<S: ExecSpace, T: Scalar>(space: &S, data: &[T]) -> Option<(T, T)> {
    if data.is_empty() {
        return None;
    }
    Some(space.parallel_reduce(data.len(), MinMax::<T>::new(), |i| (data[i], data[i])))
}

/// Histogram of `keys` over `[min, max]`: `out[k - min]` counts key `k`.
pub fn histogram<K: Copy + Into<u64>>(keys: &[K], min: u64, max: u64) -> Vec<u32> {
    let mut counts = vec![0u32; (max - min + 1) as usize];
    for &k in keys {
        let k = k.into();
        debug_assert!((min..=max).contains(&k), "key {k} outside [{min}, {max}]");
        counts[(k - min) as usize] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Serial;

    #[test]
    fn sort_permutation_is_stable() {
        let keys = vec![2u64, 1, 2, 1, 0];
        let perm = sort_permutation(&keys);
        assert_eq!(perm, vec![4, 1, 3, 0, 2]); // equal keys keep input order
    }

    #[test]
    fn argsort_arms_match_comparison_sort() {
        let dense: Vec<u64> = (0..500).map(|i| ((i * 7919) % 37) as u64 + 5).collect();
        let sparse: Vec<u64> = dense.iter().map(|&k| k * 1_000_003).collect();
        let edge = vec![u64::MAX, 0, u64::MAX, 7];
        // one buffer for every call: a longer stale permutation is cleared
        let mut perm = vec![9u32; 1000];
        for keys in [&dense[..], &sparse, &edge, &dense[..1], &[]] {
            argsort(keys, &mut perm);
            assert_eq!(perm, as_u32(&sort_permutation(keys)), "both arms are stable");
        }
        assert_eq!(perm.capacity(), 1000, "the caller's buffer is reused");
        let narrow: Vec<u32> = dense.iter().map(|&k| k as u32).collect();
        argsort(&narrow, &mut perm);
        assert_eq!(perm, as_u32(&sort_permutation(&narrow)));
    }

    fn as_u32(perm: &[usize]) -> Vec<u32> {
        perm.iter().map(|&p| p as u32).collect()
    }

    #[test]
    fn apply_permutation_gathers_through_the_argsort() {
        let keys = vec![3u64, 1, 4, 1, 5, 9, 2, 6];
        let perm = as_u32(&sort_permutation(&keys));
        assert_eq!(apply_permutation(&perm, &keys), vec![1, 1, 2, 3, 4, 5, 6, 9]);
    }

    #[test]
    fn min_max_reduction() {
        let s = Serial;
        assert_eq!(min_max::<_, i64>(&s, &[]), None);
        assert_eq!(min_max(&s, &[3i64]), Some((3, 3)));
        assert_eq!(min_max(&s, &[5i64, -2, 8, 0]), Some((-2, 8)));
    }

    #[test]
    fn histogram_counts_each_key() {
        let keys = vec![2u64, 4, 2, 3, 4, 4];
        let h = histogram(&keys, 2, 5);
        assert_eq!(h, vec![2, 1, 3, 0]);
        assert_eq!(h.iter().sum::<u32>() as usize, keys.len());
    }
}
