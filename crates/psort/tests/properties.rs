//! Property tests: the sorting algorithms' structural invariants hold for
//! arbitrary inputs, and no order changes kernel results.

use proptest::prelude::*;
use psort::patterns;
use psort::sorts::{ordered_keys, sort_pairs};
use psort::verify;
use psort::SortOrder;

fn key_vec() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..64, 0..300)
}

proptest! {
    /// Strided sort always yields a valid strided order and preserves pairs.
    #[test]
    fn strided_sort_invariants(keys in key_vec()) {
        let orig = keys.clone();
        let mut k = keys;
        let mut v: Vec<usize> = (0..k.len()).collect();
        sort_pairs(SortOrder::Strided, &mut k, &mut v);
        prop_assert!(verify::is_strided_order(&k));
        verify::assert_same_pairs(&orig, &k, &v);
    }

    /// Tiled strided sort yields a valid tiled order for any tile size.
    #[test]
    fn tiled_sort_invariants(keys in key_vec(), tile in 1usize..40) {
        let orig = keys.clone();
        let mut k = keys;
        let mut v: Vec<usize> = (0..k.len()).collect();
        sort_pairs(SortOrder::TiledStrided { tile }, &mut k, &mut v);
        prop_assert!(verify::is_tiled_strided_order(&k, tile), "tile={tile} keys={k:?}");
        verify::assert_same_pairs(&orig, &k, &v);
    }

    /// Standard sort yields ascending keys and preserves pairs.
    #[test]
    fn standard_sort_invariants(keys in key_vec()) {
        let orig = keys.clone();
        let mut k = keys;
        let mut v: Vec<usize> = (0..k.len()).collect();
        sort_pairs(SortOrder::Standard, &mut k, &mut v);
        prop_assert!(verify::is_standard_order(&k));
        verify::assert_same_pairs(&orig, &k, &v);
    }

    /// Every order produces a permutation: same key multiset.
    #[test]
    fn all_orders_are_permutations(keys in key_vec(), tile in 1usize..16) {
        for order in SortOrder::fig7_set(tile) {
            let (k, perm) = ordered_keys(order, &keys);
            let mut a = k.clone();
            let mut b = keys.clone();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(&a, &b, "order {} changed the multiset", order);
            let mut p = perm.clone();
            p.sort_unstable();
            prop_assert_eq!(p, (0..keys.len()).collect::<Vec<_>>());
        }
    }

    /// The gather-scatter kernel result is invariant across orders.
    #[test]
    fn kernel_result_order_invariant(
        unique in 1usize..24,
        reps in 1usize..8,
        seed in any::<u64>(),
        tile in 1usize..8,
    ) {
        let keys = patterns::repeated_keys(unique, reps, seed);
        let values: Vec<f64> = (0..keys.len()).map(|i| (i % 5) as f64 + 0.5).collect();
        let table: Vec<f64> = (0..unique).map(|i| i as f64 + 1.0).collect();
        let stencil = [0i64, -1, 1];
        let want = psort::gather_scatter::run_serial(&keys, &values, &table, &stencil);
        for order in SortOrder::fig7_set(tile) {
            let mut k = keys.clone();
            let mut v = values.clone();
            sort_pairs(order, &mut k, &mut v);
            let got = psort::gather_scatter::run_serial(&k, &v, &table, &stencil);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() < 1e-9);
            }
        }
    }

    /// Strided order interleaves duplicates: no two equal keys adjacent
    /// (when more than one distinct key exists).
    #[test]
    fn strided_order_separates_duplicates(unique in 2usize..32, reps in 1usize..8, seed in any::<u64>()) {
        let mut keys = patterns::repeated_keys(unique, reps, seed);
        let mut v: Vec<usize> = (0..keys.len()).collect();
        sort_pairs(SortOrder::Strided, &mut keys, &mut v);
        prop_assert!(
            keys.windows(2).all(|w| w[0] != w[1]),
            "duplicates must never be adjacent in strided order: {keys:?}"
        );
    }

    /// Sorting is idempotent: re-sorting an already-sorted array is a no-op.
    #[test]
    fn sorts_are_idempotent(keys in key_vec(), tile in 1usize..16) {
        for order in SortOrder::sorted_set(tile) {
            let (once, _) = ordered_keys(order, &keys);
            let (twice, _) = ordered_keys(order, &once);
            prop_assert_eq!(&once, &twice, "{} not idempotent", order);
        }
    }
}
