//! The sorting algorithms: standard, strided (Algorithm 1), tiled strided
//! (Algorithm 2), and the random baseline.
//!
//! Every order costs O(N) key rewriting plus one stable argsort (exactly
//! the paper's §4.3 structure: "The adjustment of the keys is O(N). Once
//! the new keys are generated, we use the parallel sort_by_key
//! function"). Every argsort is [`pk::sort::argsort`] — O(N) too whenever
//! the keys are dense, as cell indices and their rewrites are — and
//! writes a `u32` permutation into a buffer its caller owns:
//! [`permutation_into`] is that step alone, what `Species::sort` writes
//! into a buffer its caller lends and gathers its columns through. The functions that
//! reorder a key slice and a value slice *in tandem* ([`sort_pairs`] and
//! [`sort_pairs_in`]) are that permutation in a transient buffer
//! plus one gather per array into another, copied back, which is why the
//! values are `Copy`.

use crate::order::SortOrder;
use pk::sort::{apply_permutation, histogram, min_max};
use pk::space::{ExecSpace, Serial};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Seed of [`SortOrder::Random`]'s shuffle.
const RANDOM_ORDER_SEED: u64 = 0xC0FFEE;

/// Reorder `(keys, values)` by `order` (dispatcher over the algorithms).
pub fn sort_pairs<V: Copy>(order: SortOrder, keys: &mut [u32], values: &mut [V]) {
    sort_pairs_in(&Serial, order, keys, values);
}

/// [`sort_pairs`] with the O(N) key-rewrite passes run on `space`.
///
/// The output is identical to [`sort_pairs`]'s for every space and
/// worker count: occurrence ordinals are assigned by a deterministic
/// block decomposition (per-block histograms, exclusive scan across
/// blocks) rather than atomic fetch-adds.
pub fn sort_pairs_in<V: Copy, S: ExecSpace>(
    space: &S,
    order: SortOrder,
    keys: &mut [u32],
    values: &mut [V],
) {
    let _s = telemetry::span("psort.sort_pairs")
        .arg("order", order)
        .arg("n", keys.len())
        .arg("space", space.name());
    assert_eq!(keys.len(), values.len(), "key/value extent mismatch");
    let mut perm = Vec::new();
    permutation_in(space, order, keys, &mut perm);
    permute_pairs(&perm, keys, values);
}

/// Write into `perm` (cleared first, its capacity kept) the permutation
/// that puts `keys` in `order`: `perm[i]` is the index of the key that
/// goes to slot `i`, so gathering any array parallel to `keys` through
/// it reorders that array as [`sort_pairs`] would. The order's key
/// rewrite, then [`pk::sort::argsort`]; nothing else is kept.
///
/// # Panics
/// Panics if `keys` holds more than `u32::MAX` elements.
pub fn permutation_into(order: SortOrder, keys: &[u32], perm: &mut Vec<u32>) {
    permutation_in(&Serial, order, keys, perm);
}

/// [`permutation_into`] with the key rewrite run on `space`.
fn permutation_in<S: ExecSpace>(space: &S, order: SortOrder, keys: &[u32], perm: &mut Vec<u32>) {
    match order {
        SortOrder::Random => shuffled_permutation(RANDOM_ORDER_SEED, keys.len(), perm),
        SortOrder::Standard => argsort(keys, perm),
        SortOrder::Strided => argsort(&strided_keys(space, keys), perm),
        SortOrder::TiledStrided { tile } => argsort(&tiled_strided_keys(space, tile, keys), perm),
    }
}

/// The one argsort behind every order: [`pk::sort::argsort`].
fn argsort<K: Copy + Ord + Into<u64>>(keys: &[K], perm: &mut Vec<u32>) {
    let _s = telemetry::span("psort.sort_by_key");
    pk::sort::argsort(keys, perm);
}

/// `keys[i], values[i] = keys[perm[i]], values[perm[i]]`: each array is
/// gathered through `perm` into a transient buffer (reads follow the
/// permutation, writes stream) and copied back, the keys' buffer freed
/// before the values' is made.
fn permute_pairs<V: Copy>(perm: &[u32], keys: &mut [u32], values: &mut [V]) {
    let _s = telemetry::span("psort.permute");
    keys.copy_from_slice(&apply_permutation(perm, keys));
    values.copy_from_slice(&apply_permutation(perm, values));
}

/// [`SortOrder::Random`]'s permutation: `0..n` shuffled by a generator
/// seeded with `seed`, into `perm`.
fn shuffled_permutation(seed: u64, n: usize, perm: &mut Vec<u32>) {
    assert!(u32::try_from(n).is_ok(), "shuffle: {n} keys overflow a u32 permutation");
    perm.clear();
    perm.extend(0..n as u32);
    perm.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
}

/// Algorithm 1's rewritten keys ([`SortOrder::Strided`]); `ordinal` is
/// the paper's `atomic_fetch_add` on a histogram.
///
/// Deviation from the paper's pseudocode: the occurrence offset is
/// multiplied by the key *range* (`max − min + 1`) rather than `max + 1`;
/// they coincide when `min == 0` and the former is also correct for
/// shifted key domains.
fn strided_keys<S: ExecSpace>(space: &S, keys: &[u32]) -> Vec<u64> {
    let Some((min_k, max_k)) = min_max(space, keys) else {
        return Vec::new();
    };
    let (min_k, range) = (min_k as u64, (max_k - min_k) as u64 + 1);
    rewrite_keys_in(space, keys, min_k, range, &|id, ordinal| id + ordinal * range)
}

/// Algorithm 2's rewritten keys ([`SortOrder::TiledStrided`]).
///
/// Deviation from the paper's pseudocode (Algorithm 2 line 14 adds the
/// *global* `id`): the in-tile offset `id mod tile` is used instead, which
/// keeps chunks disjoint in the rewritten key space for every input (the
/// published form can interleave chunks when `id ≥ tile`).
fn tiled_strided_keys<S: ExecSpace>(space: &S, tile: usize, keys: &[u32]) -> Vec<u64> {
    assert!(tile >= 1, "tile size must be at least 1");
    let Some((min_k, max_k)) = min_max(space, keys) else {
        return Vec::new();
    };
    let (min_k, max_k) = (min_k as u64, max_k as u64);
    let range = max_k - min_k + 1;
    let counts = histogram(keys, min_k, max_k);
    let max_r = counts.iter().copied().max().unwrap_or(0) as u64;
    // a tile past the key range is one chunk either way; clamping keeps
    // the rewritten keys in range for any tile
    let tile = (tile as u64).min(range);
    let chunk_sz = tile * max_r;
    rewrite_keys_in(space, keys, min_k, range, &|id, t| {
        (id / tile) * chunk_sz + t * tile + (id % tile)
    })
}

/// Rewrite every key to `rewrite(id, ordinal)` where `id = key − min_k`
/// and `ordinal` counts the key's earlier occurrences — the paper's O(N)
/// key-adjustment pass, parallelized deterministically.
///
/// Instead of the paper's `atomic_fetch_add` (whose ordinal assignment is
/// scheduling-dependent), each block histograms its own keys, an
/// exclusive scan across blocks gives every block its starting ordinal
/// per key, and blocks then assign ordinals independently. The result
/// equals the sequential left-to-right assignment for every space.
fn rewrite_keys_in<S: ExecSpace>(
    space: &S,
    keys: &[u32],
    min_k: u64,
    range: u64,
    rewrite: &(dyn Fn(u64, u64) -> u64 + Sync),
) -> Vec<u64> {
    let n = keys.len();
    // pass 1: per-block key histograms
    let mut hists: Vec<Vec<u64>> = {
        let _s = telemetry::span("psort.histogram").arg("n", n).arg("range", range);
        space
            .parallel_windows(keys, 1, |_, _, keys| {
                let mut hist = vec![0u64; range as usize];
                for &k in keys {
                    hist[(k as u64 - min_k) as usize] += 1;
                }
                hist
            })
            .collect()
    };
    // pass 2: exclusive scan across blocks → each block's starting
    // ordinal per key (small: blocks × range, serial)
    {
        let _s = telemetry::span("psort.scan").arg("blocks", hists.len());
        let mut running = vec![0u64; range as usize];
        for hist in hists.iter_mut() {
            for (r, h) in running.iter_mut().zip(hist.iter_mut()) {
                let count = *h;
                *h = *r;
                *r += count;
            }
        }
    }
    // pass 3: blocks assign ordinals independently from their bases, on
    // the same blocks as pass 1
    let _s = telemetry::span("psort.rewrite").arg("n", n);
    let mut new_keys = vec![0u64; n];
    space.parallel_windows((&mut new_keys[..], keys), 1, |b, _, (out, keys)| {
        let mut seen = hists[b].clone();
        for (&k, o) in keys.iter().zip(out) {
            let id = k as u64 - min_k;
            let ordinal = seen[id as usize];
            seen[id as usize] += 1;
            *o = rewrite(id, ordinal);
        }
    });
    new_keys
}

/// Convenience: sort a copy of `keys` by `order` with carried indices,
/// returning `(sorted_keys, permutation)` where
/// `sorted_keys[i] == keys[permutation[i]]`.
pub fn ordered_keys(order: SortOrder, keys: &[u32]) -> (Vec<u32>, Vec<usize>) {
    let mut k = keys.to_vec();
    let mut idx: Vec<usize> = (0..keys.len()).collect();
    sort_pairs(order, &mut k, &mut idx);
    (k, idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    fn repeated_keys(unique: u32, reps: usize) -> Vec<u32> {
        // interleaved, slightly scrambled input
        let mut keys = Vec::with_capacity(unique as usize * reps);
        for r in 0..reps {
            for k in 0..unique {
                keys.push((k + r as u32 * 7) % unique);
            }
        }
        keys
    }

    #[test]
    fn standard_sort_produces_ascending_runs() {
        let mut keys = vec![3u32, 1, 3, 0, 1, 3];
        let mut vals = vec![30, 10, 31, 0, 11, 32];
        sort_pairs(SortOrder::Standard, &mut keys, &mut vals);
        assert_eq!(keys, vec![0, 1, 1, 3, 3, 3]);
        assert_eq!(vals, vec![0, 10, 11, 30, 31, 32], "stable tandem sort");
    }

    #[test]
    fn strided_sort_structure() {
        let mut keys = repeated_keys(16, 5);
        let mut vals: Vec<usize> = (0..keys.len()).collect();
        let orig = keys.clone();
        sort_pairs(SortOrder::Strided, &mut keys, &mut vals);
        assert!(verify::is_strided_order(&keys), "{keys:?}");
        verify::assert_same_pairs(&orig, &keys, &vals);
    }

    #[test]
    fn strided_sort_example_from_paper_figure2() {
        // Figure 2 uses keys with duplicates; strided output cycles
        // through the distinct keys
        let mut keys = vec![2u32, 0, 1, 0, 2, 1, 0, 2];
        let mut vals: Vec<char> = ('a'..='h').collect();
        sort_pairs(SortOrder::Strided, &mut keys, &mut vals);
        assert_eq!(keys, vec![0, 1, 2, 0, 1, 2, 0, 2]);
    }

    #[test]
    fn the_histogram_span_carries_the_sort_occupancy() {
        // keys 5..=41, so range 37; the span is this thread's, on its track
        let mut keys: Vec<u32> = (0..777u32).map(|i| i * 7 % 37 + 5).collect();
        let mut vals: Vec<usize> = (0..keys.len()).collect();
        let (track, t0) = (telemetry::current_track(), telemetry::now_ns());
        let was = telemetry::enabled();
        telemetry::set_enabled(true);
        sort_pairs(SortOrder::Strided, &mut keys, &mut vals);
        telemetry::set_enabled(was);
        let events = telemetry::snapshot().events;
        let mut spans = events
            .iter()
            .filter(|e| e.name == "psort.histogram" && e.track == track && e.start_ns >= t0);
        let span = spans.next().expect("the sort records its histogram span");
        assert!(spans.next().is_none(), "one histogram pass per sort");
        let arg = |k| span.args.iter().find(|(key, _)| *key == k).map(|(_, v)| v.as_str());
        assert_eq!((arg("n"), arg("range")), (Some("777"), Some("37")));
    }

    #[test]
    fn tiled_sort_structure() {
        let tile = 4;
        let mut keys = repeated_keys(16, 6);
        let mut vals: Vec<usize> = (0..keys.len()).collect();
        let orig = keys.clone();
        sort_pairs(SortOrder::TiledStrided { tile }, &mut keys, &mut vals);
        assert!(verify::is_tiled_strided_order(&keys, tile), "{keys:?}");
        verify::assert_same_pairs(&orig, &keys, &vals);
    }

    #[test]
    fn tiled_sort_with_uniform_counts_repeats_exact_tiles() {
        let tile = 2usize;
        let mut keys = vec![0u32, 1, 2, 3, 0, 1, 2, 3];
        let mut vals: Vec<usize> = (0..8).collect();
        sort_pairs(SortOrder::TiledStrided { tile }, &mut keys, &mut vals);
        // chunk {0,1}: tiles [0,1][0,1]; chunk {2,3}: tiles [2,3][2,3]
        assert_eq!(keys, vec![0, 1, 0, 1, 2, 3, 2, 3]);
    }

    #[test]
    fn tile_one_degenerates_to_standard() {
        let mut a = repeated_keys(8, 3);
        let mut va: Vec<usize> = (0..a.len()).collect();
        let mut b = a.clone();
        let mut vb = va.clone();
        sort_pairs(SortOrder::TiledStrided { tile: 1 }, &mut a, &mut va);
        sort_pairs(SortOrder::Standard, &mut b, &mut vb);
        assert_eq!(a, b, "tile=1 chunks are single keys → ascending runs");
    }

    #[test]
    fn huge_tile_degenerates_to_strided() {
        let mut b = repeated_keys(8, 3);
        let mut vb: Vec<usize> = (0..b.len()).collect();
        sort_pairs(SortOrder::Strided, &mut b, &mut vb);
        // usize::MAX used to overflow the chunk size
        for tile in [1 << 20, usize::MAX] {
            let mut a = repeated_keys(8, 3);
            let mut va: Vec<usize> = (0..a.len()).collect();
            sort_pairs(SortOrder::TiledStrided { tile }, &mut a, &mut va);
            assert_eq!((&a, &va), (&b, &vb), "tile {tile}: exactly strided order");
        }
    }

    #[test]
    fn threaded_rewrite_matches_serial_exactly() {
        use pk::Threads;
        let threads = Threads::new(4);
        for unique in [3u32, 16, 61] {
            let keys = repeated_keys(unique, 7);
            let mut ks = keys.clone();
            let mut vs: Vec<usize> = (0..keys.len()).collect();
            let mut kt = keys.clone();
            let mut vt = vs.clone();
            sort_pairs(SortOrder::Strided, &mut ks, &mut vs);
            sort_pairs_in(&threads, SortOrder::Strided, &mut kt, &mut vt);
            assert_eq!(ks, kt, "strided keys, unique={unique}");
            assert_eq!(vs, vt, "strided values, unique={unique}");
            let mut ks = keys.clone();
            let mut vs: Vec<usize> = (0..keys.len()).collect();
            let mut kt = keys.clone();
            let mut vt = vs.clone();
            sort_pairs(SortOrder::TiledStrided { tile: 4 }, &mut ks, &mut vs);
            sort_pairs_in(&threads, SortOrder::TiledStrided { tile: 4 }, &mut kt, &mut vt);
            assert_eq!(ks, kt, "tiled keys, unique={unique}");
            assert_eq!(vs, vt, "tiled values, unique={unique}");
        }
    }

    #[test]
    fn sort_pairs_in_dispatches_on_threads() {
        use pk::Threads;
        let threads = Threads::new(3);
        let keys = repeated_keys(8, 3);
        for order in SortOrder::fig7_set(4) {
            let mut ks = keys.clone();
            let mut vs: Vec<usize> = (0..keys.len()).collect();
            let mut kt = keys.clone();
            let mut vt = vs.clone();
            sort_pairs(order, &mut ks, &mut vs);
            sort_pairs_in(&threads, order, &mut kt, &mut vt);
            assert_eq!(ks, kt, "{order}");
            assert_eq!(vs, vt, "{order}");
        }
    }

    #[test]
    fn random_order_is_deterministic_permutation() {
        let mut k1 = repeated_keys(8, 4);
        let mut v1: Vec<usize> = (0..k1.len()).collect();
        let orig = k1.clone();
        let mut k2 = k1.clone();
        let mut v2 = v1.clone();
        sort_pairs(SortOrder::Random, &mut k1, &mut v1);
        sort_pairs(SortOrder::Random, &mut k2, &mut v2);
        assert_eq!(k1, k2);
        assert_eq!(v1, v2);
        verify::assert_same_pairs(&orig, &k1, &v1);
        assert_ne!(k1, orig, "shuffle should move something");
    }

    proptest::proptest! {
        /// Keys and a payload that is not an index come out as both
        /// gathered through the stable comparison argsort of the order's
        /// rewritten keys — for dense keys (the counting arm), sparse ones
        /// (range > 8 n: the comparison arm), one key repeated, and none.
        #[test]
        fn sort_pairs_gathers_keys_and_payload_through_the_reference_permutation(
            ids in proptest::collection::vec(0u32..40, 0..200),
            offset in 0u32..1000,
        ) {
            let n = ids.len();
            let sparse_stride = 8 * n as u32 + 1;
            let key_sets = [
                ids.iter().map(|&id| id + offset).collect::<Vec<u32>>(),
                ids.iter().map(|&id| id * sparse_stride + offset).collect(),
                vec![offset; n],
                Vec::new(),
            ];
            for keys in &key_sets {
                let payload: Vec<(u32, f32)> =
                    (0..keys.len()).map(|i| (i as u32, 0.5 * i as f32 - 3.0)).collect();
                let keyed = [1, 7, 64].map(|tile| SortOrder::TiledStrided { tile });
                for order in [SortOrder::Standard, SortOrder::Strided].into_iter().chain(keyed) {
                    let rewritten = match order {
                        SortOrder::Strided => strided_keys(&Serial, keys),
                        SortOrder::TiledStrided { tile } => tiled_strided_keys(&Serial, tile, keys),
                        _ => keys.iter().map(|&k| k as u64).collect(),
                    };
                    let perm = pk::sort::sort_permutation(&rewritten);
                    let (mut k, mut v) = (keys.clone(), payload.clone());
                    sort_pairs(order, &mut k, &mut v);
                    let want_k: Vec<u32> = perm.iter().map(|&p| keys[p]).collect();
                    let want_v: Vec<(u32, f32)> = perm.iter().map(|&p| payload[p]).collect();
                    proptest::prop_assert_eq!(&k, &want_k, "{} keys", order);
                    proptest::prop_assert_eq!(&v, &want_v, "{} payload", order);
                }
                // random: one shuffle, the same on every call, and every
                // key still beside its payload
                let (mut k, mut v) = (keys.clone(), payload.clone());
                sort_pairs(SortOrder::Random, &mut k, &mut v);
                let (mut k2, mut v2) = (keys.clone(), payload.clone());
                sort_pairs(SortOrder::Random, &mut k2, &mut v2);
                proptest::prop_assert_eq!((&k, &v), (&k2, &v2));
                let mut seen: Vec<u32> = v.iter().map(|&(i, _)| i).collect();
                seen.sort_unstable();
                proptest::prop_assert_eq!(seen, (0..keys.len() as u32).collect::<Vec<_>>());
                for (&key, &(i, x)) in k.iter().zip(&v) {
                    proptest::prop_assert_eq!((key, (i, x)), (keys[i as usize], payload[i as usize]));
                }
            }
        }
    }

    #[test]
    fn permutation_into_is_the_reference_permutation_for_every_order() {
        let dense = repeated_keys(37, 9);
        let sets: [(&str, Vec<u32>); 6] = [
            ("empty", Vec::new()),
            ("one key", vec![12]),
            ("all equal", vec![5; 70]),
            ("dense", dense.clone()),
            ("range over 8 n", dense.iter().map(|&k| k * 100_003).collect()),
            ("near u32::MAX", dense.iter().map(|&k| u32::MAX - 3 * k).collect()),
        ];
        // one buffer for every call, as a species keeps it
        let mut perm = Vec::new();
        for (name, keys) in &sets {
            for order in SortOrder::fig7_set(4) {
                permutation_into(order, keys, &mut perm);
                let want = match order {
                    SortOrder::Random => {
                        let mut p: Vec<usize> = (0..keys.len()).collect();
                        p.shuffle(&mut ChaCha8Rng::seed_from_u64(RANDOM_ORDER_SEED));
                        p
                    }
                    SortOrder::Standard => pk::sort::sort_permutation(keys),
                    SortOrder::Strided => pk::sort::sort_permutation(&strided_keys(&Serial, keys)),
                    SortOrder::TiledStrided { tile } => {
                        pk::sort::sort_permutation(&tiled_strided_keys(&Serial, tile, keys))
                    }
                };
                let want: Vec<u32> = want.iter().map(|&p| p as u32).collect();
                assert_eq!(perm, want, "{order}, {name}");
            }
        }
    }

    #[test]
    fn sort_pairs_dispatches() {
        let keys = repeated_keys(8, 3);
        for order in SortOrder::fig7_set(4) {
            let (k, perm) = ordered_keys(order, &keys);
            // permutation validity
            let mut sorted_perm = perm.clone();
            sorted_perm.sort_unstable();
            assert_eq!(sorted_perm, (0..keys.len()).collect::<Vec<_>>());
            for (i, &p) in perm.iter().enumerate() {
                assert_eq!(k[i], keys[p], "{order}");
            }
        }
    }

    #[test]
    fn shifted_key_domain_handled() {
        // keys not starting at 0 (the min_k subtraction path)
        let mut keys = vec![1005u32, 1001, 1005, 1003, 1001];
        let mut vals: Vec<usize> = (0..5).collect();
        sort_pairs(SortOrder::Strided, &mut keys, &mut vals);
        assert!(verify::is_strided_order(&keys));
        assert_eq!(keys[0], 1001);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let mut keys: Vec<u32> = vec![];
        let mut vals: Vec<u8> = vec![];
        sort_pairs(SortOrder::Strided, &mut keys, &mut vals);
        sort_pairs(SortOrder::TiledStrided { tile: 4 }, &mut keys, &mut vals);
        let mut keys = vec![9u32];
        let mut vals = vec![1u8];
        sort_pairs(SortOrder::Strided, &mut keys, &mut vals);
        assert_eq!(keys, vec![9]);
        sort_pairs(SortOrder::TiledStrided { tile: 4 }, &mut keys, &mut vals);
        assert_eq!(vals, vec![1]);
    }

    #[test]
    #[should_panic(expected = "extent mismatch")]
    fn mismatched_lengths_panic() {
        let mut keys = vec![1u32, 2];
        let mut vals = vec![1u8];
        sort_pairs(SortOrder::Strided, &mut keys, &mut vals);
    }
}
