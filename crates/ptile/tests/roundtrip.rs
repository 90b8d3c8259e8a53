//! Property tests: the codec is bitwise lossless for arbitrary input —
//! including bit patterns a simulation never produces (NaN payloads,
//! infinities, subnormals, `-0.0`) — in both raw and packed modes.

use proptest::prelude::*;
use ptile::{decode, encode, raw_size, Columns};

/// Arbitrary f32 *bit patterns*, not values: `any::<u32>()` reinterpreted,
/// so NaN payloads and subnormals are drawn with full probability.
fn tile_from_words(cells: &[u32], words: &[u64], ids: &[u64]) -> Columns {
    let n = cells.len().min(words.len() / 7).min(ids.len());
    let mut t = Columns::default();
    let mut cell = 0u32;
    for i in 0..n {
        // mostly-sorted cells with occasional jumps (post-migration shape)
        cell = cell.wrapping_add(cells[i] % 5).wrapping_add(if cells[i].is_multiple_of(97) { 1000 } else { 0 });
        t.0.push(cell);
        for (arr, &w) in t.1.iter_mut().zip(&words[i * 7..i * 7 + 7]) {
            arr.push(f32::from_bits(w as u32));
        }
        t.2.push(ids[i]);
    }
    t
}

fn enc(t: &Columns, compress: bool) -> Vec<u8> {
    encode(&t.0, t.1.each_ref().map(Vec::as_slice), &t.2, compress)
}

fn assert_bits_eq(a: &Columns, b: &Columns) {
    assert_eq!(a.0, b.0);
    assert_eq!(a.2, b.2);
    for (x, y) in a.1.iter().zip(&b.1) {
        assert!(x.iter().map(|v| v.to_bits()).eq(y.iter().map(|v| v.to_bits())));
    }
}

proptest! {
    /// Raw and packed encodings both round-trip any bit pattern exactly.
    #[test]
    fn codec_round_trip_is_bitwise_lossless(
        cells in proptest::collection::vec(0u32..u32::MAX, 0..300),
        words in proptest::collection::vec(0u64..u64::MAX, 0..2100),
        ids in proptest::collection::vec(0u64..u64::MAX, 0..300),
    ) {
        let t = tile_from_words(&cells, &words, &ids);
        for compress in [false, true] {
            let back = decode(&enc(&t, compress)).expect("well-formed blob must decode");
            assert_bits_eq(&back, &t);
        }
    }

    /// Truncating a blob anywhere is a typed error, never a wrong tile.
    #[test]
    fn truncation_never_decodes(
        cells in proptest::collection::vec(0u32..u32::MAX, 1..100),
        words in proptest::collection::vec(0u64..u64::MAX, 7..700),
        ids in proptest::collection::vec(0u64..u64::MAX, 1..100),
        frac in 0.0f64..1.0,
    ) {
        let t = tile_from_words(&cells, &words, &ids);
        prop_assume!(!t.0.is_empty());
        for compress in [false, true] {
            let blob = enc(&t, compress);
            let cut = ((blob.len() - 1) as f64 * frac) as usize;
            prop_assert!(decode(&blob[..cut]).is_err(), "cut {cut}/{} decoded", blob.len());
        }
    }

    /// Degenerate (constant) species compress hard and still round-trip.
    #[test]
    fn constant_tiles_compress(n in 64usize..1000, bits in 0u32..u32::MAX) {
        let v = f32::from_bits(bits);
        let t: Columns = (vec![7; n], std::array::from_fn(|_| vec![v; n]), (0..n as u64).collect());
        let blob = enc(&t, true);
        prop_assert!(blob.len() * 4 < raw_size(n), "{} vs raw {}", blob.len(), raw_size(n));
        assert_bits_eq(&decode(&blob).unwrap(), &t);
    }
}
