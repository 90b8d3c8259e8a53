//! In-register transposes for AoS ⇄ SoA conversion.
//!
//! VPIC stores particles as interleaved records (`dx, dy, dz, i, ux, uy,
//! uz, w`); vector kernels want lane-major (SoA) registers. The paper's
//! manual strategy "implement\[s\] functions for transposing data in
//! registers... to accelerate data loading and storing in VPIC" — these are
//! those functions, written portably (the ad hoc SSE version lives in
//! [`crate::v4`]).

use crate::simd::SimdF32;

/// Interleave the low halves of two vectors: `[a0, b0, a1, b1]`
/// (`unpcklps`).
#[inline(always)]
fn interleave_lo(a: SimdF32<4>, b: SimdF32<4>) -> SimdF32<4> {
    SimdF32([a.0[0], b.0[0], a.0[1], b.0[1]])
}

/// Interleave the high halves of two vectors: `[a2, b2, a3, b3]`
/// (`unpckhps`).
#[inline(always)]
fn interleave_hi(a: SimdF32<4>, b: SimdF32<4>) -> SimdF32<4> {
    SimdF32([a.0[2], b.0[2], a.0[3], b.0[3]])
}

/// Transpose a 4×4 block of `f32` held in four vectors: row-major in, its
/// transpose out. Two rounds of interleaves (rows 0/2 and 1/3, then the
/// results pairwise), the shape of `_MM_TRANSPOSE4_PS`: eight register
/// shuffles, no trip through memory.
#[inline(always)]
pub fn transpose_4x4(rows: [SimdF32<4>; 4]) -> [SimdF32<4>; 4] {
    let [r0, r1, r2, r3] = rows;
    let (t0, t1) = (interleave_lo(r0, r2), interleave_lo(r1, r3));
    let (t2, t3) = (interleave_hi(r0, r2), interleave_hi(r1, r3));
    [
        interleave_lo(t0, t1),
        interleave_hi(t0, t1),
        interleave_lo(t2, t3),
        interleave_hi(t2, t3),
    ]
}

/// Transpose an 8×8 block of `f32` held in eight vectors.
#[inline(always)]
pub fn transpose_8x8(rows: [SimdF32<8>; 8]) -> [SimdF32<8>; 8] {
    let mut out = [[0.0f32; 8]; 8];
    for r in 0..8 {
        for c in 0..8 {
            out[c][r] = rows[r].0[c];
        }
    }
    let mut vs = [SimdF32::<8>::zero(); 8];
    for (v, o) in vs.iter_mut().zip(out) {
        *v = SimdF32(o);
    }
    vs
}

/// Load 4 consecutive AoS records of `stride` floats starting at
/// `base`, returning the first 4 fields as SoA vectors
/// (`load_4x4_tr` in the VPIC 1.2 SIMD library).
///
/// `out[f].lane(r)` is field `f` of record `r`.
#[inline(always)]
pub fn load_4x4_tr(src: &[f32], base: usize, stride: usize) -> [SimdF32<4>; 4] {
    debug_assert!(stride >= 4, "need at least 4 fields per record");
    let rows = [
        SimdF32::<4>::load(src, base),
        SimdF32::<4>::load(src, base + stride),
        SimdF32::<4>::load(src, base + 2 * stride),
        SimdF32::<4>::load(src, base + 3 * stride),
    ];
    transpose_4x4(rows)
}

/// Store 4 SoA vectors back as the first 4 fields of 4 consecutive AoS
/// records (`store_4x4_tr` in the VPIC 1.2 SIMD library).
#[inline(always)]
pub fn store_4x4_tr(fields: [SimdF32<4>; 4], dst: &mut [f32], base: usize, stride: usize) {
    debug_assert!(stride >= 4);
    let rows = transpose_4x4(fields);
    rows[0].store(dst, base);
    rows[1].store(dst, base + stride);
    rows[2].store(dst, base + 2 * stride);
    rows[3].store(dst, base + 3 * stride);
}

/// Gathered AoS→SoA load: like [`load_4x4_tr`] but each record's base is
/// given explicitly (particles gathered through a sort permutation).
#[inline(always)]
pub fn gather_4x4_tr(src: &[f32], bases: [usize; 4]) -> [SimdF32<4>; 4] {
    let rows = [
        SimdF32::<4>::load(src, bases[0]),
        SimdF32::<4>::load(src, bases[1]),
        SimdF32::<4>::load(src, bases[2]),
        SimdF32::<4>::load(src, bases[3]),
    ];
    transpose_4x4(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_4x4_is_mathematical_transpose() {
        let rows = [
            SimdF32::from([0.0, 1.0, 2.0, 3.0]),
            SimdF32::from([10.0, 11.0, 12.0, 13.0]),
            SimdF32::from([20.0, 21.0, 22.0, 23.0]),
            SimdF32::from([30.0, 31.0, 32.0, 33.0]),
        ];
        let t = transpose_4x4(rows);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(t[c].lane(r), rows[r].lane(c));
            }
        }
    }

    #[test]
    fn transpose_4x4_involution() {
        let rows = [
            SimdF32::from([1.0, 2.0, 3.0, 4.0]),
            SimdF32::from([5.0, 6.0, 7.0, 8.0]),
            SimdF32::from([9.0, 10.0, 11.0, 12.0]),
            SimdF32::from([13.0, 14.0, 15.0, 16.0]),
        ];
        assert_eq!(transpose_4x4(transpose_4x4(rows)), rows);
    }

    #[test]
    fn transpose_8x8_involution() {
        let mut rows = [SimdF32::<8>::zero(); 8];
        for (r, row) in rows.iter_mut().enumerate() {
            for c in 0..8 {
                row.0[c] = (r * 8 + c) as f32;
            }
        }
        let t = transpose_8x8(rows);
        for r in 0..8 {
            for c in 0..8 {
                assert_eq!(t[c].lane(r), rows[r].lane(c));
            }
        }
        assert_eq!(transpose_8x8(t), rows);
    }

    #[test]
    fn aos_load_store_roundtrip() {
        // 4 particle records with 8 fields each (VPIC particle layout)
        let stride = 8;
        let src: Vec<f32> = (0..4 * stride).map(|i| i as f32).collect();
        let soa = load_4x4_tr(&src, 0, stride);
        // field f of record r is src[r*stride + f]
        for f in 0..4 {
            for r in 0..4 {
                assert_eq!(soa[f].lane(r), (r * stride + f) as f32);
            }
        }
        let mut dst = vec![0.0f32; 4 * stride];
        store_4x4_tr(soa, &mut dst, 0, stride);
        for r in 0..4 {
            for f in 0..4 {
                assert_eq!(dst[r * stride + f], src[r * stride + f]);
            }
        }
    }

    #[test]
    fn gathered_load_matches_contiguous() {
        let stride = 8;
        let src: Vec<f32> = (0..8 * stride).map(|i| (i as f32).sin()).collect();
        let contiguous = load_4x4_tr(&src, 2 * stride, stride);
        let gathered = gather_4x4_tr(
            &src,
            [2 * stride, 3 * stride, 4 * stride, 5 * stride],
        );
        assert_eq!(contiguous, gathered);
        // a permuted gather picks the same records in a different order
        let permuted = gather_4x4_tr(
            &src,
            [5 * stride, 2 * stride, 3 * stride, 4 * stride],
        );
        for f in 0..4 {
            assert_eq!(permuted[f].lane(0), contiguous[f].lane(3));
        }
    }
}
