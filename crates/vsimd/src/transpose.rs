//! The in-register 4×4 transpose for AoS ⇄ SoA conversion.
//!
//! VPIC stores particles as interleaved records (`dx, dy, dz, i, ux, uy,
//! uz, w`); vector kernels want lane-major (SoA) registers. The paper's
//! manual strategy "implement\[s\] functions for transposing data in
//! registers... to accelerate data loading and storing in VPIC" — this is
//! that function, written portably (the ad hoc SSE version lives in
//! [`crate::v4`]); whole records are loaded and stored through it by
//! `PushLane::{load_tr, store_tr}`.

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
}
