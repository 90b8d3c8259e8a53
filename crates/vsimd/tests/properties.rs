//! Property tests: SIMD operations must agree lane-wise with scalar math,
//! and every strategy's kernels must agree with each other.

use proptest::prelude::*;
use vsimd::math::fast_exp_f64;
use vsimd::simd::{SimdF32, SimdF64};
use vsimd::transpose;
use vsimd::v4::V4F32;
use vsimd::{PushLane, MAX_LANES};

fn arr4(v: &[f32]) -> [f32; 4] {
    [v[0], v[1], v[2], v[3]]
}

proptest! {
    /// Every portable SimdF32 binary op equals the scalar op per lane.
    #[test]
    fn simd_f32_ops_match_scalar(a in prop::collection::vec(-1e6f32..1e6, 4), b in prop::collection::vec(1e-3f32..1e6, 4)) {
        let va = SimdF32::<4>::from(arr4(&a));
        let vb = SimdF32::<4>::from(arr4(&b));
        for l in 0..4 {
            prop_assert_eq!((va + vb).lane(l), a[l] + b[l]);
            prop_assert_eq!((va - vb).lane(l), a[l] - b[l]);
            prop_assert_eq!((va * vb).lane(l), a[l] * b[l]);
            prop_assert_eq!((va / vb).lane(l), a[l] / b[l]);
            // mul_add fuses only where hardware FMA exists (see simd.rs)
            let fma = if cfg!(target_feature = "fma") {
                a[l].mul_add(b[l], a[l])
            } else {
                a[l] * b[l] + a[l]
            };
            prop_assert_eq!(va.mul_add(vb, va).lane(l), fma);
        }
    }

    /// V4F32 (SSE) ops equal the scalar op per lane exactly (IEEE ops).
    #[test]
    fn v4_ops_match_scalar(a in prop::collection::vec(-1e6f32..1e6, 4), b in prop::collection::vec(1e-3f32..1e6, 4)) {
        let va = V4F32::load(&a, 0);
        let vb = V4F32::load(&b, 0);
        for l in 0..4 {
            prop_assert_eq!(va.add(vb).extract(l), a[l] + b[l]);
            prop_assert_eq!(va.sub(vb).extract(l), a[l] - b[l]);
            prop_assert_eq!(va.mul(vb).extract(l), a[l] * b[l]);
            prop_assert_eq!(va.div(vb).extract(l), a[l] / b[l]);
        }
    }

    /// reduce_sum equals a scalar sum to tight tolerance.
    #[test]
    fn reduce_sum_matches(v in prop::collection::vec(-1e3f64..1e3, 8)) {
        let mut a = [0.0f64; 8];
        a.copy_from_slice(&v);
        let got = SimdF64::<8>::from(a).reduce_sum();
        let want: f64 = v.iter().sum();
        prop_assert!((got - want).abs() < 1e-9);
    }

    /// Fast exp stays within documented tolerance across its domain.
    #[test]
    fn fast_exp_tolerances(x64 in -600f64..600.0) {
        let r64 = ((fast_exp_f64(x64) - x64.exp()) / x64.exp()).abs();
        prop_assert!(r64 < 1e-12, "f64 rel {r64} at {x64}");
    }

    /// Transpose is an involution and moves (r,c) to (c,r).
    #[test]
    fn transpose_involution(vals in prop::collection::vec(-1e5f32..1e5, 16)) {
        let mut rows = [SimdF32::<4>::zero(); 4];
        for r in 0..4 {
            for c in 0..4 {
                rows[r].0[c] = vals[r * 4 + c];
            }
        }
        let t = transpose::transpose_4x4(rows);
        #[allow(clippy::needless_range_loop)]
        for r in 0..4 {
            for c in 0..4 {
                prop_assert_eq!(t[c].lane(r), rows[r].lane(c));
            }
        }
        prop_assert_eq!(transpose::transpose_4x4(t), rows);
        // the ad hoc transposed load and store agree with the portable one
        let records: [[f32; 4]; MAX_LANES] = std::array::from_fn(|r| rows[r % 4].0);
        let v4t = V4F32::load_tr(std::array::from_fn(|r| &records[r]));
        for r in 0..4 {
            for c in 0..4 {
                prop_assert_eq!(v4t[r].extract(c), t[r].lane(c));
            }
        }
        let mut back = [[0.0f32; 4]; MAX_LANES];
        V4F32::store_tr(v4t, &mut back);
        prop_assert_eq!(&back[..4], &records[..4]);
    }
}

// `V4F32` through `PushLane`: SSE on x86-64, the portable `SimdF32<4>`
// elsewhere, the same assertions on both.

fn v4_lanes(v: V4F32) -> [f32; 4] {
    [0, 1, 2, 3].map(|l| v.extract(l))
}

#[test]
fn v4_splat_and_roundtrip() {
    assert_eq!(v4_lanes(V4F32::splat(3.25)), [3.25; 4]);
    let a = [1.0f32, 2.0, 3.0, 4.0];
    assert_eq!(v4_lanes(V4F32::load(&a, 0)), a);
}

#[test]
fn v4_load_store_unaligned_offsets() {
    let src: Vec<f32> = (0..16).map(|i| i as f32).collect();
    for off in 0..12 {
        let v = V4F32::load(&src, off);
        let mut dst = vec![0.0f32; 16];
        v.store(&mut dst, off);
        assert_eq!(&dst[off..off + 4], &src[off..off + 4]);
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn v4_load_out_of_bounds_panics() {
    let src = vec![0.0f32; 6];
    let _ = V4F32::load(&src, 3);
}

#[test]
fn v4_arithmetic_matches_scalar() {
    let a = V4F32::load(&[1.0, 2.0, 3.0, 4.0], 0);
    let b = V4F32::load(&[0.5, 0.25, 2.0, -1.0], 0);
    assert_eq!(v4_lanes(a.add(b)), [1.5, 2.25, 5.0, 3.0]);
    assert_eq!(v4_lanes(a.sub(b)), [0.5, 1.75, 1.0, 5.0]);
    assert_eq!(v4_lanes(a.mul(b)), [0.5, 0.5, 6.0, -4.0]);
    assert_eq!(v4_lanes(a.div(b)), [2.0, 8.0, 1.5, -4.0]);
}

#[test]
fn v4_within_bits_packs_lane_zero_first_and_drops_nan() {
    let a = V4F32::load(&[1.0, 2.0, f32::NAN, -1.0], 0);
    let lo = V4F32::load(&[1.0, 1.5, 0.0, f32::NEG_INFINITY], 0);
    let hi = V4F32::load(&[1.0, 1.5, f32::INFINITY, f32::INFINITY], 0);
    assert_eq!(a.within_bits(lo, hi), 0b1001);
    assert_eq!(a.within_bits(a, a), 0b1011);
}

#[test]
fn v4_sqrt_is_exact() {
    let v = V4F32::load(&[1.0, 4.0, 9.0, 16.0], 0);
    assert_eq!(v4_lanes(PushLane::sqrt(v)), [1.0, 2.0, 3.0, 4.0]);
}

#[test]
fn v4_transpose_matches_portable() {
    let records: [[f32; 4]; MAX_LANES] =
        std::array::from_fn(|r| std::array::from_fn(|c| (10 * r + c) as f32));
    let rows = std::array::from_fn(|r| &records[r]);
    let (adhoc, manual) = (V4F32::load_tr(rows), SimdF32::<4>::load_tr(rows));
    for c in 0..4 {
        assert_eq!(v4_lanes(adhoc[c]), manual[c].0, "column {c}");
        assert_eq!(v4_lanes(adhoc[c]), [0, 1, 2, 3].map(|r| records[r][c]), "column {c}");
    }
}
