//! Property tests: SIMD operations must agree lane-wise with scalar math,
//! and every strategy's kernels must agree with each other.

use proptest::prelude::*;
use vsimd::chunks;
use vsimd::math::{fast_exp_f32, fast_exp_f64};
use vsimd::simd::{SimdF32, SimdF64};
use vsimd::transpose;
use vsimd::v4::V4F32;

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
            prop_assert_eq!(va.min(vb).lane(l), a[l].min(b[l]));
            prop_assert_eq!(va.max(vb).lane(l), a[l].max(b[l]));
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
        let va = V4F32::from_array(arr4(&a));
        let vb = V4F32::from_array(arr4(&b));
        for l in 0..4 {
            prop_assert_eq!(va.add(vb).to_array()[l], a[l] + b[l]);
            prop_assert_eq!(va.sub(vb).to_array()[l], a[l] - b[l]);
            prop_assert_eq!(va.mul(vb).to_array()[l], a[l] * b[l]);
            prop_assert_eq!(va.div(vb).to_array()[l], a[l] / b[l]);
        }
    }

    /// V4F32 rsqrt is within 2 ulp-ish relative error of the exact value.
    #[test]
    fn v4_rsqrt_accuracy(a in prop::collection::vec(1e-6f32..1e12, 4)) {
        let r = V4F32::from_array(arr4(&a)).rsqrt().to_array();
        for l in 0..4 {
            let want = 1.0 / a[l].sqrt();
            let rel = ((r[l] - want) / want).abs();
            prop_assert!(rel < 1e-5, "lane {l}: rel {rel}");
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
    fn fast_exp_tolerances(x32 in -80f32..80.0, x64 in -600f64..600.0) {
        let r32 = ((fast_exp_f32(x32) - x32.exp()) / x32.exp()).abs();
        prop_assert!(r32 < 3e-6, "f32 rel {r32} at {x32}");
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
        // ad hoc transpose agrees with portable
        let v4rows = [
            V4F32::from_array(rows[0].0),
            V4F32::from_array(rows[1].0),
            V4F32::from_array(rows[2].0),
            V4F32::from_array(rows[3].0),
        ];
        let v4t = V4F32::transpose(v4rows);
        for r in 0..4 {
            prop_assert_eq!(v4t[r].to_array(), t[r].0);
        }
    }

    /// Guided chunk reduce equals a plain fold.
    #[test]
    fn guided_reduce_matches(data in prop::collection::vec(-1e3f64..1e3, 0..200)) {
        let got = chunks::reduce_chunks::<f64, 16>(&data, 0.0, |x| x * 2.0);
        let want: f64 = data.iter().map(|&x| x * 2.0).sum();
        prop_assert!((got - want).abs() < 1e-8);
    }
}
