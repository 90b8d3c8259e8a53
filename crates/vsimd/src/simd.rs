//! Portable fixed-lane SIMD value types (the Kokkos SIMD analog).
//!
//! `Simd*<N>` wraps `[T; N]` and implements element-wise arithmetic with
//! fully unrolled fixed-trip-count loops — the shape LLVM reliably lowers
//! to vector instructions at `opt-level=3`. This is the *manual*
//! vectorization strategy: lane count and operations are explicit in the
//! source, but no per-ISA intrinsics appear (contrast [`crate::v4`]).

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

macro_rules! define_float_simd {
    ($name:ident, $elem:ty, $doc:literal) => {
        #[doc = $doc]
        #[derive(Debug, Clone, Copy, PartialEq)]
        #[repr(transparent)]
        pub struct $name<const N: usize>(pub [$elem; N]);

        impl<const N: usize> $name<N> {
            /// All lanes set to `v` (`simd::splat`).
            #[inline(always)]
            pub fn splat(v: $elem) -> Self {
                Self([v; N])
            }

            /// All lanes zero.
            #[inline(always)]
            pub fn zero() -> Self {
                Self::splat(0.0)
            }

            /// Load `N` contiguous elements from `src` starting at `offset`.
            ///
            /// # Panics
            /// Panics if `src[offset..offset + N]` is out of bounds.
            #[inline(always)]
            pub fn load(src: &[$elem], offset: usize) -> Self {
                let mut out = [0.0; N];
                out.copy_from_slice(&src[offset..offset + N]);
                Self(out)
            }

            /// Store all lanes contiguously into `dst` at `offset`.
            #[inline(always)]
            pub fn store(self, dst: &mut [$elem], offset: usize) {
                dst[offset..offset + N].copy_from_slice(&self.0);
            }

            /// Read one lane.
            #[inline(always)]
            pub fn lane(self, l: usize) -> $elem {
                self.0[l]
            }

            /// Multiply-add: `self * b + c` lane-wise. On targets with a
            /// hardware FMA unit this contracts to one fused instruction
            /// (single rounding, the scalar `mul_add` contract); elsewhere
            /// it compiles to separate multiply + add (two roundings)
            /// rather than the catastrophically slow software `fma()`
            /// libm routine — same policy as [`crate::math::fma_f64`].
            /// The manual strategy must never codegen slower than auto.
            #[inline(always)]
            pub fn mul_add(self, b: Self, c: Self) -> Self {
                let mut out = [0.0; N];
                for l in 0..N {
                    out[l] = if cfg!(target_feature = "fma") {
                        self.0[l].mul_add(b.0[l], c.0[l])
                    } else {
                        self.0[l] * b.0[l] + c.0[l]
                    };
                }
                Self(out)
            }

            /// Lane-wise square root.
            #[inline(always)]
            pub fn sqrt(self) -> Self {
                let mut out = [0.0; N];
                for l in 0..N {
                    out[l] = self.0[l].sqrt();
                }
                Self(out)
            }

            /// Horizontal sum of all lanes (`simd::reduce`).
            #[inline(always)]
            pub fn reduce_sum(self) -> $elem {
                // pairwise tree reduction: deterministic and vector-friendly
                let mut vals = self.0;
                let mut n = N;
                while n > 1 {
                    let half = n / 2;
                    for l in 0..half {
                        vals[l] += vals[l + half];
                    }
                    if n % 2 == 1 {
                        vals[0] += vals[n - 1];
                    }
                    n = half;
                }
                vals[0]
            }
        }

        impl<const N: usize> Default for $name<N> {
            fn default() -> Self {
                Self::zero()
            }
        }

        impl<const N: usize> Add for $name<N> {
            type Output = Self;
            #[inline(always)]
            fn add(self, rhs: Self) -> Self {
                let mut out = [0.0; N];
                for l in 0..N {
                    out[l] = self.0[l] + rhs.0[l];
                }
                Self(out)
            }
        }

        impl<const N: usize> Sub for $name<N> {
            type Output = Self;
            #[inline(always)]
            fn sub(self, rhs: Self) -> Self {
                let mut out = [0.0; N];
                for l in 0..N {
                    out[l] = self.0[l] - rhs.0[l];
                }
                Self(out)
            }
        }

        impl<const N: usize> Mul for $name<N> {
            type Output = Self;
            #[inline(always)]
            fn mul(self, rhs: Self) -> Self {
                let mut out = [0.0; N];
                for l in 0..N {
                    out[l] = self.0[l] * rhs.0[l];
                }
                Self(out)
            }
        }

        impl<const N: usize> Div for $name<N> {
            type Output = Self;
            #[inline(always)]
            fn div(self, rhs: Self) -> Self {
                let mut out = [0.0; N];
                for l in 0..N {
                    out[l] = self.0[l] / rhs.0[l];
                }
                Self(out)
            }
        }

        impl<const N: usize> Neg for $name<N> {
            type Output = Self;
            #[inline(always)]
            fn neg(self) -> Self {
                let mut out = [0.0; N];
                for l in 0..N {
                    out[l] = -self.0[l];
                }
                Self(out)
            }
        }

        impl<const N: usize> AddAssign for $name<N> {
            #[inline(always)]
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }

        impl<const N: usize> SubAssign for $name<N> {
            #[inline(always)]
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }

        impl<const N: usize> MulAssign for $name<N> {
            #[inline(always)]
            fn mul_assign(&mut self, rhs: Self) {
                *self = *self * rhs;
            }
        }

        impl<const N: usize> Mul<$elem> for $name<N> {
            type Output = Self;
            #[inline(always)]
            fn mul(self, rhs: $elem) -> Self {
                self * Self::splat(rhs)
            }
        }

        impl<const N: usize> Add<$elem> for $name<N> {
            type Output = Self;
            #[inline(always)]
            fn add(self, rhs: $elem) -> Self {
                self + Self::splat(rhs)
            }
        }

        impl<const N: usize> From<[$elem; N]> for $name<N> {
            fn from(v: [$elem; N]) -> Self {
                Self(v)
            }
        }
    };
}

define_float_simd!(
    SimdF32,
    f32,
    "Portable `f32` SIMD vector with `N` lanes (Kokkos `simd<float, N>` analog)."
);
define_float_simd!(
    SimdF64,
    f64,
    "Portable `f64` SIMD vector with `N` lanes (Kokkos `simd<double, N>` analog)."
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_load_store_roundtrip() {
        let v = SimdF32::<8>::splat(2.5);
        assert!(v.0.iter().all(|&x| x == 2.5));
        let src: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let v = SimdF32::<4>::load(&src, 3);
        assert_eq!(v.0, [3.0, 4.0, 5.0, 6.0]);
        let mut dst = vec![0.0f32; 16];
        v.store(&mut dst, 8);
        assert_eq!(&dst[8..12], &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn arithmetic_is_lanewise() {
        let a = SimdF64::<4>::from([1.0, 2.0, 3.0, 4.0]);
        let b = SimdF64::<4>::from([10.0, 20.0, 30.0, 40.0]);
        assert_eq!((a + b).0, [11.0, 22.0, 33.0, 44.0]);
        assert_eq!((b - a).0, [9.0, 18.0, 27.0, 36.0]);
        assert_eq!((a * b).0, [10.0, 40.0, 90.0, 160.0]);
        assert_eq!((b / a).0, [10.0, 10.0, 10.0, 10.0]);
        assert_eq!((-a).0, [-1.0, -2.0, -3.0, -4.0]);
        assert_eq!((a * 2.0).0, [2.0, 4.0, 6.0, 8.0]);
        assert_eq!((a + 1.0).0, [2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn mul_add_matches_scalar_fma() {
        let a = SimdF32::<4>::from([1.0, 2.0, 3.0, 4.0]);
        let b = SimdF32::<4>::splat(0.5);
        let c = SimdF32::<4>::splat(10.0);
        let r = a.mul_add(b, c);
        for l in 0..4 {
            let want = if cfg!(target_feature = "fma") {
                (a.lane(l)).mul_add(0.5, 10.0)
            } else {
                a.lane(l) * 0.5 + 10.0
            };
            assert_eq!(r.lane(l), want);
        }
    }

    #[test]
    fn reductions() {
        let v = SimdF64::<8>::from([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(v.reduce_sum(), 36.0);
        // odd lane count exercises the tail fold in the tree reduction
        let w = SimdF32::<3>::from([1.0, 2.0, 4.0]);
        assert_eq!(w.reduce_sum(), 7.0);
    }

    #[test]
    fn unary_math_ops() {
        let v = SimdF64::<4>::from([4.0, 9.0, 16.0, 25.0]);
        assert_eq!(v.sqrt().0, [2.0, 3.0, 4.0, 5.0]);
    }
}
