//! Reduction operators, mirroring `Kokkos::Sum`, `Kokkos::Min` and
//! `Kokkos::MinMax`.
//!
//! A [`Reducer`] supplies an identity element and an associative `join`;
//! execution spaces reduce per-worker partials and join them, so any
//! reducer must be associative (floating-point sums are therefore only
//! reproducible per-space, exactly as in Kokkos).

use std::marker::PhantomData;

/// A numeric element usable in reductions.
pub trait Scalar: Copy + Send + Sync + PartialOrd + 'static {
    /// Additive identity.
    const ZERO: Self;
    /// Least value (identity for max-reductions).
    const MIN_VALUE: Self;
    /// Greatest value (identity for min-reductions).
    const MAX_VALUE: Self;
    /// Addition.
    fn add(self, other: Self) -> Self;
}

macro_rules! impl_scalar_int {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const ZERO: Self = 0;
            const MIN_VALUE: Self = <$t>::MIN;
            const MAX_VALUE: Self = <$t>::MAX;
            #[inline(always)]
            fn add(self, other: Self) -> Self { self.wrapping_add(other) }
        }
    )*};
}

macro_rules! impl_scalar_float {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const MIN_VALUE: Self = <$t>::NEG_INFINITY;
            const MAX_VALUE: Self = <$t>::INFINITY;
            #[inline(always)]
            fn add(self, other: Self) -> Self { self + other }
        }
    )*};
}

impl_scalar_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);
impl_scalar_float!(f32, f64);

/// An associative reduction with an identity element.
pub trait Reducer: Send + Sync {
    /// The reduced value type.
    type Value: Send + Clone;
    /// The identity element (`join(identity(), x) == x`).
    fn identity(&self) -> Self::Value;
    /// Associative combine.
    fn join(&self, a: Self::Value, b: Self::Value) -> Self::Value;
}

/// Sum reduction (`Kokkos::Sum`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sum<T>(PhantomData<T>);

impl<T> Sum<T> {
    /// Create a sum reducer.
    pub fn new() -> Self {
        Sum(PhantomData)
    }
}

impl<T: Scalar> Reducer for Sum<T> {
    type Value = T;
    #[inline(always)]
    fn identity(&self) -> T {
        T::ZERO
    }
    #[inline(always)]
    fn join(&self, a: T, b: T) -> T {
        a.add(b)
    }
}

/// Minimum reduction (`Kokkos::Min`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Min<T>(PhantomData<T>);

impl<T> Min<T> {
    /// Create a min reducer.
    pub fn new() -> Self {
        Min(PhantomData)
    }
}

impl<T: Scalar> Reducer for Min<T> {
    type Value = T;
    #[inline(always)]
    fn identity(&self) -> T {
        T::MAX_VALUE
    }
    #[inline(always)]
    fn join(&self, a: T, b: T) -> T {
        if b < a {
            b
        } else {
            a
        }
    }
}

/// Simultaneous min+max reduction (`Kokkos::MinMax`), as used by the
/// paper's Algorithm 1/2 step "find the minimum and maximum keys".
#[derive(Debug, Clone, Copy, Default)]
pub struct MinMax<T>(PhantomData<T>);

impl<T> MinMax<T> {
    /// Create a min-max reducer.
    pub(crate) fn new() -> Self {
        MinMax(PhantomData)
    }
}

impl<T: Scalar> Reducer for MinMax<T> {
    type Value = (T, T);
    #[inline(always)]
    fn identity(&self) -> (T, T) {
        (T::MAX_VALUE, T::MIN_VALUE)
    }
    #[inline(always)]
    fn join(&self, a: (T, T), b: (T, T)) -> (T, T) {
        (
            if b.0 < a.0 { b.0 } else { a.0 },
            if b.1 > a.1 { b.1 } else { a.1 },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_identity_and_join() {
        let r = Sum::<i64>::new();
        assert_eq!(r.identity(), 0);
        assert_eq!(r.join(3, 4), 7);
        assert_eq!(r.join(r.identity(), 9), 9);
    }

    #[test]
    fn min_max_identities_absorb() {
        let mn = Min::<f64>::new();
        assert_eq!(mn.join(mn.identity(), -5.0), -5.0);
        assert_eq!(mn.join(2.0, 3.0), 2.0);
    }

    #[test]
    fn minmax_tracks_both_ends() {
        let r = MinMax::<i32>::new();
        let mut acc = r.identity();
        for v in [5, -2, 9, 0] {
            acc = r.join(acc, (v, v));
        }
        assert_eq!(acc, (-2, 9));
    }

    #[test]
    fn join_is_associative_for_ints() {
        let r = Sum::<i32>::new();
        let (a, b, c) = (11, -4, 7);
        assert_eq!(r.join(r.join(a, b), c), r.join(a, r.join(b, c)));
        let m = Min::<i32>::new();
        assert_eq!(m.join(m.join(a, b), c), m.join(a, m.join(b, c)));
    }

    #[test]
    fn wrapping_sum_does_not_panic_in_debug() {
        let r = Sum::<u8>::new();
        assert_eq!(r.join(250, 10), 4); // wraps, mirroring release semantics
    }
}
