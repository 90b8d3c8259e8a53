//! Offline stand-in for the `rand` crate (0.8 API subset).
//!
//! The build environment for this repository has no access to crates.io,
//! so the external dependencies are replaced by local shims that provide
//! exactly the API surface the workspace uses (see DESIGN.md §2). This
//! shim covers:
//!
//! * [`RngCore`] / [`Rng`] with `gen_range` over integer and float ranges,
//! * [`SeedableRng`] with `from_seed` / `seed_from_u64` (the same
//!   SplitMix64 seed expansion upstream rand uses),
//! * [`seq::SliceRandom`] with `shuffle`.
//!
//! The generator itself is `rand_chacha`'s.
//!
//! Generators are deterministic for a fixed seed, which is all the
//! workspace relies on; the streams do **not** match upstream `rand`
//! bit-for-bit.

use std::ops::Range;

/// Core random-number source: 32/64-bit words.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// A type that can be sampled uniformly from a range by an [`Rng`].
pub trait SampleRange<T> {
    /// Draw one uniform sample from `self`.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = ((rng.next_u64() as u128) % span) as i128;
                (self.start as i128 + v) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = ((rng.next_u64() as u128) % span) as i128;
                (lo as i128 + v) as $t
            }
        }
    )*};
}

impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                // 53 uniform mantissa bits in [0, 1)
                let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let v = self.start as f64 + unit * (self.end as f64 - self.start as f64);
                // rounding can land exactly on `end` for narrow ranges
                (v as $t).clamp(self.start, self.end.next_down().max(self.start))
            }
        }
    )*};
}

impl_range_float!(f32, f64);

/// User-facing sampling methods, blanket-implemented for every source.
pub trait Rng: RngCore {
    /// Uniform sample from `range` (half-open or inclusive).
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction from a seed.
pub trait SeedableRng: Sized {
    /// Raw seed type (a byte array).
    type Seed: Default + AsMut<[u8]>;

    /// Build from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build from a `u64` by expanding it with SplitMix64 (matching the
    /// construction upstream rand documents for this method).
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            // SplitMix64 step
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }
}

pub mod seq {
    //! Sequence-related sampling (`SliceRandom`).

    use super::{Rng, RngCore};

    /// Shuffling slices.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    /// A test-local generator: SplitMix64 over its seed's first word.
    struct SplitMix(u64);

    impl RngCore for SplitMix {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for SplitMix {
        type Seed = [u8; 8];

        fn from_seed(seed: Self::Seed) -> Self {
            SplitMix(u64::from_le_bytes(seed))
        }
    }

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = SplitMix::seed_from_u64(42);
        let mut b = SplitMix::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SplitMix::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let f = rng.gen_range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&f));
            let i = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&i));
            let k = rng.gen_range(3u8..=4);
            assert!((3..=4).contains(&k));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 100-element shuffle should move something");
    }
}
