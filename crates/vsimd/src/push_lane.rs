//! Lane abstraction for the particle push.
//!
//! The push in `vpic-core` is written once over [`PushLane`] and
//! instantiated per [`crate::Strategy`]: `f32` (one particle per group,
//! the reference op tree), [`SimdF32<4>`] (*manual*) and, for *ad hoc*,
//! `V8F32` (AVX2, x86-64 only) where the CPU has AVX2 and [`V4F32`]
//! elsewhere. On top of [`StencilLane`]'s `+`, `−`, `×` it needs the two
//! other IEEE-754 correctly-rounded operations (`÷`, `√` — exact at every
//! width, unlike `rsqrt` or a fused multiply-add, which stay out for the
//! reason given in [`crate::stencil`]), a range comparison packed into
//! bits for the in-cell test, and the AoS ⇄ SoA register transposes that turn
//! one per-cell record per lane into lane vectors and twelve lane vectors
//! back into one accumulator row per particle.

use crate::simd::SimdF32;
use crate::stencil::StencilLane;
use crate::transpose::transpose_4x4;
use crate::v4::V4F32;

/// Three lane vectors, one per axis: the positions, momenta, fields or
/// displacements of one group of particles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Xyz<L> {
    /// x components.
    pub x: L,
    /// y components.
    pub y: L,
    /// z components.
    pub z: L,
}

impl<L: Copy> Xyz<L> {
    /// `f` applied per axis.
    #[inline(always)]
    pub fn map(self, f: impl Fn(L) -> L) -> Self {
        Self { x: f(self.x), y: f(self.y), z: f(self.z) }
    }
}

impl<L: StencilLane> Xyz<L> {
    /// All lanes of each axis set to that axis' scalar.
    #[inline(always)]
    pub fn splat(x: f32, y: f32, z: f32) -> Self {
        Self { x: L::splat(x), y: L::splat(y), z: L::splat(z) }
    }

    /// Load `LANES` consecutive values per axis from three SoA arrays.
    #[inline(always)]
    pub fn load(x: &[f32], y: &[f32], z: &[f32], offset: usize) -> Self {
        Self { x: L::load(x, offset), y: L::load(y, offset), z: L::load(z, offset) }
    }

    /// Store `LANES` consecutive values per axis into three SoA arrays.
    #[inline(always)]
    pub fn store(self, x: &mut [f32], y: &mut [f32], z: &mut [f32], offset: usize) {
        self.x.store(x, offset);
        self.y.store(y, offset);
        self.z.store(z, offset);
    }

    /// Lane `l` of each axis.
    #[inline(always)]
    pub fn extract(self, l: usize) -> Xyz<f32> {
        Xyz { x: self.x.extract(l), y: self.y.extract(l), z: self.z.extract(l) }
    }
}

/// The widest lane type's width: the row count of every transposed load
/// and store, whatever the lane type (a narrower one uses the first
/// `LANES` rows).
pub const MAX_LANES: usize = 8;

/// One group of particles in lanes. `LANES` is 1, 4 or 8.
///
/// Like [`StencilLane`], implementations are *width-transparent*: lane
/// `l` of every result is the scalar operation applied to lane `l` of the
/// operands, so one generic kernel body gives the same bits at any width.
pub trait PushLane: StencilLane {
    /// Lanewise exact division.
    fn div(self, rhs: Self) -> Self;

    /// Lanewise exact square root.
    fn sqrt(self) -> Self;

    /// Lanewise `lo <= self && self <= hi`, lane 0 in bit 0. A NaN
    /// anywhere compares false, as in scalar code.
    fn within_bits(self, lo: Self, hi: Self) -> u32;

    /// Transposed load (AoS → SoA): the `N`-field records `rows[..LANES]`
    /// as `N` lane vectors, lane `l` of `out[k]` being `rows[l][k]`.
    fn load_tr<const N: usize>(rows: [&[f32; N]; MAX_LANES]) -> [Self; N];

    /// Transposed store (SoA → AoS), the inverse of [`PushLane::load_tr`]:
    /// `rows[l][k]` becomes lane `l` of `cols[k]` for the first `LANES`
    /// rows.
    fn store_tr<const N: usize>(cols: [Self; N], rows: &mut [[f32; N]; MAX_LANES]);
}

/// The 4-wide blocks that cover `0..n` (`n ≥ 4`): every fourth offset, and
/// one last block ending at `n` when `n` is not a multiple of 4.
#[inline(always)]
pub(crate) fn blocks(n: usize) -> impl Iterator<Item = usize> {
    (0..n - n % 4).step_by(4).chain((!n.is_multiple_of(4)).then_some(n - 4))
}

/// [`PushLane::load_tr`] for a 4-lane type, one register transpose per
/// block of four fields.
#[inline(always)]
fn load_tr_4<L: StencilLane, const N: usize>(
    rows: [&[f32; N]; MAX_LANES],
    transpose: impl Fn([L; 4]) -> [L; 4],
) -> [L; N] {
    let mut cols = [L::splat(0.0); N];
    for offset in blocks(N) {
        let block = [0, 1, 2, 3].map(|l| L::load(rows[l], offset));
        cols[offset..offset + 4].copy_from_slice(&transpose(block));
    }
    cols
}

/// [`PushLane::store_tr`] for a 4-lane type.
#[inline(always)]
fn store_tr_4<L: StencilLane, const N: usize>(
    cols: [L; N],
    rows: &mut [[f32; N]; MAX_LANES],
    transpose: impl Fn([L; 4]) -> [L; 4],
) {
    for offset in blocks(N) {
        let block = [cols[offset], cols[offset + 1], cols[offset + 2], cols[offset + 3]];
        for (row, v) in rows.iter_mut().zip(transpose(block)) {
            v.store(row, offset);
        }
    }
}

impl PushLane for f32 {
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }

    #[inline(always)]
    fn within_bits(self, lo: Self, hi: Self) -> u32 {
        ((lo <= self) & (self <= hi)) as u32
    }

    #[inline(always)]
    fn load_tr<const N: usize>(rows: [&[f32; N]; MAX_LANES]) -> [Self; N] {
        *rows[0]
    }

    #[inline(always)]
    fn store_tr<const N: usize>(cols: [Self; N], rows: &mut [[f32; N]; MAX_LANES]) {
        rows[0] = cols;
    }
}

impl PushLane for SimdF32<4> {
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        SimdF32::sqrt(self)
    }

    #[inline(always)]
    fn within_bits(self, lo: Self, hi: Self) -> u32 {
        // both compares per lane and straight to bits, not through an
        // array of bools: the shape LLVM keeps as packed compares
        let mut bits = 0;
        for l in 0..4 {
            bits |= (((lo.0[l] <= self.0[l]) & (self.0[l] <= hi.0[l])) as u32) << l;
        }
        bits
    }

    #[inline(always)]
    fn load_tr<const N: usize>(rows: [&[f32; N]; MAX_LANES]) -> [Self; N] {
        load_tr_4(rows, transpose_4x4)
    }

    // Not inlined, for the caller's sake: the lanes are plain arrays, so
    // once LLVM sees through the shuffles to the row stores it vectorizes
    // the arithmetic that produced `cols` along the rows instead of along
    // the lanes and scalarizes what does not fit (the push's deposit
    // weights: 12 `divss` and 52 `mulss` per group). Behind a call the
    // lane vectors arrive whole.
    #[inline(never)]
    fn store_tr<const N: usize>(cols: [Self; N], rows: &mut [[f32; N]; MAX_LANES]) {
        store_tr_4(cols, rows, transpose_4x4)
    }
}

impl PushLane for V4F32 {
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        V4F32::div(self, rhs)
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        V4F32::sqrt(self)
    }

    #[inline(always)]
    fn within_bits(self, lo: Self, hi: Self) -> u32 {
        lo.le_bits(self) & self.le_bits(hi)
    }

    #[inline(always)]
    fn load_tr<const N: usize>(rows: [&[f32; N]; MAX_LANES]) -> [Self; N] {
        load_tr_4(rows, V4F32::transpose)
    }

    #[inline(always)]
    fn store_tr<const N: usize>(cols: [Self; N], rows: &mut [[f32; N]; MAX_LANES]) {
        store_tr_4(cols, rows, V4F32::transpose)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `1 / sqrt(1 + a²)` and an in-range test, per lane, over `a` in
    /// groups of `L::LANES`.
    fn body<L: PushLane>(a: &[f32; 8]) -> ([u32; 8], u32) {
        let (one, mut out, mut bits) = (L::splat(1.0), [0.0f32; 8], 0);
        for g in (0..8).step_by(L::LANES) {
            let v = L::load(a, g);
            one.div(one.add(v.mul(v)).sqrt()).store(&mut out, g);
            bits |= v.within_bits(L::splat(-1.0), one) << g;
        }
        (out.map(f32::to_bits), bits)
    }

    #[test]
    fn all_widths_agree_bitwise_on_div_sqrt_and_compare() {
        let a = [0.3f32, -1.0, f32::NAN, 1.0000001, -0.0, 2.5, -1.0000001, 1.0];
        let scalar = body::<f32>(&a);
        assert_eq!(scalar.1, 0b1001_0011, "NaN and 1 ± ulp are outside [-1, 1]");
        assert_eq!(body::<SimdF32<4>>(&a), scalar, "manual");
        assert_eq!(body::<V4F32>(&a), scalar, "ad hoc, SSE");
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            assert_eq!(body::<crate::v8::V8F32>(&a), scalar, "ad hoc, AVX2");
        }
    }

    fn tr_roundtrip<L: PushLane, const N: usize>() {
        let records: [[f32; N]; MAX_LANES] =
            std::array::from_fn(|r| std::array::from_fn(|f| (100 * r + f) as f32));
        let cols = L::load_tr(std::array::from_fn(|r| &records[r]));
        for (k, col) in cols.iter().enumerate() {
            for (l, record) in records.iter().enumerate().take(L::LANES) {
                assert_eq!(col.extract(l), record[k], "{N} fields: field {k} lane {l}");
            }
        }
        let mut back = [[-1.0f32; N]; MAX_LANES];
        L::store_tr(cols, &mut back);
        for (l, row) in back.iter().enumerate() {
            let want = if l < L::LANES { records[l] } else { [-1.0; N] };
            assert_eq!(*row, want, "{N} fields: row {l}");
        }
    }

    #[test]
    fn transposed_load_and_store_are_inverse_at_every_width() {
        // the accumulator row (whole blocks), the interpolator record (a
        // last block that overlaps) and one block, over eight records
        tr_roundtrip::<f32, 12>();
        tr_roundtrip::<SimdF32<4>, 12>();
        tr_roundtrip::<V4F32, 12>();
        tr_roundtrip::<f32, 18>();
        tr_roundtrip::<SimdF32<4>, 18>();
        tr_roundtrip::<V4F32, 18>();
        tr_roundtrip::<V4F32, 4>();
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            tr_roundtrip::<crate::v8::V8F32, 12>();
            tr_roundtrip::<crate::v8::V8F32, 18>();
            tr_roundtrip::<crate::v8::V8F32, 4>();
        }
    }

    #[test]
    fn xyz_moves_lanes_between_soa_arrays() {
        let (x, y, z) = ([1.0f32, 2.0, 3.0, 4.0, 5.0], [6.0f32; 5], [7.0f32, 8.0, 9.0, 10.0, 11.0]);
        let p = Xyz::<V4F32>::load(&x, &y, &z, 1);
        assert_eq!(p.extract(2), Xyz { x: 4.0, y: 6.0, z: 10.0 });
        let (mut ox, mut oy, mut oz) = ([0.0f32; 5], [0.0f32; 5], [0.0f32; 5]);
        p.store(&mut ox, &mut oy, &mut oz, 0);
        assert_eq!(ox[..4], x[1..]);
        assert_eq!(oz[..4], z[1..]);
        let one_two_three = Xyz::<f32>::splat(1.0, 2.0, 3.0);
        assert_eq!(one_two_three, Xyz { x: 1.0, y: 2.0, z: 3.0 });
        assert_eq!(one_two_three.map(|v| v * 2.0), Xyz { x: 2.0, y: 4.0, z: 6.0 });
    }
}
