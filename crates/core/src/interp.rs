//! The per-cell 18-coefficient field interpolator.
//!
//! VPIC precomputes, per cell and per step, an `interpolator_t` of 18
//! floats from the Yee fields; the particle push then *gathers one record
//! per particle* and evaluates E and B at the particle with a handful of
//! FMAs. This record is the gather target whose access pattern the
//! paper's sorting algorithms optimize — its memory footprint (with
//! padding and indexing) is what `memsim::push::INTERP_BYTES` models.
//! The simulation's own step stores no such array: its push builds a
//! cell's record from E and B when it reaches the cell
//! (`load_cell_at`), the bits the array would have held.
//!
//! Coefficient layout (VPIC order): for each E component, the bilinear
//! coefficients over its two transverse directions in cell-relative
//! coordinates `∈ [-1, 1]`; for each B component, the linear coefficient
//! along its normal direction.
//!
//! [`load_interpolators_into`] builds the whole array — for the record
//! path of the push (`push::push_species_on`) — one x-row at a time from
//! the row's neighbor rows (`crate::grid::Grid::row_stencil`), every cell
//! by the one record body the push's fields source and the serial
//! reference also run (its `Strategy` argument is ignored), overwriting
//! a caller-owned [`InterpolatorArray`] that is never filled first: 72
//! bytes written per cell is the kernel's roof, and a zero-fill before
//! the sweep would double it.

use crate::field::FieldArray;
use crate::grid::{RowStencil, Site, StencilSide};
use pk::ExecSpace;
use vsimd::{StencilLane, Strategy, Xyz};

/// Number of `f32` coefficients per cell.
pub const COEFFS: usize = 18;

/// One cell's interpolation record.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[repr(transparent)]
pub struct Interpolator(pub [f32; COEFFS]);

// named indices into the coefficient array (VPIC field order)
const EX0: usize = 0;
const DEXDY: usize = 1;
const DEXDZ: usize = 2;
const D2EXDYDZ: usize = 3;
const EY0: usize = 4;
const DEYDZ: usize = 5;
const DEYDX: usize = 6;
const D2EYDZDX: usize = 7;
const EZ0: usize = 8;
const DEZDX: usize = 9;
const DEZDY: usize = 10;
const D2EZDXDY: usize = 11;
const CBX0: usize = 12;
const DCBXDX: usize = 13;
const CBY0: usize = 14;
const DCBYDY: usize = 15;
const CBZ0: usize = 16;
const DCBZDZ: usize = 17;

/// E and B at cell-relative offsets `p ∈ [-1, 1]³` from one coefficient
/// set per lane: the field evaluation, written once for every lane width
/// (scalar callers go through [`Interpolator::e_at`] / [`Interpolator::b_at`],
/// the push passes broadcast or transposed records).
#[inline(always)]
pub(crate) fn fields_at<L: StencilLane>(c: &[L; COEFFS], p: Xyz<L>) -> (Xyz<L>, Xyz<L>) {
    let Xyz { x, y, z } = p;
    let e = Xyz { x: bilinear(c, EX0, y, z), y: bilinear(c, EY0, z, x), z: bilinear(c, EZ0, x, y) };
    let b = Xyz {
        x: c[CBX0].add(x.mul(c[DCBXDX])),
        y: c[CBY0].add(y.mul(c[DCBYDY])),
        z: c[CBZ0].add(z.mul(c[DCBZDZ])),
    };
    (e, b)
}

/// One E component at transverse offsets `(s, t)` from its four
/// coefficients at `c0..c0 + 4`.
#[inline(always)]
fn bilinear<L: StencilLane>(c: &[L; COEFFS], c0: usize, s: L, t: L) -> L {
    c[c0].add(s.mul(c[c0 + 1])).add(t.mul(c[c0 + 2])).add(s.mul(t).mul(c[c0 + 3]))
}

impl Interpolator {
    /// Electric field at cell-relative offsets `(x, y, z) ∈ [-1, 1]³`.
    #[inline(always)]
    pub fn e_at(&self, x: f32, y: f32, z: f32) -> (f32, f32, f32) {
        let e = fields_at(&self.0, Xyz { x, y, z }).0;
        (e.x, e.y, e.z)
    }

    /// Magnetic field at cell-relative offsets.
    #[cfg(test)]
    fn b_at(&self, x: f32, y: f32, z: f32) -> (f32, f32, f32) {
        let b = fields_at(&self.0, Xyz { x, y, z }).1;
        (b.x, b.y, b.z)
    }
}

/// A persistent, step-reusable interpolator buffer.
///
/// [`load_interpolators_into`] overwrites it in place, so a buffer its
/// caller keeps allocates once (on the first load, or when the grid
/// grows) and is neither reallocated nor zero-filled on any later load —
/// the per-call `vec![Interpolator::default(); cells]` the serial
/// reference pays is exactly what this type removes.
#[derive(Debug, Clone, Default)]
pub struct InterpolatorArray {
    data: Vec<Interpolator>,
}

impl InterpolatorArray {
    /// An empty buffer; the first [`load_interpolators_into`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Backing capacity, for no-alloc-after-warmup assertions.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.data.capacity()
    }
}

impl std::ops::Deref for InterpolatorArray {
    type Target = [Interpolator];

    fn deref(&self) -> &[Interpolator] {
        &self.data
    }
}

/// The voxels one record reads, besides the cell's own `v`: its neighbors
/// at `+x̂`, `+ŷ`, `+ẑ`, `+ŷ+ẑ`, `+ẑ+x̂` and `+x̂+ŷ`.
type Neighborhood = [usize; 7];

/// The neighborhood of cell `x` of the row whose plus-side stencil is
/// `st`, its `+x̂` neighbor being cell `xq` of the same row.
#[inline(always)]
fn neighborhood(st: RowStencil, x: usize, xq: usize) -> Neighborhood {
    [st.row + x, st.row + xq, st.y + x, st.z + x, st.yz + x, st.z + xq, st.y + xq]
}

/// One cell's record from its neighborhood: the one body of
/// [`load_interpolators_into`], of the push's fields source
/// ([`load_cell_at`]) and of the serial reference.
#[inline(always)]
fn load_cell(f: &FieldArray, at: Neighborhood, c: &mut [f32; COEFFS]) {
    let [v, xp, yp, zp, ypzp, zpxp, xpyp] = at;
    // ex: bilinear over (y, z); edges at (y∓, z∓)
    let (e00, e10, e01, e11) = (f.ex[v], f.ex[yp], f.ex[zp], f.ex[ypzp]);
    c[EX0] = 0.25 * (e00 + e10 + e01 + e11);
    c[DEXDY] = 0.25 * ((e10 + e11) - (e00 + e01));
    c[DEXDZ] = 0.25 * ((e01 + e11) - (e00 + e10));
    c[D2EXDYDZ] = 0.25 * ((e00 + e11) - (e10 + e01));
    // ey: bilinear over (z, x)
    let (e00, e10, e01, e11) = (f.ey[v], f.ey[zp], f.ey[xp], f.ey[zpxp]);
    c[EY0] = 0.25 * (e00 + e10 + e01 + e11);
    c[DEYDZ] = 0.25 * ((e10 + e11) - (e00 + e01));
    c[DEYDX] = 0.25 * ((e01 + e11) - (e00 + e10));
    c[D2EYDZDX] = 0.25 * ((e00 + e11) - (e10 + e01));
    // ez: bilinear over (x, y)
    let (e00, e10, e01, e11) = (f.ez[v], f.ez[xp], f.ez[yp], f.ez[xpyp]);
    c[EZ0] = 0.25 * (e00 + e10 + e01 + e11);
    c[DEZDX] = 0.25 * ((e10 + e11) - (e00 + e01));
    c[DEZDY] = 0.25 * ((e01 + e11) - (e00 + e10));
    c[D2EZDXDY] = 0.25 * ((e00 + e11) - (e10 + e01));
    // B: linear along each component's normal
    c[CBX0] = 0.5 * (f.bx[v] + f.bx[xp]);
    c[DCBXDX] = 0.5 * (f.bx[xp] - f.bx[v]);
    c[CBY0] = 0.5 * (f.by[v] + f.by[yp]);
    c[DCBYDY] = 0.5 * (f.by[yp] - f.by[v]);
    c[CBZ0] = 0.5 * (f.bz[v] + f.bz[zp]);
    c[DCBZDZ] = 0.5 * (f.bz[zp] - f.bz[v]);
}

/// The record of the cell at `site`, from its row's stencil: what
/// [`load_interpolators_into`] writes for the cell, bit for bit. The
/// push's fields source builds its records with it.
#[inline(always)]
pub(crate) fn load_cell_at(f: &FieldArray, Site { x, row }: Site, c: &mut [f32; COEFFS]) {
    let xq = if x + 1 == f.grid.nx { 0 } else { x + 1 };
    load_cell(f, neighborhood(row, x, xq), c);
}

/// The serial reference's record: the neighborhood from
/// [`crate::grid::Grid::neighbor`], one wrap per lookup.
#[inline(always)]
fn load_cell_wrapped(f: &FieldArray, v: usize, c: &mut [f32; COEFFS]) {
    let g = &f.grid;
    let at = [
        v,
        g.neighbor(v, (1, 0, 0)),
        g.neighbor(v, (0, 1, 0)),
        g.neighbor(v, (0, 0, 1)),
        g.neighbor(v, (0, 1, 1)),
        g.neighbor(v, (1, 0, 1)),
        g.neighbor(v, (1, 1, 0)),
    ];
    load_cell(f, at, c);
}

/// Refill `out` from the current fields with the row sweep distributed
/// over `space`. Each row reads its neighbor rows through
/// `crate::grid::Grid::row_stencil`: the cells `0..nx−1` as one span, the
/// x-wrapping end cell from the same bases. Bit-identical to
/// [`load_interpolators`] for every space and worker count. Every record
/// is overwritten, so nothing is filled first: `out` is resized only when
/// its length is not the cell count, and allocates only when its capacity
/// is below it.
///
/// `_strategy` is ignored: the sweep has one body. ROADMAP item 13
/// removes the argument after item 1(f).
pub fn load_interpolators_into<S: ExecSpace>(
    space: &S,
    _strategy: Strategy,
    f: &FieldArray,
    out: &mut InterpolatorArray,
) {
    let g = &f.grid;
    if out.data.len() != g.cells() {
        out.data.resize(g.cells(), Interpolator::default());
    }
    let nx = g.nx;
    space.parallel_windows(out.data.as_mut_slice(), nx, |_, first, out| {
        for (r, row) in (first..).zip(out.chunks_exact_mut(nx)) {
            let st = g.row_stencil(r, StencilSide::Plus);
            let (inner, end) = row.split_at_mut(nx - 1);
            for (x, rec) in inner.iter_mut().enumerate() {
                load_cell(f, neighborhood(st, x, x + 1), &mut rec.0);
            }
            load_cell(f, neighborhood(st, nx - 1, 0), &mut end[0].0);
        }
    });
}

/// Compute the interpolator array from the current fields (VPIC's
/// `load_interpolator_array`). One record per cell.
///
/// This is the serial wrapped-path reference (and back-compat
/// convenience): it allocates a fresh `Vec` per call. A caller that loads
/// every step uses [`load_interpolators_into`] with a persistent
/// [`InterpolatorArray`] instead.
#[allow(clippy::needless_range_loop)] // voxel-indexed sweep matches the math
pub fn load_interpolators(f: &FieldArray) -> Vec<Interpolator> {
    let n = f.grid.cells();
    let mut out = vec![Interpolator::default(); n];
    for v in 0..n {
        load_cell_wrapped(f, v, &mut out[v].0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;

    #[test]
    fn record_is_18_floats() {
        assert_eq!(COEFFS, 18);
        assert_eq!(std::mem::size_of::<Interpolator>(), 18 * 4);
    }

    #[test]
    fn uniform_field_interpolates_to_itself_everywhere() {
        let g = Grid::new(4, 4, 4);
        let mut f = FieldArray::new(g);
        f.ex.fill(2.0);
        f.ey.fill(-1.0);
        f.ez.fill(0.5);
        f.bx.fill(3.0);
        f.by.fill(-0.25);
        f.bz.fill(1.0);
        let interp = load_interpolators(&f);
        for ip in &interp {
            for &(x, y, z) in &[(0.0f32, 0.0f32, 0.0f32), (1.0, -1.0, 0.5), (-0.3, 0.7, -0.9)] {
                let (ex, ey, ez) = ip.e_at(x, y, z);
                assert!((ex - 2.0).abs() < 1e-6);
                assert!((ey + 1.0).abs() < 1e-6);
                assert!((ez - 0.5).abs() < 1e-6);
                let (bx, by, bz) = ip.b_at(x, y, z);
                assert!((bx - 3.0).abs() < 1e-6);
                assert!((by + 0.25).abs() < 1e-6);
                assert!((bz - 1.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn ex_edge_values_recovered_at_corners() {
        // distinct values on the four x-edges of one cell
        let g = Grid::new(3, 3, 3);
        let mut f = FieldArray::new(g.clone());
        let v = g.voxel(1, 1, 1);
        let yp = g.neighbor(v, (0, 1, 0));
        let zp = g.neighbor(v, (0, 0, 1));
        let ypzp = g.neighbor(v, (0, 1, 1));
        f.ex[v] = 1.0; // (y−, z−)
        f.ex[yp] = 2.0; // (y+, z−)
        f.ex[zp] = 3.0; // (y−, z+)
        f.ex[ypzp] = 4.0; // (y+, z+)
        let ip = load_interpolators(&f)[v];
        assert!((ip.e_at(0.0, -1.0, -1.0).0 - 1.0).abs() < 1e-6);
        assert!((ip.e_at(0.0, 1.0, -1.0).0 - 2.0).abs() < 1e-6);
        assert!((ip.e_at(0.0, -1.0, 1.0).0 - 3.0).abs() < 1e-6);
        assert!((ip.e_at(0.0, 1.0, 1.0).0 - 4.0).abs() < 1e-6);
        // center is the mean
        assert!((ip.e_at(0.0, 0.0, 0.0).0 - 2.5).abs() < 1e-6);
    }

    #[test]
    fn bx_face_values_recovered() {
        let g = Grid::new(3, 2, 2);
        let mut f = FieldArray::new(g.clone());
        let v = g.voxel(0, 0, 0);
        let xp = g.neighbor(v, (1, 0, 0));
        f.bx[v] = 10.0;
        f.bx[xp] = 20.0;
        let ip = load_interpolators(&f)[v];
        assert!((ip.b_at(-1.0, 0.0, 0.0).0 - 10.0).abs() < 1e-6);
        assert!((ip.b_at(1.0, 0.0, 0.0).0 - 20.0).abs() < 1e-6);
        assert!((ip.b_at(0.0, 0.0, 0.0).0 - 15.0).abs() < 1e-6);
    }

    /// Deterministic non-trivial E and B for bit-identity checks.
    fn scrambled(g: &Grid) -> FieldArray {
        let mut f = FieldArray::new(g.clone());
        for v in 0..g.cells() {
            let x = v as f32;
            f.ex[v] = (x * 0.618).sin();
            f.ey[v] = (x * 0.414).cos();
            f.ez[v] = (x * 0.732).sin();
            f.bx[v] = (x * 0.271).cos();
            f.by[v] = (x * 0.161).sin();
            f.bz[v] = (x * 0.577).cos();
        }
        f
    }

    #[test]
    fn load_into_matches_reference_bitwise() {
        let threads = pk::Threads::new(3);
        for (nx, ny, nz) in [(6, 5, 4), (2, 2, 2), (1, 4, 4), (5, 1, 3), (1, 1, 1)] {
            let f = scrambled(&Grid::new(nx, ny, nz));
            let reference = load_interpolators(&f);
            let mut buf = InterpolatorArray::new();
            load_interpolators_into(&pk::Serial, Strategy::Auto, &f, &mut buf);
            assert_eq!(buf.len(), reference.len());
            for (v, (a, b)) in reference.iter().zip(&buf[..]).enumerate() {
                for k in 0..COEFFS {
                    let what = format!("serial cell {v} coeff {k} ({nx},{ny},{nz})");
                    assert_eq!(a.0[k].to_bits(), b.0[k].to_bits(), "{what}");
                }
            }
            load_interpolators_into(&threads, Strategy::Auto, &f, &mut buf);
            for (v, (a, b)) in reference.iter().zip(&buf[..]).enumerate() {
                assert_eq!(a, b, "threads cell {v} ({nx},{ny},{nz})");
            }
        }
    }

    #[test]
    fn a_buffer_reloaded_for_another_grid_keeps_no_stale_record() {
        // nothing is filled before the sweep, so every record must be
        // written by it: a smaller grid, then a larger one, in one buffer
        let mut buf = InterpolatorArray::new();
        for (nx, ny, nz) in [(6, 5, 4), (3, 2, 2), (7, 6, 5)] {
            let f = scrambled(&Grid::new(nx, ny, nz));
            load_interpolators_into(&pk::Serial, Strategy::Auto, &f, &mut buf);
            assert_eq!(&buf[..], load_interpolators(&f), "({nx},{ny},{nz})");
        }
    }

    #[test]
    fn reload_into_does_not_reallocate() {
        let g = Grid::new(8, 6, 4);
        let mut f = FieldArray::new(g);
        let mut buf = InterpolatorArray::new();
        assert!(buf.is_empty());
        load_interpolators_into(&pk::Serial, Strategy::Auto, &f, &mut buf);
        let cap = buf.capacity();
        assert!(cap >= buf.len());
        f.ex.fill(1.0);
        load_interpolators_into(&pk::Serial, Strategy::Auto, &f, &mut buf);
        assert_eq!(buf.capacity(), cap, "reallocated");
    }

    #[test]
    fn interpolation_is_continuous_across_shared_edges() {
        // neighboring cells must agree on E at their shared boundary:
        // evaluate ex at the shared (y=+1 of cell v) == (y=−1 of cell v+y)
        let g = Grid::new(4, 4, 4);
        let mut f = FieldArray::new(g.clone());
        for (i, e) in f.ex.iter_mut().enumerate() {
            *e = (i as f32 * 0.618).sin();
        }
        let interp = load_interpolators(&f);
        let v = g.voxel(1, 1, 1);
        let vy = g.neighbor(v, (0, 1, 0));
        for &z in &[-1.0f32, -0.5, 0.0, 0.5, 1.0] {
            let top = interp[v].e_at(0.0, 1.0, z).0;
            let bottom = interp[vy].e_at(0.0, -1.0, z).0;
            assert!((top - bottom).abs() < 1e-6, "discontinuity at z={z}");
        }
    }
}
