//! Electromagnetic fields on the Yee mesh and the FDTD advance.
//!
//! Per voxel `v` (VPIC's staggering):
//!
//! * `ex(v)` lives on the x-edge at `(ix+½, iy, iz)`; `ey`, `ez` likewise.
//! * `bx(v)` lives on the x-face at `(ix, iy+½, iz+½)`; `by`, `bz` likewise.
//! * a current `jx/jy/jz` is colocated with the corresponding E
//!   component.
//!
//! Units are normalized (`c = 1`, unit cells): the advance uses the raw
//! `dt` factors. B is advanced in half steps around the E update, the
//! standard leapfrog VPIC uses.
//!
//! ## Kernel structure
//!
//! The advance kernels sweep the grid one x-row (`(iy, iz)` pair) at a
//! time. `Grid::row_stencil` gives the row its neighbor rows' base
//! voxels — the periodic wrap in y and z, paid once per row — so every
//! row is one unit-stride span with loop-invariant bases (`0..nx−1` for
//! curl-E, `1..nx` for curl-B), plus the one end cell whose x-neighbor
//! is the row's other end, updated from the same bases. Each kernel has
//! one body, a fused `f32` loop left to LLVM's vectorizer: the paper's
//! vectorization strategies are a question about the push, and their
//! `Strategy` argument is ignored here. Rows write disjoint output spans:
//! each kernel hands its output arrays to [`ExecSpace::parallel_windows`]
//! in units of a row, which cuts them into one window of whole rows per
//! block, so every space's sweep is deterministic for free.
//!
//! The E advance has one row body and two sources of current
//! (`Current`): J's rows, the outside seam's
//! [`FieldArray::advance_e_on`], or the accumulator's edge totals,
//! converted one row at a time into a row buffer of the block's
//! (`Accumulator::advance_e_on`, what a step runs). So a step keeps no J:
//! `jx/jy/jz` stay empty until the seam's [`FieldArray::clear_j_on`] or
//! `Accumulator::unload_on` sizes them.

use crate::grid::{Grid, RowStencil, StencilSide};
use pk::{ExecSpace, Split};
use std::ops::Range;
use vsimd::Strategy;

/// The field state: E and B, and the current J of the outside seam.
#[derive(Debug, Clone)]
pub struct FieldArray {
    /// Grid geometry this field lives on.
    pub grid: Grid,
    /// Electric field components (edge-centered).
    pub ex: Vec<f32>,
    /// See [`FieldArray::ex`].
    pub ey: Vec<f32>,
    /// See [`FieldArray::ex`].
    pub ez: Vec<f32>,
    /// Magnetic field components (face-centered).
    pub bx: Vec<f32>,
    /// See [`FieldArray::bx`].
    pub by: Vec<f32>,
    /// See [`FieldArray::bx`].
    pub bz: Vec<f32>,
    /// Current density components (colocated with E): the buffer of the
    /// seam that drives the kernels phase by phase ([`FieldArray::clear_j_on`],
    /// `Accumulator::unload_on`, [`FieldArray::advance_e_on`]). Empty
    /// until the seam sizes it; a step neither reads nor writes it.
    pub jx: Vec<f32>,
    /// See [`FieldArray::jx`].
    pub jy: Vec<f32>,
    /// See [`FieldArray::jx`].
    pub jz: Vec<f32>,
}

/// The read side of a curl sweep: the three source components, the
/// inverse cell sizes, the step and the row length.
#[derive(Clone, Copy)]
struct Curl<'a> {
    src: [&'a [f32]; 3],
    rd: [f32; 3],
    dt: f32,
    nx: usize,
}

/// A span of consecutive cells of one row: the voxel of its first cell
/// and that cell's x, y and z neighbors (the later cells' sit at the same
/// offsets from theirs).
type Span = [usize; 4];

impl<'a> Curl<'a> {
    /// The sweep of `src` on `g` by `dt`.
    fn new(g: &Grid, src: [&'a [f32]; 3], dt: f32) -> Self {
        Self { src, rd: [1.0 / g.dx, 1.0 / g.dy, 1.0 / g.dz], dt, nx: g.nx }
    }

    /// `B -= dt·∇×E` over the span.
    #[inline(always)]
    fn e_fused(&self, [v, xp, yp, zp]: Span, [bx, by, bz]: [&mut [f32]; 3]) {
        let ([ex, ey, ez], [rdx, rdy, rdz], dt) = (self.src, self.rd, self.dt);
        for k in 0..bx.len() {
            let (v, xp, yp, zp) = (v + k, xp + k, yp + k, zp + k);
            bx[k] -= dt * ((ez[yp] - ez[v]) * rdy - (ey[zp] - ey[v]) * rdz);
            by[k] -= dt * ((ex[zp] - ex[v]) * rdz - (ez[xp] - ez[v]) * rdx);
            bz[k] -= dt * ((ey[xp] - ey[v]) * rdx - (ex[yp] - ex[v]) * rdy);
        }
    }

    /// [`Curl::e_fused`] over the cells `xs` of the row behind `st`, `b`
    /// holding those cells: the ones below the row's end cell as one
    /// span, then the end cell, whose +x neighbor is the row's first.
    /// The whole-grid sweep runs it over `0..nx`, the box sweep over a
    /// box's cells of the row.
    #[inline(always)]
    fn e_row(&self, st: &RowStencil, xs: Range<usize>, b: [&mut [f32]; 3]) {
        let inner = xs.end.min(self.nx - 1).max(xs.start) - xs.start;
        let [(bx, bx_end), (by, by_end), (bz, bz_end)] = b.map(|b| b.split_at_mut(inner));
        self.e_fused(span(st, xs.start, xs.start + 1), [bx, by, bz]);
        self.e_fused(span(st, self.nx - 1, 0), [bx_end, by_end, bz_end]);
    }

    /// `E += dt·(∇×B − J)` over the span, `j` holding the span's
    /// current from its first cell on; the neighbors are the minus-side
    /// ones.
    #[inline(always)]
    fn b_fused(&self, j: [&[f32]; 3], [v, xm, ym, zm]: Span, [ex, ey, ez]: [&mut [f32]; 3]) {
        let ([bx, by, bz], [rdx, rdy, rdz], dt) = (self.src, self.rd, self.dt);
        // as long as the span: `j[k]` needs no check
        let [jx, jy, jz] = j.map(|j| &j[..ex.len()]);
        for k in 0..ex.len() {
            let (v, xm, ym, zm) = (v + k, xm + k, ym + k, zm + k);
            ex[k] += dt * ((bz[v] - bz[ym]) * rdy - (by[v] - by[zm]) * rdz - jx[k]);
            ey[k] += dt * ((bx[v] - bx[zm]) * rdz - (bz[v] - bz[xm]) * rdx - jy[k]);
            ez[k] += dt * ((by[v] - by[xm]) * rdx - (bx[v] - bx[ym]) * rdy - jz[k]);
        }
    }

    /// [`Curl::b_fused`] over the whole row behind `st`, `j` and `e`
    /// holding its cells: the cells after the first as one span, then the
    /// first, whose −x neighbor is the row's last.
    #[inline(always)]
    fn b_row(&self, st: &RowStencil, j: [&[f32]; 3], e: [&mut [f32]; 3]) {
        let [(ex_end, ex), (ey_end, ey), (ez_end, ez)] = e.map(|e| e.split_at_mut(1));
        let [(jx_end, jx), (jy_end, jy), (jz_end, jz)] = j.map(|j| j.split_at(1));
        self.b_fused([jx, jy, jz], span(st, 1, 0), [ex, ey, ez]);
        self.b_fused([jx_end, jy_end, jz_end], span(st, 0, self.nx - 1), [ex_end, ey_end, ez_end]);
    }
}

/// Where the E advance takes a row's current from: J's rows (the seam's
/// [`FieldArray::advance_e_on`]) or the accumulator's edge totals (the
/// step's fused pass, `Accumulator::advance_e_on`). The sweep hands it to
/// [`ExecSpace::parallel_windows`] beside the E arrays, so it is cut into
/// rows with them.
pub(crate) trait Current: Split {
    /// The current `[jx, jy, jz]` of row `r`, whose piece `self` is:
    /// read where it lies, or made in `buf`, a row buffer the sweep keeps
    /// for the block.
    fn row<'b>(&'b mut self, r: usize, buf: &'b mut Vec<f32>) -> [&'b [f32]; 3];
}

/// J's rows, read where they lie.
impl Current for [&[f32]; 3] {
    fn row<'b>(&'b mut self, _: usize, _: &'b mut Vec<f32>) -> [&'b [f32]; 3] {
        *self
    }
}

/// Cells `x..` of the row behind `st`, with the first one's x-neighbor at
/// column `xq`.
#[inline(always)]
fn span(st: &RowStencil, x: usize, xq: usize) -> Span {
    [st.row + x, st.row + xq, st.y + x, st.z + x]
}

/// The E advance on `g`, one [`Curl::b_row`] per row, its current from
/// `j`: `e` and `j` cut into windows of whole rows, one per block, each
/// block with a row buffer of its own for a current that needs one.
fn advance_e<S: ExecSpace>(space: &S, g: &Grid, e: [&mut [f32]; 3], b: [&[f32]; 3], j: impl Current) {
    let curl = Curl::new(g, b, g.dt);
    let nx = g.nx;
    space.parallel_windows((e, j), nx, |_, first, rows| {
        let mut buf = Vec::new();
        for (r, (e, mut j)) in (first..).zip(rows.pieces(nx)) {
            curl.b_row(&g.row_stencil(r, StencilSide::Minus), j.row(r, &mut buf), e);
        }
    });
}

impl FieldArray {
    /// Zero-initialized fields on `grid`, J not sized.
    pub fn new(grid: Grid) -> Self {
        let n = grid.cells();
        Self {
            grid,
            ex: vec![0.0; n],
            ey: vec![0.0; n],
            ez: vec![0.0; n],
            bx: vec![0.0; n],
            by: vec![0.0; n],
            bz: vec![0.0; n],
            jx: Vec::new(),
            jy: Vec::new(),
            jz: Vec::new(),
        }
    }

    /// Names of the six component arrays, in [`FieldArray::arrays`] order.
    pub(crate) const NAMES: [&'static str; 6] = ["ex", "ey", "ez", "bx", "by", "bz"];

    /// The six component arrays, E then B: the state, and the one table a
    /// checkpoint, a bitwise comparison and a rank partition walk. J is
    /// not state: no step reads what it held before.
    pub fn arrays(&self) -> [&[f32]; 6] {
        let Self { ex, ey, ez, bx, by, bz, .. } = self;
        [ex, ey, ez, bx, by, bz].map(Vec::as_slice)
    }

    /// The arrays of [`FieldArray::arrays`], in its order, mutably.
    pub fn arrays_mut(&mut self) -> [&mut Vec<f32>; 6] {
        let Self { ex, ey, ez, bx, by, bz, .. } = self;
        [ex, ey, ez, bx, by, bz]
    }

    /// The seam's J, sized to the grid on first use (a step never sizes
    /// it).
    pub(crate) fn j_sized(&mut self) -> [&mut [f32]; 3] {
        let n = self.grid.cells();
        [&mut self.jx, &mut self.jy, &mut self.jz].map(|j| {
            j.resize(n, 0.0);
            j.as_mut_slice()
        })
    }

    /// Zero the current arrays, sizing them on first use, the row sweep
    /// distributed over `space`. A step does not call it (it keeps no J);
    /// it is the kernel an outside tracer times as its own phase, until
    /// ROADMAP 1(g) deletes J and the seam.
    pub fn clear_j_on<S: ExecSpace>(&mut self, space: &S) {
        let nx = self.grid.nx;
        space.parallel_windows(self.j_sized(), nx, |_, _, j| {
            for j in j {
                j.fill(0.0);
            }
        });
    }

    /// Serial reference for [`FieldArray::advance_b_on`]: the general wrapped
    /// per-cell loop, kept as the bit-exactness oracle.
    pub fn advance_b_ref(&mut self, frac: f32) {
        let Self { grid: g, ex, ey, ez, bx, by, bz, .. } = self;
        let dt = g.dt * frac;
        let (rdx, rdy, rdz) = (1.0 / g.dx, 1.0 / g.dy, 1.0 / g.dz);
        for v in 0..g.cells() {
            let xp = g.neighbor(v, (1, 0, 0));
            let yp = g.neighbor(v, (0, 1, 0));
            let zp = g.neighbor(v, (0, 0, 1));
            bx[v] -= dt * ((ez[yp] - ez[v]) * rdy - (ey[zp] - ey[v]) * rdz);
            by[v] -= dt * ((ex[zp] - ex[v]) * rdz - (ez[xp] - ez[v]) * rdx);
            bz[v] -= dt * ((ey[xp] - ey[v]) * rdx - (ex[yp] - ex[v]) * rdy);
        }
    }

    /// Advance B by `frac·dt` with `∂B/∂t = −∇×E` (call with `0.5`
    /// before and after the E update for the leapfrog), the row sweep
    /// distributed over `space`. Bit-identical to
    /// [`FieldArray::advance_b_ref`] for every space and worker count.
    ///
    /// `_strategy` is ignored: the sweep has one body, left to LLVM's
    /// vectorizer. ROADMAP item 13 removes the argument after item 1(f).
    pub fn advance_b_on<S: ExecSpace>(&mut self, space: &S, _strategy: Strategy, frac: f32) {
        let Self { grid: g, ex, ey, ez, bx, by, bz, .. } = self;
        let curl = Curl::new(g, [ex, ey, ez], g.dt * frac);
        let (g, nx) = (&*g, g.nx);
        space.parallel_windows([bx, by, bz].map(Vec::as_mut_slice), nx, |_, first, b| {
            for (r, b) in (first..).zip(b.pieces(nx)) {
                curl.e_row(&g.row_stencil(r, StencilSide::Plus), 0..nx, b);
            }
        });
    }

    /// Advance B by `frac·dt` over the box `xs × ys × zs` only (cell
    /// coordinates, end-exclusive).
    ///
    /// Each of the box's rows runs the row body of
    /// [`FieldArray::advance_b_on`] over the box's cells, so sweeping a
    /// disjoint partition of the grid box-by-box produces bit-identical
    /// fields to one full sweep. The multi-rank driver uses this to
    /// advance the interior while boundary shells wait on in-flight halo
    /// exchanges (DESIGN §12).
    pub fn advance_b_box(
        &mut self,
        xs: Range<usize>,
        ys: Range<usize>,
        zs: Range<usize>,
        frac: f32,
    ) {
        let Self { grid: g, ex, ey, ez, bx, by, bz, .. } = self;
        let curl = Curl::new(g, [ex, ey, ez], g.dt * frac);
        for iz in zs {
            for iy in ys.clone() {
                let st = g.row_stencil_at(iy, iz, StencilSide::Plus);
                let cells = st.row + xs.start..st.row + xs.end;
                let b = [&mut bx[cells.clone()], &mut by[cells.clone()], &mut bz[cells]];
                curl.e_row(&st, xs.clone(), b);
            }
        }
    }

    /// Serial reference for [`FieldArray::advance_e_on`] (see
    /// [`FieldArray::advance_b_ref`]).
    pub fn advance_e_ref(&mut self) {
        self.assert_j_sized();
        let Self { grid: g, ex, ey, ez, bx, by, bz, jx, jy, jz } = self;
        let dt = g.dt;
        let (rdx, rdy, rdz) = (1.0 / g.dx, 1.0 / g.dy, 1.0 / g.dz);
        for v in 0..g.cells() {
            let xm = g.neighbor(v, (-1, 0, 0));
            let ym = g.neighbor(v, (0, -1, 0));
            let zm = g.neighbor(v, (0, 0, -1));
            ex[v] += dt * ((bz[v] - bz[ym]) * rdy - (by[v] - by[zm]) * rdz - jx[v]);
            ey[v] += dt * ((bx[v] - bx[zm]) * rdz - (bz[v] - bz[xm]) * rdx - jy[v]);
            ez[v] += dt * ((by[v] - by[xm]) * rdx - (bx[v] - bx[ym]) * rdy - jz[v]);
        }
    }

    /// Advance E by a full `dt` with `∂E/∂t = ∇×B − J`, J read from
    /// `jx/jy/jz`, the row sweep distributed over `space`: the outside
    /// seam's E advance. Bit-identical to [`FieldArray::advance_e_ref`]
    /// for every space and worker count, and to the step's fused pass
    /// over the totals J was unloaded from.
    ///
    /// `_strategy` is ignored: the sweep has one body. ROADMAP item 13
    /// removes the argument after item 1(f).
    ///
    /// # Panics
    /// Panics unless J is sized ([`FieldArray::clear_j_on`] or
    /// `Accumulator::unload_on` sizes it).
    pub fn advance_e_on<S: ExecSpace>(&mut self, space: &S, _strategy: Strategy) {
        self.assert_j_sized();
        let Self { grid, ex, ey, ez, bx, by, bz, jx, jy, jz } = self;
        let j: [&[f32]; 3] = [jx, jy, jz];
        advance_e(space, grid, [ex, ey, ez].map(Vec::as_mut_slice), [bx, by, bz], j);
    }

    /// [`FieldArray::advance_e_on`]'s sweep, each row's current from `j`.
    pub(crate) fn advance_e_from<S: ExecSpace>(&mut self, space: &S, j: impl Current) {
        let Self { grid, ex, ey, ez, bx, by, bz, .. } = self;
        advance_e(space, grid, [ex, ey, ez].map(Vec::as_mut_slice), [bx, by, bz], j);
    }

    fn assert_j_sized(&self) {
        let n = self.grid.cells();
        let sized = [&self.jx, &self.jy, &self.jz].iter().all(|j| j.len() == n);
        assert!(sized, "J is not sized: clear_j_on or unload_on sizes it");
    }

    /// Field energy `½∫(E² + B²)dV`, split as `(electric, magnetic)`.
    ///
    /// Summation order is per-row (voxel-major within a row, `ex² + ey² +
    /// ez²` per voxel), then the row sums folded in row order.
    pub(crate) fn energies(&self) -> (f64, f64) {
        let g = &self.grid;
        let sq = |a: &[f32], v: usize| (a[v] as f64) * (a[v] as f64);
        let (mut se, mut sb) = (0.0f64, 0.0f64);
        for r in 0..g.rows() {
            let (mut e, mut b) = (0.0f64, 0.0f64);
            for v in g.row_range(r) {
                e += sq(&self.ex, v);
                e += sq(&self.ey, v);
                e += sq(&self.ez, v);
                b += sq(&self.bx, v);
                b += sq(&self.by, v);
                b += sq(&self.bz, v);
            }
            se += e;
            sb += b;
        }
        let cell_v = (g.dx * g.dy * g.dz) as f64;
        (0.5 * cell_v * se, 0.5 * cell_v * sb)
    }

    /// Discrete `∇·B` at the cell's node-dual (must stay ≈0 under FDTD).
    #[cfg(test)]
    fn div_b(&self, v: usize) -> f32 {
        let g = &self.grid;
        let xp = g.neighbor(v, (1, 0, 0));
        let yp = g.neighbor(v, (0, 1, 0));
        let zp = g.neighbor(v, (0, 0, 1));
        (self.bx[xp] - self.bx[v]) / g.dx
            + (self.by[yp] - self.by[v]) / g.dy
            + (self.bz[zp] - self.bz[v]) / g.dz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::floats_diff;
    use pk::Serial;

    /// The first bitwise difference of two field states, as
    /// [`crate::Simulation::bit_diff`] words it.
    fn bits_diff(a: &FieldArray, b: &FieldArray) -> Option<String> {
        floats_diff(&FieldArray::NAMES, &a.arrays(), &b.arrays())
    }

    /// Zero fields on `g` with a zero J the seam's E advance reads.
    fn with_j(g: &Grid) -> FieldArray {
        let mut f = FieldArray::new(g.clone());
        f.clear_j_on(&Serial);
        f
    }

    fn plane_wave(n: usize) -> FieldArray {
        // +x-travelling wave: Ez = sin(kx), By = -sin(kx) at the staggered
        // positions (ez at node-x, by at x+1/2)
        let g = Grid::new(n, 4, 4);
        let mut f = with_j(&g);
        let k = 2.0 * std::f32::consts::PI / n as f32;
        for v in 0..g.cells() {
            let (ix, _, _) = g.coords(v);
            f.ez[v] = (k * ix as f32).sin();
            f.by[v] = -(k * (ix as f32 + 0.5)).sin();
        }
        f
    }

    fn total_energy(f: &FieldArray) -> f64 {
        let (e, b) = f.energies();
        e + b
    }

    /// Deterministic non-trivial field state for bit-identity checks.
    fn scrambled(g: &Grid) -> FieldArray {
        let mut f = with_j(g);
        for v in 0..g.cells() {
            let x = v as f32;
            f.ex[v] = (x * 0.618).sin();
            f.ey[v] = (x * 0.414).cos();
            f.ez[v] = (x * 0.732).sin() - 0.3;
            f.bx[v] = (x * 0.271).cos() * 0.5;
            f.by[v] = (x * 0.161).sin() + 0.1;
            f.bz[v] = (x * 0.577).cos() - 0.2;
            f.jx[v] = (x * 0.321).sin() * 0.05;
            f.jy[v] = (x * 0.123).cos() * 0.05;
            f.jz[v] = (x * 0.913).sin() * 0.05;
        }
        f
    }

    #[test]
    fn vacuum_plane_wave_conserves_energy() {
        let mut f = plane_wave(32);
        let e0 = total_energy(&f);
        assert!(e0 > 0.0);
        // leapfrog: half B, then (E, full B) pairs
        f.advance_b_on(&Serial, Strategy::Auto, 0.5);
        for _ in 0..200 {
            f.advance_e_on(&Serial, Strategy::Auto);
            f.advance_b_on(&Serial, Strategy::Auto, 1.0);
        }
        f.advance_b_on(&Serial, Strategy::Auto, -0.5); // resync B to integer time for the energy check
        let e1 = total_energy(&f);
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 0.02, "vacuum energy drift {drift}");
    }

    #[test]
    fn vacuum_wave_propagates_in_x() {
        let n = 64;
        let mut f = plane_wave(n);
        let probe = |f: &FieldArray| f.ez[f.grid.voxel(0, 0, 0)];
        let initial = probe(&f);
        assert_eq!(initial, 0.0); // sin(0)
        // advance a quarter period: T = wavelength / c = 64 steps of dt... use
        // enough steps that the phase visibly moves
        f.advance_b_on(&Serial, Strategy::Auto, 0.5);
        let steps = (n as f32 / (4.0 * f.grid.dt)) as usize;
        for _ in 0..steps {
            f.advance_e_on(&Serial, Strategy::Auto);
            f.advance_b_on(&Serial, Strategy::Auto, 1.0);
        }
        assert!(
            probe(&f).abs() > 0.5,
            "wave should have moved a quarter period: {}",
            probe(&f)
        );
    }

    #[test]
    fn div_b_stays_zero() {
        let mut f = plane_wave(16);
        f.advance_b_on(&Serial, Strategy::Auto, 0.5);
        for _ in 0..50 {
            f.advance_e_on(&Serial, Strategy::Auto);
            f.advance_b_on(&Serial, Strategy::Auto, 1.0);
        }
        for v in 0..f.grid.cells() {
            assert!(f.div_b(v).abs() < 1e-4, "div B at {v}: {}", f.div_b(v));
        }
    }

    #[test]
    fn uniform_current_drives_e_linearly() {
        let g = Grid::new(8, 8, 8);
        let dt = g.dt;
        let mut f = with_j(&g);
        f.jx.fill(1.0);
        f.advance_e_on(&Serial, Strategy::Auto);
        assert!(f.ex.iter().all(|&e| (e + dt).abs() < 1e-6), "E = -J dt");
        assert!(f.ey.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn clear_j_zeroes_currents_only() {
        let g = Grid::new(4, 4, 4);
        let mut f = with_j(&g);
        f.jx.fill(2.0);
        f.ex.fill(3.0);
        f.clear_j_on(&Serial);
        assert!(f.jx.iter().all(|&x| x == 0.0));
        assert!(f.ex.iter().all(|&x| x == 3.0));
    }

    #[test]
    fn j_is_unsized_until_the_seam_sizes_it() {
        let g = Grid::new(3, 2, 2);
        let mut f = FieldArray::new(g.clone());
        assert!([&f.jx, &f.jy, &f.jz].iter().all(|j| j.capacity() == 0));
        f.clear_j_on(&Serial);
        assert!([&f.jx, &f.jy, &f.jz].iter().all(|j| j.len() == g.cells()));
    }

    #[test]
    #[should_panic(expected = "J is not sized")]
    fn the_seams_e_advance_needs_a_sized_j() {
        FieldArray::new(Grid::new(2, 2, 2)).advance_e_on(&Serial, Strategy::Auto);
    }

    #[test]
    fn static_uniform_b_is_a_fixed_point() {
        let g = Grid::new(6, 6, 6);
        let mut f = with_j(&g);
        f.bz.fill(1.5);
        let before = f.clone();
        f.advance_b_on(&Serial, Strategy::Auto, 0.5);
        f.advance_e_on(&Serial, Strategy::Auto);
        f.advance_b_on(&Serial, Strategy::Auto, 1.0);
        assert_eq!(f.bz, before.bz);
        assert!(f.ex.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn row_sweeps_match_reference_bitwise() {
        let threads = pk::Threads::new(3);
        for (nx, ny, nz) in [(7, 5, 4), (4, 4, 4), (2, 2, 2), (1, 5, 5), (8, 1, 3), (1, 1, 1)] {
            let g = Grid::new(nx, ny, nz);
            let base = scrambled(&g);
            let mut reference = base.clone();
            reference.advance_b_ref(0.5);
            reference.advance_e_ref();
            reference.advance_b_ref(0.5);
            let mut serial = base.clone();
            serial.advance_b_on(&Serial, Strategy::Auto, 0.5);
            serial.advance_e_on(&Serial, Strategy::Auto);
            serial.advance_b_on(&Serial, Strategy::Auto, 0.5);
            let mut parallel = base.clone();
            parallel.advance_b_on(&threads, Strategy::Auto, 0.5);
            parallel.advance_e_on(&threads, Strategy::Auto);
            parallel.advance_b_on(&threads, Strategy::Auto, 0.5);
            let what = format!("vs ref ({nx},{ny},{nz})");
            assert_eq!(bits_diff(&reference, &serial), None, "serial {what}");
            assert_eq!(bits_diff(&reference, &parallel), None, "threads {what}");
        }
    }

    #[test]
    fn box_partition_matches_full_sweep_bitwise() {
        // interior box + the three plus-face shells = the multi-rank
        // overlap split; together they must reproduce the full sweep
        for (nx, ny, nz) in [(6, 5, 4), (1, 4, 4), (4, 1, 1), (1, 1, 1)] {
            let g = Grid::new(nx, ny, nz);
            let mut full = scrambled(&g);
            full.advance_b_on(&Serial, Strategy::Auto, 0.5);
            let mut boxed = scrambled(&g);
            boxed.advance_b_box(0..nx.saturating_sub(1), 0..ny.saturating_sub(1), 0..nz.saturating_sub(1), 0.5);
            boxed.advance_b_box(nx - 1..nx, 0..ny, 0..nz, 0.5);
            boxed.advance_b_box(0..nx - 1, ny - 1..ny, 0..nz, 0.5);
            boxed.advance_b_box(0..nx - 1, 0..ny - 1, nz - 1..nz, 0.5);
            assert_eq!(bits_diff(&full, &boxed), None, "({nx},{ny},{nz})");
        }
    }

    #[test]
    fn clear_j_on_matches_serial() {
        let g = Grid::new(5, 3, 2);
        let mut f = scrambled(&g);
        let threads = pk::Threads::new(2);
        f.clear_j_on(&threads);
        assert!(f.jx.iter().chain(&f.jy).chain(&f.jz).all(|&x| x == 0.0));
        assert!(f.ex.iter().any(|&x| x != 0.0), "E untouched");
    }
}
