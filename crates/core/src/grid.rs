//! The 3-D periodic Yee grid.
//!
//! Cells are indexed by a linear *voxel* id (VPIC's `VOXEL(x,y,z)`),
//! x-fastest. There are no ghost layers: the grid is single-domain
//! periodic and neighbor lookups wrap modularly (the `cluster` crate
//! models multi-domain decomposition and its halo traffic separately).
//! The row sweeps of the field pipeline pay for the wrap once per x-row
//! (`Grid::row_stencil`); [`Grid::neighbor`] is the per-cell form the
//! serial references and the push's crossing path use.

use serde::Serialize;
use std::ops::Range;

/// Which side a stencil's neighbors lie on, for `Grid::row_stencil`: a
/// *plus*-side stencil reads `+x̂, +ŷ, +ẑ` (curl-E, interpolator load), a
/// *minus*-side stencil reads `−x̂, −ŷ, −ẑ` (curl-B, accumulator gather).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StencilSide {
    /// Neighbors one cell up each axis.
    Plus,
    /// Neighbors one cell down each axis.
    Minus,
}

/// Where the neighbors of one x-row live: the base voxel (`ix = 0`) of
/// the row and of the rows one step along y, along z, and along both, on
/// one [`StencilSide`], wrapped periodically (a dimension of one cell
/// wraps onto itself). Cell `ix`'s y-neighbor is `y + ix`, and so on; its
/// x-neighbor is `row + ix ± 1` except for the one end cell of the row,
/// whose x-neighbor is the row's other end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowStencil {
    /// Base voxel of the row itself.
    pub row: usize,
    /// Base voxel of the `±ŷ` neighbor row.
    pub y: usize,
    /// Base voxel of the `±ẑ` neighbor row.
    pub z: usize,
    /// Base voxel of the `±ŷ ±ẑ` (diagonal) neighbor row.
    pub yz: usize,
}

/// Grid geometry and time step.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Grid {
    /// Cells along x.
    pub nx: usize,
    /// Cells along y.
    pub ny: usize,
    /// Cells along z.
    pub nz: usize,
    /// Cell size along x (normalized units).
    pub dx: f32,
    /// Cell size along y.
    pub dy: f32,
    /// Cell size along z.
    pub dz: f32,
    /// Time step (must satisfy the Courant limit).
    pub dt: f32,
}

impl Grid {
    /// A periodic grid of `nx × ny × nz` unit cells with a CFL-safe `dt`.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx >= 1 && ny >= 1 && nz >= 1, "grid needs at least one cell");
        let dt = crate::constants::courant_dt(1.0, 1.0, 1.0);
        Self { nx, ny, nz, dx: 1.0, dy: 1.0, dz: 1.0, dt }
    }

    /// Override the time step (still must be CFL-stable; checked).
    pub fn with_dt(mut self, dt: f32) -> Self {
        let limit = crate::constants::courant_dt(self.dx, self.dy, self.dz)
            / crate::constants::CFL_SAFETY;
        assert!(dt > 0.0 && dt < limit, "dt {dt} violates the Courant limit {limit}");
        self.dt = dt;
        self
    }

    /// Total cell count.
    pub fn cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Linear voxel id of `(ix, iy, iz)` (x-fastest, VPIC convention).
    #[inline(always)]
    pub fn voxel(&self, ix: usize, iy: usize, iz: usize) -> usize {
        debug_assert!(ix < self.nx && iy < self.ny && iz < self.nz);
        ix + self.nx * (iy + self.ny * iz)
    }

    /// Inverse of [`Grid::voxel`].
    #[inline(always)]
    pub fn coords(&self, v: usize) -> (usize, usize, usize) {
        debug_assert!(v < self.cells());
        let ix = v % self.nx;
        let iy = (v / self.nx) % self.ny;
        let iz = v / (self.nx * self.ny);
        (ix, iy, iz)
    }

    /// Periodic neighbor `delta = (dx, dy, dz)` of voxel `v`.
    #[inline(always)]
    pub fn neighbor(&self, v: usize, delta: (isize, isize, isize)) -> usize {
        let (ix, iy, iz) = self.coords(v);
        let wrap = |i: usize, d: isize, n: usize| -> usize {
            (((i as isize + d) % n as isize + n as isize) % n as isize) as usize
        };
        self.voxel(
            wrap(ix, delta.0, self.nx),
            wrap(iy, delta.1, self.ny),
            wrap(iz, delta.2, self.nz),
        )
    }

    /// Number of x-rows: one per `(iy, iz)` pair. Row `r` covers the
    /// contiguous voxel span [`Grid::row_range`] — the natural work unit
    /// for the field pipeline's parallel sweeps (unit stride, one cache
    /// line stream per array).
    #[inline(always)]
    pub(crate) fn rows(&self) -> usize {
        self.ny * self.nz
    }

    /// Contiguous voxel ids of row `r` (x-fastest ⇒ `r·nx .. (r+1)·nx`).
    #[inline(always)]
    pub(crate) fn row_range(&self, r: usize) -> Range<usize> {
        debug_assert!(r < self.rows());
        r * self.nx..(r + 1) * self.nx
    }

    /// `(iy, iz)` of row `r` (inverse of `r = iy + ny·iz`).
    #[inline(always)]
    pub(crate) fn row_coords(&self, r: usize) -> (usize, usize) {
        debug_assert!(r < self.rows());
        (r % self.ny, r / self.ny)
    }

    /// The neighbor rows of row `r` on `side` — the periodic wrap in y and
    /// z, paid once per row instead of once per cell. Every row is then
    /// swept at unit stride with loop-invariant bases (`0..nx−1` on the
    /// plus side, `1..nx` on the minus side), and only the one end cell
    /// whose x-neighbor wraps is handled apart, from the same bases.
    #[inline(always)]
    pub(crate) fn row_stencil(&self, r: usize, side: StencilSide) -> RowStencil {
        let (iy, iz) = self.row_coords(r);
        self.row_stencil_at(iy, iz, side)
    }

    /// [`Grid::row_stencil`] of the row at `(iy, iz)`, for a caller that
    /// has the coordinates without dividing.
    #[inline(always)]
    pub(crate) fn row_stencil_at(&self, iy: usize, iz: usize, side: StencilSide) -> RowStencil {
        let step = |i: usize, n: usize| match side {
            StencilSide::Plus if i + 1 == n => 0,
            StencilSide::Plus => i + 1,
            StencilSide::Minus if i == 0 => n - 1,
            StencilSide::Minus => i - 1,
        };
        let (jy, jz) = (step(iy, self.ny), step(iz, self.nz));
        let base = |iy: usize, iz: usize| self.nx * (iy + self.ny * iz);
        RowStencil { row: base(iy, iz), y: base(jy, iz), z: base(iy, jz), yz: base(jy, jz) }
    }

    /// The [`Site`] of the cell at `(x, iy, iz)`.
    #[inline(always)]
    pub(crate) fn site(&self, x: usize, iy: usize, iz: usize) -> Site {
        Site { x, row: self.row_stencil_at(iy, iz, StencilSide::Plus) }
    }

    /// The [`Site`] of `cell`, from the site `near` of the cell visited
    /// before it: a subtraction when `cell` is in the same row, two
    /// divisions when it is not. Panics, in every build, when `cell` is
    /// outside the grid.
    #[inline(always)]
    pub(crate) fn locate(&self, near: Site, cell: usize) -> Site {
        let x = cell.wrapping_sub(near.row.row);
        if x < self.nx {
            return Site { x, ..near };
        }
        let cells = self.cells();
        assert!(cell < cells, "cell {cell} out of range for a grid of {cells} cells");
        let (iy, iz) = self.row_coords(cell / self.nx);
        self.site(cell % self.nx, iy, iz)
    }
}

/// Where a cell is: its x in its row, and its row's plus-side
/// [`RowStencil`] — what the push needs to build the cell's coefficients
/// and to add to its edges.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Site {
    /// The cell's x in its row.
    pub x: usize,
    /// The bases of its row and of the rows one step up y, up z and up both.
    pub row: RowStencil,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voxel_roundtrip_covers_grid() {
        let g = Grid::new(4, 3, 5);
        assert_eq!(g.cells(), 60);
        let mut seen = [false; 60];
        for iz in 0..5 {
            for iy in 0..3 {
                for ix in 0..4 {
                    let v = g.voxel(ix, iy, iz);
                    assert!(!seen[v]);
                    seen[v] = true;
                    assert_eq!(g.coords(v), (ix, iy, iz));
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn x_is_fastest_index() {
        let g = Grid::new(8, 8, 8);
        assert_eq!(g.voxel(1, 0, 0), g.voxel(0, 0, 0) + 1);
        assert_eq!(g.voxel(0, 1, 0), 8);
        assert_eq!(g.voxel(0, 0, 1), 64);
    }

    #[test]
    fn neighbors_wrap_periodically() {
        let g = Grid::new(4, 3, 2);
        let v = g.voxel(0, 0, 0);
        assert_eq!(g.neighbor(v, (-1, 0, 0)), g.voxel(3, 0, 0));
        assert_eq!(g.neighbor(v, (0, -1, 0)), g.voxel(0, 2, 0));
        assert_eq!(g.neighbor(v, (0, 0, -1)), g.voxel(0, 0, 1));
        let w = g.voxel(3, 2, 1);
        assert_eq!(g.neighbor(w, (1, 1, 1)), g.voxel(0, 0, 0));
        // identity
        assert_eq!(g.neighbor(w, (0, 0, 0)), w);
    }

    #[test]
    fn default_dt_is_cfl_stable() {
        let g = Grid::new(10, 10, 10);
        assert!(g.dt < 1.0 / 3f32.sqrt());
    }

    #[test]
    #[should_panic(expected = "Courant")]
    fn with_dt_rejects_unstable_step() {
        let _ = Grid::new(4, 4, 4).with_dt(1.0);
    }

    #[test]
    fn rows_tile_the_grid_contiguously() {
        let g = Grid::new(4, 3, 5);
        assert_eq!(g.rows(), 15);
        let mut next = 0;
        for r in 0..g.rows() {
            let span = g.row_range(r);
            assert_eq!(span.start, next);
            assert_eq!(span.len(), g.nx);
            next = span.end;
            let (iy, iz) = g.row_coords(r);
            for (ix, v) in span.enumerate() {
                assert_eq!(g.coords(v), (ix, iy, iz));
            }
        }
        assert_eq!(next, g.cells());
    }

    #[test]
    fn row_stencil_equals_neighbor_on_both_sides() {
        for (nx, ny, nz) in [(5, 4, 3), (2, 2, 2), (1, 4, 4), (6, 1, 2), (3, 1, 1), (1, 1, 1)] {
            let g = Grid::new(nx, ny, nz);
            for (side, d) in [(StencilSide::Plus, 1), (StencilSide::Minus, -1)] {
                for r in 0..g.rows() {
                    let st = g.row_stencil(r, side);
                    assert_eq!(st.row, g.row_range(r).start);
                    for ix in 0..nx {
                        let v = st.row + ix;
                        let what = format!("{side:?} row {r} ix {ix} ({nx},{ny},{nz})");
                        assert_eq!(st.y + ix, g.neighbor(v, (0, d, 0)), "y {what}");
                        assert_eq!(st.z + ix, g.neighbor(v, (0, 0, d)), "z {what}");
                        assert_eq!(st.yz + ix, g.neighbor(v, (0, d, d)), "yz {what}");
                        // the x-neighbor the row sweeps use: the next cell,
                        // or the row's other end from its end cell
                        let end = if d == 1 { nx - 1 } else { 0 };
                        let xq = if ix == end { nx - 1 - end } else { (ix as isize + d) as usize };
                        assert_eq!(st.row + xq, g.neighbor(v, (d, 0, 0)), "x {what}");
                        assert_eq!(st.y + xq, g.neighbor(v, (d, d, 0)), "xy {what}");
                        assert_eq!(st.z + xq, g.neighbor(v, (d, 0, d)), "xz {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn six_face_neighbors() {
        let faces = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)];
        let g = Grid::new(5, 5, 5);
        let v = g.voxel(2, 2, 2);
        let n: std::collections::HashSet<usize> =
            faces.iter().map(|&d| g.neighbor(v, d)).collect();
        assert_eq!(n.len(), 6);
        assert!(!n.contains(&v));
    }
}
