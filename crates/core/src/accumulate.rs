//! Current accumulation: the fixed-point current on every Yee edge of the
//! grid, and the E advance that consumes it.
//!
//! Each within-cell trajectory segment deposits Villasenor–Buneman
//! charge-conserving current weights: 4 per component, one on each of the
//! cell's four parallel edges ([`segment_weights`]). The accumulator holds
//! one total per edge, on the voxel the edge starts at: `jx`, `jy` and
//! `jz`, 24 B per cell per lane. That is VPIC's 12-slot per-cell
//! accumulator (what `memsim::push::ACCUM_BYTES` prices) summed on the
//! grid instead, the way PIConGPU deposits: a segment's twelve weights land
//! on edges of seven voxels, its cell and the cell's `+x̂`, `+ŷ`, `+ẑ`,
//! `+x̂+ŷ`, `+x̂+ẑ` and `+ŷ+ẑ` neighbors (periodic). This scatter — many
//! particles, shared between workers — is the contention site the paper's
//! sorting algorithms target. Totals are fixed-point integers, so a writer
//! may sum a run of same-cell segments privately and add the run's twelve
//! sums once ([`RunDepositor`]), and the totals are the same bits however
//! the adds are grouped. A writer holds its lane of the buffer under a
//! [`Claim`] for as long as it deposits: the only writer of a lane (one
//! push block, or a block with a replica of its own) adds with plain loads
//! and stores, and only blocks that share the one atomic lane pay for
//! `fetch_add`.
//!
//! The totals are `charge × fractional displacement × transverse shape`.
//! A step's E advance reads them itself ([`Accumulator::advance_e_on`]):
//! row by row it takes each edge, zeroes it, converts it to current
//! density by the `1/dt` factor (unit cells) into a row buffer and adds
//! the row's `∇×B − J`, so a step keeps no J array and the
//! [`Accumulator::reset`] before the next deposits has nothing to sweep.
//! [`Accumulator::unload`] stores the same currents into the field's J
//! instead, for the outside seam that drives the kernels phase by phase.

use crate::field::{Current, FieldArray};
use crate::grid::{Grid, Site};
use pk::atomic::{Claim, FixedScatterBuf, LaneTotals, LaneWriter, ScatterMode};
use pk::{ExecSpace, Serial, Split};
use std::ops::Range;
use std::sync::atomic::AtomicI64;
use vsimd::{PushLane, Strategy, Xyz};

/// Weights per segment: 4 edges × 3 components.
pub const SLOTS: usize = 12;

/// Edge totals per cell: the x-, y- and z-edge the cell owns.
pub const EDGES: usize = 3;

/// The current on every edge of a grid, shared across push workers.
///
/// Edges accumulate in *fixed-point* (`i64`, quantum 2⁻⁴⁰ — see
/// [`FixedScatterBuf`]): integer adds are exactly associative, so edge
/// totals are bit-identical for any worker count, scatter mode, deposit
/// order, or partition of the particles — the property the multi-rank
/// halo merge (DESIGN §12) is built on.
#[derive(Debug)]
pub struct Accumulator {
    buf: FixedScatterBuf,
    cells: usize,
}

impl Accumulator {
    /// A zeroed accumulator for `cells` cells and up to `workers`
    /// concurrent writers in the given scatter mode.
    pub fn new(cells: usize, workers: usize, mode: ScatterMode) -> Self {
        Self { buf: FixedScatterBuf::new(cells * EDGES, workers, mode), cells }
    }

    /// Number of cells covered.
    pub(crate) fn cells(&self) -> usize {
        self.cells
    }

    /// The scatter mode the accumulator was built with.
    pub(crate) fn scatter_mode(&self) -> ScatterMode {
        self.buf.mode()
    }

    /// Zero every edge, each lane under a sole claim — or nothing at all
    /// when no deposit has landed since the accumulator was last zero: the
    /// unload consumes the accumulator, so a reset between an unload and
    /// the next push costs nothing. Like the other methods that take a
    /// claim for their duration ([`deposit_segment`], `set_cell_raw`), it
    /// must not be called by a thread that holds a [`RunDepositor`] on
    /// this accumulator: claims are not re-entrant, and the thread would
    /// wait for itself.
    ///
    /// [`deposit_segment`]: Accumulator::deposit_segment
    pub fn reset(&self) {
        self.buf.reset();
    }

    /// A depositor into the edges of `grid` (the grid the accumulator
    /// covers) writing on behalf of `worker`, holding `claim` on its lane
    /// (the shared one, or `worker`'s scatter replica in duplicated mode)
    /// until it is dropped — by which time everything it was given has
    /// reached the accumulator. [`Claim::Sole`] waits until no other
    /// depositor writes that lane and keeps others out, which is what lets
    /// its adds be plain; see [`pk::atomic::LaneWriter`] for what the
    /// holder must not do meanwhile.
    #[inline]
    pub fn depositor<'a>(&'a self, grid: &'a Grid, worker: usize, claim: Claim) -> RunDepositor<'a> {
        assert_eq!(grid.cells(), self.cells, "accumulator/grid mismatch");
        assert!(self.cells <= 1 << 32, "cells are u32 indices");
        RunDepositor {
            lane: self.buf.claim(worker, claim),
            grid,
            cell: 0,
            site: grid.site(0, 0, 0),
            sums: [0; SLOTS],
        }
    }

    /// Deposit one within-cell segment of `grid`.
    ///
    /// Endpoints are cell-relative offsets in `[-1, 1]`; `qw` is the
    /// particle's `charge × weight`; `worker` identifies the calling
    /// worker for the duplicated scatter mode. A run of length one
    /// through a [`RunDepositor`] under a shared claim (atomic adds), so
    /// any number of threads may call it at once — but none that holds a
    /// depositor on this accumulator (see [`Accumulator::reset`]).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn deposit_segment(
        &self,
        grid: &Grid,
        worker: usize,
        cell: usize,
        x0: f32,
        y0: f32,
        z0: f32,
        x1: f32,
        y1: f32,
        z1: f32,
        qw: f32,
    ) {
        self.depositor(grid, worker, Claim::Shared).deposit(cell, x0, y0, z0, x1, y1, z1, qw);
    }

    /// The totals of the three edges `cell` owns as raw fixed-point
    /// integers — the unit the cluster halo exchange ships between ranks.
    pub fn cell_raw(&self, cell: usize) -> [i64; EDGES] {
        std::array::from_fn(|e| self.buf.get_raw(cell * EDGES + e))
    }

    /// Overwrite the totals of `cell`'s edges with `raw` (the cluster
    /// merge: the owner's canonical cell gets its own deposits plus every
    /// holder's summed images, so its unload reads the whole current),
    /// under a sole claim on each lane in turn. Not for a thread that
    /// holds a depositor on this accumulator (see [`Accumulator::reset`]).
    pub(crate) fn set_cell_raw(&self, cell: usize, raw: &[i64; EDGES]) {
        self.buf.set_raw_run(cell * EDGES, raw);
    }

    /// Convert accumulated charge-displacements to current density, store
    /// them into the field's J arrays over whatever those held (VPIC's
    /// `unload_accumulator_array`), and leave every edge zero: the unload
    /// consumes the accumulator. The outside seam's phase; a step runs
    /// [`Accumulator::advance_e_on`].
    pub fn unload(&mut self, f: &mut FieldArray) {
        self.unload_on(&Serial, Strategy::Auto, f);
    }

    /// [`Accumulator::unload`] with the cells distributed over `space`,
    /// J sized on first use.
    ///
    /// Every edge has one total, so the unload is a stream over the cells:
    /// for each edge it takes the total, as [`Accumulator::advance_e_on`]
    /// does, and stores `(dequantize(total) × 1/dt) as f32` into J. Each J element
    /// has one writer and one rounding, so the result is bit-identical for
    /// any space, strategy or worker count, and the same bits as adding it
    /// to a cleared J: a zero total converts to `+0.0`, never `-0.0`.
    /// `vsimd` has no `f64` lane type, so `strategy` chooses nothing here.
    ///
    /// A panic part way leaves the accumulator dirty, and the next
    /// [`Accumulator::reset`] sweeps it.
    pub fn unload_on<S: ExecSpace>(&mut self, space: &S, _strategy: Strategy, f: &mut FieldArray) {
        let totals = self.totals(&f.grid, None);
        space.parallel_windows((totals, f.j_sized()), 1, |_, start, (mut totals, j)| {
            totals.take_into(start, j)
        });
        // only once every edge is zero: an unload that panicked stays dirty
        self.buf.mark_clean();
    }

    /// The step's E advance, fused with the unload: E by a full `dt` with
    /// `∂E/∂t = ∇×B − J` over `f`, J taken row by row from the edge
    /// totals, which are left zero, and `drive` added to `jz` on its
    /// cells. The field's own J is neither read nor sized.
    ///
    /// Each block of rows has a row buffer of `3·nx` floats. For each edge
    /// of a row it takes the total — the first lane's, zeroed through
    /// `AtomicI64::get_mut` (`&mut self` keeps every depositor out), then
    /// each replica's taken and added in replica order — and stores
    /// `(dequantize(total) × 1/dt) as f32`; the drive is added to that in
    /// `f32`, and the row's E update reads the buffer. Every value is the
    /// one [`Accumulator::unload_on`], the drive's add to `jz` and
    /// [`FieldArray::advance_e_on`] would give, so E is bit-identical to
    /// that seam for any space and worker count.
    ///
    /// The sum bound: summing an edge's fixed-point integers and converting
    /// once gives the bits of converting each of the edge's four weight
    /// sums and adding them in `f64` (what an unload of VPIC's per-cell
    /// slots computes) whenever every partial sum stays below 2⁵³ quanta
    /// (2¹³ in weight units), where `f64` adds of integers are exact.
    ///
    /// A panic part way leaves the accumulator dirty, and the next
    /// [`Accumulator::reset`] sweeps it.
    pub fn advance_e_on<S: ExecSpace>(&mut self, space: &S, f: &mut FieldArray, drive: Option<&Drive>) {
        let totals = self.totals(&f.grid, drive);
        f.advance_e_from(space, totals);
        self.buf.mark_clean();
    }

    /// Every edge total of `grid` (the grid the accumulator covers) as a
    /// current, with `drive`; whoever takes them all marks the buffer
    /// clean after.
    fn totals<'a>(
        &'a mut self,
        grid: &Grid,
        drive: Option<&'a Drive>,
    ) -> Totals<'a, impl Iterator<Item = LaneTotals<'a>> + Clone + Send + 'a> {
        assert_eq!(grid.cells(), self.cells, "accumulator/grid mismatch");
        // widen the same f32 constant the push's reference used
        let rdt = (1.0f32 / grid.dt) as f64;
        let (first, replicas) = self.buf.lanes_mut();
        let (cells, _) = first.as_chunks_mut::<EDGES>();
        Totals { cells, replicas, rdt, drive, ny: grid.ny }
    }
}

/// A laser antenna's current for one E advance: `value` added to `jz` on
/// the cells `x × ys × zs` — the antenna's whole plane, or the part of it
/// a rank owns.
#[derive(Debug, Clone)]
pub struct Drive {
    /// The driven current density.
    pub value: f32,
    /// The plane's x cell.
    pub x: usize,
    /// The plane's y cells.
    pub ys: Range<usize>,
    /// The plane's z cells.
    pub zs: Range<usize>,
}

/// A window of the edge totals, as current: the first lane's cells (taken
/// through `get_mut`), the replicas (taken by index), and what turns a
/// total into current density. Cut like the arrays it is bundled with,
/// in whole rows for the E advance, in cells for the unload.
struct Totals<'a, R> {
    cells: &'a mut [[AtomicI64; EDGES]],
    replicas: R,
    rdt: f64,
    /// The E advance's drive, and the grid's rows per z-plane, which
    /// place a row.
    drive: Option<&'a Drive>,
    ny: usize,
}

impl<'a, R: Iterator<Item = LaneTotals<'a>> + Clone> Totals<'a, R> {
    /// Take every edge of the window, whose first cell is `start`, and
    /// store its current into `j`, three arrays as long as the window.
    #[inline(always)]
    fn take_into(&mut self, start: usize, j: [&mut [f32]; 3]) {
        // as long as the window: `j[k]` needs no check
        let mut j = j.map(|j| &mut j[..self.cells.len()]);
        for (k, edges) in self.cells.iter_mut().enumerate() {
            for (e, (edge, j)) in edges.iter_mut().zip(&mut j).enumerate() {
                let i = (start + k) * EDGES + e;
                let raw = std::mem::take(edge.get_mut());
                let raw = self.replicas.clone().fold(raw, |sum, lane| sum.wrapping_add(lane.take(i)));
                j[k] = (FixedScatterBuf::dequantize(raw) * self.rdt) as f32;
            }
        }
    }
}

impl<'a, R: Clone + Send> Split for Totals<'a, R> {
    fn len(&self) -> usize {
        self.cells.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (head, tail) = self.cells.split_at_mut(mid);
        let replicas = self.replicas.clone();
        (Self { cells: head, replicas, ..self }, Self { cells: tail, ..self })
    }
}

/// A row's current from its totals, converted into the block's row
/// buffer, with the drive's add where the row crosses the drive's cells.
impl<'a, R: Iterator<Item = LaneTotals<'a>> + Clone + Send> Current for Totals<'a, R> {
    fn row<'b>(&'b mut self, r: usize, buf: &'b mut Vec<f32>) -> [&'b [f32]; 3] {
        let nx = self.cells.len();
        buf.resize(3 * nx, 0.0);
        let (jx, rest) = buf.split_at_mut(nx);
        let (jy, jz) = rest.split_at_mut(nx);
        self.take_into(r * nx, [&mut *jx, &mut *jy, &mut *jz]);
        let (iy, iz) = (r % self.ny, r / self.ny);
        if let Some(d) = self.drive.filter(|d| d.ys.contains(&iy) && d.zs.contains(&iz)) {
            jz[d.x] += d.value;
        }
        [jx, jy, jz]
    }
}

/// Run-coalescing writer into an [`Accumulator`]: holds the quantized
/// sums of the segments deposited so far into one cell and adds them to
/// their edges only when the target cell changes or the depositor is
/// dropped. Each segment weight is quantized exactly as a direct add
/// would quantize it and the edges sum with wrapping integer adds, so
/// regrouping the adds leaves every edge total bit-identical — for any
/// run lengths, worker count, scatter mode or claim.
#[derive(Debug)]
pub struct RunDepositor<'a> {
    /// The worker's lane, claimed for the depositor's lifetime.
    lane: LaneWriter<'a>,
    grid: &'a Grid,
    /// The open run's cell; cell 0, with nothing in it, until the first
    /// deposit.
    cell: usize,
    /// Where the open run's edges are.
    site: Site,
    /// The run's weight sums, in [`segment_weights`]' slot order.
    sums: [i64; SLOTS],
}

impl RunDepositor<'_> {
    /// Deposit one within-cell segment's twelve weights (from
    /// [`segment_weights`] or one row of the push's transposed
    /// [`lane_segment_weights`]) into `cell`'s run. Inlined always, so
    /// that it compiles into the push's AVX2 body with it; a new run opens
    /// out of line.
    #[inline(always)]
    pub(crate) fn deposit_weights(&mut self, cell: usize, w: &[f32; SLOTS]) {
        if cell != self.cell {
            self.open(cell);
        }
        add_weights(&mut self.sums, w);
    }

    /// Deposit a segment beside the open run, straight onto its edges:
    /// one the mover cut out of a cell-crossing move, in `cell` of the row
    /// at `(iy, iz)`. The weights are quantized here, in the caller's
    /// vector body, and added out of line.
    #[inline(always)]
    pub(crate) fn deposit_aside(&mut self, cell: usize, (iy, iz): (usize, usize), w: &[f32; SLOTS]) {
        let mut q = [0; SLOTS];
        add_weights(&mut q, w);
        self.scatter(cell, iy, iz, &q);
    }

    /// Deposit one within-cell segment (arguments as
    /// [`Accumulator::deposit_segment`]).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn deposit(
        &mut self,
        cell: usize,
        x0: f32,
        y0: f32,
        z0: f32,
        x1: f32,
        y1: f32,
        z1: f32,
        qw: f32,
    ) {
        self.deposit_weights(cell, &segment_weights(x0, y0, z0, x1, y1, z1, qw));
    }

    /// Hint the cache that the edges of `cell` and of the next cell in its
    /// row will be added to soon, in the cell's row and in the row up z:
    /// the one a run adds to in the plane the push has not reached. The
    /// rows up y, one row ahead in the same plane, are left to the
    /// hardware's prefetcher. A hint only: an out-of-range `cell` is
    /// ignored here and still panics at the deposit that names it.
    #[inline(always)]
    pub(crate) fn prefetch(&self, cell: usize) {
        let nxy = self.grid.nx * self.grid.ny;
        for c in [cell, cell + nxy] {
            self.lane.prefetch(c.saturating_mul(EDGES), 2 * EDGES);
        }
    }

    /// Close the open run and open one at `cell`.
    #[inline(never)]
    fn open(&mut self, cell: usize) {
        // found before the old run is added, so that a cell out of range
        // panics with the old run still held for the drop to add
        let site = self.grid.locate(self.site, cell);
        let s = std::mem::take(&mut self.sums);
        self.add(self.site, &s);
        (self.cell, self.site) = (cell, site);
    }

    /// Add one segment's quantized weights in `cell`, of the row at
    /// `(iy, iz)`, to their edges.
    #[inline(never)]
    fn scatter(&self, cell: usize, iy: usize, iz: usize, q: &[i64; SLOTS]) {
        let g = self.grid;
        let x = cell.wrapping_sub(g.nx * (iy + g.ny * iz));
        assert!(x < g.nx && iy < g.ny && iz < g.nz, "cell {cell} is not in row ({iy}, {iz})");
        self.add(g.site(x, iy, iz), q);
    }

    /// Add a run's sums `s` at `at` to their edges. Slot `s`, corner
    /// `(a, b)` of its component, goes to the edge of the cell `a` and `b`
    /// steps up the component's two transverse axes, in cyclic order (x:
    /// y, z; y: z, x; z: x, y). So the run's row, the row up y and the row
    /// up z each take a strip of six slots, the edges of their cells at `x`
    /// and `x + 1` with zeros where a slot takes nothing, and the row up
    /// both takes one slot.
    #[inline(always)]
    fn add(&self, at: Site, s: &[i64; SLOTS]) {
        let Site { x, row } = at;
        let strip = |base: usize| (base + x) * EDGES;
        if x + 1 < self.grid.nx {
            self.lane.add_raw_run(strip(row.row), &[s[0], s[4], s[8], 0, s[6], s[9]]);
            self.lane.add_raw_run(strip(row.y), &[s[1], 0, s[10], 0, 0, s[11]]);
            self.lane.add_raw_run(strip(row.z), &[s[2], s[5], 0, 0, s[7], 0]);
        } else {
            self.add_wrapped(at, s);
        }
        self.lane.add_raw_run(strip(row.yz), &[s[3]]);
    }

    /// [`RunDepositor::add`]'s strips at the end of a row, whose `x + 1`
    /// is the row's first cell.
    #[cold]
    #[inline(never)]
    fn add_wrapped(&self, Site { x, row }: Site, s: &[i64; SLOTS]) {
        for (base, strip) in [
            (row.row, [s[0], s[4], s[8], 0, s[6], s[9]]),
            (row.y, [s[1], 0, s[10], 0, 0, s[11]]),
            (row.z, [s[2], s[5], 0, 0, s[7], 0]),
        ] {
            self.lane.add_raw_run((base + x) * EDGES, &strip[..EDGES]);
            self.lane.add_raw_run(base * EDGES, &strip[EDGES..]);
        }
    }
}

impl Drop for RunDepositor<'_> {
    fn drop(&mut self) {
        self.add(self.site, &self.sums);
    }
}

/// `sums[s] += quantize(w[s])`, the weights widened to `f64` first.
#[inline(always)]
fn add_weights(sums: &mut [i64; SLOTS], w: &[f32; SLOTS]) {
    let mut vals = [0.0f64; SLOTS];
    for (v, &w) in vals.iter_mut().zip(w) {
        *v = f64::from(w);
    }
    FixedScatterBuf::add_quantized(sums, &vals);
}

/// Villasenor–Buneman weights for one within-cell segment: 12 values,
/// `[jx×4, jy×4, jz×4]`, in units of charge × fractional displacement.
/// The `f32` instantiation of `lane_segment_weights`.
#[inline]
pub fn segment_weights(
    x0: f32,
    y0: f32,
    z0: f32,
    x1: f32,
    y1: f32,
    z1: f32,
    qw: f32,
) -> [f32; SLOTS] {
    lane_segment_weights(Xyz { x: x0, y: y0, z: z0 }, Xyz { x: x1, y: y1, z: z1 }, qw)
}

/// [`segment_weights`] for one segment per lane, from `p0` to `p1`
/// (cell-relative offsets in `[-1, 1]`) with charge × weight `qw`: slot
/// `s` of lane `l`'s segment is lane `l` of `out[s]`. Exact lane ops in
/// one fixed association, so every lane width gives the scalar bits.
#[inline(always)]
pub(crate) fn lane_segment_weights<L: PushLane>(p0: Xyz<L>, p1: Xyz<L>, qw: L) -> [L; SLOTS] {
    let (half, twelve) = (L::splat(0.5), L::splat(12.0));
    let (c0, c1) = (unit(p0), unit(p1));
    let (dxi, det, dze) = (c1.x.sub(c0.x), c1.y.sub(c0.y), c1.z.sub(c0.z));
    let (mxi, met, mze) =
        (half.mul(c0.x.add(c1.x)), half.mul(c0.y.add(c1.y)), half.mul(c0.z.add(c1.z)));
    // x: transverse (η, ζ); y: (ζ, ξ); z: (ξ, η)
    let mut w = [L::splat(0.0); SLOTS];
    w[..4].copy_from_slice(&component(qw, dxi, met, mze, dxi.mul(det).mul(dze).div(twelve)));
    w[4..8].copy_from_slice(&component(qw, det, mze, mxi, det.mul(dze).mul(dxi).div(twelve)));
    w[8..].copy_from_slice(&component(qw, dze, mxi, met, dze.mul(dxi).mul(det).div(twelve)));
    w
}

/// Cell-relative offsets in `[-1, 1]` as cell coordinates in `[0, 1]`.
#[inline(always)]
fn unit<L: PushLane>(p: Xyz<L>) -> Xyz<L> {
    let (one, half) = (L::splat(1.0), L::splat(0.5));
    Xyz { x: p.x.add(one).mul(half), y: p.y.add(one).mul(half), z: p.z.add(one).mul(half) }
}

/// One component's four weights for charge × weight `qw`: displacement
/// `d` along it, midpoints `(a, b)` of its two transverse coordinates in
/// cyclic order, and the shared second-order correction with its factors
/// in that component's order.
#[inline(always)]
fn component<L: PushLane>(qw: L, d: L, a: L, b: L, corr: L) -> [L; 4] {
    let one = L::splat(1.0);
    let (na, nb) = (one.sub(a), one.sub(b));
    [
        qw.mul(d.mul(na).mul(nb).add(corr)),
        qw.mul(d.mul(a).mul(nb).sub(corr)),
        qw.mul(d.mul(na).mul(b).sub(corr)),
        qw.mul(d.mul(a).mul(b).add(corr)),
    ]
}

/// CIC (trilinear) node deposition of a charge at cell-relative offsets —
/// the charge density that pairs with the VB current for continuity
/// checks. Adds `qw × weight` to the 8 surrounding node slots of `rho`
/// (nodes indexed by their voxel).
pub fn deposit_rho_node(grid: &Grid, rho: &mut [f64], cell: usize, x: f32, y: f32, z: f32, qw: f32) {
    let (xi, et, ze) = ((x + 1.0) * 0.5, (y + 1.0) * 0.5, (z + 1.0) * 0.5);
    for (a, b, c) in [
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (1, 1, 0),
        (0, 0, 1),
        (1, 0, 1),
        (0, 1, 1),
        (1, 1, 1),
    ] {
        let wx = if a == 1 { xi } else { 1.0 - xi };
        let wy = if b == 1 { et } else { 1.0 - et };
        let wz = if c == 1 { ze } else { 1.0 - ze };
        let node = grid.neighbor(cell, (a, b, c));
        rho[node] += (qw * wx * wy * wz) as f64;
    }
}

/// Discrete node divergence of J (edges → node), for continuity checks:
/// `divJ(node v) = Σ (j(v) − j(v − ê)) / d`.
pub fn div_j_node(f: &FieldArray, v: usize) -> f64 {
    let g = &f.grid;
    let xm = g.neighbor(v, (-1, 0, 0));
    let ym = g.neighbor(v, (0, -1, 0));
    let zm = g.neighbor(v, (0, 0, -1));
    ((f.jx[v] - f.jx[xm]) / g.dx + (f.jy[v] - f.jy[ym]) / g.dy + (f.jz[v] - f.jz[zm]) / g.dz)
        as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_particle_deposits_nothing() {
        let w = segment_weights(0.3, -0.2, 0.7, 0.3, -0.2, 0.7, 5.0);
        assert!(w.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn pure_x_motion_deposits_only_jx_with_cic_shape() {
        // move along x at transverse center: all four jx edges equal
        let w = segment_weights(-0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 1.0);
        let dxi = 0.5; // half a cell
        #[allow(clippy::needless_range_loop)]
        for s in 0..4 {
            assert!((w[s] - dxi * 0.25).abs() < 1e-6, "slot {s}: {}", w[s]);
        }
        assert!(w[4..].iter().all(|&x| x == 0.0));
        // total jx equals charge × displacement
        let total: f32 = w[..4].iter().sum();
        assert!((total - dxi).abs() < 1e-6);
    }

    #[test]
    fn off_center_motion_weights_nearest_edges_more() {
        // particle near (y−, z−) corner moving in x
        let w = segment_weights(-0.5, -0.8, -0.8, 0.5, -0.8, -0.8, 1.0);
        assert!(w[0] > w[1] && w[0] > w[2] && w[0] > w[3]);
        let total: f32 = w[..4].iter().sum();
        assert!((total - 0.5).abs() < 1e-6, "shape weights sum to 1");
    }

    #[test]
    fn weights_are_charge_linear() {
        let a = segment_weights(-0.2, 0.1, -0.4, 0.3, 0.2, 0.1, 1.0);
        let b = segment_weights(-0.2, 0.1, -0.4, 0.3, 0.2, 0.1, -2.5);
        for (x, y) in a.iter().zip(&b) {
            assert!((y - (-2.5) * x).abs() < 1e-6);
        }
    }

    #[test]
    fn continuity_holds_for_within_cell_moves() {
        // Δρ + dt·divJ = 0 at every node, exactly (the VB property)
        let g = Grid::new(4, 4, 4);
        let cell = g.voxel(1, 2, 1);
        let qw = 1.7f32;
        let (x0, y0, z0) = (-0.4f32, 0.3, -0.1);
        let (x1, y1, z1) = (0.6f32, -0.5, 0.5);
        let mut rho0 = vec![0.0f64; g.cells()];
        let mut rho1 = vec![0.0f64; g.cells()];
        deposit_rho_node(&g, &mut rho0, cell, x0, y0, z0, qw);
        deposit_rho_node(&g, &mut rho1, cell, x1, y1, z1, qw);
        let mut acc = Accumulator::new(g.cells(), 1, ScatterMode::Atomic);
        acc.deposit_segment(&g, 0, cell, x0, y0, z0, x1, y1, z1, qw);
        let mut f = FieldArray::new(g.clone());
        acc.unload(&mut f);
        for v in 0..g.cells() {
            let drho_dt = (rho1[v] - rho0[v]) / g.dt as f64;
            let div = div_j_node(&f, v);
            assert!(
                (drho_dt + div).abs() < 1e-5,
                "continuity violated at node {v}: dρ/dt={drho_dt}, divJ={div}"
            );
        }
    }

    #[test]
    fn unload_routes_slots_to_correct_edges() {
        let g = Grid::new(3, 3, 3);
        let cell = g.voxel(1, 1, 1);
        let mut acc = Accumulator::new(g.cells(), 1, ScatterMode::Atomic);
        // x-motion at the (y+, z+) corner → only slot 3 → edge (i+½, j+1, k+1)
        acc.deposit_segment(&g, 0, cell, -0.5, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0);
        let mut f = FieldArray::new(g.clone());
        acc.unload(&mut f);
        let expected_edge = g.neighbor(cell, (0, 1, 1));
        assert!(f.jx[expected_edge] > 0.0);
        let nonzero = f.jx.iter().filter(|&&x| x != 0.0).count();
        assert_eq!(nonzero, 1, "only the corner edge receives current");
    }

    #[test]
    fn opposite_motions_cancel() {
        let g = Grid::new(3, 3, 3);
        let mut acc = Accumulator::new(g.cells(), 1, ScatterMode::Atomic);
        let cell = 5;
        acc.deposit_segment(&g, 0, cell, -0.5, 0.2, 0.2, 0.5, 0.2, 0.2, 1.0);
        acc.deposit_segment(&g, 0, cell, 0.5, 0.2, 0.2, -0.5, 0.2, 0.2, 1.0);
        let mut f = FieldArray::new(g);
        acc.unload(&mut f);
        assert!(f.jx.iter().all(|&x| x.abs() < 1e-7));
    }

    /// The grids the edge tests run on: a dimension of one cell (a row
    /// that is its own y and z neighbor), of two, and a general one.
    const GRIDS: [(usize, usize, usize); 4] = [(1, 4, 4), (2, 2, 2), (3, 1, 1), (5, 4, 3)];

    /// One segment's weights, from a seed.
    fn weights(seed: usize) -> [f32; SLOTS] {
        let t = seed as f32 * 0.37;
        let (a, b) = (t.sin(), t.cos());
        segment_weights(-0.4 + 0.1 * a, 0.3 * b, -0.2, 0.5 * b, -0.3 * a, 0.4 * b, 1.0 + 0.5 * a)
    }

    /// A deposit sequence over `g`: `(cell, weights, aside)`, where an
    /// aside segment goes through [`RunDepositor::deposit_aside`]. Runs of
    /// one to three segments visit every cell in order — runs move to the
    /// next cell of a row, leave a row from its end and, on the plus
    /// faces, put weight on edges that wrap — then every third cell in
    /// reverse, two cells apart (runs skip along a row, and step back);
    /// every other segment has a crossing segment beside it, in the run's
    /// cell or a face neighbor.
    fn deposits(g: &Grid) -> Vec<(usize, [f32; SLOTS], bool)> {
        let forward = 0..g.cells();
        let back = (0..g.cells()).rev().step_by(3).flat_map(|c| [c, c.saturating_sub(2)]);
        let mut out = Vec::new();
        for (k, cell) in forward.chain(back).enumerate() {
            for r in 0..1 + k % 3 {
                let seed = out.len();
                out.push((cell, weights(seed), false));
                if (k + r) % 2 == 0 {
                    let faces = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, -1)];
                    out.push((g.neighbor(cell, faces[seed % 5]), weights(seed + 7), true));
                }
            }
        }
        out
    }

    /// Every weight quantized and added to its edge on its own, the edge
    /// found through [`Grid::neighbor`]: corner `(a, b)` of x is the
    /// x-edge of the cell `(0, a, b)` away, of y the y-edge `(b, 0, a)`
    /// away, of z the z-edge `(a, b, 0)` away.
    fn edge_reference(g: &Grid, deposits: &[(usize, [f32; SLOTS], bool)]) -> Vec<[i64; EDGES]> {
        let mut edges = vec![[0i64; EDGES]; g.cells()];
        for (cell, w, _) in deposits {
            for (s, &(a, b)) in [(0, 0), (1, 0), (0, 1), (1, 1)].iter().cycle().take(SLOTS).enumerate() {
                let to = [(0, a, b), (b, 0, a), (a, b, 0)][s / 4];
                let raw = FixedScatterBuf::quantize(f64::from(w[s]));
                let edge = &mut edges[g.neighbor(*cell, to)][s / 4];
                *edge = edge.wrapping_add(raw);
            }
        }
        edges
    }

    /// `deposits` into a new accumulator: one depositor on `Serial`, or
    /// on `threads` one per block of the sequence, the block index its
    /// worker id — claims as the push takes them.
    fn deposited(
        g: &Grid,
        mode: ScatterMode,
        threads: Option<&pk::Threads>,
        deposits: &[(usize, [f32; SLOTS], bool)],
    ) -> Accumulator {
        let workers = threads.map_or(1, |t| t.concurrency());
        let acc = Accumulator::new(g.cells(), workers, mode);
        let deposit = |worker: usize, claim: Claim, block: &[(usize, [f32; SLOTS], bool)]| {
            let mut dep = acc.depositor(g, worker, claim);
            for (cell, w, aside) in block {
                if *aside {
                    let (_, iy, iz) = g.coords(*cell);
                    dep.deposit_aside(*cell, (iy, iz), w);
                } else {
                    dep.deposit_weights(*cell, w);
                }
            }
        };
        match threads {
            None => deposit(0, Claim::Sole, deposits),
            Some(threads) => {
                let claim = if mode == ScatterMode::Atomic && workers > 1 { Claim::Shared } else { Claim::Sole };
                let block = deposits.len().div_ceil(workers);
                threads.parallel_for(workers, |w| {
                    deposit(w, claim, &deposits[(w * block).min(deposits.len())..((w + 1) * block).min(deposits.len())])
                });
            }
        }
        acc
    }

    fn j_bits(f: &FieldArray) -> Vec<u32> {
        f.jx.iter().chain(&f.jy).chain(&f.jz).map(|j| j.to_bits()).collect()
    }

    /// Every edge of every lane, by raw value.
    fn lane_raws(acc: &Accumulator) -> Vec<i64> {
        acc.buf.lane_totals().flat_map(|lane| (0..acc.cells * EDGES).map(move |i| lane.raw(i))).collect()
    }

    #[test]
    fn the_depositor_matches_the_edge_by_edge_reference() {
        for (nx, ny, nz) in GRIDS {
            let g = Grid::new(nx, ny, nz);
            let deposits = deposits(&g);
            assert!(deposits.iter().any(|d| d.2) && deposits.iter().any(|d| !d.2));
            let reference = edge_reference(&g, &deposits);
            for mode in [ScatterMode::Atomic, ScatterMode::Duplicated] {
                let what = format!("({nx},{ny},{nz}) {mode:?}");
                let totals = |acc: &Accumulator| (0..g.cells()).map(|c| acc.cell_raw(c)).collect::<Vec<_>>();
                assert_eq!(totals(&deposited(&g, mode, None, &deposits)), reference, "serial {what}");
                for lanes in [1, 2, 4, 7] {
                    let threads = pk::Threads::new(lanes);
                    let acc = deposited(&g, mode, Some(&threads), &deposits);
                    assert_eq!(totals(&acc), reference, "{lanes} threads {what}");
                }
            }
        }
    }

    #[test]
    fn the_unload_takes_every_edge_once_on_every_schedule() {
        for (nx, ny, nz) in GRIDS {
            let g = Grid::new(nx, ny, nz);
            let deposits = deposits(&g);
            // stale J the unload overwrites, not zero
            let mut start = FieldArray::new(g.clone());
            start.clear_j_on(&Serial);
            for v in 0..g.cells() {
                (start.jx[v], start.jy[v], start.jz[v]) = (v as f32 * 0.25, -1.5, 1.0 / (v + 1) as f32);
            }
            let rdt = (1.0f32 / g.dt) as f64;
            let mut reference = start.clone();
            for (v, edges) in edge_reference(&g, &deposits).iter().enumerate() {
                for (j, &raw) in [&mut reference.jx, &mut reference.jy, &mut reference.jz].into_iter().zip(edges) {
                    j[v] = (FixedScatterBuf::dequantize(raw) * rdt) as f32;
                }
            }
            for mode in [ScatterMode::Atomic, ScatterMode::Duplicated] {
                for lanes in [1, 2, 4, 7] {
                    let threads = pk::Threads::new(lanes);
                    let check = |space: &str, unload: &dyn Fn(&mut Accumulator, &mut FieldArray)| {
                        let what = format!("{space} ({nx},{ny},{nz}) {mode:?} × {lanes}");
                        let mut acc = deposited(&g, mode, Some(&threads), &deposits);
                        assert!(lane_raws(&acc).iter().any(|&r| r != 0), "{what}: nothing deposited");
                        let mut f = start.clone();
                        unload(&mut acc, &mut f);
                        assert_eq!(j_bits(&reference), j_bits(&f), "{what}: J");
                        assert!(lane_raws(&acc).iter().all(|&r| r == 0), "{what}: an edge survived");
                        assert!(!acc.buf.is_dirty(), "{what}: still dirty");
                    };
                    check("serial", &|acc, f| acc.unload_on(&Serial, Strategy::default(), f));
                    check("threads", &|acc, f| acc.unload_on(&threads, Strategy::default(), f));
                }
            }
        }
    }

    /// `sim`'s particles pushed from its fields into a new accumulator of
    /// `replicas` lanes in `mode` on `space`, as a step's push deposits
    /// them, and a copy of the fields.
    fn deposited_from<S: ExecSpace>(
        sim: &crate::Simulation,
        space: &S,
        mode: ScatterMode,
        replicas: usize,
    ) -> (FieldArray, Accumulator) {
        let interps = crate::interp::load_interpolators(&sim.fields);
        let acc = Accumulator::new(sim.grid.cells(), replicas, mode);
        for s in &sim.species {
            let mut s = s.clone();
            crate::push::push_species_on(space, Strategy::default(), &sim.grid, &mut s, &interps, &acc);
        }
        (sim.fields.clone(), acc)
    }

    /// On `space`, over the deposits of a Weibel and an LPI state three
    /// steps in, in each scatter mode: the fused pass against the seam's
    /// unload, the drive's add to `jz` and E advance — E and B the same
    /// bits, every edge of every lane taken, and J never sized — with no
    /// drive, the antenna's plane at x = 0 and inside, and a rank's owned
    /// rows of a plane (its box of y and z, the halo rows left out).
    fn the_fused_e_advance_matches_the_seam_on<S: ExecSpace>(space: &S, name: &str) {
        for deck in [crate::Deck::weibel(6, 6, 6, 4, 0.3), crate::Deck::lpi(12, 4, 4, 2)] {
            let mut sim = deck.build();
            sim.run(3);
            let g = sim.grid.clone();
            let drives = [
                None,
                Some(Drive { value: 0.375, x: 0, ys: 0..g.ny, zs: 0..g.nz }),
                Some(Drive { value: -1.25, x: g.nx / 2, ys: 0..g.ny, zs: 0..g.nz }),
                Some(Drive { value: 0.5, x: g.nx - 2, ys: 1..g.ny - 1, zs: 1..g.nz - 1 }),
            ];
            for (mode, replicas) in [(ScatterMode::Atomic, 1), (ScatterMode::Duplicated, 2), (ScatterMode::Duplicated, 3)] {
                for drive in &drives {
                    let what = format!("{name}, {} {mode:?} × {replicas}, {drive:?}", deck.name);
                    let (mut seam, mut acc) = deposited_from(&sim, space, mode, replicas);
                    acc.unload_on(space, Strategy::default(), &mut seam);
                    if let Some(d) = drive {
                        for (iy, iz) in d.ys.clone().flat_map(|iy| d.zs.clone().map(move |iz| (iy, iz))) {
                            seam.jz[g.voxel(d.x, iy, iz)] += d.value;
                        }
                    }
                    seam.advance_e_on(space, Strategy::default());
                    let (mut fused, mut acc) = deposited_from(&sim, space, mode, replicas);
                    assert!(lane_raws(&acc).iter().any(|&r| r != 0), "{what}: nothing deposited");
                    acc.advance_e_on(space, &mut fused, drive.as_ref());
                    let diff = crate::sim::floats_diff(&FieldArray::NAMES, &seam.arrays(), &fused.arrays());
                    assert_eq!(diff, None, "{what}");
                    assert!(lane_raws(&acc).iter().all(|&r| r == 0), "{what}: an edge survived");
                    assert!(!acc.buf.is_dirty(), "{what}: still dirty");
                    assert_eq!(fused.jz.capacity(), 0, "{what}: J was sized");
                }
            }
        }
    }

    #[test]
    fn the_fused_e_advance_matches_the_seam_on_every_space() {
        the_fused_e_advance_matches_the_seam_on(&Serial, "Serial");
        let gpu = memsim::platform::gpus().swap_remove(0);
        the_fused_e_advance_matches_the_seam_on(&pk::SimGpu::scaled(gpu, 1.0), "SimGpu");
        for lanes in 1..=3 {
            the_fused_e_advance_matches_the_seam_on(&pk::Threads::new(lanes), &format!("{lanes} threads"));
        }
    }

    /// A deck-independent deposit pattern touching every cell.
    fn seeded_accumulator(g: &Grid, workers: usize, mode: ScatterMode) -> Accumulator {
        let acc = Accumulator::new(g.cells(), workers, mode);
        for cell in 0..g.cells() {
            let t = cell as f32 * 0.37;
            let (a, b) = (t.sin(), t.cos());
            acc.deposit_segment(g, cell % workers, cell, -0.4 + 0.1 * a, 0.3 * b, -0.2, 0.5, -0.3 * a, 0.4 * b, 1.0);
        }
        acc
    }

    #[test]
    fn a_write_after_a_consuming_unload_makes_the_next_reset_sweep() {
        let g = Grid::new(3, 2, 2);
        for what in ["claim", "set_cell_raw"] {
            let mut acc = seeded_accumulator(&g, 2, ScatterMode::Duplicated);
            acc.unload(&mut FieldArray::new(g.clone()));
            if what == "claim" {
                acc.deposit_segment(&g, 1, 4, -0.5, 0.1, 0.2, 0.5, 0.3, -0.1, 1.0);
            } else {
                acc.set_cell_raw(4, &[-5, 1, 3]);
            }
            assert!(acc.buf.is_dirty(), "{what}");
            assert_ne!(acc.cell_raw(4), [0; EDGES], "{what}");
            acc.reset();
            assert!(lane_raws(&acc).iter().all(|&r| r == 0), "{what}: the reset did not sweep");
        }
    }

    #[test]
    fn reset_of_a_clean_accumulator_leaves_it_untouched() {
        // a new accumulator, and one the unload consumed: neither holds a
        // deposit, and a reset finds both clean and leaves them so
        let g = Grid::new(4, 3, 2);
        let mut consumed = seeded_accumulator(&g, 2, ScatterMode::Duplicated);
        consumed.unload(&mut FieldArray::new(g.clone()));
        for acc in [Accumulator::new(g.cells(), 2, ScatterMode::Duplicated), consumed] {
            assert!(!acc.buf.is_dirty());
            acc.reset();
            assert!(!acc.buf.is_dirty());
            assert!(lane_raws(&acc).iter().all(|&r| r == 0));
        }
    }

    #[test]
    fn reset_clears_everything() {
        let g = Grid::new(2, 2, 2);
        let acc = Accumulator::new(g.cells(), 2, ScatterMode::Duplicated);
        acc.deposit_segment(&g, 1, 0, -0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 1.0);
        assert_ne!(acc.cell_raw(0)[0], 0);
        acc.reset();
        assert!(lane_raws(&acc).iter().all(|&r| r == 0));
    }

    /// A corrupt cell index must panic at the deposit that carries it (in
    /// release builds too): `Simulation::try_step_on` turns that panic in
    /// a pool lane into a typed `StepError`, and a depositor that swallowed
    /// the segment would lose charge silently.
    #[test]
    #[should_panic(expected = "out of range")]
    fn depositing_outside_the_accumulator_panics() {
        let g = Grid::new(2, 2, 2);
        let acc = Accumulator::new(g.cells(), 1, ScatterMode::Atomic);
        let mut dep = acc.depositor(&g, 0, Claim::Sole);
        dep.deposit(3, -0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 1.0);
        dep.deposit(8, -0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 1.0);
    }
}
