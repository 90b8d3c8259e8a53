//! Current accumulation: VPIC's 12-slot per-cell accumulator and its
//! unload into the Yee current arrays.
//!
//! Each within-cell trajectory segment deposits Villasenor–Buneman
//! charge-conserving current weights: 4 slots per component (the four
//! parallel edges of the cell). This scatter — many particles, cell-
//! indexed, shared between workers — is the contention site the paper's
//! sorting algorithms target; its memory footprint is what
//! `memsim::push::ACCUM_BYTES` models. Slots are fixed-point integers,
//! so a writer may sum a run of same-cell segments privately and add the
//! run's twelve totals once ([`RunDepositor`]), and the totals are the
//! same bits however the adds are grouped. A writer holds its lane of
//! the buffer under a [`Claim`] for as long as it deposits: the only
//! writer of a lane (one push block, or a block with a replica of its
//! own) adds with plain loads and stores, and only blocks that share the
//! one atomic lane pay for `fetch_add`.
//!
//! The accumulator stores `charge × fractional displacement × transverse
//! shape`; [`Accumulator::unload`] converts to current density by the
//! `1/dt` factor (unit cells) and adds each slot to its Yee edge. It is
//! an edge-owned gather that reads the fixed-point lanes where they lie
//! (VPIC's `unload_accumulator_array` reads the accumulator it is given,
//! once): no dequantized copy of the slots is made first. The unload
//! consumes the accumulator: the last gather row to read a grid row zeroes
//! it while it is still in cache, so the [`Accumulator::reset`] before the
//! next deposits has nothing to sweep.

use crate::field::FieldArray;
use crate::grid::{Grid, RowStencil, StencilSide};
use pk::atomic::{Claim, FixedScatterBuf, LaneWriter, ScatterMode};
use pk::{ExecSpace, SendPtr, Serial};
use std::sync::atomic::{AtomicU8, Ordering};
use vsimd::{PushLane, Strategy, Xyz};

/// Accumulator slots per cell: 4 edges × 3 components.
pub const SLOTS: usize = 12;

/// The per-cell current accumulator, shared across push workers.
///
/// Slots accumulate in *fixed-point* (`i64`, quantum 2⁻⁴⁰ — see
/// [`FixedScatterBuf`]): integer adds are exactly associative, so slot
/// totals are bit-identical for any worker count, scatter mode, deposit
/// order, or partition of the particles — the property the multi-rank
/// halo merge (DESIGN §12) is built on.
#[derive(Debug)]
pub struct Accumulator {
    buf: FixedScatterBuf,
    cells: usize,
    /// Per grid row, how many gather rows of the running unload have yet
    /// to read it: step-persistent scratch, sized at the first unload.
    unread: Vec<AtomicU8>,
}

impl Accumulator {
    /// A zeroed accumulator for `cells` cells and up to `workers`
    /// concurrent writers in the given scatter mode.
    pub fn new(cells: usize, workers: usize, mode: ScatterMode) -> Self {
        Self { buf: FixedScatterBuf::new(cells * SLOTS, workers, mode), cells, unread: Vec::new() }
    }

    /// Number of cells covered.
    pub(crate) fn cells(&self) -> usize {
        self.cells
    }

    /// The scatter mode the accumulator was built with.
    pub(crate) fn scatter_mode(&self) -> ScatterMode {
        self.buf.mode()
    }

    /// Zero all slots, each lane under a sole claim — or nothing at all
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

    /// Capacity of the unload's one step-persistent scratch, the per-row
    /// countdown, for no-alloc-after-warmup assertions.
    pub(crate) fn unload_scratch_capacity(&self) -> usize {
        self.unread.capacity()
    }

    /// A depositor writing on behalf of `worker`, holding `claim` on its
    /// lane (the shared one, or `worker`'s scatter replica in duplicated
    /// mode) until it is dropped — by which time everything it was given
    /// has reached the accumulator. [`Claim::Sole`] waits until no other
    /// depositor writes that lane and keeps others out, which is what
    /// lets its adds be plain; see [`pk::atomic::LaneWriter`] for what
    /// the holder must not do meanwhile.
    #[inline]
    pub fn depositor(&self, worker: usize, claim: Claim) -> RunDepositor<'_> {
        RunDepositor { lane: self.buf.claim(worker, claim), run: None, sums: [0; SLOTS] }
    }

    /// Deposit one within-cell segment.
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
        self.depositor(worker, Claim::Shared).deposit(cell, x0, y0, z0, x1, y1, z1, qw);
    }

    /// Raw slot value.
    #[cfg(test)]
    fn slot(&self, cell: usize, slot: usize) -> f64 {
        self.buf.get(cell * SLOTS + slot)
    }

    /// One cell's twelve slot totals as raw fixed-point integers — the
    /// unit the cluster halo exchange ships between ranks.
    pub fn cell_raw(&self, cell: usize) -> [i64; SLOTS] {
        let base = cell * SLOTS;
        std::array::from_fn(|s| self.buf.get_raw(base + s))
    }

    /// Wrapping-add raw fixed-point slot values into a cell (halo
    /// *reduce*: a neighbor's halo-shell deposits merged into the owner),
    /// atomically under one shared claim — a merge that met a push would
    /// wait for it or add beside it, never interleave with plain adds.
    /// Not for a thread that holds a depositor on this accumulator (see
    /// [`Accumulator::reset`]).
    #[cfg(test)]
    fn merge_cell_raw(&self, cell: usize, raw: &[i64; SLOTS]) {
        self.buf.claim(0, Claim::Shared).add_raw_run(cell * SLOTS, raw);
    }

    /// Overwrite a cell's slot totals with the owner's merged values
    /// (halo *fill*: boundary-cell totals broadcast back into neighbors'
    /// halo shells so their minus-side unload gathers see merged data),
    /// under a sole claim on each lane in turn. Not for a thread that
    /// holds a depositor on this accumulator (see [`Accumulator::reset`]).
    pub(crate) fn set_cell_raw(&self, cell: usize, raw: &[i64; SLOTS]) {
        self.buf.set_raw_run(cell * SLOTS, raw);
    }

    /// Convert accumulated charge-displacements to current density, add
    /// into the field's J arrays (VPIC's `unload_accumulator_array`), and
    /// leave every slot zero: the unload consumes the accumulator.
    ///
    /// Cell `v`'s slot `(a, b)` of the x-component belongs to the Yee
    /// x-edge of voxel `v + a·ŷ + b·ẑ` (periodic), and similarly for the
    /// cyclic y and z components.
    pub fn unload(&mut self, f: &mut FieldArray) {
        self.unload_on(&Serial, Strategy::Auto, f);
    }

    /// [`Accumulator::unload`] with the row sweep distributed over `space`.
    ///
    /// Determinism needs edge *ownership*: the scatter order (each cell
    /// pushing to neighboring edges) would race and round in worker-
    /// dependent order, so this kernel inverts it into a gather — edge `e`
    /// pulls its four x-contributions from cells `e − a·ŷ − b·ẑ` (slot
    /// `s`), cyclically for y and z, sums them in fixed slot order in
    /// `f64`, and applies one rounding. Every edge has exactly one writer,
    /// so the result is bit-identical for any space, strategy, or worker
    /// count.
    ///
    /// The slots are read straight from the buffer's lanes — each one's
    /// raw total (replicas added in replica order) dequantized where it is
    /// used — so there is no serial reduce before the parallel rows and no
    /// copy of the accumulator. The gather is `f64` and `vsimd` has no
    /// `f64` lane type, so there is one fused loop and `strategy` does not
    /// choose anything here.
    ///
    /// The unload consumes the accumulator. A gather row reads four grid
    /// rows (its minus-side stencil), and each grid row is read by a fixed
    /// number of distinct gather rows. A per-row countdown counts those
    /// readers down as their edges finish, and the reader that takes it to
    /// zero zeroes the row in every lane — about `ny + 1` rows after its
    /// first reader in a serial sweep, so the row is still in cache. Every
    /// slot is read before it is zeroed, whatever the schedule, so J is
    /// what a non-consuming gather gives; a panic part way leaves the
    /// accumulator dirty, and the next [`Accumulator::reset`] sweeps it.
    pub fn unload_on<S: ExecSpace>(&mut self, space: &S, _strategy: Strategy, f: &mut FieldArray) {
        let g = &f.grid;
        assert_eq!(g.cells(), self.cells, "accumulator/grid mismatch");
        // a row's readers are the rows one step up y, up z and up both,
        // and itself; along a dimension of one cell they coincide
        let readers = (1 + u8::from(g.ny > 1)) * (1 + u8::from(g.nz > 1));
        self.unread.resize_with(g.rows(), AtomicU8::default);
        for n in &mut self.unread {
            *n.get_mut() = readers;
        }
        let (buf, unread, nx) = (&self.buf, &self.unread[..], g.nx);
        let consume = move |st: RowStencil| {
            let bases = [st.row, st.y, st.z, st.yz];
            for (k, &base) in bases.iter().enumerate() {
                // a row the stencil names twice counts down once
                if bases[..k].contains(&base) {
                    continue;
                }
                if unread[base / nx].fetch_sub(1, Ordering::AcqRel) == 1 {
                    // SAFETY: this is the row's last reader. Each other reader
                    // counted down after its reads (release) and this
                    // decrement acquired them all, so every read of the row
                    // happens before these writes; `&mut self` keeps every
                    // other user of the buffer out until the sweep returns.
                    unsafe { buf.zero_run(base * SLOTS..(base + nx) * SLOTS) };
                }
            }
        };
        {
            let mut lanes = self.buf.lane_totals();
            let first = lanes.next().expect("a buffer has at least one lane");
            // counted here, once, so the cell loop of a buffer without
            // replicas has no replica loop in it
            if lanes.len() == 0 {
                gather_rows(space, f, |i| first.raw(i), consume);
            } else {
                gather_rows(
                    space,
                    f,
                    |i| lanes.clone().fold(first.raw(i), |sum, lane| sum.wrapping_add(lane.raw(i))),
                    consume,
                );
            }
        }
        // only once every row is zero: an unload that panicked stays dirty
        self.buf.mark_clean();
    }
}

/// The unload's row sweep over slot totals read through `raw`, handing
/// each row's stencil to `gathered` once its edges are written.
fn gather_rows<S: ExecSpace>(
    space: &S,
    f: &mut FieldArray,
    raw: impl Fn(usize) -> i64 + Sync,
    gathered: impl Fn(RowStencil) + Sync,
) {
    let FieldArray { grid: g, jx, jy, jz, .. } = f;
    // widen the same f32 constant the scatter reference uses
    let rdt = (1.0f32 / g.dt) as f64;
    let nx = g.nx;
    let pjx = SendPtr::new(jx.as_mut_ptr());
    let pjy = SendPtr::new(jy.as_mut_ptr());
    let pjz = SendPtr::new(jz.as_mut_ptr());
    let (g, raw, gathered) = (&*g, &raw, &gathered);
    space.parallel_for(g.rows(), move |r| {
        let st = g.row_stencil(r, StencilSide::Minus);
        // SAFETY: rows are disjoint; this invocation exclusively owns
        // row `r`'s span of each J array.
        let [jxr, jyr, jzr] = [pjx, pjy, pjz]
            .map(|p| unsafe { std::slice::from_raw_parts_mut(p.get().add(st.row), nx) });
        // the three edges cell `x` of the row owns, its −x neighbor being
        // cell `xm`; `slot(base, x, s)` is slot `s` of cell `x` of the row
        // based at `base`
        let mut edges = |x: usize, xm: usize| {
            let slot = |base: usize, x: usize, s: usize| {
                FixedScatterBuf::dequantize(raw((base + x) * SLOTS + s))
            };
            let gx = slot(st.row, x, 0) + slot(st.y, x, 1) + slot(st.z, x, 2) + slot(st.yz, x, 3);
            let gy = slot(st.row, x, 4) + slot(st.z, x, 5) + slot(st.row, xm, 6) + slot(st.z, xm, 7);
            let gz = slot(st.row, x, 8) + slot(st.row, xm, 9) + slot(st.y, x, 10) + slot(st.y, xm, 11);
            jxr[x] += (gx * rdt) as f32;
            jyr[x] += (gy * rdt) as f32;
            jzr[x] += (gz * rdt) as f32;
        };
        for x in 1..nx {
            edges(x, x - 1);
        }
        // the end cell's −x neighbor is the row's last cell
        edges(0, nx - 1);
        gathered(st);
    });
}

/// Run-coalescing writer into an [`Accumulator`]: holds the quantized
/// sums of the segments deposited so far into one cell and adds them to
/// the accumulator only when the target cell changes or the depositor is
/// dropped. Each segment weight is quantized exactly as a direct add
/// would quantize it and the slots sum with wrapping integer adds, so
/// regrouping the adds leaves every slot total bit-identical — for any
/// run lengths, worker count, scatter mode or claim.
#[derive(Debug)]
pub struct RunDepositor<'a> {
    /// The worker's lane, claimed for the depositor's lifetime.
    lane: LaneWriter<'a>,
    /// The open run's cell, checked against the lane when the run opens
    /// so an out-of-range cell panics at the deposit that names it.
    /// `None` until the first deposit.
    run: Option<usize>,
    sums: [i64; SLOTS],
}

impl RunDepositor<'_> {
    /// Deposit one within-cell segment's twelve weights (from
    /// [`segment_weights`] or one row of the push's transposed
    /// [`lane_segment_weights`]) into `cell` — the one way in. Inlined
    /// always, so that it compiles into the push's AVX2 body with it.
    #[inline(always)]
    pub(crate) fn deposit_weights(&mut self, cell: usize, w: &[f32; SLOTS]) {
        if self.run != Some(cell) {
            self.flush();
            let cells = self.lane.len() / SLOTS;
            assert!(cell < cells, "cell {cell} out of range for an accumulator of {cells} cells");
            self.run = Some(cell);
        }
        let mut vals = [0.0f64; SLOTS];
        for (v, &w) in vals.iter_mut().zip(w) {
            *v = f64::from(w);
        }
        FixedScatterBuf::add_quantized(&mut self.sums, &vals);
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

    /// Hint the cache that `cell`'s twelve slots in this depositor's lane
    /// will be added to soon. A hint only: an out-of-range `cell` is
    /// ignored here and still panics at the deposit that names it.
    #[inline(always)]
    pub(crate) fn prefetch(&self, cell: usize) {
        self.lane.prefetch(cell.saturating_mul(SLOTS), SLOTS);
    }

    /// Add the pending run to the accumulator: plain adds on a lane
    /// held alone, `fetch_add` on a shared one.
    #[inline]
    fn flush(&mut self) {
        let Some(cell) = self.run else { return };
        self.lane.add_raw_run(cell * SLOTS, &self.sums);
        self.sums = [0; SLOTS];
    }
}

impl Drop for RunDepositor<'_> {
    fn drop(&mut self) {
        self.flush();
    }
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
        acc.deposit_segment(0, cell, x0, y0, z0, x1, y1, z1, qw);
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
        acc.deposit_segment(0, cell, -0.5, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0);
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
        acc.deposit_segment(0, cell, -0.5, 0.2, 0.2, 0.5, 0.2, 0.2, 1.0);
        acc.deposit_segment(0, cell, 0.5, 0.2, 0.2, -0.5, 0.2, 0.2, 1.0);
        let mut f = FieldArray::new(g);
        acc.unload(&mut f);
        assert!(f.jx.iter().all(|&x| x.abs() < 1e-7));
    }

    /// A deck-independent deposit pattern touching every cell.
    fn seeded_accumulator(g: &Grid, workers: usize, mode: ScatterMode) -> Accumulator {
        let acc = Accumulator::new(g.cells(), workers, mode);
        for cell in 0..g.cells() {
            let t = cell as f32 * 0.37;
            acc.deposit_segment(
                cell % workers.max(1),
                cell,
                -0.4 + 0.1 * t.sin(),
                0.3 * t.cos(),
                -0.2,
                0.5,
                -0.3 * t.sin(),
                0.4 * t.cos(),
                1.0 + 0.5 * t.sin(),
            );
        }
        acc
    }

    /// Transverse corner order shared by deposit and unload:
    /// `(0,0), (1,0), (0,1), (1,1)` in the component's cyclic transverse dims.
    const CORNERS: [(isize, isize); 4] = [(0, 0), (1, 0), (0, 1), (1, 1)];

    /// The historical scatter-order unload, kept as the value oracle: for
    /// every cell it pushes each slot outward to its edge. Its f32 adds
    /// happen in cell order, so its rounding differs (by ulps) from the
    /// gather-order [`Accumulator::unload_on`] — compare with a tolerance,
    /// not bitwise. Reduces the buffer into a fresh vector on every call,
    /// which the gather never does.
    fn unload_scatter_ref(acc: &Accumulator, f: &mut FieldArray) {
        let FieldArray { grid: g, jx, jy, jz, .. } = f;
        assert_eq!(g.cells(), acc.cells, "accumulator/grid mismatch");
        let rdt = 1.0 / g.dt;
        let vals = acc.buf.collect();
        for v in 0..acc.cells {
            let base = v * SLOTS;
            for (s, (a, b)) in CORNERS.iter().enumerate() {
                let jx_edge = g.neighbor(v, (0, *a, *b));
                let jy_edge = g.neighbor(v, (*b, 0, *a));
                let jz_edge = g.neighbor(v, (*a, *b, 0));
                jx[jx_edge] += (vals[base + s] * rdt as f64) as f32;
                jy[jy_edge] += (vals[base + 4 + s] * rdt as f64) as f32;
                jz[jz_edge] += (vals[base + 8 + s] * rdt as f64) as f32;
            }
        }
    }

    #[test]
    fn gather_unload_matches_scatter_reference_within_rounding() {
        for (nx, ny, nz) in [(5, 4, 3), (2, 2, 2), (1, 4, 4), (6, 1, 2), (1, 1, 1)] {
            let g = Grid::new(nx, ny, nz);
            let mut acc = seeded_accumulator(&g, 1, ScatterMode::Atomic);
            let mut scatter = FieldArray::new(g.clone());
            unload_scatter_ref(&acc, &mut scatter);
            let mut gather = FieldArray::new(g.clone());
            acc.unload(&mut gather);
            for v in 0..g.cells() {
                for (name, a, b) in [
                    ("jx", scatter.jx[v], gather.jx[v]),
                    ("jy", scatter.jy[v], gather.jy[v]),
                    ("jz", scatter.jz[v], gather.jz[v]),
                ] {
                    assert!(
                        (a - b).abs() <= 1e-5 * a.abs().max(1.0),
                        "{name}[{v}] scatter {a} vs gather {b} ({nx},{ny},{nz})"
                    );
                }
            }
        }
    }

    #[test]
    fn gather_unload_bit_identical_across_spaces_and_strategies() {
        let g = Grid::new(5, 4, 3);
        // a fresh accumulator per unload: the unload consumes it
        let seeded = || seeded_accumulator(&g, 3, ScatterMode::Duplicated);
        let mut reference = FieldArray::new(g.clone());
        seeded().unload(&mut reference);
        for strategy in Strategy::ALL {
            for workers in [1, 2, 4, 7] {
                let threads = pk::Threads::new(workers);
                let mut f = FieldArray::new(g.clone());
                seeded().unload_on(&threads, strategy, &mut f);
                assert_eq!(reference.jx, f.jx, "{strategy:?} {workers} workers");
                assert_eq!(reference.jy, f.jy, "{strategy:?} {workers} workers");
                assert_eq!(reference.jz, f.jz, "{strategy:?} {workers} workers");
            }
        }
    }

    /// The gather spelled out edge by edge: every source cell through
    /// [`Grid::neighbor`], every slot total dequantized on its own
    /// ([`Accumulator::slot`]) and the four summed in slot order in `f64`.
    fn unload_edge_ref(acc: &Accumulator, f: &mut FieldArray) {
        let g = f.grid.clone();
        let rdt = (1.0f32 / g.dt) as f64;
        for v in 0..g.cells() {
            let (mut gx, mut gy, mut gz) = (0.0f64, 0.0f64, 0.0f64);
            for (s, (a, b)) in CORNERS.iter().enumerate() {
                gx += acc.slot(g.neighbor(v, (0, -*a, -*b)), s);
                gy += acc.slot(g.neighbor(v, (-*b, 0, -*a)), 4 + s);
                gz += acc.slot(g.neighbor(v, (-*a, -*b, 0)), 8 + s);
            }
            f.jx[v] += (gx * rdt) as f32;
            f.jy[v] += (gy * rdt) as f32;
            f.jz[v] += (gz * rdt) as f32;
        }
    }

    /// Raws near ±2⁵³ and ±2⁶² merged into every other cell: totals that
    /// `i64 → f64` has to round, so adding an edge's four integers before
    /// converting them gives other bits than the four-term `f64` sum.
    fn merge_large_raws(acc: &Accumulator) {
        let big = [(1i64 << 53) + 1, -(1i64 << 53) - 3, (1i64 << 62) + 12_345, -(1i64 << 62) + 7];
        for cell in (0..acc.cells()).step_by(2) {
            acc.merge_cell_raw(cell, &std::array::from_fn(|s| big[(cell / 2 + s) % 4] + (cell * SLOTS + s) as i64));
        }
    }

    fn j_bits(f: &FieldArray) -> Vec<u32> {
        f.jx.iter().chain(&f.jy).chain(&f.jz).map(|j| j.to_bits()).collect()
    }

    #[test]
    fn lane_gather_matches_edge_by_edge_reference_bitwise() {
        for (nx, ny, nz) in [(5, 4, 3), (2, 2, 2), (1, 4, 4), (6, 1, 2), (3, 1, 1), (1, 1, 1)] {
            let g = Grid::new(nx, ny, nz);
            // J the unload adds to, not zero
            let mut start = FieldArray::new(g.clone());
            for v in 0..g.cells() {
                (start.jx[v], start.jy[v], start.jz[v]) = (v as f32 * 0.25, -1.5, 1.0 / (v + 1) as f32);
            }
            for (workers, mode) in [
                (1, ScatterMode::Atomic),
                (1, ScatterMode::Duplicated),
                (2, ScatterMode::Duplicated),
                (3, ScatterMode::Duplicated),
            ] {
                // a fresh accumulator per unload: the unload consumes it
                let seeded = || {
                    let acc = seeded_accumulator(&g, workers, mode);
                    merge_large_raws(&acc);
                    acc
                };
                let mut reference = start.clone();
                unload_edge_ref(&seeded(), &mut reference);
                let what = format!("({nx},{ny},{nz}) {mode:?} × {workers}");
                let mut serial = start.clone();
                seeded().unload_on(&Serial, Strategy::default(), &mut serial);
                assert_eq!(j_bits(&reference), j_bits(&serial), "serial {what}");
                for lanes in [1, 2, 4, 7] {
                    let mut threaded = start.clone();
                    seeded().unload_on(&pk::Threads::new(lanes), Strategy::default(), &mut threaded);
                    assert_eq!(j_bits(&reference), j_bits(&threaded), "{lanes} threads {what}");
                }
            }
        }
    }

    /// Every slot of every lane, by raw value.
    fn lane_raws(acc: &Accumulator) -> Vec<i64> {
        acc.buf.lane_totals().flat_map(|lane| (0..acc.cells * SLOTS).map(move |i| lane.raw(i))).collect()
    }

    #[test]
    fn the_unload_consumes_the_accumulator_on_every_schedule() {
        // the grid shapes the tests above use, 1- and 2-cell dimensions
        // among them (rows that are their own y or z neighbors)
        for (nx, ny, nz) in [(5, 4, 3), (2, 2, 2), (1, 4, 4), (6, 1, 2), (3, 1, 1), (1, 1, 1)] {
            let g = Grid::new(nx, ny, nz);
            for (workers, mode) in [
                (1, ScatterMode::Atomic),
                (1, ScatterMode::Duplicated),
                (2, ScatterMode::Duplicated),
                (3, ScatterMode::Duplicated),
            ] {
                let mut reference = FieldArray::new(g.clone());
                unload_edge_ref(&seeded_accumulator(&g, workers, mode), &mut reference);
                let check = |space: &str, unload: &dyn Fn(&mut Accumulator, &mut FieldArray)| {
                    let what = format!("{space} ({nx},{ny},{nz}) {mode:?} × {workers}");
                    let mut acc = seeded_accumulator(&g, workers, mode);
                    assert!(lane_raws(&acc).iter().any(|&r| r != 0), "{what}: nothing deposited");
                    let mut f = FieldArray::new(g.clone());
                    unload(&mut acc, &mut f);
                    assert_eq!(j_bits(&reference), j_bits(&f), "{what}: J");
                    assert!(lane_raws(&acc).iter().all(|&r| r == 0), "{what}: a slot survived");
                    assert!(!acc.buf.is_dirty(), "{what}: still dirty");
                };
                check("serial", &|acc, f| acc.unload_on(&Serial, Strategy::default(), f));
                for lanes in [1, 2, 4, 7] {
                    let pool = pk::Threads::new(lanes);
                    check(&format!("{lanes} threads"), &|acc, f| acc.unload_on(&pool, Strategy::default(), f));
                }
            }
        }
    }

    #[test]
    fn a_write_after_a_consuming_unload_makes_the_next_reset_sweep() {
        let g = Grid::new(3, 2, 2);
        for what in ["claim", "set_cell_raw"] {
            let mut acc = seeded_accumulator(&g, 2, ScatterMode::Duplicated);
            acc.unload(&mut FieldArray::new(g.clone()));
            if what == "claim" {
                acc.deposit_segment(1, 4, -0.5, 0.1, 0.2, 0.5, 0.3, -0.1, 1.0);
            } else {
                acc.set_cell_raw(4, &std::array::from_fn(|s| s as i64 - 5));
            }
            assert!(acc.buf.is_dirty(), "{what}");
            assert_ne!(acc.cell_raw(4), [0; SLOTS], "{what}");
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
    fn the_large_raws_tell_the_sum_trees_apart() {
        // what the test above would miss without them: on these totals,
        // integers added first and converted once round differently
        let g = Grid::new(5, 4, 3);
        let acc = Accumulator::new(g.cells(), 1, ScatterMode::Atomic);
        merge_large_raws(&acc);
        let differs = (0..g.cells()).any(|v| {
            let cells = [v, g.neighbor(v, (0, -1, 0)), g.neighbor(v, (0, 0, -1)), g.neighbor(v, (0, -1, -1))];
            let raws: [i64; 4] = std::array::from_fn(|s| acc.cell_raw(cells[s])[s]);
            let in_f64: f64 = raws.iter().map(|&r| FixedScatterBuf::dequantize(r)).sum();
            in_f64 != FixedScatterBuf::dequantize(raws.iter().fold(0i64, |a, &r| a.wrapping_add(r)))
        });
        assert!(differs);
    }

    #[test]
    fn reset_clears_everything() {
        let g = Grid::new(2, 2, 2);
        let acc = Accumulator::new(g.cells(), 2, ScatterMode::Duplicated);
        acc.deposit_segment(1, 0, -0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 1.0);
        assert!(acc.slot(0, 0) != 0.0);
        acc.reset();
        for s in 0..SLOTS {
            assert_eq!(acc.slot(0, s), 0.0);
        }
    }

    #[test]
    fn an_unused_depositor_is_harmless_even_over_zero_cells() {
        drop(Accumulator::new(0, 1, ScatterMode::Atomic).depositor(0, Claim::Sole));
    }

    /// A corrupt cell index must panic at the deposit that carries it (in
    /// release builds too): `Simulation::try_step_on` turns that panic in
    /// a pool lane into a typed `StepError`, and a depositor that swallowed
    /// the segment would lose charge silently.
    #[test]
    #[should_panic(expected = "out of range")]
    fn depositing_outside_the_accumulator_panics() {
        let acc = Accumulator::new(8, 1, ScatterMode::Atomic);
        let mut dep = acc.depositor(0, Claim::Sole);
        dep.deposit(3, -0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 1.0);
        dep.deposit(8, -0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 1.0);
    }
}
