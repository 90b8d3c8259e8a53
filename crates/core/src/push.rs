//! The particle push kernel — the paper's hot spot.
//!
//! Per particle: gather the cell's 18-float interpolator, evaluate E and
//! B at the particle, apply the relativistic Boris rotation, advance the
//! position, and deposit charge-conserving current for every within-cell
//! trajectory segment (splitting at cell boundaries, as VPIC's mover
//! does).
//!
//! The kernel is implemented in the paper's four vectorization strategies
//! (Fig 4). The *gather* (cell-indexed interpolator load) and the
//! *mover/deposit* (scatter with conflicts) are scalar in every strategy
//! — exactly VPIC's structure, where those stages go through dedicated
//! transpose/accumulator machinery. Deposits leave a chunk through one
//! [`RunDepositor`]: segments that hit the same cell back to back (the
//! common case after a cell sort) are summed privately in fixed point
//! and reach the shared accumulator once per run, with the same slot
//! totals, bit for bit, as one add per segment. The field evaluation and
//! Boris arithmetic are what differ between strategies:
//!
//! * **auto** — one plain loop, vectorization left to LLVM;
//! * **guided** — the kernel split into a gather pass, a chunked
//!   arithmetic pass over SoA scratch, and a scalar mover pass;
//! * **manual** — 4-particle groups in portable [`vsimd::simd`] lanes;
//! * **ad hoc** — 4-particle groups in SSE [`vsimd::v4::V4F32`] lanes.

use crate::accumulate::{Accumulator, RunDepositor};
use crate::grid::Grid;
use crate::interp::Interpolator;
use crate::species::Species;
use pk::{ExecSpace, RangePolicy, Serial, Sum};
use std::ops::Range;
use vsimd::simd::SimdF32;
use vsimd::v4::V4F32;
use vsimd::Strategy;

/// Precomputed per-species push coefficients.
#[derive(Debug, Clone, Copy)]
pub struct PushParams {
    /// `q·dt / (2m)` — the half-kick coefficient.
    pub qdt_2m: f32,
    /// Offset displacement per unit momentum-over-gamma: `2·dt/dx`.
    pub cdt_dx2: f32,
    /// `2·dt/dy`.
    pub cdt_dy2: f32,
    /// `2·dt/dz`.
    pub cdt_dz2: f32,
}

impl PushParams {
    /// Coefficients for `species` on `grid`.
    pub fn new(grid: &Grid, q: f32, m: f32) -> Self {
        Self {
            qdt_2m: q * grid.dt / (2.0 * m),
            cdt_dx2: 2.0 * grid.dt / grid.dx,
            cdt_dy2: 2.0 * grid.dt / grid.dy,
            cdt_dz2: 2.0 * grid.dt / grid.dz,
        }
    }
}

/// Statistics from one push call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PushStats {
    /// Particles pushed.
    pub pushed: usize,
    /// Cell-boundary crossings handled by the mover.
    pub crossings: usize,
}

/// Push every particle of `species` one step under `strategy`, serially
/// on the calling thread.
///
/// `interps` must hold one record per grid cell (from
/// [`crate::interp::load_interpolators`]); deposits go into `acc`.
pub fn push_species(
    strategy: Strategy,
    grid: &Grid,
    species: &mut Species,
    interps: &[Interpolator],
    acc: &Accumulator,
) -> PushStats {
    push_species_on(&Serial, strategy, grid, species, interps, acc)
}

/// Push every particle of `species` one step under `strategy`,
/// distributing contiguous particle blocks over `space`'s workers.
///
/// Each block deposits with its block index as the accumulator worker id,
/// so in [`pk::atomic::ScatterMode::Duplicated`] the accumulator should be
/// built with at least `space.concurrency()` workers for contention-free
/// replicas (fewer is safe — ids wrap onto the replicas — just contended).
///
/// Per-particle state (positions, momenta, cells) and the crossing count
/// are bit-identical to [`push_species`]: particles are independent and
/// blocks are reduced in block order. The accumulated currents are
/// bit-identical too: the accumulator sums fixed-point integers, so
/// neither the order of same-cell deposits, nor how they are split
/// between workers and replicas, nor how a worker groups them into runs
/// can change a slot total.
pub fn push_species_on<S: ExecSpace>(
    space: &S,
    strategy: Strategy,
    grid: &Grid,
    species: &mut Species,
    interps: &[Interpolator],
    acc: &Accumulator,
) -> PushStats {
    assert_eq!(interps.len(), grid.cells(), "interpolator/grid mismatch");
    assert_eq!(acc.cells(), grid.cells(), "accumulator/grid mismatch");
    let n = species.len();
    if n == 0 {
        return PushStats::default();
    }
    if space.accounting() {
        // charge before pushing: the pre-push cell array is the order the
        // kernel visits particles in (i.e. after any applied sort), which
        // is what the coalescing/cache/atomic model needs
        space.charge(&pk::gpu::Access::Push { cells: &species.cell, grid_cells: grid.cells() });
    }
    let params = PushParams::new(grid, species.q, species.m);
    let policy = RangePolicy::new(n);
    let blocks = policy.static_blocks(space.concurrency());
    if blocks.len() <= 1 {
        let mut chunk = Chunk {
            q: species.q,
            worker: 0,
            cell: &mut species.cell,
            dx: &mut species.dx,
            dy: &mut species.dy,
            dz: &mut species.dz,
            ux: &mut species.ux,
            uy: &mut species.uy,
            uz: &mut species.uz,
            w: &species.w,
        };
        return push_chunk(strategy, grid, &mut chunk, interps, acc, params);
    }
    let starts: Vec<usize> = blocks.iter().map(|b| b.start).collect();
    let q = species.q;
    let ptrs = SpeciesPtrs::new(species);
    let ptrs = &ptrs;
    let crossings = space.reduce_blocks(&policy, &Sum::<u64>::new(), &|range| {
        // worker id = block index (reduce_blocks dispatches the same
        // static partition); a space that partitions differently still
        // gets a stable id per disjoint sub-range
        let worker = match starts.binary_search(&range.start) {
            Ok(b) => b,
            Err(i) => i.saturating_sub(1),
        };
        // SAFETY: reduce_blocks hands out disjoint sub-ranges that
        // partition `0..n` (the ExecSpace contract), so every particle
        // index has exactly one mutable owner.
        let mut chunk = unsafe { ptrs.chunk(range, q, worker) };
        push_chunk(strategy, grid, &mut chunk, interps, acc, params).crossings as u64
    });
    PushStats { pushed: n, crossings: crossings as usize }
}

/// A contiguous window into one species' particle arrays, pushed by a
/// single worker. `worker` routes this chunk's deposits to its scatter
/// replica in duplicated mode.
struct Chunk<'a> {
    q: f32,
    worker: usize,
    cell: &'a mut [u32],
    dx: &'a mut [f32],
    dy: &'a mut [f32],
    dz: &'a mut [f32],
    ux: &'a mut [f32],
    uy: &'a mut [f32],
    uz: &'a mut [f32],
    w: &'a [f32],
}

impl Chunk<'_> {
    fn len(&self) -> usize {
        self.cell.len()
    }
}

/// Raw pointers to one species' particle arrays, used to reconstruct
/// disjoint [`Chunk`]s inside a parallel dispatch.
struct SpeciesPtrs {
    cell: *mut u32,
    dx: *mut f32,
    dy: *mut f32,
    dz: *mut f32,
    ux: *mut f32,
    uy: *mut f32,
    uz: *mut f32,
    w: *const f32,
}

// SAFETY: only used to rebuild per-block chunks over disjoint ranges, so
// no element is ever aliased mutably (see `push_species_on`).
unsafe impl Sync for SpeciesPtrs {}

impl SpeciesPtrs {
    fn new(s: &mut Species) -> Self {
        Self {
            cell: s.cell.as_mut_ptr(),
            dx: s.dx.as_mut_ptr(),
            dy: s.dy.as_mut_ptr(),
            dz: s.dz.as_mut_ptr(),
            ux: s.ux.as_mut_ptr(),
            uy: s.uy.as_mut_ptr(),
            uz: s.uz.as_mut_ptr(),
            w: s.w.as_ptr(),
        }
    }

    /// Rebuild the chunk over `range`.
    ///
    /// # Safety
    /// `range` must be in bounds for the species' arrays and disjoint
    /// from every other chunk built from `self` that is alive.
    unsafe fn chunk(&self, range: Range<usize>, q: f32, worker: usize) -> Chunk<'_> {
        let (start, len) = (range.start, range.len());
        Chunk {
            q,
            worker,
            cell: std::slice::from_raw_parts_mut(self.cell.add(start), len),
            dx: std::slice::from_raw_parts_mut(self.dx.add(start), len),
            dy: std::slice::from_raw_parts_mut(self.dy.add(start), len),
            dz: std::slice::from_raw_parts_mut(self.dz.add(start), len),
            ux: std::slice::from_raw_parts_mut(self.ux.add(start), len),
            uy: std::slice::from_raw_parts_mut(self.uy.add(start), len),
            uz: std::slice::from_raw_parts_mut(self.uz.add(start), len),
            w: std::slice::from_raw_parts(self.w.add(start), len),
        }
    }
}

/// Dispatch one chunk to the selected strategy kernel.
fn push_chunk(
    strategy: Strategy,
    grid: &Grid,
    chunk: &mut Chunk<'_>,
    interps: &[Interpolator],
    acc: &Accumulator,
    params: PushParams,
) -> PushStats {
    // one depositor per chunk: same-cell runs (long after a cell sort)
    // reach the accumulator once, when the cell changes or the chunk ends
    let dep = &mut acc.depositor(chunk.worker);
    match strategy {
        Strategy::Auto => push_auto(grid, chunk, interps, dep, params),
        Strategy::Guided => push_guided(grid, chunk, interps, dep, params),
        Strategy::Manual => push_manual(grid, chunk, interps, dep, params),
        Strategy::AdHoc => push_adhoc(grid, chunk, interps, dep, params),
    }
}

/// Scalar momentum update (Boris rotation with half E kicks).
/// Returns the new momentum.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn boris(
    h: f32,
    ux: f32,
    uy: f32,
    uz: f32,
    ex: f32,
    ey: f32,
    ez: f32,
    bx: f32,
    by: f32,
    bz: f32,
) -> (f32, f32, f32) {
    // half electric kick
    let ux = ux + h * ex;
    let uy = uy + h * ey;
    let uz = uz + h * ez;
    // rotation
    let gi = 1.0 / (1.0 + ux * ux + uy * uy + uz * uz).sqrt();
    let tx = h * bx * gi;
    let ty = h * by * gi;
    let tz = h * bz * gi;
    let t2 = tx * tx + ty * ty + tz * tz;
    let s = 2.0 / (1.0 + t2);
    let vx = ux + (uy * tz - uz * ty);
    let vy = uy + (uz * tx - ux * tz);
    let vz = uz + (ux * ty - uy * tx);
    let ux = ux + s * (vy * tz - vz * ty);
    let uy = uy + s * (vz * tx - vx * tz);
    let uz = uz + s * (vx * ty - vy * tx);
    // second half electric kick
    (ux + h * ex, uy + h * ey, uz + h * ez)
}

/// The scalar mover: advance offsets by `(mx, my, mz)`, splitting the
/// trajectory at cell boundaries and depositing each within-cell segment.
/// Updates the particle's cell and offsets; returns boundary crossings.
#[allow(clippy::too_many_arguments)]
#[inline]
fn move_and_deposit(
    grid: &Grid,
    dep: &mut RunDepositor<'_>,
    qw: f32,
    cell: &mut u32,
    x: &mut f32,
    y: &mut f32,
    z: &mut f32,
    mut mx: f32,
    mut my: f32,
    mut mz: f32,
) -> usize {
    let mut crossings = 0usize;
    // at most one crossing per axis per step (CFL guarantees |m| ≤ 2)
    for _ in 0..4 {
        let tx = *x + mx;
        let ty = *y + my;
        let tz = *z + mz;
        // fraction of the remaining move until the first boundary hit
        let mut alpha = 1.0f32;
        let mut axis = usize::MAX;
        let candidates = [(tx, mx, *x), (ty, my, *y), (tz, mz, *z)];
        for (a, &(target, m, start)) in candidates.iter().enumerate() {
            if !(-1.0..=1.0).contains(&target) {
                let bound = if m > 0.0 { 1.0 } else { -1.0 };
                let f = (bound - start) / m;
                if f < alpha {
                    alpha = f;
                    axis = a;
                }
            }
        }
        if axis == usize::MAX {
            // no crossing: deposit the final segment and finish
            dep.deposit(*cell as usize, *x, *y, *z, tx, ty, tz, qw);
            *x = tx.clamp(-1.0, 1.0);
            *y = ty.clamp(-1.0, 1.0);
            *z = tz.clamp(-1.0, 1.0);
            return crossings;
        }
        // deposit up to the boundary; clamp the non-crossed coordinates,
        // which f32 rounding can push a few ulp past the face when two
        // axes cross at nearly equal fractions
        let bx = (*x + alpha * mx).clamp(-1.0, 1.0);
        let by = (*y + alpha * my).clamp(-1.0, 1.0);
        let bz = (*z + alpha * mz).clamp(-1.0, 1.0);
        dep.deposit(*cell as usize, *x, *y, *z, bx, by, bz, qw);
        // cross into the neighbor: flip the crossed axis's offset
        let (dxn, dyn_, dzn): (isize, isize, isize) = match axis {
            0 => (if mx > 0.0 { 1 } else { -1 }, 0, 0),
            1 => (0, if my > 0.0 { 1 } else { -1 }, 0),
            _ => (0, 0, if mz > 0.0 { 1 } else { -1 }),
        };
        *cell = grid.neighbor(*cell as usize, (dxn, dyn_, dzn)) as u32;
        *x = if axis == 0 { -bx.signum() } else { bx };
        *y = if axis == 1 { -by.signum() } else { by };
        *z = if axis == 2 { -bz.signum() } else { bz };
        mx *= 1.0 - alpha;
        my *= 1.0 - alpha;
        mz *= 1.0 - alpha;
        // zero out the crossed axis's handled part is implicit: the
        // remaining move continues from the flipped boundary position
        crossings += 1;
    }
    crossings
}

fn push_auto(
    grid: &Grid,
    s: &mut Chunk<'_>,
    interps: &[Interpolator],
    dep: &mut RunDepositor<'_>,
    p: PushParams,
) -> PushStats {
    let mut stats = PushStats { pushed: s.len(), crossings: 0 };
    let h = p.qdt_2m;
    for i in 0..s.len() {
        let ip = &interps[s.cell[i] as usize];
        let (x, y, z) = (s.dx[i], s.dy[i], s.dz[i]);
        let (ex, ey, ez) = ip.e_at(x, y, z);
        let (bx, by, bz) = ip.b_at(x, y, z);
        let (ux, uy, uz) = boris(h, s.ux[i], s.uy[i], s.uz[i], ex, ey, ez, bx, by, bz);
        s.ux[i] = ux;
        s.uy[i] = uy;
        s.uz[i] = uz;
        let gi = 1.0 / (1.0 + ux * ux + uy * uy + uz * uz).sqrt();
        let qw = s.q * s.w[i];
        stats.crossings += move_and_deposit(
            grid,
            dep,
            qw,
            &mut s.cell[i],
            &mut s.dx[i],
            &mut s.dy[i],
            &mut s.dz[i],
            ux * gi * p.cdt_dx2,
            uy * gi * p.cdt_dy2,
            uz * gi * p.cdt_dz2,
        );
    }
    stats
}

/// Scratch block size for the guided strategy's split passes.
const GUIDED_BLOCK: usize = 256;

fn push_guided(
    grid: &Grid,
    s: &mut Chunk<'_>,
    interps: &[Interpolator],
    dep: &mut RunDepositor<'_>,
    p: PushParams,
) -> PushStats {
    let mut stats = PushStats { pushed: s.len(), crossings: 0 };
    let h = p.qdt_2m;
    let n = s.len();
    let mut fex = [0.0f32; GUIDED_BLOCK];
    let mut fey = [0.0f32; GUIDED_BLOCK];
    let mut fez = [0.0f32; GUIDED_BLOCK];
    let mut fbx = [0.0f32; GUIDED_BLOCK];
    let mut fby = [0.0f32; GUIDED_BLOCK];
    let mut fbz = [0.0f32; GUIDED_BLOCK];
    let mut base = 0;
    while base < n {
        let len = GUIDED_BLOCK.min(n - base);
        // pass 1: gather + field evaluation (the hard-to-vectorize part,
        // isolated in its own loop)
        for k in 0..len {
            let i = base + k;
            let ip = &interps[s.cell[i] as usize];
            let (ex, ey, ez) = ip.e_at(s.dx[i], s.dy[i], s.dz[i]);
            let (bx, by, bz) = ip.b_at(s.dx[i], s.dy[i], s.dz[i]);
            fex[k] = ex;
            fey[k] = ey;
            fez[k] = ez;
            fbx[k] = bx;
            fby[k] = by;
            fbz[k] = bz;
        }
        // pass 2: Boris arithmetic over dense SoA scratch — a clean
        // fixed-shape loop the vectorizer handles
        for k in 0..len {
            let i = base + k;
            let (ux, uy, uz) = boris(
                h, s.ux[i], s.uy[i], s.uz[i], fex[k], fey[k], fez[k], fbx[k], fby[k], fbz[k],
            );
            s.ux[i] = ux;
            s.uy[i] = uy;
            s.uz[i] = uz;
        }
        // pass 3: scalar mover
        for k in 0..len {
            let i = base + k;
            let (ux, uy, uz) = (s.ux[i], s.uy[i], s.uz[i]);
            let gi = 1.0 / (1.0 + ux * ux + uy * uy + uz * uz).sqrt();
            let qw = s.q * s.w[i];
            stats.crossings += move_and_deposit(
                grid,
                dep,
                qw,
                &mut s.cell[i],
                &mut s.dx[i],
                &mut s.dy[i],
                &mut s.dz[i],
                ux * gi * p.cdt_dx2,
                uy * gi * p.cdt_dy2,
                uz * gi * p.cdt_dz2,
            );
        }
        base += len;
    }
    stats
}

fn push_manual(
    grid: &Grid,
    s: &mut Chunk<'_>,
    interps: &[Interpolator],
    dep: &mut RunDepositor<'_>,
    p: PushParams,
) -> PushStats {
    let mut stats = PushStats { pushed: s.len(), crossings: 0 };
    let n = s.len();
    let main = n - n % 4;
    let h = SimdF32::<4>::splat(p.qdt_2m);
    let one = SimdF32::<4>::splat(1.0);
    let two = SimdF32::<4>::splat(2.0);
    let mut i = 0;
    while i < main {
        // gather: evaluate fields per lane (cell-indexed interpolators)
        let mut ex = [0.0f32; 4];
        let mut ey = [0.0f32; 4];
        let mut ez = [0.0f32; 4];
        let mut bx = [0.0f32; 4];
        let mut by = [0.0f32; 4];
        let mut bz = [0.0f32; 4];
        for l in 0..4 {
            let ip = &interps[s.cell[i + l] as usize];
            let (x, y, z) = (s.dx[i + l], s.dy[i + l], s.dz[i + l]);
            let e = ip.e_at(x, y, z);
            let b = ip.b_at(x, y, z);
            ex[l] = e.0;
            ey[l] = e.1;
            ez[l] = e.2;
            bx[l] = b.0;
            by[l] = b.1;
            bz[l] = b.2;
        }
        let (ex, ey, ez) = (SimdF32(ex), SimdF32(ey), SimdF32(ez));
        let (bx, by, bz) = (SimdF32(bx), SimdF32(by), SimdF32(bz));
        // vector Boris over 4 particles
        let mut ux = SimdF32::<4>::load(s.ux, i) + h * ex;
        let mut uy = SimdF32::<4>::load(s.uy, i) + h * ey;
        let mut uz = SimdF32::<4>::load(s.uz, i) + h * ez;
        let gi = one / (one + ux * ux + uy * uy + uz * uz).sqrt();
        let tx = h * bx * gi;
        let ty = h * by * gi;
        let tz = h * bz * gi;
        // sum t² first (same association as scalar `boris`) so every
        // strategy walks one IEEE op tree and stays bit-identical
        let t2 = tx * tx + ty * ty + tz * tz;
        let sfac = two / (one + t2);
        let vx = ux + (uy * tz - uz * ty);
        let vy = uy + (uz * tx - ux * tz);
        let vz = uz + (ux * ty - uy * tx);
        ux += sfac * (vy * tz - vz * ty);
        uy += sfac * (vz * tx - vx * tz);
        uz += sfac * (vx * ty - vy * tx);
        ux += h * ex;
        uy += h * ey;
        uz += h * ez;
        ux.store(s.ux, i);
        uy.store(s.uy, i);
        uz.store(s.uz, i);
        // scalar mover per lane
        for l in 0..4 {
            let k = i + l;
            let (ux, uy, uz) = (s.ux[k], s.uy[k], s.uz[k]);
            let gi = 1.0 / (1.0 + ux * ux + uy * uy + uz * uz).sqrt();
            let qw = s.q * s.w[k];
            stats.crossings += move_and_deposit(
                grid,
                dep,
                qw,
                &mut s.cell[k],
                &mut s.dx[k],
                &mut s.dy[k],
                &mut s.dz[k],
                ux * gi * p.cdt_dx2,
                uy * gi * p.cdt_dy2,
                uz * gi * p.cdt_dz2,
            );
        }
        i += 4;
    }
    // scalar tail
    stats.crossings += push_tail(grid, s, interps, dep, p, main);
    stats
}

fn push_adhoc(
    grid: &Grid,
    s: &mut Chunk<'_>,
    interps: &[Interpolator],
    dep: &mut RunDepositor<'_>,
    p: PushParams,
) -> PushStats {
    let mut stats = PushStats { pushed: s.len(), crossings: 0 };
    let n = s.len();
    let main = n - n % 4;
    let h = V4F32::splat(p.qdt_2m);
    let one = V4F32::splat(1.0);
    let two = V4F32::splat(2.0);
    let mut i = 0;
    while i < main {
        let mut ex = [0.0f32; 4];
        let mut ey = [0.0f32; 4];
        let mut ez = [0.0f32; 4];
        let mut bx = [0.0f32; 4];
        let mut by = [0.0f32; 4];
        let mut bz = [0.0f32; 4];
        for l in 0..4 {
            let ip = &interps[s.cell[i + l] as usize];
            let (x, y, z) = (s.dx[i + l], s.dy[i + l], s.dz[i + l]);
            let e = ip.e_at(x, y, z);
            let b = ip.b_at(x, y, z);
            ex[l] = e.0;
            ey[l] = e.1;
            ez[l] = e.2;
            bx[l] = b.0;
            by[l] = b.1;
            bz[l] = b.2;
        }
        let (ex, ey, ez) = (V4F32::from_array(ex), V4F32::from_array(ey), V4F32::from_array(ez));
        let (bx, by, bz) = (V4F32::from_array(bx), V4F32::from_array(by), V4F32::from_array(bz));
        let mut ux = V4F32::load(s.ux, i).add(h.mul(ex));
        let mut uy = V4F32::load(s.uy, i).add(h.mul(ey));
        let mut uz = V4F32::load(s.uz, i).add(h.mul(ez));
        let norm = one.add(ux.mul(ux)).add(uy.mul(uy)).add(uz.mul(uz));
        let gi = one.div(norm.sqrt());
        let tx = h.mul(bx).mul(gi);
        let ty = h.mul(by).mul(gi);
        let tz = h.mul(bz).mul(gi);
        let t2 = tx.mul(tx).add(ty.mul(ty)).add(tz.mul(tz));
        let sfac = two.div(one.add(t2));
        let vx = ux.add(uy.mul(tz).sub(uz.mul(ty)));
        let vy = uy.add(uz.mul(tx).sub(ux.mul(tz)));
        let vz = uz.add(ux.mul(ty).sub(uy.mul(tx)));
        ux = ux.add(sfac.mul(vy.mul(tz).sub(vz.mul(ty))));
        uy = uy.add(sfac.mul(vz.mul(tx).sub(vx.mul(tz))));
        uz = uz.add(sfac.mul(vx.mul(ty).sub(vy.mul(tx))));
        ux = ux.add(h.mul(ex));
        uy = uy.add(h.mul(ey));
        uz = uz.add(h.mul(ez));
        ux.store(s.ux, i);
        uy.store(s.uy, i);
        uz.store(s.uz, i);
        for l in 0..4 {
            let k = i + l;
            let (ux, uy, uz) = (s.ux[k], s.uy[k], s.uz[k]);
            let gi = 1.0 / (1.0 + ux * ux + uy * uy + uz * uz).sqrt();
            let qw = s.q * s.w[k];
            stats.crossings += move_and_deposit(
                grid,
                dep,
                qw,
                &mut s.cell[k],
                &mut s.dx[k],
                &mut s.dy[k],
                &mut s.dz[k],
                ux * gi * p.cdt_dx2,
                uy * gi * p.cdt_dy2,
                uz * gi * p.cdt_dz2,
            );
        }
        i += 4;
    }
    stats.crossings += push_tail(grid, s, interps, dep, p, main);
    stats
}

/// Scalar tail shared by the vector strategies.
fn push_tail(
    grid: &Grid,
    s: &mut Chunk<'_>,
    interps: &[Interpolator],
    dep: &mut RunDepositor<'_>,
    p: PushParams,
    from: usize,
) -> usize {
    let h = p.qdt_2m;
    let mut crossings = 0;
    for i in from..s.len() {
        let ip = &interps[s.cell[i] as usize];
        let (x, y, z) = (s.dx[i], s.dy[i], s.dz[i]);
        let (ex, ey, ez) = ip.e_at(x, y, z);
        let (bx, by, bz) = ip.b_at(x, y, z);
        let (ux, uy, uz) = boris(h, s.ux[i], s.uy[i], s.uz[i], ex, ey, ez, bx, by, bz);
        s.ux[i] = ux;
        s.uy[i] = uy;
        s.uz[i] = uz;
        let gi = 1.0 / (1.0 + ux * ux + uy * uy + uz * uz).sqrt();
        let qw = s.q * s.w[i];
        crossings += move_and_deposit(
            grid,
            dep,
            qw,
            &mut s.cell[i],
            &mut s.dx[i],
            &mut s.dy[i],
            &mut s.dz[i],
            ux * gi * p.cdt_dx2,
            uy * gi * p.cdt_dy2,
            uz * gi * p.cdt_dz2,
        );
    }
    crossings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldArray;
    use crate::interp::load_interpolators;
    use pk::atomic::ScatterMode;

    fn setup(grid: &Grid) -> (FieldArray, Accumulator) {
        (
            FieldArray::new(grid.clone()),
            Accumulator::new(grid.cells(), 1, ScatterMode::Atomic),
        )
    }

    #[test]
    fn free_particle_moves_ballistically() {
        let grid = Grid::new(8, 8, 8);
        let (f, acc) = setup(&grid);
        let interps = load_interpolators(&f);
        let mut s = Species::new("e", -1.0, 1.0);
        let u = 0.5f32;
        s.push_particle(0.0, 0.0, 0.0, 0, u, 0.0, 0.0, 1.0);
        let stats = push_species(Strategy::Auto, &grid, &mut s, &interps, &acc);
        assert_eq!(stats.pushed, 1);
        // no fields: momentum unchanged
        assert_eq!(s.ux[0], u);
        // moved by v·dt in offset units (×2)
        let gi = 1.0 / (1.0 + u * u).sqrt();
        let expect = 2.0 * u * gi * grid.dt;
        assert!((s.dx[0] - expect).abs() < 1e-6);
    }

    #[test]
    fn uniform_e_accelerates_correctly() {
        let grid = Grid::new(4, 4, 4);
        let (mut f, acc) = setup(&grid);
        let e0 = 0.01f32;
        f.ex.fill(e0);
        let interps = load_interpolators(&f);
        let mut s = Species::new("e", -1.0, 1.0);
        s.push_particle(0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 1.0);
        push_species(Strategy::Auto, &grid, &mut s, &interps, &acc);
        // du = q E dt / m (non-relativistic limit)
        let expect = -e0 * grid.dt;
        assert!((s.ux[0] - expect).abs() < 1e-7, "{} vs {expect}", s.ux[0]);
    }

    #[test]
    fn boris_rotation_preserves_momentum_magnitude() {
        let grid = Grid::new(4, 4, 4);
        let (mut f, acc) = setup(&grid);
        f.bz.fill(0.3);
        let interps = load_interpolators(&f);
        let mut s = Species::new("e", -1.0, 1.0);
        s.push_particle(0.0, 0.0, 0.0, 0, 0.2, 0.1, 0.05, 1.0);
        let u0 = (0.2f64.powi(2) + 0.1f64.powi(2) + 0.05f64.powi(2)).sqrt();
        for _ in 0..100 {
            acc.reset();
            push_species(Strategy::Auto, &grid, &mut s, &interps, &acc);
        }
        let u1 = ((s.ux[0] as f64).powi(2) + (s.uy[0] as f64).powi(2)
            + (s.uz[0] as f64).powi(2))
        .sqrt();
        assert!(
            ((u1 - u0) / u0).abs() < 1e-4,
            "pure B rotation must conserve |u|: {u0} vs {u1}"
        );
    }

    #[test]
    fn gyro_orbit_frequency_matches_theory() {
        // ω_c = qB/(γm): check the rotation angle per step
        let grid = Grid::new(4, 4, 4);
        let (mut f, acc) = setup(&grid);
        let b = 0.2f32;
        f.bz.fill(b);
        let interps = load_interpolators(&f);
        let mut s = Species::new("q+", 1.0, 1.0);
        let u = 0.1f32;
        s.push_particle(0.0, 0.0, 0.0, 0, u, 0.0, 0.0, 1.0);
        push_species(Strategy::Auto, &grid, &mut s, &interps, &acc);
        let angle = (s.uy[0] / s.ux[0]).atan();
        let gamma = (1.0 + u * u).sqrt();
        // Boris angle: 2·atan(h·B/γ) with h = q dt/2m
        let expect = -2.0 * ((grid.dt / 2.0) * b / gamma).atan();
        assert!(
            (angle - expect).abs() < 1e-5,
            "gyro angle {angle} vs theory {expect}"
        );
    }

    #[test]
    fn all_strategies_produce_matching_trajectories() {
        let grid = Grid::new(6, 6, 6);
        let mut f = FieldArray::new(grid.clone());
        // non-trivial field mix
        for v in 0..grid.cells() {
            f.ex[v] = 0.003 * (v as f32 * 0.1).sin();
            f.ey[v] = 0.002 * (v as f32 * 0.2).cos();
            f.bz[v] = 0.1 + 0.01 * (v as f32 * 0.05).sin();
        }
        let interps = load_interpolators(&f);
        let make = || {
            let mut s = Species::new("e", -1.0, 1.0);
            s.load_uniform(&grid, 1001, 0.2, (0.05, 0.0, 0.0), 1.0, 77);
            s
        };
        let reference = {
            let mut s = make();
            let acc = Accumulator::new(grid.cells(), 1, ScatterMode::Atomic);
            for _ in 0..3 {
                acc.reset();
                push_species(Strategy::Auto, &grid, &mut s, &interps, &acc);
            }
            s
        };
        for strat in [Strategy::Guided, Strategy::Manual, Strategy::AdHoc] {
            let mut s = make();
            let acc = Accumulator::new(grid.cells(), 1, ScatterMode::Atomic);
            for _ in 0..3 {
                acc.reset();
                push_species(strat, &grid, &mut s, &interps, &acc);
            }
            let mut max_du = 0.0f32;
            for i in 0..s.len() {
                max_du = max_du
                    .max((s.ux[i] - reference.ux[i]).abs())
                    .max((s.uy[i] - reference.uy[i]).abs())
                    .max((s.uz[i] - reference.uz[i]).abs());
                assert_eq!(s.cell[i], reference.cell[i], "{strat}: cell diverged at {i}");
            }
            assert!(max_du < 2e-5, "{strat}: momentum divergence {max_du}");
        }
    }

    #[test]
    fn all_strategies_are_bitwise_identical() {
        // Every strategy walks the same IEEE op tree per particle (the
        // vector kernels use exact lane ops and the scalar association),
        // so trajectories are bit-equal — the property the tiled path
        // and heterogeneous per-rank configs rely on.
        let grid = Grid::new(6, 6, 6);
        let mut f = FieldArray::new(grid.clone());
        for v in 0..grid.cells() {
            f.ex[v] = 0.003 * (v as f32 * 0.1).sin();
            f.ey[v] = 0.002 * (v as f32 * 0.2).cos();
            f.bz[v] = 0.1 + 0.01 * (v as f32 * 0.05).sin();
        }
        let interps = load_interpolators(&f);
        let make = || {
            let mut s = Species::new("e", -1.0, 1.0);
            s.load_uniform(&grid, 1001, 0.2, (0.05, 0.0, 0.0), 1.0, 77);
            s
        };
        let reference = {
            let mut s = make();
            let acc = Accumulator::new(grid.cells(), 1, ScatterMode::Atomic);
            for _ in 0..3 {
                acc.reset();
                push_species(Strategy::Auto, &grid, &mut s, &interps, &acc);
            }
            s
        };
        for strat in [Strategy::Guided, Strategy::Manual, Strategy::AdHoc] {
            let mut s = make();
            let acc = Accumulator::new(grid.cells(), 1, ScatterMode::Atomic);
            for _ in 0..3 {
                acc.reset();
                push_species(strat, &grid, &mut s, &interps, &acc);
            }
            assert_eq!(s.cell, reference.cell, "{strat}");
            for i in 0..s.len() {
                assert_eq!(s.dx[i].to_bits(), reference.dx[i].to_bits(), "{strat} dx[{i}]");
                assert_eq!(s.dy[i].to_bits(), reference.dy[i].to_bits(), "{strat} dy[{i}]");
                assert_eq!(s.dz[i].to_bits(), reference.dz[i].to_bits(), "{strat} dz[{i}]");
                assert_eq!(s.ux[i].to_bits(), reference.ux[i].to_bits(), "{strat} ux[{i}]");
                assert_eq!(s.uy[i].to_bits(), reference.uy[i].to_bits(), "{strat} uy[{i}]");
                assert_eq!(s.uz[i].to_bits(), reference.uz[i].to_bits(), "{strat} uz[{i}]");
            }
        }
    }

    #[test]
    fn mover_handles_boundary_crossing_with_periodic_wrap() {
        let grid = Grid::new(4, 4, 4);
        let (f, acc) = setup(&grid);
        let interps = load_interpolators(&f);
        let mut s = Species::new("e", -1.0, 1.0);
        // fast particle near the +x face of the last cell in x
        let start = grid.voxel(3, 0, 0);
        s.push_particle(0.95, 0.0, 0.0, start as u32, 2.0, 0.0, 0.0, 1.0);
        let stats = push_species(Strategy::Auto, &grid, &mut s, &interps, &acc);
        assert_eq!(stats.crossings, 1);
        assert_eq!(s.cell[0], grid.voxel(0, 0, 0) as u32, "periodic wrap in x");
        assert!(s.dx[0] >= -1.0 && s.dx[0] <= 1.0);
        s.validate(&grid).unwrap();
    }

    #[test]
    fn diagonal_crossing_splits_segments() {
        let grid = Grid::new(4, 4, 4);
        let (f, acc) = setup(&grid);
        let interps = load_interpolators(&f);
        let mut s = Species::new("e", -1.0, 1.0);
        s.push_particle(0.99, 0.99, 0.0, 0, 3.0, 3.0, 0.0, 1.0);
        let stats = push_species(Strategy::Auto, &grid, &mut s, &interps, &acc);
        assert_eq!(stats.crossings, 2, "crossed x and y faces");
        assert_eq!(s.cell[0], grid.voxel(1, 1, 0) as u32);
        s.validate(&grid).unwrap();
    }

    #[test]
    fn deposit_total_matches_charge_times_displacement() {
        // total accumulated jx (all cells) = Σ qw·Δξ regardless of crossings
        let grid = Grid::new(4, 4, 4);
        let (mut f, mut acc) = setup(&grid);
        let interps = load_interpolators(&f);
        let mut s = Species::new("e", -1.0, 1.0);
        s.push_particle(0.9, 0.1, -0.3, 21, 1.5, 0.0, 0.0, 2.0);
        let ux = s.ux[0];
        let gi = 1.0 / (1.0f32 + ux * ux).sqrt();
        let frac = ux * gi * grid.dt; // fraction of a cell moved
        push_species(Strategy::Auto, &grid, &mut s, &interps, &acc);
        acc.unload(&mut f);
        let total_jx: f64 = f.jx.iter().map(|&x| x as f64).sum();
        let qw = -2.0f64;
        let expect = qw * frac as f64 / grid.dt as f64;
        assert!(
            (total_jx - expect).abs() < 1e-5,
            "total jx {total_jx} vs {expect}"
        );
    }

    #[test]
    fn parallel_push_matches_serial_push() {
        use pk::Threads;
        let grid = Grid::new(6, 6, 6);
        let mut f = FieldArray::new(grid.clone());
        for v in 0..grid.cells() {
            f.ex[v] = 0.004 * (v as f32 * 0.3).sin();
            f.by[v] = 0.05 + 0.02 * (v as f32 * 0.11).cos();
            f.bz[v] = 0.1;
        }
        let interps = load_interpolators(&f);
        let make = || {
            let mut s = Species::new("e", -1.0, 1.0);
            s.load_uniform(&grid, 777, 0.3, (0.1, -0.05, 0.0), 1.0, 5);
            // same-cell runs, some of them cut by a block boundary
            s.sort(psort::SortOrder::Standard);
            s
        };
        let threads = Threads::new(4);
        for strat in Strategy::ALL {
            let mut serial_s = make();
            let serial_acc = Accumulator::new(grid.cells(), 1, ScatterMode::Atomic);
            let serial_stats =
                push_species(strat, &grid, &mut serial_s, &interps, &serial_acc);
            for mode in [ScatterMode::Atomic, ScatterMode::Duplicated] {
                let mut par_s = make();
                let par_acc = Accumulator::new(grid.cells(), threads.concurrency(), mode);
                let par_stats =
                    push_species_on(&threads, strat, &grid, &mut par_s, &interps, &par_acc);
                // particles are independent: trajectories must be bit-identical
                assert_eq!(par_stats, serial_stats, "{strat}");
                assert_eq!(par_s.cell, serial_s.cell, "{strat}");
                assert_eq!(par_s.dx, serial_s.dx, "{strat}");
                assert_eq!(par_s.ux, serial_s.ux, "{strat}");
                // fixed-point deposits: every slot total is bit-equal,
                // whatever the blocks, replicas and run boundaries were
                for cell in 0..grid.cells() {
                    assert_eq!(
                        par_acc.cell_raw(cell),
                        serial_acc.cell_raw(cell),
                        "{strat} {mode:?} cell {cell}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_push_with_empty_species_is_noop() {
        use pk::Threads;
        let grid = Grid::new(4, 4, 4);
        let (f, acc) = setup(&grid);
        let interps = load_interpolators(&f);
        let mut s = Species::new("e", -1.0, 1.0);
        let stats =
            push_species_on(&Threads::new(4), Strategy::Auto, &grid, &mut s, &interps, &acc);
        assert_eq!(stats, PushStats::default());
    }

    #[test]
    fn continuity_through_the_full_push_with_crossings() {
        use crate::accumulate::{deposit_rho_node, div_j_node};
        let grid = Grid::new(5, 5, 5);
        let (mut f, mut acc) = setup(&grid);
        let interps = load_interpolators(&f);
        let mut s = Species::new("e", -1.0, 1.0);
        s.load_uniform(&grid, 300, 0.4, (0.1, -0.2, 0.3), 1.0, 13);
        let mut rho0 = vec![0.0f64; grid.cells()];
        for p in 0..s.len() {
            deposit_rho_node(&grid, &mut rho0, s.cell[p] as usize, s.dx[p], s.dy[p], s.dz[p], s.q * s.w[p]);
        }
        push_species(Strategy::Auto, &grid, &mut s, &interps, &acc);
        let mut rho1 = vec![0.0f64; grid.cells()];
        for p in 0..s.len() {
            deposit_rho_node(&grid, &mut rho1, s.cell[p] as usize, s.dx[p], s.dy[p], s.dz[p], s.q * s.w[p]);
        }
        acc.unload(&mut f);
        for v in 0..grid.cells() {
            let drho_dt = (rho1[v] - rho0[v]) / grid.dt as f64;
            let div = div_j_node(&f, v);
            assert!(
                (drho_dt + div).abs() < 2e-4,
                "continuity violated at {v}: {} vs {}",
                drho_dt,
                -div
            );
        }
    }
}
