//! The particle push kernel — the paper's hot spot.
//!
//! Per particle: gather the cell's 18-float interpolator, evaluate E and
//! B at the particle, apply the relativistic Boris rotation, advance the
//! position, and deposit charge-conserving current for every within-cell
//! trajectory segment (splitting at cell boundaries, as VPIC's mover
//! does).
//!
//! Where the 18 coefficients come from is the push's `Source`: the
//! records `load_interpolators_into` stored, one per cell
//! ([`push_species_on`], VPIC's gather), or the E and B arrays themselves
//! (`push_fields_on`, what the step runs): that source builds a cell's
//! record when the push first reaches the cell — the record the load
//! would have stored, bit for bit — and keeps it in a cache by cell, of
//! the whole grid when the grid is small and of a few planes' worth of
//! cells when it is not, so that a large grid has no interpolator array.
//!
//! The kernel is written once, as three stages over a group of
//! `L::LANES` consecutive particles held in the lanes of a [`PushLane`],
//! behind a look-ahead (`look_ahead`): once per same-cell run of the
//! particles `LOOKAHEAD` (64) further on, it gets the run's coefficients
//! under way — a cache hint for the stored record, or the record built
//! into the fields source's cache — and asks the cache for the run's
//! accumulator edges:
//!
//! 1. **run-aware gather** (`gather`) — a group whose particles share a
//!    cell (the common case after a cell sort) broadcasts that cell's 18
//!    coefficients; a mixed group takes its 72-byte records, one per
//!    lane, and transposes them in registers (AoS → SoA);
//! 2. **field evaluation and Boris** (`fields_at`, `boris`) in lanes;
//! 3. **in-cell mover** (`displacement`, `move_group`) — displacement,
//!    target position, an in-cell mask and the twelve Villasenor–Buneman
//!    weights in lanes, transposed (SoA → AoS) to one row of twelve per
//!    particle for the [`RunDepositor`]. Only a lane whose target leaves
//!    `[-1, 1]³` (a NaN included) falls to the scalar `split_move`, which
//!    cuts the move at the cell faces and deposits nothing itself: its
//!    within-cell segments wait in the chunk's small queue (`Sink`) until
//!    the group ends, are weighed and transposed in lanes like the in-cell
//!    lanes' segments, and go straight onto their edges, the depositor's
//!    open run left open.
//!
//! The paper's four vectorization strategies (Fig 4) are four
//! instantiations of those stages and nothing else:
//!
//! * **auto** — fused at `f32`: one particle per group, a plain loop whose
//!   vectorization is left to LLVM. The reference op tree;
//! * **guided** — the same stages at `f32` as split passes over a
//!   256-particle scratch block, so the dense passes (Boris, displacement)
//!   are loops LLVM does vectorize;
//! * **manual** — fused at the portable [`SimdF32<4>`];
//! * **ad hoc** — fused at the AVX2 `V8F32`, eight lanes, where the CPU
//!   has AVX2 (`is_x86_feature_detected!`, asked once per chunk), and at
//!   the SSE [`V4F32`] elsewhere. The AVX2 body is one
//!   `#[target_feature(enable = "avx2")]` function (`push_avx2`) into
//!   which every stage inlines, deposit included: everything it calls on
//!   the way is `#[inline(always)]` and takes no closure, since a
//!   function compiled without AVX would run each AVX intrinsic in it
//!   behind a call.
//!
//! Every strategy gives the same bits. The lane ops are the IEEE-754
//! correctly-rounded `+ − × ÷ √` in one fixed association (no FMA, no
//! `rsqrt`), so lane `l` of a group computes exactly what the `f32`
//! instantiation computes for that particle; and deposits are quantized
//! per weight and summed as wrapping fixed-point integers, so neither the
//! order in which segments reach the depositor (a queued one arrives after
//! its neighbours), nor how it coalesces same-cell runs, nor whether its
//! adds are plain (a chunk that is its lane's only writer) or atomic
//! (chunks sharing the one atomic lane) can change an edge total.

use crate::accumulate::{lane_segment_weights, Accumulator, RunDepositor, SLOTS};
use crate::field::FieldArray;
use crate::grid::{Grid, Site};
use crate::interp::{fields_at, load_cell_at, Interpolator, COEFFS};
use crate::species::{Scratch, Species};
use pk::atomic::{Claim, ScatterMode};
use pk::{ExecSpace, Serial, Split};
use std::ops::Range;
use vsimd::v4::V4F32;
#[cfg(target_arch = "x86_64")]
use vsimd::v8::V8F32;
use vsimd::{PushLane, SimdF32, Strategy, Xyz, MAX_LANES};

/// Precomputed per-species push coefficients.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PushParams {
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
    pub(crate) fn new(grid: &Grid, q: f32, m: f32) -> Self {
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
/// on the calling thread, from stored records.
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

/// Push every particle of `species` one step under `strategy` from the
/// stored records `interps` (one per grid cell), distributing contiguous
/// particle blocks over `space`'s workers. The record path: a
/// [`crate::Simulation`] step pushes from the fields instead, with the
/// same body and the same bits.
///
/// Under *manual* and *ad hoc* all three stages of the module doc run a
/// group of particles in lanes — four, or eight under AVX2 — gather,
/// field evaluation and Boris, displacement, in-cell test and deposit
/// weights, the crossing lanes' segments included; only the splitting of
/// a cell-crossing move (and each block's last `len % L::LANES`
/// particles) is scalar; *guided* gets its lanes from LLVM on the dense
/// passes; *auto* is the scalar reference.
///
/// Each block deposits with its block index as the accumulator worker id
/// and holds its lane of `acc` for as long as it runs: as the lane's sole
/// writer (plain adds) when it is the only block or the mode is
/// [`ScatterMode::Duplicated`], sharing it (atomic adds) when several
/// blocks write the one [`ScatterMode::Atomic`] lane. A duplicated
/// accumulator should be built with at least `space.concurrency()` workers
/// so that every block has a replica; with fewer, ids wrap and the blocks
/// of one replica run one after the other. For the same reason a second
/// thread pushing into `acc` meanwhile waits for this push; and the
/// calling thread must not hold a depositor of `acc` itself.
///
/// Per-particle state (positions, momenta, cells) and the crossing count
/// are bit-identical to [`push_species`]: particles are independent and
/// blocks are reduced in block order. The accumulated currents are
/// bit-identical too: the accumulator sums fixed-point integers, so
/// neither the order of same-cell deposits, nor how they are split
/// between workers and replicas, nor how a worker groups them into runs
/// can change an edge total.
pub fn push_species_on<S: ExecSpace>(
    space: &S,
    strategy: Strategy,
    grid: &Grid,
    species: &mut Species,
    interps: &[Interpolator],
    acc: &Accumulator,
) -> PushStats {
    let copies = &mut vec![interps; space.concurrency().max(1)];
    push_blocks(space, body(strategy), grid, species, copies, acc)
}

/// [`push_species_on`] with the records built from the E and B arrays
/// of the fields as the push reaches their cells and kept in a cache
/// ([`Fields`]), one source per block: `fields[b]` serves block `b`, and
/// each serves every species of a step. The same body and the same bits
/// as a push from `load_interpolators_into`'s records of those fields,
/// under every strategy: the record a source builds is the one that load
/// would have stored.
pub(crate) fn push_fields_on<S: ExecSpace>(
    space: &S,
    strategy: Strategy,
    grid: &Grid,
    species: &mut Species,
    fields: &mut [Fields<'_>],
    acc: &Accumulator,
) -> PushStats {
    push_blocks(space, body(strategy), grid, species, fields, acc)
}

/// [`push_species_on`] with block `b`'s chunk pushed by `body` from
/// `srcs[b]`; `srcs` holds a source for every block.
fn push_blocks<S: ExecSpace, C: Source>(
    space: &S,
    body: Body<C>,
    grid: &Grid,
    species: &mut Species,
    srcs: &mut [C],
    acc: &Accumulator,
) -> PushStats {
    assert!(srcs.iter().all(|src| src.cells() == grid.cells()), "interpolator/grid mismatch");
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
    // the static blocks of the particles (`parallel_windows`' partition)
    let blocks = space.concurrency().min(n);
    // a block is its lane's only writer when it is the only block, or
    // when every block has a replica to itself (with fewer replicas than
    // blocks the sole claims take turns); only several blocks on the one
    // atomic lane must share it
    let claim = match acc.scatter_mode() {
        ScatterMode::Atomic if blocks > 1 => Claim::Shared,
        _ => Claim::Sole,
    };
    if blocks <= 1 {
        let sink = &mut Sink::new(acc.depositor(grid, 0, claim));
        return push_chunk(body, grid, &mut Chunk::whole(species), &mut srcs[0], sink, params);
    }
    assert!(srcs.len() >= blocks, "{} sources for {blocks} blocks", srcs.len());
    // the particles cut into the static blocks, each beside its source
    let mut chunks = Vec::with_capacity(blocks);
    let mut rest = Chunk::whole(species);
    for block in pk::RangePolicy::new(n).static_blocks(blocks) {
        let (chunk, tail) = rest.split_at(block.len());
        chunks.push(chunk);
        rest = tail;
    }
    // worker id = block index, which picks the block's scatter replica in
    // duplicated mode
    let crossings = space
        .parallel_windows((&mut chunks[..], &mut srcs[..blocks]), 1, |worker, _, (chunk, src)| {
            let sink = &mut Sink::new(acc.depositor(grid, worker, claim));
            push_chunk(body, grid, &mut chunk[0], &mut src[0], sink, params).crossings
        })
        .sum();
    PushStats { pushed: n, crossings }
}

/// A contiguous window into one species' particle arrays, pushed by a
/// single worker.
struct Chunk<'a> {
    q: f32,
    cell: &'a mut [u32],
    dx: &'a mut [f32],
    dy: &'a mut [f32],
    dz: &'a mut [f32],
    ux: &'a mut [f32],
    uy: &'a mut [f32],
    uz: &'a mut [f32],
    w: &'a [f32],
}

/// A chunk's arrays as one [`Split`] bundle: `cell`, the six floats and `w`.
type Columns<'a> = ((&'a mut [u32], [&'a mut [f32]; 6]), &'a [f32]);

impl<'a> Chunk<'a> {
    /// All of `species`.
    fn whole(species: &'a mut Species) -> Self {
        let Species { q, cell, dx, dy, dz, ux, uy, uz, w, .. } = species;
        let floats = [dx, dy, dz, ux, uy, uz].map(Vec::as_mut_slice);
        Self::of(*q, ((cell, floats), w))
    }

    /// The chunk of charge `q` over `columns`.
    fn of(q: f32, ((cell, [dx, dy, dz, ux, uy, uz]), w): Columns<'a>) -> Self {
        Chunk { q, cell, dx, dy, dz, ux, uy, uz, w }
    }
}

/// A chunk splits into the chunks of its particles `..mid` and `mid..`,
/// which is how `parallel_windows` hands each block its own.
impl Split for Chunk<'_> {
    fn len(&self) -> usize {
        self.cell.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let Chunk { q, cell, dx, dy, dz, ux, uy, uz, w } = self;
        let (lo, hi) = ((cell, [dx, dy, dz, ux, uy, uz]), w).split_at(mid);
        (Self::of(q, lo), Self::of(q, hi))
    }
}

/// One way to push a whole chunk into its sink with coefficients from a
/// source `C`: the three stages at one lane type, or guided's split
/// passes. Returns boundary crossings.
type Body<C> = fn(&Grid, &mut Chunk<'_>, &mut C, &mut Sink<'_>, PushParams) -> usize;

/// The body `strategy` names on this host.
fn body<C: Source>(strategy: Strategy) -> Body<C> {
    match strategy {
        Strategy::Auto => push_lanes::<f32, C>,
        Strategy::Guided => push_split::<C>,
        Strategy::Manual => push_lanes::<SimdF32<4>, C>,
        Strategy::AdHoc => push_adhoc::<C>,
    }
}

/// Push one chunk into its `sink` with `body`.
fn push_chunk<C: Source>(
    body: Body<C>,
    grid: &Grid,
    chunk: &mut Chunk<'_>,
    src: &mut C,
    sink: &mut Sink<'_>,
    params: PushParams,
) -> PushStats {
    let crossings = body(grid, chunk, src, sink, params);
    debug_assert_eq!(sink.queued, 0, "every group drains its crossings' segments");
    PushStats { pushed: chunk.len(), crossings }
}

/// The stages fused over a whole chunk at lane type `L`.
fn push_lanes<L: PushLane, C: Source>(
    grid: &Grid,
    s: &mut Chunk<'_>,
    src: &mut C,
    sink: &mut Sink<'_>,
    p: PushParams,
) -> usize {
    push_fused::<L, C>(grid, s, src, sink, p, 0..s.len())
}

/// The ad hoc body: eight lanes where the CPU has AVX2, [`V4F32`]
/// elsewhere.
fn push_adhoc<C: Source>(
    grid: &Grid,
    s: &mut Chunk<'_>,
    src: &mut C,
    sink: &mut Sink<'_>,
    p: PushParams,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `push_avx2` needs AVX2, which the line above found.
        return unsafe { push_avx2(grid, s, src, sink, p) };
    }
    push_lanes::<V4F32, C>(grid, s, src, sink, p)
}

/// The stages fused over a whole chunk at [`V8F32`], compiled for AVX2
/// with every stage inlined into it: the one place the push runs
/// `V8F32`. Callable only where the CPU has AVX2 ([`push_adhoc`] asks
/// first).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn push_avx2<C: Source>(
    grid: &Grid,
    s: &mut Chunk<'_>,
    src: &mut C,
    sink: &mut Sink<'_>,
    p: PushParams,
) -> usize {
    debug_assert!(is_x86_feature_detected!("avx2"));
    push_fused::<V8F32, C>(grid, s, src, sink, p, 0..s.len())
}

/// Most segments a [`Sink`] ever queues: four from every lane of the
/// group being moved.
const QUEUE_CAP: usize = 4 * MAX_LANES;

/// A chunk's way into the accumulator: its depositor, and a small SoA
/// queue of within-cell segments `(cell, p0 → p1, qw)` that the splitter
/// cut out of the cell-crossing moves of one group, with the row `(iy,
/// iz)` of each segment's cell, waiting to be weighed
/// in lanes like the in-cell lanes' segments. Deposits commute, so when a
/// segment reaches the depositor changes no edge total.
struct Sink<'a> {
    dep: RunDepositor<'a>,
    queued: usize,
    cell: [u32; QUEUE_CAP],
    row: [(u32, u32); QUEUE_CAP],
    p0: Xyz<[f32; QUEUE_CAP]>,
    p1: Xyz<[f32; QUEUE_CAP]>,
    qw: [f32; QUEUE_CAP],
    /// Segments handed to the depositor so far.
    #[cfg(test)]
    deposited: usize,
}

impl<'a> Sink<'a> {
    /// A sink with an empty queue. One depositor serves a whole chunk:
    /// same-cell runs (long after a cell sort) reach the accumulator once,
    /// when the cell changes or the chunk ends.
    fn new(dep: RunDepositor<'a>) -> Self {
        let zero = Xyz { x: [0.0; QUEUE_CAP], y: [0.0; QUEUE_CAP], z: [0.0; QUEUE_CAP] };
        Self {
            dep,
            queued: 0,
            cell: [0; QUEUE_CAP],
            row: [(0, 0); QUEUE_CAP],
            p0: zero,
            p1: zero,
            qw: [0.0; QUEUE_CAP],
            #[cfg(test)]
            deposited: 0,
        }
    }

    /// Deposit an in-cell lane's row of weights into `cell`.
    #[inline(always)]
    fn deposit(&mut self, cell: usize, row: &[f32; SLOTS]) {
        #[cfg(test)]
        {
            self.deposited += 1;
        }
        self.dep.deposit_weights(cell, row);
    }

    /// Queue the segment from `p0` to `p1` within `cell`. Indexing keeps
    /// the queue inside its capacity.
    #[inline(always)]
    fn queue(&mut self, cell: u32, row: (u32, u32), p0: Xyz<f32>, p1: Xyz<f32>, qw: f32) {
        let k = self.queued;
        self.cell[k] = cell;
        self.row[k] = row;
        (self.p0.x[k], self.p0.y[k], self.p0.z[k]) = (p0.x, p0.y, p0.z);
        (self.p1.x[k], self.p1.y[k], self.p1.z[k]) = (p1.x, p1.y, p1.z);
        self.qw[k] = qw;
        self.queued = k + 1;
    }

    /// Deposit every queued segment, `L::LANES` at a time from the newest
    /// — weights in lanes, one transposed row per segment, exactly as
    /// [`move_group`] treats its in-cell lanes; the lanes of a last, short
    /// group past the queue's oldest segment are weighed and dropped —
    /// each straight onto its edges, found from its row without a
    /// division, the open run left open.
    #[inline(always)]
    fn drain<L: PushLane>(&mut self) {
        while self.queued > 0 {
            let at = self.queued.saturating_sub(L::LANES);
            let p0 = Xyz::<L>::load(&self.p0.x, &self.p0.y, &self.p0.z, at);
            let p1 = Xyz::<L>::load(&self.p1.x, &self.p1.y, &self.p1.z, at);
            let mut rows = [[0.0f32; SLOTS]; MAX_LANES];
            L::store_tr(lane_segment_weights(p0, p1, L::load(&self.qw, at)), &mut rows);
            for (l, row) in rows.iter().enumerate().take(self.queued - at) {
                #[cfg(test)]
                {
                    self.deposited += 1;
                }
                let (iy, iz) = self.row[at + l];
                self.dep.deposit_aside(self.cell[at + l] as usize, (iy as usize, iz as usize), row);
            }
            self.queued = at;
        }
    }
}

/// The stages fused, one group of `L::LANES` particles at a time over
/// `range`; what is left of it past the last whole group goes through the
/// `f32` instantiation, out of line. Returns boundary crossings.
#[inline(always)]
fn push_fused<L: PushLane, C: Source>(
    grid: &Grid,
    s: &mut Chunk<'_>,
    src: &mut C,
    sink: &mut Sink<'_>,
    p: PushParams,
    range: Range<usize>,
) -> usize {
    let h = L::splat(p.qdt_2m);
    let cdt = Xyz::splat(p.cdt_dx2, p.cdt_dy2, p.cdt_dz2);
    let mut crossings = 0;
    let mut i = range.start;
    while i + L::LANES <= range.end {
        look_ahead(s.cell, i, L::LANES, |c| {
            src.ahead(c);
            sink.dep.prefetch(c);
        });
        let pos = Xyz::<L>::load(s.dx, s.dy, s.dz, i);
        let (e, b) = fields_at(&gather(src, &s.cell[i..i + L::LANES]), pos);
        let u = boris(h, Xyz::load(s.ux, s.uy, s.uz, i), e, b);
        u.store(s.ux, s.uy, s.uz, i);
        crossings += move_group(grid, sink, s, i, pos, displacement(u, cdt));
        i += L::LANES;
    }
    if i < range.end {
        crossings += push_tail(grid, s, src, sink, p, i..range.end);
    }
    crossings
}

/// The particles past a chunk's last whole group, at `f32`: behind a call,
/// so that a lane body carries no second copy of the stages for them.
#[inline(never)]
fn push_tail<C: Source>(
    grid: &Grid,
    s: &mut Chunk<'_>,
    src: &mut C,
    sink: &mut Sink<'_>,
    p: PushParams,
    range: Range<usize>,
) -> usize {
    push_fused::<f32, C>(grid, s, src, sink, p, range)
}

/// Scratch block size for the guided strategy's split passes.
const GUIDED_BLOCK: usize = 256;

/// The stages at `f32` as split passes over a [`GUIDED_BLOCK`]-particle
/// scratch block: the cell-indexed gather and the conflict-prone mover
/// each get a loop of their own, which leaves Boris and the displacement
/// as dense fixed-shape loops the vectorizer handles.
fn push_split<C: Source>(
    grid: &Grid,
    s: &mut Chunk<'_>,
    src: &mut C,
    sink: &mut Sink<'_>,
    p: PushParams,
) -> usize {
    let cdt = Xyz::splat(p.cdt_dx2, p.cdt_dy2, p.cdt_dz2);
    let zero = Xyz::<f32>::splat(0.0, 0.0, 0.0);
    let (mut e, mut b, mut m) = ([zero; GUIDED_BLOCK], [zero; GUIDED_BLOCK], [zero; GUIDED_BLOCK]);
    let mut crossings = 0;
    for base in (0..s.len()).step_by(GUIDED_BLOCK) {
        let len = GUIDED_BLOCK.min(s.len() - base);
        // pass 1: gather + field evaluation
        for k in 0..len {
            let i = base + k;
            look_ahead(s.cell, i, 1, |c| src.ahead(c));
            let pos = Xyz::load(s.dx, s.dy, s.dz, i);
            (e[k], b[k]) = fields_at(&gather::<f32, C>(src, &s.cell[i..=i]), pos);
        }
        // pass 2: Boris and the displacement, dense
        for k in 0..len {
            let i = base + k;
            let u = boris(p.qdt_2m, Xyz::load(s.ux, s.uy, s.uz, i), e[k], b[k]);
            u.store(s.ux, s.uy, s.uz, i);
            m[k] = displacement(u, cdt);
        }
        // pass 3: mover
        for (k, &m) in m[..len].iter().enumerate() {
            let i = base + k;
            look_ahead(s.cell, i, 1, |c| sink.dep.prefetch(c));
            let pos = Xyz::load(s.dx, s.dy, s.dz, i);
            crossings += move_group::<f32>(grid, sink, s, i, pos, m);
        }
    }
    crossings
}

/// How many particles ahead of the group it is pushing the push asks the
/// cache for cells: far enough that a miss to memory is back before the
/// group that needs it, near enough that the lines are still in L1 then
/// (DESIGN §5b has the sweep). In particles, not groups, so every
/// strategy looks the same distance ahead.
const LOOKAHEAD: usize = 64;

/// Stage 0, the look-ahead: `hint` every cell among those of the `lanes`
/// particles [`LOOKAHEAD`] past `i` that differs from the cell before it —
/// one hint per same-cell run, not per particle. The push streams
/// `cells`, so it knows what its gather and scatter will need long before
/// it gets there: the source gets the run's coefficients under way
/// ([`Source::ahead`]), the depositor its edges. A window past the chunk's
/// end is cut short.
#[inline(always)]
fn look_ahead(cells: &[u32], i: usize, lanes: usize, mut hint: impl FnMut(usize)) {
    let Some(ahead) = cells.get(i + LOOKAHEAD - 1..) else { return };
    for pair in ahead.windows(2).take(lanes) {
        if pair[1] != pair[0] {
            hint(pair[1] as usize);
        }
    }
}

/// Where stage 1 takes a group's 18 coefficients from: stored records
/// (`&[Interpolator]`, one per cell), or the fields themselves
/// ([`Fields`]), which keep what they built. Each block of a push takes
/// a source of its own from the caller.
trait Source: Send {
    /// Cells the source covers.
    fn cells(&self) -> usize;

    /// Stage 0 for a run in `cell` [`LOOKAHEAD`] particles ahead: get
    /// what its gather needs under way. A cell the grid does not have is
    /// skipped; the gather that names it panics.
    fn ahead(&mut self, cell: usize);

    /// `cell`'s 18 coefficients.
    fn record(&mut self, cell: usize) -> &[f32; COEFFS];

    /// The records of a mixed group's `cells`, one per lane; the rows past
    /// `cells.len()` are not read.
    fn rows(&mut self, cells: &[u32]) -> [&[f32; COEFFS]; MAX_LANES];
}

/// The stored records: VPIC's gather, one 72-byte record per particle.
impl Source for &[Interpolator] {
    fn cells(&self) -> usize {
        self.len()
    }

    /// Hint the cache for the record: its first and last coefficient name
    /// both lines it can lie on.
    #[inline(always)]
    fn ahead(&mut self, cell: usize) {
        if let Some(record) = self.get(cell) {
            pk::prefetch(&record.0[0]);
            pk::prefetch(&record.0[COEFFS - 1]);
        }
    }

    #[inline(always)]
    fn record(&mut self, cell: usize) -> &[f32; COEFFS] {
        &self[cell].0
    }

    #[inline(always)]
    fn rows(&mut self, cells: &[u32]) -> [&[f32; COEFFS]; MAX_LANES] {
        let mut rows = [&self[cells[0] as usize].0; MAX_LANES];
        for (row, &cell) in rows.iter_mut().zip(cells).skip(1) {
            *row = &self[cell as usize].0;
        }
        rows
    }
}

/// Cells of a grid small enough that a [`Fields`] cache holds all of it:
/// 2.4 MiB of records and tags, in the particle-phase scratch the
/// simulation's sort uses first (8 B a particle of its longest species).
const WHOLE: usize = 1 << 15;

/// The records a [`Fields`] source has built, direct-mapped by cell, 76 B
/// a slot. Its two buffers are the simulation's particle-phase scratch
/// ([`Scratch`]), which the step's sort used just before for its
/// permutation and spare column; they are stale once the fields move,
/// and [`Fields::new`] empties them, so nothing the cache or the sort
/// leaves in them is read by the other.
#[derive(Clone)]
struct CoeffCache {
    /// The cell whose record each slot holds; `u32::MAX` for none.
    tags: Vec<u32>,
    /// The slots' records, flat, [`COEFFS`] floats a slot.
    records: Vec<f32>,
}

/// The fields as a [`Source`]: a cell's record is built from the E and B
/// around it (`interp::load_cell_at`, the bits `load_interpolators_into`
/// would store for it) the first time the push asks for it, and kept in a
/// [`CoeffCache`] for the rest of the particle phase, every species
/// included. The cache holds the whole grid up to [`WHOLE`] cells, and
/// else a slot for every cell of any window of consecutive cells two
/// planes and two rows wide, so that a cell the push comes back to —
/// after a particle that crossed into a neighbor, above all — is built
/// once, not once per run.
#[derive(Clone)]
pub(crate) struct Fields<'a> {
    f: &'a FieldArray,
    /// Where the cell built last is: the next is found from it, by a
    /// subtraction while the push stays in its row.
    site: Site,
    /// The cache's slot count − 1 (a power of two − 1).
    mask: usize,
    cache: CoeffCache,
    /// A mixed group's records, one per cell change.
    recs: [[f32; COEFFS]; MAX_LANES],
}

impl<'a> Fields<'a> {
    /// The source of `f`'s records, kept in a cache in the buffers of
    /// `scratch`, emptied and sized for `f`'s grid first.
    pub(crate) fn new(f: &'a FieldArray, scratch: Scratch) -> Self {
        let g = &f.grid;
        let window = 2 * (g.nx * g.ny + g.nx + 1) + 1;
        let slots = if g.cells() <= WHOLE { g.cells() } else { window.min(g.cells()) };
        Self::with_slots(f, scratch, slots.next_power_of_two())
    }

    /// [`Fields::new`] with `slots` (a power of two) slots.
    fn with_slots(f: &'a FieldArray, scratch: Scratch, slots: usize) -> Self {
        let g = &f.grid;
        let Scratch { words: mut tags, floats: mut records } = scratch;
        tags.clear();
        tags.resize(slots, u32::MAX);
        records.resize(slots * COEFFS, 0.0);
        let cache = CoeffCache { tags, records };
        Self { f, site: g.site(0, 0, 0), mask: slots - 1, cache, recs: [[0.0; COEFFS]; MAX_LANES] }
    }

    /// The cache's buffers, to lend the next step's sort and source.
    pub(crate) fn into_scratch(self) -> Scratch {
        let CoeffCache { tags, records } = self.cache;
        Scratch { words: tags, floats: records }
    }

    /// Build `cell`'s record into `slot`. Out of line: once per cell the
    /// cache misses, not once per group.
    #[inline(never)]
    fn build(&mut self, cell: usize, slot: usize) {
        self.site = self.f.grid.locate(self.site, cell);
        load_cell_at(self.f, self.site, &mut self.cache.records.as_chunks_mut().0[slot]);
        self.cache.tags[slot] = cell as u32;
    }
}

impl Source for Fields<'_> {
    fn cells(&self) -> usize {
        self.f.grid.cells()
    }

    /// Build the record now, unless the cache has it: the group that
    /// needs it finds it there, and the build overlaps the groups before.
    #[inline(always)]
    fn ahead(&mut self, cell: usize) {
        let slot = cell & self.mask;
        if self.cache.tags[slot] != cell as u32 && cell < self.cells() {
            self.build(cell, slot);
        }
    }

    #[inline(always)]
    fn record(&mut self, cell: usize) -> &[f32; COEFFS] {
        let slot = cell & self.mask;
        if self.cache.tags[slot] != cell as u32 {
            self.build(cell, slot);
        }
        &self.cache.records.as_chunks().0[slot]
    }

    /// One record per cell change, copied out of the cache (two cells of
    /// one group may share a slot), lane `l` reading record `at[l]`.
    #[inline(always)]
    fn rows(&mut self, cells: &[u32]) -> [&[f32; COEFFS]; MAX_LANES] {
        let mut at = [0; MAX_LANES];
        let mut k = 0;
        self.recs[0] = *self.record(cells[0] as usize);
        for (l, pair) in cells.windows(2).enumerate() {
            if pair[1] != pair[0] {
                k += 1;
                self.recs[k] = *self.record(pair[1] as usize);
            }
            at[l + 1] = k;
        }
        let mut rows = [&self.recs[0]; MAX_LANES];
        for (row, &k) in rows.iter_mut().zip(&at) {
            *row = &self.recs[k];
        }
        rows
    }
}

/// Stage 1, the run-aware gather: the coefficients of one group's cells
/// from `src`, one lane vector per coefficient. A group within one cell
/// (every group after a cell sort, but for the run boundaries) broadcasts
/// that cell's record; a mixed group takes one record per lane and
/// transposes them in registers.
#[inline(always)]
fn gather<L: PushLane, C: Source>(src: &mut C, cells: &[u32]) -> [L; COEFFS] {
    if cells.iter().all(|&c| c == cells[0]) {
        let mut c = [L::splat(0.0); COEFFS];
        for (c, &v) in c.iter_mut().zip(src.record(cells[0] as usize)) {
            *c = L::splat(v);
        }
        c
    } else {
        L::load_tr(src.rows(cells))
    }
}

/// `1/γ` of momentum `u`.
#[inline(always)]
fn inv_gamma<L: PushLane>(u: Xyz<L>) -> L {
    let one = L::splat(1.0);
    one.div(one.add(u.x.mul(u.x)).add(u.y.mul(u.y)).add(u.z.mul(u.z)).sqrt())
}

/// Stage 2: the momentum update (Boris rotation with half E kicks) under
/// half-kick coefficient `h`. Returns the new momentum.
#[inline(always)]
fn boris<L: PushLane>(h: L, u: Xyz<L>, e: Xyz<L>, b: Xyz<L>) -> Xyz<L> {
    let (one, two) = (L::splat(1.0), L::splat(2.0));
    // half electric kick
    let u = kick(u, h, e);
    // rotation
    let gi = inv_gamma(u);
    let t = Xyz { x: h.mul(b.x).mul(gi), y: h.mul(b.y).mul(gi), z: h.mul(b.z).mul(gi) };
    let t2 = t.x.mul(t.x).add(t.y.mul(t.y)).add(t.z.mul(t.z));
    let s = two.div(one.add(t2));
    let v = add(u, cross(u, t));
    let u = kick(u, s, cross(v, t));
    // second half electric kick
    kick(u, h, e)
}

/// `u + s·v` per axis.
#[inline(always)]
fn kick<L: PushLane>(u: Xyz<L>, s: L, v: Xyz<L>) -> Xyz<L> {
    Xyz { x: u.x.add(s.mul(v.x)), y: u.y.add(s.mul(v.y)), z: u.z.add(s.mul(v.z)) }
}

/// `a + b` per axis.
#[inline(always)]
fn add<L: PushLane>(a: Xyz<L>, b: Xyz<L>) -> Xyz<L> {
    Xyz { x: a.x.add(b.x), y: a.y.add(b.y), z: a.z.add(b.z) }
}

/// `a × b`.
#[inline(always)]
fn cross<L: PushLane>(a: Xyz<L>, b: Xyz<L>) -> Xyz<L> {
    Xyz {
        x: a.y.mul(b.z).sub(a.z.mul(b.y)),
        y: a.z.mul(b.x).sub(a.x.mul(b.z)),
        z: a.x.mul(b.y).sub(a.y.mul(b.x)),
    }
}

/// Stage 3a: the step's displacement in offset units for momentum `u`,
/// `cdt` being `2·dt/d` per axis.
#[inline(always)]
fn displacement<L: PushLane>(u: Xyz<L>, cdt: Xyz<L>) -> Xyz<L> {
    let gi = inv_gamma(u);
    Xyz { x: u.x.mul(gi).mul(cdt.x), y: u.y.mul(gi).mul(cdt.y), z: u.z.mul(gi).mul(cdt.z) }
}

/// Lanes of `t` inside the cell `[-1, 1]³`, as bits. A NaN is outside.
#[inline(always)]
fn in_cell<L: PushLane>(t: Xyz<L>) -> u32 {
    let (lo, hi) = (L::splat(-1.0), L::splat(1.0));
    t.x.within_bits(lo, hi) & t.y.within_bits(lo, hi) & t.z.within_bits(lo, hi)
}

/// Stage 3b, the in-cell mover: advance the group at `i` from `pos` by
/// `m`. Lanes whose target stays inside the cell deposit their one segment
/// — twelve weights per lane computed in lanes, then transposed to one
/// row per particle — and take the target as their position;
/// the others go through [`split_move`], whose segments are deposited the
/// same way when the group ends. Returns boundary crossings.
#[inline(always)]
fn move_group<L: PushLane>(
    grid: &Grid,
    sink: &mut Sink<'_>,
    s: &mut Chunk<'_>,
    i: usize,
    pos: Xyz<L>,
    m: Xyz<L>,
) -> usize {
    let target = add(pos, m);
    let inside = in_cell(target);
    let qw = L::splat(s.q).mul(L::load(s.w, i));
    let mut rows = [[0.0f32; SLOTS]; MAX_LANES];
    if inside != 0 {
        L::store_tr(lane_segment_weights(pos, target, qw), &mut rows);
    }
    // every lane takes its target; the slots of the lanes that leave the
    // cell are rewritten below
    target.store(s.dx, s.dy, s.dz, i);
    let mut crossings = 0;
    for (l, row) in rows.iter().enumerate().take(L::LANES) {
        let k = i + l;
        if inside & (1 << l) != 0 {
            sink.deposit(s.cell[k] as usize, row);
        } else {
            let (qw, cell) = (qw.extract(l), &mut s.cell[k]);
            let (end, crossed) = split_move(grid, sink, qw, cell, pos.extract(l), m.extract(l));
            (s.dx[k], s.dy[k], s.dz[k]) = (end.x, end.y, end.z);
            crossings += crossed;
        }
    }
    sink.drain::<L>();
    crossings
}

/// The scalar splitter: advance a particle from offsets `start` by `m`,
/// cutting the trajectory at cell boundaries and queueing each of its at
/// most four within-cell segments on `sink` with its cell's row. Updates
/// the particle's cell; returns its final offsets and the boundary
/// crossings.
#[inline]
fn split_move(
    grid: &Grid,
    sink: &mut Sink<'_>,
    qw: f32,
    cell: &mut u32,
    start: Xyz<f32>,
    m: Xyz<f32>,
) -> (Xyz<f32>, usize) {
    let Xyz { mut x, mut y, mut z } = start;
    let Xyz { x: mut mx, y: mut my, z: mut mz } = m;
    let mut crossings = 0usize;
    // the cell's coordinates, stepped across the faces without a division
    let (mut ix, mut iy, mut iz) = grid.coords(*cell as usize);
    // at most one crossing per axis per step (CFL guarantees |m| ≤ 2)
    for _ in 0..4 {
        let tx = x + mx;
        let ty = y + my;
        let tz = z + mz;
        // fraction of the remaining move until the first boundary hit
        let mut alpha = 1.0f32;
        let mut axis = usize::MAX;
        let candidates = [(tx, mx, x), (ty, my, y), (tz, mz, z)];
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
            // no crossing: the final segment
            let target = Xyz { x: tx, y: ty, z: tz };
            sink.queue(*cell, (iy as u32, iz as u32), Xyz { x, y, z }, target, qw);
            return (target.map(|t| t.clamp(-1.0, 1.0)), crossings);
        }
        // a segment up to the boundary; clamp the non-crossed coordinates,
        // which f32 rounding can push a few ulp past the face when two
        // axes cross at nearly equal fractions
        let bx = (x + alpha * mx).clamp(-1.0, 1.0);
        let by = (y + alpha * my).clamp(-1.0, 1.0);
        let bz = (z + alpha * mz).clamp(-1.0, 1.0);
        sink.queue(*cell, (iy as u32, iz as u32), Xyz { x, y, z }, Xyz { x: bx, y: by, z: bz }, qw);
        // cross into the periodic neighbor along the axis, and flip the
        // crossed axis's offset
        let up = [mx, my, mz][axis] > 0.0;
        let (i, n) = match axis {
            0 => (&mut ix, grid.nx),
            1 => (&mut iy, grid.ny),
            _ => (&mut iz, grid.nz),
        };
        *i = match (up, *i) {
            (true, i) if i + 1 == n => 0,
            (true, i) => i + 1,
            (false, 0) => n - 1,
            (false, i) => i - 1,
        };
        *cell = grid.voxel(ix, iy, iz) as u32;
        x = if axis == 0 { -bx.signum() } else { bx };
        y = if axis == 1 { -by.signum() } else { by };
        z = if axis == 2 { -bz.signum() } else { bz };
        mx *= 1.0 - alpha;
        my *= 1.0 - alpha;
        mz *= 1.0 - alpha;
        // zero out the crossed axis's handled part is implicit: the
        // remaining move continues from the flipped boundary position
        crossings += 1;
    }
    (Xyz { x, y, z }, crossings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulate::EDGES;
    use crate::field::FieldArray;
    use crate::interp::load_interpolators;

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

    /// The bits of every per-particle array, NaNs included.
    fn particle_bits(s: &Species) -> Vec<Vec<u32>> {
        let bits = |a: &[f32]| a.iter().map(|x| x.to_bits()).collect();
        let floats = [&s.dx, &s.dy, &s.dz, &s.ux, &s.uy, &s.uz];
        std::iter::once(s.cell.clone()).chain(floats.map(|a| bits(a))).collect()
    }

    /// Every cell's raw edge totals.
    fn raw_totals(acc: &Accumulator) -> Vec<[i64; EDGES]> {
        (0..acc.cells()).map(|c| acc.cell_raw(c)).collect()
    }

    /// Whether ad hoc runs `V8F32` under AVX2 on this host.
    #[cfg(target_arch = "x86_64")]
    fn avx2() -> bool {
        is_x86_feature_detected!("avx2")
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn avx2() -> bool {
        false
    }

    /// Every lane type's body — `V8F32` through the AVX2 entry, where the
    /// CPU has AVX2 — and guided's split passes. On an AVX2 host ad hoc no
    /// longer reaches `V4F32`, which is still what runs on one without.
    fn bodies<C: Source>() -> Vec<(&'static str, Body<C>)> {
        let mut all: Vec<(&'static str, Body<C>)> = vec![
            ("f32", push_lanes::<f32, C>),
            ("guided", push_split::<C>),
            ("SimdF32<4>", push_lanes::<SimdF32<4>, C>),
            ("V4F32", push_lanes::<V4F32, C>),
        ];
        if avx2() {
            all.push(("V8F32", push_adhoc::<C>));
        }
        all
    }

    /// The particles' bits, every cell's raw edge totals, and the summed
    /// statistics of some pushes.
    type Pushed = (Vec<Vec<u32>>, Vec<[i64; EDGES]>, PushStats);

    /// Three pushes of `start` by `body` from `src` into one accumulator of
    /// `lanes` replicas (in duplicated mode).
    fn pushed<S: ExecSpace, C: Source + Clone>(
        space: &S,
        body: Body<C>,
        (mode, lanes): (ScatterMode, usize),
        grid: &Grid,
        src: C,
        start: &Species,
    ) -> Pushed {
        let mut s = start.clone();
        let acc = Accumulator::new(grid.cells(), lanes, mode);
        let stats = (0..3).fold(PushStats::default(), |sum, _| {
            let srcs = &mut vec![src.clone(); space.concurrency()];
            let step = push_blocks(space, body, grid, &mut s, srcs, &acc);
            PushStats { pushed: sum.pushed + step.pushed, crossings: sum.crossings + step.crossings }
        });
        (particle_bits(&s), raw_totals(&acc), stats)
    }

    /// Every body's pushes of `start` from `src`, serial and on `threads`,
    /// into each of `lanes`, give `reference`'s bits.
    fn every_body_gives<C: Source + Clone>(
        reference: &Pushed,
        (grid, src, start): (&Grid, C, &Species),
        lanes: &[(ScatterMode, usize)],
        threads: &pk::Threads,
        what: &str,
    ) {
        for (name, body) in bodies::<C>() {
            for &lanes in lanes {
                let serial = pushed(&Serial, body, lanes, grid, src.clone(), start);
                assert!(serial == *reference, "{what}: {name} serial {lanes:?}");
                let parallel = pushed(threads, body, lanes, grid, src.clone(), start);
                assert!(parallel == *reference, "{what}: {name} threads {lanes:?}");
            }
        }
    }

    /// A smooth E and B on `grid`, every component its own wave.
    fn wavy(grid: &Grid) -> FieldArray {
        let mut f = FieldArray::new(grid.clone());
        for v in 0..grid.cells() {
            let x = v as f32;
            f.ex[v] = 0.003 * (x * 0.1).sin();
            f.ey[v] = 0.002 * (x * 0.2).cos();
            f.ez[v] = 0.001 * (x * 0.3).sin();
            f.bx[v] = 0.02 * (x * 0.07).cos();
            f.by[v] = 0.03 * (x * 0.11).sin();
            f.bz[v] = 0.1 + 0.01 * (x * 0.05).sin();
        }
        f
    }

    /// Interpolators of [`wavy`]'s fields.
    fn wavy_interps(grid: &Grid) -> Vec<Interpolator> {
        load_interpolators(&wavy(grid))
    }

    /// `n` electrons of thermal spread `uth`, uniform over `grid`.
    fn load(grid: &Grid, n: usize, uth: f32, sorted: bool) -> Species {
        let mut s = Species::new("e", -1.0, 1.0);
        s.load_uniform(grid, n, uth, (0.05, 0.0, 0.0), 1.0, 77);
        if sorted {
            s.sort(psort::SortOrder::Standard);
        }
        s
    }

    #[test]
    fn all_strategies_are_bitwise_identical() {
        // Every lane type instantiates one body with exact lane ops and
        // fixed-point deposits, so trajectories *and* edge totals are
        // bit-equal for any space, scatter mode and replica count — the
        // property the multi-rank gather and heterogeneous per-rank configs
        // rely on — and for either coefficient source: the records stored
        // by `load_interpolators`, or records built from the fields into a
        // cache of the whole grid (what a small grid gets), of the window
        // a large grid gets, or of eight slots (cells of one group share a
        // slot). The loads are chosen for where the lane paths differ from the
        // scalar one; the lanes for who claims what: one block alone on the
        // atomic lane (sole), three sharing it (shared, `fetch_add`), three
        // with a replica each, and three blocks queueing for one or two
        // replicas (ids wrap). The grid's sides differ, so a row, a plane
        // and the z face end at different cells.
        let grid = Grid::new(7, 6, 5);
        let fields = wavy(&grid);
        let interps = load_interpolators(&fields);
        let records: &[Interpolator] = &interps;
        let load = |n: usize, uth: f32, sorted: bool| load(&grid, n, uth, sorted);
        // a lane whose displacement is not finite, inside a whole group
        let mut non_finite = load(3001, 0.2, true);
        non_finite.ux[6] = f32::INFINITY;
        non_finite.uz[1201] = f32::NAN;
        let loads = [
            // same-cell runs, some of them cut by a block boundary
            ("cell-sorted: broadcast gather", load(3001, 0.2, true)),
            ("shuffled: transposed gather, mixed-cell groups", load(1001, 0.2, false)),
            ("hot: most lanes cross, several faces a step", load(1001, 2.0, false)),
            // with three workers the chunk starts are not multiples of 4
            ("8k+1 particles", load(1001, 0.3, true)),
            ("8k+2 particles", load(1002, 0.3, false)),
            ("8k+3 particles", load(1003, 0.3, true)),
            ("8k+7 particles", load(1007, 0.3, false)),
            ("a non-finite lane", non_finite),
        ];
        let atomic = (ScatterMode::Atomic, 1);
        let lanes: Vec<_> =
            [atomic].into_iter().chain((1..=3).map(|n| (ScatterMode::Duplicated, n))).collect();
        let threads = pk::Threads::new(3);
        let auto = body(Strategy::Auto);
        let caches = [
            ("whole grid", Fields::new(&fields, Scratch::default())),
            ("window", Fields::with_slots(&fields, Scratch::default(), 128)),
            ("eight slots", Fields::with_slots(&fields, Scratch::default(), 8)),
        ];
        assert!(caches[0].1.mask + 1 >= grid.cells() && 128 < grid.cells());
        for (what, start) in &loads {
            let reference = pushed(&Serial, auto, atomic, &grid, records, start);
            every_body_gives(&reference, (&grid, records, start), &lanes, &threads, what);
            for (cache, src) in &caches {
                let from_fields = (&grid, src.clone(), start);
                let what = format!("{what}, from fields, {cache}");
                every_body_gives(&reference, from_fields, &lanes, &threads, &what);
            }
        }
        // the loads did exercise what they are named for
        let crossings = |i: usize| pushed(&Serial, auto, atomic, &grid, records, &loads[i].1).2.crossings;
        assert!(crossings(2) > 2 * 1001, "hot load: {} crossings", crossings(2));
        assert!(crossings(0) < 3001, "cold load: {} crossings", crossings(0));
        let nan = pushed(&Serial, body(Strategy::AdHoc), atomic, &grid, records, &loads[7].1).0;
        assert!(f32::from_bits(nan[1][6]).is_nan() && f32::from_bits(nan[3][1201]).is_nan());
        // the sorted load has runs that end at a row's last cell (its +x̂
        // neighbor wraps), at a plane's last (+ŷ wraps) and at the grid's
        // last (+ẑ wraps too)
        for end in [grid.voxel(6, 2, 2), grid.voxel(6, 5, 2), grid.voxel(6, 5, 4)] {
            assert!(loads[0].1.cell.contains(&(end as u32)), "no run at cell {end}");
        }
    }

    #[test]
    fn look_ahead_off_the_end_across_blocks_and_past_the_chunk_changes_nothing() {
        // The window `LOOKAHEAD` particles ahead runs off the chunk's end
        // (every length), is longer than the whole chunk (below 64, and
        // every chunk of three workers but 257's), starts exactly at the
        // end (64, 65) and straddles the guided strategy's 256-particle
        // block (257). Shuffled cells: every lane of every window hints,
        // for the records and for the fields the records are built from.
        let grid = Grid::new(6, 6, 6);
        let fields = wavy(&grid);
        let interps = load_interpolators(&fields);
        let records: &[Interpolator] = &interps;
        let lanes = [(ScatterMode::Atomic, 1), (ScatterMode::Duplicated, 3)];
        let threads = pk::Threads::new(3);
        for n in [1, 3, 4, 5, 7, 8, 9, 63, 64, 65, 67, 130, 257] {
            let start = load(&grid, n, 0.3, false);
            let reference = pushed(&Serial, body(Strategy::Auto), lanes[0], &grid, records, &start);
            assert_eq!(reference.2.pushed, 3 * n);
            every_body_gives(&reference, (&grid, records, &start), &lanes, &threads, &format!("{n}"));
            let from_fields = (&grid, Fields::new(&fields, Scratch::default()), &start);
            every_body_gives(&reference, from_fields, &lanes, &threads, &format!("{n}, from fields"));
        }
    }

    #[test]
    fn a_hint_for_an_out_of_range_cell_neither_panics_nor_moves_the_panic() {
        // Particle 70 names a cell the grid does not have. The look-ahead
        // sees it from the group at 0 or 4 on and skips it (no record to
        // hint or build, no edges); the push still panics where it always did, in the gather
        // of the group that holds the particle, with the particles before
        // that group pushed and the rest untouched. Guided gathers a whole
        // block before it pushes any of it; ad hoc's groups are eight
        // particles under AVX2. The records' gather panics indexing them,
        // the fields' where it looks the cell up.
        let grid = Grid::new(6, 6, 6);
        let fields = wavy(&grid);
        let interps = load_interpolators(&fields);
        let (n, bad) = (130, 70);
        let mut start = load(&grid, n, 0.3, false);
        start.cell[bad] = grid.cells() as u32;
        let cells = grid.cells();
        let adhoc = if avx2() { 8 } else { 4 };
        let first_unpushed = [
            (Strategy::Auto, bad),
            (Strategy::Guided, 0),
            (Strategy::Manual, bad - bad % 4),
            (Strategy::AdHoc, bad - bad % adhoc),
        ];
        for from_fields in [false, true] {
            let message = if from_fields {
                format!("cell {cells} out of range for a grid of {cells} cells")
            } else {
                format!("index out of bounds: the len is {cells} but the index is {cells}")
            };
            let push = |strategy, s: &mut Species, acc: &Accumulator| match from_fields {
                true => push_fields_on(&Serial, strategy, &grid, s, &mut [Fields::new(&fields, Scratch::default())], acc),
                false => push_species(strategy, &grid, s, &interps, acc),
            };
            for (strategy, first) in first_unpushed {
                let mut s = start.clone();
                let acc = Accumulator::new(cells, 1, ScatterMode::Atomic);
                let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    push(strategy, &mut s, &acc)
                }))
                .expect_err("the gather names a cell without a record");
                assert_eq!(panic.downcast_ref::<String>(), Some(&message), "{strategy}");
                // the particles before the panic: what a push of them alone gives
                let mut alone = Species::new("e", start.q, start.m);
                for p in 0..first {
                    alone.push_record(&start.record(p));
                }
                push(strategy, &mut alone, &Accumulator::new(cells, 1, ScatterMode::Atomic));
                let (before, untouched) = (particle_bits(&alone), particle_bits(&start));
                for (a, got) in particle_bits(&s).iter().enumerate() {
                    let what = format!("{strategy}, from fields: {from_fields}: array {a}");
                    assert!(got[..first] == before[a][..], "{what} before the panic");
                    assert!(got[first..] == untouched[a][first..], "{what} after it");
                }
            }
        }
    }

    #[test]
    fn two_serial_pushes_into_one_accumulator_take_turns() {
        // Each thread's one-block push claims the atomic lane as its sole
        // writer and adds without atomics; what keeps the other thread's
        // adds from being lost is that it waits for the claim.
        let grid = Grid::new(6, 6, 6);
        let interps = wavy_interps(&grid);
        let (a, b) = (load(&grid, 3001, 0.2, true), load(&grid, 2002, 2.0, false));
        let push = |s: &Species, acc: &Accumulator| {
            push_species(Strategy::default(), &grid, &mut s.clone(), &interps, acc);
        };
        let in_turn = Accumulator::new(grid.cells(), 1, ScatterMode::Atomic);
        push(&a, &in_turn);
        push(&b, &in_turn);
        let together = Accumulator::new(grid.cells(), 1, ScatterMode::Atomic);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for s in [&a, &b] {
                let (start, together) = (&start, &together);
                scope.spawn(move || {
                    start.wait();
                    push(s, together);
                });
            }
        });
        assert!(raw_totals(&together) == raw_totals(&in_turn));
    }

    /// One push of `s` by `body` as a single chunk: segments deposited,
    /// crossings.
    fn segments_deposited<'r>(
        body: Body<&'r [Interpolator]>,
        mut records: &'r [Interpolator],
        grid: &Grid,
        s: &mut Species,
    ) -> (usize, usize) {
        let acc = Accumulator::new(grid.cells(), 1, ScatterMode::Atomic);
        let params = PushParams::new(grid, s.q, s.m);
        let sink = &mut Sink::new(acc.depositor(grid, 0, Claim::Sole));
        let stats = push_chunk(body, grid, &mut Chunk::whole(s), &mut records, sink, params);
        assert_eq!(sink.queued, 0, "segments left in the queue");
        (sink.deposited, stats.crossings)
    }

    #[test]
    fn every_queued_segment_is_deposited_once() {
        // A particle that crosses k faces moves through k + 1 cells, one
        // segment in each. On the hot load most lanes of a group cross,
        // several faces a step: the queue fills towards its capacity
        // (indexing past it would panic) and drains at the group's end.
        let grid = Grid::new(6, 6, 6);
        let interps = wavy_interps(&grid);
        for (name, body) in bodies() {
            let mut hot = load(&grid, 1001, 2.0, false);
            let (segments, crossings) = segments_deposited(body, &interps, &grid, &mut hot);
            assert!(crossings > 1001 / 2, "{name}: {crossings} crossings");
            assert_eq!(segments, 1001 + crossings, "{name}");
            // a chunk of whole groups whose last particle alone crosses:
            // its two segments fill a short group of lanes
            let mut last = load(&grid, 8, 0.0, true);
            (last.dx[7], last.ux[7]) = (0.99, 2.0);
            let (segments, crossings) = segments_deposited(body, &interps, &grid, &mut last);
            assert_eq!((segments, crossings), (8 + 1, 1), "{name}");
        }
    }

    fn in_cell_bits<L: PushLane>(t: &Xyz<[f32; 8]>) -> u32 {
        (0..8 / L::LANES).fold(0, |bits, g| {
            let group = Xyz::<L>::load(&t.x, &t.y, &t.z, g * L::LANES);
            bits | in_cell(group) << (g * L::LANES)
        })
    }

    #[test]
    fn lanes_that_leave_the_cell_or_are_not_finite_go_to_the_scalar_mover() {
        // lanes 0 and 6 inside (faces count as inside), 1 outside in y by
        // one ulp and 5 in x, 2 NaN in z and 7 in x, 3 infinite in x and
        // 4 in y
        let t = Xyz {
            x: [1.0, 0.0, 0.0, f32::NEG_INFINITY, 0.0, -1.0 - f32::EPSILON, -1.0, f32::NAN],
            y: [-1.0, 1.0 + f32::EPSILON, 0.5, 0.0, f32::INFINITY, 0.0, 1.0, 0.0],
            z: [-0.0, 0.0, f32::NAN, 0.0, 0.0, 0.0, 1.0, 0.0],
        };
        let want = 0b0100_0001;
        assert_eq!(in_cell_bits::<f32>(&t), want);
        assert_eq!(in_cell_bits::<SimdF32<4>>(&t), want);
        assert_eq!(in_cell_bits::<V4F32>(&t), want);
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            assert_eq!(in_cell_bits::<V8F32>(&t), want);
        }
    }

    /// [`gather`] at `L` from `src` over `cells` in groups of `L::LANES`:
    /// coefficient `k` of lane `l`, for every lane.
    fn gathered<L: PushLane, C: Source>(src: &mut C, cells: &[u32; 8]) -> Vec<[f32; COEFFS]> {
        let mut lanes = vec![[0.0; COEFFS]; 8];
        for g in (0..8).step_by(L::LANES) {
            let c = gather::<L, C>(src, &cells[g..g + L::LANES]);
            for (l, lane) in lanes[g..g + L::LANES].iter_mut().enumerate() {
                *lane = std::array::from_fn(|k| c[k].extract(l));
            }
        }
        lanes
    }

    /// [`gathered`] at every lane type is `want`.
    fn gathers<C: Source>(src: &mut C, cells: &[u32; 8], want: &[[f32; COEFFS]], what: &str) {
        assert_eq!(gathered::<f32, C>(src, cells), want, "{what} {cells:?}");
        assert_eq!(gathered::<SimdF32<4>, C>(src, cells), want, "{what}, manual {cells:?}");
        assert_eq!(gathered::<V4F32, C>(src, cells), want, "{what}, adhoc, SSE {cells:?}");
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            assert_eq!(gathered::<V8F32, C>(src, cells), want, "{what}, adhoc, AVX2 {cells:?}");
        }
    }

    #[test]
    fn gather_broadcasts_a_run_and_transposes_a_mixed_group() {
        let interps: Vec<Interpolator> = (0..5)
            .map(|c| Interpolator(std::array::from_fn(|k| (100 * c + k) as f32)))
            .collect();
        // the fields source builds the records `load_interpolators` stores,
        // here over two rows of three cells; one source for every group,
        // so a group may start in the cell the one before it ended in
        let fields = wavy(&Grid::new(3, 2, 1));
        let built = load_interpolators(&fields);
        let mut from_fields = Fields::new(&fields, Scratch::default());
        // one run, a mixed group, and a group that is one run for four
        // lanes but not for eight
        for cells in [[3u32; 8], [4, 0, 3, 0, 1, 2, 4, 3], [2, 2, 2, 2, 1, 1, 1, 1]] {
            let want: Vec<_> = cells.iter().map(|&c| interps[c as usize].0).collect();
            gathers(&mut &interps[..], &cells, &want, "records");
            let want: Vec<_> = cells.iter().map(|&c| built[c as usize].0).collect();
            gathers(&mut from_fields, &cells, &want, "fields");
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
