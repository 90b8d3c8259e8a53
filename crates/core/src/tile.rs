//! Cache-tiled particle stepping with compressed SoA tiles (DESIGN §14).
//!
//! [`TileEngine`] partitions each species' cell-sorted SoA into
//! contiguous cell-range tiles. A tiled step streams the tiles in fixed
//! ascending order through sort-maintenance → push → deposit with only a
//! bounded pool of tiles decompressed at once; everything else lives as
//! a losslessly compressed [`ptile`] blob in RAM or spilled to disk
//! through `ckpt`'s atomic-write/CRC container. That caps the resident
//! particle working set at `max_hot` LLC-sized tiles, so populations far
//! beyond the uncompressed RAM budget still step.
//!
//! ## Determinism argument
//!
//! The tiled path is bit-identical to the untiled path for any tile
//! size, pool size, worker count, and strategy because every ingredient
//! is order-invariant:
//!
//! * per-particle push arithmetic is a pure function of the particle
//!   and its cell's interpolator — all four strategies walk the same
//!   IEEE op tree (see `push.rs`), so storage order, partitioning, and
//!   tile boundaries cannot change a trajectory;
//! * current deposits accumulate in fixed-point `i64` slots (wrapping
//!   integer adds commute), so deposit order across tiles and workers
//!   is invisible; the unload's f64 summation runs in fixed slot order;
//! * cross-tile migration is deterministic: tiles are visited in fixed
//!   ascending order, emigrants drain in ascending index order into the
//!   destination tile's pending buffer, and every visit re-sorts the
//!   tile by `(cell, id)` — a pure function of the particle multiset.
//!
//! A particle that crosses into another tile mid-step has already been
//! pushed this step, so it parks in the destination's *pending* buffer
//! and joins that tile at its next visit — each particle is pushed
//! exactly once per step, exactly like the untiled traversal.

use crate::accumulate::Accumulator;
use crate::grid::Grid;
use crate::interp::Interpolator;
use crate::push::{push_species_on, PushStats};
use crate::species::{remove_sorted_indices, ParticleRecord, Species};
use pk::ExecSpace;
use ptile::{raw_size, TileData};
use std::path::PathBuf;
use vsimd::Strategy;

/// How a simulation is tiled: tile geometry, codec, pool bound, and the
/// optional spill directory. `tile_cells` is normally sized so one
/// tile's cells + particles fit the platform LLC (see
/// `memsim::push::llc_tile_cells`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilePolicy {
    /// Grid cells per tile (the last tile may be short).
    pub tile_cells: usize,
    /// Compress released tiles (packed [`ptile`] encoding) instead of
    /// storing raw blobs.
    pub compress: bool,
    /// Decompressed tiles resident at once (the pool bound, ≥ 1).
    pub max_hot: usize,
    /// When set, released tiles are written here (atomic + CRC via
    /// `ckpt`) instead of kept as RAM blobs — the out-of-core mode.
    pub spill_dir: Option<PathBuf>,
}

impl TilePolicy {
    /// Policy with the given tile size, compression on, a 2-tile pool,
    /// and no spill.
    pub fn new(tile_cells: usize) -> Self {
        Self { tile_cells: tile_cells.max(1), compress: true, max_hot: 2, spill_dir: None }
    }
}

impl Default for TilePolicy {
    fn default() -> Self {
        Self::new(512)
    }
}

/// Lifetime counters for residency / codec behaviour, exposed to the
/// bench and tests (telemetry hists carry the distributions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileStats {
    /// Tile visits that needed particle data.
    pub fetches: u64,
    /// Visits served from the hot pool (no codec work).
    pub hot_hits: u64,
    /// Hot tiles encoded back out to make room.
    pub evictions: u64,
    /// Blob decodes (RAM or disk).
    pub decodes: u64,
    /// Blob encodes.
    pub encodes: u64,
    /// Spill-file writes / reads.
    pub spill_writes: u64,
    /// Spill-file reads.
    pub spill_reads: u64,
    /// Total encoded bytes produced (compression-ratio numerator).
    pub encoded_bytes: u64,
    /// Total raw bytes those encodes covered (ratio denominator).
    pub raw_bytes_encoded: u64,
    /// Peak uncompressed bytes resident in the hot pool at once — the
    /// in-RAM capacity budget actually used.
    pub peak_hot_raw_bytes: u64,
    /// Bytes currently on disk in spill files.
    pub spilled_bytes: u64,
}

/// Where one tile's particles currently live.
enum TileState {
    /// No particles stored (count 0).
    Empty,
    /// Decompressed in pool slot `.0`.
    Hot(usize),
    /// Encoded blob in RAM.
    Blob(Vec<u8>),
    /// Encoded blob on disk (`spill_path`), `bytes` long on disk.
    Spilled { bytes: u64 },
}

struct Tile {
    /// Particles stored in this tile (excludes `pending`).
    count: usize,
    state: TileState,
    /// Migrants that crossed into this tile mid-step; appended (and
    /// first pushed) at the tile's next visit.
    pending: Vec<(u64, ParticleRecord)>,
}

struct SpeciesTiles {
    q: f32,
    m: f32,
    tiles: Vec<Tile>,
    /// Per-step double buffer: `pending` swaps in here at the start of
    /// the species traversal so this step's crossings and last step's
    /// arrivals never mix.
    arrivals: Vec<Vec<(u64, ParticleRecord)>>,
}

/// One pool slot: a reusable decompressed tile.
struct Slot {
    body: Species,
    ids: Vec<u64>,
    owner: Option<(usize, usize)>,
    /// LRU stamp (bumped on every touch; deterministic — the traversal
    /// order is fixed, so so is the eviction sequence).
    stamp: u64,
}

/// The tiled stepping engine owned by `Simulation` while tiling is
/// enabled. See the module docs for the determinism argument.
pub struct TileEngine {
    policy: TilePolicy,
    cells: usize,
    tile_count: usize,
    per_species: Vec<SpeciesTiles>,
    slots: Vec<Slot>,
    clock: u64,
    stats: TileStats,
    // reusable scratch (no steady-state allocation)
    td: TileData,
    perm: Vec<usize>,
    done: Vec<bool>,
    drain_idx: Vec<usize>,
    drain_recs: Vec<ParticleRecord>,
    drain_ids: Vec<u64>,
}

/// Move the SoA arrays between the codec view and a pool slot without
/// copying (vector swaps).
fn swap_td_slot(td: &mut TileData, body: &mut Species, ids: &mut Vec<u64>) {
    std::mem::swap(&mut td.cell, &mut body.cell);
    std::mem::swap(&mut td.dx, &mut body.dx);
    std::mem::swap(&mut td.dy, &mut body.dy);
    std::mem::swap(&mut td.dz, &mut body.dz);
    std::mem::swap(&mut td.ux, &mut body.ux);
    std::mem::swap(&mut td.uy, &mut body.uy);
    std::mem::swap(&mut td.uz, &mut body.uz);
    std::mem::swap(&mut td.w, &mut body.w);
    std::mem::swap(&mut td.id, ids);
}

/// Re-establish the tile invariant: particles ordered by `(cell, id)`.
/// A pure function of the particle multiset, so tile contents are
/// independent of arrival interleaving.
fn sort_slot(body: &mut Species, ids: &mut [u64], perm: &mut Vec<usize>, done: &mut Vec<bool>) {
    perm.clear();
    perm.extend(0..ids.len());
    let cell = &body.cell;
    perm.sort_unstable_by_key(|&i| (cell[i], ids[i]));
    if perm.iter().enumerate().all(|(i, &p)| i == p) {
        return;
    }
    pk::sort::permute_in_place_with(perm, &mut body.cell, done);
    for arr in [
        &mut body.dx,
        &mut body.dy,
        &mut body.dz,
        &mut body.ux,
        &mut body.uy,
        &mut body.uz,
        &mut body.w,
    ] {
        pk::sort::permute_in_place_with(perm, arr, done);
    }
    pk::sort::permute_in_place_with(perm, ids, done);
    body.mark_unsorted();
}

impl TileEngine {
    /// Engine over a `cells`-cell grid with `n_species` empty species
    /// sets. Particles arrive via [`TileEngine::load_species`].
    pub(crate) fn new(policy: TilePolicy, cells: usize, n_species: usize) -> Self {
        assert!(policy.tile_cells >= 1, "tile_cells must be >= 1");
        let tile_count = cells.div_ceil(policy.tile_cells);
        // Pre-reserve the migrant queues: a tile's first in-migrant can
        // arrive arbitrarily late (slow thermal drift across a far
        // boundary), and a first-touch allocation then would break the
        // no-alloc steady state. ~1.3 KB/tile/species covers typical
        // per-step flux; heavier flux grows a queue once and keeps it.
        const MIGRANT_RESERVE: usize = 32;
        let per_species = (0..n_species)
            .map(|_| SpeciesTiles {
                q: 0.0,
                m: 1.0,
                tiles: (0..tile_count)
                    .map(|_| Tile {
                        count: 0,
                        state: TileState::Empty,
                        pending: Vec::with_capacity(MIGRANT_RESERVE),
                    })
                    .collect(),
                arrivals: (0..tile_count)
                    .map(|_| Vec::with_capacity(MIGRANT_RESERVE))
                    .collect(),
            })
            .collect();
        let slots = (0..policy.max_hot.max(1))
            .map(|_| Slot {
                body: Species::new("tile-slot", -1.0, 1.0),
                ids: Vec::new(),
                owner: None,
                stamp: 0,
            })
            .collect();
        Self {
            policy,
            cells,
            tile_count,
            per_species,
            slots,
            clock: 0,
            stats: TileStats::default(),
            td: TileData::default(),
            perm: Vec::new(),
            done: Vec::new(),
            drain_idx: Vec::new(),
            drain_recs: Vec::new(),
            drain_ids: Vec::new(),
        }
    }

    /// The policy the engine was built with.
    pub fn policy(&self) -> &TilePolicy {
        &self.policy
    }

    /// Lifetime residency/codec counters.
    pub fn stats(&self) -> TileStats {
        self.stats
    }

    /// Total particles across all tiles and pending buffers.
    pub(crate) fn particle_count(&self) -> usize {
        self.per_species
            .iter()
            .map(|sp| {
                sp.tiles.iter().map(|t| t.count + t.pending.len()).sum::<usize>()
                    + sp.arrivals.iter().map(|a| a.len()).sum::<usize>()
            })
            .sum()
    }

    /// Capacities of every reusable buffer (pool slots, codec scratch,
    /// drain scratch, pending/arrival rings) in a fixed order — for
    /// no-alloc-after-warmup assertions.
    pub fn scratch_capacities(&self) -> Vec<usize> {
        let mut caps = Vec::new();
        for s in &self.slots {
            caps.extend([
                s.body.cell.capacity(),
                s.body.dx.capacity(),
                s.body.ux.capacity(),
                s.body.w.capacity(),
                s.ids.capacity(),
            ]);
        }
        caps.extend([
            self.td.cell.capacity(),
            self.td.dx.capacity(),
            self.td.id.capacity(),
            self.perm.capacity(),
            self.done.capacity(),
            self.drain_idx.capacity(),
            self.drain_recs.capacity(),
            self.drain_ids.capacity(),
        ]);
        for sp in &self.per_species {
            for t in &sp.tiles {
                caps.push(t.pending.capacity());
            }
            for a in &sp.arrivals {
                caps.push(a.capacity());
            }
        }
        caps
    }

    fn tile_of(&self, cell: u32) -> usize {
        cell as usize / self.policy.tile_cells
    }

    fn spill_path(&self, si: usize, t: usize) -> PathBuf {
        self.policy
            .spill_dir
            .as_ref()
            .expect("spill path without spill dir")
            .join(format!("tile-s{si}-t{t}.ptl"))
    }

    /// Encode `self.td` and store it as tile `(si, t)`'s cold state.
    fn store_td(&mut self, si: usize, t: usize) -> TileState {
        let n = self.td.len();
        if n == 0 {
            return TileState::Empty;
        }
        let t0 = telemetry::now_ns();
        let blob = ptile::encode(&self.td, self.policy.compress);
        telemetry::hist!("tile.codec.encode.ns", telemetry::now_ns().saturating_sub(t0));
        telemetry::hist!("tile.codec.ratio.pct", (blob.len() * 100 / raw_size(n)) as u64);
        self.stats.encodes += 1;
        self.stats.encoded_bytes += blob.len() as u64;
        self.stats.raw_bytes_encoded += raw_size(n) as u64;
        if self.policy.spill_dir.is_some() {
            let path = self.spill_path(si, t);
            let mut w = ckpt::format::Writer::new();
            w.section("tile").put_raw(&blob);
            let t0 = telemetry::now_ns();
            let bytes = ckpt::file::save_atomic(&path, &w)
                .unwrap_or_else(|e| panic!("tile spill write {path:?}: {e}"));
            telemetry::hist!("tile.spill.write.ns", telemetry::now_ns().saturating_sub(t0));
            self.stats.spill_writes += 1;
            self.stats.spilled_bytes += bytes;
            TileState::Spilled { bytes }
        } else {
            TileState::Blob(blob)
        }
    }

    /// Decode tile `(si, t)`'s cold state into `self.td`. `state` must
    /// not be `Hot`.
    fn load_td(&mut self, si: usize, t: usize, state: TileState) {
        match state {
            TileState::Empty => {
                // clear via an empty decode so capacities persist
                self.td.cell.clear();
                self.td.dx.clear();
                self.td.dy.clear();
                self.td.dz.clear();
                self.td.ux.clear();
                self.td.uy.clear();
                self.td.uz.clear();
                self.td.w.clear();
                self.td.id.clear();
            }
            TileState::Blob(blob) => {
                let t0 = telemetry::now_ns();
                ptile::decode_into(&blob, &mut self.td)
                    .unwrap_or_else(|e| panic!("tile blob s{si} t{t}: {e}"));
                telemetry::hist!("tile.codec.decode.ns", telemetry::now_ns().saturating_sub(t0));
                self.stats.decodes += 1;
            }
            TileState::Spilled { bytes } => {
                let path = self.spill_path(si, t);
                let t0 = telemetry::now_ns();
                let snap = ckpt::file::load(&path)
                    .unwrap_or_else(|e| panic!("tile spill read {path:?}: {e:?}"));
                let mut r = snap
                    .section("tile")
                    .unwrap_or_else(|e| panic!("tile spill section {path:?}: {e:?}"));
                ptile::decode_into(r.take_rest(), &mut self.td)
                    .unwrap_or_else(|e| panic!("tile spill blob {path:?}: {e}"));
                r.finish().unwrap_or_else(|e| panic!("tile spill trailer {path:?}: {e:?}"));
                // a spill file is a single-read cache: the tile's truth is
                // now in RAM, so the file is dead weight (and would go
                // stale the moment the hot copy advances). Removing it
                // here is what keeps the spill dir bounded by the *cold*
                // population instead of by every tile ever evicted.
                let _ = std::fs::remove_file(&path);
                telemetry::hist!("tile.spill.read.ns", telemetry::now_ns().saturating_sub(t0));
                self.stats.spill_reads += 1;
                self.stats.spilled_bytes = self.stats.spilled_bytes.saturating_sub(bytes);
                self.stats.decodes += 1;
            }
            TileState::Hot(_) => unreachable!("load_td on a hot tile"),
        }
    }

    /// Free a pool slot, evicting the deterministic LRU victim (lowest
    /// stamp, then lowest slot index) if none is vacant.
    fn acquire_slot(&mut self) -> usize {
        if let Some(free) = self.slots.iter().position(|s| s.owner.is_none()) {
            return free;
        }
        let victim = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.stamp, *i))
            .map(|(i, _)| i)
            .expect("pool has at least one slot");
        let (vsi, vt) = self.slots[victim].owner.take().expect("victim owner");
        {
            let slot = &mut self.slots[victim];
            swap_td_slot(&mut self.td, &mut slot.body, &mut slot.ids);
        }
        let state = self.store_td(vsi, vt);
        self.per_species[vsi].tiles[vt].state = state;
        self.stats.evictions += 1;
        telemetry::count("tile.evictions", 1);
        victim
    }

    /// Make tile `(si, t)` hot, returning its pool slot.
    fn fetch(&mut self, si: usize, t: usize) -> usize {
        self.stats.fetches += 1;
        telemetry::count("tile.fetches", 1);
        self.clock += 1;
        if let TileState::Hot(slot) = self.per_species[si].tiles[t].state {
            self.stats.hot_hits += 1;
            telemetry::count("tile.hot_hits", 1);
            self.slots[slot].stamp = self.clock;
            return slot;
        }
        let slot = self.acquire_slot();
        let state = std::mem::replace(&mut self.per_species[si].tiles[t].state, TileState::Hot(slot));
        self.load_td(si, t, state);
        let sp = &self.per_species[si];
        let s = &mut self.slots[slot];
        swap_td_slot(&mut self.td, &mut s.body, &mut s.ids);
        s.body.q = sp.q;
        s.body.m = sp.m;
        s.owner = Some((si, t));
        s.stamp = self.clock;
        debug_assert_eq!(s.body.len(), sp.tiles[t].count, "tile s{si} t{t} count drift");
        slot
    }

    /// Take ownership of `source`'s particles, assigning canonical ids
    /// in array order and distributing cell-sorted tiles. `source` is
    /// left empty (metadata intact).
    pub(crate) fn load_species(&mut self, si: usize, source: &mut Species) {
        self.per_species[si].q = source.q;
        self.per_species[si].m = source.m;
        let n = source.len();
        let mut by_tile: Vec<Vec<usize>> = vec![Vec::new(); self.tile_count];
        for i in 0..n {
            by_tile[self.tile_of(source.cell[i])].push(i);
        }
        for (t, idxs) in by_tile.iter_mut().enumerate() {
            // id = original index, so (cell, id) order = stable-by-cell
            idxs.sort_by_key(|&i| source.cell[i]);
            self.td.cell.clear();
            self.td.dx.clear();
            self.td.dy.clear();
            self.td.dz.clear();
            self.td.ux.clear();
            self.td.uy.clear();
            self.td.uz.clear();
            self.td.w.clear();
            self.td.id.clear();
            for &i in idxs.iter() {
                self.td.cell.push(source.cell[i]);
                self.td.dx.push(source.dx[i]);
                self.td.dy.push(source.dy[i]);
                self.td.dz.push(source.dz[i]);
                self.td.ux.push(source.ux[i]);
                self.td.uy.push(source.uy[i]);
                self.td.uz.push(source.uz[i]);
                self.td.w.push(source.w[i]);
                self.td.id.push(i as u64);
            }
            let state = self.store_td(si, t);
            let tile = &mut self.per_species[si].tiles[t];
            tile.count = idxs.len();
            tile.state = state;
        }
        source.cell.clear();
        source.dx.clear();
        source.dy.clear();
        source.dz.clear();
        source.ux.clear();
        source.uy.clear();
        source.uz.clear();
        source.w.clear();
        source.mark_unsorted();
    }

    /// Reassemble species `si` into `dest` in canonical (id) order —
    /// the exact array order an untiled, sort-free run would have, so
    /// energies and checkpoints match the untiled path bitwise.
    pub(crate) fn unload_species(&mut self, si: usize, dest: &mut Species) {
        let mut all: Vec<(u64, ParticleRecord)> = Vec::new();
        // flush hot slots owned by this species
        for slot in &mut self.slots {
            if let Some((osi, ot)) = slot.owner {
                if osi == si {
                    for i in 0..slot.body.len() {
                        all.push((slot.ids[i], slot.body.record(i)));
                    }
                    slot.owner = None;
                    slot.ids.clear();
                    slot.body.cell.clear();
                    slot.body.dx.clear();
                    slot.body.dy.clear();
                    slot.body.dz.clear();
                    slot.body.ux.clear();
                    slot.body.uy.clear();
                    slot.body.uz.clear();
                    slot.body.w.clear();
                    self.per_species[si].tiles[ot].state = TileState::Empty;
                }
            }
        }
        for t in 0..self.tile_count {
            let state = std::mem::replace(&mut self.per_species[si].tiles[t].state, TileState::Empty);
            if !matches!(state, TileState::Hot(_) | TileState::Empty) {
                // `load_td` also unlinks a spilled tile's file, so a full
                // unload leaves the spill dir empty
                self.load_td(si, t, state);
                for i in 0..self.td.len() {
                    all.push((
                        self.td.id[i],
                        ParticleRecord {
                            dx: self.td.dx[i],
                            dy: self.td.dy[i],
                            dz: self.td.dz[i],
                            cell: self.td.cell[i],
                            ux: self.td.ux[i],
                            uy: self.td.uy[i],
                            uz: self.td.uz[i],
                            w: self.td.w[i],
                        },
                    ));
                }
            }
            let tile = &mut self.per_species[si].tiles[t];
            tile.count = 0;
            all.append(&mut tile.pending);
        }
        for a in &mut self.per_species[si].arrivals {
            all.append(a);
        }
        // ids are unique, so the order is total and canonical
        all.sort_unstable_by_key(|&(id, _)| id);
        for (_, rec) in &all {
            dest.push_record(rec);
        }
        dest.mark_unsorted();
    }

    /// One tiled particle phase: stream every species' tiles in fixed
    /// ascending order through arrival-append → `(cell, id)` sort →
    /// push → emigrant drain. The caller owns the surrounding field
    /// phases; deposits land in `acc` exactly as the untiled push.
    pub(crate) fn step_all<S: ExecSpace>(
        &mut self,
        space: &S,
        strategy: Strategy,
        grid: &Grid,
        interps: &[Interpolator],
        acc: &Accumulator,
    ) -> PushStats {
        let mut stats = PushStats::default();
        let tile_cells = self.policy.tile_cells;
        for si in 0..self.per_species.len() {
            // phase split: last step's crossings become this step's
            // arrivals; this step's crossings go to fresh pending
            {
                let sp = &mut self.per_species[si];
                for t in 0..self.tile_count {
                    std::mem::swap(&mut sp.tiles[t].pending, &mut sp.arrivals[t]);
                }
            }
            for t in 0..self.tile_count {
                if self.per_species[si].tiles[t].count == 0
                    && self.per_species[si].arrivals[t].is_empty()
                {
                    continue;
                }
                let slot = self.fetch(si, t);
                // append last step's immigrants, then restore the
                // (cell, id) invariant
                {
                    let s = &mut self.slots[slot];
                    for (id, rec) in self.per_species[si].arrivals[t].iter() {
                        s.body.push_record(rec);
                        s.ids.push(*id);
                    }
                    self.per_species[si].arrivals[t].clear();
                    sort_slot(&mut s.body, &mut s.ids, &mut self.perm, &mut self.done);
                }
                // fused per-tile traversal: gather + Boris + mover +
                // deposit on the execution space
                let pstats = {
                    let s = &mut self.slots[slot];
                    push_species_on(space, strategy, grid, &mut s.body, interps, acc)
                };
                stats.pushed += pstats.pushed;
                stats.crossings += pstats.crossings;
                // drain emigrants (ascending index order) into their
                // destination tiles' pending buffers
                {
                    let (lo, hi) = (t * tile_cells, ((t + 1) * tile_cells).min(self.cells));
                    let s = &mut self.slots[slot];
                    self.drain_idx.clear();
                    for i in 0..s.body.len() {
                        let c = s.body.cell[i] as usize;
                        if c < lo || c >= hi {
                            self.drain_idx.push(i);
                        }
                    }
                    if !self.drain_idx.is_empty() {
                        self.drain_recs.clear();
                        self.drain_ids.clear();
                        for &i in &self.drain_idx {
                            self.drain_ids.push(s.ids[i]);
                        }
                        s.body.drain_sorted_indices(&self.drain_idx, &mut self.drain_recs);
                        remove_sorted_indices(&mut s.ids, &self.drain_idx);
                        let sp = &mut self.per_species[si];
                        for (&id, rec) in self.drain_ids.iter().zip(self.drain_recs.iter()) {
                            let dest = rec.cell as usize / tile_cells;
                            sp.tiles[dest].pending.push((id, *rec));
                        }
                    }
                    self.per_species[si].tiles[t].count = s.body.len();
                }
            }
        }
        let hot_raw: u64 =
            self.slots.iter().map(|s| raw_size(s.body.len()) as u64).sum();
        self.stats.peak_hot_raw_bytes = self.stats.peak_hot_raw_bytes.max(hot_raw);
        stats
    }
}

/// Spill files are scratch, not durable state: an engine dropped without
/// a full unload (a tiled `Simulation` going out of scope, or discarded
/// after a failed step) must not leave `.ptl` litter behind. Read-backs
/// already unlink eagerly, so only tiles still in `Spilled` state — plus
/// any `.tmp`/`.prev` siblings a crash-interrupted save staged — remain
/// to sweep.
impl Drop for TileEngine {
    fn drop(&mut self) {
        if self.policy.spill_dir.is_none() {
            return;
        }
        for si in 0..self.per_species.len() {
            for t in 0..self.tile_count {
                if matches!(self.per_species[si].tiles[t].state, TileState::Spilled { .. }) {
                    let path = self.spill_path(si, t);
                    let _ = std::fs::remove_file(ckpt::file::tmp_path(&path));
                    let _ = std::fs::remove_file(ckpt::file::prev_path(&path));
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;

    fn loaded(grid: &Grid, n: usize, seed: u64) -> Species {
        let mut s = Species::new("e", -1.0, 1.0);
        s.load_uniform(grid, n, 0.1, (0.05, 0.0, 0.0), 1.0, seed);
        s
    }

    #[test]
    fn load_then_unload_restores_canonical_order() {
        let grid = Grid::new(6, 6, 6);
        let mut s = loaded(&grid, 500, 3);
        let before: Vec<ParticleRecord> = (0..s.len()).map(|p| s.record(p)).collect();
        for tile_cells in [1, 7, 64, 1000] {
            let mut engine = TileEngine::new(TilePolicy::new(tile_cells), grid.cells(), 1);
            engine.load_species(0, &mut s);
            assert!(s.is_empty());
            assert_eq!(engine.particle_count(), 500);
            engine.unload_species(0, &mut s);
            let after: Vec<ParticleRecord> = (0..s.len()).map(|p| s.record(p)).collect();
            assert_eq!(after, before, "tile_cells={tile_cells}");
        }
    }

    #[test]
    fn spill_round_trips_through_disk() {
        let grid = Grid::new(4, 4, 4);
        let dir = std::env::temp_dir().join(format!("ptile-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = loaded(&grid, 300, 9);
        let before: Vec<ParticleRecord> = (0..s.len()).map(|p| s.record(p)).collect();
        let mut policy = TilePolicy::new(8);
        policy.spill_dir = Some(dir.clone());
        let mut engine = TileEngine::new(policy, grid.cells(), 1);
        engine.load_species(0, &mut s);
        assert!(engine.stats().spill_writes > 0);
        assert!(engine.stats().spilled_bytes > 0);
        engine.unload_species(0, &mut s);
        let after: Vec<ParticleRecord> = (0..s.len()).map(|p| s.record(p)).collect();
        assert_eq!(after, before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_is_bounded_by_pool_size() {
        let grid = Grid::new(8, 8, 8);
        let mut s = loaded(&grid, 2000, 5);
        let mut policy = TilePolicy::new(16);
        policy.max_hot = 2;
        let mut engine = TileEngine::new(policy, grid.cells(), 1);
        engine.load_species(0, &mut s);
        // touch every tile twice; the pool must stay at 2 hot slots
        let f = crate::field::FieldArray::new(grid.clone());
        let interps = crate::interp::load_interpolators(&f);
        let acc = Accumulator::new(grid.cells(), 1, pk::atomic::ScatterMode::Atomic);
        for _ in 0..2 {
            acc.reset();
            engine.step_all(&pk::Serial, Strategy::Auto, &grid, &interps, &acc);
        }
        assert_eq!(engine.slots.len(), 2);
        assert!(engine.stats().evictions > 0, "more tiles than slots must evict");
        assert_eq!(engine.particle_count(), 2000, "no particle lost");
    }

    #[test]
    fn spill_dir_is_clean_after_full_cycle_and_after_drop() {
        let dir =
            std::env::temp_dir().join(format!("ptile-leak-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let list = |tag: &str| -> Vec<String> {
            std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| format!("{tag}: {:?}", e.unwrap().file_name()))
                .collect()
        };
        let mut policy = TilePolicy::new(8);
        policy.max_hot = 2;
        policy.spill_dir = Some(dir.clone());
        // enable → step → disable must leave the spill dir empty: every
        // spilled tile is either read back (unlinked eagerly) or swept by
        // the unload
        let mut sim = crate::deck::Deck::weibel(4, 4, 4, 4, 0.3).build();
        sim.enable_tiling(policy.clone());
        sim.run(3);
        assert!(sim.tile_engine().unwrap().stats().spill_writes > 0, "test must spill");
        sim.disable_tiling();
        let leftovers = list("after disable");
        assert!(leftovers.is_empty(), "spill files leaked: {leftovers:?}");
        // dropping a still-tiled simulation (the discard path)
        // sweeps whatever is still spilled, including .prev/.tmp litter
        let mut sim = crate::deck::Deck::weibel(4, 4, 4, 4, 0.3).build();
        sim.enable_tiling(policy);
        sim.run(2);
        drop(sim);
        let leftovers = list("after drop");
        assert!(leftovers.is_empty(), "dropped engine leaked spill files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
