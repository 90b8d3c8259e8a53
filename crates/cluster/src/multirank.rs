//! Real multi-rank stepping with overlapped halo exchange (DESIGN §12).
//!
//! [`MultiRankSim`] drives N per-rank [`Simulation`]s through the full
//! VPIC step. The deck is partitioned via [`Decomposition`] into per-rank
//! grids with a one-cell halo shell; every step performs real field halo
//! exchange and particle migration between the ranks, serialized through
//! reusable per-pair buffers, with latency and bandwidth charged through
//! the [`NetworkModel`]. Interior field kernels run while boundary shells
//! wait on in-flight exchanges, so the executed step time reflects the
//! paper's compute/communication overlap rather than their sum.
//!
//! ## Bit-identity
//!
//! The correctness oracle: for any rank count, the gathered global state
//! is bit-identical to the single-rank (sort-disabled) run. Three
//! disciplines make that hold, extending PRs 1 and 5 per-kernel
//! determinism across ranks:
//!
//! * **Fixed-point deposition** — the accumulator stores quantized `i64`
//!   partials, so rank-boundary current merges are integer adds: exactly
//!   associative and commutative, independent of which rank's array a
//!   segment landed in.
//! * **Shared op trees** — every field kernel walks one op tree per cell
//!   whether sweeping the whole grid, a row interior, or a boundary box,
//!   so halo grids reproduce the global sweep cell-for-cell.
//! * **Deterministic migrant ordering** — migrants drain in ascending
//!   array order, carry their global load index, and are appended sorted
//!   by `(species, id)`; the gather reassembles canonical global arrays
//!   by id, restoring the single-rank summation order everywhere.
//!
//! Halo cells compute garbage during full-grid sweeps (they wrap inside
//! the local grid); every consumer reads them only after the exchange
//! that overwrites them with the owner's canonical values, and owned
//! cells never wrap because CFL limits motion and stencils to one cell.

use crate::decompose::Decomposition;
use crate::exchange::MigrationStats;
use crate::network::NetworkModel;
use ckpt::{RestoreError, Snapshot, Writer};
use memsim::gpu::GpuModel;
use memsim::push::{gpu_push, PushSpec};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use vpic_core::accumulate::SLOTS;
use vpic_core::push::PushStats;
use vpic_core::sim::LaserDriver;
use vpic_core::{Grid, ParticleRecord, Simulation};

/// Bytes shipped per migrating particle: the 32-byte phase-space record
/// plus the 8-byte global id that keeps gather order canonical.
pub(crate) const MIGRANT_BYTES: usize = 40;

/// Bytes per halo cell per field exchange (3 components × f32).
pub(crate) const FIELD_HALO_BYTES: usize = 12;

/// Bytes per halo cell for the current-accumulator exchange
/// (12 fixed-point i64 slots).
pub(crate) const ACC_HALO_BYTES: usize = SLOTS * 8;

/// Where a particle found outside the owned box must go.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Route {
    /// An owned cell (canonical index: stays put).
    Owned,
    /// A halo image of a cell this rank owns (periodic self-neighbor
    /// axis): remap to the canonical local index, no migration.
    Remap(u32),
    /// A halo image of a cell another rank owns: migrate there.
    Remote(u32),
}

/// One neighbor link of a rank: the per-pair exchange plan. Both
/// endpoints build the pair's overlap list in the same (ascending global
/// cell) order, so position `k` refers to the same global cell on both
/// sides without shipping indices.
#[derive(Debug, Clone)]
struct Link {
    /// The other rank (may be `self` for periodic self-copies, which
    /// move no network bytes).
    rank: usize,
    /// Positions into this rank's `shared` table for the pair's overlap
    /// cells, ascending-global order.
    acc_pos: Vec<u32>,
    /// Field halo send plan: this rank's canonical local index of each
    /// overlap cell *it* owns, ascending-global order.
    field_src: Vec<u32>,
    /// Field halo receive plan: flattened local image indices of each
    /// overlap cell *the other rank* owns, grouped per cell by
    /// `field_dst_off`, ascending-global order.
    field_dst: Vec<u32>,
    /// Offsets into `field_dst`: cell `k`'s images are
    /// `field_dst[off[k]..off[k+1]]`.
    field_dst_off: Vec<u32>,
}

/// Per-rank geometry and exchange plan, all precomputed at construction.
#[derive(Debug, Clone)]
struct RankPlan {
    origin: (usize, usize, usize),
    extent: (usize, usize, usize),
    /// Global cell id of every local cell (halo included).
    local_to_global: Vec<u32>,
    /// Migration routing for every local cell.
    route: Vec<Route>,
    /// Cells that exist in more than one local array (or more than once
    /// in this one): `(global, local images)` ascending by global id.
    shared: Vec<(u32, Vec<u32>)>,
    /// Neighbor links, ascending by rank id (self link last if present).
    links: Vec<Link>,
}

impl RankPlan {
    /// Canonical local index of an owned global cell.
    fn canonical(&self, g: u32, global: &Grid, local: &Grid) -> u32 {
        let (gx, gy, gz) = global.coords(g as usize);
        let lx = gx - self.origin.0 + 1;
        let ly = gy - self.origin.1 + 1;
        let lz = gz - self.origin.2 + 1;
        local.voxel(lx, ly, lz) as u32
    }
}

/// One rank's live state.
struct RankState {
    sim: Simulation,
    plan: RankPlan,
    /// Global load index of every particle, per species, parallel to the
    /// species arrays. Migrates with the particle; the gather reassembles
    /// canonical global order from it.
    ids: Vec<Vec<u64>>,
    /// Per-shared-cell fixed-point deposition partials (this rank's own
    /// images summed), rebuilt every step.
    partials: Vec<[i64; SLOTS]>,
    /// Merged totals across every rank holding the cell.
    totals: Vec<[i64; SLOTS]>,
    /// Reusable drain scratch: indices of out-migrating particles.
    drain_idx: Vec<usize>,
    /// Reusable drain scratch: their records.
    drain_rec: Vec<ParticleRecord>,
}

/// A migrating particle in flight: species index, global load index, and
/// the phase-space record with `cell` rewritten to the *global* cell id.
#[derive(Debug, Clone, Copy)]
struct Migrant {
    species: u32,
    id: u64,
    rec: ParticleRecord,
}

/// One rank's clock for one step, s: the measured wall of each compute
/// segment in schedule order, and the modeled time of each exchange.
#[derive(Debug, Clone, Copy, Default)]
struct RankClock {
    push: f64,
    b1: f64,
    merge: f64,
    unload: f64,
    bfill: f64,
    e: f64,
    b2i: f64,
    efill: f64,
    b2b: f64,
    append: f64,
    b2fill: f64,
    x_acc: f64,
    x_b: f64,
    x_e: f64,
    x_mig: f64,
    x_b2: f64,
}

impl RankClock {
    /// `(compute, modeled, exposed)`: the rank's compute wall, its modeled
    /// exchange time, and the part of that no compute window hides. An
    /// exchange is hidden by the segments between its launch and its wait
    /// point: the accumulator exchange by the first B half-advance, the B
    /// halos by merge + unload, the E halos by the interior B half-advance,
    /// the migrants by everything from the first B half-advance through
    /// the boundary shells, the post-advance B halos by the migrant append.
    /// What a window does not cover extends the step.
    fn overlap(&self) -> (f64, f64, f64) {
        let through_shells = self.b1
            + self.merge
            + self.unload
            + self.bfill
            + self.e
            + self.b2i
            + self.efill
            + self.b2b;
        let compute = self.push + through_shells + self.append + self.b2fill;
        let waits = [
            (self.x_acc, self.b1),
            (self.x_b, self.merge + self.unload),
            (self.x_e, self.b2i),
            (self.x_mig, through_shells),
            (self.x_b2, self.append),
        ];
        let modeled = waits.iter().map(|w| w.0).sum();
        let exposed = waits.iter().map(|&(charge, window)| (charge - window).max(0.0)).sum();
        (compute, modeled, exposed)
    }
}

/// Executed/modeled timing of one multi-rank step.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StepTiming {
    /// Largest per-rank compute wall (all kernel and copy segments), s.
    pub compute_s: f64,
    /// Sum over ranks of modeled exchange time, s.
    pub modeled_exchange_s: f64,
    /// Sum over ranks of the exchange time *not* hidden behind interior
    /// compute, s.
    pub exposed_exchange_s: f64,
    /// Sum over ranks of the exchange time hidden behind overlapped
    /// compute windows, s.
    pub hidden_exchange_s: f64,
    /// Executed step time: max over ranks of compute + exposed, s.
    pub step_s: f64,
    /// Largest per-rank *modeled GPU* compute time (push over the rank's
    /// executed cell stream + field sweep, costed through the armed
    /// [`GpuModel`]), s. Zero when no model is armed.
    pub gpu_compute_s: f64,
    /// Modeled GPU step time: max over ranks of modeled compute + exposed
    /// exchange, s. Zero when no model is armed.
    pub gpu_step_s: f64,
}

/// N real per-rank simulations stepping in lockstep with halo exchange,
/// particle migration, and modeled network charges (module docs).
pub struct MultiRankSim {
    /// The rank layout.
    pub decomp: Decomposition,
    /// The interconnect being modeled.
    pub network: NetworkModel,
    global_grid: Grid,
    laser: Option<LaserDriver>,
    ranks: Vec<RankState>,
    step: u64,
    /// Reusable per-`(src, dst)` migration buffers (the satellite's
    /// "serialized through reusable per-pair buffers").
    mig_buffers: BTreeMap<(usize, usize), Vec<Migrant>>,
    /// Reusable per-rank incoming-migrant staging.
    incoming: Vec<Vec<Migrant>>,
    /// When armed, each step also charges per-rank compute through this
    /// GPU cost model (over the *executed* per-rank cell streams), so the
    /// paper's cache-driven superlinear regime shows up in the executed
    /// loop. Not checkpointed — re-arm after a restore.
    gpu: Option<GpuModel>,
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

impl MultiRankSim {
    /// Partition `sim` (a freshly built deck: canonical particle order,
    /// any field state) over `ranks` ranks.
    ///
    /// Per-rank sims run sort-disabled — migration would invalidate
    /// sorted order rank-locally anyway — so bit-identity oracles must
    /// compare against a sort-disabled single-rank run.
    ///
    /// # Panics
    /// Panics if the decomposition leaves any rank without cells (more
    /// ranks than cells along an axis): such degenerate layouts are
    /// rejected, not emulated.
    pub fn new(sim: &Simulation, ranks: usize, network: NetworkModel) -> Self {
        let g = sim.grid.clone();
        let decomp = Decomposition::new((g.nx, g.ny, g.nz), ranks);
        for r in 0..decomp.ranks() {
            assert!(
                decomp.local_cells(r) > 0,
                "rank {r} owns no cells: {} ranks over {:?}",
                decomp.ranks(),
                (g.nx, g.ny, g.nz)
            );
        }
        let plans = build_plans(&decomp, &g);
        let nranks = decomp.ranks();
        let mut states: Vec<RankState> = plans
            .into_iter()
            .map(|plan| {
                let (lx, ly, lz) = plan.extent;
                let local = Grid::new(lx + 2, ly + 2, lz + 2);
                debug_assert_eq!(local.dt, g.dt, "unit cells: dt is extent-independent");
                let mut rsim = Simulation::new(local);
                rsim.strategy = sim.strategy;
                for s in &sim.species {
                    let mut rs = vpic_core::Species::new(s.name.clone(), s.q, s.m);
                    // keep steady-state appends allocation-free-ish
                    rs.dx.reserve(s.len() / nranks + 16);
                    rsim.add_species(rs);
                }
                let shared = plan.shared.len();
                RankState {
                    sim: rsim,
                    plan,
                    ids: vec![Vec::new(); sim.species.len()],
                    partials: vec![[0i64; SLOTS]; shared],
                    totals: vec![[0i64; SLOTS]; shared],
                    drain_idx: Vec::new(),
                    drain_rec: Vec::new(),
                }
            })
            .collect();
        // scatter particles to their owning rank, carrying the global
        // load index as the identity the gather reassembles
        for (si, s) in sim.species.iter().enumerate() {
            for p in 0..s.len() {
                let (gx, gy, gz) = g.coords(s.cell[p] as usize);
                let r = decomp.owner(gx, gy, gz);
                let st = &mut states[r];
                let lcell =
                    st.plan.canonical(s.cell[p], &g, &st.sim.grid);
                let mut rec = s.record(p);
                rec.cell = lcell;
                st.sim.species[si].push_record(&rec);
                st.ids[si].push(p as u64);
            }
        }
        // copy the field state (owned and halo alike) straight from the
        // global arrays — at t = 0 no exchange is needed
        for st in &mut states {
            for lv in 0..st.sim.grid.cells() {
                let gv = st.plan.local_to_global[lv] as usize;
                let (f, gf) = (&mut st.sim.fields, &sim.fields);
                f.ex[lv] = gf.ex[gv];
                f.ey[lv] = gf.ey[gv];
                f.ez[lv] = gf.ez[gv];
                f.bx[lv] = gf.bx[gv];
                f.by[lv] = gf.by[gv];
                f.bz[lv] = gf.bz[gv];
                f.jx[lv] = gf.jx[gv];
                f.jy[lv] = gf.jy[gv];
                f.jz[lv] = gf.jz[gv];
            }
        }
        let incoming = vec![Vec::new(); nranks];
        Self {
            decomp,
            network,
            global_grid: g,
            laser: sim.laser.clone(),
            ranks: states,
            step: sim.step_count(),
            mig_buffers: BTreeMap::new(),
            incoming,
            gpu: None,
        }
    }

    /// Rank count.
    pub fn ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Steps taken.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Particles currently owned by each rank.
    pub fn rank_populations(&self) -> Vec<usize> {
        self.ranks.iter().map(|r| r.sim.particle_count()).collect()
    }

    // ── Per-rank tuning ────────────────────────────────────────────────
    //
    // Heterogeneous systems want heterogeneous configurations: a GPU
    // rank and a CPU rank pick different strategies and scatter modes.
    // Every per-rank knob is bit-safe — all strategies walk one IEEE op
    // tree, deposits are order-independent fixed-point adds, and the
    // gather reassembles canonical order by id — so ranks may diverge in
    // configuration while the gathered state stays bit-identical to the
    // single-rank run.

    /// Apply a fixed tuner configuration to one rank's simulation.
    /// Tiled arms are rejected: decomposed stepping drives untiled
    /// ranks (see [`Simulation::begin_step`]).
    pub fn set_rank_config(&mut self, rank: usize, cfg: &tuner::Config) {
        assert!(cfg.tile.is_none(), "decomposed stepping drives untiled ranks");
        self.ranks[rank].sim.apply_tune_config(cfg, 1);
    }

    /// Arm a GPU cost model: every subsequent step also charges each
    /// rank's compute (push over its executed particle cell stream, plus
    /// a bandwidth-bound field sweep) through `model`, reported as
    /// [`StepTiming::gpu_compute_s`] / [`StepTiming::gpu_step_s`]. The
    /// functional physics is untouched. Not checkpointed — re-arm after
    /// [`MultiRankSim::restore`].
    pub fn set_gpu_model(&mut self, model: GpuModel) {
        self.gpu = Some(model);
    }

    /// Cells of one rank's local grid (halo shell included) — the grid
    /// footprint the armed GPU model sees.
    pub fn rank_grid_cells(&self, rank: usize) -> usize {
        self.ranks[rank].sim.grid.cells()
    }

    /// Advance one lockstep multi-rank step.
    pub fn step(&mut self) -> (PushStats, MigrationStats, StepTiming) {
        let n = self.ranks.len();
        let _span = telemetry::hspan("cluster.exchange").arg("ranks", n).arg("step", self.step);
        let mut push = PushStats::default();
        let mut mig = MigrationStats::default();
        let mut out_of = vec![0usize; n];
        let mut messages = 0u64;
        let mut halo_bytes = 0u64;
        // per-rank measured compute segments and modeled exchange charges
        let mut clock = vec![RankClock::default(); n];
        let mut g_comp = vec![0.0f64; n];
        for buf in self.mig_buffers.values_mut() {
            buf.clear();
        }
        // ── phase A: interpolate + push, drain migrants, compute
        //    deposition partials, launch migrant + accumulator sends ──
        let mut outbox: Vec<(usize, Migrant)> = Vec::new();
        for r in 0..n {
            let _rs = telemetry::rank_span("cluster.rank_push", r);
            let t0 = telemetry::now_ns();
            outbox.clear();
            let st = &mut self.ranks[r];
            // scheduled per-rank sort, the decomposed twin of the one in
            // `step_on`. The reorder must happen here rather than inside
            // `begin_step` because the id maps that track each particle's
            // global load order are parallel to the SoA arrays and have
            // to follow the same permutation — otherwise migration and
            // gather would hand back the wrong identities. Sorting stays
            // bit-safe: it permutes bit-identical records within a rank,
            // so the gathered canonical-order state is unchanged (see the
            // per-rank tuning contract above).
            if let Some(order) = st.sim.consume_due_sort() {
                for si in 0..st.sim.species.len() {
                    if st.sim.species[si].sort(order) {
                        let perm = st.sim.species[si].sort_perm();
                        let old = std::mem::take(&mut st.ids[si]);
                        st.ids[si] = perm.iter().map(|&p| old[p]).collect();
                    }
                }
            }
            let stats = st.sim.begin_step();
            push.pushed += stats.pushed;
            push.crossings += stats.crossings;
            mig.total += st.sim.particle_count();
            // migrant drain: ascending index per species, aggregated
            // across species before the per-rank peak is taken
            for si in 0..st.sim.species.len() {
                st.drain_idx.clear();
                st.drain_rec.clear();
                {
                    let s = &mut st.sim.species[si];
                    let mut remapped = false;
                    for p in 0..s.len() {
                        match st.plan.route[s.cell[p] as usize] {
                            Route::Owned => {}
                            Route::Remap(c) => {
                                s.cell[p] = c;
                                remapped = true;
                            }
                            Route::Remote(_) => st.drain_idx.push(p),
                        }
                    }
                    if remapped {
                        s.mark_unsorted();
                    }
                }
                if st.drain_idx.is_empty() {
                    continue;
                }
                out_of[r] += st.drain_idx.len();
                mig.migrants += st.drain_idx.len();
                let drain_ids: Vec<u64> =
                    st.drain_idx.iter().map(|&p| st.ids[si][p]).collect();
                remove_sorted_indices(&mut st.ids[si], &st.drain_idx);
                let RankState { sim, plan, drain_idx, drain_rec, .. } = st;
                sim.species[si].drain_sorted_indices(drain_idx, drain_rec);
                for (k, record) in drain_rec.iter().enumerate() {
                    let dst = match plan.route[record.cell as usize] {
                        Route::Remote(d) => d as usize,
                        _ => unreachable!("drained cells are remote"),
                    };
                    let mut out = *record;
                    out.cell = plan.local_to_global[record.cell as usize];
                    outbox.push((
                        dst,
                        Migrant { species: si as u32, id: drain_ids[k], rec: out },
                    ));
                }
            }
            // deposition partials over this rank's images of shared cells
            for (i, (_, images)) in st.plan.shared.iter().enumerate() {
                let mut acc = [0i64; SLOTS];
                for &img in images {
                    let raw = st.sim.acc_cell_raw(img as usize);
                    for s in 0..SLOTS {
                        acc[s] = acc[s].wrapping_add(raw[s]);
                    }
                }
                st.partials[i] = acc;
            }
            clock[r].push = secs(telemetry::now_ns().saturating_sub(t0));
            // modeled GPU compute for this rank, over the *executed* cell
            // stream (after t_push is closed, so model evaluation wall
            // time never pollutes the executed measurements)
            if let Some(model) = &self.gpu {
                let sim = &self.ranks[r].sim;
                let cells = sim.grid.cells();
                // field sweep: ~100 B per cell, bandwidth-bound
                let mut t = cells as f64 * 100.0 / model.platform().dram_bw;
                // the deposition cost follows the rank's actual scatter
                // mode: atomic deposition pays collision replays (the
                // model's MLP-window hotness term), while duplicated
                // deposition privatizes the accumulator — no atomics at
                // all, but the replicas have to be reduced with one
                // extra bandwidth-bound sweep over the grid
                let atomic = matches!(sim.scatter_mode, pk::atomic::ScatterMode::Atomic);
                for s in &sim.species {
                    if !s.cell.is_empty() {
                        let mut spec = PushSpec::vpic(&s.cell, cells);
                        if !atomic {
                            spec.atomic_ops = 0;
                        }
                        t += gpu_push(model, &spec).cost.time;
                    }
                }
                if !atomic {
                    t += 2.0 * memsim::push::grid_footprint_bytes(cells) as f64
                        / model.platform().dram_bw;
                }
                g_comp[r] = t;
            }
            // launch the accumulator exchange: one directed message per
            // remote link
            for link in &self.ranks[r].plan.links {
                if link.rank != r {
                    let bytes = (link.acc_pos.len() * ACC_HALO_BYTES) as f64;
                    clock[r].x_acc += self.network.message_time(bytes);
                    messages += 1;
                    halo_bytes += bytes as u64;
                }
            }
            for &(dst, m) in &outbox {
                self.mig_buffers.entry((r, dst)).or_default().push(m);
            }
        }
        // migrant messages: the receiver is charged each incoming send
        for (&(src, dst), buf) in &self.mig_buffers {
            if src != dst && !buf.is_empty() {
                clock[dst].x_mig += self.network.message_time((buf.len() * MIGRANT_BYTES) as f64);
                messages += 1;
            }
        }
        // ── phase B: first half B advance over the full local grid,
        //    overlapping the accumulator + migrant exchanges ──
        for (r, c) in clock.iter_mut().enumerate() {
            let t0 = telemetry::now_ns();
            let st = &mut self.ranks[r];
            let strategy = st.sim.strategy;
            st.sim.fields.advance_b_on(&pk::Serial, strategy, 0.5);
            c.b1 = secs(telemetry::now_ns().saturating_sub(t0));
            // B halos must be current before the E advance: launch now,
            // overlap with the merge + unload window
            for link in &st.plan.links {
                if link.rank != r && !link.field_dst_off.is_empty() {
                    let cells = link.field_dst_off.len() - 1;
                    if cells > 0 {
                        let bytes = (cells * FIELD_HALO_BYTES) as f64;
                        c.x_b += self.network.message_time(bytes);
                        messages += 1;
                        halo_bytes += bytes as u64;
                    }
                }
            }
        }
        // ── phase C: merge deposition partials (wait on the accumulator
        //    exchange), write totals to every local image ──
        for (r, c) in clock.iter_mut().enumerate() {
            let t0 = telemetry::now_ns();
            let mut totals = std::mem::take(&mut self.ranks[r].totals);
            totals.copy_from_slice(&self.ranks[r].partials);
            for li in 0..self.ranks[r].plan.links.len() {
                let peer = self.ranks[r].plan.links[li].rank;
                if peer == r {
                    continue;
                }
                // the peer's link back to us lists the same overlap cells
                // in the same ascending-global order
                let back = self.ranks[peer]
                    .plan
                    .links
                    .iter()
                    .position(|l| l.rank == r)
                    .expect("links are symmetric");
                let mine = &self.ranks[r].plan.links[li].acc_pos;
                let theirs = &self.ranks[peer].plan.links[back].acc_pos;
                debug_assert_eq!(mine.len(), theirs.len());
                for (k, &pos) in mine.iter().enumerate() {
                    let src = &self.ranks[peer].partials[theirs[k] as usize];
                    let dst = &mut totals[pos as usize];
                    for s in 0..SLOTS {
                        dst[s] = dst[s].wrapping_add(src[s]);
                    }
                }
            }
            let st = &mut self.ranks[r];
            for (i, (_, images)) in st.plan.shared.iter().enumerate() {
                for &img in images {
                    st.sim.acc_set_cell_raw(img as usize, &totals[i]);
                }
            }
            st.totals = totals;
            c.merge = secs(telemetry::now_ns().saturating_sub(t0));
        }
        // ── phase D: unload currents, drive the laser plane ──
        let drive = self.laser.as_ref().map(|l| {
            let t = (self.step as f64 * self.global_grid.dt as f64) as f32;
            (l.plane, l.amplitude * (l.omega * t).sin())
        });
        for (r, c) in clock.iter_mut().enumerate() {
            let t0 = telemetry::now_ns();
            let st = &mut self.ranks[r];
            st.sim.unload_currents();
            if let Some((plane, drive)) = drive {
                let (ox, _, _) = st.plan.origin;
                let (lx, ly, lz) = st.plan.extent;
                if plane >= ox && plane < ox + lx {
                    let lp = plane - ox + 1;
                    for ly_i in 1..=ly {
                        for lz_i in 1..=lz {
                            let v = st.sim.grid.voxel(lp, ly_i, lz_i);
                            st.sim.fields.jz[v] += drive;
                        }
                    }
                }
            }
            c.unload = secs(telemetry::now_ns().saturating_sub(t0));
        }
        // ── phase E: fill B halos (wait on the B exchange), full E
        //    advance ──
        for (r, c) in clock.iter_mut().enumerate() {
            let t0 = telemetry::now_ns();
            self.fill_halos(r, FieldSet::B);
            c.bfill = secs(telemetry::now_ns().saturating_sub(t0));
            let t0 = telemetry::now_ns();
            let st = &mut self.ranks[r];
            let strategy = st.sim.strategy;
            st.sim.fields.advance_e_on(&pk::Serial, strategy);
            c.e = secs(telemetry::now_ns().saturating_sub(t0));
            // launch the E halo exchange; the interior B half-advance
            // overlaps it
            for link in &st.plan.links {
                if link.rank != r && !link.field_dst_off.is_empty() {
                    let cells = link.field_dst_off.len() - 1;
                    if cells > 0 {
                        let bytes = (cells * FIELD_HALO_BYTES) as f64;
                        c.x_e += self.network.message_time(bytes);
                        messages += 1;
                        halo_bytes += bytes as u64;
                    }
                }
            }
        }
        // ── phase F: second half B advance on the interior box while
        //    the E exchange is in flight ──
        for (r, c) in clock.iter_mut().enumerate() {
            let t0 = telemetry::now_ns();
            let st = &mut self.ranks[r];
            let (lx, ly, lz) = st.plan.extent;
            st.sim.fields.advance_b_box(1..lx, 1..ly, 1..lz, 0.5);
            c.b2i = secs(telemetry::now_ns().saturating_sub(t0));
        }
        // ── phase G: fill E halos (wait on the E exchange), sweep the
        //    boundary shells the interior pass skipped, launch the
        //    post-advance B exchange ──
        for (r, c) in clock.iter_mut().enumerate() {
            let t0 = telemetry::now_ns();
            self.fill_halos(r, FieldSet::E);
            c.efill = secs(telemetry::now_ns().saturating_sub(t0));
            let t0 = telemetry::now_ns();
            let st = &mut self.ranks[r];
            let (lx, ly, lz) = st.plan.extent;
            // the three plus-face shells: disjoint, and together with the
            // interior box they cover the owned region exactly once
            st.sim.fields.advance_b_box(lx..lx + 1, 1..ly + 1, 1..lz + 1, 0.5);
            st.sim.fields.advance_b_box(1..lx, ly..ly + 1, 1..lz + 1, 0.5);
            st.sim.fields.advance_b_box(1..lx, 1..ly, lz..lz + 1, 0.5);
            c.b2b = secs(telemetry::now_ns().saturating_sub(t0));
            for link in &st.plan.links {
                if link.rank != r && !link.field_dst_off.is_empty() {
                    let cells = link.field_dst_off.len() - 1;
                    if cells > 0 {
                        let bytes = (cells * FIELD_HALO_BYTES) as f64;
                        c.x_b2 += self.network.message_time(bytes);
                        messages += 1;
                        halo_bytes += bytes as u64;
                    }
                }
            }
        }
        // ── phase H: append migrants sorted by (species, id) — waiting
        //    on the migration exchange launched in phase A — then fill
        //    the post-advance B halos and close the step ──
        for (r, c) in clock.iter_mut().enumerate() {
            let t0 = telemetry::now_ns();
            let inc = &mut self.incoming[r];
            inc.clear();
            for (&(src, dst), buf) in &self.mig_buffers {
                let _ = src;
                if dst == r {
                    inc.extend_from_slice(buf);
                }
            }
            inc.sort_by_key(|m| (m.species, m.id));
            let st = &mut self.ranks[r];
            for m in inc.iter() {
                let lcell = st.plan.canonical(m.rec.cell, &self.global_grid, &st.sim.grid);
                let mut rec = m.rec;
                rec.cell = lcell;
                st.sim.species[m.species as usize].push_record(&rec);
                st.ids[m.species as usize].push(m.id);
            }
            c.append = secs(telemetry::now_ns().saturating_sub(t0));
            let t0 = telemetry::now_ns();
            self.fill_halos(r, FieldSet::B);
            c.b2fill = secs(telemetry::now_ns().saturating_sub(t0));
            self.ranks[r].sim.finish_step();
        }
        self.step += 1;
        mig.max_out_of_rank = out_of.into_iter().max().unwrap_or(0);
        if telemetry::enabled() {
            telemetry::count("cluster.migrants", mig.migrants as u64);
            telemetry::count("cluster.bytes_moved", (mig.migrants * MIGRANT_BYTES) as u64);
            telemetry::count("cluster.halo_bytes", halo_bytes);
            telemetry::count("cluster.messages", messages);
            telemetry::hist!("cluster.migrants.per_step", mig.migrants as u64);
        }
        // ── overlap accounting: each exchange is hidden by the compute
        //    window between its launch and its wait point ──
        let mut timing = StepTiming::default();
        let mut step_s = 0.0f64;
        for r in 0..n {
            let (compute, modeled, exposed) = clock[r].overlap();
            timing.compute_s = timing.compute_s.max(compute);
            timing.modeled_exchange_s += modeled;
            timing.exposed_exchange_s += exposed;
            timing.hidden_exchange_s += modeled - exposed;
            step_s = step_s.max(compute + exposed);
            if self.gpu.is_some() {
                timing.gpu_compute_s = timing.gpu_compute_s.max(g_comp[r]);
                timing.gpu_step_s = timing.gpu_step_s.max(g_comp[r] + exposed);
            }
            // per-rank exchange-overlap distributions: exposed is the tail
            // that actually extends the step, hidden is what the compute
            // window absorbed
            telemetry::hist!("cluster.exposed_exchange.ns", (exposed * 1e9) as u64);
            telemetry::hist!(
                "cluster.hidden_exchange.ns",
                ((modeled - exposed).max(0.0) * 1e9) as u64
            );
        }
        timing.step_s = step_s;
        (push, mig, timing)
    }

    /// Run `n` steps; returns aggregate push stats.
    pub fn run(&mut self, n: usize) -> PushStats {
        let mut total = PushStats::default();
        for _ in 0..n {
            let (p, _, _) = self.step();
            total.pushed += p.pushed;
            total.crossings += p.crossings;
        }
        total
    }

    /// Copy canonical owner values into every halo image of `rank` for
    /// the given field set: the in-memory completion of an exchange whose
    /// wire time was charged at launch.
    fn fill_halos(&mut self, rank: usize, set: FieldSet) {
        let _s = telemetry::rank_span("cluster.halo_fill", rank);
        for li in 0..self.ranks[rank].plan.links.len() {
            let peer = self.ranks[rank].plan.links[li].rank;
            if peer == rank {
                // periodic self-copy: canonical → images, no network
                let st = &mut self.ranks[rank];
                let link = &st.plan.links[li];
                for (k, &src) in link.field_src.iter().enumerate() {
                    let lo = link.field_dst_off[k] as usize;
                    let hi = link.field_dst_off[k + 1] as usize;
                    for &dst in &link.field_dst[lo..hi] {
                        copy_field(&mut st.sim.fields, set, src as usize, dst as usize);
                    }
                }
                continue;
            }
            let back = self.ranks[peer]
                .plan
                .links
                .iter()
                .position(|l| l.rank == rank)
                .expect("links are symmetric");
            // receive: the peer's canonical values land in our images
            let (a, b) = split_two(&mut self.ranks, rank, peer);
            let link = &a.plan.links[li];
            let src_link = &b.plan.links[back];
            debug_assert_eq!(
                link.field_dst_off.len().saturating_sub(1),
                src_link.field_src.len()
            );
            for (k, &src) in src_link.field_src.iter().enumerate() {
                let lo = link.field_dst_off[k] as usize;
                let hi = link.field_dst_off[k + 1] as usize;
                for &dst in &link.field_dst[lo..hi] {
                    copy_field_across(
                        &b.sim.fields,
                        &mut a.sim.fields,
                        set,
                        src as usize,
                        dst as usize,
                    );
                }
            }
        }
    }

    /// Reassemble the global single-domain state: owned field cells by
    /// global id, particles by their global load index. Bit-identical to
    /// the sort-disabled single-rank run (module docs).
    pub fn gather(&self) -> Simulation {
        let mut out = Simulation::new(self.global_grid.clone());
        out.strategy = self.ranks[0].sim.strategy;
        out.laser = self.laser.clone();
        out.set_step_count(self.step);
        for st in &self.ranks {
            let (lx, ly, lz) = st.plan.extent;
            for z in 1..=lz {
                for y in 1..=ly {
                    for x in 1..=lx {
                        let lv = st.sim.grid.voxel(x, y, z);
                        let gv = st.plan.local_to_global[lv] as usize;
                        let (f, gf) = (&st.sim.fields, &mut out.fields);
                        gf.ex[gv] = f.ex[lv];
                        gf.ey[gv] = f.ey[lv];
                        gf.ez[gv] = f.ez[lv];
                        gf.bx[gv] = f.bx[lv];
                        gf.by[gv] = f.by[lv];
                        gf.bz[gv] = f.bz[lv];
                        gf.jx[gv] = f.jx[lv];
                        gf.jy[gv] = f.jy[lv];
                        gf.jz[gv] = f.jz[lv];
                    }
                }
            }
        }
        for si in 0..self.ranks[0].sim.species.len() {
            let tmpl = &self.ranks[0].sim.species[si];
            let total: usize = self.ranks.iter().map(|st| st.sim.species[si].len()).sum();
            let mut s = vpic_core::Species::new(tmpl.name.clone(), tmpl.q, tmpl.m);
            s.dx = vec![0.0; total];
            s.dy = vec![0.0; total];
            s.dz = vec![0.0; total];
            s.cell = vec![0; total];
            s.ux = vec![0.0; total];
            s.uy = vec![0.0; total];
            s.uz = vec![0.0; total];
            s.w = vec![0.0; total];
            let mut seen = 0usize;
            for st in &self.ranks {
                let rs = &st.sim.species[si];
                for p in 0..rs.len() {
                    let id = st.ids[si][p] as usize;
                    debug_assert!(id < total, "load index out of range");
                    s.dx[id] = rs.dx[p];
                    s.dy[id] = rs.dy[p];
                    s.dz[id] = rs.dz[p];
                    s.cell[id] = st.plan.local_to_global[rs.cell[p] as usize];
                    s.ux[id] = rs.ux[p];
                    s.uy[id] = rs.uy[p];
                    s.uz[id] = rs.uz[p];
                    s.w[id] = rs.w[p];
                    seen += 1;
                }
            }
            debug_assert_eq!(seen, total, "particles conserved");
            out.add_species(s);
        }
        out
    }

    /// Serialize the whole cluster — decomposition metadata, every
    /// per-rank simulation, and the particle identity maps — into the
    /// `ckpt` container. Migration buffers are between-step-empty derived
    /// state and are not carried.
    pub fn checkpoint_bytes(&mut self) -> Vec<u8> {
        let mut w = Writer::new();
        {
            let m = w.section("cluster.meta");
            m.put_u64(self.step);
            m.put_usize(self.global_grid.nx);
            m.put_usize(self.global_grid.ny);
            m.put_usize(self.global_grid.nz);
            m.put_usize(self.ranks.len());
            m.put_f64(self.network.latency);
            m.put_f64(self.network.bandwidth);
            m.put_bool(self.network.gpu_aware);
            m.put_f64(self.network.staging_bw);
            m.put_bool(self.laser.is_some());
            if let Some(l) = &self.laser {
                m.put_usize(l.plane);
                m.put_f32(l.amplitude);
                m.put_f32(l.omega);
            }
        }
        for (r, st) in self.ranks.iter_mut().enumerate() {
            w.section(&format!("rank{r}.sim")).put_raw(&st.sim.checkpoint_bytes());
            let ids = w.section(&format!("rank{r}.ids"));
            ids.put_usize(st.ids.len());
            for species_ids in &st.ids {
                ids.put_usize(species_ids.len());
                for &id in species_ids {
                    ids.put_u64(id);
                }
            }
        }
        w.to_bytes()
    }

    /// Restore a cluster checkpointed by
    /// [`MultiRankSim::checkpoint_bytes`]. Exchange plans and migration
    /// buffers are derived state, rebuilt from the decomposition.
    pub fn restore_bytes(bytes: &[u8]) -> Result<Self, RestoreError> {
        let snap = Snapshot::from_bytes(bytes)?;
        let mut m = snap.section("cluster.meta")?;
        let step = m.get_u64()?;
        let nx = m.get_usize()?;
        let ny = m.get_usize()?;
        let nz = m.get_usize()?;
        let nranks = m.get_usize()?;
        let network = NetworkModel {
            latency: m.get_f64()?,
            bandwidth: m.get_f64()?,
            gpu_aware: m.get_bool()?,
            staging_bw: m.get_f64()?,
        };
        let laser = if m.get_bool()? {
            Some(LaserDriver {
                plane: m.get_usize()?,
                amplitude: m.get_f32()?,
                omega: m.get_f32()?,
            })
        } else {
            None
        };
        m.finish()?;
        let global = Grid::new(nx, ny, nz);
        let decomp = Decomposition::new((nx, ny, nz), nranks);
        let plans = build_plans(&decomp, &global);
        let mut ranks = Vec::with_capacity(nranks);
        for (r, plan) in plans.into_iter().enumerate() {
            let mut sim_sec = snap.section(&format!("rank{r}.sim"))?;
            let sim = Simulation::restore_bytes(sim_sec.take_rest())?;
            sim_sec.finish()?;
            let mut ids_sec = snap.section(&format!("rank{r}.ids"))?;
            let nspecies = ids_sec.get_usize()?;
            let mut ids = Vec::with_capacity(nspecies);
            for _ in 0..nspecies {
                let len = ids_sec.get_usize()?;
                let mut v = Vec::with_capacity(len);
                for _ in 0..len {
                    v.push(ids_sec.get_u64()?);
                }
                ids.push(v);
            }
            ids_sec.finish()?;
            let shared = plan.shared.len();
            ranks.push(RankState {
                sim,
                plan,
                ids,
                partials: vec![[0i64; SLOTS]; shared],
                totals: vec![[0i64; SLOTS]; shared],
                drain_idx: Vec::new(),
                drain_rec: Vec::new(),
            });
        }
        let incoming = vec![Vec::new(); nranks];
        Ok(Self {
            decomp,
            network,
            global_grid: global,
            laser,
            ranks,
            step,
            mig_buffers: BTreeMap::new(),
            incoming,
            gpu: None,
        })
    }
}

/// Which component triple a halo fill moves.
#[derive(Debug, Clone, Copy)]
enum FieldSet {
    E,
    B,
}

fn copy_field(f: &mut vpic_core::FieldArray, set: FieldSet, src: usize, dst: usize) {
    match set {
        FieldSet::E => {
            f.ex[dst] = f.ex[src];
            f.ey[dst] = f.ey[src];
            f.ez[dst] = f.ez[src];
        }
        FieldSet::B => {
            f.bx[dst] = f.bx[src];
            f.by[dst] = f.by[src];
            f.bz[dst] = f.bz[src];
        }
    }
}

fn copy_field_across(
    src_f: &vpic_core::FieldArray,
    dst_f: &mut vpic_core::FieldArray,
    set: FieldSet,
    src: usize,
    dst: usize,
) {
    match set {
        FieldSet::E => {
            dst_f.ex[dst] = src_f.ex[src];
            dst_f.ey[dst] = src_f.ey[src];
            dst_f.ez[dst] = src_f.ez[src];
        }
        FieldSet::B => {
            dst_f.bx[dst] = src_f.bx[src];
            dst_f.by[dst] = src_f.by[src];
            dst_f.bz[dst] = src_f.bz[src];
        }
    }
}

/// Disjoint mutable references to two distinct ranks.
fn split_two(ranks: &mut [RankState], a: usize, b: usize) -> (&mut RankState, &mut RankState) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = ranks.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = ranks.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// Stable removal of ascending `indices` from `v`.
fn remove_sorted_indices(v: &mut Vec<u64>, indices: &[usize]) {
    if indices.is_empty() {
        return;
    }
    let mut write = indices[0];
    let mut next = 0usize;
    for read in indices[0]..v.len() {
        if next < indices.len() && indices[next] == read {
            next += 1;
            continue;
        }
        v[write] = v[read];
        write += 1;
    }
    v.truncate(write);
}

/// Build every rank's geometry and exchange plan. Two ranks exchange iff
/// their local arrays (owned block + one-cell halo shell) intersect in
/// global space; the pair's overlap list is enumerated in ascending
/// global-cell order on both sides, so buffer position identifies the
/// cell without shipping indices.
fn build_plans(decomp: &Decomposition, global: &Grid) -> Vec<RankPlan> {
    let nranks = decomp.ranks();
    // per-rank: global cell → local images, plus local_to_global
    let mut maps: Vec<BTreeMap<u32, Vec<u32>>> = Vec::with_capacity(nranks);
    let mut plans: Vec<RankPlan> = Vec::with_capacity(nranks);
    for r in 0..nranks {
        let origin = decomp.local_origin(r);
        let extent = decomp.local_extent(r);
        let (lx, ly, lz) = extent;
        let local = Grid::new(lx + 2, ly + 2, lz + 2);
        let mut l2g = vec![0u32; local.cells()];
        let mut map: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        let mut route = vec![Route::Owned; local.cells()];
        for lv in 0..local.cells() {
            let (x, y, z) = local.coords(lv);
            let gx = (origin.0 + x + global.nx - 1) % global.nx;
            let gy = (origin.1 + y + global.ny - 1) % global.ny;
            let gz = (origin.2 + z + global.nz - 1) % global.nz;
            let g = global.voxel(gx, gy, gz) as u32;
            l2g[lv] = g;
            map.entry(g).or_default().push(lv as u32);
            let halo = x == 0 || x == lx + 1 || y == 0 || y == ly + 1 || z == 0 || z == lz + 1;
            if halo {
                let owner = decomp.owner(gx, gy, gz);
                route[lv] = if owner == r {
                    let cx = (gx - origin.0 + 1) as u32;
                    let cy = (gy - origin.1 + 1) as u32;
                    let cz = (gz - origin.2 + 1) as u32;
                    Route::Remap(local.voxel(cx as usize, cy as usize, cz as usize) as u32)
                } else {
                    Route::Remote(owner as u32)
                };
            }
        }
        maps.push(map);
        plans.push(RankPlan {
            origin,
            extent,
            local_to_global: l2g,
            route,
            shared: Vec::new(),
            links: Vec::new(),
        });
    }
    // shared cells: multiplicity > 1 locally, or present in another rank
    let mut shared_keys: Vec<BTreeSet<u32>> = maps
        .iter()
        .map(|m| m.iter().filter(|(_, v)| v.len() > 1).map(|(&k, _)| k).collect())
        .collect();
    let mut pair_overlap: BTreeMap<(usize, usize), Vec<u32>> = BTreeMap::new();
    for r in 0..nranks {
        for n in (r + 1)..nranks {
            let (small, large) = if maps[r].len() <= maps[n].len() { (r, n) } else { (n, r) };
            let inter: Vec<u32> = maps[small]
                .keys()
                .filter(|k| maps[large].contains_key(k))
                .copied()
                .collect();
            if inter.is_empty() {
                continue;
            }
            for &g in &inter {
                shared_keys[r].insert(g);
                shared_keys[n].insert(g);
            }
            pair_overlap.insert((r, n), inter);
        }
    }
    // materialize shared tables and position lookups
    let mut shared_pos: Vec<BTreeMap<u32, u32>> = Vec::with_capacity(nranks);
    for r in 0..nranks {
        let mut table = Vec::with_capacity(shared_keys[r].len());
        let mut pos = BTreeMap::new();
        for (i, &g) in shared_keys[r].iter().enumerate() {
            table.push((g, maps[r][&g].clone()));
            pos.insert(g, i as u32);
        }
        plans[r].shared = table;
        shared_pos.push(pos);
    }
    // links: remote pairs, then the periodic self-copy link
    let owner_of = |g: u32| {
        let (gx, gy, gz) = global.coords(g as usize);
        decomp.owner(gx, gy, gz)
    };
    let canonical_of = |r: usize, g: u32| {
        let (gx, gy, gz) = global.coords(g as usize);
        let o = decomp.local_origin(r);
        let (lx, ly, lz) = decomp.local_extent(r);
        let local = Grid::new(lx + 2, ly + 2, lz + 2);
        local.voxel(gx - o.0 + 1, gy - o.1 + 1, gz - o.2 + 1) as u32
    };
    for (&(r, n), overlap) in &pair_overlap {
        let mk = |me: usize, other: usize| -> Link {
            let mut link = Link {
                rank: other,
                acc_pos: Vec::with_capacity(overlap.len()),
                field_src: Vec::new(),
                field_dst: Vec::new(),
                field_dst_off: vec![0],
            };
            for &g in overlap {
                link.acc_pos.push(shared_pos[me][&g]);
                let o = owner_of(g);
                if o == me {
                    link.field_src.push(canonical_of(me, g));
                } else if o == other {
                    for &img in &maps[me][&g] {
                        link.field_dst.push(img);
                    }
                    link.field_dst_off.push(link.field_dst.len() as u32);
                }
            }
            link
        };
        let link_rn = mk(r, n);
        let link_nr = mk(n, r);
        debug_assert_eq!(link_rn.field_src.len(), link_nr.field_dst_off.len() - 1);
        debug_assert_eq!(link_nr.field_src.len(), link_rn.field_dst_off.len() - 1);
        plans[r].links.push(link_rn);
        plans[n].links.push(link_nr);
    }
    // the loop body indexes several parallel per-rank arrays
    #[allow(clippy::needless_range_loop)]
    for r in 0..nranks {
        plans[r].links.sort_by_key(|l| l.rank);
        // periodic self-copies: a cell this rank owns that also appears
        // as halo images of itself (single-rank axes)
        let mut link = Link {
            rank: r,
            acc_pos: Vec::new(),
            field_src: Vec::new(),
            field_dst: Vec::new(),
            field_dst_off: vec![0],
        };
        for (g, images) in &plans[r].shared {
            if owner_of(*g) != r || images.len() < 2 {
                continue;
            }
            let canon = canonical_of(r, *g);
            link.field_src.push(canon);
            for &img in images {
                if img != canon {
                    link.field_dst.push(img);
                }
            }
            link.field_dst_off.push(link.field_dst.len() as u32);
        }
        if !link.field_src.is_empty() {
            plans[r].links.push(link);
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems;
    use vpic_core::Deck;

    fn net() -> NetworkModel {
        systems::selene().network
    }

    fn assert_state_eq(a: &Simulation, b: &Simulation, what: &str) {
        for (name, x, y) in [
            ("ex", &a.fields.ex, &b.fields.ex),
            ("ey", &a.fields.ey, &b.fields.ey),
            ("ez", &a.fields.ez, &b.fields.ez),
            ("bx", &a.fields.bx, &b.fields.bx),
            ("by", &a.fields.by, &b.fields.by),
            ("bz", &a.fields.bz, &b.fields.bz),
            ("jx", &a.fields.jx, &b.fields.jx),
            ("jy", &a.fields.jy, &b.fields.jy),
            ("jz", &a.fields.jz, &b.fields.jz),
        ] {
            for v in 0..x.len() {
                assert_eq!(x[v].to_bits(), y[v].to_bits(), "{what}: {name}[{v}]");
            }
        }
        assert_eq!(a.species.len(), b.species.len(), "{what}: species count");
        for (si, (sa, sb)) in a.species.iter().zip(&b.species).enumerate() {
            assert_eq!(sa.cell, sb.cell, "{what}: species {si} cells");
            for p in 0..sa.len() {
                for (f, xa, xb) in [
                    ("dx", sa.dx[p], sb.dx[p]),
                    ("dy", sa.dy[p], sb.dy[p]),
                    ("dz", sa.dz[p], sb.dz[p]),
                    ("ux", sa.ux[p], sb.ux[p]),
                    ("uy", sa.uy[p], sb.uy[p]),
                    ("uz", sa.uz[p], sb.uz[p]),
                    ("w", sa.w[p], sb.w[p]),
                ] {
                    assert_eq!(
                        xa.to_bits(),
                        xb.to_bits(),
                        "{what}: species {si} {f}[{p}]"
                    );
                }
            }
        }
        let (ea, eb) = (a.energies(), b.energies());
        assert_eq!(ea.field_e.to_bits(), eb.field_e.to_bits(), "{what}: field_e");
        assert_eq!(ea.field_b.to_bits(), eb.field_b.to_bits(), "{what}: field_b");
        for (k, (ka, kb)) in ea.kinetic.iter().zip(&eb.kinetic).enumerate() {
            assert_eq!(ka.to_bits(), kb.to_bits(), "{what}: kinetic[{k}]");
        }
    }

    #[test]
    fn gather_of_fresh_partition_is_identity() {
        let reference = Deck::weibel(8, 8, 8, 4, 0.3).build();
        for ranks in [1, 2, 4, 8] {
            let mr = MultiRankSim::new(&reference, ranks, net());
            assert_state_eq(&mr.gather(), &reference, &format!("{ranks} ranks, step 0"));
        }
    }

    #[test]
    fn weibel_bit_identical_across_rank_counts() {
        let mut reference = Deck::weibel(8, 8, 8, 4, 0.3).build();
        let mut clusters: Vec<MultiRankSim> =
            [1, 2, 4, 8].iter().map(|&n| MultiRankSim::new(&reference, n, net())).collect();
        for step in 1..=6 {
            reference.step();
            for mr in &mut clusters {
                mr.step();
                assert_state_eq(
                    &mr.gather(),
                    &reference,
                    &format!("{} ranks, step {step}", mr.ranks()),
                );
            }
        }
    }

    #[test]
    fn laser_deck_bit_identical_across_ranks() {
        // exercises the plane-antenna drive through the decomposed path
        let mut reference = Deck::lpi(8, 4, 4, 4).build();
        let mut mr = MultiRankSim::new(&reference, 4, net());
        for _ in 0..5 {
            reference.step();
            mr.step();
        }
        assert_state_eq(&mr.gather(), &reference, "lpi 4 ranks");
    }

    #[test]
    fn per_rank_scheduled_sort_fires_and_keeps_gather_bit_identical() {
        let reference = Deck::weibel(8, 8, 8, 2, 0.3).build();
        let mut plain = MultiRankSim::new(&reference, 4, net());
        let mut sorted = MultiRankSim::new(&reference, 4, net());
        let strided = tuner::Config {
            order: Some(psort::SortOrder::Strided),
            interval: 1,
            strategy: vsimd::Strategy::Auto,
            scatter: pk::atomic::ScatterMode::Duplicated,
            tile: None,
        };
        for r in 0..4 {
            sorted.set_rank_config(r, &strided);
        }
        let model = GpuModel::scaled(memsim::platform::by_name("V100").unwrap(), 6.0);
        plain.set_gpu_model(model.clone());
        sorted.set_gpu_model(model);
        for step in 1..=3 {
            let (_, _, tp) = plain.step();
            let (_, _, ts) = sorted.step();
            // the per-rank config reaches the cost model: duplicated
            // deposition drops the atomic-replay floor, and the sorted
            // in-cache gather stream is far cheaper than the unsorted
            // atomic default on this tiny grid
            assert!(
                ts.gpu_compute_s < tp.gpu_compute_s,
                "step {step}: sorted+duplicated {} !< plain atomic {}",
                ts.gpu_compute_s,
                tp.gpu_compute_s
            );
            // the scheduled per-rank sort actually reorders the streams…
            let moved = (0..4).any(|r| {
                sorted.ranks[r].sim.species.iter().zip(&plain.ranks[r].sim.species).any(
                    |(ss, ps)| ss.cell != ps.cell,
                )
            });
            assert!(moved, "step {step}: strided sort left every rank untouched");
            // …while the id maps follow the permutation, so the gathered
            // canonical-order state stays bit-identical
            assert_state_eq(
                &plain.gather(),
                &sorted.gather(),
                &format!("sorted step {step}"),
            );
        }
    }

    #[test]
    fn gpu_model_charges_timing_without_touching_physics() {
        let reference = Deck::weibel(8, 8, 8, 2, 0.3).build();
        let mut plain = MultiRankSim::new(&reference, 4, net());
        let mut armed = MultiRankSim::new(&reference, 4, net());
        armed.set_gpu_model(GpuModel::scaled(
            memsim::platform::by_name("V100").unwrap(),
            6.0,
        ));
        for step in 1..=3 {
            let (_, _, tp) = plain.step();
            let (_, _, ta) = armed.step();
            // unarmed runs report zero GPU time; armed runs a real cost
            assert_eq!(tp.gpu_compute_s, 0.0);
            assert_eq!(tp.gpu_step_s, 0.0);
            assert!(ta.gpu_compute_s > 0.0, "step {step}");
            assert!(ta.gpu_step_s >= ta.gpu_compute_s);
            assert_state_eq(&plain.gather(), &armed.gather(), &format!("step {step}"));
        }
    }

    #[test]
    fn migration_stats_aggregate_across_species() {
        let mut reference = Deck::weibel(8, 8, 8, 4, 0.3).build();
        let mut mr = MultiRankSim::new(&reference, 8, net());
        let mut any = false;
        for _ in 0..6 {
            reference.step();
            let (_, m, _) = mr.step();
            assert!(m.max_out_of_rank <= m.migrants, "peak cannot exceed total");
            assert_eq!(m.total, reference.particle_count());
            if m.migrants > 0 {
                any = true;
                // the per-rank peak must bound migrants / ranks (pigeonhole
                // over the *summed* species counts)
                assert!(m.max_out_of_rank * mr.ranks() >= m.migrants);
            }
        }
        assert!(any, "a 0.3c beam deck must migrate particles");
    }

    #[test]
    fn ranks_stay_balanced_and_migration_grows_with_rank_count() {
        let sim = Deck::uniform(8, 8, 8, 8).build();
        let pops = MultiRankSim::new(&sim, 8, net()).rank_populations();
        assert_eq!(pops.iter().sum::<usize>(), sim.particle_count());
        let (mn, mx) = (pops.iter().min().unwrap(), pops.iter().max().unwrap());
        assert!(*mx < 2 * *mn, "uniform deck → roughly balanced ranks: {pops:?}");
        let mean_fraction = |ranks| {
            let mut mr = MultiRankSim::new(&sim, ranks, net());
            (0..5).map(|_| mr.step().1.fraction()).sum::<f64>() / 5.0
        };
        // thermal vth = 0.05 → well under 10% of particles cross a rank
        // boundary per step; more ranks → more boundary surface
        let (few, many) = (mean_fraction(2), mean_fraction(8));
        assert!(many > 0.0 && many < 0.1, "migration fraction {many}");
        assert!(many > few, "{many} vs {few}");
    }

    #[test]
    fn single_rank_charges_no_network_time() {
        let reference = Deck::weibel(8, 8, 8, 2, 0.3).build();
        let mut mr = MultiRankSim::new(&reference, 1, net());
        for _ in 0..3 {
            let (_, m, t) = mr.step();
            assert_eq!(m.migrants, 0, "periodic self-crossings are remaps, not migrants");
            assert_eq!(t.modeled_exchange_s, 0.0);
            assert_eq!(t.exposed_exchange_s, 0.0);
        }
    }

    #[test]
    fn exchange_counters_and_span_recorded() {
        let msgs0 = telemetry::counter("cluster.messages");
        let halo0 = telemetry::counter("cluster.halo_bytes");
        telemetry::set_enabled(true);
        let reference = Deck::weibel(8, 8, 8, 2, 0.3).build();
        let mut mr = MultiRankSim::new(&reference, 8, net());
        mr.step();
        telemetry::set_enabled(false);
        assert!(telemetry::counter("cluster.messages") > msgs0, "directed messages recorded");
        assert!(telemetry::counter("cluster.halo_bytes") > halo0, "halo payload recorded");
    }

    /// A clock whose five exchanges are all charged `charge`, with unit
    /// compute segments except the ones a test sets.
    fn clock(charge: f64) -> RankClock {
        RankClock {
            push: 1.0,
            b1: 1.0,
            merge: 1.0,
            unload: 1.0,
            bfill: 1.0,
            e: 1.0,
            b2i: 1.0,
            efill: 1.0,
            b2b: 1.0,
            append: 1.0,
            b2fill: 1.0,
            x_acc: charge,
            x_b: charge,
            x_e: charge,
            x_mig: charge,
            x_b2: charge,
        }
    }

    #[test]
    fn a_window_hides_its_exchange_up_to_its_own_length() {
        // every window is at least one segment long: charges of 1 vanish
        assert_eq!(clock(1.0).overlap(), (11.0, 5.0, 0.0));
        // charges of 1.5: the one-segment windows (accumulator behind B½,
        // E behind the interior B½, post-advance B behind the append)
        // expose the half they cannot cover, merge + unload covers the B
        // halos, and the migrants have eight segments
        assert_eq!(clock(1.5).overlap(), (11.0, 7.5, 1.5));
        // no window at all exposes the whole charge
        let bare = RankClock { x_acc: 0.25, x_mig: 0.5, ..RankClock::default() };
        assert_eq!(bare.overlap(), (0.0, 0.75, 0.75));
    }

    #[test]
    fn the_migration_window_spans_the_first_b_half_through_the_boundary_shells() {
        // B½, merge, unload, B fill, E, interior B½, E fill, shells: eight
        // segments — neither the push before nor the append after counts
        let migrants_only =
            |x_mig| RankClock { x_mig, push: 100.0, append: 100.0, ..clock(0.0) }.overlap();
        assert_eq!(migrants_only(8.0), (209.0, 8.0, 0.0));
        assert_eq!(migrants_only(9.0), (209.0, 9.0, 1.0));
        // each of the eight lengthens the window by its own time
        let segments: [fn(&mut RankClock) -> &mut f64; 8] = [
            |c| &mut c.b1,
            |c| &mut c.merge,
            |c| &mut c.unload,
            |c| &mut c.bfill,
            |c| &mut c.e,
            |c| &mut c.b2i,
            |c| &mut c.efill,
            |c| &mut c.b2b,
        ];
        for (i, segment) in segments.iter().enumerate() {
            let mut c = RankClock { x_mig: 9.0, ..clock(0.0) };
            *segment(&mut c) += 1.0;
            assert_eq!(c.overlap().2, 0.0, "segment {i}");
        }
    }

    #[test]
    fn executed_step_timing_is_consistent_on_weibel() {
        let reference = Deck::weibel(16, 16, 16, 4, 0.3).build();
        let mut mr = MultiRankSim::new(&reference, 8, net());
        for step in 0..5 {
            let (_, _, t) = mr.step();
            assert!(t.modeled_exchange_s > 0.0, "8 ranks must exchange");
            let parts = t.hidden_exchange_s + t.exposed_exchange_s;
            assert!(
                (parts - t.modeled_exchange_s).abs() <= 1e-12 * t.modeled_exchange_s,
                "step {step}: hidden + exposed = {parts} vs modeled {}",
                t.modeled_exchange_s
            );
            let hidden_fraction = t.hidden_exchange_s / t.modeled_exchange_s;
            assert!((0.0..=1.0).contains(&hidden_fraction), "step {step}: {hidden_fraction}");
            // the slowest rank's compute + exposed: at least the largest
            // compute wall, at most that plus every rank's exposed time
            assert!(t.step_s >= t.compute_s, "step {step}");
            assert!(t.step_s <= t.compute_s + t.exposed_exchange_s, "step {step}");
        }
    }

    #[test]
    fn heterogeneous_rank_configs_stay_bit_identical() {
        use pk::atomic::ScatterMode;
        use vsimd::Strategy;
        let mut reference = Deck::weibel(8, 8, 8, 4, 0.3).build();
        let mut mr = MultiRankSim::new(&reference, 4, net());
        // every rank picks a different (strategy, scatter) pair — the
        // heterogeneous-system configuration the paper targets
        let picks = [
            (Strategy::Manual, ScatterMode::Duplicated),
            (Strategy::AdHoc, ScatterMode::Atomic),
            (Strategy::Guided, ScatterMode::Duplicated),
            (Strategy::Auto, ScatterMode::Atomic),
        ];
        for (r, &(strategy, scatter)) in picks.iter().enumerate() {
            mr.set_rank_config(r, &tuner::Config::unsorted(strategy, scatter));
        }
        for step in 1..=6 {
            reference.step();
            mr.step();
            assert_state_eq(
                &mr.gather(),
                &reference,
                &format!("heterogeneous configs, step {step}"),
            );
        }
    }

    #[test]
    #[should_panic(expected = "untiled ranks")]
    fn tiled_rank_configs_are_rejected() {
        use pk::atomic::ScatterMode;
        use vsimd::Strategy;
        let reference = Deck::weibel(8, 8, 8, 2, 0.3).build();
        let mut mr = MultiRankSim::new(&reference, 2, net());
        let cfg = tuner::Config {
            tile: Some(tuner::TileCfg { tile_cells: 64, compress: true }),
            ..tuner::Config::unsorted(Strategy::Auto, ScatterMode::Atomic)
        };
        mr.set_rank_config(0, &cfg);
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identical() {
        let reference = Deck::weibel(8, 8, 8, 4, 0.3).build();
        let mut a = MultiRankSim::new(&reference, 4, net());
        a.run(3);
        let snap = a.checkpoint_bytes();
        let mut b = MultiRankSim::restore_bytes(&snap).expect("restore");
        assert_eq!(b.step_count(), a.step_count());
        a.run(3);
        b.run(3);
        assert_state_eq(&a.gather(), &b.gather(), "resumed vs uninterrupted");
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let reference = Deck::weibel(8, 8, 8, 2, 0.3).build();
        let mut a = MultiRankSim::new(&reference, 2, net());
        a.run(2);
        let snap = a.checkpoint_bytes();
        let cut = ckpt::faults::truncated(&snap, snap.len() - 7);
        assert!(
            MultiRankSim::restore_bytes(&cut).is_err(),
            "truncation must map to a typed error, never Ok"
        );
    }
}
