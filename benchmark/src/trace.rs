//! Tracing from outside: the step's phase list driven from this file, with a
//! span around each call into a layer.
//!
//! [`traced_step`] performs exactly the calls `Simulation::step_on` makes —
//! due sort, interpolator load, J clear + accumulator reset, push per species,
//! accumulator unload, laser drive, B½ E B½ — on the simulation's public
//! `fields` and `species`, with an accumulator and an interpolator buffer the
//! benchmark owns. The field digest after any number of traced steps equals
//! the one `step_on` produces, which every traced run checks. Nothing is
//! added to the library crates: no span, counter, switch or env var.

use serde::Value;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use vpic2::core::accumulate::Accumulator;
use vpic2::core::push::{push_species_on, PushStats};
use vpic2::core::{load_interpolators_into, InterpolatorArray, Simulation};
use vpic2::pk::{ExecSpace, RangePolicy, Reducer};
use vpic2::psort::{self, SortOrder};

/// Steps between sorts on every workload, and so the length of one block of
/// measured steps: each block holds exactly one sort step.
pub const SORT_INTERVAL: usize = 20;

/// The order every workload sorts into.
pub const SORT_ORDER: SortOrder = SortOrder::Standard;

/// One timed interval: a whole step (no parent) or one phase of it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Step id shared by a step span and its phases.
    pub step: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub const STEP: &str = "step";
pub const SORT: &str = "core.sort";
pub const INTERPOLATE: &str = "core.interpolate";
pub const CLEAR_J: &str = "core.clear_j";
pub const PUSH: &str = "core.push";
pub const UNLOAD: &str = "core.unload";
pub const FIELD_SOLVE: &str = "core.field_solve";

/// Spans and counts of one traced run, kept in memory until it ends.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub pushed: u64,
    pub crossings: u64,
    /// Calls made through the execution space.
    pub dispatches: u64,
    /// Particles moved by the sorts that found their species out of order.
    pub sorted_particles: u64,
    /// `psort::sort_pairs` timed on a copy of those species' keys, just
    /// before each sort and outside every span.
    pub sort_pairs_ns: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            pushed: 0,
            crossings: 0,
            dispatches: 0,
            sorted_particles: 0,
            sort_pairs_ns: 0,
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, step: u64) -> usize {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, step });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn named(&self, name: &'static str) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of every span called `name`, ns.
    pub fn total_ns(&self, name: &'static str) -> u64 {
        self.named(name).map(Span::ns).sum()
    }

    /// Share of the step spans' wall that their phase spans cover; the rest
    /// is the step spans' self time.
    pub fn coverage(&self) -> f64 {
        let phases: u64 = self.spans.iter().filter(|s| s.parent.is_some()).map(Span::ns).sum();
        phases as f64 / self.total_ns(STEP).max(1) as f64
    }

    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    ("parent".into(), s.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                    ("step".into(), Value::UInt(s.step)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("coverage".into(), Value::Float(self.coverage())),
            ("pushed".into(), Value::UInt(self.pushed)),
            ("crossings".into(), Value::UInt(self.crossings)),
            ("dispatches".into(), Value::UInt(self.dispatches)),
            ("spans".into(), Value::Seq(spans)),
        ])
    }
}

/// An execution space that counts the calls made through it and hands each
/// to `inner` unchanged.
struct Counting<'a, S> {
    inner: &'a S,
    calls: AtomicU64,
}

impl<S: ExecSpace> ExecSpace for Counting<'_, S> {
    fn concurrency(&self) -> usize {
        self.inner.concurrency()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run_blocks(&self, policy: &RangePolicy, f: &(dyn Fn(Range<usize>) + Sync)) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.run_blocks(policy, f)
    }

    fn run_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        parts: usize,
        f: &(dyn Fn(usize, &mut [T]) + Sync),
    ) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.run_chunks_mut(data, parts, f)
    }

    fn reduce_blocks<R: Reducer>(
        &self,
        policy: &RangePolicy,
        reducer: &R,
        f: &(dyn Fn(Range<usize>) -> R::Value + Sync),
    ) -> R::Value {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.reduce_blocks(policy, reducer, f)
    }
}

/// Buffers `step_on` keeps inside the simulation and the traced driver must
/// own itself: the current accumulator (sized like the simulation's own) and
/// the interpolator array.
pub struct Scratch {
    acc: Accumulator,
    interp: InterpolatorArray,
}

impl Scratch {
    pub fn for_sim(sim: &Simulation, workers: usize) -> Self {
        Self {
            acc: Accumulator::new(sim.grid.cells(), workers, sim.scatter_mode),
            interp: InterpolatorArray::new(),
        }
    }
}

/// One step of `sim` on `space`, phase by phase, every phase in a span.
pub fn traced_step<S: ExecSpace>(
    sim: &mut Simulation,
    space: &S,
    scratch: &mut Scratch,
    rec: &mut Recorder,
) {
    let step = sim.step_count();
    let space = Counting { inner: space, calls: AtomicU64::new(0) };
    let due = step.is_multiple_of(SORT_INTERVAL as u64);
    if due {
        for s in sim.species.iter().filter(|s| s.current_order() != Some(SORT_ORDER)) {
            let mut keys = s.cell.clone();
            let mut perm: Vec<usize> = (0..keys.len()).collect();
            let t = Instant::now();
            psort::sort_pairs(SORT_ORDER, &mut keys, &mut perm);
            rec.sort_pairs_ns += t.elapsed().as_nanos() as u64;
        }
    }
    let root = rec.open(STEP, None, step);
    if due {
        let span = rec.open(SORT, Some(root), step);
        for s in &mut sim.species {
            if s.sort(SORT_ORDER) {
                rec.sorted_particles += s.len() as u64;
            }
        }
        rec.close(span);
    }

    let span = rec.open(INTERPOLATE, Some(root), step);
    load_interpolators_into(&space, sim.strategy, &sim.fields, &mut scratch.interp);
    rec.close(span);

    let span = rec.open(CLEAR_J, Some(root), step);
    sim.fields.clear_j_on(&space);
    scratch.acc.reset();
    rec.close(span);

    let span = rec.open(PUSH, Some(root), step);
    let mut stats = PushStats::default();
    for s in &mut sim.species {
        let st = push_species_on(&space, sim.strategy, &sim.grid, s, &scratch.interp, &scratch.acc);
        if st.crossings > 0 {
            s.mark_unsorted();
        }
        stats.pushed += st.pushed;
        stats.crossings += st.crossings;
    }
    rec.close(span);

    let span = rec.open(UNLOAD, Some(root), step);
    scratch.acc.unload_on(&space, sim.strategy, &mut sim.fields);
    rec.close(span);

    let span = rec.open(FIELD_SOLVE, Some(root), step);
    if let Some(l) = &sim.laser {
        let drive = l.amplitude * (l.omega * sim.time() as f32).sin();
        for iy in 0..sim.grid.ny {
            for iz in 0..sim.grid.nz {
                let v = sim.grid.voxel(l.plane, iy, iz);
                sim.fields.jz[v] += drive;
            }
        }
    }
    sim.fields.advance_b_on(&space, sim.strategy, 0.5);
    sim.fields.advance_e_on(&space, sim.strategy);
    sim.fields.advance_b_on(&space, sim.strategy, 0.5);
    rec.close(span);

    sim.set_step_count(step + 1);
    rec.close(root);
    rec.pushed += stats.pushed as u64;
    rec.crossings += stats.crossings as u64;
    rec.dispatches += space.calls.into_inner();
}
