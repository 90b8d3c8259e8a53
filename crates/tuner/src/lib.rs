//! Adaptive auto-tuning runtime: close the measurement loop online.
//!
//! The paper's central claim is that the *best* configuration of the
//! portable optimizations — sorting order (§3.2), sorting cadence, push
//! vectorization strategy (§3.1), and scatter mode — depends on the
//! hardware and on the evolving particle distribution: standard sort wins
//! on cache-rich CPUs, strided orders on GPUs, and sorting should be
//! disabled entirely once the per-rank grid fits in last-level cache
//! (the superlinear-scaling regime of §6). This crate automates that
//! choice with an **epoch-based explore/commit loop**:
//!
//! 1. **Explore** — run each candidate [`Config`] for one epoch of
//!    simulation steps and score it with an amortized cost model
//!    ([`Measurement::cost_per_particle`]) that charges the sort's cost
//!    against the push savings it buys, spread over the sort interval.
//! 2. **Commit** — adopt the cheapest arm and keep running it.
//! 3. **Re-explore on drift** — while committed, watch the cell-crossing
//!    rate (an EWMA); when it moves materially from the rate observed at
//!    commit time (sorting decays as particles mix) or the committed
//!    cost regresses, restart exploration.
//!
//! The search can be seeded with the cache-model predicate
//! `cluster::scaling` uses: when `memsim::push::grid_fits_llc` says the
//! grid's push working set fits the platform LLC,
//! [`Tuner::with_cache_prior`] explores the "sorting off" arms first
//! (and they win outright when the model is right).
//!
//! One object holds a tuner's whole state: [`Tuner`] is the state
//! machine, the epoch in flight, the recorded [`ScheduleEntry`] history
//! and the closed-epoch count, and it writes and reads its own checkpoint
//! encoding ([`Tuner::put`] / [`Tuner::get`] over `ckpt` sections). It
//! knows nothing of the simulation loop: `vpic-core`'s step asks it for
//! an arm before a step and feeds the step's observations back after, so
//! its decisions are a deterministic function of what it is fed and it
//! is unit-testable with synthetic costs (no wall clock in tests).

pub mod config;
pub mod engine;
pub mod gpu;
pub mod measure;

pub use config::{config_space, get_order, put_order, Config, DEFAULT_INTERVALS};
pub use engine::{Phase, ScheduleEntry, Tuner};
pub use gpu::gpu_config_space;
pub use measure::Measurement;
