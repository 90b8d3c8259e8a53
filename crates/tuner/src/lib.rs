//! Adaptive auto-tuning runtime: close the measurement loop online.
//!
//! The paper's tuning question is the sort schedule — which order
//! (§3.2), how often, or none at all — and its answer depends on the
//! hardware and on the evolving particle distribution: standard sort wins
//! on cache-rich CPUs, strided orders on GPUs, and sorting should be
//! disabled entirely once the per-rank grid fits in last-level cache
//! (the superlinear-scaling regime of §6). [`config_space`] is that
//! schedule over a caller's base [`Config`], one space for CPU and GPU;
//! the push strategy and scatter mode stay the base's (neither changes
//! a bit, and neither is what the paper tunes). This crate automates
//! the choice with an **epoch-based explore/commit loop**:
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
pub mod measure;

pub use config::{config_space, get_order, put_order, Config, DEFAULT_INTERVALS};
pub use engine::{Phase, ScheduleEntry, Tuner};
pub use measure::Measurement;
