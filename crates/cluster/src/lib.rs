//! # cluster — multi-rank scaling: decomposition, exchange, network model
//!
//! The paper's strong-scaling study (Fig 10) runs VPIC 2.0 on up to 512
//! GPUs across Sierra, Selene, and Tuolumne. No cluster exists here, so
//! this crate provides:
//!
//! * [`decompose`] — 3-D Cartesian domain decomposition (rank geometry,
//!   surface/volume bookkeeping), the real arithmetic any MPI run uses;
//! * [`exchange`] — the per-step migration record: how many particles
//!   changed owning rank, *measured* (not assumed) by [`multirank`];
//! * [`network`] — a latency/bandwidth message-cost model with the
//!   GPU-aware-vs-staged distinction the paper discusses;
//! * [`systems`] — Sierra, Selene, and Tuolumne descriptions;
//! * [`scaling`] — the Fig 10 generator: per-GPU push cost from
//!   `memsim::push` (which supplies the cache-capacity superlinearity)
//!   plus the communication model (which supplies the roll-off), and the
//!   closed-form overlap model an executed sweep is reported against;
//! * [`multirank`] — real multi-rank execution: N per-rank simulations
//!   with halo grids, actual field halo exchange and particle migration,
//!   interior/boundary overlap, and modeled network charges, the ranks of
//!   a step running at the same time over a `pk` pool — the executed
//!   counterpart the closed-form overlap model is reported beside. Its
//!   compute is measured wall time; a modelled GPU cost of an executed
//!   kernel comes only from `pk::SimGpu`.

pub mod decompose;
pub mod exchange;
pub mod multirank;
pub mod network;
pub mod scaling;
pub mod systems;

pub use decompose::Decomposition;
pub use multirank::{MultiRankSim, StepTiming};
pub use network::NetworkModel;
pub use scaling::{strong_scaling, ScalePoint};
pub use systems::System;
