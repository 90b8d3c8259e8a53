//! # vpic-core — the particle-in-cell plasma simulation
//!
//! A from-scratch reproduction of the VPIC application structure (Bowers
//! et al. 2008) that the paper optimizes: a 3-D Yee-mesh electromagnetic
//! FDTD field solve, relativistic Boris particle push driven by per-cell
//! 18-coefficient interpolators, charge-conserving current deposition
//! through per-cell 12-slot accumulators, and periodic boundaries.
//!
//! The units are normalized (c = 1, unit cells): field quantities carry
//! `cdt/dx`-style factors directly, as VPIC's internal representation
//! does. Particles use VPIC's storage: a cell index plus cell-relative
//! offsets in `[-1, 1]` — the layout that makes *sorting by cell index*
//! (the paper's data-movement optimization) meaningful.
//!
//! ## Map to the paper
//!
//! * [`push`] — the particle push kernel, in all four vectorization
//!   strategies (Fig 4) and over any particle order (Figs 7–9).
//! * [`interp`] — the 18-float interpolator records the push gathers.
//! * [`accumulate`] — the 12-slot current accumulator the push scatters
//!   into (the atomic-contention site).
//! * [`sim::Simulation::sort_particles`] — the sorting hook (§3.2).
//! * [`deck`] — benchmark decks, including the laser–plasma-interaction
//!   style deck used throughout §5.

pub mod accumulate;
pub mod checkpoint;
pub mod constants;
pub mod deck;
pub mod energy;
pub mod field;
pub mod grid;
pub mod interp;
pub mod push;
pub mod sim;
pub mod species;
pub mod tile;

pub use checkpoint::StepError;
pub use deck::Deck;
pub use field::FieldArray;
pub use grid::{Grid, StencilSide};
pub use interp::{load_interpolators, load_interpolators_into, Interpolator, InterpolatorArray};
pub use sim::Simulation;
pub use species::{ParticleRecord, Species};
pub use tile::{TileEngine, TilePolicy, TileStats};
