//! # vpic2 — facade crate
//!
//! Re-exports every subsystem of the VPIC 2.0 performance-portability
//! reproduction under one roof. See the workspace `README.md` for the
//! architecture overview and `DESIGN.md` for the paper-to-crate map.

pub use ckpt;
pub use cluster;
pub use memsim;
pub use pk;
pub use psort;
pub use rajaperf;
pub use telemetry;
pub use tuner;
pub use vpic_core as core;
pub use vsimd;
