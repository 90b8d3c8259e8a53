//! # ckpt — deterministic checkpoint/restart
//!
//! The durability layer of the stack (DESIGN §10): production plasma
//! campaigns on preemptible heterogeneous nodes must survive a mid-run
//! kill, so VPIC ships checkpoint/restart as a first-class feature and so
//! does this reproduction. The crate is deliberately low-level and
//! simulation-agnostic — it defines the container, not the contents:
//!
//! * [`format`](mod@format) — the versioned `VPCK` snapshot container: named sections,
//!   each CRC-32-checked, decoded strictly so *every* corruption maps to a
//!   typed [`RestoreError`] (`Truncated` / `BadCrc` / `VersionMismatch` /
//!   `SchemaDrift`), never a silently-wrong `Ok`.
//! * [`file`](mod@file) — atomic persistence: write temp → fsync → rotate the old
//!   snapshot to `.prev` → rename. A kill at any instant leaves a loadable
//!   snapshot; `vpic-core`'s `Simulation::restore_from_path` falls back to
//!   it.
//! * [`faults`] — the injection harness the contract is tested against:
//!   truncate at any byte, flip any bit, rewrite one section CRC-valid,
//!   leave a half-written temp file behind. A worker dying mid-step is
//!   tested where the pool and the step live (`pk::pool`,
//!   `vpic-core::checkpoint`), so this crate depends on no other.
//!
//! What goes *into* the sections is owned by the crates whose types they
//! hold — fields, particles and telemetry baselines by
//! `vpic-core::checkpoint`, tuner state by `tuner` — which keeps this
//! crate's guarantees checkable in isolation (see the exhaustive bit-flip
//! tests in [`format`](mod@format)).

pub mod crc32;
pub mod faults;
pub mod file;
pub mod format;

pub use file::save_atomic;
pub use format::{RestoreError, SectionBuf, SectionReader, Snapshot, Writer, MAGIC};
