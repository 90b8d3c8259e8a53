//! # serve — simulation-as-a-service
//!
//! A multi-tenant job runtime over the PIC core: tenants submit
//! deck-defined jobs ([`JobSpec`], or the `key=value` deckfile format),
//! an admission controller enforces job-count and memory budgets with
//! typed refusals ([`AdmitError`]), and a weighted round-robin
//! scheduler multiplexes hundreds of concurrent small
//! [`Simulation`](vpic_core::Simulation)s over a bounded set of shared
//! worker pools in slices of step quanta.
//!
//! The mechanism that makes the multiplexing safe is **checkpoint
//! preemption**: beyond the residency cap, jobs are parked as `ckpt`
//! snapshot blobs and resumed — possibly on a different pool — when the
//! scheduler returns to them. Because stepping is worker-count
//! invariant and checkpointing is bit-transparent (both for tiled and
//! tuner-armed jobs, whose tile policy and tuner ride in the blob), a
//! job preempted at *any* step finishes in a bit-identical
//! final state; the `Server` stepper of the differential lattice
//! (`tests/lattice/mod.rs`) checks exactly that.
//!
//! Failure is contained per tenant: a worker-lane panic, a typed
//! [`StepError`](vpic_core::StepError), or a corrupted parked blob
//! quarantines the offending job and the fleet keeps stepping. Tuned
//! tenants warm-start from the [`FleetPrior`]: configurations committed
//! by earlier tenants of the same deck class are explored first.
//!
//! See `DESIGN.md` §15 for the design rationale and the README serving
//! quick-start for usage.

pub mod fleet;
pub mod server;
pub mod spec;

pub use fleet::FleetPrior;
pub use server::{
    AdmitError, CancelReason, JobId, JobPhase, JobStatus, ServeError, ServePolicy, ServeReport,
    Server,
};
pub use spec::{JobSpec, SpecError};
