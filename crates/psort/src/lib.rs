//! # psort — hardware-targeted particle sorting
//!
//! The paper's core contribution (§3.2/§4.3): three sorted orders for the
//! same key/value data, each targeting a different memory system, plus the
//! key-pattern generators and gather-scatter workloads used to evaluate
//! them (§5.4).
//!
//! | Order | Paper | Memory behaviour |
//! |---|---|---|
//! | [`SortOrder::Standard`] | "standard classification" | duplicates adjacent — best CPU cache reuse, worst GPU atomic conflicts |
//! | [`SortOrder::Strided`] | Algorithm 1 | repeating strictly-increasing subsequences — coalesced GPU accesses |
//! | [`SortOrder::TiledStrided`] | Algorithm 2 | strided order inside cache-sized tiles — coalescing **and** reuse |
//! | [`SortOrder::Random`] | baseline | fully divergent accesses |
//!
//! [`sort_pairs`] (and [`sort_pairs_in`], the key rewrite on an execution
//! space) reorders keys and values by any of them. All orders are permutations of the same (key, value) pairs, so any
//! order-insensitive kernel (like the gather-scatter accumulation in
//! [`gather_scatter`]) computes the same result under each — the
//! correctness invariant the test suite leans on.

pub mod gather_scatter;
pub mod order;
pub mod patterns;
pub mod sorts;
pub mod verify;

pub use order::SortOrder;
pub use sorts::{permutation_into, sort_pairs, sort_pairs_in};
