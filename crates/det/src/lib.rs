//! Deterministic randomness for the whole workspace.
//!
//! The crash campaign's replay property — rerun any trial from its seed and
//! get the same crash — requires that every random decision in the repo
//! come from a PRNG we own end-to-end. This crate provides:
//!
//! * [`DetRng`] — a xoshiro256** generator seeded through SplitMix64, the
//!   single PRNG used by fault injection, workloads, benches, and tests.
//! * [`derive_seed`] — stream splitting: child seeds that are pure
//!   functions of `(parent_seed, stream_index)`, so trial `k`'s randomness
//!   never depends on how many trials ran before it.
//! * [`proptest_lite`] — a seeded property-test harness (case generation,
//!   failure-seed reporting, bounded shrink) replacing the external
//!   `proptest` dependency.

#![forbid(unsafe_code)]

//! * [`stats`] — the workspace's single percentile convention, shared by
//!   the bench runner and the campaign summaries.

pub mod proptest_lite;
pub mod rng;
pub mod stats;

pub use rng::{derive_seed, derive_seed3, DetRng};
pub use stats::percentile;
