//! The paper's workloads.
//!
//! * [`memtest`] — §3.2's synthetic crash-detection workload: a
//!   deterministic, replayable stream of file and directory creations,
//!   deletions, reads, and writes whose exact expected state at any op
//!   count can be reconstructed after a crash.
//! * [`andrew`] — the Andrew benchmark \[Howard88\]: five phases, dominated
//!   by CPU-intensive compilation.
//! * [`cprm`] — `cp -r` then `rm -r` of a source tree (Table 2's most
//!   I/O-intensive column).
//! * [`sdet`] — SPEC SDM's multi-user software-development workload,
//!   modeled as interleaved per-user scripts.
//! * [`server`] — the N-connection file server (Zipf keys, read / write
//!   / commit requests) driven by the kernel's preemptive scheduler,
//!   open-loop for latency or closed-loop for capacity.
//!
//! All workloads are seeded and deterministic: the same seed replays the
//! same operations byte for byte, which is what makes post-crash
//! verification possible.

#![forbid(unsafe_code)]

pub mod andrew;
pub mod cprm;
pub mod datagen;
pub mod memtest;
pub mod model;
pub mod sdet;
pub mod server;

pub use andrew::{Andrew, AndrewConfig, AndrewReport};
pub use cprm::{CpRm, CpRmConfig, CpRmReport};
pub use memtest::{MemTest, MemTestConfig};
pub use model::{ModelFs, VerifyReport};
pub use sdet::{Sdet, SdetConfig, SdetReport};
pub use server::{Server, ServerConfig, ServerReport};
