//! # rio — a reproduction of the Rio file cache (ASPLOS 1996)
//!
//! *"The Rio File Cache: Surviving Operating System Crashes"*, Chen, Ng,
//! Chandra, Aycock, Rajamani, Lowell — University of Michigan.
//!
//! Rio makes the in-memory file cache as safe as disk by (1) write-protecting
//! file-cache pages against wild kernel stores, including closing the KSEG
//! physical-address bypass, and (2) performing a **warm reboot** after a
//! crash that recovers file data straight out of RAM using a protected
//! **registry**. With reliability-induced disk writes turned off, every
//! `write` is synchronously permanent at memory speed.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`mem`] | `rio-mem` | simulated physical memory, TLB/KSEG protection |
//! | [`cpu`] | `rio-cpu` | kernel ISA, assembler, interpreter |
//! | [`det`] | `rio-det` | deterministic PRNG, seed derivation, property-test harness |
//! | [`disk`] | `rio-disk` | simulated disk with timing + torn writes |
//! | [`kernel`] | `rio-kernel` | simulated Unix kernel (UFS-like FS, buffer cache, UBC) |
//! | [`core`] | `rio-core` | **the paper's contribution**: registry, protection, warm reboot |
//! | [`baselines`] | `rio-baselines` | MemFS / UFS variants / AdvFS sync policies |
//! | [`faults`] | `rio-faults` | the 13 fault models and the crash campaign |
//! | [`workloads`] | `rio-workloads` | memTest, Andrew, cp+rm, Sdet |
//! | [`harness`] | `rio-harness` | Table 1 / Table 2 / MTTF report generators |
//! | [`obs`] | `rio-obs` | deterministic event tracing + counter registries |
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for a complete crash-and-recover walkthrough:
//! build a Rio machine, write files, crash it with an injected fault, warm
//! reboot, and observe that every synchronously-written byte survived.

#![forbid(unsafe_code)]

pub use rio_baselines as baselines;
pub use rio_core as core;
pub use rio_cpu as cpu;
pub use rio_det as det;
pub use rio_disk as disk;
pub use rio_faults as faults;
pub use rio_harness as harness;
pub use rio_kernel as kernel;
pub use rio_mem as mem;
pub use rio_obs as obs;
pub use rio_workloads as workloads;
