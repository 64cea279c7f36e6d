//! A simulated Unix kernel with a UFS-like file system, buffer cache, UBC,
//! and pluggable write policies — the substrate the Rio paper's experiments
//! run on.
//!
//! The kernel stores all file state **inside simulated physical memory**
//! ([`rio_mem`]): metadata blocks in the buffer-cache region, file data in
//! the UBC region (addressed via KSEG, as on Digital Unix), bookkeeping in
//! the heap and stack regions. Its hot data paths execute on the
//! interpreted CPU ([`rio_cpu`]). Consequently the paper's §3.1 fault
//! classes have realistic targets and realistic propagation paths —
//! through the MMU, where Rio's protection can intercept them. Two
//! exceptions: a fault injected between syscalls, as Table 1's campaign
//! does, finds nothing live on the kernel stack (the activation record is
//! rewritten at the next syscall entry before anything reads it) and
//! little on the heap (no lock word is held and every staging buffer is
//! freed by then), so those two rows almost never crash.
//!
//! # Quickstart
//!
//! ```
//! use rio_kernel::{Kernel, KernelConfig, Policy};
//! use rio_core::RioMode;
//!
//! # fn main() -> Result<(), rio_kernel::KernelError> {
//! let config = KernelConfig::small(Policy::rio(RioMode::Protected));
//! let mut k = Kernel::mkfs_and_mount(&config)?;
//! let fd = k.create("/hello.txt")?;
//! k.write(fd, b"instantly as permanent as disk")?;
//! k.close(fd)?;
//! assert_eq!(k.file_contents("/hello.txt")?, b"instantly as permanent as disk");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod alloc;
mod bio;
pub mod cache;
pub mod clock;
pub mod crc_cache;
pub mod data;
pub mod error;
pub mod fsck;
pub mod hooks;
pub mod kernel;
pub mod locks;
pub mod machine;
pub mod meta;
pub mod ondisk;
pub mod path;
pub mod policy;
pub mod preempt;
pub mod recovery;
pub mod sched;
pub mod syncops;
pub mod syscalls;

pub use clock::Clock;
pub use error::{CrashInfo, KernelError, PanicReason};
pub use fsck::{FsckError, FsckReport};
pub use hooks::{Cadence, FaultHooks, OffByOne, OverrunSpec};
pub use kernel::{Fd, Kernel, KernelConfig, KernelStats, RioState, SysState};
pub use locks::LockId;
pub use machine::{Machine, MachineConfig};
pub use ondisk::{DiskGeometry, FileType};
pub use policy::{DataPolicy, MetadataPolicy, Permanence, Policy};
pub use preempt::{OpRef, SyscallCont, SyscallOp, SyscallRet, Yield};
pub use recovery::{
    BootInterrupted, BootReport, NoRecoveryFaults, RecoveryControl, RecoveryIoStats, RecoveryPoint,
    WarmBootError,
};
pub use sched::{
    client_refs, run_preemptive, PreemptClient, PreemptSched, SchedStep, SchedTrace, SyscallScript,
};
pub use syscalls::Stat;
