//! Simulated magnetic disk with a service-time model and crash semantics.
//!
//! The disk is where Table 2's performance differences come from: a
//! write-through file system pays a mechanical disk access per write, while
//! Rio pays none. The model is a 1996-class SCSI drive (the paper's DEC
//! 3000/600 era): average seek plus half-rotation per random access, a
//! sequential-transfer fast path (used by the AdvFS journal), and one
//! request plane ([`DiskArray`]) of D ≥ 1 device queues: a single device
//! ([`SimDisk::new`]) serves requests in arrival order;
//! [`SimDisk::new_striped`] stripes blocks round-robin across D devices,
//! each sweeping its own queue C-LOOK.
//!
//! Crash semantics matter for the reliability experiments: a write that is
//! *in flight* when the system crashes leaves a **torn block** (half old
//! data, half new — §2.1 notes disks have exactly this vulnerability), and
//! queued-but-unstarted writes are lost entirely.
//!
//! # Example
//!
//! ```
//! use rio_disk::{DiskModel, SimDisk, SimTime};
//!
//! let mut disk = SimDisk::new(64, DiskModel::paper_scsi());
//! let block = vec![0xAB; rio_disk::BLOCK_SIZE];
//! let done = disk.submit_write(3, block.clone(), SimTime::ZERO, false);
//! assert!(done > SimTime::ZERO); // mechanical latency
//! let (data, _) = disk.read(3, done, false);
//! assert_eq!(data, block); // read sees the completed write
//! ```

#![forbid(unsafe_code)]

pub mod array;
pub mod model;
pub mod sim;
pub mod time;

pub use array::{DiskArray, MAX_DEVICES};
pub use model::{DiskModel, Positioning};
pub use sim::{DiskFault, DiskIoError, DiskStats, SimDisk, BLOCK_SIZE};
pub use time::SimTime;
