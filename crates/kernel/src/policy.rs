//! Write policies: when data and metadata become permanent.
//!
//! Table 2 compares eight file-system configurations that differ *only* in
//! when they push bytes to disk. The kernel implements all of the mechanics
//! and this module expresses each configuration as data; the constructors
//! for the paper's eight rows live in `rio-baselines`. What a configuration
//! promises — Table 2's "Data Permanent" column — is
//! [`Policy::permanence`], read off the same fields the mechanics obey.

use rio_core::RioMode;
use rio_disk::SimTime;

/// The 30-second `update` interval classic Unix kernels use.
pub const UPDATE_INTERVAL: SimTime = SimTime(30_000_000);

/// The dirty-data throttle of every disk-based row that has one: 2 MB of
/// dirty UBC data before writers block on the disk queue.
pub const THROTTLE_DIRTY_BYTES: u64 = 2 * 1024 * 1024;

/// When file *data* writes reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPolicy {
    /// Synchronously on every `write` (UFS write-through-on-write; also the
    /// Table 1 "disk-based" system).
    WriteThrough,
    /// Asynchronously once `cluster_bytes` of a file have accumulated, on
    /// non-sequential writes, and at the 30-second `update` (default UFS).
    AsyncClustered {
        /// Flush threshold (UFS uses 64 KB).
        cluster_bytes: u64,
    },
    /// Delayed until the next `update` run (the "no-order" optimized UFS of
    /// \[Ganger94\], and AdvFS's data path).
    Delayed,
    /// Never written for reliability — only on cache overflow (MemFS and
    /// Rio).
    Never,
}

/// When *metadata* updates reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetadataPolicy {
    /// Synchronous ordered writes (default UFS; \[Ganger94\] explains the
    /// cost).
    Sync,
    /// Delayed to the next `update` (optimized "no-order" UFS).
    Delayed,
    /// Appended to a sequential journal asynchronously (AdvFS).
    Journal,
    /// Never written for reliability (MemFS and Rio — §2.3: buffer-cache
    /// contents are as permanent as disk).
    Never,
}

/// When a completed `write` becomes permanent: Table 2's "Data Permanent"
/// column. `Display` renders the column's text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Permanence {
    /// As the `write` returns: on disk, or in Rio's file cache.
    AtWrite,
    /// When the file is closed.
    AtClose,
    /// Once `bytes` of a file have accumulated, or at the next `update`
    /// (`None`: no daemon runs). Table 2's clustered rows (UFS) write
    /// metadata synchronously, and the column says so.
    AfterBytes {
        /// The clustering threshold, a whole number of KB.
        bytes: u64,
        /// The `update` interval.
        update: Option<SimTime>,
    },
    /// At the next `update`, at most this long after the write.
    AtUpdate(SimTime),
    /// Never: no scheduled write ever carries the data to disk.
    Never,
}

impl std::fmt::Display for Permanence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Permanence::AtWrite => f.write_str("after write, synchronous"),
            Permanence::AtClose => f.write_str("after close, synchronous"),
            Permanence::AfterBytes { bytes, .. } => {
                write!(f, "data after {} KB, async; metadata sync", bytes / 1024)
            }
            Permanence::AtUpdate(interval) => write!(
                f,
                "after 0-{} seconds, asynchronous",
                interval.as_secs_f64()
            ),
            Permanence::Never => f.write_str("never"),
        }
    }
}

/// A complete file-system configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Policy {
    /// Data write policy.
    pub data: DataPolicy,
    /// Metadata write policy.
    pub metadata: MetadataPolicy,
    /// `fsync` on `close` (UFS write-through-on-close).
    pub fsync_on_close: bool,
    /// `update` daemon interval, if any (classic 30 s).
    pub update_interval: Option<SimTime>,
    /// Rio machinery: registry + warm-reboot support, and at which
    /// protection level. `None` disables Rio entirely (disk-based rows).
    pub rio: Option<RioMode>,
    /// Dirty-data throttle: when the UBC holds more than this many dirty
    /// bytes, writers block until the disk queue drains (classic kernels
    /// bound dirty buffers this way; it is what makes a delayed-write
    /// system measurably slower than Rio, which never intends to write).
    pub throttle_dirty_bytes: Option<u64>,
}

impl Policy {
    /// Whether this configuration writes to disk for reliability at all:
    /// whether `fsync` / `sync` push to disk and `panic` tries to flush
    /// dirty buffers. Stock kernels do; MemFS and Rio never write for
    /// reliability (§2.3: for Rio memory already is permanent, and a sick
    /// kernel flushing is how corrupt memory reaches disk).
    pub fn writes_for_reliability(&self) -> bool {
        self.data != DataPolicy::Never
    }

    /// When a completed `write` becomes permanent under this configuration.
    /// Rio's file cache is permanent, so every Rio row is
    /// [`Permanence::AtWrite`] whatever its data policy says.
    pub fn permanence(&self) -> Permanence {
        if self.rio.is_some() || self.data == DataPolicy::WriteThrough {
            return Permanence::AtWrite;
        }
        if self.fsync_on_close {
            return Permanence::AtClose;
        }
        match (self.data, self.update_interval) {
            (DataPolicy::AsyncClustered { cluster_bytes }, update) => Permanence::AfterBytes {
                bytes: cluster_bytes,
                update,
            },
            (DataPolicy::Delayed, Some(interval)) => Permanence::AtUpdate(interval),
            _ => Permanence::Never,
        }
    }

    /// Whether this configuration maintains the Rio registry.
    pub fn rio_enabled(&self) -> bool {
        self.rio.is_some()
    }

    /// The Table 1 "disk-based" system: write-through everything, no Rio.
    pub fn disk_write_through() -> Policy {
        Policy {
            data: DataPolicy::WriteThrough,
            metadata: MetadataPolicy::Sync,
            fsync_on_close: true,
            update_interval: Some(UPDATE_INTERVAL),
            rio: None,
            throttle_dirty_bytes: Some(THROTTLE_DIRTY_BYTES),
        }
    }

    /// Rio at the given protection level: no reliability writes at all.
    pub fn rio(mode: RioMode) -> Policy {
        Policy {
            data: DataPolicy::Never,
            metadata: MetadataPolicy::Never,
            fsync_on_close: false,
            update_interval: None,
            rio: Some(mode),
            throttle_dirty_bytes: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rio_policy_issues_no_reliability_writes() {
        let p = Policy::rio(RioMode::Protected);
        assert_eq!(p.data, DataPolicy::Never);
        assert_eq!(p.metadata, MetadataPolicy::Never);
        assert!(!p.writes_for_reliability());
        assert!(p.rio_enabled());
        assert_eq!(p.permanence(), Permanence::AtWrite);
    }

    #[test]
    fn disk_write_through_is_fully_synchronous() {
        let p = Policy::disk_write_through();
        assert_eq!(p.data, DataPolicy::WriteThrough);
        assert_eq!(p.metadata, MetadataPolicy::Sync);
        assert!(p.writes_for_reliability());
        assert!(!p.rio_enabled());
        assert_eq!(p.permanence(), Permanence::AtWrite);
    }
}
