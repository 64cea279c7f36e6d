//! The eight file-system configurations of Table 2 (and the three systems
//! of Table 1), expressed as [`Policy`] values over the shared kernel.
//!
//! | constructor | Table 2 row |
//! |---|---|
//! | [`memfs`] | Memory File System |
//! | [`ufs_delayed`] | UFS, delayed data + metadata |
//! | [`advfs`] | AdvFS (journaled metadata) |
//! | [`ufs_default`] | UFS |
//! | [`ufs_write_close`] | UFS write-through on close |
//! | [`ufs_write_write`] | UFS write-through on write |
//! | [`rio_without_protection`] | Rio without protection |
//! | [`rio_with_protection`] | Rio with protection |
//!
//! [`table2_rows`] pairs each policy with its row label; the kernel never
//! sees it. A row's "Data Permanent" column is not typed here: it is
//! [`Policy::permanence`], derived from the same fields the kernel obeys,
//! and the root package's `tests/permanence.rs` crashes every row to check
//! that each loses no more than it promises.
//!
//! # Example
//!
//! ```
//! use rio_baselines::table2_rows;
//! use rio_kernel::{Kernel, KernelConfig};
//!
//! # fn main() -> Result<(), rio_kernel::KernelError> {
//! // Spin up the full Table 2 fleet.
//! for (_label, policy) in table2_rows() {
//!     let mut k = Kernel::mkfs_and_mount(&KernelConfig::small(policy))?;
//!     let fd = k.create("/probe")?;
//!     k.write(fd, b"hello")?;
//!     k.close(fd)?;
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

use rio_core::RioMode;
use rio_kernel::policy::THROTTLE_DIRTY_BYTES;
use rio_kernel::{DataPolicy, MetadataPolicy, Policy};

pub use rio_kernel::policy::UPDATE_INTERVAL;

/// UFS's asynchronous write-clustering threshold (64 KB).
pub const UFS_CLUSTER_BYTES: u64 = 64 * 1024;

/// Memory File System \[McKusick90\]: entirely memory-resident, no disk I/O,
/// no crash survival. Table 2's optimal-performance yardstick.
pub fn memfs() -> Policy {
    Policy {
        data: DataPolicy::Never,
        metadata: MetadataPolicy::Never,
        fsync_on_close: false,
        update_interval: None,
        rio: None,
        throttle_dirty_bytes: None,
    }
}

/// The optimal "no-order" UFS of \[Ganger94\]: both data and metadata delayed
/// until the next `update`. Fast, but a crash loses up to 30 seconds of
/// *everything*.
pub fn ufs_delayed() -> Policy {
    Policy {
        data: DataPolicy::Delayed,
        metadata: MetadataPolicy::Delayed,
        fsync_on_close: false,
        update_interval: Some(UPDATE_INTERVAL),
        rio: None,
        throttle_dirty_bytes: Some(THROTTLE_DIRTY_BYTES),
    }
}

/// AdvFS: journaled metadata (sequential log writes), async data.
pub fn advfs() -> Policy {
    Policy {
        data: DataPolicy::Delayed,
        metadata: MetadataPolicy::Journal,
        fsync_on_close: false,
        update_interval: Some(UPDATE_INTERVAL),
        rio: None,
        throttle_dirty_bytes: Some(THROTTLE_DIRTY_BYTES),
    }
}

/// Default Digital Unix UFS: data asynchronous at 64 KB clusters (and on
/// non-sequential writes, and every 30 s), metadata synchronous for
/// ordering \[Ganger94\].
pub fn ufs_default() -> Policy {
    Policy {
        data: DataPolicy::AsyncClustered {
            cluster_bytes: UFS_CLUSTER_BYTES,
        },
        metadata: MetadataPolicy::Sync,
        fsync_on_close: false,
        update_interval: Some(UPDATE_INTERVAL),
        rio: None,
        throttle_dirty_bytes: Some(THROTTLE_DIRTY_BYTES),
    }
}

/// UFS with write-through on close: `fsync` on every file close.
pub fn ufs_write_close() -> Policy {
    Policy {
        data: DataPolicy::AsyncClustered {
            cluster_bytes: UFS_CLUSTER_BYTES,
        },
        metadata: MetadataPolicy::Sync,
        fsync_on_close: true,
        update_interval: Some(UPDATE_INTERVAL),
        rio: None,
        throttle_dirty_bytes: Some(THROTTLE_DIRTY_BYTES),
    }
}

/// UFS with write-through on write: every `write` synchronous ("sync"
/// mount plus fsync on close). The only non-Rio row with Rio's reliability
/// guarantee, and the Table 1 disk-based system.
pub fn ufs_write_write() -> Policy {
    Policy::disk_write_through()
}

/// Rio without protection: registry + warm reboot only (Table 1 middle
/// column).
pub fn rio_without_protection() -> Policy {
    Policy::rio(RioMode::Unprotected)
}

/// Rio with protection: the full system (Table 1 right column).
pub fn rio_with_protection() -> Policy {
    Policy::rio(RioMode::Protected)
}

/// The eight Table 2 rows, in the paper's order: each row's label and its
/// policy.
pub fn table2_rows() -> Vec<(&'static str, Policy)> {
    vec![
        ("Memory File System", memfs()),
        ("UFS, delayed data and metadata", ufs_delayed()),
        ("AdvFS (log metadata updates)", advfs()),
        ("UFS", ufs_default()),
        ("UFS write-through on close", ufs_write_close()),
        ("UFS write-through on write", ufs_write_write()),
        ("Rio without protection", rio_without_protection()),
        ("Rio with protection", rio_with_protection()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_disk::SimTime;
    use rio_kernel::{Kernel, KernelConfig, PanicReason};

    #[test]
    fn eight_rows_with_unique_labels() {
        let rows = table2_rows();
        assert_eq!(rows.len(), 8);
        let mut labels: Vec<_> = rows.iter().map(|(label, _)| *label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn table2_write_through_row_is_the_table1_disk_based_system() {
        assert_eq!(ufs_write_write(), Policy::disk_write_through());
    }

    #[test]
    fn only_rio_rows_enable_rio() {
        for (i, (label, p)) in table2_rows().iter().enumerate() {
            assert_eq!(p.rio_enabled(), i >= 6, "{label}");
        }
    }

    /// Disk writes a panic submits with a freshly written file still in
    /// the cache, after `prepare` has run on the mounted kernel.
    fn panic_flush_writes(policy: &Policy, prepare: impl Fn(&mut Kernel)) -> u64 {
        let mut k = Kernel::mkfs_and_mount(&KernelConfig::small(policy.clone())).unwrap();
        prepare(&mut k);
        let fd = k.create("/dirty").unwrap();
        k.write(fd, &[7; 10_000]).unwrap();
        let before = k.machine.disk.stats().writes;
        k.crash_now(PanicReason::Watchdog);
        k.machine.disk.stats().writes - before
    }

    /// Whether a file's data is on the disk once `fsync` returns: a cold
    /// boot of the disk as it stands then (nothing still queued lands)
    /// reads it back. A `sync` before the write puts the directory entry
    /// there on the rows whose `sync` writes, since `fsync` need not.
    fn fsync_reaches_disk(policy: &Policy, prepare: impl Fn(&mut Kernel)) -> bool {
        let config = KernelConfig::small(policy.clone());
        let mut k = Kernel::mkfs_and_mount(&config).unwrap();
        prepare(&mut k);
        let data = [9; 10_000];
        let fd = k.create("/synced").unwrap();
        k.sync().unwrap();
        k.write(fd, &data).unwrap();
        k.fsync(fd).unwrap();
        let mut disk = k.machine.disk.clone();
        disk.crash(k.machine.clock.now());
        let (mut k2, _) = Kernel::cold_boot(&config, disk).unwrap();
        k2.file_contents("/synced").ok().as_deref() == Some(&data[..])
    }

    #[test]
    fn reliability_writes_follow_the_data_policy() {
        // §2.3's rule, row by row: `fsync` reaches the disk exactly on the
        // rows whose data is ever written for reliability, and only those
        // rows flush dirty buffers at a panic — not MemFS, not either Rio
        // row.
        let rows = table2_rows();
        for (label, policy) in &rows {
            let writes = policy.data != DataPolicy::Never;
            assert_eq!(fsync_reaches_disk(policy, |_| {}), writes, "{label}: fsync");
            let flushed = panic_flush_writes(policy, |_| {});
            if !writes {
                assert_eq!(flushed, 0, "{label}: a panic flushed");
            }
        }
        for (label, policy) in [("delayed UFS", ufs_delayed()), ("AdvFS", advfs())] {
            assert!(
                panic_flush_writes(&policy, |_| {}) > 0,
                "{label}: no panic flush"
            );
        }
        // The administrator switch turns Rio's `fsync` back on; a Rio
        // panic still flushes nothing.
        let enable = |k: &mut Kernel| k.set_reliability_writes(true);
        for (label, policy) in rows.iter().filter(|(_, p)| p.rio_enabled()) {
            assert!(
                fsync_reaches_disk(policy, enable),
                "{label}: switched fsync"
            );
            assert_eq!(
                panic_flush_writes(policy, enable),
                0,
                "{label}: switched panic"
            );
        }
    }

    #[test]
    fn memfs_never_touches_the_disk() {
        let config = KernelConfig::small(memfs());
        let mut k = Kernel::mkfs_and_mount(&config).unwrap();
        for i in 0..4 {
            let fd = k.create(&format!("/f{i}")).unwrap();
            k.write(fd, &vec![i as u8; 9000]).unwrap();
            k.close(fd).unwrap();
        }
        assert_eq!(k.machine.disk.stats().writes, 0);
    }

    #[test]
    fn advfs_journals_metadata_sequentially() {
        let config = KernelConfig::small(advfs());
        let mut k = Kernel::mkfs_and_mount(&config).unwrap();
        for i in 0..5 {
            let fd = k.create(&format!("/j{i}")).unwrap();
            k.write(fd, b"x").unwrap();
            k.close(fd).unwrap();
        }
        // Metadata updates produced journal writes (async), not sync waits.
        assert!(k.machine.disk.stats().writes > 0);
        assert_eq!(k.stats().sync_waits, 0);
    }

    #[test]
    fn write_through_waits_synchronously() {
        let config = KernelConfig::small(ufs_write_write());
        let mut k = Kernel::mkfs_and_mount(&config).unwrap();
        let fd = k.create("/s").unwrap();
        k.write(fd, &vec![0u8; 8192]).unwrap();
        assert!(k.stats().sync_waits > 0);
        assert!(k.machine.clock.disk_wait() > SimTime::ZERO);
    }

    #[test]
    fn rio_is_dramatically_faster_than_write_through() {
        // A miniature Table 2 shape check: same workload, compare clocks.
        let run = |policy: Policy| {
            let config = KernelConfig::small(policy);
            let mut k = Kernel::mkfs_and_mount(&config).unwrap();
            for i in 0..10 {
                let fd = k.create(&format!("/f{i}")).unwrap();
                k.write(fd, &vec![7u8; 16384]).unwrap();
                k.close(fd).unwrap();
            }
            k.machine.clock.now()
        };
        let rio = run(rio_with_protection());
        let wt = run(ufs_write_write());
        assert!(
            wt.as_micros() > rio.as_micros() * 4,
            "write-through {wt} should be >4x Rio {rio}"
        );
    }
}
