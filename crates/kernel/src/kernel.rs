//! The `Kernel` type: composition, boot paths, and crash handling.
//!
//! The kernel owns a [`Machine`] plus host-side (volatile) bookkeeping: the
//! buffer-cache and UBC indices, the fd table, and the Rio state. A crash
//! discards *everything but* the machine's physical memory image and the
//! disk — which is precisely the paper's model: DRAM and platters survive a
//! reboot, kernel data structures do not.

use crate::cache::{MixMap, PageCache};
use crate::crc_cache::SectorCrcCache;
use crate::error::{CrashInfo, KernelError, PanicReason};
use crate::machine::{Machine, MachineConfig};
use crate::ondisk::{DiskGeometry, Superblock, ROOT_INO};
use crate::policy::Policy;
use rio_core::{ProtectionManager, Registry, RegistryEntry, ShadowPool};
use rio_disk::{SimDisk, SimTime};
use rio_mem::{PageNum, PhysMem};

/// Number of buffer-cache pages reserved as metadata shadows (§2.3).
pub const NUM_SHADOWS: usize = 4;

/// Rio machinery, present when the policy enables it.
#[derive(Debug, Clone)]
pub struct RioState {
    /// The registry.
    pub registry: Registry,
    /// Protection windows.
    pub prot: ProtectionManager,
    /// Shadow pages for atomic metadata updates.
    pub shadows: ShadowPool,
    /// Host-side decoded-entry cache for *file* (non-metadata) pages: the
    /// authoritative in-kernel descriptor, mirroring how a real kernel keeps
    /// native buf structs and treats the registry as the crash-surviving
    /// encoding. Reads skip the 40-byte bus decode; writes go through
    /// `Kernel::rio_write_entry` (write-through) and
    /// `Kernel::rio_clear_entry` (invalidate). Dies with the kernel at a
    /// crash, like every other host-side structure.
    pub(crate) entry_cache: MixMap<PageNum, RegistryEntry>,
    /// `(protection windows opened, stores checked)` as of the last
    /// [`Kernel::charge_protection`]: what the clock has been charged for.
    pub(crate) charged: (u64, u64),
}

/// Is the system up?
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysState {
    /// Serving syscalls.
    Running,
    /// Crashed; memory image and disk await a reboot.
    Crashed(CrashInfo),
}

/// An open-file handle returned by `open`/`create`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub u64);

impl Fd {
    /// Stands in, inside a [`crate::SyscallScript`], for the descriptor
    /// the script's most recent `create` / `open` returned — not known
    /// when the script is written. Never a real descriptor.
    pub const LAST_OPENED: Fd = Fd(u64::MAX);
}

/// Kernel-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Syscalls served.
    pub syscalls: u64,
    /// Reliability-induced synchronous disk waits.
    pub sync_waits: u64,
    /// Dirty pages written back on cache overflow.
    pub overflow_writebacks: u64,
    /// `update` daemon runs.
    pub update_runs: u64,
    /// Reliability writes converted to delayed writes (the paper's
    /// bwrite→bdwrite conversion, §2.3: metadata updates that a stock
    /// kernel would push synchronously but this policy leaves dirty in
    /// memory).
    pub bwrite_to_bdwrite: u64,
    /// Atomic shadow-page metadata commits (§2.3).
    pub shadow_commits: u64,
    /// `Fs` / `Ubc` acquisitions: the locks a syscall holds across its
    /// phases (the within-phase `Buf` / `Alloc` pairs are not counted).
    pub locks_acquired: u64,
    /// Those acquisitions that found the lock held and joined the FIFO
    /// wait queue.
    pub locks_contended: u64,
}

/// Construction parameters for a kernel.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Hardware sizing.
    pub machine: MachineConfig,
    /// File-system geometry for `mkfs`.
    pub geometry: DiskGeometry,
    /// Write policy (one of the Table 2 rows).
    pub policy: Policy,
}

impl KernelConfig {
    /// Small test/campaign configuration with the given policy.
    pub fn small(policy: Policy) -> Self {
        KernelConfig {
            machine: MachineConfig::small(),
            geometry: DiskGeometry::small(),
            policy,
        }
    }
}

/// The simulated operating system.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The hardware.
    pub machine: Machine,
    pub(crate) policy: Policy,
    /// Whether `fsync` / `sync` / write-through-on-close reach the disk:
    /// the policy's [`Policy::writes_for_reliability`] at mount, then
    /// §2.3's administrator switch ([`Kernel::set_reliability_writes`]).
    pub(crate) reliability_writes: bool,
    pub(crate) geometry: DiskGeometry,
    pub(crate) state: SysState,
    /// Buffer cache: disk block → page.
    pub(crate) bufcache: PageCache<u64>,
    /// UBC: (ino, file page index) → page, with one record per file: its
    /// resident pages and its UFS clustering run.
    pub(crate) ubc: PageCache<(u64, u64)>,
    pub(crate) rio: Option<RioState>,
    /// fd → heap address of the in-kernel file object.
    pub(crate) fds: MixMap<u64, u64>,
    pub(crate) next_fd: u64,
    pub(crate) next_update: Option<SimTime>,
    /// Journal head (next journal slot), for the AdvFS policy.
    pub(crate) journal_head: u64,
    /// Sector checksum cache backing the O(dirty) write fast path.
    pub(crate) crc_cache: SectorCrcCache,
    /// Warm-reboot replay runs with this set: writes keep the inode's
    /// recovered mtime instead of stamping the replay clock, so an
    /// interrupted-and-resumed recovery converges to the same on-disk
    /// bytes as an uninterrupted one.
    pub(crate) preserve_mtime_on_write: bool,
    /// Client whose continuation currently holds the CPU: set by the
    /// scheduler for a quantum, `None` inside a blocking
    /// [`Kernel::syscall`].
    pub(crate) cur_client: Option<u32>,
    /// Host-side lock ownership and FIFO wait queues for the preemptive
    /// scheduler. Dies with the kernel at a crash, like the fd table.
    pub(crate) lockq: crate::preempt::LockQueues,
    /// Disk writes in flight from cache frames, for eviction's wait and
    /// the registry DIRTY retirement ([`crate::bio`]).
    pub(crate) inflight: crate::bio::InFlight,
    pub(crate) stats: KernelStats,
}

impl Kernel {
    /// Formats a fresh disk and mounts it (the common entry point).
    ///
    /// # Errors
    ///
    /// Propagates mount failures (impossible on a freshly formatted disk
    /// unless the configuration is broken).
    pub fn mkfs_and_mount(config: &KernelConfig) -> Result<Kernel, KernelError> {
        let mut machine = Machine::new(&config.machine);
        assert!(
            config.machine.disk_blocks >= config.geometry.num_blocks,
            "disk smaller than file-system geometry"
        );
        Self::format(&mut machine.disk, &config.geometry);
        Self::mount(machine, config)
    }

    /// Writes a pristine file system onto the disk (untimed, like a real
    /// `newfs` run before the measured workload).
    pub fn format(disk: &mut SimDisk, geometry: &DiskGeometry) {
        let sb = Superblock {
            geometry: *geometry,
            mount_count: 0,
        };
        disk.poke(0, &sb.encode());
        // Zero the inode table and bitmap.
        let zero = vec![0u8; rio_disk::BLOCK_SIZE];
        for b in geometry.inode_start..geometry.data_start {
            disk.poke(b, &zero);
        }
        // Mark metadata blocks allocated in the bitmap.
        let mut bitmap = vec![0u8; rio_disk::BLOCK_SIZE];
        // (Bitmap tracks every block; blocks below data_start are reserved.)
        for b in 0..geometry.data_start {
            let (blk, bit) = geometry.bitmap_location(b);
            if blk == geometry.bitmap_start {
                bitmap[bit / 8] |= 1 << (bit % 8);
            }
        }
        disk.poke(geometry.bitmap_start, &bitmap);
        // Root directory inode.
        let mut root = crate::ondisk::Inode::empty(crate::ondisk::FileType::Dir);
        root.nlink = 2;
        let (blk, off) = geometry.inode_location(ROOT_INO);
        let mut iblock = disk.peek(blk).to_vec();
        iblock[off..off + crate::ondisk::INODE_BYTES].copy_from_slice(&root.encode());
        disk.poke(blk, &iblock);
    }

    /// Mounts the file system on `machine`'s disk.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadSuperblock`] when block 0 does not decode.
    pub fn mount(machine: Machine, config: &KernelConfig) -> Result<Kernel, KernelError> {
        let mut machine = machine;
        // Read the superblock (timed: one disk read).
        let sb_bytes = machine.bread(0);
        let sb = Superblock::decode(&sb_bytes).ok_or(KernelError::BadSuperblock)?;
        let geometry = sb.geometry;

        let layout = *machine.bus.layout();
        // Rio state first: the shadow pool reserves buffer-cache tail pages.
        let rio = config.policy.rio.map(|mode| {
            let prot = ProtectionManager::new(mode);
            prot.install(&mut machine.bus);
            RioState {
                registry: Registry::new(layout),
                prot,
                shadows: ShadowPool::new(&layout, NUM_SHADOWS),
                entry_cache: MixMap::default(),
                charged: (0, machine.bus.stats().patch_checks),
            }
        });
        // Buffer-cache pages: all but the reserved shadow tail.
        let total_bc = layout.buffer_cache.pages() as usize;
        let bc_pages: Vec<PageNum> = layout
            .buffer_cache
            .page_numbers()
            .take(total_bc - NUM_SHADOWS)
            .collect();
        let ubc_pages: Vec<PageNum> = layout.ubc.page_numbers().collect();

        let next_update = config
            .policy
            .update_interval
            .map(|iv| machine.clock.now() + iv);
        Ok(Kernel {
            machine,
            policy: config.policy.clone(),
            reliability_writes: config.policy.writes_for_reliability(),
            geometry,
            state: SysState::Running,
            bufcache: PageCache::new(bc_pages),
            ubc: PageCache::new(ubc_pages),
            rio,
            fds: MixMap::default(),
            next_fd: 3, // 0-2 reserved, as tradition demands
            next_update,
            journal_head: 0,
            crc_cache: SectorCrcCache::new(),
            preserve_mtime_on_write: false,
            cur_client: None,
            lockq: crate::preempt::LockQueues::default(),
            inflight: crate::bio::InFlight::default(),
            stats: KernelStats::default(),
        })
    }

    /// The active policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The file-system geometry.
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geometry
    }

    /// Counters so far.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Rio protection-window statistics, if Rio is enabled.
    pub fn rio_stats(&self) -> Option<rio_core::ProtectionStats> {
        self.rio.as_ref().map(|r| r.prot.stats())
    }

    /// Whether the system has crashed.
    pub fn is_crashed(&self) -> bool {
        matches!(self.state, SysState::Crashed(_))
    }

    /// Crash details, if crashed.
    pub fn crash_info(&self) -> Option<&CrashInfo> {
        match &self.state {
            SysState::Running => None,
            SysState::Crashed(info) => Some(info),
        }
    }

    /// Converts an internal panic into a system crash and the syscall-level
    /// error. Central crash path: optionally flushes dirty buffers (stock
    /// kernels do on panic; Rio must not — §2.3), then freezes the system.
    pub(crate) fn panic_from(&mut self, reason: PanicReason) -> KernelError {
        if self.is_crashed() {
            return KernelError::Crashed;
        }
        if self.policy.writes_for_reliability() {
            // A sick kernel pushing dirty buffers out: this is the paper's
            // channel by which direct memory corruption reaches disk.
            self.panic_flush();
        }
        let info = CrashInfo {
            reason: reason.clone(),
            at: self.machine.clock.now(),
        };
        self.state = SysState::Crashed(info);
        KernelError::Panic(reason)
    }

    /// Forces a crash from outside (fault-campaign watchdog, or a fault
    /// model that halts the machine directly).
    pub fn crash_now(&mut self, reason: PanicReason) {
        let _ = self.panic_from(reason);
    }

    /// Consumes the kernel at crash time, yielding what survives: the
    /// physical memory image and the disk.
    ///
    /// # Panics
    ///
    /// Panics if the system has not crashed — taking the image of a live
    /// system is a harness bug.
    pub fn into_crash_artifacts(mut self) -> (PhysMem, SimDisk) {
        assert!(self.is_crashed(), "system is still running");
        // Unless a panic flush already pushed the queue, in-flight writes
        // tear exactly as the disk's crash model dictates.
        let now = self.machine.clock.now();
        self.machine.disk.crash(now);
        // The DRAM a crash leaves is frozen: the warm reboot and every
        // recovery trial clone it, so hand it over sealed.
        let mut image = self.machine.bus.into_image();
        image.seal();
        (image, self.machine.disk)
    }

    /// Guard at every syscall entry.
    ///
    /// # Errors
    ///
    /// [`KernelError::Crashed`] once the system is down.
    pub(crate) fn enter_syscall(&mut self) -> Result<(), KernelError> {
        if self.is_crashed() {
            return Err(KernelError::Crashed);
        }
        self.stats.syscalls += 1;
        self.machine.clock.charge_syscall();
        if rio_obs::is_enabled() {
            rio_obs::emit(
                rio_obs::EventCategory::Syscall,
                rio_obs::Payload::Count {
                    value: self.stats.syscalls,
                },
            );
        }
        // The rest-of-the-kernel consistency probe (see
        // `Machine::integrity_probe`).
        if let Err(reason) = self.machine.integrity_probe() {
            return Err(self.panic_from(reason));
        }
        self.retire_ubc_writebacks(self.machine.clock.now())?;
        self.maybe_update()?;
        Ok(())
    }

    /// §2.3 footnote 1: *"We do provide a way for a system administrator
    /// to easily enable and disable reliability disk writes for machine
    /// maintenance or extended power outages."* With writes enabled,
    /// `sync`/`fsync` push to disk again; call [`Kernel::sync`] afterwards
    /// to drain the cache before powering down. A panic still flushes only
    /// under a policy that [writes for reliability](Policy::writes_for_reliability).
    pub fn set_reliability_writes(&mut self, enabled: bool) {
        self.reliability_writes = enabled;
    }

    /// Snapshots every layer's counters into an observability registry.
    ///
    /// This is the bridge between the plain per-subsystem stats structs
    /// (kept free of thread-local traffic on the hot paths) and the
    /// [`rio_obs::Registry`] a trace session collects: called once per
    /// trial/run, it copies memory-bus, kernel, disk, CRC-cache, hook, and
    /// protection-window counters under stable dotted names. Counter names
    /// are part of the trace format documented in `DESIGN.md` §5.
    pub fn observe_into(&self, reg: &mut rio_obs::Registry) {
        let m = self.machine.bus.stats();
        reg.add("mem.loads", m.loads);
        reg.add("mem.stores", m.stores);
        reg.add("mem.bytes_moved", m.bytes_moved);
        reg.add("mem.protection_traps", m.protection_traps);
        reg.add("mem.patch_checks", m.patch_checks);
        reg.add("mem.kseg_forced", m.kseg_forced);
        reg.add("cpu.steps", self.machine.cpu.steps());
        reg.add("cpu.decode_misses", self.machine.cpu.decode_misses());

        let k = self.stats;
        reg.add("kernel.syscalls", k.syscalls);
        reg.add("kernel.sync_waits", k.sync_waits);
        reg.add("kernel.overflow_writebacks", k.overflow_writebacks);
        reg.add("kernel.update_runs", k.update_runs);
        reg.add("kernel.bwrite_to_bdwrite", k.bwrite_to_bdwrite);
        reg.add("kernel.shadow_commits", k.shadow_commits);
        reg.add("locks.acquired", k.locks_acquired);
        reg.add("locks.contended", k.locks_contended);
        reg.add("kernel.hook_activations", self.machine.hooks.activations);
        reg.add("kernel.crc_sectors_cached", self.crc_cache.sectors_cached);
        reg.add(
            "kernel.crc_sectors_recomputed",
            self.crc_cache.sectors_recomputed,
        );
        if let Some(p) = self.rio_stats() {
            reg.add("rio.windows_opened", p.windows_opened);
        }

        let d = self.machine.disk.stats();
        reg.add("disk.reads", d.reads);
        reg.add("disk.writes", d.writes);
        reg.add("disk.bytes_read", d.bytes_read);
        reg.add("disk.bytes_written", d.bytes_written);
        reg.add("disk.writes_lost_at_crash", d.writes_lost_at_crash);
        reg.add("disk.blocks_torn_at_crash", d.blocks_torn_at_crash);
    }

    /// The one place protection's simulated cost is charged: every window
    /// the protection manager counted and every store the bus checked for
    /// a code-patched kernel since the last call
    /// ([`crate::Clock::charge_protection`]). Called at every return of a
    /// live kernel's syscall, so no window or check goes uncharged however
    /// deep in `rio-core` it was opened; work done outside a syscall
    /// (mount, the warm reboot's commits) is charged at the next return.
    pub(crate) fn charge_protection(&mut self) {
        let Some(rio) = &mut self.rio else {
            return;
        };
        let counted = (
            rio.prot.stats().windows_opened,
            self.machine.bus.stats().patch_checks,
        );
        let (windows, checks) = std::mem::replace(&mut rio.charged, counted);
        self.machine
            .clock
            .charge_protection(counted.0 - windows, counted.1 - checks);
    }

    /// Whether this kernel maintains Rio state.
    pub fn rio_enabled(&self) -> bool {
        self.rio.is_some()
    }
}
