//! The syscall sequencer: resumable continuations and blocking locks with
//! deterministic FIFO wait queues.
//!
//! The paper's Table 1 was measured on a kernel where real processes had
//! half-finished syscall state at every crash, and contended for its
//! locks. A syscall that ran to completion inside one scheduler quantum
//! could show neither. This module is the one place a syscall is
//! sequenced — which lock it takes, what runs under it, where it may
//! sleep — for [`crate::sched`] and for the blocking wrappers of
//! [`crate::syscalls`] alike ([`Kernel::syscall`]):
//!
//! - [`SyscallOp`] names a syscall and its arguments; [`SyscallCont`]
//!   executes it as an explicit phase machine that yields the CPU at the
//!   operation's *actual block points* — a buffer-cache or UBC miss that
//!   goes to disk, a dirty-throttle stall, an fsync drain — with kernel
//!   state half-mutated (staging buffers allocated, registry entries
//!   CHANGING, directory blocks partially updated).
//! - Locks are legitimately held **across** yields: `namei` sleeps on a
//!   directory-block read holding `Fs`; a multi-page write holds `Ubc`
//!   from first page to last. A second client hitting a held lock joins
//!   a FIFO wait queue (`LockQueues`) and blocks; releases hand the
//!   lock to the queue head by *reservation*, so the wake-up order is a
//!   pure function of simulated state — deterministic at any
//!   `RIO_THREADS`.
//!
//! # Why a reservation, not an ownership transfer
//!
//! When a release pops the FIFO head we cannot simply flip the lock word
//! to the waiter: the waiter's acquire phase re-runs when it next gets
//! the CPU, and finding the word already "held by itself" would panic as
//! a double acquire. Instead the release *reserves* the lock for the
//! head; the scheduler only considers a lock-blocked client runnable once
//! its reservation exists, and the re-run acquire phase then takes the
//! word itself. The word-level panic semantics of [`crate::locks`] are
//! untouched — a skipped release (§3.1's synchronization fault) still
//! leaves the word in the wrong state, and the next consistent acquire
//! still crashes the kernel.
//!
//! # Deadlock freedom
//!
//! Only `Fs` (namei) and `Ubc` (the page loop of a read/write) are ever
//! held across a yield, and no continuation ever holds both: path ops
//! take `Fs` only, data ops take `Ubc` only, and `Buf`/`Alloc` are
//! acquired and released *within* a single phase (where no yield can
//! occur). Hold-one-at-a-time means no cycle, hence no deadlock.

use crate::data::IoJob;
use crate::error::KernelError;
use crate::kernel::{Fd, Kernel};
use crate::locks::LockId;
use crate::ondisk::{FileType, ROOT_INO};
use crate::syscalls::Stat;
use rio_disk::SimTime;
use std::collections::VecDeque;

/// A syscall and its arguments, ready to run as a continuation. Generic
/// over how the path and data arguments are held: a parked client owns
/// them (`String` / `Vec<u8>`, the defaults), a blocking wrapper lends the
/// caller's ([`OpRef`]) — the phase machine only ever reads them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyscallOp<S = String, B = Vec<u8>> {
    /// `create(path)` → [`SyscallRet::Fd`].
    Create(S),
    /// `open(path)` → [`SyscallRet::Fd`].
    Open(S),
    /// `close(fd)` → [`SyscallRet::Unit`].
    Close(Fd),
    /// `write(fd, data)` → [`SyscallRet::Size`].
    Write {
        /// Target descriptor.
        fd: Fd,
        /// Bytes to write at the descriptor position.
        data: B,
    },
    /// `pwrite(fd, offset, data)` → [`SyscallRet::Size`].
    Pwrite {
        /// Target descriptor.
        fd: Fd,
        /// Absolute byte offset.
        offset: u64,
        /// Bytes to write.
        data: B,
    },
    /// `read(fd, len)` → [`SyscallRet::Bytes`].
    Read {
        /// Source descriptor.
        fd: Fd,
        /// Maximum bytes to read.
        len: usize,
    },
    /// `pread(fd, offset, len)` → [`SyscallRet::Bytes`].
    Pread {
        /// Source descriptor.
        fd: Fd,
        /// Absolute byte offset.
        offset: u64,
        /// Maximum bytes to read.
        len: usize,
    },
    /// `fsync(fd)` → [`SyscallRet::Unit`].
    Fsync(Fd),
    /// `sync()` → [`SyscallRet::Unit`].
    Sync,
    /// `mkdir(path)` → [`SyscallRet::Unit`].
    Mkdir(S),
    /// `rmdir(path)` → [`SyscallRet::Unit`].
    Rmdir(S),
    /// `unlink(path)` → [`SyscallRet::Unit`].
    Unlink(S),
    /// `rename(from, to)` → [`SyscallRet::Unit`].
    Rename {
        /// Existing name.
        from: S,
        /// New name; must not exist.
        to: S,
    },
    /// `readdir(path)` → [`SyscallRet::Names`].
    Readdir(S),
    /// `stat(path)` → [`SyscallRet::Stat`].
    Stat(S),
    /// Privileged `pwrite` by inode number (the warm-reboot replay) →
    /// [`SyscallRet::Size`].
    PwriteIno {
        /// Target inode; must be a regular file.
        ino: u64,
        /// Absolute byte offset.
        offset: u64,
        /// Bytes to write.
        data: B,
    },
}

/// A [`SyscallOp`] over the caller's own `&str` / `&[u8]`: what the
/// blocking wrappers hand to [`Kernel::syscall`], copying nothing.
pub type OpRef<'a> = SyscallOp<&'a str, &'a [u8]>;

impl<S: AsRef<str>, B: AsRef<[u8]>> SyscallOp<S, B> {
    /// The same op over borrowed arguments, for [`Kernel::syscall`].
    pub fn as_op_ref(&self) -> OpRef<'_> {
        match self {
            SyscallOp::Create(p) => SyscallOp::Create(p.as_ref()),
            SyscallOp::Open(p) => SyscallOp::Open(p.as_ref()),
            SyscallOp::Close(fd) => SyscallOp::Close(*fd),
            SyscallOp::Write { fd, data } => SyscallOp::Write {
                fd: *fd,
                data: data.as_ref(),
            },
            SyscallOp::Pwrite { fd, offset, data } => SyscallOp::Pwrite {
                fd: *fd,
                offset: *offset,
                data: data.as_ref(),
            },
            SyscallOp::Read { fd, len } => SyscallOp::Read { fd: *fd, len: *len },
            SyscallOp::Pread { fd, offset, len } => SyscallOp::Pread {
                fd: *fd,
                offset: *offset,
                len: *len,
            },
            SyscallOp::Fsync(fd) => SyscallOp::Fsync(*fd),
            SyscallOp::Sync => SyscallOp::Sync,
            SyscallOp::Mkdir(p) => SyscallOp::Mkdir(p.as_ref()),
            SyscallOp::Rmdir(p) => SyscallOp::Rmdir(p.as_ref()),
            SyscallOp::Unlink(p) => SyscallOp::Unlink(p.as_ref()),
            SyscallOp::Rename { from, to } => SyscallOp::Rename {
                from: from.as_ref(),
                to: to.as_ref(),
            },
            SyscallOp::Readdir(p) => SyscallOp::Readdir(p.as_ref()),
            SyscallOp::Stat(p) => SyscallOp::Stat(p.as_ref()),
            SyscallOp::PwriteIno { ino, offset, data } => SyscallOp::PwriteIno {
                ino: *ino,
                offset: *offset,
                data: data.as_ref(),
            },
        }
    }
}

impl<S: AsRef<str>, B> SyscallOp<S, B> {
    /// The path the namei phase resolves, for path-resolving ops.
    fn path(&self) -> Option<&str> {
        match self {
            SyscallOp::Create(p)
            | SyscallOp::Open(p)
            | SyscallOp::Mkdir(p)
            | SyscallOp::Rmdir(p)
            | SyscallOp::Unlink(p)
            | SyscallOp::Rename { from: p, .. }
            | SyscallOp::Readdir(p)
            | SyscallOp::Stat(p) => Some(p.as_ref()),
            _ => None,
        }
    }
}

/// A completed syscall's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyscallRet {
    /// An open descriptor (`create`/`open`).
    Fd(Fd),
    /// Read data.
    Bytes(Vec<u8>),
    /// Bytes written.
    Size(usize),
    /// Directory listing.
    Names(Vec<String>),
    /// Inode metadata.
    Stat(Stat),
    /// Nothing (close/fsync/sync/mkdir/rmdir/unlink/rename).
    Unit,
}

/// Why a continuation gave up the CPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Yield {
    /// The syscall completed with this result. A deferred disk wake-up
    /// may still be pending on the clock (e.g. a throttle stall in the
    /// final phase); the scheduler blocks the client until then.
    Done(SyscallRet),
    /// Blocked at a disk wake-up recorded on the deferred-wait clock;
    /// the scheduler takes the time with
    /// [`crate::clock::Clock::take_deferred`].
    Disk,
    /// Blocked in the FIFO wait queue of this lock; runnable again once
    /// the queue reserves the lock for this client.
    Lock(LockId),
}

/// Host-side lock ownership, FIFO wait queues, and hand-off
/// reservations. Lives in the [`Kernel`] beside the fd table and — like
/// it — dies at a crash; the crash-surviving truth stays in the lock
/// *words* in simulated memory ([`crate::locks::LockSet`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct LockQueues {
    /// Which client's continuation holds each lock (set only by a
    /// scheduled [`Kernel::lock_acquire_preempt`]; the within-phase
    /// `Buf` / `Alloc` pairs and a blocking [`Kernel::syscall`] never
    /// register here).
    owner: [Option<u32>; 4],
    /// FIFO of `(client, wait-start time)` per lock.
    pub(crate) waiters: [VecDeque<(u32, SimTime)>; 4],
    /// Hand-off reservation: the released lock is earmarked for this
    /// client (the FIFO head at release time) until it takes the word.
    reserved: [Option<u32>; 4],
}

impl Kernel {
    /// Which client's continuation holds `id` (preemptive scheduling
    /// introspection; crash forensics records held locks at injection).
    pub fn lock_owner(&self, id: LockId) -> Option<u32> {
        self.lockq.owner[id.index()]
    }

    /// The client `id` is reserved for after a FIFO hand-off.
    pub fn lock_reserved_for(&self, id: LockId) -> Option<u32> {
        self.lockq.reserved[id.index()]
    }

    /// Runs one syscall to completion: the same continuation the
    /// scheduler parks and resumes, on the ordinary (blocking) clock. A
    /// disk wait advances time on the spot, so no phase boundary ever
    /// finds a deferred wake-up pending, and with no scheduled client
    /// there is nobody to queue behind — the continuation cannot yield.
    /// Every public syscall method of [`crate::syscalls`] is a typed
    /// wrapper over this.
    ///
    /// # Errors
    ///
    /// The syscall's own errors; [`KernelError::Panic`] on a crash.
    pub fn syscall(&mut self, op: OpRef<'_>) -> Result<SyscallRet, KernelError> {
        match SyscallCont::new(op).resume(self)? {
            Yield::Done(ret) => Ok(ret),
            y => unreachable!("a blocking syscall yielded {y:?}"),
        }
    }

    /// Blocking acquire of a lock held across phases. `Ok(true)` means
    /// the lock word was taken; `Ok(false)` means the lock is held (or
    /// reserved for another client) and the caller joined the FIFO —
    /// the continuation must yield [`Yield::Lock`] and re-run this
    /// acquire when the scheduler wakes it.
    ///
    /// # Errors
    ///
    /// Word-level panics propagate from [`crate::locks`]: a word left
    /// held by a skipped release, a corrupted word, or a true double
    /// acquire crashes the kernel.
    pub(crate) fn lock_acquire_preempt(&mut self, id: LockId) -> Result<bool, KernelError> {
        let Some(me) = self.cur_client else {
            // A blocking syscall: the word decides alone — free, or the
            // `simple_lock: … already held` panic (a parked client's hold
            // included; a caller that interleaves the two asked for it).
            self.lock(id)?;
            self.stats.locks_acquired += 1;
            return Ok(true);
        };
        let i = id.index();
        // FIFO hand-off: a release reserved the word for us.
        if self.lockq.reserved[i] == Some(me) {
            let since = self.lockq.waiters[i].pop_front().map(|(_, t)| t);
            self.lockq.reserved[i] = None;
            self.lock(id)?;
            self.lockq.owner[i] = Some(me);
            self.stats.locks_acquired += 1;
            if let Some(since) = since {
                let waited = self.machine.clock.now().saturating_sub(since);
                rio_obs::histogram_record("locks.wait_us", waited.as_micros());
            }
            return Ok(true);
        }
        let uncontended = self.lockq.owner[i].is_none()
            && self.lockq.reserved[i].is_none()
            && self.lockq.waiters[i].is_empty();
        if uncontended || self.lockq.owner[i] == Some(me) {
            // Free — or a double acquire by the owner, which must hit the
            // word and panic `simple_lock: … already held`.
            self.lock(id)?;
            self.lockq.owner[i] = Some(me);
            self.stats.locks_acquired += 1;
            return Ok(true);
        }
        // Contended: join the FIFO once, then block.
        if !self.lockq.waiters[i].iter().any(|&(c, _)| c == me) {
            let now = self.machine.clock.now();
            self.lockq.waiters[i].push_back((me, now));
            self.stats.locks_contended += 1;
            if rio_obs::is_enabled() {
                rio_obs::emit(
                    rio_obs::EventCategory::LockContended,
                    rio_obs::Payload::Addr {
                        addr: i as u64,
                        aux: u64::from(me),
                    },
                );
            }
        }
        Ok(false)
    }

    /// Release of a lock held across phases: frees the word (with the
    /// skipped-release fault and the crashed-kernel no-op of
    /// [`Kernel::unlock`]), clears ownership, and reserves the lock for
    /// the FIFO head so the scheduler can wake it.
    pub(crate) fn unlock_preempt(&mut self, id: LockId) -> Result<(), KernelError> {
        let i = id.index();
        let r = self.unlock(id);
        self.lockq.owner[i] = None;
        if self.lockq.reserved[i].is_none() {
            self.lockq.reserved[i] = self.lockq.waiters[i].front().map(|&(c, _)| c);
        }
        r
    }
}

/// Execution phases of a [`SyscallCont`]. Every variant boundary is a
/// potential yield point: the clock's deferred-wait mode records any
/// synchronous disk wait the phase performed, and the driver yields the
/// CPU if one is pending before entering the next phase.
#[derive(Debug, Clone)]
enum Phase {
    /// Syscall entry: crash guard, accounting, background daemons.
    Start,
    /// Blocking acquire of the namespace lock.
    AcqFs,
    /// Path walk under `Fs` — may sleep on directory-block reads while
    /// holding the lock (the classic namei sleep).
    Namei,
    /// Op-specific body under `Fs`; releases the lock at its end.
    PathBody {
        dir: u64,
        leaf: String,
        existing: Option<u64>,
    },
    /// File-object allocation after the namespace work (create/open).
    MakeFd { ino: u64 },
    /// `readdir("/")` / `stat("/")`: the root has no parent to walk from
    /// and no name to look up, so no namei and no `Fs`.
    Root,
    /// close/fsync/sync body (a flush may sleep on the disk drain).
    FdBody,
    /// Blocking acquire of the UBC lock (read/write).
    AcqUbc,
    /// Write setup under `Ubc`: fd state, activation record, staging.
    WritePrep,
    /// The per-page copy loop under `Ubc`; yields between pages when a
    /// UBC miss went to disk.
    WriteLoop,
    /// Write teardown: inode update, data policy (throttle may stall),
    /// `Ubc` release, fd position.
    WriteTail,
    /// Read setup under `Ubc`.
    ReadPrep,
    /// The per-page copy-out loop under `Ubc`.
    ReadLoop,
    /// Read teardown and `Ubc` release.
    ReadTail,
    /// What a continuation holds while its phase is out being executed,
    /// and for good once the syscall has completed or failed.
    Poisoned,
}

/// What executing one phase came to.
enum Step {
    /// Go on with this phase — after yielding the CPU, if the one just
    /// run slept on the disk.
    Next(Phase),
    /// Queued for this lock: yield, and run this (acquire) phase again.
    Wait(LockId, Phase),
    /// The syscall completed.
    Done(SyscallRet),
}

/// The cursor of a read or write between its prep and tail phases. Kept
/// beside the phase, not in it, so a phase change moves a few words.
#[derive(Debug, Clone)]
struct Io {
    job: IoJob,
    /// The file object's address and position as read at prep.
    fd_addr: u64,
    pos: u64,
}

/// A resumable in-flight syscall: the explicit continuation the
/// scheduler parks when a client blocks, and [`Kernel::syscall`] runs
/// straight through. All state a real kernel would keep on the sleeping
/// process's stack lives here — which phase comes next, the I/O cursor,
/// and which lock the process holds.
#[derive(Debug, Clone)]
pub struct SyscallCont<S = String, B = Vec<u8>> {
    op: SyscallOp<S, B>,
    phase: Phase,
    /// The lock held across yields — at most one, see the module docs.
    held: Option<LockId>,
    io: Option<Io>,
}

impl<S: AsRef<str>, B: AsRef<[u8]>> SyscallCont<S, B> {
    /// A continuation at its entry point.
    pub fn new(op: SyscallOp<S, B>) -> Self {
        SyscallCont {
            op,
            phase: Phase::Start,
            held: None,
            io: None,
        }
    }

    /// The operation this continuation is executing.
    pub fn op(&self) -> &SyscallOp<S, B> {
        &self.op
    }

    /// Locks currently held across a yield.
    pub fn held_locks(&self) -> &[LockId] {
        self.held.as_slice()
    }

    /// Runs the continuation until it completes or blocks. Under the
    /// scheduler the clock is in deferred-wait mode and
    /// [`Kernel::cur_client`] is set, and the caller takes the deferred
    /// wake-up after this returns; on the blocking clock with no client
    /// ([`Kernel::syscall`]) it always runs to [`Yield::Done`].
    ///
    /// # Errors
    ///
    /// Syscall errors and kernel panics propagate; the held lock is
    /// released first (a real kernel's error unwind does the same), so
    /// a failed op never wedges the lock queues. If that release itself
    /// panics — the word was never taken, a skipped acquire — the panic
    /// is the outcome: the caller must not read a dead kernel's last
    /// error as benign.
    pub(crate) fn resume(&mut self, k: &mut Kernel) -> Result<Yield, KernelError> {
        let mut r = self.drive(k);
        if r.is_err() {
            if let Some(id) = self.held.take() {
                r = k.unlock_preempt(id).and(r);
            }
        }
        // The syscall returns (done or failed): protection's cost is
        // charged here and nowhere else. A crashed kernel's clock stops
        // at its panic.
        if !matches!(r, Ok(Yield::Disk | Yield::Lock(_))) && !k.is_crashed() {
            k.charge_protection();
        }
        r
    }

    fn drive(&mut self, k: &mut Kernel) -> Result<Yield, KernelError> {
        let mut phase = std::mem::replace(&mut self.phase, Phase::Poisoned);
        loop {
            match self.step(k, phase)? {
                Step::Done(ret) => return Ok(Yield::Done(ret)),
                Step::Wait(id, again) => return Ok(self.park(again, Yield::Lock(id))),
                // Phase boundary: if the phase we just ran slept on the
                // disk, the client loses the CPU here — possibly holding
                // locks. (A sleep in the op's last phase does not come
                // here: the scheduler folds a trailing wait into the
                // completed op's wake-up time.)
                Step::Next(next) if k.machine.clock.deferred_pending() => {
                    return Ok(self.park(next, Yield::Disk));
                }
                Step::Next(next) => phase = next,
            }
        }
    }

    /// Gives up the CPU, to come back at `phase`.
    fn park(&mut self, phase: Phase, y: Yield) -> Yield {
        self.phase = phase;
        y
    }

    /// Takes `id` for the phases that follow, or queues for it and comes
    /// back to `again`.
    fn acquire(
        &mut self,
        k: &mut Kernel,
        id: LockId,
        again: Phase,
        next: Phase,
    ) -> Result<Step, KernelError> {
        Ok(if k.lock_acquire_preempt(id)? {
            self.held = Some(id);
            Step::Next(next)
        } else {
            Step::Wait(id, again)
        })
    }

    fn release(&mut self, k: &mut Kernel, id: LockId) -> Result<(), KernelError> {
        debug_assert_eq!(self.held, Some(id));
        self.held = None;
        k.unlock_preempt(id)
    }

    /// `readdir` / `stat` of a resolved inode.
    fn inspect(&self, k: &mut Kernel, ino: u64) -> Result<SyscallRet, KernelError> {
        match self.op {
            SyscallOp::Readdir(_) => k.readdir_body(ino).map(SyscallRet::Names),
            SyscallOp::Stat(_) => k.stat_body(ino).map(SyscallRet::Stat),
            _ => unreachable!("only readdir and stat inspect an inode"),
        }
    }

    /// Executes one phase.
    #[allow(clippy::too_many_lines)]
    fn step(&mut self, k: &mut Kernel, phase: Phase) -> Result<Step, KernelError> {
        Ok(match phase {
            Phase::Start => {
                k.enter_syscall()?;
                Step::Next(match &self.op {
                    SyscallOp::Readdir(p) | SyscallOp::Stat(p) if p.as_ref() == "/" => Phase::Root,
                    SyscallOp::Create(_)
                    | SyscallOp::Open(_)
                    | SyscallOp::Mkdir(_)
                    | SyscallOp::Rmdir(_)
                    | SyscallOp::Unlink(_)
                    | SyscallOp::Rename { .. }
                    | SyscallOp::Readdir(_)
                    | SyscallOp::Stat(_) => Phase::AcqFs,
                    SyscallOp::Close(_) | SyscallOp::Fsync(_) | SyscallOp::Sync => Phase::FdBody,
                    SyscallOp::Write { .. }
                    | SyscallOp::Pwrite { .. }
                    | SyscallOp::PwriteIno { .. }
                    | SyscallOp::Read { .. }
                    | SyscallOp::Pread { .. } => Phase::AcqUbc,
                })
            }
            Phase::AcqFs => self.acquire(k, LockId::Fs, Phase::AcqFs, Phase::Namei)?,
            Phase::Namei => {
                let path = self.op.path().expect("namei phase implies a path op");
                let (dir, leaf, existing) = k.namei_locked(path)?;
                Step::Next(Phase::PathBody {
                    dir,
                    leaf,
                    existing,
                })
            }
            Phase::PathBody {
                dir,
                leaf,
                existing,
            } => {
                let step = match &self.op {
                    SyscallOp::Create(_) => Step::Next(Phase::MakeFd {
                        ino: k.create_body(dir, &leaf, existing)?,
                    }),
                    SyscallOp::Open(_) => Step::Next(Phase::MakeFd {
                        ino: k.open_body(existing)?,
                    }),
                    SyscallOp::Readdir(_) | SyscallOp::Stat(_) => {
                        Step::Done(self.inspect(k, existing.ok_or(KernelError::NotFound)?)?)
                    }
                    op => {
                        match op {
                            SyscallOp::Mkdir(_) => k.mkdir_body(dir, &leaf, existing)?,
                            SyscallOp::Rmdir(_) => k.rmdir_body(dir, &leaf, existing)?,
                            SyscallOp::Unlink(_) => k.unlink_body(dir, &leaf, existing)?,
                            SyscallOp::Rename { to, .. } => {
                                k.rename_body(dir, &leaf, existing, to.as_ref())?;
                            }
                            _ => unreachable!("PathBody only runs for path ops"),
                        }
                        Step::Done(SyscallRet::Unit)
                    }
                };
                self.release(k, LockId::Fs)?;
                step
            }
            Phase::MakeFd { ino } => Step::Done(SyscallRet::Fd(k.make_fd(ino)?)),
            Phase::Root => Step::Done(self.inspect(k, ROOT_INO)?),
            Phase::FdBody => {
                match self.op {
                    SyscallOp::Close(fd) => {
                        let (addr, ino, _) = k.fd_read_state(fd)?;
                        if k.policy.fsync_on_close && k.reliability_writes {
                            k.fsync_ino(ino)?;
                        }
                        k.fds.remove(&fd.0);
                        k.kfree_traced(addr)?;
                    }
                    SyscallOp::Fsync(fd) => {
                        let (_, ino, _) = k.fd_read_state(fd)?;
                        if k.reliability_writes {
                            k.fsync_ino(ino)?;
                        }
                    }
                    SyscallOp::Sync => {
                        if k.reliability_writes {
                            k.flush_everything(true)?;
                        }
                    }
                    _ => unreachable!("FdBody only runs for close/fsync/sync"),
                }
                Step::Done(SyscallRet::Unit)
            }
            Phase::AcqUbc => {
                let next = match &self.op {
                    SyscallOp::Read { .. } | SyscallOp::Pread { .. } => Phase::ReadPrep,
                    _ => Phase::WritePrep,
                };
                self.acquire(k, LockId::Ubc, Phase::AcqUbc, next)?
            }
            Phase::WritePrep => {
                let (fd_addr, ino, pos) = match self.op {
                    SyscallOp::Write { fd, .. } | SyscallOp::Pwrite { fd, .. } => {
                        k.fd_read_state(fd)?
                    }
                    // The replay process names a device + inode, not an
                    // open file: no file object, no position.
                    SyscallOp::PwriteIno { ino, .. } => match k.read_inode_opt(ino)? {
                        Some(i) if i.itype == FileType::File => (0, ino, 0),
                        _ => return Err(KernelError::NotFound),
                    },
                    _ => unreachable!("WritePrep only runs for write ops"),
                };
                let (offset, data) = match &self.op {
                    SyscallOp::Write { data, .. } => (pos, data),
                    SyscallOp::Pwrite { offset, data, .. }
                    | SyscallOp::PwriteIno { offset, data, .. } => (*offset, data),
                    _ => unreachable!("WritePrep only runs for write ops"),
                };
                let job = k.write_prep(ino, offset, data.as_ref())?;
                self.io = Some(Io { job, fd_addr, pos });
                Step::Next(Phase::WriteLoop)
            }
            Phase::WriteLoop => {
                let job = &mut self.io.as_mut().expect("set by WritePrep").job;
                if job.done < job.len {
                    k.write_one_page(job)?;
                }
                Step::Next(if job.done < job.len {
                    Phase::WriteLoop
                } else {
                    Phase::WriteTail
                })
            }
            Phase::WriteTail => {
                let io = self.io.as_ref().expect("set by WritePrep");
                let (fd_addr, pos) = (io.fd_addr, io.pos);
                k.write_finish(&io.job)?;
                self.release(k, LockId::Ubc)?;
                let written = match &self.op {
                    SyscallOp::Write { data, .. } => {
                        k.fd_write_pos(fd_addr, pos + data.as_ref().len() as u64);
                        data
                    }
                    SyscallOp::Pwrite { data, .. } | SyscallOp::PwriteIno { data, .. } => data,
                    _ => unreachable!("WriteTail only runs for write ops"),
                };
                Step::Done(SyscallRet::Size(written.as_ref().len()))
            }
            Phase::ReadPrep => {
                let (fd, explicit_offset, len) = match self.op {
                    SyscallOp::Read { fd, len } => (fd, None, len),
                    SyscallOp::Pread { fd, offset, len } => (fd, Some(offset), len),
                    _ => unreachable!("ReadPrep only runs for read ops"),
                };
                let (fd_addr, ino, pos) = k.fd_read_state(fd)?;
                let offset = explicit_offset.unwrap_or(pos);
                let job = k.read_prep(ino, offset, len)?;
                self.io = Some(Io { job, fd_addr, pos });
                Step::Next(Phase::ReadLoop)
            }
            Phase::ReadLoop => {
                let job = &mut self.io.as_mut().expect("set by ReadPrep").job;
                if job.done < job.len {
                    k.read_one_page(job)?;
                }
                Step::Next(if job.done < job.len {
                    Phase::ReadLoop
                } else {
                    Phase::ReadTail
                })
            }
            Phase::ReadTail => {
                let io = self.io.as_ref().expect("set by ReadPrep");
                let (fd_addr, pos) = (io.fd_addr, io.pos);
                let out = k.read_finish(&io.job)?;
                self.release(k, LockId::Ubc)?;
                if matches!(self.op, SyscallOp::Read { .. }) {
                    k.fd_write_pos(fd_addr, pos + out.len() as u64);
                }
                Step::Done(SyscallRet::Bytes(out))
            }
            Phase::Poisoned => unreachable!("resumed a finished continuation"),
        })
    }
}
