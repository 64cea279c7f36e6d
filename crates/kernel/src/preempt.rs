//! Preemptive syscall execution: resumable continuations and blocking
//! locks with deterministic FIFO wait queues.
//!
//! The paper's Table 1 was measured on a kernel where real processes had
//! half-finished syscall state at every crash, and contended for its
//! locks. A syscall that ran to completion inside one scheduler quantum
//! could show neither. This module is what [`crate::sched`] runs instead:
//!
//! - [`SyscallOp`] names a syscall with owned arguments; [`SyscallCont`]
//!   executes it as an explicit phase machine that yields the CPU at the
//!   operation's *actual block points* — a buffer-cache or UBC miss that
//!   goes to disk, a dirty-throttle stall, an fsync drain — with kernel
//!   state half-mutated (staging buffers allocated, registry entries
//!   CHANGING, directory blocks partially updated).
//! - Locks are legitimately held **across** yields: `namei` sleeps on a
//!   directory-block read holding `Fs`; a multi-page write holds `Ubc`
//!   from first page to last. A second client hitting a held lock joins
//!   a FIFO wait queue ([`LockQueues`]) and blocks; releases hand the
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

use crate::data::{ReadJob, WriteJob};
use crate::error::KernelError;
use crate::kernel::{Fd, Kernel};
use crate::locks::LockId;
use crate::ondisk::ROOT_INO;
use rio_disk::SimTime;
use std::collections::VecDeque;

/// A syscall with owned arguments, ready to run as a continuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyscallOp {
    /// `create(path)` → [`SyscallRet::Fd`].
    Create(String),
    /// `open(path)` → [`SyscallRet::Fd`].
    Open(String),
    /// `close(fd)` → [`SyscallRet::Unit`].
    Close(Fd),
    /// `write(fd, data)` → [`SyscallRet::Size`].
    Write {
        /// Target descriptor.
        fd: Fd,
        /// Bytes to write at the descriptor position.
        data: Vec<u8>,
    },
    /// `pwrite(fd, offset, data)` → [`SyscallRet::Size`].
    Pwrite {
        /// Target descriptor.
        fd: Fd,
        /// Absolute byte offset.
        offset: u64,
        /// Bytes to write.
        data: Vec<u8>,
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
    /// `mkdir(path)` → [`SyscallRet::Unit`].
    Mkdir(String),
    /// `rmdir(path)` → [`SyscallRet::Unit`].
    Rmdir(String),
    /// `unlink(path)` → [`SyscallRet::Unit`].
    Unlink(String),
    /// `readdir(path)` → [`SyscallRet::Names`].
    Readdir(String),
}

impl SyscallOp {
    /// The path argument, for path-resolving ops.
    fn path(&self) -> Option<&str> {
        match self {
            SyscallOp::Create(p)
            | SyscallOp::Open(p)
            | SyscallOp::Mkdir(p)
            | SyscallOp::Rmdir(p)
            | SyscallOp::Unlink(p)
            | SyscallOp::Readdir(p) => Some(p),
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
    /// Nothing (close/fsync/mkdir/rmdir/unlink).
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
pub struct LockQueues {
    /// Which client's continuation holds each lock (set only by the
    /// preemptive acquire path; legacy within-phase lock pairs never
    /// register here).
    owner: [Option<u32>; 4],
    /// FIFO of `(client, wait-start time)` per lock.
    waiters: [VecDeque<(u32, SimTime)>; 4],
    /// Hand-off reservation: the released lock is earmarked for this
    /// client (the FIFO head at release time) until it takes the word.
    reserved: [Option<u32>; 4],
}

impl LockQueues {
    /// Which client holds the lock, if the preemptive path acquired it.
    pub fn owner(&self, id: LockId) -> Option<u32> {
        self.owner[id.index()]
    }

    /// The client the lock is currently reserved for, if any.
    pub fn reserved_for(&self, id: LockId) -> Option<u32> {
        self.reserved[id.index()]
    }

    /// How many clients are queued waiting for the lock.
    pub fn waiter_count(&self, id: LockId) -> usize {
        self.waiters[id.index()].len()
    }
}

impl Kernel {
    /// Which client's continuation holds `id` (preemptive scheduling
    /// introspection; crash forensics records held locks at injection).
    pub fn lock_owner(&self, id: LockId) -> Option<u32> {
        self.lockq.owner(id)
    }

    /// Clients queued waiting for `id`.
    pub fn lock_waiters(&self, id: LockId) -> usize {
        self.lockq.waiter_count(id)
    }

    /// The client `id` is reserved for after a FIFO hand-off.
    pub fn lock_reserved_for(&self, id: LockId) -> Option<u32> {
        self.lockq.reserved_for(id)
    }

    /// Blocking lock acquire for the preemptive path. `Ok(true)` means
    /// the lock word was taken; `Ok(false)` means the lock is held (or
    /// reserved for another client) and the caller joined the FIFO —
    /// the continuation must yield [`Yield::Lock`] and re-run this
    /// acquire when the scheduler wakes it.
    ///
    /// # Errors
    ///
    /// Word-level panics propagate exactly as on the legacy path: a word
    /// left held by a skipped release, a corrupted word, or a true
    /// double acquire crashes the kernel.
    pub(crate) fn lock_acquire_preempt(&mut self, id: LockId) -> Result<bool, KernelError> {
        let me = self
            .cur_client
            .expect("preemptive lock acquire outside a scheduled quantum");
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
            // word and reproduce the legacy `simple_lock: already held`
            // panic.
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

    /// Release for the preemptive path: frees the word (legacy
    /// semantics, including the skipped-release fault and the
    /// crashed-kernel no-op), clears ownership, and reserves the lock
    /// for the FIFO head so the scheduler can wake it.
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
    /// `readdir("/")`: no path walk, no `Fs` — mirrors the legacy
    /// fast path.
    RootReaddir,
    /// close/fsync body (flush may sleep on the disk drain).
    FdBody,
    /// Blocking acquire of the UBC lock (read/write).
    AcqUbc,
    /// Write setup under `Ubc`: fd state, activation record, staging.
    WritePrep,
    /// The per-page copy loop under `Ubc`; yields between pages when a
    /// UBC miss went to disk.
    WriteLoop {
        job: WriteJob,
        fd_addr: u64,
        pos: u64,
    },
    /// Write teardown: inode update, data policy (throttle may stall),
    /// `Ubc` release, fd position.
    WriteTail {
        job: WriteJob,
        fd_addr: u64,
        pos: u64,
    },
    /// Read setup under `Ubc`.
    ReadPrep,
    /// The per-page copy-out loop under `Ubc`.
    ReadLoop {
        job: ReadJob,
        fd_addr: u64,
        pos: u64,
    },
    /// Read teardown and `Ubc` release.
    ReadTail {
        job: ReadJob,
        fd_addr: u64,
        pos: u64,
    },
    /// Deliver the result.
    Finish(SyscallRet),
    /// Transient marker while a phase executes; also the terminal state
    /// after `Finish`.
    Poisoned,
}

/// A resumable in-flight syscall: the explicit continuation the
/// preemptive scheduler parks when a client blocks. All state a real
/// kernel would keep on the sleeping process's stack lives here —
/// which phase comes next, the I/O cursor, and which locks the process
/// holds.
#[derive(Debug, Clone)]
pub struct SyscallCont {
    op: SyscallOp,
    phase: Phase,
    /// Locks held across yields (release order is the reverse).
    held: Vec<LockId>,
}

impl SyscallCont {
    /// A continuation at its entry point.
    pub fn new(op: SyscallOp) -> Self {
        SyscallCont {
            op,
            phase: Phase::Start,
            held: Vec::new(),
        }
    }

    /// The operation this continuation is executing.
    pub fn op(&self) -> &SyscallOp {
        &self.op
    }

    /// Locks currently held across a yield.
    pub fn held_locks(&self) -> &[LockId] {
        &self.held
    }

    /// Runs the continuation until it completes or blocks. Must be
    /// called with the clock in deferred-wait mode and
    /// [`Kernel::cur_client`] set; the caller takes the deferred
    /// wake-up after this returns.
    ///
    /// # Errors
    ///
    /// Syscall errors and kernel panics propagate; all held locks are
    /// released first (a real kernel's error unwind does the same), so
    /// a failed op never wedges the lock queues.
    pub(crate) fn resume(&mut self, k: &mut Kernel) -> Result<Yield, KernelError> {
        let r = self.drive(k);
        if r.is_err() {
            while let Some(id) = self.held.pop() {
                let _ = k.unlock_preempt(id);
            }
        }
        r
    }

    fn drive(&mut self, k: &mut Kernel) -> Result<Yield, KernelError> {
        loop {
            if let Some(y) = self.step(k)? {
                return Ok(y);
            }
            // Phase boundary: if the phase we just ran slept on the disk,
            // the client loses the CPU here — possibly holding locks.
            // (`Finish` is exempt: the scheduler folds a trailing wait
            // into the completed op's wake-up time.)
            if k.machine.clock.deferred_pending() && !matches!(self.phase, Phase::Finish(_)) {
                return Ok(Yield::Disk);
            }
        }
    }

    fn release(&mut self, k: &mut Kernel, id: LockId) -> Result<(), KernelError> {
        debug_assert_eq!(self.held.last(), Some(&id));
        self.held.pop();
        k.unlock_preempt(id)
    }

    /// Executes the current phase. `Ok(None)` advances to the next
    /// phase; `Ok(Some(y))` gives up the CPU.
    #[allow(clippy::too_many_lines)]
    fn step(&mut self, k: &mut Kernel) -> Result<Option<Yield>, KernelError> {
        let phase = std::mem::replace(&mut self.phase, Phase::Poisoned);
        match phase {
            Phase::Start => {
                k.enter_syscall()?;
                self.phase = match &self.op {
                    SyscallOp::Readdir(p) if p == "/" => Phase::RootReaddir,
                    SyscallOp::Create(_)
                    | SyscallOp::Open(_)
                    | SyscallOp::Mkdir(_)
                    | SyscallOp::Rmdir(_)
                    | SyscallOp::Unlink(_)
                    | SyscallOp::Readdir(_) => Phase::AcqFs,
                    SyscallOp::Close(_) | SyscallOp::Fsync(_) => Phase::FdBody,
                    SyscallOp::Write { .. }
                    | SyscallOp::Pwrite { .. }
                    | SyscallOp::Read { .. }
                    | SyscallOp::Pread { .. } => Phase::AcqUbc,
                };
                Ok(None)
            }
            Phase::AcqFs => {
                if k.lock_acquire_preempt(LockId::Fs)? {
                    self.held.push(LockId::Fs);
                    self.phase = Phase::Namei;
                    Ok(None)
                } else {
                    self.phase = Phase::AcqFs;
                    Ok(Some(Yield::Lock(LockId::Fs)))
                }
            }
            Phase::Namei => {
                let path = self.op.path().expect("namei phase implies a path op");
                let (dir, leaf, existing) = k.namei_locked(path)?;
                self.phase = Phase::PathBody {
                    dir,
                    leaf,
                    existing,
                };
                Ok(None)
            }
            Phase::PathBody {
                dir,
                leaf,
                existing,
            } => {
                match &self.op {
                    SyscallOp::Create(_) => {
                        let ino = k.create_body(dir, &leaf, existing)?;
                        self.release(k, LockId::Fs)?;
                        self.phase = Phase::MakeFd { ino };
                    }
                    SyscallOp::Open(_) => {
                        let ino = k.open_body(existing)?;
                        self.release(k, LockId::Fs)?;
                        self.phase = Phase::MakeFd { ino };
                    }
                    SyscallOp::Mkdir(_) => {
                        k.mkdir_body(dir, &leaf, existing)?;
                        self.release(k, LockId::Fs)?;
                        self.phase = Phase::Finish(SyscallRet::Unit);
                    }
                    SyscallOp::Rmdir(_) => {
                        k.rmdir_body(dir, &leaf, existing)?;
                        self.release(k, LockId::Fs)?;
                        self.phase = Phase::Finish(SyscallRet::Unit);
                    }
                    SyscallOp::Unlink(_) => {
                        k.unlink_body(dir, &leaf, existing)?;
                        self.release(k, LockId::Fs)?;
                        self.phase = Phase::Finish(SyscallRet::Unit);
                    }
                    SyscallOp::Readdir(_) => {
                        let ino = existing.ok_or(KernelError::NotFound)?;
                        let names = k.readdir_body(ino)?;
                        self.release(k, LockId::Fs)?;
                        self.phase = Phase::Finish(SyscallRet::Names(names));
                    }
                    _ => unreachable!("PathBody only runs for path ops"),
                }
                Ok(None)
            }
            Phase::MakeFd { ino } => {
                let fd = k.make_fd(ino)?;
                self.phase = Phase::Finish(SyscallRet::Fd(fd));
                Ok(None)
            }
            Phase::RootReaddir => {
                let names = k.readdir_body(ROOT_INO)?;
                self.phase = Phase::Finish(SyscallRet::Names(names));
                Ok(None)
            }
            Phase::FdBody => {
                match self.op {
                    SyscallOp::Close(fd) => {
                        let (addr, ino, _) = k.fd_read_state(fd)?;
                        if k.policy.fsync_on_close && k.policy.fsync_writes_disk {
                            k.fsync_ino(ino)?;
                        }
                        k.fds.remove(&fd.0);
                        k.kfree_traced(addr)?;
                    }
                    SyscallOp::Fsync(fd) => {
                        let (_, ino, _) = k.fd_read_state(fd)?;
                        if k.policy.fsync_writes_disk {
                            k.fsync_ino(ino)?;
                        }
                    }
                    _ => unreachable!("FdBody only runs for close/fsync"),
                }
                self.phase = Phase::Finish(SyscallRet::Unit);
                Ok(None)
            }
            Phase::AcqUbc => {
                if k.lock_acquire_preempt(LockId::Ubc)? {
                    self.held.push(LockId::Ubc);
                    self.phase = match &self.op {
                        SyscallOp::Write { .. } | SyscallOp::Pwrite { .. } => Phase::WritePrep,
                        SyscallOp::Read { .. } | SyscallOp::Pread { .. } => Phase::ReadPrep,
                        _ => unreachable!("AcqUbc only runs for data ops"),
                    };
                    Ok(None)
                } else {
                    self.phase = Phase::AcqUbc;
                    Ok(Some(Yield::Lock(LockId::Ubc)))
                }
            }
            Phase::WritePrep => {
                let (fd, explicit_offset, data) = match &self.op {
                    SyscallOp::Write { fd, data } => (*fd, None, data.clone()),
                    SyscallOp::Pwrite { fd, offset, data } => (*fd, Some(*offset), data.clone()),
                    _ => unreachable!("WritePrep only runs for write ops"),
                };
                let (fd_addr, ino, pos) = k.fd_read_state(fd)?;
                let offset = explicit_offset.unwrap_or(pos);
                let job = k.write_prep(ino, offset, &data)?;
                self.phase = Phase::WriteLoop { job, fd_addr, pos };
                Ok(None)
            }
            Phase::WriteLoop {
                mut job,
                fd_addr,
                pos,
            } => {
                if job.done < job.len {
                    k.write_one_page(&mut job)?;
                }
                self.phase = if job.done < job.len {
                    Phase::WriteLoop { job, fd_addr, pos }
                } else {
                    Phase::WriteTail { job, fd_addr, pos }
                };
                Ok(None)
            }
            Phase::WriteTail { job, fd_addr, pos } => {
                // Refresh the inode (`true`): a daemon or another client
                // may have assigned backing blocks while we were parked.
                k.write_finish(job, true)?;
                self.release(k, LockId::Ubc)?;
                let written = match &self.op {
                    SyscallOp::Write { data, .. } => {
                        k.fd_write_pos(fd_addr, pos + data.len() as u64);
                        data.len()
                    }
                    SyscallOp::Pwrite { data, .. } => data.len(),
                    _ => unreachable!("WriteTail only runs for write ops"),
                };
                self.phase = Phase::Finish(SyscallRet::Size(written));
                Ok(None)
            }
            Phase::ReadPrep => {
                let (fd, explicit_offset, len) = match &self.op {
                    SyscallOp::Read { fd, len } => (*fd, None, *len),
                    SyscallOp::Pread { fd, offset, len } => (*fd, Some(*offset), *len),
                    _ => unreachable!("ReadPrep only runs for read ops"),
                };
                let (fd_addr, ino, pos) = k.fd_read_state(fd)?;
                let offset = explicit_offset.unwrap_or(pos);
                let job = k.read_prep(ino, offset, len)?;
                self.phase = Phase::ReadLoop { job, fd_addr, pos };
                Ok(None)
            }
            Phase::ReadLoop {
                mut job,
                fd_addr,
                pos,
            } => {
                if job.done < job.total {
                    k.read_one_page(&mut job)?;
                }
                self.phase = if job.done < job.total {
                    Phase::ReadLoop { job, fd_addr, pos }
                } else {
                    Phase::ReadTail { job, fd_addr, pos }
                };
                Ok(None)
            }
            Phase::ReadTail { job, fd_addr, pos } => {
                let out = k.read_finish(job)?;
                self.release(k, LockId::Ubc)?;
                if matches!(self.op, SyscallOp::Read { .. }) {
                    k.fd_write_pos(fd_addr, pos + out.len() as u64);
                }
                self.phase = Phase::Finish(SyscallRet::Bytes(out));
                Ok(None)
            }
            Phase::Finish(ret) => Ok(Some(Yield::Done(ret))),
            Phase::Poisoned => unreachable!("resumed a finished continuation"),
        }
    }
}
