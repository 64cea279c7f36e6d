//! The syscall surface: what workloads (and the warm-reboot replay) call.
//!
//! Every public syscall here is a typed wrapper over [`Kernel::syscall`]:
//! it lends its arguments to a [`SyscallOp`], the continuation of
//! [`crate::preempt`] runs it to completion, and the wrapper unwraps the
//! one result shape that op can have. What a syscall locks, in which
//! order, and where it may sleep is decided there and nowhere else; this
//! file keeps the file-object plumbing and the per-op bodies the phases
//! call.
//!
//! File descriptors are backed by in-kernel file objects allocated with
//! `kmalloc` — so heap corruption and premature-free faults reach them, and
//! a corrupted file object produces *indirect* corruption (I/O with wrong
//! parameters) that no memory protection can stop, exactly as §3.2 warns.

use crate::error::{KernelError, PanicReason};
use crate::kernel::{Fd, Kernel};
use crate::ondisk::{FileType, Inode};
use crate::preempt::{SyscallOp, SyscallRet};

/// Runs `$op` through [`Kernel::syscall`] and unwraps its result variant.
macro_rules! sys {
    ($k:ident, $op:expr => $variant:ident) => {
        match $k.syscall($op)? {
            SyscallRet::$variant(v) => Ok(v),
            other => unreachable!("expected {}, got {other:?}", stringify!($variant)),
        }
    };
    ($k:ident, $op:expr) => {
        $k.syscall($op).map(|_| ())
    };
}

/// Magic tag of an in-kernel file object.
const FD_MAGIC: u64 = 0x5249_4F46_4445_5343; // "RIOFDESC"
/// File-object field offsets.
const FD_MAGIC_OFF: u64 = 0;
const FD_INO_OFF: u64 = 8;
const FD_POS_OFF: u64 = 16;
const FD_OBJ_BYTES: u64 = 24;

/// Metadata returned by [`Kernel::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: u64,
    /// Size in bytes.
    pub size: u64,
    /// Whether it is a directory.
    pub is_dir: bool,
    /// Modification time (simulated µs).
    pub mtime: u64,
}

impl Kernel {
    fn fd_object(&mut self, fd: Fd) -> Result<u64, KernelError> {
        self.fds.get(&fd.0).copied().ok_or(KernelError::BadFd)
    }

    pub(crate) fn fd_read_state(&mut self, fd: Fd) -> Result<(u64, u64, u64), KernelError> {
        let addr = self.fd_object(fd)?;
        let mem = self.machine.bus.mem();
        let magic = mem.read_u64(addr + FD_MAGIC_OFF);
        if magic != FD_MAGIC {
            return Err(self.die(PanicReason::Consistency(
                "file: bad file structure".to_owned(),
            )));
        }
        let ino = self.machine.bus.mem().read_u64(addr + FD_INO_OFF);
        let pos = self.machine.bus.mem().read_u64(addr + FD_POS_OFF);
        Ok((addr, ino, pos))
    }

    pub(crate) fn fd_write_pos(&mut self, addr: u64, pos: u64) {
        self.machine.bus.mem_mut().write_u64(addr + FD_POS_OFF, pos);
    }

    pub(crate) fn make_fd(&mut self, ino: u64) -> Result<Fd, KernelError> {
        let addr = self.kmalloc_traced(FD_OBJ_BYTES)?;
        let mem = self.machine.bus.mem_mut();
        mem.write_u64(addr + FD_MAGIC_OFF, FD_MAGIC);
        mem.write_u64(addr + FD_INO_OFF, ino);
        mem.write_u64(addr + FD_POS_OFF, 0);
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.fds.insert(fd.0, addr);
        Ok(fd)
    }

    /// `create` body after path resolution, under `Fs`: allocate and link
    /// the inode.
    pub(crate) fn create_body(
        &mut self,
        dir: u64,
        leaf: &str,
        existing: Option<u64>,
    ) -> Result<u64, KernelError> {
        if existing.is_some() {
            return Err(KernelError::Exists);
        }
        let ino = self.alloc_inode(FileType::File)?;
        self.dir_insert(dir, leaf, ino)?;
        Ok(ino)
    }

    /// `open` body after path resolution: type-check the inode.
    pub(crate) fn open_body(&mut self, existing: Option<u64>) -> Result<u64, KernelError> {
        let ino = existing.ok_or(KernelError::NotFound)?;
        let inode = self.read_inode(ino)?;
        if inode.itype != FileType::File {
            return Err(KernelError::IsDir);
        }
        Ok(ino)
    }

    /// Creates a regular file and opens it.
    ///
    /// # Errors
    ///
    /// [`KernelError::Exists`] if the name is taken; path errors as usual.
    pub fn create(&mut self, path: &str) -> Result<Fd, KernelError> {
        sys!(self, SyscallOp::Create(path) => Fd)
    }

    /// Opens an existing regular file.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotFound`]; [`KernelError::IsDir`] for directories.
    pub fn open(&mut self, path: &str) -> Result<Fd, KernelError> {
        sys!(self, SyscallOp::Open(path) => Fd)
    }

    /// Closes a descriptor, applying the policy's close-time flush.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadFd`] for unknown descriptors.
    pub fn close(&mut self, fd: Fd) -> Result<(), KernelError> {
        sys!(self, SyscallOp::Close(fd))
    }

    /// Sequential write at the descriptor's position.
    ///
    /// On return the data is as permanent as the policy promises — for Rio,
    /// instantly as permanent as disk (§1).
    ///
    /// # Errors
    ///
    /// Propagates path/space errors; [`KernelError::Panic`] on a crash.
    pub fn write(&mut self, fd: Fd, data: &[u8]) -> Result<usize, KernelError> {
        sys!(self, SyscallOp::Write { fd, data } => Size)
    }

    /// Positioned write (does not move the descriptor position).
    ///
    /// # Errors
    ///
    /// As [`Kernel::write`].
    pub fn pwrite(&mut self, fd: Fd, offset: u64, data: &[u8]) -> Result<usize, KernelError> {
        sys!(self, SyscallOp::Pwrite { fd, offset, data } => Size)
    }

    /// Sequential read at the descriptor's position.
    ///
    /// # Errors
    ///
    /// As [`Kernel::write`].
    pub fn read(&mut self, fd: Fd, len: usize) -> Result<Vec<u8>, KernelError> {
        sys!(self, SyscallOp::Read { fd, len } => Bytes)
    }

    /// Positioned read.
    ///
    /// # Errors
    ///
    /// As [`Kernel::write`].
    pub fn pread(&mut self, fd: Fd, offset: u64, len: usize) -> Result<Vec<u8>, KernelError> {
        sys!(self, SyscallOp::Pread { fd, offset, len } => Bytes)
    }

    /// Makes a file's data and metadata permanent. Under Rio this returns
    /// immediately (§2.3): memory already is permanent.
    ///
    /// # Errors
    ///
    /// As [`Kernel::write`].
    pub fn fsync(&mut self, fd: Fd) -> Result<(), KernelError> {
        sys!(self, SyscallOp::Fsync(fd))
    }

    /// System-wide sync. Under Rio: immediate return.
    ///
    /// # Errors
    ///
    /// As [`Kernel::write`].
    pub fn sync(&mut self) -> Result<(), KernelError> {
        sys!(self, SyscallOp::Sync)
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// [`KernelError::Exists`] and the usual path errors.
    pub fn mkdir(&mut self, path: &str) -> Result<(), KernelError> {
        sys!(self, SyscallOp::Mkdir(path))
    }

    /// `mkdir` body after path resolution.
    pub(crate) fn mkdir_body(
        &mut self,
        dir: u64,
        leaf: &str,
        existing: Option<u64>,
    ) -> Result<(), KernelError> {
        if existing.is_some() {
            return Err(KernelError::Exists);
        }
        let ino = self.alloc_inode(FileType::Dir)?;
        self.dir_insert(dir, leaf, ino)
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotEmpty`] / [`KernelError::NotDir`] / path errors.
    pub fn rmdir(&mut self, path: &str) -> Result<(), KernelError> {
        sys!(self, SyscallOp::Rmdir(path))
    }

    /// `rmdir` body after path resolution.
    pub(crate) fn rmdir_body(
        &mut self,
        dir: u64,
        leaf: &str,
        existing: Option<u64>,
    ) -> Result<(), KernelError> {
        let ino = existing.ok_or(KernelError::NotFound)?;
        let inode = self.read_inode(ino)?;
        if inode.itype != FileType::Dir {
            return Err(KernelError::NotDir);
        }
        if !self.dir_entries_of(ino)?.is_empty() {
            return Err(KernelError::NotEmpty);
        }
        self.dir_remove(dir, leaf)?;
        self.release_file(ino, &inode)
    }

    /// Frees an unlinked file's data and indirect blocks, then its inode.
    fn release_file(&mut self, ino: u64, inode: &Inode) -> Result<(), KernelError> {
        let (mut blocks, indirect) = self.collect_file_blocks(inode)?;
        blocks.extend(indirect);
        if !blocks.is_empty() {
            self.free_blocks(&blocks)?;
        }
        self.free_inode(ino)
    }

    /// Removes a file, freeing its blocks and dropping its cached pages.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotFound`] / [`KernelError::IsDir`] / path errors.
    pub fn unlink(&mut self, path: &str) -> Result<(), KernelError> {
        sys!(self, SyscallOp::Unlink(path))
    }

    /// `unlink` body after path resolution.
    pub(crate) fn unlink_body(
        &mut self,
        dir: u64,
        leaf: &str,
        existing: Option<u64>,
    ) -> Result<(), KernelError> {
        let ino = existing.ok_or(KernelError::NotFound)?;
        let inode = self.read_inode(ino)?;
        if inode.itype == FileType::Dir {
            return Err(KernelError::IsDir);
        }
        self.dir_remove(dir, leaf)?;
        // Drop cached pages (and their registry entries).
        for key in self.ubc.file_keys(ino) {
            if let Some(page) = self.ubc.remove(key) {
                self.rio_clear_entry(page)?;
            }
        }
        self.release_file(ino, &inode)?;
        self.ubc.forget_file(ino);
        Ok(())
    }

    /// Renames a file or directory within or across directories.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotFound`] for the source; [`KernelError::Exists`]
    /// for the target.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), KernelError> {
        sys!(self, SyscallOp::Rename { from, to })
    }

    /// `rename` body after resolving the source: resolves the target under
    /// the same `Fs` hold, links it, unlinks the source.
    pub(crate) fn rename_body(
        &mut self,
        from_dir: u64,
        from_leaf: &str,
        existing: Option<u64>,
        to: &str,
    ) -> Result<(), KernelError> {
        let ino = existing.ok_or(KernelError::NotFound)?;
        let (to_dir, to_leaf, target) = self.namei_locked(to)?;
        if target.is_some() {
            return Err(KernelError::Exists);
        }
        self.dir_insert(to_dir, &to_leaf, ino)?;
        self.dir_remove(from_dir, from_leaf)?;
        Ok(())
    }

    /// Lists a directory's entry names.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotDir`] / path errors.
    pub fn readdir(&mut self, path: &str) -> Result<Vec<String>, KernelError> {
        sys!(self, SyscallOp::Readdir(path) => Names)
    }

    /// `readdir` body after path resolution.
    pub(crate) fn readdir_body(&mut self, ino: u64) -> Result<Vec<String>, KernelError> {
        let mut names: Vec<String> = self
            .dir_entries_of(ino)?
            .into_iter()
            .map(|e| e.name)
            .collect();
        names.sort();
        Ok(names)
    }

    /// Stats a path.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotFound`] / path errors.
    pub fn stat(&mut self, path: &str) -> Result<Stat, KernelError> {
        sys!(self, SyscallOp::Stat(path) => Stat)
    }

    /// `stat` body after path resolution.
    pub(crate) fn stat_body(&mut self, ino: u64) -> Result<Stat, KernelError> {
        let inode = self.read_inode(ino)?;
        Ok(Stat {
            ino,
            size: inode.size,
            is_dir: inode.itype == FileType::Dir,
            mtime: inode.mtime,
        })
    }

    /// Privileged write by inode number — the warm-reboot replay process
    /// uses this to restore recovered file pages (§2.2's user-level
    /// restore; it knows device + inode, not paths).
    ///
    /// # Errors
    ///
    /// [`KernelError::NotFound`] if the inode is free or not a file.
    pub fn pwrite_ino(&mut self, ino: u64, offset: u64, data: &[u8]) -> Result<(), KernelError> {
        sys!(self, SyscallOp::PwriteIno { ino, offset, data })
    }

    /// Reads a whole file by path (verification helper for experiments).
    ///
    /// # Errors
    ///
    /// As [`Kernel::open`].
    pub fn file_contents(&mut self, path: &str) -> Result<Vec<u8>, KernelError> {
        let fd = self.open(path)?;
        let size = {
            let (_, ino, _) = self.fd_read_state(fd)?;
            let inode: Inode = self.read_inode(ino)?;
            inode.size
        };
        let data = self.pread(fd, 0, size as usize)?;
        self.close(fd)?;
        Ok(data)
    }
}
