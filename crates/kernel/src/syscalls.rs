//! The syscall surface: what workloads (and the warm-reboot replay) call.
//!
//! File descriptors are backed by in-kernel file objects allocated with
//! `kmalloc` — so heap corruption and premature-free faults reach them, and
//! a corrupted file object produces *indirect* corruption (I/O with wrong
//! parameters) that no memory protection can stop, exactly as §3.2 warns.

use crate::error::{KernelError, PanicReason};
use crate::kernel::{Fd, Kernel};
use crate::ondisk::{FileType, Inode, ROOT_INO};

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

    /// `create` body after path resolution: allocate and link the inode.
    /// Shared by the run-to-completion path and the preemptive
    /// continuation (which runs it under a held `Fs` lock).
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
        self.enter_syscall()?;
        let (dir, leaf, existing) = self.namei(path)?;
        let ino = self.create_body(dir, &leaf, existing)?;
        self.make_fd(ino)
    }

    /// Opens an existing regular file.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotFound`]; [`KernelError::IsDir`] for directories.
    pub fn open(&mut self, path: &str) -> Result<Fd, KernelError> {
        self.enter_syscall()?;
        let (_, _, existing) = self.namei(path)?;
        let ino = self.open_body(existing)?;
        self.make_fd(ino)
    }

    /// Closes a descriptor, applying the policy's close-time flush.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadFd`] for unknown descriptors.
    pub fn close(&mut self, fd: Fd) -> Result<(), KernelError> {
        self.enter_syscall()?;
        let (addr, ino, _) = self.fd_read_state(fd)?;
        if self.policy.fsync_on_close && self.policy.fsync_writes_disk {
            self.fsync_ino(ino)?;
        }
        self.fds.remove(&fd.0);
        self.kfree_traced(addr)
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
        self.enter_syscall()?;
        let (addr, ino, pos) = self.fd_read_state(fd)?;
        self.do_write(ino, pos, data)?;
        self.fd_write_pos(addr, pos + data.len() as u64);
        Ok(data.len())
    }

    /// Positioned write (does not move the descriptor position).
    ///
    /// # Errors
    ///
    /// As [`Kernel::write`].
    pub fn pwrite(&mut self, fd: Fd, offset: u64, data: &[u8]) -> Result<usize, KernelError> {
        self.enter_syscall()?;
        let (_, ino, _) = self.fd_read_state(fd)?;
        self.do_write(ino, offset, data)?;
        Ok(data.len())
    }

    /// Sequential read at the descriptor's position.
    ///
    /// # Errors
    ///
    /// As [`Kernel::write`].
    pub fn read(&mut self, fd: Fd, len: usize) -> Result<Vec<u8>, KernelError> {
        self.enter_syscall()?;
        let (addr, ino, pos) = self.fd_read_state(fd)?;
        let out = self.do_read(ino, pos, len)?;
        self.fd_write_pos(addr, pos + out.len() as u64);
        Ok(out)
    }

    /// Positioned read.
    ///
    /// # Errors
    ///
    /// As [`Kernel::write`].
    pub fn pread(&mut self, fd: Fd, offset: u64, len: usize) -> Result<Vec<u8>, KernelError> {
        self.enter_syscall()?;
        let (_, ino, _) = self.fd_read_state(fd)?;
        self.do_read(ino, offset, len)
    }

    /// Makes a file's data and metadata permanent. Under Rio this returns
    /// immediately (§2.3): memory already is permanent.
    ///
    /// # Errors
    ///
    /// As [`Kernel::write`].
    pub fn fsync(&mut self, fd: Fd) -> Result<(), KernelError> {
        self.enter_syscall()?;
        let (_, ino, _) = self.fd_read_state(fd)?;
        if self.policy.fsync_writes_disk {
            self.fsync_ino(ino)?;
        }
        Ok(())
    }

    /// System-wide sync. Under Rio: immediate return.
    ///
    /// # Errors
    ///
    /// As [`Kernel::write`].
    pub fn sync(&mut self) -> Result<(), KernelError> {
        self.enter_syscall()?;
        if self.policy.fsync_writes_disk {
            self.flush_everything(true)?;
        }
        Ok(())
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// [`KernelError::Exists`] and the usual path errors.
    pub fn mkdir(&mut self, path: &str) -> Result<(), KernelError> {
        self.enter_syscall()?;
        let (dir, leaf, existing) = self.namei(path)?;
        self.mkdir_body(dir, &leaf, existing)
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
        self.enter_syscall()?;
        let (dir, leaf, existing) = self.namei(path)?;
        self.rmdir_body(dir, &leaf, existing)
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
        let (blocks, indirect) = self.collect_file_blocks(&inode)?;
        let mut all = blocks;
        all.extend(indirect);
        if !all.is_empty() {
            self.free_blocks(&all)?;
        }
        self.free_inode(ino)
    }

    /// Removes a file, freeing its blocks and dropping its cached pages.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotFound`] / [`KernelError::IsDir`] / path errors.
    pub fn unlink(&mut self, path: &str) -> Result<(), KernelError> {
        self.enter_syscall()?;
        let (dir, leaf, existing) = self.namei(path)?;
        self.unlink_body(dir, &leaf, existing)
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
        let keys: Vec<(u64, u64)> = self.ubc.keys().filter(|k| k.0 == ino).collect();
        for key in keys {
            if let Some(page) = self.ubc.remove(key) {
                self.rio_clear_entry(page)?;
            }
        }
        let (blocks, indirect) = self.collect_file_blocks(&inode)?;
        let mut all = blocks;
        all.extend(indirect);
        if !all.is_empty() {
            self.free_blocks(&all)?;
        }
        self.free_inode(ino)?;
        self.cluster_accum.remove(&ino);
        Ok(())
    }

    /// Renames a file or directory within or across directories.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotFound`] for the source; [`KernelError::Exists`]
    /// for the target.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), KernelError> {
        self.enter_syscall()?;
        let (from_dir, from_leaf, existing) = self.namei(from)?;
        let ino = existing.ok_or(KernelError::NotFound)?;
        let (to_dir, to_leaf, target) = self.namei(to)?;
        if target.is_some() {
            return Err(KernelError::Exists);
        }
        self.dir_insert(to_dir, &to_leaf, ino)?;
        self.dir_remove(from_dir, &from_leaf)?;
        Ok(())
    }

    /// Lists a directory's entry names.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotDir`] / path errors.
    pub fn readdir(&mut self, path: &str) -> Result<Vec<String>, KernelError> {
        self.enter_syscall()?;
        let ino = if path == "/" {
            ROOT_INO
        } else {
            let (_, _, existing) = self.namei(path)?;
            existing.ok_or(KernelError::NotFound)?
        };
        self.readdir_body(ino)
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
        self.enter_syscall()?;
        let ino = if path == "/" {
            ROOT_INO
        } else {
            let (_, _, existing) = self.namei(path)?;
            existing.ok_or(KernelError::NotFound)?
        };
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
        self.enter_syscall()?;
        match self.read_inode_opt(ino)? {
            Some(i) if i.itype == FileType::File => self.do_write(ino, offset, data),
            _ => Err(KernelError::NotFound),
        }
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
