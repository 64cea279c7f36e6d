//! `fsck`-lite: post-crash consistency repair for cold (and warm) boots.
//!
//! Runs directly against the disk before mount, like real fsck: validates
//! the superblock, clears corrupt or torn inode records, drops wild block
//! pointers, removes directory entries that reference free inodes, and
//! rebuilds the allocation bitmap from the reachable block set. Repairs
//! lose data (that is what the reliability experiments count); they never
//! crash.

use crate::ondisk::{
    DirEntry, FileType, Inode, Superblock, DIRENTS_PER_BLOCK, DIRENT_BYTES, INODES_PER_BLOCK,
    INODE_BYTES, NDIRECT, NINDIRECT,
};
use rio_disk::{DiskIoError, SimDisk, BLOCK_SIZE};

/// Bounded retry budget for one block access: a transient fault injected
/// with up to `IO_RETRY_LIMIT - 1` failures always clears within it.
pub(crate) const IO_RETRY_LIMIT: u32 = 4;

/// What fsck found and fixed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Inode records cleared (corrupt magic/type, or resident in a torn
    /// block).
    pub inodes_cleared: u64,
    /// Block pointers dropped (out of range).
    pub pointers_cleared: u64,
    /// Directory entries removed (dangling inode references).
    pub dirents_removed: u64,
    /// Torn data blocks observed (left in place; contents are suspect).
    pub torn_data_blocks: u64,
    /// Transient read errors absorbed by retrying.
    pub read_retries: u64,
    /// Transient write errors absorbed by retrying.
    pub write_retries: u64,
    /// Blocks that stayed unreadable after the retry budget: treated as
    /// empty and skipped, never fatal (graceful per-block degradation).
    pub blocks_unreadable: u64,
    /// Blocks whose repair could not be written back after retries: the
    /// old contents stand, counted but never fatal.
    pub blocks_unwritable: u64,
    /// Whether the bitmap needed rebuilding.
    pub bitmap_rebuilt: bool,
}

/// Fatal fsck outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsckError {
    /// The superblock does not decode: the volume is unmountable and all
    /// data is lost (counted as total corruption by the campaign).
    BadSuperblock,
}

impl std::fmt::Display for FsckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("fsck: unrecoverable superblock")
    }
}

impl std::error::Error for FsckError {}

/// Reads `block` through the fallible path with bounded retry. `None`
/// means the block is unreadable even after retries; the caller treats it
/// as empty and continues — a dead block degrades that block, not the boot.
fn read_block(disk: &mut SimDisk, block: u64, report: &mut FsckReport) -> Option<Vec<u8>> {
    for _ in 0..IO_RETRY_LIMIT {
        match disk.try_peek(block) {
            Ok(data) => return Some(data.to_vec()),
            Err(DiskIoError::Transient) => {
                report.read_retries += 1;
                if rio_obs::is_enabled() {
                    rio_obs::emit(
                        rio_obs::EventCategory::FsckRetry,
                        rio_obs::Payload::Block { block, aux: 0 },
                    );
                }
            }
            Err(DiskIoError::Permanent) => break,
        }
    }
    report.blocks_unreadable += 1;
    None
}

/// Writes `block` through the fallible path with bounded retry. On final
/// failure the repair is abandoned for this block (old contents stand).
fn write_block(disk: &mut SimDisk, block: u64, data: &[u8], report: &mut FsckReport) {
    for _ in 0..IO_RETRY_LIMIT {
        match disk.try_poke(block, data) {
            Ok(()) => return,
            Err(DiskIoError::Transient) => {
                report.write_retries += 1;
                if rio_obs::is_enabled() {
                    rio_obs::emit(
                        rio_obs::EventCategory::FsckRetry,
                        rio_obs::Payload::Block { block, aux: 1 },
                    );
                }
            }
            Err(DiskIoError::Permanent) => break,
        }
    }
    report.blocks_unwritable += 1;
}

/// Checks and repairs the file system on `disk`.
///
/// # Errors
///
/// [`FsckError::BadSuperblock`] when block 0 is unusable.
pub fn repair(disk: &mut SimDisk) -> Result<FsckReport, FsckError> {
    let mut report = FsckReport::default();
    let sb_bytes = read_block(disk, 0, &mut report).ok_or(FsckError::BadSuperblock)?;
    let sb = Superblock::decode(&sb_bytes).ok_or(FsckError::BadSuperblock)?;
    let g = sb.geometry;

    // Pass 1: inode records.
    let mut live_inodes: Vec<u64> = Vec::new();
    for iblock in g.inode_start..g.inode_start + g.inode_len {
        let torn = disk.is_torn(iblock);
        let Some(mut data) = read_block(disk, iblock, &mut report) else {
            // Unreadable inode block: every inode in it is lost. The rest
            // of the volume still gets checked.
            continue;
        };
        let mut changed = false;
        for slot in 0..INODES_PER_BLOCK as usize {
            let off = slot * INODE_BYTES;
            let ino = (iblock - g.inode_start) * INODES_PER_BLOCK + slot as u64;
            if ino >= g.num_inodes {
                break;
            }
            let rec = &data[off..off + INODE_BYTES];
            match Inode::decode(rec) {
                Ok(None) => {}
                Ok(Some(mut inode)) => {
                    if torn {
                        // Contents suspect: keep the record only if its
                        // pointers validate (second half of a torn block is
                        // stale but structurally plausible; we keep what
                        // parses — data comparison decides corruption).
                    }
                    let mut ptr_changed = false;
                    for d in inode.direct.iter_mut() {
                        if *d != 0 && (*d < g.data_start || *d >= g.num_blocks) {
                            *d = 0;
                            report.pointers_cleared += 1;
                            ptr_changed = true;
                        }
                    }
                    if inode.indirect != 0
                        && (inode.indirect < g.data_start || inode.indirect >= g.num_blocks)
                    {
                        inode.indirect = 0;
                        report.pointers_cleared += 1;
                        ptr_changed = true;
                    }
                    if ptr_changed {
                        data[off..off + INODE_BYTES].copy_from_slice(&inode.encode());
                        changed = true;
                    }
                    live_inodes.push(ino);
                }
                Err(()) => {
                    data[off..off + INODE_BYTES].copy_from_slice(&[0u8; INODE_BYTES]);
                    report.inodes_cleared += 1;
                    changed = true;
                }
            }
        }
        if changed || torn {
            write_block(disk, iblock, &data, &mut report);
        }
    }

    // Pass 2: directory entries must reference live inodes.
    let is_live = |ino: u64, live: &[u64]| live.binary_search(&ino).is_ok();
    live_inodes.sort_unstable();
    let mut dir_inos: Vec<u64> = Vec::new();
    for &ino in &live_inodes {
        let (blk, off) = g.inode_location(ino);
        let Some(iblock) = read_block(disk, blk, &mut report) else {
            continue;
        };
        if let Ok(Some(inode)) = Inode::decode(&iblock[off..off + INODE_BYTES]) {
            if inode.itype == FileType::Dir {
                dir_inos.push(ino);
            }
        }
    }
    for &dino in &dir_inos {
        let (blk, off) = g.inode_location(dino);
        let Some(iblock) = read_block(disk, blk, &mut report) else {
            continue;
        };
        let Ok(Some(dir)) = Inode::decode(&iblock[off..off + INODE_BYTES]) else {
            continue;
        };
        let nblocks = dir.size.div_ceil(BLOCK_SIZE as u64).min(NDIRECT as u64);
        for bi in 0..nblocks {
            let db = dir.direct[bi as usize];
            if db == 0 {
                continue;
            }
            let Some(mut data) = read_block(disk, db, &mut report) else {
                continue;
            };
            let mut changed = false;
            for slot in 0..DIRENTS_PER_BLOCK {
                let eoff = slot * DIRENT_BYTES;
                if let Some(e) = DirEntry::decode(&data[eoff..eoff + DIRENT_BYTES]) {
                    if e.ino >= g.num_inodes || !is_live(e.ino, &live_inodes) {
                        data[eoff..eoff + DIRENT_BYTES].copy_from_slice(&[0u8; DIRENT_BYTES]);
                        report.dirents_removed += 1;
                        changed = true;
                    }
                }
            }
            if changed {
                write_block(disk, db, &data, &mut report);
            }
        }
    }

    // Pass 3: rebuild the bitmap from reachable blocks; count torn data
    // blocks along the way.
    let mut bitmap = vec![0u8; (g.bitmap_len as usize) * BLOCK_SIZE];
    let mark = |b: u64, bitmap: &mut Vec<u8>| {
        let (blk_idx, bit) = g.bitmap_location(b);
        let base = (blk_idx - g.bitmap_start) as usize * BLOCK_SIZE;
        bitmap[base + bit / 8] |= 1 << (bit % 8);
    };
    for b in 0..g.data_start {
        mark(b, &mut bitmap);
    }
    for &ino in &live_inodes {
        let (blk, off) = g.inode_location(ino);
        let Some(iblock) = read_block(disk, blk, &mut report) else {
            continue;
        };
        let Ok(Some(inode)) = Inode::decode(&iblock[off..off + INODE_BYTES]) else {
            continue;
        };
        for &d in &inode.direct {
            if d != 0 {
                mark(d, &mut bitmap);
                if disk.is_torn(d) {
                    report.torn_data_blocks += 1;
                }
            }
        }
        if inode.indirect != 0 {
            mark(inode.indirect, &mut bitmap);
            // An unreadable indirect block loses its children from the
            // bitmap (they leak back to free); the scan keeps going.
            let Some(idata) = read_block(disk, inode.indirect, &mut report) else {
                continue;
            };
            for i in 0..NINDIRECT {
                let v = u64::from_le_bytes(idata[i * 8..i * 8 + 8].try_into().expect("8"));
                if v >= g.data_start && v < g.num_blocks {
                    mark(v, &mut bitmap);
                }
            }
        }
    }
    for (i, chunk) in bitmap.chunks(BLOCK_SIZE).enumerate() {
        let blk = g.bitmap_start + i as u64;
        let current = read_block(disk, blk, &mut report);
        if current.as_deref() != Some(chunk) {
            report.bitmap_rebuilt = true;
            write_block(disk, blk, chunk, &mut report);
        }
    }
    Ok(report)
}
