//! fsck repair tests: every corruption it claims to fix, demonstrated.

use rio_core::RioMode;
use rio_kernel::{fsck, Kernel, KernelConfig, PanicReason, Policy};

fn populated_disk() -> (rio_disk::SimDisk, KernelConfig) {
    let config = KernelConfig::small(Policy::disk_write_through());
    let mut k = Kernel::mkfs_and_mount(&config).unwrap();
    k.mkdir("/d").unwrap();
    for i in 0..5 {
        let fd = k.create(&format!("/d/f{i}")).unwrap();
        k.write(fd, &vec![i as u8 + 1; 10_000]).unwrap();
        k.close(fd).unwrap();
    }
    k.sync().unwrap();
    k.crash_now(PanicReason::Watchdog);
    let (_image, disk) = k.into_crash_artifacts();
    (disk, config)
}

#[test]
fn clean_disk_needs_no_repairs() {
    let (mut disk, _) = populated_disk();
    let report = fsck::repair(&mut disk).unwrap();
    assert_eq!(report.inodes_cleared, 0);
    assert_eq!(report.pointers_cleared, 0);
    assert_eq!(report.dirents_removed, 0);
}

#[test]
fn corrupt_inode_record_is_cleared_and_dirent_dropped() {
    let (mut disk, config) = populated_disk();
    // Corrupt the magic of some inode record in the table.
    let sb = rio_kernel::ondisk::Superblock::decode(disk.peek(0)).unwrap();
    let g = sb.geometry;
    // Find a live file inode (scan for INODE_MAGIC) past the root/dir.
    let mut victim = None;
    'outer: for blk in g.inode_start..g.inode_start + g.inode_len {
        let data = disk.peek(blk).to_vec();
        for slot in 0..(8192 / 256) {
            let off = slot * 256;
            let ino = (blk - g.inode_start) * 32 + slot as u64;
            if ino <= 2 {
                continue; // keep root + /d alive
            }
            if data[off..off + 4] != [0, 0, 0, 0] {
                victim = Some((blk, off));
                break 'outer;
            }
        }
    }
    let (blk, off) = victim.expect("a live inode");
    let mut data = disk.peek(blk).to_vec();
    data[off] ^= 0xFF;
    disk.poke(blk, &data);

    let report = fsck::repair(&mut disk).unwrap();
    assert_eq!(report.inodes_cleared, 1);
    assert!(report.dirents_removed >= 1, "dangling entry removed");
    // The volume mounts and the rest of the tree is intact.
    let (mut k, _) = Kernel::cold_boot(&config, disk).unwrap();
    assert!(k.readdir("/d").unwrap().len() >= 4);
}

#[test]
fn wild_block_pointers_are_cleared() {
    let (mut disk, config) = populated_disk();
    let sb = rio_kernel::ondisk::Superblock::decode(disk.peek(0)).unwrap();
    let g = sb.geometry;
    // Point some inode's first direct block beyond the disk.
    let mut patched = false;
    for blk in g.inode_start..g.inode_start + g.inode_len {
        let mut data = disk.peek(blk).to_vec();
        for slot in 0..(8192 / 256) {
            let off = slot * 256;
            let ino = (blk - g.inode_start) * 32 + slot as u64;
            if ino <= 2 {
                continue; // keep the root and /d directories intact
            }
            if data[off..off + 4] != [0, 0, 0, 0] && data[off + 32..off + 40] != [0u8; 8] {
                data[off + 32..off + 40].copy_from_slice(&(u64::MAX).to_le_bytes());
                disk.poke(blk, &data);
                patched = true;
                break;
            }
        }
        if patched {
            break;
        }
    }
    assert!(patched);
    let report = fsck::repair(&mut disk).unwrap();
    assert!(report.pointers_cleared >= 1);
    // System still mounts and survives a full tree walk.
    let (mut k, _) = Kernel::cold_boot(&config, disk).unwrap();
    for name in k.readdir("/d").unwrap() {
        let _ = k.file_contents(&format!("/d/{name}"));
    }
}

#[test]
fn destroyed_superblock_is_fatal() {
    let (mut disk, _) = populated_disk();
    disk.poke(0, &vec![0xEE; rio_disk::BLOCK_SIZE]);
    assert_eq!(fsck::repair(&mut disk), Err(fsck::FsckError::BadSuperblock));
}

#[test]
fn bitmap_is_rebuilt_from_reachable_blocks() {
    let (mut disk, config) = populated_disk();
    let sb = rio_kernel::ondisk::Superblock::decode(disk.peek(0)).unwrap();
    let g = sb.geometry;
    // Scramble the bitmap completely.
    disk.poke(g.bitmap_start, &vec![0xFF; rio_disk::BLOCK_SIZE]);
    let report = fsck::repair(&mut disk).unwrap();
    assert!(report.bitmap_rebuilt);
    // After repair, new allocations work (freed bits exist again).
    let (mut k, _) = Kernel::cold_boot(&config, disk).unwrap();
    let fd = k.create("/new-after-fsck").unwrap();
    k.write(fd, &vec![0xAB; 20_000]).unwrap();
    k.close(fd).unwrap();
    assert_eq!(
        k.file_contents("/new-after-fsck").unwrap(),
        vec![0xAB; 20_000]
    );
}

#[test]
fn warm_boot_runs_fsck_on_restored_metadata() {
    // Corrupt registry + warm boot: fsck cleans whatever the restore left.
    let config = KernelConfig::small(Policy::rio(RioMode::Protected));
    let mut k = Kernel::mkfs_and_mount(&config).unwrap();
    let fd = k.create("/x").unwrap();
    k.write(fd, &vec![1; 4000]).unwrap();
    k.close(fd).unwrap();
    k.crash_now(PanicReason::Watchdog);
    let (image, disk) = k.into_crash_artifacts();
    let (_k2, report) = Kernel::warm_boot(&config, &image, disk).unwrap();
    // Clean crash: fsck found a consistent volume.
    assert_eq!(report.fsck.inodes_cleared, 0);
}
