//! File-system behaviour tests: the Unix semantics the workloads rely on.

use rio_core::RioMode;
use rio_kernel::{Kernel, KernelConfig, KernelError, Policy};

fn kernel() -> Kernel {
    Kernel::mkfs_and_mount(&KernelConfig::small(Policy::rio(RioMode::Protected))).unwrap()
}

#[test]
fn create_open_close_lifecycle() {
    let mut k = kernel();
    let fd = k.create("/a").unwrap();
    k.write(fd, b"one").unwrap();
    k.close(fd).unwrap();
    // Closed fd is dead.
    assert_eq!(k.write(fd, b"x"), Err(KernelError::BadFd));
    // Re-open continues from position 0.
    let fd2 = k.open("/a").unwrap();
    assert_eq!(k.read(fd2, 10).unwrap(), b"one");
    k.close(fd2).unwrap();
}

#[test]
fn sequential_writes_append_at_position() {
    let mut k = kernel();
    let fd = k.create("/seq").unwrap();
    k.write(fd, b"hello ").unwrap();
    k.write(fd, b"world").unwrap();
    k.close(fd).unwrap();
    assert_eq!(k.file_contents("/seq").unwrap(), b"hello world");
}

#[test]
fn pwrite_and_pread_are_positioned() {
    let mut k = kernel();
    let fd = k.create("/p").unwrap();
    k.write(fd, &[b'.'; 100]).unwrap();
    k.pwrite(fd, 50, b"XYZ").unwrap();
    assert_eq!(k.pread(fd, 49, 5).unwrap(), b".XYZ.");
    // Position unaffected by pwrite/pread.
    k.write(fd, b"!").unwrap();
    assert_eq!(k.stat("/p").unwrap().size, 101);
    k.close(fd).unwrap();
}

#[test]
fn reads_stop_at_eof() {
    let mut k = kernel();
    let fd = k.create("/eof").unwrap();
    k.write(fd, b"12345").unwrap();
    assert_eq!(k.pread(fd, 3, 100).unwrap(), b"45");
    assert_eq!(k.pread(fd, 5, 10).unwrap(), b"");
    assert_eq!(k.pread(fd, 99, 10).unwrap(), b"");
    k.close(fd).unwrap();
}

#[test]
fn large_file_spans_indirect_blocks() {
    let mut k = kernel();
    // 16 direct blocks = 128 KB; write 200 KB to force the indirect block.
    let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    let fd = k.create("/big").unwrap();
    k.write(fd, &data).unwrap();
    k.close(fd).unwrap();
    assert_eq!(k.file_contents("/big").unwrap(), data);
    assert_eq!(k.stat("/big").unwrap().size, 200_000);
    // And it unlinks cleanly (frees indirect chain).
    k.unlink("/big").unwrap();
    assert_eq!(k.open("/big"), Err(KernelError::NotFound));
}

#[test]
fn sparse_write_reads_zero_holes() {
    let mut k = kernel();
    let fd = k.create("/sparse").unwrap();
    k.pwrite(fd, 50_000, b"tail").unwrap();
    assert_eq!(k.stat("/sparse").unwrap().size, 50_004);
    let head = k.pread(fd, 0, 16).unwrap();
    assert_eq!(head, vec![0u8; 16]);
    assert_eq!(k.pread(fd, 50_000, 4).unwrap(), b"tail");
    k.close(fd).unwrap();
}

#[test]
fn mkdir_rmdir_and_nesting() {
    let mut k = kernel();
    k.mkdir("/x").unwrap();
    k.mkdir("/x/y").unwrap();
    k.mkdir("/x/y/z").unwrap();
    assert_eq!(k.mkdir("/x/y"), Err(KernelError::Exists));
    assert_eq!(k.rmdir("/x/y"), Err(KernelError::NotEmpty));
    k.rmdir("/x/y/z").unwrap();
    k.rmdir("/x/y").unwrap();
    assert_eq!(k.readdir("/x").unwrap(), Vec::<String>::new());
}

#[test]
fn readdir_lists_sorted_entries() {
    let mut k = kernel();
    k.mkdir("/d").unwrap();
    for name in ["zeta", "alpha", "mid"] {
        let fd = k.create(&format!("/d/{name}")).unwrap();
        k.close(fd).unwrap();
    }
    assert_eq!(k.readdir("/d").unwrap(), vec!["alpha", "mid", "zeta"]);
}

#[test]
fn directory_grows_past_one_block() {
    let mut k = kernel();
    k.mkdir("/many").unwrap();
    // 128 entries per block; create 150.
    for i in 0..150 {
        let fd = k.create(&format!("/many/f{i:03}")).unwrap();
        k.close(fd).unwrap();
    }
    assert_eq!(k.readdir("/many").unwrap().len(), 150);
    // Entries in the second block resolve.
    assert!(k.stat("/many/f149").unwrap().size == 0);
}

#[test]
fn rename_moves_across_directories() {
    let mut k = kernel();
    k.mkdir("/from").unwrap();
    k.mkdir("/to").unwrap();
    let fd = k.create("/from/file").unwrap();
    k.write(fd, b"payload").unwrap();
    k.close(fd).unwrap();
    k.rename("/from/file", "/to/renamed").unwrap();
    assert_eq!(k.open("/from/file"), Err(KernelError::NotFound));
    assert_eq!(k.file_contents("/to/renamed").unwrap(), b"payload");
    assert_eq!(k.rename("/nope", "/to/x"), Err(KernelError::NotFound));
    let fd = k.create("/to/block").unwrap();
    k.close(fd).unwrap();
    assert_eq!(
        k.rename("/to/renamed", "/to/block"),
        Err(KernelError::Exists)
    );
}

#[test]
fn unlink_frees_space_for_reuse() {
    let mut k = kernel();
    let g = *k.geometry();
    let data_blocks = g.data_blocks();
    // Fill a good chunk of the disk, delete, refill.
    for round in 0..3 {
        let mut made = Vec::new();
        for i in 0..(data_blocks / 4) {
            let path = format!("/r{round}_{i}");
            match k.create(&path) {
                Ok(fd) => {
                    k.write(fd, &vec![round as u8; 8192]).unwrap();
                    k.close(fd).unwrap();
                    made.push(path);
                }
                Err(KernelError::NoSpace) | Err(KernelError::NoInodes) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(!made.is_empty());
        for path in made {
            k.unlink(&path).unwrap();
        }
    }
}

#[test]
fn path_errors_are_reported() {
    let mut k = kernel();
    assert_eq!(k.open("/missing"), Err(KernelError::NotFound));
    assert_eq!(k.create("relative"), Err(KernelError::InvalidPath));
    assert_eq!(k.mkdir("/a/b/c"), Err(KernelError::NotFound)); // parents absent
    let fd = k.create("/file").unwrap();
    k.close(fd).unwrap();
    assert_eq!(k.create("/file/inside"), Err(KernelError::NotDir));
    assert_eq!(k.open("/file/inside"), Err(KernelError::NotDir));
    assert_eq!(k.unlink("/"), Err(KernelError::InvalidPath));
    let long = format!("/{}", "n".repeat(100));
    assert_eq!(k.create(&long), Err(KernelError::NameTooLong));
}

#[test]
fn directories_cannot_be_io_targets() {
    let mut k = kernel();
    k.mkdir("/dir").unwrap();
    assert_eq!(k.open("/dir"), Err(KernelError::IsDir));
    assert_eq!(k.unlink("/dir"), Err(KernelError::IsDir));
    let fd = k.create("/f").unwrap();
    k.close(fd).unwrap();
    assert_eq!(k.rmdir("/f"), Err(KernelError::NotDir));
}

#[test]
fn overwrite_shorter_keeps_tail() {
    let mut k = kernel();
    let fd = k.create("/tail").unwrap();
    k.write(fd, b"AAAAAAAAAA").unwrap();
    k.pwrite(fd, 0, b"BB").unwrap();
    k.close(fd).unwrap();
    assert_eq!(k.file_contents("/tail").unwrap(), b"BBAAAAAAAA");
}

#[test]
fn stat_reports_metadata() {
    let mut k = kernel();
    k.mkdir("/sd").unwrap();
    let st = k.stat("/sd").unwrap();
    assert!(st.is_dir);
    let fd = k.create("/sd/f").unwrap();
    k.write(fd, &vec![0; 1234]).unwrap();
    k.close(fd).unwrap();
    let st = k.stat("/sd/f").unwrap();
    assert!(!st.is_dir);
    assert_eq!(st.size, 1234);
    assert!(st.ino > 0);
    let root = k.stat("/").unwrap();
    assert!(root.is_dir);
}

#[test]
fn update_daemon_flushes_delayed_data() {
    let mut k = Kernel::mkfs_and_mount(&KernelConfig::small(rio_baselines_like_delayed())).unwrap();
    let fd = k.create("/delayed").unwrap();
    k.write(fd, &vec![7u8; 8192]).unwrap();
    k.close(fd).unwrap();
    let writes_before = k.machine.disk.stats().writes;
    // Idle 31 simulated seconds, then poke the kernel with a syscall.
    let wake = k.machine.clock.now() + rio_disk::SimTime::from_secs(31);
    k.machine.clock.idle_until(wake);
    k.stat("/delayed").unwrap();
    assert!(
        k.machine.disk.stats().writes > writes_before,
        "update daemon should have flushed"
    );
    assert!(k.stats().update_runs > 0);
}

#[test]
fn kernel_idle_until_runs_update_daemon_on_schedule() {
    // A 2-minute `Kernel::idle_until` gap with no syscalls at all must
    // still run the 30 s update daemon inside it.
    let mut k = Kernel::mkfs_and_mount(&KernelConfig::small(rio_baselines_like_delayed())).unwrap();
    let fd = k.create("/upd").unwrap();
    k.write(fd, &vec![0x5C; 8192]).unwrap();
    k.close(fd).unwrap();
    let writes_before = k.machine.disk.stats().writes;
    let runs_before = k.stats().update_runs;
    let wake = k.machine.clock.now() + rio_disk::SimTime::from_secs(120);
    k.idle_until(wake).unwrap();
    assert!(
        k.machine.disk.stats().writes > writes_before,
        "update daemon must have flushed inside the gap"
    );
    assert_eq!(k.stats().update_runs - runs_before, 4, "one run per 30 s");
    assert!(k.machine.clock.now() >= wake, "clock reached the target");
}

fn rio_baselines_like_delayed() -> Policy {
    Policy {
        data: rio_kernel::DataPolicy::Delayed,
        metadata: rio_kernel::MetadataPolicy::Delayed,
        fsync_on_close: false,
        update_interval: Some(rio_kernel::policy::UPDATE_INTERVAL),
        rio: None,
        throttle_dirty_bytes: Some(rio_kernel::policy::THROTTLE_DIRTY_BYTES),
    }
}

#[test]
fn fsync_makes_data_durable_mid_stream() {
    let mut k = Kernel::mkfs_and_mount(&KernelConfig::small(rio_baselines_like_delayed())).unwrap();
    let fd = k.create("/careful").unwrap();
    k.write(fd, b"must survive").unwrap();
    k.fsync(fd).unwrap();
    k.write(fd, b" might not").unwrap();
    k.crash_now(rio_kernel::PanicReason::Watchdog);
    let (_image, disk) = k.into_crash_artifacts();
    let (mut k2, _) =
        Kernel::cold_boot(&KernelConfig::small(rio_baselines_like_delayed()), disk).unwrap();
    let got = k2.file_contents("/careful").unwrap_or_default();
    assert!(
        got.starts_with(b"must survive"),
        "fsync'd prefix lost: {got:?}"
    );
}

#[test]
fn many_open_fds_are_independent() {
    let mut k = kernel();
    let mut fds = Vec::new();
    for i in 0..20 {
        let fd = k.create(&format!("/fd{i}")).unwrap();
        k.write(fd, format!("content {i}").as_bytes()).unwrap();
        fds.push(fd);
    }
    for (i, fd) in fds.iter().enumerate() {
        assert_eq!(
            k.pread(*fd, 0, 100).unwrap(),
            format!("content {i}").as_bytes()
        );
        k.close(*fd).unwrap();
    }
}
