//! Quickstart: the Rio file cache in five minutes.
//!
//! Builds a Rio machine, writes files with *zero* reliability disk writes,
//! crashes the operating system, warm reboots, and shows that every byte
//! survived — the paper's core claim, end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rio::core::RioMode;
use rio::kernel::{Kernel, KernelConfig, PanicReason, Policy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Boot a simulated machine running the Rio kernel with protection:
    //    file-cache pages write-protected, KSEG forced through the TLB,
    //    registry armed, and no reliability-induced disk writes at all.
    let mode = RioMode::Protected;
    let config = KernelConfig::small(Policy::rio(mode));
    let mut kernel = Kernel::mkfs_and_mount(&config)?;
    println!("booted: {mode}");

    // 2. Write some files. Under Rio every write is synchronously
    //    permanent the moment the syscall returns — no fsync needed.
    kernel.mkdir("/mail")?;
    let fd = kernel.create("/mail/inbox")?;
    kernel.write(fd, b"Subject: the file cache survives OS crashes\n\n")?;
    kernel.write(
        fd,
        b"Memory with write-through reliability at write-back speed.\n",
    )?;
    kernel.close(fd)?;

    let disk_writes = kernel.machine.disk.stats().writes;
    println!("reliability-induced disk writes so far: {disk_writes}");
    assert_eq!(disk_writes, 0);

    // 3. Crash the operating system. Kernel data structures die; physical
    //    memory and the disk survive.
    kernel.crash_now(PanicReason::Watchdog);
    println!(
        "crash: {}",
        kernel.crash_info().expect("crashed").reason.message()
    );
    let (memory_image, disk) = kernel.into_crash_artifacts();

    // 4. Warm reboot (§2.2): scan the registry in the preserved memory
    //    image, restore metadata to disk, fsck, mount, and replay file
    //    pages through normal system calls.
    let (mut kernel, report) = Kernel::warm_boot(&config, &memory_image, disk)?;
    println!(
        "warm reboot: {} file pages replayed, {} dropped",
        report.pages_replayed,
        report.warm.as_ref().map(|w| w.total_dropped()).unwrap_or(0)
    );

    // 5. Everything is still there.
    let inbox = kernel.file_contents("/mail/inbox")?;
    print!("{}", String::from_utf8_lossy(&inbox));
    assert!(inbox.ends_with(b"write-back speed.\n"));
    println!("\nall data survived the crash.");
    Ok(())
}
