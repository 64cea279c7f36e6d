//! The departmental file server of §7.
//!
//! The authors closed the paper by installing Rio on their own file server
//! ("this file server stores our kernel source tree, this paper, and the
//! authors' mail"). This example models a day in that server's life: a mix
//! of mail delivery, source edits, and paper drafts, interrupted by
//! repeated OS crashes — with a warm reboot after each one and a full audit
//! at the end.
//!
//! ```text
//! cargo run --release --example file_server [crashes]
//! ```

use rio::core::RioMode;
use rio::kernel::{Kernel, KernelConfig, KernelError, PanicReason, Policy};
use rio::workloads::datagen;
use std::collections::BTreeMap;

struct Server {
    kernel: Kernel,
    config: KernelConfig,
    /// What we believe the server holds (the users' own copies).
    expected: BTreeMap<String, Vec<u8>>,
    crashes_survived: u32,
}

impl Server {
    fn start() -> Result<Server, KernelError> {
        let config = KernelConfig::small(Policy::rio(RioMode::Protected));
        let mut kernel = Kernel::mkfs_and_mount(&config)?;
        for dir in ["/mail", "/src", "/papers"] {
            kernel.mkdir(dir)?;
        }
        Ok(Server {
            kernel,
            config,
            expected: BTreeMap::new(),
            crashes_survived: 0,
        })
    }

    fn store(&mut self, path: &str, data: Vec<u8>) -> Result<(), KernelError> {
        if self.expected.contains_key(path) {
            self.kernel.unlink(path)?;
        }
        let fd = self.kernel.create(path)?;
        self.kernel.write(fd, &data)?;
        self.kernel.close(fd)?;
        self.expected.insert(path.to_owned(), data);
        Ok(())
    }

    fn crash_and_warm_reboot(&mut self) -> Result<(), KernelError> {
        self.kernel.crash_now(PanicReason::Watchdog);
        // Move the kernel out, leaving a placeholder we immediately replace.
        let dead = std::mem::replace(&mut self.kernel, Kernel::mkfs_and_mount(&self.config)?);
        let (image, disk) = dead.into_crash_artifacts();
        let (kernel, _report) = Kernel::warm_boot(&self.config, &image, disk)?;
        self.kernel = kernel;
        self.crashes_survived += 1;
        Ok(())
    }

    fn audit(&mut self) -> Result<(u32, u32), KernelError> {
        let mut ok = 0;
        let mut bad = 0;
        for (path, want) in &self.expected {
            match self.kernel.file_contents(path) {
                Ok(got) if &got == want => ok += 1,
                _ => bad += 1,
            }
        }
        Ok((ok, bad))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let crashes: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let mut server = Server::start()?;

    let mut mail_id = 0u64;
    for day_part in 0..crashes {
        // Mail arrives.
        for _ in 0..6 {
            mail_id += 1;
            let body = datagen::bytes(7, mail_id, datagen::length(7, mail_id, 200, 4000));
            server.store(&format!("/mail/msg{mail_id}"), body)?;
        }
        // Someone edits the kernel source.
        let src = datagen::bytes(11, day_part as u64, 12_000);
        server.store(&format!("/src/vm_rio_{day_part}.c"), src)?;
        // The paper grows a section.
        let section = datagen::bytes(13, day_part as u64, 8_000);
        server.store("/papers/rio-asplos96.tex", section)?;

        // And then the operating system crashes. Again.
        server.crash_and_warm_reboot()?;
        let (ok, bad) = server.audit()?;
        println!(
            "crash #{}: warm reboot done; audit: {ok} files intact, {bad} damaged",
            day_part + 1
        );
        assert_eq!(bad, 0, "the file server must not lose data");
    }

    println!(
        "\nserved {} files across {} OS crashes with zero reliability disk writes \
         and zero losses.",
        server.expected.len(),
        server.crashes_survived
    );
    Ok(())
}
