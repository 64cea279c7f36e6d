//! Sdet: SPEC SDM's multi-user software-development workload \[SPE91\].
//!
//! The paper runs "5 scripts" — five concurrent users each executing a
//! shell-script mix of file operations. We model concurrency by
//! interleaving the five per-user scripts round-robin; each user works in
//! a private directory, and every operation is deterministic in
//! `(seed, user, step)`.

use crate::datagen;
use rio_disk::SimTime;
use rio_kernel::{Fd, Kernel, KernelError};
use std::collections::VecDeque;

/// Concurrent user scripts (the paper's 5).
const SCRIPTS: usize = 5;
/// Maximum bytes per file.
const MAX_FILE_BYTES: usize = 12 * 1024;

/// Sdet parameters.
#[derive(Debug, Clone)]
pub struct SdetConfig {
    /// Seed.
    pub seed: u64,
    /// Root directory.
    pub root: String,
    /// Operations per script.
    pub ops_per_script: usize,
}

impl SdetConfig {
    /// Scaled default: 5 scripts × 120 ops.
    pub fn small(seed: u64) -> Self {
        SdetConfig {
            seed,
            root: "/sdet".to_owned(),
            ops_per_script: 120,
        }
    }
}

/// Result of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdetReport {
    /// Wall time for all scripts.
    pub total: SimTime,
    /// Operations executed.
    pub ops: u64,
}

/// The workload runner.
#[derive(Debug, Clone)]
pub struct Sdet {
    cfg: SdetConfig,
}

impl Sdet {
    /// A runner for the given configuration.
    pub fn new(cfg: SdetConfig) -> Self {
        Sdet { cfg }
    }

    /// Runs the interleaved scripts.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn run(&self, k: &mut Kernel) -> Result<SdetReport, KernelError> {
        let t0 = k.machine.clock.now();
        k.mkdir(&self.cfg.root)?;
        // Per-user state: working dir, live files (name → tag), open fd.
        struct User {
            dir: String,
            files: VecDeque<(String, u64, usize)>,
            next_file: u64,
            open: Option<(Fd, String)>,
        }
        let mut users: Vec<User> = (0..SCRIPTS)
            .map(|u| User {
                dir: format!("{}/user{u}", self.cfg.root),
                files: VecDeque::new(),
                next_file: 0,
                open: None,
            })
            .collect();
        for u in &users {
            k.mkdir(&u.dir)?;
        }

        let mut ops = 0u64;
        for step in 0..self.cfg.ops_per_script {
            for (uid, user) in users.iter_mut().enumerate() {
                let tag = (uid as u64) << 32 | step as u64;
                let r = datagen::length(self.cfg.seed, tag, 0, 99);
                match r {
                    // Edit cycle: create + write a new file.
                    0..=34 => {
                        let name = format!("{}/s{}", user.dir, user.next_file);
                        user.next_file += 1;
                        let len = datagen::length(self.cfg.seed, tag ^ 0xA5, 64, MAX_FILE_BYTES);
                        let fd = k.create(&name)?;
                        k.write(fd, &datagen::bytes(self.cfg.seed, tag, len))?;
                        k.close(fd)?;
                        user.files.push_back((name, tag, len));
                    }
                    // Re-read a recent file (compile/grep).
                    35..=54 => {
                        if let Some((name, _, _)) = user.files.back() {
                            let name = name.clone();
                            k.file_contents(&name)?;
                        }
                    }
                    // Append to an open log file.
                    55..=69 => {
                        let fd = match &user.open {
                            Some((fd, _)) => *fd,
                            None => {
                                let name = format!("{}/log", user.dir);
                                let fd = k.create(&name)?;
                                user.open = Some((fd, name.clone()));
                                fd
                            }
                        };
                        let len = datagen::length(self.cfg.seed, tag ^ 0x5A, 32, 512);
                        k.write(fd, &datagen::bytes(self.cfg.seed, tag ^ 0x11, len))?;
                    }
                    // Delete the oldest file (cleanup).
                    70..=84 => {
                        if let Some((name, _, _)) = user.files.pop_front() {
                            k.unlink(&name)?;
                        }
                    }
                    // Directory listing (ls).
                    _ => {
                        k.readdir(&user.dir)?;
                    }
                }
                ops += 1;
            }
        }
        // Close any open logs.
        for user in &mut users {
            if let Some((fd, _)) = user.open.take() {
                k.close(fd)?;
            }
        }
        Ok(SdetReport {
            total: k.machine.clock.now().saturating_sub(t0),
            ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_core::RioMode;
    use rio_kernel::{KernelConfig, Policy};

    #[test]
    fn sdet_runs_all_scripts() {
        let mut k =
            Kernel::mkfs_and_mount(&KernelConfig::small(Policy::rio(RioMode::Protected))).unwrap();
        let cfg = SdetConfig {
            ops_per_script: 40,
            ..SdetConfig::small(4)
        };
        let report = Sdet::new(cfg.clone()).run(&mut k).unwrap();
        assert_eq!(report.ops, (SCRIPTS * cfg.ops_per_script) as u64);
        assert!(report.total > SimTime::ZERO);
        // Each user directory exists.
        assert_eq!(k.readdir("/sdet").unwrap().len(), SCRIPTS);
    }

    #[test]
    fn sdet_is_deterministic_in_time() {
        let run = || {
            let mut k =
                Kernel::mkfs_and_mount(&KernelConfig::small(Policy::rio(RioMode::Protected)))
                    .unwrap();
            Sdet::new(SdetConfig::small(8)).run(&mut k).unwrap().total
        };
        assert_eq!(run(), run());
    }
}
