//! The host-side model file system: memTest's source of truth.
//!
//! §3.2: after a crash, memTest is re-run "until it reaches the point when
//! the system crashed", reconstructing the correct contents of the test
//! directory, which are then compared with the recovered file cache. The
//! [`ModelFs`] is that reconstruction, and [`ModelFs::verify`] is the
//! comparison.

use rio_kernel::{Kernel, KernelError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Expected file-system state (paths under the workload root).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelFs {
    /// path → expected contents. Shared, so forking a warmed-up workload
    /// copies a file's bytes only when the fork rewrites that file.
    pub files: BTreeMap<String, Arc<Vec<u8>>>,
    /// Expected directories.
    pub dirs: BTreeSet<String>,
}

/// The verdict of comparing a (recovered) kernel against the model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Files whose contents matched.
    pub files_ok: u64,
    /// Files present with wrong contents.
    pub corrupted: Vec<String>,
    /// Files missing entirely (lost writes count as corruption for systems
    /// that promised them durable).
    pub missing: Vec<String>,
    /// Directories missing.
    pub dirs_missing: Vec<String>,
    /// Files skipped because they were the in-flight operation's target at
    /// the crash (unidentifiable, like the paper's "changing" blocks).
    pub skipped_in_flight: u64,
}

impl VerifyReport {
    /// Whether any checked object was corrupted or lost.
    pub fn is_corrupt(&self) -> bool {
        !self.corrupted.is_empty() || !self.missing.is_empty() || !self.dirs_missing.is_empty()
    }

    /// Total damaged objects.
    pub fn damage_count(&self) -> usize {
        self.corrupted.len() + self.missing.len() + self.dirs_missing.len()
    }
}

impl ModelFs {
    /// An empty model.
    pub fn new() -> Self {
        ModelFs::default()
    }

    /// Compares a kernel's state against this model.
    ///
    /// `in_flight` names the object targeted by the operation that was
    /// executing when the system crashed; differences there are recorded
    /// as skipped, not corrupt (its state is legitimately indeterminate).
    ///
    /// # Errors
    ///
    /// Propagates kernel panics during verification (should not happen on
    /// a freshly booted system).
    pub fn verify(
        &self,
        k: &mut Kernel,
        in_flight: Option<&str>,
    ) -> Result<VerifyReport, KernelError> {
        let mut report = VerifyReport::default();
        for dir in &self.dirs {
            match k.stat(dir) {
                Ok(st) if st.is_dir => {}
                Ok(_) | Err(KernelError::NotFound) | Err(KernelError::NotDir) => {
                    if in_flight == Some(dir.as_str()) {
                        report.skipped_in_flight += 1;
                    } else {
                        report.dirs_missing.push(dir.clone());
                    }
                }
                Err(e) => return Err(e),
            }
        }
        for (path, expected) in &self.files {
            if in_flight == Some(path.as_str()) {
                report.skipped_in_flight += 1;
                continue;
            }
            match k.file_contents(path) {
                Ok(actual) => {
                    if actual == **expected {
                        report.files_ok += 1;
                    } else {
                        report.corrupted.push(path.clone());
                    }
                }
                Err(KernelError::NotFound) | Err(KernelError::NotDir) => {
                    report.missing.push(path.clone());
                }
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_core::RioMode;
    use rio_kernel::{KernelConfig, Policy};

    fn kernel() -> Kernel {
        Kernel::mkfs_and_mount(&KernelConfig::small(Policy::rio(RioMode::Unprotected))).unwrap()
    }

    #[test]
    fn matching_state_verifies_clean() {
        let mut k = kernel();
        let mut m = ModelFs::new();
        k.mkdir("/d").unwrap();
        m.dirs.insert("/d".to_owned());
        let fd = k.create("/d/f").unwrap();
        k.write(fd, b"abc").unwrap();
        k.close(fd).unwrap();
        m.files.insert("/d/f".to_owned(), b"abc".to_vec().into());
        let r = m.verify(&mut k, None).unwrap();
        assert!(!r.is_corrupt());
        assert_eq!(r.files_ok, 1);
    }

    #[test]
    fn corruption_and_loss_are_distinguished() {
        let mut k = kernel();
        let mut m = ModelFs::new();
        let fd = k.create("/x").unwrap();
        k.write(fd, b"wrong").unwrap();
        k.close(fd).unwrap();
        m.files.insert("/x".to_owned(), b"right".to_vec().into());
        m.files.insert("/gone".to_owned(), b"data".to_vec().into());
        let r = m.verify(&mut k, None).unwrap();
        assert_eq!(r.corrupted, vec!["/x".to_owned()]);
        assert_eq!(r.missing, vec!["/gone".to_owned()]);
        assert!(r.is_corrupt());
        assert_eq!(r.damage_count(), 2);
    }

    #[test]
    fn in_flight_target_is_skipped() {
        let mut k = kernel();
        let mut m = ModelFs::new();
        m.files
            .insert("/pending".to_owned(), b"half".to_vec().into());
        let r = m.verify(&mut k, Some("/pending")).unwrap();
        assert!(!r.is_corrupt());
        assert_eq!(r.skipped_in_flight, 1);
    }
}
