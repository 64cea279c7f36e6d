//! cp+rm: recursively copy, then recursively remove, a source tree.
//!
//! Table 2's most I/O-intensive workload (the paper copies the 40 MB
//! Digital Unix source tree). The copy phase stresses the data path and
//! file creation; the rm phase is pure metadata — which is why UFS's
//! synchronous metadata updates hurt it so badly and why the paper reports
//! the two sub-times separately ("81 (76+5)").

use crate::datagen;
use rio_disk::SimTime;
use rio_kernel::{Kernel, KernelError};

/// cp+rm parameters.
#[derive(Debug, Clone)]
pub struct CpRmConfig {
    /// Data seed.
    pub seed: u64,
    /// Source tree root (built during setup, untimed).
    pub src_root: String,
    /// Destination root for the copy.
    pub dst_root: String,
    /// Subdirectories in the tree.
    pub dirs: usize,
    /// Files per subdirectory.
    pub files_per_dir: usize,
    /// File size bounds.
    pub min_file_bytes: usize,
    /// File size bounds.
    pub max_file_bytes: usize,
}

impl CpRmConfig {
    /// Scaled default ≈ 4 MB across ~500 files (paper: 40 MB).
    pub fn small(seed: u64) -> Self {
        CpRmConfig {
            seed,
            src_root: "/usr_src".to_owned(),
            dst_root: "/copy".to_owned(),
            dirs: 16,
            files_per_dir: 32,
            min_file_bytes: 1024,
            max_file_bytes: 15 * 1024,
        }
    }
}

/// Timed phases, reported like the paper's "copy+rm" split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpRmReport {
    /// Recursive copy time.
    pub copy: SimTime,
    /// Recursive remove time.
    pub rm: SimTime,
    /// Sum.
    pub total: SimTime,
    /// Bytes copied.
    pub bytes: u64,
    /// Files copied.
    pub files: u64,
}

/// The workload runner.
#[derive(Debug, Clone)]
pub struct CpRm {
    cfg: CpRmConfig,
}

impl CpRm {
    /// A runner for the given configuration.
    pub fn new(cfg: CpRmConfig) -> Self {
        CpRm { cfg }
    }

    fn len_of(&self, d: usize, f: usize) -> usize {
        datagen::length(
            self.cfg.seed,
            (d * 4096 + f) as u64,
            self.cfg.min_file_bytes,
            self.cfg.max_file_bytes,
        )
    }

    /// Builds the source tree (untimed: the paper's source tree exists
    /// before the measured run; we reset the clock afterwards is not
    /// possible, so callers measure from the returned instant).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn setup(&self, k: &mut Kernel) -> Result<(), KernelError> {
        k.mkdir(&self.cfg.src_root)?;
        for d in 0..self.cfg.dirs {
            k.mkdir(&format!("{}/d{d}", self.cfg.src_root))?;
            for f in 0..self.cfg.files_per_dir {
                let data = datagen::bytes(self.cfg.seed, (d * 4096 + f) as u64, self.len_of(d, f));
                let fd = k.create(&format!("{}/d{d}/f{f}", self.cfg.src_root))?;
                k.write(fd, &data)?;
                k.close(fd)?;
            }
        }
        // Let the source settle to disk where the policy would have done so
        // long ago in real life.
        k.sync()?;
        Ok(())
    }

    /// Runs the timed copy + rm phases (after [`CpRm::setup`]).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn run(&self, k: &mut Kernel) -> Result<CpRmReport, KernelError> {
        let t0 = k.machine.clock.now();
        let mut bytes = 0u64;
        let mut files = 0u64;

        // cp -r: read each source file, write the copy.
        k.mkdir(&self.cfg.dst_root)?;
        for d in 0..self.cfg.dirs {
            k.mkdir(&format!("{}/d{d}", self.cfg.dst_root))?;
            for f in 0..self.cfg.files_per_dir {
                let data = k.file_contents(&format!("{}/d{d}/f{f}", self.cfg.src_root))?;
                let fd = k.create(&format!("{}/d{d}/f{f}", self.cfg.dst_root))?;
                k.write(fd, &data)?;
                k.close(fd)?;
                bytes += data.len() as u64;
                files += 1;
            }
        }
        let t1 = k.machine.clock.now();

        // rm -r of the copy.
        for d in 0..self.cfg.dirs {
            for f in 0..self.cfg.files_per_dir {
                k.unlink(&format!("{}/d{d}/f{f}", self.cfg.dst_root))?;
            }
            k.rmdir(&format!("{}/d{d}", self.cfg.dst_root))?;
        }
        k.rmdir(&self.cfg.dst_root)?;
        let t2 = k.machine.clock.now();

        Ok(CpRmReport {
            copy: t1.saturating_sub(t0),
            rm: t2.saturating_sub(t1),
            total: t2.saturating_sub(t0),
            bytes,
            files,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_core::RioMode;
    use rio_kernel::{Kernel, KernelConfig, Policy};

    fn small_cfg(seed: u64) -> CpRmConfig {
        CpRmConfig {
            dirs: 4,
            files_per_dir: 8,
            ..CpRmConfig::small(seed)
        }
    }

    #[test]
    fn copy_then_remove_round_trips() {
        let mut k =
            Kernel::mkfs_and_mount(&KernelConfig::small(Policy::rio(RioMode::Protected))).unwrap();
        let w = CpRm::new(small_cfg(1));
        w.setup(&mut k).unwrap();
        let report = w.run(&mut k).unwrap();
        assert_eq!(report.files, 32);
        assert!(report.bytes > 0);
        assert!(report.copy > SimTime::ZERO);
        assert!(report.rm > SimTime::ZERO);
        // Destination is gone; source intact.
        assert!(k.stat("/copy").is_err());
        assert_eq!(k.readdir("/usr_src").unwrap().len(), 4);
    }

    #[test]
    fn rm_phase_is_metadata_bound_under_sync_ufs() {
        // With synchronous metadata, rm should be a large share of total —
        // the paper's 120s of 539s. With Rio it should be small.
        let run = |policy: Policy| {
            let mut k = Kernel::mkfs_and_mount(&KernelConfig::small(policy)).unwrap();
            let w = CpRm::new(small_cfg(2));
            w.setup(&mut k).unwrap();
            w.run(&mut k).unwrap()
        };
        let rio = run(Policy::rio(RioMode::Protected));
        let ufs = run(Policy::disk_write_through());
        assert!(ufs.rm.as_micros() > rio.rm.as_micros() * 3);
    }
}
