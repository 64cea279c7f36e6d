//! The Andrew benchmark \[Howard88\], as used in Table 2.
//!
//! Five phases over a small source tree: make directories, copy files,
//! examine status, read every byte, and compile. Compilation dominates
//! (the paper: "dominated by CPU-intensive compilation"), which is why
//! Andrew separates CPU-bound systems far less than cp+rm does — UFS's
//! default async data path already hides most of its disk time.

use crate::datagen;
use rio_disk::SimTime;
use rio_kernel::{Kernel, KernelError};

/// Smallest source file, bytes.
const MIN_FILE_BYTES: usize = 2 * 1024;
/// Largest source file, bytes.
const MAX_FILE_BYTES: usize = 14 * 1024;
/// CPU time to "compile" one source file, microseconds (the dominant
/// cost; the paper's compile phase is pure CPU plus object writes).
const COMPILE_CPU_US_PER_FILE: u64 = 25_000;

/// Andrew parameters.
#[derive(Debug, Clone)]
pub struct AndrewConfig {
    /// Data seed.
    pub seed: u64,
    /// Root directory.
    pub root: String,
    /// Source subdirectories.
    pub dirs: usize,
    /// Files per subdirectory.
    pub files_per_dir: usize,
}

impl AndrewConfig {
    /// Scaled default: 4 dirs × 12 files ≈ 400 KB of source.
    pub fn small(seed: u64) -> Self {
        AndrewConfig {
            seed,
            root: "/andrew".to_owned(),
            dirs: 4,
            files_per_dir: 12,
        }
    }
}

/// Per-phase and total times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AndrewReport {
    /// mkdir phase.
    pub mkdir: SimTime,
    /// copy phase.
    pub copy: SimTime,
    /// stat phase (find/ls/du).
    pub stat: SimTime,
    /// read phase (grep/wc).
    pub read: SimTime,
    /// compile phase.
    pub compile: SimTime,
    /// Sum of phases.
    pub total: SimTime,
}

/// The benchmark runner.
#[derive(Debug, Clone)]
pub struct Andrew {
    cfg: AndrewConfig,
}

impl Andrew {
    /// A runner for the given configuration.
    pub fn new(cfg: AndrewConfig) -> Self {
        Andrew { cfg }
    }

    fn file_path(&self, d: usize, f: usize) -> String {
        format!("{}/src{d}/file{f}.c", self.cfg.root)
    }

    fn file_len(&self, d: usize, f: usize) -> usize {
        datagen::length(
            self.cfg.seed,
            (d * 1000 + f) as u64,
            MIN_FILE_BYTES,
            MAX_FILE_BYTES,
        )
    }

    /// Runs all five phases.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (crashes under fault injection).
    pub fn run(&self, k: &mut Kernel) -> Result<AndrewReport, KernelError> {
        let t0 = k.machine.clock.now();
        // Phase 1: MakeDir.
        k.mkdir(&self.cfg.root)?;
        for d in 0..self.cfg.dirs {
            k.mkdir(&format!("{}/src{d}", self.cfg.root))?;
        }
        k.mkdir(&format!("{}/obj", self.cfg.root))?;
        let t1 = k.machine.clock.now();

        // Phase 2: Copy.
        for d in 0..self.cfg.dirs {
            for f in 0..self.cfg.files_per_dir {
                let data =
                    datagen::bytes(self.cfg.seed, (d * 1000 + f) as u64, self.file_len(d, f));
                let fd = k.create(&self.file_path(d, f))?;
                k.write(fd, &data)?;
                k.close(fd)?;
            }
        }
        let t2 = k.machine.clock.now();

        // Phase 3: ScanDir (find + ls + du).
        for d in 0..self.cfg.dirs {
            let names = k.readdir(&format!("{}/src{d}", self.cfg.root))?;
            for name in names {
                k.stat(&format!("{}/src{d}/{name}", self.cfg.root))?;
            }
        }
        let t3 = k.machine.clock.now();

        // Phase 4: ReadAll (grep + wc).
        for d in 0..self.cfg.dirs {
            for f in 0..self.cfg.files_per_dir {
                k.file_contents(&self.file_path(d, f))?;
            }
        }
        let t4 = k.machine.clock.now();

        // Phase 5: Make (read source, burn CPU, write object).
        for d in 0..self.cfg.dirs {
            for f in 0..self.cfg.files_per_dir {
                let src = k.file_contents(&self.file_path(d, f))?;
                k.machine.clock.charge_us(COMPILE_CPU_US_PER_FILE);
                let obj = datagen::bytes(
                    self.cfg.seed ^ 0xB0B0,
                    (d * 1000 + f) as u64,
                    src.len() + 64,
                );
                let fd = k.create(&format!("{}/obj/o{d}_{f}.o", self.cfg.root))?;
                // Compilers emit object code incrementally: many small
                // writes per file. This is what makes write-through-on-write
                // so much slower than write-through-on-close on Andrew
                // (paper: 178 s vs 49 s).
                for chunk in obj.chunks(512) {
                    k.write(fd, chunk)?;
                }
                k.close(fd)?;
            }
        }
        let t5 = k.machine.clock.now();

        Ok(AndrewReport {
            mkdir: t1.saturating_sub(t0),
            copy: t2.saturating_sub(t1),
            stat: t3.saturating_sub(t2),
            read: t4.saturating_sub(t3),
            compile: t5.saturating_sub(t4),
            total: t5.saturating_sub(t0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_baselines_shim::*;

    // Minimal local constructors to avoid a circular dev-dependency on
    // rio-baselines.
    mod rio_baselines_shim {
        use rio_core::RioMode;
        use rio_kernel::{Kernel, KernelConfig, Policy};

        pub fn rio_kernel() -> Kernel {
            Kernel::mkfs_and_mount(&KernelConfig::small(Policy::rio(RioMode::Protected))).unwrap()
        }

        pub fn wt_kernel() -> Kernel {
            Kernel::mkfs_and_mount(&KernelConfig::small(Policy::disk_write_through())).unwrap()
        }
    }

    #[test]
    fn andrew_completes_with_all_phases() {
        let mut k = rio_kernel();
        let report = Andrew::new(AndrewConfig::small(1)).run(&mut k).unwrap();
        assert!(report.total > SimTime::ZERO);
        assert_eq!(
            report.total.as_micros(),
            [
                report.mkdir,
                report.copy,
                report.stat,
                report.read,
                report.compile
            ]
            .iter()
            .map(|t| t.as_micros())
            .sum::<u64>()
        );
        // Compile dominates (CPU-bound benchmark).
        assert!(report.compile > report.stat);
    }

    #[test]
    fn andrew_gap_between_rio_and_write_through_is_modest() {
        // The paper's Andrew column: write-through is ~4x Rio, far less
        // than cp+rm's 22x, because compile CPU dominates.
        let mut rk = rio_kernel();
        let rio = Andrew::new(AndrewConfig::small(1)).run(&mut rk).unwrap();
        let mut wk = wt_kernel();
        let wt = Andrew::new(AndrewConfig::small(1)).run(&mut wk).unwrap();
        assert!(wt.total > rio.total);
        let ratio = wt.total.as_micros() as f64 / rio.total.as_micros() as f64;
        assert!(ratio < 40.0, "ratio {ratio} suspiciously large");
    }
}
