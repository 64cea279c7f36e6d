//! Kernel error and crash types.
//!
//! A [`KernelError`] is what a syscall returns to its caller. Most variants
//! are ordinary Unix errno-style failures; [`KernelError::Panic`] means the
//! kernel hit a machine check or consistency check mid-operation and the
//! *system has crashed* — the caller (workload driver / crash harness) must
//! stop issuing syscalls and take the memory image.

use rio_cpu::interp::PanicCause;
use rio_disk::SimTime;
use rio_mem::MemFault;

/// Why the kernel panicked (the crash-message taxonomy; the campaign
/// reports how many distinct messages it saw, mirroring the paper's "74
/// unique error messages").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PanicReason {
    /// A memory access faulted (illegal address or protection violation).
    Mem(MemFault),
    /// The CPU interpreter panicked (illegal instruction, wild PC, check).
    Cpu(String),
    /// A kernel consistency check failed (bad magic, impossible state).
    Consistency(String),
    /// A lock assertion failed (double acquire / release of unheld lock).
    Lock(String),
    /// The in-kernel watchdog fired (runaway loop in a data path).
    Watchdog,
    /// A second crash hit while the warm reboot itself was running (the
    /// recovery campaign's re-crash injector).
    SecondCrash,
}

impl PanicReason {
    /// Whether the panic was a Rio protection trap — the counter behind
    /// §3.3's "eight crashes where the protection mechanism was invoked".
    pub fn is_protection_trap(&self) -> bool {
        matches!(
            self,
            PanicReason::Mem(MemFault::ProtectionViolation { .. }) | PanicReason::Cpu(_)
        ) && match self {
            PanicReason::Mem(MemFault::ProtectionViolation { .. }) => true,
            PanicReason::Cpu(s) => s.contains("write-protection violation"),
            _ => false,
        }
    }

    /// A short stable message for unique-crash-message statistics
    /// (addresses stripped, categories kept).
    pub fn message(&self) -> String {
        match self {
            PanicReason::Mem(MemFault::BadAddress { .. }) => "trap: illegal address".to_owned(),
            PanicReason::Mem(MemFault::ProtectionViolation { kseg, .. }) => {
                format!(
                    "trap: write to protected file cache ({} route)",
                    if *kseg { "kseg" } else { "virtual" }
                )
            }
            PanicReason::Cpu(s) => format!("machine check: {s}"),
            PanicReason::Consistency(s) => format!("panic: {s}"),
            PanicReason::Lock(s) => format!("lock assertion: {s}"),
            PanicReason::Watchdog => "watchdog: kernel loop timeout".to_owned(),
            PanicReason::SecondCrash => "panic: crashed during recovery".to_owned(),
        }
    }
}

impl From<PanicCause> for PanicReason {
    fn from(c: PanicCause) -> Self {
        match c {
            PanicCause::MemFault(f) => PanicReason::Mem(f),
            other => PanicReason::Cpu(strip_numbers(&other.to_string())),
        }
    }
}

/// Strips digits so crash messages group by kind, not by address.
fn strip_numbers(s: &str) -> String {
    s.chars().filter(|c| !c.is_ascii_digit()).collect()
}

/// Details of a crash, recorded by the kernel at panic time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashInfo {
    /// What went wrong.
    pub reason: PanicReason,
    /// Simulated time of the crash.
    pub at: SimTime,
}

/// Errors returned by kernel syscalls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The system has already crashed; no further syscalls are served.
    Crashed,
    /// The kernel panicked during this syscall (system is now crashed).
    Panic(PanicReason),
    /// Path component not found.
    NotFound,
    /// Target already exists.
    Exists,
    /// A non-final path component is not a directory, or a directory op hit
    /// a regular file.
    NotDir,
    /// A file operation hit a directory.
    IsDir,
    /// Directory not empty (rmdir).
    NotEmpty,
    /// No free data blocks.
    NoSpace,
    /// No free inodes.
    NoInodes,
    /// Name longer than the directory entry limit.
    NameTooLong,
    /// Write past the maximum file size.
    FileTooBig,
    /// Malformed path.
    InvalidPath,
    /// Unknown or closed file descriptor.
    BadFd,
    /// Mount failed: superblock invalid.
    BadSuperblock,
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::Crashed => f.write_str("system has crashed"),
            KernelError::Panic(r) => write!(f, "kernel panic: {}", r.message()),
            KernelError::NotFound => f.write_str("no such file or directory"),
            KernelError::Exists => f.write_str("file exists"),
            KernelError::NotDir => f.write_str("not a directory"),
            KernelError::IsDir => f.write_str("is a directory"),
            KernelError::NotEmpty => f.write_str("directory not empty"),
            KernelError::NoSpace => f.write_str("no space left on device"),
            KernelError::NoInodes => f.write_str("no free inodes"),
            KernelError::NameTooLong => f.write_str("file name too long"),
            KernelError::FileTooBig => f.write_str("file too large"),
            KernelError::InvalidPath => f.write_str("invalid path"),
            KernelError::BadFd => f.write_str("bad file descriptor"),
            KernelError::BadSuperblock => f.write_str("bad superblock"),
        }
    }
}

impl std::error::Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_mem::PageNum;

    #[test]
    fn protection_trap_detection() {
        let trap = PanicReason::Mem(MemFault::ProtectionViolation {
            addr: 0x100,
            page: PageNum(0),
            kseg: false,
        });
        assert!(trap.is_protection_trap());
        let bad = PanicReason::Mem(MemFault::BadAddress { addr: 0, len: 1 });
        assert!(!bad.is_protection_trap());
        assert!(!PanicReason::Watchdog.is_protection_trap());
    }

    #[test]
    fn messages_are_address_free() {
        let a = PanicReason::Mem(MemFault::BadAddress {
            addr: 0x1234,
            len: 8,
        });
        let b = PanicReason::Mem(MemFault::BadAddress {
            addr: 0x9999,
            len: 1,
        });
        assert_eq!(a.message(), b.message());
    }

    #[test]
    fn cpu_causes_convert_and_group() {
        let c1: PanicReason = PanicCause::IllegalInstruction {
            index: 5,
            reason: "illegal opcode 0xfe".into(),
        }
        .into();
        let c2: PanicReason = PanicCause::IllegalInstruction {
            index: 9,
            reason: "illegal opcode 0xee".into(),
        }
        .into();
        // Same kind, different indices/opcodes → digits stripped, but hex
        // letters may differ; messages still mention machine check.
        assert!(c1.message().starts_with("machine check"));
        assert!(c2.message().starts_with("machine check"));
        let mf: PanicReason = PanicCause::MemFault(MemFault::BadAddress { addr: 1, len: 2 }).into();
        assert_eq!(
            mf,
            PanicReason::Mem(MemFault::BadAddress { addr: 1, len: 2 })
        );
    }

    #[test]
    fn kernel_error_display_nonempty() {
        for e in [
            KernelError::Crashed,
            KernelError::NotFound,
            KernelError::NoSpace,
            KernelError::Panic(PanicReason::Watchdog),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
