//! memTest: the §3.2 crash-detection workload.
//!
//! A deterministic stream of file/directory creations, deletions, reads,
//! and writes. Every decision is a pure function of `(seed, op index,
//! model state)`, and the model evolves deterministically, so the expected
//! state at any completed-op count can be reconstructed after a crash with
//! [`MemTest::replay`] — the paper's "run memTest until it reaches the
//! point when the system crashed".
//!
//! The op counter [`MemTest::ops_done`] is the "status file recorded across
//! the network": it lives on the host, outside the crashing machine.

use crate::datagen;
use crate::model::ModelFs;
use rio_kernel::{Kernel, KernelError, PreemptClient, SyscallOp, SyscallRet};
use std::sync::Arc;

/// memTest parameters.
#[derive(Debug, Clone)]
pub struct MemTestConfig {
    /// PRNG seed: same seed, same op stream.
    pub seed: u64,
    /// Root directory for the test set.
    pub root: String,
    /// Target ceiling for live file bytes (paper: 100 MB; scaled default
    /// 2 MB).
    pub max_set_bytes: u64,
    /// Maximum bytes per file write.
    pub max_file_bytes: usize,
    /// Call `fsync` after every write (the Table 1 disk-based system).
    pub fsync_every_write: bool,
    /// Number of fixed subdirectories files spread across.
    pub num_dirs: usize,
    /// Number of toggled extra directories (mkdir/rmdir traffic).
    pub num_toggle_dirs: usize,
}

impl MemTestConfig {
    /// Scaled default configuration for the crash campaign.
    pub fn small(seed: u64) -> Self {
        MemTestConfig {
            seed,
            root: "/memtest".to_owned(),
            max_set_bytes: 2 * 1024 * 1024,
            max_file_bytes: 24 * 1024,
            fsync_every_write: false,
            num_dirs: 6,
            num_toggle_dirs: 3,
        }
    }

    /// Same, with fsync-per-write (write-through semantics for Table 1's
    /// disk-based column).
    pub fn small_write_through(seed: u64) -> Self {
        MemTestConfig {
            fsync_every_write: true,
            ..MemTestConfig::small(seed)
        }
    }
}

/// One decided operation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Create { path: String, len: usize, tag: u64 },
    Rewrite { path: String, len: usize, tag: u64 },
    Read { path: String },
    Delete { path: String },
    MkToggle { path: String },
    RmToggle { path: String },
}

impl Op {
    fn target(&self) -> &str {
        match self {
            Op::Create { path, .. }
            | Op::Rewrite { path, .. }
            | Op::Read { path }
            | Op::Delete { path }
            | Op::MkToggle { path }
            | Op::RmToggle { path } => path,
        }
    }
}

/// The running workload.
///
/// `Clone` is the workload half of the crash campaign's checkpoint-fork
/// engine: the full cursor (model file system, byte budget, `ops_done`,
/// in-flight target) is plain owned data, so cloning a warmed `MemTest`
/// alongside a cloned [`Kernel`] freezes the whole steady state. Each
/// campaign trial then forks that pair and resumes stepping from the
/// cursor — no re-warmup — and, because every op is a pure function of
/// `(seed, op index, model state)`, the fork behaves byte-for-byte like a
/// workload that ran from scratch to the same point.
#[derive(Debug, Clone)]
pub struct MemTest {
    cfg: MemTestConfig,
    model: ModelFs,
    total_bytes: u64,
    ops_done: u64,
    in_flight: Option<String>,
}

impl MemTest {
    /// A fresh memTest (call [`MemTest::setup`] before stepping).
    pub fn new(cfg: MemTestConfig) -> Self {
        MemTest {
            cfg,
            model: ModelFs::new(),
            total_bytes: 0,
            ops_done: 0,
            in_flight: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MemTestConfig {
        &self.cfg
    }

    /// Completed operations (the externally recorded progress counter).
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// Target of the operation that was executing when a crash interrupted
    /// [`MemTest::step`], if any.
    pub fn in_flight(&self) -> Option<&str> {
        self.in_flight.as_deref()
    }

    /// The current expected state.
    pub fn model(&self) -> &ModelFs {
        &self.model
    }

    /// Creates the directory skeleton and the static comparison files
    /// (§3.2's "two copies of all files that are not modified by our
    /// workload").
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (crash during setup aborts the run).
    pub fn setup(&mut self, k: &mut Kernel) -> Result<(), KernelError> {
        self.setup_skeleton(k)?;
        Self::setup_static(k, self.cfg.seed)
    }

    /// Creates just this instance's directory skeleton. Multi-client runs
    /// give every client a distinct root, call this per client, and create
    /// the shared static set once with [`MemTest::setup_static`].
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn setup_skeleton(&mut self, k: &mut Kernel) -> Result<(), KernelError> {
        k.mkdir(&self.cfg.root)?;
        self.model.dirs.insert(self.cfg.root.clone());
        for d in 0..self.cfg.num_dirs {
            let path = format!("{}/dir{d}", self.cfg.root);
            k.mkdir(&path)?;
            self.model.dirs.insert(path);
        }
        Ok(())
    }

    /// Creates the shared `/static` comparison pairs.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn setup_static(k: &mut Kernel, seed: u64) -> Result<(), KernelError> {
        k.mkdir("/static")?;
        for i in 0..3 {
            let data = datagen::bytes(seed, STATIC_TAG + i, 4096);
            for half in ["a", "b"] {
                let fd = k.create(&format!("/static/{half}{i}"))?;
                k.write(fd, &data)?;
                k.fsync(fd)?;
                k.close(fd)?;
            }
        }
        Ok(())
    }

    /// Checks the static file pairs for equality (the paper's final
    /// corruption check). Returns the number of damaged pairs.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn check_static(k: &mut Kernel, seed: u64) -> Result<u64, KernelError> {
        let mut bad = 0;
        for i in 0..3u64 {
            let expected = datagen::bytes(seed, STATIC_TAG + i, 4096);
            for half in ["a", "b"] {
                match k.file_contents(&format!("/static/{half}{i}")) {
                    Ok(data) if data == expected => {}
                    Ok(_) | Err(KernelError::NotFound) => bad += 1,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(bad)
    }

    /// Decides op `index` against `model` — shared by live stepping and
    /// replay, which is what makes reconstruction exact.
    fn decide(cfg: &MemTestConfig, index: u64, model: &ModelFs, total_bytes: u64) -> Op {
        let r = datagen::length(cfg.seed, index.wrapping_mul(3), 0, 99) as u64;
        let files: Vec<&String> = model.files.keys().collect();
        let over_budget = total_bytes > cfg.max_set_bytes;

        // Toggle-directory traffic: 6% of ops.
        if (94..100).contains(&r) {
            let t = datagen::length(cfg.seed, index.wrapping_mul(5) + 1, 0, cfg.num_toggle_dirs - 1);
            let path = format!("{}/toggle{t}", cfg.root);
            return if model.dirs.contains(&path) {
                Op::RmToggle { path }
            } else {
                Op::MkToggle { path }
            };
        }
        // Deletes: 15% normally; dominate when over budget.
        let delete_band = if over_budget { 70 } else { 15 };
        if r < delete_band && !files.is_empty() {
            let pick = datagen::length(cfg.seed, index.wrapping_mul(7) + 2, 0, files.len() - 1);
            return Op::Delete {
                path: files[pick].clone(),
            };
        }
        // Reads: next 15%.
        if r < delete_band + 15 && !files.is_empty() {
            let pick = datagen::length(cfg.seed, index.wrapping_mul(11) + 3, 0, files.len() - 1);
            return Op::Read {
                path: files[pick].clone(),
            };
        }
        // Rewrites: next 30% (if anything exists).
        if r < delete_band + 45 && !files.is_empty() {
            let pick = datagen::length(cfg.seed, index.wrapping_mul(13) + 4, 0, files.len() - 1);
            let len = datagen::length(cfg.seed, index.wrapping_mul(17) + 5, 1, cfg.max_file_bytes);
            return Op::Rewrite {
                path: files[pick].clone(),
                len,
                tag: index + 1_000_000,
            };
        }
        // Creates: the rest.
        let d = datagen::length(cfg.seed, index.wrapping_mul(19) + 6, 0, cfg.num_dirs - 1);
        let len = datagen::length(cfg.seed, index.wrapping_mul(23) + 7, 1, cfg.max_file_bytes);
        Op::Create {
            path: format!("{}/dir{d}/f{index}", cfg.root),
            len,
            tag: index,
        }
    }

    /// The bytes a `Create` / `Rewrite` writes — a pure function of the op
    /// and the seed; empty (and unallocated) for every other op.
    fn payload(cfg: &MemTestConfig, op: &Op) -> Vec<u8> {
        match op {
            Op::Create { len, tag, .. } | Op::Rewrite { len, tag, .. } => {
                datagen::bytes(cfg.seed, *tag, *len)
            }
            _ => Vec::new(),
        }
    }

    /// Applies `op` to the model, generating its payload: the form replay
    /// and the preemptive client use. [`MemTest::step`], which has already
    /// built the payload for the kernel, hands it to
    /// [`MemTest::apply_payload_to_model`] instead.
    fn apply_to_model(cfg: &MemTestConfig, op: &Op, model: &mut ModelFs, total: &mut u64) {
        Self::apply_payload_to_model(op, Self::payload(cfg, op), model, total);
    }

    /// Applies `op`, whose [`MemTest::payload`] is `data`, to the model.
    fn apply_payload_to_model(op: &Op, data: Vec<u8>, model: &mut ModelFs, total: &mut u64) {
        match op {
            Op::Create { path, .. } => {
                *total += data.len() as u64;
                model.files.insert(path.clone(), data.into());
            }
            Op::Rewrite { path, .. } => {
                let entry =
                    Arc::make_mut(model.files.get_mut(path).expect("rewrite target exists"));
                let old_len = entry.len();
                if data.len() >= old_len {
                    *total += (data.len() - old_len) as u64;
                    *entry = data;
                } else {
                    entry[..data.len()].copy_from_slice(&data);
                }
            }
            Op::Read { .. } => {}
            Op::Delete { path } => {
                let data = model.files.remove(path).expect("delete target exists");
                *total -= data.len() as u64;
            }
            Op::MkToggle { path } => {
                model.dirs.insert(path.clone());
            }
            Op::RmToggle { path } => {
                model.dirs.remove(path);
            }
        }
    }

    /// Issues `op`'s syscalls; `data` is its [`MemTest::payload`].
    fn apply_to_kernel(&self, k: &mut Kernel, op: &Op, data: &[u8]) -> Result<(), KernelError> {
        match op {
            Op::Create { path, .. } => {
                let fd = k.create(path)?;
                k.write(fd, data)?;
                if self.cfg.fsync_every_write {
                    k.fsync(fd)?;
                }
                k.close(fd)?;
            }
            Op::Rewrite { path, .. } => {
                let fd = k.open(path)?;
                k.pwrite(fd, 0, data)?;
                if self.cfg.fsync_every_write {
                    k.fsync(fd)?;
                }
                k.close(fd)?;
            }
            Op::Read { path } => {
                let _ = k.file_contents(path)?;
            }
            Op::Delete { path } => k.unlink(path)?,
            Op::MkToggle { path } => k.mkdir(path)?,
            Op::RmToggle { path } => k.rmdir(path)?,
        }
        Ok(())
    }

    /// Executes one operation against the kernel, updating the model on
    /// success.
    ///
    /// # Errors
    ///
    /// A crash ([`KernelError::Panic`] / [`KernelError::Crashed`]) leaves
    /// [`MemTest::in_flight`] naming the interrupted target, exactly like
    /// the status file surviving the real machine's crash.
    pub fn step(&mut self, k: &mut Kernel) -> Result<(), KernelError> {
        let op = Self::decide(&self.cfg, self.ops_done, &self.model, self.total_bytes);
        self.in_flight = Some(op.target().to_owned());
        // Generated once: lent to the kernel, then moved into the model.
        let data = Self::payload(&self.cfg, &op);
        self.apply_to_kernel(k, &op, &data)?;
        Self::apply_payload_to_model(&op, data, &mut self.model, &mut self.total_bytes);
        self.ops_done += 1;
        self.in_flight = None;
        Ok(())
    }

    /// Runs up to `n` operations; returns how many completed.
    ///
    /// # Errors
    ///
    /// Stops at the first op that fails, propagating its error: a crash,
    /// or a benign failure (ops are designed never to fail on a healthy
    /// system).
    pub fn run(&mut self, k: &mut Kernel, n: u64) -> Result<u64, KernelError> {
        for _ in 0..n {
            self.step(k)?;
        }
        Ok(n)
    }

    /// Reconstructs the expected state after `ops` completed operations,
    /// plus the target of the next (possibly interrupted) op.
    pub fn replay(cfg: &MemTestConfig, ops: u64) -> (ModelFs, String) {
        let mut model = ModelFs::new();
        model.dirs.insert(cfg.root.clone());
        for d in 0..cfg.num_dirs {
            model.dirs.insert(format!("{}/dir{d}", cfg.root));
        }
        let mut total = 0u64;
        for i in 0..ops {
            let op = Self::decide(cfg, i, &model, total);
            Self::apply_to_model(cfg, &op, &mut model, &mut total);
        }
        let next = Self::decide(cfg, ops, &model, total);
        (model, next.target().to_owned())
    }
}

/// Tag base for the static comparison files.
const STATIC_TAG: u64 = 0xABCD_0000;

/// memTest as a [`PreemptClient`]: each logical memTest operation is
/// decomposed into its constituent syscalls (`create`+`write`+`close`,
/// `open`+`pread`+`close`, ...), each of which runs as a resumable
/// continuation under the preemptive scheduler — so a crash can land
/// with this client's syscall half-executed and its locks held.
///
/// The model is applied only when the *whole* logical op has completed,
/// and [`MemTest::ops_done`] counts logical ops — so the §3.2 replay
/// protocol ([`MemTest::replay`]) reconstructs the expected state
/// exactly as in the run-to-completion harness, and the interrupted
/// logical op's target is still named by [`MemTest::in_flight`].
#[derive(Debug, Clone)]
pub struct PreemptMemTest {
    mt: MemTest,
    target_ops: u64,
    /// The logical op currently being executed, if any.
    cur: Option<Op>,
    /// Remaining micro-ops of the current logical op.
    queue: std::collections::VecDeque<SyscallOp>,
    /// The next result is the fd the rest of the micro-ops need.
    await_fd: bool,
    /// A micro-op failed benignly: the client retires (its logical op
    /// never completed, so the model was never updated).
    failed: bool,
}

impl PreemptMemTest {
    /// A fresh preemptible memTest that retires after `target_ops`
    /// logical operations (call [`PreemptMemTest::setup_skeleton`], and
    /// [`MemTest::setup_static`] once globally, before scheduling).
    pub fn new(cfg: MemTestConfig, target_ops: u64) -> Self {
        PreemptMemTest {
            mt: MemTest::new(cfg),
            target_ops,
            cur: None,
            queue: std::collections::VecDeque::new(),
            await_fd: false,
            failed: false,
        }
    }

    /// The underlying memTest (progress counter, model, config).
    pub fn memtest(&self) -> &MemTest {
        &self.mt
    }

    /// Completed *logical* operations.
    pub fn ops_done(&self) -> u64 {
        self.mt.ops_done
    }

    /// Whether a micro-op failed benignly and retired the client.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Creates this client's directory skeleton.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn setup_skeleton(&mut self, k: &mut Kernel) -> Result<(), KernelError> {
        self.mt.setup_skeleton(k)
    }

    /// Queues the fd-dependent tail of the current logical op.
    fn enqueue_with_fd(&mut self, fd: rio_kernel::Fd) {
        let cfg = &self.mt.cfg;
        let op = self.cur.as_ref().expect("awaiting an fd implies an op");
        let data = MemTest::payload(cfg, op);
        match op {
            Op::Create { .. } => {
                self.queue.push_back(SyscallOp::Write { fd, data });
                if cfg.fsync_every_write {
                    self.queue.push_back(SyscallOp::Fsync(fd));
                }
                self.queue.push_back(SyscallOp::Close(fd));
            }
            Op::Rewrite { .. } => {
                self.queue.push_back(SyscallOp::Pwrite {
                    fd,
                    offset: 0,
                    data,
                });
                if cfg.fsync_every_write {
                    self.queue.push_back(SyscallOp::Fsync(fd));
                }
                self.queue.push_back(SyscallOp::Close(fd));
            }
            Op::Read { .. } => {
                // Whole-file read: the kernel clamps to the inode size.
                self.queue.push_back(SyscallOp::Pread {
                    fd,
                    offset: 0,
                    len: 1 << 32,
                });
                self.queue.push_back(SyscallOp::Close(fd));
            }
            Op::Delete { .. } | Op::MkToggle { .. } | Op::RmToggle { .. } => {
                unreachable!("single-syscall ops never await an fd")
            }
        }
    }
}

impl PreemptClient for PreemptMemTest {
    fn next_op(&mut self, prev: Option<&SyscallRet>) -> Option<SyscallOp> {
        if self.failed {
            return None;
        }
        if self.cur.is_some() {
            let Some(prev) = prev else {
                // A micro-op failed benignly mid-logical-op. The kernel
                // may hold a half-applied op now; the model does not.
                self.failed = true;
                return None;
            };
            if self.await_fd {
                let SyscallRet::Fd(fd) = prev else {
                    self.failed = true;
                    return None;
                };
                self.await_fd = false;
                self.enqueue_with_fd(*fd);
            }
            if let Some(op) = self.queue.pop_front() {
                return Some(op);
            }
            // All micro-ops done: the logical op completed.
            let op = self.cur.take().expect("checked above");
            MemTest::apply_to_model(
                &self.mt.cfg,
                &op,
                &mut self.mt.model,
                &mut self.mt.total_bytes,
            );
            self.mt.ops_done += 1;
            self.mt.in_flight = None;
        }
        if self.mt.ops_done >= self.target_ops {
            return None;
        }
        let op = MemTest::decide(
            &self.mt.cfg,
            self.mt.ops_done,
            &self.mt.model,
            self.mt.total_bytes,
        );
        self.mt.in_flight = Some(op.target().to_owned());
        let first = match &op {
            Op::Create { path, .. } => {
                self.await_fd = true;
                SyscallOp::Create(path.clone())
            }
            Op::Rewrite { path, .. } | Op::Read { path } => {
                self.await_fd = true;
                SyscallOp::Open(path.clone())
            }
            Op::Delete { path } => SyscallOp::Unlink(path.clone()),
            Op::MkToggle { path } => SyscallOp::Mkdir(path.clone()),
            Op::RmToggle { path } => SyscallOp::Rmdir(path.clone()),
        };
        self.cur = Some(op);
        Some(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_core::RioMode;
    use rio_kernel::{KernelConfig, PanicReason, Policy};

    fn kernel() -> Kernel {
        Kernel::mkfs_and_mount(&KernelConfig::small(Policy::rio(RioMode::Unprotected))).unwrap()
    }

    #[test]
    fn hundred_ops_run_clean_and_verify() {
        let mut k = kernel();
        let mut mt = MemTest::new(MemTestConfig::small(42));
        mt.setup(&mut k).unwrap();
        assert_eq!(mt.run(&mut k, 100).unwrap(), 100);
        assert_eq!(mt.ops_done(), 100);
        let report = mt.model().verify(&mut k, None).unwrap();
        assert!(!report.is_corrupt(), "live system matches model: {report:?}");
        assert!(report.files_ok > 0);
        assert_eq!(MemTest::check_static(&mut k, 42).unwrap(), 0);
    }

    #[test]
    fn replay_matches_live_model_at_any_point() {
        let mut k = kernel();
        let cfg = MemTestConfig::small(7);
        let mut mt = MemTest::new(cfg.clone());
        mt.setup(&mut k).unwrap();
        mt.run(&mut k, 75).unwrap();
        let (replayed, _next) = MemTest::replay(&cfg, 75);
        assert_eq!(replayed.files, mt.model().files);
        // Live model also tracks toggle dirs.
        assert_eq!(replayed.dirs, mt.model().dirs);
    }

    #[test]
    fn replay_predicts_next_target() {
        let mut k = kernel();
        let cfg = MemTestConfig::small(9);
        let mut mt = MemTest::new(cfg.clone());
        mt.setup(&mut k).unwrap();
        mt.run(&mut k, 30).unwrap();
        let (_, predicted) = MemTest::replay(&cfg, 30);
        // Execute op 30 for real and compare its in-flight target by
        // crashing mid-step: crash the kernel first so step fails.
        k.crash_now(PanicReason::Watchdog);
        let _ = mt.step(&mut k);
        assert_eq!(mt.in_flight().unwrap(), predicted);
        assert_eq!(mt.ops_done(), 30, "failed op not counted");
    }

    #[test]
    fn different_seeds_differ() {
        let (m1, _) = MemTest::replay(&MemTestConfig::small(1), 50);
        let (m2, _) = MemTest::replay(&MemTestConfig::small(2), 50);
        assert_ne!(m1.files, m2.files);
    }

    #[test]
    fn set_size_stays_bounded() {
        let cfg = MemTestConfig {
            max_set_bytes: 200_000,
            ..MemTestConfig::small(3)
        };
        let (model, _) = MemTest::replay(&cfg, 2_000);
        let total: usize = model.files.values().map(|v| v.len()).sum();
        // Deletes kick in above the budget; allow one max-file of overshoot
        // headroom.
        assert!(
            total < 200_000 + cfg.max_file_bytes * 2,
            "set grew to {total}"
        );
    }

    fn scale_cfg(c: usize) -> MemTestConfig {
        MemTestConfig {
            root: format!("/m{c}"),
            max_set_bytes: 96 * 1024,
            max_file_bytes: 8 * 1024,
            ..MemTestConfig::small(1000 + c as u64)
        }
    }

    #[test]
    fn preemptive_memtest_matches_run_to_completion() {
        // Same seed, same logical op count: the preemptive decomposition
        // and the classic `MemTest::run` drive one syscall sequencer, so
        // they must land on the same model and the same *machine* — the
        // disk image, the kernel's and the disk's counters, and every
        // page of memory outside the kernel stack (where one activation
        // record differs by design: `file_contents` preads exactly the
        // file's size, the client asks for 4 GB and lets the kernel clamp
        // it) — at the same simulated instant. The instant needs a run
        // that never sleeps on the disk (a deferred sleep overlaps the
        // rest of its phase's CPU time, a blocking one does not): under
        // Rio that is every op until the 65th inode opens the inode
        // table's second block, so 50 ops, not more.
        const OPS: u64 = 50;
        let mut classic = kernel();
        let mut mt = MemTest::new(MemTestConfig::small(42));
        mt.setup(&mut classic).unwrap();
        let slept = classic.machine.clock.disk_wait();
        mt.run(&mut classic, OPS).unwrap();
        assert_eq!(classic.machine.clock.disk_wait(), slept, "the blocking run slept");

        let mut preempted = kernel();
        let mut pm = PreemptMemTest::new(MemTestConfig::small(42), OPS);
        pm.setup_skeleton(&mut preempted).unwrap();
        MemTest::setup_static(&mut preempted, 42).unwrap();
        let mut clients: [&mut dyn PreemptClient; 1] = [&mut pm];
        let trace = rio_kernel::run_preemptive(&mut preempted, &mut clients, 0, true).unwrap();
        assert_eq!(trace.idle_hops, 0, "the scheduled run slept");
        assert!(!pm.failed(), "fault-free run must not fail");
        assert_eq!(pm.ops_done(), OPS);

        assert_eq!(mt.model().files, pm.memtest().model().files);
        assert_eq!(mt.model().dirs, pm.memtest().model().dirs);
        let (ma, mb) = (classic.machine.bus.mem(), preempted.machine.bus.mem());
        let stack = ma.layout().stack;
        for pn in (0..ma.len() / rio_mem::PAGE_SIZE as u64).map(rio_mem::PageNum) {
            if !stack.contains(pn.base()) {
                assert!(ma.page(pn) == mb.page(pn), "memory differs in page {pn:?}");
            }
        }
        let (da, db) = (&classic.machine.disk, &preempted.machine.disk);
        for block in 0..da.num_blocks() {
            assert!(da.peek(block) == db.peek(block), "disk differs in block {block}");
        }
        assert_eq!(da.stats(), db.stats());
        assert_eq!(classic.stats(), preempted.stats());
        assert_eq!(classic.machine.clock.now(), preempted.machine.clock.now());

        for (k, model) in [(&mut classic, mt.model()), (&mut preempted, pm.memtest().model())] {
            let report = model.verify(k, None).unwrap();
            assert!(!report.is_corrupt(), "{report:?}");
        }
    }

    #[test]
    fn preemptive_multi_client_matches_serialized_memtest() {
        // The refactor's core property at workload scale: interleaving N
        // fault-free memTest clients (contending for Fs/Ubc, yielding
        // mid-syscall) must reach the same final disk and registry state
        // as running the same scripts one client at a time.
        let final_state = |interleaved: bool| {
            let mut k = kernel();
            let mut pms: Vec<PreemptMemTest> =
                (0..4).map(|c| PreemptMemTest::new(scale_cfg(c), 40)).collect();
            MemTest::setup_static(&mut k, 7).unwrap();
            for pm in &mut pms {
                pm.setup_skeleton(&mut k).unwrap();
            }
            if interleaved {
                rio_kernel::run_preemptive(&mut k, &mut rio_kernel::client_refs(&mut pms), 11, true)
                    .unwrap();
            } else {
                for pm in &mut pms {
                    let mut clients: [&mut dyn PreemptClient; 1] = [pm];
                    rio_kernel::run_preemptive(&mut k, &mut clients, 11, true).unwrap();
                }
            }
            let mut contents = Vec::new();
            for pm in &pms {
                assert!(!pm.failed());
                assert_eq!(pm.ops_done(), 40);
                let report = pm.memtest().model().verify(&mut k, None).unwrap();
                assert!(!report.is_corrupt(), "{report:?}");
                for (path, data) in &pm.memtest().model().files {
                    contents.push((path.clone(), data.clone()));
                }
            }
            assert_eq!(MemTest::check_static(&mut k, 7).unwrap(), 0);
            contents
        };
        assert_eq!(final_state(true), final_state(false));
    }

    #[test]
    fn write_through_variant_fsyncs() {
        let mut k = Kernel::mkfs_and_mount(&KernelConfig::small(
            rio_kernel::Policy::disk_write_through(),
        ))
        .unwrap();
        let mut mt = MemTest::new(MemTestConfig::small_write_through(5));
        mt.setup(&mut k).unwrap();
        mt.run(&mut k, 20).unwrap();
        assert!(k.machine.disk.stats().writes > 0);
    }
}
