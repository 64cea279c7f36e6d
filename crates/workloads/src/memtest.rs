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
//!
//! Each op is written out once as a [`SyscallScript`] (`create` → `write`
//! → `close`, `open` → `pread` → `close`, `unlink`, …). The same script
//! runs on the blocking clock ([`MemTest::step`], the Table 1 campaign)
//! or one syscall per scheduler pick ([`MemTest`] as a [`PreemptClient`],
//! the multi-client campaign), so the two drive the kernel identically.

use crate::datagen;
use crate::model::ModelFs;
use rio_kernel::{
    Fd, Kernel, KernelError, OpRef, PreemptClient, SyscallOp, SyscallRet, SyscallScript,
};
use std::sync::{Arc, Mutex};

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

/// One op of a [`Plan`]: what [`Plan::decide`] chose, and for a `Create`
/// / `Rewrite` the target file's contents once the op has completed.
/// Its payload is those contents' first `len` bytes: a write of at least
/// the file's length replaces it, a shorter one overwrites a prefix.
#[derive(Debug)]
struct PlannedOp {
    op: Op,
    contents: Option<Arc<Vec<u8>>>,
}

impl PlannedOp {
    /// The bytes a `Create` / `Rewrite` writes; empty for every other op.
    fn payload(&self) -> &[u8] {
        match (&self.op, &self.contents) {
            (Op::Create { len, .. } | Op::Rewrite { len, .. }, Some(c)) => &c[..*len],
            _ => &[],
        }
    }

    /// Applies the completed op to `model`, sharing its contents.
    fn apply(&self, model: &mut ModelFs) {
        match &self.op {
            Op::Create { path, .. } => {
                let contents = self.contents.clone().expect("a create has contents");
                model.files.insert(path.clone(), contents);
            }
            Op::Rewrite { path, .. } => {
                let contents = self.contents.clone().expect("a rewrite has contents");
                *model.files.get_mut(path).expect("rewrite target exists") = contents;
            }
            Op::Read { .. } => {}
            Op::Delete { path } => {
                model.files.remove(path).expect("delete target exists");
            }
            Op::MkToggle { path } => {
                model.dirs.insert(path.clone());
            }
            Op::RmToggle { path } => {
                model.dirs.remove(path);
            }
        }
    }

    /// `op` with the payload bound: lent for [`Kernel::syscall`].
    fn lend<'a>(&'a self, op: &'a SyscallOp) -> OpRef<'a> {
        match op.as_op_ref() {
            SyscallOp::Write { fd, .. } => SyscallOp::Write {
                fd,
                data: self.payload(),
            },
            SyscallOp::Pwrite { fd, offset, .. } => SyscallOp::Pwrite {
                fd,
                offset,
                data: self.payload(),
            },
            op => op,
        }
    }
}

/// The decisions of one op stream, made once: the model after the last
/// planned op, the byte budget it has used, and every op planned so far.
#[derive(Debug)]
struct Plan {
    model: ModelFs,
    total_bytes: u64,
    ops: Vec<Arc<PlannedOp>>,
}

impl Plan {
    /// Nothing planned yet: the model holds the directory skeleton.
    fn new(cfg: &MemTestConfig) -> Plan {
        let mut model = ModelFs::new();
        model.dirs.insert(cfg.root.clone());
        for d in 0..cfg.num_dirs {
            model.dirs.insert(format!("{}/dir{d}", cfg.root));
        }
        Plan {
            model,
            total_bytes: 0,
            ops: Vec::new(),
        }
    }

    /// Decides op `index` against the model — shared by planning and
    /// replay, which is what makes reconstruction exact.
    fn decide(&self, cfg: &MemTestConfig, index: u64) -> Op {
        let r = datagen::length(cfg.seed, index.wrapping_mul(3), 0, 99) as u64;
        let files = &self.model.files;
        let nth = |pick: usize| files.keys().nth(pick).expect("pick in range").clone();
        let over_budget = self.total_bytes > cfg.max_set_bytes;

        // Toggle-directory traffic: 6% of ops.
        if (94..100).contains(&r) {
            let t = datagen::length(
                cfg.seed,
                index.wrapping_mul(5) + 1,
                0,
                cfg.num_toggle_dirs - 1,
            );
            let path = format!("{}/toggle{t}", cfg.root);
            return if self.model.dirs.contains(&path) {
                Op::RmToggle { path }
            } else {
                Op::MkToggle { path }
            };
        }
        // Deletes: 15% normally; dominate when over budget.
        let delete_band = if over_budget { 70 } else { 15 };
        if r < delete_band && !files.is_empty() {
            let pick = datagen::length(cfg.seed, index.wrapping_mul(7) + 2, 0, files.len() - 1);
            return Op::Delete { path: nth(pick) };
        }
        // Reads: next 15%.
        if r < delete_band + 15 && !files.is_empty() {
            let pick = datagen::length(cfg.seed, index.wrapping_mul(11) + 3, 0, files.len() - 1);
            return Op::Read { path: nth(pick) };
        }
        // Rewrites: next 30% (if anything exists).
        if r < delete_band + 45 && !files.is_empty() {
            let pick = datagen::length(cfg.seed, index.wrapping_mul(13) + 4, 0, files.len() - 1);
            let len = datagen::length(cfg.seed, index.wrapping_mul(17) + 5, 1, cfg.max_file_bytes);
            return Op::Rewrite {
                path: nth(pick),
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

    /// Decides op `index`, generates its payload — one `datagen::bytes`,
    /// whose `Arc` the model shares — and applies it to the model.
    fn advance(&mut self, cfg: &MemTestConfig, index: u64) -> PlannedOp {
        let op = self.decide(cfg, index);
        let contents = match &op {
            Op::Create { len, tag, .. } => {
                self.total_bytes += *len as u64;
                Some(Arc::new(datagen::bytes(cfg.seed, *tag, *len)))
            }
            Op::Rewrite { path, len, tag } => {
                let data = datagen::bytes(cfg.seed, *tag, *len);
                let old = self
                    .model
                    .files
                    .get_mut(path)
                    .expect("rewrite target exists");
                if data.len() >= old.len() {
                    self.total_bytes += (data.len() - old.len()) as u64;
                    Some(Arc::new(data))
                } else {
                    Arc::make_mut(old)[..data.len()].copy_from_slice(&data);
                    Some(Arc::clone(old))
                }
            }
            Op::Delete { path } => {
                self.total_bytes -= self.model.files[path].len() as u64;
                None
            }
            Op::Read { .. } | Op::MkToggle { .. } | Op::RmToggle { .. } => None,
        };
        let planned = PlannedOp { op, contents };
        planned.apply(&mut self.model);
        planned
    }
}

/// The running workload.
///
/// `Clone` is the workload half of the crash campaign's checkpoint-fork
/// engine: the cursor (model file system, `ops_done`, the op in flight and
/// its unissued syscalls) is owned data, so cloning a warmed `MemTest`
/// alongside a cloned [`Kernel`] freezes the whole steady state. Each
/// campaign trial then forks that pair and resumes from the cursor — no
/// re-warmup. The op stream itself is a **plan** every clone shares: op
/// `i`, its payload and its target's contents after it are decided once,
/// by whichever clone reaches op `i` first, and never change once written.
/// Because every op is a pure function of `(seed, op index, model state)`,
/// whoever plans an op plans the same one, and a fork behaves
/// byte-for-byte like a workload that ran from scratch to the same point.
/// The plan lives as long as its last holder — a checkpoint and its forks
/// — and keeps every op it planned: as many payloads as the furthest
/// clone has run ops, which a crash trial bounds at warm-up plus watchdog.
///
/// The model is applied only when the *whole* op has completed, and
/// [`MemTest::ops_done`] counts whole ops — so a crash that lands with
/// the op's syscalls half issued (or one syscall half executed, under the
/// scheduler) leaves [`MemTest::replay`] exact, and
/// [`MemTest::in_flight`] names the interrupted op's target.
#[derive(Debug, Clone)]
pub struct MemTest {
    cfg: MemTestConfig,
    plan: Arc<Mutex<Plan>>,
    model: ModelFs,
    ops_done: u64,
    /// The op in flight, from decision to the return of its last syscall.
    cur: Option<Arc<PlannedOp>>,
    /// The in-flight op's syscalls not yet issued. A `write` / `pwrite`
    /// carries no bytes here: its payload is bound when it is taken.
    script: SyscallScript,
    /// As a scheduled client: a syscall failed benignly and retired it.
    failed: bool,
}

impl MemTest {
    /// A fresh memTest (call [`MemTest::setup`] before stepping).
    pub fn new(cfg: MemTestConfig) -> Self {
        MemTest {
            plan: Arc::new(Mutex::new(Plan::new(&cfg))),
            cfg,
            model: ModelFs::new(),
            ops_done: 0,
            cur: None,
            script: SyscallScript::default(),
            failed: false,
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
    /// it, if any.
    pub fn in_flight(&self) -> Option<&str> {
        self.cur.as_ref().map(|p| p.op.target())
    }

    /// Whether a syscall failed benignly and retired the scheduled client.
    pub fn failed(&self) -> bool {
        self.failed
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

    /// Op `index` of the shared plan, planning it (and any before it)
    /// first if no clone has reached it yet.
    fn planned(&self, index: u64) -> Arc<PlannedOp> {
        let mut plan = self.plan.lock().expect("no planner panicked");
        while plan.ops.len() as u64 <= index {
            let next = plan.ops.len() as u64;
            let planned = plan.advance(&self.cfg, next);
            plan.ops.push(Arc::new(planned));
        }
        Arc::clone(&plan.ops[index as usize])
    }

    /// Takes the next op from the plan and writes its syscalls — whatever
    /// was left of an op that failed is dropped. A file is read whole: the
    /// `pread` asks for exactly the bytes the model holds.
    fn begin(&mut self) {
        let planned = self.planned(self.ops_done);
        let fd = Fd::LAST_OPENED;
        let (first, io) = match &planned.op {
            Op::Create { path, .. } => (
                SyscallOp::Create(path.clone()),
                Some(SyscallOp::Write {
                    fd,
                    data: Vec::new(),
                }),
            ),
            Op::Rewrite { path, .. } => (
                SyscallOp::Open(path.clone()),
                Some(SyscallOp::Pwrite {
                    fd,
                    offset: 0,
                    data: Vec::new(),
                }),
            ),
            Op::Read { path } => (
                SyscallOp::Open(path.clone()),
                Some(SyscallOp::Pread {
                    fd,
                    offset: 0,
                    len: self.model.files[path].len(),
                }),
            ),
            Op::Delete { path } => (SyscallOp::Unlink(path.clone()), None),
            Op::MkToggle { path } => (SyscallOp::Mkdir(path.clone()), None),
            Op::RmToggle { path } => (SyscallOp::Rmdir(path.clone()), None),
        };
        let s = &mut self.script;
        s.clear();
        s.push(first);
        if let Some(io) = io {
            let writes = !matches!(io, SyscallOp::Pread { .. });
            s.push(io);
            if writes && self.cfg.fsync_every_write {
                s.push(SyscallOp::Fsync(fd));
            }
            s.push(SyscallOp::Close(fd));
        }
        self.cur = Some(planned);
    }

    /// The in-flight op's last syscall returned: the op completed.
    fn complete(&mut self) {
        let planned = self.cur.take().expect("an op is in flight");
        planned.apply(&mut self.model);
        self.ops_done += 1;
    }

    /// The next syscall as the scheduler parks it: owning its arguments,
    /// the payload copied from the plan.
    fn take_owned(&mut self) -> Option<SyscallOp> {
        let mut op = self.script.pop()?;
        if let SyscallOp::Write { data, .. } | SyscallOp::Pwrite { data, .. } = &mut op {
            let planned = self.cur.as_deref().expect("an op is in flight");
            data.extend_from_slice(planned.payload());
        }
        Some(op)
    }

    /// Executes one operation against the kernel — its syscalls in order,
    /// each to completion — updating the model on success.
    ///
    /// # Errors
    ///
    /// A crash ([`KernelError::Panic`] / [`KernelError::Crashed`]) leaves
    /// [`MemTest::in_flight`] naming the interrupted target, exactly like
    /// the status file surviving the real machine's crash.
    pub fn step(&mut self, k: &mut Kernel) -> Result<(), KernelError> {
        self.begin();
        let planned = self.cur.as_deref().expect("begun");
        while let Some(op) = self.script.pop() {
            // The payload is lent from the plan.
            let ret = k.syscall(planned.lend(&op))?;
            self.script.note(&ret);
        }
        self.complete();
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
        let mut plan = Plan::new(cfg);
        for i in 0..ops {
            plan.advance(cfg, i);
        }
        let next = plan.decide(cfg, ops);
        (plan.model, next.target().to_owned())
    }
}

/// Tag base for the static comparison files.
const STATIC_TAG: u64 = 0xABCD_0000;

/// memTest as one client of the preemptive scheduler: the same scripts
/// [`MemTest::step`] runs, issued one syscall per pick, so a crash can
/// land with this client's syscall half executed and its locks held. A
/// syscall that fails benignly retires the client ([`MemTest::failed`]);
/// its op never completed, so the model was never updated. Give each
/// client its own root, call [`MemTest::setup_skeleton`] per client and
/// [`MemTest::setup_static`] once before scheduling.
impl PreemptClient for MemTest {
    fn next_op(&mut self, prev: Option<&SyscallRet>) -> Option<SyscallOp> {
        if self.failed {
            return None;
        }
        if self.cur.is_some() {
            let Some(prev) = prev else {
                self.failed = true;
                return None;
            };
            self.script.note(prev);
            if let Some(op) = self.take_owned() {
                return Some(op);
            }
            self.complete();
        }
        self.begin();
        self.take_owned()
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
        assert!(
            !report.is_corrupt(),
            "live system matches model: {report:?}"
        );
        assert!(report.files_ok > 0);
        assert_eq!(MemTest::check_static(&mut k, 42).unwrap(), 0);
    }

    /// Table 1 under load's client shape: a set budget of three files,
    /// so deletes dominate, on two directories.
    fn scale_campaign_cfg() -> MemTestConfig {
        MemTestConfig {
            root: "/m0".to_owned(),
            max_set_bytes: 24 * 1024,
            max_file_bytes: 8 * 1024,
            num_dirs: 2,
            num_toggle_dirs: 2,
            ..MemTestConfig::small(11)
        }
    }

    #[test]
    fn replay_matches_live_model_at_any_point() {
        let cfgs = [
            MemTestConfig::small(7),
            MemTestConfig::small(1996),
            MemTestConfig::small_write_through(2026),
            scale_campaign_cfg(),
        ];
        for cfg in cfgs {
            let mut k = kernel();
            let mut mt = MemTest::new(cfg.clone());
            mt.setup(&mut k).unwrap();
            for n in 0..=300 {
                if n > 0 {
                    mt.step(&mut k).unwrap();
                }
                let (replayed, _next) = MemTest::replay(&cfg, n);
                assert_eq!(replayed.files, mt.model().files, "seed {} at {n}", cfg.seed);
                // Live model also tracks toggle dirs.
                assert_eq!(replayed.dirs, mt.model().dirs, "seed {} at {n}", cfg.seed);
            }
        }
    }

    /// Takes `mt`'s next op and completes it without a kernel: the
    /// syscalls it issues, payload bound as `step` lends it, owned.
    fn issue(mt: &mut MemTest) -> Vec<SyscallOp> {
        mt.begin();
        let planned = Arc::clone(mt.cur.as_ref().unwrap());
        let mut issued = Vec::new();
        while let Some(op) = mt.script.pop() {
            issued.push(match planned.lend(&op) {
                SyscallOp::Write { fd, data } => SyscallOp::Write {
                    fd,
                    data: data.to_vec(),
                },
                SyscallOp::Pwrite { fd, offset, data } => SyscallOp::Pwrite {
                    fd,
                    offset,
                    data: data.to_vec(),
                },
                _ => op,
            });
        }
        mt.complete();
        issued
    }

    /// The planned ops' decisions and contents, in order.
    fn plan_of(mt: &MemTest) -> Vec<(Op, Option<Vec<u8>>)> {
        let plan = mt.plan.lock().unwrap();
        let ops = plan.ops.iter();
        ops.map(|p| (p.op.clone(), p.contents.as_deref().cloned()))
            .collect()
    }

    #[test]
    fn a_fork_that_extends_a_shared_plan_issues_a_fresh_memtests_syscalls() {
        const WARMUP: u64 = 200;
        const RUN: u64 = 400;
        for cfg in [MemTestConfig::small(1996), scale_campaign_cfg()] {
            let mut checkpoint = MemTest::new(cfg.clone());
            let mut fresh = MemTest::new(cfg.clone());
            for _ in 0..WARMUP {
                assert_eq!(issue(&mut checkpoint), issue(&mut fresh));
            }
            let expected: Vec<(Vec<SyscallOp>, ModelFs)> = (WARMUP..WARMUP + RUN)
                .map(|index| {
                    let issued = issue(&mut fresh);
                    let op = fresh.plan.lock().unwrap().ops[index as usize].op.clone();
                    if let Op::Create { len, tag, .. } | Op::Rewrite { len, tag, .. } = op {
                        let payload = datagen::bytes(cfg.seed, tag, len);
                        assert!(
                            matches!(&issued[1], SyscallOp::Write { data, .. }
                                | SyscallOp::Pwrite { data, .. } if *data == payload),
                            "op {index}: {:?}",
                            issued[1]
                        );
                    }
                    (issued, fresh.model().clone())
                })
                .collect();
            // `first` plans every op past the warm-up; `second`, forked
            // from the same checkpoint, finds them planned.
            let (mut first, mut second) = (checkpoint.clone(), checkpoint.clone());
            for fork in [&mut first, &mut second] {
                for (index, (issued, model)) in (WARMUP..).zip(&expected) {
                    assert_eq!(issue(fork), *issued, "op {index}");
                    assert_eq!(fork.model(), model, "op {index}");
                }
            }
            assert!(Arc::ptr_eq(&first.plan, &second.plan));
            assert!(!Arc::ptr_eq(&first.plan, &fresh.plan));
            assert_eq!(plan_of(&second).len() as u64, WARMUP + RUN, "planned once");
            assert_eq!(plan_of(&second), plan_of(&fresh));
            assert_eq!(checkpoint.ops_done(), WARMUP, "the checkpoint never moved");
        }
    }

    #[test]
    fn two_threads_extending_one_plan_build_identical_plans() {
        const OPS: usize = 300;
        let cfg = MemTestConfig::small(2026);
        let mut alone = MemTest::new(cfg.clone());
        let expected: Vec<Vec<SyscallOp>> = (0..OPS).map(|_| issue(&mut alone)).collect();
        for _ in 0..4 {
            let shared = MemTest::new(cfg.clone());
            // Both threads reach every op together: one plans it while
            // the other waits on the plan's lock, then reads it.
            let barrier = std::sync::Barrier::new(2);
            let issued: Vec<Vec<Vec<SyscallOp>>> = std::thread::scope(|s| {
                let threads: Vec<_> = (0..2)
                    .map(|_| {
                        let (mut fork, barrier) = (shared.clone(), &barrier);
                        s.spawn(move || {
                            let op = |_| {
                                barrier.wait();
                                issue(&mut fork)
                            };
                            (0..OPS).map(op).collect()
                        })
                    })
                    .collect();
                threads.into_iter().map(|t| t.join().unwrap()).collect()
            });
            for run in &issued {
                assert!(*run == expected, "a thread issued another stream");
            }
            assert_eq!(plan_of(&shared), plan_of(&alone));
        }
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

    /// memTest as a scheduled client that retires once `.1` ops are done:
    /// the op it would begin past that is never issued.
    struct Limited<'a>(&'a mut MemTest, u64);

    impl PreemptClient for Limited<'_> {
        fn next_op(&mut self, prev: Option<&SyscallRet>) -> Option<SyscallOp> {
            let op = self.0.next_op(prev);
            op.filter(|_| self.0.ops_done() < self.1)
        }
    }

    /// The same memTest stepped on the blocking clock and run as the one
    /// client of a scheduler, `ops` ops each, on two kernels from `boot`.
    fn blocking_and_scheduled(
        boot: impl Fn() -> Kernel,
        cfg: &MemTestConfig,
        ops: u64,
    ) -> [(Kernel, MemTest); 2] {
        let mut blocking = (boot(), MemTest::new(cfg.clone()));
        blocking.1.setup(&mut blocking.0).unwrap();
        blocking.1.run(&mut blocking.0, ops).unwrap();

        let mut scheduled = (boot(), MemTest::new(cfg.clone()));
        scheduled.1.setup(&mut scheduled.0).unwrap();
        let mut clients: [&mut dyn PreemptClient; 1] = [&mut Limited(&mut scheduled.1, ops)];
        rio_kernel::run_preemptive(&mut scheduled.0, &mut clients, 0, true).unwrap();
        assert!(!scheduled.1.failed(), "fault-free run must not fail");
        assert_eq!(scheduled.1.ops_done(), ops);
        [blocking, scheduled]
    }

    #[test]
    fn blocking_and_scheduled_memtest_leave_the_same_machine() {
        // One client, one script: stepped on the blocking clock or issued
        // one syscall per scheduler pick, memTest must land on the same
        // model and the same *machine* — every page of memory, the kernel
        // stack's activation records included, the disk image and every
        // counter — at the same simulated instant. The instant needs a run
        // that never sleeps on the disk (a deferred sleep overlaps the
        // rest of its phase's CPU time, a blocking one does not): under
        // Rio that is every op until the 65th inode opens the inode
        // table's second block, so 50 ops, not more.
        const OPS: u64 = 50;
        let cfg = MemTestConfig::small(42);
        let slept = {
            let mut k = kernel();
            MemTest::new(cfg.clone()).setup(&mut k).unwrap();
            k.machine.clock.disk_wait()
        };
        let [(mut bk, bm), (mut sk, sm)] = blocking_and_scheduled(kernel, &cfg, OPS);
        assert_eq!(
            bk.machine.clock.disk_wait(),
            slept,
            "the blocking run slept"
        );
        assert_eq!(bm.model().files, sm.model().files);
        assert_eq!(bm.model().dirs, sm.model().dirs);
        let (ma, mb) = (bk.machine.bus.mem(), sk.machine.bus.mem());
        for pn in (0..ma.len() / rio_mem::PAGE_SIZE as u64).map(rio_mem::PageNum) {
            assert!(ma.page(pn) == mb.page(pn), "memory differs in page {pn:?}");
        }
        let (da, db) = (&bk.machine.disk, &sk.machine.disk);
        for block in 0..da.num_blocks() {
            assert!(
                da.peek(block) == db.peek(block),
                "disk differs in block {block}"
            );
        }
        assert_eq!(da.stats(), db.stats());
        assert_eq!(bk.stats(), sk.stats());
        assert_eq!(bk.machine.bus.stats(), sk.machine.bus.stats());
        assert_eq!(bk.machine.clock.now(), sk.machine.clock.now());

        for (k, model) in [(&mut bk, bm.model()), (&mut sk, sm.model())] {
            let report = model.verify(k, None).unwrap();
            assert!(!report.is_corrupt(), "{report:?}");
        }
    }

    #[test]
    fn blocking_and_scheduled_memtest_issue_the_same_syscalls_past_the_first_sleep() {
        // Past the first disk sleep the two clocks part (and with them the
        // mtimes stamped from them), but the syscalls are the script's:
        // same model, same counters, same disk traffic — and write-through
        // sleeps on every fsync.
        let wt =
            || Kernel::mkfs_and_mount(&KernelConfig::small(Policy::disk_write_through())).unwrap();
        let [(bk, bm), (sk, sm)] =
            blocking_and_scheduled(wt, &MemTestConfig::small_write_through(5), 120);
        assert!(bk.stats().sync_waits > 0, "write-through must sleep");
        assert_eq!(bm.model().files, sm.model().files);
        assert_eq!(bk.stats(), sk.stats());
        assert_eq!(bk.machine.disk.stats(), sk.machine.disk.stats());
    }

    #[test]
    fn preemptive_multi_client_matches_serialized_memtest() {
        // The refactor's core property at workload scale: interleaving N
        // fault-free memTest clients (contending for Fs/Ubc, yielding
        // mid-syscall) must reach the same final disk and registry state
        // as running the same scripts one client at a time.
        let final_state = |interleaved: bool| {
            let mut k = kernel();
            let mut pms: Vec<MemTest> = (0..4).map(|c| MemTest::new(scale_cfg(c))).collect();
            MemTest::setup_static(&mut k, 7).unwrap();
            for pm in &mut pms {
                pm.setup_skeleton(&mut k).unwrap();
            }
            let mut fleet: Vec<Limited> = pms.iter_mut().map(|pm| Limited(pm, 40)).collect();
            if interleaved {
                let mut clients = rio_kernel::client_refs(&mut fleet);
                rio_kernel::run_preemptive(&mut k, &mut clients, 11, true).unwrap();
            } else {
                for client in &mut fleet {
                    let mut clients: [&mut dyn PreemptClient; 1] = [client];
                    rio_kernel::run_preemptive(&mut k, &mut clients, 11, true).unwrap();
                }
            }
            let mut contents = Vec::new();
            for pm in &pms {
                assert!(!pm.failed());
                assert_eq!(pm.ops_done(), 40);
                let report = pm.model().verify(&mut k, None).unwrap();
                assert!(!report.is_corrupt(), "{report:?}");
                for (path, data) in &pm.model().files {
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
