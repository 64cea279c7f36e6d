//! The multi-client "server" workload behind `results_scale.txt`.
//!
//! The paper's Sdet exhibit is explicitly multi-user; this workload takes
//! that to server scale: N independent clients, each running an
//! Sdet-style operation mix (edit cycles, re-reads, log appends, cleanup,
//! listings) with a debit-credit twist — every `commit_every`-th log
//! append is a transaction commit and calls `fsync`. The clients run
//! against one shared kernel under the preemptive scheduler
//! ([`rio_kernel::run_preemptive`]), so a blocked client's disk wait
//! overlaps other clients' CPU time, and the whole interleaving is a pure
//! function of the seed.
//!
//! Each *operation* is a short script of syscalls (create → write →
//! close, open → pread → close, …) issued one at a time: a client gives
//! up the CPU wherever a syscall actually blocks, and again between
//! syscalls.

use crate::datagen;
use rio_disk::SimTime;
use rio_kernel::{
    client_refs, Fd, Kernel, KernelError, PreemptClient, SchedTrace, SyscallOp, SyscallRet,
    SyscallScript,
};
use std::cmp::Ordering;
use std::collections::VecDeque;

/// Scale-workload parameters.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Seed (drives both the op mix and the scheduler rotor).
    pub seed: u64,
    /// Root directory.
    pub root: String,
    /// Concurrent clients.
    pub clients: usize,
    /// Operations per client.
    pub ops_per_client: usize,
    /// Maximum bytes per created file.
    pub max_file_bytes: usize,
    /// Every Nth log append is a transaction commit (`fsync`).
    pub commit_every: u64,
}

impl ScaleConfig {
    /// Bench-grid default: 24 ops per client, 8 KB files, commit every
    /// 6th append.
    pub fn small(seed: u64, clients: usize) -> Self {
        ScaleConfig {
            seed,
            root: "/srv".to_owned(),
            clients,
            ops_per_client: 24,
            max_file_bytes: 8 * 1024,
            commit_every: 6,
        }
    }
}

/// Result of a run.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Wall time from setup to the last client finishing.
    pub total: SimTime,
    /// Operations executed across all clients.
    pub ops: u64,
    /// Transaction commits (`fsync` calls) across all clients.
    pub commits: u64,
    /// The scheduler's quantum trace.
    pub trace: SchedTrace,
}

impl ScaleReport {
    /// Throughput in operations per simulated second.
    pub fn ops_per_sec(&self) -> f64 {
        let us = self.total.as_micros().max(1);
        self.ops as f64 * 1e6 / us as f64
    }
}

struct Client {
    seed: u64,
    uid: usize,
    dir: String,
    /// Operations planned so far (one past `ops` once the log is closed).
    step: usize,
    ops: usize,
    max_file_bytes: usize,
    commit_every: u64,
    /// Live files, oldest first, with their sizes.
    files: VecDeque<(String, usize)>,
    next_file: u64,
    appends: u64,
    commits: u64,
    /// Syscalls of the current operation not yet issued.
    script: SyscallScript,
    /// The log, open from the first append to retirement.
    log: Option<Fd>,
    /// A syscall has been issued, so `next_op`'s `prev` is its result.
    issued: bool,
}

impl Client {
    fn new(cfg: &ScaleConfig, uid: usize) -> Self {
        let dir = format!("{}/c{uid}", cfg.root);
        Client {
            seed: cfg.seed,
            uid,
            script: [SyscallOp::Mkdir(dir.clone())].into_iter().collect(),
            dir,
            step: 0,
            ops: cfg.ops_per_client,
            max_file_bytes: cfg.max_file_bytes,
            commit_every: cfg.commit_every,
            files: VecDeque::new(),
            next_file: 0,
            appends: 0,
            commits: 0,
            log: None,
            issued: false,
        }
    }

    /// Queues the syscalls of operation number `self.step` (possibly
    /// none: a re-read or a delete with no file to act on).
    fn plan_op(&mut self) {
        let tag = (self.uid as u64) << 32 | self.step as u64;
        match datagen::length(self.seed, tag, 0, 99) {
            // Edit cycle: create + write a new file.
            0..=34 => {
                let name = format!("{}/s{}", self.dir, self.next_file);
                self.next_file += 1;
                let len = datagen::length(self.seed, tag ^ 0xA5, 64, self.max_file_bytes);
                let data = datagen::bytes(self.seed, tag, len);
                self.script.extend([
                    SyscallOp::Create(name.clone()),
                    SyscallOp::Write { fd: Fd::LAST_OPENED, data },
                    SyscallOp::Close(Fd::LAST_OPENED),
                ]);
                self.files.push_back((name, len));
            }
            // Re-read the newest file.
            35..=54 => {
                if let Some((name, len)) = self.files.back() {
                    self.script.extend([
                        SyscallOp::Open(name.clone()),
                        SyscallOp::Pread { fd: Fd::LAST_OPENED, offset: 0, len: *len },
                        SyscallOp::Close(Fd::LAST_OPENED),
                    ]);
                }
            }
            // Append to the log; periodically commit (debit-credit).
            55..=69 => {
                if self.appends == 0 {
                    self.script.push(SyscallOp::Create(format!("{}/log", self.dir)));
                }
                // Until its `create` has returned, the log is the
                // descriptor opened last.
                let fd = self.log.unwrap_or(Fd::LAST_OPENED);
                let len = datagen::length(self.seed, tag ^ 0x5A, 32, 512);
                let data = datagen::bytes(self.seed, tag ^ 0x11, len);
                self.script.push(SyscallOp::Write { fd, data });
                self.appends += 1;
                if self.appends.is_multiple_of(self.commit_every) {
                    self.script.push(SyscallOp::Fsync(fd));
                    self.commits += 1;
                }
            }
            // Delete the oldest file.
            70..=84 => {
                if let Some((name, _)) = self.files.pop_front() {
                    self.script.push(SyscallOp::Unlink(name));
                }
            }
            // Directory listing.
            _ => self.script.push(SyscallOp::Readdir(self.dir.clone())),
        }
    }
}

impl PreemptClient for Client {
    fn next_op(&mut self, prev: Option<&SyscallRet>) -> Option<SyscallOp> {
        // Every name is the client's own and every descriptor live.
        assert!(prev.is_some() || !self.issued, "{}: a syscall failed", self.dir);
        self.issued = true;
        if let Some(ret) = prev {
            self.script.note(ret);
            // The first append has been planned and its `create` is the
            // one that just returned.
            if matches!(ret, SyscallRet::Fd(_)) && self.appends > 0 && self.log.is_none() {
                self.log = self.script.last_opened();
            }
        }
        while self.script.is_empty() {
            match self.step.cmp(&self.ops) {
                Ordering::Less => self.plan_op(),
                // Last act: close the log, if one was ever opened.
                Ordering::Equal => self.script.extend(self.log.map(SyscallOp::Close)),
                Ordering::Greater => return None,
            }
            self.step += 1;
        }
        self.script.pop()
    }
}

/// The workload runner.
#[derive(Debug, Clone)]
pub struct Scale {
    cfg: ScaleConfig,
}

impl Scale {
    /// A runner for the given configuration.
    pub fn new(cfg: ScaleConfig) -> Self {
        Scale { cfg }
    }

    /// Runs the N scheduled clients to completion.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn run(&self, k: &mut Kernel) -> Result<ScaleReport, KernelError> {
        let t0 = k.machine.clock.now();
        k.mkdir(&self.cfg.root)?;
        let mut clients: Vec<Client> = (0..self.cfg.clients)
            .map(|uid| Client::new(&self.cfg, uid))
            .collect();
        let trace =
            rio_kernel::run_preemptive(k, &mut client_refs(&mut clients), self.cfg.seed, true)?;
        Ok(ScaleReport {
            total: k.machine.clock.now().saturating_sub(t0),
            ops: (self.cfg.clients * self.cfg.ops_per_client) as u64,
            commits: clients.iter().map(|c| c.commits).sum(),
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_core::RioMode;
    use rio_kernel::{KernelConfig, Policy};

    fn kernel(policy: Policy) -> Kernel {
        Kernel::mkfs_and_mount(&KernelConfig::small(policy)).unwrap()
    }

    #[test]
    fn scale_runs_all_clients_and_is_deterministic() {
        let run = || {
            let mut k = kernel(Policy::rio(RioMode::Protected));
            let r = Scale::new(ScaleConfig::small(3, 4)).run(&mut k).unwrap();
            (r.total, r.trace.quanta.clone(), r.commits)
        };
        let (total, quanta, commits) = run();
        assert_eq!((total, quanta.clone(), commits), run());
        assert!(total > SimTime::ZERO);
        // Every client appears in the schedule.
        for c in 0..4u32 {
            assert!(quanta.contains(&c), "client {c} never ran");
        }
    }

    #[test]
    fn rio_beats_write_through_at_scale() {
        let time_for = |policy: Policy| {
            let mut k = kernel(policy);
            Scale::new(ScaleConfig::small(5, 4)).run(&mut k).unwrap().total
        };
        let rio = time_for(Policy::rio(RioMode::Protected));
        let wt = time_for(Policy::disk_write_through());
        assert!(rio < wt, "rio {rio:?} should beat write-through {wt:?}");
    }

    #[test]
    fn commits_fsync_on_schedule() {
        let mut k = kernel(Policy::rio(RioMode::Protected));
        let cfg = ScaleConfig {
            ops_per_client: 60,
            ..ScaleConfig::small(9, 2)
        };
        let r = Scale::new(cfg).run(&mut k).unwrap();
        assert!(r.commits > 0, "60 ops per client must hit the commit path");
        assert_eq!(r.ops, 120);
    }
}
