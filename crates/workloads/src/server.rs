//! The multi-connection file-server workload behind `results_server.txt`.
//!
//! It asks the paper's Sdet question (§4) of a server: what latency does
//! a request see — the p99/p999 tail especially — and how many requests
//! per second does the machine serve, when every reliability-induced
//! synchronous write stalls a client? Each of N clients is an independent
//! connection issuing requests at seeded arrival times — a Poisson
//! process whose rate is modulated by deterministic bursty phases —
//! against a shared population of key files with Zipf hot/cold skew. A
//! request is a short syscall chain (`open` → `pread`/`pwrite` →
//! optional `fsync` → `close`) driven through
//! [`rio_kernel::PreemptSched`], so requests block mid-syscall, contend
//! for real kernel locks, and overlap disk waits exactly as the
//! preemptive kernel schedules them. With a mean inter-arrival time of
//! zero the same fleet is closed-loop: each connection issues its next
//! request when its last one completes, which measures capacity.
//!
//! Latency is measured from the request's *scheduled arrival* to the
//! completion of its final syscall (including trailing fsync drain), so
//! a client that falls behind accumulates queueing delay — the open-loop
//! property that exposes tail collapse. Each connection logs its
//! completed requests' class and latency; when the fleet is done the run
//! records every logged latency once into one [`rio_obs::Histogram`] per
//! class (log-linear buckets, ≤ 1/16 relative error — see the obs crate
//! docs), so a run holds three histograms however many connections it has.

use crate::datagen;
use rio_det::{derive_seed, derive_seed3, DetRng};
use rio_disk::SimTime;
use rio_kernel::{
    client_refs, Fd, Kernel, KernelError, PreemptClient, SyscallOp, SyscallRet, SyscallScript,
};
use rio_obs::Histogram;
use std::sync::Arc;

/// Zipf skew exponent for key popularity (1.0–1.3 is web-like).
const ZIPF_S: f64 = 1.1;
/// Length of one burst phase, µs.
const BURST_PHASE_US: u64 = 500_000;
/// Percentage of phases that are bursts.
const BURST_DUTY_PCT: u64 = 30;
/// Percentage of requests that are reads.
const READ_PCT: u64 = 60;
/// Percentage of requests that are plain writes (the remainder are
/// commits: write + `fsync`).
const WRITE_PCT: u64 = 30;
const _: () = assert!(READ_PCT + WRITE_PCT <= 100, "op mix exceeds 100%");

/// Server-workload parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Seed (drives arrivals, op mix, key skew, and the scheduler rotor).
    pub seed: u64,
    /// Root directory for the key population.
    pub root: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Open-loop requests per client.
    pub requests_per_client: usize,
    /// Pre-created key files shared by every client.
    pub keys: usize,
    /// Bytes per key file (requests read/write within this).
    pub key_bytes: usize,
    /// Mean per-client inter-arrival time at rate multiplier 1, µs.
    ///
    /// Zero makes the fleet closed-loop: the arrivals are `base + 1, 2,
    /// …, n µs`, so every arrival after the first has passed by the time
    /// its predecessor completes, and the scheduler issues it then. A
    /// request's latency then measures backlog since the run began, not
    /// service; the run's wall time measures capacity.
    pub mean_interarrival_us: u64,
    /// Arrival-rate multiplier inside a burst phase.
    pub burst_mult: f64,
    /// Bytes transferred per request.
    pub io_bytes: usize,
}

impl ServerConfig {
    /// Bench-grid default: 16 requests/client against 128 × 8 KB keys,
    /// 60/30/10 read/write/commit, 4 s mean inter-arrival per connection,
    /// 8× shorter for a draw made in a burst phase (30% of phases).
    ///
    /// The inter-arrival time is chosen against the machine's request-service
    /// capacity, which `results_server.txt`'s closed-loop rung records at
    /// 64 clients: Rio 879 req/s on one device or four, write-through 105
    /// req/s on one and 290 on the 4-device stripe the open-loop grid
    /// runs on. At 1024 clients the arrivals stay under Rio's capacity
    /// while their bursts overrun write-through's, which is exactly the
    /// regime where an open-loop tail separates the systems instead of
    /// everyone drowning alike.
    pub fn small(seed: u64, clients: usize) -> Self {
        ServerConfig {
            seed,
            root: "/srv".to_owned(),
            clients,
            requests_per_client: 16,
            keys: 128,
            key_bytes: 8 * 1024,
            mean_interarrival_us: 4_000_000,
            burst_mult: 8.0,
            io_bytes: 1024,
        }
    }
}

/// Result of a run: per-class latency histograms plus scheduler
/// accounting.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Wall time from the first arrival to the last completion.
    pub total: SimTime,
    /// Requests completed (= clients × requests_per_client).
    pub requests: u64,
    /// Latency of read requests, µs.
    pub read: Histogram,
    /// Latency of plain-write requests, µs.
    pub write: Histogram,
    /// Latency of commit requests (write + fsync), µs.
    pub commit: Histogram,
    /// Scheduler idle hops (whole fleet blocked on disk).
    pub idle_hops: u64,
    /// Scheduler quanta executed.
    pub quanta: u64,
}

impl ServerReport {
    /// Completed requests per simulated second.
    pub fn requests_per_sec(&self) -> f64 {
        let us = self.total.as_micros().max(1);
        self.requests as f64 * 1e6 / us as f64
    }
}

/// A request's class; its discriminant indexes the run's histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    Read = 0,
    Write = 1,
    Commit = 2,
}

/// The key population every connection draws from, built once per run.
struct Keys {
    /// `{root}/k{i}` for key `i`.
    paths: Vec<String>,
    /// Zipf CDF over the keys' popularity ranks.
    cdf: Vec<f64>,
}

struct ServerClient {
    uid: usize,
    seed: u64,
    rng: DetRng,
    /// Precomputed absolute arrival times, one per request.
    arrivals: Vec<SimTime>,
    keys: Arc<Keys>,
    key_bytes: usize,
    io_bytes: usize,
    req: usize,
    /// The request in flight: its class and scheduled arrival.
    cur: Option<(ReqKind, SimTime)>,
    /// The in-flight request's syscalls not yet issued.
    script: SyscallScript,
    /// Each completed request's class and latency (µs), in completion order.
    done: Vec<(ReqKind, u64)>,
}

/// Stream tags for seed derivation (arbitrary distinct constants).
const STREAM_ARRIVALS: u64 = 0x5253_5256_4152_5256; // "RSRVARRV"
const STREAM_OPMIX: u64 = 0x5253_5256_4F50_4D58; // "RSRVOPMX"
const STREAM_BURST: u64 = 0x5253_5256_4255_5253; // "RSRVBURS"

impl ServerClient {
    fn new(cfg: &ServerConfig, uid: usize, base: SimTime, keys: Arc<Keys>) -> Self {
        ServerClient {
            uid,
            seed: cfg.seed,
            rng: DetRng::seed_from_u64(derive_seed3(cfg.seed, STREAM_OPMIX, uid as u64, 0)),
            arrivals: arrivals(cfg, uid, base),
            keys,
            key_bytes: cfg.key_bytes,
            io_bytes: cfg.io_bytes,
            req: 0,
            cur: None,
            script: SyscallScript::default(),
            done: Vec::with_capacity(cfg.requests_per_client),
        }
    }

    fn draw_kind(&mut self) -> ReqKind {
        let r = self.rng.gen_range(0..100u64);
        if r < READ_PCT {
            ReqKind::Read
        } else if r < READ_PCT + WRITE_PCT {
            ReqKind::Write
        } else {
            ReqKind::Commit
        }
    }

    fn draw_key(&mut self) -> usize {
        let u = self.rng.gen_f64();
        self.keys.cdf.partition_point(|&c| c < u)
    }
}

impl PreemptClient for ServerClient {
    fn next_op(&mut self, prev: Option<&SyscallRet>) -> Option<SyscallOp> {
        if self.cur.is_some() {
            self.script
                .note(prev.expect("server request ops must not fail"));
            return Some(self.script.pop().expect("a request ends in op_completed"));
        }
        let arrival = *self.arrivals.get(self.req)?;
        self.req += 1;
        let kind = self.draw_kind();
        let key = self.draw_key();
        let span = (self.key_bytes - self.io_bytes) as u64;
        let offset = self.rng.gen_range(0..=span);
        let fd = Fd::LAST_OPENED;
        self.script
            .push(SyscallOp::Open(self.keys.paths[key].clone()));
        self.script.push(match kind {
            ReqKind::Read => SyscallOp::Pread {
                fd,
                offset,
                len: self.io_bytes,
            },
            ReqKind::Write | ReqKind::Commit => {
                let tag = ((self.uid as u64) << 24) | self.req as u64;
                SyscallOp::Pwrite {
                    fd,
                    offset,
                    data: datagen::bytes(self.seed, tag, self.io_bytes),
                }
            }
        });
        if kind == ReqKind::Commit {
            self.script.push(SyscallOp::Fsync(fd));
        }
        self.script.push(SyscallOp::Close(fd));
        self.cur = Some((kind, arrival));
        self.script.pop()
    }

    fn next_op_at(&mut self) -> Option<SimTime> {
        if self.cur.is_some() {
            // Mid-request: the next syscall is ready immediately.
            None
        } else {
            // Between requests: parked until the next open-loop arrival.
            // A past arrival (the client fell behind) means ready now —
            // the backlog wait lands in the request's measured latency.
            self.arrivals.get(self.req).copied()
        }
    }

    fn op_completed(&mut self, _ret: &SyscallRet, at: SimTime) {
        // The request ends with its last syscall.
        if let (Some((kind, arrival)), true) = (self.cur, self.script.is_empty()) {
            self.cur = None;
            self.done
                .push((kind, at.saturating_sub(arrival).as_micros()));
        }
    }
}

/// Precomputed Poisson arrivals with bursty phase modulation: phase `p`
/// (a [`BURST_PHASE_US`] window) is a burst iff a pure function of
/// `(seed, p)` says so, and inter-arrival draws are exponential with the
/// phase's rate. Every client sees the same phase schedule but its own
/// arrival stream.
fn arrivals(cfg: &ServerConfig, uid: usize, base: SimTime) -> Vec<SimTime> {
    let mut rng = DetRng::seed_from_u64(derive_seed3(cfg.seed, STREAM_ARRIVALS, uid as u64, 0));
    let mut t_us = 0.0f64;
    (0..cfg.requests_per_client)
        .map(|_| {
            let phase = t_us as u64 / BURST_PHASE_US;
            let burst =
                derive_seed(derive_seed(cfg.seed, STREAM_BURST), phase) % 100 < BURST_DUTY_PCT;
            let mult = if burst { cfg.burst_mult } else { 1.0 };
            let u = rng.gen_f64();
            let dt = -(1.0 - u).ln() * cfg.mean_interarrival_us as f64 / mult;
            t_us += dt.max(1.0);
            base + SimTime::from_micros(t_us as u64)
        })
        .collect()
}

/// Normalized Zipf CDF over `keys` ranks with exponent [`ZIPF_S`].
fn zipf_cdf(keys: usize) -> Vec<f64> {
    let mut weights: Vec<f64> = (0..keys)
        .map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in &mut weights {
        acc += *w / total;
        *w = acc;
    }
    // Guard against floating-point shortfall at the top rank.
    if let Some(last) = weights.last_mut() {
        *last = 1.0;
    }
    weights
}

/// The workload runner.
#[derive(Debug, Clone)]
pub struct Server {
    cfg: ServerConfig,
}

impl Server {
    /// A runner for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `io_bytes > key_bytes`, or with no keys or no clients.
    pub fn new(cfg: ServerConfig) -> Self {
        assert!(cfg.io_bytes <= cfg.key_bytes, "io_bytes exceeds key size");
        assert!(cfg.keys > 0 && cfg.clients > 0);
        Server { cfg }
    }

    /// Runs the open-loop fleet to completion.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (request-level syscalls are expected to
    /// succeed — the key population is pre-created).
    pub fn run(&self, k: &mut Kernel) -> Result<ServerReport, KernelError> {
        let cfg = &self.cfg;
        // Key population: pre-created and fsynced so every policy starts
        // from a drained queue and no request ever creates a file.
        let keys = Arc::new(Keys {
            paths: (0..cfg.keys)
                .map(|i| format!("{}/k{i}", cfg.root))
                .collect(),
            cdf: zipf_cdf(cfg.keys),
        });
        k.mkdir(&cfg.root)?;
        for (i, path) in keys.paths.iter().enumerate() {
            let fd = k.create(path)?;
            let tag = 0x4B45_5900 | i as u64; // "KEY"
            k.write(fd, &datagen::bytes(cfg.seed, tag, cfg.key_bytes))?;
            k.fsync(fd)?;
            k.close(fd)?;
        }
        let base = k.machine.clock.now();
        let mut clients: Vec<ServerClient> = (0..cfg.clients)
            .map(|uid| ServerClient::new(cfg, uid, base, Arc::clone(&keys)))
            .collect();
        let trace = rio_kernel::run_preemptive(k, &mut client_refs(&mut clients), cfg.seed, true)?;
        let mut hists: [Histogram; 3] = Default::default();
        for &(kind, us) in clients.iter().flat_map(|c| &c.done) {
            hists[kind as usize].record(us);
        }
        let [read, write, commit] = hists;
        Ok(ServerReport {
            total: k.machine.clock.now().saturating_sub(base),
            requests: read.count() + write.count() + commit.count(),
            read,
            write,
            commit,
            idle_hops: trace.idle_hops,
            quanta: trace.quanta.len() as u64,
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

    fn tiny(seed: u64, clients: usize) -> ServerConfig {
        ServerConfig {
            requests_per_client: 6,
            keys: 16,
            key_bytes: 4096,
            io_bytes: 512,
            mean_interarrival_us: 1_000,
            ..ServerConfig::small(seed, clients)
        }
    }

    #[test]
    fn server_completes_every_request_and_is_deterministic() {
        let run = || {
            let mut k = kernel(Policy::rio(RioMode::Protected));
            let r = Server::new(tiny(3, 8)).run(&mut k).unwrap();
            let class = |h: &Histogram| (h.count(), h.sum(), h.max());
            (
                r.total,
                r.requests,
                class(&r.read),
                class(&r.write),
                class(&r.commit),
                r.read.percentile(0.99),
                r.commit.percentile(0.999),
            )
        };
        let first = run();
        assert_eq!(first, run(), "same seed, same tail");
        assert_eq!(first.1, 8 * 6, "every request completes");
        // Each class's count, sum and max (µs): a request recorded twice,
        // in the wrong class or from the wrong start moves one of them.
        assert_eq!(first.2, (31, 813_227, 50_113), "read");
        assert_eq!(first.3, (14, 392_822, 45_471), "write");
        assert_eq!(first.4, (3, 99_540, 47_635), "commit");
    }

    #[test]
    fn arrivals_are_monotone_and_open_loop() {
        let cfg = ServerConfig::small(7, 4);
        let a = arrivals(&cfg, 0, SimTime::ZERO);
        assert_eq!(a.len(), cfg.requests_per_client);
        for w in a.windows(2) {
            assert!(w[0] <= w[1], "arrivals must be monotone");
        }
        // Different clients get different streams.
        assert_ne!(a, arrivals(&cfg, 1, SimTime::ZERO));
    }

    #[test]
    fn zero_interarrival_is_closed_loop() {
        let closed = ServerConfig {
            mean_interarrival_us: 0,
            ..tiny(5, 1)
        };
        let base = SimTime::from_micros(1_000);
        let want: Vec<SimTime> = (1..=6).map(|i| base + SimTime::from_micros(i)).collect();
        assert_eq!(arrivals(&closed, 0, base), want);
        // The same requests, open-loop and spaced far apart: each one's
        // latency is its service time alone.
        let open = ServerConfig {
            mean_interarrival_us: 1_000_000,
            burst_mult: 1.0,
            ..closed.clone()
        };
        let run = |cfg: ServerConfig| {
            let mut k = kernel(Policy::rio(RioMode::Protected));
            Server::new(cfg).run(&mut k).unwrap()
        };
        let (closed, open) = (run(closed), run(open));
        let service: u64 = [open.read, open.write, open.commit]
            .iter()
            .map(Histogram::sum)
            .sum();
        // Rio never waits on the disk, so one client idles only to its
        // first arrival, 1 µs in, and then runs its requests back to back.
        assert_eq!(closed.idle_hops, 1);
        assert_eq!(open.idle_hops, 6);
        assert_eq!(closed.total.as_micros(), 1 + service);
    }

    #[test]
    fn zipf_cdf_is_monotone_and_skewed() {
        let cdf = zipf_cdf(64);
        assert_eq!(cdf.len(), 64);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*cdf.last().unwrap(), 1.0);
        // Rank 0 is hot: it alone carries > 15% of the mass.
        assert!(cdf[0] > 0.15, "zipf head too light: {}", cdf[0]);
    }

    #[test]
    fn commit_latency_dominates_read_latency_on_write_through() {
        let mut k = kernel(Policy::disk_write_through());
        let r = Server::new(tiny(11, 8)).run(&mut k).unwrap();
        assert!(r.commit.count() > 0);
        assert!(
            r.commit.percentile(0.5) >= r.read.percentile(0.5),
            "synchronous commits cannot be faster than cached reads"
        );
    }
}
