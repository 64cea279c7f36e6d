//! `server-rio` / `server-ufs`: the open-loop file server — 1024
//! simulated connections (inside the single-threaded simulator, not host
//! threads), 60/30/10 read/write/commit, Zipf 1.1 keys, bursty Poisson
//! arrivals — on the 4-device machine, once under Rio with protection
//! and once under default UFS.
//!
//! Why two: both exercise `PreemptSched`, `SyscallCont` yields and the
//! lock queues, but under Rio `disk.writes` = 0, so a disk-plane change
//! must show no movement on `server-rio`; under UFS fsync and the update
//! daemon hit the stripe beside reads, so C-LOOK, write-back, throttle
//! and locks held across I/O decide the latency.
//!
//! # Windows, not one long run
//!
//! Every connection shares the burst-phase schedule, which is a function
//! of the traffic seed, and a burst multiplies the fleet rate by 8. At
//! any rung whose burst rate exceeds the machine's capacity, tail
//! latency is decided by how many consecutive burst phases that seed
//! happens to hold: measured at HEAD, commit p99 at 128 req/s under Rio
//! swings from 3 ms to 560 ms between seeds. A benchmark must give the
//! same answer for any seed, so the traffic is cut into **windows** —
//! `ServerConfig::small`'s 16 requests per connection under a sub-seed
//! of its own — and:
//!
//! * latency is quoted at the **reference rung, 32 req/s**, where even a
//!   burst (256 req/s) stays below either system's capacity, as the
//!   **median over [`REFERENCE_WINDOWS`] windows** — the latency of a
//!   typical eight-minute window;
//! * capacity is the throughput of the **saturation rung**, where every
//!   request is due at once, so its makespan is work / capacity whatever
//!   the burst schedule;
//! * the rungs between are one window each and give the ladder's
//!   `sim_max_rate_rps` — the highest rung whose three p99s stay within
//!   100 ms. Above the reference rung that answer depends on the seed's
//!   burst schedule; it is reported, and compared between two commits on
//!   one seed, but carries no bound.
//!
//! Latency counts from each request's scheduled arrival, so backlog is
//! in the number; the generator runs on the simulated clock and is never
//! late.

use crate::spans::SpanLog;
use crate::stats::median;
use crate::workload::{
    add_all, kernel_counts, layer_from_counts, mkfs, table2_config, Counts, RepOut, Summary,
    TraceCtx, Workload,
};
use rio_det::derive_seed3;
use rio_kernel::{Kernel, Policy};
use rio_obs::Histogram;
use rio_workloads::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::time::Instant;

pub const CLIENTS: usize = 1024;
/// Nominal fleet rates of the ladder, req/s (clients / mean
/// inter-arrival at burst multiplier 1).
pub const LADDER_RPS: [u64; 7] = [32, 64, 128, 192, 256, 320, 384];
/// The rung the latency metrics are quoted at: its 8x bursts reach 256
/// req/s, below the capacity of both systems (UFS saturates near 450).
pub const REFERENCE_RPS: u64 = 32;
pub const REFERENCE_WINDOWS: usize = 5;
/// The saturation rung: every request of a connection is due at once
/// (1 µs apart, the generator's minimum), so every connection is
/// backlogged from start to end and the makespan is work / capacity
/// whatever the burst schedule. Measured at HEAD, a merely high rate
/// (4096 req/s) still lets the schedule show: throughput then swings
/// 400–490 req/s between seeds under UFS, against 397–415 here.
pub const SATURATION_RPS: u64 = CLIENTS as u64 * 1_000_000;
/// Requests per connection in a saturation window (twice the ladder's:
/// the longer drain averages the convoy dynamics).
pub const SATURATION_REQUESTS: usize = 32;
/// Latency limit on every class's p99 for a rung to count as sustained.
pub const LIMIT_US: u64 = 100_000;
pub const SATURATION_WINDOWS: usize = 2;
const CLASSES: [&str; 3] = ["read", "write", "commit"];
/// Stream tag separating window seeds from every other use of the seed.
const WINDOW_STREAM: u64 = 0x5045_5246_5752_4E44; // "PERFWRND"

/// One variant: a window of traffic at a rung.
struct Window {
    /// Nominal fleet rate, req/s.
    rps: u64,
    /// Which of the rung's windows (selects the sub-seed).
    index: u64,
    requests_per_client: usize,
}

pub struct ServerWl {
    seed: u64,
    /// Freshly formatted 4-device machine under the workload's policy.
    fresh: Kernel,
    /// The ladder from the reference rung up, then the saturation rung.
    windows: Vec<Window>,
    /// Bytes a write or commit request hands to `pwrite`.
    io_bytes: u64,
}

impl ServerWl {
    pub fn prepare(policy: &Policy, seed: u64, quick: bool) -> Result<ServerWl, String> {
        let base = ServerConfig::small(seed, CLIENTS);
        let fresh = mkfs(&table2_config(policy, 4))?;
        // A dry run of the key population (a zero-request `Server::run`)
        // on a clone: it proves the machine holds the population before
        // anything is timed, and it puts into `setup_s` the one part of
        // `Server::run` that is preparation. Formatting alone takes
        // 0.3 ms, which against a relative bound is allocator noise.
        Server::new(ServerConfig {
            requests_per_client: 0,
            ..base.clone()
        })
        .run(&mut fresh.clone())
        .map_err(|e| format!("population dry run: {e:?}"))?;
        let windows = if quick {
            vec![Window {
                rps: REFERENCE_RPS,
                index: 0,
                requests_per_client: 2,
            }]
        } else {
            LADDER_RPS
                .into_iter()
                .chain([SATURATION_RPS])
                .flat_map(|rps| {
                    let (n, requests_per_client) = match rps {
                        REFERENCE_RPS => (REFERENCE_WINDOWS, base.requests_per_client),
                        SATURATION_RPS => (SATURATION_WINDOWS, SATURATION_REQUESTS),
                        _ => (1, base.requests_per_client),
                    };
                    (0..n as u64).map(move |index| Window {
                        rps,
                        index,
                        requests_per_client,
                    })
                })
                .collect()
        };
        Ok(ServerWl {
            seed,
            fresh,
            windows,
            io_bytes: base.io_bytes as u64,
        })
    }

    fn config(&self, variant: usize, requests_per_client: usize) -> ServerConfig {
        let w = &self.windows[variant];
        ServerConfig {
            requests_per_client,
            mean_interarrival_us: CLIENTS as u64 * 1_000_000 / w.rps,
            ..ServerConfig::small(
                derive_seed3(self.seed, WINDOW_STREAM, w.rps, w.index),
                CLIENTS,
            )
        }
    }

    /// The variants that are windows of rung `rps` (empty when the rung
    /// is not run: quick mode has the reference rung only).
    fn variants_of_rung(&self, rps: u64) -> impl Iterator<Item = usize> + '_ {
        (0..self.windows.len()).filter(move |&i| self.windows[i].rps == rps)
    }

    /// The saturation rung's windows: where the scheduler, the locks and
    /// the disk queues are busiest, so the rung the counts, the spans
    /// and capacity are quoted at.
    fn saturation_variants(&self) -> Vec<usize> {
        let rung = if self.windows.iter().any(|w| w.rps == SATURATION_RPS) {
            SATURATION_RPS
        } else {
            REFERENCE_RPS
        };
        self.variants_of_rung(rung).collect()
    }
}

/// The `rio-obs` histogram promise the percentiles rest on: a reported
/// percentile is the low edge of the bucket holding the sample, at most
/// 1/16 below it and never above. Checked on the one sample whose true
/// value the histogram also exposes — the maximum.
fn histogram_self_check(class: &str, h: &Histogram) -> Result<(), String> {
    let (top, max) = (h.percentile(1.0), h.max());
    if h.count() > 0 && (top > max || max - top > top / 16) {
        return Err(format!(
            "{class} histogram self-check: p100 bucket {top} vs max {max} exceeds 1/16"
        ));
    }
    Ok(())
}

impl Workload for ServerWl {
    fn variants(&self) -> usize {
        self.windows.len()
    }

    fn trace_variant(&self) -> usize {
        self.saturation_variants()[0]
    }

    fn rep(&self, variant: usize, spans: &mut SpanLog) -> Result<RepOut, String> {
        let populate_started = Instant::now();
        if spans.enabled() {
            // `Server::run` populates the key files and then serves; a
            // zero-request run on its own clone is the population alone.
            let mut k = self.fresh.clone();
            spans
                .scope("workloads.span.populate", 0, |_| {
                    Server::new(self.config(variant, 0)).run(&mut k)
                })
                .map_err(|e| format!("populate: {e:?}"))?;
        }
        let trace_extra_s = populate_started.elapsed().as_secs_f64();
        let requests_per_client = self.windows[variant].requests_per_client;
        let cfg = self.config(variant, requests_per_client);
        let mut k = self.fresh.clone();
        let report = spans
            .scope("workloads.span.run", 0, |_| Server::new(cfg).run(&mut k))
            .map_err(|e| format!("server run: {e:?}"))?;

        let mut det: Counts = kernel_counts(&k);
        let attempted = (CLIENTS * requests_per_client) as u64;
        let mut writes = 0;
        for (class, h) in CLASSES
            .into_iter()
            .zip([&report.read, &report.write, &report.commit])
        {
            histogram_self_check(class, h)?;
            det.insert(format!("out.{class}_n"), h.count());
            det.insert(format!("out.{class}_p50_us"), h.percentile(0.5));
            det.insert(format!("out.{class}_p99_us"), h.percentile(0.99));
            det.insert(format!("out.{class}_sum_us"), h.sum());
            if class != "read" {
                writes += h.count();
            }
        }
        det.insert("out.user_bytes".into(), writes * self.io_bytes);
        det.insert("out.total_us".into(), report.total.as_micros());
        det.insert("kernel.sched_quanta".into(), report.quanta);
        det.insert("kernel.sched_idle_hops".into(), report.idle_hops);
        Ok(RepOut {
            ops: report.requests,
            timed_s: None,
            attempted,
            failed: attempted - report.requests.min(attempted),
            det,
            trace_extra_s,
            post_check: None,
        })
    }

    fn summarize(&self, outs: &[&RepOut]) -> Result<Summary, String> {
        let mut s = Summary::default();
        // Median over a rung's windows of one integer output.
        let window_median = |rps: u64, key: &str| {
            let v: Vec<f64> = self
                .variants_of_rung(rps)
                .map(|i| outs[i].det[key] as f64)
                .collect();
            median(&v)
        };
        let mean_latency = |rps: u64| {
            let v: Vec<f64> = self
                .variants_of_rung(rps)
                .map(|i| {
                    let d = &outs[i].det;
                    let sum: u64 = CLASSES.iter().map(|c| d[&format!("out.{c}_sum_us")]).sum();
                    sum as f64 / outs[i].ops as f64
                })
                .collect();
            median(&v)
        };

        let mut max_rate = 0;
        for rps in LADDER_RPS {
            if self.variants_of_rung(rps).next().is_none() {
                continue;
            }
            let p99: Vec<f64> = CLASSES
                .iter()
                .map(|c| window_median(rps, &format!("out.{c}_p99_us")))
                .collect();
            let worst = p99.iter().copied().fold(0.0, f64::max);
            let ok = worst <= LIMIT_US as f64;
            if ok {
                max_rate = max_rate.max(rps);
            }
            s.notes.push(format!(
                "rung {rps:>3} req/s: p99 read {:.0} write {:.0} commit {:.0} sim-us, mean {:.0} sim-us  {}",
                p99[0],
                p99[1],
                p99[2],
                mean_latency(rps),
                if ok { "sustained" } else { "over the 100 ms limit" }
            ));
        }
        s.layer
            .insert("workloads.sim_max_rate_rps".into(), max_rate as f64);

        for class in CLASSES {
            for pct in ["p50", "p99"] {
                s.layer.insert(
                    format!("workloads.sim_{class}_{pct}_us"),
                    window_median(REFERENCE_RPS, &format!("out.{class}_{pct}_us")),
                );
            }
            let n = window_median(REFERENCE_RPS, &format!("out.{class}_n"));
            let p99s: Vec<u64> = self
                .variants_of_rung(REFERENCE_RPS)
                .map(|i| outs[i].det[&format!("out.{class}_p99_us")])
                .collect();
            s.notes.push(format!(
                "{class}: n = {n:.0} per window at {REFERENCE_RPS} req/s; p99 by window {p99s:?} sim-us"
            ));
        }
        s.sim_us_per_op = mean_latency(REFERENCE_RPS);

        // The saturation rung: makespan = work / capacity.
        let sat = self.saturation_variants();
        let sat_us: u64 = sat.iter().map(|&i| outs[i].det["out.total_us"]).sum();
        let sat_ops: u64 = sat.iter().map(|&i| outs[i].ops).sum();
        s.sim_s = sat_us as f64 / 1e6;
        s.layer.insert(
            "workloads.sim_capacity_rps".into(),
            sat_ops as f64 / s.sim_s,
        );

        let mut counts = Counts::new();
        for &i in &sat {
            add_all(&mut counts, &outs[i].det);
        }
        layer_from_counts(&counts, counts["out.user_bytes"], &mut s.layer);
        Ok(s)
    }

    fn span_metrics(&self, ctx: &TraceCtx, out: &mut BTreeMap<String, f64>) {
        let (spans, session) = (ctx.spans, ctx.session);
        out.insert(
            "workloads.span.populate_ms".into(),
            spans.total_ms("workloads.span.populate"),
        );
        // `run` holds a population of its own; its serving time is the
        // span minus the population measured beside it.
        out.insert(
            "workloads.span.run_ms".into(),
            spans.total_ms("workloads.span.run") - spans.total_ms("workloads.span.populate"),
        );
        if let Some(h) = session.histogram("locks.wait_us") {
            out.insert("kernel.lock_wait_us_p50".into(), h.percentile(0.5) as f64);
            out.insert("kernel.lock_wait_us_p99".into(), h.percentile(0.99) as f64);
        }
        // One histogram per device on a striped disk; depth is sampled
        // at every submit.
        let mut depth = Histogram::default();
        for (name, h) in session.histograms() {
            if name.starts_with("disk.queue_depth") {
                depth.merge_from(h);
            }
        }
        if depth.count() > 0 {
            out.insert(
                "disk.queue_depth_mean".into(),
                depth.sum() as f64 / depth.count() as f64,
            );
            out.insert("disk.queue_depth_max".into(), depth.max() as f64);
        }
    }
}
