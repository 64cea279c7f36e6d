//! The multi-client study behind `results_server.txt`: the paper's Sdet
//! argument (§4) — every reliability-induced synchronous write stalls a
//! client — read off one workload twice.
//!
//! * **Open loop, for latency.** The [`rio_workloads::server`] file
//!   server over a grid of client counts × five storage systems, requests
//!   arriving on their own clock (Poisson with bursty phases, Zipf key
//!   skew), reported as p50/p99/p999 simulated latency per op class
//!   (read / write / commit): does Rio hold the *tail* flat where
//!   write-through's synchronous commits make it collapse?
//! * **Closed loop, for capacity.** The same server with
//!   `mean_interarrival_us: 0` — each connection issues its next request
//!   when its last one completes — at the grid's smallest client count,
//!   Rio vs write-through on 1 and 4 devices, reported as requests per
//!   simulated second. Its latencies measure backlog from t ≈ 0 and are
//!   not reported.
//!
//! Every cell runs on a freshly formatted machine (Table 2 discipline)
//! and is deterministic in `(seed, cell)`; [`rio_faults::map_grid`]
//! spreads the cells over the campaign engine's worker pool, so output
//! is byte-identical at any `RIO_THREADS`. Latencies come from
//! [`rio_obs::Histogram`], whose log-linear buckets bound percentile
//! error at ≤ 1/16 — tight enough that a p999 headline means something.

use crate::ascii;
use crate::table2::fresh_kernel;
use rio_baselines::{
    memfs, rio_with_protection, rio_without_protection, ufs_default, ufs_write_write,
};
use rio_disk::SimTime;
use rio_kernel::Policy;
use rio_obs::{json_escape, Histogram};
use rio_workloads::{Server, ServerConfig};

/// Grid parameters for a server run.
#[derive(Debug, Clone)]
pub struct ServerGrid {
    /// Workload seed.
    pub seed: u64,
    /// Client counts to sweep.
    pub clients: Vec<usize>,
    /// Requests per client, open-loop and on the capacity rung.
    pub requests_per_client: usize,
}

impl ServerGrid {
    /// The committed-artifact grid: clients {64, 256, 1024}, five
    /// systems, 16 requests per client; the capacity rung at 64 clients.
    pub fn small(seed: u64) -> Self {
        ServerGrid {
            seed,
            clients: vec![64, 256, 1024],
            requests_per_client: 16,
        }
    }

    /// A minimal grid for unit tests and the verify smoke.
    pub fn tiny(seed: u64) -> Self {
        ServerGrid {
            seed,
            clients: vec![8, 32],
            requests_per_client: 6,
        }
    }
}

/// One (system, clients, devices) measurement: per-class latency
/// histograms (meaningless on the capacity rung).
#[derive(Debug, Clone)]
pub struct ServerCell {
    /// System name.
    pub system: &'static str,
    /// Concurrent client connections.
    pub clients: usize,
    /// Striped devices.
    pub devices: usize,
    /// Wall time from first arrival to last completion.
    pub total: SimTime,
    /// Requests completed.
    pub requests: u64,
    /// Read-request latency, µs.
    pub read: Histogram,
    /// Plain-write latency, µs.
    pub write: Histogram,
    /// Commit (write+fsync) latency, µs.
    pub commit: Histogram,
    /// Scheduler idle hops.
    pub idle_hops: u64,
}

impl ServerCell {
    /// Completed requests per simulated second.
    pub fn requests_per_sec(&self) -> f64 {
        self.requests as f64 * 1e6 / self.total.as_micros().max(1) as f64
    }
}

/// The full grid report.
#[derive(Debug, Clone)]
pub struct ServerGridReport {
    /// The open-loop cells, grid-ordered (clients-major, then system).
    pub cells: Vec<ServerCell>,
    /// The closed-loop capacity rung (devices-major, then system).
    pub capacity: Vec<ServerCell>,
    /// The grid that produced them.
    pub grid: ServerGrid,
}

/// A storage system of the study: its label in the artifacts and the
/// constructor of its policy.
#[derive(Debug, Clone, Copy)]
struct System {
    label: &'static str,
    policy: fn() -> Policy,
}

const RIO: System = System {
    label: "Rio (protected)",
    policy: rio_with_protection,
};
const UNPROT: System = System {
    label: "Rio (no protection)",
    policy: rio_without_protection,
};
const WT: System = System {
    label: "UFS write-through",
    policy: ufs_write_write,
};
const SYSTEMS: [System; 5] = [
    System {
        label: "memfs",
        policy: memfs,
    },
    RIO,
    UNPROT,
    WT,
    System {
        label: "UFS default",
        policy: ufs_default,
    },
];

/// The open-loop grid's stripe.
const OPEN_DEVICES: usize = 4;
/// The capacity rung's device counts: one spindle and the open-loop stripe.
const CAPACITY_DEVICES: [usize; 2] = [1, OPEN_DEVICES];

impl ServerGridReport {
    fn cell(&self, system: &str, clients: usize) -> &ServerCell {
        self.cells
            .iter()
            .find(|c| c.system == system && c.clients == clients)
            .expect("cell present")
    }

    /// Write-through / Rio commit-p999 ratio at one client count — the
    /// headline number: how much longer the worst thousandth of commits
    /// waits when every commit is a synchronous disk write.
    pub fn p999_advantage(&self, clients: usize) -> f64 {
        let rio = self.cell(RIO.label, clients).commit.percentile(0.999);
        let wt = self.cell(WT.label, clients).commit.percentile(0.999);
        wt as f64 / rio.max(1) as f64
    }

    /// The capacity rung's cell for one system and device count.
    pub fn capacity_cell(&self, system: &str, devices: usize) -> &ServerCell {
        self.capacity
            .iter()
            .find(|c| c.system == system && c.devices == devices)
            .expect("capacity cell present")
    }

    /// Rio / write-through closed-loop requests per second on `devices`.
    pub fn capacity_ratio(&self, devices: usize) -> f64 {
        self.capacity_cell(RIO.label, devices).requests_per_sec()
            / self.capacity_cell(WT.label, devices).requests_per_sec()
    }

    /// Panics unless Rio's commit p999 beats write-through's at the
    /// largest client count — the acceptance bar for the artifact.
    pub fn assert_rio_tail_wins(&self) {
        let c = *self.grid.clients.iter().max().expect("non-empty");
        let adv = self.p999_advantage(c);
        assert!(
            adv > 1.0,
            "Rio commit p999 must beat write-through at {c} clients (got {adv:.2}x)"
        );
    }

    /// A cell's exact mean commit latency in µs (the histogram's sum over
    /// its count, not a bucketed percentile).
    fn commit_mean(&self, system: &str, clients: usize) -> f64 {
        let commit = &self.cell(system, clients).commit;
        commit.sum() as f64 / commit.count().max(1) as f64
    }

    /// Panics unless synchronous commits get "an order of magnitude"
    /// faster under Rio (§1, the conclusions): at every client count,
    /// write-through's mean commit is at least 8× Rio's.
    pub fn assert_rio_commits_an_order_faster(&self) {
        for &c in &self.grid.clients {
            let (wt, rio) = (
                self.commit_mean(WT.label, c),
                self.commit_mean(RIO.label, c),
            );
            assert!(
                wt >= 8.0 * rio,
                "write-through's mean commit must be >= 8x Rio's at {c} clients \
                 (got {:.2}x: {wt:.1} us vs {rio:.1} us)",
                wt / rio
            );
        }
    }

    /// Panics unless Rio's protection costs less than the 7 % that
    /// \[Sullivan91a\] measured on debit/credit (§6): at every client
    /// count, Rio's mean commit is under 1.07× Rio without protection's.
    pub fn assert_protection_beats_sullivan(&self) {
        for &c in &self.grid.clients {
            let (prot, unprot) = (
                self.commit_mean(RIO.label, c),
                self.commit_mean(UNPROT.label, c),
            );
            assert!(
                prot < 1.07 * unprot,
                "Rio's mean commit must be < 1.07x Rio without protection's at {c} clients \
                 (got {:.4}x: {prot:.1} us vs {unprot:.1} us)",
                prot / unprot
            );
        }
    }

    /// Panics unless the capacity rung carries both throughput claims:
    /// Rio serves more requests per second than write-through on every
    /// device count, and striping cuts write-through's time.
    pub fn assert_rio_capacity_wins(&self) {
        for d in CAPACITY_DEVICES {
            let r = self.capacity_ratio(d);
            assert!(
                r > 1.0,
                "Rio must out-serve write-through on {d} devices (got {r:.2}x)"
            );
        }
        let [one, many] = CAPACITY_DEVICES.map(|d| self.capacity_cell(WT.label, d).total);
        assert!(
            many < one,
            "striping must cut write-through's time ({one:?} on 1 device, {many:?} on {OPEN_DEVICES})"
        );
    }
}

/// The capacity rung runs at the grid's smallest client count.
fn capacity_clients(grid: &ServerGrid) -> usize {
    *grid.clients.iter().min().expect("non-empty")
}

/// One cell to run: a system at a client count on a device count, open
/// loop or closed.
#[derive(Debug, Clone, Copy)]
struct Point {
    system: System,
    clients: usize,
    devices: usize,
    closed: bool,
}

/// The open-loop cells, then the capacity rung.
fn grid_points(grid: &ServerGrid) -> Vec<Point> {
    let mut points = Vec::new();
    for &clients in &grid.clients {
        for system in SYSTEMS {
            points.push(Point {
                system,
                clients,
                devices: OPEN_DEVICES,
                closed: false,
            });
        }
    }
    let clients = capacity_clients(grid);
    for devices in CAPACITY_DEVICES {
        for system in [RIO, WT] {
            points.push(Point {
                system,
                clients,
                devices,
                closed: true,
            });
        }
    }
    points
}

fn run_cell(grid: &ServerGrid, p: &Point) -> ServerCell {
    let mut k = fresh_kernel(&(p.system.policy)(), p.devices);
    let mut cfg = ServerConfig {
        requests_per_client: grid.requests_per_client,
        ..ServerConfig::small(grid.seed, p.clients)
    };
    if p.closed {
        cfg.mean_interarrival_us = 0;
    }
    let report = Server::new(cfg).run(&mut k).expect("server workload");
    ServerCell {
        system: p.system.label,
        clients: p.clients,
        devices: p.devices,
        total: report.total,
        requests: report.requests,
        read: report.read,
        write: report.write,
        commit: report.commit,
        idle_hops: report.idle_hops,
    }
}

/// Runs the grid's independent cells over `threads` workers; the report
/// is identical at any thread count.
pub fn run_server(grid: &ServerGrid, threads: usize) -> ServerGridReport {
    let mut cells = rio_faults::map_grid(&grid_points(grid), threads, |p| run_cell(grid, p));
    let capacity = cells.split_off(grid.clients.len() * SYSTEMS.len());
    ServerGridReport {
        cells,
        capacity,
        grid: grid.clone(),
    }
}

fn class_rows(cell: &ServerCell) -> [(&'static str, &Histogram); 3] {
    [
        ("read", &cell.read),
        ("write", &cell.write),
        ("commit", &cell.commit),
    ]
}

/// A p99 / p999 cell, marked `*` when the class holds fewer than
/// 1/(1 − q) samples: the quantile is then its largest or second-largest
/// sample, not a tail estimate.
fn quantile_cell(hist: &Histogram, q: f64) -> String {
    let v = hist.percentile(q);
    if (hist.count() as f64) < (1.0 / (1.0 - q)).round() {
        format!("{v}*")
    } else {
        v.to_string()
    }
}

/// Renders the report as the committed text artifact.
pub fn render_server(report: &ServerGridReport) -> String {
    let mut rows = vec![vec![
        "Clients".to_owned(),
        "System".to_owned(),
        "Class".to_owned(),
        "Count".to_owned(),
        "p50 (us)".to_owned(),
        "p99 (us)".to_owned(),
        "p999 (us)".to_owned(),
        "req/s".to_owned(),
    ]];
    for &clients in &report.grid.clients {
        for system in SYSTEMS {
            let cell = report.cell(system.label, clients);
            for (class, hist) in class_rows(cell) {
                rows.push(vec![
                    clients.to_string(),
                    system.label.to_owned(),
                    class.to_owned(),
                    hist.count().to_string(),
                    hist.percentile(0.50).to_string(),
                    quantile_cell(hist, 0.99),
                    quantile_cell(hist, 0.999),
                    format!("{:.1}", cell.requests_per_sec()),
                ]);
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "Open-loop file server: {} requests/client, Poisson arrivals with bursty phases, \
         Zipf key skew, preemptive scheduler\n\
         Latency = scheduled arrival -> final syscall completion (queueing delay included); \
         log-linear histogram, percentile error <= 1/16\n\n",
        report.grid.requests_per_client
    ));
    out.push_str(&ascii::render(&rows));
    out.push_str(
        "* fewer than 1/(1-q) samples in the class (100 for p99, 1000 for p999): \
         the quantile is its largest or second-largest sample\n\n",
    );
    let c_max = *report.grid.clients.iter().max().expect("non-empty");
    let rio = report.cell(RIO.label, c_max);
    let wt = report.cell(WT.label, c_max);
    out.push_str(&format!(
        "Rio p999 advantage at {c_max} clients: commit {:.1}x (Rio {} us vs write-through {} us)\n",
        report.p999_advantage(c_max),
        rio.commit.percentile(0.999),
        wt.commit.percentile(0.999),
    ));
    out.push_str(&format!(
        "Rio holds the whole-request tail flat: read p999 {} us vs write-through {} us at {c_max} clients\n",
        rio.read.percentile(0.999),
        wt.read.percentile(0.999),
    ));
    out + &render_capacity(report)
}

/// The capacity rung: simulated seconds and requests per second only.
fn render_capacity(report: &ServerGridReport) -> String {
    let mut rows = vec![vec![
        "Devices".to_owned(),
        "Rio (s)".to_owned(),
        "WT (s)".to_owned(),
        "Rio req/s".to_owned(),
        "WT req/s".to_owned(),
        "Rio/WT".to_owned(),
    ]];
    for d in CAPACITY_DEVICES {
        let (rio, wt) = (
            report.capacity_cell(RIO.label, d),
            report.capacity_cell(WT.label, d),
        );
        rows.push(vec![
            d.to_string(),
            format!("{:.2}", rio.total.as_secs_f64()),
            format!("{:.2}", wt.total.as_secs_f64()),
            format!("{:.1}", rio.requests_per_sec()),
            format!("{:.1}", wt.requests_per_sec()),
            format!("{:.1}x", report.capacity_ratio(d)),
        ]);
    }
    let c = capacity_clients(&report.grid);
    let [d_min, d_max] = CAPACITY_DEVICES;
    let [wt_min, wt_max] =
        CAPACITY_DEVICES.map(|d| report.capacity_cell(WT.label, d).total.as_secs_f64());
    format!(
        "\nClosed-loop capacity: {c} clients x {} requests, each issued when the client's last one \
         completes (mean inter-arrival 0); latencies omitted, they measure backlog from t = 0\n\n\
         {}\n\
         Rio/WT capacity at {c} clients: {:.1}x on {d_min} device(s), {:.1}x on {d_max}\n\
         Striping {d_min}->{d_max} devices cuts write-through time at {c} clients: \
         {wt_min:.2}s -> {wt_max:.2}s\n",
        report.grid.requests_per_client,
        ascii::render(&rows),
        report.capacity_ratio(d_min),
        report.capacity_ratio(d_max),
    )
}

/// Machine-readable form of the report (committed as `BENCH_server.json`):
/// the open-loop cells with their per-class quantiles, then the capacity
/// rung's cells without.
pub fn server_json(report: &ServerGridReport) -> String {
    let open = report.cells.iter().map(|c| {
        let classes: Vec<String> = class_rows(c)
            .iter()
            .map(|(class, hist)| {
                format!(
                    "\"{class}\": {{\"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}}}",
                    hist.count(),
                    hist.percentile(0.50),
                    hist.percentile(0.99),
                    hist.percentile(0.999),
                )
            })
            .collect();
        format!(
            "    {{\"system\": \"{}\", \"clients\": {}, {}, {}}}",
            json_escape(c.system),
            c.clients,
            cell_totals_json(c),
            classes.join(", "),
        )
    });
    let capacity = report.capacity.iter().map(|c| {
        format!(
            "    {{\"system\": \"{}\", \"clients\": {}, \"devices\": {}, {}}}",
            json_escape(c.system),
            c.clients,
            c.devices,
            cell_totals_json(c),
        )
    });
    format!(
        "{{\n  \"benchmark\": \"server\",\n  \"cells\": [\n{}\n  ],\n  \"capacity\": [\n{}\n  ]\n}}\n",
        open.collect::<Vec<_>>().join(",\n"),
        capacity.collect::<Vec<_>>().join(",\n"),
    )
}

fn cell_totals_json(c: &ServerCell) -> String {
    format!(
        "\"sim_us\": {}, \"requests\": {}, \"idle_hops\": {}, \"requests_per_sec\": {:.3}",
        c.total.as_micros(),
        c.requests,
        c.idle_hops,
        c.requests_per_sec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_runs_and_rio_tail_wins() {
        let report = run_server(&ServerGrid::tiny(3), 1);
        assert_eq!(report.cells.len(), 2 * SYSTEMS.len());
        assert_eq!(report.capacity.len(), 2 * CAPACITY_DEVICES.len());
        for cell in report.cells.iter().chain(&report.capacity) {
            assert_eq!(
                cell.requests,
                cell.clients as u64 * report.grid.requests_per_client as u64,
                "{} at {} clients must complete every request",
                cell.system,
                cell.clients
            );
        }
        report.assert_rio_tail_wins();
        report.assert_rio_commits_an_order_faster();
        report.assert_protection_beats_sullivan();
        report.assert_rio_capacity_wins();
        let text = render_server(&report);
        assert!(text.contains("p999"));
        assert!(text.contains("Rio/WT capacity at 8 clients"), "{text}");
        let json = server_json(&report);
        assert!(json.contains("\"benchmark\": \"server\""));
        assert!(json.contains("\"commit\""));
        assert!(json.contains("\"capacity\": ["));
    }

    #[test]
    fn parallel_grid_matches_serial() {
        let grid = ServerGrid::tiny(7);
        let serial = render_server(&run_server(&grid, 1));
        let parallel = render_server(&run_server(&grid, 4));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn commit_tail_orders_systems_sanely() {
        // memfs commits are pure memory; write-through commits hit the
        // disk synchronously. The commit p999 must reflect that order.
        let report = run_server(&ServerGrid::tiny(11), 1);
        let c = *report.grid.clients.iter().max().unwrap();
        let mem = report.cell("memfs", c).commit.percentile(0.999);
        let wt = report.cell("UFS write-through", c).commit.percentile(0.999);
        assert!(
            mem <= wt,
            "memfs commit p999 ({mem}) must not exceed write-through ({wt})"
        );
    }
}
