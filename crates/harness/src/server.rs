//! The open-loop tail-latency study behind `results_server.txt`.
//!
//! Runs the [`rio_workloads::server`] open-loop file server over a grid
//! of client counts × storage systems and reports p50/p99/p999 simulated
//! latency per op class (read / write / commit). Where the scale exhibit
//! measured throughput under closed-loop load, this one asks the
//! production question the ROADMAP's north-star poses: when requests
//! arrive on their own clock — Poisson with bursty phases, Zipf key skew
//! — does Rio hold the latency *tail* flat where write-through's
//! synchronous commits make it collapse?
//!
//! Every cell runs on a freshly formatted machine (Table 2 discipline)
//! and is deterministic in `(seed, cell)`; [`rio_faults::map_grid`]
//! spreads the cells over the campaign engine's worker pool, so output
//! is byte-identical at any `RIO_THREADS`. Latencies come from
//! [`rio_obs::Histogram`], whose log-linear buckets bound percentile
//! error at ≤ 1/16 — tight enough that a p999 headline means something.

use crate::ascii;
use rio_baselines::{memfs, rio_with_protection, rio_without_protection, ufs_default, ufs_write_write};
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
    /// Open-loop requests per client.
    pub requests_per_client: usize,
}

impl ServerGrid {
    /// The committed-artifact grid: clients {64, 256, 1024}, five
    /// systems, 16 requests per client.
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

/// One (system, clients) measurement: per-class latency histograms.
#[derive(Debug, Clone)]
pub struct ServerCell {
    /// System name.
    pub system: &'static str,
    /// Concurrent client connections.
    pub clients: usize,
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
    /// All cells, grid-ordered (clients-major, then system).
    pub cells: Vec<ServerCell>,
    /// The grid that produced them.
    pub grid: ServerGrid,
}

const SYSTEMS: [&str; 5] = [
    "memfs",
    "Rio (protected)",
    "Rio (no protection)",
    "UFS write-through",
    "UFS default",
];

fn policy_for(system: &str) -> Policy {
    match system {
        "memfs" => memfs(),
        "Rio (protected)" => rio_with_protection(),
        "Rio (no protection)" => rio_without_protection(),
        "UFS write-through" => ufs_write_write(),
        "UFS default" => ufs_default(),
        other => panic!("unknown system {other}"),
    }
}

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
        let rio = self.cell("Rio (protected)", clients).commit.percentile(0.999);
        let wt = self
            .cell("UFS write-through", clients)
            .commit
            .percentile(0.999);
        wt as f64 / rio.max(1) as f64
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
}

fn grid_points(grid: &ServerGrid) -> Vec<(&'static str, usize)> {
    let mut points = Vec::new();
    for &clients in &grid.clients {
        for system in SYSTEMS {
            points.push((system, clients));
        }
    }
    points
}

fn run_cell(grid: &ServerGrid, system: &'static str, clients: usize) -> ServerCell {
    let policy = policy_for(system);
    // The scale exhibit's machine on a 4-device stripe, so the two
    // studies compose.
    let mut k = crate::scale::fresh_kernel(&policy, 4);
    let cfg = ServerConfig {
        requests_per_client: grid.requests_per_client,
        ..ServerConfig::small(grid.seed, clients)
    };
    let report = Server::new(cfg).run(&mut k).expect("server workload");
    ServerCell {
        system,
        clients,
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
    let cells = rio_faults::map_grid(&grid_points(grid), threads, |&(system, clients)| {
        run_cell(grid, system, clients)
    });
    ServerGridReport {
        cells,
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
            let cell = report.cell(system, clients);
            for (class, hist) in class_rows(cell) {
                rows.push(vec![
                    clients.to_string(),
                    system.to_owned(),
                    class.to_owned(),
                    hist.count().to_string(),
                    hist.percentile(0.50).to_string(),
                    hist.percentile(0.99).to_string(),
                    hist.percentile(0.999).to_string(),
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
    out.push('\n');
    let c_max = *report.grid.clients.iter().max().expect("non-empty");
    let rio = report.cell("Rio (protected)", c_max);
    let wt = report.cell("UFS write-through", c_max);
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
    out
}

/// Machine-readable form of the report (committed as `BENCH_server.json`).
pub fn server_json(report: &ServerGridReport) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"server\",\n  \"cells\": [\n");
    for (i, c) in report.cells.iter().enumerate() {
        let sep = if i + 1 == report.cells.len() { "" } else { "," };
        let mut classes = String::new();
        for (j, (class, hist)) in class_rows(c).iter().enumerate() {
            let csep = if j == 2 { "" } else { ", " };
            classes.push_str(&format!(
                "\"{class}\": {{\"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}}}{csep}",
                hist.count(),
                hist.percentile(0.50),
                hist.percentile(0.99),
                hist.percentile(0.999),
            ));
        }
        out.push_str(&format!(
            "    {{\"system\": \"{}\", \"clients\": {}, \"sim_us\": {}, \"requests\": {}, \
             \"idle_hops\": {}, \"requests_per_sec\": {:.3}, {classes}}}{sep}\n",
            json_escape(c.system),
            c.clients,
            c.total.as_micros(),
            c.requests,
            c.idle_hops,
            c.requests_per_sec(),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_runs_and_rio_tail_wins() {
        let report = run_server(&ServerGrid::tiny(3), 1);
        assert_eq!(report.cells.len(), 2 * SYSTEMS.len());
        for cell in &report.cells {
            assert_eq!(
                cell.requests,
                cell.clients as u64 * report.grid.requests_per_client as u64,
                "{} at {} clients must complete every request",
                cell.system,
                cell.clients
            );
        }
        report.assert_rio_tail_wins();
        let text = render_server(&report);
        assert!(text.contains("p999"));
        let json = server_json(&report);
        assert!(json.contains("\"benchmark\": \"server\""));
        assert!(json.contains("\"commit\""));
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
