//! The multi-client scale-out study behind `results_scale.txt`.
//!
//! Runs the [`rio_workloads::scale`] server workload over a grid of
//! client counts × device counts, Rio vs the write-through baseline, and
//! reports throughput (operations per simulated second). This is the
//! quantitative form of the paper's Sdet argument at server scale: every
//! reliability-induced synchronous disk write stalls a *client*, and
//! with many clients those stalls dominate — while Rio's memory-is-
//! permanent rule keeps every client CPU-bound regardless of scale.
//!
//! Every cell runs on a freshly formatted machine (Table 2 discipline).
//! Cells are independent and each is deterministic in `(seed, cell)`, so
//! [`rio_faults::map_grid`] spreads them over the campaign engine's
//! worker pool — byte-identical output at any `RIO_THREADS`.

use crate::ascii;
use rio_baselines::{rio_with_protection, ufs_write_write};
use rio_disk::SimTime;
use rio_kernel::{Kernel, KernelConfig, Policy};
use rio_obs::json_escape;
use rio_workloads::{Scale, ScaleConfig};

/// Grid parameters for a scale run.
#[derive(Debug, Clone)]
pub struct ScaleGrid {
    /// Workload seed.
    pub seed: u64,
    /// Client counts to sweep.
    pub clients: Vec<usize>,
    /// Device counts to sweep.
    pub devices: Vec<usize>,
    /// Operations per client.
    pub ops_per_client: usize,
}

impl ScaleGrid {
    /// The committed-artifact grid: clients {1,4,16,64} × devices {1,4}.
    pub fn small(seed: u64) -> Self {
        ScaleGrid {
            seed,
            clients: vec![1, 4, 16, 64],
            devices: vec![1, 4],
            ops_per_client: 24,
        }
    }

    /// A minimal grid for unit tests.
    pub fn tiny(seed: u64) -> Self {
        ScaleGrid {
            seed,
            clients: vec![1, 4],
            devices: vec![1, 2],
            ops_per_client: 10,
        }
    }
}

/// One (system, clients, devices) measurement.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// System name.
    pub system: &'static str,
    /// Concurrent clients.
    pub clients: usize,
    /// Striped devices.
    pub devices: usize,
    /// Wall time for the whole workload.
    pub total: SimTime,
    /// Operations executed.
    pub ops: u64,
    /// Transaction commits.
    pub commits: u64,
    /// Times the scheduler found every client blocked on the disk.
    pub idle_hops: u64,
}

impl ScaleCell {
    /// Throughput in operations per simulated second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 * 1e6 / self.total.as_micros().max(1) as f64
    }
}

/// The full grid report.
#[derive(Debug, Clone)]
pub struct ScaleGridReport {
    /// All cells, grid-ordered (devices-major, then clients, then system).
    pub cells: Vec<ScaleCell>,
    /// The grid that produced them.
    pub grid: ScaleGrid,
}

const RIO_NAME: &str = "Rio (protected)";
const WT_NAME: &str = "UFS write-through";

impl ScaleGridReport {
    fn cell(&self, system: &str, clients: usize, devices: usize) -> &ScaleCell {
        self.cells
            .iter()
            .find(|c| c.system == system && c.clients == clients && c.devices == devices)
            .expect("cell present")
    }

    /// Rio / write-through throughput ratio for one grid point.
    pub fn speedup(&self, clients: usize, devices: usize) -> f64 {
        self.cell(RIO_NAME, clients, devices).ops_per_sec()
            / self.cell(WT_NAME, clients, devices).ops_per_sec()
    }

    /// Panics unless Rio out-throughputs write-through at every grid
    /// point — the acceptance bar for the committed artifact.
    pub fn assert_rio_wins(&self) {
        for &d in &self.grid.devices {
            for &c in &self.grid.clients {
                let s = self.speedup(c, d);
                assert!(
                    s > 1.0,
                    "Rio must beat write-through at {c} clients × {d} devices (got {s:.2}x)"
                );
            }
        }
    }
}

pub(crate) fn fresh_kernel(policy: &Policy, devices: usize) -> Kernel {
    // Table 2 machine proportions (16 MB UBC, 64 MB disk), plus the
    // device count under test.
    let mut config = KernelConfig::small(policy.clone());
    config.machine.mem = rio_mem::MemConfig {
        ubc_bytes: 16 * 1024 * 1024,
        buffer_cache_bytes: 1024 * 1024,
        registry_bytes: 128 * 1024,
        ..rio_mem::MemConfig::small()
    };
    config.geometry = rio_kernel::DiskGeometry::new(8192, 4096, 128);
    config.machine.disk_blocks = 8192;
    config.machine.disk_devices = devices;
    Kernel::mkfs_and_mount(&config).expect("mkfs")
}

fn grid_points(grid: &ScaleGrid) -> Vec<(&'static str, Policy, usize, usize)> {
    let mut points = Vec::new();
    for &devices in &grid.devices {
        for &clients in &grid.clients {
            points.push((RIO_NAME, rio_with_protection(), clients, devices));
            points.push((WT_NAME, ufs_write_write(), clients, devices));
        }
    }
    points
}

fn run_cell(
    grid: &ScaleGrid,
    system: &'static str,
    policy: &Policy,
    clients: usize,
    devices: usize,
) -> ScaleCell {
    let mut k = fresh_kernel(policy, devices);
    let cfg = ScaleConfig {
        ops_per_client: grid.ops_per_client,
        ..ScaleConfig::small(grid.seed, clients)
    };
    let report = Scale::new(cfg).run(&mut k).expect("scale workload");
    ScaleCell {
        system,
        clients,
        devices,
        total: report.total,
        ops: report.ops,
        commits: report.commits,
        idle_hops: report.trace.idle_hops,
    }
}

/// Runs the grid's independent cells over `threads` workers; the report
/// is identical at any thread count.
pub fn run_scale(grid: &ScaleGrid, threads: usize) -> ScaleGridReport {
    let cells = rio_faults::map_grid(
        &grid_points(grid),
        threads,
        |(system, policy, clients, devices)| run_cell(grid, system, policy, *clients, *devices),
    );
    ScaleGridReport {
        cells,
        grid: grid.clone(),
    }
}

/// Renders the report as the committed text artifact.
pub fn render_scale(report: &ScaleGridReport) -> String {
    let mut rows = vec![vec![
        "Devices".to_owned(),
        "Clients".to_owned(),
        "Rio (s)".to_owned(),
        "WT (s)".to_owned(),
        "Rio ops/s".to_owned(),
        "WT ops/s".to_owned(),
        "Rio/WT".to_owned(),
    ]];
    for &d in &report.grid.devices {
        for &c in &report.grid.clients {
            let rio = report.cell(RIO_NAME, c, d);
            let wt = report.cell(WT_NAME, c, d);
            rows.push(vec![
                d.to_string(),
                c.to_string(),
                format!("{:.2}", rio.total.as_secs_f64()),
                format!("{:.2}", wt.total.as_secs_f64()),
                format!("{:.1}", rio.ops_per_sec()),
                format!("{:.1}", wt.ops_per_sec()),
                format!("{:.1}x", report.speedup(c, d)),
            ]);
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "Scale-out: {} ops/client server workload (Sdet mix + debit-credit commits), \
         deterministic preemptive scheduler\n\n",
        report.grid.ops_per_client
    ));
    out.push_str(&ascii::render(&rows));
    out.push('\n');
    // The two scaling observations the grid exists to show.
    let c_max = *report.grid.clients.iter().max().expect("non-empty");
    let d_min = *report.grid.devices.iter().min().expect("non-empty");
    let d_max = *report.grid.devices.iter().max().expect("non-empty");
    out.push_str(&format!(
        "Rio/WT advantage at {c_max} clients: {:.1}x on {d_min} device(s), {:.1}x on {d_max}\n",
        report.speedup(c_max, d_min),
        report.speedup(c_max, d_max),
    ));
    let wt_1 = report.cell(WT_NAME, c_max, d_min);
    let wt_d = report.cell(WT_NAME, c_max, d_max);
    out.push_str(&format!(
        "Striping {d_min}→{d_max} devices cuts write-through time at {c_max} clients: \
         {:.2}s → {:.2}s\n",
        wt_1.total.as_secs_f64(),
        wt_d.total.as_secs_f64(),
    ));
    out
}

/// Machine-readable form of the report (committed as `BENCH_scale.json`).
pub fn scale_json(report: &ScaleGridReport) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"scale\",\n  \"cells\": [\n");
    for (i, c) in report.cells.iter().enumerate() {
        let sep = if i + 1 == report.cells.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"system\": \"{}\", \"clients\": {}, \"devices\": {}, \
             \"sim_us\": {}, \"ops\": {}, \"commits\": {}, \"idle_hops\": {}, \
             \"ops_per_sec\": {:.3}}}{sep}\n",
            json_escape(c.system),
            c.clients,
            c.devices,
            c.total.as_micros(),
            c.ops,
            c.commits,
            c.idle_hops,
            c.ops_per_sec(),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_runs_and_rio_wins() {
        let report = run_scale(&ScaleGrid::tiny(3), 1);
        assert_eq!(report.cells.len(), 2 * 2 * 2);
        report.assert_rio_wins();
        let text = render_scale(&report);
        assert!(text.contains("Rio/WT"));
        let json = scale_json(&report);
        assert!(json.contains("\"benchmark\": \"scale\""));
    }

    #[test]
    fn parallel_grid_matches_serial() {
        let grid = ScaleGrid::tiny(7);
        let serial = render_scale(&run_scale(&grid, 1));
        let parallel = render_scale(&run_scale(&grid, 4));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_clients_amplify_rio_advantage() {
        // Write-through stalls per client; Rio does not. More clients →
        // at least as large a Rio advantage (allowing small wobble).
        let report = run_scale(&ScaleGrid::tiny(11), 1);
        let few = report.speedup(1, 1);
        let many = report.speedup(4, 1);
        assert!(
            many > few * 0.8,
            "advantage should not collapse with clients: 1→{few:.2}x, 4→{many:.2}x"
        );
    }
}
