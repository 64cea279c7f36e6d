//! Table 2: "Performance Comparison".
//!
//! Runs cp+rm, Sdet, and Andrew on each of the eight file-system
//! configurations and renders the paper's table, including the "copy+rm"
//! split and the Data Permanent column. The companion ratio block computes
//! the paper's headline comparisons (Rio vs write-through / default UFS /
//! delayed UFS / MemFS).

use crate::ascii;
use rio_baselines::table2_rows;
use rio_disk::SimTime;
use rio_kernel::{Kernel, KernelConfig, Permanence, Policy};
use rio_workloads::{Andrew, AndrewConfig, CpRm, CpRmConfig, Sdet, SdetConfig};

/// Workload sizing for a Table 2 run.
#[derive(Debug, Clone)]
pub struct Table2Scale {
    /// cp+rm tree.
    pub cprm: CpRmConfig,
    /// Sdet scripts.
    pub sdet: SdetConfig,
    /// Andrew tree.
    pub andrew: AndrewConfig,
}

impl Table2Scale {
    /// Scaled default (~1/10 of the paper's sizes; ratios preserved).
    pub fn small(seed: u64) -> Self {
        Table2Scale {
            cprm: CpRmConfig::small(seed),
            sdet: SdetConfig::small(seed),
            andrew: AndrewConfig::small(seed),
        }
    }

    /// A minimal configuration for unit tests.
    pub fn tiny(seed: u64) -> Self {
        Table2Scale {
            cprm: CpRmConfig {
                dirs: 3,
                files_per_dir: 6,
                ..CpRmConfig::small(seed)
            },
            sdet: SdetConfig {
                ops_per_script: 30,
                ..SdetConfig::small(seed)
            },
            andrew: AndrewConfig {
                dirs: 2,
                files_per_dir: 5,
                ..AndrewConfig::small(seed)
            },
        }
    }
}

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Configuration name.
    pub name: &'static str,
    /// "Data Permanent" column: the policy's [`Policy::permanence`].
    pub permanence: Permanence,
    /// cp+rm total / copy / rm.
    pub cprm_total: SimTime,
    /// Copy half.
    pub cprm_copy: SimTime,
    /// Remove half.
    pub cprm_rm: SimTime,
    /// Sdet (5 scripts).
    pub sdet: SimTime,
    /// Andrew.
    pub andrew: SimTime,
}

/// The full Table 2 report.
#[derive(Debug, Clone)]
pub struct Table2Report {
    /// One row per configuration, in the paper's order.
    pub rows: Vec<Table2Row>,
}

impl Table2Report {
    fn row(&self, name: &str) -> &Table2Row {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no Table 2 row is labelled {name:?}"))
    }

    /// Ratio of one row's time to another's for a workload selector, the
    /// rows named by their full labels.
    pub fn ratio(&self, slow: &str, fast: &str, select: impl Fn(&Table2Row) -> SimTime) -> f64 {
        let s = select(self.row(slow)).as_micros() as f64;
        let f = select(self.row(fast)).as_micros().max(1) as f64;
        s / f
    }
}

/// A freshly formatted machine with Table 2's proportions on `devices`
/// striped devices. The file cache is roughly twice the cp+rm tree (80 MB
/// UBC vs a 40 MB tree on the DEC 3000/600), so the measured run never
/// thrashes the cache. Scaled: 16 MB UBC vs the ~4 MB tree, 64 MB disk,
/// 4096 inodes. The server study runs on the same machine.
pub(crate) fn fresh_kernel(policy: &Policy, devices: usize) -> Kernel {
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

/// Runs the full Table 2 grid.
///
/// Each (policy, workload) cell runs on a freshly formatted machine, as the
/// paper reruns each benchmark per configuration.
pub fn run_table2(scale: &Table2Scale) -> Table2Report {
    let mut rows = Vec::new();
    for (name, policy) in table2_rows() {
        // cp+rm.
        let mut k = fresh_kernel(&policy, 1);
        let cprm = CpRm::new(scale.cprm.clone());
        cprm.setup(&mut k).expect("setup");
        let cprm_report = cprm.run(&mut k).expect("cp+rm");

        // Sdet.
        let mut k = fresh_kernel(&policy, 1);
        let sdet_report = Sdet::new(scale.sdet.clone()).run(&mut k).expect("sdet");

        // Andrew.
        let mut k = fresh_kernel(&policy, 1);
        let andrew_report = Andrew::new(scale.andrew.clone())
            .run(&mut k)
            .expect("andrew");

        rows.push(Table2Row {
            name,
            permanence: policy.permanence(),
            cprm_total: cprm_report.total,
            cprm_copy: cprm_report.copy,
            cprm_rm: cprm_report.rm,
            sdet: sdet_report.total,
            andrew: andrew_report.total,
        });
    }
    Table2Report { rows }
}

fn secs(t: SimTime) -> String {
    format!("{:.2}", t.as_secs_f64())
}

/// Renders the report in the paper's layout plus the headline ratios.
pub fn render_table2(report: &Table2Report) -> String {
    let mut rows = vec![vec![
        "Configuration".to_owned(),
        "Data Permanent".to_owned(),
        "cp+rm (s)".to_owned(),
        "Sdet (5 scripts) (s)".to_owned(),
        "Andrew (s)".to_owned(),
    ]];
    for r in &report.rows {
        rows.push(vec![
            r.name.to_owned(),
            r.permanence.to_string(),
            format!(
                "{} ({}+{})",
                secs(r.cprm_total),
                secs(r.cprm_copy),
                secs(r.cprm_rm)
            ),
            secs(r.sdet),
            secs(r.andrew),
        ]);
    }
    let mut out = String::new();
    out.push_str("Table 2: Performance Comparison (simulated seconds; scaled workloads)\n\n");
    out.push_str(&ascii::render(&rows));
    out.push('\n');

    // The paper's headline ratios.
    type Selector = fn(&Table2Row) -> SimTime;
    let workloads: [(&str, Selector); 3] = [
        ("cp+rm", |r| r.cprm_total),
        ("Sdet", |r| r.sdet),
        ("Andrew", |r| r.andrew),
    ];
    out.push_str("Headline ratios (vs Rio with protection):\n");
    for (wname, sel) in workloads {
        let wt = report.ratio("UFS write-through on write", "Rio with protection", sel);
        let ufs = report.ratio("UFS", "Rio with protection", sel);
        let delayed = report.ratio("UFS, delayed data and metadata", "Rio with protection", sel);
        let memfs = report.ratio("Rio with protection", "Memory File System", sel);
        out.push_str(&format!(
            "  {wname:8} write-through/Rio = {wt:5.1}x   UFS/Rio = {ufs:5.1}x   \
             delayed-UFS/Rio = {delayed:4.1}x   Rio/MemFS = {memfs:4.2}x\n",
        ));
    }
    let prot = report.ratio("Rio with protection", "Rio without protection", |r| {
        r.cprm_total
    });
    out.push_str(&format!(
        "  protection overhead on cp+rm: {:+.1}%\n",
        (prot - 1.0) * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_table2_has_paper_shape() {
        let report = run_table2(&Table2Scale::tiny(3));
        assert_eq!(report.rows.len(), 8);
        let text = render_table2(&report);
        assert!(text.contains("Memory File System"));
        assert!(text.contains("Headline ratios"));

        // Shape assertions (the point of the reproduction):
        // 1. Rio ≈ MemFS.
        let rio_vs_memfs = report.ratio("Rio with protection", "Memory File System", |r| {
            r.cprm_total
        });
        assert!(rio_vs_memfs < 2.0, "Rio/MemFS = {rio_vs_memfs}");
        // 2. Write-through ≫ Rio on cp+rm (paper: 22x).
        let wt = report.ratio("UFS write-through on write", "Rio with protection", |r| {
            r.cprm_total
        });
        assert!(wt > 4.0, "write-through/Rio = {wt}");
        // 3. Default UFS ≫ Rio on cp+rm (paper: 14x there).
        let ufs = report.ratio("UFS", "Rio with protection", |r| r.cprm_total);
        assert!(ufs > 2.0, "UFS/Rio = {ufs}");
        // 4. Protection ≈ free.
        let prot = report.ratio("Rio with protection", "Rio without protection", |r| {
            r.cprm_total
        });
        assert!(prot < 1.10, "protection overhead ratio = {prot}");
        // 5. Ordering: write-through slowest of the UFS family.
        let close = report.ratio("UFS write-through on close", "Rio with protection", |r| {
            r.cprm_total
        });
        assert!(
            wt >= close,
            "on-write {wt} should cost at least on-close {close}"
        );
    }
}
