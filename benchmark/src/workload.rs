//! What the five workloads share: the repetition contract the harness
//! drives, the Table 2 machine, and the bridge from a kernel's always-on
//! public counters to the benchmark's per-layer count names.

use crate::spans::SpanLog;
use rio_kernel::{DiskGeometry, Kernel, KernelConfig, Policy};
use std::collections::BTreeMap;

/// Integer-valued outputs that must repeat exactly for a fixed seed:
/// simulated times (µs), event counts, histogram percentiles.
pub type Counts = BTreeMap<String, u64>;

pub fn bump(counts: &mut Counts, name: &str, by: u64) {
    *counts.entry(name.to_owned()).or_insert(0) += by;
}

pub fn add_all(into: &mut Counts, from: &Counts) {
    for (k, v) in from {
        bump(into, k, *v);
    }
}

/// `after − before`, counter by counter (a clone of a prepared kernel
/// starts with the preparation's counts on it).
pub fn minus(after: &Counts, before: &Counts) -> Counts {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// What one repetition produced.
pub struct RepOut {
    /// Simulated operations completed — the numerator of
    /// `host_ops_per_s`.
    pub ops: u64,
    /// Host seconds to divide `ops` by, when the workload times its
    /// operations itself; `None` = the whole `rep` call.
    pub timed_s: Option<f64>,
    /// Operations whose outcome the repetition checked, and how many of
    /// them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Everything that must be bit-identical whenever the same variant
    /// runs again.
    pub det: Counts,
    /// Host seconds the traced route spent on work the untraced route
    /// does not do (a reference pass, a separately measured phase); the
    /// tracing overhead is computed without them.
    pub trace_extra_s: f64,
    /// Output check too slow to sit in the timed region; the harness
    /// runs it after stopping the clock (on the warm-up repetition).
    /// Returns the number of failed items.
    pub post_check: Option<Box<dyn FnOnce() -> Result<u64, String>>>,
}

/// Metrics a workload derives once a full set of variants has run.
#[derive(Default)]
pub struct Summary {
    /// End-to-end simulated metrics.
    pub sim_s: f64,
    pub sim_us_per_op: f64,
    /// Per-layer metrics by catalogue name (counts, ratios, simulated
    /// headline numbers).
    pub layer: BTreeMap<String, f64>,
    /// Human-readable lines for the report (not machine-compared).
    pub notes: Vec<String>,
}

/// One benchmark workload. `prepare`d once per set-up sample; `rep` is
/// called on `&self` and must leave the prepared state untouched (it
/// works on copy-on-write clones), so every repetition of a variant
/// does identical simulated work.
pub trait Workload {
    /// Distinct inputs the repetitions cycle through (ladder rungs ×
    /// windows for the servers; 1 elsewhere). One full cycle is the
    /// minimum a run measures.
    fn variants(&self) -> usize {
        1
    }

    /// The variant the traced repetition runs.
    fn trace_variant(&self) -> usize {
        0
    }

    /// Runs one repetition. With `spans` enabled the workload records
    /// spans around its calls into the layers (and may take a slower,
    /// phase-by-phase route that must produce the same `det`).
    fn rep(&self, variant: usize, spans: &mut SpanLog) -> Result<RepOut, String>;

    /// Derives the simulated end-to-end metrics and per-layer numbers
    /// from one output per variant, and runs the workload's output
    /// checks. `Err` fails the run.
    fn summarize(&self, outs: &[&RepOut]) -> Result<Summary, String>;

    /// Span-derived per-layer metrics of the traced repetition, by
    /// catalogue name.
    fn span_metrics(&self, ctx: &TraceCtx, out: &mut BTreeMap<String, f64>);
}

/// What the traced repetition left behind.
pub struct TraceCtx<'a> {
    pub spans: &'a SpanLog,
    /// The `rio-obs` registry the traced repetition filled.
    pub session: &'a rio_obs::Registry,
    /// Host seconds of the same variant with tracing off.
    pub untraced_rep_s: f64,
}

/// The Table 2 machine (16 MB UBC, 64 MB disk, 4096 inodes) with the
/// disk striped over `devices` spindles — the same proportions
/// `rio-harness` uses for Table 2 (1 device) and the server grid (4).
pub fn table2_config(policy: &Policy, devices: usize) -> KernelConfig {
    let mut config = KernelConfig::small(policy.clone());
    config.machine.mem = rio_mem::MemConfig {
        ubc_bytes: 16 * 1024 * 1024,
        buffer_cache_bytes: 1024 * 1024,
        registry_bytes: 128 * 1024,
        ..rio_mem::MemConfig::small()
    };
    config.geometry = DiskGeometry::new(8192, 4096, 128);
    config.machine.disk_blocks = 8192;
    config.machine.disk_devices = devices;
    config
}

pub fn mkfs(config: &KernelConfig) -> Result<Kernel, String> {
    Kernel::mkfs_and_mount(config).map_err(|e| format!("mkfs: {e:?}"))
}

/// Reads a kernel's always-on counters under the benchmark's per-layer
/// names (layer = crate). `Kernel::observe_into` is the public bridge;
/// the two clock accumulators come from `Clock`.
pub fn kernel_counts(k: &Kernel) -> Counts {
    let mut reg = rio_obs::Registry::new();
    k.observe_into(&mut reg);
    let mut c = Counts::new();
    for (ours, theirs) in [
        ("mem.loads", "mem.loads"),
        ("mem.stores", "mem.stores"),
        ("mem.bytes_moved", "mem.bytes_moved"),
        ("mem.kseg_forced", "mem.kseg_forced"),
        ("mem.protection_traps", "mem.protection_traps"),
        ("core.windows_opened", "rio.windows_opened"),
        ("core.shadow_commits", "kernel.shadow_commits"),
        ("kernel.syscalls", "kernel.syscalls"),
        (
            "kernel.crc_sectors_recomputed",
            "kernel.crc_sectors_recomputed",
        ),
        ("kernel.crc_sectors_cached", "kernel.crc_sectors_cached"),
        ("kernel.sync_waits", "kernel.sync_waits"),
        ("kernel.overflow_writebacks", "kernel.overflow_writebacks"),
        ("kernel.update_runs", "kernel.update_runs"),
        ("kernel.locks_acquired", "locks.acquired"),
        ("kernel.locks_contended", "locks.contended"),
        ("disk.reads", "disk.reads"),
        ("disk.writes", "disk.writes"),
        ("disk.bytes_read", "disk.bytes_read"),
        ("disk.bytes_written", "disk.bytes_written"),
    ] {
        c.insert(ours.to_owned(), reg.get(theirs));
    }
    c.insert(
        "kernel.sim_cpu_us".to_owned(),
        k.machine.clock.cpu_time().as_micros(),
    );
    c.insert(
        "kernel.sim_disk_wait_us".to_owned(),
        k.machine.clock.disk_wait().as_micros(),
    );
    c
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Copies `counts` into the per-layer table and adds the ratios and
/// unit conversions the catalogue derives from them. `user_bytes` is
/// what the workload handed to write syscalls (0 = not applicable).
pub fn layer_from_counts(counts: &Counts, user_bytes: u64, layer: &mut BTreeMap<String, f64>) {
    let get = |name: &str| counts.get(name).copied().unwrap_or(0);
    // `out.*` and `sim.*` are workload outputs, and `*_us` accumulators
    // are reported in seconds below; the rest are layer counts.
    for (name, v) in counts {
        let is_layer_count = ["mem.", "core.", "kernel.", "disk.", "faults."]
            .iter()
            .any(|layer| name.starts_with(layer));
        if is_layer_count && !name.ends_with("_us") {
            layer.insert(name.clone(), *v as f64);
        }
    }
    layer.insert(
        "kernel.sim_cpu_s".into(),
        get("kernel.sim_cpu_us") as f64 / 1e6,
    );
    layer.insert(
        "kernel.sim_disk_wait_s".into(),
        get("kernel.sim_disk_wait_us") as f64 / 1e6,
    );
    let (hit, miss) = (
        get("kernel.crc_sectors_cached"),
        get("kernel.crc_sectors_recomputed"),
    );
    layer.insert("kernel.crc_cache_hit_frac".into(), ratio(hit, hit + miss));
    layer.insert(
        "kernel.lock_contended_frac".into(),
        ratio(get("kernel.locks_contended"), get("kernel.locks_acquired")),
    );
    layer.insert(
        "disk.bytes_written_per_user_byte".into(),
        ratio(get("disk.bytes_written"), user_bytes),
    );
}
