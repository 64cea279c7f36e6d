//! The benchmark's catalogue: every workload and every metric by name,
//! with unit, direction and (end to end) regression bound. `perf
//! manifest` renders it as `BENCHMARK.json`; a unit test keeps the
//! committed file and this table identical.

use crate::json::Value;

pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "fileops",
        "Table 2 trio, one client, under Rio: interpreter, bus/CRC, registry, syscalls; no scheduler, no disk writes",
    ),
    (
        "server-rio",
        "open-loop server, 1024 connections, rate ladder, under Rio: scheduler and locks with disk.writes = 0",
    ),
    (
        "server-ufs",
        "same traffic under default UFS: disk request plane, write-back, throttle, locks held across I/O",
    ),
    (
        "campaign",
        "39 crash trials through drive(): fork, inject, watchdog run, crash, reboot, replay/verify",
    ),
    (
        "recovery",
        "warm reboot of a crash image with 1760 dirty pages, then read-back audit of every acknowledged page",
    ),
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Every workload reports every one of these (the driver's contract);
/// README.md says what each means on each workload. A bound is at least
/// three times the widest quartile spread seen over ten seeds on any
/// workload: for the simulated metrics that is the seed's doing (4.3 %
/// and 2.6 % at worst, both on `server-ufs`); for the host metrics it is
/// the shared host's, whose speed drifts by a tenth over minutes, so they
/// take the widest bound the contract allows.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "host_ops_per_s",
        unit: "ops/host-s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_s",
        unit: "sim-s",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_us_per_op",
        unit: "sim-us",
        better: Lower,
        bound: 0.10,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn l(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics; the prefix is the crate the number belongs to.
/// Every workload's traced run reports all of them — 0 where the layer
/// did no such work on that workload.
pub const PER_LAYER: &[Layer] = &[
    // Counts: deterministic, read from the always-on public counters.
    l("mem.loads", "count", Lower),
    l("mem.stores", "count", Lower),
    l("mem.bytes_moved", "B", Lower),
    l("mem.kseg_forced", "count", Lower),
    l("mem.protection_traps", "count", Lower),
    l("core.windows_opened", "count", Lower),
    l("core.shadow_commits", "count", Lower),
    l("core.warm_pages_replayed", "count", Higher),
    l("core.warm_meta_restored", "count", Higher),
    l("core.warm_dropped", "count", Lower),
    l("kernel.syscalls", "count", Lower),
    l("kernel.crc_sectors_recomputed", "count", Lower),
    l("kernel.crc_sectors_cached", "count", Higher),
    l("kernel.crc_cache_hit_frac", "fraction", Higher),
    l("kernel.sync_waits", "count", Lower),
    l("kernel.overflow_writebacks", "count", Lower),
    l("kernel.update_runs", "count", Lower),
    l("kernel.locks_acquired", "count", Lower),
    l("kernel.locks_contended", "count", Lower),
    l("kernel.lock_contended_frac", "fraction", Lower),
    l("kernel.sched_quanta", "count", Lower),
    l("kernel.sched_idle_hops", "count", Lower),
    l("kernel.sim_cpu_s", "sim-s", Lower),
    l("kernel.sim_disk_wait_s", "sim-s", Lower),
    l("disk.reads", "count", Lower),
    l("disk.writes", "count", Lower),
    l("disk.bytes_read", "B", Lower),
    l("disk.bytes_written", "B", Lower),
    l("disk.bytes_written_per_user_byte", "B/B", Lower),
    l("faults.trials_crashed", "count", Higher),
    l("faults.trials_no_crash", "count", Lower),
    l("faults.trials_wedged", "count", Lower),
    l("faults.trials_corrupted", "count", Lower),
    l("faults.protection_saves", "count", Higher),
    l("faults.crash_yield_frac", "fraction", Higher),
    l("faults.trials_per_host_s", "1/host-s", Higher),
    // Simulated headline numbers of single workloads (deterministic).
    l("workloads.sim_read_p50_us", "sim-us", Lower),
    l("workloads.sim_read_p99_us", "sim-us", Lower),
    l("workloads.sim_write_p50_us", "sim-us", Lower),
    l("workloads.sim_write_p99_us", "sim-us", Lower),
    l("workloads.sim_commit_p50_us", "sim-us", Lower),
    l("workloads.sim_commit_p99_us", "sim-us", Lower),
    l("workloads.sim_max_rate_rps", "req/sim-s", Higher),
    l("workloads.sim_capacity_rps", "req/sim-s", Higher),
    l("workloads.sim.cprm_copy_s", "sim-s", Lower),
    l("workloads.sim.cprm_rm_s", "sim-s", Lower),
    l("workloads.sim.sdet_s", "sim-s", Lower),
    l("workloads.sim.andrew_s", "sim-s", Lower),
    // Probes: host time per isolated call into one layer's public API.
    l("cpu.bcopy_8k_ns", "ns", Lower),
    l("cpu.bzero_8k_ns", "ns", Lower),
    l("cpu.bcmp_8k_ns", "ns", Lower),
    l("mem.crc32_8k_ns", "ns", Lower),
    l("mem.image_fork_us", "us", Lower),
    l("core.registry_write_entry_ns", "ns", Lower),
    l("core.scan_registry_full_ms", "ms", Lower),
    l("kernel.pwrite_100b_ns", "ns", Lower),
    l("kernel.pwrite_512b_ns", "ns", Lower),
    l("kernel.pwrite_8k_ns", "ns", Lower),
    l("kernel.pwrite_span_4k_ns", "ns", Lower),
    l("kernel.pread_8k_ns", "ns", Lower),
    l("kernel.create_unlink_us", "us", Lower),
    l("kernel.fork_us", "us", Lower),
    l("kernel.sched_step_ns.c1", "ns", Lower),
    l("kernel.sched_step_ns.c64", "ns", Lower),
    l("kernel.sched_step_ns.c1024", "ns", Lower),
    l("disk.submit_retire_ns.dev1.d4", "ns", Lower),
    l("disk.submit_retire_ns.dev1.d64", "ns", Lower),
    l("disk.submit_retire_ns.dev1.d1024", "ns", Lower),
    l("disk.submit_retire_ns.dev4.d4", "ns", Lower),
    l("disk.submit_retire_ns.dev4.d64", "ns", Lower),
    l("disk.submit_retire_ns.dev4.d1024", "ns", Lower),
    l("disk.fork_us", "us", Lower),
    l("faults.prepare_ms", "ms", Lower),
    l("faults.fork_us", "us", Lower),
    l("faults.inject_us", "us", Lower),
    l("obs.hist_record_ns", "ns", Lower),
    l("obs.emit_ns", "ns", Lower),
    // Spans: host time of the traced repetition, by phase.
    l("faults.span.fork_ms", "ms", Lower),
    l("faults.span.inject_ms", "ms", Lower),
    l("faults.span.run_ms", "ms", Lower),
    l("faults.span.reboot_ms", "ms", Lower),
    l("faults.span.verify_ms", "ms", Lower),
    l("faults.span.fork_share", "fraction", Lower),
    l("faults.span.inject_share", "fraction", Lower),
    l("faults.span.run_share", "fraction", Lower),
    l("faults.span.reboot_share", "fraction", Lower),
    l("faults.span.verify_share", "fraction", Lower),
    l("faults.span.unattributed_share", "fraction", Lower),
    l("faults.span.fork_share.disk", "fraction", Lower),
    l("faults.span.inject_share.disk", "fraction", Lower),
    l("faults.span.run_share.disk", "fraction", Lower),
    l("faults.span.reboot_share.disk", "fraction", Lower),
    l("faults.span.verify_share.disk", "fraction", Lower),
    l("faults.span.fork_share.rio_noprot", "fraction", Lower),
    l("faults.span.inject_share.rio_noprot", "fraction", Lower),
    l("faults.span.run_share.rio_noprot", "fraction", Lower),
    l("faults.span.reboot_share.rio_noprot", "fraction", Lower),
    l("faults.span.verify_share.rio_noprot", "fraction", Lower),
    l("faults.span.fork_share.rio_prot", "fraction", Lower),
    l("faults.span.inject_share.rio_prot", "fraction", Lower),
    l("faults.span.run_share.rio_prot", "fraction", Lower),
    l("faults.span.reboot_share.rio_prot", "fraction", Lower),
    l("faults.span.verify_share.rio_prot", "fraction", Lower),
    l("kernel.span.scan_ms", "ms", Lower),
    l("kernel.span.meta_restore_ms", "ms", Lower),
    l("kernel.span.fsck_mount_ms", "ms", Lower),
    l("kernel.span.replay_ms", "ms", Lower),
    l("workloads.span.audit_ms", "ms", Lower),
    l("workloads.span.cprm_copy_ms", "ms", Lower),
    l("workloads.span.cprm_rm_ms", "ms", Lower),
    l("workloads.span.sdet_ms", "ms", Lower),
    l("workloads.span.andrew_ms", "ms", Lower),
    l("workloads.span.populate_ms", "ms", Lower),
    l("workloads.span.run_ms", "ms", Lower),
    l("kernel.lock_wait_us_p50", "sim-us", Lower),
    l("kernel.lock_wait_us_p99", "sim-us", Lower),
    l("disk.queue_depth_mean", "count", Lower),
    l("disk.queue_depth_max", "count", Lower),
    l("obs.trace_overhead_frac", "fraction", Lower),
    // Peak resident set of the workload's process (VmHWM): the host as
    // a layer. Not end to end, because on `campaign` the seed's draw of
    // trials moves it by a fifth.
    l("host.rss_mb", "MB", Lower),
];

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn manifest() -> String {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|&s| Value::from(s)).collect());
    let mut out = String::from("{\n");
    out += &format!(
        "  \"command\": {},\n",
        strs(&[
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ])
        .render()
    );
    out += &format!("  \"paths\": {},\n", strs(&["benchmark"]).render());
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let mut section = |key: &str, rows: Vec<Value>, last: bool| {
        out += &format!("  \"{key}\": [\n");
        for (i, row) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            out += &format!("    {}{comma}\n", row.render());
        }
        out += if last { "  ]\n" } else { "  ],\n" };
    };
    section(
        "workloads",
        WORKLOADS
            .iter()
            .map(|(name, why)| {
                let mut v = Value::obj();
                v.set("name", *name).set("why", *why);
                v
            })
            .collect(),
        false,
    );
    section(
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                let mut v = Value::obj();
                v.set("name", m.name)
                    .set("unit", m.unit)
                    .set("better", m.better.as_str())
                    .set("bound", m.bound);
                v
            })
            .collect(),
        false,
    );
    section(
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                let mut v = Value::obj();
                v.set("name", m.name)
                    .set("unit", m.unit)
                    .set("better", m.better.as_str());
                v
            })
            .collect(),
        true,
    );
    out + "}\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
        crate::json::parse(&committed).expect("BENCHMARK.json parses");
    }

    #[test]
    fn catalogue_respects_the_contract_limits() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(ok_name(name) && names.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} chars",
                why.len()
            );
        }
        for m in &END_TO_END {
            assert!(
                ok_name(m.name) && ok_unit(m.unit) && names.insert(m.name),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(
                ok_name(m.name) && ok_unit(m.unit) && names.insert(m.name),
                "{}",
                m.name
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(manifest().len() <= 64 * 1024);
    }
}
