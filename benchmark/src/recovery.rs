//! `recovery`: what a Rio user pays after a crash, and the paper's
//! durability promise in one place. Set-up fills the Table 2 machine
//! under Rio with protection with about 1,760 dirty file-cache pages in about 220
//! never-synced files, crashes it, and keeps the memory image and disk;
//! each repetition clones both, runs the resumable warm reboot with a
//! control that never interrupts, and reads every file back.
//!
//! Why it exists: warm-reboot time (scan → metadata restore → fsck and
//! mount → per-page replay and flush) at a nearly full dirty cache is a
//! size the campaign's small memTest image never reaches, and the audit
//! "every acknowledged write reads back" is the product's promise.

use crate::spans::SpanLog;
use crate::workload::{
    bump, kernel_counts, layer_from_counts, mkfs, table2_config, Counts, RepOut, Summary, TraceCtx,
    Workload,
};
use rio_baselines::rio_with_protection;
use rio_det::DetRng;
use rio_disk::SimDisk;
use rio_kernel::{
    Kernel, KernelConfig, KernelError, PanicReason, RecoveryControl, RecoveryPoint, WarmBootError,
};
use rio_mem::{PhysMem, PAGE_SIZE};
use rio_workloads::datagen;
use std::collections::BTreeMap;
use std::time::Instant;

/// Files in the crash image: `FILES_MIN + seed-drawn 0..FILES_SPAN`,
/// 220 on average, 8 pages each on average — 1,728 to 1,792 dirty pages,
/// 84–88 % of the 2,048-page cache.
const FILES_MIN: usize = 216;
const FILES_SPAN: usize = 9;
const MEAN_PAGES_PER_FILE: usize = 8;
const FILES_PER_DIR: usize = 20;

/// Never interrupts; stamps the host clock where one recovery phase
/// hands over to the next.
struct PhaseClock {
    start: Instant,
    scan_done: Option<Instant>,
    /// Last metadata-restore point seen (the phase ends at the last one).
    meta_done: Option<Instant>,
    /// First replayed page: `mount` runs between the fsck point and this
    /// one, so the fsck-and-mount phase ends here.
    replay_started: Option<Instant>,
}

impl RecoveryControl for PhaseClock {
    fn reached(&mut self, point: RecoveryPoint) -> bool {
        match point {
            RecoveryPoint::AfterScan => self.scan_done = Some(Instant::now()),
            RecoveryPoint::BeforeMetadataBlock { .. }
            | RecoveryPoint::AfterMetadataBlock { .. } => {
                self.meta_done = Some(Instant::now());
            }
            RecoveryPoint::AfterFsck => {}
            RecoveryPoint::AfterReplayWrite { .. } | RecoveryPoint::AfterReplayPage { .. } => {
                self.replay_started.get_or_insert_with(Instant::now);
            }
        }
        true
    }
}

struct FileSpec {
    path: String,
    data: Vec<u8>,
}

pub struct Recovery {
    config: KernelConfig,
    image: PhysMem,
    disk: SimDisk,
    files: Vec<FileSpec>,
    pages: u64,
}

impl Recovery {
    pub fn prepare(seed: u64, quick: bool) -> Result<Recovery, String> {
        // The seed decides how many files there are, how the pages are
        // spread over them, and what they hold; the total stays below
        // the cache's 2,048 pages so nothing overflows to disk before
        // the crash.
        let mut rng = DetRng::seed_from_u64(seed);
        let files = (FILES_MIN + rng.gen_range(0..FILES_SPAN)) / if quick { 10 } else { 1 };
        let mut pages = vec![MEAN_PAGES_PER_FILE; files];
        for _ in 0..files * 2 {
            let (from, to) = (rng.gen_range(0..files), rng.gen_range(0..files));
            if pages[from] > 1 {
                pages[from] -= 1;
                pages[to] += 1;
            }
        }

        let config = table2_config(&rio_with_protection(), 1);
        let mut k = mkfs(&config)?;
        let kerr = |e: KernelError| format!("filling the cache: {e:?}");
        let mut specs = Vec::with_capacity(files);
        for (i, &n) in pages.iter().enumerate() {
            let dir = format!("/d{}", i / FILES_PER_DIR);
            if i % FILES_PER_DIR == 0 {
                k.mkdir(&dir).map_err(kerr)?;
            }
            let spec = FileSpec {
                path: format!("{dir}/f{i}"),
                data: datagen::bytes(seed, i as u64, n * PAGE_SIZE),
            };
            let fd = k.create(&spec.path).map_err(kerr)?;
            k.write(fd, &spec.data).map_err(kerr)?;
            k.close(fd).map_err(kerr)?;
            specs.push(spec);
        }
        let stats = k.stats();
        if stats.overflow_writebacks > 0 || k.machine.disk.stats().writes > 0 {
            return Err(
                "the fill spilled to disk: the crash image would not hold every page".into(),
            );
        }
        k.crash_now(PanicReason::Watchdog);
        let (image, disk) = k.into_crash_artifacts();
        Ok(Recovery {
            config,
            image,
            disk,
            pages: pages.iter().sum::<usize>() as u64,
            files: specs,
        })
    }
}

impl Workload for Recovery {
    fn rep(&self, _variant: usize, spans: &mut SpanLog) -> Result<RepOut, String> {
        let mut image = self.image.clone();
        let disk = self.disk.clone();
        let mut clock = PhaseClock {
            start: Instant::now(),
            scan_done: None,
            meta_done: None,
            replay_started: None,
        };
        let booted = spans.scope("kernel.span.warm_boot", 0, |spans| {
            clock.start = Instant::now();
            let booted = Kernel::warm_boot_resumable(&self.config, &mut image, disk, &mut clock);
            let end = Instant::now();
            // Phases in pipeline order; a phase with no work (nothing to
            // restore) ends where the previous one did.
            let scan = clock.scan_done.unwrap_or(clock.start);
            let meta = clock.meta_done.unwrap_or(scan);
            let fsck = clock.replay_started.unwrap_or(end);
            spans.record("kernel.span.scan", 0, clock.start, scan);
            spans.record("kernel.span.meta_restore", 0, scan, meta);
            spans.record("kernel.span.fsck_mount", 0, meta, fsck);
            spans.record("kernel.span.replay", 0, fsck, end);
            booted
        });
        let (mut k, report) = match booted {
            Ok(ok) => ok,
            Err(WarmBootError::Fatal(e)) => return Err(format!("warm boot failed: {e:?}")),
            Err(WarmBootError::Interrupted(i)) => {
                return Err(format!("warm boot interrupted at {:?}", i.point))
            }
        };
        let boot_us = k.machine.clock.now().as_micros();

        // The audit: every page the crashed kernel acknowledged must read
        // back byte-identical from the rebooted one.
        let bad_pages = spans.scope("workloads.span.audit", 0, |_| {
            let mut bad = 0u64;
            for f in &self.files {
                let got = k.file_contents(&f.path).unwrap_or_default();
                let pages = f.data.len().div_ceil(PAGE_SIZE);
                bad += (0..pages)
                    .filter(|p| {
                        let at = p * PAGE_SIZE;
                        let end = (at + PAGE_SIZE).min(f.data.len());
                        got.get(at..end) != Some(&f.data[at..end])
                    })
                    .count() as u64;
            }
            bad
        });

        let mut det: Counts = kernel_counts(&k);
        let warm = report
            .warm
            .ok_or("warm boot returned no scanner statistics")?;
        det.insert("sim.boot_us".into(), boot_us);
        bump(&mut det, "core.warm_pages_replayed", report.pages_replayed);
        bump(&mut det, "core.warm_meta_restored", warm.metadata_recovered);
        bump(&mut det, "core.warm_dropped", warm.total_dropped());
        det.insert("out.pages_unreplayable".into(), report.pages_unreplayable);
        det.insert("out.bad_pages".into(), bad_pages);
        Ok(RepOut {
            ops: report.pages_replayed,
            timed_s: None,
            attempted: self.pages,
            failed: bad_pages.max(report.pages_unreplayable),
            det,
            trace_extra_s: 0.0,
            post_check: None,
        })
    }

    fn summarize(&self, outs: &[&RepOut]) -> Result<Summary, String> {
        let out = outs[0];
        let det = &out.det;
        if out.failed > 0 {
            return Err(format!(
                "durability broken: {} of {} acknowledged pages did not read back ({} unreplayable)",
                det["out.bad_pages"], self.pages, det["out.pages_unreplayable"]
            ));
        }
        if det["core.warm_pages_replayed"] != self.pages {
            return Err(format!(
                "pages_replayed = {} but {} dirty pages were acknowledged",
                det["core.warm_pages_replayed"], self.pages
            ));
        }
        let mut s = Summary {
            sim_s: det["sim.boot_us"] as f64 / 1e6,
            ..Summary::default()
        };
        s.sim_us_per_op = det["sim.boot_us"] as f64 / out.ops as f64;
        layer_from_counts(det, self.pages * PAGE_SIZE as u64, &mut s.layer);
        s.notes.push(format!(
            "{} files, {} pages replayed, 0 lost; warm reboot {:.2} sim-s ({:.1} sim-ms per page)",
            self.files.len(),
            out.ops,
            s.sim_s,
            s.sim_us_per_op / 1e3
        ));
        Ok(s)
    }

    fn span_metrics(&self, ctx: &TraceCtx, out: &mut BTreeMap<String, f64>) {
        let spans = ctx.spans;
        for phase in ["scan", "meta_restore", "fsck_mount", "replay"] {
            out.insert(
                format!("kernel.span.{phase}_ms"),
                spans.total_ms(&format!("kernel.span.{phase}")),
            );
        }
        out.insert(
            "workloads.span.audit_ms".into(),
            spans.total_ms("workloads.span.audit"),
        );
    }
}
