//! Property-based tests on the core invariants of the reproduction,
//! running on the in-repo `rio_det::proptest_lite` harness: seeded cases,
//! failure-seed reporting, bounded shrink — no external crates.

use rio::core::{EntryFlags, RegistryEntry};
use rio::det::proptest_lite::{check, Config, Gen};
use rio::det::{pt_assert, pt_assert_eq, pt_assert_ne};
use rio::disk::{DiskModel, SimDisk, SimTime, BLOCK_SIZE};
use rio::kernel::cache::PageCache;
use rio::mem::{crc32, PageNum};

/// Registry entries survive the 40-byte wire format for any field values.
#[test]
fn registry_entry_round_trips() {
    check(
        "registry_entry_round_trips",
        Config::default(),
        |g: &mut Gen| {
            let e = RegistryEntry {
                flags: EntryFlags(g.in_range(0u32..32)),
                phys_page: g.u32(),
                dev: g.u32(),
                ino: g.u64(),
                offset: g.u64(),
                size: g.u32(),
                crc: g.u32(),
            };
            let decoded = RegistryEntry::decode(&e.encode()).unwrap().unwrap();
            pt_assert_eq!(decoded, e);
            Ok(())
        },
    );
}

/// CRC32 detects every single-bit flip (guaranteed by the polynomial;
/// this is the §3.2 checksum's job).
#[test]
fn crc32_detects_any_single_bit_flip() {
    check(
        "crc32_detects_any_single_bit_flip",
        Config::default(),
        |g: &mut Gen| {
            let mut data = g.bytes(1, 2048);
            let bit = g.in_range(0u8..8);
            let pos = g.in_range(0..data.len());
            let before = crc32(&data);
            data[pos] ^= 1 << bit;
            pt_assert_ne!(crc32(&data), before);
            Ok(())
        },
    );
}

/// The disk never loses a write that completed before a crash, for any
/// schedule of writes and any crash time.
#[test]
fn disk_preserves_completed_writes() {
    check(
        "disk_preserves_completed_writes",
        Config::default(),
        |g: &mut Gen| {
            let writes: Vec<(u64, u8)> = g.vec(1, 24, |g| (g.in_range(0u64..16), g.u8()));
            let crash_frac = g.f64() * 1.5;
            let mut disk = SimDisk::new(16, DiskModel::paper_scsi());
            let mut completions = Vec::new();
            for &(block, fill) in &writes {
                let done = disk.submit_write(block, vec![fill; BLOCK_SIZE], SimTime::ZERO, false);
                completions.push((block, fill, done));
            }
            let last = completions.last().expect("non-empty").2;
            let crash_at = SimTime::from_micros((last.as_micros() as f64 * crash_frac) as u64);
            disk.crash(crash_at);
            // For each block, the latest write completed strictly before the
            // crash must be visible unless a later (possibly torn/lost) write
            // to the same block overwrote it.
            for (i, &(block, fill, done)) in completions.iter().enumerate() {
                let later_write_same_block =
                    completions[i + 1..].iter().any(|&(b, _, _)| b == block);
                if done <= crash_at && !later_write_same_block {
                    pt_assert!(!disk.is_torn(block), "block {block} torn");
                    pt_assert!(
                        disk.peek(block).iter().all(|&b| b == fill),
                        "block {block} lost fill {fill}"
                    );
                }
            }
            Ok(())
        },
    );
}

/// The page-cache dirty counter always equals the number of dirty keys,
/// across arbitrary operation sequences.
#[test]
fn page_cache_dirty_count_is_exact() {
    check(
        "page_cache_dirty_count_is_exact",
        Config::default(),
        |g: &mut Gen| {
            let ops: Vec<(u8, u64)> = g.vec(1, 200, |g| (g.in_range(0u8..5), g.in_range(0u64..12)));
            let mut cache: PageCache<u64> = PageCache::new((0..4).map(PageNum).collect());
            for (op, key) in ops {
                match op {
                    0 => {
                        if cache.lookup(key).is_none() {
                            cache.insert(key);
                        }
                    }
                    1 => {
                        if cache.lookup(key).is_some() {
                            cache.mark_dirty(key);
                        }
                    }
                    2 => cache.mark_clean(key),
                    3 => {
                        cache.remove(key);
                    }
                    _ => {
                        cache.lookup(key);
                    }
                }
                pt_assert_eq!(cache.dirty_count(), cache.dirty_keys().len());
                pt_assert!(cache.len() <= cache.capacity());
            }
            Ok(())
        },
    );
}

/// kmalloc never hands out overlapping blocks and kfree returns them,
/// for arbitrary alloc/free interleavings.
#[test]
fn allocator_blocks_never_overlap() {
    check(
        "allocator_blocks_never_overlap",
        Config::default(),
        |g: &mut Gen| {
            use rio::kernel::alloc::{heap_map, KernelAlloc, HDR_BYTES};
            let ops: Vec<(bool, u64)> = g.vec(1, 100, |g| (g.bool(), g.in_range(1u64..512)));
            let mut mem = rio::mem::PhysMem::new(rio::mem::MemConfig::small());
            let heap = mem.layout().heap;
            let mut alloc = KernelAlloc::new(heap.start + heap_map::ARENA_OFFSET, heap.end);
            let mut live: Vec<(u64, u64)> = Vec::new();
            for (do_alloc, size) in ops {
                if do_alloc || live.is_empty() {
                    let addr = alloc.kmalloc(&mut mem, size).unwrap();
                    // No overlap with any live block (headers included).
                    for &(a, s) in &live {
                        let lo = a - HDR_BYTES;
                        let hi = a + s;
                        let nlo = addr - HDR_BYTES;
                        let nhi = addr + size;
                        pt_assert!(
                            nhi <= lo || nlo >= hi,
                            "overlap: new [{nlo},{nhi}) vs live [{lo},{hi})"
                        );
                    }
                    live.push((addr, size));
                } else {
                    let (addr, _) = live.swap_remove(0);
                    alloc.kfree(&mut mem, addr).unwrap();
                }
            }
            Ok(())
        },
    );
}

/// memTest replay reconstructs exactly the state the live run produced,
/// for arbitrary seeds and op counts.
#[test]
fn memtest_replay_is_exact() {
    check(
        "memtest_replay_is_exact",
        Config::with_cases(24),
        |g: &mut Gen| {
            use rio::core::RioMode;
            use rio::kernel::{Kernel, KernelConfig, Policy};
            use rio::workloads::{MemTest, MemTestConfig};
            let seed = g.in_range(0u64..500);
            let ops = g.len_between(1, 60) as u64;
            let config = KernelConfig::small(Policy::rio(RioMode::Unprotected));
            let mut k = Kernel::mkfs_and_mount(&config).unwrap();
            let cfg = MemTestConfig::small(seed);
            let mut mt = MemTest::new(cfg.clone());
            mt.setup(&mut k).unwrap();
            mt.run(&mut k, ops).unwrap();
            let (replayed, _) = MemTest::replay(&cfg, ops);
            pt_assert_eq!(&replayed.files, &mt.model().files);
            pt_assert_eq!(&replayed.dirs, &mt.model().dirs);
            // And the kernel state matches the model.
            let verdict = mt.model().verify(&mut k, None).unwrap();
            pt_assert!(!verdict.is_corrupt(), "live kernel diverged: {verdict:?}");
            Ok(())
        },
    );
}

/// Protection's cost is what was counted: after every syscall of a random
/// memTest script, under hardware protection and under code patching, the
/// clock has charged exactly windows × 2 µs + checks × k × 40 ns, where
/// the windows are every one `rio-core` opened too (registry clears,
/// shadow commits) and k is the length of the store-check sequence.
#[test]
fn protection_charged_is_protection_counted_at_every_syscall() {
    check(
        "protection_charged_is_protection_counted_at_every_syscall",
        Config::default(),
        |g: &mut Gen| {
            use rio::core::RioMode;
            use rio::cpu::STORE_CHECK_STEPS;
            use rio::kernel::{Kernel, KernelConfig, Policy, PreemptClient};
            use rio::workloads::{MemTest, MemTestConfig};
            let mode = if g.bool() {
                RioMode::Protected
            } else {
                RioMode::CodePatched
            };
            let ops = g.len_between(1, 60) as u64;
            let mut k = Kernel::mkfs_and_mount(&KernelConfig::small(Policy::rio(mode))).unwrap();
            let mut mt = MemTest::new(MemTestConfig::small(g.in_range(0u64..500)));
            let counted = |k: &Kernel| {
                let windows = k.rio_stats().unwrap().windows_opened;
                windows * 2_000 + k.machine.bus.stats().patch_checks * STORE_CHECK_STEPS * 40
            };
            mt.setup(&mut k).unwrap();
            pt_assert_eq!(k.machine.clock.protection_ns(), counted(&k));
            let mut prev = None;
            while mt.ops_done() < ops {
                let op = mt.next_op(prev.as_ref()).expect("memTest never stops");
                let ret = k.syscall(op.as_op_ref()).unwrap();
                let (charged, counted) = (k.machine.clock.protection_ns(), counted(&k));
                pt_assert!(
                    charged == counted,
                    "{mode} after {op:?}: charged {charged} ns, counted {counted} ns"
                );
                prev = Some(ret);
            }
            pt_assert!(k.stats().shadow_commits > 0);
            Ok(())
        },
    );
}

/// Warm reboot recovers every file for arbitrary file shapes, with no
/// disk writes before the crash.
#[test]
fn warm_reboot_recovers_arbitrary_files() {
    check(
        "warm_reboot_recovers_arbitrary_files",
        Config::with_cases(16),
        |g: &mut Gen| {
            use rio::core::RioMode;
            use rio::kernel::{Kernel, KernelConfig, PanicReason, Policy};
            let files: Vec<(usize, u8)> =
                g.vec(1, 6, |g| (g.len_between(1, 40_000).max(1), g.u8()));
            let config = KernelConfig::small(Policy::rio(RioMode::Protected));
            let mut k = Kernel::mkfs_and_mount(&config).unwrap();
            for (i, &(len, fill)) in files.iter().enumerate() {
                let fd = k.create(&format!("/f{i}")).unwrap();
                k.write(fd, &vec![fill; len]).unwrap();
                k.close(fd).unwrap();
            }
            pt_assert_eq!(k.machine.disk.stats().writes, 0);
            k.crash_now(PanicReason::Watchdog);
            let (image, disk) = k.into_crash_artifacts();
            let (mut k2, _) = Kernel::warm_boot(&config, &image, disk).unwrap();
            for (i, &(len, fill)) in files.iter().enumerate() {
                let got = k2.file_contents(&format!("/f{i}")).unwrap();
                pt_assert_eq!(got, vec![fill; len]);
            }
            Ok(())
        },
    );
}

/// The slice-by-8 CRC32 is bit-identical to the bytewise reference on
/// arbitrary inputs, and streaming through `crc32_update` at any split
/// point produces the same value as the one-shot call.
#[test]
fn slice_by_8_crc_matches_bytewise() {
    check(
        "slice_by_8_crc_matches_bytewise",
        Config::default(),
        |g: &mut Gen| {
            use rio::mem::{crc32_bytewise, crc32_update};
            let data = g.bytes(0, 4096);
            let fast = crc32(&data);
            pt_assert_eq!(fast, crc32_bytewise(&data));
            let split = g.in_range(0..data.len() + 1);
            let streamed = crc32_update(crc32_update(0xFFFF_FFFF, &data[..split]), &data[split..])
                ^ 0xFFFF_FFFF;
            pt_assert_eq!(streamed, fast);
            Ok(())
        },
    );
}

/// `crc32_combine` splices two independent checksums into the checksum of
/// the concatenation, for arbitrary part lengths (including empty parts).
#[test]
fn crc32_combine_matches_concatenation() {
    check(
        "crc32_combine_matches_concatenation",
        Config::default(),
        |g: &mut Gen| {
            use rio::mem::crc32_combine;
            let a = g.bytes(0, 2048);
            let b = g.bytes(0, 2048);
            let mut joined = a.clone();
            joined.extend_from_slice(&b);
            let combined = crc32_combine(crc32(&a), crc32(&b), b.len() as u64);
            pt_assert_eq!(combined, crc32(&joined));
            Ok(())
        },
    );
}

/// The sector checksum cache derives exactly the CRC a direct scan over
/// the valid prefix computes, across arbitrary sequences of writes (each
/// reported via `note_write`) and growing/shrinking valid lengths.
#[test]
fn sector_crc_cache_matches_direct_crc() {
    check(
        "sector_crc_cache_matches_direct_crc",
        Config::default(),
        |g: &mut Gen| {
            use rio::kernel::crc_cache::SectorCrcCache;
            use rio::mem::{MemConfig, PhysMem, PAGE_SIZE};
            let mut mem = PhysMem::new(MemConfig::small());
            let page = PageNum::containing(mem.layout().ubc.start);
            let mut cache = SectorCrcCache::new();
            let writes: Vec<(usize, usize, u8)> = g.vec(1, 12, |g| {
                let start = g.in_range(0..PAGE_SIZE);
                let len = g.in_range(1..=PAGE_SIZE - start);
                (start, len, g.u8())
            });
            for &(start, len, fill) in &writes {
                mem.fill(page.base() + start as u64, len as u64, fill);
                cache.note_write(page, start, start + len);
                let valid = g.in_range(1..=PAGE_SIZE) as u32;
                let direct = crc32(&mem.page(page)[..valid as usize]);
                pt_assert_eq!(cache.prefix_crc(&mem, page, valid), direct);
            }
            Ok(())
        },
    );
}
