//! Table 2's "Data Permanent" column, audited: every row's
//! [`Policy::permanence`] is checked against what a crash actually takes
//! from it.
//!
//! One script runs on each of the eight rows: 24 files of 5,000 bytes, one
//! every 4 simulated seconds, each created, written and closed. Every 4th
//! file is `fsync`'d before its close, and one `sync` runs mid-script.
//! After every close a clone of the machine crashes and reboots the way
//! its row recovers (warm for Rio, cold for the rest), and every file
//! closed so far is classified as intact, a hole (the name survives, the
//! bytes read back as zeros) or missing, with its age since its close.
//! Each loss must be one the row's promise admits. A second crash comes
//! after every `write`, before its file's `fsync` or `close`: a row whose
//! writes are permanent as they return must find that file intact.

use rio::baselines::table2_rows;
use rio::disk::SimTime;
use rio::harness::ascii;
use rio::kernel::{Kernel, KernelConfig, PanicReason, Permanence, Policy};

const FILES: usize = 24;
const FILE_BYTES: usize = 5_000;
const SPACING_S: u64 = 4;
/// The mid-script `sync` follows this file's close.
const SYNC_AFTER: usize = 17;

/// What a reboot finds of a closed file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Intact,
    /// The name survives; the bytes read back as zeros.
    Hole,
    Missing,
}

/// A file the script has closed.
struct Closed {
    name: String,
    data: Vec<u8>,
    closed_at: SimTime,
    /// An `fsync` before its close, or a `sync` since, forced it to disk.
    forced: bool,
}

/// Whether a row promising `promise` may find a file as `fate`, `age`
/// after its close, `forced` to disk or not. The script's files are smaller
/// than any clustering threshold, so only `update` flushes them. A row that
/// waits for `update` admits only holes, never a lost name: its panic flush
/// writes the inode and the directory entry.
fn admits(promise: Permanence, fate: Fate, age: SimTime, forced: bool) -> bool {
    if fate == Fate::Intact {
        return true;
    }
    let window = match promise {
        Permanence::Never => return true,
        Permanence::AtWrite | Permanence::AtClose => return false,
        Permanence::AtUpdate(interval) => Some(interval),
        Permanence::AfterBytes { update, .. } => update,
    };
    fate == Fate::Hole && !forced && window.is_none_or(|w| age < w)
}

/// A row's tally over every file check of the script.
#[derive(Default)]
struct Tally {
    intact: usize,
    holes: usize,
    missing: usize,
    forced_lost: usize,
    oldest_loss: Option<SimTime>,
    /// Files found intact by the crash between their `write` and `close`.
    intact_at_write: usize,
}

/// Crashes a clone of `k` now and reboots it the way `policy` recovers:
/// warm for Rio, cold for the rest.
fn crash_and_reboot(k: &Kernel, config: &KernelConfig, policy: &Policy) -> Kernel {
    let mut c = k.clone();
    c.crash_now(PanicReason::Watchdog);
    let (image, disk) = c.into_crash_artifacts();
    let (r, _) = if policy.rio_enabled() {
        Kernel::warm_boot(config, &image, disk).expect("warm boot")
    } else {
        Kernel::cold_boot(config, disk).expect("cold boot")
    };
    r
}

/// What the rebooted `r`, whose root lists `names`, holds of the file
/// `name` written with `data`.
fn classify(r: &mut Kernel, names: &[String], name: &str, data: &[u8]) -> Fate {
    if !names.iter().any(|n| *n == name[1..]) {
        return Fate::Missing;
    }
    let bytes = r.file_contents(name).expect("a listed file opens");
    if bytes == data {
        Fate::Intact
    } else {
        assert!(
            bytes.iter().all(|&b| b == 0),
            "{name} reads back neither as written nor as a hole"
        );
        Fate::Hole
    }
}

/// Runs the script on one row, asserting every crash's losses as it goes.
fn audit_row(label: &str, policy: &Policy) -> Tally {
    let promise = policy.permanence();
    let config = KernelConfig::small(policy.clone());
    let mut k = Kernel::mkfs_and_mount(&config).expect("mkfs");
    let mut closed: Vec<Closed> = Vec::new();
    let mut tally = Tally::default();
    for i in 0..FILES {
        k.idle_until(SimTime::from_secs(SPACING_S * i as u64))
            .expect("idle");
        let name = format!("/f{i:02}");
        let data = vec![0x40 + i as u8; FILE_BYTES];
        let fd = k.create(&name).expect("create");
        k.write(fd, &data).expect("write");

        let mut r = crash_and_reboot(&k, &config, policy);
        let names = r.readdir("/").expect("readdir");
        let open = classify(&mut r, &names, &name, &data);
        if promise == Permanence::AtWrite {
            assert_eq!(
                open,
                Fate::Intact,
                "{label} ({promise}): {name} lost its data between its write and its close"
            );
        }
        tally.intact_at_write += usize::from(open == Fate::Intact);

        let fsynced = i % 4 == 3;
        if fsynced {
            k.fsync(fd).expect("fsync");
        }
        k.close(fd).expect("close");
        closed.push(Closed {
            name,
            data,
            closed_at: k.machine.clock.now(),
            forced: fsynced,
        });
        if i == SYNC_AFTER {
            k.sync().expect("sync");
            closed.iter_mut().for_each(|f| f.forced = true);
        }

        let crashed_at = k.machine.clock.now();
        let mut r = crash_and_reboot(&k, &config, policy);
        let names = r.readdir("/").expect("readdir");
        for f in &closed {
            let fate = classify(&mut r, &names, &f.name, &f.data);
            let age = crashed_at.saturating_sub(f.closed_at);
            assert!(
                admits(promise, fate, age, f.forced),
                "{label} ({promise}): {} is {fate:?} {age} after its close (forced: {})",
                f.name,
                f.forced
            );
            match fate {
                Fate::Intact => tally.intact += 1,
                Fate::Hole => tally.holes += 1,
                Fate::Missing => tally.missing += 1,
            }
            if fate != Fate::Intact {
                tally.forced_lost += usize::from(f.forced);
                tally.oldest_loss = tally.oldest_loss.max(Some(age));
            }
        }
    }
    tally
}

#[test]
fn every_row_loses_only_what_its_permanence_admits() {
    let mut rows = vec![[
        "Configuration",
        "Data Permanent",
        "intact",
        "hole",
        "missing",
        "lost though forced",
        "oldest loss",
        "intact at write",
    ]
    .map(String::from)
    .to_vec()];
    for (label, policy) in table2_rows() {
        let t = audit_row(label, &policy);
        let checks = FILES * (FILES + 1) / 2;
        assert_eq!(t.intact + t.holes + t.missing, checks, "{label}");
        // A window the script never reaches would make the audit vacuous.
        let promise = policy.permanence();
        if !matches!(promise, Permanence::AtWrite | Permanence::AtClose) {
            assert!(
                t.intact < checks,
                "{label} ({promise}): the script lost nothing"
            );
        }
        rows.push(vec![
            label.to_owned(),
            promise.to_string(),
            t.intact.to_string(),
            t.holes.to_string(),
            t.missing.to_string(),
            t.forced_lost.to_string(),
            t.oldest_loss
                .map_or("-".to_owned(), |a| format!("{:.0} s", a.as_secs_f64())),
            format!("{} of {FILES}", t.intact_at_write),
        ]);
    }
    println!("{}", ascii::render(&rows));
}
