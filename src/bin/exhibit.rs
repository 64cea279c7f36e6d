//! `exhibit` — the one entry to every committed artifact; the table
//! behind it is `rio::harness::exhibits`, and EXPERIMENTS.md indexes it.
//!
//! ```text
//! exhibit <name> [--json]      the row's text (or JSON) artifact, on stdout
//! exhibit <name> --write       regenerate the row's recorded files in place
//! exhibit --check quick|full   every row against its recorded bytes
//! exhibit --index              EXPERIMENTS.md's index table
//! exhibit explain [--fault <slug>] [--system <slug>] [--attempt <n>]
//! exhibit inspect              registry dump of a crashed demo machine
//! ```
//!
//! It reads `RIO_SEED`, `RIO_TRIALS` (rows with a trial count only) and
//! `RIO_THREADS` (a pure speed knob); a malformed value exits 2. Only
//! `--write` touches a recorded file, and only at the committed knobs.

#![forbid(unsafe_code)]

use rio::core::warm;
use rio::faults::{FaultType, PreparedTrial, SystemKind};
use rio::harness::exhibits::{self, Exhibit, Knobs, EXHIBITS};
use rio::kernel::PanicReason;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("exhibit: {msg}");
    std::process::exit(2);
}

fn usage() -> ! {
    let join = |words: Vec<&str>| words.join(" ");
    fail(format!(
        "usage: exhibit <name> [--json] [--write] | inspect | --check quick|full | --index\n\
         names  : {}\n\
         explain: [--fault <slug>] [--system <slug>] [--attempt <n>]\n\
         faults : {}\n\
         systems: {}\n\
         env    : RIO_SEED, RIO_TRIALS, RIO_THREADS",
        join(EXHIBITS.iter().map(|e| e.name).collect()),
        join(FaultType::ALL.iter().map(|f| f.slug()).collect()),
        join(SystemKind::ALL.iter().map(|s| s.slug()).collect()),
    ))
}

/// One `RIO_*` variable: unset is `None`; set, it must be an unsigned
/// integer, and a count of trials or threads at least 1.
fn parse_var(name: &str, value: Option<&str>) -> Result<Option<u64>, String> {
    let Some(v) = value else { return Ok(None) };
    match v.parse::<u64>() {
        Ok(0) if name != "RIO_SEED" => Err(format!("{name}={v}: must be at least 1")),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!("{name}={v}: not an unsigned integer")),
    }
}

/// The checkout this binary was built from: where `--check` reads the
/// recorded bytes and `--write` puts them.
const ROOT: &str = env!("CARGO_MANIFEST_DIR");

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else { usage() };
    let var = |name: &str| {
        let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        parse_var(name, value.as_deref()).unwrap_or_else(|e| fail(format!("{first}: {e}")))
    };
    let (seed, trials) = (var("RIO_SEED"), var("RIO_TRIALS"));
    let host = std::thread::available_parallelism().map_or(4, |n| n.get());
    let threads = var("RIO_THREADS").map_or(host, |t| t as usize);
    let row = EXHIBITS.iter().find(|e| e.name == first);
    if let Some(t) = trials.filter(|_| row.is_none_or(|r| r.committed.trials.is_none())) {
        fail(format!("{first}: RIO_TRIALS={t}: it has no trial count"));
    }
    match (row, first.as_str(), &args[1..]) {
        (Some(row), _, rest) => {
            let mut knobs = row.committed;
            knobs.seed = seed.unwrap_or(knobs.seed);
            knobs.trials = trials.or(knobs.trials);
            run_row(row, knobs, threads, rest);
        }
        (None, "--index", []) => print!("{}", exhibits::index()),
        (None, "--check", [level]) if level == "quick" || level == "full" => {
            if seed.is_some() {
                fail("--check: RIO_SEED is set, but the sizes checked are the manifest's");
            }
            check(level == "full", threads);
        }
        (None, "inspect", []) => inspect(seed.unwrap_or(1996)),
        _ => usage(),
    }
}

/// `exhibit <name> [--json] [--write]`: the row at its committed knobs
/// overlaid with the environment's and, here, with `explain`'s arguments.
fn run_row(row: &Exhibit, mut knobs: Knobs, threads: usize, args: &[String]) {
    let name = row.name;
    let (mut json, mut write) = (false, false);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match (arg.as_str(), &mut knobs.trial) {
            ("--json", _) if row.files.len() > 1 => json = true,
            ("--write", _) => write = true,
            ("--fault" | "--system" | "--attempt", Some((fault, system, attempt))) => {
                let v = args.next().unwrap_or_else(|| usage());
                let bad = || -> ! { fail(format!("{name}: {arg} {v}: no such value")) };
                match arg.as_str() {
                    "--fault" => *fault = FaultType::from_slug(v).unwrap_or_else(|| bad()),
                    "--system" => *system = SystemKind::from_slug(v).unwrap_or_else(|| bad()),
                    _ => *attempt = v.parse().unwrap_or_else(|_| bad()),
                }
            }
            _ => usage(),
        }
    }
    let committed = row.committed;
    let started = Instant::now();
    if !write {
        eprintln!("exhibit {name}: {knobs}, {threads} threads...");
        print!("{}", row.run(&knobs, threads)[usize::from(json)]);
    } else if knobs != committed {
        fail(format!(
            "{name}: --write is for the committed size, {committed}; this is {knobs}"
        ));
    } else {
        eprintln!("exhibit {name}: every recorded size, {threads} threads...");
        let wrote = row.write(Path::new(ROOT), threads);
        wrote.unwrap_or_else(|e| panic!("exhibit {name}: writing under {ROOT}: {e}"));
    }
    eprintln!("done in {:.1}s", started.elapsed().as_secs_f64());
}

/// `exhibit --check quick|full`: every row against its recorded bytes, one
/// line per row with host seconds. Quick runs a row's cheapest recorded
/// size at 1 and at 8 threads; full the committed size, at `RIO_THREADS`.
fn check(full: bool, threads: usize) {
    let mut stale = 0;
    for row in &EXHIBITS {
        let mut line = format!("{:<13}", row.name);
        for threads in if full { vec![threads] } else { vec![1, 8] } {
            let started = Instant::now();
            let verdict = row.check(Path::new(ROOT), full, threads);
            let secs = started.elapsed().as_secs_f64();
            line += &format!("{secs:8.1} s at {threads} threads");
            if let Err(e) = verdict {
                eprintln!("{e}");
                line += " STALE";
                stale += 1;
            }
        }
        println!("{line}");
    }
    if stale > 0 {
        eprintln!("exhibit --check: {stale} runs differ from their recorded bytes");
        std::process::exit(1);
    }
}

/// `exhibit inspect`: crash a demonstration machine after 120 memTest ops
/// and dump what the warm-reboot scanner sees in its image (§2.2).
fn inspect(seed: u64) {
    let (mut k, clients) = PreparedTrial::prepare(SystemKind::RioWithProtection, seed, 120)
        .into_machine()
        .expect("a healthy machine boots and runs memTest");
    let (ops, writes) = (clients[0].ops_done(), k.machine.disk.stats().writes);
    let windows = k.rio_stats().map_or(0, |s| s.windows_opened);
    println!("ran {ops} memTest ops; {windows} protection windows opened; {writes} disk writes");

    k.crash_now(PanicReason::Watchdog);
    let (image, _disk) = k.into_crash_artifacts();
    let recovery = warm::scan_registry(&image);
    let s = recovery.stats;
    println!("\nregistry scan of the crashed image:");
    println!("  slots scanned        : {}", s.slots_scanned);
    println!("  live entries         : {}", s.valid_entries);
    println!("  clean (skipped)      : {}", s.clean_skipped);
    println!("  metadata recovered   : {}", s.metadata_recovered);
    println!("  file pages recovered : {}", s.file_pages_recovered);
    println!("  dropped (changing)   : {}", s.dropped_changing);
    println!("  dropped (bad magic)  : {}", s.dropped_bad_magic);
    println!("  dropped (bad crc)    : {}", s.dropped_bad_crc);
    println!("  dropped (inconsist.) : {}", s.dropped_inconsistent);

    // Per-inode page histogram of the recovered file data.
    let mut per_ino: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for p in &recovery.file_pages {
        let e = per_ino.entry(p.ino).or_insert((0, 0));
        e.0 += 1;
        e.1 += p.size as u64;
    }
    println!("\nrecovered file pages by inode (top 10):");
    let mut rows: Vec<_> = per_ino.into_iter().collect();
    rows.sort_by_key(|&(_, (pages, _))| std::cmp::Reverse(pages));
    for (ino, (pages, bytes)) in rows.into_iter().take(10) {
        println!("  ino {ino:>4}: {pages:>3} pages, {bytes:>7} bytes");
    }
}

#[cfg(test)]
mod tests {
    use super::parse_var;

    #[test]
    fn unset_is_none_and_a_number_is_itself() {
        assert_eq!(parse_var("RIO_TRIALS", None), Ok(None));
        assert_eq!(parse_var("RIO_TRIALS", Some("50")), Ok(Some(50)));
        assert_eq!(parse_var("RIO_SEED", Some("0")), Ok(Some(0)));
        assert_eq!(parse_var("RIO_THREADS", Some("8")), Ok(Some(8)));
    }

    #[test]
    fn malformed_values_are_errors_naming_variable_and_value() {
        for (name, value) in [
            ("RIO_TRIALS", "5O"),
            ("RIO_TRIALS", ""),
            ("RIO_TRIALS", "0"),
            ("RIO_THREADS", "0"),
            ("RIO_THREADS", "-1"),
            ("RIO_SEED", "1996 "),
            ("RIO_SEED", "0x7cc"),
        ] {
            let err = parse_var(name, Some(value)).unwrap_err();
            assert!(err.contains(&format!("{name}={value}")), "{err}");
        }
    }
}
