//! A seeded property-test harness: the in-repo replacement for `proptest`.
//!
//! Each case is generated from `derive_seed(suite_seed, case_index)`, so a
//! failure report names one `u64` that reproduces the exact inputs. Sizes
//! ramp from small to large across cases (small counterexamples surface
//! first), and on failure the runner performs a bounded shrink by replaying
//! the failing seed at progressively smaller sizes.
//!
//! ```no_run
//! use rio_det::proptest_lite::{check, Config, Gen};
//!
//! check("addition commutes", Config::default(), |g: &mut Gen| {
//!     let a = g.u64();
//!     let b = g.u64();
//!     rio_det::pt_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//!     Ok(())
//! });
//! ```
//!
//! Environment overrides: `RIO_PT_CASES` (case count), `RIO_PT_SEED`
//! (suite seed, accepts decimal or `0x…` hex) — set the seed printed by a
//! failure to replay it.

use crate::rng::{derive_seed, DetRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Maximum generation size (the ramp's ceiling).
pub const MAX_SIZE: u32 = 100;

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Cases to run (proptest's default was 256; 64 keeps tier-1 quick
    /// while the seeded determinism makes reruns exact, not statistical).
    pub cases: u32,
    /// Suite seed; every case seed derives from it.
    pub seed: u64,
    /// Shrink attempts after a failure (size halvings).
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            seed: 0x5EED_1996,
            max_shrink_steps: 12,
        }
    }
}

impl Config {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Config {
        Config {
            cases,
            ..Config::default()
        }
    }
}

/// The per-case value source handed to properties.
///
/// All draws go through the case's [`DetRng`]; `size` (1..=100) scales the
/// *sized* helpers ([`Gen::len_between`], [`Gen::bytes`], [`Gen::vec`]) so
/// early cases and shrink replays explore small inputs.
#[derive(Debug)]
pub struct Gen {
    rng: DetRng,
    size: u32,
}

impl Gen {
    /// A generator for one case.
    pub fn new(case_seed: u64, size: u32) -> Gen {
        Gen {
            rng: DetRng::seed_from_u64(case_seed),
            size: size.clamp(1, MAX_SIZE),
        }
    }

    /// The current generation size (1..=[`MAX_SIZE`]).
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Direct access to the case RNG for unsized draws.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// A full-range `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A full-range `u32`.
    pub fn u32(&mut self) -> u32 {
        self.rng.next_u32()
    }

    /// A full-range `u16`.
    pub fn u16(&mut self) -> u16 {
        (self.rng.next_u64() >> 48) as u16
    }

    /// A full-range `u8`.
    pub fn u8(&mut self) -> u8 {
        (self.rng.next_u64() >> 56) as u8
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.gen_bool(0.5)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.rng.gen_f64()
    }

    /// A uniform draw from `range`, unaffected by size (use for
    /// coordinates, enums, bit indices).
    pub fn in_range<T, R>(&mut self, range: R) -> T
    where
        T: crate::rng::UInt,
        R: crate::rng::RangeBounds64<T>,
    {
        self.rng.gen_range(range)
    }

    /// A size-scaled length in `[min, max]`: at size 100 the full range,
    /// at size 1 only `min` and its close neighbourhood.
    pub fn len_between(&mut self, min: usize, max: usize) -> usize {
        assert!(min <= max);
        let span = (max - min) as u64;
        let scaled = span * self.size as u64 / MAX_SIZE as u64;
        min + self.rng.gen_range(0..=scaled) as usize
    }

    /// A byte vector with size-scaled length in `[min_len, max_len]`.
    pub fn bytes(&mut self, min_len: usize, max_len: usize) -> Vec<u8> {
        let len = self.len_between(min_len, max_len);
        let mut buf = vec![0u8; len];
        self.rng.fill_bytes(&mut buf);
        buf
    }

    /// A vector of `f(self)` with size-scaled length in `[min_len,
    /// max_len]`.
    pub fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = self.len_between(min_len, max_len);
        (0..len).map(|_| f(self)).collect()
    }
}

/// A property: draws inputs from the [`Gen`], returns `Err(description)`
/// (usually via [`pt_assert!`](crate::pt_assert)) on falsification.
pub type PropResult = Result<(), String>;

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// Runs one case, converting panics inside the property into failures.
fn run_case<F>(prop: &mut F, case_seed: u64, size: u32) -> PropResult
where
    F: FnMut(&mut Gen) -> PropResult,
{
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut gen = Gen::new(case_seed, size);
        prop(&mut gen)
    }));
    match result {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "<non-string panic>".to_owned());
            Err(format!("panicked: {msg}"))
        }
    }
}

/// Runs `prop` over seeded cases; panics with a reproducible report on the
/// first falsified case (after a bounded shrink toward smaller sizes).
///
/// # Panics
///
/// Panics when the property is falsified — this is the test-failure path.
pub fn check<F>(name: &str, cfg: Config, mut prop: F)
where
    F: FnMut(&mut Gen) -> PropResult,
{
    let cases = env_u64("RIO_PT_CASES")
        .map(|c| c as u32)
        .unwrap_or(cfg.cases)
        .max(1);
    let seed = env_u64("RIO_PT_SEED").unwrap_or(cfg.seed);
    for case in 0..cases {
        let case_seed = derive_seed(seed, case as u64);
        // Size ramp: early cases are small, the back half runs at full size.
        let size = if cases <= 1 {
            MAX_SIZE
        } else {
            (1 + (MAX_SIZE - 1) * case / (cases - 1)).min(MAX_SIZE)
        };
        if let Err(first_msg) = run_case(&mut prop, case_seed, size) {
            // Bounded shrink: replay the same seed at halved sizes and keep
            // the smallest size that still fails.
            let mut best_size = size;
            let mut best_msg = first_msg;
            let mut candidate = size / 2;
            for _ in 0..cfg.max_shrink_steps {
                if candidate == 0 {
                    break;
                }
                match run_case(&mut prop, case_seed, candidate) {
                    Err(msg) => {
                        best_size = candidate;
                        best_msg = msg;
                        candidate /= 2;
                    }
                    Ok(()) => break,
                }
            }
            panic!(
                "property '{name}' falsified\n  case       : {case} of {cases}\n  \
                 case seed  : 0x{case_seed:016x}\n  size       : {best_size} (first failed at {size})\n  \
                 failure    : {best_msg}\n  reproduce  : RIO_PT_SEED=0x{seed:x} RIO_PT_CASES={cases}"
            );
        }
    }
}

/// Returns `Err` from the enclosing property when `cond` is false.
#[macro_export]
macro_rules! pt_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!($($arg)+));
        }
    };
}

/// Returns `Err` from the enclosing property when the operands differ.
#[macro_export]
macro_rules! pt_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{} != {}\n  left : {:?}\n  right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
}

/// Returns `Err` from the enclosing property when the operands are equal.
#[macro_export]
macro_rules! pt_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err(format!(
                "{} == {} (both {:?})",
                stringify!($left),
                stringify!($right),
                l
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut ran = 0;
        check("tautology", Config::with_cases(17), |g| {
            let _ = g.u64();
            ran += 1;
            Ok(())
        });
        assert_eq!(ran, 17);
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            check("always fails", Config::with_cases(8), |g| {
                let v = g.bytes(0, 64);
                crate::pt_assert!(v.len() > 1_000_000, "len was {}", v.len());
                Ok(())
            });
        }))
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("falsified"), "{msg}");
        assert!(msg.contains("case seed"), "{msg}");
        assert!(msg.contains("RIO_PT_SEED=0x"), "{msg}");
    }

    #[test]
    fn panicking_property_is_caught_and_reported() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            check("panics", Config::with_cases(3), |_g| -> PropResult {
                panic!("boom inside property");
            });
        }))
        .expect_err("must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("boom inside property"), "{msg}");
    }

    #[test]
    fn shrink_finds_a_smaller_failing_size() {
        // Fails whenever the sized length exceeds 4: the shrink loop must
        // land on a size well below the ramp's ceiling.
        let err = catch_unwind(AssertUnwindSafe(|| {
            check("needs shrink", Config::with_cases(40), |g| {
                let v = g.vec(0, 100, |g| g.u8());
                crate::pt_assert!(v.len() <= 4, "len {}", v.len());
                Ok(())
            });
        }))
        .expect_err("must fail");
        let msg = err.downcast_ref::<String>().expect("string panic").clone();
        let reported: u32 = msg
            .lines()
            .find(|l| l.trim_start().starts_with("size"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().split(' ').next())
            .and_then(|v| v.parse().ok())
            .expect("size line");
        assert!(reported < MAX_SIZE, "no shrink happened: {msg}");
    }

    #[test]
    fn cases_are_deterministic() {
        let collect = || {
            let mut vals = Vec::new();
            check("collect", Config::with_cases(10), |g| {
                vals.push((g.u64(), g.len_between(0, 50)));
                Ok(())
            });
            vals
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn sized_helpers_respect_bounds() {
        check("bounds", Config::with_cases(50), |g| {
            let n = g.len_between(3, 9);
            crate::pt_assert!((3..=9).contains(&n), "len_between out of bounds: {n}");
            let b = g.bytes(1, 16);
            crate::pt_assert!((1..=16).contains(&b.len()), "bytes len {}", b.len());
            let v = g.vec(2, 5, |g| g.bool());
            crate::pt_assert!((2..=5).contains(&v.len()), "vec len {}", v.len());
            Ok(())
        });
    }
}
