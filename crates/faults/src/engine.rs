//! The campaign engine: the one worker pool in the workspace.
//!
//! The paper's reliability result is a single procedure repeated 1,950
//! times (§3.1–3.2: boot → warm up → inject → run to crash → reboot →
//! compare). Every study in this repository that repeats a procedure over
//! a grid — Table 1, Table 1 under load, the recovery re-crash table, the
//! server grid — describes *what* one cell does by
//! implementing [`Campaign`]; [`run`] is the only code that decides *how*
//! the cells get executed:
//!
//! * **Firewalled.** Every trial runs behind one `catch_unwind`. A trial
//!   that panics (a harness bug, not a simulated crash) leaves a
//!   `TrialPanic` note in any open [`rio_obs`] session and becomes
//!   whatever [`Campaign::on_panic`] makes of the text, instead of
//!   unwinding into the pool.
//! * **Speculative.** Workers run attempts ahead of a cell's merge
//!   frontier, bounded by a window, because whether attempt *n* is needed
//!   depends on how attempts `0..n` ended.
//! * **Attempt-order.** Outcomes are absorbed strictly in attempt order
//!   under the serial stopping rule ([`Campaign::done`]); speculative
//!   outcomes past the stopping point are dropped. The cells therefore
//!   equal the serial reference loop's at any thread count, as long as
//!   every trial is a pure function of `(coord, attempt)`.
//! * **Capture-once.** Cells whose [`Campaign::checkpoint_key`]s agree
//!   share one [`Campaign::capture`]d checkpoint, built by the first
//!   worker that needs it. Copy-on-write memory pages and disk blocks
//!   make forking a checkpoint cost tens of microseconds against the
//!   ~1.2 ms of booting and warming one up (`perf`'s `faults.fork_us`
//!   and `faults.prepare_ms` probes, `benchmark/README.md`).
//!
//! Forking a shared checkpoint must not change a result: an attempt that
//! captured a checkpoint of its own would see the same machine. That
//! scratch reference is not an execution mode — it is the `Scratch`
//! adaptor in this module's tests, which wraps any [`Campaign`] so that
//! every attempt captures privately, and is asserted equal to the engine
//! for every `Campaign` impl in this crate.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// One repeated-procedure study: a grid of cells, each filled by running
/// attempts `0, 1, 2, …` until its stopping rule holds.
pub trait Campaign: Sync {
    /// Grid coordinates of one cell.
    type Coord: Copy + Send + Sync;
    /// Identifies the checkpoint a cell forks from.
    type Key: Ord;
    /// State shared by every attempt of every cell with the same key.
    type Checkpoint: Send + Sync;
    /// What one attempt observed.
    type Outcome: Send;
    /// The fold of a cell's absorbed outcomes.
    type Cell: Send;

    /// The cells, in report order.
    fn grid(&self) -> Vec<Self::Coord>;

    /// Which checkpoint `coord` forks from. Cells with equal keys must
    /// [`capture`](Campaign::capture) interchangeable checkpoints.
    fn checkpoint_key(&self, coord: Self::Coord) -> Self::Key;

    /// Builds the checkpoint for `coord`'s key from scratch — a pure
    /// function of the key.
    fn capture(&self, coord: Self::Coord) -> Self::Checkpoint;

    /// Runs one attempt from the (shared, unmodified) checkpoint — a pure
    /// function of `(checkpoint, coord, attempt)`.
    fn run(&self, checkpoint: &Self::Checkpoint, coord: Self::Coord, attempt: u64)
        -> Self::Outcome;

    /// The outcome recorded for an attempt whose capture or run panicked.
    fn on_panic(&self, coord: Self::Coord, text: String) -> Self::Outcome;

    /// A cell with nothing absorbed.
    fn empty(&self, coord: Self::Coord) -> Self::Cell;

    /// Folds the next attempt's outcome into the cell.
    fn absorb(&self, cell: &mut Self::Cell, outcome: Self::Outcome);

    /// The stopping rule: with attempts `0..merged` absorbed into `cell`,
    /// is the cell finished? Must be monotone — once true, true for every
    /// larger `merged` and whatever else the cell absorbs.
    fn done(&self, cell: &Self::Cell, merged: u64) -> bool;
}

/// Runs a campaign over `threads` workers and returns its cells in grid
/// order — identical at any `threads`.
pub fn run<C: Campaign>(campaign: &C, threads: usize) -> Vec<C::Cell> {
    let grid = campaign.grid();
    let memo = Memo::new(grid.iter().map(|&c| campaign.checkpoint_key(c)));
    if threads <= 1 {
        return run_serial(campaign, &grid, &memo);
    }
    let state = Mutex::new(Pool::new(campaign, &grid, threads));
    run_pool(campaign, &memo, threads, &state);
    state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_cells()
}

/// Evaluates `f` at every point over `threads` workers, results in point
/// order: the campaign with one attempt per cell and nothing to
/// checkpoint. A panicking point is re-raised on the caller's thread once
/// the rest of the grid has finished.
pub fn map_grid<P: Sync, T: Send>(
    points: &[P],
    threads: usize,
    f: impl Fn(&P) -> T + Sync,
) -> Vec<T> {
    struct MapGrid<'a, P, F> {
        points: &'a [P],
        f: F,
    }
    impl<P: Sync, T: Send, F: Fn(&P) -> T + Sync> Campaign for MapGrid<'_, P, F> {
        type Coord = usize;
        type Key = ();
        type Checkpoint = ();
        type Outcome = Result<T, String>;
        type Cell = Option<Result<T, String>>;

        fn grid(&self) -> Vec<usize> {
            (0..self.points.len()).collect()
        }
        fn checkpoint_key(&self, _: usize) {}
        fn capture(&self, _: usize) {}
        fn run(&self, _: &(), point: usize, _: u64) -> Result<T, String> {
            Ok((self.f)(&self.points[point]))
        }
        fn on_panic(&self, _: usize, text: String) -> Result<T, String> {
            Err(text)
        }
        fn empty(&self, _: usize) -> Option<Result<T, String>> {
            None
        }
        fn absorb(&self, cell: &mut Option<Result<T, String>>, outcome: Result<T, String>) {
            *cell = Some(outcome);
        }
        fn done(&self, _: &Option<Result<T, String>>, merged: u64) -> bool {
            merged >= 1
        }
    }
    run(&MapGrid { points, f }, threads)
        .into_iter()
        .map(|cell| match cell.expect("every point ran once") {
            Ok(value) => value,
            Err(text) => panic!("{text}"),
        })
        .collect()
}

/// Capture-once checkpoints: one slot per distinct key, filled by the
/// first worker that needs it while later ones wait on that slot only.
struct Memo<V> {
    slot_of_cell: Vec<usize>,
    slots: Vec<OnceLock<V>>,
}

impl<V> Memo<V> {
    fn new<K: Ord>(keys: impl Iterator<Item = K>) -> Memo<V> {
        let mut slot_of_key = BTreeMap::new();
        let slot_of_cell = keys
            .map(|key| {
                let next = slot_of_key.len();
                *slot_of_key.entry(key).or_insert(next)
            })
            .collect();
        Memo {
            slot_of_cell,
            slots: slot_of_key.values().map(|_| OnceLock::new()).collect(),
        }
    }

    /// The checkpoint of grid cell `cell`. A panicking `capture` leaves
    /// the slot empty, so the next attempt captures (and fails) afresh.
    fn get_or_capture(&self, cell: usize, capture: impl FnOnce() -> V) -> &V {
        self.slots[self.slot_of_cell[cell]].get_or_init(capture)
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_owned())
}

/// Runs one attempt behind the panic firewall, from the cell's shared
/// checkpoint (captured here if this is the first attempt to need it).
fn trial<C: Campaign>(
    campaign: &C,
    memo: &Memo<C::Checkpoint>,
    cell: usize,
    coord: C::Coord,
    attempt: u64,
) -> C::Outcome {
    catch_unwind(AssertUnwindSafe(|| {
        let checkpoint = memo.get_or_capture(cell, || campaign.capture(coord));
        campaign.run(checkpoint, coord, attempt)
    }))
    .unwrap_or_else(|payload| {
        // Do not swallow the panic text: it goes to any open trace session
        // and to the campaign, so a report's message count and a forensic
        // trace agree on why the harness died.
        let text = format!("harness panic: {}", panic_message(payload.as_ref()));
        if rio_obs::is_enabled() {
            rio_obs::note(rio_obs::EventCategory::TrialPanic, text.clone());
        }
        campaign.on_panic(coord, text)
    })
}

/// The serial reference loop: the definition the pool must reproduce.
fn run_serial<C: Campaign>(
    campaign: &C,
    grid: &[C::Coord],
    memo: &Memo<C::Checkpoint>,
) -> Vec<C::Cell> {
    grid.iter()
        .enumerate()
        .map(|(idx, &coord)| {
            let mut cell = campaign.empty(coord);
            let mut attempt = 0;
            while !campaign.done(&cell, attempt) {
                campaign.absorb(&mut cell, trial(campaign, memo, idx, coord, attempt));
                attempt += 1;
            }
            cell
        })
        .collect()
}

/// Per-cell bookkeeping inside the pool.
struct CellProgress<C: Campaign> {
    coord: C::Coord,
    cell: C::Cell,
    /// Next attempt index to hand to a worker.
    issued: u64,
    /// Next attempt index to merge (all attempts below are absorbed).
    merged: u64,
    /// Finished attempts waiting for their turn in the merge order.
    parked: BTreeMap<u64, C::Outcome>,
    /// The stopping rule holds: nothing more is issued or merged.
    done: bool,
}

/// Shared pool state: the grid of cells plus a cursor that spreads
/// speculative issuance round-robin across unfinished cells.
struct Pool<C: Campaign> {
    cells: Vec<CellProgress<C>>,
    cursor: usize,
    unfinished: usize,
    /// Per-cell bound on `issued - merged`: how far ahead of the merge
    /// frontier workers may speculate. Attempts past a cell's (unknown)
    /// stopping point are wasted work, so the window trades idle threads
    /// against waste.
    window: u64,
}

impl<C: Campaign> Pool<C> {
    fn new(campaign: &C, grid: &[C::Coord], threads: usize) -> Pool<C> {
        let cells: Vec<CellProgress<C>> = grid
            .iter()
            .map(|&coord| {
                let cell = campaign.empty(coord);
                // A cell whose stopping rule already holds (zero quota,
                // zero attempt cap) is finished before any worker starts.
                let done = campaign.done(&cell, 0);
                CellProgress {
                    coord,
                    cell,
                    issued: 0,
                    merged: 0,
                    parked: BTreeMap::new(),
                    done,
                }
            })
            .collect();
        Pool {
            unfinished: cells.iter().filter(|c| !c.done).count(),
            cells,
            cursor: 0,
            window: (threads as u64).max(2) * 2,
        }
    }

    /// Hands out the next attempt, if any cell can accept speculation.
    fn next_task(&mut self, campaign: &C) -> Option<(usize, C::Coord, u64)> {
        let n = self.cells.len();
        for off in 0..n {
            let idx = (self.cursor + off) % n;
            let c = &mut self.cells[idx];
            // The stopping rule at `issued` on what has merged so far: if
            // it holds already it holds whatever the in-flight attempts
            // turn out to be (`done` is monotone), so the serial loop
            // never runs attempt `issued`. This caps a fixed-quota cell's
            // issuance at its quota.
            if c.done || c.issued - c.merged >= self.window || campaign.done(&c.cell, c.issued) {
                continue;
            }
            let attempt = c.issued;
            c.issued += 1;
            self.cursor = (idx + 1) % n;
            return Some((idx, c.coord, attempt));
        }
        None
    }

    /// Records a finished attempt and advances the merge frontier,
    /// applying exactly the serial stopping rule: an attempt counts iff,
    /// with all earlier attempts absorbed, the cell was not yet done.
    fn complete(&mut self, campaign: &C, idx: usize, attempt: u64, outcome: C::Outcome) {
        let c = &mut self.cells[idx];
        if c.done {
            return; // speculative leftover of an already-finished cell
        }
        c.parked.insert(attempt, outcome);
        while let Some(outcome) = c.parked.remove(&c.merged) {
            c.merged += 1;
            campaign.absorb(&mut c.cell, outcome);
            if campaign.done(&c.cell, c.merged) {
                c.done = true;
                // Speculative results beyond the stopping point are
                // discarded — the serial run never executed them.
                c.parked.clear();
                self.unfinished -= 1;
                break;
            }
        }
    }

    fn into_cells(self) -> Vec<C::Cell> {
        self.cells.into_iter().map(|c| c.cell).collect()
    }
}

/// Locks a mutex, tolerating poison: pool state is only written under
/// short critical sections that cannot be left half-updated, so a
/// poisoned lock (a worker died outside the trial firewall) is still
/// usable.
fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Drains `state` with `threads` scoped workers. No machine state is
/// shared: every attempt forks its own kernel, memory and disk.
fn run_pool<C: Campaign>(
    campaign: &C,
    memo: &Memo<C::Checkpoint>,
    threads: usize,
    state: &Mutex<Pool<C>>,
) {
    let wake = Condvar::new();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let task = {
                    let mut s = lock_tolerant(state);
                    loop {
                        if s.unfinished == 0 {
                            break None;
                        }
                        match s.next_task(campaign) {
                            Some(task) => break Some(task),
                            // Every issueable attempt is in flight; sleep
                            // until a completion moves a merge frontier.
                            None => s = wake.wait(s).unwrap_or_else(PoisonError::into_inner),
                        }
                    }
                };
                let Some((idx, coord, attempt)) = task else {
                    break;
                };
                let outcome = trial(campaign, memo, idx, coord, attempt);
                lock_tolerant(state).complete(campaign, idx, attempt, outcome);
                wake.notify_all();
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_det::proptest_lite::{check, Config, Gen};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A microsecond campaign: attempt `a` of cell `c` is a hit iff
    /// `hits[c][a]`; a cell stops at `quota` hits or `cap` attempts.
    struct Synthetic {
        hits: Vec<Vec<bool>>,
        quota: u64,
        cap: u64,
        /// Cells `c` and `c + keys` share a checkpoint.
        keys: usize,
        captures: Vec<AtomicU64>,
        panic_at: Option<(usize, u64)>,
    }

    /// What a synthetic cell absorbed, in order.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    struct Absorbed {
        hits: u64,
        attempts: Vec<u64>,
        panics: Vec<String>,
    }

    impl Synthetic {
        fn new(hits: Vec<Vec<bool>>, quota: u64, cap: u64, keys: usize) -> Synthetic {
            Synthetic {
                hits,
                quota,
                cap,
                keys,
                captures: (0..keys).map(|_| AtomicU64::new(0)).collect(),
                panic_at: None,
            }
        }

        /// The cells by direct evaluation of the stopping rule — written
        /// against the pattern, not against any engine code.
        fn model(&self) -> Vec<Absorbed> {
            self.hits
                .iter()
                .map(|row| {
                    let mut cell = Absorbed::default();
                    for (a, &hit) in row.iter().enumerate() {
                        if cell.hits >= self.quota || a as u64 >= self.cap {
                            break;
                        }
                        cell.attempts.push(a as u64);
                        cell.hits += u64::from(hit);
                    }
                    cell
                })
                .collect()
        }

        fn take_captures(&self) -> Vec<u64> {
            self.captures
                .iter()
                .map(|c| c.swap(0, Ordering::SeqCst))
                .collect()
        }
    }

    impl Campaign for Synthetic {
        type Coord = usize;
        type Key = usize;
        type Checkpoint = usize;
        type Outcome = Result<(u64, bool), String>;
        type Cell = Absorbed;

        fn grid(&self) -> Vec<usize> {
            (0..self.hits.len()).collect()
        }
        fn checkpoint_key(&self, cell: usize) -> usize {
            cell % self.keys
        }
        fn capture(&self, cell: usize) -> usize {
            self.captures[cell % self.keys].fetch_add(1, Ordering::SeqCst);
            cell % self.keys
        }
        fn run(&self, &key: &usize, cell: usize, attempt: u64) -> Self::Outcome {
            assert_eq!(key, cell % self.keys, "forked the wrong checkpoint");
            if self.panic_at == Some((cell, attempt)) {
                panic!("synthetic trial {cell}/{attempt} blew up");
            }
            Ok((attempt, self.hits[cell][attempt as usize]))
        }
        fn on_panic(&self, _: usize, text: String) -> Self::Outcome {
            Err(text)
        }
        fn empty(&self, _: usize) -> Absorbed {
            Absorbed::default()
        }
        fn absorb(&self, cell: &mut Absorbed, outcome: Self::Outcome) {
            match outcome {
                Ok((attempt, hit)) => {
                    cell.attempts.push(attempt);
                    cell.hits += u64::from(hit);
                }
                Err(text) => cell.panics.push(text),
            }
        }
        fn done(&self, cell: &Absorbed, merged: u64) -> bool {
            cell.hits >= self.quota || merged >= self.cap
        }
    }

    /// The scratch reference: the wrapped campaign with nothing shared —
    /// every attempt captures a checkpoint of its own and runs from that.
    /// Forking a capture-once checkpoint must be indistinguishable from it.
    struct Scratch<'a, C>(&'a C);

    impl<C: Campaign> Campaign for Scratch<'_, C> {
        type Coord = C::Coord;
        type Key = C::Key;
        type Checkpoint = ();
        type Outcome = C::Outcome;
        type Cell = C::Cell;

        fn grid(&self) -> Vec<C::Coord> {
            self.0.grid()
        }
        fn checkpoint_key(&self, coord: C::Coord) -> C::Key {
            self.0.checkpoint_key(coord)
        }
        fn capture(&self, _: C::Coord) {}
        fn run(&self, _: &(), coord: C::Coord, attempt: u64) -> C::Outcome {
            self.0.run(&self.0.capture(coord), coord, attempt)
        }
        fn on_panic(&self, coord: C::Coord, text: String) -> C::Outcome {
            self.0.on_panic(coord, text)
        }
        fn empty(&self, coord: C::Coord) -> C::Cell {
            self.0.empty(coord)
        }
        fn absorb(&self, cell: &mut C::Cell, outcome: C::Outcome) {
            self.0.absorb(cell, outcome)
        }
        fn done(&self, cell: &C::Cell, merged: u64) -> bool {
            self.0.done(cell, merged)
        }
    }

    #[test]
    fn pool_equals_the_serial_rule_and_captures_each_key_once() {
        check(
            "parallel cells == serial cells == model",
            Config::with_cases(48),
            |g: &mut Gen| {
                let cells = g.in_range(1..9usize);
                let cap = g.in_range(0..13u64);
                let quota = g.in_range(0..5u64);
                let keys = g.in_range(1..=cells);
                let density = g.in_range(0..5u64);
                let hits: Vec<Vec<bool>> = (0..cells)
                    .map(|_| {
                        (0..cap.max(1))
                            .map(|_| g.in_range(0..4u64) < density)
                            .collect()
                    })
                    .collect();
                let campaign = Synthetic::new(hits, quota, cap, keys);
                let model = campaign.model();
                let keys_used: Vec<u64> = (0..keys)
                    .map(|k| {
                        let used = (k..cells)
                            .step_by(keys)
                            .any(|c| !model[c].attempts.is_empty());
                        u64::from(used)
                    })
                    .collect();
                for threads in [1, 2, 8] {
                    // Equal to the model means equal to each other, and
                    // that nothing past a stopping point was absorbed.
                    rio_det::pt_assert_eq!(run(&campaign, threads), model.clone());
                    rio_det::pt_assert_eq!(campaign.take_captures(), keys_used.clone());
                    rio_det::pt_assert_eq!(run(&Scratch(&campaign), threads), model.clone());
                    campaign.take_captures();
                }
                Ok(())
            },
        );
    }

    #[test]
    fn a_cell_finished_at_construction_does_not_hang_the_pool() {
        let hits = vec![vec![true; 4]; 5];
        for (quota, cap) in [(0, 4), (2, 0)] {
            let campaign = Synthetic::new(hits.clone(), quota, cap, 2);
            let serial = run(&campaign, 1);
            assert!(serial.iter().all(|c| c.attempts.is_empty()));
            assert_eq!(run(&campaign, 4), serial, "quota {quota} cap {cap}");
        }
    }

    #[test]
    fn panicking_trial_is_contained_noted_and_survives_a_poisoned_pool() {
        let mut campaign = Synthetic::new(vec![vec![false, true, true]; 3], 2, 3, 1);
        let clean = campaign.model();
        campaign.panic_at = Some((1, 1));
        let text = "harness panic: synthetic trial 1/1 blew up";

        // Serial, inside a trace session on this thread.
        rio_obs::start(64);
        let serial = run(&campaign, 1);
        let trace = rio_obs::finish().expect("session open");
        assert_eq!(
            trace
                .notes
                .iter()
                .map(|n| (n.category, n.text.as_str()))
                .collect::<Vec<_>>(),
            [(rio_obs::EventCategory::TrialPanic, text)],
        );
        // The panicked attempt was absorbed as the on_panic outcome and
        // counted against the cap; the other cells are untouched.
        assert_eq!(serial[1].attempts, [0, 2]);
        assert_eq!(serial[1].hits, 1);
        assert_eq!(serial[1].panics, [text]);
        assert_eq!((&serial[0], &serial[2]), (&clean[0], &clean[2]));

        // Pooled, on a state mutex a dead worker already poisoned.
        let grid = campaign.grid();
        let state = Mutex::new(Pool::new(&campaign, &grid, 4));
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = state.lock().unwrap();
                    panic!("worker died holding the pool lock");
                })
                .join()
        });
        assert!(poisoner.is_err() && state.is_poisoned());
        let memo = Memo::new(grid.iter().map(|&c| campaign.checkpoint_key(c)));
        run_pool(&campaign, &memo, 4, &state);
        let pooled = state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_cells();
        assert_eq!(pooled, serial);
    }

    #[test]
    fn every_campaign_impl_is_identical_at_one_and_four_threads() {
        use crate::campaign::{CampaignConfig, Table1};
        use crate::recovery::{RecoveryCampaignConfig, RecoveryGrid};
        use crate::scale_campaign::{ScaleCampaignConfig, ScaleTable1};

        /// Four workers forking shared checkpoints, and four workers
        /// booting every trial from scratch, against the serial loop.
        fn assert_pool_and_scratch_match_serial<C: Campaign>(
            name: &str,
            campaign: &C,
        ) -> Vec<C::Cell>
        where
            C::Cell: std::fmt::Debug + PartialEq,
        {
            let serial = run(campaign, 1);
            assert!(!serial.is_empty(), "{name}");
            assert_eq!(run(campaign, 4), serial, "{name}: pool");
            assert_eq!(run(&Scratch(campaign), 4), serial, "{name}: scratch boots");
            serial
        }

        assert_pool_and_scratch_match_serial(
            "table1",
            &Table1(&CampaignConfig {
                trials_per_cell: 2,
                seed: 7,
                warmup_ops: 15,
                watchdog_ops: 120,
                max_attempts_factor: 3,
            }),
        );
        assert_pool_and_scratch_match_serial(
            "table1_scale",
            &ScaleTable1(&ScaleCampaignConfig {
                trials_per_cell: 1,
                seed: 13,
                warmup_ops: 4,
                watchdog_quanta: 1_200,
                max_attempts_factor: 2,
                client_counts: vec![2],
            }),
        );
        let recovery = RecoveryCampaignConfig {
            trials_per_cell: 1,
            seed: 11,
            warmup_ops: 20,
            max_depth: 2,
        };
        let cells = assert_pool_and_scratch_match_serial("recovery", &RecoveryGrid(&recovery));
        assert_eq!(cells.iter().map(|c| c.diverged).sum::<u64>(), 0);
    }

    #[test]
    fn map_grid_keeps_point_order_and_reraises_a_panicking_point() {
        let points: Vec<u64> = (0..23).collect();
        for threads in [1, 3] {
            assert_eq!(
                map_grid(&points, threads, |p| p * p),
                points.iter().map(|p| p * p).collect::<Vec<_>>()
            );
            let err = catch_unwind(AssertUnwindSafe(|| {
                map_grid(&points, threads, |&p| assert_ne!(p, 7, "point seven"))
            }))
            .expect_err("the panic must surface");
            assert!(panic_message(err.as_ref()).contains("point seven"));
        }
    }
}
