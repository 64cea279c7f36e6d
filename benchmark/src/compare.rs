//! `perf compare a.jsonl b.jsonl`: one row per (workload, end-to-end
//! metric) — both medians, the change, the bound from the catalogue, and
//! `ok` / `worse` / `unresolved` — plus the exactness check: runs of one
//! (workload, seed) on both sides must agree on every simulated time and
//! count to the last digit.
//!
//! Each file holds one result document per line, as `perf --out FILE`
//! appends them. `a` is the parent (or the first set), `b` the change.

use crate::catalog::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::json::{self, Value};
use crate::stats::{median, spread};

struct Run {
    workload: String,
    seed: f64,
    doc: Value,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let field = |k: &str| doc.get(k).ok_or(format!("{path}:{}: no {k:?}", i + 1));
        if field("schema")?.as_str() != Some("rio-perf-v1") {
            return Err(format!("{path}:{}: not a rio-perf-v1 result", i + 1));
        }
        // Traced and smoke runs carry no comparable end-to-end numbers.
        if field("trace")? == &Value::Bool(true) || field("quick")? == &Value::Bool(true) {
            continue;
        }
        runs.push(Run {
            workload: field("workload")?.as_str().unwrap_or_default().to_owned(),
            seed: field("seed")?.as_f64().unwrap_or(-1.0),
            doc,
        });
    }
    Ok(runs)
}

/// The metric's value in every run of `workload`, and the run-to-run
/// spread: across runs when there are at least four, else the mean of
/// the quartile spreads each run measured over its own repetitions.
fn values_and_spread(runs: &[Run], workload: &str, metric: &str) -> (Vec<f64>, f64) {
    let cells: Vec<&Value> = runs
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.doc.get("end_to_end")?.get(metric))
        .collect();
    let num = |c: &Value, k: &str| c.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let values: Vec<f64> = cells.iter().map(|c| num(c, "value")).collect();
    let spread = if values.len() >= 4 {
        spread(&values)
    } else {
        let within: Vec<f64> = cells
            .iter()
            .filter(|c| num(c, "value") != 0.0)
            .map(|c| (num(c, "q3") - num(c, "q1")) / num(c, "value").abs())
            .collect();
        within.iter().sum::<f64>() / within.len().max(1) as f64
    };
    (values, spread)
}

/// One row's verdict. `worse`: b's median is worse than a's by more than
/// the bound. `unresolved`: the run-to-run spread `noise` is wider than
/// the bound, so "no worse" cannot be told from "worse" — unless every
/// run of b reads better than every run of a. Otherwise `ok`.
fn verdict(m: &EndToEnd, va: &[f64], vb: &[f64], noise: f64) -> &'static str {
    let (ma, mb) = (median(va), median(vb));
    let worse_by = match m.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let b_always_better = vb.iter().all(|&y| {
        va.iter().all(|&x| match m.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if worse_by > m.bound {
        "worse"
    } else if noise > m.bound && !b_always_better {
        "unresolved"
    } else {
        "ok"
    }
}

/// Prints the table; `Ok(true)` when every row is `ok` and every exact
/// value agrees.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut all_ok = true;
    println!(
        "{:<11} {:<15} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "a median", "b median", "change", "bound", "spread"
    );
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let (va, sa) = values_and_spread(&a, workload, m.name);
            let (vb, sb) = values_and_spread(&b, workload, m.name);
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<11} {:<15} missing on one side", m.name);
                all_ok = false;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let noise = sa.max(sb);
            let verdict = verdict(m, &va, &vb, noise);
            all_ok &= verdict == "ok";
            println!(
                "{workload:<11} {:<15} {ma:>14.4} {mb:>14.4} {:>+8.2}% {:>6.0}% {:>7.2}%  {verdict}",
                m.name,
                (mb - ma) / ma.abs() * 100.0,
                m.bound * 100.0,
                noise * 100.0
            );
        }
    }

    // A simulator-only change leaves every simulated time and count
    // identical: compare runs of the same (workload, seed) key by key.
    let (mut pairs, mut values, mut differing) = (0, 0, 0);
    for ra in &a {
        for rb in b
            .iter()
            .filter(|r| r.workload == ra.workload && r.seed == ra.seed)
        {
            pairs += 1;
            let (ea, eb) = (ra.doc.get("exact"), rb.doc.get("exact"));
            let (Some(ea), Some(eb)) = (ea, eb) else {
                return Err("result without an \"exact\" section".into());
            };
            for (k, v) in ea.fields() {
                values += 1;
                if eb.get(k) != Some(v) {
                    differing += 1;
                    if differing <= 20 {
                        println!(
                            "differs: {} seed {} {k}: {} vs {}",
                            ra.workload,
                            ra.seed,
                            v.render(),
                            eb.get(k).map_or("absent".to_owned(), Value::render)
                        );
                    }
                }
            }
            if ea.fields().len() != eb.fields().len() {
                differing += 1;
                println!(
                    "differs: {} seed {}: sets of exact outputs",
                    ra.workload, ra.seed
                );
            }
        }
    }
    println!(
        "exact: {values} simulated times and counts over {pairs} same-seed run pair(s), {differing} differ"
    );
    Ok(all_ok && differing == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGHER: EndToEnd = EndToEnd {
        name: "rate",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };
    const LOWER: EndToEnd = EndToEnd {
        name: "time",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    };

    #[test]
    fn verdict_follows_the_bound_in_the_metrics_direction() {
        assert_eq!(verdict(&HIGHER, &[100.0], &[95.0], 0.02), "ok");
        assert_eq!(verdict(&HIGHER, &[100.0], &[85.0], 0.02), "worse");
        assert_eq!(verdict(&HIGHER, &[100.0], &[130.0], 0.02), "ok");
        assert_eq!(verdict(&LOWER, &[1.0], &[1.05], 0.02), "ok");
        assert_eq!(verdict(&LOWER, &[1.0], &[1.2], 0.02), "worse");
        assert_eq!(verdict(&LOWER, &[1.0], &[0.5], 0.02), "ok");
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_wins_every_run() {
        // Spread wider than the bound: an unchanged median proves nothing…
        assert_eq!(
            verdict(&HIGHER, &[90.0, 100.0, 110.0], &[91.0, 100.0, 109.0], 0.2),
            "unresolved"
        );
        // …but every run of b beating every run of a does.
        assert_eq!(
            verdict(&HIGHER, &[90.0, 100.0, 110.0], &[120.0, 130.0, 140.0], 0.2),
            "ok"
        );
        // A median worse by more than the bound is `worse` whatever the spread.
        assert_eq!(
            verdict(&HIGHER, &[90.0, 100.0, 110.0], &[60.0, 70.0, 80.0], 0.2),
            "worse"
        );
    }
}
