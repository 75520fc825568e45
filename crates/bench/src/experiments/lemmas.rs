//! E11: substrate validation against the paper's lemmas.
//!
//! * **Lemma 4.1** — the maximum of `k·n` GRVs lies in
//!   `[0.5·log2 n, 2(k+1)·log2 n]` with probability `1 − O(n^{-k})`.
//! * **Lemma 4.2** — an epidemic finishes within `4(k+1)·n·log n`
//!   interactions with probability `1 − O(n^{-k})`.
//! * **Lemma 4.3** — CHVP's maximum drops by `Δ` within
//!   `7n(Δ + k log n)` interactions w.h.p.
//! * **Lemma 4.4** — CHVP's minimum is at least `m − 12(Δ + k log n)`
//!   after `7n(Δ + k log n)` interactions w.h.p.
//!
//! Every lemma writes its rows to `lemmas.csv` as `lemma, n, a, b, c`:
//!
//! * Lemma 4.1: `a` the observed minimum, `b` the observed maximum, `c`
//!   the violations (trials outside the band);
//! * Lemma 4.2: `a` the mean completion time, `b` the bound, `c` the
//!   violations (runs slower than the bound), both times in parallel time;
//! * Lemmas 4.3/4.4: `a` the maximum after the budget (Lemma 4.3 wants it
//!   at most `m − Δ`, printed in the section heading), `b` the minimum
//!   after the budget, `c` the Lemma 4.4 bound `b` should reach.
//!
//! The observed violation count should be zero at these scales.
//!
//! Lemma 4.1 samples GRVs directly (no simulator). Lemmas 4.2–4.4 run on
//! the [`Sweep`] count-based backends — 4.2 through the jump backend
//! (`run_on::<JumpSimulator<_>, _>`: only the epidemic's effective
//! interactions are materialized), 4.3/4.4 through the count backend
//! (`run_on::<CountSimulator<_>, _>`) — so every grid cell runs from one
//! flattened parallel batch with derived seeds instead of the former
//! hand-rolled `CountSimulator` loops, and full-scale populations (2¹⁸
//! and beyond) cost O(#states) memory per run.

use crate::{f2, log2n, Scale};
use pp_analysis::TableSpec;
use pp_model::grv;
use pp_protocols::{BoundedChvp, Infection};
use pp_sim::{CountSimulator, JumpSimulator, RunResult, ScannedEstimates, Sweep};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Parallel time at which a run's epidemic first covered the population:
/// the first snapshot with no susceptible (estimate-less) agent left.
fn completion_time(run: &RunResult) -> Option<f64> {
    run.snapshots
        .iter()
        .find(|s| s.estimates.is_some_and(|e| e.without_estimate == 0))
        .map(|s| s.parallel_time)
}

/// Runs E11, returning the `lemmas.csv` table.
pub fn run(scale: &Scale) -> Vec<TableSpec> {
    println!("== Substrate validation: Lemmas 4.1-4.4 ==");
    let mut csv = TableSpec::new("lemmas.csv", &["lemma", "n", "a", "b", "c"]);
    let (trials, grv_exps): (u32, &[u32]) = if scale.smoke {
        (20, &[8, 10])
    } else if scale.full {
        (500, &[8, 12, 16])
    } else {
        (100, &[8, 12, 16])
    };

    // Lemma 4.1.
    let k = 2u32;
    println!(
        "-- Lemma 4.1 (k = {k}): max of k·n GRVs in [0.5 log n, 2(k+1) log n]; \
         a, b, c = observed min, observed max, violations --"
    );
    let mut rng = SmallRng::seed_from_u64(scale.seed);
    for &exp in grv_exps {
        let n = 1u64 << exp;
        let lo = 0.5 * log2n(n as usize);
        let hi = 2.0 * (k as f64 + 1.0) * log2n(n as usize);
        let mut omin = f64::INFINITY;
        let mut omax: f64 = 0.0;
        let mut violations = 0;
        for _ in 0..trials {
            let m = f64::from(grv::grv_max(k * n as u32, &mut rng));
            omin = omin.min(m);
            omax = omax.max(m);
            if m < lo || m > hi {
                violations += 1;
            }
        }
        csv.push(vec![
            "lemma4.1".into(),
            n.to_string(),
            f2(omin),
            f2(omax),
            violations.to_string(),
        ]);
    }

    // Lemma 4.2: epidemic completion time, swept on the event-jump engine
    // (one infected agent among n; only effective interactions cost time).
    println!(
        "-- Lemma 4.2 (k = 1): epidemic completes within 4(k+1)·log n parallel time; \
         a, b, c = mean completion (pt), bound (pt), violations --"
    );
    let (reps, epi_exps): (usize, &[u32]) = if scale.smoke {
        (2, &[8, 10])
    } else if scale.full {
        (20, &[10, 14, 18])
    } else {
        (5, &[10, 14, 18])
    };
    let bound_of = |n: usize| 4.0 * 2.0 * log2n(n);
    let results = Sweep::new(Infection::new())
        .populations(epi_exps.iter().map(|&e| 1usize << e))
        .runs(reps)
        .master_seed(scale.seed)
        .threads(scale.threads)
        .horizon_with(move |n| 10.0 * bound_of(n))
        .snapshot_every(1.0)
        .init_counts(|n| vec![n - 1, 1])
        .run_on::<JumpSimulator<_>, _>(ScannedEstimates)
        .expect("a static epidemic grid fits the jump backend");
    for cell in &results.cells {
        let n = cell.n;
        let bound = bound_of(n);
        let mut total = 0.0;
        let mut violations = 0;
        for run in &cell.runs {
            // The jump engine always finishes the epidemic within the
            // 10×bound horizon; treat a (never observed) incompletion as
            // a violation at the horizon.
            let t = completion_time(run).unwrap_or(10.0 * bound);
            if t > bound {
                violations += 1;
            }
            total += t;
        }
        csv.push(vec![
            "lemma4.2".into(),
            n.to_string(),
            f2(total / cell.runs.len() as f64),
            f2(bound),
            violations.to_string(),
        ]);
    }

    // Lemmas 4.3 / 4.4 on bounded CHVP, swept on the count engine. The
    // snapshot summaries of a count-based sweep report the min/max
    // *occupied value* (BoundedChvp's estimate is its countdown value),
    // which is exactly the statistic both lemmas bound.
    let k = 2.0;
    let (chvp_exps, m, delta): (&[u32], u32, f64) = if scale.smoke {
        (&[8], 100, 30.0)
    } else {
        (&[10, 14], 400, 60.0)
    };
    println!(
        "-- Lemmas 4.3/4.4 (k = {k}, m = {m}, Δ = {delta}): CHVP max-drop and min-catch-up \
         windows; a = max after budget (4.3 target: <= m − Δ = {}), b = min after budget, \
         c = 4.4 bound (b >=) --",
        f2(f64::from(m) - delta)
    );
    let window_of = move |n: usize| delta + k * log2n(n);
    // Budget: 7n(Δ + k log n) interactions = 7(Δ + k log n) parallel time.
    let chvp_sweep = |init: fn(u64, u32) -> Vec<u64>, seed: u64| {
        Sweep::new(BoundedChvp::new(m))
            .populations(chvp_exps.iter().map(|&e| 1usize << e))
            .runs(1)
            .master_seed(seed)
            .threads(scale.threads)
            .horizon_with(move |n| 7.0 * window_of(n))
            .snapshot_every(1.0)
            .init_counts(move |n| init(n, m))
            .run_on::<CountSimulator<_>, _>(ScannedEstimates)
            .expect("a counts-initialized grid fits the count backend")
    };
    // 4.3: all start at m; after the budget the max dropped by ≥ Δ.
    let drop_results = chvp_sweep(
        |n, m| {
            let mut counts = vec![0u64; m as usize + 1];
            counts[m as usize] = n;
            counts
        },
        scale.seed + 7,
    );
    // 4.4: one agent at m, the rest at 0; after the budget the min is
    // within 12(Δ + k log n) of m.
    let catchup_results = chvp_sweep(
        |n, m| {
            let mut counts = vec![0u64; m as usize + 1];
            counts[0] = n - 1;
            counts[m as usize] = 1;
            counts
        },
        scale.seed + 8,
    );
    for (drop_cell, catch_cell) in drop_results.cells.iter().zip(&catchup_results.cells) {
        let n = drop_cell.n;
        let final_summary = |run: &RunResult| {
            run.snapshots
                .last()
                .and_then(|s| s.estimates)
                .expect("bounded CHVP agents always report a value")
        };
        let max_after = final_summary(&drop_cell.runs[0]).max;
        let min_after = final_summary(&catch_cell.runs[0]).min;
        let bound_44 = f64::from(m) - 12.0 * window_of(n);
        csv.push(vec![
            "lemma4.3/4.4".into(),
            n.to_string(),
            f2(max_after),
            f2(min_after),
            f2(bound_44),
        ]);
    }
    vec![csv]
}
