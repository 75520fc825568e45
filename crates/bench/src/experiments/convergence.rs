//! E5 / Theorem 2.1 (convergence): `O(log n̂ + log n)` convergence time.
//!
//! Two sweeps, both on the [`Sweep`](pp_sim::Sweep) grid engine:
//!
//! 1. **initial-estimate sweep** — fixed n, initial estimate n̂ with
//!    `log n̂ ∈ {15, 30, 60, 120, 240}`: convergence time should grow
//!    *linearly* in `log n̂` (the countdown runs at `τ1·log n̂`), the
//!    paper's trade-off against Doty–Eftekhari (whose convergence is
//!    `log log n̂ + log n` — faster under exponential over-estimates,
//!    at a much larger memory cost). Each n̂ needs its own horizon and
//!    initial configuration, so each is a single-cell sweep.
//! 2. **population sweep** — fresh init, n ∈ {2^7 … 2^13}: convergence
//!    time should grow like `log n` (slope ≈ constant per doubling).
//!    One multi-cell sweep: every `(n, run)` task is fanned across the
//!    pool together, so large-n runs never wait on a small-n batch.

use crate::{f2, log2n, Scale};
use pp_analysis::{convergence_time, mean, Band, Table, TableSpec};
use pp_sim::{ScannedEstimates, Simulator, SweepResults};

/// The population sweep as a [`Sweep`](pp_sim::Sweep) over every grid cell
/// at once. Separated from [`run`] so the throughput harness
/// (`BENCH_sweep.json`) can time exactly this workload.
pub fn population_sweep(scale: &Scale, exps: &[u32]) -> SweepResults {
    crate::sweep_of(scale, crate::paper_protocol())
        .populations(exps.iter().map(|&e| 1usize << e))
        .horizon_with(|n| 500.0 + 10.0 * (n.max(2) as f64).log2())
        .snapshot_every(1.0)
        .run_on::<Simulator<_>, _>(ScannedEstimates)
        .expect("the agent-array backend runs any grid")
}

/// Runs E5, returning the `convergence_nhat.csv` / `convergence_n.csv`
/// tables.
pub fn run(scale: &Scale) -> Vec<TableSpec> {
    println!(
        "== Theorem 2.1: convergence time ({} runs/point) ==",
        scale.runs
    );

    // Band: the steady estimate is ≈ log2(k·n) = log2 n + 4; use a generous
    // constant-factor band (validity per §4.1 is far wider still).
    let band_for = |n: usize| Band::around_log_n(n, 0.5, 4.0);

    // Sweep 1: initial estimate.
    let n = if scale.full {
        100_000
    } else if scale.smoke {
        128
    } else {
        2_000
    };
    // All sweep values lie *outside* the validity band (otherwise the
    // convergence time is trivially zero — an over-estimate inside the
    // band is already a valid configuration).
    let estimates: &[u64] = if scale.full {
        &[60, 120, 240, 480, 960]
    } else if scale.smoke {
        &[60]
    } else {
        &[60, 120, 240]
    };
    println!("-- convergence vs initial estimate (n = {n}) --");
    let mut table = Table::new(vec!["log n-hat", "mean conv. time", "per unit"]);
    let mut csv_nhat = TableSpec::new(
        "convergence_nhat.csv",
        &["log_nhat", "mean_convergence_time", "converged_runs"],
    );
    let protocol = crate::paper_protocol();
    for &e0 in estimates {
        let horizon = 40.0 * e0 as f64 + 500.0;
        let results = crate::sweep_of(scale, protocol)
            .populations([n])
            .horizon(horizon)
            .snapshot_every(5.0)
            .init_with(move |_i| protocol.state_with_estimate(e0))
            .run_on::<Simulator<_>, _>(ScannedEstimates)
            .expect("the agent-array backend runs any grid");
        let times: Vec<f64> = results.cells[0]
            .runs()
            .filter_map(|r| convergence_time(r, band_for(n)))
            .collect();
        let mean_t = mean(&times).unwrap_or(f64::NAN);
        table.row(vec![e0.to_string(), f2(mean_t), f2(mean_t / e0 as f64)]);
        csv_nhat.push(vec![
            e0.to_string(),
            format!("{mean_t}"),
            times.len().to_string(),
        ]);
    }
    table.print();

    // Sweep 2: population size — one grid, one parallel batch.
    let exps: &[u32] = if scale.full {
        &[7, 9, 11, 13, 15, 17]
    } else if scale.smoke {
        &[5, 6]
    } else {
        &[7, 9, 11, 13]
    };
    println!("-- convergence vs population size (fresh init) --");
    let results = population_sweep(scale, exps);
    let mut table = Table::new(vec!["n", "log2 n", "mean conv. time", "per log n"]);
    let mut csv_n = TableSpec::new(
        "convergence_n.csv",
        &["n", "mean_convergence_time", "converged_runs"],
    );
    for (cell, &exp) in results.cells.iter().zip(exps) {
        let n = cell.n;
        debug_assert_eq!(n, 1usize << exp);
        let times: Vec<f64> = cell
            .runs()
            .filter_map(|r| convergence_time(r, band_for(n)))
            .collect();
        let mean_t = mean(&times).unwrap_or(f64::NAN);
        table.row(vec![
            format!("2^{exp}"),
            f2(log2n(n)),
            f2(mean_t),
            f2(mean_t / log2n(n)),
        ]);
        csv_n.push(vec![
            n.to_string(),
            format!("{mean_t}"),
            times.len().to_string(),
        ]);
    }
    table.print();
    vec![csv_nhat, csv_n]
}
