//! E12: the paper's asymptotic regime on the batched (tau-leaping)
//! backend.
//!
//! The paper's guarantees are asymptotic — the O(log n) epidemic window of
//! Lemma 4.2 only *looks* logarithmic when n spans many orders of
//! magnitude — yet exact per-interaction stepping tops out around n ≈ 10⁶.
//! This experiment sweeps the Infection substrate on the
//! [`BatchedCountSimulator`] up to n = 2³⁰ (> 10⁹ at `--full`), checking
//! that mean completion time stays inside the Lemma 4.2 window at every
//! scale, and runs a count-backend control at a shared matched n so the
//! batching approximation is audited against exact dynamics in the same
//! table (completion-window agreement, the distribution-level contract —
//! trajectories are *not* comparable above the batching threshold; see the
//! `pp_sim::batched_sim` module docs).
//!
//! No wall-clock time is recorded here: table rows must stay bit-identical
//! across worker thread counts.

use crate::{f2, log2n, Scale};
use pp_analysis::TableSpec;
use pp_protocols::Infection;
use pp_sim::{BatchedCountSimulator, CountSimulator, RunResult, ScannedEstimates, Sweep};

/// Parallel time at which a run's epidemic first covered the population.
fn completion_time(run: &RunResult) -> Option<f64> {
    run.snapshots
        .iter()
        .find(|s| s.estimates.is_some_and(|e| e.without_estimate == 0))
        .map(|s| s.parallel_time)
}

/// Lemma 4.2 epidemic window for k = 1, in parallel time.
fn bound_of(n: usize) -> f64 {
    4.0 * 2.0 * log2n(n)
}

/// Runs E12, returning the `batched.csv` table.
pub fn run(scale: &Scale) -> Vec<TableSpec> {
    println!("== Batched count dynamics: Lemma 4.2 at asymptotic scale ==");
    let mut csv = TableSpec::new(
        "batched.csv",
        &[
            "backend",
            "n",
            "mean_completion_pt",
            "bound_pt",
            "violations",
        ],
    );
    // The largest exact-control population is shared with the batched grid
    // so the two completion distributions are directly comparable.
    let (batched_exps, control_exp, runs): (&[u32], u32, usize) = if scale.smoke {
        (&[12, 16], 12, 2)
    } else if scale.full {
        // 2^30 ≈ 1.07·10⁹ — the paper's asymptotic regime.
        (&[16, 20, 24, 30], 16, 8)
    } else {
        (&[16, 20, 24], 16, 8)
    };

    let sweep = |populations: Vec<usize>, seed_offset: u64| {
        Sweep::new(Infection::new())
            .populations(populations)
            .runs(runs)
            .master_seed(scale.seed + seed_offset)
            .threads(scale.threads)
            .horizon_with(|n| bound_of(n) + 1.0)
            .snapshot_every(1.0)
            .init_counts(|n| vec![n - 1, 1])
    };

    let mut emit = |backend: &str, cell: &pp_sim::SweepCell| {
        let bound = bound_of(cell.n);
        let mut total = 0.0;
        let mut violations = 0;
        for run in &cell.runs {
            // The horizon already extends past the bound, so an
            // incomplete run counts as a violation at the horizon.
            let t = completion_time(run).unwrap_or(bound + 1.0);
            if t > bound {
                violations += 1;
            }
            total += t;
        }
        let mean = total / cell.runs.len() as f64;
        csv.push(vec![
            backend.into(),
            cell.n.to_string(),
            f2(mean),
            f2(bound),
            violations.to_string(),
        ]);
    };

    let batched = sweep(batched_exps.iter().map(|&e| 1usize << e).collect(), 0)
        .run_on::<BatchedCountSimulator<_>, _>(ScannedEstimates)
        .expect("a counts-initialized static grid fits the batched backend");
    for cell in &batched.cells {
        emit("batched-count", cell);
    }
    let control = sweep(vec![1usize << control_exp], 1)
        .run_on::<CountSimulator<_>, _>(ScannedEstimates)
        .expect("a counts-initialized static grid fits the count backend");
    for cell in &control.cells {
        emit("count", cell);
    }
    vec![csv]
}
