//! E15: fault-injection scenarios from the built-in trace catalog.
//!
//! The adversary model (Doty & Eftekhari 2022, the paper's §3 setting)
//! allows arbitrary timed churn; the figures exercise it with single
//! hand-placed events (Fig. 4's one crash). This experiment runs the
//! declarative [`ScenarioTrace`] catalog — ramps, diurnal cycles, flash
//! crowds, correlated crash bursts, and targeted highest-estimate
//! removal campaigns — on the Infection substrate over the batched
//! backend, and reports whether the epidemic re-covers the population
//! once the churn window closes.
//!
//! The targeted `RemoveLargestEstimates` campaign is the interesting row:
//! unlike uniform churn (which scales the infected count proportionally
//! and recovers), a poacher striking the highest estimates removes the
//! infected agents *first* and can extinguish the epidemic outright —
//! the adversarial asymmetry the Doty–Eftekhari model is about. Its
//! `recovered` column is expected to trail the uniform traces.
//!
//! Traces compile per cell through the Sweep seed chain, so rows are
//! bit-identical across `--threads`, same as every other experiment.

use crate::{f2, log2n, Scale};
use pp_analysis::{Table, TableSpec};
use pp_protocols::Infection;
use pp_sim::{BatchedCountSimulator, ScannedEstimates, ScenarioTrace, Sweep, BUILTIN_TRACES};

/// Lemma 4.2 epidemic window for k = 1, in parallel time: the
/// re-convergence budget we grant after the churn window closes.
fn recovery_bound(n: usize) -> f64 {
    4.0 * 2.0 * log2n(n)
}

/// Runs E15, returning the `scenario.csv` table.
///
/// # Panics
///
/// Panics if `--trace` names an unknown trace.
pub fn run(scale: &Scale) -> Vec<TableSpec> {
    println!("== Scenario traces: churn catalog on the batched backend ==");
    let names: Vec<&str> = match &scale.trace {
        Some(name) => vec![BUILTIN_TRACES
            .iter()
            .copied()
            .find(|t| t == name)
            .unwrap_or_else(|| panic!("unknown trace {name:?}; built-ins: {BUILTIN_TRACES:?}"))],
        None => BUILTIN_TRACES.to_vec(),
    };
    let traces: Vec<(&str, ScenarioTrace)> = names
        .iter()
        .map(|&n| (n, pp_sim::scenario::builtin(n).expect("catalog name")))
        .collect();
    let churn_end = traces
        .iter()
        .map(|(_, t)| t.end_time())
        .fold(0.0f64, f64::max);

    let populations: Vec<usize> = if scale.smoke {
        vec![1 << 12]
    } else if scale.full {
        vec![1 << 16, 1 << 20, 1 << 24]
    } else {
        vec![1 << 16]
    };

    let mut sweep = Sweep::new(Infection::new())
        .populations(populations)
        .runs(scale.runs)
        .master_seed(scale.seed)
        .threads(scale.threads)
        // Every trace gets the full Lemma 4.2 window after the last
        // possible churn event to re-cover the (possibly grown) population.
        .horizon_with(move |n| churn_end + recovery_bound(4 * n) + 1.0)
        .snapshot_every(1.0)
        .init_counts(|n| vec![n - 1, 1]);
    for (name, trace) in &traces {
        sweep = sweep.scenario(*name, trace.clone());
    }
    let results = sweep
        .run_on::<BatchedCountSimulator<_>, _>(ScannedEstimates)
        .expect("the catalog compiles for every population in the grid");

    let mut csv = TableSpec::new(
        "scenario.csv",
        &[
            "trace",
            "n",
            "churn_end_pt",
            "final_n",
            "recovered",
            "runs",
            "mean_recovery_pt",
        ],
    );
    let mut table = Table::new(vec![
        "trace",
        "n",
        "churn end (pt)",
        "final n",
        "recovered",
        "mean recovery (pt)",
    ]);
    for cell in &results.cells {
        let end = traces[cell.schedule_index].1.end_time();
        let horizon = cell
            .runs
            .first()
            .and_then(|r| r.snapshots.last())
            .map_or(0.0, |s| s.parallel_time);
        let mut recovered = 0usize;
        let mut total_recovery = 0.0;
        for run in &cell.runs {
            // First post-churn snapshot with full coverage; a run that
            // never re-covers (a poacher kill) charges the horizon.
            let t = run
                .snapshots
                .iter()
                .find(|s| {
                    s.parallel_time >= end && s.estimates.is_some_and(|e| e.without_estimate == 0)
                })
                .map(|s| s.parallel_time);
            if let Some(t) = t {
                recovered += 1;
                total_recovery += t;
            } else {
                total_recovery += horizon;
            }
        }
        let mean_recovery = total_recovery / cell.runs.len() as f64;
        // All runs of a cell share the compiled schedule, so final_n is
        // per-cell, not per-run.
        let final_n = cell.runs.first().map_or(0, |r| r.final_n);
        table.row(vec![
            cell.schedule.clone(),
            cell.n.to_string(),
            f2(end),
            final_n.to_string(),
            format!("{recovered}/{}", cell.runs.len()),
            f2(mean_recovery),
        ]);
        csv.push(vec![
            cell.schedule.clone(),
            cell.n.to_string(),
            f2(end),
            final_n.to_string(),
            recovered.to_string(),
            cell.runs.len().to_string(),
            f2(mean_recovery),
        ]);
    }
    table.print();
    vec![csv]
}
