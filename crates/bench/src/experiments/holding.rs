//! E6 / Theorem 2.1 (holding): validity persists for polynomial time.
//!
//! With the paper's `k = 16` the theoretical holding time is `Ω(n^15)` —
//! unobservably long. The experiment therefore reports what *is*
//! observable: over long horizons at small n, the fraction of runs whose
//! validity never breaks (right-censored holding times). Any observed
//! break would be a counterexample signal; the expected outcome is 100%
//! censoring, i.e. every run holds for the entire horizon.
//!
//! All populations run as one [`Sweep`](pp_sim::Sweep) grid: the flat
//! task list keeps every core busy across population sizes instead of
//! draining the pool at each point boundary. The grid runs under the
//! [`pp_sim::ScannedEstimates`] plan: the long horizons (up to 10⁵
//! parallel time) pay one state scan per snapshot, every 10 time units,
//! and nothing per interaction.

use crate::Scale;
use pp_analysis::{holding_time, Band, TableSpec};
use pp_sim::{ScannedEstimates, Simulator};

/// Runs E6, returning the `holding.csv` table.
pub fn run(scale: &Scale) -> Vec<TableSpec> {
    let (ns, horizon): (&[usize], f64) = if scale.smoke {
        (&[32], 300.0)
    } else if scale.full {
        (&[64, 256, 1024], 100_000.0)
    } else {
        (&[64, 256], 20_000.0)
    };
    println!(
        "== Theorem 2.1: holding time (horizon {horizon} parallel time, {} runs) ==",
        scale.runs
    );

    let results = crate::sweep_of(scale, crate::paper_protocol())
        .populations(ns.iter().copied())
        .horizon(horizon)
        .snapshot_every(10.0)
        .run_on::<Simulator<_>, _>(ScannedEstimates)
        .expect("the agent-array backend supports every plan");

    let mut csv = TableSpec::new(
        "holding.csv",
        &["n", "converged", "held_to_horizon", "breaks", "min_held"],
    );
    for cell in results.cells_for_schedule("static") {
        let n = cell.n;
        // The §4.1 validity band (generous; see convergence.rs for the
        // tighter convergence band).
        let band = Band::around_log_n(n, 0.5, 10.0);
        let mut converged = 0usize;
        let mut censored = 0usize;
        let mut breaks = 0usize;
        let mut min_held = f64::INFINITY;
        for r in cell.runs() {
            if let Some(h) = holding_time(r, band) {
                converged += 1;
                min_held = min_held.min(h.held_for);
                if h.censored {
                    censored += 1;
                } else {
                    breaks += 1;
                }
            }
        }
        csv.push(vec![
            n.to_string(),
            converged.to_string(),
            censored.to_string(),
            breaks.to_string(),
            format!("{min_held}"),
        ]);
    }
    vec![csv]
}
