//! E4 / Figure 5 (appendix): recovery from an initial over-estimate of 60.
//!
//! Paper setup: every agent starts with `max = lastMax = 60`
//! (`time = τ1·60`), n = 10^1 … 10^6, 5000 parallel time. The seeded
//! initial configuration rides the [`Sweep`](pp_sim::Sweep) init hook, so
//! every population size runs from one flat grid.
//!
//! Expected shape (paper Fig. 5): the estimate stays pinned at 60 for a
//! time proportional to the over-estimate (the countdown must elapse before
//! the population forgets it — the `O(log n̂)` term of Theorem 2.1), then
//! drops to the usual ≈ `log2(k·n)` band. For small populations the descent
//! dominates the plot ("for small population sizes the initial estimate
//! indeed dominates the convergence time"); for large n the drop happens
//! comparatively early and the long flat band follows.

use crate::{f2, log2n, Scale};
use pp_analysis::{render_band, PooledSeries, TableSpec};
use pp_sim::{ScannedEstimates, Simulator};

/// The appendix's initial estimate.
const INITIAL_ESTIMATE: u64 = 60;

/// Runs E4, returning one `fig5_nE.csv` table per population size.
pub fn run(scale: &Scale) -> Vec<TableSpec> {
    let (exps, horizon): (&[u32], f64) = if scale.smoke {
        // Long enough to see the descent: with a planted 60 the median
        // drops below 54 at about 1400 pt (n = 10) and 1700 pt (n = 100).
        (&[1, 2], 2_500.0)
    } else if scale.full {
        (&[1, 2, 3, 4, 5, 6], 5_000.0)
    } else {
        // The descent structure needs the paper's horizon even at laptop n.
        (&[1, 2, 3, 4], 5_000.0)
    };
    println!(
        "== Fig. 5: initial estimate {INITIAL_ESTIMATE} (n = 10^1..10^{}, {} runs) ==",
        exps.last().unwrap(),
        scale.runs
    );

    let protocol = crate::paper_protocol();
    let results = crate::sweep_of(scale, protocol)
        .populations(exps.iter().map(|&e| 10usize.pow(e)))
        .horizon(horizon)
        .snapshot_every(if scale.smoke { 2.0 } else { 5.0 })
        .init_with(move |_i| protocol.state_with_estimate(INITIAL_ESTIMATE))
        .run_on::<Simulator<_>, _>(ScannedEstimates)
        .expect("the agent-array backend runs any grid");

    let mut tables = Vec::new();
    for (&exp, cell) in exps.iter().zip(results.cells_for_schedule("static")) {
        let pooled = PooledSeries::pool(&cell.runs);
        print!(
            "{}",
            render_band(
                &format!("n = 10^{exp}  [log2(n) = {}]", f2(log2n(cell.n))),
                &pooled
            )
        );

        // First time the median leaves the initial estimate: the forget time.
        let forgotten = pooled
            .points
            .iter()
            .find(|p| p.median < INITIAL_ESTIMATE as f64 * 0.9)
            .map(|p| p.parallel_time);
        match forgotten {
            Some(t) => println!("  initial estimate forgotten at t ≈ {}", f2(t)),
            None => println!("  initial estimate never forgotten within the horizon"),
        }

        tables.push(pooled.table(format!("fig5_n1e{exp}.csv")));
    }
    tables
}
