//! E1 / Figure 2: size estimate over time in a fresh system.
//!
//! Paper setup: n = 10^6 agents, initially "empty" (every agent in the
//! fresh joined state), 5000 parallel time, 96 runs; plotted are the
//! minimum, median, and maximum of all estimates per snapshot, against the
//! reference line `log2 n`.
//!
//! Expected shape (paper Fig. 2): a fast ramp from 1 to ≈ `log2(k·n)`
//! within tens of parallel time, then a long, flat band with small
//! oscillation — the holding phase. With k = 16 the estimates settle a
//! few units *above* `log2 n` (the maximum of k·n GRVs concentrates around
//! `log2(k·n) ≈ log2 n + 4`), matching the paper's plot where the band
//! sits slightly above the reference line.

use crate::{f2, log2n, Scale};
use pp_analysis::{render_band, PooledSeries, TableSpec};
use pp_sim::{ScannedEstimates, Simulator};

/// Runs E1, returning the `fig2.csv` table.
pub fn run(scale: &Scale) -> Vec<TableSpec> {
    let (n, horizon) = if scale.smoke {
        (128, 120.0)
    } else if scale.full {
        (1_000_000, 5_000.0)
    } else {
        (20_000, 1_500.0)
    };
    let snapshot_every = if scale.full { 5.0 } else { 1.0 };
    println!(
        "== Fig. 2: estimate of log n over time (n = {n}, {} runs) ==",
        scale.runs
    );

    let results = crate::sweep_of(scale, crate::paper_protocol())
        .populations([n])
        .horizon(horizon)
        .snapshot_every(snapshot_every)
        .run_on::<Simulator<_>, _>(ScannedEstimates)
        .expect("the agent-array backend runs any grid");
    let pooled = PooledSeries::pool(&results.cells[0].runs);

    print!(
        "{}",
        render_band(
            &format!("estimate of log n   [reference log2(n) = {}]", f2(log2n(n))),
            &pooled
        )
    );
    vec![pooled.table("fig2.csv")]
}
