//! E2 / Figure 3: relative deviation from `log2 n` across population sizes.
//!
//! Paper setup: n = 10^1, 10^2, …, 10^6; per n the min/median/max of
//! `estimate / log2 n` over converged runs. All population sizes run as
//! **one** [`Sweep`](pp_sim::Sweep) grid — the flat task list keeps every
//! core busy across sizes instead of draining the pool per point.
//!
//! Expected shape (paper Fig. 3): the maximum deviation starts large
//! (≈ 4–5× at n = 10) and falls towards ≈ 1 as n grows; the median
//! approaches 1 from above; the minimum sits slightly below/at 1. Small
//! populations overshoot because the max of k·n GRVs exceeds `log2 n` by
//! `log2 k + O(1)`, which is huge relative to `log2 10`.

use crate::{f2, log2n, Scale};
use pp_analysis::{relative_deviation, Table, TableSpec};
use pp_sim::{ScannedEstimates, Simulator};

/// Runs E2, returning the `fig3.csv` table.
pub fn run(scale: &Scale) -> Vec<TableSpec> {
    let (max_exp, horizon) = if scale.smoke {
        (2, 200.0)
    } else if scale.full {
        (6, 5_000.0)
    } else {
        (4, 1_000.0)
    };
    let warmup = horizon / 2.0;
    println!(
        "== Fig. 3: relative deviation from log n (n = 10^1..10^{max_exp}, {} runs) ==",
        scale.runs
    );

    let results = crate::sweep_of(scale, crate::paper_protocol())
        .populations((1..=max_exp).map(|e| 10usize.pow(e)))
        .horizon(horizon)
        .snapshot_every(5.0)
        .run_on::<Simulator<_>, _>(ScannedEstimates)
        .expect("the agent-array backend runs any grid");

    let mut table = Table::new(vec!["n", "log2(n)", "min", "median", "max"]);
    let mut csv = TableSpec::new("fig3.csv", &["n", "min", "median", "max"]);
    for (exp, cell) in (1..=max_exp).zip(results.cells_for_schedule("static")) {
        let n = cell.n;
        let dev = relative_deviation(&cell.runs, n, warmup).expect("estimates in window");
        table.row(vec![
            format!("10^{exp}"),
            f2(log2n(n)),
            f2(dev.min),
            f2(dev.median),
            f2(dev.max),
        ]);
        csv.push(vec![
            n.to_string(),
            format!("{}", dev.min),
            format!("{}", dev.median),
            format!("{}", dev.max),
        ]);
    }
    table.print();
    vec![csv]
}
