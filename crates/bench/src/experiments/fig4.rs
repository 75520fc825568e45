//! E3 / Figure 4: adaptation to a population crash.
//!
//! Paper setup: n ∈ {10^3, 10^4, 10^5, 10^6}; at parallel time 1350 the
//! adversary removes all but 500 agents; 5000 parallel time horizon. All
//! population sizes run as one [`Sweep`](pp_sim::Sweep) grid under the
//! crash schedule.
//!
//! Expected shape (paper Fig. 4): estimates converge to ≈ `log2(k·n)`,
//! stay flat until t = 1350, then drop within a few rounds towards
//! ≈ `log2(k·500) ≈ 13`, with wider min/max bands after the crash (the
//! decimated population deviates more — the paper notes this matches its
//! Fig. 3 findings). The drop is bigger, hence more visible, for larger n.

use crate::{f2, log2n, Scale};
use pp_analysis::{render_band, PooledSeries, TableSpec};
use pp_sim::{AdversarySchedule, PopulationEvent, ScannedEstimates, Simulator};

/// Runs E3, returning one `fig4_nE.csv` table per population size.
pub fn run(scale: &Scale) -> Vec<TableSpec> {
    // The paper's crash time and survivor count; the smoke preset shrinks
    // the whole scenario so CI proves the pipeline in milliseconds.
    let (exps, crash_at, survivors, horizon): (&[u32], f64, usize, f64) = if scale.smoke {
        (&[2], 40.0, 16, 150.0)
    } else if scale.full {
        (&[3, 4, 5, 6], 1_350.0, 500, 5_000.0)
    } else {
        (&[3, 4], 1_350.0, 500, 3_000.0)
    };
    println!(
        "== Fig. 4: all but {survivors} agents removed at t = {crash_at} ({} runs) ==",
        scale.runs
    );

    let schedule = AdversarySchedule::new().at(crash_at, PopulationEvent::ResizeTo(survivors));
    let results = crate::sweep_of(scale, crate::paper_protocol())
        .populations(exps.iter().map(|&e| 10usize.pow(e)))
        .schedule("crash", schedule)
        .horizon(horizon)
        .snapshot_every(if scale.smoke { 2.0 } else { 5.0 })
        .run_on::<Simulator<_>, _>(ScannedEstimates)
        .expect("the agent-array backend runs any grid");

    let mut tables = Vec::new();
    for (&exp, cell) in exps.iter().zip(results.cells_for_schedule("crash")) {
        let pooled = PooledSeries::pool(&cell.runs);
        print!(
            "{}",
            render_band(
                &format!(
                    "n = 10^{exp}  [log2(n) = {}, post-crash log2({survivors}) = {}]",
                    f2(log2n(cell.n)),
                    f2(log2n(survivors))
                ),
                &pooled
            )
        );

        // Quantify the drop: median estimate just before the crash vs at the end.
        let before = pooled
            .window(crash_at - 200.0, crash_at)
            .last()
            .map(|p| p.median);
        let after = pooled.points.last().map(|p| p.median);
        if let (Some(b), Some(a)) = (before, after) {
            println!(
                "  median before crash: {}  after: {}  (drop {})",
                f2(b),
                f2(a),
                f2(b - a)
            );
        }

        tables.push(pooled.table(format!("fig4_n1e{exp}.csv")));
    }
    tables
}
