//! E9: baseline comparison under a population crash.
//!
//! All four counters run the same scenario — converge on `n` agents, then
//! the adversary removes all but a handful at `t_crash` — and the table
//! reports the median estimate before and after, plus a static
//! (no-adversary) control column.
//!
//! Each protocol runs one [`Sweep`](pp_sim::Sweep) grid with two labeled
//! schedules — `static` (control) and `crash` — so both scenarios fan out
//! as a single flat task list instead of separate hand-rolled run batches.
//!
//! Expected qualitative outcome (the paper's §1.2/§6 claims):
//!
//! * **DSC (the paper)** — adapts: estimate drops to the new `Θ(log n')`.
//! * **Doty–Eftekhari 2022** — adapts as well (it solves the same
//!   problem), with more memory (see E7).
//! * **static max-GRV** — stuck: the estimate is a maximum and never
//!   decreases.
//! * **BKR 2019** — whatever it output before the crash stays frozen
//!   (single leader; if the leader is among the removed, nothing can ever
//!   restart — and even with a surviving leader the protocol has already
//!   halted with a stale count).

use crate::{f2, log2n, Scale};
use pp_analysis::{PooledSeries, Table, TableSpec};
use pp_model::SizeEstimator;
use pp_protocols::{BkrCounting, De22Counting, StaticGrvCounting};
use pp_sim::{AdversarySchedule, PopulationEvent, ScannedEstimates, Simulator};

struct Scenario {
    n: usize,
    survivors: usize,
    crash_at: f64,
    horizon: f64,
}

struct Outcome {
    name: &'static str,
    before: Option<f64>,
    after: Option<f64>,
    control: Option<f64>,
    /// The protocol's own converged level on a static population of
    /// `survivors` agents — the level a perfect adapter would reach.
    target: Option<f64>,
}

fn run_one<P>(scale: &Scale, name: &'static str, protocol: P, sc: &Scenario) -> Outcome
where
    P: SizeEstimator + Clone + Send + Sync,
    P::State: Clone + Send + Sync + 'static,
{
    let crash = AdversarySchedule::new().at(sc.crash_at, PopulationEvent::ResizeTo(sc.survivors));
    // One grid per protocol: {survivors, n} × {static, crash}. The
    // (survivors, static) cell supplies the protocol's own converged level
    // at the post-crash size — the adaptation target with the protocol's
    // constant factors included. ((survivors, crash) resizes to its own
    // size, a no-op cell whose cost is negligible at that n.)
    let results = crate::sweep_of(scale, protocol)
        .populations([sc.survivors, sc.n])
        .schedule("static", AdversarySchedule::new())
        .schedule("crash", crash)
        .horizon(sc.horizon)
        .snapshot_every(10.0)
        .run_on::<Simulator<_>, _>(ScannedEstimates)
        .expect("the agent-array backend runs any grid");

    let crashed = PooledSeries::pool(&results.cell(sc.n, "crash").expect("crash cell").runs);
    let control = PooledSeries::pool(&results.cell(sc.n, "static").expect("static cell").runs);
    let target = PooledSeries::pool(
        &results
            .cell(sc.survivors, "static")
            .expect("target cell")
            .runs,
    );
    Outcome {
        name,
        before: crashed
            .window(sc.crash_at - 100.0, sc.crash_at)
            .last()
            .map(|p| p.median),
        after: crashed.points.last().map(|p| p.median),
        control: control.points.last().map(|p| p.median),
        target: target.points.last().map(|p| p.median),
    }
}

/// Runs E9, returning the `compare.csv` table.
pub fn run(scale: &Scale) -> Vec<TableSpec> {
    let sc = if scale.smoke {
        Scenario {
            n: 128,
            survivors: 16,
            crash_at: 150.0,
            // Post-crash re-convergence needs a few Θ(log n̂)-length
            // rounds; anything shorter reads the estimate mid-descent.
            horizon: 1_200.0,
        }
    } else {
        Scenario {
            n: if scale.full { 16_384 } else { 1_024 },
            survivors: 32,
            crash_at: 900.0,
            horizon: 2_500.0,
        }
    };
    println!(
        "== Baseline comparison: n = {} → {} at t = {} ({} runs) ==",
        sc.n, sc.survivors, sc.crash_at, scale.runs
    );
    println!(
        "   references: log2(n) = {}, log2(survivors) = {}",
        f2(log2n(sc.n)),
        f2(log2n(sc.survivors))
    );

    let outcomes = vec![
        run_one(scale, "DSC (paper)", crate::paper_protocol(), &sc),
        run_one(scale, "Doty-Eftekhari 2022", De22Counting::new(), &sc),
        run_one(scale, "static max-GRV", StaticGrvCounting::new(16), &sc),
        run_one(
            scale,
            "BKR 2019 (leader)",
            BkrCounting::new().with_round_factor(8),
            &sc,
        ),
    ];

    let mut table = Table::new(vec![
        "protocol",
        "median before",
        "median after",
        "static control",
        "target (n')",
        "adapts?",
    ]);
    let mut csv = TableSpec::new(
        "compare.csv",
        &[
            "protocol",
            "median_before",
            "median_after",
            "median_static_control",
            "median_target",
            "adapts",
        ],
    );
    for o in &outcomes {
        let fmt = |x: Option<f64>| x.map(f2).unwrap_or_else(|| "-".into());
        // "Adapts" = the estimate covered at least 40% of the gap from its
        // pre-crash level towards the protocol's *own* converged level on
        // a static population of `survivors` agents (the target cell), so
        // each protocol's constant-factor offset cancels out.
        let adapts = match (o.before, o.after, o.target) {
            (Some(b), Some(a), Some(t)) => {
                if b <= t + 2.0 {
                    "n/a".to_string()
                } else if (b - a) >= 0.4 * (b - t) {
                    "yes".to_string()
                } else {
                    "NO".to_string()
                }
            }
            _ => "no output".to_string(),
        };
        table.row(vec![
            o.name.to_string(),
            fmt(o.before),
            fmt(o.after),
            fmt(o.control),
            fmt(o.target),
            adapts.clone(),
        ]);
        csv.push(vec![
            o.name.to_string(),
            fmt(o.before),
            fmt(o.after),
            fmt(o.control),
            fmt(o.target),
            adapts,
        ]);
    }
    table.print();
    vec![csv]
}
