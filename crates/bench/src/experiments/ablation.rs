//! E10: ablations of the protocol's design choices.
//!
//! Each variant runs the same converge-then-crash scenario — a single-cell
//! [`Sweep`](pp_sim::Sweep) grid under the crash schedule — and measured
//! are convergence time, stability (band violations between convergence
//! and the crash), and whether the estimate adapts after the crash.
//!
//! Variants and what they probe:
//!
//! * **Algorithm 1 (simplified)** — no trailing estimate, no backup GRVs,
//!   single geometric per reset: the paper's own motivation for the
//!   additions; expect unstable phase lengths (a round that resamples only
//!   small GRVs collapses its phases, losing synchronization).
//! * **k ∈ {1, 4, 16}** — sample count per reset: smaller k gives noisier
//!   (and lower) estimates; `k = 16` is the paper's §5 choice.
//! * **τ′ = ∞ (backup disabled)** — removes lines 7–10: recovery from
//!   some adverse configurations relies on backup GRVs; the crash scenario
//!   should still work (resets dominate here), showing backup is about
//!   worst-case guarantees, not the common path.
//! * **τ triples** — scaled thresholds change round length (and hence
//!   adaptation latency) proportionally.

use crate::{f2, log2n, Scale};
use dsc_core::{DscConfig, DynamicSizeCounting, SimplifiedDynamicSizeCounting};
use pp_analysis::{convergence_time, mean, Band, PooledSeries, TableSpec};
use pp_model::SizeEstimator;
use pp_sim::{AdversarySchedule, PopulationEvent, ScannedEstimates, Simulator};

struct Scenario {
    n: usize,
    survivors: usize,
    crash_at: f64,
    horizon: f64,
}

struct Measured {
    convergence: f64,
    violations: usize,
    post_crash: Option<f64>,
}

fn measure<P>(scale: &Scale, protocol: P, sc: &Scenario) -> Measured
where
    P: SizeEstimator + Clone + Send + Sync,
    P::State: Clone + Send + Sync + 'static,
{
    let schedule =
        AdversarySchedule::new().at(sc.crash_at, PopulationEvent::ResizeTo(sc.survivors));
    let results = crate::sweep_of(scale, protocol)
        .populations([sc.n])
        .schedule("crash", schedule)
        .horizon(sc.horizon)
        .snapshot_every(5.0)
        .run_on::<Simulator<_>, _>(ScannedEstimates)
        .expect("the agent-array backend runs any grid");
    let runs = &results.cells[0].runs;
    let band = Band::around_log_n(sc.n, 0.4, 6.0);
    let conv: Vec<f64> = runs
        .iter()
        .filter_map(|r| convergence_time(r, band))
        .collect();
    let convergence = mean(&conv).unwrap_or(f64::NAN);
    // Violations: snapshots between convergence and crash outside the band.
    let mut violations = 0usize;
    for r in runs {
        let Some(c) = convergence_time(r, band) else {
            continue;
        };
        for s in &r.snapshots {
            if s.parallel_time <= c || s.parallel_time >= sc.crash_at {
                continue;
            }
            match &s.estimates {
                Some(e) if band.contains_summary(e.min, e.max) => {}
                _ => violations += 1,
            }
        }
    }
    // Post-crash adaptation: median at the horizon.
    let pooled = PooledSeries::pool(runs);
    let post_crash = pooled.points.last().map(|p| p.median);
    Measured {
        convergence,
        violations,
        post_crash,
    }
}

/// Runs E10, returning the `ablation.csv` table.
pub fn run(scale: &Scale) -> Vec<TableSpec> {
    let sc = if scale.smoke {
        Scenario {
            n: 128,
            survivors: 16,
            crash_at: 200.0,
            horizon: 600.0,
        }
    } else {
        Scenario {
            n: if scale.full { 8_192 } else { 2_048 },
            survivors: 64,
            crash_at: 800.0,
            horizon: 2_500.0,
        }
    };
    println!(
        "== Ablations (n = {} → {} at t = {}, {} runs) ==",
        sc.n, sc.survivors, sc.crash_at, scale.runs
    );
    println!(
        "   references: log2(n) = {}, log2(survivors) = {}",
        f2(log2n(sc.n)),
        f2(log2n(sc.survivors))
    );

    let base = DscConfig::empirical();
    let mut csv = TableSpec::new(
        "ablation.csv",
        &[
            "variant",
            "convergence_time",
            "violations",
            "median_after_crash",
        ],
    );
    let mut add = |name: &str, m: Measured| {
        csv.push(vec![
            name.to_string(),
            format!("{}", m.convergence),
            m.violations.to_string(),
            m.post_crash.map(f2).unwrap_or_else(|| "-".into()),
        ]);
    };

    add(
        "full (6,4,2) k=16",
        measure(scale, DynamicSizeCounting::new(base), &sc),
    );
    add(
        "Algorithm 1 (simplified)",
        measure(scale, SimplifiedDynamicSizeCounting::new(base), &sc),
    );
    add(
        "k=1",
        measure(scale, DynamicSizeCounting::new(base.with_k(1)), &sc),
    );
    add(
        "k=4",
        measure(scale, DynamicSizeCounting::new(base.with_k(4)), &sc),
    );
    add(
        "backup disabled",
        measure(
            scale,
            // The widest valid τ′: the saturating u32 interaction counter
            // can never exceed τ′·max for any max ≥ 1.
            DynamicSizeCounting::new(base.with_tau_prime(u64::from(u32::MAX))),
            &sc,
        ),
    );
    add(
        "taus (12,8,4)",
        measure(
            scale,
            DynamicSizeCounting::new(base.with_taus(12, 8, 4)),
            &sc,
        ),
    );
    add(
        "taus (3,2,1)",
        measure(
            scale,
            DynamicSizeCounting::new(base.with_taus(3, 2, 1)),
            &sc,
        ),
    );

    vec![csv]
}
