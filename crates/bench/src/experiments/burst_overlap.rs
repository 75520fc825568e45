//! E8 / Theorem 2.2: burst/overlap structure of the phase clock.
//!
//! Records every tick (reset) of a converged population and decomposes the
//! log into bursts. Theorem 2.2 predicts, per burst: every agent ticks
//! exactly once; bursts are `Θ(n log n)` interactions apart (round length
//! `≈ τ1·estimate` parallel time); and the tick-free overlap between bursts
//! dominates the burst width (`t_{i+1} − t_i ≥ 3c·n log n` vs bursts of
//! width `2c·n log n`).
//!
//! Both clocks run as single-cell sweeps on the agent-array backend under
//! the tick-recording plan
//! (`run_on::<Simulator<_>, _>(WithTicks)` — the
//! registry's declared `estimates + ticks` recording); warm-up ticks are
//! discarded by interaction index (`t < warmup·n`), which on a static
//! population is exactly the parallel-time cutoff the seed harness
//! implemented by clearing the recorder mid-run.
//!
//! The same analysis runs on the non-uniform mod-m baseline clock — the
//! paper's uniform clock should match its structure without knowing n.

use crate::{f2, Scale};
use pp_analysis::{ClockDecomposition, ClockVerdict, TableSpec};
use pp_model::{SizeEstimator, TickProtocol};
use pp_protocols::ModMClock;
use pp_sim::{RunResult, Simulator, TickEvent, WithTicks};

fn ticked_run<P>(
    scale: &Scale,
    protocol: P,
    n: usize,
    warmup: f64,
    horizon: f64,
    salt: u64,
) -> RunResult
where
    P: SizeEstimator + TickProtocol + Clone + Send + Sync,
    P::State: Clone + Send + Sync + 'static,
{
    let mut results = crate::sweep_of(scale, protocol)
        .runs(1)
        .master_seed(scale.seed ^ salt)
        .populations([n])
        .horizon(warmup + horizon)
        // The snapshot grid is only consumed by the estimate-after-warmup
        // readout; aligning it to the warm-up time puts a snapshot at
        // exactly that instant.
        .snapshot_every(warmup)
        // Estimates are scanned per snapshot; only the tick recorder
        // hooks every interaction.
        .run_on::<Simulator<_>, _>(WithTicks)
        .expect("the agent-array backend records ticks");
    results.cells.swap_remove(0).runs.swap_remove(0)
}

fn clock_verdict(run: &RunResult, n: usize, warmup: f64) -> Option<ClockVerdict> {
    let cutoff = (warmup * n as f64) as u64;
    let events: Vec<TickEvent> = run
        .ticks
        .iter()
        .copied()
        .filter(|e| e.interaction >= cutoff)
        .collect();
    let d = ClockDecomposition::extract(&events, n);
    ClockVerdict::judge(&d, n)
}

/// Runs E8, returning the `burst_overlap.csv` table.
pub fn run(scale: &Scale) -> Vec<TableSpec> {
    let (n, horizon, warmup) = if scale.smoke {
        (128, 500.0, 60.0)
    } else if scale.full {
        (10_000, 5_000.0, 300.0)
    } else {
        (1_000, 2_000.0, 300.0)
    };
    println!("== Theorem 2.2: burst/overlap structure (n = {n}) ==");

    let dsc_run = ticked_run(scale, crate::paper_protocol(), n, warmup, horizon, 0);
    let modm_run = ticked_run(
        scale,
        ModMClock::for_population(n, 8),
        n,
        warmup,
        horizon,
        1,
    );

    let mut csv = TableSpec::new(
        "burst_overlap.csv",
        &[
            "clock",
            "perfect_bursts",
            "broken_bursts",
            "burst_width_pt",
            "overlap_pt",
            "round_pt",
        ],
    );
    let mut judge = |name: &str, v: Option<ClockVerdict>| {
        let Some(v) = v else {
            println!("  {name}: no complete bursts recorded");
            return;
        };
        csv.push(vec![
            name.to_string(),
            v.perfect_bursts.to_string(),
            v.broken_bursts.to_string(),
            format!("{}", v.mean_burst_width),
            format!("{}", v.mean_overlap),
            format!("{}", v.mean_round),
        ]);
    };
    judge("DSC (uniform)", clock_verdict(&dsc_run, n, warmup));
    judge("mod-m (non-uniform)", clock_verdict(&modm_run, n, warmup));

    // Sanity note: the estimate the DSC clock derives its round length
    // from, read from the DSC run's own snapshot grid just past the
    // warm-up.
    if let Some(s) = dsc_run
        .snapshots
        .iter()
        .find(|s| s.parallel_time >= warmup)
        .and_then(|s| s.estimates)
    {
        println!(
            "  DSC estimate after warmup: median {} (nominal round ≈ τ1·median = {})",
            f2(s.median),
            f2(6.0 * s.median)
        );
    }

    vec![csv]
}
