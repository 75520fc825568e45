//! The dynamic setting: the estimate adapts when the adversary changes the
//! population (the paper's headline property and its Fig. 4).

use dynamic_size_counting::dsc::{DscConfig, DynamicSizeCounting};
use dynamic_size_counting::sim::{
    AdversarySchedule, Experiment, PopulationEvent, RunResult, Simulator, TrackedEstimates,
};

fn protocol() -> DynamicSizeCounting {
    DynamicSizeCounting::new(DscConfig::empirical())
}

fn median_at(r: &RunResult, t: f64) -> f64 {
    r.snapshot_at(t).estimates.expect("estimates").median
}

/// Median of the snapshot medians over a time window — smooths the ±2
/// per-round fluctuation of max-of-GRV estimates at small populations.
fn windowed_median(r: &RunResult, from: f64, to: f64) -> f64 {
    let samples: Vec<f64> = r
        .snapshots
        .iter()
        .filter(|s| s.parallel_time >= from && s.parallel_time <= to)
        .filter_map(|s| s.estimates.map(|e| e.median))
        .collect();
    pp_analysis::median(&samples).expect("samples in window")
}

#[test]
fn estimate_drops_after_crash() {
    // 8192 → 32: log2 drops by 8; the estimate must follow within a few
    // rounds (round ≈ 15·τ1·log n ≈ 250 parallel time here).
    let result = Experiment::new(protocol(), 8_192)
        .seed(11)
        .horizon(2_600.0)
        .snapshot_every(10.0)
        .schedule(AdversarySchedule::new().at(600.0, PopulationEvent::ResizeTo(32)))
        .run_on::<Simulator<_>, _>(TrackedEstimates)
        .unwrap();
    let before = windowed_median(&result, 400.0, 590.0);
    let after = windowed_median(&result, 2_100.0, 2_600.0);
    assert!(
        before >= 14.0,
        "pre-crash estimate should be ≈ log2(16·8192) = 17, got {before}"
    );
    assert!(
        after <= before - 4.0,
        "estimate must adapt downward: {before} -> {after}"
    );
    assert!(
        after <= 3.0 * 5.0,
        "post-crash estimate {after} should be within 3× log2(32) = 5"
    );
}

#[test]
fn estimate_rises_after_growth() {
    let result = Experiment::new(protocol(), 64)
        .seed(12)
        .horizon(1_500.0)
        .snapshot_every(10.0)
        .schedule(AdversarySchedule::new().at(400.0, PopulationEvent::Add(16_320)))
        .run_on::<Simulator<_>, _>(TrackedEstimates)
        .unwrap();
    let before = median_at(&result, 390.0);
    let after = median_at(&result, 1_490.0);
    assert!(
        after >= before + 2.0,
        "estimate must adapt upward after 64 → 16384: {before} -> {after}"
    );
}

#[test]
fn adversarial_removal_of_largest_estimates_recovers() {
    // The poacher variant: removing exactly the agents with the largest
    // estimates is the worst case for max-based estimates — the protocol
    // must re-converge among the survivors.
    let result = Experiment::new(protocol(), 4_096)
        .seed(13)
        .horizon(2_500.0)
        .snapshot_every(10.0)
        .schedule(
            AdversarySchedule::new().at(500.0, PopulationEvent::RemoveLargestEstimates(3_968)),
        )
        .run_on::<Simulator<_>, _>(TrackedEstimates)
        .unwrap();
    assert_eq!(result.final_n, 128);
    let after = median_at(&result, 2_490.0);
    assert!(
        (3.0..22.0).contains(&after),
        "survivors should settle near log2(16·128) = 11, got {after}"
    );
    // The survivors must have re-synchronized: min and max agree closely.
    let last = result.snapshots.last().unwrap().estimates.unwrap();
    assert!(
        last.max - last.min <= 8.0,
        "post-poaching spread too wide: [{}, {}]",
        last.min,
        last.max
    );
}

#[test]
fn repeated_oscillation_of_population_size() {
    // Grow/shrink repeatedly; the protocol should never wedge: estimates
    // keep tracking the current size direction after each change.
    let schedule = AdversarySchedule::new()
        .at(400.0, PopulationEvent::ResizeTo(4_096))
        .at(1_200.0, PopulationEvent::ResizeTo(256))
        .at(2_200.0, PopulationEvent::ResizeTo(2_048));
    let result = Experiment::new(protocol(), 256)
        .seed(14)
        .horizon(3_400.0)
        .snapshot_every(10.0)
        .schedule(schedule)
        .run_on::<Simulator<_>, _>(TrackedEstimates)
        .unwrap();
    let e_grow = median_at(&result, 1_150.0);
    let e_shrink = median_at(&result, 2_150.0);
    let e_end = median_at(&result, 3_390.0);
    assert!(
        e_grow > median_at(&result, 350.0),
        "growth 256→4096 must raise the estimate"
    );
    assert!(e_shrink < e_grow, "shrink 4096→256 must lower the estimate");
    assert!(e_end >= e_shrink, "regrowth 256→2048 must raise it again");
}

#[test]
fn lone_survivor_then_regrowth() {
    // Degenerate dynamics: shrink to below two agents (no interactions
    // possible), then regrow — the protocol must pick up where time left
    // off without panicking.
    let schedule = AdversarySchedule::new()
        .at(100.0, PopulationEvent::ResizeTo(1))
        .at(150.0, PopulationEvent::Add(511));
    let result = Experiment::new(protocol(), 512)
        .seed(15)
        .horizon(800.0)
        .snapshot_every(10.0)
        .schedule(schedule)
        .run_on::<Simulator<_>, _>(TrackedEstimates)
        .unwrap();
    assert_eq!(result.final_n, 512);
    let after = median_at(&result, 790.0);
    assert!(
        (4.0..30.0).contains(&after),
        "post-regrowth estimate should be near log2(16·512) = 13, got {after}"
    );
}
