//! Batch-vs-exact equivalence for the tau-leaping backend.
//!
//! Above its exact-fallback threshold the batched backend is a
//! distribution-level approximation, so these tests compare the
//! *statistics* the paper's lemmas bound — epidemic completion windows
//! (Lemma 4.2) and CHVP decay bands (Lemmas 4.3/4.4) — between matched
//! count and batched sweeps, never trajectories. Below the threshold the
//! batched backend steps exactly, and the tests pin bit-identical
//! trajectories there, adversary events included.

use dynamic_size_counting::protocols::{BoundedChvp, Infection};
use dynamic_size_counting::sim::batched_sim::EXACT_POPULATION_THRESHOLD;
use dynamic_size_counting::sim::scenario::TraceSegment;
use dynamic_size_counting::sim::{
    AdversarySchedule, BatchedCountSimulator, CountSimulator, PopulationEvent, ScenarioTrace,
    Sweep, SweepResults, TrackedEstimates,
};

fn log2n(n: usize) -> f64 {
    (n as f64).log2()
}

/// First snapshot time at which every agent holds an estimate.
fn completion_time(run: &dynamic_size_counting::sim::RunResult) -> Option<f64> {
    run.snapshots
        .iter()
        .find(|s| s.estimates.is_some_and(|e| e.without_estimate == 0))
        .map(|s| s.parallel_time)
}

/// Mean completion time over every run of a single-cell sweep.
fn mean_completion(results: &SweepResults) -> f64 {
    let runs = &results.cells[0].runs;
    let times: Vec<f64> = runs
        .iter()
        .map(|r| completion_time(r).expect("run must complete within the horizon"))
        .collect();
    times.iter().sum::<f64>() / times.len() as f64
}

fn infection_sweep(n: usize, master_seed: u64) -> Sweep<Infection> {
    Sweep::new(Infection::new())
        .populations([n])
        .runs(12)
        .master_seed(master_seed)
        .horizon(8.0 * log2n(n))
        .snapshot_every(1.0)
        .init_counts(|n| vec![n - 1, 1])
}

#[test]
fn infection_completion_distribution_matches_count_backend() {
    // Well above the exact threshold, so batching genuinely engages.
    let n = 1 << 14;
    let counted = mean_completion(
        &infection_sweep(n, 41)
            .run_on::<CountSimulator<_>, _>(TrackedEstimates)
            .unwrap(),
    );
    let batched = mean_completion(
        &infection_sweep(n, 42)
            .run_on::<BatchedCountSimulator<_>, _>(TrackedEstimates)
            .unwrap(),
    );
    let ratio = batched / counted;
    assert!(
        (0.85..1.18).contains(&ratio),
        "completion means disagree: count {counted:.1} vs batched {batched:.1} (ratio {ratio:.2})"
    );
    // Both sit inside the Lemma 4.2 window (k = 1): O(log n) with the
    // one-way-spread constant, bracketed as in the registry experiments.
    let bound = 8.0 * log2n(n);
    assert!(counted < bound && batched < bound);
}

#[test]
fn chvp_decay_bands_agree_between_backends() {
    // Lemmas 4.3/4.4: the max value decays inside a deterministic-width
    // window, so at a fixed readout time the estimate bands of matched
    // sweeps must overlap tightly — the same ±tolerance the agent/count
    // cross-check uses.
    let n = 1 << 14;
    let start = 100u32;
    let readout = 40.0;
    let sweep = |seed| {
        Sweep::new(BoundedChvp::new(start))
            .populations([n])
            .runs(8)
            .master_seed(seed)
            .horizon(readout)
            .snapshot_every(readout)
            .init_counts(move |n| {
                let mut counts = vec![0u64; start as usize + 1];
                counts[start as usize] = n;
                counts
            })
    };
    let band = |results: &SweepResults| {
        let runs = &results.cells[0].runs;
        runs.iter()
            .map(|r| r.snapshots.last().unwrap().estimates.unwrap().max)
            .sum::<f64>()
            / runs.len() as f64
    };
    let counted = band(
        &sweep(51)
            .run_on::<CountSimulator<_>, _>(TrackedEstimates)
            .unwrap(),
    );
    let batched = band(
        &sweep(52)
            .run_on::<BatchedCountSimulator<_>, _>(TrackedEstimates)
            .unwrap(),
    );
    assert!(
        (counted - batched).abs() <= 25.0,
        "CHVP decay bands diverged: count max {counted:.1} vs batched max {batched:.1}"
    );
    assert!(counted < f64::from(start) && batched < f64::from(start));
}

#[test]
fn below_threshold_batched_sweep_is_trajectory_identical_to_count() {
    // Populations at or below EXACT_POPULATION_THRESHOLD never batch:
    // the same seeds must reproduce the count backend's runs snapshot for
    // snapshot, through every adversary event shape.
    let threshold = EXACT_POPULATION_THRESHOLD as usize;
    let sweep = || {
        Sweep::new(Infection::new())
            .populations([512, threshold])
            .schedule("static", AdversarySchedule::new())
            .schedule(
                "churn",
                AdversarySchedule::new()
                    .at(2.0, PopulationEvent::RemoveUniform(100))
                    .at(4.0, PopulationEvent::Add(50))
                    .at(6.0, PopulationEvent::ResizeTo(256))
                    .at(8.0, PopulationEvent::RemoveLargestEstimates(10)),
            )
            .runs(3)
            .master_seed(61)
            .horizon(10.0)
            .init_counts(|n| vec![n - 1, 1])
    };
    let counted = sweep()
        .run_on::<CountSimulator<_>, _>(TrackedEstimates)
        .unwrap();
    let batched = sweep()
        .run_on::<BatchedCountSimulator<_>, _>(TrackedEstimates)
        .unwrap();
    assert_eq!(
        counted.cells, batched.cells,
        "below the exact threshold the batched backend must replay the count backend bit for bit"
    );

    // The lemmas' 401-state CHVP, started spread over three values so the
    // occupied window opens well above state 0 and then drifts and narrows.
    let chvp = || {
        Sweep::new(BoundedChvp::new(400))
            .populations([512, threshold])
            .schedule("static", AdversarySchedule::new())
            .schedule(
                "churn",
                AdversarySchedule::new()
                    .at(2.0, PopulationEvent::RemoveUniform(100))
                    .at(4.0, PopulationEvent::Add(50))
                    .at(6.0, PopulationEvent::RemoveLargestEstimates(10)),
            )
            .runs(2)
            .master_seed(62)
            .horizon(10.0)
            .init_counts(|n| {
                let mut counts = vec![0u64; 401];
                counts[37] = n / 4;
                counts[200] = n / 4;
                counts[400] = n - 2 * (n / 4);
                counts
            })
    };
    assert_eq!(
        chvp()
            .run_on::<CountSimulator<_>, _>(TrackedEstimates)
            .unwrap()
            .cells,
        chvp()
            .run_on::<BatchedCountSimulator<_>, _>(TrackedEstimates)
            .unwrap()
            .cells,
        "the 401-state CHVP cell must replay the count backend bit for bit"
    );
}

#[test]
fn crash_trace_completion_bands_agree_across_backends_at_scale() {
    // Adversary coverage far above EXACT_POPULATION_THRESHOLD: a
    // crash-burst trace at n = 10⁷ (batched, so tau-leaping genuinely
    // carries the adversary events) against a matched count-backend
    // control at n = 2·10⁴, each judged against the Lemma 4.2 window of
    // its *own* population.
    //
    // Why the window survives the bursts: uniform removals preserve the
    // infected fraction in expectation, and Lemma 4.2's epidemic argument
    // bounds the time to grow the infected *fraction* — shrinking n only
    // shortens the remaining work. The bursts start at t = 4, by when the
    // infected count is ≈ e⁴ ≈ 50, so a 30% uniform burst extinguishing
    // the epidemic (probability ≈ 0.3⁵⁰) is not a realistic flake source.
    let trace = ScenarioTrace::new().segment(TraceSegment::CrashBursts {
        start: 4.0,
        end: 10.0,
        bursts: 2,
        fraction: 0.3,
        volley: 2,
        spacing: 0.25,
    });
    let sweep = |n: usize, seed: u64| {
        Sweep::new(Infection::new())
            .populations([n])
            .scenario("bursts", trace.clone())
            .runs(8)
            .master_seed(seed)
            .horizon(8.0 * log2n(n))
            .snapshot_every(1.0)
            .init_counts(|n| vec![n - 1, 1])
    };
    let batched_n = 10_000_000;
    let counted_n = 20_000;
    let batched = sweep(batched_n, 81)
        .run_on::<BatchedCountSimulator<_>, _>(TrackedEstimates)
        .unwrap();
    let counted = sweep(counted_n, 82)
        .run_on::<CountSimulator<_>, _>(TrackedEstimates)
        .unwrap();
    for (results, n) in [(&batched, batched_n), (&counted, counted_n)] {
        for run in &results.cells[0].runs {
            let t = completion_time(run).expect("epidemic completes despite the bursts");
            assert!(
                t <= 8.0 * log2n(n),
                "completion at {t:.1} pt breaks the Lemma 4.2 window for n = {n}"
            );
        }
    }
    // Lemma 4.2 (k = 1) brackets one-way completion between log2 n and
    // 8·log2 n parallel time, i.e. normalized completion ∈ [1, 8] with
    // width Δ = 7. Two faithful backends sampling the same distribution
    // must land well inside a Δ/4 = 1.75 agreement margin; a systematic
    // batching bias would push the 10⁷-agent mean outside it.
    let normalized_batched = mean_completion(&batched) / log2n(batched_n);
    let normalized_counted = mean_completion(&counted) / log2n(counted_n);
    assert!(
        (normalized_batched - normalized_counted).abs() <= 1.75,
        "normalized completion diverged: batched {normalized_batched:.2} vs count {normalized_counted:.2}"
    );
}

#[test]
fn crossing_the_threshold_mid_run_stays_consistent() {
    // Start above the threshold (batching active), crash below it
    // (exact stepping takes over): population accounting and estimates
    // must stay coherent across the regime switch.
    let n = 4 * EXACT_POPULATION_THRESHOLD as usize;
    let survivors = EXACT_POPULATION_THRESHOLD as usize / 2;
    let r = Sweep::new(Infection::new())
        .populations([n])
        .schedule(
            "crash",
            // By t = 10 roughly 2^10 agents are infected, so the 8× crash
            // cannot plausibly extinguish the epidemic.
            AdversarySchedule::new().at(10.0, PopulationEvent::ResizeTo(survivors)),
        )
        .runs(4)
        .master_seed(71)
        .horizon(8.0 * log2n(n))
        .snapshot_every(1.0)
        .init_counts(|n| vec![n - 1, 1])
        .run_on::<BatchedCountSimulator<_>, _>(TrackedEstimates)
        .unwrap();
    for run in &r.cells[0].runs {
        assert_eq!(run.final_n, survivors);
        assert!(
            completion_time(run).is_some(),
            "epidemic must still complete after the crash"
        );
        for s in &run.snapshots {
            assert!(s.n == n || s.n == survivors, "no phantom population sizes");
        }
    }
}
