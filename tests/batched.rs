//! Substrate-specific checks of the tau-leaping backend: a budgeted CHVP
//! link to the count backend above the exact threshold (the tau-leaping
//! error depends on the protocol, and the jump ~ batched link in
//! `tests/conformance.rs` runs the epidemic only), adversary events carried
//! by batches far above the threshold, and a run that crosses the threshold
//! mid-run. The contracts it shares with the other backends are in
//! `tests/conformance.rs`.

mod common;

use common::{assert_same_distribution, completion_time};
use dynamic_size_counting::protocols::{BoundedChvp, Infection};
use dynamic_size_counting::sim::batched_sim::EXACT_POPULATION_THRESHOLD;
use dynamic_size_counting::sim::scenario::TraceSegment;
use dynamic_size_counting::sim::{
    AdversarySchedule, BatchedCountSimulator, CountSimulator, PopulationEvent, RunResult,
    ScannedEstimates, ScenarioTrace, Sweep, SweepResults,
};

/// Tau-leaping's error depends on the protocol, so the many-state CHVP is
/// compared with the exact count backend on the statistic Lemmas 4.3/4.4
/// bound: the largest value 16 pt after all n = 2¹³ agents start at 16, by
/// when it has decayed by one to four levels. One comparison at α = 0.1%,
/// K = 100 runs a side: critical D ≈ 0.28, where a bias of one level moves
/// about two thirds of the runs. A side costs about 5.8 s (count) or 1.8 s
/// (batched) in the debug test profile on a 2-core box.
#[test]
fn chvp_decay_bands_agree_between_backends() {
    let (n, start, readout) = (1usize << 13, 16usize, 16.0);
    let sweep = |seed| {
        Sweep::new(BoundedChvp::new(start as u32))
            .populations([n])
            .runs(100)
            .master_seed(seed)
            .horizon(readout)
            .snapshot_every(readout)
            .init_counts(move |n| {
                let mut counts = vec![0u64; start + 1];
                counts[start] = n;
                counts
            })
    };
    let max = |results: Result<SweepResults, _>| {
        let runs = &results.unwrap().cells[0].runs;
        let last = |r: &RunResult| r.snapshots.last().unwrap().estimates.unwrap().max;
        runs.iter().map(last).collect::<Vec<f64>>()
    };
    assert_same_distribution(
        "CHVP max at readout, batched vs count",
        &max(sweep(52).run_on::<BatchedCountSimulator<_>, _>(ScannedEstimates)),
        &max(sweep(51).run_on::<CountSimulator<_>, _>(ScannedEstimates)),
        0.001,
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
    // shortens the remaining work. A burst ends the epidemic only if it
    // removes every infected agent. From I₀ infected agents the infected
    // count at time t is close to a Yule process: a sum of I₀ independent
    // geometrics with success probability p = e^(−t). From one agent,
    // P(I(4) = 1) = e⁻⁴ ≈ 2%, and a 30% burst at t = 4 would end about
    // 0.8% of the runs. So both sweeps start from 16 infected, as the
    // suite's jump ~ batched link does. A 30% burst at t ≥ 4 then removes
    // all of them with probability E[0.3^I(4)] = (pz / (1 − (1 − p)z))¹⁶
    // at z = 0.3, p = e⁻⁴: about 2·10⁻³⁴. With two bursts, a run ends its
    // epidemic with probability below 10⁻³³.
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
            .horizon(8.0 * (n as f64).log2())
            .snapshot_every(1.0)
            .init_counts(|n| vec![n - 16, 16])
    };
    let batched_n = 10_000_000;
    let counted_n = 20_000;
    let batched = sweep(batched_n, 81)
        .run_on::<BatchedCountSimulator<_>, _>(ScannedEstimates)
        .unwrap();
    let counted = sweep(counted_n, 82)
        .run_on::<CountSimulator<_>, _>(ScannedEstimates)
        .unwrap();
    let normalized = |results: &SweepResults, n: usize| {
        let runs = &results.cells[0].runs;
        let mut sum = 0.0;
        for run in runs {
            let t = completion_time(run).expect("epidemic completes despite the bursts");
            assert!(
                t <= 8.0 * (n as f64).log2(),
                "completion at {t:.1} pt breaks the Lemma 4.2 window for n = {n}"
            );
            sum += t;
        }
        sum / runs.len() as f64 / (n as f64).log2()
    };
    // Lemma 4.2 (k = 1) brackets one-way completion between log2 n and
    // 8·log2 n parallel time, i.e. normalized completion ∈ [1, 8] with
    // width Δ = 7. Two faithful backends sampling the same distribution
    // must land well inside a Δ/4 = 1.75 agreement margin; a systematic
    // batching bias would push the 10⁷-agent mean outside it.
    let batched = normalized(&batched, batched_n);
    let counted = normalized(&counted, counted_n);
    assert!(
        (batched - counted).abs() <= 1.75,
        "normalized completion diverged: batched {batched:.2} vs count {counted:.2}"
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
        .horizon(8.0 * (n as f64).log2())
        .snapshot_every(1.0)
        .init_counts(|n| vec![n - 1, 1])
        .run_on::<BatchedCountSimulator<_>, _>(ScannedEstimates)
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
