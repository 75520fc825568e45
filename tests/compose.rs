//! Composition with non-uniform payloads (the paper's §6 open problem,
//! prototyped in dsc-core::compose).

use dynamic_size_counting::dsc::{
    Composed, DscConfig, DynamicSizeCounting, RumorState, TimedRumor,
};
use dynamic_size_counting::sim::{
    AdversarySchedule, Experiment, PopulationEvent, Simulator, TrackedEstimates,
};

fn composed() -> Composed<TimedRumor> {
    Composed::new(
        DynamicSizeCounting::new(DscConfig::empirical()),
        TimedRumor::new(8),
    )
}

#[test]
fn composition_estimates_like_the_bare_counter() {
    let n = 1_024;
    let r = Experiment::new(composed(), n)
        .seed(41)
        .horizon(400.0)
        .snapshot_every(10.0)
        .run_on::<Simulator<_>, _>(TrackedEstimates)
        .unwrap();
    let med = r.snapshots.last().unwrap().estimates.unwrap().median;
    let log_kn = ((16 * n) as f64).log2();
    assert!(
        med >= 0.4 * log_kn && med <= 2.5 * log_kn,
        "composed estimate {med} should match the counter's ({log_kn:.1})"
    );
}

#[test]
fn payload_budgets_track_estimate_changes_after_resize() {
    let n = 2_048;
    let r = Experiment::new(composed(), n)
        .seed(42)
        .horizon(2_000.0)
        .snapshot_every(10.0)
        .schedule(AdversarySchedule::new().at(400.0, PopulationEvent::ResizeTo(64)))
        .run_on::<Simulator<_>, _>(TrackedEstimates)
        .unwrap();
    // After the crash the payloads must have been restarted with smaller
    // budgets — indirectly visible through the estimate they were sized by.
    // Loose stabilization (paper Theorem 2.1) only promises a correct
    // estimate for *most* of the time after convergence: a rare high GRV
    // transiently re-spikes the whole population's estimate (max values
    // spread by epidemic) before the next reset clears it. A single-instant
    // readout therefore flakes on unlucky seeds/RNG streams; read the
    // median over the final 200 parallel-time units instead (the same fix
    // as tests/baselines.rs::de22_adapts_but_uses_more_memory).
    let before = r.snapshot_at(390.0).estimates.unwrap().median;
    let mut window: Vec<f64> = r
        .snapshots
        .iter()
        .filter(|s| s.parallel_time >= 1_800.0)
        .filter_map(|s| s.estimates.as_ref().map(|e| e.median))
        .collect();
    window.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN medians"));
    let after = window[window.len() / 2];
    assert!(after < before, "estimate (and payload sizing) must shrink");
}

#[test]
fn rumor_completes_within_budget_on_converged_population() {
    let n = 512;
    let p = composed();
    let mut sim = Simulator::with_seed(p, n, 43);
    sim.run_parallel_time(200.0); // converge the counter
    let estimate = sim.states()[0].payload_estimate;
    assert!(estimate >= 4, "estimate should be Θ(log n) by now");
    // Fresh payload round: one informed agent, full budgets.
    for i in 0..n {
        let st = sim.state_mut(i);
        st.payload = RumorState {
            informed: i == 0,
            budget: 8 * estimate,
        };
    }
    sim.run_parallel_time(40.0);
    let informed = sim.states().iter().filter(|s| s.payload.informed).count();
    assert_eq!(
        informed, n,
        "a budget of 8·log n own interactions must suffice for the epidemic"
    );
}

#[test]
fn undersized_budget_fails_demonstrating_nonuniformity() {
    // The counter exists because the payload NEEDS log n: a constant
    // budget (as if log n were 1) cannot finish the epidemic — this is the
    // non-uniformity the paper's protocol supplies.
    let n = 2_048;
    let p = composed();
    let mut sim = Simulator::with_seed(p, n, 44);
    sim.run_parallel_time(200.0);
    for i in 0..n {
        let st = sim.state_mut(i);
        st.payload = RumorState {
            informed: i == 0,
            budget: 3, // as if the estimate were ~0: far too small
        };
    }
    sim.run_parallel_time(40.0);
    let informed = sim.states().iter().filter(|s| s.payload.informed).count();
    assert!(
        informed < n / 2,
        "a constant budget must NOT suffice at n = {n} (informed: {informed})"
    );
}
