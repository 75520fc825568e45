//! The comparison story (paper §1.2): what breaks without the paper's
//! protocol, and what it costs.

use dynamic_size_counting::dsc::{DscConfig, DynamicSizeCounting};
use dynamic_size_counting::model::MemoryFootprint;
use dynamic_size_counting::protocols::{De22Counting, StaticGrvCounting};
use dynamic_size_counting::sim::{
    AdversarySchedule, Experiment, PopulationEvent, ScannedEstimates, Simulator, WithMemory,
};

#[test]
fn static_counter_breaks_dsc_adapts() {
    let n = 2_048;
    let survivors = 32;
    let schedule = || AdversarySchedule::new().at(400.0, PopulationEvent::ResizeTo(survivors));

    let dsc = Experiment::new(DynamicSizeCounting::new(DscConfig::empirical()), n)
        .seed(31)
        .horizon(2_200.0)
        .snapshot_every(10.0)
        .schedule(schedule())
        .run_on::<Simulator<_>, _>(ScannedEstimates)
        .unwrap();
    let stat = Experiment::new(StaticGrvCounting::new(16), n)
        .seed(31)
        .horizon(2_200.0)
        .snapshot_every(10.0)
        .schedule(schedule())
        .run_on::<Simulator<_>, _>(ScannedEstimates)
        .unwrap();

    let dsc_before = dsc.snapshot_at(390.0).estimates.unwrap().median;
    let dsc_after = dsc.snapshot_at(2_190.0).estimates.unwrap().median;
    let stat_before = stat.snapshot_at(390.0).estimates.unwrap().median;
    let stat_after = stat.snapshot_at(2_190.0).estimates.unwrap().median;

    // Derived margin (widened from the empirical 2.0 per ROADMAP's
    // flaky-test policy): the crash shrinks the population by
    // n/survivors = 2^6, so perfectly tracking estimates drop by Δ = 6
    // log-units. Theorem 2.1 only promises constant-factor approximations
    // of log n, and Lemma 4.1's max-of-GRV estimator fluctuates around
    // log2 n — upward by c w.p. ≤ 2^−c, downward by c w.p. ≤ exp(−2^c) —
    // so the drop guaranteed at the ~95% level is only Δ − 4 = 2.
    // Requiring Δ/4 = 1.5 keeps a safety factor below even that, while
    // still cleanly separating adaptation from the static counter's 0.
    let delta = ((n / survivors) as f64).log2();
    assert!(
        dsc_after < dsc_before - delta / 4.0,
        "DSC must adapt: {dsc_before} -> {dsc_after}"
    );
    assert!(
        stat_after >= stat_before,
        "the static counter must stay stuck: {stat_before} -> {stat_after}"
    );
}

#[test]
fn de22_adapts_but_uses_more_memory() {
    let n = 1_024;
    // Steady-state memory: DSC stores 4 small counters; DE22 stores a list
    // of Θ(log n) timers — the paper's claimed improvement.
    let dsc_p = DynamicSizeCounting::new(DscConfig::empirical());
    let de_p = De22Counting::new();

    let dsc = Experiment::new(dsc_p, n)
        .seed(32)
        .horizon(300.0)
        .snapshot_every(10.0)
        .run_on::<Simulator<_>, _>(WithMemory)
        .unwrap();
    let de = Experiment::new(de_p.clone(), n)
        .seed(32)
        .horizon(300.0)
        .snapshot_every(10.0)
        .run_on::<Simulator<_>, _>(WithMemory)
        .unwrap();

    let dsc_bits = dsc.snapshots.last().unwrap().memory.unwrap().mean_bits;
    let de_bits = de.snapshots.last().unwrap().memory.unwrap().mean_bits;
    assert!(
        de_bits > 2.0 * dsc_bits,
        "DE22 ({de_bits:.1} bits) should cost well over 2× DSC ({dsc_bits:.1} bits)"
    );

    // And DE22 does adapt (it solves the same problem).
    let survivors = 32;
    let schedule = AdversarySchedule::new().at(300.0, PopulationEvent::ResizeTo(survivors));
    let de_dyn = Experiment::new(de_p, n)
        .seed(33)
        .horizon(1_500.0)
        .snapshot_every(10.0)
        .schedule(schedule)
        .run_on::<Simulator<_>, _>(ScannedEstimates)
        .unwrap();
    let before = de_dyn.snapshot_at(290.0).estimates.unwrap().median;
    // DE22's first-missing-value estimate adapts, but it is only correct
    // w.h.p. *per instant*: whenever one agent samples a rare high GRV, the
    // value min-propagates epidemically and the whole population briefly
    // over-estimates again until the detection timers re-expire (Doty &
    // Eftekhari 2022 bound the estimate per time unit w.h.p., not almost
    // always — see also the paper's §1.2 contrast). A single-snapshot
    // readout therefore flakes on those ~Θ(threshold)-long spikes; read the
    // median over the final 300 time units instead of one instant.
    let mut tail: Vec<f64> = de_dyn
        .snapshots
        .iter()
        .filter(|s| s.parallel_time >= 1_200.0)
        .filter_map(|s| s.estimates.map(|e| e.median))
        .collect();
    tail.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN medians"));
    let after = tail[tail.len() / 2];
    // Derived margin (widened from the empirical Δ/4 per ROADMAP's
    // flaky-test policy): the crash is n/survivors = 2^5, so a perfectly
    // tracking first-missing-value estimate drops by Δ = 5. Doty &
    // Eftekhari's readout is correct within O(1) of log2 n only w.h.p.
    // per instant (the spike caveat above), and the tail median smooths
    // but does not eliminate that slack — with the same ±2-per-side
    // GRV-tail budget as the DSC margin, the *guaranteed* drop is only
    // Δ − 4 = 1 (before may read 2 low, after may read 2 high). The old
    // Δ/4 = 1.25 threshold exceeded that guarantee, so a run landing in
    // the legal-but-unlucky corner flaked. Require half the guaranteed
    // drop, (Δ − 4)/2 = 0.5: inside the w.h.p. bound with margin to
    // spare, yet still strictly positive — a stuck estimate (drop 0)
    // keeps failing.
    let delta = ((n / survivors) as f64).log2();
    assert!(
        after < before - (delta - 4.0) / 2.0,
        "DE22 must adapt to the crash: {before} -> {after}"
    );
}

#[test]
fn memory_footprints_have_the_claimed_shapes() {
    // Single-state sanity of the accounting itself.
    let dsc_p = DynamicSizeCounting::new(DscConfig::empirical());
    let de_p = De22Counting::new();
    let mut dsc_state = pp_model::Protocol::initial_state(&dsc_p);
    dsc_state.max = 20;
    dsc_state.last_max = 18;
    dsc_state.time = 120;
    dsc_state.interactions = 300;
    // 5 + 5 + (7+1) + 9 = 27 bits at log-n-ish magnitudes.
    assert_eq!(dsc_state.memory_bits(), 27);

    let mut de_state = pp_model::Protocol::initial_state(&de_p);
    de_state.timers = (0..20).map(|i| de_p.threshold(i + 1) / 2).collect();
    assert!(
        de_state.memory_bits() > 100,
        "a 20-entry timer list costs >100 bits, got {}",
        de_state.memory_bits()
    );
}

#[test]
fn uniformity_no_parameter_encodes_n() {
    // A uniformity smoke test: the same protocol value (same transition
    // function) serves populations of very different sizes.
    let p = DynamicSizeCounting::new(DscConfig::empirical());
    for n in [32usize, 1_024] {
        let r = Experiment::new(p, n)
            .seed(34)
            .horizon(400.0)
            .run_on::<Simulator<_>, _>(ScannedEstimates)
            .unwrap();
        let med = r.snapshots.last().unwrap().estimates.unwrap().median;
        let log_kn = ((16 * n) as f64).log2();
        assert!(
            med >= 0.4 * log_kn && med <= 2.5 * log_kn,
            "n = {n}: estimate {med} not tracking log2(16n) = {log_kn:.1}"
        );
    }
}
