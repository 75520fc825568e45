//! Cross-validation: the agent-array simulator and the count-based
//! simulator produce statistically equivalent dynamics for finite-state
//! substrates (they implement the same scheduler distribution), and so do
//! the jump and count backends under adversary churn.

use dynamic_size_counting::protocols::{BoundedChvp, Clvp, Infection};
use dynamic_size_counting::sim::{
    AdversarySchedule, Backend, CountSimulator, JumpSimulator, PopulationEvent, ScannedEstimates,
    Simulator, Sweep,
};
use pp_model::Configuration;

/// Mean epidemic completion time (parallel time) on the agent simulator.
fn agent_epidemic_time(n: usize, seeds: std::ops::Range<u64>) -> f64 {
    let mut total = 0.0;
    let count = seeds.end - seeds.start;
    for seed in seeds {
        let mut config = Configuration::uniform(n, false);
        *config.get_mut(0) = true;
        let mut sim = Simulator::from_config(Infection::new(), config, seed);
        while sim.states().iter().any(|&s| !s) {
            sim.step_n(n as u64 / 4 + 1);
        }
        total += sim.parallel_time();
    }
    total / count as f64
}

/// Mean epidemic completion time on the count simulator.
fn count_epidemic_time(n: u64, seeds: std::ops::Range<u64>) -> f64 {
    let mut total = 0.0;
    let count = seeds.end - seeds.start;
    for seed in seeds {
        let mut sim = CountSimulator::from_counts(Infection::new(), vec![n - 1, 1], seed);
        while sim.count(1) < n {
            sim.step_n(n / 4 + 1);
        }
        total += sim.parallel_time();
    }
    total / count as f64
}

#[test]
fn epidemic_completion_times_match_across_simulators() {
    let n = 2_000;
    let agent = agent_epidemic_time(n, 0..8);
    let count = count_epidemic_time(n as u64, 100..108);
    let ratio = agent / count;
    assert!(
        (0.8..1.25).contains(&ratio),
        "simulators disagree: agent {agent:.1} vs count {count:.1} (ratio {ratio:.2})"
    );
    // Both near the folklore 2·ln n ≈ 1.39·log2 n … with one-way spread the
    // constant is ~2× that; just bracket generously around log2 n.
    let log_n = (n as f64).log2();
    assert!(agent > log_n && agent < 6.0 * log_n);
}

#[test]
fn chvp_decay_rate_matches_across_simulators() {
    let n = 2_000usize;
    let start = 300u32;
    // Agent simulator.
    let mut sim =
        Simulator::from_config(BoundedChvp::new(start), Configuration::uniform(n, start), 1);
    sim.run_parallel_time(100.0);
    let agent_max = *sim.states().iter().max().unwrap();
    // Count simulator.
    let mut counts = vec![0u64; start as usize + 1];
    counts[start as usize] = n as u64;
    let mut csim = CountSimulator::from_counts(BoundedChvp::new(start), counts, 2);
    csim.run_parallel_time(100.0);
    let count_max = csim.max_occupied().unwrap() as u32;
    let diff = (i64::from(agent_max) - i64::from(count_max)).unsigned_abs();
    assert!(
        diff <= 25,
        "CHVP decay differs: agent max {agent_max} vs count max {count_max}"
    );
}

#[test]
fn clvp_saturation_matches_across_simulators() {
    let n = 1_000;
    let cap = 60;
    let mut sim = Simulator::with_seed(Clvp::new(cap), n, 3);
    sim.run_parallel_time(400.0);
    let agent_min = *sim.states().iter().min().unwrap();
    let mut csim = CountSimulator::with_seed(Clvp::new(cap), n as u64, 4);
    csim.run_parallel_time(400.0);
    let count_min = csim.min_occupied().unwrap() as u32;
    assert_eq!(agent_min, cap, "agent sim should saturate");
    assert_eq!(count_min, cap, "count sim should saturate");
}

/// Two-sample Kolmogorov–Smirnov statistic: the largest gap between the
/// empirical CDFs of `a` and `b`, ties stepped together.
fn ks_statistic(mut a: Vec<u64>, mut b: Vec<u64>) -> f64 {
    a.sort_unstable();
    b.sort_unstable();
    let (mut i, mut j, mut d) = (0, 0, 0.0f64);
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while a.get(i) == Some(&x) {
            i += 1;
        }
        while b.get(j) == Some(&x) {
            j += 1;
        }
        d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
    }
    d
}

/// The infected count of every run at every grid point of a one-cell
/// epidemic sweep on backend `B` under `schedule`: `rows[k][r]` is run
/// `r`'s count at grid point `k`.
fn infected_rows<B>(schedule: &AdversarySchedule, runs: usize, seed: u64) -> Vec<Vec<u64>>
where
    B: Backend<Protocol = Infection, State = bool>,
{
    let results = Sweep::new(Infection::new())
        .populations([2_000])
        .schedule("churn", schedule.clone())
        .runs(runs)
        .master_seed(seed)
        .horizon(14.0)
        .init_counts(|n| vec![n - 20, 20])
        .run_on::<B, _>(ScannedEstimates)
        .unwrap();
    let runs = &results.cells[0].runs;
    (0..runs[0].snapshots.len())
        .map(|k| {
            runs.iter()
                .map(|run| {
                    let s = &run.snapshots[k];
                    s.estimates.map_or(0, |e| s.n as u64 - e.without_estimate)
                })
                .collect()
        })
        .collect()
}

/// The jump backend runs the adversary through the shared drive loop, so
/// under churn its infected counts must follow the count backend's in
/// distribution at every grid point. The schedule crashes half the
/// population uniformly mid-epidemic, removes 400 agents largest estimate
/// first (the infected) and adds 1 000 fresh ones.
///
/// False-alarm budget: 0.1% family-wise over the grid's 15 points, split
/// by Bonferroni, so each point's two-sample Kolmogorov–Smirnov test runs
/// at α = 0.001 / 15 and fails only when D exceeds
/// `c(α)·√((m + n)/(mn))` with `c(α) = √(−ln(α/2)/2)`. That tail bound is
/// the asymptotic Kolmogorov one and is conservative for integer counts,
/// whose ties only shrink D. At 2 000 runs a side the critical value is
/// about 0.072.
#[test]
fn jump_and_count_agree_in_distribution_under_churn() {
    let schedule = AdversarySchedule::new()
        .at(3.0, PopulationEvent::RemoveUniform(1_000))
        .at(6.0, PopulationEvent::RemoveLargestEstimates(400))
        .at(9.0, PopulationEvent::Add(1_000));
    let runs = 2_000;
    let jump = infected_rows::<JumpSimulator<Infection>>(&schedule, runs, 41);
    let count = infected_rows::<CountSimulator<Infection>>(&schedule, runs, 42);
    assert_eq!(
        jump.len(),
        15,
        "one row per grid point of the 14-pt horizon"
    );
    assert_eq!(jump.len(), count.len());
    let alpha = 0.001 / jump.len() as f64;
    let m = runs as f64;
    let critical = (-(alpha / 2.0).ln() / 2.0).sqrt() * (2.0 / m).sqrt();
    for (k, (j, c)) in jump.into_iter().zip(count).enumerate() {
        let d = ks_statistic(j, c);
        assert!(
            d <= critical,
            "t = {k}: KS distance {d:.4} exceeds {critical:.4}"
        );
    }
}
