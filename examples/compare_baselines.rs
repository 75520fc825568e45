//! Why *dynamic* size counting: the baselines break, the paper's doesn't.
//!
//! ```sh
//! cargo run --release --example compare_baselines
//! ```
//!
//! Four counting protocols face the same adversary — the population
//! crashes from 4 096 to 64 agents mid-run:
//!
//! * the paper's protocol and the Doty–Eftekhari baseline adapt;
//! * static max-GRV counting stays stuck (a maximum never shrinks);
//! * the leader-based BKR counter freezes (its single leader halted the
//!   count before the crash, and nothing can restart it).

use dynamic_size_counting::dsc::{DscConfig, DynamicSizeCounting};
use dynamic_size_counting::model::SizeEstimator;
use dynamic_size_counting::protocols::{BkrCounting, De22Counting, StaticGrvCounting};
use dynamic_size_counting::sim::{
    AdversarySchedule, Experiment, PopulationEvent, RunResult, ScannedEstimates, Simulator,
};

const N: usize = 4_096;
const SURVIVORS: usize = 64;
const CRASH_AT: f64 = 900.0;
const HORIZON: f64 = 2_500.0;

fn run<P>(name: &str, protocol: P) -> (String, RunResult)
where
    P: SizeEstimator + Sync,
    P::State: Clone + Send,
{
    let schedule = AdversarySchedule::new().at(CRASH_AT, PopulationEvent::ResizeTo(SURVIVORS));
    let result = Experiment::new(protocol, N)
        .seed(99)
        .horizon(HORIZON)
        .snapshot_every(50.0)
        .schedule(schedule)
        .run_on::<Simulator<_>, _>(ScannedEstimates)
        .expect("the agent-array backend runs any experiment");
    (name.to_string(), result)
}

fn median_at(result: &RunResult, t: f64) -> Option<f64> {
    result.snapshot_at(t).estimates.as_ref().map(|e| e.median)
}

fn main() {
    println!(
        "crash scenario: n = {N} → {SURVIVORS} at t = {CRASH_AT}   (log2: {:.1} → {:.1})\n",
        (N as f64).log2(),
        (SURVIVORS as f64).log2()
    );

    let runs = vec![
        run(
            "DSC (this paper)",
            DynamicSizeCounting::new(DscConfig::empirical()),
        ),
        run("Doty-Eftekhari 2022", De22Counting::new()),
        run("static max-GRV", StaticGrvCounting::new(16)),
        run("BKR 2019 (leader)", BkrCounting::new().with_round_factor(8)),
    ];

    println!(
        "{:<22} {:>12} {:>12} {:>10}",
        "protocol", "median@850", "median@2450", "verdict"
    );
    for (name, result) in &runs {
        let before = median_at(result, 850.0);
        let after = median_at(result, 2_450.0);
        let verdict = match (before, after) {
            (Some(b), Some(a)) if a < b - 2.0 => "adapted",
            (Some(_), Some(_)) => "STUCK",
            _ => "no output",
        };
        let fmt = |x: Option<f64>| x.map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into());
        println!(
            "{:<22} {:>12} {:>12} {:>10}",
            name,
            fmt(before),
            fmt(after),
            verdict
        );
    }

    println!("\ntimeline of the paper's protocol (median estimate):");
    let (_, dsc) = &runs[0];
    for s in dsc.snapshots.iter().step_by(5) {
        if let Some(e) = &s.estimates {
            let bar = "#".repeat(e.median.max(0.0) as usize);
            println!(
                "  t={:>6.0} n={:>6}  {bar} {:.1}",
                s.parallel_time, s.n, e.median
            );
        }
    }
}
