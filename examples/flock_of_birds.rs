//! The paper's motivating story: counting a changing flock of birds.
//!
//! ```sh
//! cargo run --release --example flock_of_birds
//! ```
//!
//! Angluin et al. motivated population protocols with "a flock of birds
//! equipped with temperature sensors", and the paper's introduction adds:
//! "Clearly, the number of birds in a flock changes over time. Even worse,
//! throughout hunting season there is a looming threat that a poaching
//! adversary selectively targets certain types of birds."
//!
//! This example runs exactly that scenario: the flock grows as birds join,
//! crashes when the poacher strikes (including the adversarial variant that
//! removes the birds holding the *largest* estimates), and the size
//! estimate tracks every change.

use dynamic_size_counting::dsc::{DscConfig, DynamicSizeCounting};
use dynamic_size_counting::sim::{
    AdversarySchedule, Experiment, PopulationEvent, RunResult, Simulator, TrackedEstimates,
};

fn print_story(result: &RunResult, marks: &[(f64, &str)]) {
    println!(
        "{:>8} {:>7} {:>8} {:>8} {:>8}   event",
        "time", "birds", "min", "median", "max"
    );
    for s in &result.snapshots {
        let Some(e) = &s.estimates else { continue };
        let mark = marks
            .iter()
            .find(|(t, _)| (s.parallel_time - t).abs() < 25.0)
            .map(|(_, m)| *m)
            .unwrap_or("");
        println!(
            "{:>8.0} {:>7} {:>8.1} {:>8.1} {:>8.1}   {mark}",
            s.parallel_time, s.n, e.min, e.median, e.max
        );
    }
}

fn main() {
    let protocol = DynamicSizeCounting::new(DscConfig::empirical());

    // A year in the life of the flock, in parallel time:
    //   t=0      2 000 birds winter together
    //   t=500    spring: 30 000 more arrive (in the fresh "just joined" state)
    //   t=1500   hunting season: the poacher takes all but 200 birds —
    //            and targets the birds with the LARGEST estimates first.
    let schedule = AdversarySchedule::new()
        .at(500.0, PopulationEvent::Add(30_000))
        .at(1_500.0, PopulationEvent::RemoveLargestEstimates(31_800));

    let result = Experiment::new(protocol, 2_000)
        .seed(7)
        .horizon(3_500.0)
        .snapshot_every(100.0)
        .schedule(schedule)
        .run_on::<Simulator<_>, _>(TrackedEstimates)
        .expect("the agent-array backend runs any experiment");

    println!(
        "references: log2(2 000) = {:.1}, log2(32 000) = {:.1}, log2(200) = {:.1}\n",
        (2_000f64).log2(),
        (32_000f64).log2(),
        (200f64).log2()
    );
    print_story(
        &result,
        &[
            (500.0, "← 30 000 birds join"),
            (
                1_500.0,
                "← poacher removes all but 200 (largest estimates first)",
            ),
        ],
    );

    let last = result
        .snapshots
        .last()
        .and_then(|s| s.estimates.as_ref())
        .expect("estimates");
    println!(
        "\nafter the crash the flock re-estimates its size: median {:.1} ≈ log2(k·200) = {:.1}",
        last.median,
        (16.0 * 200f64).log2()
    );
    println!("the protocol is uniform — nobody ever told the birds how many they are.");
}
