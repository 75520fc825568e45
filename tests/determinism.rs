//! Reproducibility: seeded executions are bit-identical (the property the
//! paper gets from seeding ranlux; we get it from deriving per-run SmallRng
//! seeds from a master seed).

use dynamic_size_counting::dsc::{DscConfig, DynamicSizeCounting};
use dynamic_size_counting::sim::runner::run_seed;
use dynamic_size_counting::sim::{
    AdversarySchedule, Experiment, PopulationEvent, RunResult, Simulator, Sweep, TrackedEstimates,
};

fn run(seed: u64) -> RunResult {
    Experiment::new(DynamicSizeCounting::new(DscConfig::empirical()), 512)
        .seed(seed)
        .horizon(300.0)
        .snapshot_every(5.0)
        .schedule(AdversarySchedule::new().at(150.0, PopulationEvent::ResizeTo(64)))
        .run_on::<Simulator<_>, _>(TrackedEstimates)
        .unwrap()
}

#[test]
fn same_seed_same_run_including_adversary() {
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "seeded runs must be bit-identical");
}

#[test]
fn different_seeds_differ() {
    let a = run(42);
    let b = run(43);
    assert_ne!(
        a.snapshots, b.snapshots,
        "different seeds should (essentially surely) diverge"
    );
}

#[test]
fn simulator_states_replay_identically() {
    let p = DynamicSizeCounting::new(DscConfig::empirical());
    let run_states = |seed| {
        let mut sim = Simulator::with_seed(p, 256, seed);
        sim.run_parallel_time(100.0);
        sim.states().to_vec()
    };
    assert_eq!(run_states(7), run_states(7));
}

#[test]
fn derived_seeds_are_stable_across_invocations() {
    // The runner's seed derivation is part of reproducibility: if it ever
    // changes, recorded experiment CSVs stop being reproducible.
    assert_eq!(run_seed(0xD5C0_2024, 0), run_seed(0xD5C0_2024, 0));
    let seeds: Vec<u64> = (0..96).map(|i| run_seed(0xD5C0_2024, i)).collect();
    let mut unique = seeds.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), 96);
}

#[test]
fn parallel_execution_does_not_change_results() {
    // The multi-run executor must produce the same per-run results
    // regardless of thread count (runs share nothing).
    let runs_with =
        |threads| pp_sim::parallel_map(4, threads, |i| run(run_seed(99, i)).snapshots.len());
    assert_eq!(runs_with(1), runs_with(4));
}

/// The sweep engine's contract: the same grid and master seed yield
/// bit-identical results no matter how the work is scheduled — serial
/// (`threads = 1`), machine parallelism (`threads = 0`), or any explicit
/// pool size. This leans on `parallel_map` returning results in index
/// order and on every run seed being derived from grid position alone.
#[test]
fn sweep_results_are_bit_identical_across_thread_counts() {
    let sweep_with = |threads: usize| {
        Sweep::new(DynamicSizeCounting::new(DscConfig::empirical()))
            .populations([64, 128])
            .schedule("static", AdversarySchedule::new())
            .schedule(
                "crash@40",
                AdversarySchedule::new().at(40.0, PopulationEvent::ResizeTo(16)),
            )
            .runs(3)
            .master_seed(0xD5C0_2024)
            .horizon(80.0)
            .snapshot_every(4.0)
            .threads(threads)
            .run_on::<Simulator<_>, _>(TrackedEstimates)
            .unwrap()
    };
    let serial = sweep_with(1);
    let auto = sweep_with(0);
    let wide = sweep_with(8);
    // Cells carry every snapshot of every run, so equality here is
    // bit-for-bit over the full result structure.
    assert_eq!(serial.cells, auto.cells, "threads=1 vs threads=0 diverged");
    assert_eq!(serial.cells, wide.cells, "threads=1 vs threads=8 diverged");
    assert_eq!(serial.total_runs(), 12);
}
