//! Resilient grid execution end to end, through the public umbrella API:
//! a panicking cell is isolated into a typed outcome, healthy cells stay
//! bit-identical to an uninjected grid, and faulted grids are
//! deterministic across thread counts.

use dynamic_size_counting::dsc::{DscConfig, DynamicSizeCounting};
use dynamic_size_counting::model::Protocol;
use dynamic_size_counting::sim::{
    CellOutcome, FaultPlan, ResiliencePolicy, ScannedEstimates, Simulator, Sweep, WithRecovery,
};

fn protocol() -> DynamicSizeCounting {
    DynamicSizeCounting::new(DscConfig::empirical())
}

fn grid(populations: &[usize], threads: usize) -> Sweep<DynamicSizeCounting> {
    Sweep::new(protocol())
        .populations(populations.iter().copied())
        .runs(2)
        .master_seed(99)
        .threads(threads)
        .horizon(30.0)
        .snapshot_every(5.0)
}

#[test]
fn a_panicking_cell_leaves_the_rest_of_the_grid_intact() {
    // The n = 96 cell's init panics; the n = 48 cell must be untouched.
    let poisoned = |threads: usize| {
        grid(&[48, 96], threads)
            .init_with_n(|n, i| {
                assert!(n != 96, "poisoned cell");
                let _ = i;
                protocol().initial_state()
            })
            .run_resilient_on::<Simulator<_>, _>(ScannedEstimates, ResiliencePolicy::default())
            .expect("no fault plan, nothing to refuse up front")
    };
    let serial = poisoned(1);
    let parallel = poisoned(4);
    assert_eq!(
        serial.cells, parallel.cells,
        "per-cell outcomes must not depend on the thread count"
    );

    let summary = serial.summary();
    assert_eq!((summary.completed, summary.panicked), (2, 2));
    let bad = serial.cell(96, "static").expect("the poisoned cell exists");
    assert!(bad
        .outcomes
        .iter()
        .all(|o| matches!(o, CellOutcome::Panicked(msg) if msg.contains("poisoned cell"))));

    // The healthy cell equals the same cell from a grid that never
    // contained the poisoned population: per-cell seeding isolates cells.
    let healthy = grid(&[48], 1)
        .init_with_n(|_, _| protocol().initial_state())
        .run_resilient_on::<Simulator<_>, _>(ScannedEstimates, ResiliencePolicy::default())
        .unwrap();
    let good = serial.cell(48, "static").unwrap();
    assert_eq!(
        good.completed_runs().collect::<Vec<_>>(),
        healthy.cells[0].completed_runs().collect::<Vec<_>>(),
        "healthy rows must be bit-identical to the uninjected grid"
    );
}

#[test]
fn faulted_grids_are_deterministic_and_record_the_departure() {
    let run = |threads: usize| {
        let plan = FaultPlan::new(5).corrupt_random(10.0, 0.25);
        grid(&[64], threads)
            .run_faulted_on::<Simulator<_>, _>(
                &plan,
                WithRecovery::band(0.5, 4.0),
                ResiliencePolicy {
                    budget_factor: Some(3.0),
                },
            )
            .expect("a well-formed plan compiles")
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.cells, parallel.cells);
    assert!(serial.summary().all_completed());
    for result in serial.cells[0].completed_runs() {
        assert!(
            !result.recovery.is_empty(),
            "the recovery observer must record band transitions"
        );
    }
}
