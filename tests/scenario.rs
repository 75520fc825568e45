//! Scenario-engine integration: declarative traces as reproducible grid
//! axes, paper-derived re-convergence assertions, and graceful failure
//! paths.
//!
//! Margins follow the ROADMAP flaky-test policy: every numeric band is
//! derived from a paper bound in a comment at the assertion site, never
//! tuned to make a seed pass.

use dynamic_size_counting::protocols::Infection;
use dynamic_size_counting::sim::scenario::{self, TraceSegment};
use dynamic_size_counting::sim::{
    AdversarySchedule, BackendError, BatchedCountSimulator, CountSimulator, FaultError, FaultPlan,
    InjectionAction, PopulationEvent, RunResult, ScannedEstimates, ScenarioTrace, ScheduleError,
    Sweep, BUILTIN_TRACES,
};

fn log2n(n: usize) -> f64 {
    (n as f64).log2()
}

/// First snapshot time at or after `from` at which every agent holds an
/// estimate.
fn coverage_time_after(run: &RunResult, from: f64) -> Option<f64> {
    run.snapshots
        .iter()
        .find(|s| s.parallel_time >= from && s.estimates.is_some_and(|e| e.without_estimate == 0))
        .map(|s| s.parallel_time)
}

#[test]
fn every_builtin_trace_is_a_runnable_sweep_axis() {
    // The whole catalog on one grid: each builtin compiles per cell and
    // runs to the horizon without panicking, on both count backends.
    let mut sweep = Sweep::new(Infection::new())
        .populations([600, 1200])
        .runs(2)
        .master_seed(5)
        .horizon(40.0)
        .init_counts(|n| vec![n - 1, 1]);
    for name in BUILTIN_TRACES {
        sweep = sweep.scenario(name, scenario::builtin(name).expect("catalog name"));
    }
    let r = sweep
        .run_on::<CountSimulator<_>, _>(ScannedEstimates)
        .unwrap();
    assert_eq!(r.cells.len(), 2 * BUILTIN_TRACES.len());
    for cell in &r.cells {
        assert_eq!(cell.runs.len(), 2);
        assert!(BUILTIN_TRACES.contains(&cell.schedule.as_str()));
    }
}

#[test]
fn trace_axes_are_bit_identical_across_thread_counts() {
    // The tentpole determinism contract: randomized trace placement
    // (crash-burst times) flows through the Sweep seed chain, so the
    // whole grid — schedules included — is a pure function of the master
    // seed, bit-for-bit, on any worker count. Run on both count backends.
    let sweep = |threads: usize| {
        Sweep::new(Infection::new())
            .populations([800, 1600])
            .scenario(
                "bursts",
                ScenarioTrace::new().segment(TraceSegment::CrashBursts {
                    start: 2.0,
                    end: 12.0,
                    bursts: 3,
                    fraction: 0.2,
                    volley: 3,
                    spacing: 0.2,
                }),
            )
            .scenario(
                "flash",
                ScenarioTrace::new().segment(TraceSegment::FlashCrowd {
                    at: 5.0,
                    factor: 2.5,
                    dwell: 6.0,
                    steps: 4,
                }),
            )
            .runs(3)
            .master_seed(97)
            .horizon(25.0)
            .threads(threads)
            .init_counts(|n| vec![n - 1, 1])
    };
    assert_eq!(
        sweep(1)
            .run_on::<CountSimulator<_>, _>(ScannedEstimates)
            .unwrap()
            .cells,
        sweep(4)
            .run_on::<CountSimulator<_>, _>(ScannedEstimates)
            .unwrap()
            .cells,
        "count backend must be thread-identical under trace axes"
    );
    assert_eq!(
        sweep(1)
            .run_on::<BatchedCountSimulator<_>, _>(ScannedEstimates)
            .unwrap()
            .cells,
        sweep(4)
            .run_on::<BatchedCountSimulator<_>, _>(ScannedEstimates)
            .unwrap()
            .cells,
        "batched backend must be thread-identical under trace axes"
    );
}

#[test]
fn flash_crowd_recovery_lands_in_the_lemma_window() {
    // Re-convergence band, derived from the paper (satellite of the
    // ROADMAP flaky-test policy):
    //
    // A flash crowd at t = 6 injects (factor − 1)·n = 2n fresh
    // susceptible agents into a fully covered population of n. Lemma 4.2
    // (k = 1) bounds a one-way epidemic from a *single* source over n'
    // agents by 8·log2 n' parallel time; here n of the n' = 3n agents are
    // already infected, so the spread is strictly faster than the
    // single-source case the bound covers. Budget: full coverage of the
    // grown population by t_add + 8·log2(3n). The draining ResizeTo steps
    // afterwards only remove agents uniformly, which cannot uncover a
    // covered population — so coverage must also *hold* to the horizon
    // (the Theorem 2.1 shape: converge once, then hold).
    let n = 2_000usize;
    let at = 6.0;
    let factor = 3.0;
    let dwell = 30.0;
    let r = Sweep::new(Infection::new())
        .populations([n])
        .scenario(
            "flash",
            ScenarioTrace::new().segment(TraceSegment::FlashCrowd {
                at,
                factor,
                dwell,
                steps: 5,
            }),
        )
        .runs(8)
        .master_seed(103)
        .horizon(at + dwell + 5.0)
        .init_counts(|n| vec![n - 1, 1])
        .run_on::<CountSimulator<_>, _>(ScannedEstimates)
        .unwrap();
    let budget = at + 8.0 * log2n(3 * n);
    for run in &r.cells[0].runs {
        let covered =
            coverage_time_after(run, at).expect("the grown population must reach full coverage");
        assert!(
            covered <= budget,
            "flash-crowd recovery at {covered:.1} pt blew the Lemma 4.2 budget {budget:.1}"
        );
        // Holding: every snapshot from recovery to the horizon stays
        // covered (uniform drain cannot uncover).
        for s in &run.snapshots {
            if s.parallel_time >= covered {
                assert_eq!(s.estimates.unwrap().without_estimate, 0);
            }
        }
        assert_eq!(run.final_n, n, "the drain returns to the entry population");
    }
}

#[test]
fn ramp_lands_exactly_on_its_target_fraction() {
    let n = 4_000usize;
    let r = Sweep::new(Infection::new())
        .populations([n])
        .scenario(
            "ramp",
            ScenarioTrace::new().segment(TraceSegment::Ramp {
                start: 2.0,
                end: 10.0,
                to_fraction: 0.25,
                steps: 8,
            }),
        )
        .runs(2)
        .master_seed(11)
        .horizon(12.0)
        .init_counts(|n| vec![n - 1, 1])
        .run_on::<CountSimulator<_>, _>(ScannedEstimates)
        .unwrap();
    for run in &r.cells[0].runs {
        assert_eq!(run.final_n, n / 4, "ramp must land exactly on 0.25·n");
    }
}

#[test]
fn same_master_seed_reproduces_trace_schedules_across_processes() {
    // Compiling a trace directly with the documented seed chain
    // reproduces exactly the schedule the sweep ran — the on-disk
    // reproducibility story for trace-generated figures.
    let trace = ScenarioTrace::new().segment(TraceSegment::CrashBursts {
        start: 1.0,
        end: 9.0,
        bursts: 2,
        fraction: 0.4,
        volley: 2,
        spacing: 0.5,
    });
    let a = trace.compile(5_000, 12345).unwrap();
    let b = trace.compile(5_000, 12345).unwrap();
    assert_eq!(a.events(), b.events());
    let c = trace.compile(5_000, 54321).unwrap();
    assert_ne!(
        a.events(),
        c.events(),
        "different seeds place bursts differently"
    );
}

#[test]
fn invalid_traces_and_impossible_schedules_fail_typed_not_panicking() {
    // A structurally invalid trace: typed error naming the segment.
    let bad = Sweep::new(Infection::new())
        .populations([100])
        .scenario(
            "bad",
            ScenarioTrace::new().segment(TraceSegment::Diurnal {
                start: 1.0,
                period: 4.0,
                cycles: 2,
                low_fraction: 1.5, // troughs above the peak: nonsense
                steps_per_cycle: 4,
            }),
        )
        .runs(1)
        .horizon(10.0)
        .init_counts(|n| vec![n - 1, 1])
        .run_on::<CountSimulator<Infection>, _>(ScannedEstimates)
        .unwrap_err();
    assert!(matches!(
        bad,
        BackendError::InvalidSchedule {
            backend: "count",
            error: ScheduleError::InvalidTraceParameter {
                segment: "diurnal",
                ..
            }
        }
    ));

    // A structurally valid schedule that is impossible for the cell's
    // population: rejected before any run, with the offending numbers.
    let impossible = Sweep::new(Infection::new())
        .populations([50])
        .schedule(
            "overkill",
            AdversarySchedule::new().at(1.0, PopulationEvent::RemoveUniform(60)),
        )
        .runs(1)
        .horizon(5.0)
        .init_counts(|n| vec![n - 1, 1])
        .run_on::<CountSimulator<Infection>, _>(ScannedEstimates)
        .unwrap_err();
    assert_eq!(
        impossible,
        BackendError::InvalidSchedule {
            backend: "count",
            error: ScheduleError::RemovesTooMany {
                at: 1.0,
                remove: 60,
                population: 50
            }
        }
    );
}

/// A population that would grow past `u64::MAX` is a typed error, not a
/// wrapped count: both the schedule replay and the flash-crowd compiler
/// (whose scaled joiner count saturates at `u64::MAX`) check the addition.
#[test]
fn population_overflow_is_a_typed_schedule_error() {
    let huge_add = AdversarySchedule::new()
        .try_at(1.0, PopulationEvent::Add(usize::MAX))
        .unwrap()
        .validate_for(10, false);
    assert_eq!(huge_add, Err(ScheduleError::PopulationOverflow { at: 1.0 }));

    let huge_crowd = ScenarioTrace::new()
        .segment(TraceSegment::FlashCrowd {
            at: 1.0,
            factor: 1e300,
            dwell: 10.0,
            steps: 2,
        })
        .compile(1000, 1);
    assert_eq!(
        huge_crowd,
        Err(ScheduleError::PopulationOverflow { at: 1.0 })
    );
}

/// Populations at the integer limits: both sides of 2³², where u32 sizes
/// and `n(n − 1)` in u64 wrap, and the top of u64, where an f64 rounds the
/// population up to 2⁶⁴.
const LIMITS: [u64; 5] = [
    (1 << 32) - 1,
    1 << 32,
    (1 << 32) + 1,
    u64::MAX - 1,
    u64::MAX,
];

proptest::proptest! {
    /// Each of the five segment kinds compiles at a population near the
    /// integer limits either into a schedule that replays from that
    /// population, every resize target between the segment's smallest and
    /// largest population (saturating at `u64::MAX`), or into a typed
    /// `PopulationOverflow`: never a panic or a wrapped size.
    #[test]
    fn traces_at_the_integer_limits_compile_or_fail_typed(
        limit in 0usize..5,
        kind in 0usize..5,
        fraction in 0.001f64..0.999,
        growth in 1.001f64..4.0,
        steps in 1usize..6,
        seed: u64,
    ) {
        let n = LIMITS[limit];
        let (segment, lo, hi) = match kind {
            0 => (
                TraceSegment::Ramp { start: 1.0, end: 5.0, to_fraction: growth, steps },
                1.0,
                growth,
            ),
            1 => (
                TraceSegment::Diurnal {
                    start: 1.0,
                    period: 4.0,
                    cycles: steps,
                    low_fraction: fraction,
                    steps_per_cycle: steps + 1,
                },
                fraction,
                1.0,
            ),
            2 => (
                TraceSegment::FlashCrowd { at: 1.0, factor: growth, dwell: 4.0, steps },
                1.0,
                growth,
            ),
            3 => (
                TraceSegment::CrashBursts {
                    start: 1.0,
                    end: 9.0,
                    bursts: steps,
                    fraction,
                    volley: steps,
                    spacing: 0.1,
                },
                0.0,
                1.0,
            ),
            _ => (
                TraceSegment::TargetedCampaign { start: 1.0, every: 1.0, strikes: steps, fraction },
                0.0,
                1.0,
            ),
        };
        let label = format!("{segment:?} at n = {n}");
        match ScenarioTrace::new().segment(segment).compile(n, seed) {
            Ok(schedule) => {
                proptest::prop_assert!(schedule.validate_for(n, true).is_ok(), "{label}");
                let (lo, hi) = (n as f64 * lo, (n as f64 * hi).min(u64::MAX as f64));
                for e in schedule.events() {
                    if let PopulationEvent::ResizeTo(target) = e.event {
                        let t = target as f64;
                        proptest::prop_assert!(
                            t >= lo * (1.0 - 1e-12) - 1.0 && t <= hi * (1.0 + 1e-12) + 1.0,
                            "{label}: resize to {target} outside [{lo}, {hi}]"
                        );
                    }
                }
            }
            Err(error) => proptest::prop_assert!(
                matches!(error, ScheduleError::PopulationOverflow { .. }),
                "{label}: {error:?}"
            ),
        }
    }

    /// A fault plan compiles at a population near the integer limits: a
    /// fraction resolves to between 1 and n victims, the last agent is a
    /// valid target and index n is a typed `AgentOutOfRange`.
    #[test]
    fn fault_plans_at_the_integer_limits_compile_or_fail_typed(
        limit in 0usize..5,
        fraction in 0.0001f64..1.0,
        at in 0.0f64..10.0,
        seed: u64,
    ) {
        let n = LIMITS[limit] as usize;
        let plan = FaultPlan::new(seed)
            .corrupt_random(at, fraction)
            .corrupt_random(at, 1.0)
            .corrupt_agents(at, [n - 1])
            .adversarial_start();
        let compiled = plan.compile(n, seed).unwrap();
        for injection in compiled.injections() {
            match &injection.action {
                InjectionAction::CorruptRandom { victims } => {
                    proptest::prop_assert!((1..=n).contains(victims), "{victims} of {n}");
                }
                InjectionAction::CorruptAgents { agents } => {
                    proptest::prop_assert_eq!(agents, &vec![n - 1]);
                }
            }
        }
        proptest::prop_assert_eq!(
            FaultPlan::new(seed).corrupt_agents(at, [n]).compile(n, seed),
            Err(FaultError::AgentOutOfRange { index: n, population: n })
        );
    }
}
