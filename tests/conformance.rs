//! Backend conformance: every contract the four backends share, written
//! once.
//!
//! The four backends implement one model, the uniform pair scheduler plus
//! the add/remove adversary of Doty & Eftekhari (arXiv 2202.12864). Each
//! contract is a function generic over a [`Subject`], one backend as a
//! type constructor over the protocol it runs; `instantiate!` makes it one
//! `#[test]` per backend it applies to, named `contract::backend`. The
//! links at the end compare backends: count and batched exactly at
//! n ≤ 4096, and agent ~ count ~ jump under churn and jump ~ batched above
//! the batching threshold in distribution, through
//! [`assert_same_distribution`] at a declared false-alarm budget.

mod common;

use common::{assert_same_distribution, completion_time};
use dynamic_size_counting::model::{
    Corruptible, DeterministicProtocol, FiniteProtocol, Protocol, SizeEstimator, TickProtocol,
};
use dynamic_size_counting::protocols::BoundedChvp;
use dynamic_size_counting::sim::batched_sim::EXACT_POPULATION_THRESHOLD;
use dynamic_size_counting::sim::runner::run_seed;
use dynamic_size_counting::sim::{
    AdversarySchedule, Backend, BackendError, BatchedCountSimulator, CellSpec, ConfigError,
    CountSimulator, CountsShape, Experiment, FaultBackend, FaultPlan, JumpSimulator,
    PopulationEvent, Recording, ResiliencePolicy, RunResult, ScannedEstimates, ScheduleError,
    Simulator, Snapshot, Sweep, SweepResults, WithMemory, WithRecovery, WithTicks,
};
use rand::Rng;
use std::sync::OnceLock;

/// One-way infection: a susceptible initiator catches it from an infected
/// responder. Infected agents report estimate 1, so a snapshot's
/// `without_estimate` is its susceptible count.
#[derive(Debug, Clone, Copy)]
struct Or;
impl Protocol for Or {
    const ONE_WAY: bool = true;
    type State = bool;
    fn initial_state(&self) -> bool {
        false
    }
    fn interact<R: Rng + ?Sized>(&self, u: &mut bool, v: &mut bool, _: &mut R) {
        *u = *u || *v;
    }
}
impl FiniteProtocol for Or {
    fn num_states(&self) -> usize {
        2
    }
    fn state_index(&self, s: &bool) -> usize {
        usize::from(*s)
    }
    fn state_from_index(&self, i: usize) -> bool {
        i == 1
    }
}
impl DeterministicProtocol for Or {}
impl SizeEstimator for Or {
    fn estimate_log2(&self, s: &bool) -> Option<f64> {
        s.then_some(1.0)
    }
}
impl TickProtocol for Or {
    fn tick_count(&self, _: &bool) -> u64 {
        0
    }
}
impl Corruptible for Or {
    fn corrupt_state<R: Rng + ?Sized>(&self, s: &bool, _: &mut R) -> bool {
        !s
    }
}

/// One backend, as a type constructor over the protocol it runs. `COUNTS`
/// when its cells start from `init_counts` (the count family) rather than
/// from per-agent states (the agent array).
trait Subject {
    type On<P: DeterministicProtocol + SizeEstimator>: Backend<Protocol = P, State = P::State>;
    const COUNTS: bool;
}

/// Declares one [`Subject`] per backend.
macro_rules! subjects {
    ($($subject:ident = $backend:ident, $counts:literal;)+) => {$(
        struct $subject;
        impl Subject for $subject {
            type On<P: DeterministicProtocol + SizeEstimator> = $backend<P>;
            const COUNTS: bool = $counts;
        }
    )+};
}

subjects! {
    AgentArray = Simulator, false;
    Count = CountSimulator, true;
    Jump = JumpSimulator, true;
    Batched = BatchedCountSimulator, true;
}

/// Instantiates each contract as one `#[test]` per listed backend, inside
/// a module named after the contract.
macro_rules! instantiate {
    (@one $contract:ident [$($backend:ident: $subject:ident),+]) => {
        mod $contract {
            $(
                #[test]
                fn $backend() {
                    super::$contract::<super::$subject>();
                }
            )+
        }
    };
    ($backends:tt $($contract:ident),+ $(,)?) => {
        $(instantiate!(@one $contract $backends);)+
    };
}

instantiate!(
    [agent_array: AgentArray, count: Count, jump: Jump, batched: Batched]
    snapshots_land_on_the_grid,
    adversary_events_add_remove_and_resize,
    populations_below_two_fill_the_grid_on_every_backend,
    overdrawn_budget_aborts_with_a_typed_error_on_every_backend,
    extreme_snapshot_grids_and_infinite_horizons_fail_typed_not_panicking,
    thread_count_never_changes_results_under_churn,
    every_rejected_input_fails_the_grid_up_front_and_the_cell_alike,
    experiment_and_one_cell_sweep_run_the_same_cell,
);
instantiate!(
    [agent_array: AgentArray, count: Count]
    an_empty_fault_plan_is_a_healthy_run_on_both_backends,
    corruption_perturbs_and_the_protocol_recovers,
    faulted_grids_never_depend_on_the_thread_count,
    every_rejected_fault_input_fails_the_grid_up_front_and_the_cell_alike,
);

/// The name `B` reports in its errors.
fn name<B: Subject>() -> &'static str {
    <B::On<Or> as Backend>::NAME
}

/// Calls `f` with the spec of a seed-1 cell of `n` agents over `horizon`
/// pt under `schedule`, the first `infected` of them infected, started the
/// way `B` takes an initial configuration.
fn with_cell<B: Subject, T>(
    (n, infected, horizon): (usize, u64, f64),
    schedule: &AdversarySchedule,
    f: impl FnOnce(CellSpec<'_, bool>) -> T,
) -> T {
    let agents = move |_: usize, i: usize| (i as u64) < infected;
    f(CellSpec {
        n,
        seed: 1,
        horizon,
        snapshot_every: 1.0,
        schedule,
        init_agents: (!B::COUNTS).then_some(&agents as &dyn Fn(usize, usize) -> bool),
        init_counts: B::COUNTS.then(|| vec![n as u64 - infected, infected]),
        interaction_budget: None,
    })
}

/// Runs a [`with_cell`] cell under `budget`.
fn run<B: Subject>(
    cell: (usize, u64, f64),
    schedule: &AdversarySchedule,
    budget: Option<u64>,
) -> Result<RunResult, BackendError> {
    with_cell::<B, _>(cell, schedule, |mut spec| {
        spec.interaction_budget = budget;
        <B::On<Or>>::run_cell(Or, &spec, &ScannedEstimates)
    })
}

/// `sweep` with the first `infected` agents of every cell infected.
fn infect<B: Subject>(sweep: Sweep<Or>, infected: u64) -> Sweep<Or> {
    if B::COUNTS {
        sweep.init_counts(move |n| vec![n - infected, infected])
    } else {
        sweep.init_with_n(move |_, i| (i as u64) < infected)
    }
}

/// One snapshot per grid point. A span ends on its boundary or at most one
/// interaction past it, and events at t = 0, between grid points and on a
/// grid point apply before the next snapshot. A quiescent population
/// (nobody infected) still books its n interactions per pt, to within that
/// interaction; at 10 000 agents the batched backend skips such spans in
/// one step.
fn snapshots_land_on_the_grid<B: Subject>() {
    let churn = AdversarySchedule::new()
        .at(0.0, PopulationEvent::Add(16))
        .at(2.5, PopulationEvent::RemoveUniform(24))
        .at(4.0, PopulationEvent::ResizeTo(100));
    let churned = run::<B>((200, 10, 6.0), &churn, None).unwrap();
    let ns: Vec<usize> = churned.snapshots.iter().map(|s| s.n).collect();
    assert_eq!(ns, [200, 216, 216, 192, 100, 100, 100]);
    assert_eq!(churned.final_n, 100);
    for (k, s) in churned.snapshots.iter().enumerate() {
        let late = s.parallel_time - k as f64;
        assert!(
            (-1e-12..=1.0 / s.n as f64).contains(&late),
            "grid point {k} at t = {}",
            s.parallel_time
        );
    }
    let quiet = run::<B>((10_000, 0, 5.0), &AdversarySchedule::new(), None).unwrap();
    assert_eq!(quiet.snapshots.len(), 6);
    for (k, s) in (0..).zip(&quiet.snapshots) {
        let booked = (k * 10_000..=k * 10_000 + 1).contains(&s.interactions);
        assert!(booked && s.estimates.is_none(), "grid point {k}: {s:?}");
    }
}

/// Removing the largest estimates first takes every infected agent
/// (estimate 1) before any susceptible one (none), which leaves the rest
/// susceptible for good; additions join in the initial state; resizes
/// grow with fresh agents or shrink uniformly; uniform removals take
/// exactly their count.
///
/// From 10 infected among 1 000, the infected count at 1.5 pt is at most
/// NegBin(10, e^−1.5) (a Yule process), so it reaches the 500 removed with
/// probability below e^−120; from 100 infected among 1 000, a pt passes
/// without an infection with probability below e^−100.
fn adversary_events_add_remove_and_resize<B: Subject>() {
    let schedule = AdversarySchedule::new()
        .at(1.5, PopulationEvent::RemoveLargestEstimates(500))
        .at(2.5, PopulationEvent::Add(300))
        .at(3.5, PopulationEvent::ResizeTo(1_200))
        .at(4.5, PopulationEvent::ResizeTo(200))
        .at(5.0, PopulationEvent::RemoveLargestEstimates(0))
        .at(5.5, PopulationEvent::RemoveUniform(50));
    let removed = run::<B>((1_000, 10, 6.0), &schedule, None).unwrap();
    let rows: Vec<(usize, bool)> = removed
        .snapshots
        .iter()
        .map(|s| (s.n, s.estimates.is_some()))
        .collect();
    let expected = [1_000, 1_000, 500, 800, 1_200, 200, 150].map(|n| (n, n == 1_000));
    assert_eq!(rows, expected);

    let join = AdversarySchedule::new().at(2.0, PopulationEvent::Add(900));
    let joined = run::<B>((100, 100, 3.0), &join, None).unwrap();
    let susceptible: Vec<(usize, u64)> = joined
        .snapshots
        .iter()
        .map(|s| (s.n, s.estimates.unwrap().without_estimate))
        .collect();
    assert_eq!(susceptible[..3], [(100, 0), (100, 0), (1_000, 900)]);
    assert!(susceptible[3].1 < 900, "the epidemic re-arms");
}

/// A population below two has no pair to interact: the clock runs to the
/// horizon and fills the grid with zero interactions. The count backends
/// also run a population the adversary empties, with rows of n = 0.
fn populations_below_two_fill_the_grid_on_every_backend<B: Subject>() {
    let results = Sweep::new(Or)
        .populations([0, 1])
        .horizon(3.0)
        .run_on::<B::On<Or>, _>(ScannedEstimates)
        .unwrap();
    for (cell, n) in results.cells.iter().zip([0, 1]) {
        assert_eq!(cell.runs[0].final_n, n);
        let rows: Vec<(f64, u64, usize, bool)> = cell.runs[0]
            .snapshots
            .iter()
            .map(|s| (s.parallel_time, s.interactions, s.n, s.estimates.is_some()))
            .collect();
        assert_eq!(rows, [0.0, 1.0, 2.0, 3.0].map(|t| (t, 0, n, false)));
    }
    if B::COUNTS {
        let empty = AdversarySchedule::new().at(2.0, PopulationEvent::ResizeTo(0));
        let emptied = run::<B>((100, 1, 4.0), &empty, None).unwrap();
        let ns: Vec<usize> = emptied.snapshots.iter().map(|s| s.n).collect();
        assert_eq!((ns, emptied.final_n), (vec![100, 100, 0, 0, 0], 0));
    }
}

/// A run past its interaction budget aborts with a typed error at the next
/// boundary (jump meters the t·n its clock implies, which one infected
/// agent keeps advancing); a budget the run never reaches leaves it
/// bit-identical, population changes included.
fn overdrawn_budget_aborts_with_a_typed_error_on_every_backend<B: Subject>() {
    let halve = AdversarySchedule::new().at(3.0, PopulationEvent::ResizeTo(50));
    match run::<B>((100, 1, 10.0), &halve, Some(150)) {
        Err(BackendError::BudgetExhausted {
            backend,
            interactions,
            budget: 150,
        }) => assert!(backend == name::<B>() && interactions > 150),
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    let [capped, free] = [Some(u64::MAX), None].map(|b| run::<B>((100, 1, 8.0), &halve, b));
    assert_eq!(capped.unwrap(), free.unwrap());
}

/// 10^18 grid points: the row buffer is not reserved up front, so the
/// budget trips after the first counted interaction (on jump, once the
/// clock implies one: t·n ≥ 0.5). An infinite horizon, which would never
/// finish, is rejected at the builder.
fn extreme_snapshot_grids_and_infinite_horizons_fail_typed_not_panicking<B: Subject>() {
    let none = AdversarySchedule::new();
    let result = with_cell::<B, _>((100, 1, 1e12), &none, |mut spec| {
        (spec.snapshot_every, spec.interaction_budget) = (1e-6, Some(0));
        <B::On<Or>>::run_cell(Or, &spec, &ScannedEstimates)
    });
    assert!(
        matches!(result, Err(BackendError::BudgetExhausted { backend, budget: 0, .. }) if backend == name::<B>()),
        "{result:?}"
    );
    for horizon in [f64::INFINITY, f64::NAN] {
        assert!(matches!(
            Experiment::new(Or, 16).try_horizon(horizon),
            Err(ConfigError::InvalidHorizon { .. })
        ));
    }
}

/// A grid's rows depend on its seeds only, never on the thread count, with
/// every kind of adversary event in play. The batched backend batches in
/// the 8 192-agent cell.
fn thread_count_never_changes_results_under_churn<B: Subject>() {
    let churn = AdversarySchedule::new()
        .at(0.0, PopulationEvent::Add(64))
        .at(2.5, PopulationEvent::RemoveUniform(200))
        .at(4.0, PopulationEvent::RemoveLargestEstimates(100))
        .at(6.0, PopulationEvent::ResizeTo(300));
    let sweep_with = |threads| {
        let sweep = Sweep::new(Or)
            .populations([512, 8_192])
            .schedule("static", AdversarySchedule::new())
            .schedule("churn", churn.clone())
            .runs(2)
            .master_seed(19)
            .horizon(8.0)
            .threads(threads);
        let results = infect::<B>(sweep, 1).run_on::<B::On<Or>, _>(ScannedEstimates);
        results.unwrap().cells
    };
    let serial = sweep_with(1);
    for threads in [0, 4] {
        assert_eq!(sweep_with(threads), serial, "threads = {threads}");
    }
}

/// One input of the rejection tables: a one-cell grid of 16 agents and
/// two runs.
#[derive(Clone, Copy)]
enum Input {
    Plain,
    PerAgentInit,
    Counts(fn(u64) -> Vec<u64>),
    /// One event at t = 1.
    Event(PopulationEvent),
}

impl Input {
    fn schedule(self) -> AdversarySchedule {
        match self {
            Input::Event(event) => AdversarySchedule::new().at(1.0, event),
            _ => AdversarySchedule::new(),
        }
    }

    fn sweep(self) -> Sweep<Or> {
        let sweep = Sweep::new(Or).populations([16]).runs(2).horizon(2.0);
        match self {
            Input::PerAgentInit => sweep.init_with(|i| i == 0),
            Input::Counts(counts) => sweep.init_counts(counts),
            _ => sweep.schedule("input", self.schedule()),
        }
    }

    /// Calls `f` with the grid's first cell, built by hand: the first run
    /// under the default master seed 0.
    fn with_first_cell<T>(self, f: impl FnOnce(&CellSpec<'_, bool>) -> T) -> T {
        let (schedule, first) = (self.schedule(), |_: usize, i: usize| i == 0);
        f(&CellSpec {
            n: 16,
            seed: run_seed(run_seed(0, 0), 0),
            horizon: 2.0,
            snapshot_every: 1.0,
            schedule: &schedule,
            init_agents: matches!(self, Input::PerAgentInit)
                .then_some(&first as &dyn Fn(usize, usize) -> bool),
            init_counts: match self {
                Input::Counts(counts) => Some(counts(16)),
                _ => None,
            },
            interaction_budget: None,
        })
    }
}

/// What the grid and its first cell answer for one input, `None` where it
/// runs. A resilient grid turns every run's error into a `Failed` outcome,
/// so an `Err` from it was raised before any run.
type Answers = (Option<BackendError>, Option<BackendError>);

fn answers<B: Subject, R: Recording<Or>>(input: Input, recording: R) -> Answers {
    let cell = input.with_first_cell(|spec| <B::On<Or>>::run_cell(Or, spec, &recording));
    let grid = input
        .sweep()
        .run_resilient_on::<B::On<Or>, R>(recording, ResiliencePolicy::default());
    let grid = grid.map(|r| assert!(r.summary().all_completed(), "accepted, so it runs"));
    (grid.err(), cell.err())
}

/// [`answers`] through `run_faulted_on` and `run_cell_faulted`.
fn faulted_answers<B: Subject>(input: Input, plan: &FaultPlan) -> Answers
where
    B::On<Or>: FaultBackend,
{
    let cell = input.with_first_cell(|spec| {
        let compiled = plan.compile(spec.n, 0).unwrap();
        <B::On<Or>>::run_cell_faulted(Or, spec, &compiled, &ScannedEstimates)
    });
    let policy = ResiliencePolicy::default();
    let grid = input
        .sweep()
        .run_faulted_on::<B::On<Or>, _>(plan, ScannedEstimates, policy);
    let grid = grid.map(|r| assert!(r.summary().all_completed(), "accepted, so it runs"));
    (grid.err(), cell.err())
}

/// `init_counts` of the wrong length, the wrong sum, or a sum past
/// `u64::MAX`, each with the error `B` answers: a typed mismatch on the
/// count family (no panic in debug builds, no wraparound in release), no
/// counts at all on the agent array.
fn bad_shapes<B: Subject>() -> [(Input, BackendError); 3] {
    let backend = name::<B>();
    let error = |states, total| match B::COUNTS {
        true => BackendError::InitCountsMismatch {
            backend,
            expected: CountsShape {
                states: 2,
                total: Some(16),
            },
            got: CountsShape { states, total },
        },
        false => BackendError::InitCountsUnsupported { backend },
    };
    [
        (Input::Counts(|n| vec![n - 1, 1, 0]), error(3, Some(16))),
        (Input::Counts(|n| vec![n - 1, 2]), error(2, Some(17))),
        (Input::Counts(|_| vec![u64::MAX, 1]), error(2, None)),
    ]
}

/// Every input some backend cannot run is one typed error, the same from
/// the grid's pre-flight (before any run) and from the cell body:
/// `Backend::validate` is the one check behind both. Every other input
/// runs on both entry points.
fn every_rejected_input_fails_the_grid_up_front_and_the_cell_alike<B: Subject>() {
    let backend = name::<B>();
    let per_agent = |requested| {
        B::COUNTS.then_some(BackendError::AgentIndicesUnsupported { backend, requested })
    };
    let schedule = |error| Some(BackendError::InvalidSchedule { backend, error });
    let scanned = |input| answers::<B, _>(input, ScannedEstimates);
    let no_counts = (!B::COUNTS).then_some(BackendError::InitCountsUnsupported { backend });
    let too_many = schedule(ScheduleError::RemovesTooMany {
        at: 1.0,
        remove: 500,
        population: 16,
    });
    // The agent array's estimate scans and uniform removals need an agent;
    // the count backends run an emptied population's clock.
    let emptied = schedule(ScheduleError::EmptiesPopulation { at: 1.0 }).filter(|_| !B::COUNTS);
    let init = per_agent("per-agent initial states (use init_counts(..))");
    let counts = Input::Counts(|n| vec![n - 1, 1]);
    let removal = Input::Event(PopulationEvent::RemoveUniform(500));
    let emptying = Input::Event(PopulationEvent::ResizeTo(0));
    let band = WithRecovery::band(0.5, 2.0);
    let mut rows = vec![
        ("init_counts", scanned(counts), no_counts),
        ("per-agent init", scanned(Input::PerAgentInit), init),
        ("impossible schedule", scanned(removal), too_many),
        ("emptying schedule", scanned(emptying), emptied),
    ];
    let plain = Input::Plain;
    let plans = [
        ("tick recording", answers::<B, _>(plain, WithTicks)),
        ("memory recording", answers::<B, _>(plain, WithMemory)),
        ("recovery recording", answers::<B, _>(plain, band)),
    ];
    rows.extend(plans.map(|(plan, answer)| (plan, answer, per_agent(plan))));
    for (input, error) in bad_shapes::<B>() {
        rows.push(("count-shape mismatch", scanned(input), Some(error)));
    }
    for (input, (grid, cell), expected) in rows {
        assert_eq!(grid, expected, "{input}: grid");
        assert_eq!(cell, expected, "{input}: cell");
    }
}

/// An empty fault plan is a healthy run: the faulted and healthy entry
/// points share one cell body, so they answer alike, rows, records and
/// RNG streams included, under churn at t = 0 and between grid points.
fn an_empty_fault_plan_is_a_healthy_run_on_both_backends<B: Subject>()
where
    B::On<Or>: FaultBackend,
{
    let churn = AdversarySchedule::new()
        .at(0.0, PopulationEvent::Add(16))
        .at(2.5, PopulationEvent::RemoveUniform(24));
    let plan = FaultPlan::new(5).compile(64, 11).unwrap();
    assert!(plan.times().is_empty());
    with_cell::<B, _>((64, 16, 6.0), &churn, |spec| {
        let healthy = <B::On<Or>>::run_cell(Or, &spec, &ScannedEstimates).unwrap();
        assert!(healthy.snapshots[1].estimates.is_some());
        let faulted = <B::On<Or>>::run_cell_faulted(Or, &spec, &plan, &ScannedEstimates);
        assert_eq!(faulted.unwrap(), healthy);
        let recovery = WithRecovery::band(0.5, 2.0);
        assert_eq!(
            <B::On<Or>>::run_cell_faulted(Or, &spec, &plan, &recovery),
            <B::On<Or>>::run_cell(Or, &spec, &recovery)
        );
    });
}

/// Corrupting 32 draws of agents at 3 pt (a corrupted agent flips its
/// state) perturbs a fully infected population of 64, and the epidemic
/// heals it: at least 32 stay infected, so each susceptible agent catches
/// it at rate at least 1/2 per pt, and some is still susceptible at 40 pt
/// with probability below 32·e^−18.5 < 10^−6.
fn corruption_perturbs_and_the_protocol_recovers<B: Subject>()
where
    B::On<Or>: FaultBackend,
{
    let plan = FaultPlan::new(5).corrupt_random(3.0, 0.5);
    let healed = with_cell::<B, _>((64, 64, 40.0), &AdversarySchedule::new(), |spec| {
        let plan = plan.compile(64, 11).unwrap();
        <B::On<Or>>::run_cell_faulted(Or, &spec, &plan, &ScannedEstimates).unwrap()
    });
    let susceptible = |t| healed.snapshot_at(t).estimates.unwrap().without_estimate;
    assert!(susceptible(2.0) == 0 && susceptible(3.0) > 0, "perturbed");
    assert_eq!(susceptible(40.0), 0, "recovered");
}

/// A faulted grid's rows and outcomes depend on its seeds only, never on
/// the thread count: every agent starts corrupted, and a quarter of the
/// population is corrupted again at 2 pt.
fn faulted_grids_never_depend_on_the_thread_count<B: Subject>()
where
    B::On<Or>: FaultBackend,
{
    let plan = FaultPlan::new(7)
        .corrupt_random(2.0, 0.25)
        .adversarial_start();
    let grid = |threads| {
        let sweep = Sweep::new(Or)
            .populations([24, 48])
            .runs(3)
            .master_seed(11)
            .horizon(12.0)
            .threads(threads);
        let policy = ResiliencePolicy::default();
        let sweep = infect::<B>(sweep, 4);
        let results = sweep.run_faulted_on::<B::On<Or>, _>(&plan, ScannedEstimates, policy);
        results.unwrap()
    };
    let serial = grid(1);
    assert!(serial.summary().all_completed());
    assert_eq!(grid(4).cells, serial.cells);
}

/// The faulted entry points reject up front and in the cell alike:
/// agent-targeted faults on the count backend, which has no agent to
/// target, and every count-shape mismatch.
fn every_rejected_fault_input_fails_the_grid_up_front_and_the_cell_alike<B: Subject>()
where
    B::On<Or>: FaultBackend,
{
    let targeted = FaultPlan::new(1).corrupt_agents(1.0, [0]);
    let error = B::COUNTS.then_some(BackendError::AgentIndicesUnsupported {
        backend: name::<B>(),
        requested: "per-agent fault targets (use corrupt_random(..))",
    });
    let answer = faulted_answers::<B>(Input::Plain, &targeted);
    assert_eq!(answer, (error, error), "agent-targeted faults");
    for (input, error) in bad_shapes::<B>() {
        let answer = faulted_answers::<B>(input, &FaultPlan::new(3));
        assert_eq!(answer, (Some(error), Some(error)), "count-shape mismatch");
    }
}

/// The single-run and grid entry points share the cell body:
/// `Experiment::run_on` at seed `run_seed(run_seed(m, 0), 0)` returns run 0
/// of a one-cell `Sweep` under master seed `m`, bit for bit, under churn.
/// CHVP's fresh configuration (every agent at the top value) is not
/// quiescent, so the count backends have work to agree on.
///
/// CHVP's maximum never rises between additions, and it drops by one once
/// every agent holding it has initiated. With at most 442 agents that takes
/// more than ln 442 + 20 < 26.1 pt with probability below e^−20 (coupon
/// collector), so from the last addition at 5.5 pt the 4 levels are gone
/// by 110 pt except with probability below 1e−8: at the 120-pt horizon
/// every agent holds 0.
fn experiment_and_one_cell_sweep_run_the_same_cell<B: Subject>() {
    let (protocol, n, master, horizon) = (BoundedChvp::new(4), 400, 77, 120.0);
    let churn = AdversarySchedule::new()
        .at(0.0, PopulationEvent::Add(16))
        .at(2.5, PopulationEvent::RemoveUniform(24))
        .at(4.0, PopulationEvent::RemoveLargestEstimates(10))
        .at(5.5, PopulationEvent::Add(50));
    let single = Experiment::new(protocol, n)
        .seed(run_seed(run_seed(master, 0), 0))
        .horizon(horizon)
        .schedule(churn.clone())
        .run_on::<B::On<BoundedChvp>, _>(ScannedEstimates)
        .unwrap();
    let grid = Sweep::new(protocol)
        .populations([n])
        .schedule("churn", churn)
        .runs(2)
        .master_seed(master)
        .horizon(horizon)
        .run_on::<B::On<BoundedChvp>, _>(ScannedEstimates)
        .unwrap();
    assert_eq!(single, grid.cells[0].runs[0]);
    let range = |t| single.snapshot_at(t).estimates.map(|e| (e.min, e.max));
    assert_eq!(range(0.0), Some((4.0, 4.0)), "fresh");
    assert_eq!(range(horizon), Some((0.0, 0.0)), "decayed");
}

/// `protocol` from `init` on the count and batched backends at and below
/// the batching threshold, under every adversary event shape, `runs` runs
/// a cell under master seed `seed`: one trajectory, since the batched
/// backend steps exactly there with the count backend's draws.
fn count_and_batched_replay_one_trajectory<P>(
    protocol: P,
    init: fn(u64) -> Vec<u64>,
    (runs, seed): (usize, u64),
) where
    P: DeterministicProtocol + SizeEstimator + Clone + Send + Sync,
    P::State: Clone + Send + Sync + 'static,
{
    let churn = AdversarySchedule::new()
        .at(2.0, PopulationEvent::RemoveUniform(100))
        .at(4.0, PopulationEvent::Add(50))
        .at(6.0, PopulationEvent::ResizeTo(256))
        .at(8.0, PopulationEvent::RemoveLargestEstimates(10));
    let sweep = || {
        Sweep::new(protocol.clone())
            .populations([512, EXACT_POPULATION_THRESHOLD as usize])
            .schedule("static", AdversarySchedule::new())
            .schedule("churn", churn.clone())
            .runs(runs)
            .master_seed(seed)
            .horizon(10.0)
            .init_counts(init)
    };
    let count = sweep().run_on::<CountSimulator<P>, _>(ScannedEstimates);
    let batched = sweep().run_on::<BatchedCountSimulator<P>, _>(ScannedEstimates);
    assert_eq!(count.unwrap().cells, batched.unwrap().cells);
}

/// Count ≡ batched at n ≤ 4096, on the epidemic and on the lemmas'
/// 401-state CHVP, started over three values so the occupied states start
/// well above state 0 and then drift and bunch together.
#[test]
fn below_threshold_batched_sweep_is_trajectory_identical_to_count() {
    count_and_batched_replay_one_trajectory(Or, |n| vec![n - 1, 1], (3, 61));
    let spread = |n: u64| {
        let mut counts = vec![0u64; 401];
        (counts[37], counts[200], counts[400]) = (n / 4, n / 4, n - 2 * (n / 4));
        counts
    };
    count_and_batched_replay_one_trajectory(BoundedChvp::new(400), spread, (2, 62));
}

/// The infected count of every run at every grid point, `rows[k][r]`, of
/// 2 000 runs of one cell on `B`: 2 000 agents, 20 infected, over 14 pt
/// while the adversary crashes half the population uniformly at 3 pt,
/// removes 400 largest estimates first (the infected) at 6 pt and adds
/// 1 000 fresh agents at 9 pt. A side costs about 3.2 s (agent array),
/// 8.4 s (count) or 0.8 s (jump) in the debug test profile on a 2-core box.
fn infected_rows<B: Subject>(seed: u64) -> Vec<Vec<f64>> {
    let churn = AdversarySchedule::new()
        .at(3.0, PopulationEvent::RemoveUniform(1_000))
        .at(6.0, PopulationEvent::RemoveLargestEstimates(400))
        .at(9.0, PopulationEvent::Add(1_000));
    let sweep = Sweep::new(Or)
        .populations([2_000])
        .schedule("churn", churn)
        .runs(2_000)
        .master_seed(seed)
        .horizon(14.0);
    let results = infect::<B>(sweep, 20).run_on::<B::On<Or>, _>(ScannedEstimates);
    let runs = &results.unwrap().cells[0].runs;
    let infected = |s: &Snapshot| s.estimates.map_or(0, |e| s.n as u64 - e.without_estimate) as f64;
    (0..15)
        .map(|k| runs.iter().map(|r| infected(&r.snapshots[k])).collect())
        .collect()
}

/// Compares `rows` with the count backend's (computed once, shared by both
/// churn links) at all 15 grid points. Family-wise α = 0.1% split by
/// Bonferroni (6.7e−5 a point); K = 2 000 runs a side at n = 2 000 gives a
/// critical D ≈ 0.072, which catches a location shift of about 0.18
/// standard deviations half the time.
fn agrees_with_count_under_churn(label: &str, rows: &[Vec<f64>]) {
    static COUNT: OnceLock<Vec<Vec<f64>>> = OnceLock::new();
    let count = COUNT.get_or_init(|| infected_rows::<Count>(42));
    for (k, (r, c)) in rows.iter().zip(count).enumerate() {
        assert_same_distribution(&format!("{label} vs count, t = {k}"), r, c, 0.001 / 15.0);
    }
}

/// Agent array ~ count: one scheduler and one adversary give one
/// infected-count distribution under churn (α = 0.1%, K = 2 000, n = 2 000).
#[test]
fn agent_array_and_count_agree_in_distribution_under_churn() {
    agrees_with_count_under_churn("agent-array", &infected_rows::<AgentArray>(43));
}

/// Jump ~ count: jump runs the adversary through the shared drive loop, so
/// its infected counts under churn follow the count backend's (α = 0.1%,
/// K = 2 000, n = 2 000).
#[test]
fn jump_and_count_agree_in_distribution_under_churn() {
    agrees_with_count_under_churn("jump", &infected_rows::<Jump>(41));
}

/// Above the batching threshold the batched backend approximates, so it is
/// compared with the exact jump chain on the statistic Lemma 4.2 bounds:
/// completion time, on a 0.5-pt grid, of an epidemic from 16 infected among
/// n = 2¹⁴, with half the population crashed uniformly at 6 pt (8 192
/// remain, still batched). One comparison at α = 0.1%, K = 1 000 runs a
/// side: critical D ≈ 0.087, a location shift of about 0.22 standard
/// deviations caught half the time, for about 3 s (jump) and 0.6 s
/// (batched) in the debug test profile on a 2-core box.
///
/// Every run completes inside the Lemma 4.2 window of 8·log₂ n = 112 pt:
/// the crash stops the epidemic only by removing every infected agent, at
/// least NegBin(16, e^−6) of them (a Yule process), which a uniform halving
/// does with probability E[2^−I] ≤ (2e^−6)^16 < 10^−36.
#[test]
fn jump_and_batched_agree_in_distribution_above_the_threshold() {
    let n = 1usize << 14;
    let completion = |sweep: Result<SweepResults, _>| {
        let runs = &sweep.unwrap().cells[0].runs;
        let done = |r| completion_time(r).expect("the epidemic completes inside the window");
        runs.iter().map(done).collect::<Vec<f64>>()
    };
    let crash = AdversarySchedule::new().at(6.0, PopulationEvent::RemoveUniform(n / 2));
    let sweep = |seed| {
        Sweep::new(Or)
            .populations([n])
            .schedule("crash", crash.clone())
            .runs(1_000)
            .master_seed(seed)
            .horizon(8.0 * (n as f64).log2())
            .snapshot_every(0.5)
            .init_counts(|n| vec![n - 16, 16])
    };
    assert_same_distribution(
        "batched vs jump, completion",
        &completion(sweep(52).run_on::<BatchedCountSimulator<_>, _>(ScannedEstimates)),
        &completion(sweep(51).run_on::<JumpSimulator<_>, _>(ScannedEstimates)),
        0.001,
    );
}
