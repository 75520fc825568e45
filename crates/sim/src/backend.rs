//! Simulation backends: one driver contract, four substrates.
//!
//! The paper's experiments run on four distinct substrates:
//!
//! * the **agent-array** [`Simulator`] — a dense state vector with per-agent
//!   indices; the only substrate for the paper's unbounded-state protocol,
//!   and the only one that can observe individual agents (per-agent initial
//!   configurations, tick events, memory scans);
//! * the **count** [`CountSimulator`] — one counter per state for
//!   [`FiniteProtocol`]s; O(#states) memory per run, so finite substrates
//!   sweep at populations the agent array can't hold;
//! * the **jump** [`JumpSimulator`] — the count representation plus
//!   closed-form skipping of no-op interactions for
//!   [`DeterministicProtocol`]s (the Berenbrink et al. / ppsim
//!   simulation-speedup idea);
//! * the **batched-count** [`BatchedCountSimulator`] — tau-leaping over
//!   the counts for [`DeterministicProtocol`]s: many interactions per
//!   draw at distribution-level fidelity, with an exact
//!   trajectory-identical fallback below a population threshold (see its
//!   module docs for the accuracy contract).
//!
//! [`Backend`] is the one contract all four implement: given a fully
//! specified cell ([`CellSpec`]) and a [`Recording`] plan, execute one run
//! and return its [`RunResult`]. The generic drivers —
//! [`Sweep::run_on`](crate::Sweep::run_on) for grids and
//! [`Experiment::run_on`](crate::Experiment::run_on) for single runs — are
//! written once against this trait, and are the only execution entry
//! points.
//!
//! What a substrate can run is decided in one place per backend,
//! [`Backend::validate`]: a spec, plan or fault plan it cannot honor is
//! answered with a typed [`BackendError`] instead of a mid-run panic, so
//! callers can match on the exact unsupported combination. Its only
//! callers are the cell bodies and [`Sweep`](crate::Sweep)'s pre-flight,
//! so a grid and a single cell reject the same inputs with the same error.
//!
//! All four backends run one shared drive loop — the single source of
//! truth for event ordering, snapshot-grid tolerance, and time-zero events.
//! Each substrate has one cell body that builds its simulator and drives
//! it, for fresh and faulted runs alike: one for the agent array and one
//! for the three count backends, with
//! [`FaultBackend::run_cell_faulted`](crate::FaultBackend::run_cell_faulted)
//! a thin call into the same body that adds the compiled plan and a corrupt
//! hook. The jump backend's clock stops at each boundary with its next
//! event pending, so it runs the same loop (see
//! [`JumpSimulator::run_parallel_time`]).

use crate::adversary::{AdversarySchedule, PopulationEvent, ScheduleError};
use crate::batched_sim::BatchedCountSimulator;
use crate::count_sim::CountSimulator;
use crate::counts::fresh_counts;
use crate::fault::{CompiledFaultPlan, Corrupt, FaultError};
use crate::histogram::EstimateHistogram;
use crate::jump_sim::JumpSimulator;
use crate::observer::Observer;
use crate::recording::Recording;
use crate::removal::largest_estimate_removals;
use crate::series::{EstimateSummary, RunResult, Snapshot};
use crate::simulator::Simulator;
use pp_model::{Configuration, DeterministicProtocol, FiniteProtocol, SizeEstimator};
use std::fmt;

/// A backend/spec/plan combination the backend cannot execute.
///
/// These are *contract* errors — the request itself is unsupported, so they
/// surface before any simulation work starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendError {
    /// The backend tracks state counts, not indexed agents, so the
    /// requested feature has no agent to attach to (the count, batched and
    /// jump backends).
    AgentIndicesUnsupported {
        /// [`Backend::NAME`] of the rejecting backend.
        backend: &'static str,
        /// The per-agent feature that was requested.
        requested: &'static str,
    },
    /// The backend builds per-agent initial configurations, so an initial
    /// count vector has no meaning for it (and silently ignoring one
    /// would run every cell from the fresh configuration instead of the
    /// intended seeded one).
    InitCountsUnsupported {
        /// [`Backend::NAME`] of the rejecting backend.
        backend: &'static str,
    },
    /// The initial count vector does not describe the cell's population:
    /// it needs one count per protocol state, summing to
    /// [`CellSpec::n`].
    InitCountsMismatch {
        /// [`Backend::NAME`] of the rejecting backend.
        backend: &'static str,
        /// The shape the cell requires.
        expected: CountsShape,
        /// The shape of the supplied `init_counts`.
        got: CountsShape,
    },
    /// The adversary schedule (hand-written or compiled from a scenario
    /// trace) is impossible against this cell's population or backend —
    /// see [`ScheduleError`] for the exact violation. Reported by the
    /// up-front validation pass, before any simulation work.
    InvalidSchedule {
        /// [`Backend::NAME`] of the rejecting backend.
        backend: &'static str,
        /// The exact schedule violation.
        error: ScheduleError,
    },
    /// The run crossed its interaction-count watchdog budget
    /// ([`CellSpec::interaction_budget`]) and was aborted at the next
    /// drive-loop boundary. Unlike the other variants this one is reported
    /// *mid-run*: it is resilient execution's runaway-cell guard, mapped
    /// to [`CellOutcome::BudgetExceeded`](crate::CellOutcome) by the
    /// sweep layer.
    BudgetExhausted {
        /// [`Backend::NAME`] of the aborting backend.
        backend: &'static str,
        /// Interactions simulated when the budget check tripped.
        interactions: u64,
        /// The configured budget.
        budget: u64,
    },
    /// A per-population horizon ([`Sweep::horizon_with`](crate::Sweep::horizon_with))
    /// is negative, infinite, or NaN for one of the grid's populations.
    /// Reported by the up-front validation pass, before any simulation
    /// work: an infinite horizon would never finish, and a negative or NaN
    /// one would return the cell with only its `t = 0` row.
    InvalidHorizon {
        /// [`Backend::NAME`] of the rejecting backend.
        backend: &'static str,
        /// The population whose horizon was rejected.
        population: usize,
        /// The rejected horizon.
        horizon: f64,
    },
    /// The resilience watchdog's
    /// [`budget_factor`](crate::ResiliencePolicy::budget_factor) is NaN,
    /// infinite, zero, or negative. Reported before any simulation work:
    /// such a factor saturates every run's budget to 0 (or to `u64::MAX`),
    /// so every run would report a budget overrun (or none ever could).
    InvalidBudgetFactor {
        /// [`Backend::NAME`] of the rejecting backend.
        backend: &'static str,
        /// The rejected factor.
        factor: f64,
    },
    /// The fault plan is malformed for this cell — see [`FaultError`] for
    /// the exact violation. Reported by the up-front compile pass, before
    /// any simulation work (a bad plan fails the whole grid).
    InvalidFaultPlan {
        /// [`Backend::NAME`] of the rejecting backend.
        backend: &'static str,
        /// The exact fault-plan violation.
        error: FaultError,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::AgentIndicesUnsupported { backend, requested } => write!(
                f,
                "the {backend} backend has no per-agent indices; {requested} is unsupported"
            ),
            BackendError::InitCountsUnsupported { backend } => write!(
                f,
                "the {backend} backend builds per-agent initial configurations; \
                 init_counts(..) is unsupported (use init_with(..) / init_with_n(..))"
            ),
            BackendError::InitCountsMismatch {
                backend,
                expected,
                got,
            } => write!(
                f,
                "init_counts(..) for the {backend} backend holds {got}, \
                 but the cell needs {expected}"
            ),
            BackendError::InvalidSchedule { backend, error } => {
                write!(f, "invalid schedule for the {backend} backend: {error}")
            }
            BackendError::BudgetExhausted {
                backend,
                interactions,
                budget,
            } => write!(
                f,
                "the {backend} backend aborted a runaway cell: \
                 {interactions} interactions exceed the budget of {budget}"
            ),
            BackendError::InvalidHorizon {
                backend,
                population,
                horizon,
            } => write!(
                f,
                "horizon for n = {population} on the {backend} backend must be \
                 finite and non-negative (got {horizon})"
            ),
            BackendError::InvalidBudgetFactor { backend, factor } => write!(
                f,
                "the watchdog budget factor for the {backend} backend must be \
                 finite and positive (got {factor})"
            ),
            BackendError::InvalidFaultPlan { backend, error } => {
                write!(f, "invalid fault plan for the {backend} backend: {error}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// The shape of a count vector, as [`BackendError::InitCountsMismatch`]
/// reports it: how many states it covers and what its counts sum to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountsShape {
    /// Number of per-state counts.
    pub states: usize,
    /// Sum of the counts; `None` when it overflows `u64`.
    pub total: Option<u64>,
}

impl fmt::Display for CountsShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.total {
            Some(total) => write!(f, "{} states summing to {total}", self.states),
            None => write!(f, "{} states summing past u64::MAX", self.states),
        }
    }
}

/// An invalid builder setting, reported as a value by the `try_*` builder
/// methods (the panicking builder methods are shims over those).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// Snapshot intervals must be strictly positive.
    NonPositiveSnapshotInterval {
        /// The rejected interval.
        every: f64,
    },
    /// Horizons must be finite and non-negative.
    InvalidHorizon {
        /// The rejected horizon.
        horizon: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonPositiveSnapshotInterval { every } => {
                write!(f, "snapshot interval must be positive (got {every})")
            }
            ConfigError::InvalidHorizon { horizon } => {
                write!(f, "horizon must be finite and non-negative (got {horizon})")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// One fully specified run: everything a [`Backend`] needs to execute a
/// grid cell (or a single experiment).
pub struct CellSpec<'a, S> {
    /// Population size.
    pub n: usize,
    /// RNG seed of this run.
    pub seed: u64,
    /// Simulation horizon in parallel time.
    pub horizon: f64,
    /// Snapshot interval in parallel time.
    pub snapshot_every: f64,
    /// Adversary schedule (empty = static population).
    pub schedule: &'a AdversarySchedule,
    /// Per-agent initial states `f(n, i)` (agent-array backends only;
    /// count backends answer with a typed [`BackendError`]).
    pub init_agents: Option<&'a (dyn Fn(usize, usize) -> S + 'a)>,
    /// Initial per-state counts, summing to `n` (count backends only;
    /// the agent-array backend answers with a typed [`BackendError`],
    /// since its initial configuration is per-agent).
    pub init_counts: Option<Vec<u64>>,
    /// Interaction-count watchdog: when set, the run is aborted with a
    /// typed [`BackendError::BudgetExhausted`] at the first drive-loop
    /// boundary past this many interactions. `None` (the default
    /// everywhere outside resilient sweeps) imposes no limit and leaves
    /// the drive loop's float arithmetic untouched, so budget-less runs
    /// stay bit-identical to historical results.
    pub interaction_budget: Option<u64>,
}

impl<S> fmt::Debug for CellSpec<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellSpec")
            .field("n", &self.n)
            .field("seed", &self.seed)
            .field("horizon", &self.horizon)
            .field("snapshot_every", &self.snapshot_every)
            .field("events", &self.schedule.events().len())
            .field("init_agents", &self.init_agents.is_some())
            .field("init_counts", &self.init_counts.is_some())
            .field("interaction_budget", &self.interaction_budget)
            .finish()
    }
}

/// A simulation substrate that can execute one fully specified run.
///
/// Implemented by the four simulator types ([`Simulator`],
/// [`CountSimulator`], [`JumpSimulator`], [`BatchedCountSimulator`]); the
/// generic drivers are written once against this trait. See the
/// [module docs](self) for the substrate comparison.
pub trait Backend {
    /// The protocol this backend drives.
    type Protocol: SizeEstimator;

    /// The protocol's per-agent state.
    type State;

    /// Short name used in error messages and registry listings.
    const NAME: &'static str;

    /// Checks, before any simulation work, that the backend can run `spec`
    /// under plan `R` and, for a faulted run, the compiled `faults`: every
    /// check a cell body makes before it simulates, in the order it makes
    /// them. [`Backend::run_cell`] calls it first, and
    /// [`Sweep`](crate::Sweep)'s pre-flight calls it once per grid cell, so
    /// both report the same first error.
    ///
    /// Per backend, in order:
    ///
    /// * agent array — `init_counts` is [`BackendError::InitCountsUnsupported`];
    ///   a schedule impossible against `spec.n`, including one that empties
    ///   the population (estimate scans and uniform removals need an
    ///   agent), is [`BackendError::InvalidSchedule`];
    /// * count, batched and jump — per-agent initial states, then a plan
    ///   with a [`Recording::AGENT_FEATURE`], then agent-targeted faults are
    ///   [`BackendError::AgentIndicesUnsupported`]; an impossible schedule
    ///   is [`BackendError::InvalidSchedule`] (an emptied population just
    ///   lets the clock run); an `init_counts` vector of the wrong shape is
    ///   [`BackendError::InitCountsMismatch`].
    fn validate<R>(
        protocol: &Self::Protocol,
        spec: &CellSpec<'_, Self::State>,
        faults: Option<&CompiledFaultPlan>,
    ) -> Result<(), BackendError>
    where
        R: Recording<Self::Protocol>;

    /// Executes one run of `spec` under `recording`.
    ///
    /// Returns the first error of [`Backend::validate`] before any
    /// simulation work.
    fn run_cell<R>(
        protocol: Self::Protocol,
        spec: &CellSpec<'_, Self::State>,
        recording: &R,
    ) -> Result<RunResult, BackendError>
    where
        R: Recording<Self::Protocol>;
}

/// Rejects per-agent features (initial states, then the plan's
/// [`Recording::AGENT_FEATURE`]) on a backend without agent indices.
fn reject_agent_features<P, R, S>(
    backend: &'static str,
    spec: &CellSpec<'_, S>,
) -> Result<(), BackendError>
where
    P: SizeEstimator,
    R: Recording<P>,
{
    let requested = if spec.init_agents.is_some() {
        Some("per-agent initial states (use init_counts(..))")
    } else {
        R::AGENT_FEATURE
    };
    match requested {
        Some(requested) => Err(BackendError::AgentIndicesUnsupported { backend, requested }),
        None => Ok(()),
    }
}

/// Checks that `spec.init_counts`, when set, holds one count per protocol
/// state and sums to `spec.n` (summed with overflow checks); anything else
/// is a typed [`BackendError::InitCountsMismatch`].
fn check_init_counts<P, S>(
    backend: &'static str,
    protocol: &P,
    spec: &CellSpec<'_, S>,
) -> Result<(), BackendError>
where
    P: FiniteProtocol,
{
    let Some(counts) = &spec.init_counts else {
        return Ok(());
    };
    let got = CountsShape {
        states: counts.len(),
        total: counts.iter().try_fold(0u64, |acc, &c| acc.checked_add(c)),
    };
    let expected = CountsShape {
        states: protocol.num_states(),
        total: Some(spec.n as u64),
    };
    if got != expected {
        return Err(BackendError::InitCountsMismatch {
            backend,
            expected,
            got,
        });
    }
    Ok(())
}

/// The initial count vector of a validated count-backend cell:
/// `spec.init_counts` when set, otherwise all `spec.n` agents in the
/// protocol's initial state.
fn initial_counts<P, S>(protocol: &P, spec: &CellSpec<'_, S>) -> Vec<u64>
where
    P: FiniteProtocol,
{
    spec.init_counts
        .clone()
        .unwrap_or_else(|| fresh_counts(protocol, spec.n as u64))
}

/// The simulator interface the drive loop needs: clock access, advancing
/// by parallel time, applying an adversary event, and taking a snapshot.
/// Implemented directly on the agent-array and the three count simulators,
/// so all four execute the *same* boundary/ordering/tolerance semantics
/// for a given schedule.
pub(crate) trait DrivableSim<P: SizeEstimator> {
    /// Parallel time elapsed.
    fn parallel_time(&self) -> f64;
    /// Total interactions simulated (the watchdog-budget metric).
    fn interactions(&self) -> u64;
    /// Live population.
    fn population(&self) -> usize;
    /// Advances by `duration` units of parallel time.
    fn run_parallel_time(&mut self, duration: f64);
    /// Applies one adversary event.
    fn apply_event(&mut self, event: PopulationEvent);
    /// Snapshots the current configuration under plan `R`.
    fn snapshot<R: Recording<P>>(&self) -> Snapshot;
}

/// A faulted run's compiled plan and the hook that corrupts the substrate's
/// initial configuration `I` and its live simulator `D`; `None` is a
/// healthy run.
pub(crate) type Faults<'a, I, D> = Option<(&'a CompiledFaultPlan, &'a mut dyn Corrupt<I, D>)>;

/// The drive loop: records the t = 0 snapshot, fires time-zero events, then
/// advances the simulator between snapshot, event, and fault-injection
/// boundaries, applying events in order, firing injections the moment the
/// clock passes their scheduled times, and snapshotting on the grid — with
/// `spec`'s optional interaction-count watchdog checked after every span.
/// Returns the snapshot rows.
///
/// This is the single source of truth for schedule semantics (time-zero
/// events fire before the first step; events apply the moment the clock
/// passes them; snapshots land on the grid within a 1e-12 tolerance) —
/// agent-array and count-based cells, jump included, fresh and faulted,
/// all run through it, which keeps the paths cross-checkable. Each span
/// advances by `boundary − parallel_time`, so the boundary sequence, and
/// with it every step count and RNG draw, is fixed by the spec alone. With
/// `interaction_budget = None` and no faults (an empty injection-time
/// list), the extra `.min(f64::INFINITY)` is a no-op and the budget check
/// never fires, so the boundary sequence is float-for-float the plain
/// loop's and runs stay bit-identical to historical results.
///
/// Injections at `t <= 0` fire after the t = 0 snapshot and any time-zero
/// adversary events. On budget exhaustion the run aborts with
/// [`BackendError::BudgetExhausted`] tagged `backend`, discarding partial
/// snapshots — a runaway cell's rows are meaningless anyway.
pub(crate) fn drive_schedule_guarded<P, D, R, I>(
    backend: &'static str,
    sim: &mut D,
    spec: &CellSpec<'_, P::State>,
    mut faults: Faults<'_, I, D>,
) -> Result<Vec<Snapshot>, BackendError>
where
    P: SizeEstimator,
    D: DrivableSim<P>,
    R: Recording<P>,
{
    let inject_times = faults.as_ref().map_or(&[][..], |&(plan, _)| plan.times());
    let mut inject = |sim: &mut D, k: usize| {
        if let Some((plan, corrupt)) = &mut faults {
            corrupt.inject(sim, &plan.injections()[k].action);
        }
    };
    let (horizon, schedule) = (spec.horizon, spec.schedule);
    let mut snapshots = Vec::with_capacity(snapshot_capacity(horizon, spec.snapshot_every));
    snapshots.push(sim.snapshot::<R>());
    let mut next_event = 0usize;
    let mut next_snapshot = spec.snapshot_every;
    while schedule.next_time(next_event).is_some_and(|t| t <= 0.0) {
        sim.apply_event(schedule.events()[next_event].event);
        next_event += 1;
    }
    let mut next_inject = 0usize;
    while inject_times.get(next_inject).is_some_and(|&t| t <= 0.0) {
        inject(sim, next_inject);
        next_inject += 1;
    }
    while sim.parallel_time() < horizon {
        let event_time = schedule.next_time(next_event).unwrap_or(f64::INFINITY);
        let inject_time = inject_times
            .get(next_inject)
            .copied()
            .unwrap_or(f64::INFINITY);
        let boundary = next_snapshot.min(event_time).min(inject_time).min(horizon);
        let remaining = boundary - sim.parallel_time();
        if remaining > 0.0 {
            sim.run_parallel_time(remaining);
        }
        if let Some(budget) = spec.interaction_budget {
            if sim.interactions() > budget {
                return Err(BackendError::BudgetExhausted {
                    backend,
                    interactions: sim.interactions(),
                    budget,
                });
            }
        }
        while schedule
            .next_time(next_event)
            .is_some_and(|t| t <= sim.parallel_time())
        {
            sim.apply_event(schedule.events()[next_event].event);
            next_event += 1;
        }
        while inject_times
            .get(next_inject)
            .is_some_and(|&t| t <= sim.parallel_time())
        {
            inject(sim, next_inject);
            next_inject += 1;
        }
        if sim.parallel_time() + 1e-12 >= next_snapshot {
            snapshots.push(sim.snapshot::<R>());
            next_snapshot += spec.snapshot_every;
        }
    }
    Ok(snapshots)
}

/// Initial capacity of a run's snapshot buffer: one row per grid point,
/// capped so an extreme horizon / interval ratio (user input) cannot
/// overflow or reserve gigabytes up front — rows beyond the cap grow the
/// buffer as they arrive.
fn snapshot_capacity(horizon: f64, snapshot_every: f64) -> usize {
    ((horizon / snapshot_every) as usize).min(4096) + 2
}

impl<P, O> DrivableSim<P> for Simulator<P, O>
where
    P: SizeEstimator,
    O: Observer<P>,
{
    fn parallel_time(&self) -> f64 {
        self.parallel_time()
    }
    fn interactions(&self) -> u64 {
        self.interactions()
    }
    fn population(&self) -> usize {
        self.population()
    }
    fn run_parallel_time(&mut self, duration: f64) {
        self.run_parallel_time(duration);
    }
    fn apply_event(&mut self, event: PopulationEvent) {
        match event {
            PopulationEvent::ResizeTo(target) => self.resize_to(target),
            PopulationEvent::Add(count) => self.add_agents(count),
            PopulationEvent::RemoveUniform(count) => self.remove_uniform(count),
            PopulationEvent::RemoveLargestEstimates(count) => self.remove_largest_estimates(count),
        }
    }
    fn snapshot<R: Recording<P>>(&self) -> Snapshot {
        Snapshot {
            parallel_time: self.parallel_time(),
            interactions: self.interactions(),
            n: self.population(),
            estimates: self.estimate_stats(),
            memory: R::memory(self.states()),
        }
    }
}

impl<P> Backend for Simulator<P>
where
    P: SizeEstimator,
{
    type Protocol = P;
    type State = P::State;
    const NAME: &'static str = "agent-array";

    fn validate<R>(
        _protocol: &P,
        spec: &CellSpec<'_, P::State>,
        _faults: Option<&CompiledFaultPlan>,
    ) -> Result<(), BackendError>
    where
        R: Recording<P>,
    {
        let backend = Self::NAME;
        if spec.init_counts.is_some() {
            return Err(BackendError::InitCountsUnsupported { backend });
        }
        spec.schedule
            .validate_for(spec.n as u64, false)
            .map_err(|error| BackendError::InvalidSchedule { backend, error })
    }

    fn run_cell<R>(
        protocol: P,
        spec: &CellSpec<'_, P::State>,
        recording: &R,
    ) -> Result<RunResult, BackendError>
    where
        R: Recording<P>,
    {
        run_agent_cell(protocol, spec, recording, None)
    }
}

/// The one cell body of the agent-array substrate, behind both
/// [`Backend::run_cell`] (no faults) and
/// [`FaultBackend::run_cell_faulted`](crate::FaultBackend::run_cell_faulted).
pub(crate) fn run_agent_cell<P, R>(
    protocol: P,
    spec: &CellSpec<'_, P::State>,
    recording: &R,
    mut faults: Faults<'_, Configuration<P::State>, Simulator<P, R::Observer>>,
) -> Result<RunResult, BackendError>
where
    P: SizeEstimator,
    R: Recording<P>,
{
    let backend = Simulator::<P>::NAME;
    Simulator::<P>::validate::<R>(&protocol, spec, faults.as_ref().map(|&(plan, _)| plan))?;
    let mut config = match spec.init_agents {
        Some(f) => Configuration::from_fn(spec.n, |i| f(spec.n, i)),
        None => Configuration::fresh(&protocol, spec.n),
    };
    if let Some((plan, corrupt)) = &mut faults {
        if plan.is_adversarial_start() {
            // Corrupt before the observer attaches, so incremental metrics
            // (the recovery band) see the adversarial configuration as the
            // t = 0 truth.
            corrupt.start(&mut config);
        }
    }
    let mut sim =
        Simulator::from_config_with_observer(protocol, config, spec.seed, recording.observer());
    let snapshots = drive_schedule_guarded::<P, _, R, _>(backend, &mut sim, spec, faults)?;
    let final_n = sim.population();
    let (_, observer) = sim.into_parts();
    let (ticks, recovery) = R::into_records(observer);
    Ok(RunResult {
        seed: spec.seed,
        snapshots,
        ticks,
        recovery,
        final_n,
    })
}

/// Five-number summary of the estimates implied by per-state counts.
fn summarize<P>(protocol: &P, counts: &[u64]) -> Option<EstimateSummary>
where
    P: FiniteProtocol + SizeEstimator,
{
    let mut hist = EstimateHistogram::new();
    for (idx, &c) in counts.iter().enumerate() {
        if c > 0 {
            hist.add_many(protocol.estimate_bucket(&protocol.state_from_index(idx)), c);
        }
    }
    hist.summary()
}

/// Implements [`DrivableSim`] and [`Backend`] for a count simulator. Its
/// snapshot and event boundaries arrive as exact parallel-time spans, so
/// batched spans never straddle a boundary either — the batched clock
/// stops at (or one interaction past) each one, same as the exact backends,
/// and the jump clock stops at each one with its next event pending.
macro_rules! impl_count_backend {
    ($sim:ident, $bound:path, $name:literal) => {
        impl<P> DrivableSim<P> for $sim<P>
        where
            P: $bound + SizeEstimator,
        {
            fn parallel_time(&self) -> f64 {
                self.parallel_time()
            }
            fn interactions(&self) -> u64 {
                self.interactions()
            }
            fn population(&self) -> usize {
                self.population() as usize
            }
            fn run_parallel_time(&mut self, duration: f64) {
                self.run_parallel_time(duration);
            }
            fn apply_event(&mut self, event: PopulationEvent) {
                match event {
                    PopulationEvent::ResizeTo(target) => self.resize_to(target as u64),
                    PopulationEvent::Add(count) => self.add_agents(count as u64),
                    PopulationEvent::RemoveUniform(count) => self.remove_uniform(count as u64),
                    PopulationEvent::RemoveLargestEstimates(count) => {
                        for (i, c) in
                            largest_estimate_removals(self.protocol(), self.counts(), count as u64)
                        {
                            self.set_count(i, c);
                        }
                    }
                }
            }
            fn snapshot<R: Recording<P>>(&self) -> Snapshot {
                Snapshot {
                    parallel_time: self.parallel_time(),
                    interactions: self.interactions(),
                    n: self.population() as usize,
                    estimates: summarize(self.protocol(), self.counts()),
                    memory: None,
                }
            }
        }

        impl<P> Backend for $sim<P>
        where
            P: $bound + SizeEstimator,
        {
            type Protocol = P;
            type State = P::State;
            const NAME: &'static str = $name;

            fn validate<R>(
                protocol: &P,
                spec: &CellSpec<'_, P::State>,
                faults: Option<&CompiledFaultPlan>,
            ) -> Result<(), BackendError>
            where
                R: Recording<P>,
            {
                let backend = Self::NAME;
                reject_agent_features::<P, R, _>(backend, spec)?;
                if faults.is_some_and(CompiledFaultPlan::targets_agents) {
                    return Err(BackendError::AgentIndicesUnsupported {
                        backend,
                        requested: "per-agent fault targets (use corrupt_random(..))",
                    });
                }
                spec.schedule
                    .validate_for(spec.n as u64, true)
                    .map_err(|error| BackendError::InvalidSchedule { backend, error })?;
                check_init_counts(backend, protocol, spec)
            }

            fn run_cell<R>(
                protocol: P,
                spec: &CellSpec<'_, P::State>,
                _recording: &R,
            ) -> Result<RunResult, BackendError>
            where
                R: Recording<P>,
            {
                run_count_cell::<P, Self, R>(protocol, spec, Self::from_counts, None)
            }
        }
    };
}

impl_count_backend!(CountSimulator, FiniteProtocol, "count");
impl_count_backend!(
    BatchedCountSimulator,
    DeterministicProtocol,
    "batched-count"
);
impl_count_backend!(JumpSimulator, DeterministicProtocol, "jump");

/// The one cell body of the three count backends, behind their
/// [`Backend::run_cell`] (no faults) and the [`CountSimulator`]'s
/// [`FaultBackend::run_cell_faulted`](crate::FaultBackend::run_cell_faulted).
/// `build` constructs the simulator from the (possibly corrupted) initial
/// counts and the run seed.
pub(crate) fn run_count_cell<P, C, R>(
    protocol: P,
    spec: &CellSpec<'_, P::State>,
    build: fn(P, Vec<u64>, u64) -> C,
    mut faults: Faults<'_, Vec<u64>, C>,
) -> Result<RunResult, BackendError>
where
    P: FiniteProtocol + SizeEstimator,
    C: Backend<Protocol = P, State = P::State> + DrivableSim<P>,
    R: Recording<P>,
{
    C::validate::<R>(&protocol, spec, faults.as_ref().map(|&(plan, _)| plan))?;
    let mut counts = initial_counts(&protocol, spec);
    if let Some((plan, corrupt)) = &mut faults {
        if plan.is_adversarial_start() {
            corrupt.start(&mut counts);
        }
    }
    let mut sim = build(protocol, counts, spec.seed);
    let snapshots = drive_schedule_guarded::<P, _, R, _>(C::NAME, &mut sim, spec, faults)?;
    Ok(RunResult {
        seed: spec.seed,
        snapshots,
        ticks: Vec::new(),
        recovery: Vec::new(),
        final_n: sim.population(),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::recording::ScannedEstimates;
    use pp_model::Protocol;
    use rand::Rng;

    /// Binary OR-infection fixture; infected agents report estimate 1.
    #[derive(Debug, Clone)]
    pub(crate) struct Or;
    impl Protocol for Or {
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
    impl SizeEstimator for Or {
        fn estimate_log2(&self, s: &bool) -> Option<f64> {
            s.then_some(1.0)
        }
    }
    impl DeterministicProtocol for Or {}

    fn spec<'a>(
        (n, seed, horizon): (usize, u64, f64),
        schedule: &'a AdversarySchedule,
        counts: Vec<u64>,
    ) -> CellSpec<'a, bool> {
        CellSpec {
            n,
            seed,
            horizon,
            snapshot_every: 1.0,
            schedule,
            init_agents: None,
            init_counts: Some(counts),
            interaction_budget: None,
        }
    }

    /// A population change drops the jump backend's pending event, whose
    /// pair weight the change made stale: removing every infected agent
    /// between grid points leaves the run quiescent, with no panic and no
    /// count moving after it, and adding susceptible agents to a fully
    /// infected population re-arms the chain. Interactions are rebased at
    /// each change and never decrease.
    #[test]
    fn jump_population_changes_drop_the_stale_pending_event() {
        let monotone = |r: &RunResult| {
            r.snapshots
                .windows(2)
                .all(|w| w[0].interactions <= w[1].interactions)
        };
        let cure = AdversarySchedule::new().at(2.5, PopulationEvent::RemoveLargestEstimates(500));
        let cell = spec((1_000, 3, 8.0), &cure, vec![990, 10]);
        let r = JumpSimulator::run_cell(Or, &cell, &ScannedEstimates).unwrap();
        assert!(r.snapshot_at(2.0).estimates.is_some(), "infected before");
        for s in &r.snapshots[3..] {
            assert_eq!((s.n, s.estimates), (500, None), "t = {}", s.parallel_time);
        }
        assert!(monotone(&r));

        let reinfect = AdversarySchedule::new().at(2.5, PopulationEvent::Add(900));
        let cell = spec((100, 4, 40.0), &reinfect, vec![0, 100]);
        let r = JumpSimulator::run_cell(Or, &cell, &ScannedEstimates).unwrap();
        assert_eq!(r.snapshot_at(2.0).interactions, 200);
        assert_eq!(r.snapshot_at(2.0).estimates.unwrap().without_estimate, 0);
        let after = r.snapshot_at(3.0);
        assert_eq!(after.interactions, 250 + 500, "rebased at t = 2.5");
        assert!(after.estimates.unwrap().without_estimate < 900, "re-armed");
        let last = r.snapshots.last().unwrap();
        assert_eq!(
            (last.n, last.estimates.unwrap().without_estimate),
            (1_000, 0)
        );
        assert!(monotone(&r));
    }

    #[test]
    fn error_displays_name_the_backend_and_hint() {
        let e = BackendError::AgentIndicesUnsupported {
            backend: "count",
            requested: "per-agent initial states (use init_counts(..))",
        };
        assert!(e.to_string().contains("use init_counts"));
        let e = ConfigError::NonPositiveSnapshotInterval { every: 0.0 };
        assert!(e.to_string().contains("snapshot interval must be positive"));
        let e = BackendError::InvalidSchedule {
            backend: "agent-array",
            error: ScheduleError::EmptiesPopulation { at: 2.0 },
        };
        assert!(e.to_string().contains("agent-array"));
        assert!(e.to_string().contains("empties the population"));
        let e = BackendError::BudgetExhausted {
            backend: "count",
            interactions: 212,
            budget: 150,
        };
        assert!(e.to_string().contains("212 interactions"));
        assert!(e.to_string().contains("budget of 150"));
        let e = BackendError::InitCountsMismatch {
            backend: "count",
            expected: CountsShape {
                states: 2,
                total: Some(16),
            },
            got: CountsShape {
                states: 2,
                total: None,
            },
        };
        assert!(e.to_string().contains("2 states summing past u64::MAX"));
        assert!(e.to_string().contains("needs 2 states summing to 16"));
    }
}
