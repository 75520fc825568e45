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
//!   simulation-speedup idea); static populations only;
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
//! Capability consts ([`Backend::SUPPORTS_ADVERSARY`],
//! [`Backend::SUPPORTS_AGENT_INDICES`]) describe what a substrate can do;
//! a spec or plan that exceeds them is answered with a typed
//! [`BackendError`] instead of a mid-run panic, so callers can match on
//! the exact unsupported combination.
//!
//! All four backends execute the *same* schedule semantics. The agent-array
//! and both count backends run one shared drive loop — the single source of
//! truth for event ordering, snapshot-grid tolerance, and time-zero events,
//! for fresh, faulted, and checkpointed runs alike; the two count backends
//! also share one driver and one `run_cell` body. The jump backend, whose
//! clock leaps past boundaries, reproduces the same grid contract in its own
//! loop (see [`JumpSimulator`]'s `Backend` impl).

use crate::adversary::{AdversarySchedule, PopulationEvent, ScheduleError};
use crate::batched_sim::BatchedCountSimulator;
use crate::checkpoint::CheckpointOutcome;
use crate::count_sim::CountSimulator;
use crate::fault::FaultError;
use crate::histogram::EstimateHistogram;
use crate::jump_sim::JumpSimulator;
use crate::recording::Recording;
use crate::removal::largest_estimate_removals;
use crate::series::{EstimateSummary, RunResult, Snapshot};
use crate::simulator::Simulator;
use pp_model::{Configuration, DeterministicProtocol, FiniteProtocol, SizeEstimator};
use rand::rngs::SmallRng;
use std::fmt;
use std::marker::PhantomData;

/// A backend/spec/plan combination the backend cannot execute.
///
/// These are *contract* errors — the request itself is unsupported, so they
/// surface before any simulation work starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendError {
    /// The backend cannot apply adversary population events
    /// (its [`Backend::SUPPORTS_ADVERSARY`] is `false`).
    AdversaryUnsupported {
        /// [`Backend::NAME`] of the rejecting backend.
        backend: &'static str,
    },
    /// The backend tracks state counts, not indexed agents, so the
    /// requested feature has no agent to attach to
    /// (its [`Backend::SUPPORTS_AGENT_INDICES`] is `false`).
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
            BackendError::AdversaryUnsupported { backend } => write!(
                f,
                "the {backend} backend supports static schedules only; \
                 run adversary schedules on the agent-array or count backend"
            ),
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

    /// Whether the backend can apply adversary population events.
    const SUPPORTS_ADVERSARY: bool;

    /// Whether the backend indexes individual agents — required for
    /// per-agent initial configurations, tick recording, and memory scans.
    const SUPPORTS_AGENT_INDICES: bool;

    /// Whether the backend can keep running after an adversary event leaves
    /// the population empty. The count backends track per-state counters and
    /// simply let the clock run; the agent-array backend's estimate scans and
    /// uniform-removal draws assume at least one agent, so schedules that
    /// empty it are rejected up front with a typed
    /// [`BackendError::InvalidSchedule`].
    const SUPPORTS_EMPTY_POPULATION: bool = true;

    /// Executes one run of `spec` under `recording`.
    ///
    /// Returns a typed [`BackendError`] (before any simulation work) when
    /// the spec or plan requests a capability the backend lacks.
    fn run_cell<R>(
        protocol: Self::Protocol,
        spec: &CellSpec<'_, Self::State>,
        recording: &R,
    ) -> Result<RunResult, BackendError>
    where
        R: Recording<Self::Protocol>;
}

/// The per-agent feature a spec × plan requests, if any — the one place
/// the feature names and their priority order live, shared by the
/// cell-level validation below and [`Sweep`](crate::Sweep)'s grid-level
/// pre-flight so the two paths can never diverge.
pub(crate) fn requested_agent_feature<P, R>(init_agents: bool) -> Option<&'static str>
where
    P: SizeEstimator,
    R: Recording<P>,
{
    if init_agents {
        Some("per-agent initial states (use init_counts(..))")
    } else if R::TICKS {
        Some("tick recording")
    } else if R::MEMORY {
        Some("memory recording")
    } else if R::RECOVERY {
        Some("recovery recording")
    } else {
        None
    }
}

/// Rejects per-agent features (initial states, tick recording, memory
/// scans) on a backend without agent indices.
pub(crate) fn reject_agent_features<P, R, S>(
    backend: &'static str,
    spec: &CellSpec<'_, S>,
) -> Result<(), BackendError>
where
    P: SizeEstimator,
    R: Recording<P>,
{
    match requested_agent_feature::<P, R>(spec.init_agents.is_some()) {
        Some(requested) => Err(BackendError::AgentIndicesUnsupported { backend, requested }),
        None => Ok(()),
    }
}

/// The initial count vector of a count-backend cell: `spec.init_counts`
/// when set, otherwise all `spec.n` agents in the protocol's initial state.
///
/// Supplied counts must hold one entry per protocol state and sum to
/// `spec.n` (summed with overflow checks); anything else is a typed
/// [`BackendError::InitCountsMismatch`]. Shared by every count-backend
/// entry point, so each rejects the same inputs the same way.
pub(crate) fn initial_counts<P, S>(
    backend: &'static str,
    protocol: &P,
    spec: &CellSpec<'_, S>,
) -> Result<Vec<u64>, BackendError>
where
    P: FiniteProtocol,
{
    let states = protocol.num_states();
    let n = spec.n as u64;
    let Some(counts) = &spec.init_counts else {
        let mut fresh = vec![0u64; states];
        fresh[protocol.state_index(&protocol.initial_state())] = n;
        return Ok(fresh);
    };
    let got = CountsShape {
        states: counts.len(),
        total: counts.iter().try_fold(0u64, |acc, &c| acc.checked_add(c)),
    };
    let expected = CountsShape {
        states,
        total: Some(n),
    };
    if got != expected {
        return Err(BackendError::InitCountsMismatch {
            backend,
            expected,
            got,
        });
    }
    Ok(counts.clone())
}

/// Validates `spec`'s schedule against its initial population, wrapping the
/// violation in [`BackendError::InvalidSchedule`] tagged with the backend.
/// Shared by every adversary-capable `run_cell`, and by
/// [`Sweep`](crate::Sweep)'s grid-level pre-flight via the same
/// [`AdversarySchedule::validate_for`], so the two paths agree.
pub(crate) fn validate_schedule<S>(
    backend: &'static str,
    spec: &CellSpec<'_, S>,
    allows_empty: bool,
) -> Result<(), BackendError> {
    spec.schedule
        .validate_for(spec.n as u64, allows_empty)
        .map_err(|error| BackendError::InvalidSchedule { backend, error })
}

/// The minimal simulator interface the drive loop needs: clock access,
/// advancing by parallel time, applying an adversary event, and taking a
/// snapshot. Implemented for the agent-array and count simulators, so both
/// execute the *same* boundary/ordering/tolerance semantics for a given
/// schedule.
pub(crate) trait DrivableSim {
    /// [`Backend::NAME`] of the driven backend, for budget errors.
    const NAME: &'static str;
    /// Parallel time elapsed.
    fn parallel_time(&self) -> f64;
    /// Total interactions simulated (the watchdog-budget metric).
    fn interactions(&self) -> u64;
    /// Advances by `duration` units of parallel time.
    fn run_parallel_time(&mut self, duration: f64);
    /// Applies one adversary event.
    fn apply_event(&mut self, event: PopulationEvent);
    /// Snapshots the current configuration.
    fn snapshot(&self) -> Snapshot;
}

/// The drive loop, resumable at `cursor`: advances the simulator between
/// snapshot, event, and fault-injection boundaries, applying events in
/// order, firing injections the moment the clock passes their scheduled
/// times, and snapshotting on the grid — with `spec`'s optional
/// interaction-count watchdog checked after every span.
///
/// This is the single source of truth for schedule semantics (time-zero
/// events fire before the first step; events apply the moment the clock
/// passes them; snapshots land on the grid within a 1e-12 tolerance) —
/// agent-array and count-based cells, fresh, faulted, and checkpointed,
/// all run through it, which keeps the paths cross-checkable. With
/// `interaction_budget = None`, no `inject_times`, and an infinite
/// `stop_after`, the extra `.min(f64::INFINITY)` is a no-op and neither
/// check ever fires, so the boundary sequence is float-for-float the plain
/// loop's and runs stay bit-identical to historical results.
///
/// `inject_times` must be sorted ascending (in parallel time) and index
/// from the start of the run, so only a fresh drive passes any; injections
/// at `t <= 0` fire after the t = 0 snapshot and any time-zero adversary
/// events. On budget exhaustion the run aborts with
/// [`BackendError::BudgetExhausted`], discarding partial snapshots — a
/// runaway cell's rows are meaningless anyway.
///
/// The drive pauses immediately after recording the first snapshot-grid
/// point at or past `stop_after` (`f64::INFINITY` never pauses). Returns
/// `Ok(true)` when the horizon was reached, `Ok(false)` when the drive
/// paused. Pausing *only* at the loop's own snapshot boundaries is
/// load-bearing for checkpoint bit-identity: each `run_parallel_time` call
/// computes its float target as `parallel_time + (boundary −
/// parallel_time)`, so a resumed drive reproduces the uninterrupted run's
/// exact (time, boundary) pairs — hence the same step counts, the same RNG
/// stream, and byte-identical snapshots. A pause at an arbitrary mid-span
/// time would split one `run_parallel_time` span into two with a different
/// float target sequence.
pub(crate) fn drive_schedule_guarded<D: DrivableSim, S>(
    sim: &mut D,
    cursor: &mut DriveCursor,
    spec: &CellSpec<'_, S>,
    inject_times: &[f64],
    inject: &mut dyn FnMut(&mut D, usize),
    stop_after: f64,
) -> Result<bool, BackendError> {
    debug_assert!(
        inject_times.windows(2).all(|w| w[0] <= w[1]),
        "injection times must be sorted"
    );
    let (horizon, schedule) = (spec.horizon, spec.schedule);
    let mut next_inject = 0usize;
    while inject_times.get(next_inject).is_some_and(|&t| t <= 0.0) {
        inject(sim, next_inject);
        next_inject += 1;
    }
    while sim.parallel_time() < horizon {
        let event_time = schedule
            .next_time(cursor.next_event)
            .unwrap_or(f64::INFINITY);
        let inject_time = inject_times
            .get(next_inject)
            .copied()
            .unwrap_or(f64::INFINITY);
        let boundary = cursor
            .next_snapshot
            .min(event_time)
            .min(inject_time)
            .min(horizon);
        let remaining = boundary - sim.parallel_time();
        if remaining > 0.0 {
            sim.run_parallel_time(remaining);
        }
        if let Some(budget) = spec.interaction_budget {
            if sim.interactions() > budget {
                return Err(BackendError::BudgetExhausted {
                    backend: D::NAME,
                    interactions: sim.interactions(),
                    budget,
                });
            }
        }
        while schedule
            .next_time(cursor.next_event)
            .is_some_and(|t| t <= sim.parallel_time())
        {
            sim.apply_event(schedule.events()[cursor.next_event].event);
            cursor.next_event += 1;
        }
        while inject_times
            .get(next_inject)
            .is_some_and(|&t| t <= sim.parallel_time())
        {
            inject(sim, next_inject);
            next_inject += 1;
        }
        if sim.parallel_time() + 1e-12 >= cursor.next_snapshot {
            cursor.snapshots.push(sim.snapshot());
            cursor.next_snapshot += spec.snapshot_every;
            if sim.parallel_time() + 1e-12 >= stop_after {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Initial capacity of a run's snapshot buffer: one row per grid point,
/// capped so an extreme horizon / interval ratio (user input) cannot
/// overflow or reserve gigabytes up front — rows beyond the cap grow the
/// buffer as they arrive.
fn snapshot_capacity(horizon: f64, snapshot_every: f64) -> usize {
    ((horizon / snapshot_every) as usize).min(4096) + 2
}

/// Resumable position inside the drive loop: the index of the next pending
/// schedule event, the next snapshot-grid point, and the rows collected so
/// far. These three fields plus the simulator state are exactly what
/// [checkpoint/resume](crate::checkpoint) serializes — restoring them and
/// re-entering [`drive_schedule_guarded`] replays the identical remaining
/// boundary sequence, which is what makes a split run bit-identical to an
/// uninterrupted one.
pub(crate) struct DriveCursor {
    /// Index of the first schedule event not yet applied.
    pub(crate) next_event: usize,
    /// Next snapshot-grid point.
    pub(crate) next_snapshot: f64,
    /// Snapshots collected so far.
    pub(crate) snapshots: Vec<Snapshot>,
}

impl DriveCursor {
    /// Starts a fresh drive: records the t = 0 snapshot and fires any
    /// time-zero events before the first step.
    pub(crate) fn fresh<D: DrivableSim, S>(sim: &mut D, spec: &CellSpec<'_, S>) -> Self {
        let mut snapshots =
            Vec::with_capacity(snapshot_capacity(spec.horizon, spec.snapshot_every));
        snapshots.push(sim.snapshot());
        let mut next_event = 0usize;
        while spec
            .schedule
            .next_time(next_event)
            .is_some_and(|t| t <= 0.0)
        {
            sim.apply_event(spec.schedule.events()[next_event].event);
            next_event += 1;
        }
        Self {
            next_event,
            next_snapshot: spec.snapshot_every,
            snapshots,
        }
    }
}

/// Adapts a [`Simulator`] plus a [`Recording`] plan to [`DrivableSim`].
pub(crate) struct AgentDriver<'a, P, R>
where
    P: SizeEstimator,
    R: Recording<P>,
{
    pub(crate) sim: &'a mut Simulator<P, R::Observer>,
    pub(crate) _plan: PhantomData<R>,
}

impl<P, R> DrivableSim for AgentDriver<'_, P, R>
where
    P: SizeEstimator,
    R: Recording<P>,
{
    const NAME: &'static str = <Simulator<P> as Backend>::NAME;
    fn parallel_time(&self) -> f64 {
        self.sim.parallel_time()
    }
    fn interactions(&self) -> u64 {
        self.sim.interactions()
    }
    fn run_parallel_time(&mut self, duration: f64) {
        self.sim.run_parallel_time(duration);
    }
    fn apply_event(&mut self, event: PopulationEvent) {
        match event {
            PopulationEvent::ResizeTo(target) => self.sim.resize_to(target),
            PopulationEvent::Add(count) => self.sim.add_agents(count),
            PopulationEvent::RemoveUniform(count) => self.sim.remove_uniform(count),
            PopulationEvent::RemoveLargestEstimates(count) => {
                self.sim.remove_largest_estimates(count)
            }
        }
    }
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            parallel_time: self.sim.parallel_time(),
            interactions: self.sim.interactions(),
            n: self.sim.population(),
            estimates: R::estimates(self.sim.protocol(), self.sim.observer(), self.sim.states()),
            memory: R::memory(self.sim.states()),
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
    const SUPPORTS_ADVERSARY: bool = true;
    const SUPPORTS_AGENT_INDICES: bool = true;
    const SUPPORTS_EMPTY_POPULATION: bool = false;

    fn run_cell<R>(
        protocol: P,
        spec: &CellSpec<'_, P::State>,
        recording: &R,
    ) -> Result<RunResult, BackendError>
    where
        R: Recording<P>,
    {
        if spec.init_counts.is_some() {
            return Err(BackendError::InitCountsUnsupported {
                backend: Self::NAME,
            });
        }
        validate_schedule(Self::NAME, spec, Self::SUPPORTS_EMPTY_POPULATION)?;
        let config = match spec.init_agents {
            Some(f) => Configuration::from_fn(spec.n, |i| f(spec.n, i)),
            None => Configuration::fresh(&protocol, spec.n),
        };
        let mut sim =
            Simulator::from_config_with_observer(protocol, config, spec.seed, recording.observer());
        let mut driver = AgentDriver::<P, R> {
            sim: &mut sim,
            _plan: PhantomData,
        };
        let mut cursor = DriveCursor::fresh(&mut driver, spec);
        drive_schedule_guarded(
            &mut driver,
            &mut cursor,
            spec,
            &[],
            &mut |_, _| {},
            f64::INFINITY,
        )?;
        let final_n = sim.population();
        let (_, observer) = sim.into_parts();
        let (ticks, recovery) = R::into_records(observer);
        Ok(RunResult {
            seed: spec.seed,
            snapshots: cursor.snapshots,
            ticks,
            recovery,
            final_n,
        })
    }
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

/// The surface the count driver and the checkpoint format need from a
/// count backend ([`CountSimulator`], [`BatchedCountSimulator`]). Each
/// method delegates to the simulator's inherent method of the same name.
pub(crate) trait CountBackend: Backend<Protocol: FiniteProtocol> {
    /// Backend tag written into [`RunCheckpoint`](crate::RunCheckpoint) files.
    const CHECKPOINT_TAG: u8;
    fn from_counts(protocol: Self::Protocol, counts: Vec<u64>, seed: u64) -> Self;
    fn restore(
        protocol: Self::Protocol,
        counts: Vec<u64>,
        rng: SmallRng,
        interactions: u64,
        parallel_time: f64,
    ) -> Self;
    fn protocol(&self) -> &Self::Protocol;
    fn counts(&self) -> &[u64];
    fn rng_state(&self) -> [u64; 4];
    fn population(&self) -> u64;
    fn interactions(&self) -> u64;
    fn parallel_time(&self) -> f64;
    fn run_parallel_time(&mut self, duration: f64);
    fn add_agents(&mut self, count: u64);
    fn remove_uniform(&mut self, count: u64);
    fn set_count(&mut self, i: usize, count: u64);
    fn resize_to(&mut self, target: u64);
}

/// Implements [`CountBackend`] for a count simulator by delegating every
/// method to its inherent namesake (inherent methods win method
/// resolution, so `self.counts()` below is never the trait method).
macro_rules! delegate_count_backend {
    ($sim:ident, $bound:path, $tag:literal) => {
        impl<P> CountBackend for $sim<P>
        where
            P: $bound + SizeEstimator,
        {
            const CHECKPOINT_TAG: u8 = $tag;
            fn from_counts(protocol: P, counts: Vec<u64>, seed: u64) -> Self {
                $sim::from_counts(protocol, counts, seed)
            }
            fn restore(
                protocol: P,
                counts: Vec<u64>,
                rng: SmallRng,
                interactions: u64,
                parallel_time: f64,
            ) -> Self {
                $sim::restore(protocol, counts, rng, interactions, parallel_time)
            }
            fn protocol(&self) -> &P {
                self.protocol()
            }
            fn counts(&self) -> &[u64] {
                self.counts()
            }
            fn rng_state(&self) -> [u64; 4] {
                self.rng().state()
            }
            fn population(&self) -> u64 {
                self.population()
            }
            fn interactions(&self) -> u64 {
                self.interactions()
            }
            fn parallel_time(&self) -> f64 {
                self.parallel_time()
            }
            fn run_parallel_time(&mut self, duration: f64) {
                self.run_parallel_time(duration)
            }
            fn add_agents(&mut self, count: u64) {
                self.add_agents(count)
            }
            fn remove_uniform(&mut self, count: u64) {
                self.remove_uniform(count)
            }
            fn set_count(&mut self, i: usize, count: u64) {
                self.set_count(i, count)
            }
            fn resize_to(&mut self, target: u64) {
                self.resize_to(target)
            }
        }
    };
}

delegate_count_backend!(CountSimulator, FiniteProtocol, 1);
delegate_count_backend!(BatchedCountSimulator, DeterministicProtocol, 2);

/// Adapts a count backend plus a [`Recording`] plan to the shared drive
/// loop, so counted cells execute exactly its boundary and event-ordering
/// semantics. Snapshot and event boundaries arrive as exact parallel-time
/// spans, so batched spans never straddle a boundary either — the batched
/// clock stops at (or one interaction past) each one, same as the exact
/// backends.
pub(crate) struct CountDriver<'a, C, R> {
    pub(crate) sim: &'a mut C,
    pub(crate) _plan: PhantomData<R>,
}

impl<C, R> DrivableSim for CountDriver<'_, C, R>
where
    C: CountBackend,
    R: Recording<C::Protocol>,
{
    const NAME: &'static str = C::NAME;
    fn parallel_time(&self) -> f64 {
        self.sim.parallel_time()
    }
    fn interactions(&self) -> u64 {
        self.sim.interactions()
    }
    fn run_parallel_time(&mut self, duration: f64) {
        self.sim.run_parallel_time(duration);
    }
    fn apply_event(&mut self, event: PopulationEvent) {
        match event {
            PopulationEvent::ResizeTo(target) => self.sim.resize_to(target as u64),
            PopulationEvent::Add(count) => self.sim.add_agents(count as u64),
            PopulationEvent::RemoveUniform(count) => self.sim.remove_uniform(count as u64),
            PopulationEvent::RemoveLargestEstimates(count) => {
                for (i, c) in
                    largest_estimate_removals(self.sim.protocol(), self.sim.counts(), count as u64)
                {
                    self.sim.set_count(i, c);
                }
            }
        }
    }
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            parallel_time: self.sim.parallel_time(),
            interactions: self.sim.interactions(),
            n: self.sim.population() as usize,
            estimates: if R::ESTIMATES {
                summarize(self.sim.protocol(), self.sim.counts())
            } else {
                None
            },
            memory: None,
        }
    }
}

impl<P> Backend for CountSimulator<P>
where
    P: FiniteProtocol + SizeEstimator,
{
    type Protocol = P;
    type State = P::State;
    const NAME: &'static str = "count";
    const SUPPORTS_ADVERSARY: bool = true;
    const SUPPORTS_AGENT_INDICES: bool = false;

    fn run_cell<R>(
        protocol: P,
        spec: &CellSpec<'_, P::State>,
        _recording: &R,
    ) -> Result<RunResult, BackendError>
    where
        R: Recording<P>,
    {
        run_count_cell::<Self, R>(protocol, spec)
    }
}

impl<P> Backend for BatchedCountSimulator<P>
where
    P: DeterministicProtocol + SizeEstimator,
{
    type Protocol = P;
    type State = P::State;
    const NAME: &'static str = "batched-count";
    const SUPPORTS_ADVERSARY: bool = true;
    const SUPPORTS_AGENT_INDICES: bool = false;

    fn run_cell<R>(
        protocol: P,
        spec: &CellSpec<'_, P::State>,
        _recording: &R,
    ) -> Result<RunResult, BackendError>
    where
        R: Recording<P>,
    {
        run_count_cell::<Self, R>(protocol, spec)
    }
}

/// The one `run_cell` body behind both count backends: the checkpointable
/// drive with a stop time that never comes.
fn run_count_cell<C, R>(
    protocol: C::Protocol,
    spec: &CellSpec<'_, C::State>,
) -> Result<RunResult, BackendError>
where
    C: CountBackend,
    R: Recording<C::Protocol>,
{
    match crate::checkpoint::run_count_cell_until::<C, R>(protocol, spec, f64::INFINITY)? {
        CheckpointOutcome::Finished(result) => Ok(result),
        CheckpointOutcome::Paused(_) => unreachable!("an infinite stop time never pauses"),
    }
}

impl<P> Backend for JumpSimulator<P>
where
    P: DeterministicProtocol + SizeEstimator,
{
    type Protocol = P;
    type State = P::State;
    const NAME: &'static str = "jump";
    const SUPPORTS_ADVERSARY: bool = false;
    const SUPPORTS_AGENT_INDICES: bool = false;

    /// Runs one event-jump cell: no-op runs are skipped in closed form, so
    /// late-epidemic horizons cost only their effective interactions.
    /// Snapshot boundaries crossed inside a jump record the pre-jump
    /// configuration — exactly the configuration the model holds at that
    /// instant, since skipped interactions change nothing — with the
    /// interaction count the boundary time implies (`t·n`).
    fn run_cell<R>(
        protocol: P,
        spec: &CellSpec<'_, P::State>,
        recording: &R,
    ) -> Result<RunResult, BackendError>
    where
        R: Recording<P>,
    {
        let _ = recording;
        if !spec.schedule.is_empty() {
            return Err(BackendError::AdversaryUnsupported {
                backend: Self::NAME,
            });
        }
        reject_agent_features::<P, R, _>(Self::NAME, spec)?;
        let n = spec.n as u64;
        let (seed, horizon, snapshot_every) = (spec.seed, spec.horizon, spec.snapshot_every);
        let counts = initial_counts(Self::NAME, &protocol, spec)?;
        let mut sim = JumpSimulator::from_counts(protocol, counts, seed);
        let snap = |t: f64, interactions: u64, counts: &[u64], p: &P| Snapshot {
            parallel_time: t,
            interactions,
            n: n as usize,
            estimates: if R::ESTIMATES {
                summarize(p, counts)
            } else {
                None
            },
            memory: None,
        };
        let mut snapshots = Vec::with_capacity(snapshot_capacity(horizon, snapshot_every));
        {
            let (p, c) = (sim.protocol(), sim.counts());
            snapshots.push(snap(0.0, 0, c, p));
        }
        let mut next_snapshot = snapshot_every;
        // The configuration before each event, copied into one buffer
        // (the population is static, so its length never changes).
        let mut before = sim.counts().to_vec();
        while sim.parallel_time() < horizon {
            before.copy_from_slice(sim.counts());
            let advanced = sim.step_event();
            // The jump chain skips no-op interactions in closed form, so the
            // watchdog meters the interactions the clock *implies* (t·n) —
            // the same budget currency as the stepping backends.
            if let (Some(limit), true) = (spec.interaction_budget, advanced) {
                let implied = (sim.parallel_time().min(horizon) * n as f64) as u64;
                if implied > limit {
                    return Err(BackendError::BudgetExhausted {
                        backend: Self::NAME,
                        interactions: implied,
                        budget: limit,
                    });
                }
            }
            let now = if advanced {
                sim.parallel_time()
            } else {
                horizon
            };
            // Fill every grid point the jump (or quiescence) carried us
            // past with the configuration that was current during that span.
            while next_snapshot <= now.min(horizon) + 1e-12 {
                let implied = (next_snapshot * n as f64).round() as u64;
                snapshots.push(snap(next_snapshot, implied, &before, sim.protocol()));
                next_snapshot += snapshot_every;
            }
            if !advanced {
                break;
            }
        }
        Ok(RunResult {
            seed,
            snapshots,
            ticks: Vec::new(),
            recovery: Vec::new(),
            final_n: n as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recording::{ScannedEstimates, WithMemory, WithTicks};
    use pp_model::{Corruptible, Protocol, TickProtocol};
    use rand::Rng;

    /// Binary OR-infection fixture; infected agents report estimate 1.
    #[derive(Clone)]
    struct Or;
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

    fn spec<'a>(
        n: usize,
        seed: u64,
        horizon: f64,
        schedule: &'a AdversarySchedule,
    ) -> CellSpec<'a, bool> {
        CellSpec {
            n,
            seed,
            horizon,
            snapshot_every: 1.0,
            schedule,
            init_agents: None,
            init_counts: None,
            interaction_budget: None,
        }
    }

    #[test]
    fn counted_cell_snapshots_land_on_grid() {
        let none = AdversarySchedule::new();
        let r =
            CountSimulator::run_cell(Or, &spec(100, 1, 10.0, &none), &ScannedEstimates).unwrap();
        assert_eq!(r.snapshots.len(), 11);
        assert_eq!(r.final_n, 100);
        for (i, s) in r.snapshots.iter().enumerate() {
            assert!((s.parallel_time - i as f64).abs() < 0.05);
        }
    }

    #[test]
    fn counted_cell_applies_adversary_events() {
        let schedule = AdversarySchedule::new().at(3.0, PopulationEvent::ResizeTo(10));
        let r =
            CountSimulator::run_cell(Or, &spec(200, 2, 6.0, &schedule), &ScannedEstimates).unwrap();
        assert_eq!(r.final_n, 10);
        assert_eq!(r.snapshot_at(2.0).n, 200);
        assert_eq!(r.snapshot_at(5.0).n, 10);
    }

    #[test]
    fn remove_largest_estimates_empties_top_states_first() {
        // The 3 infected (estimate 1) go first, then 1 susceptible (None).
        assert_eq!(
            largest_estimate_removals(&Or, &[5, 3], 4),
            vec![(1, 0), (0, 4)]
        );
        assert_eq!(largest_estimate_removals(&Or, &[5, 3], 0), vec![]);
    }

    #[test]
    fn jumped_quiescent_run_fills_the_grid() {
        // Fresh init for Or is all-susceptible: quiescent from the start.
        let n = 1_000_000;
        let none = AdversarySchedule::new();
        let r = JumpSimulator::run_cell(Or, &spec(n, 7, 5.0, &none), &ScannedEstimates).unwrap();
        assert_eq!(r.snapshots.len(), 6, "quiescent run still fills the grid");
        assert!(r.snapshots.iter().all(|s| s.estimates.is_none()));
        assert_eq!(r.snapshots[3].interactions, 3 * n as u64);
    }

    #[test]
    fn jumped_epidemic_completes_at_agent_array_hostile_scale() {
        // One infected among a million: the jump chain materializes only
        // the n − 1 effective interactions, so this finishes instantly.
        let n = 1_000_000u64;
        let none = AdversarySchedule::new();
        let mut spec = spec(n as usize, 9, 60.0, &none);
        spec.snapshot_every = 10.0;
        spec.init_counts = Some(vec![n - 1, 1]);
        let r = JumpSimulator::run_cell(Or, &spec, &ScannedEstimates).unwrap();
        let last = r.snapshots.last().unwrap().estimates.unwrap();
        assert_eq!(last.min, 1.0, "epidemic must have reached everyone");
        assert_eq!(last.without_estimate, 0);
        // Early snapshots still show susceptible agents.
        assert!(
            r.snapshots[0].estimates.is_none()
                || r.snapshots[0].estimates.unwrap().without_estimate > 0
        );
    }

    #[test]
    fn batched_cell_snapshots_land_on_grid_and_apply_adversary_events() {
        let schedule = AdversarySchedule::new().at(3.0, PopulationEvent::ResizeTo(10));
        let r =
            BatchedCountSimulator::run_cell(Or, &spec(200, 2, 6.0, &schedule), &ScannedEstimates)
                .unwrap();
        assert_eq!(r.final_n, 10);
        assert_eq!(r.snapshot_at(2.0).n, 200);
        assert_eq!(r.snapshot_at(5.0).n, 10);
        for (i, s) in r.snapshots.iter().enumerate() {
            assert!((s.parallel_time - i as f64).abs() < 0.05);
        }
    }

    #[test]
    fn batched_cell_matches_counted_cell_below_the_exact_threshold() {
        // At n ≤ EXACT_POPULATION_THRESHOLD the batched backend steps
        // exactly — same draws, same trajectory, snapshot for snapshot.
        let schedule = AdversarySchedule::new().at(2.0, PopulationEvent::RemoveUniform(100));
        let cell = spec(1_000, 5, 8.0, &schedule);
        let mut cell = cell;
        cell.init_counts = Some(vec![999, 1]);
        let batched = BatchedCountSimulator::run_cell(Or, &cell, &ScannedEstimates).unwrap();
        let counted = CountSimulator::run_cell(Or, &cell, &ScannedEstimates).unwrap();
        assert_eq!(batched.snapshots, counted.snapshots);
        assert_eq!(batched.final_n, counted.final_n);
    }

    #[test]
    fn batched_backend_rejects_per_agent_features_with_typed_errors() {
        let none = AdversarySchedule::new();
        assert_eq!(
            BatchedCountSimulator::run_cell(
                Or,
                &spec(16, 1, 2.0, &none),
                &WithTicks(ScannedEstimates)
            )
            .unwrap_err(),
            BackendError::AgentIndicesUnsupported {
                backend: "batched-count",
                requested: "tick recording"
            }
        );
    }

    #[test]
    fn jump_backend_rejects_adversary_schedules_with_a_typed_error() {
        let schedule = AdversarySchedule::new().at(1.0, PopulationEvent::ResizeTo(8));
        assert_eq!(
            JumpSimulator::run_cell(Or, &spec(16, 1, 2.0, &schedule), &ScannedEstimates)
                .unwrap_err(),
            BackendError::AdversaryUnsupported { backend: "jump" }
        );
    }

    #[test]
    fn count_backends_reject_per_agent_features_with_typed_errors() {
        let none = AdversarySchedule::new();
        let init = |_n: usize, i: usize| i == 0;
        let mut with_init = spec(16, 1, 2.0, &none);
        with_init.init_agents = Some(&init);
        assert_eq!(
            CountSimulator::run_cell(Or, &with_init, &ScannedEstimates).unwrap_err(),
            BackendError::AgentIndicesUnsupported {
                backend: "count",
                requested: "per-agent initial states (use init_counts(..))"
            }
        );
        assert_eq!(
            CountSimulator::run_cell(Or, &spec(16, 1, 2.0, &none), &WithTicks(ScannedEstimates))
                .unwrap_err(),
            BackendError::AgentIndicesUnsupported {
                backend: "count",
                requested: "tick recording"
            }
        );
        assert_eq!(
            JumpSimulator::run_cell(Or, &spec(16, 1, 2.0, &none), &WithMemory(ScannedEstimates))
                .unwrap_err(),
            BackendError::AgentIndicesUnsupported {
                backend: "jump",
                requested: "memory recording"
            }
        );
    }

    #[test]
    fn agent_backend_rejects_init_counts_with_a_typed_error() {
        let none = AdversarySchedule::new();
        let mut spec = spec(16, 1, 2.0, &none);
        spec.init_counts = Some(vec![15, 1]);
        assert_eq!(
            Simulator::run_cell(Or, &spec, &ScannedEstimates).unwrap_err(),
            BackendError::InitCountsUnsupported {
                backend: "agent-array"
            }
        );
    }

    #[test]
    fn impossible_schedules_are_rejected_before_any_simulation() {
        // Removal exceeding the live population: typed error on every
        // adversary-capable backend, no mid-run panic.
        let schedule = AdversarySchedule::new().at(1.0, PopulationEvent::RemoveUniform(500));
        let expected = ScheduleError::RemovesTooMany {
            at: 1.0,
            remove: 500,
            population: 100,
        };
        assert_eq!(
            CountSimulator::run_cell(Or, &spec(100, 1, 4.0, &schedule), &ScannedEstimates)
                .unwrap_err(),
            BackendError::InvalidSchedule {
                backend: "count",
                error: expected
            }
        );
        assert_eq!(
            BatchedCountSimulator::run_cell(Or, &spec(100, 1, 4.0, &schedule), &ScannedEstimates)
                .unwrap_err(),
            BackendError::InvalidSchedule {
                backend: "batched-count",
                error: expected
            }
        );
        assert_eq!(
            Simulator::run_cell(Or, &spec(100, 1, 4.0, &schedule), &ScannedEstimates).unwrap_err(),
            BackendError::InvalidSchedule {
                backend: "agent-array",
                error: expected
            }
        );
    }

    #[test]
    fn emptying_the_population_is_an_error_on_the_agent_array_only() {
        let schedule = AdversarySchedule::new().at(2.0, PopulationEvent::ResizeTo(0));
        assert_eq!(
            Simulator::run_cell(Or, &spec(100, 1, 4.0, &schedule), &ScannedEstimates).unwrap_err(),
            BackendError::InvalidSchedule {
                backend: "agent-array",
                error: ScheduleError::EmptiesPopulation { at: 2.0 }
            }
        );
        // The count backends run the emptied population to the horizon:
        // the clock keeps advancing, the rows just report n = 0.
        let r = CountSimulator::run_cell(Or, &spec(100, 1, 4.0, &schedule), &ScannedEstimates)
            .expect("count backend runs empty populations");
        assert_eq!(r.final_n, 0);
        assert_eq!(r.snapshots.last().unwrap().n, 0);
    }

    #[test]
    fn overdrawn_budget_aborts_with_a_typed_error_on_every_backend() {
        let none = AdversarySchedule::new();
        let mut tight = spec(100, 1, 10.0, &none);
        tight.interaction_budget = Some(150);
        match CountSimulator::run_cell(Or, &tight, &ScannedEstimates).unwrap_err() {
            BackendError::BudgetExhausted {
                backend: "count",
                interactions,
                budget: 150,
            } => assert!(interactions > 150),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        match Simulator::run_cell(Or, &tight, &ScannedEstimates).unwrap_err() {
            BackendError::BudgetExhausted {
                backend: "agent-array",
                ..
            } => {}
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        match BatchedCountSimulator::run_cell(Or, &tight, &ScannedEstimates).unwrap_err() {
            BackendError::BudgetExhausted {
                backend: "batched-count",
                ..
            } => {}
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // The jump backend meters implied interactions (t·n): one infected
        // agent keeps the chain advancing past the budget.
        let mut tight = spec(100, 1, 10.0, &none);
        tight.interaction_budget = Some(150);
        tight.init_counts = Some(vec![99, 1]);
        match JumpSimulator::run_cell(Or, &tight, &ScannedEstimates).unwrap_err() {
            BackendError::BudgetExhausted {
                backend: "jump", ..
            } => {}
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn generous_budget_leaves_runs_bit_identical() {
        let schedule = AdversarySchedule::new().at(3.0, PopulationEvent::ResizeTo(50));
        let free =
            CountSimulator::run_cell(Or, &spec(100, 9, 8.0, &schedule), &ScannedEstimates).unwrap();
        let mut guarded = spec(100, 9, 8.0, &schedule);
        guarded.interaction_budget = Some(u64::MAX);
        let capped = CountSimulator::run_cell(Or, &guarded, &ScannedEstimates).unwrap();
        assert_eq!(free, capped, "a generous budget must not perturb the run");
    }

    #[test]
    fn extreme_snapshot_grids_and_infinite_horizons_fail_typed_not_panicking() {
        // 10^18 grid points: the row buffer must not be reserved up front,
        // so the budget trips after the first interaction on every backend.
        let none = AdversarySchedule::new();
        let mut extreme = spec(100, 1, 1e12, &none);
        extreme.snapshot_every = 1e-6;
        extreme.interaction_budget = Some(0);
        extreme.init_counts = Some(vec![99, 1]);
        let budget_exhausted = |r: Result<RunResult, BackendError>| {
            matches!(r, Err(BackendError::BudgetExhausted { budget: 0, .. }))
        };
        assert!(budget_exhausted(CountSimulator::run_cell(
            Or,
            &extreme,
            &ScannedEstimates
        )));
        assert!(budget_exhausted(BatchedCountSimulator::run_cell(
            Or,
            &extreme,
            &ScannedEstimates
        )));
        assert!(budget_exhausted(JumpSimulator::run_cell(
            Or,
            &extreme,
            &ScannedEstimates
        )));
        extreme.init_counts = None;
        assert!(budget_exhausted(Simulator::run_cell(
            Or,
            &extreme,
            &ScannedEstimates
        )));
        // An infinite horizon would never finish: rejected at the builder.
        for horizon in [f64::INFINITY, f64::NAN] {
            assert!(matches!(
                crate::Experiment::new(Or, 16).try_horizon(horizon),
                Err(ConfigError::InvalidHorizon { .. })
            ));
        }
    }

    /// Every count-backend entry point rejects an `init_counts` vector of
    /// the wrong length, the wrong sum, or a sum past `u64::MAX` with the
    /// same typed error — no panic in debug builds and no silent
    /// wraparound in release builds.
    #[test]
    fn init_counts_mismatches_are_typed_errors_on_every_count_backend() {
        use crate::checkpoint::Checkpointable;
        use crate::fault::{FaultBackend, FaultPlan};
        let none = AdversarySchedule::new();
        let n = 16u64;
        let expected = CountsShape {
            states: 2,
            total: Some(n),
        };
        let cases = [
            (vec![15, 1, 0], 3, Some(n)),
            (vec![15, 2], 2, Some(17)),
            (vec![u64::MAX, 1], 2, None),
        ];
        for (counts, states, total) in cases {
            let mut bad = spec(n as usize, 1, 2.0, &none);
            bad.init_counts = Some(counts);
            let got = CountsShape { states, total };
            let mismatch = |backend| BackendError::InitCountsMismatch {
                backend,
                expected,
                got,
            };
            assert_eq!(
                CountSimulator::run_cell(Or, &bad, &ScannedEstimates).unwrap_err(),
                mismatch("count")
            );
            assert_eq!(
                BatchedCountSimulator::run_cell(Or, &bad, &ScannedEstimates).unwrap_err(),
                mismatch("batched-count")
            );
            assert_eq!(
                JumpSimulator::run_cell(Or, &bad, &ScannedEstimates).unwrap_err(),
                mismatch("jump")
            );
            let plan = FaultPlan::new(3).compile(n as usize, 1).unwrap();
            assert_eq!(
                CountSimulator::run_cell_faulted(Or, &bad, &plan, &ScannedEstimates).unwrap_err(),
                mismatch("count")
            );
            assert_eq!(
                CountSimulator::run_cell_until(Or, &bad, &ScannedEstimates, 1.0).unwrap_err(),
                mismatch("count")
            );
            assert_eq!(
                BatchedCountSimulator::run_cell_until(Or, &bad, &ScannedEstimates, 1.0)
                    .unwrap_err(),
                mismatch("batched-count")
            );
        }
        let e = BackendError::InitCountsMismatch {
            backend: "count",
            expected,
            got: CountsShape {
                states: 2,
                total: None,
            },
        };
        assert!(e.to_string().contains("2 states summing past u64::MAX"));
        assert!(e.to_string().contains("needs 2 states summing to 16"));
    }

    #[test]
    fn error_displays_name_the_backend_and_hint() {
        let e = BackendError::AdversaryUnsupported { backend: "jump" };
        assert!(e.to_string().contains("static schedules only"));
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
    }
}
