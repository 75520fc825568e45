//! High-throughput seeded experiment sweeps.
//!
//! The paper's evaluation (§5) generates every data point from 96
//! independent runs. A figure is therefore a *grid*: population sizes ×
//! adversary schedules × seeds. The seed harness ran each grid point as its
//! own `parallel_map` batch, so a figure's large-`n` points serialized
//! behind its small-`n` points and the pool drained at every point
//! boundary. [`Sweep`] instead flattens the **whole grid into one task
//! list** up front — every `(n, schedule, run)` triple with its derived
//! seed precomputed — and fans the flat list across all cores in a single
//! [`parallel_map`] call: no barrier between grid points, no idle workers
//! while the last big run of a point finishes.
//!
//! Execution goes through one grid executor with three entry points:
//! [`Sweep::run_on`] (pick a [`Backend`] — agent array, count, jump, or
//! batched count — and a [`Recording`] plan), [`Sweep::run_resilient_on`]
//! (per-run panic isolation and a watchdog), and [`Sweep::run_faulted_on`]
//! (fault injection). All three share the pre-flight, the seed chain, and
//! the task order; `run_on` is the resilient executor under the default
//! policy with its outcomes unwrapped.
//!
//! Determinism: each cell derives a seed from the master seed and its grid
//! position, and each run derives from the cell seed and its run index (the
//! SplitMix64 chain of [`run_seed`]). Results depend only on the grid and
//! the master seed — never on `threads` — which the integration tests pin
//! down bit-for-bit.
//!
//! Schedule axes come in two flavors: fixed [`AdversarySchedule`]s
//! ([`Sweep::schedule`]) and declarative [`ScenarioTrace`]s
//! ([`Sweep::scenario`]), which compile into a concrete schedule *per
//! cell* — sized to the cell's population, seeded from the cell's position
//! in the same SplitMix64 chain (at a sentinel run index no real run
//! uses) — so randomized traces are exactly as reproducible and
//! thread-independent as everything else in the grid.
//!
//! # Examples
//!
//! ```
//! use pp_sim::{ScannedEstimates, Simulator, Sweep};
//! # use pp_model::{Protocol, SizeEstimator};
//! # use rand::Rng;
//! # #[derive(Clone)] struct Max;
//! # impl Protocol for Max {
//! #     type State = u32;
//! #     fn initial_state(&self) -> u32 { 1 }
//! #     fn interact<R: Rng + ?Sized>(&self, u: &mut u32, v: &mut u32, _: &mut R) { *u = (*u).max(*v); }
//! # }
//! # impl SizeEstimator for Max {
//! #     fn estimate_log2(&self, s: &u32) -> Option<f64> { Some(*s as f64) }
//! # }
//! let results = Sweep::new(Max)
//!     .populations([50, 100])
//!     .runs(4)
//!     .master_seed(7)
//!     .horizon(20.0)
//!     .run_on::<Simulator<Max>, _>(ScannedEstimates)
//!     .unwrap();
//! assert_eq!(results.cells.len(), 2);       // one cell per (n, schedule)
//! assert_eq!(results.total_runs(), 8);
//! assert_eq!(results.cells[0].runs.len(), 4);
//! ```

use crate::adversary::{AdversarySchedule, ScheduleError};
use crate::backend::{Backend, BackendError, CellSpec, ConfigError};
use crate::experiment::{check_horizon, expect_run};
use crate::fault::{CompiledFaultPlan, FaultBackend, FaultPlan, FAULT_SEED_INDEX};
use crate::recording::Recording;
use crate::runner::{parallel_map, run_seed};
use crate::scenario::ScenarioTrace;
use crate::series::RunResult;
use pp_model::SizeEstimator;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared closure computing a per-agent initial state from the cell's
/// population size and the agent index.
///
/// The population argument makes seeded initial configurations fit a
/// multi-cell grid: a single closure can, say, plant one informed agent
/// per cell (`|n, i| i == n - 1`) or scale an initial estimate with `n`.
pub type InitFn<S> = Arc<dyn Fn(usize, usize) -> S + Send + Sync>;

/// A schedule grid axis: either a fixed hand-written schedule or a
/// declarative trace compiled per cell (see [`Sweep::scenario`]).
#[derive(Clone)]
enum ScheduleSource {
    Fixed(AdversarySchedule),
    Trace(ScenarioTrace),
}

/// A builder for a seeded experiment grid: populations × schedules × runs.
///
/// Every setting has the same default as [`Experiment`](crate::Experiment);
/// the grid defaults
/// to a single static (empty) schedule.
pub struct Sweep<P: SizeEstimator> {
    protocol: P,
    populations: Vec<usize>,
    schedules: Vec<(String, ScheduleSource)>,
    runs: usize,
    master_seed: u64,
    threads: usize,
    horizon: Arc<dyn Fn(usize) -> f64 + Send + Sync>,
    snapshot_every: f64,
    init: Option<InitFn<P::State>>,
    init_counts: Option<Arc<dyn Fn(u64) -> Vec<u64> + Send + Sync>>,
}

impl<P: SizeEstimator + std::fmt::Debug> std::fmt::Debug for Sweep<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("protocol", &self.protocol)
            .field("populations", &self.populations)
            .field(
                "schedules",
                &self.schedules.iter().map(|(l, _)| l).collect::<Vec<_>>(),
            )
            .field("runs", &self.runs)
            .field("master_seed", &self.master_seed)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

/// All runs of one grid point (one population size under one schedule).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Population size of this cell.
    pub n: usize,
    /// Label of the adversary schedule (`"static"` for the default).
    pub schedule: String,
    /// Index of the schedule in the sweep's schedule list.
    pub schedule_index: usize,
    /// The cell's independent runs, in run-index order.
    pub runs: Vec<RunResult>,
}

impl SweepCell {
    /// Iterates over the cell's [`RunResult`]s (for `pp_analysis`-style
    /// pooling, e.g. `PooledSeries::pool(cell.runs.iter())`).
    pub fn runs(&self) -> impl Iterator<Item = &RunResult> {
        self.runs.iter()
    }
}

/// Structured output of [`Sweep::run_on`]: every cell in grid order
/// (populations outer, schedules inner), plus execution metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResults {
    /// Master seed the grid was derived from.
    pub master_seed: u64,
    /// Cells in grid order.
    pub cells: Vec<SweepCell>,
    /// Wall-clock time of the parallel execution phase.
    pub wall: Duration,
    /// Worker threads requested (0 = machine parallelism).
    pub threads: usize,
}

impl SweepResults {
    /// Total number of simulation runs across all cells.
    pub fn total_runs(&self) -> usize {
        self.cells.iter().map(|c| c.runs.len()).sum()
    }

    /// The cell for a population size under the given schedule label.
    pub fn cell(&self, n: usize, schedule: &str) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.n == n && c.schedule == schedule)
    }

    /// Cells under the given schedule label, in population order.
    pub fn cells_for_schedule<'a>(
        &'a self,
        schedule: &'a str,
    ) -> impl Iterator<Item = &'a SweepCell> {
        self.cells.iter().filter(move |c| c.schedule == schedule)
    }
}

/// The outcome of one run under resilient execution
/// ([`Sweep::run_resilient_on`] / [`Sweep::run_faulted_on`]): instead of
/// one bad run aborting the whole grid, every run resolves to a typed
/// outcome and the grid returns all of them.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The run finished normally.
    Completed(RunResult),
    /// The backend reported a typed error for this run.
    Failed(BackendError),
    /// The run panicked; the payload message is preserved. The panic was
    /// confined to this run — sibling runs and cells are unaffected.
    Panicked(String),
    /// The run crossed its interaction-count watchdog budget
    /// (see [`ResiliencePolicy::budget_factor`]).
    BudgetExceeded {
        /// Interactions simulated when the watchdog tripped.
        interactions: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl CellOutcome {
    /// The completed run's result, if this outcome is [`Completed`](Self::Completed).
    pub fn result(&self) -> Option<&RunResult> {
        match self {
            CellOutcome::Completed(r) => Some(r),
            _ => None,
        }
    }
}

/// All outcomes of one grid point under resilient execution — the
/// [`SweepCell`] analogue where every run may independently have failed.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientCell {
    /// Population size of this cell.
    pub n: usize,
    /// Label of the adversary schedule (`"static"` for the default).
    pub schedule: String,
    /// Index of the schedule in the sweep's schedule list.
    pub schedule_index: usize,
    /// Per-run outcomes, in run-index order.
    pub outcomes: Vec<CellOutcome>,
}

impl ResilientCell {
    /// Iterates over the results of the runs that completed.
    pub fn completed_runs(&self) -> impl Iterator<Item = &RunResult> {
        self.outcomes.iter().filter_map(CellOutcome::result)
    }

    /// Tallies this cell's run outcomes.
    pub fn summary(&self) -> FailureSummary {
        let mut summary = FailureSummary::default();
        for outcome in &self.outcomes {
            match outcome {
                CellOutcome::Completed(_) => summary.completed += 1,
                CellOutcome::Failed(_) => summary.failed += 1,
                CellOutcome::Panicked(_) => summary.panicked += 1,
                CellOutcome::BudgetExceeded { .. } => summary.budget_exceeded += 1,
            }
        }
        summary
    }
}

/// Structured output of resilient execution: every cell in grid order with
/// per-run [`CellOutcome`]s, plus execution metadata. Partial results are
/// the point — healthy cells carry their (bit-identical) rows even when a
/// sibling cell panicked.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientResults {
    /// Master seed the grid was derived from.
    pub master_seed: u64,
    /// Cells in grid order (populations outer, schedules inner).
    pub cells: Vec<ResilientCell>,
    /// Wall-clock time of the parallel execution phase.
    pub wall: Duration,
    /// Worker threads requested (0 = machine parallelism).
    pub threads: usize,
}

impl ResilientResults {
    /// Tallies every run outcome across the grid.
    pub fn summary(&self) -> FailureSummary {
        self.cells.iter().fold(FailureSummary::default(), |acc, c| {
            let s = c.summary();
            FailureSummary {
                completed: acc.completed + s.completed,
                failed: acc.failed + s.failed,
                panicked: acc.panicked + s.panicked,
                budget_exceeded: acc.budget_exceeded + s.budget_exceeded,
            }
        })
    }

    /// The cell for a population size under the given schedule label.
    pub fn cell(&self, n: usize, schedule: &str) -> Option<&ResilientCell> {
        self.cells
            .iter()
            .find(|c| c.n == n && c.schedule == schedule)
    }
}

/// Outcome tallies of one resilient grid execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailureSummary {
    /// Runs that finished normally.
    pub completed: usize,
    /// Runs that returned a typed [`BackendError`].
    pub failed: usize,
    /// Runs that panicked.
    pub panicked: usize,
    /// Runs aborted by the interaction-count watchdog.
    pub budget_exceeded: usize,
}

impl FailureSummary {
    /// Total runs executed.
    pub fn total(&self) -> usize {
        self.completed + self.failed + self.panicked + self.budget_exceeded
    }

    /// Whether every run completed normally.
    pub fn all_completed(&self) -> bool {
        self.failed == 0 && self.panicked == 0 && self.budget_exceeded == 0
    }
}

impl std::fmt::Display for FailureSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} completed, {} failed, {} panicked, {} budget-exceeded",
            self.completed, self.failed, self.panicked, self.budget_exceeded
        )
    }
}

/// Knobs for resilient grid execution. The default policy (no watchdog)
/// adds only panic isolation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResiliencePolicy {
    /// Interaction-count watchdog, as a multiple of each cell's *expected*
    /// interactions (`horizon · n`): a run is aborted with
    /// [`CellOutcome::BudgetExceeded`] once it crosses
    /// `ceil(factor · horizon · n)` interactions. `None` disables the
    /// watchdog (and leaves runs bit-identical to non-resilient
    /// execution). Factors must be > 1 to be useful — the drive loop
    /// itself schedules about `horizon · n` interactions — and a NaN,
    /// infinite, zero, or negative factor fails the grid up front with
    /// [`BackendError::InvalidBudgetFactor`].
    pub budget_factor: Option<f64>,
}

/// Renders a caught panic payload (the `Box<dyn Any>` from
/// [`catch_unwind`]) as the human-readable message `panic!` produced.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One precomputed task of the flattened grid.
struct TaskSpec {
    cell: usize,
    n: usize,
    schedule_index: usize,
    seed: u64,
    horizon: f64,
}

impl<P> Sweep<P>
where
    P: SizeEstimator + Clone + Send + Sync,
    P::State: Clone + Send + Sync + 'static,
{
    /// Starts a sweep of `protocol` with an empty grid (add populations).
    pub fn new(protocol: P) -> Self {
        Sweep {
            protocol,
            populations: Vec::new(),
            schedules: Vec::new(),
            runs: 1,
            master_seed: 0,
            threads: 0,
            horizon: Arc::new(|_| 1000.0),
            snapshot_every: 1.0,
            init: None,
            init_counts: None,
        }
    }

    /// Sets the population sizes of the grid.
    pub fn populations(mut self, ns: impl IntoIterator<Item = usize>) -> Self {
        self.populations = ns.into_iter().collect();
        self
    }

    /// Adds a labeled adversary schedule to the grid.
    ///
    /// Without any, the sweep runs the single static (empty) schedule
    /// labeled `"static"`.
    pub fn schedule(mut self, label: impl Into<String>, schedule: AdversarySchedule) -> Self {
        self.schedules
            .push((label.into(), ScheduleSource::Fixed(schedule)));
        self
    }

    /// Adds a labeled [`ScenarioTrace`] to the grid as a schedule axis.
    ///
    /// The trace compiles into a concrete [`AdversarySchedule`] **per
    /// cell** — event sizes scale with the cell's population, and any
    /// randomized placement (crash-burst times) draws from a seed derived
    /// from the master seed and the cell's grid position, at a sentinel
    /// run index (`usize::MAX`) no real run ever uses. Same grid + same
    /// master seed → same compiled schedules, on any thread count.
    ///
    /// Compilation failures ([`ScheduleError::InvalidTraceParameter`] and
    /// friends) surface from [`Sweep::run_on`] as typed
    /// [`BackendError::InvalidSchedule`] values before any cell runs.
    pub fn scenario(mut self, label: impl Into<String>, trace: ScenarioTrace) -> Self {
        self.schedules
            .push((label.into(), ScheduleSource::Trace(trace)));
        self
    }

    /// Sets the number of independent runs per grid cell (the paper: 96).
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero.
    pub fn runs(mut self, runs: usize) -> Self {
        assert!(runs > 0, "a sweep needs at least one run per cell");
        self.runs = runs;
        self
    }

    /// Sets the master seed; every run seed derives from it.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Sets the worker thread count (0 = machine parallelism).
    ///
    /// Thread count never affects results, only wall-clock time.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets one simulation horizon (parallel time) for every cell.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is negative, infinite, or NaN.
    pub fn horizon(mut self, horizon: f64) -> Self {
        let horizon = expect_run(check_horizon(horizon));
        self.horizon = Arc::new(move |_| horizon);
        self
    }

    /// Sets a per-population horizon (e.g. `|n| 500.0 + 10.0 * (n as f64).log2()`).
    ///
    /// The function is checked per population when the grid runs: a
    /// negative, infinite, or NaN result fails the whole grid, before any
    /// cell runs, with [`BackendError::InvalidHorizon`].
    pub fn horizon_with(mut self, f: impl Fn(usize) -> f64 + Send + Sync + 'static) -> Self {
        self.horizon = Arc::new(f);
        self
    }

    /// Sets the snapshot interval in parallel time, or reports why the
    /// value is invalid.
    pub fn try_snapshot_every(mut self, every: f64) -> Result<Self, ConfigError> {
        if every.is_nan() || every <= 0.0 {
            return Err(ConfigError::NonPositiveSnapshotInterval { every });
        }
        self.snapshot_every = every;
        Ok(self)
    }

    /// Sets the snapshot interval in parallel time.
    ///
    /// # Panics
    ///
    /// Panics if `every` is not strictly positive (see
    /// [`Sweep::try_snapshot_every`] for the non-panicking form).
    pub fn snapshot_every(self, every: f64) -> Self {
        expect_run(self.try_snapshot_every(every))
    }

    /// Starts every agent in `f(i)` instead of the protocol's initial state.
    ///
    /// The same closure applies to every grid cell; see
    /// [`Sweep::init_with_n`] for per-cell initial configurations.
    pub fn init_with(mut self, f: impl Fn(usize) -> P::State + Send + Sync + 'static) -> Self {
        self.init = Some(Arc::new(move |_n, i| f(i)));
        self
    }

    /// Starts agent `i` of an `n`-agent cell in `f(n, i)`: the per-cell
    /// init hook for seeded initial configurations on a multi-cell grid
    /// (e.g. Fig. 5 runs every population with the same planted
    /// over-estimate, while a rumor experiment plants `f(n, 0)` only).
    pub fn init_with_n(
        mut self,
        f: impl Fn(usize, usize) -> P::State + Send + Sync + 'static,
    ) -> Self {
        self.init = Some(Arc::new(f));
        self
    }

    /// Sets the initial per-state counts for the count-based backends
    /// (count, jump, and batched count): `f(n)` must return
    /// one count per state, summing to `n` (e.g. `|n| vec![n - 1, 1]` for
    /// an epidemic seeded with one infected agent). The grid's pre-flight
    /// calls `f` once per cell, so counts of the wrong shape fail the grid
    /// with [`BackendError::InitCountsMismatch`] before any run. The
    /// agent-array backend rejects it with a typed [`BackendError`] (its
    /// initial configurations are per-agent: use [`Sweep::init_with`] /
    /// [`Sweep::init_with_n`]).
    ///
    /// `f` is the caller's code, run outside every run's panic boundary: a
    /// panic in it leaves the entry point with its own message, from the
    /// pre-flight before any run, and is never a [`CellOutcome::Panicked`].
    pub fn init_counts(mut self, f: impl Fn(u64) -> Vec<u64> + Send + Sync + 'static) -> Self {
        self.init_counts = Some(Arc::new(f));
        self
    }

    /// Precomputes the flattened task grid: one entry per
    /// `(population, schedule, run)` with its seed already derived, plus
    /// one concrete schedule per cell (scenario traces compile here, on
    /// the builder thread, so the parallel workers only index into
    /// preallocated buffers).
    #[allow(clippy::type_complexity)]
    fn build_tasks(
        &self,
    ) -> Result<(Vec<String>, Vec<AdversarySchedule>, Vec<TaskSpec>), ScheduleError> {
        assert!(
            !self.populations.is_empty(),
            "sweep grid has no populations; call .populations(..)"
        );
        let sources = if self.schedules.is_empty() {
            vec![(
                "static".to_string(),
                ScheduleSource::Fixed(AdversarySchedule::new()),
            )]
        } else {
            self.schedules.clone()
        };
        let cells = self.populations.len() * sources.len();
        let mut cell_schedules = Vec::with_capacity(cells);
        let mut tasks = Vec::with_capacity(cells * self.runs);
        for (pi, &n) in self.populations.iter().enumerate() {
            let horizon = (self.horizon)(n);
            for (si, (_, source)) in sources.iter().enumerate() {
                let cell = pi * sources.len() + si;
                // Two-level SplitMix64 chain: a cell seed from the grid
                // position, then one seed per run. Changing `threads` can
                // never change any seed.
                let cell_seed = run_seed(self.master_seed, cell);
                cell_schedules.push(match source {
                    ScheduleSource::Fixed(s) => s.clone(),
                    // Trace compilation draws from the sentinel run index
                    // usize::MAX — `runs` is always far smaller, so trace
                    // randomness never collides with any run's seed.
                    ScheduleSource::Trace(t) => {
                        t.compile(n as u64, run_seed(cell_seed, usize::MAX))?
                    }
                });
                for r in 0..self.runs {
                    tasks.push(TaskSpec {
                        cell,
                        n,
                        schedule_index: si,
                        seed: run_seed(cell_seed, r),
                        horizon,
                    });
                }
            }
        }
        let labels = sources.into_iter().map(|(label, _)| label).collect();
        Ok((labels, cell_schedules, tasks))
    }

    /// The generic grid driver: runs every `(n, schedule, run)` task of
    /// the grid on backend `B` under the given [`Recording`] plan, as a
    /// single flat parallel batch — the resilient executor under
    /// [`ResiliencePolicy::default`], with every outcome unwrapped. Any
    /// backend × recording combination goes through here (e.g.
    /// `run_on::<CountSimulator<_>, _>(ScannedEstimates)`).
    ///
    /// # Errors
    ///
    /// Returns a typed [`BackendError`] before any cell runs, the first in
    /// this order: a scenario trace that does not compile
    /// ([`BackendError::InvalidSchedule`]), a per-population horizon that
    /// is negative, infinite, or NaN ([`BackendError::InvalidHorizon`]),
    /// then the first cell, in grid order, that [`Backend::validate`]
    /// rejects — per-agent initial states or a per-agent plan on a count
    /// backend, `init_counts` on the agent array or of the wrong shape, a
    /// schedule impossible against its cell's population.
    ///
    /// A run that fails mid-grid decides the result by the first
    /// non-completed outcome in grid order: a typed error is returned as
    /// `Err`, and a panic is re-raised with the run's own message, on any
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if no populations were configured, or if a run panicked.
    pub fn run_on<B, R>(self, recording: R) -> Result<SweepResults, BackendError>
    where
        B: Backend<Protocol = P, State = P::State>,
        R: Recording<P>,
    {
        let results = self.run_resilient_on::<B, R>(recording, ResiliencePolicy::default())?;
        let mut cells = Vec::with_capacity(results.cells.len());
        for cell in results.cells {
            let runs = cell.outcomes.into_iter().map(|outcome| match outcome {
                CellOutcome::Completed(result) => Ok(result),
                CellOutcome::Failed(error) => Err(error),
                CellOutcome::Panicked(message) => panic!("{message}"),
                CellOutcome::BudgetExceeded { .. } => {
                    unreachable!("the default policy sets no watchdog budget")
                }
            });
            cells.push(SweepCell {
                n: cell.n,
                schedule: cell.schedule,
                schedule_index: cell.schedule_index,
                runs: runs.collect::<Result<_, _>>()?,
            });
        }
        Ok(SweepResults {
            master_seed: results.master_seed,
            cells,
            wall: results.wall,
            threads: results.threads,
        })
    }

    /// The executor's pre-flight, which diagnoses the whole grid before any
    /// run starts: scenario traces compile, horizons and the budget factor
    /// are checked, the fault plan compiles per cell, then the backend
    /// validates every cell in grid order. Returns the flat task list with
    /// each cell's schedule and compiled fault plan.
    #[allow(clippy::type_complexity)]
    fn prepare<B, R>(
        &self,
        policy: ResiliencePolicy,
        plan: Option<&FaultPlan>,
    ) -> Result<
        (
            Vec<String>,
            Vec<AdversarySchedule>,
            Option<Vec<CompiledFaultPlan>>,
            Vec<TaskSpec>,
        ),
        BackendError,
    >
    where
        B: Backend<Protocol = P, State = P::State>,
        R: Recording<P>,
    {
        let invalid = |error| BackendError::InvalidSchedule {
            backend: B::NAME,
            error,
        };
        let (labels, cell_schedules, tasks) = self.build_tasks().map_err(invalid)?;
        for &population in &self.populations {
            let horizon = (self.horizon)(population);
            check_horizon(horizon).map_err(|_| BackendError::InvalidHorizon {
                backend: B::NAME,
                population,
                horizon,
            })?;
        }
        if let Some(factor) = policy.budget_factor {
            if !(factor.is_finite() && factor > 0.0) {
                return Err(BackendError::InvalidBudgetFactor {
                    backend: B::NAME,
                    factor,
                });
            }
        }
        // Compile the fault plan against every cell, under the reserved
        // fault index of the cell's seed chain.
        let cell_plans: Option<Vec<CompiledFaultPlan>> = plan
            .map(|p| {
                (0..cell_schedules.len())
                    .map(|cell| {
                        let n = self.populations[cell / labels.len()];
                        let cell_seed = run_seed(self.master_seed, cell);
                        p.compile(n, run_seed(cell_seed, FAULT_SEED_INDEX))
                            .map_err(|error| BackendError::InvalidFaultPlan {
                                backend: B::NAME,
                                error,
                            })
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .transpose()?;
        // The first run of each cell stands for the cell: its runs differ
        // only in their seeds.
        for task in tasks.iter().step_by(self.runs) {
            let cell_plan = cell_plans.as_ref().map(|plans| &plans[task.cell]);
            let spec = self.cell_spec(task, &cell_schedules, None);
            B::validate::<R>(&self.protocol, &spec, cell_plan)?;
        }
        Ok((labels, cell_schedules, cell_plans, tasks))
    }

    /// Builds the [`CellSpec`] for one task.
    fn cell_spec<'a>(
        &'a self,
        task: &TaskSpec,
        cell_schedules: &'a [AdversarySchedule],
        interaction_budget: Option<u64>,
    ) -> CellSpec<'a, P::State> {
        CellSpec {
            n: task.n,
            seed: task.seed,
            horizon: task.horizon,
            snapshot_every: self.snapshot_every,
            schedule: &cell_schedules[task.cell],
            init_agents: self
                .init
                .as_deref()
                .map(|f| f as &dyn Fn(usize, usize) -> P::State),
            init_counts: self.init_counts.as_ref().map(|f| f(task.n as u64)),
            interaction_budget,
        }
    }

    /// Like [`Sweep::run_on`], but **resilient**: one bad run no longer
    /// aborts the grid. Every run executes under a panic boundary and an
    /// optional interaction-count watchdog
    /// ([`ResiliencePolicy::budget_factor`]), and resolves to a typed
    /// [`CellOutcome`]; the grid returns all of them
    /// ([`ResilientResults`]), so healthy cells keep their rows when a
    /// sibling cell panics, runs away, or fails.
    ///
    /// Healthy runs are **bit-identical** to [`Sweep::run_on`]'s: the seed
    /// chain, drive loop, and float arithmetic are unchanged (with no
    /// watchdog the budget check never perturbs the loop), and panic
    /// isolation is purely observational.
    ///
    /// Everything [`Sweep::run_on`] rejects up front still fails with `Err`
    /// before any run starts — those are grid construction bugs, not
    /// runtime faults — and so does a NaN, infinite, zero, or negative
    /// [`ResiliencePolicy::budget_factor`]
    /// ([`BackendError::InvalidBudgetFactor`]). That includes an
    /// `init_counts` vector of the wrong shape
    /// ([`BackendError::InitCountsMismatch`]), which every run would
    /// otherwise report as its own `Failed` outcome.
    ///
    /// # Panics
    ///
    /// Panics if no populations were configured, or with the message of a
    /// panicking [`Sweep::init_counts`] closure (never a `Panicked` outcome).
    pub fn run_resilient_on<B, R>(
        self,
        recording: R,
        policy: ResiliencePolicy,
    ) -> Result<ResilientResults, BackendError>
    where
        B: Backend<Protocol = P, State = P::State>,
        R: Recording<P>,
    {
        self.resilient_impl::<B, R, _>(recording, policy, None, |proto, spec, _plan, rec| {
            B::run_cell(proto, spec, rec)
        })
    }

    /// Like [`Sweep::run_resilient_on`], with `plan`'s faults injected
    /// into every run (see [`FaultPlan`] and
    /// [`FaultBackend::run_cell_faulted`]).
    ///
    /// The plan is compiled once per grid cell under the reserved
    /// [`FAULT_SEED_INDEX`] of the cell's seed chain, so fault draws are
    /// bit-identical across thread counts and never collide with run
    /// seeds. A malformed plan fails the whole grid up front with a typed
    /// [`BackendError::InvalidFaultPlan`], mirroring schedule validation,
    /// and so does a plan the backend cannot inject: agent-targeted
    /// faults ([`FaultPlan::corrupt_agents`]) on the count backend are a
    /// [`BackendError::AgentIndicesUnsupported`] before any run starts. The
    /// errors [`Sweep::run_resilient_on`] reports up front come first.
    ///
    /// # Panics
    ///
    /// Panics if no populations were configured.
    pub fn run_faulted_on<B, R>(
        self,
        plan: &FaultPlan,
        recording: R,
        policy: ResiliencePolicy,
    ) -> Result<ResilientResults, BackendError>
    where
        B: FaultBackend<Protocol = P, State = P::State>,
        R: Recording<P>,
    {
        self.resilient_impl::<B, R, _>(recording, policy, Some(plan), |proto, spec, plan, rec| {
            B::run_cell_faulted(
                proto,
                spec,
                plan.expect("faulted path pre-compiles a plan per cell"),
                rec,
            )
        })
    }

    /// The one grid executor behind every entry point: the pre-flight,
    /// then one flat parallel batch where each run is wrapped in
    /// [`catch_unwind`] and classified into a [`CellOutcome`], regrouped
    /// into grid cells.
    fn resilient_impl<B, R, E>(
        self,
        recording: R,
        policy: ResiliencePolicy,
        plan: Option<&FaultPlan>,
        exec: E,
    ) -> Result<ResilientResults, BackendError>
    where
        B: Backend<Protocol = P, State = P::State>,
        R: Recording<P>,
        E: Fn(
                P,
                &CellSpec<'_, P::State>,
                Option<&CompiledFaultPlan>,
                &R,
            ) -> Result<RunResult, BackendError>
            + Sync,
    {
        let (labels, cell_schedules, cell_plans, tasks) = self.prepare::<B, R>(policy, plan)?;
        let start = Instant::now();
        let outcomes = parallel_map(tasks.len(), self.threads, |t| {
            let task = &tasks[t];
            let budget = policy
                .budget_factor
                .map(|factor| (factor * task.horizon * task.n as f64).ceil() as u64);
            let spec = self.cell_spec(task, &cell_schedules, budget);
            let cell_plan = cell_plans.as_ref().map(|plans| &plans[task.cell]);
            // AssertUnwindSafe: on panic the run's simulator state is
            // discarded wholesale (each run owns its state), so no broken
            // invariant can leak into other runs.
            let run = catch_unwind(AssertUnwindSafe(|| {
                exec(self.protocol.clone(), &spec, cell_plan, &recording)
            }));
            match run {
                Ok(Ok(result)) => CellOutcome::Completed(result),
                Ok(Err(BackendError::BudgetExhausted {
                    interactions,
                    budget,
                    ..
                })) => CellOutcome::BudgetExceeded {
                    interactions,
                    budget,
                },
                Ok(Err(error)) => CellOutcome::Failed(error),
                Err(payload) => CellOutcome::Panicked(panic_message(payload)),
            }
        });
        let wall = start.elapsed();
        let cells_len = self.populations.len() * labels.len();
        let mut cells: Vec<ResilientCell> = Vec::with_capacity(cells_len);
        for (task, outcome) in tasks.iter().zip(outcomes) {
            if task.cell == cells.len() {
                cells.push(ResilientCell {
                    n: task.n,
                    schedule: labels[task.schedule_index].clone(),
                    schedule_index: task.schedule_index,
                    outcomes: Vec::with_capacity(self.runs),
                });
            }
            cells[task.cell].outcomes.push(outcome);
        }
        Ok(ResilientResults {
            master_seed: self.master_seed,
            cells,
            wall,
            threads: self.threads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::PopulationEvent;
    use crate::backend::tests::Or;
    use crate::recording::{ScannedEstimates, WithTicks};
    use crate::{BatchedCountSimulator, CountSimulator, JumpSimulator, Simulator};
    use pp_model::Protocol;
    use rand::Rng;

    /// Max-spreading fixture; every agent reports its value.
    #[derive(Debug, Clone)]
    struct Max;
    impl Protocol for Max {
        type State = u32;
        fn initial_state(&self) -> u32 {
            1
        }
        fn interact<R: Rng + ?Sized>(&self, u: &mut u32, v: &mut u32, _: &mut R) {
            *u = (*u).max(*v);
        }
    }
    impl SizeEstimator for Max {
        fn estimate_log2(&self, s: &u32) -> Option<f64> {
            Some(f64::from(*s))
        }
    }

    fn grid() -> Sweep<Max> {
        Sweep::new(Max)
            .populations([20, 40])
            .schedule("static", AdversarySchedule::new())
            .schedule(
                "halve@5",
                AdversarySchedule::new().at(5.0, PopulationEvent::ResizeTo(10)),
            )
            .runs(3)
            .master_seed(42)
            .horizon(10.0)
    }

    /// One cell per population and schedule, in that order, each running
    /// its own schedule, and every run of the grid under its own seed.
    #[test]
    fn grid_shape_is_populations_times_schedules() {
        let r = grid().run_on::<Simulator<_>, _>(ScannedEstimates).unwrap();
        assert_eq!(r.cells.len(), 4);
        assert_eq!(r.total_runs(), 12);
        let labels: Vec<(usize, &str)> =
            r.cells.iter().map(|c| (c.n, c.schedule.as_str())).collect();
        assert_eq!(
            labels,
            vec![
                (20, "static"),
                (20, "halve@5"),
                (40, "static"),
                (40, "halve@5")
            ]
        );
        assert_eq!(r.cell(40, "static").unwrap().runs[0].final_n, 40);
        assert_eq!(r.cell(40, "halve@5").unwrap().runs[0].final_n, 10);
        let runs = r.cells.iter().flat_map(|c| &c.runs);
        let seeds: std::collections::BTreeSet<u64> = runs.map(|run| run.seed).collect();
        assert_eq!(seeds.len(), 12, "every run must get a distinct seed");
    }

    #[test]
    fn default_schedule_is_static() {
        let r = Sweep::new(Max)
            .populations([16])
            .runs(2)
            .horizon(5.0)
            .run_on::<Simulator<_>, _>(ScannedEstimates)
            .unwrap();
        assert_eq!(r.cells.len(), 1);
        assert_eq!(r.cells[0].schedule, "static");
        assert_eq!(r.cells[0].runs[0].final_n, 16);
    }

    #[test]
    fn init_with_seeds_custom_states() {
        let r = Sweep::new(Max)
            .populations([12])
            .runs(1)
            .horizon(30.0)
            .init_with(|i| if i == 0 { 60 } else { 1 })
            .run_on::<Simulator<_>, _>(ScannedEstimates)
            .unwrap();
        let last = r.cells[0].runs[0].snapshots.last().unwrap();
        assert_eq!(last.estimates.unwrap().max, 60.0);
    }

    #[test]
    fn init_with_n_sees_each_cell_population() {
        // Plant the cell's own n as the seeded value: each cell's final
        // max must equal its population, proving the hook saw the right n.
        let r = Sweep::new(Max)
            .populations([12, 24])
            .runs(1)
            .horizon(40.0)
            .init_with_n(|n, i| if i == 0 { n as u32 } else { 1 })
            .run_on::<Simulator<_>, _>(ScannedEstimates)
            .unwrap();
        for cell in &r.cells {
            let last = cell.runs[0].snapshots.last().unwrap();
            assert_eq!(last.estimates.unwrap().max, cell.n as f64);
        }
    }

    #[test]
    fn horizon_with_rejects_nan_and_negative_horizons_before_any_cell_runs() {
        // Infinity is rejected the same way, but left out here: without
        // the check it would run until the watchdog budget, or forever.
        use std::sync::atomic::{AtomicUsize, Ordering};
        for bad in [f64::NAN, -1.0] {
            let cells_started = Arc::new(AtomicUsize::new(0));
            let started = Arc::clone(&cells_started);
            let result = Sweep::new(Max)
                .populations([8, 16])
                .horizon_with(move |n| if n == 16 { bad } else { 5.0 })
                .init_with_n(move |_, i| {
                    if i == 0 {
                        started.fetch_add(1, Ordering::Relaxed);
                    }
                    1
                })
                .run_on::<Simulator<_>, _>(ScannedEstimates);
            match result {
                Err(BackendError::InvalidHorizon {
                    backend,
                    population: 16,
                    horizon,
                }) => {
                    assert_eq!(backend, <Simulator<Max> as Backend>::NAME);
                    assert_eq!(horizon.to_bits(), bad.to_bits());
                }
                other => panic!("horizon {bad} was not rejected: {other:?}"),
            }
            assert_eq!(cells_started.load(Ordering::Relaxed), 0);
        }
    }

    impl pp_model::TickProtocol for Max {
        fn tick_count(&self, s: &u32) -> u64 {
            u64::from(*s)
        }
    }

    #[test]
    fn run_ticked_records_tick_events() {
        // Max-spreading under a tick readout of the state value: every
        // adoption of a larger value increments the "tick" count, so a
        // seeded large value must generate recorded events.
        let r = Sweep::new(Max)
            .populations([16])
            .runs(2)
            .horizon(20.0)
            .init_with(|i| if i == 0 { 5 } else { 0 })
            .run_on::<Simulator<_>, _>(WithTicks)
            .unwrap();
        for run in &r.cells[0].runs {
            assert!(
                !run.ticks.is_empty(),
                "value adoptions must be recorded as ticks"
            );
            assert!(!run.snapshots.is_empty(), "snapshots still recorded");
        }
    }

    #[test]
    fn horizon_with_varies_by_population() {
        let r = Sweep::new(Max)
            .populations([8, 32])
            .runs(1)
            .horizon_with(|n| if n == 8 { 3.0 } else { 7.0 })
            .run_on::<Simulator<_>, _>(ScannedEstimates)
            .unwrap();
        let last_t = |cell: &SweepCell| cell.runs[0].snapshots.last().unwrap().parallel_time;
        assert!(last_t(&r.cells[0]) < 4.0);
        assert!(last_t(&r.cells[1]) > 6.0);
    }

    /// Populations the agent array cannot hold run on the count family: 10⁸
    /// agents would need ~100 MB of agent array per run just for bools,
    /// where the count representation is two u64s. The count backend builds
    /// such a cell, and jump (10⁶ agents) and batched (10⁸ agents, 6·10⁹
    /// interactions that only batching makes cheap) finish an epidemic
    /// within 60 pt.
    #[test]
    fn count_family_sweeps_run_populations_beyond_the_agent_array() {
        fn epidemic<B>(n: usize, seed: u64, horizon: f64) -> Vec<RunResult>
        where
            B: Backend<Protocol = Or, State = bool>,
        {
            let r = Sweep::new(Or)
                .populations([n])
                .runs(2)
                .master_seed(seed)
                .horizon(horizon)
                .snapshot_every(10.0)
                .init_counts(|n| vec![n - 1, 1])
                .run_on::<B, _>(ScannedEstimates);
            r.unwrap().cells.remove(0).runs
        }
        let built = epidemic::<CountSimulator<Or>>(100_000_000, 0, 0.0);
        assert_eq!(built[0].snapshots[0].n, 100_000_000);
        let jumped = epidemic::<JumpSimulator<Or>>(1_000_000, 13, 60.0);
        let batched = epidemic::<BatchedCountSimulator<Or>>(100_000_000, 17, 60.0);
        for run in jumped.iter().chain(&batched) {
            let last = run.snapshots.last().unwrap().estimates.unwrap();
            assert_eq!(last.without_estimate, 0, "epidemic finished within 60 pt");
        }
    }

    #[test]
    fn sweep_try_snapshot_every_reports_typed_config_errors() {
        let err = Sweep::new(Max).try_snapshot_every(-1.0).unwrap_err();
        assert_eq!(
            err,
            ConfigError::NonPositiveSnapshotInterval { every: -1.0 }
        );
        assert!(Sweep::new(Max).try_snapshot_every(0.5).is_ok());
    }

    #[test]
    fn scenario_axes_compile_per_cell_and_stay_thread_identical() {
        use crate::scenario::TraceSegment;
        let sweep_with = |threads| {
            Sweep::new(Or)
                .populations([512, 2048])
                .scenario(
                    "bursts",
                    ScenarioTrace::new().segment(TraceSegment::CrashBursts {
                        start: 1.0,
                        end: 7.0,
                        bursts: 2,
                        fraction: 0.25,
                        volley: 2,
                        spacing: 0.1,
                    }),
                )
                .runs(3)
                .master_seed(23)
                .horizon(8.0)
                .threads(threads)
                .init_counts(|n| vec![n - 1, 1])
                .run_on::<CountSimulator<_>, _>(ScannedEstimates)
                .unwrap()
        };
        let single = sweep_with(1);
        // Event sizes scale with each cell's population: two bursts of a
        // quarter each leave the larger cell with more survivors.
        let final_n = |r: &SweepResults, n| r.cell(n, "bursts").unwrap().runs[0].final_n;
        assert!(final_n(&single, 512) < 512);
        assert!(final_n(&single, 2048) < 2048);
        assert!(final_n(&single, 2048) > final_n(&single, 512));
        assert_eq!(single.cells, sweep_with(4).cells, "thread-identical");
    }

    #[test]
    fn bad_traces_fail_the_whole_grid_with_a_typed_error() {
        use crate::scenario::TraceSegment;
        let err = Sweep::new(Or)
            .populations([64])
            .scenario(
                "bad",
                ScenarioTrace::new().segment(TraceSegment::Ramp {
                    start: 5.0,
                    end: 5.0, // zero-length ramp: invalid
                    to_fraction: 0.5,
                    steps: 2,
                }),
            )
            .runs(1)
            .horizon(8.0)
            .init_counts(|n| vec![n - 1, 1])
            .run_on::<CountSimulator<Or>, _>(ScannedEstimates)
            .unwrap_err();
        assert!(matches!(
            err,
            BackendError::InvalidSchedule {
                backend: "count",
                error: ScheduleError::InvalidTraceParameter {
                    segment: "ramp",
                    ..
                }
            }
        ));
    }

    #[test]
    #[should_panic(expected = "no populations")]
    fn empty_grid_rejected() {
        let _ = Sweep::new(Max)
            .runs(1)
            .run_on::<Simulator<_>, _>(ScannedEstimates)
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let _ = Sweep::new(Max).populations([8]).runs(0);
    }

    impl pp_model::Corruptible for Max {
        fn corrupt_state<R: Rng + ?Sized>(&self, _state: &u32, rng: &mut R) -> u32 {
            use rand::RngExt;
            rng.random_range(0u32..8)
        }
    }

    #[test]
    fn resilient_grid_without_faults_matches_the_plain_grid() {
        let plain = grid()
            .run_on::<Simulator<Max>, _>(ScannedEstimates)
            .unwrap();
        let resilient = grid()
            .run_resilient_on::<Simulator<Max>, _>(ScannedEstimates, ResiliencePolicy::default())
            .unwrap();
        let summary = resilient.summary();
        assert!(summary.all_completed());
        assert_eq!(summary.completed, 12);
        for (p, r) in plain.cells.iter().zip(&resilient.cells) {
            assert_eq!((p.n, &p.schedule), (r.n, &r.schedule));
            let completed: Vec<&RunResult> =
                r.outcomes.iter().filter_map(CellOutcome::result).collect();
            assert_eq!(p.runs.iter().collect::<Vec<_>>(), completed);
        }
    }

    #[test]
    fn a_poisoned_cell_is_isolated_and_siblings_stay_bit_identical() {
        // The n = 64 cell's init closure panics on every run; the n = 32
        // cell must complete with rows bit-identical to a grid that never
        // contained the poisoned cell, across thread counts.
        let poisoned = |threads| {
            Sweep::new(Max)
                .populations([32, 64])
                .runs(3)
                .master_seed(42)
                .horizon(10.0)
                .threads(threads)
                .init_with_n(|n, i| {
                    if n == 64 {
                        panic!("poisoned cell");
                    }
                    i as u32 + 1
                })
                .run_resilient_on::<Simulator<Max>, _>(
                    ScannedEstimates,
                    ResiliencePolicy::default(),
                )
                .unwrap()
        };
        let healthy = Sweep::new(Max)
            .populations([32])
            .runs(3)
            .master_seed(42)
            .horizon(10.0)
            .init_with_n(|_, i| i as u32 + 1)
            .run_on::<Simulator<Max>, _>(ScannedEstimates)
            .unwrap();
        let serial = poisoned(1);
        let parallel = poisoned(4);
        assert_eq!(serial.cells, parallel.cells);
        let summary = serial.summary();
        assert_eq!((summary.completed, summary.panicked), (3, 3));
        for outcome in &serial.cell(64, "static").unwrap().outcomes {
            assert_eq!(outcome, &CellOutcome::Panicked("poisoned cell".into()));
        }
        // The healthy cell is grid cell 0 in both grids, so its seed chain
        // is identical and its rows must match bit for bit.
        assert_eq!(
            serial
                .cell(32, "static")
                .unwrap()
                .completed_runs()
                .collect::<Vec<_>>(),
            healthy.cells[0].runs.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn run_on_reraises_a_panicking_run_with_the_same_message_on_any_thread_count() {
        let message = |threads| {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                Sweep::new(Max)
                    .populations([32, 64])
                    .runs(3)
                    .master_seed(42)
                    .horizon(10.0)
                    .threads(threads)
                    .init_with_n(|n, i| {
                        if n == 64 {
                            panic!("poisoned cell");
                        }
                        i as u32 + 1
                    })
                    .run_on::<Simulator<Max>, _>(ScannedEstimates)
            }))
            .expect_err("the poisoned cell must re-raise");
            panic_message(payload)
        };
        assert_eq!(message(1), "poisoned cell");
        assert_eq!(message(4), "poisoned cell");
    }

    /// A panicking `init_counts` closure is the caller's code, not a run:
    /// the pre-flight calls it once per cell, before any run starts, so
    /// both entry points re-raise its own message on any thread count and
    /// the resilient grid never turns it into a `Panicked` outcome.
    #[test]
    fn a_panicking_init_counts_closure_escapes_the_pre_flight_before_any_run() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 2] {
            for resilient in [false, true] {
                let calls = Arc::new(AtomicUsize::new(0));
                let seen = Arc::clone(&calls);
                let sweep = Sweep::new(Or)
                    .populations([8, 16])
                    .runs(3)
                    .horizon(2.0)
                    .threads(threads)
                    .init_counts(move |n| {
                        seen.fetch_add(1, Ordering::Relaxed);
                        assert!(n != 16, "no counts for n = {n}");
                        vec![n - 1, 1]
                    });
                let payload = catch_unwind(AssertUnwindSafe(|| {
                    if resilient {
                        let policy = ResiliencePolicy::default();
                        let _ = sweep
                            .run_resilient_on::<CountSimulator<Or>, _>(ScannedEstimates, policy);
                    } else {
                        let _ = sweep.run_on::<CountSimulator<Or>, _>(ScannedEstimates);
                    }
                }))
                .expect_err("the closure's panic must propagate");
                let case = format!("threads = {threads}, resilient = {resilient}");
                assert_eq!(panic_message(payload), "no counts for n = 16", "{case}");
                // One pre-flight call per cell, and none from a run.
                assert_eq!(calls.load(Ordering::Relaxed), 2, "{case}");
            }
        }
    }

    #[test]
    fn the_watchdog_budget_converts_runaway_cells_into_typed_outcomes() {
        // budget = ceil(0.5 * horizon * n) is half the interactions a run
        // needs (parallel time advances 1/n per interaction), so every run
        // trips the watchdog instead of completing.
        let r = grid()
            .run_resilient_on::<Simulator<Max>, _>(
                ScannedEstimates,
                ResiliencePolicy {
                    budget_factor: Some(0.5),
                },
            )
            .unwrap();
        let summary = r.summary();
        assert_eq!(summary.budget_exceeded, 12);
        assert!(!summary.all_completed());
        assert!(r.cells.iter().all(|c| c.outcomes.iter().all(
            |o| matches!(o, CellOutcome::BudgetExceeded { interactions, budget }
                    if interactions > budget)
        )));
    }

    #[test]
    fn invalid_budget_factors_fail_typed_before_any_cell_runs() {
        // A NaN or negative factor saturates every budget to 0, so every
        // run would report a budget overrun; an infinite one would disable
        // the watchdog it asks for.
        use std::sync::atomic::{AtomicUsize, Ordering};
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -2.0] {
            let cells_started = Arc::new(AtomicUsize::new(0));
            let sweep = || {
                let started = Arc::clone(&cells_started);
                Sweep::new(Max)
                    .populations([8, 16])
                    .horizon(5.0)
                    .init_with_n(move |_, i| {
                        if i == 0 {
                            started.fetch_add(1, Ordering::Relaxed);
                        }
                        1
                    })
            };
            let policy = ResiliencePolicy {
                budget_factor: Some(bad),
            };
            let results = [
                sweep().run_resilient_on::<Simulator<Max>, _>(ScannedEstimates, policy),
                sweep().run_faulted_on::<Simulator<Max>, _>(
                    &FaultPlan::new(1).adversarial_start(),
                    ScannedEstimates,
                    policy,
                ),
            ];
            for result in results {
                match result {
                    Err(BackendError::InvalidBudgetFactor { backend, factor }) => {
                        assert_eq!(backend, <Simulator<Max> as Backend>::NAME);
                        assert_eq!(factor.to_bits(), bad.to_bits());
                    }
                    other => panic!("budget factor {bad} was not rejected: {other:?}"),
                }
            }
            assert_eq!(cells_started.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn an_impossible_fault_plan_fails_the_whole_grid_up_front() {
        // Agent 30 exists at n = 40 but not at n = 20: the pre-flight must
        // reject the whole grid, mirroring schedule validation.
        let plan = FaultPlan::new(7).corrupt_agents(1.0, [30]);
        let err = grid()
            .run_faulted_on::<Simulator<Max>, _>(
                &plan,
                ScannedEstimates,
                ResiliencePolicy::default(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            BackendError::InvalidFaultPlan {
                backend: "agent-array",
                error: crate::fault::FaultError::AgentOutOfRange {
                    index: 30,
                    population: 20
                }
            }
        );
    }
}
