//! A single experiment run: simulation + snapshots + adversary schedule.
//!
//! [`Experiment`] packages what the paper's evaluation does per run:
//! simulate a protocol on `n` agents for a horizon of parallel time,
//! snapshot the estimate distribution once per snapshot interval ("we create
//! a snapshot every n interactions", §5), and apply adversary events at their
//! scheduled times.
//!
//! Execution has one entry point, [`Experiment::run_on`]: pick a
//! [`Backend`] (agent array, count, jump, or batched count) and a
//! [`Recording`] plan (estimates, memory summaries, tick events —
//! composable), e.g. `run_on::<Simulator<_>, _>(ScannedEstimates)` for the
//! paper's agent-array runs.

use crate::adversary::AdversarySchedule;
use crate::backend::{Backend, BackendError, CellSpec, ConfigError};
use crate::recording::Recording;
use crate::series::RunResult;
use pp_model::{Protocol, SizeEstimator};

/// Panics with the error's display — the contract of the panicking builder
/// methods, which are shims over their `try_*` forms.
pub(crate) fn expect_run<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| panic!("{e}"))
}

/// Accepts a finite, non-negative horizon: an infinite one would never
/// finish, and a negative or NaN one is meaningless.
pub(crate) fn check_horizon(horizon: f64) -> Result<f64, ConfigError> {
    if horizon.is_finite() && horizon >= 0.0 {
        Ok(horizon)
    } else {
        Err(ConfigError::InvalidHorizon { horizon })
    }
}

/// How the initial configuration is built.
pub enum InitMode<S> {
    /// All agents in the protocol's initial state (the paper's Fig. 2:
    /// "the system is initially empty", i.e. every agent just joined).
    Fresh,
    /// Agent `i` starts in `f(i)` — arbitrary initial configurations for
    /// loose-stabilization experiments (e.g. Fig. 5's initial estimate 60).
    FromFn(Box<dyn Fn(usize) -> S + Send + Sync>),
}

impl<S> std::fmt::Debug for InitMode<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InitMode::Fresh => write!(f, "InitMode::Fresh"),
            InitMode::FromFn(_) => write!(f, "InitMode::FromFn(..)"),
        }
    }
}

/// A fully specified single run.
///
/// # Examples
///
/// ```
/// use pp_sim::{Experiment, ScannedEstimates, Simulator};
/// # use pp_model::{Protocol, SizeEstimator};
/// # use rand::Rng;
/// # #[derive(Clone)] struct Max;
/// # impl Protocol for Max {
/// #     type State = u32;
/// #     fn initial_state(&self) -> u32 { 1 }
/// #     fn interact<R: Rng + ?Sized>(&self, u: &mut u32, v: &mut u32, _: &mut R) { *u = (*u).max(*v); }
/// # }
/// # impl SizeEstimator for Max {
/// #     fn estimate_log2(&self, s: &u32) -> Option<f64> { Some(*s as f64) }
/// # }
/// let result = Experiment::new(Max, 100)
///     .seed(7)
///     .horizon(50.0)
///     .snapshot_every(1.0)
///     .run_on::<Simulator<Max>, _>(ScannedEstimates)
///     .unwrap();
/// assert_eq!(result.snapshots.len(), 51); // t = 0, 1, …, 50
/// ```
#[derive(Debug)]
pub struct Experiment<P: Protocol> {
    protocol: P,
    n: usize,
    seed: u64,
    horizon: f64,
    snapshot_every: f64,
    schedule: AdversarySchedule,
    init: InitMode<P::State>,
}

impl<P: SizeEstimator> Experiment<P> {
    /// Creates an experiment on `n` fresh agents with defaults:
    /// seed 0, horizon 1000 parallel time, one snapshot per parallel time
    /// unit, no adversary.
    pub fn new(protocol: P, n: usize) -> Self {
        Experiment {
            protocol,
            n,
            seed: 0,
            horizon: 1000.0,
            snapshot_every: 1.0,
            schedule: AdversarySchedule::new(),
            init: InitMode::Fresh,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the simulation horizon in parallel time, or reports why the
    /// value is invalid.
    pub fn try_horizon(mut self, horizon: f64) -> Result<Self, ConfigError> {
        self.horizon = check_horizon(horizon)?;
        Ok(self)
    }

    /// Sets the simulation horizon in parallel time.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is negative, infinite, or NaN (see
    /// [`Experiment::try_horizon`] for the non-panicking form).
    pub fn horizon(self, horizon: f64) -> Self {
        expect_run(self.try_horizon(horizon))
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
    /// [`Experiment::try_snapshot_every`] for the non-panicking form).
    pub fn snapshot_every(self, every: f64) -> Self {
        expect_run(self.try_snapshot_every(every))
    }

    /// Installs an adversary schedule.
    pub fn schedule(mut self, schedule: AdversarySchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the initial configuration mode.
    pub fn init(mut self, init: InitMode<P::State>) -> Self {
        self.init = init;
        self
    }

    /// Convenience: initial configuration where every agent starts in `f(i)`.
    pub fn init_with(self, f: impl Fn(usize) -> P::State + Send + Sync + 'static) -> Self {
        self.init(InitMode::FromFn(Box::new(f)))
    }

    /// The single-run driver: executes this experiment on backend `B`
    /// under the given [`Recording`] plan (e.g.
    /// `exp.run_on::<CountSimulator<_>, _>(ScannedEstimates)`).
    ///
    /// # Errors
    ///
    /// Returns a typed [`BackendError`] when the backend does not support
    /// the experiment's configuration or the plan's recordings (e.g. an
    /// adversary schedule on the jump backend).
    pub fn run_on<B, R>(self, recording: R) -> Result<RunResult, BackendError>
    where
        B: Backend<Protocol = P, State = P::State>,
        R: Recording<P>,
    {
        let Experiment {
            protocol,
            n,
            seed,
            horizon,
            snapshot_every,
            schedule,
            init,
        } = self;
        let per_agent = match &init {
            InitMode::Fresh => None,
            InitMode::FromFn(f) => Some(&**f),
        };
        // Adapts the index-only initializer to the (n, i) shape CellSpec
        // shares with multi-cell sweeps.
        let adapter = |_n: usize, i: usize| (per_agent.expect("set when init_agents is"))(i);
        let spec = CellSpec {
            n,
            seed,
            horizon,
            snapshot_every,
            schedule: &schedule,
            init_agents: per_agent
                .is_some()
                .then_some(&adapter as &dyn Fn(usize, usize) -> P::State),
            init_counts: None,
            interaction_budget: None,
        };
        B::run_cell(protocol, &spec, &recording)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::PopulationEvent;
    use crate::count_sim::CountSimulator;
    use crate::recording::{ScannedEstimates, WithMemory, WithTicks};
    use crate::simulator::Simulator;
    use pp_model::FiniteProtocol;
    use rand::Rng;

    /// Max-spreading counting fixture; every agent always reports.
    #[derive(Clone, Debug)]
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
            Some(*s as f64)
        }
    }
    impl pp_model::TickProtocol for Max {
        fn tick_count(&self, _: &u32) -> u64 {
            0
        }
    }
    fn run(e: Experiment<Max>) -> RunResult {
        e.run_on::<Simulator<Max>, _>(ScannedEstimates).unwrap()
    }

    #[test]
    fn snapshots_land_on_grid() {
        let r = run(Experiment::new(Max, 50).horizon(10.0));
        assert_eq!(r.snapshots.len(), 11);
        for (i, s) in r.snapshots.iter().enumerate() {
            assert!(
                (s.parallel_time - i as f64).abs() < 0.05,
                "snapshot {i} at {}",
                s.parallel_time
            );
        }
    }

    #[test]
    fn adversary_event_fires_at_scheduled_time() {
        let schedule = AdversarySchedule::new().at(5.0, PopulationEvent::ResizeTo(10));
        let r = run(Experiment::new(Max, 100).horizon(10.0).schedule(schedule));
        assert_eq!(r.final_n, 10);
        let before = r.snapshot_at(4.0);
        let after = r.snapshot_at(6.0);
        assert_eq!(before.n, 100);
        assert_eq!(after.n, 10);
    }

    #[test]
    fn init_with_seeds_custom_states() {
        let r = run(Experiment::new(Max, 20)
            .init_with(|i| if i == 0 { 60 } else { 1 })
            .horizon(30.0));
        let last = r.snapshots.last().unwrap().estimates.unwrap();
        assert_eq!(last.max, 60.0);
        assert_eq!(last.min, 60.0, "epidemic should have spread 60 to all");
    }

    #[test]
    fn ticks_and_memory_plan_records_memory() {
        // u32 states implement MemoryFootprint via pp-model.
        let r = Experiment::new(Max, 30)
            .horizon(5.0)
            .run_on::<Simulator<Max>, _>(WithTicks(WithMemory(ScannedEstimates)))
            .unwrap();
        let mem = r.snapshots.last().unwrap().memory.unwrap();
        assert!(mem.max_bits >= 1);
        assert!(mem.mean_bits >= 1.0);
        assert!(r.ticks.is_empty(), "fixture never ticks");
    }

    #[test]
    fn invalid_builder_settings_report_typed_config_errors() {
        let err = Experiment::new(Max, 10)
            .try_snapshot_every(0.0)
            .unwrap_err();
        assert_eq!(err, ConfigError::NonPositiveSnapshotInterval { every: 0.0 });
        let err = Experiment::new(Max, 10).try_horizon(-1.0).unwrap_err();
        assert_eq!(err, ConfigError::InvalidHorizon { horizon: -1.0 });
        assert!(Experiment::new(Max, 10).try_snapshot_every(0.5).is_ok());
    }

    #[test]
    #[should_panic(expected = "snapshot interval must be positive")]
    fn snapshot_every_shim_panics_with_the_error_display() {
        let _ = Experiment::new(Max, 10).snapshot_every(-2.0);
    }

    /// Binary OR-infection fixture for count-backend experiments.
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

    #[test]
    fn an_experiment_can_run_on_the_count_backend() {
        // New with the unified driver: a single Experiment on the
        // count substrate, same builder surface.
        let r = Experiment::new(Or, 500)
            .seed(3)
            .horizon(4.0)
            .run_on::<CountSimulator<Or>, _>(ScannedEstimates)
            .unwrap();
        assert_eq!(r.snapshots.len(), 5);
        assert_eq!(r.final_n, 500);
    }

    #[test]
    fn count_backend_rejects_per_agent_init_from_an_experiment() {
        let err = Experiment::new(Or, 16)
            .init_with(|i| i == 0)
            .horizon(2.0)
            .run_on::<CountSimulator<Or>, _>(ScannedEstimates)
            .unwrap_err();
        assert_eq!(
            err,
            BackendError::AgentIndicesUnsupported {
                backend: "count",
                requested: "per-agent initial states (use init_counts(..))"
            }
        );
    }
}
