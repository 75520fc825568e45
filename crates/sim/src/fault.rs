//! Fault injection: declarative, seeded fault plans compiled per cell.
//!
//! The paper's protocol is *loosely stabilizing* (Doty & Eftekhari,
//! arXiv 2202.12864): started from **any** reachable configuration it
//! re-enters the Lemma 4.1 estimate band within O(log n) parallel time and
//! holds it for Ω(n^k) time. The convergence experiments only ever start
//! from clean configurations, so that claim was untested. This module
//! supplies the adversary: a [`FaultPlan`] describes *what* to break and
//! *when*, and the [`FaultBackend`] hook executes it against a cell.
//!
//! # Determinism
//!
//! Like [`ScenarioTrace`](crate::ScenarioTrace), a plan is declarative and
//! seeded: it is compiled once per grid cell (under the reserved
//! [`FAULT_SEED_INDEX`] of the cell's seed sequence) and every injection
//! draws from a per-run fault RNG that is a pure function of the plan seed
//! and the run seed. Fault-injected sweeps are therefore bit-identical
//! across thread counts, exactly like healthy ones.
//!
//! # Fault kinds
//!
//! * **State corruption** ([`FaultPlan::corrupt_random`],
//!   [`FaultPlan::corrupt_agents`]) — at a scheduled parallel time,
//!   selected agents are rewritten with [`Corruptible::corrupt_state`]:
//!   randomized resets and field scrambles drawn from the protocol's own
//!   reachable state space.
//! * **Adversarial initial configurations**
//!   ([`FaultPlan::adversarial_start`]) — every agent starts corrupted,
//!   the loose-stabilization worst case.
//! * **Byzantine liars** — not injected here: lying is a behaviour, not
//!   a state, so it lives in the protocol layer. Plant liars through the
//!   `Byzantine` wrapper (in `pp_protocols`) and its initial
//!   configuration ([`Sweep::init_with_n`](crate::Sweep::init_with_n)),
//!   then inject faults into the honest rest as usual.

use crate::backend::{run_agent_cell, run_count_cell, Backend, BackendError, CellSpec};
use crate::count_sim::{CountSimulator, Exact};
use crate::observer::Observer;
use crate::recording::Recording;
use crate::runner::mix64;
use crate::series::RunResult;
use crate::simulator::Simulator;
use pp_model::{Configuration, Corruptible, FiniteProtocol, SizeEstimator};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// Reserved per-cell seed index under which fault plans are compiled —
/// the immediate neighbour of the scenario-trace sentinel (`usize::MAX`),
/// so ordinary run indices can never collide with it.
pub const FAULT_SEED_INDEX: usize = usize::MAX - 1;

/// A malformed fault plan, reported before any simulation work.
///
/// Mirrors [`ScheduleError`](crate::ScheduleError): plan bugs fail the
/// whole grid up front with a typed value instead of corrupting a subset
/// of cells mid-sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultError {
    /// An injection time is negative, NaN, or infinite.
    InvalidTime {
        /// The rejected parallel time.
        at: f64,
    },
    /// A corruption fraction is outside `(0, 1]` (or NaN).
    InvalidFraction {
        /// The rejected fraction.
        fraction: f64,
    },
    /// A targeted corruption names no agents at all.
    EmptyAgentList {
        /// Scheduled parallel time of the empty injection.
        at: f64,
    },
    /// A targeted corruption names an agent the cell does not have.
    AgentOutOfRange {
        /// The out-of-range agent index.
        index: usize,
        /// The cell's initial population.
        population: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvalidTime { at } => {
                write!(f, "fault time must be finite and non-negative (got {at})")
            }
            FaultError::InvalidFraction { fraction } => {
                write!(f, "corruption fraction must be in (0, 1] (got {fraction})")
            }
            FaultError::EmptyAgentList { at } => {
                write!(f, "fault at t = {at} targets no agents")
            }
            FaultError::AgentOutOfRange { index, population } => write!(
                f,
                "fault targets agent {index}, but the population is {population}"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// One declarative fault, before compilation against a concrete cell.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Corrupt a uniformly chosen fraction of the population at a
    /// scheduled parallel time.
    CorruptRandom {
        /// Parallel time of the injection.
        at: f64,
        /// Fraction of the population to corrupt, in `(0, 1]`; compiled
        /// to `max(1, round(fraction · n))` victims.
        fraction: f64,
    },
    /// Corrupt specific agents (by index) at a scheduled parallel time.
    /// Agent-array backends only — counts have no agent identities.
    CorruptAgents {
        /// Parallel time of the injection.
        at: f64,
        /// Indices of the agents to corrupt.
        agents: Vec<usize>,
    },
}

/// A declarative, seeded fault-injection plan.
///
/// Built once, compiled per grid cell with [`FaultPlan::compile`]; see the
/// [module docs](self) for the determinism contract and the fault
/// taxonomy.
///
/// # Examples
///
/// ```
/// use pp_sim::FaultPlan;
///
/// let plan = FaultPlan::new(42)
///     .corrupt_random(5.0, 0.25)   // quarter of the agents at t = 5
///     .corrupt_agents(9.0, [0, 1]) // agents 0 and 1 at t = 9
///     .adversarial_start();        // and start everyone corrupted
/// let compiled = plan.compile(100, 7).expect("valid plan");
/// assert_eq!(compiled.injections().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<FaultKind>,
    adversarial_start: bool,
}

impl FaultPlan {
    /// Creates an empty plan with the given fault seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
            adversarial_start: false,
        }
    }

    /// Schedules corruption of a uniformly chosen `fraction` of the
    /// population at parallel time `at`.
    pub fn corrupt_random(mut self, at: f64, fraction: f64) -> Self {
        self.faults.push(FaultKind::CorruptRandom { at, fraction });
        self
    }

    /// Schedules corruption of the given agents at parallel time `at`.
    pub fn corrupt_agents(mut self, at: f64, agents: impl IntoIterator<Item = usize>) -> Self {
        self.faults.push(FaultKind::CorruptAgents {
            at,
            agents: agents.into_iter().collect(),
        });
        self
    }

    /// Starts every agent from a corrupted state (the loose-stabilization
    /// worst case) instead of the protocol's initial state.
    pub fn adversarial_start(mut self) -> Self {
        self.adversarial_start = true;
        self
    }

    /// The plan's fault seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The declared faults, in insertion order.
    pub fn faults(&self) -> &[FaultKind] {
        &self.faults
    }

    /// Whether the plan starts from an adversarial configuration.
    pub fn is_adversarial_start(&self) -> bool {
        self.adversarial_start
    }

    /// Checks the population-independent invariants: finite non-negative
    /// times, fractions in `(0, 1]`, non-empty target lists.
    pub fn validate(&self) -> Result<(), FaultError> {
        for fault in &self.faults {
            let at = match fault {
                FaultKind::CorruptRandom { at, .. } | FaultKind::CorruptAgents { at, .. } => *at,
            };
            if !at.is_finite() || at < 0.0 {
                return Err(FaultError::InvalidTime { at });
            }
            match fault {
                FaultKind::CorruptRandom { fraction, .. } => {
                    if !(*fraction > 0.0 && *fraction <= 1.0) {
                        return Err(FaultError::InvalidFraction {
                            fraction: *fraction,
                        });
                    }
                }
                FaultKind::CorruptAgents { agents, .. } => {
                    if agents.is_empty() {
                        return Err(FaultError::EmptyAgentList { at });
                    }
                }
            }
        }
        Ok(())
    }

    /// Compiles the plan against a cell of initial population `n`, under
    /// the cell's reserved fault seed (see [`FAULT_SEED_INDEX`]).
    ///
    /// Performs the population-dependent checks ([`validate`](Self::validate)
    /// runs first): targeted agents must exist. Fractions resolve to
    /// `max(1, round(fraction · n))` victims; injections are sorted by
    /// time (stably, so same-time faults keep insertion order).
    pub fn compile(&self, n: usize, cell_seed: u64) -> Result<CompiledFaultPlan, FaultError> {
        self.validate()?;
        let mut injections: Vec<Injection> = Vec::with_capacity(self.faults.len());
        for fault in &self.faults {
            injections.push(match fault {
                FaultKind::CorruptRandom { at, fraction } => Injection {
                    at: *at,
                    action: InjectionAction::CorruptRandom {
                        victims: ((fraction * n as f64).round() as usize).clamp(1, n.max(1)),
                    },
                },
                FaultKind::CorruptAgents { at, agents } => {
                    for &index in agents {
                        if index >= n {
                            return Err(FaultError::AgentOutOfRange {
                                index,
                                population: n,
                            });
                        }
                    }
                    Injection {
                        at: *at,
                        action: InjectionAction::CorruptAgents {
                            agents: agents.clone(),
                        },
                    }
                }
            });
        }
        injections.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("validated finite times"));
        let times = injections.iter().map(|i| i.at).collect();
        Ok(CompiledFaultPlan {
            seed: mix64(self.seed ^ mix64(cell_seed)),
            injections,
            times,
            adversarial_start: self.adversarial_start,
        })
    }
}

/// One compiled injection: a parallel time and a resolved action.
#[derive(Debug, Clone, PartialEq)]
pub struct Injection {
    /// Parallel time at which the injection fires (the drive loop stops
    /// at this boundary exactly, like a schedule event).
    pub at: f64,
    /// What the injection does.
    pub action: InjectionAction,
}

/// A resolved fault action, after fractions were turned into counts.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectionAction {
    /// Corrupt `victims` uniformly chosen agents.
    CorruptRandom {
        /// Number of agents to corrupt (capped at the live population at
        /// injection time).
        victims: usize,
    },
    /// Corrupt these specific agents (indices past the live population at
    /// injection time are skipped — the adversary schedule may have
    /// shrunk the cell since compilation).
    CorruptAgents {
        /// Indices of the agents to corrupt.
        agents: Vec<usize>,
    },
}

/// A [`FaultPlan`] compiled against one concrete cell — validated,
/// time-sorted, with fractions resolved to victim counts and the per-cell
/// fault seed mixed in.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFaultPlan {
    seed: u64,
    injections: Vec<Injection>,
    times: Vec<f64>,
    adversarial_start: bool,
}

impl CompiledFaultPlan {
    /// The time-sorted injections.
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// The injection times, sorted ascending (parallel time).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Whether the cell starts from an adversarial configuration.
    pub fn is_adversarial_start(&self) -> bool {
        self.adversarial_start
    }

    /// Whether any injection targets agents by index (unsupported on
    /// count backends).
    pub fn targets_agents(&self) -> bool {
        self.injections
            .iter()
            .any(|i| matches!(i.action, InjectionAction::CorruptAgents { .. }))
    }

    /// The fault RNG seed for one run: a pure function of the compiled
    /// plan seed and the run seed, so injections are bit-identical across
    /// thread counts and re-runs.
    fn run_rng_seed(&self, run_seed: u64) -> u64 {
        mix64(self.seed ^ mix64(run_seed))
    }
}

/// A [`Backend`] that can execute a cell under a compiled fault plan.
///
/// Implemented for the agent-array [`Simulator`] (all fault kinds) and
/// the [`CountSimulator`] (random corruption and adversarial starts —
/// counts have no agent identities to target). The protocol must be
/// [`Corruptible`], so injected states stay within its reachable space.
pub trait FaultBackend: Backend {
    /// Executes one run of `spec` with `plan`'s faults injected.
    ///
    /// Injection times are drive-loop boundaries, exactly like adversary
    /// schedule events; budget and recording semantics match
    /// [`Backend::run_cell`].
    fn run_cell_faulted<R>(
        protocol: Self::Protocol,
        spec: &CellSpec<'_, Self::State>,
        plan: &CompiledFaultPlan,
        recording: &R,
    ) -> Result<RunResult, BackendError>
    where
        R: Recording<Self::Protocol>;
}

impl<P> FaultBackend for Simulator<P>
where
    P: SizeEstimator + Corruptible + Clone,
{
    fn run_cell_faulted<R>(
        protocol: P,
        spec: &CellSpec<'_, P::State>,
        plan: &CompiledFaultPlan,
        recording: &R,
    ) -> Result<RunResult, BackendError>
    where
        R: Recording<P>,
    {
        let mut corrupter = Corrupter::new(&protocol, plan, spec.seed);
        run_agent_cell(protocol, spec, recording, Some((plan, &mut corrupter)))
    }
}

impl<P> FaultBackend for CountSimulator<P>
where
    P: FiniteProtocol + SizeEstimator + Corruptible + Clone,
{
    fn run_cell_faulted<R>(
        protocol: P,
        spec: &CellSpec<'_, P::State>,
        plan: &CompiledFaultPlan,
        _recording: &R,
    ) -> Result<RunResult, BackendError>
    where
        R: Recording<P>,
    {
        let mut corrupter = Corrupter::new(&protocol, plan, spec.seed);
        run_count_cell::<P, Exact, R>(protocol, spec, Some((plan, &mut corrupter)))
    }
}

/// The corrupt hook a faulted cell body takes alongside its compiled plan:
/// how one substrate corrupts its initial configuration `I` (the
/// adversarial start) and its live simulator `D` (one scheduled injection).
pub(crate) trait Corrupt<I, D> {
    /// Corrupts every agent of the initial configuration.
    fn start(&mut self, init: &mut I);
    /// Applies one injection to the running simulator.
    fn inject(&mut self, sim: &mut D, action: &InjectionAction);
}

/// The corrupt hook of one faulted run: the protocol, for
/// [`Corruptible::corrupt_state`], and the run's fault RNG, seeded from the
/// compiled plan and the run seed. The adversarial start draws from the
/// RNG first, then each injection in time order.
struct Corrupter<P> {
    protocol: P,
    rng: SmallRng,
}

impl<P: Clone> Corrupter<P> {
    fn new(protocol: &P, plan: &CompiledFaultPlan, run_seed: u64) -> Self {
        Corrupter {
            protocol: protocol.clone(),
            rng: SmallRng::seed_from_u64(plan.run_rng_seed(run_seed)),
        }
    }
}

impl<P, O> Corrupt<Configuration<P::State>, Simulator<P, O>> for Corrupter<P>
where
    P: SizeEstimator + Corruptible,
    O: Observer<P>,
{
    fn start(&mut self, config: &mut Configuration<P::State>) {
        for i in 0..config.len() {
            let corrupted = self.protocol.corrupt_state(config.get(i), &mut self.rng);
            *config.get_mut(i) = corrupted;
        }
    }

    fn inject(&mut self, sim: &mut Simulator<P, O>, action: &InjectionAction) {
        let pop = sim.population();
        let corrupt = |sim: &mut Simulator<P, O>, rng: &mut SmallRng, i: usize| {
            let new = self.protocol.corrupt_state(&sim.states()[i], rng);
            sim.replace_state(i, new);
        };
        match action {
            InjectionAction::CorruptRandom { victims } => {
                // Partial Fisher–Yates: `victims` distinct agents,
                // uniform without replacement.
                let mut idxs: Vec<usize> = (0..pop).collect();
                for j in 0..(*victims).min(pop) {
                    let pick = j + self.rng.random_range(0..pop - j);
                    idxs.swap(j, pick);
                    corrupt(sim, &mut self.rng, idxs[j]);
                }
            }
            InjectionAction::CorruptAgents { agents } => {
                for &i in agents.iter().filter(|&&i| i < pop) {
                    corrupt(sim, &mut self.rng, i);
                }
            }
        }
    }
}

/// On the count representation agents are indistinct: the adversarial
/// start makes one [`Corruptible::corrupt_state`] draw per agent, same as
/// the agent-array path, and a random victim is a count-weighted state.
impl<P> Corrupt<Vec<u64>, CountSimulator<P>> for Corrupter<P>
where
    P: FiniteProtocol + Corruptible,
{
    fn start(&mut self, counts: &mut Vec<u64>) {
        let mut out = vec![0u64; counts.len()];
        for (idx, &c) in counts.iter().enumerate() {
            let state = self.protocol.state_from_index(idx);
            for _ in 0..c {
                let corrupted = self.protocol.corrupt_state(&state, &mut self.rng);
                out[self.protocol.state_index(&corrupted)] += 1;
            }
        }
        *counts = out;
    }

    /// Each draw walks the cumulative counts and sees the evolving counts,
    /// so an already-corrupted unit can be redrawn — at the fractions the
    /// experiments use, a vanishing difference from without-replacement
    /// sampling, and it keeps the walk O(#states) per victim. Targeted
    /// injections are rejected before the run starts.
    fn inject(&mut self, sim: &mut CountSimulator<P>, action: &InjectionAction) {
        let InjectionAction::CorruptRandom { victims } = action else {
            return;
        };
        let pop = sim.population();
        for _ in 0..(*victims as u64).min(pop) {
            let mut u = self.rng.random_range(0..pop);
            let mut idx = 0usize;
            while u >= sim.count(idx) {
                u -= sim.count(idx);
                idx += 1;
            }
            let state = self.protocol.state_from_index(idx);
            let corrupted = self.protocol.corrupt_state(&state, &mut self.rng);
            let new = self.protocol.state_index(&corrupted);
            sim.set_count(idx, sim.count(idx) - 1);
            sim.set_count(new, sim.count(new) + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversarySchedule;
    use crate::recording::{ScannedEstimates, WithRecovery};
    use pp_model::Protocol;
    use rand::Rng;

    /// Min-epidemic fixture: values spread downward, so any corruption
    /// (which plants values 1..=3) heals back to all-zero as long as one
    /// agent survives uncorrupted.
    #[derive(Clone)]
    struct MinHeal;
    impl Protocol for MinHeal {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn interact<R: Rng + ?Sized>(&self, u: &mut u8, v: &mut u8, _: &mut R) {
            let m = (*u).min(*v);
            *u = m;
            *v = m;
        }
    }
    impl FiniteProtocol for MinHeal {
        fn num_states(&self) -> usize {
            4
        }
        fn state_index(&self, s: &u8) -> usize {
            *s as usize
        }
        fn state_from_index(&self, i: usize) -> u8 {
            i as u8
        }
    }
    impl SizeEstimator for MinHeal {
        fn estimate_log2(&self, s: &u8) -> Option<f64> {
            Some(f64::from(*s))
        }
    }
    impl Corruptible for MinHeal {
        fn corrupt_state<R: Rng + ?Sized>(&self, _: &u8, rng: &mut R) -> u8 {
            rng.random_range(1u32..4) as u8
        }
    }

    fn spec<'a>(
        n: usize,
        seed: u64,
        horizon: f64,
        schedule: &'a AdversarySchedule,
    ) -> CellSpec<'a, u8> {
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
    fn validate_rejects_malformed_plans_with_typed_errors() {
        assert_eq!(
            FaultPlan::new(1).corrupt_random(-2.0, 0.5).validate(),
            Err(FaultError::InvalidTime { at: -2.0 })
        );
        assert!(matches!(
            FaultPlan::new(1).corrupt_random(f64::NAN, 0.5).validate(),
            Err(FaultError::InvalidTime { at }) if at.is_nan()
        ));
        assert_eq!(
            FaultPlan::new(1).corrupt_random(1.0, 0.0).validate(),
            Err(FaultError::InvalidFraction { fraction: 0.0 })
        );
        assert_eq!(
            FaultPlan::new(1).corrupt_random(1.0, 1.5).validate(),
            Err(FaultError::InvalidFraction { fraction: 1.5 })
        );
        assert_eq!(
            FaultPlan::new(1).corrupt_agents(1.0, []).validate(),
            Err(FaultError::EmptyAgentList { at: 1.0 })
        );
        assert_eq!(
            FaultPlan::new(1).corrupt_random(1.0, 0.5).validate(),
            Ok(())
        );
    }

    #[test]
    fn compile_checks_population_dependent_invariants() {
        assert_eq!(
            FaultPlan::new(1).corrupt_agents(1.0, [16]).compile(16, 0),
            Err(FaultError::AgentOutOfRange {
                index: 16,
                population: 16
            })
        );
        assert!(FaultPlan::new(1)
            .corrupt_agents(1.0, [15])
            .compile(16, 0)
            .is_ok());
    }

    #[test]
    fn compile_resolves_fractions_and_sorts_by_time() {
        let compiled = FaultPlan::new(1)
            .corrupt_random(9.0, 0.25)
            .corrupt_agents(2.0, [3])
            .corrupt_random(5.0, 0.001)
            .compile(100, 0)
            .unwrap();
        let times: Vec<f64> = compiled.times().to_vec();
        assert_eq!(times, vec![2.0, 5.0, 9.0]);
        assert_eq!(
            compiled.injections()[2].action,
            InjectionAction::CorruptRandom { victims: 25 }
        );
        // Tiny fractions still corrupt at least one agent.
        assert_eq!(
            compiled.injections()[1].action,
            InjectionAction::CorruptRandom { victims: 1 }
        );
        assert!(compiled.targets_agents());
    }

    #[test]
    fn compile_is_deterministic() {
        let plan = FaultPlan::new(99)
            .corrupt_random(3.0, 0.5)
            .adversarial_start();
        assert_eq!(plan.compile(64, 7).unwrap(), plan.compile(64, 7).unwrap());
    }

    #[test]
    fn recovery_plan_records_the_departure_and_return() {
        let none = AdversarySchedule::new();
        let plan = FaultPlan::new(5)
            .corrupt_random(3.0, 0.5)
            .compile(64, 11)
            .unwrap();
        // Band [0, 0]: recovered iff every agent reports value 0.
        let recording = WithRecovery::band(0.0, 0.0);
        let run =
            Simulator::run_cell_faulted(MinHeal, &spec(64, 2, 40.0, &none), &plan, &recording)
                .unwrap();
        assert!(run.recovery.first().is_some_and(|p| p.recovered));
        let corrupted_at: u64 = 3 * 64;
        let back = run
            .recovered_at(corrupted_at)
            .expect("population must re-enter the band");
        assert!(back > corrupted_at);
    }

    #[test]
    fn adversarial_start_corrupts_the_initial_configuration() {
        let none = AdversarySchedule::new();
        let plan = FaultPlan::new(5)
            .adversarial_start()
            .compile(64, 11)
            .unwrap();
        let run = CountSimulator::run_cell_faulted(
            MinHeal,
            &spec(64, 2, 1.0, &none),
            &plan,
            &ScannedEstimates,
        )
        .unwrap();
        let first = run.snapshots.first().unwrap().estimates.unwrap();
        assert!(
            first.min >= 1.0,
            "adversarial start must corrupt every agent (corrupted values are 1..=3)"
        );
    }

    #[test]
    fn faulted_runs_are_bit_identical_across_invocations() {
        let none = AdversarySchedule::new();
        let plan = FaultPlan::new(5)
            .corrupt_random(2.0, 0.3)
            .adversarial_start()
            .compile(64, 11)
            .unwrap();
        let a = Simulator::run_cell_faulted(
            MinHeal,
            &spec(64, 2, 10.0, &none),
            &plan,
            &ScannedEstimates,
        )
        .unwrap();
        let b = Simulator::run_cell_faulted(
            MinHeal,
            &spec(64, 2, 10.0, &none),
            &plan,
            &ScannedEstimates,
        )
        .unwrap();
        assert_eq!(a, b);
    }

    proptest::proptest! {
        /// A malformed injection time is always rejected by name, for any
        /// surrounding plan content.
        #[test]
        fn bad_times_always_fail_validation(
            good in proptest::collection::vec((0.0f64..100.0, 0.01f64..1.0), 0..4),
            bad in {
                use proptest::strategy::Strategy;
                (0usize..3, 1.0e-9f64..1.0e6).prop_map(|(kind, mag)| match kind {
                    0 => -mag,
                    1 => f64::NAN,
                    _ => f64::INFINITY,
                })
            },
        ) {
            let mut plan = FaultPlan::new(1);
            for (at, fraction) in good {
                plan = plan.corrupt_random(at, fraction);
            }
            let plan = plan.corrupt_random(bad, 0.5);
            let err = plan.validate().unwrap_err();
            proptest::prop_assert!(
                matches!(err, FaultError::InvalidTime { at } if at.is_nan() == bad.is_nan()
                    && (at.is_nan() || at == bad)),
                "expected InvalidTime {{ at: {bad} }}, got {err:?}"
            );
            // A plan that fails validation also fails compilation for
            // every population: the grid is refused up front.
            proptest::prop_assert!(plan.compile(64, 7).is_err());
        }

        /// Fractions outside (0, 1] are rejected; fractions inside always
        /// resolve to a victim count in [1, n].
        #[test]
        fn fractions_gate_cleanly(fraction in -2.0f64..3.0, n in 1usize..10_000) {
            let plan = FaultPlan::new(1).corrupt_random(1.0, fraction);
            match plan.compile(n, 3) {
                Ok(compiled) => {
                    proptest::prop_assert!(fraction > 0.0 && fraction <= 1.0);
                    let InjectionAction::CorruptRandom { victims } =
                        compiled.injections()[0].action else {
                        panic!("compiled action changed kind");
                    };
                    proptest::prop_assert!((1..=n).contains(&victims));
                }
                Err(err) => {
                    proptest::prop_assert!(!(fraction > 0.0 && fraction <= 1.0));
                    proptest::prop_assert!(
                        matches!(err, FaultError::InvalidFraction { fraction: f } if f == fraction)
                    );
                }
            }
        }

        /// Targeted indices compile iff every index is inside the cell, and
        /// the error names the first offender.
        #[test]
        fn agent_targets_are_range_checked(
            agents in proptest::collection::vec(0usize..256, 1..8),
            n in 1usize..256,
        ) {
            let plan = FaultPlan::new(1).corrupt_agents(1.0, agents.clone());
            match plan.compile(n, 3) {
                Ok(_) => proptest::prop_assert!(agents.iter().all(|&a| a < n)),
                Err(FaultError::AgentOutOfRange { index, population }) => {
                    proptest::prop_assert_eq!(population, n);
                    proptest::prop_assert_eq!(
                        index,
                        *agents.iter().find(|&&a| a >= n).expect("an offender exists")
                    );
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }

        /// Compilation is a pure function of (plan, n, cell seed): the
        /// thread-identity contract of the resilient executor rests on it.
        #[test]
        fn compilation_is_deterministic(
            faults in proptest::collection::vec((0.0f64..50.0, 0.01f64..1.0), 1..6),
            n in 2usize..1_000,
            cell_seed in proptest::arbitrary::any::<u64>(),
        ) {
            let build = || {
                let mut plan = FaultPlan::new(9).adversarial_start();
                for &(at, fraction) in &faults {
                    plan = plan.corrupt_random(at, fraction);
                }
                plan.compile(n, cell_seed).expect("well-formed plan compiles")
            };
            let a = build();
            proptest::prop_assert_eq!(&a, &build());
            // And the sorted-times invariant holds for any insertion order.
            proptest::prop_assert!(a.times().windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
