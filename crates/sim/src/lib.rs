//! # pp-sim — simulators for population protocols
//!
//! The paper's protocol has an unbounded state space, which rules out
//! ready-made population protocol simulators (its §5 makes the same
//! observation about ppsim and builds a custom C++ simulator). This crate is
//! the Rust equivalent, built from scratch, organized as **one driver over
//! four backends**:
//!
//! * [`backend`] — the [`Backend`] contract implemented by the agent-array
//!   simulator and, once for its three steppers, by the count simulator,
//!   plus the typed [`BackendError`]/[`ConfigError`] values for
//!   unsupported combinations. Each backend checks a cell in one place,
//!   [`Backend::validate`], which its cell body and [`Sweep`]'s pre-flight
//!   both call.
//! * [`Simulator`] — the agent-array backend: a dense vector of states, the
//!   uniformly random pair scheduler, and observer hooks. This is the
//!   single sequential engine behind every figure of the paper; the cores
//!   of a multi-core box go to independent runs ([`Sweep`] / [`runner`]),
//!   not to sharding one run.
//! * [`count_sim::CountChain`] — the count simulator: one counter per state
//!   of a finite-state protocol (no agent array), with the protocol, the
//!   generator, the clock and the adversary's events written once. A
//!   stepper type parameter supplies the stepping algorithm, and three
//!   aliases fix it, one per count backend:
//!   * [`CountSimulator`] — exact simulation; cross-checks the agent
//!     simulator and sweeps substrates at populations the agent array
//!     can't hold.
//!   * [`JumpSimulator`] — closed-form skipping of no-op interactions for
//!     deterministic protocols.
//!   * [`BatchedCountSimulator`] — tau-leaping over the count vector for
//!     deterministic protocols; advances many interactions per draw
//!     (binomial splitting over the pair-weight table), making n = 10⁹
//!     sweeps cheap at distribution-level (not trajectory-level) fidelity,
//!     with an exact fallback below a population threshold.
//!
//!   The count simulator applies the adversary's removals through one
//!   implementation on count vectors (the crate-private `removal` module):
//!   uniform removal as one multivariate hypergeometric draw
//!   (O(#occupied states), exact in distribution) and the
//!   largest-estimate-first poacher.
//! * [`recording`] — four flat [`Recording`] plans: estimate snapshots
//!   read by a per-snapshot scan ([`ScannedEstimates`]), plus memory
//!   summaries ([`WithMemory`]), tick events ([`WithTicks`]) or recovery
//!   transitions ([`WithRecovery`]); each installs at most one
//!   [`observer`], and a plan without per-interaction recordings costs
//!   nothing in the hot loop.
//! * [`adversary`] — the dynamic-population adversary of Doty & Eftekhari
//!   2022: timed events that add agents (in the protocol's initial state) or
//!   remove arbitrary agents; schedules validate up front against the
//!   initial population, so impossible traces are typed
//!   [`ScheduleError`]s, not mid-run panics.
//! * [`scenario`] — declarative churn traces ([`ScenarioTrace`]): ramps,
//!   diurnal cycles, flash crowds, correlated crash bursts, and targeted
//!   removal campaigns that compile deterministically (per seed) into
//!   [`AdversarySchedule`]s, making whole fault-injection scenarios
//!   reproducible grid axes.
//! * [`fault`] — fault injection: declarative, seeded [`FaultPlan`]s
//!   (randomized and targeted state corruption, adversarial initial
//!   configurations) compiled per cell like scenario traces and executed
//!   through the [`FaultBackend`] hook, which runs the same cell body as a
//!   healthy run with the compiled plan added; recovery is measured by the
//!   [`WithRecovery`] recording plan — plus resilient grid execution
//!   ([`Sweep::run_resilient_on`]) that isolates panics and runaway cells
//!   into typed per-cell [`CellOutcome`]s.
//! * [`Experiment`] / [`Sweep`] — the single-run and grid drivers; both
//!   execute any backend × recording combination through one generic path
//!   ([`Experiment::run_on`] / [`Sweep::run_on`]). `Sweep` has one grid
//!   executor behind its three entry points (`run_on`,
//!   [`Sweep::run_resilient_on`], [`Sweep::run_faulted_on`]), and the
//!   agent-array and count simulators share one drive loop, each through
//!   one cell body for fresh and faulted runs.
//! * [`runner`] — a work-stealing parallel executor for independent runs
//!   (the paper uses 96 runs per data point).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod backend;
pub mod batched_sim;
pub mod count_sim;
mod counts;
pub mod experiment;
pub mod fault;
pub mod histogram;
pub mod jump_sim;
pub mod observer;
pub mod recording;
mod removal;
pub mod runner;
pub mod scenario;
pub mod series;
pub mod simulator;
pub mod sweep;

pub use adversary::{AdversarySchedule, PopulationEvent, ScheduleError, ScheduledEvent};
pub use backend::{Backend, BackendError, CellSpec, ConfigError, CountsShape};
pub use batched_sim::BatchedCountSimulator;
pub use count_sim::CountSimulator;
pub use experiment::Experiment;
pub use fault::{
    CompiledFaultPlan, FaultBackend, FaultError, FaultKind, FaultPlan, Injection, InjectionAction,
    FAULT_SEED_INDEX,
};
pub use histogram::EstimateHistogram;
pub use jump_sim::JumpSimulator;
pub use observer::{Observer, RecoveryObserver, TickRecorder};
pub use recording::{Recording, ScannedEstimates, WithMemory, WithRecovery, WithTicks};
// The frozen benchmark harness (`perfbench/`) still names the estimate plan
// by its old name on the count backends; drop this alias at the next
// benchmark-definition change.
#[doc(hidden)]
pub use recording::ScannedEstimates as TrackedEstimates;
pub use runner::parallel_map;
pub use scenario::{ScenarioTrace, TraceSegment, BUILTIN_TRACES};
pub use series::{EstimateSummary, MemorySummary, RecoveryPoint, RunResult, Snapshot, TickEvent};
pub use simulator::{ChunkSize, Simulator};
pub use sweep::{
    CellOutcome, FailureSummary, ResiliencePolicy, ResilientCell, ResilientResults, Sweep,
    SweepCell, SweepResults,
};
