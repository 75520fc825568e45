//! # Dynamic Size Counting in the Population Protocol Model
//!
//! A Rust reproduction of *Dynamic Size Counting in the Population Protocol
//! Model* (Dominik Kaaser & Maximilian Lohmann, PODC 2024,
//! [arXiv:2405.05137](https://arxiv.org/abs/2405.05137)).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`model`] — the population protocol model: states, transition traits,
//!   configurations, schedulers, and geometric sampling ([`pp_model`]).
//! * [`sim`] — simulators: the agent-array simulator used for all paper
//!   experiments, a count-based simulator for finite-state substrates, a
//!   dynamic-population adversary, and a parallel multi-run executor
//!   ([`pp_sim`]).
//! * [`protocols`] — substrate and baseline protocols: epidemics, CHVP/CLVP,
//!   a mod-m phase clock, size-counting baselines (static GRV, DE19, DE22,
//!   BKR) and a Byzantine wrapper ([`pp_protocols`]).
//! * [`dsc`] — the paper's contribution: the uniform loosely-stabilizing
//!   dynamic size counting protocol (Algorithms 1 and 2), its averaged
//!   variant and its phase clock ([`dsc_core`]).
//! * [`analysis`] — statistics, convergence/holding-time detection,
//!   burst/overlap extraction, tables and CSV export ([`pp_analysis`]).
//!
//! ## Quickstart
//!
//! Estimate the size of a population of 1 000 agents:
//!
//! ```
//! use dynamic_size_counting::dsc::{DscConfig, DynamicSizeCounting};
//! use dynamic_size_counting::sim::Simulator;
//!
//! let protocol = DynamicSizeCounting::new(DscConfig::empirical());
//! let mut sim = Simulator::with_seed(protocol, 1_000, 42);
//! sim.run_parallel_time(300.0);
//! let estimate = sim.estimate_stats().expect("estimates available");
//! // log2(1000) ≈ 9.97; the protocol computes a constant-factor approximation.
//! assert!(estimate.median >= 5.0 && estimate.median <= 40.0);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness regenerating every figure of the paper.

pub use dsc_core as dsc;
pub use pp_analysis as analysis;
pub use pp_model as model;
pub use pp_protocols as protocols;
pub use pp_sim as sim;
