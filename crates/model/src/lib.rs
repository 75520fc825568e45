//! # pp-model — the population protocol model
//!
//! Core abstractions shared by every crate in this workspace:
//!
//! * [`protocol::Protocol`] — a population protocol: a state type, an initial
//!   state for newly added agents, and a pairwise transition function applied
//!   to an ordered (initiator, responder) pair of agents.
//! * [`protocol::SizeEstimator`] — protocols whose agents report an estimate
//!   of `log2 n`.
//! * [`protocol::FiniteProtocol`] — protocols with an enumerable state space,
//!   simulatable by the count-based simulator without an agent array.
//! * [`protocol::TickProtocol`] — protocols that emit phase-clock ticks
//!   (the paper's Theorem 2.2 "signals").
//! * [`config::Configuration`] — a population of agent states with safe
//!   simultaneous mutable access to an interacting pair.
//! * [`scheduler`] — the uniformly random pair draw of the model
//!   ([`random_ordered_pair`]), which the agent-array simulator steps through.
//! * [`grv`] — geometrically distributed random variables (`Geom(1/2)`),
//!   the paper's Algorithm 3 `GRV(k)`, and distribution math for Lemma 4.1.
//! * [`memory`] — space accounting in bits (the metric of Theorem 2.1).
//! * [`inline`] — fixed-capacity inline vectors for payload states, so
//!   agent arrays stay contiguous and stepping never allocates.
//!
//! ## Model recap
//!
//! A population protocol runs on `n` anonymous agents. In each discrete step
//! the scheduler draws an ordered pair of distinct agents uniformly at random;
//! the pair interacts and updates its states by the protocol's transition
//! function. One unit of *parallel time* equals `n` interactions.
//!
//! The paper's protocols are *one-way*: only the initiator `u` updates its
//! state based on the responder `v`'s state. The [`protocol::Protocol`] trait
//! hands out both states mutably so that two-way baselines (BKR's load
//! balancing) fit the same interface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod grv;
pub mod inline;
pub mod memory;
pub mod protocol;
pub mod scheduler;

pub use config::Configuration;
pub use grv::{geometric, grv_max};
pub use inline::InlineVec;
pub use memory::{bit_len, MemoryFootprint};
pub use protocol::{
    Corruptible, DeterministicProtocol, FiniteProtocol, Protocol, SizeEstimator, TickProtocol,
};
pub use scheduler::{
    fill_random_ordered_pairs, ordered_pair_from_draw, ordered_pair_span, random_ordered_pair,
};
