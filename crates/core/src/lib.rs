//! # dsc-core — Dynamic Size Counting in the Population Protocol Model
//!
//! The primary contribution of Kaaser & Lohmann (PODC 2024,
//! [arXiv:2405.05137](https://arxiv.org/abs/2405.05137)), implemented from
//! scratch:
//!
//! * [`DynamicSizeCounting`] — Algorithm 2: the **uniform,
//!   loosely-stabilizing size counting protocol**. From any initial
//!   configuration the agents converge in `O(log n̂ + log n)` parallel time
//!   to estimates that are constant-factor approximations of `log n`, hold
//!   them for `Θ(n^{k−1} log n)` time w.h.p. (Theorem 2.1), and keep doing
//!   so when an adversary adds or removes agents.
//! * [`SimplifiedDynamicSizeCounting`] — Algorithm 1: the two-variable
//!   pedagogical version, kept runnable for ablations.
//! * [`AveragedDsc`] — a prototype of the §6 open question: Algorithm 2 as
//!   the clock plus `A` averaged estimate slots.
//! * [`Phase`] / [`clock`] — the three-phase clock face (exchange → hold →
//!   reset) and the phase census of a population, its synchrony gauge
//!   (Theorem 2.2: every reset is a clock signal; bursts of `Θ(n log n)`
//!   interactions).
//! * [`DscConfig`] — both the paper's empirical constants (§5) and the
//!   proof constants of Lemma 4.5.
//!
//! ## How the protocol works (paper §2.1)
//!
//! Agents estimate `log n` as the maximum of Θ(n) geometric random
//! variables (Lemma 4.1), spread epidemically. To stay correct when the
//! population *changes*, the estimate must be re-derived periodically: a
//! CHVP-synchronized countdown (`time`) cycles every agent through three
//! phases — **exchange** (spread the max), **hold** (separator), **reset**
//! (launch the next round) — and each wrap-around discards the old maximum
//! and samples a fresh one. A trailing estimate (`lastMax`) keeps the phase
//! lengths stable across rounds, and a per-agent interaction counter forces
//! "backup" samples if an agent is starved of resets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod averaged;
pub mod clock;
pub mod config;
pub mod full;
pub mod phase;
pub mod simplified;
pub mod state;

pub use averaged::{AveragedDsc, AveragedState, SlotVec, MAX_SLOTS};
pub use clock::PhaseCensus;
pub use config::{ConfigError, DscConfig};
pub use full::DynamicSizeCounting;
pub use phase::Phase;
pub use simplified::SimplifiedDynamicSizeCounting;
pub use state::DscState;
