//! # pp-protocols — substrate and baseline population protocols
//!
//! The protocols the paper builds on or compares against, implemented from
//! scratch on the [`pp_model`] traits. Each one feeds a registry experiment
//! or is the subject of a contract test:
//!
//! ## Substrates (the paper's toolbox, §4.2)
//!
//! * [`epidemic`] — one-way max epidemic and binary infection (Lemma 4.2).
//! * [`chvp`] — bounded Countdown with Higher Value Propagation and its CLVP
//!   dual (Lemmas 4.3/4.4, Appendix C): the paper's timer.
//!
//! ## Baselines (what the paper compares against)
//!
//! * [`counting_static`] — static max-GRV counting; breaks when the
//!   population shrinks (paper §1.2).
//! * [`counting_de19`] — the Doty–Eftekhari PODC 2019 static counter that
//!   averages `A` maxima for an additive-error estimate.
//! * [`counting_de22`] — the Doty–Eftekhari SAND 2022 dynamic counter:
//!   first-missing-value detection; more memory than the paper's protocol.
//! * [`counting_bkr`] — the Berenbrink–Kaaser–Radzik PODC 2019 exact
//!   counter: leader + token doubling + load balancing; stalls when the
//!   leader is removed.
//! * [`clock_modm`] — a non-uniform leaderless mod-m phase clock (the
//!   construction the paper's uniform clock replaces).
//!
//! ## Adversaries
//!
//! * [`byzantine`] — a wrapper pinning `k` agents to a lying state for the
//!   fault-injection experiments (robustness layer).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
pub mod chvp;
pub mod clock_modm;
pub mod counting_bkr;
pub mod counting_de19;
pub mod counting_de22;
pub mod counting_static;
pub mod epidemic;

pub use byzantine::{Byzantine, ByzantineState};
pub use chvp::{BoundedChvp, Clvp};
pub use clock_modm::{ModClockState, ModMClock};
pub use counting_bkr::{BkrCounting, BkrRole, BkrState};
pub use counting_de19::{De19Averaging, De19State, DE19_MAX_SLOTS};
pub use counting_de22::{De22Counting, De22State, DE22_MAX_VALUES};
pub use counting_static::{StaticGrvCounting, StaticGrvState};
pub use epidemic::{Infection, MaxEpidemic};
