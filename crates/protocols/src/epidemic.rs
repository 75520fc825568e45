//! Epidemic protocols (paper §4.2, Lemma 4.2).
//!
//! In an epidemic, "agents store a single value and adopt the maximum of any
//! agent's value they encounter": `(u, v) → (max{u, v}, v)`. Starting from a
//! single agent in state 1, every agent is infected within `O(n log n)`
//! interactions w.h.p.; Lemma 4.2 gives the explicit bound
//! `t ≤ 4(k+1)·n·log n` with failure probability `O(n^{-k})`.
//!
//! Epidemics are the transport layer of the paper's protocol: the maximum
//! GRV, the `lastMax` trailing estimate, and the reset→exchange transition
//! all spread epidemically.

use pp_model::{Corruptible, FiniteProtocol, Protocol, SizeEstimator};
use rand::{Rng, RngExt};

/// One-way max epidemic over unbounded `u64` values.
///
/// # Examples
///
/// ```
/// use pp_model::Protocol;
/// use pp_protocols::MaxEpidemic;
///
/// let p = MaxEpidemic::new();
/// let (mut u, mut v) = (3u64, 8u64);
/// p.interact(&mut u, &mut v, &mut rand::rng());
/// assert_eq!((u, v), (8, 8));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxEpidemic;

impl MaxEpidemic {
    /// Creates the max epidemic protocol.
    pub fn new() -> Self {
        MaxEpidemic
    }
}

impl Protocol for MaxEpidemic {
    // One-way (paper model): `interact` never mutates the responder.
    const ONE_WAY: bool = true;

    type State = u64;

    fn initial_state(&self) -> u64 {
        0
    }

    fn interact<R: Rng + ?Sized>(&self, u: &mut u64, v: &mut u64, _rng: &mut R) {
        *u = (*u).max(*v);
    }
}

impl SizeEstimator for MaxEpidemic {
    /// The spread value read as a `log2 n` estimate (what the paper's
    /// exchange phase does with the maximum GRV). Zero means "nothing
    /// received yet".
    fn estimate_log2(&self, state: &u64) -> Option<f64> {
        (*state > 0).then_some(*state as f64)
    }
}

/// Binary infection epidemic: `(u, v) → (u ∨ v, v)`.
///
/// The two-state special case used throughout the paper's proofs ("the
/// infection process is akin to an epidemic"); its small state space makes
/// it the canonical cross-check between the agent-array and count-based
/// simulators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Infection;

impl Infection {
    /// Creates the infection protocol.
    pub fn new() -> Self {
        Infection
    }
}

impl Protocol for Infection {
    // One-way (paper model): `interact` never mutates the responder.
    const ONE_WAY: bool = true;

    type State = bool;

    fn initial_state(&self) -> bool {
        false
    }

    fn interact<R: Rng + ?Sized>(&self, u: &mut bool, v: &mut bool, _rng: &mut R) {
        *u = *u || *v;
    }
}

impl SizeEstimator for Infection {
    /// Infected agents "report" 1, susceptible agents report nothing —
    /// snapshot summaries of a sweep then expose the infected count via
    /// `without_estimate` (Lemma 4.2 reads epidemic completion off it).
    fn estimate_log2(&self, state: &bool) -> Option<f64> {
        state.then_some(1.0)
    }
}

impl Corruptible for Infection {
    /// A corrupted infection bit is simply re-randomized — both values are
    /// reachable, so any corruption keeps the configuration valid.
    fn corrupt_state<R: Rng + ?Sized>(&self, _state: &bool, rng: &mut R) -> bool {
        rng.random_bool(0.5)
    }
}

/// Event-jump simulable: binary infection is deterministic.
impl pp_model::DeterministicProtocol for Infection {}

impl FiniteProtocol for Infection {
    fn num_states(&self) -> usize {
        2
    }

    fn state_index(&self, state: &bool) -> usize {
        usize::from(*state)
    }

    fn state_from_index(&self, index: usize) -> bool {
        index == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_sim::{CountSimulator, Simulator};

    #[test]
    fn max_epidemic_is_monotone_one_way() {
        let p = MaxEpidemic::new();
        let (mut u, mut v) = (9u64, 2u64);
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert_eq!((u, v), (9, 2), "responder never changes");
    }

    #[test]
    fn estimate_is_value_or_none() {
        let p = MaxEpidemic::new();
        assert_eq!(p.estimate_log2(&0), None);
        assert_eq!(p.estimate_log2(&12), Some(12.0));
    }

    /// Lemma 4.2 (statistical): with k = 1, an epidemic on n = 1024 agents
    /// completes within 4(k+1)·log2(n) = 80 parallel time.
    #[test]
    fn lemma_4_2_epidemic_completion_time() {
        let n = 1024;
        let budget = 4.0 * 2.0 * (n as f64).log2();
        for seed in 0..5 {
            let mut sim = Simulator::with_seed(MaxEpidemic::new(), n, seed);
            *sim.state_mut(0) = 1;
            sim.run_parallel_time(budget);
            assert!(
                sim.states().iter().all(|&s| s == 1),
                "seed {seed}: epidemic incomplete after {budget} time"
            );
        }
    }

    #[test]
    fn infection_on_count_simulator_completes() {
        let mut sim = CountSimulator::from_counts(Infection::new(), vec![99_999, 1], 3);
        sim.run_parallel_time(60.0);
        assert_eq!(sim.count(1), 100_000);
    }
}
