//! Protocol traits: transition functions and the capabilities layered on top.
//!
//! The central trait is [`Protocol`]. The remaining traits are optional
//! capabilities a protocol may advertise:
//!
//! * [`SizeEstimator`] — agents report an estimate of `log2 n` (all counting
//!   protocols in this workspace).
//! * [`TickProtocol`] — agents emit phase-clock ticks; in the paper's
//!   Theorem 2.2 an agent "receives a signal whenever the agent resets".
//! * [`FiniteProtocol`] — the state space is finite and enumerable, which
//!   enables the count-based simulator (no per-agent array).

use rand::Rng;
use std::fmt::Debug;

/// A population protocol.
///
/// A protocol is a *value* (it may carry parameters such as the paper's
/// `τ1, τ2, τ3, τ′, k`), and its transition function is a method so that all
/// parameterization lives in one place.
///
/// # Interaction orientation
///
/// [`Protocol::interact`] receives the ordered pair `(u, v)` drawn by the
/// scheduler: `u` is the *initiator* and `v` the *responder*. The paper's
/// protocols are one-way — they only mutate `u` — but two-way baselines
/// (e.g. BKR's load balancing) mutate both, so both are handed out mutably.
///
/// # Randomness
///
/// The paper (like Doty & Eftekhari 2022) assumes agents can draw geometric
/// random variables; `interact` therefore receives the scheduler's RNG.
///
/// The RNG parameter is generic (`R: Rng + ?Sized`) so that simulator hot
/// loops monomorphize the whole transition over the concrete generator —
/// no vtable call per coin flip. `?Sized` keeps `&mut dyn Rng` callers
/// working where dynamism is genuinely wanted; the price is that `Protocol`
/// itself is not dyn-compatible (simulators are generic over `P` anyway).
///
/// # Examples
///
/// A one-way max epidemic (Lemma 4.2 of the paper):
///
/// ```
/// use pp_model::Protocol;
/// use rand::Rng;
///
/// struct MaxEpidemic;
///
/// impl Protocol for MaxEpidemic {
///     type State = u64;
///     fn initial_state(&self) -> u64 { 0 }
///     fn interact<R: Rng + ?Sized>(&self, u: &mut u64, v: &mut u64, _rng: &mut R) {
///         *u = (*u).max(*v);
///     }
/// }
///
/// let p = MaxEpidemic;
/// let (mut a, mut b) = (1, 7);
/// p.interact(&mut a, &mut b, &mut rand::rng());
/// assert_eq!((a, b), (7, 7));
/// ```
pub trait Protocol {
    /// The per-agent state.
    type State: Clone + Debug + PartialEq;

    /// Asserts that [`Protocol::interact`] never mutates the responder `v`.
    ///
    /// The paper's protocols are all one-way; observers exploit the claim
    /// to skip responder-side bookkeeping (for the recovery observer, half
    /// of its per-interaction work), and the agent-array simulator's
    /// gather/scatter pipeline exploits it twice more: responder slots are
    /// neither hazard-marked (responder-responder repetitions within a
    /// chunk are read-read, not conflicts) nor scattered back (half the
    /// write traffic). The default `false` is always safe; setting `true`
    /// for a protocol that does mutate `v` silently desynchronizes
    /// incremental metrics *and* drops the responder's writes in gathered
    /// chunks, so only set it where a test pins the one-way property
    /// (e.g. `dsc_core`'s `responder_is_never_mutated`).
    const ONE_WAY: bool = false;

    /// The state of a newly added agent.
    ///
    /// In the dynamic model of Doty & Eftekhari 2022 (adopted by the paper),
    /// the adversary adds agents *in a predefined state*; this is that state.
    fn initial_state(&self) -> Self::State;

    /// Applies one interaction to the ordered pair `(u, v)`.
    ///
    /// `u` is the initiator and `v` the responder; one-way protocols only
    /// mutate `u`.
    fn interact<R: Rng + ?Sized>(&self, u: &mut Self::State, v: &mut Self::State, rng: &mut R);
}

/// A protocol whose agents report an estimate of `log2 n`.
///
/// The paper's protocol reports `max{u.max, u.lastMax}` (descaled by the
/// overestimation factor when one is configured); static baselines report
/// their own estimates. Agents that currently hold no estimate (e.g. a
/// baseline that has not yet sampled) return `None`.
pub trait SizeEstimator: Protocol {
    /// The agent-local estimate of `log2 n`, if the agent reports one.
    fn estimate_log2(&self, state: &Self::State) -> Option<f64>;

    /// A quantized estimate used for O(1)-per-interaction histogram metrics.
    ///
    /// Buckets must be small non-negative integers; the default rounds
    /// [`SizeEstimator::estimate_log2`] to the nearest integer. Protocols
    /// whose estimates are integral (all protocols in this workspace under
    /// the empirical configuration) lose nothing to quantization.
    fn estimate_bucket(&self, state: &Self::State) -> Option<u32> {
        self.estimate_log2(state)
            .map(|e| e.round().clamp(0.0, u32::MAX as f64) as u32)
    }
}

/// A protocol that emits phase-clock ticks.
///
/// The paper defines (§2.2): *"We say that an agent receives a signal
/// whenever the agent resets."* Implementations expose a monotone per-agent
/// tick counter so that observers can detect ticks by comparing the counter
/// before and after an interaction; the counter is simulation
/// instrumentation and is excluded from space accounting.
pub trait TickProtocol: Protocol {
    /// Monotone count of ticks this agent has received so far.
    fn tick_count(&self, state: &Self::State) -> u64;
}

/// A protocol whose states can be adversarially corrupted for fault
/// injection.
///
/// Loose stabilization (Doty & Eftekhari, arXiv 2202.12864) demands
/// recovery from *any* reachable configuration, so a fault injector needs
/// a way to scramble an agent's state mid-run. Implementations return a
/// replacement state drawn from the protocol's own plausible state space —
/// randomized resets and field bit-flips, not arbitrary bit patterns —
/// so the corrupted configuration stays *reachable* and the measured
/// recovery time reflects the loose-stabilization bound rather than the
/// magnitude of an impossible planted value.
pub trait Corruptible: Protocol {
    /// Returns a corrupted replacement for `state`.
    ///
    /// Must be a pure function of `state` and the words drawn from `rng`
    /// (no global state), so fault injection stays bit-identical across
    /// thread counts.
    fn corrupt_state<R: Rng + ?Sized>(&self, state: &Self::State, rng: &mut R) -> Self::State;
}

/// Marker for protocols whose transition function is deterministic: it
/// makes no use of the RNG passed to [`Protocol::interact`].
///
/// Deterministic finite-state protocols additionally admit event-jump
/// simulation (`pp-sim`'s `JumpSimulator`), which skips no-op interactions
/// in closed form. Implementing this trait asserts determinism; the jump
/// simulator spot-checks the claim at construction.
pub trait DeterministicProtocol: FiniteProtocol {}

/// A protocol with a finite, enumerable state space.
///
/// Enables the count-based simulator, which stores one counter per state
/// instead of one state per agent — exact and fast for substrates like the
/// binary infection epidemic or bounded CHVP at very large `n`.
///
/// Implementations must guarantee that `state_index` and `state_from_index`
/// are inverse bijections on `0..num_states()` covering every state
/// reachable from the initial configuration.
pub trait FiniteProtocol: Protocol {
    /// Number of states; valid indices are `0..num_states()`.
    fn num_states(&self) -> usize;

    /// Index of `state` in `0..num_states()`.
    fn state_index(&self, state: &Self::State) -> usize;

    /// The state with the given index.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `index >= num_states()`.
    fn state_from_index(&self, index: usize) -> Self::State;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A protocol fixture with a two-value state space.
    struct Or;

    impl Protocol for Or {
        type State = bool;
        fn initial_state(&self) -> bool {
            false
        }
        fn interact<R: Rng + ?Sized>(&self, u: &mut bool, v: &mut bool, _rng: &mut R) {
            *u = *u || *v;
        }
    }

    impl SizeEstimator for Or {
        fn estimate_log2(&self, state: &bool) -> Option<f64> {
            state.then_some(1.0)
        }
    }

    impl FiniteProtocol for Or {
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

    #[test]
    fn one_way_interaction_only_mutates_initiator() {
        let p = Or;
        let (mut u, mut v) = (false, true);
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert!(u);
        assert!(v);
        let (mut u, mut v) = (true, false);
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert!(u);
        assert!(!v, "responder must be untouched by a one-way protocol");
    }

    #[test]
    fn default_bucket_rounds_estimate() {
        let p = Or;
        assert_eq!(p.estimate_bucket(&true), Some(1));
        assert_eq!(p.estimate_bucket(&false), None);
    }

    #[test]
    fn finite_indexing_roundtrips() {
        let p = Or;
        for i in 0..p.num_states() {
            assert_eq!(p.state_index(&p.state_from_index(i)), i);
        }
    }
}
