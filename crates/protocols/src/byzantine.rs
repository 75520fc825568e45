//! Byzantine agents: a protocol wrapper pinning `k` agents to a lie.
//!
//! The loose-stabilization model (Doty & Eftekhari, arXiv 2202.12864)
//! quantifies recovery from corrupted configurations; a *Byzantine* agent
//! is the persistent version of that adversary — it exposes a frozen,
//! lying state to every interaction partner and never updates its own.
//! [`Byzantine`] wraps any inner protocol so that a population can carry a
//! mix of honest and lying agents: honest pairs run the inner transition
//! unchanged, while a liar's state is visible to (and can poison) honest
//! initiators but is itself immutable.
//!
//! Liars report no estimate of their own ([`SizeEstimator`] returns
//! `None` for them), so recovery metrics measure what the *honest* agents
//! converge to — exactly the quantity a deployment cares about when some
//! fraction of its nodes misbehave.

use pp_model::{Corruptible, Protocol, SizeEstimator, TickProtocol};
use rand::Rng;

/// An agent state in a population with Byzantine members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineState<S> {
    /// A correct agent running the inner protocol.
    Honest(S),
    /// A lying agent: its state is shown to partners but never mutated.
    Liar(S),
}

impl<S> ByzantineState<S> {
    /// The wrapped inner state.
    pub fn inner(&self) -> &S {
        match self {
            ByzantineState::Honest(s) | ByzantineState::Liar(s) => s,
        }
    }
}

/// Wraps a protocol so the population may contain pinned lying agents.
///
/// # Examples
///
/// ```
/// use pp_model::Protocol;
/// use pp_protocols::{Byzantine, ByzantineState, MaxEpidemic};
///
/// let p = Byzantine::new(MaxEpidemic::new());
/// let mut honest = ByzantineState::Honest(3u64);
/// let mut liar = ByzantineState::Liar(50u64);
/// p.interact(&mut honest, &mut liar, &mut rand::rng());
/// assert_eq!(honest, ByzantineState::Honest(50), "the lie spreads");
/// p.interact(&mut liar, &mut honest, &mut rand::rng());
/// assert_eq!(liar, ByzantineState::Liar(50), "the liar never changes");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Byzantine<P> {
    inner: P,
}

impl<P> Byzantine<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Byzantine { inner }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Protocol> Protocol for Byzantine<P> {
    type State = ByzantineState<P::State>;

    // Liars are never mutated even as responders, so the wrapper is
    // one-way exactly when the inner protocol is.
    const ONE_WAY: bool = P::ONE_WAY;

    fn initial_state(&self) -> Self::State {
        ByzantineState::Honest(self.inner.initial_state())
    }

    fn interact<R: Rng + ?Sized>(&self, u: &mut Self::State, v: &mut Self::State, rng: &mut R) {
        use ByzantineState::{Honest, Liar};
        match (u, v) {
            (Honest(su), Honest(sv)) => self.inner.interact(su, sv, rng),
            (Honest(su), Liar(sv)) => {
                // The lie is visible; a clone shields the liar from the
                // inner transition's responder writes.
                let mut shield = sv.clone();
                self.inner.interact(su, &mut shield, rng);
            }
            (Liar(su), Honest(sv)) => {
                // An honest responder may still be written by a two-way
                // inner protocol; the liar's own state is shielded.
                let mut shield = su.clone();
                self.inner.interact(&mut shield, sv, rng);
            }
            (Liar(_), Liar(_)) => {
                // Two liars exchange nothing observable.
            }
        }
    }
}

impl<P: SizeEstimator> SizeEstimator for Byzantine<P> {
    /// Honest agents report the inner estimate; liars report nothing, so
    /// recovery metrics track the honest population only.
    fn estimate_log2(&self, state: &Self::State) -> Option<f64> {
        match state {
            ByzantineState::Honest(s) => self.inner.estimate_log2(s),
            ByzantineState::Liar(_) => None,
        }
    }

    fn estimate_bucket(&self, state: &Self::State) -> Option<u32> {
        match state {
            ByzantineState::Honest(s) => self.inner.estimate_bucket(s),
            ByzantineState::Liar(_) => None,
        }
    }
}

impl<P: TickProtocol> TickProtocol for Byzantine<P> {
    fn tick_count(&self, state: &Self::State) -> u64 {
        self.inner.tick_count(state.inner())
    }
}

impl<P: Corruptible> Corruptible for Byzantine<P> {
    /// Honest agents corrupt through the inner protocol; a liar is already
    /// adversarial and stays pinned.
    fn corrupt_state<R: Rng + ?Sized>(&self, state: &Self::State, rng: &mut R) -> Self::State {
        match state {
            ByzantineState::Honest(s) => ByzantineState::Honest(self.inner.corrupt_state(s, rng)),
            ByzantineState::Liar(s) => ByzantineState::Liar(s.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MaxEpidemic;

    #[test]
    fn honest_pair_runs_the_inner_protocol() {
        let p = Byzantine::new(MaxEpidemic::new());
        let mut u = ByzantineState::Honest(2u64);
        let mut v = ByzantineState::Honest(9u64);
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert_eq!(u, ByzantineState::Honest(9));
        assert_eq!(v, ByzantineState::Honest(9));
    }

    #[test]
    fn liar_poisons_but_never_learns() {
        let p = Byzantine::new(MaxEpidemic::new());
        let mut honest = ByzantineState::Honest(100u64);
        let mut liar = ByzantineState::Liar(7u64);
        // Liar as initiator: would adopt 100 if honest — must not.
        p.interact(&mut liar, &mut honest, &mut rand::rng());
        assert_eq!(liar, ByzantineState::Liar(7));
        assert_eq!(honest, ByzantineState::Honest(100));
        // Honest initiator adopts the liar's value.
        let mut honest = ByzantineState::Honest(3u64);
        p.interact(&mut honest, &mut liar, &mut rand::rng());
        assert_eq!(honest, ByzantineState::Honest(7));
    }

    #[test]
    fn liars_report_no_estimate() {
        let p = Byzantine::new(MaxEpidemic::new());
        assert_eq!(p.estimate_log2(&ByzantineState::Liar(42)), None);
        assert_eq!(p.estimate_bucket(&ByzantineState::Liar(42)), None);
        assert_eq!(p.estimate_log2(&ByzantineState::Honest(42)), Some(42.0));
    }

    #[test]
    fn two_liars_change_nothing() {
        let p = Byzantine::new(MaxEpidemic::new());
        let mut a = ByzantineState::Liar(1u64);
        let mut b = ByzantineState::Liar(2u64);
        p.interact(&mut a, &mut b, &mut rand::rng());
        assert_eq!((a, b), (ByzantineState::Liar(1), ByzantineState::Liar(2)));
    }
}
