//! Configurations: the population of agent states.
//!
//! A configuration `C : V → Q` maps each agent to a state (paper §2). At the
//! simulation layer a configuration is a dense vector of states addressed by
//! index; [`Configuration::pair_mut`] provides the safe simultaneous mutable
//! access to two distinct agents that every interaction needs.

use crate::protocol::Protocol;

/// A population of agent states.
///
/// # Examples
///
/// ```
/// use pp_model::Configuration;
///
/// let mut config = Configuration::uniform(4, 0u64);
/// let (u, v) = config.pair_mut(0, 3);
/// *u = 9;
/// *v = 5;
/// assert_eq!(config.as_slice(), &[9, 0, 0, 5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Configuration<S> {
    states: Vec<S>,
}

impl<S> Configuration<S> {
    /// Creates a configuration of `n` agents, all in state `state`.
    pub fn uniform(n: usize, state: S) -> Self
    where
        S: Clone,
    {
        Configuration {
            states: vec![state; n],
        }
    }

    /// Creates a configuration of `n` agents in the protocol's initial state.
    pub fn fresh<P>(protocol: &P, n: usize) -> Self
    where
        P: Protocol<State = S>,
        S: Clone,
    {
        Self::uniform(n, protocol.initial_state())
    }

    /// Creates a configuration where agent `i` starts in `f(i)`.
    ///
    /// Used for the paper's *arbitrary initial configuration* experiments
    /// (loose stabilization starts from any configuration).
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> S) -> Self {
        Configuration {
            states: (0..n).map(&mut f).collect(),
        }
    }

    /// Wraps an explicit state vector.
    pub fn from_states(states: Vec<S>) -> Self {
        Configuration { states }
    }

    /// Number of agents `n`.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state of agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> &S {
        &self.states[i]
    }

    /// Mutable access to the state of agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get_mut(&mut self, i: usize) -> &mut S {
        &mut self.states[i]
    }

    /// Simultaneous mutable access to two *distinct* agents.
    ///
    /// The split branches on index order (`i < j`). For a uniformly random
    /// pair that branch is a coin flip, so a hot loop calling this per
    /// interaction pays a misprediction about every other call; when only
    /// `i` is written, reading `j` by value avoids it.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of bounds.
    pub fn pair_mut(&mut self, i: usize, j: usize) -> (&mut S, &mut S) {
        assert_ne!(i, j, "an agent cannot interact with itself");
        if i < j {
            let (left, right) = self.states.split_at_mut(j);
            (&mut left[i], &mut right[0])
        } else {
            let (left, right) = self.states.split_at_mut(i);
            (&mut right[0], &mut left[j])
        }
    }

    /// Adds an agent in state `state` (the dynamic adversary's *add*).
    pub fn push(&mut self, state: S) {
        self.states.push(state);
    }

    /// Removes agent `i`, returning its state; the last agent takes index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn swap_remove(&mut self, i: usize) -> S {
        self.states.swap_remove(i)
    }

    /// Iterates over all agent states.
    pub fn iter(&self) -> std::slice::Iter<'_, S> {
        self.states.iter()
    }

    /// The states as a slice.
    pub fn as_slice(&self) -> &[S] {
        &self.states
    }

    /// Consumes the configuration, returning the state vector.
    pub fn into_states(self) -> Vec<S> {
        self.states
    }

    /// Counts agents satisfying `pred`.
    pub fn count_where(&self, pred: impl Fn(&S) -> bool) -> usize {
        self.states.iter().filter(|s| pred(s)).count()
    }
}

impl<S> FromIterator<S> for Configuration<S> {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        Configuration {
            states: iter.into_iter().collect(),
        }
    }
}

impl<S> Extend<S> for Configuration<S> {
    fn extend<T: IntoIterator<Item = S>>(&mut self, iter: T) {
        self.states.extend(iter);
    }
}

impl<'a, S> IntoIterator for &'a Configuration<S> {
    type Item = &'a S;
    type IntoIter = std::slice::Iter<'a, S>;
    fn into_iter(self) -> Self::IntoIter {
        self.states.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_fills_every_agent() {
        let c = Configuration::uniform(5, 7u32);
        assert_eq!(c.len(), 5);
        assert!(c.iter().all(|&s| s == 7));
    }

    #[test]
    fn from_fn_indexes_agents() {
        let c = Configuration::from_fn(4, |i| i * 2);
        assert_eq!(c.as_slice(), &[0, 2, 4, 6]);
    }

    #[test]
    fn pair_mut_both_orders() {
        let mut c = Configuration::from_states(vec![1, 2, 3]);
        {
            let (u, v) = c.pair_mut(2, 0);
            assert_eq!((*u, *v), (3, 1));
            *u = 30;
            *v = 10;
        }
        assert_eq!(c.as_slice(), &[10, 2, 30]);
    }

    #[test]
    #[should_panic(expected = "cannot interact with itself")]
    fn pair_mut_rejects_self_interaction() {
        let mut c = Configuration::uniform(3, 0u8);
        let _ = c.pair_mut(1, 1);
    }

    #[test]
    fn swap_remove_keeps_population_dense() {
        let mut c = Configuration::from_states(vec![10, 20, 30, 40]);
        let removed = c.swap_remove(1);
        assert_eq!(removed, 20);
        assert_eq!(c.as_slice(), &[10, 40, 30]);
    }

    #[test]
    fn count_where_counts() {
        let c = Configuration::from_states(vec![1, 5, 5, 2]);
        assert_eq!(c.count_where(|&s| s == 5), 2);
    }

    #[test]
    fn collects_from_iterator() {
        let c: Configuration<u8> = (0..3).collect();
        assert_eq!(c.as_slice(), &[0, 1, 2]);
    }

    proptest! {
        /// `pair_mut` returns references to exactly the requested agents,
        /// for any pair of distinct indices.
        #[test]
        fn pair_mut_addresses_correct_agents(n in 2usize..50, a in 0usize..50, b in 0usize..50) {
            let i = a % n;
            let j = b % n;
            prop_assume!(i != j);
            let mut c = Configuration::from_fn(n, |x| x as u64);
            let (u, v) = c.pair_mut(i, j);
            prop_assert_eq!(*u, i as u64);
            prop_assert_eq!(*v, j as u64);
            *u = 1_000;
            *v = 2_000;
            prop_assert_eq!(*c.get(i), 1_000);
            prop_assert_eq!(*c.get(j), 2_000);
            for x in 0..n {
                if x != i && x != j {
                    prop_assert_eq!(*c.get(x), x as u64);
                }
            }
        }
    }
}
