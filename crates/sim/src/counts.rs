//! The count vector both count backends step on.
//!
//! [`CountSimulator`](crate::CountSimulator) and
//! [`BatchedCountSimulator`](crate::BatchedCountSimulator) store a
//! configuration as one counter per state. [`CountVector`] holds those
//! counters, their total, and the **occupied window** `[lo, hi)`: every
//! state outside it is empty, and while the population is nonempty the
//! window is tight (`counts[lo] > 0` and `counts[hi - 1] > 0`).
//!
//! A weighted draw is the CDF inverse — the state `i` with
//! `prefix(i) <= r < prefix(i + 1)` for one uniform word
//! `r ∈ [0, total)` — found in the window only. Its cost is the width of
//! the occupied window, not the width of the state space: the lemmas'
//! 401-state bounded CHVP keeps its values inside a window of 8–15 states
//! for all but the first 16 parallel-time units of Lemma 4.4 (which start
//! 395–401 states wide), and a two-state epidemic reads one or two entries.
//! Skipping the empty states below `lo` leaves the mapping unchanged, so
//! the draws are the ones a scan from index 0 would make.
//!
//! The draw has two forms, chosen by the window width alone. A window of
//! at most 32 states is read whole, and the state is `lo` plus the number
//! of window prefixes `r` has passed: no data-dependent branch, so no
//! mispredicted loop exit per draw. A wider window keeps the early-exit
//! scan, which stops after reading only the prefix up to the drawn state.
//! Both forms compute the same index from the same word.
//!
//! One interaction ([`CountVector::interact`]) draws the initiator, takes
//! it out, draws the responder from the rest, and moves both agents to
//! their transition outputs. For a one-way protocol the responder keeps its
//! state, so its decrement and re-add cancel and are skipped; the final
//! counts, and so the tight window, are the same.
//!
//! The window is kept up to date where counts change, never on a draw:
//! additions widen it, and an update that empties a state at either end
//! tightens it.

use crate::removal::remove_uniform_counts;
use pp_model::FiniteProtocol;
use rand::{Rng, RngExt};
use std::ops::{Deref, Range};

/// Widest occupied window [`CountVector::sample`] reads whole without a
/// data-dependent exit. Wider windows (the first 16 parallel-time units of
/// Lemma 4.4 start 395–401 states wide) pay more for reading every state
/// than for one mispredicted exit, so they keep the early-exit scan.
const NARROW_WINDOW: usize = 32;

/// Per-state counts with their total and occupied window.
///
/// Dereferences to the count slice for reads; every write goes through a
/// method that keeps the total and the window in step.
#[derive(Debug, Clone)]
pub(crate) struct CountVector {
    counts: Vec<u64>,
    total: u64,
    /// Every state below `lo` is empty.
    lo: usize,
    /// Every state at or above `hi` is empty.
    hi: usize,
}

impl CountVector {
    /// Wraps `counts`, computing the total and the tight window.
    pub(crate) fn new(counts: Vec<u64>) -> Self {
        let total = counts.iter().sum();
        let hi = counts.len();
        let mut v = CountVector {
            counts,
            total,
            lo: 0,
            hi,
        };
        v.tighten();
        v
    }

    /// The population: the sum of all counts.
    #[inline]
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// The occupied window `lo..hi`, or `None` for an empty population.
    pub(crate) fn occupied(&self) -> Option<Range<usize>> {
        (self.total > 0).then_some(self.lo..self.hi)
    }

    /// Draws a state weighted by the counts: one RNG word, the CDF inverse
    /// over the occupied window — a branch-free count of the prefixes the
    /// word has passed on a window of at most [`NARROW_WINDOW`] states, an
    /// early-exit scan on a wider one.
    #[inline]
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        debug_assert!(self.total > 0, "cannot draw from an empty population");
        self.locate(rng.random_range(0..self.total))
    }

    /// The state whose CDF interval holds `r < total`.
    #[inline]
    fn locate(&self, mut r: u64) -> usize {
        let window = &self.counts[self.lo..self.hi];
        if window.len() <= NARROW_WINDOW {
            // Prefixes never decrease and the last one is the total, above
            // `r`: the prefixes at or below `r` are exactly those of the
            // states before the drawn one, empty states included.
            let mut prefix = 0;
            let mut passed = 0;
            for &c in window {
                prefix += c;
                passed += usize::from(prefix <= r);
            }
            return self.lo + passed;
        }
        for (i, &c) in window.iter().enumerate() {
            if r < c {
                return self.lo + i;
            }
            r -= c;
        }
        unreachable!("offset beyond the total count")
    }

    /// Simulates one interaction: draws the initiator, takes it out, draws
    /// the responder from the rest (one RNG word each), and moves both to
    /// the states `transition` maps their indices to.
    ///
    /// With `one_way` (a [`Protocol::ONE_WAY`](pp_model::Protocol::ONE_WAY)
    /// protocol) the responder's output is its input, so its decrement and
    /// re-add cancel and are skipped; the counts after the call are the
    /// same either way.
    #[inline]
    pub(crate) fn interact<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        one_way: bool,
        transition: impl FnOnce(usize, usize, &mut R) -> (usize, usize),
    ) {
        let si = self.sample(rng);
        self.decrement(si);
        let sj = self.sample(rng);
        if one_way {
            let (oi, oj) = transition(si, sj, rng);
            debug_assert_eq!(oj, sj, "a one-way transition moved the responder");
            self.add(oi, 1);
        } else {
            self.decrement(sj);
            let (oi, oj) = transition(si, sj, rng);
            self.add(oi, 1);
            self.add(oj, 1);
        }
    }

    /// Takes one agent out of state `i`.
    #[inline]
    pub(crate) fn decrement(&mut self, i: usize) {
        self.counts[i] -= 1;
        self.total -= 1;
        if self.counts[i] == 0 {
            self.tighten();
        }
    }

    /// Adds `count` agents to state `i` (one transition output, or the
    /// adversary's *add* when `i` is the initial state).
    #[inline]
    pub(crate) fn add(&mut self, i: usize, count: u64) {
        if count == 0 {
            return;
        }
        if self.total == 0 {
            (self.lo, self.hi) = (i, i + 1);
        } else {
            self.lo = self.lo.min(i);
            self.hi = self.hi.max(i + 1);
        }
        self.counts[i] += count;
        self.total += count;
    }

    /// Overwrites the count of state `i`.
    pub(crate) fn set(&mut self, i: usize, count: u64) {
        let old = self.counts[i];
        if count >= old {
            self.add(i, count - old);
        } else {
            self.counts[i] = count;
            self.total -= old - count;
            if count == 0 {
                self.tighten();
            }
        }
    }

    /// Removes `count` agents chosen uniformly without replacement: one
    /// multivariate hypergeometric draw over the window
    /// (`remove_uniform_counts`), O(width of the window).
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the total.
    pub(crate) fn remove_uniform<R: Rng + ?Sized>(&mut self, rng: &mut R, count: u64) {
        remove_uniform_counts(rng, &mut self.counts[self.lo..self.hi], self.total, count);
        self.total -= count;
        self.tighten();
    }

    /// Resizes the population to `target`: grows with agents in state
    /// `init` or shrinks by uniform removal.
    pub(crate) fn resize_to<R: Rng + ?Sized>(&mut self, rng: &mut R, target: u64, init: usize) {
        if target > self.total {
            self.add(init, target - self.total);
        } else {
            self.remove_uniform(rng, self.total - target);
        }
    }

    /// Adds `delta[i]` to every count `i` — a batch of interactions, so the
    /// changes sum to zero — or returns `false` and changes nothing if a
    /// count would go negative.
    pub(crate) fn try_apply(&mut self, delta: &[i64]) -> bool {
        debug_assert_eq!(delta.len(), self.counts.len());
        debug_assert_eq!(delta.iter().sum::<i64>(), 0, "a batch conserves agents");
        if delta
            .iter()
            .zip(&self.counts)
            .any(|(&d, &c)| d < 0 && c < d.unsigned_abs())
        {
            return false;
        }
        for (i, (&d, c)) in delta.iter().zip(&mut self.counts).enumerate() {
            *c = c.wrapping_add_signed(d);
            if d > 0 {
                self.lo = self.lo.min(i);
                self.hi = self.hi.max(i + 1);
            }
        }
        self.tighten();
        true
    }

    /// Moves both window ends inwards past empty states.
    fn tighten(&mut self) {
        while self.lo < self.hi && self.counts[self.lo] == 0 {
            self.lo += 1;
        }
        while self.hi > self.lo && self.counts[self.hi - 1] == 0 {
            self.hi -= 1;
        }
    }
}

/// The state indices an interaction of states `si` (initiator) and `sj`
/// (responder) leaves behind.
#[inline]
pub(crate) fn transition<P: FiniteProtocol, R: Rng + ?Sized>(
    protocol: &P,
    si: usize,
    sj: usize,
    rng: &mut R,
) -> (usize, usize) {
    let mut u = protocol.state_from_index(si);
    let mut v = protocol.state_from_index(sj);
    protocol.interact(&mut u, &mut v, rng);
    (protocol.state_index(&u), protocol.state_index(&v))
}

impl Deref for CountVector {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The CDF inverse by a scan from state 0: the mapping the windowed
    /// draw must reproduce.
    fn reference_draw(counts: &[u64], mut r: u64) -> usize {
        for (i, &c) in counts.iter().enumerate() {
            if r < c {
                return i;
            }
            r -= c;
        }
        unreachable!("offset beyond the total count")
    }

    /// The total matches the counts, every state outside the window is
    /// empty, and a nonempty window is tight at both ends.
    fn assert_consistent(v: &CountVector) {
        assert_eq!(v.total, v.counts.iter().sum::<u64>(), "total drifted");
        assert!(v.lo <= v.hi && v.hi <= v.counts.len());
        assert!(
            v.counts[..v.lo].iter().all(|&c| c == 0),
            "occupied below lo"
        );
        assert!(
            v.counts[v.hi..].iter().all(|&c| c == 0),
            "occupied at or above hi"
        );
        if v.total > 0 {
            assert!(v.counts[v.lo] > 0 && v.counts[v.hi - 1] > 0, "loose window");
        }
    }

    /// Draws `draws` states from `v` and from the reference with twin
    /// generators: the states must agree draw for draw, which also pins
    /// one RNG word per draw.
    fn assert_draws_match(v: &CountVector, seed: u64, draws: usize) {
        if v.total == 0 {
            return;
        }
        let mut windowed = SmallRng::seed_from_u64(seed);
        let mut reference = SmallRng::seed_from_u64(seed);
        for _ in 0..draws {
            let r = reference.random_range(0..v.total);
            assert_eq!(v.sample(&mut windowed), reference_draw(&v.counts, r));
        }
    }

    proptest! {
        /// Random count vectors under random mutation sequences: after
        /// every mutation the window is consistent and the windowed draw
        /// equals the scan-from-zero CDF inverse. Vectors of up to 95
        /// states put windows on both sides of the 32-state branch-free
        /// cutoff. The mutations cover `set` below `lo` and above `hi`,
        /// `add`, stepping-style decrement/increment pairs, uniform removal
        /// down to zero and back, and `resize_to` in both directions.
        #[test]
        fn windowed_draw_matches_the_reference_cdf_inverse(
            counts in proptest::collection::vec((0u64..6).prop_map(|k| k.saturating_sub(2) * 7 / 2), 1..96),
            ops in proptest::collection::vec((0u8..7, 0usize..96, 0u64..60), 1..40),
            seed: u64,
        ) {
            let states = counts.len();
            let mut v = CountVector::new(counts);
            let mut rng = SmallRng::seed_from_u64(seed);
            assert_consistent(&v);
            assert_draws_match(&v, seed, 16);
            for (step, &(op, at, amount)) in ops.iter().enumerate() {
                let i = at % states;
                match op {
                    // Below the window (or anywhere, when it is empty).
                    0 => v.set(v.occupied().map_or(i, |w| i % w.start.max(1)), amount),
                    // At or above the window's end.
                    1 => {
                        let from = v.occupied().map_or(0, |w| w.end);
                        if from < states {
                            v.set(from + i % (states - from), amount);
                        }
                    }
                    2 => v.add(i, amount),
                    3 => {
                        if v.total() >= 2 {
                            let si = v.sample(&mut rng);
                            v.decrement(si);
                            let sj = v.sample(&mut rng);
                            v.decrement(sj);
                            v.add(i, 1);
                            v.add((i + amount as usize) % states, 1);
                        }
                    }
                    4 => {
                        let count = amount.min(v.total());
                        v.remove_uniform(&mut rng, count);
                    }
                    5 => {
                        let everyone = v.total();
                        v.remove_uniform(&mut rng, everyone);
                        assert_eq!(v.occupied(), None);
                        v.add(i, amount + 1);
                    }
                    _ => {
                        let target = if amount % 2 == 0 { v.total() / 3 } else { v.total() + amount };
                        v.resize_to(&mut rng, target, i);
                        prop_assert_eq!(v.total(), target);
                    }
                }
                assert_consistent(&v);
                assert_draws_match(&v, seed ^ step as u64, 16);
            }
        }
    }

    /// Every offset of windows exactly 1, 32 and 33 states wide (the
    /// cutoff and its neighbours, interior empty states included) and of
    /// the Lemma 4.4 start vector (one agent at 400, the rest at 0: 401
    /// states) maps to the state the scan from state 0 returns.
    #[test]
    fn draws_on_both_sides_of_the_narrow_cutoff_match_the_reference() {
        let with_window = |lo: usize, width: usize| {
            let mut counts = vec![0u64; 401];
            for (k, c) in counts[lo..lo + width].iter_mut().enumerate() {
                *c = [2, 0, 1, 3, 0][k % 5];
            }
            (counts[lo], counts[lo + width - 1]) = (1, 2);
            counts
        };
        let mut lemma_4_4 = vec![0u64; 401];
        (lemma_4_4[0], lemma_4_4[400]) = ((1 << 14) - 1, 1);
        let cases = [
            (with_window(200, 1), 1),
            (with_window(7, NARROW_WINDOW), NARROW_WINDOW),
            (with_window(7, NARROW_WINDOW + 1), NARROW_WINDOW + 1),
            (lemma_4_4, 401),
        ];
        for (counts, width) in cases {
            let v = CountVector::new(counts);
            assert_eq!(v.occupied().map(|w| w.len()), Some(width));
            for r in 0..v.total() {
                assert_eq!(v.locate(r), reference_draw(&v, r), "width {width}, r = {r}");
            }
        }
    }

    #[test]
    fn a_batch_that_would_overdraw_changes_nothing() {
        let mut v = CountVector::new(vec![0, 3, 2, 0]);
        assert!(!v.try_apply(&[0, -4, 1, 3]));
        assert_eq!(&v[..], &[0, 3, 2, 0]);
        assert!(v.try_apply(&[1, -3, -2, 4]));
        assert_eq!(&v[..], &[1, 0, 0, 4]);
        assert_eq!(v.occupied(), Some(0..4));
        assert_consistent(&v);
        assert!(v.try_apply(&[-1, 0, 1, 0]));
        assert_eq!(v.occupied(), Some(2..4));
        assert_consistent(&v);
    }
}
