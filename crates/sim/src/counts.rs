//! The count vector the count backends step on.
//!
//! [`CountSimulator`](crate::CountSimulator),
//! [`BatchedCountSimulator`](crate::BatchedCountSimulator) and
//! [`JumpSimulator`](crate::JumpSimulator) store a
//! configuration as one counter per state. [`CountVector`] holds those
//! counters, their total, the sum of every aligned block of [`BLOCK`]
//! states, and the **occupied window** `[lo, hi)`: every state outside it
//! is empty, and while the population is nonempty the window is tight
//! (`counts[lo] > 0` and `counts[hi - 1] > 0`).
//!
//! A weighted draw is the CDF inverse — the state `i` with
//! `prefix(i) <= r < prefix(i + 1)` for one uniform word
//! `r ∈ [0, total)` — found in the window only. The lemmas' 401-state
//! bounded CHVP keeps its values inside a window of 8–15 states for most
//! of its run, but Lemma 4.4 starts 401 states wide and stays wider than
//! 32 states for its first tens of parallel-time units; a two-state
//! epidemic reads one or two entries. Skipping the empty states below `lo`
//! leaves the mapping unchanged, so the draws are the ones a scan from
//! index 0 would make.
//!
//! The draw has two forms, chosen by the window width alone. On a window
//! of at most [`NARROW_WINDOW`] states the drawn state is `lo` plus the
//! number of window prefixes at or below `r`, counted with no
//! data-dependent branch. A wider window is searched by blocks: whole
//! blocks are skipped by their sums, then the prefixes within one block
//! are counted the same way. Both forms compute the same index from the
//! same word.
//!
//! One interaction ([`CountVector::interact`]) draws the initiator from
//! word `r1 ∈ [0, N)` and the responder from word `r2 ∈ [0, N − 1)`, the
//! CDF inverse of the counts with the initiator taken out. Number the
//! agents by ticket, `0..N` in state order: the rest hold the tickets
//! without `r1`, in the same order, so the responder holds ticket
//! `r2 + 1` if `r2 >= r1` and ticket `r2` otherwise, and both draws read
//! the same unchanged counts. On a narrow window one pass counts the
//! prefixes at or below both tickets; a wide window locates each through
//! the block sums. Nothing is written between the two draws. Then each
//! agent moves to its transition output; for a one-way protocol the
//! responder's output is its input, so it is not moved at all. A move to
//! the agent's own state adds and takes away one agent there, which leaves
//! the counts as they were, so it is not branched around: for CHVP that
//! branch is hard to predict.
//!
//! The window and the block sums are kept up to date where counts change,
//! never on a draw: additions widen the window, and an update that empties
//! a state at either end tightens it.
//!
//! The population is a `u64`: building or growing a vector past
//! `u64::MAX` agents panics rather than wrapping.

use crate::removal::remove_uniform_counts;
use pp_model::FiniteProtocol;
use rand::{Rng, RngExt};
use std::ops::{Deref, Range};

/// Widest occupied window whose draws count prefixes over the whole
/// window. Wider windows (Lemma 4.4 starts 401 states wide) are searched
/// block by block.
const NARROW_WINDOW: usize = 32;

/// States per block of the block sums: a draw on a wide window skips whole
/// blocks of this many states, then counts prefixes within one.
const BLOCK: usize = 32;

/// The total of `counts`.
///
/// # Panics
///
/// Panics if the total exceeds `u64::MAX`.
pub(crate) fn checked_population(counts: &[u64]) -> u64 {
    counts
        .iter()
        .try_fold(0u64, |sum, &c| sum.checked_add(c))
        .unwrap_or_else(|| population_overflow())
}

/// The panic message of a population past `u64::MAX`.
const POPULATION_OVERFLOW: &str = "the population exceeds u64::MAX agents";

#[cold]
#[track_caller]
fn population_overflow() -> ! {
    panic!("{POPULATION_OVERFLOW}")
}

/// Asserts that `f` panics with the population-overflow message.
#[cfg(test)]
pub(crate) fn assert_population_overflow(f: impl FnOnce() + std::panic::UnwindSafe) {
    let payload = std::panic::catch_unwind(f).expect_err("the population wrapped past u64::MAX");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied());
    assert_eq!(message, Some(POPULATION_OVERFLOW));
}

/// For each bound `r`, how many prefix sums of `counts` are at most `r`,
/// all in one pass with no data-dependent branch, so no mispredicted loop
/// exit per draw. Prefixes never decrease, so when `r` is below the total
/// these are exactly the prefixes of the states before the drawn one,
/// empty states included.
#[inline]
fn passed<const K: usize>(counts: &[u64], bounds: [u64; K]) -> [usize; K] {
    let mut prefix = 0;
    let mut passed = [0; K];
    for &c in counts {
        prefix += c;
        for (p, r) in passed.iter_mut().zip(bounds) {
            *p += usize::from(prefix <= r);
        }
    }
    passed
}

/// Per-state counts with their total, block sums and occupied window.
///
/// Dereferences to the count slice for reads; every write goes through a
/// method that keeps the total, the block sums and the window in step.
#[derive(Debug, Clone)]
pub(crate) struct CountVector {
    counts: Vec<u64>,
    /// `blocks[b]` is the sum of `counts[b * BLOCK..(b + 1) * BLOCK]`.
    blocks: Vec<u64>,
    total: u64,
    /// Every state below `lo` is empty.
    lo: usize,
    /// Every state at or above `hi` is empty.
    hi: usize,
}

impl CountVector {
    /// Wraps `counts`, computing the total, the block sums and the tight
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if the counts sum past `u64::MAX`.
    pub(crate) fn new(counts: Vec<u64>) -> Self {
        let total = checked_population(&counts);
        let blocks = counts.chunks(BLOCK).map(|b| b.iter().sum()).collect();
        let hi = counts.len();
        let mut v = CountVector {
            counts,
            blocks,
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

    /// The state whose CDF interval holds `r < total` on a wide window:
    /// skips whole blocks, then counts prefixes within the block that holds
    /// `r`. States below `lo` in the first block are empty, so counting
    /// from the block's start gives the same index.
    fn locate_by_blocks(&self, mut r: u64) -> usize {
        let mut b = self.lo / BLOCK;
        while r >= self.blocks[b] {
            r -= self.blocks[b];
            b += 1;
        }
        let start = b * BLOCK;
        let [k] = passed(&self.counts[start..self.hi.min(start + BLOCK)], [r]);
        start + k
    }

    /// Simulates one interaction: draws the initiator (one RNG word), then
    /// the responder from the rest (one more) by its ticket among all
    /// agents, and moves both to the states `transition` maps their indices
    /// to.
    ///
    /// With `one_way` (a [`Protocol::ONE_WAY`](pp_model::Protocol::ONE_WAY)
    /// protocol) the responder's output is its input, so it is not moved;
    /// the counts after the call are the same either way.
    #[inline]
    pub(crate) fn interact<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        one_way: bool,
        transition: impl FnOnce(usize, usize, &mut R) -> (usize, usize),
    ) {
        debug_assert!(self.total >= 2, "an interaction needs two agents");
        let r1 = rng.random_range(0..self.total);
        // The rest hold the tickets `0..N` without the initiator's `r1`.
        let r2 = rng.random_range(0..self.total - 1);
        let r2 = r2 + u64::from(r2 >= r1);
        let (si, sj) = if self.hi - self.lo <= NARROW_WINDOW {
            let [k1, k2] = passed(&self.counts[self.lo..self.hi], [r1, r2]);
            (self.lo + k1, self.lo + k2)
        } else {
            (self.locate_by_blocks(r1), self.locate_by_blocks(r2))
        };
        let (oi, oj) = transition(si, sj, rng);
        if one_way {
            debug_assert_eq!(oj, sj, "a one-way transition moved the responder");
        } else {
            self.shift(sj, oj);
        }
        self.shift(si, oi);
    }

    /// Moves one agent from state `from` (which holds one) to state `to`;
    /// the total does not change, and neither does any count if
    /// `from == to`. The jump backend moves the two agents of an event
    /// with one call each; forced inline, because with that many callers
    /// the compiler would otherwise leave the count backends' per-step
    /// moves as calls.
    #[inline(always)]
    pub(crate) fn shift(&mut self, from: usize, to: usize) {
        self.counts[to] += 1;
        self.blocks[to / BLOCK] += 1;
        self.lo = self.lo.min(to);
        self.hi = self.hi.max(to + 1);
        self.counts[from] -= 1;
        self.blocks[from / BLOCK] -= 1;
        if self.counts[from] == 0 {
            self.tighten();
        }
    }

    /// Adds `count` agents to state `i` (the adversary's *add* when `i` is
    /// the initial state).
    ///
    /// # Panics
    ///
    /// Panics if the population would exceed `u64::MAX`.
    pub(crate) fn add(&mut self, i: usize, count: u64) {
        if count == 0 {
            return;
        }
        let total = self
            .total
            .checked_add(count)
            .unwrap_or_else(|| population_overflow());
        if self.total == 0 {
            (self.lo, self.hi) = (i, i + 1);
        } else {
            self.lo = self.lo.min(i);
            self.hi = self.hi.max(i + 1);
        }
        self.total = total;
        self.counts[i] += count;
        self.blocks[i / BLOCK] += count;
    }

    /// Overwrites the count of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if the population would exceed `u64::MAX`.
    pub(crate) fn set(&mut self, i: usize, count: u64) {
        let old = self.counts[i];
        if count >= old {
            self.add(i, count - old);
        } else {
            self.counts[i] = count;
            self.blocks[i / BLOCK] -= old - count;
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
        let (lo, hi) = (self.lo, self.hi);
        remove_uniform_counts(rng, &mut self.counts[lo..hi], self.total, count);
        for b in lo / BLOCK..hi.div_ceil(BLOCK) {
            self.blocks[b] = self.counts[b * BLOCK..].iter().take(BLOCK).sum();
        }
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
            // Each block sum ends nonnegative, so adding its changes with
            // wrap-around in any order leaves the true sum.
            let block = &mut self.blocks[i / BLOCK];
            *block = block.wrapping_add_signed(d);
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

    /// The occupied window of plain counts: first to one past the last
    /// nonzero state.
    fn reference_window(counts: &[u64]) -> Option<Range<usize>> {
        let lo = counts.iter().position(|&c| c > 0)?;
        let hi = counts.iter().rposition(|&c| c > 0)? + 1;
        Some(lo..hi)
    }

    /// The total and every block sum match the counts, every state outside
    /// the window is empty, and a nonempty window is tight at both ends.
    fn assert_consistent(v: &CountVector) {
        assert_eq!(v.total, v.counts.iter().sum::<u64>(), "total drifted");
        let blocks: Vec<u64> = v.counts.chunks(BLOCK).map(|b| b.iter().sum()).collect();
        assert_eq!(v.blocks, blocks, "block sums drifted");
        assert!(v.lo <= v.hi && v.hi <= v.counts.len());
        if v.total > 0 {
            assert_eq!(v.occupied(), reference_window(&v.counts), "loose window");
        } else {
            assert!(v.counts.iter().all(|&c| c == 0));
        }
    }

    /// The windowed draw of one word `r < total`, in the form the window
    /// width selects.
    fn locate(v: &CountVector, r: u64) -> usize {
        if v.hi - v.lo <= NARROW_WINDOW {
            v.lo + passed(&v.counts[v.lo..v.hi], [r])[0]
        } else {
            v.locate_by_blocks(r)
        }
    }

    /// Draws `draws` states from `v` and from the reference with twin
    /// generators: the states must agree draw for draw.
    fn assert_draws_match(v: &CountVector, seed: u64, draws: usize) {
        if v.total == 0 {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..draws {
            let r = rng.random_range(0..v.total);
            assert_eq!(locate(v, r), reference_draw(&v.counts, r), "r = {r}");
        }
    }

    proptest! {
        /// Random count vectors under random mutation sequences: after
        /// every mutation the window and the block sums are consistent and
        /// the windowed draw equals the scan-from-zero CDF inverse. Vectors
        /// of up to 199 states put windows on both sides of the 32-state
        /// narrow cutoff and across several 32-state blocks. The mutations
        /// cover `set` below `lo` and above `hi`, `add`, interactions of a
        /// two-way transition, uniform removal down to zero and back,
        /// `resize_to` in both directions, and batches through `try_apply`,
        /// overdrawing ones included.
        #[test]
        fn windowed_draw_matches_the_reference_cdf_inverse(
            counts in proptest::collection::vec((0u64..6).prop_map(|k| k.saturating_sub(2) * 7 / 2), 1..200),
            ops in proptest::collection::vec((0u8..8, 0usize..200, 0u64..60), 1..40),
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
                            let j = (i + amount as usize) % states;
                            v.interact(&mut rng, false, |_, _, _| (i, j));
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
                    6 => {
                        let target = if amount % 2 == 0 { v.total() / 3 } else { v.total() + amount };
                        v.resize_to(&mut rng, target, i);
                        prop_assert_eq!(v.total(), target);
                    }
                    _ => {
                        // Move `amount` agents from an occupied state (or
                        // an empty one, which must be refused) to state `i`.
                        let from = v.occupied().map_or(0, |w| w.start + at % w.len());
                        let before = v.counts.clone();
                        let mut delta = vec![0i64; states];
                        delta[from] -= amount as i64;
                        delta[i] += amount as i64;
                        let fits = from == i || before[from] >= amount;
                        prop_assert_eq!(v.try_apply(&delta), fits);
                        if !fits {
                            prop_assert_eq!(&v.counts, &before);
                        }
                    }
                }
                assert_consistent(&v);
                assert_draws_match(&v, seed ^ step as u64, 16);
            }
        }

        /// The one-pass interaction equals the two-step reference on plain
        /// counts — draw the initiator, take it out, draw the responder
        /// from the rest, put both back at their outputs — in post-counts,
        /// window and the next RNG word. Windows of 1–40 states with empty
        /// interior states sit in a 72-state space, ends holding one agent
        /// are common, and outputs land anywhere, so moves empty `lo` and
        /// `hi` and widen the window past the narrow cutoff. Every third
        /// transition draws a word of its own, as randomized protocols do.
        #[test]
        fn fused_interaction_matches_the_two_step_reference(
            lo in 0usize..32,
            window in proptest::collection::vec((0usize..8).prop_map(|k| [0u64, 0, 0, 1, 1, 2, 3, 7][k]), 1..41),
            moves in proptest::collection::vec((0usize..72, 0usize..72), 1..40),
            one_way: bool,
            seed: u64,
        ) {
            const STATES: usize = 72;
            let mut counts = vec![0u64; STATES];
            counts[lo..lo + window.len()].copy_from_slice(&window);
            counts[lo] = counts[lo].max(1);
            counts[lo + window.len() - 1] = counts[lo + window.len() - 1].max(1);
            if counts.iter().sum::<u64>() < 2 {
                counts[lo] = 2;
            }
            let mut v = CountVector::new(counts.clone());
            let mut fused = SmallRng::seed_from_u64(seed);
            let mut reference = SmallRng::seed_from_u64(seed);
            for (step, &(to_i, to_j)) in moves.iter().enumerate() {
                let outputs = |si: usize, sj: usize, rng: &mut SmallRng| {
                    if step % 3 == 0 {
                        rng.next_u64();
                    }
                    ((si + to_i) % STATES, if one_way { sj } else { (sj + to_j) % STATES })
                };
                v.interact(&mut fused, one_way, outputs);

                let n = counts.iter().sum::<u64>();
                let si = reference_draw(&counts, reference.random_range(0..n));
                counts[si] -= 1;
                let sj = reference_draw(&counts, reference.random_range(0..n - 1));
                counts[sj] -= 1;
                let (oi, oj) = outputs(si, sj, &mut reference);
                counts[oi] += 1;
                counts[oj] += 1;

                prop_assert_eq!(&v.counts, &counts, "step {}", step);
                prop_assert_eq!(v.occupied(), reference_window(&counts));
                assert_consistent(&v);
            }
            prop_assert_eq!(fused.next_u64(), reference.next_u64(), "RNG words drifted");
        }
    }

    /// Every offset of windows exactly 1, 32 and 33 states wide (the
    /// cutoff and its neighbours, interior empty states included), of a
    /// window spanning five blocks and starting mid-block, and of the
    /// Lemma 4.4 start vector (one agent at 400, the rest at 0: 401
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
            (with_window(45, 5 * BLOCK), 5 * BLOCK),
            (lemma_4_4, 401),
        ];
        for (counts, width) in cases {
            let v = CountVector::new(counts);
            assert_eq!(v.occupied().map(|w| w.len()), Some(width));
            for r in 0..v.total() {
                assert_eq!(
                    locate(&v, r),
                    reference_draw(&v, r),
                    "width {width}, r = {r}"
                );
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
