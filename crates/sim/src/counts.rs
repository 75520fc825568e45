//! The count vector the count backends step on.
//!
//! [`CountSimulator`](crate::CountSimulator),
//! [`BatchedCountSimulator`](crate::BatchedCountSimulator) and
//! [`JumpSimulator`](crate::JumpSimulator) store a
//! configuration as one counter per state. [`CountVector`] holds those
//! counters, their total and, for the count backend and the batched
//! backend's exact fallback, an agent table.
//!
//! One interaction ([`CountVector::interact`]) numbers the agents `0..N`
//! and draws two words: `r1 ∈ [0, N)` names the initiator, and
//! `r2 ∈ [0, N − 1)` names the responder among the rest, which hold the
//! numbers `0..N` without `r1`, in order: agent `r2 + 1` if `r2 >= r1`
//! and agent `r2` otherwise. So the two are a uniform ordered pair of
//! distinct agents. Then each agent moves to its transition output; for a
//! one-way protocol the responder's output is its input, so it is not
//! moved at all. A move to the agent's own state leaves the counts as they
//! were, so it is not branched around: for CHVP that branch is hard to
//! predict.
//!
//! An agent's state is found in one of two ways. They number the agents
//! differently, so the same words draw different agents, but each is a
//! uniform pair, so both step the same Markov chain on the counts.
//!
//! * **The agent table**, built by [`CountVector::with_ticket_cap`] (the
//!   count backend up to [`TICKET_CAP`], the batched backend's exact
//!   fallback up to its threshold). `tickets[t]` is the state of agent
//!   `t`, in no particular order, so a draw is one load and a move is one
//!   store plus two count updates. The table is always a permutation of
//!   the multiset the counts describe. At the cap it is 64 KB of 2-byte
//!   entries, reserved when the vector is built. Bulk writes (`add`,
//!   `set`, `remove_uniform`, `resize_to`, `try_apply`) mark it stale, and
//!   the next draw refills it from the counts, in state order, in
//!   O(N + states), if the population fits the cap. So neither stepping
//!   nor an adversary event allocates. The jump backend leaves the table
//!   off because it draws pairs, not agents.
//! * **The scan**, everywhere else: above the cap, with the table off, or
//!   with more than 2¹⁶ states. The agents are numbered in state order, so
//!   agent `r` is in the state `i` with `prefix(i) <= r < prefix(i + 1)`,
//!   the CDF inverse: the number of prefixes at or below `r`, counted in
//!   blocks of 64 states with no data-dependent branch inside a block, one
//!   pass for both words of a step, which stops after the first block
//!   that ends above both words. A draw costs O(states up to the higher
//!   drawn one): the lemmas' 2-state epidemics are cheap, and so is a
//!   401-state CHVP above the cap once its agents sit in the low states,
//!   but not while they sit near the top. No benchmark workload or
//!   registry experiment runs one there.
//!
//! The population is a `u64`: building or growing a vector past
//! `u64::MAX` agents panics rather than wrapping.

use crate::removal::remove_uniform_counts;
use pp_model::{DeterministicProtocol, FiniteProtocol};
use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};
use std::ops::Deref;

/// Largest population the count backend draws through its agent table. At
/// the cap the table is 64 KB of 2-byte entries, within L2 (and within the
/// 48 KB L1 at the lemmas' n = 2¹⁴). It is reserved whenever a count
/// simulator is built: a 512 KB table (cap 2¹⁸) added about 20 µs, 17%,
/// to the set-up of perfbench's `churn_counts` on a 2-core Xeon. Larger
/// populations draw by the scan over all states.
pub const TICKET_CAP: u64 = 1 << 15;

/// Most states an entry can name; with more, the table stays off.
const TICKET_STATES: usize = 1 << 16;

/// The agent table: the state of every agent, in no particular order.
#[derive(Debug, Default)]
struct TicketTable {
    /// Largest population the table serves; 0 when the table is off.
    cap: u64,
    /// Whether `tickets` holds the agents of the current counts.
    fresh: bool,
    /// `tickets[t]` is the state of agent `t`; its capacity is `cap`.
    tickets: Vec<u16>,
}

impl TicketTable {
    /// Lays the agents out from the counts in state order, in
    /// O(population + states), within the reserved capacity: the
    /// population is at most `cap`.
    #[inline(never)]
    fn refill(&mut self, counts: &[u64]) {
        self.tickets.clear();
        for (s, &c) in counts.iter().enumerate() {
            self.tickets
                .resize(self.tickets.len() + c as usize, s as u16);
        }
        self.fresh = true;
    }
}

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
    assert_eq!(panic_message(f), POPULATION_OVERFLOW);
}

/// The message `f` panics with.
#[cfg(test)]
pub(crate) fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let payload = std::panic::catch_unwind(f).expect_err("no panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// An RNG wrapper counting the 64-bit words drawn through it.
#[cfg(test)]
pub(crate) struct CountingRng {
    inner: SmallRng,
    pub(crate) words: u64,
}

#[cfg(test)]
impl CountingRng {
    pub(crate) fn seeded(seed: u64) -> Self {
        CountingRng {
            inner: SmallRng::seed_from_u64(seed),
            words: 0,
        }
    }
}

#[cfg(test)]
impl Rng for CountingRng {
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
}

/// For each bound `r`, how many prefix sums of `counts` are at most `r`,
/// all in one pass. Prefixes never decrease, so when `r` is below the
/// total these are exactly the prefixes of the states before the drawn
/// one, empty states included, and once a prefix exceeds every bound no
/// later state adds to any count. The pass runs in blocks of 64 states,
/// each without a data-dependent branch, and stops after the first block
/// that ends above the largest bound: one predictable exit test per block
/// instead of a scan of all states.
#[inline]
fn passed<const K: usize>(counts: &[u64], bounds: [u64; K]) -> [usize; K] {
    let largest = bounds.into_iter().max().unwrap_or(0);
    let mut prefix = 0;
    let mut passed = [0; K];
    for block in counts.chunks(64) {
        for &c in block {
            prefix += c;
            for (p, r) in passed.iter_mut().zip(bounds) {
                *p += usize::from(prefix <= r);
            }
        }
        if prefix > largest {
            break;
        }
    }
    passed
}

/// The agent the responder word `r2 ∈ [0, N − 1)` names when the initiator
/// is agent `r1`: the rest are the agents `0..N` without `r1`, in order.
#[inline(always)]
fn responder(r1: u64, r2: u64) -> u64 {
    r2 + u64::from(r2 >= r1)
}

/// Per-state counts with their total and the agent table.
///
/// Dereferences to the count slice for reads; every write goes through a
/// method that keeps the total in step and the table fresh or stale.
/// `pub` in this private module only so that `count_sim`'s sealed stepper
/// trait can name it.
#[derive(Debug)]
pub struct CountVector {
    counts: Vec<u64>,
    total: u64,
    /// Off unless built by [`CountVector::with_ticket_cap`].
    table: TicketTable,
}

impl CountVector {
    /// Wraps `counts`, computing the total.
    ///
    /// # Panics
    ///
    /// Panics if the counts sum past `u64::MAX`.
    pub(crate) fn new(counts: Vec<u64>) -> Self {
        CountVector {
            total: checked_population(&counts),
            counts,
            table: TicketTable::default(),
        }
    }

    /// Like [`CountVector::new`], with the agent table on (for at most
    /// 2¹⁶ states): while the population is at most `cap`, a draw is one
    /// table load. The table's memory is reserved here, so no refill
    /// allocates.
    pub(crate) fn with_ticket_cap(counts: Vec<u64>, cap: u64) -> Self {
        let mut v = Self::new(counts);
        if v.counts.len() <= TICKET_STATES {
            v.table.cap = cap;
            v.table.tickets = Vec::with_capacity(cap as usize);
        }
        v
    }

    /// The population: the sum of all counts.
    #[inline]
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Whether draws can read the agent table: it is fresh, or it is on,
    /// the population fits its cap, and it has just been refilled. Only
    /// called with at least two agents, so an off table (cap 0) is never
    /// refilled. Interactions keep a fresh table fresh, so steps between
    /// two bulk writes ask once.
    #[inline]
    pub(crate) fn tickets_ready(&mut self) -> bool {
        self.table.fresh
            || (self.total <= self.table.cap && {
                self.table.refill(&self.counts);
                true
            })
    }

    /// Simulates one interaction: draws the initiator (one RNG word), then
    /// the responder from the rest (one more), and moves both to the
    /// states `transition` maps their indices to. `table` is what
    /// [`CountVector::tickets_ready`] returned after the last bulk write.
    ///
    /// With `one_way` (a [`Protocol::ONE_WAY`](pp_model::Protocol::ONE_WAY)
    /// protocol) the responder's output is its input, so it is not moved;
    /// the counts after the call are the same either way.
    #[inline]
    pub(crate) fn interact<R: Rng + ?Sized>(
        &mut self,
        table: bool,
        rng: &mut R,
        one_way: bool,
        transition: impl FnOnce(usize, usize, &mut R) -> (usize, usize),
    ) {
        debug_assert!(self.total >= 2, "an interaction needs two agents");
        debug_assert!(!table || self.table.fresh, "the agent table is stale");
        let r1 = rng.random_range(0..self.total);
        let r2 = responder(r1, rng.random_range(0..self.total - 1));
        let [si, sj] = if table {
            let tickets = &self.table.tickets;
            [tickets[r1 as usize], tickets[r2 as usize]].map(usize::from)
        } else {
            passed(&self.counts, [r1, r2])
        };
        let (oi, oj) = transition(si, sj, rng);
        debug_assert!(
            !one_way || oj == sj,
            "a one-way transition moved the responder"
        );
        if !one_way {
            if table {
                self.table.tickets[r2 as usize] = oj as u16;
            }
            self.shift(sj, oj);
        }
        if table {
            self.table.tickets[r1 as usize] = oi as u16;
        }
        self.shift(si, oi);
    }

    /// Moves one agent from state `from` (which holds one) to state `to`:
    /// two count updates, and none changes if `from == to`. A caller on a
    /// fresh agent table writes the agent's entry itself. The jump backend
    /// moves the two agents of an event with one call each; forced inline,
    /// because with that many callers the compiler would otherwise leave
    /// the count backends' per-step moves as calls.
    #[inline(always)]
    pub(crate) fn shift(&mut self, from: usize, to: usize) {
        self.counts[to] += 1;
        self.counts[from] -= 1;
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
        self.total = self
            .total
            .checked_add(count)
            .unwrap_or_else(|| population_overflow());
        self.table.fresh = false;
        self.counts[i] += count;
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
            self.table.fresh = false;
            self.counts[i] = count;
            self.total -= old - count;
        }
    }

    /// Removes `count` agents chosen uniformly without replacement: one
    /// multivariate hypergeometric draw over all states
    /// (`remove_uniform_counts`), which skips the empty ones without a
    /// draw, in O(states).
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the total.
    pub(crate) fn remove_uniform<R: Rng + ?Sized>(&mut self, rng: &mut R, count: u64) {
        self.table.fresh = false;
        remove_uniform_counts(rng, &mut self.counts, self.total, count);
        self.total -= count;
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
        self.table.fresh = false;
        for (&d, c) in delta.iter().zip(&mut self.counts) {
            *c = c.wrapping_add_signed(d);
        }
        true
    }
}

/// All `n` agents in the protocol's initial state, as a count vector.
pub(crate) fn fresh_counts<P: FiniteProtocol>(protocol: &P, n: u64) -> Vec<u64> {
    let mut counts = vec![0u64; protocol.num_states()];
    counts[protocol.state_index(&protocol.initial_state())] = n;
    counts
}

/// A pair of states `(si, sj)` whose interaction changes something, with
/// the pair `(oi, oj)` it leaves behind.
pub(crate) type ActiveTransition = ((usize, usize), (usize, usize));

/// Probes every ordered pair of states twice, under two independent
/// fixed-seed generators, and returns, in index order, the pairs whose
/// interaction changes something together with their outputs. A
/// transition that consults the RNG for its *output* disagrees between
/// the probes.
///
/// # Panics
///
/// Panics if a probe detects a non-deterministic transition.
pub(crate) fn probe_transitions<P: DeterministicProtocol>(protocol: &P) -> Vec<ActiveTransition> {
    let s = protocol.num_states();
    let mut active = Vec::new();
    let mut probe_rng_a = SmallRng::seed_from_u64(0xDEAD);
    let mut probe_rng_b = SmallRng::seed_from_u64(0xBEEF);
    for si in 0..s {
        for sj in 0..s {
            let out_a = transition(protocol, si, sj, &mut probe_rng_a);
            let out_b = transition(protocol, si, sj, &mut probe_rng_b);
            assert_eq!(out_a, out_b, "transition ({si}, {sj}) is not deterministic");
            if out_a != (si, sj) {
                active.push(((si, sj), out_a));
            }
        }
    }
    active
}

/// The ordered pairs `(initiator in si, responder in sj)` of distinct
/// agents: `c_si · (c_sj − [si = sj])`, in u128, since one product reaches
/// ~10¹⁸ at n = 10⁹ and a sum of them (like the total `n(n − 1)`) exceeds
/// u64 beyond n = 2³².
#[inline]
pub(crate) fn pair_weight(counts: &[u64], si: usize, sj: usize) -> u128 {
    let same = u64::from(si == sj);
    u128::from(counts[si]) * u128::from(counts[sj].saturating_sub(same))
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
    use std::ops::Range;

    /// The CDF inverse by a scan from state 0: the mapping the branch-free
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

    /// The occupied states of plain counts: first to one past the last
    /// nonzero state.
    fn occupied(counts: &[u64]) -> Option<Range<usize>> {
        let lo = counts.iter().position(|&c| c > 0)?;
        let hi = counts.iter().rposition(|&c| c > 0)? + 1;
        Some(lo..hi)
    }

    /// The total matches the counts, and a fresh agent table holds each
    /// state as many times as its count.
    fn assert_consistent(v: &CountVector) {
        assert_eq!(v.total, v.counts.iter().sum::<u64>(), "total drifted");
        if v.table.fresh {
            let mut held = vec![0u64; v.counts.len()];
            for &s in &v.table.tickets {
                held[usize::from(s)] += 1;
            }
            assert_eq!(held, v.counts, "the agent table drifted from the counts");
        }
    }

    /// The branch-free draw of one word `r < total`.
    fn locate(v: &CountVector, r: u64) -> usize {
        passed(&v.counts, [r])[0]
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
        /// Random count vectors under random mutation sequences, with the
        /// agent table on at a cap of 0–799 agents, so that it never
        /// serves, serves some populations, or serves all of them: after
        /// every mutation the vector is consistent (the total holds, and a
        /// fresh table holds the counts), and while the table is stale the
        /// branch-free draw equals the scan-from-zero CDF inverse. Vectors
        /// of up to 199 states are occupied from one state to all of them.
        /// The mutations cover `set` below the lowest and above the highest
        /// occupied state, `add`, runs of one to eight interactions of a two-way
        /// transition (so a fresh table takes several moves before a bulk
        /// write), uniform removal down to zero and back, `resize_to` in
        /// both directions, and batches through `try_apply`, overdrawing
        /// ones included.
        #[test]
        fn windowed_draw_matches_the_reference_cdf_inverse(
            counts in proptest::collection::vec((0u64..6).prop_map(|k| k.saturating_sub(2) * 7 / 2), 1..200),
            ops in proptest::collection::vec((0u8..8, 0usize..200, 0u64..60), 1..40),
            cap in 0u64..800,
            seed: u64,
        ) {
            let states = counts.len();
            let mut v = CountVector::with_ticket_cap(counts, cap);
            let mut rng = SmallRng::seed_from_u64(seed);
            assert_consistent(&v);
            assert_draws_match(&v, seed, 16);
            for (step, &(op, at, amount)) in ops.iter().enumerate() {
                let i = at % states;
                match op {
                    // Below the occupied states (or anywhere, when none is).
                    0 => v.set(occupied(&v.counts).map_or(i, |w| i % w.start.max(1)), amount),
                    // Above the highest occupied state.
                    1 => {
                        let from = occupied(&v.counts).map_or(0, |w| w.end);
                        if from < states {
                            v.set(from + i % (states - from), amount);
                        }
                    }
                    2 => v.add(i, amount),
                    3 => {
                        if v.total() >= 2 {
                            let j = (i + amount as usize) % states;
                            for _ in 0..=amount % 8 {
                                let table = v.tickets_ready();
                                v.interact(table, &mut rng, false, |_, _, _| (i, j));
                            }
                        }
                    }
                    4 => {
                        let count = amount.min(v.total());
                        v.remove_uniform(&mut rng, count);
                    }
                    5 => {
                        let everyone = v.total();
                        v.remove_uniform(&mut rng, everyone);
                        assert_eq!(occupied(&v.counts), None);
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
                        let from = occupied(&v.counts).map_or(0, |w| w.start + at % w.len());
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
                if !v.table.fresh {
                    assert_draws_match(&v, seed ^ step as u64, 16);
                }
            }
        }

        /// The one-pass interaction equals the two-step reference on plain
        /// counts — draw the initiator, take it out, draw the responder
        /// from the rest, put both back at their outputs — in post-counts
        /// and the next RNG word. Runs of 1–40 states with empty interior
        /// states sit in a 72-state space, ends holding one agent are
        /// common, and outputs land anywhere, so moves empty the lowest and
        /// highest occupied states and spread agents over the whole space.
        /// Every third
        /// transition draws a word of its own, as randomized protocols do.
        #[test]
        fn fused_interaction_matches_the_two_step_reference(
            first in 0usize..32,
            run in proptest::collection::vec((0usize..8).prop_map(|k| [0u64, 0, 0, 1, 1, 2, 3, 7][k]), 1..41),
            moves in proptest::collection::vec((0usize..72, 0usize..72), 1..40),
            one_way: bool,
            seed: u64,
        ) {
            const STATES: usize = 72;
            let mut counts = vec![0u64; STATES];
            counts[first..first + run.len()].copy_from_slice(&run);
            counts[first] = counts[first].max(1);
            counts[first + run.len() - 1] = counts[first + run.len() - 1].max(1);
            if counts.iter().sum::<u64>() < 2 {
                counts[first] = 2;
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
                v.interact(false, &mut fused, one_way, outputs);

                let n = counts.iter().sum::<u64>();
                let si = reference_draw(&counts, reference.random_range(0..n));
                counts[si] -= 1;
                let sj = reference_draw(&counts, reference.random_range(0..n - 1));
                counts[sj] -= 1;
                let (oi, oj) = outputs(si, sj, &mut reference);
                counts[oi] += 1;
                counts[oj] += 1;

                prop_assert_eq!(&v.counts, &counts, "step {}", step);
                assert_consistent(&v);
            }
            prop_assert_eq!(fused.next_u64(), reference.next_u64(), "RNG words drifted");
        }

    }

    /// Every offset of 401-state vectors occupied over exactly 1, 32, 33
    /// and 160 states (interior empty states included, and empty states on
    /// both sides) and of the Lemma 4.4 start vector (one agent at 400, the
    /// rest at 0) maps to the state the scan from state 0 returns: one pass
    /// over all states serves every spread.
    #[test]
    fn draws_on_both_sides_of_the_narrow_cutoff_match_the_reference() {
        let occupied_over = |first: usize, width: usize| {
            let mut counts = vec![0u64; 401];
            for (k, c) in counts[first..first + width].iter_mut().enumerate() {
                *c = [2, 0, 1, 3, 0][k % 5];
            }
            (counts[first], counts[first + width - 1]) = (1, 2);
            counts
        };
        let mut lemma_4_4 = vec![0u64; 401];
        (lemma_4_4[0], lemma_4_4[400]) = ((1 << 14) - 1, 1);
        let cases = [
            (occupied_over(200, 1), 1),
            (occupied_over(7, 32), 32),
            (occupied_over(7, 33), 33),
            (occupied_over(45, 160), 160),
            (lemma_4_4, 401),
        ];
        for (counts, width) in cases {
            let v = CountVector::new(counts);
            assert_eq!(occupied(&v.counts).map(|w| w.len()), Some(width));
            for r in 0..v.total() {
                assert_eq!(
                    locate(&v, r),
                    reference_draw(&v, r),
                    "width {width}, r = {r}"
                );
            }
        }
    }

    /// Every word pair `(r1, r2)` a step can draw, tallied by the
    /// (initiator, responder) states the agent table gives it:
    /// `tally[i * states + j]`.
    fn drawn_pairs(v: &CountVector) -> Vec<u128> {
        let states = v.counts.len();
        let tickets = &v.table.tickets;
        let mut tally = vec![0u128; states * states];
        for r1 in 0..v.total {
            for r2 in 0..v.total - 1 {
                let (i, j) = (tickets[r1 as usize], tickets[responder(r1, r2) as usize]);
                tally[usize::from(i) * states + usize::from(j)] += 1;
            }
        }
        tally
    }

    /// A step on the agent table draws each ordered pair of states as often
    /// as there are ordered pairs of distinct agents in them, `cᵢ·cⱼ` for
    /// `i ≠ j` and `cᵢ(cᵢ − 1)` for `i = j`, over all `N(N − 1)` word pairs:
    /// so it steps the same chain as the CDF inverse. Checked on a few
    /// small configurations right after a refill, after every move of
    /// initiators up and responders down (wrapping across the whole
    /// vector; every third step one-way), and again after a bulk write
    /// and the refill it causes.
    #[test]
    fn agent_table_draws_each_state_pair_as_often_as_its_agent_pairs() {
        let configs: [&[u64]; 5] = [
            &[2, 0],
            &[1, 1, 1],
            &[3, 0, 2, 1],
            &[0, 4, 0, 0, 1, 2],
            &[5],
        ];
        for (k, &counts) in configs.iter().enumerate() {
            let states = counts.len();
            let mut v = CountVector::with_ticket_cap(counts.to_vec(), 16);
            let mut rng = SmallRng::seed_from_u64(k as u64);
            for round in 0..3 {
                match round {
                    0 => {}
                    1 => v.add(states - 1, 2),
                    _ => v.remove_uniform(&mut rng, 1),
                }
                assert!(
                    !v.table.fresh,
                    "config {k}: a bulk write marks the table stale"
                );
                assert_consistent(&v);
                assert!(v.tickets_ready());
                for step in 0..=12 {
                    assert_consistent(&v);
                    let want: Vec<u128> = (0..states * states)
                        .map(|p| pair_weight(&v.counts, p / states, p % states))
                        .collect();
                    assert_eq!(
                        drawn_pairs(&v),
                        want,
                        "config {k}, round {round}, step {step}"
                    );
                    let one_way = step % 3 == 0;
                    v.interact(true, &mut rng, one_way, |si, sj, _| {
                        let oj = if one_way {
                            sj
                        } else {
                            (sj + states - 1) % states
                        };
                        ((si + 1) % states, oj)
                    });
                }
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
        assert_consistent(&v);
        assert!(v.try_apply(&[-1, 0, 1, 0]));
        assert_eq!(&v[..], &[0, 0, 1, 4]);
        assert_consistent(&v);
    }
}
