//! The count vector the count backends step on.
//!
//! [`CountSimulator`](crate::CountSimulator),
//! [`BatchedCountSimulator`](crate::BatchedCountSimulator) and
//! [`JumpSimulator`](crate::JumpSimulator) store a
//! configuration as one counter per state. [`CountVector`] holds those
//! counters, their total, and the **occupied window** `[lo, hi)`, which
//! only narrows the search of a draw: every state outside it is empty, and
//! while the population is nonempty the window is tight (`counts[lo] > 0`
//! and `counts[hi - 1] > 0`).
//!
//! A weighted draw is the CDF inverse: the state `i` with
//! `prefix(i) <= r < prefix(i + 1)` for one uniform word `r ∈ [0, total)`.
//! Number the agents by **ticket**, `0..N` in state order; then the drawn
//! state is the state of ticket `r`.
//!
//! One interaction ([`CountVector::interact`]) draws the initiator from
//! word `r1 ∈ [0, N)` and the responder from word `r2 ∈ [0, N − 1)`, the
//! CDF inverse of the counts with the initiator taken out. The rest hold
//! the tickets without `r1`, in the same order, so the responder holds
//! ticket `r2 + 1` if `r2 >= r1` and ticket `r2` otherwise, and both draws
//! read the same unchanged counts. Nothing is written between the two
//! draws. Then each agent moves to its transition output; for a one-way
//! protocol the responder's output is its input, so it is not moved at
//! all. A move to the agent's own state adds and takes away one agent
//! there, which leaves the counts as they were, so it is not branched
//! around: for CHVP that branch is hard to predict.
//!
//! A ticket is located in one of two ways, and both give the same state
//! for the same word, so every trajectory is the same either way.
//!
//! * **The ticket table**, built by [`CountVector::with_tickets`] (the
//!   count backend). `tickets[t]` is the state of ticket `t` and
//!   `start[s]` the first ticket of state `s`, so a draw is one load. A
//!   move from state `a` to state `b` hands one ticket across each state
//!   boundary between them; CHVP's moves cross zero or one boundary 95% of
//!   the time. The table serves populations up to [`TICKET_CAP`] (64 KB
//!   of 2-byte tickets, reserved when the vector is built). Bulk writes
//!   (`add`, `set`, `remove_uniform`, `resize_to`, `try_apply`) mark it
//!   stale, and the next draw refills it in O(N + states) if the
//!   population fits the cap. So neither stepping nor an adversary event
//!   allocates. The batched backend leaves the table off, because its
//!   every batch is a bulk write; the jump backend leaves it off because
//!   it draws pairs, not agents.
//! * **The window scan**, everywhere else: above the cap, with the table
//!   off, or with more than 2¹⁶ states. The drawn state is `lo` plus the
//!   number of prefixes of the occupied window at or below `r`, counted
//!   with no data-dependent branch, one pass for both words of a step.
//!   Skipping the empty states below `lo` leaves the mapping unchanged. A
//!   draw costs O(width of the window): the lemmas' 2-state epidemics and
//!   CHVP windows of a few states are cheap, a 401-state Lemma 4.4 start
//!   above the cap is not, and no benchmark workload or registry
//!   experiment runs one there.
//!
//! The window is kept up to date where counts change, never on a draw:
//! additions widen it, and an update that empties a state at either end
//! tightens it. While the table is fresh, a move updates only the counts
//! and the table, which holds the window as its first and last ticket;
//! marking the table stale reads the window back from it.
//!
//! The population is a `u64`: building or growing a vector past
//! `u64::MAX` agents panics rather than wrapping.

use crate::removal::remove_uniform_counts;
use pp_model::{DeterministicProtocol, FiniteProtocol};
use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};
use std::ops::{Deref, Range};

/// Largest population a count vector draws through its ticket table. At
/// the cap the table is 64 KB of 2-byte tickets, within L2 (and within the
/// 48 KB L1 at the lemmas' n = 2¹⁴). It is reserved whenever a count
/// simulator is built: a 512 KB table (cap 2¹⁸) added about 20 µs, 17%,
/// to the set-up of perfbench's `churn_counts` on a 2-core Xeon. Larger
/// populations draw by the window scan.
pub const TICKET_CAP: u64 = 1 << 15;

/// Most states a ticket can name; with more, the table stays off.
const TICKET_STATES: usize = 1 << 16;

/// The agents' tickets in state order: state `s` holds the tickets
/// `start[s]..start[s + 1]` (the last state's run ends at the population),
/// so the state of ticket `r` is the CDF inverse of the word `r`.
#[derive(Debug, Default)]
struct TicketTable {
    /// Largest population the table serves; 0 when the table is off.
    cap: u64,
    /// Whether `tickets` and `start` describe the current counts.
    fresh: bool,
    /// `tickets[t]` is the state of ticket `t`; its capacity is `cap`.
    tickets: Vec<u16>,
    /// `start[s]` is the first ticket of state `s`.
    start: Vec<u32>,
}

impl TicketTable {
    /// A table for populations up to `cap` over `states` states, with all
    /// its memory reserved up front so that no refill allocates.
    fn with_cap(cap: u64, states: usize) -> Self {
        TicketTable {
            cap,
            fresh: false,
            tickets: Vec::with_capacity(cap as usize),
            start: vec![0; states],
        }
    }

    /// Renumbers the tickets from the counts, in O(population + states),
    /// within the reserved capacity: the population is at most `cap`.
    #[inline(never)]
    fn refill(&mut self, counts: &[u64]) {
        self.tickets.clear();
        for (s, (&c, start)) in counts.iter().zip(&mut self.start).enumerate() {
            *start = self.tickets.len() as u32;
            self.tickets
                .resize(self.tickets.len() + c as usize, s as u16);
        }
        self.fresh = true;
    }

    /// Moves one agent from state `from` to state `to` by handing one
    /// ticket across each state boundary between them. Going up, the last
    /// ticket below each boundary `s` (ascending) becomes state `s`'s
    /// first; going down, the first ticket of each state `s` (descending)
    /// becomes state `s - 1`'s last. The walk's order makes every state it
    /// passes nonempty when its turn comes, so empty states in between
    /// need no case of their own.
    ///
    /// The first boundary is handled with no branch, and a move to the
    /// agent's own state rewrites its first ticket unchanged there: for
    /// CHVP a step moves zero states about a fifth of the time and one
    /// state most of the rest, so branching on the distance would
    /// mispredict often. Only longer moves enter the loop.
    #[inline(always)]
    fn relabel(&mut self, from: usize, to: usize) {
        let up = usize::from(to > from);
        let steps = from.abs_diff(to);
        let mut s = from + up;
        let moved = usize::from(steps > 0);
        let pos = self.start[s] as usize - up;
        self.tickets[pos] = (s + up - moved) as u16;
        self.start[s] = (pos + moved - up) as u32;
        for _ in 1..steps {
            s = if up == 1 { s + 1 } else { s - 1 };
            let pos = self.start[s] as usize - up;
            self.tickets[pos] = (s + up - 1) as u16;
            self.start[s] = (pos + 1 - up) as u32;
        }
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

/// Per-state counts with their total and occupied window.
///
/// Dereferences to the count slice for reads; every write goes through a
/// method that keeps the total and the window in step.
#[derive(Debug)]
pub(crate) struct CountVector {
    counts: Vec<u64>,
    total: u64,
    /// Every state below `lo` is empty.
    lo: usize,
    /// Every state at or above `hi` is empty.
    hi: usize,
    /// Off unless built by [`CountVector::with_tickets`]. While it is
    /// fresh, moves keep only the counts, the total and the table, which
    /// then holds the window; `lo` and `hi` are read back from it when it
    /// goes stale.
    table: TicketTable,
}

impl CountVector {
    /// Wraps `counts`, computing the total and the tight window.
    ///
    /// # Panics
    ///
    /// Panics if the counts sum past `u64::MAX`.
    pub(crate) fn new(counts: Vec<u64>) -> Self {
        let total = checked_population(&counts);
        let hi = counts.len();
        let mut v = CountVector {
            counts,
            total,
            lo: 0,
            hi,
            table: TicketTable::default(),
        };
        v.tighten();
        v
    }

    /// Like [`CountVector::new`], with the ticket table on (for at most
    /// 2¹⁶ states): while the population is at most [`TICKET_CAP`], a draw
    /// is one table load.
    pub(crate) fn with_tickets(counts: Vec<u64>) -> Self {
        Self::with_ticket_cap(counts, TICKET_CAP)
    }

    /// Like [`CountVector::with_tickets`], with the table serving
    /// populations up to `cap`.
    fn with_ticket_cap(counts: Vec<u64>, cap: u64) -> Self {
        let mut v = Self::new(counts);
        if v.counts.len() <= TICKET_STATES {
            v.table = TicketTable::with_cap(cap, v.counts.len());
        }
        v
    }

    /// The population: the sum of all counts.
    #[inline]
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// The occupied window `lo..hi`, or `None` for an empty population.
    /// A fresh table holds it as the states of its first and last ticket.
    fn occupied(&self) -> Option<Range<usize>> {
        if self.table.fresh {
            let tickets = &self.table.tickets;
            return Some(usize::from(tickets[0])..usize::from(tickets[tickets.len() - 1]) + 1);
        }
        (self.total > 0).then_some(self.lo..self.hi)
    }

    /// Whether draws can read the ticket table: it is fresh, or it is on,
    /// the population fits its cap, and it has just been refilled. Only
    /// called with at least two agents, so an off table (cap 0) is never
    /// refilled.
    #[inline]
    fn tickets_ready(&mut self) -> bool {
        self.table.fresh
            || (self.total <= self.table.cap && {
                self.table.refill(&self.counts);
                true
            })
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
        let (si, sj) = if self.tickets_ready() {
            let tickets = &self.table.tickets;
            (tickets[r1 as usize] as usize, tickets[r2 as usize] as usize)
        } else {
            let [k1, k2] = passed(&self.counts[self.lo..self.hi], [r1, r2]);
            (self.lo + k1, self.lo + k2)
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
        if self.table.fresh {
            self.table.relabel(from, to);
            self.counts[to] += 1;
            self.counts[from] -= 1;
            return;
        }
        self.counts[to] += 1;
        self.lo = self.lo.min(to);
        self.hi = self.hi.max(to + 1);
        self.counts[from] -= 1;
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
        self.mark_stale();
        if self.total == 0 {
            (self.lo, self.hi) = (i, i + 1);
        } else {
            self.lo = self.lo.min(i);
            self.hi = self.hi.max(i + 1);
        }
        self.total = total;
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
            self.mark_stale();
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
        self.mark_stale();
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
        self.mark_stale();
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

    /// Marks the ticket table stale before a bulk write. If it was fresh,
    /// the moves since its refill did not keep the window, so it is read
    /// back from the first and last ticket.
    fn mark_stale(&mut self) {
        if !self.table.fresh {
            return;
        }
        let window = self
            .occupied()
            .expect("a fresh table holds two or more agents");
        (self.lo, self.hi) = (window.start, window.end);
        self.table.fresh = false;
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

/// All `n` agents in the protocol's initial state, as a count vector.
pub(crate) fn fresh_counts<P: FiniteProtocol>(protocol: &P, n: u64) -> Vec<u64> {
    let mut counts = vec![0u64; protocol.num_states()];
    counts[protocol.state_index(&protocol.initial_state())] = n;
    counts
}

/// The transition table of a deterministic protocol:
/// `delta[si * S + sj]` holds the indices `(si, sj)` leave behind, and
/// `active` lists, in index order, the pairs whose interaction changes
/// something.
pub(crate) struct Transitions {
    pub(crate) delta: Vec<(usize, usize)>,
    pub(crate) active: Vec<(usize, usize)>,
}

/// Probes every ordered pair of states twice, under two independent
/// fixed-seed generators: a transition that consults the RNG for its
/// *output* disagrees between the probes.
///
/// # Panics
///
/// Panics if a probe detects a non-deterministic transition.
pub(crate) fn probe_transitions<P: DeterministicProtocol>(protocol: &P) -> Transitions {
    let s = protocol.num_states();
    let mut delta = Vec::with_capacity(s * s);
    let mut active = Vec::new();
    let mut probe_rng_a = SmallRng::seed_from_u64(0xDEAD);
    let mut probe_rng_b = SmallRng::seed_from_u64(0xBEEF);
    for si in 0..s {
        for sj in 0..s {
            let out_a = transition(protocol, si, sj, &mut probe_rng_a);
            let out_b = transition(protocol, si, sj, &mut probe_rng_b);
            assert_eq!(out_a, out_b, "transition ({si}, {sj}) is not deterministic");
            if out_a != (si, sj) {
                active.push((si, sj));
            }
            delta.push(out_a);
        }
    }
    Transitions { delta, active }
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

    /// The scan from state 0 at every word at once: entry `r` is the state
    /// whose CDF interval holds `r`.
    fn reference_tickets(counts: &[u64]) -> Vec<usize> {
        let runs = counts.iter().enumerate();
        runs.flat_map(|(s, &c)| std::iter::repeat_n(s, c as usize))
            .collect()
    }

    /// The total matches the counts, and so does whatever the vector
    /// currently keeps beside them: a fresh ticket table holds the
    /// reference state of every ticket and the first ticket of every
    /// state; otherwise every state outside the window is empty, and a
    /// nonempty window is tight at both ends.
    fn assert_consistent(v: &CountVector) {
        assert_eq!(v.total, v.counts.iter().sum::<u64>(), "total drifted");
        assert_eq!(v.occupied(), reference_window(&v.counts), "loose window");
        if v.table.fresh {
            let tickets: Vec<usize> = v.table.tickets.iter().map(|&s| usize::from(s)).collect();
            assert_eq!(tickets, reference_tickets(&v.counts), "tickets drifted");
            let mut first = 0;
            for (s, (&start, &c)) in v.table.start.iter().zip(&v.counts).enumerate() {
                assert_eq!(start, first, "first ticket of state {s}");
                first += c as u32;
            }
            return;
        }
        assert!(v.lo <= v.hi && v.hi <= v.counts.len());
    }

    /// The windowed draw of one word `r < total`.
    fn locate(v: &CountVector, r: u64) -> usize {
        v.lo + passed(&v.counts[v.lo..v.hi], [r])[0]
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
        /// every mutation the window is consistent and the windowed draw
        /// equals the scan-from-zero CDF inverse. Vectors of up to 199
        /// states give windows from one state to the whole vector. The mutations
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
        /// `hi` and widen the window up to the whole space. Every third
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

        /// The ticket table under random moves and bulk writes, with a cap
        /// of 40–400 agents so that growth and removal cross it both ways.
        /// Half the cases are CHVP-like 401-state vectors (a window of 1–16
        /// states anywhere, or the Lemma 4.4 start: one agent at 400, the
        /// rest at 0); the others have up to 199 states. After every
        /// operation: a population within the cap reads its table, whose
        /// state for every word is the scan-from-state-0 CDF inverse and
        /// whose window is the tight one; a larger one does not, and its
        /// windowed draws match the reference instead. Moves (`shift`, both
        /// directions, across empty states, and `interact`) keep a fresh
        /// table fresh, so the relabelling is checked without a refill in
        /// between; every bulk write (`add`, `set`, `remove_uniform`,
        /// `resize_to`, `try_apply`) leaves a consistent window for the
        /// next refill or scan.
        #[test]
        fn ticket_lookup_matches_the_reference_cdf_inverse(
            chvp: bool,
            counts in proptest::collection::vec((0u64..6).prop_map(|k| k.saturating_sub(2) * 7 / 2), 1..200),
            window in proptest::collection::vec(0u64..12, 1..17),
            at in 0usize..401,
            ops in proptest::collection::vec((0u8..9, 0usize..401, 0u64..500), 1..50),
            cap in 40u64..400,
            seed: u64,
        ) {
            let counts = if !chvp {
                counts
            } else if at % 4 == 0 {
                let mut start = vec![0u64; 401];
                (start[0], start[400]) = (cap - 1 - at as u64 % 8, 1);
                start
            } else {
                let lo = at.min(401 - window.len());
                let mut start = vec![0u64; 401];
                start[lo..lo + window.len()].copy_from_slice(&window);
                start[lo] += 1;
                start
            };
            let states = counts.len();
            let mut v = CountVector::with_ticket_cap(counts, cap);
            let mut rng = SmallRng::seed_from_u64(seed);
            for (step, &(op, at, amount)) in ops.iter().enumerate() {
                let i = at % states;
                let total = v.total();
                // An agent drawn by ticket, so moves start where agents are.
                let agent = (total > 0).then(|| reference_tickets(&v.counts)[at % total as usize]);
                match op {
                    0 => {
                        if let Some(from) = agent {
                            v.shift(from, i);
                        }
                    }
                    1 => {
                        if let Some(from) = agent {
                            let to = if amount % 2 == 0 { from.saturating_sub(1) } else { (from + 1).min(states - 1) };
                            v.shift(from, to);
                        }
                    }
                    2 => {
                        if total >= 2 {
                            let j = (i + amount as usize) % states;
                            v.interact(&mut rng, amount % 3 == 0, |si, sj, _| {
                                (if amount % 2 == 0 { i } else { si.saturating_sub(1) }, if amount % 3 == 0 { sj } else { j })
                            });
                        }
                    }
                    3 => v.add(i, amount),
                    4 => v.set(i, amount),
                    5 => v.remove_uniform(&mut rng, amount.min(total)),
                    6 => {
                        // Just past the cap, or back below it.
                        let target = if amount % 2 == 0 { cap + 1 + amount % 3 } else { cap - amount % cap };
                        v.resize_to(&mut rng, target, i);
                        prop_assert_eq!(v.total(), target);
                    }
                    7 => {
                        let from = v.occupied().map_or(0, |w| w.start + at % w.len());
                        let moved = amount.min(v.counts[from]) as i64;
                        let mut delta = vec![0i64; states];
                        delta[from] -= moved;
                        delta[i] += moved;
                        prop_assert!(v.try_apply(&delta));
                    }
                    _ => {
                        v.resize_to(&mut rng, 0, i);
                        v.add(i, amount % 3 + 2);
                    }
                }
                assert_consistent(&v);
                if v.total() < 2 {
                    continue;
                }
                prop_assert_eq!(v.tickets_ready(), v.total() <= cap, "step {}", step);
                assert_consistent(&v);
                if !v.table.fresh {
                    assert_draws_match(&v, seed ^ step as u64, 16);
                }
            }
        }
    }

    /// Every offset of windows exactly 1, 32, 33 and 160 states wide
    /// (interior empty states included) and of the Lemma 4.4 start vector
    /// (one agent at 400, the rest at 0: 401 states) maps to the state the
    /// scan from state 0 returns: one pass serves every width.
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
            (with_window(7, 32), 32),
            (with_window(7, 33), 33),
            (with_window(45, 160), 160),
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

    /// A count vector with the ticket table and one without replay the
    /// same interactions step for step, in counts and RNG words, while
    /// resizes take the population across the table's cap both ways: the
    /// lemmas' one-way CHVP from the Lemma 4.4 start, then a two-way
    /// transition that moves both agents up or down.
    #[test]
    fn ticketed_and_plain_vectors_replay_each_other_across_the_cap() {
        const CAP: u64 = 3_000;
        let mut counts = vec![0u64; 401];
        (counts[0], counts[400]) = (1_999, 1);
        let mut ticketed = CountVector::with_ticket_cap(counts.clone(), CAP);
        let mut plain = CountVector::new(counts);
        let (mut a, mut b) = (SmallRng::seed_from_u64(5), SmallRng::seed_from_u64(5));
        let chvp = |si: usize, sj: usize, _: &mut SmallRng| (si.max(sj).saturating_sub(1), sj);
        let two_way =
            |si: usize, sj: usize, _: &mut SmallRng| ((si + sj).div_ceil(2), (si + 2 * sj) / 3);
        let targets = [CAP + 500, CAP, 1_200, CAP + 1, CAP - 1, 40_000, 2_500];
        for (round, &target) in targets.iter().enumerate() {
            for step in 0..2_000 {
                if round < 4 {
                    ticketed.interact(&mut a, true, chvp);
                    plain.interact(&mut b, true, chvp);
                } else {
                    ticketed.interact(&mut a, false, two_way);
                    plain.interact(&mut b, false, two_way);
                }
                assert_eq!(&ticketed[..], &plain[..], "round {round}, step {step}");
            }
            assert_eq!(ticketed.table.fresh, ticketed.total() <= CAP);
            assert_consistent(&ticketed);
            ticketed.resize_to(&mut a, target, 400);
            plain.resize_to(&mut b, target, 400);
            assert_eq!(&ticketed[..], &plain[..], "resize to {target}");
        }
        assert_eq!(a.next_u64(), b.next_u64(), "RNG words drifted");
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
