//! Count-based simulation of finite-state protocols.
//!
//! For a protocol whose state space is small (binary epidemics, bounded
//! CHVP), the configuration is fully described by one counter per state.
//! [`CountSimulator`] samples each interaction directly from the counters —
//! exactly the same distribution as the agent-array simulator, verified by
//! cross-checking integration tests — with O(#states) memory regardless of
//! `n`. This enables validating the paper's substrate lemmas (4.2–4.4) at
//! populations far beyond what an agent array would hold.
//!
//! Weighted sampling runs in one of three modes, chosen by the state-space
//! width and the recent mutation pattern, and invisible in behavior: all
//! three compute the **same draw-to-state mapping** (the CDF inverse
//! `i : prefix(i) <= r < prefix(i + 1)`) from the same one RNG word per
//! draw, pinned by equivalence and RNG-budget tests:
//!
//! * **narrow** (`#states < CUMSUM_MIN_STATES`) — a linear scan over the
//!   tracked occupied range, O(#occupied) per draw with tiny constants;
//! * **wide** — a cached cumulative-sum (Fenwick) tree over the counts,
//!   O(log #states) per draw and per count update, so a 10³-state
//!   substrate no longer pays a 10³-entry scan per interaction;
//! * **wide + static** — once a wide-state distribution has held still for
//!   `max(64, #states)` consecutive net-no-op steps, an `AliasIndex`
//!   bucket table is built over the frozen CDF and answers draws in O(1)
//!   expected until the next mutation invalidates it (the ROADMAP's
//!   "alias-table sampler beats the Fenwick tree on static distributions"
//!   target — late epidemics and other quiescing substrates spend most
//!   steps in exactly this regime).

use crate::removal::remove_uniform_counts;
use pp_model::FiniteProtocol;
use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};

/// State-space width at which sampling switches from the linear
/// occupied-range scan to the cached cumulative-sum tree. Below this the
/// scan's tiny constants win (two-state epidemics scan one or two
/// entries); above it the O(log #states) tree wins and keeps wide
/// substrates (bounded CHVP with m in the hundreds, mod-m clocks) off the
/// O(#states) per-interaction path.
const CUMSUM_MIN_STATES: usize = 64;

/// Floor on the consecutive net-no-op steps required before a wide-state
/// simulator freezes the current distribution into an `AliasIndex`. The
/// effective threshold is `max(64, #states)` — see
/// `CountSimulator::alias_rebuild_after` — so the O(#states + #buckets)
/// rebuild is always amortized over at least #states unchanged steps:
/// always-mutating protocols never pay it (they keep the pure Fenwick
/// path), a substrate that mutates every ~100 steps pays at most O(1)
/// amortized per step, and quiescing substrates reach the O(1) draw mode
/// after one state-count's worth of silence.
const ALIAS_REBUILD_FLOOR: u32 = 64;

/// An alias-style bucket-jump table over the cumulative state counts,
/// answering weighted draws for a *static* (between-mutation) distribution
/// in O(1) expected.
///
/// Design note: this is the static-distribution sampler the ROADMAP calls
/// an "alias table", but it is deliberately **not** Vose's permuted table.
/// Vose aliasing redistributes probability mass across buckets, so its
/// draw-to-state map differs from the CDF inverse — it would sample the
/// same distribution while following a different trajectory, breaking the
/// crate's sampler-equivalence contract (recorded traces, golden rows, and
/// the `*_produce_identical_trajectories` tests all pin the mapping).
/// Instead each bucket stores where the CDF inverse *starts* for its slice
/// of `[0, total)`; a draw jumps to that state and walks forward. With
/// `#buckets ≈ 2·#states` the expected walk is O(1), and the mapping is
/// bit-for-bit the linear scan's and the Fenwick descent's.
#[derive(Debug, Clone)]
struct AliasIndex {
    /// `prefix[i]` = total count of states `< i` (len = #states + 1).
    prefix: Vec<u64>,
    /// `bucket[b]` = CDF-inverse of offset `b << shift`: the scan start
    /// for draws landing in bucket `b`.
    bucket: Vec<u32>,
    /// log2 of the bucket width.
    shift: u32,
    /// Total mass the index was built for (the population at build time).
    total: u64,
}

impl AliasIndex {
    /// Freezes `counts` into an index, or `None` for an empty population.
    fn build(counts: &[u64]) -> Option<Self> {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let s = counts.len() as u64;
        let mut shift = 0u32;
        while (total >> shift) > 2 * s {
            shift += 1;
        }
        let buckets = ((total - 1) >> shift) as usize + 1;
        let mut prefix = Vec::with_capacity(counts.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for &c in counts {
            acc += c;
            prefix.push(acc);
        }
        let mut bucket = Vec::with_capacity(buckets);
        let mut state = 0u32;
        for b in 0..buckets as u64 {
            let r = b << shift;
            while prefix[state as usize + 1] <= r {
                state += 1;
            }
            bucket.push(state);
        }
        Some(AliasIndex {
            prefix,
            bucket,
            shift,
            total,
        })
    }

    /// The state containing offset `r` of the cumulative distribution —
    /// exactly the index the linear scan and the Fenwick descent return.
    #[inline]
    fn sample(&self, r: u64) -> usize {
        let mut i = self.bucket[(r >> self.shift) as usize] as usize;
        while self.prefix[i + 1] <= r {
            i += 1;
        }
        i
    }

    /// The state containing offset `r` of the cumulative distribution with
    /// one agent of state `removed` taken out (total mass `total − 1`),
    /// without rebuilding.
    ///
    /// Derivation: with `c′_removed = c_removed − 1`, every prefix entry
    /// past `removed` drops by one, so the decremented CDF inverse equals
    /// `sample(r)` for `r < prefix[removed + 1] − 1` and `sample(r + 1)`
    /// beyond — the responder draw of a step can therefore reuse the
    /// initiator's frozen table.
    #[inline]
    fn sample_removed(&self, r: u64, removed: usize) -> usize {
        if r + 1 >= self.prefix[removed + 1] {
            self.sample(r + 1)
        } else {
            self.sample(r)
        }
    }
}

/// A Fenwick (binary-indexed) tree caching cumulative state counts.
///
/// Supports O(log len) point updates and an O(log len) weighted draw by
/// binary-search descent. The descent returns **exactly** the index the
/// linear scan would: the unique state `i` with
/// `prefix(i) <= r < prefix(i + 1)`.
#[derive(Debug, Clone)]
struct PrefixCounts {
    /// 1-indexed Fenwick array; `tree[0]` is unused.
    tree: Vec<u64>,
    /// Largest power of two ≤ the number of states (descent start).
    top: usize,
}

impl PrefixCounts {
    /// Builds the tree from per-state counts in O(len).
    fn build(counts: &[u64]) -> Self {
        let len = counts.len();
        let mut tree = vec![0u64; len + 1];
        for (i, &c) in counts.iter().enumerate() {
            let j = i + 1;
            tree[j] += c;
            let parent = j + (j & j.wrapping_neg());
            if parent <= len {
                tree[parent] += tree[j];
            }
        }
        let top = if len == 0 {
            0
        } else {
            1usize << (usize::BITS - 1 - len.leading_zeros())
        };
        PrefixCounts { tree, top }
    }

    /// Adds `delta` to state `i`'s count.
    fn add(&mut self, i: usize, delta: u64) {
        let mut j = i + 1;
        while j < self.tree.len() {
            self.tree[j] += delta;
            j += j & j.wrapping_neg();
        }
    }

    /// Subtracts `delta` from state `i`'s count.
    fn sub(&mut self, i: usize, delta: u64) {
        let mut j = i + 1;
        while j < self.tree.len() {
            self.tree[j] -= delta;
            j += j & j.wrapping_neg();
        }
    }

    /// The state containing offset `r` of the cumulative distribution.
    fn sample(&self, mut r: u64) -> usize {
        let mut pos = 0usize;
        let mut step = self.top;
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] <= r {
                r -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos
    }
}

/// An execution of a finite-state protocol represented by state counts.
///
/// The generator type parameter `R` defaults to [`SmallRng`]; tests inject
/// an instrumented RNG via [`CountSimulator::from_counts_with_rng`] to pin
/// down the exact number of random words a step consumes.
///
/// # Examples
///
/// ```
/// use pp_model::{FiniteProtocol, Protocol};
/// use pp_sim::CountSimulator;
/// use rand::Rng;
///
/// struct Or;
/// impl Protocol for Or {
///     type State = bool;
///     fn initial_state(&self) -> bool { false }
///     fn interact<R: Rng + ?Sized>(&self, u: &mut bool, v: &mut bool, _: &mut R) { *u = *u || *v; }
/// }
/// impl FiniteProtocol for Or {
///     fn num_states(&self) -> usize { 2 }
///     fn state_index(&self, s: &bool) -> usize { usize::from(*s) }
///     fn state_from_index(&self, i: usize) -> bool { i == 1 }
/// }
///
/// let mut sim = CountSimulator::with_seed(Or, 10_000, 99);
/// sim.set_count(1, 1);       // one infected agent
/// sim.set_count(0, 9_999);
/// sim.run_parallel_time(40.0);
/// assert_eq!(sim.count(1), 10_000);
/// ```
#[derive(Debug)]
pub struct CountSimulator<P: FiniteProtocol, R: Rng = SmallRng> {
    protocol: P,
    counts: Vec<u64>,
    n: u64,
    rng: R,
    interactions: u64,
    parallel_time: f64,
    /// Exclusive upper bound on occupied state indices; bounds the
    /// weighted-sampling scan. Grows eagerly when a state becomes
    /// occupied and shrinks lazily when the top states empty out.
    occupied_hi: usize,
    /// Cached cumulative counts for the wide-state-space sampling mode
    /// (`None` below [`CUMSUM_MIN_STATES`]: the linear scan wins there).
    prefix: Option<PrefixCounts>,
    /// Frozen O(1) sampler for static distributions (wide spaces only);
    /// valid only while `alias_clean`.
    alias: Option<AliasIndex>,
    /// Whether `alias` matches the current counts.
    alias_clean: bool,
    /// Consecutive net-no-op steps since the last count mutation — the
    /// trigger for (re)building `alias`.
    noop_streak: u32,
}

/// The cumulative-sum tree for `counts`, when the state space is wide
/// enough for it to pay off.
fn prefix_for(counts: &[u64]) -> Option<PrefixCounts> {
    (counts.len() >= CUMSUM_MIN_STATES).then(|| PrefixCounts::build(counts))
}

impl<P: FiniteProtocol> CountSimulator<P, SmallRng> {
    /// Creates a simulator of `n` agents in the protocol's initial state.
    pub fn with_seed(protocol: P, n: u64, seed: u64) -> Self {
        let mut counts = vec![0u64; protocol.num_states()];
        let mut occupied_hi = 0;
        if n > 0 {
            let init = protocol.state_index(&protocol.initial_state());
            counts[init] = n;
            occupied_hi = init + 1;
        }
        let prefix = prefix_for(&counts);
        CountSimulator {
            protocol,
            counts,
            n,
            rng: SmallRng::seed_from_u64(seed),
            interactions: 0,
            parallel_time: 0.0,
            occupied_hi,
            prefix,
            alias: None,
            alias_clean: false,
            noop_streak: 0,
        }
    }

    /// Creates a simulator from explicit per-state counts.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != protocol.num_states()`.
    pub fn from_counts(protocol: P, counts: Vec<u64>, seed: u64) -> Self {
        Self::from_counts_with_rng(protocol, counts, SmallRng::seed_from_u64(seed))
    }
}

impl<P: FiniteProtocol, R: Rng> CountSimulator<P, R> {
    /// Creates a simulator from explicit per-state counts and an explicit
    /// generator (the instrumentation entry point).
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != protocol.num_states()`.
    pub fn from_counts_with_rng(protocol: P, counts: Vec<u64>, rng: R) -> Self {
        assert_eq!(
            counts.len(),
            protocol.num_states(),
            "counts must cover every state"
        );
        let n = counts.iter().sum();
        let occupied_hi = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        let prefix = prefix_for(&counts);
        CountSimulator {
            protocol,
            counts,
            n,
            rng,
            interactions: 0,
            parallel_time: 0.0,
            occupied_hi,
            prefix,
            alias: None,
            alias_clean: false,
            noop_streak: 0,
        }
    }

    /// Rebuilds a simulator from checkpointed state: per-state counts, the
    /// generator mid-stream, and the clocks.
    ///
    /// Only the five arguments are serialized; everything else is derived.
    /// `occupied_hi` and the prefix tree rebuild from the counts (pinned
    /// equal to the incrementally maintained versions by the
    /// `prefix_tree_stays_consistent_with_counts` test), and the sampler
    /// accelerators (`alias`, `noop_streak`) restart cold — they select a
    /// sampling *mode*, and all modes are draw-for-draw identical (pinned by
    /// `tree_and_linear_samplers_produce_identical_trajectories` and
    /// `alias_sampler_engages_and_matches_the_linear_trajectory`), so a
    /// restored simulator replays the uninterrupted run bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != protocol.num_states()`.
    pub fn restore(
        protocol: P,
        counts: Vec<u64>,
        rng: R,
        interactions: u64,
        parallel_time: f64,
    ) -> Self {
        let mut sim = Self::from_counts_with_rng(protocol, counts, rng);
        sim.interactions = interactions;
        sim.parallel_time = parallel_time;
        sim
    }

    /// The protocol under simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Population size.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// Interactions simulated so far.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Parallel time elapsed.
    pub fn parallel_time(&self) -> f64 {
        self.parallel_time
    }

    /// Count of agents in the state with index `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// The simulator's generator (read-only; instrumented RNGs injected via
    /// [`CountSimulator::from_counts_with_rng`] expose their counters here).
    pub fn rng(&self) -> &R {
        &self.rng
    }

    /// All per-state counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// No-op streak at which a dirty alias table is (re)built: at least
    /// [`ALIAS_REBUILD_FLOOR`], scaled to the state count so the
    /// O(#states) rebuild stays amortized whatever the mutation cadence.
    #[inline]
    fn alias_rebuild_after(&self) -> u32 {
        (self.counts.len() as u32).max(ALIAS_REBUILD_FLOOR)
    }

    /// Drops the frozen static-distribution sampler: the counts are about
    /// to change out from under it.
    #[inline]
    fn invalidate_alias(&mut self) {
        self.alias_clean = false;
        self.noop_streak = 0;
    }

    /// Overwrites the count of state `i` (population setup).
    ///
    /// O(1): the population total is adjusted by the delta instead of
    /// re-summing every state.
    pub fn set_count(&mut self, i: usize, count: u64) {
        self.invalidate_alias();
        let old = self.counts[i];
        self.n = self.n - old + count;
        self.counts[i] = count;
        if count > 0 {
            self.occupied_hi = self.occupied_hi.max(i + 1);
        }
        if let Some(prefix) = &mut self.prefix {
            if count >= old {
                prefix.add(i, count - old);
            } else {
                prefix.sub(i, old - count);
            }
        }
    }

    /// Smallest state index with a nonzero count.
    pub fn min_occupied(&self) -> Option<usize> {
        self.counts.iter().position(|&c| c > 0)
    }

    /// Largest state index with a nonzero count.
    pub fn max_occupied(&self) -> Option<usize> {
        self.counts[..self.occupied_hi].iter().rposition(|&c| c > 0)
    }

    /// Draws a state index weighted by `counts`, given their current total.
    ///
    /// Exactly one RNG word per draw in either sampling mode, and the same
    /// word-to-state mapping: the state `i` with `prefix(i) <= r <
    /// prefix(i + 1)`. Narrow state spaces scan the tracked occupied
    /// range (O(#occupied), tiny constants); wide ones descend the cached
    /// cumulative-sum tree (O(log #states)).
    #[inline]
    fn sample_state(&mut self, total: u64) -> usize {
        debug_assert!(total > 0);
        if let Some(prefix) = &self.prefix {
            return prefix.sample(self.rng.random_range(0..total));
        }
        // Lazily tighten the bound: decrements in `step` may have emptied
        // the top of the range.
        while self.occupied_hi > 0 && self.counts[self.occupied_hi - 1] == 0 {
            self.occupied_hi -= 1;
        }
        let mut r = self.rng.random_range(0..total);
        for (i, &c) in self.counts[..self.occupied_hi].iter().enumerate() {
            if r < c {
                return i;
            }
            r -= c;
        }
        unreachable!("counts changed during sampling");
    }

    /// Decrements state `i`'s count, keeping the cumulative cache in sync.
    #[inline]
    fn decrement(&mut self, i: usize) {
        self.counts[i] -= 1;
        if let Some(prefix) = &mut self.prefix {
            prefix.sub(i, 1);
        }
    }

    /// Increments state `i`'s count, keeping the cumulative cache and the
    /// occupied bound in sync.
    #[inline]
    fn increment(&mut self, i: usize) {
        self.counts[i] += 1;
        self.occupied_hi = self.occupied_hi.max(i + 1);
        if let Some(prefix) = &mut self.prefix {
            prefix.add(i, 1);
        }
    }

    /// Simulates one interaction.
    ///
    /// Draws go through the frozen alias table while it is valid (the
    /// responder draw adjusts for the initiator's decrement in O(1)), and
    /// through the Fenwick/linear samplers otherwise. All paths consume
    /// one RNG word per draw and compute the same CDF-inverse mapping, so
    /// the trajectory is independent of the mode.
    ///
    /// # Panics
    ///
    /// Panics if the population has fewer than two agents.
    pub fn step(&mut self) {
        assert!(self.n >= 2, "an interaction needs at least two agents");
        if self.alias_clean {
            self.step_via_alias();
        } else {
            self.step_via_samplers();
        }
        self.interactions += 1;
        self.parallel_time += 1.0 / self.n as f64;
    }

    /// The static-distribution fast path: O(1)-expected draws from the
    /// frozen table and **no** Fenwick traffic while the step leaves the
    /// counts unchanged — the tree is never read in this mode, so its
    /// four per-step updates are deferred to the (rare) effective step
    /// that exits the mode, where the deltas are reconciled in one go.
    fn step_via_alias(&mut self) {
        debug_assert_eq!(
            self.alias.as_ref().expect("clean implies built").total,
            self.n,
            "clean table must match n"
        );
        let r1 = self.rng.random_range(0..self.n);
        let si = self.alias.as_ref().expect("clean implies built").sample(r1);
        let r2 = self.rng.random_range(0..self.n - 1);
        let sj = self
            .alias
            .as_ref()
            .expect("clean implies built")
            .sample_removed(r2, si);
        let mut u = self.protocol.state_from_index(si);
        let mut v = self.protocol.state_from_index(sj);
        self.protocol.interact(&mut u, &mut v, &mut self.rng);
        let oi = self.protocol.state_index(&u);
        let oj = self.protocol.state_index(&v);
        if (oi == si && oj == sj) || (oi == sj && oj == si) {
            // Net no-op: every count (and the Fenwick tree, untouched)
            // is exactly as before the step.
            return;
        }
        self.counts[si] -= 1;
        self.counts[sj] -= 1;
        self.counts[oi] += 1;
        self.counts[oj] += 1;
        self.occupied_hi = self.occupied_hi.max(oi + 1).max(oj + 1);
        if let Some(prefix) = &mut self.prefix {
            prefix.sub(si, 1);
            prefix.sub(sj, 1);
            prefix.add(oi, 1);
            prefix.add(oj, 1);
        }
        self.invalidate_alias();
    }

    /// The general path: weighted draws through the Fenwick tree or the
    /// linear occupied-range scan, with eager per-draw count updates, plus
    /// the no-op-streak bookkeeping that freezes a wide static
    /// distribution into the alias table.
    fn step_via_samplers(&mut self) {
        let si = self.sample_state(self.n);
        self.decrement(si);
        let sj = self.sample_state(self.n - 1);
        self.decrement(sj);
        let mut u = self.protocol.state_from_index(si);
        let mut v = self.protocol.state_from_index(sj);
        self.protocol.interact(&mut u, &mut v, &mut self.rng);
        let oi = self.protocol.state_index(&u);
        let oj = self.protocol.state_index(&v);
        self.increment(oi);
        self.increment(oj);
        // Static-distribution bookkeeping (wide spaces only): a step whose
        // outputs equal its inputs as a multiset left every count where it
        // was. A long enough run of such steps freezes the distribution
        // into the O(1) alias table; any count change resets the streak.
        if self.prefix.is_some() {
            let unchanged = (oi == si && oj == sj) || (oi == sj && oj == si);
            if unchanged {
                self.noop_streak += 1;
                if self.noop_streak >= self.alias_rebuild_after() {
                    self.alias = AliasIndex::build(&self.counts);
                    self.alias_clean = self.alias.is_some();
                    self.noop_streak = 0;
                }
            } else {
                self.invalidate_alias();
            }
        }
    }

    /// Simulates `count` interactions.
    pub fn step_n(&mut self, count: u64) {
        for _ in 0..count {
            self.step();
        }
    }

    /// Runs for `duration` units of parallel time.
    ///
    /// With a population of fewer than two agents, time passes without
    /// interactions (matching the agent-array simulator's convention).
    pub fn run_parallel_time(&mut self, duration: f64) {
        let target = self.parallel_time + duration;
        if self.n < 2 {
            self.parallel_time = target;
            return;
        }
        while self.parallel_time < target {
            self.step();
        }
    }

    /// Adds `count` agents in the protocol's initial state (the dynamic
    /// adversary's *add*).
    pub fn add_agents(&mut self, count: u64) {
        self.invalidate_alias();
        let init = self.protocol.state_index(&self.protocol.initial_state());
        self.counts[init] += count;
        self.n += count;
        self.occupied_hi = self.occupied_hi.max(init + 1);
        if let Some(prefix) = &mut self.prefix {
            prefix.add(init, count);
        }
    }

    /// Removes `count` agents chosen uniformly at random without
    /// replacement (the count representation of uniform agent removal),
    /// as one multivariate hypergeometric draw over the count vector
    /// (`remove_uniform_counts`).
    ///
    /// Cost is O(#occupied states) with at most one RNG word per occupied
    /// state, whatever `count` and `n` are: a near-total crash (the
    /// paper's Fig. 4 removes all but 500 of 10⁶) costs the same as a
    /// single removal. The Fenwick tree is updated in place per state.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the population size.
    pub fn remove_uniform(&mut self, count: u64) {
        self.invalidate_alias();
        let prefix = &mut self.prefix;
        remove_uniform_counts(
            &mut self.rng,
            &mut self.counts[..self.occupied_hi],
            self.n,
            count,
            |i, share| {
                if let Some(prefix) = prefix {
                    prefix.sub(i, share);
                }
            },
        );
        self.n -= count;
        while self.occupied_hi > 0 && self.counts[self.occupied_hi - 1] == 0 {
            self.occupied_hi -= 1;
        }
    }

    /// Resizes the population to `target`: grows with fresh agents or
    /// shrinks by uniform removal.
    pub fn resize_to(&mut self, target: u64) {
        if target > self.n {
            self.add_agents(target - self.n);
        } else {
            self.remove_uniform(self.n - target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_model::Protocol;
    use rand::Rng;

    struct Or;
    impl Protocol for Or {
        type State = bool;
        fn initial_state(&self) -> bool {
            false
        }
        fn interact<R: Rng + ?Sized>(&self, u: &mut bool, v: &mut bool, _: &mut R) {
            *u = *u || *v;
        }
    }
    impl FiniteProtocol for Or {
        fn num_states(&self) -> usize {
            2
        }
        fn state_index(&self, s: &bool) -> usize {
            usize::from(*s)
        }
        fn state_from_index(&self, i: usize) -> bool {
            i == 1
        }
    }

    /// An RNG wrapper counting the 64-bit words drawn through it.
    struct CountingRng {
        inner: SmallRng,
        words: u64,
    }

    impl CountingRng {
        fn seeded(seed: u64) -> Self {
            CountingRng {
                inner: SmallRng::seed_from_u64(seed),
                words: 0,
            }
        }
    }

    impl Rng for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }
    }

    /// Regression guard for the per-step randomness budget: one step of an
    /// RNG-free protocol draws exactly two words (one weighted state draw
    /// for the initiator, one for the responder). Lemire rejection could in
    /// principle add retries, but its per-draw probability is `total/2^64`
    /// and the seed is fixed, so the count is deterministic. If this test
    /// starts failing after an engine change, the change altered how much
    /// randomness a step consumes — which silently breaks every recorded
    /// trace — so account for it deliberately, don't just bump the number.
    #[test]
    fn step_consumes_exactly_two_rng_words() {
        let steps = 1_000u64;
        let mut sim =
            CountSimulator::from_counts_with_rng(Or, vec![600, 400], CountingRng::seeded(12));
        assert!(sim.prefix.is_none(), "two states must use the linear scan");
        sim.step_n(steps);
        assert_eq!(sim.rng().words, 2 * steps);
    }

    /// A wide-state-space fixture (well above [`CUMSUM_MIN_STATES`]):
    /// one-sided "drift towards the larger value, plus one, capped".
    /// RNG-free transitions, so the per-step word budget is pure sampler.
    #[derive(Clone)]
    struct Drift;
    const DRIFT_STATES: usize = 300;
    impl Protocol for Drift {
        type State = u16;
        fn initial_state(&self) -> u16 {
            0
        }
        fn interact<R: Rng + ?Sized>(&self, u: &mut u16, v: &mut u16, _: &mut R) {
            *u = (*u).max(*v).saturating_add(1).min(DRIFT_STATES as u16 - 1);
        }
    }
    impl FiniteProtocol for Drift {
        fn num_states(&self) -> usize {
            DRIFT_STATES
        }
        fn state_index(&self, s: &u16) -> usize {
            *s as usize
        }
        fn state_from_index(&self, i: usize) -> u16 {
            i as u16
        }
    }

    /// Same draw-order guard for the cumulative-sum sampler: the tree draw
    /// is still one word per state sample, so wide state spaces keep the
    /// exact per-step randomness budget of the linear scan — recorded
    /// traces stay valid whichever sampler a state-space width selects.
    #[test]
    fn wide_state_step_consumes_exactly_two_rng_words() {
        let steps = 1_000u64;
        let mut counts = vec![0u64; DRIFT_STATES];
        counts[0] = 700;
        counts[150] = 200;
        counts[DRIFT_STATES - 1] = 100;
        let mut sim = CountSimulator::from_counts_with_rng(Drift, counts, CountingRng::seeded(13));
        assert!(sim.prefix.is_some(), "wide spaces must use the tree");
        sim.step_n(steps);
        assert_eq!(sim.rng().words, 2 * steps);
    }

    /// The tree sampler must be draw-for-draw identical to the linear scan
    /// — same seed, same trajectory — including across count mutations
    /// from adversary-style operations.
    #[test]
    fn tree_and_linear_samplers_produce_identical_trajectories() {
        let mut counts = vec![0u64; DRIFT_STATES];
        counts[0] = 900;
        counts[7] = 50;
        counts[220] = 50;
        let mut tree_sim = CountSimulator::from_counts(Drift, counts.clone(), 77);
        let mut linear_sim = CountSimulator::from_counts(Drift, counts, 77);
        linear_sim.prefix = None; // force the narrow-space path
        for round in 0..20 {
            tree_sim.step_n(200);
            linear_sim.step_n(200);
            assert_eq!(
                tree_sim.counts(),
                linear_sim.counts(),
                "trajectories diverged in round {round}"
            );
            match round % 3 {
                0 => {
                    tree_sim.remove_uniform(40);
                    linear_sim.remove_uniform(40);
                }
                1 => {
                    tree_sim.add_agents(40);
                    linear_sim.add_agents(40);
                }
                _ => {
                    let c = tree_sim.count(5);
                    tree_sim.set_count(5, c + 3);
                    linear_sim.set_count(5, c + 3);
                }
            }
            assert_eq!(tree_sim.counts(), linear_sim.counts());
            assert_eq!(tree_sim.population(), linear_sim.population());
        }
    }

    /// The incremental tree updates must stay consistent with a fresh
    /// rebuild after arbitrary mutations (including the per-state in-place
    /// updates of a near-total removal).
    #[test]
    fn prefix_tree_stays_consistent_with_counts() {
        let mut counts = vec![0u64; DRIFT_STATES];
        counts[3] = 500;
        counts[100] = 500;
        let mut sim = CountSimulator::from_counts(Drift, counts, 31);
        sim.step_n(500);
        sim.remove_uniform(900); // near-total: large per-state shares
        sim.add_agents(25);
        sim.set_count(42, 17);
        sim.step_n(100);
        let rebuilt = PrefixCounts::build(sim.counts());
        assert_eq!(
            sim.prefix.as_ref().expect("wide space keeps a tree").tree,
            rebuilt.tree
        );
    }

    /// The bucket-jump table must compute the exact CDF inverse — for
    /// every offset, and for every offset of the one-removed distribution
    /// the responder draw samples — so alias-mode steps replay the same
    /// trajectory as the scan and the tree.
    #[test]
    fn alias_index_matches_the_cdf_inverse_exhaustively() {
        let counts = vec![3u64, 0, 5, 1, 0, 2];
        let idx = AliasIndex::build(&counts).unwrap();
        let linear = |cs: &[u64], mut r: u64| {
            for (i, &c) in cs.iter().enumerate() {
                if r < c {
                    return i;
                }
                r -= c;
            }
            unreachable!("offset beyond total");
        };
        let total: u64 = counts.iter().sum();
        for r in 0..total {
            assert_eq!(idx.sample(r), linear(&counts, r), "offset {r}");
        }
        for removed in [0usize, 2, 3, 5] {
            let mut dec = counts.clone();
            dec[removed] -= 1;
            for r in 0..total - 1 {
                assert_eq!(
                    idx.sample_removed(r, removed),
                    linear(&dec, r),
                    "offset {r} with state {removed} decremented"
                );
            }
        }
    }

    /// A protocol whose transitions never change any count: the pure
    /// static-distribution regime the alias table exists for.
    #[derive(Clone)]
    struct Inert;
    impl Protocol for Inert {
        type State = u16;
        fn initial_state(&self) -> u16 {
            0
        }
        fn interact<R: Rng + ?Sized>(&self, _u: &mut u16, _v: &mut u16, _: &mut R) {}
    }
    impl FiniteProtocol for Inert {
        fn num_states(&self) -> usize {
            DRIFT_STATES
        }
        fn state_index(&self, s: &u16) -> usize {
            *s as usize
        }
        fn state_from_index(&self, i: usize) -> u16 {
            i as u16
        }
    }

    fn spread_counts() -> Vec<u64> {
        let mut counts = vec![0u64; DRIFT_STATES];
        counts[0] = 500;
        counts[13] = 250;
        counts[170] = 200;
        counts[DRIFT_STATES - 1] = 50;
        counts
    }

    /// On a static wide-state distribution the alias table must engage
    /// (after the no-op streak threshold) and keep the trajectory
    /// draw-for-draw identical to the forced linear scan.
    #[test]
    fn alias_sampler_engages_and_matches_the_linear_trajectory() {
        let mut alias_sim = CountSimulator::from_counts(Inert, spread_counts(), 55);
        let mut linear_sim = CountSimulator::from_counts(Inert, spread_counts(), 55);
        linear_sim.prefix = None; // force the narrow-space path (no alias either)
        for round in 0..10 {
            alias_sim.step_n(200);
            linear_sim.step_n(200);
            assert_eq!(
                alias_sim.counts(),
                linear_sim.counts(),
                "trajectories diverged in round {round}"
            );
        }
        assert!(
            alias_sim.alias_clean && alias_sim.alias.is_some(),
            "a static distribution must have frozen into the alias table"
        );
        assert!(linear_sim.alias.is_none());
        // A mutation invalidates the table; trajectories must stay equal.
        alias_sim.set_count(7, 40);
        linear_sim.set_count(7, 40);
        assert!(!alias_sim.alias_clean, "mutation must invalidate the table");
        alias_sim.step_n(500);
        linear_sim.step_n(500);
        assert_eq!(alias_sim.counts(), linear_sim.counts());
        assert!(
            alias_sim.alias_clean,
            "the distribution is static again, so the table must have rebuilt"
        );
    }

    /// Alias-mode steps keep the exact per-step randomness budget: one
    /// word per weighted draw, two per step — recorded traces stay valid
    /// whichever sampler the mutation pattern selects (the same guard the
    /// linear and Fenwick modes carry above).
    #[test]
    fn alias_path_consumes_exactly_two_rng_words_per_step() {
        let steps = 1_000u64;
        let mut sim =
            CountSimulator::from_counts_with_rng(Inert, spread_counts(), CountingRng::seeded(14));
        sim.step_n(steps);
        assert!(sim.alias_clean, "inert protocol must reach alias mode");
        assert_eq!(sim.rng().words, 2 * steps);
    }

    #[test]
    fn population_is_conserved() {
        let mut sim = CountSimulator::from_counts(Or, vec![99, 1], 5);
        sim.step_n(1_000);
        assert_eq!(sim.counts().iter().sum::<u64>(), 100);
    }

    #[test]
    fn epidemic_infects_everyone() {
        let mut sim = CountSimulator::from_counts(Or, vec![9_999, 1], 6);
        sim.run_parallel_time(60.0);
        assert_eq!(sim.count(1), 10_000, "epidemic did not finish in 60 time");
        assert_eq!(sim.count(0), 0);
    }

    #[test]
    fn infection_is_monotone() {
        let mut sim = CountSimulator::from_counts(Or, vec![500, 500], 7);
        let mut last = sim.count(1);
        for _ in 0..100 {
            sim.step_n(10);
            let now = sim.count(1);
            assert!(now >= last, "infections cannot be cured");
            last = now;
        }
    }

    #[test]
    fn occupied_range_tracks_counts() {
        let mut sim = CountSimulator::from_counts(Or, vec![3, 0], 8);
        assert_eq!(sim.min_occupied(), Some(0));
        assert_eq!(sim.max_occupied(), Some(0));
        sim.set_count(1, 2);
        assert_eq!(sim.max_occupied(), Some(1));
        assert_eq!(sim.population(), 5);
    }

    #[test]
    fn set_count_adjusts_population_incrementally() {
        let mut sim = CountSimulator::from_counts(Or, vec![10, 5], 11);
        sim.set_count(0, 3); // shrink
        assert_eq!(sim.population(), 8);
        sim.set_count(1, 50); // grow
        assert_eq!(sim.population(), 53);
        sim.set_count(1, 0); // empty the top state
        assert_eq!(sim.population(), 3);
        assert_eq!(sim.max_occupied(), Some(0), "bound tightens past zeros");
    }

    #[test]
    fn near_total_removal_samples_survivors() {
        // Removing all but 10 of a million must cost one draw per occupied
        // state, not ~10^6 (the count representation of the paper's Fig. 4
        // crash).
        let mut sim = CountSimulator::from_counts_with_rng(
            Or,
            vec![500_000, 500_000],
            CountingRng::seeded(21),
        );
        sim.remove_uniform(999_990);
        assert_eq!(sim.rng().words, 1, "two occupied states: one draw");
        assert_eq!(sim.population(), 10);
        assert_eq!(sim.counts().iter().sum::<u64>(), 10);
        // Where the 10 survivors land is random — just check bounds
        // invariants.
        assert!(sim.max_occupied().is_some());
        sim.set_count(0, sim.count(0)); // no-op; exercises bound upkeep
        assert_eq!(sim.population(), 10);
    }

    #[test]
    fn small_and_survivor_removal_branches_conserve_population() {
        let mut sim = CountSimulator::from_counts(Or, vec![60, 40], 22);
        sim.remove_uniform(30); // a minority removed (30 of 100)
        assert_eq!(sim.population(), 70);
        sim.remove_uniform(60); // a majority removed (keep 10 of 70)
        assert_eq!(sim.population(), 10);
        assert_eq!(sim.counts().iter().sum::<u64>(), 10);
    }

    #[test]
    fn remove_uniform_to_zero_leaves_a_consistent_empty_simulator() {
        // The batched backend's adversary schedules can crash the whole
        // population mid-run: removing everyone forces every share with
        // zero draws and must leave every invariant (counts, bounds,
        // prefix) consistent, not a half-updated husk.
        let mut sim = CountSimulator::from_counts(Inert, spread_counts(), 61);
        let n = sim.population();
        sim.remove_uniform(n);
        assert_eq!(sim.population(), 0);
        assert!(sim.counts().iter().all(|&c| c == 0));
        assert_eq!(sim.min_occupied(), None);
        assert_eq!(sim.max_occupied(), None);
        // Time still passes on an empty population (no interactions)...
        sim.run_parallel_time(5.0);
        assert!(sim.parallel_time() >= 5.0);
        // ...and the simulator comes back to life when agents are added.
        sim.add_agents(50);
        assert_eq!(sim.population(), 50);
        sim.step_n(100);
        assert_eq!(sim.counts().iter().sum::<u64>(), 50);
    }

    #[test]
    fn removal_and_growth_of_zero_agents_are_no_ops() {
        let mut sim = CountSimulator::from_counts(Or, vec![60, 40], 62);
        let before = sim.counts().to_vec();
        sim.remove_uniform(0);
        sim.add_agents(0);
        sim.resize_to(100);
        assert_eq!(sim.counts(), &before[..]);
        assert_eq!(sim.population(), 100);
    }

    #[test]
    fn mass_removal_shrinks_the_occupied_range_consistently() {
        // A near-total removal empties most states at once; the occupied
        // bound and the Fenwick prefix must both resync with the new
        // (much sparser) configuration or later draws walk off the end of
        // the old range.
        let mut sim = CountSimulator::from_counts(Inert, spread_counts(), 63);
        let n = sim.population();
        sim.remove_uniform(n - 4); // keep 4 of 1000
        assert_eq!(sim.population(), 4);
        let survivors = sim.counts().to_vec();
        let top = survivors.iter().rposition(|&c| c > 0).unwrap();
        assert_eq!(sim.max_occupied(), Some(top), "bound must match counts");
        assert!(
            sim.prefix.is_some(),
            "wide spaces keep the tree after removal"
        );
        // Inert transitions never change counts, so any drift here means
        // the post-removal sampler state was inconsistent.
        sim.step_n(500);
        assert_eq!(sim.counts(), &survivors[..]);
    }

    #[test]
    fn small_branch_removal_that_empties_a_state_tightens_the_bound() {
        // Emptying the high state must not strand max_occupied above the
        // (now empty) top state forever.
        let mut counts = vec![0u64; DRIFT_STATES];
        counts[170] = 100;
        counts[3] = 100;
        let mut sim = CountSimulator::from_counts(Inert, counts, 64);
        sim.set_count(170, 0); // remove-to-zero of the top state mid-run
        assert_eq!(sim.population(), 100);
        assert_eq!(sim.max_occupied(), Some(3));
        sim.step_n(200); // draws must stay inside the live range
        assert_eq!(sim.count(3), 100);
    }

    #[test]
    fn resize_across_the_frozen_alias_mode_stays_consistent() {
        // Freeze the static distribution into the alias table, then hit it
        // with every adversary resize shape: each mutation must invalidate
        // the table, and the table must re-freeze once the distribution is
        // static again — with the trajectory matching a never-frozen twin.
        let mut sim = CountSimulator::from_counts(Inert, spread_counts(), 65);
        sim.step_n(400); // rebuild threshold is max(64, #states) no-ops
        assert!(sim.alias_clean, "inert protocol must reach alias mode");

        sim.resize_to(1_500); // grow across the frozen table
        assert!(!sim.alias_clean, "growth must invalidate the table");
        assert_eq!(sim.population(), 1_500);
        sim.step_n(400);
        assert!(sim.alias_clean, "static again: the table must re-freeze");

        sim.resize_to(12); // near-total shrink across the frozen table
        assert!(!sim.alias_clean, "mass removal must invalidate the table");
        assert_eq!(sim.population(), 12);
        assert_eq!(sim.counts().iter().sum::<u64>(), 12);
        let survivors = sim.counts().to_vec();
        sim.step_n(400);
        assert_eq!(sim.counts(), &survivors[..], "inert counts must not drift");
        assert!(sim.alias_clean, "the table must re-freeze after the crash");
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn stepping_a_lone_agent_panics() {
        let mut sim = CountSimulator::from_counts(Or, vec![1, 0], 9);
        sim.step();
    }

    #[test]
    #[should_panic(expected = "cover every state")]
    fn from_counts_validates_length() {
        let _ = CountSimulator::from_counts(Or, vec![1, 2, 3], 10);
    }
}
