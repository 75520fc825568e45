//! Batched (tau-leaping) count dynamics: advance many interactions per
//! draw instead of one.
//!
//! At the paper's asymptotic regime (n = 10⁹ and beyond) even the count
//! representation is too slow when every interaction costs a step: a
//! 240-parallel-time epidemic horizon is 2.4·10¹¹ interactions. The
//! scheduler, however, is exchangeable within a short window — as long as
//! the counts have not drifted much, the next `k` interactions are an
//! i.i.d. sample from the *current* pair distribution. [tau-leaping]
//! exploits exactly this: sample how many of the next `k` interactions
//! land on each ordered state pair (a multinomial, realized by sequential
//! binomial splitting over the pair-weight table), apply the pair deltas
//! in bulk, and advance the clock by `k/n` at once.
//!
//! [tau-leaping]: https://en.wikipedia.org/wiki/Tau-leaping
//!
//! # Accuracy contract
//!
//! Batched runs are **distribution-level approximations**, not
//! trajectory-identical replays of [`CountSimulator`](crate::CountSimulator):
//!
//! * Within a batch the pair probabilities are frozen at the batch's
//!   opening counts. The batch size is bounded so that no state's count is
//!   expected to drift by more than [`BATCH_FRACTION`] of its value (and
//!   the population total by the same fraction), the standard tau-leaping
//!   leap condition, so the frozen-probability error is O([`BATCH_FRACTION`])
//!   per batch.
//! * Binomial draws use an exact Bernoulli/geometric-inversion sampler for
//!   small batches and means, and a clamped normal approximation for large
//!   means — the tails of a 10⁷-trial binomial are far below the leap
//!   error.
//! * A sampled batch whose bulk application would drive a count negative
//!   is rejected and re-sampled at half the size (Cao-style step
//!   shrinking), falling back to exact stepping below [`MIN_BATCH`].
//! * Adversary events are **exact in distribution at every n**: uniform
//!   removal draws the multivariate hypergeometric split of the removed
//!   agents over the states exactly (no normal approximation), through
//!   the same routine as [`CountSimulator`](crate::CountSimulator)
//!   (`remove_uniform_counts`); additions and targeted removals are
//!   deterministic. Only stepping is approximated.
//!
//! Cross-backend tests therefore compare batched runs with the exact jump
//! chain in distribution, on the epidemic completion time Lemma 4.2
//! bounds, never snapshot-for-snapshot.
//!
//! # Exact fallback
//!
//! Populations of at most [`EXACT_POPULATION_THRESHOLD`] agents, and any
//! regime where the leap condition caps the batch below [`MIN_BATCH`]
//! interactions, are stepped *exactly*: the same count vector type as
//! [`CountSimulator`](crate::CountSimulator), the same CDF-inverse draws,
//! the same unmoved responder for one-way protocols, and the same two
//! `random_range` words per interaction. The count backend reads its draws
//! off a ticket table; this backend leaves the table off, because every
//! batch rewrites the counts and would refill it, and computes the same
//! states, both from one pass over the occupied window. A batched run that
//! stays under the threshold is therefore **trajectory-identical** to the count
//! backend with the same seed (pinned by integration tests); crossing the
//! threshold switches to batches and the identity intentionally ends.
//!
//! Snapshot and adversary-event boundaries always terminate a batch: the
//! driver hands this simulator exact parallel-time spans, and a batch
//! never overshoots the requested span by more than the ceiling of its
//! interaction conversion — the same ≤ 1 interaction overshoot the exact
//! backends have.

use crate::counts::{fresh_counts, pair_weight, probe_transitions, CountVector, Transitions};
use pp_model::DeterministicProtocol;
use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};

/// Populations at or below this size are always stepped exactly — batching
/// only pays off when a batch amortizes over many interactions, and exact
/// stepping keeps small runs trajectory-identical to [`CountSimulator`](crate::CountSimulator).
pub const EXACT_POPULATION_THRESHOLD: u64 = 4096;

/// Smallest batch worth sampling; when the leap condition caps the batch
/// below this, the simulator takes one exact step instead.
pub const MIN_BATCH: u64 = 16;

/// Leap condition: a batch may expect to change each state's count (and
/// consume interactions) by at most this fraction of the current value.
pub const BATCH_FRACTION: f64 = 1.0 / 32.0;

/// Tau-leaping simulator over per-state counts for deterministic
/// finite-state protocols.
///
/// The generator type parameter `R` defaults to [`SmallRng`]; tests inject
/// an instrumented RNG via [`BatchedCountSimulator::from_counts_with_rng`]
/// to pin how much randomness batched stepping consumes.
///
/// # Examples
///
/// An epidemic over 10⁸ agents sweeps a 60-parallel-time horizon (6·10⁹
/// interactions) in a few thousand batch draws:
///
/// ```
/// use pp_model::{DeterministicProtocol, FiniteProtocol, Protocol};
/// use pp_sim::BatchedCountSimulator;
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
/// impl DeterministicProtocol for Or {}
///
/// let n = 100_000_000u64;
/// let mut sim = BatchedCountSimulator::from_counts(Or, vec![n - 1, 1], 7);
/// sim.run_parallel_time(60.0);
/// assert_eq!(sim.count(1), n, "epidemic completed");
/// ```
#[derive(Debug)]
pub struct BatchedCountSimulator<P: DeterministicProtocol, R: Rng = SmallRng> {
    protocol: P,
    counts: CountVector,
    rng: R,
    interactions: u64,
    parallel_time: f64,
    /// `delta[si * S + sj]` = indices after `(si, sj)` interact.
    delta: Vec<(usize, usize)>,
    /// Pairs `(si, sj)` with `delta != identity`, with each pair's net
    /// per-state count changes (at most four `(state, net)` entries).
    active: Vec<ActivePair>,
    /// Per-state net-delta scratch, reused across batches.
    scratch: Vec<i64>,
    /// Per-state expected-decrement scratch of the leap condition, reused
    /// across batches.
    decrements: Vec<f64>,
}

/// One state-changing ordered pair and its net effect on the counts.
#[derive(Debug, Clone)]
struct ActivePair {
    si: usize,
    sj: usize,
    /// Net count change per touched state (inputs −1 each, outputs +1
    /// each, merged; zero entries dropped).
    net: Vec<(usize, i64)>,
}

impl<P: DeterministicProtocol> BatchedCountSimulator<P, SmallRng> {
    /// Creates a simulator from explicit per-state counts.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != num_states()`, if the counts sum past
    /// `u64::MAX`, or if probing detects a non-deterministic transition.
    pub fn from_counts(protocol: P, counts: Vec<u64>, seed: u64) -> Self {
        Self::from_counts_with_rng(protocol, counts, SmallRng::seed_from_u64(seed))
    }

    /// Creates a simulator of `n` agents in the protocol's initial state.
    pub fn with_seed(protocol: P, n: u64, seed: u64) -> Self {
        let counts = fresh_counts(&protocol, n);
        Self::from_counts(protocol, counts, seed)
    }
}

impl<P: DeterministicProtocol, R: Rng> BatchedCountSimulator<P, R> {
    /// Creates a simulator from explicit per-state counts and an explicit
    /// generator (the instrumentation entry point).
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != num_states()`, if the counts sum past
    /// `u64::MAX`, or if probing detects a non-deterministic transition.
    pub fn from_counts_with_rng(protocol: P, counts: Vec<u64>, rng: R) -> Self {
        let s = protocol.num_states();
        assert_eq!(counts.len(), s, "counts must cover every state");
        let Transitions { delta, active } = probe_transitions(&protocol);
        let active = active
            .into_iter()
            .map(|(si, sj)| {
                let (oi, oj) = delta[si * s + sj];
                let mut net: Vec<(usize, i64)> = Vec::with_capacity(4);
                for (state, d) in [(si, -1i64), (sj, -1), (oi, 1), (oj, 1)] {
                    match net.iter_mut().find(|(s, _)| *s == state) {
                        Some((_, acc)) => *acc += d,
                        None => net.push((state, d)),
                    }
                }
                net.retain(|&(_, d)| d != 0);
                ActivePair { si, sj, net }
            })
            .collect();
        BatchedCountSimulator {
            protocol,
            // No ticket table: each batch's `try_apply` would mark it
            // stale, so every exact step after a batch would refill it.
            counts: CountVector::new(counts),
            rng,
            interactions: 0,
            parallel_time: 0.0,
            delta,
            active,
            scratch: vec![0i64; s],
            decrements: vec![0.0; s],
        }
    }

    /// The protocol under simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Population size.
    pub fn population(&self) -> u64 {
        self.counts.total()
    }

    /// Interactions simulated so far (batched spans included).
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

    /// All per-state counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The simulator's generator (read-only; instrumented RNGs injected
    /// via [`BatchedCountSimulator::from_counts_with_rng`] expose their
    /// counters here).
    pub fn rng(&self) -> &R {
        &self.rng
    }

    /// Simulates one interaction exactly — the same two `random_range`
    /// words and draw-to-state mapping as [`CountSimulator::step`](crate::CountSimulator::step), so
    /// below-threshold batched runs replay the count backend's trajectory
    /// bit for bit. Both step through one count-vector method, this one
    /// with the ticket table off: one read-only pass over the occupied
    /// window yields both draws, and a one-way protocol's responder is not
    /// moved.
    ///
    /// # Panics
    ///
    /// Panics if the population has fewer than two agents.
    pub fn step(&mut self) {
        let n = self.counts.total();
        assert!(n >= 2, "an interaction needs at least two agents");
        let (delta, states) = (&self.delta, self.counts.len());
        self.counts
            .interact(&mut self.rng, P::ONE_WAY, |si, sj, _| {
                delta[si * states + sj]
            });
        self.interactions += 1;
        self.parallel_time += 1.0 / n as f64;
    }

    /// Upper batch size satisfying the leap condition at the current
    /// counts, given the interactions remaining to the caller's boundary.
    /// Returns the batch size and the total active-pair weight.
    fn plan_batch(&mut self, remaining: u64) -> (u64, u128) {
        let n = self.counts.total();
        let t = u128::from(n) * u128::from(n - 1);
        let t_f = t as f64;
        // Global drift bound: at most a BATCH_FRACTION of the population's
        // worth of interactions per batch.
        let mut k = remaining.min(((n as f64) * BATCH_FRACTION).max(MIN_BATCH as f64) as u64);
        let mut total_w: u128 = 0;
        // Per-state drift bound: expected net decrements of state s in k
        // trials are k·D_s/T; require that to stay under
        // max(1, BATCH_FRACTION·c_s).
        let dec = &mut self.decrements;
        dec.fill(0.0);
        for pair in &self.active {
            let w = pair_weight(&self.counts, pair.si, pair.sj);
            if w == 0 {
                continue;
            }
            total_w += w;
            let w_f = w as f64;
            for &(state, d) in &pair.net {
                if d < 0 {
                    dec[state] += (-d) as f64 * w_f;
                }
            }
        }
        for (state, &d) in dec.iter().enumerate() {
            if d > 0.0 {
                let budget = (BATCH_FRACTION * self.counts[state] as f64).max(1.0);
                let cap = budget * t_f / d;
                if cap < k as f64 {
                    k = (cap as u64).max(1);
                }
            }
        }
        (k.max(1), total_w)
    }

    /// Samples and applies one batch of `k` interactions by sequential
    /// binomial splitting over the active-pair weights. Returns `false`
    /// (leaving the counts untouched) when the sampled batch would drive a
    /// count negative — the caller then shrinks `k`.
    fn try_batch(&mut self, k: u64) -> bool {
        let n = self.counts.total();
        let t = u128::from(n) * u128::from(n - 1);
        let mut k_rem = k;
        // Remaining mass includes the implicit no-op pairs; whatever is
        // left of `k` after all active pairs is a no-op run.
        let mut t_rem = t;
        self.scratch.fill(0);
        for pi in 0..self.active.len() {
            if k_rem == 0 {
                break;
            }
            let w = pair_weight(&self.counts, self.active[pi].si, self.active[pi].sj);
            if w == 0 {
                continue;
            }
            let p = (w as f64 / t_rem as f64).min(1.0);
            let m = sample_binomial(&mut self.rng, k_rem, p);
            t_rem -= w;
            k_rem -= m;
            if m > 0 {
                for &(state, d) in &self.active[pi].net {
                    self.scratch[state] += d * m as i64;
                }
            }
        }
        if !self.counts.try_apply(&self.scratch) {
            return false;
        }
        self.advance_clock(k);
        true
    }

    /// Books `k` interactions onto the clock.
    #[inline]
    fn advance_clock(&mut self, k: u64) {
        self.interactions = self.interactions.saturating_add(k);
        self.parallel_time += k as f64 / self.counts.total() as f64;
    }

    /// Runs for `duration` units of parallel time, batching where the leap
    /// condition allows and stepping exactly otherwise.
    ///
    /// With a population of fewer than two agents, time passes without
    /// interactions (matching the other backends' convention).
    pub fn run_parallel_time(&mut self, duration: f64) {
        let target = self.parallel_time + duration;
        let n = self.counts.total();
        if n < 2 {
            self.parallel_time = target;
            return;
        }
        while self.parallel_time < target {
            if n <= EXACT_POPULATION_THRESHOLD {
                self.step();
                continue;
            }
            // Interactions to the boundary; < 2^53 at any feasible n ×
            // horizon, so the f64 product is exact enough for a ceiling.
            let remaining = (((target - self.parallel_time) * n as f64).ceil()).max(1.0);
            let remaining = if remaining >= u64::MAX as f64 {
                u64::MAX
            } else {
                remaining as u64
            };
            let (mut k, total_w) = self.plan_batch(remaining);
            if total_w == 0 {
                // Quiescent: every remaining interaction is a no-op; jump
                // the whole span in one bookkeeping update (no RNG).
                self.advance_clock(remaining);
                continue;
            }
            loop {
                if k < MIN_BATCH {
                    self.step();
                    break;
                }
                if self.try_batch(k) {
                    break;
                }
                // Sampled batch overdrew a count: Cao-style step shrink.
                k /= 2;
            }
        }
    }

    /// Adds `count` agents in the protocol's initial state (the dynamic
    /// adversary's *add*). Mirrors [`CountSimulator::add_agents`](crate::CountSimulator::add_agents).
    ///
    /// # Panics
    ///
    /// Panics if the population would exceed `u64::MAX`.
    pub fn add_agents(&mut self, count: u64) {
        let init = self.protocol.state_index(&self.protocol.initial_state());
        self.counts.add(init, count);
    }

    /// Removes `count` agents chosen uniformly at random without
    /// replacement: one multivariate hypergeometric draw over the counts,
    /// O(#occupied states). The same routine and draws as
    /// [`CountSimulator::remove_uniform`](crate::CountSimulator::remove_uniform),
    /// so exact-regime trajectories stay aligned across adversary events.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the population size.
    pub fn remove_uniform(&mut self, count: u64) {
        self.counts.remove_uniform(&mut self.rng, count);
    }

    /// Overwrites the count of state `i` (population setup / targeted
    /// removal). Mirrors [`CountSimulator::set_count`](crate::CountSimulator::set_count).
    ///
    /// # Panics
    ///
    /// Panics if the population would exceed `u64::MAX`.
    pub fn set_count(&mut self, i: usize, count: u64) {
        self.counts.set(i, count);
    }

    /// Resizes the population to `target`: grows with fresh agents or
    /// shrinks by uniform removal.
    pub fn resize_to(&mut self, target: u64) {
        let init = self.protocol.state_index(&self.protocol.initial_state());
        self.counts.resize_to(&mut self.rng, target, init);
    }
}

/// Samples `Binomial(k, p)`.
///
/// Exact for small `k` (Bernoulli counting) and small means (geometric-gap
/// inversion, expected `k·p + 1` RNG words); a clamped normal
/// approximation beyond — see the module docs for why that suffices under
/// the leap condition.
fn sample_binomial<R: Rng + ?Sized>(rng: &mut R, k: u64, p: f64) -> u64 {
    if k == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return k;
    }
    if p > 0.5 {
        return k - sample_binomial(rng, k, 1.0 - p);
    }
    if k <= 64 {
        return (0..k).filter(|_| rng.random::<f64>() < p).count() as u64;
    }
    let mean = k as f64 * p;
    if mean <= 32.0 {
        // Count successes by the geometric gaps between them:
        // Geometric(p) on {0, 1, …} is floor(ln u / ln(1 − p)), with
        // ln(1 − p) via ln_1p so p down to 1e-300 stays finite.
        let ln_q = (-p).ln_1p();
        let mut successes = 0u64;
        let mut trials = 0u64;
        loop {
            let u: f64 = rng.random();
            let gap = u.max(f64::MIN_POSITIVE).ln() / ln_q;
            if gap >= (k - trials) as f64 {
                return successes;
            }
            trials += gap as u64 + 1;
            successes += 1;
            if trials >= k {
                return successes;
            }
        }
    }
    // Normal approximation via Box–Muller, clamped to the support.
    let sd = (mean * (1.0 - p)).sqrt();
    let u1: f64 = rng.random();
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.max(f64::MIN_POSITIVE).ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    let x = (mean + z * sd).round();
    if x <= 0.0 {
        0
    } else if x >= k as f64 {
        k
    } else {
        x as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_sim::CountSimulator;
    use pp_model::{FiniteProtocol, Protocol};

    /// Binary OR-infection fixture (deterministic).
    struct Or;
    impl Protocol for Or {
        type State = bool;
        fn initial_state(&self) -> bool {
            false
        }
        fn interact<R: rand::Rng + ?Sized>(&self, u: &mut bool, v: &mut bool, _: &mut R) {
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
    impl DeterministicProtocol for Or {}

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

    #[test]
    fn population_is_conserved_through_batches() {
        let n = 1_000_000u64;
        let mut sim = BatchedCountSimulator::from_counts(Or, vec![n - 1, 1], 3);
        sim.run_parallel_time(30.0);
        assert_eq!(sim.counts().iter().sum::<u64>(), n);
        assert_eq!(sim.population(), n);
    }

    #[test]
    fn epidemic_completes_within_the_lemma_window() {
        // Lemma 4.2 (k = 1): within 8·log2 n parallel time w.h.p.
        let n = 10_000_000u64;
        let bound = 8.0 * (n as f64).log2();
        let mut sim = BatchedCountSimulator::from_counts(Or, vec![n - 1, 1], 5);
        sim.run_parallel_time(bound);
        assert_eq!(sim.count(1), n, "epidemic must complete within the bound");
    }

    #[test]
    fn quiescent_span_consumes_no_randomness() {
        let n = 1_000_000u64;
        let mut sim =
            BatchedCountSimulator::from_counts_with_rng(Or, vec![0, n], CountingRng::seeded(8));
        sim.run_parallel_time(100.0);
        assert_eq!(sim.rng().words, 0, "all-infected is quiescent");
        assert!(sim.parallel_time() >= 100.0);
        assert!(sim.interactions() >= 100 * n);
    }

    #[test]
    fn batched_stepping_uses_far_less_randomness_than_exact() {
        // The point of batching: ~2 words per *batch*, not per interaction.
        let n = 1_000_000u64;
        let mut sim = BatchedCountSimulator::from_counts_with_rng(
            Or,
            vec![n / 2, n / 2],
            CountingRng::seeded(9),
        );
        sim.run_parallel_time(2.0);
        assert!(sim.interactions() >= 2 * n);
        assert!(
            sim.rng().words < sim.interactions() / 100,
            "batched run drew {} words for {} interactions",
            sim.rng().words,
            sim.interactions()
        );
    }

    #[test]
    fn below_threshold_population_steps_exactly() {
        let n = EXACT_POPULATION_THRESHOLD; // at the boundary: still exact
        let mut batched = BatchedCountSimulator::from_counts(Or, vec![n - 1, 1], 11);
        let mut exact = CountSimulator::from_counts(Or, vec![n - 1, 1], 11);
        batched.run_parallel_time(12.5);
        exact.run_parallel_time(12.5);
        assert_eq!(batched.counts(), exact.counts());
        assert_eq!(batched.interactions(), exact.interactions());
        assert_eq!(batched.parallel_time(), exact.parallel_time());
    }

    #[test]
    fn adversary_ops_mirror_count_simulator_semantics() {
        let mut sim = BatchedCountSimulator::from_counts(Or, vec![60, 40], 13);
        sim.remove_uniform(30);
        assert_eq!(sim.population(), 70);
        sim.remove_uniform(60); // a majority removed
        assert_eq!(sim.population(), 10);
        assert_eq!(sim.counts().iter().sum::<u64>(), 10);
        sim.add_agents(5);
        assert_eq!(sim.population(), 15);
        sim.resize_to(40);
        assert_eq!(sim.population(), 40);
        sim.set_count(1, 0);
        assert_eq!(sim.population(), sim.count(0));
    }

    #[test]
    #[should_panic(expected = "not deterministic")]
    fn randomized_protocols_are_rejected() {
        struct CoinFlip;
        impl Protocol for CoinFlip {
            type State = bool;
            fn initial_state(&self) -> bool {
                false
            }
            fn interact<R: rand::Rng + ?Sized>(&self, u: &mut bool, _v: &mut bool, rng: &mut R) {
                *u = rng.random();
            }
        }
        impl FiniteProtocol for CoinFlip {
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
        impl DeterministicProtocol for CoinFlip {}
        let _ = BatchedCountSimulator::with_seed(CoinFlip, 10, 4);
    }

    #[test]
    fn binomial_sampler_matches_mean_and_variance() {
        let mut rng = SmallRng::seed_from_u64(21);
        for &(k, p) in &[(1_000u64, 0.3f64), (100_000, 0.001), (500, 0.9), (40, 0.5)] {
            let draws = 2_000;
            let samples: Vec<f64> = (0..draws)
                .map(|_| sample_binomial(&mut rng, k, p) as f64)
                .collect();
            let mean: f64 = samples.iter().sum::<f64>() / draws as f64;
            let var: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / draws as f64;
            let want_mean = k as f64 * p;
            let want_var = k as f64 * p * (1.0 - p);
            let mean_tol = 5.0 * (want_var / draws as f64).sqrt().max(0.05);
            assert!(
                (mean - want_mean).abs() < mean_tol,
                "Bin({k}, {p}): mean {mean} vs {want_mean}"
            );
            assert!(
                var > 0.7 * want_var && var < 1.4 * want_var,
                "Bin({k}, {p}): var {var} vs {want_var}"
            );
        }
    }

    #[test]
    fn binomial_sampler_handles_edges() {
        let mut rng = SmallRng::seed_from_u64(22);
        assert_eq!(sample_binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(sample_binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 10, 1.0), 10);
        // Tiny p over a huge k must neither hang nor overflow.
        let m = sample_binomial(&mut rng, 1 << 40, 1e-18);
        assert!(m <= 4);
    }

    /// Counts that sum past `u64::MAX`, and additions that would take the
    /// population there, panic instead of wrapping to a small population.
    #[test]
    fn populations_past_u64_max_panic_instead_of_wrapping() {
        use crate::counts::assert_population_overflow;
        assert_population_overflow(|| {
            BatchedCountSimulator::from_counts(Or, vec![u64::MAX, 2], 1);
        });
        assert_population_overflow(|| {
            BatchedCountSimulator::from_counts(Or, vec![u64::MAX - 1, 1], 1).add_agents(5);
        });
        assert_population_overflow(|| {
            BatchedCountSimulator::from_counts(Or, vec![3, 1], 1).set_count(0, u64::MAX);
        });
        let mut sim = BatchedCountSimulator::from_counts(Or, vec![u64::MAX - 7, 1], 1);
        sim.add_agents(5);
        sim.set_count(1, 2);
        assert_eq!(sim.population(), u64::MAX);
    }

    #[test]
    fn huge_population_weights_do_not_overflow() {
        // n > 2^32 makes n(n−1) overflow u64; the batched backend computes
        // pair weights in u128 from the start.
        let n = (1u64 << 32) + 10;
        let mut sim = BatchedCountSimulator::from_counts(Or, vec![n - 1, 1], 31);
        sim.run_parallel_time(0.001);
        assert_eq!(sim.counts().iter().sum::<u64>(), n);
        assert!(sim.interactions() > 0);
    }
}
