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
//! interactions, are stepped *exactly*, by the same loop as
//! [`CountSimulator`](crate::CountSimulator): the same draws, the same
//! unmoved responder for one-way protocols, and the same two
//! `random_range` words per interaction. This backend's agent table is
//! capped at the threshold: below it, draws read the table exactly as the
//! count backend's do, and above it a leap-capped single step scans all
//! states, because every batch rewrites the counts and would make each
//! such step refill the table. A batched run that stays under
//! the threshold is therefore **trajectory-identical** to the count
//! backend with the same seed (pinned by integration tests); crossing the
//! threshold switches to batches and the identity intentionally ends.
//!
//! Snapshot and adversary-event boundaries always terminate a batch: the
//! driver hands this simulator exact parallel-time spans, and a batch
//! never overshoots the requested span by more than the ceiling of its
//! interaction conversion — the same ≤ 1 interaction overshoot the exact
//! backends have.
//!
//! The state, accessors and adversary events are the shared
//! [`CountChain`]'s; this module adds only the [`TauLeap`] stepper.

use crate::count_sim::{CountChain, Stepper};
use crate::counts::{pair_weight, probe_transitions, CountVector};
use pp_model::DeterministicProtocol;
use rand::rngs::SmallRng;
use rand::{Rng, RngExt};

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
pub type BatchedCountSimulator<P, R = SmallRng> = CountChain<P, TauLeap, R>;

/// The stepper of [`BatchedCountSimulator`]: batches of interactions
/// sampled by binomial splitting over the active-pair weights, exact
/// steps where the leap condition or the population rules batches out.
#[derive(Debug)]
pub struct TauLeap {
    /// Pairs `(si, sj)` whose interaction changes something, with each
    /// pair's net per-state count changes (at most four `(state, net)`
    /// entries).
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

impl<P: DeterministicProtocol> Stepper<P> for TauLeap {
    const NAME: &'static str = "batched-count";

    fn build(protocol: &P, counts: Vec<u64>) -> (Self, CountVector) {
        let s = protocol.num_states();
        let active = probe_transitions(protocol)
            .into_iter()
            .map(|((si, sj), (oi, oj))| {
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
        let stepper = TauLeap {
            active,
            scratch: vec![0i64; s],
            decrements: vec![0.0; s],
        };
        // The agent table serves only the exact fallback's populations: a
        // leap-capped step above them scans all states, since every
        // batch's `try_apply` marks the table stale and the next step
        // would refill it.
        let counts = CountVector::with_ticket_cap(counts, EXACT_POPULATION_THRESHOLD);
        (stepper, counts)
    }

    /// Batches where the leap condition allows and steps exactly
    /// otherwise.
    fn advance<R: Rng>(sim: &mut CountChain<P, Self, R>, target: f64) {
        let n = sim.counts.total();
        if n <= EXACT_POPULATION_THRESHOLD {
            sim.run(u64::MAX, target);
            return;
        }
        while sim.parallel_time < target {
            // Interactions to the boundary; < 2^53 at any feasible n ×
            // horizon, so the f64 product is exact enough for a ceiling.
            let remaining = (((target - sim.parallel_time) * n as f64).ceil()).max(1.0);
            let remaining = if remaining >= u64::MAX as f64 {
                u64::MAX
            } else {
                remaining as u64
            };
            let (mut k, total_w) = sim.plan_batch(remaining);
            if total_w == 0 {
                // Quiescent: every remaining interaction is a no-op; jump
                // the whole span in one bookkeeping update (no RNG).
                sim.advance_clock(remaining);
                continue;
            }
            loop {
                if k < MIN_BATCH {
                    sim.run(1, f64::INFINITY);
                    break;
                }
                if sim.try_batch(k) {
                    break;
                }
                // Sampled batch overdrew a count: Cao-style step shrink.
                k /= 2;
            }
        }
    }
}

impl<P: DeterministicProtocol, R: Rng> CountChain<P, TauLeap, R> {
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
        let dec = &mut self.stepper.decrements;
        dec.fill(0.0);
        for pair in &self.stepper.active {
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
        self.stepper.scratch.fill(0);
        for pi in 0..self.stepper.active.len() {
            if k_rem == 0 {
                break;
            }
            let pair = &self.stepper.active[pi];
            let w = pair_weight(&self.counts, pair.si, pair.sj);
            if w == 0 {
                continue;
            }
            let p = (w as f64 / t_rem as f64).min(1.0);
            let m = sample_binomial(&mut self.rng, k_rem, p);
            t_rem -= w;
            k_rem -= m;
            if m > 0 {
                for &(state, d) in &self.stepper.active[pi].net {
                    self.stepper.scratch[state] += d * m as i64;
                }
            }
        }
        if !self.counts.try_apply(&self.stepper.scratch) {
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
    use crate::counts::CountingRng;
    use pp_model::{FiniteProtocol, Protocol};
    use rand::SeedableRng;

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
