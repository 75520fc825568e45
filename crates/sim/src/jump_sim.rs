//! Event-jump simulation: skip no-op interactions in closed form.
//!
//! Late in an epidemic almost every drawn pair is a no-op (both agents
//! already infected); a sequential simulator burns a cycle per no-op. For
//! *deterministic* finite-state protocols the number of consecutive no-ops
//! is geometrically distributed with success probability
//! `W/T` — `W` = count of ordered pairs whose interaction changes
//! something, `T = n(n−1)` — so it can be sampled in O(1) and skipped in
//! one jump. Conditioned on being effective, the interacting pair is
//! distributed proportionally to the pair counts, so the executed chain is
//! **exactly** the model's jump chain: this simulator is statistically
//! indistinguishable from the sequential one (cross-checked by tests), it
//! just doesn't spend time on silence.
//!
//! The state, accessors and adversary events are the shared
//! [`CountChain`]'s; this module adds the [`Jump`] stepper and the
//! event-by-event methods. [`CountChain::run_parallel_time`] keeps the
//! next effective interaction *pending* (its skip drawn, its pair not)
//! until the clock passes it, so a snapshot between events sees the
//! model's configuration there. After each adversary change the stepper
//! drops the pending event and rebases the interaction count at the new
//! population; skips are memoryless, so the chain stays exact.
//!
//! Each event sums `pair_weight` over every active pair twice, once for
//! `W` and once to locate the pair, so an event costs O(#active pairs).
//! That suits the two-state epidemics; on many-state protocols the count
//! backend is far faster: 100 `BoundedChvp(16)` runs at n = 2¹³ over 6
//! parallel-time units took 45.8 s here against 3.6 s on
//! [`CountSimulator`](crate::CountSimulator) (debug build, 2-core Xeon).
//!
//! This is the same observation that powers the ppsim-style simulators the
//! paper cites when explaining why it could not use them (Berenbrink et
//! al., ESA 2020; Doty & Severson, CMSB 2021) — those tools also exploit
//! the state-count representation; the paper's own protocol has unbounded
//! state space and needs the agent-array simulator instead. Here the jump
//! simulator serves the *substrates* (epidemics, CHVP), whose lemmas we
//! validate at large n.

use crate::count_sim::{CountChain, Stepper};
use crate::counts::{pair_weight, probe_transitions, CountVector, Transitions};
use pp_model::DeterministicProtocol;
use rand::rngs::SmallRng;
use rand::{Rng, RngExt};

/// Exact event-jump simulator for deterministic finite-state protocols.
///
/// # Examples
///
/// An infection epidemic on a million agents completes in milliseconds —
/// only the `n − 1` state-changing interactions are materialized:
///
/// ```
/// use pp_model::{DeterministicProtocol, FiniteProtocol, Protocol};
/// use pp_sim::JumpSimulator;
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
/// let mut sim = JumpSimulator::from_counts(Or, vec![999_999, 1], 7);
/// sim.run_until_quiescent(1_000.0);
/// assert_eq!(sim.count(1), 1_000_000); // epidemic completed
/// ```
pub type JumpSimulator<P, R = SmallRng> = CountChain<P, Jump, R>;

/// The stepper of [`JumpSimulator`]: one effective interaction per event,
/// the no-ops before it skipped in closed form.
#[derive(Debug)]
pub struct Jump {
    /// The ordered pairs `n(n − 1)` as an `f64`, recomputed at each
    /// population change rather than per event.
    pairs: f64,
    /// Where the next skip starts: the time of the last applied event or
    /// of the last population change.
    event_time: f64,
    /// The next effective interaction, when its skip has been drawn.
    pending: Option<Pending>,
    /// Interactions up to `base_time`, the clock at the last population
    /// change.
    base: u64,
    base_time: f64,
    /// `delta[si * S + sj]` = indices after `(si, sj)` interact.
    delta: Vec<(usize, usize)>,
    /// Pairs `(si, sj)` with `delta != identity`.
    active: Vec<(usize, usize)>,
}

/// An effective interaction whose skip is drawn and whose pair is not.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Its parallel time.
    at: f64,
    /// The effective-pair weight `W` it was drawn under.
    weight: u128,
}

impl<P: DeterministicProtocol> Stepper<P> for Jump {
    const NAME: &'static str = "jump";

    fn build(protocol: &P, counts: Vec<u64>) -> (Self, CountVector) {
        let Transitions { delta, active } = probe_transitions(protocol);
        // No agent table: an event draws a pair of states by weight, not
        // a pair of agents.
        let counts = CountVector::new(counts);
        let stepper = Jump {
            pairs: ordered_pairs(counts.total()),
            event_time: 0.0,
            pending: None,
            base: 0,
            base_time: 0.0,
            delta,
            active,
        };
        (stepper, counts)
    }

    /// Applies every event that lands more than 1e-12 before `target`; a
    /// later one stays pending, so a snapshot at `target` sees the
    /// configuration before it.
    fn advance<R: Rng>(sim: &mut CountChain<P, Self, R>, target: f64) {
        while let Some(event) = sim.next_event() {
            if event.at + 1e-12 >= target {
                sim.stepper.pending = Some(event);
                break;
            }
            sim.apply(event);
        }
        sim.parallel_time = target;
        sim.book_interactions();
    }

    /// Rebases the interaction count at the current clock, drops the
    /// pending event and recomputes `n(n − 1)`.
    fn rebase<R: Rng>(sim: &mut CountChain<P, Self, R>) {
        let jump = &mut sim.stepper;
        jump.base = sim.interactions;
        jump.base_time = sim.parallel_time;
        jump.event_time = sim.parallel_time;
        jump.pending = None;
        jump.pairs = ordered_pairs(sim.counts.total());
    }
}

impl<P: DeterministicProtocol, R: Rng> CountChain<P, Jump, R> {
    /// Books the interactions up to the clock, skipped no-ops included:
    /// those up to the last population change plus the `t·n` its clock
    /// implies since, rounded. Only called with at least two agents.
    fn book_interactions(&mut self) {
        let n = self.counts.total();
        let since = ((self.parallel_time - self.stepper.base_time) * n as f64).round() as u64;
        self.interactions = self.stepper.base.saturating_add(since);
    }

    /// Ordered pairs whose interaction would change something, in u128
    /// (see [`pair_weight`]).
    fn effective_pairs(&self) -> u128 {
        self.stepper
            .active
            .iter()
            .map(|&(si, sj)| pair_weight(&self.counts, si, sj))
            .sum()
    }

    /// Whether no interaction can change the configuration any more.
    pub fn is_quiescent(&self) -> bool {
        self.effective_pairs() == 0
    }

    /// The next effective interaction: the pending one, or a new one whose
    /// skip is drawn from `event_time`; `None` when quiescent.
    fn next_event(&mut self) -> Option<Pending> {
        self.stepper.pending.take().or_else(|| self.draw_event())
    }

    /// Draws the skip to the next effective interaction. Inlined into the
    /// event loops of `advance` and `step_event`: out of line it costs
    /// one more call per event.
    #[inline]
    fn draw_event(&mut self) -> Option<Pending> {
        let w = self.effective_pairs();
        if w == 0 {
            return None;
        }
        // Skip the geometric run of no-ops in closed form. A `w` that fits
        // u64 converts through u64, one instruction rounding the same
        // integer to the same f64 as the u128 conversion's library call.
        let w_f = u64::try_from(w).map_or_else(|_| wide_to_f64(w), |w| w as f64);
        let p = w_f / self.stepper.pairs;
        let skips = if p >= 1.0 {
            0u64
        } else {
            // ln(1 − p) via ln_1p: the naive `(1.0 - p).ln()` rounds to
            // ln(1) = −0.0 for p below ~1e-16 (one effective pair among
            // 10⁹ agents is p ≈ 1e-18), turning the skip into ±inf.
            // Guarding u away from 0 keeps ln finite; the f64→u64 cast
            // saturates.
            let u: f64 = self.rng.random();
            // Geometric(p) on {0, 1, …}: floor(ln u / ln(1 − p)).
            (u.max(f64::MIN_POSITIVE).ln() / (-p).ln_1p()) as u64
        };
        let at = self.stepper.event_time + (skips as f64 + 1.0) / self.counts.total() as f64;
        Some(Pending { at, weight: w })
    }

    /// Applies `event`: draws its pair proportional to the pair counts and
    /// moves both agents to their outputs — only the initiator for a
    /// one-way protocol, whose responder stays put.
    fn apply(&mut self, event: Pending) {
        let Pending { at, weight: w } = event;
        self.stepper.event_time = at;
        // Weights fit u64 for every feasible sub-2³² population, where the
        // narrow draw preserves the historical trajectories; beyond that, a
        // two-word rejection sampler covers the u128 range.
        let mut r = if w <= u128::from(u64::MAX) {
            u128::from(self.rng.random_range(0..w as u64))
        } else {
            uniform_u128_below(&mut self.rng, w)
        };
        for &(si, sj) in &self.stepper.active {
            let pairs = pair_weight(&self.counts, si, sj);
            if r < pairs {
                let (oi, oj) = self.stepper.delta[si * self.protocol.num_states() + sj];
                if P::ONE_WAY {
                    debug_assert_eq!(oj, sj, "a one-way transition moved the responder");
                } else {
                    self.counts.shift(sj, oj);
                }
                self.counts.shift(si, oi);
                return;
            }
            r -= pairs;
        }
        unreachable!("effective pair weight accounted for");
    }

    /// Advances to (and applies) the next effective interaction.
    ///
    /// Returns `false` without advancing when the configuration is
    /// quiescent. A population of fewer than two agents has no pair to
    /// interact, so it is always quiescent.
    pub fn step_event(&mut self) -> bool {
        let Some(event) = self.next_event() else {
            return false;
        };
        self.apply(event);
        self.parallel_time = self.parallel_time.max(event.at);
        self.book_interactions();
        true
    }

    /// Runs events until quiescence or until `max_parallel_time` elapses.
    pub fn run_until_quiescent(&mut self, max_parallel_time: f64) {
        let deadline = self.parallel_time + max_parallel_time;
        while self.parallel_time < deadline {
            if !self.step_event() {
                return;
            }
        }
    }
}

/// The ordered pairs `n(n − 1)` as an `f64`, multiplied in u128: the
/// product overflows u64 at n > 2³².
fn ordered_pairs(n: u64) -> f64 {
    (u128::from(n) * u128::from(n.saturating_sub(1))) as f64
}

/// `w as f64` for a `w` beyond u64, kept out of line so that the compiler
/// does not compute it on the common path as well.
#[cold]
#[inline(never)]
fn wide_to_f64(w: u128) -> f64 {
    w as f64
}

/// Uniform draw from `[0, span)` for spans beyond u64, by masked
/// rejection over the smallest covering power of two (two RNG words per
/// attempt, < 2 attempts expected).
fn uniform_u128_below(rng: &mut impl Rng, span: u128) -> u128 {
    debug_assert!(span > u128::from(u64::MAX), "use the u64 path below 2^64");
    let mask = u128::MAX >> span.leading_zeros();
    loop {
        let x = ((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())) & mask;
        if x < span {
            return x;
        }
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
    fn completes_epidemic_exactly() {
        let mut sim = JumpSimulator::from_counts(Or, vec![99_999, 1], 1);
        sim.run_until_quiescent(1_000.0);
        assert!(sim.is_quiescent());
        assert_eq!(sim.count(1), 100_000);
        assert_eq!(sim.counts().iter().sum::<u64>(), 100_000);
    }

    #[test]
    fn quiescent_configuration_does_not_advance() {
        let mut sim = JumpSimulator::from_counts(Or, vec![0, 50], 2);
        assert!(sim.is_quiescent());
        let t = sim.interactions();
        assert!(!sim.step_event());
        assert_eq!(sim.interactions(), t, "no time passes at quiescence");
    }

    #[test]
    fn completion_time_matches_sequential_count_simulator() {
        // The jump chain must reproduce the sequential completion-time
        // distribution; compare means over several seeds.
        let n = 5_000u64;
        let mean_jump: f64 = (0..10)
            .map(|seed| {
                let mut sim = JumpSimulator::from_counts(Or, vec![n - 1, 1], seed);
                sim.run_until_quiescent(10_000.0);
                sim.parallel_time()
            })
            .sum::<f64>()
            / 10.0;
        let mean_seq: f64 = (100..110)
            .map(|seed| {
                let mut sim = CountSimulator::from_counts(Or, vec![n - 1, 1], seed);
                while sim.count(1) < n {
                    sim.step_n(n / 4 + 1);
                }
                sim.parallel_time()
            })
            .sum::<f64>()
            / 10.0;
        let ratio = mean_jump / mean_seq;
        assert!(
            (0.85..1.18).contains(&ratio),
            "jump {mean_jump:.1} vs sequential {mean_seq:.1} (ratio {ratio:.2})"
        );
    }

    /// Regression guard for the per-event randomness budget: with a fixed
    /// seed, every effective event of an epidemic has to skip (p < 1), so
    /// it draws one `random()` word for the skip and one `random_range`
    /// word for the pair. An engine change that moves this number changes
    /// every recorded jump trace; account for it deliberately.
    #[test]
    fn skipping_event_draws_exactly_two_rng_words() {
        let mut sim =
            JumpSimulator::from_counts_with_rng(Or, vec![9_999, 1], CountingRng::seeded(14));
        let mut events = 0u64;
        while sim.step_event() {
            events += 1;
        }
        assert_eq!(events, 9_999);
        assert_eq!(sim.rng().words, 2 * events);
    }

    #[test]
    fn events_are_far_fewer_than_interactions() {
        let n = 100_000u64;
        let mut sim = JumpSimulator::from_counts(Or, vec![n - 1, 1], 3);
        let mut events = 0u64;
        while sim.step_event() {
            events += 1;
        }
        // An epidemic has exactly n − 1 state-changing interactions.
        assert_eq!(events, n - 1);
        assert!(
            sim.interactions() > events * 3,
            "skipping should have jumped over many no-ops ({} interactions, {} events)",
            sim.interactions(),
            events
        );
    }

    #[test]
    fn populations_beyond_u32_do_not_overflow_pair_arithmetic() {
        // n(n−1) exceeds u64::MAX just past n = 2³²: before the u128
        // widening, `step_event` overflowed (a debug-build panic, silent
        // wrap in release) at exactly the ≥ 10⁹ populations the batched
        // backend targets.
        let n = (1u64 << 32) + 10;
        let mut sim = JumpSimulator::from_counts(Or, vec![n - 1, 1], 6);
        for _ in 0..5 {
            assert!(sim.step_event());
        }
        assert_eq!(sim.counts().iter().sum::<u64>(), n, "population conserved");
        assert_eq!(sim.count(1), 6, "five infections applied");
        assert!(sim.interactions() > 0);
        assert!(sim.parallel_time() > 0.0);
        assert!(sim.parallel_time().is_finite());
    }

    #[test]
    fn vanishing_effective_probability_yields_finite_skips() {
        // One effective pair among 3·10⁹ agents: p ≈ 2·10⁻¹⁹, far below
        // the ~1e-16 threshold where `(1.0 - p).ln()` rounds to −0.0 and
        // the old skip formula produced ±inf. ln_1p keeps the geometric
        // skip finite (if astronomically long).
        let n = 3_000_000_000u64;
        let mut sim = JumpSimulator::from_counts(Or, vec![n - 1, 1], 8);
        assert!(sim.step_event());
        assert_eq!(sim.count(1), 2);
        assert!(sim.parallel_time().is_finite());
        assert!(sim.interactions() >= 1);
    }

    #[test]
    fn uniform_u128_below_is_in_range_and_reaches_past_u64() {
        let mut rng = SmallRng::seed_from_u64(12);
        let span = (u128::from(u64::MAX) + 1) * 3;
        let mut seen_high = false;
        for _ in 0..200 {
            let x = uniform_u128_below(&mut rng, span);
            assert!(x < span);
            seen_high |= x > u128::from(u64::MAX);
        }
        assert!(seen_high, "draws must cover the beyond-u64 region");
    }

    /// Counts that sum past `u64::MAX` panic instead of wrapping to a
    /// small population.
    #[test]
    fn populations_past_u64_max_panic_instead_of_wrapping() {
        crate::counts::assert_population_overflow(|| {
            JumpSimulator::from_counts(Or, vec![u64::MAX, 2], 1);
        });
        let sim = JumpSimulator::from_counts(Or, vec![u64::MAX - 1, 1], 1);
        assert_eq!(sim.population(), u64::MAX);
    }
}
