//! Count-based simulation of finite-state protocols: one simulator, three
//! steppers.
//!
//! For a protocol whose state space is small (binary epidemics, bounded
//! CHVP), the configuration is fully described by one counter per state.
//! [`CountChain`] holds those counters, the protocol, the generator, the
//! interaction count and the clock, and applies the dynamic adversary's
//! events, in O(#states) memory regardless of `n`, so the paper's
//! substrate lemmas (4.2–4.4) are validated at populations no agent array
//! would hold. A stepper type parameter supplies only the stepping
//! algorithm; each count backend is an alias that fixes it:
//! [`CountSimulator`] ([`Exact`]: each interaction sampled from the
//! counters, the agent-array simulator's distribution exactly),
//! [`BatchedCountSimulator`](crate::BatchedCountSimulator)
//! ([`TauLeap`](crate::batched_sim::TauLeap), see
//! [`batched_sim`](crate::batched_sim)) and
//! [`JumpSimulator`](crate::JumpSimulator) ([`Jump`](crate::jump_sim::Jump),
//! see [`jump_sim`](crate::jump_sim)).
//!
//! A step draws one RNG word for the initiator and one for the responder,
//! which name a uniform ordered pair of distinct agents. The exact stepper
//! turns on the count vector's **agent table**: while the population is at
//! most [`TICKET_CAP`] (2¹⁵ agents, so the lemmas' n = 2¹⁰ and 2¹⁴ both
//! fit), entry `t` is the state of agent `t`, in no particular order, so a
//! draw is one load and a move one store plus two count updates. An
//! adversary event marks the table stale, and the next step lays it out
//! again from the counts in O(n + #states), into capacity reserved at
//! construction. Above the cap the agents are numbered in state order, and
//! one pass over the states, in branch-free blocks of 64, yields both
//! draws as the CDF inverse, stopping after the block that passes both, so
//! a wide state space above the cap (401-state CHVP at n = 2¹⁶) is the
//! slow case while its agents sit in high states. The two
//! number the agents differently, so the same words give different
//! trajectories, but both are the same Markov chain on the counts.
//!
//! After the draws each agent moves to its transition output; a
//! [`Protocol::ONE_WAY`](pp_model::Protocol::ONE_WAY) protocol's responder
//! does not move. The batched stepper's exact fallback runs the same exact
//! loop with the table capped at its threshold, so below the threshold the
//! two exact paths draw the same agents from the same words.
//! Within one call of [`CountSimulator::step_n`] or
//! [`CountChain::run_parallel_time`] the population is fixed, so the
//! exact loop keeps `1/n`, the clock and the generator in locals, and
//! checks the agent table once.

pub use crate::counts::TICKET_CAP;
use crate::counts::{fresh_counts, transition, CountVector};
use pp_model::FiniteProtocol;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An execution of a finite-state protocol represented by state counts,
/// stepped by `K`; see the [module docs](self) for the three aliases.
///
/// The generator type parameter `R` defaults to [`SmallRng`]; tests inject
/// an instrumented RNG via [`CountChain::from_counts_with_rng`] to pin
/// down the exact number of random words a step consumes.
#[derive(Debug)]
pub struct CountChain<P, K, R = SmallRng> {
    pub(crate) protocol: P,
    pub(crate) counts: CountVector,
    pub(crate) rng: R,
    pub(crate) interactions: u64,
    pub(crate) parallel_time: f64,
    pub(crate) stepper: K,
}

/// The exact count backend.
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
pub type CountSimulator<P, R = SmallRng> = CountChain<P, Exact, R>;

/// The stepper of [`CountSimulator`]: one interaction per step, its two
/// draws read off the agent table or a scan of all states.
#[derive(Debug)]
pub struct Exact;

mod stepper {
    use super::CountChain;
    use crate::counts::CountVector;
    use pp_model::FiniteProtocol;
    use rand::Rng;

    /// What differs between the count backends: how a [`CountChain`] is
    /// built and how it steps. Not nameable outside the crate, so the
    /// three steppers are the only ones.
    pub trait Stepper<P: FiniteProtocol>: Sized {
        /// The backend's [`Backend::NAME`](crate::Backend::NAME).
        const NAME: &'static str;

        /// The stepper for `protocol`, and the count vector it steps on,
        /// wrapping `counts`.
        fn build(protocol: &P, counts: Vec<u64>) -> (Self, CountVector);

        /// Steps `sim`, which holds at least two agents, until its clock
        /// reaches `until`.
        fn advance<R: Rng>(sim: &mut CountChain<P, Self, R>, until: f64);

        /// Runs after each population change.
        fn rebase<R: Rng>(_sim: &mut CountChain<P, Self, R>) {}
    }
}
pub(crate) use stepper::Stepper;

impl<P: FiniteProtocol> Stepper<P> for Exact {
    const NAME: &'static str = "count";

    fn build(_: &P, counts: Vec<u64>) -> (Self, CountVector) {
        (Exact, CountVector::with_ticket_cap(counts, TICKET_CAP))
    }

    fn advance<R: Rng>(sim: &mut CountChain<P, Self, R>, until: f64) {
        sim.run(u64::MAX, until);
    }
}

/// The exact count loop: steps `counts`, which hold at least two agents,
/// from clock `clock` until `count` interactions are done or the clock
/// reaches `until`, and returns the interactions done and the clock. The
/// population is fixed within the call, so the clock and its per-step
/// increment `1/n` live in locals; the clock still adds `1/n` once per
/// step. Out of line and over split borrows, with the agent table checked
/// once before the loop, so no call is left in it and the generator's
/// words stay in registers for the whole call instead of being stored back
/// into the simulator after every draw. The lemmas' CHVP at n = 2¹⁴ stepped
/// in a median 0.86× (Lemma 4.3 start) and 0.93× (Lemma 4.4 start) of the
/// time of the loop that checked the table and stored the generator on
/// every step (12 interleaved pairs each on a 2-vCPU Xeon).
#[inline(never)]
fn run_exact<P: FiniteProtocol, R: Rng>(
    protocol: &P,
    counts: &mut CountVector,
    rng: &mut R,
    count: u64,
    mut clock: f64,
    until: f64,
) -> (u64, f64) {
    let dt = 1.0 / counts.total() as f64;
    let table = counts.tickets_ready();
    let mut done = 0;
    while done < count && clock < until {
        counts.interact(table, rng, P::ONE_WAY, |si, sj, rng| {
            transition(protocol, si, sj, rng)
        });
        clock += dt;
        done += 1;
    }
    (done, clock)
}

impl<P: FiniteProtocol, K: Stepper<P>> CountChain<P, K, SmallRng> {
    /// Creates a simulator of `n` agents in the protocol's initial state.
    pub fn with_seed(protocol: P, n: u64, seed: u64) -> Self {
        let counts = fresh_counts(&protocol, n);
        Self::from_counts(protocol, counts, seed)
    }

    /// Creates a simulator from explicit per-state counts.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != protocol.num_states()`, if the counts
    /// sum past `u64::MAX`, or (batched and jump) if probing detects a
    /// non-deterministic transition.
    pub fn from_counts(protocol: P, counts: Vec<u64>, seed: u64) -> Self {
        Self::from_counts_with_rng(protocol, counts, SmallRng::seed_from_u64(seed))
    }
}

impl<P: FiniteProtocol, K: Stepper<P>, R: Rng> CountChain<P, K, R> {
    /// Creates a simulator from explicit per-state counts and an explicit
    /// generator (the instrumentation entry point).
    ///
    /// # Panics
    ///
    /// As [`CountChain::from_counts`].
    pub fn from_counts_with_rng(protocol: P, counts: Vec<u64>, rng: R) -> Self {
        assert_eq!(
            counts.len(),
            protocol.num_states(),
            "counts must cover every state"
        );
        let (stepper, counts) = K::build(&protocol, counts);
        CountChain {
            protocol,
            counts,
            rng,
            interactions: 0,
            parallel_time: 0.0,
            stepper,
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

    /// Interactions simulated so far, batched spans and skipped no-ops
    /// included. The jump backend counts those up to the last population
    /// change plus the `t·n` its clock implies since, rounded.
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
    /// [`CountChain::from_counts_with_rng`] expose their counters here).
    pub fn rng(&self) -> &R {
        &self.rng
    }

    /// All per-state counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Runs for `duration` units of parallel time.
    ///
    /// With a population of fewer than two agents, time passes without
    /// interactions (matching the agent-array simulator's convention).
    pub fn run_parallel_time(&mut self, duration: f64) {
        let target = self.parallel_time + duration;
        if self.counts.total() < 2 {
            self.parallel_time = target;
            return;
        }
        K::advance(self, target);
    }

    /// Steps exactly until `count` interactions are done or the clock
    /// reaches `until`, through [`run_exact`].
    pub(crate) fn run(&mut self, count: u64, until: f64) {
        if count == 0 {
            return;
        }
        assert!(
            self.counts.total() >= 2,
            "an interaction needs at least two agents"
        );
        let (done, clock) = run_exact(
            &self.protocol,
            &mut self.counts,
            &mut self.rng,
            count,
            self.parallel_time,
            until,
        );
        self.interactions += done;
        self.parallel_time = clock;
    }

    /// Overwrites the count of state `i` (population setup / targeted
    /// removal).
    ///
    /// # Panics
    ///
    /// Panics if the population would exceed `u64::MAX`.
    pub fn set_count(&mut self, i: usize, count: u64) {
        self.counts.set(i, count);
        K::rebase(self);
    }

    /// Adds `count` agents in the protocol's initial state (the dynamic
    /// adversary's *add*).
    ///
    /// # Panics
    ///
    /// Panics if the population would exceed `u64::MAX`.
    pub fn add_agents(&mut self, count: u64) {
        let init = self.protocol.state_index(&self.protocol.initial_state());
        self.counts.add(init, count);
        K::rebase(self);
    }

    /// Removes `count` agents chosen uniformly at random without
    /// replacement (the count representation of uniform agent removal),
    /// as one multivariate hypergeometric draw over the count vector
    /// (`remove_uniform_counts`).
    ///
    /// Cost is O(#states) with at most one RNG word per occupied state,
    /// whatever `count` and `n` are: a near-total crash
    /// (the paper's Fig. 4 removes all but 500 of 10⁶) costs the same as a
    /// single removal.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the population size.
    pub fn remove_uniform(&mut self, count: u64) {
        self.counts.remove_uniform(&mut self.rng, count);
        K::rebase(self);
    }

    /// Resizes the population to `target`: grows with fresh agents or
    /// shrinks by uniform removal.
    pub fn resize_to(&mut self, target: u64) {
        let init = self.protocol.state_index(&self.protocol.initial_state());
        self.counts.resize_to(&mut self.rng, target, init);
        K::rebase(self);
    }
}

impl<P: FiniteProtocol, R: Rng> CountChain<P, Exact, R> {
    /// Simulates one interaction: two draws (one RNG word each, through
    /// the agent table or a scan of all states), the transition,
    /// and the moves of both agents to their outputs — only the
    /// initiator's for a one-way protocol, whose responder stays put.
    ///
    /// # Panics
    ///
    /// Panics if the population has fewer than two agents.
    pub fn step(&mut self) {
        self.run(1, f64::INFINITY);
    }

    /// Simulates `count` interactions.
    ///
    /// # Panics
    ///
    /// Panics if `count > 0` and the population has fewer than two agents.
    pub fn step_n(&mut self, count: u64) {
        self.run(count, f64::INFINITY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::{panic_message, CountingRng};
    use crate::{BatchedCountSimulator, JumpSimulator};
    use pp_model::{DeterministicProtocol, Protocol};
    use rand::RngExt;

    #[derive(Clone)]
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
    impl DeterministicProtocol for Or {}

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
        sim.step_n(steps);
        assert_eq!(sim.rng().words, 2 * steps);
    }

    /// A wide-state-space fixture over the given number of states:
    /// one-sided "drift towards the larger value, plus one, capped".
    /// RNG-free transitions, so the per-step word budget is pure sampler.
    #[derive(Clone)]
    struct Drift(usize);
    /// The lemmas' CHVP width.
    const DRIFT_STATES: usize = 401;
    impl Protocol for Drift {
        type State = u32;
        fn initial_state(&self) -> u32 {
            0
        }
        fn interact<R: Rng + ?Sized>(&self, u: &mut u32, v: &mut u32, _: &mut R) {
            *u = (*u).max(*v).saturating_add(1).min(self.0 as u32 - 1);
        }
    }
    impl FiniteProtocol for Drift {
        fn num_states(&self) -> usize {
            self.0
        }
        fn state_index(&self, s: &u32) -> usize {
            *s as usize
        }
        fn state_from_index(&self, i: usize) -> u32 {
            i as u32
        }
    }

    /// The same word budget on a wide state space whose lowest occupied
    /// state is well above state 0.
    #[test]
    fn wide_state_step_consumes_exactly_two_rng_words() {
        let steps = 1_000u64;
        let mut counts = vec![0u64; DRIFT_STATES];
        counts[90] = 700;
        counts[150] = 200;
        counts[DRIFT_STATES - 1] = 100;
        let mut sim = CountSimulator::from_counts_with_rng(
            Drift(DRIFT_STATES),
            counts,
            CountingRng::seeded(13),
        );
        sim.step_n(steps);
        assert_eq!(sim.rng().words, 2 * steps);
    }

    /// The CDF inverse of one RNG word by a scan of the whole count vector
    /// from state 0.
    fn reference_draw(counts: &[u64], rng: &mut SmallRng) -> usize {
        let mut r = rng.random_range(0..counts.iter().sum::<u64>());
        counts
            .iter()
            .position(|&c| {
                let hit = r < c;
                r = r.saturating_sub(c);
                hit
            })
            .expect("offset within the total")
    }

    /// One interaction by the definition: scan-from-zero draws, and both
    /// agents taken out and put back whatever the protocol's `ONE_WAY`.
    fn reference_step<P: FiniteProtocol>(protocol: &P, counts: &mut [u64], rng: &mut SmallRng) {
        let si = reference_draw(counts, rng);
        counts[si] -= 1;
        let sj = reference_draw(counts, rng);
        counts[sj] -= 1;
        let (oi, oj) = transition(protocol, si, sj, rng);
        counts[oi] += 1;
        counts[oj] += 1;
    }

    /// Wherever the agent table is off, steps and adversary events replay a
    /// reference simulator whose draws scan the whole count vector from
    /// state 0, step for step: above the table's cap (40 000 agents over
    /// 401 states, 20 rounds), and below it on a state space too wide for
    /// the table's entries (3 000 agents over 2¹⁶ + 1 states, the top one
    /// occupied, 2 rounds). Each round steps and then removes, adds or sets
    /// agents.
    #[test]
    fn windowed_steps_replay_a_scan_from_state_zero() {
        fn replay(mut counts: Vec<u64>, rounds: usize, steps: usize) {
            let drift = Drift(counts.len());
            let mut sim = CountSimulator::from_counts(drift.clone(), counts.clone(), 77);
            let mut rng = SmallRng::seed_from_u64(77);
            for round in 0..rounds {
                for _ in 0..steps {
                    reference_step(&drift, &mut counts, &mut rng);
                }
                sim.step_n(steps as u64);
                assert_eq!(sim.counts(), &counts[..], "round {round}");
                match round % 3 {
                    0 => {
                        let n = counts.iter().sum();
                        crate::removal::remove_uniform_counts(&mut rng, &mut counts, n, 40);
                        sim.remove_uniform(40);
                    }
                    1 => {
                        counts[0] += 40;
                        sim.add_agents(40);
                    }
                    _ => {
                        counts[5] += 3;
                        sim.set_count(5, sim.count(5) + 3);
                    }
                }
                assert_eq!(sim.counts(), &counts[..]);
            }
        }
        let mut counts = vec![0u64; DRIFT_STATES];
        counts[40] = 36_000;
        counts[47] = 2_000;
        counts[220] = 2_000;
        assert!(counts.iter().sum::<u64>() - 40 > TICKET_CAP);
        replay(counts, 20, 200);

        let mut wide = vec![0u64; (1 << 16) + 1];
        wide[40] = 2_000;
        wide[30_000] = 500;
        wide[1 << 16] = 500;
        replay(wide, 2, 100);
    }

    /// Bounded CHVP as the lemmas run it (one-way: `u` takes the larger
    /// countdown minus one, floored at 0), over 401 states.
    #[derive(Clone)]
    struct Countdown;
    impl Protocol for Countdown {
        type State = u16;
        const ONE_WAY: bool = true;
        fn initial_state(&self) -> u16 {
            0
        }
        fn interact<R: Rng + ?Sized>(&self, u: &mut u16, v: &mut u16, _: &mut R) {
            *u = (*u).max(*v).saturating_sub(1);
        }
    }
    impl FiniteProtocol for Countdown {
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
    impl DeterministicProtocol for Countdown {}

    /// Two-way averaging: the initiator takes the upper and the responder
    /// the lower half of the pair's sum, so every mixed pair writes the
    /// responder.
    #[derive(Clone)]
    struct Average;
    impl Protocol for Average {
        type State = u16;
        fn initial_state(&self) -> u16 {
            0
        }
        fn interact<R: Rng + ?Sized>(&self, u: &mut u16, v: &mut u16, _: &mut R) {
            let sum = *u + *v;
            (*u, *v) = (sum - sum / 2, sum / 2);
        }
    }
    impl FiniteProtocol for Average {
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
    impl DeterministicProtocol for Average {}

    /// One interaction on an agent table (`agents[t]` is the state of
    /// agent `t`) by the definition: the initiator is agent `r1`, the
    /// responder agent `r2` of the rest, and both agents and the counts are
    /// written whatever the protocol's `ONE_WAY`.
    fn reference_table_step<P: FiniteProtocol>(
        protocol: &P,
        agents: &mut [usize],
        counts: &mut [u64],
        rng: &mut SmallRng,
    ) {
        let n = agents.len();
        let r1 = rng.random_range(0..n);
        let r2 = rng.random_range(0..n - 1);
        let r2 = if r2 >= r1 { r2 + 1 } else { r2 };
        let (si, sj) = (agents[r1], agents[r2]);
        counts[si] -= 1;
        counts[sj] -= 1;
        let (oi, oj) = transition(protocol, si, sj, rng);
        (agents[r1], agents[r2]) = (oi, oj);
        counts[oi] += 1;
        counts[oj] += 1;
    }

    /// Both exact backends (within the agent table's cap and the batched
    /// backend's exact threshold) replay a reference agent-table step that
    /// writes both agents, on a one-way protocol whose agents stay within
    /// 32 adjacent states (so the skipped responder write changes nothing) and on a
    /// two-way protocol that writes the responder (so a skip that ignored
    /// `ONE_WAY` would lose its writes). The averaging run starts 401
    /// states wide and narrows to at most 32.
    #[test]
    fn responder_skip_is_exact_and_only_for_one_way_protocols() {
        /// Replays 20 rounds of 500 steps; returns the occupied span after
        /// each round.
        fn replay<P: DeterministicProtocol + Clone>(
            protocol: P,
            counts: Vec<u64>,
            seed: u64,
        ) -> Vec<usize> {
            let mut reference = counts.clone();
            // Laid out in state order, as the table's refill does.
            let mut agents: Vec<usize> = (0..counts.len())
                .flat_map(|s| std::iter::repeat_n(s, counts[s] as usize))
                .collect();
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut count = CountSimulator::from_counts(protocol.clone(), counts.clone(), seed);
            let mut batched = BatchedCountSimulator::from_counts(protocol.clone(), counts, seed);
            (0..20)
                .map(|round| {
                    for _ in 0..500 {
                        reference_table_step(&protocol, &mut agents, &mut reference, &mut rng);
                    }
                    count.step_n(500);
                    batched.run(500, f64::INFINITY);
                    assert_eq!(count.counts(), &reference[..], "count, round {round}");
                    assert_eq!(batched.counts(), &reference[..], "batched, round {round}");
                    let occupied = |c: &u64| *c > 0;
                    let counts = count.counts();
                    counts.iter().rposition(occupied).unwrap()
                        - counts.iter().position(occupied).unwrap()
                        + 1
                })
                .collect()
        }
        let mut narrow = vec![0u64; DRIFT_STATES];
        narrow[380] = 1;
        narrow[390..400].fill(20);
        let widths = replay(Countdown, narrow, 91);
        assert!(widths.iter().all(|&w| w <= 32), "{widths:?}");
        let mut spread = vec![0u64; DRIFT_STATES];
        spread[0] = 150;
        spread[DRIFT_STATES - 1] = 50;
        spread[200] = 100;
        let widths = replay(Average, spread, 92);
        assert!(widths[0] > 32 && widths[19] <= 32, "{widths:?}");
    }

    /// `run_parallel_time` in pieces replays one call over their sum, in
    /// counts, interactions and generator state: each call resumes the
    /// generator where the last one left it. The populations are powers of
    /// two and the pieces multiples of 1/64, so every clock value is exact
    /// and the pieces end on the same interaction as the whole. Run on the
    /// agent table (401-state CHVP at n = 2¹⁰) and on the scan (above the
    /// table's cap).
    #[test]
    fn parallel_time_in_pieces_replays_one_call() {
        fn check<P: FiniteProtocol + Clone>(protocol: P, counts: Vec<u64>) {
            let mut whole = CountSimulator::from_counts(protocol.clone(), counts.clone(), 31);
            whole.run_parallel_time(4.5);
            let mut split = CountSimulator::from_counts(protocol, counts, 31);
            for piece in [0.015625, 0.984375, 1.0, 2.5] {
                split.run_parallel_time(piece);
            }
            assert_eq!(split.parallel_time(), whole.parallel_time());
            assert_eq!(split.interactions(), whole.interactions());
            assert_eq!(split.counts(), whole.counts());
            assert_eq!(split.rng(), whole.rng());
        }
        let mut chvp = vec![0u64; DRIFT_STATES];
        (chvp[0], chvp[DRIFT_STATES - 1]) = ((1 << 10) - 1, 1);
        check(Countdown, chvp);
        const { assert!(1 << 16 > TICKET_CAP) };
        check(Or, vec![(1 << 16) - 1, 1]);
    }

    /// A protocol whose transitions never change any count.
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
    fn set_count_adjusts_population_incrementally() {
        let mut sim = CountSimulator::from_counts(Or, vec![10, 5], 11);
        sim.set_count(0, 3); // shrink
        assert_eq!(sim.population(), 8);
        sim.set_count(1, 50); // grow
        assert_eq!(sim.population(), 53);
        sim.set_count(1, 0); // empty the top state
        assert_eq!(sim.population(), 3);
        assert_eq!(sim.counts(), &[3, 0]);
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
        sim.set_count(0, sim.count(0)); // a no-op write
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
        // zero draws and must leave every invariant (counts, total, agent
        // table) consistent, not a half-updated husk.
        let mut sim = CountSimulator::from_counts(Inert, spread_counts(), 61);
        let n = sim.population();
        sim.remove_uniform(n);
        assert_eq!(sim.population(), 0);
        assert!(sim.counts().iter().all(|&c| c == 0));
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
        // A near-total removal empties most states at once; later draws
        // must land only on the survivors' states.
        let mut sim = CountSimulator::from_counts(Inert, spread_counts(), 63);
        let n = sim.population();
        sim.remove_uniform(n - 4); // keep 4 of 1000
        assert_eq!(sim.population(), 4);
        let survivors = sim.counts().to_vec();
        // Inert transitions never change counts, so any drift here means
        // the post-removal sampler state was inconsistent.
        sim.step_n(500);
        assert_eq!(sim.counts(), &survivors[..]);
    }

    #[test]
    fn small_branch_removal_that_empties_a_state_tightens_the_bound() {
        // Emptying the high state must not leave draws landing on the
        // (now empty) top state.
        let mut counts = vec![0u64; DRIFT_STATES];
        counts[170] = 100;
        counts[3] = 100;
        let mut sim = CountSimulator::from_counts(Inert, counts, 64);
        sim.set_count(170, 0); // remove-to-zero of the top state mid-run
        assert_eq!(sim.population(), 100);
        sim.step_n(200); // draws must stay inside the live range
        assert_eq!(sim.count(3), 100);
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn stepping_a_lone_agent_panics() {
        let mut sim = CountSimulator::from_counts(Or, vec![1, 0], 9);
        sim.step();
    }

    /// Counts that sum past `u64::MAX`, and additions that would take the
    /// population there, panic instead of wrapping to a small population.
    #[test]
    fn populations_past_u64_max_panic_instead_of_wrapping() {
        use crate::counts::assert_population_overflow;
        assert_population_overflow(|| {
            CountSimulator::from_counts(Or, vec![u64::MAX, 2], 1);
        });
        assert_population_overflow(|| {
            CountSimulator::from_counts(Or, vec![u64::MAX - 1, 1], 1).add_agents(5);
        });
        assert_population_overflow(|| {
            CountSimulator::from_counts(Or, vec![3, 1], 1).set_count(0, u64::MAX);
        });
        let mut sim = CountSimulator::from_counts(Or, vec![u64::MAX - 7, 1], 1);
        sim.add_agents(5);
        sim.set_count(1, 2);
        assert_eq!(sim.population(), u64::MAX);
    }

    /// The shared constructor checks the length for every stepper.
    #[test]
    fn from_counts_validates_length() {
        assert!(panic_message(|| {
            CountSimulator::from_counts(Or, vec![1, 2, 3], 10);
        })
        .contains("cover every state"));
        assert!(panic_message(|| {
            BatchedCountSimulator::from_counts(Or, vec![1, 2, 3], 10);
        })
        .contains("cover every state"));
        assert!(panic_message(|| {
            JumpSimulator::from_counts(Or, vec![1, 2, 3], 10);
        })
        .contains("cover every state"));
    }

    /// The batched and jump steppers probe the transitions when built and
    /// reject a protocol whose transitions use the RNG.
    #[test]
    fn randomized_protocols_are_rejected() {
        struct CoinFlip;
        impl Protocol for CoinFlip {
            type State = bool;
            fn initial_state(&self) -> bool {
                false
            }
            fn interact<R: Rng + ?Sized>(&self, u: &mut bool, _v: &mut bool, rng: &mut R) {
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
        assert!(panic_message(|| {
            BatchedCountSimulator::with_seed(CoinFlip, 10, 4);
        })
        .contains("not deterministic"));
        assert!(panic_message(|| {
            JumpSimulator::with_seed(CoinFlip, 10, 4);
        })
        .contains("not deterministic"));
    }

    /// The counts after each of a fixed sequence of adversary events on
    /// `sim`, with no step in between.
    fn counts_after_each_event<K: Stepper<Or>>(sim: &mut CountChain<Or, K>) -> Vec<Vec<u64>> {
        let mut seen = Vec::new();
        let mut record = |sim: &CountChain<Or, K>, population| {
            assert_eq!(sim.population(), population, "{}", K::NAME);
            assert_eq!(sim.counts().iter().sum::<u64>(), population);
            seen.push(sim.counts().to_vec());
        };
        sim.remove_uniform(30);
        record(sim, 70);
        sim.remove_uniform(60); // a majority removed
        record(sim, 10);
        sim.add_agents(5);
        record(sim, 15);
        sim.resize_to(40);
        record(sim, 40);
        sim.resize_to(25);
        record(sim, 25);
        sim.set_count(1, 0);
        record(sim, sim.count(0));
        seen
    }

    /// The three steppers share one implementation of the adversary's
    /// events: from the same counts and seed, each event leaves the same
    /// counts on all three. Jump books the interactions up to an event at
    /// the old population and those after it at the new one.
    #[test]
    fn adversary_events_leave_equal_counts_on_every_stepper() {
        let counts = vec![60, 40];
        let exact =
            counts_after_each_event(&mut CountSimulator::from_counts(Or, counts.clone(), 13));
        let batched = counts_after_each_event(&mut BatchedCountSimulator::from_counts(
            Or,
            counts.clone(),
            13,
        ));
        let jump = counts_after_each_event(&mut JumpSimulator::from_counts(Or, counts, 13));
        assert_eq!(exact, batched);
        assert_eq!(exact, jump);

        let mut jump = JumpSimulator::from_counts(Or, vec![990, 10], 5);
        jump.run_parallel_time(2.5);
        assert_eq!(jump.interactions(), 2_500);
        jump.add_agents(500);
        assert_eq!(jump.interactions(), 2_500);
        jump.run_parallel_time(1.5);
        assert_eq!(jump.interactions(), 2_500 + 2_250);
    }
}
