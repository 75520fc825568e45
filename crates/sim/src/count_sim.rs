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
//! Weighted sampling is the CDF inverse with one RNG word per draw: the
//! state `i` with `prefix(i) <= r < prefix(i + 1)`, which is the state of
//! ticket `r` when the agents are numbered by ticket in state order. Both
//! draws of a step, the initiator's and the responder's, read the same
//! unchanged counts. This backend turns on the count vector's **ticket
//! table**: while the population is at most [`TICKET_CAP`] (2¹⁵ agents,
//! so the lemmas' n = 2¹⁰ and 2¹⁴ both fit), a draw is one load of the
//! state of that ticket, and a move relabels one ticket per state boundary
//! it crosses (zero or one for 95% of CHVP's moves). An adversary event
//! marks the table stale, and the next step refills it in O(n + #states)
//! into capacity reserved at construction. Above the cap, one branch-free
//! pass over the **occupied window** (the lowest to the highest occupied
//! state) yields both draws, in time linear in the window's width, so a
//! wide window above the cap (a Lemma 4.4 start at n = 2¹⁶) is the slow
//! case. Either way the drawn states, and so the trajectories, are those
//! of a scan from state 0.
//!
//! After the draws each agent moves to its transition output; a
//! [`Protocol::ONE_WAY`](pp_model::Protocol::ONE_WAY) protocol's responder
//! does not move. The batched backend's exact path steps through the same
//! count-vector method with the table off, so the two exact paths draw
//! the same states from the same words.
//! Within one call of [`CountSimulator::step_n`] or
//! [`CountSimulator::run_parallel_time`] the population is fixed, so the
//! loop keeps `1/n` and the clock in locals.

pub use crate::counts::TICKET_CAP;
use crate::counts::{fresh_counts, transition, CountVector};
use pp_model::FiniteProtocol;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
    counts: CountVector,
    rng: R,
    interactions: u64,
    parallel_time: f64,
}

impl<P: FiniteProtocol> CountSimulator<P, SmallRng> {
    /// Creates a simulator of `n` agents in the protocol's initial state.
    pub fn with_seed(protocol: P, n: u64, seed: u64) -> Self {
        let counts = fresh_counts(&protocol, n);
        Self::from_counts(protocol, counts, seed)
    }

    /// Creates a simulator from explicit per-state counts.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != protocol.num_states()` or if the counts
    /// sum past `u64::MAX`.
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
    /// Panics if `counts.len() != protocol.num_states()` or if the counts
    /// sum past `u64::MAX`.
    pub fn from_counts_with_rng(protocol: P, counts: Vec<u64>, rng: R) -> Self {
        assert_eq!(
            counts.len(),
            protocol.num_states(),
            "counts must cover every state"
        );
        CountSimulator {
            protocol,
            counts: CountVector::with_tickets(counts),
            rng,
            interactions: 0,
            parallel_time: 0.0,
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

    /// Overwrites the count of state `i` (population setup).
    ///
    /// # Panics
    ///
    /// Panics if the population would exceed `u64::MAX`.
    pub fn set_count(&mut self, i: usize, count: u64) {
        self.counts.set(i, count);
    }

    /// Simulates one interaction: two weighted draws (one RNG word each,
    /// through the ticket table or the occupied window), the transition,
    /// and the moves of both agents to their outputs — only the initiator's for a one-way
    /// protocol, whose responder stays put.
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
        self.run(u64::MAX, target);
    }

    /// Steps until `count` interactions are done or the clock reaches
    /// `until`. The population is fixed within the call, so the clock and
    /// its per-step increment `1/n` live in locals; the clock still adds
    /// `1/n` once per step.
    fn run(&mut self, count: u64, until: f64) {
        if count == 0 {
            return;
        }
        let n = self.counts.total();
        assert!(n >= 2, "an interaction needs at least two agents");
        let dt = 1.0 / n as f64;
        let mut clock = self.parallel_time;
        let mut done = 0;
        let protocol = &self.protocol;
        while done < count && clock < until {
            self.counts
                .interact(&mut self.rng, P::ONE_WAY, |si, sj, rng| {
                    transition(protocol, si, sj, rng)
                });
            clock += dt;
            done += 1;
        }
        self.interactions += done;
        self.parallel_time = clock;
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
    }

    /// Removes `count` agents chosen uniformly at random without
    /// replacement (the count representation of uniform agent removal),
    /// as one multivariate hypergeometric draw over the count vector
    /// (`remove_uniform_counts`).
    ///
    /// Cost is O(width of the occupied window) with at most one RNG word
    /// per occupied state, whatever `count` and `n` are: a near-total crash
    /// (the paper's Fig. 4 removes all but 500 of 10⁶) costs the same as a
    /// single removal.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the population size.
    pub fn remove_uniform(&mut self, count: u64) {
        self.counts.remove_uniform(&mut self.rng, count);
    }

    /// Resizes the population to `target`: grows with fresh agents or
    /// shrinks by uniform removal.
    pub fn resize_to(&mut self, target: u64) {
        let init = self.protocol.state_index(&self.protocol.initial_state());
        self.counts.resize_to(&mut self.rng, target, init);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchedCountSimulator;
    use pp_model::{DeterministicProtocol, Protocol};
    use rand::RngExt;

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
        sim.step_n(steps);
        assert_eq!(sim.rng().words, 2 * steps);
    }

    /// A wide-state-space fixture with the lemmas' CHVP width (401
    /// states): one-sided "drift towards the larger value, plus one,
    /// capped". RNG-free transitions, so the per-step word budget is pure
    /// sampler.
    #[derive(Clone)]
    struct Drift;
    const DRIFT_STATES: usize = 401;
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

    /// The same word budget on a wide state space whose occupied window
    /// starts well above state 0.
    #[test]
    fn wide_state_step_consumes_exactly_two_rng_words() {
        let steps = 1_000u64;
        let mut counts = vec![0u64; DRIFT_STATES];
        counts[90] = 700;
        counts[150] = 200;
        counts[DRIFT_STATES - 1] = 100;
        let mut sim = CountSimulator::from_counts_with_rng(Drift, counts, CountingRng::seeded(13));
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

    /// Steps and adversary events replay a reference simulator whose draws
    /// scan the whole count vector from state 0, with 1 000 agents (within
    /// the ticket table's cap) and with 40 000 (above it, on a window of
    /// about 180 states): the table, its refills after each event, and the
    /// window scan change how a draw finds its state, never which state it
    /// returns.
    #[test]
    fn windowed_steps_replay_a_scan_from_state_zero() {
        for scale in [1, 40] {
            let mut counts = vec![0u64; DRIFT_STATES];
            counts[40] = 900 * scale;
            counts[47] = 50 * scale;
            counts[220] = 50 * scale;
            let mut sim = CountSimulator::from_counts(Drift, counts.clone(), 77);
            let mut rng = SmallRng::seed_from_u64(77);
            for round in 0..20 {
                for _ in 0..200 {
                    reference_step(&Drift, &mut counts, &mut rng);
                }
                sim.step_n(200);
                assert_eq!(sim.counts(), &counts[..], "{scale}×, round {round}");
                assert_eq!(sim.population() > TICKET_CAP, scale > 1);
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

    /// Both exact backends replay the reference step on a one-way protocol
    /// whose window stays within 32 states (so the skipped responder
    /// round-trip changes no count) and on a two-way protocol that writes
    /// the responder (so a skip that ignored `ONE_WAY` would lose its
    /// writes). The averaging run starts 401 states wide and narrows to at
    /// most 32.
    #[test]
    fn responder_skip_is_exact_and_only_for_one_way_protocols() {
        /// Replays 20 rounds of 500 steps; returns the window width after
        /// each round.
        fn replay<P: DeterministicProtocol + Clone>(
            protocol: P,
            counts: Vec<u64>,
            seed: u64,
        ) -> Vec<usize> {
            let mut reference = counts.clone();
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut count = CountSimulator::from_counts(protocol.clone(), counts.clone(), seed);
            let mut batched = BatchedCountSimulator::from_counts(protocol.clone(), counts, seed);
            (0..20)
                .map(|round| {
                    for _ in 0..500 {
                        reference_step(&protocol, &mut reference, &mut rng);
                        batched.step();
                    }
                    count.step_n(500);
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
        sim.set_count(0, sim.count(0)); // no-op; exercises window upkeep
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
        // zero draws and must leave every invariant (counts, total,
        // occupied window) consistent, not a half-updated husk.
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
        // A near-total removal empties most states at once; the occupied
        // window must resync with the new (much sparser) configuration or
        // later draws walk off the end of the old range.
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

    #[test]
    #[should_panic(expected = "cover every state")]
    fn from_counts_validates_length() {
        let _ = CountSimulator::from_counts(Or, vec![1, 2, 3], 10);
    }
}
