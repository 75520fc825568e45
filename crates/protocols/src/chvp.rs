//! Countdown with Higher Value Propagation (CHVP) and its count-up dual.
//!
//! CHVP is the paper's timer substrate (Appendix C, Lemmas 4.3 and 4.4),
//! based on Sudo, Eguchi, Izumi & Masuzawa (DISC 2021). The one-sided
//! transition is
//!
//! ```text
//! (u, v) → (max{u, v} − 1, v)
//! ```
//!
//! so the *largest* value propagates epidemically while everyone counts
//! down roughly once per parallel time unit. Lemma 4.3: within
//! `7n(Δ + k log n)` interactions the maximum drops by at least `Δ` w.h.p.
//! Lemma 4.4: after `7n(Δ + k log n)` interactions the *minimum* is at
//! least `m − 12(Δ + k log n)` w.h.p. — values stay in a tight window, which
//! is exactly what the paper's phase thresholds `τ1 > τ2 > τ3` rely on
//! (Lemma 4.5).
//!
//! The analysis in the paper's Appendix C works with the dual process CLVP
//! (*count-up with lower value propagation*), `(x, y) → (min{x, y} + 1, y)`;
//! we implement the bounded CHVP the lemma experiments run and CLVP, and
//! test the duality.

use pp_model::{FiniteProtocol, Protocol, SizeEstimator};
use rand::Rng;

/// One-sided CHVP with values restricted to `0..=start`, floored at zero,
/// enumerable for the count-based simulator.
///
/// Inside the paper's protocol the countdown reaching zero triggers a reset;
/// as a standalone substrate the value simply stops at zero.
///
/// # Examples
///
/// ```
/// use pp_model::Protocol;
/// use pp_protocols::BoundedChvp;
///
/// let p = BoundedChvp::new(10);
/// let (mut u, mut v) = (3u32, 10u32);
/// p.interact(&mut u, &mut v, &mut rand::rng());
/// assert_eq!((u, v), (9, 10)); // adopts the higher value, minus one
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedChvp {
    start: u32,
}

impl BoundedChvp {
    /// Creates a bounded CHVP whose values live in `0..=start`.
    ///
    /// # Panics
    ///
    /// Panics if `start == 0`.
    pub fn new(start: u32) -> Self {
        assert!(start > 0, "start must be at least 1");
        BoundedChvp { start }
    }

    /// The largest representable value.
    pub fn start(&self) -> u32 {
        self.start
    }
}

impl Protocol for BoundedChvp {
    // One-way (paper model): `interact` never mutates the responder.
    const ONE_WAY: bool = true;

    type State = u32;

    fn initial_state(&self) -> u32 {
        self.start
    }

    fn interact<R: Rng + ?Sized>(&self, u: &mut u32, v: &mut u32, _rng: &mut R) {
        *u = (*u).max(*v).saturating_sub(1);
    }
}

impl SizeEstimator for BoundedChvp {
    /// The countdown value itself: snapshot summaries of a count-based
    /// sweep then report the min/max *occupied value*, which is exactly the
    /// window statistic Lemmas 4.3/4.4 bound.
    fn estimate_log2(&self, state: &u32) -> Option<f64> {
        Some(f64::from(*state))
    }
}

/// Event-jump simulable: the countdown rule is deterministic.
impl pp_model::DeterministicProtocol for BoundedChvp {}

impl FiniteProtocol for BoundedChvp {
    fn num_states(&self) -> usize {
        self.start as usize + 1
    }

    fn state_index(&self, state: &u32) -> usize {
        *state as usize
    }

    fn state_from_index(&self, index: usize) -> u32 {
        index as u32
    }
}

/// CLVP: count-up with lower value propagation, `(x, y) → (min{x, y} + 1, y)`,
/// capped at `cap` (paper Appendix C, Eq. (1)).
///
/// The dual of CHVP: `chvp(x) = m − clvp(m − x)`. The paper's Lemma 4.3/4.4
/// proofs run on CLVP and transfer through this duality; our tests check it
/// empirically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clvp {
    cap: u32,
}

impl Clvp {
    /// Creates a CLVP protocol with values in `0..=cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: u32) -> Self {
        assert!(cap > 0, "cap must be at least 1");
        Clvp { cap }
    }

    /// The largest representable value.
    pub fn cap(&self) -> u32 {
        self.cap
    }
}

impl Protocol for Clvp {
    // One-way (paper model): `interact` never mutates the responder.
    const ONE_WAY: bool = true;

    type State = u32;

    fn initial_state(&self) -> u32 {
        0
    }

    fn interact<R: Rng + ?Sized>(&self, u: &mut u32, v: &mut u32, _rng: &mut R) {
        *u = ((*u).min(*v) + 1).min(self.cap);
    }
}

/// Event-jump simulable: the count-up rule is deterministic.
impl pp_model::DeterministicProtocol for Clvp {}

impl FiniteProtocol for Clvp {
    fn num_states(&self) -> usize {
        self.cap as usize + 1
    }

    fn state_index(&self, state: &u32) -> usize {
        *state as usize
    }

    fn state_from_index(&self, index: usize) -> u32 {
        index as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_sim::{CountSimulator, Simulator};

    #[test]
    fn chvp_adopts_higher_minus_one_and_floors() {
        let p = BoundedChvp::new(10);
        let (mut u, mut v) = (0u32, 0u32);
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert_eq!(u, 0, "floor at zero");
        let (mut u, mut v) = (7u32, 3u32);
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert_eq!((u, v), (6, 3));
    }

    /// Lemma 4.3 (statistical): starting from max = m, after
    /// `7n(Δ + k log n)` interactions the maximum has dropped by at least Δ.
    #[test]
    fn lemma_4_3_max_drops() {
        let n: u64 = 1_000;
        let m = 200u32;
        let delta = 50u32;
        let k = 1.0;
        let budget_interactions = (7.0 * n as f64 * (delta as f64 + k * (n as f64).log2())) as u64;
        for seed in 0..3 {
            let mut sim = CountSimulator::from_counts(
                BoundedChvp::new(m),
                {
                    let mut c = vec![0u64; m as usize + 1];
                    c[m as usize] = n;
                    c
                },
                seed,
            );
            sim.step_n(budget_interactions);
            let max = sim.max_occupied().unwrap() as u32;
            assert!(
                max <= m - delta,
                "seed {seed}: max {max} did not drop by Δ={delta} from {m}"
            );
        }
    }

    /// Lemma 4.4 (statistical): the minimum stays within `12(Δ + k log n)`
    /// of the initial maximum after `7n(Δ + k log n)` interactions, even
    /// when all but one agent start at zero.
    #[test]
    fn lemma_4_4_min_catches_up() {
        let n: u64 = 1_000;
        let m = 500u32;
        let delta = 20u32;
        let k = 2.0;
        let window = delta as f64 + k * (n as f64).log2();
        let budget_interactions = (7.0 * n as f64 * window) as u64;
        for seed in 0..3 {
            let mut counts = vec![0u64; m as usize + 1];
            counts[0] = n - 1;
            counts[m as usize] = 1;
            let mut sim = CountSimulator::from_counts(BoundedChvp::new(m), counts, seed);
            sim.step_n(budget_interactions);
            let min = sim.min_occupied().unwrap() as f64;
            assert!(
                min >= m as f64 - 12.0 * window,
                "seed {seed}: min {min} below m − 12(Δ + k log n) = {}",
                m as f64 - 12.0 * window
            );
        }
    }

    /// The values of a synchronized CHVP population stay in a narrow window
    /// while counting down (the property Lemma 4.5's phase thresholds need).
    #[test]
    fn chvp_window_stays_narrow() {
        let n = 2_000usize;
        let start = 300u32;
        let mut sim = Simulator::from_config(
            BoundedChvp::new(start),
            pp_model::Configuration::uniform(n, start),
            7,
        );
        for _ in 0..200 {
            sim.step_n(n as u64);
            let min = *sim.states().iter().min().unwrap();
            let max = *sim.states().iter().max().unwrap();
            if max == 0 {
                break;
            }
            assert!(
                max - min <= 60,
                "window [{min}, {max}] too wide for a synchronized countdown"
            );
        }
    }

    #[test]
    fn clvp_duality_with_chvp() {
        // One deterministic interaction: chvp(x, y) = m − clvp(m − x, m − y).
        // At (0, 0) CHVP's floor at zero meets CLVP's cap at m.
        let m = 100u32;
        let chvp = BoundedChvp::new(m);
        let clvp = Clvp::new(m);
        for (x, y) in [(50u32, 80u32), (10, 10), (99, 1), (100, 42), (0, 0)] {
            let (mut cu, mut cv) = (x, y);
            chvp.interact(&mut cu, &mut cv, &mut rand::rng());
            let (mut lu, mut lv) = (m - x, m - y);
            clvp.interact(&mut lu, &mut lv, &mut rand::rng());
            assert_eq!(cu, m - lu, "duality broken at ({x},{y})");
        }
    }

    #[test]
    fn clvp_counts_up_to_cap() {
        let mut sim = CountSimulator::with_seed(Clvp::new(50), 500, 9);
        sim.run_parallel_time(200.0);
        assert_eq!(sim.min_occupied(), Some(50), "everyone reaches the cap");
    }

    #[test]
    fn finite_indexing_roundtrips() {
        let p = BoundedChvp::new(5);
        for i in 0..p.num_states() {
            assert_eq!(p.state_index(&p.state_from_index(i)), i);
        }
        let q = Clvp::new(5);
        for i in 0..q.num_states() {
            assert_eq!(q.state_index(&q.state_from_index(i)), i);
        }
    }
}
