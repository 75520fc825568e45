//! The Berenbrink–Kaaser–Radzik (PODC 2019) exact counting baseline.
//!
//! The paper cites BKR as the best *static* counter — it computes
//! `⌊log n⌋` or `⌈log n⌉` — and as unsuitable for the dynamic setting
//! because "the single leader agent may be removed from the population"
//! (§1.2). The mechanism: a leader seeds `M` tokens, a load-balancing rule
//! spreads them; if some agent ends a balancing round without a token, `M`
//! was smaller than `n`, so the leader doubles `M` and restarts. The first
//! `M = 2^m` with no empty agent satisfies `2^{m-1} < n ≤ … `, giving
//! `m ≈ log2 n`.
//!
//! ## Documented simplification (DESIGN.md §5)
//!
//! The PODC 2019 protocol couples junta-driven phase clocks with a
//! multi-phase doubling schedule. We reproduce the referenced *behaviour*
//! with a self-contained construction:
//!
//! * leader election by pairwise elimination (initiator abdicates, winner
//!   absorbs tokens);
//! * two-way load balancing `(x, y) → (⌈(x+y)/2⌉, ⌊(x+y)/2⌋)`;
//! * round pacing by own-interaction timers of length `c·(m+1)`;
//! * an `empty` flag raised in the second half of a round when a
//!   token-less agent is seen, spread by OR-epidemic;
//! * at round end the **leader** doubles `M` (flag raised) or declares the
//!   count done (flag clear); round numbers spread epidemically and reset
//!   followers.
//!
//! What carries over to the experiments: the static `≈ log2 n` output and
//! the single point of failure — remove the leader and the protocol stalls
//! forever, which is exactly what experiment E9 demonstrates.

use pp_model::{bit_len, MemoryFootprint, Protocol, SizeEstimator};
use rand::Rng;

/// Role of a BKR agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BkrRole {
    /// The (eventually unique) coordinator.
    Leader,
    /// Everyone else.
    Follower,
}

/// State of a BKR agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BkrState {
    /// Leader or follower.
    pub role: BkrRole,
    /// Tokens currently held.
    pub tokens: u64,
    /// Current exponent guess: the round balances `M = 2^m_exp` tokens.
    pub m_exp: u32,
    /// Balancing round number (spread epidemically).
    pub round: u32,
    /// Own interactions since this round started.
    pub round_timer: u32,
    /// Whether a token-less agent was seen late in this round (OR-spread).
    pub saw_empty: bool,
    /// Whether the count has stabilized; `m_exp` is then the output.
    pub done: bool,
}

/// The BKR-style exact counting baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BkrCounting {
    /// Round length factor: a round lasts `round_factor·(m_exp + 1)` own
    /// interactions.
    round_factor: u32,
}

impl Default for BkrCounting {
    fn default() -> Self {
        Self::new()
    }
}

impl BkrCounting {
    /// Creates the protocol with the default round length factor (40).
    pub fn new() -> Self {
        BkrCounting { round_factor: 40 }
    }

    /// Customizes the round length factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 4` (rounds too short for balancing to finish).
    pub fn with_round_factor(mut self, factor: u32) -> Self {
        assert!(factor >= 4, "round factor must be at least 4");
        self.round_factor = factor;
        self
    }

    /// Own-interaction length of a round at exponent `m_exp`.
    pub fn round_length(&self, m_exp: u32) -> u32 {
        self.round_factor * (m_exp + 1)
    }

    fn adopt_round(&self, s: &mut BkrState, round: u32, m_exp: u32) {
        s.round = round;
        s.m_exp = m_exp;
        s.round_timer = 0;
        s.saw_empty = false;
        if s.role == BkrRole::Follower {
            s.tokens = 0;
        }
    }
}

/// Exponent cap preventing `1 << m_exp` overflow on runaway executions.
const M_EXP_CAP: u32 = 60;

impl Protocol for BkrCounting {
    type State = BkrState;

    fn initial_state(&self) -> BkrState {
        BkrState {
            role: BkrRole::Leader,
            tokens: 0,
            m_exp: 0,
            round: 0,
            round_timer: 0,
            saw_empty: false,
            done: false,
        }
    }

    fn interact<R: Rng + ?Sized>(&self, u: &mut BkrState, v: &mut BkrState, _rng: &mut R) {
        // Leader election: the initiator abdicates, the winner absorbs.
        if u.role == BkrRole::Leader && v.role == BkrRole::Leader {
            v.tokens += u.tokens;
            u.tokens = 0;
            u.role = BkrRole::Follower;
        }

        // Done state and its exponent spread epidemically and freeze agents.
        if u.done || v.done {
            let m = if u.done { u.m_exp } else { v.m_exp };
            u.done = true;
            v.done = true;
            u.m_exp = m;
            v.m_exp = m;
            return;
        }

        // Round synchronization: the newest round wins.
        if u.round < v.round {
            self.adopt_round(u, v.round, v.m_exp);
        } else if v.round < u.round {
            self.adopt_round(v, u.round, u.m_exp);
        }

        // Two-way load balancing.
        let total = u.tokens + v.tokens;
        u.tokens = total.div_ceil(2);
        v.tokens = total / 2;

        // Empty detection in the second half of the round (earlier the
        // tokens have legitimately not spread yet).
        u.round_timer += 1;
        if u.round_timer > self.round_length(u.m_exp) / 2 && (u.tokens == 0 || v.tokens == 0) {
            u.saw_empty = true;
        }
        let seen = u.saw_empty || v.saw_empty;
        u.saw_empty = seen;
        v.saw_empty = seen;

        // Leader ends the round.
        if u.role == BkrRole::Leader && u.round_timer >= self.round_length(u.m_exp) {
            if u.saw_empty {
                u.round += 1;
                u.m_exp = (u.m_exp + 1).min(M_EXP_CAP);
                u.tokens = 1u64 << u.m_exp;
                u.round_timer = 0;
                u.saw_empty = false;
            } else {
                u.done = true;
            }
        }
    }
}

impl SizeEstimator for BkrCounting {
    /// `m_exp ≈ ⌈log2 n⌉` once done; no estimate before.
    fn estimate_log2(&self, state: &BkrState) -> Option<f64> {
        state.done.then_some(f64::from(state.m_exp))
    }
}

impl MemoryFootprint for BkrState {
    fn memory_bits(&self) -> u32 {
        // role + done + saw_empty flags, tokens, m_exp, round, timer.
        3 + bit_len(self.tokens)
            + bit_len(u64::from(self.m_exp))
            + bit_len(u64::from(self.round))
            + bit_len(u64::from(self.round_timer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_sim::Simulator;

    #[test]
    fn leaders_merge_and_tokens_are_conserved() {
        let p = BkrCounting::new();
        let mut u = p.initial_state();
        let mut v = p.initial_state();
        u.tokens = 3;
        v.tokens = 5;
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert_eq!(u.role, BkrRole::Follower);
        assert_eq!(v.role, BkrRole::Leader);
        assert_eq!(u.tokens + v.tokens, 8);
    }

    #[test]
    fn balancing_splits_evenly() {
        let p = BkrCounting::new();
        let mut u = p.initial_state();
        let mut v = p.initial_state();
        u.role = BkrRole::Follower;
        v.role = BkrRole::Follower;
        u.tokens = 7;
        v.tokens = 2;
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert_eq!((u.tokens, v.tokens), (5, 4));
    }

    #[test]
    fn done_freezes_and_spreads() {
        let p = BkrCounting::new();
        let mut u = p.initial_state();
        let mut v = p.initial_state();
        u.done = true;
        u.m_exp = 9;
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert!(v.done);
        assert_eq!(v.m_exp, 9);
    }

    /// End to end: on a static population the count converges to
    /// `log2 n ± small constant` (the election/doubling interplay can
    /// overshoot by the number of surviving leaders' seedings).
    #[test]
    fn converges_near_log_n() {
        let n = 256usize; // log2 = 8
        let mut sim = Simulator::with_seed(BkrCounting::new(), n, 51);
        sim.run_parallel_time(20_000.0);
        let s = sim.estimate_stats().expect("count should be done");
        assert_eq!(
            s.without_estimate, 0,
            "all agents should have the final count"
        );
        assert!(
            s.median >= 7.0 && s.median <= 13.0,
            "count {} should be near log2(256) = 8",
            s.median
        );
    }

    /// The documented failure mode: remove the leader and the protocol
    /// stalls — no agent ever reports a count.
    #[test]
    fn stalls_without_leader() {
        let n = 128usize;
        let mut sim = Simulator::with_seed(BkrCounting::new(), n, 52);
        sim.run_parallel_time(200.0); // well before convergence at factor 40
                                      // The adversary removes every leader: rebuild from the survivors.
        let survivors: Vec<BkrState> = sim
            .states()
            .iter()
            .filter(|s| s.role == BkrRole::Follower)
            .cloned()
            .collect();
        assert!(survivors.len() < n, "there was at least one leader");
        assert!(survivors.len() >= 2, "enough followers survive");
        let mut sim = Simulator::from_config(
            BkrCounting::new(),
            pp_model::Configuration::from_states(survivors),
            53,
        );
        let round_before = sim.states().iter().map(|s| s.round).max().unwrap();
        sim.run_parallel_time(3_000.0);
        let round_after = sim.states().iter().map(|s| s.round).max().unwrap();
        assert_eq!(
            round_before, round_after,
            "rounds cannot advance without a leader"
        );
        assert!(
            sim.states().iter().all(|s| !s.done),
            "the count can never finish without a leader"
        );
    }
}
