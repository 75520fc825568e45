//! Static approximate counting by spreading the maximum GRV.
//!
//! The classic approach of Alistarh et al. (SODA 2017) and Doty & Eftekhari
//! (PODC 2019): every agent draws (the maximum of `k`) geometric random
//! variables once, and the population spreads the global maximum by
//! epidemic. The maximum of `n` GRVs is `Θ(log n)` w.h.p. (Lemma 4.1), so
//! each agent's spread value is a constant-factor estimate of `log n`.
//!
//! This protocol is **static**: "the naive approach of always spreading the
//! largest estimate breaks as soon as the population shrinks" (paper §1.2).
//! The maximum can only grow, so after the adversary removes agents the
//! estimate stays stuck at the old, now-too-large value. The comparison
//! experiment (E9) demonstrates exactly this failure against the paper's
//! dynamic protocol.

use pp_model::{bit_len, grv, MemoryFootprint, Protocol, SizeEstimator};
use rand::Rng;

/// State of a static-counting agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticGrvState {
    /// Whether this agent has drawn its own sample yet (first interaction).
    pub sampled: bool,
    /// The largest GRV seen (own or received).
    pub max: u32,
}

/// Static max-GRV counting.
///
/// # Examples
///
/// ```
/// use pp_model::{Protocol, SizeEstimator};
/// use pp_protocols::StaticGrvCounting;
///
/// let p = StaticGrvCounting::new(2);
/// let mut u = p.initial_state();
/// let mut v = p.initial_state();
/// p.interact(&mut u, &mut v, &mut rand::rng());
/// assert!(p.estimate_log2(&u).is_some(), "initiator sampled on first contact");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticGrvCounting {
    k: u32,
}

impl StaticGrvCounting {
    /// Creates the protocol; each agent samples the max of `k` GRVs.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u32) -> Self {
        assert!(k > 0, "k must be at least 1");
        StaticGrvCounting { k }
    }

    /// Number of GRVs each agent samples.
    pub fn k(&self) -> u32 {
        self.k
    }
}

impl Protocol for StaticGrvCounting {
    // One-way (paper model): `interact` never mutates the responder.
    const ONE_WAY: bool = true;

    type State = StaticGrvState;

    fn initial_state(&self) -> StaticGrvState {
        StaticGrvState {
            sampled: false,
            max: 0,
        }
    }

    fn interact<R: Rng + ?Sized>(
        &self,
        u: &mut StaticGrvState,
        v: &mut StaticGrvState,
        rng: &mut R,
    ) {
        if !u.sampled {
            u.sampled = true;
            u.max = u.max.max(grv::grv_max(self.k, rng));
        }
        u.max = u.max.max(v.max);
    }
}

impl SizeEstimator for StaticGrvCounting {
    fn estimate_log2(&self, state: &StaticGrvState) -> Option<f64> {
        (state.max > 0).then_some(f64::from(state.max))
    }
}

impl MemoryFootprint for StaticGrvState {
    fn memory_bits(&self) -> u32 {
        // One flag bit plus the stored maximum.
        1 + bit_len(u64::from(self.max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_sim::Simulator;

    #[test]
    fn sampling_happens_once() {
        let p = StaticGrvCounting::new(4);
        let mut u = p.initial_state();
        let mut v = p.initial_state();
        let mut rng = rand::rng();
        p.interact(&mut u, &mut v, &mut rng);
        assert!(u.sampled);
        let first = u.max;
        // Partner has nothing bigger; further interactions keep the sample.
        p.interact(&mut u, &mut v, &mut rng);
        assert!(u.max >= first);
    }

    #[test]
    fn estimate_converges_to_log_n_band() {
        let n = 4_096;
        let log_n = (n as f64).log2();
        let mut sim = Simulator::with_seed(StaticGrvCounting::new(1), n, 31);
        sim.run_parallel_time(60.0);
        let s = sim.estimate_stats().unwrap();
        assert_eq!(s.min, s.max, "max must have spread to everyone");
        assert!(
            s.max >= 0.5 * log_n && s.max <= 4.0 * log_n,
            "estimate {} outside the Lemma 4.1 band around log n = {log_n}",
            s.max
        );
    }

    /// The documented failure: after the population shrinks, the estimate
    /// does not adapt (it is a max, and maxima do not shrink).
    #[test]
    fn estimate_is_stuck_after_shrink() {
        let n = 4_096;
        let mut sim = Simulator::with_seed(StaticGrvCounting::new(1), n, 32);
        sim.run_parallel_time(60.0);
        let before = sim.estimate_stats().unwrap().max;
        sim.resize_to(16);
        sim.run_parallel_time(200.0);
        let after = sim.estimate_stats().unwrap().max;
        assert!(
            after >= before,
            "static estimate should never decrease (got {before} -> {after})"
        );
        assert!(
            after > 2.0 * (16f64).log2(),
            "estimate {after} is (wrongly) still calibrated for the old size"
        );
    }

    #[test]
    fn memory_accounts_flag_and_value() {
        let s = StaticGrvState {
            sampled: true,
            max: 12,
        };
        assert_eq!(s.memory_bits(), 1 + 4);
    }
}
