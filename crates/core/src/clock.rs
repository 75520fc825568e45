//! Reading Algorithm 2 as a uniform phase clock (Theorem 2.2).
//!
//! The protocol's oscillation — exchange → hold → reset → wrap — makes it a
//! *uniform, loosely-stabilizing phase clock*: an agent "receives a signal
//! whenever the agent resets", and Theorem 2.2 states that once the
//! population holds estimates of `Θ(log n)`, there is a sequence of burst
//! instants `t_i` with every agent ticking exactly once in
//! `[t_i − c·n log n, t_i + c·n log n]` and consecutive bursts separated by
//! `Θ(n log n)` interactions with no ticks in between (the overlap).
//!
//! This module provides the phase census, a synchrony gauge over a
//! population (phases come from [`Phase::of`]); the burst/overlap
//! extraction that *checks* Theorem 2.2 on recorded tick
//! events lives in `pp-analysis`'s clock analysis (it is protocol-agnostic
//! and also applied to the non-uniform baseline clock).

use crate::config::DscConfig;
use crate::phase::Phase;
use crate::state::DscState;

/// The fraction of a population in each phase — a quick synchrony gauge:
/// a synchronized population is concentrated in one or two adjacent phases
/// (§4.1 requires `I_exchange ∪ I_hold` or `I_hold ∪ I_reset`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseCensus {
    /// Fraction in the exchange phase.
    pub exchange: f64,
    /// Fraction in the hold phase.
    pub hold: f64,
    /// Fraction in the reset phase.
    pub reset: f64,
}

impl PhaseCensus {
    /// Counts phases over a population.
    pub fn of(config: &DscConfig, states: &[DscState]) -> PhaseCensus {
        if states.is_empty() {
            return PhaseCensus::default();
        }
        let mut counts = [0usize; 3];
        for s in states {
            match Phase::of(config, s) {
                Phase::Exchange => counts[0] += 1,
                Phase::Hold => counts[1] += 1,
                Phase::Reset => counts[2] += 1,
            }
        }
        let n = states.len() as f64;
        PhaseCensus {
            exchange: counts[0] as f64 / n,
            hold: counts[1] as f64 / n,
            reset: counts[2] as f64 / n,
        }
    }

    /// Whether the census satisfies the §4.1 synchrony shape: everyone in
    /// `I_exchange ∪ I_hold` or everyone in `I_hold ∪ I_reset`.
    pub fn is_synchronized_shape(&self) -> bool {
        self.reset == 0.0 || self.exchange == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_counts_fractions() {
        let c = DscConfig::empirical();
        let mk = |time| DscState {
            max: 10,
            last_max: 10,
            time,
            interactions: 0,
            ticks: 0,
        };
        let states = vec![mk(50), mk(50), mk(25), mk(5)];
        let census = PhaseCensus::of(&c, &states);
        assert_eq!(census.exchange, 0.5);
        assert_eq!(census.hold, 0.25);
        assert_eq!(census.reset, 0.25);
        assert!(!census.is_synchronized_shape());
    }

    #[test]
    fn synchronized_shapes() {
        let a = PhaseCensus {
            exchange: 0.7,
            hold: 0.3,
            reset: 0.0,
        };
        assert!(a.is_synchronized_shape());
        let b = PhaseCensus {
            exchange: 0.0,
            hold: 0.1,
            reset: 0.9,
        };
        assert!(b.is_synchronized_shape());
    }

    #[test]
    fn empty_census_is_default() {
        let c = DscConfig::empirical();
        assert_eq!(PhaseCensus::of(&c, &[]), PhaseCensus::default());
    }
}
