//! Static *additive-error* counting by averaging maxima (Doty & Eftekhari,
//! PODC 2019).
//!
//! The paper's §6 recalls: "Doty and Eftekhari use in the static setting
//! the average of O(log n) maxima of n GRVs each. This leads to an additive
//! factor approximation of log n" (`log n ± 5.7` in the original). The idea:
//! one maximum of `n` GRVs is `log2 n + O(1)` *in expectation* but has
//! constant-order variance; averaging `A` independent maxima shrinks the
//! deviation by `1/√A`.
//!
//! Implementation: every agent carries `A` slots; on its first interaction
//! it fills each slot with its own GRV; slot `a` then spreads the
//! population-wide maximum of all slot-`a` samples by epidemic. The
//! reported estimate is the average of the slots minus the known bias of a
//! geometric maximum (`γ/ln 2 − 1/2 ≈ 0.33`).
//!
//! Like all static counters it breaks under a shrinking population — it is
//! a *precision* baseline, not a dynamic one. The paper leaves combining
//! this averaging with its dynamic protocol as an open question;
//! `dsc-core`'s `averaged` module prototypes exactly that.

use pp_model::{bit_len, grv, InlineVec, MemoryFootprint, Protocol, SizeEstimator};
use rand::Rng;

/// Hard upper bound on the slot count, sized by the empirical use
/// (`A ≤ 32` at simulated scales). Inline storage keeps agent states
/// contiguous — no per-agent heap pointer, no allocation per interaction.
pub const DE19_MAX_SLOTS: usize = 32;

/// State of an averaging agent: one running maximum per slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct De19State {
    /// Whether the agent has contributed its own samples yet.
    pub sampled: bool,
    /// Per-slot running maxima.
    pub slots: InlineVec<u32, DE19_MAX_SLOTS>,
}

/// The averaged max-GRV counter.
///
/// # Examples
///
/// ```
/// use pp_model::{Protocol, SizeEstimator};
/// use pp_protocols::De19Averaging;
///
/// let p = De19Averaging::new(16);
/// let mut u = p.initial_state();
/// let mut v = p.initial_state();
/// p.interact(&mut u, &mut v, &mut rand::rng());
/// assert!(p.estimate_log2(&u).is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct De19Averaging {
    slots: u32,
}

/// Expected excess of `max of n Geom(1/2)` over `log2 n`
/// (`γ/ln 2 − 1/2`, the extreme-value constant; see `pp_model::grv`).
const MAX_BIAS: f64 = 0.332_746;

impl De19Averaging {
    /// Creates the protocol with `slots` parallel maxima.
    ///
    /// The original uses `A = O(log n)` slots; any constant `A` yields a
    /// `±O(1/√A)`-tight additive estimate around `log2 n + 0.33`.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` or `slots` exceeds the inline capacity
    /// [`DE19_MAX_SLOTS`].
    pub fn new(slots: u32) -> Self {
        assert!(slots > 0, "need at least one slot");
        assert!(
            slots as usize <= DE19_MAX_SLOTS,
            "at most {DE19_MAX_SLOTS} slots fit the inline state, got {slots}"
        );
        De19Averaging { slots }
    }

    /// Number of averaged slots.
    pub fn slots(&self) -> u32 {
        self.slots
    }
}

impl Protocol for De19Averaging {
    // One-way (paper model): `interact` never mutates the responder.
    const ONE_WAY: bool = true;

    type State = De19State;

    fn initial_state(&self) -> De19State {
        De19State {
            sampled: false,
            slots: InlineVec::from_elem(0, self.slots as usize),
        }
    }

    fn interact<R: Rng + ?Sized>(&self, u: &mut De19State, v: &mut De19State, rng: &mut R) {
        if !u.sampled {
            u.sampled = true;
            for slot in u.slots.iter_mut() {
                *slot = (*slot).max(grv::geometric(rng));
            }
        }
        for (us, vs) in u.slots.iter_mut().zip(v.slots.iter()) {
            *us = (*us).max(*vs);
        }
    }
}

impl SizeEstimator for De19Averaging {
    /// Mean over slots minus the extreme-value bias — an *additive*
    /// estimate of `log2 n` once all slot maxima have spread.
    fn estimate_log2(&self, state: &De19State) -> Option<f64> {
        if !state.sampled && state.slots.iter().all(|&s| s == 0) {
            return None;
        }
        let mean: f64 =
            state.slots.iter().map(|&s| f64::from(s)).sum::<f64>() / state.slots.len() as f64;
        Some((mean - MAX_BIAS).max(0.0))
    }
}

impl MemoryFootprint for De19State {
    fn memory_bits(&self) -> u32 {
        1 + self
            .slots
            .iter()
            .map(|&s| bit_len(u64::from(s)))
            .sum::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_sim::Simulator;

    #[test]
    fn samples_once_and_spreads_slotwise() {
        let p = De19Averaging::new(4);
        let mut u = p.initial_state();
        let mut v = De19State {
            sampled: true,
            slots: InlineVec::from_slice(&[9, 1, 1, 1]),
        };
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert!(u.sampled);
        assert!(u.slots[0] >= 9, "slot 0 adopts v's larger maximum");
        assert_eq!(v.slots, [9, 1, 1, 1], "one-way");
    }

    /// The headline: averaging beats a single maximum on *additive* error.
    ///
    /// Reads the *continuous* per-agent estimate (`estimate_log2`), not the
    /// integer histogram bucket: quantizing to buckets used to eat most of
    /// the averaging advantage and made the comparison a coin flip on the
    /// single-max's luck (an RNG-stream change flipped it once). The
    /// deviations are averaged over 16 independent runs; a single max of n
    /// GRVs has constant-order deviation (~1.4 mean absolute) while the
    /// 32-slot average concentrates within ~1/√32 of the extreme-value
    /// center, so the margin here is structural, not seed luck.
    #[test]
    fn averaging_tightens_the_estimate() {
        let n = 4_096; // log2 = 12
        let log_n = (n as f64).log2();
        let spread_of = |slots: u32, seed: u64| {
            // Mean absolute deviation across independent runs.
            let mut devs = Vec::new();
            for s in 0..16 {
                let p = De19Averaging::new(slots);
                let mut sim = Simulator::with_seed(p, n, seed + s);
                sim.run_parallel_time(80.0);
                let mut ests: Vec<f64> = sim
                    .states()
                    .iter()
                    .filter_map(|st| sim.protocol().estimate_log2(st))
                    .collect();
                ests.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let median = ests[ests.len() / 2];
                devs.push((median - log_n).abs());
            }
            devs.iter().sum::<f64>() / devs.len() as f64
        };
        let single = spread_of(1, 10);
        let averaged = spread_of(32, 20);
        assert!(
            averaged < single,
            "32-slot averaging (dev {averaged:.2}) should beat a single max (dev {single:.2})"
        );
        assert!(
            averaged <= 1.5,
            "averaged estimate should be within ±1.5 of log2 n, got {averaged:.2}"
        );
    }

    #[test]
    fn all_agents_agree_after_spreading() {
        let n = 1_024;
        let mut sim = Simulator::with_seed(De19Averaging::new(8), n, 30);
        sim.run_parallel_time(80.0);
        let s = sim.estimate_stats().unwrap();
        assert_eq!(s.min, s.max, "slot maxima must have spread to everyone");
    }

    #[test]
    fn still_static_breaks_on_shrink() {
        let n = 4_096;
        let mut sim = Simulator::with_seed(De19Averaging::new(8), n, 31);
        sim.run_parallel_time(80.0);
        let before = sim.estimate_stats().unwrap().median;
        sim.resize_to(16);
        sim.run_parallel_time(300.0);
        let after = sim.estimate_stats().unwrap().median;
        assert!(after >= before, "averaged maxima cannot shrink either");
    }

    #[test]
    fn memory_scales_with_slots() {
        let p1 = De19Averaging::new(1);
        let p32 = De19Averaging::new(32);
        let mut s1 = p1.initial_state();
        let mut s32 = p32.initial_state();
        s1.slots.iter_mut().for_each(|s| *s = 12);
        s32.slots.iter_mut().for_each(|s| *s = 12);
        assert!(s32.memory_bits() > 20 * s1.memory_bits() / 2);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = De19Averaging::new(0);
    }
}
