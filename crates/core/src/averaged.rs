//! Prototype of the paper's §6 open question: a *more accurate* dynamic
//! estimate by averaging.
//!
//! "Doty and Eftekhari use in the static setting the average of O(log n)
//! maxima of n GRVs each. This leads to an additive factor approximation
//! of log n. It is an open question whether a similar extension of our
//! protocol could also provide agents with a more accurate estimate."
//! (paper §6)
//!
//! This module is that extension, prototyped: [`AveragedDsc`] runs
//! Algorithm 2 unchanged as the *clock* — its `max` drives phases, resets,
//! everything — and additionally maintains `A` independent estimate slots.
//! On every reset the agent fills each slot with a fresh GRV; during the
//! exchange phase slot maxima spread alongside the clock maximum, and a
//! trailing copy is kept per slot exactly like `lastMax`. The reported
//! estimate is the across-slot mean of `max{slot, lastSlot}`, whose
//! deviation shrinks like `1/√A` — an additive-error *dynamic* counter.
//!
//! Cost: `A` extra `O(log log n)`-bit values per agent, i.e. memory grows
//! from `O(log s + log log n)` to `O(log s + A·log log n)`; with
//! `A = Θ(log n)` (the original's choice) this matches Doty–Eftekhari
//! 2022's footprint — accuracy is bought with exactly the bits the plain
//! protocol saves. The ablation-style tests quantify the trade.

use crate::config::DscConfig;
use crate::full::DynamicSizeCounting;
use crate::phase::Phase;
use crate::state::DscState;
use pp_model::{bit_len, grv, InlineVec, MemoryFootprint, Protocol, SizeEstimator, TickProtocol};
use rand::Rng;

/// Hard upper bound on the number of averaged slots.
///
/// Sized by the empirical slot counts (the experiments and the original's
/// `A = Θ(log n)` choice use at most 32 at simulated scales); the inline
/// array keeps the whole agent state contiguous, so stepping performs no
/// pointer chases and no heap allocation.
pub const MAX_SLOTS: usize = 32;

/// Inline per-slot storage of an averaging agent.
pub type SlotVec = InlineVec<u32, MAX_SLOTS>;

/// State of an averaging agent: the Algorithm 2 state plus estimate slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AveragedState {
    /// The Algorithm 2 variables (drive the clock).
    pub dsc: DscState,
    /// Per-slot current maxima (refilled on reset, spread in exchange).
    pub slots: SlotVec,
    /// Per-slot trailing maxima (the `lastMax` of each slot).
    pub last_slots: SlotVec,
}

/// Algorithm 2 with `A` averaged estimate slots (the §6 extension).
///
/// # Examples
///
/// ```
/// use dsc_core::{AveragedDsc, DscConfig};
/// use pp_model::{Protocol, SizeEstimator};
///
/// let p = AveragedDsc::new(DscConfig::empirical(), 16);
/// let mut u = p.initial_state();
/// let mut v = p.initial_state();
/// p.interact(&mut u, &mut v, &mut rand::rng());
/// assert!(p.estimate_log2(&u).is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AveragedDsc {
    inner: DynamicSizeCounting,
    slots: u32,
}

impl AveragedDsc {
    /// Creates the protocol with `slots` estimate slots.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, `slots == 0`, or `slots`
    /// exceeds the inline capacity [`MAX_SLOTS`].
    pub fn new(config: DscConfig, slots: u32) -> Self {
        assert!(slots > 0, "need at least one slot");
        assert!(
            slots as usize <= MAX_SLOTS,
            "at most {MAX_SLOTS} slots fit the inline state, got {slots}"
        );
        AveragedDsc {
            inner: DynamicSizeCounting::new(config),
            slots,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DscConfig {
        self.inner.config()
    }

    /// Number of averaged slots.
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// The averaged (additive-error) estimate of `log2 n`.
    pub fn averaged_estimate(&self, s: &AveragedState) -> f64 {
        let sum: f64 = s
            .slots
            .iter()
            .zip(&s.last_slots)
            .map(|(&a, &b)| f64::from(a.max(b)))
            .sum();
        sum / self.slots as f64
    }

    fn refill_slots<R: Rng + ?Sized>(&self, s: &mut AveragedState, rng: &mut R) {
        s.last_slots = s.slots;
        for slot in s.slots.iter_mut() {
            *slot = grv::geometric(rng);
        }
    }
}

impl Protocol for AveragedDsc {
    // One-way (paper model): `interact` never mutates the responder.
    const ONE_WAY: bool = true;

    type State = AveragedState;

    fn initial_state(&self) -> AveragedState {
        AveragedState {
            dsc: self.inner.initial_state(),
            slots: SlotVec::from_elem(1, self.slots as usize),
            last_slots: SlotVec::from_elem(1, self.slots as usize),
        }
    }

    fn interact<R: Rng + ?Sized>(&self, u: &mut AveragedState, v: &mut AveragedState, rng: &mut R) {
        let ticks_before = u.dsc.ticks;
        let max_before = u.dsc.max;
        self.inner.interact(&mut u.dsc, &mut v.dsc, rng);

        // A reset refills the slots (fresh samples for the new round).
        if u.dsc.ticks > ticks_before {
            self.refill_slots(u, rng);
            return;
        }

        let c = self.inner.config();
        let u_exchange = Phase::of(c, &u.dsc) == Phase::Exchange;
        let v_exchange = Phase::of(c, &v.dsc) == Phase::Exchange;
        // Mirror lines 11–12: when the clock maximum was adopted from v,
        // the slots travel with it (take the slot-wise max so independent
        // samples from both lineages survive).
        if u_exchange && v_exchange && u.dsc.max > max_before {
            for (us, vs) in u.slots.iter_mut().zip(&v.slots) {
                *us = (*us).max(*vs);
            }
            u.last_slots = v.last_slots;
        } else if u.dsc.max == v.dsc.max && !(u_exchange && Phase::of(c, &v.dsc) == Phase::Reset) {
            // Mirror lines 13–14: same round ⇒ merge slot-wise, trailing
            // included.
            for (us, vs) in u.slots.iter_mut().zip(&v.slots) {
                *us = (*us).max(*vs);
            }
            for (us, vs) in u.last_slots.iter_mut().zip(&v.last_slots) {
                *us = (*us).max(*vs);
            }
        }
    }
}

impl SizeEstimator for AveragedDsc {
    fn estimate_log2(&self, state: &AveragedState) -> Option<f64> {
        Some(self.averaged_estimate(state))
    }
}

impl TickProtocol for AveragedDsc {
    fn tick_count(&self, state: &AveragedState) -> u64 {
        u64::from(state.dsc.ticks)
    }
}

impl MemoryFootprint for AveragedState {
    fn memory_bits(&self) -> u32 {
        self.dsc.memory_bits()
            + self
                .slots
                .iter()
                .chain(&self.last_slots)
                .map(|&s| bit_len(u64::from(s)))
                .sum::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_sim::Simulator;

    fn proto(slots: u32) -> AveragedDsc {
        AveragedDsc::new(DscConfig::empirical(), slots)
    }

    #[test]
    fn reset_refills_slots_and_keeps_trailing() {
        let p = proto(4);
        let mut u = p.initial_state();
        u.slots = SlotVec::from_slice(&[9, 9, 9, 9]);
        u.dsc.time = 0; // force a reset
        let mut v = p.initial_state();
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert_eq!(u.last_slots, [9, 9, 9, 9], "trailing copy kept");
        assert!(u.slots.iter().all(|&s| s >= 1), "fresh samples drawn");
    }

    /// The §6 question answered empirically: averaging shrinks the
    /// deviation of the *dynamic* estimate around its center.
    #[test]
    fn averaging_reduces_round_to_round_variance() {
        let n = 2_048;
        let jitter_of = |slots: u32, seed: u64| {
            let p = proto(slots);
            let mut sim = Simulator::with_seed(p, n, seed);
            sim.run_parallel_time(300.0); // converge
                                          // Sample the median estimate across several rounds.
            let mut samples = Vec::new();
            for _ in 0..12 {
                sim.run_parallel_time(120.0); // ≈ one round
                let mut ests: Vec<f64> = sim
                    .states()
                    .iter()
                    .map(|s| sim.protocol().averaged_estimate(s))
                    .collect();
                ests.sort_by(|a, b| a.partial_cmp(b).unwrap());
                samples.push(ests[ests.len() / 2]);
            }
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            (samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64)
                .sqrt()
        };
        let single = jitter_of(1, 50);
        let averaged = jitter_of(24, 60);
        assert!(
            averaged < single,
            "24-slot averaging (σ = {averaged:.2}) should beat 1 slot (σ = {single:.2})"
        );
    }

    #[test]
    fn still_adapts_to_population_changes() {
        let n = 4_096;
        let p = proto(16);
        let mut sim = Simulator::with_seed(p, n, 70);
        sim.run_parallel_time(400.0);
        let before = sim.estimate_stats().unwrap().median;
        sim.resize_to(64);
        sim.run_parallel_time(1_500.0);
        let after = sim.estimate_stats().unwrap().median;
        assert!(
            after < before,
            "the averaged protocol must stay dynamic: {before} -> {after}"
        );
    }

    #[test]
    fn memory_grows_linearly_in_slots() {
        let small = proto(2).initial_state();
        let large = proto(32).initial_state();
        assert!(large.memory_bits() > small.memory_bits() + 30);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = proto(0);
    }

    #[test]
    #[should_panic(expected = "at most 32 slots")]
    fn oversized_slot_count_rejected() {
        let _ = proto(MAX_SLOTS as u32 + 1);
    }
}
