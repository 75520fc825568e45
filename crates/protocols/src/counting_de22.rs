//! The Doty–Eftekhari (SAND 2022) dynamic size counting baseline.
//!
//! The paper's main comparator. Doty & Eftekhari's protocol keeps the
//! max-GRV idea but detects when the estimate went stale: agents
//! continuously re-sample GRVs and run the *detection* protocol of Alistarh
//! et al. on each value, estimating `log n` as the **first missing value** —
//! the smallest GRV value nobody has sampled recently. Their agents store a
//! list of `O(log n)` per-value detection timers of `O(log log n)` bits each,
//! for `O(log n · log log n)` bits — the memory the paper's protocol improves
//! to `O(log log n)`.
//!
//! ## What is reproduced, and what is approximated
//!
//! We do not possess the full SAND 2022 construction; this module preserves
//! the comparator's load-bearing properties:
//!
//! * **mechanism** — continuous GRV re-sampling (one per interaction by the
//!   initiator) + per-value detection timers aged by own interactions and
//!   spread by min-propagation + first-missing-value readout;
//! * **dynamics** — the estimate adapts both up and down under population
//!   changes, with no global phase structure;
//! * **memory shape** — `Θ(#tracked values × bits per timer)`
//!   ≈ `Θ(log n · log log n)` bits, strictly more than the paper's protocol
//!   after convergence.
//!
//! The exact convergence constants of the original (notably the
//! `O(log log n̂)` dependence on an overestimate `n̂`) are *not* claimed.
//! The two experiments that run this protocol rely only on the preserved
//! properties: `compare` (adaptation after a population crash) and
//! `memory` (bits per agent).
//!
//! ## Timer semantics
//!
//! `timers[i]` tracks the time since (transitively) hearing of a sampled GRV
//! of value `> i` — entry `i` covers value `i + 1`. Sampling `g` zeroes
//! entries `0..g`; every interaction ages all entries by one and takes the
//! elementwise min with the responder. Entry `i` saturates at
//! `threshold(i + 1) = 6·(i+1) + 16`; a saturated entry means "value
//! missing". The estimate is `first_missing − 1`.

use pp_model::{bit_len, grv, InlineVec, MemoryFootprint, Protocol, SizeEstimator};
use rand::Rng;

/// Inline capacity of the tracked-value list. The list length stays near
/// `log2 n + window` (pruning, tested below at ≤ 40); a single entry per
/// tracked GRV value means 96 entries would correspond to a population of
/// ~2⁸⁶ agents, far beyond anything an agent array can hold. Inline
/// storage removes the per-agent heap pointer and the allocation on every
/// list extension.
///
/// Values above this capacity are recorded *as* the capacity — an
/// approximation at probability `2^-96` per sample.
pub const DE22_MAX_VALUES: usize = 96;

/// State of a Doty–Eftekhari agent: the per-value detection timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct De22State {
    /// `timers[i]`: own-interaction-aged detection timer for value `i + 1`.
    pub timers: InlineVec<u32, DE22_MAX_VALUES>,
}

/// The Doty–Eftekhari 2022 baseline protocol.
///
/// # Examples
///
/// ```
/// use pp_model::{Protocol, SizeEstimator};
/// use pp_protocols::De22Counting;
///
/// let p = De22Counting::new();
/// let mut u = p.initial_state();
/// let mut v = p.initial_state();
/// p.interact(&mut u, &mut v, &mut rand::rng());
/// assert!(p.estimate_log2(&u).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct De22Counting;

impl De22Counting {
    /// Per-value slope of the expiry threshold.
    pub const THRESHOLD_SLOPE: u32 = 6;
    /// Constant offset of the expiry threshold.
    pub const THRESHOLD_OFFSET: u32 = 16;
    /// Entries kept beyond the first missing value (list pruning).
    pub const WINDOW: u32 = 10;

    /// Creates the protocol: thresholds `6·value + 16` and a pruning
    /// window of 10 values past the first missing one.
    pub fn new() -> Self {
        De22Counting
    }

    /// Expiry threshold for a GRV `value` (1-based).
    pub fn threshold(&self, value: u32) -> u32 {
        Self::THRESHOLD_SLOPE * value + Self::THRESHOLD_OFFSET
    }

    /// The first missing value (1-based): the smallest value whose timer is
    /// saturated, or one past the list when all tracked values are live.
    pub fn first_missing(&self, s: &De22State) -> u32 {
        for (i, &t) in s.timers.iter().enumerate() {
            let value = i as u32 + 1;
            if t >= self.threshold(value) {
                return value;
            }
        }
        s.timers.len() as u32 + 1
    }
}

impl Protocol for De22Counting {
    // One-way (paper model): `interact` never mutates the responder.
    const ONE_WAY: bool = true;

    type State = De22State;

    fn initial_state(&self) -> De22State {
        De22State::default()
    }

    fn interact<R: Rng + ?Sized>(&self, u: &mut De22State, v: &mut De22State, rng: &mut R) {
        // Age and min-propagate: v's knowledge of "value seen recently"
        // flows to u; entries beyond either list count as expired.
        let new_len = u.timers.len().max(v.timers.len());
        for i in u.timers.len()..new_len {
            u.timers.push(self.threshold(i as u32 + 1));
        }
        for (i, t) in u.timers.iter_mut().enumerate() {
            let thr = self.threshold(i as u32 + 1);
            let vt = v.timers.get(i).copied().unwrap_or(thr);
            *t = ((*t).min(vt) + 1).min(thr);
        }

        // Continuous re-sampling: one fresh GRV per interaction. Samples
        // beyond the inline capacity (probability 2^-96) clamp to it.
        let g = (grv::geometric(rng) as usize).min(DE22_MAX_VALUES);
        if u.timers.len() < g {
            u.timers.resize(g, 0);
        }
        for t in u.timers.iter_mut().take(g) {
            *t = 0;
        }

        // Prune the list beyond the first missing value plus a window: those
        // values are missing either way (dropping ≡ saturated).
        let keep = (self.first_missing(u) + Self::WINDOW) as usize;
        if u.timers.len() > keep {
            u.timers.truncate(keep);
        }
    }
}

impl SizeEstimator for De22Counting {
    /// `first missing value − 1 ≈ log2 n`; `None` until the agent has any
    /// live value.
    fn estimate_log2(&self, state: &De22State) -> Option<f64> {
        let fm = self.first_missing(state);
        (fm > 1).then(|| f64::from(fm - 1))
    }
}

impl MemoryFootprint for De22State {
    fn memory_bits(&self) -> u32 {
        // The list of timers, each stored in binary.
        self.timers.iter().map(|&t| bit_len(u64::from(t))).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_sim::Simulator;

    #[test]
    fn fresh_agent_has_no_estimate() {
        let p = De22Counting::new();
        assert_eq!(p.estimate_log2(&p.initial_state()), None);
        assert_eq!(p.first_missing(&p.initial_state()), 1);
    }

    #[test]
    fn sampling_extends_and_zeroes() {
        let p = De22Counting::new();
        let mut u = p.initial_state();
        let mut v = p.initial_state();
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert!(!u.timers.is_empty(), "one sample arrived");
        assert_eq!(u.timers[0], 0, "value 1 was just seen");
    }

    #[test]
    fn estimate_tracks_log_n() {
        let n = 2_048; // log2 = 11
        let log_n = (n as f64).log2();
        let mut sim = Simulator::with_seed(De22Counting::new(), n, 41);
        sim.run_parallel_time(200.0);
        let s = sim.estimate_stats().unwrap();
        assert!(
            s.median >= 0.5 * log_n && s.median <= 2.5 * log_n,
            "median estimate {} outside band around log n = {log_n}",
            s.median
        );
        // Derived spread bound (widened from the empirical 6.0 per
        // ROADMAP's flaky-test policy): Doty & Eftekhari bound each
        // agent's estimate within O(1) of log2 n only w.h.p. *per
        // instant*. A GRV of value log2 n + c is sampled somewhere in the
        // population roughly every 2^c time units, and the detection
        // timers keep it alive for threshold(v) = Θ(v) = Θ(log n) time
        // while min-propagation carries it around — so at any instant the
        // live values straddle the base estimate's ±2 fluctuation plus a
        // lingering-spike window of ~log2(threshold) ≈ log2(log2 n) extra
        // units on top. 2 + 2·log2(log2 n) ≈ 8.9 at n = 2048 covers that;
        // a materially larger spread signals a detection-timer bug, not
        // statistics.
        let spread_bound = 2.0 + 2.0 * log_n.log2();
        assert!(
            s.max - s.min <= spread_bound,
            "estimates should agree closely, spread [{}, {}]",
            s.min,
            s.max
        );
    }

    /// The headline property: unlike the static baseline, the estimate
    /// *decreases* after the adversary removes most of the population.
    #[test]
    fn estimate_adapts_downward_after_shrink() {
        let n = 4_096; // log2 = 12
        let mut sim = Simulator::with_seed(De22Counting::new(), n, 42);
        sim.run_parallel_time(200.0);
        let before = sim.estimate_stats().unwrap().median;
        sim.resize_to(32); // log2 = 5
        sim.run_parallel_time(600.0);
        let after = sim.estimate_stats().unwrap().median;
        assert!(
            after < before,
            "estimate must drop after shrink: {before} -> {after}"
        );
        assert!(
            after <= 15.0,
            "estimate {after} should approach log2(32) = 5 within factor 3"
        );
    }

    #[test]
    fn estimate_adapts_upward_after_growth() {
        let n = 64;
        let mut sim = Simulator::with_seed(De22Counting::new(), n, 43);
        sim.run_parallel_time(150.0);
        let before = sim.estimate_stats().unwrap().median;
        sim.resize_to(8_192);
        sim.run_parallel_time(150.0);
        let after = sim.estimate_stats().unwrap().median;
        assert!(
            after > before,
            "estimate must grow after expansion: {before} -> {after}"
        );
    }

    /// Memory grows like Θ(log n · log log n): strictly more bits than a
    /// pair of Θ(log log n) counters (the paper's footprint) at any real n.
    #[test]
    fn memory_footprint_scales_with_list_length() {
        let p = De22Counting::new();
        let mut sim = Simulator::with_seed(p, 1_024, 44);
        sim.run_parallel_time(100.0);
        let bits: Vec<u32> = sim.states().iter().map(|s| s.memory_bits()).collect();
        let mean = bits.iter().map(|&b| f64::from(b)).sum::<f64>() / bits.len() as f64;
        // log2(1024) = 10 values × ~5-bit timers ⇒ several dozen bits.
        assert!(
            mean > 30.0,
            "DE22 memory should be tens of bits at n = 1024, got {mean}"
        );
    }

    #[test]
    fn pruning_bounds_list_length() {
        let p = De22Counting::new();
        let mut sim = Simulator::with_seed(p, 1_024, 45);
        sim.run_parallel_time(200.0);
        let max_len = sim.states().iter().map(|s| s.timers.len()).max().unwrap();
        assert!(
            max_len <= 40,
            "timer lists should stay near log n + window, got {max_len}"
        );
    }

    #[test]
    fn threshold_is_affine() {
        let p = De22Counting::new();
        assert_eq!(p.threshold(1), 22);
        assert_eq!(p.threshold(10), 76);
    }
}
