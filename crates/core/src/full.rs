//! Algorithm 2: `DynamicSizeCounting(u, v)` — the paper's protocol.
//!
//! Each numbered block below names the lines of Algorithm 2 it implements,
//! and the unit tests pin every line against hand-computed interactions.
//!
//! `interact` first asks whether the pair is *quiet*: both agents hold the
//! same `max` and `lastMax`, `u.time > 0`, `u` is not a reset-phase agent
//! meeting an exchange-phase one, and `u.interactions ≤ τ′·max{u.max,
//! u.lastMax}`. The protocol keeps the population synchronised, so 96–98%
//! of interactions are quiet, from a fresh start at n = 10 … 2·10⁴, in
//! steady state at n = 64 and 256, and from Fig. 5's planted estimate. A
//! quiet pair runs line 15 alone, and that is exact: with equal maxima
//! line 4 and lines 11–12 cannot fire, line 14 merges a trailing maximum
//! `u` already holds, and the remaining terms are lines 2, 3 and 7, so
//! lines 2–14 leave `u` unchanged and draw no randomness. Every other pair
//! evaluates the conditions of lines 2–4 and 7 and runs lines 11–15; the
//! two randomized blocks, the reset of lines 5–6 and the backup GRV of
//! lines 8–10, live in the out-of-line `reset_or_backup`, which fires
//! about once per round per agent. The test module keeps the straight
//! line-by-line transcription as `reference_interact` and checks that both
//! produce the same post-states and consume the same RNG words, on every
//! phase pair and at every edge of the quiet test.
//!
//! ```text
//!  2  if u.time ≤ 0                                        ⊲ wrap-around
//!  3     or (u ∈ I_reset and v ∈ I_exchange)               ⊲ reset → exchange
//!  4     or (u ∉ I_exchange and u.max ≠ v.max) then        ⊲ hold → exchange
//!  5      grv ← 20(k+1)·GRV(k)
//!  6      (u.time, u.interactions, u.max, u.lastMax)
//!             ← (τ1·max{u.max, grv}, 0, grv, u.max)
//!  7  if u.interactions > τ′·max{u.max, u.lastMax}         ⊲ backup GRV
//!  8      (u.interactions, grv) ← (0, GRV(k))
//!  9      if grv > u.max                     ⊲ reset if larger than overestimated max
//! 10          (u.time, u.max) ← (τ1·20(k+1)·grv, 20(k+1)·grv)
//! 11  if u, v ∈ I_exchange and u.max < v.max               ⊲ exchange maximum
//! 12      (u.time, u.max, u.lastMax) ← (τ1·v.max, v.max, v.lastMax)
//! 13  if u.max = v.max and (u × v) ∉ (I_exchange × I_reset) ⊲ exchange last maximum
//! 14      u.lastMax ← max{u.lastMax, v.lastMax}
//! 15  (u.time, u.interactions) ← (max{u.time, v.time} − 1, u.interactions + 1)  ⊲ CHVP
//! ```
//!
//! The `20(k+1)` factor is [`DscConfig::overestimate`] (`1` in the
//! empirical configuration, `20(k+1)` in the theory configuration — see
//! `config` for why). A *reset* — lines 5–6 or a successful backup at
//! lines 9–10 — is the clock signal of Theorem 2.2 and increments the
//! instrumentation tick counter.

use crate::config::DscConfig;
use crate::phase::Phase;
use crate::state::{narrow_max, DscState};
use pp_model::{grv, Corruptible, Protocol, SizeEstimator, TickProtocol};
use rand::{Rng, RngExt};

/// The paper's uniform, loosely-stabilizing dynamic size counting protocol
/// (Algorithm 2), which doubles as a uniform phase clock (Theorem 2.2).
///
/// # Examples
///
/// ```
/// use dsc_core::{DscConfig, DynamicSizeCounting};
/// use pp_model::{Protocol, SizeEstimator};
///
/// let p = DynamicSizeCounting::new(DscConfig::empirical());
/// let mut u = p.initial_state();
/// let mut v = p.initial_state();
/// p.interact(&mut u, &mut v, &mut rand::rng());
/// assert!(p.estimate_log2(&u).is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicSizeCounting {
    config: DscConfig,
}

impl DynamicSizeCounting {
    /// Creates the protocol with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration violates `τ1 > τ2 > τ3 ≥ 1` (see
    /// [`DscConfig::validate`]).
    pub fn new(config: DscConfig) -> Self {
        config.validate().expect("invalid DSC configuration");
        DynamicSizeCounting { config }
    }

    /// The protocol's configuration.
    pub fn config(&self) -> &DscConfig {
        &self.config
    }

    /// The phase of `state` (paper Fig. 1).
    #[inline]
    pub fn phase(&self, state: &DscState) -> Phase {
        Phase::of(&self.config, state)
    }

    /// The state of an agent initialized with a given (descaled) estimate:
    /// `max = lastMax = estimate`, `time = τ1·estimate` — the paper's
    /// Fig. 5 setup ("populations initialized with an estimate of 60").
    ///
    /// # Panics
    ///
    /// Panics if `estimate == 0`, or if the scaled estimate does not fit
    /// the packed `u32` maximum.
    pub fn state_with_estimate(&self, estimate: u64) -> DscState {
        assert!(estimate >= 1, "an initial estimate must be at least 1");
        let ovr = self.config.overestimate;
        let scaled = narrow_max(estimate.checked_mul(ovr).unwrap_or_else(|| {
            panic!("scaled estimate {estimate}·{ovr} exceeds the packed u32 width")
        }));
        DscState {
            max: scaled,
            last_max: scaled,
            time: self.config.tau1 as i64 * i64::from(scaled),
            interactions: 0,
            ticks: 0,
        }
    }

    /// The descaled estimate `max{max, lastMax} / overestimate`, rounded —
    /// the quantity the paper's §5 reports ("the reported estimate of an
    /// agent u is max{u.max, u.lastMax} without the overestimation
    /// applied").
    #[inline]
    pub fn reported_estimate(&self, state: &DscState) -> u64 {
        let ovr = self.config.overestimate;
        if ovr == 1 {
            // The empirical configuration: descaling is the identity, and
            // this method sits on the estimate-tracking hot path (four
            // calls per interaction) — skip the hardware division.
            return u64::from(state.effective_max());
        }
        (u64::from(state.effective_max()) + ovr / 2) / ovr
    }

    /// `(exchange, not reset)` for `state`: the two comparisons behind
    /// [`Phase::of`], without its branches.
    #[inline]
    fn phase_bits(&self, state: &DscState) -> (bool, bool) {
        let e = i64::from(state.effective_max());
        (
            state.time >= self.config.tau2 as i64 * e,
            state.time >= self.config.tau3 as i64 * e,
        )
    }

    /// Algorithm 2's randomized lines: the reset of lines 5–6 when `reset`
    /// holds, otherwise the backup GRV of lines 8–10 (whose line-7 trigger
    /// the caller has checked). Either way one `GRV(k)` is drawn.
    #[cold]
    #[inline(never)]
    fn reset_or_backup<R: Rng + ?Sized>(&self, u: &mut DscState, reset: bool, rng: &mut R) {
        let c = &self.config;
        let tau1 = c.tau1 as i64;
        if reset {
            // Lines 5–6. Tuple assignment: every right-hand side reads the
            // *old* state.
            let grv = narrow_max(c.overestimate * u64::from(grv::grv_max(c.k, rng)));
            u.time = tau1 * i64::from(u.max.max(grv));
            u.interactions = 0;
            u.last_max = u.max;
            u.max = grv;
            u.ticks += 1; // reset ⇒ clock signal (Theorem 2.2)
        } else {
            // Lines 8–10.
            u.interactions = 0;
            let grv = grv::grv_max(c.k, rng);
            // Only adopt when larger than the (overestimated) maximum, to
            // preserve synchronization (paper §3).
            if grv > u.max {
                let scaled = narrow_max(c.overestimate * u64::from(grv));
                u.time = tau1 * i64::from(scaled);
                u.max = scaled;
                u.ticks += 1; // sets max, time, interactions ⇒ also a reset
            }
        }
    }

    /// Whether `(u, v)` is a quiet pair, one whose lines 2–14 leave `u`
    /// unchanged (see the module doc). Both agents share
    /// `e = max{max, lastMax}`, so the phase tests of line 3 and the
    /// threshold of line 7 read one product each.
    #[inline]
    fn is_quiet(&self, u: &DscState, v: &DscState) -> bool {
        let c = &self.config;
        let e = u.effective_max();
        let t = i64::from(e);
        (u.max == v.max)
            & (u.last_max == v.last_max)
            & (u.time > 0)
            & !((u.time < c.tau3 as i64 * t) & (v.time >= c.tau2 as i64 * t))
            & (u64::from(u.interactions) <= c.tau_prime * u64::from(e))
    }

    /// Lines 2–14: the reset and backup conditions, the maximum exchange
    /// and the trailing-maximum merge.
    #[inline]
    fn lines_2_to_14<R: Rng + ?Sized>(&self, u: &mut DscState, v: &DscState, rng: &mut R) {
        let c = &self.config;
        // Phase bits (paper Fig. 1): `ex` ⇔ exchange, `nr` ⇔ not reset. The
        // protocol is one-way, so `v`'s bits hold for the whole interaction.
        let (mut u_ex, u_nr) = self.phase_bits(u);
        let (v_ex, v_nr) = self.phase_bits(v);

        // Lines 2–4 (reset) and line 7 (backup). A reset zeroes
        // `interactions`, so line 7 can only fire without one.
        let reset = (u.time <= 0) | (!u_nr & v_ex) | (!u_ex & (u.max != v.max));
        let backup = u64::from(u.interactions) > c.tau_prime * u64::from(u.max.max(u.last_max));
        if reset | backup {
            self.reset_or_backup(u, reset, rng);
            u_ex = self.phase_bits(u).0;
        }

        // Lines 11–12: exchange the maximum (both in the exchange phase).
        // `u`'s phase is not refreshed afterwards: the adoption leaves
        // `u.max = v.max` and `u.lastMax = v.lastMax`, which makes line 14
        // a no-op whatever the phase.
        if u_ex & v_ex & (u.max < v.max) {
            u.time = c.tau1 as i64 * i64::from(v.max);
            u.max = v.max;
            u.last_max = v.last_max;
        }

        // Lines 13–14: exchange the trailing maximum — except from an
        // exchange-phase u towards a reset-phase v, which would leak the
        // previous round's value into the fresh one.
        let merge = (u.max == v.max) & !(u_ex & !v_nr);
        u.last_max = if merge {
            u.last_max.max(v.last_max)
        } else {
            u.last_max
        };
    }
}

impl Protocol for DynamicSizeCounting {
    // One-way (paper model): `interact` never mutates the responder.
    const ONE_WAY: bool = true;

    type State = DscState;

    /// Newly added agents start with `max = lastMax = 1`, `time = τ1`,
    /// `interactions = 0` (paper §3).
    fn initial_state(&self) -> DscState {
        DscState {
            max: 1,
            last_max: 1,
            time: self.config.tau1 as i64,
            interactions: 0,
            ticks: 0,
        }
    }

    /// A quiet pair (both agents agree on `max` and `lastMax`, and neither
    /// a reset nor a backup GRV fires; see the module doc) runs line 15
    /// alone, which is 96–98% of interactions. Otherwise lines 2–4 and 7 are
    /// evaluated without short-circuiting, then lines 11–15 run; the rare
    /// resets (lines 5–6) and backup GRVs (lines 8–10) are in the
    /// out-of-line `reset_or_backup`, the only place that draws randomness.
    /// This keeps the per-interaction body small enough to inline into the
    /// stepping loops.
    #[inline]
    fn interact<R: Rng + ?Sized>(&self, u: &mut DscState, v: &mut DscState, rng: &mut R) {
        if !self.is_quiet(u, v) {
            self.lines_2_to_14(u, v, rng);
        }

        // Line 15: CHVP time synchronization + interaction counting. The
        // counter saturates instead of wrapping: under any configuration
        // whose backup threshold `τ′·max` fits the packed u32 the trigger
        // above zeroes it long before the cap; for configurations beyond
        // that (τ′·max ≥ 2³², far outside the analyzed ranges) saturation
        // pins the counter and quietly disables the backup mechanism
        // rather than corrupting it with a wrap.
        u.time = u.time.max(v.time) - 1;
        u.interactions = u.interactions.saturating_add(1);
    }
}

impl SizeEstimator for DynamicSizeCounting {
    #[inline]
    fn estimate_log2(&self, state: &DscState) -> Option<f64> {
        Some(f64::from(state.effective_max()) / self.config.overestimate as f64)
    }

    #[inline]
    fn estimate_bucket(&self, state: &DscState) -> Option<u32> {
        Some(self.reported_estimate(state) as u32)
    }
}

impl Corruptible for DynamicSizeCounting {
    /// Scrambles a state within the protocol's *plausible* value ranges:
    /// either a randomized reset (fresh `max`/`lastMax` drawn like GRVs,
    /// `time` anywhere in the reset window) or low-bit flips of the three
    /// exchanged fields.
    ///
    /// The corruption is deliberately bounded: maxima stay ≤ 64 (the
    /// w.h.p. range of a `GRV`) and `time ≤ τ1·max{max, lastMax}` (the
    /// largest value line 6 can write), so the corrupted configuration is
    /// *reachable* in the loose-stabilization sense. Recovery from a
    /// planted `max = 10⁹` would instead be dominated by the `τ1·max`
    /// countdown — time linear in the planted value, which Theorem 2.3
    /// covers separately and the holding-bound check must not conflate
    /// with recovery from corruption.
    fn corrupt_state<R: Rng + ?Sized>(&self, state: &DscState, rng: &mut R) -> DscState {
        let c = &self.config;
        if rng.random_bool(0.5) {
            // Randomized reset: every field redrawn from its natural range.
            let max = narrow_max(c.overestimate * u64::from(rng.random_range(1u32..=64)));
            let last_max = narrow_max(c.overestimate * u64::from(rng.random_range(0u32..=64)));
            let ceiling = (c.tau1 as i64 * i64::from(max.max(last_max))).max(1);
            DscState {
                max,
                last_max,
                time: rng.random_range(0..=ceiling),
                interactions: rng.random_range(0..=u32::from(u16::MAX)),
                ticks: state.ticks,
            }
        } else {
            // Low-bit flips of the exchanged fields (memory-corruption
            // model of the survey, arXiv 2105.05408): flipped maxima stay
            // within a factor of ~2 of the original.
            let flip = |x: u32, r: &mut R| (x ^ (1u32 << r.random_range(0u32..6))).max(1);
            DscState {
                max: flip(state.max, rng),
                last_max: flip(state.last_max, rng),
                time: state.time ^ i64::from(1u32 << rng.random_range(0..8)),
                interactions: state.interactions,
                ticks: state.ticks,
            }
        }
    }
}

impl TickProtocol for DynamicSizeCounting {
    #[inline]
    fn tick_count(&self, state: &DscState) -> u64 {
        u64::from(state.ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn proto() -> DynamicSizeCounting {
        DynamicSizeCounting::new(DscConfig::empirical())
    }

    fn state(max: u32, last_max: u32, time: i64, interactions: u32) -> DscState {
        DscState {
            max,
            last_max,
            time,
            interactions,
            ticks: 0,
        }
    }

    /// Algorithm 2 transcribed line by line, with short-circuit phase
    /// tests and the randomized blocks inline: the specification the
    /// split `interact` must reproduce exactly.
    fn reference_interact<R: Rng + ?Sized>(
        p: &DynamicSizeCounting,
        u: &mut DscState,
        v: &DscState,
        rng: &mut R,
    ) {
        let c = p.config();
        let tau1 = c.tau1 as i64;
        let pv = p.phase(v);
        let mut pu = p.phase(u);

        // Lines 2–6.
        if u.time <= 0
            || (pu == Phase::Reset && pv == Phase::Exchange)
            || (pu != Phase::Exchange && u.max != v.max)
        {
            let grv = narrow_max(c.overestimate * u64::from(grv::grv_max(c.k, rng)));
            u.time = tau1 * i64::from(u.max.max(grv));
            u.interactions = 0;
            u.last_max = u.max;
            u.max = grv;
            u.ticks += 1;
            pu = p.phase(u);
        }

        // Lines 7–10.
        if u64::from(u.interactions) > c.tau_prime * u64::from(u.max.max(u.last_max)) {
            u.interactions = 0;
            let grv = grv::grv_max(c.k, rng);
            if grv > u.max {
                let scaled = narrow_max(c.overestimate * u64::from(grv));
                u.time = tau1 * i64::from(scaled);
                u.max = scaled;
                u.ticks += 1;
                pu = p.phase(u);
            }
        }

        // Lines 11–12.
        if pu == Phase::Exchange && pv == Phase::Exchange && u.max < v.max {
            u.time = tau1 * i64::from(v.max);
            u.max = v.max;
            u.last_max = v.last_max;
            pu = p.phase(u);
        }

        // Lines 13–14.
        if u.max == v.max && !(pu == Phase::Exchange && pv == Phase::Reset) {
            u.last_max = u.last_max.max(v.last_max);
        }

        // Line 15.
        u.time = u.time.max(v.time) - 1;
        u.interactions = u.interactions.saturating_add(1);
    }

    /// Runs `interact` and `reference_interact` from the same pre-states
    /// and RNG seed; both must leave the same post-states and the same
    /// next RNG word (so they consumed the same words).
    fn assert_matches_reference(p: &DynamicSizeCounting, u: DscState, v: DscState, seed: u64) {
        let (mut fast_u, mut fast_v) = (u, v);
        let mut fast_rng = SmallRng::seed_from_u64(seed);
        p.interact(&mut fast_u, &mut fast_v, &mut fast_rng);
        let mut ref_u = u;
        let mut ref_rng = SmallRng::seed_from_u64(seed);
        reference_interact(p, &mut ref_u, &v, &mut ref_rng);
        assert_eq!(
            (fast_u, fast_v, fast_rng.next_u64()),
            (ref_u, v, ref_rng.next_u64()),
            "from u = {u:?}, v = {v:?}"
        );
    }

    /// A state in `phase` with maxima `max ≥ last_max`, scaled by the
    /// configuration's overestimation factor.
    fn state_in(
        p: &DynamicSizeCounting,
        phase: Phase,
        (max, last_max): (u32, u32),
        interactions: u32,
    ) -> DscState {
        let c = p.config();
        let ovr = c.overestimate as u32;
        let e = i64::from(max * ovr);
        let time = match phase {
            Phase::Exchange => c.tau2 as i64 * e,
            Phase::Hold => c.tau3 as i64 * e,
            Phase::Reset => c.tau3 as i64 * e - 1,
        };
        let s = state(max * ovr, last_max * ovr, time, interactions);
        assert_eq!(p.phase(&s), phase);
        s
    }

    /// Every phase pair with equal and unequal maxima (both orders), a
    /// wrap-around initiator and an initiator past the backup threshold,
    /// under both configurations.
    #[test]
    fn split_transition_matches_the_reference_on_every_phase_pair() {
        let phases = [Phase::Exchange, Phase::Hold, Phase::Reset];
        for cfg in [DscConfig::empirical(), DscConfig::theory(2)] {
            let p = DynamicSizeCounting::new(cfg);
            let backup = (cfg.tau_prime * 8 * cfg.overestimate + 1) as u32;
            for (pu, pv) in phases.iter().flat_map(|&a| phases.map(|b| (a, b))) {
                for (mu, mv) in [(5, 5), (5, 8), (8, 5)] {
                    for interactions in [3, backup] {
                        for seed in 0..8 {
                            // u's trailing maximum is below v's, so line 14
                            // shows whether it merged.
                            let u = state_in(&p, pu, (mu, mu / 2), interactions);
                            let v = state_in(&p, pv, (mv, mv), 0);
                            assert_matches_reference(&p, u, v, seed);
                            let wrapped = DscState { time: 0, ..u };
                            assert_matches_reference(&p, wrapped, v, seed);
                        }
                    }
                }
            }
        }
    }

    /// Pairs at every edge of the quiet-pair shortcut, under both
    /// configurations: agreeing pairs (equal `max` and `lastMax`, the
    /// trailing maximum below, equal to and above the maximum) and pairs
    /// that differ in one of them, each agent's time on both sides of 0,
    /// `τ3·e` and `τ2·e` and at `τ1·e` for either agent's `e`, and the
    /// initiator's counter at and past `τ′·e`. Both quiet and other pairs
    /// must occur.
    #[test]
    fn quiet_pairs_match_the_reference_at_every_edge() {
        for cfg in [DscConfig::empirical(), DscConfig::theory(2)] {
            let p = DynamicSizeCounting::new(cfg);
            let ovr = cfg.overestimate as u32;
            let (tau1, tau2, tau3) = (cfg.tau1 as i64, cfg.tau2 as i64, cfg.tau3 as i64);
            let edges = |s: DscState| {
                let e = i64::from(s.effective_max());
                [
                    0,
                    1,
                    tau3 * e - 1,
                    tau3 * e,
                    tau2 * e - 1,
                    tau2 * e,
                    tau1 * e,
                ]
            };
            let (mut quiet, mut other) = (0, 0);
            for (max, last_max) in [(5, 5), (8, 5), (5, 8)].map(|(a, b)| (a * ovr, b * ovr)) {
                let backup = (cfg.tau_prime * u64::from(max.max(last_max))) as u32;
                let partners = [
                    (max, last_max),
                    (max, 5 * ovr),
                    (max, 8 * ovr),
                    (max + ovr, last_max),
                    (max - ovr, last_max),
                ];
                for (v_max, v_last_max) in partners {
                    let (u0, v0) = (state(max, last_max, 0, 0), state(v_max, v_last_max, 0, 0));
                    let mut times: Vec<i64> = edges(u0).into_iter().chain(edges(v0)).collect();
                    times.sort_unstable();
                    times.dedup();
                    for (&ut, &vt) in times.iter().flat_map(|a| times.iter().map(move |b| (a, b))) {
                        for interactions in [backup, backup + 1] {
                            let u = DscState {
                                time: ut,
                                interactions,
                                ..u0
                            };
                            let v = DscState { time: vt, ..v0 };
                            if p.is_quiet(&u, &v) {
                                quiet += 1;
                            } else {
                                other += 1;
                            }
                            for seed in 0..4 {
                                assert_matches_reference(&p, u, v, seed);
                            }
                        }
                    }
                }
            }
            assert!(
                quiet > 0 && other > 0,
                "{quiet} quiet and {other} other pairs"
            );
        }
    }

    #[test]
    fn initial_state_matches_paper() {
        let p = proto();
        let s = p.initial_state();
        assert_eq!((s.max, s.last_max), (1, 1));
        assert_eq!(s.time, 6); // τ1 · 1
        assert_eq!(s.interactions, 0);
    }

    /// Line 2: `time ≤ 0` forces a reset (wrap-around).
    #[test]
    fn line_2_wraparound_resets() {
        let p = proto();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut u = state(9, 9, 0, 500);
        let mut v = state(9, 9, 30, 0);
        p.interact(&mut u, &mut v, &mut rng);
        assert_eq!(u.ticks, 1, "wrap-around is a reset");
        assert_eq!(u.last_max, 9, "lastMax takes the old max");
        assert!(u.max >= 1, "max is a fresh GRV");
        // Line 6 set time = τ1·max{old max, grv}; line 15 then applied CHVP
        // against v.time = 30 < τ1·9 ⇒ time = τ1·max{9, grv} − 1.
        assert_eq!(u.time, 6 * i64::from(u.max.max(9)) - 1);
        assert_eq!(u.interactions, 1, "zeroed by reset, then line 15's +1");
    }

    /// Line 3: a reset-phase agent meeting an exchange-phase agent resets.
    #[test]
    fn line_3_reset_meets_exchange_resets() {
        let p = proto();
        let mut rng = SmallRng::seed_from_u64(2);
        // u: estimate 10, time 5 ⇒ reset phase (< τ3·10 = 20).
        let mut u = state(10, 10, 5, 3);
        // v: estimate 10, time 55 ⇒ exchange phase (≥ τ2·10 = 40).
        let mut v = state(10, 10, 55, 0);
        p.interact(&mut u, &mut v, &mut rng);
        assert_eq!(u.ticks, 1);
        assert_eq!(u.last_max, 10);
    }

    /// Line 3 negative: reset-phase meeting hold-phase does NOT reset.
    #[test]
    fn reset_meets_hold_no_reset() {
        let p = proto();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut u = state(10, 10, 5, 3);
        let mut v = state(10, 10, 25, 0); // hold: 20 ≤ 25 < 40
        p.interact(&mut u, &mut v, &mut rng);
        assert_eq!(u.ticks, 0);
        assert_eq!(u.time, 24, "just CHVP: max(5, 25) − 1");
        assert_eq!(u.interactions, 4);
    }

    /// Line 4: outside the exchange phase, differing maxima force a reset.
    #[test]
    fn line_4_hold_with_differing_max_resets() {
        let p = proto();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut u = state(10, 10, 25, 3); // hold phase
        let mut v = state(11, 11, 25, 0);
        p.interact(&mut u, &mut v, &mut rng);
        assert_eq!(u.ticks, 1, "hold → exchange reset");
    }

    /// Line 4 negative: in the exchange phase differing maxima do NOT
    /// reset — they are handled by the exchange rule (lines 11–12).
    #[test]
    fn exchange_with_differing_max_adopts_instead() {
        let p = proto();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut u = state(10, 2, 45, 3); // exchange: 45 ≥ 40
        let mut v = state(12, 7, 50, 0); // exchange: 50 ≥ 48
        p.interact(&mut u, &mut v, &mut rng);
        assert_eq!(u.ticks, 0, "no reset in exchange phase");
        assert_eq!(u.max, 12, "adopted the larger max");
        assert_eq!(u.last_max, 7, "adopted v's lastMax with it");
        // Line 12 set time = τ1·12 = 72; line 15: max(72, 50) − 1.
        assert_eq!(u.time, 71);
    }

    /// Lines 7–8: the interaction counter triggers a backup GRV and zeroes.
    #[test]
    fn line_7_backup_triggers_on_interaction_count() {
        let p = proto();
        // τ′·max{max, lastMax} = 20·10 = 200.
        let mut u = state(10, 10, 45, 201);
        let mut v = state(10, 10, 45, 0);
        // Find a seed whose GRV(16) is ≤ 10 so only the counter resets.
        let mut rng = SmallRng::seed_from_u64(0);
        p.interact(&mut u, &mut v, &mut rng);
        assert_eq!(
            u.interactions, 1,
            "backup zeroed the counter; line 15 added one"
        );
    }

    /// Lines 9–10: a backup GRV larger than the current max resets max and
    /// time (scaled by the overestimation factor).
    #[test]
    fn line_9_10_backup_adopts_larger_grv() {
        // Overestimation 5 to observe the scaling; τ1 = 6.
        let cfg = DscConfig::empirical().with_overestimate(5);
        let p = DynamicSizeCounting::new(cfg);
        // Tiny max so any GRV(16) exceeds it.
        let mut u = state(1, 1, 45, 21); // τ′·1 = 20 < 21 triggers
        let mut v = state(1, 1, 45, 0);
        let mut rng = SmallRng::seed_from_u64(7);
        p.interact(&mut u, &mut v, &mut rng);
        assert!(u.ticks >= 1, "backup adoption is a reset");
        assert_eq!(u.max % 5, 0, "max carries the overestimation factor");
        let grv = u.max / 5;
        assert!(grv > 1);
        // time = τ1·5·grv − 1 after line 15 (v.time = 45 is smaller).
        assert_eq!(u.time, 6 * 5 * i64::from(grv) - 1);
    }

    /// Lines 13–14: equal maxima merge trailing estimates…
    #[test]
    fn line_13_lastmax_merges() {
        let p = proto();
        let mut rng = SmallRng::seed_from_u64(8);
        let mut u = state(10, 3, 45, 0); // exchange
        let mut v = state(10, 8, 45, 0); // exchange
        p.interact(&mut u, &mut v, &mut rng);
        assert_eq!(u.last_max, 8);
        assert_eq!(v.last_max, 8, "responder is untouched (one-way)");
    }

    /// …except from exchange-u towards reset-v (the excluded pair).
    #[test]
    fn line_13_exclusion_exchange_to_reset() {
        let p = proto();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut u = state(10, 3, 45, 0); // exchange (≥ 40)
        let mut v = state(10, 8, 5, 0); // reset (< 20)
        p.interact(&mut u, &mut v, &mut rng);
        assert_eq!(u.last_max, 3, "must not adopt a reset-phase lastMax");
    }

    /// Line 15: CHVP and the interaction counter always run.
    #[test]
    fn line_15_chvp_applies() {
        let p = proto();
        let mut rng = SmallRng::seed_from_u64(10);
        let mut u = state(10, 10, 30, 5);
        let mut v = state(10, 10, 38, 2);
        p.interact(&mut u, &mut v, &mut rng);
        assert_eq!(u.time, 37, "max(30, 38) − 1");
        assert_eq!(u.interactions, 6);
        assert_eq!(v.time, 38, "one-way: v untouched");
    }

    #[test]
    fn reported_estimate_descales() {
        let cfg = DscConfig::empirical().with_overestimate(340);
        let p = DynamicSizeCounting::new(cfg);
        let s = state(340 * 20, 340 * 18, 100, 0);
        assert_eq!(p.reported_estimate(&s), 20);
        assert_eq!(p.estimate_bucket(&s), Some(20));
        assert!((p.estimate_log2(&s).unwrap() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn state_with_estimate_matches_fig5_setup() {
        let p = proto();
        let s = p.state_with_estimate(60);
        assert_eq!((s.max, s.last_max), (60, 60));
        assert_eq!(s.time, 360); // τ1·60
        assert_eq!(p.reported_estimate(&s), 60);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_initial_estimate_rejected() {
        let _ = proto().state_with_estimate(0);
    }

    /// Values whose transition products would wrap in a release build
    /// are rejected. At each width bound a forced reset of an agent and
    /// a partner holding the widest maxima, and a seeding with the largest
    /// estimate, run without an arithmetic overflow: a scaled maximum past
    /// `u32` stops in the packed-width check instead.
    #[test]
    fn width_bounds_reject_wrapping_products_and_admit_their_edge() {
        let base = DscConfig::empirical();
        let cfg = |overestimate, tau_prime, tau1| DscConfig {
            tau1,
            tau_prime,
            overestimate,
            ..base
        };
        let wide = u64::from(u32::MAX);
        let tau1_edge = i64::MAX as u64 / wide;
        for beyond in [
            cfg(1 << 62, 20, 6),
            cfg(wide + 1, 20, 6),
            cfg(1, wide + 1, 6),
            cfg(1, 20, 1 << 62),
            cfg(1, 20, tau1_edge + 1),
        ] {
            assert!(beyond.validate().is_err(), "accepted {beyond:?}");
        }
        let no_overflow = |what: &str, f: &mut dyn FnMut()| {
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
                let msg = payload
                    .downcast_ref::<String>()
                    .map_or("a non-string panic", String::as_str);
                assert!(msg.contains("packed u32 width"), "{what}: {msg}");
            }
        };
        for edge in [cfg(wide, 20, 6), cfg(1, wide, 6), cfg(1, 20, tau1_edge)] {
            let p = DynamicSizeCounting::new(edge);
            let mut rng = SmallRng::seed_from_u64(5);
            let mut u = state(u32::MAX, u32::MAX, 0, u32::MAX);
            let mut v = state(u32::MAX, u32::MAX, i64::MAX, 0);
            no_overflow("reset", &mut || p.interact(&mut u, &mut v, &mut rng));
            no_overflow("seeding", &mut || {
                p.state_with_estimate(u64::MAX);
            });
        }
    }

    #[test]
    #[should_panic(expected = "invalid DSC configuration")]
    fn invalid_config_rejected() {
        let mut cfg = DscConfig::empirical();
        cfg.tau1 = 1;
        let _ = DynamicSizeCounting::new(cfg);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_state() -> impl Strategy<Value = DscState> {
            (
                1u32..1_000,
                0u32..1_000,
                -100i64..10_000,
                0u32..100_000,
                0u32..5,
            )
                .prop_map(|(max, last_max, time, interactions, ticks)| DscState {
                    max,
                    last_max,
                    time,
                    interactions,
                    ticks,
                })
        }

        /// Unscaled states with small maxima (equal maxima are common),
        /// every phase, `time ≤ 0`, and counters on both sides of the
        /// backup threshold; [`scaled`] maps them onto a configuration.
        fn arb_near_state() -> impl Strategy<Value = DscState> {
            (1u32..6, 0u32..6, -2i64..40, 0u32..130, 0u32..3).prop_map(
                |(max, last_max, time, interactions, ticks)| DscState {
                    max,
                    last_max,
                    time,
                    interactions,
                    ticks,
                },
            )
        }

        /// Multiplies maxima by the overestimation factor, and time and the
        /// interaction counter by `τ3` and `τ′` over their empirical values,
        /// so each unscaled state keeps its phase and backup side under
        /// `p`'s configuration.
        fn scaled(p: &DynamicSizeCounting, s: DscState) -> DscState {
            let c = p.config();
            let base = DscConfig::empirical();
            let ovr = c.overestimate as u32;
            DscState {
                max: s.max * ovr,
                last_max: s.last_max * ovr,
                time: s.time * (c.tau3 / base.tau3) as i64 * i64::from(ovr),
                interactions: s.interactions * (c.tau_prime / base.tau_prime) as u32 * ovr,
                ticks: s.ticks,
            }
        }

        proptest! {
            /// Algorithm 2 is one-way: the responder is never mutated.
            #[test]
            fn responder_is_never_mutated(u in arb_state(), v in arb_state(), seed: u64) {
                let p = proto();
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut uu = u;
                let mut vv = v;
                p.interact(&mut uu, &mut vv, &mut rng);
                prop_assert_eq!(vv, v);
            }

            /// Structural invariants of one interaction, from ANY state:
            /// max stays positive; the interaction counter becomes old+1 or
            /// 1 (after a zeroing); at most one reset fires; lastMax takes
            /// the old max on reset; CHVP never lets time fall below
            /// v.time − 1.
            #[test]
            fn transition_invariants(u in arb_state(), v in arb_state(), seed: u64) {
                let p = proto();
                let mut rng = SmallRng::seed_from_u64(seed);
                let old = u;
                let mut uu = u;
                let mut vv = v;
                p.interact(&mut uu, &mut vv, &mut rng);

                prop_assert!(uu.max >= 1, "max must stay positive");
                prop_assert!(
                    uu.interactions == old.interactions + 1 || uu.interactions == 1,
                    "counter must be old+1 or a zeroed 1, got {} from {}",
                    uu.interactions,
                    old.interactions
                );
                prop_assert!(
                    uu.ticks == old.ticks || uu.ticks == old.ticks + 1,
                    "at most one reset per interaction"
                );
                prop_assert!(
                    uu.time >= vv.time - 1,
                    "CHVP lower bound violated: {} < {} - 1",
                    uu.time,
                    vv.time
                );
                if uu.ticks == old.ticks + 1 && uu.interactions == 1 && uu.last_max == old.max {
                    // A lines-5–6 reset: time was rewound relative to the
                    // larger of the old max and the fresh GRV.
                    prop_assert!(
                        uu.time >= p.config().tau1 as i64 * i64::from(old.max.max(uu.max)) - 1
                    );
                }
            }

            /// Within a round (no reset), the maximum never decreases —
            /// exchange only adopts larger values.
            #[test]
            fn max_monotone_without_reset(u in arb_state(), v in arb_state(), seed: u64) {
                let p = proto();
                let mut rng = SmallRng::seed_from_u64(seed);
                let old = u;
                let mut uu = u;
                let mut vv = v;
                p.interact(&mut uu, &mut vv, &mut rng);
                if uu.ticks == old.ticks {
                    prop_assert!(uu.max >= old.max, "max shrank without a reset");
                }
            }

            /// The reported estimate is exactly the descaled effective max,
            /// whatever the overestimation factor.
            #[test]
            fn reported_estimate_descale_roundtrip(
                est in 1u32..500,
                trailing in 0u32..500,
                ovr in 1u32..400,
            ) {
                let p = DynamicSizeCounting::new(
                    DscConfig::empirical().with_overestimate(u64::from(ovr)),
                );
                let s = DscState {
                    max: est * ovr,
                    last_max: trailing * ovr,
                    time: 1,
                    interactions: 0,
                    ticks: 0,
                };
                prop_assert_eq!(p.reported_estimate(&s), u64::from(est.max(trailing)));
            }

            /// The split transition equals the line-by-line reference from
            /// arbitrary state pairs: post-states and the next RNG word
            /// agree under the empirical and the theory configuration.
            #[test]
            fn split_transition_matches_the_reference(
                u in arb_near_state(),
                v in arb_near_state(),
                theory: bool,
                seed: u64,
            ) {
                let cfg = if theory { DscConfig::theory(2) } else { DscConfig::empirical() };
                let p = DynamicSizeCounting::new(cfg);
                let scale = |s: DscState| scaled(&p, s);
                assert_matches_reference(&p, scale(u), scale(v), seed);
            }

            /// Phase classification is consistent between the protocol's
            /// helper and the raw Phase::of.
            #[test]
            fn phase_helper_matches_phase_of(u in arb_state()) {
                let p = proto();
                prop_assert_eq!(p.phase(&u), Phase::of(p.config(), &u));
            }
        }
    }
}
