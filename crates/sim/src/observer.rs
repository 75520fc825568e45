//! Observer hooks: zero-cost instrumentation of a running simulation.
//!
//! The simulator invokes an [`Observer`] around every interaction and on
//! every population change. Observers compose as tuples, and the unit type
//! `()` is the no-op observer, so untracked simulations pay nothing.
//!
//! Two observers ship with the crate:
//!
//! * [`TickRecorder`] — logs every phase-clock tick (drives the Theorem 2.2
//!   burst/overlap analysis).
//! * [`RecoveryObserver`] — watches whether every reporting agent's
//!   estimate sits inside a Lemma 4.1 band around `log2 n`, recording each
//!   recovered/unrecovered transition (drives the fault-injection
//!   experiments' time-to-recovery readout).
//!
//! Estimate summaries need no observer: they are read by a scan of the
//! agent states at each snapshot
//! ([`ScannedEstimates`](crate::recording::ScannedEstimates)).
//!
//! Runs normally don't install observers by hand: a
//! [`Recording`](crate::recording::Recording) plan names the readouts it
//! wants and the unified driver installs the matching observer tuple
//! (`WithTicks(ScannedEstimates)` ⇒ `((), TickRecorder)`).

use crate::histogram::EstimateHistogram;
use crate::series::{RecoveryPoint, TickEvent};
use pp_model::{Protocol, SizeEstimator, TickProtocol};

/// Hooks invoked by [`Simulator`](crate::Simulator) around interactions and
/// population changes.
///
/// `pre_interact` and `post_interact` are always called in matching pairs
/// with the same `(u_index, v_index)`; observers may carry state between the
/// two calls of a pair.
pub trait Observer<P: Protocol> {
    /// Called immediately before an interaction, with the pair's current states.
    fn pre_interact(
        &mut self,
        protocol: &P,
        u: &P::State,
        v: &P::State,
        u_index: usize,
        v_index: usize,
        interactions: u64,
    );

    /// Called immediately after the interaction, with the pair's new states.
    fn post_interact(
        &mut self,
        protocol: &P,
        u: &P::State,
        v: &P::State,
        u_index: usize,
        v_index: usize,
        interactions: u64,
    );

    /// Called when an agent joins the population (including initial setup).
    fn agent_added(&mut self, protocol: &P, state: &P::State);

    /// Called when an agent leaves the population.
    fn agent_removed(&mut self, protocol: &P, state: &P::State);
}

impl<P: Protocol> Observer<P> for () {
    #[inline]
    fn pre_interact(&mut self, _: &P, _: &P::State, _: &P::State, _: usize, _: usize, _: u64) {}
    #[inline]
    fn post_interact(&mut self, _: &P, _: &P::State, _: &P::State, _: usize, _: usize, _: u64) {}
    #[inline]
    fn agent_added(&mut self, _: &P, _: &P::State) {}
    #[inline]
    fn agent_removed(&mut self, _: &P, _: &P::State) {}
}

impl<P: Protocol, A: Observer<P>, B: Observer<P>> Observer<P> for (A, B) {
    #[inline]
    fn pre_interact(&mut self, p: &P, u: &P::State, v: &P::State, ui: usize, vi: usize, t: u64) {
        self.0.pre_interact(p, u, v, ui, vi, t);
        self.1.pre_interact(p, u, v, ui, vi, t);
    }
    #[inline]
    fn post_interact(&mut self, p: &P, u: &P::State, v: &P::State, ui: usize, vi: usize, t: u64) {
        self.0.post_interact(p, u, v, ui, vi, t);
        self.1.post_interact(p, u, v, ui, vi, t);
    }
    #[inline]
    fn agent_added(&mut self, p: &P, s: &P::State) {
        self.0.agent_added(p, s);
        self.1.agent_added(p, s);
    }
    #[inline]
    fn agent_removed(&mut self, p: &P, s: &P::State) {
        self.0.agent_removed(p, s);
        self.1.agent_removed(p, s);
    }
}

/// Records a [`TickEvent`] whenever an agent's tick counter advances.
///
/// The paper's Theorem 2.2 concerns the sequence of reset "signals"; this
/// recorder captures exactly those, attributed to the initiating agent.
#[derive(Debug, Clone, Default)]
pub struct TickRecorder {
    events: Vec<TickEvent>,
    pre_u_ticks: u64,
    pre_v_ticks: u64,
}

impl TickRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded tick events, in interaction order.
    pub fn events(&self) -> &[TickEvent] {
        &self.events
    }

    /// Consumes the recorder, returning its events.
    pub fn into_events(self) -> Vec<TickEvent> {
        self.events
    }

    /// Drops all events recorded so far (e.g. to skip a warm-up period).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl<P: TickProtocol> Observer<P> for TickRecorder {
    #[inline]
    fn pre_interact(&mut self, p: &P, u: &P::State, v: &P::State, _: usize, _: usize, _: u64) {
        self.pre_u_ticks = p.tick_count(u);
        // One-way protocols guarantee v never changes, so its tick counter
        // cannot advance — skip its evaluations.
        if !P::ONE_WAY {
            self.pre_v_ticks = p.tick_count(v);
        }
    }

    #[inline]
    fn post_interact(
        &mut self,
        p: &P,
        u: &P::State,
        v: &P::State,
        ui: usize,
        vi: usize,
        interactions: u64,
    ) {
        if p.tick_count(u) > self.pre_u_ticks {
            self.events.push(TickEvent {
                interaction: interactions,
                agent: ui as u32,
            });
        }
        if !P::ONE_WAY && p.tick_count(v) > self.pre_v_ticks {
            self.events.push(TickEvent {
                interaction: interactions,
                agent: vi as u32,
            });
        }
    }

    #[inline]
    fn agent_added(&mut self, _: &P, _: &P::State) {}
    #[inline]
    fn agent_removed(&mut self, _: &P, _: &P::State) {}
}

/// Watches whether the population currently *holds* a good estimate, and
/// records every transition of that status as a [`RecoveryPoint`].
///
/// "Good" is Lemma 4.1's band: with k·n geometric random variables the
/// maximum lies in `[0.5·log2 n, 2(k+1)·log2 n]` w.h.p., so a healthy
/// population's estimates all land inside
/// `[lo_factor·log2 n, hi_factor·log2 n]` (rounded outward to whole
/// buckets). The population counts as *recovered* when at least one agent
/// reports an estimate and **no** reporting agent's bucket is outside the
/// band — the same predicate the holding-time experiments check per
/// snapshot, maintained here incrementally so the exact transition
/// *interaction* is known, not just the surrounding snapshot.
///
/// Agents reporting no estimate (e.g. Byzantine liars, which are pinned to
/// `None`) never count against recovery: the metric tracks what the honest,
/// reporting agents converge to.
///
/// The band is derived from the *live* population size, so adversary
/// resizes move the goalposts exactly as the paper's loosely-stabilizing
/// guarantee demands.
#[derive(Debug, Clone)]
pub struct RecoveryObserver {
    lo_factor: f64,
    hi_factor: f64,
    hist: EstimateHistogram,
    /// Live population size (tracked through add/remove hooks).
    n: usize,
    /// Current integer band `[lo, hi]` (inclusive, in bucket units).
    lo: u32,
    hi: u32,
    /// Reporting agents whose bucket is outside the band.
    outside: u64,
    /// Recorded status transitions, in interaction order.
    points: Vec<RecoveryPoint>,
    /// Last recorded status (`None` until the first agent joins).
    status: Option<bool>,
    /// Interaction index of the most recent interaction hook.
    last_interaction: u64,
    pre_u: Option<u32>,
    pre_v: Option<u32>,
}

impl RecoveryObserver {
    /// Creates an observer with the band
    /// `[lo_factor·log2 n, hi_factor·log2 n]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ lo_factor ≤ hi_factor` and both are finite.
    pub fn new(lo_factor: f64, hi_factor: f64) -> Self {
        assert!(
            lo_factor.is_finite() && hi_factor.is_finite() && 0.0 <= lo_factor,
            "band factors must be finite and non-negative"
        );
        assert!(lo_factor <= hi_factor, "band must be non-empty");
        RecoveryObserver {
            lo_factor,
            hi_factor,
            hist: EstimateHistogram::new(),
            n: 0,
            lo: 0,
            hi: 0,
            outside: 0,
            points: Vec::new(),
            status: None,
            last_interaction: 0,
            pre_u: None,
            pre_v: None,
        }
    }

    /// The recorded transitions so far.
    pub fn points(&self) -> &[RecoveryPoint] {
        &self.points
    }

    /// Consumes the observer, returning its transitions.
    pub fn into_points(self) -> Vec<RecoveryPoint> {
        self.points
    }

    /// Whether the population is currently recovered.
    pub fn is_recovered(&self) -> bool {
        self.reporting() > 0 && self.outside == 0
    }

    fn reporting(&self) -> u64 {
        self.hist.total() - self.hist.none_count()
    }

    #[inline]
    fn in_band(&self, bucket: u32) -> bool {
        self.lo <= bucket && bucket <= self.hi
    }

    /// The histogram of the current estimates.
    #[cfg(test)]
    pub(crate) fn histogram(&self) -> &EstimateHistogram {
        &self.hist
    }

    /// Recomputes the band for the live `n` and recounts `outside` from
    /// the occupied buckets of the histogram, so the cost does not grow
    /// with the band's width. Only population changes land here;
    /// interactions use the O(1) incremental path.
    fn refresh_band(&mut self) {
        let log2n = if self.n > 1 {
            (self.n as f64).log2()
        } else {
            0.0
        };
        self.lo = (self.lo_factor * log2n).floor() as u32;
        self.hi = (self.hi_factor * log2n).ceil() as u32;
        self.outside = self.reporting() - self.hist.count_between(self.lo, self.hi);
    }

    /// Applies one agent's bucket change to the incremental counters.
    #[inline]
    fn shift(&mut self, old: Option<u32>, new: Option<u32>) {
        self.hist.update(old, new);
        if let Some(b) = old {
            if !self.in_band(b) {
                self.outside -= 1;
            }
        }
        if let Some(b) = new {
            if !self.in_band(b) {
                self.outside += 1;
            }
        }
    }

    /// Records a transition if the recovered status changed.
    ///
    /// Transitions are coalesced per interaction index — only the status
    /// *after* all of an index's changes survives. Agent-by-agent setup
    /// (and multi-agent fault injections) land many changes on one index;
    /// without coalescing they would record meaningless intermediate
    /// flaps, e.g. `false` at index 0 while the band is still sized for a
    /// half-built population.
    fn check(&mut self, interaction: u64) {
        let recovered = self.is_recovered();
        if self.status == Some(recovered) {
            return;
        }
        self.status = Some(recovered);
        if let Some(last) = self.points.last() {
            if last.interaction == interaction {
                self.points.pop();
                if self.points.last().map(|p| p.recovered) == Some(recovered) {
                    return;
                }
            }
        }
        self.points.push(RecoveryPoint {
            interaction,
            recovered,
        });
    }
}

impl<P: SizeEstimator> Observer<P> for RecoveryObserver {
    #[inline]
    fn pre_interact(&mut self, p: &P, u: &P::State, v: &P::State, _: usize, _: usize, _: u64) {
        self.pre_u = p.estimate_bucket(u);
        // One-way protocols never mutate v — skip its bucket evaluations
        // (same shortcut as TickRecorder).
        if !P::ONE_WAY {
            self.pre_v = p.estimate_bucket(v);
        }
    }

    #[inline]
    fn post_interact(
        &mut self,
        p: &P,
        u: &P::State,
        v: &P::State,
        _: usize,
        _: usize,
        interactions: u64,
    ) {
        self.last_interaction = interactions;
        self.shift(self.pre_u, p.estimate_bucket(u));
        if !P::ONE_WAY {
            self.shift(self.pre_v, p.estimate_bucket(v));
        }
        self.check(interactions);
    }

    fn agent_added(&mut self, p: &P, s: &P::State) {
        self.hist.add(p.estimate_bucket(s));
        self.n += 1;
        self.refresh_band();
        self.check(self.last_interaction);
    }

    fn agent_removed(&mut self, p: &P, s: &P::State) {
        self.hist.remove(p.estimate_bucket(s));
        self.n -= 1;
        self.refresh_band();
        self.check(self.last_interaction);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_model::Protocol;
    use rand::Rng;

    /// Counting protocol fixture: state is (value, ticks); the initiator
    /// adopts max and ticks when it changes.
    struct Fixture;

    impl Protocol for Fixture {
        type State = (u32, u64);
        fn initial_state(&self) -> Self::State {
            (0, 0)
        }
        fn interact<R: Rng + ?Sized>(
            &self,
            u: &mut Self::State,
            v: &mut Self::State,
            _rng: &mut R,
        ) {
            if v.0 > u.0 {
                u.0 = v.0;
                u.1 += 1;
            }
        }
    }

    impl SizeEstimator for Fixture {
        fn estimate_log2(&self, s: &Self::State) -> Option<f64> {
            (s.0 > 0).then_some(s.0 as f64)
        }
    }

    impl TickProtocol for Fixture {
        fn tick_count(&self, s: &Self::State) -> u64 {
            s.1
        }
    }

    #[test]
    fn tick_recorder_captures_initiator_ticks() {
        let p = Fixture;
        let mut r = TickRecorder::new();
        let mut u = (0u32, 0u64);
        let mut v = (3u32, 0u64);
        r.pre_interact(&p, &u, &v, 4, 9, 100);
        p.interact(&mut u, &mut v, &mut rand::rng());
        r.post_interact(&p, &u, &v, 4, 9, 100);
        assert_eq!(
            r.events(),
            &[TickEvent {
                interaction: 100,
                agent: 4
            }]
        );
        // No tick when nothing changes.
        r.pre_interact(&p, &u, &v, 4, 9, 101);
        p.interact(&mut u, &mut v, &mut rand::rng());
        r.post_interact(&p, &u, &v, 4, 9, 101);
        assert_eq!(r.events().len(), 1);
        r.clear();
        assert!(r.events().is_empty());
    }

    #[test]
    fn tuple_observer_dispatches_to_both() {
        let p = Fixture;
        // 16 agents at bucket 4 → band [2, 8] (factors 0.5, 2.0).
        let mut pair = (RecoveryObserver::new(0.5, 2.0), TickRecorder::new());
        for _ in 0..16 {
            Observer::<Fixture>::agent_added(&mut pair, &p, &(4, 0));
        }
        assert!(pair.0.is_recovered());
        let (before, after) = ((4u32, 0u64), (100u32, 1u64));
        pair.pre_interact(&p, &before, &before, 0, 1, 7);
        pair.post_interact(&p, &after, &before, 0, 1, 7);
        assert!(!pair.0.is_recovered(), "the first half saw the jump");
        assert_eq!(pair.1.events().len(), 1, "the second half saw the tick");
    }

    #[test]
    fn recovery_observer_tracks_band_transitions() {
        // 16 agents → log2 n = 4; band factors [0.5, 2.0] → buckets [2, 8].
        let p = Fixture;
        let mut obs = RecoveryObserver::new(0.5, 2.0);
        for _ in 0..16 {
            Observer::<Fixture>::agent_added(&mut obs, &p, &(4, 0));
        }
        assert!(obs.is_recovered(), "all estimates inside [2, 8]");
        assert_eq!(
            obs.points(),
            &[RecoveryPoint {
                interaction: 0,
                recovered: true
            }]
        );

        // One agent corrupted far above the band: unrecovered.
        let (before, after) = ((4u32, 0u64), (100u32, 0u64));
        obs.pre_interact(&p, &before, &before, 0, 1, 9);
        obs.post_interact(&p, &after, &before, 0, 1, 9);
        assert!(!obs.is_recovered());

        // It comes back down: recovered again, transition recorded.
        obs.pre_interact(&p, &after, &before, 0, 1, 20);
        obs.post_interact(&p, &before, &before, 0, 1, 20);
        assert!(obs.is_recovered());
        assert_eq!(
            obs.into_points(),
            vec![
                RecoveryPoint {
                    interaction: 0,
                    recovered: true
                },
                RecoveryPoint {
                    interaction: 9,
                    recovered: false
                },
                RecoveryPoint {
                    interaction: 20,
                    recovered: true
                },
            ]
        );
    }

    #[test]
    fn recovery_requires_at_least_one_reporting_agent() {
        let p = Fixture;
        let mut obs = RecoveryObserver::new(0.5, 2.0);
        // Agents with value 0 report no estimate at all.
        for _ in 0..4 {
            Observer::<Fixture>::agent_added(&mut obs, &p, &(0, 0));
        }
        assert!(!obs.is_recovered(), "nobody reports — not recovered");
        assert_eq!(
            obs.points(),
            &[RecoveryPoint {
                interaction: 0,
                recovered: false
            }]
        );
    }

    /// Every population change refreshes the band and recounts the
    /// in-band agents from the occupied buckets, so a band whose top
    /// saturates at `u32::MAX` costs no more than a narrow one (a
    /// per-bucket recount walks ~4·10⁹ buckets per added agent).
    #[test]
    fn recovery_observer_refresh_cost_does_not_grow_with_the_band() {
        let p = Fixture;
        let start = std::time::Instant::now();
        let mut obs = RecoveryObserver::new(0.0, 1e12);
        for _ in 0..2_048 {
            Observer::<Fixture>::agent_added(&mut obs, &p, &(0, 0));
        }
        assert!(!obs.is_recovered(), "nobody reports yet");

        // One agent jumps to a sparse bucket near u32::MAX, inside the
        // saturated band.
        let (silent, huge) = ((0u32, 0u64), (u32::MAX - 1, 1u64));
        obs.pre_interact(&p, &silent, &huge, 0, 1, 5);
        obs.post_interact(&p, &huge, &huge, 0, 1, 5);
        assert!(obs.is_recovered());

        // Joins and departures recount the dense and the sparse buckets.
        for _ in 0..1_024 {
            Observer::<Fixture>::agent_added(&mut obs, &p, &(30, 0));
        }
        assert!(obs.is_recovered());
        for _ in 0..1_024 {
            Observer::<Fixture>::agent_removed(&mut obs, &p, &(30, 0));
        }
        assert!(obs.is_recovered());

        obs.pre_interact(&p, &huge, &silent, 0, 1, 9);
        obs.post_interact(&p, &silent, &silent, 0, 1, 9);
        assert!(!obs.is_recovered());
        assert_eq!(
            obs.points(),
            &[
                RecoveryPoint {
                    interaction: 0,
                    recovered: false
                },
                RecoveryPoint {
                    interaction: 5,
                    recovered: true
                },
                RecoveryPoint {
                    interaction: 9,
                    recovered: false
                },
            ]
        );
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs_f64() < 1.0, "setup took {elapsed:?}");
    }

    #[test]
    #[should_panic(expected = "band must be non-empty")]
    fn recovery_observer_rejects_inverted_bands() {
        let _ = RecoveryObserver::new(2.0, 0.5);
    }
}
