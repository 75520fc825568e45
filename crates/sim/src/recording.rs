//! Declarative recording plans: *what* a run records, chosen statically.
//!
//! A [`Recording`] describes the instrumentation of a run — which
//! [`Observer`]s are installed and which readouts each
//! [`Snapshot`](crate::series::Snapshot)
//! carries — separately from *how* the run is executed (the
//! [`Backend`](crate::backend::Backend)). Plans are zero-sized values that
//! compose like the observer tuples they are built on, so the whole stack
//! monomorphizes: a plan without per-interaction readouts compiles to a
//! run with **no** per-interaction instrumentation at all.
//!
//! The options:
//!
//! * [`ScannedEstimates`] — estimate summaries read by one scan of the
//!   agent states *at each snapshot*; no per-interaction work. With one
//!   snapshot per parallel-time unit a scan touches each agent once per
//!   `n` interactions. On the count backends the same plan summarizes the
//!   count vector at each snapshot.
//! * [`SnapshotsOnly`] — bare snapshots (time, interactions, population);
//!   no estimate readout at all.
//! * [`WithMemory`] — adds a per-snapshot memory summary (scans all agent
//!   states; requires [`MemoryFootprint`]).
//! * [`WithTicks`] — adds phase-clock tick recording (requires
//!   [`TickProtocol`]).
//! * [`WithRecovery`] — adds recovered/unrecovered transition recording
//!   (a [`RecoveryObserver`] watching a Lemma 4.1 band around `log2 n`),
//!   the fault-injection experiments' time-to-recovery readout.
//!
//! Composition nests: `WithTicks(WithMemory(ScannedEstimates))` records
//! estimates, memory, and ticks, and installs exactly the
//! `((), TickRecorder)` observer tuple.

use crate::histogram::EstimateHistogram;
use crate::observer::{Observer, RecoveryObserver, TickRecorder};
use crate::series::{EstimateSummary, MemorySummary, RecoveryPoint, TickEvent};
use pp_model::{MemoryFootprint, SizeEstimator, TickProtocol};

/// A statically-dispatched recording plan for one run.
///
/// Implementations are zero-sized and composable; the associated
/// [`Recording::Observer`] is the observer (tuple) the plan installs on an
/// agent-array run, and the three capability consts let count-based
/// backends — which have no per-agent indices to observe — reject plans
/// they cannot honor with a typed
/// [`BackendError`](crate::backend::BackendError).
pub trait Recording<P: SizeEstimator>: Sync {
    /// The observer this plan installs on an agent-array run.
    type Observer: Observer<P>;

    /// Whether snapshots carry an [`EstimateSummary`].
    const ESTIMATES: bool;

    /// Whether snapshots carry a [`MemorySummary`] (agent-array only).
    const MEMORY: bool;

    /// Whether the run records [`TickEvent`]s (agent-array only).
    const TICKS: bool;

    /// Whether the run records [`RecoveryPoint`]s (agent-array only).
    const RECOVERY: bool = false;

    /// A fresh observer for one run.
    fn observer(&self) -> Self::Observer;

    /// The estimate summary a snapshot records, read from the observer
    /// and/or a scan of the current agent states.
    fn estimates(
        protocol: &P,
        observer: &Self::Observer,
        states: &[P::State],
    ) -> Option<EstimateSummary>;

    /// The memory summary a snapshot records (`None` unless the plan
    /// includes [`WithMemory`]).
    fn memory(states: &[P::State]) -> Option<MemorySummary> {
        let _ = states;
        None
    }

    /// Consumes the run's observer, returning the recorded tick events and
    /// recovery transitions together (the driver's one extraction point).
    ///
    /// Wrapper plans that carry an observer ([`WithTicks`],
    /// [`WithRecovery`]) or wrap one ([`WithMemory`]) override this; leaf
    /// plans record neither.
    fn into_records(observer: Self::Observer) -> (Vec<TickEvent>, Vec<RecoveryPoint>) {
        let _ = observer;
        (Vec::new(), Vec::new())
    }
}

/// Builds the estimate histogram of `states` by a full scan. Both
/// [`ScannedEstimates`] and `Simulator::estimate_stats` summarize it.
///
/// Neighbouring agents usually report the same bucket (in a converged
/// population nearly all of them share one), so the scan counts each run
/// of equal buckets in a register and adds the run to the histogram once.
pub(crate) fn scan_estimates<P: SizeEstimator>(
    protocol: &P,
    states: &[P::State],
) -> EstimateHistogram {
    let mut hist = EstimateHistogram::new();
    let mut buckets = states.iter().map(|s| protocol.estimate_bucket(s));
    if let Some(first) = buckets.next() {
        let (mut bucket, mut run) = (first, 1u64);
        for b in buckets {
            if b == bucket {
                run += 1;
            } else {
                hist.add_many(bucket, run);
                (bucket, run) = (b, 1);
            }
        }
        hist.add_many(bucket, run);
    }
    hist
}

/// Scans all agent states for a per-snapshot memory summary.
pub(crate) fn scan_memory<S: MemoryFootprint>(states: &[S]) -> Option<MemorySummary> {
    let mut max_bits = 0u32;
    let mut sum_bits = 0u64;
    for s in states {
        let b = s.memory_bits();
        max_bits = max_bits.max(b);
        sum_bits += u64::from(b);
    }
    (!states.is_empty()).then(|| MemorySummary {
        max_bits,
        mean_bits: sum_bits as f64 / states.len() as f64,
    })
}

/// Estimate summaries from a full state scan at each snapshot; no
/// per-interaction instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScannedEstimates;

impl<P: SizeEstimator> Recording<P> for ScannedEstimates {
    type Observer = ();
    const ESTIMATES: bool = true;
    const MEMORY: bool = false;
    const TICKS: bool = false;

    fn observer(&self) {}

    fn estimates(protocol: &P, _observer: &(), states: &[P::State]) -> Option<EstimateSummary> {
        scan_estimates(protocol, states).summary()
    }
}

/// Bare snapshots: parallel time, interaction count, and population only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotsOnly;

impl<P: SizeEstimator> Recording<P> for SnapshotsOnly {
    type Observer = ();
    const ESTIMATES: bool = false;
    const MEMORY: bool = false;
    const TICKS: bool = false;

    fn observer(&self) {}

    fn estimates(_protocol: &P, _observer: &(), _states: &[P::State]) -> Option<EstimateSummary> {
        None
    }
}

/// Adds a per-snapshot [`MemorySummary`] (full state scan) to an inner
/// plan — Theorem 2.1's space readout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WithMemory<E>(pub E);

impl<P, E> Recording<P> for WithMemory<E>
where
    P: SizeEstimator,
    P::State: MemoryFootprint,
    E: Recording<P>,
{
    type Observer = E::Observer;
    const ESTIMATES: bool = E::ESTIMATES;
    const MEMORY: bool = true;
    const TICKS: bool = E::TICKS;
    const RECOVERY: bool = E::RECOVERY;

    fn observer(&self) -> E::Observer {
        self.0.observer()
    }

    fn estimates(
        protocol: &P,
        observer: &E::Observer,
        states: &[P::State],
    ) -> Option<EstimateSummary> {
        E::estimates(protocol, observer, states)
    }

    fn memory(states: &[P::State]) -> Option<MemorySummary> {
        scan_memory(states)
    }

    fn into_records(observer: E::Observer) -> (Vec<TickEvent>, Vec<RecoveryPoint>) {
        E::into_records(observer)
    }
}

/// Adds phase-clock tick recording (a [`TickRecorder`] observer) to an
/// inner plan — Theorem 2.2's burst/overlap readout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WithTicks<E>(pub E);

impl<P, E> Recording<P> for WithTicks<E>
where
    P: SizeEstimator + TickProtocol,
    E: Recording<P>,
{
    type Observer = (E::Observer, TickRecorder);
    const ESTIMATES: bool = E::ESTIMATES;
    const MEMORY: bool = E::MEMORY;
    const TICKS: bool = true;
    const RECOVERY: bool = E::RECOVERY;

    fn observer(&self) -> Self::Observer {
        (self.0.observer(), TickRecorder::new())
    }

    fn estimates(
        protocol: &P,
        observer: &Self::Observer,
        states: &[P::State],
    ) -> Option<EstimateSummary> {
        E::estimates(protocol, &observer.0, states)
    }

    fn memory(states: &[P::State]) -> Option<MemorySummary> {
        E::memory(states)
    }

    fn into_records(observer: Self::Observer) -> (Vec<TickEvent>, Vec<RecoveryPoint>) {
        let (mut ticks, recovery) = E::into_records(observer.0);
        ticks.extend(observer.1.into_events());
        (ticks, recovery)
    }
}

/// Adds recovered/unrecovered transition recording (a [`RecoveryObserver`]
/// watching the band `[lo·log2 n, hi·log2 n]`) to an inner plan — the
/// fault-injection experiments' time-to-recovery readout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WithRecovery<E> {
    /// The inner plan.
    pub inner: E,
    /// Lower band factor (Lemma 4.1: 0.5).
    pub lo: f64,
    /// Upper band factor (Lemma 4.1: `2(k+1)`).
    pub hi: f64,
}

impl<E> WithRecovery<E> {
    /// Wraps `inner` with the band `[lo·log2 n, hi·log2 n]`.
    pub fn band(inner: E, lo: f64, hi: f64) -> Self {
        WithRecovery { inner, lo, hi }
    }
}

impl<P, E> Recording<P> for WithRecovery<E>
where
    P: SizeEstimator,
    E: Recording<P>,
{
    type Observer = (E::Observer, RecoveryObserver);
    const ESTIMATES: bool = E::ESTIMATES;
    const MEMORY: bool = E::MEMORY;
    const TICKS: bool = E::TICKS;
    const RECOVERY: bool = true;

    fn observer(&self) -> Self::Observer {
        (
            self.inner.observer(),
            RecoveryObserver::new(self.lo, self.hi),
        )
    }

    fn estimates(
        protocol: &P,
        observer: &Self::Observer,
        states: &[P::State],
    ) -> Option<EstimateSummary> {
        E::estimates(protocol, &observer.0, states)
    }

    fn memory(states: &[P::State]) -> Option<MemorySummary> {
        E::memory(states)
    }

    fn into_records(observer: Self::Observer) -> (Vec<TickEvent>, Vec<RecoveryPoint>) {
        let (ticks, mut recovery) = E::into_records(observer.0);
        recovery.extend(observer.1.into_points());
        (ticks, recovery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_model::Protocol;
    use rand::Rng;

    /// Max-spreading fixture; positive values report themselves.
    #[derive(Clone)]
    struct Max;
    impl Protocol for Max {
        type State = u32;
        fn initial_state(&self) -> u32 {
            0
        }
        fn interact<R: Rng + ?Sized>(&self, u: &mut u32, v: &mut u32, _: &mut R) {
            *u = (*u).max(*v);
        }
    }
    impl SizeEstimator for Max {
        fn estimate_log2(&self, s: &u32) -> Option<f64> {
            (*s > 0).then_some(f64::from(*s))
        }
    }
    impl TickProtocol for Max {
        fn tick_count(&self, s: &u32) -> u64 {
            u64::from(*s)
        }
    }

    /// Reports its state as the bucket: any bucket sequence is a population.
    struct Bucket;
    impl Protocol for Bucket {
        type State = Option<u32>;
        fn initial_state(&self) -> Option<u32> {
            None
        }
        fn interact<R: Rng + ?Sized>(&self, _: &mut Self::State, _: &mut Self::State, _: &mut R) {}
    }
    impl SizeEstimator for Bucket {
        fn estimate_log2(&self, s: &Option<u32>) -> Option<f64> {
            s.map(f64::from)
        }
        fn estimate_bucket(&self, s: &Option<u32>) -> Option<u32> {
            *s
        }
    }

    /// The histogram of one `add` per agent: the specification the
    /// run-length scan must reproduce.
    fn per_agent(states: &[Option<u32>]) -> EstimateHistogram {
        let mut hist = EstimateHistogram::new();
        for &b in states {
            hist.add(b);
        }
        hist
    }

    #[test]
    fn run_length_scan_matches_per_agent_adds_on_edge_sequences() {
        let big = u32::MAX - 3;
        let cases: [&[Option<u32>]; 6] = [
            &[],
            &[Some(7)],
            &[None, None, None],
            &[Some(4), Some(5), Some(4), Some(5), None, Some(4), None],
            &[Some(9); 40],
            &[
                Some(2),
                Some(2),
                Some(big),
                Some(big),
                None,
                Some(big),
                Some(2),
            ],
        ];
        for states in cases {
            assert_eq!(
                scan_estimates(&Bucket, states),
                per_agent(states),
                "{states:?}"
            );
        }
    }

    /// `Simulator::estimate_stats` and the `ScannedEstimates` plan read
    /// the same scan, and it agrees with per-agent adds on a stepped
    /// population.
    #[test]
    fn estimate_stats_matches_the_scanned_plan_on_a_stepped_population() {
        use crate::Simulator;
        use dsc_core::{DscConfig, DynamicSizeCounting};
        let p = DynamicSizeCounting::new(DscConfig::empirical());
        let mut sim = Simulator::with_seed(p, 500, 3);
        sim.run_parallel_time(40.0);
        let states = sim.states();
        let plan = <ScannedEstimates as Recording<DynamicSizeCounting>>::estimates(&p, &(), states);
        let buckets: Vec<_> = states.iter().map(|s| p.estimate_bucket(s)).collect();
        assert!(plan.is_some());
        assert_eq!(sim.estimate_stats(), plan);
        assert_eq!(plan, per_agent(&buckets).summary());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Runs of small buckets (long runs and alternation), of `None`,
        /// and of buckets past the dense cap.
        fn arb_buckets() -> impl Strategy<Value = Vec<Option<u32>>> {
            let bucket = (0u32..6, 0u32..6, u32::MAX - 4..=u32::MAX).prop_map(
                |(kind, small, big)| match kind {
                    0..4 => Some(small),
                    4 => None,
                    _ => Some(big),
                },
            );
            proptest::collection::vec((bucket, 1usize..60), 0..40).prop_map(|runs| {
                runs.into_iter()
                    .flat_map(|(b, len)| std::iter::repeat_n(b, len))
                    .collect()
            })
        }

        proptest! {
            /// The run-length scan builds exactly the histogram of one
            /// `add` per agent, whatever the bucket sequence.
            #[test]
            fn run_length_scan_equals_per_agent_histogram(states in arb_buckets()) {
                prop_assert_eq!(scan_estimates(&Bucket, &states), per_agent(&states));
            }
        }
    }

    #[test]
    fn plan_consts_compose() {
        type Full = WithTicks<WithMemory<ScannedEstimates>>;
        let flags = [
            <Full as Recording<Max>>::ESTIMATES,
            <Full as Recording<Max>>::MEMORY,
            <Full as Recording<Max>>::TICKS,
            <ScannedEstimates as Recording<Max>>::MEMORY,
            <ScannedEstimates as Recording<Max>>::TICKS,
            <SnapshotsOnly as Recording<Max>>::ESTIMATES,
        ];
        assert_eq!(flags, [true, true, true, false, false, false]);
    }

    #[test]
    fn snapshots_only_records_nothing() {
        let states = [1u32, 2];
        assert_eq!(
            <SnapshotsOnly as Recording<Max>>::estimates(&Max, &(), &states),
            None
        );
        assert_eq!(<SnapshotsOnly as Recording<Max>>::memory(&states), None);
    }

    #[test]
    fn recovery_plan_composes_and_extracts_records() {
        type Plan = WithRecovery<ScannedEstimates>;
        const {
            assert!(<Plan as Recording<Max>>::RECOVERY);
            assert!(<Plan as Recording<Max>>::ESTIMATES);
            assert!(!<ScannedEstimates as Recording<Max>>::RECOVERY);
        }
        let plan = WithRecovery::band(ScannedEstimates, 0.5, 2.0);
        let observer = <Plan as Recording<Max>>::observer(&plan);
        let (ticks, recovery) = <Plan as Recording<Max>>::into_records(observer);
        assert!(ticks.is_empty());
        assert!(recovery.is_empty(), "no agents, no transitions");
    }

    #[test]
    fn with_ticks_installs_the_legacy_observer_tuple_order() {
        // The plan must install the exact ((), TickRecorder) tuple — same
        // observer call order, same recorded events.
        let plan = WithTicks(ScannedEstimates);
        let mut observer: ((), TickRecorder) =
            <WithTicks<ScannedEstimates> as Recording<Max>>::observer(&plan);
        observer.pre_interact(&Max, &1, &3, 2, 5, 40);
        observer.post_interact(&Max, &3, &3, 2, 5, 40);
        let (ticks, recovery) =
            <WithTicks<ScannedEstimates> as Recording<Max>>::into_records(observer);
        assert_eq!(
            ticks,
            vec![TickEvent {
                interaction: 40,
                agent: 2
            }]
        );
        assert!(recovery.is_empty());
    }
}
