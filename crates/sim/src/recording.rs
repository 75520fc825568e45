//! Declarative recording plans: *what* a run records, chosen statically.
//!
//! A [`Recording`] describes the instrumentation of a run — which
//! [`Observer`] is installed and which readouts each
//! [`Snapshot`](crate::series::Snapshot)
//! carries — separately from *how* the run is executed (the
//! [`Backend`](crate::backend::Backend)). Plans are values whose type fixes
//! the observer, so the whole stack monomorphizes: a plan without
//! per-interaction readouts compiles to a run with **no** per-interaction
//! instrumentation at all.
//!
//! Every plan records the same estimate summary, one scan of the agent
//! states (or of the count vector) per snapshot. The four plans differ
//! only in what they add to it:
//!
//! * [`ScannedEstimates`] — nothing: estimate summaries only, with no
//!   per-interaction work. With one snapshot per parallel-time unit a scan
//!   touches each agent once per `n` interactions. The one plan the count
//!   backends run.
//! * [`WithMemory`] — a per-snapshot memory summary (scans all agent
//!   states; requires [`MemoryFootprint`]).
//! * [`WithTicks`] — phase-clock tick recording through a [`TickRecorder`]
//!   (requires [`TickProtocol`]).
//! * [`WithRecovery`] — recovered/unrecovered transition recording (a
//!   [`RecoveryObserver`] watching a Lemma 4.1 band around `log2 n`), the
//!   fault-injection experiments' time-to-recovery readout.
//!
//! Plans do not nest: each installs at most one observer, and the last
//! three need per-agent indices, which [`Recording::AGENT_FEATURE`] names.

use crate::histogram::EstimateHistogram;
use crate::observer::{Observer, RecoveryObserver, TickRecorder};
use crate::series::{MemorySummary, RecoveryPoint, TickEvent};
use pp_model::{MemoryFootprint, SizeEstimator, TickProtocol};

/// A statically-dispatched recording plan for one run.
///
/// The associated [`Recording::Observer`] is the observer the plan
/// installs on an agent-array run. Every plan records the same estimate
/// summary, one scan of the states (or of the count vector) per snapshot,
/// so the only per-plan snapshot readout is [`Recording::memory`].
pub trait Recording<P: SizeEstimator>: Sync {
    /// The observer this plan installs on an agent-array run.
    type Observer: Observer<P>;

    /// The per-agent feature the plan needs, if any: backends without
    /// agent indices reject the plan with a typed
    /// [`BackendError::AgentIndicesUnsupported`](crate::backend::BackendError)
    /// naming it.
    const AGENT_FEATURE: Option<&'static str> = None;

    /// A fresh observer for one run.
    fn observer(&self) -> Self::Observer;

    /// The memory summary a snapshot records (`None` unless the plan is
    /// [`WithMemory`]).
    fn memory(states: &[P::State]) -> Option<MemorySummary> {
        let _ = states;
        None
    }

    /// Consumes the run's observer, returning the recorded tick events and
    /// recovery transitions together (the driver's one extraction point).
    fn into_records(observer: Self::Observer) -> (Vec<TickEvent>, Vec<RecoveryPoint>) {
        let _ = observer;
        (Vec::new(), Vec::new())
    }
}

/// Builds the estimate histogram of `states` by a full scan.
/// `Simulator::estimate_stats` summarizes it, and every agent-array
/// snapshot records that summary.
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

    fn observer(&self) {}
}

/// Adds a per-snapshot [`MemorySummary`] (full state scan) to the estimate
/// summaries — Theorem 2.1's space readout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WithMemory;

impl<P> Recording<P> for WithMemory
where
    P: SizeEstimator,
    P::State: MemoryFootprint,
{
    type Observer = ();
    const AGENT_FEATURE: Option<&'static str> = Some("memory recording");

    fn observer(&self) {}

    fn memory(states: &[P::State]) -> Option<MemorySummary> {
        scan_memory(states)
    }
}

/// Adds phase-clock tick recording (a [`TickRecorder`] observer) to the
/// estimate summaries — Theorem 2.2's burst/overlap readout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WithTicks;

impl<P> Recording<P> for WithTicks
where
    P: SizeEstimator + TickProtocol,
{
    type Observer = TickRecorder;
    const AGENT_FEATURE: Option<&'static str> = Some("tick recording");

    fn observer(&self) -> TickRecorder {
        TickRecorder::new()
    }

    fn into_records(observer: TickRecorder) -> (Vec<TickEvent>, Vec<RecoveryPoint>) {
        (observer.into_events(), Vec::new())
    }
}

/// Adds recovered/unrecovered transition recording (a [`RecoveryObserver`]
/// watching the band `[lo·log2 n, hi·log2 n]`) to the estimate summaries —
/// the fault-injection experiments' time-to-recovery readout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WithRecovery {
    /// Lower band factor (Lemma 4.1: 0.5).
    pub lo: f64,
    /// Upper band factor (Lemma 4.1: `2(k+1)`).
    pub hi: f64,
}

impl WithRecovery {
    /// Records recovery against the band `[lo·log2 n, hi·log2 n]`.
    pub fn band(lo: f64, hi: f64) -> Self {
        WithRecovery { lo, hi }
    }
}

impl<P: SizeEstimator> Recording<P> for WithRecovery {
    type Observer = RecoveryObserver;
    const AGENT_FEATURE: Option<&'static str> = Some("recovery recording");

    fn observer(&self) -> RecoveryObserver {
        RecoveryObserver::new(self.lo, self.hi)
    }

    fn into_records(observer: RecoveryObserver) -> (Vec<TickEvent>, Vec<RecoveryPoint>) {
        (Vec::new(), observer.into_points())
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

    /// `Simulator::estimate_stats` and a `ScannedEstimates` snapshot of
    /// the same run read the same scan, and it agrees with per-agent adds
    /// on a stepped population.
    #[test]
    fn estimate_stats_matches_the_scanned_plan_on_a_stepped_population() {
        use crate::{AdversarySchedule, Backend, CellSpec, Simulator};
        use dsc_core::{DscConfig, DynamicSizeCounting};
        let p = DynamicSizeCounting::new(DscConfig::empirical());
        let mut sim = Simulator::with_seed(p, 500, 3);
        sim.run_parallel_time(40.0);
        let states = sim.states();
        let none = AdversarySchedule::new();
        let spec = CellSpec {
            n: 500,
            seed: 3,
            horizon: 40.0,
            snapshot_every: 40.0,
            schedule: &none,
            init_agents: None,
            init_counts: None,
            interaction_budget: None,
        };
        let run = Simulator::run_cell(p, &spec, &ScannedEstimates).unwrap();
        let plan = run.snapshots.last().unwrap().estimates;
        let buckets: Vec<_> = states.iter().map(|s| p.estimate_bucket(s)).collect();
        assert!(plan.is_some());
        assert_eq!(scan_estimates(&p, states).summary(), plan);
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
    fn each_plan_names_the_agent_feature_it_needs() {
        let features = [
            <ScannedEstimates as Recording<Max>>::AGENT_FEATURE,
            <WithMemory as Recording<Max>>::AGENT_FEATURE,
            <WithTicks as Recording<Max>>::AGENT_FEATURE,
            <WithRecovery as Recording<Max>>::AGENT_FEATURE,
        ];
        assert_eq!(
            features,
            [
                None,
                Some("memory recording"),
                Some("tick recording"),
                Some("recovery recording")
            ]
        );
    }

    #[test]
    fn recovery_plan_extracts_its_records() {
        let plan = WithRecovery::band(0.5, 2.0);
        let observer = <WithRecovery as Recording<Max>>::observer(&plan);
        let (ticks, recovery) = <WithRecovery as Recording<Max>>::into_records(observer);
        assert!(ticks.is_empty());
        assert!(recovery.is_empty(), "no agents, no transitions");
    }

    #[test]
    fn with_ticks_installs_a_tick_recorder() {
        let mut observer: TickRecorder = <WithTicks as Recording<Max>>::observer(&WithTicks);
        observer.pre_interact(&Max, &1, &3, 2, 5, 40);
        observer.post_interact(&Max, &3, &3, 2, 5, 40);
        let (ticks, recovery) = <WithTicks as Recording<Max>>::into_records(observer);
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
