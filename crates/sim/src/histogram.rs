//! A histogram of agent estimates: counts of agents per estimate bucket.
//!
//! Estimates of `log2 n` are small integers (buckets), so a snapshot's
//! min/median/max/mean is read from the counts per bucket in O(#buckets)
//! instead of by sorting the agents. The snapshot scan builds one per
//! snapshot; the [`RecoveryObserver`](crate::observer::RecoveryObserver)
//! keeps one up to date in O(1) per changed estimate.

use crate::series::EstimateSummary;
use std::collections::BTreeMap;

/// Buckets below this are counted in a dense vector; larger ones (a planted
/// over-estimate, Theorem 2.3) go to a sorted sparse map, so one huge
/// bucket never allocates a dense vector up to it. Every `log2 n` estimate
/// of a real population is far below the cap.
const DENSE_BUCKETS: usize = 1 << 10;

/// Counts of agents per estimate bucket, plus agents without an estimate.
///
/// # Examples
///
/// ```
/// use pp_sim::EstimateHistogram;
///
/// let mut h = EstimateHistogram::new();
/// h.add(Some(3));
/// h.add(Some(5));
/// h.add(None);
/// assert_eq!(h.total(), 3);
/// let s = h.summary().unwrap();
/// assert_eq!((s.min, s.max), (3.0, 5.0));
/// h.remove(Some(5));
/// assert_eq!(h.summary().unwrap().max, 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EstimateHistogram {
    /// Counts of buckets `0..counts.len()`; never longer than
    /// [`DENSE_BUCKETS`].
    counts: Vec<u64>,
    /// Nonzero counts of buckets at or above [`DENSE_BUCKETS`].
    sparse: BTreeMap<u32, u64>,
    none: u64,
    with_estimate: u64,
}

impl EstimateHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one agent with the given estimate bucket.
    #[inline]
    pub fn add(&mut self, bucket: Option<u32>) {
        self.add_many(bucket, 1);
    }

    /// Records `count` agents with the given estimate bucket at once (the
    /// count-based fast path builds summaries straight from state counts).
    #[inline]
    pub fn add_many(&mut self, bucket: Option<u32>, count: u64) {
        match bucket {
            Some(b) => {
                match self.counts.get_mut(b as usize) {
                    Some(c) => *c += count,
                    None => self.add_outside(b, count),
                }
                self.with_estimate += count;
            }
            None => self.none += count,
        }
    }

    /// [`EstimateHistogram::add_many`] for a bucket past the dense
    /// vector: grows it up to the cap, or counts the bucket in the sparse
    /// map above it.
    #[cold]
    fn add_outside(&mut self, b: u32, count: u64) {
        let dense = b as usize;
        if dense < DENSE_BUCKETS {
            self.counts.resize(dense + 1, 0);
            self.counts[dense] += count;
        } else {
            *self.sparse.entry(b).or_insert(0) += count;
        }
    }

    /// Removes one agent with the given estimate bucket.
    ///
    /// # Panics
    ///
    /// Panics if no agent with that bucket is currently recorded — this
    /// indicates an observer/simulator desynchronization bug.
    #[inline]
    pub fn remove(&mut self, bucket: Option<u32>) {
        match bucket {
            Some(b) => {
                match self.counts.get_mut(b as usize) {
                    Some(c) if *c > 0 => *c -= 1,
                    _ => self.remove_sparse(b),
                }
                self.with_estimate -= 1;
            }
            None => {
                assert!(
                    self.none > 0,
                    "histogram underflow for estimate-less agents"
                );
                self.none -= 1;
            }
        }
    }

    /// Removes one agent from a sparse bucket, dropping the bucket when it
    /// empties.
    #[cold]
    fn remove_sparse(&mut self, b: u32) {
        match self.sparse.get_mut(&b) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.sparse.remove(&b);
            }
            None => panic!("histogram underflow at bucket {b}"),
        }
    }

    /// Moves one agent between buckets (no-op when equal).
    #[inline]
    pub fn update(&mut self, old: Option<u32>, new: Option<u32>) {
        if old != new {
            self.remove(old);
            self.add(new);
        }
    }

    /// Total number of recorded agents (with and without estimates).
    pub fn total(&self) -> u64 {
        self.with_estimate + self.none
    }

    /// Number of agents currently reporting no estimate.
    pub fn none_count(&self) -> u64 {
        self.none
    }

    /// Number of agents whose bucket lies in `lo..=hi`, read from the
    /// occupied buckets only (the dense part clipped to the range plus the
    /// sparse buckets inside it), so a wide range costs no more than a
    /// narrow one.
    pub(crate) fn count_between(&self, lo: u32, hi: u32) -> u64 {
        let end = self.counts.len().min(hi as usize + 1);
        let dense: u64 = self
            .counts
            .get(lo as usize..end)
            .map_or(0, |c| c.iter().sum());
        let sparse: u64 = if lo <= hi {
            self.sparse.range(lo..=hi).map(|(_, &c)| c).sum()
        } else {
            0
        };
        dense + sparse
    }

    /// Every nonempty bucket with its count, in increasing bucket order.
    fn nonempty(&self) -> impl DoubleEndedIterator<Item = (u32, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(b, &c)| (b as u32, c))
            .chain(self.sparse.iter().map(|(&b, &c)| (b, c)))
            .filter(|&(_, c)| c > 0)
    }

    /// Smallest bucket with at least one agent.
    pub fn min(&self) -> Option<u32> {
        self.nonempty().next().map(|(b, _)| b)
    }

    /// Largest bucket with at least one agent.
    pub fn max(&self) -> Option<u32> {
        self.nonempty().next_back().map(|(b, _)| b)
    }

    /// The `q`-quantile bucket (`q = 0.5` is the median) over agents with
    /// estimates, using the lower-nearest convention.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u32> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.with_estimate == 0 {
            return None;
        }
        let rank = ((self.with_estimate - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (b, c) in self.nonempty() {
            seen += c;
            if seen > rank {
                return Some(b);
            }
        }
        None
    }

    /// Mean bucket value over agents with estimates.
    pub fn mean(&self) -> Option<f64> {
        if self.with_estimate == 0 {
            return None;
        }
        let sum: f64 = self.nonempty().map(|(b, c)| f64::from(b) * c as f64).sum();
        Some(sum / self.with_estimate as f64)
    }

    /// Five-number snapshot of the current distribution, or `None` when no
    /// agent reports an estimate.
    pub fn summary(&self) -> Option<EstimateSummary> {
        let min = self.min()?;
        Some(EstimateSummary {
            min: min as f64,
            median: self.quantile(0.5).expect("nonempty") as f64,
            max: self.max().expect("nonempty") as f64,
            mean: self.mean().expect("nonempty"),
            without_estimate: self.none,
        })
    }

    /// Number of agents currently recorded in bucket `b`.
    pub fn count_of(&self, b: u32) -> u64 {
        match self.counts.get(b as usize) {
            Some(&c) => c,
            None => self.sparse.get(&b).copied().unwrap_or(0),
        }
    }

    /// Length of the dense part (at most [`DENSE_BUCKETS`]).
    #[cfg(test)]
    pub(crate) fn dense_len(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_reports_nothing() {
        let h = EstimateHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.summary(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn only_none_agents_report_no_summary() {
        let mut h = EstimateHistogram::new();
        h.add(None);
        h.add(None);
        assert_eq!(h.total(), 2);
        assert_eq!(h.none_count(), 2);
        assert_eq!(h.summary(), None);
    }

    #[test]
    fn median_of_odd_population() {
        let mut h = EstimateHistogram::new();
        for b in [1u32, 2, 2, 3, 9] {
            h.add(Some(b));
        }
        assert_eq!(h.quantile(0.5), Some(2));
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(9));
    }

    #[test]
    fn update_moves_between_buckets() {
        let mut h = EstimateHistogram::new();
        h.add(Some(4));
        h.update(Some(4), Some(7));
        assert_eq!(h.count_of(4), 0);
        assert_eq!(h.count_of(7), 1);
        h.update(Some(7), None);
        assert_eq!(h.none_count(), 1);
        h.update(None, Some(2));
        assert_eq!(h.count_of(2), 1);
        assert_eq!(h.none_count(), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn removing_unrecorded_bucket_panics() {
        let mut h = EstimateHistogram::new();
        h.add(Some(1));
        h.remove(Some(2));
    }

    #[test]
    fn mean_matches_hand_computation() {
        let mut h = EstimateHistogram::new();
        for b in [2u32, 4, 6] {
            h.add(Some(b));
        }
        assert_eq!(h.mean(), Some(4.0));
    }

    /// A planted estimate near `u32::MAX` (Theorem 2.3's over-estimate at
    /// the packed width) lands in the sparse part: the scan and the
    /// incremental histogram a [`RecoveryObserver`] keeps (through `add`,
    /// `update` and `remove`) report the exact summary, before and after
    /// stepping, and neither grows its dense part past the cap.
    ///
    /// [`RecoveryObserver`]: crate::observer::RecoveryObserver
    #[test]
    fn planted_bucket_near_u32_max_stays_out_of_the_dense_part() {
        use crate::observer::RecoveryObserver;
        use crate::recording::scan_estimates;
        use crate::Simulator;
        use dsc_core::{DscConfig, DynamicSizeCounting};
        use pp_model::Configuration;

        let p = DynamicSizeCounting::new(DscConfig::empirical());
        let planted = u32::MAX - 1;
        let config = Configuration::from_fn(100, |i| {
            p.state_with_estimate(if i == 99 { u64::from(planted) } else { 20 })
        });
        let observer = RecoveryObserver::new(0.5, 4.0);
        let mut sim = Simulator::from_config_with_observer(p, config, 11, observer);
        let expected = EstimateSummary {
            min: 20.0,
            median: 20.0,
            max: f64::from(planted),
            mean: (99.0 * 20.0 + f64::from(planted)) / 100.0,
            without_estimate: 0,
        };
        let scanned = scan_estimates(&p, sim.states());
        let tracked = sim.observer().histogram();
        assert_eq!(scanned.summary(), Some(expected));
        assert_eq!(tracked.summary(), Some(expected));
        assert_eq!(scanned.count_of(planted), 1);
        assert!(scanned.dense_len() <= DENSE_BUCKETS && tracked.dense_len() <= DENSE_BUCKETS);

        sim.run_parallel_time(3.0);
        sim.remove_uniform(10);
        sim.run_parallel_time(1.0);
        let scanned = scan_estimates(&p, sim.states());
        let tracked = sim.observer().histogram();
        assert_eq!(tracked.summary(), scanned.summary());
        assert_eq!(tracked.max(), Some(planted));
        assert!(scanned.dense_len() <= DENSE_BUCKETS && tracked.dense_len() <= DENSE_BUCKETS);
    }

    /// A bucket below `width` (dense) or within `width` of `u32::MAX`
    /// (sparse), half the time each.
    fn small_or_huge(width: u32) -> impl Strategy<Value = u32> {
        (0u32..2, 0..width, u32::MAX - width..=u32::MAX).prop_map(|(kind, small, huge)| {
            if kind == 0 {
                small
            } else {
                huge
            }
        })
    }

    proptest! {
        /// The histogram agrees with a naive recount for any sequence of
        /// adds, and the median equals the sorted middle element.
        #[test]
        fn agrees_with_naive(values in proptest::collection::vec(0u32..40, 1..200)) {
            let mut h = EstimateHistogram::new();
            for &v in &values {
                h.add(Some(v));
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            prop_assert_eq!(h.min(), Some(sorted[0]));
            prop_assert_eq!(h.max(), Some(*sorted.last().unwrap()));
            // nearest-rank median: index round((len-1)*0.5)
            let expected_median = sorted[((sorted.len() - 1) as f64 * 0.5).round() as usize];
            prop_assert_eq!(h.quantile(0.5), Some(expected_median));
            let expected_mean = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
            prop_assert!((h.mean().unwrap() - expected_mean).abs() < 1e-9);
        }

        /// `count_between` agrees with a naive count over any range,
        /// across the dense part, the sparse part, and empty ranges.
        #[test]
        fn count_between_agrees_with_naive(
            values in proptest::collection::vec(small_or_huge(40), 0..100),
            lo in small_or_huge(50),
            hi in small_or_huge(50),
        ) {
            let mut h = EstimateHistogram::new();
            for &v in &values {
                h.add(Some(v));
            }
            h.add(None);
            let naive = values.iter().filter(|&&v| lo <= v && v <= hi).count() as u64;
            prop_assert_eq!(h.count_between(lo, hi), naive);
        }

        /// Adding then removing everything returns to the empty state.
        #[test]
        fn add_remove_roundtrip(values in proptest::collection::vec(proptest::option::of(0u32..40), 0..100)) {
            let mut h = EstimateHistogram::new();
            for v in &values {
                h.add(*v);
            }
            prop_assert_eq!(h.total(), values.len() as u64);
            for v in &values {
                h.remove(*v);
            }
            prop_assert_eq!(h.total(), 0);
            prop_assert_eq!(h.summary(), None);
        }
    }
}
