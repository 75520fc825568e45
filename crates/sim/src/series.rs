//! Result data structures: snapshots, per-run series, and tick events.
//!
//! A run produces a sequence of [`Snapshot`]s — the paper snapshots "every
//! `n` interactions" (§5), i.e. once per parallel time unit — plus optional
//! tick events for the phase-clock analysis and memory summaries for the
//! space-complexity experiment.

/// Five-number summary of the agents' `log2 n` estimates at one snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateSummary {
    /// Smallest estimate over agents reporting one.
    pub min: f64,
    /// Median estimate (nearest-rank).
    pub median: f64,
    /// Largest estimate.
    pub max: f64,
    /// Mean estimate.
    pub mean: f64,
    /// Number of agents currently reporting no estimate.
    pub without_estimate: u64,
}

/// Per-agent memory usage summary at one snapshot (Theorem 2.1's metric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySummary {
    /// Largest per-agent footprint in bits.
    pub max_bits: u32,
    /// Mean per-agent footprint in bits.
    pub mean_bits: f64,
}

/// The state of a run at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Parallel time (interactions / n, integrated across size changes).
    pub parallel_time: f64,
    /// Total interactions so far.
    pub interactions: u64,
    /// Population size at this instant.
    pub n: usize,
    /// Estimate distribution, when any agent reports one.
    pub estimates: Option<EstimateSummary>,
    /// Memory usage, when recorded.
    pub memory: Option<MemorySummary>,
}

/// A phase-clock tick (the paper's "signal": an agent reset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickEvent {
    /// Interaction index at which the tick happened.
    pub interaction: u64,
    /// Index of the ticking agent at that time.
    ///
    /// Note: agent indices are stable only while the population size is
    /// unchanged (removal swaps the last agent into the removed slot), so
    /// tick analyses are performed on schedules without resize events.
    pub agent: u32,
}

/// A transition of the population's recovered/unrecovered status, recorded
/// by the [`RecoveryObserver`](crate::RecoveryObserver) when fault
/// injection knocks the estimates out of (or back into) the Lemma 4.1
/// band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPoint {
    /// Interaction index of the transition.
    pub interaction: u64,
    /// `true` when the population entered the recovered state (every
    /// reporting agent inside the band), `false` when it left it.
    pub recovered: bool,
}

/// Everything recorded from one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// RNG seed the run was started with.
    pub seed: u64,
    /// Snapshots in time order.
    pub snapshots: Vec<Snapshot>,
    /// Tick events, when tick recording was enabled.
    pub ticks: Vec<TickEvent>,
    /// Recovered/unrecovered transitions, when recovery recording was
    /// enabled (see [`WithRecovery`](crate::WithRecovery)).
    pub recovery: Vec<RecoveryPoint>,
    /// Final population size.
    pub final_n: usize,
}

impl RunResult {
    /// The snapshot closest to the given parallel time.
    ///
    /// # Panics
    ///
    /// Panics if the run produced no snapshots.
    pub fn snapshot_at(&self, parallel_time: f64) -> &Snapshot {
        assert!(!self.snapshots.is_empty(), "run has no snapshots");
        self.snapshots
            .iter()
            .min_by(|a, b| {
                let da = (a.parallel_time - parallel_time).abs();
                let db = (b.parallel_time - parallel_time).abs();
                da.partial_cmp(&db).expect("non-NaN times")
            })
            .expect("nonempty")
    }

    /// The first interaction at or past `after` at which the population
    /// (re-)entered the recovered state, if any — the readout the
    /// fault-injection experiments measure time-to-recovery from.
    pub fn recovered_at(&self, after: u64) -> Option<u64> {
        self.recovery
            .iter()
            .find(|p| p.recovered && p.interaction >= after)
            .map(|p| p.interaction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(t: f64) -> Snapshot {
        Snapshot {
            parallel_time: t,
            interactions: (t * 10.0) as u64,
            n: 10,
            estimates: None,
            memory: None,
        }
    }

    #[test]
    fn snapshot_at_picks_nearest() {
        let run = RunResult {
            seed: 0,
            snapshots: vec![snap(0.0), snap(1.0), snap(2.0)],
            ticks: vec![],
            recovery: vec![],
            final_n: 10,
        };
        assert_eq!(run.snapshot_at(1.4).parallel_time, 1.0);
        assert_eq!(run.snapshot_at(1.6).parallel_time, 2.0);
        assert_eq!(run.snapshot_at(-5.0).parallel_time, 0.0);
    }

    #[test]
    #[should_panic(expected = "no snapshots")]
    fn snapshot_at_requires_snapshots() {
        let run = RunResult {
            seed: 0,
            snapshots: vec![],
            ticks: vec![],
            recovery: vec![],
            final_n: 0,
        };
        let _ = run.snapshot_at(0.0);
    }
}
