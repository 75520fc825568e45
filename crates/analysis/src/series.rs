//! Pooling time series across independent runs.
//!
//! The paper's figures show, per snapshot instant, "the minimum, median,
//! and maximum values of all 96 estimates" (§5): estimates are pooled over
//! all agents of all runs. Per-run snapshots already carry per-agent
//! min/median/max; pooling takes the min of minima, the max of maxima, and
//! the median of medians (an `O(runs)` approximation of the pooled median —
//! exact when runs agree, which converged populations do).

use crate::report::TableSpec;
use pp_sim::RunResult;

/// One pooled snapshot across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PooledPoint {
    /// Parallel time of the snapshot grid point.
    pub parallel_time: f64,
    /// Smallest estimate over all agents of all runs.
    pub min: f64,
    /// Median of the per-run medians.
    pub median: f64,
    /// Largest estimate over all agents of all runs.
    pub max: f64,
    /// Number of runs contributing (runs without estimates are skipped).
    pub runs: usize,
}

/// A pooled series over the common snapshot grid of a set of runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PooledSeries {
    /// Pooled points in time order.
    pub points: Vec<PooledPoint>,
}

impl PooledSeries {
    /// Pools the estimate series of several runs.
    ///
    /// Runs are aligned by snapshot index (all paper experiments use a
    /// common grid); series lengths may differ — each grid point pools the
    /// runs that reached it.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    pub fn pool(runs: &[RunResult]) -> PooledSeries {
        assert!(!runs.is_empty(), "cannot pool zero runs");
        let longest = runs
            .iter()
            .map(|r| r.snapshots.len())
            .max()
            .expect("nonempty");
        let mut points = Vec::with_capacity(longest);
        for i in 0..longest {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut medians = Vec::new();
            let mut t = None;
            for run in runs {
                let Some(snap) = run.snapshots.get(i) else {
                    continue;
                };
                t.get_or_insert(snap.parallel_time);
                if let Some(e) = &snap.estimates {
                    min = min.min(e.min);
                    max = max.max(e.max);
                    medians.push(e.median);
                }
            }
            let Some(parallel_time) = t else { continue };
            if medians.is_empty() {
                continue;
            }
            let median = crate::stats::median(&medians).expect("nonempty");
            points.push(PooledPoint {
                parallel_time,
                min,
                median,
                max,
                runs: medians.len(),
            });
        }
        PooledSeries { points }
    }

    /// The points whose time lies in `[from, to]`.
    pub fn window(&self, from: f64, to: f64) -> impl Iterator<Item = &PooledPoint> {
        self.points
            .iter()
            .filter(move |p| p.parallel_time >= from && p.parallel_time <= to)
    }

    /// The series as a table named `file`, one row per point (see
    /// [`PooledSeries::csv_rows`]).
    pub fn table(&self, file: impl Into<String>) -> TableSpec {
        TableSpec {
            rows: self.csv_rows(),
            ..TableSpec::new(file, &["parallel_time", "min", "median", "max", "runs"])
        }
    }

    /// CSV rows: `time,min,median,max,runs`.
    pub fn csv_rows(&self) -> Vec<Vec<String>> {
        self.points
            .iter()
            .map(|p| {
                vec![
                    format!("{}", p.parallel_time),
                    format!("{}", p.min),
                    format!("{}", p.median),
                    format!("{}", p.max),
                    format!("{}", p.runs),
                ]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_sim::{EstimateSummary, Snapshot};

    fn run_with(estimates: &[(f64, f64, f64, f64)]) -> RunResult {
        RunResult {
            seed: 0,
            snapshots: estimates
                .iter()
                .map(|&(t, min, med, max)| Snapshot {
                    parallel_time: t,
                    interactions: 0,
                    n: 10,
                    estimates: Some(EstimateSummary {
                        min,
                        median: med,
                        max,
                        mean: med,
                        without_estimate: 0,
                    }),
                    memory: None,
                })
                .collect(),
            ticks: vec![],
            recovery: vec![],
            final_n: 10,
        }
    }

    #[test]
    fn pooling_takes_extremes_and_median_of_medians() {
        let a = run_with(&[(0.0, 1.0, 5.0, 9.0)]);
        let b = run_with(&[(0.0, 2.0, 6.0, 12.0)]);
        let c = run_with(&[(0.0, 3.0, 7.0, 8.0)]);
        let pooled = PooledSeries::pool(&[a, b, c]);
        assert_eq!(pooled.points.len(), 1);
        let p = pooled.points[0];
        assert_eq!(p.min, 1.0);
        assert_eq!(p.max, 12.0);
        assert_eq!(p.median, 6.0);
        assert_eq!(p.runs, 3);
    }

    #[test]
    fn unequal_lengths_pool_available_runs() {
        let a = run_with(&[(0.0, 1.0, 1.0, 1.0), (1.0, 2.0, 2.0, 2.0)]);
        let b = run_with(&[(0.0, 3.0, 3.0, 3.0)]);
        let pooled = PooledSeries::pool(&[a, b]);
        assert_eq!(pooled.points.len(), 2);
        assert_eq!(pooled.points[1].runs, 1);
    }

    #[test]
    fn window_filters_by_time() {
        let a = run_with(&[
            (0.0, 1.0, 1.0, 1.0),
            (1.0, 2.0, 2.0, 2.0),
            (2.0, 3.0, 3.0, 3.0),
        ]);
        let pooled = PooledSeries::pool(&[a]);
        let w: Vec<f64> = pooled.window(0.5, 2.0).map(|p| p.parallel_time).collect();
        assert_eq!(w, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn pooling_nothing_panics() {
        let _ = PooledSeries::pool(&[]);
    }

    #[test]
    fn csv_rows_have_five_columns() {
        let a = run_with(&[(0.0, 1.0, 2.0, 3.0)]);
        let rows = PooledSeries::pool(&[a]).csv_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), 5);
    }
}
