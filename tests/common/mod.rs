//! Helpers shared by the tests that compare backends: when a run's epidemic
//! completes, and the two-sample test every distribution link goes through.

use dynamic_size_counting::sim::RunResult;

/// First snapshot time at which every agent holds an estimate.
pub fn completion_time(run: &RunResult) -> Option<f64> {
    run.snapshots
        .iter()
        .find(|s| s.estimates.is_some_and(|e| e.without_estimate == 0))
        .map(|s| s.parallel_time)
}

/// Two-sample Kolmogorov–Smirnov test: asserts that samples `a` and `b`
/// come from one distribution at false-alarm probability `alpha`, and
/// prints the statistic D (the largest gap between the two empirical
/// CDFs, ties stepped together) against its critical value
/// `c(α)·√((m + n)/(mn))` with `c(α) = √(−ln(α/2)/2)`. That inverts the
/// Kolmogorov tail bound `P(D > c·√((m + n)/(mn))) ≤ 2·e^(−2c²)`, which is
/// asymptotic; ties (integer counts, times on a grid) only make it
/// conservative.
pub fn assert_same_distribution(label: &str, a: &[f64], b: &[f64], alpha: f64) {
    let sorted = |x: &[f64]| {
        let mut x = x.to_vec();
        x.sort_by(f64::total_cmp);
        x
    };
    let (a, b) = (sorted(a), sorted(b));
    let (mut i, mut j, mut d) = (0, 0, 0.0f64);
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while a.get(i) == Some(&x) {
            i += 1;
        }
        while b.get(j) == Some(&x) {
            j += 1;
        }
        d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
    }
    let (m, n) = (a.len() as f64, b.len() as f64);
    let critical = (-(alpha / 2.0).ln() / 2.0).sqrt() * ((m + n) / (m * n)).sqrt();
    println!("{label}: D = {d:.4}, critical {critical:.4} at alpha {alpha:.2e}");
    assert!(d <= critical, "{label}: D = {d:.4} exceeds {critical:.4}");
}
