//! Terminal rendering of experiment series.
//!
//! The paper's figures are line plots; the benchmark binaries reproduce the
//! underlying series as CSV and render a quick visual check in the terminal
//! using block characters — enough to see the shape (convergence, the
//! Fig. 4 drop, oscillation bands) without a plotting stack.

use crate::series::{PooledPoint, PooledSeries};

/// Renders a series as a one-line sparkline using eight block levels.
///
/// Empty input renders as an empty string; a constant series renders at
/// mid-height.
///
/// # Examples
///
/// ```
/// let s = pp_analysis::sparkline(&[0.0, 0.5, 1.0]);
/// assert_eq!(s.chars().count(), 3);
/// ```
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    values
        .iter()
        .map(|&v| {
            if span <= f64::EPSILON {
                LEVELS[3]
            } else {
                let t = ((v - min) / span * 7.0).round() as usize;
                LEVELS[t.min(7)]
            }
        })
        .collect()
}

/// Downsamples a series to at most `width` points by chunk-averaging.
///
/// # Examples
///
/// ```
/// let d = pp_analysis::sparkline::downsample(&[1.0, 3.0, 5.0, 7.0], 2);
/// assert_eq!(d, vec![2.0, 6.0]);
/// ```
pub fn downsample(values: &[f64], width: usize) -> Vec<f64> {
    if width == 0 || values.is_empty() {
        return Vec::new();
    }
    if values.len() <= width {
        return values.to_vec();
    }
    let chunk = values.len().div_ceil(width);
    values
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// Sparkline width used by [`render_band`].
const BAND_WIDTH: usize = 100;

/// Renders a pooled series as labeled min/median/max sparklines
/// (downsampled to terminal width) with a numeric range legend — the
/// terminal stand-in for one panel of the paper's figures.
pub fn render_band(label: &str, series: &PooledSeries) -> String {
    let points = &series.points;
    let mut out = String::new();
    if let (Some(first), Some(last)) = (points.first(), points.last()) {
        let (t0, t1) = (first.parallel_time, last.parallel_time);
        out.push_str(&format!("{label}  (t = {t0:.0} … {t1:.0})\n"));
    } else {
        out.push_str(&format!("{label}  (empty)\n"));
    }
    let column = |read: fn(&PooledPoint) -> f64| points.iter().map(read).collect::<Vec<_>>();
    for (name, values) in [
        ("max", column(|p| p.max)),
        ("med", column(|p| p.median)),
        ("min", column(|p| p.min)),
    ] {
        let (lo, hi) = if values.is_empty() {
            (0.0, 0.0)
        } else {
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            (lo, hi)
        };
        out.push_str(&format!(
            "  {name} [{lo:7.2}, {hi:7.2}] {}\n",
            sparkline(&downsample(&values, BAND_WIDTH))
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_is_empty_line() {
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn constant_series_is_flat() {
        let s = sparkline(&[2.0, 2.0, 2.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 3);
        assert!(chars.iter().all(|&c| c == chars[0]));
    }

    #[test]
    fn monotone_series_uses_extremes() {
        let s: Vec<char> = sparkline(&[0.0, 1.0]).chars().collect();
        assert_eq!(s[0], '▁');
        assert_eq!(s[1], '█');
    }

    #[test]
    fn render_band_contains_all_rows() {
        let point = |parallel_time| PooledPoint {
            parallel_time,
            min: 1.0,
            median: 2.0,
            max: 3.0,
            runs: 1,
        };
        let series = PooledSeries {
            points: vec![point(0.0), point(1.0)],
        };
        let out = render_band("test", &series);
        assert!(out.contains("max"));
        assert!(out.contains("med"));
        assert!(out.contains("min"));
        assert!(out.contains("test"));
    }
}
