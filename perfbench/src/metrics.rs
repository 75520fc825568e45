//! The metric catalog, and the one function that turns measured values
//! into the result line. `BENCHMARK.json` lists the same metrics; a test
//! keeps the two in step.

use std::collections::BTreeMap;

/// One reported metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit the value is reported in.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    e2e("wall_s", "s", "lower", 0.25),
    e2e("interactions_per_s", "1/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
];

/// Populations the agent-array stepping time is broken down by.
pub const STEP_POPULATIONS: [u64; 8] = [10, 64, 100, 256, 500, 1_000, 10_000, 20_000];

/// The per-population stepping metric for population `n`.
pub fn step_metric(n: u64) -> String {
    format!("simulator.n{n}.ns_per_interaction")
}

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    layer("simulator.interactions", "count", "higher"),
    layer("simulator.step_s", "s", "lower"),
    layer("simulator.ns_per_interaction", "ns", "lower"),
    layer("simulator.n10.ns_per_interaction", "ns", "lower"),
    layer("simulator.n64.ns_per_interaction", "ns", "lower"),
    layer("simulator.n100.ns_per_interaction", "ns", "lower"),
    layer("simulator.n256.ns_per_interaction", "ns", "lower"),
    layer("simulator.n500.ns_per_interaction", "ns", "lower"),
    layer("simulator.n1000.ns_per_interaction", "ns", "lower"),
    layer("simulator.n10000.ns_per_interaction", "ns", "lower"),
    layer("simulator.n20000.ns_per_interaction", "ns", "lower"),
    layer("simulator.memory_ns", "ns", "lower"),
    layer("scheduler.ns_per_pair", "ns", "lower"),
    layer("dsc_core.ns_per_interact", "ns", "lower"),
    layer("snapshot.scans", "count", "higher"),
    layer("snapshot.scan_s", "s", "lower"),
    layer("snapshot.ns_per_agent", "ns", "lower"),
    layer("adversary.events", "count", "higher"),
    layer("adversary.agents_changed", "count", "higher"),
    layer("adversary.event_s", "s", "lower"),
    layer("batched.interactions", "count", "higher"),
    layer("batched.step_s", "s", "lower"),
    layer("batched.ns_per_interaction", "ns", "lower"),
    layer("count.interactions", "count", "higher"),
    layer("count.step_s", "s", "lower"),
    layer("count.ns_per_interaction", "ns", "lower"),
    layer("jump.events", "count", "higher"),
    layer("jump.interactions_per_event", "ratio", "higher"),
    layer("jump.ns_per_event", "ns", "lower"),
    layer("jump.step_s", "s", "lower"),
    layer("sweep.runs", "count", "higher"),
    layer("sweep.busy_s", "s", "lower"),
    layer("sweep.parallel_eff", "ratio", "higher"),
    layer("analysis.rows", "count", "higher"),
    layer("analysis.csv_bytes", "bytes", "lower"),
    layer("analysis.csv_s", "s", "lower"),
    layer("trace.coverage", "ratio", "higher"),
    layer("trace.overhead", "ratio", "lower"),
];

/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Pairs every metric of `defs` with its measured value, in catalog order.
///
/// # Errors
///
/// Names a metric that was not measured, a measured value that is not in
/// the catalog, a value that is not finite, or an invalid name.
pub fn report(
    defs: &[Metric],
    values: &BTreeMap<String, f64>,
) -> Result<Vec<(Metric, f64)>, String> {
    if let Some(extra) = values.keys().find(|k| defs.iter().all(|d| d.name != *k)) {
        return Err(format!("measured {extra}, which the catalog does not list"));
    }
    if let Some(bad) = defs.iter().find(|d| !valid_name(d.name)) {
        return Err(format!("{} is not a valid metric name", bad.name));
    }
    defs.iter()
        .map(|d| match values.get(d.name) {
            Some(v) if v.is_finite() => Ok((*d, *v)),
            Some(v) => Err(format!("{} is not finite: {v}", d.name)),
            None => Err(format!("{} was not measured", d.name)),
        })
        .collect()
}

/// The result line: the last line of standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(Metric, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn all() -> impl Iterator<Item = &'static Metric> {
        END_TO_END.iter().chain(PER_LAYER)
    }

    #[test]
    fn name_pattern_accepts_and_rejects() {
        for good in ["wall_s", "simulator.n10.ns_per_interaction", "a-b", "0x"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".x",
            "has space",
            "slash/x",
            "q\"uote",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn catalog_names_are_valid_unique_and_united() {
        let mut names: Vec<&str> = all().map(|m| m.name).collect();
        for m in all() {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(m.better == "higher" || m.better == "lower", "{}", m.name);
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric names must be unique");
        for n in STEP_POPULATIONS {
            assert!(PER_LAYER.iter().any(|m| m.name == step_metric(n)), "{n}");
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn report_emits_every_metric_with_its_unit() {
        for defs in [END_TO_END, PER_LAYER] {
            let values: BTreeMap<String, f64> =
                defs.iter().map(|m| (m.name.to_string(), 1.5)).collect();
            let line = result_line(true, 3, 0, &report(defs, &values).expect("complete"));
            let Json::Obj(top) = parse(&line).expect("result line is JSON") else {
                panic!("result line is an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = top[3].1.obj();
            assert_eq!(metrics.len(), defs.len());
            for (m, (name, value)) in defs.iter().zip(metrics) {
                assert_eq!(m.name, name);
                assert_eq!(value.get("unit").str(), m.unit);
                assert_eq!(value.get("value").num(), 1.5);
            }

            let mut missing = values.clone();
            missing.remove(defs[0].name);
            assert!(report(defs, &missing).is_err());
            let mut extra = values.clone();
            extra.insert("not.listed".into(), 1.0);
            assert!(report(defs, &extra).is_err());
            let mut nan = values;
            nan.insert(defs[0].name.into(), f64::NAN);
            assert!(report(defs, &nan).is_err());
        }
    }

    /// `BENCHMARK.json` at the repository root lists exactly the catalog.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = parse(&text).expect("BENCHMARK.json is JSON");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).arr();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, m) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").str(), m.name, "{key}");
                assert_eq!(entry.get("unit").str(), m.unit, "{}", m.name);
                assert_eq!(entry.get("better").str(), m.better, "{}", m.name);
                match m.bound {
                    Some(b) => assert_eq!(entry.get("bound").num(), b, "{}", m.name),
                    None => assert_eq!(entry.obj().len(), 3, "{}", m.name),
                }
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .arr()
            .iter()
            .map(|w| w.get("name").str())
            .collect();
        assert_eq!(workloads, crate::workloads::Workload::NAMES);
    }
}
