//! # pp-bench — the benchmark harness
//!
//! One experiment module per figure of the paper plus the theorem-validation
//! and ablation experiments (E1–E15; the README's "Running experiments"
//! table maps each registry name to what it reproduces). Every experiment
//! registers an [`experiments::ExperimentSpec`] in the declarative
//! [`experiments::REGISTRY`]; the `dsc-bench` driver binary runs any subset
//! (`dsc-bench <name>… | all | repro`), and each experiment executes its
//! whole grid on the [`pp_sim::Sweep`] engine — parallel,
//! bit-identical across thread counts.
//!
//! Every experiment supports three scales:
//!
//! * **quick** (default) — laptop scale: minutes for the full suite, with
//!   reduced `n`, runs, and horizons;
//! * **full** (`--full`) — the paper's scale (`n` up to 10^6, 96 runs,
//!   5000 parallel time); expect hours;
//! * **smoke** (`--smoke`) — CI scale: seconds end to end, proving every
//!   registered experiment still emits rows.
//!
//! Every experiment returns its rows as [`pp_analysis::TableSpec`]s, which
//! the driver writes as plot-ready CSV under `results/` (override with
//! `--out <dir>`) through the one shared `pp_analysis` writer, and prints
//! as console tables with the CSV's headers and cells
//! ([`pp_analysis::TableSpec::render`]; a time series shows 11 sampled
//! rows). Experiments print only their banners, notes and sparklines
//! themselves.

#![forbid(unsafe_code)]

pub mod experiments;

use dsc_core::{DscConfig, DynamicSizeCounting};
use pp_sim::Sweep;

/// Scale and output settings shared by all experiments.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Paper scale when true; laptop scale otherwise.
    pub full: bool,
    /// CI scale when true: tiny populations, few seeds, short horizons.
    /// Wins over `full`; exists so every entry point has a seconds-long
    /// mode whose only job is to prove the pipeline runs end to end.
    pub smoke: bool,
    /// Independent runs per data point (the paper uses 96).
    pub runs: usize,
    /// Master seed; per-run seeds derive from it.
    pub seed: u64,
    /// Worker threads (0 = machine parallelism).
    pub threads: usize,
    /// Output directory for CSV files.
    pub out_dir: String,
    /// Restricts the `scenario` experiment to one built-in trace
    /// (`--trace NAME`, or a bare trace name on the `dsc-bench` command
    /// line). `None` runs the whole catalog.
    pub trace: Option<String>,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            full: false,
            smoke: false,
            runs: 16,
            seed: 0xD5C0_2024,
            threads: 0,
            out_dir: "results".into(),
            trace: None,
        }
    }
}

impl Scale {
    /// The smoke-test scale: 2 runs per point, results under `dir`.
    pub fn smoke(dir: impl Into<String>) -> Scale {
        Scale {
            smoke: true,
            runs: 2,
            out_dir: dir.into(),
            ..Scale::default()
        }
    }

    /// Parses flags from an argument iterator (`--full`, `--smoke`,
    /// `--runs N`, `--seed S`, `--threads T`, `--out DIR`,
    /// `--trace NAME`), returning the scale and any positional (non-flag)
    /// arguments in order — the `dsc-bench` driver reads experiment names
    /// from the latter.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn parse_args(args: impl Iterator<Item = String>) -> (Scale, Vec<String>) {
        let mut scale = Scale::default();
        let mut positional = Vec::new();
        // An explicit --runs always wins over the --full/--smoke presets,
        // regardless of flag order.
        let mut runs_explicit = false;
        let mut args = args;
        while let Some(arg) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match arg.as_str() {
                "--full" => {
                    scale.full = true;
                    if !runs_explicit {
                        scale.runs = 96;
                    }
                }
                "--smoke" => {
                    scale.smoke = true;
                    if !runs_explicit {
                        scale.runs = 2;
                    }
                }
                "--runs" => {
                    runs_explicit = true;
                    scale.runs = value("--runs")
                        .parse()
                        .ok()
                        .filter(|&runs| runs > 0)
                        .expect("--runs takes a positive number");
                }
                "--seed" => scale.seed = value("--seed").parse().expect("--seed takes a number"),
                "--threads" => {
                    scale.threads = value("--threads")
                        .parse()
                        .expect("--threads takes a number")
                }
                "--out" => scale.out_dir = value("--out"),
                "--trace" => scale.trace = Some(value("--trace")),
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [EXPERIMENT…] [--full | --smoke] [--runs N] [--seed S] \
                         [--threads T] [--out DIR] [--trace NAME]"
                    );
                    std::process::exit(0);
                }
                other if other.starts_with('-') => panic!("unknown argument: {other}"),
                other => positional.push(other.to_string()),
            }
        }
        (scale, positional)
    }

    /// Parses the process's command-line flags.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed or positional arguments
    /// (binaries that take positionals use [`Scale::parse_args`]).
    pub fn from_args() -> Scale {
        let (scale, positional) = Self::parse_args(std::env::args().skip(1));
        assert!(
            positional.is_empty(),
            "unexpected argument: {}",
            positional[0]
        );
        scale
    }

    /// Output path under the results directory.
    pub fn out_path(&self, file: &str) -> String {
        format!("{}/{}", self.out_dir, file)
    }
}

/// The protocol under test with the paper's empirical configuration.
pub fn paper_protocol() -> DynamicSizeCounting {
    DynamicSizeCounting::new(DscConfig::empirical())
}

/// Starts a [`Sweep`] of `protocol` preconfigured from `scale`
/// (runs per cell, master seed, worker threads).
pub fn sweep_of<P>(scale: &Scale, protocol: P) -> Sweep<P>
where
    P: pp_model::SizeEstimator + Clone + Send + Sync,
    P::State: Clone + Send + Sync + 'static,
{
    Sweep::new(protocol)
        .runs(scale.runs)
        .master_seed(scale.seed)
        .threads(scale.threads)
}

/// Formats a float with two decimals, for CSV cells and console notes.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// `log2(n)` as the reference the figures annotate.
pub fn log2n(n: usize) -> f64 {
    (n.max(2) as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_model::Protocol;

    #[test]
    fn default_scale_is_quick() {
        let s = Scale::default();
        assert!(!s.full);
        assert_eq!(s.runs, 16);
    }

    #[test]
    fn out_path_joins_dir() {
        let s = Scale::default();
        assert_eq!(s.out_path("fig2.csv"), "results/fig2.csv");
    }

    #[test]
    fn parse_args_splits_positionals_from_flags() {
        let args = ["fig2", "--smoke", "lemmas", "--runs", "5", "--out", "o"]
            .iter()
            .map(|s| (*s).to_string());
        let (scale, positional) = Scale::parse_args(args);
        assert!(scale.smoke);
        assert_eq!(scale.runs, 5, "explicit --runs beats the smoke preset");
        assert_eq!(scale.out_dir, "o");
        assert_eq!(positional, vec!["fig2".to_string(), "lemmas".to_string()]);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn parse_args_rejects_unknown_flags() {
        let _ = Scale::parse_args(["--bogus".to_string()].into_iter());
    }

    #[test]
    #[should_panic(expected = "--runs takes a positive number")]
    fn parse_args_rejects_zero_runs() {
        let args = ["fig3", "--smoke", "--runs", "0"].map(String::from);
        let _ = Scale::parse_args(args.into_iter());
    }

    #[test]
    fn paper_protocol_uses_empirical_config() {
        let p = paper_protocol();
        assert_eq!(p.config().tau1, 6);
        assert_eq!(p.initial_state().max, 1);
    }
}
