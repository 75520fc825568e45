//! Experiment implementations (each module's doc names its label, E1–E15)
//! and the declarative registry the `dsc-bench` driver runs them from.
//!
//! Each module exposes `run(scale: &Scale) -> Vec<TableSpec>`: it executes
//! its whole grid on the [`Sweep`](pp_sim::Sweep) engine, prints its
//! tables/sparklines, and returns every output table as data. The registry
//! entry point [`run_and_write`] is the single place rows become CSV files
//! (via the shared `pp_analysis` writer), so all experiments emit
//! schema-consistent output and the smoke tests can assert on rows without
//! touching the filesystem.

pub mod ablation;
pub mod accuracy;
pub mod batched;
pub mod burst_overlap;
pub mod compare;
pub mod convergence;
pub mod faults;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod holding;
pub mod lemmas;
pub mod memory;
pub mod scenario;

use crate::Scale;
use pp_analysis::TableSpec;

/// A registered experiment: name, provenance, execution plan, and entry
/// point.
///
/// `backend` and `recording` are the declarative face of the unified
/// driver: every experiment runs its grid through
/// [`Sweep::run_on`](pp_sim::Sweep::run_on) on the named
/// [`Backend`](pp_sim::Backend) under the named
/// [`Recording`](pp_sim::Recording) plan, and `dsc-bench list` prints both
/// so the registry is self-describing.
pub struct ExperimentSpec {
    /// Registry name (the `dsc-bench` argument).
    pub name: &'static str,
    /// The paper figure/lemma/section the experiment reproduces.
    pub paper_ref: &'static str,
    /// The simulation backend(s) the experiment's sweeps run on.
    pub backend: &'static str,
    /// The recording plan the experiment's sweeps request.
    pub recording: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Runs the experiment at the given scale, returning its output tables.
    pub run: fn(&Scale) -> Vec<TableSpec>,
}

/// Every experiment, in `repro` execution order. All fifteen run through
/// the [`Sweep`](pp_sim::Sweep) grid engine and return their rows for the
/// shared writer; `dsc-bench all` walks this list.
pub static REGISTRY: &[ExperimentSpec] = &[
    ExperimentSpec {
        name: "fig2",
        paper_ref: "Fig. 2",
        backend: "agent-array",
        recording: "estimates",
        description: "size estimate over time in a fresh system",
        run: fig2::run,
    },
    ExperimentSpec {
        name: "fig3",
        paper_ref: "Fig. 3",
        backend: "agent-array",
        recording: "estimates",
        description: "relative deviation from log2 n across population sizes",
        run: fig3::run,
    },
    ExperimentSpec {
        name: "fig4",
        paper_ref: "Fig. 4",
        backend: "agent-array",
        recording: "estimates",
        description: "adaptation to a population crash",
        run: fig4::run,
    },
    ExperimentSpec {
        name: "fig5",
        paper_ref: "Fig. 5 (appendix)",
        backend: "agent-array",
        recording: "estimates",
        description: "recovery from a planted initial over-estimate",
        run: fig5::run,
    },
    ExperimentSpec {
        name: "convergence",
        paper_ref: "Theorem 2.1 (time)",
        backend: "agent-array",
        recording: "estimates",
        description: "convergence time vs initial estimate and population size",
        run: convergence::run,
    },
    ExperimentSpec {
        name: "holding",
        paper_ref: "Theorem 2.1 (holding)",
        backend: "agent-array",
        recording: "estimates (scanned)",
        description: "validity persists over long horizons",
        run: holding::run,
    },
    ExperimentSpec {
        name: "memory",
        paper_ref: "Theorem 2.1 (space)",
        backend: "agent-array",
        recording: "estimates + memory",
        description: "bits per agent vs n and vs an initial over-estimate",
        run: memory::run,
    },
    ExperimentSpec {
        name: "burst_overlap",
        paper_ref: "Theorem 2.2",
        backend: "agent-array",
        recording: "estimates + ticks",
        description: "burst/overlap structure of the phase clock",
        run: burst_overlap::run,
    },
    ExperimentSpec {
        name: "compare",
        paper_ref: "§1.2/§6 baselines",
        backend: "agent-array",
        recording: "estimates",
        description: "baseline counters under a population crash",
        run: compare::run,
    },
    ExperimentSpec {
        name: "ablation",
        paper_ref: "§5 design choices",
        backend: "agent-array",
        recording: "estimates",
        description: "protocol variants on the converge-then-crash scenario",
        run: ablation::run,
    },
    ExperimentSpec {
        name: "lemmas",
        paper_ref: "Lemmas 4.1-4.4",
        backend: "count + jump",
        recording: "estimates",
        description: "substrate validation at count-simulator scale",
        run: lemmas::run,
    },
    ExperimentSpec {
        name: "accuracy",
        paper_ref: "§6 open question",
        backend: "agent-array",
        recording: "estimates + memory",
        description: "averaging the dynamic estimate (accuracy vs bits)",
        run: accuracy::run,
    },
    ExperimentSpec {
        name: "batched",
        paper_ref: "Lemma 4.2 at asymptotic n",
        backend: "batched-count (+ count control)",
        recording: "estimates",
        description: "tau-leaping count dynamics up to n = 2^30",
        run: batched::run,
    },
    ExperimentSpec {
        name: "scenario",
        paper_ref: "§3 adversary (Doty-Eftekhari)",
        backend: "batched-count",
        recording: "estimates",
        description: "fault-injection trace catalog: ramps, flash crowds, crash bursts, poachers",
        run: scenario::run,
    },
    ExperimentSpec {
        name: "faults",
        paper_ref: "§2 loose stabilization (Doty-Eftekhari)",
        backend: "agent-array + count",
        recording: "estimates + recovery",
        description:
            "state corruption, Byzantine liars, adversarial starts: recovery vs the holding bound",
        run: faults::run,
    },
];

/// Looks up a registered experiment by name.
pub fn find(name: &str) -> Option<&'static ExperimentSpec> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// Resolves the `dsc-bench` positional arguments into the experiments to
/// run, in order, before any of them runs: a registered name selects that
/// experiment, `all` or `repro` the whole registry, and a built-in trace
/// name the `scenario` experiment restricted to that trace (it sets
/// `scale.trace`, as `--trace NAME` does).
///
/// # Errors
///
/// Returns the message to print when a name is neither an experiment nor
/// a built-in trace, when `scale.trace` names no built-in trace, or when a
/// trace is set but the selection does not run `scenario`.
pub fn select(names: &[String], scale: &mut Scale) -> Result<Vec<&'static ExperimentSpec>, String> {
    let mut run_all = false;
    let mut picked: Vec<&'static ExperimentSpec> = Vec::new();
    for name in names {
        if name == "all" || name == "repro" {
            run_all = true;
        } else if pp_sim::scenario::builtin(name).is_some() {
            scale.trace = Some(name.clone());
            if !picked.iter().any(|s| s.name == "scenario") {
                picked.push(find("scenario").expect("scenario is registered"));
            }
        } else if let Some(spec) = find(name) {
            picked.push(spec);
        } else {
            return Err(format!("unknown experiment: {name}"));
        }
    }
    let selected = if run_all {
        REGISTRY.iter().collect()
    } else {
        picked
    };
    if let Some(trace) = &scale.trace {
        if pp_sim::scenario::builtin(trace).is_none() {
            return Err(format!(
                "unknown trace: {trace} (built-ins: {})",
                pp_sim::BUILTIN_TRACES.join(", ")
            ));
        }
        if !selected.iter().any(|s| s.name == "scenario") {
            return Err(format!(
                "--trace {trace} restricts the scenario experiment, which is not selected"
            ));
        }
    }
    Ok(selected)
}

/// Runs one experiment and writes its tables as CSV under the scale's
/// output directory — the only place experiment rows become files.
///
/// # Panics
///
/// Panics if the output directory or a CSV file cannot be written.
pub fn run_and_write(spec: &ExperimentSpec, scale: &Scale) -> Vec<TableSpec> {
    let tables = (spec.run)(scale);
    let paths = pp_analysis::write_tables(&scale.out_dir, &tables).unwrap_or_else(|e| {
        panic!(
            "{}: writing results under {}: {e}",
            spec.name, scale.out_dir
        )
    });
    for path in paths {
        println!("wrote {path}");
    }
    println!();
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 15, "all fifteen experiments must register");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15, "registry names must be unique");
        assert!(find("fig2").is_some());
        assert!(find("no-such-experiment").is_none());
    }

    fn select_args(args: &[&str]) -> Result<(Vec<&'static str>, Option<String>), String> {
        let (mut scale, names) = Scale::parse_args(args.iter().map(|a| a.to_string()));
        let selected = select(&names, &mut scale)?;
        Ok((selected.iter().map(|s| s.name).collect(), scale.trace))
    }

    #[test]
    fn select_resolves_experiments_traces_and_all() {
        assert_eq!(
            select_args(&["fig3", "fig2"]),
            Ok((vec!["fig3", "fig2"], None))
        );
        let trace = Some("flash_crowd".to_string());
        assert_eq!(
            select_args(&["flash_crowd"]),
            Ok((vec!["scenario"], trace.clone()))
        );
        assert_eq!(
            select_args(&["scenario", "flash_crowd", "fig2"]),
            Ok((vec!["scenario", "fig2"], trace.clone()))
        );
        assert_eq!(
            select_args(&["scenario", "--trace", "flash_crowd"]),
            Ok((vec!["scenario"], trace.clone()))
        );
        let (all, all_trace) = select_args(&["fig2", "all", "--trace", "flash_crowd"]).unwrap();
        assert_eq!(all.len(), REGISTRY.len());
        assert_eq!(all_trace, trace);
    }

    #[test]
    fn select_rejects_unknown_names_and_stray_traces() {
        assert_eq!(
            select_args(&["fig2", "nope", "all"]),
            Err("unknown experiment: nope".to_string())
        );
        let unknown = select_args(&["scenario", "--trace", "bogus"]).unwrap_err();
        assert!(unknown.starts_with("unknown trace: bogus"), "{unknown}");
        assert!(unknown.contains("flash_crowd"), "{unknown}");
        assert!(select_args(&["fig2", "--trace", "bogus"])
            .unwrap_err()
            .starts_with("unknown trace: bogus"));
        assert_eq!(
            select_args(&["fig2", "--trace", "flash_crowd"]),
            Err("--trace flash_crowd restricts the scenario experiment, \
                 which is not selected"
                .to_string())
        );
    }

    #[test]
    fn every_entry_declares_its_backend_and_recording() {
        let backends = ["agent-array", "count", "jump", "batched-count"];
        let recordings = ["estimates", "memory", "ticks", "scanned", "snapshots"];
        for e in REGISTRY {
            assert!(
                backends.iter().any(|b| e.backend.contains(b)),
                "{}: backend {:?} names no known backend",
                e.name,
                e.backend
            );
            assert!(
                recordings.iter().any(|r| e.recording.contains(r)),
                "{}: recording {:?} names no known plan",
                e.name,
                e.recording
            );
        }
        assert_eq!(find("lemmas").unwrap().backend, "count + jump");
        assert_eq!(
            find("burst_overlap").unwrap().recording,
            "estimates + ticks"
        );
    }
}
