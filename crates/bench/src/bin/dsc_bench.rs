//! `dsc-bench` — the one driver for every registered experiment.
//!
//! ```text
//! dsc-bench <EXPERIMENT>… [flags]   run the named experiments, in order
//! dsc-bench scenario <TRACE>        run one built-in fault-injection trace
//! dsc-bench all [flags]             run the whole registry (repro order)
//! dsc-bench repro [flags]           alias for `all`
//! dsc-bench list                    print the registry and exit
//! ```
//!
//! A positional naming a built-in scenario trace (`dsc-bench scenario
//! flash_crowd`, or just `dsc-bench flash_crowd`) selects the `scenario`
//! experiment restricted to that trace (equivalent to `--trace NAME`).
//!
//! Flags are the shared `Scale` flags: `--full | --smoke`, `--runs N`,
//! `--seed S`, `--threads T` (0 = machine parallelism), `--out DIR`
//! (CSV output, default `results/`). Every experiment executes its grid
//! on the `pp_sim::Sweep` engine — parallel, and bit-identical across
//! thread counts — and emits its CSV tables through the shared
//! `pp_analysis` writer.

use pp_bench::experiments;
use pp_bench::Scale;

fn print_registry() {
    // Column widths from the data (plus the header row), so the listing
    // stays aligned as registry entries come and go.
    let rows: Vec<[&str; 5]> =
        std::iter::once(["NAME", "PAPER", "BACKEND", "RECORDING", "DESCRIPTION"])
            .chain(
                experiments::REGISTRY
                    .iter()
                    .map(|s| [s.name, s.paper_ref, s.backend, s.recording, s.description]),
            )
            .collect();
    let width = |col: usize| rows.iter().map(|r| r[col].len()).max().unwrap_or(0);
    let (w0, w1, w2, w3) = (width(0), width(1), width(2), width(3));
    println!("registered experiments:");
    for r in &rows {
        println!(
            "  {:<w0$}  {:<w1$}  {:<w2$}  {:<w3$}  {}",
            r[0], r[1], r[2], r[3], r[4]
        );
    }
    println!("\nusage: dsc-bench <experiment>… | all | repro | list  [--full | --smoke] [--runs N] [--seed S] [--threads T] [--out DIR] [--trace NAME]");
}

fn main() {
    let (mut scale, names) = Scale::parse_args(std::env::args().skip(1));
    if names.is_empty() {
        print_registry();
        std::process::exit(2);
    }
    if names.iter().any(|n| n == "list") {
        if names.len() > 1 {
            eprintln!("`list` cannot be combined with experiment names: {names:?}");
            std::process::exit(2);
        }
        print_registry();
        return;
    }

    // Resolve every name and the trace up front: a typo must be diagnosed
    // before any experiment runs, even when an `all`/`repro` in the same
    // invocation would run everything anyway.
    let selected = experiments::select(&names, &mut scale).unwrap_or_else(|message| {
        eprintln!("{message}\n");
        print_registry();
        std::process::exit(2);
    });

    let t0 = std::time::Instant::now();
    for spec in &selected {
        experiments::run_and_write(spec, &scale);
    }
    if selected.len() > 1 {
        println!(
            "{} experiment(s) finished in {:.1?}",
            selected.len(),
            t0.elapsed()
        );
    }
}
