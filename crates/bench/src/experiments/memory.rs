//! E7 / Theorem 2.1 (space): bits per agent.
//!
//! Two claims to check:
//!
//! 1. **shape in n** — after convergence, the paper's protocol stores
//!    `O(log log n)`-bit values (four counters of magnitude `O(log n)`),
//!    while the Doty–Eftekhari baseline stores a *list* of `Θ(log n)`
//!    timers: its footprint grows like `log n · log log n`, visibly
//!    steeper. The crossover claimed in the paper's §2.2 ("once our
//!    protocol is converged it requires an optimal O(log log n) bits …
//!    improving upon \[22\]") should be visible at every n.
//! 2. **shape in s** — the transient footprint scales with `log s` for an
//!    initial over-estimate `s` (the `O(log s)` term), and collapses back
//!    after convergence.
//!
//! Both sweeps run on the agent-array backend under the memory-recording
//! plan (`run_on::<Simulator<_>, _>(WithMemory)`) — the
//! footprint-vs-n comparison as one multi-cell population grid per
//! protocol, the transient-vs-s readout as one seeded single-cell grid per
//! over-estimate — replacing the seed harness's hand-rolled
//! `parallel_map`-over-`Experiment` loops.

use crate::{f2, Scale};
use pp_analysis::{memory_profile, theorem_bound_bits, Table, TableSpec};
use pp_model::{MemoryFootprint, SizeEstimator};
use pp_protocols::De22Counting;
use pp_sim::{Simulator, SweepResults, WithMemory};

fn memory_sweep<P>(scale: &Scale, protocol: P, ns: &[usize], horizon: f64) -> SweepResults
where
    P: SizeEstimator + Clone + Send + Sync,
    P::State: MemoryFootprint + Clone + Send + Sync + 'static,
{
    crate::sweep_of(scale, protocol)
        .runs(scale.runs.min(8))
        .populations(ns.iter().copied())
        .horizon(horizon)
        .snapshot_every(10.0)
        // Estimates and memory are both read by a scan of all agents
        // per snapshot.
        .run_on::<Simulator<_>, _>(WithMemory)
        .expect("the agent-array backend records memory")
}

/// Runs E7, returning the `memory_n.csv` and `memory_s.csv` tables.
pub fn run(scale: &Scale) -> Vec<TableSpec> {
    println!("== Theorem 2.1: memory in bits per agent ==");
    let (exps, horizon): (&[u32], f64) = if scale.smoke {
        (&[6, 8], 120.0)
    } else if scale.full {
        (&[8, 10, 12, 14, 16], 1_000.0)
    } else {
        (&[8, 10, 12], 400.0)
    };
    let ns: Vec<usize> = exps.iter().map(|&e| 1usize << e).collect();
    let warmup = horizon / 2.0;

    println!("-- steady-state footprint vs n (DSC vs Doty–Eftekhari 2022) --");
    let dsc_results = memory_sweep(scale, crate::paper_protocol(), &ns, horizon);
    let de_results = memory_sweep(scale, De22Counting::new(), &ns, horizon);

    let mut table = Table::new(vec![
        "n",
        "DSC max bits",
        "DSC mean bits",
        "DE22 max bits",
        "DE22 mean bits",
        "c(log s+loglog n)",
    ]);
    let mut csv_n = TableSpec::new(
        "memory_n.csv",
        &[
            "n",
            "dsc_max_bits",
            "dsc_mean_bits",
            "de22_max_bits",
            "de22_mean_bits",
        ],
    );
    for ((&exp, dsc_cell), de_cell) in exps
        .iter()
        .zip(dsc_results.cells_for_schedule("static"))
        .zip(de_results.cells_for_schedule("static"))
    {
        let n = dsc_cell.n;
        let dsc: Vec<_> = dsc_cell
            .runs()
            .filter_map(|r| memory_profile(r, warmup))
            .collect();
        let de: Vec<_> = de_cell
            .runs()
            .filter_map(|r| memory_profile(r, warmup))
            .collect();
        let avg = |xs: &[f64]| pp_analysis::mean(xs).unwrap_or(f64::NAN);
        let dsc_max = avg(&dsc.iter().map(|p| p.steady_max_bits).collect::<Vec<_>>());
        let dsc_mean = avg(&dsc.iter().map(|p| p.steady_mean_bits).collect::<Vec<_>>());
        let de_max = avg(&de.iter().map(|p| p.steady_max_bits).collect::<Vec<_>>());
        let de_mean = avg(&de.iter().map(|p| p.steady_mean_bits).collect::<Vec<_>>());
        // Reference shape: the steady state has s = Θ(log n).
        let bound = theorem_bound_bits((exp as u64) * 8, n, 4.0);
        table.row(vec![
            format!("2^{exp}"),
            f2(dsc_max),
            f2(dsc_mean),
            f2(de_max),
            f2(de_mean),
            f2(bound),
        ]);
        csv_n.push(vec![
            n.to_string(),
            format!("{dsc_max}"),
            format!("{dsc_mean}"),
            format!("{de_max}"),
            format!("{de_mean}"),
        ]);
    }
    table.print();

    // Sweep 2: initial over-estimate s. Forgetting an over-estimate takes
    // ≈ 2 rounds of ≈ 15·τ1·s parallel time each (the countdown decays
    // slightly slower than one per parallel time), so the horizon scales
    // with s and "steady" starts well past the forget point.
    let (n, estimates): (usize, &[u64]) = if scale.smoke {
        (64, &[60])
    } else if scale.full {
        (256, &[60, 600, 6_000, 60_000])
    } else {
        (256, &[60, 600, 6_000])
    };
    println!("-- transient footprint vs initial estimate s (n = {n}) --");
    let mut table = Table::new(vec!["s", "peak bits", "steady max bits"]);
    let mut csv_s = TableSpec::new("memory_s.csv", &["s", "peak_bits", "steady_max_bits"]);
    let protocol = crate::paper_protocol();
    for &s in estimates {
        let horizon = 40.0 * s as f64 + 600.0;
        let results = crate::sweep_of(scale, protocol)
            .runs(scale.runs.min(8))
            .master_seed(scale.seed ^ s)
            .populations([n])
            .horizon(horizon)
            .snapshot_every(10.0)
            .init_with(move |_i| protocol.state_with_estimate(s))
            .run_on::<Simulator<_>, _>(WithMemory)
            .expect("the agent-array backend records memory");
        let profiles: Vec<_> = results.cells[0]
            .runs()
            .filter_map(|r| memory_profile(r, horizon * 0.9))
            .collect();
        let peak = pp_analysis::mean(
            &profiles
                .iter()
                .map(|p| f64::from(p.peak_bits))
                .collect::<Vec<_>>(),
        )
        .unwrap_or(f64::NAN);
        let steady = pp_analysis::mean(
            &profiles
                .iter()
                .map(|p| p.steady_max_bits)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(f64::NAN);
        table.row(vec![s.to_string(), f2(peak), f2(steady)]);
        csv_s.push(vec![s.to_string(), format!("{peak}"), format!("{steady}")]);
    }
    table.print();
    vec![csv_n, csv_s]
}
