//! E13: estimate accuracy — the §6 open question, quantified.
//!
//! The paper asks whether averaging (Doty & Eftekhari 2019's trick for
//! `log n ± O(1)` static estimates) can be combined with its dynamic
//! protocol. `dsc-core::averaged` prototypes the combination; this
//! experiment measures what it buys:
//!
//! * **additive error** (|median − log2 n| and the round-to-round jitter)
//!   for plain DSC, averaged DSC with A ∈ {8, 32}, and the static DE19
//!   averaging baseline;
//! * **memory cost** of the extra slots — accuracy is bought with exactly
//!   the bits the plain protocol saves.
//!
//! Ported onto the [`Sweep`](pp_sim::Sweep) engine: where the seed harness
//! drove one sequential simulator per protocol, each variant is now a
//! single-cell sweep of `scale.runs` seeded runs executed in parallel, and
//! the medians are read from the per-run snapshot series (one snapshot per
//! ≈ round, memory recorded per snapshot).

use crate::{f2, log2n, Scale};
use dsc_core::{AveragedDsc, DscConfig};
use pp_analysis::{mean, std_dev, TableSpec};
use pp_model::{MemoryFootprint, SizeEstimator};
use pp_protocols::De19Averaging;
use pp_sim::{Simulator, WithMemory};

struct Row {
    name: String,
    bias: f64,
    jitter: f64,
    mean_bits: f64,
}

/// Warm-up before the first accuracy readout (parallel time).
const WARMUP: f64 = 400.0;
/// Snapshot spacing ≈ one protocol round.
const ROUND: f64 = 130.0;

fn measure<P>(name: &str, protocol: P, n: usize, rounds: u32, scale: &Scale) -> Row
where
    P: SizeEstimator + Clone + Send + Sync,
    P::State: MemoryFootprint + Clone + Send + Sync + 'static,
{
    let results = crate::sweep_of(scale, protocol)
        .populations([n])
        .horizon(WARMUP + ROUND * f64::from(rounds))
        .snapshot_every(ROUND)
        // Estimates and memory are both read by a scan of all agents
        // per snapshot.
        .run_on::<Simulator<_>, _>(WithMemory)
        .expect("the agent-array backend records memory");
    let cell = &results.cells[0];

    // Per run: the post-warm-up series of median estimates.
    let mut biases = Vec::with_capacity(cell.runs.len());
    let mut jitters = Vec::with_capacity(cell.runs.len());
    let mut bits = Vec::with_capacity(cell.runs.len());
    for run in cell.runs() {
        let medians: Vec<f64> = run
            .snapshots
            .iter()
            .filter(|s| s.parallel_time >= WARMUP)
            .filter_map(|s| s.estimates.map(|e| e.median))
            .collect();
        if let Some(m) = mean(&medians) {
            biases.push(m - log2n(n));
        }
        if let Some(sd) = std_dev(&medians) {
            jitters.push(sd);
        }
        if let Some(mem) = run.snapshots.last().and_then(|s| s.memory) {
            bits.push(mem.mean_bits);
        }
    }
    Row {
        name: name.to_string(),
        bias: mean(&biases).unwrap_or(f64::NAN),
        jitter: mean(&jitters).unwrap_or(f64::NAN),
        mean_bits: mean(&bits).unwrap_or(f64::NAN),
    }
}

/// Runs E13, returning the `accuracy.csv` table.
pub fn run(scale: &Scale) -> Vec<TableSpec> {
    let n = if scale.full {
        65_536
    } else if scale.smoke {
        256
    } else {
        4_096
    };
    let rounds = if scale.smoke { 3 } else { 12 };
    println!("== Accuracy (§6 open question): averaging the dynamic estimate (n = {n}) ==");
    println!(
        "   log2(n) = {}; plain DSC centers at log2(k·n) = log2 n + 4",
        f2(log2n(n))
    );

    let rows = vec![
        measure("DSC plain", crate::paper_protocol(), n, rounds, scale),
        measure(
            "DSC averaged A=8",
            AveragedDsc::new(DscConfig::empirical(), 8),
            n,
            rounds,
            scale,
        ),
        measure(
            "DSC averaged A=32",
            AveragedDsc::new(DscConfig::empirical(), 32),
            n,
            rounds,
            scale,
        ),
        measure("DE19 static A=32", De19Averaging::new(32), n, rounds, scale),
    ];

    let mut csv = TableSpec::new(
        "accuracy.csv",
        &["protocol", "bias", "jitter", "bits_per_agent"],
    );
    for r in &rows {
        csv.push(vec![
            r.name.clone(),
            format!("{}", r.bias),
            format!("{}", r.jitter),
            format!("{}", r.mean_bits),
        ]);
    }
    println!(
        "(the averaged variants trade bits for stability: σ shrinks ~1/√A while\n the plain protocol keeps the minimal O(log log n)-bit footprint)"
    );
    vec![csv]
}
