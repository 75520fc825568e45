//! Quickstart: estimate the size of a population in a few lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Runs the paper's protocol (Algorithm 2, empirical constants) on a
//! population of 10 000 agents and watches the agents' estimates of
//! `log2 n` converge from "I just joined" (estimate 1) to a constant-factor
//! approximation of `log2 10 000 ≈ 13.3`.

use dynamic_size_counting::dsc::{DscConfig, DynamicSizeCounting};
use dynamic_size_counting::sim::Simulator;

fn main() {
    let n = 10_000;
    let log_n = (n as f64).log2();
    println!("population size n = {n}   (log2 n = {log_n:.2})");
    println!("running DynamicSizeCounting with the paper's §5 constants…\n");

    // `estimate_stats` summarizes all agents' estimates by one scan of the
    // states, so stepping itself carries no instrumentation.
    let protocol = DynamicSizeCounting::new(DscConfig::empirical());
    let mut sim = Simulator::with_seed(protocol, n, 42);

    println!(
        "{:>14} {:>8} {:>8} {:>8}",
        "parallel time", "min", "median", "max"
    );
    for step in 0..12 {
        sim.run_parallel_time(25.0);
        let s = sim.estimate_stats().expect("estimates");
        println!(
            "{:>14.0} {:>8.1} {:>8.1} {:>8.1}",
            sim.parallel_time(),
            s.min,
            s.median,
            s.max
        );
        let _ = step;
    }

    let s = sim.estimate_stats().expect("estimates");
    println!(
        "\nfinal estimate ≈ {:.1} — a constant-factor approximation of log2 n = {log_n:.2}",
        s.median
    );
    println!(
        "(with k = {} GRVs per reset, the estimate concentrates near log2(k·n) = {:.2};",
        protocol.config().k,
        ((protocol.config().k as f64) * n as f64).log2()
    );
    println!(" non-uniform protocols only need Θ(log n), so any constant factor serves.)");
}
