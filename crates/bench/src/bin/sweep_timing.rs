//! Times the [`Sweep`] engine on the paper's workload shape —
//! a 96-runs-per-point convergence sweep (§5) — once serially
//! (`--threads 1` equivalent) and once at machine parallelism, and records
//! both in `BENCH_sweep.json`.
//!
//! Flags: the shared `Scale` flags; `--runs` defaults to 96 here
//! (the paper's count) rather than the quick-scale 16, and `--smoke`
//! shrinks the grid so CI can exercise the harness.
//!
//! Alongside the convergence sweep it times one epidemic on the batched
//! (tau-leaping) backend at n = 10⁹ — the scale the exact backends cannot
//! reach — and records its wall clock under the `batched_*` JSON keys.

use pp_bench::experiments::convergence;
use pp_bench::{log2n, Scale};
use pp_protocols::Infection;
use pp_sim::{BatchedCountSimulator, Sweep, TrackedEstimates};
use std::io::Write;

fn main() {
    // This harness defaults to the paper's 96 runs; an explicit --runs (or
    // --smoke's preset) still wins because Scale::from_args applies it last.
    let runs_given = std::env::args().any(|a| a == "--runs" || a == "--smoke" || a == "--full");
    let mut scale = Scale::from_args();
    if !runs_given {
        scale.runs = 96;
    }
    let exps: &[u32] = if scale.smoke { &[5, 6] } else { &[7, 8, 9] };

    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "timing a {}-run convergence sweep over n in {:?} ({} core(s) available)",
        scale.runs,
        exps.iter().map(|&e| 1usize << e).collect::<Vec<_>>(),
        cores
    );

    let time_with = |threads: usize| {
        let mut s = scale.clone();
        s.threads = threads;
        let results = convergence::population_sweep(&s, exps);
        assert_eq!(results.total_runs(), scale.runs * exps.len());
        results.wall.as_secs_f64()
    };

    let serial = time_with(1);
    println!("threads = 1     : {serial:.3} s");
    let auto = time_with(0);
    println!("threads = 0/auto: {auto:.3} s");
    let speedup = serial / auto;
    println!("speedup         : {speedup:.2}x");

    // The headline scale point: a full epidemic at n = 10⁹ on the batched
    // backend (smoke keeps CI fast with a 10⁶-agent stand-in).
    let (batched_n, batched_runs) = if scale.smoke {
        (1_000_000usize, 2usize)
    } else {
        (1_000_000_000usize, 4usize)
    };
    let batched = Sweep::new(Infection::new())
        .populations([batched_n])
        .runs(batched_runs)
        .master_seed(scale.seed)
        .threads(0)
        .horizon(8.0 * log2n(batched_n))
        .snapshot_every(1.0)
        .init_counts(|n| vec![n - 1, 1])
        .run_on::<BatchedCountSimulator<_>, _>(TrackedEstimates)
        .expect("a counts-initialized static grid fits the batched backend");
    let batched_wall = batched.wall.as_secs_f64();
    let completed = batched
        .cells
        .iter()
        .flat_map(|c| c.runs.iter())
        .filter(|r| {
            r.snapshots
                .iter()
                .any(|s| s.estimates.is_some_and(|e| e.without_estimate == 0))
        })
        .count();
    assert_eq!(
        completed, batched_runs,
        "every epidemic at n = {batched_n} must complete within the Lemma 4.2 horizon"
    );
    println!("batched n = {batched_n}: {batched_runs} epidemic(s) in {batched_wall:.3} s");

    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": \"convergence population sweep\",\n",
            "  \"runs_per_point\": {},\n",
            "  \"populations\": {:?},\n",
            "  \"master_seed\": {},\n",
            "  \"available_parallelism\": {},\n",
            "  \"wall_seconds_threads_1\": {:.6},\n",
            "  \"wall_seconds_threads_auto\": {:.6},\n",
            "  \"speedup_auto_over_1\": {:.4},\n",
            "  \"batched_n\": {},\n",
            "  \"batched_runs\": {},\n",
            "  \"batched_wall_seconds\": {:.6}\n",
            "}}\n"
        ),
        scale.runs,
        exps.iter().map(|&e| 1usize << e).collect::<Vec<_>>(),
        scale.seed,
        cores,
        serial,
        auto,
        speedup,
        batched_n,
        batched_runs,
        batched_wall,
    );
    // Smoke runs must not clobber the committed paper-scale record.
    let path = if scale.smoke {
        "BENCH_sweep_smoke.json"
    } else {
        "BENCH_sweep.json"
    };
    let mut f = std::fs::File::create(path).expect("create BENCH_sweep json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_sweep json");
    println!("wrote {path}");
}
