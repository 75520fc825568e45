//! Times the sequential agent-array hot loop: single-thread interactions
//! per second for the DSC empirical configuration at n ∈ {10³, 10⁴, 10⁵,
//! 10⁶}, recorded into `BENCH_hotloop.json`. The engine is the
//! gather/compute/scatter `pp_sim::Simulator::step_block` over 24-byte
//! packed states. Every number in the file is measured in the same
//! invocation; compare engines by running this harness on each revision
//! in alternation on one box, never against a constant from another run.
//!
//! Each population is timed in plain stepping: raw `Simulator` stepping
//! with no observer (`O = ()`), the per-interaction work of every §5
//! experiment, which reads its estimates by a scan at each snapshot
//! (`Sweep::run_on::<Simulator<_>, _>(ScannedEstimates)`).
//!
//! A chunk-size sweep rides along: `step_block`'s pairs-per-chunk constant
//! (production: 64) is measured against 32 and 128 on the memory-bound
//! populations via [`Simulator::step_n_with_chunk`] in interleaved rounds
//! against the shared-vCPU noise, and recorded under `"chunk_sweep"` in
//! the JSON with each size's quartiles and its wins against 64, so the
//! choice of `CHUNK` stays auditable.
//!
//! One more point pins the other side of the in-place loop's borrow
//! choice: plain stepping of [`pp_protocols::De22Counting`] (a 388-byte
//! state, too large to copy as a by-value responder, so it keeps
//! `pair_mut`) at n = 4000, recorded under `"de22_point"`.
//!
//! The count backend has a point of its own, `"count_point"`: the lemmas'
//! bounded CHVP (401 states) on [`CountSimulator`] at n = 2¹⁴, run from
//! the Lemma 4.3 start (every agent at the top value) and the Lemma 4.4
//! start (one agent there, the rest at 0) over the lemmas' horizon,
//! alternating the two starts per round, in nanoseconds per interaction.
//! Both runs fit the count backend's agent table (n = 2¹⁴ is within
//! `TICKET_CAP`), so each draw is a table load and each move one store,
//! however many states are occupied.
//!
//! Flags: the shared `Scale` flags; `--smoke` shrinks the measurement
//! budget so CI can exercise the harness (and validate the JSON schema)
//! in seconds.

use pp_bench::Scale;
use pp_protocols::{BoundedChvp, De22Counting, De22State};
use pp_sim::{ChunkSize, CountSimulator, Simulator};
use std::io::Write;
use std::time::Instant;

/// Population sizes of the per-point measurements.
const POPULATIONS: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Population of the DE22 point: 4000 × 388 bytes stays below the gather
/// threshold, so every interaction runs the in-place loop.
const DE22_N: usize = 4_000;

/// Population of the count point: the lemmas' CHVP cells at n = 2¹⁴.
const COUNT_N: u64 = 1 << 14;

/// Top value of the count point's bounded CHVP (401 states).
const CHVP_M: u32 = 400;

/// The lemmas' horizon at n = 2¹⁴: 7(Δ + k log n) with Δ = 60 and k = 2.
const LEMMA_HORIZON: f64 = 7.0 * (60.0 + 2.0 * 14.0);

/// Times the count point: one run from each lemma start per round,
/// alternated, each from a fresh simulator over `horizon` parallel time.
/// Returns the median ns per interaction from the Lemma 4.3 and the
/// Lemma 4.4 start.
fn count_point(seed: u64, horizon: f64, rounds: usize) -> [f64; 2] {
    let start = |catch_up: bool| {
        let mut counts = vec![0u64; CHVP_M as usize + 1];
        if catch_up {
            (counts[0], counts[CHVP_M as usize]) = (COUNT_N - 1, 1);
        } else {
            counts[CHVP_M as usize] = COUNT_N;
        }
        counts
    };
    let mut ns: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for round in 0..rounds as u64 {
        for (k, catch_up) in [false, true].into_iter().enumerate() {
            let mut sim = CountSimulator::from_counts(
                BoundedChvp::new(CHVP_M),
                start(catch_up),
                seed + round,
            );
            let clock = Instant::now();
            sim.run_parallel_time(horizon);
            ns[k].push(clock.elapsed().as_secs_f64() * 1e9 / sim.interactions() as f64);
        }
    }
    ns.map(|r| pp_analysis::median(&r).expect("at least one round"))
}

/// The box the numbers were measured on, as a JSON object: `nproc`, the
/// CPU model and `rustc -V`, the fields perfbench stamps its results with.
fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "none".into());
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}}}",
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        json_str(&cpu),
        json_str(&rustc),
    )
}

/// `s` as a JSON string; control characters become spaces.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn measure(mut sim_step: impl FnMut(u64), budget_secs: f64) -> f64 {
    let batch: u64 = 100_000;
    let start = Instant::now();
    let mut total = 0u64;
    loop {
        sim_step(batch);
        total += batch;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= budget_secs {
            return total as f64 / elapsed;
        }
    }
}

/// Measures plain stepping at each chunk size on the memory-bound
/// populations in interleaved rounds: every round times all three sizes,
/// starting from a different one each round, so box-level throughput
/// swings hit all of them alike. A size *wins* a round against the
/// production `c64` when it stepped faster in that round. Returns one JSON
/// object per population: each size's median and quartiles over the
/// rounds, and the wins of c32 and c128 against c64.
fn chunk_sweep(scale: &Scale, warm: f64, budget: f64, rounds: usize) -> Vec<String> {
    const CHUNKS: [(ChunkSize, &str); 3] = [
        (ChunkSize::C32, "c32"),
        (ChunkSize::C64, "c64"),
        (ChunkSize::C128, "c128"),
    ];
    const BASE: usize = 1; // c64, the production CHUNK
    let ns: &[usize] = if scale.smoke {
        &[100_000]
    } else {
        &[100_000, 1_000_000]
    };
    let mut lines = Vec::new();
    for &n in ns {
        // One warmed steady-state simulator per chunk size, re-measured
        // every round.
        let mut sims: Vec<Simulator<_, ()>> = CHUNKS
            .iter()
            .map(|_| {
                let mut sim = Simulator::with_seed(pp_bench::paper_protocol(), n, scale.seed);
                sim.run_parallel_time(warm);
                sim
            })
            .collect();
        let mut rates: Vec<Vec<f64>> = vec![Vec::new(); CHUNKS.len()];
        for round in 0..rounds {
            for k in (0..CHUNKS.len()).map(|i| (i + round) % CHUNKS.len()) {
                let chunk = CHUNKS[k].0;
                rates[k].push(measure(|c| sims[k].step_n_with_chunk(c, chunk), budget));
            }
        }
        let wins: Vec<usize> = rates
            .iter()
            .map(|r| r.iter().zip(&rates[BASE]).filter(|(x, b)| x > b).count())
            .collect();
        let q = |k: usize, p: f64| pp_analysis::quantile(&rates[k], p).expect("at least one round");
        println!(
            "chunk sweep n = {:>7} ({rounds} rounds): c32 {:6.2} M/s ({}/{rounds} wins vs c64)  \
             c64 {:6.2} M/s  c128 {:6.2} M/s ({}/{rounds} wins vs c64)",
            n,
            q(0, 0.5) / 1e6,
            wins[0],
            q(1, 0.5) / 1e6,
            q(2, 0.5) / 1e6,
            wins[2],
        );
        let mut fields = vec![
            format!("      \"n\": {n}"),
            format!("      \"rounds\": {rounds}"),
        ];
        for (k, &(_, name)) in CHUNKS.iter().enumerate() {
            fields.push(format!(
                "      \"{name}_interactions_per_sec\": {:.1}",
                q(k, 0.5)
            ));
            fields.push(format!(
                "      \"{name}_q1_interactions_per_sec\": {:.1}",
                q(k, 0.25)
            ));
            fields.push(format!(
                "      \"{name}_q3_interactions_per_sec\": {:.1}",
                q(k, 0.75)
            ));
            if k != BASE {
                fields.push(format!("      \"{name}_wins_vs_c64\": {}", wins[k]));
            }
        }
        lines.push(format!("    {{\n{}\n    }}", fields.join(",\n")));
    }
    lines
}

fn main() {
    let scale = Scale::from_args();
    let (warm, budget) = if scale.smoke {
        (5.0, 0.05)
    } else {
        // 2.5 s per point: the reference box is a shared vCPU whose
        // throughput swings ±20% on second timescales; longer windows
        // average the neighbor noise down.
        (50.0, 2.5)
    };
    println!("single-thread DSC hot-loop timing (budget {budget} s per point)");

    let mut lines = Vec::new();
    for n in POPULATIONS {
        let mut sim = Simulator::with_seed(pp_bench::paper_protocol(), n, scale.seed);
        sim.run_parallel_time(warm);
        let plain = measure(|c| sim.step_n(c), budget);
        println!("n = {:>7}: plain {:7.2} M/s", n, plain / 1e6);
        lines.push(format!(
            concat!(
                "    {{\n",
                "      \"n\": {},\n",
                "      \"plain_interactions_per_sec\": {:.1}\n",
                "    }}"
            ),
            n, plain,
        ));
    }

    let de22 = {
        let mut sim = Simulator::with_seed(De22Counting::new(), DE22_N, scale.seed);
        sim.run_parallel_time(warm);
        measure(|c| sim.step_n(c), budget)
    };
    let de22_bytes = std::mem::size_of::<De22State>();
    println!(
        "DE22 ({de22_bytes} B) n = {DE22_N}: plain {:7.2} M/s",
        de22 / 1e6
    );

    let count_rounds = if scale.smoke { 1 } else { 5 };
    let count_horizon = if scale.smoke { 40.0 } else { LEMMA_HORIZON };
    let [count_43, count_44] = count_point(scale.seed, count_horizon, count_rounds);
    println!(
        "count CHVP({CHVP_M}) n = {COUNT_N}: lemma 4.3 start {count_43:.2} ns, \
         lemma 4.4 start {count_44:.2} ns per interaction"
    );

    // The chunk-size sweep: fewer rounds in smoke mode, where only the
    // schema matters. Interleaved rounds pair each size with c64 under the
    // same box load, so a round can be shorter than a plain point.
    let (chunk_rounds, chunk_budget) = if scale.smoke { (2, budget) } else { (10, 1.0) };
    let chunk_lines = chunk_sweep(
        &scale,
        if scale.smoke { 1.0 } else { warm },
        chunk_budget,
        chunk_rounds,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": \"DSC empirical configuration, steady state, single thread; ",
            "plain = stepping with no observer, the per-interaction work of every ",
            "convergence experiment (estimates are scanned at each snapshot)\",\n",
            "  \"engine\": \"packed 24-byte DscState, gather/compute/scatter step_block ",
            "with within-chunk hazard scan, by-value responder for small one-way states ",
            "in the out-of-line in-place kernel, single-draw pair sampling, DSC transition inlined ",
            "with a quiet-pair shortcut (line 15 alone when both agents agree on max and lastMax ",
            "and neither a reset nor a backup GRV fires) and its reset/backup GRV out of line, ",
            "run-length estimate_stats scan\",\n",
            "  \"master_seed\": {},\n",
            "  \"fingerprint\": {},\n",
            "  \"points\": [\n{}\n  ],\n",
            "  \"de22_point\": {{\n",
            "    \"protocol\": \"De22Counting, plain stepping, in-place loop through pair_mut\",\n",
            "    \"state_bytes\": {},\n",
            "    \"n\": {},\n",
            "    \"plain_interactions_per_sec\": {:.1}\n",
            "  }},\n",
            "  \"count_point\": {{\n",
            "    \"protocol\": \"BoundedChvp({}), {} states, CountSimulator; one run from ",
            "each lemma start per round, alternated, medians of {} rounds\",\n",
            "    \"n\": {},\n",
            "    \"horizon_parallel_time\": {:.1},\n",
            "    \"lemma_4_3_ns_per_interaction\": {:.2},\n",
            "    \"lemma_4_4_ns_per_interaction\": {:.2}\n",
            "  }},\n",
            "  \"chunk_sweep_note\": \"plain stepping at 32/64/128 pairs per step_block ",
            "chunk in {} interleaved rounds of {} s each, rotating which size goes first; ",
            "medians and quartiles over the rounds, and the rounds c32 and c128 stepped ",
            "faster than the production CHUNK of 64\",\n",
            "  \"chunk_sweep\": [\n{}\n  ]\n",
            "}}\n"
        ),
        scale.seed,
        fingerprint(),
        lines.join(",\n"),
        de22_bytes,
        DE22_N,
        de22,
        CHVP_M,
        CHVP_M + 1,
        count_rounds,
        COUNT_N,
        count_horizon,
        count_43,
        count_44,
        chunk_rounds,
        chunk_budget,
        chunk_lines.join(",\n"),
    );
    // Smoke runs must not clobber the committed paper-scale record.
    let path = if scale.smoke {
        "BENCH_hotloop_smoke.json"
    } else {
        "BENCH_hotloop.json"
    };
    let mut f = std::fs::File::create(path).expect("create BENCH_hotloop json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_hotloop json");
    println!("wrote {path}");
}
