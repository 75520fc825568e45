//! The repository benchmark: two fixed workloads of the paper's
//! simulations, timed end to end, and a traced replay that splits their
//! time by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figs_quick --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` times the workload's set-up
//! in fresh processes of this program (`--setup-only`), then runs passes on
//! two threads for at least `--seconds` seconds (and at least two passes)
//! and reports the end-to-end metrics. `--trace 1` runs one untraced pass
//! on two threads and one on one thread, then replays the pass on one
//! thread with spans around every layer call, and reports the per-layer
//! metrics. Either way the last line of standard output is the result
//! object; CSV files, spans and a fingerprinted copy of the result go under
//! `.bench_out/<workload>/`.

#[cfg(test)]
mod json;
mod metrics;
mod probe;
mod replay;
mod trace;
mod workloads;

use metrics::{ratio, report, result_line, END_TO_END, PER_LAYER, STEP_POPULATIONS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Layer, Tracer};
use workloads::{run_pass, Exec, PassOutcome, Plan, Workload};

/// Worker threads of the untraced passes (the benchmark box has two cores).
const THREADS: usize = 2;
/// Fresh processes whose set-up an untraced run times; `setup_s` is their
/// median. Set-up takes microseconds to milliseconds, and a single process
/// can be 1.5x off for its whole life, so the samples must span processes.
const SETUP_PROCESSES: usize = 11;
/// Fewest untraced passes per run, so every run compares two CSV digests.
const MIN_PASSES: usize = 2;

const USAGE: &str = "usage: perfbench --workload <figs_quick|churn_counts> --seed <n> \
     (--seconds <s> --trace <0|1> | --setup-only)";

/// What a process does.
#[derive(Debug, PartialEq)]
enum Mode {
    /// Measure passes for `seconds` and report the end-to-end metrics.
    Untraced { seconds: u64 },
    /// Run the traced replay and report the per-layer metrics.
    Traced,
    /// Set up, print the time since process start, and exit.
    SetupOnly,
}

struct Args {
    workload: Workload,
    seed: u64,
    mode: Mode,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let mode = if setup_only {
        Mode::SetupOnly
    } else if trace.ok_or("--trace is required")? {
        Mode::Traced
    } else {
        Mode::Untraced {
            seconds: seconds.ok_or("--seconds is required")?,
        }
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        mode,
    })
}

fn main() {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = Path::new(".bench_out").join(args.workload.name());
    let run = match args.mode {
        Mode::Untraced { seconds } => untraced(&args, seconds, &out),
        Mode::Traced => traced(&args, &out),
        Mode::SetupOnly => {
            workloads::setup(args.workload, args.seed).map(|_| secs(start.elapsed()).to_string())
        }
    };
    match run {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn print_pass(tag: &str, o: &PassOutcome) {
    println!(
        "{tag}: wall {:.3} s, {} interactions, {} runs, {} failed, csv {:016x} ({} rows)",
        secs(o.wall),
        o.interactions,
        o.attempted,
        o.failed,
        o.digest,
        o.rows
    );
    for problem in &o.problems {
        println!("  failed: {problem}");
    }
}

/// Runs of `passes` whose CSV digest differs from the first pass's.
fn digest_mismatches(passes: &[&PassOutcome]) -> u64 {
    passes
        .iter()
        .filter(|p| p.digest != passes[0].digest)
        .map(|p| {
            println!(
                "  failed: CSV digest {:016x} != {:016x}",
                p.digest, passes[0].digest
            );
            p.attempted
        })
        .sum()
}

/// Prints the fingerprint, saves the result with it, and returns the result
/// line.
fn finish(
    out: &Path,
    file: &str,
    seed: u64,
    attempted: u64,
    failed: u64,
    metrics: &[(metrics::Metric, f64)],
) -> Result<String, String> {
    let fingerprint = probe::fingerprint(seed);
    let line = result_line(failed == 0, attempted, failed, metrics);
    println!(
        "failed_runs_frac {}",
        ratio(failed as f64, attempted as f64)
    );
    println!("fingerprint {fingerprint}");
    let saved = format!("{{\"fingerprint\": {fingerprint}, \"result\": {line}}}\n");
    let path = out.join(file);
    std::fs::write(&path, saved).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(line)
}

/// The set-up time of one fresh process of this program, from its start
/// until its first pass would begin.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("timing set-up in a child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last().map(str::parse::<f64>) {
        Some(Ok(seconds)) if output.status.success() => Ok(seconds),
        _ => Err(format!(
            "set-up child failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )),
    }
}

fn untraced(args: &Args, seconds: u64, out: &Path) -> Result<String, String> {
    let setups = (0..SETUP_PROCESSES)
        .map(|_| setup_in_child(args))
        .collect::<Result<Vec<f64>, String>>()?;
    let fastest = setups.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "set-up: median {:.6} s, fastest {fastest:.6} s over {SETUP_PROCESSES} processes",
        probe::median_of(&setups)
    );
    let plan = workloads::setup(args.workload, args.seed)?;

    let dir = out.join("threads2");
    let budget = Duration::from_secs(seconds);
    let measuring = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || measuring.elapsed() < budget {
        let o = run_pass(&plan, Exec::Sweep { threads: THREADS }, args.seed, &dir);
        print_pass(&format!("pass {}", passes.len()), &o);
        passes.push(o);
    }

    let walls: Vec<f64> = passes.iter().map(|p| secs(p.wall)).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.interactions as f64 / secs(p.wall))
        .collect();
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(|p| p.failed).sum::<u64>()
        + digest_mismatches(&passes.iter().collect::<Vec<_>>());
    let values: BTreeMap<String, f64> = [
        ("wall_s", probe::median_of(&walls)),
        ("interactions_per_s", probe::median_of(&rates)),
        ("setup_s", probe::median_of(&setups)),
        (
            "peak_rss_mb",
            probe::peak_rss_mb().ok_or("VmHWM unreadable")?,
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let metrics = report(END_TO_END, &values)?;
    finish(
        out,
        "result.json",
        args.seed,
        attempted,
        failed.min(attempted),
        &metrics,
    )
}

fn traced(args: &Args, out: &Path) -> Result<String, String> {
    let plan = workloads::setup(args.workload, args.seed)?;
    let two = run_pass(
        &plan,
        Exec::Sweep { threads: THREADS },
        args.seed,
        &out.join("threads2"),
    );
    print_pass("untraced, 2 threads", &two);
    let one = run_pass(
        &plan,
        Exec::Sweep { threads: 1 },
        args.seed,
        &out.join("threads1"),
    );
    print_pass("untraced, 1 thread", &one);
    let mut tracer = Tracer::new();
    let replayed = run_pass(
        &plan,
        Exec::Replay(&mut tracer),
        args.seed,
        &out.join("traced"),
    );
    print_pass("traced, 1 thread", &replayed);

    let attempted = two.attempted + one.attempted + replayed.attempted;
    let mut failed =
        two.failed + one.failed + replayed.failed + digest_mismatches(&[&two, &one, &replayed]);
    if replayed.interactions != two.interactions {
        println!(
            "  failed: the replay simulated {} interactions, the sweep {}",
            replayed.interactions, two.interactions
        );
        failed += replayed.attempted;
    }

    let spans_path: PathBuf = out.join("trace_spans.tsv");
    tracer
        .write(&spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    let values = layer_values(&plan, args.seed, &tracer, &two, &one, &replayed);
    let metrics = report(PER_LAYER, &values)?;
    finish(
        out,
        "result_trace.json",
        args.seed,
        attempted,
        failed.min(attempted),
        &metrics,
    )
}

/// Every per-layer metric, from the replay's spans, the micro-timings, and
/// the untraced passes; 0 where the workload does not run the layer.
fn layer_values(
    plan: &Plan,
    seed: u64,
    tracer: &Tracer,
    two: &PassOutcome,
    one: &PassOutcome,
    replayed: &PassOutcome,
) -> BTreeMap<String, f64> {
    let spans = tracer.spans();
    let totals = trace::totals(spans);
    let get = |layer| totals.get(&layer).copied().unwrap_or_default();
    let (step, scan, adversary) = (get(Layer::Step), get(Layer::Scan), get(Layer::Adversary));
    let (batched, count, jump) = (get(Layer::Batched), get(Layer::Count), get(Layer::Jump));
    let (runs, analysis, pass) = (get(Layer::Run), get(Layer::Analysis), get(Layer::Pass));
    let s = |ns: u64| ns as f64 / 1e9;
    let per = |ns: u64, work: u64| ratio(ns as f64, work as f64);

    let step_ns = per(step.ns, step.work);
    let (pair_ns, interact_ns) = match plan.largest_agent_population() {
        Some(n) => (
            probe::ns_per_pair(n, seed),
            probe::ns_per_interact(workloads::paper_protocol(), seed),
        ),
        None => (0.0, 0.0),
    };
    let memory_ns = if step.work > 0 {
        step_ns - pair_ns - interact_ns
    } else {
        0.0
    };
    let layer_self_ns: u64 = totals
        .iter()
        .filter(|(layer, _)| !layer.is_glue())
        .map(|(_, t)| t.self_ns)
        .sum();

    let mut v: BTreeMap<String, f64> = [
        ("simulator.interactions", step.work as f64),
        ("simulator.step_s", s(step.ns)),
        ("simulator.ns_per_interaction", step_ns),
        ("simulator.memory_ns", memory_ns),
        ("scheduler.ns_per_pair", pair_ns),
        ("dsc_core.ns_per_interact", interact_ns),
        ("snapshot.scans", scan.spans as f64),
        ("snapshot.scan_s", s(scan.ns)),
        ("snapshot.ns_per_agent", per(scan.ns, scan.n)),
        ("adversary.events", adversary.spans as f64),
        ("adversary.agents_changed", adversary.work as f64),
        ("adversary.event_s", s(adversary.ns)),
        ("batched.interactions", batched.work as f64),
        ("batched.step_s", s(batched.ns)),
        ("batched.ns_per_interaction", per(batched.ns, batched.work)),
        ("count.interactions", count.work as f64),
        ("count.step_s", s(count.ns)),
        ("count.ns_per_interaction", per(count.ns, count.work)),
        ("jump.events", jump.work as f64),
        (
            "jump.interactions_per_event",
            ratio(tracer.jump_interactions as f64, jump.work as f64),
        ),
        ("jump.ns_per_event", per(jump.ns, jump.work)),
        ("jump.step_s", s(jump.ns)),
        ("sweep.runs", runs.spans as f64),
        ("sweep.busy_s", s(runs.ns)),
        (
            "sweep.parallel_eff",
            ratio(s(runs.ns), THREADS as f64 * secs(two.sweep_wall)),
        ),
        ("analysis.rows", replayed.rows as f64),
        ("analysis.csv_bytes", replayed.csv_bytes as f64),
        ("analysis.csv_s", s(analysis.ns)),
        ("trace.coverage", per(layer_self_ns, pass.ns)),
        ("trace.overhead", ratio(secs(replayed.wall), secs(one.wall))),
    ]
    .into_iter()
    .map(|(k, x)| (k.to_string(), x))
    .collect();
    let by_n = trace::step_by_population(spans);
    for n in STEP_POPULATIONS {
        let (ns, work) = by_n.get(&n).copied().unwrap_or_default();
        v.insert(metrics::step_metric(n), per(ns, work));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload churn_counts --seed 42 --seconds 20 --trace 0").expect("valid");
        assert_eq!((a.workload, a.seed), (Workload::ChurnCounts, 42));
        assert_eq!(a.mode, Mode::Untraced { seconds: 20 });
        let a = args("--workload figs_quick --seed 1 --seconds 20 --trace 1").expect("valid");
        assert_eq!(a.mode, Mode::Traced);
        let a = args("--workload figs_quick --seed 1 --setup-only").expect("valid");
        assert_eq!(a.mode, Mode::SetupOnly);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload figs_quick --seed 1 --seconds 1 --trace 2",
            "--workload figs_quick --seed x --seconds 1 --trace 0",
            "--workload figs_quick --seconds 1 --trace 0",
            "--workload figs_quick --seed 1 --trace 0",
            "--workload figs_quick --seed 1 --seconds 1 --trace",
            "--bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
