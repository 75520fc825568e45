//! What the benchmark measures outside the passes: the box fingerprint,
//! peak memory, and the two micro-timings the per-layer split of the
//! agent-array step rests on.

use crate::workloads::Fnv;
use dsc_core::DynamicSizeCounting;
use pp_model::{fill_random_ordered_pairs, Protocol};
use pp_sim::Simulator;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Repetitions of each micro-timing; the median is reported.
const REPS: usize = 7;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Median of `xs`; 0 for no samples.
pub fn median_of(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs.to_vec())
    }
}

/// Nanoseconds per pair drawn by `fill_random_ordered_pairs` at population
/// `n`, in the simulator's chunks of 64 pairs.
pub fn ns_per_pair(n: usize, seed: u64) -> f64 {
    const CHUNKS: usize = 1 << 15;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pairs = [(0usize, 0usize); 64];
    let samples = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CHUNKS {
                fill_random_ordered_pairs(n, &mut rng, &mut pairs);
                black_box(&pairs);
            }
            start.elapsed().as_nanos() as f64 / (CHUNKS * pairs.len()) as f64
        })
        .collect();
    median(samples)
}

/// Two distinct elements of `s`, mutably.
fn pair_mut<T>(s: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j, "an interaction needs two agents");
    if i < j {
        let (lo, hi) = s.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = s.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

/// Nanoseconds per `interact` call on the converged states of a 1024-agent
/// population (24 KB: cache-hot), over a fixed list of drawn pairs.
pub fn ns_per_interact(protocol: DynamicSizeCounting, seed: u64) -> f64 {
    const AGENTS: usize = 1 << 10;
    const ROUNDS: usize = 128;
    let mut sim = Simulator::with_seed(protocol, AGENTS, seed);
    sim.run_parallel_time(300.0);
    let mut states = sim.states().to_vec();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let mut pairs = vec![(0usize, 0usize); 4096];
    fill_random_ordered_pairs(AGENTS, &mut rng, &mut pairs);
    let samples = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..ROUNDS {
                for &(i, j) in &pairs {
                    let (u, v) = pair_mut(&mut states, i, j);
                    protocol.interact(u, v, &mut rng);
                }
            }
            black_box(&states);
            start.elapsed().as_nanos() as f64 / (ROUNDS * pairs.len()) as f64
        })
        .collect();
    median(samples)
}

/// Peak resident memory of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

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

/// The first line a command prints, or `"none"` when it cannot run.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "none".into())
}

/// Size of the CPU cache at `level` (data or unified), as the kernel
/// reports it for cpu0.
fn cache_size(level: &str) -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |dir: &Path, f: &str| {
        std::fs::read_to_string(dir.join(f))
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    };
    (0..8)
        .map(|i| base.join(format!("index{i}")))
        .find(|dir| read(dir, "level") == level && read(dir, "type") != "Instruction")
        .map_or_else(|| "unknown".into(), |dir| read(&dir, "size"))
}

/// FNV-1a-64 over every file under `dir`, in path order: identifies the
/// source revision where no git metadata exists.
fn tree_digest(dir: &Path) -> Option<u64> {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, files)?;
            } else {
                files.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(dir, &mut files).ok()?;
    files.sort();
    let mut fnv = Fnv::new();
    for f in files {
        fnv.write(f.to_string_lossy().as_bytes());
        fnv.write(&std::fs::read(&f).ok()?);
    }
    Some(fnv.finish())
}

/// The box fingerprint every result is stamped with, as a JSON object.
///
/// The git revision is read from `./.git` only, so a checkout without git
/// metadata reports `none` rather than an enclosing repository's revision.
pub fn fingerprint(seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let source =
        tree_digest(Path::new("crates")).map_or_else(|| "none".into(), |d| format!("{d:016x}"));
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"l2\": {}, \"l3\": {}, \"rustc\": {}, \
         \"git_revision\": {}, \"source_fnv\": {}, \"seed\": {seed}}}",
        json_str(&cpu),
        json_str(&cache_size("2")),
        json_str(&cache_size("3")),
        json_str(&first_line_of("rustc", &["-V"])),
        json_str(&first_line_of(
            "git",
            &["--git-dir=.git", "rev-parse", "HEAD"]
        )),
        json_str(&source),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_of(&[]), 0.0);
    }

    #[test]
    fn pair_mut_returns_both_orders() {
        let mut xs = [0, 1, 2, 3];
        let (a, b) = pair_mut(&mut xs, 3, 1);
        assert_eq!((*a, *b), (3, 1));
        let (a, b) = pair_mut(&mut xs, 0, 2);
        assert_eq!((*a, *b), (0, 2));
    }

    #[test]
    fn fingerprint_is_json_with_every_field() {
        let doc = crate::json::parse(&fingerprint(7)).expect("fingerprint is JSON");
        for key in [
            "nproc",
            "cpu_model",
            "l2",
            "l3",
            "rustc",
            "git_revision",
            "source_fnv",
        ] {
            doc.get(key);
        }
        assert_eq!(doc.get("seed").num(), 7.0);
    }
}
