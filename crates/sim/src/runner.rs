//! Parallel execution of independent runs.
//!
//! The paper generates each data point from 96 independent simulation runs
//! (§5). Runs share nothing, so they parallelize perfectly; [`parallel_map`]
//! fans run indices out to a bounded pool of OS threads via an atomic work
//! counter (work stealing, no per-run thread spawn).

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(0), f(1), …, f(count - 1)` on up to `threads` OS threads and
/// returns the results in index order.
///
/// `threads = 0` selects the machine's available parallelism. Results are
/// deterministic in content and order (each index computes independently);
/// only the execution interleaving varies.
///
/// # Panics
///
/// Panics if any invocation of `f` panics (the panic is propagated).
///
/// # Examples
///
/// ```
/// let squares = pp_sim::parallel_map(8, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn parallel_map<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let threads = threads.min(count).max(1);
    if threads <= 1 {
        return (0..count).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let value = f(i);
                results.lock()[i] = Some(value);
            });
        }
    });
    results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("every index was processed"))
        .collect()
}

/// Derives a per-run seed from a master seed.
///
/// Uses the SplitMix64 finalizer so neighboring run indices receive
/// decorrelated seeds (the paper seeds each run independently from a
/// non-deterministic source; we keep determinism by deriving from a master).
pub fn run_seed(master: u64, run: usize) -> u64 {
    // Wrapping so the sentinel index usize::MAX (used for scenario-trace
    // compilation seeds) folds to gamma multiplier 0 — a value no real run
    // index (r + 1 ≥ 1) can reach — instead of overflowing.
    mix64(master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul((run as u64).wrapping_add(1))))
}

/// The SplitMix64 finalizer: a bijective avalanche mix.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let out = parallel_map(100, 8, |i| i + 1);
        assert_eq!(out, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_uses_available_parallelism() {
        let out = parallel_map(10, 0, |i| i * 2);
        assert_eq!(out.len(), 10);
        assert_eq!(out[9], 18);
    }

    #[test]
    fn single_item_runs_inline() {
        let out = parallel_map(1, 16, |i| i);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = parallel_map(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn seeds_are_distinct_and_deterministic() {
        let a: Vec<u64> = (0..64).map(|i| run_seed(42, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| run_seed(42, i)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 64, "derived seeds must not collide");
        let c = run_seed(43, 0);
        assert_ne!(a[0], c, "different master seeds diverge");
    }

    #[test]
    fn heavy_work_parallelizes_correctly() {
        // Correctness under contention: many tasks, few threads.
        let out = parallel_map(1_000, 3, |i| {
            let mut acc = 0u64;
            for x in 0..(i as u64 % 97) {
                acc = acc.wrapping_add(x * x);
            }
            acc
        });
        let expected: Vec<u64> = (0..1_000)
            .map(|i| {
                let mut acc = 0u64;
                for x in 0..(i as u64 % 97) {
                    acc = acc.wrapping_add(x * x);
                }
                acc
            })
            .collect();
        assert_eq!(out, expected);
    }
}
