//! Zero-allocation guarantee of the steady-state stepping engine.
//!
//! The gather/compute/scatter `step_block` pipeline and the inline payload
//! states were built so that steady-state stepping performs *no* heap
//! allocation: the pair buffer is on the stack, the gather scratch and the
//! hazard bitmap are preallocated in the simulator, and payload states
//! (averaged slots, DE22 timers) live inline in the agent array. The tests
//! below step plain DSC on both agent-array paths, the averaged protocol
//! on the gathered path, and DE22 on the in-place path, under a counting
//! global allocator — a regression here means a `Vec`/`Box` crept back
//! into a per-interaction path, which at 10⁷–10⁸ interactions per second
//! is a performance bug even before the allocator lock shows up in
//! profiles. The count backends' stepping and adversary events (uniform
//! removal, resize) are pinned the same way.
//!
//! The counting shim lives in this dedicated integration-test binary and
//! counts only allocations made by a thread that has *armed* it: libtest
//! runs this binary's tests on concurrent threads, and a process-wide
//! counter would charge one test's setup to another test's window. Each
//! measured window arms its own thread, so a window counts exactly the
//! allocations of the code it runs.

use dynamic_size_counting::dsc::{AveragedDsc, DscConfig, DynamicSizeCounting};
use dynamic_size_counting::protocols::{BoundedChvp, De22Counting, Infection};
use dynamic_size_counting::sim::batched_sim::EXACT_POPULATION_THRESHOLD;
use dynamic_size_counting::sim::count_sim::TICKET_CAP;
use dynamic_size_counting::sim::{BatchedCountSimulator, CountSimulator, JumpSimulator, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Delegates to the system allocator, counting allocation calls made by
/// armed threads.
struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocation calls this thread made while armed.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Bumps the calling thread's counter if it is armed. Both thread-locals
/// are const-initialized without destructors, so touching them never
/// allocates; `try_with` keeps allocations during thread teardown safe.
fn record_allocation() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    }
}

// SAFETY: defers entirely to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_allocation();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation calls the current thread makes during `f`.
fn allocations_during(f: &mut impl FnMut()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

/// Asserts `f` performs no heap allocation. The count is per thread, so
/// no other test can dirty the window and no tolerance is needed.
fn assert_allocation_free(label: &str, mut f: impl FnMut()) {
    let count = allocations_during(&mut f);
    assert_eq!(count, 0, "{label}: allocated {count} times");
}

/// 100 full chunks plus a ragged tail, through every pipeline path
/// (gathered prefix, hazard fallback, observer-free compute).
const STEPS: u64 = 64 * 100 + 17;

/// Small populations run the in-place sequential path (the agent array is
/// far below the ~2 MB gather threshold).
#[test]
fn steady_state_sequential_stepping_never_allocates() {
    // Plain DSC: the raw-stepping hot path of every benchmark.
    let mut sim = Simulator::with_seed(DynamicSizeCounting::new(DscConfig::empirical()), 500, 11);
    sim.run_parallel_time(30.0); // warm up: reach steady state
    assert_allocation_free("plain DSC step_block must not allocate per chunk", || {
        sim.step_n(STEPS)
    });

    // DE22: the timer list grows, shrinks and re-samples inside its
    // inline array, never on the heap.
    let mut sim = Simulator::with_seed(De22Counting::new(), 500, 13);
    sim.run_parallel_time(30.0);
    assert_allocation_free("DE22 step_block must not allocate per chunk", || {
        sim.step_n(STEPS)
    });
}

/// Populations whose array exceeds the gather threshold run the
/// gather/compute/scatter pipeline — the path behind every n ≥ 10⁵
/// benchmark number — which must be allocation-free too (preallocated
/// scratch and hazard bitmap only).
#[test]
fn steady_state_gathered_stepping_never_allocates() {
    // 100 000 × 24-byte DscState ≈ 2.4 MB: above the ~2 MB threshold.
    let mut sim = Simulator::with_seed(
        DynamicSizeCounting::new(DscConfig::empirical()),
        100_000,
        14,
    );
    sim.run_parallel_time(2.0); // enough to settle lazy init; alloc-freedom
                                // does not depend on protocol convergence
    assert_allocation_free(
        "gathered plain DSC step_block must not allocate per chunk",
        || sim.step_n(STEPS),
    );

    // The averaged protocol crosses the threshold at much smaller n
    // (≈ 288-byte states): exercises gathered copies of inline payloads,
    // and its resets refill slots with GRVs — still no heap.
    let mut sim = Simulator::with_seed(AveragedDsc::new(DscConfig::empirical(), 16), 10_000, 12);
    sim.run_parallel_time(5.0);
    assert_allocation_free(
        "gathered averaged step_block must not allocate per chunk",
        || sim.step_n(STEPS),
    );
}

#[test]
fn population_growth_is_the_only_allocating_event() {
    // Sanity check that the counter works at all: growing the population
    // must allocate (the agent array reallocates), steady stepping after
    // the growth must again be clean.
    let mut sim = Simulator::with_seed(DynamicSizeCounting::new(DscConfig::empirical()), 256, 14);
    sim.run_parallel_time(10.0);
    let grow = allocations_during(&mut || sim.resize_to(2_048));
    assert!(grow > 0, "resizing the agent array must allocate");
    sim.run_parallel_time(10.0);
    assert_allocation_free("steady stepping after growth must be clean", || {
        sim.step_n(STEPS)
    });
}

/// The lemmas' Lemma 4.4 start over CHVP's 401 states: one agent at 400,
/// the rest at 0.
fn lemma_4_4_start(n: u64) -> Vec<u64> {
    let mut counts = vec![0u64; 401];
    (counts[0], counts[400]) = (n - 1, 1);
    counts
}

/// Stepping the count backends is allocation-free: the count backend draws
/// through its ticket table up to the table's cap (refilled into capacity
/// reserved at construction) and through the count vector's scan over all
/// states above it, the batched backend's exact steps use that scan and its leap
/// planning and batch application reuse preallocated scratch, and the jump
/// backend keeps its pending event inline.
#[test]
fn count_backend_stepping_never_allocates() {
    // The lemmas' CHVP (401 states) below the ticket table's cap, above it
    // with every state occupied, and a two-state epidemic.
    let mut sim = CountSimulator::from_counts(BoundedChvp::new(400), lemma_4_4_start(1 << 14), 25);
    sim.step_n(10_000);
    assert_allocation_free("ticket-table count stepping must not allocate", || {
        sim.step_n(STEPS)
    });
    let counts: Vec<u64> = (0..401u64).map(|i| 1_000 + i).collect();
    assert!(counts.iter().sum::<u64>() > TICKET_CAP);
    let mut sim = CountSimulator::from_counts(BoundedChvp::new(400), counts, 19);
    sim.step_n(10_000);
    assert_allocation_free("401-state count stepping must not allocate", || {
        sim.step_n(STEPS)
    });
    let mut sim = CountSimulator::from_counts(Infection::new(), vec![99_000, 1_000], 20);
    sim.step_n(1_000);
    assert_allocation_free("two-state count stepping must not allocate", || {
        sim.step_n(STEPS)
    });

    // The batched backend below (exact steps) and above (tau-leaping
    // batches) its exact-stepping threshold.
    let n = EXACT_POPULATION_THRESHOLD;
    let mut sim = BatchedCountSimulator::from_counts(Infection::new(), vec![n - 64, 64], 21);
    sim.run_parallel_time(0.5);
    assert_allocation_free("exact batched stepping must not allocate", || {
        sim.run_parallel_time(2.0)
    });
    let n = 1u64 << 20;
    let mut sim = BatchedCountSimulator::from_counts(Infection::new(), vec![n - 1_024, 1_024], 22);
    sim.run_parallel_time(0.5);
    assert_allocation_free("tau-leaping batches must not allocate", || {
        sim.run_parallel_time(2.0)
    });

    // The jump backend, with events both applied and left pending at the
    // end of each span.
    let mut sim = JumpSimulator::from_counts(Infection::new(), vec![99_000, 1_000], 23);
    sim.run_parallel_time(0.5);
    assert_allocation_free("jump stepping must not allocate", || {
        sim.run_parallel_time(2.0)
    });
}

/// Adversary events on the count backends, jump included, are
/// allocation-free: uniform removal is one multivariate hypergeometric
/// draw applied in place, growth only bumps a counter, and the count
/// backend's next step refills its ticket table into the capacity reserved
/// at construction. Shrinks cover a small removal, a near-total crash, and
/// removing everyone.
#[test]
fn count_backend_adversary_events_never_allocate() {
    // CHVP below the ticket table's cap, stepping after each event so that
    // the table is refilled: a removal, a crash, growth up to the cap (past
    // any population the table held before) and back from empty to it.
    let n = TICKET_CAP / 4;
    let mut sim = CountSimulator::from_counts(BoundedChvp::new(400), lemma_4_4_start(n), 26);
    sim.step_n(10_000);
    assert_allocation_free("ticket-table adversary events must not allocate", || {
        sim.remove_uniform(n / 10);
        sim.step_n(STEPS);
        sim.resize_to(n / 100);
        sim.step_n(STEPS);
        sim.resize_to(TICKET_CAP);
        sim.step_n(STEPS);
        sim.resize_to(0);
        sim.resize_to(TICKET_CAP);
        sim.step_n(STEPS);
    });
    assert_eq!(sim.population(), TICKET_CAP);

    // 401 states, every one occupied.
    let chvp = BoundedChvp::new(400);
    let counts: Vec<u64> = (0..401u64).map(|i| 1_000 + i).collect();
    let n: u64 = counts.iter().sum();
    let mut sim = CountSimulator::from_counts(chvp, counts, 17);
    sim.step_n(10_000);
    assert_allocation_free("count-backend adversary events must not allocate", || {
        sim.remove_uniform(n / 10);
        sim.resize_to(n / 100);
        sim.resize_to(n);
        sim.resize_to(0);
        sim.resize_to(n);
    });
    assert_eq!(sim.population(), n);

    // The batched backend above its exact-stepping threshold.
    let n = 1u64 << 20;
    let mut sim = BatchedCountSimulator::from_counts(Infection::new(), vec![n / 2, n / 2], 18);
    sim.run_parallel_time(1.0);
    assert_allocation_free("batched-backend adversary events must not allocate", || {
        sim.remove_uniform(n / 10);
        sim.resize_to(n / 100);
        sim.resize_to(n);
        sim.resize_to(0);
        sim.resize_to(n);
    });
    assert_eq!(sim.population(), n);

    // The jump backend: each event drops its pending event and the next
    // span draws a new one.
    let mut sim = JumpSimulator::from_counts(Infection::new(), vec![n / 2, n / 2], 24);
    sim.run_parallel_time(1.0);
    assert_allocation_free("jump-backend adversary events must not allocate", || {
        sim.remove_uniform(n / 10);
        sim.run_parallel_time(0.5);
        sim.resize_to(n / 100);
        sim.resize_to(0);
        sim.run_parallel_time(0.5);
        sim.resize_to(n);
        sim.run_parallel_time(0.5);
    });
    assert_eq!(sim.population(), n);
}
