//! Golden traces: the first 64 interactions of a seeded DSC run on the
//! agent array, pinned pair-by-pair and field-by-field, and the snapshot
//! rows of seeded cells on the count backends (count, batched-count above
//! its exact threshold, and jump both static and under churn), pinned by
//! row count and digest.
//!
//! The hot loop has been rewritten for speed more than once (single-draw
//! pair sampling, chunked RNG batching, monomorphized transitions); this
//! test guarantees such work can never *silently* change trajectory
//! semantics again. If an engine change is MEANT to alter the trace — a
//! different draw scheme, a different word interleaving, a re-seed — update
//! the constants below by running
//! `cargo test --test golden_trace print_trace -- --ignored --nocapture`
//! (or `print_count_pins` for the count-backend rows; `--ignored` is
//! required: the generators are skipped in normal runs) and leave a comment
//! in the commit explaining why the trajectory legitimately moved.
//! An *unintentional* diff here is a bug: bit-identical replay of recorded
//! experiments is part of the reproduction's contract.

use dynamic_size_counting::dsc::{DscState, DynamicSizeCounting};
use dynamic_size_counting::protocols::BoundedChvp;
use dynamic_size_counting::sim::observer::Observer;
use dynamic_size_counting::sim::{
    AdversarySchedule, Backend, BatchedCountSimulator, CellSpec, CountSimulator, JumpSimulator,
    PopulationEvent, ScannedEstimates, Simulator, Snapshot,
};

const SEED: u64 = 0xD5C0_2024;
const N: usize = 64;
const STEPS: usize = 64;

/// One recorded interaction: pair indices + the initiator's post-state
/// (the protocol is one-way; the responder never changes).
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Entry {
    u: u32,
    v: u32,
    max: u64,
    last_max: u64,
    time: i64,
    interactions: u64,
}

#[derive(Default)]
struct Recorder {
    entries: Vec<Entry>,
}

impl Observer<DynamicSizeCounting> for Recorder {
    fn pre_interact(
        &mut self,
        _: &DynamicSizeCounting,
        _: &DscState,
        _: &DscState,
        _: usize,
        _: usize,
        _: u64,
    ) {
    }
    fn post_interact(
        &mut self,
        _: &DynamicSizeCounting,
        u: &DscState,
        _v: &DscState,
        ui: usize,
        vi: usize,
        _: u64,
    ) {
        self.entries.push(Entry {
            u: ui as u32,
            v: vi as u32,
            max: u64::from(u.max),
            last_max: u64::from(u.last_max),
            time: u.time,
            interactions: u64::from(u.interactions),
        });
    }
    fn agent_added(&mut self, _: &DynamicSizeCounting, _: &DscState) {}
    fn agent_removed(&mut self, _: &DynamicSizeCounting, _: &DscState) {}
}

fn record() -> Vec<Entry> {
    let mut sim = Simulator::with_observer(pp_bench_protocol(), N, SEED, Recorder::default());
    sim.step_n(STEPS as u64);
    sim.into_parts().1.entries
}

fn pp_bench_protocol() -> DynamicSizeCounting {
    DynamicSizeCounting::new(dynamic_size_counting::dsc::DscConfig::empirical())
}

/// Prints the current trace in `GOLDEN` source form (run with
/// `cargo test --test golden_trace print_trace -- --ignored --nocapture`
/// to regenerate the constants after an intentional engine change).
#[test]
#[ignore = "generator, not a check: prints the GOLDEN constant source"]
fn print_trace() {
    for e in record() {
        println!(
            "    ({}, {}, {}, {}, {}, {}),",
            e.u, e.v, e.max, e.last_max, e.time, e.interactions
        );
    }
}

/// `(u, v, max, lastMax, time, interactions)` after each of the first 64
/// interactions of the seeded run. Regenerate via `print_trace` — only for
/// an *intentional* engine change (see module docs).
const GOLDEN: [(u32, u32, u64, u64, i64, u64); STEPS] = [
    (55, 35, 1, 1, 5, 1),
    (5, 25, 1, 1, 5, 1),
    (42, 15, 1, 1, 5, 1),
    (7, 10, 1, 1, 5, 1),
    (62, 36, 1, 1, 5, 1),
    (53, 62, 1, 1, 5, 1),
    (51, 61, 1, 1, 5, 1),
    (42, 4, 1, 1, 5, 2),
    (28, 49, 1, 1, 5, 1),
    (16, 32, 1, 1, 5, 1),
    (58, 20, 1, 1, 5, 1),
    (19, 59, 1, 1, 5, 1),
    (62, 37, 1, 1, 5, 2),
    (40, 34, 1, 1, 5, 1),
    (11, 40, 1, 1, 5, 1),
    (31, 51, 1, 1, 5, 1),
    (17, 46, 1, 1, 5, 1),
    (13, 55, 1, 1, 5, 1),
    (42, 41, 1, 1, 5, 3),
    (17, 27, 1, 1, 5, 2),
    (24, 61, 1, 1, 5, 1),
    (55, 16, 1, 1, 4, 2),
    (52, 29, 1, 1, 5, 1),
    (18, 9, 1, 1, 5, 1),
    (47, 4, 1, 1, 5, 1),
    (17, 4, 1, 1, 5, 3),
    (7, 23, 1, 1, 5, 2),
    (61, 7, 1, 1, 5, 1),
    (63, 15, 1, 1, 5, 1),
    (26, 17, 1, 1, 5, 1),
    (36, 5, 1, 1, 5, 1),
    (61, 45, 1, 1, 5, 2),
    (56, 59, 1, 1, 5, 1),
    (30, 56, 1, 1, 5, 1),
    (42, 24, 1, 1, 4, 4),
    (18, 32, 1, 1, 5, 2),
    (8, 44, 1, 1, 5, 1),
    (48, 39, 1, 1, 5, 1),
    (11, 38, 1, 1, 5, 2),
    (47, 1, 1, 1, 5, 2),
    (20, 39, 1, 1, 5, 1),
    (55, 42, 1, 1, 3, 3),
    (21, 24, 1, 1, 5, 1),
    (20, 42, 1, 1, 4, 2),
    (12, 38, 1, 1, 5, 1),
    (28, 34, 1, 1, 5, 2),
    (58, 4, 1, 1, 5, 2),
    (22, 34, 1, 1, 5, 1),
    (26, 42, 1, 1, 4, 2),
    (59, 52, 1, 1, 5, 1),
    (49, 60, 1, 1, 5, 1),
    (29, 54, 1, 1, 5, 1),
    (8, 4, 1, 1, 5, 2),
    (43, 62, 1, 1, 5, 1),
    (60, 38, 1, 1, 5, 1),
    (40, 60, 1, 1, 4, 2),
    (58, 37, 1, 1, 5, 3),
    (29, 59, 1, 1, 4, 2),
    (54, 44, 1, 1, 5, 1),
    (23, 55, 1, 1, 5, 1),
    (45, 12, 1, 1, 5, 1),
    (25, 35, 1, 1, 5, 1),
    (60, 19, 1, 1, 4, 2),
    (47, 16, 1, 1, 4, 3),
];

#[test]
fn first_64_interactions_are_pinned() {
    let actual = record();
    assert_eq!(actual.len(), STEPS);
    for (k, (e, g)) in actual.iter().zip(GOLDEN.iter()).enumerate() {
        let g = Entry {
            u: g.0,
            v: g.1,
            max: g.2,
            last_max: g.3,
            time: g.4,
            interactions: g.5,
        };
        assert_eq!(*e, g, "trace diverged at interaction {k}");
    }
}

/// Countdown start of the count-backend cells: one agent starts at the top,
/// the rest at `CHVP_LOW`, so the maximum spreads while everyone counts down
/// and every row's estimate summary moves.
const CHVP_START: u32 = 48;
const CHVP_LOW: usize = 12;

/// Churn whose events straddle the unit snapshot grid: one at t = 0 (fired
/// before the first step), one between grid points, and one exactly on a
/// grid point, plus a resize on a later grid point.
fn straddling_schedule(n: usize) -> AdversarySchedule {
    AdversarySchedule::new()
        .at(0.0, PopulationEvent::Add(n / 20))
        .at(2.5, PopulationEvent::RemoveUniform(n / 5))
        .at(4.0, PopulationEvent::RemoveLargestEstimates(n / 10))
        .at(7.0, PopulationEvent::ResizeTo(n))
}

fn chvp_cell(n: usize, seed: u64, schedule: &AdversarySchedule) -> CellSpec<'_, u32> {
    let mut counts = vec![0u64; CHVP_START as usize + 1];
    counts[CHVP_LOW] = n as u64 - 1;
    counts[CHVP_START as usize] = 1;
    CellSpec {
        n,
        seed,
        horizon: 12.0,
        snapshot_every: 1.0,
        schedule,
        init_agents: None,
        init_counts: Some(counts),
        interaction_budget: None,
    }
}

/// The rows of the seeded count-backend cells, in `COUNT_PINS` order.
/// The batched cell sits far above `EXACT_POPULATION_THRESHOLD` (4096), so
/// it runs the tau-leaping path. Jump runs twice: on a static schedule,
/// and under the straddling churn, which pins its rebase of the
/// interaction count and its dropped pending event at each kind of
/// population change.
fn count_backend_rows() -> Vec<(&'static str, Vec<Snapshot>)> {
    let p = BoundedChvp::new(CHVP_START);
    let count_churn = straddling_schedule(2_000);
    let batched_churn = straddling_schedule(50_000);
    let none = AdversarySchedule::new();
    let count = CountSimulator::run_cell(p, &chvp_cell(2_000, 7, &count_churn), &ScannedEstimates);
    let batched = BatchedCountSimulator::run_cell(
        p,
        &chvp_cell(50_000, 11, &batched_churn),
        &ScannedEstimates,
    );
    let jump = JumpSimulator::run_cell(p, &chvp_cell(2_000, 13, &none), &ScannedEstimates);
    let jump_churn =
        JumpSimulator::run_cell(p, &chvp_cell(2_000, 17, &count_churn), &ScannedEstimates);
    [
        (CountSimulator::<BoundedChvp>::NAME, count),
        (BatchedCountSimulator::<BoundedChvp>::NAME, batched),
        (JumpSimulator::<BoundedChvp>::NAME, jump),
        (JumpSimulator::<BoundedChvp>::NAME, jump_churn),
    ]
    .into_iter()
    .map(|(backend, r)| (backend, r.expect("pinned cells are valid").snapshots))
    .collect()
}

/// FNV-1a-64 over the `{:?}` text of every row in order: `f64`'s `Debug`
/// prints the shortest text that round-trips, so equal digests mean
/// bit-equal rows.
fn rows_digest(rows: &[Snapshot]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for row in rows {
        for b in format!("{row:?}").bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Prints the current count-backend pins in `COUNT_PINS` source form (run
/// with `cargo test --test golden_trace print_count_pins -- --ignored
/// --nocapture`, only after an intentional engine change).
#[test]
#[ignore = "generator, not a check: prints the COUNT_PINS constant source"]
fn print_count_pins() {
    for (backend, rows) in count_backend_rows() {
        println!(
            "    (\"{backend}\", {}, 0x{:016x}),",
            rows.len(),
            rows_digest(&rows)
        );
    }
}

/// `(backend, rows, FNV-1a-64 of the rows' Debug text)` for the seeded
/// cells of `count_backend_rows`. Regenerate via `print_count_pins` — only
/// for an *intentional* engine change (see module docs).
const COUNT_PINS: [(&str, usize, u64); 4] = [
    ("count", 13, 0x2299c31d8d99a0a9),
    ("batched-count", 13, 0x8a1e21bdd726ea1f),
    ("jump", 13, 0xbfc20cc08828a172),
    ("jump", 13, 0x28786eff2955ddd2),
];

#[test]
fn count_backend_rows_are_pinned() {
    let cells = count_backend_rows();
    assert_eq!(cells.len(), COUNT_PINS.len(), "one pin per cell");
    for ((backend, rows), (pinned, len, digest)) in cells.iter().zip(COUNT_PINS) {
        assert_eq!(*backend, pinned);
        assert_eq!(rows.len(), len, "{backend}: row count moved");
        assert_eq!(
            rows_digest(rows),
            digest,
            "{backend}: rows diverged from the pinned trajectory"
        );
    }
}
