//! The traced replay: every grid re-executed on one thread through the
//! backends' public stepping, scan and adversary methods, with a span
//! around each call.
//!
//! The replay derives the same per-cell schedules and per-run seeds as
//! `Sweep` and runs the same drive loop (snapshot at t = 0, time-zero
//! events, then advance to the next snapshot/event boundary, apply due
//! events, snapshot on the grid), so its runs are the untraced runs: the
//! benchmark checks that their CSV digests and interaction totals match
//! exactly.

use crate::trace::{Layer, Tracer};
use crate::workloads::{Axis, Grid};
use pp_model::{DeterministicProtocol, FiniteProtocol, SizeEstimator};
use pp_sim::runner::run_seed;
use pp_sim::{
    AdversarySchedule, BatchedCountSimulator, CountSimulator, EstimateHistogram, EstimateSummary,
    JumpSimulator, PopulationEvent, RunResult, Simulator, Snapshot, SweepCell, SweepResults,
};
use std::time::Instant;

/// One cell of a grid with everything its runs need.
pub struct CellPlan {
    pub n: usize,
    pub label: String,
    pub schedule_index: usize,
    pub schedule: AdversarySchedule,
    pub horizon: f64,
    pub seeds: Vec<u64>,
}

/// Derives every cell's schedule and run seeds from `master` the way
/// `Sweep` does, and validates each schedule against its population.
///
/// # Errors
///
/// Reports a trace that does not compile or a schedule that does not fit.
pub fn plan<P>(grid: &Grid<P>, master: u64, allows_empty: bool) -> Result<Vec<CellPlan>, String> {
    let axes: Vec<(&str, Axis)> = if grid.schedules.is_empty() {
        vec![("static", Axis::Fixed(AdversarySchedule::new()))]
    } else {
        grid.schedules.clone()
    };
    let mut cells = Vec::with_capacity(grid.populations.len() * axes.len());
    for (pi, &n) in grid.populations.iter().enumerate() {
        for (si, (label, axis)) in axes.iter().enumerate() {
            let cell_seed = run_seed(master, pi * axes.len() + si);
            let schedule = match axis {
                Axis::Fixed(s) => s.clone(),
                Axis::Trace(t) => t
                    .compile(n as u64, run_seed(cell_seed, usize::MAX))
                    .map_err(|e| format!("{label} at n = {n}: {e}"))?,
            };
            schedule
                .validate_for(n as u64, allows_empty)
                .map_err(|e| format!("{label} at n = {n}: {e}"))?;
            cells.push(CellPlan {
                n,
                label: (*label).to_string(),
                schedule_index: si,
                schedule,
                horizon: (grid.horizon)(n),
                seeds: (0..grid.runs).map(|r| run_seed(cell_seed, r)).collect(),
            });
        }
    }
    Ok(cells)
}

/// Replays every run of `grid` with `run`, under a grid span and one run
/// span each.
fn replay_grid<P>(
    tr: &mut Tracer,
    grid: &Grid<P>,
    master: u64,
    allows_empty: bool,
    mut run: impl FnMut(&mut Tracer, &CellPlan, u64) -> RunResult,
) -> Result<SweepResults, String> {
    let start = Instant::now();
    let id = tr.enter(Layer::Grid, 0);
    let cells = match plan(grid, master, allows_empty) {
        Ok(cells) => cells,
        Err(e) => {
            tr.exit(id, 0);
            return Err(e);
        }
    };
    let mut out = Vec::with_capacity(cells.len());
    for cell in &cells {
        let runs = cell
            .seeds
            .iter()
            .map(|&seed| {
                let id = tr.enter(Layer::Run, cell.n as u64);
                let result = run(tr, cell, seed);
                tr.exit(id, 1);
                result
            })
            .collect();
        out.push(SweepCell {
            n: cell.n,
            schedule: cell.label.clone(),
            schedule_index: cell.schedule_index,
            runs,
        });
    }
    tr.exit(id, 0);
    Ok(SweepResults {
        master_seed: master,
        cells: out,
        wall: start.elapsed(),
        threads: 1,
    })
}

/// A simulator as the drive loop sees it.
trait Drive {
    fn time(&self) -> f64;
    fn advance(&mut self, tr: &mut Tracer, duration: f64);
    fn apply(&mut self, tr: &mut Tracer, event: PopulationEvent);
    fn snapshot(&self, tr: &mut Tracer) -> Snapshot;
}

/// The drive loop of `Sweep`'s backends, boundary for boundary.
fn drive<D: Drive>(
    sim: &mut D,
    tr: &mut Tracer,
    horizon: f64,
    every: f64,
    schedule: &AdversarySchedule,
) -> Vec<Snapshot> {
    let mut snapshots = Vec::with_capacity((horizon / every) as usize + 2);
    snapshots.push(sim.snapshot(tr));
    let mut next_event = 0usize;
    let due = |next: usize, now: f64| schedule.next_time(next).is_some_and(|t| t <= now);
    while due(next_event, 0.0) {
        sim.apply(tr, schedule.events()[next_event].event);
        next_event += 1;
    }
    let mut next_snapshot = every;
    while sim.time() < horizon {
        let event_time = schedule.next_time(next_event).unwrap_or(f64::INFINITY);
        let boundary = next_snapshot.min(event_time).min(horizon);
        let remaining = boundary - sim.time();
        if remaining > 0.0 {
            sim.advance(tr, remaining);
        }
        while due(next_event, sim.time()) {
            sim.apply(tr, schedule.events()[next_event].event);
            next_event += 1;
        }
        if sim.time() + 1e-12 >= next_snapshot {
            snapshots.push(sim.snapshot(tr));
            next_snapshot += every;
        }
    }
    snapshots
}

fn run_result(seed: u64, snapshots: Vec<Snapshot>, final_n: usize) -> RunResult {
    RunResult {
        seed,
        snapshots,
        ticks: Vec::new(),
        recovery: Vec::new(),
        final_n,
    }
}

struct Agent<'a, P: SizeEstimator>(&'a mut Simulator<P>);

impl<P: SizeEstimator> Drive for Agent<'_, P> {
    fn time(&self) -> f64 {
        self.0.parallel_time()
    }

    fn advance(&mut self, tr: &mut Tracer, duration: f64) {
        let sim = &mut *self.0;
        tr.leaf(Layer::Step, sim.population() as u64, || {
            let before = sim.interactions();
            sim.run_parallel_time(duration);
            ((), sim.interactions() - before)
        });
    }

    fn apply(&mut self, tr: &mut Tracer, event: PopulationEvent) {
        let sim = &mut *self.0;
        let before = sim.population();
        tr.leaf(Layer::Adversary, before as u64, || {
            match event {
                PopulationEvent::ResizeTo(target) => sim.resize_to(target),
                PopulationEvent::Add(count) => sim.add_agents(count),
                PopulationEvent::RemoveUniform(count) => sim.remove_uniform(count),
                PopulationEvent::RemoveLargestEstimates(count) => {
                    sim.remove_largest_estimates(count)
                }
            }
            ((), before.abs_diff(sim.population()) as u64)
        });
    }

    fn snapshot(&self, tr: &mut Tracer) -> Snapshot {
        let n = self.0.population();
        Snapshot {
            parallel_time: self.0.parallel_time(),
            interactions: self.0.interactions(),
            n,
            estimates: tr.leaf(Layer::Scan, n as u64, || {
                (self.0.estimate_stats(), n as u64)
            }),
            memory: None,
        }
    }
}

/// Replays an agent-array grid recorded with `ScannedEstimates`.
pub fn agent<P>(tr: &mut Tracer, grid: &Grid<P>, master: u64) -> Result<SweepResults, String>
where
    P: SizeEstimator + Clone,
{
    replay_grid(tr, grid, master, false, |tr, cell, seed| {
        let n = cell.n;
        let protocol = grid.protocol.clone();
        let mut sim = tr.leaf(Layer::Build, n as u64, || {
            (Simulator::with_seed(protocol, n, seed), n as u64)
        });
        let snapshots = drive(
            &mut Agent(&mut sim),
            tr,
            cell.horizon,
            grid.snapshot_every,
            &cell.schedule,
        );
        run_result(seed, snapshots, sim.population())
    })
}

/// Five-number estimate summary of a count vector, as the count backends
/// record it under `TrackedEstimates`.
fn summarize<P: FiniteProtocol + SizeEstimator>(
    protocol: &P,
    counts: &[u64],
) -> Option<EstimateSummary> {
    let mut hist = EstimateHistogram::new();
    for (idx, &c) in counts.iter().enumerate() {
        if c > 0 {
            hist.add_many(protocol.estimate_bucket(&protocol.state_from_index(idx)), c);
        }
    }
    hist.summary()
}

fn count_snapshot<P: FiniteProtocol + SizeEstimator>(
    tr: &mut Tracer,
    protocol: &P,
    counts: &[u64],
    parallel_time: f64,
    interactions: u64,
    n: u64,
) -> Snapshot {
    Snapshot {
        parallel_time,
        interactions,
        n: n as usize,
        estimates: tr.leaf(Layer::CountSummary, counts.len() as u64, || {
            (summarize(protocol, counts), 1)
        }),
        memory: None,
    }
}

/// The count backends' targeted removal: `(state, new count)` updates that
/// empty the highest-estimate states first (states without an estimate
/// sort lowest and go last).
fn remove_largest_plan<P: FiniteProtocol + SizeEstimator>(
    protocol: &P,
    counts: &[u64],
    count: u64,
) -> Vec<(usize, u64)> {
    let estimate = |i: usize| protocol.estimate_log2(&protocol.state_from_index(i));
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by(|&a, &b| {
        estimate(b)
            .partial_cmp(&estimate(a))
            .expect("non-NaN estimates")
    });
    let mut left = count;
    let mut updates = Vec::new();
    for idx in order {
        if left == 0 {
            break;
        }
        let take = counts[idx].min(left);
        if take > 0 {
            updates.push((idx, counts[idx] - take));
            left -= take;
        }
    }
    updates
}

fn initial_counts<P: FiniteProtocol>(grid: &Grid<P>, n: usize) -> Vec<u64> {
    match &grid.init_counts {
        Some(init) => init(n as u64),
        None => {
            let mut counts = vec![0u64; grid.protocol.num_states()];
            counts[grid.protocol.state_index(&grid.protocol.initial_state())] = n as u64;
            counts
        }
    }
}

struct Batched<'a, P: DeterministicProtocol>(&'a mut BatchedCountSimulator<P>);

impl<P: DeterministicProtocol + SizeEstimator + Clone> Drive for Batched<'_, P> {
    fn time(&self) -> f64 {
        self.0.parallel_time()
    }

    fn advance(&mut self, tr: &mut Tracer, duration: f64) {
        let sim = &mut *self.0;
        tr.leaf(Layer::Batched, sim.population(), || {
            let before = sim.interactions();
            sim.run_parallel_time(duration);
            ((), sim.interactions() - before)
        });
    }

    fn apply(&mut self, tr: &mut Tracer, event: PopulationEvent) {
        let sim = &mut *self.0;
        let before = sim.population();
        tr.leaf(Layer::Adversary, before, || {
            match event {
                PopulationEvent::ResizeTo(target) => sim.resize_to(target as u64),
                PopulationEvent::Add(count) => sim.add_agents(count as u64),
                PopulationEvent::RemoveUniform(count) => sim.remove_uniform(count as u64),
                PopulationEvent::RemoveLargestEstimates(count) => {
                    assert!(
                        count as u64 <= before,
                        "cannot remove {count} of {before} agents"
                    );
                    let protocol = sim.protocol().clone();
                    for (idx, c) in remove_largest_plan(&protocol, sim.counts(), count as u64) {
                        sim.set_count(idx, c);
                    }
                }
            }
            ((), before.abs_diff(sim.population()))
        });
    }

    fn snapshot(&self, tr: &mut Tracer) -> Snapshot {
        let sim = &*self.0;
        count_snapshot(
            tr,
            sim.protocol(),
            sim.counts(),
            sim.parallel_time(),
            sim.interactions(),
            sim.population(),
        )
    }
}

/// Replays a batched-count grid recorded with `TrackedEstimates`.
pub fn batched<P>(tr: &mut Tracer, grid: &Grid<P>, master: u64) -> Result<SweepResults, String>
where
    P: DeterministicProtocol + SizeEstimator + Clone,
{
    replay_grid(tr, grid, master, true, |tr, cell, seed| {
        let counts = initial_counts(grid, cell.n);
        let protocol = grid.protocol.clone();
        let mut sim = tr.leaf(Layer::Build, cell.n as u64, || {
            (
                BatchedCountSimulator::from_counts(protocol, counts, seed),
                cell.n as u64,
            )
        });
        let snapshots = drive(
            &mut Batched(&mut sim),
            tr,
            cell.horizon,
            grid.snapshot_every,
            &cell.schedule,
        );
        run_result(seed, snapshots, sim.population() as usize)
    })
}

struct Counted<'a, P: FiniteProtocol>(&'a mut CountSimulator<P>);

impl<P: FiniteProtocol + SizeEstimator> Drive for Counted<'_, P> {
    fn time(&self) -> f64 {
        self.0.parallel_time()
    }

    fn advance(&mut self, tr: &mut Tracer, duration: f64) {
        let sim = &mut *self.0;
        tr.leaf(Layer::Count, sim.population(), || {
            let before = sim.interactions();
            sim.run_parallel_time(duration);
            ((), sim.interactions() - before)
        });
    }

    fn apply(&mut self, _tr: &mut Tracer, _event: PopulationEvent) {
        unreachable!("the benchmark's count-backend grids are static");
    }

    fn snapshot(&self, tr: &mut Tracer) -> Snapshot {
        let sim = &*self.0;
        count_snapshot(
            tr,
            sim.protocol(),
            sim.counts(),
            sim.parallel_time(),
            sim.interactions(),
            sim.population(),
        )
    }
}

/// Replays a count-backend grid recorded with `TrackedEstimates`.
pub fn count<P>(tr: &mut Tracer, grid: &Grid<P>, master: u64) -> Result<SweepResults, String>
where
    P: FiniteProtocol + SizeEstimator + Clone,
{
    if grid
        .schedules
        .iter()
        .any(|(_, a)| !matches!(a, Axis::Fixed(s) if s.is_empty()))
    {
        return Err("the count-backend replay takes static grids only".into());
    }
    replay_grid(tr, grid, master, true, |tr, cell, seed| {
        let counts = initial_counts(grid, cell.n);
        let protocol = grid.protocol.clone();
        let mut sim = tr.leaf(Layer::Build, cell.n as u64, || {
            (
                CountSimulator::from_counts(protocol, counts, seed),
                cell.n as u64,
            )
        });
        let snapshots = drive(
            &mut Counted(&mut sim),
            tr,
            cell.horizon,
            grid.snapshot_every,
            &cell.schedule,
        );
        run_result(seed, snapshots, sim.population() as usize)
    })
}

/// Replays a jump-backend grid recorded with `TrackedEstimates`: the jump
/// backend's own loop, one span per snapshot interval of events.
pub fn jump<P>(tr: &mut Tracer, grid: &Grid<P>, master: u64) -> Result<SweepResults, String>
where
    P: DeterministicProtocol + SizeEstimator + Clone,
{
    if !grid.schedules.is_empty() {
        return Err("the jump backend takes static grids only".into());
    }
    let every = grid.snapshot_every;
    replay_grid(tr, grid, master, true, |tr, cell, seed| {
        let n = cell.n as u64;
        let horizon = cell.horizon;
        let counts = initial_counts(grid, cell.n);
        let protocol = grid.protocol.clone();
        let mut sim = tr.leaf(Layer::Build, n, || {
            (JumpSimulator::from_counts(protocol, counts, seed), n)
        });
        let mut snapshots = Vec::with_capacity((horizon / every) as usize + 2);
        snapshots.push(count_snapshot(tr, sim.protocol(), sim.counts(), 0.0, 0, n));
        let mut next_snapshot = every;
        let mut span = tr.enter(Layer::Jump, n);
        let mut events = 0u64;
        while sim.parallel_time() < horizon {
            let before = sim.counts().to_vec();
            let advanced = sim.step_event();
            events += u64::from(advanced);
            let now = if advanced {
                sim.parallel_time()
            } else {
                horizon
            };
            if next_snapshot <= now.min(horizon) + 1e-12 {
                tr.exit(span, events);
                events = 0;
                while next_snapshot <= now.min(horizon) + 1e-12 {
                    let implied = (next_snapshot * n as f64).round() as u64;
                    snapshots.push(count_snapshot(
                        tr,
                        sim.protocol(),
                        &before,
                        next_snapshot,
                        implied,
                        n,
                    ));
                    next_snapshot += every;
                }
                span = tr.enter(Layer::Jump, n);
            }
            if !advanced {
                break;
            }
        }
        tr.exit(span, events);
        tr.jump_interactions += sim.interactions();
        run_result(seed, snapshots, n as usize)
    })
}
