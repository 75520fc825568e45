//! E14: fault injection and recovery against the loose-stabilization bound.
//!
//! Loose stabilization (the paper's §2 model, after Doty & Eftekhari,
//! arXiv 2202.12864) promises recovery from *any* reachable
//! configuration — not just population churn, which the scenario
//! experiment already covers, but corrupted agent *state*. This
//! experiment injects the fault catalog of `pp_sim::fault` into the full
//! DSC protocol and times how long the population estimate stays outside
//! the Lemma 4.1 band:
//!
//! * `corrupt_random` — a seeded 10% of agents get randomized
//!   resets/bit-flips mid-run ([`Corruptible`](pp_model::Corruptible)).
//! * `corrupt_agents` — the same corruption pinned to named agent
//!   indices (the reproducible "these exact nodes glitched" case).
//! * `adversarial_start` — every agent starts corrupted: the
//!   arbitrary-initial-configuration test loose stabilization is defined
//!   by, measured from interaction 0.
//! * `byzantine` — a 1/16 fraction of agents are pinned liars
//!   ([`Byzantine`]) that answer every
//!   interaction with a frozen state and report no estimate; the honest
//!   majority then absorbs the same 10% corruption. Liars are *planted*
//!   (initial configuration), never injected — a persistent liar is a
//!   standing fault, and loose stabilization only promises recovery
//!   after faults stop.
//! * `infection_corrupt` — the same randomized corruption on the count
//!   backend (Infection substrate), recovery read from snapshot coverage
//!   (count backends carry no per-agent recovery observer).
//!
//! The bound column is Theorem 2.3's countdown-dominated recovery window.
//! A corrupted `max ≤ 64` (the representable cap: `4k` with `k = 16` GRVs)
//! spreads epidemically and arms a `τ1·64` countdown; the countdown must
//! expire once to flush `max` and once more to flush the `last_max` it
//! left behind, and each synchronized wrap burst re-arms it mid-flush
//! (Algorithm 2 line 6 re-ups `time` from the *old* max), so the flush is
//! a small constant number of `τ1·64` rounds — measured ≈ 5.3, charged 8
//! — plus the Lemma 4.2 epidemic window to re-converge. The corruption
//! cap is a protocol constant, so the whole window is `O(1) + O(log n)`:
//! the paper's O(log n) holding bound with a constant countdown surcharge.
//! The infection row has no countdown, so it gets the bare Lemma 4.2
//! epidemic window `8·log2 n`.
//!
//! Every grid runs resiliently ([`pp_sim::Sweep::run_faulted_on`]) under
//! a 3× interaction budget, and the per-cell outcome tallies (completed /
//! failed / panicked / budget-exceeded) are part of the CSV schema — the
//! partial-results contract the resilient executor adds is itself under
//! test here.

use crate::{f2, log2n, paper_protocol, sweep_of, Scale};
use pp_analysis::{outcome_columns, recovery_after, RecoveryReadout, Table, TableSpec};
use pp_model::Protocol;
use pp_protocols::{Byzantine, ByzantineState, Infection};
use pp_sim::{
    CountSimulator, FaultPlan, ResiliencePolicy, ResilientResults, ScannedEstimates, Simulator,
    WithRecovery,
};

/// Fraction of the population corrupted by the randomized injections.
const CORRUPT_FRACTION: f64 = 0.10;

/// Lemma 4.1 band factors for the recovery observer: recovered means
/// every reporting agent's estimate is inside `[0.5, 4]·log2 n` — the
/// same band E2 (`convergence`) converges into. The factor-4 ceiling is
/// not generosity: with `k = 16` GRVs per agent the natural estimate
/// concentrates near `log2(n·k) = log2 n + 4`, so a tighter band would
/// flag steady-state fluctuation as a fault.
const BAND: (f64, f64) = (0.5, 4.0);

/// Theorem 2.3 recovery window after a bounded state corruption: the
/// corrupted maxima (≤ 64, the representable cap the
/// [`Corruptible`](pp_model::Corruptible) contract stays inside) arm a
/// `τ1·64` countdown that re-ups itself at every synchronized wrap burst
/// until both `max` and `last_max` have flushed — measured ≈ 5.3 rounds
/// at n = 2^8, charged 8 — then the Lemma 4.2 epidemic window
/// re-converges the estimate.
fn corruption_bound(n: usize) -> f64 {
    let tau1 = paper_protocol().config().tau1 as f64;
    8.0 * tau1 * 64.0 + epidemic_bound(n)
}

/// Lemma 4.2 epidemic window: the re-convergence budget for faults with
/// no countdown to serve (the infection substrate).
fn epidemic_bound(n: usize) -> f64 {
    4.0 * 2.0 * log2n(n)
}

/// The resilience policy every grid here runs under: 3× the interactions
/// an exact-horizon run needs (all faults here are seeded and
/// deterministic).
fn policy() -> ResiliencePolicy {
    ResiliencePolicy {
        budget_factor: Some(3.0),
    }
}

/// One scenario's grid plus how to read recovery out of it.
struct Readout {
    scenario: &'static str,
    backend: &'static str,
    results: ResilientResults,
    /// Parallel time of the injection recovery is measured from (the same
    /// for every cell: fault plans, like adversary schedules, are one
    /// fixed timeline applied across the whole grid).
    inject_pt: f64,
    /// Recovery budget granted after the injection.
    bound_pt: fn(usize) -> f64,
    /// Read recovery from snapshot coverage instead of the recovery
    /// observer (count backends).
    from_snapshots: bool,
}

impl Readout {
    fn emit(&self, table: &mut Table, csv: &mut TableSpec) {
        for cell in &self.results.cells {
            let bound = (self.bound_pt)(cell.n);
            // Every grid's horizon is injection + bound + slack, so a
            // censored run charges the full post-injection window.
            let window = bound + SLACK_PT;
            let mut total = 0.0;
            let mut completed = 0usize;
            for run in cell.completed_runs() {
                let readout = if self.from_snapshots {
                    // First post-injection snapshot with full estimate
                    // coverage; a run that never re-covers charges the
                    // whole window.
                    run.snapshots
                        .iter()
                        .find(|s| {
                            s.parallel_time >= self.inject_pt
                                && s.estimates.is_some_and(|e| e.without_estimate == 0)
                        })
                        .map_or(RecoveryReadout::Censored, |s| {
                            RecoveryReadout::Recovered(s.parallel_time - self.inject_pt)
                        })
                } else {
                    // The injection boundary fires at the last interaction
                    // *before* `t·n` crosses, so attribute from one parallel
                    // time unit early (initial convergence is ≥ 10 pt before
                    // the injection at every grid population, so the margin
                    // cannot capture a pre-injection transition).
                    let at = (self.inject_pt * cell.n as f64) as u64;
                    recovery_after(run, at.saturating_sub(cell.n as u64), cell.n)
                };
                total += readout.charged(window);
                completed += 1;
            }
            let mean = total / completed.max(1) as f64;
            let summary = cell.summary();
            let within = completed > 0 && mean <= bound;
            table.row(vec![
                self.scenario.to_string(),
                cell.n.to_string(),
                self.backend.to_string(),
                format!("{}/{}", summary.completed, summary.total()),
                f2(mean),
                f2(bound),
                if within { "yes" } else { "NO" }.to_string(),
            ]);
            let [c, f, p, b] = outcome_columns(summary);
            csv.push(vec![
                self.scenario.to_string(),
                cell.n.to_string(),
                self.backend.to_string(),
                c,
                f,
                p,
                b,
                cell.outcomes.len().to_string(),
                f2(mean),
                f2(bound),
                within.to_string(),
            ]);
        }
    }
}

/// Horizon slack past the recovery bound, so a within-bound recovery is
/// never cut off by the end of the run.
const SLACK_PT: f64 = 2.0;

/// Runs E14, returning the `faults.csv` table.
///
/// # Panics
///
/// Panics if a fault plan fails to compile for the configured grid (a
/// bug in this experiment, not a runtime fault).
pub fn run(scale: &Scale) -> Vec<TableSpec> {
    println!("== Fault injection: recovery vs the loose-stabilization bound ==");
    let populations: Vec<usize> = if scale.smoke {
        vec![1 << 8]
    } else if scale.full {
        vec![1 << 12, 1 << 14]
    } else {
        vec![1 << 10]
    };
    // One injection time for the whole grid: comfortably after the
    // largest population's O(log n) initial convergence.
    let t_inj = 3.0 * log2n(*populations.last().expect("populations set"));
    let dsc_horizon = move |n: usize| t_inj + corruption_bound(n) + SLACK_PT;
    // Estimates are scanned per snapshot; the recovery observer hooks
    // every interaction for its readout.
    let recording = || WithRecovery::band(BAND.0, BAND.1);

    let dsc_grid = || {
        sweep_of(scale, paper_protocol())
            .populations(populations.clone())
            .horizon_with(dsc_horizon)
            .snapshot_every(1.0)
    };
    let mut readouts = Vec::new();

    // Randomized mid-run corruption of a seeded 10% of agents.
    let plan = FaultPlan::new(scale.seed).corrupt_random(t_inj, CORRUPT_FRACTION);
    readouts.push(Readout {
        scenario: "corrupt_random",
        backend: "agent-array",
        results: dsc_grid()
            .run_faulted_on::<Simulator<_>, _>(&plan, recording(), policy())
            .expect("corrupt_random compiles for every population"),
        inject_pt: t_inj,
        bound_pt: corruption_bound,
        from_snapshots: false,
    });

    // The same corruption pinned to named agents (indices chosen valid at
    // every grid population).
    let agents: Vec<usize> = (0..(populations[0] / 16).max(1)).collect();
    let plan = FaultPlan::new(scale.seed).corrupt_agents(t_inj, agents);
    readouts.push(Readout {
        scenario: "corrupt_agents",
        backend: "agent-array",
        results: dsc_grid()
            .run_faulted_on::<Simulator<_>, _>(&plan, recording(), policy())
            .expect("corrupt_agents compiles for every population"),
        inject_pt: t_inj,
        bound_pt: corruption_bound,
        from_snapshots: false,
    });

    // Arbitrary initial configuration: the defining loose-stabilization
    // test, measured from interaction 0.
    let plan = FaultPlan::new(scale.seed).adversarial_start();
    readouts.push(Readout {
        scenario: "adversarial_start",
        backend: "agent-array",
        results: dsc_grid()
            .run_faulted_on::<Simulator<_>, _>(&plan, recording(), policy())
            .expect("adversarial_start compiles for every population"),
        inject_pt: 0.0,
        bound_pt: corruption_bound,
        from_snapshots: false,
    });

    // Pinned liars (planted, not injected) + the randomized corruption:
    // the honest majority must still recover around them. Liars answer
    // interactions with a frozen fresh state and report no estimate, so
    // the recovery band tracks honest agents only.
    let plan = FaultPlan::new(scale.seed).corrupt_random(t_inj, CORRUPT_FRACTION);
    let honest = paper_protocol().initial_state();
    readouts.push(Readout {
        scenario: "byzantine",
        backend: "agent-array",
        results: sweep_of(scale, Byzantine::new(paper_protocol()))
            .populations(populations.clone())
            .horizon_with(dsc_horizon)
            .snapshot_every(1.0)
            .init_with_n(move |n, i| {
                if i < (n / 16).max(1) {
                    ByzantineState::Liar(honest)
                } else {
                    ByzantineState::Honest(honest)
                }
            })
            .run_faulted_on::<Simulator<_>, _>(&plan, recording(), policy())
            .expect("the byzantine plan compiles for every population"),
        inject_pt: t_inj,
        bound_pt: corruption_bound,
        from_snapshots: false,
    });

    // The count backend takes the same randomized corruption through its
    // own inject hook (no agent indices, no recovery observer): recovery
    // is read from snapshot estimate coverage instead.
    let inf_horizon = move |n: usize| t_inj + epidemic_bound(n) + SLACK_PT;
    let plan = FaultPlan::new(scale.seed).corrupt_random(t_inj, 0.5);
    readouts.push(Readout {
        scenario: "infection_corrupt",
        backend: "count",
        results: sweep_of(scale, Infection::new())
            .populations(populations.clone())
            .horizon_with(inf_horizon)
            .snapshot_every(1.0)
            .init_counts(|n| vec![n - 1, 1])
            .run_faulted_on::<CountSimulator<_>, _>(&plan, ScannedEstimates, policy())
            .expect("infection_corrupt compiles for every population"),
        inject_pt: t_inj,
        bound_pt: epidemic_bound,
        from_snapshots: true,
    });

    let mut csv = TableSpec::new(
        "faults.csv",
        &[
            "scenario",
            "n",
            "backend",
            "completed",
            "failed",
            "panicked",
            "budget_exceeded",
            "runs",
            "mean_recovery_pt",
            "bound_pt",
            "within_bound",
        ],
    );
    let mut table = Table::new(vec![
        "scenario",
        "n",
        "backend",
        "completed",
        "mean recovery (pt)",
        "bound (pt)",
        "within",
    ]);
    for readout in &readouts {
        readout.emit(&mut table, &mut csv);
    }
    table.print();
    vec![csv]
}
