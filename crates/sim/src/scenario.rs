//! Declarative churn traces: production-shaped adversary scenarios.
//!
//! The paper's dynamic model (Doty & Eftekhari, SAND 2022) lets an
//! adversary change the population at arbitrary times; the repo's
//! experiments so far exercised it with a handful of hand-written
//! crash/burst [`AdversarySchedule`]s. A [`ScenarioTrace`] is the
//! declarative layer above that: a list of [`TraceSegment`]s — ramps,
//! diurnal cycles, flash crowds, correlated crash bursts, targeted
//! [`RemoveLargestEstimates`](PopulationEvent::RemoveLargestEstimates)
//! campaigns — that [`compile`](ScenarioTrace::compile)s deterministically
//! into concrete timed events for a given initial population and seed.
//!
//! Determinism is the point: a trace is a *reproducible grid axis*. The
//! [`Sweep`](crate::Sweep) engine compiles each trace once per grid cell,
//! with a seed derived from the master seed through the same SplitMix64
//! chain as the run seeds, before any worker thread starts — so trace-driven
//! sweeps are bit-identical across thread counts, exactly like fixed
//! schedules.
//!
//! Segment sizes are *fractions of the live population at segment entry*,
//! so one trace scales across a population axis (the same `flash_crowd`
//! trace triples 10⁴ agents or 10⁹). Bad parameters and impossible
//! compiled schedules are reported as typed [`ScheduleError`]s — never a
//! panic inside a sweep worker.
//!
//! # Examples
//!
//! ```
//! use pp_sim::scenario::{ScenarioTrace, TraceSegment};
//!
//! let trace = ScenarioTrace::new().segment(TraceSegment::FlashCrowd {
//!     at: 5.0,
//!     factor: 3.0,
//!     dwell: 10.0,
//!     steps: 4,
//! });
//! let schedule = trace.compile(10_000, 42).unwrap();
//! assert_eq!(schedule.len(), 5); // one mass join + four drain steps
//! ```

use crate::adversary::{AdversarySchedule, PopulationEvent, ScheduleError};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// One declarative span of population change. Sizes are fractions of the
/// live population when the segment begins (segments apply in list order),
/// so a trace is population-scale-free.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSegment {
    /// Linear population ramp from the current size to `to_fraction` of it,
    /// discretized into `steps` evenly spaced `ResizeTo` events over
    /// `(start, end]`. A ramp that grows past `u64::MAX` agents fails to
    /// compile with [`ScheduleError::PopulationOverflow`] at its first step
    /// beyond it.
    Ramp {
        /// Parallel time the ramp begins (exclusive; the first resize
        /// lands at `start + (end − start) / steps`).
        start: f64,
        /// Parallel time of the final resize.
        end: f64,
        /// Target size as a fraction of the entry population (`> 1` grows,
        /// `< 1` shrinks).
        to_fraction: f64,
        /// Number of discrete resize events.
        steps: usize,
    },
    /// Day/night load cycle: the population follows a cosine between the
    /// entry size (peak) and `low_fraction` of it (trough), one full
    /// period per cycle, discretized into `steps_per_cycle` resizes. Ends
    /// back at the peak.
    Diurnal {
        /// Parallel time the first cycle begins.
        start: f64,
        /// Length of one full cycle in parallel time.
        period: f64,
        /// Number of full cycles.
        cycles: usize,
        /// Trough size as a fraction of the entry population, in `(0, 1]`.
        low_fraction: f64,
        /// Discrete resizes per cycle.
        steps_per_cycle: usize,
    },
    /// A mass join followed by a linear drain back to the entry size:
    /// `Add` jumps the population to `factor ×` the entry size at `at`,
    /// then `steps` resizes drain it back over `(at, at + dwell]`.
    FlashCrowd {
        /// Parallel time of the mass join.
        at: f64,
        /// Peak size as a multiple of the entry population (`> 1`).
        factor: f64,
        /// Parallel time from the join until the drain completes.
        dwell: f64,
        /// Number of discrete drain events.
        steps: usize,
    },
    /// Correlated crash bursts: `bursts` failure events at seeded times in
    /// `[start, end]`, each removing `fraction` of the then-live
    /// population as a volley of `volley` closely spaced `RemoveUniform`
    /// events (`spacing` apart) — a rack dying switch by switch rather
    /// than one independent agent at a time.
    CrashBursts {
        /// Earliest burst time.
        start: f64,
        /// Latest time any burst volley may end.
        end: f64,
        /// Number of bursts.
        bursts: usize,
        /// Fraction of the live population each burst removes, in `(0, 1)`.
        fraction: f64,
        /// Events per burst (the correlated volley).
        volley: usize,
        /// Parallel time between volley events.
        spacing: f64,
    },
    /// A targeted poacher: every `every` time units from `start`, remove
    /// the `fraction` of the live population holding the *largest*
    /// estimates — the adversarial removal mode from the paper's
    /// introduction, as a repeating campaign.
    TargetedCampaign {
        /// Parallel time of the first strike.
        start: f64,
        /// Parallel time between strikes.
        every: f64,
        /// Number of strikes.
        strikes: usize,
        /// Fraction of the live population each strike removes, in `(0, 1)`.
        fraction: f64,
    },
}

impl TraceSegment {
    /// The segment kind, as named in [`ScheduleError::InvalidTraceParameter`].
    pub fn kind(&self) -> &'static str {
        match self {
            TraceSegment::Ramp { .. } => "ramp",
            TraceSegment::Diurnal { .. } => "diurnal",
            TraceSegment::FlashCrowd { .. } => "flash_crowd",
            TraceSegment::CrashBursts { .. } => "crash_bursts",
            TraceSegment::TargetedCampaign { .. } => "targeted_campaign",
        }
    }

    /// Parallel time at which the segment's last event fires.
    pub fn end_time(&self) -> f64 {
        match *self {
            TraceSegment::Ramp { end, .. } => end,
            TraceSegment::Diurnal {
                start,
                period,
                cycles,
                ..
            } => start + period * cycles as f64,
            TraceSegment::FlashCrowd { at, dwell, .. } => at + dwell,
            TraceSegment::CrashBursts { end, .. } => end,
            TraceSegment::TargetedCampaign {
                start,
                every,
                strikes,
                ..
            } => start + every * strikes.saturating_sub(1) as f64,
        }
    }

    fn invalid(&self, what: &'static str) -> ScheduleError {
        ScheduleError::InvalidTraceParameter {
            segment: self.kind(),
            what,
        }
    }

    /// Rejects parameters outside the segment's domain.
    fn validate(&self) -> Result<(), ScheduleError> {
        let finite_time = |t: f64| t.is_finite() && t >= 0.0;
        match *self {
            TraceSegment::Ramp {
                start,
                end,
                to_fraction,
                steps,
            } => {
                if !finite_time(start) || !finite_time(end) || end <= start {
                    return Err(self.invalid("needs finite times with end > start >= 0"));
                }
                if !(to_fraction.is_finite() && to_fraction > 0.0) {
                    return Err(self.invalid("to_fraction must be finite and positive"));
                }
                if steps == 0 {
                    return Err(self.invalid("needs at least one step"));
                }
            }
            TraceSegment::Diurnal {
                start,
                period,
                cycles,
                low_fraction,
                steps_per_cycle,
            } => {
                if !finite_time(start) {
                    return Err(self.invalid("start must be finite and non-negative"));
                }
                if !(period.is_finite() && period > 0.0) {
                    return Err(self.invalid("period must be positive"));
                }
                if cycles == 0 {
                    return Err(self.invalid("needs at least one cycle"));
                }
                if !(low_fraction > 0.0 && low_fraction <= 1.0) {
                    return Err(self.invalid("low_fraction must be in (0, 1]"));
                }
                if steps_per_cycle < 2 {
                    return Err(self.invalid("needs at least two steps per cycle"));
                }
            }
            TraceSegment::FlashCrowd {
                at,
                factor,
                dwell,
                steps,
            } => {
                if !finite_time(at) {
                    return Err(self.invalid("at must be finite and non-negative"));
                }
                if !(factor.is_finite() && factor > 1.0) {
                    return Err(self.invalid("factor must exceed 1"));
                }
                if !(dwell.is_finite() && dwell > 0.0) {
                    return Err(self.invalid("dwell must be positive"));
                }
                if steps == 0 {
                    return Err(self.invalid("needs at least one drain step"));
                }
            }
            TraceSegment::CrashBursts {
                start,
                end,
                bursts,
                fraction,
                volley,
                spacing,
            } => {
                if !finite_time(start) || !finite_time(end) || end <= start {
                    return Err(self.invalid("needs finite times with end > start >= 0"));
                }
                if bursts == 0 {
                    return Err(self.invalid("needs at least one burst"));
                }
                if !(fraction > 0.0 && fraction < 1.0) {
                    return Err(self.invalid("fraction must be in (0, 1)"));
                }
                if volley == 0 {
                    return Err(self.invalid("needs at least one event per volley"));
                }
                if !(spacing.is_finite() && spacing >= 0.0) {
                    return Err(self.invalid("spacing must be finite and non-negative"));
                }
                if volley.saturating_sub(1) as f64 * spacing >= end - start {
                    return Err(self.invalid("volley span must fit inside [start, end]"));
                }
            }
            TraceSegment::TargetedCampaign {
                start,
                every,
                strikes,
                fraction,
            } => {
                if !finite_time(start) {
                    return Err(self.invalid("start must be finite and non-negative"));
                }
                if !(every.is_finite() && every > 0.0) {
                    return Err(self.invalid("every must be positive"));
                }
                if strikes == 0 {
                    return Err(self.invalid("needs at least one strike"));
                }
                if !(fraction > 0.0 && fraction < 1.0) {
                    return Err(self.invalid("fraction must be in (0, 1)"));
                }
            }
        }
        Ok(())
    }
}

/// `fraction` of a population, rounded to the nearest agent.
fn scaled(population: u64, fraction: f64) -> u64 {
    (population as f64 * fraction).round() as u64
}

/// A declarative churn trace: an ordered list of [`TraceSegment`]s that
/// compiles into an [`AdversarySchedule`] for a concrete population and
/// seed. See the [module docs](self) for the determinism contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioTrace {
    segments: Vec<TraceSegment>,
}

impl ScenarioTrace {
    /// Creates an empty trace (compiles to the static setting).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a segment. Segments apply in list order: each one sizes its
    /// events against the population the preceding segments leave behind.
    pub fn segment(mut self, segment: TraceSegment) -> Self {
        self.segments.push(segment);
        self
    }

    /// The segments in application order.
    pub fn segments(&self) -> &[TraceSegment] {
        &self.segments
    }

    /// Parallel time of the last event any segment schedules (0 for an
    /// empty trace) — experiments size their horizon as this plus a
    /// re-convergence window.
    pub fn end_time(&self) -> f64 {
        self.segments
            .iter()
            .map(TraceSegment::end_time)
            .fold(0.0, f64::max)
    }

    /// Compiles the trace into concrete timed events for an initial
    /// population of `n0`, using `seed` for the trace's only random choice
    /// (crash-burst times). The same `(trace, n0, seed)` always yields the
    /// same schedule.
    ///
    /// Compilation tracks the live population through the generated events
    /// (in segment list order) and re-validates the assembled schedule in
    /// time order via [`AdversarySchedule::validate_for`], so a trace that
    /// would over-remove fails here with a typed [`ScheduleError`] rather
    /// than panicking mid-sweep. Count backends tolerate an emptied
    /// population, so emptying is legal at this layer; backends that
    /// cannot run empty re-validate per cell with their own capability.
    pub fn compile(&self, n0: u64, seed: u64) -> Result<AdversarySchedule, ScheduleError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut schedule = AdversarySchedule::new();
        let mut population = n0;
        for segment in &self.segments {
            segment.validate()?;
            let entry = population;
            match *segment {
                TraceSegment::Ramp {
                    start,
                    end,
                    to_fraction,
                    steps,
                } => {
                    // Not saturated: a growing ramp must see its own steps
                    // past u64::MAX.
                    let target = (entry as f64 * to_fraction).round();
                    for k in 1..=steps {
                        let t = start + (end - start) * k as f64 / steps as f64;
                        let frac = k as f64 / steps as f64;
                        let size = (entry as f64 + (target - entry as f64) * frac).round();
                        // `u64::MAX as f64` is 2⁶⁴, the first f64 past
                        // u64::MAX. A shrinking ramp reaches it only where
                        // f64 rounds the entry population up to it, so it
                        // saturates there, as every segment does.
                        if to_fraction > 1.0 && size >= u64::MAX as f64 {
                            return Err(ScheduleError::PopulationOverflow { at: t });
                        }
                        let size = size as u64;
                        schedule = schedule.try_at(t, PopulationEvent::ResizeTo(size as usize))?;
                        population = size;
                    }
                }
                TraceSegment::Diurnal {
                    start,
                    period,
                    cycles,
                    low_fraction,
                    steps_per_cycle,
                } => {
                    // Cosine between peak (entry size, phase 0) and trough
                    // (low_fraction · entry, phase ½): mid + amp · cos(2πφ).
                    let mid = (1.0 + low_fraction) / 2.0;
                    let amp = (1.0 - low_fraction) / 2.0;
                    let total = cycles * steps_per_cycle;
                    for k in 1..=total {
                        let t = start + period * k as f64 / steps_per_cycle as f64;
                        let phase = k as f64 / steps_per_cycle as f64;
                        let frac = mid + amp * (std::f64::consts::TAU * phase).cos();
                        let size = scaled(entry, frac);
                        schedule = schedule.try_at(t, PopulationEvent::ResizeTo(size as usize))?;
                        population = size;
                    }
                }
                TraceSegment::FlashCrowd {
                    at,
                    factor,
                    dwell,
                    steps,
                } => {
                    let joiners = scaled(entry, factor - 1.0);
                    schedule = schedule.try_at(at, PopulationEvent::Add(joiners as usize))?;
                    let peak = entry
                        .checked_add(joiners)
                        .ok_or(ScheduleError::PopulationOverflow { at })?;
                    for k in 1..=steps {
                        let t = at + dwell * k as f64 / steps as f64;
                        let frac = k as f64 / steps as f64;
                        let size = (peak as f64 - joiners as f64 * frac).round() as u64;
                        schedule = schedule.try_at(t, PopulationEvent::ResizeTo(size as usize))?;
                        population = size;
                    }
                }
                TraceSegment::CrashBursts {
                    start,
                    end,
                    bursts,
                    fraction,
                    volley,
                    spacing,
                } => {
                    // Draw all burst times first and process them in time
                    // order, so the live-population accounting matches the
                    // order the events actually fire in.
                    // Validation guarantees span < end − start, so the
                    // sampling range below is non-empty.
                    let span = volley.saturating_sub(1) as f64 * spacing;
                    let mut times: Vec<f64> = (0..bursts)
                        .map(|_| rng.random_range(start..end - span))
                        .collect();
                    times.sort_by(|a, b| a.partial_cmp(b).expect("finite burst times"));
                    for t0 in times {
                        let total = scaled(population, fraction);
                        let per_event = total / volley as u64;
                        let remainder = total % volley as u64;
                        for j in 0..volley {
                            // Spread the rounding remainder over the first
                            // events so the volley removes exactly `total`.
                            let remove = per_event + u64::from((j as u64) < remainder);
                            if remove == 0 {
                                continue;
                            }
                            let t = t0 + j as f64 * spacing;
                            schedule = schedule
                                .try_at(t, PopulationEvent::RemoveUniform(remove as usize))?;
                        }
                        population -= total;
                    }
                }
                TraceSegment::TargetedCampaign {
                    start,
                    every,
                    strikes,
                    fraction,
                } => {
                    for k in 0..strikes {
                        let t = start + every * k as f64;
                        let remove = scaled(population, fraction);
                        if remove == 0 {
                            continue;
                        }
                        schedule = schedule
                            .try_at(t, PopulationEvent::RemoveLargestEstimates(remove as usize))?;
                        population -= remove;
                    }
                }
            }
        }
        // Re-validate in time order: segment-order accounting above can be
        // optimistic when segments overlap in time.
        schedule.validate_for(n0, true)?;
        Ok(schedule)
    }
}

/// Names of the built-in trace catalog, in the order `dsc-bench scenario`
/// runs them.
pub const BUILTIN_TRACES: [&str; 5] = [
    "ramp_down",
    "diurnal",
    "flash_crowd",
    "crash_bursts",
    "targeted_poacher",
];

/// Looks up a built-in catalog trace by name.
///
/// The catalog covers one trace per segment kind, all parameterized to
/// finish their churn by parallel time ≈ 30 so a horizon of
/// `end_time() + Θ(log n)` leaves a full re-convergence window:
///
/// * `ramp_down` — Fig. 4's crash, gradual: ramp to ¼ size over 20 pt.
/// * `diurnal` — two day/night cycles between full and half size.
/// * `flash_crowd` — triple the population at t = 6, drain back by t = 16.
/// * `crash_bursts` — three correlated bursts, each killing 30%.
/// * `targeted_poacher` — four strikes removing the top 20% of estimates.
pub fn builtin(name: &str) -> Option<ScenarioTrace> {
    let trace = match name {
        "ramp_down" => ScenarioTrace::new().segment(TraceSegment::Ramp {
            start: 5.0,
            end: 25.0,
            to_fraction: 0.25,
            steps: 8,
        }),
        "diurnal" => ScenarioTrace::new().segment(TraceSegment::Diurnal {
            start: 2.0,
            period: 12.0,
            cycles: 2,
            low_fraction: 0.5,
            steps_per_cycle: 6,
        }),
        "flash_crowd" => ScenarioTrace::new().segment(TraceSegment::FlashCrowd {
            at: 6.0,
            factor: 3.0,
            dwell: 10.0,
            steps: 5,
        }),
        "crash_bursts" => ScenarioTrace::new().segment(TraceSegment::CrashBursts {
            start: 4.0,
            end: 28.0,
            bursts: 3,
            fraction: 0.3,
            volley: 3,
            spacing: 0.25,
        }),
        "targeted_poacher" => ScenarioTrace::new().segment(TraceSegment::TargetedCampaign {
            start: 5.0,
            every: 6.0,
            strikes: 4,
            fraction: 0.2,
        }),
        _ => return None,
    };
    Some(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compilation_is_deterministic_per_seed() {
        let trace = builtin("crash_bursts").unwrap();
        let a = trace.compile(100_000, 7).unwrap();
        let b = trace.compile(100_000, 7).unwrap();
        assert_eq!(a, b, "same (trace, n, seed) must yield the same schedule");
        let c = trace.compile(100_000, 8).unwrap();
        assert_ne!(a, c, "burst times must actually depend on the seed");
    }

    #[test]
    fn every_builtin_compiles_and_stays_within_its_end_time() {
        for name in BUILTIN_TRACES {
            let trace = builtin(name).expect("catalog name resolves");
            let schedule = trace.compile(1_000_000, 42).unwrap();
            assert!(!schedule.is_empty(), "{name} must generate events");
            let last = schedule.events().last().unwrap().at;
            assert!(
                last <= trace.end_time() + 1e-9,
                "{name}: event at {last} past end_time {}",
                trace.end_time()
            );
            assert_eq!(schedule.validate_for(1_000_000, true), Ok(()));
        }
    }

    #[test]
    fn unknown_names_are_not_in_the_catalog() {
        assert!(builtin("no_such_trace").is_none());
    }

    #[test]
    fn segment_sizes_scale_with_the_population() {
        // flash_crowd triples the entry population whatever its scale.
        let trace = builtin("flash_crowd").unwrap();
        for n0 in [10_000u64, 10_000_000] {
            let schedule = trace.compile(n0, 1).unwrap();
            let PopulationEvent::Add(joiners) = schedule.events()[0].event else {
                panic!("flash crowd must start with a mass join");
            };
            assert_eq!(joiners as u64, 2 * n0);
        }
    }

    #[test]
    fn ramp_lands_exactly_on_its_target() {
        let trace = ScenarioTrace::new().segment(TraceSegment::Ramp {
            start: 0.0,
            end: 10.0,
            to_fraction: 0.25,
            steps: 4,
        });
        let schedule = trace.compile(1_000, 3).unwrap();
        let last = schedule.events().last().unwrap();
        assert_eq!(last.event, PopulationEvent::ResizeTo(250));
    }

    #[test]
    fn crash_burst_volleys_remove_exactly_the_fraction() {
        let trace = ScenarioTrace::new().segment(TraceSegment::CrashBursts {
            start: 1.0,
            end: 10.0,
            bursts: 1,
            fraction: 0.5,
            volley: 3,
            spacing: 0.1,
        });
        let schedule = trace.compile(1_001, 5).unwrap();
        let removed: u64 = schedule
            .events()
            .iter()
            .map(|e| match e.event {
                PopulationEvent::RemoveUniform(c) => c as u64,
                other => panic!("unexpected event {other:?}"),
            })
            .sum();
        // round(0.5 · 1001) = round(500.5) = 501 (half rounds away from zero).
        assert_eq!(removed, 501, "volley must sum to round(fraction · n)");
    }

    #[test]
    fn bad_parameters_are_typed_errors() {
        let cases = [
            (
                ScenarioTrace::new().segment(TraceSegment::Ramp {
                    start: 5.0,
                    end: 5.0,
                    to_fraction: 0.5,
                    steps: 2,
                }),
                "ramp",
            ),
            (
                ScenarioTrace::new().segment(TraceSegment::Diurnal {
                    start: 0.0,
                    period: -1.0,
                    cycles: 1,
                    low_fraction: 0.5,
                    steps_per_cycle: 4,
                }),
                "diurnal",
            ),
            (
                ScenarioTrace::new().segment(TraceSegment::FlashCrowd {
                    at: 0.0,
                    factor: 0.5,
                    dwell: 1.0,
                    steps: 1,
                }),
                "flash_crowd",
            ),
            (
                ScenarioTrace::new().segment(TraceSegment::CrashBursts {
                    start: 0.0,
                    end: 4.0,
                    bursts: 1,
                    fraction: 1.5,
                    volley: 1,
                    spacing: 0.0,
                }),
                "crash_bursts",
            ),
            (
                ScenarioTrace::new().segment(TraceSegment::TargetedCampaign {
                    start: 0.0,
                    every: 1.0,
                    strikes: 0,
                    fraction: 0.2,
                }),
                "targeted_campaign",
            ),
        ];
        for (trace, kind) in cases {
            match trace.compile(1_000, 1).unwrap_err() {
                ScheduleError::InvalidTraceParameter { segment, .. } => assert_eq!(segment, kind),
                other => panic!("expected InvalidTraceParameter, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_trace_compiles_to_the_static_setting() {
        let schedule = ScenarioTrace::new().compile(100, 9).unwrap();
        assert!(schedule.is_empty());
        assert_eq!(ScenarioTrace::new().end_time(), 0.0);
    }
}
