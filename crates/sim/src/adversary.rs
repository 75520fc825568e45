//! The dynamic-population adversary.
//!
//! Doty & Eftekhari (SAND 2022) define the dynamic model the paper adopts:
//! an adversary may, at arbitrary times, add agents — always in a predefined
//! initial state — and remove *arbitrary* agents. A schedule is a list of
//! timed [`PopulationEvent`]s; the paper's Fig. 4 uses a single
//! `ResizeTo(500)` at parallel time 1350.
//!
//! Schedules are validated *before* a run starts:
//! [`AdversarySchedule::validate_for`] walks the events against the initial
//! population and reports impossible schedules (removals exceeding the live
//! population, additions past `u64::MAX`, events that empty a population the
//! backend cannot run empty) as typed [`ScheduleError`]s instead of mid-run
//! panics, so a bad cell in a large sweep fails fast with a matchable value.

use std::fmt;

/// One population change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopulationEvent {
    /// Grow or shrink to exactly this size (shrinking removes uniformly).
    ResizeTo(usize),
    /// Add this many agents in the protocol's initial state.
    Add(usize),
    /// Remove this many agents chosen uniformly at random.
    RemoveUniform(usize),
    /// Remove the agents holding the largest estimates — the adversarial
    /// variant motivated by the paper's introduction (a poacher that
    /// "selectively targets certain types of birds in the flock").
    RemoveLargestEstimates(usize),
}

/// An invalid schedule, reported as a value before any simulation work.
///
/// Produced by [`AdversarySchedule::try_at`] (bad event times),
/// [`AdversarySchedule::validate_for`] (events impossible against the
/// population they would apply to), and the scenario compiler
/// ([`ScenarioTrace::compile`](crate::scenario::ScenarioTrace::compile),
/// which reports bad trace parameters through the same type).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleError {
    /// An event time was NaN or infinite.
    NonFiniteTime {
        /// The rejected time.
        at: f64,
    },
    /// An event time was negative.
    NegativeTime {
        /// The rejected time.
        at: f64,
    },
    /// A removal event asks for more agents than the population holds at
    /// its scheduled time (tracked by replaying the schedule's net effect
    /// from the initial population).
    RemovesTooMany {
        /// Time of the offending event.
        at: f64,
        /// Agents the event removes.
        remove: u64,
        /// Live population just before the event.
        population: u64,
    },
    /// An event leaves the population empty on a backend that cannot run
    /// an empty population (e.g. `ResizeTo(0)` on the agent-array backend,
    /// whose estimate scans and removal draws assume at least one agent).
    EmptiesPopulation {
        /// Time of the offending event.
        at: f64,
    },
    /// An event grows the population past `u64::MAX` agents (a huge `Add`,
    /// a flash crowd whose scaled joiner count saturates, or a ramp step).
    PopulationOverflow {
        /// Time of the offending event.
        at: f64,
    },
    /// A scenario trace segment has a parameter outside its domain
    /// (e.g. a non-positive period, or a removal fraction outside (0, 1)).
    InvalidTraceParameter {
        /// The trace segment kind.
        segment: &'static str,
        /// What is wrong with it.
        what: &'static str,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NonFiniteTime { at } => {
                write!(f, "event time must be finite, got {at}")
            }
            ScheduleError::NegativeTime { at } => {
                write!(f, "event time must be non-negative, got {at}")
            }
            ScheduleError::RemovesTooMany {
                at,
                remove,
                population,
            } => write!(
                f,
                "event at t = {at} removes {remove} of {population} live agents"
            ),
            ScheduleError::EmptiesPopulation { at } => write!(
                f,
                "event at t = {at} empties the population, which this backend cannot run"
            ),
            ScheduleError::PopulationOverflow { at } => {
                write!(f, "event at t = {at} grows the population past u64::MAX")
            }
            ScheduleError::InvalidTraceParameter { segment, what } => {
                write!(f, "invalid {segment} trace segment: {what}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A [`PopulationEvent`] scheduled at a parallel time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledEvent {
    /// Parallel time at which the event fires.
    pub at: f64,
    /// The population change.
    pub event: PopulationEvent,
}

/// A time-ordered list of population events.
///
/// # Examples
///
/// The paper's Fig. 4 schedule — all but 500 agents removed at time 1350:
///
/// ```
/// use pp_sim::{AdversarySchedule, PopulationEvent};
///
/// let schedule = AdversarySchedule::new()
///     .at(1350.0, PopulationEvent::ResizeTo(500));
/// assert_eq!(schedule.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdversarySchedule {
    events: Vec<ScheduledEvent>,
}

impl AdversarySchedule {
    /// Creates an empty schedule (the static setting).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an event at the given parallel time, keeping the schedule sorted.
    ///
    /// # Panics
    ///
    /// Panics if `at` is negative or non-finite; shim over [`Self::try_at`].
    pub fn at(self, at: f64, event: PopulationEvent) -> Self {
        match self.try_at(at, event) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Adds an event at the given parallel time, keeping the schedule
    /// sorted, or reports a bad time as a typed [`ScheduleError`].
    pub fn try_at(mut self, at: f64, event: PopulationEvent) -> Result<Self, ScheduleError> {
        if !at.is_finite() {
            return Err(ScheduleError::NonFiniteTime { at });
        }
        if at < 0.0 {
            return Err(ScheduleError::NegativeTime { at });
        }
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, ScheduledEvent { at, event });
        Ok(self)
    }

    /// Validates the schedule against the population it will apply to.
    ///
    /// Replays the events' net effect starting from `initial_n` and reports
    /// the first impossible one: a removal exceeding the live population, an
    /// addition past `u64::MAX`, or an event that empties the population
    /// when `allows_empty` is false
    /// (the agent-array backend cannot run an empty population; the count
    /// backends can). Backends call this before any simulation work, so an
    /// impossible cell in a sweep fails with a typed error, not a mid-run
    /// panic deep inside a worker thread.
    ///
    /// The replay is exact: `ResizeTo` and `Add` land in predetermined
    /// states, and both removal modes remove exactly the requested count,
    /// so the live population at every event time is schedule-determined.
    pub fn validate_for(&self, initial_n: u64, allows_empty: bool) -> Result<(), ScheduleError> {
        let mut population = initial_n;
        for e in &self.events {
            match e.event {
                PopulationEvent::ResizeTo(target) => population = target as u64,
                PopulationEvent::Add(count) => {
                    population = population
                        .checked_add(count as u64)
                        .ok_or(ScheduleError::PopulationOverflow { at: e.at })?;
                }
                PopulationEvent::RemoveUniform(count)
                | PopulationEvent::RemoveLargestEstimates(count) => {
                    let remove = count as u64;
                    if remove > population {
                        return Err(ScheduleError::RemovesTooMany {
                            at: e.at,
                            remove,
                            population,
                        });
                    }
                    population -= remove;
                }
            }
            if population == 0 && !allows_empty {
                return Err(ScheduleError::EmptiesPopulation { at: e.at });
            }
        }
        Ok(())
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events in time order.
    pub fn events(&self) -> &[ScheduledEvent] {
        &self.events
    }

    /// The time of the first event at or after index `from`, if any.
    pub fn next_time(&self, from: usize) -> Option<f64> {
        self.events.get(from).map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_sorted_regardless_of_insertion_order() {
        let s = AdversarySchedule::new()
            .at(10.0, PopulationEvent::Add(5))
            .at(2.0, PopulationEvent::ResizeTo(100))
            .at(7.0, PopulationEvent::RemoveUniform(3));
        let times: Vec<f64> = s.events().iter().map(|e| e.at).collect();
        assert_eq!(times, vec![2.0, 7.0, 10.0]);
    }

    #[test]
    fn equal_times_preserve_insertion_order() {
        let s = AdversarySchedule::new()
            .at(5.0, PopulationEvent::Add(1))
            .at(5.0, PopulationEvent::Add(2));
        assert_eq!(s.events()[0].event, PopulationEvent::Add(1));
        assert_eq!(s.events()[1].event, PopulationEvent::Add(2));
    }

    #[test]
    fn next_time_walks_the_schedule() {
        let s = AdversarySchedule::new()
            .at(1.0, PopulationEvent::Add(1))
            .at(2.0, PopulationEvent::Add(1));
        assert_eq!(s.next_time(0), Some(1.0));
        assert_eq!(s.next_time(1), Some(2.0));
        assert_eq!(s.next_time(2), None);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_times_rejected() {
        let _ = AdversarySchedule::new().at(-1.0, PopulationEvent::Add(1));
    }

    #[test]
    fn empty_schedule_is_static_setting() {
        let s = AdversarySchedule::new();
        assert!(s.is_empty());
        assert_eq!(s.next_time(0), None);
        assert_eq!(s.validate_for(0, false), Ok(()));
    }

    #[test]
    fn try_at_reports_non_finite_times_as_values() {
        let e = AdversarySchedule::new()
            .try_at(f64::NAN, PopulationEvent::Add(1))
            .unwrap_err();
        assert!(matches!(e, ScheduleError::NonFiniteTime { .. }));
        assert_eq!(
            AdversarySchedule::new()
                .try_at(f64::INFINITY, PopulationEvent::Add(1))
                .unwrap_err(),
            ScheduleError::NonFiniteTime { at: f64::INFINITY }
        );
        assert!(e.to_string().contains("finite"));
    }

    #[test]
    fn try_at_reports_negative_times_as_values() {
        let e = AdversarySchedule::new()
            .try_at(-2.0, PopulationEvent::Add(1))
            .unwrap_err();
        assert_eq!(e, ScheduleError::NegativeTime { at: -2.0 });
        assert!(e.to_string().contains("non-negative"));
    }

    #[test]
    fn validation_catches_removals_exceeding_the_live_population() {
        // The removal is fine against the *initial* population but not
        // against the population the preceding crash leaves behind.
        let s = AdversarySchedule::new()
            .at(1.0, PopulationEvent::ResizeTo(50))
            .at(2.0, PopulationEvent::RemoveUniform(80));
        assert_eq!(
            s.validate_for(1_000, true).unwrap_err(),
            ScheduleError::RemovesTooMany {
                at: 2.0,
                remove: 80,
                population: 50
            }
        );
        // Growth before the removal makes the same schedule valid again.
        let s = AdversarySchedule::new()
            .at(1.0, PopulationEvent::ResizeTo(50))
            .at(1.5, PopulationEvent::Add(40))
            .at(2.0, PopulationEvent::RemoveUniform(80));
        assert_eq!(s.validate_for(1_000, true), Ok(()));
    }

    #[test]
    fn validation_catches_population_emptying_events_when_disallowed() {
        let resize = AdversarySchedule::new().at(3.0, PopulationEvent::ResizeTo(0));
        assert_eq!(
            resize.validate_for(100, false).unwrap_err(),
            ScheduleError::EmptiesPopulation { at: 3.0 }
        );
        // The count backends run empty populations fine.
        assert_eq!(resize.validate_for(100, true), Ok(()));
        let drain = AdversarySchedule::new().at(5.0, PopulationEvent::RemoveLargestEstimates(100));
        assert_eq!(
            drain.validate_for(100, false).unwrap_err(),
            ScheduleError::EmptiesPopulation { at: 5.0 }
        );
    }

    #[test]
    fn invalid_trace_parameter_displays_segment_and_reason() {
        let e = ScheduleError::InvalidTraceParameter {
            segment: "diurnal",
            what: "period must be positive",
        };
        assert!(e.to_string().contains("diurnal"));
        assert!(e.to_string().contains("period must be positive"));
    }
}
