//! Checkpoint/resume: the bit-identity contract end to end, plus every
//! typed failure path of the on-disk format.
//!
//! The headline guarantee: a run split across a save/load cycle produces
//! a [`RunResult`] *equal* to the uninterrupted run — same snapshots,
//! same final population, same everything — because the drive loop only
//! pauses on snapshot-grid boundaries the whole run also hits, and the
//! checkpoint carries the full RNG state. Adversary events straddle every
//! split point here on purpose.

use dynamic_size_counting::protocols::{BoundedChvp, Infection};
use dynamic_size_counting::sim::{
    AdversarySchedule, BackendError, BatchedCountSimulator, CellSpec, CheckpointError,
    CheckpointOutcome, Checkpointable, CountSimulator, PopulationEvent, RunCheckpoint, RunResult,
    TrackedEstimates,
};

fn finished(outcome: CheckpointOutcome) -> RunResult {
    match outcome {
        CheckpointOutcome::Finished(r) => r,
        CheckpointOutcome::Paused(c) => {
            panic!(
                "expected a finished run, got a pause at {}",
                c.parallel_time()
            )
        }
    }
}

fn paused(outcome: CheckpointOutcome) -> RunCheckpoint {
    match outcome {
        CheckpointOutcome::Finished(_) => panic!("expected a pause, the run finished"),
        CheckpointOutcome::Paused(c) => c,
    }
}

/// A churn schedule with events on both sides of every split point used
/// below (splits at 5 and 9; events at 3, 7, and 11).
fn straddling_schedule() -> AdversarySchedule {
    AdversarySchedule::new()
        .at(3.0, PopulationEvent::RemoveUniform(200))
        .at(7.0, PopulationEvent::Add(150))
        .at(11.0, PopulationEvent::RemoveLargestEstimates(50))
}

fn infection_spec(
    schedule: &AdversarySchedule,
) -> CellSpec<'_, <Infection as dynamic_size_counting::model::Protocol>::State> {
    let n = 2_000usize;
    CellSpec {
        n,
        seed: 7,
        horizon: 14.0,
        snapshot_every: 1.0,
        schedule,
        init_agents: None,
        init_counts: Some(vec![n as u64 - 1, 1]),
        interaction_budget: None,
    }
}

#[test]
fn split_run_is_bit_identical_on_the_count_backend() {
    let schedule = straddling_schedule();
    let spec = infection_spec(&schedule);

    let whole = finished(
        CountSimulator::run_cell_until(Infection::new(), &spec, &TrackedEstimates, f64::INFINITY)
            .unwrap(),
    );

    // Split through the on-disk format, not just in memory.
    let ck = paused(
        CountSimulator::run_cell_until(Infection::new(), &spec, &TrackedEstimates, 5.0).unwrap(),
    );
    assert_eq!(ck.backend(), "count");
    assert!(
        ck.parallel_time() >= 5.0,
        "pause lands at or past the stop time"
    );
    assert!(
        !ck.snapshots().is_empty(),
        "the first leg's snapshots travel inside the checkpoint"
    );
    let path = std::env::temp_dir().join(format!("dsc_ckpt_count_{}.bin", std::process::id()));
    ck.save(&path).unwrap();
    let loaded = RunCheckpoint::load(&path).unwrap();
    assert_eq!(loaded, ck, "the on-disk round trip is lossless");
    let split = finished(
        CountSimulator::resume_cell(
            Infection::new(),
            &spec,
            &TrackedEstimates,
            &loaded,
            f64::INFINITY,
        )
        .unwrap(),
    );
    let _ = std::fs::remove_file(&path);

    assert_eq!(split, whole, "split and uninterrupted runs must be equal");
}

#[test]
fn split_run_is_bit_identical_on_the_batched_backend() {
    // Well above EXACT_POPULATION_THRESHOLD so tau-leaping genuinely
    // carries the state across the checkpoint.
    let n = 50_000usize;
    let schedule = AdversarySchedule::new()
        .at(3.0, PopulationEvent::RemoveUniform(5_000))
        .at(8.0, PopulationEvent::Add(2_500));
    let spec = CellSpec {
        n,
        seed: 11,
        horizon: 12.0,
        snapshot_every: 1.0,
        schedule: &schedule,
        init_agents: None,
        init_counts: Some(vec![n as u64 - 1, 1]),
        interaction_budget: None,
    };

    let whole = finished(
        BatchedCountSimulator::run_cell_until(
            Infection::new(),
            &spec,
            &TrackedEstimates,
            f64::INFINITY,
        )
        .unwrap(),
    );
    let ck = paused(
        BatchedCountSimulator::run_cell_until(Infection::new(), &spec, &TrackedEstimates, 5.0)
            .unwrap(),
    );
    assert_eq!(ck.backend(), "batched-count");
    let bytes = ck.to_bytes();
    let loaded = RunCheckpoint::from_bytes(&bytes).unwrap();
    let split = finished(
        BatchedCountSimulator::resume_cell(
            Infection::new(),
            &spec,
            &TrackedEstimates,
            &loaded,
            f64::INFINITY,
        )
        .unwrap(),
    );
    assert_eq!(split, whole, "batched split must replay bit for bit");
}

#[test]
fn a_resumed_run_can_pause_again() {
    // Three legs: 0→5, 5→9, 9→finish. Same result as the whole run.
    let schedule = straddling_schedule();
    let spec = infection_spec(&schedule);
    let whole = finished(
        CountSimulator::run_cell_until(Infection::new(), &spec, &TrackedEstimates, f64::INFINITY)
            .unwrap(),
    );
    let leg1 = paused(
        CountSimulator::run_cell_until(Infection::new(), &spec, &TrackedEstimates, 5.0).unwrap(),
    );
    let leg2 = paused(
        CountSimulator::resume_cell(Infection::new(), &spec, &TrackedEstimates, &leg1, 9.0)
            .unwrap(),
    );
    assert!(leg2.parallel_time() > leg1.parallel_time());
    assert!(leg2.interactions() > leg1.interactions());
    let split = finished(
        CountSimulator::resume_cell(
            Infection::new(),
            &spec,
            &TrackedEstimates,
            &leg2,
            f64::INFINITY,
        )
        .unwrap(),
    );
    assert_eq!(split, whole, "a three-leg split must still be exact");
}

#[test]
fn stopping_past_the_horizon_just_finishes() {
    let schedule = AdversarySchedule::new();
    let spec = infection_spec(&schedule);
    let outcome =
        CountSimulator::run_cell_until(Infection::new(), &spec, &TrackedEstimates, 100.0).unwrap();
    assert!(matches!(outcome, CheckpointOutcome::Finished(_)));
}

/// The watchdog budget binds a checkpointed drive exactly as it binds
/// `run_cell`: a fresh drive that crosses it aborts with a typed error on
/// both count backends instead of silently running to the horizon.
#[test]
fn run_cell_until_honors_the_interaction_budget() {
    let schedule = straddling_schedule();
    let mut spec = infection_spec(&schedule);
    // n = 2 000 spends its 3 000-interaction budget by t ≈ 1.5.
    spec.interaction_budget = Some(3_000);
    let count =
        CountSimulator::run_cell_until(Infection::new(), &spec, &TrackedEstimates, f64::INFINITY);
    let batched = BatchedCountSimulator::run_cell_until(
        Infection::new(),
        &spec,
        &TrackedEstimates,
        f64::INFINITY,
    );
    for (result, name) in [(count, "count"), (batched, "batched-count")] {
        match result.unwrap_err() {
            BackendError::BudgetExhausted {
                backend,
                interactions,
                budget: 3_000,
            } => {
                assert_eq!(backend, name);
                assert!(interactions > 3_000);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }
}

/// A resumed drive keeps metering the run's total interactions: it aborts
/// with the backend's typed error, wrapped in `CheckpointError::Backend`.
#[test]
fn resume_cell_honors_the_interaction_budget() {
    let schedule = straddling_schedule();
    let mut spec = infection_spec(&schedule);
    // About 9 600 interactions by the pause at t = 5 and 21 000 by t = 11.
    spec.interaction_budget = Some(20_000);
    let ck = paused(
        CountSimulator::run_cell_until(Infection::new(), &spec, &TrackedEstimates, 5.0).unwrap(),
    );
    let count = CountSimulator::resume_cell(
        Infection::new(),
        &spec,
        &TrackedEstimates,
        &ck,
        f64::INFINITY,
    );
    let ck = paused(
        BatchedCountSimulator::run_cell_until(Infection::new(), &spec, &TrackedEstimates, 5.0)
            .unwrap(),
    );
    let batched = BatchedCountSimulator::resume_cell(
        Infection::new(),
        &spec,
        &TrackedEstimates,
        &ck,
        f64::INFINITY,
    );
    for (result, name) in [(count, "count"), (batched, "batched-count")] {
        match result.unwrap_err() {
            CheckpointError::Backend(BackendError::BudgetExhausted {
                backend,
                budget: 20_000,
                ..
            }) => assert_eq!(backend, name),
            other => panic!("expected a wrapped BudgetExhausted, got {other:?}"),
        }
    }
}

#[test]
fn malformed_files_yield_typed_errors() {
    let schedule = straddling_schedule();
    let spec = infection_spec(&schedule);
    let ck = paused(
        CountSimulator::run_cell_until(Infection::new(), &spec, &TrackedEstimates, 5.0).unwrap(),
    );
    let good = ck.to_bytes();
    assert_eq!(
        RunCheckpoint::from_bytes(&good).unwrap(),
        ck,
        "the pristine bytes parse back exactly"
    );

    // Not a checkpoint at all.
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        RunCheckpoint::from_bytes(&bad_magic),
        Err(CheckpointError::BadMagic)
    ));

    // A future format version: refused by name, not misparsed.
    let mut future = good.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        RunCheckpoint::from_bytes(&future),
        Err(CheckpointError::UnsupportedVersion { found: 99 })
    ));

    // Cut anywhere in the payload: Truncated, never a panic. Sweep a few
    // cut points including the empty file and a missing checksum tail.
    for cut in [0, 7, 12, good.len() / 2, good.len() - 8, good.len() - 1] {
        assert!(
            matches!(
                RunCheckpoint::from_bytes(&good[..cut]),
                Err(CheckpointError::Truncated)
            ),
            "cut at {cut} must report Truncated"
        );
    }

    // A flipped payload byte (inside the count vector, so the structure
    // still parses): caught by the trailing checksum.
    let mut flipped = good.clone();
    let counts_offset = 8 + 4 + 1 + 8 + 32 + 8 * 7 + 8; // header + fixed fields + counts len
    flipped[counts_offset + 2] ^= 0x40;
    assert!(matches!(
        RunCheckpoint::from_bytes(&flipped),
        Err(CheckpointError::ChecksumMismatch)
    ));

    // Bytes appended after the checksum: structurally refused.
    let mut trailing = good.clone();
    trailing.push(0);
    assert!(matches!(
        RunCheckpoint::from_bytes(&trailing),
        Err(CheckpointError::Corrupt { .. })
    ));

    // Loading a file that does not exist surfaces the I/O error.
    let missing = std::env::temp_dir().join("dsc_ckpt_does_not_exist.bin");
    assert!(matches!(
        RunCheckpoint::load(&missing),
        Err(CheckpointError::Io(_))
    ));
}

/// Decodes `bytes`, turning a panic into a test failure that names `what`.
fn decode_without_panic(bytes: &[u8], what: &str) -> Result<RunCheckpoint, CheckpointError> {
    std::panic::catch_unwind(|| RunCheckpoint::from_bytes(bytes))
        .unwrap_or_else(|_| panic!("decoding panicked on {what}"))
}

#[test]
fn every_truncation_and_bit_flip_is_rejected_without_panicking() {
    let schedule = straddling_schedule();
    let spec = infection_spec(&schedule);
    let ck = paused(
        CountSimulator::run_cell_until(Infection::new(), &spec, &TrackedEstimates, 5.0).unwrap(),
    );
    let good = ck.to_bytes();

    // Every proper prefix is a cut file.
    for cut in 0..good.len() {
        assert!(
            matches!(
                decode_without_panic(&good[..cut], &format!("a cut at {cut}")),
                Err(CheckpointError::Truncated)
            ),
            "cut at {cut} of {} must report Truncated",
            good.len()
        );
    }

    // Every single-bit flip: as found on disk, the magic, version or
    // checksum rejects it. Re-checksummed, the flip reaches the field
    // decoders, which may accept it (a flipped RNG word is still an RNG
    // state) but must never panic.
    for bit in 0..good.len() * 8 {
        let mut flipped = good.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(
            decode_without_panic(&flipped, &format!("raw flip of bit {bit}")).is_err(),
            "raw flip of bit {bit} decoded"
        );
        reseal(&mut flipped);
        let _ = decode_without_panic(&flipped, &format!("resealed flip of bit {bit}"));
    }
}

#[test]
fn save_replaces_torn_files_atomically() {
    let schedule = straddling_schedule();
    let spec = infection_spec(&schedule);
    let ck5 = paused(
        CountSimulator::run_cell_until(Infection::new(), &spec, &TrackedEstimates, 5.0).unwrap(),
    );
    let ck9 = paused(
        CountSimulator::resume_cell(Infection::new(), &spec, &TrackedEstimates, &ck5, 9.0).unwrap(),
    );
    let path = std::env::temp_dir().join(format!("dsc_ckpt_torn_{}.bin", std::process::id()));
    let tmp = std::env::temp_dir().join(format!("dsc_ckpt_torn_{}.bin.tmp", std::process::id()));

    // A stale temp file from a crashed earlier save must not stop a new
    // save, and must not survive it.
    std::fs::write(&tmp, b"crashed mid-write").unwrap();
    ck5.save(&path).unwrap();
    assert!(!tmp.exists(), "save must clean up the temp path it owns");
    assert_eq!(RunCheckpoint::load(&path).unwrap(), ck5);

    // Simulate the torn write a non-atomic saver would leave behind: the
    // file exists but holds only a prefix of a checkpoint.
    let good = std::fs::read(&path).unwrap();
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    assert!(
        matches!(RunCheckpoint::load(&path), Err(CheckpointError::Truncated)),
        "a torn checkpoint is refused by name, never misparsed"
    );

    // Saving over the torn file repairs it in one atomic step.
    ck9.save(&path).unwrap();
    assert!(!tmp.exists());
    assert_eq!(
        RunCheckpoint::load(&path).unwrap(),
        ck9,
        "the replacement is the complete new checkpoint, not a blend"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_pins_backend_and_spec() {
    let schedule = straddling_schedule();
    let spec = infection_spec(&schedule);
    let ck = paused(
        CountSimulator::run_cell_until(Infection::new(), &spec, &TrackedEstimates, 5.0).unwrap(),
    );

    // Wrong backend: a count checkpoint cannot resume on the batched
    // simulator (its trajectory would diverge above the exact threshold).
    assert!(matches!(
        BatchedCountSimulator::resume_cell(
            Infection::new(),
            &spec,
            &TrackedEstimates,
            &ck,
            f64::INFINITY
        ),
        Err(CheckpointError::BackendMismatch {
            expected: "batched-count",
            found: "count"
        })
    ));

    // Wrong protocol: the state space gives it away.
    let chvp_spec = CellSpec {
        n: spec.n,
        seed: spec.seed,
        horizon: spec.horizon,
        snapshot_every: spec.snapshot_every,
        schedule: spec.schedule,
        init_agents: None,
        init_counts: Some({
            let mut counts = vec![0u64; 11];
            counts[10] = spec.n as u64;
            counts
        }),
        interaction_budget: None,
    };
    assert!(matches!(
        CountSimulator::resume_cell(
            BoundedChvp::new(10),
            &chvp_spec,
            &TrackedEstimates,
            &ck,
            f64::INFINITY
        ),
        Err(CheckpointError::StateSpaceMismatch {
            expected: 11,
            found: 2
        })
    ));

    // Spec drift: each divergence is named.
    let mut wrong_seed = infection_spec(&schedule);
    wrong_seed.seed = 8;
    assert!(matches!(
        CountSimulator::resume_cell(
            Infection::new(),
            &wrong_seed,
            &TrackedEstimates,
            &ck,
            f64::INFINITY
        ),
        Err(CheckpointError::SpecMismatch { what: "seed" })
    ));

    let mut wrong_horizon = infection_spec(&schedule);
    wrong_horizon.horizon = 20.0;
    assert!(matches!(
        CountSimulator::resume_cell(
            Infection::new(),
            &wrong_horizon,
            &TrackedEstimates,
            &ck,
            f64::INFINITY
        ),
        Err(CheckpointError::SpecMismatch { what: "horizon" })
    ));

    let other_schedule = AdversarySchedule::new().at(3.0, PopulationEvent::RemoveUniform(199));
    let wrong_schedule = infection_spec(&other_schedule);
    assert!(matches!(
        CountSimulator::resume_cell(
            Infection::new(),
            &wrong_schedule,
            &TrackedEstimates,
            &ck,
            f64::INFINITY
        ),
        Err(CheckpointError::SpecMismatch { what: "schedule" })
    ));
}

/// FNV-1a 64-bit, the checksum the on-disk format ends with.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Recomputes the trailing checksum after an in-place edit, the way a
/// deliberate (not accidental) modification of a checkpoint file would.
fn reseal(bytes: &mut [u8]) {
    let body_end = bytes.len() - 8;
    let checksum = fnv1a64(&bytes[..body_end]);
    bytes[body_end..].copy_from_slice(&checksum.to_le_bytes());
}

#[test]
fn resealed_checkpoints_with_impossible_values_are_typed_errors() {
    let schedule = straddling_schedule();
    let spec = infection_spec(&schedule);
    let ck = paused(
        CountSimulator::run_cell_until(Infection::new(), &spec, &TrackedEstimates, 5.0).unwrap(),
    );
    let good = ck.to_bytes();
    let mut resealed = good.clone();
    reseal(&mut resealed);
    assert_eq!(resealed, good, "resealing untouched bytes is a no-op");

    // Byte offsets of the fixed fields: magic, version, backend tag, seed,
    // RNG state, interactions, then the f64/u64 cursor fields.
    let parallel_time_offset = 8 + 4 + 1 + 8 + 32 + 8;
    let next_event_offset = parallel_time_offset + 8;
    let counts_offset = parallel_time_offset + 8 * 6 + 8;
    let resume = |bytes: &[u8]| {
        RunCheckpoint::from_bytes(bytes).and_then(|loaded| {
            CountSimulator::resume_cell(
                Infection::new(),
                &spec,
                &TrackedEstimates,
                &loaded,
                f64::INFINITY,
            )
        })
    };

    // Counts whose sum wraps u64: the population would overflow on resume.
    let mut wrapped = good.clone();
    wrapped[counts_offset..counts_offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    wrapped[counts_offset + 8..counts_offset + 16].copy_from_slice(&1u64.to_le_bytes());
    reseal(&mut wrapped);
    assert!(matches!(
        resume(&wrapped),
        Err(CheckpointError::Corrupt { .. })
    ));

    // A NaN clock would never reach the horizon.
    let mut nan_clock = good.clone();
    nan_clock[parallel_time_offset..parallel_time_offset + 8]
        .copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    reseal(&mut nan_clock);
    assert!(matches!(
        resume(&nan_clock),
        Err(CheckpointError::Corrupt { .. })
    ));

    // An event cursor past the schedule's end would silently skip events.
    let mut skipped = good.clone();
    let past_end = schedule.events().len() as u64 + 1;
    skipped[next_event_offset..next_event_offset + 8].copy_from_slice(&past_end.to_le_bytes());
    reseal(&mut skipped);
    assert!(matches!(
        resume(&skipped),
        Err(CheckpointError::Corrupt { .. })
    ));
}
