//! Checkpoint/resume for long-horizon count-backend runs.
//!
//! The paper's holding experiments run multi-billion-interaction horizons;
//! at n = 10⁹ a single cell can outlive an invocation. This module lets a
//! [`CountSimulator`]/[`BatchedCountSimulator`] cell pause at a snapshot
//! boundary, serialize everything the run depends on — per-state counts,
//! the xoshiro256++ generator state, the interaction and parallel-time
//! clocks, the pending schedule position, and the snapshot rows collected
//! so far — and resume later (in a different process) **bit-identically**:
//! the split run's rows are byte-for-byte the uninterrupted run's.
//!
//! # Why the split is exact
//!
//! The drive loop advances in `parallel_time + (boundary − parallel_time)`
//! float arithmetic, so identical rows require identical boundary
//! sequences. [`Checkpointable::run_cell_until`] therefore pauses *only at
//! the loop's own snapshot-grid boundaries* — right after a row is pushed —
//! never mid-span. A resumed run re-enters the loop at exactly that
//! boundary with the same cursor, clocks, counts, and RNG words, so every
//! subsequent float target, step count, and RNG draw matches the
//! uninterrupted run. Derived sampler state deliberately isn't serialized:
//! it rebuilds from the counts (see [`CountSimulator::restore`] /
//! [`BatchedCountSimulator::restore`] for why that is trajectory-neutral).
//!
//! # File contract (version 1)
//!
//! A little-endian binary format: an 8-byte magic (`DSC-CKPT`), a `u32`
//! format version, the payload, and a trailing FNV-1a-64 checksum over
//! everything before it. The payload pins the backend, the cell's seed,
//! horizon, snapshot interval, and a digest of the schedule: resuming
//! against a different spec is a typed [`CheckpointError`], because the
//! bit-identity guarantee only holds for the run the checkpoint came from.
//! Any format change bumps [`CHECKPOINT_VERSION`]; readers reject other
//! versions instead of guessing.
//!
//! # Examples
//!
//! ```
//! use pp_sim::checkpoint::{Checkpointable, CheckpointOutcome};
//! use pp_sim::{AdversarySchedule, Backend, CellSpec, CountSimulator, ScannedEstimates};
//! # use pp_model::{FiniteProtocol, Protocol, SizeEstimator};
//! # use rand::Rng;
//! # #[derive(Clone)] struct Or;
//! # impl Protocol for Or {
//! #     type State = bool;
//! #     fn initial_state(&self) -> bool { false }
//! #     fn interact<R: Rng + ?Sized>(&self, u: &mut bool, v: &mut bool, _: &mut R) { *u = *u || *v; }
//! # }
//! # impl FiniteProtocol for Or {
//! #     fn num_states(&self) -> usize { 2 }
//! #     fn state_index(&self, s: &bool) -> usize { usize::from(*s) }
//! #     fn state_from_index(&self, i: usize) -> bool { i == 1 }
//! # }
//! # impl SizeEstimator for Or {
//! #     fn estimate_log2(&self, s: &bool) -> Option<f64> { s.then_some(1.0) }
//! # }
//! let schedule = AdversarySchedule::new();
//! let spec = CellSpec {
//!     n: 200, seed: 7, horizon: 10.0, snapshot_every: 1.0,
//!     schedule: &schedule, init_agents: None, init_counts: None,
//!     interaction_budget: None,
//! };
//! // Pause at t = 5, then resume to the horizon.
//! let paused = CountSimulator::run_cell_until(Or, &spec, &ScannedEstimates, 5.0).unwrap();
//! let CheckpointOutcome::Paused(ckpt) = paused else { panic!("should pause") };
//! let resumed = CountSimulator::resume_cell(Or, &spec, &ScannedEstimates, &ckpt, f64::INFINITY)
//!     .unwrap();
//! let CheckpointOutcome::Finished(split) = resumed else { panic!("should finish") };
//! // Identical to never having paused:
//! let whole = CountSimulator::run_cell(Or, &spec, &ScannedEstimates).unwrap();
//! assert_eq!(split, whole);
//! ```

use crate::backend::{
    drive_schedule_guarded, initial_counts, reject_agent_features, validate_schedule, Backend,
    BackendError, CellSpec, CountBackend, CountDriver, DriveCursor,
};
use crate::batched_sim::BatchedCountSimulator;
use crate::count_sim::CountSimulator;
use crate::recording::Recording;
use crate::series::{EstimateSummary, MemorySummary, RunResult, Snapshot};
use pp_model::{DeterministicProtocol, FiniteProtocol, SizeEstimator};
use rand::rngs::SmallRng;
use std::fmt;
use std::marker::PhantomData;
use std::path::Path;

/// Current on-disk format version; readers reject any other.
pub const CHECKPOINT_VERSION: u32 = 1;

const MAGIC: [u8; 8] = *b"DSC-CKPT";

/// Why a checkpoint could not be written, read, or resumed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic — not a
    /// checkpoint at all.
    BadMagic,
    /// The file is a checkpoint, but of a format version this build does
    /// not read.
    UnsupportedVersion {
        /// The version the file declares.
        found: u32,
    },
    /// The file ends before the declared payload does.
    Truncated,
    /// The payload parsed but its trailing checksum does not match —
    /// bytes were corrupted in place.
    ChecksumMismatch,
    /// A structurally impossible payload value.
    Corrupt {
        /// What was impossible.
        what: &'static str,
    },
    /// The checkpoint was taken on a different backend than the one
    /// resuming it.
    BackendMismatch {
        /// Backend attempting the resume.
        expected: &'static str,
        /// Backend recorded in the checkpoint.
        found: &'static str,
    },
    /// The checkpoint's per-state counts do not match the resuming
    /// protocol's state space.
    StateSpaceMismatch {
        /// `num_states()` of the resuming protocol.
        expected: usize,
        /// Count-vector length recorded in the checkpoint.
        found: usize,
    },
    /// The resuming [`CellSpec`] differs from the one the checkpoint was
    /// taken under (seed, horizon, snapshot interval, or schedule) — the
    /// bit-identity guarantee would not hold.
    SpecMismatch {
        /// Which spec field differs.
        what: &'static str,
    },
    /// The resumed drive itself failed — e.g. it crossed the spec's
    /// [`CellSpec::interaction_budget`].
    Backend(BackendError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads {CHECKPOINT_VERSION})"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Corrupt { what } => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::BackendMismatch { expected, found } => write!(
                f,
                "checkpoint was taken on the {found} backend, cannot resume on {expected}"
            ),
            CheckpointError::StateSpaceMismatch { expected, found } => write!(
                f,
                "checkpoint holds {found} state counts but the protocol has {expected} states"
            ),
            CheckpointError::SpecMismatch { what } => {
                write!(f, "resume spec differs from the checkpointed run: {what}")
            }
            CheckpointError::Backend(e) => write!(f, "resumed run failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Backend(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// One write-fsync-rename cycle: the only sequence that guarantees `path`
/// always holds a complete checkpoint (old or new) across a crash.
fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Best-effort cleanup; the original error is what matters.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// I/O error kinds worth retrying: the call may succeed moments later.
fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// FNV-1a 64-bit, the same digest the run artifacts use for content checks.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Digest of a schedule's timed events, pinning a checkpoint to the exact
/// schedule it ran under.
fn schedule_digest(schedule: &crate::adversary::AdversarySchedule) -> u64 {
    let mut bytes = Vec::with_capacity(schedule.len() * 17);
    for e in schedule.events() {
        bytes.extend_from_slice(&e.at.to_bits().to_le_bytes());
        let (tag, value) = match e.event {
            crate::adversary::PopulationEvent::ResizeTo(v) => (0u8, v),
            crate::adversary::PopulationEvent::Add(v) => (1, v),
            crate::adversary::PopulationEvent::RemoveUniform(v) => (2, v),
            crate::adversary::PopulationEvent::RemoveLargestEstimates(v) => (3, v),
        };
        bytes.push(tag);
        bytes.extend_from_slice(&(value as u64).to_le_bytes());
    }
    fnv1a(&bytes)
}

/// A paused run: simulator state + drive-loop cursor, serializable to the
/// versioned on-disk format described in the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct RunCheckpoint {
    backend_tag: u8,
    seed: u64,
    rng_state: [u64; 4],
    interactions: u64,
    parallel_time: f64,
    next_event: u64,
    next_snapshot: f64,
    horizon: f64,
    snapshot_every: f64,
    schedule_digest: u64,
    counts: Vec<u64>,
    snapshots: Vec<Snapshot>,
}

impl RunCheckpoint {
    /// [`Backend::NAME`] of the backend the checkpoint was taken on.
    pub fn backend(&self) -> &'static str {
        backend_name(self.backend_tag).expect("decoded and written tags are known")
    }

    /// Parallel time at which the run paused.
    pub fn parallel_time(&self) -> f64 {
        self.parallel_time
    }

    /// Interactions simulated before the pause.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Snapshot rows collected before the pause.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// Serializes to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + 8 * self.counts.len() + 64 * self.snapshots.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.push(self.backend_tag);
        out.extend_from_slice(&self.seed.to_le_bytes());
        for w in self.rng_state {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&self.interactions.to_le_bytes());
        out.extend_from_slice(&self.parallel_time.to_bits().to_le_bytes());
        out.extend_from_slice(&self.next_event.to_le_bytes());
        out.extend_from_slice(&self.next_snapshot.to_bits().to_le_bytes());
        out.extend_from_slice(&self.horizon.to_bits().to_le_bytes());
        out.extend_from_slice(&self.snapshot_every.to_bits().to_le_bytes());
        out.extend_from_slice(&self.schedule_digest.to_le_bytes());
        out.extend_from_slice(&(self.counts.len() as u64).to_le_bytes());
        for &c in &self.counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&(self.snapshots.len() as u64).to_le_bytes());
        for s in &self.snapshots {
            out.extend_from_slice(&s.parallel_time.to_bits().to_le_bytes());
            out.extend_from_slice(&s.interactions.to_le_bytes());
            out.extend_from_slice(&(s.n as u64).to_le_bytes());
            match s.estimates {
                Some(e) => {
                    out.push(1);
                    for v in [e.min, e.median, e.max, e.mean] {
                        out.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                    out.extend_from_slice(&e.without_estimate.to_le_bytes());
                }
                None => out.push(0),
            }
            match s.memory {
                Some(m) => {
                    out.push(1);
                    out.extend_from_slice(&m.max_bits.to_le_bytes());
                    out.extend_from_slice(&m.mean_bits.to_bits().to_le_bytes());
                }
                None => out.push(0),
            }
        }
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses the versioned binary format, reporting every malformation as
    /// a typed [`CheckpointError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(8)? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes"));
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let backend_tag = r.u8()?;
        if backend_name(backend_tag).is_none() {
            return Err(CheckpointError::Corrupt {
                what: "unknown backend tag",
            });
        }
        let seed = r.u64()?;
        let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let interactions = r.u64()?;
        let parallel_time = f64::from_bits(r.u64()?);
        let next_event = r.u64()?;
        let next_snapshot = f64::from_bits(r.u64()?);
        let horizon = f64::from_bits(r.u64()?);
        let snapshot_every = f64::from_bits(r.u64()?);
        let schedule_digest = r.u64()?;
        let n_counts = r.len()?;
        let mut counts = Vec::with_capacity(n_counts);
        for _ in 0..n_counts {
            counts.push(r.u64()?);
        }
        let n_snapshots = r.len()?;
        let mut snapshots = Vec::with_capacity(n_snapshots);
        for _ in 0..n_snapshots {
            let parallel_time = f64::from_bits(r.u64()?);
            let interactions = r.u64()?;
            let n = r.u64()? as usize;
            let estimates = match r.u8()? {
                0 => None,
                1 => Some(EstimateSummary {
                    min: f64::from_bits(r.u64()?),
                    median: f64::from_bits(r.u64()?),
                    max: f64::from_bits(r.u64()?),
                    mean: f64::from_bits(r.u64()?),
                    without_estimate: r.u64()?,
                }),
                _ => {
                    return Err(CheckpointError::Corrupt {
                        what: "estimate flag is neither 0 nor 1",
                    })
                }
            };
            let memory = match r.u8()? {
                0 => None,
                1 => Some(MemorySummary {
                    max_bits: u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes")),
                    mean_bits: f64::from_bits(r.u64()?),
                }),
                _ => {
                    return Err(CheckpointError::Corrupt {
                        what: "memory flag is neither 0 nor 1",
                    })
                }
            };
            snapshots.push(Snapshot {
                parallel_time,
                interactions,
                n,
                estimates,
                memory,
            });
        }
        let body_end = r.pos;
        let stored = u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes"));
        if r.pos != bytes.len() {
            return Err(CheckpointError::Corrupt {
                what: "trailing bytes after checksum",
            });
        }
        if fnv1a(&bytes[..body_end]) != stored {
            return Err(CheckpointError::ChecksumMismatch);
        }
        // The checksum only catches accidental damage: a file edited and
        // re-checksummed still gets here, so values the resume path would
        // overflow on or loop forever over are refused by name.
        if counts
            .iter()
            .try_fold(0u64, |acc, &c| acc.checked_add(c))
            .is_none()
        {
            return Err(CheckpointError::Corrupt {
                what: "state counts sum past u64::MAX",
            });
        }
        if ![parallel_time, next_snapshot, horizon, snapshot_every]
            .iter()
            .all(|t| t.is_finite())
        {
            return Err(CheckpointError::Corrupt {
                what: "non-finite clock or snapshot-grid value",
            });
        }
        Ok(RunCheckpoint {
            backend_tag,
            seed,
            rng_state,
            interactions,
            parallel_time,
            next_event,
            next_snapshot,
            horizon,
            snapshot_every,
            schedule_digest,
            counts,
            snapshots,
        })
    }

    /// Writes the checkpoint to `path`, crash-safely: the bytes go to a
    /// sibling temp file first, are fsynced, and only then renamed over
    /// `path`, so a crash mid-save leaves either the old checkpoint or the
    /// new one — never a torn file. Transient I/O errors (interrupted,
    /// would-block, timed out) are retried a bounded number of times
    /// before surfacing as [`CheckpointError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let bytes = self.to_bytes();
        const ATTEMPTS: usize = 3;
        let mut last = None;
        for _ in 0..ATTEMPTS {
            match write_atomically(path, &bytes) {
                Ok(()) => return Ok(()),
                Err(e) if is_transient(&e) => last = Some(e),
                Err(e) => return Err(CheckpointError::Io(e)),
            }
        }
        Err(CheckpointError::Io(last.expect("retried at least once")))
    }

    /// Reads a checkpoint back from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Pins the resuming backend `C` and spec to the checkpointed ones.
    fn check_spec<C: CountBackend, S>(
        &self,
        num_states: usize,
        spec: &CellSpec<'_, S>,
    ) -> Result<(), CheckpointError> {
        if self.backend_tag != C::CHECKPOINT_TAG {
            return Err(CheckpointError::BackendMismatch {
                expected: C::NAME,
                found: self.backend(),
            });
        }
        if self.counts.len() != num_states {
            return Err(CheckpointError::StateSpaceMismatch {
                expected: num_states,
                found: self.counts.len(),
            });
        }
        if spec.seed != self.seed {
            return Err(CheckpointError::SpecMismatch { what: "seed" });
        }
        if spec.horizon.to_bits() != self.horizon.to_bits() {
            return Err(CheckpointError::SpecMismatch { what: "horizon" });
        }
        if spec.snapshot_every.to_bits() != self.snapshot_every.to_bits() {
            return Err(CheckpointError::SpecMismatch {
                what: "snapshot interval",
            });
        }
        if schedule_digest(spec.schedule) != self.schedule_digest {
            return Err(CheckpointError::SpecMismatch { what: "schedule" });
        }
        if self.next_event > spec.schedule.events().len() as u64 {
            return Err(CheckpointError::Corrupt {
                what: "event cursor past the end of the schedule",
            });
        }
        Ok(())
    }
}

/// The [`Backend::NAME`] of the count backend a checkpoint tag denotes.
fn backend_name(tag: u8) -> Option<&'static str> {
    type Count = CountSimulator<DummyProtocol>;
    type Batched = BatchedCountSimulator<DummyProtocol>;
    match tag {
        Count::CHECKPOINT_TAG => Some(Count::NAME),
        Batched::CHECKPOINT_TAG => Some(Batched::NAME),
        _ => None,
    }
}

/// A finite protocol stand-in used only to read backend consts.
#[derive(Clone)]
struct DummyProtocol;
impl pp_model::Protocol for DummyProtocol {
    type State = bool;
    fn initial_state(&self) -> bool {
        false
    }
    fn interact<R: rand::Rng + ?Sized>(&self, _: &mut bool, _: &mut bool, _: &mut R) {}
}
impl FiniteProtocol for DummyProtocol {
    fn num_states(&self) -> usize {
        1
    }
    fn state_index(&self, _: &bool) -> usize {
        0
    }
    fn state_from_index(&self, _: usize) -> bool {
        false
    }
}
impl SizeEstimator for DummyProtocol {
    fn estimate_log2(&self, _: &bool) -> Option<f64> {
        None
    }
}
impl DeterministicProtocol for DummyProtocol {}

/// How a checkpointed drive ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointOutcome {
    /// The horizon was reached; the run is complete.
    Finished(RunResult),
    /// The drive paused at a snapshot boundary at or past the requested
    /// stop time; resume later with [`Checkpointable::resume_cell`].
    Paused(RunCheckpoint),
}

/// Checkpoint/resume driver, implemented by the two count backends.
///
/// `stop_after` names a parallel time: the drive pauses at the first
/// snapshot-grid point at or past it (so the pause always lands on a
/// boundary the uninterrupted run also hits — the bit-identity
/// precondition; see the [module docs](self)). `f64::INFINITY` never
/// pauses. Both entry points honor [`CellSpec::interaction_budget`] like
/// [`Backend::run_cell`] does.
pub trait Checkpointable: Backend {
    /// Runs `spec` from the start, pausing at `stop_after`.
    fn run_cell_until<R>(
        protocol: Self::Protocol,
        spec: &CellSpec<'_, Self::State>,
        recording: &R,
        stop_after: f64,
    ) -> Result<CheckpointOutcome, BackendError>
    where
        R: Recording<Self::Protocol>;

    /// Resumes a paused run, itself pausable at a further `stop_after`.
    fn resume_cell<R>(
        protocol: Self::Protocol,
        spec: &CellSpec<'_, Self::State>,
        recording: &R,
        checkpoint: &RunCheckpoint,
        stop_after: f64,
    ) -> Result<CheckpointOutcome, CheckpointError>
    where
        R: Recording<Self::Protocol>;
}

impl<P> Checkpointable for CountSimulator<P>
where
    P: FiniteProtocol + SizeEstimator,
{
    fn run_cell_until<R>(
        protocol: P,
        spec: &CellSpec<'_, P::State>,
        _recording: &R,
        stop_after: f64,
    ) -> Result<CheckpointOutcome, BackendError>
    where
        R: Recording<P>,
    {
        run_count_cell_until::<Self, R>(protocol, spec, stop_after)
    }

    fn resume_cell<R>(
        protocol: P,
        spec: &CellSpec<'_, P::State>,
        _recording: &R,
        checkpoint: &RunCheckpoint,
        stop_after: f64,
    ) -> Result<CheckpointOutcome, CheckpointError>
    where
        R: Recording<P>,
    {
        resume_count_cell::<Self, R>(protocol, spec, checkpoint, stop_after)
    }
}

impl<P> Checkpointable for BatchedCountSimulator<P>
where
    P: DeterministicProtocol + SizeEstimator,
{
    fn run_cell_until<R>(
        protocol: P,
        spec: &CellSpec<'_, P::State>,
        _recording: &R,
        stop_after: f64,
    ) -> Result<CheckpointOutcome, BackendError>
    where
        R: Recording<P>,
    {
        run_count_cell_until::<Self, R>(protocol, spec, stop_after)
    }

    fn resume_cell<R>(
        protocol: P,
        spec: &CellSpec<'_, P::State>,
        _recording: &R,
        checkpoint: &RunCheckpoint,
        stop_after: f64,
    ) -> Result<CheckpointOutcome, CheckpointError>
    where
        R: Recording<P>,
    {
        resume_count_cell::<Self, R>(protocol, spec, checkpoint, stop_after)
    }
}

/// The one `run_cell_until` body behind both count backends (and, with an
/// infinite `stop_after`, their `run_cell`).
pub(crate) fn run_count_cell_until<C, R>(
    protocol: C::Protocol,
    spec: &CellSpec<'_, C::State>,
    stop_after: f64,
) -> Result<CheckpointOutcome, BackendError>
where
    C: CountBackend,
    R: Recording<C::Protocol>,
{
    reject_agent_features::<C::Protocol, R, _>(C::NAME, spec)?;
    validate_schedule(C::NAME, spec, C::SUPPORTS_EMPTY_POPULATION)?;
    let counts = initial_counts(C::NAME, &protocol, spec)?;
    drive_count_cell::<C, R>(
        C::from_counts(protocol, counts, spec.seed),
        None,
        spec,
        stop_after,
    )
}

/// The one `resume_cell` body behind both count backends.
fn resume_count_cell<C, R>(
    protocol: C::Protocol,
    spec: &CellSpec<'_, C::State>,
    checkpoint: &RunCheckpoint,
    stop_after: f64,
) -> Result<CheckpointOutcome, CheckpointError>
where
    C: CountBackend,
    R: Recording<C::Protocol>,
{
    checkpoint.check_spec::<C, _>(protocol.num_states(), spec)?;
    let sim = C::restore(
        protocol,
        checkpoint.counts.clone(),
        SmallRng::from_state(checkpoint.rng_state),
        checkpoint.interactions,
        checkpoint.parallel_time,
    );
    // The t = 0 snapshot and time-zero events fired before the pause.
    let cursor = DriveCursor {
        next_event: checkpoint.next_event as usize,
        next_snapshot: checkpoint.next_snapshot,
        snapshots: checkpoint.snapshots.clone(),
    };
    drive_count_cell::<C, R>(sim, Some(cursor), spec, stop_after).map_err(CheckpointError::Backend)
}

/// Drives a count cell from `cursor` (a fresh start when `None`) and
/// packages the end state: a finished [`RunResult`], or a
/// [`RunCheckpoint`] when the drive paused.
fn drive_count_cell<C, R>(
    mut sim: C,
    cursor: Option<DriveCursor>,
    spec: &CellSpec<'_, C::State>,
    stop_after: f64,
) -> Result<CheckpointOutcome, BackendError>
where
    C: CountBackend,
    R: Recording<C::Protocol>,
{
    let mut driver = CountDriver::<C, R> {
        sim: &mut sim,
        _plan: PhantomData,
    };
    let mut cursor = cursor.unwrap_or_else(|| DriveCursor::fresh(&mut driver, spec));
    let finished = drive_schedule_guarded(
        &mut driver,
        &mut cursor,
        spec,
        &[],
        &mut |_, _| {},
        stop_after,
    )?;
    Ok(if finished {
        CheckpointOutcome::Finished(RunResult {
            seed: spec.seed,
            snapshots: cursor.snapshots,
            ticks: Vec::new(),
            recovery: Vec::new(),
            final_n: sim.population() as usize,
        })
    } else {
        CheckpointOutcome::Paused(RunCheckpoint {
            backend_tag: C::CHECKPOINT_TAG,
            seed: spec.seed,
            rng_state: sim.rng_state(),
            interactions: sim.interactions(),
            parallel_time: sim.parallel_time(),
            next_event: cursor.next_event as u64,
            next_snapshot: cursor.next_snapshot,
            horizon: spec.horizon,
            snapshot_every: spec.snapshot_every,
            schedule_digest: schedule_digest(spec.schedule),
            counts: sim.counts().to_vec(),
            snapshots: cursor.snapshots,
        })
    })
}

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A length field, sanity-capped so a corrupt length cannot trigger a
    /// huge allocation before the bounds checks catch it.
    fn len(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if v > remaining {
            return Err(CheckpointError::Truncated);
        }
        Ok(v as usize)
    }
}
