//! Split a long holding-scale run across a checkpoint file and prove the
//! rows come back byte-identical.
//!
//! ```sh
//! cargo run --release --example checkpoint_resume            # n = 10^8, both legs
//! cargo run --release --example checkpoint_resume -- --smoke # n = 2^20
//! # Or literally split across two invocations:
//! cargo run --release --example checkpoint_resume -- --leg1  # run to the cut, save
//! cargo run --release --example checkpoint_resume -- --leg2  # load, finish, compare
//! ```
//!
//! The tentpole claim of the checkpoint layer: a multi-billion-interaction
//! run can be cut at a snapshot boundary, serialized to the versioned
//! `DSC-CKPT` file, and resumed later — in another process — with the
//! resumed half replaying *bit for bit* what the uninterrupted run would
//! have produced. `--leg1` runs to the cut and saves
//! `checkpoint_resume.ckpt`; `--leg2` (a separate process) loads it,
//! finishes the run, re-runs the uninterrupted control, renders every
//! snapshot to its CSV row text, and compares the row bytes. With neither
//! flag both legs run in one process (still through the on-disk file).
//! Adversary events sit on both sides of the cut on purpose.
//!
//! The comparing leg emits `CHECKPOINT.json` (or `CHECKPOINT_smoke.json`
//! under `--smoke`) summarizing the round trip for CI schema checks.

use dynamic_size_counting::protocols::Infection;
use dynamic_size_counting::sim::{
    AdversarySchedule, BatchedCountSimulator, CellSpec, CheckpointOutcome, Checkpointable,
    PopulationEvent, RunCheckpoint, RunResult, ScannedEstimates, CHECKPOINT_VERSION,
};

const CKPT_FILE: &str = "checkpoint_resume.ckpt";

/// Render a run's snapshots as CSV rows, with `{:?}` float formatting
/// (shortest round-trip representation) so equal text means equal bits.
fn rows(result: &RunResult) -> Vec<String> {
    result
        .snapshots
        .iter()
        .map(|s| {
            let e = s
                .estimates
                .expect("the estimate plan always records estimates");
            format!(
                "{:?},{},{},{:?},{:?},{}",
                s.parallel_time, s.interactions, s.n, e.max, e.mean, e.without_estimate
            )
        })
        .collect()
}

fn finished(outcome: CheckpointOutcome) -> RunResult {
    match outcome {
        CheckpointOutcome::Finished(r) => r,
        CheckpointOutcome::Paused(c) => panic!(
            "run paused at pt {} instead of finishing",
            c.parallel_time()
        ),
    }
}

/// The holding-scale cell: long horizon, population far beyond the
/// agent-array backends, adversary events on both sides of the cut. Both
/// invocations rebuild the identical spec — the checkpoint refuses to
/// resume under anything else.
struct Story {
    n: usize,
    horizon: f64,
    pause: f64,
    seed: u64,
    schedule: AdversarySchedule,
}

impl Story {
    fn new(smoke: bool) -> Self {
        let (n, horizon, pause) = if smoke {
            (1usize << 20, 64.0, 32.0)
        } else {
            (100_000_000usize, 256.0, 128.0)
        };
        let schedule = AdversarySchedule::new()
            .at(horizon * 0.2, PopulationEvent::RemoveUniform(n / 4))
            .at(horizon * 0.7, PopulationEvent::Add(n / 8));
        Story {
            n,
            horizon,
            pause,
            seed: 2024,
            schedule,
        }
    }

    fn spec(&self) -> CellSpec<'_, bool> {
        CellSpec {
            n: self.n,
            seed: self.seed,
            horizon: self.horizon,
            snapshot_every: 1.0,
            schedule: &self.schedule,
            init_agents: None,
            init_counts: Some(vec![self.n as u64 - 1, 1]),
            interaction_budget: None,
        }
    }

    /// Leg 1: run from the start to the cut, serialize to `CKPT_FILE`.
    fn save_leg(&self) -> u64 {
        let ck = match BatchedCountSimulator::run_cell_until(
            Infection::new(),
            &self.spec(),
            &ScannedEstimates,
            self.pause,
        )
        .expect("spec is valid")
        {
            CheckpointOutcome::Paused(ck) => ck,
            CheckpointOutcome::Finished(_) => unreachable!("pause is well before the horizon"),
        };
        ck.save(CKPT_FILE).expect("checkpoint writes");
        let bytes = std::fs::metadata(CKPT_FILE)
            .expect("checkpoint exists")
            .len();
        println!(
            "leg 1 paused at pt {:.1} after {} interactions; {bytes} bytes in {CKPT_FILE}",
            ck.parallel_time(),
            ck.interactions()
        );
        bytes
    }

    /// Leg 2: a fresh simulator resumes from the file alone, then the
    /// uninterrupted control runs for the byte-level row comparison.
    fn resume_and_compare(&self, smoke: bool, checkpoint_bytes: u64) {
        let spec = self.spec();
        let loaded = RunCheckpoint::load(CKPT_FILE).expect("checkpoint reads back");
        let split = finished(
            BatchedCountSimulator::resume_cell(
                Infection::new(),
                &spec,
                &ScannedEstimates,
                &loaded,
                f64::INFINITY,
            )
            .expect("resume spec matches"),
        );
        let _ = std::fs::remove_file(CKPT_FILE);

        let t0 = std::time::Instant::now();
        let whole = finished(
            BatchedCountSimulator::run_cell_until(
                Infection::new(),
                &spec,
                &ScannedEstimates,
                f64::INFINITY,
            )
            .expect("spec is valid"),
        );
        let whole_wall = t0.elapsed().as_secs_f64();

        let whole_rows = rows(&whole);
        let split_rows = rows(&split);
        let rows_match = whole_rows == split_rows && whole.final_n == split.final_n;
        println!(
            "rows: {} uninterrupted vs {} split — byte-identical: {rows_match}",
            whole_rows.len(),
            split_rows.len()
        );

        let json_path = if smoke {
            "CHECKPOINT_smoke.json"
        } else {
            "CHECKPOINT.json"
        };
        let json = format!(
            "{{\n  \"version\": {CHECKPOINT_VERSION},\n  \"n\": {},\n  \"horizon_pt\": {},\n  \"pause_pt\": {},\n  \"master_seed\": {},\n  \"checkpoint_bytes\": {checkpoint_bytes},\n  \"rows\": {},\n  \"rows_match\": {rows_match},\n  \"whole_wall_seconds\": {whole_wall:.3}\n}}\n",
            self.n,
            self.horizon,
            self.pause,
            self.seed,
            whole_rows.len()
        );
        std::fs::write(json_path, json).expect("summary JSON writes");
        println!("wrote {json_path}");

        assert!(rows_match, "split run diverged from the uninterrupted run");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let leg1 = args.iter().any(|a| a == "--leg1");
    let leg2 = args.iter().any(|a| a == "--leg2");
    let story = Story::new(smoke);
    println!(
        "n = {}, horizon = {} pt, cutting at pt {} (seed {})",
        story.n, story.horizon, story.pause, story.seed
    );
    if leg1 {
        story.save_leg();
    } else if leg2 {
        let bytes = std::fs::metadata(CKPT_FILE)
            .expect("run --leg1 first: checkpoint file missing")
            .len();
        story.resume_and_compare(smoke, bytes);
    } else {
        let bytes = story.save_leg();
        story.resume_and_compare(smoke, bytes);
    }
}
