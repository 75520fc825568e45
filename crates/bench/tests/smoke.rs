//! Registry-driven smoke coverage: every registered experiment must
//! complete in seconds at `--smoke` scale, emit at least one data row, and
//! produce bit-identical rows whatever the worker thread count — the
//! `Sweep` engine's determinism contract, asserted end to end through the
//! experiment layer and the one generic `Sweep::run_on` driver every
//! experiment executes on. The rows are also pinned: each smoke CSV's row
//! count and FNV-1a-64 digest (over the bytes the CSV writer emits) must
//! match `smoke_digests.txt`, so a change that moves any row fails here
//! and names the CSVs it moved.
//!
//! A change that moves rows on purpose regenerates the file with
//! `cargo test -p pp_bench --test smoke print_smoke_digests -- --ignored`
//! and names each moved CSV, with its evidence, in the same
//! change.

use pp_analysis::TableSpec;
use pp_bench::experiments::{self, REGISTRY};
use pp_bench::Scale;

/// The committed `file rows digest` line of every smoke CSV, in registry
/// order.
const SMOKE_DIGESTS: &str = include_str!("smoke_digests.txt");

/// A per-test output directory under the system temp dir.
fn smoke_scale(test: &str) -> Scale {
    let dir = std::env::temp_dir().join(format!("pp_bench_smoke_{}_{test}", std::process::id()));
    Scale::smoke(dir.to_str().expect("utf-8 temp path"))
}

/// A table's line in `smoke_digests.txt`.
fn digest_line(table: &TableSpec) -> String {
    format!(
        "{} {} {:016x}",
        table.file,
        table.rows.len(),
        table.digest()
    )
}

/// Every registered experiment's smoke tables, run on `threads` workers.
fn smoke_tables(threads: usize) -> Vec<(&'static str, Vec<TableSpec>)> {
    REGISTRY
        .iter()
        .map(|spec| {
            let mut scale = smoke_scale(spec.name);
            scale.threads = threads;
            (spec.name, (spec.run)(&scale))
        })
        .collect()
}

/// Every registered experiment emits rows under `--smoke`, declares its
/// backend and recording plan, the rows are row-for-row identical between
/// 1 and 4 worker threads, and every table matches its committed digest.
#[test]
fn every_registered_experiment_emits_deterministic_rows() {
    let serial = smoke_tables(1);
    for (spec, (name, tables)) in REGISTRY.iter().zip(&serial) {
        assert!(
            !spec.backend.is_empty() && !spec.recording.is_empty(),
            "{name}: the registry must be self-describing (backend + recording)"
        );
        let total_rows: usize = tables.iter().map(|t| t.rows.len()).sum();
        assert!(
            total_rows >= 1,
            "{name}: smoke run must emit at least one data row"
        );
        for table in tables {
            assert!(
                !table.headers.is_empty(),
                "{name}: {} must have headers",
                table.file
            );
        }
    }
    for ((name, tables), (_, parallel)) in serial.iter().zip(smoke_tables(4)) {
        assert_eq!(
            *tables, parallel,
            "{name}: rows must be bit-identical across thread counts"
        );
    }

    let lines: Vec<String> = serial
        .iter()
        .flat_map(|(_, tables)| tables.iter().map(digest_line))
        .collect();
    let pinned: Vec<&str> = SMOKE_DIGESTS.lines().collect();
    let moved: Vec<&str> = lines
        .iter()
        .filter(|line| !pinned.contains(&line.as_str()))
        .map(|line| line.split(' ').next().expect("a file name"))
        .collect();
    assert!(
        moved.is_empty(),
        "smoke rows moved in {moved:?}; regenerate smoke_digests.txt with \
         print_smoke_digests only for an intended change"
    );
    assert_eq!(
        lines, pinned,
        "smoke tables were added, dropped or reordered"
    );
}

/// Rewrites `smoke_digests.txt` from the current code and prints it (run
/// with `cargo test -p pp_bench --test smoke print_smoke_digests --
/// --ignored`, only after an intended row change).
#[test]
#[ignore = "generator, not a check: rewrites smoke_digests.txt"]
fn print_smoke_digests() {
    let text: String = smoke_tables(1)
        .iter()
        .flat_map(|(_, tables)| tables.iter().map(|t| digest_line(t) + "\n"))
        .collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/smoke_digests.txt");
    std::fs::write(path, &text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("{text}");
}

/// The full emission pipeline: running through the registry entry point
/// writes every returned table as a readable, non-empty CSV file.
#[test]
fn run_and_write_emits_csv_for_every_table() {
    let scale = smoke_scale("write_pipeline");
    let spec = experiments::find("holding").expect("holding is registered");
    let tables = experiments::run_and_write(spec, &scale);
    assert!(!tables.is_empty());
    for table in &tables {
        let path = scale.out_path(&table.file);
        let contents = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path} should have been written: {e}"));
        let lines: Vec<&str> = contents.lines().collect();
        assert!(
            lines.len() >= 2,
            "{path} should have a header and at least one data row"
        );
        assert_eq!(
            lines[0],
            table.headers.join(","),
            "{path} header must match the table spec"
        );
        assert_eq!(lines.len(), table.rows.len() + 1);
    }
    let _ = std::fs::remove_dir_all(&scale.out_dir);
}

/// `--trace NAME` (or a bare trace name on the `dsc-bench` command line)
/// restricts the scenario experiment to one catalog entry; without it the
/// whole built-in catalog emits a row per trace.
#[test]
fn scenario_trace_flag_restricts_the_catalog() {
    let spec = experiments::find("scenario").expect("scenario is registered");

    let mut one = smoke_scale("scenario_one_trace");
    one.trace = Some("flash_crowd".into());
    let tables = (spec.run)(&one);
    let rows: Vec<&Vec<String>> = tables.iter().flat_map(|t| t.rows.iter()).collect();
    assert!(!rows.is_empty());
    assert!(
        rows.iter().all(|r| r[0] == "flash_crowd"),
        "--trace must restrict the run to the named trace"
    );

    let all = smoke_scale("scenario_catalog");
    let tables = (spec.run)(&all);
    let rows: Vec<&Vec<String>> = tables.iter().flat_map(|t| t.rows.iter()).collect();
    for name in pp_sim::BUILTIN_TRACES {
        assert!(
            rows.iter().any(|r| r[0] == name),
            "catalog run must emit a {name} row"
        );
    }
}

/// The lemma families all contribute rows — a regression guard for the
/// three execution paths the experiment mixes (direct GRV sampling, the
/// jump backend, and the count backend through `Sweep::run_on`).
#[test]
fn lemma_families_all_contribute_rows() {
    let scale = smoke_scale("lemma_families");
    let spec = experiments::find("lemmas").expect("lemmas is registered");
    let tables = (spec.run)(&scale);
    let rows: Vec<&Vec<String>> = tables.iter().flat_map(|t| t.rows.iter()).collect();
    for family in ["lemma4.1", "lemma4.2", "lemma4.3/4.4"] {
        assert!(
            rows.iter().any(|r| r[0] == family),
            "lemmas must emit {family} rows"
        );
    }
}
