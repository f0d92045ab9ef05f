//! Golden byte-identity: the outputs the perf work promised not to change.
//!
//! PR-over-PR engine rewrites (slab request storage, the event queue,
//! scratch-buffer scheduling) are only safe because every output
//! byte is pinned. These tests run the CLI end-to-end at committed seeds —
//! a single-instance run, a sharded run, a federated run, an FCFS run,
//! two runs that escape across shards and regions, and the full
//! ci+sharded+federated sweep grid — and require stdout, stderr,
//! per-request CSVs, `sweep.json` and `sweep.csv` to match the fixtures
//! under `tests/golden/` byte for byte (the escape runs' CSVs and traces
//! by digest).
//!
//! If a change legitimately alters scheduling behaviour, regenerate the
//! fixtures (the commands are the `run_cases()` and `escape_cases()`
//! tables below, executed from an empty directory) in the same PR and say
//! so in the PR description.
//! A diff here that you did *not* expect means the change broke the
//! determinism contract, not the fixture.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// A scratch directory unique to this test binary invocation; run
/// commands execute *inside* it so the relative CSV paths echoed on
/// stderr match the fixtures exactly.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pascal-golden-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn assert_bytes_match(fixture: &str, actual: &[u8], context: &str) {
    let expected = fs::read(fixture_dir().join(fixture))
        .unwrap_or_else(|e| panic!("fixture {fixture} must be readable: {e}"));
    assert!(
        expected == actual,
        "{context}: output diverges from tests/golden/{fixture} — the engine's \
         determinism contract is broken (or the fixture needs regenerating in \
         this PR).\n--- expected ---\n{}\n--- actual ---\n{}",
        String::from_utf8_lossy(&expected),
        String::from_utf8_lossy(actual),
    );
}

/// The four committed run scenarios: (name, CLI arguments).
fn run_cases() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (
            "run_single",
            vec![
                "run",
                "--count",
                "300",
                "--policy",
                "pascal",
                "--rate",
                "high",
                "--seed",
                "7",
                "--csv",
                "run_single.csv",
            ],
        ),
        (
            "run_sharded",
            vec![
                "run",
                "--count",
                "300",
                "--instances",
                "4",
                "--shards",
                "2",
                "--policy",
                "pascal",
                "--router",
                "predictive",
                "--predictor",
                "ema",
                "--admission",
                "predictive",
                "--rate",
                "high",
                "--seed",
                "7",
                "--csv",
                "run_sharded.csv",
            ],
        ),
        (
            "run_federated",
            vec![
                "run",
                "--count",
                "300",
                "--instances",
                "4",
                "--shards",
                "2",
                "--regions",
                "2",
                "--policy",
                "pascal",
                "--predictor",
                "ema",
                "--admission",
                "predictive",
                "--rate",
                "high",
                "--seed",
                "7",
                "--csv",
                "run_federated.csv",
            ],
        ),
        (
            "run_fcfs",
            vec![
                "run",
                "--count",
                "200",
                "--policy",
                "fcfs",
                "--rate",
                "medium",
                "--seed",
                "11",
                "--csv",
                "run_fcfs.csv",
            ],
        ),
    ]
}

#[test]
fn run_outputs_are_byte_identical_to_fixtures() {
    let dir = scratch_dir("runs");
    for (name, args) in run_cases() {
        let out = Command::new(env!("CARGO_BIN_EXE_pascal-cli"))
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("pascal-cli binary runs");
        assert!(
            out.status.success(),
            "{name} exited {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_bytes_match(&format!("{name}.txt"), &out.stdout, name);
        assert_bytes_match(&format!("{name}.err"), &out.stderr, name);
        let csv = fs::read(dir.join(format!("{name}.csv"))).expect("per-request CSV written");
        assert_bytes_match(&format!("{name}.csv"), &csv, name);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// FNV-1a-64 over `bytes`: pins outputs too large to commit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs that migrate across shards and regions: (name, CLI arguments,
/// FNV-1a-64 digests of the per-request CSV and of the JSONL trace). The
/// CSV (~250 KB) and the trace (~2 MB) are pinned by digest; stdout and
/// stderr by fixture. `run_escape_sharded` considers 133 cross-shard
/// escapes (27 launched, 39 vetoed, 67 aborted, 131 fallbacks);
/// `run_escape_federated` 54 cross-shard and 77 cross-region escapes
/// through a region outage.
fn escape_cases() -> Vec<(&'static str, Vec<&'static str>, u64, u64)> {
    vec![
        (
            "run_escape_sharded",
            vec![
                "run",
                "--dataset",
                "mixed",
                "--instances",
                "8",
                "--shards",
                "2",
                "--predictor",
                "quantile",
                "--migration-benefit",
                "4",
                "--rate",
                "high",
                "--count",
                "2000",
                "--seed",
                "7",
                "--csv",
                "run_escape_sharded.csv",
                "--trace-out",
                "run_escape_sharded.jsonl",
            ],
            0xd6bb_2168_4f18_2355,
            0xd530_f637_7462_c574,
        ),
        (
            "run_escape_federated",
            vec![
                "run",
                "--dataset",
                "mixed",
                "--instances",
                "16",
                "--shards",
                "2",
                "--regions",
                "2",
                "--predictor",
                "quantile",
                "--migration-benefit",
                "4",
                "--fed-router",
                "predictive",
                "--fleet-events",
                "outage",
                "--rate",
                "high",
                "--count",
                "2000",
                "--seed",
                "7",
                "--csv",
                "run_escape_federated.csv",
                "--trace-out",
                "run_escape_federated.jsonl",
            ],
            0x492d_078b_be9c_68df,
            0x1adf_3777_6885_fd9b,
        ),
    ]
}

#[test]
fn escape_runs_are_byte_identical_to_fixtures() {
    let dir = scratch_dir("escapes");
    for (name, args, csv_digest, trace_digest) in escape_cases() {
        let out = Command::new(env!("CARGO_BIN_EXE_pascal-cli"))
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("pascal-cli binary runs");
        assert!(
            out.status.success(),
            "{name} exited {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_bytes_match(&format!("{name}.txt"), &out.stdout, name);
        assert_bytes_match(&format!("{name}.err"), &out.stderr, name);
        for (file, expected) in [("csv", csv_digest), ("jsonl", trace_digest)] {
            let bytes = fs::read(dir.join(format!("{name}.{file}"))).expect("output written");
            assert_eq!(
                fnv1a64(&bytes),
                expected,
                "{name}.{file}: digest moved — the engine's determinism contract is broken \
                 (or the digest needs regenerating in this PR)"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn empty_fleet_schedule_matches_static_fixtures_byte_for_byte() {
    // The elasticity layer's zero-cost-when-off contract at the CLI level:
    // passing `--fleet-events` with a schedule that contains no events must
    // leave stdout, stderr and the per-request CSV byte-identical to the
    // committed static-fleet fixtures.
    let dir = scratch_dir("empty-fleet");
    let schedule = dir.join("empty.fleet");
    fs::write(&schedule, "# no events\n").expect("schedule written");
    let (name, mut args) = run_cases().swap_remove(0);
    assert_eq!(name, "run_single");
    args.push("--fleet-events");
    let schedule = schedule.to_str().expect("utf-8 path").to_owned();
    args.push(&schedule);
    let out = Command::new(env!("CARGO_BIN_EXE_pascal-cli"))
        .args(&args)
        .current_dir(&dir)
        .output()
        .expect("pascal-cli binary runs");
    assert!(
        out.status.success(),
        "empty-fleet run exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert_bytes_match("run_single.txt", &out.stdout, "empty fleet schedule");
    assert_bytes_match("run_single.err", &out.stderr, "empty fleet schedule");
    let csv = fs::read(dir.join("run_single.csv")).expect("per-request CSV written");
    assert_bytes_match("run_single.csv", &csv, "empty fleet schedule");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sweep_grid_outputs_are_byte_identical_to_fixtures() {
    // Sweep stdout carries wall-clock timings, so only the written report
    // files are pinned. Without --profile the schema-4 throughput field is
    // null and sweep.json is fully deterministic.
    let dir = scratch_dir("sweep");
    let out = Command::new(env!("CARGO_BIN_EXE_pascal-cli"))
        .args([
            "sweep",
            "--grid",
            "ci,sharded,federated",
            "--threads",
            "1",
            "--out",
            "sweepdir",
        ])
        .current_dir(&dir)
        .output()
        .expect("pascal-cli binary runs");
    assert!(
        out.status.success(),
        "sweep exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    for file in ["sweep.json", "sweep.csv"] {
        let actual = fs::read(dir.join("sweepdir").join(file)).expect("sweep output written");
        assert_bytes_match(file, &actual, "ci+sharded+federated sweep");
    }
    let _ = fs::remove_dir_all(&dir);
}
