//! Golden byte-identity: the outputs the perf work promised not to change.
//!
//! PR-over-PR engine rewrites (slab request storage, the calendar event
//! queue, scratch-buffer scheduling) are only safe because every output
//! byte is pinned. These tests run the CLI end-to-end at committed seeds —
//! a single-instance run, a sharded run, a federated run, an FCFS run,
//! and the full ci+sharded+federated sweep grid — and require stdout,
//! stderr, per-request CSVs, `sweep.json` and `sweep.csv` to match the
//! fixtures under `tests/golden/` byte for byte.
//!
//! If a change legitimately alters scheduling behaviour, regenerate the
//! fixtures (the commands are the `run_cases()` table below, executed from
//! an empty directory) in the same PR and say so in the PR description.
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
