//! The zero-observer-effect guarantee, end to end: running the same
//! federated cell with every telemetry stream enabled must leave every
//! deterministic output — the printed run tables on stdout and the
//! per-request CSV — byte-identical to a run that never had the flags.
//! Telemetry only ever appends to side buffers; the profiler writes to
//! stderr only. Sampling the gauge series is not engine work either:
//! `run --profile`'s exact work counters read the same with and without
//! `--series-out`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pascal-observer-{}-{name}", std::process::id()))
}

fn run_cell(extra: &[&str], csv: &Path) -> Output {
    let mut args = vec![
        "run",
        "--count",
        "200",
        "--instances",
        "4",
        "--shards",
        "2",
        "--regions",
        "2",
        "--predictor",
        "ema",
        "--admission",
        "predictive",
        "--rate",
        "high",
        "--seed",
        "7",
        "--csv",
        csv.to_str().expect("utf8 path"),
    ];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_pascal-cli"))
        .args(&args)
        .output()
        .expect("pascal-cli binary runs");
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn full_telemetry_leaves_deterministic_outputs_byte_identical() {
    let csv_off = tmp("off.csv");
    let csv_on = tmp("on.csv");
    let trace = tmp("trace.jsonl");
    let series = tmp("series.csv");

    let off = run_cell(&[], &csv_off);
    let on = run_cell(
        &[
            "--trace-out",
            trace.to_str().expect("utf8 path"),
            "--trace-format",
            "jsonl",
            "--series-out",
            series.to_str().expect("utf8 path"),
            "--series-interval",
            "2.5",
            "--profile",
        ],
        &csv_on,
    );

    assert_eq!(
        String::from_utf8_lossy(&off.stdout),
        String::from_utf8_lossy(&on.stdout),
        "run tables on stdout must be byte-identical with telemetry on"
    );
    let bytes_off = std::fs::read(&csv_off).expect("baseline CSV written");
    let bytes_on = std::fs::read(&csv_on).expect("telemetry CSV written");
    assert_eq!(
        bytes_off, bytes_on,
        "per-request CSVs must be byte-identical with telemetry on"
    );

    // The enabled run actually collected its streams (the guarantee is
    // "no side effects", not "no telemetry") and the profiler reported
    // on stderr only.
    assert!(
        std::fs::metadata(&trace).expect("trace written").len() > 0,
        "trace must not be empty"
    );
    assert!(
        std::fs::metadata(&series).expect("series written").len() > 0,
        "series must not be empty"
    );
    let stderr_on = String::from_utf8_lossy(&on.stderr);
    assert!(
        stderr_on.contains("events/sec"),
        "--profile must report to stderr, got:\n{stderr_on}"
    );

    for f in [&csv_off, &csv_on, &trace, &series] {
        let _ = std::fs::remove_file(f);
    }
}

/// The `work (exact)` line of a `--profile` report, without its
/// host-dependent ns-per-token figure.
fn work_line(stderr: &[u8]) -> String {
    let text = String::from_utf8_lossy(stderr);
    let line = text
        .lines()
        .find(|l| l.contains("work (exact):"))
        .unwrap_or_else(|| panic!("--profile must print a work line, got:\n{text}"));
    let (counts, per_token) = line.rsplit_once(", ").expect("comma-separated counters");
    assert!(per_token.ends_with("ns per token"), "{line}");
    counts.to_owned()
}

#[test]
fn series_sampling_leaves_the_work_ledger_untouched() {
    let csv_off = tmp("ledger-off.csv");
    let csv_on = tmp("ledger-on.csv");
    let series = tmp("ledger-series.csv");
    let off = run_cell(&["--profile"], &csv_off);
    let on = run_cell(
        &[
            "--profile",
            "--series-out",
            series.to_str().expect("utf8 path"),
            "--series-interval",
            "1",
        ],
        &csv_on,
    );
    assert!(
        std::fs::read_to_string(&series)
            .expect("series written")
            .lines()
            .count()
            > 100,
        "the sampled run must write many gauge rows"
    );
    assert_eq!(
        work_line(&off.stderr),
        work_line(&on.stderr),
        "sampling the gauge series must not count as engine work"
    );
    for f in [&csv_off, &csv_on, &series] {
        let _ = std::fs::remove_file(f);
    }
}
