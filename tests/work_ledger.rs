//! The work ledger of the three benchmark deployments, pinned.
//!
//! `run --profile` prints a `work (exact):` line of deterministic,
//! host-independent counters: tokens, member scans, monitor rows, steady
//! and full-path iterations, runs and edges kept, joins and the peak
//! pending event count. This test runs the three `perfbench/DESIGN.md`
//! deployments at 2,000 requests (seed 42) and compares each line, without
//! its host-dependent `ns per token` tail, to
//! `tests/golden/work_ledger.txt`. A change that moves the engine's work
//! re-pins the file on purpose, so its diff shows which counters moved.
//! Tokens, monitor rows and peak pending events follow from the simulated
//! behaviour and must not move while outputs stay byte-identical.

use std::fs;
use std::path::Path;
use std::process::Command;

/// The three benchmark deployments: (name, `pascal-cli run` arguments).
const DEPLOYMENTS: [(&str, &str); 3] = [
    (
        "backlog",
        "--dataset mixed --predictor quantile --instances 32 --shards 4 --router rr --rate high",
    ),
    (
        "underload",
        "--dataset mixed --predictor quantile --instances 32 --shards 4 --router rr --rate 5",
    ),
    (
        "federated-outage",
        "--dataset reasoning-heavy --predictor quantile --instances 32 --regions 4 --shards 2 \
         --fed-router predictive --wan continental --fleet-events outage --rate low",
    ),
];

/// The `work (exact)` line of `name`'s profiled run, as `name: <counters>`.
fn work_line(name: &str, args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pascal-cli"))
        .arg("run")
        .args(args.split_whitespace())
        .args(["--count", "2000", "--seed", "42", "--profile"])
        .output()
        .expect("pascal-cli runs");
    assert!(out.status.success(), "{name}: pascal-cli run failed");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 profile");
    let line = stderr
        .lines()
        .find_map(|l| l.trim().strip_prefix("work (exact): "))
        .unwrap_or_else(|| panic!("{name}: no work line in\n{stderr}"));
    let counters = line
        .rsplit_once(", ")
        .filter(|(_, tail)| tail.ends_with(" ns per token"))
        .map_or(line, |(counters, _)| counters);
    format!("{name}: {counters}")
}

#[test]
fn benchmark_deployments_do_the_pinned_work() {
    let actual: String = DEPLOYMENTS
        .iter()
        .map(|(name, args)| work_line(name, args) + "\n")
        .collect();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/work_ledger.txt");
    let expected = fs::read_to_string(&fixture).expect("tests/golden/work_ledger.txt is readable");
    assert!(
        expected == actual,
        "the engine's work moved: re-pin tests/golden/work_ledger.txt on purpose if the \
         change means to move it\n--- expected ---\n{expected}--- actual ---\n{actual}"
    );
}
