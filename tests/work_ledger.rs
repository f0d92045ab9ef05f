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
//! behaviour and must not move while outputs stay byte-identical. The
//! `full-path causes (exact):` line that follows the work line must split
//! the full-path iterations exactly: its causes sum to the counter.

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
    let causes = stderr
        .lines()
        .find_map(|l| l.trim().strip_prefix("full-path causes (exact): "))
        .unwrap_or_else(|| panic!("{name}: no full-path cause line in\n{stderr}"));
    assert_eq!(
        cause_sum(causes),
        counter(counters, "full-path iterations"),
        "{name}: the full-path causes do not sum to the counter: {causes}"
    );
    format!("{name}: {counters}")
}

/// The value printed before ` {label}` in a `value label, …` line.
fn counter(line: &str, label: &str) -> u64 {
    line.split(", ")
        .find_map(|field| field.strip_suffix(&format!(" {label}")))
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("no `{label}` in {line}"))
}

/// The sum of the cause line's counts: the no-run total, whose split in
/// parentheses must add up to it, plus every other cause.
fn cause_sum(line: &str) -> u64 {
    let (head, rest) = line.split_once(" (").expect("the no-run split");
    let (split, others) = rest.split_once("), ").expect("the causes after the split");
    let last = |field: &str| -> u64 {
        field
            .rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no count in `{field}`"))
    };
    let no_run = last(head);
    assert_eq!(
        split.split(", ").map(last).sum::<u64>(),
        no_run,
        "the no-run split does not add up: {line}"
    );
    no_run + others.split(", ").map(last).sum::<u64>()
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
