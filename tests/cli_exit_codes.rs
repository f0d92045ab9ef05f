//! CLI argument-error consistency: every flag family's parse failure must
//! exit with status 2 (the conventional usage-error code) and, for
//! enumerated flags, list the valid values on stderr — so scripts can tell
//! a typo (2) from a genuine runtime failure (1) from a regression gate
//! rejection (also 1, with its own FAILED verdict). It also pins the
//! `run --profile` memory field that CI's memory guard parses.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pascal-cli"))
        .args(args)
        .output()
        .expect("pascal-cli binary runs")
}

/// Asserts a usage error: exit 2, and stderr mentions every needle.
fn assert_usage_error(args: &[&str], needles: &[&str]) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{args:?} stderr must mention '{needle}', got:\n{stderr}"
        );
    }
}

#[test]
fn help_and_valid_invocations_exit_zero() {
    assert_eq!(cli(&["--help"]).status.code(), Some(0));
    assert_eq!(cli(&[]).status.code(), Some(0));
    let ok = cli(&["capacity", "--dataset", "alpaca"]);
    assert_eq!(ok.status.code(), Some(0));
}

#[test]
fn unknown_commands_and_flags_exit_two() {
    assert_usage_error(&["simulate"], &["unknown command"]);
    assert_usage_error(&["run", "--bogus", "1"], &["unknown flag"]);
    assert_usage_error(&["run", "--dataset"], &["needs a value"]);
}

#[test]
fn dataset_policy_and_rate_errors_exit_two_and_list_values() {
    assert_usage_error(&["run", "--dataset", "nope"], &["nope"]);
    assert_usage_error(&["run", "--policy", "sjf"], &["sjf"]);
    assert_usage_error(&["run", "--rate", "fast"], &["valid: low, medium, high"]);
    assert_usage_error(&["run", "--rate", "-2"], &["must be positive"]);
    // An infinite rate would panic in the arrival process (exit 101).
    assert_usage_error(
        &["run", "--rate", "inf"],
        &["--rate must be positive and finite"],
    );
    assert_usage_error(&["run", "--count", "many"], &["--count"]);
    assert_usage_error(&["run", "--seed", "lucky"], &["--seed"]);
    assert_usage_error(&["run", "--instances", "few"], &["--instances"]);
    // A zero-instance deployment has no capacity to derive a rate from;
    // it must be refused at parse time, not panic (exit 101) later.
    assert_usage_error(
        &["run", "--instances", "0"],
        &["--instances must be positive"],
    );
}

#[test]
fn instance_counts_past_the_id_space_exit_two_naming_the_flag() {
    // Global instance ids are 32-bit: a larger fleet would give two
    // instances one id. Refused at parse time instead of panicking on a
    // capacity overflow (exit 101) or aborting on a terabyte-sized
    // allocation (exit 134).
    for count in [usize::MAX.to_string(), (1u64 << 32).to_string()] {
        assert_usage_error(
            &["run", "--count", "10", "--instances", &count],
            &["--instances", "ids are 32-bit"],
        );
    }
}

#[test]
fn predictor_and_admission_errors_exit_two_and_list_values() {
    assert_usage_error(
        &["run", "--predictor", "psychic"],
        &["valid: none, oracle, ema, rank, quantile"],
    );
    assert_usage_error(
        &["run", "--admission", "strict"],
        &["valid: none, predictive"],
    );
    assert_usage_error(&["run", "--migration-benefit", "-1"], &["non-negative"]);
    assert_usage_error(
        &["run", "--migration-benefit", "2", "--predictor", "none"],
        &["needs a length predictor"],
    );
    assert_usage_error(
        &["run", "--migration-benefit", "2", "--predictor", "rank"],
        &["absolute length estimates"],
    );
}

#[test]
fn shard_flag_errors_exit_two_and_list_values() {
    assert_usage_error(&["run", "--shards", "0"], &["must be positive"]);
    assert_usage_error(&["run", "--shards", "many"], &["--shards"]);
    assert_usage_error(
        &["run", "--router", "hash"],
        &["valid: rr, least, predictive"],
    );
    assert_usage_error(
        &["run", "--shards", "3", "--instances", "8"],
        &["does not divide"],
    );
}

#[test]
fn federation_flag_errors_exit_two_and_list_values() {
    assert_usage_error(&["run", "--regions", "0"], &["must be positive"]);
    assert_usage_error(&["run", "--regions", "everywhere"], &["--regions"]);
    assert_usage_error(
        &["run", "--fed-router", "anycast"],
        &["valid: static, nearest, predictive"],
    );
    assert_usage_error(
        &["run", "--wan", "dialup"],
        &["valid: metro, regional, continental, transoceanic"],
    );
    assert_usage_error(
        &["run", "--regions", "3", "--instances", "8"],
        &["does not divide"],
    );
    // A regions x shards product past usize::MAX would wrap to a zero
    // divisor (exit 101).
    assert_usage_error(
        &["run", "--regions", "9223372036854775808", "--shards", "2"],
        &["does not divide"],
    );
}

#[test]
fn telemetry_flag_errors_exit_two_and_list_values() {
    assert_usage_error(
        &["run", "--trace-format", "bogus"],
        &["valid: jsonl, chrome"],
    );
    assert_usage_error(
        &["run", "--series-interval", "soon"],
        &["--series-interval"],
    );
    for bad in ["0", "-3", "inf", "nan"] {
        assert_usage_error(
            &["run", "--series-interval", bad],
            &["must be a positive number"],
        );
    }
    // Positive, but rounds to 0 ns: the sampler would never advance.
    assert_usage_error(
        &["run", "--series-interval", "1e-10"],
        &["--series-interval must be at least 1 ns"],
    );
    // Half of the series pair alone is a usage error, not silent no-op.
    assert_usage_error(
        &["run", "--series-out", "/tmp/s.csv"],
        &["needs --series-interval"],
    );
    assert_usage_error(&["run", "--series-interval", "5"], &["needs --series-out"]);
}

#[test]
fn fleet_events_errors_exit_two_and_name_the_problem() {
    // A value that is neither a file nor a preset lists the presets.
    assert_usage_error(
        &["run", "--fleet-events", "meteor-strike"],
        &["valid: outage, flash-crowd, diurnal"],
    );
    // A malformed schedule file lists the valid event kinds.
    let dir = std::env::temp_dir();
    let bad_kind = dir.join("pascal_cli_bad_kind.fleet");
    std::fs::write(&bad_kind, "1.0 explode 3\n").expect("write");
    assert_usage_error(
        &["run", "--fleet-events", bad_kind.to_str().unwrap()],
        &[
            "valid event kinds: join, drain, fail, shard-down, shard-up, \
             region-down, region-up",
        ],
    );
    // Events referencing ids outside the topology name the bad id.
    let bad_id = dir.join("pascal_cli_bad_id.fleet");
    std::fs::write(&bad_id, "1.0 fail 99\n").expect("write");
    assert_usage_error(
        &[
            "run",
            "--instances",
            "8",
            "--fleet-events",
            bad_id.to_str().unwrap(),
        ],
        &["instance 99 does not exist"],
    );
    // An autoscale interval that rounds to 0 ns would re-arm its tick at
    // the same instant forever; the error names the line.
    let zero_tick = dir.join("pascal_cli_zero_tick.fleet");
    std::fs::write(&zero_tick, "autoscale 1e-10 2.0 0.75 0.35\n").expect("write");
    assert_usage_error(
        &["run", "--fleet-events", zero_tick.to_str().unwrap()],
        &["line 1", "autoscale interval must be positive"],
    );
    let bad_shard = dir.join("pascal_cli_bad_shard.fleet");
    std::fs::write(&bad_shard, "1.0 shard-down 5\n").expect("write");
    assert_usage_error(
        &[
            "run",
            "--shards",
            "2",
            "--fleet-events",
            bad_shard.to_str().unwrap(),
        ],
        &["shard 5"],
    );
}

#[test]
fn alerts_flag_errors_exit_two_and_name_the_problem() {
    // A value that is neither a file nor a preset lists the presets.
    assert_usage_error(
        &["run", "--alerts", "smoke-signal"],
        &["valid: paging, ticket"],
    );
    // A malformed rule file names the offending line.
    let dir = std::env::temp_dir();
    let bad_rule = dir.join("pascal_cli_bad_rule.alerts");
    std::fs::write(&bad_rule, "budget 0.05\nrule ten 4.0\n").expect("write");
    assert_usage_error(
        &["run", "--alerts", bad_rule.to_str().unwrap()],
        &["line 2"],
    );
    // A rule-less file is rejected: alerting with nothing to evaluate is a
    // misconfiguration, not a quiet no-op.
    let no_rules = dir.join("pascal_cli_no_rules.alerts");
    std::fs::write(&no_rules, "budget 0.1\n").expect("write");
    assert_usage_error(&["run", "--alerts", no_rules.to_str().unwrap()], &["rule"]);
}

#[test]
fn analyze_flag_errors_exit_codes() {
    // Enumerated values exit 2 with the valid list; a missing --trace is
    // a usage error too.
    assert_usage_error(
        &["analyze", "--format", "xml"],
        &["valid: json, csv, waterfall"],
    );
    assert_usage_error(&["analyze", "--top", "many"], &["--top"]);
    assert_usage_error(&["analyze"], &["needs --trace"]);
    assert_usage_error(&["analyze", "--bogus", "1"], &["unknown flag"]);
    // A structurally valid invocation over a missing or malformed trace
    // file is a runtime failure: exit 1, no usage spam.
    let out = cli(&["analyze", "--trace", "/nonexistent/trace.jsonl"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bad = std::env::temp_dir().join("pascal_cli_bad_trace.jsonl");
    std::fs::write(&bad, "not json\n").expect("write");
    let out = cli(&["analyze", "--trace", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("line 1"),
        "parse errors must name the line"
    );
}

#[test]
fn sweep_flag_errors_exit_two_and_list_values() {
    assert_usage_error(
        &["sweep", "--grid", "everything"],
        &["valid: main, predictive, migration, ci, sharded, federated"],
    );
    assert_usage_error(&["sweep", "--grid", ""], &["at least one preset"]);
    assert_usage_error(&["sweep", "--count", "0"], &["must be positive"]);
    assert_usage_error(&["sweep", "--threads", "all"], &["--threads"]);
    assert_usage_error(&["sweep", "--ttft-tol", "-1"], &["non-negative"]);
    assert_usage_error(&["sweep", "--grid", "ci,ci"], &["more than once"]);
}

#[test]
fn counts_no_trace_can_hold_exit_two_naming_the_flag() {
    // The trace buffers for 2⁶⁴−1 requests overflow the address space: the
    // preallocation used to panic with `capacity overflow` (exit 101).
    let max = u64::MAX.to_string();
    assert_usage_error(&["run", "--count", &max], &["--count", "does not fit"]);
    assert_usage_error(
        &["sweep", "--grid", "ci", "--count", &max],
        &["--count", "does not fit"],
    );
}

#[test]
fn arrivals_saturating_at_the_end_of_time_still_finish() {
    // At 1e-10 req/s the arrival times saturate at the largest
    // representable sim time; the run must still drain and exit 0. A
    // watchdog turns a hung event loop into a failure instead of a stall.
    let mut child = Command::new(env!("CARGO_BIN_EXE_pascal-cli"))
        .args(["run", "--rate", "1e-10", "--count", "3"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("pascal-cli binary runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on pascal-cli") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("a three-request run at 1e-10 req/s did not finish in 60 s");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(status.code(), Some(0));
}

#[test]
fn runtime_failures_exit_one_not_two() {
    // A structurally valid invocation that fails at runtime (unreadable
    // baseline) is a runtime error, not a usage error.
    let out = cli(&[
        "sweep",
        "--grid",
        "ci",
        "--count",
        "1",
        "--baseline",
        "/nonexistent/baseline.json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[cfg(target_os = "linux")]
#[test]
fn run_profile_reports_peak_rss_per_arrival() {
    let out = cli(&["run", "--count", "50", "--seed", "3", "--profile"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let field = stderr
        .lines()
        .find_map(|l| l.trim().strip_prefix("memory: peak RSS "))
        .unwrap_or_else(|| panic!("--profile must print peak RSS, got:\n{stderr}"));
    let (mib, per_arrival) = field
        .strip_suffix(" bytes per arrival")
        .and_then(|f| f.split_once(" MiB, "))
        .unwrap_or_else(|| panic!("malformed memory field: {field}"));
    let mib: f64 = mib.parse().expect("MiB is a number");
    let per_arrival: f64 = per_arrival
        .parse()
        .expect("bytes per arrival is an integer");
    assert!(mib > 0.0, "peak RSS {mib} MiB");
    // Both figures come from one peak: MiB (to 0.1) over the 50 arrivals.
    let from_mib = mib * f64::from(1 << 20) / 50.0;
    assert!(
        (from_mib - per_arrival).abs() <= 0.05 * f64::from(1 << 20) / 50.0 + 1.0,
        "{mib} MiB over 50 arrivals is not {per_arrival} bytes each"
    );
}
