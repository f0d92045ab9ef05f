//! Latency anatomy end to end: the blame decomposition reconstructed from
//! a trace must sum *exactly* to the latencies the engine measured — per
//! request, in integer nanoseconds, across topologies, policies and fleet
//! chaos. SLO burn-rate alerting is exercised the same way the paper
//! would: an injected outage fires an alert, a quiet baseline stays
//! silent, and attaching the tracker changes nothing else.

use std::collections::HashMap;
use std::process::{Command, Output};

use pascal::core::experiments::common::{evaluation_trace, main_policies};
use pascal::core::{
    run_simulation, FederationPolicy, FleetPreset, FleetSpec, RateLevel, SimConfig,
};
use pascal::sched::{RouterPolicy, SchedPolicy};
use pascal::telemetry::{
    reconstruct, AnatomyOutcome, SloAlertPreset, TelemetryConfig, TraceEventKind,
};
use pascal::workload::DatasetMix;

fn cli(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_pascal-cli"))
        .args(args)
        .output()
        .expect("pascal-cli binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Runs one traced cell and cross-checks every reconstructed timeline
/// against the engine's own `RequestRecord` measurements.
fn assert_blame_conserves(config: &SimConfig, label: &str) {
    let trace = evaluation_trace(
        &DatasetMix::arena_with_reasoning_heavy(),
        RateLevel::High,
        120,
        17,
    );
    let mut config = config.clone();
    config.telemetry = TelemetryConfig {
        trace: true,
        ..TelemetryConfig::default()
    };
    let out = run_simulation(&trace, &config);
    let events = out.telemetry.expect("trace enabled").events;
    let report = reconstruct(&events);

    assert_eq!(
        report.unterminated, 0,
        "{label}: full runs leave no partials"
    );
    assert_eq!(
        report.rejected,
        out.rejections.len() as u64,
        "{label}: rejected tally"
    );

    let records: HashMap<u64, _> = out.records.iter().map(|r| (r.spec.id.0, r)).collect();
    let mut completed = 0usize;
    for req in &report.requests {
        // Conservation is the contract: the additive components partition
        // the measured interval with zero rounding slack.
        assert_eq!(
            req.e2e.total_ns(),
            req.e2e_ns(),
            "{label} #{}: e2e blame must sum to the timeline span",
            req.request
        );
        match req.outcome {
            AnatomyOutcome::Stranded => {
                assert!(
                    !records.contains_key(&req.request),
                    "{label} #{}: stranded requests have no completion record",
                    req.request
                );
                continue;
            }
            AnatomyOutcome::Completed => completed += 1,
        }
        let record = records
            .get(&req.request)
            .unwrap_or_else(|| panic!("{label} #{}: record missing", req.request));
        assert_eq!(
            req.e2e.total_ns(),
            record.e2e_latency().as_nanos(),
            "{label} #{}: e2e blame vs measured e2e",
            req.request
        );
        match (&req.ttft, record.ttft()) {
            (Some(blame), Some(measured)) => assert_eq!(
                blame.total_ns(),
                measured.as_nanos(),
                "{label} #{}: ttft blame vs measured ttft",
                req.request
            ),
            (None, None) => {}
            (anatomy, record) => panic!(
                "{label} #{}: ttft presence disagrees (anatomy {anatomy:?}, record {record:?})",
                req.request
            ),
        }
    }
    assert_eq!(
        completed,
        out.records.len(),
        "{label}: every completion has a timeline"
    );
}

#[test]
fn blame_sums_to_measured_latencies_across_topology_policy_and_chaos() {
    let pascal = main_policies().pop().expect("main policies non-empty");
    for policy in [SchedPolicy::Fcfs, pascal] {
        let topologies = [
            ("pool", SimConfig::evaluation_cluster(policy)),
            (
                "sharded",
                SimConfig::evaluation_cluster(policy).with_shards(2, RouterPolicy::LeastLoaded),
            ),
            (
                "federated",
                SimConfig::evaluation_cluster(policy)
                    .with_shards(2, RouterPolicy::LeastLoaded)
                    .with_regions(2, FederationPolicy::Nearest),
            ),
        ];
        for (topo, base) in topologies {
            for preset in [None, Some(FleetPreset::Outage)] {
                let mut config = base.clone();
                if let Some(p) = preset {
                    // The outage preset needs the trace horizon; ~120
                    // high-rate requests land inside 60 s.
                    config.fleet =
                        Some(p.spec(60.0, config.regions, config.shards, config.num_instances));
                }
                let label = format!(
                    "{}/{topo}/{}",
                    policy.name(),
                    preset.map_or("static", FleetPreset::key)
                );
                assert_blame_conserves(&config, &label);
            }
        }
    }
}

/// A whole shard fail-stops while the round-robin router keeps sending it
/// arrivals. Requests stranded on arrival at the dead shard must open a
/// timeline like every other request, so the stranded timelines account
/// for every stranding the run counted.
#[test]
fn requests_stranded_on_arrival_open_timelines() {
    let trace = evaluation_trace(
        &DatasetMix::arena_with_reasoning_heavy(),
        RateLevel::High,
        120,
        17,
    );
    let outage_at = trace.requests()[trace.requests().len() / 2]
        .arrival
        .as_secs_f64();
    let policy = main_policies().pop().expect("main policies non-empty");
    let mut config = SimConfig::evaluation_cluster(policy).with_shards(2, RouterPolicy::RoundRobin);
    config.fleet =
        Some(FleetSpec::parse(&format!("{outage_at} shard-down 1")).expect("valid fleet schedule"));
    config.telemetry = TelemetryConfig {
        trace: true,
        ..TelemetryConfig::default()
    };
    let out = run_simulation(&trace, &config);
    let events = out.telemetry.expect("trace enabled").events;
    let arrivals = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Arrival))
        .count();
    assert_eq!(
        arrivals,
        trace.requests().len(),
        "every request opens a timeline"
    );
    let report = reconstruct(&events);
    let stranded = report
        .requests
        .iter()
        .filter(|r| r.outcome == AnatomyOutcome::Stranded)
        .count() as u64;
    assert!(
        out.fleet.stranded > 0,
        "the outage must strand the arrivals routed to the dead shard"
    );
    assert_eq!(
        stranded, out.fleet.stranded,
        "stranded timelines must equal the run's stranded count"
    );
    assert_eq!(
        report.requests.len() as u64,
        out.records.len() as u64 + out.fleet.stranded,
        "every request ends in exactly one completed or stranded timeline"
    );
}

/// The acceptance scenario: same overloaded cell, alerting on, with and
/// without the injected outage. The outage must burn through the error
/// budget and page; the quiet baseline must not.
#[test]
fn outage_fires_a_burn_rate_alert_and_the_quiet_baseline_stays_silent() {
    let base = [
        "run",
        "--count",
        "600",
        "--instances",
        "2",
        "--policy",
        "rr",
        "--rate",
        "8",
        "--seed",
        "3",
        "--alerts",
        "paging",
    ];
    let quiet = cli(&base);
    let stderr = String::from_utf8_lossy(&quiet.stderr);
    assert!(
        stderr.contains("slo alerts: none fired"),
        "quiet baseline must not page:\n{stderr}"
    );

    let mut with_outage: Vec<&str> = base.to_vec();
    with_outage.extend_from_slice(&["--fleet-events", "outage"]);
    let paged = cli(&with_outage);
    let stderr = String::from_utf8_lossy(&paged.stderr);
    let fired: u64 = stderr
        .lines()
        .find_map(|l| l.strip_prefix("slo alerts: "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no alert summary on stderr:\n{stderr}"));
    assert!(fired >= 1, "outage must fire at least one alert:\n{stderr}");
    assert!(
        stderr.contains("rule"),
        "fired alerts name their rule:\n{stderr}"
    );
}

#[test]
fn alert_tracker_has_zero_observer_effect_on_records() {
    let trace = evaluation_trace(
        &DatasetMix::arena_with_reasoning_heavy(),
        RateLevel::High,
        150,
        9,
    );
    let policy = main_policies().pop().expect("main policies non-empty");
    let plain = SimConfig::evaluation_cluster(policy);
    let alerting = plain.clone().with_alerts(SloAlertPreset::Paging.spec(60.0));

    let off = run_simulation(&trace, &plain);
    let on = run_simulation(&trace, &alerting);
    assert_eq!(off.records, on.records, "records must be byte-identical");
    assert_eq!(off.makespan, on.makespan);
    assert!(off.alerts.is_empty(), "alerting off: no alert records");
}
