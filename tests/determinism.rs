//! Determinism: the whole stack — trace synthesis, engine, metrics — is a
//! pure function of (seed, config).

use pascal::core::experiments::common::{main_policies, run_cluster};
use pascal::core::{run_simulation, AdmissionMode, KvCapacityMode, SimConfig, TelemetryConfig};
use pascal::predict::PredictorKind;
use pascal::sched::{PascalConfig, RouterPolicy, SchedPolicy};
use pascal::workload::{ArrivalProcess, DatasetMix, DatasetProfile, TraceBuilder};

fn small_trace(seed: u64) -> pascal::workload::Trace {
    TraceBuilder::new(DatasetMix::single(DatasetProfile::alpaca_eval2()))
        .arrivals(ArrivalProcess::poisson(6.0))
        .count(120)
        .seed(seed)
        .build()
}

#[test]
fn identical_inputs_give_identical_outputs() {
    let trace = small_trace(17);
    let config = SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()));
    let a = run_simulation(&trace, &config);
    let b = run_simulation(&trace, &config);
    assert_eq!(a.records, b.records, "bit-identical reruns");
    assert_eq!(a.peak_gpu_kv_bytes, b.peak_gpu_kv_bytes);
    assert_eq!(a.makespan, b.makespan);
}

#[test]
fn different_seeds_give_different_traces_and_outputs() {
    let config = SimConfig::evaluation_cluster(SchedPolicy::Fcfs);
    let a = run_simulation(&small_trace(1), &config);
    let b = run_simulation(&small_trace(2), &config);
    assert_ne!(a.records, b.records);
}

#[test]
fn every_policy_is_deterministic() {
    let trace = small_trace(23);
    for policy in main_policies() {
        let a = run_cluster(&trace, policy);
        let b = run_cluster(&trace, policy);
        assert_eq!(a.records, b.records, "{} not deterministic", policy.name());
    }
}

#[test]
fn predictive_controllers_are_deterministic() {
    // The new migration and admission controllers carry decision state
    // (reservation ledger, tallies, rejection log); identical inputs must
    // replay byte-identically — including the per-migration outcome fields
    // (stall, predicted-vs-actual remaining service) and the rejections.
    let trace = small_trace(41);
    let config = SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()))
        .with_predictor(PredictorKind::ProfileEma)
        .with_predictive_migration(500.0)
        .with_admission(AdmissionMode::predictive());
    let a = run_simulation(&trace, &config);
    let b = run_simulation(&trace, &config);
    assert_eq!(a.records, b.records, "records diverged");
    let am: Vec<_> = a.migrations().collect();
    let bm: Vec<_> = b.migrations().collect();
    assert_eq!(am, bm, "migration records diverged");
    assert_eq!(a.migration_outcomes, b.migration_outcomes);
    assert_eq!(a.admission, b.admission);
    assert_eq!(a.rejections, b.rejections);
    assert_eq!(
        format!("{:?}{:?}", a.migration_outcomes, a.rejections),
        format!("{:?}{:?}", b.migration_outcomes, b.rejections),
        "byte-level divergence"
    );
    assert_eq!(
        a.policy_name,
        "PASCAL(Predictive-EMA, CostAwareMigration)+PredictiveAdmission"
    );
}

#[test]
fn chaos_sweep_is_thread_count_invariant() {
    // Fleet events ride the run's one event queue like everything else, so a
    // sweep over the chaos grid (outage, flash-crowd and diurnal cells,
    // with drains, failures, rebalancing and the autoscaler all firing)
    // must produce the identical report at any worker-pool width.
    use pascal::core::{SweepGrid, SweepRunner};
    let mut grid = SweepGrid::preset("chaos").expect("chaos preset exists");
    grid.count = 60;
    let serial = SweepRunner::new(1).run_grid(&grid);
    let parallel = SweepRunner::new(4).run_grid(&grid);
    assert_eq!(
        serial, parallel,
        "chaos sweep diverged across thread counts"
    );
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "byte-level divergence in the serialized report"
    );
    // The fleet actually did something in every cell: either requests
    // stranded, work rebalanced, or the autoscaler acted.
    assert!(serial.cells.iter().all(|c| c.spec.fleet.is_some()));
}

#[test]
fn empty_fleet_schedule_is_byte_identical_to_static_fleet() {
    // The zero-cost-when-off invariant, one level up: a fleet spec that
    // schedules nothing must leave every output byte untouched.
    let trace = small_trace(17);
    let config = SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()));
    let mut with_empty = config.clone();
    with_empty.fleet = Some(pascal::core::FleetSpec::default());
    let a = run_simulation(&trace, &config);
    let b = run_simulation(&trace, &with_empty);
    assert_eq!(a.records, b.records, "records diverged");
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.fleet, b.fleet, "fleet counters must both be zero");
    assert_eq!(
        format!("{:?}", a.records),
        format!("{:?}", b.records),
        "byte-level divergence"
    );
}

#[test]
fn profile_work_counters_repeat_across_runs() {
    // The work counters are the one exact, host-independent part of the
    // profile. A saturated four-shard cell must report the same counts on
    // every rerun.
    let trace = TraceBuilder::new(DatasetMix::arena_with_reasoning_heavy())
        .arrivals(ArrivalProcess::poisson(14.0))
        .count(400)
        .seed(29)
        .build();
    let mut config = SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()))
        .with_shards(4, RouterPolicy::RoundRobin)
        .with_predictor(PredictorKind::Quantile);
    config.kv_capacity = KvCapacityMode::FractionOfPhysical(0.25);
    config.telemetry = TelemetryConfig {
        profile: true,
        ..TelemetryConfig::default()
    };
    let work = || {
        let out = run_simulation(&trace, &config);
        assert!(
            out.records.iter().any(|r| r.num_preemptions > 0),
            "the cell must be saturated enough to evict"
        );
        out.telemetry
            .and_then(|t| t.profile)
            .expect("profiling was on")
            .work
    };
    let reference = work();
    assert!(reference.tokens > 0, "{reference:?}");
    assert!(reference.sched_member_scans > 0, "{reference:?}");
    assert!(reference.monitor_rows > 0, "{reference:?}");
    assert!(reference.monitor_member_visits > 0, "{reference:?}");
    assert!(reference.predictor_estimates > 0, "{reference:?}");
    assert!(reference.steady_iterations > 0, "{reference:?}");
    assert!(reference.members_caught_up > 0, "{reference:?}");
    assert!(reference.full_path_iterations > 0, "{reference:?}");
    assert!(reference.runs_kept > 0, "{reference:?}");
    // Completions, phase boundaries and landings happen inside runs too.
    assert!(reference.edges_kept > 0, "{reference:?}");
    assert!(reference.joins > 0, "{reference:?}");
    // Arrivals' prefills pause runs, and evictions' reloads and refused
    // grants leave members out of the launches runs open or keep over.
    assert!(reference.prefill_pauses > 0, "{reference:?}");
    assert!(reference.partial_runs > 0, "{reference:?}");
    // Every busy instance keeps its iteration end pending on the queue.
    assert!(reference.peak_pending_events > 0, "{reference:?}");
    for rerun in 1..=2 {
        assert_eq!(work(), reference, "work counters moved on rerun {rerun}");
    }
}

#[test]
fn predictive_policies_are_deterministic() {
    // The online predictors carry learned state; identical (trace, config,
    // predictor) inputs must still replay byte-identically — records AND
    // the predicted-vs-actual sample log.
    let trace = small_trace(31);
    for kind in PredictorKind::ALL {
        let config = SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()))
            .with_predictor(kind);
        let a = run_simulation(&trace, &config);
        let b = run_simulation(&trace, &config);
        assert_eq!(a.records, b.records, "{kind}: records diverged");
        assert_eq!(a.predictions, b.predictions, "{kind}: predictions diverged");
        assert_eq!(
            format!("{:?}", a.records),
            format!("{:?}", b.records),
            "{kind}: byte-level divergence"
        );
        assert_eq!(a.policy_name, format!("PASCAL(Predictive-{kind})"));
    }
}
