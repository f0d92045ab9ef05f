use super::*;
use crate::config::KvCapacityMode;
use pascal_sched::PascalConfig;
use pascal_workload::RequestSpec;

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn oracle(policy: SchedPolicy) -> SimConfig {
    SimConfig::characterization(policy, KvCapacityMode::Unlimited)
}

#[test]
fn empty_trace_completes_immediately() {
    let out = run_simulation(&Trace::from_requests(vec![]), &oracle(SchedPolicy::Fcfs));
    assert!(out.records.is_empty());
    assert_eq!(out.makespan, SimTime::ZERO);
}

#[test]
fn simultaneous_arrivals_all_complete() {
    let requests: Vec<RequestSpec> = (0..20)
        .map(|i| RequestSpec::new(RequestId(i), SimTime::ZERO, 64, 30, 10))
        .collect();
    let out = run_simulation(
        &Trace::from_requests(requests),
        &oracle(SchedPolicy::round_robin_default()),
    );
    assert_eq!(out.records.len(), 20);
    assert_eq!(out.admission.admitted, 20, "disabled mode still tallies");
    assert_eq!(out.admission.rejected, 0);
    for r in &out.records {
        r.assert_consistent();
    }
}

#[test]
fn max_batch_caps_concurrency() {
    // 30 simultaneous requests with max_batch 8: they still all finish,
    // just in waves.
    let requests: Vec<RequestSpec> = (0..30)
        .map(|i| RequestSpec::new(RequestId(i), SimTime::ZERO, 32, 10, 0))
        .collect();
    let mut config = oracle(SchedPolicy::Fcfs);
    config.max_batch = 8;
    let out = run_simulation(&Trace::from_requests(requests), &config);
    assert_eq!(out.records.len(), 30);
    // With FCFS and batch 8, the last requests cannot start before the
    // first wave ends: their blocked time must be non-trivial.
    let last = &out.records[29];
    assert!(last.blocked.as_secs_f64() > 0.1);
}

#[test]
fn prefill_budget_batches_prompts() {
    // Two prompts of 3000 tokens exceed a 4096 budget together, so they
    // prefill in separate iterations; a single oversized prompt is still
    // admitted alone.
    let requests = vec![
        RequestSpec::new(RequestId(0), SimTime::ZERO, 3000, 5, 0),
        RequestSpec::new(RequestId(1), SimTime::ZERO, 3000, 5, 0),
        RequestSpec::new(RequestId(2), secs(10.0), 8000, 5, 0),
    ];
    let mut config = oracle(SchedPolicy::Fcfs);
    config.prefill_token_budget = 4096;
    let out = run_simulation(&Trace::from_requests(requests), &config);
    assert_eq!(out.records.len(), 3);
    // Request 1's first token comes a full prefill later than request 0's.
    let gap = out.records[1]
        .first_token
        .saturating_since(out.records[0].first_token);
    assert!(gap.as_millis_f64() > 50.0, "expected separate prefills");
}

#[test]
fn demotion_drops_long_reasoning_to_low_priority() {
    // One enormous reasoning request and a stream of small ones under
    // PASCAL with a tiny demotion threshold: the big one must be flagged
    // demoted (observable through its preemptions once small requests
    // take priority under memory pressure).
    let mut requests = vec![RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 2000, 0)];
    for i in 1..9 {
        requests.push(RequestSpec::new(
            RequestId(i),
            secs(5.0 + 4.0 * i as f64),
            64,
            400,
            0,
        ));
    }
    let geometry = oracle(SchedPolicy::Fcfs).geometry();
    let policy = SchedPolicy::pascal(PascalConfig {
        demotion_threshold_tokens: 500,
        ..PascalConfig::default()
    });
    let config = SimConfig::characterization(
        policy,
        KvCapacityMode::Bytes(geometry.bytes_for_tokens(2200)),
    );
    let out = run_simulation(&Trace::from_requests(requests), &config);
    let big = &out.records[0];
    assert!(
        big.num_preemptions > 0,
        "demoted giant should lose memory to fresh reasoning requests"
    );
    // Without demotion the giant reasoning request keeps strict
    // priority within its quantum class and is preempted less.
    let no_demotion = SchedPolicy::pascal(PascalConfig {
        demotion_threshold_tokens: u32::MAX,
        ..PascalConfig::default()
    });
    let config2 = SimConfig::characterization(
        no_demotion,
        KvCapacityMode::Bytes(geometry.bytes_for_tokens(2200)),
    );
    let out2 = run_simulation(
        &Trace::from_requests(
            out.records
                .iter()
                .map(|r| r.spec.clone())
                .collect::<Vec<_>>(),
        ),
        &config2,
    );
    assert!(
        out2.records[0].completion <= big.completion,
        "demotion should not speed the giant up"
    );
}

#[test]
fn warm_requests_under_pressure_queue_like_cold_ones() {
    // Warm requests still need GPU memory for their context; with only
    // room for one at a time they serialize.
    let geometry = oracle(SchedPolicy::Fcfs).geometry();
    let requests = vec![
        RequestSpec::warm(RequestId(0), SimTime::ZERO, 1000, 100),
        RequestSpec::warm(RequestId(1), SimTime::ZERO, 1000, 100),
    ];
    let config = SimConfig::characterization(
        SchedPolicy::Fcfs,
        KvCapacityMode::Bytes(geometry.bytes_for_tokens(1300)),
    );
    let out = run_simulation(&Trace::from_requests(requests), &config);
    let a = &out.records[0];
    let b = &out.records[1];
    assert!(b.first_token >= a.completion, "B must wait for A's memory");
    assert!(b.blocked.as_secs_f64() > 1.0);
}

#[test]
#[should_panic(expected = "shard 0 instance 1 drained holding KV blocks: 0 GPU, 3 CPU")]
fn drain_audit_catches_leaked_kv_blocks() {
    let trace = Trace::from_requests(vec![]);
    let config = oracle(SchedPolicy::Fcfs);
    let clock = Clock::new(&trace, TelemetryHandle::off());
    let mut shard = Shard::new(&clock, &config, 0, 2);
    shard.instances[1].inst.cpu.alloc(3);
    hierarchy::assert_drained(&[shard]);
}

#[test]
fn deployment_capacity_refuses_tables_no_host_can_hold() {
    let mut config = oracle(SchedPolicy::Fcfs);
    assert_eq!(config.validate(), Ok(()));
    // The whole 32-bit id space, one shard per instance: ~9 TB of rows,
    // which an allocator refuses on any host with less memory and swap
    // (Linux's default overcommit heuristic refuses a larger reservation).
    config.num_instances = u32::MAX as usize;
    config.shards = u32::MAX as usize;
    let err = config.validate().expect_err("tables too large");
    assert!(err.contains("does not fit in memory"), "{err}");
}

#[test]
#[should_panic(expected = "KV blocks but an instance only has")]
fn oversized_request_rejected_at_setup() {
    let geometry = oracle(SchedPolicy::Fcfs).geometry();
    let requests = vec![RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 5000, 0)];
    let config = SimConfig::characterization(
        SchedPolicy::Fcfs,
        KvCapacityMode::Bytes(geometry.bytes_for_tokens(1000)),
    );
    let _ = run_simulation(&Trace::from_requests(requests), &config);
}

#[test]
fn pool_accounting_returns_to_zero() {
    let requests: Vec<RequestSpec> = (0..15)
        .map(|i| RequestSpec::new(RequestId(i), secs(0.2 * i as f64), 64, 200, 100))
        .collect();
    let trace = Trace::from_requests(requests);
    let geometry = oracle(SchedPolicy::Fcfs).geometry();
    for policy in [
        SchedPolicy::Fcfs,
        SchedPolicy::round_robin_default(),
        SchedPolicy::pascal(PascalConfig::default()),
    ] {
        let config = SimConfig::characterization(
            policy,
            KvCapacityMode::Bytes(geometry.bytes_for_tokens(2000)),
        );
        let mut engine = Engine::new(&trace, &config);
        while engine.step() {}
        for shard in engine.shards() {
            for rt in &shard.instances {
                assert_eq!(
                    rt.inst.gpu.used_blocks(),
                    0,
                    "{}: GPU blocks leaked",
                    policy.name()
                );
                assert_eq!(
                    rt.inst.cpu.used_blocks(),
                    0,
                    "{}: CPU blocks leaked",
                    policy.name()
                );
                assert!(
                    rt.inst.members.is_empty(),
                    "{}: members leaked",
                    policy.name()
                );
            }
        }
    }
}

#[test]
fn migrated_requests_account_memory_on_both_sides() {
    let requests: Vec<RequestSpec> = (0..40)
        .map(|i| RequestSpec::new(RequestId(i), secs(0.1 * i as f64), 64, 150, 150))
        .collect();
    let trace = Trace::from_requests(requests);
    let mut config = SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()));
    config.num_instances = 3;
    let out = run_simulation(&trace, &config);
    let migrated = out.records.iter().filter(|r| r.migration.is_some()).count();
    assert!(migrated > 0, "expected at least one migration");
    assert_eq!(out.migration_outcomes.launched, migrated as u64);
    assert!(out.migration_outcomes.considered >= out.migration_outcomes.launched);
    assert!(out.migration_outcomes.bytes_moved > 0);
    assert_eq!(out.migration_outcomes.vetoed_by_cost, 0, "reactive run");
    // Token streams of migrated requests never go backwards in time
    // across the transfer gap.
    for r in out.records.iter().filter(|r| r.migration.is_some()) {
        let m = r.migration.expect("checked");
        let boundary = r.phase_transition_time().expect("transitioned");
        assert!(m.started >= boundary);
        let first_answer = r.first_answer_time().expect("answers");
        assert!(first_answer >= m.finished, "answer before KV arrived");
        // The resume stall was stamped and is consistent with the stream.
        let stall = m.stall.expect("migrated request ran again");
        assert!(first_answer.saturating_since(m.finished) >= stall);
    }
}

// ----- controller behavior ------------------------------------------------

/// Oracle-predicted PASCAL with the cost/benefit controller at `ratio`.
fn predictive_config(ratio: f64) -> SimConfig {
    let mut config = SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()));
    config.num_instances = 3;
    config.predictor = Some(PredictorKind::Oracle);
    config.predictive_migration = Some(PredictiveMigration {
        min_benefit_ratio: ratio,
    });
    config
}

fn migration_trace() -> Trace {
    Trace::from_requests(
        (0..40)
            .map(|i| RequestSpec::new(RequestId(i), secs(0.1 * i as f64), 64, 150, 150))
            .collect(),
    )
}

#[test]
fn zero_ratio_cost_test_is_reactive() {
    // ratio 0: the veto can never fire, so the predictive controller must
    // reproduce the reactive run decision-for-decision.
    let trace = migration_trace();
    let mut reactive = predictive_config(0.0);
    reactive.predictive_migration = None;
    let a = run_simulation(&trace, &reactive);
    let b = run_simulation(&trace, &predictive_config(0.0));
    assert_eq!(a.records, b.records);
    assert_eq!(b.migration_outcomes.vetoed_by_cost, 0);
    assert_eq!(a.migration_outcomes.launched, b.migration_outcomes.launched);
}

#[test]
fn absurd_ratio_vetoes_every_migration() {
    // A migration can never buy a million transfer-times of service: every
    // Algorithm 2 MigrateTo is vetoed and nothing rides the fabric.
    let out = run_simulation(&migration_trace(), &predictive_config(1e6));
    assert_eq!(out.migration_outcomes.launched, 0);
    assert!(out.migration_outcomes.vetoed_by_cost > 0, "vetoes counted");
    assert_eq!(out.migrations().count(), 0);
    assert!(out.records.iter().all(|r| r.instances_visited.len() == 1));
    assert!(out.policy_name.contains("CostAwareMigration"));
}

#[test]
fn admission_rejects_at_predicted_overload_and_still_drains() {
    // Budget fits ~2 requests' final footprints; 12 simultaneous oracle-
    // predicted arrivals: most must be rejected, the rest complete.
    let geometry = oracle(SchedPolicy::Fcfs).geometry();
    let requests: Vec<RequestSpec> = (0..12)
        .map(|i| RequestSpec::new(RequestId(i), secs(0.01 * i as f64), 64, 200, 100))
        .collect();
    let policy = SchedPolicy::pascal(PascalConfig::default());
    let mut config = SimConfig::characterization(
        policy,
        KvCapacityMode::Bytes(geometry.bytes_for_tokens(800)),
    );
    config.predictor = Some(PredictorKind::Oracle);
    config.admission = AdmissionMode::predictive();
    let out = run_simulation(&Trace::from_requests(requests), &config);
    assert!(out.admission.rejected > 0, "overload must shed load");
    assert!(out.admission.admitted > 0, "not everything is shed");
    assert_eq!(
        out.admission.admitted as usize + out.admission.rejected as usize,
        12
    );
    assert_eq!(out.records.len(), out.admission.admitted as usize);
    assert_eq!(out.rejections.len(), out.admission.rejected as usize);
    for rej in &out.rejections {
        assert!(rej.projected_kv_bytes > rej.budget_bytes);
    }
    // Admitted requests were never starved into SLO trouble by the load
    // the controller shed.
    assert!(out.policy_name.ends_with("+PredictiveAdmission"));
}

// ----- sharding -----------------------------------------------------------

mod sharding {
    use super::*;
    use pascal_sched::{PolicyKind, RouterPolicy};
    use pascal_telemetry::TelemetryConfig;
    use pascal_workload::{ArrivalProcess, DatasetMix, DatasetProfile, TraceBuilder};

    #[test]
    fn one_instant_fires_the_arrival_then_shards_in_id_order() {
        // A fleet schedule takes shards 1 and 0 down, listed in that
        // order, at the very instant a request arrives. The run's one
        // queue fires the arrival first (arrivals win ties), then shard
        // 0's transitions, then shard 1's (lowest shard id first).
        let at = secs(8.0);
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 200, 50),
            RequestSpec::new(RequestId(1), at, 64, 200, 50),
        ]);
        let mut config = oracle(SchedPolicy::Fcfs).with_shards(2, RouterPolicy::RoundRobin);
        config.num_instances = 4;
        config.fleet = Some(
            crate::fleet::FleetSpec::parse("8.0 shard-down 1\n8.0 shard-down 0\n")
                .expect("valid spec"),
        );
        config.telemetry = TelemetryConfig {
            trace: true,
            ..TelemetryConfig::default()
        };
        let out = run_simulation(&trace, &config);
        let events = out.telemetry.expect("tracing is on").events;
        let at_instant: Vec<(&str, u32, Option<u32>)> = events
            .iter()
            .filter(|e| e.at == at)
            .filter_map(|e| match e.kind {
                TraceEventKind::Arrival => Some(("arrival", e.shard, e.instance)),
                TraceEventKind::InstanceDown => Some(("down", e.shard, e.instance)),
                _ => None,
            })
            .collect();
        // Round robin sends the second arrival to shard 1, where it is
        // placed on instance 2.
        assert_eq!(
            at_instant,
            vec![
                ("arrival", 1, Some(2)),
                ("down", 0, Some(0)),
                ("down", 0, Some(1)),
                ("down", 1, Some(2)),
                ("down", 1, Some(3)),
            ]
        );
        assert_eq!(out.fleet.stranded + out.records.len() as u64, 2);
    }

    fn cluster_trace(count: usize, rate: f64, seed: u64) -> Trace {
        TraceBuilder::new(DatasetMix::single(DatasetProfile::arena_hard()))
            .arrivals(ArrivalProcess::poisson(rate))
            .count(count)
            .seed(seed)
            .build()
    }

    /// Strips the volatile parts of a `SimOutput` into a comparable form.
    fn digest(out: &SimOutput) -> (Vec<RequestRecord>, Vec<u64>, String) {
        (
            out.records.clone(),
            out.peak_gpu_kv_bytes.clone(),
            out.policy_name.clone(),
        )
    }

    #[test]
    fn one_shard_is_identical_to_the_unsharded_engine() {
        // `shards: 1` must replay the exact event sequence of the
        // pre-sharding engine regardless of the router key, for every
        // policy.
        let trace = cluster_trace(60, 6.0, 9);
        for kind in [PolicyKind::Fcfs, PolicyKind::RoundRobin, PolicyKind::Pascal] {
            let mut base = SimConfig::evaluation_cluster(kind.build());
            base.num_instances = 4;
            let reference = run_simulation(&trace, &base);
            for router in RouterPolicy::ALL {
                let sharded = base.clone().with_shards(1, router);
                let out = run_simulation(&trace, &sharded);
                assert_eq!(digest(&out), digest(&reference), "{kind} via {router}");
                assert_eq!(out.shard_stats.len(), 1);
                assert_eq!(out.shard_stats[0].routed_arrivals, 60);
                assert_eq!(out.migration_outcomes.cross_shard_launched, 0);
            }
        }
    }

    /// The committed fig11-matrix numbers (Alpaca/Arena at the high rate,
    /// 150 requests, the legacy seed 2026), captured from the pre-sharding
    /// engine: (dataset, policy, p99 TTFT seconds, migrations, makespan).
    const FIG11_GOLDEN: [(&str, &str, f64, usize, f64); 6] = [
        ("AlpacaEval2.0", "FCFS", 61.649172513449955, 0, 91.287896248),
        ("AlpacaEval2.0", "RR", 61.649172513449955, 0, 91.287896248),
        (
            "AlpacaEval2.0",
            "PASCAL",
            60.52408480785996,
            135,
            95.503700029,
        ),
        ("Arena-Hard", "FCFS", 111.79790002912992, 0, 154.091891692),
        ("Arena-Hard", "RR", 111.79790002912992, 0, 154.091891692),
        (
            "Arena-Hard",
            "PASCAL",
            110.56104834137992,
            140,
            164.137715108,
        ),
    ];

    #[test]
    fn one_shard_reproduces_the_committed_fig11_numbers() {
        use crate::experiments::common::run_matrix;
        use pascal_metrics::LatencySummary;
        use pascal_workload::MixPreset;

        let runs = run_matrix(
            &[MixPreset::Alpaca, MixPreset::Arena],
            &[crate::config::RateLevel::High],
            &PolicyKind::MAIN,
            150,
            2026,
        );
        assert_eq!(runs.len(), FIG11_GOLDEN.len());
        for (run, (dataset, policy, p99, migrations, makespan)) in runs.iter().zip(FIG11_GOLDEN) {
            assert_eq!(run.dataset, dataset);
            assert_eq!(run.policy_name, policy);
            let got_p99 = LatencySummary::from_values(
                run.output
                    .records
                    .iter()
                    .filter_map(|r| r.ttft().map(|d| d.as_secs_f64())),
            )
            .expect("answering requests exist")
            .p99;
            assert_eq!(got_p99, p99, "{dataset}/{policy}: p99 TTFT drifted");
            assert_eq!(run.output.migrations().count(), migrations);
            assert_eq!(run.output.makespan.as_secs_f64(), makespan);
        }
    }

    #[test]
    fn sharded_run_partitions_and_completes_everything() {
        let trace = cluster_trace(80, 8.0, 3);
        for router in RouterPolicy::ALL {
            let config =
                SimConfig::evaluation_cluster(PolicyKind::Pascal.build()).with_shards(4, router);
            let out = run_simulation(&trace, &config);
            assert_eq!(out.records.len(), 80, "{router}");
            assert_eq!(out.shard_stats.len(), 4);
            assert_eq!(out.peak_gpu_kv_bytes.len(), 8);
            assert_eq!(
                out.shard_stats
                    .iter()
                    .map(|s| s.routed_arrivals)
                    .sum::<u64>(),
                80
            );
            assert!(
                out.shard_stats.iter().all(|s| s.instances == 2),
                "fixed aggregate capacity splits evenly"
            );
            // Round-robin spreads arrivals exactly evenly.
            if router == RouterPolicy::RoundRobin {
                assert!(out.shard_stats.iter().all(|s| s.routed_arrivals == 20));
            }
            for r in &out.records {
                r.assert_consistent();
            }
        }
    }

    /// Two memory-tight shards of two instances each: transitions that
    /// find their whole shard unable to hold the KV must escalate to the
    /// cluster and migrate over the interconnect.
    fn saturated_two_shard_config(router: RouterPolicy) -> SimConfig {
        let mut config =
            SimConfig::evaluation_cluster(PolicyKind::Pascal.build()).with_shards(2, router);
        config.num_instances = 4;
        config.kv_capacity = KvCapacityMode::FractionOfPhysical(0.2);
        config
    }

    #[test]
    fn cross_shard_escape_fires_under_saturation_and_balances() {
        let trace = cluster_trace(150, 14.0, 5);
        let config = saturated_two_shard_config(RouterPolicy::RoundRobin);
        let out = run_simulation(&trace, &config);
        assert_eq!(out.records.len(), 150);
        let m = &out.migration_outcomes;
        assert!(
            m.cross_shard_considered > 0,
            "saturated shards must consider escapes: {m:?}"
        );
        assert!(m.cross_shard_launched > 0, "and launch some: {m:?}");
        assert_eq!(
            m.cross_shard_launched,
            out.shard_stats
                .iter()
                .map(|s| s.cross_shard_in)
                .sum::<u64>(),
            "every launched escape lands somewhere"
        );
        assert!(m.cross_shard_bytes_moved > 0);
        assert!(m.launched >= m.cross_shard_launched);
        // Escaped requests carry records whose instance ids span shards.
        let per_shard = out.peak_gpu_kv_bytes.len() as u32 / 2;
        let crossed = out
            .records
            .iter()
            .filter_map(|r| r.migration.as_ref())
            .filter(|m| (m.from_instance / per_shard) != (m.to_instance / per_shard))
            .count() as u64;
        assert_eq!(crossed, m.cross_shard_launched);
    }

    #[test]
    fn cross_shard_escapes_price_the_interconnect_not_the_fabric() {
        // With an absurd benefit ratio every escape that reaches the cost
        // test is vetoed at the interconnect price — nothing may ride the
        // interconnect, and the cross veto counter must account for every
        // considered escape.
        let trace = cluster_trace(150, 14.0, 5);
        let mut config = saturated_two_shard_config(RouterPolicy::RoundRobin);
        config.predictor = Some(PredictorKind::Oracle);
        config.predictive_migration = Some(PredictiveMigration {
            min_benefit_ratio: 1e6,
        });
        let out = run_simulation(&trace, &config);
        let m = &out.migration_outcomes;
        assert_eq!(m.cross_shard_launched, 0);
        assert_eq!(m.launched, 0, "intra-shard launches are vetoed too");
        assert!(
            m.cross_shard_considered > 0,
            "escapes still considered: {m:?}"
        );
        assert_eq!(
            m.cross_shard_considered,
            m.cross_shard_vetoed_by_cost + m.cross_shard_aborted,
            "every considered escape is vetoed or unplaceable at ratio 1e6: {m:?}"
        );
    }

    /// Committed golden numbers for the vetoed-escape fallback path
    /// (Arena-Hard, 150 requests, seed 5, two memory-tight shards,
    /// *non-adaptive* PASCAL so the fits-abort cannot preempt the cost
    /// test, Oracle predictor, benefit ratio 250): the ratio sits inside
    /// the window where the fabric-priced test that gated `MigrateTo` at
    /// the transition passes but the ~4×-slower interconnect price fails —
    /// so an all-unhealthy shard's deferred intra-shard move fires as the
    /// vetoed escape's fallback.
    const ESCAPE_FALLBACK_GOLDEN: EscapeFallbackGolden = EscapeFallbackGolden {
        cross_considered: 21,
        cross_vetoed: 6,
        cross_launched: 15,
        cross_aborted: 0,
        fallbacks: 12,
        fallbacks_after_veto: 3,
        launched: 89,
    };

    struct EscapeFallbackGolden {
        cross_considered: u64,
        cross_vetoed: u64,
        cross_launched: u64,
        cross_aborted: u64,
        fallbacks: u64,
        fallbacks_after_veto: u64,
        launched: u64,
    }

    #[test]
    fn vetoed_cluster_escape_fires_the_deferred_intra_shard_move() {
        let trace = cluster_trace(150, 14.0, 5);
        let mut config = saturated_two_shard_config(RouterPolicy::RoundRobin);
        config.policy = PolicyKind::PascalNonAdaptive.build();
        config.predictor = Some(PredictorKind::Oracle);
        config.predictive_migration = Some(PredictiveMigration {
            min_benefit_ratio: 250.0,
        });
        let out = run_simulation(&trace, &config);
        let m = &out.migration_outcomes;
        let g = ESCAPE_FALLBACK_GOLDEN;
        assert!(
            m.cross_shard_vetoed_by_cost > 0,
            "the window must veto at the interconnect price: {m:?}"
        );
        assert!(
            m.cross_shard_fallbacks_after_veto > 0,
            "a vetoed escape with a deferred intra move must fall back: {m:?}"
        );
        assert!(m.cross_shard_fallbacks >= m.cross_shard_fallbacks_after_veto);
        // The committed numbers: any drift in the escape/veto/fallback
        // pipeline shows up as an exact-count mismatch.
        assert_eq!(m.cross_shard_considered, g.cross_considered, "{m:?}");
        assert_eq!(m.cross_shard_vetoed_by_cost, g.cross_vetoed, "{m:?}");
        assert_eq!(m.cross_shard_launched, g.cross_launched, "{m:?}");
        assert_eq!(m.cross_shard_aborted, g.cross_aborted, "{m:?}");
        assert_eq!(m.cross_shard_fallbacks, g.fallbacks, "{m:?}");
        assert_eq!(
            m.cross_shard_fallbacks_after_veto, g.fallbacks_after_veto,
            "{m:?}"
        );
        assert_eq!(m.launched, g.launched, "{m:?}");
        assert_eq!(out.records.len(), 150, "everything still completes");
    }

    #[test]
    fn baselines_never_escape_across_shards() {
        let trace = cluster_trace(100, 14.0, 5);
        for kind in [
            PolicyKind::Fcfs,
            PolicyKind::RoundRobin,
            PolicyKind::PascalNoMigration,
        ] {
            let config = {
                let mut c = saturated_two_shard_config(RouterPolicy::LeastLoaded);
                c.policy = kind.build();
                c
            };
            let out = run_simulation(&trace, &config);
            assert_eq!(out.records.len(), 100, "{kind}");
            assert_eq!(out.migration_outcomes.cross_shard_considered, 0, "{kind}");
            assert_eq!(out.migration_outcomes.cross_shard_launched, 0, "{kind}");
        }
    }
}

/// A `Write` whose bytes stay readable after a series sink took it.
#[derive(Clone, Default)]
struct SharedBytes(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

impl std::io::Write for SharedBytes {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn streamed_series_equal_the_collected_rows() {
    // The same run, once collecting its gauge rows and once streaming them
    // to a sink, in both formats, on one region and on a federation.
    use pascal_telemetry::{series_to_csv, series_to_json, SeriesWriter};
    let trace = pascal_workload::TraceBuilder::new(pascal_workload::DatasetMix::single(
        pascal_workload::DatasetProfile::arena_hard(),
    ))
    .arrivals(pascal_workload::ArrivalProcess::poisson(8.0))
    .count(60)
    .seed(11)
    .build();
    for regions in [1, 2] {
        let mut config =
            SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()));
        config.num_instances = 4;
        config.regions = regions;
        config.telemetry.series_interval = Some(pascal_sim::SimDuration::from_millis(250));
        let collected = run_simulation(&trace, &config)
            .telemetry
            .expect("series on")
            .series;
        assert!(!collected.is_empty());
        for json in [false, true] {
            let bytes = SharedBytes::default();
            let out: Box<dyn std::io::Write> = Box::new(bytes.clone());
            let sink = if json {
                SeriesWriter::json(out)
            } else {
                SeriesWriter::csv(out)
            };
            let (run, sink) = run_simulation_with_series(&trace, &config, sink);
            assert_eq!(sink.rows(), collected.len() as u64);
            sink.finish().expect("writing to memory");
            assert!(run.telemetry.expect("series on").series.is_empty());
            let expected = if json {
                series_to_json(&collected)
            } else {
                series_to_csv(&collected)
            };
            assert_eq!(
                String::from_utf8(bytes.0.borrow().clone()).expect("UTF-8"),
                expected,
                "regions {regions}, json {json}"
            );
        }
    }
}

#[test]
fn admission_disabled_and_unbounded_memory_never_reject() {
    let requests: Vec<RequestSpec> = (0..10)
        .map(|i| RequestSpec::new(RequestId(i), SimTime::ZERO, 64, 50, 20))
        .collect();
    let trace = Trace::from_requests(requests);
    // Unbounded memory: predictive admission cannot overload.
    let mut config = oracle(SchedPolicy::pascal(PascalConfig::default()));
    config.predictor = Some(PredictorKind::Oracle);
    config.admission = AdmissionMode::predictive();
    let out = run_simulation(&trace, &config);
    assert_eq!(out.admission.rejected, 0);
    assert_eq!(out.records.len(), 10);
}

mod federation {
    use super::*;
    use pascal_federation::{FederationPolicy, WanLink};
    use pascal_metrics::RequestRecord;
    use pascal_sched::{PolicyKind, RouterPolicy};
    use pascal_workload::{ArrivalProcess, DatasetMix, DatasetProfile, TraceBuilder};

    /// A geo-tagged Arena-Hard trace: bodies identical to the sharding
    /// tests' traces, origins from the builder's harmonic skew.
    fn geo_trace(count: usize, rate: f64, seed: u64, regions: usize) -> Trace {
        TraceBuilder::new(DatasetMix::single(DatasetProfile::arena_hard()))
            .arrivals(ArrivalProcess::poisson(rate))
            .count(count)
            .seed(seed)
            .regions(regions)
            .build()
    }

    fn digest(out: &SimOutput) -> (Vec<RequestRecord>, Vec<u64>, String) {
        (
            out.records.clone(),
            out.peak_gpu_kv_bytes.clone(),
            out.policy_name.clone(),
        )
    }

    /// The `--regions 1` determinism contract: asking for one region — under
    /// any federation router and WAN class — must replay the unfederated
    /// run's exact event sequence: records, peaks, policy name, counters,
    /// the region summary AND the deterministic work counters, which move
    /// if the arrival path sweeps the region pools at one region. For every
    /// policy and shard count, with profiling on.
    #[test]
    fn one_region_is_byte_identical_to_the_cluster_engine() {
        let trace = geo_trace(60, 6.0, 9, 1);
        for kind in [PolicyKind::Fcfs, PolicyKind::RoundRobin, PolicyKind::Pascal] {
            for shards in [1usize, 2] {
                let mut base = SimConfig::evaluation_cluster(kind.build())
                    .with_shards(shards, RouterPolicy::Predictive);
                base.num_instances = 4;
                base.telemetry.profile = true;
                let reference = run_simulation(&trace, &base);
                for fed in FederationPolicy::ALL {
                    for wan in WanLink::ALL {
                        let mut config = base.clone().with_regions(1, fed);
                        config.wan = wan;
                        let out = run_simulation(&trace, &config);
                        let case = format!("{kind}/s{shards} via {fed} over {wan}");
                        assert_eq!(digest(&out), digest(&reference), "{case}");
                        assert_eq!(out.migration_outcomes, reference.migration_outcomes);
                        assert_eq!(out.admission, reference.admission);
                        assert_eq!(out.shard_stats, reference.shard_stats);
                        assert_eq!(out.region_stats, reference.region_stats);
                        assert_eq!(work(&out), work(&reference), "{case}");
                        assert_eq!(
                            format!("{:?}", out.records),
                            format!("{:?}", reference.records),
                            "byte-level divergence"
                        );
                    }
                }
            }
        }
    }

    /// The run's event count and exact work counters (`None` unless
    /// profiling was on).
    fn work(out: &SimOutput) -> Option<(u64, pascal_telemetry::WorkCounters)> {
        out.telemetry
            .as_ref()
            .and_then(|t| t.profile.as_ref())
            .map(|p| (p.events, p.work))
    }

    /// The same contract under active controllers: predictive admission
    /// (whose probe/commit path must tally identically) and the
    /// cost/benefit migration veto.
    #[test]
    fn one_region_matches_the_cluster_engine_under_controllers() {
        let trace = geo_trace(120, 10.0, 31, 1);
        let mut config = SimConfig::evaluation_cluster(PolicyKind::Pascal.build())
            .with_shards(2, RouterPolicy::Predictive);
        config.num_instances = 4;
        config.kv_capacity = KvCapacityMode::FractionOfPhysical(0.3);
        config.predictor = Some(PredictorKind::Oracle);
        config.predictive_migration = Some(PredictiveMigration {
            min_benefit_ratio: 500.0,
        });
        config.admission = AdmissionMode::predictive();
        config.telemetry.profile = true;
        let reference = run_simulation(&trace, &config);
        for fed in FederationPolicy::ALL {
            let fed_config = config.clone().with_regions(1, fed);
            let out = run_simulation(&trace, &fed_config);
            assert_eq!(digest(&out), digest(&reference), "via {fed}");
            assert_eq!(out.rejections, reference.rejections);
            assert_eq!(out.admission, reference.admission);
            assert_eq!(out.region_stats, reference.region_stats);
            assert_eq!(work(&out), work(&reference), "via {fed}");
        }
        assert!(
            reference.admission.rejected > 0,
            "the scenario must actually exercise admission: {:?}",
            reference.admission
        );
        assert!(work(&reference).is_some(), "profiling must report work");
    }

    #[test]
    fn static_federation_serves_every_arrival_at_its_origin() {
        let trace = geo_trace(120, 10.0, 7, 4);
        let config = SimConfig::evaluation_cluster(PolicyKind::Pascal.build())
            .with_regions(4, FederationPolicy::Static);
        let out = run_simulation(&trace, &config);
        assert_eq!(out.records.len(), 120);
        assert_eq!(out.region_stats.len(), 4);
        assert_eq!(out.shard_stats.len(), 4, "one shard per region here");
        let origins: u64 = out.region_stats.iter().map(|r| r.origin_arrivals).sum();
        assert_eq!(origins, 120);
        for r in &out.region_stats {
            assert_eq!(r.routed_arrivals, r.origin_arrivals, "static = geo-pinned");
            assert_eq!(r.nonlocal_arrivals, 0);
            assert_eq!(r.spill_in + r.spill_out, 0, "admission off, no spills");
        }
        // The harmonic origin skew reaches the engine: region 0 is hotter
        // than region 3.
        assert!(
            out.region_stats[0].origin_arrivals > out.region_stats[3].origin_arrivals,
            "{:?}",
            out.region_stats
        );
        for rec in &out.records {
            rec.assert_consistent();
        }
    }

    #[test]
    fn predictive_federation_detours_load_off_the_hot_region() {
        let trace = geo_trace(200, 16.0, 5, 4);
        let mut config = SimConfig::evaluation_cluster(PolicyKind::Pascal.build())
            .with_regions(4, FederationPolicy::Predictive);
        config.kv_capacity = KvCapacityMode::FractionOfPhysical(0.35);
        let out = run_simulation(&trace, &config);
        assert_eq!(out.records.len(), 200);
        let nonlocal: u64 = out.region_stats.iter().map(|r| r.nonlocal_arrivals).sum();
        assert!(
            nonlocal > 0,
            "a loaded hot region must push arrivals elsewhere: {:?}",
            out.region_stats
        );
        let routed: u64 = out.region_stats.iter().map(|r| r.routed_arrivals).sum();
        assert_eq!(routed, 200, "every arrival lands exactly once");
    }

    /// Two memory-tight single-shard regions: transitions that find their
    /// whole region unable to hold the KV must escalate to the federation
    /// and migrate over the WAN (there is no sibling shard to rank).
    fn saturated_two_region_config() -> SimConfig {
        let mut config = SimConfig::evaluation_cluster(PolicyKind::Pascal.build())
            .with_regions(2, FederationPolicy::Static);
        config.num_instances = 4;
        config.kv_capacity = KvCapacityMode::FractionOfPhysical(0.2);
        config
    }

    #[test]
    fn cross_region_escape_fires_under_saturation_and_lands() {
        let trace = geo_trace(150, 14.0, 5, 2);
        let out = run_simulation(&trace, &saturated_two_region_config());
        assert_eq!(out.records.len(), 150);
        let m = &out.migration_outcomes;
        assert!(
            m.cross_region_considered > 0,
            "saturated regions must consider WAN escapes: {m:?}"
        );
        assert!(m.cross_region_launched > 0, "and launch some: {m:?}");
        assert_eq!(
            m.cross_region_considered,
            m.cross_region_launched + m.cross_region_vetoed_by_cost + m.cross_region_aborted,
            "every considered escape resolves: {m:?}"
        );
        assert_eq!(
            m.cross_region_launched,
            out.region_stats
                .iter()
                .map(|r| r.cross_region_in)
                .sum::<u64>(),
            "every launched WAN escape lands somewhere"
        );
        assert!(m.cross_region_bytes_moved > 0);
        assert!(m.launched >= m.cross_region_launched);
        // Escaped requests carry records whose instance ids span regions.
        let per_region = out.peak_gpu_kv_bytes.len() as u32 / 2;
        let crossed = out
            .records
            .iter()
            .filter_map(|r| r.migration.as_ref())
            .filter(|mg| (mg.from_instance / per_region) != (mg.to_instance / per_region))
            .count() as u64;
        assert_eq!(crossed, m.cross_region_launched);
    }

    #[test]
    fn wan_priced_veto_forbids_frivolous_cross_region_moves() {
        // With an absurd benefit ratio every escape that reaches the WAN
        // cost test is vetoed — nothing may ride the WAN, exactly the
        // "cost veto naturally forbids frivolous moves" property the tier
        // exists for.
        let trace = geo_trace(150, 14.0, 5, 2);
        let mut config = saturated_two_region_config();
        config.predictor = Some(PredictorKind::Oracle);
        config.predictive_migration = Some(PredictiveMigration {
            min_benefit_ratio: 1e6,
        });
        let out = run_simulation(&trace, &config);
        let m = &out.migration_outcomes;
        assert_eq!(m.cross_region_launched, 0);
        assert!(
            m.cross_region_considered > 0,
            "escapes still considered: {m:?}"
        );
        assert_eq!(
            m.cross_region_considered,
            m.cross_region_vetoed_by_cost + m.cross_region_aborted,
            "every considered escape is vetoed or unplaceable at ratio 1e6: {m:?}"
        );
    }

    #[test]
    fn escape_conservation_holds_at_every_tier_and_scope() {
        // Both escape tiers active at once: two regions of two memory-tight
        // shards each. Every per-shard tally and the absorbed run total
        // must satisfy considered == launched + vetoed + aborted at both
        // tiers — the relation `assemble_output` asserts on every run and
        // the trace events reconcile against.
        let trace = geo_trace(150, 14.0, 5, 2);
        let mut config = SimConfig::evaluation_cluster(PolicyKind::Pascal.build())
            .with_shards(2, RouterPolicy::RoundRobin)
            .with_regions(2, FederationPolicy::Static);
        config.num_instances = 8;
        config.kv_capacity = KvCapacityMode::FractionOfPhysical(0.2);
        let out = run_simulation(&trace, &config);
        out.migration_outcomes.assert_escape_conservation();
        for row in &out.shard_stats {
            row.migrations.assert_escape_conservation();
        }
        assert!(
            out.migration_outcomes.cross_shard_considered > 0
                || out.migration_outcomes.cross_region_considered > 0,
            "the saturated grid must consider escapes: {:?}",
            out.migration_outcomes
        );
    }

    #[test]
    fn admission_spills_to_a_remote_region_before_rejecting() {
        // A hot region under predictive admission with a tight KV budget:
        // the probe rejects at home, and region-aware admission must place
        // the arrival in the cold region instead of turning it away.
        let trace = geo_trace(150, 14.0, 11, 2);
        let mut config = saturated_two_region_config();
        config.predictor = Some(PredictorKind::Oracle);
        config.admission = AdmissionMode::predictive();
        let out = run_simulation(&trace, &config);
        assert!(
            out.admission.spilled > 0,
            "the hot region must spill before rejecting: {:?}",
            out.admission
        );
        assert_eq!(
            out.admission.spilled,
            out.region_stats.iter().map(|r| r.spill_in).sum::<u64>(),
            "every spill lands somewhere: {:?}",
            out.region_stats
        );
        assert_eq!(
            out.region_stats.iter().map(|r| r.spill_out).sum::<u64>(),
            out.admission.spilled
        );
        // Spilled arrivals are served, not shed: completions cover every
        // admitted arrival.
        assert_eq!(out.records.len() as u64, out.admission.admitted);
        assert_eq!(
            out.admission.admitted + out.admission.rejected,
            150,
            "spills are bookkeeping, not extra arrivals: {:?}",
            out.admission
        );
    }

    #[test]
    fn baselines_never_escape_across_regions() {
        let trace = geo_trace(100, 14.0, 5, 2);
        for kind in [
            PolicyKind::Fcfs,
            PolicyKind::RoundRobin,
            PolicyKind::PascalNoMigration,
        ] {
            let mut config = saturated_two_region_config();
            config.policy = kind.build();
            let out = run_simulation(&trace, &config);
            assert_eq!(out.records.len(), 100, "{kind}");
            assert_eq!(out.migration_outcomes.cross_region_considered, 0, "{kind}");
            assert_eq!(out.migration_outcomes.cross_region_launched, 0, "{kind}");
        }
    }
}

// ----- incremental member state ---------------------------------------------

/// The member mutators keep every instance's monitor counters, candidate
/// index and resident set exact, and debug builds compare every served
/// row, candidate order and evictee set against a from-scratch rebuild.
/// These cells push memory-tight two-shard deployments through every
/// predictor, both reordering policies and a whole-shard outage, so a
/// state change that bypasses the mutators fails a shadow compare here.
mod member_state {
    use super::*;
    use crate::fleet::FleetPreset;
    use pascal_predict::PredictorKind;
    use pascal_sched::{PolicyKind, RouterPolicy};
    use pascal_workload::{ArrivalProcess, DatasetMix, TraceBuilder};

    #[test]
    fn saturated_cells_keep_member_state_exact_under_every_predictor() {
        let trace = TraceBuilder::new(DatasetMix::arena_with_reasoning_heavy())
            .arrivals(ArrivalProcess::poisson(14.0))
            .count(120)
            .seed(23)
            .build();
        let horizon = trace
            .requests()
            .last()
            .map_or(0.0, |r| r.arrival.as_secs_f64());
        for predictor in PredictorKind::ALL {
            for kind in [PolicyKind::Pascal, PolicyKind::RoundRobin] {
                for outage in [false, true] {
                    let label = format!("{predictor}/{kind}/outage={outage}");
                    // The predictive router reads predicted growth, so the
                    // per-member estimates are maintained under RR too.
                    let mut config = SimConfig::evaluation_cluster(kind.build())
                        .with_shards(2, RouterPolicy::Predictive);
                    config.num_instances = 4;
                    config.kv_capacity = KvCapacityMode::FractionOfPhysical(0.2);
                    config.predictor = Some(predictor);
                    if outage {
                        config.fleet = Some(FleetPreset::Outage.spec(horizon, 1, 2, 4));
                    }
                    let out = run_simulation(&trace, &config);
                    assert_eq!(
                        out.records.len() as u64 + out.fleet.stranded,
                        120,
                        "{label}: every arrival completes or strands"
                    );
                    assert!(
                        out.records.iter().any(|r| r.num_preemptions > 0),
                        "{label}: the cell must be memory-tight enough to evict"
                    );
                    if outage {
                        assert!(out.fleet.fails > 0, "{label}: the outage must land");
                    }
                }
            }
        }
    }
}

/// Steady decode runs replayed in closed form, opened and then interrupted
/// by each kind of touch and edge. Every case runs with the debug checks
/// on: each catch-up is replayed token by token through the full path's
/// per-token code and each steady step re-runs the planner read-only, so a
/// run that finishes has matched the full path all the way.
mod steady_runs {
    use super::*;
    use crate::fleet::FleetSpec;
    use pascal_cluster::KvLocation;
    use pascal_model::DecodeBatch;
    use pascal_predict::PredictorKind;
    use pascal_sim::SimDuration;
    use pascal_workload::Phase;

    /// What the engine looked like around the event that interrupted (or
    /// tested) a steady run.
    struct Interruption {
        /// Whether the watched instance had a steady run open just before.
        open_before: bool,
        /// Whether it still has one just after.
        open_after: bool,
        /// Whether its run waited through a prefill just before.
        paused_before: bool,
        /// Whether it waits through one just after.
        paused_after: bool,
        /// Steady iterations replayed before that event.
        steady_before: u64,
        /// Members caught up by that event.
        caught_up: u64,
        /// Touches and edges runs survived during that event.
        kept: u64,
        /// Member edges handled inside runs that survived them.
        edges_kept: u64,
        /// Landings that joined runs.
        joins: u64,
        /// Iterations that took the full path.
        full_path: u64,
        /// Prefill launches runs were kept across.
        pauses: u64,
        /// Decode launches runs opened or were kept over with a desired
        /// member left out.
        partial: u64,
        /// Launches runs planned themselves.
        planned: u64,
        /// Planned launches that walked the desired set.
        fallbacks: u64,
    }

    /// An instance just before an event.
    struct Before {
        open: bool,
        paused: bool,
        predicted_blocks: u64,
        batch: Vec<pascal_cluster::ReqHandle>,
        /// The earliest pacer deadline of its run's members.
        steady_pace: Option<SimTime>,
    }

    /// Steps `trace` under `config` until `at`, shown every instance of
    /// shard 0 as it was before the event and the shard after it, names
    /// the instance to watch; then runs to the end.
    fn interrupt_when(
        trace: &Trace,
        config: &SimConfig,
        at: impl Fn(&[Before], &Shard<'_>) -> Option<u32>,
    ) -> (Interruption, SimOutput) {
        let mut engine = Engine::new(trace, config);
        loop {
            let before: Vec<Before> = engine.shards()[0]
                .instances
                .iter()
                .map(|rt| Before {
                    open: rt.steady.is_open(),
                    paused: rt.steady.is_open() && rt.steady.is_paused(),
                    predicted_blocks: rt.monitor.predicted_blocks,
                    batch: rt.current_batch.clone(),
                    steady_pace: rt.monitor.steady_pace,
                })
                .collect();
            let work = hierarchy::total_work(engine.shards());
            assert!(engine.step(), "the run ended before the interruption");
            let sh = &engine.shards()[0];
            if let Some(i) = at(&before, sh) {
                let after = hierarchy::total_work(engine.shards());
                let run = &sh.instances[i as usize].steady;
                let seen = Interruption {
                    open_before: before[i as usize].open,
                    open_after: run.is_open(),
                    paused_before: before[i as usize].paused,
                    paused_after: run.is_open() && run.is_paused(),
                    steady_before: work.steady_iterations,
                    caught_up: after.members_caught_up - work.members_caught_up,
                    kept: after.runs_kept - work.runs_kept,
                    edges_kept: after.edges_kept - work.edges_kept,
                    joins: after.joins - work.joins,
                    full_path: after.full_path_iterations - work.full_path_iterations,
                    pauses: after.prefill_pauses - work.prefill_pauses,
                    partial: after.partial_runs - work.partial_runs,
                    planned: after.planned_launches - work.planned_launches,
                    fallbacks: after.planner_fallbacks - work.planner_fallbacks,
                };
                return (seen, engine.run());
            }
        }
    }

    /// [`interrupt_when`] for a condition on the shard after the event.
    fn interrupt(
        trace: &Trace,
        config: &SimConfig,
        at: impl Fn(&Shard<'_>) -> Option<u32>,
    ) -> (Interruption, SimOutput) {
        interrupt_when(trace, config, |_, sh| at(sh))
    }

    /// The instance of the first live request `pick` selects.
    fn member_where(
        sh: &Shard<'_>,
        pick: impl Fn(&pascal_cluster::RequestState) -> bool,
    ) -> Option<u32> {
        sh.states
            .iter()
            .find(|(_, st)| pick(st))
            .map(|(_, st)| st.instance)
    }

    fn assert_touched(seen: &Interruption, what: &str) {
        assert!(
            seen.steady_before > 0,
            "{what}: no steady iteration before it"
        );
        assert!(
            seen.open_before,
            "{what}: no steady run open when it landed"
        );
        assert!(seen.caught_up > 0, "{what}: the run was not caught up");
    }

    /// The event handled a member edge inside the run, which survived it.
    fn assert_edge_kept(seen: &Interruption, what: &str) {
        assert!(
            seen.steady_before > 0,
            "{what}: no steady iteration before it"
        );
        assert!(seen.open_before, "{what}: no steady run open before it");
        assert!(seen.open_after, "{what}: the run closed");
        assert!(seen.edges_kept > 0, "{what}: no kept edge counted");
    }

    fn assert_kept(seen: &Interruption, what: &str) {
        assert!(
            seen.steady_before > 0,
            "{what}: no steady iteration before it"
        );
        assert!(seen.open_before, "{what}: no steady run open before it");
        assert!(seen.open_after, "{what}: the run closed");
        assert!(seen.kept > 0, "{what}: no kept touch or edge counted");
    }

    #[test]
    fn a_warm_arrival_on_the_instance_joins_through_the_planner() {
        // A warm arrival needs no prefill: the next launch materializes it
        // into the decode batch, which only the planner does. The run
        // survives the arrival, its next iteration end is an edge step,
        // and the planner's launch takes the warm request in.
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 3000, 0),
            RequestSpec::warm(RequestId(1), secs(10.0), 64, 150),
        ]);
        let config = oracle(SchedPolicy::Fcfs);
        let (seen, _) = interrupt(&trace, &config, |sh| (sh.routed_arrivals == 2).then_some(0));
        assert_kept(&seen, "warm arrival");
        assert_eq!(seen.caught_up, 0);
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.spec.id == RequestId(1) && st.running)
        });
        assert!(seen.open_before && seen.open_after, "the run closed");
        assert_eq!((seen.joins, seen.caught_up, seen.full_path), (1, 0, 0));
        assert_eq!(out.records.len(), 2);
    }

    #[test]
    fn a_touch_before_the_first_steady_step_owes_nothing() {
        // The launch after a second request's prefill opens a run in which
        // the answering member's last token predates the launch; a drain
        // of the instance 1 ms later catches the run up having replayed
        // nothing, which must leave that answer stream exactly as it was.
        let config = oracle(SchedPolicy::Fcfs);
        let requests = vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 100, 2000),
            RequestSpec::new(RequestId(1), secs(5.0), 64, 500, 0),
        ];
        let pair = run_simulation(&Trace::from_requests(requests.clone()), &config);
        let launch = pair.records[1].first_token;
        let drain = (launch + SimDuration::from_millis(1)).as_secs_f64();
        let mut config = config;
        config.fleet = Some(FleetSpec::parse(&format!("{drain} drain 0\n")).expect("valid spec"));
        let (seen, out) = interrupt(&Trace::from_requests(requests), &config, |sh| {
            (sh.health[0] == crate::fleet::HealthState::Draining).then_some(0)
        });
        assert_touched(&seen, "drain");
        assert_eq!(seen.caught_up, 2);
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.records[0].answers, pair.records[0].answers);
    }

    /// Two long requests outgrowing the pool under FCFS: the later one is
    /// evicted at the iteration where its own block growth tips the pool
    /// over, so the earlier one runs on — steady — while the offload
    /// crosses PCIe, and the evictee reloads once the other completes.
    fn eviction_cell() -> (Trace, SimConfig) {
        let geometry = oracle(SchedPolicy::Fcfs).geometry();
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 4000, 3000, 0),
            RequestSpec::new(RequestId(1), secs(1.0), 3000, 3000, 0),
        ]);
        let config = SimConfig::characterization(
            SchedPolicy::Fcfs,
            KvCapacityMode::Bytes(geometry.bytes_for_tokens(9_016)),
        );
        (trace, config)
    }

    #[test]
    fn an_offload_landing_that_frees_room_for_nobody_keeps_the_run() {
        // The evictee lands in CPU memory, but the blocks its offload held
        // do not make room for it: the run of the request it made way for
        // goes on.
        let (trace, config) = eviction_cell();
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.kv_location == KvLocation::Cpu)
        });
        assert_kept(&seen, "offload landing");
        assert_eq!(seen.caught_up, 0);
        assert!(out.records[1].num_preemptions > 0);
    }

    #[test]
    fn an_eviction_at_a_refused_crossing_keeps_the_run() {
        // The step at which request 1's growth tips the pool over is one
        // whose crossing the pool refuses: an edge step with no member
        // edge, after which the run's planned launch offloads request 1 —
        // caught up alone, through its latest token — and goes on over
        // request 0.
        let (trace, config) = eviction_cell();
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.kv_location == KvLocation::OffloadingToCpu)
        });
        assert!(seen.steady_before > 0 && seen.open_before && seen.open_after);
        assert_eq!((seen.caught_up, seen.full_path, seen.edges_kept), (1, 0, 0));
        assert!(out.records[1].num_preemptions > 0);
        assert_eq!(out.records.len(), 2);
    }

    #[test]
    fn offloads_go_on_pcie_before_reloads_in_id_order() {
        // PASCAL on two memory-tight instances: find a launch a run planned
        // inside itself that offloads members whose key order is not their
        // id order and starts a reload. The transfers queue on the
        // instance's PCIe link in the full path's order — the offloads in
        // ascending request id, then the reload — which the traced run's
        // transfer completions show.
        let trace = pascal_workload::TraceBuilder::new(
            pascal_workload::DatasetMix::arena_with_reasoning_heavy(),
        )
        .arrivals(pascal_workload::ArrivalProcess::poisson(14.0))
        .count(160)
        .seed(23)
        .build();
        let mut config =
            SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()));
        config.num_instances = 2;
        config.kv_capacity = KvCapacityMode::FractionOfPhysical(0.2);
        let mut engine = Engine::new(&trace, &config);
        // Each request's id with its eviction count: the number of its
        // offload, and of the reload that follows it.
        let (offloaded, reloaded) = loop {
            let sh = &engine.shards()[0];
            let before: Vec<(RequestId, KvLocation)> = sh
                .states
                .iter()
                .map(|(_, st)| (st.spec.id, st.kv_location))
                .collect();
            let open: Vec<bool> = sh.instances.iter().map(|rt| rt.steady.is_open()).collect();
            assert!(engine.step(), "no planned launch offloads and reloads");
            let sh = &engine.shards()[0];
            let was = |id: RequestId| before.iter().find(|(b, _)| *b == id).map(|&(_, at)| at);
            let found = (0..sh.instances.len()).find_map(|i| {
                if !(open[i] && sh.instances[i].steady.is_open()) {
                    return None;
                }
                let moved =
                    |from: KvLocation, to: KvLocation| -> Vec<&pascal_cluster::RequestState> {
                        sh.states
                            .iter()
                            .map(|(_, st)| st)
                            .filter(|st| st.instance as usize == i && st.kv_location == to)
                            .filter(|st| was(st.spec.id) == Some(from))
                            .collect()
                    };
                let counted = |st: &&pascal_cluster::RequestState| (st.spec.id, st.num_preemptions);
                let mut offloaded = moved(KvLocation::Gpu, KvLocation::OffloadingToCpu);
                let reloaded: Vec<_> = moved(KvLocation::Cpu, KvLocation::ReloadingToGpu)
                    .iter()
                    .map(counted)
                    .collect();
                offloaded.sort_by_key(|st| sh.policy.priority_key(st));
                let key_order: Vec<_> = offloaded.iter().map(counted).collect();
                let mut id_order = key_order.clone();
                id_order.sort_unstable();
                (offloaded.len() >= 2 && !reloaded.is_empty() && key_order != id_order)
                    .then_some((id_order, reloaded))
            });
            if let Some(found) = found {
                break found;
            }
        };
        config.telemetry.trace = true;
        let events = run_simulation(&trace, &config)
            .telemetry
            .expect("tracing was on")
            .events;
        let done = |(id, nth): (RequestId, u32), kind: TraceEventKind| {
            events
                .iter()
                .filter(|e| e.request == Some(id.0) && e.kind == kind)
                .nth(nth as usize - 1)
                .expect("the transfer completes")
                .at
        };
        let offloads: Vec<SimTime> = offloaded
            .iter()
            .map(|&transfer| done(transfer, TraceEventKind::OffloadDone))
            .collect();
        assert!(
            offloads.windows(2).all(|w| w[0] < w[1]),
            "offloads left the PCIe queue out of id order: {offloaded:?} at {offloads:?}"
        );
        let last = offloads.last().copied().expect("two offloads");
        for &transfer in &reloaded {
            assert!(
                done(transfer, TraceEventKind::ReloadDone) > last,
                "reload {transfer:?} queued ahead of the offloads"
            );
        }
    }

    #[test]
    fn an_offload_landing_making_room_for_a_prefill_keeps_the_run() {
        // PASCAL over a pool of 9,016 tokens. An answering request (1)
        // runs until a reasoning one (0), sorting first, outgrows the pool
        // with it and evicts it. A short reasoning request (2) arrives
        // while the offload is in flight: it sorts after request 0 and
        // before the evictee, and fits only once the offload frees its
        // blocks. At that landing it becomes a newcomer of request 0's
        // run, which pauses through its prefill and takes it in.
        let geometry = oracle(SchedPolicy::Fcfs).geometry();
        let mut config = SimConfig::characterization(
            SchedPolicy::pascal(PascalConfig {
                quantum: 100_000,
                ..PascalConfig::default()
            }),
            KvCapacityMode::Bytes(geometry.bytes_for_tokens(9_016)),
        );
        let pair = vec![
            RequestSpec::warm(RequestId(1), SimTime::ZERO, 4000, 3000),
            RequestSpec::new(RequestId(0), secs(1.0), 4000, 3000, 0),
        ];
        config.telemetry.trace = true;
        let events = run_simulation(&Trace::from_requests(pair.clone()), &config)
            .telemetry
            .expect("tracing was on")
            .events;
        let at = |kind: TraceEventKind| {
            events
                .iter()
                .find(|e| e.request == Some(1) && e.kind == kind)
                .expect("request 1 is evicted")
                .at
        };
        let (evicted, landed) = (
            at(TraceEventKind::Preempted),
            at(TraceEventKind::OffloadDone),
        );
        let mid = SimTime::from_nanos((evicted.as_nanos() + landed.as_nanos()) / 2);
        let mut requests = pair;
        requests.push(RequestSpec::new(RequestId(2), mid, 500, 100, 0));
        config.telemetry.trace = false;
        let trace = Trace::from_requests(requests);
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.kv_location == KvLocation::Cpu)
        });
        assert_kept(&seen, "offload landing");
        assert_eq!(seen.caught_up, 0);
        assert_eq!(out.records.len(), 3);
        assert!(out.records[1].num_preemptions > 0);
        // Request 2 could not start before the offload freed the room.
        assert!(out.records[2].first_token > landed);
        // Its prefill launch pauses the run, and it joins at the end.
        let (seen, _) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.spec.id == RequestId(2) && st.running)
        });
        assert!(seen.paused_after, "the run did not pause for the prefill");
        assert_eq!((seen.pauses, seen.caught_up), (1, 0));
        let (seen, _) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| {
                st.spec.id == RequestId(2) && st.running && st.tokens_generated == 1
            })
        });
        assert!(seen.open_after && !seen.paused_after);
        assert_eq!(seen.joins, 1, "the newcomer did not join");
        // The same arrival keeps the run while the offload holds the room.
        let (seen, _) = interrupt(&trace, &config, |sh| (sh.routed_arrivals == 3).then_some(0));
        assert_kept(&seen, "arrival during the offload");
    }

    #[test]
    fn a_reload_lands_with_the_run_already_closed() {
        // The launch that starts a reload leaves the reloading member
        // desired but outside the batch, so no run opens until it lands —
        // unless a newcomer pushes it out of the desired set meanwhile (the
        // next test).
        let (trace, config) = eviction_cell();
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| {
                st.kv_location == KvLocation::Gpu && st.num_preemptions > 0
            })
        });
        assert!(
            seen.steady_before > 0,
            "no steady iteration before the reload"
        );
        assert!(
            !seen.open_before,
            "a run was open while a reload was in flight"
        );
        assert_eq!(out.records.len(), 2);
        assert!(out.records[1].num_preemptions > 0);
    }

    #[test]
    fn a_reload_landing_outside_a_full_batch_is_evicted_inside_the_run() {
        // Round robin with room for one request. Request 0's quantum ends,
        // request 1 takes its place, and when request 1's quantum ends in
        // turn request 0 starts reloading its 8,000-token context. Request
        // 2 arrives during that reload and sorts first, so it runs alone,
        // steady, while request 0's KV crosses PCIe. The reload lands a
        // GPU resident outside the full batch — one the next launch evicts:
        // the run survives the landing, and its next iteration end is an
        // edge step whose planned launch offloads request 0 again.
        let mut config = oracle(SchedPolicy::RoundRobin { quantum: 100 });
        config.max_batch = 1;
        let pair = vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 8000, 1000, 0),
            RequestSpec::new(RequestId(1), secs(0.01), 64, 1000, 0),
        ];
        config.telemetry.trace = true;
        let events = run_simulation(&Trace::from_requests(pair.clone()), &config)
            .telemetry
            .expect("tracing was on")
            .events;
        let first = |id: u64, kind: TraceEventKind| {
            events
                .iter()
                .find(|e| e.request == Some(id) && e.kind == kind)
                .expect("both requests are evicted once")
                .at
        };
        // Request 1's eviction is the launch that starts request 0's reload.
        let (reloading, landed) = (
            first(1, TraceEventKind::Preempted),
            first(0, TraceEventKind::ReloadDone),
        );
        let mut requests = pair;
        requests.push(RequestSpec::new(
            RequestId(2),
            SimTime::from_nanos((reloading.as_nanos() + landed.as_nanos()) / 2),
            64,
            1000,
            0,
        ));
        config.telemetry.trace = false;
        let trace = Trace::from_requests(requests);
        let (seen, _) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| {
                st.spec.id == RequestId(0)
                    && st.kv_location == KvLocation::Gpu
                    && !st.running
                    && st.num_preemptions > 0
            })
        });
        assert_kept(&seen, "reload landing outside a full batch");
        assert_eq!(seen.caught_up, 0);
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| {
                st.spec.id == RequestId(0)
                    && st.kv_location == KvLocation::OffloadingToCpu
                    && st.num_preemptions > 1
            })
        });
        assert!(seen.open_before && seen.open_after, "the run closed");
        assert_eq!((seen.caught_up, seen.full_path), (0, 0));
        assert_eq!(out.records.len(), 3);
    }

    #[test]
    fn a_reader_resuming_after_an_eviction_stalls_outside_a_run() {
        // The evictee is answering this time, at a reading pace only a
        // little slower than the decode step, so its buffer is short: when
        // it resumes, its first token finds the reader starved, and the
        // launch that resumes it must not open a run.
        let geometry = oracle(SchedPolicy::Fcfs).geometry();
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 4000, 3000, 0),
            RequestSpec::new(RequestId(1), secs(1.0), 3000, 10, 3000),
        ]);
        let mut config = SimConfig::characterization(
            SchedPolicy::Fcfs,
            KvCapacityMode::Bytes(geometry.bytes_for_tokens(9_016)),
        );
        config.target_tpot = SimDuration::from_millis(30);
        let out = run_simulation(&trace, &config);
        let resumed = &out.records[1];
        assert!(resumed.num_preemptions > 0, "the reader was never evicted");
        assert!(
            !resumed.answers.stalls().is_empty(),
            "no stall at the resume"
        );
    }

    #[test]
    fn a_migration_landing_on_a_full_batch_is_evicted_inside_the_run() {
        // The landing of `a_migration_landing_joins_the_destination_run`
        // on an instance whose batch is full: the next launch evicts the
        // landed request, which the run's planner does at its next
        // iteration end, the run going on over its batch.
        let (trace, mut config) = landing_cell();
        config.max_batch = 1;
        let (seen, out) = interrupt(&trace, &config, landed);
        assert_kept(&seen, "migration landing");
        assert_eq!((seen.joins, seen.caught_up), (0, 0));
        assert!(out.migration_outcomes.launched > 0);
        let (seen, _) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| {
                st.instances_visited.len() > 1 && st.kv_location == KvLocation::OffloadingToCpu
            })
        });
        assert!(seen.open_before && seen.open_after, "the run closed");
        assert_eq!((seen.joins, seen.caught_up, seen.full_path), (0, 0, 0));
    }

    /// PASCAL with a dataset-scope predictor over two instances. A large
    /// prompt of another dataset (0) keeps five short requests (1–5) off
    /// instance 0 until it completes; a long request of their dataset (6)
    /// then runs steady there, having started later. The fifth short
    /// completion warms the predictor up to a total above request 6's
    /// token count, so its predicted growth jumps from nothing to some
    /// blocks, and later reaches zero mid-run.
    fn refresh_cell() -> (Trace, SimConfig) {
        let mut requests =
            vec![RequestSpec::new(RequestId(0), SimTime::ZERO, 6000, 10, 0).with_dataset("aime")];
        for id in 1..=5 {
            requests.push(
                RequestSpec::new(RequestId(id), SimTime::ZERO, 64, 3010, 0).with_dataset("gpqa"),
            );
        }
        requests.push(RequestSpec::new(RequestId(6), secs(5.0), 64, 6000, 0).with_dataset("gpqa"));
        let trace = Trace::from_requests(requests);
        let mut config =
            SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()));
        config.num_instances = 2;
        config.predictor = Some(PredictorKind::ProfileEma);
        (trace, config)
    }

    #[test]
    fn a_predictor_refresh_keeps_runs_with_members_of_the_group() {
        let (trace, config) = refresh_cell();
        let mut engine = Engine::new(&trace, &config);
        let (long, open_before) = loop {
            let sh = &engine.shards()[0];
            let long = member_where(sh, |st| st.spec.id == RequestId(6));
            let open = long.is_some_and(|i| sh.instances[i as usize].steady.is_open());
            assert!(engine.step(), "the run ended before the refresh");
            if engine.shards()[0].records.len() == 6 {
                break (long.expect("request 6 arrived first"), open);
            }
        };
        let sh = &engine.shards()[0];
        let rt = &sh.instances[long as usize];
        assert!(open_before, "request 6 was not running steady");
        assert!(rt.steady.is_open(), "the refresh closed request 6's run");
        assert!(
            rt.monitor.predicted_blocks > 0,
            "the refresh did not re-price request 6"
        );
        let now = sh.records[5].completion;
        let row = sh.collect_stats(now)[long as usize];
        #[cfg(debug_assertions)]
        assert_eq!(row, sh.reference_row(rt, now), "re-priced row");
        assert_eq!(
            row.predicted_future_kv_bytes,
            rt.monitor.predicted_blocks * sh.geometry.block_bytes()
        );
        let work = hierarchy::total_work(engine.shards());
        assert!(work.runs_kept > 0, "{work:?}");
        let out = engine.run();
        assert_eq!(out.records.len(), 7);
    }

    #[test]
    fn a_completion_that_teaches_the_predictor_closes_its_own_run() {
        // The pair of the test above: the completing request's own run
        // ends at its completion edge, on the full path.
        let (trace, config) = refresh_cell();
        let (seen, _) = interrupt(&trace, &config, |sh| {
            (sh.records.len() == 6).then(|| sh.records[5].instances_visited[0])
        });
        assert_touched(&seen, "completion");
    }

    #[test]
    fn growth_reaching_zero_mid_run_keeps_the_run() {
        let (trace, config) = refresh_cell();
        let (seen, out) = interrupt_when(&trace, &config, |before, sh| {
            let i = member_where(sh, |st| st.spec.id == RequestId(6))?;
            let rt = &sh.instances[i as usize];
            (sh.records.len() == 6
                && before[i as usize].predicted_blocks > 0
                && rt.monitor.predicted_blocks == 0)
                .then_some(i)
        });
        assert_kept(&seen, "growth reaching zero");
        assert_eq!(seen.caught_up, 0);
        assert_eq!(out.records[6].tokens_generated, 6000);
    }

    #[test]
    fn a_fail_stop_mid_run_strands_the_caught_up_batch() {
        let trace = Trace::from_requests(vec![RequestSpec::new(
            RequestId(0),
            SimTime::ZERO,
            64,
            3000,
            0,
        )]);
        let mut config = oracle(SchedPolicy::Fcfs);
        config.fleet = Some(FleetSpec::parse("10.0 fail 0\n").expect("valid spec"));
        let (seen, out) = interrupt(&trace, &config, |sh| {
            (sh.health[0] == crate::fleet::HealthState::Down).then_some(0)
        });
        assert_touched(&seen, "fail-stop");
        assert_eq!(out.fleet.stranded, 1);
        assert!(out.records.is_empty());
    }

    #[test]
    fn a_quantum_end_is_an_edge() {
        // An edge of its member alone: the member is caught up, closes its
        // token on the full path's per-token code and is re-keyed, and the
        // run goes on — with nothing waiting, the batch stays the desired
        // prefix.
        let trace = Trace::from_requests(vec![RequestSpec::new(
            RequestId(0),
            SimTime::ZERO,
            64,
            1000,
            0,
        )]);
        let config = oracle(SchedPolicy::RoundRobin { quantum: 300 });
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.quanta_used > 0)
        });
        assert_kept(&seen, "quantum end");
        assert_eq!(
            seen.caught_up, 1,
            "only the member at its edge is caught up"
        );
        assert_eq!(out.records[0].tokens_generated, 1000);
    }

    /// Round robin with a 300-token quantum and room for `max_batch`
    /// requests: three long requests arriving 100 ms apart.
    fn quantum_cell(max_batch: u32) -> (Trace, SimConfig) {
        let trace = Trace::from_requests(
            (0..3)
                .map(|i| RequestSpec::new(RequestId(i), secs(0.1 * i as f64), 64, 1000, 0))
                .collect(),
        );
        let mut config = oracle(SchedPolicy::RoundRobin { quantum: 300 });
        config.max_batch = max_batch;
        (trace, config)
    }

    #[test]
    fn a_set_preserving_quantum_end_keeps_the_run_reordered() {
        // Request 0's quantum ends first; its key moves behind the other
        // two, and with nothing waiting outside the batch the run goes on,
        // the batch re-ordered as the planner would launch it.
        let (trace, config) = quantum_cell(8);
        let (seen, _) = interrupt_when(&trace, &config, |before, sh| {
            let i = member_where(sh, |st| st.spec.id == RequestId(0) && st.quanta_used > 0)?;
            let rt = &sh.instances[i as usize];
            let ids = |batch: &[pascal_cluster::ReqHandle]| -> Vec<u64> {
                batch.iter().map(|&h| sh.states[h].spec.id.0).collect()
            };
            assert_eq!(ids(&before[i as usize].batch), [0, 1, 2]);
            assert_eq!(ids(&rt.current_batch), [1, 2, 0]);
            Some(i)
        });
        assert_kept(&seen, "set-preserving quantum end");
        assert_eq!(seen.caught_up, 1);
    }

    #[test]
    fn an_overtaken_quantum_end_evicts_its_member_inside_the_run() {
        // Only two requests fit the batch; when request 0's quantum ends,
        // its new key sorts after waiting request 2, which takes its place.
        // The step is an edge step: request 0 leaves the run with its
        // token, and the run's planned launch offloads it and starts
        // request 2's prefill, which request 1 waits through.
        let (trace, config) = quantum_cell(2);
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.spec.id == RequestId(0) && st.quanta_used > 0)
        });
        assert!(
            seen.open_before && seen.paused_after,
            "the run did not pause"
        );
        assert_eq!((seen.caught_up, seen.full_path, seen.pauses), (1, 0, 1));
        assert_eq!(out.records.len(), 3);
        assert!(
            out.records[0].num_preemptions > 0,
            "request 0 stayed resident"
        );
    }

    #[test]
    fn a_source_side_migration_landing_that_frees_room_for_nobody_keeps_the_run() {
        // Request 1 shares request 0's instance, reaches its phase
        // boundary there and migrates away. Its landing frees its source
        // blocks, but nothing waits on the source: request 0's run there
        // goes on.
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 4000, 0),
            RequestSpec::new(RequestId(2), SimTime::ZERO, 2000, 4000, 0),
            RequestSpec::new(RequestId(1), secs(1.0), 64, 100, 300),
        ]);
        let mut config =
            SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()));
        config.num_instances = 2;
        let (seen, out) = interrupt(&trace, &config, |sh| {
            let st = sh
                .states
                .iter()
                .map(|(_, st)| st)
                .find(|st| st.spec.id == RequestId(1))?;
            let from = st.migration.as_ref()?.from_instance;
            (st.kv_location != KvLocation::Migrating).then_some(from)
        });
        assert_kept(&seen, "source-side migration landing");
        assert!(out.migration_outcomes.launched > 0);
    }

    #[test]
    fn a_demotion_is_an_edge() {
        let trace = Trace::from_requests(vec![RequestSpec::new(
            RequestId(0),
            SimTime::ZERO,
            64,
            2000,
            100,
        )]);
        let config = oracle(SchedPolicy::pascal(PascalConfig {
            demotion_threshold_tokens: 700,
            ..PascalConfig::default()
        }));
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.demoted && st.phase == Phase::Reasoning)
        });
        assert_touched(&seen, "demotion");
        assert_eq!(out.records[0].tokens_generated, 2100);
    }

    #[test]
    fn a_step_outgrowing_the_reading_pace_ends_the_run() {
        // The reading pace matches the decode step at 1,000 answering
        // tokens; as the context grows the step outgrows it, the reader's
        // buffer drains and tokens start to stall — which only the full
        // path may record.
        let trace = Trace::from_requests(vec![RequestSpec::new(
            RequestId(0),
            SimTime::ZERO,
            64,
            1000,
            3000,
        )]);
        let mut config = oracle(SchedPolicy::Fcfs);
        config.target_tpot = config.perf_model().decode_step_time(DecodeBatch {
            num_seqs: 1,
            total_context_tokens: 64 + 1000 + 1000,
        });
        config.telemetry.profile = true;
        let out = run_simulation(&trace, &config);
        assert!(
            !out.records[0].answers.stalls().is_empty(),
            "no token stalled"
        );
        let work = out
            .telemetry
            .and_then(|t| t.profile)
            .expect("profiling was on")
            .work;
        assert!(work.steady_iterations > 1000, "{work:?}");
    }

    #[test]
    fn answers_slower_than_the_reading_pace_never_run_steady() {
        // With a target TPOT below the decode step time every answering
        // token stalls its reader, so only the reasoning phase replays in
        // closed form, up to the phase-boundary edge.
        let trace = Trace::from_requests(vec![RequestSpec::new(
            RequestId(0),
            SimTime::ZERO,
            64,
            500,
            200,
        )]);
        let mut config = oracle(SchedPolicy::Fcfs);
        config.target_tpot = SimDuration::from_millis(1);
        config.telemetry.profile = true;
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.phase == Phase::Answering)
        });
        assert_touched(&seen, "phase boundary");
        // The boundary itself is an edge the run handles and survives; the
        // first answering token after it is the stall edge.
        assert_eq!(seen.edges_kept, 1);
        let work = out
            .telemetry
            .and_then(|t| t.profile)
            .expect("profiling was on")
            .work;
        assert_eq!(
            work.steady_iterations,
            seen.steady_before + seen.edges_kept,
            "an answering token replayed in closed form"
        );
        assert_eq!(out.records[0].answers.stalls().len(), 199);
    }

    /// The id order of `instance`'s batch on `sh`.
    fn batch_ids(sh: &Shard<'_>, batch: &[pascal_cluster::ReqHandle]) -> Vec<u64> {
        batch.iter().map(|&h| sh.states[h].spec.id.0).collect()
    }

    #[test]
    fn a_completion_leaves_and_the_run_is_kept() {
        // Three requests decode together; the short one completes, the
        // other two run on without being caught up.
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 3000, 0),
            RequestSpec::new(RequestId(1), SimTime::ZERO, 64, 500, 0),
            RequestSpec::new(RequestId(2), SimTime::ZERO, 64, 3000, 0),
        ]);
        let (seen, out) = interrupt_when(&trace, &oracle(SchedPolicy::Fcfs), |before, sh| {
            let done = sh.records.first()?;
            let i = done.instances_visited[0];
            assert_eq!(
                batch_ids(sh, &sh.instances[i as usize].current_batch),
                [0, 2]
            );
            assert_eq!(before[i as usize].batch.len(), 3);
            Some(i)
        });
        assert_edge_kept(&seen, "completion");
        assert_eq!(seen.caught_up, 1, "only the completing member is caught up");
        assert_eq!(out.records.len(), 3);
    }

    /// PASCAL on one instance: request 1's phase boundary comes first, and
    /// with no instance to migrate to it stays.
    fn boundary_cell() -> (Trace, SimConfig) {
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 3000, 0),
            RequestSpec::new(RequestId(1), SimTime::ZERO, 64, 100, 300),
        ]);
        (trace, oracle(SchedPolicy::pascal(PascalConfig::default())))
    }

    #[test]
    fn a_phase_boundary_that_stays_keeps_the_run_rekeyed() {
        // Request 1 sorts first while both reason (same arrival, lower id
        // last: 0 then 1); answering, it joins the low-priority queue and
        // rejoins the batch behind request 0, keyed anew.
        let (trace, config) = boundary_cell();
        let (seen, out) = interrupt_when(&trace, &config, |before, sh| {
            let i = member_where(sh, |st| st.phase == Phase::Answering)?;
            let rt = &sh.instances[i as usize];
            assert_eq!(batch_ids(sh, &before[i as usize].batch), [0, 1]);
            assert_eq!(batch_ids(sh, &rt.current_batch), [0, 1]);
            let answering = rt.current_batch[1];
            assert_eq!(
                sh.member_mon[answering.index()].key.map(|k| k.class),
                Some(1)
            );
            Some(i)
        });
        assert_edge_kept(&seen, "phase boundary");
        assert_eq!(seen.caught_up, 1);
        assert_eq!(out.migration_outcomes.considered, 1);
    }

    #[test]
    fn the_first_answering_token_is_a_mark() {
        // The token after the phase boundary starts the answer stream (and
        // the TTFT clock): an edge handled inside the run, whose launch the
        // boundary kept open.
        let (trace, config) = boundary_cell();
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.answers.len() == 1)
        });
        assert_edge_kept(&seen, "first answering token");
        assert_eq!(seen.caught_up, 1);
        let answered = out.records.iter().find(|r| r.spec.id == RequestId(1));
        assert!(answered.is_some_and(|r| r.answers.len() == 300));
    }

    #[test]
    fn a_phase_boundary_overtaken_evicts_its_member_inside_the_run() {
        // Only two requests fit the batch. Request 2 arrives while 0 and 1
        // run and waits, still reasoning; when request 1 starts answering it
        // sorts behind request 2, which takes its place: the run's planned
        // launch offloads request 1 and starts request 2's prefill, which
        // request 0 waits through.
        let (trace, mut config) = boundary_cell();
        let mut requests = trace.requests().to_vec();
        requests.push(RequestSpec::new(RequestId(2), secs(0.5), 64, 3000, 0));
        config.max_batch = 2;
        let (seen, out) = interrupt(&Trace::from_requests(requests), &config, |sh| {
            member_where(sh, |st| st.phase == Phase::Answering)
        });
        assert!(
            seen.open_before && seen.paused_after,
            "the run did not pause"
        );
        assert_eq!((seen.edges_kept, seen.full_path, seen.pauses), (1, 0, 1));
        assert_eq!(out.records.len(), 3);
        assert!(
            out.records[1].num_preemptions > 0,
            "request 1 stayed resident"
        );
    }

    #[test]
    fn a_phase_boundary_that_migrates_out_keeps_the_run() {
        // Request 1 migrates away from request 0's instance at its phase
        // boundary; the run on the source goes on without it.
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 4000, 0),
            RequestSpec::new(RequestId(2), SimTime::ZERO, 2000, 4000, 0),
            RequestSpec::new(RequestId(1), secs(1.0), 64, 100, 300),
        ]);
        let mut config =
            SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()));
        config.num_instances = 2;
        let (seen, out) = interrupt_when(&trace, &config, |before, sh| {
            let (handle, st) = sh
                .states
                .iter()
                .find(|(_, st)| st.kv_location == KvLocation::Migrating)?;
            let i = st.instance;
            assert!(before[i as usize].batch.contains(&handle));
            assert!(!sh.instances[i as usize].current_batch.contains(&handle));
            Some(i)
        });
        assert_edge_kept(&seen, "phase boundary migrating out");
        assert!(out.migration_outcomes.launched > 0);
    }

    #[test]
    fn a_demotion_rekeys_the_member() {
        // Request 0 answers early and sorts behind reasoning request 1,
        // until request 1 passes the demotion threshold and drops to the
        // low-priority queue: it rejoins the batch behind request 0.
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 50, 3000),
            RequestSpec::new(RequestId(1), SimTime::ZERO, 64, 2000, 100),
        ]);
        let config = oracle(SchedPolicy::pascal(PascalConfig {
            demotion_threshold_tokens: 700,
            ..PascalConfig::default()
        }));
        let (seen, _) = interrupt_when(&trace, &config, |before, sh| {
            let i = member_where(sh, |st| st.demoted)?;
            assert_eq!(batch_ids(sh, &before[i as usize].batch), [1, 0]);
            assert_eq!(
                batch_ids(sh, &sh.instances[i as usize].current_batch),
                [0, 1]
            );
            Some(i)
        });
        assert_edge_kept(&seen, "demotion");
    }

    #[test]
    fn a_completion_that_frees_room_for_a_warm_candidate_keeps_the_run() {
        // Two requests fill the batch; warm request 2 waits. When request 1
        // completes, request 2 fits: the run plans the launch that
        // materializes it, and it joins.
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 3000, 0),
            RequestSpec::new(RequestId(1), SimTime::ZERO, 64, 500, 0),
            RequestSpec::warm(RequestId(2), secs(0.5), 64, 3000),
        ]);
        let mut config = oracle(SchedPolicy::Fcfs);
        config.max_batch = 2;
        let (seen, out) = interrupt(&trace, &config, |sh| {
            sh.records.first().map(|r| r.instances_visited[0])
        });
        assert_edge_kept(&seen, "completion freeing room");
        assert_eq!((seen.full_path, seen.joins), (0, 1));
        assert_eq!(seen.caught_up, 1, "only the leaver");
        assert_eq!(out.records.len(), 3);
    }

    /// A short request migrates at its phase boundary onto the instance
    /// where a long reasoning request runs steady.
    fn landing_cell() -> (Trace, SimConfig) {
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 5000, 0),
            RequestSpec::new(RequestId(1), secs(1.0), 64, 100, 300),
            RequestSpec::new(RequestId(2), secs(1.0), 64, 100, 300),
        ]);
        let mut config =
            SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()));
        config.num_instances = 2;
        (trace, config)
    }

    /// The instance a migrated request just landed on, GPU-resident.
    fn landed(sh: &Shard<'_>) -> Option<u32> {
        member_where(sh, |st| {
            st.instances_visited.len() > 1 && st.kv_location == KvLocation::Gpu && !st.running
        })
    }

    #[test]
    fn a_migration_landing_joins_the_destination_run() {
        let (trace, config) = landing_cell();
        let (seen, out) = interrupt(&trace, &config, landed);
        assert_kept(&seen, "migration landing");
        assert_eq!(seen.caught_up, 0);
        assert!(out.migration_outcomes.launched > 0);
        // It joins at the run's next step: begun, stamped, filed.
        let (joined, _) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| {
                st.instances_visited.len() > 1 && st.running && st.migration.is_some()
            })
        });
        assert!(
            joined.open_after && joined.joins > 0,
            "the landing never joined"
        );
        let stalls: Vec<_> = out
            .records
            .iter()
            .filter_map(|r| r.migration.as_ref()?.stall)
            .collect();
        assert_eq!(stalls.len() as u64, out.migration_outcomes.launched);
    }

    #[test]
    fn two_edges_in_one_step() {
        // Requests 1 and 2 reach their phase boundaries at the same
        // iteration; both are handled inside the run, in batch order.
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 3000, 0),
            RequestSpec::new(RequestId(1), SimTime::ZERO, 64, 100, 300),
            RequestSpec::new(RequestId(2), SimTime::ZERO, 64, 100, 200),
        ]);
        let config = oracle(SchedPolicy::pascal(PascalConfig::default()));
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.phase == Phase::Answering)
        });
        assert_edge_kept(&seen, "two phase boundaries");
        assert_eq!(seen.edges_kept, 2);
        assert_eq!(seen.caught_up, 2);
        assert_eq!(out.migration_outcomes.considered, 2);
    }

    #[test]
    fn a_phase_boundary_sweep_reads_drops_before_and_after_the_edge_member() {
        // Requests 0, 1 and 2 decode in lockstep under PASCAL with an
        // oracle predictor, so predicted growth is tracked. Request 1 (in
        // the middle of the batch) reaches its phase boundary at 100
        // tokens; requests 0 and 2 predict 1,204 and 1,220 tokens, so both
        // drop a block of predicted growth at that same token. The
        // boundary's Algorithm 2 sweep must read request 0's drop (its
        // token comes first on the full path) and not request 2's: debug
        // builds compare that row with the full path's from-scratch one.
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 1204, 0),
            RequestSpec::new(RequestId(1), SimTime::ZERO, 64, 100, 300),
            RequestSpec::new(RequestId(2), SimTime::ZERO, 64, 1220, 0),
        ]);
        let mut config = oracle(SchedPolicy::pascal(PascalConfig::default()));
        config.predictor = Some(PredictorKind::Oracle);
        let (seen, out) = interrupt_when(&trace, &config, |before, sh| {
            let i = member_where(sh, |st| st.phase == Phase::Answering)?;
            assert_eq!(batch_ids(sh, &before[i as usize].batch), [0, 1, 2]);
            let rt = &sh.instances[i as usize];
            assert_eq!(
                before[i as usize].predicted_blocks - rt.monitor.predicted_blocks,
                2,
                "requests 0 and 2 each drop a block at the step"
            );
            Some(i)
        });
        assert_edge_kept(&seen, "phase boundary amid drops");
        assert_eq!(out.migration_outcomes.considered, 1);
        assert_eq!(out.records.len(), 3);
    }

    #[test]
    fn a_cross_shard_escape_at_an_edge() {
        // Two saturated shards: a phase boundary finds its shard full and
        // escapes over the interconnect. The boundary is handled inside the
        // run, the escape drained after it, and the run's next launch
        // decided last — the order of the full path.
        use pascal_sched::RouterPolicy;
        use pascal_workload::{ArrivalProcess, DatasetMix, DatasetProfile, TraceBuilder};
        let trace = TraceBuilder::new(DatasetMix::single(DatasetProfile::arena_hard()))
            .arrivals(ArrivalProcess::poisson(14.0))
            .count(150)
            .seed(5)
            .build();
        let mut config =
            SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()))
                .with_shards(2, RouterPolicy::RoundRobin);
        config.num_instances = 4;
        config.kv_capacity = KvCapacityMode::FractionOfPhysical(0.2);
        let (seen, out) = interrupt_when(&trace, &config, |before, sh| {
            let (handle, st) = sh.states.iter().find(|(_, st)| {
                st.kv_location == KvLocation::Migrating
                    && st
                        .migration
                        .as_ref()
                        .is_some_and(|m| m.from_instance / 2 != m.to_instance / 2)
            })?;
            let i = st.instance as usize;
            (before[i].open && before[i].batch.contains(&handle)).then_some(st.instance)
        });
        assert_touched(&seen, "cross-shard escape");
        assert!(out.migration_outcomes.cross_shard_launched > 0);
        assert_eq!(out.records.len(), 150);
    }

    #[test]
    fn a_phase_boundary_behind_a_lagging_reader_takes_the_full_path() {
        // Request 0 answers; request 1's prefill holds its next token back
        // past the reader's pace, so request 0's pacer deadline falls
        // behind, and at the reading pace it gains on it only slowly. At
        // request 1's phase boundary the run's earliest deadline is due:
        // whether the Algorithm 2 sweep sees request 0 on pace depends on
        // whose token comes first, so the step takes the full path.
        let mut config = oracle(SchedPolicy::Fcfs);
        config.target_tpot = config.perf_model().decode_step_time(DecodeBatch {
            num_seqs: 2,
            total_context_tokens: 2 * (64 + 400),
        });
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 10, 3000),
            RequestSpec::new(RequestId(1), secs(0.5), 64, 50, 50),
        ]);
        let (seen, out) = interrupt_when(&trace, &config, |before, sh| {
            let (_, st) = sh
                .states
                .iter()
                .find(|(_, st)| st.spec.id == RequestId(1) && st.phase == Phase::Answering)?;
            let i = st.instance as usize;
            let boundary = st.phase_boundary.expect("the boundary token was recorded");
            assert!(
                before[i].steady_pace.is_some_and(|due| due <= boundary),
                "request 0 caught up with its reader before the boundary"
            );
            Some(st.instance)
        });
        assert!(seen.open_before, "no steady run open at the boundary");
        assert_eq!(seen.full_path, 1, "the boundary was handled inside the run");
        assert_eq!(seen.edges_kept, 0);
        assert_eq!(out.records.len(), 2);
    }

    /// The profile's work counters of a run of `trace` under `config`.
    fn work_of(trace: &Trace, config: &SimConfig) -> pascal_telemetry::WorkCounters {
        let mut config = config.clone();
        config.telemetry.profile = true;
        run_simulation(trace, &config)
            .telemetry
            .and_then(|t| t.profile)
            .expect("profiling was on")
            .work
    }

    /// FCFS over a pool of 9,016 tokens: request 0 (a 2,000-token prompt)
    /// and request 1 (a long output) decode with request 2 (a 3,000-token
    /// prompt) until their growth evicts request 2, the last in key order.
    /// When request 0 completes, request 2 fits again: the launch starts
    /// its reload and decodes request 1 alone — a partial launch.
    fn reload_cell() -> (Trace, SimConfig) {
        let geometry = oracle(SchedPolicy::Fcfs).geometry();
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 2000, 3000, 0),
            RequestSpec::new(RequestId(1), secs(0.5), 64, 5000, 0),
            RequestSpec::new(RequestId(2), secs(1.0), 3000, 3000, 0),
        ]);
        let config = SimConfig::characterization(
            SchedPolicy::Fcfs,
            KvCapacityMode::Bytes(geometry.bytes_for_tokens(9_016)),
        );
        (trace, config)
    }

    #[test]
    fn a_reload_in_flight_at_launch_lands_and_joins() {
        // Over a link with half a second of setup latency, so that the
        // reload stays in flight for many steps. The run over request 1
        // replays them without the reloading member, which lands and
        // becomes a joiner without catching anybody up.
        let (trace, mut config) = reload_cell();
        config.pcie = pascal_model::LinkSpec::new(config.pcie.bandwidth, 0.5);
        let (seen, _) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| {
                st.spec.id == RequestId(2) && st.kv_location == KvLocation::ReloadingToGpu
            })
        });
        assert!(
            seen.open_after && seen.partial == 1,
            "no run over the partial launch"
        );
        let reloading = seen.steady_before;
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| {
                st.spec.id == RequestId(2)
                    && st.kv_location == KvLocation::Gpu
                    && st.num_preemptions > 0
                    && !st.running
            })
        });
        assert_kept(&seen, "reload landing");
        assert_eq!(seen.caught_up, 0);
        assert!(
            seen.steady_before > reloading + 10,
            "few steady steps while the reload was in flight"
        );
        assert_eq!(out.records.len(), 3);
        assert!(out.records[2].num_preemptions > 0);
        // It joins at the run's next step.
        let (seen, _) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| {
                st.spec.id == RequestId(2) && st.running && st.num_preemptions > 0
            })
        });
        assert!(seen.open_after, "the run closed at the join");
        assert_eq!((seen.joins, seen.full_path), (1, 0));
        assert!(work_of(&trace, &config).partial_runs > 0);
    }

    #[test]
    fn a_reload_started_at_a_resumed_launch_joins_when_it_lands() {
        // Request 0's completion frees room for the evictee: the run's
        // planned launch after that edge step starts its reload and goes
        // on over request 1, the reloading member pending, which joins at
        // the run's first step after it lands.
        let (trace, config) = reload_cell();
        let (seen, _) = interrupt(&trace, &config, |sh| {
            sh.records.first().map(|r| r.instances_visited[0])
        });
        assert_edge_kept(&seen, "completion starting a reload");
        assert_eq!((seen.full_path, seen.partial), (0, 1));
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| {
                st.spec.id == RequestId(2) && st.running && st.num_preemptions > 0
            })
        });
        assert!(seen.open_before && seen.open_after, "the run closed");
        assert_eq!((seen.joins, seen.full_path), (1, 0));
        assert_eq!(out.records.len(), 3);
    }

    /// FCFS over a pool of exactly 78 blocks: requests 0, 1 and 2 (prompts
    /// of 88, 160 and 32 tokens) decode in lockstep, the last two crossing
    /// into a new block at the same iterations. At 320 tokens the pool is
    /// full and the three need two blocks more: request 2 is evicted, and
    /// request 1's growth waits for the offload to free its blocks, while
    /// request 0 decodes on alone.
    fn refused_grant_cell() -> (Trace, SimConfig) {
        let geometry = oracle(SchedPolicy::Fcfs).geometry();
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 88, 1000, 0),
            RequestSpec::new(RequestId(1), SimTime::ZERO, 160, 1000, 0),
            RequestSpec::new(RequestId(2), SimTime::ZERO, 32, 1000, 0),
        ]);
        let config = SimConfig::characterization(
            SchedPolicy::Fcfs,
            KvCapacityMode::Bytes(78 * geometry.block_bytes()),
        );
        (trace, config)
    }

    /// The instance where request 1 waits, GPU-resident, for its growth.
    fn refused(sh: &Shard<'_>) -> Option<u32> {
        member_where(sh, |st| {
            st.spec.id == RequestId(1)
                && !st.running
                && st.kv_location == KvLocation::Gpu
                && st.tokens_generated == 320
        })
    }

    #[test]
    fn a_refused_grant_joins_once_the_offload_lands() {
        // The eviction's launch opens a run over request 0 with request 1
        // waiting for its grant; the offload lands within the iteration,
        // and request 1 joins at the next step.
        let (trace, config) = refused_grant_cell();
        let (seen, _) = interrupt(&trace, &config, refused);
        assert!(seen.open_after, "no run opened over the partial launch");
        assert_eq!(seen.partial, 1);
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| {
                st.spec.id == RequestId(1) && st.running && st.tokens_generated == 320
            })
        });
        assert!(seen.open_before && seen.open_after, "the run closed");
        assert_eq!((seen.joins, seen.full_path), (1, 0));
        assert!(out.records[2].num_preemptions > 0);
        assert_eq!(out.records.len(), 3);
    }

    #[test]
    fn a_refused_grant_still_waiting_at_the_next_launch_is_evicted_inside_the_run() {
        // Over a link with a second of setup latency, the evictee's
        // offload is still in flight at the next launch. Its blocks are
        // still dying, so the budget no longer fits request 1 beside
        // request 0: the launch the run plans evicts it, caught up alone
        // through its latest token, and the run goes on over request 0.
        let (trace, mut config) = refused_grant_cell();
        config.pcie = pascal_model::LinkSpec::new(config.pcie.bandwidth, 1.0);
        let (seen, _) = interrupt(&trace, &config, refused);
        assert!(seen.open_after, "no run opened over the partial launch");
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| {
                st.spec.id == RequestId(1) && st.kv_location == KvLocation::OffloadingToCpu
            })
        });
        assert!(seen.open_before && seen.open_after, "the run closed");
        assert_eq!((seen.joins, seen.caught_up, seen.full_path), (0, 0, 0));
        assert!(out.records[1].num_preemptions > 0);
        assert_eq!(out.records.len(), 3);
    }

    #[test]
    fn a_member_refused_growth_over_several_launches_joins_when_the_offload_lands() {
        // PASCAL on two memory-tight instances. A resident the pool refuses
        // its growth at a launch that evicts waits for the offload to free
        // the blocks; the next launch grants it unless it evicts again.
        // Find one that the launches of an open run refuse at least twice
        // in a row and that then joins that run.
        let trace = pascal_workload::TraceBuilder::new(
            pascal_workload::DatasetMix::arena_with_reasoning_heavy(),
        )
        .arrivals(pascal_workload::ArrivalProcess::poisson(14.0))
        .count(300)
        .seed(23)
        .build();
        let mut config =
            SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()));
        config.num_instances = 2;
        config.kv_capacity = KvCapacityMode::FractionOfPhysical(0.2);
        let mut engine = Engine::new(&trace, &config);
        // Each waiting resident never evicted, with the steps of its
        // instance's open run it sat out.
        let mut waited: Vec<(RequestId, u32)> = Vec::new();
        loop {
            let steps: Vec<u32> = engine.shards()[0]
                .instances
                .iter()
                .map(|rt| rt.steady.steps())
                .collect();
            assert!(engine.step(), "no refused grant waited twice and joined");
            let sh = &engine.shards()[0];
            let stepped = |i: usize| {
                let rt = &sh.instances[i];
                rt.steady.is_open() && rt.steady.steps() != steps[i]
            };
            for (_, st) in sh.states.iter() {
                let i = st.instance as usize;
                if !stepped(i) || st.kv_location != KvLocation::Gpu || st.num_preemptions > 0 {
                    continue;
                }
                let at = waited.iter().position(|(id, _)| *id == st.spec.id);
                if st.running {
                    if at.is_some_and(|at| waited[at].1 >= 2) {
                        return;
                    }
                } else if st.tokens_generated > 0 {
                    match at {
                        Some(at) => waited[at].1 += 1,
                        None => waited.push((st.spec.id, 1)),
                    }
                }
            }
            waited.retain(|&(id, _)| {
                sh.states.iter().any(|(_, st)| {
                    st.spec.id == id && st.kv_location == KvLocation::Gpu && !st.running
                })
            });
        }
    }

    #[test]
    fn a_paused_prefill_lets_the_newcomer_join() {
        // Request 1's arrival keeps request 0's run; the next launch is its
        // prefill, which the run waits through, and it joins at the end.
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 3000, 0),
            RequestSpec::new(RequestId(1), secs(10.0), 64, 100, 50),
        ]);
        let config = oracle(SchedPolicy::Fcfs);
        let (seen, _) = interrupt(&trace, &config, |sh| (sh.routed_arrivals == 2).then_some(0));
        assert_kept(&seen, "arrival");
        assert_eq!(seen.caught_up, 0);
        let (seen, _) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.spec.id == RequestId(1) && st.running)
        });
        assert!(seen.paused_after, "the run did not pause");
        assert_eq!((seen.pauses, seen.caught_up, seen.full_path), (1, 0, 0));
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| {
                st.spec.id == RequestId(1) && st.running && st.tokens_generated == 1
            })
        });
        assert!(seen.paused_before && seen.open_after && !seen.paused_after);
        assert_eq!((seen.joins, seen.caught_up, seen.full_path), (1, 0, 0));
        assert_eq!(out.records.len(), 2);
        // Request 0's run is the only one the full path opened.
        let work = work_of(&trace, &config);
        assert_eq!(work.prefill_pauses, 1, "{work:?}");
        assert!(work.full_path_iterations <= 3, "{work:?}");
    }

    #[test]
    fn two_arrivals_share_one_paused_prefill() {
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 3000, 0),
            RequestSpec::new(RequestId(1), secs(10.0), 64, 100, 50),
            RequestSpec::new(RequestId(2), secs(10.0), 500, 200, 0),
        ]);
        let config = oracle(SchedPolicy::Fcfs);
        let (seen, out) = interrupt(&trace, &config, |sh| {
            let both = sh
                .states
                .iter()
                .filter(|(_, st)| st.spec.id != RequestId(0) && st.running)
                .count()
                == 2;
            both.then_some(0)
        });
        assert!(seen.paused_after, "the run did not pause");
        assert_eq!((seen.pauses, seen.full_path), (1, 0));
        assert_eq!(out.records.len(), 3);
        let work = work_of(&trace, &config);
        assert_eq!((work.prefill_pauses, work.joins), (1, 2), "{work:?}");
    }

    #[test]
    fn newcomers_over_the_prefill_token_budget_take_two_pauses() {
        // Two 5,000-token prompts arrive together: the prefill token budget
        // (8,192) admits the first alone, so the run pauses twice, the
        // second newcomer waiting through the first prefill as a joiner.
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 3000, 0),
            RequestSpec::new(RequestId(1), secs(10.0), 5000, 100, 0),
            RequestSpec::new(RequestId(2), secs(10.0), 5000, 100, 0),
        ]);
        let config = oracle(SchedPolicy::Fcfs);
        let (seen, _) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.spec.id == RequestId(1) && st.running)
        });
        assert!(seen.paused_after, "the run did not pause");
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.spec.id == RequestId(2) && st.running)
        });
        assert!(seen.paused_before && seen.paused_after);
        assert_eq!((seen.pauses, seen.joins, seen.full_path), (1, 0, 0));
        assert!(out.records[2].first_token > out.records[1].first_token);
        let work = work_of(&trace, &config);
        assert_eq!((work.prefill_pauses, work.joins), (2, 2), "{work:?}");
    }

    #[test]
    fn a_warm_arrival_sorting_into_the_batch_joins_through_the_planner() {
        // Round robin: request 0 has used up quanta, so a warm arrival (a
        // fresh quantum) sorts before it. The next launch materializes the
        // warm request into the decode batch: the run survives the arrival,
        // and its planned launch takes it in ahead of request 0.
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 3000, 0),
            RequestSpec::warm(RequestId(1), secs(10.0), 64, 200),
        ]);
        let config = oracle(SchedPolicy::RoundRobin { quantum: 100 });
        let (seen, out) = interrupt(&trace, &config, |sh| (sh.routed_arrivals == 2).then_some(0));
        assert_kept(&seen, "warm arrival");
        assert_eq!(seen.caught_up, 0);
        assert_eq!(out.records.len(), 2);
        let (seen, _) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.spec.id == RequestId(1) && st.running)
        });
        assert!(seen.open_before && seen.open_after, "the run closed");
        assert_eq!((seen.joins, seen.full_path), (1, 0));
    }

    /// A run over request 0 that pauses at 10 s for request 1's
    /// 8,000-token prompt, and the prefill's duration.
    fn long_prefill_cell() -> (Vec<RequestSpec>, SimConfig, SimDuration) {
        let config = oracle(SchedPolicy::Fcfs);
        let prefill = config.perf_model().prefill_time_batch(&[8000]);
        let requests = vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 3000, 0),
            RequestSpec::new(RequestId(1), secs(10.0), 8000, 100, 0),
        ];
        (requests, config, prefill)
    }

    #[test]
    fn an_arrival_during_a_pause_pauses_the_run_again() {
        // Request 2 arrives during request 1's prefill: the run stays
        // paused, and at the prefill's end the next launch is request 2's
        // prefill, with request 1 waiting among the joiners.
        let (mut requests, config, prefill) = long_prefill_cell();
        let during = secs(10.0) + SimDuration::from_millis(50) + prefill / 2;
        requests.push(RequestSpec::new(RequestId(2), during, 64, 100, 0));
        let trace = Trace::from_requests(requests);
        let (seen, _) = interrupt(&trace, &config, |sh| (sh.routed_arrivals == 3).then_some(0));
        assert!(
            seen.paused_before && seen.paused_after,
            "no pause around the arrival"
        );
        assert_eq!((seen.kept, seen.caught_up), (1, 0));
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.spec.id == RequestId(2) && st.running)
        });
        assert!(seen.paused_before && seen.paused_after);
        assert_eq!((seen.pauses, seen.full_path), (1, 0));
        assert_eq!(out.records.len(), 3);
        let work = work_of(&trace, &config);
        assert_eq!((work.prefill_pauses, work.joins), (2, 2), "{work:?}");
    }

    #[test]
    fn a_prefill_that_would_evict_a_member_closes_the_run() {
        // PASCAL over a pool of 9,016 tokens: an answering request runs
        // alone until a reasoning arrival, sorting first, needs more room
        // than is left. The run survives the arrival, but the launch its
        // planner makes at the next iteration end evicts the answering
        // request, its only member: with nobody left to replay, the run
        // closes there.
        let geometry = oracle(SchedPolicy::Fcfs).geometry();
        let config = SimConfig::characterization(
            SchedPolicy::pascal(PascalConfig::default()),
            KvCapacityMode::Bytes(geometry.bytes_for_tokens(9_016)),
        );
        let trace = Trace::from_requests(vec![
            RequestSpec::warm(RequestId(0), SimTime::ZERO, 4000, 3000),
            RequestSpec::new(RequestId(1), secs(10.0), 6000, 100, 0),
        ]);
        let (seen, _) = interrupt(&trace, &config, |sh| (sh.routed_arrivals == 2).then_some(0));
        assert_kept(&seen, "arrival");
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.kv_location == KvLocation::OffloadingToCpu)
        });
        assert!(
            seen.open_before && !seen.open_after,
            "the run outlived its batch"
        );
        assert_eq!((seen.caught_up, seen.full_path), (1, 1));
        assert!(out.records[0].num_preemptions > 0);
    }

    #[test]
    fn a_prefill_that_evicts_a_member_pauses_the_run() {
        // PASCAL with room for two requests in a batch: answering requests
        // 2 and 0 run until reasoning request 1 arrives and sorts first.
        // The run survives the arrival; its planned launch at the next
        // iteration end offloads request 0, which no longer fits the
        // batch, and starts request 1's prefill, which request 2 waits
        // through. Request 1 then joins.
        let mut config = oracle(SchedPolicy::pascal(PascalConfig::default()));
        config.max_batch = 2;
        let trace = Trace::from_requests(vec![
            RequestSpec::warm(RequestId(2), SimTime::ZERO, 64, 3000),
            RequestSpec::warm(RequestId(0), secs(0.001), 64, 3000),
            RequestSpec::new(RequestId(1), secs(10.0), 500, 100, 0),
        ]);
        let (seen, _) = interrupt(&trace, &config, |sh| (sh.routed_arrivals == 3).then_some(0));
        assert_kept(&seen, "arrival");
        let (seen, _) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.kv_location == KvLocation::OffloadingToCpu)
        });
        assert!(
            seen.open_before && seen.paused_after,
            "the run did not pause"
        );
        assert_eq!((seen.caught_up, seen.full_path, seen.pauses), (1, 0, 1));
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| {
                st.spec.id == RequestId(1) && st.running && st.tokens_generated == 1
            })
        });
        assert!(seen.paused_before && seen.open_after && !seen.paused_after);
        assert_eq!((seen.joins, seen.full_path), (1, 0));
        assert!(out
            .records
            .iter()
            .any(|r| r.spec.id == RequestId(0) && r.num_preemptions > 0));
    }

    #[test]
    fn a_prefill_behind_a_reader_whose_deadline_falls_before_the_resumed_step_closes_the_run() {
        // Request 0 answers at a reading pace just above the decode step,
        // so its buffer stays short. The run pauses through request 1's
        // long prefill, and request 0's first token after it stalls: the
        // relaunch makes that step the run's stall edge, and its end takes
        // the full path, which records the stall.
        let (mut requests, mut config, _) = long_prefill_cell();
        requests[0] = RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 10, 3000);
        config.target_tpot = config.perf_model().decode_step_time(DecodeBatch {
            num_seqs: 2,
            total_context_tokens: 64 + 8000 + 2000,
        });
        let trace = Trace::from_requests(requests);
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| {
                st.spec.id == RequestId(0) && !st.answers.stalls().is_empty()
            })
        });
        assert!(seen.open_before, "no run open before the stall");
        assert_eq!(
            seen.full_path, 1,
            "the stalling token replayed in closed form"
        );
        assert_eq!(out.records[0].answers.stalls().len(), 1);
        assert_eq!(work_of(&trace, &config).prefill_pauses, 1);
    }

    #[test]
    fn a_fail_stop_during_a_pause_strands_the_caught_up_batch() {
        let (requests, mut config, prefill) = long_prefill_cell();
        let fail = (secs(10.0) + SimDuration::from_millis(50) + prefill / 2).as_secs_f64();
        config.fleet = Some(FleetSpec::parse(&format!("{fail} fail 0\n")).expect("valid spec"));
        let trace = Trace::from_requests(requests);
        let (seen, out) = interrupt(&trace, &config, |sh| {
            (sh.health[0] == crate::fleet::HealthState::Down).then_some(0)
        });
        assert!(
            seen.paused_before,
            "the run was not paused at the fail-stop"
        );
        assert_eq!(seen.caught_up, 1);
        assert!(!seen.open_after);
        assert_eq!(out.fleet.stranded, 2);
        assert!(out.records.is_empty());
    }

    #[test]
    fn a_migration_landing_during_a_pause_joins_after_it() {
        // PASCAL over two instances. Requests 1 and 2 (6,000-token
        // prompts) reach their phase boundaries on instances 1 and 0;
        // request 1 stays, and request 2 then migrates onto instance 1,
        // whose KV transfer takes ≈0.13 s. An answering request (3) with a
        // 4,000-token prompt arrives at instance 1 between the two
        // boundaries: request 1's run pauses through its prefill, and the
        // migration lands during the pause.
        let mut config =
            SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()));
        config.num_instances = 2;
        let mut requests = vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 5000, 0),
            RequestSpec::new(RequestId(1), secs(1.0), 6000, 100, 300),
            RequestSpec::new(RequestId(2), secs(1.0), 6000, 100, 300),
        ];
        config.telemetry.trace = true;
        let events = run_simulation(&Trace::from_requests(requests.clone()), &config)
            .telemetry
            .expect("tracing was on")
            .events;
        let at = |id: u64, kind: fn(&TraceEventKind) -> bool| {
            events
                .iter()
                .find(|e| e.request == Some(id) && kind(&e.kind))
                .expect("both boundaries, and request 2's migration")
                .at
        };
        let stays = at(1, |k| *k == TraceEventKind::PhaseTransition);
        let moves = at(2, |k| matches!(k, TraceEventKind::MigrationLaunched { .. }));
        assert!(stays < moves);
        let between = SimTime::from_nanos((stays.as_nanos() + moves.as_nanos()) / 2);
        requests.push(RequestSpec::new(RequestId(3), between, 4000, 0, 100));
        config.telemetry.trace = false;
        let trace = Trace::from_requests(requests);
        let (seen, out) = interrupt_when(&trace, &config, |before, sh| {
            let i = landed(sh)?;
            before[i as usize].paused.then_some(i)
        });
        assert!(seen.paused_after, "the landing ended the pause");
        // Kept on both sides: the source's run too.
        assert_eq!((seen.kept, seen.caught_up), (2, 0));
        assert_eq!(out.migration_outcomes.launched, 1);
        // It joins at the prefill's end, with the newcomer.
        let (seen, _) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| {
                st.spec.id == RequestId(3) && st.running && st.tokens_generated == 1
            })
        });
        assert!(seen.paused_before && seen.open_after && !seen.paused_after);
        assert_eq!((seen.joins, seen.full_path), (2, 0));
    }

    #[test]
    fn a_max_batch_cut_inside_a_planned_launch_evicts_the_batch_tail() {
        // Round robin with room for two: requests 0 and 1 decode in
        // lockstep and have used up quanta when request 2 arrives with a
        // fresh one, sorting first. Its prefill would make three desired
        // members, so the run plans the launch: cut at `max_batch` walking
        // back from the batch's tail, it evicts request 1 — caught up alone,
        // through its latest token — and pauses over request 0 through
        // request 2's prefill.
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 3000, 0),
            RequestSpec::new(RequestId(1), SimTime::ZERO, 64, 3000, 0),
            RequestSpec::new(RequestId(2), secs(10.0), 64, 200, 0),
        ]);
        let mut config = oracle(SchedPolicy::RoundRobin { quantum: 100 });
        config.max_batch = 2;
        let (seen, out) = interrupt(&trace, &config, |sh| {
            let evicted = sh
                .states
                .iter()
                .find(|(_, st)| st.kv_location == KvLocation::OffloadingToCpu)?;
            assert_eq!(
                evicted.1.spec.id,
                RequestId(1),
                "an evictee other than the batch's tail"
            );
            Some(evicted.1.instance)
        });
        assert!(
            seen.open_before && seen.paused_after,
            "the run did not pause"
        );
        assert_eq!(
            (seen.planned, seen.fallbacks, seen.caught_up, seen.full_path),
            (1, 0, 1, 0)
        );
        assert_eq!(out.records.len(), 3);
    }

    #[test]
    fn a_prefill_between_two_crossers_refuses_the_later_one() {
        // Round robin on two memory-tight instances: find a launch a run
        // planned without walking its batch in which a newcomer's prefill
        // sorts between two members whose need crosses into a new block at
        // that launch, and the pool, short of what the launch grants,
        // grants the first crossing and the prefill and refuses the later
        // member its block. Grants go in key order, members and non-members
        // alike. (A reload sorting among the batch's keys is no joiner: that
        // launch walks the desired set.)
        let trace = pascal_workload::TraceBuilder::new(
            pascal_workload::DatasetMix::arena_with_reasoning_heavy(),
        )
        .arrivals(pascal_workload::ArrivalProcess::poisson(14.0))
        .count(300)
        .seed(23)
        .build();
        let mut config = SimConfig::evaluation_cluster(SchedPolicy::RoundRobin { quantum: 100 });
        config.num_instances = 2;
        config.kv_capacity = KvCapacityMode::FractionOfPhysical(0.2);
        let mut engine = Engine::new(&trace, &config);
        loop {
            let work = hierarchy::total_work(engine.shards());
            assert!(
                engine.step(),
                "no planned launch granted a prefill between two crossers"
            );
            let after = hierarchy::total_work(engine.shards());
            if after.planned_launches != work.planned_launches + 1
                || after.planner_fallbacks != work.planner_fallbacks
            {
                continue;
            }
            let sh = &engine.shards()[0];
            let admitted = &sh.scratch.admitted;
            let at = |admission: lifecycle::Admission| {
                admitted.iter().position(|&(_, a)| a == admission)
            };
            let (Some(prefill), Some(refused)) = (
                at(lifecycle::Admission::Prefill),
                at(lifecycle::Admission::Refused),
            ) else {
                continue;
            };
            // A member granted its crossing runs on through the prefill.
            let granted = admitted[..prefill].iter().any(|&(handle, a)| {
                a == lifecycle::Admission::Decode
                    && sh.states.get(handle).is_some_and(|st| st.running)
            });
            if granted && prefill < refused {
                break;
            }
        }
    }

    #[test]
    fn evictees_of_a_planned_cut_go_offloaded_in_id_order() {
        // PASCAL on one instance with room for four. Requests 0 and 2 are
        // answering, request 1 still reasons with quanta used, and request
        // 3, a fresh arrival, has joined the run when requests 4–6 arrive,
        // sorting after request 3 and before the rest. The launch the run
        // plans cuts at `max_batch` walking back from the batch's tail and
        // evicts requests 1, 0 and 2 (key order) — offloaded in ascending
        // request id, as the full path does, which the PCIe link's
        // completions show — and pauses over request 3.
        let mut config = oracle(SchedPolicy::pascal(PascalConfig {
            quantum: 100,
            ..PascalConfig::default()
        }));
        config.max_batch = 4;
        let mut requests = vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 100, 3000),
            RequestSpec::new(RequestId(1), secs(0.1), 64, 4000, 0),
            RequestSpec::new(RequestId(2), secs(0.2), 64, 100, 3000),
            RequestSpec::new(RequestId(3), secs(9.9), 64, 3000, 0),
        ];
        for id in 4..7 {
            requests.push(RequestSpec::new(RequestId(id), secs(10.0), 64, 200, 0));
        }
        let trace = Trace::from_requests(requests);
        let mut engine = Engine::new(&trace, &config);
        let keys = loop {
            let sh = &engine.shards()[0];
            let keys: Vec<(PriorityKey, u64)> = sh
                .states
                .iter()
                .map(|(_, st)| (sh.policy.priority_key(st), st.spec.id.0))
                .collect();
            let work = hierarchy::total_work(engine.shards());
            assert!(engine.step(), "no planned launch evicted three members");
            let sh = &engine.shards()[0];
            let after = hierarchy::total_work(engine.shards());
            let evicted = sh
                .states
                .iter()
                .filter(|(_, st)| st.kv_location == KvLocation::OffloadingToCpu)
                .count();
            if evicted == 3 {
                assert_eq!(after.planned_launches - work.planned_launches, 1);
                assert_eq!(after.planner_fallbacks, work.planner_fallbacks);
                assert!(sh.instances[0].steady.is_paused(), "the run did not pause");
                break keys;
            }
        };
        let mut order: Vec<(PriorityKey, u64)> =
            keys.into_iter().filter(|&(_, id)| id < 3).collect();
        order.sort_unstable();
        let key_order: Vec<u64> = order.iter().map(|&(_, id)| id).collect();
        assert_eq!(key_order, [1, 0, 2], "the cell's key order moved");
        config.telemetry.trace = true;
        let events = run_simulation(&trace, &config)
            .telemetry
            .expect("tracing was on")
            .events;
        let landed: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::OffloadDone)
            .filter_map(|e| e.request)
            .take(3)
            .collect();
        assert_eq!(
            landed,
            [0, 1, 2],
            "offloads left the PCIe link out of id order"
        );
    }

    #[test]
    fn a_stranger_among_the_batch_keys_takes_the_planner_walk() {
        // Round robin: a warm arrival with a fresh quantum sorts before
        // request 0, which has used up quanta. Needing no prefill, it is no
        // newcomer: neither a joiner nor pending, the run cannot vouch for
        // its key range, and the launch it plans walks the desired set — a
        // counted fallback — taking the warm request in.
        let trace = Trace::from_requests(vec![
            RequestSpec::new(RequestId(0), SimTime::ZERO, 64, 3000, 0),
            RequestSpec::warm(RequestId(1), secs(10.0), 64, 200),
        ]);
        let config = oracle(SchedPolicy::RoundRobin { quantum: 100 });
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.spec.id == RequestId(1) && st.running)
        });
        assert!(seen.open_before && seen.open_after, "the run closed");
        assert_eq!(
            (seen.planned, seen.fallbacks, seen.joins, seen.full_path),
            (1, 1, 1, 0)
        );
        assert_eq!(out.records.len(), 2);
    }

    #[test]
    fn a_cut_past_the_batch_starts_the_first_outside_reload() {
        // Request 0's completion frees room for the evictee, request 2, the
        // first candidate outside the remaining batch: the launch the run
        // plans walks forward past the batch without walking it, starts
        // request 2's reload and goes on over request 1.
        let (trace, config) = reload_cell();
        let (seen, out) = interrupt(&trace, &config, |sh| {
            member_where(sh, |st| st.kv_location == KvLocation::ReloadingToGpu)
        });
        assert!(seen.open_before && seen.open_after, "the run closed");
        assert_eq!(
            (seen.planned, seen.fallbacks, seen.partial, seen.full_path),
            (1, 0, 1, 0)
        );
        assert_eq!(out.records.len(), 3);
        assert!(out.records[2].num_preemptions > 0);
    }
}
