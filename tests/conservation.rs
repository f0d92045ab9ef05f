//! Conservation laws: no request is lost, every token is generated exactly
//! once, records are internally consistent, and wall time decomposes into
//! executed + blocked + preempted.

use pascal::core::experiments::common::{main_policies, pascal_non_adaptive, run_cluster};
use pascal::workload::{ArrivalProcess, DatasetMix, DatasetProfile, TraceBuilder};

#[test]
fn all_requests_complete_with_exact_token_counts() {
    let trace = TraceBuilder::new(DatasetMix::arena_with_reasoning_heavy())
        .arrivals(ArrivalProcess::poisson(10.0))
        .count(200)
        .seed(5)
        .build();
    let mut policies = main_policies();
    policies.push(pascal_non_adaptive());
    for policy in policies {
        let out = run_cluster(&trace, policy);
        assert_eq!(
            out.records.len(),
            trace.requests().len(),
            "{}: lost requests",
            policy.name()
        );
        let mut total_tokens = 0u64;
        for (record, spec) in out.records.iter().zip(trace.requests()) {
            assert_eq!(record.spec, *spec, "{}: spec mismatch", policy.name());
            record.assert_consistent();
            total_tokens += u64::from(record.tokens_generated);
        }
        assert_eq!(
            total_tokens,
            trace.total_output_tokens(),
            "{}: token conservation",
            policy.name()
        );
    }
}

#[test]
fn wall_time_decomposes_exactly() {
    let trace = TraceBuilder::new(DatasetMix::single(DatasetProfile::alpaca_eval2()))
        .arrivals(ArrivalProcess::poisson(12.0))
        .count(150)
        .seed(8)
        .build();
    for policy in main_policies() {
        let out = run_cluster(&trace, policy);
        for record in &out.records {
            let accounted = record.accounted_time().as_secs_f64();
            let e2e = record.e2e_latency().as_secs_f64();
            assert!(
                (accounted - e2e).abs() < 1e-6,
                "{} {}: accounted {accounted}s != e2e {e2e}s",
                policy.name(),
                record.spec.id
            );
        }
    }
}

#[test]
fn token_streams_are_monotone_and_within_lifetime() {
    let trace = TraceBuilder::new(DatasetMix::single(DatasetProfile::gpqa()))
        .arrivals(ArrivalProcess::poisson(8.0))
        .count(100)
        .seed(9)
        .build();
    for policy in main_policies() {
        let out = run_cluster(&trace, policy);
        for r in &out.records {
            // Every output token was generated, in order, between arrival
            // and completion: arrival ≤ first token ≤ phase boundary ≤
            // first answer ≤ last token == completion.
            assert!(r.first_token >= r.spec.arrival);
            let boundary = r.phase_boundary.expect("gpqa requests reason");
            assert!(r.first_token <= boundary);
            let first_answer = r.first_answer_time().expect("gpqa requests answer");
            assert!(boundary <= first_answer);
            assert!(first_answer <= r.last_token_time());
            assert_eq!(r.last_token_time(), r.completion);
        }
    }
}
