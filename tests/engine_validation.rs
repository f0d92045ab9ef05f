//! Simulator validation — our substitute for the paper's real-hardware MAPE
//! check (§V-A): an isolated request's simulated end-to-end latency must
//! match the closed-form model exactly, and derived metrics must decompose.

use pascal::core::{run_simulation, KvCapacityMode, SimConfig};
use pascal::model::validate::isolated_request_latency;
use pascal::sched::SchedPolicy;
use pascal::sim::SimTime;
use pascal::workload::{RequestId, RequestSpec, Trace};

fn single_request_trace(prompt: u32, reasoning: u32, answering: u32) -> Trace {
    Trace::from_requests(vec![RequestSpec::new(
        RequestId(0),
        SimTime::ZERO,
        prompt,
        reasoning,
        answering,
    )])
}

#[test]
fn isolated_request_matches_closed_form_exactly() {
    for (prompt, reasoning, answering) in [(128, 50, 50), (256, 1, 1), (64, 200, 0), (512, 7, 93)] {
        let trace = single_request_trace(prompt, reasoning, answering);
        let config = SimConfig::characterization(SchedPolicy::Fcfs, KvCapacityMode::Unlimited);
        let out = run_simulation(&trace, &config);
        let record = &out.records[0];

        let expected = isolated_request_latency(
            &config.perf_model(),
            prompt,
            reasoning + answering - 1, // prefill emits the first token
        );
        assert_eq!(
            record.e2e_latency(),
            expected,
            "({prompt},{reasoning},{answering}): engine diverged from closed form"
        );
    }
}

#[test]
fn isolated_request_has_no_wait_time() {
    let trace = single_request_trace(128, 20, 20);
    let config = SimConfig::characterization(SchedPolicy::Fcfs, KvCapacityMode::Unlimited);
    let out = run_simulation(&trace, &config);
    let r = &out.records[0];
    assert_eq!(r.blocked.as_nanos(), 0);
    assert_eq!(r.preempted.as_nanos(), 0);
    assert_eq!(r.num_preemptions, 0);
    assert_eq!(r.executed, r.e2e_latency());
}

#[test]
fn ttft_decomposes_into_reasoning_latency_plus_ttfat() {
    let trace = single_request_trace(128, 30, 10);
    let config = SimConfig::characterization(SchedPolicy::Fcfs, KvCapacityMode::Unlimited);
    let out = run_simulation(&trace, &config);
    let r = &out.records[0];
    let ttft = r.ttft().expect("answers");
    let reasoning = r.reasoning_latency().expect("reasons");
    let ttfat = r.ttfat().expect("transitions");
    assert_eq!(ttft, reasoning + ttfat, "Fig. 1(b) decomposition");
    // TTFAT with no contention is a single decode step: a few tens of ms.
    let ms = ttfat.as_millis_f64();
    assert!((10.0..80.0).contains(&ms), "uncontended TTFAT {ms} ms");
}

#[test]
fn warm_request_skips_prefill_compute() {
    let warm = Trace::from_requests(vec![RequestSpec::warm(
        RequestId(0),
        SimTime::ZERO,
        128,
        50,
    )]);
    let config = SimConfig::characterization(SchedPolicy::Fcfs, KvCapacityMode::Unlimited);
    let out = run_simulation(&warm, &config);
    let r = &out.records[0];
    assert_eq!(r.tokens_generated, 50);
    assert_eq!(r.answers.len(), 50);
    // All 50 tokens decode; no prefill pass. Per-token ~30-40 ms.
    let per_token = r.e2e_latency().as_secs_f64() / 50.0;
    assert!((0.02..0.06).contains(&per_token), "per-token {per_token}s");
}
