//! Quickstart: the Fig. 2 walkthrough, for real.
//!
//! Three requests (A, B, C) arrive one decode-step apart on a single
//! instance whose KV memory holds only two of them at a time. Under FCFS,
//! request C suffers head-of-line blocking; under round-robin it is admitted
//! after A exhausts its token quantum; the oracle admits everyone at once.
//!
//! Run with: `cargo run --release --example quickstart`

use pascal::core::{run_simulation, KvCapacityMode, SimConfig};
use pascal::sched::SchedPolicy;
use pascal::sim::SimTime;
use pascal::workload::{RequestId, RequestSpec, Trace};

fn main() {
    // One decode step of the 32B model on an H100 is ~30 ms; use it as the
    // "time unit" of Fig. 2.
    let step = 0.035;

    // A and B generate 8 tokens, C generates 7 (4 reasoning + the rest
    // answering). Prompts are one KV block (16 tokens) each.
    let mk = |id: u64, arrive_steps: f64, reasoning: u32, answering: u32| {
        RequestSpec::new(
            RequestId(id),
            SimTime::from_secs_f64(arrive_steps * step),
            16,
            reasoning,
            answering,
        )
    };
    let trace = Trace::from_requests(vec![
        mk(0, 0.0, 4, 4), // A
        mk(1, 1.0, 4, 4), // B
        mk(2, 2.0, 4, 3), // C
    ]);

    // KV memory for exactly two in-flight requests: each needs
    // ceil((16 prompt + 8 output + 1) / 16) = 2 blocks of 16 tokens.
    let geometry =
        SimConfig::characterization(SchedPolicy::Fcfs, KvCapacityMode::Unlimited).geometry();
    let two_requests = 4 * geometry.block_bytes();

    println!("Fig. 2 walkthrough: A/B/C on one instance, memory for two requests\n");
    for (label, policy, capacity) in [
        (
            "(a) oracle (infinite memory)",
            SchedPolicy::Fcfs,
            KvCapacityMode::Unlimited,
        ),
        (
            "(b) FCFS",
            SchedPolicy::Fcfs,
            KvCapacityMode::Bytes(two_requests),
        ),
        (
            "(c) round-robin, quantum 4",
            SchedPolicy::RoundRobin { quantum: 4 },
            KvCapacityMode::Bytes(two_requests),
        ),
    ] {
        let config = SimConfig::characterization(policy, capacity);
        let out = run_simulation(&trace, &config);
        println!("{label}:");
        for record in &out.records {
            let name = ["A", "B", "C"][record.spec.id.0 as usize];
            let first = record.first_token;
            let steps_to_first = (first.saturating_since(record.spec.arrival)).as_secs_f64() / step;
            let steps_to_done =
                (record.completion.saturating_since(record.spec.arrival)).as_secs_f64() / step;
            println!(
                "  request {name}: first token after {steps_to_first:>4.1} steps, \
                 done after {steps_to_done:>4.1} steps, preemptions: {}",
                record.num_preemptions
            );
        }
        println!();
    }
    println!(
        "FCFS makes C wait for A to finish (head-of-line blocking); RR preempts A after\n\
         its 4-token quantum so C starts within a few steps — exactly Fig. 2(b) vs (c)."
    );
}
