//! Microbenchmarks of the scheduler's hot paths: the event queue, the
//! placement algorithms (Algorithm 1/2), the decode latency model, and a
//! full small simulation — the engineering costs behind every figure.
//!
//! The offline workspace carries no criterion; a minimal warmup-then-measure
//! harness (median of timed batches) stands in.

use std::hint::black_box;
use std::time::Instant;

use pascal_cluster::InstanceStats;
use pascal_core::{reconstruct, run_simulation, FederationPolicy, SimConfig, TelemetryConfig};
use pascal_model::{DecodeBatch, GpuSpec, LlmSpec, PerfModel};
use pascal_sched::{PascalConfig, RouterPolicy, SchedPolicy};
use pascal_sim::{EventQueue, SimDuration};
use pascal_workload::{ArrivalProcess, DatasetMix, DatasetProfile, TraceBuilder};

/// Times `iters` calls of `f` per batch over `batches` batches and prints
/// the median per-call latency.
fn bench_function<R>(name: &str, batches: usize, iters: usize, mut f: impl FnMut() -> R) {
    // Warmup.
    for _ in 0..iters.max(1) {
        black_box(f());
    }
    let mut per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    let median = per_call[per_call.len() / 2];
    let (value, unit) = if median >= 1e-3 {
        (median * 1e3, "ms")
    } else if median >= 1e-6 {
        (median * 1e6, "µs")
    } else {
        (median * 1e9, "ns")
    };
    println!("{name:<40} {value:>10.3} {unit}/iter  (median of {batches}x{iters})");
}

/// Deterministic 64-bit LCG: enough entropy to spread event times, no
/// external crate, the same stream on every run.
struct Lcg(u64);

impl Lcg {
    fn next_offset_ns(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % 1_000_000 + 1
    }
}

/// Steady-state queue cost at a fixed pending population: each measured
/// iteration pops the earliest event and schedules a replacement on the
/// same shard, so the queue holds `pending` events (spread over four
/// shards) throughout and the figure is the cost *at that depth* rather
/// than the cost of filling or draining.
fn bench_queue_ops_at(pending: usize) {
    let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
    let mut q = EventQueue::new();
    for i in 0..pending {
        let t = q.now() + SimDuration::from_nanos(rng.next_offset_ns());
        q.schedule(t, i as u32 % 4, i as u64);
    }
    bench_function(
        &format!("event_queue_pop+schedule_{pending}"),
        10,
        100_000,
        || {
            let (_, shard, payload) = q.pop().expect("steady-state queue never drains");
            let t = q.now() + SimDuration::from_nanos(rng.next_offset_ns());
            q.schedule(t, shard, payload);
        },
    );
}

/// The queue at the populations the engine holds: ~8 pending events per
/// shard on the benchmark deployments, up to a few hundred on the
/// 64-shard cell. The ladder is capped by `PASCAL_BENCH_COUNT` so the CI
/// smoke run touches only the shallow depths.
fn bench_queue_ops() {
    let cap = pascal_bench::smoke_count(1_024);
    for pending in [8usize, 32, 128, 1_024] {
        if pending <= cap.max(8) {
            bench_queue_ops_at(pending);
        }
    }
}

fn stats_pool(n: u32) -> Vec<InstanceStats> {
    (0..n)
        .map(|i| InstanceStats {
            instance: i,
            slo_ok: i % 3 != 0,
            kv_footprint_bytes: u64::from((i * 7919) % 1000) * 1_000_000,
            reasoning_count: (i * 31) % 40,
            fresh_answering_count: (i * 17) % 10,
            gpu_free_blocks: Some(u64::from((i * 13) % 2000)),
            predicted_future_kv_bytes: 0,
        })
        .collect()
}

fn bench_placement() {
    let policy = SchedPolicy::pascal(PascalConfig::default());
    let stats = stats_pool(64);
    bench_function("algorithm1_place_64_instances", 20, 10_000, || {
        black_box(policy.place_new_request(black_box(&stats)))
    });
    bench_function("algorithm2_migrate_64_instances", 20, 10_000, || {
        black_box(policy.migration_decision(0, 100, black_box(&stats)))
    });
}

fn bench_perf_model() {
    let perf = PerfModel::new(
        LlmSpec::deepseek_r1_distill_qwen_32b(),
        GpuSpec::h100_96gb(),
    );
    bench_function("decode_step_time", 20, 10_000, || {
        black_box(perf.decode_step_time(black_box(DecodeBatch {
            num_seqs: 128,
            total_context_tokens: 128 * 900,
        })))
    });
}

/// Prices the latency-anatomy blame pass: replaying a busy federated
/// trace into per-request timelines. Reported both per-iteration and as
/// reconstruction throughput (trace events consumed per second), since
/// the pass is linear in trace length.
fn bench_blame_reconstruction() {
    let count = pascal_bench::smoke_count(2_000);
    let trace = TraceBuilder::new(DatasetMix::single(DatasetProfile::arena_hard()))
        .arrivals(ArrivalProcess::poisson(16.0))
        .count(count)
        .seed(21)
        .build();
    let mut config = SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()))
        .with_shards(2, RouterPolicy::LeastLoaded)
        .with_regions(2, FederationPolicy::Nearest);
    config.telemetry = TelemetryConfig {
        trace: true,
        ..TelemetryConfig::default()
    };
    let out = run_simulation(&trace, &config);
    let events = out.telemetry.expect("trace enabled").events;
    println!(
        "blame fixture: {} trace events from {} requests",
        events.len(),
        count
    );
    bench_function("blame_reconstruct_trace", 10, 20, || {
        reconstruct(black_box(&events)).requests.len()
    });
    let reps = 50usize;
    let start = Instant::now();
    for _ in 0..reps {
        black_box(reconstruct(black_box(&events)));
    }
    let per_pass = start.elapsed().as_secs_f64() / reps as f64;
    println!(
        "blame_reconstruct_throughput                 {:>12.0} events/sec",
        events.len() as f64 / per_pass
    );
}

fn bench_small_simulation() {
    let count = pascal_bench::smoke_count(100);
    let trace = TraceBuilder::new(DatasetMix::single(DatasetProfile::alpaca_eval2()))
        .arrivals(ArrivalProcess::poisson(8.0))
        .count(count)
        .seed(99)
        .build();
    let config = SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()));
    bench_function(&format!("simulate_{count}_requests_pascal"), 10, 3, || {
        black_box(run_simulation(black_box(&trace), black_box(&config)))
    });
}

fn main() {
    println!("=== micro_scheduler_overhead — hot-path microbenchmarks ===");
    bench_queue_ops();
    bench_placement();
    bench_perf_model();
    bench_blame_reconstruction();
    bench_small_simulation();
}
