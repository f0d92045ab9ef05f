//! The two kinds of benchmark run.
//!
//! * [`end_to_end`] (untraced): set-up time, simulator cost per generated
//!   token, peak RSS of a fresh process, and the simulated user-facing
//!   figures, each the median over repeated passes.
//! * [`per_layer`] (traced): the same traces once untraced and once with
//!   tracing and the hot-path profiler on, condensed into per-layer counts,
//!   wall-time shares and simulated-time blame.
//!
//! Both measure for about `seconds`: the untraced run cycles through the
//! traces (every trace at least once) and the traced run repeats whole
//! passes (at least one), starting another only while it should still end
//! in time, and both report medians.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use pascal::core::{events_to_jsonl, parse_trace_jsonl, SimConfig, TelemetryConfig};
use pascal::metrics::MigrationOutcomes;
use pascal::telemetry::{
    reconstruct, AnatomyOutcome, AnatomyReport, ProfileReport, TraceEvent, TraceEventKind,
    BLAME_COMPONENTS,
};

use crate::host::{at_nominal_speed, Reference};
use crate::metrics::{median, medians, MetricSpec, Outcome, Sample, END_TO_END, PER_LAYER};
use crate::run::{run_checked, summarize, CheckedRun};
use crate::workload::{Inputs, Workload};

/// Measures the peak RSS, in MiB, of a fresh process running the
/// workload's first trace (`true`: with tracing on).
pub type PeakRss<'a> = &'a dyn Fn(bool) -> Result<f64, String>;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;

/// Inputs built [`SETUP_REPS`] times, with the median timings.
struct Setup {
    inputs: Inputs,
    /// Deployment plus traces, median seconds at nominal host speed.
    setup_s: f64,
    /// `TraceBuilder::build` alone, median seconds as measured.
    build_s: f64,
}

fn timed_setup(workload: &Workload, seed: u64, reference: &mut Reference) -> Setup {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut builds = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    let reference_before = reference.time_s();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let (built, build_s) = Inputs::build_timed(workload, seed);
        setups.push(started.elapsed().as_secs_f64());
        builds.push(build_s);
        inputs = Some(std::hint::black_box(built));
    }
    let reference_after = reference.time_s();
    Setup {
        inputs: inputs.expect("at least one set-up"),
        setup_s: at_nominal_speed(median(&setups), reference_before, reference_after),
        build_s: median(&builds),
    }
}

/// What is known about one trace across passes.
struct TraceState {
    seed: u64,
    arrivals: u64,
    /// Stranded + rejected requests, from the first clean run.
    lost: u64,
    /// Row digest of the first clean run; later runs must repeat it.
    digest: Option<u64>,
    error: Option<String>,
}

/// Failure accounting over a run's traces.
struct Tally {
    traces: Vec<TraceState>,
}

impl Tally {
    fn new(seed: u64, inputs: &Inputs) -> Tally {
        let traces = inputs
            .traces
            .iter()
            .enumerate()
            .map(|(i, t)| TraceState {
                seed: Workload::trace_seed(seed, i),
                arrivals: t.requests().len() as u64,
                lost: 0,
                digest: None,
                error: None,
            })
            .collect();
        Tally { traces }
    }

    fn live(&self, i: usize) -> bool {
        self.traces[i].error.is_none()
    }

    fn fail(&mut self, i: usize, error: String) {
        let t = &mut self.traces[i];
        eprintln!("  trace seed {} FAILED: {error}", t.seed);
        t.error.get_or_insert(error);
    }

    /// Accepts a run of trace `i`, or records why it failed. The first
    /// clean run is logged with the figures `pascal-cli run` prints for the
    /// same seed; later runs must reproduce its digest.
    fn accept(&mut self, i: usize, result: Result<CheckedRun, String>) -> Option<CheckedRun> {
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                self.fail(i, e);
                return None;
            }
        };
        let t = &mut self.traces[i];
        match t.digest {
            Some(d) if d != run.digest => {
                self.fail(
                    i,
                    format!("nondeterministic: digest {:016x} then {d:016x}", run.digest),
                );
                return None;
            }
            Some(_) => {}
            None => {
                t.digest = Some(run.digest);
                t.lost = run.lost();
                log_trace(t.seed, &run);
            }
        }
        Some(run)
    }

    fn arrivals(&self) -> u64 {
        self.traces.iter().map(|t| t.arrivals).sum()
    }

    /// Requests of traces that panicked or failed a check.
    fn failed(&self) -> u64 {
        self.traces
            .iter()
            .filter(|t| t.error.is_some())
            .map(|t| t.arrivals)
            .sum()
    }

    /// (stranded + rejected + requests of failed traces) ÷ arrivals.
    fn failed_share(&self) -> f64 {
        let lost: u64 = self
            .traces
            .iter()
            .filter(|t| t.error.is_none())
            .map(|t| t.lost)
            .sum();
        (lost + self.failed()) as f64 / self.arrivals().max(1) as f64
    }

    /// Marks every trace failed (the fresh-process run of the workload
    /// crashed or failed its checks).
    fn fail_all(&mut self, error: &str) {
        for i in 0..self.traces.len() {
            self.fail(i, error.to_owned());
        }
    }

    fn outcome(&self, values: Sample, specs: &'static [MetricSpec]) -> Outcome {
        Outcome {
            correct: self.failed() == 0,
            attempted: self.arrivals(),
            failed: self.failed(),
            values,
            specs,
        }
    }
}

fn log_trace(seed: u64, run: &CheckedRun) {
    let row = &run.row;
    eprintln!(
        "  trace seed {seed}: {} completed, {} stranded, {} rejected | TTFT p50/p99 {:.1} / {:.1} s \
         | SLO violations {:.2}% | goodput {:.2} req/s | throughput {:.0} tokens/s | digest {:016x}",
        row.requests,
        run.out.fleet.stranded,
        run.out.admission.rejected,
        row.ttft_p50_s.unwrap_or(0.0),
        row.ttft_p99_s.unwrap_or(0.0),
        100.0 * row.slo_violation_rate,
        row.goodput_rps,
        row.throughput_tokens_per_s,
        run.digest
    );
}

/// Calls `step(k)` for k = 0, 1, …: the first `min_steps` calls always,
/// then more while a trace is left and the next call — judged by the last
/// one's duration — still ends within `seconds` of the start. Returns the
/// number of calls.
fn repeat_within(
    seconds: f64,
    min_steps: usize,
    tally: &mut Tally,
    mut step: impl FnMut(&mut Tally, usize),
) -> usize {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut last = Duration::ZERO;
    let mut k = 0;
    while k < min_steps
        || ((0..tally.traces.len()).any(|i| tally.live(i)) && Instant::now() + last <= deadline)
    {
        let started = Instant::now();
        step(tally, k);
        last = started.elapsed();
        k += 1;
    }
    k
}

/// Mean of `f` over `items` (0 when empty).
fn mean<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    items.iter().map(f).sum::<f64>() / items.len() as f64
}

/// The untraced run: every `END_TO_END` metric.
#[must_use]
pub fn end_to_end(workload: &Workload, seed: u64, seconds: f64, peak_rss: PeakRss) -> Outcome {
    let mut reference = Reference::new();
    let setup = timed_setup(workload, seed, &mut reference);
    let inputs = &setup.inputs;
    let mut tally = Tally::new(seed, inputs);
    let rss = peak_rss(false).unwrap_or_else(|e| {
        tally.fail_all(&format!("fresh-process run: {e}"));
        0.0
    });
    // Cycle through the traces: one sample per timed `run_simulation`, each
    // scaled by the reference timed right before and after it, and each
    // trace's sweep row from its first run (later runs repeat it).
    let n = inputs.traces.len();
    let mut ns_per_token = Vec::new();
    let mut first_rows = vec![None; n];
    let mut reference_before = reference.time_s();
    let runs = repeat_within(seconds, n, &mut tally, |tally, k| {
        let i = k % n;
        if !tally.live(i) {
            return;
        }
        let result = run_checked(&inputs.traces[i], &inputs.config);
        let reference_after = reference.time_s();
        if let Some(run) = tally.accept(i, result) {
            let raw = run.wall_s * 1e9 / run.output_tokens().max(1) as f64;
            let ns = at_nominal_speed(raw, reference_before, reference_after);
            eprintln!(
                "    {:.3} s in run_simulation, {raw:.2} ns/token as measured, \
                 {ns:.2} at nominal speed (reference {:.1} ms)",
                run.wall_s,
                reference_after * 1e3
            );
            // The first run grows the heap and fills the caches: not sampled.
            if k > 0 {
                ns_per_token.push(ns);
            }
            first_rows[i].get_or_insert(run.row);
        }
        reference_before = reference_after;
    });
    eprintln!("  {runs} timed run(s)");
    let rows: Vec<_> = first_rows
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| tally.live(i))
        .filter_map(|(_, row)| row)
        .collect();
    let mut values = Sample::from([
        ("ns_per_token", median(&ns_per_token)),
        (
            "sim_ttft_p50_s",
            mean(&rows, |r| r.ttft_p50_s.unwrap_or(0.0)),
        ),
        (
            "sim_ttft_p99_s",
            mean(&rows, |r| r.ttft_p99_s.unwrap_or(0.0)),
        ),
        (
            "sim_slo_attainment",
            mean(&rows, |r| 1.0 - r.slo_violation_rate),
        ),
        ("sim_mean_qoe", mean(&rows, |r| r.mean_qoe)),
        ("sim_goodput_rps", mean(&rows, |r| r.goodput_rps)),
        (
            "sim_throughput_tokens_per_s",
            mean(&rows, |r| r.throughput_tokens_per_s),
        ),
    ]);
    values.insert("setup_s", setup.setup_s);
    values.insert("peak_rss_mib", rss);
    values.insert("completed_share", 1.0 - tally.failed_share());
    tally.outcome(values, &END_TO_END)
}

/// Checks that the reconstructed blame accounts for every request the run
/// terminated: one completed timeline per record, and one stranded
/// timeline per stranding except those of requests stranded on arrival
/// (a fully failed shard), which never open a timeline.
fn check_blame_coverage(
    events: &[TraceEvent],
    anatomy: &AnatomyReport,
    records: u64,
    run_stranded: u64,
) -> Result<(), String> {
    if anatomy.unterminated != 0 {
        return Err(format!(
            "{} traced requests never terminated",
            anatomy.unterminated
        ));
    }
    let arrived: HashSet<u64> = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Arrival))
        .filter_map(|e| e.request)
        .collect();
    let (mut stranded_events, mut stranded_on_arrival) = (0u64, 0u64);
    for e in events {
        if let (TraceEventKind::RequestStranded, Some(id)) = (&e.kind, e.request) {
            stranded_events += 1;
            stranded_on_arrival += u64::from(!arrived.contains(&id));
        }
    }
    let count = |outcome| {
        anatomy
            .requests
            .iter()
            .filter(|r| r.outcome == outcome)
            .count() as u64
    };
    let (completed, stranded) = (
        count(AnatomyOutcome::Completed),
        count(AnatomyOutcome::Stranded),
    );
    if completed != records
        || stranded_events != run_stranded
        || stranded + stranded_on_arrival != run_stranded
    {
        return Err(format!(
            "blame covers {completed} completed + {stranded} stranded (+ {stranded_on_arrival} \
             stranded on arrival, {stranded_events} stranding events); run completed \
             {records}, stranded {run_stranded}"
        ));
    }
    Ok(())
}

/// Per-layer totals of one pass over the traces.
#[derive(Default)]
struct Layers {
    tokens: u64,
    records: u64,
    preemptions: u64,
    kv_peak_share: f64,
    /// Σ wall seconds the profiler saw the event loop run.
    loop_wall_s: f64,
    events: u64,
    /// Per profiler row name: (count, Σ count × mean µs, Σ count × p99 µs).
    rows: Vec<(&'static str, u64, f64, f64)>,
    migrations: MigrationOutcomes,
    placements: u64,
    predictions: u64,
    covered: u64,
    rel_err_p50: Vec<f64>,
    abs_err_p90: Vec<f64>,
    stranded: u64,
    nonlocal_routed: u64,
    summarize_s: f64,
    slo_violation: Vec<f64>,
    trace_events: u64,
    untraced_wall_s: f64,
    traced_wall_s: f64,
    jsonl_s: f64,
    jsonl_bytes: u64,
    parse_s: f64,
    reconstruct_s: f64,
    ttft_share_sum: [f64; BLAME_COMPONENTS],
    ttft_requests: u64,
}

impl Layers {
    fn add_profile(&mut self, profile: &ProfileReport) {
        self.loop_wall_s += profile.wall_s;
        self.events += profile.events;
        for row in &profile.rows {
            let n = row.count as f64;
            match self.rows.iter_mut().find(|r| r.0 == row.name) {
                Some(r) => {
                    r.1 += row.count;
                    r.2 += n * row.mean_us;
                    r.3 += n * row.p99_us;
                }
                None => self
                    .rows
                    .push((row.name, row.count, n * row.mean_us, n * row.p99_us)),
            }
        }
    }

    /// Adds one trace's untraced and traced runs, checking that tracing
    /// changed nothing and that the trace round-trips and reconstructs.
    fn add(
        &mut self,
        config: &SimConfig,
        plain: &CheckedRun,
        traced: &CheckedRun,
    ) -> Result<(), String> {
        if traced.digest != plain.digest {
            return Err(format!(
                "observer effect: traced digest {:016x} != untraced {:016x}",
                traced.digest, plain.digest
            ));
        }
        let out = &plain.out;
        let telemetry = traced
            .out
            .telemetry
            .as_ref()
            .ok_or("traced run has no telemetry")?;
        let profile = telemetry
            .profile
            .as_ref()
            .ok_or("traced run has no profile")?;
        self.add_profile(profile);

        self.tokens += plain.output_tokens();
        self.records += out.records.len() as u64;
        self.preemptions += out
            .records
            .iter()
            .map(|r| u64::from(r.num_preemptions))
            .sum::<u64>();
        let capacity = config.kv_capacity_bytes().unwrap_or(u64::MAX).max(1) as f64;
        let peak = out.peak_gpu_kv_bytes.iter().copied().max().unwrap_or(0) as f64;
        self.kv_peak_share = self.kv_peak_share.max(peak / capacity);
        self.migrations.absorb(&out.migration_outcomes);
        self.placements += out
            .shard_stats
            .iter()
            .map(|s| s.routed_arrivals)
            .sum::<u64>();
        if let Some(cal) = out.calibration() {
            self.predictions += cal.samples as u64;
            self.covered += cal.covered as u64;
            self.rel_err_p50.push(cal.rel_error_p50);
            self.abs_err_p90.push(cal.abs_error_p90);
        }
        self.stranded += out.fleet.stranded;
        self.nonlocal_routed += out
            .region_stats
            .iter()
            .map(|r| r.nonlocal_arrivals)
            .sum::<u64>();
        self.slo_violation.push(plain.row.slo_violation_rate);
        self.untraced_wall_s += plain.wall_s;
        self.traced_wall_s += traced.wall_s;

        let events = &telemetry.events;
        self.trace_events += events.len() as u64;
        let started = Instant::now();
        let jsonl = std::hint::black_box(events_to_jsonl(events));
        self.jsonl_s += started.elapsed().as_secs_f64();
        self.jsonl_bytes += jsonl.len() as u64;
        let started = Instant::now();
        let parsed = std::hint::black_box(parse_trace_jsonl(&jsonl))?;
        self.parse_s += started.elapsed().as_secs_f64();
        if parsed != *events {
            return Err("trace JSONL does not round-trip".to_owned());
        }
        let started = Instant::now();
        let anatomy = std::hint::black_box(reconstruct(events));
        self.reconstruct_s += started.elapsed().as_secs_f64();
        check_blame_coverage(
            events,
            &anatomy,
            out.records.len() as u64,
            out.fleet.stranded,
        )?;
        for blame in anatomy.requests.iter().filter_map(|r| r.ttft) {
            let total = blame.total_ns();
            if total == 0 {
                continue;
            }
            for (sum, ns) in self.ttft_share_sum.iter_mut().zip(blame.as_array()) {
                *sum += ns as f64 / total as f64;
            }
            self.ttft_requests += 1;
        }
        Ok(())
    }

    /// Count, Σ count × mean and Σ count × p99 over the named profiler rows.
    fn group(&self, names: &[&str]) -> (f64, f64, f64) {
        self.rows
            .iter()
            .filter(|r| names.contains(&r.0))
            .fold((0.0, 0.0, 0.0), |(n, busy, p99), r| {
                (n + r.1 as f64, busy + r.2, p99 + r.3)
            })
    }

    fn sample(&self) -> Sample {
        let loop_us = self.loop_wall_s * 1e6;
        let tokens = self.tokens.max(1) as f64;
        let mut s = Sample::new();
        let groups: [(&str, &[&str]); 5] = [
            ("arrival", &["arrival"]),
            ("iteration", &["iteration_done"]),
            ("kv_io", &["offload_done", "reload_done"]),
            (
                "migration",
                &["migration_done", "cross_shard_done", "cross_region_done"],
            ),
            ("fleet", &["fleet"]),
        ];
        for (group, names) in groups {
            let (n, busy, p99) = self.group(names);
            let per = |x: f64| if n > 0.0 { x / n } else { 0.0 };
            // Fields the metric list does not name (kv_io p99, fleet
            // mean) are skipped.
            let put = |s: &mut Sample, field: &str, v: f64| {
                let name = PER_LAYER
                    .iter()
                    .find(|m| m.name == format!("engine.{group}.{field}"))
                    .map(|m| m.name);
                if let Some(name) = name {
                    s.insert(name, v);
                }
            };
            put(&mut s, "count", n);
            put(&mut s, "mean_us", per(busy));
            put(&mut s, "p99_us", per(p99));
            put(&mut s, "share", busy / loop_us.max(f64::MIN_POSITIVE));
        }
        let (_, all_busy, _) = self.group(&pascal::telemetry::ProfiledEvent::ALL.map(|e| e.name()));
        let (iterations, _, _) = self.group(&["iteration_done"]);
        let m = &self.migrations;
        let ttft_n = self.ttft_requests.max(1) as f64;
        let blame = |c: usize| self.ttft_share_sum[c] / ttft_n;
        s.extend([
            ("workload.output_tokens", self.tokens as f64),
            ("sim.events", self.events as f64),
            ("sim.events_per_token", self.events as f64 / tokens),
            ("sim.wall_s", self.untraced_wall_s),
            (
                "engine.tokens_per_iteration",
                self.tokens as f64 / iterations.max(1.0),
            ),
            (
                "engine.accounted_share",
                all_busy / loop_us.max(f64::MIN_POSITIVE),
            ),
            ("sched.placements", self.placements as f64),
            ("sched.migrations.considered", m.considered as f64),
            ("sched.migrations.launched", m.launched as f64),
            ("sched.migrations.vetoed", m.vetoed_by_cost as f64),
            (
                "sched.escape.cross_shard.considered",
                m.cross_shard_considered as f64,
            ),
            (
                "sched.escape.cross_shard.launched",
                m.cross_shard_launched as f64,
            ),
            (
                "sched.escape.cross_region.considered",
                m.cross_region_considered as f64,
            ),
            (
                "sched.escape.cross_region.launched",
                m.cross_region_launched as f64,
            ),
            (
                "cluster.preemptions_per_request",
                self.preemptions as f64 / self.records.max(1) as f64,
            ),
            ("cluster.kv_peak_share", self.kv_peak_share),
            (
                "predict.coverage",
                self.covered as f64 / self.predictions.max(1) as f64,
            ),
            ("predict.rel_err_p50", mean(&self.rel_err_p50, |v| *v)),
            (
                "predict.abs_err_p90_tokens",
                mean(&self.abs_err_p90, |v| *v),
            ),
            ("federation.stranded", self.stranded as f64),
            ("federation.nonlocal_routed", self.nonlocal_routed as f64),
            ("metrics.summarize_s", self.summarize_s),
            (
                "metrics.slo_violation_rate",
                mean(&self.slo_violation, |v| *v),
            ),
            ("telemetry.trace_events", self.trace_events as f64),
            (
                "telemetry.trace_overhead",
                self.traced_wall_s / self.untraced_wall_s.max(f64::MIN_POSITIVE),
            ),
            ("telemetry.jsonl_s", self.jsonl_s),
            ("telemetry.jsonl_bytes", self.jsonl_bytes as f64),
            ("telemetry.reconstruct_s", self.reconstruct_s),
            ("analyze.parse_s", self.parse_s),
            ("blame.ttft.queue", blame(0)),
            ("blame.ttft.service", blame(1)),
            ("blame.ttft.offload", blame(2)),
            ("blame.ttft.parked", blame(3)),
            ("blame.ttft.migration_intra", blame(4)),
            ("blame.ttft.migration_cross_shard", blame(5)),
            ("blame.ttft.migration_cross_region", blame(6)),
        ]);
        s
    }
}

/// The traced run: every `PER_LAYER` metric.
#[must_use]
pub fn per_layer(workload: &Workload, seed: u64, seconds: f64, peak_rss: PeakRss) -> Outcome {
    let mut reference = Reference::new();
    let setup = timed_setup(workload, seed, &mut reference);
    let inputs = &setup.inputs;
    let mut traced_config = inputs.config.clone();
    traced_config.telemetry = TelemetryConfig {
        trace: true,
        series_interval: None,
        profile: true,
    };
    let mut tally = Tally::new(seed, inputs);
    let rss = peak_rss(true).unwrap_or_else(|e| {
        tally.fail_all(&format!("fresh-process traced run: {e}"));
        0.0
    });
    // Whole passes over the traces, one sample each; counts are per pass.
    // The host-speed reference is timed after each pass.
    let mut samples = Vec::new();
    let mut reference_ms = Vec::new();
    let passes = repeat_within(seconds, 1, &mut tally, |tally, _| {
        let mut layers = Layers::default();
        for (i, trace) in inputs.traces.iter().enumerate() {
            if !tally.live(i) {
                continue;
            }
            let Some(plain) = tally.accept(i, run_checked(trace, &inputs.config)) else {
                continue;
            };
            let started = Instant::now();
            std::hint::black_box(summarize(std::hint::black_box(&plain.out)));
            layers.summarize_s += started.elapsed().as_secs_f64();
            let added = run_checked(trace, &traced_config)
                .and_then(|traced| layers.add(&inputs.config, &plain, &traced));
            if let Err(e) = added {
                tally.fail(i, e);
            }
        }
        samples.push(layers.sample());
        reference_ms.push(reference.time_s() * 1e3);
    });
    eprintln!("  {passes} pass(es)");
    let mut values = medians(&samples);
    values.insert("host.reference_ms", median(&reference_ms));
    values.insert("workload.build_s", setup.build_s);
    values.insert("telemetry.traced_peak_rss_mib", rss);
    values.insert("failed_share", tally.failed_share());
    tally.outcome(values, &PER_LAYER)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::NAMES;

    fn no_rss(_: bool) -> Result<f64, String> {
        Ok(1.0)
    }

    #[test]
    fn every_workload_emits_every_metric_at_smoke_size() {
        for name in NAMES {
            let w = Workload::named(name)
                .expect("listed workload")
                .with_count(60);
            for outcome in [
                end_to_end(&w, 11, 0.0, &no_rss),
                per_layer(&w, 11, 0.0, &no_rss),
            ] {
                assert!(outcome.correct, "{name}: {outcome:?}");
                assert_eq!(outcome.failed, 0);
                assert_eq!(outcome.attempted, 60 * w.traces as u64);
                for spec in outcome.specs {
                    let v = outcome.values.get(spec.name);
                    assert!(v.is_some_and(|v| v.is_finite()), "{name}: {}", spec.name);
                }
                assert_eq!(
                    outcome.values.len(),
                    outcome.specs.len(),
                    "{name}: extra metrics"
                );
            }
        }
    }

    #[test]
    fn blame_coverage_allows_requests_stranded_on_arrival() {
        let ev = |t_ns, request, kind| TraceEvent {
            at: pascal::sim::SimTime::from_nanos(t_ns),
            region: 0,
            shard: 0,
            instance: None,
            request: Some(request),
            kind,
        };
        let events = vec![
            ev(0, 1, TraceEventKind::Arrival),
            ev(5, 1, TraceEventKind::Completed { tokens: 3 }),
            ev(10, 2, TraceEventKind::Arrival),
            ev(20, 2, TraceEventKind::RequestStranded),
            // A fully failed shard strands request 3 with no arrival edge.
            ev(30, 3, TraceEventKind::RequestStranded),
        ];
        let anatomy = reconstruct(&events);
        assert_eq!(anatomy.requests.len(), 2);
        assert_eq!(check_blame_coverage(&events, &anatomy, 1, 2), Ok(()));
        // A completion or stranding the blame misses is still an error.
        assert!(check_blame_coverage(&events, &anatomy, 2, 2).is_err());
        assert!(check_blame_coverage(&events, &anatomy, 1, 3).is_err());
        assert!(check_blame_coverage(&events[..4], &anatomy, 1, 2).is_err());
    }

    #[test]
    fn a_failing_run_counts_all_its_requests() {
        let mut w = Workload::named("backlog")
            .expect("listed workload")
            .with_count(40);
        let good = w.clone();
        // Three shards cannot split 32 instances: every simulation panics.
        w.shards = 3;
        let outcome = end_to_end(&w, 5, 0.0, &no_rss);
        assert!(!outcome.correct);
        assert_eq!(outcome.failed, outcome.attempted);
        assert_eq!(outcome.values["completed_share"], 0.0);
        let outcome = per_layer(&w, 5, 0.0, &no_rss);
        assert_eq!(outcome.values["failed_share"], 1.0);

        // A crash of the fresh-process run fails the whole workload too.
        let w = good;
        let crash = |_: bool| Err("exit status 101".to_owned());
        let outcome = end_to_end(&w, 5, 0.0, &crash);
        assert!(!outcome.correct);
        assert_eq!(outcome.failed, outcome.attempted);
        assert_eq!(outcome.values["completed_share"], 0.0);
        let outcome = per_layer(&w, 5, 0.0, &crash);
        assert_eq!(outcome.values["failed_share"], 1.0);
        assert!(outcome.to_json().starts_with("{\"correct\": false,"));
    }
}
