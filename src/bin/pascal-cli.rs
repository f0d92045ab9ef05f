//! `pascal-cli` — run serving simulations from the command line.
//!
//! ```text
//! pascal-cli run  --dataset arena --policy pascal --rate high --count 1000
//! pascal-cli run  --dataset alpaca --policy fcfs --rate 12.5 --csv out.csv
//! pascal-cli sweep --grid ci --threads 4 --out sweep-out
//! pascal-cli sweep --grid ci --baseline BENCH_BASELINE.json
//! pascal-cli capacity --dataset mixed
//! ```

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use pascal::core::report::{records_csv, render_table};
use pascal::core::sweep::gate::{compare, GateTolerances};
use pascal::core::sweep::SweepThroughput;
use pascal::core::{
    anatomy_to_csv, anatomy_to_json, anatomy_waterfall, estimate_capacity_rps, events_to_chrome,
    events_to_jsonl, parse_trace_jsonl, run_simulation, run_simulation_with_series, AdmissionMode,
    FleetPreset, FleetSpec, RateLevel, SeriesSink, SeriesWriter, SimConfig, SweepGrid, SweepReport,
    SweepRunner, TelemetryConfig, TraceFormat,
};
use pascal::federation::{FederationPolicy, WanLink};
use pascal::metrics::{
    goodput_requests_per_s, slo_violation_rate, throughput_tokens_per_s, LatencySummary, QoeParams,
    SLO_QOE_THRESHOLD,
};
use pascal::predict::PredictorKind;
use pascal::sched::{PolicyKind, RouterPolicy, SchedPolicy};
use pascal::sim::SimDuration;
use pascal::telemetry::{peak_rss_bytes, reconstruct, SloAlertPreset, SloAlertSpec, WorkCounters};
use pascal::workload::{ArrivalProcess, DatasetMix, MixPreset, Trace, TraceBuilder};

const USAGE: &str = "\
pascal-cli — PASCAL reasoning-LLM serving simulator

USAGE:
  pascal-cli run [OPTIONS]       simulate a trace and print metrics
  pascal-cli sweep [OPTIONS]     run a scenario grid on a worker pool
  pascal-cli analyze [OPTIONS]   latency anatomy of a captured trace
  pascal-cli capacity [OPTIONS]  print the analytic cluster capacity

OPTIONS (run):
  --dataset <alpaca|arena|math500|gpqa|lcb|mixed|reasoning-heavy>  [alpaca]
  --policy  <fcfs|rr|pascal|pascal-nomigration|pascal-nonadaptive> [pascal]
  --predictor <none|oracle|ema|rank|quantile>       length predictor [none]
          valid values: none (reactive, the default), oracle (reads the
          trace's hidden lengths), ema (learns per-dataset running means),
          rank (orders by predicted remaining work), quantile (P² streaming
          per-phase quantiles, robust to heavy tails). With pascal, enables
          speculative demotion + predicted-footprint placement and prints
          a calibration report.
  --admission <none|predictive>                     admission ctrl [none]
          predictive rejects arrivals whose predicted aggregate KV
          footprint exceeds the pool budget, instead of waiting for
          pacer starvation.
  --migration-benefit <RATIO>                       cost/benefit migration
          enables the predictive migration controller: veto Algorithm 2
          migrations whose predicted remaining service is below RATIO
          transfer-times (needs a --predictor with absolute estimates and
          --policy pascal or pascal-nonadaptive).
  --rate    <low|medium|high|REQ_PER_S>             arrival rate   [high]
  --count   <N>                                     requests       [1000]
  --seed    <N>                                     RNG seed       [42]
  --instances <N>                                   cluster size   [8]
  --shards  <N>                                     scheduling domains [1]
          partitions the instances into N shards behind a cluster
          router; 1 reproduces the single-pool engine byte-for-byte.
          Must divide --instances.
  --router  <rr|least|predictive>                   cross-shard router [rr]
          rr rotates arrivals, least picks the smallest current KV
          footprint, predictive ranks shards by current+predicted
          footprint (Algorithm 1 lifted to shard granularity).
  --regions <N>                                     geographic regions [1]
          federates the cluster: instances split into N regions (each a
          cluster of --shards shards) behind a federation router; 1
          reproduces the cluster engine byte-for-byte. Must divide
          --instances together with --shards. Arrivals carry geo-skewed
          origin tags.
  --fed-router <static|nearest|predictive>          federation router [static]
          static pins arrivals to their origin region, nearest fails over
          to the closest healthy region, predictive ranks regions by
          current+predicted footprint (Algorithm 1 lifted once more).
  --wan     <metro|regional|continental|transoceanic>  WAN class [continental]
          the cross-region link tier; always pricier than the inter-shard
          interconnect, so the migration cost/benefit veto forbids
          frivolous cross-region moves.
  --fleet-events <PATH|outage|flash-crowd|diurnal>  fleet elasticity [off]
          inject timed instance joins, planned drains, failures and
          whole-shard/whole-region outages, plus standby capacity and
          the reactive autoscaler. A PATH is parsed as a line-oriented
          schedule (`<secs> <kind> [id]`; kinds: join, drain, fail,
          shard-down, shard-up, region-down, region-up); anything else
          must name one of the presets, scaled to the run's horizon.
          Draining instances migrate residents away under the usual
          cost/benefit veto; failed instances strand whatever cannot
          escape. Off by default, and an empty schedule is
          byte-identical to a run without the flag.
  --csv     <PATH>                                  dump per-request CSV
  --trace-out <PATH>                                dump a request-lifecycle
          trace (admission decisions, phase transitions, demotions, the
          full migration decision tree at all three tiers, completions)
          to PATH, each event tagged with sim time and
          region/shard/instance ids.
  --trace-format <jsonl|chrome>                     trace encoding [jsonl]
          jsonl is one JSON object per line (grep/jq friendly); chrome
          is a single trace-event JSON array loadable in Perfetto or
          chrome://tracing.
  --series-out <PATH>                               sample per-shard and
          per-region gauges (queue depth, KV utilization, active
          requests by phase, admission headroom, predictor error, WAN
          backlog) into PATH — a .json path gets a JSON array, anything
          else columnar CSV. Needs --series-interval.
  --series-interval <SECS>                          gauge sampling period
          in sim seconds (positive). Needs --series-out.
  --alerts <PATH|paging|ticket>                     SLO burn-rate alerts [off]
          evaluate sliding-window error-budget burn rates per shard in
          sim-time and emit slo_alert_fired/resolved trace events plus a
          deterministic stderr summary. A PATH is parsed as a
          line-oriented rule file (`budget <frac>`, `min-samples <n>`,
          `rule <window_s> <burn_threshold>`; # comments); anything else
          must name a preset (paging: fast-burn page, ticket: slow-burn
          ticket), scaled to the run's horizon. Pure observation: the
          simulation's records and gauges are byte-identical with or
          without the flag.
  --profile                                         print a wall-clock
          hot-path profile of the event loop to stderr (per-event-type
          counts, timing quantiles, events/sec, ns per generated token,
          peak RSS and RSS bytes per arrival where /proc exists) plus
          exact work counters (member scans, monitor rows and member
          visits, predictor estimates, steady iterations replayed in
          closed form, members caught up, the event queue's peak
          population). Timings and RSS are
          host-dependent; no profile figure is part of any deterministic
          output.

All telemetry is off by default, and a run with it off is byte-identical
to one that never had the flags.

OPTIONS (sweep):
  --grid    <main|predictive|migration|ci|sharded|federated|chaos|stress|stress-smoke>
          preset(s) [ci]; a comma-separated list (e.g. ci,sharded,federated)
          runs the grids as one merged report — how the CI perf gate
          sweeps them. chaos crosses static vs predictive federation
          routing with the three fleet-elasticity presets (outage,
          flash-crowd, diurnal). stress is the 10M-request 64-shard
          capacity cell (minutes of wall clock — run deliberately);
          stress-smoke is the same topology at CI size.
  --threads <N>                                     worker pool width; 0 =
          available parallelism (capped at 8). Results are identical at
          any width.                                               [0]
  --count   <N>                                     override requests/cell
  --seed    <N>                                     override base seed
  --out     <DIR>                                   write sweep.json +
          sweep.csv into DIR (created if missing)
  --baseline <PATH>                                 compare against a
          committed sweep JSON; regressions beyond tolerance exit 1 with
          a per-cell diff table (the CI perf gate)
  --ttft-tol <REL>      p99-TTFT relative tolerance               [0.10]
  --ttft-abs-tol <SEC>  p99-TTFT absolute slack                   [0.5]
  --slo-tol <ABS>       SLO-violation-rate absolute tolerance     [0.02]
  --tput-tol <REL>      events/sec loss tolerance (gated only when the
          baseline commits a throughput figure)                   [0.20]
  --profile             profile each cell's event loop, print per-cell and
          aggregate events/sec (plus the summed exact work counters and
          ns per generated token) to stderr, and stamp the aggregate into
          the report's schema-4 throughput block (the only host-dependent
          field sweep.json can carry; cells stay byte-identical)
  --blame               attach a latency-anatomy blame profile to every
          cell: each cell runs traced, the trace is reconstructed into an
          exact additive decomposition of E2E latency (queue, service,
          offload, parked, migration tiers) and the aggregate lands in
          the report's schema-5 blame keys/columns. Deterministic; every
          other cell field is byte-identical with or without it.

OPTIONS (analyze):
  --trace  <PATH>       a JSONL request-lifecycle trace captured with
          `run --trace-out` (required). Each request's span timeline is
          reconstructed and its TTFT/E2E latency decomposed into an
          exact additive blame profile (segments sum to the measured
          latency by construction).
  --format <json|csv|waterfall>                     stdout rendering [json]
          json is the canonical machine-readable document (aggregate
          profile + per-request blame), csv is one row per request,
          waterfall is a human-readable top-K worst-request breakdown.
  --top    <N>          worst requests in the waterfall rendering     [5]
  --out    <DIR>        also write anatomy.json, anatomy.csv and
          waterfall.txt into DIR (created if missing)

OPTIONS (capacity):
  --dataset <alpaca|arena|math500|gpqa|lcb|mixed|reasoning-heavy>  [alpaca]
  --instances <N>                                   cluster size   [8]

Unknown flags, and unknown values for any option, exit with status 2.
";

/// A CLI failure: bad invocation (exit 2, prints usage) or a runtime
/// error after a valid invocation (exit 1).
enum CliError {
    Usage(String),
    Runtime(String),
}

// `?` on the parsing/validation helpers classifies as a usage error;
// runtime failures are wrapped explicitly.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

fn dataset(name: &str) -> Result<DatasetMix, String> {
    MixPreset::parse(name).map(MixPreset::mix)
}

fn policy(name: &str) -> Result<SchedPolicy, String> {
    PolicyKind::parse(name).map(PolicyKind::build)
}

fn predictor(name: &str) -> Result<Option<PredictorKind>, String> {
    match name {
        "none" => Ok(None),
        other => PredictorKind::parse(other).map(Some).map_err(|_| {
            format!("unknown predictor '{other}' (valid: none, oracle, ema, rank, quantile)")
        }),
    }
}

fn admission(name: &str) -> Result<AdmissionMode, String> {
    match name {
        "none" => Ok(AdmissionMode::Disabled),
        "predictive" => Ok(AdmissionMode::predictive()),
        other => Err(format!(
            "unknown admission mode '{other}' (valid: none, predictive)"
        )),
    }
}

/// A command's flags in USAGE order, each with its default: `None`
/// leaves the flag unset unless it is given. [`SWITCHES`] take no value.
type Flags = &'static [(&'static str, Option<&'static str>)];

const RUN_FLAGS: Flags = &[
    ("--dataset", Some("alpaca")),
    ("--policy", Some("pascal")),
    ("--predictor", Some("none")),
    ("--admission", Some("none")),
    ("--migration-benefit", None),
    ("--rate", Some("high")),
    ("--count", Some("1000")),
    ("--seed", Some("42")),
    ("--instances", Some("8")),
    ("--shards", Some("1")),
    ("--router", Some("rr")),
    ("--regions", Some("1")),
    ("--fed-router", Some("static")),
    ("--wan", Some("continental")),
    ("--fleet-events", None),
    ("--csv", None),
    ("--trace-out", None),
    ("--trace-format", Some("jsonl")),
    ("--series-out", None),
    ("--series-interval", None),
    ("--alerts", None),
    ("--profile", None),
];

const SWEEP_FLAGS: Flags = &[
    ("--grid", Some("ci")),
    ("--threads", Some("0")),
    ("--count", None),
    ("--seed", None),
    ("--out", None),
    ("--baseline", None),
    ("--ttft-tol", Some("0.10")),
    ("--ttft-abs-tol", Some("0.5")),
    ("--slo-tol", Some("0.02")),
    ("--tput-tol", Some("0.20")),
    ("--profile", None),
    ("--blame", None),
];

const ANALYZE_FLAGS: Flags = &[
    ("--trace", None),
    ("--format", Some("json")),
    ("--top", Some("5")),
    ("--out", None),
];

const CAPACITY_FLAGS: Flags = &[("--dataset", Some("alpaca")), ("--instances", Some("8"))];

/// The flags that take no value.
const SWITCHES: [&str; 2] = ["--profile", "--blame"];

/// One command's arguments, read against its flag table.
struct Args<'a> {
    flags: Flags,
    /// Each flag given, in order, with its value (empty for a switch).
    given: Vec<(&'static str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Reads `args`, refusing a flag outside `flags` or one without its
    /// value.
    fn read(flags: Flags, args: &'a [String]) -> Result<Self, String> {
        let mut given = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let &(flag, _) = flags
                .iter()
                .find(|(f, _)| f == arg)
                .ok_or_else(|| format!("unknown flag '{arg}'"))?;
            let value = if SWITCHES.contains(&flag) {
                ""
            } else {
                it.next().ok_or_else(|| format!("{flag} needs a value"))?
            };
            given.push((flag, value));
        }
        Ok(Args { flags, given })
    }

    /// The flag's value: the last one given, else its default.
    fn opt(&self, flag: &str) -> Option<&'a str> {
        let &(_, default) = self
            .flags
            .iter()
            .find(|(f, _)| *f == flag)
            .expect("a flag of this command's table");
        let given = self.given.iter().rev().find(|(f, _)| *f == flag);
        given.map(|&(_, value)| value).or(default)
    }

    /// The value of a flag with a default.
    fn get(&self, flag: &str) -> &'a str {
        self.opt(flag).expect("the flag has a default")
    }

    /// Whether a switch is given.
    fn on(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// The flag's value as a number, if it has a value.
    fn opt_num<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let parse = |v: &str| v.parse().map_err(|e| format!("{flag}: {e}"));
        self.opt(flag).map(parse).transpose()
    }

    /// The number a flag with a default holds.
    fn num<T: FromStr>(&self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.opt_num(flag)?.expect("the flag has a default"))
    }

    /// A count that must be positive.
    fn positive(&self, flag: &str) -> Result<usize, String> {
        match self.num(flag)? {
            0 => Err(format!("{flag} must be positive")),
            n => Ok(n),
        }
    }
}

fn resolve_rate(rate: &str, config: &SimConfig, mix: &DatasetMix) -> Result<f64, String> {
    // Symbolic levels go through `RateLevel::parse` so the error lists the
    // valid values; anything else must be a positive, finite numeric req/s.
    match RateLevel::parse(rate) {
        Ok(level) => Ok(level.rate_rps(config, mix)),
        Err(level_err) => match rate.parse::<f64>() {
            Ok(r) if r > 0.0 && r.is_finite() => Ok(r),
            Ok(_) => Err("--rate must be positive and finite".to_owned()),
            Err(_) => Err(format!("--rate must be a number, or {level_err}")),
        },
    }
}

/// A `--series-interval` in sim seconds: positive, and at least the 1 ns
/// sim time is kept in (a period that rounds to zero would never advance
/// the sampler).
fn series_interval(secs: f64) -> Result<SimDuration, String> {
    if !(secs.is_finite() && secs > 0.0) {
        return Err(format!(
            "--series-interval must be a positive number of sim seconds, got {secs}"
        ));
    }
    let period = SimDuration::from_secs_f64(secs);
    if period == SimDuration::ZERO {
        return Err(format!(
            "--series-interval must be at least 1 ns of sim time, got {secs}"
        ));
    }
    Ok(period)
}

/// A `--fleet-events` or `--alerts` value: a readable file is parsed by
/// `parse`; anything else must name a preset, which `preset` resolves.
fn file_or_preset<T>(
    flag: &str,
    src: &str,
    parse: fn(&str) -> Result<T, String>,
    preset: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, CliError> {
    if std::path::Path::new(src).is_file() {
        let text = std::fs::read_to_string(src)
            .map_err(|e| CliError::Runtime(format!("reading {src}: {e}")))?;
        parse(&text).map_err(|e| CliError::Usage(format!("{flag} {src}: {e}")))
    } else {
        preset(src)
            .map_err(|e| CliError::Usage(format!("{flag} '{src}': not a readable file, and {e}")))
    }
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let args = Args::read(RUN_FLAGS, args)?;
    // Every flag's own value is read before any rule between flags is
    // checked, so a bad value is the error reported.
    let mix = dataset(args.get("--dataset"))?;
    let policy = policy(args.get("--policy"))?;
    let mut config = SimConfig::evaluation_cluster(policy);
    config.predictor = predictor(args.get("--predictor"))?;
    config.admission = admission(args.get("--admission"))?;
    if let Some(ratio) = args.opt_num("--migration-benefit")? {
        config = config.with_predictive_migration(ratio);
    }
    let count: usize = args.num("--count")?;
    let seed: u64 = args.num("--seed")?;
    config.num_instances = args.positive("--instances")?;
    config.shards = args.positive("--shards")?;
    config.router = RouterPolicy::parse(args.get("--router"))?;
    config.regions = args.positive("--regions")?;
    config.fed_router = FederationPolicy::parse(args.get("--fed-router"))?;
    config.wan = WanLink::parse(args.get("--wan"))?;
    let trace_format = args.get("--trace-format");
    let trace_format = TraceFormat::parse(trace_format).ok_or_else(|| {
        let keys: Vec<&str> = TraceFormat::ALL.iter().map(|f| f.key()).collect();
        format!(
            "unknown trace format '{trace_format}' (valid: {})",
            keys.join(", ")
        )
    })?;
    let series_interval = args
        .opt_num("--series-interval")?
        .map(series_interval)
        .transpose()?;
    // Tracing follows --trace-out, sampling follows the
    // --series-out/--series-interval pair (each is useless alone, so a
    // lone half is a usage error rather than silently discarded work).
    match (args.opt("--series-out"), series_interval) {
        (Some(_), None) => {
            return Err(CliError::Usage(
                "--series-out needs --series-interval".to_owned(),
            ));
        }
        (None, Some(_)) => {
            return Err(CliError::Usage(
                "--series-interval needs --series-out".to_owned(),
            ));
        }
        _ => {}
    }
    config.telemetry = TelemetryConfig {
        trace: args.opt("--trace-out").is_some(),
        series_interval,
        profile: args.on("--profile"),
    };
    // The fleet-free deployment first: the rate and the fleet presets are
    // derived from its topology.
    config.validate()?;
    let rate = resolve_rate(args.get("--rate"), &config, &mix)?;

    // Fleet elasticity and SLO burn-rate alerting: a path is an explicit
    // event schedule or rule file, anything else must name a preset,
    // scaled to the run's horizon (and the fleet's to its topology).
    // Alerting is observation only — the run's deterministic outputs never
    // change — so it rides on whatever else the run does.
    let horizon_s = count as f64 / rate;
    if let Some(src) = args.opt("--fleet-events") {
        let (regions, shards, instances) = (config.regions, config.shards, config.num_instances);
        config.fleet = Some(file_or_preset(
            "--fleet-events",
            src,
            FleetSpec::parse,
            |name| FleetPreset::parse(name).map(|p| p.spec(horizon_s, regions, shards, instances)),
        )?);
    }
    if let Some(src) = args.opt("--alerts") {
        config.alerts = Some(file_or_preset(
            "--alerts",
            src,
            SloAlertSpec::parse,
            |name| SloAlertPreset::parse(name).map(|p| p.spec(horizon_s)),
        )?);
    }
    // Every id the fleet schedule names must exist, so a typo exits 2
    // here instead of panicking mid-simulation.
    config.validate()?;
    if let Some(spec) = config.fleet.as_ref().filter(|spec| !spec.is_empty()) {
        eprintln!(
            "fleet schedule: {} events, {} standby, autoscaler {}",
            spec.events.len(),
            spec.standby.len(),
            if spec.autoscale.is_some() {
                "on"
            } else {
                "off"
            }
        );
    }
    if let Some(spec) = &config.alerts {
        eprintln!(
            "slo alerting: {} rule(s), error budget {:.3}, min {} samples",
            spec.rules.len(),
            spec.budget,
            spec.min_samples
        );
    }

    // Predictions only steer PASCAL; under the baselines the predictor is
    // observational (calibration only) and the label stays the plain name.
    let policy_label = match (config.predictor, policy) {
        (Some(kind), SchedPolicy::Pascal(_)) => {
            format!("{}(Predictive-{kind})", policy.name())
        }
        _ => policy.name().to_owned(),
    };
    let topology = if config.regions > 1 {
        format!(
            " ({} regions x {} shards, {} federation over {} WAN, {} router)",
            config.regions,
            config.shards,
            args.get("--fed-router"),
            args.get("--wan"),
            args.get("--router"),
        )
    } else if config.shards > 1 {
        format!(
            " ({} shards, {} router)",
            config.shards,
            args.get("--router")
        )
    } else {
        String::new()
    };
    eprintln!(
        "simulating {count} {} requests at {rate:.2} req/s on {} instances{topology} \
         under {policy_label} …",
        args.get("--dataset"),
        config.num_instances,
    );
    let trace = TraceBuilder::new(mix)
        .arrivals(ArrivalProcess::poisson(rate))
        .count(count)
        .seed(seed)
        .regions(config.regions)
        .try_build()
        .map_err(|e| CliError::Usage(format!("--count {count}: {e}")))?;
    // Gauge rows stream to --series-out as they are sampled: a fine
    // interval over a long horizon would not fit in memory.
    let (out, series) = match args.opt("--series-out") {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?;
            let file: Box<dyn std::io::Write> = Box::new(std::io::BufWriter::new(file));
            let sink: SeriesSink = if path.ends_with(".json") {
                SeriesWriter::json(file)
            } else {
                SeriesWriter::csv(file)
            };
            let (out, sink) = run_simulation_with_series(&trace, &config, sink);
            (out, Some((path, sink)))
        }
        None => (run_simulation(&trace, &config), None),
    };

    let ttft = LatencySummary::from_values(
        out.records
            .iter()
            .filter_map(|r| r.ttft().map(|d| d.as_secs_f64())),
    );
    let qoe = QoeParams::paper_eval();
    let mut rows = vec![
        vec![
            "throughput".to_owned(),
            format!("{:.0} tokens/s", throughput_tokens_per_s(&out.records)),
        ],
        vec![
            "goodput".to_owned(),
            format!(
                "{:.2} req/s",
                goodput_requests_per_s(&out.records, &qoe, SLO_QOE_THRESHOLD)
            ),
        ],
        vec![
            "SLO violations".to_owned(),
            format!(
                "{:.2}%",
                100.0 * slo_violation_rate(&out.records, &qoe, SLO_QOE_THRESHOLD)
            ),
        ],
        vec![
            "migrations".to_owned(),
            out.migrations().count().to_string(),
        ],
        vec![
            "makespan".to_owned(),
            format!("{:.1}s", out.makespan.as_secs_f64()),
        ],
    ];
    if config.predictive_migration.is_some() {
        rows.push(vec![
            "migrations vetoed by cost".to_owned(),
            out.migration_outcomes.vetoed_by_cost.to_string(),
        ]);
    }
    if config.admission != AdmissionMode::Disabled {
        rows.push(vec![
            "admission rejections".to_owned(),
            format!(
                "{} ({:.2}%)",
                out.admission.rejected,
                100.0 * out.admission.rejection_rate()
            ),
        ]);
    }
    if config.shards > 1 {
        rows.push(vec![
            "cross-shard migrations".to_owned(),
            format!(
                "{} ({} considered, {} vetoed)",
                out.migration_outcomes.cross_shard_launched,
                out.migration_outcomes.cross_shard_considered,
                out.migration_outcomes.cross_shard_vetoed_by_cost
            ),
        ]);
    }
    if config.regions > 1 {
        rows.push(vec![
            "cross-region migrations".to_owned(),
            format!(
                "{} ({} considered, {} vetoed)",
                out.migration_outcomes.cross_region_launched,
                out.migration_outcomes.cross_region_considered,
                out.migration_outcomes.cross_region_vetoed_by_cost
            ),
        ]);
        rows.push(vec![
            "admission spills".to_owned(),
            out.admission.spilled.to_string(),
        ]);
    }
    if config.fleet.as_ref().is_some_and(|f| !f.is_empty()) {
        rows.push(vec![
            "fleet transitions".to_owned(),
            format!(
                "{} ({} joins, {} fails, {}/{} drains done)",
                out.fleet.transitions,
                out.fleet.joins,
                out.fleet.fails,
                out.fleet.drains_completed,
                out.fleet.drains_started
            ),
        ]);
        rows.push(vec![
            "requests stranded".to_owned(),
            out.fleet.stranded.to_string(),
        ]);
        rows.push(vec![
            "rebalance moves".to_owned(),
            out.fleet.rebalanced.to_string(),
        ]);
        if out.fleet.drains_completed > 0 {
            rows.push(vec![
                "mean drain completion".to_owned(),
                format!("{:.1}s", out.fleet.mean_drain_completion_s()),
            ]);
        }
        rows.push(vec![
            "autoscale actions".to_owned(),
            format!(
                "{} up / {} down",
                out.fleet.autoscale_up, out.fleet.autoscale_down
            ),
        ]);
    }
    if let Some(cal) = out.calibration() {
        rows.push(vec!["prediction calibration".to_owned(), cal.to_string()]);
    }
    if let Some(t) = ttft {
        rows.insert(
            0,
            vec![
                "TTFT mean/p50/p99/max".to_owned(),
                format!(
                    "{:.1} / {:.1} / {:.1} / {:.1} s",
                    t.mean, t.p50, t.p99, t.max
                ),
            ],
        );
    }
    println!("{}", render_table(&["metric", "value"], &rows));

    if config.shards > 1 {
        let shard_rows: Vec<Vec<String>> = out
            .shard_stats
            .iter()
            .map(|s| {
                vec![
                    s.shard.to_string(),
                    s.instances.to_string(),
                    s.routed_arrivals.to_string(),
                    s.completed.to_string(),
                    s.migrations.launched.to_string(),
                    s.migrations.cross_shard_launched.to_string(),
                    s.cross_shard_in.to_string(),
                    s.admission.rejected.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "shard",
                    "inst",
                    "routed",
                    "completed",
                    "migr",
                    "out",
                    "in",
                    "rejected",
                ],
                &shard_rows
            )
        );
    }

    if config.regions > 1 {
        let region_rows: Vec<Vec<String>> = out
            .region_stats
            .iter()
            .map(|r| {
                vec![
                    r.region.to_string(),
                    r.shards.to_string(),
                    r.instances.to_string(),
                    r.origin_arrivals.to_string(),
                    r.routed_arrivals.to_string(),
                    r.nonlocal_arrivals.to_string(),
                    format!("{}/{}", r.spill_in, r.spill_out),
                    format!("{}/{}", r.cross_region_in, r.cross_region_out),
                    r.completed.to_string(),
                    r.admission.rejected.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "region",
                    "shards",
                    "inst",
                    "origin",
                    "routed",
                    "nonlocal",
                    "spill i/o",
                    "wan i/o",
                    "completed",
                    "rejected",
                ],
                &region_rows
            )
        );
    }

    if let Some(path) = args.opt("--csv") {
        std::fs::write(path, records_csv(&out.records))
            .map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?;
        eprintln!("wrote per-request CSV to {path}");
    }

    // Telemetry artifacts. The buffers exist exactly when the matching
    // flag enabled the stream, so the expects document invariants.
    if let Some(path) = args.opt("--trace-out") {
        let telemetry = out.telemetry.as_ref().expect("tracing was enabled");
        let text = match trace_format {
            TraceFormat::Jsonl => events_to_jsonl(&telemetry.events),
            TraceFormat::Chrome => events_to_chrome(&telemetry.events),
        };
        std::fs::write(path, text)
            .map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?;
        eprintln!(
            "wrote {} trace events ({}) to {path}",
            telemetry.events.len(),
            trace_format.key()
        );
    }
    if let Some((path, sink)) = series {
        let rows = sink.rows();
        sink.finish()
            .map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?;
        eprintln!("wrote {rows} gauge samples to {path}");
    }
    if config.telemetry.profile {
        let profile = out
            .telemetry
            .as_ref()
            .and_then(|t| t.profile.as_ref())
            .expect("profiling was enabled");
        eprint!("{}", profile.render());
        if let Some(bytes) = peak_rss_bytes() {
            eprintln!(
                "  memory: peak RSS {:.1} MiB, {} bytes per arrival",
                bytes as f64 / f64::from(1 << 20),
                bytes / (trace.requests().len() as u64).max(1)
            );
        }
    }
    // Deterministic alert summary (sim-time quantities only, ordered by
    // (time, shard, rule)) — byte-identical across hosts and thread counts.
    if config.alerts.is_some() {
        if out.alerts.is_empty() {
            eprintln!("slo alerts: none fired");
        } else {
            eprintln!("slo alerts: {} fired", out.alerts.len());
            for a in &out.alerts {
                eprintln!(
                    "  t={:.3}s region {} shard {} rule {} burn {:.2}x budget",
                    a.at.as_secs_f64(),
                    a.region,
                    a.shard,
                    a.rule,
                    a.burn_milli as f64 / 1000.0
                );
            }
        }
    }
    Ok(())
}

/// A gate tolerance: a finite, non-negative number.
fn tolerance(args: &Args, flag: &str) -> Result<f64, String> {
    let v: f64 = args.num(flag)?;
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(format!("{flag} must be a non-negative number, got {v}"))
    }
}

/// Formats an optional seconds value for the sweep tables.
fn opt_secs(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_owned(), |v| format!("{v:.2}"))
}

/// The `sweep --profile` aggregate stderr line: the headline events/sec
/// figure and the summed deterministic work counts. Kept as a function so
/// a test can assert the line stays parseable.
fn aggregate_profile_line(t: &SweepThroughput, work: &WorkCounters) -> String {
    format!(
        "aggregate: {} events in {:.3}s single-cell wall = {:.0} events/sec; \
         work (exact): {}",
        t.events,
        t.wall_s,
        t.events_per_sec,
        work.render(Some(t.wall_s))
    )
}

fn cmd_sweep(args: &[String]) -> Result<(), CliError> {
    let args = Args::read(SWEEP_FLAGS, args)?;
    // `--grid a,b` merges several presets into one report (unique labels
    // enforced by the runner) — the CI gate sweeps `ci,sharded` this way.
    let grid_names = args.get("--grid");
    let names: Vec<&str> = grid_names
        .split(',')
        .filter(|name| !name.is_empty())
        .collect();
    if names.is_empty() {
        return Err(CliError::Usage(
            "--grid needs at least one preset".to_owned(),
        ));
    }
    let mut grids = names
        .into_iter()
        .map(SweepGrid::preset)
        .collect::<Result<Vec<SweepGrid>, String>>()?;
    let threads: usize = args.num("--threads")?;
    let count: Option<usize> = args.opt_num("--count")?;
    if let Some(count) = count {
        if count == 0 {
            return Err(CliError::Usage("--count must be positive".to_owned()));
        }
        // Sweep cells build their traces later, on worker threads.
        Trace::check_capacity(count).map_err(|e| format!("--count {count}: {e}"))?;
    }
    let seed: Option<u64> = args.opt_num("--seed")?;
    let tolerances = GateTolerances {
        ttft_p99_rel: tolerance(&args, "--ttft-tol")?,
        ttft_p99_abs_s: tolerance(&args, "--ttft-abs-tol")?,
        slo_rate_abs: tolerance(&args, "--slo-tol")?,
        throughput_rel: tolerance(&args, "--tput-tol")?,
    };
    // Merged reports need globally unique cell labels (the gate matches by
    // label) — catch collisions (e.g. `--grid ci,ci` or `--grid main,ci`,
    // whose cells overlap) as a usage error rather than a runner panic.
    {
        let mut labels: Vec<String> = grids
            .iter()
            .flat_map(SweepGrid::expand)
            .map(|spec| spec.label())
            .collect();
        labels.sort();
        if let Some(dup) = labels.windows(2).find(|w| w[0] == w[1]) {
            return Err(CliError::Usage(format!(
                "--grid '{}' produces the cell '{}' more than once — \
                 merged presets must have disjoint cells",
                grid_names, dup[0]
            )));
        }
    }
    for grid in &mut grids {
        if let Some(count) = count {
            grid.count = count;
        }
        if let Some(seed) = seed {
            grid.base_seed = seed;
        }
    }
    let runner = SweepRunner::new(threads)
        .with_profile(args.on("--profile"))
        .with_blame(args.on("--blame"));
    let cells: usize = grids.iter().map(|g| g.expand().len()).sum();
    eprintln!(
        "sweeping grid '{grid_names}': {cells} cells × {} requests on {} threads …",
        grids
            .iter()
            .map(|g| g.count.to_string())
            .collect::<Vec<_>>()
            .join("/"),
        runner.threads()
    );
    let started = std::time::Instant::now();
    let (report, profiles) = runner.run_grids_profiled(&grids);
    let elapsed = started.elapsed().as_secs_f64();
    eprintln!(
        "swept {cells} cells in {elapsed:.2}s ({} threads)",
        runner.threads()
    );
    if args.on("--profile") {
        // Per-cell engine speed, to stderr only; the aggregate also lands
        // in the report's schema-4 throughput block (the single
        // host-dependent field sweep.json can carry — every cell stays
        // byte-identical with or without --profile).
        eprintln!("per-cell hot-path profile (wall-clock, host-dependent):");
        for (cell, profile) in report.cells.iter().zip(&profiles) {
            if let Some(p) = profile {
                eprintln!(
                    "  {:<44} {:>9} events  {:>12.0} events/sec",
                    cell.label(),
                    p.events,
                    p.events_per_sec
                );
            }
        }
        if let Some(t) = &report.throughput {
            let mut work = WorkCounters::default();
            for p in profiles.iter().flatten() {
                work.absorb(&p.work);
            }
            eprintln!("{}", aggregate_profile_line(t, &work));
        }
    }

    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|cell| {
            let m = &cell.metrics;
            vec![
                cell.label(),
                cell.policy_label.clone(),
                format!("{:.2}", cell.rate_rps),
                opt_secs(m.ttft_p50_s),
                opt_secs(m.ttft_p99_s),
                format!("{:.2}%", 100.0 * m.slo_violation_rate),
                m.migrations_launched.to_string(),
                m.migrations_vetoed.to_string(),
                m.migrations_cross_shard.to_string(),
                m.admission_rejected.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "cell", "policy", "req/s", "p50 TTFT", "p99 TTFT", "SLO viol", "migr", "vetoed",
                "cross", "rejected",
            ],
            &rows
        )
    );

    if let Some(dir) = args.opt("--out") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Runtime(format!("creating {}: {e}", dir.display())))?;
        for (name, contents) in [
            ("sweep.json", report.to_json()),
            ("sweep.csv", report.to_csv()),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, contents)
                .map_err(|e| CliError::Runtime(format!("writing {}: {e}", path.display())))?;
            eprintln!("wrote {}", path.display());
        }
    }

    if let Some(path) = args.opt("--baseline") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Runtime(format!("reading baseline {path}: {e}")))?;
        let baseline = SweepReport::from_json(&text)
            .map_err(|e| CliError::Runtime(format!("parsing baseline {path}: {e}")))?;
        let gate = compare(&baseline, &report, &tolerances);
        let fmt = |x: Option<f64>| x.map_or_else(|| "-".to_owned(), |v| format!("{v:.4}"));
        let diff_rows: Vec<Vec<String>> = gate
            .findings
            .iter()
            .map(|f| {
                vec![
                    f.label.clone(),
                    f.metric.to_owned(),
                    fmt(f.baseline),
                    fmt(f.current),
                    format!("{:.4}", f.allowed),
                    if f.regression { "REGRESSED" } else { "ok" }.to_owned(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["cell", "metric", "baseline", "current", "allowed", "verdict"],
                &diff_rows
            )
        );
        for issue in &gate.structural {
            eprintln!("structural: {issue}");
        }
        if gate.passed() {
            println!("perf gate PASSED against {path}");
        } else {
            let regressions = gate.regressions().count();
            return Err(CliError::Runtime(format!(
                "perf gate FAILED against {path}: {regressions} metric regression(s), \
                 {} structural issue(s)",
                gate.structural.len()
            )));
        }
    }
    Ok(())
}

const ANALYZE_FORMATS: [&str; 3] = ["json", "csv", "waterfall"];

fn cmd_analyze(args: &[String]) -> Result<(), CliError> {
    let args = Args::read(ANALYZE_FLAGS, args)?;
    let format = args.get("--format");
    if !ANALYZE_FORMATS.contains(&format) {
        return Err(CliError::Usage(format!(
            "unknown analyze format '{format}' (valid: {})",
            ANALYZE_FORMATS.join(", ")
        )));
    }
    let top: usize = args.num("--top")?;
    let path = args
        .opt("--trace")
        .ok_or_else(|| CliError::Usage("analyze needs --trace <jsonl>".to_owned()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("reading {path}: {e}")))?;
    // A malformed trace is a bad input file, not a bad invocation: exit 1.
    let events =
        parse_trace_jsonl(&text).map_err(|e| CliError::Runtime(format!("parsing {path}: {e}")))?;
    let report = reconstruct(&events);
    eprintln!(
        "reconstructed {} events from {path}: {} requests ({} rejected, {} unterminated)",
        events.len(),
        report.requests.len(),
        report.rejected,
        report.unterminated
    );
    match format {
        "json" => print!("{}", anatomy_to_json(&report)),
        "csv" => print!("{}", anatomy_to_csv(&report)),
        "waterfall" => print!("{}", anatomy_waterfall(&report, top)),
        other => unreachable!("format '{other}' was checked on reading the flags"),
    }
    if let Some(dir) = args.opt("--out") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Runtime(format!("creating {}: {e}", dir.display())))?;
        for (name, contents) in [
            ("anatomy.json", anatomy_to_json(&report)),
            ("anatomy.csv", anatomy_to_csv(&report)),
            ("waterfall.txt", anatomy_waterfall(&report, top)),
        ] {
            let file = dir.join(name);
            std::fs::write(&file, contents)
                .map_err(|e| CliError::Runtime(format!("writing {}: {e}", file.display())))?;
            eprintln!("wrote {}", file.display());
        }
    }
    Ok(())
}

fn cmd_capacity(args: &[String]) -> Result<(), CliError> {
    let args = Args::read(CAPACITY_FLAGS, args)?;
    let name = args.get("--dataset");
    let mix = dataset(name)?;
    let mut config = SimConfig::evaluation_cluster(SchedPolicy::Fcfs);
    config.num_instances = args.positive("--instances")?;
    config.validate()?;
    let capacity = estimate_capacity_rps(&config, &mix);
    println!(
        "estimated capacity for '{name}' on {} instances: {capacity:.2} req/s",
        config.num_instances
    );
    for level in RateLevel::ALL {
        println!(
            "  {level:<7} ({:>3.0}%): {:.2} req/s",
            level.utilization() * 100.0,
            level.rate_rps(&config, &mix)
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("capacity") => cmd_capacity(&args[1..]),
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!("unknown command '{other}'"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // Bad invocations (unknown flags/values) exit with the
        // conventional status 2 and reprint the usage.
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        // Runtime failures after a valid invocation exit 1, no usage spam.
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `args` against `flags`; the argument vector lives for the test.
    fn read(flags: Flags, args: &[&str]) -> Result<Args<'static>, String> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        Args::read(flags, args.leak())
    }

    #[test]
    fn parses_full_flag_set() {
        let args = read(
            RUN_FLAGS,
            &[
                "--dataset",
                "arena",
                "--policy",
                "rr",
                "--rate",
                "12.5",
                "--count",
                "50",
                "--seed",
                "7",
                "--instances",
                "4",
                "--csv",
                "/tmp/x.csv",
            ],
        )
        .expect("valid flags");
        assert_eq!(args.get("--dataset"), "arena");
        assert_eq!(args.get("--policy"), "rr");
        assert_eq!(args.num::<usize>("--count"), Ok(50));
        assert_eq!(args.positive("--instances"), Ok(4));
        assert_eq!(args.opt("--csv"), Some("/tmp/x.csv"));
        // The last of a repeated flag wins; unset flags read their default.
        let args = read(RUN_FLAGS, &["--seed", "1", "--seed", "9"]).expect("valid");
        assert_eq!(args.num::<u64>("--seed"), Ok(9));
        assert_eq!(args.get("--rate"), "high");
        assert_eq!(args.opt("--csv"), None);
    }

    #[test]
    fn rejects_unknown_flags_and_datasets() {
        let err = read(RUN_FLAGS, &["--bogus", "1"]).err();
        assert_eq!(err.as_deref(), Some("unknown flag '--bogus'"));
        let err = read(RUN_FLAGS, &["--dataset"]).err();
        assert_eq!(err.as_deref(), Some("--dataset needs a value"));
        // `capacity` reads only its own two flags.
        assert!(read(CAPACITY_FLAGS, &["--policy", "fcfs"]).is_err());
        assert!(dataset("nope").is_err());
        assert!(policy("nope").is_err());
    }

    #[test]
    fn resolves_symbolic_and_numeric_rates() {
        let mix = dataset("alpaca").expect("dataset");
        let config = SimConfig::evaluation_cluster(SchedPolicy::Fcfs);
        let high = resolve_rate("high", &config, &mix).expect("rate");
        let num = resolve_rate("3.5", &config, &mix).expect("rate");
        assert!(high > 0.0);
        assert!((num - 3.5).abs() < 1e-12);
        assert!(resolve_rate("-2", &config, &mix).is_err());
        let err = resolve_rate("fast", &config, &mix).expect_err("unknown rate");
        assert!(
            err.contains("valid: low, medium, high"),
            "rate error must list the valid levels, got: {err}"
        );
    }

    #[test]
    fn shard_flags_parse_and_validate() {
        let args = read(RUN_FLAGS, &["--shards", "4", "--router", "least"]).expect("valid");
        assert_eq!(args.positive("--shards"), Ok(4));
        assert_eq!(args.get("--router"), "least");
        // Usage errors: zero shards, non-numeric shards.
        for bad in ["0", "many"] {
            let args = read(RUN_FLAGS, &["--shards", bad]).expect("reads");
            assert!(args.positive("--shards").is_err(), "{bad}");
        }
        // Unknown routers are rejected with the valid values listed.
        let err = RouterPolicy::parse("hash").expect_err("unknown router");
        assert!(err.contains("valid: rr, least, predictive"), "got: {err}");
        for key in ["rr", "least", "predictive"] {
            assert!(RouterPolicy::parse(key).is_ok(), "{key}");
        }
    }

    #[test]
    fn predictor_flag_resolves() {
        assert_eq!(predictor("none"), Ok(None));
        assert_eq!(predictor("oracle"), Ok(Some(PredictorKind::Oracle)));
        assert_eq!(predictor("ema"), Ok(Some(PredictorKind::ProfileEma)));
        assert_eq!(predictor("rank"), Ok(Some(PredictorKind::PairwiseRank)));
        assert_eq!(predictor("quantile"), Ok(Some(PredictorKind::Quantile)));
        let err = predictor("psychic").expect_err("unknown predictor");
        assert!(
            err.contains("valid: none, oracle, ema, rank, quantile"),
            "error must list the valid values, got: {err}"
        );
        let args = read(RUN_FLAGS, &["--predictor", "oracle"]).expect("valid");
        assert_eq!(args.get("--predictor"), "oracle");
    }

    #[test]
    fn usage_lists_predictor_and_admission_values() {
        for needle in ["none|oracle|ema|rank|quantile", "none|predictive", "[none]"] {
            assert!(USAGE.contains(needle), "usage missing {needle}");
        }
    }

    #[test]
    fn federation_flags_parse_and_validate() {
        let args = read(
            RUN_FLAGS,
            &[
                "--regions",
                "2",
                "--fed-router",
                "nearest",
                "--wan",
                "metro",
            ],
        )
        .expect("valid");
        assert_eq!(args.positive("--regions"), Ok(2));
        assert_eq!(args.get("--fed-router"), "nearest");
        assert_eq!(args.get("--wan"), "metro");
        // Usage errors: zero or non-numeric regions.
        for bad in ["0", "everywhere"] {
            let args = read(RUN_FLAGS, &["--regions", bad]).expect("reads");
            assert!(args.positive("--regions").is_err(), "{bad}");
        }
        // Unknown federation routers / WAN classes list the valid values.
        let err = FederationPolicy::parse("anycast").expect_err("unknown router");
        assert!(err.contains("valid: static, nearest, predictive"), "{err}");
        let err = WanLink::parse("dialup").expect_err("unknown wan");
        assert!(
            err.contains("valid: metro, regional, continental, transoceanic"),
            "{err}"
        );
        for key in ["static", "nearest", "predictive"] {
            assert!(FederationPolicy::parse(key).is_ok(), "{key}");
        }
        for key in ["metro", "regional", "continental", "transoceanic"] {
            assert!(WanLink::parse(key).is_ok(), "{key}");
        }
    }

    #[test]
    fn fleet_events_flag_parses_and_usage_lists_it() {
        let args = read(RUN_FLAGS, &["--fleet-events", "outage"]).expect("valid");
        assert_eq!(args.opt("--fleet-events"), Some("outage"));
        let args = read(RUN_FLAGS, &[]).expect("empty");
        assert_eq!(args.opt("--fleet-events"), None);
        // Non-file values must resolve as presets with the list in the error.
        let err = FleetPreset::parse("meteor").expect_err("unknown preset");
        assert!(err.contains("valid: outage, flash-crowd, diurnal"), "{err}");
        for needle in ["--fleet-events", "PATH|outage|flash-crowd|diurnal", "chaos"] {
            assert!(USAGE.contains(needle), "usage missing {needle}");
        }
    }

    #[test]
    fn admission_flag_resolves() {
        assert_eq!(admission("none"), Ok(AdmissionMode::Disabled));
        assert_eq!(admission("predictive"), Ok(AdmissionMode::predictive()));
        let err = admission("strict").expect_err("unknown mode");
        assert!(err.contains("valid: none, predictive"), "got: {err}");
        let args = read(RUN_FLAGS, &["--admission", "predictive"]).expect("valid");
        assert_eq!(args.get("--admission"), "predictive");
    }

    #[test]
    fn migration_benefit_flag_parses_and_validates() {
        let ratio = |value| {
            let args = read(RUN_FLAGS, &["--migration-benefit", value]).expect("reads");
            args.opt_num::<f64>("--migration-benefit")
        };
        assert_eq!(ratio("2.5"), Ok(Some(2.5)));
        assert!(ratio("many").is_err());
        // A ratio that parses is judged with the deployment.
        for bad in ["-1", "inf"] {
            let bad = ratio(bad).expect("parses").expect("given");
            let config = SimConfig::evaluation_cluster(policy("pascal").expect("policy"))
                .with_predictor(PredictorKind::Oracle)
                .with_predictive_migration(bad);
            assert!(config.validate().is_err(), "{bad}");
        }
    }

    #[test]
    fn sweep_opts_parse_and_validate() {
        let args = read(
            SWEEP_FLAGS,
            &[
                "--grid",
                "main",
                "--threads",
                "4",
                "--count",
                "200",
                "--seed",
                "9",
                "--out",
                "/tmp/sweep-out",
                "--baseline",
                "BENCH_BASELINE.json",
                "--ttft-tol",
                "0.2",
                "--slo-tol",
                "0.05",
            ],
        )
        .expect("valid flags");
        assert_eq!(args.get("--grid"), "main");
        assert_eq!(args.num::<usize>("--threads"), Ok(4));
        assert_eq!(args.opt_num::<usize>("--count"), Ok(Some(200)));
        assert_eq!(args.opt_num::<u64>("--seed"), Ok(Some(9)));
        assert_eq!(args.opt("--out"), Some("/tmp/sweep-out"));
        assert_eq!(args.opt("--baseline"), Some("BENCH_BASELINE.json"));
        assert_eq!(tolerance(&args, "--ttft-tol"), Ok(0.2));
        assert_eq!(tolerance(&args, "--slo-tol"), Ok(0.05));

        for (flag, bad) in [("--ttft-tol", "-1"), ("--ttft-abs-tol", "inf")] {
            let args = read(SWEEP_FLAGS, &[flag, bad]).expect("reads");
            assert!(tolerance(&args, flag).is_err(), "{flag} {bad}");
        }
        assert!(read(SWEEP_FLAGS, &["--bogus", "1"]).is_err());
    }

    #[test]
    fn sweep_defaults_match_gate_defaults() {
        let args = read(SWEEP_FLAGS, &[]).expect("empty is valid");
        let tol = GateTolerances::default();
        assert_eq!(args.get("--grid"), "ci");
        assert_eq!(args.num::<usize>("--threads"), Ok(0));
        for (flag, default) in [
            ("--ttft-tol", tol.ttft_p99_rel),
            ("--ttft-abs-tol", tol.ttft_p99_abs_s),
            ("--slo-tol", tol.slo_rate_abs),
            ("--tput-tol", tol.throughput_rel),
        ] {
            assert_eq!(tolerance(&args, flag), Ok(default), "{flag}");
        }
    }

    #[test]
    fn usage_lists_sweep_grid_presets() {
        for needle in [
            "main|predictive|migration|ci|sharded|federated",
            "--baseline",
            "--threads",
            "--shards",
            "--regions",
            "rr|least|predictive",
            "static|nearest|predictive",
            "metro|regional|continental|transoceanic",
        ] {
            assert!(USAGE.contains(needle), "usage missing {needle}");
        }
    }

    #[test]
    fn telemetry_flags_parse_and_validate() {
        let args = read(
            RUN_FLAGS,
            &[
                "--trace-out",
                "/tmp/t.jsonl",
                "--trace-format",
                "chrome",
                "--series-out",
                "/tmp/s.csv",
                "--series-interval",
                "2.5",
                "--profile",
            ],
        )
        .expect("valid");
        assert_eq!(args.opt("--trace-out"), Some("/tmp/t.jsonl"));
        assert_eq!(
            TraceFormat::parse(args.get("--trace-format")),
            Some(TraceFormat::Chrome)
        );
        assert_eq!(args.opt("--series-out"), Some("/tmp/s.csv"));
        assert_eq!(args.opt_num::<f64>("--series-interval"), Ok(Some(2.5)));
        assert!(args.on("--profile"));

        // Bad intervals are usage errors whatever flavor of bad they are.
        let args = read(RUN_FLAGS, &["--series-interval", "soon"]).expect("reads");
        assert!(args.opt_num::<f64>("--series-interval").is_err());
        for bad in [0.0, -1.0, f64::INFINITY, f64::NAN, 1e-10] {
            assert!(
                series_interval(bad).is_err(),
                "interval {bad} must be rejected"
            );
        }
        assert_eq!(series_interval(2.5), Ok(SimDuration::from_millis(2500)));

        // Everything defaults to off.
        let args = read(RUN_FLAGS, &[]).expect("empty is valid");
        assert_eq!(args.opt("--trace-out"), None);
        assert_eq!(args.get("--trace-format"), TraceFormat::Jsonl.key());
        assert_eq!(args.opt("--series-out"), None);
        assert_eq!(args.opt("--series-interval"), None);
        assert!(!args.on("--profile"));
    }

    #[test]
    fn sweep_profile_flag_parses() {
        let args = read(SWEEP_FLAGS, &["--profile"]).expect("valid");
        assert!(args.on("--profile"));
        assert!(!read(SWEEP_FLAGS, &[])
            .expect("empty is valid")
            .on("--profile"));
        // A switch takes no value: what follows it is the next flag.
        let err = read(SWEEP_FLAGS, &["--profile", "yes"]).err();
        assert_eq!(err.as_deref(), Some("unknown flag 'yes'"));
    }

    #[test]
    fn usage_lists_telemetry_flags() {
        for needle in [
            "--trace-out",
            "jsonl|chrome",
            "--series-out",
            "--series-interval",
            "--profile",
        ] {
            assert!(USAGE.contains(needle), "usage missing {needle}");
        }
    }

    #[test]
    fn analyze_opts_parse_and_validate() {
        let args = read(
            ANALYZE_FLAGS,
            &[
                "--trace",
                "/tmp/t.jsonl",
                "--format",
                "waterfall",
                "--top",
                "3",
                "--out",
                "/tmp/anatomy",
            ],
        )
        .expect("valid");
        assert_eq!(args.opt("--trace"), Some("/tmp/t.jsonl"));
        assert_eq!(args.get("--format"), "waterfall");
        assert_eq!(args.num::<usize>("--top"), Ok(3));
        assert_eq!(args.opt("--out"), Some("/tmp/anatomy"));
        // Defaults: machine-readable JSON, top-5 waterfall, no files.
        let args = read(ANALYZE_FLAGS, &[]).expect("empty parses");
        assert_eq!(args.get("--format"), "json");
        assert_eq!(args.num::<usize>("--top"), Ok(5));
        assert_eq!(args.opt("--trace"), None);
        // Bad counts and unknown flags are usage errors.
        let args = read(ANALYZE_FLAGS, &["--top", "many"]).expect("reads");
        assert!(args.num::<usize>("--top").is_err());
        assert!(read(ANALYZE_FLAGS, &["--bogus", "1"]).is_err());
    }

    #[test]
    fn alerts_flag_parses_and_usage_lists_it() {
        let args = read(RUN_FLAGS, &["--alerts", "paging"]).expect("valid");
        assert_eq!(args.opt("--alerts"), Some("paging"));
        assert_eq!(read(RUN_FLAGS, &[]).expect("empty").opt("--alerts"), None);
        // Non-file values must resolve as presets with the list in the
        // error (the same file-else-preset contract as --fleet-events).
        let err = SloAlertPreset::parse("smoke-signal").expect_err("unknown preset");
        assert!(err.contains("valid: paging, ticket"), "{err}");
        for needle in ["--alerts", "PATH|paging|ticket", "analyze", "--blame"] {
            assert!(USAGE.contains(needle), "usage missing {needle}");
        }
    }

    #[test]
    fn sweep_blame_flag_parses() {
        assert!(read(SWEEP_FLAGS, &["--blame"])
            .expect("valid")
            .on("--blame"));
        assert!(!read(SWEEP_FLAGS, &[])
            .expect("empty is valid")
            .on("--blame"));
    }

    /// USAGE's `OPTIONS (command)` section: each flag with the text of
    /// its entry (the flag's line and the indented lines under it).
    fn usage_entries(command: &str) -> Vec<(&'static str, String)> {
        let header = format!("OPTIONS ({command}):\n");
        let start = USAGE.find(&header).expect("a section per command") + header.len();
        let section = USAGE[start..].split("\n\n").next().expect("section");
        let mut entries: Vec<(&'static str, String)> = Vec::new();
        for line in section.lines() {
            match line.strip_prefix("  --") {
                Some(rest) => {
                    let flag = &line[2..4 + rest.find(' ').unwrap_or(rest.len())];
                    entries.push((flag, format!("{line}\n")));
                }
                None => entries.last_mut().expect("an entry").1 += line,
            }
        }
        entries
    }

    #[test]
    fn usage_matches_the_flag_tables() {
        let keys = |keys: &[&str]| keys.join("|");
        // Each enumerated flag's `<a|b|…>` list: the keys its value parses
        // as (`none` disables the predictor and admission control; a PATH
        // or a numeric rate are read before the keys are tried).
        let enumerated = [
            ("--dataset", keys(&MixPreset::ALL.map(MixPreset::key))),
            ("--policy", keys(&PolicyKind::ALL.map(PolicyKind::key))),
            (
                "--predictor",
                format!("none|{}", keys(&PredictorKind::ALL.map(PredictorKind::key))),
            ),
            ("--admission", "none|predictive".to_owned()),
            (
                "--rate",
                format!("{}|REQ_PER_S", keys(&RateLevel::ALL.map(RateLevel::key))),
            ),
            ("--router", keys(&RouterPolicy::ALL.map(RouterPolicy::key))),
            (
                "--fed-router",
                keys(&FederationPolicy::ALL.map(FederationPolicy::key)),
            ),
            ("--wan", keys(&WanLink::ALL.map(WanLink::key))),
            (
                "--fleet-events",
                format!("PATH|{}", keys(&FleetPreset::ALL.map(FleetPreset::key))),
            ),
            (
                "--trace-format",
                keys(&TraceFormat::ALL.map(TraceFormat::key)),
            ),
            (
                "--alerts",
                format!(
                    "PATH|{}",
                    keys(&SloAlertPreset::ALL.map(SloAlertPreset::key))
                ),
            ),
            ("--grid", keys(&SweepGrid::PRESET_NAMES)),
            ("--format", keys(&ANALYZE_FORMATS)),
        ];
        for (command, flags) in [
            ("run", RUN_FLAGS),
            ("sweep", SWEEP_FLAGS),
            ("analyze", ANALYZE_FLAGS),
            ("capacity", CAPACITY_FLAGS),
        ] {
            let entries = usage_entries(command);
            let listed: Vec<&str> = entries.iter().map(|(flag, _)| *flag).collect();
            let table: Vec<&str> = flags.iter().map(|(flag, _)| *flag).collect();
            assert_eq!(listed, table, "OPTIONS ({command}) against its table");
            for ((flag, default), (_, entry)) in flags.iter().zip(&entries) {
                // The `[default]`, outside `code` spans; an unset flag may
                // show `[off]`.
                let plain: String = entry.split('`').step_by(2).collect();
                let shown: Vec<&str> = plain
                    .split('[')
                    .skip(1)
                    .filter_map(|s| Some(s.split_once(']')?.0))
                    .collect();
                match default {
                    Some(default) => assert_eq!(shown, [*default], "{command} {flag}"),
                    None => assert!(shown.is_empty() || shown == ["off"], "{command} {flag}"),
                }
                let line = entry.lines().next().expect("the flag's line");
                let value = line
                    .split_once('<')
                    .and_then(|(_, rest)| Some(rest.split_once('>')?.0));
                assert_eq!(value.is_none(), SWITCHES.contains(flag), "{command} {flag}");
                let values = enumerated.iter().find(|(f, _)| f == flag);
                match (value, values) {
                    (Some(value), Some((_, values))) => {
                        assert_eq!(value, values, "{command} {flag}");
                    }
                    (value, None) => {
                        assert!(!value.is_some_and(|v| v.contains('|')), "{command} {flag}");
                    }
                    (None, Some(_)) => panic!("{command} {flag} lists no values"),
                }
            }
        }
    }

    #[test]
    fn sweep_aggregate_profile_line_parses() {
        let t = SweepThroughput {
            events: 123_456,
            wall_s: 1.5,
            events_per_sec: 82_304.0,
        };
        let work = WorkCounters {
            tokens: 3_000,
            sched_member_scans: 11,
            monitor_rows: 12,
            monitor_member_visits: 13,
            predictor_estimates: 14,
            steady_iterations: 15,
            members_caught_up: 16,
            full_path_iterations: 17,
            full_path_causes: [17, 0, 0, 0, 0, 0, 0, 0, 0],
            runs_kept: 18,
            edges_kept: 19,
            joins: 20,
            prefill_pauses: 21,
            partial_runs: 22,
            planned_launches: 23,
            planner_member_visits: 24,
            planner_fallbacks: 25,
            peak_pending_events: 26,
        };
        let line = aggregate_profile_line(&t, &work);
        // Every figure must survive a whitespace-and-label round trip —
        // the CI perf job greps this line out of stderr.
        let nums: Vec<f64> = line
            .split(|c: char| !(c.is_ascii_digit() || c == '.'))
            .filter(|s| !s.is_empty() && *s != ".")
            .map(|s| s.parse().expect("numeric"))
            .collect();
        assert_eq!(
            nums,
            vec![
                123_456.0, 1.5, 82_304.0, 3_000.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0,
                19.0, 20.0, 21.0, 22.0, 23.0, 24.0, 25.0, 26.0, 500_000.0
            ],
            "line: {line}"
        );
    }

    #[test]
    fn all_policies_resolve() {
        for name in [
            "fcfs",
            "rr",
            "pascal",
            "pascal-nomigration",
            "pascal-nonadaptive",
        ] {
            assert!(policy(name).is_ok(), "{name}");
        }
    }
}
