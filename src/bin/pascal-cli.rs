//! `pascal-cli` — run serving simulations from the command line.
//!
//! ```text
//! pascal-cli run  --dataset arena --policy pascal --rate high --count 1000
//! pascal-cli run  --dataset alpaca --policy fcfs --rate 12.5 --csv out.csv
//! pascal-cli sweep --grid ci --threads 4 --out sweep-out
//! pascal-cli sweep --grid ci --baseline BENCH_BASELINE.json
//! pascal-cli capacity --dataset mixed
//! ```

use std::process::ExitCode;

use pascal::core::report::{records_csv, render_table};
use pascal::core::sweep::gate::{compare, GateTolerances};
use pascal::core::sweep::SweepThroughput;
use pascal::core::{
    anatomy_to_csv, anatomy_to_json, anatomy_waterfall, check_deployment_capacity,
    estimate_capacity_rps, events_to_chrome, events_to_jsonl, parse_trace_jsonl, run_simulation,
    series_to_csv, series_to_json, AdmissionMode, FleetPreset, FleetSpec, RateLevel, SimConfig,
    SweepGrid, SweepReport, SweepRunner, TelemetryConfig, TraceFormat,
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
          transfer-times (needs --predictor).
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

Unknown values for any option exit with status 2.
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

/// Parsed `run` options.
#[derive(Debug)]
struct RunOpts {
    dataset: String,
    policy: String,
    predictor: String,
    admission: String,
    migration_benefit: Option<f64>,
    rate: String,
    count: usize,
    seed: u64,
    instances: usize,
    shards: usize,
    router: String,
    regions: usize,
    fed_router: String,
    wan: String,
    fleet_events: Option<String>,
    alerts: Option<String>,
    csv: Option<String>,
    trace_out: Option<String>,
    trace_format: TraceFormat,
    series_out: Option<String>,
    series_interval: Option<f64>,
    profile: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            dataset: "alpaca".to_owned(),
            policy: "pascal".to_owned(),
            predictor: "none".to_owned(),
            admission: "none".to_owned(),
            migration_benefit: None,
            rate: "high".to_owned(),
            count: 1000,
            seed: 42,
            instances: 8,
            shards: 1,
            router: "rr".to_owned(),
            regions: 1,
            fed_router: "static".to_owned(),
            wan: "continental".to_owned(),
            fleet_events: None,
            alerts: None,
            csv: None,
            trace_out: None,
            trace_format: TraceFormat::Jsonl,
            series_out: None,
            series_interval: None,
            profile: false,
        }
    }
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

fn parse_opts(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--dataset" => opts.dataset = value()?,
            "--policy" => opts.policy = value()?,
            "--predictor" => opts.predictor = value()?,
            "--admission" => opts.admission = value()?,
            "--migration-benefit" => {
                let ratio: f64 = value()?
                    .parse()
                    .map_err(|e| format!("--migration-benefit: {e}"))?;
                if !(ratio.is_finite() && ratio >= 0.0) {
                    return Err(format!(
                        "--migration-benefit must be a non-negative number, got {ratio}"
                    ));
                }
                opts.migration_benefit = Some(ratio);
            }
            "--rate" => opts.rate = value()?,
            "--count" => {
                opts.count = value()?.parse().map_err(|e| format!("--count: {e}"))?;
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--instances" => {
                let instances: usize = value()?.parse().map_err(|e| format!("--instances: {e}"))?;
                if instances == 0 {
                    return Err("--instances must be positive".to_owned());
                }
                // Instance ids are 32-bit: a larger fleet would give two
                // instances the same id.
                if u32::try_from(instances).is_err() {
                    return Err(format!(
                        "--instances {instances}: at most {} instances (ids are 32-bit)",
                        u32::MAX
                    ));
                }
                opts.instances = instances;
            }
            "--shards" => {
                let shards: usize = value()?.parse().map_err(|e| format!("--shards: {e}"))?;
                if shards == 0 {
                    return Err("--shards must be positive".to_owned());
                }
                opts.shards = shards;
            }
            "--router" => opts.router = value()?,
            "--regions" => {
                let regions: usize = value()?.parse().map_err(|e| format!("--regions: {e}"))?;
                if regions == 0 {
                    return Err("--regions must be positive".to_owned());
                }
                opts.regions = regions;
            }
            "--fed-router" => opts.fed_router = value()?,
            "--wan" => opts.wan = value()?,
            "--fleet-events" => opts.fleet_events = Some(value()?),
            "--alerts" => opts.alerts = Some(value()?),
            "--csv" => opts.csv = Some(value()?),
            "--trace-out" => opts.trace_out = Some(value()?),
            "--trace-format" => {
                let raw = value()?;
                opts.trace_format = TraceFormat::parse(&raw).ok_or_else(|| {
                    let keys: Vec<&str> = TraceFormat::ALL.iter().map(|f| f.key()).collect();
                    format!("unknown trace format '{raw}' (valid: {})", keys.join(", "))
                })?;
            }
            "--series-out" => opts.series_out = Some(value()?),
            "--series-interval" => {
                let secs: f64 = value()?
                    .parse()
                    .map_err(|e| format!("--series-interval: {e}"))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(format!(
                        "--series-interval must be a positive number of sim seconds, got {secs}"
                    ));
                }
                // Sim time is kept in whole nanoseconds; a period that
                // rounds to zero would never advance the sampler.
                if SimDuration::from_secs_f64(secs) == SimDuration::ZERO {
                    return Err(format!(
                        "--series-interval must be at least 1 ns of sim time, got {secs}"
                    ));
                }
                opts.series_interval = Some(secs);
            }
            "--profile" => opts.profile = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
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

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let opts = parse_opts(args)?;
    let mix = dataset(&opts.dataset)?;
    let policy = policy(&opts.policy)?;
    let mut config = SimConfig::evaluation_cluster(policy);
    config.num_instances = opts.instances;
    config.shards = opts.shards;
    config.router = RouterPolicy::parse(&opts.router)?;
    config.regions = opts.regions;
    config.fed_router = FederationPolicy::parse(&opts.fed_router)?;
    config.wan = WanLink::parse(&opts.wan)?;
    if opts.instances % opts.shards != 0 {
        return Err(CliError::Usage(format!(
            "--shards {} does not divide --instances {} evenly",
            opts.shards, opts.instances
        )));
    }
    // A product past `usize::MAX` cannot divide the instance count either.
    let domains = opts.regions.checked_mul(opts.shards);
    if domains.is_none_or(|d| opts.instances % d != 0) {
        return Err(CliError::Usage(format!(
            "--regions {} x --shards {} does not divide --instances {} evenly",
            opts.regions, opts.shards, opts.instances
        )));
    }
    check_deployment_capacity(&config)
        .map_err(|e| CliError::Usage(format!("--instances {}: {e}", opts.instances)))?;
    config.predictor = predictor(&opts.predictor)?;
    config.admission = admission(&opts.admission)?;
    if let Some(ratio) = opts.migration_benefit {
        match config.predictor {
            None => {
                return Err(CliError::Usage(
                    "--migration-benefit needs a length predictor (--predictor)".to_owned(),
                ));
            }
            // The rank predictor never produces absolute estimates, so the
            // cost test could never fire — reject rather than mislabel the
            // run as cost-aware.
            Some(PredictorKind::PairwiseRank) => {
                return Err(CliError::Usage(
                    "--migration-benefit needs absolute length estimates; \
                     the rank predictor only orders requests (use oracle or ema)"
                        .to_owned(),
                ));
            }
            Some(_) => config = config.with_predictive_migration(ratio),
        }
    }
    // Telemetry: tracing follows --trace-out, sampling follows the
    // --series-out/--series-interval pair (each is useless alone, so a
    // lone half is a usage error rather than silently discarded work).
    match (&opts.series_out, opts.series_interval) {
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
        trace: opts.trace_out.is_some(),
        series_interval: opts.series_interval.map(SimDuration::from_secs_f64),
        profile: opts.profile,
    };
    let rate = resolve_rate(&opts.rate, &config, &mix)?;

    // Fleet elasticity: a path is an explicit event schedule, anything
    // else must name a preset (resolved against the run's horizon and
    // topology). Either way every referenced id is validated up front so
    // a typo exits 2 here instead of panicking mid-simulation.
    if let Some(src) = &opts.fleet_events {
        let spec = if std::path::Path::new(src).is_file() {
            let text = std::fs::read_to_string(src)
                .map_err(|e| CliError::Runtime(format!("reading {src}: {e}")))?;
            FleetSpec::parse(&text)
                .map_err(|e| CliError::Usage(format!("--fleet-events {src}: {e}")))?
        } else {
            let preset = FleetPreset::parse(src).map_err(|e| {
                CliError::Usage(format!(
                    "--fleet-events '{src}': not a readable file, and {e}"
                ))
            })?;
            preset.spec(
                opts.count as f64 / rate,
                opts.regions,
                opts.shards,
                opts.instances,
            )
        };
        spec.validate(opts.regions, opts.shards, opts.instances)
            .map_err(|e| CliError::Usage(format!("--fleet-events: {e}")))?;
        if !spec.is_empty() {
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
        config.fleet = Some(spec);
    }

    // SLO burn-rate alerting: a path is an explicit rule file, anything
    // else must name a preset (scaled to the run's horizon, like the
    // fleet presets). Observation only — the run's deterministic outputs
    // never change — so it rides on whatever else the run does.
    if let Some(src) = &opts.alerts {
        let spec = if std::path::Path::new(src).is_file() {
            let text = std::fs::read_to_string(src)
                .map_err(|e| CliError::Runtime(format!("reading {src}: {e}")))?;
            SloAlertSpec::parse(&text)
                .map_err(|e| CliError::Usage(format!("--alerts {src}: {e}")))?
        } else {
            let preset = SloAlertPreset::parse(src).map_err(|e| {
                CliError::Usage(format!("--alerts '{src}': not a readable file, and {e}"))
            })?;
            preset.spec(opts.count as f64 / rate)
        };
        eprintln!(
            "slo alerting: {} rule(s), error budget {:.3}, min {} samples",
            spec.rules.len(),
            spec.budget,
            spec.min_samples
        );
        config.alerts = Some(spec);
    }

    // Predictions only steer PASCAL; under the baselines the predictor is
    // observational (calibration only) and the label stays the plain name.
    let policy_label = match (config.predictor, policy) {
        (Some(kind), SchedPolicy::Pascal(_)) => {
            format!("{}(Predictive-{kind})", policy.name())
        }
        _ => policy.name().to_owned(),
    };
    if opts.regions > 1 {
        eprintln!(
            "simulating {} {} requests at {rate:.2} req/s on {} instances \
             ({} regions x {} shards, {} federation over {} WAN, {} router) \
             under {policy_label} …",
            opts.count,
            opts.dataset,
            opts.instances,
            opts.regions,
            opts.shards,
            opts.fed_router,
            opts.wan,
            opts.router,
        );
    } else if opts.shards > 1 {
        eprintln!(
            "simulating {} {} requests at {rate:.2} req/s on {} instances \
             ({} shards, {} router) under {policy_label} …",
            opts.count, opts.dataset, opts.instances, opts.shards, opts.router,
        );
    } else {
        eprintln!(
            "simulating {} {} requests at {rate:.2} req/s on {} instances under {policy_label} …",
            opts.count, opts.dataset, opts.instances,
        );
    }
    let trace = TraceBuilder::new(mix)
        .arrivals(ArrivalProcess::poisson(rate))
        .count(opts.count)
        .seed(opts.seed)
        .regions(opts.regions)
        .try_build()
        .map_err(|e| CliError::Usage(format!("--count {}: {e}", opts.count)))?;
    let out = run_simulation(&trace, &config);

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
    if opts.migration_benefit.is_some() {
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
    if opts.shards > 1 {
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
    if opts.regions > 1 {
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

    if opts.shards > 1 {
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

    if opts.regions > 1 {
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

    if let Some(path) = opts.csv {
        std::fs::write(&path, records_csv(&out.records))
            .map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?;
        eprintln!("wrote per-request CSV to {path}");
    }

    // Telemetry artifacts. The buffers exist exactly when the matching
    // flag enabled the stream, so the expects document invariants.
    if let Some(path) = &opts.trace_out {
        let telemetry = out.telemetry.as_ref().expect("tracing was enabled");
        let text = match opts.trace_format {
            TraceFormat::Jsonl => events_to_jsonl(&telemetry.events),
            TraceFormat::Chrome => events_to_chrome(&telemetry.events),
        };
        std::fs::write(path, text)
            .map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?;
        eprintln!(
            "wrote {} trace events ({}) to {path}",
            telemetry.events.len(),
            opts.trace_format.key()
        );
    }
    if let Some(path) = &opts.series_out {
        let telemetry = out.telemetry.as_ref().expect("series sampling was enabled");
        let text = if path.ends_with(".json") {
            series_to_json(&telemetry.series)
        } else {
            series_to_csv(&telemetry.series)
        };
        std::fs::write(path, text)
            .map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?;
        eprintln!("wrote {} gauge samples to {path}", telemetry.series.len());
    }
    if opts.profile {
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
    if opts.alerts.is_some() {
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

/// Parsed `sweep` options.
struct SweepOpts {
    grid: String,
    threads: usize,
    count: Option<usize>,
    seed: Option<u64>,
    out: Option<String>,
    baseline: Option<String>,
    ttft_tol: f64,
    ttft_abs_tol: f64,
    slo_tol: f64,
    tput_tol: f64,
    profile: bool,
    blame: bool,
}

impl Default for SweepOpts {
    fn default() -> Self {
        let tol = GateTolerances::default();
        SweepOpts {
            grid: "ci".to_owned(),
            threads: 0,
            count: None,
            seed: None,
            out: None,
            baseline: None,
            ttft_tol: tol.ttft_p99_rel,
            ttft_abs_tol: tol.ttft_p99_abs_s,
            slo_tol: tol.slo_rate_abs,
            tput_tol: tol.throughput_rel,
            profile: false,
            blame: false,
        }
    }
}

fn parse_sweep_opts(args: &[String]) -> Result<SweepOpts, String> {
    let mut opts = SweepOpts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let tolerance = |raw: String, flag: &str| -> Result<f64, String> {
            let v: f64 = raw.parse().map_err(|e| format!("{flag}: {e}"))?;
            if v.is_finite() && v >= 0.0 {
                Ok(v)
            } else {
                Err(format!("{flag} must be a non-negative number, got {v}"))
            }
        };
        match flag.as_str() {
            "--grid" => opts.grid = value()?,
            "--threads" => {
                opts.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            "--count" => {
                let count: usize = value()?.parse().map_err(|e| format!("--count: {e}"))?;
                if count == 0 {
                    return Err("--count must be positive".to_owned());
                }
                // Sweep cells build their traces later, on worker threads.
                Trace::check_capacity(count).map_err(|e| format!("--count {count}: {e}"))?;
                opts.count = Some(count);
            }
            "--seed" => {
                opts.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--out" => opts.out = Some(value()?),
            "--baseline" => opts.baseline = Some(value()?),
            "--ttft-tol" => opts.ttft_tol = tolerance(value()?, "--ttft-tol")?,
            "--ttft-abs-tol" => opts.ttft_abs_tol = tolerance(value()?, "--ttft-abs-tol")?,
            "--slo-tol" => opts.slo_tol = tolerance(value()?, "--slo-tol")?,
            "--tput-tol" => opts.tput_tol = tolerance(value()?, "--tput-tol")?,
            "--profile" => opts.profile = true,
            "--blame" => opts.blame = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
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
    let opts = parse_sweep_opts(args)?;
    // `--grid a,b` merges several presets into one report (unique labels
    // enforced by the runner) — the CI gate sweeps `ci,sharded` this way.
    let names: Vec<&str> = opts
        .grid
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
                opts.grid, dup[0]
            )));
        }
    }
    for grid in &mut grids {
        if let Some(count) = opts.count {
            grid.count = count;
        }
        if let Some(seed) = opts.seed {
            grid.base_seed = seed;
        }
    }
    let runner = SweepRunner::new(opts.threads)
        .with_profile(opts.profile)
        .with_blame(opts.blame);
    let cells: usize = grids.iter().map(|g| g.expand().len()).sum();
    eprintln!(
        "sweeping grid '{}': {cells} cells × {} requests on {} threads …",
        opts.grid,
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
    if opts.profile {
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

    if let Some(dir) = &opts.out {
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

    if let Some(path) = &opts.baseline {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Runtime(format!("reading baseline {path}: {e}")))?;
        let baseline = SweepReport::from_json(&text)
            .map_err(|e| CliError::Runtime(format!("parsing baseline {path}: {e}")))?;
        let tolerances = GateTolerances {
            ttft_p99_rel: opts.ttft_tol,
            ttft_p99_abs_s: opts.ttft_abs_tol,
            slo_rate_abs: opts.slo_tol,
            throughput_rel: opts.tput_tol,
        };
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

/// Parsed `analyze` options.
#[derive(Debug)]
struct AnalyzeOpts {
    trace: Option<String>,
    out: Option<String>,
    format: String,
    top: usize,
}

const ANALYZE_FORMATS: [&str; 3] = ["json", "csv", "waterfall"];

fn parse_analyze_opts(args: &[String]) -> Result<AnalyzeOpts, String> {
    let mut opts = AnalyzeOpts {
        trace: None,
        out: None,
        format: "json".to_owned(),
        top: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--trace" => opts.trace = Some(value()?),
            "--out" => opts.out = Some(value()?),
            "--format" => {
                let raw = value()?;
                if !ANALYZE_FORMATS.contains(&raw.as_str()) {
                    return Err(format!(
                        "unknown analyze format '{raw}' (valid: {})",
                        ANALYZE_FORMATS.join(", ")
                    ));
                }
                opts.format = raw;
            }
            "--top" => {
                opts.top = value()?.parse().map_err(|e| format!("--top: {e}"))?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
}

fn cmd_analyze(args: &[String]) -> Result<(), CliError> {
    let opts = parse_analyze_opts(args)?;
    let path = opts
        .trace
        .ok_or_else(|| CliError::Usage("analyze needs --trace <jsonl>".to_owned()))?;
    let text = std::fs::read_to_string(&path)
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
    match opts.format.as_str() {
        "json" => print!("{}", anatomy_to_json(&report)),
        "csv" => print!("{}", anatomy_to_csv(&report)),
        "waterfall" => print!("{}", anatomy_waterfall(&report, opts.top)),
        other => unreachable!("format '{other}' was validated at parse time"),
    }
    if let Some(dir) = &opts.out {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Runtime(format!("creating {}: {e}", dir.display())))?;
        for (name, contents) in [
            ("anatomy.json", anatomy_to_json(&report)),
            ("anatomy.csv", anatomy_to_csv(&report)),
            ("waterfall.txt", anatomy_waterfall(&report, opts.top)),
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
    let opts = parse_opts(args)?;
    let mix = dataset(&opts.dataset)?;
    let mut config = SimConfig::evaluation_cluster(SchedPolicy::Fcfs);
    config.num_instances = opts.instances;
    let capacity = estimate_capacity_rps(&config, &mix);
    println!(
        "estimated capacity for '{}' on {} instances: {capacity:.2} req/s",
        opts.dataset, opts.instances
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

    fn strs(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let opts = parse_opts(&strs(&[
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
        ]))
        .expect("valid flags");
        assert_eq!(opts.dataset, "arena");
        assert_eq!(opts.policy, "rr");
        assert_eq!(opts.count, 50);
        assert_eq!(opts.instances, 4);
        assert_eq!(opts.csv.as_deref(), Some("/tmp/x.csv"));
    }

    #[test]
    fn rejects_unknown_flags_and_datasets() {
        assert!(parse_opts(&strs(&["--bogus", "1"])).is_err());
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
        let opts = parse_opts(&strs(&["--shards", "4", "--router", "least"])).expect("valid");
        assert_eq!(opts.shards, 4);
        assert_eq!(opts.router, "least");
        // Usage errors: zero shards, non-numeric shards.
        assert!(parse_opts(&strs(&["--shards", "0"])).is_err());
        assert!(parse_opts(&strs(&["--shards", "many"])).is_err());
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
        let opts = parse_opts(&strs(&["--predictor", "oracle"])).expect("valid");
        assert_eq!(opts.predictor, "oracle");
    }

    #[test]
    fn usage_lists_predictor_and_admission_values() {
        for needle in ["none|oracle|ema|rank|quantile", "none|predictive", "[none]"] {
            assert!(USAGE.contains(needle), "usage missing {needle}");
        }
    }

    #[test]
    fn federation_flags_parse_and_validate() {
        let opts = parse_opts(&strs(&[
            "--regions",
            "2",
            "--fed-router",
            "nearest",
            "--wan",
            "metro",
        ]))
        .expect("valid");
        assert_eq!(opts.regions, 2);
        assert_eq!(opts.fed_router, "nearest");
        assert_eq!(opts.wan, "metro");
        // Usage errors: zero or non-numeric regions.
        assert!(parse_opts(&strs(&["--regions", "0"])).is_err());
        assert!(parse_opts(&strs(&["--regions", "everywhere"])).is_err());
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
        let opts = parse_opts(&strs(&["--fleet-events", "outage"])).expect("valid");
        assert_eq!(opts.fleet_events.as_deref(), Some("outage"));
        assert_eq!(parse_opts(&[]).expect("empty").fleet_events, None);
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
        let opts = parse_opts(&strs(&["--admission", "predictive"])).expect("valid");
        assert_eq!(opts.admission, "predictive");
    }

    #[test]
    fn migration_benefit_flag_parses_and_validates() {
        let opts = parse_opts(&strs(&["--migration-benefit", "2.5"])).expect("valid");
        assert_eq!(opts.migration_benefit, Some(2.5));
        assert!(parse_opts(&strs(&["--migration-benefit", "-1"])).is_err());
        assert!(parse_opts(&strs(&["--migration-benefit", "inf"])).is_err());
        assert!(parse_opts(&strs(&["--migration-benefit", "many"])).is_err());
    }

    #[test]
    fn sweep_opts_parse_and_validate() {
        let opts = parse_sweep_opts(&strs(&[
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
        ]))
        .expect("valid flags");
        assert_eq!(opts.grid, "main");
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.count, Some(200));
        assert_eq!(opts.seed, Some(9));
        assert_eq!(opts.out.as_deref(), Some("/tmp/sweep-out"));
        assert_eq!(opts.baseline.as_deref(), Some("BENCH_BASELINE.json"));
        assert!((opts.ttft_tol - 0.2).abs() < 1e-12);
        assert!((opts.slo_tol - 0.05).abs() < 1e-12);

        assert!(parse_sweep_opts(&strs(&["--count", "0"])).is_err());
        assert!(parse_sweep_opts(&strs(&["--ttft-tol", "-1"])).is_err());
        assert!(parse_sweep_opts(&strs(&["--ttft-abs-tol", "inf"])).is_err());
        assert!(parse_sweep_opts(&strs(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn sweep_defaults_match_gate_defaults() {
        let opts = parse_sweep_opts(&[]).expect("empty is valid");
        let tol = GateTolerances::default();
        assert_eq!(opts.grid, "ci");
        assert_eq!(opts.threads, 0);
        assert!((opts.ttft_tol - tol.ttft_p99_rel).abs() < 1e-12);
        assert!((opts.ttft_abs_tol - tol.ttft_p99_abs_s).abs() < 1e-12);
        assert!((opts.slo_tol - tol.slo_rate_abs).abs() < 1e-12);
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
        let opts = parse_opts(&strs(&[
            "--trace-out",
            "/tmp/t.jsonl",
            "--trace-format",
            "chrome",
            "--series-out",
            "/tmp/s.csv",
            "--series-interval",
            "2.5",
            "--profile",
        ]))
        .expect("valid");
        assert_eq!(opts.trace_out.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(opts.trace_format, TraceFormat::Chrome);
        assert_eq!(opts.series_out.as_deref(), Some("/tmp/s.csv"));
        assert_eq!(opts.series_interval, Some(2.5));
        assert!(opts.profile);

        // Unknown formats list the valid values; bad intervals are usage
        // errors whatever flavor of bad they are.
        let err = parse_opts(&strs(&["--trace-format", "bogus"])).expect_err("unknown format");
        assert!(err.contains("valid: jsonl, chrome"), "got: {err}");
        for bad in ["0", "-1", "inf", "nan", "soon", "1e-10"] {
            assert!(
                parse_opts(&strs(&["--series-interval", bad])).is_err(),
                "interval '{bad}' must be rejected"
            );
        }

        // Everything defaults to off.
        let opts = parse_opts(&[]).expect("empty is valid");
        assert_eq!(opts.trace_out, None);
        assert_eq!(opts.trace_format, TraceFormat::Jsonl);
        assert_eq!(opts.series_out, None);
        assert_eq!(opts.series_interval, None);
        assert!(!opts.profile);
    }

    #[test]
    fn sweep_profile_flag_parses() {
        assert!(
            parse_sweep_opts(&strs(&["--profile"]))
                .expect("valid")
                .profile
        );
        assert!(!parse_sweep_opts(&[]).expect("empty is valid").profile);
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
        let opts = parse_analyze_opts(&strs(&[
            "--trace",
            "/tmp/t.jsonl",
            "--format",
            "waterfall",
            "--top",
            "3",
            "--out",
            "/tmp/anatomy",
        ]))
        .expect("valid");
        assert_eq!(opts.trace.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(opts.format, "waterfall");
        assert_eq!(opts.top, 3);
        assert_eq!(opts.out.as_deref(), Some("/tmp/anatomy"));
        // Defaults: machine-readable JSON, top-5 waterfall, no files.
        let opts = parse_analyze_opts(&[]).expect("empty parses");
        assert_eq!(opts.format, "json");
        assert_eq!(opts.top, 5);
        assert!(opts.trace.is_none());
        // Unknown formats list the valid values; bad counts are usage
        // errors.
        let err = parse_analyze_opts(&strs(&["--format", "xml"])).expect_err("unknown format");
        assert!(err.contains("valid: json, csv, waterfall"), "got: {err}");
        assert!(parse_analyze_opts(&strs(&["--top", "many"])).is_err());
        assert!(parse_analyze_opts(&strs(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn alerts_flag_parses_and_usage_lists_it() {
        let opts = parse_opts(&strs(&["--alerts", "paging"])).expect("valid");
        assert_eq!(opts.alerts.as_deref(), Some("paging"));
        assert_eq!(parse_opts(&[]).expect("empty").alerts, None);
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
        assert!(parse_sweep_opts(&strs(&["--blame"])).expect("valid").blame);
        assert!(!parse_sweep_opts(&[]).expect("empty is valid").blame);
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
            runs_kept: 18,
            peak_pending_events: 19,
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
                19.0, 500_000.0
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
