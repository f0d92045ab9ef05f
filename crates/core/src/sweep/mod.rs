//! The scenario-sweep subsystem.
//!
//! Every evaluation in this repo is some cross-product of *scenario* axes:
//! scheduling policy × length predictor × controller settings × arrival
//! rate × workload mix. This module makes that cross-product one call:
//!
//! * [`ScenarioSpec`] — one fully-declarative cell: every axis is a
//!   copyable, parseable key (no config structs), so a cell can be printed,
//!   serialized to JSON/CSV and compared against a committed baseline;
//! * [`SweepGrid`] — a declarative grid over the axes with named presets
//!   (`main`, `predictive`, `migration`, `ci`); [`SweepGrid::expand`] turns
//!   it into cells, pruning incoherent combinations;
//! * [`SweepRunner`] — executes cells on a `std::thread` scoped worker
//!   pool. Each cell derives its trace seed deterministically from the
//!   grid's base seed (shared across cells that differ only in policy or
//!   controller settings, so comparisons stay paired as in the paper), and
//!   cells share no mutable state — a parallel sweep is result-identical
//!   to a sequential one;
//! * [`SweepReport`] — machine-readable results (JSON + CSV) with one
//!   [`SweepCellMetrics`] row per cell, re-parseable via the in-tree JSON
//!   parser;
//! * [`gate`] — the CI perf-regression gate: compares a fresh report
//!   against a committed baseline with explicit tolerances.
//!
//! # Examples
//!
//! ```
//! use pascal_core::sweep::{SweepGrid, SweepRunner};
//!
//! let mut grid = SweepGrid::preset("ci").unwrap();
//! grid.count = 40; // shrink for the doctest
//! let report = SweepRunner::new(2).run_grid(&grid);
//! assert_eq!(report.cells.len(), grid.expand().len());
//! assert!(report.to_json().contains("\"grid\": \"ci\""));
//! ```

use pascal_federation::FederationPolicy;
use pascal_metrics::{QoeParams, SweepCellMetrics};
use pascal_predict::PredictorKind;
use pascal_sched::{PolicyKind, RouterPolicy};
use pascal_telemetry::{ProfileReport, TelemetryConfig};
use pascal_workload::{ArrivalProcess, MixPreset, Trace, TraceBuilder};

use crate::config::{RateLevel, SimConfig};
use crate::engine::{run_simulation, AdmissionMode, SimOutput};
use crate::fleet::FleetPreset;

pub mod gate;
mod grid;
mod json;
mod pool;
mod report;

pub use grid::SweepGrid;
pub use json::{json_f64, json_opt_f64, json_str, JsonValue};
pub use pool::{default_threads, parallel_map};
pub use report::{SweepReport, SweepThroughput};

/// One declarative sweep cell: everything needed to reproduce one
/// simulation run, expressed as copyable keys.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Workload mix preset.
    pub mix: MixPreset,
    /// Arrival-rate level (utilization fraction of the analytic capacity).
    pub level: RateLevel,
    /// Scheduler variant.
    pub policy: PolicyKind,
    /// Online length predictor (`None` = the paper's reactive scheduler).
    pub predictor: Option<PredictorKind>,
    /// Admission-control mode.
    pub admission: AdmissionMode,
    /// Predictive-migration benefit ratio (`None` = reactive Algorithm 2).
    pub migration_benefit: Option<f64>,
    /// Requests in the trace.
    pub count: usize,
    /// Cluster size (aggregate over all shards).
    pub instances: usize,
    /// Scheduling domains the instances split into (`1` = the paper's
    /// single-pool engine), per region. Must divide `instances / regions`.
    pub shards: usize,
    /// Cross-shard routing discipline (only meaningful when `shards > 1`).
    pub router: RouterPolicy,
    /// Geographic regions the cluster federates across (`1` = an
    /// unfederated cluster). Must divide `instances`.
    pub regions: usize,
    /// Cross-region routing discipline (only meaningful when
    /// `regions > 1`).
    pub fed_router: FederationPolicy,
    /// Fleet-event preset (`None` = the static fleet every prior grid
    /// ran). Resolved against the cell's topology and time horizon; the
    /// flash-crowd and diurnal presets also reshape the arrival process.
    pub fleet: Option<FleetPreset>,
    /// Trace seed. Grids derive it from their base seed; hand-built specs
    /// (the refactored experiments) set it directly.
    pub seed: u64,
}

impl ScenarioSpec {
    /// A cell with the evaluation-cluster defaults: eight instances, no
    /// predictor, controllers off.
    #[must_use]
    pub fn new(
        mix: MixPreset,
        level: RateLevel,
        policy: PolicyKind,
        count: usize,
        seed: u64,
    ) -> Self {
        ScenarioSpec {
            mix,
            level,
            policy,
            predictor: None,
            admission: AdmissionMode::Disabled,
            migration_benefit: None,
            count,
            instances: 8,
            shards: 1,
            router: RouterPolicy::RoundRobin,
            regions: 1,
            fed_router: FederationPolicy::Static,
            fleet: None,
            seed,
        }
    }

    /// The same cell partitioned into `shards` domains behind `router`.
    #[must_use]
    pub fn with_shards(mut self, shards: usize, router: RouterPolicy) -> Self {
        self.shards = shards;
        self.router = router;
        self
    }

    /// The same cell federated across `regions` regions behind
    /// `fed_router`.
    #[must_use]
    pub fn with_regions(mut self, regions: usize, fed_router: FederationPolicy) -> Self {
        self.regions = regions;
        self.fed_router = fed_router;
        self
    }

    /// The same cell with a length predictor attached.
    #[must_use]
    pub fn with_predictor(mut self, predictor: PredictorKind) -> Self {
        self.predictor = Some(predictor);
        self
    }

    /// The same cell with the predictive-migration cost test at `ratio`.
    #[must_use]
    pub fn with_migration_benefit(mut self, ratio: f64) -> Self {
        self.migration_benefit = Some(ratio);
        self
    }

    /// The same cell with predictive admission control at full utilization.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionMode) -> Self {
        self.admission = admission;
        self
    }

    /// The same cell under a fleet-event preset.
    #[must_use]
    pub fn with_fleet(mut self, fleet: FleetPreset) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// A short, unique, stable identifier — the key the JSON report and
    /// the regression gate match cells by.
    #[must_use]
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/{}/{}",
            self.mix.key(),
            self.level.key(),
            self.policy.key()
        );
        if let Some(p) = self.predictor {
            label.push('+');
            label.push_str(p.key());
        }
        if let AdmissionMode::Predictive { max_utilization } = self.admission {
            label.push_str(&format!("+adm{max_utilization}"));
        }
        if let Some(ratio) = self.migration_benefit {
            label.push_str(&format!("+mb{ratio}"));
        }
        if self.instances != 8 {
            label.push_str(&format!("/i{}", self.instances));
        }
        if self.shards != 1 {
            label.push_str(&format!("/s{}-{}", self.shards, self.router.key()));
        }
        if self.regions != 1 {
            label.push_str(&format!("/r{}-{}", self.regions, self.fed_router.key()));
        }
        if let Some(f) = self.fleet {
            label.push_str(&format!("/f-{}", f.key()));
        }
        label
    }

    /// Checks the cell can run: a positive request count, then
    /// [`SimConfig::validate`] on its deployment — the rules `pascal-cli
    /// run` applies.
    ///
    /// # Errors
    ///
    /// Returns the cell's label and the first rule its deployment breaks.
    pub fn validate(&self) -> Result<(), String> {
        self.checked_config().map(drop)
    }

    /// The deployment this cell describes.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (see [`ScenarioSpec::validate`]).
    #[must_use]
    pub fn config(&self) -> SimConfig {
        self.checked_config().expect("coherent scenario spec")
    }

    fn checked_config(&self) -> Result<SimConfig, String> {
        if self.count == 0 {
            return Err(format!("{}: count must be positive", self.label()));
        }
        let mut config = SimConfig::evaluation_cluster(self.policy.build());
        config.num_instances = self.instances;
        config.shards = self.shards;
        config.router = self.router;
        config.regions = self.regions;
        config.fed_router = self.fed_router;
        config.predictor = self.predictor;
        config.admission = self.admission;
        if let Some(ratio) = self.migration_benefit {
            config = config.with_predictive_migration(ratio);
        }
        let label = |e| format!("{}: {e}", self.label());
        // The fleet-free topology first: `FleetPreset::spec` divides by
        // regions × shards.
        config.validate().map_err(label)?;
        if let Some(preset) = self.fleet {
            // Anchor the schedule to the cell's expected load window: at
            // `count` requests arriving at `rate_rps`, the arrival horizon
            // is count/rate seconds — outages and scaler windows land
            // mid-run rather than after the trace drains.
            let horizon_s = self.count as f64 / self.rate_rps();
            config.fleet = Some(preset.spec(horizon_s, self.regions, self.shards, self.instances));
            config.validate().map_err(label)?;
        }
        Ok(config)
    }

    /// The concrete arrival rate of this cell, in requests per second.
    /// Derived from the FCFS reference deployment at this cell's cluster
    /// size, so cells differing only in policy or controllers share a rate.
    #[must_use]
    pub fn rate_rps(&self) -> f64 {
        let mut reference = SimConfig::evaluation_cluster(pascal_sched::SchedPolicy::Fcfs);
        reference.num_instances = self.instances;
        self.level.rate_rps(&reference, &self.mix.mix())
    }

    /// Builds this cell's trace. Deterministic in the spec alone. Origin
    /// tags come from a separate RNG stream, so cells that differ only in
    /// region count serve identical request bodies.
    #[must_use]
    pub fn trace(&self) -> Trace {
        let rate = self.rate_rps();
        // The demand-shape presets reshape the arrival process around the
        // same long-run rate; the outage preset keeps Poisson arrivals so
        // the failure is the only thing that changes versus the baseline.
        let arrivals = match self.fleet {
            Some(FleetPreset::FlashCrowd) => ArrivalProcess::bursty(rate, 15.0, 45.0),
            Some(FleetPreset::Diurnal) => {
                ArrivalProcess::diurnal(rate, 0.6, self.count as f64 / rate)
            }
            Some(FleetPreset::Outage) | None => ArrivalProcess::poisson(rate),
        };
        TraceBuilder::new(self.mix.mix())
            .arrivals(arrivals)
            .count(self.count)
            .seed(self.seed)
            .regions(self.regions)
            .build()
    }

    /// Runs the cell: trace synthesis plus the full simulation.
    #[must_use]
    pub fn run(&self) -> SimOutput {
        run_simulation(&self.trace(), &self.config())
    }

    /// Runs the cell with the given telemetry configuration. Telemetry is
    /// deliberately *not* a [`ScenarioSpec`] axis — it never changes a
    /// run's deterministic outputs, so it must never change a cell's
    /// label or serialized form either.
    #[must_use]
    pub fn run_with_telemetry(&self, telemetry: TelemetryConfig) -> SimOutput {
        let mut config = self.config();
        config.telemetry = telemetry;
        run_simulation(&self.trace(), &config)
    }
}

/// One executed cell of a sweep report.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCell {
    /// The cell's declarative description.
    pub spec: ScenarioSpec,
    /// The concrete arrival rate the trace was generated at.
    pub rate_rps: f64,
    /// The engine's decorated policy name (e.g.
    /// `PASCAL(Predictive-Oracle)`).
    pub policy_label: String,
    /// The aggregate metrics row.
    pub metrics: SweepCellMetrics,
    /// Latency-anatomy blame profile, filled only by blame-enabled sweeps
    /// (see [`SweepRunner::with_blame`]). `None` cells serialize without
    /// any blame keys, so blame-free reports keep their historical form.
    pub blame: Option<pascal_telemetry::BlameProfile>,
}

impl SweepCell {
    /// Condenses a run into a report cell.
    #[must_use]
    pub fn from_output(spec: ScenarioSpec, rate_rps: f64, out: &SimOutput) -> Self {
        SweepCell {
            spec,
            rate_rps,
            policy_label: out.policy_name.clone(),
            metrics: SweepCellMetrics::from_run(
                &out.records,
                &out.migration_outcomes,
                &out.admission,
                &out.fleet,
                out.makespan.as_secs_f64(),
                &QoeParams::paper_eval(),
            ),
            blame: None,
        }
    }

    /// The cell's matching key (see [`ScenarioSpec::label`]).
    #[must_use]
    pub fn label(&self) -> String {
        self.spec.label()
    }
}

/// Executes sweep cells on a scoped-thread worker pool.
#[derive(Clone, Copy, Debug)]
pub struct SweepRunner {
    threads: usize,
    /// Attach the hot-path profiler to every cell. Lives on the runner —
    /// not on [`ScenarioSpec`] — because profiling is host-dependent and
    /// must never leak into a cell's identity or serialized report.
    profile: bool,
    /// Attach a latency-anatomy blame profile to every cell. Lives on the
    /// runner — not on [`ScenarioSpec`] — because blame is derived purely
    /// from the (observer-effect-free) trace stream: a cell's
    /// deterministic metrics are identical with it on or off, only the
    /// report gains blame columns.
    blame: bool,
}

impl SweepRunner {
    /// A runner with a fixed pool width; `0` picks
    /// [`default_threads`] (available parallelism, capped at 8).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: if threads == 0 {
                default_threads()
            } else {
                threads
            },
            profile: false,
            blame: false,
        }
    }

    /// The same runner with per-cell hot-path profiling switched on.
    /// Per-cell profiler output is wall-clock (non-deterministic) and is
    /// returned out-of-band by [`SweepRunner::run_grids_profiled`]; the
    /// [`SweepReport`] additionally carries the aggregate
    /// [`SweepThroughput`] figure (the only host-dependent field a report
    /// can contain — unprofiled reports stay fully deterministic).
    #[must_use]
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// The same runner with per-cell latency-anatomy blame profiles
    /// switched on: every cell runs with request tracing, the trace is
    /// reconstructed into an exact additive blame decomposition
    /// ([`pascal_telemetry::reconstruct`]) and aggregated into the cell's
    /// [`SweepCell::blame`] profile. Every deterministic metric is
    /// byte-identical with blame on or off; only the report gains the
    /// schema-v5 blame keys/columns.
    #[must_use]
    pub fn with_blame(mut self, blame: bool) -> Self {
        self.blame = blame;
        self
    }

    /// The pool width this runner uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs one spec with the given telemetry streams.
    fn run_spec(spec: &ScenarioSpec, telemetry: TelemetryConfig) -> SimOutput {
        let mut config = spec.config();
        config.telemetry = telemetry;
        run_simulation(&spec.trace(), &config)
    }

    /// Runs every spec and maps its output, returning results in spec
    /// order. The map function sees the spec and the full [`SimOutput`],
    /// so experiments can extract whatever their rows need; results are
    /// identical at any pool width.
    pub fn run_map<T, F>(&self, specs: &[ScenarioSpec], f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&ScenarioSpec, SimOutput) -> T + Sync,
    {
        parallel_map(specs.len(), self.threads, |i| {
            let spec = &specs[i];
            f(spec, Self::run_spec(spec, TelemetryConfig::default()))
        })
    }

    /// Runs a grid end-to-end into a machine-readable report.
    #[must_use]
    pub fn run_grid(&self, grid: &SweepGrid) -> SweepReport {
        self.run_grids(std::slice::from_ref(grid))
    }

    /// Runs several grids as one report (cells concatenated in grid
    /// order, name joined with `+`) — how the CI perf gate sweeps the
    /// `ci` and `sharded` grids against a single committed baseline.
    ///
    /// # Panics
    ///
    /// Panics if the grids produce duplicate cell labels (the gate matches
    /// cells by label, so a merged report must keep them unique) or if
    /// `grids` is empty.
    #[must_use]
    pub fn run_grids(&self, grids: &[SweepGrid]) -> SweepReport {
        self.run_grids_profiled(grids).0
    }

    /// [`SweepRunner::run_grids`] plus the out-of-band per-cell profiler
    /// reports (in cell order; all `None` unless
    /// [`SweepRunner::with_profile`] switched profiling on). Cells and
    /// every deterministic field are byte-identical with profiling on or
    /// off; profiling additionally stamps the report-level
    /// [`SweepThroughput`] aggregate and returns the per-cell wall-clock
    /// reports through the second element.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SweepRunner::run_grids`].
    #[must_use]
    pub fn run_grids_profiled(
        &self,
        grids: &[SweepGrid],
    ) -> (SweepReport, Vec<Option<ProfileReport>>) {
        assert!(!grids.is_empty(), "need at least one grid");
        let specs: Vec<ScenarioSpec> = grids.iter().flat_map(SweepGrid::expand).collect();
        let mut labels: Vec<String> = specs.iter().map(ScenarioSpec::label).collect();
        labels.sort();
        if let Some(dup) = labels.windows(2).find(|w| w[0] == w[1]) {
            panic!("grids produce a duplicate cell label '{}'", dup[0]);
        }
        let telemetry = TelemetryConfig {
            profile: self.profile,
            trace: self.blame,
            ..TelemetryConfig::default()
        };
        let results: Vec<(SweepCell, Option<ProfileReport>)> =
            parallel_map(specs.len(), self.threads, |i| {
                let spec = &specs[i];
                let mut out = Self::run_spec(spec, telemetry);
                let tele = out.telemetry.take();
                let profile = tele.as_ref().and_then(|t| t.profile.clone());
                let mut cell = SweepCell::from_output(*spec, spec.rate_rps(), &out);
                if self.blame {
                    let events = tele.map(|t| t.events).unwrap_or_default();
                    let anatomy = pascal_telemetry::reconstruct(&events);
                    cell.blame = Some(pascal_telemetry::aggregate(&anatomy.requests));
                }
                (cell, profile)
            });
        let (cells, profiles): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        // Aggregate throughput over the per-cell profiler reports: summed
        // events over summed single-cell wall seconds, so the figure is
        // thread-count-independent (each cell's clock covers only its own
        // event loop).
        let throughput = if self.profile {
            let (events, wall_s) = profiles
                .iter()
                .flatten()
                .fold((0u64, 0.0f64), |(e, w), p: &ProfileReport| {
                    (e + p.events, w + p.wall_s)
                });
            (wall_s > 0.0).then(|| SweepThroughput {
                events,
                wall_s,
                events_per_sec: events as f64 / wall_s,
            })
        } else {
            None
        };
        let report = SweepReport {
            grid: grids
                .iter()
                .map(|g| g.name.as_str())
                .collect::<Vec<_>>()
                .join("+"),
            base_seed: grids[0].base_seed,
            throughput,
            cells,
        };
        (report, profiles)
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_stable() {
        let base = ScenarioSpec::new(
            MixPreset::Arena,
            RateLevel::High,
            PolicyKind::Pascal,
            100,
            1,
        );
        assert_eq!(base.label(), "arena/high/pascal");
        assert_eq!(
            base.with_predictor(PredictorKind::Oracle)
                .with_migration_benefit(1000.0)
                .label(),
            "arena/high/pascal+oracle+mb1000"
        );
        assert_eq!(
            base.with_admission(AdmissionMode::predictive()).label(),
            "arena/high/pascal+adm1"
        );
        let mut small = base;
        small.instances = 2;
        assert_eq!(small.label(), "arena/high/pascal/i2");
    }

    #[test]
    fn incoherent_specs_are_rejected() {
        let base = ScenarioSpec::new(
            MixPreset::Arena,
            RateLevel::High,
            PolicyKind::Pascal,
            100,
            1,
        );
        assert!(base.validate().is_ok());
        assert!(base.with_migration_benefit(2.0).validate().is_err());
        assert!(base
            .with_predictor(PredictorKind::PairwiseRank)
            .with_migration_benefit(2.0)
            .validate()
            .is_err());
        let mut fcfs = base
            .with_predictor(PredictorKind::Oracle)
            .with_migration_benefit(2.0);
        fcfs.policy = PolicyKind::Fcfs;
        assert!(fcfs.validate().is_err());
        let mut zero = base;
        zero.count = 0;
        assert!(zero.validate().is_err());
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let specs: Vec<ScenarioSpec> = PolicyKind::MAIN
            .into_iter()
            .map(|p| {
                let mut s = ScenarioSpec::new(MixPreset::Alpaca, RateLevel::Medium, p, 40, 7);
                s.instances = 2;
                s
            })
            .collect();
        let one = SweepRunner::new(1).run_map(&specs, |spec, out| {
            SweepCell::from_output(*spec, spec.rate_rps(), &out)
        });
        let four = SweepRunner::new(4).run_map(&specs, |spec, out| {
            SweepCell::from_output(*spec, spec.rate_rps(), &out)
        });
        assert_eq!(one, four);
        assert_eq!(one.len(), 3);
        assert!(one.iter().all(|c| c.metrics.requests == 40));
    }

    #[test]
    fn blame_sweeps_keep_metrics_identical_and_attach_profiles() {
        let mut grid = SweepGrid::preset("ci").expect("preset exists");
        grid.count = 30;
        grid.instances = 2;
        let plain = SweepRunner::new(2).run_grid(&grid);
        let blamed = SweepRunner::new(2).with_blame(true).run_grid(&grid);
        assert_eq!(plain.cells.len(), blamed.cells.len());
        for (p, b) in plain.cells.iter().zip(&blamed.cells) {
            // Zero observer effect: tracing for blame never changes a
            // cell's deterministic metrics.
            assert_eq!(p.metrics, b.metrics, "{}", p.label());
            assert!(p.blame.is_none());
            let profile = b.blame.as_ref().expect("blame attached");
            assert_eq!(profile.requests as usize, p.metrics.requests);
        }
        // The schema-v5 blame keys survive a JSON round trip.
        let json = blamed.to_json();
        let back = crate::sweep::SweepReport::from_json(&json).expect("parses");
        assert_eq!(back, blamed);
    }
}
