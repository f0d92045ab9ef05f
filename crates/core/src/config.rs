//! Simulation configuration.
//!
//! [`SimConfig`] describes one serving deployment: the model, the GPU, the
//! cluster size, the scheduling policy and the KV-memory regime. Presets
//! match the paper's two setups — the single-instance characterization
//! testbed (§III-A) and the eight-instance evaluation cluster (§V-A).

use pascal_federation::{FederationPolicy, WanLink};
use pascal_model::{GpuSpec, KvGeometry, LinkSpec, LlmSpec, PerfModel};
use pascal_predict::PredictorKind;
use pascal_sched::{RouterPolicy, SchedPolicy};
use pascal_sim::SimDuration;
use pascal_telemetry::TelemetryConfig;
use pascal_workload::DatasetMix;

use crate::engine::{AdmissionMode, InstanceRt, PredictiveMigration, Shard};
use crate::fleet::FleetSpec;

/// How much HBM is available for KV cache on each instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KvCapacityMode {
    /// Unbounded — the oracle configuration of Fig. 2(a)/Fig. 4.
    Unlimited,
    /// Whatever the GPU physically has left after weights and reserve.
    Physical,
    /// A fraction of the physical capacity (e.g. the paper's "50% of the
    /// oracle capacity" characterization setting, §III-A).
    FractionOfPhysical(f64),
    /// An explicit byte budget (used to set capacity to half the measured
    /// oracle peak).
    Bytes(u64),
}

/// Full description of one simulated deployment.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The served model.
    pub llm: LlmSpec,
    /// The per-instance GPU.
    pub gpu: GpuSpec,
    /// Number of serving instances (the paper's cluster has 8), summed
    /// over every shard of every region: the aggregate capacity stays
    /// fixed as the partitioning varies. Must divide evenly by
    /// [`SimConfig::regions`] × [`SimConfig::shards`].
    pub num_instances: usize,
    /// Number of scheduling domains the instances are partitioned into —
    /// *per region* when [`SimConfig::regions`] is above one. `1` (the
    /// default) reproduces the paper's single-pool engine byte-for-byte.
    pub shards: usize,
    /// Cross-shard routing discipline at the cluster boundary. Irrelevant
    /// (and never consulted) when `shards` is 1.
    pub router: RouterPolicy,
    /// Number of geographic regions the cluster federates across. `1` (the
    /// default) has nothing between regions to route, spill or price, so
    /// it runs byte-for-byte like an unfederated cluster; above one, each
    /// region holds `shards` shards and arrivals are routed by
    /// [`SimConfig::fed_router`] from their `origin_region` tags.
    pub regions: usize,
    /// Cross-region routing discipline at the federation boundary.
    /// Irrelevant (and never consulted) when `regions` is 1.
    pub fed_router: FederationPolicy,
    /// WAN distance class connecting the regions — the tier cross-region
    /// migrations and spills ride, priced well above
    /// [`SimConfig::interconnect`] so the migration cost/benefit veto
    /// forbids frivolous cross-region moves.
    pub wan: WanLink,
    /// Scheduling policy under test.
    pub policy: SchedPolicy,
    /// KV memory regime.
    pub kv_capacity: KvCapacityMode,
    /// Paged-KV block size in tokens (vLLM default 16).
    pub block_tokens: u32,
    /// Maximum sequences per decode iteration (vLLM default 256).
    pub max_batch: u32,
    /// Maximum prompt tokens batched into one prefill iteration.
    pub prefill_token_budget: u32,
    /// Intra-shard inter-node migration fabric.
    pub fabric: LinkSpec,
    /// Inter-shard interconnect — the slower tier between a region's
    /// shards that cross-shard migrations ride (and are cost-priced at),
    /// one contended port per shard.
    pub interconnect: LinkSpec,
    /// Host offload link.
    pub pcie: LinkSpec,
    /// Token pacer target (user reading pace, 100 ms in the paper).
    pub target_tpot: SimDuration,
    /// Online length predictor driving speculative demotion and
    /// predicted-footprint placement (`None` = the paper's reactive
    /// scheduler).
    pub predictor: Option<PredictorKind>,
    /// Predictive migration cost/benefit test (`None` = the paper's
    /// reactive Algorithm 2). Needs a predictor with absolute length
    /// estimates and a policy that migrates; [`SimConfig::validate`]
    /// refuses it otherwise.
    pub predictive_migration: Option<PredictiveMigration>,
    /// Admission-control mode (default [`AdmissionMode::Disabled`]: every
    /// arrival is admitted, as in the paper).
    pub admission: AdmissionMode,
    /// Observability streams (default: everything off — zero observer
    /// effect; see `pascal-telemetry`). Never consulted by any scheduling
    /// decision, so enabling telemetry cannot change a run's outputs.
    pub telemetry: TelemetryConfig,
    /// Fleet-elasticity schedule: timed join/drain/fail events, standby
    /// capacity and the reactive autoscaler (see [`crate::fleet`]).
    /// `None` (the default) keeps the fleet static for the run's lifetime
    /// and the engine byte-identical to a pre-elasticity build.
    pub fleet: Option<FleetSpec>,
    /// SLO burn-rate alert rules, evaluated per shard in sim-time (see
    /// `pascal_telemetry::alert`). Pure observation: the tracker consumes
    /// completion outcomes and never feeds back into scheduling, so
    /// `None` (the default) and `Some` runs produce byte-identical
    /// records, stats and series gauges other than the alert outputs
    /// themselves.
    pub alerts: Option<pascal_telemetry::SloAlertSpec>,
    /// Ignored: the engine always runs one sequential event loop. Kept only
    /// so existing callers that assign it still compile; it will be
    /// removed together with them.
    pub run_threads: usize,
}

impl SimConfig {
    /// The paper's single-instance characterization testbed (§III-A):
    /// one H100 96 GB serving DeepSeek-R1-Distill-Qwen-32B.
    #[must_use]
    pub fn characterization(policy: SchedPolicy, kv_capacity: KvCapacityMode) -> Self {
        SimConfig {
            llm: LlmSpec::deepseek_r1_distill_qwen_32b(),
            gpu: GpuSpec::h100_96gb(),
            num_instances: 1,
            shards: 1,
            router: RouterPolicy::RoundRobin,
            regions: 1,
            fed_router: FederationPolicy::Static,
            wan: WanLink::Continental,
            policy,
            kv_capacity,
            block_tokens: 16,
            max_batch: 256,
            prefill_token_budget: 8192,
            fabric: LinkSpec::fabric_100gbps(),
            interconnect: LinkSpec::interconnect_25gbps(),
            pcie: LinkSpec::pcie5_x16(),
            target_tpot: SimDuration::from_millis(100),
            predictor: None,
            predictive_migration: None,
            admission: AdmissionMode::Disabled,
            telemetry: TelemetryConfig::default(),
            fleet: None,
            alerts: None,
            run_threads: 1,
        }
    }

    /// The same deployment with SLO burn-rate alerting attached.
    #[must_use]
    pub fn with_alerts(mut self, alerts: pascal_telemetry::SloAlertSpec) -> Self {
        self.alerts = Some(alerts);
        self
    }

    /// The same deployment with a length predictor attached.
    #[must_use]
    pub fn with_predictor(mut self, predictor: PredictorKind) -> Self {
        self.predictor = Some(predictor);
        self
    }

    /// The same deployment with the predictive migration cost/benefit test
    /// enabled at the given benefit ratio.
    #[must_use]
    pub fn with_predictive_migration(mut self, min_benefit_ratio: f64) -> Self {
        self.predictive_migration = Some(PredictiveMigration { min_benefit_ratio });
        self
    }

    /// The same deployment with predictive admission control enabled.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionMode) -> Self {
        self.admission = admission;
        self
    }

    /// The same deployment partitioned into `shards` scheduling domains
    /// behind `router`. The instance count stays the aggregate; each shard
    /// gets `num_instances / shards` of it.
    #[must_use]
    pub fn with_shards(mut self, shards: usize, router: RouterPolicy) -> Self {
        self.shards = shards;
        self.router = router;
        self
    }

    /// The same deployment federated across `regions` regions behind
    /// `fed_router`. The instance count stays the aggregate; each region
    /// gets `num_instances / regions` of it, partitioned into
    /// [`SimConfig::shards`] scheduling domains per region.
    #[must_use]
    pub fn with_regions(mut self, regions: usize, fed_router: FederationPolicy) -> Self {
        self.regions = regions;
        self.fed_router = fed_router;
        self
    }

    /// The paper's evaluation cluster (§V-A): eight H100 instances on a
    /// 100 Gbps fabric, physical memory limits.
    #[must_use]
    pub fn evaluation_cluster(policy: SchedPolicy) -> Self {
        SimConfig {
            num_instances: 8,
            ..SimConfig::characterization(policy, KvCapacityMode::Physical)
        }
    }

    /// The performance model for this deployment.
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit the GPU.
    #[must_use]
    pub fn perf_model(&self) -> PerfModel {
        PerfModel::new(self.llm.clone(), self.gpu.clone())
    }

    /// The paged-KV geometry for this deployment.
    #[must_use]
    pub fn geometry(&self) -> KvGeometry {
        KvGeometry::new(self.block_tokens, self.llm.kv_bytes_per_token())
    }

    /// Per-instance KV capacity in bytes (`None` = unbounded).
    ///
    /// # Panics
    ///
    /// Panics if a fractional mode is outside `(0, 1]`.
    #[must_use]
    pub fn kv_capacity_bytes(&self) -> Option<u64> {
        match self.kv_capacity {
            KvCapacityMode::Unlimited => None,
            KvCapacityMode::Physical => Some(self.perf_model().kv_capacity_bytes()),
            KvCapacityMode::FractionOfPhysical(f) => {
                assert!(
                    f > 0.0 && f <= 1.0,
                    "capacity fraction {f} must be in (0, 1]"
                );
                Some((self.perf_model().kv_capacity_bytes() as f64 * f) as u64)
            }
            KvCapacityMode::Bytes(b) => Some(b),
        }
    }

    /// Checks that this deployment can run: the one place a deployment is
    /// judged, whether it comes from `pascal-cli run`, a sweep cell or a
    /// library caller (the engine panics with this message).
    ///
    /// # Errors
    ///
    /// Names the first rule broken: a zero size; more instances than
    /// 32-bit ids can name; regions × shards not dividing the instances;
    /// engine tables the host cannot hold; a migration benefit that is not
    /// a finite non-negative ratio, or that nothing would act on (it needs
    /// a predictor with absolute length estimates and a policy that
    /// migrates: `pascal` or `pascal-nonadaptive`); a zero series
    /// interval; or a fleet schedule naming ids outside the topology.
    pub fn validate(&self) -> Result<(), String> {
        for (name, size) in [
            ("instances", self.num_instances),
            ("shards", self.shards),
            ("regions", self.regions),
            ("max_batch", self.max_batch as usize),
            ("block_tokens", self.block_tokens as usize),
            ("prefill_token_budget", self.prefill_token_budget as usize),
        ] {
            if size == 0 {
                return Err(format!("{name} must be positive"));
            }
        }
        // Instance ids are 32-bit: a larger fleet would give two instances
        // the same id.
        if u32::try_from(self.num_instances).is_err() {
            return Err(format!(
                "{} instances: at most {} (ids are 32-bit)",
                self.num_instances,
                u32::MAX
            ));
        }
        // A product past `usize::MAX` cannot divide the instance count either.
        let domains = self
            .regions
            .checked_mul(self.shards)
            .filter(|d| self.num_instances % d == 0)
            .ok_or_else(|| {
                format!(
                    "{} region(s) x {} shard(s) does not divide {} instances evenly",
                    self.regions, self.shards, self.num_instances
                )
            })?;
        // The engine builds one row per instance and per shard up front: a
        // size the allocator refuses is an error here, not an abort there.
        if Vec::<InstanceRt>::new()
            .try_reserve_exact(self.num_instances)
            .and_then(|()| Vec::<Shard<'_>>::new().try_reserve_exact(domains))
            .is_err()
        {
            return Err(format!(
                "a deployment of {} instances in {domains} shard(s) does not fit in memory",
                self.num_instances
            ));
        }
        if let Some(PredictiveMigration { min_benefit_ratio }) = self.predictive_migration {
            if !(min_benefit_ratio.is_finite() && min_benefit_ratio >= 0.0) {
                return Err(format!(
                    "migration benefit must be a non-negative number, got {min_benefit_ratio}"
                ));
            }
            match self.predictor {
                None => return Err("migration benefit needs a length predictor".to_owned()),
                // The cost test prices absolute remaining lengths, which the
                // rank predictor never estimates: it could never fire.
                Some(PredictorKind::PairwiseRank) => {
                    return Err("migration benefit needs absolute length estimates; \
                         the rank predictor only orders requests"
                        .to_owned());
                }
                Some(_) => {}
            }
            if !matches!(self.policy, SchedPolicy::Pascal(c) if c.migration_enabled) {
                return Err(format!(
                    "migration benefit needs a policy that migrates \
                     (pascal or pascal-nonadaptive), not {}",
                    self.policy.name()
                ));
            }
        }
        if self.telemetry.series_interval == Some(SimDuration::ZERO) {
            return Err("series interval must be non-zero".to_owned());
        }
        match &self.fleet {
            Some(fleet) => fleet.validate(self.regions, self.shards, self.num_instances),
            None => Ok(()),
        }
    }
}

/// Analytic estimate of the cluster's maximum sustainable request rate
/// (req/s) for a dataset mix — the reference from which the paper-style
/// "low / medium / high" arrival rates are derived as utilization fractions
/// (see `DESIGN.md` §2).
///
/// The estimate assumes steady state at the memory-limited batch size:
/// `B* = kv_tokens / mean_resident_context`, token throughput
/// `B* / decode_step(B*)`, divided by mean output tokens per request.
#[must_use]
pub fn estimate_capacity_rps(config: &SimConfig, mix: &DatasetMix) -> f64 {
    let perf = config.perf_model();
    let mean_out: f64 = mix.mean_output_tokens();
    let mean_prompt: f64 = mix
        .components()
        .iter()
        .map(|(p, w)| p.prompt.mean() * w)
        .sum::<f64>()
        / mix.components().iter().map(|(_, w)| w).sum::<f64>();
    // A request's resident context averages prompt + half its output.
    let mean_ctx = mean_prompt + mean_out / 2.0;
    let kv_tokens = match config.kv_capacity_bytes() {
        Some(bytes) => bytes as f64 / config.llm.kv_bytes_per_token() as f64,
        None => f64::from(config.max_batch) * mean_ctx,
    };
    let b_max = (kv_tokens / mean_ctx)
        .min(f64::from(config.max_batch))
        .max(1.0);
    let step = perf
        .decode_step_time(pascal_model::DecodeBatch {
            num_seqs: b_max as u32,
            total_context_tokens: (b_max * mean_ctx) as u64,
        })
        .as_secs_f64();
    let tokens_per_s = b_max / step;
    config.num_instances as f64 * tokens_per_s / mean_out
}

/// The three arrival-rate regimes of Fig. 9–12, as utilization fractions of
/// [`estimate_capacity_rps`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RateLevel {
    /// ~70% of estimated capacity: memory pressure is rare.
    Low,
    /// ~85%: intermittent pressure as bursts overlap.
    Medium,
    /// ~100%: sustained saturation — bursts exceed GPU compute and memory
    /// capacity, the regime Fig. 9's caption describes for its "high" rate
    /// and the one Fig. 10 focuses on.
    High,
}

impl RateLevel {
    /// All three levels in presentation order.
    pub const ALL: [RateLevel; 3] = [RateLevel::Low, RateLevel::Medium, RateLevel::High];

    /// The utilization fraction relative to [`estimate_capacity_rps`].
    ///
    /// The paper's "high" rate exceeds the cluster's compute and memory
    /// capacity (Fig. 9 caption); these fractions reproduce that regime.
    #[must_use]
    pub fn utilization(self) -> f64 {
        match self {
            RateLevel::Low => 0.70,
            RateLevel::Medium => 0.85,
            RateLevel::High => 1.00,
        }
    }

    /// Concrete request rate for a deployment and mix.
    #[must_use]
    pub fn rate_rps(self, config: &SimConfig, mix: &DatasetMix) -> f64 {
        self.utilization() * estimate_capacity_rps(config, mix)
    }

    /// The short CLI/JSON key (`low` / `medium` / `high`).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            RateLevel::Low => "low",
            RateLevel::Medium => "medium",
            RateLevel::High => "high",
        }
    }

    /// Parses a CLI-style key.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid keys.
    pub fn parse(s: &str) -> Result<RateLevel, String> {
        RateLevel::ALL
            .into_iter()
            .find(|l| l.key() == s)
            .ok_or_else(|| {
                let keys: Vec<&str> = RateLevel::ALL.iter().map(|l| l.key()).collect();
                format!("unknown rate level '{s}' (valid: {})", keys.join(", "))
            })
    }
}

impl std::fmt::Display for RateLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascal_sched::PolicyKind;
    use pascal_workload::DatasetProfile;

    #[test]
    fn characterization_config_is_single_instance() {
        let c = SimConfig::characterization(SchedPolicy::Fcfs, KvCapacityMode::Unlimited);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.num_instances, 1);
        assert_eq!(c.kv_capacity_bytes(), None);
    }

    #[test]
    fn evaluation_cluster_has_eight_instances() {
        let c = SimConfig::evaluation_cluster(SchedPolicy::Fcfs);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.num_instances, 8);
        assert!(c.kv_capacity_bytes().unwrap() > 10_000_000_000);
    }

    #[test]
    fn fraction_mode_scales_physical() {
        let full = SimConfig::characterization(SchedPolicy::Fcfs, KvCapacityMode::Physical);
        let half =
            SimConfig::characterization(SchedPolicy::Fcfs, KvCapacityMode::FractionOfPhysical(0.5));
        let f = full.kv_capacity_bytes().unwrap();
        let h = half.kv_capacity_bytes().unwrap();
        assert!((h as f64 / f as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn capacity_estimate_is_plausible() {
        let c = SimConfig::evaluation_cluster(SchedPolicy::Fcfs);
        let mix = DatasetMix::single(DatasetProfile::alpaca_eval2());
        let rps = estimate_capacity_rps(&c, &mix);
        // 8 H100s serving a 32B model: tens of requests per second.
        assert!(
            (5.0..100.0).contains(&rps),
            "capacity {rps} req/s out of band"
        );
    }

    #[test]
    fn rate_levels_are_ordered() {
        let c = SimConfig::evaluation_cluster(SchedPolicy::Fcfs);
        let mix = DatasetMix::single(DatasetProfile::arena_hard());
        let lo = RateLevel::Low.rate_rps(&c, &mix);
        let mid = RateLevel::Medium.rate_rps(&c, &mix);
        let hi = RateLevel::High.rate_rps(&c, &mix);
        assert!(lo < mid && mid < hi);
    }

    #[test]
    fn with_shards_partitions_the_cluster() {
        let c = SimConfig::evaluation_cluster(SchedPolicy::Fcfs)
            .with_shards(4, RouterPolicy::Predictive);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.shards, 4);
        assert_eq!(c.router, RouterPolicy::Predictive);
        assert_eq!(c.num_instances, 8, "aggregate capacity is unchanged");
    }

    #[test]
    fn uneven_shard_partition_rejected() {
        let err = SimConfig::evaluation_cluster(SchedPolicy::Fcfs)
            .with_shards(3, RouterPolicy::RoundRobin)
            .validate()
            .expect_err("3 shards do not split 8 instances");
        assert!(err.contains("does not divide 8 instances"), "{err}");
    }

    #[test]
    fn with_regions_federates_at_fixed_aggregate_capacity() {
        let c = SimConfig::evaluation_cluster(SchedPolicy::Fcfs)
            .with_shards(2, RouterPolicy::LeastLoaded)
            .with_regions(2, FederationPolicy::Predictive);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.regions, 2);
        assert_eq!(c.fed_router, FederationPolicy::Predictive);
        assert_eq!(c.wan, WanLink::Continental, "continental WAN by default");
        assert_eq!(c.num_instances, 8, "aggregate capacity is unchanged");
    }

    #[test]
    fn uneven_region_partition_rejected() {
        // 8 instances split into 4 shards fine, but not into 4 regions of
        // 4 shards each (16 scheduling domains).
        let err = SimConfig::evaluation_cluster(SchedPolicy::Fcfs)
            .with_shards(4, RouterPolicy::RoundRobin)
            .with_regions(4, FederationPolicy::Static)
            .validate()
            .expect_err("16 domains do not split 8 instances");
        assert!(err.contains("4 region(s) x 4 shard(s)"), "{err}");
    }

    #[test]
    fn rate_level_parse_errors_list_valid_values() {
        let err = RateLevel::parse("turbo").expect_err("unknown level");
        assert!(
            err.contains("valid: low, medium, high"),
            "error must list the valid values, got: {err}"
        );
        for level in RateLevel::ALL {
            assert_eq!(RateLevel::parse(level.key()), Ok(level));
        }
    }

    #[test]
    fn zero_series_interval_rejected() {
        let mut c = SimConfig::evaluation_cluster(SchedPolicy::Fcfs);
        c.telemetry.series_interval = Some(SimDuration::ZERO);
        assert_eq!(
            c.validate(),
            Err("series interval must be non-zero".to_owned())
        );
    }

    #[test]
    fn migration_benefit_needs_estimates_and_a_migrating_policy() {
        let deployment = |kind: PolicyKind, predictor| {
            let mut c = SimConfig::evaluation_cluster(kind.build()).with_predictive_migration(4.0);
            c.predictor = predictor;
            c.validate()
        };
        let quantile = Some(PredictorKind::Quantile);
        for kind in [PolicyKind::Pascal, PolicyKind::PascalNonAdaptive] {
            assert_eq!(deployment(kind, quantile), Ok(()), "{kind}");
        }
        // A policy that never migrates would only tally vetoes for moves
        // it can never make.
        for kind in [
            PolicyKind::Fcfs,
            PolicyKind::RoundRobin,
            PolicyKind::PascalNoMigration,
        ] {
            let err = deployment(kind, quantile).expect_err("refused");
            assert!(
                err.contains("needs a policy that migrates"),
                "{kind}: {err}"
            );
        }
        let err = deployment(PolicyKind::Pascal, None).expect_err("no predictor");
        assert!(err.contains("needs a length predictor"), "{err}");
        let err = deployment(PolicyKind::Pascal, Some(PredictorKind::PairwiseRank))
            .expect_err("rank only orders");
        assert!(err.contains("absolute length estimates"), "{err}");
        for ratio in [-1.0, f64::NAN, f64::INFINITY] {
            let mut c = SimConfig::evaluation_cluster(PolicyKind::Pascal.build())
                .with_predictor(PredictorKind::Oracle)
                .with_predictive_migration(ratio);
            assert!(c
                .validate()
                .expect_err("bad ratio")
                .contains("non-negative"));
            c.predictive_migration = None;
            assert_eq!(c.validate(), Ok(()));
        }
    }

    #[test]
    fn zero_sizes_and_the_id_space_are_rejected() {
        let mut c = SimConfig::evaluation_cluster(SchedPolicy::Fcfs);
        c.num_instances = 0;
        assert_eq!(c.validate(), Err("instances must be positive".to_owned()));
        c.num_instances = u32::MAX as usize + 1;
        let err = c.validate().expect_err("past the id space");
        assert!(err.contains("ids are 32-bit"), "{err}");
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn bad_fraction_rejected() {
        let c =
            SimConfig::characterization(SchedPolicy::Fcfs, KvCapacityMode::FractionOfPhysical(1.5));
        let _ = c.kv_capacity_bytes();
    }
}
