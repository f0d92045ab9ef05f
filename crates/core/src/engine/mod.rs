//! The sharded multi-instance serving engine.
//!
//! An iteration-level discrete-event simulation of vLLM-style continuous
//! batching (§II-B), organized as a **cluster of shards**. A [`Shard`] is
//! one scheduling domain — an instance pool plus its own controllers and
//! predictor state — running the single mechanism all three schedulers
//! share:
//!
//! 1. every time an instance is idle, sort its requests by the policy's
//!    priority key and grant GPU KV residency to the longest prefix that
//!    fits (the *desired set*);
//! 2. residents outside the desired set are preempted (KV offloaded to CPU
//!    over PCIe); non-residents inside it are admitted — prefilled,
//!    reloaded, or (for warm requests) materialized;
//! 3. run one iteration: a prefill pass over waiting prompts if any are
//!    admitted, otherwise one decode step for every runnable resident;
//! 4. at iteration end each decoded request gains one token; quantum
//!    counters advance, phase transitions fire (triggering Algorithm 2
//!    migration for PASCAL), completions free memory.
//!
//! Instance-level placement (Algorithm 1 / smallest-footprint) happens at
//! arrival events; KV migrations ride the shard's fabric with
//! ingress/egress contention (§V-C).
//!
//! The [`Engine`](hierarchy) drives every shard of every region under
//! one clock ([`driver`](self)): a single future-event list per run, on
//! which every shard schedules through a handle that stamps its global
//! shard id. The earliest event fires next, arrivals (read straight off
//! the trace) win timestamp ties, and remaining ties break by shard id,
//! then schedule order — so a one-shard run replays the exact event
//! sequence of the pre-sharding engine, byte for byte, and a one-region
//! run is the same code with nothing between regions to do. Above the
//! shards sit the mechanisms of the two upper tiers, each written once
//! and parameterised by the tier
//! ([`EscapeTier`]):
//!
//! * the **arrival router**: the federation policy
//!   (`pascal_federation::FederationPolicy`) picks the region, the shard
//!   router (`pascal_sched::RouterPolicy`) pins the arrival to a shard
//!   from per-shard [`PoolSnapshot`](pascal_cluster::PoolSnapshot)s, and
//!   the shard's admission controller is probed — a would-be rejection
//!   spills to a remote region first — before the shard's Algorithm 1
//!   picks an instance;
//! * the **escape**: when a phase transition finds its home shard
//!   saturated (no SLO-healthy instance, or no instance that can hold the
//!   KV), Algorithm 2 is lifted to shard granularity, and when no sibling
//!   shard is healthy, to region granularity. The KV migrates over the
//!   region's inter-shard interconnect or over the WAN, and the
//!   predictive cost/benefit veto prices the move on that tier's link;
//!   every failure falls back to the deferred intra-shard move.
//!
//! A KV move at any of the three tiers — within a shard, across shards,
//! across regions — then takes one migration path: one cost over the
//! tier's link, one tally of what was considered, vetoed or aborted, a
//! destination-side reservation, one source-side launch, one
//! [`Event::MigrationDone`] and one landing.
//!
//! The per-shard components live one per submodule:
//!
//! * [`lifecycle`](self) — the per-request state machine: arrival →
//!   prefill → reasoning → answering → completion, including the
//!   offload/reload preemption transitions and per-iteration residency
//!   planning;
//! * [`migration`](self) — the [`MigrationController`](migration): phase-
//!   boundary Algorithm 2 decisions and the one migration path of all
//!   three tiers — the predictive cost/benefit veto (KV transfer cost on
//!   the tier's link vs predicted remaining service), the tier-keyed
//!   tally, the destination's reservation, the source's launch and the
//!   destination's side of the landing;
//! * [`admission`](self) — the [`AdmissionController`](admission):
//!   predictive SLO admission control that rejects arrivals at predicted
//!   shard KV overload instead of letting the pacers starve;
//! * [`members`](self) — the member bookkeeping every state change goes
//!   through: per-instance monitor counters, the priority-ordered
//!   candidate index and the GPU-resident set, all kept exact
//!   incrementally so no event pays for the instance's backlog;
//! * [`steady`](self) — steady decode runs: iterations that change
//!   nothing but token counts replay in closed form, without visiting the
//!   batch's members;
//! * [`stats`](self) — the instance-monitor sweep producing the
//!   [`InstanceStats`] snapshots Algorithms 1 and 2 consume;
//! * [`hierarchy`](self) — the engine: the event loop over every shard,
//!   the arrival router, the escape decisions at both upper tiers, and
//!   the landing of every migration;
//! * [`driver`](self) — the run's clock: the future-event list and the
//!   arrival cursor.
//!
//! Both controllers default to off and `shards` defaults to 1, in which
//! case a run is byte-identical to the paper's reactive scheduler.

use std::cell::Cell;
use std::collections::BTreeMap;

use pascal_cluster::{Instance, InstanceStats, Members, ReqHandle, RequestSlab, RequestState};
use pascal_metrics::{
    AdmissionCounters, AdmissionRecord, CalibrationReport, FleetOutcomes, MigrationOutcomes,
    MigrationRecord, PredictionSample, RegionStats, RequestRecord, ShardStats,
};
use pascal_model::{KvGeometry, PerfModel};
use pascal_predict::{LengthEstimate, LengthPredictor, PredictorKind};
use pascal_sched::{PriorityKey, SchedPolicy};
use pascal_sim::SimTime;
use pascal_telemetry::{
    EscapeTier, ProfiledEvent, SeriesSink, SloAlertRecord, SloBurnTracker, TelemetryHandle,
    TelemetryOut, TraceEvent, TraceEventKind, WorkCounters,
};
use pascal_workload::{RequestId, RequestSpec, Trace};

use crate::config::SimConfig;
use crate::fleet::HealthState;

mod admission;
mod driver;
mod fleet_rt;
mod hierarchy;
mod lifecycle;
mod members;
mod migration;
mod stats;
mod steady;
#[cfg(test)]
mod tests;

pub use admission::AdmissionMode;
pub use migration::PredictiveMigration;

use admission::AdmissionController;
use driver::{Clock, ShardQueue};
use fleet_rt::AutoscalerRt;
pub(crate) use hierarchy::Engine;
use members::{EstimateTable, InstanceMonitor, MemberMon};
use migration::MigrationController;
use steady::SteadyRun;

/// Events driving a shard. Arrivals are not queue events: the clock reads
/// them straight off the trace (see [`driver`]).
///
/// Request-scoped events carry the request's slab handle: every such event
/// fires while the request still lives on the scheduling shard (transfers
/// are scheduled by the *source* shard and the state moves at handling
/// time), so the handle is valid for the event's whole queue residency.
// Most queued events mark a completion, so the shared postfix is the
// honest name, not noise (fleet events are the exception).
#[allow(clippy::enum_variant_names)]
#[derive(Debug)]
pub(super) enum Event {
    /// The in-flight iteration on an instance finished.
    IterationDone { instance: u32 },
    /// A preemption offload finished; KV now lives in CPU memory.
    OffloadDone { req: ReqHandle },
    /// A reload finished; KV is GPU-resident again.
    ReloadDone { req: ReqHandle },
    /// A migration cleared its link — this shard's fabric when `to_shard`
    /// is this shard, the region's interconnect, or the WAN when
    /// `to_shard` is in another region — and lands on local instance
    /// `to_instance` of global shard `to_shard`. Scheduled by the source
    /// shard so the source frees its KV exactly at landing time.
    MigrationDone {
        req: ReqHandle,
        to_shard: u32,
        to_instance: u32,
    },
    /// A scheduled fleet transition fires: the instance joins, starts
    /// draining, or fail-stops. Resolved from the run's
    /// [`FleetSpec`](crate::fleet::FleetSpec) at construction (or scheduled
    /// by the autoscaler), so a fleet-free run never sees one.
    FleetTransition { instance: u32, to: HealthState },
    /// The reactive autoscaler re-evaluates predicted utilization.
    AutoscaleTick,
}

impl Event {
    /// The hot-path profiler's class for this event, scheduled by global
    /// shard `shard` in a run of `shards_per_region` shards per region: a
    /// migration landing is classed by its tier.
    pub(super) fn profiled(&self, shard: u32, shards_per_region: u32) -> ProfiledEvent {
        match self {
            Event::IterationDone { .. } => ProfiledEvent::IterationDone,
            Event::OffloadDone { .. } => ProfiledEvent::OffloadDone,
            Event::ReloadDone { .. } => ProfiledEvent::ReloadDone,
            Event::MigrationDone { to_shard, .. } => {
                match tier_between(shard, *to_shard, shards_per_region) {
                    EscapeTier::Intra => ProfiledEvent::MigrationDone,
                    EscapeTier::CrossShard => ProfiledEvent::CrossShardDone,
                    EscapeTier::CrossRegion => ProfiledEvent::CrossRegionDone,
                }
            }
            Event::FleetTransition { .. } | Event::AutoscaleTick => ProfiledEvent::Fleet,
        }
    }
}

/// The tier a move from global shard `from` to global shard `to` crosses,
/// in a run of `shards_per_region` shards per region.
pub(super) fn tier_between(from: u32, to: u32, shards_per_region: u32) -> EscapeTier {
    if from == to {
        EscapeTier::Intra
    } else if from / shards_per_region == to / shards_per_region {
        EscapeTier::CrossShard
    } else {
        EscapeTier::CrossRegion
    }
}

/// What kind of iteration an instance is running.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum IterationKind {
    Prefill,
    Decode,
}

/// A phase transition (or drain) that found its shard saturated: the
/// migration decision defers to the engine's escape path.
/// `intra_fallback` carries the intra-shard destination Algorithm 2 had
/// picked (if any) — executed when no other shard can take the request.
///
/// Carries both the slab handle (for state access) and the request id: the
/// escape is evaluated after the triggering iteration, so the defensive
/// staleness check re-verifies that the handle still names this request.
#[derive(Clone, Copy, Debug)]
pub(super) struct EscapeCandidate {
    pub(super) req: RequestId,
    pub(super) handle: ReqHandle,
    pub(super) intra_fallback: Option<u32>,
}

/// Result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// One record per completed request, ordered by request id.
    pub records: Vec<RequestRecord>,
    /// Peak GPU KV usage per instance, in bytes (shard-major order, so
    /// index = global instance id).
    pub peak_gpu_kv_bytes: Vec<u64>,
    /// Time of the last completion.
    pub makespan: SimTime,
    /// Name of the policy that produced this run.
    pub policy_name: String,
    /// One predicted-vs-actual sample per admitted request, ordered by
    /// request id — empty when no length predictor was configured.
    pub predictions: Vec<PredictionSample>,
    /// Decision tally of the migration controllers, summed over shards.
    pub migration_outcomes: MigrationOutcomes,
    /// Decision tally of the admission controllers, summed over shards.
    pub admission: AdmissionCounters,
    /// Arrivals rejected by admission control, in arrival order — empty
    /// unless [`AdmissionMode::Predictive`] was configured.
    pub rejections: Vec<AdmissionRecord>,
    /// Fleet elasticity tally, summed over shards — all zeros unless
    /// [`SimConfig::fleet`](crate::SimConfig) scheduled fleet events.
    pub fleet: FleetOutcomes,
    /// One row per scheduling domain (a single row when `shards` is 1).
    pub shard_stats: Vec<ShardStats>,
    /// SLO burn-rate alerts fired during the run, ordered by (time, shard,
    /// rule) — empty unless [`SimConfig::alerts`](crate::SimConfig)
    /// configured alert rules. Side data only: nothing else in this struct
    /// ever depends on it.
    pub alerts: Vec<SloAlertRecord>,
    /// One row per region (a single row when `regions` is 1).
    pub region_stats: Vec<RegionStats>,
    /// What the run's telemetry streams collected — `None` unless
    /// [`SimConfig::telemetry`](crate::SimConfig::telemetry) enabled at
    /// least one stream. Side data only: nothing else in this struct ever
    /// depends on it.
    pub telemetry: Option<TelemetryOut>,
}

impl SimOutput {
    /// All phase-boundary migrations performed during the run, in request-id
    /// order (borrowed from the records — no allocation).
    pub fn migrations(&self) -> impl Iterator<Item = &MigrationRecord> + '_ {
        self.records.iter().filter_map(|r| r.migration.as_ref())
    }

    /// Calibration report of the run's length predictor, if it produced
    /// absolute estimates.
    #[must_use]
    pub fn calibration(&self) -> Option<CalibrationReport> {
        CalibrationReport::from_samples(&self.predictions)
    }
}

/// KV bytes a request's current context occupies — the footprint moved by
/// offloads, reloads and migrations, and the one the cost model prices.
/// Free function so call sites holding a `&mut RequestState` can use it.
pub(super) fn context_kv_bytes(geometry: &KvGeometry, st: &RequestState) -> u64 {
    geometry.blocks_for_tokens(st.context_tokens()) * geometry.block_bytes()
}

/// Runs `trace` through the deployment described by `config`.
///
/// Deterministic: identical `(trace, config)` inputs produce identical
/// outputs.
///
/// # Panics
///
/// Panics with [`SimConfig::validate`]'s message if the configuration is
/// invalid, or if any single request's final KV footprint exceeds one
/// instance's KV capacity (such a request could never be scheduled).
#[must_use]
pub fn run_simulation(trace: &Trace, config: &SimConfig) -> SimOutput {
    run_reporting_to(trace, config, TelemetryHandle::new(&config.telemetry))
}

/// Runs `trace` through `config`'s deployment, reporting to `telemetry`
/// (a handle built for `config.telemetry`).
fn run_reporting_to(trace: &Trace, config: &SimConfig, telemetry: TelemetryHandle) -> SimOutput {
    Engine::with_telemetry(trace, config, telemetry).run()
}

/// [`run_simulation`] with the time-series gauge rows written to `sink` as
/// they are sampled, instead of collected into the output's telemetry:
/// memory stays flat however fine `config.telemetry.series_interval` is.
/// Returns the sink for the caller to finish (without series sampling
/// configured it is returned untouched).
///
/// # Panics
///
/// As [`run_simulation`].
#[must_use]
pub fn run_simulation_with_series(
    trace: &Trace,
    config: &SimConfig,
    sink: SeriesSink,
) -> (SimOutput, SeriesSink) {
    if config.telemetry.series_interval.is_none() {
        return (run_simulation(trace, config), sink);
    }
    let telemetry = TelemetryHandle::new(&config.telemetry).with_series_sink(sink);
    let out = run_reporting_to(trace, config, telemetry.clone());
    let sink = telemetry
        .take_series_sink()
        .expect("a series-sampling handle keeps its sink");
    (out, sink)
}

/// One scheduling domain: an instance pool with its own controllers and
/// (fresh) predictor state, scheduling its events on the run's queue.
pub(super) struct Shard<'a> {
    /// Shard index — global across the federation (region-major), so a
    /// one-region cluster's shard ids are exactly the PR 4 ids.
    pub(super) id: u32,
    /// Global id of this shard's first instance; instance indices inside
    /// the shard are local, records carry `offset + local`.
    pub(super) offset: u32,
    /// Whether saturated phase transitions and drains escape this shard —
    /// to sibling shards, or to remote regions even when the shard is its
    /// region's only one: PASCAL with migration on, in a run with more
    /// than one shard.
    pub(super) cross_escape_enabled: bool,
    pub(super) trace: &'a Trace,
    pub(super) config: &'a SimConfig,
    pub(super) policy: SchedPolicy,
    pub(super) perf: PerfModel,
    pub(super) geometry: KvGeometry,
    /// This shard's handle on the run's future-event list.
    pub(super) queue: ShardQueue,
    pub(super) instances: Vec<InstanceRt>,
    pub(super) fabric: pascal_cluster::Fabric,
    /// Slab storage of every in-flight request on this shard, indexed by
    /// the dense handles events and membership lists carry.
    pub(super) states: RequestSlab,
    /// Reusable hot-path buffers (see [`ScheduleScratch`]).
    pub(super) scratch: ScheduleScratch,
    pub(super) migration_ctl: MigrationController,
    pub(super) admission_ctl: AdmissionController,
    pub(super) records: Vec<RequestRecord>,
    /// Online length predictor (fresh state per shard per run); fed every
    /// completion that lands on this shard.
    pub(super) predictor: Option<Box<dyn LengthPredictor>>,
    pub(super) prediction_samples: Vec<PredictionSample>,
    /// Arrivals the router pinned here.
    pub(super) routed_arrivals: u64,
    /// Requests that migrated in over the interconnect.
    pub(super) cross_shard_in: u64,
    /// Requests that migrated in over the WAN (federated runs only).
    pub(super) cross_region_in: u64,
    /// Phase transitions that found the shard saturated — resolved by the
    /// engine right after the triggering event, before the instance
    /// relaunches.
    pub(super) cross_escape_outbox: Vec<EscapeCandidate>,
    /// What each member currently contributes to its instance's derived
    /// state, indexed by slab slot.
    pub(super) member_mon: Vec<MemberMon>,
    /// Cached predicted totals behind the monitor's predicted-growth sum.
    pub(super) estimates: EstimateTable,
    /// Per-instance availability. All-`Healthy` (and never written) without
    /// a fleet spec, so the static-fleet hot path is untouched.
    pub(super) health: Vec<HealthState>,
    /// When each in-progress drain started (drain-completion accounting).
    pub(super) drain_started: Vec<Option<SimTime>>,
    /// Fleet elasticity tally for this shard.
    pub(super) fleet: FleetOutcomes,
    /// Reactive autoscaler state; `None` without an `autoscale` directive.
    pub(super) autoscaler: Option<AutoscalerRt>,
    /// SLO burn-rate tracker; `None` without [`SimConfig::alerts`]. Fed
    /// every answering completion, never read by any scheduling decision.
    pub(super) slo_tracker: Option<SloBurnTracker>,
    /// Rising-edge alerts this shard's tracker fired, in sim-time order.
    pub(super) alerts: Vec<SloAlertRecord>,
    /// Telemetry emitter (a clone of the run-wide handle; a single no-op
    /// branch per call site when disabled).
    pub(super) telemetry: TelemetryHandle,
    /// Deterministic work tally, handed to the profiler at the end of the
    /// run. A `Cell` because the monitor sweep and several estimate sites
    /// run behind `&self`.
    pub(super) work: Cell<WorkCounters>,
}

/// Engine-side per-instance runtime extension. Everything below
/// `dying_blocks` is derived member state, kept exact by the
/// [`members`](self) mutators at every change to a member's phase,
/// demotion, quanta, KV location, token count or instance.
pub(super) struct InstanceRt {
    pub(super) inst: Instance,
    pub(super) current_batch: Vec<ReqHandle>,
    pub(super) current_kind: IterationKind,
    /// GPU blocks held by members whose KV is on the way out (preemption
    /// offloads, outbound migrations) — maintained incrementally so the
    /// scheduler's budget computation skips a full member sweep.
    pub(super) dying_blocks: u64,
    /// Schedulable members (KV neither offloading nor migrating) ordered
    /// by priority key — the intra-instance scheduler's queue. A request
    /// is re-keyed only when its own key changes; the key's last component
    /// is the request id, so the order is total.
    pub(super) cands: BTreeMap<PriorityKey, ReqHandle>,
    /// GPU-resident members in ascending id order: the only members a
    /// scheduling pass can evict.
    pub(super) residents: Members,
    /// The aggregates this instance's monitor row is read from.
    pub(super) monitor: InstanceMonitor,
    /// The in-flight batch's steady run, when its iterations replay in
    /// closed form (see [`steady`](self)).
    pub(super) steady: SteadyRun,
}

/// Reusable buffers for the per-iteration scheduling pass and the monitor
/// sweep, so the hot path performs no allocations after warmup. Taken with
/// `mem::take` for the duration of a pass and put back when it ends —
/// capacities ping-pong between here and the instances' current batches,
/// amortizing to zero allocation.
#[derive(Default)]
pub(super) struct ScheduleScratch {
    /// The desired-set prefix under the block budget, each entry carrying
    /// the GPU block need computed during the prefix scan (reused verbatim
    /// by the admission pass — nothing mutates in between).
    pub(super) desired: Vec<(ReqHandle, u64)>,
    /// GPU residents that fell out of the desired set.
    pub(super) evictees: Vec<ReqHandle>,
    /// Prefill batch being assembled.
    pub(super) prefill: Vec<ReqHandle>,
    /// Decode batch being assembled.
    pub(super) decode: Vec<ReqHandle>,
    /// Prompt lengths of the prefill batch.
    pub(super) prompts: Vec<u32>,
    /// Each candidate an admission pass visited, in key order, with what it
    /// made of it.
    pub(super) admitted: Vec<(ReqHandle, lifecycle::Admission)>,
    /// Non-members a steady run's planned launch admits into its batch.
    pub(super) joining: Vec<steady::Joiner>,
    /// Monitor-sweep buffer for in-shard stats consumers.
    pub(super) stats: Vec<InstanceStats>,
}

impl<'a> Shard<'a> {
    /// Builds shard `id` with `instances` instances (local ids `0..n`,
    /// global ids `offset..offset + n`) on the run's `clock`.
    pub(super) fn new(clock: &Clock<'a>, config: &'a SimConfig, id: u32, instances: usize) -> Self {
        let perf = config.perf_model();
        let geometry = config.geometry();
        let capacity = config.kv_capacity_bytes();
        let rt = (0..instances)
            .map(|i| InstanceRt {
                inst: Instance::new(i as u32, geometry, capacity, config.pcie),
                current_batch: Vec::new(),
                current_kind: IterationKind::Decode,
                dying_blocks: 0,
                cands: BTreeMap::new(),
                residents: Members::default(),
                monitor: InstanceMonitor::default(),
                steady: SteadyRun::default(),
            })
            .collect();
        let mut shard = Shard {
            id,
            offset: id * instances as u32,
            cross_escape_enabled: (config.shards > 1 || config.regions > 1)
                && matches!(config.policy, SchedPolicy::Pascal(c) if c.migration_enabled),
            trace: clock.trace(),
            config,
            policy: config.policy,
            perf,
            geometry,
            queue: clock.shard_queue(id),
            instances: rt,
            fabric: pascal_cluster::Fabric::new(instances, config.fabric),
            states: RequestSlab::new(),
            scratch: ScheduleScratch::default(),
            migration_ctl: MigrationController::new(config.predictive_migration),
            admission_ctl: AdmissionController::new(
                config.admission,
                capacity.map(|c| c * instances as u64),
            ),
            records: Vec::new(),
            predictor: config.predictor.map(PredictorKind::build),
            prediction_samples: Vec::new(),
            routed_arrivals: 0,
            cross_shard_in: 0,
            cross_region_in: 0,
            cross_escape_outbox: Vec::new(),
            member_mon: Vec::new(),
            estimates: EstimateTable::default(),
            health: vec![HealthState::Healthy; instances],
            drain_started: vec![None; instances],
            fleet: FleetOutcomes::default(),
            autoscaler: None,
            slo_tracker: config.alerts.clone().map(SloBurnTracker::new),
            alerts: Vec::new(),
            telemetry: clock.telemetry().clone(),
            work: Cell::new(WorkCounters::default()),
        };
        shard.init_fleet();
        // After the fleet spec armed (or not) the autoscaler — one of the
        // predicted-growth consumers.
        shard.estimates =
            EstimateTable::new(shard.wants_predicted_growth(), shard.predictor.as_deref());
        shard
    }

    /// Bumps this shard's work tally.
    #[inline]
    pub(super) fn count_work(&self, bump: impl FnOnce(&mut WorkCounters)) {
        let mut work = self.work.get();
        bump(&mut work);
        self.work.set(work);
    }

    /// The predictor's absolute estimate for `spec` (`None` without a
    /// predictor), counted as one estimate call.
    pub(super) fn estimate(&self, spec: &RequestSpec) -> Option<LengthEstimate> {
        let pred = self.predictor.as_ref()?;
        self.count_work(|w| w.predictor_estimates += 1);
        Some(pred.estimate(spec))
    }

    /// The predictor's remaining-service view of `handle` — output tokens
    /// it still has to generate — or `None` without a predictor or an
    /// absolute estimate. Counted as one estimate call.
    pub(super) fn predicted_remaining_tokens(&self, handle: ReqHandle) -> Option<f64> {
        let pred = self.predictor.as_ref()?;
        self.count_work(|w| w.predictor_estimates += 1);
        let st = &self.states[handle];
        pred.predicted_remaining_tokens(&st.spec, st.tokens_generated)
    }

    /// The global id of a local instance index — what records carry.
    pub(super) fn global_instance(&self, local: u32) -> u32 {
        self.offset + local
    }

    /// The region this shard belongs to (shard ids are region-major).
    pub(super) fn region(&self) -> u32 {
        self.id / self.config.shards as u32
    }

    /// Emits one trace event stamped with this shard's coordinates. A
    /// single branch when tracing is off; the event is built lazily.
    #[inline]
    pub(super) fn emit_trace(
        &self,
        at: SimTime,
        instance: Option<u32>,
        request: Option<RequestId>,
        kind: TraceEventKind,
    ) {
        self.telemetry.trace(|| TraceEvent {
            at,
            region: self.region(),
            shard: self.id,
            instance,
            request: request.map(|r| r.0),
            kind,
        });
    }

    /// This shard's row of the run summary.
    pub(super) fn shard_stats(&self) -> ShardStats {
        ShardStats {
            shard: self.id,
            instances: self.instances.len(),
            routed_arrivals: self.routed_arrivals,
            completed: self.records.len() as u64,
            peak_gpu_kv_bytes: self
                .instances
                .iter()
                .map(|i| i.inst.gpu.peak_used_blocks() * self.geometry.block_bytes())
                .sum(),
            migrations: self.migration_ctl.outcomes,
            admission: self.admission_ctl.counters,
            cross_shard_in: self.cross_shard_in,
            cross_region_in: self.cross_region_in,
            fleet: self.fleet,
        }
    }
}
