//! The cluster engine: N shards under one global clock, a cross-shard
//! router at the arrival boundary, and the inter-shard migration path.
//!
//! Every shard schedules on the run's one future-event list
//! ([`super::driver`]), and the run repeatedly fires the globally earliest
//! event. The interleaving is fully deterministic:
//!
//! * at equal timestamps, **arrivals fire before shard events** — exactly
//!   the order the pre-sharding engine produced, where arrival events were
//!   enqueued first and therefore carried the lowest sequence numbers;
//! * ties between shards break by **lowest shard id**, and one shard's
//!   ties by schedule order: the [`EventQueue`](pascal_sim::EventQueue)'s
//!   `(time, shard, sequence)` contract.
//!
//! With `shards == 1` the router degenerates to "shard 0" and the event
//! sequence — hence every output byte — matches the pre-sharding engine.
//!
//! Cross-shard migration: when a phase transition finds its home shard
//! saturated — every instance SLO-unhealthy, or none able to hold the
//! request's KV — the shard records an *escape candidate* instead of
//! acting locally (an intra-shard `MigrateTo` inside a fully unhealthy
//! shard is kept as the candidate's fallback). The cluster evaluates it
//! right after the triggering iteration — before the instance relaunches
//! — by ranking sibling shards ([`cross_shard_escape_target`]), picking a
//! landing instance with the destination shard's own Algorithm 2 ranking,
//! pricing the transfer at the two-tier [`Topology`]'s interconnect
//! (slower, so the predictive cost/benefit veto fires sooner than
//! intra-shard), and launching the KV over the contended inter-shard
//! link; every failure path executes the deferred intra-shard fallback.
//!
//! The [`Cluster`] is one region's worth of this machinery; the
//! single-region [`Engine`] drives it straight off the trace, while the
//! federated engine ([`super::federation`]) owns one `Cluster` per region
//! and resolves the two things a region cannot: escape candidates with no
//! in-region target (returned as [`ClusterSignal::Escalate`]) and WAN
//! transfer completions ([`ClusterSignal::CrossRegionArrived`]).

use pascal_cluster::{InstanceStats, KvLocation, PoolSnapshot, ReqHandle, Topology};
use pascal_metrics::{MigrationRecord, RegionStats};
use pascal_sched::{cross_shard_escape_target, MigrationCost, RouterPolicy, SchedPolicy};
use pascal_sim::SimTime;
use pascal_telemetry::{
    EscapeTier, SeriesRow, SeriesScope, TelemetryHandle, TraceEventKind, WorkCounters,
};
use pascal_workload::Trace;

use crate::config::SimConfig;

use super::driver::{Clock, EventDriver};
use super::steady::Step;
use super::{context_kv_bytes, EscapeCandidate, Event, Shard, SimOutput};

/// What firing one cluster event left for the caller to resolve. A
/// non-federated cluster always resolves everything itself and returns
/// [`ClusterSignal::Handled`].
pub(super) enum ClusterSignal {
    /// The event was fully handled inside the cluster.
    Handled,
    /// An iteration finished on `instance` of the event's shard and these
    /// escape candidates found no in-region target: the federation must
    /// resolve them (cross-region escape or intra-shard fallback) and then
    /// relaunch the instance — the same "before the relaunch" point where
    /// in-region escapes are evaluated.
    Escalate {
        instance: u32,
        candidates: Vec<EscapeCandidate>,
    },
    /// A cross-region transfer out of the event's shard cleared the WAN;
    /// the federation must free the source side and land the request in
    /// the destination region.
    CrossRegionArrived {
        req: ReqHandle,
        to_region: u32,
        to_shard: u32,
        to_instance: u32,
    },
}

/// One region's cluster of shards: the shard pool, its two-tier topology,
/// and the cross-shard router cursor.
pub(crate) struct Cluster<'a> {
    config: &'a SimConfig,
    pub(super) shards: Vec<Shard<'a>>,
    topology: Topology,
    /// Round-robin router state.
    router_cursor: usize,
    /// Whether a federation drives this cluster: escape candidates with no
    /// in-region target are escalated instead of falling back immediately.
    federated: bool,
    /// Telemetry sink shared with every shard — disabled it is a handful
    /// of `false` branches, so the hot path is unchanged.
    telemetry: TelemetryHandle,
}

impl<'a> Cluster<'a> {
    /// Builds a cluster of `shards` shards of `per_shard` instances each on
    /// the run's `clock`, with global shard ids starting at `first_shard`
    /// (0 for a single-region run, region-major in a federation).
    pub(super) fn new(
        config: &'a SimConfig,
        clock: &Clock<'a>,
        first_shard: u32,
        shards: usize,
        per_shard: usize,
        federated: bool,
    ) -> Self {
        Cluster {
            config,
            shards: (0..shards)
                .map(|s| Shard::new(clock, config, first_shard + s as u32, per_shard))
                .collect(),
            topology: Topology::two_tier(shards, config.fabric, config.interconnect),
            router_cursor: 0,
            federated,
            telemetry: clock.telemetry().clone(),
        }
    }

    /// Routes a trace arrival to a shard and delivers it — the
    /// single-region path. For load-aware routers the monitor sweep of the
    /// chosen shard is handed to the arrival handler so it is not repeated
    /// at the same timestamp; load-oblivious routing skips the sweep
    /// entirely.
    pub(super) fn route_arrival(&mut self, idx: usize, now: SimTime) {
        if self.shards.len() == 1 {
            self.shards[0].on_arrival(idx, now, None);
            return;
        }
        if !self.config.router.needs_pool_state() {
            let shard = RouterPolicy::rotate(self.shards.len(), &mut self.router_cursor);
            self.shards[shard].on_arrival(idx, now, None);
            return;
        }
        let mut all_stats: Vec<_> = self.shards.iter().map(|sh| sh.collect_stats(now)).collect();
        let pools: Vec<PoolSnapshot> = all_stats
            .iter()
            .map(|stats| PoolSnapshot::aggregate(stats))
            .collect();
        let shard = self.config.router.route(&pools, &mut self.router_cursor);
        self.shards[shard].on_arrival(idx, now, Some(all_stats.swap_remove(shard)));
    }

    /// Picks the shard an arrival would be routed to and returns its
    /// monitor snapshot — the federated path, where the admission decision
    /// (and possible spill to another region) happens *before* delivery.
    /// Advances the router cursor exactly like [`Cluster::route_arrival`].
    pub(super) fn pick_arrival_shard(&mut self, now: SimTime) -> (usize, Vec<InstanceStats>) {
        if self.shards.len() == 1 {
            return (0, self.shards[0].collect_stats(now));
        }
        if !self.config.router.needs_pool_state() {
            let shard = RouterPolicy::rotate(self.shards.len(), &mut self.router_cursor);
            return (shard, self.shards[shard].collect_stats(now));
        }
        let mut all_stats: Vec<_> = self.shards.iter().map(|sh| sh.collect_stats(now)).collect();
        let pools: Vec<PoolSnapshot> = all_stats
            .iter()
            .map(|stats| PoolSnapshot::aggregate(stats))
            .collect();
        let shard = self.config.router.route(&pools, &mut self.router_cursor);
        (shard, all_stats.swap_remove(shard))
    }

    /// One aggregate pool snapshot per shard — the view the cross-shard
    /// escape ranking (and, merged, the federation router) consumes.
    pub(super) fn shard_pools(&self, now: SimTime) -> Vec<PoolSnapshot> {
        self.shards
            .iter()
            .map(|sh| PoolSnapshot::aggregate(&sh.collect_stats(now)))
            .collect()
    }

    /// Routes an event shard `s` scheduled to its handler. An iteration
    /// end inside a steady run replays in closed form
    /// ([`Shard::steady_step`]), or handles its members' edges inside the
    /// run; any other takes the full path. Both of the latter are split so
    /// cross-shard escapes are evaluated after tokens (and phase
    /// transitions) land but before the instance relaunches — the same
    /// point in the event order where intra-shard migrations launch.
    pub(super) fn dispatch(&mut self, s: usize, ev: Event, now: SimTime) -> ClusterSignal {
        match ev {
            Event::IterationDone { instance } => {
                match self.shards[s].steady_step(instance, now) {
                    Step::Replayed => return ClusterSignal::Handled,
                    Step::Resuming => {}
                    Step::Full => self.shards[s].finish_iteration(instance, now),
                }
                let unresolved = self.drain_escapes(s, now);
                if !unresolved.is_empty() {
                    debug_assert!(self.federated, "non-federated escapes resolve in-cluster");
                    return ClusterSignal::Escalate {
                        instance,
                        candidates: unresolved,
                    };
                }
                self.shards[s].try_schedule(instance, now);
                ClusterSignal::Handled
            }
            Event::OffloadDone { req } => {
                self.shards[s].on_offload_done(req, now);
                ClusterSignal::Handled
            }
            Event::ReloadDone { req } => {
                self.shards[s].on_reload_done(req, now);
                ClusterSignal::Handled
            }
            Event::MigrationDone { req, to } => {
                self.shards[s].on_migration_done(req, to, now);
                ClusterSignal::Handled
            }
            Event::CrossShardDone {
                req,
                to_shard,
                to_instance,
            } => {
                self.on_cross_shard_done(s, req, to_shard as usize, to_instance, now);
                ClusterSignal::Handled
            }
            Event::CrossRegionDone {
                req,
                to_region,
                to_shard,
                to_instance,
            } => ClusterSignal::CrossRegionArrived {
                req,
                to_region,
                to_shard,
                to_instance,
            },
            // Fleet transitions mirror IterationDone's escape handling: a
            // drain queues its residents as cross-shard escape candidates,
            // which must be resolved (or escalated to the federation)
            // before the instance relaunches.
            Event::FleetTransition { instance, to } => {
                self.shards[s].apply_fleet_transition(instance, to, now);
                let unresolved = self.drain_escapes(s, now);
                if !unresolved.is_empty() {
                    debug_assert!(self.federated, "non-federated escapes resolve in-cluster");
                    return ClusterSignal::Escalate {
                        instance,
                        candidates: unresolved,
                    };
                }
                self.shards[s].try_schedule(instance, now);
                ClusterSignal::Handled
            }
            Event::AutoscaleTick => {
                let touched = self.shards[s].autoscale_tick(now);
                let unresolved = self.drain_escapes(s, now);
                if !unresolved.is_empty() {
                    debug_assert!(self.federated, "non-federated escapes resolve in-cluster");
                    return ClusterSignal::Escalate {
                        instance: touched.unwrap_or(0),
                        candidates: unresolved,
                    };
                }
                ClusterSignal::Handled
            }
        }
    }

    /// Evaluates the escape candidates shard `s` queued during the
    /// iteration that just finished, returning the ones no sibling shard
    /// could take (always empty in a non-federated cluster, where they
    /// fall back immediately).
    fn drain_escapes(&mut self, s: usize, now: SimTime) -> Vec<EscapeCandidate> {
        if self.shards.len() == 1 && !self.federated {
            debug_assert!(self.shards[s].cross_escape_outbox.is_empty());
            return Vec::new();
        }
        let candidates = std::mem::take(&mut self.shards[s].cross_escape_outbox);
        let mut unresolved = Vec::new();
        for candidate in candidates {
            if let Some(c) = self.consider_cross_escape(s, candidate, now) {
                unresolved.push(c);
            }
        }
        unresolved
    }

    /// The escape could not (or should not) cross shards: execute the
    /// intra-shard destination Algorithm 2 had picked at the transition,
    /// if there was one. `after_veto` attributes the fallback to the
    /// cost/benefit veto at the pricier tier (vs no-target/abort).
    pub(super) fn escape_fallback(
        &mut self,
        from: usize,
        candidate: EscapeCandidate,
        now: SimTime,
        after_veto: bool,
    ) {
        if let Some(dest) = candidate.intra_fallback {
            let outcomes = &mut self.shards[from].migration_ctl.outcomes;
            outcomes.cross_shard_fallbacks += 1;
            if after_veto {
                outcomes.cross_shard_fallbacks_after_veto += 1;
            }
            let sh = &self.shards[from];
            sh.emit_trace(
                now,
                Some(sh.offset + dest),
                Some(candidate.req),
                TraceEventKind::EscapeFallback { after_veto },
            );
            self.shards[from].launch_deferred_migration(candidate.handle, dest, now);
        }
    }

    /// One cross-shard migration decision: sibling-shard ranking, landing
    /// instance, interconnect-priced cost/benefit veto, reservation,
    /// launch. Every failure path falls back to the candidate's deferred
    /// intra-shard move (when it has one) — except "no sibling shard can
    /// take it" under a federation, which returns the candidate for
    /// cross-region escalation.
    fn consider_cross_escape(
        &mut self,
        from: usize,
        candidate: EscapeCandidate,
        now: SimTime,
    ) -> Option<EscapeCandidate> {
        let id = candidate.req;
        let handle = candidate.handle;
        // The escape was queued at the phase transition; the KV must still
        // be resident and idle (nothing reschedules between the transition
        // and this drain, but stay defensive — a stale candidate is a
        // no-op, never a crash). The id check guards against the slab slot
        // having been reused by a different request.
        let st = self.shards[from].states.get(handle)?;
        if st.spec.id != id || st.running || st.kv_location != KvLocation::Gpu {
            return None;
        }

        // A region's only shard has no siblings to rank: the candidate
        // goes straight to the federation.
        if self.shards.len() == 1 {
            debug_assert!(self.federated);
            return Some(candidate);
        }

        let pools = self.shard_pools(now);
        let Some(dest) = cross_shard_escape_target(&pools, from) else {
            if self.federated {
                return Some(candidate);
            }
            self.escape_fallback(from, candidate, now, false);
            return None;
        };
        self.shards[from]
            .migration_ctl
            .outcomes
            .cross_shard_considered += 1;
        let from_global = {
            let sh = &self.shards[from];
            sh.offset + sh.states[handle].instance
        };
        self.shards[from].emit_trace(
            now,
            Some(from_global),
            Some(id),
            TraceEventKind::MigrationConsidered {
                tier: EscapeTier::CrossShard,
            },
        );

        let (needed, bytes, predicted_remaining) = {
            let sh = &self.shards[from];
            let st = &sh.states[handle];
            (
                sh.geometry.blocks_for_tokens(st.tokens_needed_next()),
                context_kv_bytes(&sh.geometry, st),
                sh.predicted_remaining_tokens(handle),
            )
        };

        // Landing instance by the destination shard's own Algorithm 2
        // ranking (adaptive: must fit right now).
        let dest_stats = self.shards[dest].collect_stats(now);
        let policy = self.shards[from].policy;
        let Some(to_local) = policy.cross_shard_instance(needed, &dest_stats) else {
            self.shards[from].migration_ctl.outcomes.cross_shard_aborted += 1;
            self.shards[from].emit_trace(
                now,
                Some(from_global),
                Some(id),
                TraceEventKind::MigrationAborted {
                    tier: EscapeTier::CrossShard,
                },
            );
            self.escape_fallback(from, candidate, now, false);
            return None;
        };

        // The cost/benefit test at the interconnect's (higher) price. A
        // veto here only rules out the expensive tier: the deferred
        // intra-shard move (which passed the cheaper intra-priced test at
        // the transition) still executes.
        let cost = self.shards[from]
            .migration_ctl
            .predictive()
            .filter(|_| self.shards[from].predictor.is_some())
            .map(|p| MigrationCost {
                transfer_time: self.topology.cross_transfer_time(bytes),
                predicted_remaining_service: predicted_remaining
                    .map(|tokens| self.config.target_tpot.mul_f64(tokens)),
                min_benefit_ratio: p.min_benefit_ratio,
            });
        if cost.is_some_and(|c| c.vetoes()) {
            self.shards[from]
                .migration_ctl
                .outcomes
                .cross_shard_vetoed_by_cost += 1;
            self.shards[from].emit_trace(
                now,
                Some(from_global),
                Some(id),
                TraceEventKind::MigrationVetoed {
                    tier: EscapeTier::CrossShard,
                },
            );
            self.escape_fallback(from, candidate, now, true);
            return None;
        }

        // Adaptive reservation on the destination (race-free Fig. 7 form,
        // cross-shard edition), recorded in the destination shard's ledger
        // so landing consumes it from the shard that holds the blocks.
        // NonAdaptive launches blindly and may land in the destination's
        // CPU pool.
        if self.shards[dest].instances[to_local as usize]
            .inst
            .gpu
            .try_alloc(needed)
        {
            self.shards[dest].migration_ctl.reserve(id, needed);
        } else if policy.adaptive_migration() {
            self.shards[from].migration_ctl.outcomes.cross_shard_aborted += 1;
            self.shards[from].emit_trace(
                now,
                Some(from_global),
                Some(id),
                TraceEventKind::MigrationAborted {
                    tier: EscapeTier::CrossShard,
                },
            );
            self.escape_fallback(from, candidate, now, false);
            return None;
        }

        let (_, finish) = self.topology.cross_migrate(now, from, dest, bytes);
        let to_global = self.shards[dest].global_instance(to_local);
        self.shards[from].emit_trace(
            now,
            Some(from_global),
            Some(id),
            TraceEventKind::MigrationLaunched {
                tier: EscapeTier::CrossShard,
                to_shard: self.shards[dest].id,
                to_instance: to_global,
                bytes,
            },
        );
        {
            let sh = &mut self.shards[from];
            sh.set_kv_location(handle, KvLocation::Migrating);
            let st = &mut sh.states[handle];
            st.resident_since = None;
            let from_local = st.instance;
            let from_global = sh.offset + from_local;
            let held = st.held_gpu_blocks;
            st.migration = Some(MigrationRecord {
                from_instance: from_global,
                to_instance: to_global,
                started: now,
                finished: finish,
                bytes,
                stall: None,
                predicted_remaining_tokens: predicted_remaining,
                actual_remaining_tokens: st.spec.output_tokens() - st.tokens_generated,
            });
            sh.instances[from_local as usize].dying_blocks += held;
            sh.migration_ctl.outcomes.launched += 1;
            sh.migration_ctl.outcomes.bytes_moved += bytes;
            sh.migration_ctl.outcomes.cross_shard_launched += 1;
            sh.migration_ctl.outcomes.cross_shard_bytes_moved += bytes;
            sh.queue.schedule(
                finish,
                Event::CrossShardDone {
                    req: handle,
                    to_shard: dest as u32,
                    to_instance: to_local,
                },
            );
        }
        None
    }

    /// A cross-shard transfer cleared the interconnect: free the source
    /// side, hand the request state to the destination shard, land the KV.
    fn on_cross_shard_done(
        &mut self,
        from: usize,
        req: ReqHandle,
        to_shard: usize,
        to_local: u32,
        now: SimTime,
    ) {
        let (mut st, from_local) = self.shards[from].depart_migrated(req);
        let sh = &mut self.shards[to_shard];
        st.instances_visited.push(sh.global_instance(to_local));
        let landed = sh.states.insert(st);
        sh.add_member(landed, to_local);
        sh.cross_shard_in += 1;
        // The landing tail — reservation consume / allocate / CPU-pool
        // fallback — is the same mechanism as an intra-shard migration,
        // applied on the destination shard (whose ledger holds the
        // reservation made at launch).
        sh.land_migration(landed, to_local, now);
        // A destination that fail-stopped while the transfer was in flight
        // strands the request — after the landing's normal accounting, so
        // the pool books stay auditable through the outage.
        if sh.health[to_local as usize] == crate::fleet::HealthState::Down {
            sh.strand_request(landed, now);
        }
        // The source just lost a member; a draining source may now be empty.
        self.shards[from].check_drain_complete(from_local, now);
        self.shards[from].try_schedule(from_local, now);
        self.shards[to_shard].try_schedule(to_local, now);
    }

    /// Pushes one [`SeriesRow`] per shard plus one region-scope aggregate
    /// onto the telemetry buffer — the state of the world at `at`, sampled
    /// between events (the engine state is piecewise-constant, so a sample
    /// strictly before the next event reflects everything up to `at`).
    /// `wan_busy_s` is the region's WAN port horizon; `None` outside a
    /// federation.
    pub(super) fn sample_series(&self, at: SimTime, wan_busy_s: Option<f64>) {
        let mut agg = SeriesRow {
            t: at,
            scope: SeriesScope::Region,
            region: self.shards[0].region(),
            shard: None,
            queue_depth: 0,
            active: 0,
            reasoning: 0,
            answering: 0,
            kv_used_bytes: 0,
            kv_capacity_bytes: 0,
            admission_headroom_bytes: None,
            predictor_mean_abs_error: None,
            wan_busy_s,
            slo_burn: None,
        };
        let mut err_sum = 0.0;
        let mut err_n = 0u64;
        let mut slo_violations = 0u64;
        let mut slo_total = 0u64;
        let mut slo_budget = None;
        for sh in &self.shards {
            let row = sh.series_row(at);
            agg.queue_depth += row.queue_depth;
            agg.active += row.active;
            agg.reasoning += row.reasoning;
            agg.answering += row.answering;
            agg.kv_used_bytes += row.kv_used_bytes;
            agg.kv_capacity_bytes += row.kv_capacity_bytes;
            if let Some(h) = row.admission_headroom_bytes {
                agg.admission_headroom_bytes = Some(agg.admission_headroom_bytes.unwrap_or(0) + h);
            }
            let (abs_err, n) = sh.prediction_abs_error();
            err_sum += abs_err;
            err_n += n;
            // Region burn aggregates the raw window counts — not the
            // per-shard rates — so one busy shard cannot be diluted by
            // averaging against idle siblings' undefined gauges.
            if let Some(tracker) = &sh.slo_tracker {
                let (v, t) = tracker.window_counts(at);
                slo_violations += v;
                slo_total += t;
                slo_budget = Some(tracker.spec().budget);
            }
            self.telemetry.push_series(row);
        }
        if err_n > 0 {
            agg.predictor_mean_abs_error = Some(err_sum / err_n as f64);
        }
        if let Some(budget) = slo_budget {
            if slo_total > 0 {
                agg.slo_burn = Some(pascal_telemetry::alert::burn_rate(
                    slo_violations,
                    slo_total,
                    budget,
                ));
            }
        }
        self.telemetry.push_series(agg);
    }
}

/// Panics unless every single request's worst-case KV footprint fits one
/// instance — such a request could never be scheduled anywhere.
pub(super) fn validate_trace_fits(trace: &Trace, config: &SimConfig) {
    let geometry = config.geometry();
    if let Some(cap) = config.kv_capacity_bytes() {
        let cap_blocks = geometry.blocks_in(cap);
        for r in trace.requests() {
            let worst = geometry.blocks_for_tokens(r.final_context_tokens() + 1);
            assert!(
                worst <= cap_blocks,
                "{} needs {worst} KV blocks but an instance only has {cap_blocks}; \
                 raise capacity or shrink the request",
                r.id
            );
        }
    }
}

/// Panics if any shard drained with live requests, leaked reservations or
/// KV blocks still held: with every request gone, every instance's GPU and
/// CPU pool must be empty and nothing may be on its way out. O(instances),
/// checked in release builds too.
pub(super) fn assert_drained(shards: &[Shard<'_>]) {
    for sh in shards {
        assert!(
            sh.states.is_empty(),
            "shard {} drained with {} unfinished requests (deadlock)",
            sh.id,
            sh.states.len()
        );
    }
    for sh in shards {
        assert!(
            sh.migration_ctl.reservations.is_empty(),
            "shard {} drained with leaked migration reservations",
            sh.id
        );
        for (i, rt) in sh.instances.iter().enumerate() {
            let (gpu, cpu) = (rt.inst.gpu.used_blocks(), rt.inst.cpu.used_blocks());
            assert!(
                gpu == 0 && cpu == 0 && rt.dying_blocks == 0,
                "shard {} instance {i} drained holding KV blocks: {gpu} GPU, {cpu} CPU, \
                 {} dying",
                sh.id,
                rt.dying_blocks
            );
            assert!(
                !rt.steady.is_open(),
                "shard {} instance {i} drained with a steady run open",
                sh.id
            );
        }
    }
}

/// The deterministic work counts of `shards`, summed.
pub(super) fn total_work(shards: &[Shard<'_>]) -> WorkCounters {
    let mut total = WorkCounters::default();
    for sh in shards {
        total.absorb(&sh.work.get());
    }
    total
}

/// Collapses the drained shards into a [`SimOutput`] — the shared tail of
/// the single-region and federated engines. `region_stats` starts empty;
/// the caller fills it.
///
/// # Panics
///
/// Panics unless the run conserved its escapes (every considered escape
/// launched, vetoed or aborted, per shard and in total) and its requests
/// (every arrival completed, stranded or rejected). Both checks are
/// O(shards) and run in release builds too.
pub(super) fn assemble_output(shards: Vec<Shard<'_>>) -> SimOutput {
    // Only PASCAL consumes predictions (demotion, placement); under
    // the baselines a predictor is purely observational — calibration
    // samples are still logged, but the run's behavior is identical to
    // the plain policy, and the name must say so. Active controllers
    // tag the name so paired comparisons stay legible.
    let lead = &shards[0];
    let mut policy_name = match (&lead.predictor, &lead.policy) {
        (Some(p), SchedPolicy::Pascal(_)) => {
            if lead.migration_ctl.predictive().is_some() {
                format!(
                    "{}(Predictive-{}, CostAwareMigration)",
                    lead.policy.name(),
                    p.name()
                )
            } else {
                format!("{}(Predictive-{})", lead.policy.name(), p.name())
            }
        }
        _ => lead.policy.name().to_owned(),
    };
    if lead.admission_ctl.enabled() {
        policy_name.push_str("+PredictiveAdmission");
    }

    let shard_stats: Vec<_> = shards.iter().map(Shard::shard_stats).collect();
    let mut migration_outcomes = pascal_metrics::MigrationOutcomes::default();
    let mut admission = pascal_metrics::AdmissionCounters::default();
    let mut fleet = pascal_metrics::FleetOutcomes::default();
    for row in &shard_stats {
        row.migrations.assert_escape_conservation();
        migration_outcomes.absorb(&row.migrations);
        admission.absorb(&row.admission);
        fleet.absorb(&row.fleet);
    }
    migration_outcomes.assert_escape_conservation();
    let arrivals = lead.trace.requests().len() as u64;
    let completed: u64 = shard_stats.iter().map(|row| row.completed).sum();
    assert_eq!(
        completed + fleet.stranded + admission.rejected,
        arrivals,
        "requests must be conserved: {completed} completed + {} stranded + {} rejected \
         != {arrivals} arrivals",
        fleet.stranded,
        admission.rejected
    );

    // Request ids are unique per record and per prediction sample, so the
    // unstable sorts below give the stable order without scratch memory.
    let mut records = Vec::with_capacity(shards.iter().map(|sh| sh.records.len()).sum());
    let mut peak_gpu_kv_bytes = Vec::new();
    let mut predictions =
        Vec::with_capacity(shards.iter().map(|sh| sh.prediction_samples.len()).sum());
    let mut rejections = Vec::new();
    let mut alerts = Vec::new();
    for sh in shards {
        records.extend(sh.records);
        peak_gpu_kv_bytes.extend(
            sh.instances
                .iter()
                .map(|i| i.inst.gpu.peak_used_blocks() * sh.geometry.block_bytes()),
        );
        predictions.extend(sh.prediction_samples);
        rejections.extend(sh.admission_ctl.rejections);
        alerts.extend(sh.alerts);
    }
    records.sort_unstable_by_key(|r| r.spec.id);
    predictions.sort_unstable_by_key(|p| p.id);
    debug_assert!(records.windows(2).all(|w| w[0].spec.id < w[1].spec.id));
    debug_assert!(predictions.windows(2).all(|w| w[0].id < w[1].id));
    rejections.sort_by_key(|r| (r.at, r.id));
    alerts.sort_by_key(|a| (a.at, a.shard, a.rule));
    let makespan = records
        .iter()
        .map(|r| r.completion)
        .max()
        .unwrap_or(SimTime::ZERO);

    SimOutput {
        records,
        peak_gpu_kv_bytes,
        makespan,
        policy_name,
        predictions,
        migration_outcomes,
        admission,
        rejections,
        fleet,
        shard_stats,
        alerts,
        region_stats: Vec::new(),
        telemetry: None,
    }
}

/// The single-region engine: the cluster driven straight off the trace.
pub(crate) struct Engine<'a> {
    config: &'a SimConfig,
    clock: Clock<'a>,
    cluster: Cluster<'a>,
}

impl<'a> Engine<'a> {
    /// An engine reporting to a handle built for `config.telemetry`.
    #[cfg(test)]
    pub(crate) fn new(trace: &'a Trace, config: &'a SimConfig) -> Self {
        Engine::with_telemetry(trace, config, TelemetryHandle::new(&config.telemetry))
    }

    /// An engine reporting to `telemetry`, a handle built for
    /// `config.telemetry`.
    pub(crate) fn with_telemetry(
        trace: &'a Trace,
        config: &'a SimConfig,
        telemetry: TelemetryHandle,
    ) -> Self {
        config.validate();
        validate_trace_fits(trace, config);

        let clock = Clock::new(trace, telemetry);
        let per_shard = config.num_instances / config.shards;
        let cluster = Cluster::new(config, &clock, 0, config.shards, per_shard, false);
        Engine {
            config,
            clock,
            cluster,
        }
    }

    /// Read-only view of the shards: the engine unit tests audit pool
    /// accounting through it.
    #[cfg(test)]
    pub(super) fn shards(&self) -> &[Shard<'a>] {
        &self.cluster.shards
    }

    pub(crate) fn run(mut self) -> SimOutput {
        while self.step() {}
        assert_drained(&self.cluster.shards);
        self.clock.profile_work(&self.cluster.shards);
        let config = self.config;
        let mut out = assemble_output(self.cluster.shards);
        out.telemetry = self.clock.telemetry().finish();
        // The whole cluster is one region at the federation's level of
        // description: all arrivals originate and are served here.
        let routed: u64 = out.shard_stats.iter().map(|s| s.routed_arrivals).sum();
        out.region_stats = vec![RegionStats {
            region: 0,
            shards: config.shards,
            instances: config.num_instances,
            origin_arrivals: routed,
            routed_arrivals: routed,
            nonlocal_arrivals: 0,
            spill_out: 0,
            spill_in: 0,
            completed: out.records.len() as u64,
            cross_region_out: 0,
            cross_region_in: 0,
            admission: out.admission,
        }];
        out
    }
}

impl<'a> EventDriver<'a> for Engine<'a> {
    fn clock(&mut self) -> &mut Clock<'a> {
        &mut self.clock
    }

    fn arrive(&mut self, idx: usize, at: SimTime) {
        self.cluster.route_arrival(idx, at);
    }

    fn fire(&mut self, shard: u32, ev: Event, now: SimTime) {
        let signal = self.cluster.dispatch(shard as usize, ev, now);
        debug_assert!(
            matches!(signal, ClusterSignal::Handled),
            "single-region clusters resolve every event internally"
        );
    }

    fn sample(&mut self, at: SimTime) {
        self.cluster.sample_series(at, None);
    }
}
