//! The engine: every shard of every region under the run's one clock, and
//! the two tiers above the shards — the interconnect between a region's
//! shards and the WAN between regions.
//!
//! Shards live in one flat, region-major array indexed by the global shard
//! id the event queue stamps ([`super::driver`]): region `r` is the run
//! `r · S .. (r + 1) · S` of it plus a small [`Region`] record. A
//! one-region run is simply the case `regions == 1`; only what exists
//! between regions (the region router's sweep, spill, the WAN gauge) is
//! skipped there, so the event sequence — hence every output byte — does
//! not depend on how the one region was asked for.
//!
//! The run repeatedly fires the globally earliest arrival or event.
//! Arrivals win timestamp ties, exactly the order the pre-sharding engine
//! produced, and shard events tie-break by shard id, then schedule order
//! (the [`EventQueue`](pascal_sim::EventQueue)'s `(time, shard, sequence)`
//! contract) — so a one-shard run replays the pre-sharding engine byte for
//! byte. Above the shards sit two mechanisms, each written once for both
//! upper tiers, and the landing, written once for all three:
//!
//! * **arrival routing** ([`Engine::arrive`]): the federation policy picks
//!   the region (every arrival carries an `origin_region` tag), the
//!   region's shard router picks the shard, and the shard's admission
//!   controller is probed; a would-be rejection tries the remote regions
//!   in [`spill_order`] before it is committed — shedding load to another
//!   region beats shedding it to the floor;
//! * **escapes** ([`Engine::consider_escape`]): a phase transition (or a
//!   drain) that finds its shard saturated queues an escape candidate
//!   instead of acting locally. Right after the triggering event, before
//!   the instance relaunches, every candidate tries the shard tier — a
//!   sibling shard over the region's interconnect — and the ones whose
//!   region has no healthy sibling then try the region tier — a remote
//!   region over the WAN. Destination ranking ([`escape_target`]) and
//!   landing instance (the destination shard's own Algorithm 2 ranking)
//!   are the escape's own; the cost/benefit veto priced on the tier's
//!   link, the tally, the reservation and the launch are the migration
//!   path an intra-shard move takes ([`migration`](super::migration)).
//!   Every failure executes the candidate's deferred intra-shard move;
//! * **landing** ([`Engine::land_migration`]): one queue event carries the
//!   destination's global shard id, and the tier follows from whether that
//!   shard is the source, in the source's region, or in another.

use std::ops::Range;

use pascal_cluster::{Fabric, InstanceStats, KvLocation, PoolSnapshot, ReqHandle};
use pascal_federation::{spill_order, FederationSpec};
use pascal_metrics::{AdmissionCounters, MigrationOutcomes, RegionStats};
use pascal_sched::{best_escape_shard, escape_target, RouterPolicy, SchedPolicy};
use pascal_sim::SimTime;
use pascal_telemetry::{
    EscapeTier, ProfiledEvent, SeriesRow, SeriesScope, TelemetryHandle, TraceEventKind,
    WorkCounters,
};
use pascal_workload::{RequestSpec, Trace};

use crate::config::SimConfig;
use crate::fleet::HealthState;

use super::admission::AdmissionProbe;
use super::driver::{Clock, Next};
use super::migration::Verdict;
use super::steady::Step;
use super::{context_kv_bytes, tier_between, EscapeCandidate, Event, Shard, SimOutput};

/// One region: the interconnect between its shards, its shard router's
/// cursor, and the arrival tallies of the federation boundary.
struct Region {
    /// One full-duplex port per shard of the region: a cross-shard escape
    /// holds the source's egress and the destination's ingress.
    interconnect: Fabric,
    /// Round-robin shard-router state.
    router_cursor: usize,
    origin_arrivals: u64,
    nonlocal_arrivals: u64,
    spill_in: u64,
    spill_out: u64,
}

/// The run: its clock, every shard, one record per region, and the WAN.
pub(crate) struct Engine<'a> {
    config: &'a SimConfig,
    clock: Clock<'a>,
    /// Indexed by global shard id: region `r` holds `r · S .. (r + 1) · S`.
    shards: Vec<Shard<'a>>,
    regions: Vec<Region>,
    /// One full-duplex port per region: a cross-region escape holds the
    /// source region's egress and the destination's ingress.
    wan: Fabric,
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

        // The even partition itself (and its divisibility rule) lives in
        // pascal-federation; the engine just instantiates it.
        let spec = FederationSpec::uniform(
            config.regions,
            config.shards,
            config.num_instances,
            config.wan,
        );
        let clock = Clock::new(trace, telemetry);
        let shards = spec
            .regions
            .iter()
            .flat_map(|region| (0..region.shards).map(|_| region.instances_per_shard))
            .enumerate()
            .map(|(id, instances)| Shard::new(&clock, config, id as u32, instances))
            .collect();
        let regions = spec
            .regions
            .iter()
            .map(|region| Region {
                interconnect: Fabric::new(region.shards, config.interconnect),
                router_cursor: 0,
                origin_arrivals: 0,
                nonlocal_arrivals: 0,
                spill_in: 0,
                spill_out: 0,
            })
            .collect();
        Engine {
            config,
            clock,
            shards,
            regions,
            wan: Fabric::new(spec.regions.len(), spec.wan.link()),
        }
    }

    /// Read-only view of the shards: the engine unit tests audit pool
    /// accounting through it.
    #[cfg(test)]
    pub(super) fn shards(&self) -> &[Shard<'a>] {
        &self.shards
    }

    /// The region global shard `s` belongs to.
    fn region_of(&self, s: usize) -> usize {
        s / self.config.shards
    }

    /// The global ids of region `r`'s shards.
    fn region_shards(&self, r: usize) -> Range<usize> {
        r * self.config.shards..(r + 1) * self.config.shards
    }

    /// The monitor sweep of each shard in `shards`, in order.
    fn sweep(&self, shards: Range<usize>, now: SimTime) -> Vec<Vec<InstanceStats>> {
        self.shards[shards]
            .iter()
            .map(|sh| sh.collect_stats(now))
            .collect()
    }

    /// One aggregate pool snapshot per region — the view the federation
    /// router and the spill ranking consume.
    fn region_pools(&self, now: SimTime) -> Vec<PoolSnapshot> {
        region_pools_of(&self.sweep(0..self.shards.len(), now), self.config.shards)
    }

    pub(crate) fn run(mut self) -> SimOutput {
        while self.step() {}
        let region_stats = (0..self.regions.len())
            .map(|r| self.region_stats(r))
            .collect();
        assert_drained(&self.shards);
        self.clock.profile_work(&self.shards);
        let mut out = assemble_output(self.shards);
        out.region_stats = region_stats;
        out.telemetry = self.clock.telemetry().finish();
        out
    }

    /// Fires the globally next arrival or event, after the series samples
    /// due strictly before it (the engine state is piecewise-constant
    /// between events, so a row at time `s` reflects every event with
    /// timestamp `<= s`). Returns `false` once everything has drained.
    pub(super) fn step(&mut self) -> bool {
        let Some(next) = self.clock.next() else {
            return false;
        };
        while let Some(at) = self.clock.sample_due(next.time()) {
            self.sample_series(at);
        }
        let t0 = self.clock.telemetry().profile_timer();
        let kind = match next {
            Next::Arrival { idx, at } => {
                self.arrive(idx, at);
                ProfiledEvent::Arrival
            }
            Next::Event { now, shard, ev } => {
                let kind = ev.profiled(shard, self.config.shards as u32);
                self.fire(shard as usize, ev, now);
                kind
            }
        };
        self.clock.telemetry().profile_record(kind, t0);
        true
    }

    /// Hands `ev`, scheduled by shard `s`, to its handler. An iteration
    /// end inside a steady run replays in closed form
    /// ([`Shard::steady_step`]) or handles its members' edges inside the
    /// run; any other takes the full path. Iteration ends, fleet
    /// transitions and autoscale ticks resolve the escapes they queued
    /// after tokens (and phase transitions) land but before the instance
    /// relaunches — the point in the event order where intra-shard
    /// migrations launch.
    fn fire(&mut self, s: usize, ev: Event, now: SimTime) {
        let relaunch = match ev {
            Event::IterationDone { instance } => {
                match self.shards[s].steady_step(instance, now) {
                    Step::Replayed => return,
                    Step::Resuming => {}
                    Step::Full => self.shards[s].finish_iteration(instance, now),
                }
                Some(instance)
            }
            Event::FleetTransition { instance, to } => {
                self.shards[s].apply_fleet_transition(instance, to, now);
                Some(instance)
            }
            // A scale-down drains an instance; its residents escape like
            // a drain's, and the drained instance reschedules.
            Event::AutoscaleTick => self.shards[s].autoscale_tick(now),
            Event::OffloadDone { req } => return self.shards[s].on_offload_done(req, now),
            Event::ReloadDone { req } => return self.shards[s].on_reload_done(req, now),
            Event::MigrationDone {
                req,
                to_shard,
                to_instance,
            } => return self.land_migration(s, req, to_shard as usize, to_instance, now),
        };
        self.resolve_escapes(s, now);
        if let Some(instance) = relaunch {
            self.shards[s].try_schedule(instance, now);
        }
    }

    // ----- arrivals -------------------------------------------------------

    /// Routes trace request `idx`: the federation policy picks the region
    /// (between regions only), the region's shard router picks the shard,
    /// the shard's admission controller is probed — and a would-be
    /// rejection tries the remote regions in spill order before it is
    /// committed at the home shard.
    fn arrive(&mut self, idx: usize, now: SimTime) {
        let spec = self.clock.trace().requests()[idx].clone();
        // Traces built without region tags (or with more regions than the
        // deployment has) clamp into range rather than crash — origin is
        // advisory metadata, not an engine invariant.
        let origin = (spec.origin_region as usize).min(self.regions.len() - 1);
        self.regions[origin].origin_arrivals += 1;
        let federated = self.regions.len() > 1;

        // The routing sweep is reused by the spill ranking below: nothing
        // mutates between the two reads at the same timestamp, and the
        // spill path fires exactly on overloaded arrivals — the worst
        // moment to pay a second full monitor sweep.
        let mut pools = None;
        let home = if federated && self.config.fed_router.needs_pool_state() {
            let swept = self.region_pools(now);
            let home = self.config.fed_router.route(origin, &swept);
            pools = Some(swept);
            home
        } else {
            origin
        };

        let (shard, stats) = self.route_in_region(home, now);
        let probe = self.shards[shard].admission_probe(&spec, &stats);
        if probe == AdmissionProbe::Admit {
            return self.deliver(shard, spec, stats, origin, now);
        }
        self.shards[shard].scratch.stats = stats;
        if federated {
            // Region-aware admission: spill to a remote region whose
            // budget still has room before turning the user away.
            let pools = pools.unwrap_or_else(|| self.region_pools(now));
            for remote in spill_order(&pools, home) {
                let (s, stats) = self.route_in_region(remote, now);
                if self.shards[s].admission_probe(&spec, &stats) == AdmissionProbe::Admit {
                    self.regions[home].spill_out += 1;
                    self.regions[remote].spill_in += 1;
                    // The spill is bookkept at the home shard the arrival
                    // was routed to; the landing shard counts the
                    // admission itself.
                    let sh = &mut self.shards[shard];
                    sh.admission_ctl.counters.spilled += 1;
                    sh.emit_trace(
                        now,
                        None,
                        Some(spec.id),
                        TraceEventKind::AdmissionSpilled {
                            to_region: remote as u32,
                        },
                    );
                    return self.deliver(s, spec, stats, origin, now);
                }
                self.shards[s].scratch.stats = stats;
            }
        }
        // Every region's budget is exhausted: the home shard owns the
        // rejection, with its own projection in the record.
        let sh = &mut self.shards[shard];
        sh.routed_arrivals += 1;
        sh.admission_commit_reject(&spec, probe, now);
    }

    /// Region `r`'s shard router: the global id of the shard an arrival
    /// goes to and that shard's monitor sweep at `now`, which the caller
    /// hands to the shard's scratch buffer when done. A load-aware router
    /// sweeps every shard of the region and keeps the chosen one's rows;
    /// otherwise only the chosen shard is swept, into its scratch buffer.
    fn route_in_region(&mut self, r: usize, now: SimTime) -> (usize, Vec<InstanceStats>) {
        let shards = self.region_shards(r);
        let router = self.config.router;
        let s = if shards.len() == 1 {
            shards.start
        } else if !router.needs_pool_state() {
            shards.start + RouterPolicy::rotate(shards.len(), &mut self.regions[r].router_cursor)
        } else {
            let mut swept = self.sweep(shards.clone(), now);
            let local = router.route(&pools_of(&swept), &mut self.regions[r].router_cursor);
            return (shards.start + local, swept.swap_remove(local));
        };
        let mut stats = std::mem::take(&mut self.shards[s].scratch.stats);
        self.shards[s].collect_stats_into(now, &mut stats);
        (s, stats)
    }

    /// Delivers an admitted arrival to shard `s`, placed on the monitor
    /// sweep it was admitted on (handed back to the shard's scratch
    /// buffer afterwards).
    fn deliver(
        &mut self,
        s: usize,
        spec: RequestSpec,
        stats: Vec<InstanceStats>,
        origin: usize,
        now: SimTime,
    ) {
        let region = self.region_of(s);
        if region != origin {
            self.regions[region].nonlocal_arrivals += 1;
        }
        let sh = &mut self.shards[s];
        sh.routed_arrivals += 1;
        sh.admission_commit_admit();
        sh.place_arrival(spec, &stats, now);
        sh.scratch.stats = stats;
    }

    // ----- escapes --------------------------------------------------------

    /// Resolves the escape candidates shard `s` queued during the event
    /// just handled: every candidate tries the shard tier first, in queue
    /// order; only then do the ones it escalated try the region tier.
    fn resolve_escapes(&mut self, s: usize, now: SimTime) {
        let candidates = std::mem::take(&mut self.shards[s].cross_escape_outbox);
        let escalated: Vec<EscapeCandidate> = candidates
            .into_iter()
            .filter_map(|c| self.consider_escape(EscapeTier::CrossShard, s, c, now))
            .collect();
        for candidate in escalated {
            let none = self.consider_escape(EscapeTier::CrossRegion, s, candidate, now);
            debug_assert!(none.is_none(), "the region tier is the top one");
        }
    }

    /// One escape decision at `tier` for a candidate shard `from` queued:
    /// staleness check, destination, landing instance, the cost/benefit
    /// veto priced on the tier's link, reservation, launch. Every failure
    /// executes the candidate's deferred intra-shard move — except a shard
    /// tier with no target in a multi-region run, which returns the
    /// candidate for the region tier.
    fn consider_escape(
        &mut self,
        tier: EscapeTier,
        from: usize,
        candidate: EscapeCandidate,
        now: SimTime,
    ) -> Option<EscapeCandidate> {
        let (id, handle) = (candidate.req, candidate.handle);
        // The escape was queued at the phase transition; the KV must still
        // be resident and idle (nothing reschedules between the transition
        // and this drain, but stay defensive — a stale candidate is a
        // no-op, never a crash). The id check guards against the slab slot
        // having been reused by a different request.
        let st = self.shards[from].states.get(handle)?;
        if st.spec.id != id || st.running || st.kv_location != KvLocation::Gpu {
            return None;
        }

        // The destination: a sibling shard by the home region's ranking,
        // or a remote region by the regions' ranking. `swept` holds the
        // monitor rows of every shard ranked, from global shard `first`
        // on: nothing changes between reads at one instant, so the landing
        // shard and instance are ranked on the same rows.
        let home = self.region_of(from);
        let (first, swept, target) = if tier == EscapeTier::CrossShard {
            let siblings = self.region_shards(home);
            // A region's only shard has no sibling to rank.
            if siblings.len() == 1 {
                return Some(candidate);
            }
            let swept = self.sweep(siblings.clone(), now);
            let target = escape_target(&pools_of(&swept), from - siblings.start);
            (siblings.start, swept, target.map(|d| siblings.start + d))
        } else {
            let swept = self.sweep(0..self.shards.len(), now);
            let target = escape_target(&region_pools_of(&swept, self.config.shards), home);
            (0, swept, target)
        };
        let Some(target) = target else {
            if tier == EscapeTier::CrossShard && self.regions.len() > 1 {
                return Some(candidate);
            }
            self.escape_fallback(from, candidate, now, false);
            return None;
        };
        self.shards[from].tally_move(tier, Verdict::Considered, handle, now);

        let (needed, bytes, predicted_remaining) = {
            let sh = &self.shards[from];
            let st = &sh.states[handle];
            (
                sh.geometry.blocks_for_tokens(st.tokens_needed_next()),
                context_kv_bytes(&sh.geometry, st),
                sh.predicted_remaining_tokens(handle),
            )
        };

        // The landing shard of a remote region by that region's own
        // ranking; the landing instance by the destination shard's
        // Algorithm 2 ranking (adaptive: must fit right now).
        let dest = if tier == EscapeTier::CrossShard {
            Some(target)
        } else {
            let shards = self.region_shards(target);
            best_escape_shard(&pools_of(&swept[shards.clone()])).map(|d| shards.start + d)
        };
        let policy = self.shards[from].policy;
        let landing = dest.and_then(|dest| {
            policy
                .cross_shard_instance(needed, &swept[dest - first])
                .map(|to| (dest, to))
        });
        let Some((dest, to_local)) = landing else {
            return self.refuse_escape(tier, from, candidate, now, Verdict::Aborted);
        };

        // The cost/benefit test at the tier's (higher) price. A veto only
        // rules out the expensive tier: the deferred intra-shard move
        // (which passed the cheaper intra-priced test at the transition)
        // still executes.
        let link = self.escape_link(tier, from, dest).0.link();
        let cost = self.shards[from].transfer_cost(link, handle, predicted_remaining);
        if cost.is_some_and(|c| c.vetoes()) {
            return self.refuse_escape(tier, from, candidate, now, Verdict::Vetoed);
        }
        if !self.shards[dest].reserve_landing(id, to_local, needed) {
            return self.refuse_escape(tier, from, candidate, now, Verdict::Aborted);
        }
        let (link, from_port, to_port) = self.escape_link(tier, from, dest);
        let (_, finish) = link.migrate(now, from_port, to_port, bytes);
        self.shards[from].launch_migration(
            handle,
            dest as u32,
            to_local,
            finish,
            predicted_remaining,
            now,
        );
        None
    }

    /// The link an escape at `tier` from shard `from` to shard `to` rides,
    /// with its source and destination ports: the region's interconnect,
    /// indexed by shard within the region, or the WAN, indexed by region.
    fn escape_link(
        &mut self,
        tier: EscapeTier,
        from: usize,
        to: usize,
    ) -> (&mut Fabric, usize, usize) {
        let per_region = self.config.shards;
        match tier {
            EscapeTier::CrossShard => (
                &mut self.regions[from / per_region].interconnect,
                from % per_region,
                to % per_region,
            ),
            EscapeTier::CrossRegion => (&mut self.wan, from / per_region, to / per_region),
            EscapeTier::Intra => unreachable!("an escape leaves its shard"),
        }
    }

    /// A considered escape that will not launch — vetoed by the cost test,
    /// or aborted because no landing instance qualified (or its
    /// reservation failed): counts and traces it, then falls back.
    fn refuse_escape(
        &mut self,
        tier: EscapeTier,
        from: usize,
        candidate: EscapeCandidate,
        now: SimTime,
        verdict: Verdict,
    ) -> Option<EscapeCandidate> {
        self.shards[from].tally_move(tier, verdict, candidate.handle, now);
        self.escape_fallback(from, candidate, now, verdict == Verdict::Vetoed);
        None
    }

    /// The escape could not (or should not) leave the shard: execute the
    /// intra-shard destination Algorithm 2 had picked at the transition,
    /// if there was one. `after_veto` attributes the fallback to the
    /// cost/benefit veto at the pricier tier (vs no-target/abort).
    fn escape_fallback(
        &mut self,
        from: usize,
        candidate: EscapeCandidate,
        now: SimTime,
        after_veto: bool,
    ) {
        let Some(dest) = candidate.intra_fallback else {
            return;
        };
        let sh = &mut self.shards[from];
        sh.migration_ctl.outcomes.cross_shard_fallbacks += 1;
        if after_veto {
            sh.migration_ctl.outcomes.cross_shard_fallbacks_after_veto += 1;
        }
        sh.emit_trace(
            now,
            Some(sh.global_instance(dest)),
            Some(candidate.req),
            TraceEventKind::EscapeFallback { after_veto },
        );
        // The decision was made at the transition; only the launch was
        // deferred, so the predictor's remaining-service view is re-read.
        let predicted_remaining = sh.predicted_remaining_tokens(candidate.handle);
        sh.migrate_intra(candidate.handle, dest, predicted_remaining, now);
    }

    /// A migration cleared its link — the source shard's fabric, its
    /// region's interconnect or the WAN: the source `from` frees the KV it
    /// sent and hands the request to local instance `to_local` of shard
    /// `to` (within a shard the member moves; across shards its state
    /// changes slabs), where the KV lands. The source reschedules before
    /// the destination, except after a cross-region move; when both act at
    /// the landing instant, that order is the order of their trace events.
    fn land_migration(
        &mut self,
        from: usize,
        req: ReqHandle,
        to: usize,
        to_local: u32,
        now: SimTime,
    ) {
        let tier = tier_between(from as u32, to as u32, self.config.shards as u32);
        let src = &mut self.shards[from];
        let st = &mut src.states[req];
        assert_eq!(st.kv_location, KvLocation::Migrating);
        let (from_local, held) = (st.instance, std::mem::take(&mut st.held_gpu_blocks));
        let rt = &mut src.instances[from_local as usize];
        rt.inst.gpu.free(held);
        rt.dying_blocks -= held;
        let landed = if tier == EscapeTier::Intra {
            let global = src.global_instance(to_local);
            src.states[req].instances_visited.push(global);
            src.move_member(req, to_local);
            req
        } else {
            src.remove_member(req);
            let mut st = src.states.remove(req);
            let sh = &mut self.shards[to];
            st.instances_visited.push(sh.global_instance(to_local));
            let landed = sh.states.insert(st);
            sh.add_member(landed, to_local);
            if tier == EscapeTier::CrossShard {
                sh.cross_shard_in += 1;
            } else {
                sh.cross_region_in += 1;
            }
            landed
        };
        let sh = &mut self.shards[to];
        sh.land_kv(landed, to_local, now);
        // A destination that fail-stopped while the transfer was in flight
        // strands the request — after the landing's normal accounting, so
        // the pool books stay auditable through the outage.
        if sh.health[to_local as usize] == HealthState::Down {
            sh.strand_request(landed, now);
        }
        if tier == EscapeTier::CrossRegion {
            sh.try_schedule(to_local, now);
        }
        // The source just lost a member; a draining source may now be empty.
        self.shards[from].check_drain_complete(from_local, now);
        self.shards[from].try_schedule(from_local, now);
        if tier != EscapeTier::CrossRegion {
            self.shards[to].try_schedule(to_local, now);
        }
    }

    // ----- reporting ------------------------------------------------------

    /// Pushes one [`SeriesRow`] per shard plus one region-scope aggregate
    /// per region onto the telemetry buffer — the state of the world at
    /// `at`, sampled between events. The WAN backlog gauge exists only
    /// between regions.
    fn sample_series(&self, at: SimTime) {
        let telemetry = self.clock.telemetry();
        for r in 0..self.regions.len() {
            let wan_busy_s = (self.regions.len() > 1)
                .then(|| self.wan.busy_until(r).saturating_since(at).as_secs_f64());
            let mut agg = SeriesRow {
                t: at,
                scope: SeriesScope::Region,
                region: r as u32,
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
            for sh in &self.shards[self.region_shards(r)] {
                let row = sh.series_row(at);
                agg.queue_depth += row.queue_depth;
                agg.active += row.active;
                agg.reasoning += row.reasoning;
                agg.answering += row.answering;
                agg.kv_used_bytes += row.kv_used_bytes;
                agg.kv_capacity_bytes += row.kv_capacity_bytes;
                if let Some(h) = row.admission_headroom_bytes {
                    agg.admission_headroom_bytes =
                        Some(agg.admission_headroom_bytes.unwrap_or(0) + h);
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
                telemetry.push_series(row);
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
            telemetry.push_series(agg);
        }
    }

    /// Region `r`'s row of the run summary.
    fn region_stats(&self, r: usize) -> RegionStats {
        let region = &self.regions[r];
        let shards = &self.shards[self.region_shards(r)];
        let mut admission = AdmissionCounters::default();
        for sh in shards {
            admission.absorb(&sh.admission_ctl.counters);
        }
        RegionStats {
            region: r as u32,
            shards: shards.len(),
            instances: shards.iter().map(|sh| sh.instances.len()).sum(),
            origin_arrivals: region.origin_arrivals,
            routed_arrivals: shards.iter().map(|s| s.routed_arrivals).sum(),
            nonlocal_arrivals: region.nonlocal_arrivals,
            spill_out: region.spill_out,
            spill_in: region.spill_in,
            completed: shards.iter().map(|s| s.records.len() as u64).sum(),
            cross_region_out: shards
                .iter()
                .map(|s| s.migration_ctl.outcomes.cross_region_launched)
                .sum(),
            cross_region_in: shards.iter().map(|s| s.cross_region_in).sum(),
            admission,
        }
    }
}

/// One aggregate pool snapshot per swept shard — the view the shard router
/// and the escape rankings consume.
fn pools_of(swept: &[Vec<InstanceStats>]) -> Vec<PoolSnapshot> {
    swept
        .iter()
        .map(|stats| PoolSnapshot::aggregate(stats))
        .collect()
}

/// One aggregate pool snapshot per region of a sweep of every shard,
/// `per_region` shards to a region.
fn region_pools_of(swept: &[Vec<InstanceStats>], per_region: usize) -> Vec<PoolSnapshot> {
    swept
        .chunks(per_region)
        .map(|region| PoolSnapshot::merge(&pools_of(region)))
        .collect()
}

/// Panics unless every single request's worst-case KV footprint fits one
/// instance — such a request could never be scheduled anywhere.
fn validate_trace_fits(trace: &Trace, config: &SimConfig) {
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

/// Collapses the drained shards into a [`SimOutput`]. `region_stats` starts
/// empty; the caller fills it.
///
/// # Panics
///
/// Panics unless the run conserved its escapes (every considered escape
/// launched, vetoed or aborted, per shard and in total) and its requests
/// (every arrival completed, stranded or rejected). Both checks are
/// O(shards) and run in release builds too.
fn assemble_output(shards: Vec<Shard<'_>>) -> SimOutput {
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
    let mut migration_outcomes = MigrationOutcomes::default();
    let mut admission = AdmissionCounters::default();
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
