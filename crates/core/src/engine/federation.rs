//! The federated engine: N regions under one global clock, a region
//! router at the federation boundary, and the cross-region (WAN) paths.
//!
//! A *region* wraps one cluster-of-shards — the full PR 4 engine with its
//! own two-tier topology, instance pool sizing and shard router — and
//! every region's shards schedule on the run's one future-event list
//! ([`super::driver`]) under their global, region-major shard ids: the
//! earliest event anywhere fires next, arrivals win timestamp ties
//! (exactly as in the cluster engine), and event ties break by lowest
//! region id, then lowest shard id within the region. With `regions == 1`
//! the event sequence — hence every output byte — matches the cluster
//! engine, which is why `run_simulation` only takes this path above one
//! region.
//!
//! Three mechanisms live at the federation boundary:
//!
//! * **region routing** ([`FederationPolicy`]): every arrival carries an
//!   `origin_region` tag; `static` pins it home, `nearest` fails over to
//!   the closest healthy region, `predictive` is Algorithm 1 lifted over
//!   per-region aggregate [`PoolSnapshot`]s;
//! * **region-aware admission**: the routed shard's admission decision is
//!   *probed* first; a would-be rejection tries the remote regions in
//!   [`spill_order`] (healthy, least predicted footprint, nearest) and
//!   only rejects when every region's budget is exhausted — shedding load
//!   to another continent beats shedding it to the floor;
//! * **cross-region escape migration**: an escape candidate no sibling
//!   shard could take escalates here — ranked by
//!   [`cross_region_escape_target`], landed by the destination region's
//!   own shard and Algorithm 2 instance ranking, priced by the
//!   cost/benefit veto at the WAN's (highest) transfer price, and carried
//!   over the contended [`WanTopology`] ports. Every failure path still
//!   executes the candidate's deferred intra-shard fallback.

use pascal_cluster::{KvLocation, PoolSnapshot, ReqHandle};
use pascal_federation::{spill_order, FederationPolicy, FederationSpec, WanTopology};
use pascal_metrics::{AdmissionCounters, MigrationRecord, RegionStats};
use pascal_sched::{best_escape_shard, cross_region_escape_target, MigrationCost};
use pascal_sim::SimTime;
use pascal_telemetry::{EscapeTier, TelemetryHandle, TraceEventKind};
use pascal_workload::{RequestId, Trace};

use crate::config::SimConfig;

use super::admission::AdmissionProbe;
use super::cluster::{
    assemble_output, assert_drained, validate_trace_fits, Cluster, ClusterSignal,
};
use super::driver::{Clock, EventDriver};
use super::{context_kv_bytes, EscapeCandidate, Event, Shard, SimOutput};

/// One region at runtime: its cluster plus the federation-boundary tallies.
struct RegionRt<'a> {
    cluster: Cluster<'a>,
    origin_arrivals: u64,
    nonlocal_arrivals: u64,
    spill_in: u64,
    spill_out: u64,
}

/// The federation of regions and its global clock.
pub(crate) struct FederationEngine<'a> {
    config: &'a SimConfig,
    clock: Clock<'a>,
    regions: Vec<RegionRt<'a>>,
    wan: WanTopology,
}

impl<'a> FederationEngine<'a> {
    pub(crate) fn new(trace: &'a Trace, config: &'a SimConfig) -> Self {
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
        let clock = Clock::new(trace, TelemetryHandle::new(&config.telemetry));
        let regions = spec
            .regions
            .iter()
            .map(|region| RegionRt {
                cluster: Cluster::new(
                    config,
                    &clock,
                    region.id * config.shards as u32,
                    region.shards,
                    region.instances_per_shard,
                    true,
                ),
                origin_arrivals: 0,
                nonlocal_arrivals: 0,
                spill_in: 0,
                spill_out: 0,
            })
            .collect();

        FederationEngine {
            config,
            clock,
            regions,
            wan: WanTopology::new(spec.regions.len(), spec.wan),
        }
    }

    /// One aggregate pool snapshot per region — the view the federation
    /// router, the spill ranking and the cross-region escape all consume.
    fn region_pools(&self, now: SimTime) -> Vec<PoolSnapshot> {
        self.regions
            .iter()
            .map(|region| PoolSnapshot::merge(&region.cluster.shard_pools(now)))
            .collect()
    }

    /// Routes one trace arrival: federation policy picks the region, the
    /// region's shard router picks the shard, the shard's admission
    /// controller is probed — and a would-be rejection tries the remote
    /// regions in spill order before it is committed.
    fn deliver_arrival(&mut self, idx: usize, now: SimTime) {
        let spec = self.clock.trace().requests()[idx].clone();
        // Traces built without region tags (or with more regions than the
        // deployment has) clamp into range rather than crash — origin is
        // advisory metadata, not an engine invariant.
        let origin = (spec.origin_region as usize).min(self.regions.len() - 1);
        self.regions[origin].origin_arrivals += 1;

        // The routing sweep is reused by the spill ranking below: nothing
        // mutates between the two reads at the same timestamp, and the
        // spill path fires exactly on overloaded arrivals — the worst
        // moment to pay a second full-federation monitor sweep.
        let mut pools: Option<Vec<PoolSnapshot>> = None;
        let home = if self.config.fed_router.needs_pool_state() {
            let swept = self.region_pools(now);
            let home = self.config.fed_router.route(origin, &swept);
            pools = Some(swept);
            home
        } else {
            debug_assert_eq!(self.config.fed_router, FederationPolicy::Static);
            origin
        };

        let (shard, stats) = self.regions[home].cluster.pick_arrival_shard(now);
        match self.regions[home].cluster.shards[shard].admission_probe(&spec, &stats) {
            AdmissionProbe::Admit => {
                self.deliver_to(home, shard, spec, &stats, origin, now);
            }
            probe => {
                // Region-aware admission: spill to a remote region whose
                // budget still has room before turning the user away.
                let pools = pools.unwrap_or_else(|| self.region_pools(now));
                for candidate in spill_order(&pools, home) {
                    let (s, stats) = self.regions[candidate].cluster.pick_arrival_shard(now);
                    let remote =
                        self.regions[candidate].cluster.shards[s].admission_probe(&spec, &stats);
                    if remote == AdmissionProbe::Admit {
                        self.regions[home].spill_out += 1;
                        self.regions[candidate].spill_in += 1;
                        // The spill is bookkept at the home shard the
                        // arrival was routed to; the landing shard counts
                        // the admission itself.
                        self.regions[home].cluster.shards[shard]
                            .admission_ctl
                            .counters
                            .spilled += 1;
                        self.regions[home].cluster.shards[shard].emit_trace(
                            now,
                            None,
                            Some(spec.id),
                            TraceEventKind::AdmissionSpilled {
                                to_region: candidate as u32,
                            },
                        );
                        self.deliver_to(candidate, s, spec, &stats, origin, now);
                        return;
                    }
                }
                // Every region's budget is exhausted: the home shard owns
                // the rejection, with its own projection in the record.
                let sh = &mut self.regions[home].cluster.shards[shard];
                sh.routed_arrivals += 1;
                sh.admission_commit_reject(&spec, probe, now);
            }
        }
    }

    /// Final delivery of an admitted arrival to `(region, shard)`.
    fn deliver_to(
        &mut self,
        region: usize,
        shard: usize,
        spec: pascal_workload::RequestSpec,
        stats: &[pascal_cluster::InstanceStats],
        origin: usize,
        now: SimTime,
    ) {
        if region != origin {
            self.regions[region].nonlocal_arrivals += 1;
        }
        let sh = &mut self.regions[region].cluster.shards[shard];
        sh.routed_arrivals += 1;
        sh.admission_commit_admit();
        sh.place_arrival(spec, stats, now);
    }

    /// One cross-region migration decision for an escape candidate no
    /// sibling shard could take: remote-region ranking, landing shard and
    /// instance by the destination's own rankings, WAN-priced cost/benefit
    /// veto, reservation, launch. Every failure path falls back to the
    /// candidate's deferred intra-shard move (when it has one).
    fn consider_cross_region_escape(
        &mut self,
        from_r: usize,
        from_s: usize,
        candidate: EscapeCandidate,
        now: SimTime,
    ) {
        let id = candidate.req;
        let handle = candidate.handle;
        // Same defensive check as the cross-shard path: a stale candidate
        // is a no-op, never a crash. The slot may have been reused, so the
        // handle only counts when it still holds this request's id.
        {
            let Some(st) = self.regions[from_r].cluster.shards[from_s]
                .states
                .get(handle)
            else {
                return;
            };
            if st.spec.id != id || st.running || st.kv_location != KvLocation::Gpu {
                return;
            }
        }

        let pools = self.region_pools(now);
        let Some(dest_r) = cross_region_escape_target(&pools, from_r) else {
            return self.regions[from_r]
                .cluster
                .escape_fallback(from_s, candidate, now, false);
        };
        self.source_outcomes(from_r, from_s).cross_region_considered += 1;
        self.emit_escape_trace(
            from_r,
            from_s,
            handle,
            id,
            now,
            TraceEventKind::MigrationConsidered {
                tier: EscapeTier::CrossRegion,
            },
        );

        let (needed, bytes, predicted_remaining) = {
            let sh = &self.regions[from_r].cluster.shards[from_s];
            let st = &sh.states[handle];
            (
                sh.geometry.blocks_for_tokens(st.tokens_needed_next()),
                context_kv_bytes(&sh.geometry, st),
                sh.predicted_remaining_tokens(handle),
            )
        };

        // Landing shard by the destination region's own cross-shard
        // ranking, landing instance by that shard's Algorithm 2 ranking
        // (adaptive: must fit right now).
        let dest_pools = self.regions[dest_r].cluster.shard_pools(now);
        let Some(dest_s) = best_escape_shard(&dest_pools) else {
            self.source_outcomes(from_r, from_s).cross_region_aborted += 1;
            self.emit_escape_trace(
                from_r,
                from_s,
                handle,
                id,
                now,
                TraceEventKind::MigrationAborted {
                    tier: EscapeTier::CrossRegion,
                },
            );
            return self.regions[from_r]
                .cluster
                .escape_fallback(from_s, candidate, now, false);
        };
        let dest_stats = self.regions[dest_r].cluster.shards[dest_s].collect_stats(now);
        let policy = self.regions[from_r].cluster.shards[from_s].policy;
        let Some(to_local) = policy.cross_shard_instance(needed, &dest_stats) else {
            self.source_outcomes(from_r, from_s).cross_region_aborted += 1;
            self.emit_escape_trace(
                from_r,
                from_s,
                handle,
                id,
                now,
                TraceEventKind::MigrationAborted {
                    tier: EscapeTier::CrossRegion,
                },
            );
            return self.regions[from_r]
                .cluster
                .escape_fallback(from_s, candidate, now, false);
        };

        // The cost/benefit test at the WAN's (highest) price: this is the
        // tier where the veto almost always wins, and that is the point —
        // only requests with serious predicted remaining service justify
        // dragging their KV across a continent.
        let cost = {
            let sh = &self.regions[from_r].cluster.shards[from_s];
            sh.migration_ctl
                .predictive()
                .filter(|_| sh.predictor.is_some())
                .map(|p| MigrationCost {
                    transfer_time: self.wan.cross_transfer_time(bytes),
                    predicted_remaining_service: predicted_remaining
                        .map(|tokens| self.config.target_tpot.mul_f64(tokens)),
                    min_benefit_ratio: p.min_benefit_ratio,
                })
        };
        if cost.is_some_and(|c| c.vetoes()) {
            self.source_outcomes(from_r, from_s)
                .cross_region_vetoed_by_cost += 1;
            self.emit_escape_trace(
                from_r,
                from_s,
                handle,
                id,
                now,
                TraceEventKind::MigrationVetoed {
                    tier: EscapeTier::CrossRegion,
                },
            );
            return self.regions[from_r]
                .cluster
                .escape_fallback(from_s, candidate, now, true);
        }

        // Adaptive reservation on the destination shard's ledger, so
        // landing consumes it from the shard that holds the blocks.
        if self.regions[dest_r].cluster.shards[dest_s].instances[to_local as usize]
            .inst
            .gpu
            .try_alloc(needed)
        {
            self.regions[dest_r].cluster.shards[dest_s]
                .migration_ctl
                .reserve(id, needed);
        } else if policy.adaptive_migration() {
            self.source_outcomes(from_r, from_s).cross_region_aborted += 1;
            self.emit_escape_trace(
                from_r,
                from_s,
                handle,
                id,
                now,
                TraceEventKind::MigrationAborted {
                    tier: EscapeTier::CrossRegion,
                },
            );
            return self.regions[from_r]
                .cluster
                .escape_fallback(from_s, candidate, now, false);
        }

        let (_, finish) = self.wan.cross_migrate(now, from_r, dest_r, bytes);
        let to_global = self.regions[dest_r].cluster.shards[dest_s].global_instance(to_local);
        self.emit_escape_trace(
            from_r,
            from_s,
            handle,
            id,
            now,
            TraceEventKind::MigrationLaunched {
                tier: EscapeTier::CrossRegion,
                to_shard: self.regions[dest_r].cluster.shards[dest_s].id,
                to_instance: to_global,
                bytes,
            },
        );
        let sh = &mut self.regions[from_r].cluster.shards[from_s];
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
        sh.migration_ctl.outcomes.cross_region_launched += 1;
        sh.migration_ctl.outcomes.cross_region_bytes_moved += bytes;
        sh.queue.schedule(
            finish,
            Event::CrossRegionDone {
                req: handle,
                to_region: dest_r as u32,
                to_shard: dest_s as u32,
                to_instance: to_local,
            },
        );
    }

    /// Emits a trace event attributed to the escaping request's current
    /// instance on the source shard (shorthand for the deep path).
    #[allow(clippy::too_many_arguments)]
    fn emit_escape_trace(
        &self,
        from_r: usize,
        from_s: usize,
        handle: ReqHandle,
        id: RequestId,
        now: SimTime,
        kind: TraceEventKind,
    ) {
        let sh = &self.regions[from_r].cluster.shards[from_s];
        let instance = sh.states.get(handle).map(|st| sh.offset + st.instance);
        sh.emit_trace(now, instance, Some(id), kind);
    }

    /// The escaping shard's outcome tally (shorthand for the deep path).
    fn source_outcomes(
        &mut self,
        from_r: usize,
        from_s: usize,
    ) -> &mut pascal_metrics::MigrationOutcomes {
        &mut self.regions[from_r].cluster.shards[from_s]
            .migration_ctl
            .outcomes
    }

    /// A cross-region transfer cleared the WAN: free the source side, hand
    /// the request state to the destination region's shard, land the KV.
    #[allow(clippy::too_many_arguments)]
    fn on_cross_region_done(
        &mut self,
        from_r: usize,
        from_s: usize,
        req: ReqHandle,
        to_r: usize,
        to_s: usize,
        to_local: u32,
        now: SimTime,
    ) {
        let (mut st, from_local) = self.regions[from_r].cluster.shards[from_s].depart_migrated(req);
        {
            let sh = &mut self.regions[to_r].cluster.shards[to_s];
            st.instances_visited.push(sh.global_instance(to_local));
            let landed = sh.states.insert(st);
            sh.add_member(landed, to_local);
            sh.cross_region_in += 1;
            // Same landing tail as every other migration, on the shard
            // whose ledger holds the reservation made at launch.
            sh.land_migration(landed, to_local, now);
            // A destination instance that fail-stopped while the WAN
            // transfer was in flight strands the request after the
            // landing's normal accounting.
            if sh.health[to_local as usize] == crate::fleet::HealthState::Down {
                sh.strand_request(landed, now);
            }
            sh.try_schedule(to_local, now);
        }
        // The source just lost a member; a draining source may now be empty.
        self.regions[from_r].cluster.shards[from_s].check_drain_complete(from_local, now);
        self.regions[from_r].cluster.shards[from_s].try_schedule(from_local, now);
    }

    pub(crate) fn run(mut self) -> SimOutput {
        while self.step() {}

        let per_region_instances = self.config.num_instances / self.config.regions;
        let region_stats: Vec<RegionStats> = self
            .regions
            .iter()
            .enumerate()
            .map(|(r, region)| {
                let shards = &region.cluster.shards;
                let mut admission = AdmissionCounters::default();
                for sh in shards {
                    admission.absorb(&sh.admission_ctl.counters);
                }
                RegionStats {
                    region: r as u32,
                    shards: self.config.shards,
                    instances: per_region_instances,
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
            })
            .collect();

        let shards: Vec<Shard<'a>> = self
            .regions
            .into_iter()
            .flat_map(|region| region.cluster.shards)
            .collect();
        assert_drained(&shards);
        self.clock.profile_work(&shards);
        let mut out = assemble_output(shards);
        out.region_stats = region_stats;
        out.telemetry = self.clock.telemetry().finish();
        out
    }
}

impl<'a> EventDriver<'a> for FederationEngine<'a> {
    fn clock(&mut self) -> &mut Clock<'a> {
        &mut self.clock
    }

    fn arrive(&mut self, idx: usize, at: SimTime) {
        self.deliver_arrival(idx, at);
    }

    /// Global shard ids are region-major: `shard = region · shards + s`.
    fn fire(&mut self, shard: u32, ev: Event, now: SimTime) {
        let (r, s) = (
            shard as usize / self.config.shards,
            shard as usize % self.config.shards,
        );
        match self.regions[r].cluster.dispatch(s, ev, now) {
            ClusterSignal::Handled => {}
            ClusterSignal::Escalate {
                instance,
                candidates,
            } => {
                for candidate in candidates {
                    self.consider_cross_region_escape(r, s, candidate, now);
                }
                self.regions[r].cluster.shards[s].try_schedule(instance, now);
            }
            ClusterSignal::CrossRegionArrived {
                req,
                to_region,
                to_shard,
                to_instance,
            } => {
                self.on_cross_region_done(
                    r,
                    s,
                    req,
                    to_region as usize,
                    to_shard as usize,
                    to_instance,
                    now,
                );
            }
        }
    }

    fn sample(&mut self, at: SimTime) {
        for (r, region) in self.regions.iter().enumerate() {
            let wan_backlog = self
                .wan
                .port_busy_until(r)
                .saturating_since(at)
                .as_secs_f64();
            region.cluster.sample_series(at, Some(wan_backlog));
        }
    }
}
