//! Fleet elasticity runtime: health transitions, drain-and-migrate,
//! fail-stop stranding, the water-filling rebalancer and the reactive
//! autoscaler.
//!
//! The [`FleetSpec`](crate::fleet::FleetSpec) on the config is resolved
//! into per-instance transitions at shard construction and injected
//! through the run's event queue under the shard's id — fleet changes are
//! ordinary simulation events, totally ordered with everything else, so a
//! fleet run replays byte-identically. An absent (or empty) spec
//! schedules nothing and writes nothing: the static-fleet hot path only
//! pays an always-false health comparison per event.
//!
//! The semantics, per transition:
//!
//! * **join** — the instance turns [`HealthState::Healthy`] and becomes
//!   visible to placement again (the monitor sweep includes its row); the
//!   admission budget grows by one instance's capacity.
//! * **drain** — the instance turns [`HealthState::Draining`]: invisible
//!   to placement, queued (never-prefilled) members are rebalanced onto
//!   healthy siblings, and resident KV escapes through the *same* priced
//!   migration paths as a saturation escape — the cross-shard/cross-region
//!   outbox in a cluster, an intra-shard move otherwise, cost/benefit veto
//!   and conservation counters included. Running work finishes in place.
//!   When the member list empties the drain completes and the instance
//!   leaves the fleet ([`HealthState::Down`]).
//! * **fail** — fail-stop: at-rest KV is stranded immediately, queued
//!   members are water-filling-rebalanced onto survivors (stranded when no
//!   healthy sibling exists), running members strand when their in-flight
//!   iteration lands, and in-transfer KV strands when its transfer event
//!   fires — every path after its normal transfer accounting, so pool
//!   conservation is auditable all the way through an outage.
//!
//! The autoscaler rides the same machinery: a periodic tick compares the
//! shard's predicted KV demand against the healthy capacity and activates
//! a parked standby instance (after the configured lead time) or drains
//! the highest-id scaler-managed one back into the pool.

use pascal_cluster::{InstanceStats, KvLocation, ReqHandle};
use pascal_sim::SimTime;
use pascal_telemetry::{EscapeTier, TraceEventKind};

use crate::fleet::{AutoscalePolicy, HealthState};

use super::migration::Verdict;
use super::{Event, Shard};

/// Autoscaler runtime state of one shard.
pub(crate) struct AutoscalerRt {
    /// The configured thresholds and cadence.
    pub(super) policy: AutoscalePolicy,
    /// Scaler-managed local instance ids currently parked (ascending).
    pub(super) parked: Vec<u32>,
    /// The full scaler-managed set — the `standby` directives that landed
    /// on this shard. Immutable after construction.
    pub(super) pool: Vec<u32>,
    /// Last trace arrival: ticks stop rescheduling once the clock passes
    /// this and the shard has drained, so the run terminates.
    pub(super) last_arrival: SimTime,
}

impl<'a> Shard<'a> {
    /// Resolves the config's fleet spec against this shard: schedules its
    /// transitions, parks its standby instances, arms the autoscaler. A
    /// `None` (or empty) spec returns immediately without touching state.
    pub(super) fn init_fleet(&mut self) {
        let Some(fleet) = &self.config.fleet else {
            return;
        };
        if fleet.is_empty() {
            return;
        }
        let per_shard = self.instances.len() as u32;
        for t in fleet.transitions(
            self.config.regions,
            self.config.shards,
            self.config.num_instances,
        ) {
            if t.shard == self.id {
                self.queue.schedule(
                    t.at,
                    Event::FleetTransition {
                        instance: t.instance,
                        to: t.to,
                    },
                );
            }
        }
        let mut parked: Vec<u32> = fleet
            .standby
            .iter()
            .filter(|&&gid| gid / per_shard == self.id)
            .map(|&gid| gid - self.offset)
            .collect();
        parked.sort_unstable();
        parked.dedup();
        // Parked instances start out of the fleet without a transition:
        // no trace event, no counter — they were never up.
        for &local in &parked {
            self.health[local as usize] = HealthState::Down;
        }
        if let Some(policy) = fleet.autoscale {
            let last_arrival = self
                .trace
                .requests()
                .iter()
                .map(|r| r.arrival)
                .max()
                .unwrap_or(SimTime::ZERO);
            self.queue
                .schedule(SimTime::ZERO + policy.interval, Event::AutoscaleTick);
            self.autoscaler = Some(AutoscalerRt {
                policy,
                pool: parked.clone(),
                parked,
                last_arrival,
            });
        }
        self.refresh_admission_budget();
    }

    /// Healthy instances right now — the denominator of every capacity
    /// computation (admission budget, autoscaler utilization).
    pub(super) fn healthy_count(&self) -> usize {
        self.health
            .iter()
            .filter(|&&h| h == HealthState::Healthy)
            .count()
    }

    /// Re-derives the admission budget as capacity × healthy instances, so
    /// the admission probe sheds load against what the fleet can actually
    /// hold, not its nameplate size.
    fn refresh_admission_budget(&mut self) {
        let budget = self
            .config
            .kv_capacity_bytes()
            .map(|c| c * self.healthy_count() as u64);
        self.admission_ctl.set_budget(budget);
    }

    /// Applies one health transition to a local instance. Idempotent: a
    /// transition to the current state is a no-op (a scheduled `fail` after
    /// a drain already completed, a duplicate `join`).
    pub(super) fn apply_fleet_transition(&mut self, instance: u32, to: HealthState, now: SimTime) {
        let i = instance as usize;
        let from = self.health[i];
        if from == to {
            return;
        }
        // A transition reads the instance's members: it touches any
        // steady run there.
        self.catch_up(instance);
        self.health[i] = to;
        self.fleet.transitions += 1;
        let global = Some(self.global_instance(instance));
        match to {
            HealthState::Healthy => {
                self.fleet.joins += 1;
                self.drain_started[i] = None;
                self.emit_trace(now, global, None, TraceEventKind::InstanceUp);
                if let Some(scaler) = &mut self.autoscaler {
                    scaler.parked.retain(|&p| p != instance);
                }
                self.refresh_admission_budget();
                self.try_schedule(instance, now);
            }
            HealthState::Draining => {
                self.fleet.drains_started += 1;
                self.drain_started[i] = Some(now);
                self.emit_trace(now, global, None, TraceEventKind::InstanceDraining);
                self.refresh_admission_budget();
                self.begin_drain_migrate(instance, now);
                self.check_drain_complete(instance, now);
            }
            HealthState::Down => {
                // A fail-stop cutting a drain short strands what the drain
                // had not yet moved; the drain never completes.
                self.drain_started[i] = None;
                self.fleet.fails += 1;
                self.emit_trace(now, global, None, TraceEventKind::InstanceDown);
                self.refresh_admission_budget();
                self.fail_instance(instance, now);
            }
        }
    }

    /// Fail-stop: strand at-rest KV, rebalance queued members, leave
    /// running and in-transfer members to strand at their event landings.
    fn fail_instance(&mut self, instance: u32, now: SimTime) {
        let mut at_rest = Vec::new();
        let mut waiting = Vec::new();
        for (_, handle) in self.instances[instance as usize].inst.members.iter() {
            let st = &self.states[handle];
            if st.running {
                // Strands at its in-flight iteration's completion — the
                // batch vector still carries this handle.
                continue;
            }
            match st.kv_location {
                KvLocation::Gpu | KvLocation::Cpu => at_rest.push(handle),
                KvLocation::None => waiting.push(handle),
                // In flight over PCIe or a fabric: the transfer event owns
                // the handle; its landing does the stranding.
                KvLocation::OffloadingToCpu
                | KvLocation::ReloadingToGpu
                | KvLocation::Migrating => {}
            }
        }
        for handle in at_rest {
            self.strand_request(handle, now);
        }
        self.rebalance_waiting(instance, waiting, now);
    }

    /// Planned leave: queued members rebalance off first (they have no KV
    /// to move), then resident KV escapes through the priced migration
    /// paths — the cross-shard/region outbox when the run has one,
    /// the intra-shard drain move otherwise. Non-PASCAL policies have no
    /// migration machinery: their residents finish in place, exactly as
    /// they would under saturation.
    fn begin_drain_migrate(&mut self, instance: u32, now: SimTime) {
        let mut waiting = Vec::new();
        let mut residents = Vec::new();
        for (_, handle) in self.instances[instance as usize].inst.members.iter() {
            let st = &self.states[handle];
            if st.running {
                continue;
            }
            match st.kv_location {
                KvLocation::None => waiting.push(handle),
                KvLocation::Gpu => residents.push(handle),
                _ => {}
            }
        }
        self.rebalance_waiting(instance, waiting, now);
        let migration_on = matches!(
            self.policy,
            pascal_sched::SchedPolicy::Pascal(c) if c.migration_enabled
        );
        if !migration_on {
            return;
        }
        for handle in residents {
            if self.cross_escape_enabled {
                // Same outbox, staleness checks, pricing and conservation
                // counters as a saturation escape; resolved by the engine
                // right after this transition is applied.
                self.queue_escape(handle, None);
            } else {
                let predicted_remaining = self.predicted_remaining_tokens(handle);
                self.tally_move(EscapeTier::Intra, Verdict::Considered, handle, now);
                self.drain_move(handle, predicted_remaining, None, now);
            }
        }
    }

    /// One intra-shard move off a draining instance: the cost/benefit veto
    /// on the shard's fabric, then Algorithm 2's landing ranking over the
    /// healthy survivors — on `swept` when the caller already swept the
    /// shard, else on a sweep taken only once the veto passed.
    pub(super) fn drain_move(
        &mut self,
        handle: ReqHandle,
        predicted_remaining: Option<f64>,
        swept: Option<&[InstanceStats]>,
        now: SimTime,
    ) {
        let cost = self.transfer_cost(self.fabric.link(), handle, predicted_remaining);
        if cost.is_some_and(|c| c.vetoes()) {
            return self.tally_move(EscapeTier::Intra, Verdict::Vetoed, handle, now);
        }
        let needed = self
            .geometry
            .blocks_for_tokens(self.states[handle].tokens_needed_next());
        let dest = if let Some(stats) = swept {
            self.policy.cross_shard_instance(needed, stats)
        } else {
            let mut stats = std::mem::take(&mut self.scratch.stats);
            self.collect_stats_into(now, &mut stats);
            let dest = self.policy.cross_shard_instance(needed, &stats);
            self.scratch.stats = stats;
            dest
        };
        if let Some(dest) = dest {
            self.migrate_intra(handle, dest, predicted_remaining, now);
        }
    }

    /// Water-filling rebalance of queued (never-prefilled) members off
    /// `from`: each request goes to the healthy instance with the most
    /// estimated free blocks (ties to the lowest id), its estimated claim
    /// decrementing that instance's level — so displaced queues spread
    /// proportional to surviving capacity instead of dogpiling one target.
    /// With no healthy sibling on the shard, the requests strand.
    fn rebalance_waiting(&mut self, from: u32, waiting: Vec<ReqHandle>, now: SimTime) {
        if waiting.is_empty() {
            return;
        }
        let mut targets: Vec<(i64, u32)> = self
            .health
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h == HealthState::Healthy)
            .map(|(i, _)| {
                let free = self.instances[i]
                    .inst
                    .gpu
                    .free_blocks()
                    .map_or(i64::MAX, |f| f.min(i64::MAX as u64) as i64);
                (free, i as u32)
            })
            .collect();
        if targets.is_empty() {
            for handle in waiting {
                self.strand_request(handle, now);
            }
            return;
        }
        let from_global = self.global_instance(from);
        let mut touched: Vec<u32> = Vec::new();
        for handle in waiting {
            let (id, prompt) = {
                let st = &self.states[handle];
                (st.spec.id, st.spec.prompt_tokens)
            };
            let best = targets
                .iter()
                .enumerate()
                .max_by_key(|&(_, &(free, inst))| (free, std::cmp::Reverse(inst)))
                .map(|(at, _)| at)
                .expect("targets is non-empty");
            let (level, target) = targets[best];
            let claim = self.geometry.blocks_for_tokens(u64::from(prompt) + 1);
            targets[best].0 = level.saturating_sub(claim.min(i64::MAX as u64) as i64);
            let to_global = self.global_instance(target);
            self.states[handle].instances_visited.push(to_global);
            self.move_member(handle, target);
            self.fleet.rebalanced += 1;
            self.emit_trace(
                now,
                Some(from_global),
                Some(id),
                TraceEventKind::RequestRebalanced {
                    to_instance: to_global,
                },
            );
            touched.push(target);
        }
        touched.sort_unstable();
        touched.dedup();
        for target in touched {
            self.try_schedule(target, now);
        }
    }

    /// Removes a request the fleet lost: frees whatever KV it held, counts
    /// it stranded, and emits the trace event the chaos validation pairs
    /// against the outage. No completion record is produced — stranded
    /// requests are lost work, not served work.
    pub(super) fn strand_request(&mut self, handle: ReqHandle, now: SimTime) {
        self.remove_member(handle);
        let st = self.states.remove(handle);
        let i = st.instance as usize;
        let id = st.spec.id;
        if st.held_gpu_blocks > 0 {
            self.instances[i].inst.gpu.free(st.held_gpu_blocks);
        }
        if st.held_cpu_blocks > 0 {
            self.instances[i].inst.cpu.free(st.held_cpu_blocks);
        }
        self.fleet.stranded += 1;
        self.emit_trace(
            now,
            Some(self.global_instance(st.instance)),
            Some(id),
            TraceEventKind::RequestStranded,
        );
    }

    /// A draining instance completes its drain the moment its member list
    /// empties: it leaves the fleet, and a scaler-managed instance returns
    /// to the parked pool. Called after every membership removal; a single
    /// health comparison when the instance is not draining.
    pub(super) fn check_drain_complete(&mut self, instance: u32, now: SimTime) {
        let i = instance as usize;
        if self.health[i] != HealthState::Draining {
            return;
        }
        if !self.instances[i].inst.members.is_empty() {
            return;
        }
        self.health[i] = HealthState::Down;
        if let Some(started) = self.drain_started[i].take() {
            self.fleet.drain_time += now.saturating_since(started);
        }
        self.fleet.drains_completed += 1;
        self.emit_trace(
            now,
            Some(self.global_instance(instance)),
            None,
            TraceEventKind::DrainComplete,
        );
        if let Some(scaler) = &mut self.autoscaler {
            if scaler.pool.contains(&instance) && !scaler.parked.contains(&instance) {
                let at = scaler.parked.partition_point(|&p| p < instance);
                scaler.parked.insert(at, instance);
            }
        }
    }

    /// One autoscaler evaluation: predicted KV demand over healthy
    /// capacity. Above the up-threshold a parked instance (lowest id) is
    /// activated after the provisioning lead time; below the down-threshold
    /// the highest-id active scaler-managed instance drains back to the
    /// pool (never below one healthy instance). Returns the instance a
    /// scale-down started draining, so the dispatcher can resolve any
    /// escapes it queued.
    pub(super) fn autoscale_tick(&mut self, now: SimTime) -> Option<u32> {
        let Some(scaler) = &self.autoscaler else {
            return None;
        };
        let policy = scaler.policy;
        let last_arrival = scaler.last_arrival;
        let mut drained = None;
        if let Some(capacity) = self.config.kv_capacity_bytes() {
            let healthy = self.healthy_count();
            let mut stats = std::mem::take(&mut self.scratch.stats);
            self.collect_stats_into(now, &mut stats);
            let demand: u64 = stats.iter().map(|s| s.predicted_total_kv_bytes()).sum();
            self.scratch.stats = stats;
            let budget = capacity * healthy as u64;
            let util = if budget == 0 {
                f64::INFINITY
            } else {
                demand as f64 / budget as f64
            };
            if util > policy.up_utilization {
                let activated = self
                    .autoscaler
                    .as_mut()
                    .and_then(|s| (!s.parked.is_empty()).then(|| s.parked.remove(0)));
                if let Some(inst) = activated {
                    self.fleet.autoscale_up += 1;
                    self.emit_trace(
                        now,
                        Some(self.global_instance(inst)),
                        None,
                        TraceEventKind::AutoscaleUp,
                    );
                    // Capacity arrives only after the provisioning lead.
                    self.queue.schedule(
                        now + policy.lead,
                        Event::FleetTransition {
                            instance: inst,
                            to: HealthState::Healthy,
                        },
                    );
                }
            } else if util < policy.down_utilization && healthy > 1 {
                let candidate = self
                    .autoscaler
                    .as_ref()
                    .expect("checked above")
                    .pool
                    .iter()
                    .rev()
                    .find(|&&p| self.health[p as usize] == HealthState::Healthy)
                    .copied();
                if let Some(inst) = candidate {
                    self.fleet.autoscale_down += 1;
                    self.emit_trace(
                        now,
                        Some(self.global_instance(inst)),
                        None,
                        TraceEventKind::AutoscaleDown,
                    );
                    self.apply_fleet_transition(inst, HealthState::Draining, now);
                    drained = Some(inst);
                }
            }
        }
        // Keep ticking while arrivals are still possible or work is still
        // in flight; stop afterwards so the run terminates.
        if now <= last_arrival || !self.states.is_empty() {
            self.queue
                .schedule(now + policy.interval, Event::AutoscaleTick);
        }
        drained
    }
}
