//! The migration controller: phase-boundary KV-cache migration (§IV-B).
//!
//! Owns everything that happens after a request finishes its reasoning
//! phase: the Algorithm 2 decision (delegated to the policy), the
//! *predictive cost/benefit test* that weighs the physical KV transfer cost
//! (from `pascal-model`'s link model) against the predicted remaining
//! service of the request (from `pascal-predict`), destination block
//! reservation, the transfer itself, and the landing. Every decision is
//! tallied in [`MigrationOutcomes`]; launched transfers additionally record
//! the predicted-vs-actual remaining service at decision time so the cost
//! model's calibration is measurable after the run.

use pascal_cluster::{KvLocation, ReqHandle, RequestState};
use pascal_metrics::{MigrationOutcomes, MigrationRecord};
use pascal_sched::{MigrationCost, MigrationDecision};
use pascal_sim::SimTime;
use pascal_telemetry::{EscapeTier, TraceEventKind};
use pascal_workload::{Phase, RequestId};

use super::{context_kv_bytes, EscapeCandidate, Event, Shard};

/// Cost/benefit configuration of predictive migration.
///
/// When set on `SimConfig` (and a length predictor is active), the
/// controller vetoes Algorithm 2 migrations whose predicted remaining
/// service — remaining tokens at the pacing target — is below
/// `min_benefit_ratio` transfer-times. Unset, migration is exactly the
/// paper's reactive Algorithm 2. Rank-only predictors produce no absolute
/// estimates, so under them the test never fires and migration stays
/// reactive (the CLI rejects that combination outright).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PredictiveMigration {
    /// How many transfer-times of predicted remaining service a migration
    /// must buy to be worthwhile. `1.0` is break-even; `0.0` never vetoes.
    pub min_benefit_ratio: f64,
}

impl Default for PredictiveMigration {
    fn default() -> Self {
        PredictiveMigration {
            min_benefit_ratio: 1.0,
        }
    }
}

/// Engine-side controller state: reservation ledger plus outcome tally.
pub(crate) struct MigrationController {
    predictive: Option<PredictiveMigration>,
    /// GPU blocks pre-reserved on a migration destination, keyed by the
    /// migrating request. Cross-shard escapes reserve in the *destination*
    /// shard's ledger, so landing always consumes from the shard that
    /// holds the blocks. A plain vector: at most a handful of transfers
    /// are ever in flight per shard, and the in-flight request has no
    /// handle on the destination yet, so the id is the only stable key.
    pub(super) reservations: Vec<(RequestId, u64)>,
    pub(super) outcomes: MigrationOutcomes,
}

impl MigrationController {
    pub(super) fn new(predictive: Option<PredictiveMigration>) -> Self {
        if let Some(p) = predictive {
            assert!(
                p.min_benefit_ratio.is_finite() && p.min_benefit_ratio >= 0.0,
                "migration min_benefit_ratio must be a non-negative finite number, got {}",
                p.min_benefit_ratio
            );
        }
        MigrationController {
            predictive,
            reservations: Vec::new(),
            outcomes: MigrationOutcomes::default(),
        }
    }

    pub(super) fn predictive(&self) -> Option<PredictiveMigration> {
        self.predictive
    }

    /// Records a destination-side block reservation for `id`.
    pub(super) fn reserve(&mut self, id: RequestId, blocks: u64) {
        debug_assert!(
            !self.reservations.iter().any(|&(r, _)| r == id),
            "{id} reserved twice"
        );
        self.reservations.push((id, blocks));
    }

    /// Consumes `id`'s reservation, returning the reserved block count.
    pub(super) fn take_reservation(&mut self, id: RequestId) -> Option<u64> {
        let at = self.reservations.iter().position(|&(r, _)| r == id)?;
        Some(self.reservations.swap_remove(at).1)
    }
}

impl Shard<'_> {
    /// A request just produced its boundary token: flip it into the
    /// answering phase and let the controller decide whether its KV moves.
    pub(super) fn on_phase_transition(&mut self, handle: ReqHandle, now: SimTime) {
        let id = {
            let st = &mut self.states[handle];
            st.phase = Phase::Answering;
            if self.policy.resets_quanta_at_transition() {
                st.quanta_used = 0;
                st.tokens_in_quantum = 0;
            }
            st.spec.id
        };
        // The phase flip (and, for PASCAL, the quanta reset) changed this
        // request's priority key — and its instance's phase counts, before
        // the sweep below reads them.
        self.sync_member(handle);
        let (current, needed_blocks) = {
            let st = &self.states[handle];
            (
                st.instance,
                self.geometry.blocks_for_tokens(st.tokens_needed_next()),
            )
        };
        // The remaining-service view at decision time: one predictor query
        // feeds the cost/benefit test and, if the transfer launches, the
        // calibration fields of the migration record.
        let predicted_remaining = self.predicted_remaining_tokens(handle);
        let mut stats = std::mem::take(&mut self.scratch.stats);
        self.collect_stats_into(now, &mut stats);
        let cost = self.migration_cost(handle, predicted_remaining);
        self.migration_ctl.outcomes.considered += 1;
        self.emit_trace(
            now,
            Some(self.global_instance(current)),
            Some(id),
            TraceEventKind::MigrationConsidered {
                tier: EscapeTier::Intra,
            },
        );
        // A saturated shard — every instance SLO-unhealthy (Algorithm 2
        // runs on its all-unhealthy fallback), or no instance able to hold
        // this request's KV right now (the memory pressure behind the
        // Fig. 7 override) — escalates the decision to the engine: the
        // request becomes a cross-shard escape candidate, re-evaluated at
        // shard granularity over the slower interconnect once this
        // iteration's transitions have all landed. A `MigrateTo` inside a
        // fully unhealthy shard would only shuffle KV between two
        // saturated instances, so it defers too — keeping its destination
        // as the intra-shard fallback in case no sibling shard can take
        // the request.
        let can_escape = self.cross_escape_enabled
            && matches!(
                self.policy,
                pascal_sched::SchedPolicy::Pascal(c) if c.migration_enabled
            );
        let all_unhealthy = !stats.iter().any(|s| s.slo_ok);
        // A *draining* instance is filtered out of the monitor sweep, so
        // the policy's decision (which expects its own row) cannot run:
        // the transition becomes a drain escape instead — cross-shard when
        // the run has that path, an intra-shard move (same cost/benefit
        // veto) otherwise. Down instances never emit tokens, so only
        // `Draining` reaches this. The `considered` tally above already
        // counted this decision.
        if self.health[current as usize] != crate::fleet::HealthState::Healthy {
            if can_escape {
                self.cross_escape_outbox.push(EscapeCandidate {
                    req: id,
                    handle,
                    intra_fallback: None,
                });
            } else if cost.is_some_and(|c| c.vetoes()) {
                self.migration_ctl.outcomes.vetoed_by_cost += 1;
                self.emit_trace(
                    now,
                    Some(self.global_instance(current)),
                    Some(id),
                    TraceEventKind::MigrationVetoed {
                        tier: EscapeTier::Intra,
                    },
                );
            } else if let Some(dest) = self.policy.cross_shard_instance(needed_blocks, &stats) {
                self.start_migration(handle, dest, predicted_remaining, now);
            }
            self.scratch.stats = stats;
            return;
        }
        match self
            .policy
            .predictive_migration_decision(current, needed_blocks, &stats, cost)
        {
            MigrationDecision::Stay => {
                let saturated =
                    all_unhealthy || !stats.iter().any(|s| s.fits_blocks(needed_blocks));
                if can_escape && saturated {
                    self.cross_escape_outbox.push(EscapeCandidate {
                        req: id,
                        handle,
                        intra_fallback: None,
                    });
                }
            }
            MigrationDecision::VetoedByCost(_) => {
                // The cheaper intra-shard move already failed the cost
                // test; the pricier interconnect cannot pass it either.
                self.migration_ctl.outcomes.vetoed_by_cost += 1;
                self.emit_trace(
                    now,
                    Some(self.global_instance(current)),
                    Some(id),
                    TraceEventKind::MigrationVetoed {
                        tier: EscapeTier::Intra,
                    },
                );
            }
            MigrationDecision::MigrateTo(dest) if can_escape && all_unhealthy => {
                self.cross_escape_outbox.push(EscapeCandidate {
                    req: id,
                    handle,
                    intra_fallback: Some(dest),
                });
            }
            MigrationDecision::MigrateTo(dest) => {
                self.start_migration(handle, dest, predicted_remaining, now);
            }
        }
        self.scratch.stats = stats;
    }

    /// Executes a deferred intra-shard migration — the fallback when a
    /// cross-shard escape found no sibling shard to land on. The decision
    /// (`dest`) was made at the phase transition; only the launch was
    /// deferred, so the controller re-derives the predictor's
    /// remaining-service view and launches as usual.
    pub(super) fn launch_deferred_migration(&mut self, handle: ReqHandle, dest: u32, now: SimTime) {
        let predicted_remaining = self.predicted_remaining_tokens(handle);
        self.start_migration(handle, dest, predicted_remaining, now);
    }

    /// Cost/benefit inputs for `handle`'s migration decision, or `None`
    /// when the predictive controller is off (or no predictor is
    /// configured) — which makes the decision exactly the reactive
    /// Algorithm 2.
    pub(super) fn migration_cost(
        &self,
        handle: ReqHandle,
        predicted_remaining: Option<f64>,
    ) -> Option<MigrationCost> {
        let predictive = self.migration_ctl.predictive()?;
        self.predictor.as_ref()?;
        let bytes = context_kv_bytes(&self.geometry, &self.states[handle]);
        Some(MigrationCost {
            transfer_time: self.config.fabric.transfer_time(bytes),
            predicted_remaining_service: predicted_remaining
                .map(|tokens| self.config.target_tpot.mul_f64(tokens)),
            min_benefit_ratio: predictive.min_benefit_ratio,
        })
    }

    pub(super) fn start_migration(
        &mut self,
        handle: ReqHandle,
        dest: u32,
        predicted_remaining: Option<f64>,
        now: SimTime,
    ) {
        // Under the adaptive policy the destination's KV blocks are reserved
        // up front; if that fails the request stays home (the race-free form
        // of the Fig. 7 override). NonAdaptive migrates blindly and may land
        // in the destination's CPU pool.
        let id = self.states[handle].spec.id;
        let needed = self
            .geometry
            .blocks_for_tokens(self.states[handle].tokens_needed_next());
        if self.instances[dest as usize].inst.gpu.try_alloc(needed) {
            self.migration_ctl.reserve(id, needed);
        } else if self.policy.adaptive_migration() {
            self.migration_ctl.outcomes.aborted_no_reservation += 1;
            let from = self.states[handle].instance;
            self.emit_trace(
                now,
                Some(self.global_instance(from)),
                Some(id),
                TraceEventKind::MigrationAborted {
                    tier: EscapeTier::Intra,
                },
            );
            return;
        }
        let (from, held, bytes) = {
            let st = &mut self.states[handle];
            debug_assert_eq!(st.kv_location, KvLocation::Gpu);
            st.resident_since = None;
            (
                st.instance,
                st.held_gpu_blocks,
                context_kv_bytes(&self.geometry, st),
            )
        };
        self.set_kv_location(handle, KvLocation::Migrating);
        self.instances[from as usize].dying_blocks += held;
        let (_, finish) = self
            .fabric
            .migrate(now, from as usize, dest as usize, bytes);
        {
            let st = &mut self.states[handle];
            st.migration = Some(MigrationRecord {
                from_instance: self.offset + from,
                to_instance: self.offset + dest,
                started: now,
                finished: finish,
                bytes,
                stall: None,
                predicted_remaining_tokens: predicted_remaining,
                actual_remaining_tokens: st.spec.output_tokens() - st.tokens_generated,
            });
        }
        self.migration_ctl.outcomes.launched += 1;
        self.migration_ctl.outcomes.bytes_moved += bytes;
        self.emit_trace(
            now,
            Some(self.offset + from),
            Some(id),
            TraceEventKind::MigrationLaunched {
                tier: EscapeTier::Intra,
                to_shard: self.id,
                to_instance: self.offset + dest,
                bytes,
            },
        );
        self.queue.schedule(
            finish,
            Event::MigrationDone {
                req: handle,
                to: dest,
            },
        );
    }

    pub(super) fn on_migration_done(&mut self, handle: ReqHandle, to: u32, now: SimTime) {
        let (from, gpu_blocks) = {
            let st = &mut self.states[handle];
            assert_eq!(st.kv_location, KvLocation::Migrating);
            let blocks = st.held_gpu_blocks;
            st.held_gpu_blocks = 0;
            (st.instance, blocks)
        };
        self.instances[from as usize].inst.gpu.free(gpu_blocks);
        self.instances[from as usize].dying_blocks -= gpu_blocks;
        let global = self.global_instance(to);
        self.states[handle].instances_visited.push(global);
        self.move_member(handle, to);
        self.land_migration(handle, to, now);
        // A destination that fail-stopped mid-transfer strands the request
        // after the landing's normal accounting (pool conservation holds);
        // the source losing a member may complete its drain.
        if self.health[to as usize] == crate::fleet::HealthState::Down {
            self.strand_request(handle, now);
        }
        self.check_drain_complete(from, now);
        self.try_schedule(from, now);
        self.try_schedule(to, now);
    }

    /// Lands a migrated KV cache on `instance` of this shard — the shared
    /// tail of intra- and cross-shard transfers. Consumes the reservation
    /// made at launch time if one exists; otherwise tries to allocate on
    /// arrival; otherwise the KV falls into the destination's CPU pool and
    /// the request must wait for a reload — the stall the adaptive
    /// migration policy exists to avoid (Fig. 7, Fig. 15). The request
    /// must already be a member of `instance` with its state in this
    /// shard's slab; leaving `Migrating` files it among the destination's
    /// candidates.
    pub(super) fn land_migration(&mut self, handle: ReqHandle, instance: u32, now: SimTime) {
        let id = self.states[handle].spec.id;
        let needed = self
            .geometry
            .blocks_for_tokens(self.states[handle].tokens_needed_next());
        let in_cpu = if let Some(reserved) = self.migration_ctl.take_reservation(id) {
            // Blocks were reserved when the transfer launched; no tokens were
            // generated in flight, so the reservation is still exact.
            debug_assert_eq!(reserved, needed);
            let st = &mut self.states[handle];
            st.held_gpu_blocks = reserved;
            st.resident_since = Some(now);
            false
        } else if self.instances[instance as usize].inst.gpu.try_alloc(needed) {
            let st = &mut self.states[handle];
            st.held_gpu_blocks = needed;
            st.resident_since = Some(now);
            false
        } else {
            self.migration_ctl.outcomes.landed_in_cpu += 1;
            let cpu_blocks = {
                let st = &mut self.states[handle];
                let b = self.geometry.blocks_for_tokens(st.context_tokens());
                st.held_cpu_blocks = b;
                b
            };
            self.instances[instance as usize].inst.cpu.alloc(cpu_blocks);
            true
        };
        let landed = if in_cpu {
            KvLocation::Cpu
        } else {
            KvLocation::Gpu
        };
        self.set_kv_location(handle, landed);
        self.emit_trace(
            now,
            Some(self.global_instance(instance)),
            Some(id),
            TraceEventKind::MigrationLanded { in_cpu },
        );
    }

    /// The source side of a cross-shard or cross-region landing: frees the
    /// migrated request's GPU blocks, unfiles it and takes its state out of
    /// this shard's slab. Returns the state (holding no blocks) and the
    /// instance it left.
    pub(super) fn depart_migrated(&mut self, handle: ReqHandle) -> (RequestState, u32) {
        self.remove_member(handle);
        let mut st = self.states.remove(handle);
        assert_eq!(st.kv_location, KvLocation::Migrating);
        let rt = &mut self.instances[st.instance as usize];
        rt.inst.gpu.free(st.held_gpu_blocks);
        rt.dying_blocks -= st.held_gpu_blocks;
        st.held_gpu_blocks = 0;
        let from = st.instance;
        (st, from)
    }

    /// First execution after a migration landed: stamp the stall (landing →
    /// resume) on the record and the run tally.
    pub(super) fn stamp_migration_resume(&mut self, handle: ReqHandle, now: SimTime) {
        let Some(st) = self.states.get_mut(handle) else {
            return;
        };
        if let Some(m) = &mut st.migration {
            if m.stall.is_none() {
                let stall = now.saturating_since(m.finished);
                m.stall = Some(stall);
                self.migration_ctl.outcomes.total_stall += stall;
            }
        }
    }
}
