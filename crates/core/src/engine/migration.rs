//! Phase-boundary KV-cache migration (§IV-B) and the one path every move
//! takes, at every tier.
//!
//! A request's KV moves when it finishes its reasoning phase (the
//! Algorithm 2 decision, delegated to the policy) or leaves a draining
//! instance: within its shard over the shard's fabric, or — when the shard
//! is saturated — to a sibling shard over the region's interconnect or to
//! a remote region over the WAN (the engine's escapes, decided in
//! [`hierarchy`](super::hierarchy)). Whatever the tier, a move takes one
//! path:
//!
//! * the *predictive cost/benefit test* weighs the KV transfer time on the
//!   tier's link (from `pascal-model`) against the request's predicted
//!   remaining service (from `pascal-predict`): [`Shard::transfer_cost`];
//! * the destination reserves the KV blocks ([`Shard::reserve_landing`]);
//! * the source launches, handed the finish time on the tier's link
//!   ([`Shard::launch_migration`]), scheduling one
//!   [`Event::MigrationDone`] that names the destination's global shard;
//! * the engine lands it
//!   ([`Engine::land_migration`](super::hierarchy::Engine::land_migration)),
//!   and the destination consumes the reservation ([`Shard::land_kv`]).
//!
//! A decision that does not launch — considered, vetoed or aborted — is
//! counted in its tier's [`MigrationOutcomes`] fields and traced by
//! [`Shard::tally_move`]; launched transfers additionally record the
//! predicted-vs-actual remaining service at decision time so the cost
//! model's calibration is measurable after the run.

use pascal_cluster::{KvLocation, ReqHandle};
use pascal_metrics::{MigrationOutcomes, MigrationRecord};
use pascal_model::LinkSpec;
use pascal_sched::{MigrationCost, MigrationDecision};
use pascal_sim::SimTime;
use pascal_telemetry::{EscapeTier, TraceEventKind};
use pascal_workload::{Phase, RequestId};

use super::{context_kv_bytes, tier_between, EscapeCandidate, Event, Shard};

/// Cost/benefit configuration of predictive migration.
///
/// When set on `SimConfig`, the controller vetoes Algorithm 2 migrations
/// whose predicted remaining service — remaining tokens at the pacing
/// target — is below `min_benefit_ratio` transfer-times. Unset, migration
/// is exactly the paper's reactive Algorithm 2. The test prices absolute
/// length estimates and only a migrating policy consults it, so
/// [`SimConfig::validate`](crate::SimConfig::validate) refuses it with no
/// predictor or a rank-only one, and under `fcfs`, `rr` and
/// `pascal-nomigration`.
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
    /// migrating request. A move reserves in the *destination* shard's
    /// ledger, so landing always consumes from the shard that holds the
    /// blocks. A plain vector: at most a handful of transfers
    /// are ever in flight per shard, and the in-flight request has no
    /// handle on the destination yet, so the id is the only stable key.
    pub(super) reservations: Vec<(RequestId, u64)>,
    pub(super) outcomes: MigrationOutcomes,
}

impl MigrationController {
    pub(super) fn new(predictive: Option<PredictiveMigration>) -> Self {
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

/// One tier's counters in a [`MigrationOutcomes`]: the intra-shard ones
/// or the `cross_shard_*` / `cross_region_*` family — the one place the
/// three are told apart.
struct TierTally<'o> {
    considered: &'o mut u64,
    vetoed: &'o mut u64,
    aborted: &'o mut u64,
    launched: &'o mut u64,
    bytes_moved: &'o mut u64,
}

impl<'o> TierTally<'o> {
    fn of(o: &'o mut MigrationOutcomes, tier: EscapeTier) -> Self {
        match tier {
            EscapeTier::Intra => TierTally {
                considered: &mut o.considered,
                vetoed: &mut o.vetoed_by_cost,
                aborted: &mut o.aborted_no_reservation,
                launched: &mut o.launched,
                bytes_moved: &mut o.bytes_moved,
            },
            EscapeTier::CrossShard => TierTally {
                considered: &mut o.cross_shard_considered,
                vetoed: &mut o.cross_shard_vetoed_by_cost,
                aborted: &mut o.cross_shard_aborted,
                launched: &mut o.cross_shard_launched,
                bytes_moved: &mut o.cross_shard_bytes_moved,
            },
            EscapeTier::CrossRegion => TierTally {
                considered: &mut o.cross_region_considered,
                vetoed: &mut o.cross_region_vetoed_by_cost,
                aborted: &mut o.cross_region_aborted,
                launched: &mut o.cross_region_launched,
                bytes_moved: &mut o.cross_region_bytes_moved,
            },
        }
    }
}

/// A move decision that did not launch, as [`Shard::tally_move`] counts
/// and traces it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Verdict {
    /// Evaluated at the tier.
    Considered,
    /// Vetoed by the cost/benefit test priced on the tier's link.
    Vetoed,
    /// No destination instance qualified, or its reservation failed.
    Aborted,
}

impl Shard<'_> {
    /// A request just produced its boundary token: flip it into the
    /// answering phase and let the controller decide whether its KV moves.
    pub(super) fn on_phase_transition(&mut self, handle: ReqHandle, now: SimTime) {
        {
            let st = &mut self.states[handle];
            st.phase = Phase::Answering;
            if self.policy.resets_quanta_at_transition() {
                st.quanta_used = 0;
                st.tokens_in_quantum = 0;
            }
        }
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
        self.tally_move(EscapeTier::Intra, Verdict::Considered, handle, now);
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
        let can_escape = self.cross_escape_enabled;
        let all_unhealthy = !stats.iter().any(|s| s.slo_ok);
        // A *draining* instance is filtered out of the monitor sweep, so
        // the policy's decision (which expects its own row) cannot run:
        // the transition becomes a drain escape instead — cross-shard when
        // the run has that path, the intra-shard drain move on this sweep
        // otherwise. Down instances never emit tokens, so only `Draining`
        // reaches this. The `considered` tally above already counted this
        // decision.
        if self.health[current as usize] != crate::fleet::HealthState::Healthy {
            if can_escape {
                self.queue_escape(handle, None);
            } else {
                self.drain_move(handle, predicted_remaining, Some(&stats), now);
            }
            self.scratch.stats = stats;
            return;
        }
        let cost = self.transfer_cost(self.fabric.link(), handle, predicted_remaining);
        match self
            .policy
            .predictive_migration_decision(current, needed_blocks, &stats, cost)
        {
            MigrationDecision::Stay => {
                let saturated =
                    all_unhealthy || !stats.iter().any(|s| s.fits_blocks(needed_blocks));
                if can_escape && saturated {
                    self.queue_escape(handle, None);
                }
            }
            // The cheaper intra-shard move already failed the cost test;
            // the pricier links cannot pass it either.
            MigrationDecision::VetoedByCost(_) => {
                self.tally_move(EscapeTier::Intra, Verdict::Vetoed, handle, now);
            }
            MigrationDecision::MigrateTo(dest) if can_escape && all_unhealthy => {
                self.queue_escape(handle, Some(dest));
            }
            MigrationDecision::MigrateTo(dest) => {
                self.migrate_intra(handle, dest, predicted_remaining, now);
            }
        }
        self.scratch.stats = stats;
    }

    /// Queues `handle` for the engine's escape path, resolved right after
    /// the triggering event; `intra_fallback` is the intra-shard move to
    /// execute if no other shard takes the request.
    pub(super) fn queue_escape(&mut self, handle: ReqHandle, intra_fallback: Option<u32>) {
        let req = self.states[handle].spec.id;
        self.cross_escape_outbox.push(EscapeCandidate {
            req,
            handle,
            intra_fallback,
        });
    }

    /// Counts and traces one `tier` decision about `handle` that did not
    /// launch, at the request's instance on this (its source) shard.
    pub(super) fn tally_move(
        &mut self,
        tier: EscapeTier,
        verdict: Verdict,
        handle: ReqHandle,
        now: SimTime,
    ) {
        let tally = TierTally::of(&mut self.migration_ctl.outcomes, tier);
        let (count, kind) = match verdict {
            Verdict::Considered => (
                tally.considered,
                TraceEventKind::MigrationConsidered { tier },
            ),
            Verdict::Vetoed => (tally.vetoed, TraceEventKind::MigrationVetoed { tier }),
            Verdict::Aborted => (tally.aborted, TraceEventKind::MigrationAborted { tier }),
        };
        *count += 1;
        let st = &self.states[handle];
        let instance = self.global_instance(st.instance);
        self.emit_trace(now, Some(instance), Some(st.spec.id), kind);
    }

    /// Cost/benefit inputs for moving `handle`'s KV over `link`, or `None`
    /// when the predictive controller is off (or no predictor is
    /// configured) — which makes the decision exactly the reactive
    /// Algorithm 2.
    pub(super) fn transfer_cost(
        &self,
        link: LinkSpec,
        handle: ReqHandle,
        predicted_remaining: Option<f64>,
    ) -> Option<MigrationCost> {
        let predictive = self.migration_ctl.predictive()?;
        self.predictor.as_ref()?;
        let bytes = context_kv_bytes(&self.geometry, &self.states[handle]);
        Some(MigrationCost {
            transfer_time: link.transfer_time(bytes),
            predicted_remaining_service: predicted_remaining
                .map(|tokens| self.config.target_tpot.mul_f64(tokens)),
            min_benefit_ratio: predictive.min_benefit_ratio,
        })
    }

    /// An intra-shard move of `handle`'s KV to local instance `dest` over
    /// this shard's fabric: the destination's reservation, then the launch.
    pub(super) fn migrate_intra(
        &mut self,
        handle: ReqHandle,
        dest: u32,
        predicted_remaining: Option<f64>,
        now: SimTime,
    ) {
        let st = &self.states[handle];
        let (id, from) = (st.spec.id, st.instance);
        let needed = self.geometry.blocks_for_tokens(st.tokens_needed_next());
        let bytes = context_kv_bytes(&self.geometry, st);
        if !self.reserve_landing(id, dest, needed) {
            return self.tally_move(EscapeTier::Intra, Verdict::Aborted, handle, now);
        }
        let (_, finish) = self
            .fabric
            .migrate(now, from as usize, dest as usize, bytes);
        self.launch_migration(handle, self.id, dest, finish, predicted_remaining, now);
    }

    /// The destination side of a launch: reserves `needed` GPU blocks on
    /// local instance `to` for request `id` in this shard's ledger — the
    /// race-free form of the Fig. 7 override. Returns whether the move may
    /// launch: reserved, or blind under NonAdaptive, whose KV may then
    /// land in the destination's CPU pool.
    pub(super) fn reserve_landing(&mut self, id: RequestId, to: u32, needed: u64) -> bool {
        if self.instances[to as usize].inst.gpu.try_alloc(needed) {
            self.migration_ctl.reserve(id, needed);
            return true;
        }
        !self.policy.adaptive_migration()
    }

    /// The source side of every launch: `handle`'s KV leaves for local
    /// instance `to_instance` of global shard `to_shard` (this shard for
    /// an intra-shard move) over the tier's link, which the caller booked
    /// to clear at `finish`. The source keeps the GPU blocks, counted
    /// dying, until the landing frees them.
    pub(super) fn launch_migration(
        &mut self,
        handle: ReqHandle,
        to_shard: u32,
        to_instance: u32,
        finish: SimTime,
        predicted_remaining: Option<f64>,
        now: SimTime,
    ) {
        let tier = tier_between(self.id, to_shard, self.config.shards as u32);
        // Shards are equal-sized, so global instance ids run shard-major.
        let to_global = to_shard * self.instances.len() as u32 + to_instance;
        debug_assert_eq!(self.states[handle].kv_location, KvLocation::Gpu);
        self.set_kv_location(handle, KvLocation::Migrating);
        let st = &mut self.states[handle];
        st.resident_since = None;
        let (id, from) = (st.spec.id, st.instance);
        let bytes = context_kv_bytes(&self.geometry, st);
        st.migration = Some(MigrationRecord {
            from_instance: self.offset + from,
            to_instance: to_global,
            started: now,
            finished: finish,
            bytes,
            stall: None,
            predicted_remaining_tokens: predicted_remaining,
            actual_remaining_tokens: st.spec.output_tokens() - st.tokens_generated,
        });
        self.instances[from as usize].dying_blocks += st.held_gpu_blocks;
        let outcomes = &mut self.migration_ctl.outcomes;
        outcomes.launched += 1;
        outcomes.bytes_moved += bytes;
        if tier != EscapeTier::Intra {
            let tally = TierTally::of(outcomes, tier);
            *tally.launched += 1;
            *tally.bytes_moved += bytes;
        }
        self.emit_trace(
            now,
            Some(self.offset + from),
            Some(id),
            TraceEventKind::MigrationLaunched {
                tier,
                to_shard,
                to_instance: to_global,
                bytes,
            },
        );
        self.queue.schedule(
            finish,
            Event::MigrationDone {
                req: handle,
                to_shard,
                to_instance,
            },
        );
    }

    /// The destination side of every landing: `handle`, already a member
    /// of local instance `instance` with its state in this shard's slab,
    /// takes the blocks reserved at launch if there are any; otherwise
    /// allocates on arrival; otherwise its KV falls into the destination's
    /// CPU pool and the request must wait for a reload — the stall the
    /// adaptive migration policy exists to avoid (Fig. 7, Fig. 15).
    /// Leaving `Migrating` files it among the destination's candidates.
    pub(super) fn land_kv(&mut self, handle: ReqHandle, instance: u32, now: SimTime) {
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
