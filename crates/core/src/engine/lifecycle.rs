//! The per-request lifecycle state machine.
//!
//! Arrival → (admission) → placement → prefill → reasoning → answering →
//! completion, plus the preemption transitions (offload to CPU, reload to
//! GPU) and the per-iteration residency planning that drives them. Phase
//! boundaries hand off to the [migration controller](super::migration);
//! arrivals consult the [admission controller](super::admission) before any
//! state is created.
//!
//! Everything here is the engine's hot path: request state is reached
//! through slab handles (one array index per touch), every state change is
//! filed through the [member mutators](super::members), and the scheduling
//! pass reads the instance's ordered candidate index and resident set,
//! assembling its desired/batch sets in the shard's
//! [`ScheduleScratch`] buffers — so an iteration
//! on this full path costs O(batch) and allocates nothing. A decode launch
//! that may repeat unchanged — also one that left members out to wait for
//! a reload, a grant or a prefill — opens a [steady run](super::steady),
//! whose next iterations replay in O(1) without coming here. At a member's
//! edge the run sends only that member's token through
//! [`Shard::emit_token`] (completion, the phase transition, the first
//! answering token, the demotion), and [`Shard::try_schedule`] first lets
//! the run decide its next launch ([`Shard::resume_run`]): it relaunches
//! itself or pauses through a newcomer's prefill in O(1), or plans any
//! other launch as the planner's steps below, [`Shard::desired_prefix`],
//! [`Shard::evict_undesired`] and [`Shard::admit_desired`], would over its
//! members' owed tokens, visiting only the candidates whose fate changes
//! (its evictees offloaded through [`Shard::offload_evictees`], its grants
//! made by [`Shard::admit_desired`] over just those candidates).

use pascal_cluster::{KvLocation, ReqHandle, RequestState};
use pascal_model::DecodeBatch;
use pascal_sched::SchedPolicy;
use pascal_sim::{SimDuration, SimTime};
use pascal_telemetry::{FullPathCause, TraceEventKind};
use pascal_workload::Phase;

use super::{context_kv_bytes, Event, IterationKind, ScheduleScratch, Shard};

impl Shard<'_> {
    // ----- arrival + token/phase machinery --------------------------------

    /// Places an *already admitted* arrival on the monitor sweep it was
    /// admitted on: prediction-sample logging, Algorithm 1 placement,
    /// state creation and the first scheduling attempt. The engine's
    /// arrival router calls this once admission (and any spill) resolved
    /// which shard receives the request.
    pub(super) fn place_arrival(
        &mut self,
        spec: pascal_workload::RequestSpec,
        stats: &[pascal_cluster::InstanceStats],
        now: SimTime,
    ) {
        // Log the estimate the scheduler is about to act on (pre-observe:
        // this request's own lengths are still hidden from the predictor).
        if let Some(est) = self.estimate(&spec) {
            self.prediction_samples
                .push(pascal_metrics::PredictionSample {
                    id: spec.id,
                    predicted_reasoning_tokens: est.reasoning_tokens,
                    actual_reasoning_tokens: spec.reasoning_tokens,
                    predicted_total_tokens: est.total_tokens(),
                    actual_total_tokens: spec.output_tokens(),
                });
        }
        // A fully failed shard (every instance down, so the monitor sweep
        // is empty) has nowhere to put the request: it strands on arrival.
        // Only reachable under a fleet schedule — a static fleet always has
        // instances to report.
        if stats.is_empty() {
            self.fleet.stranded += 1;
            // The arrival edge opens the request's timeline, so the
            // latency anatomy accounts for it like any other stranding.
            self.emit_trace(now, None, Some(spec.id), TraceEventKind::Arrival);
            self.emit_trace(now, None, Some(spec.id), TraceEventKind::RequestStranded);
            return;
        }
        let target = self.policy.place_new_request(stats);
        let mut state = pascal_cluster::RequestState::new(spec, target, self.config.target_tpot);
        // Speculative demotion (§IV-C made predictive): an incoming
        // reasoning request whose *predicted* total reasoning length
        // exceeds the threshold starts life in the low-priority queue
        // instead of waiting for its generated tokens to cross it.
        if let (Some(pred), Some(threshold)) =
            (&self.predictor, self.policy.demotion_threshold_tokens())
        {
            if state.phase == Phase::Reasoning && pred.predicts_oversized(&state.spec, threshold) {
                state.demoted = true;
            }
        }
        let id = state.spec.id;
        let speculatively_demoted = state.demoted;
        // Records carry global instance ids; a one-shard cluster has
        // offset 0 and this is the identity.
        state.instances_visited[0] = self.global_instance(target);
        let handle = self.states.insert(state);
        self.add_member(handle, target);
        let at_instance = Some(self.global_instance(target));
        self.emit_trace(now, at_instance, Some(id), TraceEventKind::Arrival);
        if speculatively_demoted {
            self.emit_trace(
                now,
                at_instance,
                Some(id),
                TraceEventKind::SpeculativeDemotion,
            );
        }
        self.try_schedule(target, now);
    }

    /// Ends the in-flight iteration on `instance`: closes the batch and
    /// emits one token per member (firing phase transitions and
    /// completions). The caller — the engine's event handler — follows up
    /// with [`Shard::try_schedule`] after it has resolved any escapes the
    /// transitions queued, so an escaping request cannot be
    /// relaunched underneath its own migration decision.
    pub(super) fn finish_iteration(&mut self, instance: u32, now: SimTime) {
        let cause = self.instances[instance as usize].steady.cause();
        self.count_full_path(cause);
        self.catch_up(instance, cause);
        let kind = self.instances[instance as usize].current_kind;
        self.instances[instance as usize].inst.compute_busy = false;

        // A fail-stop mid-iteration loses the whole batch: no token is
        // emitted, every member strands. (A *drain* never takes this path —
        // draining instances finish their residents normally.)
        if self.health[instance as usize] == crate::fleet::HealthState::Down {
            let mut batch = std::mem::take(&mut self.instances[instance as usize].current_batch);
            for handle in batch.drain(..) {
                self.strand_request(handle, now);
            }
            self.instances[instance as usize].current_batch = batch;
            return;
        }

        // Drain by index so the batch vector keeps its capacity for the
        // next launch; nothing inside the loop touches the batch.
        let batch_len = self.instances[instance as usize].current_batch.len();
        for i in 0..batch_len {
            let handle = self.instances[instance as usize].current_batch[i];
            self.emit_token(handle, kind, now);
        }
        self.instances[instance as usize].current_batch.clear();
        self.count_work(|w| w.tokens += batch_len as u64);
    }

    pub(super) fn on_offload_done(&mut self, handle: ReqHandle, now: SimTime) {
        let (id, instance, blocks, cpu_blocks) = {
            let st = &mut self.states[handle];
            assert_eq!(st.kv_location, KvLocation::OffloadingToCpu);
            let blocks = st.held_gpu_blocks;
            st.held_gpu_blocks = 0;
            // The CPU copy holds the actual context, without growth headroom.
            let cpu_blocks = self.geometry.blocks_for_tokens(st.context_tokens());
            st.held_cpu_blocks = cpu_blocks;
            (st.spec.id, st.instance, blocks, cpu_blocks)
        };
        // Back among the candidates.
        self.set_kv_location(handle, KvLocation::Cpu);
        let rt = &mut self.instances[instance as usize];
        rt.dying_blocks -= blocks;
        rt.inst.gpu.free(blocks);
        rt.inst.cpu.alloc(cpu_blocks);
        self.emit_trace(
            now,
            Some(self.global_instance(instance)),
            Some(id),
            TraceEventKind::OffloadDone,
        );
        // The instance fail-stopped while the offload was in flight: the
        // CPU copy just landed on a dead host. Strand after the normal
        // accounting so pool conservation holds through the outage.
        if self.health[instance as usize] == crate::fleet::HealthState::Down {
            self.strand_request(handle, now);
            return;
        }
        self.try_schedule(instance, now);
    }

    pub(super) fn on_reload_done(&mut self, handle: ReqHandle, now: SimTime) {
        let (id, instance, cpu_blocks) = {
            let st = &mut self.states[handle];
            assert_eq!(st.kv_location, KvLocation::ReloadingToGpu);
            st.resident_since = Some(now);
            let cpu_blocks = st.held_cpu_blocks;
            st.held_cpu_blocks = 0;
            (st.spec.id, st.instance, cpu_blocks)
        };
        self.set_kv_location(handle, KvLocation::Gpu);
        self.instances[instance as usize].inst.cpu.free(cpu_blocks);
        self.emit_trace(
            now,
            Some(self.global_instance(instance)),
            Some(id),
            TraceEventKind::ReloadDone,
        );
        // Same as OffloadDone: a reload landing on a fail-stopped instance
        // strands after its normal accounting.
        if self.health[instance as usize] == crate::fleet::HealthState::Down {
            self.strand_request(handle, now);
            return;
        }
        self.try_schedule(instance, now);
    }

    /// Closes one batch member's iteration and emits its token: running
    /// bookkeeping, quantum accounting, demotions, phase transitions and
    /// completion — one slab access for all of it ([`close_token`]), then
    /// one re-filing of the member (pacer deadline, predicted growth, and —
    /// at a quantum boundary or demotion — its candidate key and `r_i`/`a_i`
    /// counts).
    pub(super) fn emit_token(&mut self, handle: ReqHandle, kind: IterationKind, now: SimTime) {
        let edges = close_token(&mut self.states[handle], kind, now, &self.policy);
        let (id, at_instance) = {
            let st = &self.states[handle];
            (st.spec.id, st.instance)
        };
        // A demotion or quantum boundary moves the priority key and the
        // instance's `r_i`/`a_i`; any other token only the pacer and the
        // predicted growth.
        if edges.key_changed || edges.demoted_now {
            self.sync_member(handle);
        } else {
            self.file_token(handle);
        }
        if edges.demoted_now {
            let global = self.global_instance(at_instance);
            self.emit_trace(now, Some(global), Some(id), TraceEventKind::Demoted);
        }

        if let (Some(threshold), Some(pred)) = (edges.crossed_threshold, &mut self.predictor) {
            pred.observe_threshold_crossing(&self.states[handle].spec, threshold);
            self.refresh_estimates();
        }

        if edges.first_answer {
            let global = self.global_instance(at_instance);
            self.emit_trace(
                now,
                Some(global),
                Some(id),
                TraceEventKind::FirstAnswerToken,
            );
        }
        if edges.done {
            self.complete(handle, now);
            return;
        }
        if edges.transitioned {
            let global = self.global_instance(at_instance);
            self.emit_trace(now, Some(global), Some(id), TraceEventKind::PhaseTransition);
            self.on_phase_transition(handle, now);
        }
    }

    pub(super) fn complete(&mut self, handle: ReqHandle, now: SimTime) {
        self.remove_member(handle);
        let st = self.states.remove(handle);
        let id = st.spec.id;
        let instance = st.instance as usize;
        let gpu_blocks = st.held_gpu_blocks;
        let cpu_blocks = st.held_cpu_blocks;
        if gpu_blocks > 0 {
            self.instances[instance].inst.gpu.free(gpu_blocks);
        }
        if cpu_blocks > 0 {
            self.instances[instance].inst.cpu.free(cpu_blocks);
        }
        // Completion is the online learning signal: the spec carries the
        // actual lengths, now revealed. Completions arrive in deterministic
        // event order, so predictor state stays replayable.
        if let Some(pred) = &mut self.predictor {
            pred.observe(&st.spec);
            self.refresh_estimates();
        }
        self.emit_trace(
            now,
            Some(self.global_instance(st.instance)),
            Some(id),
            TraceEventKind::Completed {
                tokens: u64::from(st.tokens_generated),
            },
        );
        let record = st.into_record(now);
        self.observe_slo(&record, now);
        self.records.push(record);
        // A draining instance completes its drain when its last member
        // finishes; a healthy instance pays one comparison here.
        self.check_drain_complete(instance as u32, now);
    }

    /// Feeds one completion to the SLO burn-rate tracker (when alerting is
    /// configured) and emits/records any rule edges it causes. The same
    /// population as `slo_violation_rate`: requests without answering
    /// tokens have no QoE and are excluded. Observation only — nothing the
    /// scheduler reads is touched.
    fn observe_slo(&mut self, record: &pascal_metrics::RequestRecord, now: SimTime) {
        let Some(tracker) = &mut self.slo_tracker else {
            return;
        };
        let Some(qoe) =
            pascal_metrics::answering_qoe(record, &pascal_metrics::QoeParams::paper_eval())
        else {
            return;
        };
        let edges = tracker.observe(now, qoe < pascal_metrics::SLO_QOE_THRESHOLD);
        for edge in edges {
            if edge.fired {
                self.alerts.push(pascal_telemetry::SloAlertRecord {
                    at: now,
                    region: self.region(),
                    shard: self.id,
                    rule: edge.rule,
                    burn_milli: edge.burn_milli,
                });
                self.emit_trace(
                    now,
                    None,
                    None,
                    TraceEventKind::SloAlertFired {
                        rule: edge.rule,
                        burn_milli: edge.burn_milli,
                    },
                );
            } else {
                self.emit_trace(
                    now,
                    None,
                    None,
                    TraceEventKind::SloAlertResolved { rule: edge.rule },
                );
            }
        }
    }

    // ----- the scheduling core --------------------------------------------

    /// Plans residency and, if possible, launches the next iteration. On a
    /// busy instance it only settles whether an open steady run survives
    /// the non-member changes the caller just made; after a steady run's
    /// edge step or a prefill it paused for, the run plans its own next
    /// launch ([`Shard::resume_run`]).
    pub(super) fn try_schedule(&mut self, instance: u32, now: SimTime) {
        let rt = &self.instances[instance as usize];
        if rt.inst.compute_busy {
            self.recheck_run(instance);
            return;
        }
        if rt.steady.is_resuming() && self.resume_run(instance, now) {
            return;
        }
        // A down instance never launches. Draining instances still
        // schedule: their residents must finish (or migrate) for the drain
        // to complete — only *new* placement avoids them.
        if self.health[instance as usize] == crate::fleet::HealthState::Down {
            return;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        #[cfg(debug_assertions)]
        self.assert_candidate_order(instance);

        // 1. Desired prefix of the candidate index under the block budget.
        let prefix = self.desired_prefix(
            instance,
            |_, st| (st.tokens_needed_next(), st.held_gpu_blocks),
            &mut scratch.desired,
        );
        self.count_work(|w| w.planner_member_visits += prefix.visited);
        // 2. Preempt GPU residents that fell out of the desired set.
        self.evict_undesired(instance, prefix.residents, now, &mut scratch);
        // 3. Admit the desired set.
        let decode_context = self.admit_desired(instance, now, &mut scratch);

        // 4. Launch: prefill takes priority (vLLM 0.6.1 semantics), else a
        //    decode step over every runnable resident. The launched batch
        //    is swapped into the instance (its drained predecessor's
        //    capacity swaps back into the scratch) — no allocation.
        if !scratch.prefill.is_empty() {
            let duration = self.start_prefill(instance, now, &scratch.prefill, &scratch.prompts);
            let rt = &mut self.instances[instance as usize];
            std::mem::swap(&mut rt.current_batch, &mut scratch.prefill);
            rt.current_kind = IterationKind::Prefill;
            rt.inst.compute_busy = true;
            self.queue
                .schedule(now + duration, Event::IterationDone { instance });
            self.no_run_at_launch(instance, FullPathCause::PrefillLaunch);
        } else if !scratch.decode.is_empty() {
            let duration = self.perf.decode_step_time(DecodeBatch {
                num_seqs: scratch.decode.len() as u32,
                total_context_tokens: decode_context,
            });
            for &handle in &scratch.decode {
                self.stamp_migration_resume(handle, now);
                self.states[handle].begin_running(now);
            }
            let rt = &mut self.instances[instance as usize];
            std::mem::swap(&mut rt.current_batch, &mut scratch.decode);
            rt.current_kind = IterationKind::Decode;
            rt.inst.compute_busy = true;
            self.queue
                .schedule(now + duration, Event::IterationDone { instance });
            // The batch holds exactly the blocks it needs: its next
            // iterations may replay in closed form, whatever desired
            // members it left out.
            if prefix.excess {
                self.no_run_at_launch(instance, FullPathCause::ExcessBlocks);
            } else {
                self.open_steady_run(instance, now, duration, decode_context, &scratch.desired);
            }
        }
        self.scratch = scratch;
    }

    /// Step 2 of a scheduling pass: offloads the GPU residents that fell
    /// out of `scratch.desired`, of which `desired_residents` are
    /// resident, in ascending request-id order. Every resident is a
    /// candidate and the desired set is a key-order prefix, so a resident
    /// is desired exactly when its key does not sort after the last
    /// desired key; when the desired set already holds every resident
    /// there is no evictee, and the resident scan is skipped. A member of
    /// an open steady run on the instance (planning its own launch) first
    /// leaves the run through its latest token ([`Shard::leave_run`]).
    pub(super) fn evict_undesired(
        &mut self,
        instance: u32,
        desired_residents: usize,
        now: SimTime,
        scratch: &mut ScheduleScratch,
    ) {
        scratch.evictees.clear();
        let i = instance as usize;
        if self.instances[i].residents.len() <= desired_residents {
            return;
        }
        let filed_key = |handle: ReqHandle| {
            self.member_mon[handle.index()]
                .key
                .expect("desired members and residents are candidates")
        };
        let last_desired = scratch.desired.last().map(|&(handle, _)| filed_key(handle));
        let residents = &self.instances[i].residents;
        for (_, handle) in residents.iter() {
            if last_desired.is_none_or(|last| filed_key(handle) > last) {
                scratch.evictees.push(handle);
            }
        }
        let scanned = residents.len() as u64;
        self.count_work(|w| w.sched_member_scans += scanned);
        #[cfg(debug_assertions)]
        self.assert_evictees(instance, &scratch.desired, &scratch.evictees);
        self.offload_evictees(instance, now, &scratch.evictees);
    }

    /// Offloads `evictees`, GPU residents of `instance` in ascending
    /// request-id order. A member of an open steady run on the instance
    /// first leaves the run through its latest token ([`Shard::leave_run`]).
    pub(super) fn offload_evictees(&mut self, instance: u32, now: SimTime, evictees: &[ReqHandle]) {
        let run_open = self.instances[instance as usize].steady.is_open();
        for &handle in evictees {
            if run_open && self.in_run(handle) {
                self.leave_run(instance, handle);
            }
            self.start_offload(handle, now);
        }
    }

    /// Step 3 of a scheduling pass: admits `scratch.desired` in key order —
    /// grows residents, starts reloads, materializes warm requests and
    /// collects the prefill candidates within the prefill token budget
    /// (`scratch.prefill`, their prompts in `scratch.prompts`) and the
    /// runnable residents (`scratch.decode`) — and lists each entry's
    /// [`Admission`] in `scratch.admitted`. The desired entries carry their
    /// block needs from step 1. Returns the decode batch's context.
    ///
    /// A member of an open steady run on the instance is read through the
    /// tokens the run owes it ([`Shard::planned_need`]); its grant goes to
    /// the run's block total, and a member the pool refuses its growth
    /// leaves the run through its latest token ([`Shard::leave_run`]) to
    /// wait like any resident.
    pub(super) fn admit_desired(
        &mut self,
        instance: u32,
        now: SimTime,
        scratch: &mut ScheduleScratch,
    ) -> u64 {
        let i = instance as usize;
        scratch.prefill.clear();
        scratch.decode.clear();
        scratch.prompts.clear();
        scratch.admitted.clear();
        let run_open = self.instances[i].steady.is_open();
        let mut prefill_tokens: u64 = 0;
        let mut decode_context: u64 = 0;
        let visited = scratch.desired.len() as u64;
        self.count_work(|w| w.planner_member_visits += visited);

        for &(handle, target_blocks) in &scratch.desired {
            let st = &self.states[handle];
            let member = run_open && self.in_run(handle);
            let (location, needs_prefill, warm, prompt) = (
                st.kv_location,
                st.needs_prefill(),
                st.spec.warm_start,
                st.spec.prompt_tokens,
            );
            let admission = match location {
                KvLocation::Gpu => {
                    let (_, held, context) = self.planned_need(handle, st);
                    let runnable = held >= target_blocks
                        || self.instances[i].inst.gpu.try_alloc(target_blocks - held);
                    if runnable {
                        if member {
                            self.instances[i].steady.grow(target_blocks.max(held) - held);
                        } else {
                            self.states[handle].held_gpu_blocks = target_blocks.max(held);
                        }
                        decode_context += context;
                        scratch.decode.push(handle);
                        Admission::Decode
                    } else if member {
                        // Waits for in-flight offloads to free memory.
                        self.leave_run(instance, handle);
                        Admission::Refused
                    } else {
                        Admission::Waits
                    }
                }
                KvLocation::Cpu
                    // Reload: GPU blocks reserved up front, PCIe serialized.
                    if self.instances[i].inst.gpu.try_alloc(target_blocks) => {
                        let bytes = {
                            let st = &mut self.states[handle];
                            st.held_gpu_blocks = target_blocks;
                            context_kv_bytes(&self.geometry, st)
                        };
                        self.set_kv_location(handle, KvLocation::ReloadingToGpu);
                        let (_, finish) = self.instances[i].inst.pcie.enqueue(now, bytes);
                        self.queue
                            .schedule(finish, Event::ReloadDone { req: handle });
                        Admission::Reload
                    }
                KvLocation::None if warm
                    // Fig. 5 setup: the KV already exists logically; it
                    // materializes without prefill compute once admitted.
                    && self.instances[i].inst.gpu.try_alloc(target_blocks) => {
                        let st = &mut self.states[handle];
                        st.held_gpu_blocks = target_blocks;
                        st.resident_since = Some(now);
                        st.prefilled = true;
                        decode_context += st.context_tokens();
                        self.set_kv_location(handle, KvLocation::Gpu);
                        scratch.decode.push(handle);
                        Admission::Decode
                    }
                KvLocation::None if needs_prefill => {
                    // A lone oversized prompt may exceed the budget; always
                    // admit at least one prefill so it cannot starve.
                    let within_budget = scratch.prefill.is_empty()
                        || prefill_tokens + u64::from(prompt)
                            <= u64::from(self.config.prefill_token_budget);
                    if within_budget && self.instances[i].inst.gpu.try_alloc(target_blocks) {
                        self.states[handle].held_gpu_blocks = target_blocks;
                        prefill_tokens += u64::from(prompt);
                        scratch.prompts.push(prompt);
                        scratch.prefill.push(handle);
                        Admission::Prefill
                    } else {
                        Admission::Waits
                    }
                }
                _ => Admission::Waits, // reloading / none-but-impossible: wait
            };
            scratch.admitted.push((handle, admission));
        }
        decode_context
    }

    /// The full path's prefill launch of `prefill` (admitted, its blocks
    /// held, `prompts` its prompt lengths) on `instance` at `now`: the KV
    /// becomes resident as the pass runs, each request's segment opens and
    /// its queue wait is traced. Residency is filed before the segment
    /// opens, so the filing of a request in a prefill a steady run waits
    /// through never reads as a touch of a run member. Returns the
    /// prefill's duration; the caller launches it.
    pub(super) fn start_prefill(
        &mut self,
        instance: u32,
        now: SimTime,
        prefill: &[ReqHandle],
        prompts: &[u32],
    ) -> SimDuration {
        for &handle in prefill {
            self.set_kv_location(handle, KvLocation::Gpu);
            let st = &mut self.states[handle];
            st.begin_running(now);
            st.resident_since = Some(now);
        }
        let global = self.global_instance(instance);
        for &handle in prefill {
            let st = &self.states[handle];
            let id = st.spec.id;
            // Queue wait as observed at this launch: arrival to first
            // prefill compute. Saturating because a spilled arrival may
            // land on its serving region after its origin timestamp.
            let queued_ns = now.saturating_since(st.spec.arrival).as_nanos();
            self.emit_trace(
                now,
                Some(global),
                Some(id),
                TraceEventKind::PrefillStart { queued_ns },
            );
        }
        self.perf.prefill_time_batch(prompts)
    }

    /// Step 1 of a scheduling pass: the longest prefix of `instance`'s
    /// candidate index (ordered by priority key) whose block needs fit the
    /// budget, written into `desired` with each entry's need. Blocks held
    /// by dying allocations (offloads, outbound migrations) are
    /// unavailable; their total is maintained incrementally at every
    /// transfer launch and landing. `view` reads a member's KV tokens
    /// needed next and blocks held: its stored state in a scheduling pass,
    /// with the tokens a steady run still owes it in the run's debug check.
    /// Counts nothing: its callers count the visits it reports.
    pub(super) fn desired_prefix(
        &self,
        instance: u32,
        view: impl Fn(ReqHandle, &RequestState) -> (u64, u64),
        desired: &mut Vec<(ReqHandle, u64)>,
    ) -> Prefix {
        let rt = &self.instances[instance as usize];
        let budget = rt
            .inst
            .gpu
            .capacity_blocks()
            .map(|c| c.saturating_sub(rt.dying_blocks));
        desired.clear();
        let mut acc: u64 = 0;
        let mut prefix = Prefix::default();
        for &handle in rt.cands.values() {
            if desired.len() >= self.config.max_batch as usize {
                break;
            }
            prefix.visited += 1;
            let st = &self.states[handle];
            let (tokens, held) = view(handle, st);
            let blocks = self.geometry.blocks_for_tokens(tokens);
            let need = blocks.max(held);
            match budget {
                Some(b) if acc + need > b => break,
                _ => {
                    acc += need;
                    prefix.residents += usize::from(st.kv_location == KvLocation::Gpu);
                    prefix.excess |= held > blocks;
                    desired.push((handle, need));
                }
            }
        }
        prefix
    }

    /// Debug reference for the candidate index: every schedulable member,
    /// keyed and sorted from scratch.
    #[cfg(debug_assertions)]
    pub(super) fn assert_candidate_order(&self, instance: u32) {
        let rt = &self.instances[instance as usize];
        let mut reference: Vec<(pascal_sched::PriorityKey, ReqHandle)> = rt
            .inst
            .members
            .iter()
            .filter(|&(_, handle)| {
                !matches!(
                    self.states[handle].kv_location,
                    KvLocation::Migrating | KvLocation::OffloadingToCpu
                )
            })
            .map(|(_, handle)| (self.policy.priority_key(&self.states[handle]), handle))
            .collect();
        reference.sort_unstable_by_key(|&(key, _)| key);
        let indexed: Vec<_> = rt
            .cands
            .iter()
            .map(|(&key, &handle)| (key, handle))
            .collect();
        assert_eq!(
            indexed, reference,
            "candidate index of instance {instance} out of sync: a state change bypassed \
             the member mutators"
        );
    }

    /// Debug reference for the evictee set: every GPU-resident member
    /// outside the desired set, found by a full member scan.
    #[cfg(debug_assertions)]
    fn assert_evictees(&self, instance: u32, desired: &[(ReqHandle, u64)], evictees: &[ReqHandle]) {
        let mut desired: Vec<usize> = desired.iter().map(|&(h, _)| h.index()).collect();
        desired.sort_unstable();
        let reference: Vec<ReqHandle> = self.instances[instance as usize]
            .inst
            .members
            .iter()
            .map(|(_, handle)| handle)
            .filter(|&handle| {
                self.states[handle].kv_location == KvLocation::Gpu
                    && desired.binary_search(&handle.index()).is_err()
            })
            .collect();
        assert_eq!(
            evictees, reference,
            "resident set of instance {instance} out of sync: a state change bypassed the \
             member mutators"
        );
    }

    pub(super) fn start_offload(&mut self, handle: ReqHandle, now: SimTime) {
        let (id, instance, held, bytes) = {
            let st = &mut self.states[handle];
            debug_assert_eq!(st.kv_location, KvLocation::Gpu);
            st.resident_since = None;
            st.num_preemptions += 1;
            (
                st.spec.id,
                st.instance,
                st.held_gpu_blocks,
                context_kv_bytes(&self.geometry, st),
            )
        };
        self.set_kv_location(handle, KvLocation::OffloadingToCpu);
        self.instances[instance as usize].dying_blocks += held;
        self.emit_trace(
            now,
            Some(self.global_instance(instance)),
            Some(id),
            TraceEventKind::Preempted,
        );
        let (_, finish) = self.instances[instance as usize]
            .inst
            .pcie
            .enqueue(now, bytes);
        self.queue
            .schedule(finish, Event::OffloadDone { req: handle });
    }
}

/// What [`Shard::desired_prefix`] found besides the desired set.
#[derive(Default)]
pub(super) struct Prefix {
    /// How many desired members are GPU-resident.
    pub(super) residents: usize,
    /// Whether a desired member holds more blocks than it needs.
    pub(super) excess: bool,
    /// The candidates whose need it read.
    pub(super) visited: u64,
}

/// What the admission pass made of one desired candidate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Admission {
    /// Runnable in the decode batch: a resident, grown if it had to be, or
    /// a warm request materialized.
    Decode,
    /// A steady-run member the pool refused its growth: it left the run.
    Refused,
    /// Its reload started.
    Reload,
    /// Admitted to the prefill batch.
    Prefill,
    /// Left to wait: a reload in flight, or a grant, reload, warm request
    /// or prefill the pool or the prefill token budget refused.
    Waits,
}

/// What one token did to a batch member besides counting it: the edges of
/// its lifecycle the full path acts on. A token that reaches none of them
/// (the default) moves only the member's counts, pacer and predicted
/// growth — the only kind a steady run replays.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub(super) struct TokenEdges {
    /// A quantum ended: the priority key moved.
    pub(super) key_changed: bool,
    /// The member was demoted to the low-priority queue (§IV-C).
    pub(super) demoted_now: bool,
    /// The member's reasoning just passed the demotion threshold.
    pub(super) crossed_threshold: Option<u32>,
    /// The phase-boundary token: the member starts answering.
    pub(super) transitioned: bool,
    /// The member generated its last token.
    pub(super) done: bool,
    /// The first answering token: the instant the TTFT clock stops.
    pub(super) first_answer: bool,
}

/// One batch member's side of an iteration end at `now`: closes its
/// running segment and counts its token — quantum accounting, the demotion
/// check and the phase and completion tests. The per-token code both of
/// the full path and of the debug replay that checks a steady run's
/// closed form.
pub(super) fn close_token(
    st: &mut RequestState,
    kind: IterationKind,
    now: SimTime,
    policy: &SchedPolicy,
) -> TokenEdges {
    let mut edges = TokenEdges::default();
    st.end_running(now);
    if kind == IterationKind::Prefill {
        st.prefilled = true;
    }
    st.record_token(now);

    // Round-robin quantum accounting (§II-C).
    st.tokens_in_quantum += 1;
    if st.tokens_in_quantum >= policy.quantum() {
        st.quanta_used += 1;
        st.tokens_in_quantum = 0;
        edges.key_changed = true; // quanta feed the priority key
    }

    // PASCAL's conditional demotion (§IV-C).
    if let Some(threshold) = policy.demotion_threshold_tokens() {
        // `checked_add`: a u32::MAX threshold means "never demote" (the
        // ablation configs) and must never signal a crossing.
        if st.phase == Phase::Reasoning && Some(st.tokens_generated) == threshold.checked_add(1) {
            // The request just proved itself oversized mid-flight — the
            // early label the predictor cannot get from the
            // (survivorship-biased) completion stream.
            edges.crossed_threshold = Some(threshold);
        }
        if st.phase == Phase::Reasoning && !st.demoted && st.tokens_generated > threshold {
            st.demoted = true;
            edges.demoted_now = true;
        }
    }

    edges.transitioned = st.phase == Phase::Reasoning
        && st.tokens_generated == st.spec.reasoning_tokens
        && st.spec.answering_tokens > 0;
    // The token at index `reasoning_tokens` (this is token number
    // reasoning_tokens + 1) is the first the user reads — the instant the
    // paper's TTFT clock stops.
    edges.first_answer =
        st.spec.answering_tokens > 0 && st.tokens_generated == st.spec.reasoning_tokens + 1;
    edges.done = st.is_done();
    edges
}
