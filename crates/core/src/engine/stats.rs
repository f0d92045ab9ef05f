//! The instance-monitor sweep (Fig. 6's instance monitor).
//!
//! Assembles one [`InstanceStats`] snapshot per instance: answering SLO
//! health (`t_i`), KV footprint (`m_i`), queue counts (`r_i`, `a_i`), free
//! GPU blocks, and — when a consumer needs it — the predicted future KV
//! growth of the in-flight requests. Placement (Algorithm 1), migration
//! (Algorithm 2) and the admission controller all read this snapshot.
//!
//! Every row is read from the aggregates the
//! [member mutators](super::members) keep exact, so a sweep costs one row
//! per instance however deep the instance's backlog is; only a stale
//! earliest pacer deadline makes a row rescan its instance's answering
//! streams (counted as monitor member visits). Debug builds compare every
//! row with [`Shard::reference_row`], the from-scratch member walk.
//!
//! Hot-path consumers (arrival placement, phase transitions) sweep into a
//! reused buffer via [`Shard::collect_stats_into`]; the allocating
//! [`Shard::collect_stats`] remains for the engine's routing and escape
//! paths that need an owned snapshot.

use pascal_cluster::InstanceStats;
use pascal_sched::SchedPolicy;
use pascal_sim::SimTime;
use pascal_telemetry::{SeriesRow, SeriesScope};
use pascal_workload::Phase;

use super::Shard;

impl Shard<'_> {
    /// Monitor snapshot of every instance, written into `out` (cleared
    /// first) — the allocation-free form the hot path uses.
    pub(super) fn collect_stats_into(&self, now: SimTime, out: &mut Vec<InstanceStats>) {
        out.clear();
        let mut pacer_visits = 0;
        // Only healthy instances report: draining and down instances are
        // invisible to placement, migration targeting, admission projection
        // and the router's pool view. A static fleet is all-healthy, so the
        // filter never removes a row there.
        for (i, rt) in self.instances.iter().enumerate() {
            if self.health[i] != crate::fleet::HealthState::Healthy {
                continue;
            }
            let (slo_ok, visited) = rt.monitor.slo_ok(now);
            pacer_visits += visited;
            let stats = InstanceStats {
                instance: rt.inst.id,
                slo_ok,
                kv_footprint_bytes: rt.inst.kv_footprint_bytes(),
                reasoning_count: rt.monitor.reasoning,
                fresh_answering_count: rt.monitor.fresh_answering,
                gpu_free_blocks: rt.inst.gpu.free_blocks(),
                predicted_future_kv_bytes: rt.monitor.predicted_blocks
                    * self.geometry.block_bytes(),
            };
            #[cfg(debug_assertions)]
            assert_eq!(
                stats,
                self.reference_row(rt, now),
                "monitor row of instance {i} out of sync: a state change bypassed the \
                 member mutators"
            );
            out.push(stats);
        }
        self.count_work(|w| {
            w.monitor_rows += out.len() as u64;
            w.monitor_member_visits += pacer_visits;
        });
    }

    /// Whether any consumer reads `predicted_future_kv_bytes` this run:
    /// predicted growth feeds predictive Algorithm 1 placement (PASCAL
    /// only), the admission controller's pool projection, the autoscaler's
    /// demand estimate, and — in a multi-shard cluster — the predictive
    /// router's shard ranking, which reads the field through
    /// `PoolSnapshot` even under baseline policies. Rank-only predictors
    /// estimate nothing and contribute zero — consumers then degrade
    /// gracefully to current footprints. When no consumer reads the
    /// field, the engine keeps no per-member estimates at all.
    pub(super) fn wants_predicted_growth(&self) -> bool {
        matches!(self.policy, SchedPolicy::Pascal(_))
            || self.admission_ctl.enabled()
            || self.autoscaler.is_some()
            || (self.config.shards > 1
                && self.config.router == pascal_sched::RouterPolicy::Predictive)
    }

    /// One instance's monitor row recomputed from scratch by walking every
    /// member — the debug-build reference every served row is checked
    /// against. Asks the predictor directly, so it neither counts as work
    /// nor relies on the cached totals it checks. Members of an open
    /// steady run are read with the tokens the run owes each of them,
    /// without catching them up, so debug and release builds take the same
    /// path.
    #[cfg(debug_assertions)]
    pub(super) fn reference_row(&self, rt: &super::InstanceRt, now: SimTime) -> InstanceStats {
        let tpot = self.config.target_tpot.as_nanos();
        let mut slo_ok = true;
        let mut reasoning = 0u32;
        let mut fresh_answering = 0u32;
        for (_, handle) in rt.inst.members.iter() {
            let st = &self.states[handle];
            let owed = self.reference_owed(handle);
            match st.phase {
                Phase::Reasoning => {
                    if !st.demoted {
                        reasoning += 1;
                    }
                }
                Phase::Answering => {
                    if st.quanta_used == 0 {
                        fresh_answering += 1;
                    }
                    // `first + len × tpot` over the owed tokens too; past
                    // the end of time the stream is on pace.
                    let deadline = st.answers.first().and_then(|first| {
                        u64::from(st.answers.len() + owed)
                            .checked_mul(tpot)
                            .and_then(|ahead| first.as_nanos().checked_add(ahead))
                    });
                    if deadline.is_some_and(|at| now.as_nanos() >= at) {
                        slo_ok = false;
                    }
                }
            }
        }
        let predicted_future_kv_bytes = if self.wants_predicted_growth() {
            self.predictor.as_ref().map_or(0, |pred| {
                rt.inst
                    .members
                    .iter()
                    .map(|(_, handle)| {
                        let st = &self.states[handle];
                        let generated = st.tokens_generated + self.reference_owed(handle);
                        pred.predicted_remaining_tokens(&st.spec, generated)
                            .map_or(0, |remaining| {
                                self.geometry.bytes_for_tokens(remaining.round() as u64)
                            })
                    })
                    .sum()
            })
        } else {
            0
        };
        InstanceStats {
            instance: rt.inst.id,
            slo_ok,
            kv_footprint_bytes: rt.inst.kv_footprint_bytes(),
            reasoning_count: reasoning,
            fresh_answering_count: fresh_answering,
            gpu_free_blocks: rt.inst.gpu.free_blocks(),
            predicted_future_kv_bytes,
        }
    }

    /// Monitor snapshot of every instance, as an owned vector.
    pub(super) fn collect_stats(&self, now: SimTime) -> Vec<InstanceStats> {
        let mut out = Vec::with_capacity(self.instances.len());
        self.collect_stats_into(now, &mut out);
        out
    }

    /// One telemetry gauge sample of this shard at `at` — queue pressure,
    /// phase mix, KV occupancy, admission headroom and predictor accuracy
    /// so far. Read-only: sampling must not perturb the simulation, nor
    /// count as engine work. The KV gauges sum the healthy instances'
    /// monitor aggregates directly — what a sweep's rows would report,
    /// without its SLO check, pacer rescans or work tally.
    pub(super) fn series_row(&self, at: SimTime) -> SeriesRow {
        let mut queue_depth = 0u64;
        let mut reasoning = 0u64;
        let mut answering = 0u64;
        for (_, st) in self.states.iter() {
            if !st.running {
                queue_depth += 1;
            }
            match st.phase {
                Phase::Reasoning => reasoning += 1,
                Phase::Answering => answering += 1,
            }
        }
        let (mut kv_used_bytes, mut predicted_kv_bytes) = (0u64, 0u64);
        for (rt, _) in self
            .instances
            .iter()
            .zip(&self.health)
            .filter(|&(_, &h)| h == crate::fleet::HealthState::Healthy)
        {
            let used = rt.inst.kv_footprint_bytes();
            let growth = rt.monitor.predicted_blocks * self.geometry.block_bytes();
            kv_used_bytes += used;
            predicted_kv_bytes = predicted_kv_bytes.saturating_add(used.saturating_add(growth));
        }
        let (abs_err, err_n) = self.prediction_abs_error();
        SeriesRow {
            t: at,
            scope: SeriesScope::Shard,
            region: self.region(),
            shard: Some(self.id),
            queue_depth,
            active: self.states.len() as u64,
            reasoning,
            answering,
            kv_used_bytes,
            // 0 encodes unbounded (oracle) memory.
            kv_capacity_bytes: self
                .config
                .kv_capacity_bytes()
                .map_or(0, |c| c * self.instances.len() as u64),
            admission_headroom_bytes: self.admission_ctl.headroom_bytes(predicted_kv_bytes),
            predictor_mean_abs_error: (err_n > 0).then(|| abs_err / err_n as f64),
            wan_busy_s: None,
            slo_burn: self.slo_tracker.as_ref().and_then(|t| t.burn_gauge(at)),
        }
    }

    /// Sum of absolute reasoning-length prediction errors and the number
    /// of samples behind it — kept split so region rows can aggregate
    /// across shards without double-averaging.
    pub(super) fn prediction_abs_error(&self) -> (f64, u64) {
        let mut sum = 0.0;
        let mut n = 0u64;
        for s in &self.prediction_samples {
            if let Some(p) = s.predicted_reasoning_tokens {
                sum += (p - f64::from(s.actual_reasoning_tokens)).abs();
                n += 1;
            }
        }
        (sum, n)
    }
}
