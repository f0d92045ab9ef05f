//! The scheduling policies: FCFS, Round-Robin, and PASCAL.
//!
//! All three are expressed through the same interface the serving engine
//! consumes:
//!
//! * a **priority key** per request — every iteration, the engine sorts the
//!   instance's requests by key and grants GPU-resident KV memory to the
//!   longest prefix that fits. Requests outside the prefix are evicted
//!   (offloaded) or left waiting (blocked). This single mechanism yields all
//!   three behaviours of Fig. 2:
//!   - FCFS keys by arrival, so newcomers queue behind long-running requests
//!     (head-of-line blocking) and memory growth evicts the youngest;
//!   - RR keys by consumed token quanta, so requests that have decoded more
//!     quanta yield to fresher ones;
//!   - PASCAL keys by (queue class, quanta): reasoning requests occupy the
//!     high-priority class and always outrank answering ones (§IV-C), with
//!     per-class round-robin and conditional demotion of oversized
//!     reasoning requests.
//! * an **instance placement** rule for new requests (Algorithm 1 for
//!   PASCAL; smallest-KV-footprint for the baselines, §V-A);
//! * a **migration decision** at phase transitions (Algorithm 2 plus the
//!   adaptive override for PASCAL; baselines never migrate).

use pascal_cluster::{InstanceStats, RequestState};
use pascal_sim::SimDuration;
use pascal_workload::Phase;

/// Sort key of a request for intra-instance scheduling; lower = higher
/// priority. Ordering: queue class, consumed quanta, arrival time, id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct PriorityKey {
    /// 0 = high-priority (reasoning) queue, 1 = low-priority (answering or
    /// demoted) queue. Always 0 for phase-unaware baselines.
    pub class: u8,
    /// Completed round-robin quanta (always 0 under FCFS).
    pub quanta: u32,
    /// Arrival time in nanoseconds (FIFO tie-break).
    pub arrival_nanos: u64,
    /// Request id (final deterministic tie-break).
    pub id: u64,
}

/// Configuration of the PASCAL scheduler (§IV, §V-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PascalConfig {
    /// Token quantum of the per-queue round-robin (paper: 500).
    pub quantum: u32,
    /// Reasoning requests whose generated tokens exceed this are demoted to
    /// the low-priority queue (paper: 5000).
    pub demotion_threshold_tokens: u32,
    /// Whether phase-transition migration is enabled; `false` gives the
    /// PASCAL(NoMigration) ablation of Fig. 13.
    pub migration_enabled: bool,
    /// Whether the adaptive memory-aware override of Fig. 7 is applied;
    /// `false` gives the PASCAL(NonAdaptive) ablation of Fig. 15.
    pub adaptive_migration: bool,
    /// GPU blocks of growth headroom the adaptive override requires on the
    /// current instance before it keeps a request home.
    pub adaptive_headroom_blocks: u64,
}

impl Default for PascalConfig {
    fn default() -> Self {
        PascalConfig {
            quantum: 500,
            demotion_threshold_tokens: 5_000,
            migration_enabled: true,
            adaptive_migration: true,
            adaptive_headroom_blocks: 8,
        }
    }
}

/// A scheduling policy instance.
///
/// # Examples
///
/// ```
/// use pascal_sched::{PascalConfig, SchedPolicy};
///
/// let pascal = SchedPolicy::pascal(PascalConfig::default());
/// assert_eq!(pascal.name(), "PASCAL");
/// assert_eq!(SchedPolicy::Fcfs.quantum(), u32::MAX);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// vLLM's default: strict arrival order, block newcomers under memory
    /// pressure, preempt the most recently arrived on growth (§II-C).
    Fcfs,
    /// Preemptive round-robin with a fixed token quantum (§II-C; quantum
    /// 500 in §V-A).
    RoundRobin {
        /// Tokens a request may decode before its priority drops.
        quantum: u32,
    },
    /// The paper's phase-aware hierarchical scheduler (§IV).
    Pascal(PascalConfig),
}

/// What to do with a request that just finished its reasoning phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MigrationDecision {
    /// Keep serving it on its current instance.
    Stay,
    /// Ship its KV cache to the given instance (§IV-B).
    MigrateTo(u32),
    /// Algorithm 2 chose the given destination, but the predictive
    /// cost/benefit test vetoed the transfer: the predicted remaining
    /// service did not justify the KV transfer cost. Mechanically the
    /// request stays home; the variant is distinct so controllers can count
    /// how often prediction diverges from the reactive answer.
    VetoedByCost(u32),
}

/// Cost/benefit inputs of a predictive migration decision.
///
/// The controller supplies the physical transfer cost (from
/// `pascal-model`'s link model) and the predicted remaining service of the
/// request (from `pascal-predict`); the policy weighs one against the other.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MigrationCost {
    /// Time to push the request's KV cache through the fabric, queueing
    /// excluded.
    pub transfer_time: SimDuration,
    /// Predicted wall-clock service the request still has to receive
    /// (remaining tokens × pacing target). `None` when no absolute length
    /// estimate is available — the test then never vetoes.
    pub predicted_remaining_service: Option<SimDuration>,
    /// How many transfer-times of predicted remaining service a migration
    /// must buy to be worthwhile. `1.0` is the break-even rule; larger
    /// values veto more aggressively; `0.0` disables the test (reactive
    /// behavior).
    pub min_benefit_ratio: f64,
}

impl MigrationCost {
    /// Whether the predicted remaining service fails to justify the
    /// transfer — the veto condition.
    #[must_use]
    pub fn vetoes(&self) -> bool {
        match self.predicted_remaining_service {
            Some(service) => service < self.transfer_time.mul_f64(self.min_benefit_ratio),
            None => false,
        }
    }
}

impl SchedPolicy {
    /// Round-robin with the paper's 500-token quantum.
    #[must_use]
    pub fn round_robin_default() -> Self {
        SchedPolicy::RoundRobin { quantum: 500 }
    }

    /// PASCAL with the given configuration.
    #[must_use]
    pub fn pascal(config: PascalConfig) -> Self {
        SchedPolicy::Pascal(config)
    }

    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::Fcfs => "FCFS",
            SchedPolicy::RoundRobin { .. } => "RR",
            SchedPolicy::Pascal(c) => {
                if !c.migration_enabled {
                    "PASCAL(NoMigration)"
                } else if !c.adaptive_migration {
                    "PASCAL(NonAdaptive)"
                } else {
                    "PASCAL"
                }
            }
        }
    }

    /// The token quantum (requests never lose priority under FCFS).
    #[must_use]
    pub fn quantum(&self) -> u32 {
        match self {
            SchedPolicy::Fcfs => u32::MAX,
            SchedPolicy::RoundRobin { quantum } => *quantum,
            SchedPolicy::Pascal(c) => c.quantum,
        }
    }

    /// Whether quanta counters reset when a request enters the answering
    /// phase. PASCAL's low-priority queue runs its own round-robin, so a
    /// freshly transitioned request starts a new quantum; RR is
    /// phase-unaware and keeps accumulating (§V-B's discussion of RR's
    /// implicit per-request hierarchy).
    #[must_use]
    pub fn resets_quanta_at_transition(&self) -> bool {
        matches!(self, SchedPolicy::Pascal(_))
    }

    /// PASCAL's conditional demotion threshold, if any (§IV-C).
    #[must_use]
    pub fn demotion_threshold_tokens(&self) -> Option<u32> {
        match self {
            SchedPolicy::Pascal(c) => Some(c.demotion_threshold_tokens),
            _ => None,
        }
    }

    /// Whether the Fig. 7 adaptive memory check is active. When it is, the
    /// engine also refuses to launch a migration whose destination cannot
    /// reserve the KV blocks right now (the race-free form of the same
    /// check); NonAdaptive migrates blindly and may land in CPU memory.
    #[must_use]
    pub fn adaptive_migration(&self) -> bool {
        matches!(
            self,
            SchedPolicy::Pascal(PascalConfig {
                migration_enabled: true,
                adaptive_migration: true,
                ..
            })
        )
    }

    /// Intra-instance priority key of `req` (lower sorts first).
    #[must_use]
    pub fn priority_key(&self, req: &RequestState) -> PriorityKey {
        self.key_with_quanta(req, req.quanta_used)
    }

    /// The key `req` is filed under once its current quantum ends: one
    /// more consumed quantum, everything else unchanged.
    #[must_use]
    pub fn key_after_quantum(&self, req: &RequestState) -> PriorityKey {
        self.key_with_quanta(req, req.quanta_used + 1)
    }

    fn key_with_quanta(&self, req: &RequestState, quanta_used: u32) -> PriorityKey {
        let class = match self {
            SchedPolicy::Pascal(_) => {
                if req.phase == Phase::Reasoning && !req.demoted {
                    0
                } else {
                    1
                }
            }
            _ => 0,
        };
        let quanta = match self {
            SchedPolicy::Fcfs => 0,
            _ => quanta_used,
        };
        PriorityKey {
            class,
            quanta,
            arrival_nanos: req.spec.arrival.as_nanos(),
            id: req.spec.id.0,
        }
    }

    /// Instance selection for a newly arrived (reasoning) request.
    ///
    /// Baselines place on the instance with the smallest KV footprint
    /// (§V-A); PASCAL runs Algorithm 1: restrict to SLO-healthy instances
    /// (`t_i`), fall back to all if none qualify, then pick the smallest
    /// GPU+CPU KV footprint `m_i`. When a length predictor is active the
    /// engine fills [`InstanceStats::predicted_future_kv_bytes`], and
    /// PASCAL's `m_i` becomes *current plus predicted future* footprint —
    /// predictive Algorithm 1 placement. Without a predictor that term is
    /// zero and the ranking is exactly the paper's.
    ///
    /// # Panics
    ///
    /// Panics if `stats` is empty.
    #[must_use]
    pub fn place_new_request(&self, stats: &[InstanceStats]) -> u32 {
        assert!(
            !stats.is_empty(),
            "placement requires at least one instance"
        );
        match self {
            SchedPolicy::Fcfs | SchedPolicy::RoundRobin { .. } => {
                min_by_key_stable(stats.iter(), |s| s.kv_footprint_bytes).instance
            }
            SchedPolicy::Pascal(_) => {
                let healthy: Vec<&InstanceStats> = stats.iter().filter(|s| s.slo_ok).collect();
                let pool: Vec<&InstanceStats> = if healthy.is_empty() {
                    stats.iter().collect()
                } else {
                    healthy
                };
                min_by_key_stable(pool, |s| s.predicted_total_kv_bytes()).instance
            }
        }
    }

    /// Migration decision at a reasoning→answering transition (Algorithm 2
    /// plus the Fig. 7 adaptive override).
    ///
    /// `current` is the instance the request lives on, `needed_blocks` the
    /// GPU blocks its KV requires at the destination.
    ///
    /// # Panics
    ///
    /// Panics if `stats` is empty or `current` is not among them.
    #[must_use]
    pub fn migration_decision(
        &self,
        current: u32,
        needed_blocks: u64,
        stats: &[InstanceStats],
    ) -> MigrationDecision {
        let SchedPolicy::Pascal(config) = self else {
            return MigrationDecision::Stay;
        };
        if !config.migration_enabled {
            return MigrationDecision::Stay;
        }
        let current_stats = stats
            .iter()
            .find(|s| s.instance == current)
            .expect("current instance must be in stats");

        // Algorithm 2, lines 3-10. Ties on the small integer counts are
        // broken by fresh-answering count and then KV footprint, so equally
        // reasoning-loaded instances share the migrated answering load
        // instead of funnelling it into one dumping-ground instance.
        let healthy: Vec<&InstanceStats> = stats.iter().filter(|s| s.slo_ok).collect();
        // Footprint tie-breaks use the predicted total (current + predicted
        // future growth); identical to the paper's current-footprint rule
        // whenever no predictor is active.
        let target = if healthy.is_empty() {
            // Fallback: rank by r_i + a_i across all instances.
            min_by_key_stable(stats.iter(), |s| {
                (
                    u64::from(s.reasoning_count) + u64::from(s.fresh_answering_count),
                    s.predicted_total_kv_bytes(),
                )
            })
        } else {
            min_by_key_stable(healthy, |s| {
                (
                    u64::from(s.reasoning_count),
                    u64::from(s.fresh_answering_count),
                    s.predicted_total_kv_bytes(),
                )
            })
        };

        if target.instance == current {
            return MigrationDecision::Stay;
        }

        // Adaptive override (Fig. 7): if the chosen target cannot hold the
        // KV cache but the current instance still has growth headroom, keep
        // the request home to avoid a guaranteed stall on arrival.
        if config.adaptive_migration
            && !target.fits_blocks(needed_blocks)
            && current_stats.fits_blocks(config.adaptive_headroom_blocks)
        {
            return MigrationDecision::Stay;
        }

        MigrationDecision::MigrateTo(target.instance)
    }

    /// Landing instance for a request migrating *into* this pool from
    /// another shard: the Algorithm 2 ranking applied to the destination
    /// shard's stats, restricted to SLO-healthy instances. Under the
    /// adaptive policy an instance that cannot hold `needed_blocks` right
    /// now is skipped (the cross-shard form of the Fig. 7 override);
    /// NonAdaptive accepts the best-ranked instance blindly and may land
    /// in CPU memory. `None` when no instance qualifies — the escape is
    /// then abandoned and the request stays home.
    #[must_use]
    pub fn cross_shard_instance(&self, needed_blocks: u64, stats: &[InstanceStats]) -> Option<u32> {
        let SchedPolicy::Pascal(config) = self else {
            return None;
        };
        if !config.migration_enabled {
            return None;
        }
        let mut pool: Vec<&InstanceStats> = stats.iter().filter(|s| s.slo_ok).collect();
        if config.adaptive_migration {
            pool.retain(|s| s.fits_blocks(needed_blocks));
        }
        if pool.is_empty() {
            return None;
        }
        Some(
            min_by_key_stable(pool, |s| {
                (
                    u64::from(s.reasoning_count),
                    u64::from(s.fresh_answering_count),
                    s.predicted_total_kv_bytes(),
                )
            })
            .instance,
        )
    }

    /// [`SchedPolicy::migration_decision`] extended with the predictive
    /// cost/benefit test: when Algorithm 2 picks a destination but `cost`
    /// says the predicted remaining service is below the transfer cost, the
    /// decision becomes [`MigrationDecision::VetoedByCost`] instead of
    /// [`MigrationDecision::MigrateTo`].
    ///
    /// With `cost = None` (no predictor configured) this is exactly the
    /// reactive decision.
    ///
    /// # Panics
    ///
    /// Panics if `stats` is empty or `current` is not among them.
    #[must_use]
    pub fn predictive_migration_decision(
        &self,
        current: u32,
        needed_blocks: u64,
        stats: &[InstanceStats],
        cost: Option<MigrationCost>,
    ) -> MigrationDecision {
        match self.migration_decision(current, needed_blocks, stats) {
            MigrationDecision::MigrateTo(dest) if cost.is_some_and(|c| c.vetoes()) => {
                MigrationDecision::VetoedByCost(dest)
            }
            other => other,
        }
    }
}

/// First minimum by key in iteration order — deterministic tie-breaking on
/// instance order.
fn min_by_key_stable<'a, I, K>(iter: I, key: impl Fn(&InstanceStats) -> K) -> &'a InstanceStats
where
    I: IntoIterator<Item = &'a InstanceStats>,
    K: Ord,
{
    let mut best: Option<(&InstanceStats, K)> = None;
    for s in iter {
        let k = key(s);
        match &best {
            Some((_, bk)) if *bk <= k => {}
            _ => best = Some((s, k)),
        }
    }
    best.expect("non-empty iterator").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascal_sim::SimTime;
    use pascal_workload::{RequestId, RequestSpec};
    use proptest::prelude::*;

    fn stats(
        instance: u32,
        slo_ok: bool,
        footprint: u64,
        reasoning: u32,
        fresh_ans: u32,
        free: Option<u64>,
    ) -> InstanceStats {
        InstanceStats {
            instance,
            slo_ok,
            kv_footprint_bytes: footprint,
            reasoning_count: reasoning,
            fresh_answering_count: fresh_ans,
            gpu_free_blocks: free,
            predicted_future_kv_bytes: 0,
        }
    }

    fn request(id: u64, arrival_s: f64) -> RequestState {
        let spec = RequestSpec::new(
            RequestId(id),
            SimTime::from_secs_f64(arrival_s),
            128,
            100,
            100,
        );
        RequestState::new(spec, 0, SimDuration::from_millis(100))
    }

    #[test]
    fn fcfs_orders_by_arrival_only() {
        let p = SchedPolicy::Fcfs;
        let mut early = request(1, 1.0);
        early.quanta_used = 50; // FCFS ignores quanta
        let late = request(0, 2.0);
        assert!(p.priority_key(&early) < p.priority_key(&late));
    }

    #[test]
    fn rr_orders_by_quanta_then_arrival() {
        let p = SchedPolicy::round_robin_default();
        let mut veteran = request(0, 1.0);
        veteran.quanta_used = 2;
        let newcomer = request(1, 5.0);
        assert!(p.priority_key(&newcomer) < p.priority_key(&veteran));
        let same_quanta = request(2, 0.5);
        assert!(p.priority_key(&same_quanta) < p.priority_key(&newcomer));
    }

    #[test]
    fn key_after_quantum_is_the_key_once_the_quantum_ends() {
        for p in [
            SchedPolicy::Fcfs,
            SchedPolicy::round_robin_default(),
            SchedPolicy::pascal(PascalConfig::default()),
        ] {
            let mut req = request(0, 1.0);
            req.phase = Phase::Answering;
            req.quanta_used = 3;
            req.tokens_in_quantum = 7;
            let predicted = p.key_after_quantum(&req);
            req.quanta_used += 1;
            req.tokens_in_quantum = 0;
            assert_eq!(predicted, p.priority_key(&req), "{}", p.name());
        }
    }

    #[test]
    fn pascal_reasoning_outranks_answering_always() {
        let p = SchedPolicy::pascal(PascalConfig::default());
        let mut reasoning = request(0, 9.0);
        reasoning.quanta_used = 10;
        let mut answering = request(1, 1.0);
        answering.phase = Phase::Answering;
        answering.quanta_used = 0;
        assert!(p.priority_key(&reasoning) < p.priority_key(&answering));
    }

    #[test]
    fn pascal_demoted_reasoning_drops_to_low_queue() {
        let p = SchedPolicy::pascal(PascalConfig::default());
        let mut demoted = request(0, 1.0);
        demoted.demoted = true;
        let mut answering = request(1, 2.0);
        answering.phase = Phase::Answering;
        let key_d = p.priority_key(&demoted);
        let key_a = p.priority_key(&answering);
        assert_eq!(key_d.class, 1);
        assert_eq!(key_a.class, 1);
        assert!(key_d < key_a, "within low queue, RR order applies");
    }

    #[test]
    fn baseline_placement_minimizes_footprint() {
        let p = SchedPolicy::Fcfs;
        let s = vec![
            stats(0, true, 500, 0, 0, Some(10)),
            stats(1, false, 100, 0, 0, Some(0)),
            stats(2, true, 300, 0, 0, Some(5)),
        ];
        // Baselines ignore SLO state entirely.
        assert_eq!(p.place_new_request(&s), 1);
    }

    #[test]
    fn algorithm1_filters_by_slo_then_min_footprint() {
        let p = SchedPolicy::pascal(PascalConfig::default());
        let s = vec![
            stats(0, true, 500, 0, 0, Some(10)),
            stats(1, false, 100, 0, 0, Some(0)), // unhealthy, excluded
            stats(2, true, 300, 0, 0, Some(5)),
        ];
        assert_eq!(p.place_new_request(&s), 2);
    }

    #[test]
    fn algorithm1_falls_back_when_no_instance_healthy() {
        let p = SchedPolicy::pascal(PascalConfig::default());
        let s = vec![
            stats(0, false, 500, 0, 0, Some(10)),
            stats(1, false, 100, 0, 0, Some(0)),
        ];
        assert_eq!(p.place_new_request(&s), 1, "min m_i among all");
    }

    #[test]
    fn algorithm2_picks_fewest_reasoning_among_healthy() {
        let p = SchedPolicy::pascal(PascalConfig::default());
        let s = vec![
            stats(0, true, 0, 5, 0, Some(100)),
            stats(1, false, 0, 0, 0, Some(100)), // unhealthy
            stats(2, true, 0, 2, 9, Some(100)),
        ];
        assert_eq!(
            p.migration_decision(0, 10, &s),
            MigrationDecision::MigrateTo(2)
        );
    }

    #[test]
    fn algorithm2_fallback_uses_r_plus_a() {
        let p = SchedPolicy::pascal(PascalConfig::default());
        let s = vec![
            stats(0, false, 0, 5, 0, Some(100)), // r+a = 5
            stats(1, false, 0, 2, 9, Some(100)), // r+a = 11
            stats(2, false, 0, 3, 1, Some(100)), // r+a = 4
        ];
        assert_eq!(
            p.migration_decision(0, 10, &s),
            MigrationDecision::MigrateTo(2)
        );
    }

    #[test]
    fn migration_to_self_is_stay() {
        let p = SchedPolicy::pascal(PascalConfig::default());
        let s = vec![stats(0, true, 0, 1, 0, Some(100))];
        assert_eq!(p.migration_decision(0, 10, &s), MigrationDecision::Stay);
    }

    #[test]
    fn adaptive_override_keeps_request_home() {
        // Fig. 7: target has fewest reasoning requests but no memory, and
        // the source still has room -> stay.
        let p = SchedPolicy::pascal(PascalConfig::default());
        let s = vec![
            stats(0, true, 0, 5, 0, Some(50)), // current: room available
            stats(2, true, 0, 0, 0, Some(1)),  // target: full
        ];
        assert_eq!(p.migration_decision(0, 10, &s), MigrationDecision::Stay);
    }

    #[test]
    fn non_adaptive_migrates_anyway() {
        let p = SchedPolicy::pascal(PascalConfig {
            adaptive_migration: false,
            ..PascalConfig::default()
        });
        let s = vec![
            stats(0, true, 0, 5, 0, Some(50)),
            stats(2, true, 0, 0, 0, Some(1)),
        ];
        assert_eq!(
            p.migration_decision(0, 10, &s),
            MigrationDecision::MigrateTo(2)
        );
    }

    #[test]
    fn adaptive_override_requires_source_headroom() {
        // Target full AND source full -> migrate anyway (nothing to save).
        let p = SchedPolicy::pascal(PascalConfig::default());
        let s = vec![
            stats(0, true, 0, 5, 0, Some(0)), // current also full
            stats(2, true, 0, 0, 0, Some(1)),
        ];
        assert_eq!(
            p.migration_decision(0, 10, &s),
            MigrationDecision::MigrateTo(2)
        );
    }

    #[test]
    fn no_migration_variant_always_stays() {
        let p = SchedPolicy::pascal(PascalConfig {
            migration_enabled: false,
            ..PascalConfig::default()
        });
        let s = vec![
            stats(0, true, 0, 5, 0, Some(50)),
            stats(2, true, 0, 0, 0, Some(100)),
        ];
        assert_eq!(p.migration_decision(0, 10, &s), MigrationDecision::Stay);
    }

    #[test]
    fn baselines_never_migrate() {
        let s = vec![
            stats(0, true, 0, 5, 0, Some(50)),
            stats(2, true, 0, 0, 0, Some(100)),
        ];
        assert_eq!(
            SchedPolicy::Fcfs.migration_decision(0, 10, &s),
            MigrationDecision::Stay
        );
        assert_eq!(
            SchedPolicy::round_robin_default().migration_decision(0, 10, &s),
            MigrationDecision::Stay
        );
    }

    #[test]
    fn names_match_figures() {
        assert_eq!(SchedPolicy::Fcfs.name(), "FCFS");
        assert_eq!(SchedPolicy::round_robin_default().name(), "RR");
        assert_eq!(
            SchedPolicy::pascal(PascalConfig::default()).name(),
            "PASCAL"
        );
        let no_mig = PascalConfig {
            migration_enabled: false,
            ..PascalConfig::default()
        };
        assert_eq!(SchedPolicy::pascal(no_mig).name(), "PASCAL(NoMigration)");
        let non_adaptive = PascalConfig {
            adaptive_migration: false,
            ..PascalConfig::default()
        };
        assert_eq!(
            SchedPolicy::pascal(non_adaptive).name(),
            "PASCAL(NonAdaptive)"
        );
    }

    #[test]
    fn quantum_reset_only_for_pascal() {
        assert!(SchedPolicy::pascal(PascalConfig::default()).resets_quanta_at_transition());
        assert!(!SchedPolicy::round_robin_default().resets_quanta_at_transition());
        assert!(!SchedPolicy::Fcfs.resets_quanta_at_transition());
    }

    #[test]
    fn predictive_placement_ranks_by_current_plus_predicted() {
        let p = SchedPolicy::pascal(PascalConfig::default());
        let mut s = vec![
            stats(0, true, 100, 0, 0, Some(10)),
            stats(1, true, 300, 0, 0, Some(10)),
        ];
        // Reactively, instance 0 wins on current footprint …
        assert_eq!(p.place_new_request(&s), 0);
        // … but a predictor expecting 500 more bytes of growth there flips
        // the choice to instance 1.
        s[0].predicted_future_kv_bytes = 500;
        assert_eq!(p.place_new_request(&s), 1);
        // Baselines ignore predictions entirely.
        assert_eq!(SchedPolicy::Fcfs.place_new_request(&s), 0);
    }

    #[test]
    fn predictive_footprint_breaks_migration_ties() {
        let p = SchedPolicy::pascal(PascalConfig::default());
        let mut s = vec![
            stats(0, true, 0, 5, 0, Some(100)),
            stats(1, true, 10, 1, 1, Some(100)),
            stats(2, true, 20, 1, 1, Some(100)),
        ];
        assert_eq!(
            p.migration_decision(0, 10, &s),
            MigrationDecision::MigrateTo(1)
        );
        s[1].predicted_future_kv_bytes = 100;
        assert_eq!(
            p.migration_decision(0, 10, &s),
            MigrationDecision::MigrateTo(2)
        );
    }

    #[test]
    fn cost_veto_turns_migrate_into_veto() {
        let p = SchedPolicy::pascal(PascalConfig::default());
        let s = vec![
            stats(0, true, 0, 5, 0, Some(100)),
            stats(2, true, 0, 0, 0, Some(100)),
        ];
        let cheap = MigrationCost {
            transfer_time: SimDuration::from_millis(40),
            predicted_remaining_service: Some(SimDuration::from_secs_f64(10.0)),
            min_benefit_ratio: 1.0,
        };
        assert_eq!(
            p.predictive_migration_decision(0, 10, &s, Some(cheap)),
            MigrationDecision::MigrateTo(2)
        );
        let wasteful = MigrationCost {
            transfer_time: SimDuration::from_millis(40),
            predicted_remaining_service: Some(SimDuration::from_millis(10)),
            min_benefit_ratio: 1.0,
        };
        assert_eq!(
            p.predictive_migration_decision(0, 10, &s, Some(wasteful)),
            MigrationDecision::VetoedByCost(2)
        );
        // No predictor estimate, or no cost inputs at all: reactive answer.
        let unknown = MigrationCost {
            predicted_remaining_service: None,
            ..wasteful
        };
        assert_eq!(
            p.predictive_migration_decision(0, 10, &s, Some(unknown)),
            MigrationDecision::MigrateTo(2)
        );
        assert_eq!(
            p.predictive_migration_decision(0, 10, &s, None),
            MigrationDecision::MigrateTo(2)
        );
    }

    #[test]
    fn cost_veto_never_invents_migrations() {
        // A Stay decision stays a Stay no matter how favorable the cost.
        let p = SchedPolicy::pascal(PascalConfig {
            migration_enabled: false,
            ..PascalConfig::default()
        });
        let s = vec![
            stats(0, true, 0, 5, 0, Some(50)),
            stats(2, true, 0, 0, 0, Some(100)),
        ];
        let cost = MigrationCost {
            transfer_time: SimDuration::from_millis(1),
            predicted_remaining_service: Some(SimDuration::from_secs_f64(100.0)),
            min_benefit_ratio: 1.0,
        };
        assert_eq!(
            p.predictive_migration_decision(0, 10, &s, Some(cost)),
            MigrationDecision::Stay
        );
    }

    proptest! {
        /// The cost/benefit invariant: whenever the predicted remaining
        /// service is below the (ratio-scaled) transfer cost, the predictive
        /// decision never launches a migration — regardless of cluster
        /// state.
        #[test]
        fn prop_underwater_requests_never_migrate(
            transfer_ms in 1.0f64..500.0,
            service_fraction in 0.0f64..1.0,
            ratio in 0.5f64..8.0,
            reasoning in proptest::collection::vec(0u32..12, 2..6),
            free in proptest::collection::vec(0u64..200, 2..6),
        ) {
            let n = reasoning.len().min(free.len());
            let s: Vec<InstanceStats> = (0..n)
                .map(|i| stats(i as u32, true, 0, reasoning[i], 0, Some(free[i])))
                .collect();
            let threshold = transfer_ms * ratio;
            // Strictly below the scaled cost, by construction.
            let service = SimDuration::from_secs_f64(
                threshold * service_fraction * 0.999 / 1000.0,
            );
            let cost = MigrationCost {
                transfer_time: SimDuration::from_secs_f64(transfer_ms / 1000.0),
                predicted_remaining_service: Some(service),
                min_benefit_ratio: ratio,
            };
            let p = SchedPolicy::pascal(PascalConfig::default());
            let decision = p.predictive_migration_decision(0, 1, &s, Some(cost));
            prop_assert!(
                !matches!(decision, MigrationDecision::MigrateTo(_)),
                "underwater request migrated: {decision:?}"
            );
        }
    }

    #[test]
    fn cross_shard_instance_ranks_healthy_and_respects_fit() {
        let p = SchedPolicy::pascal(PascalConfig::default());
        let s = vec![
            stats(0, true, 50, 3, 0, Some(100)),
            stats(1, false, 0, 0, 0, Some(100)), // unhealthy: excluded
            stats(2, true, 10, 1, 1, Some(100)),
        ];
        assert_eq!(p.cross_shard_instance(10, &s), Some(2));
        // Adaptive skips instances that cannot hold the KV right now…
        let full = vec![
            stats(0, true, 50, 3, 0, Some(100)),
            stats(2, true, 10, 1, 1, Some(5)),
        ];
        assert_eq!(p.cross_shard_instance(10, &full), Some(0));
        // …and gives up when nothing fits.
        let all_full = vec![stats(0, true, 0, 0, 0, Some(5))];
        assert_eq!(p.cross_shard_instance(10, &all_full), None);
        // NonAdaptive lands blindly on the best-ranked instance.
        let blind = SchedPolicy::pascal(PascalConfig {
            adaptive_migration: false,
            ..PascalConfig::default()
        });
        assert_eq!(blind.cross_shard_instance(10, &full), Some(2));
        // Baselines and NoMigration never accept cross-shard traffic.
        assert_eq!(SchedPolicy::Fcfs.cross_shard_instance(10, &s), None);
        let no_mig = SchedPolicy::pascal(PascalConfig {
            migration_enabled: false,
            ..PascalConfig::default()
        });
        assert_eq!(no_mig.cross_shard_instance(10, &s), None);
    }

    #[test]
    fn tie_break_is_first_instance() {
        let p = SchedPolicy::Fcfs;
        let s = vec![
            stats(3, true, 100, 0, 0, Some(1)),
            stats(1, true, 100, 0, 0, Some(1)),
        ];
        assert_eq!(p.place_new_request(&s), 3, "first minimum wins");
    }
}
