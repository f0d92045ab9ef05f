//! Aggregate controller counters emitted once per simulation run.
//!
//! The engine's migration and admission controllers tally every decision
//! they take; the counters land in `SimOutput` so experiments can compare
//! reactive and predictive variants without re-deriving outcomes from the
//! per-request records.

use pascal_sim::{SimDuration, SimTime};
use pascal_workload::RequestId;

/// Outcome tally of the migration controller over one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationOutcomes {
    /// Phase transitions at which a migration decision was evaluated.
    pub considered: u64,
    /// Transfers actually launched onto the fabric.
    pub launched: u64,
    /// Decisions where the policy chose a destination but the predictive
    /// cost/benefit test vetoed it (predicted remaining service did not
    /// justify the transfer cost).
    pub vetoed_by_cost: u64,
    /// Launches aborted because the adaptive controller could not reserve
    /// destination KV blocks at launch time.
    pub aborted_no_reservation: u64,
    /// Transfers whose KV landed in the destination's CPU pool (guaranteed
    /// reload stall — the failure mode of Fig. 7 / Fig. 15).
    pub landed_in_cpu: u64,
    /// Total KV bytes moved across the fabric.
    pub bytes_moved: u64,
    /// Total post-transfer stall time accumulated by migrated requests
    /// (landing → next execution).
    pub total_stall: SimDuration,
    /// Cross-shard escapes evaluated: the home shard was saturated (no
    /// SLO-healthy instance, or none able to hold the request's KV) and a
    /// healthy sibling shard existed. Zero in any single-shard run.
    pub cross_shard_considered: u64,
    /// Escapes vetoed by the predictive cost/benefit test at the
    /// interconnect's (higher) transfer price.
    pub cross_shard_vetoed_by_cost: u64,
    /// Escapes abandoned because no landing instance qualified (or its
    /// reservation failed) on the chosen sibling shard. Every considered
    /// escape resolves: `cross_shard_considered == cross_shard_launched +
    /// cross_shard_vetoed_by_cost + cross_shard_aborted`.
    pub cross_shard_aborted: u64,
    /// Cross-shard transfers actually launched onto the interconnect.
    /// Also counted in [`MigrationOutcomes::launched`].
    pub cross_shard_launched: u64,
    /// KV bytes moved over the inter-shard interconnect. Also counted in
    /// [`MigrationOutcomes::bytes_moved`].
    pub cross_shard_bytes_moved: u64,
    /// Deferred intra-shard fallback moves executed after a cluster- or
    /// federation-level escape failed (no target, cost veto, or abort) —
    /// the escape candidate's original Algorithm 2 destination, launched
    /// late. Zero in any single-shard single-region run.
    pub cross_shard_fallbacks: u64,
    /// The subset of [`MigrationOutcomes::cross_shard_fallbacks`] whose
    /// escape failed specifically on the cost/benefit veto at the pricier
    /// tier — the "the expensive tier said no, the cheap approved move
    /// still happens" path.
    pub cross_shard_fallbacks_after_veto: u64,
    /// Cross-region escapes evaluated: the home region was saturated (no
    /// sibling shard could take the request) and a healthy remote region
    /// existed. Zero in any single-region run.
    pub cross_region_considered: u64,
    /// Cross-region escapes vetoed by the predictive cost/benefit test at
    /// the WAN's (highest) transfer price.
    pub cross_region_vetoed_by_cost: u64,
    /// Cross-region escapes abandoned because no landing shard or instance
    /// qualified (or its reservation failed) in the chosen remote region.
    /// Every considered escape resolves: `cross_region_considered ==
    /// cross_region_launched + cross_region_vetoed_by_cost +
    /// cross_region_aborted`.
    pub cross_region_aborted: u64,
    /// Cross-region transfers actually launched onto the WAN. Also counted
    /// in [`MigrationOutcomes::launched`].
    pub cross_region_launched: u64,
    /// KV bytes moved over the WAN tier. Also counted in
    /// [`MigrationOutcomes::bytes_moved`].
    pub cross_region_bytes_moved: u64,
}

impl MigrationOutcomes {
    /// Decisions where the policy's Algorithm 2 answer was overridden by a
    /// controller (cost veto or failed reservation) — the divergence count
    /// between reactive and predictive operation.
    #[must_use]
    pub fn diverged(&self) -> u64 {
        self.vetoed_by_cost + self.aborted_no_reservation
    }

    /// Asserts the documented escape-resolution invariants: every
    /// considered cross-shard / cross-region escape resolves as exactly one
    /// of launched, vetoed-by-cost or aborted. The engine checks this on
    /// every per-shard tally and on the absorbed run total when assembling
    /// a `SimOutput`, in release builds too; trace events reconcile against
    /// the same relation.
    ///
    /// (Not part of [`MigrationOutcomes::absorb`]: that must sum arbitrary
    /// tallies, including synthetic ones that need not balance.)
    ///
    /// # Panics
    ///
    /// Panics if either tier's tally does not balance.
    pub fn assert_escape_conservation(&self) {
        assert_eq!(
            self.cross_shard_considered,
            self.cross_shard_launched + self.cross_shard_vetoed_by_cost + self.cross_shard_aborted,
            "cross-shard escapes must resolve: considered == launched + vetoed + aborted"
        );
        assert_eq!(
            self.cross_region_considered,
            self.cross_region_launched
                + self.cross_region_vetoed_by_cost
                + self.cross_region_aborted,
            "cross-region escapes must resolve: considered == launched + vetoed + aborted"
        );
    }

    /// Adds another tally into this one — how the cluster aggregates its
    /// per-shard controller outcomes into the run total.
    pub fn absorb(&mut self, other: &MigrationOutcomes) {
        self.considered += other.considered;
        self.launched += other.launched;
        self.vetoed_by_cost += other.vetoed_by_cost;
        self.aborted_no_reservation += other.aborted_no_reservation;
        self.landed_in_cpu += other.landed_in_cpu;
        self.bytes_moved += other.bytes_moved;
        self.total_stall += other.total_stall;
        self.cross_shard_considered += other.cross_shard_considered;
        self.cross_shard_vetoed_by_cost += other.cross_shard_vetoed_by_cost;
        self.cross_shard_aborted += other.cross_shard_aborted;
        self.cross_shard_launched += other.cross_shard_launched;
        self.cross_shard_bytes_moved += other.cross_shard_bytes_moved;
        self.cross_shard_fallbacks += other.cross_shard_fallbacks;
        self.cross_shard_fallbacks_after_veto += other.cross_shard_fallbacks_after_veto;
        self.cross_region_considered += other.cross_region_considered;
        self.cross_region_vetoed_by_cost += other.cross_region_vetoed_by_cost;
        self.cross_region_aborted += other.cross_region_aborted;
        self.cross_region_launched += other.cross_region_launched;
        self.cross_region_bytes_moved += other.cross_region_bytes_moved;
    }
}

/// Fleet-elasticity tally over one run: what the fault-injection layer did
/// to the fleet and what the engine did in response. All-zero for any run
/// without a fleet-event schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetOutcomes {
    /// Health transitions applied to instances (joins + drains + fails,
    /// including per-instance expansions of shard/region events).
    pub transitions: u64,
    /// Instances brought (back) up.
    pub joins: u64,
    /// Instances taken down abruptly (fail-stop, no drain).
    pub fails: u64,
    /// Planned drains initiated.
    pub drains_started: u64,
    /// Drains that ran to completion (membership empty → down).
    pub drains_completed: u64,
    /// Summed drain durations (initiation → completion) over completed
    /// drains.
    pub drain_time: SimDuration,
    /// Requests lost to an abrupt outage: their instance went down while
    /// they were resident or running, and no migration could save them.
    pub stranded: u64,
    /// Queued (never-prefilled) requests the water-filling rebalancer
    /// re-placed onto surviving instances after an outage or drain.
    pub rebalanced: u64,
    /// Autoscaler scale-up actions (standby instance activations).
    pub autoscale_up: u64,
    /// Autoscaler scale-down actions (drains of managed instances).
    pub autoscale_down: u64,
}

impl FleetOutcomes {
    /// Mean drain completion time in seconds (zero when no drain finished).
    #[must_use]
    pub fn mean_drain_completion_s(&self) -> f64 {
        if self.drains_completed == 0 {
            0.0
        } else {
            self.drain_time.as_secs_f64() / self.drains_completed as f64
        }
    }

    /// Total autoscaler actions (scale-ups plus scale-downs).
    #[must_use]
    pub fn autoscale_actions(&self) -> u64 {
        self.autoscale_up + self.autoscale_down
    }

    /// Adds another tally into this one (per-shard → run aggregation).
    pub fn absorb(&mut self, other: &FleetOutcomes) {
        self.transitions += other.transitions;
        self.joins += other.joins;
        self.fails += other.fails;
        self.drains_started += other.drains_started;
        self.drains_completed += other.drains_completed;
        self.drain_time += other.drain_time;
        self.stranded += other.stranded;
        self.rebalanced += other.rebalanced;
        self.autoscale_up += other.autoscale_up;
        self.autoscale_down += other.autoscale_down;
    }
}

/// Admission-control tally over one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionCounters {
    /// Arrivals admitted into the cluster.
    pub admitted: u64,
    /// Arrivals rejected at predicted overload.
    pub rejected: u64,
    /// Arrivals this pool would have rejected that the federation placed
    /// in a remote region instead (spill-before-reject). Counted at the
    /// *home* pool; the landing pool counts the same arrival as admitted,
    /// so `admitted + rejected` still totals the arrivals across pools.
    pub spilled: u64,
}

impl AdmissionCounters {
    /// Fraction of arrivals rejected (zero when nothing arrived).
    #[must_use]
    pub fn rejection_rate(&self) -> f64 {
        let total = self.admitted + self.rejected;
        if total == 0 {
            0.0
        } else {
            self.rejected as f64 / total as f64
        }
    }

    /// Adds another tally into this one (per-shard → cluster aggregation).
    pub fn absorb(&mut self, other: &AdmissionCounters) {
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.spilled += other.spilled;
    }
}

/// Per-shard row of a sharded run: what one scheduling domain did.
///
/// A single-shard run emits exactly one row covering the whole pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: u32,
    /// Instances in this scheduling domain.
    pub instances: usize,
    /// Arrivals the router pinned to this shard.
    pub routed_arrivals: u64,
    /// Requests that completed on this shard (after any migrations).
    pub completed: u64,
    /// Peak GPU KV bytes summed over the shard's instances.
    pub peak_gpu_kv_bytes: u64,
    /// The shard's migration-controller tally; its `cross_shard_*`
    /// counters cover escapes *out of* this shard.
    pub migrations: MigrationOutcomes,
    /// The shard's admission-controller tally.
    pub admission: AdmissionCounters,
    /// Requests that migrated into this shard over the interconnect.
    pub cross_shard_in: u64,
    /// Requests that migrated into this shard over the WAN (federated
    /// runs only; zero in any single-region run).
    pub cross_region_in: u64,
    /// The shard's fleet-elasticity tally (all-zero without a fleet-event
    /// schedule).
    pub fleet: FleetOutcomes,
}

/// Per-region row of a federated run: what one region (a whole
/// cluster-of-shards) did at the federation boundary.
///
/// A single-region run emits exactly one row covering the whole cluster.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Region index.
    pub region: u32,
    /// Scheduling domains (shards) inside the region.
    pub shards: usize,
    /// Instances inside the region.
    pub instances: usize,
    /// Arrivals that *originated* in this region (the user's geography).
    pub origin_arrivals: u64,
    /// Arrivals the federation router delivered here (after routing and
    /// spill), summed over the region's shards.
    pub routed_arrivals: u64,
    /// Delivered arrivals whose origin was a different region — the WAN
    /// detour traffic the `static` policy never produces.
    pub nonlocal_arrivals: u64,
    /// Arrivals this region's admission would have rejected that spilled
    /// to a remote region instead.
    pub spill_out: u64,
    /// Spilled arrivals from other regions this region absorbed.
    pub spill_in: u64,
    /// Requests that completed in this region (after any migrations).
    pub completed: u64,
    /// Cross-region escape migrations launched out of this region.
    pub cross_region_out: u64,
    /// Requests that migrated into this region over the WAN.
    pub cross_region_in: u64,
    /// The region's admission tally, summed over its shards.
    pub admission: AdmissionCounters,
}

/// One arrival the admission controller turned away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionRecord {
    /// The rejected request.
    pub id: RequestId,
    /// When the rejection happened (the arrival time).
    pub at: SimTime,
    /// Cluster-wide KV bytes (in-flight current + predicted growth + the
    /// incoming request's predicted final footprint) at decision time.
    pub projected_kv_bytes: u64,
    /// The byte budget the projection was tested against.
    pub budget_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejection_rate_handles_empty_and_mixed() {
        assert_eq!(AdmissionCounters::default().rejection_rate(), 0.0);
        let c = AdmissionCounters {
            admitted: 3,
            rejected: 1,
            spilled: 0,
        };
        assert!((c.rejection_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn diverged_sums_overrides() {
        let m = MigrationOutcomes {
            considered: 10,
            launched: 5,
            vetoed_by_cost: 3,
            aborted_no_reservation: 2,
            ..MigrationOutcomes::default()
        };
        assert_eq!(m.diverged(), 5);
    }

    #[test]
    fn escape_conservation_accepts_balanced_tallies() {
        MigrationOutcomes::default().assert_escape_conservation();
        let m = MigrationOutcomes {
            cross_shard_considered: 3,
            cross_shard_launched: 1,
            cross_shard_vetoed_by_cost: 1,
            cross_shard_aborted: 1,
            cross_region_considered: 2,
            cross_region_launched: 1,
            cross_region_vetoed_by_cost: 1,
            ..MigrationOutcomes::default()
        };
        m.assert_escape_conservation();
    }

    #[test]
    #[should_panic(expected = "cross-shard escapes must resolve")]
    fn escape_conservation_rejects_unbalanced_tallies() {
        let m = MigrationOutcomes {
            cross_shard_considered: 2,
            cross_shard_launched: 1,
            ..MigrationOutcomes::default()
        };
        m.assert_escape_conservation();
    }

    #[test]
    fn absorb_sums_every_field() {
        let one = MigrationOutcomes {
            considered: 3,
            launched: 2,
            vetoed_by_cost: 1,
            aborted_no_reservation: 1,
            landed_in_cpu: 1,
            bytes_moved: 100,
            total_stall: SimDuration::from_millis(5),
            cross_shard_considered: 2,
            cross_shard_vetoed_by_cost: 1,
            cross_shard_aborted: 1,
            cross_shard_launched: 1,
            cross_shard_bytes_moved: 40,
            cross_shard_fallbacks: 1,
            cross_shard_fallbacks_after_veto: 1,
            cross_region_considered: 3,
            cross_region_vetoed_by_cost: 1,
            cross_region_aborted: 1,
            cross_region_launched: 1,
            cross_region_bytes_moved: 25,
        };
        let mut total = one;
        total.absorb(&one);
        assert_eq!(total.considered, 6);
        assert_eq!(total.launched, 4);
        assert_eq!(total.bytes_moved, 200);
        assert_eq!(total.total_stall, SimDuration::from_millis(10));
        assert_eq!(total.cross_shard_considered, 4);
        assert_eq!(total.cross_shard_aborted, 2);
        assert_eq!(total.cross_shard_launched, 2);
        assert_eq!(total.cross_shard_bytes_moved, 80);
        assert_eq!(total.cross_shard_fallbacks, 2);
        assert_eq!(total.cross_shard_fallbacks_after_veto, 2);
        assert_eq!(total.cross_region_considered, 6);
        assert_eq!(total.cross_region_vetoed_by_cost, 2);
        assert_eq!(total.cross_region_aborted, 2);
        assert_eq!(total.cross_region_launched, 2);
        assert_eq!(total.cross_region_bytes_moved, 50);

        let mut adm = AdmissionCounters {
            admitted: 4,
            rejected: 1,
            spilled: 2,
        };
        adm.absorb(&AdmissionCounters {
            admitted: 6,
            rejected: 2,
            spilled: 1,
        });
        assert_eq!((adm.admitted, adm.rejected, adm.spilled), (10, 3, 3));
    }

    #[test]
    fn fleet_outcomes_absorb_and_derive() {
        let one = FleetOutcomes {
            transitions: 4,
            joins: 1,
            fails: 2,
            drains_started: 2,
            drains_completed: 1,
            drain_time: SimDuration::from_secs(3),
            stranded: 5,
            rebalanced: 7,
            autoscale_up: 2,
            autoscale_down: 1,
        };
        assert!((one.mean_drain_completion_s() - 3.0).abs() < 1e-12);
        assert_eq!(one.autoscale_actions(), 3);
        let mut total = one;
        total.absorb(&one);
        assert_eq!(total.transitions, 8);
        assert_eq!(total.joins, 2);
        assert_eq!(total.fails, 4);
        assert_eq!(total.drains_started, 4);
        assert_eq!(total.drains_completed, 2);
        assert_eq!(total.drain_time, SimDuration::from_secs(6));
        assert_eq!(total.stranded, 10);
        assert_eq!(total.rebalanced, 14);
        assert_eq!(total.autoscale_actions(), 6);
        assert!((total.mean_drain_completion_s() - 3.0).abs() < 1e-12);
        assert_eq!(FleetOutcomes::default().mean_drain_completion_s(), 0.0);
    }
}
