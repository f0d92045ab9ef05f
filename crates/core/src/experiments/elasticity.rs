//! Elasticity under failure: a region outage on a two-region federation,
//! static vs predictive routing, on the identical paired trace.
//!
//! The `outage` fleet preset drains the last region a quarter of the way
//! into the run, hard-fails it at 45%, and brings it back at 70%. Because
//! the trace seed is derived only from trace-defining axes, both cells
//! serve the *identical* request bodies with the identical origin tags —
//! the only difference is what the federation does about the hole:
//!
//! * `static` pins every arrival to its origin region, so requests born
//!   in the failed region queue against capacity that no longer exists
//!   and strand;
//! * `predictive` sees the failed region report zero healthy instances,
//!   routes its arrivals to the survivor, and the drain warning lets the
//!   cost/benefit controller migrate residents out before the failure
//!   lands.
//!
//! The acceptance bar (the in-module test): predictive routing plus
//! drain-and-migrate must beat static routing on stranded-request count
//! AND on the worst origin region's p99 TTFT.

use pascal_federation::FederationPolicy;
use pascal_metrics::{LatencySummary, SweepCellMetrics};
use pascal_predict::PredictorKind;
use pascal_sched::PolicyKind;
use pascal_sim::SimDuration;
use pascal_workload::MixPreset;

use crate::config::RateLevel;
use crate::engine::run_simulation;
use crate::fleet::FleetPreset;
use crate::sweep::{default_threads, parallel_map, ScenarioSpec, SweepCell, SweepRunner};

/// One row of the outage comparison.
#[derive(Clone, Debug)]
pub struct ElasticityRow {
    /// Federation router under test.
    pub fed_router: FederationPolicy,
    /// The cell's aggregate metrics (over completed requests).
    pub metrics: SweepCellMetrics,
    /// Requests lost to the outage (no healthy instance could take them).
    pub stranded: u64,
    /// Queued-work moves performed by the water-filling rebalancer.
    pub rebalanced: u64,
    /// Planned drains that emptied before the failure landed.
    pub drains_completed: u64,
    /// Worst per-origin-region p99 TTFT across completed requests —
    /// the failed region's users pay this bill under static routing.
    pub worst_region_p99_s: Option<f64>,
}

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct ElasticityParams {
    /// Requests per trace.
    pub count: usize,
    /// Trace seed (shared by both cells — the comparison is paired).
    pub seed: u64,
    /// Worker threads (0 = default pool width).
    pub threads: usize,
}

impl Default for ElasticityParams {
    fn default() -> Self {
        ElasticityParams {
            count: 1500,
            seed: 2026,
            threads: 0,
        }
    }
}

/// Runs the paired outage cells and annotates each with its stranding,
/// drain and per-origin-region tail figures.
#[must_use]
pub fn run(params: ElasticityParams) -> Vec<ElasticityRow> {
    let specs: Vec<ScenarioSpec> = [FederationPolicy::Static, FederationPolicy::Predictive]
        .into_iter()
        .map(|fed| {
            ScenarioSpec::new(
                MixPreset::Mixed,
                RateLevel::High,
                PolicyKind::Pascal,
                params.count,
                params.seed,
            )
            .with_predictor(PredictorKind::Quantile)
            .with_migration_benefit(1.0)
            .with_regions(2, fed)
            .with_fleet(FleetPreset::Outage)
        })
        .collect();
    SweepRunner::new(params.threads).run_map(&specs, |spec, out| {
        // p99 TTFT per *origin* region (the user-centric cut: where the
        // request came from, not where it was served), worst case across
        // regions. Stranded requests never produce a record, so this
        // understates static routing's damage — the stranded count is
        // the other half of the bill.
        let worst_region_p99_s = (0..spec.regions as u32)
            .filter_map(|region| {
                LatencySummary::from_values(
                    out.records
                        .iter()
                        .filter(|r| r.spec.origin_region == region)
                        .filter_map(|r| r.ttft().map(|d| d.as_secs_f64())),
                )
                .map(|s| s.p99)
            })
            .fold(None, |acc: Option<f64>, p| {
                Some(acc.map_or(p, |a| a.max(p)))
            });
        let cell = SweepCell::from_output(*spec, spec.rate_rps(), &out);
        ElasticityRow {
            fed_router: spec.fed_router,
            metrics: cell.metrics,
            stranded: out.fleet.stranded,
            rebalanced: out.fleet.rebalanced,
            drains_completed: out.fleet.drains_completed,
            worst_region_p99_s,
        }
    })
}

/// One row of the scale-up lead-time sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct LeadTimeRow {
    /// Provisioning lead time: how long a scale-up takes to deliver
    /// capacity after the autoscaler decides
    /// ([`AutoscalePolicy::lead`](crate::fleet::AutoscalePolicy::lead)).
    pub lead_s: f64,
    /// The cell's aggregate metrics (over completed requests).
    pub metrics: SweepCellMetrics,
    /// Scale-up decisions the autoscaler made.
    pub autoscale_up: u64,
    /// Scale-down drains the autoscaler started.
    pub autoscale_down: u64,
}

/// Lead-time sweep parameters.
#[derive(Clone, Debug)]
pub struct LeadTimeParams {
    /// Requests per trace (shared across every row — the sweep is paired).
    pub count: usize,
    /// Trace seed.
    pub seed: u64,
    /// Worker threads (0 = default pool width).
    pub threads: usize,
    /// Lead times to sweep, as fractions of the run's arrival horizon
    /// (`count / rate`), so the axis scales with any `count` override.
    pub lead_fractions: Vec<f64>,
}

impl Default for LeadTimeParams {
    fn default() -> Self {
        LeadTimeParams {
            count: 1500,
            seed: 2026,
            threads: 0,
            lead_fractions: vec![0.0, 0.05, 0.10, 0.20, 0.40],
        }
    }
}

/// Sweeps the autoscaler's provisioning lead time on the flash-crowd
/// preset: the identical bursty trace against the identical scaler
/// thresholds, varying only how long a scale-up takes to deliver capacity.
/// The question the sweep answers is the elasticity follow-up to Fig. 11:
/// how fast must provisioning be before reactive scaling stops costing
/// SLO violations during a burst?
///
/// # Panics
///
/// Panics if `lead_fractions` is empty or contains a negative or
/// non-finite fraction.
#[must_use]
pub fn run_lead_time_sweep(params: &LeadTimeParams) -> Vec<LeadTimeRow> {
    assert!(
        !params.lead_fractions.is_empty(),
        "lead-time sweep needs at least one fraction"
    );
    assert!(
        params
            .lead_fractions
            .iter()
            .all(|f| f.is_finite() && *f >= 0.0),
        "lead fractions must be non-negative finite numbers"
    );
    let spec = ScenarioSpec::new(
        MixPreset::Mixed,
        RateLevel::High,
        PolicyKind::Pascal,
        params.count,
        params.seed,
    )
    .with_predictor(PredictorKind::Quantile)
    .with_fleet(FleetPreset::FlashCrowd);
    let horizon_s = spec.count as f64 / spec.rate_rps();
    // One trace for every row: the burst is identical, so the lead time is
    // the only thing that varies between rows.
    let trace = spec.trace();
    let leads: Vec<f64> = params
        .lead_fractions
        .iter()
        .map(|f| f * horizon_s)
        .collect();
    let threads = if params.threads == 0 {
        default_threads()
    } else {
        params.threads
    };
    parallel_map(leads.len(), threads, |i| {
        let mut config = spec.config();
        config
            .fleet
            .as_mut()
            .and_then(|f| f.autoscale.as_mut())
            .expect("the flash-crowd preset always arms the autoscaler")
            .lead = SimDuration::from_secs_f64(leads[i]);
        let out = run_simulation(&trace, &config);
        LeadTimeRow {
            lead_s: leads[i],
            autoscale_up: out.fleet.autoscale_up,
            autoscale_down: out.fleet.autoscale_down,
            metrics: SweepCell::from_output(spec, spec.rate_rps(), &out).metrics,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_conserves_every_request() {
        let rows = run(ElasticityParams {
            count: 300,
            seed: 7,
            threads: 2,
        });
        assert_eq!(rows.len(), 2);
        for row in &rows {
            // Nothing vanishes: every admitted request either completes
            // or is counted stranded.
            assert_eq!(
                row.metrics.requests as u64 + row.stranded,
                300,
                "{} must conserve requests",
                row.fed_router
            );
            assert!(row.worst_region_p99_s.is_some(), "someone answered");
        }
    }

    #[test]
    fn predictive_routing_degrades_gracefully_where_static_strands() {
        // The acceptance bar for the elasticity layer: on the same paired
        // trace through the same outage, load-aware routing plus
        // drain-and-migrate must strand strictly fewer requests AND hold
        // a strictly better worst-region p99 TTFT than geo-pinned static
        // routing.
        let rows = run(ElasticityParams::default());
        let pick = |fed: FederationPolicy| {
            rows.iter()
                .find(|r| r.fed_router == fed)
                .expect("cell exists")
        };
        let st = pick(FederationPolicy::Static);
        let pr = pick(FederationPolicy::Predictive);
        assert!(
            pr.stranded < st.stranded,
            "predictive must strand fewer requests: {} vs {}",
            pr.stranded,
            st.stranded
        );
        let st_p99 = st.worst_region_p99_s.expect("static answered someone");
        let pr_p99 = pr.worst_region_p99_s.expect("predictive answered someone");
        assert!(
            pr_p99 < st_p99,
            "predictive must hold a better worst-region p99: {pr_p99:.2}s vs {st_p99:.2}s"
        );
    }

    #[test]
    fn lead_time_sweep_is_deterministic_and_conserves_requests() {
        let params = LeadTimeParams {
            count: 300,
            seed: 7,
            threads: 2,
            lead_fractions: vec![0.0, 0.2],
        };
        let rows = run_lead_time_sweep(&params);
        assert_eq!(
            rows,
            run_lead_time_sweep(&params),
            "paired sweep must be deterministic"
        );
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(
                row.metrics.requests as u64 + row.metrics.requests_stranded,
                300,
                "lead {:.1}s must conserve requests",
                row.lead_s
            );
        }
    }

    #[test]
    fn slower_provisioning_pays_a_worse_tail() {
        // The axis's reason to exist: with the identical burst and
        // thresholds, capacity that arrives 40% of the horizon late must
        // pay a worse tail TTFT than capacity that arrives instantly —
        // the burst queues for the whole provisioning window. (SLO
        // violation rate is deliberately not asserted monotone: a shorter
        // lead also quickens scale-down oscillation, which can offset it
        // at mid-range leads.)
        let rows = run_lead_time_sweep(&LeadTimeParams::default());
        assert!(
            rows.iter().all(|r| r.autoscale_up > 0),
            "the flash crowd must trigger scale-ups at every lead time"
        );
        let instant = rows.first().expect("instant-lead row");
        let slowest = rows.last().expect("slowest-lead row");
        assert!(instant.lead_s < slowest.lead_s);
        let instant_p99 = instant
            .metrics
            .ttft_p99_s
            .expect("instant row completed requests");
        let slowest_p99 = slowest
            .metrics
            .ttft_p99_s
            .expect("slowest row completed requests");
        assert!(
            instant_p99 < slowest_p99,
            "instant capacity must hold a better p99 TTFT than late capacity: \
             {instant_p99:.2}s vs {slowest_p99:.2}s"
        );
    }
}
