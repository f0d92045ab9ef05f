//! The admission controller: SLO admission control from predicted lengths.
//!
//! The paper's scheduler admits every arrival and lets overload surface as
//! pacer starvation (unhealthy `t_i`) long after the cluster committed the
//! memory. Predictive admission moves the decision to arrival time: project
//! the pool's aggregate KV footprint — current bytes plus the predicted
//! future growth of every in-flight request plus the incoming request's
//! predicted final footprint — and reject the arrival when the projection
//! exceeds the configured fraction of the pool's KV budget. Rejections are
//! recorded (id, time, projection, budget) so experiments can weigh shed
//! load against the SLO violations it prevented.

use pascal_cluster::PoolSnapshot;
use pascal_metrics::{AdmissionCounters, AdmissionRecord};
use pascal_sim::SimTime;
use pascal_telemetry::TraceEventKind;
use pascal_workload::RequestSpec;

use super::Shard;

/// Admission-control mode of a deployment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdmissionMode {
    /// Every arrival is admitted — the paper's behavior.
    Disabled,
    /// Reject arrivals whose predicted aggregate KV footprint would push
    /// the pool past `max_utilization` of its GPU KV byte budget. The
    /// projection counts CPU-offloaded KV as demand on purpose: offloaded
    /// requests must reload onto a GPU to finish, so their bytes are
    /// deferred GPU demand, not relieved pressure.
    Predictive {
        /// Fraction of the pool GPU KV budget admission is willing to
        /// commit; `1.0` rejects once total predicted in-flight KV demand
        /// exceeds what the GPUs can physically hold.
        max_utilization: f64,
    },
}

impl AdmissionMode {
    /// The predictive mode at full budget utilization.
    #[must_use]
    pub fn predictive() -> Self {
        AdmissionMode::Predictive {
            max_utilization: 1.0,
        }
    }
}

/// Outcome of a (pure) admission probe: admit, or reject with the
/// projection that failed — kept so a federated deployment can probe its
/// home region, try to spill, and only *commit* whichever decision stood.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum AdmissionProbe {
    /// The arrival fits (or admission is off / memory is unbounded).
    Admit,
    /// The projection exceeded the budget.
    Reject {
        /// Projected aggregate KV bytes at decision time.
        projected_kv_bytes: u64,
        /// The byte budget the projection was tested against.
        budget_bytes: u64,
    },
}

/// Engine-side controller state: mode, pool budget and the rejection log.
pub(crate) struct AdmissionController {
    mode: AdmissionMode,
    /// Pool-wide KV byte budget (`None` = unbounded memory, never rejects).
    budget_bytes: Option<u64>,
    pub(super) counters: AdmissionCounters,
    pub(super) rejections: Vec<AdmissionRecord>,
}

impl AdmissionController {
    pub(super) fn new(mode: AdmissionMode, budget_bytes: Option<u64>) -> Self {
        if let AdmissionMode::Predictive { max_utilization } = mode {
            assert!(
                max_utilization > 0.0 && max_utilization.is_finite(),
                "admission max_utilization must be positive, got {max_utilization}"
            );
        }
        AdmissionController {
            mode,
            budget_bytes,
            counters: AdmissionCounters::default(),
            rejections: Vec::new(),
        }
    }

    pub(super) fn enabled(&self) -> bool {
        !matches!(self.mode, AdmissionMode::Disabled)
    }

    /// Rebinds the pool byte budget — the fleet layer calls this on every
    /// health transition so admission sheds load against the capacity that
    /// is actually up, not the nameplate pool size.
    pub(super) fn set_budget(&mut self, budget_bytes: Option<u64>) {
        self.budget_bytes = budget_bytes;
    }

    /// The pure admission decision — no counters, no log: the arrival
    /// router probes the home shard, may spill, and only then commits.
    fn probe(&self, pool: &PoolSnapshot, incoming_bytes: u64) -> AdmissionProbe {
        let AdmissionMode::Predictive { max_utilization } = self.mode else {
            return AdmissionProbe::Admit;
        };
        let Some(budget) = self.budget_bytes else {
            // Unbounded (oracle) memory cannot overload.
            return AdmissionProbe::Admit;
        };
        let projected = pool.predicted_kv_bytes.saturating_add(incoming_bytes);
        let limit = (budget as f64 * max_utilization) as u64;
        if projected > limit {
            AdmissionProbe::Reject {
                projected_kv_bytes: projected,
                budget_bytes: limit,
            }
        } else {
            AdmissionProbe::Admit
        }
    }

    /// Signed byte headroom left under the budget at the given pool
    /// projection — negative once the pool is overcommitted. `None` when
    /// admission is off or memory is unbounded (nothing to run out of).
    fn headroom_bytes(&self, pool: &PoolSnapshot) -> Option<i64> {
        let AdmissionMode::Predictive { max_utilization } = self.mode else {
            return None;
        };
        let budget = self.budget_bytes?;
        let limit = (budget as f64 * max_utilization) as u64;
        Some(limit as i64 - pool.predicted_kv_bytes as i64)
    }
}

impl Shard<'_> {
    /// The pure admission probe against a monitor snapshot: what this
    /// shard *would* decide, with nothing tallied or logged yet.
    pub(super) fn admission_probe(
        &self,
        spec: &RequestSpec,
        stats: &[pascal_cluster::InstanceStats],
    ) -> AdmissionProbe {
        if !self.admission_ctl.enabled() {
            return AdmissionProbe::Admit;
        }
        let pool = PoolSnapshot::aggregate(stats);
        let incoming = self.predicted_final_kv_bytes(spec);
        self.admission_ctl.probe(&pool, incoming)
    }

    /// Admission budget headroom against a monitor snapshot — the series
    /// sampler's gauge. Purely observational.
    pub(super) fn admission_headroom(
        &self,
        stats: &[pascal_cluster::InstanceStats],
    ) -> Option<i64> {
        if !self.admission_ctl.enabled() {
            return None;
        }
        let pool = PoolSnapshot::aggregate(stats);
        self.admission_ctl.headroom_bytes(&pool)
    }

    /// Tallies an admission.
    pub(super) fn admission_commit_admit(&mut self) {
        self.admission_ctl.counters.admitted += 1;
    }

    /// Tallies and logs a rejection from the probe that produced it.
    pub(super) fn admission_commit_reject(
        &mut self,
        spec: &RequestSpec,
        probe: AdmissionProbe,
        now: SimTime,
    ) {
        let AdmissionProbe::Reject {
            projected_kv_bytes,
            budget_bytes,
        } = probe
        else {
            unreachable!("committing a rejection requires a rejecting probe");
        };
        self.admission_ctl.counters.rejected += 1;
        self.admission_ctl.rejections.push(AdmissionRecord {
            id: spec.id,
            at: now,
            projected_kv_bytes,
            budget_bytes,
        });
        self.emit_trace(
            now,
            None,
            Some(spec.id),
            TraceEventKind::AdmissionRejected {
                projected_kv_bytes,
                budget_bytes,
            },
        );
    }

    /// The incoming request's predicted final KV footprint: prompt plus the
    /// predictor's total-output estimate. Without an absolute estimate the
    /// projection falls back to what is certain at arrival — the prompt.
    fn predicted_final_kv_bytes(&self, spec: &RequestSpec) -> u64 {
        let predicted_output = self
            .estimate(spec)
            .and_then(|est| est.total_tokens())
            .map_or(0, |t| t.max(0.0).round() as u64);
        self.geometry
            .bytes_for_tokens(u64::from(spec.prompt_tokens) + predicted_output)
    }
}
