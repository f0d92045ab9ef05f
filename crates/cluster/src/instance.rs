//! Serving instances and the monitor snapshot the instance-level scheduler
//! consumes.
//!
//! An *instance* is "the unit of execution \[that\] manages a replica of the
//! model weights" (§IV): one GPU with its KV pool, a PCIe channel for
//! offload/reload, and a membership set of requests. The [`InstanceStats`]
//! snapshot carries exactly the quantities Algorithms 1 and 2 read:
//! `t_i` (answering SLO health), `m_i` (GPU+CPU KV footprint), `r_i`
//! (reasoning requests in the high-priority queue) and `a_i` (answering
//! requests still in their first quantum).

use pascal_model::{KvGeometry, LinkSpec};

use crate::channel::BandwidthChannel;
use crate::kv::KvPool;
use crate::slab::Members;

/// One GPU serving instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Cluster-wide index.
    pub id: u32,
    /// GPU-resident KV pool (bounded except in oracle mode).
    pub gpu: KvPool,
    /// CPU backing store for offloaded KV caches (unbounded accounting).
    pub cpu: KvPool,
    /// Host link used by offloads and reloads (FIFO-serialized).
    pub pcie: BandwidthChannel,
    /// Requests currently assigned to this instance (deterministic
    /// ascending-id order, each carrying its state-slab handle).
    pub members: Members,
    /// Whether a compute iteration is in flight.
    pub compute_busy: bool,
}

impl Instance {
    /// Creates an idle instance.
    ///
    /// `gpu_kv_capacity_bytes = None` gives the oracle's unbounded memory.
    #[must_use]
    pub fn new(
        id: u32,
        geometry: KvGeometry,
        gpu_kv_capacity_bytes: Option<u64>,
        pcie: LinkSpec,
    ) -> Self {
        let gpu = match gpu_kv_capacity_bytes {
            Some(bytes) => KvPool::bounded(geometry, bytes),
            None => KvPool::unbounded(geometry),
        };
        Instance {
            id,
            gpu,
            cpu: KvPool::unbounded(geometry),
            pcie: BandwidthChannel::new(pcie),
            members: Members::default(),
            compute_busy: false,
        }
    }

    /// Total KV bytes attributable to this instance across GPU and CPU —
    /// `m_i` in Algorithm 1.
    #[must_use]
    pub fn kv_footprint_bytes(&self) -> u64 {
        self.gpu.used_bytes() + self.cpu.used_bytes()
    }
}

/// Monitor snapshot of one instance, the input to the instance-level
/// scheduler (Fig. 6's "instance monitor").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstanceStats {
    /// Instance index.
    pub instance: u32,
    /// `t_i`: whether every answering request currently meets its pacing
    /// SLO (token pacer not starved).
    pub slo_ok: bool,
    /// `m_i`: KV bytes held on GPU plus CPU.
    pub kv_footprint_bytes: u64,
    /// `r_i`: reasoning requests in the high-priority queue (demoted ones
    /// excluded — they live in the low-priority queue).
    pub reasoning_count: u32,
    /// `a_i`: answering requests that have not exhausted their first
    /// quantum.
    pub fresh_answering_count: u32,
    /// Free GPU KV blocks (`None` = unbounded oracle memory).
    pub gpu_free_blocks: Option<u64>,
    /// KV bytes the instance's in-flight requests are *predicted* to still
    /// grow by before completing (zero when no length predictor is active).
    /// Predictive placement ranks instances by current plus predicted
    /// footprint instead of the current footprint alone.
    pub predicted_future_kv_bytes: u64,
}

impl InstanceStats {
    /// Whether `blocks` more KV blocks would fit on the GPU right now.
    #[must_use]
    pub fn fits_blocks(&self, blocks: u64) -> bool {
        match self.gpu_free_blocks {
            None => true,
            Some(free) => free >= blocks,
        }
    }

    /// `m_i` extended with the predicted future growth: the ranking key of
    /// predictive Algorithm 1 placement. Without a predictor the second term
    /// is zero and this degenerates to the paper's plain KV footprint.
    #[must_use]
    pub fn predicted_total_kv_bytes(&self) -> u64 {
        self.kv_footprint_bytes
            .saturating_add(self.predicted_future_kv_bytes)
    }
}

/// Cluster-wide aggregate of a monitor sweep — the admission controller's
/// view of the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Number of instances in the pool.
    pub instances: usize,
    /// Instances whose answering requests are all on pace (`t_i` healthy).
    pub slo_healthy_instances: usize,
    /// Current KV bytes held across the pool (GPU + CPU).
    pub kv_bytes: u64,
    /// Current plus predicted-future KV bytes across the pool — the
    /// aggregate footprint predictive admission tests against the budget.
    pub predicted_kv_bytes: u64,
    /// Free GPU KV blocks across the pool (`None` = unbounded memory).
    pub free_gpu_blocks: Option<u64>,
    /// High-priority reasoning requests across the pool (`Σ r_i`) — the
    /// load term the cross-shard router ranks scheduling domains by.
    pub reasoning_count: u32,
}

impl PoolSnapshot {
    /// Aggregates per-instance monitor stats into the pool view.
    #[must_use]
    pub fn aggregate(stats: &[InstanceStats]) -> Self {
        let mut snap = PoolSnapshot {
            instances: stats.len(),
            slo_healthy_instances: 0,
            kv_bytes: 0,
            predicted_kv_bytes: 0,
            free_gpu_blocks: Some(0),
            reasoning_count: 0,
        };
        for s in stats {
            if s.slo_ok {
                snap.slo_healthy_instances += 1;
            }
            snap.reasoning_count += s.reasoning_count;
            snap.kv_bytes = snap.kv_bytes.saturating_add(s.kv_footprint_bytes);
            snap.predicted_kv_bytes = snap
                .predicted_kv_bytes
                .saturating_add(s.predicted_total_kv_bytes());
            snap.free_gpu_blocks = match (snap.free_gpu_blocks, s.gpu_free_blocks) {
                (Some(acc), Some(free)) => Some(acc + free),
                _ => None,
            };
        }
        snap
    }

    /// Whether every instance currently meets its answering SLO.
    #[must_use]
    pub fn all_slo_healthy(&self) -> bool {
        self.slo_healthy_instances == self.instances
    }

    /// Merges several pool views into one — how a federated deployment
    /// rolls a region's per-shard snapshots up into the region aggregate
    /// its cross-region router and escape ranking consume.
    #[must_use]
    pub fn merge<'a>(pools: impl IntoIterator<Item = &'a PoolSnapshot>) -> Self {
        let mut total = PoolSnapshot {
            instances: 0,
            slo_healthy_instances: 0,
            kv_bytes: 0,
            predicted_kv_bytes: 0,
            free_gpu_blocks: Some(0),
            reasoning_count: 0,
        };
        for p in pools {
            total.instances += p.instances;
            total.slo_healthy_instances += p.slo_healthy_instances;
            total.kv_bytes = total.kv_bytes.saturating_add(p.kv_bytes);
            total.predicted_kv_bytes = total
                .predicted_kv_bytes
                .saturating_add(p.predicted_kv_bytes);
            total.free_gpu_blocks = match (total.free_gpu_blocks, p.free_gpu_blocks) {
                (Some(acc), Some(free)) => Some(acc + free),
                _ => None,
            };
            total.reasoning_count += p.reasoning_count;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascal_sim::SimTime;

    fn geo() -> KvGeometry {
        KvGeometry::new(16, 262_144)
    }

    #[test]
    fn bounded_instance_reports_footprint() {
        let mut inst = Instance::new(
            0,
            geo(),
            Some(geo().block_bytes() * 100),
            LinkSpec::pcie5_x16(),
        );
        inst.gpu.alloc(10);
        inst.cpu.alloc(5);
        assert_eq!(inst.kv_footprint_bytes(), 15 * geo().block_bytes());
    }

    #[test]
    fn oracle_instance_has_unbounded_gpu() {
        let inst = Instance::new(0, geo(), None, LinkSpec::pcie5_x16());
        assert_eq!(inst.gpu.capacity_blocks(), None);
    }

    #[test]
    fn stats_fits_handles_bounded_and_unbounded() {
        let bounded = InstanceStats {
            instance: 0,
            slo_ok: true,
            kv_footprint_bytes: 0,
            reasoning_count: 0,
            fresh_answering_count: 0,
            gpu_free_blocks: Some(5),
            predicted_future_kv_bytes: 0,
        };
        assert!(bounded.fits_blocks(5));
        assert!(!bounded.fits_blocks(6));
        let oracle = InstanceStats {
            gpu_free_blocks: None,
            ..bounded
        };
        assert!(oracle.fits_blocks(u64::MAX));
    }

    #[test]
    fn pool_snapshot_aggregates_and_handles_unbounded() {
        let s = |slo, kv, pred, free| InstanceStats {
            instance: 0,
            slo_ok: slo,
            kv_footprint_bytes: kv,
            reasoning_count: 2,
            fresh_answering_count: 0,
            gpu_free_blocks: free,
            predicted_future_kv_bytes: pred,
        };
        let snap =
            PoolSnapshot::aggregate(&[s(true, 100, 50, Some(10)), s(false, 200, 0, Some(5))]);
        assert_eq!(snap.instances, 2);
        assert_eq!(snap.slo_healthy_instances, 1);
        assert!(!snap.all_slo_healthy());
        assert_eq!(snap.kv_bytes, 300);
        assert_eq!(snap.predicted_kv_bytes, 350);
        assert_eq!(snap.free_gpu_blocks, Some(15));
        assert_eq!(snap.reasoning_count, 4);
        // One unbounded instance makes the pool unbounded.
        let oracle = PoolSnapshot::aggregate(&[s(true, 0, 0, Some(3)), s(true, 0, 0, None)]);
        assert_eq!(oracle.free_gpu_blocks, None);
        // Empty pool aggregates to an empty snapshot.
        assert_eq!(PoolSnapshot::aggregate(&[]).instances, 0);
    }

    #[test]
    fn pool_snapshot_merge_rolls_shards_into_a_region() {
        let s = |slo, kv, pred, free| InstanceStats {
            instance: 0,
            slo_ok: slo,
            kv_footprint_bytes: kv,
            reasoning_count: 2,
            fresh_answering_count: 0,
            gpu_free_blocks: free,
            predicted_future_kv_bytes: pred,
        };
        let a = PoolSnapshot::aggregate(&[s(true, 100, 50, Some(10))]);
        let b = PoolSnapshot::aggregate(&[s(false, 200, 0, Some(5)), s(true, 50, 25, Some(1))]);
        let region = PoolSnapshot::merge([&a, &b]);
        assert_eq!(region.instances, 3);
        assert_eq!(region.slo_healthy_instances, 2);
        assert_eq!(region.kv_bytes, 350);
        assert_eq!(region.predicted_kv_bytes, 425);
        assert_eq!(region.free_gpu_blocks, Some(16));
        assert_eq!(region.reasoning_count, 6);
        // One unbounded shard makes the region unbounded; empty merge is
        // the empty snapshot.
        let oracle = PoolSnapshot::aggregate(&[s(true, 0, 0, None)]);
        assert_eq!(PoolSnapshot::merge([&a, &oracle]).free_gpu_blocks, None);
        assert_eq!(PoolSnapshot::merge([]).instances, 0);
    }

    #[test]
    fn pcie_channel_serializes_per_instance() {
        let mut inst = Instance::new(0, geo(), None, LinkSpec::new(100.0, 0.0));
        let (_, f1) = inst.pcie.enqueue(SimTime::ZERO, 100);
        let (s2, _) = inst.pcie.enqueue(SimTime::ZERO, 100);
        assert_eq!(s2, f1);
    }
}
