//! Region descriptors and region-aware admission helpers.
//!
//! A [`RegionSpec`] describes one region: a cluster-of-shards with its own
//! instance pool sizing (the engine gives each region its own two-tier
//! topology and folds its event clock under the one global clock). A
//! [`FederationSpec`] is the whole deployment: the regions plus the
//! [`WanLink`] class connecting them.
//!
//! [`spill_order`] is the admission side of region awareness: when a
//! region's SLO budget would reject an arrival, the federation tries the
//! remote regions in this order *before* turning the user away.

use pascal_cluster::PoolSnapshot;

use crate::policy::ring_distance;
use crate::wan::WanLink;

/// One region of a federated deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionSpec {
    /// Region index within the federation.
    pub id: u32,
    /// Scheduling domains (shards) inside the region.
    pub shards: usize,
    /// Instances per shard.
    pub instances_per_shard: usize,
}

impl RegionSpec {
    /// Total instances in the region.
    #[must_use]
    pub fn instances(&self) -> usize {
        self.shards * self.instances_per_shard
    }
}

/// The whole federated deployment: regions plus their WAN class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FederationSpec {
    /// The member regions, in id order.
    pub regions: Vec<RegionSpec>,
    /// The WAN distance class connecting them.
    pub wan: WanLink,
}

impl FederationSpec {
    /// An even partition: `instances` split across `regions` regions of
    /// `shards` shards each — aggregate capacity fixed as the region count
    /// varies, mirroring how the shard sweep holds capacity fixed as the
    /// shard count varies.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or the instances do not divide evenly.
    #[must_use]
    pub fn uniform(regions: usize, shards: usize, instances: usize, wan: WanLink) -> Self {
        assert!(regions > 0, "need at least one region");
        assert!(shards > 0, "need at least one shard per region");
        assert!(
            instances % (regions * shards) == 0 && instances > 0,
            "{instances} instances do not split evenly into {regions} regions \
             of {shards} shards"
        );
        let per_shard = instances / (regions * shards);
        FederationSpec {
            regions: (0..regions)
                .map(|id| RegionSpec {
                    id: id as u32,
                    shards,
                    instances_per_shard: per_shard,
                })
                .collect(),
            wan,
        }
    }

    /// Total instances across the federation.
    #[must_use]
    pub fn total_instances(&self) -> usize {
        self.regions.iter().map(RegionSpec::instances).sum()
    }

    /// Total shards across the federation.
    #[must_use]
    pub fn total_shards(&self) -> usize {
        self.regions.iter().map(|r| r.shards).sum()
    }
}

/// The order in which a rejected arrival tries remote regions before the
/// federation gives up and turns it away: SLO-healthy regions first,
/// smallest current-plus-predicted KV footprint, ties by ring distance
/// from `home`, then region id. Regions with no healthy instance are
/// omitted entirely — spilling into a saturated region only trades a
/// rejection for an SLO violation plus WAN latency.
#[must_use]
pub fn spill_order(pools: &[PoolSnapshot], home: usize) -> Vec<usize> {
    let mut candidates: Vec<usize> = (0..pools.len())
        .filter(|&r| r != home && pools[r].slo_healthy_instances > 0)
        .collect();
    candidates.sort_by_key(|&r| {
        (
            pools[r].predicted_kv_bytes,
            ring_distance(home, r, pools.len()),
            r,
        )
    });
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(healthy: usize, predicted: u64) -> PoolSnapshot {
        PoolSnapshot {
            instances: 2,
            slo_healthy_instances: healthy,
            kv_bytes: predicted,
            predicted_kv_bytes: predicted,
            free_gpu_blocks: Some(10),
            reasoning_count: 0,
        }
    }

    #[test]
    fn uniform_partition_fixes_aggregate_capacity() {
        let fed = FederationSpec::uniform(4, 2, 8, WanLink::Continental);
        assert_eq!(fed.regions.len(), 4);
        assert_eq!(fed.total_instances(), 8);
        assert_eq!(fed.total_shards(), 8);
        for (i, region) in fed.regions.iter().enumerate() {
            assert_eq!(region.id, i as u32);
            assert_eq!(region.shards, 2);
            assert_eq!(region.instances_per_shard, 1);
            assert_eq!(region.instances(), 2);
        }
        let single = FederationSpec::uniform(1, 1, 8, WanLink::Metro);
        assert_eq!(single.regions[0].instances(), 8);
    }

    #[test]
    #[should_panic(expected = "do not split evenly")]
    fn uneven_region_partition_rejected() {
        let _ = FederationSpec::uniform(3, 1, 8, WanLink::Continental);
    }

    #[test]
    fn spill_order_ranks_healthy_remotes_by_footprint_then_distance() {
        let pools = vec![
            pool(0, 0), // home (saturated — that's why we're spilling)
            pool(1, 500),
            pool(1, 100),
            pool(0, 0), // saturated remote: omitted
            pool(1, 100), // ties with region 2 on footprint; nearer on the
                        // ring (0→4 wraps in one hop, 0→2 takes two)
        ];
        assert_eq!(spill_order(&pools, 0), vec![4, 2, 1]);
        // No healthy remote: nothing to try, the rejection stands.
        let all_dead = vec![pool(1, 0), pool(0, 0), pool(0, 0)];
        assert_eq!(spill_order(&all_dead, 0), Vec::<usize>::new());
    }
}
