//! Point-to-point transfer links: PCIe host links and the inter-node fabric.
//!
//! §V-A models eight server nodes "connected via a 100 Gbps fabric"; §V-C
//! studies the contention that arises when several instances migrate KV
//! caches to the same target. [`LinkSpec`] gives the per-transfer service
//! time; queueing/serialization on top of it lives in `pascal-cluster`.

use pascal_sim::SimDuration;

/// Bandwidth and base latency of a point-to-point link.
///
/// # Examples
///
/// ```
/// use pascal_model::LinkSpec;
///
/// let fabric = LinkSpec::fabric_100gbps();
/// // 2048 tokens x 256 KiB = 512 MiB over ~12.5 GB/s is ~40-45 ms, the
/// // figure the paper quotes from Splitwise for a 2048-token migration.
/// let t = fabric.transfer_time(512 * 1024 * 1024);
/// assert!((30.0..60.0).contains(&t.as_millis_f64()));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Achievable bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Fixed per-transfer setup latency in seconds.
    pub base_latency_s: f64,
}

impl LinkSpec {
    /// Creates a link from raw bandwidth (bytes/s) and setup latency (s).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not strictly positive or `base_latency_s` is
    /// negative.
    #[must_use]
    pub fn new(bandwidth: f64, base_latency_s: f64) -> Self {
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "link bandwidth must be positive, got {bandwidth}"
        );
        assert!(
            base_latency_s.is_finite() && base_latency_s >= 0.0,
            "link latency must be non-negative, got {base_latency_s}"
        );
        LinkSpec {
            bandwidth,
            base_latency_s,
        }
    }

    /// The 100 Gbps inter-node fabric of the paper's cluster (§V-A), at
    /// ~95% efficiency with a 100 µs setup cost.
    #[must_use]
    pub fn fabric_100gbps() -> Self {
        LinkSpec::new(100.0e9 / 8.0 * 0.95, 100.0e-6)
    }

    /// An effective PCIe 5.0 x16 host link (~50 GB/s, 10 µs setup).
    #[must_use]
    pub fn pcie5_x16() -> Self {
        LinkSpec::new(50.0e9, 10.0e-6)
    }

    /// The inter-shard interconnect: traffic between scheduling domains
    /// crosses the spine, so it sees a quarter of the intra-shard fabric
    /// bandwidth and a higher setup cost. This asymmetry is what makes the
    /// migration cost/benefit test price cross-shard moves above
    /// intra-shard ones.
    #[must_use]
    pub fn interconnect_25gbps() -> Self {
        LinkSpec::new(25.0e9 / 8.0 * 0.95, 500.0e-6)
    }

    /// Time to push `bytes` through the link, ignoring queueing.
    #[must_use]
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.base_latency_s + bytes as f64 / self.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fabric_matches_papers_40ms_reference() {
        // §IV-B: "a one-time transfer delay of approximately 40 ms for
        // 2,048 tokens" (at 256 KiB/token).
        let bytes = 2048 * 256 * 1024;
        let ms = LinkSpec::fabric_100gbps()
            .transfer_time(bytes)
            .as_millis_f64();
        assert!(
            (35.0..55.0).contains(&ms),
            "fabric transfer {ms} ms out of band"
        );
    }

    #[test]
    fn pcie_is_faster_than_fabric() {
        let bytes = 100_000_000;
        assert!(
            LinkSpec::pcie5_x16().transfer_time(bytes)
                < LinkSpec::fabric_100gbps().transfer_time(bytes)
        );
    }

    #[test]
    fn interconnect_is_slower_than_fabric() {
        // The inter-shard tier must be strictly more expensive at every
        // size, or the two-tier topology stops pricing cross-shard moves
        // higher than intra-shard ones.
        for bytes in [0u64, 1 << 10, 1 << 30] {
            assert!(
                LinkSpec::interconnect_25gbps().transfer_time(bytes)
                    > LinkSpec::fabric_100gbps().transfer_time(bytes)
            );
        }
    }

    #[test]
    fn zero_bytes_costs_only_setup() {
        let link = LinkSpec::new(1e9, 0.5);
        assert_eq!(link.transfer_time(0).as_secs_f64(), 0.5);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = LinkSpec::new(0.0, 0.0);
    }

    proptest! {
        #[test]
        fn prop_transfer_monotone_in_bytes(a in 0u64..1 << 40, b in 0u64..1 << 40) {
            let link = LinkSpec::fabric_100gbps();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(link.transfer_time(lo) <= link.transfer_time(hi));
        }
    }
}
