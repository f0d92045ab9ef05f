//! The WAN tier: named cross-region links.
//!
//! Cross-region KV transfers ride links an order of magnitude slower (and
//! dozens of milliseconds farther) than the intra-region interconnect.
//! [`WanLink`] names four distance classes. The engine gives every region
//! one full-duplex WAN port over the class's link (a
//! [`Fabric`](pascal_cluster::Fabric) of one port per region), which
//! serializes concurrent transfers on shared endpoints — the same
//! contention model as the instance fabric and the inter-shard
//! interconnect, applied one level up. The migration cost/benefit veto
//! prices candidate moves at the link, so the tier's expense is what keeps
//! cross-region migration an act of last resort.

use pascal_model::LinkSpec;

/// A named WAN distance class connecting the federation's regions.
///
/// # Examples
///
/// ```
/// use pascal_federation::WanLink;
///
/// let wan = WanLink::parse("transoceanic").unwrap();
/// assert_eq!(wan.key(), "transoceanic");
/// assert!(WanLink::parse("carrier-pigeon").is_err());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum WanLink {
    /// Same metro area (<100 km): 25 Gbps effective, 2 ms RTT-class setup.
    Metro,
    /// Same geographic region (~1000 km): 10 Gbps, 15 ms.
    Regional,
    /// Cross-continent (~4000 km): 5 Gbps, 35 ms — the default.
    #[default]
    Continental,
    /// Across an ocean: 2.5 Gbps, 75 ms.
    Transoceanic,
}

impl WanLink {
    /// All distance classes, nearest first.
    pub const ALL: [WanLink; 4] = [
        WanLink::Metro,
        WanLink::Regional,
        WanLink::Continental,
        WanLink::Transoceanic,
    ];

    /// The short CLI/JSON key.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            WanLink::Metro => "metro",
            WanLink::Regional => "regional",
            WanLink::Continental => "continental",
            WanLink::Transoceanic => "transoceanic",
        }
    }

    /// Parses a CLI-style key.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid keys.
    pub fn parse(s: &str) -> Result<WanLink, String> {
        WanLink::ALL
            .into_iter()
            .find(|w| w.key() == s)
            .ok_or_else(|| {
                let keys: Vec<&str> = WanLink::ALL.iter().map(|w| w.key()).collect();
                format!("unknown WAN link '{s}' (valid: {})", keys.join(", "))
            })
    }

    /// The physical link: effective bandwidth at ~95% protocol efficiency,
    /// setup latency dominated by propagation delay. Every preset is
    /// strictly more expensive than the inter-shard
    /// [`LinkSpec::interconnect_25gbps`] at every transfer size — the
    /// invariant that makes the cost/benefit veto monotone up the
    /// hierarchy.
    #[must_use]
    pub fn link(self) -> LinkSpec {
        let (gbps, latency_ms) = match self {
            WanLink::Metro => (25.0, 2.0),
            WanLink::Regional => (10.0, 15.0),
            WanLink::Continental => (5.0, 35.0),
            WanLink::Transoceanic => (2.5, 75.0),
        };
        LinkSpec::new(gbps * 1.0e9 / 8.0 * 0.95, latency_ms * 1.0e-3)
    }
}

impl std::fmt::Display for WanLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascal_cluster::Fabric;
    use pascal_sim::SimTime;

    #[test]
    fn keys_round_trip_and_errors_list_valid_values() {
        for wan in WanLink::ALL {
            assert_eq!(WanLink::parse(wan.key()), Ok(wan));
            assert_eq!(wan.to_string(), wan.key());
        }
        let err = WanLink::parse("dialup").expect_err("unknown link");
        assert!(
            err.contains("valid: metro, regional, continental, transoceanic"),
            "error must list the valid values, got: {err}"
        );
        assert_eq!(WanLink::default(), WanLink::Continental);
    }

    #[test]
    fn every_wan_class_is_pricier_than_the_interconnect() {
        // The hierarchy invariant: fabric < interconnect < every WAN class.
        // Without it the cost/benefit veto would stop being monotone in
        // distance and a "cheap" WAN hop could undercut a local move.
        let fabric = LinkSpec::fabric_100gbps();
        let interconnect = LinkSpec::interconnect_25gbps();
        for bytes in [0u64, 1 << 20, 1 << 30] {
            assert!(
                interconnect.transfer_time(bytes) > fabric.transfer_time(bytes),
                "the interconnect must be pricier than the fabric at {bytes} bytes"
            );
        }
        for wan in WanLink::ALL {
            for bytes in [0u64, 1 << 20, 1 << 30] {
                assert!(
                    wan.link().transfer_time(bytes) > interconnect.transfer_time(bytes),
                    "{wan} must be pricier than the interconnect at {bytes} bytes"
                );
            }
        }
    }

    #[test]
    fn wan_classes_are_ordered_by_distance() {
        let bytes = 256 * 1024 * 1024;
        let times: Vec<f64> = WanLink::ALL
            .iter()
            .map(|w| w.link().transfer_time(bytes).as_secs_f64())
            .collect();
        assert!(
            times.windows(2).all(|w| w[0] < w[1]),
            "transfer times must grow with distance: {times:?}"
        );
    }

    #[test]
    fn topology_contends_on_shared_ports_and_not_on_disjoint_pairs() {
        // The WAN tier as the engine builds it: one full-duplex port per
        // region over the class's link.
        let mut wan = Fabric::new(4, WanLink::Regional.link());
        let bytes = 1 << 30;
        let (s1, f1) = wan.migrate(SimTime::ZERO, 0, 1, bytes);
        assert_eq!(f1, s1 + WanLink::Regional.link().transfer_time(bytes));
        let (s2, _) = wan.migrate(SimTime::ZERO, 2, 3, bytes);
        assert_eq!(s2, SimTime::ZERO, "disjoint region pairs run concurrently");
        let (s3, _) = wan.migrate(SimTime::ZERO, 0, 2, bytes);
        assert_eq!(s3, f1, "region 0's egress serializes");
    }
}
