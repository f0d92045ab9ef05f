//! # pascal-federation — cross-cluster scheduling above the shard router
//!
//! PASCAL's placement story is a hierarchy of the same decision at growing
//! granularity: Algorithm 1 picks an instance inside a shard, the cluster
//! router picks a shard inside a region, and this crate adds the top rung —
//! a *federation* of regions, each wrapping one cluster-of-shards, connected
//! by a WAN tier whose bandwidth and latency sit well above the intra-region
//! interconnect. Three pieces:
//!
//! * [`RegionSpec`] / [`FederationSpec`] — the deployment description: how
//!   many regions, how each region partitions its instance pool into
//!   shards, and which [`WanLink`] connects them;
//! * [`WanLink`] — the WAN tier: named link presets (`metro` …
//!   `transoceanic`), all strictly more expensive than the inter-shard
//!   interconnect. The engine runs them through per-region full-duplex
//!   ports (the same serialization model as the intra-region fabric, one
//!   level up); because the migration cost/benefit veto prices transfers
//!   at the link, the WAN tier *naturally* forbids frivolous cross-region
//!   moves;
//! * [`FederationPolicy`] — the region router: every arrival carries an
//!   `origin_region` tag, and `static` serves it at home, `nearest` fails
//!   over to the closest healthy region, `predictive` is Algorithm 1
//!   lifted one more level — smallest current-plus-predicted KV footprint
//!   over per-region aggregate [`PoolSnapshot`]s.
//!
//! The engine that ties these to the serving simulation lives in
//! `pascal-core::engine` (the `hierarchy` module); this crate holds the
//! pure, engine-independent vocabulary so policies and topologies are
//! testable in isolation.
//!
//! # Examples
//!
//! ```
//! use pascal_federation::{FederationPolicy, WanLink};
//!
//! let policy = FederationPolicy::parse("predictive").unwrap();
//! assert_eq!(policy.key(), "predictive");
//! // Every WAN preset is pricier than the inter-shard interconnect.
//! let wan = WanLink::parse("continental").unwrap();
//! let bytes = 512 * 1024 * 1024;
//! assert!(
//!     wan.link().transfer_time(bytes)
//!         > pascal_model::LinkSpec::interconnect_25gbps().transfer_time(bytes)
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod policy;
mod region;
mod wan;

pub use policy::{ring_distance, FederationPolicy};
pub use region::{spill_order, FederationSpec, RegionSpec};
pub use wan::WanLink;
