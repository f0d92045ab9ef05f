//! # pascal-cluster — the serving-instance substrate
//!
//! The stateful building blocks underneath the schedulers:
//!
//! * [`KvPool`] — block-granular paged KV memory (GPU bounded, CPU backing
//!   store), with the peak-usage tracking the "50% of oracle capacity"
//!   characterization configuration needs (§III-A);
//! * [`BandwidthChannel`] / [`Fabric`] — FIFO-serialized PCIe host links and
//!   the 100 Gbps inter-node migration fabric with ingress/egress contention
//!   (§V-C); the same port model, one port per shard or per region, carries
//!   the slower tiers above a shard (the inter-shard interconnect, the
//!   WAN);
//! * the §II-C token pacer, whose starvation state defines `t_i` in
//!   Algorithms 1 and 2, is read off each request's answer-stream curve
//!   ([`pascal_metrics::StallCurve::on_pace_until`]); the counting pacer it
//!   replaced survives as the test reference that curve is checked
//!   against;
//! * [`RequestState`] / [`KvLocation`] — per-request runtime state with the
//!   executed / blocked / preempted wall-time decomposition of Fig. 4/5;
//! * [`Instance`] / [`InstanceStats`] — the unit of execution and the
//!   monitor snapshot consumed by the instance-level scheduler (Fig. 6).
//!
//! # Examples
//!
//! ```
//! use pascal_cluster::{Instance, InstanceStats};
//! use pascal_model::{KvGeometry, LinkSpec};
//!
//! let geo = KvGeometry::new(16, 262_144);
//! let inst = Instance::new(0, geo, Some(geo.block_bytes() * 1000), LinkSpec::pcie5_x16());
//! assert_eq!(inst.gpu.capacity_blocks(), Some(1000));
//! assert_eq!(inst.kv_footprint_bytes(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod instance;
mod kv;
#[cfg(test)]
mod pacer;
mod slab;
mod state;

pub use channel::{BandwidthChannel, Fabric};
pub use instance::{Instance, InstanceStats, PoolSnapshot};
pub use kv::KvPool;
pub use slab::{Members, ReqHandle, RequestSlab};
pub use state::{KvLocation, RequestState};
