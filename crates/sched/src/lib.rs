//! # pascal-sched — scheduling policies for reasoning-LLM serving
//!
//! The paper's contribution and its baselines behind one interface:
//!
//! * [`SchedPolicy::Fcfs`] — vLLM's default first-come-first-served policy
//!   with head-of-line blocking and most-recent preemption (§II-C);
//! * [`SchedPolicy::RoundRobin`] — preemptive time-sharing with a fixed
//!   token quantum (§II-C, quantum 500 in §V-A);
//! * [`SchedPolicy::Pascal`] — the phase-aware hierarchical scheduler
//!   (§IV): high/low priority queues with per-queue round-robin,
//!   conditional demotion of oversized reasoning requests, Algorithm 1
//!   placement, Algorithm 2 migration and the Fig. 7 adaptive override.
//!   The Fig. 13 / Fig. 15 ablations are configuration flags on
//!   [`PascalConfig`].
//!
//! Above the per-shard policies sits the cluster boundary:
//! [`RouterPolicy`] pins every arrival to one scheduling domain (shard)
//! before the shard's Algorithm 1 runs, and [`escape_target`] lifts
//! Algorithm 2 to shard (and region) granularity for requests whose home
//! shard has saturated.
//!
//! # Examples
//!
//! ```
//! use pascal_cluster::InstanceStats;
//! use pascal_sched::{PascalConfig, SchedPolicy};
//!
//! let policy = SchedPolicy::pascal(PascalConfig::default());
//! let stats = vec![
//!     InstanceStats {
//!         instance: 0,
//!         slo_ok: true,
//!         kv_footprint_bytes: 900,
//!         reasoning_count: 3,
//!         fresh_answering_count: 0,
//!         gpu_free_blocks: Some(10),
//!         predicted_future_kv_bytes: 0,
//!     },
//!     InstanceStats {
//!         instance: 1,
//!         slo_ok: true,
//!         kv_footprint_bytes: 100,
//!         reasoning_count: 7,
//!         fresh_answering_count: 2,
//!         gpu_free_blocks: Some(10),
//!         predicted_future_kv_bytes: 0,
//!     },
//! ];
//! // Algorithm 1: new reasoning work goes to the smallest KV footprint.
//! assert_eq!(policy.place_new_request(&stats), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod policy;
mod router;
mod spec;

pub use policy::{MigrationCost, MigrationDecision, PascalConfig, PriorityKey, SchedPolicy};
pub use router::{best_escape_shard, escape_target, RouterPolicy};
pub use spec::PolicyKind;
