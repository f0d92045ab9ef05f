//! # pascal-core — the PASCAL serving engine and experiment harness
//!
//! This crate ties the whole reproduction together:
//!
//! * [`SimConfig`] / [`KvCapacityMode`] / [`RateLevel`] — deployment
//!   descriptions matching the paper's characterization testbed (§III-A)
//!   and eight-instance evaluation cluster (§V-A), plus the analytic
//!   arrival-rate calibration;
//! * [`run_simulation`] — the iteration-level multi-instance discrete-event
//!   engine implementing vLLM-style continuous batching, blocking,
//!   PCIe preemption, phase detection and fabric migration — organized as
//!   a cluster of shards: `SimConfig::shards` partitions the instances
//!   into scheduling domains behind a `pascal_sched::RouterPolicy`, with
//!   cross-shard escape migration over the two-tier
//!   `pascal_cluster::Topology` interconnect and per-domain
//!   `ShardStats` rows in [`SimOutput`]. One shard (the default)
//!   reproduces the paper's single-pool engine byte-for-byte. Each shard
//!   is decomposed into lifecycle / migration / admission / stats
//!   modules; [`PredictiveMigration`] and [`AdmissionMode`] switch the
//!   predictive controllers on (both default off, reproducing the paper
//!   exactly);
//! * [`experiments`] — one module per table/figure of the paper's
//!   evaluation, each returning printable row structs (see `DESIGN.md` §5
//!   for the experiment index);
//! * [`sweep`] — the scenario-sweep subsystem: declarative
//!   [`ScenarioSpec`] cells, [`SweepGrid`] presets, the parallel
//!   [`SweepRunner`], machine-readable [`SweepReport`]s (JSON + CSV) and
//!   the CI perf-regression [`sweep::gate`];
//! * [`report`] — plain-text table rendering shared by the benches;
//! * telemetry — opt-in observability re-exported from `pascal-telemetry`:
//!   [`TelemetryConfig`] on [`SimConfig`] switches on request-lifecycle
//!   tracing ([`TraceFormat`] JSONL or Chrome trace-event), time-series
//!   gauge sampling, and a wall-clock hot-path profiler
//!   ([`ProfileReport`]); with everything off (the default) the engine's
//!   outputs are byte-identical to an uninstrumented run.
//!
//! # Examples
//!
//! Run a small trace under PASCAL and inspect TTFT:
//!
//! ```
//! use pascal_core::{run_simulation, KvCapacityMode, SimConfig};
//! use pascal_sched::{PascalConfig, SchedPolicy};
//! use pascal_workload::{ArrivalProcess, DatasetMix, DatasetProfile, TraceBuilder};
//!
//! let trace = TraceBuilder::new(DatasetMix::single(DatasetProfile::alpaca_eval2()))
//!     .arrivals(ArrivalProcess::poisson(2.0))
//!     .count(20)
//!     .seed(1)
//!     .build();
//! let mut config = SimConfig::evaluation_cluster(SchedPolicy::pascal(PascalConfig::default()));
//! config.num_instances = 2;
//! let out = run_simulation(&trace, &config);
//! assert_eq!(out.records.len(), 20);
//! assert!(out.records.iter().all(|r| r.ttft().is_some()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
mod config;
mod engine;
pub mod experiments;
pub mod fleet;
pub mod report;
pub mod sweep;

pub use analyze::{anatomy_to_csv, anatomy_to_json, anatomy_waterfall, parse_trace_jsonl};
pub use config::{estimate_capacity_rps, KvCapacityMode, RateLevel, SimConfig};
pub use engine::{
    check_deployment_capacity, run_simulation, AdmissionMode, DeploymentTooLarge,
    PredictiveMigration, SimOutput,
};
pub use fleet::{FleetPreset, FleetSpec};
pub use pascal_federation::{FederationPolicy, WanLink};
pub use pascal_telemetry::{
    aggregate, events_to_chrome, events_to_jsonl, reconstruct, series_to_csv, series_to_json,
    AnatomyReport, BlameProfile, ProfileReport, TelemetryConfig, TelemetryOut, TraceFormat,
    WorkCounters,
};
pub use sweep::{ScenarioSpec, SweepCell, SweepGrid, SweepReport, SweepRunner};
