//! # pascal-telemetry — run observability
//!
//! End-of-run aggregates tell you *what* a run did; this crate shows
//! *when* and *why*. Three independent streams, all off by default and all
//! with zero observer effect on the simulation (telemetry never touches
//! the RNG, the event order, or any deterministic output):
//!
//! * **Request-lifecycle tracing** — typed [`TraceEvent`]s emitted by the
//!   engine at every lifecycle edge (admit/reject/spill, queueing,
//!   phase transitions, demotions, the full migration decision tree,
//!   cross-shard and cross-region escapes with their fallbacks,
//!   completion), each tagged with sim time and region/shard/instance
//!   ids. Serialized as JSONL ([`events_to_jsonl`]) or as a Chrome
//!   trace-event array ([`events_to_chrome`]) loadable in Perfetto.
//! * **Time-series gauges** — [`SeriesRow`] snapshots of per-shard and
//!   per-region state (queue depth, KV utilization, active requests by
//!   phase, WAN port occupancy, admission headroom, predictor error) at a
//!   configurable sim-time interval, emitted as columnar CSV
//!   ([`series_to_csv`]) or JSON ([`series_to_json`]).
//! * **Hot-path self-profiling** — a [`HotPathProfiler`] wrapping the
//!   event loop with wall-clock, per-event-type counters and timing
//!   histograms. Its [`ProfileReport`] is *host-dependent by design* and
//!   excluded from every determinism guarantee — it is the measurement
//!   baseline for engine-speed work, not a simulation result.
//!
//! The engine talks to all three through one cheap [`TelemetryHandle`]:
//! when a stream is disabled, the corresponding emit call is a single
//! branch on a `bool` and nothing else.
//!
//! On top of the trace stream sit two analysis layers:
//!
//! * **Latency anatomy** ([`anatomy`]) — replays a trace into per-request
//!   span timelines and an exact additive blame decomposition of TTFT and
//!   E2E latency (components always sum to the measured latency).
//! * **SLO burn-rate alerting** ([`alert`]) — sliding-window error-budget
//!   tracking over completion outcomes, with declarative rules evaluated
//!   in sim-time; fired alerts become trace events and run outputs.
//!
//! # Examples
//!
//! ```
//! use pascal_sim::SimTime;
//! use pascal_telemetry::{
//!     events_to_jsonl, TelemetryConfig, TelemetryHandle, TraceEvent, TraceEventKind,
//! };
//!
//! let config = TelemetryConfig {
//!     trace: true,
//!     ..TelemetryConfig::default()
//! };
//! let handle = TelemetryHandle::new(&config);
//! handle.trace(|| TraceEvent {
//!     at: SimTime::from_secs_f64(1.5),
//!     region: 0,
//!     shard: 1,
//!     instance: Some(3),
//!     request: Some(42),
//!     kind: TraceEventKind::Arrival,
//! });
//! let out = handle.finish().expect("telemetry was enabled");
//! assert!(events_to_jsonl(&out.events).contains("\"arrival\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod anatomy;
mod event;
mod handle;
mod profiler;
mod series;
mod sink;

pub use alert::{
    AlertEdge, SloAlertPreset, SloAlertRecord, SloAlertRule, SloAlertSpec, SloBurnTracker,
};
pub use anatomy::{
    aggregate, reconstruct, worst_requests, AnatomyOutcome, AnatomyReport, Blame, BlameProfile,
    ComponentProfile, RequestAnatomy, BLAME_COMPONENTS, BLAME_COMPONENT_NAMES,
};
pub use event::{EscapeTier, TraceEvent, TraceEventKind};
pub use handle::{SeriesSink, TelemetryConfig, TelemetryHandle, TelemetryOut};
pub use profiler::{
    peak_rss_bytes, FullPathCause, HotPathProfiler, ProfileReport, ProfileRow, ProfiledEvent,
    WorkCounters,
};
pub use series::{series_to_csv, series_to_json, SeriesRow, SeriesScope, SeriesWriter};
pub use sink::{events_to_chrome, events_to_jsonl, TraceFormat};
