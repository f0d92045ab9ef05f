//! The engine-facing telemetry handle and its configuration.
//!
//! Every shard holds a clone of one [`TelemetryHandle`]; all clones share
//! the same buffers. The zero-observer-effect contract lives here: with a
//! stream disabled, the corresponding emit call tests one `bool` and
//! returns — no allocation, no lock, no closure call — so a fully
//! disabled handle cannot perturb anything, and an enabled one only ever
//! *appends to side buffers* that deterministic outputs never read.
//!
//! The event loop is single-threaded, so the shared buffers sit behind an
//! `Rc<RefCell<..>>`, and every access is gated behind the per-stream
//! `bool` first.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use pascal_sim::SimDuration;

use crate::event::TraceEvent;
use crate::profiler::{HotPathProfiler, ProfileReport, ProfiledEvent, WorkCounters};
use crate::series::{SeriesRow, SeriesWriter};

/// Which telemetry streams a run collects. Everything defaults to off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Collect request-lifecycle [`TraceEvent`]s.
    pub trace: bool,
    /// Snapshot time-series gauges every this much sim time.
    pub series_interval: Option<SimDuration>,
    /// Profile the event loop's wall clock.
    pub profile: bool,
}

impl TelemetryConfig {
    /// True iff any stream is enabled.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.trace || self.series_interval.is_some() || self.profile
    }
}

/// Where sampled gauge rows go: written out as they are sampled, instead
/// of collected until the run ends.
pub type SeriesSink = SeriesWriter<Box<dyn std::io::Write>>;

/// The shared buffers behind an enabled handle.
struct TelemetryBuf {
    events: Vec<TraceEvent>,
    series: Vec<SeriesRow>,
    series_sink: Option<SeriesSink>,
    profiler: Option<HotPathProfiler>,
}

/// A cheap, clonable emitter the engine threads through every shard.
///
/// Disabled streams cost a single branch per call site.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    trace_on: bool,
    profile_on: bool,
    series_interval: Option<SimDuration>,
    /// Rolls over every [`PROFILE_SAMPLE_EVERY`] timer calls; per-clone,
    /// so each shard samples its own stream independently.
    profile_tick: Cell<u32>,
    inner: Option<Rc<RefCell<TelemetryBuf>>>,
}

/// Wall-clock timing is sampled 1-in-N: event *counts* stay exact (they
/// feed the headline events/sec, which divides by the profiler's own wall
/// clock, not by summed samples), while the per-event histograms are built
/// from every Nth event — cutting the profiler's hot-path cost from two
/// `Instant::now` calls per event to two per N events.
const PROFILE_SAMPLE_EVERY: u32 = 16;

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryHandle")
            .field("trace_on", &self.trace_on)
            .field("profile_on", &self.profile_on)
            .field("series_interval", &self.series_interval)
            .finish_non_exhaustive()
    }
}

impl TelemetryHandle {
    /// A fully disabled handle: every emit call is a no-op branch.
    #[must_use]
    pub fn off() -> Self {
        TelemetryHandle::default()
    }

    /// Builds a handle for `config`; fully disabled configs allocate
    /// nothing and return [`TelemetryHandle::off`].
    #[must_use]
    pub fn new(config: &TelemetryConfig) -> Self {
        if !config.enabled() {
            return TelemetryHandle::off();
        }
        TelemetryHandle {
            trace_on: config.trace,
            profile_on: config.profile,
            series_interval: config.series_interval,
            profile_tick: Cell::new(0),
            inner: Some(Rc::new(RefCell::new(TelemetryBuf {
                events: Vec::new(),
                series: Vec::new(),
                series_sink: None,
                profiler: config.profile.then(HotPathProfiler::new),
            }))),
        }
    }

    /// Streams the gauge rows to `sink` as they are sampled: the run's
    /// [`TelemetryOut::series`] stays empty, and memory no longer grows
    /// with the number of samples. Take the sink back with
    /// [`TelemetryHandle::take_series_sink`]. A no-op on a handle without
    /// series sampling.
    #[must_use]
    pub fn with_series_sink(self, sink: SeriesSink) -> Self {
        if self.series_interval.is_some() {
            if let Some(inner) = &self.inner {
                inner.borrow_mut().series_sink = Some(sink);
            }
        }
        self
    }

    /// The series sink given to [`TelemetryHandle::with_series_sink`].
    #[must_use]
    pub fn take_series_sink(&self) -> Option<SeriesSink> {
        self.inner.as_ref()?.borrow_mut().series_sink.take()
    }

    /// True iff any stream is live.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits a trace event. The closure runs only when tracing is on, so
    /// a disabled handle never even builds the event.
    #[inline]
    pub fn trace(&self, event: impl FnOnce() -> TraceEvent) {
        if self.trace_on {
            if let Some(inner) = &self.inner {
                inner.borrow_mut().events.push(event());
            }
        }
    }

    /// The configured gauge-sampling interval, if series are on.
    #[must_use]
    pub fn series_interval(&self) -> Option<SimDuration> {
        self.series_interval
    }

    /// Appends one gauge snapshot row, or writes it to the series sink.
    pub fn push_series(&self, row: SeriesRow) {
        if let Some(inner) = &self.inner {
            let mut buf = inner.borrow_mut();
            match &mut buf.series_sink {
                Some(sink) => sink.write(&row),
                None => buf.series.push(row),
            }
        }
    }

    /// Starts timing one event-loop event; `None` when profiling is off
    /// or this event falls outside the 1-in-[`PROFILE_SAMPLE_EVERY`]
    /// timing sample (the event is still *counted* by
    /// [`TelemetryHandle::profile_record`]).
    #[inline]
    #[must_use]
    pub fn profile_timer(&self) -> Option<Instant> {
        if !self.profile_on {
            return None;
        }
        let tick = self.profile_tick.get();
        self.profile_tick.set((tick + 1) % PROFILE_SAMPLE_EVERY);
        if tick == 0 {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Records a handled event against a timer from
    /// [`TelemetryHandle::profile_timer`]. The event is always counted
    /// while profiling is on; wall-clock timing lands in the histogram
    /// only when the timer sampled this event.
    #[inline]
    pub fn profile_record(&self, kind: ProfiledEvent, started: Option<Instant>) {
        if !self.profile_on {
            return;
        }
        if let Some(inner) = &self.inner {
            if let Some(profiler) = inner.borrow_mut().profiler.as_mut() {
                match started {
                    Some(t0) => profiler.record(kind, t0.elapsed().as_secs_f64() * 1e6),
                    None => profiler.count_only(kind),
                }
            }
        }
    }

    /// Hands the engine's deterministic work counts to the profiler (a
    /// no-op unless profiling is on). Call once per run, before
    /// [`TelemetryHandle::finish`].
    pub fn profile_work(&self, work: &WorkCounters) {
        if !self.profile_on {
            return;
        }
        if let Some(inner) = &self.inner {
            if let Some(profiler) = inner.borrow_mut().profiler.as_mut() {
                profiler.add_work(work);
            }
        }
    }

    /// Drains the buffers into a plain-data result (`None` when fully
    /// disabled). Call once, after the run.
    #[must_use]
    pub fn finish(&self) -> Option<TelemetryOut> {
        let inner = self.inner.as_ref()?;
        let mut buf = inner.borrow_mut();
        Some(TelemetryOut {
            events: std::mem::take(&mut buf.events),
            series: std::mem::take(&mut buf.series),
            profile: buf.profiler.take().map(HotPathProfiler::report),
        })
    }
}

/// Everything a run's telemetry collected, as plain owned data (`Send`,
/// unlike the handle itself) ready for serialization.
#[derive(Clone, Debug, Default)]
pub struct TelemetryOut {
    /// The trace-event buffer, in emission (= sim time) order.
    pub events: Vec<TraceEvent>,
    /// The gauge snapshots, in sample-time order (empty when they were
    /// streamed to a series sink).
    pub series: Vec<SeriesRow>,
    /// The profiler summary, when profiling was on.
    pub profile: Option<ProfileReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEventKind;
    use pascal_sim::SimTime;

    fn arrival_at(ns: u64) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(ns),
            region: 0,
            shard: 0,
            instance: None,
            request: Some(1),
            kind: TraceEventKind::Arrival,
        }
    }

    #[test]
    fn disabled_handle_collects_nothing_and_finishes_none() {
        let handle = TelemetryHandle::off();
        assert!(!handle.is_on());
        handle.trace(|| panic!("closure must not run when tracing is off"));
        handle.profile_record(ProfiledEvent::Arrival, handle.profile_timer());
        assert!(handle.finish().is_none());
        assert!(!TelemetryConfig::default().enabled());
    }

    #[test]
    fn clones_share_one_buffer() {
        let handle = TelemetryHandle::new(&TelemetryConfig {
            trace: true,
            ..TelemetryConfig::default()
        });
        let clone = handle.clone();
        handle.trace(|| arrival_at(1));
        clone.trace(|| arrival_at(2));
        let out = handle.finish().expect("enabled");
        assert_eq!(out.events.len(), 2);
        assert!(out.profile.is_none());
    }

    #[test]
    fn profile_only_config_reports_without_traces() {
        let handle = TelemetryHandle::new(&TelemetryConfig {
            profile: true,
            ..TelemetryConfig::default()
        });
        handle.trace(|| panic!("tracing is off"));
        let t0 = handle.profile_timer();
        assert!(t0.is_some());
        handle.profile_record(ProfiledEvent::IterationDone, t0);
        let out = handle.finish().expect("enabled");
        assert!(out.events.is_empty());
        let profile = out.profile.expect("profiler ran");
        assert_eq!(profile.events, 1);
    }

    #[test]
    fn series_interval_round_trips() {
        let interval = SimDuration::from_secs(2);
        let handle = TelemetryHandle::new(&TelemetryConfig {
            series_interval: Some(interval),
            ..TelemetryConfig::default()
        });
        assert_eq!(handle.series_interval(), Some(interval));
        assert_eq!(TelemetryHandle::off().series_interval(), None);
    }
}
