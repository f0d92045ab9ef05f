//! The hot-path self-profiler: wall-clock timing of the event loop.
//!
//! Everything here measures the *host*, not the simulation: counts per
//! event class, per-event wall-clock histograms
//! ([`pascal_metrics::Histogram`] over microseconds) and an overall
//! events/sec figure. Counts are exact; the histograms are built from a
//! 1-in-N sample of events (see the handle) so the profiler itself stays
//! off the hot path it measures. The numbers vary run to run and machine
//! to machine by design — they are the measurement baseline for
//! engine-speed work and are excluded from every determinism guarantee
//! and from the CI perf gate's compared fields.

use std::time::Instant;

use pascal_metrics::Histogram;

/// Histogram bin width for per-event wall-clock samples, in microseconds.
const BIN_WIDTH_US: f64 = 0.25;

/// The event-loop event classes the profiler distinguishes — one per
/// variant of the engine's internal event enum, plus trace arrivals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfiledEvent {
    /// A trace arrival delivered through the router.
    Arrival,
    /// A batch iteration completing on an instance.
    IterationDone,
    /// A KV offload (preemption) completing.
    OffloadDone,
    /// A KV reload completing.
    ReloadDone,
    /// An intra-shard migration transfer landing.
    MigrationDone,
    /// A cross-shard escape transfer landing.
    CrossShardDone,
    /// A cross-region (WAN) escape transfer landing.
    CrossRegionDone,
    /// A fleet transition (join/drain/fail) or autoscaler tick firing.
    Fleet,
}

impl ProfiledEvent {
    /// Every class, in report order.
    pub const ALL: [ProfiledEvent; 8] = [
        ProfiledEvent::Arrival,
        ProfiledEvent::IterationDone,
        ProfiledEvent::OffloadDone,
        ProfiledEvent::ReloadDone,
        ProfiledEvent::MigrationDone,
        ProfiledEvent::CrossShardDone,
        ProfiledEvent::CrossRegionDone,
        ProfiledEvent::Fleet,
    ];

    /// Stable lowercase name used in report rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProfiledEvent::Arrival => "arrival",
            ProfiledEvent::IterationDone => "iteration_done",
            ProfiledEvent::OffloadDone => "offload_done",
            ProfiledEvent::ReloadDone => "reload_done",
            ProfiledEvent::MigrationDone => "migration_done",
            ProfiledEvent::CrossShardDone => "cross_shard_done",
            ProfiledEvent::CrossRegionDone => "cross_region_done",
            ProfiledEvent::Fleet => "fleet",
        }
    }

    fn index(self) -> usize {
        match self {
            ProfiledEvent::Arrival => 0,
            ProfiledEvent::IterationDone => 1,
            ProfiledEvent::OffloadDone => 2,
            ProfiledEvent::ReloadDone => 3,
            ProfiledEvent::MigrationDone => 4,
            ProfiledEvent::CrossShardDone => 5,
            ProfiledEvent::CrossRegionDone => 6,
            ProfiledEvent::Fleet => 7,
        }
    }
}

/// Deterministic work counts of one run: how many member states the
/// engine's scheduling and monitor layers touched, how many predictor
/// estimates they asked for, how many tokens that work produced, and how
/// deep the future-event list grew.
/// Unlike every other profile figure these are exact and
/// host-independent: the same input reports the same counts on every
/// run, on any host.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Output tokens generated (completed and stranded requests alike).
    pub tokens: u64,
    /// Member states visited to order scheduling candidates and to find
    /// the GPU residents that fell out of the desired set.
    pub sched_member_scans: u64,
    /// Instance-monitor rows built for Algorithm 1/2, admission, routing
    /// and escape consumers.
    pub monitor_rows: u64,
    /// Member states the monitor visited: to build those rows (pacer
    /// deadlines rescanned), or to re-sum a dataset's predicted growth
    /// after its estimate moved.
    pub monitor_member_visits: u64,
    /// Length-predictor estimate calls (absolute estimates and
    /// remaining-service queries).
    pub predictor_estimates: u64,
    /// Decode iterations replayed in closed form: a steady batch's next
    /// iteration launched without visiting its members.
    pub steady_iterations: u64,
    /// Members brought up to date in closed form: one per member when a
    /// steady run closes, however many iterations it replayed, plus one
    /// per member caught up alone at a quantum end its run survives.
    pub members_caught_up: u64,
    /// Iterations that took the full path: every batch member visited,
    /// the planner run, the next batch launched.
    pub full_path_iterations: u64,
    /// Touches and edges a steady run survived: a member's quantum end or
    /// growth reaching zero, a run member re-priced by a predictor
    /// refresh, and a non-member change that left the batch in place.
    pub runs_kept: u64,
    /// The most events the run's future-event list held pending at once —
    /// the population every queue operation pays for.
    pub peak_pending_events: u64,
}

impl WorkCounters {
    /// Adds `other`'s counts to these (shards into a run, cells into a
    /// sweep). The peak pending population is a high-water mark, not a
    /// count: it takes the larger of the two.
    pub fn absorb(&mut self, other: &WorkCounters) {
        self.tokens += other.tokens;
        self.sched_member_scans += other.sched_member_scans;
        self.monitor_rows += other.monitor_rows;
        self.monitor_member_visits += other.monitor_member_visits;
        self.predictor_estimates += other.predictor_estimates;
        self.steady_iterations += other.steady_iterations;
        self.members_caught_up += other.members_caught_up;
        self.full_path_iterations += other.full_path_iterations;
        self.runs_kept += other.runs_kept;
        self.peak_pending_events = self.peak_pending_events.max(other.peak_pending_events);
    }

    /// The counts as one stable, space-separated `name value` line body,
    /// plus the host-dependent wall-clock cost per token when `wall_s` is
    /// known.
    #[must_use]
    pub fn render(&self, wall_s: Option<f64>) -> String {
        let mut out = format!(
            "{} tokens, {} sched member scans, {} monitor rows, {} monitor member visits, \
             {} predictor estimates, {} steady iterations, {} members caught up, \
             {} full-path iterations, {} runs kept, {} peak pending events",
            self.tokens,
            self.sched_member_scans,
            self.monitor_rows,
            self.monitor_member_visits,
            self.predictor_estimates,
            self.steady_iterations,
            self.members_caught_up,
            self.full_path_iterations,
            self.runs_kept,
            self.peak_pending_events
        );
        if let Some(ns) = wall_s.and_then(|w| self.ns_per_token(w)) {
            out.push_str(&format!(", {ns:.1} ns per token"));
        }
        out
    }

    /// Wall-clock nanoseconds per generated token over `wall_s` seconds,
    /// `None` when no token was generated.
    #[must_use]
    pub fn ns_per_token(&self, wall_s: f64) -> Option<f64> {
        (self.tokens > 0).then(|| wall_s * 1e9 / self.tokens as f64)
    }
}

/// Peak resident set size of this process in bytes, read from `VmHWM` in
/// `/proc/self/status`. Host-dependent like wall time; `None` where `/proc`
/// is missing.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The `VmHWM` field of a `/proc/<pid>/status` text, in bytes.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let field = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = field.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib * 1024)
}

/// Accumulates wall-clock samples while the event loop runs.
#[derive(Clone, Debug)]
pub struct HotPathProfiler {
    started: Instant,
    counts: [u64; ProfiledEvent::ALL.len()],
    timings: Vec<Histogram>,
    work: WorkCounters,
}

impl HotPathProfiler {
    /// Starts the wall clock.
    #[must_use]
    pub fn new() -> Self {
        HotPathProfiler {
            started: Instant::now(),
            counts: [0; ProfiledEvent::ALL.len()],
            timings: vec![Histogram::from_samples(&[], BIN_WIDTH_US); ProfiledEvent::ALL.len()],
            work: WorkCounters::default(),
        }
    }

    /// Adds the engine's deterministic work counts (summed over shards at
    /// the end of the run).
    pub fn add_work(&mut self, work: &WorkCounters) {
        self.work.absorb(work);
    }

    /// Records one handled event of class `kind` that took `elapsed_us`
    /// wall-clock microseconds.
    pub fn record(&mut self, kind: ProfiledEvent, elapsed_us: f64) {
        let i = kind.index();
        self.counts[i] += 1;
        self.timings[i].add(elapsed_us.max(0.0));
    }

    /// Counts one handled event of class `kind` without a timing sample —
    /// the handle's 1-in-N timing sampler calls this for the unsampled
    /// majority, keeping counts (and events/sec) exact.
    pub fn count_only(&mut self, kind: ProfiledEvent) {
        self.counts[kind.index()] += 1;
    }

    /// Stops the wall clock and condenses the samples into a report.
    #[must_use]
    pub fn report(self) -> ProfileReport {
        let wall_s = self.started.elapsed().as_secs_f64();
        let events: u64 = self.counts.iter().sum();
        let rows: Vec<ProfileRow> = ProfiledEvent::ALL
            .iter()
            .map(|&kind| {
                let h = &self.timings[kind.index()];
                ProfileRow {
                    name: kind.name(),
                    count: self.counts[kind.index()],
                    mean_us: h.mean(),
                    p50_us: h.quantile(0.50),
                    p99_us: h.quantile(0.99),
                }
            })
            .collect();
        let handlers_s = rows
            .iter()
            .map(|r: &ProfileRow| r.mean_us * r.count as f64)
            .sum::<f64>()
            / 1e6;
        ProfileReport {
            wall_s,
            handlers_s,
            events,
            events_per_sec: if wall_s > 0.0 {
                events as f64 / wall_s
            } else {
                0.0
            },
            work: self.work,
            rows,
        }
    }
}

impl Default for HotPathProfiler {
    fn default() -> Self {
        HotPathProfiler::new()
    }
}

/// One event class's profile line.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileRow {
    /// The event class ([`ProfiledEvent::name`]).
    pub name: &'static str,
    /// Events handled.
    pub count: u64,
    /// Mean wall-clock handling time, microseconds.
    pub mean_us: f64,
    /// Median wall-clock handling time, microseconds.
    pub p50_us: f64,
    /// 99th-percentile wall-clock handling time, microseconds.
    pub p99_us: f64,
}

/// The profiler's end-of-run summary. Host-dependent; never part of any
/// deterministic output.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileReport {
    /// Wall-clock seconds from engine construction to report time.
    pub wall_s: f64,
    /// Wall-clock seconds inside the event handlers, estimated as each
    /// class's sampled mean times its exact count.
    pub handlers_s: f64,
    /// Total events handled.
    pub events: u64,
    /// Events handled per wall-clock second — the headline throughput
    /// figure the engine-speed work is judged against.
    pub events_per_sec: f64,
    /// The engine's deterministic work counts — the one part of the
    /// report that is exact and host-independent.
    pub work: WorkCounters,
    /// One row per event class, [`ProfiledEvent::ALL`] order.
    pub rows: Vec<ProfileRow>,
}

impl ProfileReport {
    /// Renders the report as indented text lines (for the run footer).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "hot-path profile (wall-clock, host-dependent; excluded from determinism)\n  {} events in {:.3}s = {:.0} events/sec\n",
            self.events, self.wall_s, self.events_per_sec
        );
        out.push_str(&format!(
            "  work (exact): {}\n",
            self.work.render(Some(self.wall_s))
        ));
        for row in &self.rows {
            if row.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<18} count {:<8} mean {:>8.2}us  p50 {:>8.2}us  p99 {:>8.2}us\n",
                row.name, row.count, row.mean_us, row.p50_us, row.p99_us
            ));
        }
        let loop_s = self.event_loop_s();
        out.push_str(&format!(
            "  {:<18} {:.3}s outside every handler ({:.1}% of wall; handlers {:.3}s)\n",
            "event loop",
            loop_s,
            if self.wall_s > 0.0 {
                100.0 * loop_s / self.wall_s
            } else {
                0.0
            },
            self.handlers_s
        ));
        out
    }

    /// Wall-clock seconds outside every event handler — finding the next
    /// event, the driver loop, engine setup and teardown — so that the
    /// handlers plus this sum to the wall time. Zero when the sampled
    /// handler estimate exceeds the wall time.
    #[must_use]
    pub fn event_loop_s(&self) -> f64 {
        (self.wall_s - self.handlers_s).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_from_proc_status_text() {
        let status = "Name:\tpascal-cli\nVmPeak:\t  40000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(20480 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn report_counts_and_rates_are_consistent() {
        let mut p = HotPathProfiler::new();
        for _ in 0..10 {
            p.record(ProfiledEvent::IterationDone, 2.0);
        }
        p.record(ProfiledEvent::Arrival, 1.0);
        let report = p.report();
        assert_eq!(report.events, 11);
        assert!(report.wall_s >= 0.0);
        let iter_row = report
            .rows
            .iter()
            .find(|r| r.name == "iteration_done")
            .expect("row exists");
        assert_eq!(iter_row.count, 10);
        assert!((iter_row.mean_us - 2.0).abs() < BIN_WIDTH_US);
        assert!(iter_row.p50_us > 0.0);
        // 10 × 2 µs + 1 µs of handlers; the rest of the wall is the loop.
        assert!((report.handlers_s - 21e-6).abs() < 1e-12);
        assert_eq!(
            report.event_loop_s(),
            (report.wall_s - report.handlers_s).max(0.0)
        );
    }

    #[test]
    fn event_loop_line_completes_the_wall_time() {
        let report = ProfileReport {
            wall_s: 2.0,
            handlers_s: 1.5,
            events: 3,
            events_per_sec: 1.5,
            work: WorkCounters::default(),
            rows: Vec::new(),
        };
        assert_eq!(report.event_loop_s(), 0.5);
        assert!(report.render().contains(
            "event loop         0.500s outside every handler (25.0% of wall; handlers 1.500s)"
        ));
    }

    #[test]
    fn render_skips_empty_classes() {
        let mut p = HotPathProfiler::new();
        p.record(ProfiledEvent::Arrival, 0.5);
        let text = p.report().render();
        assert!(text.contains("events/sec"));
        assert!(text.contains("arrival"));
        assert!(!text.contains("cross_region_done"));
    }

    #[test]
    fn every_class_has_a_distinct_index_and_name() {
        let mut names: Vec<&str> = ProfiledEvent::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ProfiledEvent::ALL.len());
        let mut indices: Vec<usize> = ProfiledEvent::ALL.iter().map(|e| e.index()).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..ProfiledEvent::ALL.len()).collect::<Vec<_>>());
    }
}
