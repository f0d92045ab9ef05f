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

/// Why an iteration took the engine's full path (counted per
/// full-path iteration in [`WorkCounters::full_path_causes`], indexed by
/// [`FullPathCause::index`]). The first three are iterations whose launch
/// opened no steady run; the rest end or follow a run that did not
/// survive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FullPathCause {
    /// No run: the launch was a prefill.
    #[default]
    PrefillLaunch,
    /// No run: a member's first token could stall a reader, or the step
    /// was longer than the reading pace with a member answering.
    StallRisk,
    /// No run: a launched member held more blocks than it needs.
    ExcessBlocks,
    /// The run's stall edge, or a phase boundary whose Algorithm 2 sweep
    /// would read a reader's pacer deadline already due.
    StallEdge,
    /// A steady step whose block crossings the pool refused, on a
    /// draining or down instance, where a run does not plan its launch.
    RefusedCrossing,
    /// A quantum end that a candidate outside the batch overtakes, on a
    /// draining or down instance.
    OvertakenQuantum,
    /// An edge step or a pause whose planned launch left no member to
    /// replay, or met a non-member holding more blocks than it needs.
    RefusedRelaunch,
    /// A run closed mid-iteration by a change to one of its members.
    ClosedAtTouch,
    /// A run closed by a fleet transition, or an iteration end on a
    /// draining or down instance.
    Fleet,
}

impl FullPathCause {
    /// Every cause, in report order.
    pub const ALL: [FullPathCause; 9] = [
        FullPathCause::PrefillLaunch,
        FullPathCause::StallRisk,
        FullPathCause::ExcessBlocks,
        FullPathCause::StallEdge,
        FullPathCause::RefusedCrossing,
        FullPathCause::OvertakenQuantum,
        FullPathCause::RefusedRelaunch,
        FullPathCause::ClosedAtTouch,
        FullPathCause::Fleet,
    ];

    /// Stable name used in the report line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FullPathCause::PrefillLaunch => "prefill launch",
            FullPathCause::StallRisk => "stall risk at opening",
            FullPathCause::ExcessBlocks => "excess blocks",
            FullPathCause::StallEdge => "stall edge",
            FullPathCause::RefusedCrossing => "refused crossing",
            FullPathCause::OvertakenQuantum => "overtaken quantum end",
            FullPathCause::RefusedRelaunch => "refused relaunch",
            FullPathCause::ClosedAtTouch => "closed at a touch",
            FullPathCause::Fleet => "fleet transition",
        }
    }

    /// Its slot in [`WorkCounters::full_path_causes`].
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
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
    /// `full_path_iterations` split by [`FullPathCause`]; the entries sum
    /// to it.
    pub full_path_causes: [u64; FullPathCause::ALL.len()],
    /// Touches and edges a steady run survived: a member's quantum end or
    /// growth reaching zero, a run member re-priced by a predictor
    /// refresh, and a non-member change that left the batch in place.
    pub runs_kept: u64,
    /// Member edges (completion, phase boundary, first answering token,
    /// demotion crossing) handled inside a steady run that survived them.
    pub edges_kept: u64,
    /// Requests that joined an open steady run without having left it at
    /// an edge: landings (migrations, reloads), residents whose growth the
    /// pool refused at the run's opening launch, and newcomers after their
    /// prefill.
    pub joins: u64,
    /// Prefill launches a steady run was kept across, paused: its members
    /// wait without a step, a token or a pace advance, and the newcomers
    /// join at the prefill's end.
    pub prefill_pauses: u64,
    /// Decode launches a steady run opened or was kept over that left a
    /// desired member out: a reload in flight, or (at the opening launch)
    /// a resident whose growth the pool refused.
    pub partial_runs: u64,
    /// Launches a steady run planned itself with the full path's planner
    /// steps, where its O(1) relaunch check refused the next launch.
    pub planned_launches: u64,
    /// Candidates the planner visited: one per entry that the desired-set
    /// walk, the admission pass and the filing of the members a launch
    /// left out visit, on the full path and in planned launches.
    pub planner_member_visits: u64,
    /// Planned launches whose run could not vouch for its key range (a
    /// candidate that is none of its members, joiners and pending reloads
    /// may sort among the batch's keys, or a GPU resident is none of its
    /// members and joiners), so that the planner walked the desired set.
    pub planner_fallbacks: u64,
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
        for (mine, theirs) in self.full_path_causes.iter_mut().zip(other.full_path_causes) {
            *mine += theirs;
        }
        self.runs_kept += other.runs_kept;
        self.edges_kept += other.edges_kept;
        self.joins += other.joins;
        self.prefill_pauses += other.prefill_pauses;
        self.partial_runs += other.partial_runs;
        self.planned_launches += other.planned_launches;
        self.planner_member_visits += other.planner_member_visits;
        self.planner_fallbacks += other.planner_fallbacks;
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
             {} full-path iterations, {} runs kept, {} edges kept, {} joins, \
             {} prefill pauses, {} partial runs, {} planned launches, \
             {} planner member visits, {} planner fallbacks, {} peak pending events",
            self.tokens,
            self.sched_member_scans,
            self.monitor_rows,
            self.monitor_member_visits,
            self.predictor_estimates,
            self.steady_iterations,
            self.members_caught_up,
            self.full_path_iterations,
            self.runs_kept,
            self.edges_kept,
            self.joins,
            self.prefill_pauses,
            self.partial_runs,
            self.planned_launches,
            self.planner_member_visits,
            self.planner_fallbacks,
            self.peak_pending_events
        );
        if let Some(ns) = wall_s.and_then(|w| self.ns_per_token(w)) {
            out.push_str(&format!(", {ns:.1} ns per token"));
        }
        out
    }

    /// The full-path iterations by cause as one stable line body: the
    /// iterations whose launch opened no run first (with their split),
    /// then every other cause.
    #[must_use]
    pub fn render_causes(&self) -> String {
        let count = |cause: FullPathCause| self.full_path_causes[cause.index()];
        let (no_run, after_run) = FullPathCause::ALL.split_at(3);
        let split: Vec<String> = no_run
            .iter()
            .map(|&c| format!("{} {}", c.name(), count(c)))
            .collect();
        let mut out = format!(
            "no run at the launch {} ({})",
            no_run.iter().map(|&c| count(c)).sum::<u64>(),
            split.join(", ")
        );
        for &cause in after_run {
            out.push_str(&format!(", {} {}", cause.name(), count(cause)));
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
                    sampled: h.count(),
                    mean_us: h.mean(),
                    p50_us: h.quantile(0.50),
                    p99_us: h.quantile(0.99),
                }
            })
            .collect();
        // A class without a timing sample has no estimate: it is left out
        // rather than priced at zero.
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
    /// Events whose handling time fell in the 1-in-N timing sample. With
    /// none, the time fields below are 0 and mean nothing: the class was
    /// counted but never timed.
    pub sampled: u64,
    /// Mean wall-clock handling time over the sampled events, microseconds.
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
        out.push_str(&format!(
            "  full-path causes (exact): {}\n",
            self.work.render_causes()
        ));
        let mut untimed = 0;
        for row in &self.rows {
            if row.count == 0 {
                continue;
            }
            if row.sampled == 0 {
                untimed += row.count;
                out.push_str(&format!(
                    "  {:<18} count {} (no timing sample)\n",
                    row.name, row.count
                ));
                continue;
            }
            out.push_str(&format!(
                "  {:<18} count {:<8} mean {:>8.2}us  p50 {:>8.2}us  p99 {:>8.2}us\n",
                row.name, row.count, row.mean_us, row.p50_us, row.p99_us
            ));
        }
        let loop_s = self.event_loop_s();
        out.push_str(&format!(
            "  {:<18} {:.3}s outside every handler ({:.1}% of wall; handlers {:.3}s",
            "event loop",
            loop_s,
            if self.wall_s > 0.0 {
                100.0 * loop_s / self.wall_s
            } else {
                0.0
            },
            self.handlers_s
        ));
        if untimed > 0 {
            out.push_str(&format!(", without {untimed} untimed events"));
        }
        out.push_str(")\n");
        out
    }

    /// Wall-clock seconds outside every event handler — finding the next
    /// event, the driver loop, engine setup and teardown — so that the
    /// handlers plus this sum to the wall time. Zero when the sampled
    /// handler estimate exceeds the wall time. Events of a class with no
    /// timing sample have no estimate, so their time falls in here too.
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
    fn a_class_counted_but_never_timed_prints_no_times() {
        let mut p = HotPathProfiler::new();
        p.record(ProfiledEvent::IterationDone, 2.0);
        for _ in 0..24 {
            p.count_only(ProfiledEvent::Fleet);
        }
        let report = p.report();
        let fleet = report
            .rows
            .iter()
            .find(|r| r.name == "fleet")
            .expect("row exists");
        assert_eq!((fleet.count, fleet.sampled), (24, 0));
        let timed = report
            .rows
            .iter()
            .find(|r| r.name == "iteration_done")
            .expect("row exists");
        assert_eq!((timed.count, timed.sampled), (1, 1));
        let text = report.render();
        assert!(
            text.contains("  fleet              count 24 (no timing sample)\n"),
            "{text}"
        );
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with("fleet"))
            .expect("fleet line");
        assert!(!line.contains("mean"), "{line}");
        assert!(text.contains(", without 24 untimed events)"), "{text}");
        // The untimed class adds nothing to the handler estimate.
        assert!(
            (report.handlers_s - 2e-6).abs() < BIN_WIDTH_US * 1e-6,
            "{report:?}"
        );
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
    fn causes_render_in_report_order_with_the_no_run_split_first() {
        let mut work = WorkCounters::default();
        for (i, slot) in work.full_path_causes.iter_mut().enumerate() {
            *slot = i as u64 + 1;
        }
        assert_eq!(
            work.render_causes(),
            "no run at the launch 6 (prefill launch 1, stall risk at opening 2, excess blocks \
             3), stall edge 4, refused crossing 5, overtaken quantum end 6, refused relaunch 7, \
             closed at a touch 8, fleet transition 9"
        );
        let names: Vec<&str> = FullPathCause::ALL.iter().map(|c| c.name()).collect();
        let indices: Vec<usize> = FullPathCause::ALL.iter().map(|c| c.index()).collect();
        assert_eq!(indices, (0..FullPathCause::ALL.len()).collect::<Vec<_>>());
        let mut distinct = names.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), names.len());
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
