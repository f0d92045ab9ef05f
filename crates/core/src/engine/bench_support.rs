//! Bench-only access to the instance-monitor sweep. Hidden from docs and
//! not a stable API: the only consumer is the `micro_scheduler_overhead`
//! bench, which prices one sweep over a deep mid-run backlog.
//!
//! The fixture drives a real cluster engine a fixed number of events into
//! a run and freezes it there, so the sweep is measured over genuine
//! mid-run state — resident members, live pacer deadlines, predictor
//! history — rather than a synthetic pool.

use pascal_cluster::InstanceStats;
use pascal_sim::SimTime;
use pascal_workload::Trace;

use super::cluster::Engine;
use super::driver::EventDriver;
use crate::SimConfig;

/// A cluster engine frozen mid-run.
pub struct MonitorSweepFixture<'a> {
    engine: Engine<'a>,
    now: SimTime,
}

impl<'a> MonitorSweepFixture<'a> {
    /// Builds the engine and fires up to `events` of its earliest events
    /// (stopping early if the run drains), then freezes the clock at the
    /// next pending event time.
    #[must_use]
    pub fn new(trace: &'a Trace, config: &'a SimConfig, events: usize) -> Self {
        let mut engine = Engine::new(trace, config);
        for _ in 0..events {
            if !engine.step() {
                break;
            }
        }
        let now = engine.next_event_time().unwrap_or_default();
        MonitorSweepFixture { engine, now }
    }

    /// Requests resident anywhere in the fleet (running or queued) — the
    /// backlog the sweep does *not* walk. Printed by the bench so the
    /// measured state is visible next to the numbers.
    #[must_use]
    pub fn resident_requests(&self) -> usize {
        self.engine.shards().iter().map(|s| s.states.len()).sum()
    }

    /// Instances across every shard.
    #[must_use]
    pub fn instances(&self) -> usize {
        self.engine.shards().iter().map(|s| s.instances.len()).sum()
    }

    /// One monitor sweep per shard: one row per healthy instance, each
    /// built from the instance's maintained aggregates.
    pub fn sweep(&self, out: &mut Vec<InstanceStats>) {
        for shard in self.engine.shards() {
            shard.collect_stats_into(self.now, out);
        }
    }
}
