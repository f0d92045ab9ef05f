//! The shared event-loop driver.
//!
//! The single-region [`Engine`](super::cluster::Engine) and the
//! [`FederationEngine`](super::federation::FederationEngine) run the same
//! outer loop: pop the globally earliest pending event, and — when series
//! telemetry is on — emit gauge samples at every `k·interval` strictly
//! before the next event, so a row at time `s` reflects every event with
//! timestamp `<= s` (the engine state is piecewise-constant between
//! events). The loop lives here once; the engines supply the three
//! operations it is parameterized over.

use pascal_sim::{SimDuration, SimTime};

/// The engine operations the shared loop drives. Implemented by both the
/// cluster and federation engines.
pub(super) trait EventDriver {
    /// Timestamp of the globally next pending event (arrival or shard
    /// event), if any — the horizon the series sampler fills up to.
    fn next_event_time(&mut self) -> Option<SimTime>;

    /// Fires the globally earliest pending event. Returns `false` once
    /// everything has drained.
    fn step(&mut self) -> bool;

    /// Emits one series gauge sample at `at`. Read-only with respect to
    /// simulation state: sampling must not perturb the run.
    fn sample(&mut self, at: SimTime);
}

/// Runs `driver` to completion, interleaving series samples at
/// `interval` when one is configured.
pub(super) fn drive<D: EventDriver>(driver: &mut D, interval: Option<SimDuration>) {
    if let Some(interval) = interval {
        let mut next_sample = SimTime::ZERO + interval;
        while let Some(horizon) = driver.next_event_time() {
            while next_sample < horizon {
                driver.sample(next_sample);
                next_sample += interval;
            }
            driver.step();
        }
    } else {
        while driver.step() {}
    }
}
