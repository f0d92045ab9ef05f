//! One checked simulation: time `run_simulation`, then verify its output.
//!
//! A run that panics or fails a check is returned as an error and never
//! aborts the benchmark: the caller counts all of its requests as failed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pascal::core::{run_simulation, SimConfig, SimOutput};
use pascal::metrics::{QoeParams, SweepCellMetrics};
use pascal::workload::Trace;

/// A simulation that ran and passed every check.
pub struct CheckedRun {
    /// The engine's output.
    pub out: SimOutput,
    /// Wall-clock seconds inside `run_simulation`.
    pub wall_s: f64,
    /// The run's sweep row (all `sim_*` metrics derive from it).
    pub row: SweepCellMetrics,
    /// FNV-1a digest of the sweep row's `Debug` rendering: equal digests
    /// mean equal simulated behaviour.
    pub digest: u64,
}

impl CheckedRun {
    /// Generated tokens of the completed requests — the work `ns_per_token`
    /// divides by.
    #[must_use]
    pub fn output_tokens(&self) -> u64 {
        self.out
            .records
            .iter()
            .map(|r| u64::from(r.spec.output_tokens()))
            .sum()
    }

    /// Requests that arrived but did not complete: stranded by an outage
    /// or rejected by admission control.
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.out.fleet.stranded + self.out.admission.rejected
    }
}

/// Runs `trace` under `config`, times the simulation and checks the output.
///
/// # Errors
///
/// Returns the panic message or the failed check.
pub fn run_checked(trace: &Trace, config: &SimConfig) -> Result<CheckedRun, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let started = Instant::now();
        let out = std::hint::black_box(run_simulation(
            std::hint::black_box(trace),
            std::hint::black_box(config),
        ));
        let wall_s = started.elapsed().as_secs_f64();
        check(trace, &out)?;
        let row = summarize(&out);
        let digest = digest(&row);
        Ok(CheckedRun {
            out,
            wall_s,
            row,
            digest,
        })
    }))
    .unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        Err(format!("panicked: {msg}"))
    })
}

/// Condenses a run into its sweep row, the public surface every `sim_*`
/// metric is read from.
#[must_use]
pub fn summarize(out: &SimOutput) -> SweepCellMetrics {
    SweepCellMetrics::from_run(
        &out.records,
        &out.migration_outcomes,
        &out.admission,
        &out.fleet,
        out.makespan.as_secs_f64(),
        &QoeParams::paper_eval(),
    )
}

/// The engine's conservation laws, checked on every run. Record
/// consistency checks panic; [`run_checked`] turns that into an error.
fn check(trace: &Trace, out: &SimOutput) -> Result<(), String> {
    let arrivals = trace.requests().len() as u64;
    let completed = out.records.len() as u64;
    let (stranded, rejected) = (out.fleet.stranded, out.admission.rejected);
    if completed + stranded + rejected != arrivals {
        return Err(format!(
            "request conservation: {completed} completed + {stranded} stranded + \
             {rejected} rejected != {arrivals} arrivals"
        ));
    }
    let m = &out.migration_outcomes;
    let tiers = [
        (
            "cross-shard",
            m.cross_shard_considered,
            m.cross_shard_launched,
            m.cross_shard_vetoed_by_cost,
            m.cross_shard_aborted,
        ),
        (
            "cross-region",
            m.cross_region_considered,
            m.cross_region_launched,
            m.cross_region_vetoed_by_cost,
            m.cross_region_aborted,
        ),
    ];
    for (tier, considered, launched, vetoed, aborted) in tiers {
        if considered != launched + vetoed + aborted {
            return Err(format!(
                "{tier} escape conservation: {considered} considered != {launched} launched \
                 + {vetoed} vetoed + {aborted} aborted"
            ));
        }
    }
    for record in &out.records {
        record.assert_consistent();
    }
    Ok(())
}

/// FNV-1a over the row's `Debug` text (shortest round-trip floats, so the
/// digest is exact and host-independent).
#[must_use]
pub fn digest(row: &SweepCellMetrics) -> u64 {
    format!("{row:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Inputs, Workload};

    #[test]
    fn a_smoke_run_passes_its_checks_and_repeats_exactly() {
        let w = Workload::named("backlog")
            .expect("listed workload")
            .with_count(150);
        let inputs = Inputs::build(&w, 3);
        let a = run_checked(&inputs.traces[0], &inputs.config).expect("clean run");
        let b = run_checked(&inputs.traces[0], &inputs.config).expect("clean run");
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.out.records.len(), 150);
        assert!(a.output_tokens() > 0);
    }

    #[test]
    fn a_panicking_run_is_an_error_not_an_abort() {
        let w = Workload::named("backlog")
            .expect("listed workload")
            .with_count(20);
        let mut inputs = Inputs::build(&w, 3);
        // Three shards cannot split 32 instances: the engine panics.
        inputs.config.shards = 3;
        let err = run_checked(&inputs.traces[0], &inputs.config)
            .err()
            .expect("broken deployment fails");
        assert!(err.starts_with("panicked"), "{err}");
    }
}
