//! The benchmark's named workloads and their inputs.
//!
//! Each workload is one deployment plus a request count. A run of the
//! benchmark builds `traces` independent Poisson traces from consecutive
//! seeds (`seed`, `seed + 1`, …) and passes each `Trace` to
//! `run_simulation`. Trace `i` is exactly what
//! `pascal-cli run <Workload::cli_args> --seed <seed + i>` simulates, so
//! every per-trace figure the benchmark prints can be checked against the
//! CLI.

use std::time::Instant;

use pascal::core::{FleetPreset, RateLevel, SimConfig};
use pascal::federation::{FederationPolicy, WanLink};
use pascal::predict::PredictorKind;
use pascal::sched::{PolicyKind, RouterPolicy};
use pascal::workload::{ArrivalProcess, MixPreset, Trace, TraceBuilder};

/// Offered load: a symbolic level of the analytic capacity, or a fixed
/// rate in requests per second.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rate {
    /// A fraction of `estimate_capacity_rps` (`--rate low|medium|high`).
    Level(RateLevel),
    /// A fixed arrival rate (`--rate <REQ_PER_S>`).
    Rps(f64),
}

/// One named workload: the deployment, the load and the input size.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// The name the benchmark is invoked with.
    pub name: &'static str,
    /// `--dataset` key.
    pub mix: &'static str,
    /// `--rate`.
    pub rate: Rate,
    /// `--instances`.
    pub instances: usize,
    /// `--shards` (per region).
    pub shards: usize,
    /// `--regions`.
    pub regions: usize,
    /// `--fed-router` key (only passed when `regions > 1`).
    pub fed_router: &'static str,
    /// `--wan` key (only passed when `regions > 1`).
    pub wan: &'static str,
    /// `--fleet-events` preset.
    pub fleet: Option<FleetPreset>,
    /// Requests per trace (`--count`).
    pub count: usize,
    /// Independent traces per run, from consecutive seeds.
    pub traces: usize,
}

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["backlog", "underload", "federated-outage"];

impl Workload {
    /// The workload called `name`, at its benchmark size.
    #[must_use]
    pub fn named(name: &str) -> Option<Workload> {
        let mixed_32x4 = |name, rate, count, traces| Workload {
            name,
            mix: "mixed",
            rate,
            instances: 32,
            shards: 4,
            regions: 1,
            fed_router: "static",
            wan: "continental",
            fleet: None,
            count,
            traces,
        };
        match name {
            "backlog" => Some(mixed_32x4(
                "backlog",
                Rate::Level(RateLevel::High),
                10_000,
                4,
            )),
            "underload" => Some(mixed_32x4("underload", Rate::Rps(5.0), 20_000, 2)),
            "federated-outage" => Some(Workload {
                name: "federated-outage",
                mix: "reasoning-heavy",
                rate: Rate::Level(RateLevel::Low),
                instances: 32,
                shards: 2,
                regions: 4,
                fed_router: "predictive",
                wan: "continental",
                fleet: Some(FleetPreset::Outage),
                count: 10_000,
                traces: 4,
            }),
            _ => None,
        }
    }

    /// The same workload with `count` requests per trace (smoke tests).
    #[must_use]
    pub fn with_count(mut self, count: usize) -> Self {
        self.count = count;
        self
    }

    /// The `pascal-cli run` arguments that simulate one of this workload's
    /// traces (append `--seed <n>`).
    #[must_use]
    pub fn cli_args(&self) -> String {
        let rate = match self.rate {
            Rate::Level(level) => level.key().to_owned(),
            Rate::Rps(rps) => format!("{rps}"),
        };
        let mut args = format!(
            "--dataset {} --predictor quantile --instances {}",
            self.mix, self.instances
        );
        if self.regions > 1 {
            args.push_str(&format!(
                " --regions {} --shards {} --fed-router {} --wan {}",
                self.regions, self.shards, self.fed_router, self.wan
            ));
        } else {
            args.push_str(&format!(" --shards {} --router rr", self.shards));
        }
        if let Some(fleet) = self.fleet {
            args.push_str(&format!(" --fleet-events {}", fleet.key()));
        }
        args.push_str(&format!(" --rate {rate} --count {}", self.count));
        args
    }

    /// The deployment, built the way `pascal-cli run` builds it from
    /// [`Workload::cli_args`]: PASCAL with the quantile predictor,
    /// sequential event loop, telemetry off.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        let policy = PolicyKind::parse("pascal").expect("pascal is a policy key");
        let mut config = SimConfig::evaluation_cluster(policy.build());
        config.num_instances = self.instances;
        config.shards = self.shards;
        config.router = RouterPolicy::parse("rr").expect("rr is a router key");
        config.regions = self.regions;
        config.fed_router = FederationPolicy::parse(self.fed_router).expect("known fed router");
        config.wan = WanLink::parse(self.wan).expect("known WAN class");
        config.run_threads = 1;
        config.predictor =
            Some(PredictorKind::parse("quantile").expect("quantile is a predictor key"));
        if let Some(preset) = self.fleet {
            let horizon_s = self.count as f64 / self.rate_rps(&config);
            let spec = preset.spec(horizon_s, self.regions, self.shards, self.instances);
            spec.validate(self.regions, self.shards, self.instances)
                .expect("preset fits the topology");
            config.fleet = Some(spec);
        }
        config
    }

    /// The arrival rate in requests per second, resolved against `config`
    /// as the CLI resolves `--rate`.
    #[must_use]
    pub fn rate_rps(&self, config: &SimConfig) -> f64 {
        match self.rate {
            Rate::Level(level) => level.rate_rps(config, &self.mix_preset().mix()),
            Rate::Rps(rps) => rps,
        }
    }

    fn mix_preset(&self) -> MixPreset {
        MixPreset::parse(self.mix).expect("known dataset key")
    }

    /// The seed of trace `i` of a run started with `seed`.
    #[must_use]
    pub fn trace_seed(seed: u64, i: usize) -> u64 {
        seed.wrapping_add(i as u64)
    }

    /// Builds trace `i` of a run started with `seed` at `rate_rps`.
    #[must_use]
    pub fn trace(&self, rate_rps: f64, seed: u64, i: usize) -> Trace {
        TraceBuilder::new(self.mix_preset().mix())
            .arrivals(ArrivalProcess::poisson(rate_rps))
            .count(self.count)
            .seed(Self::trace_seed(seed, i))
            .regions(self.regions)
            .build()
    }
}

/// Everything a run simulates: the deployment and its traces.
pub struct Inputs {
    /// The deployment.
    pub config: SimConfig,
    /// The traces, trace `i` built from seed `seed + i`.
    pub traces: Vec<Trace>,
}

impl Inputs {
    /// Builds the deployment and every trace of `workload` from `seed`.
    #[must_use]
    pub fn build(workload: &Workload, seed: u64) -> Inputs {
        Inputs::build_timed(workload, seed).0
    }

    /// [`Inputs::build`], also returning the wall seconds spent in
    /// `TraceBuilder::build` alone.
    #[must_use]
    pub fn build_timed(workload: &Workload, seed: u64) -> (Inputs, f64) {
        let config = workload.config();
        let rate = workload.rate_rps(&config);
        let started = Instant::now();
        let traces = (0..workload.traces)
            .map(|i| workload.trace(rate, seed, i))
            .collect();
        let build_s = started.elapsed().as_secs_f64();
        (Inputs { config, traces }, build_s)
    }

    /// Requests across every trace.
    #[must_use]
    pub fn arrivals(&self) -> u64 {
        self.traces.iter().map(|t| t.requests().len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_round_trips() {
        for name in NAMES {
            let w = Workload::named(name).expect("listed workload");
            assert_eq!(w.name, name);
            assert!(w.traces >= 1 && w.count >= 1);
        }
        assert!(Workload::named("nope").is_none());
    }

    #[test]
    fn inputs_follow_the_seed() {
        let w = Workload::named("federated-outage")
            .expect("listed workload")
            .with_count(50);
        let a = Inputs::build(&w, 7);
        let b = Inputs::build(&w, 7);
        let c = Inputs::build(&w, 8);
        assert_eq!(a.traces, b.traces);
        assert_ne!(a.traces, c.traces);
        // Consecutive seeds share traces shifted by one.
        assert_eq!(a.traces[1], c.traces[0]);
        assert_eq!(a.arrivals(), 50 * w.traces as u64);
        assert!(a.config.fleet.is_some());
    }
}
