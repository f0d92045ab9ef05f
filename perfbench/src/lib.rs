//! The repository benchmark: simulator cost per generated token, peak RSS
//! and simulated tail TTFT on three named workloads, plus a traced run that
//! breaks the event loop down by layer. `BENCHMARK.json` at the repository
//! root names the workloads and metrics; `DESIGN.md` beside this crate
//! records their parameters, the layer → end-to-end mapping and the first
//! measured numbers.

pub mod host;
pub mod measure;
pub mod metrics;
pub mod run;
pub mod workload;
