//! # pascal-workload — requests, datasets and trace synthesis
//!
//! Everything the PASCAL reproduction knows about *what* is being served:
//!
//! * [`RequestSpec`] / [`Phase`] — the two-phase reasoning-LLM request model
//!   of Fig. 1(b) (prefill folded into the reasoning phase, §II-D);
//! * [`TokenDist`] — token-count distributions, including clamped
//!   log-normals fitted to the paper's published dataset means;
//! * [`DatasetProfile`] / [`DatasetMix`] — AlpacaEval2.0, Arena-Hard
//!   (Fig. 8), MATH-500, GPQA, LiveCodeBench (Fig. 14) and the Fig. 16
//!   mixture;
//! * [`MixPreset`] — the named mix presets shared by the CLI, the
//!   experiments and the scenario-sweep grids;
//! * [`ArrivalProcess`] — Poisson (and deterministic) arrivals;
//! * [`TraceBuilder`] and the Fig. 4 / Fig. 5 characterization workloads.
//!
//! # Examples
//!
//! Build the Arena-Hard trace used in the paper's main evaluation:
//!
//! ```
//! use pascal_workload::{ArrivalProcess, DatasetMix, DatasetProfile, TraceBuilder};
//!
//! let trace = TraceBuilder::new(DatasetMix::single(DatasetProfile::arena_hard()))
//!     .arrivals(ArrivalProcess::poisson(3.0))
//!     .count(300)
//!     .seed(42)
//!     .build();
//! assert_eq!(trace.requests().len(), 300);
//! assert!(trace.total_output_tokens() > 100_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod dataset;
mod dist;
mod presets;
mod request;
mod trace;

pub use arrivals::ArrivalProcess;
pub use dataset::{DatasetMix, DatasetProfile};
pub use dist::TokenDist;
pub use presets::MixPreset;
pub use request::{Phase, RequestId, RequestSpec};
pub use trace::{fig04_reasoning_trace, fig05_answering_trace, Trace, TraceBuilder, TraceTooLarge};
