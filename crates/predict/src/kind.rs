//! Predictor selection: a small, copyable configuration enum.

use crate::ema::ProfileEma;
use crate::oracle::Oracle;
use crate::predictor::LengthPredictor;
use crate::quantile::QuantilePredictor;
use crate::rank::PairwiseRank;

/// Which length predictor a deployment runs. Lives in `SimConfig`; the
/// engine builds the stateful predictor from it at simulation start, so
/// configs stay `Clone + Copy`-friendly and every run begins from identical
/// (empty) predictor state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// Perfect information from the trace — the upper bound.
    Oracle,
    /// Per-dataset running mean / quantile estimator.
    ProfileEma,
    /// Pairwise learning-to-rank comparator (no absolute estimates).
    PairwiseRank,
    /// Per-dataset P² streaming-quantile estimator (median per phase class,
    /// upper quantile for demotion).
    Quantile,
}

impl PredictorKind {
    /// All kinds, in presentation order.
    pub const ALL: [PredictorKind; 4] = [
        PredictorKind::Oracle,
        PredictorKind::ProfileEma,
        PredictorKind::PairwiseRank,
        PredictorKind::Quantile,
    ];

    /// Builds a fresh predictor of this kind.
    #[must_use]
    pub fn build(self) -> Box<dyn LengthPredictor> {
        match self {
            PredictorKind::Oracle => Box::new(Oracle),
            PredictorKind::ProfileEma => Box::new(ProfileEma::default()),
            PredictorKind::PairwiseRank => Box::new(PairwiseRank::default()),
            PredictorKind::Quantile => Box::new(QuantilePredictor::default()),
        }
    }

    /// Display name, matching the predictor's `name()`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::Oracle => "Oracle",
            PredictorKind::ProfileEma => "EMA",
            PredictorKind::PairwiseRank => "Rank",
            PredictorKind::Quantile => "Quantile",
        }
    }

    /// The short CLI/JSON key accepted by [`PredictorKind::parse`].
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            PredictorKind::Oracle => "oracle",
            PredictorKind::ProfileEma => "ema",
            PredictorKind::PairwiseRank => "rank",
            PredictorKind::Quantile => "quantile",
        }
    }

    /// Parses a CLI-style name (`oracle` / `ema` / `rank` / `quantile`).
    ///
    /// # Errors
    ///
    /// Returns the unknown string back as the error.
    pub fn parse(s: &str) -> Result<PredictorKind, String> {
        PredictorKind::ALL
            .into_iter()
            .find(|k| k.key() == s)
            .ok_or_else(|| {
                format!("unknown predictor '{s}' (expected oracle, ema, rank or quantile)")
            })
    }
}

impl std::fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for kind in PredictorKind::ALL {
            let cli = kind.name().to_lowercase();
            let cli = match cli.as_str() {
                "ema" | "rank" | "oracle" | "quantile" => cli,
                other => unreachable!("unexpected name {other}"),
            };
            assert_eq!(PredictorKind::parse(&cli), Ok(kind));
            assert_eq!(PredictorKind::parse(kind.key()), Ok(kind));
            assert_eq!(kind.build().name(), kind.name());
        }
        let err = PredictorKind::parse("magic").expect_err("unknown kind");
        assert!(err.contains("quantile"), "error lists quantile: {err}");
    }

    /// Every predictor keeps the promise its estimate scope makes: a
    /// dataset-scope estimate is shared by every request of the dataset,
    /// and a request-scope estimate never moves as the predictor learns.
    #[test]
    fn estimates_honor_their_scope() {
        use crate::predictor::EstimateScope;
        use pascal_sim::SimTime;
        use pascal_workload::{RequestId, RequestSpec};

        let req = |id: u64, dataset: &str, prompt: u32, reasoning: u32| {
            RequestSpec::new(RequestId(id), SimTime::ZERO, prompt, reasoning, 40)
                .with_dataset(dataset)
        };
        for kind in PredictorKind::ALL {
            let mut predictor = kind.build();
            let probe = req(1_000, "a", 64, 300);
            let sibling = req(1_001, "a", 2_000, 9_000);
            let before = predictor.estimate(&probe);
            for i in 0..40 {
                let dataset = if i % 2 == 0 { "a" } else { "b" };
                predictor.observe(&req(i, dataset, 32 + i as u32, 100 + 37 * i as u32));
                predictor.observe_threshold_crossing(&req(500 + i, dataset, 64, 1), 200);
            }
            match predictor.estimate_scope() {
                EstimateScope::Dataset => assert_eq!(
                    predictor.estimate(&probe),
                    predictor.estimate(&sibling),
                    "{kind}: one estimate per dataset"
                ),
                EstimateScope::Request => assert_eq!(
                    predictor.estimate(&probe),
                    before,
                    "{kind}: learning must not move a request-scope estimate"
                ),
            }
        }
    }
}
