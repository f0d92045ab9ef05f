//! The oracle predictor: reads the trace's hidden lengths.

use pascal_workload::RequestSpec;

use crate::predictor::{EstimateScope, LengthEstimate, LengthPredictor};

/// Perfect-information predictor — it reads the actual reasoning/answering
/// lengths straight out of the request spec (which the trace knows but a
/// real serving system would not). The upper bound every learned predictor
/// is compared against; its calibration error is zero by construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct Oracle;

impl LengthPredictor for Oracle {
    fn name(&self) -> &'static str {
        "Oracle"
    }

    fn estimate(&self, req: &RequestSpec) -> LengthEstimate {
        LengthEstimate {
            reasoning_tokens: Some(f64::from(req.reasoning_tokens)),
            answering_tokens: Some(f64::from(req.answering_tokens)),
        }
    }

    /// The hidden lengths of the request itself; nothing is learned.
    fn estimate_scope(&self) -> EstimateScope {
        EstimateScope::Request
    }

    fn work_score(&self, req: &RequestSpec) -> f64 {
        f64::from(req.output_tokens())
    }

    fn observe(&mut self, _completed: &RequestSpec) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascal_sim::SimTime;
    use pascal_workload::RequestId;

    #[test]
    fn oracle_reads_hidden_lengths_exactly() {
        let req = RequestSpec::new(RequestId(0), SimTime::ZERO, 128, 4321, 99);
        let est = Oracle.estimate(&req);
        assert_eq!(est.reasoning_tokens, Some(4321.0));
        assert_eq!(est.answering_tokens, Some(99.0));
        assert_eq!(est.total_tokens(), Some(4420.0));
        assert!(Oracle.predicts_oversized(&req, 4320));
        assert!(!Oracle.predicts_oversized(&req, 4321));
    }

    #[test]
    fn oracle_work_score_orders_by_actual_total() {
        let small = RequestSpec::new(RequestId(0), SimTime::ZERO, 128, 100, 10);
        let big = RequestSpec::new(RequestId(1), SimTime::ZERO, 128, 5000, 10);
        assert!(Oracle.work_score(&big) > Oracle.work_score(&small));
    }
}
