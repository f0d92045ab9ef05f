//! The pairwise learning-to-rank predictor.

use std::collections::{BTreeMap, VecDeque};

use pascal_workload::RequestSpec;

use crate::predictor::{EstimateScope, LengthEstimate, LengthPredictor};

/// Number of feature slots: bias, log-prompt, and dataset one-hot buckets.
const NUM_DATASET_SLOTS: usize = 14;
const NUM_FEATURES: usize = 2 + NUM_DATASET_SLOTS;

/// A completed request retained for pairwise training and score
/// calibration.
#[derive(Clone, Debug)]
struct Observation {
    features: [f64; NUM_FEATURES],
    actual_reasoning: u32,
    actual_total: u32,
}

/// Pairwise-rank predictor: learns to *order* requests by total output
/// length without ever estimating absolute lengths ("Ranking Before
/// Serving"-style). A linear scorer over cheap request features (bias,
/// log-prompt-length, dataset one-hot) is trained with perceptron updates on
/// every pair the new completion forms with a sliding window of recent
/// completions: whenever the score order disagrees with the actual length
/// order, the weights move to fix that pair.
///
/// Because it cannot produce token counts, [`LengthPredictor::estimate`]
/// returns [`LengthEstimate::UNKNOWN`] and predicted-footprint placement
/// falls back to current footprints. Speculative demotion still works, via
/// quantile matching: the window knows which fraction of recent completions
/// were oversized, and the request is flagged when its score lands in that
/// top fraction of window scores.
#[derive(Clone, Debug)]
pub struct PairwiseRank {
    weights: [f64; NUM_FEATURES],
    learning_rate: f64,
    window: VecDeque<Observation>,
    window_cap: usize,
    /// Stable dataset-tag → feature-slot interning (first come, first
    /// served; overflow tags share the last slot).
    dataset_slots: BTreeMap<String, usize>,
}

impl Default for PairwiseRank {
    fn default() -> Self {
        PairwiseRank::new(0.05, 64)
    }
}

impl PairwiseRank {
    /// Required score gap for a pair to count as correctly ordered.
    pub const MARGIN: f64 = 1.0;

    /// Creates a ranker with the given perceptron learning rate and
    /// training-window capacity.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is not positive or `window_cap` is zero.
    #[must_use]
    pub fn new(learning_rate: f64, window_cap: usize) -> Self {
        assert!(
            learning_rate.is_finite() && learning_rate > 0.0,
            "learning rate must be positive"
        );
        assert!(window_cap > 0, "window capacity must be non-zero");
        PairwiseRank {
            weights: [0.0; NUM_FEATURES],
            learning_rate,
            window: VecDeque::with_capacity(window_cap),
            window_cap,
            dataset_slots: BTreeMap::new(),
        }
    }

    fn features(&mut self, req: &RequestSpec) -> [f64; NUM_FEATURES] {
        let mut f = [0.0; NUM_FEATURES];
        f[0] = 1.0;
        f[1] = f64::from(req.prompt_tokens + 1).ln();
        let next = self.dataset_slots.len().min(NUM_DATASET_SLOTS - 1);
        let slot = *self
            .dataset_slots
            .entry(req.dataset_key().to_owned())
            .or_insert(next);
        f[2 + slot] = 1.0;
        f
    }

    /// Features without interning new datasets (read-only scoring path).
    fn features_readonly(&self, req: &RequestSpec) -> [f64; NUM_FEATURES] {
        let mut f = [0.0; NUM_FEATURES];
        f[0] = 1.0;
        f[1] = f64::from(req.prompt_tokens + 1).ln();
        if let Some(&slot) = self.dataset_slots.get(req.dataset_key()) {
            f[2 + slot] = 1.0;
        }
        f
    }

    fn score(&self, features: &[f64; NUM_FEATURES]) -> f64 {
        self.weights
            .iter()
            .zip(features.iter())
            .map(|(w, x)| w * x)
            .sum()
    }
}

impl LengthPredictor for PairwiseRank {
    fn name(&self) -> &'static str {
        "Rank"
    }

    /// Always unknown: a ranker orders, it does not measure.
    fn estimate(&self, _req: &RequestSpec) -> LengthEstimate {
        LengthEstimate::UNKNOWN
    }

    /// Always unknown, whatever the ranker has learned.
    fn estimate_scope(&self) -> EstimateScope {
        EstimateScope::Request
    }

    fn work_score(&self, req: &RequestSpec) -> f64 {
        self.score(&self.features_readonly(req))
    }

    fn predicts_oversized(&self, req: &RequestSpec, threshold_tokens: u32) -> bool {
        // Quantile matching over the training window: if k of the recent
        // completions were actually oversized, flag `req` iff its score
        // beats the k-th largest window score. Uses only score *ordering*
        // plus the binary oversize labels of past completions.
        let k = self
            .window
            .iter()
            .filter(|o| o.actual_reasoning > threshold_tokens)
            .count();
        if k == 0 || self.window.len() < self.window_cap / 2 {
            return false;
        }
        if k == self.window.len() {
            // Every retained observation was oversized — a homogeneous
            // oversized workload, not an untrained scorer; flag everything.
            return true;
        }
        let mut scores: Vec<f64> = self
            .window
            .iter()
            .map(|o| self.score(&o.features))
            .collect();
        scores.sort_by(f64::total_cmp);
        let cutoff = scores[scores.len() - k];
        if cutoff <= scores[0] {
            // The scorer does not separate the window yet (e.g. untrained
            // all-equal scores); refusing beats flagging everything.
            return false;
        }
        self.work_score(req) >= cutoff
    }

    fn observe(&mut self, completed: &RequestSpec) {
        let features = self.features(completed);
        let actual_total = completed.output_tokens();
        // Pairwise perceptron pass against the retained window; updates
        // apply immediately so later pairs in the pass see the corrected
        // scorer (classic sequential perceptron).
        let lr = self.learning_rate;
        let mut new_score = self.score(&features);
        for other in &self.window {
            if other.actual_total == actual_total {
                continue;
            }
            let other_score = self.score(&other.features);
            let new_is_longer = actual_total > other.actual_total;
            // Margin-perceptron update: a pair counts as ordered only when
            // the score gap clears MARGIN. Without the margin, one `lr`
            // step flips a near-zero comparison and unorderable
            // within-dataset pairs drag the weights back to zero — the
            // scorer never accumulates real separations.
            let gap = if new_is_longer {
                new_score - other_score
            } else {
                other_score - new_score
            };
            if gap < Self::MARGIN {
                let sign = if new_is_longer { 1.0 } else { -1.0 };
                for (w, (f_new, f_old)) in self
                    .weights
                    .iter_mut()
                    .zip(features.iter().zip(other.features.iter()))
                {
                    *w += sign * lr * (f_new - f_old);
                }
                new_score = self.score(&features);
            }
        }
        if self.window.len() == self.window_cap {
            self.window.pop_front();
        }
        self.window.push_back(Observation {
            features,
            actual_reasoning: completed.reasoning_tokens,
            actual_total,
        });
    }

    /// A mid-flight threshold crossing is a labelled example the completion
    /// stream cannot deliver in time: the request is provably oversized
    /// *now*. Train it as longer than every retained sub-threshold
    /// completion and retain it with the crossing itself as a length lower
    /// bound.
    fn observe_threshold_crossing(&mut self, req: &RequestSpec, threshold_tokens: u32) {
        let features = self.features(req);
        let lr = self.learning_rate;
        let mut score = self.score(&features);
        for other in &self.window {
            if other.actual_reasoning > threshold_tokens {
                continue; // relative order among oversized is unknown here
            }
            let other_score = self.score(&other.features);
            if score - other_score < Self::MARGIN {
                for (w, (f_new, f_old)) in self
                    .weights
                    .iter_mut()
                    .zip(features.iter().zip(other.features.iter()))
                {
                    *w += lr * (f_new - f_old);
                }
                score = self.score(&features);
            }
        }
        if self.window.len() == self.window_cap {
            self.window.pop_front();
        }
        let bound = threshold_tokens.saturating_add(1);
        self.window.push_back(Observation {
            features,
            actual_reasoning: bound,
            actual_total: bound,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pascal_sim::SimTime;
    use pascal_workload::RequestId;

    fn req(id: u64, dataset: &str, prompt: u32, reasoning: u32, answering: u32) -> RequestSpec {
        RequestSpec::new(RequestId(id), SimTime::ZERO, prompt, reasoning, answering)
            .with_dataset(dataset)
    }

    #[test]
    fn never_estimates_absolute_lengths() {
        let mut rank = PairwiseRank::default();
        for i in 0..100 {
            rank.observe(&req(i, "a", 64, 500, 100));
        }
        assert_eq!(
            rank.estimate(&req(999, "a", 64, 1, 1)),
            LengthEstimate::UNKNOWN
        );
    }

    #[test]
    fn learns_to_order_datasets_by_length() {
        let mut rank = PairwiseRank::default();
        // "short" completes with ~200 total tokens, "long" with ~4000.
        for i in 0..150 {
            rank.observe(&req(2 * i, "short", 64, 150, 50));
            rank.observe(&req(2 * i + 1, "long", 64, 3500, 500));
        }
        let s = rank.work_score(&req(1000, "short", 64, 1, 1));
        let l = rank.work_score(&req(1001, "long", 64, 1, 1));
        assert!(
            l > s,
            "long-dataset score {l} must beat short-dataset score {s}"
        );
    }

    #[test]
    fn oversize_flag_matches_window_quantile() {
        let mut rank = PairwiseRank::default();
        for i in 0..200 {
            rank.observe(&req(2 * i, "short", 64, 200, 50));
            rank.observe(&req(2 * i + 1, "long", 64, 6000, 50));
        }
        // Half the window is oversized at threshold 2000 and "long" scores
        // higher, so a long-dataset request lands in the flagged fraction.
        assert!(rank.predicts_oversized(&req(1000, "long", 64, 1, 1), 2000));
        assert!(!rank.predicts_oversized(&req(1001, "short", 64, 1, 1), 2000));
        // Nothing in the window exceeds an enormous threshold.
        assert!(!rank.predicts_oversized(&req(1002, "long", 64, 1, 1), 100_000));
    }

    #[test]
    fn threshold_crossings_teach_the_ranker_without_completions() {
        // Nothing oversized ever completes (saturation survivorship bias);
        // only short completions plus mid-flight crossings of the "long"
        // dataset arrive. The ranker must still learn to flag it.
        let mut rank = PairwiseRank::default();
        for i in 0..120 {
            rank.observe(&req(2 * i, "short", 64, 200, 50));
            rank.observe_threshold_crossing(&req(2 * i + 1, "long", 64, 1, 1), 5000);
        }
        assert!(rank.predicts_oversized(&req(9_000, "long", 64, 1, 1), 5000));
        assert!(!rank.predicts_oversized(&req(9_001, "short", 64, 1, 1), 5000));
    }

    #[test]
    fn homogeneous_oversized_window_flags_everything() {
        // All-giant workload: the scorer cannot separate (nothing to rank
        // against), but 100% of observed completions were oversized, so the
        // quantile-matching rule must flag every arrival.
        let mut rank = PairwiseRank::default();
        for i in 0..80 {
            rank.observe(&req(i, "giants", 64, 7000 + (i as u32 % 50), 50));
        }
        assert!(rank.predicts_oversized(&req(9_000, "giants", 64, 1, 1), 5000));
    }

    #[test]
    fn cold_ranker_flags_nothing() {
        let rank = PairwiseRank::default();
        assert!(!rank.predicts_oversized(&req(0, "a", 64, 1, 1), 1));
    }

    #[test]
    fn observe_sequences_are_deterministic() {
        let run = || {
            let mut rank = PairwiseRank::default();
            for i in 0..300u64 {
                let ds = ["a", "b", "c"][(i % 3) as usize];
                rank.observe(&req(
                    i,
                    ds,
                    32 + (i as u32 % 128),
                    (i as u32 * 37) % 4000 + 1,
                    20,
                ));
            }
            format!("{:?}", rank.weights)
        };
        assert_eq!(run(), run());
    }
}
