//! The cross-shard router: cluster-boundary placement over scheduling
//! domains.
//!
//! When the engine runs as a cluster of shards, every arrival is pinned to
//! one shard *before* the shard's own Algorithm 1 picks an instance — the
//! decision SLO-aware serving work identifies as dominating tail behavior,
//! made here from per-shard [`PoolSnapshot`]s. [`RouterPolicy`] names the
//! three routing disciplines:
//!
//! * `round-robin` — a rotating cursor, oblivious to load;
//! * `least-loaded` — the shard with the smallest current KV footprint;
//! * `predictive` — Algorithm 1's smallest-predicted-footprint ranking
//!   lifted to shard granularity: restrict to shards with at least one
//!   SLO-healthy instance (fall back to all when none qualify), then pick
//!   the smallest current-plus-predicted KV footprint.
//!
//! The router also owns the cross-shard *escape* ranking used at phase
//! boundaries: when a shard's every instance is SLO-unhealthy, Algorithm 2
//! is lifted one level and ranks the sibling shards instead.

use pascal_cluster::PoolSnapshot;

/// A named cross-shard routing discipline.
///
/// # Examples
///
/// ```
/// use pascal_sched::RouterPolicy;
///
/// let router = RouterPolicy::parse("least").unwrap();
/// assert_eq!(router, RouterPolicy::LeastLoaded);
/// assert_eq!(router.key(), "least");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RouterPolicy {
    /// Rotate arrivals across shards with a cursor.
    RoundRobin,
    /// Send each arrival to the shard with the smallest current KV
    /// footprint (GPU + CPU bytes), ties to the lowest shard id.
    LeastLoaded,
    /// Algorithm 1 lifted to shard granularity: prefer shards with an
    /// SLO-healthy instance, rank by current-plus-predicted KV footprint.
    /// Without a length predictor the predicted term is zero and this
    /// degenerates to health-filtered least-loaded.
    Predictive,
}

impl RouterPolicy {
    /// All disciplines, in presentation order.
    pub const ALL: [RouterPolicy; 3] = [
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastLoaded,
        RouterPolicy::Predictive,
    ];

    /// The short CLI/JSON key.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "rr",
            RouterPolicy::LeastLoaded => "least",
            RouterPolicy::Predictive => "predictive",
        }
    }

    /// Parses a CLI-style key.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid keys.
    pub fn parse(s: &str) -> Result<RouterPolicy, String> {
        RouterPolicy::ALL
            .into_iter()
            .find(|r| r.key() == s)
            .ok_or_else(|| {
                let keys: Vec<&str> = RouterPolicy::ALL.iter().map(|r| r.key()).collect();
                format!("unknown router '{s}' (valid: {})", keys.join(", "))
            })
    }

    /// Whether routing reads the per-shard monitor aggregates at all.
    /// `RoundRobin` is load-oblivious — the cluster skips the monitor
    /// sweep entirely and routes with [`RouterPolicy::rotate`].
    #[must_use]
    pub fn needs_pool_state(self) -> bool {
        !matches!(self, RouterPolicy::RoundRobin)
    }

    /// The pool-state-free rotation underlying `RoundRobin`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn rotate(shards: usize, cursor: &mut usize) -> usize {
        assert!(shards > 0, "routing requires at least one shard");
        let shard = *cursor % shards;
        *cursor += 1;
        shard
    }

    /// Picks the shard for a new arrival from the per-shard monitor
    /// aggregates. `cursor` is the router's rotation state; only
    /// `RoundRobin` reads or advances it.
    ///
    /// # Panics
    ///
    /// Panics if `pools` is empty.
    #[must_use]
    pub fn route(self, pools: &[PoolSnapshot], cursor: &mut usize) -> usize {
        assert!(!pools.is_empty(), "routing requires at least one shard");
        match self {
            RouterPolicy::RoundRobin => RouterPolicy::rotate(pools.len(), cursor),
            RouterPolicy::LeastLoaded => min_shard_by(pools.iter().enumerate(), |p| p.kv_bytes),
            RouterPolicy::Predictive => {
                let healthy: Vec<(usize, &PoolSnapshot)> = pools
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.slo_healthy_instances > 0)
                    .collect();
                if healthy.is_empty() {
                    min_shard_by(pools.iter().enumerate(), |p| p.predicted_kv_bytes)
                } else {
                    min_shard_by(healthy, |p| p.predicted_kv_bytes)
                }
            }
        }
    }
}

impl std::fmt::Display for RouterPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// Algorithm 2 lifted above the instance: the escape target for a request
/// whose home pool — a shard, or a whole region — has no SLO-healthy
/// instance left. `pools` holds one aggregate snapshot per sibling at the
/// escape's tier (the shards of the home region, or the regions), with
/// `from` the home pool. Among the *other* pools that still have a healthy
/// instance, pick the fewest high-priority reasoning requests, ties by
/// predicted KV footprint, then index. `None` when every other pool is as
/// saturated as home — the request stays, exactly as Algorithm 2 keeps a
/// request home when migration cannot help (paying a pricier link to land
/// in an equally saturated pool helps nobody).
#[must_use]
pub fn escape_target(pools: &[PoolSnapshot], from: usize) -> Option<usize> {
    best_escape_pool(pools.iter().enumerate().filter(|(pool, _)| *pool != from))
}

/// The landing-side half of an escape: the best pool (shard) *within* an
/// already-chosen destination group — e.g. which shard of the destination
/// region receives a cross-region escape. Same ranking as
/// [`escape_target`], with no exclusion.
#[must_use]
pub fn best_escape_shard(pools: &[PoolSnapshot]) -> Option<usize> {
    best_escape_pool(pools.iter().enumerate())
}

/// Shared escape ranking: among the SLO-healthy candidates, fewest
/// high-priority reasoning requests, ties by predicted KV footprint, then
/// index.
fn best_escape_pool<'a>(
    candidates: impl IntoIterator<Item = (usize, &'a PoolSnapshot)>,
) -> Option<usize> {
    let healthy: Vec<(usize, &PoolSnapshot)> = candidates
        .into_iter()
        .filter(|(_, p)| p.slo_healthy_instances > 0)
        .collect();
    if healthy.is_empty() {
        return None;
    }
    Some(min_shard_by(healthy, |p| {
        (u64::from(p.reasoning_count), p.predicted_kv_bytes)
    }))
}

/// First minimum by key in iteration order — deterministic shard-id
/// tie-breaking, mirroring the instance-level `min_by_key_stable`.
fn min_shard_by<'a, I, K>(iter: I, key: impl Fn(&PoolSnapshot) -> K) -> usize
where
    I: IntoIterator<Item = (usize, &'a PoolSnapshot)>,
    K: Ord,
{
    let mut best: Option<(usize, K)> = None;
    for (shard, p) in iter {
        let k = key(p);
        match &best {
            Some((_, bk)) if *bk <= k => {}
            _ => best = Some((shard, k)),
        }
    }
    best.expect("non-empty shard iterator").0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(healthy: usize, kv: u64, predicted_extra: u64, reasoning: u32) -> PoolSnapshot {
        PoolSnapshot {
            instances: 2,
            slo_healthy_instances: healthy,
            kv_bytes: kv,
            predicted_kv_bytes: kv + predicted_extra,
            free_gpu_blocks: Some(100),
            reasoning_count: reasoning,
        }
    }

    #[test]
    fn keys_round_trip_and_errors_list_valid_values() {
        for r in RouterPolicy::ALL {
            assert_eq!(RouterPolicy::parse(r.key()), Ok(r));
        }
        let err = RouterPolicy::parse("hash").expect_err("unknown router");
        assert!(
            err.contains("valid: rr, least, predictive"),
            "error must list the valid values, got: {err}"
        );
    }

    #[test]
    fn round_robin_rotates_with_the_cursor() {
        let pools = vec![pool(2, 0, 0, 0), pool(2, 0, 0, 0), pool(2, 0, 0, 0)];
        let mut cursor = 0;
        let picks: Vec<usize> = (0..5)
            .map(|_| RouterPolicy::RoundRobin.route(&pools, &mut cursor))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
        assert_eq!(cursor, 5);
    }

    #[test]
    fn least_loaded_picks_smallest_current_footprint() {
        let pools = vec![pool(2, 500, 0, 0), pool(0, 100, 900, 0), pool(2, 300, 0, 0)];
        let mut cursor = 7;
        // Least-loaded ignores health and predictions entirely.
        assert_eq!(RouterPolicy::LeastLoaded.route(&pools, &mut cursor), 1);
        assert_eq!(cursor, 7, "cursor untouched by non-rotating routers");
    }

    #[test]
    fn predictive_filters_by_health_then_predicted_footprint() {
        let pools = vec![
            pool(2, 500, 0, 0),   // healthy, predicted 500
            pool(0, 100, 0, 0),   // unhealthy: excluded despite smallest kv
            pool(2, 300, 300, 0), // healthy, predicted 600
        ];
        let mut cursor = 0;
        assert_eq!(RouterPolicy::Predictive.route(&pools, &mut cursor), 0);
        // With every shard unhealthy, fall back to all.
        let saturated = vec![pool(0, 500, 0, 0), pool(0, 100, 0, 0)];
        assert_eq!(RouterPolicy::Predictive.route(&saturated, &mut cursor), 1);
    }

    #[test]
    fn tie_break_is_lowest_shard_id() {
        let pools = vec![pool(1, 100, 0, 0), pool(1, 100, 0, 0)];
        let mut cursor = 0;
        assert_eq!(RouterPolicy::LeastLoaded.route(&pools, &mut cursor), 0);
        assert_eq!(RouterPolicy::Predictive.route(&pools, &mut cursor), 0);
    }

    #[test]
    fn escape_target_prefers_least_reasoning_among_healthy_siblings() {
        let pools = vec![
            pool(0, 0, 0, 9), // home: saturated
            pool(2, 800, 0, 3),
            pool(2, 100, 0, 5),
            pool(0, 0, 0, 0), // unhealthy sibling: excluded
        ];
        assert_eq!(escape_target(&pools, 0), Some(1));
        // Ties on reasoning count fall through to predicted footprint.
        let tied = vec![pool(0, 0, 0, 9), pool(1, 800, 0, 3), pool(1, 100, 0, 3)];
        assert_eq!(escape_target(&tied, 0), Some(2));
    }

    #[test]
    fn region_escape_target_mirrors_the_shard_ranking_one_level_up() {
        // Region-granularity Algorithm 2: the same ranking over region
        // aggregates — fewest reasoning requests among healthy remote
        // regions, ties by predicted footprint, then id.
        let regions = vec![
            pool(0, 0, 0, 9), // home: saturated
            pool(4, 900, 0, 5),
            pool(4, 100, 0, 2),
            pool(0, 0, 0, 0), // unhealthy remote: excluded
        ];
        assert_eq!(escape_target(&regions, 0), Some(2));
        let saturated = vec![pool(0, 0, 0, 1), pool(0, 0, 0, 1)];
        assert_eq!(escape_target(&saturated, 0), None);
        // The home region never qualifies as its own escape.
        let only_home = vec![pool(2, 0, 0, 1), pool(0, 0, 0, 1)];
        assert_eq!(escape_target(&only_home, 0), None);
    }

    #[test]
    fn best_escape_shard_ranks_without_exclusion() {
        let pools = vec![pool(1, 500, 0, 4), pool(1, 100, 0, 2), pool(0, 0, 0, 0)];
        assert_eq!(best_escape_shard(&pools), Some(1));
        assert_eq!(best_escape_shard(&[pool(0, 0, 0, 0)]), None);
        assert_eq!(best_escape_shard(&[]), None);
    }

    #[test]
    fn escape_returns_none_when_no_sibling_is_healthy() {
        let pools = vec![pool(0, 0, 0, 1), pool(0, 0, 0, 1)];
        assert_eq!(escape_target(&pools, 0), None);
        // The home pool itself never qualifies as its own escape.
        let only_home_healthy = vec![pool(2, 0, 0, 1), pool(0, 0, 0, 1)];
        assert_eq!(escape_target(&only_home_healthy, 0), None);
    }
}
