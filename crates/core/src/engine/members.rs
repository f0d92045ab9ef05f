//! Member bookkeeping: the one place where a request's state changes turn
//! into its instance's derived state.
//!
//! PASCAL's instance monitor feeds Algorithm 1 at every arrival and
//! Algorithm 2 at every phase transition, and the intra-instance scheduler
//! orders each instance's requests every iteration (§IV). Rebuilding
//! either from every member would make each event cost O(backlog).
//! Instead, every change to a member's phase, demotion, quanta, KV
//! location, token count or instance goes through the mutators below,
//! which keep per instance:
//!
//! * the counters `r_i` (reasoning members in the high-priority queue)
//!   and `a_i` (answering members still in their first quantum);
//! * the earliest answering-pacer deadline — a cached minimum over a
//!   compact deadline list. When its owner's deadline moves later or the
//!   owner leaves, the cache keeps the old value as a lower bound, and the
//!   list is rescanned only if a row is read at an instant the bound no
//!   longer clears. The members of an open [steady run](super::steady)
//!   leave the list while the run lasts; the run keeps their earliest
//!   deadline instead;
//! * the predicted-future-KV block sum, moved in O(1) per token through
//!   [`remaining_tokens`] (a token only compares its count against the
//!   next block boundary) and re-summed for one dataset group only when a
//!   predictor update changes that group's estimate;
//! * the candidate index: schedulable members ordered by priority key,
//!   re-keyed only for the request whose key changed;
//! * the GPU-resident set, the only place evictees come from.
//!
//! Each member's applied contribution is recorded in its [`MemberMon`]
//! slot, so a mutator diffs the new state against exactly what it applied
//! before. A mutator is also a **touch** of the open [steady
//! run](super::steady) on the request's instance, if there is one:
//!
//! * a member of the run changed mid-iteration (a running request in the
//!   in-flight batch, or a member waiting through a prefill the run paused
//!   for; not the prefill's own requests) closes it first, catching every
//!   member up, so the mutator never diffs against a state the run still
//!   owes tokens to. At
//!   an iteration end the run itself takes each member whose edge is due —
//!   completion, phase boundary, first answering token, demotion — out of
//!   the batch, caught up alone, before its token runs the mutators: they
//!   find it idle, like any non-member;
//! * a GPU-resident non-member — a landing (migration, cross-shard or
//!   cross-region transfer, reload), a member taken out at an edge, or a
//!   resident whose growth the pool refused at the run's opening launch —
//!   is a **joiner**: the run's next launch admits it when the full path
//!   would, which the closing `try_schedule` decides. A **newcomer** whose
//!   prefill is still to run, sorting among the batch's keys, is a joiner
//!   too: the run pauses through its prefill. A joiner that can no longer
//!   join (it completed, or migrated away) is dropped;
//! * a desired member whose reload is in flight is **pending**: launches
//!   leave it out, and its landing makes it a joiner;
//! * any other non-member is re-filed without touching the run's members.
//!   If it now sorts among the batch's keys, the next launch would admit
//!   it, which only the planner does: the run's next iteration end is an
//!   edge step after which it plans that launch, walking the desired set
//!   (the run no longer vouches for its key range). Otherwise the batch
//!   stays a key-order prefix of the candidates and only the first
//!   candidate outside the batch could still enter — if the change freed
//!   budget or brought a new candidate. The run is marked and settled by
//!   the `try_schedule` every such caller ends with: its next launch stays
//!   the O(1) relaunch while that candidate cannot fit, or while it fits as
//!   a newcomer, which then joins; otherwise the run plans it;
//! * a predictor refresh re-prices a run member's predicted growth in
//!   place: growth never changes which batch the planner picks.
//!
//! Debug builds check every monitor row, candidate order and evictee set
//! against a from-scratch rebuild.

use std::cell::Cell;

use pascal_cluster::{KvLocation, ReqHandle};
use pascal_predict::{EstimateScope, LengthEstimate, LengthPredictor};
use pascal_sched::PriorityKey;
use pascal_sim::SimTime;
use pascal_telemetry::FullPathCause;
use pascal_workload::{Phase, RequestSpec};

use super::Shard;

/// The aggregates one instance's monitor row is read from.
#[derive(Default)]
pub(crate) struct InstanceMonitor {
    /// `r_i`: reasoning members in the high-priority queue (not demoted).
    pub(super) reasoning: u32,
    /// `a_i`: answering members that have not used up their first quantum.
    pub(super) fresh_answering: u32,
    /// Predicted future KV blocks of every member.
    pub(super) predicted_blocks: u64,
    /// `(on_pace_until, member)` of every started answering stream,
    /// unordered.
    pacers: Vec<(SimTime, ReqHandle)>,
    /// The earliest pacer deadline, in a `Cell` because a row read may
    /// tighten it.
    pace: Cell<PaceMin>,
    /// The earliest pacer deadline among the answering members of the
    /// instance's open steady run, whose own entries are out of the list
    /// while the run is open. `None` without such a run, or when every
    /// such deadline lies past `SimTime::MAX`.
    pub(super) steady_pace: Option<SimTime>,
}

/// The cached earliest entry of an instance's pacer list.
///
/// Every answering token moves its stream's deadline later. An ordered
/// `(deadline, member)` set would pay a removal and an insertion for each
/// such token; on the backlog deployment (README, Performance) that
/// measured ≈1.4× the wall time per generated token of this cache.
/// Deadlines only ever move later, which is what keeps the cache cheap: a
/// stale minimum is still a valid lower bound.
#[derive(Clone, Copy, Default)]
enum PaceMin {
    /// The list is empty.
    #[default]
    Empty,
    /// `owner`'s deadline `at` is the earliest entry; every other entry is
    /// at or after `others` (`SimTime::MAX` when there is none).
    Exact {
        at: SimTime,
        owner: ReqHandle,
        others: SimTime,
    },
    /// Every entry is at or after `bound`; which one is earliest is
    /// unknown until a rescan.
    Bound(SimTime),
}

impl InstanceMonitor {
    /// `t_i` at `now` — every started answering stream is still on pace
    /// (only answering members start pacers, and an unstarted stream is on
    /// pace at every instant) — plus the pacer entries a rescan visited.
    /// A bound that clears `now` answers without looking at the entries.
    pub(super) fn slo_ok(&self, now: SimTime) -> (bool, u64) {
        let (listed_ok, visited) = self.listed_ok(now);
        let steady_ok = self.steady_pace.is_none_or(|at| now < at);
        (listed_ok && steady_ok, visited)
    }

    /// `t_i` over the pacer list alone.
    fn listed_ok(&self, now: SimTime) -> (bool, u64) {
        match self.pace.get() {
            PaceMin::Empty => (true, 0),
            PaceMin::Exact { at, .. } => (now < at, 0),
            PaceMin::Bound(bound) if now < bound => (true, 0),
            PaceMin::Bound(_) => {
                let pace = self
                    .pacers
                    .iter()
                    .fold(PaceMin::Empty, |pace, &(at, handle)| {
                        pace.with_entry(at, handle)
                    });
                self.pace.set(pace);
                (self.listed_ok(now).0, self.pacers.len() as u64)
            }
        }
    }

    /// `handle`'s entry in the pacer list, if it has one.
    #[cfg(debug_assertions)]
    pub(super) fn pacer_entry(
        &self,
        member_mon: &[MemberMon],
        handle: ReqHandle,
    ) -> Option<SimTime> {
        member_mon[handle.index()]
            .pacer
            .map(|slot| self.pacers[slot as usize].0)
    }

    /// Moves `handle`'s pacer entry to `deadline` (`None` removes it),
    /// keeping the cached earliest entry exact — or, once its owner moved
    /// past the rest or left, a valid lower bound.
    pub(super) fn move_pacer(
        &mut self,
        member_mon: &mut [MemberMon],
        handle: ReqHandle,
        deadline: Option<SimTime>,
    ) {
        let pace = self.pace.get();
        let owned_others = match pace {
            PaceMin::Exact { owner, others, .. } if owner == handle => Some(others),
            _ => None,
        };
        match (member_mon[handle.index()].pacer, deadline) {
            (None, None) => {}
            (None, Some(at)) => {
                member_mon[handle.index()].pacer = Some(self.pacers.len() as u32);
                self.pacers.push((at, handle));
                self.pace.set(pace.with_entry(at, handle));
            }
            (Some(slot), Some(at)) => {
                self.pacers[slot as usize].0 = at;
                self.pace.set(match owned_others {
                    // The owner stays earliest while it does not pass the
                    // rest.
                    Some(others) if at <= others => PaceMin::Exact {
                        at,
                        owner: handle,
                        others,
                    },
                    Some(others) => PaceMin::Bound(others),
                    None => pace.with_entry(at, handle),
                });
            }
            (Some(slot), None) => {
                self.pacers.swap_remove(slot as usize);
                if let Some(&(_, moved)) = self.pacers.get(slot as usize) {
                    member_mon[moved.index()].pacer = Some(slot);
                }
                member_mon[handle.index()].pacer = None;
                if let Some(others) = owned_others {
                    self.pace.set(if self.pacers.is_empty() {
                        PaceMin::Empty
                    } else {
                        PaceMin::Bound(others)
                    });
                }
            }
        }
    }
}

impl PaceMin {
    /// The cache after an entry at `at` appears (or moves to `at`) for a
    /// member that is not the cached owner.
    fn with_entry(self, at: SimTime, handle: ReqHandle) -> PaceMin {
        match self {
            PaceMin::Empty => PaceMin::Exact {
                at,
                owner: handle,
                others: SimTime::MAX,
            },
            PaceMin::Exact {
                at: min,
                owner,
                others,
            } if min <= at => PaceMin::Exact {
                at: min,
                owner,
                others: others.min(at),
            },
            PaceMin::Exact { at: min, .. } => PaceMin::Exact {
                at,
                owner: handle,
                others: min,
            },
            PaceMin::Bound(bound) if at < bound => PaceMin::Exact {
                at,
                owner: handle,
                others: bound,
            },
            PaceMin::Bound(bound) => PaceMin::Bound(bound),
        }
    }
}

/// What one member currently contributes to its instance's derived state,
/// indexed by the member's slab slot.
#[derive(Clone, Copy, Default)]
pub(crate) struct MemberMon {
    reasoning: bool,
    fresh_answering: bool,
    resident: bool,
    /// The key it is filed under in the candidate index, if schedulable.
    pub(super) key: Option<PriorityKey>,
    /// Its entry in the instance's pacer list, once its answering stream
    /// started.
    pacer: Option<u32>,
    /// `round(total)` of its predicted output length; `None` without an
    /// absolute estimate or when predicted growth is not tracked.
    pub(super) predicted_total: Option<u64>,
    /// Its predicted future KV, counted into the instance.
    pub(super) growth: Growth,
    /// Its dataset group and its index in the group's member list
    /// (dataset-scope predictors only).
    group: Option<(u32, u32)>,
    /// As a member of an open steady run: the run iteration its state was
    /// last brought up to.
    pub(super) sync: u32,
    /// As a member of an open steady run: the run iteration at which its
    /// predicted growth reaches zero and its drop residue retires
    /// (`u32::MAX` when none is scheduled).
    pub(super) retire: u32,
    /// As a member of an open steady run: the run iteration whose token
    /// reaches its next lifecycle edge.
    pub(super) edge: u32,
    /// As a member of an open steady run: the run iteration whose token
    /// ends its quantum (`u32::MAX` when its edge comes first).
    pub(super) quantum_end: u32,
    /// As an answering member of an open steady run: the run's number for
    /// its pacer key's filing (0 when none is filed).
    pub(super) pace_filing: u32,
}

/// A member's predicted future KV: `blocks` blocks of predicted remaining
/// output, one fewer once `tokens_generated` reaches `drop_at`. Carrying
/// the next boundary lets a token update the sum with a comparison; a
/// division per token measured ≈1.1× the wall time per generated token
/// on the backlog deployment (README, Performance).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) struct Growth {
    pub(super) blocks: u64,
    pub(super) drop_at: u64,
}

impl Default for Growth {
    fn default() -> Self {
        Growth::NONE
    }
}

impl Growth {
    /// No predicted growth: nothing left to drop.
    const NONE: Growth = Growth {
        blocks: 0,
        drop_at: u64::MAX,
    };

    /// The growth of a member predicted to generate `total` tokens, at
    /// `generated` tokens and `block_tokens` tokens per block.
    pub(super) fn at(total: Option<u64>, generated: u32, block_tokens: u32) -> Growth {
        let Some(total) = total else {
            return Growth::NONE;
        };
        let block_tokens = u64::from(block_tokens);
        let blocks = remaining_tokens(total, generated).div_ceil(block_tokens);
        // The remainder falls to `blocks - 1` whole blocks once this many
        // tokens are generated.
        let drop_at = match blocks {
            0 => u64::MAX,
            _ => total - (blocks - 1) * block_tokens,
        };
        Growth { blocks, drop_at }
    }

    /// Moves the growth past a token that brought the member to
    /// `generated` tokens: one block fewer exactly when the count reached
    /// the next boundary. Returns whether a block dropped.
    pub(super) fn on_token(&mut self, generated: u32, block_tokens: u32) -> bool {
        if u64::from(generated) < self.drop_at {
            return false;
        }
        self.blocks -= 1;
        self.drop_at = match self.blocks {
            0 => u64::MAX,
            _ => self.drop_at + u64::from(block_tokens),
        };
        true
    }
}

/// A member's contribution as derived from its current state.
struct Contribution {
    reasoning: bool,
    fresh_answering: bool,
    resident: bool,
    key: Option<PriorityKey>,
    pace_deadline: Option<SimTime>,
    growth: Growth,
}

impl Contribution {
    /// What a request contributes to an instance it is not a member of.
    const NONE: Contribution = Contribution {
        reasoning: false,
        fresh_answering: false,
        resident: false,
        key: None,
        pace_deadline: None,
        growth: Growth::NONE,
    };
}

/// The cached predicted totals behind every instance's predicted-growth
/// sum.
#[derive(Default)]
pub(crate) struct EstimateTable {
    /// Whether predicted growth is maintained at all: some consumer reads
    /// it and a predictor is configured.
    tracking: bool,
    /// Whether estimates are shared per dataset and move as the predictor
    /// learns ([`EstimateScope::Dataset`]) rather than fixed per request.
    per_dataset: bool,
    /// One group per dataset tag seen on the shard (per-dataset only).
    groups: Vec<EstimateGroup>,
}

/// The members of one dataset and their shared rounded total.
struct EstimateGroup {
    /// Any member's spec: the estimate depends on its dataset tag only.
    probe: RequestSpec,
    total: Option<u64>,
    members: Vec<ReqHandle>,
}

impl EstimateTable {
    pub(super) fn new(wants_growth: bool, predictor: Option<&dyn LengthPredictor>) -> Self {
        EstimateTable {
            tracking: wants_growth && predictor.is_some(),
            per_dataset: predictor.is_some_and(|p| p.estimate_scope() == EstimateScope::Dataset),
            groups: Vec::new(),
        }
    }
}

/// `round(max(0, total − generated))` — the remaining output the monitor
/// prices — from the member's cached `round(total)`. Exact for every
/// `total` in `[0, 2⁵²)`: `total − generated` is then computed without
/// rounding error, and rounding half away from zero commutes with
/// subtracting an integer, so `round(max(0, T − g)) == max(0, round(T) − g)`.
/// That lets each token move the sum in O(1) instead of asking the
/// predictor again.
pub(super) fn remaining_tokens(rounded_total: u64, generated: u32) -> u64 {
    rounded_total.saturating_sub(u64::from(generated))
}

/// `round(total)` of an estimate, saturating like the float-to-integer
/// cast the remaining-output formula ends in.
fn rounded_total(estimate: Option<LengthEstimate>) -> Option<u64> {
    estimate
        .and_then(|e| e.total_tokens())
        .map(|total| total.round() as u64)
}

impl Shard<'_> {
    /// Files a request whose state was just inserted into this shard's
    /// slab — an admitted arrival or a cross-shard/region landing — as a
    /// member of `instance`.
    pub(super) fn add_member(&mut self, handle: ReqHandle, instance: u32) {
        let slot = handle.index();
        if self.member_mon.len() <= slot {
            self.member_mon.resize(slot + 1, MemberMon::default());
        }
        self.member_mon[slot] = MemberMon::default();
        if self.estimates.tracking {
            let total = if self.estimates.per_dataset {
                let g = self.estimate_group(handle);
                let group = &mut self.estimates.groups[g];
                self.member_mon[slot].group = Some((g as u32, group.members.len() as u32));
                group.members.push(handle);
                group.total
            } else {
                rounded_total(self.estimate(&self.states[handle].spec))
            };
            self.member_mon[slot].predicted_total = total;
        }
        self.join_instance(handle, instance);
    }

    /// Unfiles a member whose state is about to leave this shard's slab:
    /// completion, stranding, or a cross-shard/region departure.
    pub(super) fn remove_member(&mut self, handle: ReqHandle) {
        self.leave_instance(handle);
        if let Some((g, at)) = self.member_mon[handle.index()].group.take() {
            let members = &mut self.estimates.groups[g as usize].members;
            members.swap_remove(at as usize);
            if let Some(&moved) = members.get(at as usize) {
                self.member_mon[moved.index()].group = Some((g, at));
            }
        }
    }

    /// Moves a member to another instance of this shard (a migration
    /// landing or a drain rebalance).
    pub(super) fn move_member(&mut self, handle: ReqHandle, to: u32) {
        self.leave_instance(handle);
        self.join_instance(handle, to);
    }

    /// Sets a member's KV location and re-files it.
    pub(super) fn set_kv_location(&mut self, handle: ReqHandle, location: KvLocation) {
        self.states[handle].kv_location = location;
        self.sync_member(handle);
    }

    /// Re-files a member after its phase, demotion, quanta, KV location,
    /// pacer or token count changed. Like every mutator it is a touch of
    /// any open steady run on the member's instance (see
    /// [`Shard::touch_run`]).
    pub(super) fn sync_member(&mut self, handle: ReqHandle) {
        self.touch_run(handle);
        let to = self.contribution(handle);
        self.apply(handle, &to);
        self.check_run(handle);
    }

    /// Before a mutator changes `handle`: a member of the open steady run
    /// on its instance closes the run, whose batch it is about to change
    /// mid-iteration. (At an iteration end the run takes a member whose
    /// edge is due out of the batch itself before its token is closed —
    /// see [`steady`](super::steady) — so the mutators that token runs
    /// find it idle.) A non-member leaves the run open for
    /// [`Shard::check_run`].
    fn touch_run(&mut self, handle: ReqHandle) {
        if self.in_run(handle) {
            self.catch_up(self.states[handle].instance, FullPathCause::ClosedAtTouch);
        }
    }

    /// After a mutator re-filed `handle`, a non-member of the open steady
    /// run on its instance (if one is open):
    ///
    /// * a pending reload is no longer pending: landed, it is a GPU
    ///   resident below;
    /// * a GPU resident — a landing, or a member an edge step took out of
    ///   the batch — becomes (or stays) a **joiner** the next launch is to
    ///   admit; a joiner that is neither resident nor a newcomer (it
    ///   completed or migrated away) is dropped;
    /// * a candidate keyed into the batch's key range would be admitted by
    ///   the next launch: a newcomer, whose prefill is still to run, joins
    ///   (the run pauses through its prefill), and any other is a
    ///   **stranger**, which leaves that launch to the run's planner walking
    ///   the desired set;
    /// * anything else may only let the first candidate outside the batch
    ///   fit.
    ///
    /// Joiners and the first candidate outside are settled by the caller's
    /// closing `try_schedule` ([`Shard::recheck_run`], or
    /// [`Shard::resume_run`] after an edge step).
    fn check_run(&mut self, handle: ReqHandle) {
        let st = &self.states[handle];
        let instance = st.instance;
        let rt = &mut self.instances[instance as usize];
        if !rt.steady.is_open() {
            return;
        }
        let m = &self.member_mon[handle.index()];
        let newcomer = st.kv_location == KvLocation::None && st.needs_prefill();
        // Launches left a pending reload out while it was in flight; from
        // its landing on it is a non-member like any other.
        rt.steady.take_pending(handle);
        if rt.steady.is_joiner(handle) {
            if !(m.resident || newcomer) {
                rt.steady.remove_joiner(handle);
            }
            rt.steady.mark_dirty();
            return;
        }
        if m.resident {
            rt.steady.add_joiner(handle);
            rt.steady.mark_dirty();
            return;
        }
        let last = rt
            .current_batch
            .last()
            .and_then(|&h| self.member_mon[h.index()].key);
        let in_range = m.key.is_some_and(|key| Some(key) < last);
        if in_range && newcomer {
            rt.steady.add_joiner(handle);
        } else if in_range {
            rt.steady.stranger_in_range();
        }
        rt.steady.mark_dirty();
    }

    /// Re-files `member` of an open steady run after its token at a kept
    /// quantum end: its candidate key and `r_i`/`a_i` counts move, its
    /// growth is already exact, and its pacer entry stays out of the list
    /// while the run lasts.
    pub(super) fn refile_run_member(&mut self, member: ReqHandle) {
        let mut to = self.contribution(member);
        to.pace_deadline = None;
        self.apply(member, &to);
    }

    /// Re-files a member after a token that moved nothing but its token
    /// count and (answering) pacer: the per-token path of
    /// [`Shard::sync_member`], which skips re-deriving and diffing the
    /// class, quanta and residency a plain token cannot change. A token
    /// moves the predicted growth by at most one block, exactly when the
    /// count reaches the next block boundary. On the backlog deployment
    /// (README, Performance) a full re-filing per token measured ≈1.3× the
    /// wall time per generated token of this path. Debug builds check the
    /// premise on every call.
    pub(super) fn file_token(&mut self, handle: ReqHandle) {
        #[cfg(debug_assertions)]
        self.assert_token_moves_only_growth_and_pace(handle);
        let st = &self.states[handle];
        let rt = &mut self.instances[st.instance as usize];
        if self.member_mon[handle.index()]
            .growth
            .on_token(st.tokens_generated, self.geometry.block_tokens)
        {
            rt.monitor.predicted_blocks -= 1;
        }
        if st.phase == Phase::Answering {
            rt.monitor
                .move_pacer(&mut self.member_mon, handle, st.answers.on_pace_until());
        }
    }

    #[cfg(debug_assertions)]
    fn assert_token_moves_only_growth_and_pace(&self, handle: ReqHandle) {
        let to = self.contribution(handle);
        let m = &self.member_mon[handle.index()];
        assert!(
            (m.reasoning, m.fresh_answering, m.resident, m.key)
                == (to.reasoning, to.fresh_answering, to.resident, to.key),
            "a token that moved a member's class, quanta or residency took the per-token path"
        );
    }

    /// Re-resolves every dataset group's estimate after the predictor
    /// learned, and re-sums the members of each group whose rounded total
    /// moved. A member of an open steady run is re-priced in place at its
    /// true token count ([`Shard::reprice_run_member`]): growth never
    /// changes the batch the planner picks, so the run stays open. A no-op
    /// when predicted growth is untracked or estimates are fixed per
    /// request.
    pub(super) fn refresh_estimates(&mut self) {
        if !(self.estimates.tracking && self.estimates.per_dataset) {
            return;
        }
        for g in 0..self.estimates.groups.len() {
            let total = rounded_total(self.estimate(&self.estimates.groups[g].probe));
            if total == self.estimates.groups[g].total {
                continue;
            }
            self.estimates.groups[g].total = total;
            let mut repriced = 0;
            for at in 0..self.estimates.groups[g].members.len() {
                let handle = self.estimates.groups[g].members[at];
                let st = &self.states[handle];
                let instance = st.instance as usize;
                if self.in_run(handle) {
                    self.reprice_run_member(handle, total);
                    repriced += 1;
                    continue;
                }
                let growth = Growth::at(total, st.tokens_generated, self.geometry.block_tokens);
                let m = &mut self.member_mon[handle.index()];
                let monitor = &mut self.instances[instance].monitor;
                monitor.predicted_blocks =
                    monitor.predicted_blocks - m.growth.blocks + growth.blocks;
                m.growth = growth;
                m.predicted_total = total;
            }
            let visited = self.estimates.groups[g].members.len() as u64;
            self.count_work(|w| {
                w.monitor_member_visits += visited;
                w.runs_kept += repriced;
            });
        }
    }

    /// The dataset group `handle`'s request belongs to, created (and its
    /// estimate resolved) on first sight.
    fn estimate_group(&mut self, handle: ReqHandle) -> usize {
        let spec = &self.states[handle].spec;
        if let Some(g) = self
            .estimates
            .groups
            .iter()
            .position(|g| g.probe.dataset_key() == spec.dataset_key())
        {
            return g;
        }
        let probe = spec.clone();
        let total = rounded_total(self.estimate(&probe));
        self.estimates.groups.push(EstimateGroup {
            probe,
            total,
            members: Vec::new(),
        });
        self.estimates.groups.len() - 1
    }

    fn join_instance(&mut self, handle: ReqHandle, instance: u32) {
        let id = {
            let st = &mut self.states[handle];
            st.instance = instance;
            st.spec.id
        };
        self.instances[instance as usize]
            .inst
            .members
            .insert(id, handle);
        self.sync_member(handle);
    }

    fn leave_instance(&mut self, handle: ReqHandle) {
        self.touch_run(handle);
        self.apply(handle, &Contribution::NONE);
        self.check_run(handle);
        let st = &self.states[handle];
        self.instances[st.instance as usize]
            .inst
            .members
            .remove(st.spec.id);
    }

    fn contribution(&self, handle: ReqHandle) -> Contribution {
        let st = &self.states[handle];
        let schedulable = !matches!(
            st.kv_location,
            KvLocation::Migrating | KvLocation::OffloadingToCpu
        );
        Contribution {
            reasoning: st.phase == Phase::Reasoning && !st.demoted,
            fresh_answering: st.phase == Phase::Answering && st.quanta_used == 0,
            resident: st.kv_location == KvLocation::Gpu,
            key: schedulable.then(|| self.policy.priority_key(st)),
            pace_deadline: st.answers.on_pace_until(),
            growth: Growth::at(
                self.member_mon[handle.index()].predicted_total,
                st.tokens_generated,
                self.geometry.block_tokens,
            ),
        }
    }

    /// Moves `handle`'s filed contribution to `to`, touching only what
    /// changed.
    fn apply(&mut self, handle: ReqHandle, to: &Contribution) {
        let slot = handle.index();
        let (id, instance) = {
            let st = &self.states[handle];
            (st.spec.id, st.instance as usize)
        };
        let rt = &mut self.instances[instance];
        let m = &mut self.member_mon[slot];
        if m.reasoning != to.reasoning {
            if to.reasoning {
                rt.monitor.reasoning += 1;
            } else {
                rt.monitor.reasoning -= 1;
            }
            m.reasoning = to.reasoning;
        }
        if m.fresh_answering != to.fresh_answering {
            if to.fresh_answering {
                rt.monitor.fresh_answering += 1;
            } else {
                rt.monitor.fresh_answering -= 1;
            }
            m.fresh_answering = to.fresh_answering;
        }
        rt.monitor.predicted_blocks =
            rt.monitor.predicted_blocks - m.growth.blocks + to.growth.blocks;
        m.growth = to.growth;
        if m.resident != to.resident {
            if to.resident {
                rt.residents.insert(id, handle);
            } else {
                rt.residents.remove(id);
            }
            m.resident = to.resident;
        }
        let rekeyed = m.key != to.key;
        if rekeyed {
            if let Some(key) = m.key {
                rt.cands.remove(&key);
            }
            if let Some(key) = to.key {
                rt.cands.insert(key, handle);
            }
            m.key = to.key;
        }
        rt.monitor
            .move_pacer(&mut self.member_mon, handle, to.pace_deadline);
        if rekeyed {
            self.count_work(|w| w.sched_member_scans += 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::remaining_tokens;
    use proptest::prelude::*;

    proptest! {
        /// The identity the O(1) per-token update rests on: rounding the
        /// clamped float remainder equals clamping the integer remainder of
        /// the rounded total, for every total the predictors can produce.
        #[test]
        fn prop_rounded_remainder_identity(
            whole in 0u64..(1u64 << 40),
            frac in 0.0f64..1.0,
            generated in 0u32..u32::MAX,
            near in any::<bool>(),
        ) {
            let total = whole as f64 + frac;
            // Half the cases put `generated` right around the total, where
            // the clamp and the rounding interact.
            let generated = if near {
                (whole.min(u64::from(u32::MAX - 2)) as u32).saturating_add(generated % 3)
            } else {
                generated
            };
            let float = (total - f64::from(generated)).max(0.0).round() as u64;
            prop_assert_eq!(float, remaining_tokens(total.round() as u64, generated));
        }
    }

    #[test]
    fn rounded_remainder_identity_at_half_way_points() {
        for (total, generated, expected) in [
            (2.5, 1, 2),
            (2.5, 2, 1),
            (2.5, 3, 0),
            (0.5, 0, 1),
            (0.5, 1, 0),
            (0.49, 0, 0),
            (1_000.0, 999, 1),
        ] {
            let float = (total - f64::from(generated)).max(0.0).round() as u64;
            assert_eq!(float, expected, "float side at {total} - {generated}");
            assert_eq!(
                remaining_tokens(total.round() as u64, generated),
                expected,
                "cached side at {total} - {generated}"
            );
        }
    }
}
