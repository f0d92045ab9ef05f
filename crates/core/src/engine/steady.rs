//! Steady decode runs: batch iterations replayed in closed form.
//!
//! A reasoning request decodes for thousands of iterations inside one
//! continuous batch (§II-B), and almost every iteration changes nothing
//! but token counts: the next scheduling pass picks the same batch, and
//! every member only gains a token. The full path — emit a token per
//! member, walk the candidates, admit, relaunch — still visits every
//! member. A **steady run** skips those visits.
//!
//! When the full path launches a decode batch with no member holding more
//! blocks than it needs, it opens a run over that batch — the instance's
//! whole desired set, or a **partial** launch that left desired members out
//! to wait: a member whose reload is in flight is **pending**, and every
//! launch of the run leaves it out until it lands; a resident whose growth
//! the pool refused (its blocks held by an offload this launch started), or
//! a newcomer whose prefill it refused, is a joiner, which a later launch
//! admits once the pool grants it; a reload or warm request the pool
//! refused leaves the run's next launch to the planner (below).
//! Each member is **filed** into the run at a run iteration, its
//! **sync step** (0 at the opening launch), which keys everything the run
//! keeps about it by quantities that stay fixed while it runs:
//!
//! * per residue of the iteration count mod `block_tokens`, the members
//!   whose next-iteration KV need crosses into a new block, and the members
//!   whose predicted growth drops a block at that step;
//! * a min-heap of **marks** keyed by iteration: each member's next
//!   quantum end, its next **member edge** — completion, its phase
//!   boundary, its first answering token, the demotion threshold plus one
//!   (and a pending demotion), or its first token — and the iteration at
//!   which its predicted growth reaches zero, where its drop residue
//!   **retires**;
//! * its pacer deadline minus `sync · target_tpot` (answering members,
//!   whose own entries leave the instance's pacer list while they run), so
//!   the run's earliest deadline is the least key plus `steps · tpot`;
//! * the batch's context sum and the blocks it holds.
//!
//! The run ends at its **stall edge**: a token that could stall a reader
//! (the first one when it would, or any after a step longer than
//! `target_tpot` while a member answers). The full path handles it.
//!
//! Every later `IterationDone` of the run with no mark due is a **steady
//! step**: one pool allocation for that residue's crossings, the residue's
//! growth drops off the monitor's predicted sum, the run's pacer deadline
//! one `target_tpot` later, and the next `IterationDone` scheduled at the
//! time the full path would pick, `now + decode_step_time(n, context +
//! n)`. Nothing else happens in a steady iteration — no trace event, no
//! other queued event — so the event sequence, and every output byte, is
//! the full path's.
//!
//! Members lag the run: each owes it `steps − sync` tokens. **Catching
//! up** a member applies those tokens in closed form — token and quantum
//! counts, executed time, the answer stream's stall curve, predicted
//! growth and held blocks — so one member can be read without touching the
//! others.
//!
//! The run **survives** every change after which the full path would
//! relaunch its batch, or that batch with members gone or joined, in key
//! order at the same instant:
//!
//! * a **quantum end** whose new priority key still sorts before the first
//!   candidate outside the batch: the member alone is caught up, closes its
//!   token through the full path's per-token code, is re-keyed and moves to
//!   its new place in the batch;
//! * predicted growth **reaching zero**: its residue retires;
//! * a **predictor refresh** that moves the estimate of a run member's
//!   dataset: the member is caught up and re-priced in place;
//! * a **member edge**: at that step the due members, in batch order,
//!   leave the run — each caught up alone and unfiled — and send their
//!   token through the full path's per-token code ([`Shard::emit_token`]):
//!   trace events, completion, the phase transition with Algorithm 2 and
//!   its migration or escape, the demotion and its predictor refresh. The
//!   other members keep lagging. Where the full path would call
//!   `try_schedule` (after escapes drain and, in a federation, escalate),
//!   every due member still GPU-resident **rejoins** and the run survives
//!   when the next launch would be the remaining batch plus the rejoiners,
//!   in key order ([`Shard::resume_run`]);
//! * a **landing** (an intra-shard migration, a cross-shard or cross-region
//!   landing, a reload) whose request the next launch would admit at its
//!   key position with nobody evicted and no other candidate entering: it
//!   **joins** the run at the next step — `begin_running`, the migration
//!   resume stamp, and its residues and marks filed at the run's step;
//! * a change to a **non-member** (an arrival, an offload, a departure)
//!   that leaves it outside the batch's key range, when at the run's next
//!   iteration the first candidate outside the batch still cannot enter:
//!   the batch is at `max_batch`, or its blocks plus the candidate's need
//!   exceed `capacity − dying_blocks`;
//! * a **newcomer** — a request whose prefill is still to run — that the
//!   next launch would admit (an arrival sorting into the batch's key
//!   range, or a waiting candidate an offload, a departure or an edge
//!   makes room for), when nobody would be evicted: it is a joiner, and at
//!   the run's next iteration end, after the step's tokens and edges, the
//!   launch the full path's planner would pick is its **prefill** — the
//!   newcomers in key order, up to the prefill token budget. The run
//!   **pauses** through it ([`Shard::pause_run`]): no step, no token, no
//!   pace advance. The blocks the batch crosses into, the resident joiners'
//!   growth and the prefills' blocks are all granted at that launch, where
//!   the full path's admission pass grants them, or the run closes. At the
//!   prefill's end each newcomer's first token closes through
//!   [`Shard::emit_token`] ([`Shard::end_pause`]), and the next launch is
//!   decided as after an edge step: another prefill, or the relaunch with
//!   the newcomers joined at their key positions. Every member's first
//!   token after a pause comes a prefill later than its last one; when an
//!   answering member's pacer deadline falls before that step ends, the
//!   step is the run's stall edge, and its end takes the full path;
//! * any other **launch** the full path's planner would make. An O(1)
//!   check ([`Shard::launch_admits`]) keeps the relaunch of the batch plus
//!   its joiners, or their prefill, when it is that launch: at most
//!   `max_batch` desired members (pending reloads counted), no resident
//!   left out (it would be evicted), every joiner and pending reload
//!   sorting before the first candidate outside, within `capacity −
//!   dying_blocks`, and the pool granting everything the launch grants at
//!   once. Where it refuses — a quantum end or an edge that lets an outside
//!   candidate overtake or enter, a non-member sorting into the batch's key
//!   range that is no newcomer, a reload or warm request to start, an
//!   eviction, a grant the pool cannot make in full, a refused crossing —
//!   the step is an **edge step**, with no member edge if none is due, and
//!   the run **plans** its next launch ([`Shard::replan_run`]): the launch
//!   the full path's planner would make over its state read through each
//!   member's owed tokens, found without walking the batch. The batch's
//!   need is the run's held blocks plus the step's crossings; the joiners
//!   and pending reloads sorting among its keys add theirs, and the
//!   candidates walked forward from the first one outside the batch enter
//!   while the budget and `max_batch` allow — or, when the batch's keys
//!   alone overshoot them, the cut is found walking back from the batch's
//!   tail. The members past the cut are evicted: they leave the run
//!   through their latest token and are offloaded in ascending request id.
//!   The pool then grants, in key order, only the step's **crossers** (each
//!   residue lists its crossing members) merged with the desired
//!   non-members: a member refused its growth leaves to wait as a joiner,
//!   reloads start and their requests are pending, prefills and warm
//!   requests are admitted, and the run goes on over the decode batch
//!   launched — or pauses through the prefill launched, whoever it
//!   evicted. Where the run cannot vouch for its key range — a
//!   **stranger**, a candidate none of its members, joiners and pending
//!   reloads, may sort among the batch's keys (a non-member that changed
//!   there, or a reload or warm request the latest launch refused), or a
//!   GPU resident is none of its members and joiners — the launch walks
//!   the desired set with the full path's planner steps instead
//!   ([`Shard::desired_prefix`], [`Shard::evict_undesired`],
//!   [`Shard::admit_desired`]), a counted planner fallback.
//!
//! A run **closes**, catching up every member, only at its stall edge, at
//! a member edge whose Algorithm 2 sweep would read a pacer deadline of the
//! run already due, on a draining or down instance, at a fleet transition
//! (which touches every member), when a planned launch leaves no member to
//! replay or a desired non-member holds more blocks than it needs. The
//! closing iteration, and the next one, take the full path. A run closed
//! while it waits through a prefill leaves its members idle with their
//! latest token and granted blocks, and the prefill in flight as the
//! instance's batch, as the full path would have.
//!
//! At an edge step the full path emits tokens in batch order, so a due
//! member sees the members before it with this step's token and those
//! after it without. The run reproduces that view: the members sorting
//! before the one being handled count one more owed token, their growth
//! drops at this step are taken off the predicted sum first (each residue
//! keeps its drop members, not just their count), and the step's crossings
//! are allocated only after every edge, where `try_schedule` would
//! allocate them.
//!
//! Debug builds check the closed form against the full path: every
//! catch-up replays the member's owed iterations token by token through
//! the per-token code on a clone ([`close_token`], the growth update of
//! `file_token`, the admission's block grant and `begin_running`) and
//! asserts the results equal, every mid-step monitor row is checked against
//! the from-scratch reference (which reads each member's owed tokens at its
//! batch position), and every steady step, kept touch, kept edge and join
//! runs the planner's desired-prefix walk read-only, over the tokens the
//! run owes each member, and asserts it yields the run's batch in order
//! (and, at a step, its crossing count). The walk counts pending reloads
//! among the desired and, while the run waits through a prefill, gives the
//! members no token and their granted blocks and each newcomer in the
//! prefill its first token. Every launch the run plans without the walk is
//! checked against the walk's result, computed read-only before the launch
//! acts: the desired set with each candidate's need, the evictees, every
//! grant and refusal in key order (the members refused their growth, the
//! reloads started, the prefill), and the batch it launches, in order.
//! Every planned launch's batch is checked for its block and context
//! totals against each member's owed tokens, and the members it evicts or
//! refuses are replayed token by token like any other catch-up.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::Bound;

use pascal_cluster::{KvLocation, ReqHandle};
use pascal_model::DecodeBatch;
use pascal_sched::PriorityKey;
use pascal_sim::{SimDuration, SimTime};
use pascal_telemetry::FullPathCause;
use pascal_workload::Phase;

#[cfg(debug_assertions)]
use super::lifecycle::Admission;
use super::lifecycle::{close_token, Prefix, TokenEdges};
use super::members::{Growth, MemberMon};
use super::{Event, IterationKind, ScheduleScratch, Shard};

/// An instance's steady run. Kept (closed) between runs so its residue
/// table's, heaps' and lists' allocations are reused: the run state is
/// O(`block_tokens` + batch) per instance.
#[derive(Default)]
pub(crate) struct SteadyRun {
    /// Whether a run is open: the instance's in-flight batch is its
    /// members, and their states lag the run by `steps − sync` tokens.
    open: bool,
    /// Iterations replayed since the launch that opened the run.
    steps: u32,
    /// The iteration, counting from the opening launch, whose token could
    /// stall a reader; the full path handles it.
    edge: u32,
    /// Members in their answering phase.
    answering: u32,
    /// Context tokens of the batch at the latest launch.
    context: u64,
    /// GPU blocks the batch holds after the latest launch.
    held: u64,
    /// Whether a non-member changed since the batch was last checked
    /// against the first candidate outside it (set and settled within one
    /// event).
    dirty: bool,
    /// The latest iteration end replayed: a member's segment start, once
    /// caught up.
    last: SimTime,
    /// The iteration end before `last`.
    prev_last: SimTime,
    /// Indexed by iteration mod `block_tokens`.
    residues: Vec<Residue>,
    /// Each member's earliest pending event — quantum end, member edge or
    /// growth retirement — earliest first. An entry whose member's earliest
    /// event moved, or that left the run, is skipped when it comes due.
    marks: BinaryHeap<Reverse<Mark>>,
    /// The earliest mark's iteration (`u32::MAX` without one), so a step
    /// with no mark due reads no heap memory.
    next_mark: u32,
    /// What is due at the step being replayed (reused buffer).
    due: Vec<Due>,
    /// `deadline − sync · tpot` of every answering member with a pacer
    /// deadline; entries of members that left are dropped when they reach
    /// the top.
    pace: BinaryHeap<Reverse<PaceEntry>>,
    /// The last pacer filing's number: a member's filed number tells its
    /// current heap entry from ones it left behind.
    pace_filings: u32,
    /// Non-members the run's next launch is to admit: landings, the
    /// members an edge step took out to handle their token, residents
    /// whose growth the pool refused at the opening launch, and newcomers
    /// that need their prefill first.
    joiners: Vec<Joiner>,
    /// Desired non-members whose reload is in flight: every launch leaves
    /// them out until the reload lands and they join.
    pending: Vec<ReqHandle>,
    /// Whether the run's next launch is one only the full path's planner
    /// can make ([`Shard::replan_run`]): a desired non-member the pool
    /// refused its reload or warm materialization, a non-member sorting
    /// into the batch's key range that is no newcomer, or a candidate
    /// outside that would enter and is none. The run's next iteration end
    /// is an edge step.
    replan: bool,
    /// Whether a candidate sorting among the batch's keys may be none of
    /// its members, joiners and pending reloads (one that changed since the
    /// latest launch, or a reload or warm request that launch refused): the
    /// run cannot vouch for its key range, and its next planned launch
    /// walks the desired set ([`Shard::replan_run`]).
    stranger: bool,
    /// While the run is paused: the prefill batch in flight, in launch
    /// order. The members wait through it, their latest token closed and
    /// the blocks of their next launch granted.
    prefill: Vec<ReqHandle>,
    /// Whether the blocks the batch crosses into at its next launch were
    /// granted at a prefill launch (set at a pause, cleared at the
    /// relaunch).
    granted: bool,
    /// While an edge step handles a member whose phase boundary reads the
    /// instance monitor: its key. Members sorting before it already count
    /// this step's token.
    split: Option<PriorityKey>,
    /// While an edge step handles a due member: its key, whether or not
    /// the member reads the monitor. The debug reference rows read the
    /// full path's batch-order view from it, independently of `split`.
    #[cfg(debug_assertions)]
    handling: Option<PriorityKey>,
    /// Whether an edge step ended the iteration and the next launch is
    /// still to be decided ([`Shard::resume_run`]).
    resuming: bool,
    /// The due members of an edge step: key, handle, whether it is at an
    /// edge rather than only a quantum end (reused buffer).
    due_members: Vec<(PriorityKey, ReqHandle, bool)>,
    /// Member edges and quantum ends the step being resumed handled.
    step_edges: u64,
    step_quanta: u64,
    /// The end of every replayed iteration, for the debug replay.
    #[cfg(debug_assertions)]
    step_times: Vec<SimTime>,
    /// Why the instance's next iteration end takes the full path, when
    /// it does: its launch opened no run, or the run closed or refused
    /// the step.
    cause: FullPathCause,
}

/// One residue of the iteration count mod `block_tokens`: the members
/// whose block need grows by one at that iteration's launch (its
/// **crossers**), and the members whose predicted growth drops a block at
/// its token.
#[derive(Default)]
struct Residue {
    crossers: Vec<ReqHandle>,
    drops: Vec<ReqHandle>,
}

/// A non-member the run's next launch admits.
#[derive(Clone, Copy)]
pub(crate) struct Joiner {
    member: ReqHandle,
    /// Whether an edge step took it out of the batch (else it landed, was
    /// refused its growth, or is a newcomer).
    left: bool,
}

/// What the full path would make of a run's next launch.
enum Launch {
    /// The run batch plus its joiners, granting this many blocks.
    Admits(u64),
    /// The first candidate outside enters it, a newcomer whose prefill
    /// the launch would start.
    Enters(ReqHandle),
    /// Something else: the run closes.
    Refused,
}

/// Where [`Shard::cut_launch`] cut a planned launch: the desired set is
/// the run batch's members keyed up to `last` and the desired non-members
/// it listed.
struct Cut {
    /// The last desired key.
    last: Option<PriorityKey>,
    /// Whether a desired non-member holds more blocks than it needs.
    excess: bool,
}

/// How a planned launch found its desired set.
enum Planned {
    /// Cut without walking the batch.
    Cut(Cut),
    /// Walked by [`Shard::desired_prefix`]: the run could not vouch for
    /// its key range.
    Walked(Prefix),
}

/// The launch the full path's planner walk would make where a steady run
/// plans its own ([`Shard::walk_plan`], debug builds).
#[cfg(debug_assertions)]
#[derive(Default)]
struct WalkedPlan {
    /// The desired set with each candidate's need, in key order.
    desired: Vec<(ReqHandle, u64)>,
    /// Whether a desired candidate holds more blocks than it needs.
    excess: bool,
    /// The GPU residents outside it, in ascending request id.
    evictees: Vec<ReqHandle>,
    /// Each desired candidate's admission, in key order, but for the run
    /// members that run without a grant.
    admitted: Vec<(ReqHandle, Admission)>,
    /// The prefill batch.
    prefill: Vec<ReqHandle>,
    /// The runnable desired candidates in key order, and the run members
    /// among them.
    decode: Vec<ReqHandle>,
    members: Vec<ReqHandle>,
    /// The decode batch's context.
    context: u64,
}

/// What [`Shard::steady_step`] made of an iteration end.
pub(super) enum Step {
    /// Replayed in closed form; the next iteration is scheduled.
    Replayed,
    /// Member edges or joins handled inside the run: the caller drains
    /// escapes and then calls `try_schedule`, which decides the next launch.
    Resuming,
    /// The full path must handle it.
    Full,
}

impl SteadyRun {
    /// Whether a run is open.
    pub(super) fn is_open(&self) -> bool {
        self.open
    }

    /// Whether an edge step ended the iteration and the run's next launch
    /// is still to be decided.
    pub(super) fn is_resuming(&self) -> bool {
        self.open && self.resuming
    }

    /// Records that a non-member changed: [`Shard::recheck_run`] checks
    /// again whether the first candidate outside the batch can enter.
    pub(super) fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// Why the instance's next iteration end takes the full path, when it
    /// does.
    pub(super) fn cause(&self) -> FullPathCause {
        self.cause
    }

    /// Iterations replayed since the launch that opened the run.
    #[cfg(test)]
    pub(super) fn steps(&self) -> u32 {
        self.steps
    }

    /// Whether `handle` is a pending joiner.
    pub(super) fn is_joiner(&self, handle: ReqHandle) -> bool {
        self.joiners.iter().any(|j| j.member == handle)
    }

    /// Files a resident non-member for the next launch.
    pub(super) fn add_joiner(&mut self, handle: ReqHandle) {
        self.joiners.push(Joiner {
            member: handle,
            left: false,
        });
    }

    /// Drops a pending joiner that can no longer join.
    pub(super) fn remove_joiner(&mut self, handle: ReqHandle) {
        self.joiners.retain(|j| j.member != handle);
    }

    /// Records that a candidate none of the run's members, joiners and
    /// pending reloads sorts among the batch's keys: the run's next launch
    /// is one only the full path's planner can make, walking the desired
    /// set.
    pub(super) fn stranger_in_range(&mut self) {
        self.replan = true;
        self.stranger = true;
    }

    /// Grants the batch `blocks` more, for a member the planner grew.
    pub(super) fn grow(&mut self, blocks: u64) {
        self.held += blocks;
    }

    /// Whether `handle` waits as a joiner an edge step took out of the
    /// batch.
    fn left_at_edge(&self, handle: ReqHandle) -> bool {
        self.joiners.iter().any(|j| j.member == handle && j.left)
    }

    /// Forgets the members the run was waiting for (at its close, or at
    /// an opening launch that left nobody out).
    fn clear_waiting(&mut self) {
        self.joiners.clear();
        self.pending.clear();
        self.replan = false;
        self.stranger = false;
    }

    /// Takes `handle` off the members whose reload is in flight.
    pub(super) fn take_pending(&mut self, handle: ReqHandle) {
        self.pending.retain(|&h| h != handle);
    }

    /// Whether the run waits through a prefill launch.
    pub(super) fn is_paused(&self) -> bool {
        !self.prefill.is_empty()
    }

    /// Whether `handle` is in the prefill batch the run waits through: it
    /// runs, but not as a member.
    pub(super) fn is_prefilling(&self, handle: ReqHandle) -> bool {
        self.prefill.contains(&handle)
    }

    /// The blocks the batch crosses into at the launch after iteration
    /// `step`: none when a prefill launch already granted them.
    fn batch_crossing(&self, step: u32, block_tokens: u64) -> u64 {
        if self.granted {
            0
        } else {
            self.residues[(u64::from(step) % block_tokens) as usize]
                .crossers
                .len() as u64
        }
    }

    /// Files `member`'s earliest event at `step` unless it falls at or past
    /// the stall edge, where it would never come due: the full path handles
    /// that iteration and closes the run.
    fn push_mark(&mut self, step: u32, member: ReqHandle) {
        if step < self.edge {
            self.next_mark = self.next_mark.min(step);
            self.marks.push(Reverse(Mark { step, member }));
        }
    }
}

/// A run member's earliest pending event, at a run iteration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Mark {
    step: u32,
    member: ReqHandle,
}

impl Ord for Mark {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.step, self.member.index()).cmp(&(other.step, other.member.index()))
    }
}

impl PartialOrd for Mark {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// What is due to one run member at the step being replayed.
#[derive(Clone, Copy, Debug)]
struct Due {
    member: ReqHandle,
    /// Its token reaches an edge of its lifecycle.
    edge: bool,
    /// Its token ends its quantum.
    quantum_end: bool,
    /// Its predicted growth reaches zero: its drop residue retires.
    retire: bool,
}

/// The run iteration of `m`'s earliest pending event.
fn next_event(m: &MemberMon) -> u32 {
    m.edge.min(m.quantum_end).min(m.retire)
}

/// A member's pacer deadline minus `sync · tpot`: fixed while it runs.
#[derive(Clone, Copy, PartialEq, Eq)]
struct PaceEntry {
    key: i128,
    member: ReqHandle,
    /// The run's filing number when it was filed.
    filing: u32,
}

impl Ord for PaceEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.key, self.member.index(), self.filing).cmp(&(
            other.key,
            other.member.index(),
            other.filing,
        ))
    }
}

impl PartialOrd for PaceEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Removes `member` from one of a residue's lists: its crossers, or the
/// drops of a member with predicted growth.
fn unlist(list: &mut Vec<ReqHandle>, member: ReqHandle) {
    let at = list
        .iter()
        .position(|&h| h == member)
        .expect("a run member is listed in its residues");
    list.swap_remove(at);
}

impl Shard<'_> {
    /// Counts one full-path iteration, taken for `cause`.
    pub(super) fn count_full_path(&self, cause: FullPathCause) {
        self.count_work(|w| {
            w.full_path_iterations += 1;
            w.full_path_causes[cause.index()] += 1;
        });
    }

    /// Records that the launch just made on `instance` opened no run, for
    /// `cause`: its iteration end takes the full path.
    pub(super) fn no_run_at_launch(&mut self, instance: u32, cause: FullPathCause) {
        self.instances[instance as usize].steady.cause = cause;
    }

    /// Opens a steady run on `instance`, whose decode batch (of the
    /// `desired` set, holding exactly the blocks it needs) the full path
    /// just launched at `now` for `duration` over `context` tokens —
    /// unless its first token could stall a reader. The desired members
    /// the launch left out wait for the run's next launches
    /// ([`Shard::file_left_out`]).
    pub(super) fn open_steady_run(
        &mut self,
        instance: u32,
        now: SimTime,
        duration: SimDuration,
        context: u64,
        desired: &[(ReqHandle, u64)],
    ) {
        let i = instance as usize;
        let partial = desired.len() > self.instances[i].current_batch.len();
        self.instances[i].steady.clear_waiting();
        if partial {
            let last = desired
                .last()
                .and_then(|&(handle, _)| self.member_mon[handle.index()].key);
            self.file_left_out(instance, last, desired.iter().map(|&(handle, _)| handle));
        }
        let bt = self.geometry.block_tokens as usize;
        let next = now + duration;
        let run = &mut self.instances[i].steady;
        for residue in &mut run.residues {
            residue.crossers.clear();
            residue.drops.clear();
        }
        run.residues.resize_with(bt, Residue::default);
        // Filed in bulk: both heaps are built once the batch is filed.
        let mut marks = std::mem::take(&mut run.marks).into_vec();
        let mut pace = std::mem::take(&mut run.pace).into_vec();
        marks.clear();
        pace.clear();
        run.pace_filings = 0;
        run.next_mark = u32::MAX;
        run.answering = 0;
        run.edge = u32::MAX;
        run.held = 0;
        run.context = 0;
        run.steps = 0;
        let mut filed = 0;
        while filed < self.instances[i].current_batch.len() {
            let member = self.instances[i].current_batch[filed];
            filed += 1;
            let (mark, pacer) = self.file_run_member(instance, member, 0);
            marks.push(Reverse(mark));
            pace.extend(pacer.map(Reverse));
            let st = &self.states[member];
            if st.phase == Phase::Answering && st.answers.would_stall(next) {
                self.instances[i].steady.edge = 1;
                break;
            }
        }
        let rt = &mut self.instances[i];
        let run = &mut rt.steady;
        run.next_mark = marks.iter().map(|m| m.0.step).min().unwrap_or(u32::MAX);
        run.marks = BinaryHeap::from(marks);
        run.pace = BinaryHeap::from(pace);
        if run.answering > 0 && duration > self.config.target_tpot {
            run.edge = 1;
        }
        if rt.steady.edge <= 1 {
            // No run: the filed members' pacer entries go back.
            for &handle in &rt.current_batch[..filed] {
                let st = &self.states[handle];
                if st.phase == Phase::Answering {
                    rt.monitor
                        .move_pacer(&mut self.member_mon, handle, st.answers.on_pace_until());
                }
            }
            rt.steady.clear_waiting();
            rt.steady.cause = FullPathCause::StallRisk;
            return;
        }
        debug_assert_eq!(rt.steady.context, context, "the run's context sum");
        let run = &mut rt.steady;
        run.open = true;
        run.dirty = false;
        run.split = None;
        run.resuming = false;
        run.granted = false;
        run.last = now;
        run.prev_last = now;
        #[cfg(debug_assertions)]
        run.step_times.clear();
        self.refresh_pace(instance);
        if partial {
            self.count_work(|w| w.partial_runs += 1);
        }
    }

    /// Files the desired members the launch just made on `instance` left
    /// out, for a run to go on over the launched batch (the members of
    /// the run, and not the requests in a prefill it waits through): a
    /// member whose reload is in flight waits as pending, and a resident
    /// whose growth the pool refused, or a newcomer whose prefill it
    /// refused or left for a later launch, as a joiner, which a later
    /// launch admits once the pool grants it. A reload or warm request the
    /// pool refused leaves the next launch to the planner, and when it
    /// sorts among the batch's keys the run cannot vouch for them. The
    /// joiners still waiting keep their place; every other one is dropped.
    /// `desired` lists, in key order, every desired candidate the launch
    /// did not launch (launched ones are skipped), and `last` is the last
    /// desired key.
    fn file_left_out(
        &mut self,
        instance: u32,
        last: Option<PriorityKey>,
        desired: impl IntoIterator<Item = ReqHandle>,
    ) {
        let (states, member_mon) = (&self.states, &self.member_mon);
        let rt = &mut self.instances[instance as usize];
        let batch_last = rt
            .current_batch
            .last()
            .and_then(|&h| member_mon[h.index()].key);
        let SteadyRun {
            joiners,
            pending,
            prefill,
            replan,
            stranger,
            ..
        } = &mut rt.steady;
        let prefill: &Vec<ReqHandle> = prefill;
        let launched = |handle: ReqHandle| states[handle].running && !prefill.contains(&handle);
        let waits = |handle: ReqHandle| {
            let st = &states[handle];
            st.kv_location == KvLocation::Gpu
                || (st.kv_location == KvLocation::None && st.needs_prefill())
        };
        // A candidate is desired exactly when keyed no later than the last
        // desired key: the desired set is a key-order prefix.
        joiners.retain(|j| {
            let key = member_mon[j.member.index()].key;
            key.is_some() && key <= last && !launched(j.member) && waits(j.member)
        });
        pending.clear();
        *replan = false;
        *stranger = false;
        let mut visited = 0;
        for handle in desired {
            visited += 1;
            if launched(handle) {
                continue;
            }
            match states[handle].kv_location {
                KvLocation::ReloadingToGpu => pending.push(handle),
                _ if waits(handle) => {
                    if !joiners.iter().any(|j| j.member == handle) {
                        joiners.push(Joiner {
                            member: handle,
                            left: false,
                        });
                    }
                }
                _ => {
                    *replan = true;
                    *stranger |= member_mon[handle.index()].key < batch_last;
                }
            }
        }
        self.count_work(|w| w.planner_member_visits += visited);
    }

    /// Files `member`, whose state is exact, into `instance`'s run at
    /// iteration `sync`: its context and held blocks, its crossing and
    /// drop residues and its event steps, its entry leaving the instance's
    /// pacer list. Returns its earliest event — edge, quantum end or
    /// retirement — and its pacer key, for the caller to push (the run's
    /// heaps are built in bulk at open); its batch place is the caller's
    /// too.
    fn file_run_member(
        &mut self,
        instance: u32,
        member: ReqHandle,
        sync: u32,
    ) -> (Mark, Option<PaceEntry>) {
        let bt = u64::from(self.geometry.block_tokens);
        let st = &self.states[member];
        let rt = &mut self.instances[instance as usize];
        let run = &mut rt.steady;
        let m = &mut self.member_mon[member.index()];
        let s = u64::from(sync);
        let context = st.context_tokens();
        run.context += context;
        run.held += st.held_gpu_blocks;
        // The need `blocks_for_tokens(context + 1)` grows at the iteration
        // whose token brings the context to a multiple of `block_tokens`.
        run.residues[((s + bt - context % bt) % bt) as usize]
            .crossers
            .push(member);
        m.sync = sync;
        m.edge = sync.saturating_add(hard_edge(st, self.policy.demotion_threshold_tokens()));
        let quantum_end = sync.saturating_add(
            self.policy
                .quantum()
                .saturating_sub(st.tokens_in_quantum)
                .max(1),
        );
        m.quantum_end = if quantum_end < m.edge {
            quantum_end
        } else {
            u32::MAX
        };
        m.retire = u32::MAX;
        if m.growth.blocks > 0 {
            let first_drop = m.growth.drop_at - u64::from(st.tokens_generated);
            run.residues[((s + first_drop) % bt) as usize]
                .drops
                .push(member);
            // The last block drops when the count reaches the predicted
            // total.
            let zero = s + first_drop + (m.growth.blocks - 1) * bt;
            m.retire = u32::try_from(zero).unwrap_or(u32::MAX);
        }
        let mark = Mark {
            step: next_event(m),
            member,
        };
        m.pace_filing = 0;
        let mut pacer = None;
        if st.phase == Phase::Answering {
            run.answering += 1;
            if let Some(at) = st.answers.on_pace_until() {
                let tpot = i128::from(self.config.target_tpot.as_nanos());
                run.pace_filings += 1;
                m.pace_filing = run.pace_filings;
                pacer = Some(PaceEntry {
                    key: i128::from(at.as_nanos()) - i128::from(sync) * tpot,
                    member,
                    filing: run.pace_filings,
                });
            }
            rt.monitor.move_pacer(&mut self.member_mon, member, None);
        }
        (mark, pacer)
    }

    /// Takes `member`, caught up alone to the run's latest iteration, out
    /// of `instance`'s run ([`Shard::unfile_run_member`]); it stays
    /// running for the caller to close its token.
    fn detach_run_member(&mut self, instance: u32, member: ReqHandle) {
        self.sync_run_member(instance, member);
        self.count_work(|w| w.members_caught_up += 1);
        self.unfile_run_member(instance, member);
    }

    /// Takes `member` out of `instance`'s run while the run plans its next
    /// launch, as the full path finds it there: caught up through its
    /// latest token ([`Shard::close_member`]), then unfiled. The planner
    /// calls this for an evictee, before its offload, and for a member the
    /// pool refuses its growth, which then waits like any resident.
    pub(super) fn leave_run(&mut self, instance: u32, member: ReqHandle) {
        self.close_member(instance, member);
        self.count_work(|w| w.members_caught_up += 1);
        self.unfile_run_member(instance, member);
    }

    /// Takes `member`, whose state the caller brought up to the run's
    /// latest iteration, out of `instance`'s run: its context, held blocks,
    /// crossing and drop residues, marks, pacer key and batch place. Its
    /// pacer entry goes back into the instance's list.
    fn unfile_run_member(&mut self, instance: u32, member: ReqHandle) {
        let bt = u64::from(self.geometry.block_tokens);
        let st = &self.states[member];
        let rt = &mut self.instances[instance as usize];
        let run = &mut rt.steady;
        let m = &mut self.member_mon[member.index()];
        let s = u64::from(m.sync);
        run.context -= st.context_tokens();
        run.held -= st.held_gpu_blocks;
        unlist(
            &mut run.residues[((s + bt - st.context_tokens() % bt) % bt) as usize].crossers,
            member,
        );
        if m.growth.blocks > 0 {
            let first_drop = m.growth.drop_at - u64::from(st.tokens_generated);
            unlist(
                &mut run.residues[((s + first_drop) % bt) as usize].drops,
                member,
            );
        }
        m.edge = u32::MAX;
        m.quantum_end = u32::MAX;
        m.retire = u32::MAX;
        let paced = std::mem::take(&mut m.pace_filing) != 0;
        let at = rt
            .current_batch
            .iter()
            .position(|&h| h == member)
            .expect("a run member is in the batch");
        rt.current_batch.remove(at);
        if st.phase == Phase::Answering {
            run.answering -= 1;
            rt.monitor
                .move_pacer(&mut self.member_mon, member, st.answers.on_pace_until());
        }
        if paced {
            self.refresh_pace(instance);
        }
    }

    /// Sets the monitor's view of the run's earliest pacer deadline from
    /// its pacer keys, dropping the entries of members that left. An entry
    /// left behind with a later key than the earliest live one would stay
    /// for as long as the run lasts, so once the entries outnumber twice
    /// the answering members (plus 16) the heap is rebuilt from the live
    /// ones (amortized O(1) per filing).
    fn refresh_pace(&mut self, instance: u32) {
        let tpot = i128::from(self.config.target_tpot.as_nanos());
        let (states, member_mon) = (&self.states, &self.member_mon);
        let filed = |entry: &PaceEntry| {
            member_mon[entry.member.index()].pace_filing == entry.filing
                && states
                    .get(entry.member)
                    .is_some_and(|st| st.instance == instance && st.running)
        };
        let rt = &mut self.instances[instance as usize];
        let run = &mut rt.steady;
        if run.pace.len() > 2 * run.answering as usize + 16 {
            run.pace.retain(|Reverse(entry)| filed(entry));
        }
        while let Some(Reverse(entry)) = run.pace.peek() {
            if filed(entry) {
                break;
            }
            run.pace.pop();
        }
        rt.monitor.steady_pace = run.pace.peek().and_then(|&Reverse(entry)| {
            u64::try_from(entry.key + i128::from(run.steps) * tpot)
                .ok()
                .map(SimTime::from_nanos)
        });
    }

    /// Replays the iteration that just ended on `instance` in closed form,
    /// when it belongs to an open steady run before the run's stall edge,
    /// no member whose quantum ends there is overtaken by the first
    /// candidate outside the batch, the pool can grant the blocks its
    /// members cross into and nothing waits for the next launch; or handles
    /// the step inside the run as an edge step ([`Shard::member_edges`]):
    /// the member edges and joins due there, and a refused crossing or
    /// overtaken quantum end, after which the run plans its own next
    /// launch. A step it refuses closes the run before anything reads it,
    /// so the marks taken off its heap are not put back.
    pub(super) fn steady_step(&mut self, instance: u32, now: SimTime) -> Step {
        let i = instance as usize;
        let run = &self.instances[i].steady;
        // A paused run's prefill ends here: no member's token is due.
        if run.open && run.is_paused() {
            return self.end_pause(instance, now);
        }
        if !run.open || run.steps + 1 >= run.edge {
            if run.open {
                self.instances[i].steady.cause = FullPathCause::StallEdge;
            }
            return Step::Full;
        }
        debug_assert!(
            !run.dirty,
            "instance {instance}: a non-member change was never rechecked"
        );
        let step = run.steps + 1;
        let bt = u64::from(self.geometry.block_tokens);
        let residue = &run.residues[(u64::from(step) % bt) as usize];
        let (crossing, drops) = (residue.crossers.len() as u64, residue.drops.len() as u64);
        if run.next_mark == step || !run.joiners.is_empty() || run.replan {
            let mut due = std::mem::take(&mut self.instances[i].steady.due);
            due.clear();
            if self.instances[i].steady.next_mark == step {
                self.take_due(instance, step, &mut due);
            }
            let run = &self.instances[i].steady;
            let edges = !run.joiners.is_empty() || run.replan || due.iter().any(|d| d.edge);
            let outcome = if edges {
                self.member_edges(instance, step, now, &due, FullPathCause::Fleet)
            } else {
                match self.settle_quanta(instance, step, crossing, now, &due) {
                    None => Step::Replayed,
                    Some(refused) => self.member_edges(instance, step, now, &due, refused),
                }
            };
            self.instances[i].steady.due = due;
            if !matches!(outcome, Step::Replayed) {
                return outcome;
            }
        } else if !self.instances[i].inst.gpu.try_alloc(crossing) {
            return self.member_edges(instance, step, now, &[], FullPathCause::RefusedCrossing);
        }
        let tpot = self.config.target_tpot;
        let rt = &mut self.instances[i];
        let n = rt.current_batch.len() as u64;
        rt.monitor.predicted_blocks -= drops;
        rt.monitor.steady_pace = rt
            .monitor
            .steady_pace
            .and_then(|at| at.as_nanos().checked_add(tpot.as_nanos()))
            .map(SimTime::from_nanos);
        let run = &mut rt.steady;
        run.steps = step;
        run.prev_last = run.last;
        run.last = now;
        run.context += n;
        run.held += crossing;
        #[cfg(debug_assertions)]
        run.step_times.push(now);
        let duration = self.perf.decode_step_time(DecodeBatch {
            num_seqs: n as u32,
            total_context_tokens: run.context,
        });
        // Only a step longer than the reading pace can stall a reader.
        if run.answering > 0 && duration > tpot {
            run.edge = run.edge.min(step + 1);
        }
        #[cfg(debug_assertions)]
        self.assert_steady_plan(instance, Some(crossing));
        self.count_work(|w| {
            w.tokens += n;
            w.steady_iterations += 1;
        });
        self.queue
            .schedule(now + duration, Event::IterationDone { instance });
        Step::Replayed
    }

    /// Takes what is due at `step` into `due`, one entry per member,
    /// skipping entries a member left behind (its earliest event moved, or
    /// it is no longer in the run).
    fn take_due(&mut self, instance: u32, step: u32, due: &mut Vec<Due>) {
        let run = &mut self.instances[instance as usize].steady;
        while let Some(&Reverse(mark)) = run.marks.peek() {
            if mark.step != step {
                run.next_mark = mark.step;
                return;
            }
            run.marks.pop();
            let m = &self.member_mon[mark.member.index()];
            let live = next_event(m) == step
                && self
                    .states
                    .get(mark.member)
                    .is_some_and(|st| st.instance == instance && st.running);
            if live && due.last().is_none_or(|d| d.member != mark.member) {
                due.push(Due {
                    member: mark.member,
                    edge: m.edge == step,
                    quantum_end: m.quantum_end == step,
                    retire: m.retire == step,
                });
            }
        }
        run.next_mark = u32::MAX;
    }

    /// Files `member`'s next earliest event after what was due to it was
    /// settled.
    fn push_next_event(&mut self, instance: u32, member: ReqHandle) {
        let step = next_event(&self.member_mon[member.index()]);
        if step != u32::MAX {
            self.instances[instance as usize]
                .steady
                .push_mark(step, member);
        }
    }

    /// Settles a run a non-member change left to be checked — every
    /// caller that changes a non-member ends with `try_schedule` on its
    /// instance, which lands here while the run's iteration (or the
    /// prefill it waits through) is in flight. The run stays open. When its
    /// next launch would still be its batch plus its joiners in key order,
    /// its reloads in flight left out ([`Shard::next_launch`]), the first
    /// candidate outside still cannot enter, and it only grows from then
    /// on, so the candidate stays out. Otherwise the run's next iteration
    /// end is an edge step, after which it plans its launch.
    pub(super) fn recheck_run(&mut self, instance: u32) {
        let rt = &self.instances[instance as usize];
        if !(rt.steady.open && rt.steady.dirty) {
            return;
        }
        let bt = u64::from(self.geometry.block_tokens);
        let crossing = rt.steady.batch_crossing(rt.steady.steps + 1, bt);
        if self.next_launch(instance, crossing).is_none() {
            self.instances[instance as usize].steady.replan = true;
        }
        let run = &mut self.instances[instance as usize].steady;
        run.dirty = false;
        self.count_work(|w| w.runs_kept += 1);
        #[cfg(debug_assertions)]
        if !self.instances[instance as usize].steady.replan {
            self.assert_steady_plan(instance, None);
        }
    }

    /// [`Shard::launch_admits`] for `instance`'s next launch, whose batch
    /// crosses into `batch_crossing` more blocks: a candidate outside that
    /// would enter it with its prefill still to run is a newcomer, which
    /// joins the run's joiners (the launch then pauses the run for its
    /// prefill); any other closes the run. Returns the blocks a decode
    /// launch would grant.
    fn next_launch(&mut self, instance: u32, batch_crossing: u64) -> Option<u64> {
        loop {
            match self.launch_admits(instance, batch_crossing) {
                Launch::Admits(grant) => return Some(grant),
                Launch::Enters(newcomer) => self.instances[instance as usize]
                    .steady
                    .add_joiner(newcomer),
                Launch::Refused => return None,
            }
        }
    }

    /// Whether the launch after the in-flight iteration (or prefill) on
    /// `instance` relaunches its run batch plus its joiners, when the batch
    /// crosses into `batch_crossing` more blocks, exactly as the full
    /// path's planner would pick it: at most `max_batch` desired members
    /// (the reloads in flight counted), no GPU resident left out (it would
    /// be evicted), no joiner holding excess blocks, every joiner and
    /// pending reload sorting before the first candidate outside (so the
    /// launch is a key-order prefix of the candidates), within `capacity −
    /// dying_blocks`, and that candidate unable to enter — the batch is
    /// full or its blocks plus the candidate's need exceed the budget. A
    /// joiner in the prefill in flight is priced with its prefill token.
    fn launch_admits(&self, instance: u32, batch_crossing: u64) -> Launch {
        let rt = &self.instances[instance as usize];
        let run = &rt.steady;
        let max_batch = self.config.max_batch as usize;
        let n = rt.current_batch.len() + run.joiners.len() + run.pending.len();
        if run.replan || n == 0 || n > max_batch {
            return Launch::Refused;
        }
        let outside = self.first_outside(instance);
        let sorts_out = |key: Option<PriorityKey>| {
            outside.is_some_and(|(first, ..)| key.is_none_or(|k| k > first))
        };
        let mut grant = batch_crossing;
        let mut needs = run.held + batch_crossing;
        let mut residents = rt.current_batch.len();
        for joiner in &run.joiners {
            let st = &self.states[joiner.member];
            let tokens = st.tokens_needed_next() + u64::from(run.is_prefilling(joiner.member));
            let need = self.geometry.blocks_for_tokens(tokens);
            let key = self.member_mon[joiner.member.index()].key;
            if key.is_none() || st.held_gpu_blocks > need || sorts_out(key) {
                return Launch::Refused;
            }
            grant += need - st.held_gpu_blocks;
            needs += need;
            residents += usize::from(st.kv_location == KvLocation::Gpu);
        }
        for &reload in &run.pending {
            let st = &self.states[reload];
            if sorts_out(self.member_mon[reload.index()].key) {
                return Launch::Refused;
            }
            needs += self
                .geometry
                .blocks_for_tokens(st.tokens_needed_next())
                .max(st.held_gpu_blocks);
        }
        if rt.residents.len() != residents {
            return Launch::Refused;
        }
        let budget = rt
            .inst
            .gpu
            .capacity_blocks()
            .map(|c| c.saturating_sub(rt.dying_blocks));
        if budget.is_some_and(|b| needs > b) {
            return Launch::Refused;
        }
        match (outside, budget) {
            (Some(_), _) if n >= max_batch => {}
            (Some((_, need, _)), Some(b)) if needs + need > b => {}
            (Some((_, _, candidate)), _) => {
                let st = &self.states[candidate];
                return if st.kv_location == KvLocation::None && st.needs_prefill() {
                    Launch::Enters(candidate)
                } else {
                    Launch::Refused
                };
            }
            (None, _) => {}
        }
        Launch::Admits(grant)
    }

    /// The first candidate outside `instance`'s run batch, its joiners and
    /// its reloads in flight, with its key, block need and handle: every
    /// other such candidate sorts after it.
    fn first_outside(&self, instance: u32) -> Option<(PriorityKey, u64, ReqHandle)> {
        let rt = &self.instances[instance as usize];
        // Every other candidate sorts after the batch.
        let last = rt
            .current_batch
            .last()
            .and_then(|&h| self.member_mon[h.index()].key);
        let from = last.map_or(Bound::Unbounded, Bound::Excluded);
        rt.cands
            .range((from, Bound::Unbounded))
            .find(|&(_, &h)| !rt.steady.is_joiner(h) && !rt.steady.pending.contains(&h))
            .map(|(&key, &handle)| {
                let st = &self.states[handle];
                let need = self
                    .geometry
                    .blocks_for_tokens(st.tokens_needed_next())
                    .max(st.held_gpu_blocks);
                (key, need, handle)
            })
    }

    /// Whether a member whose quantum ends at this step (`due`) would sort
    /// after the first candidate outside the batch once re-keyed: the full
    /// path would then launch that candidate ahead of it.
    fn overtaken(&self, instance: u32, due: &[Due]) -> bool {
        let mut ends = due.iter().filter(|d| d.quantum_end).peekable();
        if ends.peek().is_none() {
            return false;
        }
        let Some((first_out, ..)) = self.first_outside(instance) else {
            return false;
        };
        ends.any(|d| self.policy.key_after_quantum(&self.states[d.member]) > first_out)
    }

    /// The marked form of a steady step with only quantum ends and
    /// retirements due: keeps the step when no member whose quantum ends
    /// there is overtaken and the pool grants the `crossing` blocks,
    /// settling everything due. Returns why it refused the step, if it did.
    fn settle_quanta(
        &mut self,
        instance: u32,
        step: u32,
        crossing: u64,
        now: SimTime,
        due: &[Due],
    ) -> Option<FullPathCause> {
        if self.overtaken(instance, due) {
            return Some(FullPathCause::OvertakenQuantum);
        }
        if !self.instances[instance as usize]
            .inst
            .gpu
            .try_alloc(crossing)
        {
            return Some(FullPathCause::RefusedCrossing);
        }
        for d in due {
            debug_assert!(!d.edge, "member edges take the edge step");
            if d.retire {
                self.settle_retire(instance, d.member, step);
            }
            if d.quantum_end {
                self.settle_quantum_end(instance, d.member, step, now);
            }
            self.push_next_event(instance, d.member);
            self.count_work(|w| w.runs_kept += 1);
        }
        None
    }

    /// `member`'s predicted growth reached zero at `step`: its drop residue
    /// retires (unless it was re-priced since).
    fn settle_retire(&mut self, instance: u32, member: ReqHandle, step: u32) {
        let m = &mut self.member_mon[member.index()];
        if m.retire != step {
            return; // re-priced since
        }
        m.retire = u32::MAX;
        unlist(
            &mut self.instances[instance as usize].steady.residues
                [(u64::from(step) % u64::from(self.geometry.block_tokens)) as usize]
                .drops,
            member,
        );
    }

    /// A kept quantum end: the member alone is caught up, closes its token
    /// on the full path's per-token code, is re-keyed and moves to its new
    /// place in the batch.
    fn settle_quantum_end(&mut self, instance: u32, member: ReqHandle, step: u32, now: SimTime) {
        self.sync_run_member(instance, member);
        self.count_work(|w| w.members_caught_up += 1);
        let st = &mut self.states[member];
        let edges = close_token(st, IterationKind::Decode, now, &self.policy);
        debug_assert_eq!(
            edges,
            TokenEdges {
                key_changed: true,
                ..TokenEdges::default()
            },
            "{}: a kept quantum end reached another edge",
            st.spec.id
        );
        st.held_gpu_blocks = self.geometry.blocks_for_tokens(st.tokens_needed_next());
        st.begin_running(now);
        let generated = st.tokens_generated;
        let m = &mut self.member_mon[member.index()];
        m.sync = step;
        m.growth = Growth::at(m.predicted_total, generated, self.geometry.block_tokens);
        let next = step.saturating_add(self.policy.quantum());
        m.quantum_end = if next < m.edge { next } else { u32::MAX };
        self.refile_run_member(member);
        let rt = &mut self.instances[instance as usize];
        let key = self.member_mon[member.index()].key;
        let batch = &mut rt.current_batch;
        let from = batch
            .iter()
            .position(|&h| h == member)
            .expect("a run member is in the batch");
        batch.remove(from);
        let to = batch.partition_point(|&h| self.member_mon[h.index()].key < key);
        batch.insert(to, member);
    }

    /// The edge form of a steady step: the members with an edge or quantum
    /// end due leave the run one at a time, in batch order, and send their
    /// token through the full path's per-token code while the others keep
    /// lagging; then the step closes for everyone and the instance waits,
    /// idle like after the full path's `finish_iteration`, for
    /// [`Shard::resume_run`]. A step with nothing due but a launch to plan
    /// (a refused crossing, an overtaken quantum end, members waiting) is
    /// an edge step with no member edge. Declines (the full path takes the
    /// step, counted under `declined`) on a draining or down instance, and
    /// when a phase boundary's Algorithm 2 sweep would read a pacer deadline
    /// of the run already due at `now`, whose `t_i` would then depend on
    /// batch order.
    fn member_edges(
        &mut self,
        instance: u32,
        step: u32,
        now: SimTime,
        due: &[Due],
        declined: FullPathCause,
    ) -> Step {
        let i = instance as usize;
        if self.health[i] != crate::fleet::HealthState::Healthy {
            self.instances[i].steady.cause = declined;
            return Step::Full;
        }
        let mut members = std::mem::take(&mut self.instances[i].steady.due_members);
        members.clear();
        for d in due.iter().filter(|d| d.edge || d.quantum_end) {
            let key = self.member_mon[d.member.index()].key;
            members.push((key.expect("a run member is filed"), d.member, d.edge));
        }
        members.sort_unstable_by_key(|e| e.0);
        let reads_pace = members
            .iter()
            .any(|&(_, member, edge)| edge && self.at_phase_boundary(member));
        if reads_pace
            && self.instances[i]
                .monitor
                .steady_pace
                .is_some_and(|at| at <= now)
        {
            let run = &mut self.instances[i].steady;
            run.due_members = members;
            run.cause = FullPathCause::StallEdge;
            return Step::Full;
        }
        let residue = (u64::from(step) % u64::from(self.geometry.block_tokens)) as usize;
        let run = &mut self.instances[i].steady;
        run.step_edges = 0;
        run.step_quanta = 0;
        let mut from = None;
        for &(key, member, edge) in &members {
            // Only a phase boundary's sweep reads the predicted sum while
            // members are handled: there, the drops of the members sorting
            // before it are due first.
            if reads_pace {
                let drops = self.drops_between(instance, residue, from, Some(key));
                let rt = &mut self.instances[i];
                rt.monitor.predicted_blocks -= drops;
                rt.steady.split = Some(key);
                from = Some(key);
            }
            let run = &mut self.instances[i].steady;
            #[cfg(debug_assertions)]
            {
                run.handling = Some(key);
            }
            if edge {
                run.step_edges += 1;
            } else {
                run.step_quanta += 1;
            }
            self.detach_run_member(instance, member);
            self.instances[i]
                .steady
                .joiners
                .push(Joiner { member, left: true });
            self.emit_token(member, IterationKind::Decode, now);
        }
        let drops = if reads_pace {
            self.drops_between(instance, residue, from, None)
        } else {
            self.instances[i].steady.residues[residue].drops.len() as u64
        };
        let rt = &mut self.instances[i];
        rt.monitor.predicted_blocks -= drops;
        rt.steady.split = None;
        #[cfg(debug_assertions)]
        {
            rt.steady.handling = None;
        }
        // A predictor refresh above may have re-priced a member behind the
        // edges to retire at this very step.
        let mut late = Vec::new();
        if self.instances[i].steady.next_mark == step {
            self.take_due(instance, step, &mut late);
        }
        for d in due.iter().chain(&late) {
            if d.retire && !(d.edge || d.quantum_end) {
                self.settle_retire(instance, d.member, step);
                self.push_next_event(instance, d.member);
                self.count_work(|w| w.runs_kept += 1);
            }
        }
        let tpot = self.config.target_tpot;
        let rt = &mut self.instances[i];
        let n = rt.current_batch.len() as u64;
        rt.monitor.steady_pace = rt
            .monitor
            .steady_pace
            .and_then(|at| at.as_nanos().checked_add(tpot.as_nanos()))
            .map(SimTime::from_nanos);
        let run = &mut rt.steady;
        run.steps = step;
        run.prev_last = run.last;
        run.last = now;
        run.context += n;
        run.resuming = true;
        #[cfg(debug_assertions)]
        run.step_times.push(now);
        rt.inst.compute_busy = false;
        let tokens = n + members.len() as u64;
        self.instances[i].steady.due_members = members;
        self.count_work(|w| w.tokens += tokens);
        Step::Resuming
    }

    /// Whether `member`'s token at the step being replayed is its phase
    /// boundary.
    fn at_phase_boundary(&self, member: ReqHandle) -> bool {
        let st = &self.states[member];
        let g = st.tokens_generated + self.run_owed(member);
        st.phase == Phase::Reasoning
            && st.spec.answering_tokens > 0
            && g + 1 == st.spec.reasoning_tokens
    }

    /// The growth drops due at the step with `residue` from run members
    /// whose key lies strictly between `from` and `to` (unbounded where
    /// `None`).
    fn drops_between(
        &self,
        instance: u32,
        residue: usize,
        from: Option<PriorityKey>,
        to: Option<PriorityKey>,
    ) -> u64 {
        self.instances[instance as usize].steady.residues[residue]
            .drops
            .iter()
            .filter(|&&h| {
                let key = self.member_mon[h.index()].key;
                from.is_none_or(|from| key > Some(from)) && to.is_none_or(|to| key < Some(to))
            })
            .count() as u64
    }

    /// Decides the next launch after an edge step or a pause's prefill,
    /// where the full path calls `try_schedule`. When that launch would be
    /// the run's remaining batch plus its joiners, in key order, its
    /// reloads in flight left out ([`Shard::next_launch`]), and the pool
    /// grants everything it grants at once, the joiners join
    /// ([`Shard::relaunch_run`]), or, when some still need their prefill,
    /// the run pauses through it ([`Shard::pause_run`]). Otherwise the run
    /// plans the launch with the full path's planner ([`Shard::replan_run`]).
    /// Returns whether the launch was decided; `false` when the run closed
    /// for the full path's planner to decide it.
    pub(super) fn resume_run(&mut self, instance: u32, now: SimTime) -> bool {
        let i = instance as usize;
        #[cfg(debug_assertions)]
        self.assert_candidate_order(instance);
        let run = &mut self.instances[i].steady;
        run.resuming = false;
        let step = run.steps;
        let batch_crossing = run.batch_crossing(step, u64::from(self.geometry.block_tokens));
        if let Some(grant) = self.next_launch(instance, batch_crossing) {
            let newcomers = self.instances[i]
                .steady
                .joiners
                .iter()
                .any(|j| self.states[j.member].kv_location == KvLocation::None);
            if newcomers {
                if self.pause_run(instance, now, batch_crossing, grant) {
                    return true;
                }
            } else if self.instances[i].inst.gpu.try_alloc(grant) {
                self.instances[i].steady.held += batch_crossing;
                #[cfg(debug_assertions)]
                self.assert_steady_plan(instance, Some(grant));
                let joining = std::mem::take(&mut self.instances[i].steady.joiners);
                self.relaunch_run(instance, now, &joining);
                let run = &mut self.instances[i].steady;
                run.joiners = joining;
                run.joiners.clear();
                let partial = u64::from(!run.pending.is_empty());
                self.count_work(|w| w.partial_runs += partial);
                return true;
            }
        }
        self.replan_run(instance, now)
    }

    /// Launches `instance`'s run batch at `now` with `joining` (waiting
    /// non-members whose blocks the launch granted) joined: `begin_running`,
    /// the migration resume stamp, and their residues, marks and pacer keys
    /// filed at the run's step, each at its key position in the batch.
    /// After a pause, or with a joiner whose first token could stall its
    /// reader, the step is the run's stall edge.
    fn relaunch_run(&mut self, instance: u32, now: SimTime, joining: &[Joiner]) {
        let i = instance as usize;
        let step = self.instances[i].steady.steps;
        // After a pause, the members' next token comes a prefill later
        // than their last: it may find a reader's buffer empty.
        let paused_pace = if self.instances[i].steady.granted {
            self.instances[i].monitor.steady_pace
        } else {
            None
        };
        let tpot = self.config.target_tpot;
        for joiner in joining {
            let member = joiner.member;
            self.stamp_migration_resume(member, now);
            let st = &mut self.states[member];
            st.held_gpu_blocks = self.geometry.blocks_for_tokens(st.tokens_needed_next());
            st.begin_running(now);
            let (mark, pacer) = self.file_run_member(instance, member, step);
            let rt = &mut self.instances[i];
            rt.steady.push_mark(mark.step, member);
            if let Some(entry) = pacer {
                rt.steady.pace.push(Reverse(entry));
                let at = u64::try_from(entry.key + i128::from(step) * i128::from(tpot.as_nanos()))
                    .ok()
                    .map(SimTime::from_nanos);
                let pace = &mut rt.monitor.steady_pace;
                *pace = match (*pace, at) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            let key = self.member_mon[member.index()].key;
            let batch = &mut rt.current_batch;
            let at = batch.partition_point(|&h| self.member_mon[h.index()].key < key);
            batch.insert(at, member);
        }
        let rt = &mut self.instances[i];
        let duration = self.perf.decode_step_time(DecodeBatch {
            num_seqs: rt.current_batch.len() as u32,
            total_context_tokens: rt.steady.context,
        });
        let next = now + duration;
        let run = &mut rt.steady;
        let stalls = joining.iter().any(|j| {
            let st = &self.states[j.member];
            st.phase == Phase::Answering && st.answers.would_stall(next)
        }) || paused_pace.is_some_and(|at| at < next);
        if stalls || (run.answering > 0 && duration > tpot) {
            run.edge = run.edge.min(step + 1);
        }
        run.dirty = false;
        run.granted = false;
        let landed = joining.iter().filter(|j| !j.left).count() as u64;
        let (edges, quanta) = (run.step_edges, run.step_quanta);
        (run.step_edges, run.step_quanta) = (0, 0);
        rt.inst.compute_busy = true;
        rt.current_kind = IterationKind::Decode;
        #[cfg(debug_assertions)]
        {
            let batch = &rt.current_batch;
            assert!(
                batch
                    .windows(2)
                    .all(|w| self.member_mon[w[0].index()].key < self.member_mon[w[1].index()].key),
                "instance {instance}: a relaunched run batch is out of key order"
            );
        }
        self.count_work(|w| {
            w.steady_iterations += 1;
            w.edges_kept += edges;
            w.joins += landed;
            w.runs_kept += quanta;
        });
        self.queue.schedule(next, Event::IterationDone { instance });
    }

    /// Plans the launch after an edge step or a pause that
    /// [`Shard::resume_run`] could not make in O(1): the launch steps 1–3 of
    /// the full path's planner — [`Shard::desired_prefix`],
    /// [`Shard::evict_undesired`] and [`Shard::admit_desired`] — would make
    /// over the run's state read through each member's owed tokens
    /// ([`Shard::planned_need`]), with their side effects in the full
    /// path's order: the evictees leave the run through their latest token
    /// and are offloaded in ascending request-id order, then, in key order,
    /// a member refused its growth leaves the run to wait as a joiner, a
    /// reload start makes its request pending, and the prefills and warm
    /// requests are admitted. It visits only the candidates whose fate
    /// changes ([`Shard::cut_launch`], [`Shard::admit_planned`]); where the
    /// run cannot vouch for its key range, it walks the desired set with
    /// those steps instead (a planner fallback). The run goes on over the
    /// launch: a prefill pauses it, a decode launch relaunches it with the
    /// admitted non-members joined. A launch with no member left (or none
    /// at all) closes it. Declines, closing the run for the full path's
    /// planner, when a desired non-member holds more blocks than it needs.
    /// Returns whether it decided the launch.
    fn replan_run(&mut self, instance: u32, now: SimTime) -> bool {
        let i = instance as usize;
        self.count_work(|w| w.planned_launches += 1);
        let mut scratch = std::mem::take(&mut self.scratch);
        #[cfg(debug_assertions)]
        let walked = self.walk_plan(instance);
        let planned = match self.cut_launch(instance, &mut scratch) {
            Some(cut) => Planned::Cut(cut),
            None => {
                self.count_work(|w| w.planner_fallbacks += 1);
                let prefix = self.desired_prefix(
                    instance,
                    |handle, st| {
                        let (next, held, _) = self.planned_need(handle, st);
                        (next, held)
                    },
                    &mut scratch.desired,
                );
                self.count_work(|w| w.planner_member_visits += prefix.visited);
                Planned::Walked(prefix)
            }
        };
        let (excess, last) = match &planned {
            Planned::Cut(cut) => (cut.excess, cut.last),
            Planned::Walked(prefix) => (
                prefix.excess,
                scratch
                    .desired
                    .last()
                    .and_then(|&(handle, _)| self.member_mon[handle.index()].key),
            ),
        };
        #[cfg(debug_assertions)]
        if let Planned::Cut(cut) = &planned {
            self.assert_cut(instance, cut, &scratch.desired, &walked);
        }
        if excess {
            self.scratch = scratch;
            self.close_through(instance);
            self.count_full_path(FullPathCause::RefusedRelaunch);
            return false;
        }
        match planned {
            Planned::Cut(_) => {
                self.offload_evictees(instance, now, &scratch.evictees);
                self.admit_planned(instance, now, &mut scratch);
                #[cfg(debug_assertions)]
                assert_eq!(
                    scratch.admitted, walked.admitted,
                    "instance {instance}: a planned launch's grants diverged from the planner walk's"
                );
            }
            Planned::Walked(prefix) => {
                self.evict_undesired(instance, prefix.residents, now, &mut scratch);
                self.admit_desired(instance, now, &mut scratch);
            }
        }
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                scratch.evictees, walked.evictees,
                "instance {instance}: a planned launch's evictees diverged from the planner walk's"
            );
            assert_eq!(
                scratch.prefill, walked.prefill,
                "instance {instance}: a planned launch's prefill diverged from the planner walk's"
            );
            assert_eq!(
                self.instances[i].current_batch, walked.members,
                "instance {instance}: the members a planned launch keeps diverged from the walk's"
            );
        }
        if !scratch.prefill.is_empty() {
            self.replan_prefill(instance, now, last, &mut scratch);
            self.scratch = scratch;
            return true;
        }
        let mut joining = std::mem::take(&mut scratch.joining);
        joining.clear();
        for &handle in &scratch.decode {
            if !self.states[handle].running {
                let left = self.instances[i].steady.left_at_edge(handle);
                joining.push(Joiner {
                    member: handle,
                    left,
                });
            }
        }
        if self.instances[i].current_batch.is_empty() && joining.is_empty() {
            // Nothing to launch, as on the full path: every member left.
            self.close_through(instance);
            self.count_full_path(FullPathCause::RefusedRelaunch);
        } else {
            self.relaunch_run(instance, now, &joining);
            #[cfg(debug_assertions)]
            {
                let rt = &self.instances[i];
                assert_eq!(
                    rt.current_batch, walked.decode,
                    "instance {instance}: a planned launch's batch diverged from the planner walk's"
                );
                assert_eq!(
                    rt.steady.context, walked.context,
                    "instance {instance}: the planned batch's context"
                );
            }
            self.file_left_out(instance, last, scratch.admitted.iter().map(|&(h, _)| h));
            let run = &self.instances[i].steady;
            let partial = run.replan || !run.joiners.is_empty() || !run.pending.is_empty();
            self.count_work(|w| w.partial_runs += u64::from(partial));
            #[cfg(debug_assertions)]
            self.assert_run_held(instance);
        }
        scratch.joining = joining;
        self.scratch = scratch;
        true
    }

    /// Step 1 of the launch `instance`'s run plans, without walking its
    /// batch: the desired set — the longest key-order prefix of the
    /// candidates within `capacity − dying_blocks` and `max_batch` — and the
    /// GPU residents outside it (`scratch.evictees`, in ascending request
    /// id). The batch's need at the launch is the run's `held` plus the
    /// blocks it crosses into; to it come the joiners and pending reloads
    /// sorting among the batch's keys and then, walked forward from the
    /// first candidate outside the batch, the candidates that enter. Only
    /// when the batch's keys alone overshoot the budget or `max_batch` is
    /// the cut found by walking back from the batch's tail, each member
    /// passed an evictee. `scratch.desired` gets the desired non-members
    /// with their needs, in key order; every member before the cut is
    /// desired too. Returns `None` where the run cannot vouch for its key
    /// range: a stranger may sort among the batch's keys, or a GPU resident
    /// is none of its members and joiners (or, defensively, a joiner or
    /// pending reload is no candidate).
    fn cut_launch(&self, instance: u32, scratch: &mut ScheduleScratch) -> Option<Cut> {
        let rt = &self.instances[instance as usize];
        let run = &rt.steady;
        if run.stranger {
            return None;
        }
        let key = |handle: ReqHandle| self.member_mon[handle.index()].key;
        let need_of = |st: &pascal_cluster::RequestState| {
            self.geometry
                .blocks_for_tokens(st.tokens_needed_next())
                .max(st.held_gpu_blocks)
        };
        let batch = &rt.current_batch;
        let batch_last = batch.last().and_then(|&h| key(h));
        let budget = rt
            .inst
            .gpu
            .capacity_blocks()
            .map(|c| c.saturating_sub(rt.dying_blocks));
        let max_batch = self.config.max_batch as usize;
        let over = |blocks: u64, n: usize| n > max_batch || budget.is_some_and(|b| blocks > b);
        scratch.desired.clear();
        scratch.evictees.clear();
        let mut visited = 0;
        let mut residents = batch.len();
        let mut blocks =
            run.held + run.batch_crossing(run.steps, u64::from(self.geometry.block_tokens));
        for handle in run
            .joiners
            .iter()
            .map(|j| j.member)
            .chain(run.pending.iter().copied())
        {
            visited += 1;
            let st = &self.states[handle];
            let k = key(handle)?;
            if st.kv_location == KvLocation::Gpu {
                residents += 1;
                // Evicted unless desired (filtered once the cut is known).
                scratch.evictees.push(handle);
            }
            if batch_last.is_some_and(|last| k < last) {
                let need = need_of(st);
                blocks += need;
                scratch.desired.push((handle, need));
            }
        }
        if rt.residents.len() != residents {
            self.count_work(|w| w.planner_member_visits += visited);
            return None;
        }
        scratch
            .desired
            .sort_unstable_by_key(|&(handle, _)| key(handle));
        let mut kept = batch.len();
        let mut others = scratch.desired.len();
        if over(blocks, kept + others) {
            // The cut falls among the batch's keys.
            while over(blocks, kept + others) {
                visited += 1;
                let member = kept.checked_sub(1).map(|at| batch[at]);
                let other = others.checked_sub(1).map(|at| scratch.desired[at]);
                let member_last = match (member, other) {
                    (Some(m), Some((o, _))) => key(m) > key(o),
                    (m, _) => m.is_some(),
                };
                if let (true, Some(m)) = (member_last, member) {
                    let (next, ..) = self.planned_need(m, &self.states[m]);
                    blocks -= self.geometry.blocks_for_tokens(next);
                    kept -= 1;
                    scratch.evictees.push(m);
                } else {
                    let (_, need) = other.expect("an empty launch fits");
                    blocks -= need;
                    others -= 1;
                }
            }
            scratch.desired.truncate(others);
        } else {
            // Every candidate among the batch's keys is desired.
            let from = batch_last.map_or(Bound::Unbounded, Bound::Excluded);
            for (_, &handle) in rt.cands.range((from, Bound::Unbounded)) {
                if kept + scratch.desired.len() >= max_batch {
                    break;
                }
                visited += 1;
                let need = need_of(&self.states[handle]);
                if budget.is_some_and(|b| blocks + need > b) {
                    break;
                }
                blocks += need;
                scratch.desired.push((handle, need));
            }
        }
        let last = kept
            .checked_sub(1)
            .and_then(|at| key(batch[at]))
            .max(scratch.desired.last().and_then(|&(h, _)| key(h)));
        scratch.evictees.retain(|&h| key(h) > last);
        scratch
            .evictees
            .sort_unstable_by_key(|&h| self.states[h].spec.id);
        let excess = scratch.desired.iter().any(|&(handle, _)| {
            let st = &self.states[handle];
            st.held_gpu_blocks > self.geometry.blocks_for_tokens(st.tokens_needed_next())
        });
        self.count_work(|w| w.planner_member_visits += visited);
        Some(Cut { last, excess })
    }

    /// Step 3 of a launch [`Shard::cut_launch`] cut: [`Shard::admit_desired`]
    /// over only the desired candidates whose admission does anything —
    /// the desired non-members (`scratch.desired`) and the step's crossers
    /// still in the batch, each needing one block more, in key order. Every
    /// other member already holds what it needs and runs without a grant.
    fn admit_planned(&mut self, instance: u32, now: SimTime, scratch: &mut ScheduleScratch) {
        let run = &self.instances[instance as usize].steady;
        if !run.granted {
            let residue = (u64::from(run.steps) % u64::from(self.geometry.block_tokens)) as usize;
            for &member in &run.residues[residue].crossers {
                let (next, held, _) = self.planned_need(member, &self.states[member]);
                let need = self.geometry.blocks_for_tokens(next).max(held);
                scratch.desired.push((member, need));
            }
        }
        let member_mon = &self.member_mon;
        scratch
            .desired
            .sort_unstable_by_key(|&(handle, _)| member_mon[handle.index()].key);
        self.admit_desired(instance, now, scratch);
    }

    /// [`Shard::replan_run`]'s prefill launch (`scratch.prefill`): the run
    /// pauses through it, its members holding the blocks the planner
    /// granted them for their next launch and the desired non-members
    /// waiting as joiners or pending (`scratch.admitted` lists them, and
    /// `last` is the last desired key); with no member left, the run closes
    /// and the prefill is the full path's launch.
    fn replan_prefill(
        &mut self,
        instance: u32,
        now: SimTime,
        last: Option<PriorityKey>,
        scratch: &mut ScheduleScratch,
    ) {
        let i = instance as usize;
        let duration = self.start_prefill(instance, now, &scratch.prefill, &scratch.prompts);
        let rt = &mut self.instances[i];
        std::mem::swap(&mut rt.steady.prefill, &mut scratch.prefill);
        if !rt.current_batch.is_empty() {
            rt.steady.granted = true;
            self.file_left_out(instance, last, scratch.admitted.iter().map(|&(h, _)| h));
            self.launch_pause(instance, now, duration);
            #[cfg(debug_assertions)]
            self.assert_run_held(instance);
            return;
        }
        self.close_through(instance);
        self.count_full_path(FullPathCause::RefusedRelaunch);
        self.no_run_at_launch(instance, FullPathCause::PrefillLaunch);
        let rt = &mut self.instances[i];
        rt.inst.compute_busy = true;
        rt.current_kind = IterationKind::Prefill;
        self.queue
            .schedule(now + duration, Event::IterationDone { instance });
    }

    /// Launches the prefill `instance`'s run pauses through (in the run's
    /// `prefill`, its blocks granted) at `now` for `duration`: the step's
    /// kept edges and quantum ends are counted with the pause.
    fn launch_pause(&mut self, instance: u32, now: SimTime, duration: SimDuration) {
        let rt = &mut self.instances[instance as usize];
        let run = &mut rt.steady;
        run.dirty = false;
        let (edges, quanta) = (run.step_edges, run.step_quanta);
        (run.step_edges, run.step_quanta) = (0, 0);
        rt.inst.compute_busy = true;
        rt.current_kind = IterationKind::Prefill;
        self.count_work(|w| {
            w.steady_iterations += 1;
            w.prefill_pauses += 1;
            w.edges_kept += edges;
            w.runs_kept += quanta;
        });
        self.queue
            .schedule(now + duration, Event::IterationDone { instance });
    }

    /// `handle`'s KV tokens needed at its next launch, the blocks it holds
    /// and its context, as the full path's planner reads them: a member of
    /// an open run on its instance through the tokens the run owes it,
    /// holding the blocks of its latest launch (or of its next one, when a
    /// prefill launch granted them); any other request as it stands.
    pub(super) fn planned_need(
        &self,
        handle: ReqHandle,
        st: &pascal_cluster::RequestState,
    ) -> (u64, u64, u64) {
        if !self.in_run(handle) {
            return (
                st.tokens_needed_next(),
                st.held_gpu_blocks,
                st.context_tokens(),
            );
        }
        let run = &self.instances[st.instance as usize].steady;
        let owed = u64::from(self.run_owed(handle));
        let next = st.tokens_needed_next() + owed;
        let held = self
            .geometry
            .blocks_for_tokens(next - 1 + u64::from(run.granted));
        (next, held, st.context_tokens() + owed)
    }

    /// The launch [`Shard::resume_run`] decided is a prefill: the joiners
    /// still to be prefilled, in key order, up to the prefill token budget
    /// (the first always), as the full path's admission pass would take
    /// them. The run **pauses** through it: no step, no token, no pace
    /// advance. The pool grants, all at once, what the full path grants
    /// at this launch — the blocks the batch crosses into (`batch_crossing`),
    /// the resident joiners' growth and the prefills' blocks — or the
    /// launch is left to the planner. The resident joiners wait with it and
    /// join at the relaunch, like the newcomers once their first token
    /// closes at the prefill's end ([`Shard::end_pause`]). `grant` is what a
    /// decode launch would grant, for the debug plan check. Returns whether
    /// it launched.
    fn pause_run(&mut self, instance: u32, now: SimTime, batch_crossing: u64, _grant: u64) -> bool {
        let i = instance as usize;
        let mut prefill = std::mem::take(&mut self.instances[i].steady.prefill);
        let mut prompts = std::mem::take(&mut self.scratch.prompts);
        prompts.clear();
        prefill.extend(
            self.instances[i]
                .steady
                .joiners
                .iter()
                .map(|j| j.member)
                .filter(|&h| self.states[h].kv_location == KvLocation::None),
        );
        prefill.sort_by_key(|&h| self.member_mon[h.index()].key);
        let budget = u64::from(self.config.prefill_token_budget);
        let mut tokens = 0;
        let mut blocks = batch_crossing;
        prefill.retain(|&h| {
            let st = &self.states[h];
            let prompt = u64::from(st.spec.prompt_tokens);
            let admitted = prompts.is_empty() || tokens + prompt <= budget;
            if admitted {
                tokens += prompt;
                prompts.push(st.spec.prompt_tokens);
                blocks += self.geometry.blocks_for_tokens(st.tokens_needed_next());
            }
            admitted
        });
        for joiner in &self.instances[i].steady.joiners {
            let st = &self.states[joiner.member];
            if st.kv_location == KvLocation::Gpu {
                blocks +=
                    self.geometry.blocks_for_tokens(st.tokens_needed_next()) - st.held_gpu_blocks;
            }
        }
        if !self.instances[i].inst.gpu.try_alloc(blocks) {
            prefill.clear();
            self.instances[i].steady.prefill = prefill;
            self.scratch.prompts = prompts;
            return false;
        }
        self.instances[i].steady.held += batch_crossing;
        #[cfg(debug_assertions)]
        self.assert_steady_plan(instance, Some(_grant));
        let run = &mut self.instances[i].steady;
        run.granted = true;
        for joiner in &run.joiners {
            let st = &mut self.states[joiner.member];
            if st.kv_location == KvLocation::Gpu {
                st.held_gpu_blocks = self.geometry.blocks_for_tokens(st.tokens_needed_next());
            }
        }
        // The full path's prefill launch.
        for &handle in &prefill {
            let st = &mut self.states[handle];
            st.held_gpu_blocks = self.geometry.blocks_for_tokens(st.tokens_needed_next());
        }
        let duration = self.start_prefill(instance, now, &prefill, &prompts);
        self.scratch.prompts = prompts;
        self.instances[i].steady.prefill = prefill;
        self.launch_pause(instance, now, duration);
        true
    }

    /// The prefill a paused run on `instance` waits through ended at `now`:
    /// each newcomer's first token closes through the full path's
    /// per-token code ([`Shard::emit_token`]), in launch order, and the
    /// next launch is decided where the full path would, by
    /// [`Shard::resume_run`]. Declines (the full path takes it) on an
    /// instance that is no longer healthy.
    fn end_pause(&mut self, instance: u32, now: SimTime) -> Step {
        let i = instance as usize;
        if self.health[i] != crate::fleet::HealthState::Healthy {
            self.instances[i].steady.cause = FullPathCause::Fleet;
            return Step::Full;
        }
        let mut batch = std::mem::take(&mut self.scratch.prefill);
        batch.clear();
        batch.extend_from_slice(&self.instances[i].steady.prefill);
        let rt = &mut self.instances[i];
        rt.inst.compute_busy = false;
        // The members wait idle, as after `finish_iteration`: a change that
        // reads them now catches them up through their latest token, and
        // the prefill batch becomes the instance's batch.
        rt.steady.resuming = true;
        for &handle in &batch {
            self.emit_token(handle, IterationKind::Prefill, now);
        }
        let rt = &mut self.instances[i];
        if rt.steady.open {
            rt.steady.prefill.clear();
        } else {
            rt.current_batch.clear();
        }
        let tokens = batch.len() as u64;
        self.scratch.prefill = batch;
        self.count_work(|w| w.tokens += tokens);
        Step::Resuming
    }

    /// Closes `instance`'s run while it waits for its next launch — after
    /// an edge step it does not survive, or through a prefill it waits
    /// through: every member still in the batch is brought to where the
    /// full path left it ([`Shard::close_member`]) and its pacer entry is
    /// filed back. The batch becomes the prefill in flight (empty after an
    /// edge step), as after the full path; the joiners stay non-members for
    /// it to plan.
    fn close_through(&mut self, instance: u32) {
        let i = instance as usize;
        let batch = std::mem::take(&mut self.instances[i].current_batch);
        for &handle in &batch {
            self.close_member(instance, handle);
            let st = &self.states[handle];
            if st.phase == Phase::Answering {
                let deadline = st.answers.on_pace_until();
                self.instances[i]
                    .monitor
                    .move_pacer(&mut self.member_mon, handle, deadline);
            }
        }
        let closed = batch.len() as u64;
        self.count_work(|w| w.members_caught_up += closed);
        let rt = &mut self.instances[i];
        rt.current_batch = batch;
        rt.current_batch.clear();
        rt.monitor.steady_pace = None;
        let run = &mut rt.steady;
        std::mem::swap(&mut rt.current_batch, &mut run.prefill);
        run.open = false;
        run.resuming = false;
        run.granted = false;
        run.clear_waiting();
    }

    /// Brings `handle`, a member of `instance`'s run waiting for its next
    /// launch, to where the full path left it: caught up to the iteration
    /// before its latest in closed form, then its latest token closed
    /// through the per-token code, holding the blocks of its latest
    /// launch, or of its next one when a prefill launch granted them. Its
    /// filing in the run is the caller's to undo.
    fn close_member(&mut self, instance: u32, handle: ReqHandle) {
        let run = &self.instances[instance as usize].steady;
        let (steps, last, prev_last, granted) = (run.steps, run.last, run.prev_last, run.granted);
        let owed = steps - self.member_mon[handle.index()].sync;
        debug_assert!(owed > 0, "a waiting run member owes its latest token");
        #[cfg(debug_assertions)]
        let expected = self.replay_through(handle, last);
        let st = &mut self.states[handle];
        if owed > 1 {
            st.replay_steady(owed - 1, prev_last);
        }
        let edges = close_token(st, IterationKind::Decode, last, &self.policy);
        debug_assert_eq!(
            edges,
            TokenEdges::default(),
            "{}: a plain run member reached an edge",
            st.spec.id
        );
        let held = if granted {
            st.tokens_needed_next()
        } else {
            st.context_tokens()
        };
        st.held_gpu_blocks = self.geometry.blocks_for_tokens(held);
        let m = &mut self.member_mon[handle.index()];
        m.growth = Growth::at(
            m.predicted_total,
            st.tokens_generated,
            self.geometry.block_tokens,
        );
        m.sync = steps;
        #[cfg(debug_assertions)]
        self.assert_caught_up(handle, &expected);
    }

    /// Re-prices `member`, a member of an open run, at a new predicted
    /// `total` without catching it up: the monitor's predicted sum, its
    /// drop residue and its retirement mark move to the growth of `total`
    /// at its true token count (its state's plus the tokens the run owes
    /// it), and its filed growth to that of `total` at its state's count,
    /// which a later catch-up advances.
    pub(super) fn reprice_run_member(&mut self, member: ReqHandle, total: Option<u64>) {
        let instance = self.states[member].instance;
        let generated = self.states[member].tokens_generated;
        let owed = self.run_owed(member);
        let rt = &mut self.instances[instance as usize];
        let run = &mut rt.steady;
        let m = &mut self.member_mon[member.index()];
        // The run iteration its true token count belongs to.
        let at = u64::from(m.sync + owed);
        let g = u64::from(generated + owed);
        let done = |total: Option<u64>| total.is_none_or(|t| t <= g);
        let before = next_event(m);
        // Past both totals the member predicts no growth either way.
        if !(done(m.predicted_total) && done(total)) {
            let old = Growth::at(
                m.predicted_total,
                generated + owed,
                self.geometry.block_tokens,
            );
            let new = Growth::at(total, generated + owed, self.geometry.block_tokens);
            rt.monitor.predicted_blocks = rt.monitor.predicted_blocks - old.blocks + new.blocks;
            let bt = u64::from(self.geometry.block_tokens);
            let residue = |growth: Growth| ((at + growth.drop_at - g) % bt) as usize;
            // Ahead of an edge member, its last block may have dropped at
            // this very step, before the retirement settles.
            let listed = if old.blocks > 0 {
                Some(residue(old))
            } else {
                (u64::from(m.retire) == at).then_some((at % bt) as usize)
            };
            if let Some(r) = listed {
                unlist(&mut run.residues[r].drops, member);
            }
            m.retire = u32::MAX;
            if let (true, Some(total)) = (new.blocks > 0, total) {
                run.residues[residue(new)].drops.push(member);
                if let Ok(step) = u32::try_from(at + total - g) {
                    m.retire = step;
                }
            }
            let after = next_event(m);
            if after != before && after != u32::MAX {
                run.push_mark(after, member);
            }
        }
        m.growth = Growth::at(total, generated, self.geometry.block_tokens);
        m.predicted_total = total;
        #[cfg(debug_assertions)]
        {
            let run = &self.instances[instance as usize].steady;
            if !(run.dirty || run.resuming || run.replan || run.handling.is_some()) {
                self.assert_steady_plan(instance, None);
            }
        }
    }

    /// Brings `member`, a member of `instance`'s open run, up to the run's
    /// latest iteration alone: its state by
    /// [`RequestState::replay_steady`](pascal_cluster::RequestState::replay_steady),
    /// its held blocks and predicted growth recomputed from its token
    /// count. Its pacer entry stays out of the list while it runs.
    fn sync_run_member(&mut self, instance: u32, member: ReqHandle) {
        let run = &self.instances[instance as usize].steady;
        let (steps, last) = (run.steps, run.last);
        debug_assert!(
            run.split
                .is_none_or(|split| self.member_mon[member.index()].key >= Some(split)),
            "a member ahead of an edge caught up without this step's token"
        );
        let m = &mut self.member_mon[member.index()];
        let owed = steps - m.sync;
        if owed == 0 {
            return;
        }
        #[cfg(debug_assertions)]
        let expected = self.replay_per_token(
            member,
            &self.instances[instance as usize].steady.step_times
                [self.member_mon[member.index()].sync as usize..steps as usize],
        );
        let st = &mut self.states[member];
        st.replay_steady(owed, last);
        st.held_gpu_blocks = self.geometry.blocks_for_tokens(st.tokens_needed_next());
        let m = &mut self.member_mon[member.index()];
        m.growth = Growth::at(
            m.predicted_total,
            st.tokens_generated,
            self.geometry.block_tokens,
        );
        m.sync = steps;
        #[cfg(debug_assertions)]
        self.assert_caught_up(member, &expected);
    }

    /// Closes `instance`'s steady run, if one is open, bringing every
    /// member up to date in closed form and filing its pacer entry back.
    /// Runs before anything reads the batch as a whole or changes a run
    /// member: the run's next full iteration, every mutator of a member,
    /// a non-member change the run cannot absorb, and a fleet transition.
    /// A run waiting for its next launch — after an edge step, or through a
    /// prefill — is caught up through its latest token instead
    /// ([`Shard::close_through`]).
    pub(super) fn catch_up(&mut self, instance: u32, cause: FullPathCause) {
        let i = instance as usize;
        let run = &mut self.instances[i].steady;
        if !run.open {
            return;
        }
        #[cfg(debug_assertions)]
        assert!(
            run.handling.is_none(),
            "instance {instance}: a run closed while an edge member was handled"
        );
        run.cause = cause;
        if run.resuming {
            self.close_through(instance);
            self.count_full_path(cause);
            return;
        }
        if run.is_paused() {
            // The prefill goes on as the full path's iteration.
            self.close_through(instance);
            return;
        }
        let batch = std::mem::take(&mut self.instances[i].current_batch);
        self.instances[i].monitor.steady_pace = None;
        for &handle in &batch {
            self.sync_run_member(instance, handle);
            let st = &self.states[handle];
            if st.phase == Phase::Answering {
                let deadline = st.answers.on_pace_until();
                let monitor = &mut self.instances[i].monitor;
                monitor.move_pacer(&mut self.member_mon, handle, deadline);
                #[cfg(debug_assertions)]
                assert_eq!(
                    monitor.pacer_entry(&self.member_mon, handle),
                    deadline,
                    "{}: a caught-up pacer deadline was not filed back",
                    st.spec.id
                );
            }
        }
        let closed = batch.len() as u64;
        self.count_work(|w| w.members_caught_up += closed);
        let rt = &mut self.instances[i];
        rt.current_batch = batch;
        rt.steady.open = false;
        rt.steady.clear_waiting();
    }

    /// Whether `handle` is a member of the open run on its instance: it
    /// runs, and not in the prefill a paused run waits through.
    pub(super) fn in_run(&self, handle: ReqHandle) -> bool {
        let st = &self.states[handle];
        let run = &self.instances[st.instance as usize].steady;
        run.open && st.running && !run.is_prefilling(handle)
    }

    /// Tokens the open run on `handle`'s instance owes it: `steps − sync`
    /// for a running member — one more while an edge step handles a member
    /// sorting after it, whose token the full path would emit after its
    /// own — and 0 otherwise.
    pub(super) fn run_owed(&self, handle: ReqHandle) -> u32 {
        if !self.in_run(handle) {
            return 0;
        }
        let run = &self.instances[self.states[handle].instance as usize].steady;
        let m = &self.member_mon[handle.index()];
        let ahead = run.split.is_some_and(|split| m.key < Some(split));
        run.steps - m.sync + u32::from(ahead)
    }

    /// The tokens the full path would have given `handle` at this moment:
    /// [`Shard::run_owed`], except that while an edge step handles a
    /// member, every member sorting before it counts this step's token
    /// whether or not the run split its view there. The debug reference
    /// rows read this.
    #[cfg(debug_assertions)]
    pub(super) fn reference_owed(&self, handle: ReqHandle) -> u32 {
        if !self.in_run(handle) {
            return 0;
        }
        let run = &self.instances[self.states[handle].instance as usize].steady;
        let m = &self.member_mon[handle.index()];
        let ahead = run.handling.is_some_and(|at| m.key < Some(at));
        run.steps - m.sync + u32::from(ahead)
    }

    /// The debug reference for one member's catch-up: its state, held
    /// blocks and growth after replaying the run's iterations one token at
    /// a time through the full path's per-token code.
    #[cfg(debug_assertions)]
    fn replay_per_token(
        &self,
        handle: ReqHandle,
        step_times: &[SimTime],
    ) -> (pascal_cluster::RequestState, Growth) {
        let mut st = self.states[handle].clone();
        let mut growth = self.member_mon[handle.index()].growth;
        for &t in step_times {
            let edges = close_token(&mut st, IterationKind::Decode, t, &self.policy);
            assert_eq!(
                edges,
                TokenEdges::default(),
                "{}: a steady run replayed a token at an edge",
                st.spec.id
            );
            growth.on_token(st.tokens_generated, self.geometry.block_tokens);
            let need = self.geometry.blocks_for_tokens(st.tokens_needed_next());
            st.held_gpu_blocks = st.held_gpu_blocks.max(need);
            st.begin_running(t);
        }
        (st, growth)
    }

    /// The debug reference for [`Shard::close_through`]: the per-token
    /// replay up to the previous iteration, then the full path's token at
    /// `now`, which leaves the member idle — holding its next launch's
    /// blocks when a prefill launch granted them.
    #[cfg(debug_assertions)]
    fn replay_through(
        &self,
        handle: ReqHandle,
        now: SimTime,
    ) -> (pascal_cluster::RequestState, Growth) {
        let run = &self.instances[self.states[handle].instance as usize].steady;
        let sync = self.member_mon[handle.index()].sync as usize;
        let (mut st, mut growth) =
            self.replay_per_token(handle, &run.step_times[sync..run.steps as usize - 1]);
        let edges = close_token(&mut st, IterationKind::Decode, now, &self.policy);
        assert_eq!(edges, TokenEdges::default());
        growth.on_token(st.tokens_generated, self.geometry.block_tokens);
        if run.granted {
            // The prefill launch the run waits through granted the next.
            let need = self.geometry.blocks_for_tokens(st.tokens_needed_next());
            st.held_gpu_blocks = st.held_gpu_blocks.max(need);
        }
        (st, growth)
    }

    /// Asserts a caught-up member equals its per-token replay: the whole
    /// request state (token and quantum counts, executed time and segment
    /// start, the stall curve, held blocks) and its predicted growth.
    #[cfg(debug_assertions)]
    fn assert_caught_up(
        &self,
        handle: ReqHandle,
        (expected, growth): &(pascal_cluster::RequestState, Growth),
    ) {
        let st = &self.states[handle];
        assert_eq!(
            st, expected,
            "closed-form catch-up diverged from the per-token replay"
        );
        assert_eq!(
            self.member_mon[handle.index()].growth,
            *growth,
            "{}: caught-up growth diverged from the per-token replay",
            st.spec.id
        );
    }

    /// Asserts that the run's block and context totals are those of its
    /// batch just after a launch: each member holds, and counts the context
    /// of, its state plus the tokens the run owes it.
    #[cfg(debug_assertions)]
    fn assert_run_held(&self, instance: u32) {
        let rt = &self.instances[instance as usize];
        let (mut held, mut context) = (0, 0);
        for &handle in &rt.current_batch {
            let st = &self.states[handle];
            let owed = u64::from(rt.steady.steps - self.member_mon[handle.index()].sync);
            held += self
                .geometry
                .blocks_for_tokens(st.tokens_needed_next() + owed);
            context += st.context_tokens() + owed;
        }
        assert_eq!(
            (held, context),
            (rt.steady.held, rt.steady.context),
            "instance {instance}: the planned run's held-block or context total"
        );
        if !rt.steady.replan {
            self.assert_steady_plan(instance, None);
        }
    }

    /// The debug reference for a launch the run on `instance` plans: what
    /// the full path's planner walk — [`Shard::desired_prefix`],
    /// [`Shard::evict_undesired`] and [`Shard::admit_desired`] over the
    /// members' owed tokens — would pick, computed read-only (the pool's
    /// grants on a copy of its free blocks) before the launch acts.
    #[cfg(debug_assertions)]
    fn walk_plan(&self, instance: u32) -> WalkedPlan {
        let rt = &self.instances[instance as usize];
        let key = |handle: ReqHandle| self.member_mon[handle.index()].key;
        let mut plan = WalkedPlan::default();
        plan.excess = self
            .desired_prefix(
                instance,
                |handle, st| {
                    let (next, held, _) = self.planned_need(handle, st);
                    (next, held)
                },
                &mut plan.desired,
            )
            .excess;
        let last = plan.desired.last().and_then(|&(handle, _)| key(handle));
        plan.evictees = rt
            .residents
            .iter()
            .map(|(_, handle)| handle)
            .filter(|&handle| key(handle) > last)
            .collect();
        let mut free = rt.inst.gpu.free_blocks();
        let mut grant = |blocks: u64| match &mut free {
            None => true,
            Some(f) if *f >= blocks => {
                *f -= blocks;
                true
            }
            Some(_) => false,
        };
        let mut prefill_tokens = 0;
        for &(handle, target) in &plan.desired {
            let st = &self.states[handle];
            let member = self.in_run(handle);
            let admission = match st.kv_location {
                KvLocation::Gpu => {
                    let (_, held, context) = self.planned_need(handle, st);
                    let runs_as_is = held >= target;
                    if runs_as_is || grant(target - held) {
                        plan.decode.push(handle);
                        plan.context += context;
                        if member {
                            plan.members.push(handle);
                            if runs_as_is {
                                continue;
                            }
                        }
                        Admission::Decode
                    } else if member {
                        Admission::Refused
                    } else {
                        Admission::Waits
                    }
                }
                KvLocation::Cpu if grant(target) => Admission::Reload,
                KvLocation::None if st.spec.warm_start && grant(target) => {
                    plan.decode.push(handle);
                    plan.context += st.context_tokens();
                    Admission::Decode
                }
                KvLocation::None if st.needs_prefill() => {
                    let prompt = u64::from(st.spec.prompt_tokens);
                    let within_budget = plan.prefill.is_empty()
                        || prefill_tokens + prompt <= u64::from(self.config.prefill_token_budget);
                    if within_budget && grant(target) {
                        prefill_tokens += prompt;
                        plan.prefill.push(handle);
                        Admission::Prefill
                    } else {
                        Admission::Waits
                    }
                }
                _ => Admission::Waits,
            };
            plan.admitted.push((handle, admission));
        }
        plan
    }

    /// Asserts that [`Shard::cut_launch`]'s desired set — the batch's
    /// members up to its cut plus the desired non-members it listed, with
    /// their needs — is the planner walk's, and so is its excess flag.
    #[cfg(debug_assertions)]
    fn assert_cut(
        &self,
        instance: u32,
        cut: &Cut,
        desired: &[(ReqHandle, u64)],
        walked: &WalkedPlan,
    ) {
        let key = |handle: ReqHandle| self.member_mon[handle.index()].key;
        let mut planned: Vec<(ReqHandle, u64)> = self.instances[instance as usize]
            .current_batch
            .iter()
            .filter(|&&handle| key(handle) <= cut.last)
            .map(|&handle| {
                let (next, held, _) = self.planned_need(handle, &self.states[handle]);
                (handle, self.geometry.blocks_for_tokens(next).max(held))
            })
            .chain(desired.iter().copied())
            .collect();
        planned.sort_by_key(|&(handle, _)| key(handle));
        assert_eq!(
            planned, walked.desired,
            "instance {instance}: a planned launch's desired set diverged from the planner walk's"
        );
        assert_eq!(
            (cut.last, cut.excess),
            (
                walked.desired.last().and_then(|&(handle, _)| key(handle)),
                walked.excess
            ),
            "instance {instance}: a planned launch's cut diverged from the planner walk's"
        );
    }

    /// Asserts that the planner, run read-only over the tokens the run
    /// owes each member, agrees with the run's next launch — its batch plus
    /// its joiners, in key order, with its reloads in flight left out. At a
    /// step or a relaunch (`crossing` known) it picks that desired set
    /// exactly and grants it `crossing` more blocks. At a kept touch no
    /// candidate outside enters the run's next launch: the plan is that
    /// launch or, when the batch itself outgrows the budget there (that
    /// step then fails its allocation and takes the full path), a prefix of
    /// it. While the run waits through a prefill its members gain no token
    /// before the next launch and hold the blocks the prefill launch
    /// granted; a request in that prefill counts its first token.
    #[cfg(debug_assertions)]
    fn assert_steady_plan(&self, instance: u32, crossing: Option<u64>) {
        let run = &self.instances[instance as usize].steady;
        let ahead = u64::from(crossing.is_none() && !run.granted);
        let granted = u64::from(run.granted);
        let view = |handle: ReqHandle, st: &pascal_cluster::RequestState| {
            if run.is_prefilling(handle) {
                (st.tokens_needed_next() + 1, st.held_gpu_blocks)
            } else if st.running {
                let next = st.tokens_needed_next() + u64::from(self.run_owed(handle)) + ahead;
                (next, self.geometry.blocks_for_tokens(next - 1 + granted))
            } else {
                (st.tokens_needed_next(), st.held_gpu_blocks)
            }
        };
        let mut desired = Vec::new();
        let excess = self.desired_prefix(instance, view, &mut desired).excess;
        let rt = &self.instances[instance as usize];
        let mut launch: Vec<ReqHandle> = rt
            .current_batch
            .iter()
            .copied()
            .chain(rt.steady.joiners.iter().map(|j| j.member))
            .chain(rt.steady.pending.iter().copied())
            .collect();
        launch.sort_by_key(|&h| self.member_mon[h.index()].key);
        let planned: Vec<ReqHandle> = desired.iter().map(|&(handle, _)| handle).collect();
        assert!(
            !excess,
            "instance {instance}: a steady member holds excess blocks"
        );
        let Some(crossing) = crossing else {
            assert!(
                launch.starts_with(&planned),
                "instance {instance}: a candidate outside the steady batch would enter its \
                 next launch: {planned:?} vs {launch:?}"
            );
            return;
        };
        assert_eq!(
            planned, launch,
            "instance {instance}: the planner would not relaunch the steady batch"
        );
        let grown: u64 = desired
            .iter()
            .map(|&(handle, need)| need - view(handle, &self.states[handle]).1)
            .sum();
        assert_eq!(
            grown, crossing,
            "instance {instance}: steady crossings diverged from the planner's"
        );
        let held: u64 = desired.iter().map(|&(_, need)| need).sum();
        let waiting: u64 = rt
            .steady
            .joiners
            .iter()
            .map(|j| j.member)
            .chain(rt.steady.pending.iter().copied())
            .map(|h| {
                let (tokens, held) = view(h, &self.states[h]);
                self.geometry.blocks_for_tokens(tokens).max(held)
            })
            .sum();
        assert_eq!(
            held,
            rt.steady.held + waiting,
            "instance {instance}: the run's held-block total diverged from the planner's"
        );
    }
}

/// The first iteration, counting the next one as 1, whose token reaches a
/// hard edge of `st`'s lifecycle: its first token, phase boundary or first
/// answering token, the demotion threshold plus one (and a pending
/// demotion), or completion. Quantum ends are marks of their own.
fn hard_edge(st: &pascal_cluster::RequestState, threshold: Option<u32>) -> u32 {
    let g = st.tokens_generated;
    let spec = &st.spec;
    if g == 0 {
        return 1;
    }
    let mut edge = spec.output_tokens() - g;
    if spec.answering_tokens > 0 && g <= spec.reasoning_tokens {
        edge = edge.min((spec.reasoning_tokens - g).max(1));
    }
    if st.phase == Phase::Reasoning {
        if let Some(crossing) = threshold.and_then(|t| t.checked_add(1)) {
            if g < crossing {
                edge = edge.min(crossing - g);
            } else if !st.demoted {
                edge = 1;
            }
        }
    }
    edge
}
