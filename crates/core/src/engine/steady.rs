//! Steady decode runs: batch iterations replayed in closed form.
//!
//! A reasoning request decodes for thousands of iterations inside one
//! continuous batch (§II-B), and almost every iteration changes nothing
//! but token counts: the next scheduling pass picks the same batch, and
//! every member only gains a token. The full path — emit a token per
//! member, walk the candidates, admit, relaunch — still visits every
//! member. A **steady run** skips those visits.
//!
//! When the full path launches a decode batch that is the instance's whole
//! desired set, with no member holding more blocks than it needs, it opens
//! a run and records:
//!
//! * the iteration at which the first member reaches a **hard edge**:
//!   completion, its phase boundary, its first answering token, the
//!   demotion threshold plus one, or a token that could stall its reader
//!   (the first one when it would, or any after a step longer than
//!   `target_tpot` while a member answers);
//! * per residue of the iteration count mod `block_tokens`, the members
//!   whose next-iteration KV need crosses into a new block, and the
//!   members whose predicted growth drops a block at that step;
//! * a min-heap of **marks** keyed by iteration: each member's next
//!   quantum end (when it comes before the member's hard edges) and the
//!   iteration at which its predicted growth reaches zero, where its drop
//!   residue **retires**;
//! * the batch's context sum and the blocks it holds;
//! * the earliest pacer deadline among the answering members, whose own
//!   entries leave the instance's pacer list while the run is open.
//!
//! Every later `IterationDone` of the run before its hard edge is a
//! **steady step**: one pool allocation for that residue's crossings, the
//! residue's growth drops off the monitor's predicted sum, the run's pacer
//! deadline one `target_tpot` later, and the next `IterationDone`
//! scheduled at the time the full path would pick, `now +
//! decode_step_time(n, context + n)`. Nothing else happens in a steady
//! iteration — no trace event, no other queued event — so the event
//! sequence, and every output byte, is the full path's.
//!
//! Members lag the run: each carries a **sync step**, the run iteration
//! its state was last brought up to, and owes the run `steps − sync`
//! tokens. **Catching up** a member applies those tokens in closed form —
//! token and quantum counts, executed time, the answer stream's stall
//! curve, predicted growth and held blocks — so one member can be read
//! without touching the others.
//!
//! A run **survives** every change that leaves its batch the instance's
//! desired prefix, because the full path would relaunch the same batch,
//! in the same order, at the same instant:
//!
//! * a **quantum end** (the commonest mark) whose new priority key still
//!   sorts before the first candidate outside the batch: the member alone
//!   is caught up, closes its token through the full path's per-token
//!   code, is re-keyed and moves to its new place in the batch;
//! * predicted growth **reaching zero**: its residue retires;
//! * a **predictor refresh** that moves the estimate of a run member's
//!   dataset: the member is caught up and re-priced in place — its growth,
//!   drop residue and retirement mark;
//! * a change to a **non-member** (an arrival, an offload, reload,
//!   migration or cross-shard landing, a departure) that leaves it outside
//!   the batch's key range and not GPU-resident, when at the run's next
//!   iteration the first candidate outside the batch still cannot enter:
//!   the batch is at `max_batch`, or its blocks plus the candidate's need
//!   exceed `capacity − dying_blocks`.
//!
//! Anything else **closes** the run and catches up every member: a
//! mutation of a member, a non-member that sorts into the batch's key
//! range or becomes resident (the full path would admit or evict it), a
//! quantum end that lets an outside candidate overtake, a hard edge, a
//! failed crossing allocation and a fleet transition. The closing
//! iteration, and the next one, take the full path.
//!
//! Debug builds check the closed form against the full path: every
//! catch-up replays the member's owed iterations token by token through
//! the per-token code on a clone ([`close_token`], the growth update of
//! `file_token`, the admission's block grant and `begin_running`) and
//! asserts the results equal, and every steady step and every kept touch
//! runs the planner's desired-prefix walk read-only, over the tokens the
//! run owes each member, and asserts it yields the run's batch in order
//! (and, at a step, its crossing count).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::Bound;

use pascal_cluster::ReqHandle;
use pascal_model::DecodeBatch;
use pascal_sched::PriorityKey;
use pascal_sim::{SimDuration, SimTime};
use pascal_workload::Phase;

use super::lifecycle::{close_token, TokenEdges};
use super::members::Growth;
use super::{Event, IterationKind, Shard};

/// An instance's steady run. Kept (closed) between runs so its residue
/// table's and mark heap's allocations are reused: the run state is
/// O(`block_tokens` + batch) per instance.
#[derive(Default)]
pub(crate) struct SteadyRun {
    /// Whether a run is open: the instance's in-flight batch is its
    /// members, and their states lag the run by `steps − sync` tokens.
    open: bool,
    /// Iterations replayed since the launch that opened the run.
    steps: u32,
    /// The iteration, counting from the opening launch, whose token
    /// reaches the first hard edge; the full path handles it.
    edge: u32,
    /// Whether any member is answering.
    answering: bool,
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
    /// Indexed by iteration mod `block_tokens`: the members whose block
    /// need grows by one at that iteration's launch, and the members whose
    /// predicted growth drops a block at its token.
    residues: Vec<(u64, u64)>,
    /// Quantum ends and growth retirements, earliest first.
    marks: BinaryHeap<Reverse<Mark>>,
    /// The earliest mark's iteration (`u32::MAX` without one), so a step
    /// with no mark due reads no heap memory.
    next_mark: u32,
    /// The marks due at the step being replayed (reused buffer).
    due: Vec<Mark>,
    /// The end of every replayed iteration, for the debug replay.
    #[cfg(debug_assertions)]
    step_times: Vec<SimTime>,
}

impl SteadyRun {
    /// Whether a run is open.
    pub(super) fn is_open(&self) -> bool {
        self.open
    }

    /// Records that a non-member changed: [`Shard::recheck_run`] checks
    /// again whether the first candidate outside the batch can enter.
    pub(super) fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// Files `mark` unless it falls at or past the hard edge, where it
    /// would never come due: the full path handles that iteration and
    /// closes the run.
    fn push_mark(&mut self, mark: Mark) {
        if mark.step < self.edge {
            self.next_mark = self.next_mark.min(mark.step);
            self.marks.push(Reverse(mark));
        }
    }

    /// Takes the marks due at `step` into `due`.
    fn take_due(&mut self, step: u32, due: &mut Vec<Mark>) {
        while let Some(&Reverse(mark)) = self.marks.peek() {
            if mark.step != step {
                self.next_mark = mark.step;
                return;
            }
            self.marks.pop();
            due.push(mark);
        }
        self.next_mark = u32::MAX;
    }
}

/// Something due to one run member at a run iteration.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Mark {
    step: u32,
    kind: MarkKind,
    member: ReqHandle,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum MarkKind {
    /// The member's token at `step` ends its quantum.
    QuantumEnd,
    /// The member's predicted growth reaches zero at `step`: its drop
    /// residue retires (if the member's retirement is still `step`).
    Retire,
}

impl Ord for Mark {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.step, self.kind, self.member.index()).cmp(&(
            other.step,
            other.kind,
            other.member.index(),
        ))
    }
}

impl PartialOrd for Mark {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Shard<'_> {
    /// Opens a steady run on `instance`, whose decode batch (the whole
    /// desired set, holding exactly the blocks it needs) the full path just
    /// launched at `now` for `duration` over `context` tokens — unless a
    /// member reaches a hard edge at the very next iteration, which leaves
    /// no iteration to replay.
    pub(super) fn open_steady_run(
        &mut self,
        instance: u32,
        now: SimTime,
        duration: SimDuration,
        context: u64,
    ) {
        let i = instance as usize;
        let bt = u64::from(self.geometry.block_tokens);
        let quantum = self.policy.quantum();
        let threshold = self.policy.demotion_threshold_tokens();
        let next = now + duration;
        let mut run = std::mem::take(&mut self.instances[i].steady);
        run.residues.clear();
        run.residues.resize(bt as usize, (0, 0));
        let mut marks = std::mem::take(&mut run.marks).into_vec();
        marks.clear();
        run.answering = false;
        run.edge = u32::MAX;
        run.held = 0;
        for &member in &self.instances[i].current_batch {
            let st = &self.states[member];
            let hard = hard_edge(st, threshold);
            run.edge = run.edge.min(hard);
            let quantum_end = quantum.saturating_sub(st.tokens_in_quantum).max(1);
            if quantum_end < hard.min(run.edge) {
                marks.push(Reverse(Mark {
                    step: quantum_end,
                    kind: MarkKind::QuantumEnd,
                    member,
                }));
            }
            if st.phase == Phase::Answering {
                run.answering = true;
                if st.answers.would_stall(next) {
                    run.edge = 1;
                }
            }
            run.held += st.held_gpu_blocks;
            // The need `blocks_for_tokens(context + 1)` grows at the
            // iteration whose token brings the context to a multiple of
            // `block_tokens`.
            let cross = (bt - st.context_tokens() % bt) % bt;
            run.residues[cross as usize].0 += 1;
            let m = &mut self.member_mon[member.index()];
            m.sync = 0;
            m.retire = u32::MAX;
            if m.growth.blocks > 0 {
                let first_drop = m.growth.drop_at - u64::from(st.tokens_generated);
                run.residues[(first_drop % bt) as usize].1 += 1;
                // The last block drops when the count reaches the
                // predicted total.
                let zero = first_drop + (m.growth.blocks - 1) * bt;
                if zero < u64::from(run.edge) {
                    m.retire = zero as u32;
                    marks.push(Reverse(Mark {
                        step: m.retire,
                        kind: MarkKind::Retire,
                        member,
                    }));
                }
            }
            if run.edge <= 1 {
                break;
            }
        }
        if run.answering && duration > self.config.target_tpot {
            run.edge = 1;
        }
        // A mark at or past the run's hard edge never comes due: the full
        // path handles that iteration and closes the run.
        marks.retain(|&Reverse(mark)| mark.step < run.edge);
        run.next_mark = marks
            .iter()
            .map(|&Reverse(m)| m.step)
            .min()
            .unwrap_or(u32::MAX);
        run.marks = BinaryHeap::from(marks);
        if run.edge > 1 {
            let rt = &mut self.instances[i];
            let mut pace: Option<SimTime> = None;
            for &handle in &rt.current_batch {
                let st = &self.states[handle];
                if st.phase == Phase::Answering {
                    if let Some(at) = st.answers.on_pace_until() {
                        pace = Some(pace.map_or(at, |p| p.min(at)));
                    }
                    rt.monitor.move_pacer(&mut self.member_mon, handle, None);
                }
            }
            rt.monitor.steady_pace = pace;
            run.open = true;
            run.steps = 0;
            run.dirty = false;
            run.context = context;
            run.last = now;
            #[cfg(debug_assertions)]
            run.step_times.clear();
        }
        self.instances[i].steady = run;
    }

    /// Replays the iteration that just ended on `instance` in closed form,
    /// when it belongs to an open steady run before the run's hard edge,
    /// no member whose quantum ends there is overtaken by the first
    /// candidate outside the batch, and the pool can grant the blocks its
    /// members cross into. Returns `false` when the full path must handle
    /// it; the run then closes before anything reads it, so the marks
    /// taken off its heap are not put back.
    pub(super) fn steady_step(&mut self, instance: u32, now: SimTime) -> bool {
        let i = instance as usize;
        let bt = u64::from(self.geometry.block_tokens);
        let run = &self.instances[i].steady;
        if !run.open || run.steps + 1 >= run.edge {
            return false;
        }
        debug_assert!(
            !run.dirty,
            "instance {instance}: a non-member change was never rechecked"
        );
        let step = run.steps + 1;
        let (crossing, drops) = run.residues[(u64::from(step) % bt) as usize];
        let kept = if run.next_mark == step {
            self.settle_due(instance, step, crossing, now)
        } else {
            self.instances[i].inst.gpu.try_alloc(crossing)
        };
        if !kept {
            return false;
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
        if run.answering && duration > tpot {
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
        true
    }

    /// Settles a run a non-member change left to be checked — every
    /// caller that changes a non-member ends with `try_schedule` on its
    /// instance, which lands here while the run's iteration is in flight.
    /// The run stays open when the first candidate outside the batch still
    /// cannot enter the run's next launch, whose crossings are already
    /// known: the batch is full, or its blocks there plus the candidate's
    /// need exceed `capacity − dying_blocks`. It only grows from then on,
    /// so the candidate stays out. Otherwise the run closes.
    pub(super) fn recheck_run(&mut self, instance: u32) {
        let rt = &self.instances[instance as usize];
        if !(rt.steady.open && rt.steady.dirty) {
            return;
        }
        let stays = match (self.first_outside(instance), rt.inst.gpu.capacity_blocks()) {
            (None, _) => true,
            _ if rt.current_batch.len() >= self.config.max_batch as usize => true,
            (Some(_), None) => false,
            (Some((_, candidate)), Some(capacity)) => {
                let bt = u64::from(self.geometry.block_tokens);
                let run = &rt.steady;
                let crossing = run.residues[(u64::from(run.steps + 1) % bt) as usize].0;
                let st = &self.states[candidate];
                let need = self
                    .geometry
                    .blocks_for_tokens(st.tokens_needed_next())
                    .max(st.held_gpu_blocks);
                run.held + crossing + need > capacity.saturating_sub(rt.dying_blocks)
            }
        };
        if stays {
            self.instances[instance as usize].steady.dirty = false;
            self.count_work(|w| w.runs_kept += 1);
            #[cfg(debug_assertions)]
            self.assert_steady_plan(instance, None);
        } else {
            self.catch_up(instance);
        }
    }

    /// The first candidate outside `instance`'s run batch, with its key:
    /// the batch is a key-order prefix of the candidates.
    fn first_outside(&self, instance: u32) -> Option<(PriorityKey, ReqHandle)> {
        let rt = &self.instances[instance as usize];
        let last = rt
            .current_batch
            .last()
            .and_then(|&h| self.member_mon[h.index()].key)
            .expect("a run's batch is filed");
        rt.cands
            .range((Bound::Excluded(last), Bound::Unbounded))
            .next()
            .map(|(&key, &handle)| (key, handle))
    }

    /// Whether a member whose quantum ends at this step (`due`) would sort
    /// after the first candidate outside the batch once re-keyed: the full
    /// path would then launch that candidate ahead of it.
    fn overtaken(&self, instance: u32, due: &[Mark]) -> bool {
        let mut ends = due
            .iter()
            .filter(|m| m.kind == MarkKind::QuantumEnd)
            .peekable();
        if ends.peek().is_none() {
            return false;
        }
        let Some((first_out, _)) = self.first_outside(instance) else {
            return false;
        };
        ends.any(|m| self.policy.key_after_quantum(&self.states[m.member]) > first_out)
    }

    /// The marked form of a steady step's decision: takes the marks due at
    /// `step` and keeps the step when no member whose quantum ends there
    /// is overtaken and the pool grants the `crossing` blocks, settling
    /// every due mark. A step it refuses closes the run before anything
    /// reads it, so the marks taken are not put back.
    fn settle_due(&mut self, instance: u32, step: u32, crossing: u64, now: SimTime) -> bool {
        let i = instance as usize;
        let mut due = std::mem::take(&mut self.instances[i].steady.due);
        due.clear();
        self.instances[i].steady.take_due(step, &mut due);
        let kept =
            !self.overtaken(instance, &due) && self.instances[i].inst.gpu.try_alloc(crossing);
        if kept {
            for &mark in &due {
                self.settle(instance, mark, now);
            }
        }
        self.instances[i].steady.due = due;
        kept
    }

    /// Applies one mark due at the step ending `now`, which the run keeps.
    fn settle(&mut self, instance: u32, mark: Mark, now: SimTime) {
        let i = instance as usize;
        let member = mark.member;
        let bt = u64::from(self.geometry.block_tokens);
        match mark.kind {
            MarkKind::Retire => {
                let m = &mut self.member_mon[member.index()];
                if m.retire != mark.step {
                    return; // re-priced since
                }
                m.retire = u32::MAX;
                self.instances[i].steady.residues[(u64::from(mark.step) % bt) as usize].1 -= 1;
            }
            MarkKind::QuantumEnd => {
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
                m.sync = mark.step;
                m.growth = Growth::at(m.predicted_total, generated, self.geometry.block_tokens);
                self.refile_run_member(member);
                let rt = &mut self.instances[i];
                let key = self.member_mon[member.index()].key;
                let batch = &mut rt.current_batch;
                let from = batch
                    .iter()
                    .position(|&h| h == member)
                    .expect("a run member is in the batch");
                batch.remove(from);
                let to = batch.partition_point(|&h| self.member_mon[h.index()].key < key);
                batch.insert(to, member);
                let step = mark.step.saturating_add(self.policy.quantum());
                rt.steady.push_mark(Mark { step, ..mark });
            }
        }
        self.count_work(|w| w.runs_kept += 1);
    }

    /// Re-prices `member`, a member of an open run, at a new predicted
    /// `total` without catching it up: the monitor's predicted sum, its
    /// drop residue and its retirement mark move to the growth of `total`
    /// at its true token count (its state's plus the tokens the run owes
    /// it), and its filed growth to that of `total` at its state's count,
    /// which a later catch-up advances.
    pub(super) fn reprice_run_member(&mut self, member: ReqHandle, total: Option<u64>) {
        let instance = self.states[member].instance;
        let bt = self.geometry.block_tokens;
        let generated = self.states[member].tokens_generated;
        let rt = &mut self.instances[instance as usize];
        let run = &mut rt.steady;
        let m = &mut self.member_mon[member.index()];
        let owed = run.steps - m.sync;
        let g = u64::from(generated + owed);
        let done = |total: Option<u64>| total.is_none_or(|t| t <= g);
        // Past both totals the member predicts no growth either way.
        if !(done(m.predicted_total) && done(total)) {
            let old = Growth::at(m.predicted_total, generated + owed, bt);
            let new = Growth::at(total, generated + owed, bt);
            rt.monitor.predicted_blocks = rt.monitor.predicted_blocks - old.blocks + new.blocks;
            let steps = u64::from(run.steps);
            let residue = |growth: Growth| ((steps + growth.drop_at - g) % u64::from(bt)) as usize;
            if old.blocks > 0 {
                run.residues[residue(old)].1 -= 1;
            }
            m.retire = u32::MAX;
            if let (true, Some(total)) = (new.blocks > 0, total) {
                run.residues[residue(new)].1 += 1;
                if let Ok(step) = u32::try_from(steps + total - g) {
                    m.retire = step;
                    run.push_mark(Mark {
                        step,
                        kind: MarkKind::Retire,
                        member,
                    });
                }
            }
        }
        m.growth = Growth::at(total, generated, bt);
        m.predicted_total = total;
        #[cfg(debug_assertions)]
        if !self.instances[instance as usize].steady.dirty {
            self.assert_steady_plan(instance, None);
        }
    }

    /// Brings `member`, a member of `instance`'s open run, up to the run's
    /// latest iteration alone: its state by
    /// [`RequestState::replay_steady`](pascal_cluster::RequestState::replay_steady),
    /// its held blocks and predicted growth recomputed from its token
    /// count. Its pacer entry stays out of the list while the run is open.
    fn sync_run_member(&mut self, instance: u32, member: ReqHandle) {
        let run = &self.instances[instance as usize].steady;
        let (steps, last) = (run.steps, run.last);
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
    pub(super) fn catch_up(&mut self, instance: u32) {
        let i = instance as usize;
        if !self.instances[i].steady.open {
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
    }

    /// Tokens the open run on `handle`'s instance owes it: `steps − sync`
    /// for a member, 0 otherwise.
    #[cfg(debug_assertions)]
    pub(super) fn owed(&self, handle: ReqHandle) -> u32 {
        let st = &self.states[handle];
        let run = &self.instances[st.instance as usize].steady;
        if run.open && st.running {
            run.steps - self.member_mon[handle.index()].sync
        } else {
            0
        }
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

    /// Asserts that the planner, run read-only over the tokens the run
    /// owes each member, agrees with the run. At a step (`crossing` known)
    /// it picks the run's batch again, in order, and grants it `crossing`
    /// more blocks. At a kept touch no candidate outside the batch enters
    /// the run's next launch: the plan is the batch or, when the batch
    /// itself outgrows the budget there (that step then fails its
    /// allocation and takes the full path), a prefix of it.
    #[cfg(debug_assertions)]
    fn assert_steady_plan(&self, instance: u32, crossing: Option<u64>) {
        let ahead = u64::from(crossing.is_none());
        let view = |handle: ReqHandle, st: &pascal_cluster::RequestState| {
            if st.running {
                let next = st.tokens_needed_next() + u64::from(self.owed(handle)) + ahead;
                (next, self.geometry.blocks_for_tokens(next - 1))
            } else {
                (st.tokens_needed_next(), st.held_gpu_blocks)
            }
        };
        let mut desired = Vec::new();
        let (_, excess) = self.desired_prefix(instance, view, &mut desired);
        let rt = &self.instances[instance as usize];
        let planned: Vec<ReqHandle> = desired.iter().map(|&(handle, _)| handle).collect();
        assert!(
            !excess,
            "instance {instance}: a steady member holds excess blocks"
        );
        let Some(crossing) = crossing else {
            assert!(
                rt.current_batch.starts_with(&planned),
                "instance {instance}: a candidate outside the steady batch would enter its \
                 next launch: {planned:?} vs {:?}",
                rt.current_batch
            );
            return;
        };
        assert_eq!(
            planned, rt.current_batch,
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
        assert_eq!(
            held, rt.steady.held,
            "instance {instance}: the run's held-block total diverged from the planner's"
        );
    }
}

/// The first iteration, counting the next one as 1, whose token reaches a
/// hard edge of `st`'s lifecycle: its first token, phase boundary or first
/// answering token, the demotion threshold plus one (and a pending
/// demotion), or completion. Quantum ends are marks, not hard edges.
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
