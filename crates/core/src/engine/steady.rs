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
//! * the iteration at which the first member reaches an **edge**:
//!   completion, its phase boundary, its first answering token, the end of
//!   its quantum, the demotion threshold plus one, its predicted growth
//!   reaching zero, or a token that could stall its reader (the first one
//!   when it would, or any after a step longer than `target_tpot` while a
//!   member answers);
//! * per residue of the iteration count mod `block_tokens`, the members
//!   whose next-iteration KV need crosses into a new block, and the
//!   members whose predicted growth drops a block at that step;
//! * the batch's context sum;
//! * the earliest pacer deadline among the answering members, whose own
//!   entries leave the instance's pacer list while the run is open.
//!
//! Every later `IterationDone` of the run before its edge is a **steady
//! step**: one pool allocation for that residue's crossings, the residue's
//! growth drops off the monitor's predicted sum, the run's pacer deadline
//! one `target_tpot` later, and the next `IterationDone` scheduled at the
//! time the full path would pick, `now + decode_step_time(n, context + n)`.
//! Nothing else happens in a steady iteration — no trace event, no other
//! queued event — so the event sequence, and every output byte, is the
//! full path's.
//!
//! A **touch** closes the run: any member mutator on the instance (an
//! arrival, eviction, reload, offload or migration landing, a stranding),
//! a predictor refresh that re-sums a group with run members, or a fleet
//! transition. Changes to the instance's dying blocks always come with a
//! member mutation, so they touch it too. Closing **catches up** each
//! member in closed form — token and quantum counts, executed time, the
//! answer stream's stall curve, predicted growth, held blocks and its
//! pacer entry — and the run's next iteration end takes the full path, as
//! does the iteration at the run's edge (after the same catch-up).
//!
//! Debug builds check the closed form against the full path at both ends:
//! every catch-up replays the run token by token through the per-token
//! code on a clone of each member ([`close_token`], the growth update of
//! `file_token`, the admission's block grant and `begin_running`) and
//! asserts the results equal, and every steady step runs the planner's
//! desired-prefix walk read-only, over the tokens the run owes its
//! members, and asserts it yields the run's batch and crossing count.

use pascal_model::DecodeBatch;
use pascal_sim::{SimDuration, SimTime};
use pascal_workload::Phase;

#[cfg(debug_assertions)]
use super::lifecycle::{close_token, TokenEdges};
use super::members::Growth;
#[cfg(debug_assertions)]
use super::IterationKind;
use super::{Event, Shard};
#[cfg(debug_assertions)]
use pascal_cluster::ReqHandle;

/// An instance's steady run. Kept (closed) between runs so its residue
/// table's allocation is reused: the run state is O(`block_tokens`) per
/// instance.
#[derive(Default)]
pub(crate) struct SteadyRun {
    /// Whether a run is open: the instance's in-flight batch is its
    /// members, and their states lag the run by `steps` tokens.
    open: bool,
    /// Iterations replayed since the launch that opened the run.
    steps: u32,
    /// The iteration, counting from the opening launch, whose token
    /// reaches the first edge; the full path handles it.
    edge: u32,
    /// Whether any member is answering.
    answering: bool,
    /// Context tokens of the batch at the latest launch.
    context: u64,
    /// The latest iteration end replayed: every member's segment start,
    /// once caught up.
    last: SimTime,
    /// Indexed by iteration mod `block_tokens`: the members whose block
    /// need grows by one at that iteration's launch, and the members whose
    /// predicted growth drops a block at its token.
    residues: Vec<(u64, u64)>,
    /// The end of every replayed iteration, for the debug replay.
    #[cfg(debug_assertions)]
    step_times: Vec<SimTime>,
}

impl SteadyRun {
    /// Tokens the run owes a member: `steps` for a member of an open run,
    /// 0 otherwise.
    #[cfg(debug_assertions)]
    pub(super) fn owed(&self, running: bool) -> u32 {
        if self.open && running {
            self.steps
        } else {
            0
        }
    }

    /// Whether a run is open.
    pub(super) fn is_open(&self) -> bool {
        self.open
    }
}

impl Shard<'_> {
    /// Opens a steady run on `instance`, whose decode batch (the whole
    /// desired set, holding exactly the blocks it needs) the full path just
    /// launched at `now` for `duration` over `context` tokens — unless a
    /// member reaches an edge at the very next iteration, which leaves no
    /// iteration to replay.
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
        run.answering = false;
        run.edge = u32::MAX;
        for &handle in &self.instances[i].current_batch {
            let st = &self.states[handle];
            run.edge = run.edge.min(first_edge(st, quantum, threshold));
            if st.phase == Phase::Answering {
                run.answering = true;
                if st.answers.would_stall(next) {
                    run.edge = 1;
                }
            }
            // The need `blocks_for_tokens(context + 1)` grows at the
            // iteration whose token brings the context to a multiple of
            // `block_tokens`.
            let cross = (bt - st.context_tokens() % bt) % bt;
            run.residues[cross as usize].0 += 1;
            let growth = self.member_mon[handle.index()].growth;
            if growth.blocks > 0 {
                let first_drop = growth.drop_at - u64::from(st.tokens_generated);
                let zero = first_drop + (growth.blocks - 1) * bt;
                run.edge = run.edge.min(u32::try_from(zero).unwrap_or(u32::MAX));
                run.residues[(first_drop % bt) as usize].1 += 1;
            }
            if run.edge <= 1 {
                break;
            }
        }
        if run.answering && duration > self.config.target_tpot {
            run.edge = 1;
        }
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
            run.context = context;
            run.last = now;
            #[cfg(debug_assertions)]
            run.step_times.clear();
        }
        self.instances[i].steady = run;
    }

    /// Replays the iteration that just ended on `instance` in closed form,
    /// when it belongs to an open steady run before the run's edge and the
    /// pool can grant the blocks its members cross into. Returns `false`,
    /// having changed nothing, when the full path must handle it.
    pub(super) fn steady_step(&mut self, instance: u32, now: SimTime) -> bool {
        let i = instance as usize;
        let bt = u64::from(self.geometry.block_tokens);
        let step = {
            let run = &self.instances[i].steady;
            if !run.open || run.steps + 1 >= run.edge {
                return false;
            }
            run.steps + 1
        };
        let (crossing, drops) = self.instances[i].steady.residues[(u64::from(step) % bt) as usize];
        if !self.instances[i].inst.gpu.try_alloc(crossing) {
            return false;
        }
        #[cfg(debug_assertions)]
        self.assert_steady_plan(instance, step, crossing);
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
        self.count_work(|w| {
            w.tokens += n;
            w.steady_iterations += 1;
        });
        self.queue
            .schedule(now + duration, Event::IterationDone { instance });
        true
    }

    /// Closes `instance`'s steady run, if one is open, bringing every
    /// member up to date in closed form: its state by
    /// [`RequestState::replay_steady`](pascal_cluster::RequestState::replay_steady),
    /// its held blocks and predicted growth recomputed from its token
    /// count, and its pacer entry filed back. Runs before anything reads a
    /// run member: the run's next full iteration, every member mutator on
    /// the instance, a predictor refresh and a fleet transition.
    pub(super) fn catch_up(&mut self, instance: u32) {
        let i = instance as usize;
        if !self.instances[i].steady.open {
            return;
        }
        let bt = self.geometry.block_tokens;
        let mut run = std::mem::take(&mut self.instances[i].steady);
        let batch = std::mem::take(&mut self.instances[i].current_batch);
        self.instances[i].monitor.steady_pace = None;
        for &handle in &batch {
            #[cfg(debug_assertions)]
            let expected = self.replay_per_token(handle, &run.step_times);
            let st = &mut self.states[handle];
            // A run touched before its first steady step owes nothing.
            if run.steps > 0 {
                st.replay_steady(run.steps, run.last);
            }
            st.held_gpu_blocks = self.geometry.blocks_for_tokens(st.tokens_needed_next());
            let m = &mut self.member_mon[handle.index()];
            m.growth = Growth::at(m.predicted_total, st.tokens_generated, bt);
            if st.phase == Phase::Answering {
                self.instances[i].monitor.move_pacer(
                    &mut self.member_mon,
                    handle,
                    st.answers.on_pace_until(),
                );
            }
            #[cfg(debug_assertions)]
            self.assert_caught_up(handle, &expected);
        }
        let caught_up = batch.len() as u64;
        self.count_work(|w| w.members_caught_up += caught_up);
        run.open = false;
        let rt = &mut self.instances[i];
        rt.current_batch = batch;
        rt.steady = run;
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
    /// start, the stall curve, held blocks), its predicted growth, and its
    /// filed pacer deadline.
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
        if st.phase == Phase::Answering {
            assert_eq!(
                self.instances[st.instance as usize]
                    .monitor
                    .pacer_entry(&self.member_mon, handle),
                expected.answers.on_pace_until(),
                "{}: caught-up pacer deadline diverged from the per-token replay",
                st.spec.id
            );
        }
    }

    /// Asserts that the planner, run read-only over the tokens the run
    /// owes its members after `step` iterations, would pick the run's batch
    /// again and grant it `crossing` more blocks.
    #[cfg(debug_assertions)]
    fn assert_steady_plan(&self, instance: u32, step: u32, crossing: u64) {
        let owed = u64::from(step);
        let view = |st: &pascal_cluster::RequestState| {
            if st.running {
                let next = st.tokens_needed_next() + owed;
                (next, self.geometry.blocks_for_tokens(next - 1))
            } else {
                (st.tokens_needed_next(), st.held_gpu_blocks)
            }
        };
        let mut desired = Vec::new();
        let (_, excess) = self.desired_prefix(instance, view, &mut desired);
        let rt = &self.instances[instance as usize];
        let planned: Vec<ReqHandle> = desired.iter().map(|&(handle, _)| handle).collect();
        assert_eq!(
            planned, rt.current_batch,
            "instance {instance}: the planner would not relaunch the steady batch"
        );
        assert!(
            !excess,
            "instance {instance}: a steady member holds excess blocks"
        );
        let grown: u64 = desired
            .iter()
            .map(|&(handle, need)| need - view(&self.states[handle]).1)
            .sum();
        assert_eq!(
            grown, crossing,
            "instance {instance}: steady crossings diverged from the planner's"
        );
    }
}

/// The first iteration, counting the next one as 1, whose token reaches an
/// edge of `st`'s lifecycle: its first token, phase boundary or first
/// answering token, the end of its quantum, the demotion threshold plus
/// one (and a pending demotion), or completion.
fn first_edge(st: &pascal_cluster::RequestState, quantum: u32, threshold: Option<u32>) -> u32 {
    let g = st.tokens_generated;
    let spec = &st.spec;
    if g == 0 {
        return 1;
    }
    let mut edge = spec.output_tokens() - g;
    edge = edge.min(quantum.saturating_sub(st.tokens_in_quantum).max(1));
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
