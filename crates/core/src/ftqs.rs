//! FTQS — quasi-static scheduling for fault tolerance (paper §5.1, Fig. 7).
//!
//! FTQS grows a tree of f-schedules around the FTSS root:
//!
//! * **Sub-schedule creation.** For every position `p` of a parent
//!   schedule, a sub-schedule is created that keeps the parent's prefix up
//!   to and including the pivot process at `p`, assumes the pivot completed
//!   at its *best-case* time (all prefix processes at BCET), and re-runs
//!   FTSS over the remaining processes from that point.
//! * **Budgeted exploration.** Only `M` different schedules are kept
//!   (`DifferentSchedules(Φ) < M` in the paper). Children whose ordering
//!   (and allowances) equal the parent's own suffix can never improve
//!   anything and are discarded without counting. The next parent to expand
//!   is chosen by an [`ExpansionPolicy`]; the default mirrors the paper's
//!   `FindMostSimilarSubschedule`: expand, within the shallowest unexpanded
//!   layer, the sub-schedule most similar to its parent, pushing
//!   exploration toward genuinely different schedules deeper in the tree.
//! * **Interval partitioning.** For every arc, completion times of the
//!   pivot are swept ("assuming they are integers", §5.1) and the expected
//!   remaining utility of parent vs child is compared; the arc keeps the
//!   maximal contiguous interval where the child is strictly better and
//!   still hard-safe. Arcs with empty intervals — and nodes left
//!   unreachable — are pruned.
//!
//! # Performance
//!
//! Sub-schedule creation is **incremental**: the per-pivot FTSS runs of
//! one parent share the parent's entire committed context, so the builder
//! initializes that context once per expanded parent, snapshots it
//! through the [`crate::Session`] scratch's checkpoint API (see
//! [`crate::ftss`]'s *Staged pipeline* notes), and restores per pivot —
//! an O(n) copy plus a one-entry cursor advance instead of a from-scratch
//! re-derivation of model tables, predecessor counts and readiness per
//! sub-schedule. [`ExpansionStats`] in the synthesis report counts the
//! snapshots, the restores and the prefix steps they saved.
//!
//! The two embarrassingly parallel layers run on scoped worker threads
//! (`parallel` feature, on by default; see [`crate::par`]):
//!
//! * **Sub-schedule generation** — the per-pivot FTSS re-runs of one
//!   expansion are independent of each other, so they are computed in
//!   budget-sized waves via [`par::par_map_collect_with`] and committed in
//!   pivot order, reproducing the serial budget cutoff exactly. Every
//!   worker owns a *private* checkpoint copy (a [`crate::ftss`]
//!   `PrefixCursor`) advanced over its contiguous pivot chunk, so
//!   checkpoints never leak across waves or workers.
//! * **Interval partitioning** — each arc's utility sweep reads only its
//!   own parent/child schedules, so all arcs are swept concurrently, each
//!   worker owning one set of sweep buffers (the session scratch seeds
//!   the first; see [`par::par_map_collect_seeded`]).
//!
//! Interval partitioning itself is **batched and segmented** rather than
//! per-sample. The scalar formulation evaluates up to `interval_samples ×
//! 3` (Quantile3) suffix-utility passes per arc, each pass re-walking the
//! suffix and re-interpreting every breakpoint of every soft entry's
//! utility function. The batched sweep instead:
//!
//! 1. compiles every utility function once per synthesis into a flat
//!    structure-of-arrays table ([`crate::CompiledUtility`]) with a
//!    branchless scalar `value()` and O(samples + breakpoints) grid
//!    merges;
//! 2. splits the ascending sample grid into *segments* over which the
//!    suffix's runtime drop set is fixed — within a segment every kept
//!    entry completes at `tc + constant`, so its contribution over all of
//!    the segment's samples is one shifted, stale-alpha-scaled compiled
//!    fill; segment boundaries (kept entries crossing their latest-start
//!    thresholds) are found by the per-segment forward walk;
//! 3. updates the per-sample accumulator rows *in entry order*, so each
//!    sample's f64 additions happen in exactly the order the scalar walk
//!    adds them — which is why the batched curves, and therefore the
//!    extracted switch intervals, are bit-identical to the oracle's
//!    per-sample sweep and not merely numerically close.
//!
//! Samples beyond the child's hard-safety bound are skipped entirely
//! (they can never produce a switch), mirroring the scalar sweep's
//! short-circuit.
//!
//! The expansion *loop* itself stays serial: each `pick_expansion_candidate`
//! decision observes every node created so far, exactly as in the paper.
//! Results are bit-identical to the serial reference implementation
//! ([`crate::oracle::ftqs_reference`]) at any worker count, which the
//! equivalence tests assert.

use crate::fschedule::{
    expected_suffix_utility_est, CompiledUtilities, FSchedule, ScheduleAnalysis, ScheduleContext,
    SweepScratch, UtilityEstimator,
};
use crate::ftss::{
    ftss_from_context, ftss_resume, AppModel, FtssConfig, PrefixCheckpoint, PrefixCursor,
    SynthesisScratch,
};
use crate::par;
use crate::tree::{QuasiStaticTree, ScheduleArena, ScheduleId, SwitchArc, TreeNode, TreeNodeId};
use crate::{Application, SchedulingError, Time};
use ftqs_graph::NodeId;
use serde::{Deserialize, Serialize};

/// Which generated sub-schedule to expand next (the paper's
/// `FindMostSimilarSubschedule`, made pluggable for the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExpansionPolicy {
    /// Expand the node most similar to its parent (minimum suffix
    /// reordering distance), shallowest layer first — our reading of the
    /// paper's heuristic.
    MostSimilar,
    /// Expand nodes in creation order (breadth-first).
    Fifo,
    /// Expand the node whose schedule promises the largest expected-utility
    /// improvement over its parent at its best-case switch time.
    BestImprovement,
}

/// Checkpoint/restore accounting of one FTQS synthesis, reported in
/// [`crate::TreeStats`].
///
/// The prefix-step counter describes the **idealized serial expansion
/// schedule** — one cursor advancing monotonically over a parent's pivots
/// — which makes it deterministic at any worker count. Parallel waves
/// perform a bounded amount of extra cursor catch-up (each worker chunk
/// and each new wave re-advances its private cursor to its first pivot)
/// that is deliberately *not* charged here: the counters compare
/// algorithmic schedules, not thread-level work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpansionStats {
    /// Committed-prefix snapshots captured (one per expanded parent with
    /// at least one pivot).
    pub snapshots: usize,
    /// Pivot FTSS runs whose starting state was restored from a snapshot.
    pub restores: usize,
    /// Committed-prefix steps (context entries marked completed) recovered
    /// from snapshots instead of being re-derived per pivot, in the
    /// idealized serial schedule (see the type docs).
    pub prefix_steps_saved: usize,
}

/// Configuration of the FTQS tree synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct FtqsConfig {
    /// Maximum number of different schedules kept in the tree (`M`).
    pub max_schedules: usize,
    /// Parent-selection policy for tree expansion.
    pub policy: ExpansionPolicy,
    /// Maximum number of completion-time samples per arc during interval
    /// partitioning. The sweep step is `max(1, range / samples)` ms; 256
    /// keeps synthesis fast with millisecond-level accuracy on the paper's
    /// time scales. Zero is rejected by the [`crate::Engine`]/
    /// [`crate::Session`] front door as an invalid request; crate-internal
    /// direct-config callers clamp it to one sample.
    pub interval_samples: u32,
    /// How the expected suffix utility is estimated when comparing a
    /// sub-schedule against its parent (see [`UtilityEstimator`]).
    pub estimator: UtilityEstimator,
    /// FTSS configuration used for the root and every sub-schedule.
    pub ftss: FtssConfig,
}

impl Default for FtqsConfig {
    fn default() -> Self {
        FtqsConfig {
            max_schedules: 16,
            policy: ExpansionPolicy::MostSimilar,
            interval_samples: 256,
            estimator: UtilityEstimator::default(),
            ftss: FtssConfig::default(),
        }
    }
}

impl FtqsConfig {
    /// Convenience: a config with schedule budget `m` and defaults
    /// otherwise.
    #[must_use]
    pub fn with_budget(m: usize) -> Self {
        FtqsConfig {
            max_schedules: m,
            ..FtqsConfig::default()
        }
    }
}

/// FTQS over a caller-provided scratch — the entry point behind
/// [`crate::Session::synthesize`]. The scratch serves the serial root FTSS
/// run and the per-parent checkpoint captures; parallel expansion waves
/// keep worker-private scratches and cursors. Returns the tree plus the
/// checkpoint accounting.
pub(crate) fn ftqs_with(
    app: &Application,
    config: &FtqsConfig,
    scratch: &mut SynthesisScratch,
) -> Result<(QuasiStaticTree, ExpansionStats), SchedulingError> {
    let model = AppModel::build(app);
    let compiled = CompiledUtilities::build(app);
    ftqs_prepared(&model, &compiled, config, scratch)
}

/// [`ftqs_with`] over caller-provided shared artifacts: the dense model
/// tables and compiled utility tables are *not* rebuilt here, so a caller
/// holding them ([`crate::PreparedApp`]) amortizes both across every
/// synthesis of the same application. Output is
/// bit-identical to [`ftqs_with`] — the artifacts are pure functions of
/// the application.
pub(crate) fn ftqs_prepared(
    model: &AppModel,
    compiled: &CompiledUtilities,
    config: &FtqsConfig,
    scratch: &mut SynthesisScratch,
) -> Result<(QuasiStaticTree, ExpansionStats), SchedulingError> {
    let app = &*model.app;
    if config.max_schedules == 0 {
        return Err(SchedulingError::ZeroTreeBudget);
    }
    let root_ctx = ScheduleContext::root(app);
    let root_schedule = ftss_from_context(model, &root_ctx, &config.ftss, scratch)?;
    if root_schedule.entries().is_empty() {
        // Every process was statically dropped (or pre-completed): there is
        // no pivot to expand and no schedule to execute — a degenerate
        // "tree" that deserves a diagnosis, not a silent empty artifact.
        return Err(SchedulingError::EmptyRootSchedule);
    }
    // A single-entry root can still profit from sub-schedules when it
    // dropped processes statically (an early pivot completion may revive
    // them), so only trees that provably cannot switch short-circuit.
    let cannot_switch =
        root_schedule.entries().len() <= 1 && root_schedule.statically_dropped().is_empty();
    if config.max_schedules == 1 || cannot_switch {
        return Ok((
            QuasiStaticTree::single(root_schedule),
            ExpansionStats::default(),
        ));
    }
    let mut builder = TreeBuilder::new(app, config, model, compiled, scratch);
    builder.push_root(root_schedule);
    builder.grow();
    builder.partition_intervals();
    let stats = builder.stats;
    Ok((builder.finish(), stats))
}

/// Per-node bookkeeping during tree construction. Schedules live in the
/// builder's [`ScheduleArena`]; the node only carries the handle, so
/// neither expansion nor [`TreeBuilder::finish`] ever clones an
/// `FSchedule`.
struct BuildNode {
    schedule: ScheduleId,
    analysis: ScheduleAnalysis,
    parent: Option<TreeNodeId>,
    pivot_pos: Option<usize>,
    depth: usize,
    /// Best-case cumulative completion (all executed processes at BCET) of
    /// the runtime prefix *before* this node's entries — equals
    /// `schedule.context().start`.
    expanded: bool,
    /// Kendall-tau-style distance between this node's ordering and the
    /// parent's suffix ordering (similarity metric for expansion).
    parent_distance: usize,
    /// Switch intervals assigned by interval partitioning (one arc each).
    intervals: Vec<(Time, Time)>,
}

/// A candidate child computed by a (possibly parallel) expansion worker,
/// before the serial commit step assigns it an arena slot.
struct PendingChild {
    schedule: FSchedule,
    analysis: ScheduleAnalysis,
    parent_distance: usize,
}

/// Worker-private state of one expansion wave: a cursor over the
/// parent's pivots plus the scratch the per-pivot runs execute in. Never
/// shared — each worker builds its own from the parent's base checkpoint,
/// so no committed state leaks across workers or waves.
struct ExpansionWorker {
    cursor: PrefixCursor,
    scratch: SynthesisScratch,
}

struct TreeBuilder<'a, 's> {
    app: &'a Application,
    config: &'a FtqsConfig,
    model: &'a AppModel,
    /// Shared per-process compiled utility tables (cache-friendly: owned
    /// by the caller, possibly a cross-request artifact cache).
    compiled: &'a CompiledUtilities,
    /// The session scratch: runs the root synthesis and captures the
    /// per-parent base checkpoints (serial side only).
    scratch: &'s mut SynthesisScratch,
    arena: ScheduleArena,
    nodes: Vec<BuildNode>,
    stats: ExpansionStats,
}

impl<'a, 's> TreeBuilder<'a, 's> {
    fn new(
        app: &'a Application,
        config: &'a FtqsConfig,
        model: &'a AppModel,
        compiled: &'a CompiledUtilities,
        scratch: &'s mut SynthesisScratch,
    ) -> Self {
        TreeBuilder {
            app,
            config,
            model,
            compiled,
            scratch,
            arena: ScheduleArena::new(),
            nodes: Vec::new(),
            stats: ExpansionStats::default(),
        }
    }

    /// The schedule of build node `n`.
    fn sched(&self, n: &BuildNode) -> &FSchedule {
        self.arena.get(n.schedule)
    }

    fn push_root(&mut self, schedule: FSchedule) {
        let analysis = schedule.analyze(self.app);
        let schedule = self.arena.alloc(schedule);
        self.nodes.push(BuildNode {
            schedule,
            analysis,
            parent: None,
            pivot_pos: None,
            depth: 0,
            expanded: false,
            parent_distance: 0,
            intervals: Vec::new(),
        });
    }

    /// The FTQS main loop (Fig. 7 lines 1-9).
    fn grow(&mut self) {
        while self.nodes.len() < self.config.max_schedules {
            let Some(next) = self.pick_expansion_candidate() else {
                break; // every node expanded: the tree is complete
            };
            self.expand(next);
        }
    }

    fn pick_expansion_candidate(&self) -> Option<TreeNodeId> {
        let candidates = self.nodes.iter().enumerate().filter(|(_, n)| !n.expanded);
        match self.config.policy {
            ExpansionPolicy::Fifo => candidates.map(|(i, _)| i).next(),
            ExpansionPolicy::MostSimilar => candidates
                .min_by_key(|(i, n)| (n.depth, n.parent_distance, *i))
                .map(|(i, _)| i),
            ExpansionPolicy::BestImprovement => candidates
                .map(|(i, n)| {
                    let gain = self.improvement_over_parent(n);
                    (i, n.depth, gain)
                })
                .min_by(|a, b| {
                    a.1.cmp(&b.1)
                        .then(b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
                        .then(a.0.cmp(&b.0))
                })
                .map(|(i, _, _)| i),
        }
    }

    /// Expected-utility gain of `n` over its parent at `n`'s start time.
    fn improvement_over_parent(&self, n: &BuildNode) -> f64 {
        let Some(parent) = n.parent else { return 0.0 };
        let Some(pivot_pos) = n.pivot_pos else {
            return 0.0;
        };
        let p = &self.nodes[parent];
        let n_sched = self.sched(n);
        let p_sched = self.sched(p);
        let tc = n_sched.context().start;
        let est = self.config.estimator;
        let u_child = expected_suffix_utility_est(self.app, n_sched, &n.analysis, 0, tc, est);
        let u_parent =
            expected_suffix_utility_est(self.app, p_sched, &p.analysis, pivot_pos + 1, tc, est);
        u_child - u_parent
    }

    /// `CreateSubschedules`: one candidate child per pivot position of
    /// `parent`'s schedule.
    ///
    /// The per-pivot FTSS re-runs are independent, so they execute in
    /// parallel waves sized to the remaining schedule budget; committing
    /// happens serially in pivot order, which reproduces the serial budget
    /// cutoff bit-for-bit (a wave may compute a few children the budget
    /// then discards — wasted work, never different output).
    ///
    /// The parent's committed context is derived once, captured as a
    /// checkpoint, and restored per pivot (each worker advancing a private
    /// cursor).
    fn expand(&mut self, parent: TreeNodeId) {
        self.nodes[parent].expanded = true;
        let parent_sched = self.sched(&self.nodes[parent]);
        let parent_entries = parent_sched.entries().to_vec();
        let parent_ctx = parent_sched.context().clone();
        let parent_depth = self.nodes[parent].depth;

        // The parent does not pivot on its last entry by default (an empty
        // suffix cannot be reordered) — but a pivot there can still revive
        // statically dropped processes, so we include it when drops exist.
        let positions = if parent_sched.statically_dropped().is_empty() {
            parent_entries.len().saturating_sub(1)
        } else {
            parent_entries.len()
        };
        if positions == 0 {
            return;
        }
        // Best-case pivot completions, shared by every pivot of this
        // parent: bcet_at[p] = start + Σ bcet(entries[0..=p]).
        let mut bcet_at = Vec::with_capacity(positions);
        let mut bcet_sum = parent_ctx.start;
        for e in &parent_entries[..positions] {
            bcet_sum += self.app.process(e.process).times().bcet();
            bcet_at.push(bcet_sum);
        }
        // One snapshot per expanded parent: the committed context every
        // pivot of this expansion shares.
        let mut base = PrefixCheckpoint::default();
        let parent_completed = parent_ctx.completed.iter().filter(|&&c| c).count();
        self.scratch.prefix_init(self.model, &parent_ctx);
        self.scratch.checkpoint(&mut base);
        self.stats.snapshots += 1;

        let mut next_pos = 0usize;
        while next_pos < positions && self.nodes.len() < self.config.max_schedules {
            let remaining_budget = self.config.max_schedules - self.nodes.len();
            let wave_end = (next_pos + remaining_budget).min(positions);
            let wave_base = next_pos;
            let this = &*self;
            let base = &base;
            let children = par::par_map_collect_with(
                wave_end - wave_base,
                || ExpansionWorker {
                    cursor: PrefixCursor::new(base),
                    scratch: SynthesisScratch::new(),
                },
                |worker, i| {
                    this.build_child(
                        &parent_entries,
                        &parent_ctx,
                        &bcet_at,
                        worker,
                        wave_base + i,
                    )
                },
            );
            // Checkpoint accounting, computed on the (deterministic) wave
            // schedule: a from-scratch derivation of pivot p's context
            // marks `parent_completed + p + 1` processes completed; the
            // restore recovers all but the cursor's one-entry advance from
            // the snapshot.
            for pivot in wave_base..wave_end {
                self.stats.restores += 1;
                self.stats.prefix_steps_saved += parent_completed + pivot;
            }
            for (offset, child) in children.into_iter().enumerate() {
                if self.nodes.len() >= self.config.max_schedules {
                    break;
                }
                if let Some(pending) = child {
                    self.commit_child(pending, parent, parent_depth, wave_base + offset);
                }
            }
            next_pos = wave_end;
        }
    }

    /// Serial commit of a computed child: one arena allocation, one node.
    fn commit_child(
        &mut self,
        pending: PendingChild,
        parent: TreeNodeId,
        parent_depth: usize,
        pivot_pos: usize,
    ) {
        let schedule = self.arena.alloc(pending.schedule);
        self.nodes.push(BuildNode {
            schedule,
            analysis: pending.analysis,
            parent: Some(parent),
            pivot_pos: Some(pivot_pos),
            depth: parent_depth + 1,
            expanded: false,
            parent_distance: pending.parent_distance,
            intervals: Vec::new(),
        });
    }

    /// The explicit context pivot `p` of `parent_entries` starts from:
    /// parent prefix + entries[0..=p] completed, start = best-case
    /// completion of the pivot. The parent's *static* drops are
    /// deliberately NOT inherited: they were synthesis-time decisions
    /// under worst-case assumptions, not runtime events, so the child's
    /// FTSS run reconsiders every unscheduled process ("the rest of the
    /// processes are scheduled with the FTSS heuristic") and can revive
    /// soft processes when an early pivot completion frees up time.
    fn child_context(
        &self,
        parent_entries: &[crate::fschedule::ScheduleEntry],
        parent_ctx: &ScheduleContext,
        bcet_at: &[Time],
        p: usize,
    ) -> ScheduleContext {
        let mut ctx = ScheduleContext {
            start: bcet_at[p],
            completed: parent_ctx.completed.clone(),
            dropped: parent_ctx.dropped.clone(),
        };
        for e in &parent_entries[..=p] {
            ctx.completed[e.process.index()] = true;
        }
        ctx
    }

    /// Builds the candidate child for pivot position `p` of `parent` by
    /// restoring the worker's private checkpoint and advancing its cursor
    /// one entry; `None` when the suffix is infeasible from the optimistic
    /// start or the child collapses onto the parent's own suffix (a switch
    /// to it would be a no-op). Pure with respect to the node list — safe
    /// to run for several positions concurrently (workers receive
    /// contiguous ascending pivot chunks; see [`crate::par`]).
    fn build_child(
        &self,
        parent_entries: &[crate::fschedule::ScheduleEntry],
        parent_ctx: &ScheduleContext,
        bcet_at: &[Time],
        worker: &mut ExpansionWorker,
        p: usize,
    ) -> Option<PendingChild> {
        worker.cursor.advance_to(self.model, parent_entries, p);
        let ctx = self.child_context(parent_entries, parent_ctx, bcet_at, p);
        worker.scratch.restore(worker.cursor.checkpoint());
        worker.scratch.begin_run_at(ctx.start);
        let child = ftss_resume(self.model, &ctx, &self.config.ftss, &mut worker.scratch).ok()?;
        let parent_suffix = &parent_entries[p + 1..];
        let same_order = child.entries() == parent_suffix && child.statically_dropped().is_empty();
        if same_order || child.entries().is_empty() {
            return None;
        }
        let distance = suffix_distance(
            &parent_suffix.iter().map(|e| e.process).collect::<Vec<_>>(),
            &child.order_key(),
        );
        let analysis = child.analyze(self.app);
        Some(PendingChild {
            schedule: child,
            analysis,
            parent_distance: distance,
        })
    }

    /// Interval partitioning (Fig. 7 line 10): assign each non-root node
    /// the completion-time interval in which switching to it beats staying
    /// with the parent.
    ///
    /// Each node's sweep reads only its own and its parent's schedule, so
    /// the (sample-count × node-count) utility evaluations — the dominant
    /// cost of large-budget synthesis — run across all nodes in parallel.
    /// The per-process compiled utility tables are built once and shared
    /// read-only; the sweep buffers come from the session scratch (serial
    /// path and first worker) or once per extra worker, so the sweeps
    /// allocate nothing per arc.
    fn partition_intervals(&mut self) {
        let n = self.nodes.len();
        if n <= 1 {
            return;
        }
        let mut sweep = std::mem::take(&mut self.scratch.sweep);
        let this = &*self;
        let compiled = self.compiled;
        let intervals =
            par::par_map_collect_seeded(n - 1, &mut sweep, SweepScratch::default, |sw, idx| {
                let i = idx + 1;
                let node = &this.nodes[i];
                let parent = node.parent.expect("non-root node has a parent");
                let pivot_pos = node.pivot_pos.expect("non-root node has a pivot");
                this.switch_intervals(parent, i, pivot_pos, compiled, sw)
            });
        self.scratch.sweep = sweep;
        for (idx, iv) in intervals.into_iter().enumerate() {
            self.nodes[idx + 1].intervals = iv;
        }
    }

    /// Sweeps pivot completion times and returns every contiguous interval
    /// in which the child is strictly better than the parent and hard-safe
    /// (the paper switches whenever the sub-schedule "gives higher utility",
    /// which can hold on several disjoint completion-time ranges — compare
    /// the `tc(P1/2)` conditions of Fig. 5).
    ///
    /// The child and parent estimator curves are evaluated over the whole
    /// sample grid in one batched call each ([`SweepScratch::eval_arc`]'s
    /// segmented sweep); the switch runs are then extracted from the two
    /// curves. Sample times, per-sample values, and hence the extracted
    /// intervals are bit-identical to the scalar per-sample sweep the
    /// oracle performs.
    fn switch_intervals(
        &self,
        parent: TreeNodeId,
        child: TreeNodeId,
        pivot_pos: usize,
        compiled: &CompiledUtilities,
        sweep: &mut SweepScratch,
    ) -> Vec<(Time, Time)> {
        let app = self.app;
        let k = app.faults().k;
        let pn = &self.nodes[parent];
        let cn = &self.nodes[child];
        let p_sched = self.sched(pn);
        let c_sched = self.sched(cn);

        // Completion-time range of the pivot: from the child's optimistic
        // start (all-BCET prefix) to the latest time the suffix could still
        // begin — bounded by the period.
        let lo = c_sched.context().start;
        let hi_sweep = app.period();
        if lo > hi_sweep {
            return Vec::new();
        }
        // The child may only be entered while its own hard guarantees hold.
        let child_safe = cn.analysis.hard_safe_start(0, k);

        let range = hi_sweep.as_ms() - lo.as_ms();
        // `max(1)` on the sample count guards crate-internal direct-config
        // callers; the engine rejects zero before it ever reaches here.
        let step = (range / u64::from(self.config.interval_samples.max(1))).max(1);

        // Evaluation stops at `child_safe`: later samples can never be
        // good, exactly as the scalar sweep's short-circuit never
        // evaluated them.
        sweep.eval_arc(
            app,
            compiled,
            self.config.estimator,
            lo,
            hi_sweep,
            step,
            child_safe,
            (c_sched, &cn.analysis),
            (p_sched, &pn.analysis),
            pivot_pos + 1,
        );

        let mut runs: Vec<(Time, Time)> = Vec::new();
        let mut run_start: Option<Time> = None;
        let mut last_good = Time::ZERO;
        for (i, &tc_ms) in sweep.grid[..sweep.child_out.len()].iter().enumerate() {
            let tc = Time::from_ms(tc_ms);
            let good = sweep.child_out[i] > sweep.parent_out[i] + 1e-9;
            if good {
                if run_start.is_none() {
                    run_start = Some(tc);
                }
                last_good = tc;
            } else if let Some(start) = run_start.take() {
                runs.push((start, last_good));
            }
        }
        if let Some(start) = run_start {
            runs.push((start, last_good));
        }
        // Clamping to `child_safe` keeps every interval hard-safe even
        // where the sweep step skipped samples.
        runs.iter()
            .map(|&(a, b)| (a, b.min(child_safe)))
            .filter(|&(a, b)| a <= b)
            .collect()
    }

    /// Drops arc-less children and re-indexes into the final tree. Kept
    /// schedules are *moved* through arena compaction — no `FSchedule` is
    /// cloned here, which the arena's allocation counter pins in tests.
    fn finish(mut self) -> QuasiStaticTree {
        let n = self.nodes.len();
        // A node is kept if it is the root or has a non-empty interval and
        // its parent is kept.
        let mut keep = vec![false; n];
        keep[0] = true;
        for i in 1..n {
            let node = &self.nodes[i];
            keep[i] = !node.intervals.is_empty() && keep[node.parent.expect("non-root")];
        }
        let mut keep_sched = vec![false; self.arena.len()];
        for i in 0..n {
            if keep[i] {
                keep_sched[self.nodes[i].schedule.index()] = true;
            }
        }
        let sched_remap = self.arena.compact(&keep_sched);
        let mut remap = vec![usize::MAX; n];
        let mut out: Vec<TreeNode> = Vec::new();
        for i in 0..n {
            if !keep[i] {
                continue;
            }
            remap[i] = out.len();
            let node = &self.nodes[i];
            out.push(TreeNode {
                schedule: sched_remap[node.schedule.index()].expect("kept node keeps its schedule"),
                parent: node.parent.map(|p| remap[p]),
                arcs: Vec::new(),
                depth: node.depth,
            });
        }
        // Wire arcs parent -> child (one arc per switch interval).
        for i in 1..n {
            if !keep[i] {
                continue;
            }
            let node = &self.nodes[i];
            let parent = remap[node.parent.expect("non-root")];
            let pivot_pos = node.pivot_pos.expect("non-root node has a pivot");
            let pivot = self.arena.get(out[parent].schedule).entries()[pivot_pos].process;
            for &(lo, hi) in &node.intervals {
                out[parent].arcs.push(SwitchArc {
                    pivot_pos,
                    pivot,
                    lo,
                    hi,
                    child: remap[i],
                });
            }
        }
        for node in &mut out {
            node.arcs.sort_by_key(|a| (a.pivot_pos, a.lo));
            // Resolve overlaps conservatively: earlier (more specific) arcs
            // win; truncate any arc that overlaps its predecessor.
            let mut prev_end: Option<(usize, Time)> = None;
            node.arcs.retain_mut(|a| {
                if let Some((pos, end)) = prev_end {
                    if a.pivot_pos == pos && a.lo <= end {
                        if a.hi <= end {
                            return false;
                        }
                        a.lo = end + Time::from_ms(1);
                    }
                }
                prev_end = Some((a.pivot_pos, a.hi));
                true
            });
        }
        QuasiStaticTree::new(self.arena, out, 0)
    }
}

/// Number of pairwise order inversions between `reference` and `other`
/// restricted to their common elements — 0 when `other` preserves the
/// reference order (most similar).
fn suffix_distance(reference: &[NodeId], other: &[NodeId]) -> usize {
    let pos_in_ref = |x: NodeId| reference.iter().position(|&r| r == x);
    let mapped: Vec<usize> = other.iter().filter_map(|&x| pos_in_ref(x)).collect();
    let mut inversions = 0;
    for i in 0..mapped.len() {
        for j in i + 1..mapped.len() {
            if mapped[i] > mapped[j] {
                inversions += 1;
            }
        }
    }
    inversions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftss::ftss_with;
    use crate::{ExecutionTimes, FaultModel, UtilityFunction};

    /// One-shot FTQS over a fresh scratch (test convenience; production
    /// callers go through [`crate::Engine`]/[`crate::Session`]).
    fn ftqs(app: &Application, config: &FtqsConfig) -> Result<QuasiStaticTree, SchedulingError> {
        ftqs_with(app, config, &mut SynthesisScratch::new()).map(|(tree, _)| tree)
    }

    /// One-shot FTSS over a fresh scratch.
    fn ftss(
        app: &Application,
        ctx: &ScheduleContext,
        config: &FtssConfig,
    ) -> Result<FSchedule, SchedulingError> {
        ftss_with(app, ctx, config, &mut SynthesisScratch::new())
    }

    fn t(ms: u64) -> Time {
        Time::from_ms(ms)
    }

    fn et(b: u64, w: u64) -> ExecutionTimes {
        ExecutionTimes::uniform(t(b), t(w)).unwrap()
    }

    /// Fig. 1 / Fig. 4 application — the paper's running example for the
    /// quasi-static tree of Fig. 5.
    fn fig1_app() -> (Application, [NodeId; 3]) {
        let mut b = Application::builder(t(300), FaultModel::new(1, t(10)));
        let p1 = b.add_hard("P1", et(30, 70), t(180));
        let p2 = b.add_soft(
            "P2",
            et(30, 70),
            UtilityFunction::step(40.0, [(t(90), 20.0), (t(200), 10.0), (t(250), 0.0)]).unwrap(),
        );
        let p3 = b.add_soft(
            "P3",
            et(40, 80),
            UtilityFunction::step(40.0, [(t(110), 30.0), (t(150), 10.0), (t(220), 0.0)]).unwrap(),
        );
        b.add_dependency(p1, p2).unwrap();
        b.add_dependency(p1, p3).unwrap();
        (b.build().unwrap(), [p1, p2, p3])
    }

    #[test]
    fn zero_budget_is_rejected() {
        let (app, _) = fig1_app();
        let cfg = FtqsConfig::with_budget(0);
        assert!(matches!(
            ftqs(&app, &cfg),
            Err(SchedulingError::ZeroTreeBudget)
        ));
    }

    #[test]
    fn zero_interval_samples_clamps_on_the_direct_config_path() {
        // The Engine front door rejects a zero sample count as an invalid
        // request; crate-internal direct-config callers must clamp to one
        // sample instead of panicking on `range / 0`.
        let (app, _) = fig1_app();
        let cfg = FtqsConfig {
            interval_samples: 0,
            ..FtqsConfig::with_budget(4)
        };
        let tree = ftqs(&app, &cfg).expect("clamped sweep still synthesizes");
        assert!(!tree.is_empty());
    }

    #[test]
    fn all_dropped_root_is_an_empty_root_error() {
        // Every process is soft and worthless: FTSS statically drops them
        // all, leaving no pivot — FTQS must diagnose this instead of
        // emitting an entry-less tree.
        let mut b = Application::builder(t(1000), FaultModel::none());
        for i in 0..3 {
            b.add_soft(
                format!("dead{i}"),
                et(100, 200),
                UtilityFunction::step(10.0, [(t(50), 0.0)]).unwrap(),
            );
        }
        let app = b.build().unwrap();
        assert!(matches!(
            ftqs(&app, &FtqsConfig::with_budget(4)),
            Err(SchedulingError::EmptyRootSchedule)
        ));
    }

    #[test]
    fn budget_one_is_plain_ftss() {
        let (app, [p1, p2, p3]) = fig1_app();
        let tree = ftqs(&app, &FtqsConfig::with_budget(1)).unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.root_schedule().order_key(), vec![p1, p3, p2]);
        let _ = p2;
    }

    #[test]
    fn fig5_like_tree_switches_to_p2_first_on_early_completion() {
        // Fig. 5b: the root is S1^1 = P1,P3,P2 (our FTSS result); when P1
        // completes early ("tc(P1) <= 40" region in the paper's mirrored
        // example), the P2-first ordering gains utility (Fig. 4b5) and a
        // sub-schedule reordering the suffix must exist.
        let (app, [p1, p2, p3]) = fig1_app();
        let tree = ftqs(&app, &FtqsConfig::with_budget(4)).unwrap();
        assert!(tree.len() >= 2, "expected at least one sub-schedule");
        let root_sched = tree.root_schedule();
        assert_eq!(root_sched.order_key(), vec![p1, p3, p2]);
        // Completing P1 at its bcet (30) must switch to a child that runs
        // P2 before P3.
        let target = tree.switch_target(tree.root(), 0, t(30));
        let child = target.expect("early completion of P1 triggers a switch");
        assert_eq!(tree.node_schedule(child).order_key(), vec![p2, p3]);
        // Wherever a switch triggers, it must improve the estimated suffix
        // utility over staying with the parent (checked with the same
        // estimator the tree was built with).
        let est = FtqsConfig::default().estimator;
        for tc_ms in (30..=300).step_by(5) {
            let tc = t(tc_ms);
            if let Some(c) = tree.switch_target(tree.root(), 0, tc) {
                let c_sched = tree.node_schedule(c);
                let ca = c_sched.analyze(&app);
                let ra = root_sched.analyze(&app);
                let u_child =
                    crate::fschedule::expected_suffix_utility_est(&app, c_sched, &ca, 0, tc, est);
                let u_parent = crate::fschedule::expected_suffix_utility_est(
                    &app, root_sched, &ra, 1, tc, est,
                );
                assert!(
                    u_child > u_parent,
                    "switch at tc={tc} loses utility: {u_child} vs {u_parent}"
                );
            }
        }
    }

    #[test]
    fn tree_growth_respects_budget() {
        let (app, _) = fig1_app();
        for m in 1..=6 {
            let tree = ftqs(&app, &FtqsConfig::with_budget(m)).unwrap();
            assert!(tree.len() <= m, "budget {m} produced {} nodes", tree.len());
        }
    }

    #[test]
    fn finish_moves_schedules_instead_of_cloning() {
        // Every candidate schedule is arena-allocated exactly once during
        // growth, and growth is capped at the budget — so a `finish()`
        // that cloned kept schedules back into the arena would push the
        // cumulative allocation counter past the budget.
        let (app, _) = fig1_app();
        for m in 2..=8 {
            let tree = ftqs(&app, &FtqsConfig::with_budget(m)).unwrap();
            let allocations = tree.arena().allocations();
            assert!(
                allocations <= m,
                "budget {m}: {allocations} arena allocations — finish() cloned schedules"
            );
            assert!(allocations >= tree.len(), "kept nodes were all allocated");
            assert_eq!(
                tree.arena().len(),
                tree.len(),
                "compaction leaves exactly one schedule per kept node"
            );
        }
    }

    #[test]
    fn all_policies_produce_valid_trees() {
        let (app, _) = fig1_app();
        for policy in [
            ExpansionPolicy::MostSimilar,
            ExpansionPolicy::Fifo,
            ExpansionPolicy::BestImprovement,
        ] {
            let cfg = FtqsConfig {
                max_schedules: 5,
                policy,
                ..FtqsConfig::default()
            };
            let tree = ftqs(&app, &cfg).unwrap();
            assert!(!tree.is_empty());
            // Every arc points at a valid child and intervals are ordered.
            for (_, node) in tree.iter() {
                for arc in &node.arcs {
                    assert!(arc.lo <= arc.hi);
                    assert!(arc.child < tree.len());
                }
            }
        }
    }

    #[test]
    fn expansion_stats_count_snapshots_and_restores() {
        let (app, _) = fig1_app();
        let mut scratch = SynthesisScratch::new();
        let (tree, stats) = ftqs_with(&app, &FtqsConfig::with_budget(4), &mut scratch).unwrap();
        assert!(tree.len() >= 2);
        assert!(stats.snapshots >= 1, "one snapshot per expanded parent");
        assert!(
            stats.restores >= tree.len() - 1,
            "every committed child came from a restore"
        );
    }

    #[test]
    fn arcs_never_overlap_per_pivot() {
        let (app, _) = fig1_app();
        let tree = ftqs(&app, &FtqsConfig::with_budget(8)).unwrap();
        for (_, node) in tree.iter() {
            for w in node.arcs.windows(2) {
                if w[0].pivot_pos == w[1].pivot_pos {
                    assert!(w[0].hi < w[1].lo, "overlapping arcs: {w:?}");
                }
            }
        }
    }

    #[test]
    fn suffix_distance_counts_inversions() {
        let ids: Vec<NodeId> = (0..4).map(NodeId::from_index).collect();
        assert_eq!(suffix_distance(&ids, &ids), 0);
        let swapped = vec![ids[1], ids[0], ids[2], ids[3]];
        assert_eq!(suffix_distance(&ids, &swapped), 1);
        let reversed: Vec<NodeId> = ids.iter().rev().copied().collect();
        assert_eq!(suffix_distance(&ids, &reversed), 6);
        // Elements absent from the reference are ignored.
        let with_alien = vec![NodeId::from_index(9), ids[2], ids[0]];
        assert_eq!(suffix_distance(&ids, &with_alien), 1);
    }

    #[test]
    fn children_can_revive_statically_dropped_processes() {
        // A soft process whose utility only survives if everything before
        // it runs fast: the WCET-pessimistic root drops it, but a child
        // generated for an early pivot completion re-admits it.
        let mut b = Application::builder(t(400), FaultModel::new(1, t(5)));
        let head = b.add_soft(
            "head",
            et(20, 120),
            UtilityFunction::constant(50.0).unwrap(),
        );
        let fragile = b.add_soft(
            "fragile",
            et(10, 20),
            // Worthless after 70 ms: only reachable when head is fast.
            UtilityFunction::step(60.0, [(t(70), 0.0)]).unwrap(),
        );
        b.add_dependency(head, fragile).unwrap();
        let app = b.build().unwrap();

        let root = ftss(&app, &ScheduleContext::root(&app), &FtssConfig::default()).unwrap();
        assert!(
            root.statically_dropped().contains(&fragile),
            "the root (head at wcet 120) must drop the fragile process"
        );

        let tree = ftqs(&app, &FtqsConfig::with_budget(4)).unwrap();
        // When head completes at its bcet (20), some child must schedule
        // fragile (20 + 10 = 30 <= 70 earns utility 60).
        let child = tree
            .switch_target(tree.root(), 0, t(20))
            .expect("early completion of head must switch");
        assert!(
            tree.node_schedule(child).order_key().contains(&fragile),
            "the child must revive the dropped process"
        );
    }

    #[test]
    fn hard_only_application_yields_single_node() {
        // No soft processes: reordering cannot change utility, so every
        // candidate child collapses onto the parent's suffix and the tree
        // stays a single node.
        let mut b = Application::builder(t(1000), FaultModel::new(1, t(5)));
        let h1 = b.add_hard("H1", et(10, 30), t(500));
        let h2 = b.add_hard("H2", et(10, 30), t(800));
        b.add_dependency(h1, h2).unwrap();
        let app = b.build().unwrap();
        let tree = ftqs(&app, &FtqsConfig::with_budget(10)).unwrap();
        assert_eq!(tree.len(), 1);
    }
}
