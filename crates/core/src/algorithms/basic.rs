//! The basic algorithm **BS** (§IV-B) and its optimised variant
//! **AdvancedBS** (§IV-C, Algorithm 1), as a [`Verifier`] of the shared
//! Algorithm-4 driver (see [`crate::algorithms::driver`]).
//!
//! BS executes one spatial keyword query over the SetR-tree per candidate
//! keyword set, scanning each until every missing object has been
//! retrieved, and keeps the candidate with the smallest penalty.
//! AdvancedBS adds four independently toggleable optimisations:
//!
//! 1. **Early stop** — Eqn. 6's rank bound `R_L`: a candidate's scan
//!    aborts as soon as the missing set's rank provably exceeds what the
//!    current best penalty allows.
//! 2. **Enumeration order** — candidates are visited in increasing edit
//!    distance and, within a layer, decreasing particularity benefit; the
//!    driver stops once the keyword penalty of the next layer already
//!    exceeds the best penalty.
//! 3. **Keyword-set filtering** — dominators of the missing set observed
//!    in earlier scans are cached; if enough of them still dominate under
//!    the next candidate (an in-memory check), the candidate is pruned
//!    without touching the index.
//! 4. **Parallel processing** — candidates of a layer fan out to the
//!    [`wnsk_exec`] work-stealing pool; workers prune against the shared
//!    atomic best-penalty bound and their per-worker local bests are
//!    merged at the layer's sequence barrier (see
//!    [`crate::algorithms::shared`] for the determinism contract).
//!
//! The same verifier serves the sharded coordinator ([`answer_counted`]):
//! AdvancedBS's serial path with Opt1 and Opt2 on and Opt3 off, where a
//! candidate's rank is a caller-supplied dominator count — a scatter of
//! shard-local counts — in place of the SetR-tree scan.

use crate::algorithms::count::{self, CountScan};
use crate::algorithms::driver::{self, bump, Layer, Plan, Verifier};
use crate::algorithms::shared::LocalBest;
use crate::budget::{BudgetGuard, QueryBudget};
use crate::engine::DominatorCount;
use crate::enumeration::Candidate;
use crate::error::Result;
use crate::question::{WhyNotAnswer, WhyNotQuestion};
use crate::rank::{min_score, rank_of_set, SetRankOutcome};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use wnsk_exec::{ExecMetrics, Executor, TaskContext, WorkerHandle};
use wnsk_index::{
    st_score, Dataset, LeafSimKernel, ObjectId, SetRTree, SpatialKeywordQuery, TopKSearch,
};
use wnsk_obs::{TracePayload, Tracer};
use wnsk_storage::{BlobRef, BufferPool};
use wnsk_text::{Kernel, ProjectedSet};

/// Toggles for the AdvancedBS optimisations (all on by default,
/// single-threaded). `AdvancedOptions::none()` turns AdvancedBS back into
/// plain BS — the ablation experiment (Fig. 11) sweeps these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdvancedOptions {
    /// Opt1: early stop via the rank bound of Eqn. 6.
    pub early_stop: bool,
    /// Opt2: penalty/particularity enumeration order with global early
    /// termination.
    pub ordered_enumeration: bool,
    /// Opt3: dominator-cache keyword-set filtering.
    pub keyword_set_filtering: bool,
    /// Opt4: number of worker threads (1 = serial).
    pub threads: usize,
    /// Set-arithmetic kernel for the Opt3 filter and counting-scan leaf
    /// similarities. Not one of the paper's optimisations — both kernels
    /// produce bit-identical answers and work metrics (see
    /// `docs/KERNELS.md`), so this is purely a wall-time A/B knob and
    /// stays at its default under `none()` too.
    pub kernel: Kernel,
    /// Resource limits; on exhaustion the solver degrades to the
    /// in-memory approximate fallback instead of running to completion.
    pub budget: QueryBudget,
}

impl Default for AdvancedOptions {
    fn default() -> Self {
        AdvancedOptions {
            early_stop: true,
            ordered_enumeration: true,
            keyword_set_filtering: true,
            threads: 1,
            kernel: Kernel::default(),
            budget: QueryBudget::unlimited(),
        }
    }
}

impl AdvancedOptions {
    /// Every optimisation disabled: plain BS behaviour.
    pub fn none() -> Self {
        AdvancedOptions {
            early_stop: false,
            ordered_enumeration: false,
            keyword_set_filtering: false,
            threads: 1,
            kernel: Kernel::default(),
            budget: QueryBudget::unlimited(),
        }
    }
}

/// **BS**: the unoptimised baseline of §IV-B.
pub fn answer_basic(
    dataset: &Dataset,
    tree: &SetRTree,
    question: &WhyNotQuestion,
) -> Result<WhyNotAnswer> {
    run(dataset, tree, question, AdvancedOptions::none(), None)
}

/// **BS** under a [`QueryBudget`]: exhausting the budget degrades to the
/// approximate fallback rather than running to completion.
pub fn answer_basic_with_budget(
    dataset: &Dataset,
    tree: &SetRTree,
    question: &WhyNotQuestion,
    budget: QueryBudget,
) -> Result<WhyNotAnswer> {
    let opts = AdvancedOptions {
        budget,
        ..AdvancedOptions::none()
    };
    run(dataset, tree, question, opts, None)
}

/// **AdvancedBS**: BS with the §IV-C optimisations per `opts`.
pub fn answer_advanced(
    dataset: &Dataset,
    tree: &SetRTree,
    question: &WhyNotQuestion,
    opts: AdvancedOptions,
) -> Result<WhyNotAnswer> {
    run(dataset, tree, question, opts, None)
}

/// AdvancedBS's serial verification with Opt1 and Opt2 on and Opt3 off,
/// where each rank comes from `count(q', min_score, limit)` — the number
/// of objects scoring strictly above `min_score` under `q'`, reported as
/// [`DominatorCount::AtLeast`] once `count + 1` exceeds `limit` —
/// instead of a SetR-tree scan. The sharded coordinator passes a scatter
/// of shard-local counts; since those add up to the single scan's count,
/// the answer and the candidate, prune and query counters equal
/// [`answer_advanced`]'s with the same options at one thread.
pub fn answer_counted<F>(
    dataset: &Dataset,
    question: &WhyNotQuestion,
    count: F,
) -> Result<WhyNotAnswer>
where
    F: Fn(&SpatialKeywordQuery, f64, Option<usize>) -> Result<DominatorCount> + Sync,
{
    let opts = AdvancedOptions {
        keyword_set_filtering: false,
        ..AdvancedOptions::default()
    };
    let bs = Bs {
        ranker: Ranker::Counted(&count),
        opts,
        tracer: Tracer::off(),
    };
    driver::drive(&bs, dataset, question, plan(&opts, None))
}

pub(crate) fn run(
    dataset: &Dataset,
    tree: &SetRTree,
    question: &WhyNotQuestion,
    opts: AdvancedOptions,
    sample: Option<Vec<Candidate>>,
) -> Result<WhyNotAnswer> {
    let bs = Bs {
        ranker: Ranker::Tree(tree),
        opts,
        tracer: tree.traversal().tracer().clone(),
    };
    driver::drive(&bs, dataset, question, plan(&opts, sample))
}

fn plan(opts: &AdvancedOptions, sample: Option<Vec<Candidate>>) -> Plan {
    Plan {
        threads: opts.threads,
        kernel: opts.kernel,
        budget: opts.budget,
        ordered: opts.ordered_enumeration,
        rank_hint: None,
        inject_rank_bug: false,
        sample,
    }
}

/// The strict-dominator count behind [`answer_counted`].
type CountFn<'a> =
    dyn Fn(&SpatialKeywordQuery, f64, Option<usize>) -> Result<DominatorCount> + Sync + 'a;

/// Where a surviving candidate's rank comes from.
enum Ranker<'a> {
    /// A SetR-tree scan (serial) or counting subtree tasks (dynamic).
    Tree(&'a SetRTree),
    /// A caller-supplied dominator count; always serial.
    Counted(&'a CountFn<'a>),
}

/// The BS / AdvancedBS verifier.
struct Bs<'a> {
    ranker: Ranker<'a>,
    opts: AdvancedOptions,
    tracer: Tracer,
}

/// Per-worker private state: the Opt3 dominator cache and the local
/// best merged at the layer's sequence barrier.
#[derive(Default)]
struct WorkerState {
    cache: HashSet<ObjectId>,
    /// Memoised bitset projections of cached dominators' documents, so
    /// repeated Opt3 filter passes over the same dominator pay one merge
    /// and then AND+popcount forever after. Unused on the scalar path.
    proj: HashMap<ObjectId, ProjectedSet>,
    best: LocalBest,
}

/// A candidate that survived the in-memory prechecks: its Opt1 rank
/// limit and what its rank query needs.
struct Survivor {
    max_rank: Option<usize>,
    /// `(id, ST(m, q_S))` of every missing object.
    targets: Vec<(ObjectId, f64)>,
    q_s: SpatialKeywordQuery,
}

/// A task of the dynamic (Opt1 + Opt4) layer execution: either a whole
/// candidate or one subtree of an in-flight counting rank scan.
enum BsTask {
    Candidate(u64, Candidate),
    Count(Arc<CandScan>, BlobRef),
}

/// One candidate's in-flight counting rank determination, shared by its
/// subtree tasks.
struct CandScan {
    scan: CountScan,
    cand: Candidate,
    seq: u64,
}

impl Verifier for Bs<'_> {
    const QUERY_SPAN: &'static str = "bs.query";
    const LAYER_SPAN: &'static str = "bs.layer";

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn pool(&self) -> Option<&Arc<BufferPool>> {
        match self.ranker {
            Ranker::Tree(tree) => Some(tree.pool()),
            Ranker::Counted(_) => None,
        }
    }

    fn initial_rank(
        &self,
        exec: &Executor,
        metrics: &ExecMetrics,
        guard: &BudgetGuard,
        query: &SpatialKeywordQuery,
        targets: &[(ObjectId, f64)],
    ) -> Result<SetRankOutcome> {
        match self.ranker {
            // BS retrieves until the missing objects appear.
            Ranker::Tree(tree) => {
                count::tree_rank(tree, exec, metrics, guard, query, targets, true)
            }
            Ranker::Counted(count) => Ok(counted(count(query, min_score(targets), None)?, None)),
        }
    }

    fn verify(&self, l: &Layer<'_, '_>, tasks: Vec<(u64, Candidate)>) -> Result<Vec<LocalBest>> {
        let states = match self.ranker {
            Ranker::Tree(tree) if l.exec.threads() > 1 && self.opts.early_stop => {
                // Opt1 + Opt4: candidates fan out to the pool AND each
                // surviving candidate's rank determination forks into
                // per-subtree counting tasks, so one dominant scan no
                // longer bounds the layer's critical path. Workers prune
                // against the live shared bound at every node.
                l.exec.run_dynamic(
                    tasks
                        .into_iter()
                        .map(|(seq, c)| BsTask::Candidate(seq, c))
                        .collect(),
                    l.metrics,
                    || l.guard.check().is_some(),
                    |_| WorkerState::default(),
                    |state, task, tctx| match task {
                        BsTask::Candidate(seq, cand) => {
                            self.launch(l, tree, state, seq, cand, tctx)
                        }
                        BsTask::Count(cs, node) => self.count_step(l, tree, state, &cs, node, tctx),
                    },
                )?
            }
            _ => l.exec.run(
                tasks,
                l.metrics,
                || l.guard.check().is_some(),
                |_| WorkerState::default(),
                |state, (seq, cand), handle| self.process(l, state, seq, &cand, handle),
            )?,
        };
        Ok(states.into_iter().map(|s| s.best).collect())
    }
}

impl Bs<'_> {
    /// The shared in-memory prechecks of Algorithm 1 lines 5–13: the Opt1
    /// rank budget (Eqn. 6) against the cross-worker bound and the Opt3
    /// dominator-cache filter. Both are tie-permissive / strictly-over
    /// tests, so a candidate whose exact penalty equals the final best is
    /// never pruned under any thread schedule.
    fn precheck(
        &self,
        l: &Layer<'_, '_>,
        state: &mut WorkerState,
        cand: &Candidate,
        handle: &WorkerHandle<'_>,
    ) -> Option<Survivor> {
        let ctx = l.ctx;
        bump(&l.stats.candidates_total, 1);
        // Opt1: rank budget from Eqn. 6, against the cross-worker bound —
        // monotonically non-increasing, so a stale read only makes
        // pruning conservative, never wrong. Without early stop the scan
        // runs to completion regardless.
        let max_rank = if self.opts.early_stop {
            match ctx
                .penalty
                .rank_upper_limit(cand.edit_distance, l.best.bound().value())
            {
                None => {
                    bump(&l.stats.pruned_by_bound, 1);
                    handle.count_prune_hit();
                    return None;
                }
                Some(usize::MAX) => None,
                Some(r) => Some(r),
            }
        } else {
            None
        };
        let targets = ctx.missing_targets(&cand.doc);
        let q_s = ctx.query.with_doc(cand.doc.clone());

        // Opt3: count cached dominators that still dominate (an in-memory
        // test, Algorithm 1 lines 9–13).
        if let (true, Some(max_rank)) = (self.opts.keyword_set_filtering, max_rank) {
            let min_score = min_score(&targets);
            // Bitset kernel: the candidate document (a subset of the
            // question universe) projects once per precheck, each cached
            // dominator's document once per worker (memoised in
            // `state.proj`), after which every filter test is an
            // AND+popcount instead of a sorted-merge scan. The float
            // expressions are identical, so the count — and therefore the
            // pruning decision — matches the scalar path exactly.
            let cand_bits = ctx.kernel.as_ref().map(|k| (k, k.project(&q_s.doc)));
            let proj = &mut state.proj;
            let still_dominating = state
                .cache
                .iter()
                .filter(|&&id| {
                    let o = ctx.dataset.object(id);
                    let tsim = match &cand_bits {
                        Some((k, cb)) => {
                            let ob = proj.entry(id).or_insert_with(|| k.project(&o.doc));
                            q_s.sim.similarity_bits(ob, cb)
                        }
                        None => q_s.sim.similarity(&o.doc, &q_s.doc),
                    };
                    let score = st_score(
                        q_s.alpha,
                        ctx.dataset.world().normalized_dist(&o.loc, &q_s.loc),
                        tsim,
                    );
                    score > min_score
                })
                .count();
            if still_dominating + 1 > max_rank {
                bump(&l.stats.pruned_by_filter, 1);
                handle.count_prune_hit();
                return None;
            }
        }
        Some(Survivor {
            max_rank,
            targets,
            q_s,
        })
    }

    /// Serial candidate processing: prechecks, then one rank query
    /// (Algorithm 1 line 14) — a SetR-tree scan or the counted rank.
    fn process(
        &self,
        l: &Layer<'_, '_>,
        state: &mut WorkerState,
        seq: u64,
        cand: &Candidate,
        handle: &WorkerHandle<'_>,
    ) -> Result<()> {
        let Some(run) = self.precheck(l, state, cand, handle) else {
            return Ok(());
        };
        bump(&l.stats.queries_run, 1);
        let outcome = match self.ranker {
            Ranker::Tree(tree) => {
                // Under Opt1 the limit is re-derived from the *live*
                // shared bound at every scan checkpoint: a peer's refresh
                // mid-scan tightens this candidate's abort rank. The bound
                // only decreases, so the limit only tightens — and stays
                // tie-permissive throughout.
                let d = cand.edit_distance;
                let live_limit = || l.ctx.penalty.rank_upper_limit(d, l.best.bound().value());
                let live_limit: &dyn Fn() -> Option<usize> = &live_limit;
                let mut scan = TopKSearch::new(tree, run.q_s);
                rank_of_set(
                    &mut scan,
                    &run.targets,
                    run.max_rank,
                    // BS retrieves until the missing objects appear; the
                    // optimised variant stops as soon as the rank is known.
                    !self.opts.early_stop,
                    Some(l.guard),
                    self.opts.early_stop.then_some(live_limit),
                    self.opts.keyword_set_filtering.then_some(&mut state.cache),
                )?
            }
            Ranker::Counted(count) => counted(
                count(&run.q_s, min_score(&run.targets), run.max_rank)?,
                run.max_rank,
            ),
        };
        match outcome {
            // The driver sees the latched breach and degrades; this
            // candidate's partial scan is simply discarded.
            SetRankOutcome::Breached { .. } => {}
            SetRankOutcome::Aborted { seen_dominators } => self.reject(l, handle, seen_dominators),
            SetRankOutcome::Exact { rank } => l.offer(
                &mut state.best,
                handle,
                &cand.doc,
                cand.edit_distance,
                seq,
                rank,
            ),
        }
        Ok(())
    }

    /// Books a candidate whose rank provably exceeds the Opt1 limit.
    fn reject(&self, l: &Layer<'_, '_>, handle: &WorkerHandle<'_>, seen_dominators: usize) {
        bump(&l.stats.pruned_by_bound, 1);
        handle.count_prune_hit();
        if self.tracer.is_on() {
            self.tracer.event(
                "bs.candidate_rejected",
                TracePayload::CandidateRejected {
                    rank_lower_bound: (seen_dominators + 1).min(u32::MAX as usize) as u32,
                },
            );
        }
    }

    /// Prechecks a candidate and, if it survives, seeds its counting rank
    /// scan into the pool (root subtree task). The scan's node tasks then
    /// fan out across workers.
    fn launch(
        &self,
        l: &Layer<'_, '_>,
        tree: &SetRTree,
        state: &mut WorkerState,
        seq: u64,
        cand: Candidate,
        tctx: &TaskContext<'_, BsTask>,
    ) -> Result<()> {
        let Some(run) = self.precheck(l, state, &cand, &tctx.handle) else {
            return Ok(());
        };
        bump(&l.stats.queries_run, 1);
        if tree.is_empty() {
            let best = &mut state.best;
            l.offer(best, &tctx.handle, &cand.doc, cand.edit_distance, seq, 1);
            return Ok(());
        }
        // Candidate documents are subsets of the question universe, so the
        // leaf kernel is exact; `None` (scalar merge) when the kernel is off
        // or the universe spilled.
        let leaf_kernel = l
            .ctx
            .kernel
            .as_ref()
            .and_then(|_| LeafSimKernel::new(&l.ctx.universe, &run.q_s.doc));
        let min_score = min_score(&run.targets);
        let filtering = self.opts.keyword_set_filtering;
        let cs = Arc::new(CandScan {
            scan: CountScan::new(run.q_s, min_score, filtering, leaf_kernel),
            cand,
            seq,
        });
        cs.scan.add_pending();
        tctx.spawn(BsTask::Count(Arc::clone(&cs), tree.root()));
        Ok(())
    }

    /// Executes one subtree task of a counting rank scan: re-derives the
    /// live Opt1 limit from the shared bound, expands the node (tallying
    /// leaf dominators, forking child subtrees), and — as the scan's last
    /// outstanding task — finalises the candidate: offers the exact rank or
    /// books the abort as a bound prune, and merges the collected
    /// dominators into this worker's Opt3 cache.
    fn count_step(
        &self,
        l: &Layer<'_, '_>,
        tree: &SetRTree,
        state: &mut WorkerState,
        cs: &Arc<CandScan>,
        node: BlobRef,
        tctx: &TaskContext<'_, BsTask>,
    ) -> Result<()> {
        let scan = &cs.scan;
        let d = cs.cand.edit_distance;
        if !scan.is_aborted() {
            if l.guard.breached().is_some() {
                scan.abort();
            } else {
                // The live Opt1 limit: tie-permissive against the current
                // (monotonically non-increasing) shared bound, checked at
                // every node so concurrent scans prune against each other.
                match l.ctx.penalty.rank_upper_limit(d, l.best.bound().value()) {
                    None => scan.abort(),
                    Some(limit) if limit != usize::MAX && scan.count() + 1 > limit => scan.abort(),
                    _ => {}
                }
            }
        }
        if !scan.is_aborted() {
            scan.expand_node(tree, node, |child| {
                scan.add_pending();
                tctx.spawn(BsTask::Count(Arc::clone(cs), child));
            })?;
        }
        if scan.complete_one() {
            if !scan.is_aborted() {
                let rank = scan.count() + 1;
                l.offer(&mut state.best, &tctx.handle, &cs.cand.doc, d, cs.seq, rank);
                if self.opts.keyword_set_filtering {
                    state.cache.extend(scan.found.lock().drain(..));
                }
            } else if l.guard.breached().is_none() {
                self.reject(l, &tctx.handle, scan.count());
            }
        }
        Ok(())
    }
}

/// The rank outcome a dominator count implies under the Opt1 `limit`.
fn counted(count: DominatorCount, limit: Option<usize>) -> SetRankOutcome {
    match count {
        DominatorCount::Exact(n) if !matches!(limit, Some(l) if n + 1 > l) => {
            SetRankOutcome::Exact { rank: n + 1 }
        }
        DominatorCount::Exact(n) | DominatorCount::AtLeast(n) => {
            SetRankOutcome::Aborted { seen_dominators: n }
        }
    }
}
