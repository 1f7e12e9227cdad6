//! The **KcRBased** bound-and-prune algorithm (§V, Algorithms 3 & 4),
//! as a [`Verifier`] of the shared Algorithm-4 driver (see
//! [`crate::algorithms::driver`]).
//!
//! One traversal of the KcR-tree scores a whole batch `CK` of candidate
//! keyword sets at once. For each candidate `S` the traversal maintains a
//! *frontier* of tree nodes; the missing set's rank is bracketed by
//!
//! ```text
//! rank_lo(S) = 1 + Σ_frontier MinDom(N, S, M)
//! rank_hi(S) = 1 + Σ_frontier MaxDom(N, S, M)
//! ```
//!
//! (`MaxDom(·,·,M) = max_i MaxDom(·,·,m_i)`, `MinDom = min_i`, §VI-A).
//! Expanding a node replaces its contribution with its children's,
//! tightening both bounds; leaf entries contribute their *exact*
//! dominance. Because a refined query `(S, max(k₀, rank_hi))` is always a
//! valid answer (its `k'` covers the true rank), its penalty upper bound
//! is *achievable*, so the shared best penalty `p_c` decreases
//! monotonically and pruning candidates with `penalty(rank_lo) > p_c` is
//! sound even before bounds converge. (The paper's pseudocode assumes the
//! frontier sums only tighten; keeping explicit frontier sums makes the
//! implementation correct regardless.)
//!
//! The driver walks the layers in ascending edit distance and stops as
//! soon as the next layer's keyword penalty alone can no longer beat
//! `p_c` (Algorithm 4); this verifier splits each layer into batches.
//! Every frontier node of a batch is a [`wnsk_exec`] task. On one
//! worker the executor runs a batch's node tasks FIFO before the next
//! batch starts, so each batch is one breadth-first traversal. On
//! several, idle workers steal node expansions mid-batch, prune against
//! the shared atomic bound and keep per-worker local bests that merge
//! at the layer's sequence barrier — so MaxDom/MinDom tightening stays
//! deterministic and the refined query is bit-identical to the
//! one-worker run (Fig. 10's parallel variant; see
//! [`crate::algorithms::shared`]).

use crate::algorithms::count;
use crate::algorithms::driver::{self, bump, Layer, Plan, Verifier};
use crate::algorithms::shared::LocalBest;
use crate::budget::{BudgetGuard, QueryBudget};
use crate::enumeration::Candidate;
use crate::error::{Result, WhyNotError};
use crate::question::{WhyNotAnswer, WhyNotContext, WhyNotQuestion};
use crate::rank::SetRankOutcome;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use wnsk_exec::{ExecMetrics, Executor, TaskContext, WorkerHandle};
use wnsk_index::kcr::{max_dom_counts, min_dom_counts, tau_lower, tau_upper, PreparedNode};
use wnsk_index::{st_score, Dataset, KcrNode, KcrTree, NodeSummary, ObjectId, SpatialKeywordQuery};
use wnsk_obs::Tracer;
use wnsk_storage::{BlobRef, BufferPool};
use wnsk_text::{Kernel, KeywordSet, ProjectedSet};

/// Options for the KcR-based solver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KcrOptions {
    /// Worker threads; candidate batches are distributed across them with
    /// the best penalty synchronised (§IV-C4 / Fig. 10).
    pub threads: usize,
    /// Set-arithmetic kernel for the dominator bounds and leaf
    /// similarities; both produce bit-identical answers and work metrics
    /// (see `docs/KERNELS.md`), so this is purely a wall-time A/B knob.
    pub kernel: Kernel,
    /// §V-D: each edit-distance layer is split into benefit-ordered
    /// batches of this size, so early batches lower `p_c` before later
    /// ones pay for root-level bound evaluations — and each traversal
    /// keeps its per-node work proportional to a small `|CK|`.
    pub batch_size: usize,
    /// Resource limits; on exhaustion the solver degrades to the
    /// in-memory approximate fallback instead of running to completion.
    pub budget: QueryBudget,
    /// A precomputed initial rank `R(M, q₀)` (Algorithm 4 line 1). When
    /// set, the initial-rank phase is skipped entirely — the serving
    /// layer supplies this from its cross-query answer cache, where the
    /// rank is derived from a cached top-k list containing every missing
    /// object. The hint must equal the exact rank the scan would produce
    /// (strict dominators + 1); it is still validated against `k`
    /// ([`crate::WhyNotError::NotMissing`] on a rank ≤ k).
    pub initial_rank_hint: Option<usize>,
    /// Test-only fault: over-count the initial rank `R(M, q₀)` by one,
    /// perturbing the Eqn. 4 `Δk` normaliser. This exists so the
    /// differential fuzzing harness can prove its BS-oracle cross-check
    /// catches a realistic off-by-one (`wnsk fuzz --inject-bug rank`);
    /// nothing outside the fuzz pipeline ever sets it.
    #[doc(hidden)]
    pub inject_rank_bug: bool,
}

impl Default for KcrOptions {
    fn default() -> Self {
        KcrOptions {
            threads: 1,
            kernel: Kernel::default(),
            batch_size: 64,
            budget: QueryBudget::unlimited(),
            initial_rank_hint: None,
            inject_rank_bug: false,
        }
    }
}

/// **KcRBased**: Algorithm 4 over the full candidate space.
pub fn answer_kcr(
    dataset: &Dataset,
    tree: &KcrTree,
    question: &WhyNotQuestion,
    opts: KcrOptions,
) -> Result<WhyNotAnswer> {
    run(dataset, tree, question, opts, None)
}

pub(crate) fn run(
    dataset: &Dataset,
    tree: &KcrTree,
    question: &WhyNotQuestion,
    opts: KcrOptions,
    sample: Option<Vec<Candidate>>,
) -> Result<WhyNotAnswer> {
    let plan = Plan {
        threads: opts.threads,
        kernel: opts.kernel,
        budget: opts.budget,
        ordered: true,
        rank_hint: opts.initial_rank_hint,
        inject_rank_bug: opts.inject_rank_bug,
        sample,
    };
    let kcr = Kcr {
        tree,
        batch_size: opts.batch_size.max(1),
    };
    driver::drive(&kcr, dataset, question, plan)
}

/// The KcRBased verifier.
struct Kcr<'a> {
    tree: &'a KcrTree,
    batch_size: usize,
}

/// One candidate of a batch traversal. The rank bracket lives in one
/// packed atomic — `(rank_hi << 32) | rank_lo` — so a node task
/// replaces a node's contribution by its children's with a *single*
/// `fetch_add` and both fields move together.
///
/// Why every observed value is trustworthy: a child's delta is only
/// applied after its parent's (tasks apply their delta *before*
/// spawning children, and a same-atomic happens-before edge orders the
/// two `fetch_add`s), so every prefix of the atomic's coherence order
/// is a prefix-closed set of expansions — i.e. the sums of a *valid
/// frontier*. A frontier partitions the objects, so its `hi` sum is ≥
/// the exact dominator count and its `lo` sum is ≤ it; both fields stay
/// in `u32` range, which also means the packed mod-2⁶⁴ arithmetic never
/// corrupts across the field boundary. Hence: every offered `pn_hi` is
/// achievable, every prune (`pn_lo > bound`) is sound, and a transient
/// `hi == lo` *is* the exact rank (per-node `hi ≥ lo`, so equal sums
/// force every frontier node exact — retiring there is Theorem 2).
struct BatchCand {
    /// Global candidate sequence number (lexicographic merge tiebreak).
    seq: u64,
    doc: KeywordSet,
    /// `doc` projected onto the question universe (bitset kernel only;
    /// candidates are subsets of the universe, so this is lossless).
    bits: Option<ProjectedSet>,
    edit_distance: usize,
    /// `TSim(m_i, S)` per missing object.
    m_tsims: Vec<f64>,
    /// `ST(m_i, q_S)` per missing object (for exact leaf dominance).
    m_scores: Vec<f64>,
    /// Packed `(rank_hi << 32) | rank_lo`, both including the `1 +`.
    bounds: AtomicU64,
    active: AtomicBool,
}

impl BatchCand {
    fn new(ctx: &WhyNotContext<'_>, seq: u64, cand: Candidate) -> Self {
        let m_tsims: Vec<f64> = ctx
            .missing
            .iter()
            .map(|m| ctx.query.sim.similarity(&m.doc, &cand.doc))
            .collect();
        let m_scores = ctx
            .missing
            .iter()
            .zip(&m_tsims)
            .map(|(m, &tsim)| st_score(ctx.query.alpha, m.sdist, tsim))
            .collect();
        BatchCand {
            seq,
            bits: ctx.kernel.as_ref().map(|k| k.project(&cand.doc)),
            doc: cand.doc,
            edit_distance: cand.edit_distance,
            m_tsims,
            m_scores,
            bounds: AtomicU64::new(pack_delta(1, 1)),
            active: AtomicBool::new(true),
        }
    }
}

/// A frontier node with its per-candidate `(MaxDom, MinDom)`
/// contribution to the frontier sums.
type Frontier = (BlobRef, Vec<(u32, u32)>);

/// One candidate's `(ΣMaxDom, ΣMinDom)` over a node's children.
type Sums = (i64, i64);

/// A task of the KcR layer execution: a whole candidate batch
/// (roots its traversal) or one frontier node of an in-flight batch,
/// carrying that node's per-candidate `(MaxDom, MinDom)` contribution.
/// Node tasks share the batch's candidates by [`Arc`] and apply their
/// bound deltas concurrently.
enum KcrTask {
    Batch(Vec<(u64, Candidate)>),
    Node(Arc<[BatchCand]>, BlobRef, Vec<(u32, u32)>),
}

fn pack_delta(dhi: i64, dlo: i64) -> u64 {
    (dhi << 32).wrapping_add(dlo) as u64
}

impl Verifier for Kcr<'_> {
    const QUERY_SPAN: &'static str = "kcr.query";
    const LAYER_SPAN: &'static str = "kcr.layer";
    const RANK_EVENT: Option<&'static str> = Some("kcr.initial_rank");

    fn tracer(&self) -> &Tracer {
        self.tree.traversal().tracer()
    }

    fn pool(&self) -> Option<&Arc<BufferPool>> {
        Some(self.tree.pool())
    }

    fn initial_rank(
        &self,
        exec: &Executor,
        metrics: &ExecMetrics,
        guard: &BudgetGuard,
        query: &SpatialKeywordQuery,
        targets: &[(ObjectId, f64)],
    ) -> Result<SetRankOutcome> {
        count::tree_rank(self.tree, exec, metrics, guard, query, targets, false)
    }

    fn verify(&self, l: &Layer<'_, '_>, tasks: Vec<(u64, Candidate)>) -> Result<Vec<LocalBest>> {
        bump(&l.stats.candidates_total, tasks.len() as u64);
        // Benefit-ordered batches (§V-D), so early batches lower `p_c`
        // before later ones pay for root-level bound evaluations. The
        // partition is identical for every thread count — parallelism
        // comes from the per-node subtree tasks, not from slicing batches
        // thinner (which would duplicate per-batch root traversals).
        let mut batches = Vec::new();
        let mut tasks = tasks.into_iter().peekable();
        while tasks.peek().is_some() {
            batches.push(KcrTask::Batch(
                tasks.by_ref().take(self.batch_size).collect(),
            ));
        }
        // Each batch seeds a shared traversal whose frontier *nodes* are
        // tasks: one expensive subtree never serialises its whole batch,
        // and idle workers steal node expansions mid-batch (see
        // [`BatchCand`]). The budget is checked before every task, each
        // of which costs at least one page read; the best found so far
        // stays valid (rank_hi penalties are achievable).
        l.exec.run_dynamic(
            batches,
            l.metrics,
            || l.guard.check().is_some(),
            |_| LocalBest::new(),
            |local, task, tctx| match task {
                KcrTask::Batch(batch) => self.launch_batch(l, batch, local, tctx),
                KcrTask::Node(cands, node, contrib) => {
                    self.expand_batch_node(l, &cands, node, &contrib, local, tctx)
                }
            },
        )
    }
}

impl Kcr<'_> {
    /// Computes the per-candidate `(MaxDom, MinDom)` of one node summary,
    /// maximised/minimised over the missing objects (§VI-A); `(0, 0)` for
    /// retired candidates.
    fn node_contrib(
        &self,
        ctx: &WhyNotContext<'_>,
        summary: &NodeSummary,
        live: &[Option<&BatchCand>],
    ) -> Vec<(u32, u32)> {
        let prep = match ctx.kernel.as_ref() {
            Some(k) => PreparedNode::with_projection(summary, k.universe()),
            None => PreparedNode::new(summary),
        };
        let world = self.tree.world();
        let min_dist = world.normalized_min_dist(&ctx.query.loc, &summary.mbr);
        let max_dist = world.normalized_max_dist(&ctx.query.loc, &summary.mbr);
        live.iter()
            .map(|p| {
                p.map_or((0, 0), |p| {
                    entry_dom_bounds(&prep, min_dist, max_dist, ctx, p)
                })
            })
            .collect()
    }

    /// Algorithm 3 lines 8–17 and 29–32 for one node: reads it and sums
    /// each live candidate's contribution over its children, returning
    /// those sums and the children still loose for some live candidate;
    /// the others are booked as pruned unvisited.
    fn expand(
        &self,
        l: &Layer<'_, '_>,
        node: BlobRef,
        live: &[Option<&BatchCand>],
    ) -> Result<(Vec<Sums>, Vec<Frontier>)> {
        let ctx = l.ctx;
        let tree = self.tree;
        let traversal = tree.traversal();
        let node = tree.read_node(node).map_err(WhyNotError::Storage)?;
        bump(&l.stats.nodes_expanded, 1);
        let mut children: Vec<Frontier> = Vec::new();
        let mut sums: Vec<Sums> = vec![(0, 0); live.len()];
        match node {
            KcrNode::Internal(entries) => {
                for e in &entries {
                    let summary = tree.entry_summary(e).map_err(WhyNotError::Storage)?;
                    let contrib = self.node_contrib(ctx, &summary, live);
                    for (sum, &(hi, lo)) in sums.iter_mut().zip(&contrib) {
                        sum.0 += hi as i64;
                        sum.1 += lo as i64;
                    }
                    // Only children whose bounds are still loose for some
                    // live candidate can tighten anything; where the
                    // dominance bounds agree for every one, the subtree is
                    // pruned unvisited.
                    let loose = live
                        .iter()
                        .zip(&contrib)
                        .any(|(p, &(hi, lo))| p.is_some() && hi != lo);
                    if loose {
                        children.push((e.child, contrib));
                    } else {
                        traversal.nodes_pruned_traced(e.child.first_page.0, 0);
                    }
                }
            }
            KcrNode::Leaf(entries) => {
                for e in &entries {
                    let doc = tree.read_doc(e.doc).map_err(WhyNotError::Storage)?;
                    // Bitset kernel: project the document once, then each
                    // candidate similarity is AND + popcount.
                    let doc_bits = ctx.kernel.as_ref().map(|k| k.project(&doc));
                    let sdist = tree.world().normalized_dist(&e.loc, &ctx.query.loc);
                    for (sum, p) in sums.iter_mut().zip(live) {
                        let Some(p) = p else { continue };
                        let tsim = match (&doc_bits, &p.bits) {
                            (Some(db), Some(cb)) => ctx.query.sim.similarity_bits(db, cb),
                            _ => ctx.query.sim.similarity(&doc, &p.doc),
                        };
                        let score = st_score(ctx.query.alpha, sdist, tsim);
                        // max_i / min_i of per-missing dominance flags.
                        let (any, all) = leaf_dominance(score, &p.m_scores);
                        sum.0 += any as i64;
                        sum.1 += all as i64;
                    }
                }
            }
        }
        Ok((sums, children))
    }

    /// Batch seed: builds the shared candidate states, applies the
    /// root-summary bounds (Algorithm 3 lines 2–6) and hands the root node
    /// to the executor as the traversal's first frontier task.
    fn launch_batch(
        &self,
        l: &Layer<'_, '_>,
        batch: Vec<(u64, Candidate)>,
        local: &mut LocalBest,
        tctx: &TaskContext<'_, KcrTask>,
    ) -> Result<()> {
        let cands: Arc<[BatchCand]> = batch
            .into_iter()
            .map(|(seq, c)| BatchCand::new(l.ctx, seq, c))
            .collect();
        let root_summary = self.tree.root_summary().map_err(WhyNotError::Storage)?;
        let all: Vec<Option<&BatchCand>> = cands.iter().map(Some).collect();
        let root_contrib = self.node_contrib(l.ctx, &root_summary, &all);
        for (cand, &(hi, lo)) in cands.iter().zip(&root_contrib) {
            self.tighten(
                l,
                cand,
                pack_delta(hi as i64, lo as i64),
                local,
                &tctx.handle,
            );
        }
        // An active candidate always has a loose bracket (`tighten`
        // retires `hi == lo`), so any survivor justifies expanding the root.
        if cands.iter().any(|c| c.active.load(Ordering::Acquire)) {
            tctx.spawn(KcrTask::Node(cands, self.tree.root(), root_contrib));
        } else {
            let traversal = self.tree.traversal();
            traversal.nodes_pruned_traced(self.tree.root().first_page.0, 0);
        }
        Ok(())
    }

    /// Frontier step (Algorithm 3 lines 8–32 for one node): replaces this
    /// node's per-candidate contribution by its children's — one packed
    /// `fetch_add` per candidate, applied *before* any child is spawned so
    /// coherence order respects tree order (see [`BatchCand`]) — and forks
    /// the still-loose children as new tasks.
    fn expand_batch_node(
        &self,
        l: &Layer<'_, '_>,
        cands: &Arc<[BatchCand]>,
        node: BlobRef,
        contrib: &[(u32, u32)],
        local: &mut LocalBest,
        tctx: &TaskContext<'_, KcrTask>,
    ) -> Result<()> {
        // Snapshot: a candidate retired after this never receives another
        // delta from this task's subtree (its bracket is already final or
        // its penalty already beaten — either way its bounds are dead).
        let live: Vec<Option<&BatchCand>> = cands
            .iter()
            .map(|c| c.active.load(Ordering::Acquire).then_some(c))
            .collect();
        if live.iter().all(Option::is_none) {
            let traversal = self.tree.traversal();
            traversal.nodes_pruned_traced(node.first_page.0, 0);
            return Ok(());
        }
        let (sums, children) = self.expand(l, node, &live)?;
        // Apply every delta before spawning any child — load-bearing for
        // the valid-frontier invariant (see [`BatchCand`]).
        for (i, cand) in cands.iter().enumerate() {
            if live[i].is_some() {
                let delta = pack_delta(
                    sums[i].0 - contrib[i].0 as i64,
                    sums[i].1 - contrib[i].1 as i64,
                );
                self.tighten(l, cand, delta, local, &tctx.handle);
            }
        }
        for (child, child_contrib) in children {
            tctx.spawn(KcrTask::Node(Arc::clone(cands), child, child_contrib));
        }
        Ok(())
    }

    /// Adds a packed `(Δhi, Δlo)` to a candidate's bracket, then runs
    /// Algorithm 3 lines 20–26 on the bracket `[lo, hi]` that very
    /// `fetch_add` produced: offers the always-achievable
    /// `(S, max(k₀, hi))` to the worker's local best (publishing it into
    /// the shared bound on improvement), then retires the candidate if
    /// its MinDom penalty strictly exceeds the shared bound (Theorem 3)
    /// or its bracket has closed (Theorem 2).
    fn tighten(
        &self,
        l: &Layer<'_, '_>,
        cand: &BatchCand,
        delta: u64,
        local: &mut LocalBest,
        handle: &WorkerHandle<'_>,
    ) {
        let new = cand
            .bounds
            .fetch_add(delta, Ordering::AcqRel)
            .wrapping_add(delta);
        let (hi, lo) = ((new >> 32) as usize, new as u32 as usize);
        debug_assert!(lo >= 1 && hi >= lo);
        if !cand.active.load(Ordering::Acquire) {
            return;
        }
        l.offer(local, handle, &cand.doc, cand.edit_distance, cand.seq, hi);
        // `swap`, so concurrent tasks book a retirement exactly once.
        let retire = || cand.active.swap(false, Ordering::AcqRel);
        let traversal = self.tree.traversal();
        if l.ctx.penalty.penalty(cand.edit_distance, lo) > l.best.bound().value() {
            // Strict comparison, so the globally minimal candidate can
            // never be pruned — the basis of the thread-count determinism
            // argument.
            if retire() {
                bump(&l.stats.pruned_by_bound, 1);
                traversal.prune_mindom_traced(lo.min(u32::MAX as usize) as u32);
                handle.count_prune_hit();
            }
        } else if hi == lo && retire() {
            // Fully converged: the exact penalty has just been offered and
            // the frontier sums can never change again, so deeper nodes
            // stop paying for the candidate. Theorem 2's MaxDom bound
            // closed the gap without object-level access.
            traversal.prune_maxdom_traced(
                0,
                hi.min(u32::MAX as usize) as u32,
                lo.min(u32::MAX as usize) as u32,
                cand.edit_distance as u32,
            );
        }
    }
}

/// `(MaxDom, MinDom)` of one prepared node summary for one candidate,
/// maximised/minimised over the missing objects (§VI-A).
///
/// The candidate's term profile is built once — by the bitset gather
/// when `bits` is present, by the scalar merge otherwise — and shared
/// across every missing object's `max_dom`/`min_dom` threshold. Both
/// constructions produce the same [`wnsk_index::kcr::SCounts`], so the
/// bounds (and hence every work metric) are bit-identical by kernel.
fn entry_dom_bounds(
    prep: &PreparedNode,
    min_dist: f64,
    max_dist: f64,
    ctx: &WhyNotContext<'_>,
    p: &BatchCand,
) -> (u32, u32) {
    let sc = match &p.bits {
        Some(b) => prep.profile_bits(b),
        None => prep.profile(&p.doc),
    };
    let alpha = ctx.query.alpha;
    let mut hi = 0u32;
    let mut lo = u32::MAX;
    for (m, &tsim) in ctx.missing.iter().zip(&p.m_tsims) {
        let tl = tau_lower(alpha, min_dist, m.sdist, tsim);
        let tu = tau_upper(alpha, max_dist, m.sdist, tsim);
        hi = hi.max(max_dom_counts(prep, &sc, tl, ctx.query.sim));
        lo = lo.min(min_dom_counts(prep, &sc, tu, ctx.query.sim));
    }
    (hi, lo)
}

/// Per-missing-object strict dominance of one leaf object's exact score:
/// `(any, all)` feed the MaxDom/MinDom sums respectively.
fn leaf_dominance(score: f64, m_scores: &[f64]) -> (bool, bool) {
    let mut any = false;
    let mut all = true;
    for &m_score in m_scores {
        if score > m_score {
            any = true;
        } else {
            all = false;
        }
    }
    (any, all)
}
