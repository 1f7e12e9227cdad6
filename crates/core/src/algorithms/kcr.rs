//! The **KcRBased** bound-and-prune algorithm (§V, Algorithms 3 & 4).
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
//! Algorithm 4 drives the batches in ascending edit distance and stops as
//! soon as the next layer's keyword penalty alone can no longer beat
//! `p_c`. Each batch's traversal is an independent subtree-expansion
//! unit: the [`wnsk_exec`] work-stealing pool hands batches to workers,
//! which prune against the shared atomic bound mid-flight and keep
//! per-worker local bests that merge at the layer's sequence barrier —
//! so MaxDom/MinDom tightening stays deterministic and the refined
//! query is bit-identical to the single-threaded run (Fig. 10's
//! parallel variant; see [`crate::algorithms::shared`]).

use crate::algorithms::approx::degraded_fallback;
use crate::algorithms::basic::layer_sample;
use crate::algorithms::count;
use crate::algorithms::shared::{BestEntry, BestKey, LocalBest, SharedBest};
use crate::budget::{AnswerQuality, BudgetGuard, QueryBudget};
use crate::enumeration::{Candidate, CandidateEnumerator};
use crate::error::Result;
use crate::question::{AlgoStats, RefinedQuery, WhyNotAnswer, WhyNotContext, WhyNotQuestion};
use crate::rank::SetRankOutcome;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wnsk_exec::{ExecMetrics, Executor, SharedBound, TaskContext, WorkerHandle};
use wnsk_index::kcr::{
    max_dom_counts, min_dom_counts, tau_lower, tau_upper, KcrTopKSearch, PreparedNode,
};
use wnsk_index::{st_score, Dataset, KcrNode, KcrTree, NodeSummary, ObjectId};
use wnsk_obs::{Hist, SpanId, TracePayload, Tracer};
use wnsk_storage::BlobRef;
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

#[derive(Default)]
struct SharedStats {
    candidates_total: AtomicU64,
    pruned_by_bound: AtomicU64,
    nodes_expanded: AtomicU64,
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
    // The tracer lives on the tree (next to the traversal counters it
    // must stay in lockstep with); the query span wraps the whole run
    // so every path — including budget degradation and I/O errors —
    // leaves the scope clean.
    let tracer = tree.traversal().tracer().clone();
    let query_span = tracer.begin("kcr.query");
    tracer.set_scope(query_span.id());
    let result = run_inner(
        dataset,
        tree,
        question,
        opts,
        sample,
        &tracer,
        query_span.id(),
    );
    tracer.clear_scope();
    tracer.end(query_span);
    result
}

#[allow(clippy::too_many_arguments)]
fn run_inner(
    dataset: &Dataset,
    tree: &KcrTree,
    question: &WhyNotQuestion,
    opts: KcrOptions,
    sample: Option<Vec<Candidate>>,
    tracer: &Tracer,
    query: SpanId,
) -> Result<WhyNotAnswer> {
    question.validate(dataset)?;
    let start = Instant::now();
    let io_before = tree.pool().stats();
    let guard = BudgetGuard::new(opts.budget, Arc::clone(tree.pool()));

    // Work-stealing pool, one per query: reused for the initial rank and
    // every verification layer.
    let exec = Executor::new(opts.threads);
    let mut metrics = ExecMetrics::new(exec.threads());
    metrics.set_tracer(tracer.clone());
    let task_hist = Hist::new();
    metrics.set_task_hist(task_hist.clone());

    // Algorithm 4 line 1: determine R(M, q). With several workers the
    // rank is computed as a parallel dominator count over subtree tasks
    // (bit-identical to the scan — see [`crate::algorithms::count`]).
    let initial_targets: Vec<(ObjectId, f64)> = question
        .missing
        .iter()
        .map(|&id| (id, dataset.score(dataset.object(id), &question.query)))
        .collect();
    let rank_span = tracer.begin("phase.initial_rank");
    tracer.set_scope(rank_span.id());
    let outcome = if let Some(rank) = opts.initial_rank_hint {
        SetRankOutcome::Exact { rank }
    } else if exec.threads() > 1 {
        count::parallel_rank(
            tree,
            &exec,
            &metrics,
            &question.query,
            &initial_targets,
            &guard,
        )?
    } else {
        let mut scan = KcrTopKSearch::new(tree, question.query.clone());
        let outcome =
            crate::rank::rank_of_set(&mut scan, &initial_targets, None, false, Some(&guard))?;
        drop(scan);
        outcome
    };
    tracer.set_scope(query);
    tracer.end(rank_span);
    let phase_initial_rank = start.elapsed();
    let initial_rank = match outcome {
        SetRankOutcome::Exact { rank } => rank,
        _ => {
            let reason = guard.breached().expect("scan only stops early on breach");
            let stats = AlgoStats {
                wall: start.elapsed(),
                io: tree.pool().stats().since(&io_before).physical_reads,
                phase_initial_rank,
                ..AlgoStats::default()
            };
            return degraded_fallback(dataset, question, None, None, reason, &opts.budget, stats);
        }
    };
    // The fuzz harness's deliberately injected off-by-one (see
    // `KcrOptions::inject_rank_bug`): every downstream penalty reads the
    // perturbed Δk normaliser, so the BS oracle catches it.
    let initial_rank = if opts.inject_rank_bug {
        initial_rank + 1
    } else {
        initial_rank
    };
    tracer.event(
        "kcr.initial_rank",
        TracePayload::RankConverged {
            rank: initial_rank.min(u32::MAX as usize) as u32,
        },
    );

    let mut ctx = WhyNotContext::new(dataset, question, initial_rank)?;
    if opts.kernel == Kernel::Scalar {
        // A/B knob: dropping the kernel state sends every downstream
        // similarity and dominator bound through the merge-scan path.
        ctx.kernel = None;
    }
    let enumerator = CandidateEnumerator::new(&ctx);

    // Line 2: the basic refined query initialises the best.
    let best = SharedBest::new(ctx.baseline());
    let stats = SharedStats::default();

    // Layers are generated lazily for the full candidate space so a
    // budget breach skips the exponentially larger deep layers entirely.
    let mut phase_enumeration = Duration::ZERO;
    let mut sample_size = None;
    let ready_layers: Option<Vec<(usize, Vec<Candidate>)>> = match sample {
        None => None,
        Some(sample) => {
            sample_size = Some(sample.len());
            let t = Instant::now();
            let layers = layer_sample(sample);
            phase_enumeration += t.elapsed();
            Some(layers)
        }
    };
    let depths: Vec<usize> = match &ready_layers {
        None => (1..=enumerator.max_edit_distance()).collect(),
        Some(layers) => layers.iter().map(|&(d, _)| d).collect(),
    };
    let mut ready_layers = ready_layers.map(|l| l.into_iter());

    // Global candidate sequence numbers (baseline = 0), mirroring
    // AdvancedBS.
    let mut next_seq: u64 = 1;

    let verification_started = Instant::now();
    for d in depths {
        if guard.check().is_some() {
            break;
        }
        let layer: Vec<Candidate> = match &mut ready_layers {
            Some(iter) => iter.next().expect("depths mirror the ready layers").1,
            None => {
                let t = Instant::now();
                let layer = enumerator.layer(d, true);
                phase_enumeration += t.elapsed();
                layer
            }
        };
        // Line 4: the next batch's keyword penalty alone disqualifies
        // it. `best` is fully merged here (sequence barrier), so the
        // termination point is identical for every thread count.
        if ctx.penalty.keyword_penalty(d) >= best.penalty() {
            stats
                .pruned_by_bound
                .fetch_add(layer.len() as u64, Ordering::Relaxed);
            break;
        }
        stats
            .candidates_total
            .fetch_add(layer.len() as u64, Ordering::Relaxed);
        // One span per verification layer; worker-side events (prunes,
        // steals, pool reads) attach to it through the global scope,
        // which is only moved here, between the layer barriers.
        let layer_span = tracer.begin("kcr.layer");
        tracer.set_scope(layer_span.id());
        let base_seq = next_seq;
        next_seq += layer.len() as u64;
        // Split the layer into benefit-ordered batches, each carrying
        // the sequence number of its first candidate. The partition is
        // identical for every thread count — parallelism comes from the
        // per-node subtree tasks below, not from slicing batches thinner
        // (which would duplicate per-batch root traversals).
        let batch_size = opts.batch_size.max(1);
        let mut tasks: Vec<(u64, Vec<Candidate>)> = Vec::new();
        let mut rest = layer;
        let mut seq0 = base_seq;
        while !rest.is_empty() {
            let take = batch_size.min(rest.len());
            let tail = rest.split_off(take);
            let taken = std::mem::replace(&mut rest, tail);
            tasks.push((seq0, taken));
            seq0 += take as u64;
        }
        let locals = if exec.threads() > 1 {
            // Dynamic mode: each batch seeds a shared traversal whose
            // frontier *nodes* are independent pool tasks — one
            // expensive subtree no longer serialises its whole batch,
            // and idle workers steal node expansions mid-batch. The
            // per-candidate rank bracket lives in a packed atomic;
            // every observed state is a valid frontier, so pruning and
            // offers stay exact (see [`ParCand`]).
            exec.run_dynamic(
                tasks
                    .into_iter()
                    .map(|(seq0, batch)| KcrTask::Batch(seq0, batch))
                    .collect(),
                &metrics,
                || guard.check().is_some(),
                |_worker| LocalBest::new(),
                |local, task, tctx| match task {
                    KcrTask::Batch(seq0, batch) => {
                        launch_batch(tree, &ctx, seq0, batch, best.bound(), local, &stats, tctx)
                    }
                    KcrTask::Node(scan, node, contrib) => expand_batch_node(
                        tree,
                        &ctx,
                        &scan,
                        node,
                        &contrib,
                        best.bound(),
                        local,
                        &stats,
                        tctx,
                    ),
                },
            )?
        } else {
            exec.run(
                tasks,
                &metrics,
                || guard.check().is_some(),
                |_worker| LocalBest::new(),
                |local, (seq0, batch), handle| {
                    // Batches run in rough benefit order pool-wide; a later
                    // batch whose whole layer is already beaten is pruned by
                    // the root bounds almost immediately.
                    bound_and_prune(
                        tree,
                        &ctx,
                        &batch,
                        seq0,
                        best.bound(),
                        local,
                        &stats,
                        &guard,
                        handle,
                    )
                },
            )?
        };
        // Sequence barrier: merge per-worker bests deterministically.
        for local in locals {
            best.merge(local);
        }
        tracer.set_scope(query);
        tracer.end(layer_span);
        if guard.breached().is_some() {
            break;
        }
    }

    let refined = best.into_inner();
    let totals = metrics.totals();
    let stats = AlgoStats {
        wall: start.elapsed(),
        io: tree.pool().stats().since(&io_before).physical_reads,
        candidates_total: stats.candidates_total.into_inner(),
        pruned_by_bound: stats.pruned_by_bound.into_inner(),
        nodes_expanded: stats.nodes_expanded.into_inner(),
        tasks_stolen: totals.stolen,
        bound_refreshes: totals.bound_refreshes,
        prune_hits: totals.prune_hits,
        workers: metrics.per_worker(),
        initial_rank: initial_rank as u64,
        phase_initial_rank,
        phase_enumeration,
        phase_verification: verification_started.elapsed(),
        task_latency: task_hist.snapshot(),
        ..AlgoStats::default()
    };
    if let Some(reason) = guard.breached() {
        return degraded_fallback(
            dataset,
            question,
            Some(initial_rank),
            Some(refined),
            reason,
            &opts.budget,
            stats,
        );
    }
    let quality = match sample_size {
        Some(sample_size) => AnswerQuality::Approximate { sample_size },
        None => AnswerQuality::Exact,
    };
    Ok(WhyNotAnswer {
        refined,
        stats,
        quality,
    })
}

/// Per-candidate traversal state.
struct CandState {
    doc: KeywordSet,
    /// `doc` projected onto the question universe (bitset kernel only;
    /// candidates are subsets of the universe, so this is lossless).
    bits: Option<ProjectedSet>,
    edit_distance: usize,
    /// Global candidate sequence number (lexicographic merge tiebreak).
    seq: u64,
    /// `TSim(m_i, S)` per missing object.
    m_tsims: Vec<f64>,
    /// `ST(m_i, q_S)` per missing object (for exact leaf dominance).
    m_scores: Vec<f64>,
    rank_hi: i64,
    rank_lo: i64,
    active: bool,
}

/// Builds a [`PreparedNode`] matching the context's kernel: with the
/// packed per-slot counts when the bitset kernel is active.
fn prepare_node(summary: &NodeSummary, ctx: &WhyNotContext<'_>) -> PreparedNode {
    match ctx.kernel.as_ref() {
        Some(k) => PreparedNode::with_projection(summary, k.universe()),
        None => PreparedNode::new(summary),
    }
}

struct QueuedNode {
    node: BlobRef,
    /// Per-candidate `(MaxDom, MinDom)` contribution of this node to the
    /// frontier sums.
    contrib: Vec<(u32, u32)>,
}

/// Algorithm 3: finds the best refined query among `candidates` in one
/// KcR-tree traversal, folding improvements into the worker's local
/// best and publishing achieved penalties into the shared bound.
/// `seq0` is the global sequence number of `candidates[0]` (the batch
/// is contiguous in enumeration order).
#[allow(clippy::too_many_arguments)]
fn bound_and_prune(
    tree: &KcrTree,
    ctx: &WhyNotContext<'_>,
    candidates: &[Candidate],
    seq0: u64,
    bound: &SharedBound,
    local: &mut LocalBest,
    stats: &SharedStats,
    guard: &BudgetGuard,
    handle: &WorkerHandle<'_>,
) -> Result<()> {
    if candidates.is_empty() {
        return Ok(());
    }
    let alpha = ctx.query.alpha;
    let world = tree.world();

    let mut cands: Vec<CandState> = candidates
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let m_tsims: Vec<f64> = ctx
                .missing
                .iter()
                .map(|m| ctx.query.sim.similarity(&m.doc, &c.doc))
                .collect();
            let m_scores: Vec<f64> = ctx
                .missing
                .iter()
                .zip(&m_tsims)
                .map(|(m, &tsim)| st_score(alpha, m.sdist, tsim))
                .collect();
            CandState {
                bits: ctx.kernel.as_ref().map(|k| k.project(&c.doc)),
                doc: c.doc.clone(),
                edit_distance: c.edit_distance,
                seq: seq0 + i as u64,
                m_tsims,
                m_scores,
                rank_hi: 1,
                rank_lo: 1,
                active: true,
            }
        })
        .collect();

    // Lines 2–6: initial bounds from the root summary.
    let root_summary = tree.root_summary().map_err(crate::WhyNotError::Storage)?;
    let root_contrib = node_contrib(&root_summary, ctx, &mut cands, world);
    for (cand, &(hi, lo)) in cands.iter_mut().zip(&root_contrib) {
        cand.rank_hi += hi as i64;
        cand.rank_lo += lo as i64;
    }
    let traversal = tree.traversal();
    refresh_candidates(ctx, &mut cands, bound, local, stats, traversal, handle);
    if !cands.iter().any(|c| c.active) {
        return Ok(());
    }

    let mut queue: VecDeque<QueuedNode> = VecDeque::new();
    queue.push_back(QueuedNode {
        node: tree.root(),
        contrib: root_contrib,
    });

    // Lines 8–32: traverse, tightening the frontier sums.
    while let Some(qn) = queue.pop_front() {
        // Cooperative checkpoint: each pop costs at least one page read,
        // so checking per pop keeps overhead negligible. The best found
        // so far stays valid (rank_hi penalties are achievable).
        if guard.check().is_some() {
            return Ok(());
        }
        if !cands.iter().any(|c| c.active) {
            // Every candidate retired: nothing enqueued will be visited.
            traversal.nodes_pruned.add(queue.len() as u64 + 1);
            return Ok(());
        }
        let node = tree
            .read_node(qn.node)
            .map_err(crate::WhyNotError::Storage)?;
        stats.nodes_expanded.fetch_add(1, Ordering::Relaxed);

        // Gather each child's per-candidate contribution.
        let mut child_nodes: Vec<(BlobRef, Vec<(u32, u32)>)> = Vec::new();
        let mut sums: Vec<(i64, i64)> = vec![(0, 0); cands.len()];
        match node {
            KcrNode::Internal(entries) => {
                for e in &entries {
                    let summary = tree.entry_summary(e).map_err(crate::WhyNotError::Storage)?;
                    let contrib = node_contrib(&summary, ctx, &mut cands, world);
                    for (i, &(hi, lo)) in contrib.iter().enumerate() {
                        sums[i].0 += hi as i64;
                        sums[i].1 += lo as i64;
                    }
                    // Line 29–32: only children whose bounds are still
                    // loose for some active candidate can tighten anything.
                    let loose = cands
                        .iter()
                        .zip(&contrib)
                        .any(|(c, &(hi, lo))| c.active && hi != lo);
                    if loose {
                        child_nodes.push((e.child, contrib));
                    } else {
                        // The dominance bounds agree for every active
                        // candidate: this subtree can never tighten the
                        // frontier sums, so it is pruned unvisited.
                        traversal.nodes_pruned_traced(e.child.first_page.0, 0);
                    }
                }
            }
            KcrNode::Leaf(entries) => {
                for e in &entries {
                    let doc = tree.read_doc(e.doc).map_err(crate::WhyNotError::Storage)?;
                    // Bitset kernel: project the document once, then each
                    // candidate similarity is AND + popcount.
                    let doc_bits = ctx.kernel.as_ref().map(|k| k.project(&doc));
                    let sdist = world.normalized_dist(&e.loc, &ctx.query.loc);
                    for (i, cand) in cands.iter().enumerate() {
                        if !cand.active {
                            continue;
                        }
                        let tsim = match (&doc_bits, &cand.bits) {
                            (Some(db), Some(cb)) => ctx.query.sim.similarity_bits(db, cb),
                            _ => ctx.query.sim.similarity(&doc, &cand.doc),
                        };
                        let score = st_score(alpha, sdist, tsim);
                        // max_i / min_i of per-missing dominance flags.
                        let (any, all) = leaf_dominance(score, &cand.m_scores);
                        sums[i].0 += any as i64;
                        sums[i].1 += all as i64;
                    }
                }
            }
        }

        // Lines 18–19: replace this node's contribution by its children's.
        for (i, cand) in cands.iter_mut().enumerate() {
            if !cand.active {
                continue;
            }
            cand.rank_hi += sums[i].0 - qn.contrib[i].0 as i64;
            cand.rank_lo += sums[i].1 - qn.contrib[i].1 as i64;
            debug_assert!(cand.rank_lo >= 1 && cand.rank_hi >= cand.rank_lo);
        }
        refresh_candidates(ctx, &mut cands, bound, local, stats, traversal, handle);

        for (node, contrib) in child_nodes {
            queue.push_back(QueuedNode { node, contrib });
        }
    }
    Ok(())
}

/// `(MaxDom, MinDom)` of one prepared node summary for one candidate,
/// maximised/minimised over the missing objects (§VI-A).
///
/// The candidate's term profile is built once — by the bitset gather
/// when `bits` is present, by the scalar merge otherwise — and shared
/// across every missing object's `max_dom`/`min_dom` threshold. Both
/// constructions produce the same [`wnsk_index::kcr::SCounts`], so the
/// bounds (and hence every work metric) are bit-identical by kernel.
#[allow(clippy::too_many_arguments)]
fn entry_dom_bounds(
    prep: &PreparedNode,
    min_dist: f64,
    max_dist: f64,
    ctx: &WhyNotContext<'_>,
    doc: &KeywordSet,
    bits: Option<&ProjectedSet>,
    m_tsims: &[f64],
) -> (u32, u32) {
    let sc = match bits {
        Some(b) => prep.profile_bits(b),
        None => prep.profile(doc),
    };
    let alpha = ctx.query.alpha;
    let mut hi = 0u32;
    let mut lo = u32::MAX;
    for (m, &tsim) in ctx.missing.iter().zip(m_tsims) {
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

/// Computes the per-candidate `(MaxDom, MinDom)` of one node summary,
/// maximised/minimised over the missing objects (§VI-A).
fn node_contrib(
    summary: &NodeSummary,
    ctx: &WhyNotContext<'_>,
    cands: &mut [CandState],
    world: &wnsk_geo::WorldBounds,
) -> Vec<(u32, u32)> {
    let prep = prepare_node(summary, ctx);
    let min_dist = world.normalized_min_dist(&ctx.query.loc, &summary.mbr);
    let max_dist = world.normalized_max_dist(&ctx.query.loc, &summary.mbr);
    cands
        .iter()
        .map(|cand| {
            if !cand.active {
                return (0, 0);
            }
            entry_dom_bounds(
                &prep,
                min_dist,
                max_dist,
                ctx,
                &cand.doc,
                cand.bits.as_ref(),
                &cand.m_tsims,
            )
        })
        .collect()
}

/// Lines 20–26: recompute penalty bounds, improve the worker's local
/// best with the (always achievable) upper bound, prune candidates
/// whose lower bound already exceeds the shared bound.
#[allow(clippy::too_many_arguments)]
fn refresh_candidates(
    ctx: &WhyNotContext<'_>,
    cands: &mut [CandState],
    bound: &SharedBound,
    local: &mut LocalBest,
    stats: &SharedStats,
    traversal: &wnsk_index::TraversalStats,
    handle: &WorkerHandle<'_>,
) {
    for cand in cands.iter_mut() {
        if !cand.active {
            continue;
        }
        let rank_hi = cand.rank_hi as usize;
        let rank_lo = cand.rank_lo as usize;
        let pn_hi = ctx.penalty.penalty(cand.edit_distance, rank_hi);
        let pn_lo = ctx.penalty.penalty(cand.edit_distance, rank_lo);
        // The refined query (S, max(k₀, rank_hi)) certainly contains M,
        // so pn_hi is achievable: offer it to the worker-local best and,
        // on improvement, publish the penalty into the lock-free shared
        // bound so sibling workers prune against it mid-layer.
        let key = BestKey::new(pn_hi, cand.seq, rank_hi);
        let improved = local.improve_with(key, || {
            BestEntry::new(
                RefinedQuery {
                    doc: cand.doc.clone(),
                    k: ctx.refined_k(rank_hi),
                    rank: rank_hi,
                    edit_distance: cand.edit_distance,
                    penalty: pn_hi,
                },
                cand.seq,
            )
        });
        if improved && bound.refresh(pn_hi) {
            handle.count_bound_refresh();
        }
        if pn_lo > bound.value() {
            // Theorem 3: the MinDom-derived penalty lower bound already
            // exceeds the best refined query. Strict comparison, so the
            // globally minimal candidate can never be pruned — the basis
            // of the thread-count determinism argument.
            cand.active = false;
            stats.pruned_by_bound.fetch_add(1, Ordering::Relaxed);
            traversal.prune_mindom_traced(rank_lo.min(u32::MAX as usize) as u32);
            handle.count_prune_hit();
        } else if cand.rank_hi == cand.rank_lo {
            // Fully converged: the frontier sums can never change again
            // (every per-node contribution gap is zero), and the exact
            // penalty has just been offered to the local best — retire
            // the candidate so deeper nodes stop paying for it.
            // Theorem 2's MaxDom bound closed the gap without
            // object-level access.
            cand.active = false;
            traversal.prune_maxdom_traced(
                0,
                rank_hi.min(u32::MAX as usize) as u32,
                rank_lo.min(u32::MAX as usize) as u32,
                cand.edit_distance as u32,
            );
        }
    }
}

// ---------------------------------------------------------------------
// Dynamic (threads > 1) batch traversal: frontier nodes as pool tasks.
// ---------------------------------------------------------------------

/// One candidate of a parallel batch traversal. The rank bracket lives
/// in one packed atomic — `(rank_hi << 32) | rank_lo` — so a node task
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
struct ParCand {
    doc: KeywordSet,
    /// `doc` projected onto the question universe (bitset kernel only).
    bits: Option<ProjectedSet>,
    edit_distance: usize,
    /// Global candidate sequence number (lexicographic merge tiebreak).
    seq: u64,
    /// `TSim(m_i, S)` per missing object.
    m_tsims: Vec<f64>,
    /// `ST(m_i, q_S)` per missing object (for exact leaf dominance).
    m_scores: Vec<f64>,
    /// Packed `(rank_hi << 32) | rank_lo`, both including the `1 +`.
    bounds: AtomicU64,
    active: AtomicBool,
}

/// The shared state of one batch's traversal; node tasks hold it by
/// [`Arc`] and apply their bound deltas concurrently.
struct BatchScan {
    cands: Vec<ParCand>,
}

/// A task of the dynamic KcR layer execution: a whole candidate batch
/// (roots its traversal) or one frontier node of an in-flight batch,
/// carrying that node's per-candidate `(MaxDom, MinDom)` contribution.
enum KcrTask {
    Batch(u64, Vec<Candidate>),
    Node(Arc<BatchScan>, BlobRef, Vec<(u32, u32)>),
}

fn pack_bounds(hi: u32, lo: u32) -> u64 {
    ((hi as u64) << 32) | lo as u64
}

fn pack_delta(dhi: i64, dlo: i64) -> u64 {
    (dhi << 32).wrapping_add(dlo) as u64
}

/// The parallel counterpart of one candidate's slice of
/// [`refresh_candidates`], fed the post-delta packed value the caller
/// computed from its own `fetch_add` return.
#[allow(clippy::too_many_arguments)]
fn refresh_one(
    ctx: &WhyNotContext<'_>,
    cand: &ParCand,
    hi: u32,
    lo: u32,
    bound: &SharedBound,
    local: &mut LocalBest,
    stats: &SharedStats,
    traversal: &wnsk_index::TraversalStats,
    handle: &WorkerHandle<'_>,
) {
    if !cand.active.load(Ordering::Acquire) {
        return;
    }
    let rank_hi = hi as usize;
    let rank_lo = lo as usize;
    let pn_hi = ctx.penalty.penalty(cand.edit_distance, rank_hi);
    let pn_lo = ctx.penalty.penalty(cand.edit_distance, rank_lo);
    let key = BestKey::new(pn_hi, cand.seq, rank_hi);
    let improved = local.improve_with(key, || {
        BestEntry::new(
            RefinedQuery {
                doc: cand.doc.clone(),
                k: ctx.refined_k(rank_hi),
                rank: rank_hi,
                edit_distance: cand.edit_distance,
                penalty: pn_hi,
            },
            cand.seq,
        )
    });
    if improved && bound.refresh(pn_hi) {
        handle.count_bound_refresh();
    }
    if pn_lo > bound.value() {
        // Theorem 3 (strict, so the minimal candidate never prunes);
        // `swap` so concurrent tasks book the retirement exactly once.
        if cand.active.swap(false, Ordering::AcqRel) {
            stats.pruned_by_bound.fetch_add(1, Ordering::Relaxed);
            traversal.prune_mindom_traced(lo);
            handle.count_prune_hit();
        }
    } else if hi == lo {
        // Theorem 2: the bracket closed — `pn_hi` just offered is exact.
        if cand.active.swap(false, Ordering::AcqRel) {
            traversal.prune_maxdom_traced(0, hi, lo, cand.edit_distance as u32);
        }
    }
}

/// Dynamic-mode batch seed: builds the shared candidate states, applies
/// the root-summary bounds (Algorithm 3 lines 2–6) and hands the root
/// node to the pool as the traversal's first frontier task.
#[allow(clippy::too_many_arguments)]
fn launch_batch(
    tree: &KcrTree,
    ctx: &WhyNotContext<'_>,
    seq0: u64,
    batch: Vec<Candidate>,
    bound: &SharedBound,
    local: &mut LocalBest,
    stats: &SharedStats,
    tctx: &TaskContext<'_, KcrTask>,
) -> Result<()> {
    if batch.is_empty() {
        return Ok(());
    }
    let alpha = ctx.query.alpha;
    let world = tree.world();
    let cands: Vec<ParCand> = batch
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let m_tsims: Vec<f64> = ctx
                .missing
                .iter()
                .map(|m| ctx.query.sim.similarity(&m.doc, &c.doc))
                .collect();
            let m_scores: Vec<f64> = ctx
                .missing
                .iter()
                .zip(&m_tsims)
                .map(|(m, &tsim)| st_score(alpha, m.sdist, tsim))
                .collect();
            ParCand {
                bits: ctx.kernel.as_ref().map(|k| k.project(&c.doc)),
                doc: c.doc.clone(),
                edit_distance: c.edit_distance,
                seq: seq0 + i as u64,
                m_tsims,
                m_scores,
                bounds: AtomicU64::new(pack_bounds(1, 1)),
                active: AtomicBool::new(true),
            }
        })
        .collect();
    let scan = Arc::new(BatchScan { cands });

    let root_summary = tree.root_summary().map_err(crate::WhyNotError::Storage)?;
    let prep = prepare_node(&root_summary, ctx);
    let min_dist = world.normalized_min_dist(&ctx.query.loc, &root_summary.mbr);
    let max_dist = world.normalized_max_dist(&ctx.query.loc, &root_summary.mbr);
    let traversal = tree.traversal();
    let mut root_contrib = Vec::with_capacity(scan.cands.len());
    for cand in &scan.cands {
        let (hi, lo) = entry_dom_bounds(
            &prep,
            min_dist,
            max_dist,
            ctx,
            &cand.doc,
            cand.bits.as_ref(),
            &cand.m_tsims,
        );
        let delta = pack_delta(hi as i64, lo as i64);
        let new = cand
            .bounds
            .fetch_add(delta, Ordering::AcqRel)
            .wrapping_add(delta);
        refresh_one(
            ctx,
            cand,
            (new >> 32) as u32,
            new as u32,
            bound,
            local,
            stats,
            traversal,
            &tctx.handle,
        );
        root_contrib.push((hi, lo));
    }
    // An active candidate always has a loose bracket (refresh retires
    // `hi == lo`), so any survivor justifies expanding the root.
    if scan.cands.iter().any(|c| c.active.load(Ordering::Acquire)) {
        tctx.spawn(KcrTask::Node(scan, tree.root(), root_contrib));
    } else {
        traversal.nodes_pruned_traced(tree.root().first_page.0, 0);
    }
    Ok(())
}

/// Dynamic-mode frontier step (Algorithm 3 lines 8–32 for one node):
/// replaces this node's per-candidate contribution by its children's —
/// one packed `fetch_add` per candidate, applied *before* any child is
/// spawned so coherence order respects tree order (see [`ParCand`]) —
/// and forks the still-loose children as new pool tasks.
#[allow(clippy::too_many_arguments)]
fn expand_batch_node(
    tree: &KcrTree,
    ctx: &WhyNotContext<'_>,
    scan: &Arc<BatchScan>,
    node_ref: BlobRef,
    contrib: &[(u32, u32)],
    bound: &SharedBound,
    local: &mut LocalBest,
    stats: &SharedStats,
    tctx: &TaskContext<'_, KcrTask>,
) -> Result<()> {
    let traversal = tree.traversal();
    // Snapshot: a candidate retired after this never receives another
    // delta from this task's subtree (its bracket is already final or
    // its penalty already beaten — either way its bounds are dead).
    let actives: Vec<bool> = scan
        .cands
        .iter()
        .map(|c| c.active.load(Ordering::Acquire))
        .collect();
    if !actives.iter().any(|&a| a) {
        traversal.nodes_pruned_traced(node_ref.first_page.0, 0);
        return Ok(());
    }
    let node = tree
        .read_node(node_ref)
        .map_err(crate::WhyNotError::Storage)?;
    stats.nodes_expanded.fetch_add(1, Ordering::Relaxed);
    let alpha = ctx.query.alpha;
    let world = tree.world();

    let mut child_nodes: Vec<(BlobRef, Vec<(u32, u32)>)> = Vec::new();
    let mut sums: Vec<(i64, i64)> = vec![(0, 0); scan.cands.len()];
    match node {
        KcrNode::Internal(entries) => {
            for e in &entries {
                let summary = tree.entry_summary(e).map_err(crate::WhyNotError::Storage)?;
                let prep = prepare_node(&summary, ctx);
                let min_dist = world.normalized_min_dist(&ctx.query.loc, &summary.mbr);
                let max_dist = world.normalized_max_dist(&ctx.query.loc, &summary.mbr);
                let child_contrib: Vec<(u32, u32)> = scan
                    .cands
                    .iter()
                    .zip(&actives)
                    .map(|(cand, &a)| {
                        if !a {
                            return (0, 0);
                        }
                        entry_dom_bounds(
                            &prep,
                            min_dist,
                            max_dist,
                            ctx,
                            &cand.doc,
                            cand.bits.as_ref(),
                            &cand.m_tsims,
                        )
                    })
                    .collect();
                for (i, &(hi, lo)) in child_contrib.iter().enumerate() {
                    sums[i].0 += hi as i64;
                    sums[i].1 += lo as i64;
                }
                let loose = actives
                    .iter()
                    .zip(&child_contrib)
                    .any(|(&a, &(hi, lo))| a && hi != lo);
                if loose {
                    child_nodes.push((e.child, child_contrib));
                } else {
                    traversal.nodes_pruned_traced(e.child.first_page.0, 0);
                }
            }
        }
        KcrNode::Leaf(entries) => {
            for e in &entries {
                let doc = tree.read_doc(e.doc).map_err(crate::WhyNotError::Storage)?;
                let doc_bits = ctx.kernel.as_ref().map(|k| k.project(&doc));
                let sdist = world.normalized_dist(&e.loc, &ctx.query.loc);
                for (i, cand) in scan.cands.iter().enumerate() {
                    if !actives[i] {
                        continue;
                    }
                    let tsim = match (&doc_bits, &cand.bits) {
                        (Some(db), Some(cb)) => ctx.query.sim.similarity_bits(db, cb),
                        _ => ctx.query.sim.similarity(&doc, &cand.doc),
                    };
                    let score = st_score(alpha, sdist, tsim);
                    let (any, all) = leaf_dominance(score, &cand.m_scores);
                    sums[i].0 += any as i64;
                    sums[i].1 += all as i64;
                }
            }
        }
    }

    // Apply every delta before spawning any child — load-bearing for
    // the valid-frontier invariant (see [`ParCand`]).
    for (i, cand) in scan.cands.iter().enumerate() {
        if !actives[i] {
            continue;
        }
        let delta = pack_delta(
            sums[i].0 - contrib[i].0 as i64,
            sums[i].1 - contrib[i].1 as i64,
        );
        let new = cand
            .bounds
            .fetch_add(delta, Ordering::AcqRel)
            .wrapping_add(delta);
        refresh_one(
            ctx,
            cand,
            (new >> 32) as u32,
            new as u32,
            bound,
            local,
            stats,
            traversal,
            &tctx.handle,
        );
    }
    for (child, child_contrib) in child_nodes {
        tctx.spawn(KcrTask::Node(Arc::clone(scan), child, child_contrib));
    }
    Ok(())
}
