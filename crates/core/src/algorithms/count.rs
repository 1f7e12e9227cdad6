//! Counting-based parallel rank: `R(M, q')` as an embarrassingly
//! parallel dominator count over subtree tasks.
//!
//! The rank of the worst missing object is one plus the number of
//! objects scoring *strictly* above `min_i ST(m_i, q')` (Eqn. 3 — ties
//! are never dominators, see `rank::rank_of_set`). A best-first scan
//! computes that count serially; this module computes the identical
//! count by descending only into subtrees whose score upper bound
//! exceeds the target score and tallying leaf dominators into a shared
//! atomic. Each subtree descent is an independent task for the
//! [`wnsk_exec`] pool, so one expensive rank determination parallelises
//! across workers instead of stalling a layer — the "independent
//! subtree expansion" half of the Fig. 10 executor.
//!
//! Determinism: the count over the pruned tree is a pure function of
//! the query, so the rank is bit-identical to the sequential scan for
//! every thread count and steal schedule. Early aborts (the live Opt1
//! limit) only ever fire for candidates whose exact penalty provably
//! exceeds the shared bound, which the minimal-penalty candidate never
//! does.

use crate::budget::BudgetGuard;
use crate::error::Result;
use crate::rank::SetRankOutcome;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use wnsk_exec::{ExecMetrics, Executor};
use wnsk_index::{
    AggTree, Aggregate, LeafSimKernel, ObjectId, ScoredChildren, SpatialKeywordQuery,
};
use wnsk_storage::BlobRef;

/// Shared state of one counting rank determination. Node tasks tally
/// dominators into `dominators`; `pending` tracks the scan's own
/// outstanding node tasks so the task that completes the last one can
/// finalise the candidate.
pub(crate) struct CountScan {
    query: SpatialKeywordQuery,
    min_score: f64,
    dominators: AtomicUsize,
    pending: AtomicUsize,
    aborted: AtomicBool,
    /// Dominator ids for the Opt3 cache (empty unless collecting).
    pub(crate) found: Mutex<Vec<ObjectId>>,
    collect: bool,
    /// Bitset kernel for leaf similarities (`None` = scalar merge).
    kernel: Option<LeafSimKernel>,
}

impl CountScan {
    pub(crate) fn new(
        query: SpatialKeywordQuery,
        min_score: f64,
        collect: bool,
        kernel: Option<LeafSimKernel>,
    ) -> Self {
        CountScan {
            query,
            min_score,
            dominators: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            found: Mutex::new(Vec::new()),
            collect,
            kernel,
        }
    }

    /// Dominators counted so far (exact once the scan has drained).
    pub(crate) fn count(&self) -> usize {
        self.dominators.load(Ordering::Acquire)
    }

    /// Marks the scan dead: remaining node tasks fast-skip their work.
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
    }

    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Registers one more outstanding node task. Call strictly before
    /// the task becomes visible to the pool.
    pub(crate) fn add_pending(&self) {
        self.pending.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks one node task done; `true` when it was the scan's last
    /// (the caller finalises the candidate).
    pub(crate) fn complete_one(&self) -> bool {
        self.pending.fetch_sub(1, Ordering::SeqCst) == 1
    }

    /// Expands one node: leaf dominators are tallied, child subtrees
    /// whose score bound exceeds the target are handed to `spawn`
    /// (which must route them back into this scan as node tasks).
    pub(crate) fn expand_node<A: Aggregate>(
        &self,
        tree: &AggTree<A>,
        node: BlobRef,
        mut spawn: impl FnMut(BlobRef),
    ) -> Result<()> {
        match tree
            .scored_children_with(&self.query, node, self.kernel.as_ref())
            .map_err(crate::WhyNotError::Storage)?
        {
            ScoredChildren::Leaf(objects) => {
                let mut n = 0usize;
                for (id, score) in objects {
                    if score > self.min_score {
                        n += 1;
                        if self.collect {
                            self.found.lock().push(id);
                        }
                    }
                }
                if n > 0 {
                    self.dominators.fetch_add(n, Ordering::AcqRel);
                }
            }
            ScoredChildren::Internal(children) => {
                let mut pruned = 0u64;
                for (child, bound) in children {
                    // Strictly-greater: a subtree bounded at exactly the
                    // target score can only contain ties, never a
                    // dominator.
                    if bound > self.min_score {
                        spawn(child);
                    } else {
                        pruned += 1;
                    }
                }
                if pruned > 0 {
                    tree.traversal().nodes_pruned.add(pruned);
                }
            }
        }
        Ok(())
    }
}

/// Computes `R(M, q)` — one plus the strict-dominator count of the
/// worst-scoring target — by fanning subtree tasks across `exec`.
/// Returns the identical rank to the sequential `rank_of_set` scan.
pub(crate) fn parallel_rank<A: Aggregate>(
    tree: &AggTree<A>,
    exec: &Executor,
    metrics: &ExecMetrics,
    query: &SpatialKeywordQuery,
    targets: &[(ObjectId, f64)],
    guard: &BudgetGuard,
) -> Result<SetRankOutcome> {
    assert!(
        !targets.is_empty(),
        "parallel_rank needs at least one target"
    );
    if tree.is_empty() {
        return Ok(SetRankOutcome::Exact { rank: 1 });
    }
    let min_score = targets
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::INFINITY, f64::min);
    // The initial-rank scan runs against the *initial* query, before a
    // question universe exists — it stays on the scalar path under both
    // kernels (one scan per question; nothing to amortise).
    let scan = CountScan::new(query.clone(), min_score, false, None);
    exec.run_dynamic(
        vec![tree.root()],
        metrics,
        || guard.check().is_some(),
        |_| (),
        |_state, node, ctx| -> Result<()> {
            scan.expand_node(tree, node, |child| ctx.spawn(child))
        },
    )?;
    if let Some(reason) = guard.breached() {
        return Ok(SetRankOutcome::Breached { reason });
    }
    Ok(SetRankOutcome::Exact {
        rank: scan.count() + 1,
    })
}
