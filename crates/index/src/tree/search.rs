//! Best-first search: incremental top-k retrieval and the rank-of-object
//! search with early stop.
//!
//! The priority of an internal entry is the tree's score upper bound for
//! the subtree (`MinDist` combined with [`Aggregate::text_bound`]);
//! objects enter the queue with their exact score, so the queue emits
//! objects in non-increasing score order. Equal scores are resolved
//! deterministically: nodes are expanded before equal-priority objects are
//! emitted, and equal-scored objects are emitted in ascending object id.

use super::{AggTree, Aggregate};
use crate::descend::ScoredChildren;
use crate::model::ObjectId;
use crate::query::SpatialKeywordQuery;
use crate::stream::ObjectStream;
use crate::util::OrdF64;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use wnsk_storage::{BlobRef, Result};

enum Item {
    Node(BlobRef),
    Object(ObjectId),
}

struct HeapEntry {
    score: OrdF64,
    item: Item,
}

impl HeapEntry {
    /// Nodes sort before objects at equal score so every subtree that
    /// might still contain an equally scored object is expanded first;
    /// equal-scored objects emit in ascending id.
    fn rank_key(&self) -> (OrdF64, u8, std::cmp::Reverse<u32>) {
        match self.item {
            Item::Node(_) => (self.score, 1, std::cmp::Reverse(0)),
            Item::Object(id) => (self.score, 0, std::cmp::Reverse(id.0)),
        }
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.rank_key() == other.rank_key()
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank_key().cmp(&other.rank_key())
    }
}

/// An incremental best-first scan.
///
/// Yields `(object, score)` pairs in non-increasing score order; callers
/// stop pulling when they have seen enough (top-k, rank search, early
/// stop...). Errors from storage surface as `Err` items.
pub struct BestFirst<'a, A: Aggregate> {
    tree: &'a AggTree<A>,
    query: SpatialKeywordQuery,
    heap: BinaryHeap<HeapEntry>,
    primed: bool,
}

impl<A: Aggregate> Drop for BestFirst<'_, A> {
    fn drop(&mut self) {
        // Subtrees still enqueued when the scan stops were never
        // descended into: the score bound (via score ordering plus the
        // caller's early termination) pruned them.
        let pruned = self
            .heap
            .iter()
            .filter(|e| matches!(e.item, Item::Node(_)))
            .count();
        if pruned > 0 {
            self.tree.traversal().nodes_pruned.add(pruned as u64);
        }
    }
}

impl<'a, A: Aggregate> BestFirst<'a, A> {
    /// Starts a scan for `query` over `tree`.
    pub fn new(tree: &'a AggTree<A>, query: SpatialKeywordQuery) -> Self {
        BestFirst {
            tree,
            query,
            heap: BinaryHeap::new(),
            primed: false,
        }
    }

    fn expand(&mut self, node_ref: BlobRef) -> Result<()> {
        match self.tree.scored_children(&self.query, node_ref)? {
            ScoredChildren::Leaf(objects) => {
                for (id, score) in objects {
                    self.heap.push(HeapEntry {
                        score: OrdF64::new(score),
                        item: Item::Object(id),
                    });
                }
            }
            ScoredChildren::Internal(children) => {
                for (child, bound) in children {
                    self.heap.push(HeapEntry {
                        score: OrdF64::new(bound),
                        item: Item::Node(child),
                    });
                }
            }
        }
        Ok(())
    }

    /// Pulls the next-best object, or `None` when exhausted.
    pub fn next_object(&mut self) -> Result<Option<(ObjectId, f64)>> {
        if !self.primed {
            self.primed = true;
            if !self.tree.is_empty() {
                let root = self.tree.root();
                self.expand(root)?;
            }
        }
        while let Some(entry) = self.heap.pop() {
            match entry.item {
                Item::Object(id) => return Ok(Some((id, entry.score.0))),
                Item::Node(node_ref) => self.expand(node_ref)?,
            }
        }
        Ok(None)
    }
}

impl<A: Aggregate> ObjectStream for BestFirst<'_, A> {
    fn next_object(&mut self) -> Result<Option<(ObjectId, f64)>> {
        BestFirst::next_object(self)
    }
}

/// How a rank search terminates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankMode {
    /// Stop as soon as the emitted score drops to the target's score — the
    /// cheapest way to compute an exact rank (used by the optimised
    /// algorithms).
    StopAtScore,
    /// Keep pulling until the target object itself is emitted — the basic
    /// algorithm's behaviour ("process the query until object m appears",
    /// §IV-B). Same result, more work when many objects tie with `m`.
    UntilFound,
}

/// Result of a rank search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankOutcome {
    /// Exact rank (Eqn. 3) of the target under the query.
    Exact { rank: usize },
    /// The search was aborted because the rank provably exceeds
    /// `max_rank`; `seen_dominators` objects scoring above the target were
    /// already retrieved.
    Aborted { seen_dominators: usize },
}

impl RankOutcome {
    /// The exact rank, if the search completed.
    pub fn rank(&self) -> Option<usize> {
        match self {
            RankOutcome::Exact { rank } => Some(*rank),
            RankOutcome::Aborted { .. } => None,
        }
    }
}

impl<A: Aggregate> AggTree<A> {
    /// Convenience: materialises the full top-k result.
    pub fn top_k(&self, query: &SpatialKeywordQuery) -> Result<Vec<(ObjectId, f64)>> {
        let mut search = BestFirst::new(self, query.clone());
        let mut out = Vec::with_capacity(query.k);
        while out.len() < query.k {
            match search.next_object()? {
                Some(hit) => out.push(hit),
                None => break,
            }
        }
        Ok(out)
    }

    /// Computes the rank `R(target, query)` (Eqn. 3) by scanning the tree
    /// in score order, counting strict dominators of the target.
    ///
    /// * `target_score` must be the exact `ST(target, query)` — callers
    ///   know the target object's location and document.
    /// * When `max_rank` is set, the scan aborts as soon as the rank
    ///   provably exceeds it (the early-stop optimisation, Eqn. 6).
    /// * `mode` selects the basic algorithm's until-found behaviour or the
    ///   cheaper stop-at-score variant.
    pub fn rank_of(
        &self,
        query: &SpatialKeywordQuery,
        target: ObjectId,
        target_score: f64,
        max_rank: Option<usize>,
        mode: RankMode,
    ) -> Result<RankOutcome> {
        let mut search = BestFirst::new(self, query.clone());
        let mut dominators = 0usize;
        loop {
            if let Some(max_rank) = max_rank {
                if dominators + 1 > max_rank {
                    return Ok(RankOutcome::Aborted {
                        seen_dominators: dominators,
                    });
                }
            }
            match search.next_object()? {
                None => break,
                Some((id, score)) => {
                    if score > target_score {
                        dominators += 1;
                    } else {
                        match mode {
                            RankMode::StopAtScore => break,
                            RankMode::UntilFound => {
                                if id == target {
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(RankOutcome::Exact {
            rank: dominators + 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kcr::KcrAgg;
    use crate::model::{Dataset, SpatialObject};
    use crate::setr::SetrAgg;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use wnsk_geo::{Point, WorldBounds};
    use wnsk_storage::{BufferPool, BufferPoolConfig, MemBackend};
    use wnsk_text::KeywordSet;

    /// Runs a generic check against both aggregates.
    macro_rules! both {
        ($check:ident) => {
            $check::<SetrAgg>();
            $check::<KcrAgg>();
        };
    }

    fn random_dataset(n: usize, vocab: u32, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let objects = (0..n)
            .map(|_| {
                let n_terms = rng.gen_range(1..=6);
                let doc = KeywordSet::from_ids((0..n_terms).map(|_| rng.gen_range(0..vocab)));
                SpatialObject {
                    id: ObjectId(0),
                    loc: Point::new(rng.gen::<f64>(), rng.gen::<f64>()),
                    doc,
                }
            })
            .collect();
        Dataset::new(objects, WorldBounds::unit())
    }

    fn build_tree<A: Aggregate>(dataset: &Dataset, fanout: usize) -> AggTree<A> {
        let pool = Arc::new(BufferPool::new(
            Arc::new(MemBackend::new()),
            BufferPoolConfig::default(),
        ));
        AggTree::build(pool, dataset, fanout).unwrap()
    }

    fn query(seed: u64, vocab: u32, k: usize, alpha: f64) -> SpatialKeywordQuery {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_terms = rng.gen_range(1..=4);
        SpatialKeywordQuery::new(
            Point::new(rng.gen::<f64>(), rng.gen::<f64>()),
            KeywordSet::from_ids((0..n_terms).map(|_| rng.gen_range(0..vocab))),
            k,
            alpha,
        )
    }

    fn ids(hits: &[(ObjectId, f64)]) -> Vec<ObjectId> {
        hits.iter().map(|t| t.0).collect()
    }

    #[test]
    fn top_k_matches_brute_force() {
        fn check<A: Aggregate>() {
            let ds = random_dataset(500, 40, 1);
            let tree = build_tree::<A>(&ds, 10);
            for alpha in [0.1, 0.5, 0.9] {
                for seed in 0..8 {
                    let q = query(seed, 40, 10, alpha);
                    assert_eq!(
                        ids(&tree.top_k(&q).unwrap()),
                        ids(&ds.top_k(&q)),
                        "alpha {alpha} seed {seed}"
                    );
                }
            }
        }
        both!(check);
    }

    #[test]
    fn emitted_scores_are_non_increasing() {
        fn check<A: Aggregate>() {
            let ds = random_dataset(400, 30, 3);
            let tree = build_tree::<A>(&ds, 10);
            let mut search = BestFirst::new(&tree, query(7, 30, 1, 0.5));
            let mut last = f64::INFINITY;
            let mut count = 0;
            while let Some((_, score)) = search.next_object().unwrap() {
                assert!(score <= last + 1e-12);
                last = score;
                count += 1;
            }
            assert_eq!(count, 400, "scan must emit every object exactly once");
        }
        both!(check);
    }

    #[test]
    fn rank_matches_brute_force() {
        fn check<A: Aggregate>() {
            let ds = random_dataset(300, 30, 4);
            let tree = build_tree::<A>(&ds, 8);
            for seed in 0..6 {
                let q = query(200 + seed, 30, 5, 0.5);
                let target = ObjectId((seed as u32 * 37) % 300);
                let score = ds.score(ds.object(target), &q);
                for mode in [RankMode::StopAtScore, RankMode::UntilFound] {
                    let outcome = tree.rank_of(&q, target, score, None, mode).unwrap();
                    assert_eq!(
                        outcome.rank(),
                        Some(ds.rank_of(target, &q)),
                        "seed {seed} mode {mode:?}"
                    );
                }
            }
        }
        both!(check);
    }

    #[test]
    fn rank_early_stop_aborts() {
        fn check<A: Aggregate>() {
            let ds = random_dataset(300, 30, 5);
            let tree = build_tree::<A>(&ds, 10);
            let q = query(300, 30, 5, 0.5);
            // Pick the worst-ranked object so any small bound aborts.
            let worst = ds
                .objects()
                .iter()
                .min_by(|a, b| OrdF64::new(ds.score(a, &q)).cmp(&OrdF64::new(ds.score(b, &q))))
                .unwrap()
                .id;
            let score = ds.score(ds.object(worst), &q);
            assert!(ds.rank_of(worst, &q) > 10);
            assert_eq!(
                tree.rank_of(&q, worst, score, Some(10), RankMode::StopAtScore)
                    .unwrap(),
                RankOutcome::Aborted {
                    seen_dominators: 10
                }
            );
        }
        both!(check);
    }

    #[test]
    fn rank_early_stop_exact_when_within_bound() {
        fn check<A: Aggregate>() {
            let ds = random_dataset(200, 20, 6);
            let tree = build_tree::<A>(&ds, 10);
            let q = query(400, 20, 5, 0.5);
            let target = ds.top_k(&q)[2].0; // rank ≤ 3
            let score = ds.score(ds.object(target), &q);
            let outcome = tree
                .rank_of(&q, target, score, Some(50), RankMode::StopAtScore)
                .unwrap();
            assert_eq!(outcome.rank(), Some(ds.rank_of(target, &q)));
        }
        both!(check);
    }

    #[test]
    fn top_k_on_figure1() {
        fn check<A: Aggregate>() {
            let (ds, q) = crate::model::tests::figure1_dataset();
            let tree = build_tree::<A>(&ds, 2);
            assert_eq!(tree.top_k(&q).unwrap()[0].0, ObjectId(3));
            let m_score = ds.score(ds.object(ObjectId(0)), &q);
            let outcome = tree
                .rank_of(&q, ObjectId(0), m_score, None, RankMode::UntilFound)
                .unwrap();
            assert_eq!(outcome.rank(), Some(3));
        }
        both!(check);
    }

    #[test]
    fn k_larger_than_dataset() {
        fn check<A: Aggregate>() {
            let ds = random_dataset(25, 10, 7);
            let tree = build_tree::<A>(&ds, 4);
            assert_eq!(tree.top_k(&query(1, 10, 100, 0.5)).unwrap().len(), 25);
        }
        both!(check);
    }

    #[test]
    fn search_costs_io() {
        let ds = random_dataset(2000, 50, 8);
        let tree = build_tree::<SetrAgg>(&ds, 10);
        tree.pool().clear_cache();
        let before = tree.pool().stats();
        tree.top_k(&query(9, 50, 10, 0.5)).unwrap();
        let delta = tree.pool().stats().since(&before);
        assert!(delta.physical_reads > 0, "cold search must do I/O");
    }

    #[test]
    fn persists_through_file_backend() {
        fn check<A: Aggregate>() {
            use wnsk_storage::FileBackend;
            let ds = random_dataset(200, 20, 9);
            let dir = std::env::temp_dir().join(format!("wnsk-tree-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(format!("{}.db", A::LABELS.node.replace(' ', "-")));
            let q = query(11, 20, 8, 0.5);
            let expected;
            {
                let backend = Arc::new(FileBackend::create(&path).unwrap());
                let pool = Arc::new(BufferPool::with_default_config(backend));
                expected = AggTree::<A>::build(pool, &ds, 10)
                    .unwrap()
                    .top_k(&q)
                    .unwrap();
            }
            {
                let backend = Arc::new(FileBackend::open(&path).unwrap());
                let pool = Arc::new(BufferPool::with_default_config(backend));
                let tree = AggTree::<A>::open(pool).unwrap();
                assert_eq!(tree.top_k(&q).unwrap(), expected);
                assert_eq!(tree.len(), 200);
            }
            std::fs::remove_file(&path).ok();
        }
        both!(check);
    }
}
