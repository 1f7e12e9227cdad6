//! Query-scored node expansion shared by the best-first searches and the
//! parallel counting traversals.
//!
//! Every tree exposes the same primitive: read one node and return every
//! child tagged with its score (leaf objects: the exact `ST` score;
//! internal children: the tree's score *upper bound* for the subtree —
//! Theorem 1's set bound on the SetR-tree, the keyword-count bound on
//! the KcR-tree, both via [`Aggregate::text_bound`]). A counting
//! traversal descends only into subtrees whose bound exceeds the target
//! score, which visits exactly the strict dominators — the same rank as
//! the best-first scan (ties are never dominators), but decomposable
//! into independent subtree tasks.

use crate::model::ObjectId;
use crate::query::{st_score, SpatialKeywordQuery};
use crate::tree::{AggTree, Aggregate, Node};
use wnsk_storage::{BlobRef, Result};
use wnsk_text::{KeywordSet, SimUniverse, TextModel};

/// One expanded node: children with their score (bound).
pub enum ScoredChildren {
    /// Internal children with the per-subtree score upper bound.
    Internal(Vec<(BlobRef, f64)>),
    /// Leaf objects with their exact score under the query.
    Leaf(Vec<(ObjectId, f64)>),
}

/// Precomputed bitset state for leaf text scoring under one query: the
/// universe slot mapping plus the query keyword set already projected.
///
/// With it, scoring a leaf is one projection of the decoded document
/// followed by an AND+popcount per similarity — exact and bit-identical
/// to the scalar merge because the query set lies fully inside the
/// universe (see [`TextModel::similarity_bits`]). Internal-node bounds
/// stay on the scalar path under both kernels: each bound is evaluated
/// once per node against freshly decoded union/intersection sets, so
/// there is no intersection to amortise.
#[derive(Clone, Debug)]
pub struct LeafSimKernel {
    uni: SimUniverse,
    qdoc: wnsk_text::ProjectedSet,
}

impl LeafSimKernel {
    /// Builds the kernel, or `None` when `universe` spills past
    /// [`wnsk_text::BLOCK_BITS`] or `qdoc` is not fully inside it (both
    /// cases fall back to the scalar path, which is always exact).
    pub fn new(universe: &KeywordSet, qdoc: &KeywordSet) -> Option<Self> {
        let uni = SimUniverse::new(universe)?;
        let q = uni.project(qdoc);
        if !q.in_universe() {
            return None;
        }
        Some(LeafSimKernel { uni, qdoc: q })
    }

    /// `similarity(doc, qdoc)` via the bitset kernel.
    #[inline]
    pub fn similarity(&self, model: TextModel, doc: &KeywordSet) -> f64 {
        model.similarity_bits(&self.uni.project(doc), &self.qdoc)
    }
}

impl<A: Aggregate> AggTree<A> {
    /// Expands `node`, scoring every child against `query`: the
    /// aggregate's score upper bound for internal entries, the exact
    /// score for leaf objects.
    pub fn scored_children(
        &self,
        query: &SpatialKeywordQuery,
        node: BlobRef,
    ) -> Result<ScoredChildren> {
        self.scored_children_with(query, node, None)
    }

    /// [`AggTree::scored_children`] with an optional bitset kernel for
    /// the leaf text similarities.
    pub fn scored_children_with(
        &self,
        query: &SpatialKeywordQuery,
        node: BlobRef,
        kernel: Option<&LeafSimKernel>,
    ) -> Result<ScoredChildren> {
        match self.read_node(node)? {
            Node::Leaf(entries) => {
                let mut out = Vec::with_capacity(entries.len());
                for e in entries {
                    let doc = self.read_doc(e.doc)?;
                    let sdist = self.world().normalized_dist(&e.loc, &query.loc);
                    let tsim = match kernel {
                        Some(k) => k.similarity(query.sim, &doc),
                        None => query.sim.similarity(&doc, &query.doc),
                    };
                    out.push((e.object, st_score(query.alpha, sdist, tsim)));
                }
                Ok(ScoredChildren::Leaf(out))
            }
            Node::Internal(entries) => {
                let mut out = Vec::with_capacity(entries.len());
                for e in entries {
                    let tsim_bound = self.read_summary(&e)?.text_bound(query);
                    let min_dist = self.world().normalized_min_dist(&query.loc, &e.mbr);
                    out.push((e.child, st_score(query.alpha, min_dist, tsim_bound)));
                }
                Ok(ScoredChildren::Internal(out))
            }
        }
    }
}
