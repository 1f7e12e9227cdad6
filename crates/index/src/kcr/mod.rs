//! The KcR-tree (*Keyword count R-tree*, §V-A, following \[22\]): the
//! aggregate R-tree whose internal entries carry, for each child, the
//! subtree cardinality `cnt` and a keyword-count map `kcm` (term → number
//! of objects in the subtree containing it).
//!
//! The dominance-bound machinery ([`max_dom`] /
//! [`min_dom`], module [`dom`]) estimates, for a
//! candidate keyword set, how many objects under a node out-rank the
//! missing object — without descending into the node. The bound-and-prune
//! why-not algorithm (Algorithm 3, implemented in `wnsk-core`) drives one
//! tree traversal for a whole batch of candidate sets.

pub mod dom;

pub use dom::{
    max_dom, max_dom_counts, min_dom, min_dom_counts, tau_lower, tau_upper, PreparedNode, SCounts,
};

use crate::payload;
use crate::query::SpatialKeywordQuery;
use crate::tree::{read_rect, write_rect, AggTree, Aggregate, BestFirst, Entry};
use crate::tree::{InternalEntry, Labels, Node};
use wnsk_geo::{Point, Rect};
use wnsk_storage::codec::{Reader, Writer};
use wnsk_storage::{BlobRef, BlobStore, Result};
use wnsk_text::{KeywordCountMap, KeywordSet};

/// A disk-resident KcR-tree.
pub type KcrTree = AggTree<KcrAgg>;
/// A decoded KcR-tree node.
pub type KcrNode = Node<KcrAgg>;
/// Either kind of KcR-tree child reference.
pub type KcrEntry = Entry<KcrAgg>;
/// An incremental best-first scan over a [`KcrTree`].
pub type KcrTopKSearch<'a> = BestFirst<'a, KcrAgg>;

/// The spatial/textual summary of a subtree: everything `MaxDom`/`MinDom`
/// need (§V-B).
#[derive(Clone, Debug)]
pub struct NodeSummary {
    pub mbr: Rect,
    /// Number of objects in the subtree (`N.cnt`).
    pub cnt: u32,
    /// Keyword-count map of the subtree (`N.kcm`).
    pub kcm: KeywordCountMap,
}

/// The KcR aggregate: a subtree's cardinality and keyword-count map.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KcrAgg {
    pub cnt: u32,
    pub kcm: KeywordCountMap,
}

/// How a KcR internal entry stores its child's aggregate: the count
/// inline, the map as a blob.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KcrRefs {
    /// Number of objects under the child (`cnt`).
    pub cnt: u32,
    /// Blob holding the child's keyword-count map (`pcm`).
    pub kcm: BlobRef,
}

/// The root summary on the KcR meta page, which the solvers seed their
/// traversals with.
#[derive(Clone, Copy, Debug)]
pub struct KcrRoot {
    pub mbr: Rect,
    pub cnt: u32,
    pub kcm: BlobRef,
}

impl Aggregate for KcrAgg {
    type Refs = KcrRefs;
    type Root = KcrRoot;

    const MAGIC: u32 = 0x4B43_5231; // "KCR1"
    const LABELS: Labels = Labels {
        name: "KcR-tree",
        build: "kcr build",
        remove: "kcr remove",
        node: "kcr node",
        meta: "kcr meta page",
    };
    const DOM_BOUNDS: bool = true;

    fn of_docs<'a>(docs: impl Iterator<Item = &'a KeywordSet>) -> Self {
        let mut agg = KcrAgg::default();
        for doc in docs {
            agg.cnt += 1;
            agg.kcm.add_doc(doc);
        }
        agg
    }

    fn of_children<'a>(children: impl Iterator<Item = &'a Self>) -> Self {
        let mut agg = KcrAgg::default();
        for child in children {
            agg.cnt += child.cnt;
            agg.kcm.merge(&child.kcm);
        }
        agg
    }

    fn write(&self, blobs: &BlobStore) -> Result<KcrRefs> {
        Ok(KcrRefs {
            cnt: self.cnt,
            kcm: blobs.write(&payload::encode_kcm(&self.kcm))?,
        })
    }

    fn read(blobs: &BlobStore, refs: &KcrRefs) -> Result<Self> {
        Ok(KcrAgg {
            cnt: refs.cnt,
            kcm: payload::decode_kcm(&blobs.read(refs.kcm)?)?,
        })
    }

    fn encode_refs(refs: &KcrRefs, w: &mut Writer) {
        w.write_u32(refs.cnt);
        refs.kcm.encode(w);
    }

    fn decode_refs(r: &mut Reader<'_>) -> Result<KcrRefs> {
        Ok(KcrRefs {
            cnt: r.read_u32()?,
            kcm: BlobRef::decode(r)?,
        })
    }

    /// `TSim(o, q.doc) ≤ |q.doc ∩ N.doc| / |q.doc|`: each object matches
    /// at most the distinct query terms present in the subtree. Looser
    /// than Theorem 1, but enough for the KcR-based algorithm to find the
    /// missing object's initial rank on its own index (§V-D, Algorithm 4
    /// line 1).
    fn text_bound(&self, query: &SpatialKeywordQuery) -> f64 {
        let matched = query.doc.iter().filter(|&t| self.kcm.count(t) > 0).count();
        query.sim.kcr_upper(matched, query.doc.len())
    }

    fn root(
        blobs: &BlobStore,
        mbr: Rect,
        summary: impl FnOnce() -> Result<Self>,
    ) -> Result<KcrRoot> {
        let summary = summary()?;
        Ok(KcrRoot {
            // An empty tree records a point, not the empty rectangle.
            mbr: if mbr.is_empty() {
                Rect::point(Point::new(0.0, 0.0))
            } else {
                mbr
            },
            cnt: summary.cnt,
            kcm: blobs.write(&payload::encode_kcm(&summary.kcm))?,
        })
    }

    fn encode_root(root: &KcrRoot, w: &mut Writer) {
        write_rect(w, &root.mbr);
        w.write_u32(root.cnt);
        root.kcm.encode(w);
    }

    fn decode_root(r: &mut Reader<'_>) -> Result<KcrRoot> {
        Ok(KcrRoot {
            mbr: read_rect(r)?,
            cnt: r.read_u32()?,
            kcm: BlobRef::decode(r)?,
        })
    }
}

impl KcrTree {
    /// Summary of the whole tree (the root's `mbr`/`cnt`/`kcm`), reading
    /// the root keyword-count map from storage.
    pub fn root_summary(&self) -> Result<NodeSummary> {
        let top = self.top();
        Ok(NodeSummary {
            mbr: top.mbr,
            cnt: top.cnt,
            kcm: self.read_kcm(top.kcm)?,
        })
    }

    /// Summary of an internal entry's child, reading its keyword-count
    /// map from storage.
    pub fn entry_summary(&self, entry: &InternalEntry<KcrAgg>) -> Result<NodeSummary> {
        Ok(NodeSummary {
            mbr: entry.mbr,
            cnt: entry.refs.cnt,
            kcm: self.read_kcm(entry.refs.kcm)?,
        })
    }

    /// Reads a keyword-count map payload.
    pub fn read_kcm(&self, blob: BlobRef) -> Result<KeywordCountMap> {
        payload::decode_kcm(&self.blobs().read(blob)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Dataset, ObjectId, SpatialObject};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use wnsk_geo::WorldBounds;
    use wnsk_storage::{BufferPool, BufferPoolConfig, MemBackend};

    fn build_tree(n: usize, vocab: u32, seed: u64, fanout: usize) -> (Dataset, KcrTree) {
        let mut rng = StdRng::seed_from_u64(seed);
        let objects = (0..n)
            .map(|_| {
                let n_terms = rng.gen_range(1..=6);
                SpatialObject {
                    id: ObjectId(0),
                    loc: Point::new(rng.gen::<f64>(), rng.gen::<f64>()),
                    doc: KeywordSet::from_ids((0..n_terms).map(|_| rng.gen_range(0..vocab))),
                }
            })
            .collect();
        let ds = Dataset::new(objects, WorldBounds::unit());
        let pool = Arc::new(BufferPool::new(
            Arc::new(MemBackend::new()),
            BufferPoolConfig::default(),
        ));
        let tree = KcrTree::build(pool, &ds, fanout).unwrap();
        (ds, tree)
    }

    #[test]
    fn summaries_aggregate_correctly() {
        // The root summary must count every object and every term
        // occurrence exactly once.
        let (ds, tree) = build_tree(300, 20, 24, 7);
        let root = tree.root_summary().unwrap();
        assert_eq!(root.cnt, 300);
        let mut expected = KeywordCountMap::new();
        for o in ds.objects() {
            expected.add_doc(&o.doc);
        }
        assert_eq!(root.kcm, expected);
        for o in ds.objects() {
            assert!(root.mbr.contains_point(&o.loc));
        }
    }

    #[test]
    fn child_summaries_partition_parent() {
        let (_, tree) = build_tree(500, 25, 25, 9);
        let KcrNode::Internal(entries) = tree.read_node(tree.root()).unwrap() else {
            panic!("expected internal root for 500 objects with fanout 9");
        };
        let children: Vec<NodeSummary> = entries
            .iter()
            .map(|e| tree.entry_summary(e).unwrap())
            .collect();
        assert_eq!(children.iter().map(|c| c.cnt).sum::<u32>(), 500);
        let mut merged = KeywordCountMap::new();
        for c in &children {
            merged.merge(&c.kcm);
        }
        assert_eq!(merged, tree.root_summary().unwrap().kcm);
    }
}
