//! The SetR-tree (§IV-B): the aggregate R-tree whose internal entries
//! carry the union and intersection keyword sets of their subtrees.
//!
//! Theorem 1 bounds the ranking score of every object under a node by
//! combining `MinDist` with `|N∪ ∩ q.doc| / |N∩ ∪ q.doc|`; the best-first
//! search turns that into an incremental top-k scan and the rank-of-object
//! search at the heart of the basic why-not algorithm.

use crate::payload;
use crate::query::SpatialKeywordQuery;
use crate::tree::{AggTree, Aggregate, BestFirst, Labels, Node};
use wnsk_geo::Rect;
use wnsk_storage::codec::{Reader, Writer};
use wnsk_storage::{BlobRef, BlobStore, Result};
use wnsk_text::KeywordSet;

pub use crate::tree::{RankMode, RankOutcome};

/// A disk-resident SetR-tree.
pub type SetRTree = AggTree<SetrAgg>;
/// A decoded SetR-tree node.
pub type SetrNode = Node<SetrAgg>;
/// An incremental best-first scan over a [`SetRTree`].
pub type TopKSearch<'a> = BestFirst<'a, SetrAgg>;

/// The SetR aggregate: the union and intersection of a subtree's
/// keyword sets.
#[derive(Clone, Debug, PartialEq)]
pub struct SetrAgg {
    pub union: KeywordSet,
    pub intersection: KeywordSet,
}

/// How a SetR internal entry stores its child's sets: one blob each.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SetrRefs {
    /// Blob holding the union of the subtree's keyword sets (`pku`).
    pub union: BlobRef,
    /// Blob holding the intersection of the subtree's keyword sets (`pki`).
    pub intersection: BlobRef,
}

impl SetrAgg {
    /// Folds `(union, intersection)` pairs; no pairs give two empty sets.
    fn fold<'a>(mut parts: impl Iterator<Item = (&'a KeywordSet, &'a KeywordSet)>) -> Self {
        let Some((union, intersection)) = parts.next() else {
            return SetrAgg {
                union: KeywordSet::empty(),
                intersection: KeywordSet::empty(),
            };
        };
        parts.fold(
            SetrAgg {
                union: union.clone(),
                intersection: intersection.clone(),
            },
            |acc, (u, i)| SetrAgg {
                union: acc.union.union(u),
                intersection: acc.intersection.intersection(i),
            },
        )
    }
}

impl Aggregate for SetrAgg {
    type Refs = SetrRefs;
    type Root = ();

    const MAGIC: u32 = 0x5352_5431; // "SRT1"
    const LABELS: Labels = Labels {
        name: "SetR-tree",
        build: "setr build",
        remove: "setr remove",
        node: "setr node",
        meta: "setr meta page",
    };
    // The SetR-tree has no dominance bounds; registering their counters
    // would only add permanent zero rows to every report.
    const DOM_BOUNDS: bool = false;

    fn of_docs<'a>(docs: impl Iterator<Item = &'a KeywordSet>) -> Self {
        Self::fold(docs.map(|d| (d, d)))
    }

    fn of_children<'a>(children: impl Iterator<Item = &'a Self>) -> Self {
        Self::fold(children.map(|c| (&c.union, &c.intersection)))
    }

    fn write(&self, blobs: &BlobStore) -> Result<SetrRefs> {
        Ok(SetrRefs {
            union: blobs.write(&payload::encode_keyword_set(&self.union))?,
            intersection: blobs.write(&payload::encode_keyword_set(&self.intersection))?,
        })
    }

    fn read(blobs: &BlobStore, refs: &SetrRefs) -> Result<Self> {
        Ok(SetrAgg {
            union: payload::decode_keyword_set(&blobs.read(refs.union)?)?,
            intersection: payload::decode_keyword_set(&blobs.read(refs.intersection)?)?,
        })
    }

    fn encode_refs(refs: &SetrRefs, w: &mut Writer) {
        refs.union.encode(w);
        refs.intersection.encode(w);
    }

    fn decode_refs(r: &mut Reader<'_>) -> Result<SetrRefs> {
        Ok(SetrRefs {
            union: BlobRef::decode(r)?,
            intersection: BlobRef::decode(r)?,
        })
    }

    /// Theorem 1's set bound.
    fn text_bound(&self, query: &SpatialKeywordQuery) -> f64 {
        query
            .sim
            .node_upper(&self.union, &self.intersection, &query.doc)
    }

    fn root(_: &BlobStore, _: Rect, _: impl FnOnce() -> Result<Self>) -> Result<()> {
        Ok(())
    }

    fn encode_root(_: &(), _: &mut Writer) {}

    fn decode_root(_: &mut Reader<'_>) -> Result<()> {
        Ok(())
    }
}
