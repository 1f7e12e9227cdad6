//! On-disk node format of the aggregate R-tree.
//!
//! A node is a blob: `u8 kind`, `u32 n`, then `n` entries. Leaf entries
//! mirror the paper's `(o, mbr, pks)`: object id, point location, and a
//! blob reference to the object's keyword set. Internal entries are
//! `(pc, mbr)` — child node blob and child MBR — followed by the
//! aggregate's stored summary ([`Aggregate::Refs`]): `(pku, pki)` on the
//! SetR-tree, `(cnt, pcm)` on the KcR-tree. A child's bounds can thus be
//! evaluated from the parent entry alone; the child *node* is fetched only
//! when a traversal descends.

use super::{read_rect, write_rect, Aggregate};
use crate::model::ObjectId;
use wnsk_geo::{Point, Rect};
use wnsk_storage::codec::{Reader, Writer};
use wnsk_storage::{BlobRef, Result, StorageError};

const KIND_LEAF: u8 = 0;
const KIND_INTERNAL: u8 = 1;

/// A leaf entry: one indexed object.
#[derive(Clone, Debug, PartialEq)]
pub struct LeafEntry {
    pub object: ObjectId,
    pub loc: Point,
    /// Blob holding the object's keyword set (`pks`).
    pub doc: BlobRef,
}

/// An internal entry: one child subtree.
#[derive(Clone, Debug, PartialEq)]
pub struct InternalEntry<A: Aggregate> {
    /// Blob holding the child node (`pc`).
    pub child: BlobRef,
    pub mbr: Rect,
    /// The child's summary as stored (read it with
    /// [`AggTree::read_summary`](super::AggTree::read_summary)).
    pub refs: A::Refs,
}

/// Either kind of child reference, for traversals that treat children
/// uniformly (Algorithm 3).
#[derive(Clone, Debug, PartialEq)]
pub enum Entry<A: Aggregate> {
    Leaf(LeafEntry),
    Internal(InternalEntry<A>),
}

/// A decoded node.
#[derive(Clone, Debug, PartialEq)]
pub enum Node<A: Aggregate> {
    Leaf(Vec<LeafEntry>),
    Internal(Vec<InternalEntry<A>>),
}

impl<A: Aggregate> Node<A> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf(v) => v.len(),
            Node::Internal(v) => v.len(),
        }
    }

    /// `true` when the node has no entries (only possible for the root of
    /// an empty tree).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node's children as uniform [`Entry`] values.
    pub fn entries(&self) -> Vec<Entry<A>> {
        match self {
            Node::Leaf(v) => v.iter().cloned().map(Entry::Leaf).collect(),
            Node::Internal(v) => v.iter().cloned().map(Entry::Internal).collect(),
        }
    }

    /// Serializes the node to its blob payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(5 + self.len() * 68);
        match self {
            Node::Leaf(entries) => {
                w.write_u8(KIND_LEAF);
                w.write_u32(entries.len() as u32);
                for e in entries {
                    w.write_u32(e.object.0);
                    w.write_f64(e.loc.x);
                    w.write_f64(e.loc.y);
                    e.doc.encode(&mut w);
                }
            }
            Node::Internal(entries) => {
                w.write_u8(KIND_INTERNAL);
                w.write_u32(entries.len() as u32);
                for e in entries {
                    e.child.encode(&mut w);
                    write_rect(&mut w, &e.mbr);
                    A::encode_refs(&e.refs, &mut w);
                }
            }
        }
        w.into_vec()
    }

    /// Decodes a node from its blob payload.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes, A::LABELS.node);
        let kind = r.read_u8()?;
        let n = r.read_u32()? as usize;
        match kind {
            KIND_LEAF => {
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(LeafEntry {
                        object: ObjectId(r.read_u32()?),
                        loc: Point::new(r.read_f64()?, r.read_f64()?),
                        doc: BlobRef::decode(&mut r)?,
                    });
                }
                Ok(Node::Leaf(entries))
            }
            KIND_INTERNAL => {
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(InternalEntry {
                        child: BlobRef::decode(&mut r)?,
                        mbr: read_rect(&mut r)?,
                        refs: A::decode_refs(&mut r)?,
                    });
                }
                Ok(Node::Internal(entries))
            }
            other => Err(StorageError::corrupt(
                A::LABELS.node,
                format!("unknown node kind {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kcr::{KcrAgg, KcrRefs};
    use crate::setr::{SetrAgg, SetrRefs};

    fn blob(p: u64, len: u32) -> BlobRef {
        BlobRef {
            first_page: wnsk_storage::PageId(p),
            len,
        }
    }

    fn leaf<A: Aggregate>() -> Node<A> {
        Node::Leaf(vec![
            LeafEntry {
                object: ObjectId(7),
                loc: Point::new(0.25, -1.5),
                doc: blob(10, 44),
            },
            LeafEntry {
                object: ObjectId(8),
                loc: Point::new(2.0, 3.0),
                doc: blob(11, 8),
            },
        ])
    }

    fn internal<A: Aggregate>(refs: [A::Refs; 2]) -> Node<A> {
        let [a, b] = refs;
        Node::Internal(vec![
            InternalEntry {
                child: blob(1, 100),
                mbr: Rect::new(Point::new(0.0, 0.0), Point::new(0.5, 0.5)),
                refs: a,
            },
            InternalEntry {
                child: blob(3, 120),
                mbr: Rect::new(Point::new(0.5, 0.5), Point::new(1.0, 2.0)),
                refs: b,
            },
        ])
    }

    fn roundtrips<A: Aggregate>(node: Node<A>) {
        assert_eq!(Node::<A>::decode(&node.encode()).unwrap(), node);
    }

    #[test]
    fn nodes_roundtrip_for_both_aggregates() {
        roundtrips(leaf::<SetrAgg>());
        roundtrips(leaf::<KcrAgg>());
        roundtrips(Node::<SetrAgg>::Leaf(vec![]));
        roundtrips(internal::<SetrAgg>([
            SetrRefs {
                union: blob(6, 40),
                intersection: blob(7, 12),
            },
            SetrRefs {
                union: blob(8, 40),
                intersection: blob(9, 4),
            },
        ]));
        roundtrips(internal::<KcrAgg>([
            KcrRefs {
                cnt: 42,
                kcm: blob(2, 200),
            },
            KcrRefs {
                cnt: 58,
                kcm: blob(4, 220),
            },
        ]));
    }

    #[test]
    fn entries_unify_kinds() {
        assert!(matches!(leaf::<KcrAgg>().entries()[0], Entry::Leaf(_)));
        let internal = internal::<KcrAgg>([
            KcrRefs {
                cnt: 1,
                kcm: blob(2, 4),
            },
            KcrRefs {
                cnt: 1,
                kcm: blob(4, 4),
            },
        ]);
        assert!(matches!(internal.entries()[1], Entry::Internal(_)));
        assert!(Node::<KcrAgg>::Leaf(vec![]).is_empty());
    }

    #[test]
    fn bad_kind_is_corrupt() {
        let mut bytes = Node::<SetrAgg>::Leaf(vec![]).encode();
        bytes[0] = 9;
        assert!(Node::<SetrAgg>::decode(&bytes).is_err());
        assert!(Node::<KcrAgg>::decode(&bytes).is_err());
    }

    #[test]
    fn truncated_node_is_corrupt() {
        let bytes = leaf::<SetrAgg>().encode();
        assert!(Node::<SetrAgg>::decode(&bytes[..bytes.len() - 4]).is_err());
    }
}
