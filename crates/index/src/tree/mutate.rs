//! Incremental mutation: insert, remove, and keyword update with exact
//! maintenance of every entry's aggregate along the root path.
//!
//! Nodes are copy-on-write: the blob store is append-only, so every
//! mutated node (and every refreshed aggregate payload) is written as a
//! fresh blob and only the meta page changes. Readers holding the old
//! root keep a fully consistent pre-mutation snapshot.
//!
//! Aggregates are recomputed, never patched: a rewritten leaf re-reads
//! its members' documents and a rewritten internal node re-reads its
//! entries' stored summaries, so a mutated tree's bounds equal a fresh
//! bulk load's. All tie-breaking is deterministic (entry order, then
//! split order by `(x, y, id)`), which is what makes WAL replay rebuild a
//! tree bit-identical to the one the never-crashed engine maintained.

use super::{internal_entry, write_internal, write_leaf, write_meta};
use super::{AggTree, Aggregate, Built, InternalEntry, LeafEntry, Meta, Node};
use crate::model::ObjectId;
use wnsk_geo::{Point, Rect};
use wnsk_storage::{BlobRef, Result, StorageError};
use wnsk_text::KeywordSet;

/// Outcome of inserting into a subtree.
enum Inserted<A> {
    /// The subtree absorbed the object.
    One(Built<A>),
    /// The subtree overflowed and split in two.
    Split(Built<A>, Built<A>),
}

impl<A: Aggregate> AggTree<A> {
    /// Inserts one object, maintaining every aggregate along the path
    /// (and splitting nodes that exceed the fanout).
    pub fn insert(&mut self, id: ObjectId, loc: Point, doc: &KeywordSet) -> Result<()> {
        let (root, top, height) = match self.insert_into(self.meta.root, id, loc, doc)? {
            Inserted::One(r) => {
                let top = A::root(&self.blobs, r.mbr, || Ok(r.summary))?;
                (r.node, top, self.meta.height)
            }
            Inserted::Split(a, b) => {
                let entries = vec![
                    internal_entry(&self.blobs, &a)?,
                    internal_entry(&self.blobs, &b)?,
                ];
                let root = self.write_node(&Node::Internal(entries))?;
                let summary = || Ok(A::of_children([&a.summary, &b.summary].into_iter()));
                let top = A::root(&self.blobs, a.mbr.union(&b.mbr), summary)?;
                (root, top, self.meta.height + 1)
            }
        };
        self.commit(root, top, height, self.meta.n_objects + 1)
    }

    /// Removes the object `id` located at `loc`. Underfull nodes are
    /// permitted (entries are dropped when a subtree empties; a
    /// single-child internal root collapses into its child).
    ///
    /// Returns [`StorageError::InvalidArgument`] when no leaf entry
    /// matches — the tree and dataset would otherwise silently diverge.
    pub fn remove(&mut self, id: ObjectId, loc: Point) -> Result<()> {
        let Some(rebuilt) = self.remove_from(self.meta.root, id, loc)? else {
            return Err(StorageError::invalid_argument(
                A::LABELS.remove,
                format!("{id:?} not found at {loc:?}"),
            ));
        };
        let (mut root, mut mbr, mut height) = (rebuilt.node, rebuilt.mbr, self.meta.height);
        // Collapse a single-child (or emptied) internal root so the tree
        // keeps the shape invariants of a fresh bulk load. A lifted
        // child's aggregate is the one its entry stores.
        let mut lifted = None;
        while height > 1 {
            match self.read_node(root)? {
                Node::Internal(entries) if entries.is_empty() => {
                    root = self.write_node(&Node::Leaf(Vec::new()))?;
                    height = 1;
                }
                Node::Internal(mut entries) if entries.len() == 1 => {
                    let e = entries.pop().expect("one entry");
                    (root, mbr) = (e.child, e.mbr);
                    lifted = Some(e);
                    height -= 1;
                }
                _ => break,
            }
        }
        let top = A::root(&self.blobs, mbr, || match &lifted {
            Some(e) => self.read_summary(e),
            None => Ok(rebuilt.summary),
        })?;
        self.commit(root, top, height, self.meta.n_objects - 1)
    }

    /// Replaces the keyword set of object `id` at `loc`: a remove + insert
    /// under the same id, so every aggregate on both paths is refreshed.
    pub fn update_doc(&mut self, id: ObjectId, loc: Point, doc: &KeywordSet) -> Result<()> {
        self.remove(id, loc)?;
        self.insert(id, loc, doc)
    }

    /// Rewrites the meta page for a new root.
    fn commit(&mut self, root: BlobRef, top: A::Root, height: u32, n_objects: u64) -> Result<()> {
        self.meta = Meta {
            root,
            top,
            height,
            n_objects,
            world: self.meta.world,
            fanout: self.meta.fanout,
        };
        write_meta(&self.pool, &self.meta)
    }

    fn write_node(&self, node: &Node<A>) -> Result<BlobRef> {
        self.blobs.write(&node.encode())
    }

    /// The aggregate of a node with `entries`, from their stored payloads.
    fn summary_of(&self, entries: &[InternalEntry<A>]) -> Result<A> {
        let children: Vec<A> = entries
            .iter()
            .map(|e| self.read_summary(e))
            .collect::<Result<_>>()?;
        Ok(A::of_children(children.iter()))
    }

    /// Writes a leaf, its aggregate recomputed from the member documents.
    fn leaf_rebuilt(&self, entries: Vec<LeafEntry>) -> Result<Built<A>> {
        let docs: Vec<KeywordSet> = entries
            .iter()
            .map(|e| self.read_doc(e.doc))
            .collect::<Result<_>>()?;
        write_leaf(&self.blobs, entries, A::of_docs(docs.iter()))
    }

    /// Writes an internal node, its aggregate recomputed from the
    /// entries' stored payloads.
    fn internal_rebuilt(&self, entries: Vec<InternalEntry<A>>) -> Result<Built<A>> {
        let summary = self.summary_of(&entries)?;
        write_internal(&self.blobs, entries, summary)
    }

    fn insert_into(
        &self,
        node: BlobRef,
        id: ObjectId,
        loc: Point,
        doc: &KeywordSet,
    ) -> Result<Inserted<A>> {
        let fanout = self.meta.fanout as usize;
        match self.read_node(node)? {
            Node::Leaf(mut entries) => {
                let doc_ref = self.blobs.write(&crate::payload::encode_keyword_set(doc))?;
                entries.push(LeafEntry {
                    object: id,
                    loc,
                    doc: doc_ref,
                });
                if entries.len() <= fanout {
                    return Ok(Inserted::One(self.leaf_rebuilt(entries)?));
                }
                // Deterministic split: order by (x, y, id), cut in half.
                entries.sort_by(|a, b| {
                    a.loc
                        .x
                        .total_cmp(&b.loc.x)
                        .then(a.loc.y.total_cmp(&b.loc.y))
                        .then(a.object.cmp(&b.object))
                });
                let right = entries.split_off(entries.len() / 2);
                Ok(Inserted::Split(
                    self.leaf_rebuilt(entries)?,
                    self.leaf_rebuilt(right)?,
                ))
            }
            Node::Internal(mut entries) => {
                let chosen = choose_subtree(entries.iter().map(|e| &e.mbr), loc);
                match self.insert_into(entries[chosen].child, id, loc, doc)? {
                    Inserted::One(r) => {
                        entries[chosen] = internal_entry(&self.blobs, &r)?;
                    }
                    Inserted::Split(a, b) => {
                        entries[chosen] = internal_entry(&self.blobs, &a)?;
                        entries.insert(chosen + 1, internal_entry(&self.blobs, &b)?);
                    }
                }
                if entries.len() <= fanout {
                    return Ok(Inserted::One(self.internal_rebuilt(entries)?));
                }
                entries.sort_by(|a, b| {
                    let (ca, cb) = (a.mbr.center(), b.mbr.center());
                    ca.x.total_cmp(&cb.x)
                        .then(ca.y.total_cmp(&cb.y))
                        .then(a.child.first_page.cmp(&b.child.first_page))
                });
                let right = entries.split_off(entries.len() / 2);
                Ok(Inserted::Split(
                    self.internal_rebuilt(entries)?,
                    self.internal_rebuilt(right)?,
                ))
            }
        }
    }

    /// Removes `id` from the subtree; `None` when it was not found here.
    fn remove_from(&self, node: BlobRef, id: ObjectId, loc: Point) -> Result<Option<Built<A>>> {
        match self.read_node(node)? {
            Node::Leaf(mut entries) => {
                let Some(pos) = entries.iter().position(|e| e.object == id) else {
                    return Ok(None);
                };
                entries.remove(pos);
                Ok(Some(self.leaf_rebuilt(entries)?))
            }
            Node::Internal(mut entries) => {
                for i in 0..entries.len() {
                    if !entries[i].mbr.contains_point(&loc) {
                        continue;
                    }
                    if let Some(r) = self.remove_from(entries[i].child, id, loc)? {
                        if r.empty {
                            // The child emptied out: drop its entry (and
                            // let emptiness propagate upward in turn).
                            entries.remove(i);
                        } else {
                            entries[i] = internal_entry(&self.blobs, &r)?;
                        }
                        return Ok(Some(self.internal_rebuilt(entries)?));
                    }
                }
                Ok(None)
            }
        }
    }
}

/// R-tree choose-subtree: minimal area enlargement, ties by minimal area,
/// then lowest entry index — all deterministic.
fn choose_subtree<'a, I: Iterator<Item = &'a Rect>>(mbrs: I, loc: Point) -> usize {
    let target = Rect::point(loc);
    let mut best = 0usize;
    let mut best_enlargement = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, mbr) in mbrs.enumerate() {
        let enlargement = mbr.enlargement(&target);
        let area = mbr.area();
        if enlargement < best_enlargement || (enlargement == best_enlargement && area < best_area) {
            best = i;
            best_enlargement = enlargement;
            best_area = area;
        }
    }
    best
}
