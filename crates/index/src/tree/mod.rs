//! The aggregate R-tree both paper indexes are built on.
//!
//! The SetR-tree (§IV-B) and the KcR-tree (§V-A) are the same structure:
//! an STR-packed R-tree whose nodes are blobs on the page substrate and
//! whose internal entries carry, next to the child's MBR, a summary of the
//! child's keyword sets. Only that summary differs — union/intersection
//! sets for the SetR-tree, a cardinality plus keyword-count map for the
//! KcR-tree — so [`AggTree`] owns everything else once: bulk loading, the
//! meta page, the node codec, copy-on-write mutation and best-first
//! search. An [`Aggregate`] supplies the summary: how it is built from
//! documents and merged from children, how its payload blobs are written
//! and read, and the text bound it gives a search.

mod mutate;
mod node;
mod search;

pub use node::{Entry, InternalEntry, LeafEntry, Node};
pub use search::{BestFirst, RankMode, RankOutcome};

use crate::model::{Dataset, SpatialObject};
use crate::payload;
use crate::query::SpatialKeywordQuery;
use crate::stats::TraversalStats;
use crate::str_pack;
use std::fmt::Debug;
use std::sync::Arc;
use wnsk_geo::{Point, Rect, WorldBounds};
use wnsk_obs::Registry;
use wnsk_storage::codec::{Reader, Writer};
use wnsk_storage::{BlobRef, BlobStore, BufferPool, PageId, Result, StorageError, PAGE_DATA_SIZE};
use wnsk_text::KeywordSet;

/// Static error contexts of one tree kind.
pub struct Labels {
    /// Tree name in messages, e.g. `"SetR-tree"`.
    pub name: &'static str,
    pub build: &'static str,
    pub remove: &'static str,
    pub node: &'static str,
    pub meta: &'static str,
}

/// The per-entry summary of a subtree's keyword sets.
///
/// A value of the implementing type is the in-memory summary; an internal
/// entry stores it as [`Aggregate::Refs`] (inline fields plus blob
/// references to its payloads). The meta page records a root section of
/// type [`Aggregate::Root`] between the root reference and the height.
pub trait Aggregate: Clone + Debug + PartialEq + Send + Sync + 'static {
    /// The stored form of a summary inside an internal entry.
    type Refs: Clone + Debug + PartialEq + Send + Sync;
    /// The meta page's root section (`()` when there is none).
    type Root: Clone + Debug + Send + Sync;

    /// Magic number of the meta page.
    const MAGIC: u32;
    const LABELS: Labels;
    /// Whether the traversal stats publish the Theorem 2/3 dominance
    /// counters (only meaningful for trees that drive those bounds).
    const DOM_BOUNDS: bool;

    /// Summary of a leaf holding `docs` (possibly none).
    fn of_docs<'a>(docs: impl Iterator<Item = &'a KeywordSet>) -> Self;
    /// Summary of an internal node from its children's summaries.
    fn of_children<'a>(children: impl Iterator<Item = &'a Self>) -> Self;
    /// Writes the payload blobs and returns the entry's stored form.
    fn write(&self, blobs: &BlobStore) -> Result<Self::Refs>;
    /// Reads a summary back from an entry's stored form.
    fn read(blobs: &BlobStore, refs: &Self::Refs) -> Result<Self>;
    fn encode_refs(refs: &Self::Refs, w: &mut Writer);
    fn decode_refs(r: &mut Reader<'_>) -> Result<Self::Refs>;
    /// Upper bound on `TSim(o, q.doc)` over every object `o` the summary
    /// covers.
    fn text_bound(&self, query: &SpatialKeywordQuery) -> f64;
    /// The root section for a root with MBR `mbr`. `summary` loads the
    /// root's summary; it is called only by aggregates that record it.
    fn root(
        blobs: &BlobStore,
        mbr: Rect,
        summary: impl FnOnce() -> Result<Self>,
    ) -> Result<Self::Root>;
    fn encode_root(root: &Self::Root, w: &mut Writer);
    fn decode_root(r: &mut Reader<'_>) -> Result<Self::Root>;
}

/// Tree-level metadata persisted on page 0.
pub(crate) struct Meta<A: Aggregate> {
    pub root: BlobRef,
    /// The aggregate's root section.
    pub top: A::Root,
    pub height: u32,
    pub n_objects: u64,
    pub world: WorldBounds,
    pub fanout: u32,
}

/// A written node plus what its parent entry records.
pub(crate) struct Built<A> {
    pub node: BlobRef,
    pub mbr: Rect,
    pub summary: A,
    /// The node has no entries; a parent drops it.
    pub empty: bool,
}

/// A disk-resident aggregate R-tree. All reads go through the buffer
/// pool, so experiments meter physical I/O exactly as the paper does.
pub struct AggTree<A: Aggregate> {
    pool: Arc<BufferPool>,
    blobs: BlobStore,
    meta: Meta<A>,
    stats: TraversalStats,
}

impl<A: Aggregate> AggTree<A> {
    /// Bulk-loads a tree over the live objects of `dataset` into the
    /// storage behind `pool` (which must be empty) with node `fanout`.
    pub fn build(pool: Arc<BufferPool>, dataset: &Dataset, fanout: usize) -> Result<Self> {
        let labels = A::LABELS;
        if fanout < 2 {
            return Err(StorageError::invalid_argument(
                labels.build,
                format!("fanout must be at least 2, got {fanout}"),
            ));
        }
        let allocated = pool.backend().page_count();
        if allocated != 0 {
            return Err(StorageError::invalid_argument(
                labels.build,
                format!(
                    "{} must be built into empty storage, found {allocated} pages",
                    labels.name
                ),
            ));
        }
        // Reserve page 0 for the meta record, written last.
        let meta_page = pool.allocate()?;
        debug_assert_eq!(meta_page, PageId(0));
        let blobs = BlobStore::new(Arc::clone(&pool));

        // Tombstoned slots never enter the index: a rebuilt tree over a
        // mutated dataset equals one built over the surviving objects.
        let objs: Vec<&SpatialObject> = dataset.live_objects().collect();
        // Every object's keyword set is written once, before any node.
        let doc_refs: Vec<BlobRef> = objs
            .iter()
            .map(|o| blobs.write(&payload::encode_keyword_set(&o.doc)))
            .collect::<Result<_>>()?;
        let rects: Vec<Rect> = objs.iter().map(|o| Rect::point(o.loc)).collect();
        let levels = str_pack::str_levels(&rects, fanout);

        let mut current: Vec<Built<A>> = levels[0]
            .groups
            .iter()
            .map(|group| {
                let entries = group
                    .iter()
                    .map(|&i| LeafEntry {
                        object: objs[i].id,
                        loc: objs[i].loc,
                        doc: doc_refs[i],
                    })
                    .collect();
                let summary = A::of_docs(group.iter().map(|&i| &objs[i].doc));
                write_leaf(&blobs, entries, summary)
            })
            .collect::<Result<_>>()?;
        for level in &levels[1..] {
            current = level
                .groups
                .iter()
                .map(|group| {
                    let entries = group
                        .iter()
                        .map(|&i| internal_entry(&blobs, &current[i]))
                        .collect::<Result<_>>()?;
                    let summary = A::of_children(group.iter().map(|&i| &current[i].summary));
                    write_internal(&blobs, entries, summary)
                })
                .collect::<Result<_>>()?;
        }

        debug_assert_eq!(current.len(), 1, "STR must converge to a single root");
        let root = current.pop().expect("STR yields a root");
        let meta = Meta {
            root: root.node,
            top: A::root(&blobs, root.mbr, || Ok(root.summary))?,
            height: levels.len() as u32,
            n_objects: objs.len() as u64,
            world: *dataset.world(),
            fanout: fanout as u32,
        };
        write_meta(&pool, &meta)?;
        Ok(Self::from_parts(pool, meta))
    }

    /// Opens a previously built tree from its storage.
    pub fn open(pool: Arc<BufferPool>) -> Result<Self> {
        let meta = read_meta(&pool)?;
        Ok(Self::from_parts(pool, meta))
    }

    fn from_parts(pool: Arc<BufferPool>, meta: Meta<A>) -> Self {
        let blobs = BlobStore::new(Arc::clone(&pool));
        AggTree {
            pool,
            blobs,
            meta,
            stats: TraversalStats::detached(),
        }
    }

    /// The buffer pool (I/O metering lives here).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Traversal counters: node visits, pruned subtrees and, on trees
    /// that drive them, the Theorem 2/3 prune events.
    pub fn traversal(&self) -> &TraversalStats {
        &self.stats
    }

    /// Publishes the traversal counters into `registry` under `prefix`
    /// (e.g. `"setr."`). The dominance counters are registered only when
    /// [`Aggregate::DOM_BOUNDS`] is set.
    pub fn register_metrics(&mut self, registry: &Registry, prefix: &str) {
        self.stats.register(registry, prefix, A::DOM_BOUNDS);
    }

    /// Attaches a tracer: node visits (and the solvers' prune decisions,
    /// which go through [`TraversalStats`]) emit trace events.
    pub fn set_tracer(&mut self, tracer: wnsk_obs::Tracer) {
        self.stats.set_tracer(tracer);
    }

    /// World bounds the tree was built with.
    pub fn world(&self) -> &WorldBounds {
        &self.meta.world
    }

    /// Number of indexed objects.
    pub fn len(&self) -> u64 {
        self.meta.n_objects
    }

    /// `true` when the tree indexes no objects.
    pub fn is_empty(&self) -> bool {
        self.meta.n_objects == 0
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.meta.height
    }

    /// Blob reference of the root node (the entry point for external
    /// traversals such as the parallel counting rank).
    pub fn root(&self) -> BlobRef {
        self.meta.root
    }

    /// Reads and decodes a node. Every traversal funnels through here, so
    /// this is also where node visits are counted.
    pub fn read_node(&self, node: BlobRef) -> Result<Node<A>> {
        self.stats.visit_traced(node.first_page.0);
        let bytes = self.blobs.read(node)?;
        Node::decode(&bytes)
    }

    /// Reads an object's keyword set.
    pub fn read_doc(&self, blob: BlobRef) -> Result<KeywordSet> {
        let bytes = self.blobs.read(blob)?;
        payload::decode_keyword_set(&bytes)
    }

    /// Reads the summary an internal entry stores for its child.
    pub fn read_summary(&self, entry: &InternalEntry<A>) -> Result<A> {
        A::read(&self.blobs, &entry.refs)
    }

    /// The meta page's root section.
    pub(crate) fn top(&self) -> &A::Root {
        &self.meta.top
    }

    pub(crate) fn blobs(&self) -> &BlobStore {
        &self.blobs
    }
}

/// The parent entry for a written child, persisting its payload blobs.
fn internal_entry<A: Aggregate>(blobs: &BlobStore, c: &Built<A>) -> Result<InternalEntry<A>> {
    Ok(InternalEntry {
        child: c.node,
        mbr: c.mbr,
        refs: c.summary.write(blobs)?,
    })
}

fn write_leaf<A: Aggregate>(
    blobs: &BlobStore,
    entries: Vec<LeafEntry>,
    summary: A,
) -> Result<Built<A>> {
    let mbr = entries
        .iter()
        .fold(Rect::EMPTY, |acc, e| acc.union(&Rect::point(e.loc)));
    let empty = entries.is_empty();
    let node = blobs.write(&Node::<A>::Leaf(entries).encode())?;
    Ok(Built {
        node,
        mbr,
        summary,
        empty,
    })
}

fn write_internal<A: Aggregate>(
    blobs: &BlobStore,
    entries: Vec<InternalEntry<A>>,
    summary: A,
) -> Result<Built<A>> {
    let mbr = entries.iter().fold(Rect::EMPTY, |acc, e| acc.union(&e.mbr));
    let empty = entries.is_empty();
    let node = blobs.write(&Node::Internal(entries).encode())?;
    Ok(Built {
        node,
        mbr,
        summary,
        empty,
    })
}

fn write_meta<A: Aggregate>(pool: &BufferPool, meta: &Meta<A>) -> Result<()> {
    let mut w = Writer::with_capacity(PAGE_DATA_SIZE);
    w.write_u32(A::MAGIC);
    meta.root.encode(&mut w);
    A::encode_root(&meta.top, &mut w);
    w.write_u32(meta.height);
    w.write_u64(meta.n_objects);
    write_rect(&mut w, &meta.world.rect());
    w.write_u32(meta.fanout);
    // The pool zero-pads to the full payload size and embeds the CRC
    // trailer.
    pool.write(PageId(0), &w.into_vec())
}

fn read_meta<A: Aggregate>(pool: &BufferPool) -> Result<Meta<A>> {
    let page = pool.read(PageId(0))?;
    let mut r = Reader::new(&page, A::LABELS.meta);
    let magic = r.read_u32()?;
    if magic != A::MAGIC {
        return Err(StorageError::corrupt(
            A::LABELS.meta,
            format!("bad magic {magic:#x}"),
        ));
    }
    Ok(Meta {
        root: BlobRef::decode(&mut r)?,
        top: A::decode_root(&mut r)?,
        height: r.read_u32()?,
        n_objects: r.read_u64()?,
        world: WorldBounds::new(read_rect(&mut r)?),
        fanout: r.read_u32()?,
    })
}

/// Writes a rectangle as `min.x, min.y, max.x, max.y`.
pub(crate) fn write_rect(w: &mut Writer, rect: &Rect) {
    w.write_f64(rect.min.x);
    w.write_f64(rect.min.y);
    w.write_f64(rect.max.x);
    w.write_f64(rect.max.y);
}

/// Reads a rectangle written by [`write_rect`].
pub(crate) fn read_rect(r: &mut Reader<'_>) -> Result<Rect> {
    let min = Point::new(r.read_f64()?, r.read_f64()?);
    let max = Point::new(r.read_f64()?, r.read_f64()?);
    Ok(Rect::new(min, max))
}
