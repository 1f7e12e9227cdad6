//! Pins the on-disk image of both trees.
//!
//! A SetR-tree and a KcR-tree are bulk-loaded at fanout 16 over a fixed
//! seeded dataset, then driven through a fixed insert / remove /
//! `update_doc` script that splits leaves and internal nodes, grows the
//! root, empties subtrees and finally collapses the root. At each
//! checkpoint the test digests every allocated page (FNV-1a over the raw
//! backend bytes, CRC trailers included, in page order) and records the
//! page count. Any change to a node codec, an aggregate payload, the meta
//! page or the order in which blobs are written changes a digest.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wnsk_geo::{Point, WorldBounds};
use wnsk_index::{Dataset, KcrTree, ObjectId, SetRTree, SpatialObject};
use wnsk_storage::{BufferPool, BufferPoolConfig, MemBackend, PageId, StorageBackend, PAGE_SIZE};
use wnsk_text::KeywordSet;

const FANOUT: usize = 16;
const OBJECTS: usize = 200;
const VOCAB: u32 = 40;

/// `(page count, FNV-1a-64 of all pages)` at each checkpoint: after the
/// bulk load, after the growth phase, after the shrink phase.
const SETR_GOLDEN: [(u64, u64); 3] = [
    (241, 0xd23b818affb74631),
    (3121, 0x48974d0e39aba937),
    (7198, 0x473c8951b0d92a19),
];
const KCR_GOLDEN: [(u64, u64); 3] = [
    (229, 0x449239c7f509f649),
    (2729, 0x96dc32cbbfb91c98),
    (6264, 0x7634ad1c1931e107),
];

fn random_doc(rng: &mut StdRng) -> KeywordSet {
    let n = rng.gen_range(1..=6);
    KeywordSet::from_ids((0..n).map(|_| rng.gen_range(0..VOCAB)))
}

fn dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(0x5eed_1a6e);
    let objects = (0..OBJECTS)
        .map(|_| SpatialObject {
            id: ObjectId(0),
            loc: Point::new(rng.gen::<f64>(), rng.gen::<f64>()),
            doc: random_doc(&mut rng),
        })
        .collect();
    Dataset::new(objects, WorldBounds::unit())
}

/// One scripted mutation, applied identically to both trees.
enum Op {
    Insert(ObjectId, Point, KeywordSet),
    Remove(ObjectId, Point),
    Update(ObjectId, Point, KeywordSet),
}

/// The growth phase, then the shrink phase. Object choices are drawn
/// from a seeded stream over the live set, so the script is fixed.
fn script(ds: &Dataset) -> (Vec<Op>, Vec<Op>) {
    let mut rng = StdRng::seed_from_u64(0x5c41_9e7d);
    let mut live: Vec<(ObjectId, Point)> = ds.objects().iter().map(|o| (o.id, o.loc)).collect();
    let mut next_id = OBJECTS as u32;
    let mut grow = Vec::new();
    for i in 0..300 {
        if i % 5 == 4 {
            let (id, loc) = live[rng.gen_range(0..live.len())];
            grow.push(Op::Update(id, loc, random_doc(&mut rng)));
        } else {
            // Half the inserts land in one corner so its leaves split
            // repeatedly and the root overflows.
            let loc = if i % 2 == 0 {
                Point::new(rng.gen::<f64>() * 0.2, rng.gen::<f64>() * 0.2)
            } else {
                Point::new(rng.gen::<f64>(), rng.gen::<f64>())
            };
            let id = ObjectId(next_id);
            next_id += 1;
            live.push((id, loc));
            grow.push(Op::Insert(id, loc, random_doc(&mut rng)));
        }
    }
    let mut shrink = Vec::new();
    let mut i = 0;
    while live.len() > 1 {
        let (id, loc) = live[rng.gen_range(0..live.len())];
        if i % 7 == 6 {
            shrink.push(Op::Update(id, loc, random_doc(&mut rng)));
        } else {
            live.retain(|&(o, _)| o != id);
            shrink.push(Op::Remove(id, loc));
        }
        i += 1;
    }
    (grow, shrink)
}

/// FNV-1a-64 over every allocated page, in page order.
fn digest(backend: &MemBackend) -> (u64, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut page = vec![0u8; PAGE_SIZE];
    let count = backend.page_count();
    for id in 0..count {
        backend.read_page(PageId(id), &mut page).unwrap();
        for &b in &page {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (count, hash)
}

fn pool() -> (Arc<MemBackend>, Arc<BufferPool>) {
    let backend = Arc::new(MemBackend::new());
    let pool = Arc::new(BufferPool::new(
        backend.clone(),
        BufferPoolConfig::default(),
    ));
    (backend, pool)
}

/// Both trees take the same mutation calls.
trait Mutable {
    fn apply(&mut self, op: &Op);
}

macro_rules! mutable {
    ($tree:ty) => {
        impl Mutable for $tree {
            fn apply(&mut self, op: &Op) {
                match op {
                    Op::Insert(id, loc, doc) => self.insert(*id, *loc, doc).unwrap(),
                    Op::Remove(id, loc) => self.remove(*id, *loc).unwrap(),
                    Op::Update(id, loc, doc) => self.update_doc(*id, *loc, doc).unwrap(),
                }
            }
        }
    };
}
mutable!(SetRTree);
mutable!(KcrTree);

/// Builds a tree, runs the script, and returns the three checkpoint
/// digests.
fn checkpoints<T: Mutable>(build: impl FnOnce(Arc<BufferPool>, &Dataset) -> T) -> Vec<(u64, u64)> {
    let ds = dataset();
    let (grow, shrink) = script(&ds);
    let (backend, pool) = pool();
    let mut tree = build(pool, &ds);
    let mut out = vec![digest(&backend)];
    for phase in [&grow, &shrink] {
        phase.iter().for_each(|op| tree.apply(op));
        out.push(digest(&backend));
    }
    out
}

#[test]
fn setr_page_image_is_pinned() {
    let got = checkpoints(|pool, ds| SetRTree::build(pool, ds, FANOUT).unwrap());
    assert_eq!(got, SETR_GOLDEN, "SetR-tree page image changed");
}

#[test]
fn kcr_page_image_is_pinned() {
    let got = checkpoints(|pool, ds| KcrTree::build(pool, ds, FANOUT).unwrap());
    assert_eq!(got, KCR_GOLDEN, "KcR-tree page image changed");
}

/// The script really exercises the shape changes the golden image is
/// meant to pin: a root split, then a collapse down to a single leaf.
#[test]
fn script_grows_and_collapses_the_root() {
    let ds = dataset();
    let (grow, shrink) = script(&ds);
    let (_, pool) = pool();
    let mut tree = SetRTree::build(pool, &ds, FANOUT).unwrap();
    let built = tree.height();
    grow.iter().for_each(|op| tree.apply(op));
    assert!(tree.height() > built, "growth phase must split the root");
    shrink.iter().for_each(|op| tree.apply(op));
    assert_eq!((tree.len(), tree.height()), (1, 1));
}
