//! Property tests for the incremental mutation paths: after a randomized
//! sequence of inserts, deletes, and keyword updates,
//!
//! 1. every stored node aggregate (SetR union/intersection, KcR
//!    `cnt`/`kcm`, both trees' MBRs) equals a recomputation from the
//!    subtree's member documents — the bounds stay *exact*, not merely
//!    conservative;
//! 2. the mutated trees answer top-k and rank queries identically to a
//!    fresh STR bulk load over the same surviving objects; and
//! 3. the `MaxDom`/`MinDom` prune decisions computed from the mutated
//!    KcR-tree's summaries agree with the freshly built twin.

use proptest::prelude::*;
use std::sync::Arc;
use wnsk_geo::{Point, Rect, WorldBounds};
use wnsk_index::kcr::{max_dom, min_dom, PreparedNode};
use wnsk_index::setr::{SetRTree, SetrNode};
use wnsk_index::{
    Dataset, KcrNode, KcrTree, NodeSummary, ObjectId, RankMode, SpatialKeywordQuery, SpatialObject,
};
use wnsk_storage::{BlobRef, BufferPool, BufferPoolConfig, MemBackend};
use wnsk_text::{KeywordCountMap, KeywordSet, TextModel};

const FANOUT: usize = 4;

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(
        Arc::new(MemBackend::new()),
        BufferPoolConfig::default(),
    ))
}

fn arb_doc() -> impl Strategy<Value = KeywordSet> {
    proptest::collection::vec(0u32..20, 1..6).prop_map(KeywordSet::from_ids)
}

/// One step of a mutation script. Object choices are sampling indexes so
/// the script stays valid however the live set evolves.
#[derive(Clone, Debug)]
enum Op {
    Insert {
        x: f64,
        y: f64,
        doc: KeywordSet,
    },
    Remove {
        pick: prop::sample::Index,
    },
    Update {
        pick: prop::sample::Index,
        doc: KeywordSet,
    },
}

fn arb_ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    // Weighted choice via a selector range: 0-2 insert, 3-4 remove,
    // 5 update.
    let op = (
        0u32..6,
        0.0..1.0f64,
        0.0..1.0f64,
        arb_doc(),
        any::<prop::sample::Index>(),
    )
        .prop_map(|(sel, x, y, doc, pick)| match sel {
            0..=2 => Op::Insert { x, y, doc },
            3..=4 => Op::Remove { pick },
            _ => Op::Update { pick, doc },
        });
    proptest::collection::vec(op, 1..max)
}

fn arb_dataset(max_n: usize) -> impl Strategy<Value = Dataset> {
    proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64, arb_doc()), 1..max_n).prop_map(|items| {
        let objects = items
            .into_iter()
            .map(|(x, y, doc)| SpatialObject {
                id: ObjectId(0),
                loc: Point::new(x, y),
                doc,
            })
            .collect();
        Dataset::new(objects, WorldBounds::unit())
    })
}

fn arb_query() -> impl Strategy<Value = SpatialKeywordQuery> {
    (
        0.0..1.0f64,
        0.0..1.0f64,
        proptest::collection::vec(0u32..22, 0..4),
        1usize..8,
        0.05..0.95f64,
    )
        .prop_map(|(x, y, doc, k, alpha)| {
            SpatialKeywordQuery::new(Point::new(x, y), KeywordSet::from_ids(doc), k, alpha)
        })
}

/// Applies the script to the dataset and both trees in lockstep.
fn apply_ops(ds: &mut Dataset, setr: &mut SetRTree, kcr: &mut KcrTree, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Insert { x, y, doc } => {
                let loc = Point::new(*x, *y);
                let id = ds.insert(loc, doc.clone()).unwrap();
                setr.insert(id, loc, doc).unwrap();
                kcr.insert(id, loc, doc).unwrap();
            }
            Op::Remove { pick } => {
                let live: Vec<&SpatialObject> = ds.live_objects().collect();
                if live.is_empty() {
                    continue;
                }
                let o = live[pick.index(live.len())];
                let (id, loc) = (o.id, o.loc);
                ds.remove(id).unwrap();
                setr.remove(id, loc).unwrap();
                kcr.remove(id, loc).unwrap();
            }
            Op::Update { pick, doc } => {
                let live: Vec<&SpatialObject> = ds.live_objects().collect();
                if live.is_empty() {
                    continue;
                }
                let o = live[pick.index(live.len())];
                let (id, loc) = (o.id, o.loc);
                ds.update_doc(id, doc.clone()).unwrap();
                setr.update_doc(id, loc, doc).unwrap();
                kcr.update_doc(id, loc, doc).unwrap();
            }
        }
    }
}

/// Recomputed aggregates of a SetR subtree.
struct SetrAgg {
    mbr: Rect,
    union: KeywordSet,
    inter: KeywordSet,
    n: usize,
}

/// Walks a SetR subtree, asserting every stored aggregate payload equals
/// the recomputation from the member documents.
fn check_setr(tree: &SetRTree, node: BlobRef, level: u32) -> SetrAgg {
    match tree.read_node(node).unwrap() {
        SetrNode::Leaf(entries) => {
            assert_eq!(level, 1, "leaves must all sit at level 1");
            assert!(entries.len() <= FANOUT, "leaf overflows the fanout");
            let mut mbr = Rect::EMPTY;
            let mut union = KeywordSet::empty();
            let mut inter: Option<KeywordSet> = None;
            let n = entries.len();
            for e in &entries {
                mbr = mbr.union(&Rect::point(e.loc));
                let doc = tree.read_doc(e.doc).unwrap();
                union = union.union(&doc);
                inter = Some(match inter {
                    None => doc,
                    Some(acc) => acc.intersection(&doc),
                });
            }
            SetrAgg {
                mbr,
                union,
                inter: inter.unwrap_or_else(KeywordSet::empty),
                n,
            }
        }
        SetrNode::Internal(entries) => {
            assert!(level > 1);
            assert!(!entries.is_empty(), "internal nodes never go empty");
            assert!(
                entries.len() <= FANOUT,
                "internal node overflows the fanout"
            );
            let mut mbr = Rect::EMPTY;
            let mut union = KeywordSet::empty();
            let mut inter: Option<KeywordSet> = None;
            let mut n = 0usize;
            for e in &entries {
                let sub = check_setr(tree, e.child, level - 1);
                assert!(sub.n > 0, "child subtrees never go empty");
                assert_eq!(e.mbr, sub.mbr, "stored MBR drifted from the subtree");
                let stored = tree.read_summary(e).unwrap();
                assert!(stored.union == sub.union, "stored union set drifted");
                assert!(
                    stored.intersection == sub.inter,
                    "stored intersection set drifted"
                );
                mbr = mbr.union(&sub.mbr);
                union = union.union(&sub.union);
                inter = Some(match inter {
                    None => sub.inter,
                    Some(acc) => acc.intersection(&sub.inter),
                });
                n += sub.n;
            }
            SetrAgg {
                mbr,
                union,
                inter: inter.unwrap_or_else(KeywordSet::empty),
                n,
            }
        }
    }
}

/// Recomputed aggregates of a KcR subtree.
struct KcrAgg {
    mbr: Rect,
    cnt: u32,
    kcm: KeywordCountMap,
}

/// Walks a KcR subtree, asserting every stored `cnt`/`kcm`/MBR equals the
/// recomputation from the member documents.
fn check_kcr(tree: &KcrTree, node: BlobRef, level: u32) -> KcrAgg {
    match tree.read_node(node).unwrap() {
        KcrNode::Leaf(entries) => {
            assert_eq!(level, 1, "leaves must all sit at level 1");
            assert!(entries.len() <= FANOUT, "leaf overflows the fanout");
            let mut mbr = Rect::EMPTY;
            let mut kcm = KeywordCountMap::new();
            for e in &entries {
                mbr = mbr.union(&Rect::point(e.loc));
                kcm.add_doc(&tree.read_doc(e.doc).unwrap());
            }
            KcrAgg {
                mbr,
                cnt: entries.len() as u32,
                kcm,
            }
        }
        KcrNode::Internal(entries) => {
            assert!(level > 1);
            assert!(!entries.is_empty(), "internal nodes never go empty");
            assert!(
                entries.len() <= FANOUT,
                "internal node overflows the fanout"
            );
            let mut mbr = Rect::EMPTY;
            let mut cnt = 0u32;
            let mut kcm = KeywordCountMap::new();
            for e in &entries {
                let sub = check_kcr(tree, e.child, level - 1);
                assert!(sub.cnt > 0, "child subtrees never go empty");
                assert_eq!(e.mbr, sub.mbr, "stored MBR drifted from the subtree");
                assert_eq!(e.refs.cnt, sub.cnt, "stored cnt drifted from the subtree");
                let stored_kcm = tree.read_kcm(e.refs.kcm).unwrap();
                assert!(stored_kcm == sub.kcm, "stored kcm drifted from the subtree");
                mbr = mbr.union(&sub.mbr);
                cnt += sub.cnt;
                kcm.merge(&sub.kcm);
            }
            KcrAgg { mbr, cnt, kcm }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acceptance criterion of the mutable-index tentpole: after a random
    /// mutation sequence, every per-node aggregate equals the
    /// recomputation over survivors, and the mutated trees answer
    /// identically to a fresh STR bulk load of the same dataset.
    #[test]
    fn mutated_trees_match_fresh_bulk_load(
        ds in arb_dataset(24),
        ops in arb_ops(30),
        q in arb_query(),
    ) {
        let mut ds = ds;
        let mut setr = SetRTree::build(pool(), &ds, FANOUT).unwrap();
        let mut kcr = KcrTree::build(pool(), &ds, FANOUT).unwrap();
        apply_ops(&mut ds, &mut setr, &mut kcr, &ops);

        // Per-node aggregates are exact.
        let live = ds.live_len() as u64;
        prop_assert_eq!(setr.len(), live);
        prop_assert_eq!(kcr.len(), live);
        let s_agg = check_setr(&setr, setr.root(), setr.height());
        prop_assert_eq!(s_agg.n as u64, live);
        let k_agg = check_kcr(&kcr, kcr.root(), kcr.height());
        prop_assert_eq!(k_agg.cnt as u64, live);

        // Fresh bulk loads over the mutated dataset (same surviving
        // objects, same ids — tombstones are skipped by the builder).
        let fresh_setr = SetRTree::build(pool(), &ds, FANOUT).unwrap();
        let fresh_kcr = KcrTree::build(pool(), &ds, FANOUT).unwrap();

        // Identical query answers, and both match brute force.
        let want: Vec<ObjectId> = ds.top_k(&q).iter().map(|t| t.0).collect();
        if live > 0 {
            let got: Vec<ObjectId> = setr.top_k(&q).unwrap().iter().map(|t| t.0).collect();
            let fresh: Vec<ObjectId> =
                fresh_setr.top_k(&q).unwrap().iter().map(|t| t.0).collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(&fresh, &want);
            let got: Vec<ObjectId> = kcr.top_k(&q).unwrap().iter().map(|t| t.0).collect();
            prop_assert_eq!(&got, &want);
        }

        // The mutated KcR root summary is byte-for-byte the fresh one, so
        // every MaxDom/MinDom bound — and hence every prune decision —
        // agrees between the two trees.
        let mutated = kcr.root_summary().unwrap();
        let fresh = fresh_kcr.root_summary().unwrap();
        prop_assert_eq!(mutated.cnt, fresh.cnt);
        prop_assert!(mutated.kcm == fresh.kcm, "root kcm differs from fresh bulk load");
        if live > 0 {
            prop_assert_eq!(mutated.mbr, fresh.mbr);
        }
        dom_decisions_agree(&mutated, &fresh, &q.doc)?;
    }

    /// Rank search through a mutated SetR-tree equals the brute-force
    /// definition (Eqn. 3) in both modes.
    #[test]
    fn mutated_rank_search_equals_definition(
        ds in arb_dataset(20),
        ops in arb_ops(20),
        q in arb_query(),
        pick in any::<prop::sample::Index>(),
    ) {
        let mut ds = ds;
        let mut setr = SetRTree::build(pool(), &ds, FANOUT).unwrap();
        let mut kcr = KcrTree::build(pool(), &ds, FANOUT).unwrap();
        apply_ops(&mut ds, &mut setr, &mut kcr, &ops);
        let live: Vec<ObjectId> = ds.live_objects().map(|o| o.id).collect();
        prop_assume!(!live.is_empty());
        let target = live[pick.index(live.len())];
        let score = ds.score(ds.object(target), &q);
        let want = ds.rank_of(target, &q);
        for mode in [RankMode::StopAtScore, RankMode::UntilFound] {
            let got = setr.rank_of(&q, target, score, None, mode).unwrap();
            prop_assert_eq!(got.rank(), Some(want));
        }
    }
}

/// Asserts `max_dom`/`min_dom` produce identical bounds from the two
/// summaries across models and thresholds — identical bounds mean the
/// bound-and-prune driver takes identical prune decisions.
fn dom_decisions_agree(
    mutated: &NodeSummary,
    fresh: &NodeSummary,
    s: &KeywordSet,
) -> std::result::Result<(), TestCaseError> {
    let pm = PreparedNode::new(mutated);
    let pf = PreparedNode::new(fresh);
    for model in [TextModel::Jaccard, TextModel::Dice, TextModel::Cosine] {
        for tau in [0.0, 0.25, 0.5, 0.75, 1.0] {
            prop_assert_eq!(
                max_dom(&pm, s, tau, model),
                max_dom(&pf, s, tau, model),
                "MaxDom diverged at tau={}",
                tau
            );
            prop_assert_eq!(
                min_dom(&pm, s, tau, model),
                min_dom(&pf, s, tau, model),
                "MinDom diverged at tau={}",
                tau
            );
        }
    }
    Ok(())
}
