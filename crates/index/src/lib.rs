//! Disk-resident spatio-textual indexes for the why-not spatial keyword
//! library.
//!
//! Both index structures of the paper are one structure, the aggregate
//! R-tree [`AggTree`] (module [`tree`]), on top of the `wnsk-storage` page
//! substrate. It is STR bulk-loaded ([`str_pack`]), stores nodes as
//! blob-chained pages, maintains itself copy-on-write under insert /
//! remove / update, and routes every access through the buffer pool so
//! experiments can meter physical I/O exactly as the paper does. Its
//! incremental best-first search yields top-k results and ranks. The two
//! trees differ only in the per-entry [`Aggregate`]:
//!
//! * [`SetRTree`] — an IR-tree variant whose internal entries carry the
//!   *union* and *intersection* keyword sets of their subtree (§IV-B).
//!   Theorem 1 turns those sets into a per-node upper bound on the ranking
//!   score, powering the incremental best-first [`TopKSearch`] and the
//!   rank-of-object search used by the basic why-not algorithm.
//! * [`KcrTree`] — the Keyword-count R-tree (§V-A, after \[22\]): internal
//!   entries carry a keyword-count map and subtree cardinality, from which
//!   [`kcr::max_dom`] / [`kcr::min_dom`] bound the number of dominators of
//!   a missing object inside a subtree *without descending into it*
//!   (Theorems 2 & 3, Algorithm 2).
//!
//! `tests/page_image.rs` pins the exact on-disk image of both trees. The
//! shared object/dataset model ([`model`]) includes deliberately naive
//! brute-force evaluators used as ground truth by the test suites.

mod descend;
pub mod kcr;
pub mod model;
pub mod payload;
pub mod query;
pub mod setr;
pub mod stats;
pub mod str_pack;
mod stream;
pub mod tree;
mod util;

pub use descend::{LeafSimKernel, ScoredChildren};
pub use kcr::{KcrEntry, KcrNode, KcrTree, NodeSummary};
pub use model::{Dataset, ObjectId, SpatialObject};
pub use query::{st_score, tsim_node_upper, SpatialKeywordQuery};
pub use setr::{SetRTree, TopKSearch};
pub use stats::TraversalStats;
pub use stream::ObjectStream;
pub use tree::{AggTree, Aggregate, RankMode, RankOutcome};
pub use util::OrdF64;
