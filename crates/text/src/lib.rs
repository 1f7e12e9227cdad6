//! Textual substrate for the why-not spatial keyword library.
//!
//! Everything the paper's algorithms need from the text side lives here:
//!
//! * [`TermId`] / [`Vocabulary`] — string interning so the rest of the
//!   system works with dense `u32` term identifiers,
//! * [`KeywordSet`] — an immutable sorted set of terms with the merge-based
//!   set algebra (intersection/union sizes) behind the Jaccard similarity
//!   of Eqn. 2 and the insert/delete edit distance of Eqn. 4,
//! * [`KeywordCountMap`] — the per-node `kcm` of the KcR-tree (§V-A): a map
//!   from term to the number of objects in a subtree containing that term,
//! * [`CorpusStats`] — document frequencies backing the IDF-based keyword
//!   *particularity* of Eqn. 7, which drives the enumeration order
//!   (§IV-C2) and the greedy sampler (§VI-B),
//! * [`simd`] — fixed-width bitset kernels ([`BlockSet`], [`SimUniverse`],
//!   [`ProjectedSet`]) that rewrite the hot set-intersection loops as
//!   AND + popcount while staying bit-identical to the merge scans
//!   (see `docs/KERNELS.md`).

mod kcm;
mod keyword_set;
mod model;
mod particularity;
pub mod simd;
mod vocab;

pub use kcm::KeywordCountMap;
pub use keyword_set::KeywordSet;
pub use model::TextModel;
pub use particularity::CorpusStats;
pub use simd::{BlockSet, Kernel, ProjectedSet, SimUniverse, BLOCK_BITS, BLOCK_WORDS};
pub use vocab::{TermId, Vocabulary, VocabularyFull};

/// Jaccard similarity between two keyword sets (Eqn. 2).
///
/// Defined as `|a ∩ b| / |a ∪ b|`; by convention the similarity of two
/// empty sets is 0 (an object with no keywords is textually irrelevant to
/// an empty query rather than identical to it).
#[inline]
pub fn jaccard(a: &KeywordSet, b: &KeywordSet) -> f64 {
    let inter = a.intersection_len(b);
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_identical_sets() {
        let a = KeywordSet::from_ids([1, 2, 3]);
        assert_eq!(jaccard(&a, &a), 1.0);
    }

    #[test]
    fn jaccard_disjoint_sets() {
        let a = KeywordSet::from_ids([1, 2]);
        let b = KeywordSet::from_ids([3, 4]);
        assert_eq!(jaccard(&a, &b), 0.0);
    }

    #[test]
    fn jaccard_partial_overlap() {
        let a = KeywordSet::from_ids([1, 2, 3]);
        let b = KeywordSet::from_ids([2, 3, 4, 5]);
        // |∩| = 2, |∪| = 5
        assert_eq!(jaccard(&a, &b), 0.4);
    }

    #[test]
    fn jaccard_empty_sets() {
        let e = KeywordSet::empty();
        assert_eq!(jaccard(&e, &e), 0.0);
        let a = KeywordSet::from_ids([7]);
        assert_eq!(jaccard(&a, &e), 0.0);
    }

    #[test]
    fn jaccard_paper_figure1() {
        // Fig. 1: q.doc = {t1, t2}, m.doc = {t1, t2, t3} → TSim = 2/3
        let q = KeywordSet::from_ids([1, 2]);
        let m = KeywordSet::from_ids([1, 2, 3]);
        assert!((jaccard(&q, &m) - 2.0 / 3.0).abs() < 1e-12);
        // o2.doc = {t1, t3} → TSim = 1/3
        let o2 = KeywordSet::from_ids([1, 3]);
        assert!((jaccard(&q, &o2) - 1.0 / 3.0).abs() < 1e-12);
    }
}
