//! Fixed-width bitset kernels for the query-time keyword universe.
//!
//! The why-not algorithms spend their hot loops on small-set arithmetic:
//! text similarity between candidate keyword sets and object documents
//! (Eqn. 2 and its Dice/cosine variants), and the per-node relevant-count
//! gathers behind the `MaxDom`/`MinDom` dominator bounds (Theorems 2/3).
//! Every set involved is drawn from — or can be projected onto — the
//! *adaption universe* `doc₀ ∪ M.doc`, which is tiny (the candidate
//! enumerator caps it below 64 terms). This module renumbers that
//! universe into dense *slots* and represents its subsets as one
//! fixed-width block of [`BLOCK_WORDS`] machine words, so intersections
//! become branch-free AND + popcount instead of sorted merge scans.
//!
//! The contract that makes the rewrite safe is *exactness, not
//! approximation*: for sets fully inside the universe the kernels produce
//! the same intersection **integers** as the merge scans, and the
//! similarity expressions in [`TextModel::similarity_bits`] replicate the
//! scalar floating-point expressions verbatim — so every penalty, rank
//! and work metric is bit-identical between kernels (see
//! `docs/KERNELS.md`).
//!
//! [`TextModel::similarity_bits`]: crate::TextModel::similarity_bits

use crate::{KeywordSet, TermId};
use std::fmt;
use std::str::FromStr;

/// Number of `u64` words in one bitset block.
///
/// Four words keep a block in half a cache line and cover 256 slots —
/// comfortably above the enumerator's sub-64-term adaption universe
/// (`docs/KERNELS.md` § width selection).
pub const BLOCK_WORDS: usize = 4;

/// Number of bit slots in one block: `BLOCK_WORDS * 64` = 256.
///
/// A universe with more distinct terms than this *spills*: kernel
/// construction returns `None` and callers fall back to the scalar
/// merge-scan path (`docs/KERNELS.md` § spill handling).
pub const BLOCK_BITS: usize = BLOCK_WORDS * 64;

/// Which set-arithmetic implementation the solvers run.
///
/// Both kernels compute identical integers and identical floats; only
/// wall time differs. `bitset` is the default; `scalar` is kept for A/B
/// measurement (`wnsk whynot --kernel=scalar`, `xp bench`) and as the
/// fallback when a universe spills past [`BLOCK_BITS`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Sorted-merge scans over `TermId` slices (the original code path).
    Scalar,
    /// AND + popcount over `[u64; BLOCK_WORDS]` blocks.
    #[default]
    Bitset,
}

impl Kernel {
    /// Every kernel, in A/B-comparison order.
    pub const ALL: [Kernel; 2] = [Kernel::Scalar, Kernel::Bitset];

    /// The canonical CLI/bench name (`scalar` / `bitset`).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Bitset => "bitset",
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Kernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(Kernel::Scalar),
            "bitset" => Ok(Kernel::Bitset),
            other => Err(format!("unknown kernel '{other}' (scalar|bitset)")),
        }
    }
}

/// A fixed-width bitset over [`BLOCK_BITS`] slots.
///
/// The unit of the kernels: one intersection size is `BLOCK_WORDS` ANDs
/// and popcounts, no branches, no memory indirection.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct BlockSet {
    words: [u64; BLOCK_WORDS],
}

impl BlockSet {
    /// The empty block.
    pub const EMPTY: BlockSet = BlockSet {
        words: [0; BLOCK_WORDS],
    };

    /// Sets `slot`.
    ///
    /// # Panics
    /// If `slot >= BLOCK_BITS`.
    #[inline]
    pub fn insert(&mut self, slot: usize) {
        assert!(slot < BLOCK_BITS, "slot {slot} out of range");
        self.words[slot / 64] |= 1u64 << (slot % 64);
    }

    /// Whether `slot` is set (out-of-range slots are never set).
    #[inline]
    pub fn contains(&self, slot: usize) -> bool {
        slot < BLOCK_BITS && self.words[slot / 64] >> (slot % 64) & 1 == 1
    }

    /// Number of set slots.
    #[inline]
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// `|self ∩ other|` — the kernel primitive: an unrolled `u64` AND +
    /// `count_ones` chain (LLVM lowers `count_ones` to the `popcnt`
    /// instruction where available).
    #[inline]
    pub fn and_count(&self, other: &BlockSet) -> u32 {
        let mut n = 0u32;
        for i in 0..BLOCK_WORDS {
            n += (self.words[i] & other.words[i]).count_ones();
        }
        n
    }

    /// Iterates set slots in ascending order (bit-scan per word), which
    /// mirrors ascending-`TermId` iteration after projection.
    pub fn iter_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1; // clear lowest set bit
                Some(wi * 64 + bit)
            })
        })
    }
}

impl fmt::Debug for BlockSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter_slots()).finish()
    }
}

/// The dense query-time renumbering: universe term → bit slot.
///
/// Slots are assigned in ascending [`TermId`] order, so iterating a
/// block's set bits visits terms in the same order as
/// [`KeywordSet::iter`] — the property that keeps projected gathers
/// producing the same sequences as the scalar code.
#[derive(Clone, Debug)]
pub struct SimUniverse {
    /// Sorted, duplicate-free universe terms; index = slot.
    slots: Box<[TermId]>,
}

impl SimUniverse {
    /// Builds the slot mapping for `universe`, or `None` when the
    /// universe has more than [`BLOCK_BITS`] terms (spill: callers keep
    /// the scalar path, which is always exact).
    pub fn new(universe: &KeywordSet) -> Option<SimUniverse> {
        if universe.len() > BLOCK_BITS {
            return None;
        }
        Some(SimUniverse {
            slots: universe.terms().to_vec().into_boxed_slice(),
        })
    }

    /// Number of slots in use (≤ [`BLOCK_BITS`]).
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the universe is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot of `term`, if the term is in the universe.
    #[inline]
    pub fn slot_of(&self, term: TermId) -> Option<usize> {
        self.slots.binary_search(&term).ok()
    }

    /// The term occupying `slot`.
    ///
    /// # Panics
    /// If `slot >= self.len()`.
    #[inline]
    pub fn term_at(&self, slot: usize) -> TermId {
        self.slots[slot]
    }

    /// Projects an arbitrary keyword set onto the universe: the bits of
    /// `set ∩ universe` plus the set's full length.
    ///
    /// Linear merge over the two sorted sequences — done once per set,
    /// after which every intersection against it is AND + popcount.
    pub fn project(&self, set: &KeywordSet) -> ProjectedSet {
        let mut bits = BlockSet::EMPTY;
        let (mut i, mut j) = (0, 0);
        let terms = set.terms();
        while i < self.slots.len() && j < terms.len() {
            match self.slots[i].cmp(&terms[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    bits.insert(i);
                    i += 1;
                    j += 1;
                }
            }
        }
        ProjectedSet {
            bits,
            full_len: set.len() as u32,
        }
    }
}

/// A keyword set projected onto a [`SimUniverse`]: the bitset of its
/// in-universe terms plus its *full* (unprojected) cardinality.
///
/// The full length is what the similarity denominators need: for a
/// candidate `S ⊆ U` and any document `D`,
/// `|D ∩ S| = |(D ∩ U) ∩ S|`, so carrying `(bits of D ∩ U, |D|)` is
/// enough to evaluate `similarity(D, S)` exactly (see
/// [`crate::TextModel::similarity_bits`] for the precondition).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProjectedSet {
    pub(crate) bits: BlockSet,
    pub(crate) full_len: u32,
}

impl ProjectedSet {
    /// The in-universe bits.
    #[inline]
    pub fn bits(&self) -> &BlockSet {
        &self.bits
    }

    /// The full cardinality of the original (unprojected) set.
    #[inline]
    pub fn full_len(&self) -> usize {
        self.full_len as usize
    }

    /// `true` when the original set lies entirely inside the universe
    /// (no terms were dropped by projection).
    #[inline]
    pub fn in_universe(&self) -> bool {
        self.bits.count() == self.full_len
    }

    /// `|self ∩ other|` over the in-universe bits.
    #[inline]
    pub fn and_count(&self, other: &ProjectedSet) -> u32 {
        self.bits.and_count(&other.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ks(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in Kernel::ALL {
            assert_eq!(k.name().parse::<Kernel>().unwrap(), k);
            assert_eq!(k.to_string(), k.name());
        }
        assert!("avx-512".parse::<Kernel>().is_err());
        assert_eq!(Kernel::default(), Kernel::Bitset);
    }

    #[test]
    fn block_set_insert_contains_count() {
        let mut b = BlockSet::EMPTY;
        assert_eq!(b.count(), 0);
        for slot in [0, 1, 63, 64, 127, 128, 255] {
            b.insert(slot);
            assert!(b.contains(slot));
        }
        assert_eq!(b.count(), 7);
        assert!(!b.contains(2));
        assert!(!b.contains(BLOCK_BITS + 5));
        assert_eq!(
            b.iter_slots().collect::<Vec<_>>(),
            vec![0, 1, 63, 64, 127, 128, 255]
        );
    }

    #[test]
    fn and_count_matches_naive() {
        let mut a = BlockSet::EMPTY;
        let mut b = BlockSet::EMPTY;
        for s in [0, 5, 64, 100, 200, 255] {
            a.insert(s);
        }
        for s in [5, 64, 201, 255] {
            b.insert(s);
        }
        assert_eq!(a.and_count(&b), 3);
        assert_eq!(b.and_count(&a), 3);
        assert_eq!(a.and_count(&BlockSet::EMPTY), 0);
    }

    #[test]
    fn universe_spills_past_block_bits() {
        let fits = KeywordSet::from_ids(0..BLOCK_BITS as u32);
        assert!(SimUniverse::new(&fits).is_some());
        let spills = KeywordSet::from_ids(0..=BLOCK_BITS as u32);
        assert!(SimUniverse::new(&spills).is_none());
    }

    #[test]
    fn slots_follow_term_order() {
        let uni = SimUniverse::new(&ks(&[3, 10, 42])).unwrap();
        assert_eq!(uni.len(), 3);
        assert_eq!(uni.slot_of(TermId(3)), Some(0));
        assert_eq!(uni.slot_of(TermId(10)), Some(1));
        assert_eq!(uni.slot_of(TermId(42)), Some(2));
        assert_eq!(uni.slot_of(TermId(4)), None);
        assert_eq!(uni.term_at(1), TermId(10));
    }

    #[test]
    fn projection_keeps_full_len_and_intersections() {
        let uni = SimUniverse::new(&ks(&[1, 2, 3, 10])).unwrap();
        // Document with terms outside the universe: bits cover only the
        // in-universe part, full_len the whole document.
        let doc = uni.project(&ks(&[2, 3, 77, 99]));
        assert_eq!(doc.full_len(), 4);
        assert_eq!(doc.bits().count(), 2);
        assert!(!doc.in_universe());
        // Candidate fully inside the universe.
        let cand = uni.project(&ks(&[2, 10]));
        assert!(cand.in_universe());
        assert_eq!(cand.full_len(), 2);
        // |doc ∩ cand| = |{2}| = 1, identical to the merge scan.
        assert_eq!(
            doc.and_count(&cand) as usize,
            ks(&[2, 3, 77, 99]).intersection_len(&ks(&[2, 10]))
        );
    }

    #[test]
    fn empty_universe_and_sets() {
        let uni = SimUniverse::new(&KeywordSet::empty()).unwrap();
        assert!(uni.is_empty());
        let p = uni.project(&ks(&[1, 2]));
        assert_eq!(p.bits().count(), 0);
        assert_eq!(p.full_len(), 2);
        let e = uni.project(&KeywordSet::empty());
        assert!(e.in_universe());
        assert_eq!(e.and_count(&p), 0);
    }
}
