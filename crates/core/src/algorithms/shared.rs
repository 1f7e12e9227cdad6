//! State shared between worker threads (§IV-C4: "the parameters such as
//! p_c and R_L need to be synchronized") — and the determinism contract
//! that makes parallel answers bit-identical to single-threaded ones.
//!
//! Every candidate keyword set carries a *sequence number*: its position
//! in the canonical enumeration order (the baseline refined query is
//! seq 0, layer candidates are numbered in enumeration order across
//! layers). Workers keep a private [`LocalBest`] and publish achieved
//! penalties into the lock-free [`SharedBound`] for cross-worker
//! pruning; the final answer is the minimum under the total
//! lexicographic key `(penalty, seq, rank)`, merged at the sequence
//! barrier after each layer.
//!
//! Why this is thread-count invariant: a candidate whose exact penalty
//! equals the global minimum can never be pruned by any bound derived
//! from the (monotonically non-increasing) shared bound — every prune
//! test requires *strictly* exceeding it — so such candidates always
//! run to convergence and offer their exact `(penalty, seq, rank)`
//! key. The set of minimal keys is therefore independent of thread
//! count, steal order and batch partitioning, and the lexicographic
//! merge picks the same one every time: the lowest-seq tie (matching
//! the sequential incumbent-keeps-ties behaviour), at its exact rank.

use crate::question::RefinedQuery;
use parking_lot::Mutex;
use wnsk_exec::SharedBound;

/// Total-order key for best-candidate selection. Penalties are
/// non-negative finite reals (Eqn. 4), so comparing the raw bit pattern
/// is exactly comparing the value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BestKey {
    penalty_bits: u64,
    seq: u64,
    rank: usize,
}

impl BestKey {
    pub fn new(penalty: f64, seq: u64, rank: usize) -> Self {
        debug_assert!(penalty >= 0.0, "penalties are non-negative");
        BestKey {
            penalty_bits: penalty.to_bits(),
            seq,
            rank,
        }
    }

    /// `true` when `self` wins over `other` under the lexicographic
    /// `(penalty, seq, rank)` order (strictly — ties keep the incumbent).
    #[inline]
    pub fn beats(&self, other: &BestKey) -> bool {
        (self.penalty_bits, self.seq, self.rank) < (other.penalty_bits, other.seq, other.rank)
    }
}

/// A refined query together with its candidate sequence number.
#[derive(Clone, Debug)]
pub(crate) struct BestEntry {
    pub refined: RefinedQuery,
    pub seq: u64,
}

impl BestEntry {
    pub fn new(refined: RefinedQuery, seq: u64) -> Self {
        BestEntry { refined, seq }
    }

    pub fn key(&self) -> BestKey {
        BestKey::new(self.refined.penalty, self.seq, self.refined.rank)
    }
}

/// One worker's private best — no synchronisation; merged into
/// [`SharedBest`] at the layer's sequence barrier.
#[derive(Default)]
pub(crate) struct LocalBest {
    entry: Option<BestEntry>,
}

impl LocalBest {
    pub fn new() -> Self {
        LocalBest::default()
    }

    /// Installs the entry built by `make` iff `key` beats the current
    /// local best. The constructor only runs on improvement, keeping
    /// the hot offer path free of `RefinedQuery` clones.
    pub fn improve_with(&mut self, key: BestKey, make: impl FnOnce() -> BestEntry) -> bool {
        let improves = match &self.entry {
            None => true,
            Some(cur) => key.beats(&cur.key()),
        };
        if improves {
            let entry = make();
            debug_assert!(entry.key() == key, "key must describe the entry");
            self.entry = Some(entry);
        }
        improves
    }

    /// Installs `entry` iff it beats the current local best.
    #[cfg(test)]
    pub fn offer(&mut self, entry: BestEntry) -> bool {
        self.improve_with(entry.key(), || entry)
    }
}

/// The globally best refined query: a mutex-guarded `(entry)` updated at
/// sequence barriers plus the lock-free [`SharedBound`] mirror that
/// workers prune against mid-layer.
pub(crate) struct SharedBest {
    state: Mutex<BestEntry>,
    bound: SharedBound,
}

impl SharedBest {
    /// Starts from the baseline refined query (seq 0, penalty λ).
    pub fn new(baseline: RefinedQuery) -> Self {
        let bound = SharedBound::new(baseline.penalty);
        SharedBest {
            state: Mutex::new(BestEntry::new(baseline, 0)),
            bound,
        }
    }

    /// The cross-worker penalty bound (`p_c`), for lock-free pruning.
    #[inline]
    pub fn bound(&self) -> &SharedBound {
        &self.bound
    }

    /// Penalty of the merged best. Called at layer boundaries (Opt2 /
    /// Algorithm 4 line 4), not on the per-candidate hot path.
    pub fn penalty(&self) -> f64 {
        self.state.lock().refined.penalty
    }

    /// Merges a worker's local best at the sequence barrier. The
    /// lexicographic key makes the result independent of merge order.
    pub fn merge(&self, local: LocalBest) {
        let Some(entry) = local.entry else {
            return;
        };
        let mut state = self.state.lock();
        if entry.key().beats(&state.key()) {
            self.bound.refresh(entry.refined.penalty);
            *state = entry;
        }
    }

    /// Consumes the wrapper, returning the final best refined query.
    pub fn into_inner(self) -> RefinedQuery {
        self.state.into_inner().refined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnsk_text::KeywordSet;

    fn refined(penalty: f64, rank: usize) -> RefinedQuery {
        RefinedQuery {
            doc: KeywordSet::from_ids([1]),
            k: rank.max(1),
            rank,
            edit_distance: 1,
            penalty,
        }
    }

    #[test]
    fn key_order_is_penalty_then_seq_then_rank() {
        let a = BestKey::new(0.3, 5, 9);
        assert!(BestKey::new(0.2, 9, 9).beats(&a), "lower penalty wins");
        assert!(BestKey::new(0.3, 4, 9).beats(&a), "same penalty: lower seq");
        assert!(BestKey::new(0.3, 5, 8).beats(&a), "same seq: lower rank");
        assert!(
            !BestKey::new(0.3, 5, 9).beats(&a),
            "exact tie keeps incumbent"
        );
        assert!(!BestKey::new(0.4, 1, 1).beats(&a));
    }

    #[test]
    fn local_best_keeps_lowest_key() {
        let mut local = LocalBest::new();
        assert!(local.offer(BestEntry::new(refined(0.5, 7), 3)));
        assert!(
            !local.offer(BestEntry::new(refined(0.5, 7), 3)),
            "tie loses"
        );
        assert!(!local.offer(BestEntry::new(refined(0.5, 7), 4)));
        assert!(
            local.offer(BestEntry::new(refined(0.5, 6), 3)),
            "tighter rank"
        );
        assert!(local.offer(BestEntry::new(refined(0.2, 9), 8)));
        assert_eq!(local.entry.unwrap().refined.penalty, 0.2);
    }

    #[test]
    fn improve_with_skips_construction_on_loss() {
        let mut local = LocalBest::new();
        local.offer(BestEntry::new(refined(0.1, 1), 1));
        let mut built = false;
        local.improve_with(BestKey::new(0.9, 2, 2), || {
            built = true;
            BestEntry::new(refined(0.9, 2), 2)
        });
        assert!(!built, "losing keys must not build entries");
    }

    #[test]
    fn merge_is_order_independent() {
        let entries = [
            BestEntry::new(refined(0.5, 5), 2),
            BestEntry::new(refined(0.3, 4), 9),
            BestEntry::new(refined(0.3, 4), 1),
        ];
        // Two merge orders, same winner: penalty 0.3 at the lowest seq.
        for order in [[0usize, 1, 2], [2, 1, 0]] {
            let best = SharedBest::new(refined(0.8, 10));
            for &i in &order {
                let mut local = LocalBest::new();
                local.offer(entries[i].clone());
                best.merge(local);
            }
            assert_eq!(best.penalty(), 0.3);
            assert_eq!(best.bound().value(), 0.3);
            let winner = best.into_inner();
            assert_eq!(winner.rank, 4);
        }
    }

    #[test]
    fn bound_tracks_merged_minimum() {
        let best = SharedBest::new(refined(1.0, 10));
        assert_eq!(best.bound().value(), 1.0);
        let mut local = LocalBest::new();
        local.offer(BestEntry::new(refined(0.25, 3), 7));
        best.merge(local);
        assert_eq!(best.bound().value(), 0.25);
        assert_eq!(best.penalty(), 0.25);
        // An empty local is a no-op.
        best.merge(LocalBest::new());
        assert_eq!(best.penalty(), 0.25);
    }
}
