//! Rank-of-set scans: computing `R(M, q') = max_i R(m_i, q')` with one
//! pass over an [`ObjectStream`], with optional early stop.

use crate::budget::{BudgetGuard, DegradeReason};
use crate::error::Result;
use std::collections::HashSet;
use wnsk_index::{ObjectId, ObjectStream};

/// How often a scan re-measures its [`BudgetGuard`] (stream pulls between
/// checkpoints). Sized so the clock/counter reads stay invisible next to
/// the page I/O the pulls themselves cause.
pub(crate) const BUDGET_CHECK_INTERVAL: usize = 64;

/// How a rank-of-set scan terminated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetRankOutcome {
    /// The exact `R(M, q')`.
    Exact { rank: usize },
    /// Aborted: the rank provably exceeds the supplied bound after seeing
    /// this many dominators.
    Aborted { seen_dominators: usize },
    /// The query budget was exhausted mid-scan; the rank is unknown.
    Breached { reason: DegradeReason },
}

impl SetRankOutcome {
    /// The exact rank, if the scan completed.
    pub fn rank(&self) -> Option<usize> {
        match self {
            SetRankOutcome::Exact { rank } => Some(*rank),
            SetRankOutcome::Aborted { .. } | SetRankOutcome::Breached { .. } => None,
        }
    }
}

/// `min_i ST(m_i, q')`: the worst missing object's score, whose strict
/// dominators decide `R(M, q')`.
pub(crate) fn min_score(targets: &[(ObjectId, f64)]) -> f64 {
    targets
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::INFINITY, f64::min)
}

/// Computes `R(M, q')` by pulling a score-ordered stream.
///
/// `R(M, q')` equals the rank of the *worst-scoring* missing object, i.e.
/// one plus the number of objects scoring strictly above
/// `min_i ST(m_i, q')`.
///
/// * `targets` — `(id, exact score)` of every missing object under `q'`.
/// * `max_rank` — early stop (Eqn. 6): abort as soon as the rank provably
///   exceeds it.
/// * `until_found` — when `true`, emulate the basic algorithm and keep
///   pulling until every missing object has been *retrieved* (§IV-B);
///   when `false`, stop as soon as the stream's scores drop to the
///   worst missing score (same result, fewer pulls).
/// * `guard` — cooperative budget checkpoint, measured every
///   `BUDGET_CHECK_INTERVAL` (64) pulls; a breach returns
///   [`SetRankOutcome::Breached`].
/// * `live_limit` — re-derives `max_rank` at every budget checkpoint
///   (`None` from it aborts at once), so a scan tightens its early stop
///   as the shared penalty bound falls. Needs a `guard`.
/// * `dominators` — collects the id of every dominator pulled (the
///   AdvancedBS dominator cache).
pub fn rank_of_set(
    stream: &mut dyn ObjectStream,
    targets: &[(ObjectId, f64)],
    max_rank: Option<usize>,
    until_found: bool,
    guard: Option<&BudgetGuard>,
    live_limit: Option<&dyn Fn() -> Option<usize>>,
    dominators: Option<&mut HashSet<ObjectId>>,
) -> Result<SetRankOutcome> {
    assert!(!targets.is_empty(), "rank_of_set needs at least one target");
    let remaining = until_found.then(|| targets.iter().map(|&(id, _)| id).collect());
    count_above(
        stream,
        min_score(targets),
        max_rank,
        remaining,
        guard,
        live_limit,
        dominators,
    )
}

/// The one stream-counting loop behind [`rank_of_set`] and
/// `WhyNotEngine::count_dominators`: counts the pulled objects scoring
/// strictly above `min_score`. With `remaining = Some(ids)` it keeps
/// pulling past the threshold until every listed id has been retrieved
/// ([`rank_of_set`]'s `until_found`); with `None` it stops at the first
/// object that does not dominate. The other parameters are
/// [`rank_of_set`]'s.
pub(crate) fn count_above(
    stream: &mut dyn ObjectStream,
    min_score: f64,
    mut max_rank: Option<usize>,
    mut remaining: Option<Vec<ObjectId>>,
    guard: Option<&BudgetGuard>,
    live_limit: Option<&dyn Fn() -> Option<usize>>,
    mut dominators: Option<&mut HashSet<ObjectId>>,
) -> Result<SetRankOutcome> {
    let mut seen = 0usize;
    let mut pulls = 0usize;
    loop {
        if let Some(guard) = guard {
            if pulls.is_multiple_of(BUDGET_CHECK_INTERVAL) {
                if let Some(reason) = guard.check() {
                    return Ok(SetRankOutcome::Breached { reason });
                }
                if let Some(limit) = live_limit {
                    max_rank = match limit() {
                        None => {
                            return Ok(SetRankOutcome::Aborted {
                                seen_dominators: seen,
                            })
                        }
                        Some(usize::MAX) => None,
                        Some(r) => Some(r),
                    };
                }
            }
            pulls += 1;
        }
        if let Some(max_rank) = max_rank {
            if seen + 1 > max_rank {
                return Ok(SetRankOutcome::Aborted {
                    seen_dominators: seen,
                });
            }
        }
        match stream.next_object().map_err(crate::WhyNotError::Storage)? {
            None => break,
            Some((id, score)) => {
                if score > min_score {
                    seen += 1;
                    // A better-scoring missing object is also retrieved.
                    if let Some(remaining) = remaining.as_mut() {
                        remaining.retain(|&t| t != id);
                    }
                    if let Some(sink) = dominators.as_deref_mut() {
                        sink.insert(id);
                    }
                } else if let Some(remaining) = remaining.as_mut() {
                    remaining.retain(|&t| t != id);
                    if remaining.is_empty() {
                        break;
                    }
                } else {
                    break;
                }
            }
        }
    }
    Ok(SetRankOutcome::Exact { rank: seen + 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A canned stream for unit tests.
    struct VecStream {
        items: std::vec::IntoIter<(ObjectId, f64)>,
    }

    impl VecStream {
        fn new(items: Vec<(u32, f64)>) -> Self {
            VecStream {
                items: items
                    .into_iter()
                    .map(|(id, s)| (ObjectId(id), s))
                    .collect::<Vec<_>>()
                    .into_iter(),
            }
        }
    }

    impl ObjectStream for VecStream {
        fn next_object(&mut self) -> wnsk_storage::Result<Option<(ObjectId, f64)>> {
            Ok(self.items.next())
        }
    }

    #[test]
    fn single_target_rank() {
        let mut s = VecStream::new(vec![(1, 0.9), (2, 0.8), (3, 0.5), (4, 0.4)]);
        let out =
            rank_of_set(&mut s, &[(ObjectId(3), 0.5)], None, false, None, None, None).unwrap();
        assert_eq!(out.rank(), Some(3));
    }

    #[test]
    fn multi_target_rank_is_worst() {
        // targets score 0.8 (rank 2) and 0.5 (rank 3) → R(M) = 3.
        let mut s = VecStream::new(vec![(1, 0.9), (2, 0.8), (3, 0.5), (4, 0.4)]);
        let out = rank_of_set(
            &mut s,
            &[(ObjectId(2), 0.8), (ObjectId(3), 0.5)],
            None,
            false,
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(out.rank(), Some(3));
    }

    #[test]
    fn better_scoring_target_counts_as_dominator_of_worst() {
        // Object 2 (missing, 0.8) dominates the worst missing (0.5).
        let mut s = VecStream::new(vec![(2, 0.8), (3, 0.5)]);
        let out = rank_of_set(
            &mut s,
            &[(ObjectId(2), 0.8), (ObjectId(3), 0.5)],
            None,
            true,
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(out.rank(), Some(2));
    }

    #[test]
    fn until_found_scans_past_ties() {
        // Three objects tie at 0.5; the target is emitted last among them.
        let mut s = VecStream::new(vec![(1, 0.9), (2, 0.5), (3, 0.5), (4, 0.5)]);
        let out = rank_of_set(&mut s, &[(ObjectId(4), 0.5)], None, true, None, None, None).unwrap();
        assert_eq!(out.rank(), Some(2), "ties are not dominators");
    }

    #[test]
    fn early_stop_aborts() {
        let mut s = VecStream::new((0..100).map(|i| (i, 1.0 - i as f64 / 200.0)).collect());
        let out = rank_of_set(
            &mut s,
            &[(ObjectId(99), 0.0)],
            Some(10),
            false,
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(
            out,
            SetRankOutcome::Aborted {
                seen_dominators: 10
            }
        );
    }

    #[test]
    fn early_stop_exact_when_rank_within() {
        let mut s = VecStream::new(vec![(1, 0.9), (2, 0.8), (3, 0.5)]);
        let out = rank_of_set(
            &mut s,
            &[(ObjectId(3), 0.5)],
            Some(3),
            false,
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(out.rank(), Some(3));
    }

    #[test]
    fn breached_budget_stops_the_scan() {
        use crate::QueryBudget;
        use std::sync::Arc;
        use std::time::Duration;
        let pool = Arc::new(wnsk_storage::BufferPool::with_default_config(Arc::new(
            wnsk_storage::MemBackend::new(),
        )));
        let guard = BudgetGuard::new(QueryBudget::unlimited().with_deadline(Duration::ZERO), pool);
        let mut s = VecStream::new(vec![(1, 0.9), (2, 0.8)]);
        let out = rank_of_set(
            &mut s,
            &[(ObjectId(2), 0.8)],
            None,
            false,
            Some(&guard),
            None,
            None,
        )
        .unwrap();
        assert_eq!(
            out,
            SetRankOutcome::Breached {
                reason: DegradeReason::DeadlineExceeded
            }
        );
        assert_eq!(out.rank(), None);
    }

    #[test]
    fn live_limit_tightens_at_checkpoints_and_dominators_are_collected() {
        use crate::QueryBudget;
        use std::cell::Cell;
        use std::sync::Arc;
        let pool = Arc::new(wnsk_storage::BufferPool::with_default_config(Arc::new(
            wnsk_storage::MemBackend::new(),
        )));
        let guard = BudgetGuard::new(QueryBudget::unlimited(), pool);
        let items = || (0..200).map(|i| (i, 1.0 - i as f64 / 400.0)).collect();
        // Unlimited at the first checkpoint, 70 at the second (pull 64).
        let calls = Cell::new(0);
        let limit = || {
            calls.set(calls.get() + 1);
            (calls.get() > 1).then_some(70).or(Some(usize::MAX))
        };
        let mut found = HashSet::new();
        let out = rank_of_set(
            &mut VecStream::new(items()),
            &[(ObjectId(199), 0.0)],
            None,
            false,
            Some(&guard),
            Some(&limit),
            Some(&mut found),
        )
        .unwrap();
        assert_eq!(
            out,
            SetRankOutcome::Aborted {
                seen_dominators: 70
            }
        );
        assert_eq!(found.len(), 70);
        assert!(found.contains(&ObjectId(0)) && !found.contains(&ObjectId(70)));
        // A live limit of `None` aborts at the very first checkpoint.
        let out = rank_of_set(
            &mut VecStream::new(items()),
            &[(ObjectId(199), 0.0)],
            None,
            false,
            Some(&guard),
            Some(&|| None),
            None,
        )
        .unwrap();
        assert_eq!(out, SetRankOutcome::Aborted { seen_dominators: 0 });
    }

    #[test]
    fn exhausted_stream_gives_rank() {
        let mut s = VecStream::new(vec![(1, 0.9)]);
        // Target never appears with until_found — stream ends; rank is
        // still 1 + dominators.
        let out =
            rank_of_set(&mut s, &[(ObjectId(5), 0.95)], None, true, None, None, None).unwrap();
        assert_eq!(out.rank(), Some(1));
    }
}
