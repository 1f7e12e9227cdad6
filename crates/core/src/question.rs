//! Problem types: the why-not question, its precomputed context, and the
//! refined-query answers.

use crate::error::{Result, WhyNotError};
use crate::penalty::PenaltyModel;
use std::time::Duration;
use wnsk_geo::Point;
use wnsk_index::{st_score, Dataset, ObjectId, SpatialKeywordQuery};
use wnsk_text::{KeywordSet, ProjectedSet, SimUniverse};

/// A why-not question (Definition 2): the initial query, the objects the
/// user expected to see, and the penalty preference λ.
#[derive(Clone, Debug)]
pub struct WhyNotQuestion {
    /// The initial spatial keyword top-k query `q = (loc, doc₀, k₀, α)`.
    pub query: SpatialKeywordQuery,
    /// The missing objects `M` (non-empty, distinct, all ranked below the
    /// initial top-k).
    pub missing: Vec<ObjectId>,
    /// Preference between modifying `k` and modifying the keywords
    /// (Eqn. 4).
    pub lambda: f64,
}

impl WhyNotQuestion {
    /// Creates a question; full validation happens against the dataset in
    /// [`WhyNotContext::new`].
    pub fn new(query: SpatialKeywordQuery, missing: Vec<ObjectId>, lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0,1]");
        WhyNotQuestion {
            query,
            missing,
            lambda,
        }
    }

    /// Structural validation against the dataset: the missing set is
    /// non-empty, has no duplicates and every id exists.
    pub fn validate(&self, dataset: &Dataset) -> Result<()> {
        if self.missing.is_empty() {
            return Err(WhyNotError::EmptyMissingSet);
        }
        let mut seen = std::collections::HashSet::new();
        for &id in &self.missing {
            if !dataset.is_live(id) {
                return Err(WhyNotError::UnknownObject(id));
            }
            if !seen.insert(id) {
                return Err(WhyNotError::DuplicateMissing(id));
            }
        }
        Ok(())
    }
}

/// Per-missing-object precomputation shared by every algorithm.
#[derive(Clone, Debug)]
pub struct MissingObjectInfo {
    pub id: ObjectId,
    pub loc: Point,
    pub doc: KeywordSet,
    /// Normalised spatial distance to the query — fixed across refined
    /// queries, since refinement never moves the query location.
    pub sdist: f64,
}

/// Per-question bitset-kernel state, built once in
/// [`WhyNotContext::new`] and shared by every candidate the solvers
/// evaluate: the dense slot renumbering of the adaption universe.
///
/// `None` on the context when the universe spills past
/// [`wnsk_text::BLOCK_BITS`] — impossible for enumerated questions
/// (the enumerator caps the universe below 64 terms) but kept as a
/// graceful scalar fallback rather than a panic.
#[derive(Clone, Debug)]
pub struct QuestionKernel {
    uni: SimUniverse,
}

impl QuestionKernel {
    /// The slot mapping over `doc₀ ∪ M.doc`.
    #[inline]
    pub fn universe(&self) -> &SimUniverse {
        &self.uni
    }

    /// Projects a keyword set onto the question universe.
    #[inline]
    pub fn project(&self, set: &KeywordSet) -> ProjectedSet {
        self.uni.project(set)
    }
}

/// Everything the algorithms need about one why-not question, computed
/// once: per-missing info, the candidate keyword universe, and the
/// penalty model (which requires the initial rank `R(M, q)`).
#[derive(Clone, Debug)]
pub struct WhyNotContext<'a> {
    pub dataset: &'a Dataset,
    pub query: SpatialKeywordQuery,
    pub lambda: f64,
    pub missing: Vec<MissingObjectInfo>,
    /// `M.doc = ∪ m_i.doc`.
    pub missing_doc: KeywordSet,
    /// `doc₀ ∪ M.doc`, the candidate universe and Δdoc normaliser.
    pub universe: KeywordSet,
    /// Bitset-kernel state over `universe` (`None` when it spills past
    /// [`wnsk_text::BLOCK_BITS`]; solvers then stay on the scalar path).
    pub kernel: Option<QuestionKernel>,
    /// `R(M, q) = max_i R(m_i, q)` under the initial query.
    pub initial_rank: usize,
    pub penalty: PenaltyModel,
}

impl<'a> WhyNotContext<'a> {
    /// Builds the context. `initial_rank` is `R(M, q)`, computed by the
    /// caller with an index scan (Algorithm 1/4, line 1).
    ///
    /// Fails with [`WhyNotError::NotMissing`] when the "missing" objects
    /// already fit in the initial top-k.
    pub fn new(
        dataset: &'a Dataset,
        question: &WhyNotQuestion,
        initial_rank: usize,
    ) -> Result<Self> {
        question.validate(dataset)?;
        if initial_rank <= question.query.k {
            // Identify an offender for the error message (error path only,
            // so the brute-force rank is acceptable).
            let offender = question
                .missing
                .iter()
                .map(|&id| (id, dataset.rank_of(id, &question.query)))
                .min_by_key(|&(_, r)| r)
                .expect("missing set validated non-empty");
            return Err(WhyNotError::NotMissing {
                object: offender.0,
                rank: offender.1,
            });
        }
        let missing: Vec<MissingObjectInfo> = question
            .missing
            .iter()
            .map(|&id| {
                let o = dataset.object(id);
                MissingObjectInfo {
                    id,
                    loc: o.loc,
                    doc: o.doc.clone(),
                    sdist: dataset.world().normalized_dist(&o.loc, &question.query.loc),
                }
            })
            .collect();
        let missing_doc = missing
            .iter()
            .fold(KeywordSet::empty(), |acc, m| acc.union(&m.doc));
        let universe = question.query.doc.union(&missing_doc);
        let penalty = PenaltyModel::new(
            question.lambda,
            question.query.k,
            initial_rank,
            universe.len(),
        );
        let kernel = SimUniverse::new(&universe).map(|uni| QuestionKernel { uni });
        Ok(WhyNotContext {
            dataset,
            query: question.query.clone(),
            lambda: question.lambda,
            missing,
            missing_doc,
            universe,
            kernel,
            initial_rank,
            penalty,
        })
    }

    /// The exact scores `ST(m_i, q_S)` of every missing object under a
    /// candidate keyword set (location and α are unchanged by refinement).
    pub fn missing_scores(&self, s: &KeywordSet) -> Vec<f64> {
        self.missing
            .iter()
            .map(|m| {
                st_score(
                    self.query.alpha,
                    m.sdist,
                    self.query.sim.similarity(&m.doc, s),
                )
            })
            .collect()
    }

    /// The targets for a rank-of-set scan under candidate `s`:
    /// `(id, score)` pairs.
    pub fn missing_targets(&self, s: &KeywordSet) -> Vec<(ObjectId, f64)> {
        self.missing
            .iter()
            .zip(self.missing_scores(s))
            .map(|(m, score)| (m.id, score))
            .collect()
    }

    /// The *basic* refined query: keep `doc₀`, enlarge `k` to `R(M, q)`.
    /// Its penalty is exactly λ; it initialises every algorithm's best.
    pub fn baseline(&self) -> RefinedQuery {
        RefinedQuery {
            doc: self.query.doc.clone(),
            k: self.initial_rank,
            rank: self.initial_rank,
            edit_distance: 0,
            penalty: self.penalty.baseline_penalty(),
        }
    }

    /// Lemma 1's choice of `k'` for a refined keyword set under which the
    /// missing set ranks `rank`: `max(k₀, rank)`.
    pub fn refined_k(&self, rank: usize) -> usize {
        rank.max(self.query.k)
    }
}

/// A refined query answering the why-not question.
#[derive(Clone, Debug, PartialEq)]
pub struct RefinedQuery {
    /// The adapted keyword set `doc'`.
    pub doc: KeywordSet,
    /// The refined result size `k'` (Lemma 1).
    pub k: usize,
    /// `R(M, q')`: where the missing set ranks under the refined query.
    pub rank: usize,
    /// Insert/delete edit distance from `doc₀`.
    pub edit_distance: usize,
    /// Penalty per Eqn. 4.
    pub penalty: f64,
}

/// Execution statistics reported next to every answer — the paper's two
/// metrics (time, page I/O) plus algorithm-internal counters used by the
/// ablation experiments.
#[derive(Clone, Debug, Default)]
pub struct AlgoStats {
    /// Wall-clock time.
    pub wall: Duration,
    /// Physical page reads through the buffer pool.
    pub io: u64,
    /// Candidate keyword sets generated.
    pub candidates_total: u64,
    /// Candidates discarded by the dominator-cache filter before running
    /// a query (Opt3).
    pub pruned_by_filter: u64,
    /// Candidates never examined thanks to ordered-enumeration early
    /// termination (Opt2) or bound-and-prune pruning.
    pub pruned_by_bound: u64,
    /// Spatial keyword queries actually executed (BS/AdvancedBS).
    pub queries_run: u64,
    /// KcR-tree nodes expanded by the bound-and-prune traversal.
    pub nodes_expanded: u64,
    /// 1 when the query exhausted its [`QueryBudget`](crate::QueryBudget)
    /// and degraded to the approximate fallback.
    pub degraded: u64,
    /// Tasks executed off a peer's deque by the work-stealing pool.
    pub tasks_stolen: u64,
    /// Times a worker lowered the shared best-penalty bound.
    pub bound_refreshes: u64,
    /// Prunes performed against the shared bound (Opt1 keyword-penalty
    /// prunes, Opt3 filter prunes, early-stop aborts, Theorem 3 prunes).
    pub prune_hits: u64,
    /// Per-worker executor counters, in worker-index order (length 1 for
    /// sequential runs; empty when the solver never reached the
    /// candidate-processing phase).
    pub workers: Vec<wnsk_exec::WorkerSnapshot>,
    /// Wall time of the initial-rank phase (finding `R(M, q₀)`).
    pub phase_initial_rank: Duration,
    /// Wall time spent enumerating candidate keyword sets.
    pub phase_enumeration: Duration,
    /// Wall time verifying candidates against the index (rank queries
    /// for BS/AdvancedBS, the bound-and-prune traversal for KcRBased).
    pub phase_verification: Duration,
    /// Distribution of per-task executor latencies (empty when the
    /// solver never timed tasks).
    pub task_latency: wnsk_obs::HistSnapshot,
    /// The initial rank `R(M, q₀)` the solver worked from (0 when the
    /// phase never completed). The serving layer uses this to seed its
    /// rank cache so repeated why-not questions can skip the
    /// initial-rank scan via `KcrOptions::initial_rank_hint`.
    pub initial_rank: u64,
}

impl AlgoStats {
    /// The per-phase wall times in execution order, named with the
    /// labels used by [`wnsk_obs::QueryReport`] phases.
    pub fn phases(&self) -> [(&'static str, Duration); 3] {
        [
            ("initial_rank", self.phase_initial_rank),
            ("enumeration", self.phase_enumeration),
            ("verification", self.phase_verification),
        ]
    }

    /// Mirrors the counters and phase timers into a shared metrics
    /// `registry` under the canonical `core.*` names, so a registry
    /// delta taken around an `answer_*` call contains solver-level
    /// metrics alongside buffer-pool and tree-traversal counters.
    pub fn record_into(&self, registry: &wnsk_obs::Registry) {
        use wnsk_obs::names;
        for (name, value) in [
            (names::CORE_CANDIDATES, self.candidates_total),
            (names::CORE_PRUNED_FILTER, self.pruned_by_filter),
            (names::CORE_PRUNED_BOUND, self.pruned_by_bound),
            (names::CORE_QUERIES_RUN, self.queries_run),
            (names::CORE_NODES_EXPANDED, self.nodes_expanded),
            (names::CORE_DEGRADED, self.degraded),
            (names::EXEC_TASKS_STOLEN, self.tasks_stolen),
            (names::EXEC_BOUND_REFRESHES, self.bound_refreshes),
            (names::EXEC_PRUNE_HITS, self.prune_hits),
        ] {
            registry.counter(name).add(value);
        }
        for (name, elapsed) in [
            (names::PHASE_INITIAL_RANK, self.phase_initial_rank),
            (names::PHASE_ENUMERATION, self.phase_enumeration),
            (names::PHASE_VERIFICATION, self.phase_verification),
        ] {
            if elapsed > Duration::ZERO {
                registry.timer(name).record(elapsed);
            }
        }
        // Histograms: per-phase wall times accumulate one sample per
        // query (so p99 over a workload is meaningful), task latencies
        // merge the solver's whole distribution.
        for (name, elapsed) in [
            (names::PHASE_NS_INITIAL_RANK, self.phase_initial_rank),
            (names::PHASE_NS_ENUMERATION, self.phase_enumeration),
            (names::PHASE_NS_VERIFICATION, self.phase_verification),
        ] {
            if elapsed > Duration::ZERO {
                registry.hist(name).record_duration(elapsed);
            }
        }
        if !self.task_latency.is_empty() {
            registry
                .hist(names::EXEC_TASK_NS)
                .merge_snapshot(&self.task_latency);
        }
    }
}

/// The result of a why-not algorithm: the best refined query plus stats
/// and which rung of the degradation ladder produced it.
#[derive(Clone, Debug)]
pub struct WhyNotAnswer {
    pub refined: RefinedQuery,
    pub stats: AlgoStats,
    pub quality: crate::AnswerQuality,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnsk_geo::{Point, WorldBounds};
    use wnsk_index::SpatialObject;

    fn tiny_dataset() -> Dataset {
        let objects = (0..4)
            .map(|i| SpatialObject {
                id: ObjectId(0),
                loc: Point::new(0.1 * (i + 1) as f64, 0.1),
                doc: KeywordSet::from_ids([i as u32, 10]),
            })
            .collect();
        Dataset::new(objects, WorldBounds::unit())
    }

    fn query(k: usize) -> SpatialKeywordQuery {
        SpatialKeywordQuery::new(Point::new(0.0, 0.0), KeywordSet::from_ids([10]), k, 0.5)
    }

    #[test]
    fn validate_rejects_bad_questions() {
        let ds = tiny_dataset();
        let empty = WhyNotQuestion::new(query(1), vec![], 0.5);
        assert!(matches!(
            empty.validate(&ds),
            Err(WhyNotError::EmptyMissingSet)
        ));
        let unknown = WhyNotQuestion::new(query(1), vec![ObjectId(99)], 0.5);
        assert!(matches!(
            unknown.validate(&ds),
            Err(WhyNotError::UnknownObject(_))
        ));
        let dup = WhyNotQuestion::new(query(1), vec![ObjectId(1), ObjectId(1)], 0.5);
        assert!(matches!(
            dup.validate(&ds),
            Err(WhyNotError::DuplicateMissing(_))
        ));
    }

    #[test]
    fn context_rejects_non_missing() {
        let ds = tiny_dataset();
        let q = WhyNotQuestion::new(query(4), vec![ObjectId(0)], 0.5);
        // rank passed in (≤ k) triggers the NotMissing error.
        assert!(matches!(
            WhyNotContext::new(&ds, &q, 2),
            Err(WhyNotError::NotMissing { .. })
        ));
    }

    #[test]
    fn context_precomputes_universe_and_scores() {
        let ds = tiny_dataset();
        let q = WhyNotQuestion::new(query(1), vec![ObjectId(3)], 0.5);
        let ctx = WhyNotContext::new(&ds, &q, 4).unwrap();
        // universe = {10} ∪ {3, 10} = {3, 10}.
        assert_eq!(ctx.universe, KeywordSet::from_ids([3, 10]));
        assert_eq!(ctx.missing_doc, KeywordSet::from_ids([3, 10]));
        let scores = ctx.missing_scores(&KeywordSet::from_ids([3, 10]));
        assert_eq!(scores.len(), 1);
        let expected = st_score(
            0.5,
            ds.world()
                .normalized_dist(&ds.object(ObjectId(3)).loc, &Point::new(0.0, 0.0)),
            1.0,
        );
        assert!((scores[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn baseline_matches_lambda() {
        let ds = tiny_dataset();
        let q = WhyNotQuestion::new(query(1), vec![ObjectId(3)], 0.3);
        let ctx = WhyNotContext::new(&ds, &q, 4).unwrap();
        let base = ctx.baseline();
        assert_eq!(base.k, 4);
        assert_eq!(base.edit_distance, 0);
        assert!((base.penalty - 0.3).abs() < 1e-12);
    }

    #[test]
    fn refined_k_follows_lemma1() {
        let ds = tiny_dataset();
        let q = WhyNotQuestion::new(query(2), vec![ObjectId(3)], 0.5);
        let ctx = WhyNotContext::new(&ds, &q, 4).unwrap();
        assert_eq!(ctx.refined_k(1), 2, "rank within top-k keeps k₀");
        assert_eq!(ctx.refined_k(3), 3, "rank beyond k₀ grows k to the rank");
    }

    #[test]
    fn multi_missing_universe_unions_docs() {
        let ds = tiny_dataset();
        let q = WhyNotQuestion::new(query(1), vec![ObjectId(2), ObjectId(3)], 0.5);
        let ctx = WhyNotContext::new(&ds, &q, 4).unwrap();
        assert_eq!(ctx.missing_doc, KeywordSet::from_ids([2, 3, 10]));
        assert_eq!(ctx.universe.len(), 3);
        assert_eq!(ctx.missing_targets(&ctx.universe).len(), 2);
    }
}
