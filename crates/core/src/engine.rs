//! A batteries-included facade bundling a dataset with both indexes.

use crate::algorithms::{
    answer_advanced, answer_approx_kcr, answer_basic, answer_kcr, AdvancedOptions, KcrOptions,
};
use crate::error::{Result, WhyNotError};
use crate::ingest::Mutation;
use crate::question::{AlgoStats, WhyNotAnswer, WhyNotQuestion};
use crate::rank::{count_above, SetRankOutcome};
use std::sync::Arc;
use wnsk_index::{Dataset, KcrTree, ObjectId, SetRTree, SpatialKeywordQuery, TopKSearch};
use wnsk_obs::{names, QueryReport, Registry, Snapshot};
use wnsk_storage::{BufferPool, BufferPoolConfig, MemBackend, RecoveryReport, StorageError, Wal};
use wnsk_text::Vocabulary;

/// A ready-to-query why-not engine: dataset + SetR-tree + KcR-tree, each
/// on its own simulated disk with the paper's defaults (4 KiB pages,
/// 4 MiB buffer, fanout 100).
///
/// Every component publishes its counters into one shared metrics
/// [`Registry`] (buffer pools under `setr.pool.` / `kcr.pool.`, tree
/// traversals under `setr.` / `kcr.`), so a [`WhyNotEngine::report`]
/// built around any `answer_*` call shows the whole stack's activity.
pub struct WhyNotEngine {
    dataset: Dataset,
    setr: SetRTree,
    kcr: KcrTree,
    vocabulary: Option<Vocabulary>,
    registry: Registry,
    /// Monotonic dataset version: bumped once per applied mutation.
    /// Caches stamp entries with the epoch they were computed under and
    /// drop them when it moves.
    epoch: u64,
    /// Durable mutation log, when attached. Without one, mutations are
    /// in-memory only.
    wal: Option<Wal>,
}

/// The paper's node capacity (§VII-A1).
pub const DEFAULT_FANOUT: usize = 100;

/// Outcome of [`WhyNotEngine::count_dominators`]: the number of live
/// objects scoring strictly above a threshold, either exact or abandoned
/// early once a caller-supplied limit proves the total can only grow
/// past it.
///
/// This is the shard-local building block of the scatter-gather rank
/// reconstruction: dominator counts are additive across a disjoint
/// partition of the dataset (every object lives in exactly one shard and
/// scores are computed against the shared world bounds), so a
/// coordinator sums per-shard `Exact` counts to recover the global rank
/// `R(M, q)` the single-engine scan would produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DominatorCount {
    /// Exactly this many objects score strictly above the threshold.
    Exact(usize),
    /// The scan stopped early: at least this many dominators exist, and
    /// `count + 1` already exceeds the caller's limit.
    AtLeast(usize),
}

/// Adds up per-part counts of a disjoint partition: exact only when
/// every part is.
impl std::iter::Sum for DominatorCount {
    fn sum<I: Iterator<Item = Self>>(parts: I) -> Self {
        parts.fold(DominatorCount::Exact(0), |total, part| {
            match (total, part) {
                (DominatorCount::Exact(a), DominatorCount::Exact(b)) => {
                    DominatorCount::Exact(a + b)
                }
                (
                    DominatorCount::Exact(a) | DominatorCount::AtLeast(a),
                    DominatorCount::Exact(b) | DominatorCount::AtLeast(b),
                ) => DominatorCount::AtLeast(a + b),
            }
        })
    }
}

impl WhyNotEngine {
    /// Builds both indexes over `dataset` on in-memory page stores.
    pub fn build_in_memory(dataset: Dataset) -> Result<Self> {
        Self::build_with(dataset, DEFAULT_FANOUT, BufferPoolConfig::default())
    }

    /// Builds with explicit fanout and buffer-pool configuration.
    pub fn build_with(
        dataset: Dataset,
        fanout: usize,
        pool_config: BufferPoolConfig,
    ) -> Result<Self> {
        let registry = Registry::new();
        let setr_pool = Arc::new(BufferPool::new_registered(
            Arc::new(MemBackend::new()),
            pool_config,
            &registry,
            "setr.pool.",
        ));
        let kcr_pool = Arc::new(BufferPool::new_registered(
            Arc::new(MemBackend::new()),
            pool_config,
            &registry,
            "kcr.pool.",
        ));
        let mut setr = SetRTree::build(setr_pool, &dataset, fanout)?;
        setr.register_metrics(&registry, "setr.");
        let mut kcr = KcrTree::build(kcr_pool, &dataset, fanout)?;
        kcr.register_metrics(&registry, "kcr.");
        Ok(WhyNotEngine {
            dataset,
            setr,
            kcr,
            vocabulary: None,
            registry,
            epoch: 0,
            wal: None,
        })
    }

    /// Attaches a vocabulary so answers can be rendered with keyword
    /// strings.
    pub fn with_vocabulary(mut self, vocabulary: Vocabulary) -> Self {
        self.vocabulary = Some(vocabulary);
        self
    }

    /// The indexed dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The SetR-tree (used by BS / AdvancedBS).
    pub fn setr(&self) -> &SetRTree {
        &self.setr
    }

    /// The KcR-tree (used by KcRBased).
    pub fn kcr(&self) -> &KcrTree {
        &self.kcr
    }

    /// The attached vocabulary, if any.
    pub fn vocabulary(&self) -> Option<&Vocabulary> {
        self.vocabulary.as_ref()
    }

    /// The unified metrics registry every component reports into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Installs one tracer on both trees, so every solver run against
    /// this engine records its spans there. Tracing is observation-only
    /// (answers and work metrics are bit-identical with it on or off);
    /// pass a disabled tracer and flip [`wnsk_obs::Tracer::set_enabled`]
    /// to sample individual queries — the serving layer's slow-query
    /// log does exactly that.
    pub fn set_tracer(&mut self, tracer: wnsk_obs::Tracer) {
        self.setr.set_tracer(tracer.clone());
        self.kcr.set_tracer(tracer);
    }

    /// The current dataset epoch: 0 at build, +1 per applied mutation
    /// (live or replayed). Anything derived from the dataset — cached
    /// answers, initial-rank hints — is valid only for the epoch it was
    /// computed under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Attaches a write-ahead log stored behind `pool`, first replaying
    /// every committed record against this engine (through the same
    /// [`WhyNotEngine::apply`] path live mutations take, so the rebuilt
    /// state is identical to a never-crashed engine's). A torn or corrupt
    /// tail is truncated; the returned [`RecoveryReport`] says how many
    /// records were replayed and how many bytes were dropped. After this,
    /// [`WhyNotEngine::ingest`] is durable.
    pub fn attach_wal(&mut self, pool: Arc<BufferPool>) -> Result<RecoveryReport> {
        if self.wal.is_some() {
            return Err(
                StorageError::invalid_argument("ingest", "a WAL is already attached").into(),
            );
        }
        let registry = self.registry.clone();
        let (mut wal, report) = Wal::recover(pool, |_lsn, kind, payload| {
            let m = Mutation::decode(kind, payload)?;
            self.apply(&m).map_err(|e| match e {
                WhyNotError::Storage(s) => s,
                other => StorageError::corrupt("wal replay", other.to_string()),
            })?;
            Ok(())
        })?;
        wal.register_metrics(&registry);
        registry
            .counter(names::WAL_RECOVERED_RECORDS)
            .add(report.records_replayed);
        registry
            .counter(names::WAL_TRUNCATED_BYTES)
            .add(report.bytes_truncated);
        self.wal = Some(wal);
        Ok(report)
    }

    /// Durably applies one mutation: logged and group-committed to the
    /// attached WAL first (if any), then applied in memory. Returns the
    /// id of the affected object.
    pub fn ingest(&mut self, m: &Mutation) -> Result<ObjectId> {
        let mut ids = self.ingest_batch(std::slice::from_ref(m))?;
        Ok(ids.pop().expect("one mutation in, one id out"))
    }

    /// Durably applies a batch of mutations under a single group commit
    /// (one WAL sync for the whole batch). The batch is validated up
    /// front so the log never records a mutation that cannot replay; it
    /// is applied in order, and ids for inserts are assigned densely in
    /// that order.
    ///
    /// If the commit itself fails the batch is not applied and its
    /// durability is ambiguous (exactly as after a crash): rebuild the
    /// engine and recover via [`WhyNotEngine::attach_wal`] before
    /// continuing.
    pub fn ingest_batch(&mut self, muts: &[Mutation]) -> Result<Vec<ObjectId>> {
        self.validate_batch(muts)?;
        if let Some(wal) = self.wal.as_mut() {
            for m in muts {
                wal.append(m.kind(), &m.encode())?;
            }
            wal.commit()?;
        }
        muts.iter().map(|m| self.apply(m)).collect()
    }

    /// Applies one mutation to the dataset and both trees, bumping the
    /// epoch. Does NOT touch the WAL — this is the replay/apply half that
    /// [`WhyNotEngine::ingest`] and recovery share; calling it directly
    /// bypasses durability.
    pub fn apply(&mut self, m: &Mutation) -> Result<ObjectId> {
        let id = match m {
            Mutation::Insert { loc, doc } => {
                let id = self.dataset.insert(*loc, doc.clone())?;
                self.setr.insert(id, *loc, doc)?;
                self.kcr.insert(id, *loc, doc)?;
                id
            }
            Mutation::Remove { id } => {
                self.require_live(*id)?;
                let loc = self.dataset.object(*id).loc;
                self.dataset.remove(*id)?;
                self.setr.remove(*id, loc)?;
                self.kcr.remove(*id, loc)?;
                *id
            }
            Mutation::UpdateDoc { id, doc } => {
                self.require_live(*id)?;
                let loc = self.dataset.object(*id).loc;
                self.dataset.update_doc(*id, doc.clone())?;
                self.setr.update_doc(*id, loc, doc)?;
                self.kcr.update_doc(*id, loc, doc)?;
                *id
            }
        };
        self.epoch += 1;
        self.registry.counter(names::INGEST_APPLIED).inc();
        Ok(id)
    }

    fn require_live(&self, id: ObjectId) -> Result<()> {
        if !self.dataset.is_live(id) {
            return Err(
                StorageError::invalid_argument("ingest", format!("{id:?} is not live")).into(),
            );
        }
        Ok(())
    }

    /// Rejects a batch whose mutations cannot all apply, accounting for
    /// ids the batch itself inserts or removes along the way.
    fn validate_batch(&self, muts: &[Mutation]) -> Result<()> {
        let base = self.dataset.len() as u32;
        let mut next_id = base;
        let mut removed: std::collections::HashSet<ObjectId> = std::collections::HashSet::new();
        for m in muts {
            match m {
                Mutation::Insert { loc, .. } => {
                    if !self.dataset.world().rect().contains_point(loc) {
                        return Err(StorageError::invalid_argument(
                            "ingest",
                            format!("location {loc:?} lies outside the world bounds"),
                        )
                        .into());
                    }
                    next_id += 1;
                }
                Mutation::Remove { id } | Mutation::UpdateDoc { id, .. } => {
                    let pending_insert = id.0 >= base && id.0 < next_id;
                    let live = self.dataset.is_live(*id) || pending_insert;
                    if !live || removed.contains(id) {
                        return Err(StorageError::invalid_argument(
                            "ingest",
                            format!("{id:?} is not live"),
                        )
                        .into());
                    }
                    if matches!(m, Mutation::Remove { .. }) {
                        removed.insert(*id);
                    }
                }
            }
        }
        Ok(())
    }

    /// Captures the current value of every metric — take one before a
    /// query and pass it to [`WhyNotEngine::report`] afterwards.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Builds the unified per-query report: the answer's solver stats
    /// (phase timings, candidate/prune counters) are mirrored into the
    /// registry, then everything that moved since `before` — buffer-pool
    /// I/O, tree node visits, Theorem 2/3 prune events, solver counters —
    /// is folded into one [`QueryReport`].
    ///
    /// ```
    /// # use wnsk_core::*;
    /// # use wnsk_index::{Dataset, SpatialObject, ObjectId};
    /// # use wnsk_geo::{Point, WorldBounds};
    /// # use wnsk_text::KeywordSet;
    /// # let objects = (0..30).map(|i| SpatialObject {
    /// #     id: ObjectId(0),
    /// #     loc: Point::new((i as f64 * 7.0 % 29.0) / 29.0, (i as f64 * 11.0 % 31.0) / 31.0),
    /// #     doc: KeywordSet::from_ids([i as u32 % 5, 5 + i as u32 % 3]),
    /// # }).collect();
    /// # let dataset = Dataset::new(objects, WorldBounds::unit());
    /// let engine = WhyNotEngine::build_with(
    ///     dataset, 4, wnsk_storage::BufferPoolConfig::default())?;
    /// # let query = wnsk_index::SpatialKeywordQuery::new(
    /// #     Point::new(0.1, 0.1), KeywordSet::from_ids([0, 5]), 3, 0.5);
    /// # let missing = vec![engine.top_k(&query)?.last().unwrap().0];
    /// # let question = WhyNotQuestion::new(
    /// #     wnsk_index::SpatialKeywordQuery { k: 2, ..query }, missing, 0.5);
    /// let before = engine.snapshot();
    /// let answer = engine.answer(&question)?;
    /// let report = engine.report("KcRBased", &answer.stats, &before);
    /// assert!(report.counter("kcr.node_visits") > 0);
    /// println!("{}", report.render());
    /// # Ok::<(), WhyNotError>(())
    /// ```
    pub fn report(&self, algorithm: &str, stats: &AlgoStats, before: &Snapshot) -> QueryReport {
        stats.record_into(&self.registry);
        let delta = self.registry.snapshot().since(before);
        let mut report = QueryReport::new(algorithm, stats.wall);
        for (name, elapsed) in stats.phases() {
            report.push_phase(name, elapsed);
        }
        report.absorb(&delta);
        report
    }

    /// Runs a plain spatial keyword top-k query.
    pub fn top_k(&self, query: &SpatialKeywordQuery) -> Result<Vec<(ObjectId, f64)>> {
        Ok(self.setr.top_k(query)?)
    }

    /// Counts the live objects whose score under `query` is *strictly*
    /// above `min_score`, streaming the SetR-tree best-first so the scan
    /// touches only the score range above the threshold.
    ///
    /// With `limit = Some(l)` the scan aborts as soon as `count + 1 > l`
    /// and reports [`DominatorCount::AtLeast`]. The scan is the
    /// single-engine rank scan's own loop (`rank::count_above`), so a
    /// coordinator pruning a candidate against `l` makes exactly the
    /// decision the one-shard solver would.
    pub fn count_dominators(
        &self,
        query: &SpatialKeywordQuery,
        min_score: f64,
        limit: Option<usize>,
    ) -> Result<DominatorCount> {
        let mut search = TopKSearch::new(&self.setr, query.clone());
        match count_above(&mut search, min_score, limit, None, None, None, None)? {
            SetRankOutcome::Exact { rank } => Ok(DominatorCount::Exact(rank - 1)),
            SetRankOutcome::Aborted { seen_dominators } => {
                Ok(DominatorCount::AtLeast(seen_dominators))
            }
            SetRankOutcome::Breached { .. } => unreachable!("an unguarded scan never breaches"),
        }
    }

    /// Answers a why-not question with the recommended solver
    /// (KcRBased with default options).
    pub fn answer(&self, question: &WhyNotQuestion) -> Result<WhyNotAnswer> {
        answer_kcr(&self.dataset, &self.kcr, question, KcrOptions::default())
    }

    /// Answers under a [`QueryBudget`](crate::QueryBudget): the
    /// recommended solver runs until the budget is exhausted, then
    /// degrades to the in-memory approximate fallback (the answer's
    /// `quality` field says which happened).
    pub fn answer_with_budget(
        &self,
        question: &WhyNotQuestion,
        budget: crate::QueryBudget,
    ) -> Result<WhyNotAnswer> {
        let opts = KcrOptions {
            budget,
            ..KcrOptions::default()
        };
        answer_kcr(&self.dataset, &self.kcr, question, opts)
    }

    /// Answers with the basic algorithm (BS).
    pub fn answer_basic(&self, question: &WhyNotQuestion) -> Result<WhyNotAnswer> {
        answer_basic(&self.dataset, &self.setr, question)
    }

    /// Answers with AdvancedBS.
    pub fn answer_advanced(
        &self,
        question: &WhyNotQuestion,
        opts: AdvancedOptions,
    ) -> Result<WhyNotAnswer> {
        answer_advanced(&self.dataset, &self.setr, question, opts)
    }

    /// Answers with KcRBased.
    pub fn answer_kcr(&self, question: &WhyNotQuestion, opts: KcrOptions) -> Result<WhyNotAnswer> {
        answer_kcr(&self.dataset, &self.kcr, question, opts)
    }

    /// Answers approximately: only the `t` highest-benefit candidates are
    /// considered (§VI-B), trading quality for time.
    pub fn answer_approx(&self, question: &WhyNotQuestion, t: usize) -> Result<WhyNotAnswer> {
        answer_approx_kcr(&self.dataset, &self.kcr, question, KcrOptions::default(), t)
    }

    /// Renders a keyword set with the attached vocabulary (falls back to
    /// raw term ids).
    pub fn render_keywords(&self, doc: &wnsk_text::KeywordSet) -> String {
        let words: Vec<String> = doc
            .iter()
            .map(|t| match self.vocabulary.as_ref().and_then(|v| v.name(t)) {
                Some(name) => name.to_string(),
                None => format!("t{}", t.0),
            })
            .collect();
        format!("{{{}}}", words.join(", "))
    }
}
