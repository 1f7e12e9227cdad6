//! The one Algorithm-4 driver every solver runs (Algorithm 1 with Opt2,
//! Algorithm 4): find `R(M, q)`, seed the best with the basic refined
//! query, then walk the edit-distance layers in order and stop once a
//! layer's keyword penalty alone can no longer beat the best (line 4).
//!
//! Only the per-layer verification differs between solvers, so it is
//! the one thing a [`Verifier`] supplies: given a layer's
//! `(seq, candidate)` list and the shared best, it returns its workers'
//! local bests. The driver owns everything around that — question
//! validation, the [`BudgetGuard`], the per-query [`Executor`] and its
//! metrics, the `phase.initial_rank` span, the initial-rank hint and the
//! breach-before-rank degrade, the [`WhyNotContext`], lazy or §VI-B
//! sampled layers, candidate sequence numbers, the merge at each layer's
//! sequence barrier, and the [`AlgoStats`] / quality of the answer.

use crate::algorithms::approx::degraded_fallback;
use crate::algorithms::shared::{BestEntry, BestKey, LocalBest, SharedBest};
use crate::budget::{AnswerQuality, BudgetGuard, QueryBudget};
use crate::enumeration::{Candidate, CandidateEnumerator};
use crate::error::Result;
use crate::question::{AlgoStats, RefinedQuery, WhyNotAnswer, WhyNotContext, WhyNotQuestion};
use crate::rank::SetRankOutcome;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wnsk_exec::{ExecMetrics, Executor, WorkerHandle};
use wnsk_index::{Dataset, ObjectId, SpatialKeywordQuery};
use wnsk_obs::{Hist, SpanId, TracePayload, Tracer};
use wnsk_storage::BufferPool;
use wnsk_text::{Kernel, KeywordSet};

/// One solver's verification of an edit-distance layer — the only step
/// of Algorithm 4 that differs between BS, AdvancedBS, KcRBased and the
/// sharded coordinator.
pub(crate) trait Verifier: Sync {
    /// Span around the whole query.
    const QUERY_SPAN: &'static str;
    /// Span around one verification layer.
    const LAYER_SPAN: &'static str;
    /// Event carrying the converged initial rank, for solvers that
    /// trace one.
    const RANK_EVENT: Option<&'static str> = None;

    /// Where the query's spans and events go.
    fn tracer(&self) -> &Tracer;

    /// The buffer pool the budget's page-read cap and `AlgoStats::io`
    /// are measured on (`None`: the verifier reads no pages of its own).
    fn pool(&self) -> Option<&Arc<BufferPool>>;

    /// Line 1: `R(M, q)` of the initial query — exact, or the breach
    /// that stopped the scan.
    fn initial_rank(
        &self,
        exec: &Executor,
        metrics: &ExecMetrics,
        guard: &BudgetGuard,
        query: &SpatialKeywordQuery,
        targets: &[(ObjectId, f64)],
    ) -> Result<SetRankOutcome>;

    /// Verifies one layer's candidates, each tagged with its global
    /// sequence number, and returns the per-worker local bests for the
    /// driver to merge.
    fn verify(&self, layer: &Layer<'_, '_>, tasks: Vec<(u64, Candidate)>)
        -> Result<Vec<LocalBest>>;
}

/// What the driver lends a verifier for one layer.
pub(crate) struct Layer<'l, 'a> {
    pub ctx: &'l WhyNotContext<'a>,
    /// The best merged so far, with its lock-free bound `p_c`.
    pub best: &'l SharedBest,
    pub guard: &'l BudgetGuard,
    pub exec: &'l Executor,
    pub metrics: &'l ExecMetrics,
    pub stats: &'l Counters,
}

impl Layer<'_, '_> {
    /// Offers the refined query `(doc, max(k₀, rank))` to a worker's
    /// local best and, on improvement, publishes its penalty into the
    /// shared bound so other workers prune against it mid-layer; the
    /// merged best itself only moves at the sequence barrier.
    pub fn offer(
        &self,
        local: &mut LocalBest,
        handle: &WorkerHandle<'_>,
        doc: &KeywordSet,
        edit_distance: usize,
        seq: u64,
        rank: usize,
    ) {
        let penalty = self.ctx.penalty.penalty(edit_distance, rank);
        let improved = local.improve_with(BestKey::new(penalty, seq, rank), || {
            BestEntry::new(
                RefinedQuery {
                    doc: doc.clone(),
                    k: self.ctx.refined_k(rank),
                    rank,
                    edit_distance,
                    penalty,
                },
                seq,
            )
        });
        if improved && self.best.bound().refresh(penalty) {
            handle.count_bound_refresh();
        }
    }
}

/// The work counters of one query, shared by every worker.
#[derive(Default)]
pub(crate) struct Counters {
    pub candidates_total: AtomicU64,
    pub pruned_by_filter: AtomicU64,
    pub pruned_by_bound: AtomicU64,
    pub queries_run: AtomicU64,
    pub nodes_expanded: AtomicU64,
}

/// Adds `n` to a shared counter.
pub(crate) fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// How one query runs: the solver options the driver itself consumes.
pub(crate) struct Plan {
    pub threads: usize,
    pub kernel: Kernel,
    pub budget: QueryBudget,
    /// Opt2: benefit-ordered layers and the line-4 stop.
    pub ordered: bool,
    /// A known `R(M, q)`: skips the initial-rank scan.
    pub rank_hint: Option<usize>,
    /// The fuzz harness's deliberate off-by-one on `R(M, q)`.
    pub inject_rank_bug: bool,
    /// A §VI-B sample to verify instead of the full candidate space.
    pub sample: Option<Vec<Candidate>>,
}

/// Answers `question` with `verifier` doing each layer's verification.
pub(crate) fn drive<V: Verifier>(
    verifier: &V,
    dataset: &Dataset,
    question: &WhyNotQuestion,
    plan: Plan,
) -> Result<WhyNotAnswer> {
    // The query span brackets every exit path — budget degradation and
    // I/O errors included — so the scope is always left clean.
    let tracer = verifier.tracer().clone();
    let query_span = tracer.begin(V::QUERY_SPAN);
    tracer.set_scope(query_span.id());
    let result = run(verifier, dataset, question, plan, &tracer, query_span.id());
    tracer.clear_scope();
    tracer.end(query_span);
    result
}

fn run<V: Verifier>(
    verifier: &V,
    dataset: &Dataset,
    question: &WhyNotQuestion,
    plan: Plan,
    tracer: &Tracer,
    query: SpanId,
) -> Result<WhyNotAnswer> {
    question.validate(dataset)?;
    let start = Instant::now();
    let pool = verifier.pool();
    let io_before = pool.map(|p| p.stats());
    let io = || match (pool, &io_before) {
        (Some(p), Some(before)) => p.stats().since(before).physical_reads,
        _ => 0,
    };
    let guard = BudgetGuard::with_pool(plan.budget, pool.cloned());

    // The work-stealing pool: one per query, reused across the initial
    // rank and every layer so the per-worker counters aggregate over the
    // whole search.
    let exec = Executor::new(plan.threads);
    let mut metrics = ExecMetrics::new(exec.threads());
    metrics.set_tracer(tracer.clone());
    let task_hist = Hist::new();
    metrics.set_task_hist(task_hist.clone());

    // Line 1: R(M, q), unless the serving layer already knows it.
    let targets: Vec<(ObjectId, f64)> = question
        .missing
        .iter()
        .map(|&id| (id, dataset.score(dataset.object(id), &question.query)))
        .collect();
    let rank_span = tracer.begin("phase.initial_rank");
    tracer.set_scope(rank_span.id());
    let outcome = match plan.rank_hint {
        Some(rank) => SetRankOutcome::Exact { rank },
        None => verifier.initial_rank(&exec, &metrics, &guard, &question.query, &targets)?,
    };
    tracer.set_scope(query);
    tracer.end(rank_span);
    let phase_initial_rank = start.elapsed();
    let Some(rank) = outcome.rank() else {
        // Budget gone before R(M, q) was known: degrade with nothing but
        // the question itself.
        let reason = guard.breached().expect("scan only stops early on breach");
        let stats = AlgoStats {
            wall: start.elapsed(),
            io: io(),
            phase_initial_rank,
            ..AlgoStats::default()
        };
        return degraded_fallback(dataset, question, None, None, reason, &plan.budget, stats);
    };
    // The fuzz harness's injected off-by-one (see
    // `KcrOptions::inject_rank_bug`): every downstream penalty reads the
    // perturbed Δk normaliser, so the BS oracle catches it.
    let initial_rank = rank + plan.inject_rank_bug as usize;
    if let Some(event) = V::RANK_EVENT {
        tracer.event(
            event,
            TracePayload::RankConverged {
                rank: initial_rank.min(u32::MAX as usize) as u32,
            },
        );
    }

    let mut ctx = WhyNotContext::new(dataset, question, initial_rank)?;
    if plan.kernel == Kernel::Scalar {
        // A/B knob: dropping the kernel state sends every downstream
        // similarity and dominator bound through the merge-scan path.
        ctx.kernel = None;
    }
    let enumerator = CandidateEnumerator::new(&ctx);

    // Line 2: the basic refined query (penalty λ) initialises the best.
    let best = SharedBest::new(ctx.baseline());
    let stats = Counters::default();

    // The full space is generated a layer at a time, when reached — deep
    // layers are exponentially larger and a breach or the line-4 stop
    // makes them unnecessary. A sample arrives whole and is grouped by
    // edit distance, keeping its benefit order inside each layer.
    let mut phase_enumeration = Duration::ZERO;
    let sample_size = plan.sample.as_ref().map(Vec::len);
    let mut sampled = plan.sample.map(|sample| {
        let t = Instant::now();
        let mut by_d: BTreeMap<usize, Vec<Candidate>> = BTreeMap::new();
        for c in sample {
            by_d.entry(c.edit_distance).or_default().push(c);
        }
        phase_enumeration += t.elapsed();
        by_d
    });
    let depths: Vec<usize> = match &sampled {
        Some(by_d) => by_d.keys().copied().collect(),
        None => (1..=enumerator.max_edit_distance()).collect(),
    };

    // Global candidate sequence numbers (baseline = 0), in enumeration
    // order across layers: the deterministic tiebreak of the merge.
    let mut next_seq: u64 = 1;
    let verification_started = Instant::now();
    for d in depths {
        if guard.check().is_some() {
            break;
        }
        let layer = match sampled.as_mut() {
            Some(by_d) => by_d.remove(&d).unwrap_or_default(),
            None => {
                let t = Instant::now();
                let layer = enumerator.layer(d, plan.ordered);
                phase_enumeration += t.elapsed();
                layer
            }
        };
        // Line 4: this layer's keyword penalty alone cannot beat the
        // best, and it only grows with d. `best` is fully merged here
        // (sequence barrier), so the stop is identical for every thread
        // count.
        if plan.ordered && ctx.penalty.keyword_penalty(d) >= best.penalty() {
            bump(&stats.pruned_by_bound, layer.len() as u64);
            break;
        }
        // One span per layer; worker-side events attach to it through
        // the global scope, which only moves here, between barriers.
        let layer_span = tracer.begin(V::LAYER_SPAN);
        tracer.set_scope(layer_span.id());
        let tasks: Vec<(u64, Candidate)> = (next_seq..).zip(layer).collect();
        next_seq += tasks.len() as u64;
        let env = Layer {
            ctx: &ctx,
            best: &best,
            guard: &guard,
            exec: &exec,
            metrics: &metrics,
            stats: &stats,
        };
        // Sequence barrier: every worker's local best is folded in
        // before the next layer's line-4 test.
        for local in verifier.verify(&env, tasks)? {
            best.merge(local);
        }
        tracer.set_scope(query);
        tracer.end(layer_span);
        if guard.breached().is_some() {
            break;
        }
    }

    let refined = best.into_inner();
    let totals = metrics.totals();
    let stats = AlgoStats {
        wall: start.elapsed(),
        io: io(),
        candidates_total: stats.candidates_total.into_inner(),
        pruned_by_filter: stats.pruned_by_filter.into_inner(),
        pruned_by_bound: stats.pruned_by_bound.into_inner(),
        queries_run: stats.queries_run.into_inner(),
        nodes_expanded: stats.nodes_expanded.into_inner(),
        tasks_stolen: totals.stolen,
        bound_refreshes: totals.bound_refreshes,
        prune_hits: totals.prune_hits,
        workers: metrics.per_worker(),
        initial_rank: initial_rank as u64,
        phase_initial_rank,
        phase_enumeration,
        phase_verification: verification_started.elapsed(),
        task_latency: task_hist.snapshot(),
        ..AlgoStats::default()
    };
    if let Some(reason) = guard.breached() {
        return degraded_fallback(
            dataset,
            question,
            Some(initial_rank),
            Some(refined),
            reason,
            &plan.budget,
            stats,
        );
    }
    let quality = match sample_size {
        Some(sample_size) => AnswerQuality::Approximate { sample_size },
        None => AnswerQuality::Exact,
    };
    Ok(WhyNotAnswer {
        refined,
        stats,
        quality,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::DegradeReason;
    use parking_lot::Mutex;
    use wnsk_geo::{Point, WorldBounds};
    use wnsk_index::SpatialObject;
    use wnsk_storage::MemBackend;

    /// A verifier that offers scripted ranks and logs every layer it is
    /// handed.
    struct Script {
        rank: usize,
        /// `(seq, rank)` pairs to offer when their candidate arrives,
        /// each from its own local best, highest seq first.
        offers: Vec<(u64, usize)>,
        /// The pool the budget watches, and a page to re-read from it
        /// after the first layer (trips a page-read cap).
        pool: Option<(Arc<BufferPool>, wnsk_storage::PageId)>,
        log: Mutex<Vec<Vec<(u64, Candidate)>>>,
        tracer: Tracer,
    }

    impl Script {
        fn new(rank: usize, offers: Vec<(u64, usize)>) -> Self {
            Script {
                rank,
                offers,
                pool: None,
                log: Mutex::new(Vec::new()),
                tracer: Tracer::off(),
            }
        }

        fn layers(&self) -> Vec<Vec<(u64, Candidate)>> {
            self.log.lock().clone()
        }
    }

    impl Verifier for Script {
        const QUERY_SPAN: &'static str = "test.query";
        const LAYER_SPAN: &'static str = "test.layer";

        fn tracer(&self) -> &Tracer {
            &self.tracer
        }

        fn pool(&self) -> Option<&Arc<BufferPool>> {
            self.pool.as_ref().map(|(pool, _)| pool)
        }

        fn initial_rank(
            &self,
            _: &Executor,
            _: &ExecMetrics,
            _: &BudgetGuard,
            _: &SpatialKeywordQuery,
            _: &[(ObjectId, f64)],
        ) -> Result<SetRankOutcome> {
            Ok(SetRankOutcome::Exact { rank: self.rank })
        }

        fn verify(
            &self,
            l: &Layer<'_, '_>,
            tasks: Vec<(u64, Candidate)>,
        ) -> Result<Vec<LocalBest>> {
            let locals = Mutex::new(Vec::new());
            l.exec.run(
                vec![()],
                l.metrics,
                || false,
                |_| (),
                |_, (), handle| -> Result<()> {
                    for (seq, cand) in tasks.iter().rev() {
                        for &(_, rank) in self.offers.iter().filter(|o| o.0 == *seq) {
                            let mut local = LocalBest::new();
                            l.offer(
                                &mut local,
                                handle,
                                &cand.doc,
                                cand.edit_distance,
                                *seq,
                                rank,
                            );
                            locals.lock().push(local);
                        }
                    }
                    Ok(())
                },
            )?;
            if let Some((pool, page)) = &self.pool {
                pool.clear_cache();
                pool.read(*page).unwrap();
            }
            self.log.lock().push(tasks);
            Ok(locals.into_inner())
        }
    }

    fn dataset() -> Dataset {
        let objects = (0..12)
            .map(|i| SpatialObject {
                id: ObjectId(0),
                loc: Point::new(0.05 * i as f64, 0.05 * i as f64),
                doc: KeywordSet::from_ids([1 + i % 3, 4 + i % 4]),
            })
            .collect();
        Dataset::new(objects, WorldBounds::unit())
    }

    /// `o11` ranks low under `{1, 2}` at the origin; `{1, 2} ∪ {3, 7}`
    /// gives four edit operations, so layers 1..=4.
    fn question(lambda: f64) -> WhyNotQuestion {
        let query =
            SpatialKeywordQuery::new(Point::new(0.0, 0.0), KeywordSet::from_ids([1, 2]), 2, 0.5);
        WhyNotQuestion::new(query, vec![ObjectId(11)], lambda)
    }

    fn plan(ordered: bool, sample: Option<Vec<Candidate>>) -> Plan {
        Plan {
            threads: 1,
            kernel: Kernel::default(),
            budget: QueryBudget::unlimited(),
            ordered,
            rank_hint: None,
            inject_rank_bug: false,
            sample,
        }
    }

    /// The question's initial rank and candidate enumerator.
    fn setup(ds: &Dataset, q: &WhyNotQuestion) -> (usize, CandidateEnumerator) {
        let rank = ds.rank_of(ObjectId(11), &q.query);
        let ctx = WhyNotContext::new(ds, q, rank).unwrap();
        (rank, CandidateEnumerator::new(&ctx))
    }

    /// Sequence numbers run 1, 2, … across layers in the order they
    /// were handed out.
    fn assert_contiguous(layers: &[Vec<(u64, Candidate)>]) {
        let seqs: Vec<u64> = layers.iter().flatten().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (1..=seqs.len() as u64).collect::<Vec<_>>());
    }

    fn docs(cands: impl IntoIterator<Item = Candidate>) -> Vec<KeywordSet> {
        cands.into_iter().map(|c| c.doc).collect()
    }

    #[test]
    fn sequence_numbers_run_across_lazy_and_sampled_layers() {
        let ds = dataset();
        // λ = 0.95: no layer's keyword penalty reaches the baseline.
        let q = question(0.95);
        let (rank, enumerator) = setup(&ds, &q);
        assert!(enumerator.max_edit_distance() >= 3);

        for ordered in [false, true] {
            let script = Script::new(rank, vec![]);
            let answer = drive(&script, &ds, &q, plan(ordered, None)).unwrap();
            assert_eq!(answer.quality, AnswerQuality::Exact);
            let layers = script.layers();
            assert_eq!(layers.len(), enumerator.max_edit_distance());
            assert_contiguous(&layers);
            for (i, layer) in layers.into_iter().enumerate() {
                let got = docs(layer.into_iter().map(|(_, c)| c));
                assert_eq!(
                    got,
                    docs(enumerator.layer(i + 1, ordered)),
                    "layer {}",
                    i + 1
                );
            }
        }

        // A sample is grouped by edit distance, keeping its benefit order.
        let sample = enumerator.sample_top(7);
        let script = Script::new(rank, vec![]);
        let answer = drive(&script, &ds, &q, plan(true, Some(sample.clone()))).unwrap();
        assert_eq!(
            answer.quality,
            AnswerQuality::Approximate { sample_size: 7 }
        );
        let layers = script.layers();
        assert_contiguous(&layers);
        let mut depths: Vec<usize> = sample.iter().map(|c| c.edit_distance).collect();
        depths.sort_unstable();
        depths.dedup();
        assert_eq!(layers.len(), depths.len());
        for (layer, d) in layers.into_iter().zip(depths) {
            let want = sample.iter().filter(|c| c.edit_distance == d).cloned();
            assert_eq!(docs(layer.into_iter().map(|(_, c)| c)), docs(want));
        }
    }

    #[test]
    fn line_four_stop_books_the_skipped_layer_and_needs_opt2() {
        let ds = dataset();
        let q = question(0.5);
        let (rank, enumerator) = setup(&ds, &q);
        // Candidate 1 reaches rank k₀: its penalty is the keyword penalty
        // of layer 1, which layer 2's keyword penalty alone exceeds.
        let k0 = q.query.k;
        let script = Script::new(rank, vec![(1, k0)]);
        let answer = drive(&script, &ds, &q, plan(true, None)).unwrap();
        assert_eq!(script.layers().len(), 1);
        assert_eq!(
            answer.stats.pruned_by_bound,
            enumerator.layer(2, true).len() as u64
        );
        assert_eq!(answer.refined.edit_distance, 1);
        assert_eq!(answer.refined.rank, k0);
        assert_eq!(answer.stats.initial_rank, rank as u64);

        // Without Opt2 (BS) every layer is verified.
        let script = Script::new(rank, vec![(1, k0)]);
        let answer = drive(&script, &ds, &q, plan(false, None)).unwrap();
        assert_eq!(script.layers().len(), enumerator.max_edit_distance());
        assert_eq!(answer.stats.pruned_by_bound, 0);
        assert_eq!(answer.refined.rank, k0);
    }

    #[test]
    fn equal_penalties_go_to_the_lower_sequence_number() {
        let ds = dataset();
        let q = question(0.5);
        let (rank, enumerator) = setup(&ds, &q);
        let layer1 = enumerator.layer(1, true);
        assert!(layer1.len() >= 3);
        // Seqs 3 and 2 tie (same edit distance, same rank); seq 3's local
        // best is handed back first.
        let k0 = q.query.k;
        let script = Script::new(rank, vec![(3, k0), (2, k0)]);
        let answer = drive(&script, &ds, &q, plan(true, None)).unwrap();
        assert_eq!(answer.refined.doc, layer1[1].doc);
        assert_eq!(answer.refined.rank, k0);
    }

    #[test]
    fn a_breach_degrades_and_keeps_the_best_found_so_far() {
        let ds = dataset();
        let q = question(0.5);
        let (rank, enumerator) = setup(&ds, &q);
        let pool = Arc::new(BufferPool::with_default_config(Arc::new(MemBackend::new())));
        let page = pool.allocate().unwrap();
        pool.write(page, &[1]).unwrap();
        let k0 = q.query.k;
        let mut script = Script::new(rank, vec![(2, k0)]);
        script.pool = Some((Arc::clone(&pool), page));
        // One physical read exhausts the budget; no grace for the
        // fallback's own search, so the pre-breach best is the answer.
        let budget = QueryBudget::unlimited()
            .with_max_page_reads(1)
            .with_fallback_grace(Duration::ZERO);
        let answer = drive(
            &script,
            &ds,
            &q,
            Plan {
                budget,
                ..plan(true, None)
            },
        )
        .unwrap();
        assert_eq!(script.layers().len(), 1, "the breach stops the walk");
        assert_eq!(
            answer.quality,
            AnswerQuality::Degraded {
                reason: DegradeReason::PageReadLimit
            }
        );
        assert_eq!(answer.stats.degraded, 1);
        assert_eq!(answer.refined.doc, enumerator.layer(1, true)[1].doc);
        assert_eq!(answer.refined.rank, k0);
        assert_eq!(answer.stats.io, 1);
    }
}
