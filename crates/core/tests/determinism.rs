//! Thread-count determinism: the parallel executor's contract (see
//! `crates/core/src/algorithms/shared.rs`) promises the refined query is
//! *bit-identical* for every thread count and steal schedule. These
//! property tests run seeded workloads through AdvancedBS and KcRBased
//! at 1, 2, 4 and 8 threads and compare every answer field exactly —
//! penalties by their `f64` bit patterns, not within a tolerance.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wnsk_core::{
    answer_advanced, answer_kcr, AdvancedOptions, KcrOptions, RefinedQuery, WhyNotQuestion,
};
use wnsk_geo::{Point, WorldBounds};
use wnsk_index::{Dataset, KcrTree, ObjectId, SetRTree, SpatialKeywordQuery, SpatialObject};
use wnsk_storage::{BufferPool, BufferPoolConfig, MemBackend};
use wnsk_text::{Kernel, KeywordSet};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn random_dataset(n: usize, vocab: u32, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let objects = (0..n)
        .map(|_| {
            let n_terms = rng.gen_range(1..=5);
            let doc = KeywordSet::from_ids((0..n_terms).map(|_| rng.gen_range(0..vocab)));
            SpatialObject {
                id: ObjectId(0),
                loc: Point::new(rng.gen::<f64>(), rng.gen::<f64>()),
                doc,
            }
        })
        .collect();
    Dataset::new(objects, WorldBounds::unit())
}

/// A question whose missing objects genuinely sit below the top-k.
fn make_question(ds: &Dataset, vocab: u32, seed: u64) -> Option<WhyNotQuestion> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let q = SpatialKeywordQuery::new(
        Point::new(rng.gen::<f64>(), rng.gen::<f64>()),
        KeywordSet::from_ids((0..rng.gen_range(2..=4)).map(|_| rng.gen_range(0..vocab))),
        5,
        0.5,
    );
    let mut scored: Vec<(ObjectId, f64)> = ds
        .objects()
        .iter()
        .map(|o| (o.id, ds.score(o, &q)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    let lo = q.k + 2;
    let hi = (q.k + 40).min(scored.len());
    for _ in 0..100 {
        let id = scored[rng.gen_range(lo..hi)].0;
        if ds.rank_of(id, &q) > q.k {
            return Some(WhyNotQuestion::new(q, vec![id], 0.5));
        }
    }
    None
}

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(
        Arc::new(MemBackend::new()),
        BufferPoolConfig::default(),
    ))
}

/// Exact comparison, penalties as bit patterns.
fn assert_identical(base: &RefinedQuery, other: &RefinedQuery, algo: &str, threads: usize) {
    assert_eq!(
        base.doc, other.doc,
        "{algo} t={threads}: refined keyword set diverged"
    );
    assert_eq!(base.k, other.k, "{algo} t={threads}: refined k diverged");
    assert_eq!(base.rank, other.rank, "{algo} t={threads}: rank diverged");
    assert_eq!(
        base.edit_distance, other.edit_distance,
        "{algo} t={threads}: edit distance diverged"
    );
    assert_eq!(
        base.penalty.to_bits(),
        other.penalty.to_bits(),
        "{algo} t={threads}: penalty bits diverged ({} vs {})",
        base.penalty,
        other.penalty
    );
}

#[test]
fn kcr_refined_query_is_identical_across_thread_counts() {
    let vocab = 40;
    let mut covered = 0;
    for seed in 0..6u64 {
        let ds = random_dataset(400, vocab, 1000 + seed);
        let tree = KcrTree::build(pool(), &ds, 8).unwrap();
        let Some(question) = make_question(&ds, vocab, 2000 + seed) else {
            continue;
        };
        covered += 1;
        let baseline = answer_kcr(&ds, &tree, &question, KcrOptions::default()).unwrap();
        for threads in THREAD_COUNTS {
            // A small batch size forces several batches per layer, so the
            // pool really interleaves batch and node tasks.
            let opts = KcrOptions {
                threads,
                batch_size: 16,
                ..KcrOptions::default()
            };
            let ans = answer_kcr(&ds, &tree, &question, opts).unwrap();
            assert_identical(&baseline.refined, &ans.refined, "KcRBased", threads);
        }
    }
    assert!(covered >= 3, "only {covered} seeds produced a workload");
}

#[test]
fn advanced_refined_query_is_identical_across_thread_counts() {
    let vocab = 40;
    let mut covered = 0;
    for seed in 0..6u64 {
        let ds = random_dataset(400, vocab, 3000 + seed);
        let tree = SetRTree::build(pool(), &ds, 8).unwrap();
        let Some(question) = make_question(&ds, vocab, 4000 + seed) else {
            continue;
        };
        covered += 1;
        let baseline = answer_advanced(&ds, &tree, &question, AdvancedOptions::default()).unwrap();
        for threads in THREAD_COUNTS {
            let opts = AdvancedOptions {
                threads,
                ..AdvancedOptions::default()
            };
            let ans = answer_advanced(&ds, &tree, &question, opts).unwrap();
            assert_identical(&baseline.refined, &ans.refined, "AdvancedBS", threads);
        }
    }
    assert!(covered >= 3, "only {covered} seeds produced a workload");
}

/// The kernel A/B invariant at the answer level: swapping the bitset
/// kernel for the scalar merge-scan — at any thread count — must leave
/// the refined query bit-identical, for both solvers. The kernel is a
/// wall-time knob, never a semantics knob (docs/KERNELS.md).
#[test]
fn kernels_agree_bit_for_bit_across_thread_counts() {
    let vocab = 40;
    let mut covered = 0;
    for seed in 0..6u64 {
        let ds = random_dataset(400, vocab, 5000 + seed);
        let kcr_tree = KcrTree::build(pool(), &ds, 8).unwrap();
        let setr_tree = SetRTree::build(pool(), &ds, 8).unwrap();
        let Some(question) = make_question(&ds, vocab, 6000 + seed) else {
            continue;
        };
        covered += 1;
        let kcr_base = answer_kcr(&ds, &kcr_tree, &question, KcrOptions::default()).unwrap();
        let adv_base =
            answer_advanced(&ds, &setr_tree, &question, AdvancedOptions::default()).unwrap();
        for kernel in Kernel::ALL {
            for threads in THREAD_COUNTS {
                let ans = answer_kcr(
                    &ds,
                    &kcr_tree,
                    &question,
                    KcrOptions {
                        threads,
                        kernel,
                        ..KcrOptions::default()
                    },
                )
                .unwrap();
                assert_identical(
                    &kcr_base.refined,
                    &ans.refined,
                    &format!("KcRBased[{kernel}]"),
                    threads,
                );
                let ans = answer_advanced(
                    &ds,
                    &setr_tree,
                    &question,
                    AdvancedOptions {
                        threads,
                        kernel,
                        ..AdvancedOptions::default()
                    },
                )
                .unwrap();
                assert_identical(
                    &adv_base.refined,
                    &ans.refined,
                    &format!("AdvancedBS[{kernel}]"),
                    threads,
                );
            }
        }
    }
    assert!(covered >= 3, "only {covered} seeds produced a workload");
}

/// The serving layer's observability contract at the solver level:
/// running with the whole observation plane enabled — tree tracer on,
/// stats folded into a metrics registry, task-latency snapshots merged
/// into a rolling window — must leave the refined query bit-identical
/// in every solver × thread × kernel cell, and for serial runs every
/// deterministic work metric identical too (parallel work counters are
/// steal-schedule noisy by design, so only t=1 pins them exactly).
#[test]
fn observation_leaves_answers_and_work_metrics_bit_identical() {
    use std::time::Duration;
    use wnsk_core::AlgoStats;
    use wnsk_obs::{Registry, RollingWindow, Tracer};

    // The deterministic work-metric tuple: everything in AlgoStats that
    // does not depend on wall clock or steal schedule at t=1.
    fn work(s: &AlgoStats) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
        (
            s.io,
            s.candidates_total,
            s.pruned_by_filter,
            s.pruned_by_bound,
            s.queries_run,
            s.nodes_expanded,
            s.degraded,
            s.initial_rank,
        )
    }

    let vocab = 40;
    let mut covered = 0;
    for seed in 0..4u64 {
        let ds = random_dataset(400, vocab, 8000 + seed);
        let Some(question) = make_question(&ds, vocab, 9000 + seed) else {
            continue;
        };
        covered += 1;

        let kcr_plain = KcrTree::build(pool(), &ds, 8).unwrap();
        let setr_plain = SetRTree::build(pool(), &ds, 8).unwrap();
        let mut kcr_obs = KcrTree::build(pool(), &ds, 8).unwrap();
        let mut setr_obs = SetRTree::build(pool(), &ds, 8).unwrap();
        let registry = Registry::new();
        kcr_obs.register_metrics(&registry, "kcr.");
        setr_obs.register_metrics(&registry, "setr.");
        let tracer = Tracer::new();
        kcr_obs.set_tracer(tracer.clone());
        setr_obs.set_tracer(tracer.clone());
        // An hour-long tick so the window state is wall-clock stable.
        let window = RollingWindow::new(Duration::from_secs(3600), 60);

        for kernel in Kernel::ALL {
            for threads in [1, 2, 4] {
                let opts = KcrOptions {
                    threads,
                    kernel,
                    batch_size: 16,
                    ..KcrOptions::default()
                };
                let base = answer_kcr(&ds, &kcr_plain, &question, opts).unwrap();
                let ans = answer_kcr(&ds, &kcr_obs, &question, opts).unwrap();
                let report = tracer.drain();
                assert!(
                    !report.is_empty(),
                    "KcRBased[{kernel}] t={threads}: the observed run must trace"
                );
                ans.stats.record_into(&registry);
                window.merge_snapshot(&ans.stats.task_latency);
                assert_identical(
                    &base.refined,
                    &ans.refined,
                    &format!("KcRBased[{kernel}]+obs"),
                    threads,
                );
                if threads == 1 {
                    assert_eq!(
                        work(&base.stats),
                        work(&ans.stats),
                        "KcRBased[{kernel}] t=1: observation moved a work metric"
                    );
                }

                let opts = AdvancedOptions {
                    threads,
                    kernel,
                    ..AdvancedOptions::default()
                };
                let base = answer_advanced(&ds, &setr_plain, &question, opts).unwrap();
                let ans = answer_advanced(&ds, &setr_obs, &question, opts).unwrap();
                let report = tracer.drain();
                assert!(
                    !report.is_empty(),
                    "AdvancedBS[{kernel}] t={threads}: the observed run must trace"
                );
                ans.stats.record_into(&registry);
                window.merge_snapshot(&ans.stats.task_latency);
                assert_identical(
                    &base.refined,
                    &ans.refined,
                    &format!("AdvancedBS[{kernel}]+obs"),
                    threads,
                );
                if threads == 1 {
                    assert_eq!(
                        work(&base.stats),
                        work(&ans.stats),
                        "AdvancedBS[{kernel}] t=1: observation moved a work metric"
                    );
                }
            }
        }
        // The observation plane really observed something.
        assert!(
            registry.snapshot().counter("core.candidates") > 0,
            "the registry fold must record solver work"
        );
        assert!(
            window.cumulative().count > 0,
            "the rolling window must absorb task latencies"
        );
    }
    assert!(covered >= 2, "only {covered} seeds produced a workload");
}

#[test]
fn parallel_runs_agree_with_every_opt_combination() {
    // Opt1/Opt3 interact with the parallel paths (live limits, counting
    // scans, per-worker dominator caches): toggling them must never
    // change the answer either.
    let vocab = 30;
    let ds = random_dataset(300, vocab, 7100);
    let tree = SetRTree::build(pool(), &ds, 8).unwrap();
    let Some(question) = make_question(&ds, vocab, 7200) else {
        panic!("seed 7200 must produce a workload");
    };
    let baseline = answer_advanced(&ds, &tree, &question, AdvancedOptions::default()).unwrap();
    for early_stop in [false, true] {
        for keyword_set_filtering in [false, true] {
            for threads in [1, 4] {
                let opts = AdvancedOptions {
                    early_stop,
                    keyword_set_filtering,
                    threads,
                    ..AdvancedOptions::default()
                };
                let ans = answer_advanced(&ds, &tree, &question, opts).unwrap();
                assert_identical(
                    &baseline.refined,
                    &ans.refined,
                    &format!("AdvancedBS(es={early_stop},ksf={keyword_set_filtering})"),
                    threads,
                );
            }
        }
    }
}

/// One pinned run: `(seed, batch_size, refined doc term ids, [k', rank,
/// edit distance], penalty bits, [candidates_total, pruned_by_bound,
/// nodes_expanded, io, prune_maxdom, prune_mindom])`.
type KcrPin<'a> = (u64, usize, &'a [u32], [usize; 3], u64, [u64; 6]);

/// Pins KcRBased's single-worker run on a cold pool: the refined query
/// bits and the deterministic work of the batch traversal (candidates,
/// bound prunes, node expansions, page reads and the Theorem 2/3
/// retirement counts). A change to the traversal's node order or its
/// retirement rules moves one of these numbers.
#[rustfmt::skip]
const KCR_T1_GOLDEN: [KcrPin<'static>; 8] = [
    (0, 2, &[15, 24, 31, 33, 36], [5, 1, 1], 4590669220166325589, [6, 19, 114, 471, 2, 4]),
    (0, 64, &[15, 24, 31, 33, 36], [5, 1, 1], 4590669220166325589, [6, 19, 53, 471, 2, 4]),
    (1, 2, &[2, 27, 30], [5, 4, 1], 4591870180066957722, [5, 12, 76, 381, 3, 2]),
    (1, 64, &[2, 27, 30], [5, 4, 1], 4591870180066957722, [5, 12, 47, 417, 3, 2]),
    (2, 2, &[18, 25, 29], [5, 5, 1], 4591870180066957722, [5, 14, 74, 390, 1, 4]),
    (2, 64, &[18, 25, 29], [5, 5, 1], 4591870180066957722, [5, 14, 42, 390, 1, 4]),
    (3, 2, &[0, 2, 15, 23], [10, 10, 1], 4594051044062336401, [7, 27, 101, 435, 1, 6]),
    (3, 64, &[0, 2, 15, 23], [10, 10, 1], 4594051044062336401, [7, 27, 52, 462, 1, 6]),
];

#[test]
fn kcr_single_worker_traversal_is_pinned() {
    let vocab = 40;
    let mut golden = KCR_T1_GOLDEN.iter();
    for seed in 0..4u64 {
        let ds = random_dataset(400, vocab, 11_000 + seed);
        let tree = KcrTree::build(pool(), &ds, 8).unwrap();
        let question = make_question(&ds, vocab, 12_000 + seed)
            .unwrap_or_else(|| panic!("seed {seed} must produce a workload"));
        for batch_size in [2, 64] {
            tree.pool().clear_cache();
            let traversal = tree.traversal();
            let (maxdom, mindom) = (traversal.prune_maxdom.get(), traversal.prune_mindom.get());
            let opts = KcrOptions {
                threads: 1,
                batch_size,
                ..KcrOptions::default()
            };
            let ans = answer_kcr(&ds, &tree, &question, opts).unwrap();
            let (r, s) = (&ans.refined, &ans.stats);
            let doc: Vec<u32> = r.doc.iter().map(|t| t.0).collect();
            let run: KcrPin<'_> = (
                seed,
                batch_size,
                &doc,
                [r.k, r.rank, r.edit_distance],
                r.penalty.to_bits(),
                [
                    s.candidates_total,
                    s.pruned_by_bound,
                    s.nodes_expanded,
                    s.io,
                    traversal.prune_maxdom.get() - maxdom,
                    traversal.prune_mindom.get() - mindom,
                ],
            );
            assert_eq!(Some(&run), golden.next(), "seed {seed}, batch {batch_size}");
        }
    }
}
