//! Coordinator bit-identity: scatter-gather answers merged across
//! s ∈ {1, 2, 4} shards at t ∈ {1, 2, 4} scatter threads must equal the
//! single-shard engine's answers *exactly* — rank lists bit for bit,
//! refined queries field for field, penalties by their `f64` bit
//! patterns — including under a churn script and after crash-recovering
//! one shard from the coordinator route log.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use wnsk_core::{
    AdvancedOptions, KcrOptions, Mutation, RefinedQuery, WhyNotEngine, WhyNotQuestion,
};
use wnsk_geo::{Point, WorldBounds};
use wnsk_index::{Dataset, ObjectId, SpatialKeywordQuery, SpatialObject};
use wnsk_shard::{Coordinator, CoordinatorConfig, ShardError, ShardManifest};
use wnsk_text::{Kernel, KeywordSet};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

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

fn random_query(vocab: u32, seed: u64) -> SpatialKeywordQuery {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    SpatialKeywordQuery::new(
        Point::new(rng.gen::<f64>(), rng.gen::<f64>()),
        KeywordSet::from_ids((0..rng.gen_range(2..=4)).map(|_| rng.gen_range(0..vocab))),
        5,
        0.5,
    )
}

/// A question whose missing object genuinely sits below the top-k.
fn make_question(ds: &Dataset, vocab: u32, seed: u64) -> Option<WhyNotQuestion> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let q = random_query(vocab, seed);
    let mut scored: Vec<(ObjectId, f64)> =
        ds.live_objects().map(|o| (o.id, ds.score(o, &q))).collect();
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

fn coordinator(ds: &Dataset, shards: usize, threads: usize) -> Coordinator {
    let manifest = ShardManifest::plan(ds, shards, 42);
    Coordinator::new(
        ds.clone(),
        manifest,
        CoordinatorConfig {
            threads,
            ..CoordinatorConfig::default()
        },
    )
    .unwrap()
}

fn assert_refined_identical(base: &RefinedQuery, other: &RefinedQuery, label: &str) {
    assert_eq!(base.doc, other.doc, "{label}: refined keyword set diverged");
    assert_eq!(base.k, other.k, "{label}: refined k diverged");
    assert_eq!(base.rank, other.rank, "{label}: rank diverged");
    assert_eq!(
        base.edit_distance, other.edit_distance,
        "{label}: edit distance diverged"
    );
    assert_eq!(
        base.penalty.to_bits(),
        other.penalty.to_bits(),
        "{label}: penalty bits diverged ({} vs {})",
        base.penalty,
        other.penalty
    );
}

fn assert_ranklist_identical(base: &[(ObjectId, f64)], other: &[(ObjectId, f64)], label: &str) {
    assert_eq!(
        base.len(),
        other.len(),
        "{label}: rank list length diverged"
    );
    for (i, (b, o)) in base.iter().zip(other).enumerate() {
        assert_eq!(b.0, o.0, "{label}: rank {i} object diverged");
        assert_eq!(
            b.1.to_bits(),
            o.1.to_bits(),
            "{label}: rank {i} score bits diverged"
        );
    }
}

#[test]
fn coordinator_topk_is_bit_identical_to_single_engine() {
    let vocab = 40;
    for seed in 0..4u64 {
        let ds = random_dataset(300, vocab, 7000 + seed);
        let engine = WhyNotEngine::build_in_memory(ds.clone()).unwrap();
        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                let coord = coordinator(&ds, shards, threads);
                for qseed in 0..5u64 {
                    let q = random_query(vocab, 8000 + seed * 100 + qseed);
                    let base = engine.top_k(&q).unwrap();
                    let merged = coord.top_k(&q).unwrap();
                    assert_ranklist_identical(
                        &base,
                        &merged,
                        &format!("topk s={shards} t={threads} seed={seed}/{qseed}"),
                    );
                }
            }
        }
    }
}

#[test]
fn coordinator_whynot_matches_every_kernel_and_solver() {
    let vocab = 40;
    let mut covered = 0;
    for seed in 0..5u64 {
        let ds = random_dataset(300, vocab, 1000 + seed);
        let Some(question) = make_question(&ds, vocab, 2000 + seed) else {
            continue;
        };
        covered += 1;
        let engine = WhyNotEngine::build_in_memory(ds.clone()).unwrap();
        let advanced = engine.answer(&question).unwrap();
        for kernel in Kernel::ALL {
            let kcr = engine
                .answer_kcr(
                    &question,
                    KcrOptions {
                        kernel,
                        ..KcrOptions::default()
                    },
                )
                .unwrap();
            assert_refined_identical(
                &advanced.refined,
                &kcr.refined,
                &format!("kcr kernel={kernel:?} seed={seed}"),
            );
        }
        // The sharded plane verifies with AdvancedBS's serial path, Opt3
        // off: its work counters are that solver's, whatever the split.
        let twin = engine
            .answer_advanced(
                &question,
                AdvancedOptions {
                    keyword_set_filtering: false,
                    ..AdvancedOptions::default()
                },
            )
            .unwrap();
        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                let coord = coordinator(&ds, shards, threads);
                let merged = coord.whynot(&question).unwrap();
                let label = format!("whynot s={shards} t={threads} seed={seed}");
                assert_refined_identical(&advanced.refined, &merged.refined, &label);
                assert_eq!(
                    advanced.stats.initial_rank, merged.stats.initial_rank,
                    "{label}: initial rank R(M, q) diverged"
                );
                let work = |s: &wnsk_core::AlgoStats| {
                    (s.candidates_total, s.queries_run, s.pruned_by_bound)
                };
                assert_eq!(
                    work(&twin.stats),
                    work(&merged.stats),
                    "{label}: (candidates, queries_run, pruned_by_bound) differ from AdvancedBS \
                     Opt1+Opt2"
                );
            }
        }
    }
    assert!(covered >= 3, "only {covered} seeds produced a workload");
}

/// Every solver reports the `R(M, q)` it worked from — BS and
/// AdvancedBS included, on the single engine and on the sharded plane.
#[test]
fn every_solver_reports_the_same_initial_rank() {
    let vocab = 40;
    let mut covered = 0;
    for seed in 0..5u64 {
        let ds = random_dataset(300, vocab, 1000 + seed);
        let Some(question) = make_question(&ds, vocab, 2000 + seed) else {
            continue;
        };
        covered += 1;
        let engine = WhyNotEngine::build_in_memory(ds.clone()).unwrap();
        let truth = question
            .missing
            .iter()
            .map(|&id| ds.rank_of(id, &question.query))
            .max()
            .unwrap() as u64;
        let mut reported = vec![
            ("BS", engine.answer_basic(&question).unwrap()),
            (
                "AdvancedBS",
                engine
                    .answer_advanced(&question, AdvancedOptions::default())
                    .unwrap(),
            ),
            (
                "KcRBased",
                engine.answer_kcr(&question, KcrOptions::default()).unwrap(),
            ),
        ];
        for shards in [1, 2] {
            reported.push((
                "sharded",
                coordinator(&ds, shards, 1).whynot(&question).unwrap(),
            ));
        }
        for (solver, answer) in reported {
            assert_eq!(
                answer.stats.initial_rank, truth,
                "{solver} seed={seed}: stats.initial_rank"
            );
        }
    }
    assert!(covered >= 3, "only {covered} seeds produced a workload");
}

/// A seeded churn script: inserts, deletes and doc updates applied in
/// lock-step to a single engine and to the coordinator (which routes
/// them by partition key).
fn churn_script(ds: &Dataset, vocab: u32, steps: usize, seed: u64) -> Vec<Mutation> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A9);
    let mut live: Vec<u32> = ds.live_objects().map(|o| o.id.0).collect();
    let mut next_id = ds.len() as u32;
    let mut script = Vec::with_capacity(steps);
    for _ in 0..steps {
        let roll = rng.gen_range(0..10);
        if roll < 5 || live.len() < 10 {
            let n_terms = rng.gen_range(1..=5);
            script.push(Mutation::Insert {
                loc: Point::new(rng.gen::<f64>(), rng.gen::<f64>()),
                doc: KeywordSet::from_ids((0..n_terms).map(|_| rng.gen_range(0..vocab))),
            });
            live.push(next_id);
            next_id += 1;
        } else if roll < 8 {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            script.push(Mutation::Remove {
                id: ObjectId(victim),
            });
        } else {
            let target = live[rng.gen_range(0..live.len())];
            let n_terms = rng.gen_range(1..=5);
            script.push(Mutation::UpdateDoc {
                id: ObjectId(target),
                doc: KeywordSet::from_ids((0..n_terms).map(|_| rng.gen_range(0..vocab))),
            });
        }
    }
    script
}

#[test]
fn coordinator_stays_identical_under_churn() {
    let vocab = 40;
    let seed = 31u64;
    let ds = random_dataset(200, vocab, 9000 + seed);
    let script = churn_script(&ds, vocab, 60, seed);
    let mut engine = WhyNotEngine::build_in_memory(ds.clone()).unwrap();
    for shards in SHARD_COUNTS {
        let mut coord = coordinator(&ds, shards, 2);
        for m in &script {
            let gid = coord.ingest(m).unwrap();
            if shards == SHARD_COUNTS[0] {
                engine.ingest(m).unwrap();
            }
            if let Mutation::Insert { .. } = m {
                // Global ids assigned by the coordinator match the
                // single engine's slot assignment.
                assert!(coord.dataset().is_live(gid));
            }
        }
        assert_eq!(coord.epoch(), engine.epoch(), "epoch parity s={shards}");
        let churned = coord.dataset().clone();
        for qseed in 0..4u64 {
            let q = random_query(vocab, 9100 + qseed);
            assert_ranklist_identical(
                &engine.top_k(&q).unwrap(),
                &coord.top_k(&q).unwrap(),
                &format!("churn topk s={shards} qseed={qseed}"),
            );
        }
        if let Some(question) = make_question(&churned, vocab, 9200 + seed) {
            let base = engine.answer(&question).unwrap();
            let merged = coord.whynot(&question).unwrap();
            assert_refined_identical(
                &base.refined,
                &merged.refined,
                &format!("churn whynot s={shards}"),
            );
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wnsk-shard-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn route_log_recovers_a_shard_that_lost_its_wal() {
    let vocab = 40;
    let ds = random_dataset(150, vocab, 77);
    let script = churn_script(&ds, vocab, 40, 77);
    let manifest = ShardManifest::plan(&ds, 2, 42);
    let dir = temp_dir("crash");

    // Session 1: durable coordinator ingests the whole script.
    {
        let mut coord =
            Coordinator::new(ds.clone(), manifest.clone(), CoordinatorConfig::default()).unwrap();
        let recovery = coord.attach_wal_dir(&dir).unwrap();
        assert_eq!(recovery.route_records, 0);
        for m in &script {
            coord.ingest(m).unwrap();
        }
        assert_eq!(coord.epoch(), script.len() as u64);
    }

    // Crash: shard 1 loses its WAL entirely.
    std::fs::remove_file(dir.join("shard-1.wal")).unwrap();

    // Session 2: recovery re-drives shard 1 from the route log.
    let mut coord = Coordinator::new(
        ds.clone(),
        manifest.clone(),
        CoordinatorConfig {
            threads: 2,
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let recovery = coord.attach_wal_dir(&dir).unwrap();
    assert_eq!(recovery.route_records, script.len() as u64);
    assert!(
        recovery.redone > 0,
        "losing a shard WAL must force route-log redo"
    );
    assert_eq!(coord.epoch(), script.len() as u64);

    // The recovered coordinator answers bit-identically to a single
    // engine fed the same stream.
    let mut engine = WhyNotEngine::build_in_memory(ds.clone()).unwrap();
    for m in &script {
        engine.ingest(m).unwrap();
    }
    for qseed in 0..4u64 {
        let q = random_query(vocab, 600 + qseed);
        assert_ranklist_identical(
            &engine.top_k(&q).unwrap(),
            &coord.top_k(&q).unwrap(),
            &format!("recovered topk qseed={qseed}"),
        );
    }
    if let Some(question) = make_question(coord.dataset(), vocab, 601) {
        let base = engine.answer(&question).unwrap();
        let merged = coord.whynot(&question).unwrap();
        assert_refined_identical(&base.refined, &merged.refined, "recovered whynot");
    }

    // And the statuses expose per-shard WAL positions again.
    let statuses = coord.shard_statuses();
    assert_eq!(statuses.len(), 2);
    for st in &statuses {
        assert!(
            st.wal_lsn > 0 || st.epoch == 0,
            "shard {} lost its WAL",
            st.shard
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_cap_zero_sheds_mutations_but_never_queries() {
    let vocab = 40;
    let ds = random_dataset(120, vocab, 5);
    let manifest = ShardManifest::plan(&ds, 2, 42);
    let mut coord = Coordinator::new(
        ds.clone(),
        manifest,
        CoordinatorConfig {
            admission_cap: Some(0),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let m = Mutation::Insert {
        loc: Point::new(0.5, 0.5),
        doc: KeywordSet::from_ids([1u32, 2]),
    };
    match coord.ingest(&m) {
        Err(ShardError::Shed { .. }) => {}
        other => panic!("expected shed, got {other:?}"),
    }
    assert_eq!(coord.epoch(), 0, "a shed mutation must not apply");
    let shed_total: u64 = coord.shard_statuses().iter().map(|s| s.shed).sum();
    assert_eq!(shed_total, 1);
    // Queries still flow.
    let q = random_query(vocab, 9);
    let engine = WhyNotEngine::build_in_memory(ds).unwrap();
    assert_ranklist_identical(
        &engine.top_k(&q).unwrap(),
        &coord.top_k(&q).unwrap(),
        "shed-mode topk",
    );
}

#[test]
fn replicas_serve_reads_and_stay_in_sync() {
    let vocab = 40;
    let ds = random_dataset(150, vocab, 11);
    let script = churn_script(&ds, vocab, 30, 11);
    let manifest = ShardManifest::plan(&ds, 2, 42);
    let mut coord = Coordinator::new(
        ds.clone(),
        manifest,
        CoordinatorConfig {
            replicas: 2,
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let mut engine = WhyNotEngine::build_in_memory(ds.clone()).unwrap();
    for m in &script {
        coord.ingest(m).unwrap();
        engine.ingest(m).unwrap();
    }
    // Enough queries that round-robin provably hits the replicas.
    for qseed in 0..6u64 {
        let q = random_query(vocab, 300 + qseed);
        assert_ranklist_identical(
            &engine.top_k(&q).unwrap(),
            &coord.top_k(&q).unwrap(),
            &format!("replica topk qseed={qseed}"),
        );
    }
    let hits = coord
        .registry()
        .counter(wnsk_obs::names::SHARD_REPLICA_HITS)
        .get();
    assert!(hits > 0, "round-robin reads never touched a replica");
}
