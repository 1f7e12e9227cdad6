//! Layer probes: calls into each layer's public functions on a
//! workload's own dataset and inputs, timed from outside. They give
//! the per-layer costs that the traffic itself cannot separate,
//! including the calls the criterion substrate microbenchmarks of
//! `wnsk-bench` time: tree builds, top-k search, dominator counts,
//! buffer-pool reads, KcR bounds and the similarity kernels.

use crate::layers::Layers;
use crate::spans::Spans;
use crate::stats::{median, ratio};
use crate::Config;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wnsk_core::{AdvancedOptions, KcrOptions, Mutation, WhyNotEngine, WhyNotQuestion};
use wnsk_data::{generate, DatasetSpec};
use wnsk_exec::{ExecMetrics, Executor};
use wnsk_index::kcr::{max_dom, min_dom, PreparedNode};
use wnsk_index::{Dataset, NodeSummary, ObjectId, SpatialKeywordQuery};
use wnsk_obs::{names, Hist};
use wnsk_serve::{client, protocol, ServeEngine};
use wnsk_shard::{Coordinator, CoordinatorConfig, ShardManifest};
use wnsk_storage::{
    BufferPool, BufferPoolConfig, FileBackend, MemBackend, PageId, StorageBackend, PAGE_SIZE,
};
use wnsk_text::{KeywordCountMap, SimUniverse, TextModel, Vocabulary};

/// The workload inputs the probes replay.
pub struct Inputs {
    pub topk: Vec<SpatialKeywordQuery>,
    pub questions: Vec<WhyNotQuestion>,
    /// Wire lines; `None` renders them from the queries above.
    pub lines: Option<Vec<String>>,
}

impl Inputs {
    /// A solve-* workload's questions and their initial top-k queries.
    pub fn from_questions(questions: &[WhyNotQuestion]) -> Inputs {
        Inputs {
            topk: questions.iter().map(|q| q.query.clone()).collect(),
            questions: questions.to_vec(),
            lines: None,
        }
    }
}

/// Shard count and plan seed of the sharded plane (and its probe).
pub const SHARDS: usize = 2;
pub const PLAN_SEED: u64 = 42;

/// Mean nanoseconds per call over `reps` calls: the median of five
/// batches, so one descheduled batch does not move the figure.
fn per_call_ns(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    const BATCHES: usize = 5;
    let per = (reps / BATCHES).max(1);
    let mut means = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let t = Instant::now();
        for i in 0..per {
            f(b * per + i);
        }
        means.push(t.elapsed().as_nanos() as f64 / per as f64);
    }
    median(&means)
}

/// Runs every probe; spans go under one `probe` root.
pub fn run(
    cfg: &Config,
    spec: &DatasetSpec,
    inputs: Inputs,
    spans: &Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let root = spans.id();
    let probe_start = Instant::now();
    let step = |name: &'static str, start: Instant| {
        spans.add(Some(root), name, root, start, Instant::now());
    };
    let reps = cfg.sizes.probe_reps;
    let nq = cfg.sizes.probe_questions;

    let t = Instant::now();
    let data = generate(spec);
    layers.set("data.generate_s", t.elapsed().as_secs_f64());
    step("wnsk_data::generate", t);
    let ds = &data.dataset;

    let t = Instant::now();
    let engine = WhyNotEngine::build_in_memory(ds.clone()).map_err(|e| e.to_string())?;
    layers.set("index.build_s", t.elapsed().as_secs_f64());
    step("WhyNotEngine::build_in_memory", t);

    let t = Instant::now();
    let manifest = ShardManifest::plan(ds, SHARDS, PLAN_SEED);
    layers.set("shard.plan_s", t.elapsed().as_secs_f64());
    step("ShardManifest::plan", t);

    let t = Instant::now();
    storage(reps, layers);
    step("BufferPool::read", t);

    let t = Instant::now();
    text(ds, &inputs.questions, reps, layers);
    step("TextModel::similarity", t);

    let t = Instant::now();
    bounds(ds, &inputs.questions, reps, layers);
    step("kcr::max_dom+min_dom", t);

    let topk: Vec<&SpatialKeywordQuery> = inputs.topk.iter().take(64).collect();
    let t = Instant::now();
    for q in &topk {
        black_box(engine.top_k(q).map_err(|e| e.to_string())?);
    }
    let warm = Instant::now();
    for q in &topk {
        black_box(engine.top_k(q).map_err(|e| e.to_string())?);
    }
    layers.set(
        "index.topk_ns",
        warm.elapsed().as_nanos() as f64 / topk.len().max(1) as f64,
    );
    step("WhyNotEngine::top_k", t);

    let questions: Vec<&WhyNotQuestion> = inputs.questions.iter().take(nq).collect();
    let t = Instant::now();
    let count_ns = per_call_ns(reps.min(200), |i| {
        let q = questions[i % questions.len()];
        let m = ds.object(q.missing[0]);
        black_box(
            engine
                .count_dominators(&q.query, ds.score(m, &q.query), None)
                .ok(),
        );
    });
    layers.set("index.count_dom_ns", count_ns);
    step("WhyNotEngine::count_dominators", t);

    let t = Instant::now();
    let exec = Executor::new(2);
    let metrics = ExecMetrics::new(2);
    let run_ns = per_call_ns(reps.min(500), |_| {
        let r: Result<Vec<()>, std::convert::Infallible> =
            exec.run(vec![(); 2], &metrics, || false, |_| (), |_, _, _| Ok(()));
        black_box(r.ok());
    });
    layers.set("exec.run_ns", run_ns);
    step("Executor::run", t);

    let t = Instant::now();
    solvers(&engine, &questions, layers)?;
    step("answer_kcr+answer_advanced", t);
    drop(engine);

    let t = Instant::now();
    ingest(cfg, ds, nq * 2, layers)?;
    step("WhyNotEngine::ingest+apply", t);

    let lines = match inputs.lines {
        Some(lines) => lines,
        None => render_lines(&data.vocabulary, &inputs.topk, &inputs.questions),
    };
    let t = Instant::now();
    serve(ds, &data.vocabulary, &lines, reps, layers)?;
    step("ServeEngine", t);

    let t = Instant::now();
    shard(ds, manifest, &topk, &questions, layers)?;
    step("Coordinator", t);

    spans.record(root, None, "probe", root, probe_start, Instant::now());
    Ok(())
}

/// `BufferPool::read` on a bench-owned pool over twice its capacity of
/// pages: a resident page, then a scan in which every read misses.
fn storage(reps: usize, layers: &mut Layers) {
    let backend = Arc::new(MemBackend::new());
    let pages = 2 * BufferPoolConfig::default().capacity_bytes / PAGE_SIZE;
    let pool = BufferPool::new(backend.clone(), BufferPoolConfig::default());
    for _ in 0..pages {
        let id = backend.allocate_page().expect("in-memory allocation");
        pool.write(id, &[0xA5; 64]).expect("in-memory write");
    }
    pool.clear_cache();
    pool.read(PageId(1)).expect("page 1 exists");
    layers.set(
        "storage.hit_ns",
        per_call_ns(reps * 10, |_| {
            black_box(pool.read(PageId(1)).expect("page 1 exists"));
        }),
    );
    layers.set(
        "storage.miss_ns",
        per_call_ns(reps, |i| {
            black_box(pool.read(PageId((i % pages) as u64)).expect("page exists"));
        }),
    );
}

/// Similarity of object documents against each question's query
/// keywords, through the bitset kernel and the scalar merge scan.
fn text(ds: &Dataset, questions: &[WhyNotQuestion], reps: usize, layers: &mut Layers) {
    let mut bits = Vec::new();
    let mut sets = Vec::new();
    for (n, q) in questions.iter().enumerate() {
        let universe = q
            .missing
            .iter()
            .fold(q.query.doc.clone(), |u, &m| u.union(&ds.object(m).doc));
        let Some(uni) = SimUniverse::new(&universe) else {
            continue;
        };
        let cand = uni.project(&q.query.doc);
        for j in 0..32 {
            let o = ds.object(ObjectId(((n * 131 + j * 17) % ds.len()) as u32));
            bits.push((uni.project(&o.doc), cand));
            sets.push((o.doc.clone(), q.query.doc.clone()));
        }
    }
    let model = TextModel::Jaccard;
    let n = bits.len().max(1);
    layers.set(
        "text.sim_bitset_ns",
        per_call_ns(reps * 10, |i| {
            let (a, b) = &bits[i % n];
            black_box(model.similarity_bits(black_box(a), black_box(b)));
        }),
    );
    layers.set(
        "text.sim_scalar_ns",
        per_call_ns(reps * 10, |i| {
            let (a, b) = &sets[i % n];
            black_box(model.similarity(black_box(a), black_box(b)));
        }),
    );
    layers.set(
        "text.and_count_ns",
        per_call_ns(reps * 10, |i| {
            let (a, b) = &bits[i % n];
            black_box(black_box(a).and_count(black_box(b)));
        }),
    );
}

/// MaxDom + MinDom of each question's keywords against a node that
/// summarises the whole dataset (the root-level bound evaluation).
fn bounds(ds: &Dataset, questions: &[WhyNotQuestion], reps: usize, layers: &mut Layers) {
    let mut kcm = KeywordCountMap::new();
    for o in ds.objects() {
        kcm.add_doc(&o.doc);
    }
    let summary = NodeSummary {
        mbr: ds.world().rect(),
        cnt: ds.len() as u32,
        kcm,
    };
    let prep = PreparedNode::new(&summary);
    let taus = [0.1, 0.5, 0.9];
    layers.set(
        "index.bound_ns",
        per_call_ns(reps, |i| {
            let q = &questions[(i / taus.len()) % questions.len()];
            let tau = taus[i % taus.len()];
            black_box(max_dom(&prep, &q.query.doc, tau, TextModel::Jaccard));
            black_box(min_dom(&prep, &q.query.doc, tau, TextModel::Jaccard));
        }),
    );
}

/// KcRBased t=2 for the executor's task and steal counts, then
/// AdvancedBS t=1 (the oracle the solve-* checks use), on a warm
/// engine.
fn solvers(
    engine: &WhyNotEngine,
    questions: &[&WhyNotQuestion],
    layers: &mut Layers,
) -> Result<(), String> {
    if questions.is_empty() {
        return Err("the solver probe has no question".into());
    }
    let tasks = Hist::new();
    let (mut stolen, mut refreshes, mut prunes, mut advbs_ns) = (0, 0, 0, 0.0);
    for q in questions {
        let opts = KcrOptions {
            threads: 2,
            ..KcrOptions::default()
        };
        let a = engine
            .answer_kcr(q, opts)
            .map_err(|e| format!("KcRBased probe: {e}"))?;
        tasks.merge_snapshot(&a.stats.task_latency);
        stolen += a.stats.tasks_stolen;
        refreshes += a.stats.bound_refreshes;
        prunes += a.stats.prune_hits;
        let t = Instant::now();
        engine
            .answer_advanced(q, AdvancedOptions::default())
            .map_err(|e| format!("AdvancedBS probe: {e}"))?;
        advbs_ns += t.elapsed().as_nanos() as f64;
    }
    let n = questions.len() as f64;
    // The histogram's percentiles are bucket bounds; its sum, count and
    // maximum are exact.
    let tasks = tasks.snapshot();
    layers.set("exec.task_mean_ns", tasks.mean());
    layers.set("exec.task_max_ns", tasks.max as f64);
    layers.set("exec.tasks_stolen", stolen as f64 / n);
    layers.set("exec.bound_refreshes", refreshes as f64 / n);
    layers.set("exec.prune_hits", prunes as f64 / n);
    layers.set("core.advbs_ns", advbs_ns / n);
    Ok(())
}

/// Insert/delete pairs through a file-backed WAL (`ingest`: one group
/// commit and one fsync per mutation), then the same pairs applied in
/// memory only (`apply`).
fn ingest(cfg: &Config, ds: &Dataset, pairs: usize, layers: &mut Layers) -> Result<(), String> {
    let path = cfg.work_dir.join("probe.wal");
    let mut engine = WhyNotEngine::build_in_memory(ds.clone()).map_err(|e| e.to_string())?;
    let backend = FileBackend::create(&path).map_err(|e| e.to_string())?;
    let pool = Arc::new(BufferPool::with_default_config(Arc::new(backend)));
    engine.attach_wal(pool).map_err(|e| e.to_string())?;
    let bytes_before = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let commits_before = engine.snapshot().counter(names::WAL_COMMITS);
    let timed = |engine: &mut WhyNotEngine, durable: bool| -> Result<f64, String> {
        let mut ns = 0.0;
        for i in 0..pairs {
            let o = ds.object(ObjectId(((i * 37) % ds.len()) as u32));
            let insert = Mutation::Insert {
                loc: o.loc,
                doc: o.doc.clone(),
            };
            let t = Instant::now();
            let id = if durable {
                engine.ingest(&insert)
            } else {
                engine.apply(&insert)
            }
            .map_err(|e| e.to_string())?;
            let remove = Mutation::Remove { id };
            if durable {
                engine.ingest(&remove)
            } else {
                engine.apply(&remove)
            }
            .map_err(|e| e.to_string())?;
            ns += t.elapsed().as_nanos() as f64;
        }
        Ok(ns / (2 * pairs.max(1)) as f64)
    };
    layers.set("core.ingest_ns", timed(&mut engine, true)?);
    let mutations = (2 * pairs) as f64;
    let commits = engine.snapshot().counter(names::WAL_COMMITS) - commits_before;
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() - bytes_before;
    layers.set("storage.wal_syncs", ratio(commits as f64, mutations));
    layers.set("storage.wal_bytes", ratio(bytes as f64, mutations));
    layers.set("core.apply_ns", timed(&mut engine, false)?);
    Ok(())
}

/// Wire lines for a solve-* workload: each question's top-k query and
/// the question itself, keywords rendered through the vocabulary.
fn render_lines(
    vocab: &Vocabulary,
    topk: &[SpatialKeywordQuery],
    questions: &[WhyNotQuestion],
) -> Vec<String> {
    let names = |q: &SpatialKeywordQuery| -> Vec<String> {
        q.doc
            .iter()
            .filter_map(|t| vocab.name(t).map(str::to_string))
            .collect()
    };
    let mut lines = Vec::new();
    for q in topk {
        let n = names(q);
        let n: Vec<&str> = n.iter().map(String::as_str).collect();
        lines.push(client::topk_line((q.loc.x, q.loc.y), &n, q.k, q.alpha));
    }
    for q in questions {
        let n = names(&q.query);
        let n: Vec<&str> = n.iter().map(String::as_str).collect();
        let missing: Vec<u32> = q.missing.iter().map(|m| m.0).collect();
        lines.push(client::whynot_line(
            (q.query.loc.x, q.query.loc.y),
            &n,
            q.query.k,
            q.query.alpha,
            &missing,
            q.lambda,
            None,
        ));
    }
    lines
}

/// The serving engine's request path outside the network: parse,
/// resolve, and execute with the answer cache missing then hitting.
fn serve(
    ds: &Dataset,
    vocab: &Vocabulary,
    lines: &[String],
    reps: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let engine = WhyNotEngine::build_in_memory(ds.clone())
        .map_err(|e| e.to_string())?
        .with_vocabulary(vocab.clone());
    let serve = ServeEngine::new(engine, 256);
    let n = lines.len().max(1);
    layers.set(
        "serve.parse_ns",
        per_call_ns(reps, |i| {
            black_box(protocol::parse_request(&lines[i % n]).ok());
        }),
    );
    let parsed: Vec<_> = lines
        .iter()
        .map(|l| protocol::parse_request(l).map_err(|e| format!("{l}: {e}")))
        .collect::<Result<_, _>>()?;
    layers.set(
        "serve.resolve_ns",
        per_call_ns(reps, |i| {
            black_box(serve.resolve(&parsed[i % n].request).ok());
        }),
    );
    let topk: Vec<_> = parsed
        .iter()
        .filter_map(|p| match serve.resolve(&p.request) {
            Ok(r @ wnsk_serve::ResolvedRequest::TopK(_)) => Some(r),
            _ => None,
        })
        .take(64)
        .collect();
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    for pass in 0..2 {
        for r in &topk {
            let t = Instant::now();
            let response = serve.execute(r, None);
            let ns = t.elapsed().as_nanos() as f64;
            if response.contains("\"cached\":true") {
                hit.push(ns);
            } else if pass == 0 {
                miss.push(ns);
            }
        }
    }
    layers.set("serve.exec_miss_ns", mean(&miss));
    layers.set("serve.exec_hit_ns", mean(&hit));
    Ok(())
}

/// The scatter-gather coordinator over the same data: top-k and
/// why-not timed from outside, scatter and merge from its registry.
fn shard(
    ds: &Dataset,
    manifest: ShardManifest,
    topk: &[&SpatialKeywordQuery],
    questions: &[&WhyNotQuestion],
    layers: &mut Layers,
) -> Result<(), String> {
    let coord = Coordinator::new(
        ds.clone(),
        manifest,
        CoordinatorConfig {
            threads: 2,
            ..CoordinatorConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let before = coord.registry().snapshot();
    let t = Instant::now();
    for q in topk {
        black_box(coord.top_k(q).map_err(|e| e.to_string())?);
    }
    layers.set(
        "shard.topk_ns",
        t.elapsed().as_nanos() as f64 / topk.len().max(1) as f64,
    );
    let t = Instant::now();
    let mut answered = 0usize;
    for q in questions {
        if coord.whynot(q).is_ok() {
            answered += 1;
        }
    }
    layers.set(
        "shard.whynot_ns",
        t.elapsed().as_nanos() as f64 / answered.max(1) as f64,
    );
    let delta = coord.registry().snapshot().since(&before);
    let merge = delta
        .hist(names::SHARD_MERGE_NS)
        .cloned()
        .unwrap_or_default();
    layers.set(
        "shard.merge_ns",
        ratio(merge.sum as f64, merge.count as f64),
    );
    let calls = (topk.len() + questions.len()) as f64;
    layers.set(
        "shard.scatter",
        ratio(delta.counter(names::SHARD_SCATTER) as f64, calls),
    );
    layers.set(
        "shard.bound_tightenings",
        ratio(
            delta.counter(names::SHARD_BOUND_TIGHTENINGS) as f64,
            answered as f64,
        ),
    );
    Ok(())
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}
