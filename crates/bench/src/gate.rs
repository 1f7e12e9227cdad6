//! The CI benchmark-regression gate: `xp bench` runs a pinned
//! small-scale sweep and writes a machine-readable `BENCH_*.json`;
//! `xp compare` diffs such a file against the committed baseline and
//! fails (non-zero exit) on regressions.
//!
//! What is gated and what is merely reported:
//!
//! - **Work metrics** (`io`, `candidates`, `queries_run`,
//!   `nodes_expanded`, `penalty`) are *deterministic* for serial rows —
//!   seeded datasets, seeded workloads, cold caches — so a change means
//!   the algorithms changed, never the machine. On a serial row any
//!   change, up or down, fails the gate (beyond `WORK_EPS`, a JSON
//!   round-trip allowance); the fix is to regenerate the baseline and
//!   explain the row. Parallel rows (`threads > 1`) run the same work
//!   modulo steal-schedule noise; they fail only on growth beyond the
//!   tolerance plus [`PARALLEL_EXTRA_SLACK`].
//! - **Penalty** is schedule-invariant even in parallel (the executor's
//!   determinism contract), so it is compared exactly everywhere.
//! - **Wall time** is reported for humans but never gated: CI runners
//!   are noisy-neighbour machines, and the simulated I/O latency makes
//!   the deterministic I/O counts a faithful time proxy anyway.

use crate::config::XpConfig;
use crate::runner::{measure_traced, measure_with_report, Algo, Measurement, TestBed};
use wnsk_core::{AdvancedOptions, KcrOptions};
use wnsk_data::workload::WorkloadSpec;
use wnsk_data::DatasetSpec;
use wnsk_obs::{JsonValue, QueryReport, Snapshot, Tracer};

/// Schema version of the `BENCH_*.json` document.
const FORMAT_VERSION: u64 = 1;

/// Extra relative slack added to the tolerance for `threads > 1` rows,
/// whose work metrics vary with the steal schedule.
pub const PARALLEL_EXTRA_SLACK: f64 = 0.15;

/// Penalties must match to this absolute tolerance (they are exact
/// algorithm outputs; the epsilon only absorbs decimal JSON round-trip).
const PENALTY_EPS: f64 = 1e-9;

/// Serial work metrics must match to this relative tolerance (they are
/// deterministic counts and means of counts; the epsilon only absorbs
/// decimal JSON round-trip).
const WORK_EPS: f64 = 1e-9;

/// One measured configuration.
pub struct BenchRow {
    /// Stable row identifier, e.g. `sweep/AdvancedBS/t=2`.
    pub id: String,
    pub threads: usize,
    /// Mean wall-clock per query, ms (reported, never gated).
    pub time_ms: f64,
    /// Mean penalty of the refined query (gated exactly).
    pub penalty: f64,
    /// Gated work metrics, name → per-batch value.
    pub work: Vec<(&'static str, f64)>,
}

/// The pinned default configuration for `xp bench`: small enough that
/// the CI job finishes in a couple of minutes, large enough that the
/// work metrics are non-trivial. The committed `BENCH_baseline.json`
/// was produced with exactly this config; [`compare`] refuses to diff
/// runs whose configs differ, so changing a pin requires refreshing
/// the baseline in the same PR.
pub fn pinned_config() -> XpConfig {
    XpConfig {
        scale: 0.01,
        queries: 3,
        max_threads: 4,
        io_latency_us: 100,
        trace_sample: 16,
        out_dir: None,
    }
}

/// A full sweep plus the registry state it produced (for
/// `xp bench --metrics-export`).
pub struct BenchOutcome {
    pub rows: Vec<BenchRow>,
    /// The main bed's metrics after every untraced row — the richest
    /// single snapshot the sweep produces (the traced row runs on its
    /// own instrumented bed and is gated, not exported).
    pub metrics: Snapshot,
}

/// The pinned sweep: every row the gate measures. The scale, seeds,
/// queries and I/O latency come from `cfg` — CI pins them on the
/// command line and [`compare`] refuses to diff mismatched configs.
pub fn run_bench(cfg: &XpConfig) -> Vec<BenchRow> {
    run_bench_full(cfg).rows
}

/// [`run_bench`] plus the metrics snapshot behind `--metrics-export`.
pub fn run_bench_full(cfg: &XpConfig) -> BenchOutcome {
    let mut rows = Vec::new();

    // A serial trio on the Table III default workload: covers BS's
    // until-found scans and the Opt1+Opt2+Opt3 serial paths.
    let bed = TestBed::with_fanout_and_io_latency(
        &DatasetSpec::euro_like(cfg.scale),
        crate::runner::FANOUT,
        cfg.io_latency(),
    );
    let trio_spec = WorkloadSpec {
        n_keywords: 4,
        k: 10,
        alpha: 0.5,
        missing_rank: 51,
        n_missing: 1,
        seed: 42_000,
    };
    let qs = bed.questions(&trio_spec, cfg.queries, 0.5);
    for algo in [
        Algo::Bs,
        Algo::Advanced(AdvancedOptions::default()),
        Algo::Kcr(KcrOptions::default()),
    ] {
        rows.push(measure_row(&bed, &algo, &qs, "trio", 1));
    }

    // The same serial KcRBased workload with tracing sampled 1-in-N:
    // tracing is observation-only, so every deterministic work metric
    // must land exactly where the untraced trio row does — the gate
    // compares this row against the baseline at the normal serial
    // tolerance, which is how the <5 % tracing-overhead budget on work
    // metrics is enforced in CI.
    let tracer = Tracer::new();
    let traced_bed = TestBed::instrumented(
        &DatasetSpec::euro_like(cfg.scale),
        crate::runner::FANOUT,
        cfg.io_latency(),
        tracer.clone(),
    );
    let traced_qs = traced_bed.questions(&trio_spec, cfg.queries, 0.5);
    let (m, report) = measure_traced(
        &traced_bed,
        &Algo::Kcr(KcrOptions::default()),
        &traced_qs,
        &tracer,
        cfg.trace_sample,
    );
    rows.push(bench_row("trio/KcRBased/t=1/traced".into(), 1, m, &report));

    // The kernel A/B pairs: the serial trio workload under each
    // set-arithmetic kernel. Both kernels are bit-identical in work
    // metrics and penalty by construction (docs/KERNELS.md), and the
    // gate's exact penalty check plus the serial work tolerance enforce
    // that here; the wall-time delta between the pair is the measured
    // kernel speedup (reported, never gated).
    for kernel in wnsk_text::Kernel::ALL {
        for algo in [
            Algo::Advanced(AdvancedOptions {
                kernel,
                ..AdvancedOptions::default()
            }),
            Algo::Kcr(KcrOptions {
                kernel,
                ..KcrOptions::default()
            }),
        ] {
            let (m, report) = measure_with_report(&bed, &algo, &qs);
            rows.push(bench_row(
                format!("kernel/{}/t=1/{kernel}", base_name(&algo)),
                1,
                m,
                &report,
            ));
        }
    }

    // The Fig. 10 thread sweep on the heavier workload: covers the
    // parallel executor (counting ranks, dynamic subtree tasks, shared
    // bound pruning) at every thread count the figure plots.
    let sweep_spec = WorkloadSpec {
        n_keywords: 6,
        missing_rank: 101,
        seed: 10_000,
        ..trio_spec
    };
    let qs = bed.questions(&sweep_spec, cfg.queries, 0.5);
    let mut threads = 1usize;
    while threads <= cfg.max_threads {
        let adv = Algo::Advanced(AdvancedOptions {
            threads,
            ..AdvancedOptions::default()
        });
        let kcr = Algo::Kcr(KcrOptions {
            threads,
            ..KcrOptions::default()
        });
        rows.push(measure_row(&bed, &adv, &qs, "sweep", threads));
        rows.push(measure_row(&bed, &kcr, &qs, "sweep", threads));
        threads *= 2;
    }

    // The serving layer, end to end and in-process: a warm server, one
    // sequential client, every query issued cold then warm. Sequential
    // submission makes the service counters (accepted / cache hits /
    // misses) exactly deterministic, and the why-not penalties are the
    // solver's own, so the gate catches both protocol-level and
    // cache-consistency regressions.
    let session = serve_row(cfg);
    // The same pinned session with the whole observability plane on —
    // flight recorder, slow-query log at threshold zero (every request
    // files an entry and competes for the trace slot), rolling windows.
    // Observation must be free in work terms: the work metrics and the
    // penalty are asserted bit-identical to the unobserved row right
    // here, so a violation fails `xp bench` before any baseline diff.
    // Wall time stays report-only, as everywhere.
    let observed = observed_row(cfg);
    assert_eq!(
        session.work, observed.work,
        "observability changed the serving work metrics"
    );
    assert_eq!(
        session.penalty.to_bits(),
        observed.penalty.to_bits(),
        "observability changed the served penalties"
    );
    rows.push(session);
    rows.push(observed);

    // The durable write path under churn: a WAL-attached server
    // interleaving cached queries with inserts and deletes. Sequential
    // submission keeps the epoch, cache, WAL and ingest counters exactly
    // deterministic, so the gate pins the cost of a mutation — group
    // commits paid, cache entries invalidated — next to the honest hit
    // rate the cache achieves when the dataset refuses to sit still.
    rows.push(churn_row(cfg));

    // The scatter-gather coordinator over the same session script: the
    // merged answers' penalties are gated exactly (bit-identity with a
    // single engine is the subsystem's contract), and the cross-shard
    // bound-tightening counter is asserted nonzero before the row is
    // even written.
    rows.push(sharded_row(cfg));

    BenchOutcome {
        metrics: bed.registry().snapshot(),
        rows,
    }
}

/// The in-process serving-layer row: `serve/session/t=2`.
fn serve_row(cfg: &XpConfig) -> BenchRow {
    serve_session_row(cfg, "serve/session/t=2", None)
}

/// The observed twin: `serve/observed/t=2` — the identical session with
/// the flight recorder, slow-query log (threshold zero) and rolling
/// windows enabled. [`run_bench_full`] asserts its work metrics and
/// penalty bit-identical to [`serve_row`]'s.
fn observed_row(cfg: &XpConfig) -> BenchRow {
    serve_session_row(
        cfg,
        "serve/observed/t=2",
        Some(wnsk_serve::ObservabilityConfig {
            slow_threshold: std::time::Duration::ZERO,
            ..wnsk_serve::ObservabilityConfig::default()
        }),
    )
}

/// Deterministic session lines for the serve rows: per step a top-k on
/// a real object's location and terms, plus (where brute-force ranking
/// finds one strictly below the top-K) the matching why-not question.
fn session_lines(
    ds: &wnsk_index::Dataset,
    vocab: &wnsk_text::Vocabulary,
    queries: usize,
    k: usize,
) -> Vec<String> {
    use wnsk_index::{ObjectId, SpatialKeywordQuery};
    use wnsk_serve::client;
    use wnsk_text::KeywordSet;

    let mut lines = Vec::new();
    for i in 0..queries {
        let o = ds.object(ObjectId(((i * 97 + 13) % ds.len()) as u32));
        let at = wnsk_serve::cache::canonical_point(o.loc);
        let terms: Vec<_> = o.doc.iter().take(2).collect();
        let names: Vec<&str> = terms.iter().filter_map(|&t| vocab.name(t)).collect();
        if names.is_empty() {
            continue;
        }
        lines.push(client::topk_line((at.x, at.y), &names, k, 0.5));
        let query =
            SpatialKeywordQuery::new(at, KeywordSet::from_ids(terms.iter().map(|t| t.0)), k, 0.5);
        let mut scored: Vec<(ObjectId, f64)> = ds
            .objects()
            .iter()
            .map(|obj| (obj.id, ds.score(obj, &query)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        let kth = scored[k - 1].1;
        if let Some(&(missing, _)) = scored[k..(k + 20).min(scored.len())]
            .iter()
            .find(|&&(_, s)| s < kth)
        {
            lines.push(client::whynot_line(
                (at.x, at.y),
                &names,
                k,
                0.5,
                &[missing.0],
                0.5,
                None,
            ));
        }
    }
    lines
}

fn serve_session_row(
    cfg: &XpConfig,
    id: &str,
    observability: Option<wnsk_serve::ObservabilityConfig>,
) -> BenchRow {
    use wnsk_serve::{Client, Server, ServerConfig};

    const K: usize = 10;
    let g = wnsk_data::generate(&DatasetSpec::euro_like(cfg.scale));
    let engine = wnsk_core::WhyNotEngine::build_in_memory(g.dataset)
        .expect("bench dataset builds")
        .with_vocabulary(g.vocabulary);
    let handle = Server::start(
        engine,
        ServerConfig {
            threads: 2,
            observability,
            ..ServerConfig::default()
        },
    )
    .expect("bench server binds a loopback port");

    // Deterministic request lines drawn from real objects; every third
    // step also asks the matching why-not question for an object picked
    // by brute-force ranking to sit strictly below the top-K.
    let engine_guard = handle.serve_engine().engine();
    let lines = session_lines(
        engine_guard.dataset(),
        engine_guard
            .vocabulary()
            .expect("bench engine has a vocabulary"),
        cfg.queries.max(1),
        K,
    );
    drop(engine_guard);
    let mut conn = Client::connect(handle.addr()).expect("bench client connects");
    let mut penalties = Vec::new();
    let mut requests = 0u32;
    let started = std::time::Instant::now();
    for _pass in 0..2 {
        for line in &lines {
            let doc = conn.call_json(line).expect("bench request answered");
            assert_eq!(
                doc.get("ok"),
                Some(&JsonValue::Bool(true)),
                "bench serve session must answer every request: {doc:?}"
            );
            requests += 1;
            if doc.get("type").and_then(JsonValue::as_str) == Some("whynot") {
                let p = doc
                    .get("refined")
                    .and_then(|r| r.get("penalty"))
                    .and_then(JsonValue::as_f64)
                    .expect("whynot answers carry a penalty");
                penalties.push(p);
            }
        }
    }
    let time_ms = started.elapsed().as_secs_f64() * 1e3 / f64::from(requests.max(1));

    let snap = handle.registry().snapshot();
    let row = BenchRow {
        id: id.into(),
        threads: 2,
        time_ms,
        penalty: penalties.iter().sum::<f64>() / penalties.len().max(1) as f64,
        work: vec![
            (
                "accepted",
                snap.counter(wnsk_obs::names::SERVE_ACCEPTED) as f64,
            ),
            (
                "cache_hits",
                snap.counter(wnsk_obs::names::SERVE_CACHE_HITS) as f64,
            ),
            (
                "cache_misses",
                snap.counter(wnsk_obs::names::SERVE_CACHE_MISSES) as f64,
            ),
        ],
    };
    handle.shutdown();
    row
}

/// The scatter-gather row: `serve/sharded/s=2/t=2` — the serve-session
/// script against a 2-shard coordinator on 2 executor threads. The
/// session is sequential, so every counter is deterministic: accepted
/// requests, cache traffic (top-k answers cache across passes; the
/// sharded why-not path always recomputes), scatter fan-outs, and the
/// cross-shard penalty-bound tightenings — pinned *nonzero* here, so
/// CI fails outright if the shared bound ever stops pruning across
/// shards. Penalties are gated exactly: the merged answers must stay
/// bit-identical to a single engine's no matter what this row's code
/// paths do.
fn sharded_row(cfg: &XpConfig) -> BenchRow {
    use wnsk_serve::{Client, Server, ServerConfig};
    use wnsk_shard::{Coordinator, CoordinatorConfig, ShardManifest};

    const K: usize = 10;
    const SHARDS: usize = 2;
    let g = wnsk_data::generate(&DatasetSpec::euro_like(cfg.scale));
    let manifest = ShardManifest::plan(&g.dataset, SHARDS, 42);
    let coordinator = Coordinator::new(
        g.dataset,
        manifest,
        CoordinatorConfig {
            threads: 2,
            ..CoordinatorConfig::default()
        },
    )
    .expect("bench partition covers the dataset")
    .with_vocabulary(g.vocabulary);
    let handle = Server::start_sharded(
        coordinator,
        ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bench server binds a loopback port");

    let coord = handle.serve_engine().coordinator();
    let lines = session_lines(
        coord.dataset(),
        coord
            .vocabulary()
            .expect("bench coordinator has a vocabulary"),
        cfg.queries.max(1),
        K,
    );
    drop(coord);

    let mut conn = Client::connect(handle.addr()).expect("bench client connects");
    let mut penalties = Vec::new();
    let mut requests = 0u32;
    let started = std::time::Instant::now();
    for _pass in 0..2 {
        for line in &lines {
            let doc = conn.call_json(line).expect("bench request answered");
            assert_eq!(
                doc.get("ok"),
                Some(&JsonValue::Bool(true)),
                "bench sharded session must answer every request: {doc:?}"
            );
            requests += 1;
            if doc.get("type").and_then(JsonValue::as_str) == Some("whynot") {
                let p = doc
                    .get("refined")
                    .and_then(|r| r.get("penalty"))
                    .and_then(JsonValue::as_f64)
                    .expect("whynot answers carry a penalty");
                penalties.push(p);
            }
        }
    }
    let time_ms = started.elapsed().as_secs_f64() * 1e3 / f64::from(requests.max(1));

    let snap = handle.registry().snapshot();
    let tightenings = snap.counter(wnsk_obs::names::SHARD_BOUND_TIGHTENINGS);
    assert!(
        tightenings > 0,
        "the cross-shard penalty bound never tightened — the why-not \
         scatter is not sharing improvements between shards"
    );
    let row = BenchRow {
        id: format!("serve/sharded/s={SHARDS}/t=2"),
        threads: 2,
        time_ms,
        penalty: penalties.iter().sum::<f64>() / penalties.len().max(1) as f64,
        work: vec![
            (
                "accepted",
                snap.counter(wnsk_obs::names::SERVE_ACCEPTED) as f64,
            ),
            (
                "cache_hits",
                snap.counter(wnsk_obs::names::SERVE_CACHE_HITS) as f64,
            ),
            (
                "cache_misses",
                snap.counter(wnsk_obs::names::SERVE_CACHE_MISSES) as f64,
            ),
            (
                "scatter",
                snap.counter(wnsk_obs::names::SHARD_SCATTER) as f64,
            ),
            ("bound_tightenings", tightenings as f64),
        ],
    };
    handle.shutdown();
    row
}

/// The durable-churn row: `ingest/churn/t=2`.
///
/// Each round asks a top-k and a why-not question, inserts a perfect
/// competitor through the WAL, re-asks both (the epoch moved — the
/// cached answers must be recomputed), deletes the insert, and asks the
/// top-k twice more (one recompute, one same-epoch cache hit). Every
/// counter below is deterministic for the sequential session, and the
/// mean why-not penalty is gated exactly like every other row's.
fn churn_row(cfg: &XpConfig) -> BenchRow {
    use std::sync::Arc;
    use wnsk_index::{ObjectId, SpatialKeywordQuery};
    use wnsk_serve::{client, Client, Server, ServerConfig};
    use wnsk_storage::{BufferPool, BufferPoolConfig, MemBackend};
    use wnsk_text::KeywordSet;

    const K: usize = 10;
    let g = wnsk_data::generate(&DatasetSpec::euro_like(cfg.scale));
    let mut engine = wnsk_core::WhyNotEngine::build_in_memory(g.dataset)
        .expect("bench dataset builds")
        .with_vocabulary(g.vocabulary);
    let wal_pool = Arc::new(BufferPool::new(
        Arc::new(MemBackend::new()),
        BufferPoolConfig::default(),
    ));
    let report = engine.attach_wal(wal_pool).expect("an empty WAL recovers");
    assert_eq!(report.records_replayed, 0, "the bench WAL starts empty");
    let handle = Server::start(
        engine,
        ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bench server binds a loopback port");

    // Per-round request material drawn from real objects, exactly as the
    // serve row does; the missing object is picked against the *base*
    // dataset, which every round restores by deleting its own insert.
    let engine_guard = handle.serve_engine().engine();
    let ds = engine_guard.dataset();
    let vocab = engine_guard
        .vocabulary()
        .expect("bench engine has a vocabulary");
    struct Round {
        topk: String,
        whynot: Option<String>,
        insert: String,
    }
    let mut rounds = Vec::new();
    for i in 0..cfg.queries.max(1) {
        let o = ds.object(ObjectId(((i * 97 + 13) % ds.len()) as u32));
        let at = wnsk_serve::cache::canonical_point(o.loc);
        let terms: Vec<_> = o.doc.iter().take(2).collect();
        let names: Vec<&str> = terms.iter().filter_map(|&t| vocab.name(t)).collect();
        if names.is_empty() {
            continue;
        }
        let query =
            SpatialKeywordQuery::new(at, KeywordSet::from_ids(terms.iter().map(|t| t.0)), K, 0.5);
        let mut scored: Vec<(ObjectId, f64)> = ds
            .objects()
            .iter()
            .map(|obj| (obj.id, ds.score(obj, &query)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        let kth = scored[K - 1].1;
        let whynot = scored[K..(K + 20).min(scored.len())]
            .iter()
            .find(|&&(_, s)| s < kth)
            .map(|&(missing, _)| {
                client::whynot_line((at.x, at.y), &names, K, 0.5, &[missing.0], 0.5, None)
            });
        rounds.push(Round {
            topk: client::topk_line((at.x, at.y), &names, K, 0.5),
            whynot,
            insert: client::insert_line((at.x, at.y), &names),
        });
    }
    drop(engine_guard);

    let mut conn = Client::connect(handle.addr()).expect("bench client connects");
    let mut call = |line: &str| -> JsonValue {
        let doc = conn.call_json(line).expect("bench request answered");
        assert_eq!(
            doc.get("ok"),
            Some(&JsonValue::Bool(true)),
            "bench churn session must answer every request: {doc:?}"
        );
        doc
    };
    let penalty_of = |doc: &JsonValue| {
        doc.get("refined")
            .and_then(|r| r.get("penalty"))
            .and_then(JsonValue::as_f64)
            .expect("whynot answers carry a penalty")
    };
    let mut penalties = Vec::new();
    let mut requests = 0u32;
    let started = std::time::Instant::now();
    for round in &rounds {
        call(&round.topk);
        if let Some(wn) = &round.whynot {
            penalties.push(penalty_of(&call(wn)));
        }
        let ack = call(&round.insert);
        let inserted = ack
            .get("id")
            .and_then(JsonValue::as_f64)
            .expect("insert acks carry the new id") as u32;
        call(&round.topk);
        if let Some(wn) = &round.whynot {
            penalties.push(penalty_of(&call(wn)));
        }
        call(&client::delete_line(inserted));
        // Post-delete: one recompute, then a same-epoch repeat — the
        // only request of the round the cache may legally serve.
        call(&round.topk);
        call(&round.topk);
        requests += 8;
    }
    let time_ms = started.elapsed().as_secs_f64() * 1e3 / f64::from(requests.max(1));

    let snap = handle.registry().snapshot();
    let counter = |name: &str| snap.counter(name) as f64;
    let row = BenchRow {
        id: "ingest/churn/t=2".into(),
        threads: 2,
        time_ms,
        penalty: penalties.iter().sum::<f64>() / penalties.len().max(1) as f64,
        work: vec![
            ("ingest_applied", counter(wnsk_obs::names::INGEST_APPLIED)),
            ("wal_appends", counter(wnsk_obs::names::WAL_APPENDS)),
            ("wal_commits", counter(wnsk_obs::names::WAL_COMMITS)),
            ("cache_hits", counter(wnsk_obs::names::SERVE_CACHE_HITS)),
            ("cache_misses", counter(wnsk_obs::names::SERVE_CACHE_MISSES)),
            (
                "cache_invalidated",
                counter(wnsk_obs::names::SERVE_CACHE_INVALIDATED),
            ),
        ],
    };
    handle.shutdown();
    row
}

fn measure_row(
    bed: &TestBed,
    algo: &Algo,
    qs: &[wnsk_core::WhyNotQuestion],
    group: &str,
    threads: usize,
) -> BenchRow {
    let (m, report) = measure_with_report(bed, algo, qs);
    bench_row(
        format!("{group}/{}/t={threads}", base_name(algo)),
        threads,
        m,
        &report,
    )
}

fn bench_row(id: String, threads: usize, m: Measurement, report: &QueryReport) -> BenchRow {
    BenchRow {
        id,
        threads,
        time_ms: m.time_ms,
        penalty: m.penalty,
        work: vec![
            ("io", m.io),
            ("candidates", report.counter("core.candidates") as f64),
            ("queries_run", report.counter("core.queries_run") as f64),
            (
                "nodes_expanded",
                report.counter("core.nodes_expanded") as f64,
            ),
        ],
    }
}

/// Algorithm name without the thread suffix (`threads` is its own JSON
/// field, and row ids must be stable across `--threads` sweeps).
fn base_name(algo: &Algo) -> &'static str {
    match algo {
        Algo::Bs => "BS",
        Algo::Advanced(_) => "AdvancedBS",
        Algo::Kcr(_) => "KcRBased",
        Algo::ApproxBs(_) => "BS~",
        Algo::ApproxAdvanced(_, _) => "AdvancedBS~",
        Algo::ApproxKcr(_, _) => "KcRBased~",
    }
}

/// Serialises a sweep (plus the config that produced it) to the
/// `BENCH_*.json` document.
pub fn to_json(cfg: &XpConfig, rows: &[BenchRow]) -> JsonValue {
    JsonValue::object(vec![
        ("version", FORMAT_VERSION.into()),
        (
            "config",
            JsonValue::object(vec![
                ("scale", cfg.scale.into()),
                ("queries", cfg.queries.into()),
                ("max_threads", cfg.max_threads.into()),
                ("io_latency_us", cfg.io_latency_us.into()),
                ("trace_sample", cfg.trace_sample.into()),
            ]),
        ),
        (
            "rows",
            JsonValue::Array(
                rows.iter()
                    .map(|r| {
                        JsonValue::object(vec![
                            ("id", r.id.as_str().into()),
                            ("threads", r.threads.into()),
                            ("time_ms", r.time_ms.into()),
                            ("penalty", r.penalty.into()),
                            (
                                "work",
                                JsonValue::Object(
                                    r.work
                                        .iter()
                                        .map(|&(k, v)| (k.to_owned(), v.into()))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A parsed `BENCH_*.json`.
pub struct BenchDoc {
    pub config: Vec<(String, f64)>,
    pub rows: Vec<ParsedRow>,
}

pub struct ParsedRow {
    pub id: String,
    pub threads: usize,
    pub time_ms: f64,
    pub penalty: f64,
    pub work: Vec<(String, f64)>,
}

/// Parses a document produced by [`to_json`].
pub fn parse_doc(text: &str) -> Result<BenchDoc, String> {
    let v = JsonValue::parse(text)?;
    let version = v
        .get("version")
        .and_then(JsonValue::as_f64)
        .ok_or("missing version")?;
    if version != FORMAT_VERSION as f64 {
        return Err(format!("unsupported bench format version {version}"));
    }
    let config = match v.get("config") {
        Some(JsonValue::Object(fields)) => fields
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
            .collect(),
        _ => return Err("missing config object".into()),
    };
    let rows = v
        .get("rows")
        .and_then(JsonValue::as_array)
        .ok_or("missing rows array")?
        .iter()
        .map(|row| {
            let id = row
                .get("id")
                .and_then(JsonValue::as_str)
                .ok_or("row without id")?
                .to_owned();
            let threads =
                row.get("threads")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("{id}: missing threads"))? as usize;
            let time_ms = row
                .get("time_ms")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{id}: missing time_ms"))?;
            let penalty = row
                .get("penalty")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{id}: missing penalty"))?;
            let work = match row.get("work") {
                Some(JsonValue::Object(fields)) => fields
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                    .collect(),
                _ => return Err(format!("{id}: missing work object")),
            };
            Ok(ParsedRow {
                id,
                threads,
                time_ms,
                penalty,
                work,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(BenchDoc { config, rows })
}

/// The outcome of a comparison: regressions fail CI, notes do not.
pub struct Comparison {
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

/// Diffs `pr` against `baseline`: serial rows' work metrics must match
/// exactly, parallel rows' may grow by the relative `tolerance` (e.g.
/// `0.20` = fail on >20 % growth) plus [`PARALLEL_EXTRA_SLACK`].
pub fn compare(baseline: &BenchDoc, pr: &BenchDoc, tolerance: f64) -> Comparison {
    let mut failures = Vec::new();
    let mut notes = Vec::new();

    // The sweep configuration must match exactly: differing scales or
    // latencies make every number incomparable.
    for (key, base_val) in &baseline.config {
        match pr.config.iter().find(|(k, _)| k == key) {
            Some((_, pr_val)) if pr_val == base_val => {}
            Some((_, pr_val)) => failures.push(format!(
                "config mismatch: {key} = {pr_val} (baseline {base_val}) — \
                 rerun both sides with identical flags"
            )),
            None => failures.push(format!("config key {key} missing from the PR run")),
        }
    }

    for base_row in &baseline.rows {
        let Some(pr_row) = pr.rows.iter().find(|r| r.id == base_row.id) else {
            failures.push(format!("row {} missing from the PR run", base_row.id));
            continue;
        };
        let id = &base_row.id;

        if (pr_row.penalty - base_row.penalty).abs() > PENALTY_EPS {
            failures.push(format!(
                "{id}: penalty changed {:.9} → {:.9} — the refined answers differ",
                base_row.penalty, pr_row.penalty
            ));
        }

        let slack = tolerance + PARALLEL_EXTRA_SLACK;
        for (metric, base_val) in &base_row.work {
            let Some((_, pr_val)) = pr_row.work.iter().find(|(k, _)| k == metric) else {
                failures.push(format!(
                    "{id}: work metric {metric} missing from the PR run"
                ));
                continue;
            };
            if base_row.threads <= 1 {
                if (pr_val - base_val).abs() > WORK_EPS * base_val.abs().max(1.0) {
                    let moved = if pr_val > base_val {
                        "regressed"
                    } else {
                        "improved"
                    };
                    failures.push(format!(
                        "{id}: {metric} {moved} {base_val} → {pr_val} on a serial row, \
                         whose work is deterministic — if the change is intended, \
                         regenerate BENCH_baseline.json and explain the row in CHANGES.md"
                    ));
                }
                continue;
            }
            if *base_val <= 0.0 {
                if *pr_val > 0.0 {
                    notes.push(format!("{id}: {metric} appeared ({pr_val:.1})"));
                }
                continue;
            }
            let ratio = pr_val / base_val;
            if ratio > 1.0 + slack {
                failures.push(format!(
                    "{id}: {metric} regressed {base_val:.1} → {pr_val:.1} \
                     (+{:.1} %, tolerance {:.0} %)",
                    (ratio - 1.0) * 100.0,
                    slack * 100.0
                ));
            } else if ratio < 1.0 - slack {
                notes.push(format!(
                    "{id}: {metric} improved {base_val:.1} → {pr_val:.1} \
                     ({:.1} %) — consider refreshing the baseline",
                    (ratio - 1.0) * 100.0
                ));
            }
        }

        let time_ratio = if base_row.time_ms > 0.0 {
            pr_row.time_ms / base_row.time_ms
        } else {
            1.0
        };
        if !(0.5..=2.0).contains(&time_ratio) {
            notes.push(format!(
                "{id}: wall time {:.1} ms → {:.1} ms (informational; time is never gated)",
                base_row.time_ms, pr_row.time_ms
            ));
        }
    }

    for pr_row in &pr.rows {
        if !baseline.rows.iter().any(|r| r.id == pr_row.id) {
            notes.push(format!(
                "{}: new row, not in the baseline (refresh it to start gating this point)",
                pr_row.id
            ));
        }
    }

    Comparison { failures, notes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rows: Vec<ParsedRow>) -> BenchDoc {
        BenchDoc {
            config: vec![("scale".into(), 0.01), ("queries".into(), 3.0)],
            rows,
        }
    }

    fn row(id: &str, threads: usize, io: f64, penalty: f64) -> ParsedRow {
        ParsedRow {
            id: id.into(),
            threads,
            time_ms: 100.0,
            penalty,
            work: vec![("io".into(), io), ("candidates".into(), 50.0)],
        }
    }

    #[test]
    fn identical_docs_pass() {
        let base = doc(vec![row("trio/BS/t=1", 1, 1000.0, 0.25)]);
        let pr = doc(vec![row("trio/BS/t=1", 1, 1000.0, 0.25)]);
        let c = compare(&base, &pr, 0.20);
        assert!(c.failures.is_empty(), "{:?}", c.failures);
    }

    #[test]
    fn io_regression_fails() {
        let base = doc(vec![row("trio/BS/t=1", 1, 1000.0, 0.25)]);
        let pr = doc(vec![row("trio/BS/t=1", 1, 1300.0, 0.25)]);
        let c = compare(&base, &pr, 0.20);
        assert_eq!(c.failures.len(), 1);
        assert!(c.failures[0].contains("io regressed"), "{}", c.failures[0]);
    }

    #[test]
    fn within_tolerance_passes_and_improvement_notes() {
        // Serial work is deterministic: ±15 % fails either way.
        let base = doc(vec![row("trio/BS/t=1", 1, 1000.0, 0.25)]);
        for io in [1150.0, 850.0] {
            let c = compare(&base, &doc(vec![row("trio/BS/t=1", 1, io, 0.25)]), 0.20);
            assert_eq!(c.failures.len(), 1, "serial io {io}");
            assert!(
                c.failures[0].contains("BENCH_baseline.json"),
                "{}",
                c.failures[0]
            );
        }
        // A parallel row within the slack passes; a large drop notes.
        let base = doc(vec![row("sweep/BS/t=2", 2, 1000.0, 0.25)]);
        let pr = doc(vec![row("sweep/BS/t=2", 2, 1150.0, 0.25)]);
        assert!(compare(&base, &pr, 0.20).failures.is_empty());
        let pr = doc(vec![row("sweep/BS/t=2", 2, 500.0, 0.25)]);
        let c = compare(&base, &pr, 0.20);
        assert!(c.failures.is_empty());
        assert!(c.notes.iter().any(|n| n.contains("improved")));
    }

    #[test]
    fn parallel_rows_get_extra_slack() {
        let base = doc(vec![row("sweep/KcRBased/t=4", 4, 1000.0, 0.25)]);
        // +30 % would fail a serial row at 20 % tolerance but passes a
        // parallel one (20 % + 15 % slack).
        let pr = doc(vec![row("sweep/KcRBased/t=4", 4, 1300.0, 0.25)]);
        assert!(compare(&base, &pr, 0.20).failures.is_empty());
        let pr = doc(vec![row("sweep/KcRBased/t=4", 4, 1400.0, 0.25)]);
        assert_eq!(compare(&base, &pr, 0.20).failures.len(), 1);
    }

    #[test]
    fn penalty_drift_fails_exactly() {
        let base = doc(vec![row("trio/KcRBased/t=1", 1, 1000.0, 0.25)]);
        let pr = doc(vec![row("trio/KcRBased/t=1", 1, 1000.0, 0.2500001)]);
        let c = compare(&base, &pr, 0.20);
        assert_eq!(c.failures.len(), 1);
        assert!(c.failures[0].contains("penalty"), "{}", c.failures[0]);
    }

    #[test]
    fn missing_row_and_config_mismatch_fail() {
        let base = doc(vec![row("trio/BS/t=1", 1, 1000.0, 0.25)]);
        let pr = BenchDoc {
            config: vec![("scale".into(), 0.02), ("queries".into(), 3.0)],
            rows: vec![],
        };
        let c = compare(&base, &pr, 0.20);
        assert!(c.failures.iter().any(|f| f.contains("config mismatch")));
        assert!(c
            .failures
            .iter()
            .any(|f| f.contains("missing from the PR run")));
    }

    #[test]
    fn json_round_trip() {
        let cfg = XpConfig::default();
        let rows = vec![BenchRow {
            id: "sweep/AdvancedBS/t=2".into(),
            threads: 2,
            time_ms: 123.4,
            penalty: 0.5,
            work: vec![("io", 100.0), ("candidates", 7.0)],
        }];
        let text = to_json(&cfg, &rows).render();
        let parsed = parse_doc(&text).unwrap();
        assert_eq!(parsed.rows.len(), 1);
        assert_eq!(parsed.rows[0].id, "sweep/AdvancedBS/t=2");
        assert_eq!(parsed.rows[0].threads, 2);
        assert_eq!(parsed.rows[0].work[0], ("io".into(), 100.0));
        // Identical docs compare clean.
        assert!(compare(&parsed, &parse_doc(&text).unwrap(), 0.2)
            .failures
            .is_empty());
    }
}
