//! serve-read, serve-churn and serve-sharded: `wnsk serve` end to end,
//! in process, over loopback TCP.
//!
//! Each run has two phases on two connections. Phase A is an open loop
//! at a fixed arrival rate and gives the latencies; phase B is a closed
//! loop and gives the throughput, `ops_per_s`.

use crate::layers::{Layers, Traffic};
use crate::openloop::{answer_digest, closed_connection, open_loop, Done, Kind, Pool, Slot};
use crate::probe::{self, PLAN_SEED, SHARDS};
use crate::spans::Spans;
use crate::stats::{quantile, ratio};
use crate::{end_to_end, Config, Metric, Outcome, Workload, TAIL};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wnsk_core::WhyNotEngine;
use wnsk_data::zipf::Zipf;
use wnsk_data::{generate, DatasetSpec};
use wnsk_geo::Point;
use wnsk_index::{Dataset, ObjectId, SpatialKeywordQuery};
use wnsk_obs::{JsonValue, Snapshot};
use wnsk_serve::cache::canonical_point;
use wnsk_serve::{
    client, protocol, Client, ObservabilityConfig, ResolvedRequest, ServeEngine, Server,
    ServerConfig, ServerHandle,
};
use wnsk_shard::{Coordinator, CoordinatorConfig, ShardManifest};
use wnsk_storage::{BufferPool, FileBackend};
use wnsk_text::{KeywordSet, Vocabulary};

/// Closed-loop clients, one connection each (the machine has two
/// cores, and the server two workers).
const CONNECTIONS: usize = 2;
/// Connections the open loop sends on: enough that a request never
/// waits for a free connection, even while a burst of slow answers
/// queues in the server. Idle connections cost a sleeping thread each.
const OPEN_CONNECTIONS: usize = 32;
/// Result size of every served query.
const K: usize = 10;
/// Zipf exponent of the top-k draws: popular queries repeat, which is
/// what the answer cache is for. Why-not questions are drawn
/// uniformly: each is one user's own question.
const TOPK_ZIPF: f64 = 0.6;
/// Share of the window given to the open-loop phase.
const OPEN_SHARE: f64 = 0.75;
/// Open-loop arrival rate, requests per second, the same on every
/// serve-* plane. The single engine serves about 130 per second in the
/// closed loop (90 under churn); at 40 both cores are seldom busy at
/// once, so the load generator's threads wake on time (at 60 the send
/// lag's p99 was 2-4 ms). Rates from 40 to 400 on the coordinator gave
/// no steadier numbers.
const OPEN_RATE: f64 = 40.0;
/// Measured attempts per untraced run. An attempt whose open loop sent
/// late is invalid: it is dropped and measured again on a fresh plane.
/// On a shared host a stall of a few milliseconds now and then makes
/// the generator late however idle the server is.
const ATTEMPTS: usize = 3;
/// Lines of each kind the correctness check recomputes uncached.
const CHECKED_LINES: usize = 12;

/// Request kinds, cycled through the schedule (and, in the closed
/// loop, through each connection's requests; connection `c` starts `2c`
/// in, so the clients interleave their why-nots and each client's
/// first delete follows its first insert).
const READ_PATTERN: [Kind; 4] = [Kind::TopK, Kind::TopK, Kind::TopK, Kind::WhyNot];
/// A quarter writes (an insert, then a delete of that insert), the
/// rest split evenly between top-k and why-not.
const CHURN_PATTERN: [Kind; 8] = [
    Kind::TopK,
    Kind::WhyNot,
    Kind::TopK,
    Kind::Insert,
    Kind::WhyNot,
    Kind::TopK,
    Kind::WhyNot,
    Kind::Delete,
];

fn pattern(w: Workload) -> &'static [Kind] {
    if w == Workload::ServeChurn {
        &CHURN_PATTERN
    } else {
        &READ_PATTERN
    }
}

fn spec(cfg: &Config) -> DatasetSpec {
    DatasetSpec::euro_like(cfg.sizes.serve_scale)
}

/// A running server plus everything needed to drive and check it.
struct Plane {
    handle: ServerHandle,
    pool: Pool,
    base_live: usize,
    wal: Option<PathBuf>,
}

/// Seeded request pool: top-k lines around real objects, why-not lines
/// whose missing object ranks just below the top-k (rank k+1..=k+10,
/// strictly below the k-th score), and insert lines copying objects.
fn request_pool(ds: &Dataset, vocab: &Vocabulary, cfg: &Config) -> Pool {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5345_5256_4500);
    let names = |doc: &KeywordSet, n: usize| -> Vec<String> {
        doc.iter()
            .filter_map(|t| vocab.name(t).map(str::to_string))
            .take(n)
            .collect()
    };
    let mut pool = Pool {
        topk: Vec::new(),
        whynot: Vec::new(),
        insert: Vec::new(),
    };
    while pool.topk.len() < cfg.sizes.topk_lines {
        let o = ds.object(ObjectId(rng.gen_range(0..ds.len() as u32)));
        let words = names(&o.doc, rng.gen_range(1..=2usize));
        if words.is_empty() {
            continue;
        }
        let jitter = |v: f64, rng: &mut StdRng| (v + rng.gen_range(-0.02..0.02)).clamp(0.0, 1.0);
        let at = canonical_point(Point::new(
            jitter(o.loc.x, &mut rng),
            jitter(o.loc.y, &mut rng),
        ));
        let words: Vec<&str> = words.iter().map(String::as_str).collect();
        pool.topk
            .push(client::topk_line((at.x, at.y), &words, K, 0.5));
    }
    let mut attempts = 0;
    while pool.whynot.len() < cfg.sizes.whynot_lines && attempts < 100 * cfg.sizes.whynot_lines {
        attempts += 1;
        let o = ds.object(ObjectId(rng.gen_range(0..ds.len() as u32)));
        let terms: Vec<_> = o.doc.iter().take(2).collect();
        let words = names(&o.doc, 2);
        if words.len() != terms.len() {
            continue;
        }
        let at = canonical_point(o.loc);
        let query = SpatialKeywordQuery::new(at, KeywordSet::from_terms(terms), K + 10, 0.5);
        let ranked = ds.top_k(&query);
        if ranked.len() < K + 10 {
            continue;
        }
        let kth = ranked[K - 1].1;
        let below: Vec<ObjectId> = ranked[K..]
            .iter()
            .filter(|&&(_, s)| s < kth)
            .map(|&(id, _)| id)
            .collect();
        if below.is_empty() {
            continue;
        }
        let missing = below[rng.gen_range(0..below.len())];
        let words: Vec<&str> = words.iter().map(String::as_str).collect();
        pool.whynot.push(client::whynot_line(
            (at.x, at.y),
            &words,
            K,
            0.5,
            &[missing.0],
            0.5,
            None,
        ));
    }
    while pool.insert.len() < 64 {
        let o = ds.object(ObjectId(rng.gen_range(0..ds.len() as u32)));
        let words = names(&o.doc, 3);
        let words: Vec<&str> = words.iter().map(String::as_str).collect();
        pool.insert
            .push(client::insert_line((o.loc.x, o.loc.y), &words));
    }
    pool
}

fn setup(cfg: &Config, traced: bool, n: usize) -> Result<(Plane, f64), String> {
    let started = Instant::now();
    let g = generate(&spec(cfg));
    let pool = request_pool(&g.dataset, &g.vocabulary, cfg);
    if pool.whynot.len() < cfg.sizes.whynot_lines {
        return Err(format!("drew {} why-not lines", pool.whynot.len()));
    }
    let base_live = g.dataset.live_len();
    // Traced planes record every request in the flight recorder.
    let config = ServerConfig {
        observability: traced.then(|| ObservabilityConfig {
            flight_capacity: 1 << 15,
            ..ObservabilityConfig::default()
        }),
        ..ServerConfig::default()
    };
    let mut wal = None;
    let handle = if cfg.workload == Workload::ServeSharded {
        let manifest = ShardManifest::plan(&g.dataset, SHARDS, PLAN_SEED);
        let coord = Coordinator::new(
            g.dataset,
            manifest,
            CoordinatorConfig {
                threads: 2,
                ..CoordinatorConfig::default()
            },
        )
        .map_err(|e| e.to_string())?
        .with_vocabulary(g.vocabulary);
        Server::start_sharded(coord, config)
    } else {
        let mut engine = WhyNotEngine::build_in_memory(g.dataset)
            .map_err(|e| e.to_string())?
            .with_vocabulary(g.vocabulary);
        if cfg.workload == Workload::ServeChurn {
            let path = cfg.work_dir.join(format!("serve-{n}.wal"));
            let backend = FileBackend::create(&path).map_err(|e| e.to_string())?;
            engine
                .attach_wal(Arc::new(BufferPool::with_default_config(Arc::new(backend))))
                .map_err(|e| e.to_string())?;
            wal = Some(path);
        }
        Server::start(engine, config)
    }
    .map_err(|e| format!("server start: {e}"))?;

    // Untimed warm-up: a few reads so sockets, threads and allocators
    // are live before the clock starts.
    let mut conn = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5741_524d);
    for j in 0..cfg.sizes.serve_warmup {
        let line = if j % 4 == 3 {
            &pool.whynot[rng.gen_range(0..pool.whynot.len())]
        } else {
            &pool.topk[rng.gen_range(0..pool.topk.len())]
        };
        let doc = conn.call_json(line).map_err(|e| e.to_string())?;
        if doc.get("ok") != Some(&JsonValue::Bool(true)) {
            return Err(format!("warm-up request failed: {doc}"));
        }
    }
    Ok((
        Plane {
            handle,
            pool,
            base_live,
            wal,
        },
        started.elapsed().as_secs_f64(),
    ))
}

/// Draws a request stream (the open-loop schedule, or one closed-loop
/// client's requests): the kind from the pattern, the line from that
/// kind's distribution.
struct Draw {
    rng: StdRng,
    topk: Zipf,
    whynots: usize,
    inserts: usize,
    pattern: &'static [Kind],
    next: usize,
}

impl Draw {
    fn new(cfg: &Config, pool: &Pool, conn: usize, phase: u64) -> Draw {
        Draw {
            rng: StdRng::seed_from_u64(
                cfg.seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(((phase << 8) | conn as u64) + 1),
            ),
            topk: Zipf::new(pool.topk.len(), TOPK_ZIPF),
            whynots: pool.whynot.len(),
            inserts: pool.insert.len(),
            pattern: pattern(cfg.workload),
            next: 2 * conn,
        }
    }

    fn slot(&mut self, due: Duration) -> Slot {
        let kind = self.pattern[self.next % self.pattern.len()];
        self.next += 1;
        let line = match kind {
            Kind::TopK => self.topk.sample(&mut self.rng),
            Kind::WhyNot => self.rng.gen_range(0..self.whynots),
            Kind::Insert => self.rng.gen_range(0..self.inserts),
            Kind::Delete => 0,
        };
        Slot { due, kind, line }
    }
}

/// Both phases; returns (open-loop results, closed-loop results,
/// closed-loop seconds).
fn drive(
    cfg: &Config,
    plane: &Plane,
    window: Duration,
    spans: Option<&Spans>,
) -> Result<(Vec<Done>, Vec<Done>, f64), String> {
    let addr = plane.handle.addr();
    let open = window.mul_f64(OPEN_SHARE);
    let n = (open.as_secs_f64() * OPEN_RATE).floor() as usize;
    let mut draw = Draw::new(cfg, &plane.pool, 0, 0);
    let mut last_insert = 0;
    let slots: Vec<Slot> = (0..n)
        .map(|i| {
            let mut slot = draw.slot(Duration::from_secs_f64(i as f64 / OPEN_RATE));
            match slot.kind {
                Kind::Insert => last_insert = i,
                Kind::Delete => slot.line = last_insert,
                _ => {}
            }
            slot
        })
        .collect();
    // A moment's head start, so no connection is late to its first slot.
    let start = Instant::now() + Duration::from_millis(20);
    let pool = &plane.pool;
    let open_done = open_loop(addr, pool, &slots, OPEN_CONNECTIONS, start, spans)
        .map_err(|e| format!("open loop: {e}"))?;

    let closed_start = Instant::now();
    let deadline = closed_start + (window - open);
    let closed_done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mut draw = Draw::new(cfg, pool, c, 1);
                scope.spawn(move || {
                    closed_connection(
                        addr,
                        pool,
                        || draw.slot(Duration::ZERO),
                        deadline,
                        spans,
                        ((c + 1) as u64) << 40,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection panicked"))
            .collect::<std::io::Result<Vec<_>>>()
    })
    .map_err(|e| format!("closed loop: {e}"))?;
    let closed_secs = closed_start.elapsed().as_secs_f64();
    Ok((
        open_done,
        closed_done.into_iter().flatten().collect(),
        closed_secs,
    ))
}

/// The digest of a fresh, uncached computation of `line` on `engine`.
fn fresh(engine: &ServeEngine, line: &str) -> Result<u64, String> {
    let parsed = protocol::parse_request(line)?;
    let resolved = engine.resolve(&parsed.request)?;
    engine
        .execute_uncached(&resolved)
        .map(|r| answer_digest(&r))
        .ok_or_else(|| format!("no uncached form for {line}"))
}

/// The most requested lines of a kind, most requested first.
fn hottest(done: &[Done], kind: Kind, n: usize) -> Vec<usize> {
    let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
    for d in done.iter().filter(|d| d.kind == kind) {
        *counts.entry(d.line).or_default() += 1;
    }
    let mut lines: Vec<(usize, usize)> = counts.into_iter().collect();
    lines.sort_by_key(|&(line, count)| (std::cmp::Reverse(count), line));
    lines.into_iter().take(n).map(|(line, _)| line).collect()
}

/// Checks outside the timed window.
///
/// Read-only planes: every response served for a line, cached or not,
/// carries the same answer, and the most requested lines' answers equal
/// a fresh uncached computation (on the sharded plane, also a single
/// engine's). Under churn the answers move with the epoch, so the most
/// requested lines are sent again at the final epoch instead, the live
/// count must equal base + inserts − deletes, and replaying the WAL into
/// a fresh engine must reproduce the served live count and epoch.
fn verify(cfg: &Config, plane: Plane, done: &[Done]) -> Vec<String> {
    let mut failures = Vec::new();
    let serve = plane.handle.serve_engine();
    let churn = cfg.workload == Workload::ServeChurn;
    let mut served: BTreeMap<(bool, usize), u64> = BTreeMap::new();
    if !churn {
        for d in done
            .iter()
            .filter(|d| d.kind == Kind::TopK || d.kind == Kind::WhyNot)
        {
            let key = (d.kind == Kind::WhyNot, d.line);
            let first = *served.entry(key).or_insert(d.answer);
            if first != d.answer {
                failures.push(format!(
                    "{:?} line {}: two different answers",
                    d.kind, d.line
                ));
            }
        }
    }
    let mut served_state = None;
    if churn {
        let inserts = done
            .iter()
            .filter(|d| d.kind == Kind::Insert && d.ok)
            .count();
        let deletes = done
            .iter()
            .filter(|d| d.kind == Kind::Delete && d.ok)
            .count();
        let engine = serve.engine();
        let live = engine.dataset().live_len();
        let expected = plane.base_live + inserts - deletes;
        if live != expected {
            failures.push(format!(
                "live objects {live}, expected {} + {inserts} − {deletes} = {expected}",
                plane.base_live
            ));
        }
        served_state = Some((live, engine.epoch()));
    }
    let single = (cfg.workload == Workload::ServeSharded).then(|| {
        let g = generate(&spec(cfg));
        let engine = WhyNotEngine::build_in_memory(g.dataset)
            .expect("the benchmark dataset builds")
            .with_vocabulary(g.vocabulary);
        ServeEngine::new(engine, 1)
    });
    let mut conn = Client::connect(plane.handle.addr()).map_err(|e| e.to_string());
    let mut checked = 0usize;
    for kind in [Kind::TopK, Kind::WhyNot] {
        for i in hottest(done, kind, CHECKED_LINES) {
            let line = if kind == Kind::TopK {
                &plane.pool.topk[i]
            } else {
                &plane.pool.whynot[i]
            };
            let got = if churn {
                match conn.as_mut().map(|c| c.call(line)) {
                    Ok(Ok(r)) => answer_digest(&r),
                    Ok(Err(e)) => {
                        failures.push(format!("re-send failed: {e}"));
                        continue;
                    }
                    Err(e) => {
                        failures.push(format!("check connection: {e}"));
                        break;
                    }
                }
            } else {
                served[&(kind == Kind::WhyNot, i)]
            };
            let mut expected = match fresh(serve, line) {
                Ok(d) => d,
                Err(e) => {
                    failures.push(e);
                    continue;
                }
            };
            if cfg.sabotage && checked == 0 {
                expected ^= 1;
            }
            checked += 1;
            if got != expected {
                failures.push(format!("{line}: served answer differs from a fresh one"));
            }
            if let Some(single) = &single {
                match fresh(single, line) {
                    Ok(d) if d == got => {}
                    Ok(_) => failures.push(format!("{line}: sharded answer differs from single")),
                    Err(e) => failures.push(e),
                }
            }
        }
    }
    if checked == 0 {
        failures.push("no line was checked".into());
    }
    drop(conn);
    plane.handle.shutdown();
    if let (Some((live, epoch)), Some(path)) = (served_state, &plane.wal) {
        match recover(cfg, path) {
            Ok(state) if state == (live, epoch) => {}
            Ok(state) => failures.push(format!(
                "WAL replay gives (live, epoch) {state:?}, served {:?}",
                (live, epoch)
            )),
            Err(e) => failures.push(format!("WAL replay: {e}")),
        }
    }
    failures
}

/// Replays the WAL into a fresh engine over the base dataset.
fn recover(cfg: &Config, path: &Path) -> Result<(usize, u64), String> {
    let mut engine =
        WhyNotEngine::build_in_memory(generate(&spec(cfg)).dataset).map_err(|e| e.to_string())?;
    let backend = FileBackend::open(path).map_err(|e| e.to_string())?;
    engine
        .attach_wal(Arc::new(BufferPool::with_default_config(Arc::new(backend))))
        .map_err(|e| e.to_string())?;
    Ok((engine.dataset().live_len(), engine.epoch()))
}

/// How late the open loop sent, 99th percentile, ms.
fn send_lag_p99(open: &[Done]) -> f64 {
    quantile(&open.iter().map(|d| d.lag_ms).collect::<Vec<_>>(), 0.99)
}

fn latencies(done: &[Done], kinds: &[Kind]) -> Vec<f64> {
    done.iter()
        .filter(|d| kinds.contains(&d.kind))
        .map(|d| d.latency_ms)
        .collect()
}

fn failed(done: &[Done]) -> u64 {
    done.iter().filter(|d| !d.ok).count() as u64
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    if cfg.traced {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    }
}

fn run_untraced(cfg: &Config) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut last: Option<Plane> = None;
    for n in 0..cfg.sizes.setups.max(1) {
        if let Some(p) = last.take() {
            p.handle.shutdown();
        }
        let (plane, secs) = setup(cfg, false, n)?;
        setup_s.push(secs);
        last = Some(plane);
    }
    let mut plane = last.expect("at least one set-up");
    let mut attempt = 1;
    let (open, closed, closed_secs, delta) = loop {
        let before = plane.handle.registry().snapshot();
        let (open, closed, closed_secs) = drive(cfg, &plane, cfg.window(), None)?;
        let delta = plane.handle.registry().snapshot().since(&before);
        let lag = send_lag_p99(&open);
        if lag <= cfg.sizes.max_send_lag_ms {
            break (open, closed, closed_secs, delta);
        }
        let late = format!(
            "{}: attempt {attempt}: the open loop sent late (send lag p99 {lag:.2} ms, \
             limit {} ms), so its latencies are not the server's",
            cfg.workload.name(),
            cfg.sizes.max_send_lag_ms
        );
        if attempt == ATTEMPTS {
            return Err(late);
        }
        eprintln!("{late}; measuring again");
        plane.handle.shutdown();
        plane = setup(cfg, false, cfg.sizes.setups + attempt)?.0;
        attempt += 1;
    };
    let hits = delta.counter(wnsk_obs::names::SERVE_CACHE_HITS) as f64;
    let misses = delta.counter(wnsk_obs::names::SERVE_CACHE_MISSES) as f64;
    let all: Vec<Done> = open.iter().chain(&closed).cloned().collect();
    let failures = verify(cfg, plane, &all);

    let whynot = latencies(&open, &[Kind::WhyNot]);
    let topk = latencies(&open, &[Kind::TopK]);
    let ingest = latencies(&open, &[Kind::Insert, Kind::Delete]);
    let attempted = all.len() as u64;
    let failed_n = failed(&all);
    let ops_per_s = (closed.len() as u64 - failed(&closed)) as f64 / closed_secs;
    let mut extra = vec![
        Metric::new(
            "fail_frac",
            ratio(failed_n as f64, attempted as f64),
            "ratio",
        ),
        Metric::new("send_lag_p99_ms", send_lag_p99(&open), "ms"),
        Metric::new("attempts", attempt as f64, "count"),
        Metric::new("cache_hit_frac", ratio(hits, hits + misses), "ratio"),
        Metric::new("whynot_samples", whynot.len() as f64, "count"),
        Metric::new("topk_samples", topk.len() as f64, "count"),
        Metric::new("closed_loop_ops", closed.len() as f64, "count"),
    ];
    if !ingest.is_empty() {
        extra.push(Metric::new("ingest_p50_ms", quantile(&ingest, 0.5), "ms"));
        extra.push(Metric::new("ingest_p90_ms", quantile(&ingest, TAIL), "ms"));
        extra.push(Metric::new("ingest_samples", ingest.len() as f64, "count"));
    }
    Ok(Outcome {
        workload: cfg.workload,
        traced: false,
        attempted,
        failed: failed_n,
        failures,
        metrics: end_to_end(cfg, &setup_s, &whynot, &topk, ops_per_s)?,
        extra,
        spans: None,
    })
}

/// Every registry the plane's layers publish into.
fn snapshots(plane: &Plane) -> Vec<Snapshot> {
    let serve = plane.handle.serve_engine();
    let mut out = vec![serve.registry().snapshot()];
    if serve.is_sharded() {
        let coord = serve.coordinator();
        out.extend((0..coord.shard_count()).map(|s| coord.shard_registry(s).snapshot()));
    }
    out
}

/// Half the window on an untraced plane, half on a traced one (same
/// seed), then the layer probes on the same data and request pool.
fn run_traced(cfg: &Config) -> Result<Outcome, String> {
    let half = cfg.window() / 2;
    let (plain, _) = setup(cfg, false, 0)?;
    let (open, closed, _) = drive(cfg, &plain, half, None)?;
    let plain_all: Vec<Done> = open.iter().chain(&closed).cloned().collect();
    let untraced_p50 = quantile(&latencies(&open, &[Kind::WhyNot]), 0.5);
    let mut failures = verify(cfg, plain, &plain_all);

    let spans = Spans::new();
    let (plane, _) = setup(cfg, true, 1)?;
    let before = snapshots(&plane);
    let recorder = plane
        .handle
        .serve_engine()
        .flight_recorder()
        .expect("traced planes record flights");
    let recorded_before = recorder.recorded();
    let (open, closed, _) = drive(cfg, &plane, half, Some(&spans))?;
    let deltas: Vec<Snapshot> = snapshots(&plane)
        .iter()
        .zip(&before)
        .map(|(a, b)| a.since(b))
        .collect();
    let all: Vec<Done> = open.iter().chain(&closed).cloned().collect();
    let flights: Vec<_> = recorder
        .entries()
        .into_iter()
        .filter(|e| e.seq >= recorded_before)
        .collect();
    let whynot_call_ns: f64 = flights
        .iter()
        .filter(|e| e.kind() == "whynot")
        .map(|e| e.execute_ns as f64)
        .sum();
    let queue_ns: f64 = flights.iter().map(|e| e.queue_wait_ns as f64).sum();
    let server_ns: f64 = flights.iter().map(|e| e.total_ns as f64).sum();
    let traffic = Traffic {
        ops: all.len() as u64,
        op_ns: all.iter().map(|d| d.latency_ms * 1e6).sum(),
        whynots: all.iter().filter(|d| d.kind == Kind::WhyNot).count() as u64,
        whynot_call_ns,
        deltas,
    };
    let mut layers = Layers::default();
    traffic.fill(&mut layers);
    traffic.fill_serve(&mut layers, Some((queue_ns, server_ns)));
    let traced_p50 = quantile(&latencies(&open, &[Kind::WhyNot]), 0.5);
    layers.set("obs.trace_overhead_frac", traced_p50 / untraced_p50 - 1.0);
    let flights_n = flights.len();

    let inputs = probe_inputs(&plane);
    failures.extend(verify(cfg, plane, &all));
    probe::run(cfg, &spec(cfg), inputs, &spans, &mut layers)?;
    Ok(Outcome {
        workload: cfg.workload,
        traced: true,
        attempted: (plain_all.len() + all.len()) as u64,
        failed: failed(&plain_all) + failed(&all),
        failures,
        metrics: layers.into_metrics()?,
        extra: vec![
            Metric::new("whynot_p50_untraced_ms", untraced_p50, "ms"),
            Metric::new("whynot_p50_traced_ms", traced_p50, "ms"),
            Metric::new("send_lag_p99_ms", send_lag_p99(&open), "ms"),
            Metric::new("flights", flights_n as f64, "count"),
            Metric::new("spans", spans.len() as f64, "count"),
        ],
        spans: Some(spans),
    })
}

/// The request pool, resolved into the queries and questions the
/// layer probes replay.
fn probe_inputs(plane: &Plane) -> probe::Inputs {
    let serve = plane.handle.serve_engine();
    let lines: Vec<String> = plane
        .pool
        .topk
        .iter()
        .chain(&plane.pool.whynot)
        .cloned()
        .collect();
    let mut inputs = probe::Inputs {
        topk: Vec::new(),
        questions: Vec::new(),
        lines: None,
    };
    for line in &lines {
        let resolved = protocol::parse_request(line)
            .ok()
            .and_then(|p| serve.resolve(&p.request).ok());
        match resolved {
            Some(ResolvedRequest::TopK(q)) => inputs.topk.push(q),
            Some(ResolvedRequest::WhyNot { question, .. }) => inputs.questions.push(question),
            _ => {}
        }
    }
    inputs.lines = Some(lines);
    inputs
}
