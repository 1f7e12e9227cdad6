//! End-to-end service smoke: a warm server answers a scripted NDJSON
//! session with bit-identical results to the bare engine, hits the
//! cross-query cache on repeats, sheds under pressure instead of
//! hanging, degrades on budget expiry, and shuts down cleanly with its
//! `serve.*` metrics visible in the Prometheus export.

use wnsk_core::{KcrOptions, WhyNotEngine, WhyNotQuestion};
use wnsk_data::{generate, DatasetSpec};
use wnsk_geo::Point;
use wnsk_index::SpatialKeywordQuery;
use wnsk_obs::{names, prometheus_text, JsonValue};
use wnsk_serve::client::{stats_line, topk_line, whynot_line};
use wnsk_serve::{Client, Server, ServerConfig};
use wnsk_text::KeywordSet;

/// Builds a warm engine over the deterministic tiny dataset. Called
/// twice per test so the server and the reference computation run on
/// independent but identical state.
fn warm_engine() -> WhyNotEngine {
    let data = generate(&DatasetSpec::tiny(7));
    WhyNotEngine::build_in_memory(data.dataset)
        .expect("tiny dataset builds")
        .with_vocabulary(data.vocabulary)
}

/// Two popular keyword names from the synthetic vocabulary.
fn query_keywords(engine: &WhyNotEngine) -> Vec<String> {
    let vocab = engine.vocabulary().expect("vocabulary attached");
    (0..2)
        .map(|t| vocab.name(wnsk_text::TermId(t)).unwrap().to_string())
        .collect()
}

fn term_ids(engine: &WhyNotEngine, names: &[String]) -> Vec<u32> {
    let vocab = engine.vocabulary().unwrap();
    names.iter().map(|n| vocab.get(n).unwrap().0).collect()
}

/// The session's fixed query point: dyadic, so canonicalization is the
/// identity and the reference engine sees exactly the served query.
const AT: (f64, f64) = (0.5, 0.25);
const K: usize = 3;
const ALPHA: f64 = 0.5;
const LAMBDA: f64 = 0.5;

fn f64_field(doc: &JsonValue, path: &[&str]) -> f64 {
    let mut v = doc;
    for key in path {
        v = v.get(key).unwrap_or_else(|| panic!("missing field {key}"));
    }
    v.as_f64().unwrap()
}

#[test]
fn scripted_session_matches_direct_engine_and_hits_cache() {
    let reference = warm_engine();
    let keywords = query_keywords(&reference);
    let kw: Vec<&str> = keywords.iter().map(String::as_str).collect();
    let ids = term_ids(&reference, &keywords);
    let query = SpatialKeywordQuery::new(
        Point::new(AT.0, AT.1),
        KeywordSet::from_ids(ids.iter().copied()),
        K,
        ALPHA,
    );

    // Reference ranking, used to pick genuinely missing objects and to
    // certify the served answers.
    let deep_query = SpatialKeywordQuery::new(query.loc, query.doc.clone(), 20, ALPHA);
    let ranking = reference.top_k(&deep_query).unwrap();
    assert!(ranking.len() >= 12, "tiny dataset ranks deep enough");
    let missing_a = ranking[5].0;
    let missing_b = ranking[9].0;
    assert!(
        ranking[K].1 > ranking[5].1 && ranking[K].1 > ranking[9].1,
        "missing picks rank strictly below the top-{K}"
    );
    let direct_topk = reference.top_k(&query).unwrap();
    let question = WhyNotQuestion::new(query.clone(), vec![missing_a], LAMBDA);
    let direct_answer = reference
        .answer_kcr(&question, KcrOptions::default())
        .unwrap();

    let handle = Server::start(warm_engine(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // 1+2: top-k, cold then warm — same bits, second answer cached.
    let cold = client.call_json(&topk_line(AT, &kw, K, ALPHA)).unwrap();
    let warm = client.call_json(&topk_line(AT, &kw, K, ALPHA)).unwrap();
    assert_eq!(cold.get("cached"), Some(&JsonValue::Bool(false)));
    assert_eq!(warm.get("cached"), Some(&JsonValue::Bool(true)));
    for doc in [&cold, &warm] {
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)));
        let results = doc.get("results").and_then(|v| v.as_array()).unwrap();
        assert_eq!(results.len(), direct_topk.len());
        for (got, want) in results.iter().zip(&direct_topk) {
            assert_eq!(f64_field(got, &["object"]) as u32, want.0 .0);
            assert_eq!(f64_field(got, &["score"]).to_bits(), want.1.to_bits());
        }
    }

    // 3+4: why-not, cold then warm — penalties bit-identical to the
    // bare engine; the warm run reuses the cached initial rank.
    let wn_line = whynot_line(AT, &kw, K, ALPHA, &[missing_a.0], LAMBDA, None);
    let wn_cold = client.call_json(&wn_line).unwrap();
    let wn_warm = client.call_json(&wn_line).unwrap();
    for doc in [&wn_cold, &wn_warm] {
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("quality").and_then(|v| v.as_str()), Some("exact"));
        let penalty = f64_field(doc, &["refined", "penalty"]);
        assert_eq!(
            penalty.to_bits(),
            direct_answer.refined.penalty.to_bits(),
            "served penalty must be bit-identical to the bare engine"
        );
        assert_eq!(
            f64_field(doc, &["initial_rank"]) as u64,
            direct_answer.stats.initial_rank
        );
    }
    assert_eq!(wn_cold.get("rank_reused"), Some(&JsonValue::Bool(false)));
    assert_eq!(wn_warm.get("rank_reused"), Some(&JsonValue::Bool(true)));

    // 5: a deep cached top-k list lets a *different* why-not question
    // derive its initial rank without ever having been asked before.
    let deep = client.call_json(&topk_line(AT, &kw, 20, ALPHA)).unwrap();
    assert_eq!(deep.get("ok"), Some(&JsonValue::Bool(true)));
    let wn_derived = client
        .call_json(&whynot_line(
            AT,
            &kw,
            K,
            ALPHA,
            &[missing_b.0],
            LAMBDA,
            None,
        ))
        .unwrap();
    assert_eq!(wn_derived.get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(
        wn_derived.get("rank_reused"),
        Some(&JsonValue::Bool(true)),
        "rank must be derived from the cached top-20 list"
    );
    assert_eq!(f64_field(&wn_derived, &["initial_rank"]) as usize, 10);

    // 6: stats reflect the session: everything accepted, nothing shed,
    // three cache hits (warm top-k, warm why-not, derived rank).
    let stats = client.call_json(&stats_line()).unwrap();
    assert_eq!(stats.get("ok"), Some(&JsonValue::Bool(true)));
    let counter = |name: &str| f64_field(&stats, &["counters", name]) as u64;
    assert_eq!(counter(names::SERVE_SHED), 0);
    assert_eq!(counter(names::SERVE_CACHE_HITS), 3);
    assert_eq!(counter(names::SERVE_CACHE_MISSES), 3);
    assert!(counter(names::SERVE_ACCEPTED) >= 7);

    // 7: the serve.* family is visible in the Prometheus export next to
    // the engine metrics.
    let text = prometheus_text(&handle.registry().snapshot());
    for metric in [
        "wnsk_serve_accepted",
        "wnsk_serve_cache_hits",
        "wnsk_serve_cache_misses",
        "wnsk_serve_request_ns",
        "wnsk_serve_queue_depth",
    ] {
        assert!(text.contains(metric), "export missing {metric}");
    }

    handle.shutdown();
}

#[test]
fn queue_overflow_sheds_instead_of_hanging() {
    let config = ServerConfig {
        threads: 1,
        queue_depth: 1,
        worker_delay: std::time::Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let handle = Server::start(warm_engine(), config).unwrap();
    let keywords = query_keywords(&handle.serve_engine().engine());
    let kw: Vec<&str> = keywords.iter().map(String::as_str).collect();
    let line = topk_line(AT, &kw, K, ALPHA);

    let responses: Vec<JsonValue> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let line = line.clone();
                let addr = handle.addr();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.call_json(&line).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let shed: Vec<&JsonValue> = responses
        .iter()
        .filter(|r| r.get("shed") == Some(&JsonValue::Bool(true)))
        .collect();
    assert!(
        !shed.is_empty(),
        "three concurrent requests against a depth-1 queue must shed at least one"
    );
    for s in &shed {
        assert_eq!(s.get("error").and_then(|v| v.as_str()), Some("queue full"));
        assert_eq!(
            s.get("quality").and_then(|v| v.as_str()),
            Some("degraded (queue full)")
        );
    }
    assert!(
        responses
            .iter()
            .any(|r| r.get("ok") == Some(&JsonValue::Bool(true))),
        "at least one request is served"
    );
    handle.shutdown();
}

#[test]
fn expired_deadline_sheds_with_degraded_quality() {
    let handle = Server::start(warm_engine(), ServerConfig::default()).unwrap();
    let keywords = query_keywords(&handle.serve_engine().engine());
    let kw: Vec<&str> = keywords.iter().map(String::as_str).collect();
    let mut client = Client::connect(handle.addr()).unwrap();

    let line = whynot_line(AT, &kw, K, ALPHA, &[250], LAMBDA, Some(0.0));
    let doc = client.call_json(&line).unwrap();
    assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(false)));
    assert_eq!(doc.get("shed"), Some(&JsonValue::Bool(true)));
    assert_eq!(
        doc.get("quality").and_then(|v| v.as_str()),
        Some("degraded (deadline exceeded)")
    );
    handle.shutdown();
}

#[test]
fn page_read_cap_degrades_mid_query_instead_of_failing() {
    let reference = warm_engine();
    let keywords = query_keywords(&reference);
    let ids = term_ids(&reference, &keywords);
    let deep_query = SpatialKeywordQuery::new(
        Point::new(AT.0, AT.1),
        KeywordSet::from_ids(ids.iter().copied()),
        20,
        ALPHA,
    );
    let missing = reference.top_k(&deep_query).unwrap()[6].0;

    let handle = Server::start(warm_engine(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let kw_json: Vec<JsonValue> = keywords.iter().map(|s| s.as_str().into()).collect();
    let line = JsonValue::object(vec![
        ("type", "whynot".into()),
        ("at", JsonValue::Array(vec![AT.0.into(), AT.1.into()])),
        ("keywords", JsonValue::Array(kw_json)),
        ("k", K.into()),
        ("alpha", ALPHA.into()),
        (
            "missing",
            JsonValue::Array(vec![JsonValue::from(missing.0 as u64)]),
        ),
        ("lambda", LAMBDA.into()),
        ("max_page_reads", JsonValue::from(0u64)),
    ])
    .render();

    let doc = client.call_json(&line).unwrap();
    assert_eq!(
        doc.get("ok"),
        Some(&JsonValue::Bool(true)),
        "budget expiry degrades, it does not fail: {doc:?}"
    );
    assert_eq!(
        doc.get("quality").and_then(|v| v.as_str()),
        Some("degraded (page-read limit reached)")
    );
    handle.shutdown();
}

#[test]
fn malformed_and_unresolvable_requests_answer_without_queueing() {
    let handle = Server::start(warm_engine(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    for (line, needle) in [
        ("{oops", "bad JSON"),
        (r#"{"type":"warp"}"#, "unknown request type"),
        (
            r#"{"type":"topk","at":[0.5,0.5],"keywords":["no-such-word"],"k":3}"#,
            "unknown keyword",
        ),
        (
            r#"{"type":"whynot","at":[0.5,0.5],"keywords":[0],"k":3,"missing":[999999]}"#,
            "unknown object id",
        ),
    ] {
        let doc = client.call_json(line).unwrap();
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(false)), "line {line}");
        let err = doc.get("error").and_then(|v| v.as_str()).unwrap();
        assert!(err.contains(needle), "line {line}: got '{err}'");
    }

    // Bad requests never reach admission: nothing accepted yet.
    let stats = client.call_json(&stats_line()).unwrap();
    assert_eq!(
        f64_field(&stats, &["counters", names::SERVE_ACCEPTED]) as u64,
        1,
        "only the stats request itself is admitted"
    );
    handle.shutdown();
}

#[test]
fn line_framing_is_incremental_and_bounded() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use wnsk_serve::server::MAX_LINE_BYTES;

    let handle = Server::start(warm_engine(), ServerConfig::default()).unwrap();

    // A request dribbled in one byte per write still parses.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    // A server that never answers fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    let line = format!("{}\n", stats_line());
    for byte in line.as_bytes() {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let doc = JsonValue::parse(response.trim()).unwrap();
    assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)), "{response}");

    // One byte over the cap without a newline: one error, then EOF.
    stream.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    let mut lines = rest.lines();
    let doc = JsonValue::parse(lines.next().expect("an error line")).unwrap();
    assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(false)));
    let err = doc.get("error").and_then(|v| v.as_str()).unwrap();
    assert!(err.contains("request line exceeds"), "got '{err}'");
    assert_eq!(lines.next(), None, "the connection closes after the error");
    handle.shutdown();
}
