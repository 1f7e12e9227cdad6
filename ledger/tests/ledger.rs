//! Self-tests of the benchmark at tiny scale: every workload runs for
//! about a second, untraced and traced.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use wnsk_core::{answer_kcr, KcrOptions};
use wnsk_data::workload::WorkloadSpec;
use wnsk_data::DatasetSpec;
use wnsk_ledger::bed::Bed;
use wnsk_ledger::layers::{Layers, Traffic};
use wnsk_ledger::{run, Config, Outcome, Sizes, Workload, END_TO_END, PER_LAYER, RUN_SECONDS};
use wnsk_obs::{JsonValue, Tracer};

fn config(workload: Workload, traced: bool, tag: &str) -> Config {
    Config {
        workload,
        seed: 3,
        seconds: 1.0,
        traced,
        sizes: Sizes::tiny(),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("ledger-{tag}-{}", workload.name())),
        sabotage: false,
    }
}

fn run_ok(cfg: &Config) -> Outcome {
    run(cfg).unwrap_or_else(|e| panic!("{} failed: {e}", cfg.workload.name()))
}

fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_else(|| panic!("{key} entry without {f}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_what_the_runs_report() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
        .expect("BENCHMARK.json parses");
    assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    assert_eq!(
        doc.get("run_seconds").and_then(JsonValue::as_f64),
        Some(RUN_SECONDS)
    );
}

#[test]
fn every_workload_reports_every_metric_and_checks_out() {
    for w in Workload::ALL {
        let plain = run_ok(&config(w, false, "plain"));
        assert!(plain.correct(), "{}: {:?}", w.name(), plain.failures);
        assert_eq!(plain.failed, 0, "{}: fail_frac must be 0", w.name());
        assert!(plain.attempted > 0);
        for m in &plain.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }

        let traced = run_ok(&config(w, true, "traced"));
        assert!(traced.correct(), "{}: {:?}", w.name(), traced.failures);
        assert_eq!(traced.failed, 0);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, expected);
        let spans = traced.spans.expect("traced runs keep spans");
        assert!(!spans.is_empty());
        let doc = spans.to_json();
        assert!(doc.get("spans").and_then(JsonValue::as_array).is_some());
    }
}

#[test]
fn a_corrupted_expected_answer_fails_the_check() {
    for w in Workload::ALL {
        let cfg = Config {
            sabotage: true,
            ..config(w, false, "sabotage")
        };
        let outcome = run_ok(&cfg);
        assert!(
            !outcome.correct(),
            "{}: a corrupted expectation went unnoticed",
            w.name()
        );
    }
}

#[test]
fn a_late_load_generator_invalidates_the_run() {
    let mut cfg = config(Workload::ServeRead, false, "late");
    // Every send counts as late, so every attempt is invalid.
    cfg.sizes.max_send_lag_ms = -1.0;
    let err = run(&cfg).expect_err("a run whose generator sent late must not report");
    assert!(err.contains("sent late"), "{err}");
}

/// At one solver thread the layers partition a question's wall time:
/// the initial-rank and verification phases fit inside the call,
/// enumeration inside verification, and the pool's read time inside
/// the phases.
#[test]
fn layer_accounting_holds_at_one_thread() {
    let bed = Bed::build(
        &DatasetSpec::euro_like(0.002),
        16,
        Duration::from_micros(20),
        &Tracer::off(),
    )
    .expect("the bed builds");
    let questions = bed.questions(&WorkloadSpec::paper_default(5), 8, 0.5);
    assert!(!questions.is_empty());
    for q in &questions {
        bed.clear_caches();
        let before = bed.registry.snapshot();
        let t = Instant::now();
        let answer = answer_kcr(&bed.data.dataset, &bed.kcr, q, KcrOptions::default())
            .expect("question answers");
        let wall = t.elapsed().as_nanos() as f64;
        answer.stats.record_into(&bed.registry);
        let traffic = Traffic {
            ops: 1,
            op_ns: wall,
            whynots: 1,
            whynot_call_ns: wall,
            deltas: vec![bed.registry.snapshot().since(&before)],
        };
        let mut layers = Layers::default();
        traffic.fill(&mut layers);
        let get = |n: &str| layers.get(n).expect("layer metric set");
        let phases = get("core.initial_rank_ns") + get("core.verification_ns");
        assert!(
            phases <= wall,
            "phases {phases} ns exceed the call {wall} ns"
        );
        assert!(get("core.other_ns") >= 0.0);
        assert!(get("core.enumeration_ns") <= get("core.verification_ns"));
        let read_ns = get("storage.read_share") * wall;
        assert!(read_ns > 0.0, "a cold question reads pages");
        assert!(
            read_ns <= phases,
            "reads {read_ns} ns exceed the phases {phases} ns"
        );
    }
}
