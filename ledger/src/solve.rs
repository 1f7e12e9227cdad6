//! solve-warm and solve-cold: why-not sessions through the library.
//!
//! A session is what a user of the paper's system does: run the top-k
//! query, then ask why the expected object is missing. Each session
//! times `SetRTree::top_k` and `answer_kcr` (KcRBased, t=2) separately.

use crate::bed::{Bed, FANOUT};
use crate::layers::{Layers, Traffic};
use crate::spans::Spans;
use crate::stats::{quantile, ratio};
use crate::{end_to_end, probe, Config, Metric, Outcome, Workload};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use wnsk_core::{answer_advanced, answer_kcr, AdvancedOptions, KcrOptions, WhyNotQuestion};
use wnsk_data::workload::WorkloadSpec;
use wnsk_data::DatasetSpec;
use wnsk_index::ObjectId;
use wnsk_obs::Tracer;

/// The paper's simulated disk: 100 µs per physical page read.
const COLD_READ_LATENCY: Duration = Duration::from_micros(100);

/// KcRBased's worker threads, the machine's core count.
const SOLVER_THREADS: usize = 2;

struct Setup {
    /// One bed per client: solve-cold runs two clients, each clearing
    /// its own pools before every session, so the cold protocol holds
    /// while sleeps on simulated reads overlap.
    beds: Vec<Bed>,
    tracers: Vec<Tracer>,
    questions: Vec<WhyNotQuestion>,
}

fn cold(cfg: &Config) -> bool {
    cfg.workload == Workload::SolveCold
}

fn setup(cfg: &Config, traced: bool) -> Result<(Setup, f64), String> {
    let started = Instant::now();
    let spec = DatasetSpec::euro_like(cfg.sizes.solve_scale);
    let (clients, latency) = if cold(cfg) {
        (2, COLD_READ_LATENCY)
    } else {
        (1, Duration::ZERO)
    };
    // Each tracer comes out of the build disabled; the traced half of
    // the window turns it on.
    let tracers: Vec<Tracer> = (0..clients)
        .map(|_| if traced { Tracer::new() } else { Tracer::off() })
        .collect();
    let beds: Vec<Bed> = tracers
        .iter()
        .map(|t| Bed::build(&spec, FANOUT, latency, t))
        .collect::<Result<_, _>>()?;
    let questions = beds[0].questions(
        &WorkloadSpec::paper_default(cfg.seed),
        cfg.sizes.questions,
        0.5,
    );
    if questions.len() < cfg.sizes.questions {
        return Err(format!(
            "drew {} of {} questions",
            questions.len(),
            cfg.sizes.questions
        ));
    }
    // Warm-up, untimed: solve-warm fills its pool and caches with one
    // pass over the first questions; solve-cold clears before every
    // session anyway, so one session per bed suffices.
    let warmup = if cold(cfg) { 1 } else { cfg.sizes.warmup };
    for bed in &beds {
        for q in questions.iter().take(warmup) {
            session(bed, q, cold(cfg)).map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    Ok((
        Setup {
            beds,
            tracers,
            questions,
        },
        started.elapsed().as_secs_f64(),
    ))
}

struct Session {
    topk_digest: u64,
    penalty_bits: u64,
    exact: bool,
    topk_ns: f64,
    whynot_ns: f64,
    stats: wnsk_core::AlgoStats,
}

/// One session; cold sessions start from empty pools.
fn session(bed: &Bed, q: &WhyNotQuestion, cold: bool) -> Result<Session, String> {
    session_traced(bed, q, cold, None, 0)
}

fn session_traced(
    bed: &Bed,
    q: &WhyNotQuestion,
    cold: bool,
    spans: Option<&Spans>,
    request: u64,
) -> Result<Session, String> {
    if cold {
        bed.clear_caches();
    }
    let root = spans.map(Spans::id);
    let t0 = Instant::now();
    let top = bed.setr.top_k(&q.query).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let answer = answer_kcr(
        &bed.data.dataset,
        &bed.kcr,
        q,
        KcrOptions {
            threads: SOLVER_THREADS,
            ..KcrOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    if let Some(s) = spans {
        s.add(root, "SetRTree::top_k", request, t0, t1);
        s.add(root, "answer_kcr", request, t1, t2);
        s.record(
            root.expect("root reserved"),
            None,
            "session",
            request,
            t0,
            t2,
        );
    }
    Ok(Session {
        topk_digest: digest(&top),
        penalty_bits: answer.refined.penalty.to_bits(),
        exact: answer.quality == wnsk_core::AnswerQuality::Exact,
        topk_ns: (t1 - t0).as_nanos() as f64,
        whynot_ns: (t2 - t1).as_nanos() as f64,
        stats: answer.stats,
    })
}

/// Order-sensitive digest of a ranked list: ids and exact score bits.
pub(crate) fn digest(list: &[(ObjectId, f64)]) -> u64 {
    list.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &(id, s)| {
        let h = (h ^ u64::from(id.0)).wrapping_mul(0x100_0000_01b3);
        (h ^ s.to_bits()).wrapping_mul(0x100_0000_01b3)
    })
}

/// What one client saw in the measured window.
#[derive(Default)]
struct Log {
    topk_ms: Vec<f64>,
    whynot_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// First answer per question index: (top-k digest, penalty bits).
    answers: HashMap<usize, (u64, u64)>,
    mismatches: Vec<String>,
}

/// Client `c`'s closed loop: questions `c`, `c + clients`, … in turn.
fn client_loop(
    setup: &Setup,
    c: usize,
    deadline: Instant,
    cold: bool,
    spans: Option<&Spans>,
) -> Log {
    let (bed, tracer, questions) = (&setup.beds[c], &setup.tracers[c], &setup.questions);
    let mut log = Log::default();
    let mut i = c;
    while Instant::now() < deadline {
        let qi = i % questions.len();
        i += setup.beds.len();
        log.attempted += 2;
        let s = match session_traced(bed, &questions[qi], cold, spans, i as u64) {
            Ok(s) => s,
            Err(e) => {
                log.failed += 2;
                log.mismatches.push(format!("question {qi}: {e}"));
                continue;
            }
        };
        if spans.is_some() {
            s.stats.record_into(&bed.registry);
            let _ = tracer.drain();
        }
        if !s.exact {
            log.failed += 1;
        }
        log.topk_ms.push(s.topk_ns / 1e6);
        log.whynot_ms.push(s.whynot_ns / 1e6);
        let seen = *log
            .answers
            .entry(qi)
            .or_insert((s.topk_digest, s.penalty_bits));
        if seen != (s.topk_digest, s.penalty_bits) {
            log.mismatches.push(format!(
                "question {qi} repeated with a different answer: {seen:x?} then {:x?}",
                (s.topk_digest, s.penalty_bits)
            ));
        }
    }
    log
}

/// The measured window: one closed-loop client per bed.
fn measure(setup: &Setup, cfg: &Config, window: Duration, spans: Option<&Spans>) -> (Log, f64) {
    if spans.is_some() {
        for t in &setup.tracers {
            t.set_enabled(true);
        }
    }
    let started = Instant::now();
    let deadline = started + window;
    let logs: Vec<Log> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..setup.beds.len())
            .map(|c| scope.spawn(move || client_loop(setup, c, deadline, cold(cfg), spans)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    for t in &setup.tracers {
        t.set_enabled(false);
        let _ = t.drain();
    }
    let mut all = Log::default();
    for log in logs {
        all.topk_ms.extend(log.topk_ms);
        all.whynot_ms.extend(log.whynot_ms);
        all.attempted += log.attempted;
        all.failed += log.failed;
        all.answers.extend(log.answers);
        all.mismatches.extend(log.mismatches);
    }
    (all, elapsed)
}

/// Checks outside the timed window: repeated questions give identical
/// answers, the top-k lists match a brute-force ranking, and the
/// penalties match AdvancedBS t=1 bit for bit.
fn verify(setup: &Setup, cfg: &Config, log: &Log) -> Vec<String> {
    let mut failures = log.mismatches.clone();
    let mut answered: Vec<usize> = log.answers.keys().copied().collect();
    answered.sort_unstable();
    if answered.is_empty() {
        failures.push("no question was answered".into());
        return failures;
    }
    let bed = &setup.beds[0];
    let ds = &bed.data.dataset;
    let mut expected: Vec<(usize, (u64, u64))> = answered
        .iter()
        .take(cfg.sizes.oracle)
        .map(|&qi| (qi, log.answers[&qi]))
        .collect();
    if cfg.sabotage {
        expected[0].1 .1 ^= 1;
    }
    for (n, &(qi, (topk, penalty))) in expected.iter().enumerate() {
        let q = &setup.questions[qi];
        let brute = digest(&ds.top_k(&q.query));
        if brute != topk {
            failures.push(format!("question {qi}: top-k differs from brute force"));
        }
        match answer_advanced(ds, &bed.setr, q, AdvancedOptions::default()) {
            Ok(a) if a.refined.penalty.to_bits() == penalty => {}
            Ok(a) => failures.push(format!(
                "question {qi}: KcRBased penalty {} differs from AdvancedBS {}",
                f64::from_bits(penalty),
                a.refined.penalty
            )),
            Err(e) => failures.push(format!("question {qi}: AdvancedBS failed: {e}")),
        }
        // A few questions are solved once more, so even a window too
        // short to repeat a question checks repeatability.
        if n < 4 {
            match session(bed, q, cold(cfg)) {
                Ok(s) if (s.topk_digest, s.penalty_bits) == (topk, penalty) => {}
                Ok(_) => failures.push(format!("question {qi}: re-solved differently")),
                Err(e) => failures.push(format!("question {qi}: re-solve failed: {e}")),
            }
        }
    }
    failures
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
    let mut last = None;
    for _ in 0..cfg.sizes.setups.max(1) {
        drop(last.take());
        let (s, secs) = setup(cfg, false)?;
        setup_s.push(secs);
        last = Some(s);
    }
    let setup = last.expect("at least one set-up");
    let (log, elapsed) = measure(&setup, cfg, cfg.window(), None);
    let failures = verify(&setup, cfg, &log);
    let ops_per_s = (log.attempted - log.failed) as f64 / elapsed;
    Ok(Outcome {
        workload: cfg.workload,
        traced: false,
        attempted: log.attempted,
        failed: log.failed,
        failures,
        metrics: end_to_end(cfg, &setup_s, &log.whynot_ms, &log.topk_ms, ops_per_s)?,
        extra: vec![
            Metric::new(
                "fail_frac",
                ratio(log.failed as f64, log.attempted as f64),
                "ratio",
            ),
            Metric::new("whynot_samples", log.whynot_ms.len() as f64, "count"),
            Metric::new("topk_samples", log.topk_ms.len() as f64, "count"),
            Metric::new("clients", setup.beds.len() as f64, "count"),
        ],
        spans: None,
    })
}

/// Half the window untraced, half traced on fresh beds of the same
/// seed, then the layer probes.
fn run_traced(cfg: &Config) -> Result<Outcome, String> {
    let half = cfg.window() / 2;
    let (plain, _) = setup(cfg, false)?;
    let (plain_log, _) = measure(&plain, cfg, half, None);
    let mut failures = verify(&plain, cfg, &plain_log);
    drop(plain);

    let spans = Spans::new();
    let (traced, _) = setup(cfg, true)?;
    let before: Vec<_> = traced.beds.iter().map(|b| b.registry.snapshot()).collect();
    let (log, _) = measure(&traced, cfg, half, Some(&spans));
    let deltas = traced
        .beds
        .iter()
        .zip(&before)
        .map(|(b, s)| b.registry.snapshot().since(s))
        .collect();
    failures.extend(verify(&traced, cfg, &log));
    let traffic = Traffic {
        ops: (log.topk_ms.len() + log.whynot_ms.len()) as u64,
        op_ns: (log.topk_ms.iter().sum::<f64>() + log.whynot_ms.iter().sum::<f64>()) * 1e6,
        whynots: log.whynot_ms.len() as u64,
        whynot_call_ns: log.whynot_ms.iter().sum::<f64>() * 1e6,
        deltas,
    };
    let mut layers = Layers::default();
    traffic.fill(&mut layers);
    traffic.fill_serve(&mut layers, None);
    let untraced_p50 = quantile(&plain_log.whynot_ms, 0.5);
    layers.set(
        "obs.trace_overhead_frac",
        quantile(&log.whynot_ms, 0.5) / untraced_p50 - 1.0,
    );

    let spec = DatasetSpec::euro_like(cfg.sizes.solve_scale);
    let sample: Vec<WhyNotQuestion> = traced
        .questions
        .iter()
        .take(cfg.sizes.probe_questions.max(64))
        .cloned()
        .collect();
    drop(traced);
    probe::run(
        cfg,
        &spec,
        probe::Inputs::from_questions(&sample),
        &spans,
        &mut layers,
    )?;

    Ok(Outcome {
        workload: cfg.workload,
        traced: true,
        attempted: plain_log.attempted + log.attempted,
        failed: plain_log.failed + log.failed,
        failures,
        metrics: layers.into_metrics()?,
        extra: vec![
            Metric::new("whynot_p50_untraced_ms", untraced_p50, "ms"),
            Metric::new("whynot_p50_traced_ms", quantile(&log.whynot_ms, 0.5), "ms"),
            Metric::new("spans", spans.len() as f64, "count"),
        ],
        spans: Some(spans),
    })
}
