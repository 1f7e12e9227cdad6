//! The repository benchmark: five seeded workloads driven through the
//! public APIs of `wnsk-core`, `wnsk-serve` and `wnsk-shard`, measured
//! end to end (untraced runs) and layer by layer (traced runs).
//!
//! Every workload checks its answers outside the timed window; a run
//! whose answers disagree reports `correct: false`. `BENCHMARK.md` in
//! this package defines every metric and says why each workload exists.

pub mod bed;
pub mod layers;
pub mod openloop;
pub mod probe;
pub mod serve;
pub mod solve;
pub mod spans;
pub mod stats;

use std::path::PathBuf;
use std::time::Duration;

/// The five workloads, in the order `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// KcRBased on a pool that holds the whole index: pure compute.
    SolveWarm,
    /// The same questions with the pool cleared before each one and
    /// 100 µs per physical read: the paper's regime.
    SolveCold,
    /// `wnsk serve` end to end on an index larger than the pool.
    ServeRead,
    /// `serve-read` plus durable writes through a file-backed WAL.
    ServeChurn,
    /// `serve-read`'s traffic against a 2-shard coordinator.
    ServeSharded,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SolveWarm,
        Workload::SolveCold,
        Workload::ServeRead,
        Workload::ServeChurn,
        Workload::ServeSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveWarm => "solve-warm",
            Workload::SolveCold => "solve-cold",
            Workload::ServeRead => "serve-read",
            Workload::ServeChurn => "serve-churn",
            Workload::ServeSharded => "serve-sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
    ("whynot_p50_ms", "ms"),
    ("whynot_p90_ms", "ms"),
    ("topk_p50_ms", "ms"),
    ("topk_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// The reported tail percentile. In the pinned window every workload
/// leaves at least ten samples beyond it: solve-cold, the slowest,
/// completes ~140 sessions, and the serve-* schedules fix their counts
/// (at least 112 why-nots, on serve-read, and 169 top-k queries).
pub const TAIL: f64 = 0.90;

/// The measured window, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 15.0;

/// The per-layer metrics every traced run reports, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("storage.physical_reads", "count"),
    ("storage.hit_frac", "ratio"),
    ("storage.read_share", "ratio"),
    ("storage.miss_ns", "ns"),
    ("storage.hit_ns", "ns"),
    ("storage.wal_syncs", "count"),
    ("storage.wal_bytes", "bytes"),
    ("index.node_visits", "count"),
    ("index.nodes_pruned", "count"),
    ("index.prune_maxdom", "count"),
    ("index.prune_mindom", "count"),
    ("index.topk_ns", "ns"),
    ("index.count_dom_ns", "ns"),
    ("index.bound_ns", "ns"),
    ("index.build_s", "s"),
    ("data.generate_s", "s"),
    ("text.sim_bitset_ns", "ns"),
    ("text.sim_scalar_ns", "ns"),
    ("text.and_count_ns", "ns"),
    ("exec.run_ns", "ns"),
    ("exec.task_mean_ns", "ns"),
    ("exec.task_max_ns", "ns"),
    ("exec.tasks_stolen", "count"),
    ("exec.bound_refreshes", "count"),
    ("exec.prune_hits", "count"),
    ("core.initial_rank_ns", "ns"),
    ("core.enumeration_ns", "ns"),
    ("core.verification_ns", "ns"),
    ("core.other_ns", "ns"),
    ("core.candidates", "count"),
    ("core.prunes_per_candidate", "ratio"),
    ("core.advbs_ns", "ns"),
    ("core.ingest_ns", "ns"),
    ("core.apply_ns", "ns"),
    ("serve.parse_ns", "ns"),
    ("serve.resolve_ns", "ns"),
    ("serve.exec_hit_ns", "ns"),
    ("serve.exec_miss_ns", "ns"),
    ("serve.queue_share", "ratio"),
    ("serve.wire_share", "ratio"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.cache_invalidated", "count"),
    ("serve.queue_depth_p99", "count"),
    ("shard.topk_ns", "ns"),
    ("shard.whynot_ns", "ns"),
    ("shard.merge_ns", "ns"),
    ("shard.scatter", "count"),
    ("shard.bound_tightenings", "count"),
    ("shard.plan_s", "s"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Input sizes. [`Sizes::pinned`] is the benchmark; [`Sizes::tiny`]
/// exists so the self-tests can run every workload in about a second.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// `euro_like` scale of the solve-* dataset (0.005: 810 objects,
    /// each index ≈3.4 MiB, inside the 4 MiB pool).
    pub solve_scale: f64,
    /// `euro_like` scale of the serve-* dataset (0.01: 1,620 objects,
    /// each index ≈6.6 MiB, larger than the pool).
    pub serve_scale: f64,
    /// Why-not questions drawn per solve-* run.
    pub questions: usize,
    /// Questions solved by solve-warm's untimed warm-up pass.
    pub warmup: usize,
    /// Questions re-solved by the AdvancedBS t=1 oracle.
    pub oracle: usize,
    /// Top-k lines in the serve-* request pool: six times the answer
    /// cache's 256 entries, so about a fifth of top-k requests hit it
    /// and both reported top-k percentiles sit on the miss path.
    pub topk_lines: usize,
    /// Why-not lines in the serve-* request pool.
    pub whynot_lines: usize,
    /// Untimed warm-up requests sent before the serve-* phases.
    pub serve_warmup: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Samples a tail percentile needs beyond it, or the run fails.
    pub tail_beyond: usize,
    /// Largest open-loop send lag (p99, ms) a valid run may show; a
    /// later send charges the generator's delay to the server.
    pub max_send_lag_ms: f64,
    /// Why-not questions each layer probe solves.
    pub probe_questions: usize,
    /// Repetitions of each layer micro-probe.
    pub probe_reps: usize,
}

impl Sizes {
    pub fn pinned() -> Sizes {
        Sizes {
            solve_scale: 0.005,
            serve_scale: 0.01,
            questions: 2000,
            warmup: 256,
            oracle: 32,
            topk_lines: 1536,
            whynot_lines: 256,
            serve_warmup: 16,
            setups: 5,
            tail_beyond: 10,
            max_send_lag_ms: 2.0,
            probe_questions: 8,
            probe_reps: 2000,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            solve_scale: 0.002,
            serve_scale: 0.002,
            questions: 64,
            warmup: 8,
            oracle: 8,
            topk_lines: 48,
            whynot_lines: 16,
            serve_warmup: 4,
            setups: 2,
            tail_beyond: 0,
            max_send_lag_ms: f64::INFINITY,
            probe_questions: 4,
            probe_reps: 50,
        }
    }
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer run instead of the end-to-end run.
    pub traced: bool,
    pub sizes: Sizes,
    /// Scratch directory for WAL files; created and removed by the run.
    pub work_dir: PathBuf,
    /// Flips one bit of one expected answer before the final check, so
    /// the self-tests can prove the check catches a wrong answer.
    #[doc(hidden)]
    pub sabotage: bool,
}

impl Config {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub traced: bool,
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Of those: errors, shed requests and degraded answers.
    pub failed: u64,
    /// Correctness-check failures; empty means every answer checked.
    pub failures: Vec<String>,
    /// Exactly [`END_TO_END`] (untraced) or [`PER_LAYER`] (traced).
    pub metrics: Vec<Metric>,
    /// Reported beside the metrics: numbers that exist only on some
    /// workloads (ingest latency), sample counts, generator lag.
    pub extra: Vec<Metric>,
    /// The benchmark's own spans (traced runs only).
    pub spans: Option<spans::Spans>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("{}: {e}", cfg.work_dir.display()))?;
    let result = match cfg.workload {
        Workload::SolveWarm | Workload::SolveCold => solve::run(cfg),
        _ => serve::run(cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    result
}

/// The end-to-end metrics, in [`END_TO_END`] order, from the run's
/// set-up times, latency samples (ms) and closed-loop throughput.
fn end_to_end(
    cfg: &Config,
    setup_s: &[f64],
    whynot_ms: &[f64],
    topk_ms: &[f64],
    ops_per_s: f64,
) -> Result<Vec<Metric>, String> {
    let tail = |samples: &[f64], what: &str| {
        stats::tail(
            samples,
            TAIL,
            cfg.sizes.tail_beyond,
            &format!("{} {what}", cfg.workload.name()),
        )
    };
    let values = [
        stats::median(setup_s),
        peak_rss_mb()?,
        stats::median(whynot_ms),
        tail(whynot_ms, "whynot")?,
        stats::median(topk_ms),
        tail(topk_ms, "topk")?,
        ops_per_s,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect())
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
