//! `ledger`: runs one benchmark workload and reports it.
//!
//! ```text
//! ledger --workload <name> --seed <n> [--seconds S] [--trace 0|1 | --traced] [--out FILE]
//! ```
//!
//! Prints one `workload metric value unit` line per metric, writes the
//! full report as JSON to `--out` (default `.ledger/<workload>-<seed>.json`
//! under the working directory; a traced run also writes
//! `<out>.spans.json`), and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Without
//! `--workload` it runs every workload, each in a child process of its
//! own so `rss_mb` is per workload. Exits non-zero when the answers do
//! not check out or the run cannot produce its metrics.

use std::path::PathBuf;
use std::process::ExitCode;
use wnsk_ledger::{run, Config, Metric, Outcome, Sizes, Workload, RUN_SECONDS};
use wnsk_obs::JsonValue;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        out: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--traced" => args.traced = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn metrics_json(list: &[Metric]) -> JsonValue {
    JsonValue::Object(
        list.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    JsonValue::object(vec![("value", m.value.into()), ("unit", m.unit.into())]),
                )
            })
            .collect(),
    )
}

/// The result line's fields: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_fields(outcome: &Outcome) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("correct", JsonValue::Bool(outcome.correct())),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", metrics_json(&outcome.metrics)),
    ]
}

/// The `--out` report: the result plus the extras and check failures.
fn report_json(outcome: &Outcome) -> JsonValue {
    let mut fields = result_fields(outcome);
    fields.extend([
        ("workload", outcome.workload.name().into()),
        ("traced", JsonValue::Bool(outcome.traced)),
        ("extra", metrics_json(&outcome.extra)),
        (
            "failures",
            JsonValue::Array(outcome.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
    ]);
    JsonValue::object(fields)
}

fn write(path: &PathBuf, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(args: &Args, workload: Workload) -> Result<bool, String> {
    let tag = format!(
        "{}-{}{}",
        workload.name(),
        args.seed,
        if args.traced { "-traced" } else { "" }
    );
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        sizes: Sizes::pinned(),
        work_dir: PathBuf::from(".ledger").join(format!("work-{}", std::process::id())),
        sabotage: false,
    };
    let outcome = run(&cfg)?;
    for m in outcome.metrics.iter().chain(&outcome.extra) {
        println!("{} {} {} {}", workload.name(), m.name, m.value, m.unit);
    }
    for f in &outcome.failures {
        eprintln!("{}: check failed: {f}", workload.name());
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(".ledger").join(format!("{tag}.json")));
    write(&out, &report_json(&outcome).render())?;
    if let Some(spans) = &outcome.spans {
        let mut path = out.into_os_string();
        path.push(".spans.json");
        write(&PathBuf::from(path), &spans.to_json().render())?;
    }
    println!("{}", JsonValue::object(result_fields(&outcome)).render());
    Ok(outcome.correct())
}

/// Runs every workload in a child process of its own; each writes its
/// report to its default path.
fn run_all(raw: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut args = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            it.next();
        } else {
            args.push(a);
        }
    }
    let mut all_correct = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(&args)
            .args(["--workload", w.name()])
            .status()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&raw).and_then(|args| match args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&raw),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
