//! `xp` — the experiment driver.
//!
//! ```text
//! xp <experiment> [--scale S] [--queries N] [--threads T] [--out DIR]
//! xp bench [--output FILE] [--scale S] [--queries N] [--threads T]
//!          [--trace-sample N] [--metrics-export PATH|-]
//! xp compare <baseline.json> <pr.json> [--tolerance T]
//! ```
//!
//! `<experiment>` is one of `tab1 tab2 fig4 … fig13 all`. Results print
//! as aligned tables; `--out DIR` additionally writes one CSV per table,
//! plus a `<slug>.metrics.json` with the full per-point query reports
//! (phase timings, node visits, prune events, buffer-pool I/O).
//!
//! `bench` runs the pinned CI sweep and writes a `BENCH_*.json`;
//! `compare` diffs two such files and exits non-zero on regression —
//! together they form the CI benchmark gate (see `.github/workflows`).

use wnsk_bench::{experiments, gate, XpConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        usage_and_exit(None);
    };
    match name.as_str() {
        "bench" => bench_cmd(rest),
        "compare" => compare_cmd(rest),
        _ => experiment_cmd(name, rest),
    }
}

fn experiment_cmd(name: &str, rest: &[String]) -> ! {
    let cfg = match XpConfig::from_args(rest) {
        Ok(cfg) => cfg,
        Err(e) => usage_and_exit(Some(&e)),
    };
    eprintln!(
        "running {name} (scale {}, {} queries per point)…",
        cfg.scale, cfg.queries
    );
    let started = std::time::Instant::now();
    let Some(tables) = experiments::run(name, &cfg) else {
        usage_and_exit(Some(&format!("unknown experiment '{name}'")));
    };
    for table in &tables {
        print!("{}", table.render());
        if let Some(dir) = &cfg.out_dir {
            std::fs::create_dir_all(dir).expect("cannot create --out directory");
            let path = dir.join(format!("{}.csv", table.slug()));
            std::fs::write(&path, table.to_csv()).expect("cannot write CSV");
            eprintln!("wrote {}", path.display());
            if let Some(json) = table.metrics_json() {
                let path = dir.join(format!("{}.metrics.json", table.slug()));
                std::fs::write(&path, json).expect("cannot write metrics JSON");
                eprintln!("wrote {}", path.display());
            }
        }
    }
    eprintln!("done in {:.1}s", started.elapsed().as_secs_f64());
    std::process::exit(0);
}

/// `xp bench`: the pinned sweep behind the CI regression gate.
fn bench_cmd(args: &[String]) -> ! {
    let mut output = std::path::PathBuf::from("BENCH_pr.json");
    let mut metrics_export: Option<String> = None;
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--output" {
            let Some(value) = args.get(i + 1) else {
                usage_and_exit(Some("--output needs a value"));
            };
            output = value.into();
            i += 2;
        } else if args[i] == "--metrics-export" {
            let Some(value) = args.get(i + 1) else {
                usage_and_exit(Some("--metrics-export needs a value (a path, or '-')"));
            };
            metrics_export = Some(value.clone());
            i += 2;
        } else {
            flags.push(args[i].clone());
            i += 1;
        }
    }
    let mut cfg = gate::pinned_config();
    if let Err(e) = cfg.apply_args(&flags) {
        usage_and_exit(Some(&e));
    }
    eprintln!(
        "benchmarking (scale {}, {} queries, ≤{} threads, {} µs/read)…",
        cfg.scale, cfg.queries, cfg.max_threads, cfg.io_latency_us
    );
    let started = std::time::Instant::now();
    let outcome = gate::run_bench_full(&cfg);
    let rows = &outcome.rows;
    for row in rows {
        let io = row
            .work
            .iter()
            .find(|(k, _)| *k == "io")
            .map_or(0.0, |(_, v)| *v);
        eprintln!(
            "  {:<24} {:>8.1} ms {:>8.0} io  penalty {:.6}",
            row.id, row.time_ms, io, row.penalty
        );
    }
    std::fs::write(&output, gate::to_json(&cfg, rows).render()).expect("cannot write bench JSON");
    if let Some(target) = metrics_export {
        let text = wnsk_obs::prometheus_text(&outcome.metrics);
        if target == "-" {
            print!("{text}");
        } else if let Err(e) = std::fs::write(&target, &text) {
            eprintln!("error: cannot export metrics to {target}: {e}");
            std::process::exit(1);
        } else {
            eprintln!("exported metrics to {target}");
        }
    }
    eprintln!(
        "wrote {} ({} rows) in {:.1}s",
        output.display(),
        rows.len(),
        started.elapsed().as_secs_f64()
    );
    std::process::exit(0);
}

/// `xp compare`: diff two bench files; exit 1 on regression.
fn compare_cmd(args: &[String]) -> ! {
    let mut files = Vec::new();
    let mut tolerance = 0.20;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--tolerance" {
            let Some(value) = args.get(i + 1) else {
                usage_and_exit(Some("--tolerance needs a value"));
            };
            tolerance = match value.parse() {
                Ok(t) if (0.0..10.0).contains(&t) => t,
                _ => usage_and_exit(Some("--tolerance must be a fraction like 0.20")),
            };
            i += 2;
        } else {
            files.push(args[i].clone());
            i += 1;
        }
    }
    let [base_path, pr_path] = files.as_slice() else {
        usage_and_exit(Some(
            "compare needs exactly two files: <baseline.json> <pr.json>",
        ));
    };
    let load = |path: &str| -> gate::BenchDoc {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage_and_exit(Some(&format!("cannot read {path}: {e}"))));
        gate::parse_doc(&text)
            .unwrap_or_else(|e| usage_and_exit(Some(&format!("cannot parse {path}: {e}"))))
    };
    let baseline = load(base_path);
    let pr = load(pr_path);
    let c = gate::compare(&baseline, &pr, tolerance);
    for note in &c.notes {
        println!("note: {note}");
    }
    for failure in &c.failures {
        println!("FAIL: {failure}");
    }
    if c.failures.is_empty() {
        println!(
            "OK: {} rows match {} (serial work exactly, parallel work within {:.0} %)",
            baseline.rows.len(),
            base_path,
            (tolerance + gate::PARALLEL_EXTRA_SLACK) * 100.0
        );
        std::process::exit(0);
    }
    println!(
        "{} failure(s) against {} (parallel tolerance {:.0} %)",
        c.failures.len(),
        base_path,
        tolerance * 100.0
    );
    std::process::exit(1);
}

fn usage_and_exit(err: Option<&str>) -> ! {
    if let Some(e) = err {
        eprintln!("error: {e}\n");
    }
    eprintln!("usage: xp <experiment> [--scale S] [--queries N] [--threads T] [--out DIR]");
    eprintln!(
        "       xp bench [--output FILE] [--scale S] [--queries N] [--threads T]
                [--trace-sample N] [--metrics-export PATH|-]"
    );
    eprintln!("       xp compare <baseline.json> <pr.json> [--tolerance T]");
    eprintln!("experiments: {}", experiments::EXPERIMENTS.join(" "));
    std::process::exit(if err.is_some() { 2 } else { 0 });
}
