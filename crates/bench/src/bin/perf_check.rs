//! CI perf-regression gate: compares freshly measured perf documents against
//! the committed baselines and fails when any gated metric regresses beyond
//! the allowed budget or breaks an absolute ceiling or floor.  The gated
//! entries are defined once in [`stencil_bench::perfcheck`]
//! (`GATED_PARTITIONER_METRICS`, `GATED_SERVE_METRICS` and the
//! `*_ABSOLUTE_*` lists).
//!
//! ```text
//! cargo run --release -p stencil-bench --bin perf_check -- \
//!     --baseline BENCH_mapping.json --current BENCH_mapping.current.json \
//!     [--serve-baseline BENCH_serve.json --serve-current BENCH_serve.current.json] \
//!     [--max-regression 0.25] [--serve-max-regression 0.4]
//! ```
//!
//! When `$GITHUB_STEP_SUMMARY` is set, a markdown table of every gated entry
//! (baseline vs current) is appended to it.

use stencil_bench::arg_value;
use stencil_bench::perfcheck::{check_mapping, check_serve, summary_markdown, CheckOutcome};

/// Shape of the per-document comparison functions in
/// [`stencil_bench::perfcheck`].
type CheckFn = dyn Fn(&str, &str, f64) -> Result<Vec<CheckOutcome>, String>;

fn read_or_die(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perf_check: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage = || -> ! {
        eprintln!(
            "usage: perf_check --baseline <json> --current <json> \
             [--serve-baseline <json> --serve-current <json>] \
             [--max-regression 0.25] [--serve-max-regression 0.4]"
        );
        std::process::exit(2);
    };
    let baseline_path = arg_value(&args, "--baseline").unwrap_or_else(|| usage());
    let current_path = arg_value(&args, "--current").unwrap_or_else(|| usage());
    let max_regression: f64 = arg_value(&args, "--max-regression")
        .map(|v| v.parse().expect("--max-regression must be a number"))
        .unwrap_or(0.25);
    // Throughput measurements on shared CI runners are noisier than the
    // best-of-N partitioner timings, so the serve gate gets a wider default.
    let serve_max_regression: f64 = arg_value(&args, "--serve-max-regression")
        .map(|v| v.parse().expect("--serve-max-regression must be a number"))
        .unwrap_or(0.4);
    let serve_baseline_path = arg_value(&args, "--serve-baseline");
    let serve_current_path = arg_value(&args, "--serve-current");
    if serve_baseline_path.is_some() != serve_current_path.is_some() {
        usage();
    }

    let mut all: Vec<CheckOutcome> = Vec::new();
    let run = |label: &str,
               baseline_path: &str,
               current_path: &str,
               budget: f64,
               check: &CheckFn|
     -> Vec<CheckOutcome> {
        let baseline = read_or_die(baseline_path);
        let current = read_or_die(current_path);
        match check(&baseline, &current, budget) {
            Ok(outcomes) => {
                eprintln!(
                    "perf_check[{label}]: {current_path} vs {baseline_path} (budget {:.0}%)",
                    budget * 100.0
                );
                for o in &outcomes {
                    eprintln!("  {}", o.render());
                }
                outcomes
            }
            Err(msg) => {
                eprintln!("perf_check[{label}]: {msg}");
                std::process::exit(2);
            }
        }
    };

    all.extend(run(
        "mapping",
        &baseline_path,
        &current_path,
        max_regression,
        &check_mapping,
    ));
    if let (Some(sb), Some(sc)) = (&serve_baseline_path, &serve_current_path) {
        all.extend(run("serve", sb, sc, serve_max_regression, &check_serve));
    }

    // one summary table over *all* gated entries, for $GITHUB_STEP_SUMMARY
    if let Ok(summary_path) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        let table = format!("## Perf gate\n\n{}\n", summary_markdown(&all));
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&summary_path)
        {
            Ok(mut f) => {
                if let Err(e) = f.write_all(table.as_bytes()) {
                    eprintln!("perf_check: cannot append to {summary_path}: {e}");
                }
            }
            Err(e) => eprintln!("perf_check: cannot open {summary_path}: {e}"),
        }
    }

    if all.iter().any(|o| !o.ok) {
        eprintln!("perf_check: FAILED — gated metrics regressed beyond the budget");
        std::process::exit(1);
    }
    eprintln!("perf_check: ok ({} gated metrics)", all.len());
}
