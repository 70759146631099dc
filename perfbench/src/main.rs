//! The repository's benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           --serve-bin PATH --out-dir DIR [--commit ID]
//! ```
//!
//! One run generates the workload's requests from the seed, sets the system
//! up, measures it for `--seconds`, checks every answer and prints, as the
//! last line of stdout, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`) that
//! `BENCHMARK.json` names.  The line before it carries the run's provenance
//! and the figures that are reported but not gated.  `perfbench/run.py`
//! builds the program and this binary and runs it; see
//! `perfbench/README.md` for the workloads and metrics.

mod gauge;
mod gen;
mod net;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::exit;

use stencil_serve::json::Value;

use util::{checked_count, loadavg_1m, Fail};
use workloads::{Ctx, Outcome};

const USAGE: &str = "usage: perfbench --workload cold_map|hot_hits \
--seed N --seconds S --trace 0|1 --serve-bin PATH --out-dir DIR [--commit ID]";

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    exit(2)
}

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<T: std::str::FromStr>(args: &[String], flag: &str) -> T {
    let Some(raw) = arg(args, flag) else {
        usage(&format!("{flag} is required"))
    };
    raw.parse()
        .unwrap_or_else(|_| usage(&format!("{flag}: cannot parse {raw:?}")))
}

/// The metric names and units `BENCHMARK.json` declares for one section.
fn declared(spec: &Value, section: &str) -> Result<Vec<(String, String)>, String> {
    spec.get(section)
        .and_then(Value::as_arr)
        .ok_or(format!("BENCHMARK.json has no {section} list"))?
        .iter()
        .map(|m| {
            match (
                m.get("name").and_then(Value::as_str),
                m.get("unit").and_then(Value::as_str),
            ) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("malformed {section} entry in BENCHMARK.json")),
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload: String = required(&args, "--workload");
    let seed: u64 = required(&args, "--seed");
    let seconds: f64 = required(&args, "--seconds");
    let trace = match required::<u8>(&args, "--trace") {
        0 => false,
        1 => true,
        _ => usage("--trace takes 0 or 1"),
    };
    let serve_bin: PathBuf = required(&args, "--serve-bin");
    let out_dir: PathBuf = required(&args, "--out-dir");
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }

    // the metric names and units live in BENCHMARK.json only; a metric the
    // file names that a run does not produce (or the reverse) is an error
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))
        .and_then(|text| Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}")))
        .and_then(|v| declared(&v, if trace { "per_layer" } else { "end_to_end" }))
        .unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            exit(2)
        });

    let tmp = out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        exit(2);
    }
    let load_before = loadavg_1m();
    let ctx = Ctx {
        seed,
        seconds,
        serve_bin,
        tmp: tmp.clone(),
    };
    let result = match (workload.as_str(), trace) {
        ("cold_map", false) => workloads::cold_map(&ctx),
        ("cold_map", true) => workloads::cold_map_traced(&ctx),
        ("hot_hits", false) => workloads::hot_hits(&ctx),
        ("hot_hits", true) => workloads::hot_hits_traced(&ctx),
        (other, _) => usage(&format!("unknown workload {other:?}")),
    };
    let load_after = loadavg_1m();
    let _ = std::fs::remove_dir_all(&tmp);

    let outcome = match result {
        Ok(outcome) => outcome,
        Err(Fail::Wrong(msg)) => {
            eprintln!("perfbench: wrong answer: {msg}");
            // the run stops at the first wrong answer: one failure out of
            // every answer checked up to and including it
            println!(
                "{{\"correct\":false,\"attempted\":{},\"failed\":1,\"metrics\":{{}}}}",
                checked_count().max(1)
            );
            exit(1);
        }
        Err(Fail::Setup(msg)) => {
            eprintln!("perfbench: {msg}");
            exit(1);
        }
    };

    let provenance = Value::obj(vec![
        ("workload", Value::str(workload.as_str())),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("trace", Value::Bool(trace)),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "rayon_threads",
            Value::Num(rayon::current_num_threads() as f64),
        ),
        (
            "commit",
            Value::str(arg(&args, "--commit").unwrap_or("unknown")),
        ),
        (
            "profile",
            Value::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("loadavg_1m_before", Value::Num(load_before)),
        ("loadavg_1m_after", Value::Num(load_after)),
    ]);
    if let Err(e) = print_result(&workload, &out_dir, &spec, outcome, provenance) {
        eprintln!("perfbench: {e}");
        exit(1);
    }
}

fn print_result(
    workload: &str,
    out_dir: &std::path::Path,
    spec: &[(String, String)],
    outcome: Outcome,
    provenance: Value,
) -> Result<(), String> {
    let Outcome {
        attempted,
        metrics,
        report,
        tracers,
    } = outcome;
    if attempted == 0 {
        return Err("the workload attempted no requests".to_string());
    }
    let mut fields = Vec::new();
    for (name, unit) in spec {
        let value = metrics
            .get(name)
            .ok_or(format!("{workload} did not produce the metric {name}"))?;
        fields.push((
            name.as_str(),
            Value::obj(vec![
                ("value", Value::Num(*value)),
                ("unit", Value::str(unit.as_str())),
            ]),
        ));
    }
    if let Some(extra) = metrics.keys().find(|k| !spec.iter().any(|(n, _)| n == *k)) {
        return Err(format!(
            "{workload} produced {extra}, which BENCHMARK.json does not declare"
        ));
    }
    for (section, tracer) in tracers {
        let name = if section.is_empty() {
            format!("spans-{workload}.jsonl")
        } else {
            format!("spans-{workload}.{section}.jsonl")
        };
        let path = out_dir.join(name);
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans.len(),
            path.display()
        );
    }
    // the run stops at the first wrong answer, so a result line that gets
    // this far has none
    let mut report = report;
    report.push((
        "error_rate".to_string(),
        Value::obj(vec![
            ("value", Value::Num(0.0)),
            ("unit", Value::str("ratio")),
        ]),
    ));
    let report = Value::Obj(report);
    println!(
        "{}",
        Value::obj(vec![("provenance", provenance), ("report", report)]).compact()
    );
    println!(
        "{}",
        Value::obj(vec![
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(attempted as f64)),
            ("failed", Value::Num(0.0)),
            ("metrics", Value::obj(fields)),
        ])
        .compact()
    );
    Ok(())
}
