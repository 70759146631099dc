//! Perf-regression gates over the committed `BENCH_*.json` baselines.
//!
//! CI regenerates the perf documents ([`perf_baseline`](../bin/perf_baseline.rs)
//! for the engine, [`loadgen`](../bin/loadgen.rs) for the mapping service)
//! and compares them against the committed baselines: the build fails when a
//! gated metric regresses beyond the allowed fraction.  The gated entries
//! are listed in one place — [`GATED_PARTITIONER_METRICS`] and
//! [`GATED_SERVE_METRICS`] — so adding a gate is a one-line change.  The
//! selection is deliberately narrow: sub-millisecond instantiation timings
//! are too noisy to gate on relatively; the p = 10^6 instantiation timings
//! carry absolute ceilings instead ([`MAPPER_ABSOLUTE_CEILINGS`]).
//!
//! Each document is parsed once with the service's JSON codec
//! ([`stencil_serve::json::Value`]) and every metric is looked up by
//! `section.key` ([`metric`]).  A missing metric is an error, never a
//! silently skipped gate.

use stencil_serve::json::Value;

/// One gated metric: where it lives in the JSON document and which direction
/// is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatedMetric {
    /// Top-level section holding an object.
    pub section: &'static str,
    /// Key within the section.
    pub key: &'static str,
    /// `true` for throughput-style metrics (a *drop* is a regression),
    /// `false` for time-style metrics (a *rise* is a regression).
    pub higher_is_better: bool,
}

/// The partitioner timings gated in `BENCH_mapping.json` (times: lower is
/// better).  Shared by `perf_baseline`'s consumers and `perf_check` so the
/// two can never drift apart.
pub const GATED_PARTITIONER_METRICS: &[GatedMetric] = &[
    GatedMetric {
        section: "partitioner",
        key: "parallel_s",
        higher_is_better: false,
    },
    GatedMetric {
        section: "partitioner",
        key: "sequential_s",
        higher_is_better: false,
    },
    GatedMetric {
        section: "partitioner_large",
        key: "single_core_s",
        higher_is_better: false,
    },
    GatedMetric {
        section: "partitioner_xl",
        key: "single_core_s",
        higher_is_better: false,
    },
];

/// Scale guards for the `BENCH_mapping.json` document: these keys must agree
/// between baseline and current, otherwise the timings are incomparable.
pub const MAPPING_SCALE_GUARDS: &[(&str, &str)] = &[
    ("partitioner", "processes"),
    ("partitioner_large", "processes"),
    ("partitioner_xl", "processes"),
    ("instantiation_xl", "processes"),
];

/// Absolute wall-clock ceilings for the partitioner document, checked against
/// the *current* measurement (the relative gates above only catch drift from
/// the committed baseline, so repeated small regressions could creep past any
/// budget).  The xl ceiling is the acceptance criterion of the coarsening
/// rework: p = 10^6 split into k = 10^4 parts must finish in at most 9 s on a
/// single core; the large instance (p = 10^5, k = 10^3) must stay under
/// 1.9 s.  `--quick` documents measure a scaled-down xl instance, so their
/// (much faster) timing passes these ceilings trivially — the relative gates'
/// scale guards already prevent quick and full documents from being compared.
pub const PARTITIONER_ABSOLUTE_CEILINGS: &[(&str, &str, f64)] = &[
    ("partitioner_xl", "single_core_s", 9.0),
    ("partitioner_large", "single_core_s", 1.9),
];

/// Absolute wall-clock ceilings for the p = 10^6 mapper timings of the
/// `BENCH_mapping.json` document (median instantiation of each paper mapper
/// on 1000 × 1000 with 10^4 nodes of 100), checked against the *current*
/// measurement like [`PARTITIONER_ABSOLUTE_CEILINGS`].  The whole-table
/// kernels fill such a table in a few tens of milliseconds; re-running the
/// per-rank recursion p times took seconds.
pub const MAPPER_ABSOLUTE_CEILINGS: &[(&str, &str, f64)] = &[
    ("instantiation_xl", "hyperplane_median_s", 0.1),
    ("instantiation_xl", "kdtree_median_s", 0.1),
    ("instantiation_xl", "stencil_strips_median_s", 0.1),
    ("instantiation_xl", "nodecart_median_s", 0.1),
];

/// The mapping-service metrics gated in `BENCH_serve.json`: cache-hit
/// throughput in every response mode — full table, compact encoding and
/// `new_rank_of` point lookups — must not collapse, and the persistence log
/// replay (entries restored per second on restart) must stay fast (higher is
/// better throughout).
pub const GATED_SERVE_METRICS: &[GatedMetric] = &[
    GatedMetric {
        section: "cache_hit",
        key: "throughput_rps",
        higher_is_better: true,
    },
    GatedMetric {
        section: "cache_hit_compact",
        key: "throughput_rps",
        higher_is_better: true,
    },
    GatedMetric {
        section: "new_rank_of",
        key: "throughput_rps",
        higher_is_better: true,
    },
    GatedMetric {
        section: "persistence",
        key: "reload_entries_per_s",
        higher_is_better: true,
    },
    GatedMetric {
        section: "tcp_hit",
        key: "throughput_rps",
        higher_is_better: true,
    },
    GatedMetric {
        section: "routed_hit",
        key: "throughput_rps",
        higher_is_better: true,
    },
    GatedMetric {
        section: "routed_replica_hit",
        key: "throughput_rps",
        higher_is_better: true,
    },
];

/// Scale guards for the serve document.
pub const SERVE_SCALE_GUARDS: &[(&str, &str)] = &[
    ("cache_hit", "processes"),
    ("cache_hit_compact", "processes"),
    ("new_rank_of", "processes"),
    ("persistence", "entries"),
    ("routed_hit", "processes"),
    ("routed_hit", "backends"),
    ("routed_replica_hit", "processes"),
    ("routed_replica_hit", "backends"),
    ("routed_replica_hit", "replicas"),
];

/// Absolute throughput floors for the serve document, checked against the
/// *current* measurement (the relative gates above only catch drift from
/// the committed baseline).  The routed-hit floor is the acceptance
/// criterion of the router work: p = 4800 cache hits through the router
/// must sustain at least 10k req/s; the replicated router — which writes
/// every miss through to two replicas but serves hits from the primary
/// alone — must sustain at least 8k req/s over three backends.
pub const SERVE_ABSOLUTE_FLOORS: &[(&str, &str, f64)] = &[
    ("routed_hit", "throughput_rps", 10_000.0),
    ("routed_replica_hit", "throughput_rps", 8_000.0),
];

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// Human-readable metric label, e.g. `partitioner.parallel_s`.
    pub label: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Direction of the underlying metric.
    pub higher_is_better: bool,
    /// Whether the current value is within the allowed regression.
    pub ok: bool,
}

impl CheckOutcome {
    /// Relative change of the current value over the baseline (`+0.10` =
    /// 10% higher).
    pub fn change(&self) -> f64 {
        self.current / self.baseline - 1.0
    }

    /// Formats the outcome as one report line.
    pub fn render(&self) -> String {
        format!(
            "{:<34} baseline {:>12.6}, current {:>12.6} ({:+6.1}%) {}",
            self.label,
            self.baseline,
            self.current,
            self.change() * 100.0,
            if self.ok { "ok" } else { "REGRESSION" }
        )
    }
}

/// Looks up the number stored under `key` in the object stored under
/// `section` of a parsed perf document.
///
/// Returns `Ok(None)` when the section holds `null` — "not measured at this
/// scale", as `--quick` documents record `partitioner_large` — so its gates
/// are skipped.  An absent section, a section that is not an object, a
/// missing key or a non-number is an `Err` naming `section.key`: a gate
/// never passes by not finding its metric.
pub fn metric(doc: &Value, section: &str, key: &str) -> Result<Option<f64>, String> {
    let body = match doc.get(section) {
        None => return Err(format!("{section}.{key}: section {section:?} is missing")),
        Some(Value::Null) => return Ok(None),
        Some(body @ Value::Obj(_)) => body,
        Some(other) => {
            return Err(format!(
                "{section}.{key}: section {section:?} is not an object ({})",
                other.compact()
            ))
        }
    };
    match body.get(key) {
        None => Err(format!("{section}.{key}: key {key:?} is missing")),
        Some(value) => value
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("{section}.{key}: not a number ({})", value.compact())),
    }
}

/// [`metric`], with the error prefixed by which document it came from.
fn metric_in(doc: &Value, which: &str, section: &str, key: &str) -> Result<Option<f64>, String> {
    metric(doc, section, key).map_err(|e| format!("{which} document: {e}"))
}

/// Parses a perf document, naming it in the error.
fn parse_doc(text: &str, which: &str) -> Result<Value, String> {
    Value::parse(text).map_err(|e| format!("{which} document is not valid JSON: {e}"))
}

/// Compares the gated `metrics` of two parsed perf documents.
///
/// `max_regression` is the allowed fractional regression (0.25 = a 25%
/// slowdown for time metrics, a 25% throughput drop for rate metrics).  The
/// `scale_guards` keys must agree between the two documents, otherwise the
/// comparison is meaningless and an error is returned.  A gate or guard
/// whose section is `null` in either document is skipped (see [`metric`]);
/// every other lookup failure is an error, and so is finding *no*
/// comparable gated metric.
pub fn check_metrics(
    baseline: &Value,
    current: &Value,
    max_regression: f64,
    metrics: &[GatedMetric],
    scale_guards: &[(&str, &str)],
) -> Result<Vec<CheckOutcome>, String> {
    let both = |section: &str, key: &str| -> Result<Option<(f64, f64)>, String> {
        let b = metric_in(baseline, "baseline", section, key)?;
        let c = metric_in(current, "current", section, key)?;
        Ok(b.zip(c))
    };
    for &(section, key) in scale_guards {
        if let Some((b, c)) = both(section, key)? {
            if b != c {
                return Err(format!(
                    "{section}.{key}: baseline measured {b} but current measured {c}; \
                     re-run both at the same scale"
                ));
            }
        }
    }
    let mut outcomes = Vec::new();
    for m in metrics {
        let Some((b, c)) = both(m.section, m.key)? else {
            continue;
        };
        if b <= 0.0 {
            return Err(format!(
                "{}.{}: non-positive baseline {b}",
                m.section, m.key
            ));
        }
        let ok = if m.higher_is_better {
            c >= b * (1.0 - max_regression)
        } else {
            c <= b * (1.0 + max_regression)
        };
        outcomes.push(CheckOutcome {
            label: format!("{}.{}", m.section, m.key),
            baseline: b,
            current: c,
            higher_is_better: m.higher_is_better,
            ok,
        });
    }
    if outcomes.is_empty() {
        return Err("no comparable gated metrics found in the two documents".to_string());
    }
    Ok(outcomes)
}

/// Checks each `(section, key, bound)` of `limits` against the current
/// document: a ceiling (`higher_is_better == false`) fails above its bound,
/// a floor below it.  Sections that are `null` are skipped.
fn check_limits(
    current: &Value,
    limits: &[(&str, &str, f64)],
    higher_is_better: bool,
) -> Result<Vec<CheckOutcome>, String> {
    let kind = if higher_is_better { "floor" } else { "ceiling" };
    let mut outcomes = Vec::new();
    for &(section, key, bound) in limits {
        let Some(c) = metric_in(current, "current", section, key)? else {
            continue;
        };
        outcomes.push(CheckOutcome {
            label: format!("{section}.{key} ({kind})"),
            baseline: bound,
            current: c,
            higher_is_better,
            ok: if higher_is_better {
                c >= bound
            } else {
                c <= bound
            },
        });
    }
    Ok(outcomes)
}

/// Compares the partitioner timings of two `BENCH_mapping.json` documents
/// ([`GATED_PARTITIONER_METRICS`]), then applies the
/// [`PARTITIONER_ABSOLUTE_CEILINGS`] and [`MAPPER_ABSOLUTE_CEILINGS`] to the
/// current document: a ceilinged timing above its ceiling fails even when
/// the committed baseline had already regressed.
pub fn check_mapping(
    baseline: &str,
    current: &str,
    max_regression: f64,
) -> Result<Vec<CheckOutcome>, String> {
    let current = parse_doc(current, "current")?;
    let mut outcomes = check_metrics(
        &parse_doc(baseline, "baseline")?,
        &current,
        max_regression,
        GATED_PARTITIONER_METRICS,
        MAPPING_SCALE_GUARDS,
    )?;
    outcomes.extend(check_limits(
        &current,
        PARTITIONER_ABSOLUTE_CEILINGS,
        false,
    )?);
    outcomes.extend(check_limits(&current, MAPPER_ABSOLUTE_CEILINGS, false)?);
    Ok(outcomes)
}

/// Compares the mapping-service metrics of two `BENCH_serve.json` documents
/// ([`GATED_SERVE_METRICS`]), then applies the [`SERVE_ABSOLUTE_FLOORS`]
/// to the current document: a floored metric below its floor fails even
/// when the committed baseline had already regressed.
pub fn check_serve(
    baseline: &str,
    current: &str,
    max_regression: f64,
) -> Result<Vec<CheckOutcome>, String> {
    let current = parse_doc(current, "current")?;
    let mut outcomes = check_metrics(
        &parse_doc(baseline, "baseline")?,
        &current,
        max_regression,
        GATED_SERVE_METRICS,
        SERVE_SCALE_GUARDS,
    )?;
    outcomes.extend(check_limits(&current, SERVE_ABSOLUTE_FLOORS, true)?);
    Ok(outcomes)
}

/// Renders the outcomes as a GitHub-flavoured markdown table (written to
/// `$GITHUB_STEP_SUMMARY` by the `perf_check` binary so every gated entry is
/// visible at a glance).
pub fn summary_markdown(outcomes: &[CheckOutcome]) -> String {
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.label.clone(),
                format!("{:.6}", o.baseline),
                format!("{:.6}", o.current),
                format!("{:+.1}%", o.change() * 100.0),
                if o.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }
                .to_string(),
                if o.ok { "✅ ok" } else { "❌ REGRESSION" }.to_string(),
            ]
        })
        .collect();
    crate::report::format_markdown_table(
        &[
            "metric", "baseline", "current", "change", "better", "status",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "schema": "stencilmap/perf-baseline/v1",
  "partitioner": {
    "processes": 4800,
    "parallel_s": 0.04,
    "sequential_s": 0.05
  },
  "partitioner_large": {
    "processes": 100000,
    "parts": 1000,
    "single_core_s": 1.8
  },
  "partitioner_xl": {
    "processes": 1000000,
    "parts": 10000,
    "single_core_s": 8.5
  },
  "instantiation_xl": {
    "processes": 1000000,
    "nodes": 10000,
    "hyperplane_median_s": 0.021,
    "kdtree_median_s": 0.032,
    "stencil_strips_median_s": 0.024,
    "nodecart_median_s": 0.028
  }
}"#;

    const SERVE_DOC: &str = r#"{
  "schema": "stencilmap/serve-loadgen/v1",
  "cache_hit": {
    "processes": 4800,
    "requests": 2000,
    "throughput_rps": 50000,
    "p50_s": 0.00002
  },
  "cache_hit_compact": {
    "processes": 4800,
    "throughput_rps": 200000
  },
  "new_rank_of": {
    "processes": 4800,
    "throughput_rps": 300000
  },
  "persistence": {
    "processes": 4800,
    "entries": 256,
    "reload_entries_per_s": 40000
  },
  "tcp_hit": {
    "processes": 4800,
    "throughput_rps": 150000
  },
  "routed_hit": {
    "processes": 4800,
    "backends": 2,
    "throughput_rps": 20000
  },
  "routed_replica_hit": {
    "processes": 4800,
    "backends": 3,
    "replicas": 2,
    "throughput_rps": 15000
  }
}"#;

    fn parsed(text: &str) -> Value {
        Value::parse(text).unwrap()
    }

    /// `DOC` with the `partitioner_large` section replaced by `null`, the way
    /// `--quick` documents record it.
    fn with_null_large(doc: &str) -> String {
        doc.replace(
            "{\n    \"processes\": 100000,\n    \"parts\": 1000,\n    \"single_core_s\": 1.8\n  }",
            "null",
        )
    }

    #[test]
    fn metric_finds_section_scoped_keys() {
        let doc = parsed(DOC);
        assert_eq!(metric(&doc, "partitioner", "processes"), Ok(Some(4800.0)));
        assert_eq!(metric(&doc, "partitioner", "parallel_s"), Ok(Some(0.04)));
        assert_eq!(
            metric(&doc, "partitioner_large", "single_core_s"),
            Ok(Some(1.8))
        );
        assert_eq!(
            metric(&doc, "partitioner_xl", "single_core_s"),
            Ok(Some(8.5))
        );
    }

    #[test]
    fn metric_sees_past_nested_containers() {
        // the gated key follows an array of objects inside the section
        let doc = parsed(
            r#"{"instantiation": {"timings": [{"algorithm": "Hyperplane", "n": 3}, []],
                "nested": {"processes": 1}, "processes": 4800}}"#,
        );
        assert_eq!(metric(&doc, "instantiation", "processes"), Ok(Some(4800.0)));
    }

    #[test]
    fn metric_missing_key_in_present_section_is_an_error() {
        let err = metric(&parsed(DOC), "partitioner", "missing").unwrap_err();
        assert!(err.contains("partitioner.missing"), "{err}");
    }

    #[test]
    fn metric_absent_section_is_an_error() {
        let err = metric(&parsed(DOC), "absent_section", "processes").unwrap_err();
        assert!(err.contains("absent_section.processes"), "{err}");
    }

    #[test]
    fn metric_non_number_is_an_error() {
        let err = metric(&parsed(r#"{"s": {"k": "fast"}}"#), "s", "k").unwrap_err();
        assert!(err.contains("s.k"), "{err}");
        let err = metric(&parsed(r#"{"s": 3}"#), "s", "k").unwrap_err();
        assert!(err.contains("s.k"), "{err}");
    }

    #[test]
    fn metric_null_section_is_skipped() {
        let quick = parsed(&with_null_large(DOC));
        assert_eq!(metric(&quick, "partitioner_large", "processes"), Ok(None));
        assert_eq!(metric(&quick, "partitioner", "processes"), Ok(Some(4800.0)));
    }

    #[test]
    fn metric_keys_do_not_leak_from_later_sections() {
        // single_core_s only exists in the partitioner_large/xl sections
        let err = metric(&parsed(DOC), "partitioner", "single_core_s").unwrap_err();
        assert!(err.contains("partitioner.single_core_s"), "{err}");
    }

    #[test]
    fn missing_gated_key_fails_the_check_and_names_it() {
        let missing = DOC.replace("\"sequential_s\": 0.05", "\"renamed_s\": 0.05");
        for (baseline, current, which) in
            [(DOC, &*missing, "current"), (&*missing, DOC, "baseline")]
        {
            let err = check_mapping(baseline, current, 0.25).unwrap_err();
            assert!(err.contains("partitioner.sequential_s"), "{err}");
            assert!(err.contains(which), "{err}");
        }
        // a missing ceiling key fails as well
        let missing = DOC.replace("\"kdtree_median_s\"", "\"kdtree_s\"");
        let err = check_mapping(DOC, &missing, 0.25).unwrap_err();
        assert!(err.contains("instantiation_xl.kdtree_median_s"), "{err}");
        // … and so does a missing scale guard
        let missing = DOC.replace("\"processes\": 100000", "\"procs\": 100000");
        let err = check_mapping(DOC, &missing, 0.25).unwrap_err();
        assert!(err.contains("partitioner_large.processes"), "{err}");
    }

    #[test]
    fn committed_baselines_carry_every_gated_label() {
        // the committed documents must stay readable by their own gates;
        // whether they *pass* them is the perf job's business
        let mapping = check_mapping(
            include_str!("../../../BENCH_mapping.json"),
            include_str!("../../../BENCH_mapping.json"),
            0.25,
        )
        .unwrap();
        let serve = check_serve(
            include_str!("../../../BENCH_serve.json"),
            include_str!("../../../BENCH_serve.json"),
            0.4,
        )
        .unwrap();
        let labels: Vec<&str> = mapping
            .iter()
            .chain(&serve)
            .map(|o| o.label.as_str())
            .collect();
        let gated = GATED_PARTITIONER_METRICS
            .iter()
            .chain(GATED_SERVE_METRICS)
            .map(|m| format!("{}.{}", m.section, m.key));
        let ceilings = PARTITIONER_ABSOLUTE_CEILINGS
            .iter()
            .chain(MAPPER_ABSOLUTE_CEILINGS)
            .map(|(s, k, _)| format!("{s}.{k} (ceiling)"));
        let floors = SERVE_ABSOLUTE_FLOORS
            .iter()
            .map(|(s, k, _)| format!("{s}.{k} (floor)"));
        for label in gated.chain(ceilings).chain(floors) {
            assert!(labels.contains(&label.as_str()), "{label} not checked");
        }
        // the scale guards resolve to numbers in both documents
        let mapping = parsed(include_str!("../../../BENCH_mapping.json"));
        for &(section, key) in MAPPING_SCALE_GUARDS {
            assert!(
                matches!(metric(&mapping, section, key), Ok(Some(_))),
                "{section}.{key}"
            );
        }
        let serve = parsed(include_str!("../../../BENCH_serve.json"));
        for &(section, key) in SERVE_SCALE_GUARDS {
            assert!(
                matches!(metric(&serve, section, key), Ok(Some(_))),
                "{section}.{key}"
            );
        }
    }

    #[test]
    fn identical_documents_pass() {
        let outcomes = check_mapping(DOC, DOC, 0.25).unwrap();
        assert_eq!(
            outcomes.len(),
            GATED_PARTITIONER_METRICS.len()
                + PARTITIONER_ABSOLUTE_CEILINGS.len()
                + MAPPER_ABSOLUTE_CEILINGS.len()
        );
        assert!(outcomes.iter().all(|o| o.ok));
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let slow = DOC.replace("\"parallel_s\": 0.04", "\"parallel_s\": 0.06");
        let outcomes = check_mapping(DOC, &slow, 0.25).unwrap();
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "partitioner.parallel_s");
        assert!(bad[0].render().contains("REGRESSION"));
        // a 50% budget tolerates it
        assert!(check_mapping(DOC, &slow, 0.5).unwrap().iter().all(|o| o.ok));
    }

    #[test]
    fn improvement_passes_and_renders() {
        let fast = DOC.replace("\"sequential_s\": 0.05", "\"sequential_s\": 0.01");
        let outcomes = check_mapping(DOC, &fast, 0.25).unwrap();
        assert!(outcomes.iter().all(|o| o.ok));
        assert!(outcomes.iter().any(|o| o.render().contains("ok")));
    }

    #[test]
    fn mismatched_process_counts_are_rejected() {
        let other = DOC.replace("\"processes\": 4800", "\"processes\": 1200");
        assert!(check_mapping(DOC, &other, 0.25).is_err());
    }

    #[test]
    fn quick_documents_skip_null_sections() {
        // a --quick document records the sections it did not measure as
        // null: their gates, guards and ceilings are skipped
        let quick = with_null_large(DOC)
            .replace(
                "\"partitioner_xl\": {\n    \"processes\": 1000000,\n    \"parts\": 10000,\n    \"single_core_s\": 8.5\n  }",
                "\"partitioner_xl\": null",
            );
        assert!(quick.contains("\"partitioner_large\": null,\n  \"partitioner_xl\": null"));
        for (baseline, current) in [(DOC, &*quick), (&*quick, DOC)] {
            let outcomes = check_mapping(baseline, current, 0.25).unwrap();
            let relative: Vec<&str> = outcomes
                .iter()
                .filter(|o| !o.label.ends_with("(ceiling)"))
                .map(|o| o.label.as_str())
                .collect();
            assert_eq!(
                relative,
                ["partitioner.parallel_s", "partitioner.sequential_s"]
            );
        }
        // the ceilings apply to the current document only
        let outcomes = check_mapping(DOC, &quick, 0.25).unwrap();
        assert_eq!(outcomes.len(), 2 + MAPPER_ABSOLUTE_CEILINGS.len());
    }

    #[test]
    fn xl_ceiling_is_absolute_not_relative() {
        // identical documents, but the xl timing sits above the 9 s ceiling:
        // the relative gates all pass, the ceiling still fails
        let slow = DOC.replace("\"single_core_s\": 8.5", "\"single_core_s\": 9.4");
        let outcomes = check_mapping(&slow, &slow, 0.25).unwrap();
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "partitioner_xl.single_core_s (ceiling)");
        // the large instance has its own 1.9 s ceiling
        let slow_large = DOC.replace("\"single_core_s\": 1.8", "\"single_core_s\": 2.0");
        let outcomes = check_mapping(&slow_large, &slow_large, 0.25).unwrap();
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "partitioner_large.single_core_s (ceiling)");
        // at the committed baseline's level the ceilings pass
        assert!(check_mapping(DOC, DOC, 0.25).unwrap().iter().all(|o| o.ok));
    }

    #[test]
    fn mapper_xl_ceilings_are_absolute_and_guard_the_scale() {
        // a 4.5 s per-rank Hyperplane at p = 10^6 fails its 0.1 s ceiling
        // even when the baseline shows the same timing
        let slow = DOC.replace(
            "\"hyperplane_median_s\": 0.021",
            "\"hyperplane_median_s\": 4.5",
        );
        let outcomes = check_mapping(&slow, &slow, 0.25).unwrap();
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(
            bad[0].label,
            "instantiation_xl.hyperplane_median_s (ceiling)"
        );
        // every paper mapper has its own ceiling
        for key in [
            "kdtree_median_s",
            "stencil_strips_median_s",
            "nodecart_median_s",
        ] {
            assert!(MAPPER_ABSOLUTE_CEILINGS
                .iter()
                .any(|&(s, k, c)| s == "instantiation_xl" && k == key && c == 0.1));
        }
        // a document measured at another scale is not comparable
        let other = DOC.replace(
            "\"processes\": 1000000,\n    \"nodes\"",
            "\"processes\": 4800,\n    \"nodes\"",
        );
        assert_ne!(other, DOC);
        assert!(check_mapping(DOC, &other, 0.25).is_err());
    }

    #[test]
    fn serve_gate_fails_on_throughput_drop_not_rise() {
        // throughput is higher-is-better: a 2x rise passes …
        let fast = SERVE_DOC.replace("\"throughput_rps\": 50000", "\"throughput_rps\": 100000");
        assert!(check_serve(SERVE_DOC, &fast, 0.25)
            .unwrap()
            .iter()
            .all(|o| o.ok));
        // … a 50% drop fails at a 25% budget (the other gated modes stay ok)
        let slow = SERVE_DOC.replace("\"throughput_rps\": 50000", "\"throughput_rps\": 25000");
        let outcomes = check_serve(SERVE_DOC, &slow, 0.25).unwrap();
        assert_eq!(
            outcomes.len(),
            GATED_SERVE_METRICS.len() + SERVE_ABSOLUTE_FLOORS.len()
        );
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "cache_hit.throughput_rps");
        // … and a 20% drop is within a 25% budget
        let mild = SERVE_DOC.replace("\"throughput_rps\": 50000", "\"throughput_rps\": 40000");
        assert!(check_serve(SERVE_DOC, &mild, 0.25)
            .unwrap()
            .iter()
            .all(|o| o.ok));
        // a collapse of the compact mode is caught independently
        let slow_compact =
            SERVE_DOC.replace("\"throughput_rps\": 200000", "\"throughput_rps\": 50000");
        let outcomes = check_serve(SERVE_DOC, &slow_compact, 0.25).unwrap();
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "cache_hit_compact.throughput_rps");
        // a persistence-reload collapse is caught independently
        let slow_reload = SERVE_DOC.replace(
            "\"reload_entries_per_s\": 40000",
            "\"reload_entries_per_s\": 10000",
        );
        let outcomes = check_serve(SERVE_DOC, &slow_reload, 0.25).unwrap();
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "persistence.reload_entries_per_s");
    }

    #[test]
    fn routed_floor_is_absolute_not_relative() {
        // identical documents, but the routed throughput sits below the
        // 10k floor: the relative gates all pass, the floor still fails
        let slow = SERVE_DOC.replace("\"throughput_rps\": 20000", "\"throughput_rps\": 9000");
        let outcomes = check_serve(&slow, &slow, 0.25).unwrap();
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "routed_hit.throughput_rps (floor)");
        // the replicated-router section has its own 8k floor
        let slow_replica =
            SERVE_DOC.replace("\"throughput_rps\": 15000", "\"throughput_rps\": 7000");
        let outcomes = check_serve(&slow_replica, &slow_replica, 0.25).unwrap();
        let bad: Vec<_> = outcomes.iter().filter(|o| !o.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "routed_replica_hit.throughput_rps (floor)");
        // at the committed baseline's level the floors pass
        let outcomes = check_serve(SERVE_DOC, SERVE_DOC, 0.25).unwrap();
        assert!(outcomes.iter().all(|o| o.ok));
        // a document without the routed sections is an error naming the
        // missing gate: a floor never passes by not finding its metric
        // (note "routed_hit" is not a substring of "routed_replica_hit";
        // both renames are needed)
        let legacy = SERVE_DOC
            .replace("routed_hit", "routed_hit_absent")
            .replace("routed_replica_hit", "routed_replica_hit_absent");
        let err = check_serve(&legacy, &legacy, 0.25).unwrap_err();
        assert!(err.contains("routed_hit."), "{err}");
    }

    #[test]
    fn serve_gate_guards_the_request_scale() {
        let other = SERVE_DOC.replace("\"processes\": 4800", "\"processes\": 96");
        assert!(check_serve(SERVE_DOC, &other, 0.25).is_err());
    }

    #[test]
    fn serve_gate_guards_the_persisted_entry_count() {
        let other = SERVE_DOC.replace("\"entries\": 256", "\"entries\": 16");
        assert!(check_serve(SERVE_DOC, &other, 0.25).is_err());
    }

    #[test]
    fn summary_markdown_lists_every_outcome() {
        let mut outcomes = check_mapping(DOC, DOC, 0.25).unwrap();
        outcomes.extend(check_serve(SERVE_DOC, SERVE_DOC, 0.25).unwrap());
        let md = summary_markdown(&outcomes);
        let lines: Vec<&str> = md.lines().collect();
        // header + separator + one row per outcome
        assert_eq!(lines.len(), 2 + outcomes.len());
        assert!(md.contains("partitioner.parallel_s"));
        assert!(md.contains("cache_hit.throughput_rps"));
        assert!(md.contains("✅"));
    }
}
