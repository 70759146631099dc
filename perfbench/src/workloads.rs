//! The two workloads, each in an untraced form (end-to-end metrics) and a
//! traced form (per-layer metrics).  The traced form of `hot_hits` also
//! drives real `stencil-serve` processes (one with persistence and a small
//! cache, and a router over two backends), so that the server, router and
//! persistence layers are measured too.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use cluster_sim::exchange::ExchangeModel;
use cluster_sim::machine::Machine;
use cluster_sim::stats::median;
use stencil_grid::CartGraph;
use stencil_mapping::metrics::evaluate_streaming;
use stencil_mapping::Mapping;
use stencil_serve::json::{decode_nodes_compact, Value};
use stencil_serve::router::{fnv1a_64, Ring};
use stencil_serve::server::{Frame, LineFramer};
use stencil_serve::service::{CacheKey, MappingService, ServiceConfig};
use stencil_serve::MapRequest;

use crate::gauge::Gauge;
use crate::gen::{self, Line, Shape, Spec};
use crate::net::{self, Conn, Server};
use crate::trace::{Chain, Layers, Tracer};
use crate::util::*;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub serve_bin: PathBuf,
    /// Scratch directory of this run (persistence logs, server logs).
    pub tmp: PathBuf,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Figures printed beside the metrics: sample counts, tail latencies
    /// and rates that are not gated.
    pub report: Vec<(String, Value)>,
    /// The span stores of a traced run, by section name.
    pub tracers: Vec<(String, Tracer)>,
}

impl Outcome {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn note(&mut self, name: &str, value: f64, unit: &str) {
        let v = Value::obj(vec![
            ("value", Value::Num(value)),
            ("unit", Value::str(unit)),
        ]);
        self.report.push((name.to_string(), v));
    }
}

/// Set-ups per run: at least `SETUP_MIN`, more while they add up to less
/// than `SETUP_SPAN_S` (cheap set-ups are timed often enough for a steady
/// median), at most `SETUP_MAX`.  The median is reported as `setup_s`.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 25;
const SETUP_SPAN_S: f64 = 2.0;

/// Message size of the modelled `MPI_Neighbor_alltoall` (bytes per
/// neighbour).
const ALLTOALL_BYTES: usize = 64 * 1024;

/// Churn server cache capacity (entries) and online-compaction
/// threshold (bytes): small enough that evictions and log compactions run
/// throughout the measured phase.
const CHURN_CAPACITY: usize = 64;
const CHURN_COMPACT_BYTES: u64 = 64 * 1024;

/// Length of the churn request sequence: more than a traced run replays.
const CHURN_REQUESTS: usize = 100_000;

const EPHEMERAL: &str = "127.0.0.1:0";

/// Ports tried, in order, for the two routed backends.
const BACKEND_PORTS: std::ops::Range<u16> = 47311..47411;

/// A request answered before timing starts, so that lazily created thread
/// pools and first-touch page faults are part of set-up; large enough that
/// its time is not lost in timer noise, and a key no round asks for.
const WARM_LINE: &str = r#"{"dims":[320,320],"nodes":100,"procs_per_node":1024,"algorithm":"kdtree","want_mapping":false}"#;

fn service(cfg: &ServiceConfig) -> Res<MappingService> {
    MappingService::open(cfg)
        .or_else(|e| setup_err(format!("cannot open the mapping service: {e}")))
}

fn default_service() -> Res<MappingService> {
    service(&ServiceConfig::default())
}

/// The in-process twin of the churn server's configuration.
fn churn_config(persist: PathBuf) -> ServiceConfig {
    ServiceConfig {
        cache_capacity: CHURN_CAPACITY,
        persist_path: Some(persist),
        compact_bytes: CHURN_COMPACT_BYTES,
        ..ServiceConfig::default()
    }
}

/// A parsed `"status":"ok"` response.  A node table is cut out of the text
/// before the rest is parsed: `Value::parse` re-validates the remaining
/// input once per string character, which makes a megabyte-long compact
/// table take tens of seconds, and a verbose table as a `Value` tree costs
/// ten times its size in memory.
struct Response {
    v: Value,
    table: Option<Table>,
}

enum Table {
    Compact(String),
    Verbose(Vec<u32>),
}

fn parse_ok(what: &str, response: &str) -> Res<Response> {
    let mut table = None;
    let mut text = std::borrow::Cow::Borrowed(response);
    for (key, close) in [("\"nodes\":\"", '"'), ("\"nodes\":[", ']')] {
        let Some(at) = response.find(key) else {
            continue;
        };
        let body = &response[at + key.len()..];
        let len = body
            .find(close)
            .map_or_else(|| wrong(format!("{what}: unterminated node table")), Ok)?;
        table = Some(if close == '"' {
            Table::Compact(body[..len].to_string())
        } else {
            Table::Verbose(
                body[..len]
                    .split(',')
                    .filter(|x| !x.is_empty())
                    .map(|x| x.parse::<u32>())
                    .collect::<Result<_, _>>()
                    .or_else(|e| wrong(format!("{what}: bad verbose table ({e})")))?,
            )
        });
        // keep `"nodes":` with a placeholder value
        let keep = at + key.len() - 1;
        text = std::borrow::Cow::Owned(format!("{}0{}", &response[..keep], &body[len + 1..]));
        break;
    }
    let v =
        Value::parse(&text).or_else(|e| wrong(format!("{what}: unparseable response ({e})")))?;
    if v.get("status").and_then(Value::as_str) != Some("ok") {
        return wrong(format!(
            "{what}: not ok: {}",
            &response[..response.len().min(300)]
        ));
    }
    Ok(Response { v, table })
}

impl Response {
    fn get(&self, key: &str) -> Option<&Value> {
        self.v.get(key)
    }

    /// The node table, from either encoding.
    fn nodes(&self) -> Res<Vec<u32>> {
        match &self.table {
            Some(Table::Compact(s)) => {
                decode_nodes_compact(s).or_else(|e| wrong(format!("bad compact table: {e}")))
            }
            Some(Table::Verbose(nodes)) => Ok(nodes.clone()),
            None => wrong("response carries no table"),
        }
    }

    fn cost(&self) -> Res<(u64, u64)> {
        match (
            self.v.get("j_sum").and_then(Value::as_u64),
            self.v.get("j_max").and_then(Value::as_u64),
        ) {
            (Some(s), Some(m)) => Ok((s, m)),
            _ => wrong("response carries no j_sum/j_max"),
        }
    }
}

/// Checks that `nodes` (the table answered for `spec`, in the request's
/// dimension order) is a valid mapping for the allocation and that its
/// streaming-evaluated cost equals the one the service reported.
fn check_table(spec: &Spec, nodes: &[u32], j_sum: u64, j_max: u64) -> Res<Mapping> {
    let problem = spec.problem();
    if nodes.len() != problem.num_processes() {
        return wrong(format!(
            "{}: table has {} entries for {} positions",
            spec.request(&Shape::CostOnly),
            nodes.len(),
            problem.num_processes()
        ));
    }
    let table: Vec<usize> = nodes.iter().map(|&n| n as usize).collect();
    let mapping = Mapping::from_node_of_position(&problem, &table)
        .or_else(|e| wrong(format!("{}: {e}", spec.request(&Shape::CostOnly))))?;
    if !mapping.respects_allocation(problem.alloc()) {
        return wrong(format!(
            "{}: allocation not respected",
            spec.request(&Shape::CostOnly)
        ));
    }
    let cost = evaluate_streaming(problem.dims(), problem.stencil(), spec.periodic, &mapping);
    if (cost.j_sum, cost.j_max) != (j_sum, j_max) {
        return wrong(format!(
            "{}: reported j_sum/j_max {j_sum}/{j_max}, evaluate_streaming gives {}/{}",
            spec.request(&Shape::CostOnly),
            cost.j_sum,
            cost.j_max
        ));
    }
    Ok(mapping)
}

/// Mapping quality of a set of problems: summed `Jsum`, `Jmax` and the
/// modelled alltoall time on VSC4.  Each table is fetched as a compact
/// table from `svc` (which must hold it) and checked first.
#[derive(Default)]
struct Quality {
    j_sum: f64,
    j_max: f64,
    alltoall_s: f64,
}

impl Quality {
    fn add(&mut self, spec: &Spec, mapping: &Mapping, j_sum: u64, j_max: u64) {
        let problem = spec.problem();
        let graph = CartGraph::build(problem.dims(), problem.stencil(), spec.periodic);
        let model = ExchangeModel::new(&Machine::vsc4());
        self.j_sum += j_sum as f64;
        self.j_max += j_max as f64;
        self.alltoall_s += model.exchange_time(&graph, mapping, ALLTOALL_BYTES);
    }

    fn of(specs: &[&Spec], svc: &MappingService) -> Res<Quality> {
        let mut q = Quality::default();
        for spec in specs {
            checked();
            let what = spec.request(&Shape::Compact);
            let r = parse_ok(&what, &svc.handle_line(&what))?;
            let (j_sum, j_max) = r.cost()?;
            let mapping = check_table(spec, &r.nodes()?, j_sum, j_max)?;
            q.add(spec, &mapping, j_sum, j_max);
        }
        Ok(q)
    }

    fn put(&self, out: &mut Outcome) {
        out.set("jsum_total", self.j_sum);
        out.set("jmax_total", self.j_max);
        out.set("alltoall_model_s", self.alltoall_s);
    }
}

/// A counter of an `{"admin":"stats"}` answer, found by its path of keys;
/// a missing counter is an error, never a silent 0.
fn stat(stats: &Response, path: &[&str]) -> Res<u64> {
    let mut v = Some(&stats.v);
    for key in path {
        v = v.and_then(|v| v.get(key));
    }
    v.and_then(Value::as_u64).map_or_else(
        || setup_err(format!("stats answer has no {}", path.join("."))),
        Ok,
    )
}

/// Distinct problems of a line set, in first-seen order.
fn distinct_specs(lines: &[Line]) -> Vec<&Spec> {
    let mut out: Vec<&Spec> = Vec::new();
    for line in lines {
        for (spec, _) in &line.items {
            if !out.contains(&spec) {
                out.push(spec);
            }
        }
    }
    out
}

/// Sets up repeatedly (see `SETUP_MIN`), keeping the last instance;
/// returns it with the median set-up seconds at the gauge's reference
/// speed.
fn repeated_setup<T>(gauge: &mut Gauge, mut f: impl FnMut(usize) -> Res<T>) -> Res<(T, f64)> {
    let (mut wall, mut secs) = (0.0, Vec::new());
    let mut last = None;
    while secs.len() < SETUP_MIN || (wall < SETUP_SPAN_S && secs.len() < SETUP_MAX) {
        // the previous instance is dropped (servers stopped) outside the
        // timed region
        drop(last.take());
        let (value, w, at_ref) = gauge.time(|| f(secs.len()));
        wall += w;
        secs.push(at_ref);
        last = Some(value?);
    }
    Ok((
        last.expect("at least one set-up"),
        median_of("setup_s", &secs)?,
    ))
}

/// Puts the gauge figures of a run in the report.
fn note_gauge(out: &mut Outcome, gauge: &Gauge) -> Res<()> {
    out.note("gauge_s_per_run", median_of("gauge", &gauge.samples)?, "s");
    out.note("gauge_samples", gauge.samples.len() as f64, "count");
    out.report.push((
        "gauge_digest".to_string(),
        Value::str(format!("{:016x}", gauge.digest()).as_str()),
    ));
    Ok(())
}

// ---------------------------------------------------------------- hot loop

/// Seconds of requests between two gauge samples of `hot_hits`.
const WINDOW_S: f64 = 0.25;

/// Latencies kept per window; the buffer is made and written before timing
/// starts, so the benchmark's own resident memory does not grow with the
/// request count (`peak_rss_mb` of `hot_hits` is read from this process).
/// A window that answers more requests samples its first `WINDOW_KEEP`.
const WINDOW_KEEP: usize = 1 << 16;

/// One window of the hot loop.
struct Window {
    requests: f64,
    positions: f64,
    /// Seconds spent in `handle_line`, on the wall and at reference speed.
    busy_wall: f64,
    busy_ref: f64,
    p50_wall: f64,
    /// `None` when the window sampled fewer than 1000 requests.
    p99_wall: Option<f64>,
}

/// The closed loop of one in-process client: walks the lines in a seeded
/// order, one request at a time, for `seconds` of `handle_line` time, and
/// checks every response against `refs`, ignoring the cached flag.  After
/// every `WINDOW_S` seconds it gauges the host and rescales the window.
fn hot_loop(
    seed: u64,
    seconds: f64,
    svc: &MappingService,
    lines: &[Line],
    refs: &[String],
    gauge: &mut Gauge,
) -> Res<Vec<Window>> {
    let n = lines.len();
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, 0x7100).shuffle(&mut order);
    let mut latency = vec![-1.0; WINDOW_KEEP];
    let mut windows = Vec::with_capacity((seconds / WINDOW_S) as usize + 2);
    let (mut i, mut busy) = (0, 0.0);
    let mut before = gauge.sample(0.0);
    while busy < seconds {
        let mut w = Window {
            requests: 0.0,
            positions: 0.0,
            busy_wall: 0.0,
            busy_ref: 0.0,
            p50_wall: 0.0,
            p99_wall: None,
        };
        let mut kept = 0;
        while w.busy_wall < WINDOW_S {
            let line = &lines[order[i % n]];
            i += 1;
            let t0 = Instant::now();
            let response = svc.handle_line(&line.text);
            let secs = secs_since(t0);
            check_same(&line.text, &response, &refs[order[(i - 1) % n]])?;
            w.requests += 1.0;
            w.positions += line.volume() as f64;
            w.busy_wall += secs;
            if kept < latency.len() {
                latency[kept] = secs;
                kept += 1;
            }
        }
        let after = gauge.sample(0.0);
        w.busy_ref = gauge.rescale(w.busy_wall, (before + after) / 2.0);
        before = after;
        let sampled = &latency[..kept];
        w.p50_wall = median_of("latency", sampled)?;
        w.p99_wall = p99_of("latency", sampled).ok();
        busy += w.busy_wall;
        windows.push(w);
    }
    Ok(windows)
}

/// End-to-end metrics of the hot loop.  Each is the median over the
/// windows, so a stall of the host inside one window moves it little; the
/// rates and the median latency are at the gauge's reference speed (a
/// window's latencies all share its rescaling factor), and the wall-clock
/// figures go in the report.
fn put_windows(out: &mut Outcome, windows: &[Window]) -> Res<()> {
    let over = |what: &str, f: &dyn Fn(&Window) -> f64| {
        median_of(what, &windows.iter().map(f).collect::<Vec<_>>())
    };
    out.set(
        "throughput_rps",
        over("throughput_rps", &|w| w.requests / w.busy_ref)?,
    );
    out.set(
        "positions_per_s",
        over("positions_per_s", &|w| w.positions / w.busy_ref)?,
    );
    out.set(
        "latency_p50_s",
        over("latency_p50_s", &|w| w.p50_wall * w.busy_ref / w.busy_wall)?,
    );
    out.note(
        "wall_throughput_rps",
        over("wall_throughput_rps", &|w| w.requests / w.busy_wall)?,
        "1/s",
    );
    out.note(
        "wall_latency_p50_s",
        over("wall_latency_p50_s", &|w| w.p50_wall)?,
        "s",
    );
    let p99: Vec<f64> = windows.iter().filter_map(|w| w.p99_wall).collect();
    out.note(
        "wall_latency_p99_s",
        median_of("latency_p99_s (windows of at least 1000 requests)", &p99)?,
        "s",
    );
    out.note("windows", windows.len() as f64, "count");
    out.note(
        "requests",
        windows.iter().map(|w| w.requests).sum::<f64>(),
        "count",
    );
    Ok(())
}

// ---------------------------------------------------------------- cold_map

/// A digest of an answer, for comparing it with a later one without
/// holding it.
fn digest(response: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    response.hash(&mut h);
    h.finish()
}

/// Checks one `cold_map` answer: a miss, for the requested algorithm, whose
/// table (read back as a compact hit when the answer is cost-only) respects
/// the allocation and scores to the reported cost.
fn check_cold(svc: &MappingService, line: &Line, response: &str) -> Res<(Mapping, u64, u64)> {
    checked();
    let (spec, shape) = &line.items[0];
    let v = parse_ok(&line.text, response)?;
    if v.get("cached").and_then(Value::as_bool) != Some(false)
        || v.get("algorithm").and_then(Value::as_str) != Some(spec.algorithm)
    {
        return wrong(format!(
            "{}: expected a {} miss: {}",
            line.text,
            spec.algorithm,
            &response[..response.len().min(200)]
        ));
    }
    let (j_sum, j_max) = v.cost()?;
    let nodes = match shape {
        Shape::CostOnly => {
            let again = spec.request(&Shape::Compact);
            let w = parse_ok(&again, &svc.handle_line(&again))?;
            if w.get("cached").and_then(Value::as_bool) != Some(true) {
                return wrong(format!("{again}: the cold answer was not cached"));
            }
            w.nodes()?
        }
        _ => v.nodes()?,
    };
    let mapping = check_table(spec, &nodes, j_sum, j_max)?;
    Ok((mapping, j_sum, j_max))
}

/// Threads a gauge of mapping work runs on: as many as the mappers compute
/// on (rayon's pool), at most two.
fn cold_threads() -> usize {
    rayon::current_num_threads().clamp(1, 2)
}

pub fn cold_map(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut gauge = Gauge::new(cold_threads());
    let (svc, setup) = repeated_setup(&mut gauge, |_| {
        let svc = default_service()?;
        parse_ok("warm-up", &svc.handle_line(WARM_LINE))?;
        Ok(svc)
    })?;
    out.set("setup_s", setup);

    // each request is timed alone, then the host is gauged; the gated
    // figures use its seconds at the reference speed.  `per_class[c]`
    // holds (wall s, reference s, positions) of class `c` in every round.
    let mut per_class: Vec<Vec<(f64, f64, f64)>> = Vec::new();
    let mut busy_wall = 0.0;
    let mut quality = Quality::default();
    // the first round's answers are checked once `peak_rss_mb` has been
    // read, so that the checks' own allocations (grid graphs, decoded
    // tables) stay out of the peak; until then only a digest of each
    // answer is kept
    let mut first_round: Vec<(Line, u64)> = Vec::new();
    let mut round = 0;
    loop {
        let lines = gen::cold_round(ctx.seed, round);
        per_class.resize(lines.len(), Vec::new());
        for (class, line) in lines.into_iter().enumerate() {
            let (response, wall, at_ref) = gauge.time(|| svc.handle_line(&line.text));
            per_class[class].push((wall, at_ref, line.volume() as f64));
            busy_wall += wall;
            out.attempted += 1;
            if round == 0 {
                first_round.push((line, digest(&response)));
            } else {
                check_cold(&svc, &line, &response)?;
            }
        }
        round += 1;
        if round == 1 {
            // later rounds only add cache entries whose number depends on
            // how many rounds fit; the first round is the same work in
            // every run
            out.set("peak_rss_mb", self_peak_rss_mb()?);
            for (line, cold) in &first_round {
                // asked again, the service answers from its cache; with the
                // cached flag cleared that must be the cold answer
                let again = svc.handle_line(&line.text);
                let again = without_cached_flag(&again);
                if digest(&again) != *cold {
                    return wrong(format!(
                        "{}: the cached answer differs from the cold one",
                        line.text
                    ));
                }
                let (mapping, j_sum, j_max) = check_cold(&svc, line, &again)?;
                quality.add(&line.items[0].0, &mapping, j_sum, j_max);
            }
        }
        // whole rounds only, so that every run measures the same mix
        if busy_wall >= ctx.seconds {
            break;
        }
    }
    // A run holds only a few requests of each class, each with its own
    // noise, and the largest class takes half of a round: a sum over the
    // mix would move with that one class.  Each class is taken at its
    // median over the rounds, and the mix at the geometric mean over the
    // classes, so every class counts the same, as in a suite score.
    let class_median = |f: fn(&(f64, f64, f64)) -> f64| -> Res<Vec<f64>> {
        per_class
            .iter()
            .map(|rounds| median_of("cold_map class", &rounds.iter().map(f).collect::<Vec<_>>()))
            .collect()
    };
    let (wall, at_ref, volume) = (
        class_median(|r| r.0)?,
        class_median(|r| r.1)?,
        class_median(|r| r.2)?,
    );
    let geomean = |v: &mut dyn Iterator<Item = f64>| {
        let (sum, n) = v.fold((0.0, 0.0), |(s, n), x| (s + x.ln(), n + 1.0));
        (sum / n).exp()
    };
    out.set(
        "throughput_rps",
        geomean(&mut at_ref.iter().map(|t| 1.0 / t)),
    );
    out.set(
        "positions_per_s",
        geomean(&mut volume.iter().zip(&at_ref).map(|(v, t)| v / t)),
    );
    out.set("latency_p50_s", median_of("latency_p50_s", &at_ref)?);
    quality.put(&mut out);
    out.note(
        "wall_throughput_rps",
        geomean(&mut wall.iter().map(|t| 1.0 / t)),
        "1/s",
    );
    out.note(
        "wall_latency_p50_s",
        median_of("latency_p50_s", &wall)?,
        "s",
    );
    out.report.push((
        "class_latency_s".to_string(),
        Value::Arr(at_ref.into_iter().map(Value::Num).collect()),
    ));
    out.note("rounds", round as f64, "count");
    out.note("busy_wall_s", busy_wall, "s");
    note_gauge(&mut out, &gauge)?;
    Ok(out)
}

// ---------------------------------------------------------------- hot_hits

/// A warmed in-process service and the hit responses of every line.
fn warm_service(lines: &[Line]) -> Res<MappingService> {
    let svc = default_service()?;
    for line in lines {
        let response = svc.handle_line(&line.text);
        checked();
        if response.contains("\"status\":\"error\"") {
            return wrong(format!("{}: {response}", line.text));
        }
    }
    Ok(svc)
}

fn references(svc: &MappingService, lines: &[Line]) -> Vec<String> {
    lines.iter().map(|l| svc.handle_line(&l.text)).collect()
}

pub fn hot_hits(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::default();
    let lines = gen::hot_lines(ctx.seed);
    // set-up computes every mapping on rayon's pool; the loop is one
    // client thread, so its gauge runs on one
    let (svc, setup) = repeated_setup(&mut Gauge::new(cold_threads()), |_| warm_service(&lines))?;
    out.set("setup_s", setup);
    let refs = references(&svc, &lines);
    let mut gauge = Gauge::new(1);

    let windows = hot_loop(ctx.seed, ctx.seconds, &svc, &lines, &refs, &mut gauge)?;
    out.set("peak_rss_mb", self_peak_rss_mb()?);
    out.attempted = windows.iter().map(|w| w.requests as u64).sum();
    put_windows(&mut out, &windows)?;
    Quality::of(&distinct_specs(&lines), &svc)?.put(&mut out);
    note_gauge(&mut out, &gauge)?;
    Ok(out)
}

// ------------------------------------------------------ routed and churn

/// The `hot_hits` lines the routed workload replays: cost-only and compact
/// single requests.
fn routed_lines(seed: u64) -> Vec<Line> {
    gen::hot_lines(seed)
        .into_iter()
        .filter(|l| !l.is_batch && matches!(l.items[0].1, Shape::CostOnly | Shape::Compact))
        .collect()
}

/// Two backends and a router over them, warmed with `lines`.
struct Routed {
    backends: Vec<Server>,
    router: Server,
}

impl Routed {
    fn start(ctx: &Ctx, lines: &[Line], refs: &[String], tag: usize) -> Res<Routed> {
        // the ring hashes the backend addresses: the same ports in every
        // run keep the split of keys between the backends the same
        let backends = net::free_ports(BACKEND_PORTS, 2)?
            .into_iter()
            .enumerate()
            .map(|(b, port)| {
                Server::spawn(
                    &ctx.serve_bin,
                    &format!("127.0.0.1:{port}"),
                    &[],
                    &ctx.tmp.join(format!("backend{b}-{tag}.log")),
                )
            })
            .collect::<Res<Vec<_>>>()?;
        let specs: Vec<String> = backends.iter().map(|b| b.addr.clone()).collect();
        let router = Server::spawn(
            &ctx.serve_bin,
            EPHEMERAL,
            &["--route".to_string(), specs.join(",")],
            &ctx.tmp.join(format!("router-{tag}.log")),
        )?;
        let mut conn = Conn::connect(&router.addr)?;
        for (line, reference) in lines.iter().zip(refs) {
            check_same(&line.text, &conn.call(&line.text)?, reference)?;
        }
        Ok(Routed { backends, router })
    }

    fn specs(&self) -> Vec<String> {
        self.backends.iter().map(|b| b.addr.clone()).collect()
    }
}

struct Churn {
    universe: Vec<Line>,
    zipf: gen::Zipf,
    /// Cold in-process responses, one per universe key.
    refs: Vec<String>,
}

impl Churn {
    fn new(seed: u64) -> Res<Churn> {
        let universe = gen::churn_universe(seed);
        let zipf = gen::Zipf::new(universe.len());
        let svc = service(&ServiceConfig {
            cache_capacity: 4 * gen::CHURN_KEYS,
            ..ServiceConfig::default()
        })?;
        let refs = references(&svc, &universe);
        for (line, r) in universe.iter().zip(&refs) {
            parse_ok(&line.text, r)?;
        }
        Ok(Churn {
            universe,
            zipf,
            refs,
        })
    }

    /// The most popular keys, one cache's worth: the warm-up set.
    fn hottest(&self) -> &[usize] {
        &self.zipf.ranked[..CHURN_CAPACITY]
    }

    fn server_args(log: &std::path::Path) -> Vec<String> {
        vec![
            "--persist".to_string(),
            log.display().to_string(),
            "--cache-capacity".to_string(),
            CHURN_CAPACITY.to_string(),
            "--compact-bytes".to_string(),
            CHURN_COMPACT_BYTES.to_string(),
        ]
    }

    /// A fresh server with an empty persistence log, warmed with the
    /// hottest keys.
    fn start(&self, ctx: &Ctx, tag: usize) -> Res<Server> {
        let log = ctx.tmp.join(format!("churn-{tag}.persist"));
        let server = Server::spawn(
            &ctx.serve_bin,
            EPHEMERAL,
            &Churn::server_args(&log),
            &ctx.tmp.join(format!("churn-{tag}.log")),
        )?;
        let mut conn = Conn::connect(&server.addr)?;
        for &k in self.hottest() {
            check_same(
                &self.universe[k].text,
                &conn.call(&self.universe[k].text)?,
                &self.refs[k],
            )?;
        }
        Ok(server)
    }
}

// ------------------------------------------------------------- traced runs

/// The traced chain and its untraced twin: two copies of the replayed
/// request path that see the same lines in the same order, one recording
/// spans and one not.
struct Twins {
    traced: Chain,
    untraced: Chain,
    tracer: Tracer,
    quiet: Tracer,
}

impl Twins {
    fn new(cfg: &ServiceConfig) -> Twins {
        Twins {
            traced: Chain::new(cfg),
            untraced: Chain::new(cfg),
            tracer: Tracer::new(),
            quiet: Tracer::disabled(),
        }
    }
}

/// Replays `lines` through the real `handle_line`, the traced chain and its
/// untraced twin, rotating which goes first, and checks that all three
/// produce the same bytes.  Records `service.unattributed` (`handle_line`
/// minus the traced children) and `trace.overhead` (traced minus untraced
/// chain) per line.  Returns the `handle_line` seconds per line.
fn replay(
    svc: &MappingService,
    twins: &mut Twins,
    layers: &mut Layers,
    lines: &[&str],
    first_req: usize,
) -> Res<Vec<f64>> {
    let mut real_secs = Vec::with_capacity(lines.len());
    let (mut traced, mut plain) = (String::new(), String::new());
    for (i, line) in lines.iter().enumerate() {
        twins.tracer.set_request(first_req + i);
        traced.clear();
        plain.clear();
        let (mut real, mut secs, mut root, mut plain_secs) = (String::new(), 0.0, 0, 0.0);
        for step in 0..3 {
            match (step + i) % 3 {
                0 => (real, secs) = timed(|| svc.handle_line(line)),
                1 => {
                    root = twins
                        .traced
                        .handle_line(&mut twins.tracer, line, &mut traced)
                }
                _ => {
                    plain_secs = timed(|| {
                        twins
                            .untraced
                            .handle_line(&mut twins.quiet, line, &mut plain)
                    })
                    .1
                }
            }
        }
        checked();
        for (which, copy) in [("traced", &traced), ("untraced", &plain)] {
            if real != *copy {
                let cut = |s: &str| s.chars().take(300).collect::<String>();
                return wrong(format!(
                    "the {which} chain diverged from handle_line on {line}\n  handle_line: {}\n  chain:       {}",
                    cut(&real),
                    cut(copy)
                ));
            }
        }
        let span = &twins.tracer.spans[root as usize];
        let (traced_secs, children) = (span.dur() as f64 * 1e-9, span.child as f64 * 1e-9);
        layers.sample("service.unattributed", secs - children);
        layers.sample("trace.overhead", traced_secs - plain_secs);
        layers.count("untraced_s", plain_secs);
        real_secs.push(secs);
    }
    Ok(real_secs)
}

/// Counters of the traced chain at the start of the measured replay.
struct Mark {
    hits: u64,
    misses: u64,
    evictions: u64,
    swaps: u64,
}

impl Mark {
    fn of(chain: &Chain) -> Mark {
        let s = chain.stats();
        Mark {
            hits: s.hits,
            misses: s.misses,
            evictions: chain.evictions(),
            swaps: chain.refine_swaps,
        }
    }
}

/// Layers whose time is reported as `<name>_s` (median per call) and
/// `<name>_total_s`.
const TIMED_LAYERS: [&str; 24] = [
    "json.parse",
    "json.encode_compact",
    "protocol.decode",
    "protocol.write",
    "canonical.canonicalize",
    "canonical.restore",
    "cache.lookup",
    "cache.insert",
    "mapper.hyperplane.compute",
    "mapper.kdtree.compute",
    "mapper.stencil_strips.compute",
    "mapper.nodecart.compute",
    "mapper.viem.compute",
    "grid.cart_graph",
    "partition.csr",
    "partition.partition",
    "partition.refine",
    "metrics.score",
    "server.frame",
    "server.overhead",
    "router.hash",
    "router.hop",
    "service.unattributed",
    "trace.overhead",
];

/// Counters reported as they were counted (0 where the layer did no work).
const COUNTED_LAYERS: [&str; 6] = [
    "persist.appended",
    "persist.flushes",
    "persist.compactions",
    "persist.dropped",
    "router.forwarded",
    "router.unavailable",
];

/// Per-layer metrics out of the layer samples.  Every per-layer metric is
/// always present: a layer that did no work on this workload reads 0.
fn layer_metrics(out: &mut Outcome, layers: &Layers, chain: &Chain, mark: &Mark, requests: usize) {
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    for name in TIMED_LAYERS {
        let (med, total) = layers.time(name);
        out.set(&format!("{name}_s"), med);
        out.set(&format!("{name}_total_s"), total);
        if let Some(alg) = name
            .strip_prefix("mapper.")
            .and_then(|n| n.strip_suffix(".compute"))
        {
            let per_position: Vec<f64> = match (layers.secs.get(name), layers.work.get(name)) {
                (Some(s), Some(w)) => s.iter().zip(w).map(|(s, w)| s * 1e9 / w).collect(),
                _ => Vec::new(),
            };
            out.set(
                &format!("mapper.{alg}.ns_per_position"),
                median_or_zero(&per_position),
            );
        }
    }
    let bytes = layers
        .work
        .get("protocol.write")
        .cloned()
        .unwrap_or_default();
    out.set("protocol.response_bytes", median_or_zero(&bytes));
    let stats = chain.stats();
    let (hits, misses) = (stats.hits - mark.hits, stats.misses - mark.misses);
    out.set("cache.hits", hits as f64);
    out.set("cache.misses", misses as f64);
    let lookups = (hits + misses).max(1) as f64;
    out.set("cache.hit_ratio", hits as f64 / lookups);
    out.set(
        "cache.evictions",
        (chain.evictions() - mark.evictions) as f64,
    );
    out.set(
        "partition.refine_swaps",
        (chain.refine_swaps - mark.swaps) as f64,
    );
    for name in COUNTED_LAYERS {
        out.set(name, layers.counts.get(name).copied().unwrap_or(0.0));
    }
    let appended = layers
        .counts
        .get("persist.appended")
        .copied()
        .unwrap_or(0.0);
    out.set("persist.records_per_request", appended / requests as f64);
    let untraced = layers.counts.get("untraced_s").copied().unwrap_or(0.0);
    let traced = layers.time("service.handle_line").1;
    out.note("trace.untraced_chain_total_s", untraced, "s");
    out.note("trace.traced_chain_total_s", traced, "s");
    out.note(
        "trace.overhead_share",
        traced / untraced.max(f64::MIN_POSITIVE) - 1.0,
        "ratio",
    );
}

/// Frames each line (plus newline) with the server's framer, one span each.
fn frame_lines(tracer: &mut Tracer, lines: &[&str]) -> Res<()> {
    let mut framer = LineFramer::new();
    let mut frames = Vec::new();
    let mut bytes = Vec::new();
    for line in lines {
        bytes.clear();
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        frames.clear();
        tracer.span("server.frame", || framer.push(&bytes, &mut frames));
        checked();
        if frames.len() != 1 || frames[0] != Frame::Line(line.to_string()) {
            return wrong(format!("LineFramer split {line} into {frames:?}"));
        }
    }
    Ok(())
}

/// `count` lines cycling through `lines` in a seeded order.
fn cycle(seed: u64, lines: &[Line], count: usize) -> Vec<&str> {
    let mut order: Vec<usize> = (0..lines.len()).collect();
    Rng::new(seed, 0x7ACE).shuffle(&mut order);
    (0..count)
        .map(|i| lines[order[i % lines.len()]].text.as_str())
        .collect()
}

/// Replays in batches until `budget` seconds have passed (at least one
/// batch), returning the `handle_line` seconds of every line replayed.
fn replay_for(
    budget: f64,
    svc: &MappingService,
    twins: &mut Twins,
    layers: &mut Layers,
    lines: &[&str],
) -> Res<Vec<f64>> {
    let start = Instant::now();
    let mut done = Vec::new();
    for batch in lines.chunks(256) {
        let secs = replay(svc, twins, layers, batch, done.len())?;
        done.extend(secs);
        if secs_since(start) > budget {
            break;
        }
    }
    Ok(done)
}

/// Warms the twins (and `svc`) with `lines`, discarding the spans, and
/// returns the counters to measure from.
fn warm_twins(svc: &MappingService, twins: &mut Twins, lines: &[&str]) -> Res<Mark> {
    replay(svc, twins, &mut Layers::default(), lines, 0)?;
    twins.tracer.spans.clear();
    Ok(Mark::of(&twins.traced))
}

fn finish_trace(
    mut out: Outcome,
    twins: Twins,
    mut layers: Layers,
    mark: &Mark,
    requests: usize,
) -> Outcome {
    layers.absorb(&twins.tracer);
    layer_metrics(&mut out, &layers, &twins.traced, mark, requests);
    out.report.push(("layers".to_string(), layers.summary()));
    out.attempted += requests as u64;
    out.tracers = vec![(String::new(), twins.tracer)];
    out
}

pub fn cold_map_traced(ctx: &Ctx) -> Res<Outcome> {
    let cfg = ServiceConfig::default();
    let svc = service(&cfg)?;
    let mut twins = Twins::new(&cfg);
    let mut layers = Layers::default();
    let mark = warm_twins(&svc, &mut twins, &[WARM_LINE])?;
    let lines = gen::cold_round(ctx.seed, 0);
    let texts: Vec<&str> = lines.iter().map(|l| l.text.as_str()).collect();
    replay(&svc, &mut twins, &mut layers, &texts, 0)?;
    for line in &lines {
        // the service answers the line again as a hit; the table is checked
        // as in `cold_map`
        let again = svc.handle_line(&line.text);
        check_cold(&svc, line, &without_cached_flag(&again))?;
    }
    Ok(finish_trace(
        Outcome::default(),
        twins,
        layers,
        &mark,
        lines.len(),
    ))
}

/// The in-process replay of the `hot_hits` lines for `budget` seconds.
fn hot_section(ctx: &Ctx, budget: f64) -> Res<Outcome> {
    let lines = gen::hot_lines(ctx.seed);
    let cfg = ServiceConfig::default();
    let svc = service(&cfg)?;
    let mut twins = Twins::new(&cfg);
    let mut layers = Layers::default();
    let warm: Vec<&str> = lines.iter().map(|l| l.text.as_str()).collect();
    let mark = warm_twins(&svc, &mut twins, &warm)?;
    let texts = cycle(ctx.seed, &lines, 100 * lines.len());
    let n = replay_for(budget, &svc, &mut twins, &mut layers, &texts)?.len();
    Ok(finish_trace(Outcome::default(), twins, layers, &mark, n))
}

/// Per-layer metrics that the routed and the churn sections of the traced
/// `hot_hits` run measure (by name prefix); every other one comes from its
/// hit replay, where the cache only hits and nothing is persisted.
const ROUTED_LAYERS: [&str; 1] = ["router."];
const CHURN_LAYERS: [&str; 7] = [
    "persist.",
    "server.",
    "cache.insert",
    "cache.evictions",
    "cache.hits",
    "cache.misses",
    "cache.hit_ratio",
];

/// The traced `hot_hits` run: the hit replay, then the routed section (a
/// router over two warmed backends) and the churn section (a server with
/// persistence and a cache too small for its Zipf key set), a third of the
/// run each.  Their span stores are written side by side.
pub fn hot_hits_traced(ctx: &Ctx) -> Res<Outcome> {
    let budget = ctx.seconds / 3.0;
    let mut out = hot_section(ctx, budget)?;
    let sections = [
        ("routed", &ROUTED_LAYERS[..], routed_section(ctx, budget)?),
        ("churn", &CHURN_LAYERS[..], churn_section(ctx, budget)?),
    ];
    for (name, owned, section) in sections {
        for (metric, value) in section.metrics {
            if owned.iter().any(|p| metric.starts_with(p)) {
                out.metrics.insert(metric, value);
            }
        }
        out.attempted += section.attempted;
        out.report
            .push((name.to_string(), Value::Obj(section.report)));
        out.tracers.extend(
            section
                .tracers
                .into_iter()
                .map(|(_, tracer)| (name.to_string(), tracer)),
        );
    }
    Ok(out)
}

/// Routed section: the routed lines replayed in process, then sent both
/// to their owning backend and through the router, `budget` seconds in all.
fn routed_section(ctx: &Ctx, budget: f64) -> Res<Outcome> {
    let lines = routed_lines(ctx.seed);
    let cfg = ServiceConfig::default();
    let svc = warm_service(&lines)?;
    let refs = references(&svc, &lines);
    let routed = Routed::start(ctx, &lines, &refs, 0)?;
    let ring = Ring::new(&routed.specs());

    // the request path a backend runs for these lines, in process
    let shadow = default_service()?;
    let mut twins = Twins::new(&cfg);
    let mut layers = Layers::default();
    let warm: Vec<&str> = lines.iter().map(|l| l.text.as_str()).collect();
    let mark = warm_twins(&shadow, &mut twins, &warm)?;
    let texts = cycle(ctx.seed, &lines, 50 * lines.len());
    let n = replay_for(budget / 2.0, &shadow, &mut twins, &mut layers, &texts)?.len();

    // round trips for the same lines: the in-process hit, the owning
    // backend directly and through the router; the router's placement
    // hash is timed on its own
    let mut via_router = Conn::connect(&routed.router.addr)?;
    let mut direct: Vec<Conn> = routed
        .backends
        .iter()
        .map(|b| Conn::connect(&b.addr))
        .collect::<Res<_>>()?;
    let tracer = &mut twins.tracer;
    let start = Instant::now();
    let mut tcp_lines = 0;
    for (i, line) in cycle(ctx.seed ^ 1, &lines, 20 * lines.len())
        .into_iter()
        .enumerate()
    {
        if secs_since(start) > budget / 2.0 {
            break;
        }
        tracer.set_request(n + i);
        let req = MapRequest::from_value(&Value::parse(line).expect("generated lines parse"))
            .expect("generated requests decode");
        let owner = tracer.span("router.hash", || {
            ring.lookup(fnv1a_64(&CacheKey::of_request(&req).routing_bytes()))
        });
        let reference = &refs[lines
            .iter()
            .position(|l| l.text == line)
            .expect("line of the set")];
        let inproc = timed(|| svc.handle_line(line)).1;
        let (d, rtt_direct) = timed(|| direct[owner].call(line));
        let (r, rtt_router) = timed(|| via_router.call(line));
        let (d, r) = (d?, r?);
        check_same(line, &d, reference)?;
        check_same(line, &r, reference)?;
        if d.contains("\"cached\":false") {
            return wrong(format!(
                "{line}: backend {owner} is not the key's owner (answered a miss)"
            ));
        }
        tracer.record("client.rtt_direct", rtt_direct);
        tracer.record("client.rtt_router", rtt_router);
        layers.sample("server.overhead", rtt_direct - inproc);
        layers.sample("router.hop", rtt_router - rtt_direct);
        tcp_lines += 1;
    }
    frame_lines(tracer, &warm)?;
    let stats = parse_ok("stats", &via_router.call("{\"admin\":\"stats\"}")?)?;
    for field in ["forwarded", "unavailable"] {
        let v = stat(&stats, &["router", field])?;
        layers.count(&format!("router.{field}"), v as f64);
    }
    let mut out = Outcome {
        attempted: tcp_lines,
        ..Outcome::default()
    };
    out.note("tcp_lines", tcp_lines as f64, "count");
    Ok(finish_trace(out, twins, layers, &mark, n))
}

/// Churn section: the churn sequence replayed in process with
/// persistence on, then sent to a server set up the same way, `budget`
/// seconds in all.
fn churn_section(ctx: &Ctx, budget: f64) -> Res<Outcome> {
    let churn = Churn::new(ctx.seed)?;
    let cfg = churn_config(ctx.tmp.join("trace.persist"));
    let svc = service(&cfg)?;
    let mut twins = Twins::new(&cfg);
    let mut layers = Layers::default();
    let warm: Vec<&str> = churn
        .hottest()
        .iter()
        .map(|&k| churn.universe[k].text.as_str())
        .collect();
    let mark = warm_twins(&svc, &mut twins, &warm)?;
    svc.flush_persistence();
    let before = svc.persist_stats().expect("persistence is on");
    let keys = gen::churn_keys(ctx.seed, CHURN_REQUESTS, &churn.zipf);
    let texts: Vec<&str> = keys
        .iter()
        .map(|&k| churn.universe[k].text.as_str())
        .collect();
    let inproc = replay_for(budget / 2.0, &svc, &mut twins, &mut layers, &texts)?;
    let n = inproc.len();
    svc.flush_persistence();
    let after = svc.persist_stats().expect("persistence is on");
    layers.count(
        "persist.appended",
        (after.appended - before.appended) as f64,
    );
    layers.count("persist.flushes", (after.flushes - before.flushes) as f64);
    layers.count(
        "persist.compactions",
        (after.compactions - before.compactions) as f64,
    );
    layers.count("persist.dropped", (after.dropped - before.dropped) as f64);
    drop(svc);

    // the same sequence against a server started and warmed the same way,
    // one request at a time: client round trip minus the in-process
    // handle_line time of the same line
    let server = churn.start(ctx, 99)?;
    let mut conn = Conn::connect(&server.addr)?;
    let tracer = &mut twins.tracer;
    let start = Instant::now();
    let mut tcp_lines = 0;
    for (i, line) in texts[..n].iter().enumerate() {
        if secs_since(start) > budget / 2.0 {
            break;
        }
        tracer.set_request(n + i);
        let (r, rtt) = timed(|| conn.call(line));
        check_same(line, &r?, &churn.refs[keys[i]])?;
        tracer.record("client.rtt", rtt);
        layers.sample("server.overhead", rtt - inproc[i]);
        tcp_lines += 1;
    }
    frame_lines(tracer, &texts[..n])?;
    let mut out = Outcome {
        attempted: tcp_lines,
        ..Outcome::default()
    };
    out.note("tcp_lines", tcp_lines as f64, "count");
    Ok(finish_trace(out, twins, layers, &mark, n))
}
