//! The outside-in layer trace.
//!
//! [`Chain`] replays a request line through the same public calls that
//! `MappingService::handle_line` makes, recording one span per call into a
//! [`Tracer`].  The program itself carries no instrumentation: the spans sit
//! around library calls made from this file, and every traced line is
//! checked to produce exactly the bytes `handle_line` produces.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use graph_partition::{partition, refine_kway_with, Graph, PartitionConfig, RefineConfig};
use stencil_grid::CartGraph;
use stencil_mapping::baselines::Blocked;
use stencil_mapping::canonical::canonicalize;
use stencil_mapping::hyperplane::Hyperplane;
use stencil_mapping::kdtree::KdTree;
use stencil_mapping::metrics::evaluate_streaming;
use stencil_mapping::nodecart::Nodecart;
use stencil_mapping::stencil_strips::StencilStrips;
use stencil_mapping::viem::GraphMapper;
use stencil_mapping::{MapError, Mapper, Mapping, MappingProblem};
use stencil_serve::json::{encode_nodes_compact, Value};
use stencil_serve::service::{entry_cost, CacheEntry, CacheKey, ServiceConfig};
use stencil_serve::{
    Algorithm, CacheStats, Encoding, MapRequest, MapResponse, Payload, Query, ResponseBody,
    ShardedLru,
};

use cluster_sim::stats::median;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.  Times are nanoseconds since the tracer's epoch;
/// `work` is a size attached by the caller (positions mapped, bytes
/// written), 0 when none.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u32,
    pub work: u64,
    /// Nanoseconds covered by direct children.
    pub child: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store with a parent stack; written out once at the end.
/// A disabled tracer records nothing, so the same call chain runs with and
/// without tracing and the difference is the tracing overhead.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    req: u32,
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
            enabled: true,
        }
    }

    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_request(&mut self, req: usize) {
        self.req = req as u32;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req: self.req,
            work: 0,
            child: 0,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the innermost open span, attaching `work` to it.
    pub fn end(&mut self, work: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let end = self.now();
        let idx = self.stack.pop().expect("end without begin");
        let span = &mut self.spans[idx as usize];
        span.end = end;
        span.work = work;
        let (dur, parent) = (span.dur(), span.parent);
        if parent != NO_PARENT {
            self.spans[parent as usize].child += dur;
        }
        idx
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end(0);
        out
    }

    /// Records a span measured elsewhere (a client round trip), as a root.
    pub fn record(&mut self, name: &'static str, secs: f64) {
        let end = self.now();
        let start = end.saturating_sub((secs * 1e9) as u64);
        self.spans.push(Span {
            name,
            start,
            end,
            parent: NO_PARENT,
            req: self.req,
            work: 0,
            child: 0,
        });
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"span\":{i},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"work\":{}}}",
                s.req,
                s.name,
                s.start,
                s.end,
                s.dur().saturating_sub(s.child),
                s.work
            )?;
        }
        out.flush()
    }
}

/// Per-layer samples gathered from spans and from measurements made around
/// them (round-trip differences), plus counters.
#[derive(Default)]
pub struct Layers {
    /// Seconds per call, keyed by layer name (`json.parse`, ...).
    pub secs: BTreeMap<String, Vec<f64>>,
    /// Self seconds per call (span duration minus its children).
    pub self_secs: BTreeMap<String, Vec<f64>>,
    /// Work attached to calls (positions, bytes).
    pub work: BTreeMap<String, Vec<f64>>,
    pub counts: BTreeMap<String, f64>,
}

impl Layers {
    pub fn sample(&mut self, name: &str, secs: f64) {
        self.secs.entry(name.to_string()).or_default().push(secs);
    }

    pub fn count(&mut self, name: &str, value: f64) {
        *self.counts.entry(name.to_string()).or_default() += value;
    }

    /// Folds every finished span into the samples.
    pub fn absorb(&mut self, tracer: &Tracer) {
        for s in &tracer.spans {
            let secs = s.dur() as f64 * 1e-9;
            self.sample(s.name, secs);
            self.self_secs
                .entry(s.name.to_string())
                .or_default()
                .push(s.dur().saturating_sub(s.child) as f64 * 1e-9);
            if s.work > 0 {
                self.work
                    .entry(s.name.to_string())
                    .or_default()
                    .push(s.work as f64);
            }
        }
    }

    /// Median and total seconds of a layer (zeros when it did no work on
    /// this workload).
    pub fn time(&self, name: &str) -> (f64, f64) {
        match self.secs.get(name) {
            Some(v) if !v.is_empty() => (median(v), v.iter().sum()),
            _ => (0.0, 0.0),
        }
    }

    /// Per-layer summary for the report: calls, median and total of the
    /// inclusive and the self time.
    pub fn summary(&self) -> Value {
        Value::obj(
            self.secs
                .iter()
                .map(|(name, v)| {
                    let own = self.self_secs.get(name).cloned().unwrap_or_default();
                    (
                        name.as_str(),
                        Value::obj(vec![
                            ("calls", Value::Num(v.len() as f64)),
                            ("median_s", Value::Num(median(v))),
                            ("total_s", Value::Num(v.iter().sum())),
                            (
                                "self_median_s",
                                Value::Num(if own.is_empty() { 0.0 } else { median(&own) }),
                            ),
                            ("self_total_s", Value::Num(own.iter().sum())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

fn mapper_span(alg: Algorithm) -> &'static str {
    match alg {
        Algorithm::Hyperplane => "mapper.hyperplane.compute",
        Algorithm::KdTree => "mapper.kdtree.compute",
        Algorithm::StencilStrips => "mapper.stencil_strips.compute",
        Algorithm::Nodecart => "mapper.nodecart.compute",
        Algorithm::Viem => "mapper.viem.compute",
        Algorithm::Blocked => "mapper.blocked.compute",
    }
}

/// The replayed request path: its own cache, configured like the service it
/// shadows, so that hits, misses and evictions follow the same sequence.
pub struct Chain {
    cache: ShardedLru<CacheKey, Arc<CacheEntry>>,
    inserts: u64,
    pub refine_swaps: u64,
}

impl Chain {
    pub fn new(cfg: &ServiceConfig) -> Chain {
        Chain {
            cache: ShardedLru::with_policy(cfg.cache_capacity, cfg.cache_shards, cfg.eviction),
            inserts: 0,
            refine_swaps: 0,
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Entries evicted so far: every insert of a new key stays resident
    /// unless something was evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.inserts - self.cache.stats().len as u64
    }

    /// Appends the response line for `line` to `out`, one root span
    /// `service.handle_line` per line.  Returns the root span index.
    pub fn handle_line(&mut self, t: &mut Tracer, line: &str, out: &mut String) -> u32 {
        t.begin("service.handle_line");
        let parsed = t.span("json.parse", || Value::parse(line));
        match parsed {
            Err(e) => MapResponse {
                id: None,
                body: ResponseBody::Error(format!("invalid JSON: {e}")),
            }
            .write_into(out),
            Ok(v) => match v.get("batch").and_then(Value::as_arr) {
                Some(items) => {
                    out.push_str("{\"batch\":[");
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        self.handle_value(t, item, out);
                    }
                    out.push_str("]}");
                }
                None => self.handle_value(t, &v, out),
            },
        }
        t.end(0)
    }

    fn handle_value(&mut self, t: &mut Tracer, v: &Value, out: &mut String) {
        let response = match t.span("protocol.decode", || MapRequest::from_value(v)) {
            Ok(req) => self.handle_request(t, &req),
            Err(e) => MapResponse {
                id: v.get("id").cloned(),
                body: ResponseBody::Error(e),
            },
        };
        t.begin("protocol.write");
        let before = out.len();
        response.write_into(out);
        t.end((out.len() - before) as u64);
    }

    fn handle_request(&mut self, t: &mut Tracer, req: &MapRequest) -> MapResponse {
        let canon = t.span("canonical.canonicalize", || {
            canonicalize(&req.dims, &req.stencil)
        });
        let key = CacheKey::of_canonical(req, &canon, req.algorithm, req.seed);
        let hit = t.span("cache.lookup", || self.cache.get(&key));
        let (entry, cached) = match hit {
            Some(entry) => (entry, true),
            None => {
                let problem = MappingProblem::with_periodicity(
                    canon.dims.clone(),
                    canon.stencil.clone(),
                    req.alloc.clone(),
                    req.periodic,
                );
                let computed = problem
                    .map_err(|e| format!("inconsistent problem: {e}"))
                    .and_then(|problem| {
                        t.begin(mapper_span(req.algorithm));
                        let mapping = self.compute(t, req.algorithm, req.seed, &problem);
                        t.end(problem.num_processes() as u64);
                        mapping.map_err(|e| format!("{}: {e}", req.algorithm.wire_name()))
                    });
                let mapping = match computed {
                    Ok(m) => m,
                    Err(e) => {
                        return MapResponse {
                            id: req.id.clone(),
                            body: ResponseBody::Error(e),
                        }
                    }
                };
                let cost = t.span("metrics.score", || {
                    evaluate_streaming(&canon.dims, &canon.stencil, req.periodic, &mapping)
                });
                let entry = Arc::new(CacheEntry::new(
                    mapping
                        .node_of_position_slice()
                        .iter()
                        .map(|&n| n as u32)
                        .collect(),
                    cost.j_sum,
                    cost.j_max,
                ));
                let cost = entry_cost(&key);
                let value = Arc::clone(&entry);
                t.span("cache.insert", || {
                    self.cache.insert_with_cost(key, value, cost)
                });
                self.inserts += 1;
                (entry, false)
            }
        };
        let payload = match &req.query {
            Some(Query::NewRankOf(ranks)) => t.span("canonical.restore", || Payload::Points {
                nodes: ranks
                    .iter()
                    .map(|&x| entry.nodes[canon.canonical_index_of(&req.dims, x)])
                    .collect(),
                ranks: ranks.clone(),
            }),
            None if !req.want_mapping => Payload::None,
            None => match req.encoding {
                Encoding::Verbose => t.span("canonical.restore", || {
                    Payload::Table(canon.restore_positions(&req.dims, &entry.nodes))
                }),
                Encoding::Compact if canon.is_identity_permutation() => t
                    .span("json.encode_compact", || {
                        Payload::TableCompact(entry.compact_encoding().to_string())
                    }),
                Encoding::Compact => {
                    let table = t.span("canonical.restore", || {
                        canon.restore_positions(&req.dims, &entry.nodes)
                    });
                    t.span("json.encode_compact", || {
                        Payload::TableCompact(encode_nodes_compact(&table))
                    })
                }
            },
        };
        MapResponse {
            id: req.id.clone(),
            body: ResponseBody::Ok {
                algorithm: req.algorithm,
                fallback_from: None,
                cached,
                degraded: false,
                j_sum: entry.j_sum,
                j_max: entry.j_max,
                payload,
            },
        }
    }

    /// The mapper call; the VieM-style pipeline is opened up into the
    /// grid, CSR, partition and refine calls `GraphMapper::compute` makes.
    fn compute(
        &mut self,
        t: &mut Tracer,
        alg: Algorithm,
        seed: u64,
        problem: &MappingProblem,
    ) -> Result<Mapping, MapError> {
        let mapper: Box<dyn Mapper> = match alg {
            Algorithm::Hyperplane => Box::new(Hyperplane::default()),
            Algorithm::KdTree => Box::new(KdTree),
            Algorithm::StencilStrips => Box::new(StencilStrips),
            Algorithm::Nodecart => Box::new(Nodecart),
            Algorithm::Blocked => Box::new(Blocked),
            Algorithm::Viem => {
                let gm = GraphMapper::with_seed(seed);
                let cart = t.span("grid.cart_graph", || {
                    CartGraph::build(problem.dims(), problem.stencil(), problem.periodic())
                });
                let graph = t.span("partition.csr", || {
                    Graph::from_directed_csr(cart.xadj(), cart.adjncy())
                });
                let cfg = PartitionConfig::new(problem.alloc().sizes().to_vec())
                    .with_seed(gm.seed)
                    .with_parallel(gm.parallel);
                let mut parts = t
                    .span("partition.partition", || partition(&graph, &cfg))
                    .map_err(|e| MapError::InvalidResult(format!("partitioner failed: {e}")))?;
                if gm.refine_rounds > 0 {
                    let refine = RefineConfig::new(gm.refine_rounds, gm.seed ^ 0x9E37)
                        .with_parallel(cfg.parallel);
                    let stats = t.span("partition.refine", || {
                        refine_kway_with(&graph, &mut parts, &refine)
                    });
                    self.refine_swaps += stats.swaps;
                }
                let node_of_position: Vec<usize> = parts.iter().map(|&p| p as usize).collect();
                return Mapping::from_node_of_position(problem, &node_of_position);
            }
        };
        mapper.compute(problem)
    }
}
