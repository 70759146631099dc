//! Seeded request generation for the workloads and the traced sections.  The program under
//! test only ever sees the generated NDJSON lines; everything here is a
//! pure function of the seed.

use std::fmt::Write;

use stencil_grid::dims_create::dims_create;
use stencil_grid::{Dims, NodeAllocation, Stencil};
use stencil_mapping::canonical::canonicalize;
use stencil_mapping::MappingProblem;

use crate::util::Rng;

/// One mapping problem as a client states it (dimension order as sent).
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub dims: Vec<usize>,
    pub nodes: usize,
    pub procs_per_node: usize,
    /// `true` for the wider `hops` stencil, `false` for nearest neighbours.
    pub hops: bool,
    pub periodic: bool,
    pub algorithm: &'static str,
    /// Request seed; only sent (and only part of the key) for `viem`.
    pub seed: Option<u64>,
}

/// What the response should carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    CostOnly,
    Verbose,
    Compact,
    Points(Vec<usize>),
}

impl Spec {
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    pub fn stencil(&self) -> Stencil {
        if self.hops {
            Stencil::nearest_neighbor_with_hops(self.dims.len())
        } else {
            Stencil::nearest_neighbor(self.dims.len())
        }
    }

    /// The problem in the request's own dimension order.
    pub fn problem(&self) -> MappingProblem {
        MappingProblem::with_periodicity(
            Dims::from_slice(&self.dims),
            self.stencil(),
            NodeAllocation::homogeneous(self.nodes, self.procs_per_node),
            self.periodic,
        )
        .expect("generated problems are consistent")
    }

    /// Whether the service keeps this dimension order as its canonical one.
    pub fn is_canonical_order(&self) -> bool {
        canonicalize(&Dims::from_slice(&self.dims), &self.stencil()).is_identity_permutation()
    }

    /// The request object (no trailing newline).
    pub fn request(&self, shape: &Shape) -> String {
        let mut s = String::from("{\"dims\":[");
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{d}");
        }
        let _ = write!(
            s,
            "],\"nodes\":{},\"procs_per_node\":{}",
            self.nodes, self.procs_per_node
        );
        if self.hops {
            s.push_str(",\"stencil\":\"hops\"");
        }
        if self.periodic {
            s.push_str(",\"periodic\":true");
        }
        let _ = write!(s, ",\"algorithm\":\"{}\"", self.algorithm);
        if let Some(seed) = self.seed {
            let _ = write!(s, ",\"seed\":{seed}");
        }
        match shape {
            Shape::CostOnly => s.push_str(",\"want_mapping\":false"),
            Shape::Verbose => {}
            Shape::Compact => s.push_str(",\"encoding\":\"compact\""),
            Shape::Points(ranks) => {
                s.push_str(",\"query\":\"new_rank_of\",\"ranks\":[");
                for (i, r) in ranks.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{r}");
                }
                s.push(']');
            }
        }
        s.push('}');
        s
    }
}

/// One wire line: a single request, or a batch of them.
#[derive(Debug, Clone)]
pub struct Line {
    pub text: String,
    /// `(spec, shape)` of every request on the line, in order.
    pub items: Vec<(Spec, Shape)>,
    pub is_batch: bool,
}

impl Line {
    pub fn single(spec: Spec, shape: Shape) -> Line {
        Line {
            text: spec.request(&shape),
            items: vec![(spec, shape)],
            is_batch: false,
        }
    }

    pub fn batch(items: Vec<(Spec, Shape)>) -> Line {
        let bodies: Vec<String> = items.iter().map(|(s, sh)| s.request(sh)).collect();
        Line {
            text: format!("{{\"batch\":[{}]}}", bodies.join(",")),
            items,
            is_batch: true,
        }
    }

    /// Grid positions answered by this line.
    pub fn volume(&self) -> usize {
        self.items.iter().map(|(s, _)| s.volume()).sum()
    }
}

// ---------------------------------------------------------------- cold_map

/// One request class of a `cold_map` round.
struct ColdClass {
    algorithm: &'static str,
    /// Base extents in canonical (ascending) order.
    dims: &'static [usize],
    /// Added to the last extent once per round after the first, keeping
    /// the volume a multiple of `procs_per_node`, so every round's keys are
    /// new.
    step: usize,
    procs_per_node: usize,
    hops: bool,
    shape: fn() -> Shape,
}

/// The `cold_map` mix: 2-D and 3-D grids from p = 2.6·10^5 to 10^6, node
/// counts around 100 and 10^4, nearest-neighbour and hop stencils, every
/// paper mapper plus the VieM-style graph mapper at p ≈ 10^5, and all three
/// table forms.
const COLD: [ColdClass; 8] = [
    ColdClass {
        algorithm: "hyperplane",
        dims: &[1000, 1000],
        step: 1,
        procs_per_node: 100,
        hops: false,
        shape: || Shape::CostOnly,
    },
    ColdClass {
        algorithm: "hyperplane",
        dims: &[100, 100, 100],
        step: 1,
        procs_per_node: 10_000,
        hops: false,
        shape: || Shape::Compact,
    },
    ColdClass {
        algorithm: "stencil_strips",
        dims: &[1000, 1000],
        step: 1,
        procs_per_node: 100,
        hops: true,
        shape: || Shape::Verbose,
    },
    ColdClass {
        algorithm: "kdtree",
        dims: &[100, 100, 100],
        step: 1,
        procs_per_node: 100,
        hops: false,
        shape: || Shape::Compact,
    },
    ColdClass {
        algorithm: "nodecart",
        dims: &[500, 520],
        step: 26,
        procs_per_node: 2600,
        hops: true,
        shape: || Shape::Verbose,
    },
    ColdClass {
        algorithm: "nodecart",
        dims: &[100, 100, 100],
        step: 1,
        procs_per_node: 10_000,
        hops: false,
        shape: || Shape::CostOnly,
    },
    ColdClass {
        algorithm: "kdtree",
        dims: &[500, 520],
        step: 26,
        procs_per_node: 2600,
        hops: false,
        shape: || Shape::Compact,
    },
    ColdClass {
        algorithm: "viem",
        dims: &[320, 320],
        step: 16,
        procs_per_node: 1024,
        hops: false,
        shape: || Shape::CostOnly,
    },
];

/// Round `round` of `cold_map`: one request per class, in class order (so
/// that the same allocations are alive at the same time in every run).
/// Round 0 keeps the base extents for every seed (its mappings feed the
/// quality totals); the seed picks the dimension order as sent and the
/// VieM seed.
pub fn cold_round(seed: u64, round: usize) -> Vec<Line> {
    let mut rng = Rng::new(seed, 0xC01D_0000 + round as u64);
    COLD.iter()
        .enumerate()
        .map(|(i, c)| {
            let mut dims = c.dims.to_vec();
            *dims.last_mut().expect("classes have dims") += round * c.step;
            let volume: usize = dims.iter().product();
            debug_assert_eq!(volume % c.procs_per_node, 0);
            let periodic = i % 2 == 1;
            // the hop stencil is anisotropic: permuting its dims would
            // change the problem, so only nearest-neighbour requests are
            // sent in a shuffled order
            if !c.hops {
                rng.shuffle(&mut dims);
            }
            let seed = (c.algorithm == "viem").then(|| 1 + rng.below(1 << 20) as u64);
            let spec = Spec {
                dims,
                nodes: volume / c.procs_per_node,
                procs_per_node: c.procs_per_node,
                hops: c.hops,
                periodic,
                algorithm: c.algorithm,
                seed,
            };
            Line::single(spec, (c.shape)())
        })
        .collect()
}

// ----------------------------------------------------- hot_hits, churn keys

/// Procs-per-node values that slots cycle through.
const SLOT_PROCS_PER_NODE: [usize; 7] = [8, 16, 12, 24, 32, 6, 4];

/// The problem of slot `j` with roughly `target` positions.  Its shape
/// (2-D or 3-D), allocation, stencil, boundary and algorithm cycle with
/// `j`, so the mix of work is the same for every seed; the seed picks only
/// the VieM seed (and the callers the dimension order).  The node count is
/// the one nearest `target / procs_per_node` whose balanced grid has no
/// extent below 3 and an aspect ratio of at most 4.
fn slot_spec(
    rng: &mut Rng,
    target: f64,
    j: usize,
    algorithms: &[&'static str],
    viem_max: usize,
) -> Spec {
    let ndims = 2 + j % 2;
    let procs_per_node = SLOT_PROCS_PER_NODE[j % SLOT_PROCS_PER_NODE.len()];
    let base = ((target / procs_per_node as f64).round() as usize).max(2);
    let (nodes, mut dims) = (0..base)
        .flat_map(|d| [base + d, base - d])
        .filter(|&k| k >= 2)
        .map(|k| (k, dims_create(k * procs_per_node, ndims)))
        .find(|(_, dims)| {
            let (lo, hi) = (dims[dims.len() - 1], dims[0]);
            lo >= 3 && hi <= 4 * lo
        })
        .expect("some node count near the target has a balanced grid");
    dims.reverse();
    let mut algorithm = algorithms[j % algorithms.len()];
    if algorithm == "viem" && nodes * procs_per_node > viem_max {
        algorithm = "hyperplane";
    }
    Spec {
        dims,
        nodes,
        procs_per_node,
        hops: j % 3 == 2,
        periodic: (j / 3) % 3 == 1,
        algorithm,
        seed: (algorithm == "viem").then(|| rng.below(1000) as u64),
    }
}

/// Sends `spec` in an order the service keeps as its canonical one, or
/// (when `permuted`) in a random other order, which costs a restore on
/// table responses.  Hop stencils are anisotropic, so their order is part
/// of the problem and stays as generated.
fn orient(rng: &mut Rng, spec: &mut Spec, permuted: bool) {
    if spec.hops {
        return;
    }
    for _ in 0..64 {
        rng.shuffle(&mut spec.dims);
        if spec.is_canonical_order() != permuted {
            return;
        }
    }
    // all extents equal: every order is canonical
    spec.dims.sort_unstable();
}

const HOT_ALGORITHMS: [&str; 10] = [
    "hyperplane",
    "kdtree",
    "stencil_strips",
    "hyperplane",
    "nodecart",
    "kdtree",
    "viem",
    "hyperplane",
    "stencil_strips",
    "blocked",
];

/// Target size of slot `j` of `m`: a geometric ladder from 10^3 to
/// 1.6·10^4 positions, so every response shape covers the same sizes
/// whatever the seed.
fn ladder(j: usize, m: usize) -> f64 {
    1000.0 * 16f64.powf((j as f64 + 0.5) / m as f64)
}

/// Batch lines of the `hot_hits` working set, and items per batch.
const BATCHES: usize = 12;
const BATCH_ITEMS: usize = 4;

/// The `hot_hits` working set: 92 keys and 104 lines.  The number of lines
/// of each shape is fixed (24 verbose tables, 12 compact tables in the
/// canonical order and 12 permuted, 24 cost-only, 20 point queries and 12
/// batches of four cheap items); the seed picks everything else.
pub fn hot_lines(seed: u64) -> Vec<Line> {
    let mut rng = Rng::new(seed, 0x4077);
    let mut lines = Vec::new();
    let mut specs = Vec::new();
    // Each group starts its slot cycles at its own offset, so that no two
    // groups ask for the same problem.  Half of each group is sent in a
    // permuted order, so the share of responses that pay a restore does
    // not depend on the seed.
    let mut offset = 0;
    let mut group = |rng: &mut Rng,
                     m: usize,
                     shape: &dyn Fn(&mut Rng, &Spec) -> Shape,
                     permuted: Option<bool>| {
        offset += 5;
        for j in 0..m {
            let mut spec = slot_spec(rng, ladder(j, m), j + offset, &HOT_ALGORITHMS, 8000);
            orient(rng, &mut spec, permuted.unwrap_or(j % 2 == 1));
            let shape = shape(rng, &spec);
            specs.push(spec.clone());
            lines.push(Line::single(spec, shape));
        }
    };
    group(&mut rng, 24, &|_, _| Shape::Verbose, None);
    group(&mut rng, 12, &|_, _| Shape::Compact, Some(false));
    group(&mut rng, 12, &|_, _| Shape::Compact, Some(true));
    group(&mut rng, 24, &|_, _| Shape::CostOnly, None);
    group(&mut rng, 20, &|rng, s| points(rng, s), None);
    // each batch item draws from its own stratum of the working set ordered
    // by size, so the seed picks which problems a batch asks for but hardly
    // how many positions they add up to
    let mut by_size: Vec<usize> = (0..specs.len()).collect();
    by_size.sort_by_key(|&k| specs[k].volume());
    let mut strata: Vec<usize> = (0..BATCHES * BATCH_ITEMS).collect();
    rng.shuffle(&mut strata);
    for batch in strata.chunks(BATCH_ITEMS) {
        let items = batch
            .iter()
            .enumerate()
            .map(|(i, &stratum)| {
                let lo = stratum * specs.len() / strata.len();
                let hi = (stratum + 1) * specs.len() / strata.len();
                let spec = specs[by_size[lo + rng.below(hi - lo)]].clone();
                let shape = if i % 2 == 0 {
                    Shape::CostOnly
                } else {
                    points(&mut rng, &spec)
                };
                (spec, shape)
            })
            .collect();
        lines.push(Line::batch(items));
    }
    rng.shuffle(&mut lines);
    lines
}

fn points(rng: &mut Rng, spec: &Spec) -> Shape {
    let p = spec.volume();
    Shape::Points((0..16).map(|_| rng.below(p)).collect())
}

/// Keys of the churn universe (the churn section of the traced `hot_hits`
/// run).
pub const CHURN_KEYS: usize = 384;

const CHURN_ALGORITHMS: [&str; 7] = [
    "hyperplane",
    "kdtree",
    "stencil_strips",
    "hyperplane",
    "nodecart",
    "blocked",
    "viem",
];

/// The churn key universe: small instances on a size ladder from 64
/// to 4096 positions (VieM only up to 256), three in four asked cost-only
/// and one in four as a compact table.
pub fn churn_universe(seed: u64) -> Vec<Line> {
    let mut rng = Rng::new(seed, 0xC4_0000);
    (0..CHURN_KEYS)
        .map(|i| {
            let target = 64.0 * 64f64.powf((i as f64 + 0.5) / CHURN_KEYS as f64);
            let mut spec = slot_spec(&mut rng, target.min(4000.0), i, &CHURN_ALGORITHMS, 256);
            orient(&mut rng, &mut spec, i % 2 == 1);
            let shape = if i % 4 == 3 {
                Shape::Compact
            } else {
                Shape::CostOnly
            };
            Line::single(spec, shape)
        })
        .collect()
}

/// Zipf(1) popularity over the universe: `ranked[r]` is the key of
/// popularity rank `r` and `cdf` the cumulative weight.  Ranks stride
/// through the size ladder (97 is coprime with the universe size), so the
/// hot keys span all sizes and the miss cost of the mix does not depend on
/// the seed.
pub struct Zipf {
    pub ranked: Vec<usize>,
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let ranked = (0..n).map(|r| (r * 97) % n).collect();
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        Zipf { ranked, cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cdf.last().expect("non-empty universe");
        let x = rng.unit() * total;
        let r = self
            .cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1);
        self.ranked[r]
    }
}

/// The churn request sequence: `count` keys drawn from the popularity law.
pub fn churn_keys(seed: u64, count: usize, zipf: &Zipf) -> Vec<usize> {
    let mut rng = Rng::new(seed, 0x0CE4_0000);
    (0..count).map(|_| zipf.sample(&mut rng)).collect()
}
