//! Property tests for the parallel mapping engine:
//!
//! * the streaming metrics evaluator (no graph materialisation) agrees bit
//!   for bit with the CSR evaluator on random grids and stencils, periodic
//!   and non-periodic,
//! * the whole-table kernels of Hyperplane, k-d Tree and Stencil Strips
//!   agree with their rank-local definition (`remap_rank`) for every rank,
//! * the parallel and sequential multilevel partitioner produce identical
//!   results for the same seed,
//! * the parallel k-way swap refinement produces identical partitions for
//!   every thread count (verified across real `RAYON_NUM_THREADS` settings
//!   via subprocesses) and with parallelism disabled outright.

use proptest::prelude::*;
use stencilmap::mapping::hyperplane::NodeSizeChoice;
use stencilmap::partition::{partition, refine_kway_with, Graph, PartitionConfig, RefineConfig};
use stencilmap::prelude::*;

fn stencil_for(ndims: usize, choice: u8) -> Stencil {
    match choice % 3 {
        0 => Stencil::nearest_neighbor(ndims),
        1 => Stencil::nearest_neighbor_with_hops(ndims),
        _ => {
            if ndims >= 2 {
                Stencil::component(ndims)
            } else {
                Stencil::nearest_neighbor(ndims)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streaming and CSR evaluation agree exactly on the paper stencils, for
    /// arbitrary grids, node counts and boundary conditions.
    #[test]
    fn streaming_metrics_equal_csr_metrics(
        sizes in proptest::collection::vec(1usize..8, 2..4),
        stencil_choice in 0u8..3,
        periodic in proptest::bool::ANY,
        groups in 1usize..7,
    ) {
        let p: usize = sizes.iter().product();
        if p.is_multiple_of(groups) {
            let dims = Dims::new(sizes).unwrap();
            let stencil = stencil_for(dims.ndims(), stencil_choice);
            let problem = MappingProblem::with_periodicity(
                dims,
                stencil,
                NodeAllocation::homogeneous(groups, p / groups),
                periodic,
            )
            .unwrap();
            let graph = CartGraph::build(problem.dims(), problem.stencil(), periodic);
            for mapping in [
                Blocked.compute(&problem).unwrap(),
                KdTree.compute(&problem).unwrap(),
                RandomMapping::with_seed(9).compute(&problem).unwrap(),
            ] {
                let csr = metrics::evaluate(&graph, &mapping);
                let streaming = metrics::evaluate_streaming(
                    problem.dims(),
                    problem.stencil(),
                    periodic,
                    &mapping,
                );
                prop_assert_eq!(&csr, &streaming);
            }
        }
    }

    /// Streaming evaluation also agrees on arbitrary (random-offset)
    /// stencils, not just the paper's three families.
    #[test]
    fn streaming_metrics_equal_csr_on_random_stencils(
        d0 in 1usize..7,
        d1 in 1usize..7,
        raw in proptest::collection::vec(-3i64..4, 2..12),
        periodic in proptest::bool::ANY,
    ) {
        let usable = raw.len() - raw.len() % 2;
        if usable >= 2 {
            if let Ok(stencil) = Stencil::from_flat(2, &raw[..usable]) {
                let p = d0 * d1;
                let problem = MappingProblem::with_periodicity(
                    Dims::from_slice(&[d0, d1]),
                    stencil,
                    NodeAllocation::homogeneous(1, p),
                    periodic,
                )
                .unwrap();
                let graph = CartGraph::build(problem.dims(), problem.stencil(), periodic);
                let mapping = Blocked.compute(&problem).unwrap();
                let csr = metrics::evaluate(&graph, &mapping);
                let streaming = metrics::evaluate_streaming(
                    problem.dims(),
                    problem.stencil(),
                    periodic,
                    &mapping,
                );
                prop_assert_eq!(&csr, &streaming);
            }
        }
    }

    /// The whole-table kernels match the rank-local definition for every
    /// rank, bit for bit: 2-D and 3-D grids with extents up to 64, all three
    /// paper stencils, and homogeneous as well as uneven allocations (which
    /// exercise Hyperplane's fallback split and every `NodeSizeChoice`).
    #[test]
    fn parallel_mapping_matches_rank_local_definition(
        extents in proptest::collection::vec(1usize..65, 2..4),
        stencil_choice in 0u8..3,
        weights in proptest::collection::vec(1usize..5, 1..24),
        uneven in proptest::bool::ANY,
    ) {
        let mut sizes = extents;
        // bound the volume so the p per-rank walks stay cheap in debug builds
        while sizes.iter().product::<usize>() > 4096 {
            let largest = (0..sizes.len()).max_by_key(|&i| sizes[i]).unwrap();
            sizes[largest] /= 2;
        }
        let dims = Dims::new(sizes).unwrap();
        let alloc = allocation(dims.volume(), &weights, uneven);
        let stencil = stencil_for(dims.ndims(), stencil_choice);
        let problem = MappingProblem::new(dims, stencil, alloc).unwrap();
        if let Err(msg) = kernels_match_rank_local_definition(&problem) {
            prop_assert!(false, "{}", msg);
        }
    }
    /// Parallel and sequential partitioner runs with the same seed produce
    /// identical assignments.
    #[test]
    fn partitioner_parallel_matches_sequential(
        rows in 2u32..8,
        cols in 2u32..8,
        parts in 2usize..5,
        seed in 0u64..10,
    ) {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    edges.push((v, v + 1, 1));
                }
                if r + 1 < rows {
                    edges.push((v, v + cols, 1));
                }
            }
        }
        let g = Graph::from_edges((rows * cols) as usize, &edges);
        let total = (rows * cols) as usize;
        if total.is_multiple_of(parts) {
            let sizes = vec![total / parts; parts];
            let par = partition(&g, &PartitionConfig::new(sizes.clone()).with_seed(seed)).unwrap();
            let seq = partition(
                &g,
                &PartitionConfig::new(sizes).with_seed(seed).with_parallel(false),
            )
            .unwrap();
            prop_assert_eq!(par, seq);
        }
    }
}

/// `weights.len()` (at most `p`) nodes hosting `p` processes: node sizes
/// proportional to `weights` when `uneven`, otherwise a homogeneous
/// allocation on the largest node count that divides `p`.
fn allocation(p: usize, weights: &[usize], uneven: bool) -> NodeAllocation {
    let nodes = weights.len().min(p);
    if !uneven {
        let nodes = (1..=nodes).rev().find(|&k| p.is_multiple_of(k)).unwrap();
        return NodeAllocation::homogeneous(nodes, p / nodes);
    }
    let weights = &weights[..nodes];
    let total: usize = weights.iter().sum();
    let mut sizes: Vec<usize> = weights[..nodes - 1]
        .iter()
        .map(|&w| 1 + (p - nodes) * w / total)
        .collect();
    sizes.push(p - sizes.iter().sum::<usize>());
    NodeAllocation::heterogeneous(sizes).unwrap()
}

/// The rank-local mappers under test: Hyperplane with every node-size
/// choice, k-d Tree and Stencil Strips.
fn rank_local_mappers() -> Vec<Box<dyn RankLocalMapper>> {
    vec![
        Box::new(Hyperplane::default()),
        Box::new(Hyperplane::with_node_size(NodeSizeChoice::Min)),
        Box::new(Hyperplane::with_node_size(NodeSizeChoice::Max)),
        Box::new(KdTree),
        Box::new(StencilStrips),
    ]
}

/// Checks every mapper's whole-table `compute` against `p` calls of its
/// per-rank `remap_rank`.
fn kernels_match_rank_local_definition(problem: &MappingProblem) -> Result<(), String> {
    for mapper in rank_local_mappers() {
        let table = mapper
            .compute(problem)
            .map_err(|e| format!("{}: {e}", mapper.name()))?;
        let spec: Vec<usize> = (0..problem.num_processes())
            .map(|r| problem.dims().rank_of(&mapper.remap_rank(problem, r)))
            .collect();
        if table.position_of_rank_slice() != &spec[..] {
            return Err(format!(
                "{} on {:?} / {:?}: whole table differs from the per-rank definition",
                mapper.name(),
                problem.dims().as_slice(),
                problem.alloc().sizes(),
            ));
        }
    }
    Ok(())
}

/// Fixed instances at p ≈ 10^4 shaped like the benchmark's cold-miss
/// classes (p = 10^6 with about 100 or 10^4 nodes, scaled down by 100): a
/// 2-D nearest-neighbour grid with an odd extent, a 3-D grid on few large
/// nodes, a 2-D hop-stencil grid and a 3-D grid on many small nodes.
#[test]
fn kernels_match_rank_local_definition_at_cold_miss_shapes() {
    for (dims, nodes, stencil) in [
        (vec![100, 101], 101, Stencil::nearest_neighbor(2)),
        (vec![20, 25, 20], 10, Stencil::nearest_neighbor(3)),
        (vec![100, 100], 100, Stencil::nearest_neighbor_with_hops(2)),
        (vec![20, 25, 21], 105, Stencil::nearest_neighbor(3)),
    ] {
        let p: usize = dims.iter().product();
        let problem = MappingProblem::new(
            Dims::new(dims).unwrap(),
            stencil,
            NodeAllocation::homogeneous(nodes, p / nodes),
        )
        .unwrap();
        kernels_match_rank_local_definition(&problem).unwrap();
    }
}

/// Builds the 48x48 grid instance shared by the refinement determinism
/// tests: a 12-way partition plus its refined variant.
fn refined_grid_partition(parallel: bool) -> (Graph, Vec<u32>) {
    let mut edges = Vec::new();
    for r in 0..48u32 {
        for c in 0..48u32 {
            let v = r * 48 + c;
            if c + 1 < 48 {
                edges.push((v, v + 1, 1));
            }
            if r + 1 < 48 {
                edges.push((v, v + 48, 1));
            }
        }
    }
    let g = Graph::from_edges(48 * 48, &edges);
    let cfg = PartitionConfig::new(vec![192; 12])
        .with_seed(3)
        .with_parallel(parallel);
    let mut part = partition(&g, &cfg).unwrap();
    refine_kway_with(
        &g,
        &mut part,
        &RefineConfig::new(5, 17).with_parallel(parallel),
    );
    (g, part)
}

/// `RefineConfig::parallel = false` (alongside `PartitionConfig::parallel =
/// false`) reproduces the parallel sweep's result exactly.
#[test]
fn refine_kway_sequential_flag_matches_parallel_exactly() {
    let (g, par) = refined_grid_partition(true);
    let (_, seq) = refined_grid_partition(false);
    assert_eq!(par, seq);
    assert_eq!(g.part_weights(&par, 12), vec![192u64; 12]);
}

/// FNV-1a over a sequence of integers.
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The parallel `refine_kway` and the whole-table kernels of Hyperplane,
/// k-d Tree and Stencil Strips yield identical results for
/// `RAYON_NUM_THREADS` ∈ {1, 2, 4}.  The vendored rayon reads the variable
/// once per process, so each thread count runs in a child process (this same
/// test re-invoked with `STENCILMAP_DETERMINISM_CHILD` set) that prints a
/// fingerprint of the refined partition and of every kernel's table.
#[test]
fn refine_kway_identical_across_thread_counts() {
    const CHILD_VAR: &str = "STENCILMAP_DETERMINISM_CHILD";
    if std::env::var(CHILD_VAR).is_ok() {
        let (_, part) = refined_grid_partition(true);
        let mut fingerprint = format!("refine={:016x}", fnv1a(part.iter().map(|&p| p as u64)));
        let problem = MappingProblem::new(
            Dims::from_slice(&[120, 100]),
            Stencil::nearest_neighbor_with_hops(2),
            NodeAllocation::homogeneous(120, 100),
        )
        .unwrap();
        let kernels: [&dyn Mapper; 3] = [&Hyperplane::default(), &KdTree, &StencilStrips];
        for mapper in kernels {
            let table = mapper.compute(&problem).unwrap();
            let h = fnv1a(table.position_of_rank_slice().iter().map(|&x| x as u64));
            fingerprint.push_str(&format!(";{}={h:016x}", mapper.name().replace(' ', "_")));
        }
        println!("fingerprint:{fingerprint}");
        return;
    }
    let exe = std::env::current_exe().expect("test executable path");
    let mut fingerprints = Vec::new();
    for threads in ["1", "2", "4"] {
        let out = std::process::Command::new(&exe)
            .args([
                "refine_kway_identical_across_thread_counts",
                "--exact",
                "--nocapture",
                "--test-threads=1",
            ])
            .env(CHILD_VAR, "1")
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("spawning the child test process");
        assert!(
            out.status.success(),
            "child with RAYON_NUM_THREADS={threads} failed:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        // with --nocapture the marker may share a line with harness output
        let fp = stdout
            .lines()
            .find_map(|l| l.split("fingerprint:").nth(1))
            .unwrap_or_else(|| panic!("no fingerprint in child output:\n{stdout}"))
            .split_whitespace()
            .next()
            .expect("fingerprint value")
            .to_string();
        fingerprints.push((threads, fp));
    }
    let (_, reference) = &fingerprints[0];
    for (threads, fp) in &fingerprints {
        assert_eq!(
            fp, reference,
            "RAYON_NUM_THREADS={threads} produced a different partition or table"
        );
    }
}

/// Same-seed determinism of the full VieM-style pipeline on an instance large
/// enough (4800 vertices) to take the genuinely parallel recursion path.
#[test]
fn graph_mapper_parallel_path_is_deterministic() {
    let problem = MappingProblem::new(
        Dims::from_slice(&[80, 60]),
        Stencil::nearest_neighbor(2),
        NodeAllocation::homogeneous(40, 120),
    )
    .unwrap();
    let a = GraphMapper::with_effort(5, 0).compute(&problem).unwrap();
    let b = GraphMapper::with_effort(5, 0).compute(&problem).unwrap();
    assert_eq!(a, b);
    assert!(a.respects_allocation(problem.alloc()));
}
