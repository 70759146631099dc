//! Instantiation-time measurement (Figure 9 and Section VI-E).
//!
//! The paper measures the time each algorithm needs to compute the new ranks
//! (200 repetitions, outlier removal, mean with a 95% confidence interval).
//! Here the same protocol is applied to the Rust implementations: the full
//! reordering (all ranks) is computed per repetition.  The paper's figure is
//! the "maximum time over all processes" of the per-rank computation; the
//! whole table holds every rank's answer, so its time is the cost of
//! answering all ranks at once.

use cluster_sim::stats::Summary;
use std::time::Instant;
use stencil_mapping::{Mapper, MappingProblem};

/// Instantiation-time measurement of one algorithm.
#[derive(Debug, Clone)]
pub struct InstantiationTiming {
    /// Algorithm name.
    pub algorithm: String,
    /// Summary of the per-repetition wall-clock times in seconds.
    pub summary: Summary,
}

/// Measures the instantiation (reordering) time of every mapper on a problem.
///
/// Every mapper is run `repetitions` times; outliers beyond 1.5 IQR are
/// removed before summarising, mirroring Section VI-E.  Mappers that are not
/// applicable to the instance are skipped.
pub fn time_instantiations(
    problem: &MappingProblem,
    mappers: &[Box<dyn Mapper>],
    repetitions: usize,
) -> Vec<InstantiationTiming> {
    let mut out = Vec::new();
    for mapper in mappers {
        // applicability check (and warm-up)
        if mapper.compute(problem).is_err() {
            continue;
        }
        let mut samples = Vec::with_capacity(repetitions);
        for _ in 0..repetitions.max(1) {
            let start = Instant::now();
            let mapping = mapper.compute(problem).expect("warm-up succeeded");
            let elapsed = start.elapsed().as_secs_f64();
            std::hint::black_box(&mapping);
            samples.push(elapsed);
        }
        out.push(InstantiationTiming {
            algorithm: mapper.name().to_string(),
            summary: Summary::of_filtered(&samples),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_grid::{Dims, NodeAllocation, Stencil};
    use stencil_mapping::hyperplane::Hyperplane;
    use stencil_mapping::kdtree::KdTree;
    use stencil_mapping::nodecart::Nodecart;
    use stencil_mapping::stencil_strips::StencilStrips;
    use stencil_mapping::viem::GraphMapper;

    fn medium_problem() -> MappingProblem {
        MappingProblem::new(
            Dims::from_slice(&[20, 12]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(20, 12),
        )
        .unwrap()
    }

    #[test]
    fn timings_cover_all_applicable_mappers() {
        let mappers: Vec<Box<dyn Mapper>> = vec![
            Box::new(Hyperplane::default()),
            Box::new(KdTree),
            Box::new(StencilStrips),
            Box::new(Nodecart),
        ];
        let timings = time_instantiations(&medium_problem(), &mappers, 5);
        assert_eq!(timings.len(), 4);
        for t in &timings {
            assert!(t.summary.mean > 0.0);
            assert!(t.summary.n <= 5 && t.summary.n >= 3);
        }
    }

    #[test]
    fn graph_mapper_is_slower_than_the_distributed_algorithms() {
        // The central claim of Fig. 9 / Section VI-E: the specialised
        // algorithms are orders of magnitude faster than the general graph
        // mapper.  On a small instance the gap is already pronounced.
        let mappers: Vec<Box<dyn Mapper>> =
            vec![Box::new(KdTree), Box::new(GraphMapper::with_seed(1))];
        let timings = time_instantiations(&medium_problem(), &mappers, 3);
        assert_eq!(timings.len(), 2);
        let kd = timings.iter().find(|t| t.algorithm == "k-d Tree").unwrap();
        let gm = timings
            .iter()
            .find(|t| t.algorithm == "VieM-style")
            .unwrap();
        assert!(
            gm.summary.mean > kd.summary.mean,
            "general graph mapping must be slower ({} vs {})",
            gm.summary.mean,
            kd.summary.mean
        );
    }

    #[test]
    fn inapplicable_mappers_are_skipped() {
        let hetero = MappingProblem::new(
            Dims::from_slice(&[4, 4]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::heterogeneous(vec![6, 6, 4]).unwrap(),
        )
        .unwrap();
        let mappers: Vec<Box<dyn Mapper>> = vec![Box::new(Nodecart), Box::new(KdTree)];
        let timings = time_instantiations(&hetero, &mappers, 2);
        assert_eq!(timings.len(), 1);
        assert_eq!(timings[0].algorithm, "k-d Tree");
    }
}
