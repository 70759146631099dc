//! The algorithm catalogue: the one `reorder` selector of
//! `MPIX_Cart_stencil_comm` (Listing 1 of the paper).
//!
//! [`Algorithm`] names every reordering algorithm the system offers and is
//! the only place that maps a name to a mapper: the library front-end
//! ([`CartStencilComm`](crate::CartStencilComm)), the message-passing
//! communicator and the mapping service all select through it, and the
//! service's wire protocol reuses its wire names.

use crate::baselines::Blocked;
use crate::hyperplane::Hyperplane;
use crate::kdtree::KdTree;
use crate::nodecart::Nodecart;
use crate::problem::{Mapper, RankLocalMapper};
use crate::stencil_strips::StencilStrips;
use crate::viem::GraphMapper;

/// A rank-reordering algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Recursive bisection with stencil-aware cut selection (Section V-A).
    Hyperplane,
    /// k-d-tree-style recursive halving (Section V-B).
    KdTree,
    /// Strip decomposition scaled to the stencil bounding box (Section V-C).
    StencilStrips,
    /// Gropp's prime-factorisation Cartesian mapping.
    Nodecart,
    /// VieM-style multilevel partitioning + swap search (expensive).
    Viem,
    /// The scheduler's blocked (identity) mapping — `reorder = 0` in MPI
    /// terms.
    Blocked,
}

impl Algorithm {
    /// Every algorithm, in the order used by the paper's figures: the three
    /// new algorithms, the two previous approaches and the blocked baseline.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Hyperplane,
        Algorithm::KdTree,
        Algorithm::StencilStrips,
        Algorithm::Nodecart,
        Algorithm::Viem,
        Algorithm::Blocked,
    ];

    /// Parses a wire name.
    pub fn from_wire(name: &str) -> Result<Algorithm, String> {
        match name {
            "hyperplane" => Ok(Algorithm::Hyperplane),
            "kdtree" => Ok(Algorithm::KdTree),
            "stencil_strips" => Ok(Algorithm::StencilStrips),
            "nodecart" => Ok(Algorithm::Nodecart),
            "viem" => Ok(Algorithm::Viem),
            "blocked" => Ok(Algorithm::Blocked),
            other => Err(format!(
                "unknown algorithm {other:?} (expected hyperplane, kdtree, stencil_strips, \
                 nodecart, viem or blocked)"
            )),
        }
    }

    /// The wire name.
    pub fn wire_name(&self) -> &'static str {
        match self {
            Algorithm::Hyperplane => "hyperplane",
            Algorithm::KdTree => "kdtree",
            Algorithm::StencilStrips => "stencil_strips",
            Algorithm::Nodecart => "nodecart",
            Algorithm::Viem => "viem",
            Algorithm::Blocked => "blocked",
        }
    }

    /// Whether the algorithm uses the seed (only the randomised `viem`
    /// pipeline does; keeping the seed out of the other algorithms' cache
    /// keys avoids pointless cache fragmentation).
    pub fn uses_seed(&self) -> bool {
        matches!(self, Algorithm::Viem)
    }

    /// Instantiates the mapper; `seed` seeds the randomised `viem` pipeline
    /// and is ignored by every other algorithm.
    pub fn mapper(&self, seed: u64) -> Box<dyn Mapper> {
        match self {
            Algorithm::Hyperplane | Algorithm::KdTree | Algorithm::StencilStrips => self
                .rank_local()
                .expect("the paper's algorithms are rank-local"),
            Algorithm::Nodecart => Box::new(Nodecart),
            Algorithm::Viem => Box::new(GraphMapper::with_seed(seed)),
            Algorithm::Blocked => Box::new(Blocked),
        }
    }

    /// The per-rank form of the algorithm, for the three paper algorithms
    /// whose every process can derive its own new coordinate locally
    /// (Section V); `None` for the sequential ones.
    pub fn rank_local(&self) -> Option<Box<dyn RankLocalMapper>> {
        match self {
            Algorithm::Hyperplane => Some(Box::new(Hyperplane::default())),
            Algorithm::KdTree => Some(Box::new(KdTree)),
            Algorithm::StencilStrips => Some(Box::new(StencilStrips)),
            Algorithm::Nodecart | Algorithm::Viem | Algorithm::Blocked => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_roundtrip() {
        for alg in Algorithm::ALL {
            assert_eq!(Algorithm::from_wire(alg.wire_name()).unwrap(), alg);
        }
        assert_eq!(
            Algorithm::from_wire("metis").unwrap_err(),
            "unknown algorithm \"metis\" (expected hyperplane, kdtree, stencil_strips, \
             nodecart, viem or blocked)"
        );
        assert!(Algorithm::Viem.uses_seed());
        assert!(!Algorithm::Hyperplane.uses_seed());
    }

    #[test]
    fn rank_local_exactly_for_the_paper_algorithms() {
        let names = Algorithm::ALL.map(|alg| alg.mapper(0).name().to_string());
        assert_eq!(
            names,
            [
                "Hyperplane",
                "k-d Tree",
                "Stencil Strips",
                "Nodecart",
                "VieM-style",
                "Blocked"
            ]
        );
        for (alg, name) in Algorithm::ALL.into_iter().zip(names) {
            let local = alg.rank_local().map(|m| m.name().to_string());
            let paper = Algorithm::ALL[..3].contains(&alg);
            assert_eq!(local, paper.then_some(name), "{alg:?}");
        }
    }
}
