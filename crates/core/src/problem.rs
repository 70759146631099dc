//! The mapping problem definition and the mapper traits.

use crate::mapping::Mapping;
use stencil_grid::{Coord, Dims, GridError, NodeAllocation, Stencil};

/// Errors returned by mapping algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The underlying grid/stencil/allocation combination is inconsistent.
    Grid(GridError),
    /// The algorithm is not applicable to the given instance
    /// (e.g. `Nodecart` when the node size cannot be factored into the grid).
    NotApplicable(String),
    /// The algorithm produced an invalid reordering (internal error).
    InvalidResult(String),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Grid(e) => write!(f, "invalid mapping problem: {e}"),
            MapError::NotApplicable(s) => write!(f, "algorithm not applicable: {s}"),
            MapError::InvalidResult(s) => write!(f, "algorithm produced an invalid result: {s}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<GridError> for MapError {
    fn from(e: GridError) -> Self {
        MapError::Grid(e)
    }
}

/// A complete instance of the process-to-node mapping problem:
/// a Cartesian grid, a stencil (`k`-neighborhood), the scheduler's node
/// allocation and the boundary condition.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingProblem {
    dims: Dims,
    stencil: Stencil,
    alloc: NodeAllocation,
    periodic: bool,
}

impl MappingProblem {
    /// Creates a mapping problem with non-periodic boundaries.
    pub fn new(dims: Dims, stencil: Stencil, alloc: NodeAllocation) -> Result<Self, MapError> {
        Self::with_periodicity(dims, stencil, alloc, false)
    }

    /// Creates a mapping problem, optionally with periodic (torus) boundaries.
    pub fn with_periodicity(
        dims: Dims,
        stencil: Stencil,
        alloc: NodeAllocation,
        periodic: bool,
    ) -> Result<Self, MapError> {
        stencil.check_dims(&dims)?;
        alloc.check_total(dims.volume())?;
        Ok(MappingProblem {
            dims,
            stencil,
            alloc,
            periodic,
        })
    }

    /// The grid dimension sizes.
    pub fn dims(&self) -> &Dims {
        &self.dims
    }

    /// The stencil (`k`-neighborhood).
    pub fn stencil(&self) -> &Stencil {
        &self.stencil
    }

    /// The node allocation handed out by the scheduler.
    pub fn alloc(&self) -> &NodeAllocation {
        &self.alloc
    }

    /// Whether the grid wraps around (torus).
    pub fn periodic(&self) -> bool {
        self.periodic
    }

    /// Total number of processes `p`.
    pub fn num_processes(&self) -> usize {
        self.dims.volume()
    }

    /// Number of compute nodes `N`.
    pub fn num_nodes(&self) -> usize {
        self.alloc.num_nodes()
    }

    /// The node-size parameter `n` handed to algorithms that need one
    /// (exact for homogeneous allocations, the mean otherwise; see §V-A).
    pub fn node_size_parameter(&self) -> usize {
        self.alloc.representative_size()
    }
}

/// A process-to-node mapping algorithm.
///
/// A mapper consumes a [`MappingProblem`] and produces a [`Mapping`], i.e. a
/// permutation assigning every rank a grid position (and therefore every
/// grid position a compute node).
pub trait Mapper: Send + Sync {
    /// Human-readable algorithm name as used in the paper's figures.
    fn name(&self) -> &str;

    /// Computes the full mapping for the given problem.
    fn compute(&self, problem: &MappingProblem) -> Result<Mapping, MapError>;
}

/// A mapper whose result can be computed *per rank*, independently of all
/// other ranks — the "fully distributed" property the paper requires of its
/// algorithms (Section V): every process derives its own new coordinate from
/// the grid, the stencil and its rank alone, which is what it would run
/// inside `MPI_Cart_create`.
///
/// [`RankLocalMapper::remap_rank`] is the executable specification of the
/// algorithm.  The [`Mapper::compute`] of an implementor builds the whole
/// table in one pass over the rank-independent split recursion instead of
/// running the per-rank walk `p` times, and must agree with `remap_rank` for
/// every rank, bit for bit.
pub trait RankLocalMapper: Mapper {
    /// Computes the new grid coordinate of `rank`.
    fn remap_rank(&self, problem: &MappingProblem, rank: usize) -> Coord;
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_grid::{Dims, NodeAllocation, Stencil};

    fn small_problem() -> MappingProblem {
        MappingProblem::new(
            Dims::from_slice(&[4, 4]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(4, 4),
        )
        .unwrap()
    }

    #[test]
    fn problem_accessors() {
        let p = small_problem();
        assert_eq!(p.num_processes(), 16);
        assert_eq!(p.num_nodes(), 4);
        assert_eq!(p.node_size_parameter(), 4);
        assert!(!p.periodic());
        assert_eq!(p.dims().as_slice(), &[4, 4]);
        assert_eq!(p.stencil().k(), 4);
        assert_eq!(p.alloc().num_nodes(), 4);
    }

    #[test]
    fn problem_rejects_mismatched_allocation() {
        let err = MappingProblem::new(
            Dims::from_slice(&[4, 4]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(3, 4),
        );
        assert!(matches!(err, Err(MapError::Grid(_))));
    }

    #[test]
    fn problem_rejects_mismatched_stencil() {
        let err = MappingProblem::new(
            Dims::from_slice(&[4, 4]),
            Stencil::nearest_neighbor(3),
            NodeAllocation::homogeneous(4, 4),
        );
        assert!(err.is_err());
    }

    #[test]
    fn heterogeneous_node_size_parameter_is_mean() {
        let p = MappingProblem::new(
            Dims::from_slice(&[4, 4]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::heterogeneous(vec![6, 4, 6]).unwrap(),
        )
        .unwrap();
        assert_eq!(p.node_size_parameter(), 5);
    }

    #[test]
    fn error_display() {
        let e = MapError::NotApplicable("n does not factor".into());
        assert!(e.to_string().contains("not applicable"));
        let e = MapError::InvalidResult("dup".into());
        assert!(e.to_string().contains("invalid result"));
        let e: MapError = stencil_grid::GridError::EmptyDims.into();
        assert!(e.to_string().contains("invalid mapping problem"));
    }
}
