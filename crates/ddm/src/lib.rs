//! Additive Schwarz domain decomposition (Section II-A of the paper).
//!
//! The two-level Additive Schwarz Method (ASM) preconditioner is
//!
//! ```text
//! M⁻¹_{ASM,2} = R₀ᵀ (R₀ A R₀ᵀ)⁻¹ R₀  +  Σᵢ Rᵢᵀ (Rᵢ A Rᵢᵀ)⁻¹ Rᵢ
//! ```
//!
//! where the `Rᵢ` are boolean restrictions onto overlapping sub-domains and
//! `R₀` spans the Nicolaides coarse space.  This crate provides:
//!
//! * [`restriction::Restriction`] — the `Rᵢ` operators (index lists),
//! * [`local::LocalSolver`] — the exact sub-domain solver abstraction (sparse
//!   Cholesky by default; this is the "LU" of the paper's DDM-LU baseline),
//! * [`coarse::NicolaidesCoarseSpace`] — the partition-of-unity coarse space
//!   and its dense LU factorisation,
//! * [`multilevel::Hierarchy`] — the recursive smoothed-aggregation AMG
//!   hierarchy whose V-cycle serves as a stronger (3+ level) coarse
//!   component,
//! * [`asm::AdditiveSchwarz`] — the one- and two-level preconditioner,
//!   implementing [`krylov::Preconditioner`] so it plugs straight into PCG.
//!
//! The GNN preconditioner of the paper (`ddm-gnn` crate) reuses everything
//! here except the local solver, which it replaces with DSS inference.

// Library code must not panic via unwrap — `GuardedPreconditioner` treats
// every Schwarz/coarse apply as panic-free (detlint enforces the wider
// contract; clippy carries this slice).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod asm;
pub mod coarse;
pub mod local;
pub mod multilevel;
pub mod restriction;

pub use asm::{AdditiveSchwarz, AsmLevel, CoarseSpace};
pub use coarse::NicolaidesCoarseSpace;
pub use local::{CholeskyLocalSolver, DenseLuLocalSolver, LocalSolver};
pub use multilevel::{Hierarchy, MultilevelConfig, SmootherKind, SmootherPrecision};
pub use restriction::Restriction;

use sparse::CsrMatrix;

/// The decomposition of a global problem: overlapping sub-domain index sets
/// plus the restriction operators and local matrices derived from them.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// One sorted global-node list per sub-domain.
    pub subdomains: Vec<Vec<usize>>,
    /// Restriction operators (one per sub-domain).
    pub restrictions: Vec<Restriction>,
    /// Local operators `Rᵢ A Rᵢᵀ`.
    pub local_matrices: Vec<CsrMatrix>,
}

impl Decomposition {
    /// Build a decomposition from the global matrix and overlapping
    /// sub-domain node sets (as produced by
    /// `partition::partition_mesh_with_overlap`).
    pub fn new(matrix: &CsrMatrix, subdomains: Vec<Vec<usize>>) -> Self {
        let n = matrix.nrows();
        let restrictions: Vec<Restriction> =
            subdomains.iter().map(|sd| Restriction::new(sd.clone(), n)).collect();
        let local_matrices: Vec<CsrMatrix> =
            subdomains.iter().map(|sd| matrix.principal_submatrix(sd)).collect();
        Decomposition { subdomains, restrictions, local_matrices }
    }

    /// Number of sub-domains.
    pub fn num_subdomains(&self) -> usize {
        self.subdomains.len()
    }

    /// Global problem size.
    pub fn num_global(&self) -> usize {
        self.restrictions.first().map(|r| r.num_global()).unwrap_or(0)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for the ddm tests: a small Poisson problem with a
    //! partition into overlapping sub-domains.
    use fem::PoissonProblem;
    use meshgen::{generate_mesh, MeshingOptions, RandomBlobDomain};
    use partition::partition_mesh_with_overlap;

    pub struct Fixture {
        pub problem: PoissonProblem,
        pub subdomains: Vec<Vec<usize>>,
    }

    /// Build a ~`target_nodes` Poisson problem split into sub-domains of
    /// ~`target_sub` nodes with the given overlap.
    pub fn fixture(target_nodes: usize, target_sub: usize, overlap: usize) -> Fixture {
        let domain = RandomBlobDomain::generate(17, 20, 1.0);
        let h = meshgen::generator::element_size_for_target_nodes(&domain, target_nodes);
        let mesh = generate_mesh(&domain, &MeshingOptions::with_element_size(h));
        let subdomains = partition_mesh_with_overlap(&mesh, target_sub, overlap, 0);
        let problem = PoissonProblem::with_random_data(mesh, 5);
        Fixture { problem, subdomains }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_support::fixture;

    #[test]
    fn decomposition_shapes_are_consistent() {
        let fx = fixture(900, 250, 2);
        let decomp = Decomposition::new(&fx.problem.matrix, fx.subdomains.clone());
        assert_eq!(decomp.num_subdomains(), fx.subdomains.len());
        assert_eq!(decomp.num_global(), fx.problem.num_unknowns());
        for (i, sd) in fx.subdomains.iter().enumerate() {
            assert_eq!(decomp.local_matrices[i].nrows(), sd.len());
            assert_eq!(decomp.restrictions[i].num_local(), sd.len());
            // Local matrices inherit symmetry from the global one.
            assert!(decomp.local_matrices[i].is_symmetric(1e-10));
        }
    }
}
