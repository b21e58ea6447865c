"""Certified lower bounds for first nontrivial Neumann p-Laplace eigenvalues.

Convex-cell geometry, Poincare-constant aggregation over overlapping
covers, quasiconformal transfer of constants and eigenvalue bounds, and a
finite-element / descent oracle that verifies every emitted bound at desk
scale.
"""

from .geometry import (
    ConvexCell,
    FractalTree,
    FractalTreeSpec,
    GeometryError,
    StarDomainSpec,
    WhitneyTriple,
    build_snowflake_tree,
    build_star_domain,
    cell_diameter,
    cell_volume,
    intersection_volume,
)
from .poincare import (
    CertTerm,
    PoincareBound,
    SeriesError,
    SpectralParams,
    chain_constant,
    convex_cell_constant,
    pair_constant,
    pi_p,
    pi_p_quadrature,
    snowflake_bound,
    snowflake_tail,
    tree_constant,
    triple_constant,
)
from .qc_transfer import (
    ChainFactor,
    EigenBound,
    QCMapData,
    SampledDerivative,
    TransferError,
    TransferResult,
    ball_lower_bound,
    eigen_transfer,
    eigen_transfer_lipschitz,
    example_c,
    poincare_transfer,
    q_p_sup_norm,
    q_pq_norm,
    whitney_qc_bound,
)
from .oracle import (
    DominationReport,
    EigenResult,
    MeshError,
    SolveError,
    TriangleMesh,
    check_domination,
    mesh_domain,
    minimize_rayleigh_p,
    neumann_mu2,
    rayleigh_quotient,
)

__version__ = "0.1.0"
