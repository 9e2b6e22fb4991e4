"""Interaction-free evolving states of finite bipartite quantum systems.

Compute the IFE sectors of a coupled system, verify the evolution
identity and its conserved quantities, recognize and generate IFE mixed
states, and build the closed-form IFE basis of the non-homogeneous spin
star.
"""

from .core import (
    BipartiteSystem,
    IfeDecomposition,
    IfeSector,
    build_h0,
    build_total,
    classify_pure,
    commutator_kernel,
    ife_exists,
    ife_sectors,
    ife_sectors_oracle,
)
from .dynamics import (
    EvolutionReport,
    FreeInvarianceError,
    time_grid,
    trace_pure_states,
)
from .linalg import (
    kron,
    max_principal_angle,
)
from .mixed import (
    check_density_matrix,
    is_ife_mixed,
    random_ife_mixed,
    trace_density_matrix,
)
from .spin_star import (
    ClaimResult,
    DressedBasis,
    ResonanceError,
    SpinStarParams,
    build_spin_star,
    dressing_operator,
    gamma_norm,
    multiplicity,
    spin_star_ife_basis,
    verify_spin_star_claims,
    weight_basis,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BipartiteSystem",
    "IfeDecomposition",
    "IfeSector",
    "build_h0",
    "build_total",
    "classify_pure",
    "commutator_kernel",
    "ife_exists",
    "ife_sectors",
    "ife_sectors_oracle",
    "EvolutionReport",
    "FreeInvarianceError",
    "time_grid",
    "trace_pure_states",
    "kron",
    "max_principal_angle",
    "check_density_matrix",
    "is_ife_mixed",
    "random_ife_mixed",
    "trace_density_matrix",
    "ClaimResult",
    "DressedBasis",
    "ResonanceError",
    "SpinStarParams",
    "build_spin_star",
    "dressing_operator",
    "gamma_norm",
    "multiplicity",
    "spin_star_ife_basis",
    "verify_spin_star_claims",
    "weight_basis",
]
