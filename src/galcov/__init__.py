"""Exact combinatorial invariants of Galois covers of Riemann surfaces."""

from .cover import (
    BranchClass,
    BranchPoint,
    Coord,
    CoverSpec,
    ValidationReport,
    cover_from_class_table,
)
from .differentials import (
    DeltaInfo,
    EichlerTrace,
    FixedPointTerm,
    IrrepClassData,
    OmegaDivisor,
    cw_multiplicity,
    delta_info,
    dim_omega_chi,
    eichler_trace,
    omega_divisor,
    total_dim_omega,
    trace_from_fixed_points,
)
from .divisors import (
    BasisDescription,
    EigenDivisor,
    InvariantDivisor,
    SymbolicDivisor,
    h_chi_divisor,
    normalize,
    trivial_divisor,
)
from .enumeration import (
    brute_force_filter,
    count_by_cardinality,
    enumerate_degree_gm1,
    enumerate_nonspecial_integral,
    iter_degree_gm1,
    iter_nonspecial_integral,
    search_space_size,
)
from .equations import (
    INF,
    Equation,
    EquationSystem,
    FactoredRational,
    build_cover,
    equation_system,
    psi_at,
)
from .groups import (
    Character,
    CharacterOrbit,
    ClassRecord,
    ClassTable,
    GenericCharacter,
    GroupElement,
    GroupSpec,
    euler_phi,
)
from .jacobian import (
    DecompositionReport,
    PrymPiece,
    RationalIrrepData,
    analytic_multiplicity,
    decompose,
    dim_A_W,
    dim_B_W,
    primitive_prym_dims,
    rational_multiplicity,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
