"""Exact combinatorial invariants of Galois covers of Riemann surfaces.

The public names load on first use (PEP 562): ``import galcov`` loads no
submodule, and the first ``galcov.CoverSpec`` imports ``galcov.cover`` and
what it imports, nothing more.
"""

import importlib

# submodule -> the public names it defines; the submodule's own name is public too
_EXPORTS = {
    "cover": (
        "BranchClass", "BranchPoint", "Coord", "CoverSpec", "ValidationReport",
        "cover_from_class_table",
    ),
    "differentials": (
        "DeltaInfo", "EichlerTrace", "FixedPointTerm", "IrrepClassData", "OmegaDivisor",
        "cw_multiplicity", "delta_info", "dim_omega_chi", "eichler_trace", "omega_divisor",
        "total_dim_omega", "trace_from_fixed_points",
    ),
    "divisors": (
        "BasisDescription", "EigenDivisor", "InvariantDivisor", "SymbolicDivisor",
        "h_chi_divisor", "normalize", "trivial_divisor",
    ),
    "enumeration": (
        "brute_force_filter", "count_by_cardinality", "enumerate_degree_gm1",
        "enumerate_nonspecial_integral", "iter_degree_gm1", "iter_nonspecial_integral",
        "search_space_size",
    ),
    "equations": (
        "INF", "Equation", "EquationSystem", "FactoredRational", "build_cover",
        "equation_system", "psi_at",
    ),
    "errors": (),
    "groups": (
        "Character", "CharacterOrbit", "ClassRecord", "ClassTable", "GenericCharacter",
        "GroupElement", "GroupSpec", "euler_phi",
    ),
    "jacobian": (
        "DecompositionReport", "PrymPiece", "RationalIrrepData", "analytic_multiplicity",
        "decompose", "dim_A_W", "dim_B_W", "primitive_prym_dims", "rational_multiplicity",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = module if name == _MODULE_OF[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
