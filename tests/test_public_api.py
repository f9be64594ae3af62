"""The package's public surface, pinned.

Adding or deleting a public name changes ``sorted(galcov.__all__)`` and so
shows up as a diff of ``PUBLIC`` here.  The benchmark in ``perfbench/``
reaches the package by name, and its tracer wraps what it finds by kind
(functions, generator functions, methods); the second half checks that those
names still resolve to the same kinds.
"""

import inspect

import galcov
import galcov.cli

PUBLIC = [
    "BasisDescription",
    "BranchClass",
    "BranchPoint",
    "Character",
    "CharacterOrbit",
    "ClassRecord",
    "ClassTable",
    "Coord",
    "CoverSpec",
    "DecompositionReport",
    "DeltaInfo",
    "EichlerTrace",
    "EigenDivisor",
    "Equation",
    "EquationSystem",
    "FactoredRational",
    "FixedPointTerm",
    "GenericCharacter",
    "GroupElement",
    "GroupSpec",
    "INF",
    "InvariantDivisor",
    "IrrepClassData",
    "OmegaDivisor",
    "PrymPiece",
    "RationalIrrepData",
    "SymbolicDivisor",
    "ValidationReport",
    "analytic_multiplicity",
    "brute_force_filter",
    "build_cover",
    "count_by_cardinality",
    "cover",
    "cover_from_class_table",
    "cw_multiplicity",
    "decompose",
    "delta_info",
    "differentials",
    "dim_A_W",
    "dim_B_W",
    "dim_omega_chi",
    "divisors",
    "eichler_trace",
    "enumerate_degree_gm1",
    "enumerate_nonspecial_integral",
    "enumeration",
    "equation_system",
    "equations",
    "errors",
    "euler_phi",
    "groups",
    "h_chi_divisor",
    "iter_degree_gm1",
    "iter_nonspecial_integral",
    "jacobian",
    "normalize",
    "omega_divisor",
    "primitive_prym_dims",
    "psi_at",
    "rational_multiplicity",
    "search_space_size",
    "total_dim_omega",
    "trace_from_fixed_points",
    "trivial_divisor",
]

# module -> functions that perfbench/workloads.py, gen.py and ladders.py call
BENCHMARK_FUNCTIONS = {
    "": ("count_by_cardinality", "decompose"),
    "cli": ("main",),
    "differentials": (
        "cw_multiplicity",
        "delta_info",
        "dim_omega_chi",
        "eichler_trace",
        "omega_divisor",
        "total_dim_omega",
    ),
    "divisors": ("h_chi_divisor",),
    "enumeration": (
        "brute_force_filter",
        "count_by_cardinality",
        "iter_degree_gm1",
        "iter_nonspecial_integral",
    ),
    "jacobian": ("decompose",),
}

# the functions and methods whose calls the benchmark's per-layer counters
# read (``COUNTS`` in perfbench/run.py): the tracer names each one
# ``<module>.<name>``, and a counter whose name no longer resolves reads 0
# instead of failing
COUNTED = {
    galcov.groups: ("smith_diagonal",),
    galcov.GroupSpec: ("u_value",),
    galcov.CoverSpec: ("validate",),
    galcov.jacobian: ("decompose",),
    galcov.differentials: ("delta_info", "eichler_trace", "cw_multiplicity"),
    galcov.enumeration: ("count_by_cardinality",),
    galcov.InvariantDivisor: ("r_chi",),
    galcov.equations: ("build_cover",),
    galcov.config: ("parse_config",),
    galcov.cli: ("format_report",),
}

# class -> methods the benchmark calls on its instances
BENCHMARK_METHODS = {
    galcov.CoverSpec: ("characters", "genus", "t_chi", "u_value", "validate"),
    galcov.GroupSpec: ("characters", "element", "element_order", "elements"),
    galcov.InvariantDivisor: ("degree", "i_total", "r_total"),
    galcov.EigenDivisor: ("degree",),
    galcov.OmegaDivisor: ("degree", "presentation"),
}


def test_public_names_pinned():
    assert sorted(galcov.__all__) == PUBLIC


def test_benchmark_functions_resolve():
    for module, names in BENCHMARK_FUNCTIONS.items():
        owner = getattr(galcov, module) if module else galcov
        for name in names:
            assert inspect.isfunction(getattr(owner, name)), f"{module}.{name}"


def test_benchmark_methods_resolve():
    for cls, names in BENCHMARK_METHODS.items():
        for name in names:
            assert inspect.isfunction(getattr(cls, name)), f"{cls.__name__}.{name}"
    assert galcov.divisors.InvariantDivisor is galcov.InvariantDivisor
    # the tracer counts divisors built through InvariantDivisor's own __post_init__
    assert "__post_init__" in vars(galcov.InvariantDivisor)


def test_counted_names_resolve():
    for owner, names in COUNTED.items():
        module = owner if inspect.ismodule(owner) else inspect.getmodule(owner)
        for name in names:
            fn = vars(owner)[name]
            assert inspect.isfunction(fn), f"{owner.__name__}.{name}"
            # the tracer wraps only what the module itself defines
            assert fn.__module__ == module.__name__, f"{owner.__name__}.{name}"


def test_group_iterators_are_generators():
    # the tracer counts the characters and elements yielded, one per next()
    assert inspect.isgeneratorfunction(galcov.GroupSpec.characters)
    assert inspect.isgeneratorfunction(galcov.GroupSpec.elements)


def test_fibre_divisors_share_one_record():
    assert issubclass(galcov.OmegaDivisor, galcov.EigenDivisor)
    assert "degree" not in vars(galcov.OmegaDivisor)
