"""Which module owns which formula: the names each module binds.

The Jacobian multiplicities are ``cw_multiplicity`` of a representation or
of its conjugate, so ``galcov.jacobian`` takes from ``galcov.differentials``
only the table type, that route, its row form ``_multiplicity`` (which
``decompose`` feeds from the u-table) and the conjugation; the kernel and
the +1 test stay inside ``galcov.differentials``.  The corrected character
is read off the u-rows, not found by the kernel or the +1 test, and a
trace's delta angle comes from the order of tau it already has.

A per-character question checks its argument once and then reads rows: a
trace takes its discrete logs unchecked, a cyclic quotient's genus comes
from the representative's row with no quotient cover built, and conj chi's
row is (-u) mod o(C) of chi's, from the one helper ``_conjugate_row``.

Each quantity has one formula: the order of a character is
``element_order``, a Galois orbit carries its phi(e), conj chi's row is
``_conjugate_row`` of chi's, never read through ``conjugate_character``, an
eigenvalue table is checked once by ``IrrepClassData.rows``, and the walk
orders of ``elements`` and ``characters`` are not established a second
time.  A private helper that nothing in the package calls is dead code.  No
module imports ``dataclasses``: the records come from
``galcov.errors._record``.  Each table has one builder: the constructor
builds a cover's point tables, and only the unit columns and the genus are
computed lazily.  A family stream checks each class table once, by its
composition, and scans no table row by row.
"""

import ast
import pathlib

import pytest

import galcov
import galcov.cli
import galcov.cover
import galcov.differentials
import galcov.divisors
import galcov.groups
import galcov.jacobian


def test_jacobian_binds_no_kernel_internals():
    bound = set(vars(galcov.jacobian))
    assert not bound & {"cw_value", "eigen_rows", "EigenRows", "_is_trivial_rep"}


def test_jacobian_takes_four_names_from_differentials():
    taken = {
        name
        for name, value in vars(galcov.jacobian).items()
        if getattr(value, "__module__", None) == galcov.differentials.__name__
    }
    assert taken == {"IrrepClassData", "conjugate", "cw_multiplicity", "_multiplicity"}


def names_used(code) -> set[str]:
    """The global and attribute names a code object reads, with those of the
    comprehensions and lambdas nested in it."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, type(code)):
            names |= names_used(const)
    return names


# the functions and methods of the divisor and differential layers, by name
LAYER_CODE = {
    name: value.__code__
    for namespace in (vars(galcov.divisors), vars(galcov.differentials), vars(galcov.divisors.InvariantDivisor))
    for name, value in namespace.items()
    if hasattr(value, "__code__")
}


def names_reached(code) -> set[str]:
    """The names a code object reads, with those of every function or
    method of ``divisors`` and ``differentials`` it reaches by name."""
    reached, todo = set(), [code]
    while todo:
        new = names_used(todo.pop()) - reached
        reached |= new
        todo.extend(LAYER_CODE[name] for name in new if name in LAYER_CODE)
    return reached


@pytest.mark.parametrize(
    "function",
    [galcov.differentials.cw_value, galcov.divisors.InvariantDivisor.r_chi, galcov.divisors.InvariantDivisor.r_total],
    ids=lambda f: f.__name__,
)
def test_every_euler_characteristic_reaches_the_kernel(function):
    assert "_euler_numerator" in names_reached(function.__code__)


@pytest.mark.parametrize("module", ["divisors", "differentials"])
def test_only_the_kernel_counts_buckets_and_weighs_rows(module):
    """No function but ``_euler_numerator`` counts buckets (``bisect_left``,
    ``compress``, ``gt``) or reads the weights of ``class_weights``; the
    others may take its L, ``class_weights[0]``."""
    offenders = set()
    for node in ast.walk(TREES[module]):
        if not isinstance(node, ast.FunctionDef) or node.name == "_euler_numerator":
            continue
        inner = list(ast.walk(node))
        if any(isinstance(n, ast.Name) and n.id in {"bisect_left", "compress", "gt"} for n in inner):
            offenders.add(node.name)
        reads = sum(isinstance(n, ast.Attribute) and n.attr == "class_weights" for n in inner)
        lcm_reads = sum(
            isinstance(n, ast.Subscript)
            and isinstance(n.value, ast.Attribute)
            and n.value.attr == "class_weights"
            and isinstance(n.slice, ast.Constant)
            and n.slice.value == 0
            for n in inner
        )
        if reads != lcm_reads:
            offenders.add(node.name)
    assert offenders == set()


@pytest.mark.parametrize("name, r_name", [("i_chi", "r_chi"), ("i_total", "r_total")])
def test_i_is_r_of_the_serre_dual(name, r_name):
    names = names_reached(getattr(galcov.divisors.InvariantDivisor, name).__code__)
    assert {"_serre_dual", r_name} <= names
    assert not {"_conjugate_and_row", "_conjugate_row", "conjugate_character"} & names


def test_delta_search_reads_rows_only():
    names = names_used(galcov.differentials._locate_delta.__code__)
    assert not {"raw_dimension_value", "same_character"} & names


def test_trace_takes_no_pairing():
    assert "pairing" not in names_used(galcov.differentials.eichler_trace.__code__)


def test_second_copies_are_gone():
    assert not {"pairing", "character_order"} & set(vars(galcov.groups.GroupSpec))
    assert "row" not in vars(galcov.differentials.IrrepClassData)


def test_prym_piece_reads_the_orbit_phi():
    assert "euler_phi" not in names_used(galcov.jacobian._prym_piece.__code__)


def test_traces_skip_the_identity_by_position():
    assert "element_order" not in names_used(galcov.cli.cmd_traces.__code__)


def test_orbits_keep_the_walk_order():
    code = galcov.groups.GroupSpec.rational_character_orbits.__code__
    assert "sort" not in names_used(code)


def test_differential_divisor_reads_the_conjugate_row():
    code = galcov.divisors.InvariantDivisor.reduced_base_divisor.__code__
    assert "_conjugate_row" in names_used(code)
    assert "conjugate_character" not in names_used(code)


@pytest.mark.parametrize(
    "function",
    [galcov.differentials.omega_divisor, galcov.jacobian.decompose],
    ids=lambda f: f.__name__,
)
def test_conjugate_rows_come_from_one_helper(function):
    names = names_used(function.__code__)
    assert "_conjugate_row" in names
    assert not {"conjugate_character", "conjugate", "u_row"} & names


def test_prym_piece_builds_no_quotient_cover():
    names = names_used(galcov.jacobian._prym_piece.__code__)
    assert not {"CoverSpec", "BranchPoint", "quotient", "genus"} & names
    assert "_riemann_hurwitz" in names
    assert "_riemann_hurwitz" in names_used(galcov.cover.CoverSpec.__dict__["_genus"].func.__code__)


def test_decompose_reads_the_u_table():
    names = names_used(galcov.jacobian.decompose.__code__)
    assert "u_table" in names
    assert not {"analytic_multiplicity", "rational_multiplicity", "cw_multiplicity"} & names


def test_trace_takes_unchecked_discrete_logs():
    names = names_used(galcov.differentials.eichler_trace.__code__)
    assert "power_index" not in names and "u_value" not in names
    assert "_discrete_log" in names


TREES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(pathlib.Path(galcov.__file__).parent.glob("*.py"))
}

# every function or class, at any depth, whose name has a leading underscore
# and is not a dunder
PRIVATE = {
    f"{module}.{node.name}": (module, node)
    for module, tree in TREES.items()
    for node in ast.walk(tree)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    and node.name.startswith("_")
    and not (node.name.startswith("__") and node.name.endswith("__"))
}

# (module, name, line) of every Name, Attribute and imported name: the
# references in code, where docstrings and comments are not
REFERENCES = tuple(
    (module, name, node.lineno)
    for module, tree in TREES.items()
    for node in ast.walk(tree)
    for name in (
        (node.id,) if isinstance(node, ast.Name)
        else (node.attr,) if isinstance(node, ast.Attribute)
        else (node.name,) if isinstance(node, ast.alias)
        else ()
    )
)


def test_no_module_imports_dataclasses():
    importers = sorted(
        module
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and not node.level and node.module.partition(".")[0] == "dataclasses"
    )
    assert importers == []


def test_enumeration_scans_no_table_row_by_row():
    """A class table is checked once, by its composition: no function in
    ``enumeration`` takes ``map(len, ...)`` of a table or the union of its
    rows (``set().union(*table)``)."""
    scans = sorted(
        node.lineno
        for node in ast.walk(TREES["enumeration"])
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "map"
            and node.args and isinstance(node.args[0], ast.Name) and node.args[0].id == "len"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "union"
            and any(isinstance(arg, ast.Starred) for arg in node.args)
        )
    )
    assert scans == []


def test_only_the_unit_columns_and_the_genus_are_lazy():
    """``_unit_u_columns`` waits for the first row, so a cover built before
    tracing starts still reads its u-values under the tracer; ``_genus``
    waits for the first genus, so ``validate`` reports data whose 2g is odd.
    Every other table is built by the constructor."""
    lazy = sorted(
        f"{module}.{node.name}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(
            (d.id if isinstance(d, ast.Name) else d.attr if isinstance(d, ast.Attribute) else None)
            == "cached_property"
            for d in node.decorator_list
        )
    )
    assert lazy == ["cover._genus", "cover._unit_u_columns"]


@pytest.mark.parametrize("qualified", sorted(PRIVATE))
def test_private_names_have_callers(qualified):
    """Every private helper is referenced by code outside its own body."""
    module, node = PRIVATE[qualified]
    outside = (
        name for where, name, line in REFERENCES
        if where != module or not node.lineno <= line <= node.end_lineno
    )
    assert node.name in outside, f"{qualified} has no caller in the package"
