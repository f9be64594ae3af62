"""Integers in, or a worded error: the library's input contract.

Every integer a public constructor or ``normalize`` takes is read through
``operator.index``, so a float or a str is refused with a TypeError that
names the field, where ``int()`` would truncate it and a float base genus
would give a float genus.  The representation records, the class records
and the equations read their integers the same way: a float dimension gave
a float ``dim_A_W`` and a float multiplicity a bare AttributeError, and a
str order failed in a comparison.  q and the degree of Gamma are read once,
by ``delta_info``, on every route to a dimension, multiplicity or trace, and
by ``omega_divisor`` and ``trace_from_fixed_points``; a float q gave a float
dimension or branch exponent.  A representation record refuses a field of
the wrong kind by name: a ``character`` that is no character of the cover's
kind was taken as a mismatch and blamed a correct table.
"""

import pytest

from galcov import (
    BranchPoint,
    ClassRecord,
    ClassTable,
    Coord,
    CoverSpec,
    Equation,
    FactoredRational,
    GroupSpec,
    InvariantDivisor,
    IrrepClassData,
    RationalIrrepData,
    cover_from_class_table,
    cw_multiplicity,
    dim_A_W,
    dim_B_W,
    dim_omega_chi,
    eichler_trace,
    normalize,
    omega_divisor,
    total_dim_omega,
)
from galcov.differentials import FixedPointTerm, delta_info, trace_from_fixed_points

from covergen import hyperelliptic


def two_points_over_a_torus():
    g = GroupSpec((2,))
    return CoverSpec(1, g, (BranchPoint("a", g.element([1])), BranchPoint("b", g.element([1]))))


def hyp6_key():
    return hyperelliptic(6).branch_classes[0].key


def hyp6_chi():
    return hyperelliptic(6).group.character([1])


def rational_irrep(dim=1, field_degree=1, schur_index=1, n0=0):
    return RationalIrrepData(dim, field_degree, schur_index, ((hyp6_key(), n0),))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GroupSpec((2.5,)), "cyclic order 0 must be an integer, got 2.5"),
        (lambda: GroupSpec((2,)).element([1.7]), "element exponent 0 must be an integer, got 1.7"),
        (lambda: CoverSpec(0.5, GroupSpec((2,)), ()).genus(), "base genus must be an integer, got 0.5"),
        (
            lambda: normalize(hyperelliptic(4), [[0.9], [1], 1, 1]),
            "the exponent on the fiber over 1 must be an integer, got 0.9",
        ),
        (
            lambda: normalize(hyperelliptic(4), [1, 1, 1, 1], nu_exponents=[1.5, 1.5]),
            "the exponent on the fiber over infinity must be an integer, got 1.5",
        ),
        (
            lambda: normalize(hyperelliptic(4), [0.9, 1, 1, 1]),
            "the exponent on the fiber over 1 must be an integer, got 0.9",
        ),
        (
            lambda: InvariantDivisor(two_points_over_a_torus(), (0, 1), 0, (("s", 0.5),)).degree(),
            "the exponent at base point s must be an integer, got 0.5",
        ),
        (lambda: FactoredRational(((Coord(1), 1.5),)), "the exponent at 1 must be an integer, got 1.5"),
        (
            lambda: ClassTable.build([("a", 2)], 2, {"x": {"a": 0.7}}),
            "the u-value of x at class a must be an integer, got 0.7",
        ),
        (lambda: dim_A_W(hyperelliptic(6), rational_irrep(dim=1.0)), "dimension must be an integer, got 1.0"),
        (lambda: rational_irrep(field_degree=1.0), "field degree must be an integer, got 1.0"),
        (lambda: rational_irrep(schur_index=1.0), "Schur index must be an integer, got 1.0"),
        (lambda: rational_irrep(n0=0.0), "the invariant dimension at class g(1) must be an integer, got 0.0"),
        (
            lambda: cw_multiplicity(hyperelliptic(6), IrrepClassData(1.0, ((hyp6_key(), (0, 1)),))),
            "dimension must be an integer, got 1.0",
        ),
        (
            lambda: cw_multiplicity(hyperelliptic(6), IrrepClassData(1, ((hyp6_key(), (0.0, 1.0)),))),
            "eigenvalue multiplicity at class g(1), alpha = 0 must be an integer, got 0.0",
        ),
        (
            lambda: cover_from_class_table(0, ClassTable.build([("a", 2, 6)], 2.0)).genus(),
            "group order must be an integer, got 2.0",
        ),
        (lambda: ClassRecord("a", 2, 2.5), "the branch count of class a must be an integer, got 2.5"),
        (lambda: ClassRecord("a", "2"), "the order of class a must be an integer, got '2'"),
        (lambda: Equation("3", FactoredRational(())), "root order must be an integer, got '3'"),
        (lambda: total_dim_omega(hyperelliptic(6), 2.0, 0), "q must be an integer, got 2.0"),
        (lambda: total_dim_omega(hyperelliptic(6), 1, 1.5), "gamma_degree must be an integer, got 1.5"),
        (lambda: dim_omega_chi(hyperelliptic(6), hyp6_chi(), 2.0, 0), "q must be an integer, got 2.0"),
        (lambda: omega_divisor(hyperelliptic(6), hyp6_chi(), 1.5), "q must be an integer, got 1.5"),
        (lambda: eichler_trace(hyperelliptic(6), hyp6_key(), 2.5, 0), "q must be an integer, got 2.5"),
        (lambda: cw_multiplicity(hyperelliptic(6), hyp6_chi(), "2", 0), "q must be an integer, got '2'"),
        (lambda: delta_info(hyperelliptic(6), 1, None), "gamma_degree must be an integer, got None"),
        (
            lambda: trace_from_fixed_points([FixedPointTerm(2, 1, 1.5)], 1),
            "the fixed-point multiplicity must be an integer, got 1.5",
        ),
        (lambda: trace_from_fixed_points([FixedPointTerm(2, 1, 1)], 1.5), "q must be an integer, got 1.5"),
        (lambda: FixedPointTerm(2.0, 1, 1), "the fixed-point order must be an integer, got 2.0"),
        (lambda: FixedPointTerm(2, "1", 1), "the fixed-point exponent must be an integer, got '1'"),
        (
            lambda: hyperelliptic(6).group.char_pow(hyp6_chi(), 0.5),
            "the power of a character must be an integer, got 0.5",
        ),
    ],
    ids=[
        "cyclic-order", "element-exponent", "base-genus", "fiber-exponent", "nu-exponent", "bare-exponent",
        "base-part", "factor-exponent", "u-value", "irrep-dim", "field-degree", "schur-index", "invariant-dim",
        "table-dim", "multiplicity-row", "group-order", "branch-count", "class-order", "root-order",
        "total-q", "total-gamma", "dim-q", "omega-q", "trace-q", "cw-q", "delta-gamma", "term-multiplicity",
        "fixed-point-q", "term-order", "term-exponent", "char-pow",
    ],
)
def test_a_value_that_is_no_integer_is_refused_by_name(call, message):
    with pytest.raises(TypeError) as raised:
        call()
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: cw_multiplicity(hyperelliptic(6), IrrepClassData(1, ((hyp6_key(), (1, 0)),), character="x")),
            "character must be a Character or None, got 'x'",
        ),
        (
            lambda: cw_multiplicity(
                hyperelliptic(6), IrrepClassData(1, ((hyp6_key(), (1, 0)),), character=hyp6_key())
            ),
            "character must be a Character or None, got GroupElement(exponents=(1,))",
        ),
        (
            lambda: dim_B_W(hyperelliptic(6), RationalIrrepData(1, 1, 1, ((hyp6_key(), 1),), trivial="no")),
            "trivial must be a bool or None, got 'no'",
        ),
        (
            lambda: RationalIrrepData(1, 1, 1, ((hyp6_key(), 1),), trivial=1),
            "trivial must be a bool or None, got 1",
        ),
    ],
    ids=["irrep-character-str", "irrep-character-element", "trivial-str", "trivial-int"],
)
def test_a_record_field_of_the_wrong_kind_is_refused_by_name(call, message):
    with pytest.raises(TypeError) as raised:
        call()
    assert str(raised.value) == message


def test_a_generic_table_refuses_an_abelian_character():
    from galcov import ClassTable, cover_from_class_table

    cover = cover_from_class_table(1, ClassTable.build([("c", 2, 2)], 2))
    rho = IrrepClassData(1, (("c", (1, 0)),), character=GroupSpec((2,)).character([0]))
    with pytest.raises(TypeError, match="character must be a GenericCharacter or None"):
        cw_multiplicity(cover, rho)
