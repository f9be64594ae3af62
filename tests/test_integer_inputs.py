"""Integers in, or a worded error: the library's input contract.

Every integer a public constructor or ``normalize`` takes is read through
``operator.index``, so a float or a str is refused with a TypeError that
names the field, where ``int()`` would truncate it and a float base genus
would give a float genus.
"""

import pytest

from galcov import BranchPoint, ClassTable, Coord, CoverSpec, FactoredRational, GroupSpec, InvariantDivisor, normalize

from covergen import hyperelliptic


def two_points_over_a_torus():
    g = GroupSpec((2,))
    return CoverSpec(1, g, (BranchPoint("a", g.element([1])), BranchPoint("b", g.element([1]))))


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
    ],
    ids=[
        "cyclic-order", "element-exponent", "base-genus", "fiber-exponent", "nu-exponent", "bare-exponent",
        "base-part", "factor-exponent", "u-value",
    ],
)
def test_a_value_that_is_no_integer_is_refused_by_name(call, message):
    with pytest.raises(TypeError) as raised:
        call()
    assert str(raised.value) == message
