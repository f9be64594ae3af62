"""The integer kernels against the Fraction formulas of ``fraction_oracle``.

t, the Chevalley-Weil sum, the genus, the isotypical and quotient-form
dimensions and the divisor totals are each one integer numerator over a
known denominator in the library.  On random abelian covers (valid or not)
and on generic class-table covers, at q in {1, 2, 3} and deg Gamma in {0, 1},
they must equal the Fraction formulas, and raise the same exception with the
same text where a value is not an integer.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from galcov import (
    BranchPoint,
    ClassTable,
    CoverSpec,
    GroupSpec,
    InvariantDivisor,
    IrrepClassData,
    RationalIrrepData,
    cover_from_class_table,
)
from galcov.differentials import (
    check_admissible,
    cw_multiplicity,
    cw_value,
    delta_info,
    eigen_rows,
    omega_divisor,
)
from galcov.enumeration import count_by_cardinality
from galcov.errors import GalcovError, NonIntegralInvariant, NTableMismatch
from galcov.jacobian import analytic_multiplicity, dim_A_W, dim_B_W, primitive_prym_dims

import fraction_oracle as oracle
import row_route_oracle
from covergen import class_table_covers, covers, covers_with_divisors, irrep_of_character, pt, random_divisor

QS = (1, 2, 3)
GAMMAS = (0, 1)


def outcome(fn, *args):
    """The value, or the class and text of the library error raised."""
    try:
        return fn(*args)
    except GalcovError as exc:
        return type(exc), str(exc)


@st.composite
def branch_data(draw):
    """Abelian branch data on the line, valid or not: the classes sum to zero
    about half the time."""
    orders = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=1, max_size=3))
    group = GroupSpec(tuple(orders))
    vectors = draw(st.lists(st.tuples(*(st.integers(0, m - 1) for m in orders)), max_size=5))
    classes = [group.element(v) for v in vectors]
    if vectors and draw(st.booleans()):
        classes.append(group.element([-sum(col) for col in zip(*vectors)]))
    classes = [x for x in classes if group.element_order(x) > 1]
    return CoverSpec(0, group, tuple(BranchPoint(pt(j + 1), x) for j, x in enumerate(classes)))


@st.composite
def irreps(draw, cover):
    """An eigenvalue table for each branch class: rows of one dimension,
    whose Chevalley-Weil sum need not be an integer."""
    dim = draw(st.integers(1, 3))
    table = []
    for cls in cover.branch_classes:
        row = [0] * cls.order
        for _ in range(dim):
            row[draw(st.integers(0, cls.order - 1))] += 1
        table.append((cls.key, tuple(row)))
    return IrrepClassData(dim, tuple(table))


class Scripted:
    """Stands in for ``st.data()`` in an ``@example``: each ``draw`` returns
    the next scripted value, whatever the strategy."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


ONE_CLASS_OVER_ELLIPTIC = cover_from_class_table(1, ClassTable.build([("a", 2, 2)], 2, {"x": {"a": 1}}))


def anonymous_refusal(cover):
    """The text of the refused +1 for an anonymous table over a positive-genus base."""
    return (
        "an anonymous table is not matched to the corrected character over a base "
        f"of genus {cover.base_genus}; set its 'character'"
    )


def check_character_kernels(cover, chi):
    row = cover.u_row(chi)
    t = outcome(oracle.t_chi, cover, chi)
    assert outcome(cover.t_chi, chi) == t
    assert outcome(cover.row_and_t, chi) == (t if isinstance(t, tuple) else (row, t))
    conj = cover.conjugate_character(chi)
    t_conj = outcome(oracle.t_chi, cover, conj)
    expected = t_conj if isinstance(t_conj, tuple) else (cover.u_row(conj), t_conj)
    assert outcome(cover.row_and_t, conj) == expected
    assert eigen_rows(cover, chi) == (1, row)
    for q in QS:
        for gamma in GAMMAS:
            value = cw_value(cover, 1, row, q, gamma)
            assert value == oracle.cw_value(cover, 1, oracle.character_pairs(row), q, gamma)
            assert type(value) is (int if Fraction(value).denominator == 1 else Fraction)
            raw = outcome(oracle.raw_dimension_value, cover, chi, q, gamma)
            # once the +1 is located, cw_multiplicity words a non-integral raw value at chi
            if isinstance(raw, tuple) and not isinstance(outcome(delta_info, cover, q, gamma), tuple):
                assert outcome(cw_multiplicity, cover, chi, q, gamma) == raw


class TestAbelian:
    @given(branch_data())
    @settings(max_examples=60, deadline=None)
    def test_t_cw_and_genus(self, cover):
        assert outcome(cover.genus) == outcome(oracle.genus, cover)
        for chi in cover.characters():
            check_character_kernels(cover, chi)

    @given(branch_data(), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_divisor_dimensions(self, cover, seed):
        div = random_divisor(random.Random(seed), cover)
        assert outcome(div.r_total) == outcome(oracle.r_total, div)
        for chi in cover.characters():
            assert outcome(div.r_chi, chi) == outcome(oracle.r_chi, div, chi)
            expected = outcome(oracle.i_chi, div, chi)
            if isinstance(expected, tuple):
                # i_chi is r_chi of K_0 - D, so it names chi, where the oracle names conj chi
                expected = outcome(cover.row_and_t, chi)
            assert outcome(div.i_chi, chi) == expected
            assert div.a_total(chi) == oracle.a_total(div, chi)
        total = outcome(div.i_total)
        expected = outcome(oracle.i_total, div)
        if isinstance(expected, tuple):
            # i_total names the first non-integral character, the oracle its conjugate
            assert total[0] is expected[0] is NonIntegralInvariant
        else:
            assert total == expected

    @given(covers_with_divisors())
    @settings(max_examples=40, deadline=None)
    def test_valid_divisor_totals(self, div):
        assert div.r_total() == oracle.r_total(div)
        assert div.i_total() == oracle.i_total(div)

    @given(covers(max_order=24, max_points=6))
    @settings(max_examples=30, deadline=None)
    def test_omega_infinity_exponent_reads_the_conjugate_t(self, cover):
        for chi in cover.characters():
            for q in QS:
                div = omega_divisor(cover, chi, q)
                alphas = sum(alpha for _, alpha in div.linear_factor_powers)
                t_conj = oracle.t_chi(cover, cover.conjugate_character(chi))
                assert div.infinity_exponent == t_conj - 2 * q + alphas

    @given(covers(max_order=24, max_points=6))
    @settings(max_examples=30, deadline=None)
    def test_isotypical_and_quotient_form_dims(self, cover):
        group = cover.group
        for orbit in group.rational_character_orbits():
            w = row_route_oracle.orbit_irrep(cover, orbit)
            assert dim_A_W(cover, w) == oracle.isotypical_dim(cover, w, w.dim, "dim A_W")
            assert dim_B_W(cover, w) == oracle.isotypical_dim(cover, w, w.schur_index, "dim B_W")
        for piece in primitive_prym_dims(cover):
            # the quotient by ker chi through the Smith form, an independent route to Z_e
            chi = piece.orbit.representative
            kernel = [x for x in group.elements() if oracle.pairing(group, chi, x) == 0]
            quotient = row_route_oracle.quotient(cover, kernel)
            assert quotient.degree == piece.quotient_order
            assert piece.dim_from_quotient == oracle.quotient_form_dim(quotient, piece.quotient_order)


class TestGeneric:
    @given(class_table_covers())
    @settings(max_examples=80, deadline=None)
    def test_t_cw_and_genus(self, cover):
        assert outcome(cover.genus) == outcome(oracle.genus, cover)
        for chi in cover.characters():
            check_character_kernels(cover, chi)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_eigenvalue_tables(self, data):
        cover = data.draw(class_table_covers())
        rho = data.draw(irreps(cover))
        for q in QS:
            for gamma in GAMMAS:
                rows = eigen_rows(cover, rho)
                expected = oracle.cw_value(cover, *rows, q, gamma)
                assert cw_value(cover, *rows, q, gamma) == expected
                try:
                    info = delta_info(cover, q, gamma)
                except GalcovError:
                    continue  # outside the window cw_multiplicity raises before the sum
                got = outcome(cw_multiplicity, cover, rho, q, gamma)
                if expected.denominator != 1:
                    message = f"multiplicity {expected} is not an integer; eigenvalue table inconsistent"
                    assert got == (NTableMismatch, message)
                    continue
                # the correction: a one-dimensional table with chi_delta's eigenvalue at
                # every class, refused over a positive-genus base, where it is not decided
                matched = bool(
                    info.delta
                    and rho.dim == 1
                    and all((u, 1) in row for u, row in zip(cover.u_row(info.character), rows[1]))
                )
                if matched and cover.base_genus:
                    assert got == (NTableMismatch, anonymous_refusal(cover))
                    continue
                corrected = int(expected) + matched
                if corrected < 0:
                    message = f"multiplicity {corrected} is negative; eigenvalue table inconsistent"
                    assert got == (NTableMismatch, message)
                else:
                    assert got == corrected
        rows = eigen_rows(cover, rho)[1]
        conjugate = tuple(
            tuple(((-alpha) % cls.order, n) for alpha, n in row)
            for cls, row in zip(cover.branch_classes, rows)
        )
        raw = oracle.cw_value(cover, rho.dim, conjugate, 1, 0)
        got = outcome(analytic_multiplicity, cover, rho)
        # analytic_multiplicity is cw_multiplicity of the conjugate and refuses
        # what it refuses, a non-integral genus first (NonIntegralInvariant)
        refused = outcome(delta_info, cover, 1, 0)
        if isinstance(refused, tuple):
            assert got == refused
            return
        if raw.denominator != 1:
            assert got == (NTableMismatch, f"multiplicity {raw} is not an integer; eigenvalue table inconsistent")
            return
        # at q = 1 the corrected character is the trivial one
        matched = rho.dim == 1 and all((0, 1) in row for row in rows)
        if matched and cover.base_genus:
            assert got == (NTableMismatch, anonymous_refusal(cover))
            return
        corrected = int(raw) + matched
        if corrected < 0:
            assert got == (NTableMismatch, f"multiplicity {corrected} is negative; eigenvalue table inconsistent")
        else:
            assert got == corrected

    @given(class_table_covers(), st.data())
    @settings(max_examples=80, deadline=None)
    # data that looks trivial over an elliptic base, where triviality is refused, not inferred
    @example(ONE_CLASS_OVER_ELLIPTIC, Scripted(1, [True], 1, 1, None))
    def test_invariant_dimension_tables(self, cover, data):
        classes = cover.branch_classes
        dim = data.draw(st.integers(1, 3))
        kept = data.draw(st.lists(st.booleans(), min_size=len(classes), max_size=len(classes)))
        table = tuple(
            (cls.key, data.draw(st.integers(-1, dim + 1))) for cls, keep in zip(classes, kept) if keep
        )
        w = RationalIrrepData(
            dim,
            data.draw(st.integers(1, 3)),
            1,
            table,
            data.draw(st.sampled_from([None, True, False])),
        )
        for factor, name, fn in ((w.dim, "dim A_W", dim_A_W), (w.schur_index, "dim B_W", dim_B_W)):
            assert outcome(fn, cover, w) == outcome(oracle.isotypical_dim, cover, w, factor, name)


@pytest.mark.parametrize(
    "orders,psi,detail",
    [((3,), [(1,), (1,)], "t = 2/3"), ((4,), [(1,), (2,)], "t = 3/4"), ((2, 2), [(1, 0)], "t = 1/2")],
)
def test_non_integral_messages_are_unchanged(orders, psi, detail):
    group = GroupSpec(orders)
    cover = CoverSpec(0, group, tuple(BranchPoint(pt(j + 1), group.element(x)) for j, x in enumerate(psi)))
    chi = group.character([1] + [0] * (len(orders) - 1))
    expected = f"branch data admits no cover (fractional invariant at character {chi}): {detail}"
    with pytest.raises(NonIntegralInvariant) as raised:
        cover.t_chi(chi)
    assert str(raised.value) == expected
    div = InvariantDivisor(cover, tuple(o - 1 for o in cover.point_orders))
    with pytest.raises(NonIntegralInvariant) as raised:
        div.r_chi(chi)
    assert str(raised.value) == expected


# q = 0 and q - 1 >= o(C) make rho_C = (q - 1) mod o(C) wrap
WRAP_QS = range(6)
WRAP_GAMMAS = (0, 1, 2)


class TestClosedFormKernel:
    """``cw_value`` in closed form against the per-class Fraction sum."""

    @given(st.one_of(branch_data(), class_table_covers()))
    @settings(max_examples=80, deadline=None)
    def test_characters(self, cover):
        for chi in cover.characters():
            row = cover.u_row(chi)
            for q in WRAP_QS:
                for gamma in WRAP_GAMMAS:
                    expected = oracle.cw_value(cover, 1, oracle.character_pairs(row), q, gamma)
                    assert cw_value(cover, 1, row, q, gamma) == expected

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_checked_tables(self, data):
        cover = data.draw(st.one_of(branch_data(), class_table_covers()))
        dim, rows = eigen_rows(cover, data.draw(irreps(cover)))
        for q in WRAP_QS:
            for gamma in WRAP_GAMMAS:
                assert cw_value(cover, dim, rows, q, gamma) == oracle.cw_value(cover, dim, rows, q, gamma)


def d_q(cover, q, gamma):
    """The divisor of f^*(dz)^q over deg Gamma times the base point, in
    normal form: bucket (q - 1) mod o_j at every branch value and
    p = deg Gamma - 2q + sum_j floor(q (o_j - 1) / o_j)."""
    orders = cover.point_orders
    p = gamma - 2 * q + sum(q * (o - 1) // o for o in orders)
    return InvariantDivisor(cover, tuple((q - 1) % o for o in orders), p)


def k0_minus(div):
    """K_0 - D for K_0 the divisor of f^*(dz): buckets o_j - 1 - i_j, p' = -2 - p."""
    orders = div.cover.point_orders
    return InvariantDivisor(div.cover, tuple(o - 1 - i for i, o in zip(div.buckets, orders)), -2 - div.p)


class TestOneEulerCharacteristic:
    """The Chevalley-Weil value is the divisor excess at D_q, and i_chi is
    r_chi of K_0 - D (Serre duality), both against ``fraction_oracle``."""

    @given(st.one_of(covers(max_order=24, max_points=6), class_table_covers()))
    @settings(max_examples=60, deadline=None)
    def test_cw_value_is_the_excess_at_d_q(self, cover):
        assume(cover.base_genus == 0 and not isinstance(outcome(cover.genus), tuple))
        for q in QS:
            if isinstance(outcome(check_admissible, cover.genus(), q), tuple):
                continue
            for gamma in (0, 1, 2):
                div = d_q(cover, q, gamma)
                for chi in cover.characters():
                    # t_chi as a Fraction: on a class table it need not be an integer
                    expected = div.p + 1 + oracle.a_total(div, chi) - oracle.t_fraction(cover, chi)
                    assert cw_value(cover, 1, cover.u_row(chi), q, gamma) == expected
                    assert cw_value(cover, *eigen_rows(cover, irrep_of_character(cover, chi)), q, gamma) == expected

    @given(covers_with_divisors())
    @settings(max_examples=40, deadline=None)
    def test_i_is_r_of_k0_minus_d(self, div):
        dual = k0_minus(div)
        for chi in div.cover.characters():
            assert div.i_chi(chi) == oracle.r_chi(dual, chi) == oracle.i_chi(div, chi)
        assert div.i_total() == oracle.r_total(dual)

    @given(class_table_covers(), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_i_is_r_of_k0_minus_d_on_class_tables(self, cover, seed):
        assume(cover.base_genus == 0)
        div = random_divisor(random.Random(seed), cover)
        dual = k0_minus(div)
        for chi in cover.characters():
            assert outcome(div.i_chi, chi) == outcome(oracle.r_chi, dual, chi)


class TestNonIntegralRowsNameTheirCharacter:
    """A non-integral value raises at its character: the u-table walks (the
    divisor totals and the family constraints) rebuild it from the row's
    index, and name the same character, with the same text, as a walk over
    ``characters()``."""

    @staticmethod
    def z2_z6_cover():
        # the classes sum to (0, 4), not 0: t(chi(0, 1)) = 1/6 + 1/2 + 0 = 2/3
        group = GroupSpec((2, 6))
        psis = [(1, 1), (0, 3), (1, 0)]
        points = tuple(BranchPoint(pt(j + 1), group.element(x)) for j, x in enumerate(psis))
        return CoverSpec(0, group, points)

    @staticmethod
    def raised(fn, *args):
        with pytest.raises(NonIntegralInvariant) as raised:
            fn(*args)
        return raised.value.character, str(raised.value)

    @staticmethod
    def text(character, detail):
        return f"branch data admits no cover (fractional invariant at character {character}): {detail}"

    def test_divisor_totals(self):
        cover = self.z2_z6_cover()
        div = InvariantDivisor(cover, (0, 1, 0), 1)
        chi = cover.group.character([0, 1])
        for total in (div.r_total, div.i_total):
            assert self.raised(total) == (chi, self.text(chi, "t = 2/3"))

    def test_family_constraints(self):
        cover = self.z2_z6_cover()
        chi = cover.group.character([0, 1])
        for family in ("integral", "gm1"):
            assert self.raised(count_by_cardinality, cover, family) == (chi, self.text(chi, "t = 2/3"))

    def test_raw_dimension_value(self):
        """A raw Chevalley-Weil value that is not an integer, which
        ``cw_multiplicity`` reaches when no +1 is located (deg Gamma = 1)."""
        cover = self.z2_z6_cover()
        for exponents, detail in (([0, 1], "dimension value 4/3"), ([1, 2], "dimension value 2/3")):
            chi = cover.group.character(exponents)
            assert self.raised(cw_multiplicity, cover, chi, 1, 1) == (chi, self.text(chi, detail))

    def test_delta_scan(self):
        # a genus-1 cover of the line whose classes 1, 1, 2 of Z_3 sum to 1
        group = GroupSpec((3,))
        points = tuple(BranchPoint(pt(j + 1), group.element([x])) for j, x in enumerate([1, 1, 2]))
        cover = CoverSpec(0, group, points)
        assert cover.genus() == 1
        chi = group.character([1])
        for q in (1, 2):
            assert self.raised(delta_info, cover, q, 0) == (chi, self.text(chi, "t = 4/3"))
