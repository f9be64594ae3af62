"""Per-character questions at row cost, against the routes they replaced.

Every public per-character or per-element function checks its argument once
and then does arithmetic on the u-row.  On random abelian covers, over the
line and over bases of genus 1 and 2 (where the branch classes need not
generate the group), each answer must equal the earlier route kept in
``row_route_oracle``; and on a Z_60 cover, each listing question makes at
most one ``GroupSpec.check_element`` call per public call.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from galcov.cover import BranchPoint, CoverSpec
from galcov.differentials import cw_multiplicity, delta_info, dim_omega_chi, eichler_trace, omega_divisor
from galcov.divisors import h_chi_divisor, trivial_divisor
from galcov.groups import GroupSpec
from galcov.jacobian import analytic_multiplicity, decompose, primitive_prym_dims, rational_multiplicity

import row_route_oracle as oracle
from covergen import covers, pt


@st.composite
def abelian_covers(draw):
    """A valid cover of the line, or its branch classes over a base of genus
    1 or 2, in the group with an extra cyclic factor that no class touches."""
    cover = draw(covers(max_order=24, max_points=6))
    base_genus = draw(st.sampled_from([0, 1, 2]))
    if not base_genus:
        return cover
    extra = draw(st.sampled_from([(), (2,), (3,)]))
    group = GroupSpec(cover.group.cyclic_orders + extra)
    points = tuple(
        BranchPoint(f"p{j}", group.element(bp.psi.exponents + (0,) * len(extra)))
        for j, bp in enumerate(cover.branch_points)
    )
    return CoverSpec(base_genus, group, points)


def admissible_qs(cover):
    return (1, 2) if cover.genus() >= 1 else (1,)


class TestAgainstTheEarlierRoutes:
    @given(abelian_covers())
    @settings(max_examples=40, deadline=None)
    def test_u_value(self, cover):
        group = cover.group
        for chi in cover.characters():
            for cls in cover.branch_classes:
                assert cover.u_value(chi, cls.key) == group.u_value(chi, cls.key)
            # any other key keeps the group's route
            for x in list(group.elements())[:4]:
                assert cover.u_value(chi, x) == group.u_value(chi, x)

    @given(abelian_covers())
    @settings(max_examples=40, deadline=None)
    def test_decompose_columns(self, cover):
        report = decompose(cover)
        expected = oracle.jacobian_columns(cover)
        assert list(report.analytic) == [(chi, analytic) for chi, analytic, _ in expected]
        assert list(report.rational) == [(chi, rational) for chi, _, rational in expected]

    @given(abelian_covers())
    @settings(max_examples=40, deadline=None)
    def test_jacobian_multiplicities(self, cover):
        for chi, analytic, rational in oracle.jacobian_columns(cover):
            assert analytic_multiplicity(cover, chi) == analytic
            assert rational_multiplicity(cover, chi) == rational

    @given(abelian_covers())
    @settings(max_examples=40, deadline=None)
    def test_quotient_genus_and_form(self, cover):
        for piece in primitive_prym_dims(cover):
            g_y, num = oracle.quotient_genus_and_form(cover, piece.orbit)
            assert piece.quotient_genus == g_y
            assert 2 * piece.quotient_order * piece.dim_from_quotient == num

    @given(abelian_covers())
    @settings(max_examples=40, deadline=None)
    def test_trace_terms_and_angle(self, cover):
        group = cover.group
        for q in admissible_qs(cover):
            info = delta_info(cover, q, 0)
            for tau in list(group.elements())[1:]:
                trace = eichler_trace(cover, tau, q, 0)
                assert trace.terms == oracle.fixed_point_terms(cover, tau)
                if info.delta:
                    u = group.u_value(info.character, tau)
                    assert trace.delta_character_angle == Fraction(u, group.element_order(tau))

    @given(covers(max_order=24, max_points=6))
    @settings(max_examples=40, deadline=None)
    def test_eigendivisors(self, cover):
        for chi in cover.characters():
            h = h_chi_divisor(cover, chi)
            assert (h.branch_exponents, h.infinity_exponent) == oracle.h_chi_exponents(cover, chi)
            for q in admissible_qs(cover):
                omega = omega_divisor(cover, chi, q)
                got = (omega.branch_exponents, omega.infinity_exponent, omega.linear_factor_powers)
                assert got == oracle.omega_exponents(cover, chi, q)


def z60_cover():
    """Z_60 with classes of orders 60, 60 and 15, as in the smallest rung of
    the per-character benchmark."""
    group = GroupSpec((60,))
    points = tuple(BranchPoint(pt(j + 1), group.element([x])) for j, x in enumerate([1, 7, 52]))
    return CoverSpec(0, group, points)


def tchi(cover):
    classes = cover.branch_classes
    for chi in cover.characters():
        cover.t_chi(chi)
        for cls in classes:
            cover.u_value(chi, cls.key)
    return cover.degree * (1 + len(classes))


def hchi(cover):
    for chi in cover.characters():
        h_chi_divisor(cover, chi).degree()
    return cover.degree


def dims(cover):
    for q in (1, 2):
        for chi in cover.characters():
            dim_omega_chi(cover, chi, q, 0)
    return 2 * cover.degree


def omega(cover):
    for chi in cover.characters():
        omega_divisor(cover, chi, 1).presentation()
    return 2 * cover.degree


def chevalley_weil(cover):
    for chi in cover.characters():
        cw_multiplicity(cover, chi, 2, 0)
    return cover.degree


def analytic(cover):
    for chi in cover.characters():
        analytic_multiplicity(cover, chi)
    return cover.degree


def rational(cover):
    for chi in cover.characters():
        rational_multiplicity(cover, chi)
    return cover.degree


def ichi(cover):
    div = trivial_divisor(cover, 3)
    for chi in cover.characters():
        div.i_chi(chi)
    return cover.degree


def traces(cover):
    group = cover.group
    for tau in list(group.elements())[1:]:
        eichler_trace(cover, tau, 1, 0)
    return group.order - 1


class TestOneCheckPerPublicCall:
    """A listing question's checks, per public call it makes: one check of
    the argument each, none for rows already read or vectors already
    reduced.  The per-cover memos are built before counting."""

    @pytest.fixture
    def counted(self, monkeypatch):
        cover = z60_cover()
        assert cover.validate().ok and cover.genus() >= 2
        cover.u_row(cover.trivial_character)
        for q in (1, 2):
            delta_info(cover, q, 0)
        calls = [0]
        check = GroupSpec.check_element

        def counting(group, x):
            calls[0] += 1
            return check(group, x)

        monkeypatch.setattr(GroupSpec, "check_element", counting)
        return cover, calls

    QUESTIONS = [tchi, hchi, dims, omega, chevalley_weil, traces, analytic, rational, ichi]

    @pytest.mark.parametrize("question", QUESTIONS, ids=lambda f: f.__name__)
    def test_listing_question(self, counted, question):
        cover, calls = counted
        public_calls = question(cover)
        assert 0 < calls[0] <= public_calls

    def test_decompose_checks_per_orbit_only(self, counted):
        cover, calls = counted
        orbits = len(cover.group.rational_character_orbits())
        calls[0] = 0
        decompose(cover)
        # the orbit walk's order and the representative's row, per orbit
        assert calls[0] <= 2 * orbits < cover.degree


class TestLibraryWalksReadTheUTable:
    """``validate``'s character scan and the +1 search zip ``characters()``
    with ``u_table()``: no character's row is read, or checked, on its own."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = [0]
        check = GroupSpec.check_element

        def counting(group, x):
            calls[0] += 1
            return check(group, x)

        monkeypatch.setattr(GroupSpec, "check_element", counting)
        return calls

    def test_validate_scan(self, checks):
        # classes 2 and 58 sum to 0 but generate only 2Z_60: every t is an
        # integer, and chi(30), trivial on both, has t = 0
        group = GroupSpec((60,))
        cover = CoverSpec(0, group, tuple(BranchPoint(pt(j + 1), group.element([x])) for j, x in enumerate([2, 58])))
        cover.u_row(cover.trivial_character)
        checks[0] = 0
        report = cover.validate()
        assert [(issue.kind, issue.character) for issue in report.issues] == [("degenerate", group.character([30]))]
        # the generators' checks in the generating-vector test; none per character
        assert checks[0] == len(cover.branch_classes)

    def test_validate_words_issues_from_the_scan(self, checks):
        # one point of class 1 in Z_60: t(chi(k)) = k/60, so 59 non-integral issues
        group = GroupSpec((60,))
        cover = CoverSpec(0, group, (BranchPoint(pt(1), group.element([1])),))
        checks[0] = 0
        report = cover.validate()
        assert [(issue.kind, issue.character, issue.detail) for issue in report.issues] == [
            ("non-integral", group.character([k]), f"t = {Fraction(k, 60)}") for k in range(1, 60)
        ]
        # the unit column's two checks (the unit character and the class); none per issue
        assert checks[0] == 2

    def test_delta_search(self, checks):
        group = GroupSpec((6,))
        cover = CoverSpec(0, group, tuple(BranchPoint(pt(j + 1), group.element([x])) for j, x in enumerate([1, 2, 3])))
        assert cover.genus() == 1
        cover.u_row(cover.trivial_character)
        checks[0] = 0
        for q in (1, 2, 3):
            assert delta_info(cover, q, 0).delta == 1
        assert checks[0] == 0
