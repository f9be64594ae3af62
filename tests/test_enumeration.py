import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import galcov.cover
from galcov import (
    BranchPoint,
    CoverSpec,
    GroupSpec,
    InvariantDivisor,
    brute_force_filter,
    count_by_cardinality,
    enumerate_degree_gm1,
    enumerate_nonspecial_integral,
    iter_degree_gm1,
    iter_nonspecial_integral,
    search_space_size,
    trivial_divisor,
)
from galcov.cover import BranchClass
from galcov.enumeration import _CardinalitySystem, _class_assignments
from galcov.errors import (
    DegenerateCover,
    GalcovError,
    NonIntegralInvariant,
    NotAbelian,
    SearchSpaceTooLarge,
    UnsupportedBaseGenus,
)
from galcov.groups import DEFAULT_CAP

import enumeration_oracle as oracle
from covergen import covers, cyclic_cover, fixture_covers, hyperelliptic, klein_cover, pt

FAMILIES = ("integral", "gm1")
STREAMS = {"integral": iter_nonspecial_integral, "gm1": iter_degree_gm1}
LISTINGS = {"integral": enumerate_nonspecial_integral, "gm1": enumerate_degree_gm1}


def buckets_of(divisors):
    return {d.buckets for d in divisors}


class TestNonSpecialIntegral:
    def test_hyperelliptic6_pairs(self):
        cover = hyperelliptic(6)
        divisors = enumerate_nonspecial_integral(cover)
        assert len(divisors) == 15 == math.comb(6, 2)
        expected = {
            tuple(0 if j in (a, b) else 1 for j in range(6))
            for a in range(6)
            for b in range(a + 1, 6)
        }
        assert buckets_of(divisors) == expected

    def test_four_point_genus1(self):
        divisors = enumerate_nonspecial_integral(hyperelliptic(4))
        assert len(divisors) == 4  # one branch point each

    def test_z3_fixture(self):
        cover = cyclic_cover(3, [1, 1, 1])
        divisors = enumerate_nonspecial_integral(cover)
        assert len(divisors) == 3
        for div in divisors:
            assert tuple(map(div.buckets.count, range(3))) == (0, 1, 2)

    def test_klein_has_none(self):
        # no invariant divisor of odd degree 1 exists on the Klein cover
        assert enumerate_nonspecial_integral(klein_cover()) == []

    def test_all_outputs_are_nonspecial(self):
        for cover in fixture_covers():
            g = cover.genus()
            for div in enumerate_nonspecial_integral(cover):
                assert div.p == 0
                assert div.degree() == g
                assert div.r_total() == 1
                assert div.i_total() == 0


class TestDegreeGm1:
    def test_hyperelliptic6_triples(self):
        divisors = enumerate_degree_gm1(hyperelliptic(6))
        assert len(divisors) == 20 == math.comb(6, 3)

    def test_four_point_genus1(self):
        divisors = enumerate_degree_gm1(hyperelliptic(4))
        assert len(divisors) == 6 == math.comb(4, 2)

    def test_z3_patterns(self):
        cover = cyclic_cover(3, [1, 1, 1])
        divisors = enumerate_degree_gm1(cover)
        assert len(divisors) == 6
        for div in divisors:
            assert tuple(map(div.buckets.count, range(3))) == (1, 1, 1)
            assert sorted(div.exponent(j) for j in range(3)) == [0, 1, 2]

    def test_all_outputs_have_no_sections(self):
        for cover in fixture_covers():
            g = cover.genus()
            for div in enumerate_degree_gm1(cover):
                assert div.p == -1
                assert div.degree() == g - 1
                assert div.r_total() == 0
                assert div.i_total() == 0


class TestBruteForceOracle:
    def test_matches_both_families_on_fixtures(self):
        for cover in fixture_covers():
            if search_space_size(cover) > 10**6:
                continue
            g = cover.genus()
            assert buckets_of(brute_force_filter(cover, 0, g, 1)) == buckets_of(
                enumerate_nonspecial_integral(cover)
            )
            assert buckets_of(brute_force_filter(cover, -1, g - 1, 0)) == buckets_of(
                enumerate_degree_gm1(cover)
            )

    @settings(max_examples=25, deadline=None)
    @given(covers(max_order=12, max_points=5))
    def test_matches_on_random_covers(self, cover):
        g = cover.genus()
        assert buckets_of(brute_force_filter(cover, 0, g, 1)) == buckets_of(
            enumerate_nonspecial_integral(cover)
        )

    def test_degree_zero_dimension_one_is_trivial_divisor(self):
        cover = hyperelliptic(6)
        assert brute_force_filter(cover, 0, 0, 1) == [trivial_divisor(cover)]

    def test_cap_enforced(self):
        with pytest.raises(SearchSpaceTooLarge):
            brute_force_filter(hyperelliptic(6), 0, 2, 1, cap=10)


class TestCounts:
    def test_counts_match_lengths(self):
        for cover in fixture_covers():
            assert count_by_cardinality(cover, "integral") == len(
                enumerate_nonspecial_integral(cover)
            )
            assert count_by_cardinality(cover, "gm1") == len(enumerate_degree_gm1(cover))

    def test_fixture_counts(self):
        assert count_by_cardinality(hyperelliptic(6), "integral") == 15
        assert count_by_cardinality(hyperelliptic(6), "gm1") == 20
        assert count_by_cardinality(cyclic_cover(3, [1, 1, 1]), "integral") == 3

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            count_by_cardinality(hyperelliptic(6), "cuspidal")


class TestDeterminism:
    def test_sorted_output_and_stable_streams(self):
        cover = hyperelliptic(6)
        listed = enumerate_nonspecial_integral(cover)
        assert [d.buckets for d in listed] == sorted(d.buckets for d in listed)
        assert list(iter_nonspecial_integral(cover)) == list(iter_nonspecial_integral(cover))
        assert list(iter_degree_gm1(cover)) == list(iter_degree_gm1(cover))

    def test_finite_search_space(self):
        for cover in fixture_covers():
            assert search_space_size(cover) == math.prod(
                cover.point_order(j) for j in range(len(cover.branch_points))
            )


class TestPreconditions:
    def test_positive_genus_rejected(self):
        from galcov import CoverSpec, GroupSpec

        cover = CoverSpec(1, GroupSpec((2,)), ())
        with pytest.raises(UnsupportedBaseGenus):
            enumerate_nonspecial_integral(cover)

    def test_generic_mode_rejected(self):
        from galcov import ClassTable, cover_from_class_table

        table = ClassTable.build([("c", 2, 4)], 2, {"x": {"c": 1}})
        cover = cover_from_class_table(0, table)
        with pytest.raises(NotAbelian):
            enumerate_degree_gm1(cover)

    def test_invalid_cover_rejected(self):
        from galcov import BranchPoint, CoverSpec, GroupSpec
        from galcov.errors import NonIntegralInvariant
        from covergen import pt

        g = GroupSpec((2,))
        cover = CoverSpec(0, g, tuple(BranchPoint(pt(i), g.element([1])) for i in range(5)))
        with pytest.raises(NonIntegralInvariant):
            enumerate_nonspecial_integral(cover)


def line_cover(orders, classes):
    group = GroupSpec(orders)
    return CoverSpec(0, group, tuple(BranchPoint(pt(j + 1), group.element(x)) for j, x in enumerate(classes)))


@st.composite
def drawn_line_covers(draw):
    """A cover of the line by one or two cyclic factors of order 2 to 6 with
    up to five points of nontrivial classes drawn freely: valid or not."""
    orders = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=2)))
    element = st.tuples(*(st.integers(0, m - 1) for m in orders)).filter(any)
    return line_cover(orders, draw(st.lists(element, max_size=5)))


def outcome(call):
    """None when the call returns, else the galcov error's type and text."""
    try:
        call()
    except GalcovError as exc:
        return type(exc), str(exc)
    return None


class TestValidityFromTheWalk:
    """The counts and streams decide validity in their u-table walk, with
    the error ``validate`` would raise, and run no ``validate`` of their own
    below the cap."""

    @given(drawn_line_covers())
    @example(line_cover((6,), [(1,), (5,)]))  # valid
    @example(line_cover((6,), [(1,), (1,)]))  # non-integral at chi(1)
    @example(line_cover((6,), [(2,), (4,)]))  # degenerate at chi(3)
    @example(line_cover((2, 4), [(0, 1), (0, 3)]))  # degenerate at chi(1, 0)
    @example(line_cover((5,), []))  # degenerate at chi(1)
    @settings(max_examples=150, deadline=None)
    def test_same_error_as_validate(self, cover):
        expected = outcome(lambda: cover.validate().raise_for_status())
        for family in FAMILIES:
            assert outcome(lambda: count_by_cardinality(cover, family)) == expected
            assert outcome(lambda: STREAMS[family](cover)) == expected  # at the call, before any next()
            assert outcome(lambda: LISTINGS[family](cover)) == expected
        if expected is None:
            assert count_by_cardinality(cover, "gm1") == len(enumerate_degree_gm1(cover))

    @pytest.mark.parametrize(
        "classes, error",
        [
            ((1, 3), NonIntegralInvariant),
            ((2, DEFAULT_CAP * 2 - 2), DegenerateCover),
            ((1, DEFAULT_CAP * 2 - 1), SearchSpaceTooLarge),
        ],
    )
    def test_above_the_cap_validate_names_the_fault(self, classes, error):
        # Z_{2 DEFAULT_CAP}: the walk is refused, so only valid data gets the size refusal
        cover = line_cover((DEFAULT_CAP * 2,), [(x,) for x in classes])
        expected = outcome(lambda: cover.validate().raise_for_status()) or outcome(cover.u_table)
        assert expected[0] is error
        for family in FAMILIES:
            assert outcome(lambda: count_by_cardinality(cover, family)) == expected
            assert outcome(lambda: STREAMS[family](cover)) == expected

    def test_no_validate_and_no_smith_form(self, monkeypatch):
        calls = []
        smith, validate = galcov.cover.smith_diagonal, CoverSpec.validate
        monkeypatch.setattr(galcov.cover, "smith_diagonal", lambda *a: calls.append("smith") or smith(*a))
        monkeypatch.setattr(CoverSpec, "validate", lambda cover: calls.append("validate") or validate(cover))
        for cover in (hyperelliptic(6), cyclic_cover(6, [1, 2, 3]), klein_cover()):
            for family in FAMILIES:
                count_by_cardinality(cover, family)
                list(STREAMS[family](cover))
        assert calls == []

    def test_brute_force_filter_validates(self):
        cover = line_cover((6,), [(2,), (4,)])
        with pytest.raises(DegenerateCover) as raised:
            brute_force_filter(cover, 0, cover.genus(), 1)
        assert str(raised.value) == "degenerate cover: t vanishes at nontrivial character chi(3)"


class TestAgainstUnprunedSearch:
    """The pruned search against the unpruned reference in enumeration_oracle."""

    def check(self, cover):
        for family in FAMILIES:
            solutions = list(_CardinalitySystem(cover, family).solutions())
            assert solutions == list(oracle.cardinality_solutions(cover, family))
            count = count_by_cardinality(cover, family)
            assert count == oracle.count_by_cardinality(cover, family)
            if count <= 5000:  # keeps the materialized streams small
                streamed = list(STREAMS[family](cover))
                assert [d.buckets for d in streamed] == list(oracle.stream(cover, family))
                for d in streamed:
                    checked = InvariantDivisor(cover, d.buckets, d.p)
                    assert d == checked and hash(d) == hash(checked) and repr(d) == repr(checked)
                    assert type(d.buckets) is tuple and all(type(i) is int for i in d.buckets)
                    assert d.base_part == ()

    def test_fixtures(self):
        for cover in fixture_covers():
            self.check(cover)

    @settings(max_examples=40, deadline=None)
    @given(covers(max_order=12, max_points=6))
    def test_random_covers(self, cover):
        self.check(cover)

    @settings(max_examples=15, deadline=None)
    @given(covers(max_order=6, max_points=5))
    def test_small_covers_match_brute_force(self, cover):
        g = cover.genus()
        for family, (p, degree, r) in (("integral", (0, g, 1)), ("gm1", (-1, g - 1, 0))):
            expected = sorted(d.buckets for d in brute_force_filter(cover, p, degree, r))
            assert sorted(d.buckets for d in STREAMS[family](cover)) == expected
            assert count_by_cardinality(cover, family) == len(expected)


@st.composite
def class_compositions(draw):
    """A class order from 2 to 7 and a composition of up to 16 points into
    that many buckets, empty buckets anywhere, with at most 12870 rows so
    that the oracle can expand it."""
    order = draw(st.integers(2, 7))
    nonempty = sorted(draw(st.sets(st.integers(0, order - 1), min_size=1)))
    k = len(nonempty)
    n = draw(st.integers(k, {1: 16, 2: 16, 3: 9, 4: 8}.get(k, 7)))
    cuts = sorted(draw(st.permutations(range(1, n)))[: k - 1])
    sizes = [0] * order
    for i, a, b in zip(nonempty, [0, *cuts], [*cuts, n]):
        sizes[i] = b - a
    return tuple(sizes)


def one_class_cover(order, n):
    """n points of the class of 1 in Z_order; unvalidated, as expand needs
    only the class's points."""
    g = GroupSpec((order,))
    return CoverSpec(0, g, tuple(BranchPoint(pt(j + 1), g.element([1])) for j in range(n)))


class TestClassTables:
    """One composition check stands in for the per-divisor one; the tables
    equal the oracle's expansion, order included."""

    def test_built_tables_pass(self):
        table = _class_assignments(BranchClass((1,), 3, (0, 4, 5)), (1, 0, 2))
        assert table == [(0, 2, 2), (2, 0, 2), (2, 2, 0)]

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_every_composition_matches_the_oracle(self, m):
        cover = cyclic_cover(m, [1] * m)  # one class of m points, of order m
        for sizes in oracle.compositions(m, m):
            assert _class_assignments(cover.branch_classes[0], sizes) == list(oracle.expand(cover, (sizes,)))

    @given(class_compositions())
    @settings(max_examples=60, deadline=None)
    @example((0, 8, 0, 8, 0))  # a two-bucket class of 16 points
    @example((0, 0, 0, 0, 0, 0, 5))  # a lone nonempty bucket, last
    @example((3, 0))  # a lone nonempty bucket, first
    def test_drawn_compositions_match_the_oracle(self, sizes):
        cover = one_class_cover(len(sizes), sum(sizes))
        assert _class_assignments(cover.branch_classes[0], sizes) == list(oracle.expand(cover, (sizes,)))

    @pytest.mark.parametrize(
        "sizes",
        [(1, 0, 1, 1), (2, -1, 2), (1, 0, 1), (1, 1, 2)],
        ids=["wrong-length", "negative", "sum-short", "sum-long"],  # rows with bucket 3, -1, 2 or 4 entries
    )
    def test_bad_compositions_raise(self, sizes):
        with pytest.raises(ValueError, match=r"bucket row of class \(1,\) is not 3 entries in \[0, 3\)"):
            _class_assignments(BranchClass((1,), 3, (0, 4, 5)), sizes)

    def test_a_cover_with_no_branch_points_streams_one_empty_divisor(self):
        cover = CoverSpec(0, GroupSpec(()), ())  # the line over itself: genus 0, one solution with no classes
        assert [(d.buckets, d.p) for d in iter_nonspecial_integral(cover)] == [((), 0)]
        assert [(d.buckets, d.p) for d in iter_degree_gm1(cover)] == [((), -1)]


class TestLargeCounts:
    """Counts whose unpruned search took seconds or more."""

    @pytest.mark.parametrize("m", [11, 12])
    def test_one_class_of_m_points(self, m):
        cover = cyclic_cover(m, [1] * m)
        assert count_by_cardinality(cover, "integral") == math.factorial(m) // 2
        assert count_by_cardinality(cover, "gm1") == math.factorial(m)

    @pytest.mark.parametrize("n", [12, 24, 60])
    def test_three_point_cyclic(self, n):
        cover = cyclic_cover(n, [1, 1, n - 2])
        for family in FAMILIES:
            assert count_by_cardinality(cover, family) == oracle.count_by_cardinality(cover, family)
