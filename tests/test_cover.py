import inspect
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from galcov import (
    BranchPoint,
    Character,
    ClassTable,
    Coord,
    CoverSpec,
    GroupElement,
    GroupSpec,
    InvariantDivisor,
    ValidationReport,
    cover_from_class_table,
)
from galcov.errors import DegenerateCover, NonIntegralInvariant, NotAbelian, SearchSpaceTooLarge
from galcov.groups import DEFAULT_CAP

from covergen import class_table_covers, covers, fixture_covers, klein_cover, pt, random_validated_cover
from group_walk_oracle import add, validate_by_scan


def z2_cover(num_points):
    g = GroupSpec((2,))
    return CoverSpec(
        0, g, tuple(BranchPoint(pt(i + 1), g.element([1])) for i in range(num_points))
    )


class TestValidate:
    def test_hyperelliptic6_passes(self):
        cover = z2_cover(6)
        assert cover.validate().ok
        assert cover.t_chi(cover.group.character([1])) == 3

    def test_five_points_fail_parity(self):
        report = z2_cover(5).validate()
        assert not report.ok
        assert report.issues[0].kind == "non-integral"
        with pytest.raises(NonIntegralInvariant):
            report.raise_for_status()

    def test_z3_three_points(self):
        g = GroupSpec((3,))
        cover = CoverSpec(
            0, g, tuple(BranchPoint(pt(i), g.element([1])) for i in range(1, 4))
        )
        assert cover.validate().ok
        assert cover.t_chi(g.character([1])) == 1
        assert cover.t_chi(g.character([2])) == 2

    def test_degenerate_cover(self):
        # Klein group but only tau_1-classes: chi = (0,1) has t = 0
        g = GroupSpec((2, 2))
        cover = CoverSpec(
            0, g, (BranchPoint(pt(1), g.element([1, 0])), BranchPoint(pt(2), g.element([1, 0])))
        )
        report = cover.validate()
        assert not report.ok
        assert report.issues[0].kind == "degenerate"
        with pytest.raises(DegenerateCover):
            report.raise_for_status()

    def test_positive_genus_skips_positivity(self):
        g = GroupSpec((2,))
        cover = CoverSpec(1, g, ())
        assert cover.validate().ok  # unramified double cover of a torus

    def test_rejects_trivial_class_points(self):
        g = GroupSpec((2,))
        with pytest.raises(ValueError):
            CoverSpec(0, g, (BranchPoint(pt(1), g.element([0])),))

    def test_rejects_duplicate_labels(self):
        g = GroupSpec((2,))
        with pytest.raises(ValueError):
            CoverSpec(0, g, (BranchPoint(pt(1), g.element([1])),) * 2)

    def test_duplicate_label_message_names_the_value(self):
        g = GroupSpec((2,))
        points = [BranchPoint(pt(j), g.element([1])) for j in (1, 2, 3, 2)]
        with pytest.raises(ValueError) as raised:
            CoverSpec(0, g, points)
        assert str(raised.value) == "duplicate branch value 2"
        with pytest.raises(ValueError) as raised:
            CoverSpec(1, g, [BranchPoint("x", g.element([1]))] * 2)
        assert str(raised.value) == "duplicate branch value x"

    def test_genus0_labels_must_be_coords(self):
        g = GroupSpec((2,))
        with pytest.raises(ValueError):
            CoverSpec(0, g, (BranchPoint("a", g.element([1])),))


class TestPointTables:
    """The constructor's one pass over the points builds the point tables,
    reading each distinct class's order once, and reports the first
    offending point in point order."""

    @pytest.fixture
    def orders_read(self, monkeypatch):
        keys = []
        class_order = CoverSpec.class_order

        def counting(cover, key):
            keys.append(key)
            return class_order(cover, key)

        monkeypatch.setattr(CoverSpec, "class_order", counting)
        return keys

    def test_abelian_classes_read_once(self, orders_read):
        g = GroupSpec((2, 6))
        psis = [(0, 2), (1, 0), (0, 2), (1, 3), (1, 0), (0, 2)]
        cover = CoverSpec(0, g, tuple(BranchPoint(pt(j + 1), g.element(x)) for j, x in enumerate(psis)))
        assert orders_read == [g.element(x) for x in [(0, 2), (1, 0), (1, 3)]]
        tables = (cover.branch_classes, cover.point_orders, cover._point_classes, cover.class_weights)
        assert [(cls.key.exponents, cls.order, cls.points) for cls in tables[0]] == [
            ((0, 2), 3, (0, 2, 5)), ((1, 0), 2, (1, 4)), ((1, 3), 2, (3,)),
        ]
        assert tables[1:] == ((3, 2, 3, 2, 2, 3), (0, 1, 0, 2, 1, 0), (6, (6, 6, 3)))
        cover.genus()
        assert len(orders_read) == 3

    def test_generic_classes_read_once(self, orders_read):
        cover = cover_from_class_table(1, ClassTable.build([("s", 2, 3), ("r", 3, 2)], 6))
        assert orders_read == ["s", "r"]
        assert [(cls.key, cls.points) for cls in cover.branch_classes] == [("r", (3, 4)), ("s", (0, 1, 2))]
        assert cover.point_orders == (2, 2, 2, 3, 3) and cover._point_classes == (1, 1, 1, 0, 0)

    @pytest.mark.parametrize(
        "labels, exponents, message",
        [((1, 2, 2), (1, 0, 1), "branch value 2 has trivial class"), ((1, 1, 2), (1, 1, 0), "duplicate branch value 1")],
    )
    def test_first_offending_point_is_reported(self, labels, exponents, message):
        g = GroupSpec((2,))
        with pytest.raises(ValueError) as raised:
            CoverSpec(0, g, [BranchPoint(pt(x), g.element([e])) for x, e in zip(labels, exponents)])
        assert str(raised.value) == message

    def test_a_class_key_with_list_exponents_is_refused(self):
        # a key is hashed to group the points: list exponents are refused first, naming the point
        g = GroupSpec((60,))
        with pytest.raises(TypeError) as raised:
            CoverSpec(0, g, (BranchPoint(Coord(1), GroupElement([1])),))
        assert str(raised.value) == "branch value 1: class exponents [1] are no tuple"
        with pytest.raises(TypeError) as raised:
            CoverSpec(0, g, (BranchPoint(pt(1), g.element([1])), BranchPoint(pt(2), GroupElement([59]))))
        assert str(raised.value) == "branch value 2: class exponents [59] are no tuple"

    @pytest.mark.parametrize("key", [[1], {1: 2}, "a"], ids=["list", "dict", "class-id"])
    def test_a_class_key_that_is_no_group_element_is_refused_before_hashing(self, key):
        g = GroupSpec((6,))
        with pytest.raises(TypeError) as raised:
            CoverSpec(0, g, (BranchPoint(Coord(1), key),))
        assert str(raised.value) == f"branch value 1: abelian covers index classes by group elements, got {key!r}"

    def test_an_unhashable_class_table_key_is_refused(self):
        table = ClassTable.build([("a", 2)], 2)
        with pytest.raises(TypeError) as raised:
            CoverSpec(0, table, (BranchPoint(Coord(1), ["a"]),))
        assert str(raised.value) == "branch value 1: a class key must be hashable, got ['a']"

    @pytest.mark.parametrize("key", ["b", 1], ids=["str", "int"])
    def test_a_class_id_missing_from_the_table_is_refused(self, key):
        table = ClassTable.build([("a", 2)], 2)
        with pytest.raises(ValueError) as raised:
            CoverSpec(0, table, (BranchPoint(Coord(1), key),))
        assert str(raised.value) == f"branch value 1: class {key!r} is not in the class table"


class TestGenus:
    def test_four_points(self):
        assert z2_cover(4).genus() == 1

    def test_six_points(self):
        assert z2_cover(6).genus() == 2

    def test_trivial_group_any_base(self):
        for g_s in range(4):
            assert CoverSpec(g_s, GroupSpec(()), ()).genus() == g_s

    def test_riemann_hurwitz_brute(self):
        # total branching number: each branch value contributes (n/o)(o-1)
        for cover in fixture_covers():
            n = cover.degree
            total_branching = sum(
                (n // cls.order) * (cls.order - 1) * cls.count for cls in cover.branch_classes
            )
            assert 2 * cover.genus() - 2 == n * (2 * cover.base_genus - 2) + total_branching

    def test_non_integral_genus_raises(self):
        with pytest.raises(NonIntegralInvariant):
            z2_cover(5).genus()


class TestTChi:
    def test_trivial_character_is_zero(self):
        for cover in fixture_covers():
            assert cover.t_chi(cover.trivial_character) == 0

    def test_hyperelliptic_value(self):
        cover = z2_cover(6)
        assert cover.t_chi(cover.group.character([1])) == 3

    def test_klein_single_factor_character(self):
        cover = klein_cover()
        assert cover.t_chi(cover.group.character([1, 0])) == 1

    def test_sum_over_characters_identity(self):
        for cover in fixture_covers():
            n = cover.degree
            total = sum(cover.t_chi(chi) for chi in cover.characters())
            expected = Fraction(n, 2) * sum(
                cls.count * (1 - Fraction(1, cls.order)) for cls in cover.branch_classes
            )
            assert total == expected

    def test_genus_from_t_invariants(self):
        for cover in fixture_covers():
            assert (
                sum(cover.t_chi(chi) - 1 for chi in cover.characters() if not chi.is_trivial)
                == cover.genus()
            )

    @settings(max_examples=40, deadline=None)
    @given(covers())
    def test_genus_identity_random(self, cover):
        assert (
            sum(cover.t_chi(chi) - 1 for chi in cover.characters() if not chi.is_trivial)
            == cover.genus()
        )


class TestQuotient:
    def test_full_group_gives_trivial_cover(self):
        cover = klein_cover()
        q = cover.quotient(list(cover.group.elements()))
        assert q.group.cyclic_orders == ()
        assert q.branch_points == ()
        assert q.genus() == 0

    def test_identity_subgroup_keeps_cover(self):
        cover = klein_cover()
        q = cover.quotient([cover.group.identity])
        assert q.degree == cover.degree
        assert q.genus() == cover.genus()
        assert len(q.branch_points) == len(cover.branch_points)

    def test_klein_quotient_by_tau2(self):
        cover = klein_cover()
        q = cover.quotient([cover.group.element([0, 1])])
        assert q.group.cyclic_orders == (2,)
        assert sorted(str(bp.label) for bp in q.branch_points) == ["1", "2"]
        assert q.genus() == 0

    def test_klein_quotient_by_diagonal(self):
        cover = klein_cover()
        q = cover.quotient([cover.group.element([1, 1])])
        assert q.group.cyclic_orders == (2,)
        assert len(q.branch_points) == 4
        assert q.genus() == 1

    @settings(max_examples=30, deadline=None)
    @given(covers(max_order=24, max_points=6), st.integers(0, 10**6))
    def test_projection_is_a_homomorphism_with_expected_kernel(self, cover, seed):
        rng = random.Random(seed)
        group = cover.group
        gens = [
            group.element([rng.randrange(m) for m in group.cyclic_orders])
            for _ in range(rng.randint(0, 2))
        ]
        quotient, project = cover.quotient_projection(gens)
        new_group = quotient.group
        # homomorphism
        for _ in range(10):
            x = group.element([rng.randrange(m) for m in group.cyclic_orders])
            y = group.element([rng.randrange(m) for m in group.cyclic_orders])
            assert project(add(group, x, y)) == add(new_group, project(x), project(y))
        # generators die
        for gen in gens:
            assert project(gen) == new_group.identity
        # kernel size matches the subgroup closure
        kernel = [x for x in group.elements() if project(x) == new_group.identity]
        closure = {group.identity}
        frontier = [group.identity]
        while frontier:
            current = frontier.pop()
            for gen in gens:
                nxt = add(group, current, gen)
                if nxt not in closure:
                    closure.add(nxt)
                    frontier.append(nxt)
        assert set(kernel) == closure
        assert len(kernel) * new_group.order == group.order
        # ascending divisibility
        orders = new_group.cyclic_orders
        assert all(orders[i + 1] % orders[i] == 0 for i in range(len(orders) - 1))

    @settings(max_examples=25, deadline=None)
    @given(covers(max_order=24, max_points=6), st.integers(0, 10**6))
    def test_quotient_genus_monotone(self, cover, seed):
        rng = random.Random(seed)
        group = cover.group
        gens = [
            group.element([rng.randrange(m) for m in group.cyclic_orders])
            for _ in range(rng.randint(0, 2))
        ]
        assert cover.quotient(gens).genus() <= cover.genus()

    def test_generic_mode_rejected(self):
        table = ClassTable.build([("c", 2, 2)], 2)
        cover = cover_from_class_table(1, table)
        with pytest.raises(NotAbelian):
            cover.quotient([])


class TestGenericMode:
    def test_cover_from_class_table(self):
        table = ClassTable.build(
            [("r", 3, 2), ("s", 2, 2)], 6, {"sgn": {"r": 0, "s": 1}}
        )
        cover = cover_from_class_table(1, table)
        assert cover.degree == 6
        assert [cls.count for cls in cover.branch_classes] == [2, 2]
        # genus via the class data: 1 + 6*0 + 6*2/(2*3)*2 + 6*2/(2*2)*1
        assert cover.genus() == 1 + 0 + 4 + 3
        (sgn,) = cover.characters()
        assert cover.t_chi(sgn) == 1
        assert cover.validate().ok


@st.composite
def any_branch_data(draw):
    """Abelian branch data, not necessarily valid, with factors of order 1 and
    classes whose order o(x) need not be a multiple of every m_i."""
    orders = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=1, max_size=3))
    group = GroupSpec(tuple(orders))
    exps = draw(
        st.lists(st.tuples(*(st.integers(0, m - 1) for m in orders)), min_size=1, max_size=6)
    )
    classes = [group.element(e) for e in exps if group.element_order(group.element(e)) > 1]
    return CoverSpec(0, group, tuple(BranchPoint(pt(j + 1), x) for j, x in enumerate(classes)))


@st.composite
def branch_data_on_any_base(draw):
    """Abelian branch data on a base of genus 0, 1 or 2, with classes that
    sum to zero about half the time, so valid and invalid data both occur."""
    orders = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8]), min_size=1, max_size=3))
    group = GroupSpec(tuple(orders))
    vectors = draw(
        st.lists(st.tuples(*(st.integers(0, m - 1) for m in orders)), max_size=5)
    )
    classes = [group.element(e) for e in vectors]
    if vectors and draw(st.booleans()):
        classes.append(group.element([-sum(col) for col in zip(*vectors)]))
    classes = [x for x in classes if group.element_order(x) > 1]
    base_genus = draw(st.sampled_from([0, 0, 1, 2]))
    return CoverSpec(base_genus, group, tuple(BranchPoint(pt(j + 1), x) for j, x in enumerate(classes)))


class TestValidityByGenerators:
    @given(branch_data_on_any_base())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_character_scan(self, cover):
        scanned = validate_by_scan(cover)
        assert cover.validate() == scanned
        # the two equivalences the report rests on, through the public API
        group = cover.group
        total = [
            sum(cls.count * cls.key.exponents[i] for cls in cover.branch_classes) % m
            for i, m in enumerate(group.cyclic_orders)
        ]
        integral = not any(total)
        assert integral == all(issue.kind != "non-integral" for issue in scanned.issues)
        if cover.base_genus == 0 and integral:
            generated = cover.quotient([cls.key for cls in cover.branch_classes]).degree == 1
            assert generated == scanned.ok

    @given(branch_data_on_any_base())
    @settings(max_examples=60, deadline=None)
    def test_valid_cover_never_walks_the_dual_group(self, cover):
        if not validate_by_scan(cover).ok:
            return
        with mock.patch.object(GroupSpec, "characters", side_effect=AssertionError("walked")):
            assert cover.validate() == ValidationReport(True, ())


class TestUTable:
    """``u_table`` streams, in ``characters()`` order, the rows ``u_row`` gives."""

    @staticmethod
    def rows_by_character(cover):
        return [cover.u_row(chi) for chi in cover.characters()]

    @given(branch_data_on_any_base())
    @settings(max_examples=150, deadline=None)
    def test_abelian(self, cover):
        assert list(cover.u_table()) == self.rows_by_character(cover)

    @given(class_table_covers())
    @settings(max_examples=60, deadline=None)
    def test_generic(self, cover):
        assert list(cover.u_table()) == self.rows_by_character(cover)

    @pytest.mark.parametrize(
        "orders,base_genus,psis",
        [
            ((), 0, []),  # the rank-0 group
            ((), 1, []),
            ((1,), 0, []),  # Z_1
            ((1, 1), 1, []),
            ((2, 3), 1, []),  # unramified: |G| empty rows
            ((4,), 2, []),
            ((1, 4), 0, [(0, 1), (0, 3)]),  # a factor of order 1 inside
            ((2, 2, 2), 0, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
            ((3, 1, 4), 0, [(1, 0, 2), (2, 0, 2)]),
        ],
    )
    def test_edge_groups(self, orders, base_genus, psis):
        group = GroupSpec(orders)
        points = tuple(BranchPoint(pt(j + 1), group.element(x)) for j, x in enumerate(psis))
        cover = CoverSpec(base_genus, group, points)
        rows = list(cover.u_table())
        assert len(rows) == group.order
        assert rows == self.rows_by_character(cover)

    def test_refused_above_the_cap_without_walking(self):
        group = GroupSpec((DEFAULT_CAP + 1,))
        points = (BranchPoint(pt(1), group.element([1])), BranchPoint(pt(2), group.element([-1])))
        cover = CoverSpec(0, group, points)
        with mock.patch.object(GroupSpec, "characters", side_effect=AssertionError("walked")):
            with pytest.raises(SearchSpaceTooLarge):
                cover.u_table()

    def test_is_an_iterator_not_a_generator_function(self):
        # perfbench's tracer opens one span per next() of a generator function
        assert not inspect.isgeneratorfunction(CoverSpec.u_table)
        rows = z2_cover(4).u_table()
        assert iter(rows) is rows
        assert next(rows) == (0,)

    def test_r_total_holds_no_dual_group(self):
        # a 3-point Z_{10^4} cover; walking characters() held range(10^4) as a
        # tuple, about 390 KB of peak traced memory; the u-table holds a row
        n = 10**4
        group = GroupSpec((n,))
        points = tuple(BranchPoint(pt(j + 1), group.element([x])) for j, x in enumerate([1, 1, n - 2]))
        cover = CoverSpec(0, group, points)
        div = InvariantDivisor(cover, (3, 5, 7), 0)
        expected = div.r_total()  # fills the cover's cached class data first
        tracemalloc.start()
        try:
            assert div.r_total() == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestURow:
    @given(any_branch_data())
    @settings(max_examples=60, deadline=None)
    def test_row_is_the_group_u_value(self, cover):
        group = cover.group
        for chi in group.characters():
            row = cover.u_row(chi)
            assert len(row) == len(cover.branch_classes)
            for u, cls in zip(row, cover.branch_classes):
                assert u == group.u_value(chi, cls.key)
            assert cover.t_fraction(chi) == sum(
                (Fraction(cls.count * u, cls.order) for cls, u in zip(cover.branch_classes, row)),
                Fraction(0),
            )

    def test_order_one_factor_and_x2_in_z4(self):
        group = GroupSpec((1, 4))
        cover = CoverSpec(0, group, (BranchPoint(pt(1), group.element([0, 2])),))
        # o(x) = 2 while the factor has order 4: u = k mod 2
        assert [cover.u_row(group.character([0, k])) for k in range(4)] == [(0,), (1,), (0,), (1,)]

    def test_malformed_character_rejected(self):
        cover = z2_cover(2)
        with pytest.raises(ValueError):
            cover.u_row(Character((2,)))

    def test_generic_row_is_the_supplied_row(self):
        table = ClassTable.build(
            [("r", 3, 2), ("s", 2, 2)], 6, {"sgn": {"r": 0, "s": 1}, "w": {"r": 2, "s": 0}}
        )
        cover = cover_from_class_table(1, table)
        rows = {chi.name: cover.u_row(chi) for chi in cover.characters()}
        assert rows == {"sgn": (0, 1), "w": (2, 0)}

    def test_generic_missing_class_raises(self):
        table = ClassTable.build([("r", 3, 1), ("s", 2, 2)], 6, {"sgn": {"s": 1}})
        cover = cover_from_class_table(1, table)
        (sgn,) = cover.characters()
        with pytest.raises(ValueError, match="character sgn supplies no value on class r"):
            cover.u_row(sgn)
