import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from galcov import (
    BranchPoint,
    Character,
    ClassTable,
    CoverSpec,
    GenericCharacter,
    GroupElement,
    GroupSpec,
    cover_from_class_table,
    euler_phi,
)
from galcov.differentials import conjugate, cw_multiplicity, dim_omega_chi, eichler_trace, omega_divisor
from galcov.divisors import h_chi_divisor, trivial_divisor
from galcov.errors import NotAbelian, SearchSpaceTooLarge
from galcov.groups import DEFAULT_CAP, smith_diagonal
from galcov.jacobian import analytic_multiplicity, rational_multiplicity

import fraction_oracle
import group_walk_oracle
from covergen import pt


def brute_order(group, x):
    """Order by repeated composition until the identity returns."""
    current = x
    for k in range(1, group.order + 1):
        if current == group.identity:
            return k
        current = group_walk_oracle.add(group, current, x)
    raise AssertionError("no order found within the group order")


small_groups = st.lists(st.sampled_from([1, 2, 3, 4, 5, 6]), min_size=1, max_size=3).map(
    lambda orders: GroupSpec(tuple(orders))
)


class TestElementOrder:
    def test_z2_generator(self):
        g = GroupSpec((2,))
        assert g.element_order(g.element([1])) == 2

    def test_klein_four(self):
        g = GroupSpec((2, 2))
        assert g.element_order(g.element([1, 1])) == 2

    def test_z4_x_z6(self):
        g = GroupSpec((4, 6))
        x = g.element([2, 3])
        assert g.element_order(x) == brute_order(g, x) == 2

    @given(small_groups, st.integers(0, 10**6))
    def test_matches_brute_force(self, g, seed):
        rng = random.Random(seed)
        x = g.element([rng.randrange(m) for m in g.cyclic_orders])
        assert g.element_order(x) == brute_order(g, x)

    def test_malformed_vector(self):
        g = GroupSpec((2, 3))
        with pytest.raises(ValueError):
            g.element_order(GroupElement((1,)))
        with pytest.raises(ValueError):
            g.element_order(GroupElement((2, 0)))


class TestUValue:
    def test_trivial_character_everywhere(self):
        g = GroupSpec((4, 6))
        one = g.trivial_character
        for x in g.elements():
            if x != g.identity:
                assert g.u_value(one, x) == 0

    def test_z2(self):
        g = GroupSpec((2,))
        assert g.u_value(g.character([1]), g.element([1])) == 1

    def test_z3(self):
        g = GroupSpec((3,))
        assert g.u_value(g.character([2]), g.element([1])) == 2

    @given(small_groups, st.integers(0, 10**6))
    def test_against_complex_exponential(self, g, seed):
        rng = random.Random(seed)
        chi = g.character([rng.randrange(m) for m in g.cyclic_orders])
        x = g.element([rng.randrange(m) for m in g.cyclic_orders])
        if x == g.identity:
            return
        u = g.u_value(chi, x)
        o = g.element_order(x)
        assert 0 <= u < o
        direct = cmath.exp(
            2j
            * cmath.pi
            * sum(k * a / m for k, a, m in zip(chi.exponents, x.exponents, g.cyclic_orders))
        )
        assert abs(direct - cmath.exp(2j * cmath.pi * u / o)) < 1e-12

    def test_order_not_dividing_factor_order(self):
        # x = 2 in Z4 has order 2, and 4 does not divide 2: u = k * (2 * 2 // 4)
        g = GroupSpec((4,))
        assert [g.u_value(g.character([k]), g.element([2])) for k in range(4)] == [0, 1, 0, 1]

    def test_equals_order_times_pairing(self):
        for g in (GroupSpec((4, 6)), GroupSpec((2, 4, 3)), GroupSpec((12,))):
            for chi in g.characters():
                for x in g.elements():
                    assert g.u_value(chi, x) == g.element_order(x) * fraction_oracle.pairing(g, chi, x)

    @given(small_groups, st.integers(0, 10**6))
    def test_pairing_is_multiplicative(self, g, seed):
        """u_{chi,x} / o(x) is the pairing, so it adds in x modulo 1."""
        rng = random.Random(seed)
        chi = g.character([rng.randrange(m) for m in g.cyclic_orders])
        x = g.element([rng.randrange(m) for m in g.cyclic_orders])
        y = g.element([rng.randrange(m) for m in g.cyclic_orders])

        def u_over_order(z):
            return Fraction(g.u_value(chi, z), g.element_order(z))

        lhs = u_over_order(group_walk_oracle.add(g, x, y))
        rhs = u_over_order(x) + u_over_order(y)
        assert lhs == rhs - math.floor(rhs)

    @pytest.mark.parametrize("owner", ["GroupSpec", "CoverSpec"])
    @pytest.mark.parametrize("key", ["a", Character((1, 1))], ids=["class-id", "character"])
    def test_a_key_that_is_no_group_element_is_refused(self, owner, key):
        """A generic cover's class id, or a character, given as an abelian
        class key raises the TypeError of ``CoverSpec.class_order``."""
        g = GroupSpec((2, 6))
        cover = z2_z6_cover(g)
        u_value = g.u_value if owner == "GroupSpec" else cover.u_value
        expected = f"abelian covers index classes by group elements, got {key!r}"
        for call in (lambda: u_value(g.character([1, 1]), key), lambda: cover.class_order(key)):
            with pytest.raises(TypeError) as raised:
                call()
            assert str(raised.value) == expected


def z2_z6_cover(g):
    """A genus-5 cover of the line with classes (1, 1), (1, 5) and (1, 0) twice."""
    psis = [(1, 1), (1, 5), (1, 0), (1, 0)]
    return CoverSpec(0, g, tuple(BranchPoint(pt(j + 1), g.element(x)) for j, x in enumerate(psis)))


class TestCheckElement:
    """Every exponent vector a method takes is checked once, with one text;
    the public per-character and per-element questions of the other layers,
    which check once and then read rows, still check."""

    ORDERS = (2, 6)

    CALLS = {
        "u_row": lambda g, e: CoverSpec(0, g, ()).u_row(Character(e)),
        "u_value branch class": lambda g, e: z2_z6_cover(g).u_value(Character(e), g.element([1, 1])),
        "t_chi": lambda g, e: z2_z6_cover(g).t_chi(Character(e)),
        "dim_omega_chi": lambda g, e: dim_omega_chi(z2_z6_cover(g), Character(e), 2),
        "cw_multiplicity": lambda g, e: cw_multiplicity(z2_z6_cover(g), Character(e)),
        "h_chi_divisor": lambda g, e: h_chi_divisor(z2_z6_cover(g), Character(e)),
        "omega_divisor": lambda g, e: omega_divisor(z2_z6_cover(g), Character(e)),
        "eichler_trace": lambda g, e: eichler_trace(z2_z6_cover(g), GroupElement(e)),
        "element_order": lambda g, e: g.element_order(GroupElement(e)),
        "power_index base": lambda g, e: g.power_index(GroupElement(e), g.identity),
        "power_index target": lambda g, e: g.power_index(g.identity, GroupElement(e)),
        "conjugate": lambda g, e: CoverSpec(0, g, ()).conjugate_character(Character(e)),
        "analytic_multiplicity": lambda g, e: analytic_multiplicity(z2_z6_cover(g), Character(e)),
        "rational_multiplicity": lambda g, e: rational_multiplicity(z2_z6_cover(g), Character(e)),
        "i_chi": lambda g, e: trivial_divisor(z2_z6_cover(g)).i_chi(Character(e)),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize(
        "exponents", [(1,), (1, 2, 0), (-1, 0), (0, -6), (2, 0), (0, 6)],
        ids=["short", "long", "negative", "negative-multiple", "at-order", "at-order-last"],
    )
    def test_malformed_vectors_raise(self, call, exponents):
        g = GroupSpec(self.ORDERS)
        with pytest.raises(ValueError) as raised:
            self.CALLS[call](g, exponents)
        assert str(raised.value) == f"malformed exponent vector {exponents} for orders {self.ORDERS}"

    def test_reduced_vectors_pass(self):
        g = GroupSpec(self.ORDERS)
        for chi in g.characters():
            assert g.check_element(chi) is chi

    def test_list_vectors_are_checked_by_value(self):
        """An exponent list is checked as the tuple of its entries, and a
        malformed one is named as it was given."""
        g = GroupSpec(self.ORDERS)
        for cls in (Character, GroupElement):
            x = cls([1, 5])
            assert g.check_element(x) is x
            with pytest.raises(ValueError) as raised:
                g.check_element(cls([1, 6]))
            assert str(raised.value) == f"malformed exponent vector [1, 6] for orders {self.ORDERS}"
        assert g.element_order(Character([1, 2])) == 6
        assert CoverSpec(0, g, ()).u_row(Character([1, 2])) == ()
        cover = z2_z6_cover(g)
        for key in (GroupElement([1, 1]), GroupElement([0, 2])):
            expected = g.u_value(Character((1, 2)), GroupElement(tuple(key.exponents)))
            assert cover.u_value(Character([1, 2]), key) == expected


def class_table_cover():
    """A genus-8 cover of a genus-1 base by a group of order 6 with one
    one-dimensional character."""
    return cover_from_class_table(1, ClassTable.build([("r", 3, 2), ("s", 2, 2)], 6, {"sgn": {"r": 0, "s": 1}}))


class TestKindMixups:
    """An entry point that takes only characters, or only group elements,
    refuses the other kind and anything else with a worded TypeError."""

    CHARACTER_CALLS = {
        "u_row": lambda cover, x: cover.u_row(x),
        "u_value": lambda cover, x: cover.u_value(x, cover.branch_classes[0].key),
        "t_chi": lambda cover, x: cover.t_chi(x),
        "dim_omega_chi": lambda cover, x: dim_omega_chi(cover, x),
        "conjugate_character": lambda cover, x: cover.conjugate_character(x),
        "conjugate": lambda cover, x: conjugate(cover, x),
        "cw_multiplicity": lambda cover, x: cw_multiplicity(cover, x),
        "analytic_multiplicity": lambda cover, x: analytic_multiplicity(cover, x),
        "rational_multiplicity": lambda cover, x: rational_multiplicity(cover, x),
    }
    ELEMENT_CALLS = {
        "eichler_trace": lambda g, x: eichler_trace(z2_z6_cover(g), x),
        "quotient": lambda g, x: z2_z6_cover(g)._quotient_group([x]),
        "power_index base": lambda g, x: g.power_index(x, g.identity),
        "power_index target": lambda g, x: g.power_index(g.identity, x),
    }

    @pytest.mark.parametrize("call", sorted(CHARACTER_CALLS))
    @pytest.mark.parametrize("cover", ["abelian", "generic"])
    @pytest.mark.parametrize("x", [GroupElement((1, 1)), "chi(1,1)"], ids=["element", "string"])
    def test_characters_only(self, call, cover, x):
        cover = z2_z6_cover(GroupSpec((2, 6))) if cover == "abelian" else class_table_cover()
        with pytest.raises(TypeError) as raised:
            self.CHARACTER_CALLS[call](cover, x)
        assert str(raised.value) == f"expected a character, got {x!r}"

    @pytest.mark.parametrize("x", [GroupElement((1, 1)), "chi(1,1)"], ids=["element", "string"])
    def test_group_u_value_takes_a_character(self, x):
        g = GroupSpec((2, 6))
        with pytest.raises(TypeError) as raised:
            g.u_value(x, g.element([1, 1]))
        assert str(raised.value) == f"expected a character, got {x!r}"

    @pytest.mark.parametrize("call", sorted(ELEMENT_CALLS))
    @pytest.mark.parametrize("x", [Character((1, 1)), "g(1,1)"], ids=["character", "string"])
    def test_elements_only(self, call, x):
        with pytest.raises(TypeError) as raised:
            self.ELEMENT_CALLS[call](GroupSpec((2, 6)), x)
        assert str(raised.value) == f"expected a group element, got {x!r}"

    def test_the_other_cover_kind_keeps_its_error(self):
        abelian, generic = z2_z6_cover(GroupSpec((2, 6))), class_table_cover()
        sgn = generic.group.characters[0]
        for call in (abelian.u_row, abelian.conjugate_character, abelian.t_chi):
            with pytest.raises(TypeError) as raised:
                call(sgn)
            assert str(raised.value) == f"an abelian cover's characters are exponent vectors, got {sgn!r}"
        for call in (generic.u_row, generic.conjugate_character, generic.t_chi):
            with pytest.raises(NotAbelian):
                call(Character((1, 1)))

    def test_a_generic_character_on_an_abelian_cover_without_classes(self):
        # no branch class to read: the character's kind alone decides
        cover, x = CoverSpec(1, GroupSpec((2,)), ()), GenericCharacter("x", ())
        calls = {
            "u_row": cover.u_row,
            "u_value": lambda chi: cover.u_value(chi, GroupElement((1,))),
            "conjugate_character": cover.conjugate_character,
            "t_chi": cover.t_chi,
            "dim_omega_chi": lambda chi: dim_omega_chi(cover, chi),
        }
        for name, call in calls.items():
            with pytest.raises(TypeError) as raised:
                call(x)
            assert str(raised.value) == f"an abelian cover's characters are exponent vectors, got {x!r}", name


class TestPairing:
    """u_{chi,x} / o(x) is the fractional part of the Fraction sum of
    ``fraction_oracle.pairing``."""

    @given(small_groups, st.integers(0, 10**6))
    def test_matches_the_fraction_sum(self, g, seed):
        rng = random.Random(seed)
        chi = g.character([rng.randrange(m) for m in g.cyclic_orders])
        x = g.element([rng.randrange(m) for m in g.cyclic_orders])
        value = Fraction(g.u_value(chi, x), g.element_order(x))
        assert value == fraction_oracle.pairing(g, chi, x)

    def test_mixed_orders(self):
        g = GroupSpec((2, 6, 10))
        chi, x = g.character([1, 5, 3]), g.element([1, 1, 7])
        # 1/2 + 5/6 + 21/10 = 103/30, fractional part 13/30, and o(x) = 30
        assert (g.u_value(chi, x), g.element_order(x)) == (13, 30)
        assert fraction_oracle.pairing(g, chi, x) == Fraction(13, 30)


@st.composite
def group_with_base_and_target(draw):
    """A group with order-1 factors and factors sharing divisors with the
    exponents, a base, and a target that lies in <base> about half the time."""
    orders = draw(st.lists(st.sampled_from([1, 1, 2, 4, 6, 8, 9, 12]), min_size=1, max_size=3))
    g = GroupSpec(tuple(orders))
    vector = st.tuples(*(st.integers(0, m - 1) for m in orders))
    base = g.element(draw(vector))
    if draw(st.booleans()):
        target = g.element([draw(st.integers(0, 30)) * s for s in base.exponents])
    else:
        target = g.element(draw(vector))
    return g, base, target


class TestPowerIndex:
    @given(group_with_base_and_target())
    def test_matches_the_walk(self, drawn):
        g, base, target = drawn
        assert g.power_index(base, target) == group_walk_oracle.power_index(g, base, target)

    def test_every_pair_in_z1_x_z4_x_z6(self):
        g = GroupSpec((1, 4, 6))
        for base in g.elements():
            for target in g.elements():
                assert g.power_index(base, target) == group_walk_oracle.power_index(g, base, target)

    def test_needs_the_non_coprime_crt(self):
        # base (2, 3) in Z4 x Z6: each factor fixes k mod 2, so the moduli
        # to merge are not coprime; (0, 3) asks k = 0 and k = 1 (mod 2)
        g = GroupSpec((4, 6))
        assert g.power_index(g.element([2, 3]), g.element([2, 3])) == 1
        assert g.power_index(g.element([2, 3]), g.element([0, 3])) is None
        assert g.power_index(g.element([2, 2]), g.element([2, 4])) == 5

    def test_large_cyclic_group(self):
        g = GroupSpec((10**12,))
        assert g.power_index(g.element([7]), g.element([7 * 123456789])) == 123456789
        assert g.power_index(g.element([2]), g.element([3])) is None


class TestEnumerationCap:
    def test_above_the_cap_raises_on_first_use(self):
        g = GroupSpec((DEFAULT_CAP + 1,))
        characters, elements = g.characters(), g.elements()
        with pytest.raises(SearchSpaceTooLarge):
            next(characters)
        with pytest.raises(SearchSpaceTooLarge):
            next(elements)

    def test_at_the_cap_walks(self):
        g = GroupSpec((2, DEFAULT_CAP // 2))
        assert next(g.characters()) == g.trivial_character
        assert next(g.elements()) == g.identity


class TestCharacterOfMonomial:
    def test_zero_exponent_is_trivial(self):
        g = GroupSpec((2, 3))
        assert g.character([0, 0]).is_trivial

    def test_z2_flip(self):
        g = GroupSpec((2,))
        chi = g.character([1])
        assert g.u_value(chi, g.element([1])) == 1

    def test_klein_product_function(self):
        g = GroupSpec((2, 2))
        assert g.character([1, 1]) == g.character([1, 1])

    def test_reduction_mod_orders(self):
        g = GroupSpec((2, 3))
        assert g.character([3, 5]) == g.character([1, 2])


class TestOrbits:
    def test_z2(self):
        g = GroupSpec((2,))
        orbits = g.rational_character_orbits()
        assert [(o.order, o.field_degree, len(o.characters)) for o in orbits] == [
            (1, 1, 1),
            (2, 1, 1),
        ]

    def test_z3(self):
        g = GroupSpec((3,))
        orbits = g.rational_character_orbits()
        assert [(o.order, len(o.characters)) for o in orbits] == [(1, 1), (3, 2)]
        assert orbits[1].characters == (g.character([1]), g.character([2]))

    def test_klein_all_singletons(self):
        g = GroupSpec((2, 2))
        orbits = g.rational_character_orbits()
        assert len(orbits) == 4
        assert all(len(o.characters) == 1 for o in orbits)

    @given(small_groups)
    def test_partition_counts(self, g):
        orbits = g.rational_character_orbits()
        assert sum(len(o.characters) for o in orbits) == g.order
        seen = set()
        for orbit in orbits:
            assert len(orbit.characters) == euler_phi(orbit.order) == orbit.field_degree
            for chi in orbit.characters:
                assert g.element_order(chi) == orbit.order
                assert chi not in seen
                seen.add(chi)

    @given(small_groups)
    def test_representatives_ascend_and_are_least(self, g):
        """Each representative is the least member of its orbit, the powers
        chi^a with gcd(a, e) = 1, and the representatives strictly ascend."""
        reps = [orbit.representative for orbit in g.rational_character_orbits()]
        assert all(a.exponents < b.exponents for a, b in zip(reps, reps[1:]))
        for chi in reps:
            e = g.element_order(chi)
            powers = (
                tuple(a * k % m for k, m in zip(chi.exponents, g.cyclic_orders))
                for a in range(1, e + 1) if math.gcd(a, e) == 1
            )
            assert chi.exponents == min(powers)

    def test_character_count_equals_group_order(self):
        g = GroupSpec((4, 6))
        assert len(list(g.characters())) == 24


class TestOrdering:
    def test_elements_lexicographic(self):
        g = GroupSpec((2, 3))
        exps = [x.exponents for x in g.elements()]
        assert exps == sorted(exps)
        assert exps[0] == (0, 0)

    def test_trivial_group(self):
        g = GroupSpec(())
        assert g.order == 1
        assert list(g.elements()) == [GroupElement(())]
        assert g.element_order(g.identity) == 1


class TestClassTable:
    def test_rejects_branch_data_on_trivial_class(self):
        with pytest.raises(ValueError):
            ClassTable.build([("id", 1, 3)], 6)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            ClassTable.build([("c", 4)], 6)

    def test_u_table_bounds(self):
        with pytest.raises(ValueError):
            ClassTable.build([("c", 2)], 2, {"chi": {"c": 2}})

    def test_rejects_a_class_id_that_is_no_str(self):
        with pytest.raises(TypeError, match=r"^class id 1 is not a str$"):
            ClassTable.build([("a", 2), (1, 2)], 2)
        with pytest.raises(TypeError, match=r"^class id \('a',\) is not a str$"):
            ClassTable.build([(("a",), 2, 2)], 2)

    def test_record_reads_each_class_by_id(self):
        table = ClassTable.build([("a", 3), ("b", 2)], 6)
        assert [table.record(cid) for cid in ("b", "a")] == [table.classes[1], table.classes[0]]
        with pytest.raises(KeyError):
            table.record("c")

    def test_conjugate_row(self):
        table = ClassTable.build([("a", 3), ("b", 2)], 6, {"chi": {"a": 1, "b": 1}})
        chi = table.characters[0]
        conj = CoverSpec(1, table).conjugate_character(chi)
        assert dict(conj.u_values) == {"a": 2, "b": 1}


class TestSmithDiagonal:
    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=2, max_size=4
        )
    )
    def test_row_transform_is_unimodular(self, rows):
        diag, u = smith_diagonal(rows)
        n = len(rows)
        det = _det(u)
        assert det in (1, -1)
        for i in range(len(diag) - 1):
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0

    def test_diag_of_relations(self):
        # relations of Z^2: columns (2,0), (0,4), (1,2) present (Z2 x Z4) / <(1,2)>;
        # the element (1,2) has order 2 there, so the quotient has order 4
        diag, _ = smith_diagonal([[2, 0, 1], [0, 4, 2]])
        assert math.prod(diag) == 4


def _det(matrix):
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((row for row in range(col, n) if m[row][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for row in range(col + 1, n):
            factor = m[row][col] * inv
            m[row] = [a - factor * b for a, b in zip(m[row], m[col])]
    return int(det)
