import random

import pytest
from hypothesis import given, settings, strategies as st

from galcov import (
    GroupSpec,
    InvariantDivisor,
    h_chi_divisor,
    normalize,
    trivial_divisor,
)
from galcov.errors import NonInvariantInput, NotAbelian, UnsupportedBaseGenus
from galcov import BranchPoint, CoverSpec

from covergen import (
    covers_with_divisors,
    cyclic_cover,
    fixture_covers,
    hyperelliptic,
    klein_cover,
    pt,
    random_divisor,
    random_validated_cover,
)
from fraction_oracle import a_sets


@pytest.fixture
def hyp6():
    return hyperelliptic(6)


@pytest.fixture
def z3():
    return cyclic_cover(3, [1, 1, 1])


def nontrivial_char(cover):
    return next(chi for chi in cover.characters() if not chi.is_trivial)


class TestDegree:
    def test_trivial_divisor_is_empty(self, hyp6):
        assert trivial_divisor(hyp6).degree() == 0

    def test_two_points_in_bottom_bucket(self, hyp6):
        div = InvariantDivisor(hyp6, (0, 0, 1, 1, 1, 1), 0)
        assert div.degree() == 2

    def test_three_points_with_pole(self, hyp6):
        div = InvariantDivisor(hyp6, (0, 0, 0, 1, 1, 1), -1)
        assert div.degree() == 1

    def test_positive_genus_base_part(self):
        g = GroupSpec((2,))
        cover = CoverSpec(1, g, (BranchPoint("x", g.element([1])), BranchPoint("y", g.element([1]))))
        div = InvariantDivisor(cover, (0, 1), 1, (("s", 2),))
        # branch exponent 1 at x (1 preimage), p and base part scaled by n = 2
        assert div.degree() == 1 + 2 * 1 + 2 * 2

    def test_bucket_bounds_checked(self, hyp6):
        with pytest.raises(ValueError):
            InvariantDivisor(hyp6, (2, 0, 0, 0, 0, 0), 0)


class TestConstructorChecks:
    """Each check of the public constructor, with its message."""

    @pytest.mark.parametrize("buckets", [(0, 0, 1, 1, 1), (0, 0, 1, 1, 1, 1, 1), ()])
    def test_wrong_number_of_entries(self, hyp6, buckets):
        with pytest.raises(ValueError, match=rf"^{len(buckets)} bucket entries for 6 branch values$"):
            InvariantDivisor(hyp6, buckets, 0)

    def test_bucket_at_the_class_order(self, hyp6):
        with pytest.raises(ValueError, match=r"^bucket 2 out of range \[0, 2\) at branch value 4$"):
            InvariantDivisor(hyp6, (0, 0, 1, 1, 2, 1), 0)

    def test_negative_bucket(self, z3):
        with pytest.raises(ValueError, match=r"^bucket -1 out of range \[0, 3\) at branch value 1$"):
            InvariantDivisor(z3, (2, -1, 0), 0)

    def test_base_part_on_a_genus0_base(self, hyp6):
        with pytest.raises(ValueError, match=r"^genus-0 base: extra base divisor must be empty$"):
            InvariantDivisor(hyp6, (0, 0, 1, 1, 1, 1), 0, (("s", 1),))

    @pytest.mark.parametrize(
        "buckets, message",
        [
            ((0.9, 0, 1, 1, 1, 1), r"^the bucket at branch value 0 must be an integer, got 0\.9$"),
            ((0, 0, 1, "1", 1, 1), r"^the bucket at branch value 3 must be an integer, got '1'$"),
        ],
        ids=["float", "str"],
    )
    def test_a_bucket_that_is_no_integer(self, hyp6, buckets, message):
        with pytest.raises(TypeError, match=message):
            InvariantDivisor(hyp6, buckets, 0)

    def test_a_p_that_is_no_integer(self):
        z2 = hyperelliptic(4)
        with pytest.raises(TypeError, match=r"^p must be an integer, got 0\.5$"):
            InvariantDivisor(z2, (0, 0, 1, 1), 0.5)
        with pytest.raises(TypeError, match=r"^p must be an integer, got '0'$"):
            InvariantDivisor(z2, (0, 0, 1, 1), "0")

    def test_integers_of_other_types_are_stored_as_ints(self, hyp6):
        div = InvariantDivisor(hyp6, (False, 0, True, 1, 1, 1), True)
        assert div == InvariantDivisor(hyp6, (0, 0, 1, 1, 1, 1), 1)
        assert repr(div) == repr(InvariantDivisor(hyp6, (0, 0, 1, 1, 1, 1), 1))
        assert {type(x) for x in (*div.buckets, div.p, div.degree(), div.r_total())} == {int}

    def test_lists_are_stored_as_hashable_tuples(self, hyp6):
        g = GroupSpec((2,))
        cover = CoverSpec(1, g, (BranchPoint("x", g.element([1])), BranchPoint("y", g.element([1]))))
        for cov, buckets, base in ((hyp6, [0, 0, 1, 1, 1, 1], []), (cover, [0, 1], [("s", 2)])):
            div = InvariantDivisor(cov, buckets, 0, base)
            assert type(div.buckets) is tuple and type(div.base_part) is tuple
            assert div == InvariantDivisor(cov, tuple(buckets), 0, tuple(base))
            assert hash(div) == hash(InvariantDivisor(cov, tuple(buckets), 0, tuple(base)))


class TestNormalize:
    def test_already_normalized_is_unchanged(self, hyp6):
        result = normalize(hyp6, [1, 1, 0, 0, 0, 0], 0)
        assert result.shifts == ()
        assert result.divisor.buckets == (0, 0, 1, 1, 1, 1)
        assert result.divisor.p == 0

    def test_fold_exponent_three(self, hyp6):
        result = normalize(hyp6, [3, 0, 0, 0, 0, 0], 0)
        assert result.divisor.exponent(0) == 1
        assert result.divisor.p == 1
        assert result.shifts == ((hyp6.branch_points[0].label, 1),)

    def test_fold_negative_exponent(self, hyp6):
        result = normalize(hyp6, [-1, 0, 0, 0, 0, 0], 0)
        assert result.divisor.exponent(0) == 1
        assert result.divisor.p == -1
        assert result.shifts == ((hyp6.branch_points[0].label, -1),)

    def test_fiber_sequences_accepted(self, hyp6):
        result = normalize(hyp6, [[2], [0], [0], [0], [0], [0]], [1, 1])
        assert result.divisor.p == 2
        assert result.divisor.exponent(0) == 0

    def test_non_invariant_fiber_rejected(self, hyp6):
        with pytest.raises(NonInvariantInput):
            normalize(hyp6, [[1], [0], [0], [0], [0], [0]], [0, 1])

    def test_wrong_fiber_length_rejected(self, hyp6):
        with pytest.raises(NonInvariantInput, match=r"^fiber over 1: expected 1 fiber exponents, got 2$"):
            normalize(hyp6, [[1, 1], [0], [0], [0], [0], [0]], 0)
        with pytest.raises(NonInvariantInput, match=r"^fiber over infinity: expected 2 fiber exponents, got 3$"):
            normalize(hyp6, [0, 0, 0, 0, 0, 0], [0, 0, 0])

    def test_wrong_number_of_branch_values_rejected(self, hyp6):
        with pytest.raises(NonInvariantInput, match=r"^expected 6 branch exponents, got 5$"):
            normalize(hyp6, [0, 0, 0, 0, 0], 0)

    def test_positive_genus_unsupported(self):
        g = GroupSpec((2,))
        cover = CoverSpec(1, g, ())
        with pytest.raises(UnsupportedBaseGenus):
            normalize(cover, [], 0)

    def test_idempotent(self, hyp6):
        rng = random.Random(7)
        for _ in range(50):
            raw = [rng.randint(-5, 5) for _ in range(6)]
            p = rng.randint(-3, 3)
            first = normalize(hyp6, raw, p)
            again = normalize(
                hyp6,
                [first.divisor.exponent(j) for j in range(6)],
                first.divisor.p,
            )
            assert again.shifts == ()
            assert again.divisor == first.divisor

    def test_degree_preserved(self, z3):
        rng = random.Random(11)
        n = z3.degree
        for _ in range(50):
            raw = [rng.randint(-5, 5) for _ in range(3)]
            p = rng.randint(-3, 3)
            raw_degree = sum(e * (n // z3.point_order(j)) for j, e in enumerate(raw)) + n * p
            assert normalize(z3, raw, p).divisor.degree() == raw_degree


class TestHChi:
    def test_trivial_character(self, hyp6):
        div = h_chi_divisor(hyp6, hyp6.trivial_character)
        assert set(div.branch_exponents) == {0}
        assert div.infinity_exponent == 0

    def test_hyperelliptic_w(self, hyp6):
        div = h_chi_divisor(hyp6, nontrivial_char(hyp6))
        assert div.branch_exponents == (1,) * 6
        assert div.infinity_exponent == -3
        assert div.degree() == 0

    def test_z3_second_power(self, z3):
        chi2 = z3.group.character([2])
        div = h_chi_divisor(z3, chi2)
        assert div.branch_exponents == (2, 2, 2)
        assert div.infinity_exponent == -2

    def test_degree_zero_everywhere(self):
        for cover in fixture_covers():
            for chi in cover.characters():
                assert h_chi_divisor(cover, chi).degree() == 0


class TestASets:
    def test_trivial_character_empty(self, hyp6):
        div = InvariantDivisor(hyp6, (0, 0, 1, 1, 1, 1), 0)
        for a in a_sets(div, hyp6.trivial_character):
            assert a == ()

    def test_hyperelliptic_bottom_bucket(self, hyp6):
        div = InvariantDivisor(hyp6, (0, 0, 1, 1, 1, 1), 0)
        chi = nontrivial_char(hyp6)
        assert a_sets(div, chi)[0] == (0, 1)

    def test_z3_chi2_unions_low_buckets(self, z3):
        div = InvariantDivisor(z3, (1, 2, 2), 0)
        chi2 = z3.group.character([2])
        assert a_sets(div, chi2)[0] == (0,)
        chi1 = z3.group.character([1])
        assert a_sets(div, chi1)[0] == ()


class TestDimensions:
    def test_trivial_divisor_r_is_character_indicator(self):
        for cover in fixture_covers():
            div = trivial_divisor(cover)
            for chi in cover.characters():
                assert div.r_chi(chi) == (1 if chi.is_trivial else 0)

    def test_nonspecial_pair(self, hyp6):
        div = InvariantDivisor(hyp6, (0, 0, 1, 1, 1, 1), 0)
        chi = nontrivial_char(hyp6)
        assert div.r_chi(chi) == 0
        assert div.r_chi(hyp6.trivial_character) == 1
        assert div.r_total() == 1
        basis = div.basis_description(chi)
        assert basis.degree_bound == -1
        assert basis.dimension == 0

    def test_squared_point_after_normalize(self, hyp6):
        div = normalize(hyp6, [2, 0, 0, 0, 0, 0], 0).divisor
        assert div.p == 1
        assert div.r_total() == 2  # pullbacks of 1 and z

    def test_three_points_over_poles(self, hyp6):
        div = InvariantDivisor(hyp6, (0, 0, 0, 1, 1, 1), -1)
        assert div.r_total() == 0

    def test_i_of_trivial_divisor(self, hyp6):
        div = trivial_divisor(hyp6)
        chi = nontrivial_char(hyp6)
        assert div.i_chi(hyp6.trivial_character) == 0
        assert div.i_chi(chi) == 2
        assert div.i_total() == hyp6.genus()

    def test_i_of_nonspecial_divisor(self, hyp6):
        div = InvariantDivisor(hyp6, (0, 0, 1, 1, 1, 1), 0)
        assert div.i_total() == 0

    def test_i_of_gm1_divisor(self, hyp6):
        div = InvariantDivisor(hyp6, (0, 0, 0, 1, 1, 1), -1)
        assert div.i_total() == 0

    def test_positive_genus_unsupported(self):
        g = GroupSpec((2,))
        cover = CoverSpec(1, g, (BranchPoint("x", g.element([1])), BranchPoint("y", g.element([1]))))
        div = InvariantDivisor(cover, (0, 0), 0)
        with pytest.raises(UnsupportedBaseGenus):
            div.r_chi(cover.trivial_character)
        with pytest.raises(UnsupportedBaseGenus):
            div.i_total()

    def test_generic_mode_total_rejected(self):
        from galcov import ClassTable, cover_from_class_table

        table = ClassTable.build([("c", 2, 4)], 2, {"x": {"c": 1}})
        cover = cover_from_class_table(0, table)
        div = trivial_divisor(cover)
        (chi,) = cover.characters()
        assert div.r_chi(chi) == 0  # t = 2, A empty
        with pytest.raises(NotAbelian):
            div.r_total()


class TestRiemannRoch:
    def test_seeded_corpus(self):
        rng = random.Random(20240809)
        for _ in range(200):
            cover = random_validated_cover(rng, max_order=24, max_points=6)
            div = random_divisor(rng, cover)
            assert div.r_total() - div.i_total() == div.degree() + 1 - cover.genus()

    @settings(max_examples=60, deadline=None)
    @given(covers_with_divisors())
    def test_property(self, div):
        cover = div.cover
        assert div.r_total() - div.i_total() == div.degree() + 1 - cover.genus()


class TestReducedBaseDivisor:
    def test_genus0_function_side_matches_r(self, hyp6):
        rng = random.Random(3)
        for _ in range(30):
            div = random_divisor(rng, hyp6)
            for chi in hyp6.characters():
                reduced = div.reduced_base_divisor(chi, "function")
                assert reduced.symbols == ()
                # on the line, r(1/Xi) = max(0, deg Xi + 1)
                assert max(0, reduced.degree() + 1) == div.r_chi(chi)

    def test_genus0_differential_side_matches_i(self, z3):
        rng = random.Random(4)
        for _ in range(30):
            div = random_divisor(rng, z3)
            for chi in z3.characters():
                reduced = div.reduced_base_divisor(chi, "differential")
                assert reduced.symbols == ()
                # on the line, i(Xi) = max(0, -deg Xi - 1)
                assert max(0, -reduced.degree() - 1) == div.i_chi(chi)

    def test_trivial_character_gives_base_part_and_p(self):
        g = GroupSpec((2,))
        cover = CoverSpec(2, g, (BranchPoint("x", g.element([1])), BranchPoint("y", g.element([1]))))
        div = InvariantDivisor(cover, (0, 1), 3, (("s", 1),))
        reduced = div.reduced_base_divisor(cover.trivial_character, "function")
        assert reduced.nu_exponent == 3
        assert ("s", 1) in reduced.points
        assert reduced.symbols == ((f"Y[{cover.trivial_character}]", 1),)

    def test_differential_side_symbol_inverted(self):
        g = GroupSpec((2,))
        cover = CoverSpec(1, g, (BranchPoint("x", g.element([1])), BranchPoint("y", g.element([1]))))
        div = InvariantDivisor(cover, (0, 1), 0)
        chi = g.character([1])
        reduced = div.reduced_base_divisor(chi, "differential")
        assert reduced.symbols == ((f"Y[{chi}]", -1),)
        assert reduced.nu_exponent == div.p + cover.t_chi(chi)
        # y is in the top bucket and outside A of the conjugate, so it divides
        assert ("y", -1) in reduced.points

    def test_unknown_kind_rejected(self, hyp6):
        with pytest.raises(ValueError):
            trivial_divisor(hyp6).reduced_base_divisor(hyp6.trivial_character, "sections")


class TestPrintedForms:
    def test_basis_description(self):
        cover = hyperelliptic(4)
        div = InvariantDivisor(cover, (0, 0, 1, 1), 0)
        trivial, chi = cover.characters()
        assert str(div.basis_description(trivial)) == "h[chi(0)] * P<=(0)(z) / 1"
        assert str(div.basis_description(chi)) == "h[chi(1)] * P<=(0)(z) / (z-1)(z-2)"

    def test_symbolic_divisor(self):
        g = GroupSpec((2,))
        cover = CoverSpec(1, g, (BranchPoint("a", g.element([1])), BranchPoint("b", g.element([1]))))
        div = InvariantDivisor(cover, (1, 0), 0, (("s", 2),))
        trivial, chi = cover.characters()
        assert str(div.reduced_base_divisor(trivial)) == "(s)^2 * Y[chi(0)]"
        assert str(div.reduced_base_divisor(chi)) == "nu^-1 * (b) * (s)^2 * Y[chi(1)]"
        assert str(div.reduced_base_divisor(chi, "differential")) == "nu^1 * (a)^-1 * (s)^2 * Y[chi(1)]^-1"
        assert str(trivial_divisor(hyperelliptic(4)).reduced_base_divisor(trivial)) == "1"
