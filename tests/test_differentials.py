import cmath
import gc
import json
import math
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from galcov import (
    BranchPoint,
    CoverSpec,
    GroupSpec,
    IrrepClassData,
    analytic_multiplicity,
    cw_multiplicity,
    delta_info,
    dim_omega_chi,
    eichler_trace,
    omega_divisor,
    rational_multiplicity,
    total_dim_omega,
    trace_from_fixed_points,
    FixedPointTerm,
)
from galcov import cli, differentials
from galcov.config import parse_config
from galcov.errors import AdmissibilityViolation, IdentityElement, NTableMismatch

from fraction_oracle import raw_dimension_value
from covergen import (
    Z2Z2_OVER_ELLIPTIC,
    covers,
    cyclic_cover,
    fixture_covers,
    genus1_fixtures,
    hyperelliptic,
    irrep_of_character,
    klein_cover,
    pt,
    random_validated_cover,
)
import fraction_oracle


def window_qs(cover, lo=-2, hi=4):
    g = cover.genus()
    for q in range(lo, hi + 1):
        if (g >= 2 and q >= 1) or g == 1 or (g == 0 and q <= 1):
            yield q


def char_value(group, chi, x):
    return cmath.exp(2j * cmath.pi * float(fraction_oracle.pairing(group, chi, x)))


def alpha_beta(cover, chi, cls, q):
    """The split q(o(C)-1) - u_{conj chi,C} = alpha * o(C) + beta at class
    ``cls``, read from the q-differential generator: alpha is the power of
    each linear factor of the class, beta the exponent at its preimages."""
    div = omega_divisor(cover, chi, q)
    splits = {(div.linear_factor_powers[j][1], div.branch_exponents[j]) for j in cls.points}
    assert len(splits) == 1
    return splits.pop()


class TestAlphaBeta:
    def test_trivial_character_q1(self):
        for cover in fixture_covers():
            one = cover.trivial_character
            for cls in cover.branch_classes:
                assert alpha_beta(cover, one, cls, 1) == (0, cls.order - 1)

    def test_hyperelliptic_nontrivial_q1(self):
        cover = hyperelliptic(6)
        chi = cover.group.character([1])
        assert alpha_beta(cover, chi, cover.branch_classes[0], 1) == (0, 0)

    def test_hyperelliptic_trivial_q2(self):
        cover = hyperelliptic(6)
        assert alpha_beta(cover, cover.trivial_character, cover.branch_classes[0], 2) == (1, 0)

    def test_fractional_exponent_identity(self):
        # u_conj/o + alpha == (q-1)(1 - 1/o) + frac((q-1-u)/o), exactly
        for cover in fixture_covers():
            for chi in cover.characters():
                conj = cover.conjugate_character(chi)
                for cls in cover.branch_classes:
                    o = cls.order
                    u = cover.u_value(chi, cls.key)
                    u_conj = cover.u_value(conj, cls.key)
                    for q in range(-2, 5):
                        alpha, beta = alpha_beta(cover, chi, cls, q)
                        lhs = Fraction(u_conj, o) + alpha
                        frac = Fraction(q - 1 - u, o)
                        frac -= math.floor(frac)
                        assert lhs == (q - 1) * (1 - Fraction(1, o)) + frac
                        assert 0 <= beta < o
                        assert alpha * o + beta == q * (o - 1) - u_conj


class TestOmegaDivisor:
    def test_q1_hyperelliptic_nontrivial(self):
        cover = hyperelliptic(6)
        chi = cover.group.character([1])
        div = omega_divisor(cover, chi, 1)
        assert div.branch_exponents == (0,) * 6
        assert div.infinity_exponent == 1
        assert div.degree() == 2 == 2 * cover.genus() - 2

    def test_q1_trivial_is_pulled_back_dz(self):
        cover = cyclic_cover(3, [1, 1, 1])
        div = omega_divisor(cover, cover.trivial_character, 1)
        assert div.branch_exponents == (2, 2, 2)  # o(C) - 1 at each branch point
        assert div.infinity_exponent == -2

    def test_q2_hyperelliptic_trivial(self):
        cover = hyperelliptic(6)
        div = omega_divisor(cover, cover.trivial_character, 2)
        assert div.branch_exponents == (0,) * 6
        assert div.infinity_exponent == 2
        assert div.degree() == 4 == 2 * (2 * cover.genus() - 2)

    def test_degree_is_q_canonical(self):
        for cover in fixture_covers():
            target = 2 * cover.genus() - 2
            for chi in cover.characters():
                for q in range(-2, 5):
                    assert omega_divisor(cover, chi, q).degree() == q * target

    def test_presentation_mentions_dz(self):
        cover = hyperelliptic(6)
        text = omega_divisor(cover, cover.group.character([1]), 1).presentation()
        assert text.startswith("(dz)^1")

    def test_generic_mode_from_u_rows(self):
        # a genus-0 cover given purely by class data behaves like its abelian twin
        from galcov import ClassTable, cover_from_class_table

        table = ClassTable.build(
            [("s", 2, 6)], 2, {"one": {"s": 0}, "sgn": {"s": 1}}
        )
        cover = cover_from_class_table(0, table)
        one, sgn = cover.characters()
        assert omega_divisor(cover, sgn, 1).branch_exponents == (0,) * 6
        assert omega_divisor(cover, sgn, 1).infinity_exponent == 1
        assert dim_omega_chi(cover, sgn, 1, 0) == 2
        assert dim_omega_chi(cover, one, 1, 0) == 0


class TestDeltaInfo:
    def test_genus2_q1(self):
        info = delta_info(hyperelliptic(6), 1, 0)
        assert info.delta == 1
        assert info.character.is_trivial

    def test_gamma_positive_kills_delta(self):
        for cover in fixture_covers():
            for q in window_qs(cover):
                assert delta_info(cover, q, 1).delta == 0
                assert delta_info(cover, q, 2).delta == 0

    def test_genus1_q2_nontrivial_character(self):
        cover = hyperelliptic(4)
        info = delta_info(cover, 2, 0)
        assert info.delta == 1
        assert not info.character.is_trivial
        assert raw_dimension_value(cover, info.character, 2, 0) == -1

    def test_scan_uniqueness_on_genus1_family(self):
        for cover in genus1_fixtures():
            lcm = math.lcm(*(cls.order for cls in cover.branch_classes))
            for q in range(-2, 5):
                info = delta_info(cover, q, 0)
                assert info.delta == 1
                hits = [
                    chi
                    for chi in cover.characters()
                    if raw_dimension_value(cover, chi, q, 0) == -1
                ]
                assert hits == [info.character]
                assert info.character.is_trivial == ((q - 1) % lcm == 0)

    @staticmethod
    def check_row_rule(cover):
        """The old scan as oracle: the raw value is -1 exactly at the
        corrected character, whose u-row is rho_C = (q - 1) mod o(C)."""
        characters = list(cover.characters())
        if not any(chi.is_trivial for chi in characters):
            characters.append(cover.trivial_character)
        for q in range(-3, 9):
            info = delta_info(cover, q, 0)
            hits = [chi for chi in characters if raw_dimension_value(cover, chi, q, 0) == -1]
            assert hits == [info.character]
            assert cover.u_row(info.character) == tuple((q - 1) % cls.order for cls in cover.branch_classes)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_row_rule_on_random_genus1_covers(self, seed):
        rng = random.Random(seed)
        cover = random_validated_cover(rng, 36, 6)
        while cover.genus() != 1:
            cover = random_validated_cover(rng, 36, 6)
        self.check_row_rule(cover)

    def test_row_rule_on_genus1_fixtures(self):
        s3 = parse_config((Path(__file__).parent / "golden" / "s3.json").read_text()).cover
        for cover in (*genus1_fixtures(), s3):
            assert cover.genus() == 1
            self.check_row_rule(cover)

    def test_unramified_genus1_base(self):
        cover = CoverSpec(1, GroupSpec((2,)), ())
        for q in range(-2, 5):
            info = delta_info(cover, q, 0)
            assert info.delta == 1
            assert info.character.is_trivial
            # raw values all vanish here; the correction sits on the trivial character
            assert all(
                raw_dimension_value(cover, chi, q, 0) == 0 for chi in cover.characters()
            )

    def test_window_enforced(self):
        with pytest.raises(AdmissibilityViolation):
            delta_info(hyperelliptic(6), 0, 0)
        with pytest.raises(AdmissibilityViolation):
            dim_omega_chi(hyperelliptic(6), hyperelliptic(6).trivial_character, -1, 0)


class TestOncePerCover:
    """The genus and the delta scan are paid once per cover, not per character."""

    Z4_GENUS1 = {
        "mode": "branch-data",
        "base_genus": 0,
        "group": {"cyclic_orders": [4]},
        "branch_points": [
            {"label": 1, "psi": [1]},
            {"label": 2, "psi": [1]},
            {"label": 3, "psi": [2]},
        ],
    }

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"kernel": 0, "genus": 0}
        kernel = differentials.cw_value
        genus = CoverSpec.__dict__["_genus"].func

        def counting_kernel(*args):
            calls["kernel"] += 1
            return kernel(*args)

        def counting_genus(cover):
            calls["genus"] += 1
            return genus(cover)

        monkeypatch.setattr(differentials, "cw_value", counting_kernel)
        monkeypatch.setattr(CoverSpec.__dict__["_genus"], "func", counting_genus)
        return calls

    @pytest.mark.parametrize("flags", [[], ["--q", "2"]])
    def test_dims_command(self, tmp_path, capsys, counted, flags):
        path = tmp_path / "z4.json"
        path.write_text(json.dumps(self.Z4_GENUS1))
        assert cli.main(["dims", str(path), "--format", "json", *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["delta"] == 1 and len(report["characters"]) == 4
        # one value per character: the corrected character is found from the rows alone
        assert counted == {"kernel": 4, "genus": 1}

    def test_one_scan_per_q_and_gamma(self, counted, monkeypatch):
        walks = []
        u_table = CoverSpec.u_table

        def counting_u_table(cover):
            walks.append([])
            for row in u_table(cover):
                walks[-1].append(row)
                yield row

        monkeypatch.setattr(CoverSpec, "u_table", counting_u_table)
        cover = cyclic_cover(4, [1, 1, 2])
        for _ in range(3):
            for q in (1, 2):
                delta_info(cover, q, 0)
                delta_info(cover, q, 1)
        # degree > 0 needs no search; q = 1 and q = 2 walk the four rows once each
        assert [len(rows) for rows in walks] == [4, 4]
        assert counted == {"kernel": 0, "genus": 1}

    def test_memo_dies_with_its_cover(self):
        cover = cyclic_cover(4, [1, 1, 2])
        delta_info(cover, 1, 0)
        ref = weakref.ref(cover)
        del cover
        gc.collect()
        assert ref() is None


class TestDimensions:
    def test_trivial_character_q1_gives_base_genus(self):
        cover = CoverSpec(1, GroupSpec((2,)), ())
        assert dim_omega_chi(cover, cover.trivial_character, 1, 0) == 1
        cover0 = hyperelliptic(6)
        assert dim_omega_chi(cover0, cover0.trivial_character, 1, 0) == 0

    def test_hyperelliptic_q1(self):
        cover = hyperelliptic(6)
        assert dim_omega_chi(cover, cover.group.character([1]), 1, 0) == 2

    def test_hyperelliptic_q2(self):
        cover = hyperelliptic(6)
        assert dim_omega_chi(cover, cover.trivial_character, 2, 0) == 3
        assert dim_omega_chi(cover, cover.group.character([1]), 2, 0) == 0
        assert total_dim_omega(cover, 2, 0) == 3

    def test_character_sum_equals_total(self):
        for cover in fixture_covers():
            for q in window_qs(cover):
                for gamma in (0, 1, 2):
                    total = total_dim_omega(cover, q, gamma)
                    assert total == sum(
                        dim_omega_chi(cover, chi, q, gamma) for chi in cover.characters()
                    )
                    assert (
                        total
                        == (2 * q - 1) * (cover.genus() - 1)
                        + cover.degree * gamma
                        + delta_info(cover, q, gamma).delta
                    )

    def test_total_q1_trivial_gamma_is_genus(self):
        for cover in fixture_covers():
            assert total_dim_omega(cover, 1, 0) == cover.genus()

    def test_total_with_gamma(self):
        # (2q-1)(g-1) + n*deg(Gamma) + delta = 1 + 2 + 0
        cover = hyperelliptic(6)
        assert total_dim_omega(cover, 1, 1) == 3

    def test_raw_value_floor(self):
        for cover in fixture_covers():
            g = cover.genus()
            for q in window_qs(cover):
                raws = [raw_dimension_value(cover, chi, q, 0) for chi in cover.characters()]
                assert all(r >= -1 for r in raws)
                if g == 1:
                    assert raws.count(-1) == 1


class TestEichlerTrace:
    def test_hyperelliptic_involution_q1(self):
        cover = hyperelliptic(6)
        trace = eichler_trace(cover, cover.group.element([1]), 1, 0)
        assert abs(trace.value - (-2)) < 1e-9
        assert trace.delta == 1
        assert trace.terms == (FixedPointTerm(2, 1, 6),)

    def test_hyperelliptic_involution_q2(self):
        cover = hyperelliptic(6)
        trace = eichler_trace(cover, cover.group.element([1]), 2, 0)
        assert abs(trace.value - 3) < 1e-9

    def test_z3_spectral_value(self):
        cover = cyclic_cover(3, [1, 1, 1])
        tau = cover.group.element([1])
        trace = eichler_trace(cover, tau, 1, 0)
        zeta = cmath.exp(2j * cmath.pi / 3)
        assert abs(trace.value - zeta) < 1e-9

    def test_identity_rejected(self):
        cover = hyperelliptic(6)
        with pytest.raises(IdentityElement):
            eichler_trace(cover, cover.group.identity, 1, 0)

    def test_spectral_cross_check(self):
        for cover in fixture_covers():
            group = cover.group
            for q in window_qs(cover):
                for gamma in (0, 1):
                    dims = {
                        chi: dim_omega_chi(cover, chi, q, gamma) for chi in cover.characters()
                    }
                    for tau in group.elements():
                        if group.element_order(tau) == 1:
                            continue
                        fixed = eichler_trace(cover, tau, q, gamma).value
                        spectral = sum(
                            dims[chi] * char_value(group, chi, tau)
                            for chi in cover.characters()
                        )
                        assert abs(fixed - spectral) < 1e-9

    def test_unramified_translation_trace(self):
        cover = CoverSpec(1, GroupSpec((2,)), ())
        trace = eichler_trace(cover, cover.group.element([1]), 3, 0)
        assert trace.terms == ()
        assert abs(trace.value - 1) < 1e-12  # delta term only

    def test_fixed_point_term_is_periodic_in_q(self):
        # zeta^order = 1: the value reads q mod the order, exactly, at any size of q
        for order in range(2, 8):
            for k in range(1, order):
                term = FixedPointTerm(order, k, 3)
                for q in range(-order, 2 * order):
                    assert term.value(q) == term.value(q + order)
                assert term.value(10**400) == term.value(10**400 % order)

    def test_trace_from_fixed_points_requires_angle(self):
        with pytest.raises(ValueError):
            trace_from_fixed_points((), 1, delta=1)


class TestMultiplicityReconstruction:
    def test_dims_recovered_from_traces(self):
        for cover in fixture_covers():
            group = cover.group
            n = cover.degree
            for q in window_qs(cover):
                total = total_dim_omega(cover, q, 0)
                for chi in cover.characters():
                    acc = complex(total)
                    for tau in group.elements():
                        if group.element_order(tau) == 1:
                            continue
                        acc += eichler_trace(cover, tau, q, 0).value * char_value(
                            group, chi, tau
                        ).conjugate()
                    estimate = acc.real / n
                    exact = dim_omega_chi(cover, chi, q, 0)
                    assert abs(estimate - exact) < 1e-6
                    assert round(estimate) == exact


class TestChevalleyWeil:
    def test_trivial_representation_gives_base_genus(self):
        cover = CoverSpec(1, GroupSpec((2,)), ())
        assert cw_multiplicity(cover, cover.trivial_character, 1, 0) == 1
        assert cw_multiplicity(hyperelliptic(6), hyperelliptic(6).trivial_character, 1, 0) == 0

    def test_character_multiplicities_match_the_fraction_sum(self):
        """The integer route against the per-class Fraction sum of
        ``fraction_oracle.cw_value`` on the character's one-dimensional
        eigenvalue rows (u_{chi,C} with multiplicity 1), plus 1 at the
        character ``delta_info`` corrects."""
        for cover in fixture_covers():
            for q in window_qs(cover):
                for gamma in (0, 1):
                    info = delta_info(cover, q, gamma)
                    for chi in cover.characters():
                        rows = tuple(((u, 1),) for u in cover.u_row(chi))
                        expected = fraction_oracle.cw_value(cover, 1, rows, q, gamma)
                        assert expected.denominator == 1
                        expected += 1 if info.delta and chi == info.character else 0
                        assert cw_multiplicity(cover, chi, q, gamma) == expected

    def test_sum_weighted_by_dimension_is_total(self):
        for cover in fixture_covers():
            for q in window_qs(cover):
                assert total_dim_omega(cover, q, 0) == sum(
                    cw_multiplicity(cover, chi, q, 0) for chi in cover.characters()
                )

    def test_extra_base_point_adds_regular_representation(self):
        for cover in fixture_covers():
            for q in window_qs(cover):
                for chi in cover.characters():
                    rho = irrep_of_character(cover, chi)
                    base = cw_multiplicity(cover, rho, q, 1)
                    assert cw_multiplicity(cover, rho, q, 2) == base + rho.dim

    def test_hyperelliptic_with_gamma(self):
        cover = hyperelliptic(6)
        chi = cover.group.character([1])
        assert cw_multiplicity(cover, chi, 1, 1) == 3

    def test_two_dimensional_table(self):
        # a faithful 2-dimensional representation of a dihedral-like action:
        # branch class of order 2 acting with eigenvalues (+1, -1)
        from galcov import ClassTable, cover_from_class_table

        table = ClassTable.build([("s", 2, 4)], 8, {"one": {"s": 0}, "sgn": {"s": 1}})
        cover = cover_from_class_table(1, table)
        rho = IrrepClassData(2, (("s", (1, 1)),))
        value = cw_multiplicity(cover, rho, 1, 0)
        # d(g_S - 1) + sum_C r_C * N_{C,1} * frac(-1/2) = 0 + 4 * 1 * 1/2
        assert value == 2

    def test_bad_table_rejected(self):
        cover = hyperelliptic(6)
        key = cover.branch_classes[0].key
        with pytest.raises(NTableMismatch):
            cw_multiplicity(cover, IrrepClassData(2, ((key, (1, 0)),)), 1, 0)
        with pytest.raises(NTableMismatch):
            cw_multiplicity(cover, IrrepClassData(1, ()), 1, 0)

    def test_negative_multiplicity_rejected(self):
        cover = hyperelliptic(6)
        rho = IrrepClassData(1, ((cover.branch_classes[0].key, (2, -1)),))
        for evaluate in (cw_multiplicity, analytic_multiplicity, rational_multiplicity):
            with pytest.raises(NTableMismatch):
                evaluate(cover, rho)

    @settings(max_examples=30, deadline=None)
    @given(covers(max_order=24, max_points=6))
    def test_random_cover_reconciliation(self, cover):
        for q in (1, 2):
            if cover.genus() == 0 and q > 1:
                continue
            assert total_dim_omega(cover, q, 0) == sum(
                cw_multiplicity(cover, chi, q, 0) for chi in cover.characters()
            )


class TestPlusOneNeverGuessed:
    """Over a positive-genus base the corrected character is trivial, and the
    branch classes need not generate the group, so neither an anonymous
    table's rows on them nor a generic row that omits a class decides the +1:
    both raise NTableMismatch.  On a genus-0 base the rows decide."""

    ANONYMOUS = (
        "an anonymous table is not matched to the corrected character over a base "
        "of genus 1; set its 'character'"
    )

    @staticmethod
    def z2z2(**rows):
        """``Z2Z2_OVER_ELLIPTIC`` with some u_table rows replaced, and its
        characters by name."""
        doc = json.loads(json.dumps(Z2Z2_OVER_ELLIPTIC))
        doc["group"]["u_table"].update(rows)
        cover = parse_config(doc).cover
        return cover, {chi.name: chi for chi in cover.characters()}

    def test_anonymous_table_on_a_class_table(self):
        cover, chars = self.z2z2()
        rows = (("a", (1, 0)),)
        # chi_b and the trivial character both have these rows; chi_b has multiplicity 0
        assert cw_multiplicity(cover, IrrepClassData(1, rows, chars["chi_b"])) == 0
        assert cw_multiplicity(cover, IrrepClassData(1, rows, cover.trivial_character)) == 1
        for evaluate in (cw_multiplicity, analytic_multiplicity, rational_multiplicity):
            with pytest.raises(NTableMismatch) as raised:
                evaluate(cover, IrrepClassData(1, rows))
            assert str(raised.value) == self.ANONYMOUS
        # rows that are not the trivial character's decide: no +1
        assert cw_multiplicity(cover, IrrepClassData(1, (("a", (0, 1)),))) == 1

    def test_anonymous_table_on_an_abelian_cover(self):
        group = GroupSpec((2, 2))
        psi = group.element([1, 0])
        cover = CoverSpec(1, group, (BranchPoint("p", psi), BranchPoint("q", psi)))
        chi = group.character([0, 1])
        assert cw_multiplicity(cover, chi) == cw_multiplicity(cover, irrep_of_character(cover, chi)) == 0
        assert cw_multiplicity(cover, group.trivial_character) == 1
        with pytest.raises(NTableMismatch) as raised:
            cw_multiplicity(cover, IrrepClassData(1, ((psi, (1, 0)),)))
        assert str(raised.value) == self.ANONYMOUS

    def test_anonymous_table_on_a_genus_0_base_is_decided(self):
        cover = hyperelliptic(6)
        rho = IrrepClassData(1, ((cover.branch_classes[0].key, (1, 0)),))
        assert cw_multiplicity(cover, rho) == cw_multiplicity(cover, cover.trivial_character) == 0

    def test_partial_row_does_not_decide_triviality(self):
        cover, chars = self.z2z2(chi_b={"a": 0})
        message = (
            "character chi_b gives no value on class 'b'; triviality is not inferred "
            "from a partial row over a base of genus 1"
        )
        for evaluate in (dim_omega_chi, cw_multiplicity, analytic_multiplicity):
            with pytest.raises(NTableMismatch) as raised:
                evaluate(cover, chars["chi_b"])
            assert str(raised.value) == message
        # the cover's trivial character lists every class, and a nonzero entry decides
        assert dim_omega_chi(cover, cover.trivial_character) == 1
        assert [dim_omega_chi(cover, chars[name]) for name in ("chi_a", "chi_ab")] == [1, 1]
        full, chars = self.z2z2()
        assert dim_omega_chi(full, chars["chi_b"]) == 0

    def test_a_class_of_order_1_is_never_missing(self):
        from galcov import ClassTable, cover_from_class_table

        table = ClassTable.build([("e", 1), ("a", 2, 2), ("b", 2)], 4, {"zero": {"a": 0, "b": 0}})
        cover = cover_from_class_table(1, table)
        (zero,) = cover.characters()
        assert dim_omega_chi(cover, zero) == 1
