import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from galcov import (
    BranchPoint,
    CoverSpec,
    GroupSpec,
    IrrepClassData,
    RationalIrrepData,
    analytic_multiplicity,
    decompose,
    dim_A_W,
    dim_B_W,
    primitive_prym_dims,
    rational_multiplicity,
)
from galcov.config import parse_config
from galcov.differentials import cw_multiplicity, dim_omega_chi
from galcov.errors import NonIntegralDimension, NonIntegralInvariant, NotAbelian, NTableMismatch

from covergen import (
    Z2Z2_OVER_ELLIPTIC,
    covers,
    cyclic_cover,
    fixture_covers,
    hyperelliptic,
    irrep_of_character,
    klein_cover,
    pt,
)
from row_route_oracle import orbit_irrep, quotient

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def kernel_elements(cover, chi):
    """The kernel of chi, found by scanning every element of the group."""
    group = cover.group
    return [x for x in group.elements() if group.u_value(chi, x) == 0]


def orbit_data(cover):
    return [
        (orbit, orbit_irrep(cover, orbit))
        for orbit in cover.group.rational_character_orbits()
    ]


def genus2_base_cover():
    g = GroupSpec((2,))
    return CoverSpec(2, g, (BranchPoint("a", g.element([1])), BranchPoint("b", g.element([1]))))


class TestAnalyticMultiplicity:
    def test_trivial_character_gives_base_genus(self):
        assert analytic_multiplicity(hyperelliptic(6), hyperelliptic(6).trivial_character) == 0
        cover = genus2_base_cover()
        assert analytic_multiplicity(cover, cover.trivial_character) == 2

    def test_hyperelliptic_nontrivial(self):
        cover = hyperelliptic(6)
        chi = cover.group.character([1])
        assert analytic_multiplicity(cover, chi) == 2 == cover.base_genus + cover.t_chi(chi) - 1

    def test_klein_diagonal_character(self):
        cover = klein_cover()
        assert analytic_multiplicity(cover, cover.group.character([1, 1])) == 1

    def test_characters_sum_to_genus(self):
        for cover in fixture_covers():
            assert (
                sum(analytic_multiplicity(cover, chi) for chi in cover.characters())
                == cover.genus()
            )


class TestRationalMultiplicity:
    def test_trivial_character(self):
        assert rational_multiplicity(genus2_base_cover(), GroupSpec((2,)).trivial_character) == 4

    def test_hyperelliptic_nontrivial(self):
        cover = hyperelliptic(6)
        assert rational_multiplicity(cover, cover.group.character([1])) == 4

    def test_z3_conjugate_pair(self):
        cover = cyclic_cover(3, [1, 1, 1])
        chi1, chi2 = cover.group.character([1]), cover.group.character([2])
        assert rational_multiplicity(cover, chi1) == 1
        assert analytic_multiplicity(cover, chi1) + analytic_multiplicity(cover, chi2) == 1

    def test_complexification_identity(self):
        for cover in fixture_covers():
            for chi in cover.characters():
                conj = cover.conjugate_character(chi)
                assert rational_multiplicity(cover, chi) == analytic_multiplicity(
                    cover, chi
                ) + analytic_multiplicity(cover, conj)

    @settings(max_examples=30, deadline=None)
    @given(covers(max_order=24, max_points=6))
    def test_complexification_identity_random(self, cover):
        for chi in cover.characters():
            conj = cover.conjugate_character(chi)
            assert rational_multiplicity(cover, chi) == analytic_multiplicity(
                cover, chi
            ) + analytic_multiplicity(cover, conj)


class TestOneKernel:
    """A character and its one-hot eigenvalue table go through the same
    Chevalley-Weil kernel and must agree, with or without the character
    attached to the table, and with the dimension of the character's part."""

    @settings(max_examples=30, deadline=None)
    @given(covers(max_order=24, max_points=6))
    # genus 1 with the correction at a nontrivial character when q = 2: the
    # anonymous table must find it from its eigenvalue rows
    @example(hyperelliptic(4))
    def test_character_matches_its_table(self, cover):
        for chi in cover.characters():
            table = irrep_of_character(cover, chi)
            anonymous = IrrepClassData(1, table.n_table)
            for rho in (table, anonymous):
                for q in (1, 2):
                    if q == 2 and cover.genus() == 0:
                        continue
                    dim = dim_omega_chi(cover, chi, q)
                    assert cw_multiplicity(cover, rho, q) == cw_multiplicity(cover, chi, q) == dim
                assert analytic_multiplicity(cover, rho) == analytic_multiplicity(cover, chi)
                assert rational_multiplicity(cover, rho) == rational_multiplicity(cover, chi)

    @settings(max_examples=30, deadline=None)
    @given(covers(max_order=24, max_points=6))
    def test_analytic_is_conjugate_dimension(self, cover):
        for chi in cover.characters():
            conj = cover.conjugate_character(chi)
            assert analytic_multiplicity(cover, chi) == dim_omega_chi(cover, conj, 1, 0)


class TestPlusOneOnAClassTable:
    """The +1 correction at q = 1 goes to the trivial character only, also
    where a nontrivial character vanishes on every branch class."""

    @staticmethod
    def cover():
        return parse_config(json.dumps(Z2Z2_OVER_ELLIPTIC)).cover

    def test_dimensions_sum_to_the_genus(self):
        cover = self.cover()
        dims = {chi.name: dim_omega_chi(cover, chi) for chi in cover.characters()}
        assert dims == {"chi_a": 1, "chi_ab": 1, "chi_b": 0}
        assert dim_omega_chi(cover, cover.trivial_character) == cover.base_genus == 1
        assert sum(dims.values()) + 1 == cover.genus() == 3

    def test_jacobian_multiplicities(self):
        cover = self.cover()
        # every character is real, so rational = 2 analytic
        expected = {"chi_a": 1, "chi_ab": 1, "chi_b": 0, "1": 1}
        for chi in (*cover.characters(), cover.trivial_character):
            assert analytic_multiplicity(cover, chi) == expected[chi.name]
            assert rational_multiplicity(cover, chi) == 2 * expected[chi.name]
            assert analytic_multiplicity(cover, irrep_of_character(cover, chi)) == expected[chi.name]

    def test_unramified_table_with_its_own_trivial_row(self):
        # an unramified Z2 table over an elliptic curve: the supplied row
        # "triv" is trivial under its own name and carries the +1
        doc = {
            "mode": "branch-data",
            "base_genus": 1,
            "group": {
                "classes": [{"id": "a", "order": 2}],
                "order": 2,
                "u_table": {"triv": {"a": 0}, "sgn": {"a": 1}},
            },
            "branch_points": [],
        }
        cover = parse_config(json.dumps(doc)).cover
        for q in (1, 2):
            dims = {chi.name: dim_omega_chi(cover, chi, q) for chi in cover.characters()}
            assert dims == {"triv": 1, "sgn": 0}
        assert {chi.name: analytic_multiplicity(cover, chi) for chi in cover.characters()} == dims

    def test_isotypical_triviality_is_not_guessed(self):
        # chi_b's rational irreducible fixes the only branch class, as the trivial one does
        cover = self.cover()
        with pytest.raises(NTableMismatch, match="'trivial' flag"):
            dim_A_W(cover, RationalIrrepData(1, 1, 1, (("a", 1),)))
        assert dim_A_W(cover, RationalIrrepData(1, 1, 1, (("a", 1),), trivial=False)) == 0
        assert dim_A_W(cover, RationalIrrepData(1, 1, 1, (("a", 1),), trivial=True)) == 1
        # data that does not look trivial needs no flag
        assert dim_A_W(cover, RationalIrrepData(1, 1, 1, (("a", 0),))) == 1


def test_non_integral_abelian_data_is_refused():
    # Z3 with two points of class 1: t(chi) = 2/3
    g = GroupSpec((3,))
    cover = CoverSpec(0, g, (BranchPoint(pt(1), g.element([1])), BranchPoint(pt(2), g.element([1]))))
    chi = g.character([1])
    with pytest.raises(NonIntegralInvariant):
        analytic_multiplicity(cover, chi)
    with pytest.raises(NonIntegralInvariant):
        rational_multiplicity(cover, chi)


class TestIsotypicalDimensions:
    def test_trivial_orbit_gives_base_genus(self):
        for cover in (hyperelliptic(6), genus2_base_cover()):
            orbit, data = orbit_data(cover)[0]
            assert orbit.order == 1
            assert dim_A_W(cover, data) == cover.base_genus

    def test_hyperelliptic_nontrivial_orbit_is_whole_jacobian(self):
        cover = hyperelliptic(6)
        _, data = orbit_data(cover)[1]
        assert dim_A_W(cover, data) == 2 == cover.genus()
        assert dim_B_W(cover, data) == 2

    def test_klein_orbit_dims(self):
        cover = klein_cover()
        dims = [dim_A_W(cover, data) for _, data in orbit_data(cover)[1:]]
        assert dims == [0, 0, 1]

    def test_sum_is_genus_on_fixtures(self):
        for cover in fixture_covers():
            assert sum(dim_A_W(cover, data) for _, data in orbit_data(cover)) == cover.genus()

    @settings(max_examples=30, deadline=None)
    @given(covers(max_order=24, max_points=6))
    def test_sum_is_genus_random(self, cover):
        assert sum(dim_A_W(cover, data) for _, data in orbit_data(cover)) == cover.genus()

    def test_positive_for_base_genus_two(self):
        g3 = GroupSpec((3,))
        klein = GroupSpec((2, 2))
        high_base_covers = [
            genus2_base_cover(),
            CoverSpec(2, g3, tuple(BranchPoint(f"x{i}", g3.element([1])) for i in range(3))),
            CoverSpec(3, klein, ()),
        ]
        for cover in high_base_covers:
            assert cover.validate().ok
            for _, data in orbit_data(cover):
                assert dim_A_W(cover, data) > 0

    def test_half_integer_rejected(self):
        cover = hyperelliptic(6)
        key = cover.branch_classes[0].key
        bad = RationalIrrepData(1, 1, 1, ((key, 1),), trivial=False)
        # N_{C,0} = 1 on the only class, nontrivial flag: 1*1*(-1) + 6/2*(1-1) = -1
        with pytest.raises(NonIntegralDimension):
            # odd branch count makes the half sum fractional
            g = GroupSpec((2,))
            odd = CoverSpec(
                1, g, tuple(BranchPoint(f"x{i}", g.element([1])) for i in range(3))
            )
            dim_A_W(odd, RationalIrrepData(1, 1, 1, ((odd.branch_classes[0].key, 0),)))

    def test_missing_class_rejected(self):
        cover = hyperelliptic(6)
        with pytest.raises(NTableMismatch):
            dim_A_W(cover, RationalIrrepData(1, 1, 1, ()))

    def test_schur_index_must_divide(self):
        with pytest.raises(ValueError):
            RationalIrrepData(3, 1, 2, ())


class TestCyclicQuotients:
    def test_trivial_quotient(self):
        pieces = primitive_prym_dims(genus2_base_cover())
        assert pieces[0].quotient_order == 1
        assert pieces[0].dim == 2

    def test_hyperelliptic_full_quotient(self):
        pieces = primitive_prym_dims(hyperelliptic(6))
        assert [(p.quotient_order, p.dim) for p in pieces] == [(1, 0), (2, 2)]

    def test_klein_quotients(self):
        pieces = primitive_prym_dims(klein_cover())
        assert [p.dim for p in pieces] == [0, 0, 0, 1]

    def test_matches_dim_B_W(self):
        for cover in fixture_covers():
            by_rep = {
                orbit.representative: dim_B_W(cover, data) for orbit, data in orbit_data(cover)
            }
            for piece in primitive_prym_dims(cover):
                assert piece.dim == by_rep[piece.orbit.representative]

    def test_generic_mode_rejected(self):
        from galcov import ClassTable, cover_from_class_table

        table = ClassTable.build([("c", 2, 2)], 2)
        with pytest.raises(NotAbelian):
            primitive_prym_dims(cover_from_class_table(1, table))


class TestPrimitivePrym:
    def test_hyperelliptic(self):
        pieces = primitive_prym_dims(hyperelliptic(6))
        full = pieces[1]
        assert full.quotient_genus == 2
        assert full.dim == full.dim_from_quotient == 2
        assert full.nontrivial

    def test_klein_pieces(self):
        pieces = primitive_prym_dims(klein_cover())
        assert [(p.quotient_genus, p.dim) for p in pieces[1:]] == [(0, 0), (0, 0), (1, 1)]
        assert [p.dim_from_quotient for p in pieces] == [p.dim for p in pieces]

    def test_two_forms_agree_on_fixtures(self):
        for cover in fixture_covers():
            for piece in primitive_prym_dims(cover):
                assert piece.dim == piece.dim_from_quotient

    @settings(max_examples=25, deadline=None)
    @given(covers(max_order=24, max_points=6))
    def test_two_forms_agree_random(self, cover):
        for piece in primitive_prym_dims(cover):
            assert piece.dim == piece.dim_from_quotient

    @settings(max_examples=25, deadline=None)
    @given(covers(max_order=24, max_points=6))
    def test_quotient_genus_matches_kernel_quotient(self, cover):
        for piece in primitive_prym_dims(cover):
            chi = piece.orbit.representative
            expected = quotient(cover, kernel_elements(cover, chi))
            assert expected.degree == piece.quotient_order
            assert piece.quotient_genus == expected.genus()

    def test_quotient_genus_matches_kernel_quotient_on_fixtures(self):
        for cover in fixture_covers() + [genus2_base_cover(), CoverSpec(1, GroupSpec((2,)), ())]:
            for piece in primitive_prym_dims(cover):
                kernel = kernel_elements(cover, piece.orbit.representative)
                assert piece.quotient_genus == quotient(cover, kernel).genus()

    def test_unramified_genus1_flags(self):
        # double cover of a torus: quotient piece has g_Y = g_S = 1, flagged trivial
        cover = CoverSpec(1, GroupSpec((2,)), ())
        pieces = primitive_prym_dims(cover)
        assert [(p.quotient_order, p.quotient_genus, p.dim) for p in pieces] == [
            (1, 1, 1),
            (2, 1, 0),
        ]
        assert pieces[0].nontrivial
        assert not pieces[1].nontrivial

    def test_noncyclic_group_has_no_full_orbit(self):
        for cover in fixture_covers():
            group = cover.group
            if len(group.cyclic_orders) < 2 or group.order == 1:
                continue
            cyclic = any(orbit.order == group.order for orbit in group.rational_character_orbits())
            # the group is cyclic iff some character is faithful
            import math

            expected = (
                math.lcm(*group.cyclic_orders) == group.order if group.cyclic_orders else True
            )
            assert cyclic == expected


class TestDecompose:
    def test_report_consistency(self):
        for cover in fixture_covers():
            report = decompose(cover)
            assert sum(s.dim_A for s in report.orbits) == report.genus
            assert len(report.analytic) == cover.degree
            assert len(report.quotients) == len(report.orbits)

    def test_quotients_match_primitive_prym_dims(self):
        for cover in fixture_covers():
            assert decompose(cover).quotients == primitive_prym_dims(cover)

    def test_lists_the_orbits_once(self, monkeypatch):
        calls = []
        orbits = GroupSpec.rational_character_orbits

        def counted(group):
            calls.append(group)
            return orbits(group)

        monkeypatch.setattr(GroupSpec, "rational_character_orbits", counted)
        decompose(klein_cover())
        assert len(calls) == 1

    @staticmethod
    def check_orbit_rows(cover):
        report = decompose(cover)
        assert len(report.orbits) == len(report.quotients) == len(orbit_data(cover))
        for summary, piece, (orbit, w) in zip(report.orbits, report.quotients, orbit_data(cover)):
            assert summary.orbit == piece.orbit == orbit
            assert summary.dim_A == summary.dim_B == piece.dim
            # the isotypical formulas, which decompose does not run, agree
            assert (summary.dim_A, summary.dim_B) == (dim_A_W(cover, w), dim_B_W(cover, w))

    def test_orbit_rows_are_the_prym_dims_on_configs(self):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            self.check_orbit_rows(parse_config(path.read_text()).cover)

    @settings(max_examples=25, deadline=None)
    @given(covers(max_order=24, max_points=6))
    def test_orbit_rows_are_the_prym_dims_random(self, cover):
        self.check_orbit_rows(cover)

    def test_klein_report(self):
        report = decompose(klein_cover())
        assert [s.dim_A for s in report.orbits] == [0, 0, 0, 1]
        assert report.genus == 1

    def test_generic_mode_rejected(self):
        from galcov import ClassTable, cover_from_class_table

        table = ClassTable.build([("c", 2, 2)], 2)
        with pytest.raises(NotAbelian):
            decompose(cover_from_class_table(1, table))
