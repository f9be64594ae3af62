"""Acceptance suite: each test checks one numbered criterion at its stated
tolerance and prints a single PASS/FAIL line."""

import cmath
import math
import random
from contextlib import contextmanager

from galcov import (
    brute_force_filter,
    cw_multiplicity,
    delta_info,
    dim_A_W,
    dim_B_W,
    dim_omega_chi,
    eichler_trace,
    enumerate_degree_gm1,
    enumerate_nonspecial_integral,
    h_chi_divisor,
    omega_divisor,
    primitive_prym_dims,
    search_space_size,
    total_dim_omega,
)

import fraction_oracle
from covergen import (
    cyclic_cover,
    fixture_covers,
    genus1_fixtures,
    hyperelliptic,
    irrep_of_character,
    klein_cover,
    random_divisor,
    random_validated_cover,
)
from row_route_oracle import orbit_irrep


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


def window_qs(cover, lo=-2, hi=4):
    g = cover.genus()
    return [
        q
        for q in range(lo, hi + 1)
        if (g >= 2 and q >= 1) or g == 1 or (g == 0 and q <= 1)
    ]


def test_criterion_1_genus_one_curves():
    with criterion(1, "the four cyclic fixtures have genus 1 and no branching at infinity"):
        for cover in genus1_fixtures():
            assert cover.genus() == 1
            assert cover.validate().ok
        # unbranched infinity is structural: covers built from equation systems
        # whose right-hand sides have infinity order divisible by the root order
        from covergen import pt
        from galcov import equation_system

        systems = [
            equation_system([(2, [(pt(i), 1) for i in range(1, 5)])]),
            equation_system([(3, [(pt(i), 1) for i in range(1, 4)])]),
            equation_system([(4, [(pt(1), 1), (pt(2), 1), (pt(3), 2)])]),
            equation_system([(6, [(pt(1), 1), (pt(2), 2), (pt(3), 3)])]),
        ]
        for eqs in systems:
            assert all(eq.rhs.infinity_order % eq.m == 0 for eq in eqs.equations)


def test_criterion_2_genus_identity_random_covers():
    with criterion(2, "sum of (t - 1) over nontrivial characters equals the genus, 100+ covers"):
        rng = random.Random(1001)
        for _ in range(120):
            cover = random_validated_cover(rng, max_order=36, max_points=8)
            total = sum(
                cover.t_chi(chi) - 1 for chi in cover.characters() if not chi.is_trivial
            )
            assert total == cover.genus()


def test_criterion_3_riemann_roch_random_divisors():
    with criterion(3, "r - i = deg + 1 - genus on 1000+ random normalized divisors"):
        rng = random.Random(1002)
        checked = 0
        while checked < 1050:
            cover = random_validated_cover(rng, max_order=36, max_points=8)
            for _ in range(6):
                div = random_divisor(rng, cover)
                assert div.r_total() - div.i_total() == div.degree() + 1 - cover.genus()
                checked += 1


def test_criterion_4_enumeration_matches_oracle():
    with criterion(4, "structured enumeration equals the brute-force filter on every fixture"):
        for cover in fixture_covers():
            if search_space_size(cover) > 10**6:
                continue
            g = cover.genus()
            integral = {d.buckets for d in enumerate_nonspecial_integral(cover)}
            assert integral == {d.buckets for d in brute_force_filter(cover, 0, g, 1)}
            gm1 = {d.buckets for d in enumerate_degree_gm1(cover)}
            assert gm1 == {d.buckets for d in brute_force_filter(cover, -1, g - 1, 0)}
        assert len(enumerate_nonspecial_integral(hyperelliptic(6))) == 15
        assert len(enumerate_nonspecial_integral(hyperelliptic(4))) == 4
        assert len(enumerate_nonspecial_integral(cyclic_cover(3, [1, 1, 1]))) == 3
        assert len(enumerate_degree_gm1(hyperelliptic(6))) == 20


def test_criterion_5_divisor_degrees():
    with criterion(5, "eigenfunction divisors have degree 0 and q-differential divisors q(2g-2)"):
        for cover in fixture_covers():
            target = 2 * cover.genus() - 2
            for chi in cover.characters():
                assert h_chi_divisor(cover, chi).degree() == 0
                for q in window_qs(cover):
                    assert omega_divisor(cover, chi, q).degree() == q * target


def test_criterion_6_dimension_identities():
    with criterion(6, "per-character dimensions sum to (2q-1)(g-1) + n deg + delta"):
        for cover in fixture_covers():
            n = cover.degree
            g = cover.genus()
            for q in window_qs(cover):
                for gamma in (0, 1, 2):
                    total = total_dim_omega(cover, q, gamma)
                    delta = delta_info(cover, q, gamma).delta
                    assert total == (2 * q - 1) * (g - 1) + n * gamma + delta
                    assert total == sum(
                        dim_omega_chi(cover, chi, q, gamma) for chi in cover.characters()
                    )
        hyp = hyperelliptic(6)
        dims = [dim_omega_chi(hyp, chi, 1, 0) for chi in hyp.characters()]
        assert dims == [0, 2]
        assert total_dim_omega(hyp, 1, 0) == 2


def test_criterion_7_eichler_traces():
    with criterion(7, "fixed-point traces match spectral sums within 1e-9"):
        for cover in fixture_covers():
            group = cover.group
            for q in window_qs(cover):
                for gamma in (0, 1):
                    dims = {
                        chi: dim_omega_chi(cover, chi, q, gamma)
                        for chi in cover.characters()
                    }
                    for tau in group.elements():
                        if group.element_order(tau) == 1:
                            continue
                        fixed = eichler_trace(cover, tau, q, gamma).value
                        spectral = sum(
                            dims[chi]
                            * cmath.exp(2j * cmath.pi * float(fraction_oracle.pairing(group, chi, tau)))
                            for chi in cover.characters()
                        )
                        assert abs(fixed - spectral) < 1e-9
        hyp = hyperelliptic(6)
        assert abs(eichler_trace(hyp, hyp.group.element([1]), 1, 0).value - (-2)) < 1e-9


def test_criterion_8_chevalley_weil_reconciliation():
    with criterion(8, "multiplicities equal dimensions, sum to the total, and shift by d per base point"):
        for cover in fixture_covers():
            for q in window_qs(cover):
                total = 0
                for chi in cover.characters():
                    rho = irrep_of_character(cover, chi)
                    mult = cw_multiplicity(cover, rho, q, 0)
                    assert mult == dim_omega_chi(cover, chi, q, 0)
                    total += rho.dim * mult
                    assert (
                        cw_multiplicity(cover, rho, q, 2)
                        == cw_multiplicity(cover, rho, q, 1) + rho.dim
                    )
                assert total == total_dim_omega(cover, q, 0)


def test_criterion_9_genus1_exception():
    with criterion(9, "exactly one character with raw value -1; triviality iff q = 1 mod branching orders"):
        for cover in genus1_fixtures():
            lcm = math.lcm(*(cls.order for cls in cover.branch_classes))
            for q in range(-2, 5):
                raws = [fraction_oracle.raw_dimension_value(cover, chi, q, 0) for chi in cover.characters()]
                assert raws.count(-1) == 1
                info = delta_info(cover, q, 0)
                assert info.delta == 1
                assert info.character.is_trivial == ((q - 1) % lcm == 0)


def test_criterion_10_jacobian_decomposition():
    with criterion(10, "isotypical dimensions sum to the genus; both quotient dimension forms agree"):
        for cover in fixture_covers():
            orbits = cover.group.rational_character_orbits()
            total = sum(dim_A_W(cover, orbit_irrep(cover, orbit)) for orbit in orbits)
            assert total == cover.genus()
            for piece in primitive_prym_dims(cover):
                assert piece.dim == piece.dim_from_quotient
                w = orbit_irrep(cover, piece.orbit)
                assert piece.dim == dim_B_W(cover, w)
        klein = klein_cover()
        pieces = primitive_prym_dims(klein)[1:]
        assert [p.dim for p in pieces] == [0, 0, 1]
        assert [p.quotient_genus for p in pieces] == [0, 0, 1]
