"""Reference answers in Fraction arithmetic.

These are the routes the library took before it computed each invariant as
one integer numerator over a known denominator: the pairing of a character
with an element, t (sum_C r_C u_C / o(C) from the u-row), the Chevalley-Weil
sum (over (alpha, N_alpha) pairs) and its raw value at a character, the
Riemann-Hurwitz genus, the isotypical dimension and the quotient-form Prym
dimension summed class by class in Fractions, and the divisor totals taken
as one ``r_chi`` or ``i_chi`` per character, ``i_chi`` conjugating the
character first.  They serve only as oracles: the library must give the same
values, and raise the same errors with the same text.  ``a_sets`` is the
A-set tuple per class that the library now only counts.
"""

from __future__ import annotations

import math
from fractions import Fraction

from galcov.cover import CoverSpec
from galcov.errors import NonIntegralDimension, NonIntegralInvariant, NTableMismatch
from galcov.groups import euler_phi


def pairing(group, chi, x) -> Fraction:
    """Fractional part of sum_i k_i a_i / m_i, summed in Fractions."""
    s = sum(Fraction(k * a, m) for k, a, m in zip(chi.exponents, x.exponents, group.cyclic_orders))
    return s - math.floor(s)


def t_fraction(cover: CoverSpec, chi) -> Fraction:
    """sum_C r_C u_{chi,C} / o(C), one Fraction per class, integral or not."""
    return sum(
        (Fraction(cls.count * u, cls.order) for cls, u in zip(cover.branch_classes, cover.u_row(chi))),
        Fraction(0),
    )


def t_chi(cover: CoverSpec, chi) -> int:
    t = t_fraction(cover, chi)
    if t.denominator != 1:
        raise NonIntegralInvariant(chi, f"t = {t}")
    return int(t)


def cw_value(cover: CoverSpec, dim: int, rows, q: int, gamma_degree: int) -> Fraction:
    """dim ((2q-1)(g_S - 1) + deg Gamma) plus, per class,
    r_C sum_alpha N_alpha [(q-1)(o-1) + (q-1-alpha) mod o] / o."""
    value = Fraction(dim * ((2 * q - 1) * (cover.base_genus - 1) + gamma_degree))
    for cls, row in zip(cover.branch_classes, rows):
        o = cls.order
        value += Fraction(
            cls.count * sum(n * ((q - 1) * (o - 1) + (q - 1 - alpha) % o) for alpha, n in row), o
        )
    return value


def character_pairs(row):
    """A character's u-row as one-dimensional eigenvalue rows: (u_C, 1) per class."""
    return tuple(((u, 1),) for u in row)


def raw_dimension_value(cover: CoverSpec, chi, q: int, gamma_degree: int) -> int:
    """The Chevalley-Weil sum at a character, without the +1; a value that
    is not an integer raises at chi."""
    value = cw_value(cover, 1, character_pairs(cover.u_row(chi)), q, gamma_degree)
    if value.denominator != 1:
        raise NonIntegralInvariant(chi, f"dimension value {value}")
    return int(value)


def genus(cover: CoverSpec) -> int:
    n = cover.degree
    g = 1 + n * (cover.base_genus - 1) + sum(
        Fraction(n * cls.count, 2 * cls.order) * (cls.order - 1) for cls in cover.branch_classes
    )
    if isinstance(g, Fraction):
        if g.denominator != 1:
            raise NonIntegralInvariant(None, f"genus = {g}")
        g = int(g)
    return g


def n0(w, key) -> int:
    try:
        value = dict(w.invariant_dims)[key]
    except KeyError:
        raise NTableMismatch(f"no invariant dimension supplied for class {key}") from None
    if not 0 <= value <= w.dim:
        raise NTableMismatch(f"invariant dimension {value} at class {key} out of range")
    return value


def isotypical_dim(cover: CoverSpec, w, factor: int, name: str) -> int:
    """k f (d (g_S - 1) + sum_C r_C (d - N_{C,0}) / 2) + [W trivial]."""
    k, d = w.field_degree, w.dim
    if w.trivial is not None:
        trivial = w.trivial
    else:
        trivial = (
            d == 1
            and k == 1
            and w.schur_index == 1
            and all(n0(w, cls.key) == 1 for cls in cover.branch_classes)
        )
        if trivial and cover.base_genus:
            raise NTableMismatch(
                f"triviality is not inferred over a base of genus {cover.base_genus}; set the 'trivial' flag"
            )
    value = Fraction(k * factor * d * (cover.base_genus - 1)) + trivial
    for cls in cover.branch_classes:
        value += Fraction(k * factor, 2) * cls.count * (d - n0(w, cls.key))
    if value.denominator != 1:
        raise NonIntegralDimension(f"{name} = {value} is not an integer")
    return int(value)


def quotient_form_dim(quotient: CoverSpec, e: int) -> int:
    """phi(e)/e (g_Y - 1) + [e = 1] + phi(e) sum_y r_y / (2 o(y)) of a Z_e cover."""
    value = Fraction(euler_phi(e), e) * (quotient.genus() - 1) + (1 if e == 1 else 0)
    value += euler_phi(e) * sum(Fraction(cls.count, 2 * cls.order) for cls in quotient.branch_classes)
    if value.denominator != 1:
        raise NonIntegralDimension(f"quotient-form dim = {value} is not an integer")
    return int(value)


def a_sets(div, chi) -> tuple[tuple[int, ...], ...]:
    """Per branch class, in order, the indices lying in buckets below u_{chi,C}."""
    return tuple(
        tuple(j for j in cls.points if div.buckets[j] < u)
        for cls, u in zip(div.cover.branch_classes, div.cover.u_row(chi))
    )


def a_total(div, chi) -> int:
    return sum(map(len, a_sets(div, chi)))


def r_chi(div, chi) -> int:
    return max(0, div.p + 1 + a_total(div, chi) - t_chi(div.cover, chi))


def i_chi(div, chi) -> int:
    conj = div.cover.conjugate_character(chi)
    return max(0, t_chi(div.cover, conj) - a_total(div, conj) - div.p - 1)


def r_total(div) -> int:
    return sum(r_chi(div, chi) for chi in div.cover.characters())


def i_total(div) -> int:
    return sum(i_chi(div, chi) for chi in div.cover.characters())
