"""Reference nondegeneracy scan over the equations of a presentation.

This is the scan the library once ran beside ``CoverSpec.validate``.  It
works on the equations themselves, not on the cover's characters, so it is
an independent check of the degenerate monomial ``galcov validate`` reports.
"""

from __future__ import annotations

import math
from itertools import product

from galcov.equations import INF, EquationSystem, Point


def check_nondegeneracy(eqs: EquationSystem) -> tuple[int, ...] | None:
    """Scan for monomials w^E that collapse into the base function field.

    For each nonzero exponent tuple E, let beta be the order of the character
    attached to w^E.  The product of the F_l^{e_l beta / m_l} is a beta-th
    power exactly when every point's combined exponent (including the derived
    one at infinity) is divisible by beta, every degree-zero divisor on the
    line being principal.  Returns the first offending E in lexicographic
    order, or None when the system is nondegenerate.
    """
    orders = [eq.m for eq in eqs.equations]
    points: list[Point] = list(eqs.finite_points()) + [INF]
    for exps in product(*(range(m) for m in orders)):
        if not any(exps):
            continue
        beta = math.lcm(*(m // math.gcd(m, e) for e, m in zip(exps, orders)))
        powers = [e * beta // m for e, m in zip(exps, orders)]
        if all(
            sum(k * eq.rhs.order_at(pt) for k, eq in zip(powers, eqs.equations)) % beta == 0
            for pt in points
        ):
            return exps
    return None


def is_nondegenerate(eqs: EquationSystem) -> bool:
    return check_nondegeneracy(eqs) is None
