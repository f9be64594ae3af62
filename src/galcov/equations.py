"""Covers of the line given by explicit root extractions w_l^m_l = F_l(z).

Each right-hand side is stored as a factored rational function: a list of
points with integer exponents.  Every quantity of interest depends only on
this divisor data, so the constant multiplier and the polynomial coefficients
never enter, and no root finding is needed.  The order at infinity is derived
from the finite factors (divisors of rational functions have degree zero) and
must be divisible by the corresponding root order: branching over infinity is
rejected, since infinity serves as the normalization point.
"""

from __future__ import annotations

from typing import Sequence

from .cover import BranchPoint, Coord, CoverSpec
from .errors import BranchedAtInfinity, _integer, _record
from .groups import GroupElement, GroupSpec


class Infinity:
    """The point at infinity on the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = Infinity()

Point = Coord | Infinity


@_record
class FactoredRational:
    """Nonzero rational function in factored form: points with exponents.

    The exponent at infinity may be listed explicitly, in which case it must
    agree with the derived value (minus the sum of the finite exponents).
    """

    factors: tuple[tuple[Point, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "factors", tuple((pt, _integer(e, f"the exponent at {pt}")) for pt, e in self.factors)
        )
        points = [pt for pt, _ in self.factors]
        if len(set(points)) != len(points):
            raise ValueError("factored rational function has repeated points")
        for pt, e in self.factors:
            if e == 0:
                raise ValueError(f"zero exponent at {pt}")
            if not isinstance(pt, (Coord, Infinity)):
                raise TypeError(f"points must be coordinates or infinity, got {pt!r}")
        finite_sum = sum(e for pt, e in self.factors if isinstance(pt, Coord))
        for pt, e in self.factors:
            if isinstance(pt, Infinity) and e != -finite_sum:
                raise ValueError(
                    f"explicit order {e} at infinity contradicts the derived value {-finite_sum}"
                )

    @property
    def finite_factors(self) -> tuple[tuple[Coord, int], ...]:
        return tuple((pt, e) for pt, e in self.factors if isinstance(pt, Coord))

    @property
    def infinity_order(self) -> int:
        return -sum(e for _, e in self.finite_factors)

    def order_at(self, point: Point) -> int:
        if isinstance(point, Infinity):
            return self.infinity_order
        for pt, e in self.finite_factors:
            if pt == point:
                return e
        return 0


@_record
class Equation:
    """One root extraction w^m = F(z)."""

    m: int
    rhs: FactoredRational

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "root order"))
        if self.m < 2:
            raise ValueError(f"root order must be at least 2, got {self.m}")


@_record
class EquationSystem:
    """A fibered-product presentation over the line, one equation per factor.

    Construction rejects systems branched over infinity: the derived order of
    each right-hand side at infinity must be divisible by its root order.
    """

    equations: tuple[Equation, ...]

    def __post_init__(self):
        object.__setattr__(self, "equations", tuple(self.equations))
        for l, eq in enumerate(self.equations):
            if eq.rhs.infinity_order % eq.m:
                raise BranchedAtInfinity(
                    f"equation {l}: order {eq.rhs.infinity_order} at infinity "
                    f"is not divisible by {eq.m}"
                )

    @property
    def group(self) -> GroupSpec:
        return GroupSpec(tuple(eq.m for eq in self.equations))

    def finite_points(self) -> tuple[Coord, ...]:
        seen: dict[Coord, None] = {}
        for eq in self.equations:
            for pt, _ in eq.rhs.finite_factors:
                seen.setdefault(pt)
        return tuple(sorted(seen, key=lambda c: (c.re, c.im)))


def equation_system(
    specs: Sequence[tuple[int, Sequence[tuple[Point, int]]]]
) -> EquationSystem:
    return EquationSystem(
        tuple(Equation(m, FactoredRational(tuple(factors))) for m, factors in specs)
    )


def psi_at(eqs: EquationSystem, point: Coord) -> GroupElement:
    """Deck-group class over a finite point: the vector of root-extraction
    orders of the right-hand sides there, one residue per factor."""
    if isinstance(point, Infinity):
        raise BranchedAtInfinity("infinity is unbranched by construction")
    return eqs.group.element([eq.rhs.order_at(point) for eq in eqs.equations])


def build_cover(eqs: EquationSystem) -> CoverSpec:
    """CoverSpec of the fibered product: genus-0 base, branch values at every
    finite point with a nontrivial class."""
    group = eqs.group
    points = []
    for pt in eqs.finite_points():
        psi = psi_at(eqs, pt)
        if group.element_order(psi) > 1:
            points.append(BranchPoint(pt, psi))
    return CoverSpec(0, group, tuple(points))
