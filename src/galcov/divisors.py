"""Normalized invariant divisors and their function/differential dimensions.

A deck-invariant divisor in normal form is stored by buckets: branch value j
sits in bucket i, 0 <= i < o(C_j), and each of its preimages appears in the
divisor with exponent o(C_j) - 1 - i.  Values absent from the divisor occupy
the top bucket.  The integer p is the common exponent at the fiber over the
normalization point, and on a positive-genus base an extra integral divisor
is carried symbolically (it is never reduced; dimension queries there return
symbolic divisors on the base instead of numbers).

All numeric dimension formulas here require a genus-0 base, where the
normalization is fully explicit:

    r_chi = max(0, p + 1 + sum_C |A_{C,chi}| - t_chi)
    i_chi = max(0, t_{conj chi} - sum_C |A_{C,conj chi}| - p - 1)

with A_{C,chi} the union of buckets below u_{chi,C}.  Each is an integer
read from one u-row: ``CoverSpec.row_and_t`` gives the row and t_chi (an
integer numerator over lcm o(C)), |A_{C,chi}| is counted from the row, and
i_chi reads conj chi's row from ``CoverSpec._conjugate_and_row``.  The totals
read the u-table (``CoverSpec.u_table``), one row per character and no
``Character``; there |A_{C,chi}| is ``bisect_left`` of u_{chi,C} in the
class's sorted buckets.

These divisors, and the eigendivisors of h_chi and of the q-differential
generators (``EigenDivisor``), are constant along the fibres of the cover, so
one formula gives all their degrees: sum_j (n/o_j) e_j + n e_inf.  For an
invariant divisor e_j = o_j - 1 - i_j and e_inf = p plus the base part.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import ge
from typing import Iterable, Sequence

from .cover import CharLike, CoverSpec, Label
from .errors import NonInvariantInput, NotAbelian, UnsupportedBaseGenus, _record


def _fibre_degree(cover: CoverSpec, branch_exponents: Iterable[int], infinity_exponent: int) -> int:
    """sum_j (n/o_j) e_j + n e_inf: exponent e_j at each of the n/o_j
    preimages of branch value j, e_inf at each of the n points over the
    normalization point."""
    n = cover.degree
    return sum(n // o * e for o, e in zip(cover.point_orders, branch_exponents)) + n * infinity_exponent


@_record
class InvariantDivisor:
    """Normalized deck-invariant divisor on a cover."""

    cover: CoverSpec
    buckets: tuple[int, ...]
    p: int = 0
    base_part: tuple[tuple[Label, int], ...] = ()

    def __post_init__(self):
        buckets = tuple(map(int, self.buckets))
        object.__setattr__(self, "buckets", buckets)
        object.__setattr__(self, "base_part", tuple(self.base_part))
        orders = self.cover.point_orders
        if len(buckets) != len(orders):
            raise ValueError(
                f"{len(buckets)} bucket entries for {len(orders)} branch values"
            )
        if any(map(ge, buckets, orders)) or (buckets and min(buckets) < 0):
            j = next(j for j, (i, o) in enumerate(zip(buckets, orders)) if not 0 <= i < o)
            raise ValueError(
                f"bucket {buckets[j]} out of range [0, {orders[j]}) at branch value {j}"
            )
        if self.cover.base_genus == 0 and self.base_part:
            raise ValueError("genus-0 base: extra base divisor must be empty")

    @classmethod
    def _from_checked(cls, cover: CoverSpec, buckets: tuple[int, ...], p: int) -> "InvariantDivisor":
        """The divisor with no base part, skipping ``__post_init__``: ``buckets``
        is a tuple of ints with 0 <= i_j < o_j at every branch value j."""
        div = object.__new__(cls)
        div.__dict__.update(cover=cover, buckets=buckets, p=p, base_part=())
        return div

    # -- structure ---------------------------------------------------------

    def exponent(self, j: int) -> int:
        """Exponent of every preimage of branch value j."""
        return self.cover.point_order(j) - 1 - self.buckets[j]

    def degree(self) -> int:
        exponents = (o - 1 - i for i, o in zip(self.buckets, self.cover.point_orders))
        return _fibre_degree(self.cover, exponents, self.p + sum(e for _, e in self.base_part))

    # -- character data ------------------------------------------------------

    def a_total(self, chi: CharLike) -> int:
        """sum_C |A_{C,chi}|, counted from chi's u-row; no A-sets are built."""
        return len(self._a_points(self.cover.u_row(chi)))

    def _a_points(self, row: Sequence[int]) -> list[int]:
        """The indices of the A-sets read from a u-row: j in C with bucket_j < u_C."""
        buckets = self.buckets
        return [j for cls, u in zip(self.cover.branch_classes, row) for j in cls.points if buckets[j] < u]

    def _excess(self, row: tuple[int, ...], chi: CharLike) -> int:
        """p + 1 + a_chi - t_chi from chi's u-row: r_chi is max(0, excess(chi))
        and i_chi is max(0, -excess(conj chi))."""
        return self.p + 1 + len(self._a_points(row)) - self.cover._t_of_row(row, chi)

    def _require_genus0(self):
        if self.cover.base_genus != 0:
            raise UnsupportedBaseGenus(
                "numeric dimensions need a genus-0 base; use reduced_base_divisor"
            )

    def r_chi(self, chi: CharLike) -> int:
        """Dimension of the chi-part of the function space of 1/divisor."""
        self._require_genus0()
        return max(0, self._excess(self.cover.u_row(chi), chi))

    def basis_description(self, chi: CharLike) -> "BasisDescription":
        """The chi-part as h_chi times polynomials over the linear factors
        picked out by the A-sets."""
        self._require_genus0()
        row, t = self.cover.row_and_t(chi)
        a_points = self._a_points(row)
        denominator = tuple(self.cover.branch_points[j].label for j in a_points)
        return BasisDescription(max(-1, self.p + len(a_points) - t), denominator, chi)

    def _total(self, sign: int) -> int:
        """sum_chi max(0, sign * excess(chi)) over the dual group, from the
        u-table: per row, t is an integer numerator over lcm o(C) and
        |A_{C,chi}| the number of the class's buckets below u_{chi,C}.  A
        non-integral t raises at the character of its row."""
        self._require_genus0()
        cover = self.cover
        if not cover.is_abelian:
            raise NotAbelian("total dimension sums over the full dual group")
        t_of_row = cover._t_of_row
        sorted_buckets = [sorted(self.buckets[j] for j in cls.points) for cls in cover.branch_classes]
        base = self.p + 1
        total = 0
        for index, row in enumerate(cover.u_table()):
            excess = sign * (base + sum(map(bisect_left, sorted_buckets, row)) - t_of_row(row, index))
            if excess > 0:
                total += excess
        return total

    def r_total(self) -> int:
        """sum_chi r_chi = sum_chi max(0, p + 1 + a_chi - t_chi)."""
        return self._total(1)

    def i_chi(self, chi: CharLike) -> int:
        """Dimension of the chi-part of differentials bounded below by the divisor."""
        self._require_genus0()
        conj, row = self.cover._conjugate_and_row(chi)
        return max(0, -self._excess(row, conj))

    def i_total(self) -> int:
        """sum_chi i_chi = sum_chi max(0, t_chi - a_chi - p - 1), since
        chi -> conj chi permutes the dual group: no row is conjugated.
        On non-integral branch data the error names the first non-integral
        character, where i_chi would name its conjugate."""
        return self._total(-1)

    def reduced_base_divisor(self, chi: CharLike, kind: str = "function") -> "SymbolicDivisor":
        """Divisor on the base computing the chi-dimension, for any base genus.

        kind="function": the divisor Xi with r(1/Xi) = r_chi(1/divisor);
        kind="differential": the divisor Xi with i(Xi) = i_chi(divisor).
        On a positive-genus base the unknown normalizing divisor attached to
        chi enters as the opaque degree-zero symbol Y[chi] (the integral
        divisor times the matching inverse power of the base point).
        """
        row, t = self.cover.row_and_t(chi)
        labels = [bp.label for bp in self.cover.branch_points]
        if kind == "function":
            points = [(labels[j], 1) for j in self._a_points(row)]
            points.extend(self.base_part)
            symbols = [] if self.cover.base_genus == 0 else [(f"Y[{chi}]", 1)]
            return SymbolicDivisor(self.p - t, tuple(points), tuple(symbols), "r_of_inverse")
        if kind == "differential":
            # the points outside A_{C,conj chi}: j in C with v = u_{conj chi,C}
            # and bucket_j >= v, where a class inside ker(chi) (v = 0) has none
            conj_row = self.cover._conjugate_row(row)
            points = [
                (labels[j], -1)
                for cls, v in zip(self.cover.branch_classes, conj_row) if v
                for j in cls.points if self.buckets[j] >= v
            ]
            points.extend(self.base_part)
            symbols = [] if self.cover.base_genus == 0 else [(f"Y[{chi}]", -1)]
            return SymbolicDivisor(self.p + t, tuple(points), tuple(symbols), "i_of")
        raise ValueError(f"kind must be 'function' or 'differential', got {kind!r}")


@_record
class BasisDescription:
    """Basis data for a chi-part on a genus-0 base: the space is the span of
    h_chi * z^k / prod(z - lambda), lambda over ``denominator``, 0 <= k <=
    ``degree_bound`` (empty when the bound is -1)."""

    degree_bound: int
    denominator: tuple[Label, ...]
    character: CharLike

    @property
    def dimension(self) -> int:
        return self.degree_bound + 1

    def __str__(self):
        denom = "".join(f"(z-{lab})" for lab in self.denominator) or "1"
        return f"h[{self.character}] * P<=({self.degree_bound})(z) / {denom}"


@_record
class SymbolicDivisor:
    """Formal divisor on the base: a power of the normalization point, known
    points with exponents, and opaque degree-zero symbols (positive base
    genus only)."""

    nu_exponent: int
    points: tuple[tuple[Label, int], ...]
    symbols: tuple[tuple[str, int], ...]
    dimension_kind: str

    def degree(self) -> int:
        # symbols are degree-zero packages, so they never contribute
        return self.nu_exponent + sum(e for _, e in self.points)

    def __str__(self):
        parts = [f"nu^{self.nu_exponent}"] if self.nu_exponent else []
        parts.extend(f"({lab})^{e}" if e != 1 else f"({lab})" for lab, e in self.points)
        parts.extend(f"{name}^{e}" if e != 1 else name for name, e in self.symbols)
        return " * ".join(parts) if parts else "1"


@_record
class EigenDivisor:
    """Divisor of an eigenfunction or eigendifferential attached to a
    character on a genus-0 base: one exponent per branch value, the same at
    each of its preimages, and one at every point over infinity."""

    cover: CoverSpec
    character: CharLike
    branch_exponents: tuple[int, ...]
    infinity_exponent: int

    def degree(self) -> int:
        return _fibre_degree(self.cover, self.branch_exponents, self.infinity_exponent)


def h_chi_divisor(cover: CoverSpec, chi: CharLike) -> EigenDivisor:
    """Divisor of the normalized eigenfunction h_chi: exponent u_{chi,C} at
    every preimage of a branch value of class C, pole of order t_chi at each
    of the n points over infinity."""
    if cover.base_genus != 0:
        raise UnsupportedBaseGenus("the eigenfunction divisor is explicit only over the line")
    row, t = cover.row_and_t(chi)
    div = EigenDivisor(cover, chi, tuple([row[i] for i in cover._point_classes]), -t)
    if div.degree() != 0:
        raise AssertionError(f"eigenfunction divisor has degree {div.degree()}, expected 0")
    return div


def trivial_divisor(cover: CoverSpec, p: int = 0) -> InvariantDivisor:
    """All branch values in the top bucket: the divisor of the p-th power of
    the fiber over the normalization point."""
    return InvariantDivisor(
        cover, tuple(cover.point_order(j) - 1 for j in range(len(cover.branch_points))), p
    )


@_record
class Normalization:
    divisor: InvariantDivisor
    shifts: tuple[tuple[Label, int], ...]


def _constant_fiber_value(values, expected_len, where) -> int:
    if isinstance(values, int):
        return values
    seq = list(values)
    if expected_len is not None and len(seq) != expected_len:
        raise NonInvariantInput(f"{where}: expected {expected_len} fiber exponents, got {len(seq)}")
    if not seq:
        raise NonInvariantInput(f"{where}: empty fiber")
    if any(v != seq[0] for v in seq):
        raise NonInvariantInput(f"{where}: exponents differ along the fiber: {seq}")
    return int(seq[0])


def normalize(
    cover: CoverSpec,
    branch_exponents: Sequence[int | Sequence[int]],
    nu_exponents: int | Sequence[int] = 0,
) -> Normalization:
    """Reduce a raw invariant divisor over the line to its normal form.

    Input exponents are per branch value (a bare int) or per fiber point (a
    sequence, which must be constant: invariance).  Each branch exponent e is
    reduced to e mod o(C) by dividing out (z - lambda)^floor(e / o(C)), whose
    poles land on the infinity fiber; the shift record lists the power of
    each linear factor used.
    """
    if cover.base_genus != 0:
        raise UnsupportedBaseGenus("normalization is only explicit over the line")
    if len(branch_exponents) != len(cover.branch_points):
        raise NonInvariantInput(
            f"expected {len(cover.branch_points)} branch exponents, got {len(branch_exponents)}"
        )
    n = cover.degree
    p = _constant_fiber_value(nu_exponents, n, "fiber over infinity")
    buckets = []
    shifts = []
    for j, raw in enumerate(branch_exponents):
        o = cover.point_order(j)
        e = _constant_fiber_value(raw, n // o, f"fiber over {cover.branch_points[j].label}")
        fold, residue = divmod(e, o)
        buckets.append(o - 1 - residue)
        if fold:
            shifts.append((cover.branch_points[j].label, fold))
        p += fold
    return Normalization(InvariantDivisor(cover, tuple(buckets), p), tuple(shifts))
