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

    r_chi = max(0, chi_chi(D)),  chi_chi(D) = p + 1 + sum_C |A_{C,chi}| - t_chi
    i_chi = r_chi(K_0 - D)

with A_{C,chi} the points of class C in buckets below u_{chi,C}, and K_0 =
div(f^*(dz)), so K_0 - D has buckets o_j - 1 - i_j and p' = -2 - p (Serre
duality).  One kernel, ``_euler_numerator``, gives L chi_rho(D), L = lcm
o(C), from a character's u-row or an eigenvalue table: ``r_chi`` and
``r_total`` (over ``CoverSpec.u_table``, no ``Character`` built) read it
at D, ``differentials.cw_value`` at D_q.

These divisors, and the eigendivisors of h_chi and of the q-differential
generators (``EigenDivisor``), are constant along the fibres of the cover, so
one formula gives all their degrees: sum_j (n/o_j) e_j + n e_inf.  For an
invariant divisor e_j = o_j - 1 - i_j and e_inf = p plus the base part.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import ge, mul
from typing import Iterable, Iterator, Sequence

from .cover import CharLike, CoverSpec, Label
from .errors import NonInvariantInput, NotAbelian, UnsupportedBaseGenus, _integer, _integers, _record


def _fibre_degree(cover: CoverSpec, branch_exponents: Iterable[int], infinity_exponent: int) -> int:
    """sum_j (n/o_j) e_j + n e_inf: exponent e_j at each of the n/o_j
    preimages of branch value j, e_inf at each of the n points over the
    normalization point."""
    n = cover.degree
    return sum(n // o * e for o, e in zip(cover.point_orders, branch_exponents)) + n * infinity_exponent


def _euler_numerator(cover: CoverSpec, c: int, class_buckets: Sequence[Sequence[int]], dim: int, rows) -> int:
    """L chi_rho(D) over L = lcm o(C), for a divisor with constant part c
    (p + 1 for an ``InvariantDivisor``) and the sorted buckets i_j of each
    branch class's points:

        L (dim c + sum_C sum_alpha N_alpha #{j in C : i_j < alpha})
            - sum_C w_C sum_alpha N_alpha alpha,

    with w_C = r_C L / o(C) (``CoverSpec.class_weights``).  ``rows`` is a
    character's u-row (dim 1, N = 1 at alpha = u_C, so the count is |A_chi|
    and the last sum L t_chi) or per class a table's (alpha, N_alpha) pairs."""
    lcm, weights = cover.class_weights
    if rows and not isinstance(rows[0], int):
        below = sum(n * bisect_left(b, alpha) for b, row in zip(class_buckets, rows) for alpha, n in row)
        firsts = [sum(n * alpha for alpha, n in row) for row in rows]
    else:
        below = sum(map(bisect_left, class_buckets, rows))
        firsts = rows
    return lcm * (dim * c + below) - sum(map(mul, weights, firsts))


@_record
class InvariantDivisor:
    """Normalized deck-invariant divisor on a cover."""

    cover: CoverSpec
    buckets: tuple[int, ...]
    p: int = 0
    base_part: tuple[tuple[Label, int], ...] = ()

    def __post_init__(self):
        buckets = _integers(self.buckets, "the bucket at branch value")
        object.__setattr__(self, "buckets", buckets)
        object.__setattr__(self, "p", _integer(self.p, "p"))
        base_part = tuple(self.base_part)
        if base_part:  # only a positive-genus base carries one
            base_part = tuple([(pt, _integer(e, f"the exponent at base point {pt}")) for pt, e in base_part])
        object.__setattr__(self, "base_part", base_part)
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
    def _from_checked_rows(cls, cover: CoverSpec, rows: Iterable[tuple[int, ...]], p: int) -> Iterator["InvariantDivisor"]:
        """The divisor with no base part of each row, in order, skipping
        ``__post_init__``: every row is a tuple of ints with 0 <= i_j < o_j at
        every branch value j.

        Each divisor's ``__dict__`` gets a copy of one dict of the stream's
        fields and then its row, two C-level steps against the four
        ``object.__setattr__`` calls by which ``errors._record``'s ``__init__``
        keeps a record's fields inline; four item writes alone would leave a
        split dict, whose attribute reads CPython 3.11 does not specialize."""
        new, fields = object.__new__, {"cover": cover, "buckets": (), "p": p, "base_part": ()}
        for buckets in rows:
            div = new(cls)
            own = div.__dict__
            own.update(fields)
            own["buckets"] = buckets
            yield div

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

    def _require_genus0(self):
        if self.cover.base_genus != 0:
            raise UnsupportedBaseGenus(
                "numeric dimensions need a genus-0 base; use reduced_base_divisor"
            )

    def basis_description(self, chi: CharLike) -> "BasisDescription":
        """The chi-part as h_chi times polynomials over the linear factors
        picked out by the A-sets."""
        self._require_genus0()
        row, t = self.cover.row_and_t(chi)
        a_points = self._a_points(row)
        denominator = tuple(self.cover.branch_points[j].label for j in a_points)
        return BasisDescription(max(-1, self.p + len(a_points) - t), denominator, chi)

    def r_chi(self, chi: CharLike) -> int:
        """Dimension of the chi-part of the function space of 1/divisor:
        max(0, chi_chi(D)), from chi's u-row."""
        self._require_genus0()
        return self._sum_excess(((chi, self.cover.u_row(chi)),))

    def r_total(self) -> int:
        """sum_chi r_chi over the dual group, from the u-table."""
        self._require_genus0()
        if not self.cover.is_abelian:
            raise NotAbelian("total dimension sums over the full dual group")
        return self._sum_excess(enumerate(self.cover.u_table()))

    def _sum_excess(self, named_rows: Iterable[tuple[CharLike | int, tuple[int, ...]]]) -> int:
        """sum max(0, chi_chi(D)) over (chi, u-row) pairs, one kernel value
        per row.  A non-integral t raises at the row's chi or, for an index,
        at the character with that index in ``characters()`` order."""
        cover, own = self.cover, self.buckets
        t_of_row, lcm = cover._t_of_row, cover.class_weights[0]
        c, buckets = self.p + 1, [sorted([own[j] for j in cls.points]) for cls in cover.branch_classes]
        total = 0
        for chi, row in named_rows:
            excess, rem = divmod(_euler_numerator(cover, c, buckets, 1, row), lcm)
            if rem:
                t_of_row(row, chi)  # raises at chi
            if excess > 0:
                total += excess
        return total

    def _serre_dual(self) -> "InvariantDivisor":
        """K_0 - D for K_0 = div(f^*(dz)): buckets o_j - 1 - i_j, p' = -2 - p."""
        buckets = tuple([o - 1 - i for i, o in zip(self.buckets, self.cover.point_orders)])
        return next(InvariantDivisor._from_checked_rows(self.cover, (buckets,), -2 - self.p))

    def i_chi(self, chi: CharLike) -> int:
        """Dimension of the chi-part of differentials bounded below by the
        divisor: r_chi of K_0 - D, by Serre duality."""
        return self._serre_dual().r_chi(chi)

    def i_total(self) -> int:
        """sum_chi i_chi: r_total of K_0 - D."""
        return self._serre_dual().r_total()

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
    """The one exponent of a fiber, given bare or per point; it must be an integer."""
    if not hasattr(values, "__iter__"):
        return _integer(values, f"the exponent on the {where}")
    seq = list(values)
    if len(seq) != expected_len:  # a fiber has at least one point
        raise NonInvariantInput(f"{where}: expected {expected_len} fiber exponents, got {len(seq)}")
    if any(v != seq[0] for v in seq):
        raise NonInvariantInput(f"{where}: exponents differ along the fiber: {seq}")
    return _integer(seq[0], f"the exponent on the {where}")


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
