"""q-differential bookkeeping: eigendivisors, dimensions, traces, and
multiplicities for spaces of q-differentials bounded by the pullback of an
integral divisor on the base.

The dimension formula

    (2q-1)(g_S - 1) + deg Gamma
        + sum_C r_C [ (q-1)(1 - 1/o(C)) + frac((q - 1 - u_{chi,C}) / o(C)) ]

is exact except for a single character chi_delta that picks up +1; the
correction is present exactly when Gamma is trivial and either q = 1 or the
cover has genus 1.  The admissibility window (genus >= 2 with q >= 1, genus
1 with any q, genus 0 with q <= 1) is enforced; outside it the formula does
not compute dimensions and callers get a hard error rather than a number.

One kernel evaluates this sum, the generalized Chevalley-Weil formula: a
representation enters as its dimension and, per branch class, the nonzero
multiplicities N_alpha of the eigenvalues zeta_{o(C)}^alpha; a character
enters as its u-row, N = 1 at alpha = u_{chi,C}.  A dimension is the
Chevalley-Weil multiplicity of a character, so one route leads from the
kernel to a number: ``_multiplicity`` takes the kernel at rho's eigenvalue
rows, checks the value is an integer, adds the delta correction and carries
the one guard against a negative value.  It is ``cw_multiplicity`` at
``eigen_rows(rho)``, ``dim_omega_chi`` at a character's u-row and
``jacobian.decompose`` at the u-table's rows.  The jacobian module's
analytic multiplicity at rho is this route at q = 1, Gamma = 0 and conj
rho, and its rational multiplicity adds the route at rho itself.
A character and its u-row are conjugated by ``CoverSpec``, a table by
``conjugate``; the +1 correction is decided once, by ``same_character``;
``omega_divisor`` reads the conjugate u-row.

``cw_value`` is the divisor kernel ``divisors._euler_numerator`` at D_q:
omega -> omega / f^*(dz)^q maps these q-differentials onto L(D_q) as
G-modules, and D_q has bucket (q - 1) mod o(C) at every branch value of
class C and p = deg Gamma - 2q + sum_j floor(q (o_j - 1) / o_j).  The
kernel's constant is c = p + 1, so A_q = (p + 1) L is the numerator at the
trivial row; over any base c = (2q-1)(g_S - 1) + deg Gamma + sum_C r_C
(q - 1 - floor((q - 1) / o(C))).  ``_d_q`` memoizes c and D_q's class
buckets on the cover per (q, Gamma).

Traces of nontrivial deck transformations are evaluated by the fixed-point
formula and returned as floating-point complex numbers together with the
exact list of root-of-unity terms; downstream consumers reconstruct exact
integer multiplicities from them, so no cyclotomic arithmetic is needed.

The genus and ``delta_info`` are computed once per cover, so a dimension,
multiplicity or trace then costs O(#classes); a trace checks tau once and
takes each class's exponent from the discrete log of ``power_index`` with
no vector checked again.  On a genus-1
cover of the line the corrected character is the one whose u-row is
rho_C = (q - 1) mod o(C), D_q's bucket (``_d_q``).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Sequence

from .cover import CharLike, ClassKey, CoverSpec
from .divisors import EigenDivisor, _euler_numerator
from .errors import (
    AdmissibilityViolation,
    ConfigError,
    IdentityElement,
    InternalInconsistency,
    NonIntegralInvariant,
    NotAbelian,
    NTableMismatch,
    UnsupportedBaseGenus,
    _integer,
    _integers,
    _record,
)
from .groups import Character, GenericCharacter, GroupElement, _of_kind


def check_admissible(genus_cover: int, q: int):
    if genus_cover >= 2 and q >= 1:
        return
    if genus_cover == 1:
        return
    if genus_cover == 0 and q <= 1:
        return
    raise AdmissibilityViolation(genus_cover, q)


@_record
class OmegaDivisor(EigenDivisor):
    """Divisor of the normalized q-differential generator attached to chi on a
    genus-0 base, plus its symbolic presentation over dz^q."""

    q: int
    linear_factor_powers: tuple[tuple[object, int], ...]  # (label, alpha) per branch value

    def presentation(self) -> str:
        denom = [f"h[{self.cover.conjugate_character(self.character)}]"]
        denom.extend(
            f"(z-{label})^{alpha}" if alpha != 1 else f"(z-{label})"
            for label, alpha in self.linear_factor_powers
            if alpha
        )
        return f"(dz)^{self.q} / ({' * '.join(denom)})"


def omega_divisor(cover: CoverSpec, chi: CharLike, q: int = 1) -> OmegaDivisor:
    """Exponents of the normalized q-differential generator: beta at every
    branch preimage, and t_{conj chi} - 2q + sum_C r_C alpha at infinity."""
    if cover.base_genus != 0:
        raise UnsupportedBaseGenus("explicit generators need a genus-0 base")
    q = _integer(q, "q")
    # a fractional t_chi raises here, at chi; t_{conj chi} is fractional exactly then
    row_conj = cover._conjugate_row(cover.row_and_t(chi)[0])
    t_conj = cover._t_of_row(row_conj, chi)
    # (alpha, beta) with q(o(C) - 1) - u_{conj chi,C} = alpha o(C) + beta
    splits = [divmod(q * (c.order - 1) - u, c.order) for c, u in zip(cover.branch_classes, row_conj)]
    per_point = [splits[i] for i in cover._point_classes]
    infinity = t_conj - 2 * q + sum(alpha for alpha, _ in per_point)
    powers = tuple((bp.label, alpha) for bp, (alpha, _) in zip(cover.branch_points, per_point))
    return OmegaDivisor(cover, chi, tuple(beta for _, beta in per_point), infinity, q, powers)


@_record
class DeltaInfo:
    """Whether one character receives the +1 dimension correction, and which."""

    delta: int
    character: CharLike | None


def same_character(cover: CoverSpec, a: IrrepClassData | CharLike, b: CharLike) -> bool:
    """Equality of characters as the formulas see them: the one test of
    the +1 correction, with b the corrected character.

    Abelian characters compare exactly.  A table is b when it is
    one-dimensional and either names b or, anonymous, has the eigenvalue
    u_{b,C} at every branch class C.  On a genus-0 base the branch classes
    generate the group, so generic characters compare by their values
    there.  On a positive-genus base b is trivial and a nontrivial character
    can vanish on every branch class, so the +1 is never guessed: an
    anonymous table with b's eigenvalues raises NTableMismatch naming the
    ``character`` field, and a generic character is b when its row is 0 on
    every class of the table; a row that is 0 where it is given but omits a
    class raises NTableMismatch naming the character and the class.
    """
    g_s = cover.base_genus
    if isinstance(a, IrrepClassData):
        if a.dim != 1:
            return False
        if a.character is None:
            matched = all(row[u] for row, u in zip(a.rows(cover), cover.u_row(b)))
            if matched and g_s:
                raise NTableMismatch(
                    f"an anonymous table is not matched to the corrected character over a base "
                    f"of genus {g_s}; set its 'character'"
                )
            return matched
        a = a.character
    if isinstance(a, Character):  # then b is one too: ``rows`` and ``u_row`` refuse the other kind
        return a == b
    if not g_s:
        return cover.u_row(a) == cover.u_row(b)
    if not (a.is_trivial and b.is_trivial):
        return False
    given = dict(a.u_values)
    missing = next((c.class_id for c in cover.group.classes if c.order > 1 and c.class_id not in given), None)
    if missing is not None:
        raise NTableMismatch(
            f"character {a} gives no value on class {missing!r}; triviality is not "
            f"inferred from a partial row over a base of genus {g_s}"
        )
    return True


def delta_info(cover: CoverSpec, q: int = 1, gamma_degree: int = 0) -> DeltaInfo:
    """Locate the dimension correction.

    The correction exists iff the auxiliary divisor is trivial and either
    q = 1 or the cover has genus 1.  For genus >= 2 (or genus 0), q must then
    be 1 and the corrected character is trivial, as on a genus-1 cover of a
    genus-1 base, which is unramified.  A genus-1 cover of the line has
    sum_C r_C (1 - 1/o(C)) = 2, so the raw value -1 + sum_C r_C
    frac((q - 1 - u_{chi,C}) / o(C)) is -1 exactly at the character whose
    u-row is rho_C = (q - 1) mod o(C); the rows are read from the u-table,
    and at rho = 0 a generic table may omit its trivial row.

    The result is memoized on the cover instance per (q, gamma_degree), so
    the O(|G|) row match runs once per cover and the memo is freed with it;
    the other cases cost O(1) once the cover's genus is known.
    """
    q, gamma_degree = _integer(q, "q"), _integer(gamma_degree, "gamma_degree")
    if gamma_degree < 0:
        raise ConfigError(
            f"the auxiliary divisor must be integral, got degree {gamma_degree}", "gamma_degree"
        )
    memo = vars(cover).setdefault("_delta_info_memo", {})
    key = (q, gamma_degree)
    if key not in memo:
        memo[key] = _locate_delta(cover, q, gamma_degree)
    return memo[key]


def _locate_delta(cover: CoverSpec, q: int, gamma_degree: int) -> DeltaInfo:
    g_x = cover.genus()
    check_admissible(g_x, q)
    if gamma_degree != 0 or (g_x != 1 and q != 1):
        return DeltaInfo(0, None)
    if g_x != 1 or cover.base_genus == 1:
        return DeltaInfo(1, cover.trivial_character)
    rhos = tuple(buckets[0] for buckets in _d_q(cover, q, 0)[1])
    found = []
    for chi, row in zip(cover.characters(), cover.u_table()):
        cover._t_of_row(row, chi)  # a fractional t raises here, at the first such chi
        if row == rhos:
            found.append(chi)
    if not any(rhos) and not any(chi.is_trivial for chi in found):
        found.append(cover.trivial_character)  # a table may omit its trivial row
    if len(found) != 1:
        raise InternalInconsistency(
            f"expected exactly one character with raw value -1, found {len(found)}"
        )
    return DeltaInfo(1, found[0])


def dim_omega_chi(cover: CoverSpec, chi: CharLike, q: int = 1, gamma_degree: int = 0) -> int:
    """Dimension of the chi-part of q-differentials bounded by the pullback of
    an integral degree-``gamma_degree`` divisor on the base: the
    Chevalley-Weil multiplicity of chi, from its u-row."""
    return _multiplicity(cover, chi, 1, cover.u_row(chi), q, gamma_degree)


def total_dim_omega(cover: CoverSpec, q: int = 1, gamma_degree: int = 0) -> int:
    """(2q-1)(g-1) + n * deg Gamma + delta, the full space dimension."""
    info = delta_info(cover, q, gamma_degree)
    return (2 * q - 1) * (cover.genus() - 1) + cover.degree * gamma_degree + info.delta


# -- traces -------------------------------------------------------------------


@_record
class FixedPointTerm:
    """``multiplicity`` fixed points whose local rotation is zeta_order^exponent."""

    order: int
    exponent: int
    multiplicity: int

    def __post_init__(self):
        for name in ("order", "exponent", "multiplicity"):
            object.__setattr__(self, name, _integer(getattr(self, name), f"the fixed-point {name}"))

    def value(self, q: int) -> complex:
        zeta = cmath.exp(2j * cmath.pi * self.exponent / self.order)
        # zeta^order = 1, so the reduced power is exact and never overflows
        return self.multiplicity * zeta ** (q % self.order) / (1 - zeta)


@_record
class EichlerTrace:
    """Trace of a deck transformation on a q-differential space.

    ``value`` is the floating-point evaluation; the delta term and the exact
    fixed-point terms are kept alongside so integer data can be reconstructed
    without cyclotomic arithmetic.
    """

    value: complex
    q: int
    delta: int
    delta_character_angle: Fraction | None
    terms: tuple[FixedPointTerm, ...]


def trace_from_fixed_points(
    terms: Sequence[FixedPointTerm],
    q: int,
    delta: int = 0,
    delta_character_angle: Fraction | None = None,
) -> EichlerTrace:
    """Assemble a trace from explicit fixed-point data (generic-group route)."""
    q = _integer(q, "q")
    value = sum((term.value(q) for term in terms), 0j)
    if delta:
        if delta_character_angle is None:
            raise ValueError("delta = 1 needs the corrected character's value")
        value += delta * cmath.exp(2j * cmath.pi * float(delta_character_angle))
    return EichlerTrace(value, q, delta, delta_character_angle, tuple(terms))


def eichler_trace(
    cover: CoverSpec, tau: GroupElement, q: int = 1, gamma_degree: int = 0
) -> EichlerTrace:
    """Fixed-point-formula trace of a nontrivial deck transformation on the
    space of q-differentials bounded by a pullback divisor.

    A branch value of class sigma contributes n / o(sigma) fixed points when
    tau lies in the cyclic group generated by sigma, each with local rotation
    zeta_{o(sigma)}^beta where sigma^beta = tau.
    """
    if not cover.is_abelian:
        raise NotAbelian(
            "fixed points are computed for abelian covers; supply FixedPointTerm "
            "data and use trace_from_fixed_points otherwise"
        )
    group = cover.group
    order = group.element_order(_of_kind(tau, GroupElement, "expected a group element"))  # the one check of tau
    if order == 1:
        raise IdentityElement("the identity trace is the total dimension; use total_dim_omega")
    info = delta_info(cover, q, gamma_degree)
    n = cover.degree
    terms = []
    for cls in cover.branch_classes:
        beta = group._discrete_log(cls.key, tau)
        if beta is not None:
            terms.append(FixedPointTerm(cls.order, beta, cls.count * (n // cls.order)))
    angle = Fraction(group._u_at_order(info.character, tau, order), order) if info.delta else None
    return trace_from_fixed_points(terms, q, info.delta, angle)


# -- Chevalley-Weil multiplicities ---------------------------------------------


@_record
class IrrepClassData:
    """An irreducible representation described by its dimension and, per
    class, the multiplicities of the eigenvalues zeta_{o(C)}^alpha of a class
    representative.

    ``character`` identifies a one-dimensional representation explicitly,
    when the caller knows it, and is used to detect the corrected character.
    """

    dim: int
    n_table: tuple[tuple[ClassKey, tuple[int, ...]], ...]
    character: CharLike | None = None

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dimension"))
        what = "eigenvalue multiplicity at class {}, alpha ="
        rows = tuple((key, _integers(row, what.format(key))) for key, row in self.n_table)
        object.__setattr__(self, "n_table", rows)

    def rows(self, cover: CoverSpec) -> tuple[tuple[int, ...], ...]:
        """N_alpha for every branch class, in ``branch_classes`` order; the
        first class missing or inconsistent raises NTableMismatch, and a
        ``character`` that is no character of the cover's kind a TypeError."""
        kind = Character if cover.is_abelian else GenericCharacter
        if self.character is not None and not isinstance(self.character, kind):
            raise TypeError(f"character must be a {kind.__name__} or None, got {self.character!r}")
        supplied = dict(self.n_table)
        for key, order in ((cls.key, cls.order) for cls in cover.branch_classes):
            if key not in supplied:
                raise NTableMismatch(f"no eigenvalue multiplicities supplied for class {key}")
            row = supplied[key]
            if len(row) != order:
                raise NTableMismatch(
                    f"class {key} has order {order}, but {len(row)} multiplicities were supplied"
                )
            if any(n < 0 for n in row):
                raise NTableMismatch(f"negative eigenvalue multiplicity at class {key}: {row}")
            if sum(row) != self.dim:
                raise NTableMismatch(
                    f"eigenvalue multiplicities at class {key} sum to {sum(row)}, "
                    f"expected the dimension {self.dim}"
                )
        return tuple(supplied[cls.key] for cls in cover.branch_classes)


def conjugate(cover: CoverSpec, rho: IrrepClassData | CharLike) -> IrrepClassData | CharLike:
    """The complex conjugate: ``CoverSpec.conjugate_character`` of a
    character; a table with each checked row's N_alpha moved to
    (-alpha) mod o(C), and its ``character`` conjugated."""
    if not isinstance(rho, IrrepClassData):
        return cover.conjugate_character(rho)
    rows = zip(cover.branch_classes, rho.rows(cover))
    # N_0 stays, and N_alpha moves to o(C) - alpha for 0 < alpha < o(C)
    table = tuple((cls.key, row[:1] + row[:0:-1]) for cls, row in rows)
    character = None if rho.character is None else cover.conjugate_character(rho.character)
    return IrrepClassData(rho.dim, table, character)


# a character's u-row, or per branch class a table's (alpha, N_alpha) pairs
EigenRows = tuple[int, ...] | tuple[tuple[tuple[int, int], ...], ...]


def eigen_rows(cover: CoverSpec, rho: IrrepClassData | CharLike) -> tuple[int, EigenRows]:
    """The dimension of a representation and its eigenvalue data per branch
    class, in order: a character's u-row (N = 1 at alpha = u_{chi,C}), or a
    table's checked (alpha, N_alpha) pairs with N_alpha > 0."""
    if isinstance(rho, IrrepClassData):
        pairs = (tuple((alpha, n) for alpha, n in enumerate(row) if n) for row in rho.rows(cover))
        return rho.dim, tuple(pairs)
    return 1, cover.u_row(rho)


def _d_q(cover: CoverSpec, q: int, gamma_degree: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """D_q's constant c and the buckets (q - 1) mod o(C) of each class's r_C
    points (module docstring), memoized on the cover per (q, gamma_degree)
    as ``delta_info`` is; O(#classes) once."""
    memo = vars(cover).setdefault("_d_q_memo", {})
    key = (q, gamma_degree)
    if key not in memo:
        classes = cover.branch_classes
        c = (2 * q - 1) * (cover.base_genus - 1) + gamma_degree
        c += sum(cls.count * (q - 1 - (q - 1) // cls.order) for cls in classes)
        memo[key] = c, tuple(((q - 1) % cls.order,) * cls.count for cls in classes)
    return memo[key]


def cw_value(cover: CoverSpec, dim: int, rows: EigenRows, q: int, gamma_degree: int) -> int | Fraction:
    """The Chevalley-Weil sum without the delta correction:

        dim ((2q-1)(g_S - 1) + deg Gamma)
            + sum_C r_C sum_alpha N_alpha [ (q-1)(1 - 1/o(C)) + frac((q - 1 - alpha) / o(C)) ]

    which is the divisor kernel ``_euler_numerator`` at D_q (``_d_q``) over
    L = lcm o(C).  ``rows`` is a character's u-row (dim 1) or a table's
    pairs (``eigen_rows``).  Returns the quotient as an int when L divides
    it, else the Fraction, whose ``denominator`` the callers check.

    This one sum serves the q-differential dimensions, the Chevalley-Weil
    multiplicities and, at q = 1, the analytic and rational multiplicities
    on the Jacobian.
    """
    num = _euler_numerator(cover, *_d_q(cover, q, gamma_degree), dim, rows)
    lcm = cover.class_weights[0]
    value, rem = divmod(num, lcm)
    return Fraction(num, lcm) if rem else value


def cw_multiplicity(cover: CoverSpec, rho: IrrepClassData | CharLike, q: int = 1, gamma_degree: int = 0) -> int:
    """Multiplicity of an irreducible representation in the deck action on
    q-differentials bounded by a pullback divisor: the raw value, plus one
    at the corrected character.  A multiplicity is never negative; a
    negative one is an inconsistent table, or an internal fault for a
    character."""
    return _multiplicity(cover, rho, *eigen_rows(cover, rho), q, gamma_degree)


def _multiplicity(
    cover: CoverSpec, rho: IrrepClassData | CharLike, dim: int, rows: EigenRows, q: int, gamma_degree: int
) -> int:
    """``cw_multiplicity`` from rho's ``eigen_rows``, which a caller holding
    a character's u-row passes as (1, row).  A value that is not an integer
    is an inconsistent table or, at a character, bad branch data."""
    info = delta_info(cover, q, gamma_degree)
    value = cw_value(cover, dim, rows, q, gamma_degree)
    integral = value.denominator == 1
    if integral and info.delta and same_character(cover, rho, info.character):
        value += 1
    if integral and value >= 0:
        return value
    if isinstance(rho, IrrepClassData):
        problem = "negative" if integral else "not an integer"
        raise NTableMismatch(f"multiplicity {value} is {problem}; eigenvalue table inconsistent")
    if integral:
        raise InternalInconsistency(f"negative dimension {value} at {rho}")
    raise NonIntegralInvariant(rho, f"dimension value {value}")
