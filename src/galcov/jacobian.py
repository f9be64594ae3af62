"""Dimensions in the isogeny decomposition of the Jacobian of a cover.

Multiplicities of irreducibles in the analytic and rational representations
of the deck group on the Jacobian, dimensions of the isotypical abelian
subvarieties, and, for abelian deck groups, the cyclic-quotient pieces:
one ``PrymPiece`` per Galois orbit of characters, built by one per-orbit
function, giving dim B_Q of the primitive Prym variety of the
corresponding cyclic quotient cover; ``decompose`` reads its orbit rows
from these pieces.  The analytic multiplicity at rho is ``cw_multiplicity``
of conj rho at q = 1, Gamma = 0 (T_0 J(X) is the dual of H^0(X, K)), and
the rational one adds that of rho; conjugation, the +1 correction and the
error checks are the differentials module's; ``decompose`` reads both
columns at the u-table's rows and their conjugates.  Each quotient cover is
read off a representative's u-row: a character of order e maps the deck
group onto Z_e, so the group is never enumerated, no Smith form is taken
and no quotient ``CoverSpec`` is built.  Only
integers are computed here, each dimension as one integer numerator
over a known denominator (2 for the isotypical dimensions, 2e for a Z_e
quotient's cross-check); no period matrices, polarizations, or isogenies
are constructed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cover import CharLike, ClassKey, CoverSpec, _riemann_hurwitz
from .differentials import IrrepClassData, _multiplicity, conjugate, cw_multiplicity
from .errors import InternalInconsistency, NonIntegralDimension, NotAbelian, NTableMismatch, _record
from .groups import Character, CharacterOrbit


def analytic_multiplicity(cover: CoverSpec, rho: IrrepClassData | CharLike) -> int:
    """Multiplicity of the irreducible in the deck action on the tangent
    space of the Jacobian at the origin, the dual of H^0(X, K): the
    Chevalley-Weil multiplicity at q = 1, Gamma = 0 of the conjugate."""
    if isinstance(rho, IrrepClassData):
        return cw_multiplicity(cover, conjugate(cover, rho), 1, 0)
    conj, row = cover._conjugate_and_row(rho)
    return _multiplicity(cover, conj, 1, row, 1, 0)


def rational_multiplicity(cover: CoverSpec, rho: IrrepClassData | CharLike) -> int:
    """Multiplicity of the irreducible in the complexified action on the
    rational homology of the Jacobian, the analytic representation plus its
    conjugate: analytic(conj rho) is ``cw_multiplicity`` of rho itself."""
    if isinstance(rho, IrrepClassData):
        return analytic_multiplicity(cover, rho) + cw_multiplicity(cover, rho, 1, 0)
    conj, row = cover._conjugate_and_row(rho)
    analytic = _multiplicity(cover, conj, 1, row, 1, 0)
    return analytic + _multiplicity(cover, rho, 1, cover._conjugate_row(row), 1, 0)


@_record
class RationalIrrepData:
    """A rational irreducible: complex dimension d of a constituent, the
    degree k of its character field, the Schur index m, and the per-class
    invariant-subspace dimensions N_{C,0}.

    ``trivial`` may be set explicitly.  Left None, it is inferred from the
    numerical data over a genus-0 base, where only the trivial
    representation fixes every branch class; over a positive-genus base
    data that looks trivial (d = k = m = 1 and every N_{C,0} = 1) needs the
    flag, and anything else is nontrivial.
    """

    dim: int
    field_degree: int
    schur_index: int
    invariant_dims: tuple[tuple[ClassKey, int], ...]
    trivial: bool | None = None

    def __post_init__(self):
        if self.dim < 1 or self.field_degree < 1 or self.schur_index < 1:
            raise ValueError("dimension, field degree, and Schur index must be positive")
        if self.dim % self.schur_index:
            raise ValueError(
                f"Schur index {self.schur_index} does not divide the dimension {self.dim}"
            )

    def n0_row(self, cover: CoverSpec) -> tuple[int, ...]:
        """N_{C,0} for every branch class, in ``branch_classes`` order; the
        first class missing or out of range raises NTableMismatch."""
        supplied = dict(self.invariant_dims)
        for key in (cls.key for cls in cover.branch_classes):
            if key not in supplied:
                raise NTableMismatch(f"no invariant dimension supplied for class {key}")
            if not 0 <= supplied[key] <= self.dim:
                raise NTableMismatch(f"invariant dimension {supplied[key]} at class {key} out of range")
        return tuple(supplied[cls.key] for cls in cover.branch_classes)

    def is_trivial(self, cover: CoverSpec) -> bool:
        if self.trivial is not None:
            return self.trivial
        looks_trivial = (
            self.dim == 1
            and self.field_degree == 1
            and self.schur_index == 1
            and all(n0 == 1 for n0 in self.n0_row(cover))
        )
        if looks_trivial and cover.base_genus:
            raise NTableMismatch(
                f"triviality is not inferred over a base of genus {cover.base_genus}; set the 'trivial' flag"
            )
        return looks_trivial

    @classmethod
    def _of_orbit_row(cls, cover: CoverSpec, orbit: CharacterOrbit, row: tuple[int, ...]):
        """The orbit's irreducible from its representative's u-row: N_{C,0}
        is 1 on the classes in the kernel, where u = 0, and 0 elsewhere."""
        rows = tuple((bcls.key, int(u == 0)) for bcls, u in zip(cover.branch_classes, row))
        return cls(1, orbit.field_degree, 1, rows, trivial=orbit.order == 1)


def _isotypical_dim(cover: CoverSpec, w: RationalIrrepData, factor: int, name: str) -> int:
    """k f (d (g_S - 1) + sum_C r_C (d - N_{C,0}) / 2) + [W trivial], from
    the integer twice its value."""
    k, d = w.field_degree, w.dim
    twice = 2 * k * factor * d * (cover.base_genus - 1) + 2 * w.is_trivial(cover)
    twice += k * factor * sum(c.count * (d - n0) for c, n0 in zip(cover.branch_classes, w.n0_row(cover)))
    value, odd = divmod(twice, 2)
    if odd:
        raise NonIntegralDimension(f"{name} = {Fraction(twice, 2)} is not an integer")
    return value


def dim_A_W(cover: CoverSpec, w: RationalIrrepData) -> int:
    """Dimension of the isotypical abelian subvariety attached to a rational
    irreducible."""
    return _isotypical_dim(cover, w, w.dim, "dim A_W")


def dim_B_W(cover: CoverSpec, w: RationalIrrepData) -> int:
    """Dimension of the primitive factor B_W, of which A_W is the
    (d/m)-th power up to isogeny."""
    return _isotypical_dim(cover, w, w.schur_index, "dim B_W")


@_record
class PrymPiece:
    """A cyclic quotient Q of the deck group, its quotient cover, and the
    primitive Prym dimension dim B_Q, computed both from the kernel sum
    (``dim``) and from the quotient cover's own branch data."""

    orbit: CharacterOrbit
    quotient_order: int
    quotient_genus: int
    dim: int
    dim_from_quotient: int
    nontrivial: bool


def primitive_prym_dims(cover: CoverSpec) -> tuple[PrymPiece, ...]:
    """One piece per cyclic quotient Q of an abelian deck group, equivalently
    per Galois orbit of characters: dim B_Q = phi(|Q|) (g_S - 1 + delta +
    sum over classes outside the kernel of r_C / 2), which is dim B_W of the
    orbit's rational irreducible.

    For each orbit the quotient cover by the kernel of a representative
    character chi is a Z_e-cover, read off chi's u-row without building it:
    a class C maps to chi(C) = zeta_{o(C)}^u, of order o(C) / gcd(u, o(C)),
    and dies when u = 0.  Its genus, by Riemann-Hurwitz, feeds the
    cross-check formula phi(|Q|)/|Q| * (g_Y - 1) + delta + phi(|Q|) * sum_y
    r_y / (2 o(y)), which must agree with the kernel-sum dimension.  A piece
    is flagged nontrivial per the quotient-genus criterion: g_Y >= 1, except
    for a nontrivial quotient with g_Y = g_S = 1.
    """
    if not cover.is_abelian:
        raise NotAbelian("cyclic quotients are enumerated for abelian deck groups")
    return tuple(_prym_piece(cover, orbit) for orbit in cover.group.rational_character_orbits())


def _prym_piece(cover: CoverSpec, orbit: CharacterOrbit) -> PrymPiece:
    """The PrymPiece of one orbit, with its kernel-sum dimension dim B_W."""
    row = cover.u_row(orbit.representative)
    dim = dim_B_W(cover, RationalIrrepData._of_orbit_row(cover, orbit, row))
    e, phi = orbit.order, orbit.field_degree
    # (order, count) of each branch class of the quotient cover that survives
    images = [(c.order // math.gcd(u, c.order), c.count) for c, u in zip(cover.branch_classes, row) if u]
    g_y = _riemann_hurwitz(cover.base_genus, e, images)
    # 2e times the quotient form: every class order of the Z_e quotient divides e
    num = 2 * phi * (g_y - 1) + 2 * (e == 1)
    num += phi * sum(r * e // o for o, r in images)
    value, rem = divmod(num, 2 * e)
    if rem:
        raise NonIntegralDimension(f"quotient-form dim = {Fraction(num, 2 * e)} is not an integer")
    nontrivial = g_y >= 1 and not (e > 1 and g_y == 1 and cover.base_genus == 1)
    return PrymPiece(orbit, e, g_y, dim, value, nontrivial)


@_record
class OrbitSummary:
    orbit: CharacterOrbit
    dim_A: int
    dim_B: int


@_record
class DecompositionReport:
    """Per-character multiplicities and the full table of isotypical and
    cyclic-quotient dimensions for an abelian cover."""

    cover: CoverSpec
    analytic: tuple[tuple[Character, int], ...]
    rational: tuple[tuple[Character, int], ...]
    orbits: tuple[OrbitSummary, ...]
    quotients: tuple[PrymPiece, ...]

    @property
    def genus(self) -> int:
        return self.cover.genus()


def decompose(cover: CoverSpec) -> DecompositionReport:
    """Assemble the full decomposition report; the isotypical dimensions are
    checked to sum to the genus."""
    if not cover.is_abelian:
        raise NotAbelian("the decomposition report enumerates the dual group")
    analytic, rational = [], []
    for chi, row in zip(cover.characters(), cover.u_table()):
        # analytic(chi) is the multiplicity of conj chi, and rational(chi) adds
        # chi's own; chi is reduced, so its conjugate needs no check
        conj = _multiplicity(cover, cover.group.char_pow(chi, -1), 1, cover._conjugate_row(row), 1, 0)
        analytic.append((chi, conj))
        rational.append((chi, conj + _multiplicity(cover, chi, 1, row, 1, 0)))
    prym = primitive_prym_dims(cover)
    # a character orbit's irreducible has d = m = 1, so dim A_W = dim B_W = dim B_Q
    orbits = tuple(OrbitSummary(piece.orbit, piece.dim, piece.dim) for piece in prym)
    total = sum(summary.dim_A for summary in orbits)
    genus = cover.genus()
    if total != genus:
        raise InternalInconsistency(
            f"isotypical dimensions sum to {total}, expected the genus {genus}"
        )
    return DecompositionReport(cover, tuple(analytic), tuple(rational), orbits, prym)
