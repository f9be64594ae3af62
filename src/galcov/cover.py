"""Covers of a base surface described by branch data.

A CoverSpec carries the base genus, the deck group (abelian, or a trusted
conjugacy-class table), and the finite list of branch values together with
the deck-group class attached to each by lifting small loops.  Everything
downstream (genus, t-invariants, divisor dimensions, traces, Jacobian
dimensions) is derived from this data alone.

Every formula sees a character only through its u-row, ``CoverSpec.u_row``:
the integers u_{chi,C}, one per branch class in ``branch_classes`` order,
with chi(x) = zeta_{o(C)}^u for x in C.  On an abelian cover u is additive in
chi, so the row is one dot product per class with the unit characters'
columns, built once per cover; a generic cover reads the supplied row.  A
public per-character question checks its argument once, where it reads the
row (anything that is no character of the cover's kind raises TypeError
there), and then does arithmetic on it: ``row_and_t`` returns it with
t_chi, ``u_value`` on a branch class reads that class's unit column, and
conj chi's row is (-u) mod o(C) of chi's, from one helper,
``_conjugate_row`` (``_conjugate_and_row`` pairs it with conj chi).
One method, ``_t_of_row``, turns a row into t_chi and words the error for a
non-integral one; every genus, of this cover or of a quotient read off a
row, is one Riemann-Hurwitz sum (``_riemann_hurwitz``).

A walk over the dual group reads the u-table, ``CoverSpec.u_table``: every
character's row in ``characters()`` order, streamed factor by factor as
zips of integer ranges, so no ``Character`` is built and no row is checked.
A walk that names its characters zips the table with ``characters()``;
one that names a character only for an error rebuilds it from its index.

Every invariant is one integer numerator over a known denominator: t_chi
over L = lcm o(C) (``class_weights``), twice the genus over 2.  A
``Fraction`` is built only to report a value that is not an integer.

The distinguished base point used for normalization (infinity when the base
has genus 0) is implicit and never allowed to be a branch value.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, repeat
from operator import mod, mul
from typing import Iterable, Iterator, Sequence

from .errors import DegenerateCover, NonIntegralInvariant, NotAbelian, SearchSpaceTooLarge, _record
from .groups import (
    Character,
    ClassTable,
    GenericCharacter,
    GroupElement,
    DEFAULT_CAP,
    GroupSpec,
    _class_element,
    _of_kind,
    smith_diagonal,
)


@_record
class Coord:
    """Exact point of the affine line: a complex number with rational parts.

    Equality of branch values is exact; callers with approximate inputs must
    rationalize them first.
    """

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


Label = Coord | str
CharLike = Character | GenericCharacter
ClassKey = GroupElement | str


@_record
class BranchPoint:
    """A branch value on the base and the class of its lifted loop."""

    label: Label
    psi: ClassKey

    def __str__(self):
        return f"{self.label}:{self.psi}"


@_record
class BranchClass:
    """One nontrivial class together with the branch values carrying it."""

    key: ClassKey
    order: int
    points: tuple[int, ...]  # indices into CoverSpec.branch_points

    @property
    def count(self) -> int:
        return len(self.points)


@_record
class ValidationIssue:
    kind: str  # "non-integral" or "degenerate"
    character: CharLike
    detail: str = ""


@_record
class ValidationReport:
    ok: bool
    issues: tuple[ValidationIssue, ...] = ()

    def raise_for_status(self):
        if self.ok:
            return
        issue = self.issues[0]
        if issue.kind == "non-integral":
            raise NonIntegralInvariant(issue.character, issue.detail)
        raise DegenerateCover(issue.character)


def _class_sort_key(key: ClassKey):
    if isinstance(key, GroupElement):
        return (0, key.exponents)
    return (1, key)


@_record
class CoverSpec:
    """Branch data of a Galois cover over a base of the given genus.

    The constructor checks every point and builds the point tables:
    ``branch_classes`` (the distinct classes, sorted, with order and points),
    ``point_orders`` and ``_point_classes`` (each point's class order and
    index), and ``class_weights`` (L = lcm o(C) and w_C = r_C L / o(C)).
    """

    base_genus: int
    group: GroupSpec | ClassTable
    branch_points: tuple[BranchPoint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "branch_points", tuple(self.branch_points))
        if self.base_genus < 0:
            raise ValueError("base genus must be nonnegative")
        abelian = self.is_abelian
        labels = set()
        orders: dict[ClassKey, int] = {}
        grouped: dict[ClassKey, list[int]] = {}
        for j, bp in enumerate(self.branch_points):
            if self.base_genus == 0 and not isinstance(bp.label, Coord):
                raise ValueError(
                    f"genus-0 branch values must be exact coordinates, got {bp.label!r}"
                )
            labels.add(bp.label)  # one hash per label: a repeat leaves the set at j
            if len(labels) == j:
                raise ValueError(f"duplicate branch value {bp.label}")
            if not isinstance(bp.psi, GroupElement if abelian else Hashable):  # the key is hashed below
                kind = "abelian covers index classes by group elements" if abelian else "a class key must be hashable"
                raise TypeError(f"branch value {bp.label}: {kind}, got {bp.psi!r}")
            if not isinstance(getattr(bp.psi, "exponents", ()), tuple):
                raise TypeError(f"branch value {bp.label}: class exponents {bp.psi.exponents!r} are no tuple")
            if bp.psi not in orders:  # a class's order is read once, at its first point
                try:
                    orders[bp.psi] = self.class_order(bp.psi)
                except KeyError:  # only a class table's ``record`` looks keys up
                    raise ValueError(f"branch value {bp.label}: class {bp.psi!r} is not in the class table") from None
                if orders[bp.psi] == 1:
                    raise ValueError(f"branch value {bp.label} has trivial class")
            grouped.setdefault(bp.psi, []).append(j)
        classes = tuple(
            BranchClass(key, orders[key], tuple(grouped[key])) for key in sorted(grouped, key=_class_sort_key)
        )
        index = {cls.key: i for i, cls in enumerate(classes)}
        lcm = math.lcm(*orders.values())
        vars(self).update(
            branch_classes=classes,
            point_orders=tuple(orders[bp.psi] for bp in self.branch_points),
            _point_classes=tuple(index[bp.psi] for bp in self.branch_points),
            class_weights=(lcm, tuple(cls.count * (lcm // cls.order) for cls in classes)),
        )

    def point_order(self, j: int) -> int:
        return self.point_orders[j]

    # -- group-mode dispatch ----------------------------------------------

    @property
    def is_abelian(self) -> bool:
        return isinstance(self.group, GroupSpec)

    def _require_abelian(self):
        if not isinstance(self.group, GroupSpec):  # is_abelian, without a property call per row
            raise NotAbelian("operation needs an abelian deck group")
        return self.group

    @property
    def degree(self) -> int:
        return self.group.order if self.is_abelian else self.group.group_order

    def class_order(self, key: ClassKey) -> int:
        if self.is_abelian:
            return self.group.element_order(_class_element(key))
        return self.group.record(key).order

    def characters(self) -> Iterator[CharLike]:
        """All characters in abelian mode, one at a time so that no loop over
        the dual group holds it whole; the supplied rows in generic mode."""
        if self.is_abelian:
            return self.group.characters()
        return iter(self.group.characters)

    @property
    def trivial_character(self) -> CharLike:
        """The zero vector, or generic "1" with u = 0 on every class of the
        table, so that its row decides its triviality."""
        if self.is_abelian:
            return self.group.trivial_character
        return GenericCharacter("1", tuple((c.class_id, 0) for c in self.group.classes))

    def _generic_character(self, chi: object) -> GenericCharacter:
        """chi, a ``GenericCharacter`` of a class table; anything else raises TypeError."""
        _of_kind(chi, GenericCharacter, "expected a character")
        if self.is_abelian:
            _of_kind(chi, Character, "an abelian cover's characters are exponent vectors")
        return chi

    def conjugate_character(self, chi: CharLike) -> CharLike:
        if isinstance(chi, Character):
            group = self._require_abelian()
            return group.char_pow(group.check_element(chi), -1)
        if self._generic_character(chi).is_trivial:
            return chi  # the trivial character is its own conjugate, under its own name
        row = tuple((key, (-u) % self.class_order(key)) for key, u in chi.u_values)
        return GenericCharacter(f"~{chi.name}", row)

    def u_value(self, chi: CharLike, key: ClassKey) -> int:
        """u_{chi,C} on one class; the formulas read whole rows via u_row.  On
        an abelian branch class, one check of chi and one dot product."""
        if isinstance(chi, Character):
            group = self._require_abelian()
            # a key given by an exponent list is not hashed; the group reads it by value
            column = self._unit_u_columns.get(key) if isinstance(getattr(key, "exponents", 0), tuple) else None
            if column is None:
                return group.u_value(chi, key)
            return sum(map(mul, group.check_element(chi).exponents, column[0])) % column[1]
        for cid, u in self._generic_character(chi).u_values:
            if cid == key:
                return u
        raise ValueError(f"character {chi} supplies no value on class {key}")

    def u_row(self, chi: CharLike) -> tuple[int, ...]:
        """u_{chi,C} for every branch class, in ``branch_classes`` order.

        Abelian: (sum_i k_i u_{e_i,C}) mod o(C) over the unit characters e_i.
        Generic: the supplied row; a missing class raises ValueError.
        """
        if isinstance(chi, Character):
            k = self._require_abelian().check_element(chi).exponents
            return tuple([sum(map(mul, k, col)) % o for col, o in self._unit_u_columns.values()])
        self._generic_character(chi)
        return tuple(self.u_value(chi, cls.key) for cls in self.branch_classes)

    def _conjugate_row(self, row: tuple[int, ...]) -> tuple[int, ...]:
        """conj chi's u-row from chi's: (-u_C) mod o(C) per branch class."""
        return tuple([(-u) % cls.order for cls, u in zip(self.branch_classes, row)])

    def _conjugate_and_row(self, chi: CharLike) -> tuple[CharLike, tuple[int, ...]]:
        """conj chi and its u-row.  An abelian chi is checked once, by
        ``u_row``, and its conjugate's row is ``_conjugate_row`` of chi's."""
        if not isinstance(chi, Character):
            conj = self.conjugate_character(chi)
            return conj, self.u_row(conj)
        row = self._conjugate_row(self.u_row(chi))
        return self.group.char_pow(chi, -1), row

    @cached_property
    def _unit_u_columns(self) -> dict[ClassKey, tuple[tuple[int, ...], int]]:
        """By branch class, in order: u_{e_i,C} for the unit characters e_i, and o(C)."""
        g = self.group
        units = [g.character([int(i == j) for j in range(g.rank)]) for i in range(g.rank)]
        return {c.key: (tuple(g.u_value(e, c.key) for e in units), c.order) for c in self.branch_classes}

    def u_table(self) -> Iterator[tuple[int, ...]]:
        """The u-row of every character, in ``characters()`` order.

        Abelian: the rows are streamed one cyclic factor at a time, the last
        factor fastest as in ``characters()``.  Given a row p of the earlier
        factors, factor i contributes k u_{e_i,C} for k = 0, ..., m_i - 1, so
        its m_i rows are a zip, over the classes, of the integer ranges
        p_C + k u_{e_i,C} reduced mod o(C): no ``Character`` is built, no row
        is checked, and a cyclic group's one factor is never held as a list.
        A group above ``DEFAULT_CAP`` is refused as ``characters()`` refuses
        it.  Generic: the rows of the supplied characters.
        """
        if not self.is_abelian:
            return map(self.u_row, self.group.characters)
        group = self.group
        if group.order > DEFAULT_CAP:
            raise SearchSpaceTooLarge(group.order, DEFAULT_CAP)
        columns = tuple(self._unit_u_columns.values())
        if not columns:
            # zip() of no classes yields nothing: every character has the empty row
            return repeat((), group.order)
        orders = tuple(o for _, o in columns)
        rows = iter(((0,) * len(columns),))
        for i, m in enumerate(group.cyclic_orders):
            factor = partial(_factor_rows, steps=tuple(col[i] for col, _ in columns), m=m, orders=orders)
            rows = chain.from_iterable(map(factor, rows))
        return rows

    def _character_at(self, index: int) -> Character:
        """The character at ``index`` in ``characters()`` order on an abelian
        cover, which a u-table walk names when one of its rows raises."""
        exponents = []
        for m in reversed(self.group.cyclic_orders):
            index, k = divmod(index, m)
            exponents.append(k)
        return Character(tuple(reversed(exponents)))

    # -- invariants -----------------------------------------------------------

    def t_fraction(self, chi: CharLike) -> Fraction:
        """sum_C r_C u_{chi,C} / o(C) as a Fraction, integral or not."""
        lcm, weights = self.class_weights
        return Fraction(sum(map(mul, weights, self.u_row(chi))), lcm)

    def t_chi(self, chi: CharLike) -> int:
        """The t-invariant: pole order at the base point of the normalized
        eigenfunction attached to chi.  t = sum_C r_C u_{chi,C} / o(C) is one
        integer numerator over L = lcm o(C) (``row_and_t``).  Raises if the
        branch data is bad."""
        return self.row_and_t(chi)[1]

    def row_and_t(self, chi: CharLike) -> tuple[tuple[int, ...], int]:
        """chi's u-row and t_chi from one ``u_row`` call.

        t is one integer numerator over L (``_t_of_row``); a nonzero
        remainder raises NonIntegralInvariant at chi.
        """
        row = self.u_row(chi)
        return row, self._t_of_row(row, chi)

    def _t_of_row(self, row: tuple[int, ...], chi: CharLike | int) -> int:
        """t = sum_C w_C u_C // L of a u-row (``class_weights``).  A nonzero
        remainder raises NonIntegralInvariant at chi or, for an int, at the
        character with that index in ``characters()`` order, as a u-table
        walk knows it."""
        lcm, weights = self.class_weights
        t, rem = divmod(sum(map(mul, weights, row)), lcm)
        if rem:
            if isinstance(chi, int):
                chi = self._character_at(chi)
            raise NonIntegralInvariant(chi, f"t = {t + Fraction(rem, lcm)}")
        return t

    def validate(self) -> ValidationReport:
        """Necessary conditions on the branch data.

        Checks integrality of every t-invariant and, on a genus-0 base, strict
        positivity at nontrivial characters (failure means the would-be fibered
        product is reducible).  For positive base genus these conditions are
        necessary but not known to be sufficient for existence.

        An abelian cover is tested on its generating vector first, without
        the dual group: every t is integral iff sum_C r_C psi_C = 0, and on a
        genus-0 base no nontrivial t vanishes iff the psi_C generate G (one
        Smith form, the first step of ``quotient``).  Data failing a test, and
        generic covers, get the u-table scan, which lists every issue; above
        ``DEFAULT_CAP``, where the dual group is not walked, the scan checks
        only one witness character that the failed test yields.
        """
        witness = self._generating_vector_witness() if self.is_abelian else None
        if self.is_abelian and witness is None:
            return ValidationReport(True, ())
        above_cap = self.is_abelian and self.group.order > DEFAULT_CAP
        rows = [(witness, self.u_row(witness))] if above_cap else zip(self.characters(), self.u_table())
        lcm, weights = self.class_weights
        issues = []
        for chi, row in rows:
            num = sum(map(mul, weights, row))
            if num % lcm:
                issues.append(ValidationIssue("non-integral", chi, f"t = {Fraction(num, lcm)}"))
            elif self.base_genus == 0 and num == 0 and not chi.is_trivial:
                issues.append(ValidationIssue("degenerate", chi))
        return ValidationReport(not issues, tuple(issues))

    def _generating_vector_witness(self) -> Character | None:
        """None when sum_C r_C psi_C = 0 and, on a genus-0 base, the psi_C
        generate G.  Otherwise a character that fails validation: the unit
        character e_i of the first factor where the sum s is nonzero, whose t
        has fractional part u_{e_i,s} / o(s) != 0; or a nontrivial character
        trivial on every psi_C, so t = 0, pulled back from the first factor
        Z_d of G / <psi_C>."""
        group, classes = self.group, self.branch_classes
        for i, m in enumerate(group.cyclic_orders):
            if sum(cls.count * cls.key.exponents[i] for cls in classes) % m:
                return group.character([int(i == j) for j in range(group.rank)])
        if self.base_genus:
            return None
        quotient, project = self._quotient_group([cls.key for cls in classes])
        if quotient.order == 1:
            return None
        # x -> y_1 / d with y = project(x), in G's exponents: m_j y_1(e_j) / d is an integer
        d = quotient.cyclic_orders[0]
        units = (group.element([int(i == j) for j in range(group.rank)]) for i in range(group.rank))
        images = (project(e).exponents[0] for e in units)
        return group.character([m * y // d for y, m in zip(images, group.cyclic_orders)])

    def genus(self) -> int:
        """Genus of the covering surface, by Riemann-Hurwitz, from the integer
        2g = 2 + 2n(g_S - 1) + sum_C (n / o(C)) r_C (o(C) - 1); computed once
        per cover, in O(#classes)."""
        return self._genus

    @cached_property
    def _genus(self) -> int:
        return _riemann_hurwitz(self.base_genus, self.degree, [(c.order, c.count) for c in self.branch_classes])

    # -- quotients ---------------------------------------------------------

    def quotient(self, subgroup_generators: Sequence[GroupElement]) -> "CoverSpec":
        """Cover of the same base by the quotient of the deck group.

        The quotient group is re-expressed as a product of cyclic factors in
        ascending-divisibility form; branch values whose class dies in the
        quotient are dropped.
        """
        return self.quotient_projection(subgroup_generators)[0]

    def quotient_projection(self, subgroup_generators: Sequence[GroupElement]):
        """The quotient cover together with the projection map on elements."""
        new_group, project = self._quotient_group(subgroup_generators)
        points = tuple(
            BranchPoint(bp.label, project(bp.psi))
            for bp in self.branch_points
            if new_group.element_order(project(bp.psi)) > 1
        )
        return CoverSpec(self.base_genus, new_group, points), project

    def _quotient_group(self, subgroup_generators: Sequence[GroupElement]):
        """G / <subgroup_generators> in ascending-divisibility form, from one
        Smith form, and the projection map on elements."""
        group = self._require_abelian()
        gens = [
            group.check_element(_of_kind(g, GroupElement, "expected a group element"))
            for g in subgroup_generators
        ]
        rank = group.rank
        if rank == 0:
            return GroupSpec(()), lambda x: GroupElement(())
        columns = [
            [m if i == j else 0 for i in range(rank)]
            for j, m in enumerate(group.cyclic_orders)
        ] + [list(g.exponents) for g in gens]
        diag, u = smith_diagonal([list(row) for row in zip(*columns)])
        kept = [i for i, d in enumerate(diag) if d != 1]
        new_group = GroupSpec(tuple(diag[i] for i in kept))

        def project(x: GroupElement) -> GroupElement:
            image = [sum(u[i][k] * x.exponents[k] for k in range(rank)) for i in range(rank)]
            return new_group.element([image[i] for i in kept])

        return new_group, project


def _riemann_hurwitz(base_genus: int, n: int, classes: Iterable[tuple[int, int]]) -> int:
    """Genus of a degree-n Galois cover of a genus-g_S base with r_C branch values of order o(C)
    per (o(C), r_C) in ``classes``: 2g = 2 + 2n(g_S - 1) + sum_C (n / o(C)) r_C (o(C) - 1)."""
    twice = 2 + 2 * n * (base_genus - 1) + sum(n // o * r * (o - 1) for o, r in classes)
    g, odd = divmod(twice, 2)
    if odd:
        raise NonIntegralInvariant(None, f"genus = {Fraction(twice, 2)}")
    return g


def _factor_rows(prefix: tuple[int, ...], steps: tuple[int, ...], m: int, orders: tuple[int, ...]):
    """The m rows (prefix_C + k steps_C) mod orders_C, k = 0, ..., m - 1, as a
    zip of one integer range per class; a zero step repeats the prefix."""
    return zip(*(
        map(mod, range(u, u + m * c, c), repeat(o)) if c else repeat(u, m)
        for u, c, o in zip(prefix, steps, orders)
    ))


def cover_from_class_table(base_genus: int, table: ClassTable) -> CoverSpec:
    """Synthesize a CoverSpec from per-class branch counts.

    Branch values get opaque labels ``<class_id>#<k>`` (integer coordinates
    1, 2, ... on a genus-0 base); the per-class counts recorded in the table
    are consumed here and re-derived from the point list afterwards.
    """
    points = []
    counter = 0
    for rec in table.classes:
        for k in range(rec.branch_count):
            counter += 1
            label = Coord(Fraction(counter)) if base_genus == 0 else f"{rec.class_id}#{k + 1}"
            points.append(BranchPoint(label, rec.class_id))
    return CoverSpec(base_genus, table, tuple(points))
