"""Finite abelian groups, their characters, and generic conjugacy-class data.

Elements and characters of a product of cyclic groups are both encoded as
integer exponent vectors, one residue per cyclic factor.  A character's
value on an element is kept as the integer exponent of a root of unity;
no floating-point roots of unity appear anywhere in this module.

Non-abelian groups are never enumerated.  A ClassTable is trusted input
carrying exactly the per-conjugacy-class data the dimension formulas consume:
the element order of each class and, optionally, rows of one-dimensional
character values.

``GroupSpec.u_value`` is the one u formula for abelian groups, chi(x) =
zeta_{o(x)}^u, and a cover reads u once per branch class for the unit
characters and assembles every character's u-row from those columns
(``CoverSpec.u_row``, ``CoverSpec.u_table``).

Only ``elements`` and ``characters`` walk the group, and they refuse a group
of order above ``DEFAULT_CAP`` with SearchSpaceTooLarge.  Every other question
(orders, conjugates, u-values, discrete logs) is answered per cyclic factor.
"""

from __future__ import annotations

import math
from itertools import product, repeat
from operator import floordiv, mod, mul
from typing import Iterator, Mapping, Sequence

from .errors import SearchSpaceTooLarge, _integer, _integers, _record

# the largest group ``elements`` and ``characters`` walk, and the default
# bound on the assignments ``enumeration.brute_force_filter`` scans
DEFAULT_CAP = 10**7


def euler_phi(n: int) -> int:
    """Euler totient of a positive integer, by trial-division factoring."""
    if n < 1:
        raise ValueError(f"euler_phi needs a positive integer, got {n}")
    result = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


@_record
class GroupElement:
    """Element of a product of cyclic groups, one residue per factor."""

    exponents: tuple[int, ...]

    def __str__(self):
        return "g(" + ",".join(str(a) for a in self.exponents) + ")"


def _of_kind(x: object, kind: type, what: str):
    """x when it is a ``kind``; anything else raises TypeError, saying ``what`` was expected."""
    if not isinstance(x, kind):
        raise TypeError(f"{what}, got {x!r}")
    return x


def _class_element(key: object) -> GroupElement:
    """An abelian class key, which must be a group element."""
    return _of_kind(key, GroupElement, "abelian covers index classes by group elements")


@_record
class Character:
    """Character of a product of cyclic groups; the zero vector is trivial."""

    exponents: tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return not any(self.exponents)

    def __str__(self):
        return "chi(" + ",".join(str(k) for k in self.exponents) + ")"


@_record
class CharacterOrbit:
    """Galois orbit of a character: all powers coprime to its order.

    Each orbit corresponds to one cyclic quotient of the group, of order
    ``order``; ``field_degree`` is phi(order), the degree of the cyclotomic
    field the orbit's values generate.
    """

    characters: tuple[Character, ...]
    order: int
    field_degree: int

    @property
    def representative(self) -> Character:
        return self.characters[0]


@_record
class GroupSpec:
    """Finite abelian group presented as a product of cyclic factors."""

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cyclic_orders", _integers(self.cyclic_orders, "cyclic order"))
        if any(m < 1 for m in self.cyclic_orders):
            raise ValueError(f"cyclic orders must be positive, got {self.cyclic_orders}")

    @property
    def order(self) -> int:
        return math.prod(self.cyclic_orders)

    @property
    def rank(self) -> int:
        return len(self.cyclic_orders)

    # -- construction and validation ------------------------------------

    def element(self, exponents: Sequence[int]) -> GroupElement:
        return GroupElement(self._reduce(exponents, "element"))

    def character(self, exponents: Sequence[int]) -> Character:
        return Character(self._reduce(exponents, "character"))

    def _reduce(self, exponents, what) -> tuple[int, ...]:
        exponents = _integers(exponents, f"{what} exponent")
        if len(exponents) != self.rank:
            raise ValueError(
                f"{what} exponent vector has length {len(exponents)}, expected {self.rank}"
            )
        return tuple(e % m for e, m in zip(exponents, self.cyclic_orders))

    def check_element(self, x: GroupElement | Character) -> GroupElement | Character:
        """x, an element or a character: both are exponent vectors reduced mod
        the orders, so reducing again leaves them unchanged."""
        e, orders = tuple(x.exponents), self.cyclic_orders
        if len(e) != len(orders) or tuple(map(mod, e, orders)) != e:
            raise ValueError(f"malformed exponent vector {x.exponents} for orders {orders}")
        return x

    @property
    def identity(self) -> GroupElement:
        return GroupElement((0,) * self.rank)

    @property
    def trivial_character(self) -> Character:
        return Character((0,) * self.rank)

    def _exponent_vectors(self) -> Iterator[tuple[int, ...]]:
        """Every exponent vector, lazily; a group above the cap is refused
        here, on the first ``next`` of ``elements`` or ``characters``."""
        if self.order > DEFAULT_CAP:
            raise SearchSpaceTooLarge(self.order, DEFAULT_CAP)
        return product(*(range(m) for m in self.cyclic_orders))

    def elements(self) -> Iterator[GroupElement]:
        """All elements in lexicographic order of exponent vectors."""
        for exps in self._exponent_vectors():
            yield GroupElement(exps)

    def characters(self) -> Iterator[Character]:
        """All characters in lexicographic order of exponent vectors."""
        for exps in self._exponent_vectors():
            yield Character(exps)

    # -- element arithmetic ----------------------------------------------

    def element_order(self, x: GroupElement | Character) -> int:
        orders = self.cyclic_orders
        return math.lcm(*map(floordiv, orders, map(math.gcd, orders, self.check_element(x).exponents)))

    def power_index(self, base: GroupElement, target: GroupElement) -> int | None:
        """The least k >= 0 with base^k == target, or None when target is not
        in the cyclic group <base>.

        A discrete log by the CRT, in O(rank log |G|) integer steps: factor i
        asks k s_i = t_i (mod m_i), which with g = gcd(s_i, m_i) is solvable
        iff g | t_i and then fixes k modulo m_i / g; the congruences are
        merged by the CRT for moduli that need not be coprime.  The merged
        modulus is o(base), so the result lies in [0, o(base)).
        """
        vectors = (_of_kind(x, GroupElement, "expected a group element") for x in (base, target))
        return self._discrete_log(*map(self.check_element, vectors))

    def _discrete_log(self, base: GroupElement, target: GroupElement) -> int | None:
        """``power_index`` of two vectors already reduced mod the orders."""
        k, modulus = 0, 1
        for s, t, m in zip(base.exponents, target.exponents, self.cyclic_orders):
            g = math.gcd(s, m)
            if t % g:
                return None
            m //= g
            r = t // g * pow(s // g, -1, m) % m
            # merge k (mod modulus) with r (mod m)
            h = math.gcd(modulus, m)
            if (r - k) % h:
                return None
            step = (r - k) // h * pow(modulus // h, -1, m // h) % (m // h)
            k += modulus * step
            modulus *= m // h
        return k

    # -- character arithmetic --------------------------------------------

    def char_pow(self, chi: Character, k: int) -> Character:
        k = _integer(k, "the power of a character")
        return Character(tuple(map(mod, map(mul, chi.exponents, repeat(k)), self.cyclic_orders)))

    def u_value(self, chi: Character, x: GroupElement) -> int:
        """Discrete log of chi(x) to base the primitive o(x)-th root of unity.

        Returns the unique u with 0 <= u < o(x) and chi(x) = zeta_{o(x)}^u,
        in integers: o * a_i is a multiple of m_i because o * x = 0.
        """
        chi = self.check_element(_of_kind(chi, Character, "expected a character"))
        return self._u_at_order(chi, x, self.element_order(_class_element(x)))

    def _u_at_order(self, chi: Character, x: GroupElement, o: int) -> int:
        """``u_value`` at an x of order o, with neither vector checked."""
        return sum(k * (o * a // m) for k, a, m in zip(chi.exponents, x.exponents, self.cyclic_orders)) % o

    def rational_character_orbits(self) -> tuple[CharacterOrbit, ...]:
        """Partition of the dual group into Galois orbits chi -> chi^a, gcd(a, e) = 1.

        Orbits come in the order of their lexicographically smallest member,
        as do the characters inside each orbit, and the trivial orbit comes
        first: ``characters()`` walks in that order, so each orbit is first
        met at its least member.
        """
        orbits = []
        seen: set[Character] = set()
        for chi in self.characters():
            if chi in seen:
                continue
            e = self.element_order(chi)
            members = sorted(
                {self.char_pow(chi, a) for a in range(1, e + 1) if math.gcd(a, e) == 1},
                key=lambda c: c.exponents,
            )
            seen.update(members)
            phi = euler_phi(e)
            if len(members) != phi:
                raise AssertionError(f"orbit of {chi} has size {len(members)}, expected {phi}")
            orbits.append(CharacterOrbit(tuple(members), e, phi))
        return tuple(orbits)


# -- generic (non-abelian) conjugacy-class scaffolding -----------------------


@_record
class ClassRecord:
    """One conjugacy class: an identifier, the order of its elements, and an
    optional count of branch values carrying this class (used only when a
    cover is synthesized from class counts)."""

    class_id: str
    order: int
    branch_count: int = 0

    def __post_init__(self):
        if not isinstance(self.class_id, str):
            raise TypeError(f"class id {self.class_id!r} is not a str")
        object.__setattr__(self, "order", _integer(self.order, f"the order of class {self.class_id}"))
        count = _integer(self.branch_count, f"the branch count of class {self.class_id}")
        object.__setattr__(self, "branch_count", count)
        if self.order < 1:
            raise ValueError(f"class order must be positive, got {self.order}")
        if self.branch_count < 0:
            raise ValueError("branch count must be nonnegative")
        if self.order == 1 and self.branch_count:
            raise ValueError("the trivial class cannot carry branch data")


@_record
class GenericCharacter:
    """One-dimensional character of a generic group, given by its u-row.

    ``u_values`` maps each nontrivial class id to the discrete log of the
    character's value on that class, base the primitive o(C)-th root of unity.
    """

    name: str
    u_values: tuple[tuple[str, int], ...]

    @property
    def is_trivial(self) -> bool:
        return not any(u for _, u in self.u_values)

    def __str__(self):
        return self.name


@_record
class ClassTable:
    """Trusted conjugacy-class data for a group that is never enumerated."""

    classes: tuple[ClassRecord, ...]
    group_order: int
    characters: tuple[GenericCharacter, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "group_order", _integer(self.group_order, "group order"))
        if self.group_order < 1:
            raise ValueError("group order must be positive")
        vars(self)["_by_id"] = by_id = {c.class_id: c for c in self.classes}  # the index ``record`` reads
        if len(by_id) != len(self.classes):
            raise ValueError("duplicate class ids")
        for rec in self.classes:
            if self.group_order % rec.order:
                raise ValueError(
                    f"class {rec.class_id} has order {rec.order}, "
                    f"not a divisor of the group order {self.group_order}"
                )
        for chi in self.characters:
            for cid, u in chi.u_values:
                if cid not in by_id:
                    raise ValueError(f"character {chi.name} references unknown class {cid}")
                if not 0 <= u < by_id[cid].order:
                    raise ValueError(
                        f"character {chi.name} has u = {u} outside [0, {by_id[cid].order}) at class {cid}"
                    )

    def record(self, class_id: str) -> ClassRecord:
        return self._by_id[class_id]

    @classmethod
    def build(
        cls,
        classes: Sequence[tuple[str, int] | tuple[str, int, int]],
        group_order: int,
        u_table: Mapping[str, Mapping[str, int]] | None = None,
    ) -> "ClassTable":
        records = tuple(ClassRecord(*spec) for spec in classes)
        chars = ()
        if u_table:
            chars = tuple(
                GenericCharacter(name, tuple(sorted(
                    (cid, _integer(u, f"the u-value of {name} at class {cid}")) for cid, u in row.items()
                )))
                for name, row in sorted(u_table.items())
            )
        return cls(records, group_order, chars)
